"""The three named benchmark workloads and their seeded operation streams.

A workload is a dataset, a system configuration and an endless stream of
*rounds*.  A round is the unit the closed-loop client repeats: the
benchmark only stops between rounds, so every run measures whole rounds and
the mix of operation kinds inside a run is fixed.  Everything is drawn from
``--seed``; the system's own keys come from a fixed seed, so two seeds
differ only in their inputs.

Operation kinds:

* ``search_eq`` / ``search_order`` — one ``SlicerSystem.search`` call;
* ``plan_batch`` — one ``SlicerSystem.search_plans`` call over 4 plans;
* ``insert`` — one ``SlicerSystem.insert`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.common.rng import default_rng
from repro.core.params import SlicerParams
from repro.core.query import MatchCondition, Query
from repro.core.records import Database
from repro.crypto.accumulator import AccumulatorParams
from repro.workloads.generator import (
    QueryPopularity,
    RangeWorkload,
    WorkloadGenerator,
    WorkloadSpec,
)

#: Seed of the system's own randomness (keys, nonces): fixed across runs.
SYSTEM_SEED = 20221

READ_KINDS = ("search_eq", "search_order", "plan_batch")

PLANS_PER_BATCH = 4
INSERT_BATCH = 50
SEARCHES_PER_INSERT = 8


@dataclass(frozen=True)
class Op:
    kind: str
    #: A Query (searches), a list of plan expressions, or a Database delta.
    payload: object


@dataclass(frozen=True)
class Workload:
    name: str
    records: int
    bits: int
    #: (workload, generator, base database) -> (set-up op, endless rounds)
    stream: Callable
    shards: int = 1
    settlement: str = "sync"
    store: bool = False
    #: Rounds after the set-up operation that make the deterministic
    #: prefix: its counter deltas and gas are the run's fingerprint, and
    #: every run measures at least these rounds.
    prefix_rounds: int = 1

    def params(self) -> SlicerParams:
        """The default benchmark crypto sizes: 512-bit modulus, 64-bit primes."""
        return SlicerParams(
            value_bits=self.bits,
            prime_bits=64,
            accumulator=AccumulatorParams.demo(512, default_rng(7)),
        )

    def inputs(self, seed: int) -> tuple[Database, Op, Iterator[list[Op]]]:
        gen = WorkloadGenerator(default_rng(seed))
        base = gen.database(WorkloadSpec(self.records, self.bits))
        first, rounds = self.stream(self, gen, base)
        return base, first, rounds


def _stored_eq(gen: WorkloadGenerator, db: Database) -> Op:
    record = db.records[gen.rng.randint_below(len(db.records))]
    return Op("search_eq", Query(record.value, MatchCondition.EQUAL))


def _cold_stream(w: Workload, gen: WorkloadGenerator, base: Database):
    """Equality queries on stored values alternating with uniform order queries."""

    def rounds():
        while True:
            threshold = gen.rng.randint_below(1 << w.bits)
            cond = MatchCondition.LESS if gen.rng.randint_below(2) else MatchCondition.GREATER
            yield [_stored_eq(gen, base), Op("search_order", Query(threshold, cond))]

    return _stored_eq(gen, base), rounds()


#: Enough Zipf draws for any run: ~3 batches/s for 180 s.
_PLAN_DRAWS = PLANS_PER_BATCH * 1024


def _hot_stream(w: Workload, gen: WorkloadGenerator, base: Database):
    """Batches of 4 plans from a 16-entry Zipf pool of 5%-selectivity ranges."""
    spec = RangeWorkload(
        selectivity=0.05, fan_in=1, popularity=QueryPopularity.ZIPF, pool_size=16
    )
    exprs = gen.range_plans(_PLAN_DRAWS, w.bits, spec)
    batches = [
        Op("plan_batch", exprs[i : i + PLANS_PER_BATCH])
        for i in range(0, len(exprs), PLANS_PER_BATCH)
    ]

    def rounds():
        for batch in batches[1:]:
            yield [batch]
        raise RuntimeError("plan stream exhausted")

    return batches[0], rounds()


def _churn_stream(w: Workload, gen: WorkloadGenerator, base: Database):
    """Insert 50 records, then 8 equality searches: half newest batch, half base."""

    def rounds():
        next_id = len(base.records)
        while True:
            batch = gen.database(WorkloadSpec(INSERT_BATCH, w.bits), id_offset=next_id)
            next_id += INSERT_BATCH
            ops = [Op("insert", batch)]
            for i in range(SEARCHES_PER_INSERT):
                ops.append(_stored_eq(gen, batch if i % 2 == 0 else base))
            yield ops

    return _stored_eq(gen, base), rounds()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cold_search16", 1600, 16, _cold_stream, prefix_rounds=20),
        Workload(
            "hot_plans8", 3200, 8, _hot_stream, shards=4, settlement="block", prefix_rounds=16
        ),
        Workload("insert_churn16", 1600, 16, _churn_stream, store=True, prefix_rounds=2),
    )
}
