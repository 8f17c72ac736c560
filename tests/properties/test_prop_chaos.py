"""Chaos ≡ direct (satellite property suite).

Two equivalences pin the chaos layer down:

* **transparency** — a fault-free (``clean`` profile) chaos run is
  byte-identical to the direct in-process path at every shard width and
  settlement mode: same responses on the wire, same verdicts, decrypted
  IDs, gas, settlement heights, balances and audit verdicts;
* **determinism** — the same chaos seed replays the identical fault
  schedule, outcomes, and ``chaos.*`` / ``retry.*`` counters (the fault
  plan's RNG is independent of the protocol's).

Only ``chaos.*`` / ``retry.*`` counters are compared: kernel counters
(memo hits etc.) are process-warm, so their absolute values depend on what
ran earlier in the session.
"""

import pytest

from repro.chaos import ChaosTransport, FaultPlan, profile_named
from repro.common import perfstats
from repro.common.rng import default_rng
from repro.core import wire
from repro.core.cloud import CloudServer
from repro.core.query import Query
from repro.core.records import make_database
from repro.obs import audit as obs_audit
from repro.planner import And, Range
from repro.system import SlicerSystem

VALUES = [7, 7, 9, 40, 41, 64, 3, 200]
EXTRA = [7, 41]
QUERIES = [
    Query.parse(7, "="),
    Query.parse(40, ">"),
    Query.parse(41, "<"),
]


def database(values, start=0):
    return make_database(
        [(f"rec-{start + i}", v) for i, v in enumerate(values)], bits=8
    )


def build_system(tparams, owner_factory, seed, transport=None, **knobs):
    system = SlicerSystem(
        tparams,
        rng=default_rng(seed),
        owner=owner_factory(tparams, seed=seed),
        transport=transport,
        **knobs,
    )
    system.setup(database(VALUES))
    return system


def run_scenario(system):
    """The fixed workload every equivalence run replays."""
    outcomes = [system.search(q) for q in QUERIES]
    system.insert(database(EXTRA, start=100))
    outcomes.extend(system.search(q) for q in QUERIES)
    return outcomes


#: Every (shards, settlement_mode) cell the transparency check covers.
MODE_CROSS = [(1, "sync"), (1, "block"), (4, "sync"), (4, "block")]
PLANS = [Range(5, 45), And(Range(0, 100), Range(7, 200))]


def run_every_operation(system):
    """search, insert, batch_search and search_plans, in that order."""
    outcomes = [system.search(q) for q in QUERIES]
    insert_gas = system.insert(database(EXTRA, start=100)).gas_used
    outcomes.extend(system.search(q) for q in QUERIES)
    outcomes.extend(system.batch_search(QUERIES))
    for plan in system.search_plans(PLANS):
        outcomes.extend(plan.legs)
    return outcomes, insert_gas


def transparency_fingerprint(outcome):
    """What a clean transport must not change about an outcome.

    The counter snapshot is deliberately left out: ``blockmode.selfcheck.*``
    differs by design, because a response decoded off the wire carries no
    ``membership_items`` for the block-mode self-check to fold.
    """
    return (
        outcome.verified,
        outcome.query_id,
        sorted(outcome.record_ids),
        wire.dump_response(outcome.response),
        outcome.submit_receipt.gas_used,
        outcome.settle_receipt.gas_used,
        outcome.settle_height,
    )


def chaos_counters():
    return {
        k: v
        for k, v in perfstats.snapshot().items()
        if k.startswith(("chaos.", "retry."))
    }


def outcome_fingerprint(outcome):
    return (
        outcome.verified,
        outcome.error,
        outcome.query_id,
        sorted(outcome.record_ids),
        None if outcome.response is None else wire.dump_response(outcome.response),
    )


class TestCleanChaosTransparency:
    def test_clean_chaos_byte_identical_to_direct(self, tparams, owner_factory):
        for shards, mode in MODE_CROSS:
            runs = []
            for transport in (None, ChaosTransport(FaultPlan(profile_named("clean"), seed=1))):
                obs_audit.AUDIT_LOG.reset()
                system = build_system(
                    tparams,
                    owner_factory,
                    seed=7,
                    transport=transport,
                    shards=shards,
                    settlement_mode=mode,
                )
                outcomes, insert_gas = run_every_operation(system)
                assert all(o.verified for o in outcomes), (shards, mode)
                heights = {o.settle_height is not None for o in outcomes}
                assert heights == {mode == "block"}, (shards, mode)
                runs.append(
                    (
                        [transparency_fingerprint(o) for o in outcomes],
                        insert_gas,
                        system.balances(),
                        system.chain.balance(system.contract.address),
                        [r.verdict for r in obs_audit.AUDIT_LOG.records()],
                    )
                )
            assert runs[0] == runs[1], (shards, mode)

    def test_clean_chaos_injects_nothing(self, tparams, owner_factory):
        perfstats.reset()
        transport = ChaosTransport(FaultPlan(profile_named("clean"), seed=1))
        run_scenario(build_system(tparams, owner_factory, seed=7, transport=transport))
        counters = chaos_counters()
        assert not any(k.startswith("chaos.injected.") for k in counters)
        assert counters.get("retry.gave_up", 0) == 0
        assert counters.get("retry.recovered", 0) == 0


class TestSeedDeterminism:
    @pytest.mark.parametrize("profile", ["lossy", "crash_restart"])
    def test_same_seed_same_outcomes_counters_and_schedule(
        self, tparams, owner_factory, profile
    ):
        runs = []
        for _ in range(2):
            perfstats.reset()
            transport = ChaosTransport(FaultPlan(profile_named(profile), seed=9))
            system = build_system(
                tparams, owner_factory, seed=7, transport=transport
            )
            outcomes = run_scenario(system)
            runs.append(
                (
                    [outcome_fingerprint(o) for o in outcomes],
                    [o.attempts for o in outcomes],
                    chaos_counters(),
                    list(transport.plan.history),
                )
            )
        assert runs[0] == runs[1]

    def test_different_seeds_diverge(self, tparams, owner_factory):
        histories = []
        for seed in (9, 10):
            transport = ChaosTransport(FaultPlan(profile_named("lossy"), seed=seed))
            run_scenario(
                build_system(tparams, owner_factory, seed=7, transport=transport)
            )
            histories.append(list(transport.plan.history))
        assert histories[0] != histories[1]


class TestStoreBackedCrashRestart:
    """With a segment store attached a crash restart reopens the store, so
    no install takes the full ``(I, X, Ac)`` snapshot nothing would read."""

    @pytest.mark.parametrize("shards", [1, 4])
    def test_no_snapshots_and_every_search_paid(
        self, tparams, owner_factory, tmp_path, monkeypatch, shards
    ):
        snapshots = []
        snapshot = CloudServer.snapshot

        def counting_snapshot(server):
            snapshots.append(server)
            return snapshot(server)

        monkeypatch.setattr(CloudServer, "snapshot", counting_snapshot)
        perfstats.reset()
        transport = ChaosTransport(FaultPlan(profile_named("crash_restart"), seed=9))
        system = build_system(
            tparams,
            owner_factory,
            seed=7,
            transport=transport,
            shards=shards,
            store_dir=tmp_path / "store",
        )
        outcomes = [system.search(q) for q in QUERIES]
        for i in range(3):
            system.insert(database([50 + i], start=200 + i))
            outcomes.append(system.search(Query.parse(50 + i, "=")))
        assert snapshots == []
        assert all(o.error is None and o.settled and o.verified for o in outcomes)
        restarts = perfstats.get("chaos.cloud_restarts") + perfstats.get(
            "chaos.shard_restarts"
        )
        assert restarts > 0
