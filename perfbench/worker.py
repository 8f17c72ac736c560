"""One benchmark process: set up a workload, run it closed-loop, check it.

Started by ``run.py`` in a fresh interpreter with a clean environment; it
prints human-readable report lines and, last, one JSON object for the
launcher.  ``--mode setup`` stops after the set-up operation (the launcher's
extra ``setup_s`` samples); ``--mode measure`` runs the measured phase,
in ``--slices`` parts (see :meth:`Run.measure`).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict

from repro.common import perfstats
from repro.common.rng import default_rng
from repro.core.records import Database
from repro.obs import metrics, trace
from repro.sharding import HashShardPlan
from repro.system import DEFAULT_PAYMENT, SlicerSystem

from workloads import READ_KINDS, SYSTEM_SEED, WORKLOADS, Op, Workload

#: Deterministic counters recorded in the fingerprint (plus gas).
FINGERPRINT_PREFIXES = (
    "hprime.",
    "hash_to_prime.",
    "fixed_base.",
    "multi_exp.",
    "trapdoor_chain.",
    "cloud.",
    "batch.",
    "planner.",
    "blocks.",
    "segstore.appends",
)

KINDS = ("search_eq", "search_order", "plan_batch", "insert")

WORK_DIR = pathlib.Path(__file__).resolve().parent / ".work"


def _deterministic(counters: dict[str, int]) -> dict[str, int]:
    return {k: v for k, v in sorted(counters.items()) if k.startswith(FINGERPRINT_PREFIXES)}


def _dir_bytes(path: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Run:
    """A workload's system, oracle, checks and raw measurements."""

    def __init__(self, workload: Workload, seed: int, store_dir: pathlib.Path | None) -> None:
        self.w = workload
        self.base, self.first, self.rounds = workload.inputs(seed)
        self.oracle = Database(self.base.bits, list(self.base.records), self.base.id_len)
        self.store_dir = store_dir
        self.system: SlicerSystem | None = None
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.escrows = 0
        self.paid = 0
        self.gas: dict[str, int] = defaultdict(int)
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.requests: dict[str, int] = defaultdict(int)
        self.verified_units = 0
        self.inserted_records = 0

    # ------------------------------------------------------------ set-up

    def setup(self) -> float:
        """Construct, ``setup()`` and run the first operation; returns seconds."""
        self.start_counters = perfstats.snapshot()
        start = time.perf_counter()
        with trace.span("bench.setup", kind="setup"):
            w = self.w
            self.system = SlicerSystem(
                w.params(),
                rng=default_rng(SYSTEM_SEED),
                shard_plan=HashShardPlan(w.shards) if w.shards > 1 else None,
                settlement_mode=w.settlement,
                store_dir=self.store_dir,
            )
            chain = self.system.chain
            self.balances0 = (
                chain.balance(self.system.cloud_address),
                chain.balance(self.system.user_address),
            )
            self.system.setup(self.base)
            self.execute(self.first)
        return time.perf_counter() - start

    # -------------------------------------------------------- operations

    def execute(self, op: Op) -> tuple[float, bool]:
        """Run one operation, check it against the oracle; (seconds, verified)."""
        units = len(op.payload) if op.kind == "plan_batch" else 1
        self.attempted += units
        failed = 0
        start = time.perf_counter()
        try:
            if op.kind == "insert":
                receipt = self.system.insert(op.payload)
                elapsed = time.perf_counter() - start
                self.gas["update_ads"] += receipt.gas_used
                if receipt.status:
                    self.oracle.records.extend(op.payload.records)
                    self.inserted_records += len(op.payload.records)
                else:
                    failed = 1
            elif op.kind == "plan_batch":
                results = self.system.search_plans(op.payload)
                elapsed = time.perf_counter() - start
                settles: set[int] = set()
                for plan in results:
                    for leg in plan.legs:
                        self._account(leg, settles)
                    if not plan.verified:
                        failed += 1
                    elif plan.record_ids != plan.plan.oracle_ids(self.oracle):
                        self._wrong(plan.plan.describe())
            else:
                outcome = self.system.search(op.payload)
                elapsed = time.perf_counter() - start
                self._account(outcome, set())
                if not outcome.verified:
                    failed = 1
                elif outcome.record_ids != self.oracle.ids_matching(op.payload.predicate()):
                    self._wrong(op.payload.describe())
        except Exception:  # noqa: BLE001 - a raising operation counts as failed
            elapsed = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            failed = units
        self.failed += failed
        self.verified_units += units - failed
        return elapsed, failed == 0

    def _account(self, outcome, settles: set[int]) -> None:
        self.escrows += 1
        self.paid += bool(outcome.verified)
        if outcome.submit_receipt is not None:
            self.gas["submit"] += outcome.submit_receipt.gas_used
        receipt = outcome.settle_receipt
        if receipt is not None and id(receipt) not in settles:
            settles.add(id(receipt))
            self.gas["settle"] += receipt.gas_used
        self.gas["queries"] += bool(outcome.verified)

    def _wrong(self, what: str) -> None:
        print(f"WRONG verified answer for {what}", file=sys.stderr)
        self.correct = False

    # ------------------------------------------------------ measurement

    def measure(self, seconds: float, traced: bool, slices: int = 1) -> None:
        """Closed loop over whole rounds for ``seconds`` and at least the prefix.

        With ``slices > 1`` the measured seconds are cut into that many equal
        slices.  Between two slices the process prints ``# paused`` and waits
        for a line on standard input, so the launcher can take its set-up
        samples there: the measuring is then spread over the whole run, not
        one stretch of it, and a drift in the host's speed averages out.
        In the traced run, even rounds are traced and odd rounds are not,
        so the tracing overhead is measured inside one process.
        """
        self.counters0 = perfstats.snapshot()
        self.gas0 = dict(self.gas)
        store_bytes0 = _dir_bytes(self.store_dir) if self.store_dir else 0
        inserted0 = self.inserted_records
        units0 = self.verified_units
        self.round_s: dict[bool, list[float]] = {True: [], False: []}
        self.fingerprint = None
        rounds = 0
        pauses = 0
        measured = 0.0
        while rounds < self.w.prefix_rounds or measured < seconds:
            ops = next(self.rounds)
            traced_round = traced and rounds % 2 == 0
            if traced:
                metrics.set_obs_enabled(traced_round)
            round_start = time.perf_counter()
            for op in ops:
                with trace.span("bench.request", kind=op.kind):
                    elapsed, ok = self.execute(op)
                self.requests[op.kind] += 1
                if ok:
                    self.latency[op.kind].append(elapsed)
            round_s = time.perf_counter() - round_start
            self.round_s[traced_round].append(round_s)
            measured += round_s
            rounds += 1
            if rounds == self.w.prefix_rounds:
                self.fingerprint = self._fingerprint()
            while pauses < slices - 1 and measured >= seconds * (pauses + 1) / slices:
                pauses += 1
                print("# paused", flush=True)
                sys.stdin.readline()
        self.measured_s = measured
        self.measured_units = self.verified_units - units0
        if traced:
            metrics.set_obs_enabled(True)
        self.counters = perfstats.delta_since(self.counters0)
        self.store_bytes_added = (_dir_bytes(self.store_dir) if self.store_dir else 0) - store_bytes0
        self.records_added = self.inserted_records - inserted0

    def _fingerprint(self) -> dict:
        """Counter deltas and gas from construction to the end of the prefix."""
        return {
            "counters": _deterministic(perfstats.delta_since(self.start_counters)),
            "gas": dict(sorted(self.gas.items())),
            "escrows": self.escrows,
        }

    def check_fairness(self) -> None:
        """Zero escrow left; the cloud gained, and the user paid, exactly the paid escrows."""
        chain = self.system.chain
        held = chain.balance(self.system.contract.address)
        gain = chain.balance(self.system.cloud_address) - self.balances0[0]
        spent = self.balances0[1] - chain.balance(self.system.user_address)
        expected = DEFAULT_PAYMENT * self.paid
        if held != 0 or gain != expected or spent != expected:
            print(
                f"FAIRNESS violated: escrow={held} cloud_gain={gain} user_spent={spent} "
                f"expected={expected} ({self.paid} paid of {self.escrows})",
                file=sys.stderr,
            )
            self.correct = False

    # ----------------------------------------------------------- metrics

    def read_p50s(self) -> dict[str, float]:
        return {
            kind: statistics.median(self.latency[kind]) * 1000
            for kind in READ_KINDS
            if self.latency.get(kind)
        }

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        prefix_gas = self.fingerprint["gas"]
        queries = max(1, prefix_gas.get("queries", 0))
        return {
            "setup_s": setup_s,
            "query_p50_ms": statistics.fmean(self.read_p50s().values()),
            "ops_per_s": self.measured_units / self.measured_s,
            "gas_per_query": (prefix_gas.get("submit", 0) + prefix_gas.get("settle", 0)) / queries,
            "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "verified_ratio": (self.attempted - self.failed) / self.attempted,
        }

    def report(self, setup_s: float) -> list[str]:
        """Every end-to-end figure by name, n/a where the workload has no such operation."""
        lines = [f"setup_s                {setup_s:10.3f} s"]
        for kind in KINDS:
            samples = self.latency.get(kind, [])
            if not samples:
                lines.append(f"{kind + '_p50_ms':<22} {'n/a':>10}")
                continue
            p50 = statistics.median(samples) * 1000
            p90 = (
                f"{statistics.quantiles(samples, n=10)[8] * 1000:10.2f} ms"
                if len(samples) >= 100
                else f"{'n/a':>10} (n={len(samples)} < 100)"
            )
            lines.append(f"{kind + '_p50_ms':<22} {p50:10.2f} ms (n={len(samples)})")
            if kind != "insert":
                lines.append(f"{kind + '_p90_ms':<22} {p90}")
        e2e = self.end_to_end(setup_s)
        lines += [
            f"ops_per_s              {e2e['ops_per_s']:10.3f} 1/s",
            f"gas_per_query          {e2e['gas_per_query']:10.1f} gas",
            f"rss_peak_mb            {e2e['rss_peak_mb']:10.1f} MB",
            f"failed_ratio           {self.failed / self.attempted:10.4f}",
        ]
        return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("measure", "setup"), default="measure")
    parser.add_argument("--slices", type=int, default=1)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    store_dir = None
    if workload.store:
        store_dir = WORK_DIR / f"{workload.name}-{os.getpid()}"
        shutil.rmtree(store_dir, ignore_errors=True)
        store_dir.mkdir(parents=True)
    try:
        return _run(workload, args, store_dir)
    finally:
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)


def _run(workload: Workload, args, store_dir) -> int:
    traced = bool(args.trace)
    if traced:
        from layers import install_wrappers, layer_metrics

        observed = install_wrappers()
    run = Run(workload, args.seed, store_dir)
    setup_s = run.setup()
    out: dict = {"setup_s": setup_s}
    if args.mode == "measure":
        if traced:
            observed.clear()
        run.measure(args.seconds, traced, args.slices)
        run.check_fairness()
        out["fingerprint"] = run.fingerprint
        if traced:
            out["metrics"], out["report"] = layer_metrics(run, observed)
        else:
            out["metrics"] = run.end_to_end(setup_s)
            out["report"] = run.report(setup_s)
    out.update(correct=run.correct, attempted=run.attempted, failed=run.failed)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
