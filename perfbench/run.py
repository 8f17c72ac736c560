"""End-to-end Slicer benchmark: one command, three named workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold_search16 --seed 1 --seconds 12 --trace 0

Every process this starts is a fresh interpreter with the ``REPRO_*``
variables cleared, ``PYTHONHASHSEED`` pinned and ``src/`` on the path, so
no kernel cache, worker setting or chaos switch leaks in.

* ``--trace 0`` runs the workload with observability off and prints the
  end-to-end metrics.  ``setup_s`` is the median of three set-ups, each in
  its own process: the measured one plus two set-up-only runs, which run
  while the measured process pauses between its three slices of
  measuring, so the measured seconds are spread over the whole run.
* ``--trace 1`` runs it once with tracing on and the layer wrappers
  installed, and prints the per-layer metrics and the layer report.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("cold_search16", "hot_plans8", "insert_churn16")
SETUP_SAMPLES = 3
HASH_SEED = "0"
#: Whole-run deadline; a run must end within 180 s.
DEADLINE_S = 170.0


E2E_UNITS = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "ops_per_s": "1/s",
    "gas_per_query": "gas",
    "rss_peak_mb": "MB",
    "verified_ratio": "ratio",
}


def unit_of(name: str) -> str:
    """Unit of an end-to-end or per-layer metric, from its name."""
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.startswith("gas."):
        return "gas"
    if name.endswith("bytes_per_record"):
        return "B"
    if name.endswith(("ratio", "imbalance", "overhead", "_share")) or name.startswith("share."):
        return "ratio"
    return "count"


def clean_env(trace: int) -> dict[str, str]:
    """The child environment: no inherited REPRO_* knobs, pinned hash seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONHASHSEED=HASH_SEED,
        PYTHONPATH=str(SRC),
        REPRO_OBS=str(trace),
    )
    return env


def _worker_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), *argv]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def run_worker(argv: list[str], env: dict[str, str], deadline: float) -> dict:
    """Run worker.py to completion; returns its JSON, or raises."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("benchmark deadline passed")
    proc = subprocess.run(
        _worker_cmd(argv), env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return _last_json(proc.stdout)


def run_sliced(
    argv: list[str], setup_argv: list[str], env: dict[str, str], deadline: float
) -> list[dict]:
    """Run the measuring worker in slices with a set-up-only run in each pause.

    Returns the measuring worker's JSON followed by the set-up runs' JSON.
    A watchdog kills the measuring worker at the deadline.
    """
    with subprocess.Popen(
        _worker_cmd(argv + ["--slices", str(SETUP_SAMPLES)]),
        env=env,
        cwd=ROOT,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            setups, lines = [], []
            for line in proc.stdout:
                if line.strip() == "# paused":
                    setups.append(run_worker(setup_argv, env, deadline))
                    proc.stdin.write("\n")
                    proc.stdin.flush()
                else:
                    lines.append(line)
            if proc.wait() != 0:
                raise RuntimeError(f"worker exited with {proc.returncode}")
            return [_last_json("".join(lines)), *setups]
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "system.py").is_file():
        print(f"error: no Slicer sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = clean_env(args.trace)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    measure = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        if args.trace:
            runs = [run_worker(measure, env, deadline)]
        else:
            runs = run_sliced(measure, common + ["--mode", "setup"], env, deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    main_run = runs[0]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "env": {k: v for k, v in env.items() if k.startswith(("REPRO_", "PYTHONHASH"))},
        "cleared": sorted(k for k in os.environ if k.startswith("REPRO_")),
        "setup_samples_s": [r["setup_s"] for r in runs],
        "fingerprint": main_run["fingerprint"],
    }
    metrics = dict(main_run["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(r["setup_s"] for r in runs)
    print("# run " + json.dumps(info, sort_keys=True))
    for line in main_run["report"]:
        print(line)
    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in sorted(metrics.items())
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
