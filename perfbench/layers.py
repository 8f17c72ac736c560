"""Per-layer attribution for the traced run.

The program already emits spans at its party boundaries (``submit``,
``cloud.search``, ``verify_settle``, ``install``, ``update_ads``) and inside
the owner and cloud (``owner.index``, ``owner.ads``, ``cloud.results``,
``cloud.vo``).  :func:`install_wrappers` adds spans from this side around
the public entry points of the remaining layers, on the program's own
tracer, so both kinds nest into one tree per request.  Nothing here changes
what the program computes: the wrappers only open a span (a no-op while
observability is off) and record a few sizes.

A span's *self time* is its duration minus the time its child spans cover.
Each span name maps to one layer (the module it wraps); the self time of
orchestration spans (the benchmark's request root, ``search``,
``batch_search``, ``search_plans``, ``insert``, ``setup``) is the request
time covered by no layer span.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict

from dataclasses import dataclass, field

from repro import system as system_module
from repro.blockchain.block_builder import BlockBuilder
from repro.blockchain.chain import Blockchain
from repro.core.cloud import CloudServer
from repro.core.owner import DataOwner
from repro.core.user import DataUser
from repro.crypto import kernels
from repro.obs import trace
from repro.sharding.frontend import ShardedCloudFrontend
from repro.storage.segment_store import SegmentStore

from workloads import READ_KINDS


@dataclass
class Observed:
    """Sizes the wrappers see: decrypted entries, tokens per cloud server."""

    decrypt_entries: int = 0
    tokens_by_server: dict[int, int] = field(default_factory=lambda: defaultdict(int))

    def clear(self) -> None:
        self.decrypt_entries = 0
        self.tokens_by_server.clear()

    def count_entries(self, args, result) -> None:
        self.decrypt_entries += len(args[1].all_entries())

    def count_tokens(self, args, result) -> None:
        """``search`` takes a token list, ``search_many`` a list of them."""
        tokens = args[1]
        if tokens and isinstance(tokens[0], list):
            tokens = [t for group in tokens for t in group]
        self.tokens_by_server[id(args[0])] += len(tokens)


def _wrap(owner, attr: str, name, observe=None) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        label = name(args, kwargs) if callable(name) else name
        with trace.span(label):
            result = original(*args, **kwargs)
        if observe is not None:
            observe(args, result)
        return result

    setattr(owner, attr, wrapper)


def _method(args, kwargs) -> str:
    return kwargs.get("method", args[3] if len(args) > 3 else "?")


def install_wrappers() -> Observed:
    """Wrap each layer's public functions in a span, once per process."""
    observed = Observed()
    _wrap(DataUser, "make_tokens", "user.tokens")
    _wrap(DataUser, "decrypt_results", "user.decrypt", observed.count_entries)
    _wrap(DataOwner, "build", "owner.build")
    _wrap(DataOwner, "insert", "owner.insert")
    _wrap(CloudServer, "search", "cloud.serve", observed.count_tokens)
    _wrap(CloudServer, "search_many", "cloud.serve_many", observed.count_tokens)
    _wrap(CloudServer, "install", "cloud.install")
    _wrap(ShardedCloudFrontend, "search_many", "shard.frontend")
    _wrap(Blockchain, "call", lambda a, k: f"chain.call.{_method(a, k)}")
    _wrap(Blockchain, "mine", "chain.mine")
    _wrap(BlockBuilder, "execute_now", lambda a, k: f"block.execute.{_method(a, k)}")
    _wrap(BlockBuilder, "seal_block", "block.seal")
    _wrap(SegmentStore, "append", "segstore.append")
    # system.py imported compile_plans by name, so patch it where it is used.
    _wrap(system_module, "compile_plans", "planner.compile")
    return observed


#: Layer of each span name, by longest matching prefix; unlisted names are
#: orchestration (unattributed).
_LAYER_PREFIXES = {
    "user.": "core.user",
    "owner.": "core.owner",
    "cloud.": "core.cloud",
    "install": "core.cloud",
    "shard.": "sharding",
    "chain.": "blockchain",
    "block.": "blockchain",
    "submit": "blockchain",
    "verify_settle": "blockchain",
    "update_ads": "blockchain",
    "segstore.": "storage.segment_store",
    "planner.": "planner",
}

LAYERS = (
    "core.user",
    "core.owner",
    "core.cloud",
    "planner",
    "sharding",
    "blockchain",
    "storage.segment_store",
)

UNATTRIBUTED = "unattributed"


def layer_of(name: str) -> str:
    best = ""
    for prefix in _LAYER_PREFIXES:
        if name.startswith(prefix) and len(prefix) > len(best):
            best = prefix
    return _LAYER_PREFIXES[best] if best else UNATTRIBUTED


class SpanTree:
    """Finished spans grouped under their root, with self times."""

    def __init__(self, records: list[dict]) -> None:
        self.by_id = {r["span_id"]: r for r in records}
        child_time: dict[str, float] = defaultdict(float)
        for r in records:
            if r["parent_id"] is not None:
                child_time[r["parent_id"]] += r["end_s"] - r["start_s"]
        self.self_s = {
            sid: (r["end_s"] - r["start_s"]) - child_time[sid] for sid, r in self.by_id.items()
        }
        self._root: dict[str, str] = {}

    def root_of(self, span_id: str) -> dict:
        path = []
        sid = span_id
        while sid not in self._root:
            parent = self.by_id[sid]["parent_id"]
            if parent is None:
                self._root[sid] = sid
                break
            path.append(sid)
            sid = parent
        root = self._root[sid]
        for p in path:
            self._root[p] = root
        return self.by_id[root]

    def spans_under(self, root_name: str):
        """Spans (including the root) whose root span is named ``root_name``."""
        for sid, r in self.by_id.items():
            root = self.root_of(sid)
            if root["name"] == root_name:
                yield r, root

    def profile(self, root_name: str) -> dict:
        """Per request kind: count, total root time, layer self time, span totals."""
        out: dict = defaultdict(
            lambda: {
                "count": 0,
                "total_s": 0.0,
                "layers": defaultdict(float),
                "spans": defaultdict(float),
                "span_counts": defaultdict(int),
            }
        )
        for r, root in self.spans_under(root_name):
            kind = root["attrs"].get("kind", "?")
            entry = out[kind]
            duration = r["end_s"] - r["start_s"]
            if r is root:
                entry["count"] += 1
                entry["total_s"] += duration
            entry["layers"][layer_of(r["name"])] += self.self_s[r["span_id"]]
            entry["spans"][r["name"]] += duration
            entry["span_counts"][r["name"]] += 1
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _hit_ratio(counters: dict[str, int], cache: str) -> float:
    hits = counters.get(f"{cache}.hit", 0)
    return _ratio(hits, hits + counters.get(f"{cache}.miss", 0))


def layer_metrics(run, observed: Observed) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics and the layer report of a traced run.

    Times come from the traced rounds of the measured phase (per traced
    request of the kind a metric serves); counters, gas and sizes from all
    measured rounds.  A layer a workload never calls reports 0.
    """
    tree = SpanTree(trace.TRACER.export())
    prof = tree.profile("bench.request")
    setup = tree.profile("bench.setup")["setup"]
    c = run.counters
    gas = {k: v - run.gas0.get(k, 0) for k, v in run.gas.items()}

    def traced(kinds) -> int:
        return sum(prof[k]["count"] for k in kinds if k in prof)

    def span_s(names, kinds) -> float:
        return sum(prof[k]["spans"].get(n, 0.0) for k in kinds if k in prof for n in names)

    def span_n(name, kinds) -> int:
        return sum(prof[k]["span_counts"].get(name, 0) for k in kinds if k in prof)

    reads_t = max(1, traced(READ_KINDS))
    inserts_t = max(1, traced(("insert",)))
    batches_t = max(1, traced(("plan_batch",)))
    reads = max(1, sum(run.requests[k] for k in READ_KINDS))
    inserts = run.requests.get("insert", 0)
    batches = run.requests.get("plan_batch", 0)
    requests = max(1, sum(run.requests.values()))
    ms = 1000.0

    def per_read(names) -> float:
        return span_s(names, READ_KINDS) * ms / reads_t

    def per_insert(names) -> float:
        return span_s(names, ("insert",)) * ms / inserts_t

    served = list(observed.tokens_by_server.values())
    total_s = sum(p["total_s"] for p in prof.values())
    read_s = sum(prof[k]["total_s"] for k in READ_KINDS if k in prof)
    layer_s = defaultdict(float)
    for p in prof.values():
        for layer, s in p["layers"].items():
            layer_s[layer] += s
    rounds = run.round_s
    overhead = (
        statistics.fmean(rounds[True]) / statistics.fmean(rounds[False]) - 1
        if rounds[True] and rounds[False]
        else 0.0
    )

    out = {
        # core.cloud
        "cloud.vo_ms": per_read(["cloud.vo"]),
        "cloud.vo_calls_per_op": span_n("cloud.vo", READ_KINDS) / reads_t,
        "cloud.results_ms": per_read(["cloud.results"]),
        "cloud.install_ms": per_insert(["cloud.install"]),
        "cloud.entry_cache.hit_ratio": _hit_ratio(c, "cloud.entry_cache"),
        "cloud.repeat_witness.hit_ratio": _hit_ratio(c, "cloud.repeat_witness"),
        "cloud.collect.prf_evals": c.get("cloud.collect.prf_evals", 0) / reads,
        "cloud.collect.index_probes": c.get("cloud.collect.index_probes", 0) / reads,
        "batch.dedup_ratio": _ratio(
            c.get("batch.dedup_saved", 0),
            c.get("batch.dedup_saved", 0) + c.get("batch.unique_tokens", 0),
        ),
        # crypto.kernels
        "fixed_base.table_pow": c.get("fixed_base.table_pow", 0) / requests,
        "fixed_base.builtin_pow": c.get("fixed_base.builtin_pow", 0) / requests,
        "fixed_base.table_extensions": c.get("fixed_base.table_extensions", 0) / requests,
        "multi_exp.bases": c.get("multi_exp.bases", 0) / requests,
        "kernels.fixed_base_tables": kernels.cache_sizes()["fixed_base_tables"],
        # crypto.hash_to_prime
        "hprime.candidates": c.get("hprime.candidates", 0) / requests,
        "hprime.lucas_tests": c.get("hprime.lucas_tests", 0) / requests,
        "hprime.mr_rounds": c.get("hprime.mr_rounds", 0) / requests,
        "hash_to_prime.hit_ratio": _hit_ratio(c, "hash_to_prime"),
        # core.owner
        "owner.build_s": setup["spans"].get("owner.build", 0.0),
        "owner.index_s": setup["spans"].get("owner.index", 0.0),
        "owner.ads_s": setup["spans"].get("owner.ads", 0.0),
        "owner.insert_ms": per_insert(["owner.insert"]),
        # core.user
        "user.tokens_ms": per_read(["user.tokens"]),
        "user.decrypt_ms": per_read(["user.decrypt"]),
        "user.decrypt_entries": observed.decrypt_entries / reads,
        # planner
        "planner.compile_ms": span_s(["planner.compile"], ("plan_batch",)) * ms / batches_t,
        "planner.legs_per_plan": _ratio(c.get("planner.legs", 0), c.get("planner.plans", 0)),
        "planner.dedup_saved": _ratio(c.get("planner.dedup_saved", 0), batches),
        # sharding
        "shard.search_ms": per_read(["shard.frontend"]),
        "shard.route_imbalance": _ratio(max(served, default=0), statistics.fmean(served))
        if served
        else 0.0,
        "shard.fanout.dispatches": c.get("shard.fanout.dispatches", 0) / reads,
        # blockchain
        "chain.submit_ms": per_read(["chain.call.submit_query"]),
        "contract.settle_ms": per_read(
            ["chain.call.verify_and_settle", "chain.call.batch_verify_and_settle"]
        ),
        "block.seal_ms": per_read(["block.seal"]),
        "blocks.settlements_per_block": _ratio(
            c.get("blocks.settlements", 0), c.get("blocks.sealed", 0)
        ),
        "chain.update_ads_ms": per_insert(["chain.call.update_ads"]),
        "gas.submit": _ratio(gas.get("submit", 0), gas.get("queries", 0)),
        "gas.settle": _ratio(gas.get("settle", 0), gas.get("queries", 0)),
        "gas.update_ads": _ratio(gas.get("update_ads", 0), inserts),
        # storage.segment_store
        "segstore.append_ms": per_insert(["segstore.append"]),
        "segstore.bytes_per_record": _ratio(run.store_bytes_added, run.records_added),
        # obs
        "obs.tracing_overhead": overhead,
        "obs.unattributed_share": _ratio(layer_s[UNATTRIBUTED], total_s),
        "share.cloud.vo": _ratio(span_s(["cloud.vo"], READ_KINDS), read_s),
        "share.owner.insert": _ratio(
            prof["insert"]["layers"].get("core.owner", 0.0), prof["insert"]["total_s"]
        ),
    }
    for layer in LAYERS:
        out[f"share.{layer}"] = _ratio(layer_s[layer], total_s)
    return out, _report(prof, setup, out)


def _report(prof: dict, setup: dict, out: dict) -> list[str]:
    """Self time per layer and its share of each operation kind's latency."""
    columns = LAYERS + (UNATTRIBUTED,)
    lines = ["layer self time, ms per traced request (share of that kind's latency)"]
    lines.append(f"{'kind':<13}{'n':>4}{'latency':>10}  " + "".join(f"{c:>22}" for c in columns))
    kinds = [k for k in sorted(prof) if prof[k]["count"]] + ["setup"]
    for kind in kinds:
        p = setup if kind == "setup" else prof[kind]
        n = max(1, p["count"])
        mean_s = p["total_s"] / n
        cells = "".join(
            f"{p['layers'].get(c, 0.0) * 1000 / n:>13.1f} ({_ratio(p['layers'].get(c, 0.0), p['total_s']):>5.1%})"
            for c in columns
        )
        lines.append(f"{kind:<13}{p['count']:>4}{mean_s * 1000:>10.1f}  {cells}")
    lines.append(
        f"cloud.vo share of read latency {out['share.cloud.vo']:.1%}; "
        f"owner share of insert latency {out['share.owner.insert']:.1%}; "
        f"unattributed {out['obs.unattributed_share']:.1%}; "
        f"repeat-witness hit ratio {out['cloud.repeat_witness.hit_ratio']:.3f}; "
        f"tracing overhead {out['obs.tracing_overhead']:+.1%}"
    )
    return lines
