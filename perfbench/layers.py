"""Per-layer metrics of a traced run, computed from the spans of every process.

Times and counts are per traced op (a partition call, or one service
request), summed over processes: with rank workers running in parallel a
layer can take more seconds than the op.  A span nested in another span of
the same metric is counted once, through its outermost ancestor.
"""

from __future__ import annotations

import os
import statistics

import tracing

#: Span name(s) behind each per-layer timing.
TIMED = {
    "sfc.index_s": {"sfc.index"},
    "core.seeding_s": {"core.seeding"},
    "core.sampling_s": {"core.sampling"},
    "core.assign_s": {"core.assign_balance", "core.assign"},
    "core.relax_s": {"core.relax"},
    "core.update_s": {"core.update"},
    "core.diameter_s": {"core.diameter"},
    "runtime.superstep_s": {"runtime.superstep"},
    "runtime.collective_s": {"runtime.collective"},
    "runtime.share_s": {"runtime.share"},
    "runtime.sort_s": {"runtime.sort"},
    "io.spill_write_s": {"io.spill_write"},
    "io.spill_remove_s": {"io.spill_remove"},
    "io.shard_read_s": {"io.shard_read"},
}

UNITS = {
    "sfc.index_s": "s", "sfc.index_calls": "count",
    "core.seeding_s": "s", "core.sampling_s": "s", "core.assign_s": "s", "core.assign_calls": "count",
    "core.points_evaluated": "count", "core.skip_fraction": "fraction", "core.relax_s": "s",
    "core.update_s": "s", "core.diameter_s": "s", "core.kmeans_iterations": "count",
    "core.balance_iterations": "count", "core.converged_frac": "fraction", "core.unattributed_s": "s",
    "runtime.supersteps": "count", "runtime.superstep_s": "s", "runtime.dispatch_s": "s",
    "runtime.collective_s": "s", "runtime.collective_calls": "count", "runtime.collective_bytes": "bytes",
    "runtime.share_s": "s", "runtime.share_bytes": "bytes", "runtime.sort_s": "s",
    "runtime.respawns": "count",
    "io.spill_files": "count", "io.spill_bytes": "bytes", "io.spill_write_s": "s",
    "io.spill_remove_s": "s", "io.spill_remove_calls": "count", "io.shard_read_s": "s",
    "io.shard_bytes": "bytes", "io.write_sharded_s": "s",
    "service.queue_ms": "ms", "service.compute_ms": "ms", "service.frame_ms": "ms",
    "service.request_bytes": "bytes", "service.reply_bytes": "bytes", "service.cache_hits": "count",
    "service.shed": "count", "service.retries": "count", "service.migration_frac": "fraction",
    "trace.overhead_frac": "fraction",
}


def _dur(span: dict) -> float:
    return span["t1"] - span["t0"]


def _dispatch_s(spans: list[dict]) -> float:
    """Superstep wall time minus the slowest rank's compute inside it."""
    ranks = [s for s in spans if s["name"] == "runtime.rank_compute"]
    total = 0.0
    for step in (s for s in spans if s["name"] == "runtime.superstep"):
        inside = [_dur(r) for r in ranks
                  if r["pid"] != step["pid"] and r["t0"] >= step["t0"] and r["t1"] <= step["t1"]]
        if inside:
            total += _dur(step) - max(inside)
    return total


def per_layer(run) -> tuple[list[dict], dict, dict]:
    """Returns (spans, layer table, metrics) of a traced run."""
    spans = tracing.load_spans(run.spans_dir)
    traced = [o for o in run.ops if o["phase"] == "traced" and "seconds" in o]
    untraced = [o for o in run.ops if o["phase"] == "untraced" and "seconds" in o]
    nops = max(1, len(traced))
    named: dict[str, list[dict]] = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    def count(name):
        return len(named.get(name, ()))

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in named.get(name, ()))

    m = {metric: sum(_dur(s) for s in tracing.outermost(spans, names)) / nops
         for metric, names in TIMED.items()}

    # in the service the op that runs the partitioner is the server's compute
    op_names = ("service.compute",) if "service.compute" in named else ("bench.op",)
    table = tracing.layer_table(spans, op_names)
    points = attr_sum("core.assign", "points")
    m.update({
        "sfc.index_calls": count("sfc.index") / nops,
        "core.assign_calls": count("core.assign") / nops,
        "core.points_evaluated": (points - attr_sum("core.assign", "skipped")) / nops,
        "core.skip_fraction": attr_sum("core.assign", "skipped") / points if points else 0.0,
        "core.kmeans_iterations": statistics.mean(o.get("iterations", 0) for o in traced) if traced else 0.0,
        "core.balance_iterations": attr_sum("core.assign_balance", "balance_iterations") / nops,
        "core.converged_frac": statistics.mean(bool(o.get("converged")) for o in traced) if traced else 0.0,
        "core.unattributed_s": table["unattributed_s"] / nops,
        "runtime.supersteps": count("runtime.superstep") / nops,
        "runtime.dispatch_s": _dispatch_s(spans) / nops,
        "runtime.collective_calls": count("runtime.collective") / nops,
        "runtime.collective_bytes": attr_sum("runtime.collective", "bytes") / nops,
        "runtime.share_bytes": attr_sum("runtime.share", "bytes") / nops,
        "runtime.respawns": float(run.respawns),
        "io.spill_files": count("io.spill_write") / nops,
        "io.spill_bytes": attr_sum("io.spill_write", "bytes") / nops,
        "io.spill_remove_calls": count("io.spill_remove") / nops,
        "io.shard_bytes": attr_sum("io.shard_read", "bytes") / nops,
        # write_sharded is the ondisk workloads' set-up, timed there
        "io.write_sharded_s": run.quality.get("write_sharded_s", 0.0),
    })
    m.update(_service(run, named, nops))
    if traced and untraced:
        m["trace.overhead_frac"] = (statistics.median(o["seconds"] for o in traced)
                                    / statistics.median(o["seconds"] for o in untraced) - 1.0)
    else:
        m["trace.overhead_frac"] = 0.0
    return spans, table, {name: (m[name], UNITS[name]) for name in UNITS}


def _service(run, named: dict, nops: int) -> dict:
    requests = named.get("service.request", [])
    computes = named.get("service.compute", [])
    server_pids = {s["pid"] for s in requests}
    first_compute = {}
    for s in computes:
        if s["parent"] is not None and s["parent"] not in first_compute:
            first_compute[s["parent"]] = s["t0"]
    waits = [first_compute[r["id"]] - r["t0"] for r in requests if r["id"] in first_compute]
    frames = named.get("service.frame", [])
    decoded_server = sum(s["attrs"].get("decoded", 0) for s in frames if s["pid"] in server_pids)
    decoded_client = sum(s["attrs"].get("decoded", 0) for s in frames if s["pid"] == os.getpid())
    counters = run.service_stats.get("counters", {})
    nreq = max(1, len(requests))
    return {
        "service.queue_ms": 1e3 * statistics.mean(waits) if waits else 0.0,
        "service.compute_ms": 1e3 * statistics.mean(_dur(s) for s in computes) if computes else 0.0,
        "service.frame_ms": 1e3 * sum(_dur(s) for s in frames) / nops if requests else 0.0,
        "service.request_bytes": decoded_server / nreq if requests else 0.0,
        "service.reply_bytes": decoded_client / nops if requests else 0.0,
        "service.cache_hits": float(counters.get("cache_hit", 0)),
        "service.shed": float(counters.get("requests_shed", 0)),
        "service.retries": float(run.retries),
        "service.migration_frac": run.quality.get("migration_frac", 0.0),
    }
