"""Span tracer for the benchmark: wraps each layer's public functions from outside.

Nothing in ``src/`` is edited.  :func:`install` replaces the public functions
and methods the workloads reach (``sfc``, ``core``, ``runtime``, ``io``,
``service``) with thin wrappers that record one span per call: name, start,
end, parent span, pid, thread and rank, plus a few counters (bytes, points
evaluated).  Functions are replaced in every ``repro`` module that bound them
by name, so ``from x import f`` call sites are traced too.

Recording is switched by one byte in a small file that every process maps.
Forked rank workers inherit the wrappers and the mapping; the service is
started through ``serve_traced.py``, which installs the same wrappers.  Each
process keeps its spans in memory and writes them to ``spans-<pid>.json``
when it exits, so worker and server time is attributed, not lost.

Nothing runs at import time: the benchmark process and ``serve_traced.py``
call :func:`install`; forked workers inherit what it did.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import glob
import inspect
import itertools
import json
import mmap
import multiprocessing.util
import os
import sys
import threading
import time

_STACK: contextvars.ContextVar[tuple] = contextvars.ContextVar("perfbench_spans", default=())


def make_flag(path: str) -> None:
    """Create the one-byte switch file (recording off)."""
    with open(path, "wb") as fh:
        fh.write(b"\0")


class Tracer:
    """In-memory span buffer of one process; the switch is shared by all."""

    def __init__(self, out_dir: str, flag_path: str) -> None:
        self.out_dir = out_dir
        fd = os.open(flag_path, os.O_RDWR)
        try:
            self._flag = mmap.mmap(fd, 1)
        finally:
            os.close(fd)
        self._reset()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _reset(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self.pid = os.getpid()
        self.rank = -1

    def _after_fork(self) -> None:
        # a forked rank worker: start an empty buffer and write it out when
        # the worker exits (multiprocessing runs finalizers on a clean exit)
        self._reset()
        multiprocessing.util.Finalize(self, self.flush, exitpriority=10)

    @property
    def on(self) -> bool:
        return self._flag[0] == 1

    def enable(self, on: bool = True) -> None:
        self._flag[0] = 1 if on else 0

    def begin(self, parent: int | None = None):
        sid = next(self._ids)
        stack = _STACK.get()
        if parent is None and stack:
            parent = stack[-1]
        token = _STACK.set(stack + (sid,))
        return sid, parent, token, time.perf_counter()

    def end(self, name: str, handle, attrs: dict | None = None) -> None:
        t1 = time.perf_counter()
        sid, parent, token, t0 = handle
        _STACK.reset(token)
        self.spans.append((name, t0, t1, sid, parent, self.pid, threading.get_ident(), self.rank, attrs))

    @contextlib.contextmanager
    def span(self, name: str):
        handle = self.begin()
        try:
            yield
        finally:
            self.end(name, handle)

    def flush(self) -> None:
        """Write this process's spans (a no-op when there are none)."""
        if not self.spans:
            return
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(self.spans, fh)
        os.replace(path + ".tmp", path)
        self.spans = []


# -- wrappers ------------------------------------------------------------------


def wrap(tracer: Tracer, fn, name: str, attrs=None, pre=None):
    """Wrap ``fn`` in a span; ``attrs(args, kwargs, result, pre_state)`` adds counters."""

    def finish(handle, args, kwargs, out, state):
        extra = attrs(args, kwargs, out, state) if attrs is not None else None
        tracer.end(name, handle, extra)

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            if not tracer.on:
                return await fn(*args, **kwargs)
            state = pre(args, kwargs) if pre is not None else None
            handle = tracer.begin()
            out = None
            try:
                out = await fn(*args, **kwargs)
                return out
            finally:
                finish(handle, args, kwargs, out, state)

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        state = pre(args, kwargs) if pre is not None else None
        handle = tracer.begin()
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            finish(handle, args, kwargs, out, state)

    return wrapper


def _patch_function(tracer, module_name: str, attr: str, name: str, **kw) -> None:
    """Replace ``module.attr`` in every loaded ``repro`` module that bound it."""
    original = getattr(sys.modules[module_name], attr)
    wrapped = wrap(tracer, original, name, **kw)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def _patch_method(tracer, cls, attr: str, name: str, **kw) -> None:
    setattr(cls, attr, wrap(tracer, getattr(cls, attr), name, **kw))


def _nbytes(value) -> int:
    total = 0
    stack = [value]
    while stack:
        item = stack.pop()
        if hasattr(item, "nbytes"):
            total += int(item.nbytes)
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return total


def _arg_bytes(index: int):
    return lambda args, kwargs, out, state: {"bytes": _nbytes(args[index]) if len(args) > index else 0}


def _result_bytes(args, kwargs, out, state):
    return {"bytes": _nbytes(out)}


def _stats_before(args, kwargs):
    stats = kwargs.get("stats", args[7] if len(args) > 7 else None)
    return None if stats is None else (stats, stats.points_total, stats.points_skipped)


def _stats_after(args, kwargs, out, state):
    if state is None:
        return None
    stats, total, skipped = state
    return {"points": stats.points_total - total, "skipped": stats.points_skipped - skipped}


def _balance_attrs(args, kwargs, out, state):
    return None if out is None else {"balance_iterations": int(out.balance_iterations)}


def _spill_create_bytes(args, kwargs, out, state):
    return {"bytes": 0 if out is None else int(out.nbytes)}


def _wrap_rounds(tracer: Tracer, schedule):
    """``sample_schedule`` returns the sampled-init rounds as a list; its only
    caller loops over it once.  The span runs from the call until the loop
    has taken the last round, so it covers the rounds' work."""

    @functools.wraps(schedule)
    def rounds(*args, **kwargs):
        out = schedule(*args, **kwargs)
        if not tracer.on:
            return out
        return _spanning(tracer, tracer.begin(), out)

    return rounds


def _spanning(tracer: Tracer, handle, items):
    try:
        yield from items
    finally:
        tracer.end("core.sampling", handle)


def install(tracer: Tracer, service: bool = False) -> None:
    """Install the wrappers in this process.

    ``service=True`` is for the server process only: there the partitioner's
    ``partition``/``repartition`` are the service's compute, while in the
    benchmark process they are the timed op itself.
    """
    import repro.core.assign
    import repro.core.balanced_kmeans
    import repro.core.bounds
    import repro.core.influence
    import repro.core.kernels
    import repro.core.sampling
    import repro.core.seeding
    import repro.io.sharded
    import repro.io.spill
    import repro.runtime.distributed_kmeans
    import repro.runtime.distsort
    import repro.runtime.ondisk
    import repro.runtime.procomm
    import repro.service.client
    import repro.service.protocol
    import repro.service.server
    import repro.sfc.curves
    import repro.sfc.hilbert
    from repro.runtime.comm import VirtualComm
    from repro.runtime.procomm import ProcessComm

    fn = functools.partial(_patch_function, tracer)
    fn("repro.sfc.curves", "sfc_index", "sfc.index")
    fn("repro.sfc.hilbert", "hilbert_index", "sfc.hilbert")
    fn("repro.core.seeding", "seed_centers", "core.seeding")
    schedule = repro.core.sampling.sample_schedule
    repro.core.balanced_kmeans.sample_schedule = _wrap_rounds(tracer, schedule)
    fn("repro.core.assign", "assign_and_balance", "core.assign_balance", attrs=_balance_attrs)
    fn("repro.core.assign", "assign_points", "core.assign", pre=_stats_before, attrs=_stats_after)
    for relax in ("relax_for_influence", "relax_for_influence_exclusive",
                  "relax_for_movement", "relax_for_movement_exclusive"):
        fn("repro.core.bounds", relax, "core.relax")
    for relax in ("queue_relax_influence", "queue_relax_movement"):
        _patch_method(tracer, repro.core.kernels.SweepWorkspace, relax, "core.relax")
    fn("repro.core.balanced_kmeans", "weighted_center_update", "core.update")
    fn("repro.core.assign", "center_partial_sums", "core.update")
    fn("repro.core.influence", "estimate_cluster_diameters", "core.diameter")
    fn("repro.core.assign", "diameter_partial_sums", "core.diameter")

    for cls in (ProcessComm, VirtualComm):
        _patch_method(tracer, cls, "run_local", "runtime.superstep")
        for op in ("allreduce", "allgather", "alltoallv", "broadcast"):
            _patch_method(tracer, cls, op, "runtime.collective", attrs=_arg_bytes(1))
        if "share" in cls.__dict__:
            _patch_method(tracer, cls, "share", "runtime.share", attrs=_arg_bytes(1))
    fn("repro.runtime.distsort", "distributed_sort", "runtime.sort")
    fn("repro.runtime.ondisk", "_ondisk_sort", "runtime.sort")
    thaw = repro.runtime.procomm.thaw_function

    def traced_thaw(obj):
        rank_fn = thaw(obj)

        def run_rank(rank):
            tracer.rank = rank
            return wrap(tracer, rank_fn, "runtime.rank_compute")(rank)

        return run_rank

    repro.runtime.procomm.thaw_function = traced_thaw

    spill = repro.io.spill.SpillStore
    _patch_method(tracer, spill, "create", "io.spill_write", attrs=_spill_create_bytes)
    _patch_method(tracer, spill, "put", "io.spill_write", attrs=_arg_bytes(2))
    _patch_method(tracer, spill, "remove", "io.spill_remove")
    _patch_method(tracer, repro.io.sharded.ShardedDataset, "read_rows", "io.shard_read", attrs=_result_bytes)
    fn("repro.io.sharded", "write_sharded", "io.write_sharded")

    fn("repro.service.protocol", "_loads", "service.frame", attrs=lambda a, k, o, s: {"decoded": len(a[0])})
    fn("repro.service.protocol", "send_frame", "service.frame")
    if service:
        fn("repro.service.protocol", "write_frame", "service.frame")
        from repro.partitioners.geographer import GeographerPartitioner
        from repro.service.resilience import ComputeSupervisor

        _patch_method(tracer, repro.service.server.PartitionService, "repartition", "service.request")
        for method in ("partition", "repartition"):
            # the compute runs on an executor thread: parent it explicitly
            _patch_method(tracer, GeographerPartitioner, method, "service.compute")
        supervise = ComputeSupervisor.__dict__["run"]

        async def run(self, job, label=None):
            stack = _STACK.get()

            def in_request_context():
                token = _STACK.set(stack)
                try:
                    return job()
                finally:
                    _STACK.reset(token)

            return await supervise(self, in_request_context, label)

        ComputeSupervisor.run = run


# -- analysis --------------------------------------------------------------------


def load_spans(out_dir: str) -> list[dict]:
    spans = []
    for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.json"))):
        with open(path) as fh:
            for name, t0, t1, sid, parent, pid, tid, rank, attrs in json.load(fh):
                spans.append({"name": name, "t0": t0, "t1": t1, "id": (pid, sid),
                              "parent": None if parent is None else (pid, parent),
                              "pid": pid, "tid": tid, "rank": rank, "attrs": attrs or {}})
    return spans


def _union(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[dict]) -> dict:
    """Span duration minus the part of it that its child spans cover."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    return {s["id"]: (s["t1"] - s["t0"]) - _union(children.get(s["id"], [])) for s in spans}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_table(spans: list[dict], op_names: tuple[str, ...]) -> dict:
    """Per-layer calls and self time, plus the op time no layer span covers.

    Self times of concurrent processes add up, so a layer's share of op time
    can exceed 1 when rank workers run in parallel.
    """
    selfs = self_times(spans)
    op_s = sum(s["t1"] - s["t0"] for s in spans if s["name"] in op_names)
    rows: dict = {}
    for s in spans:
        row = rows.setdefault(layer_of(s["name"]), {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[s["id"]]
    unattributed = sum(selfs[s["id"]] for s in spans if s["name"] in op_names)
    for row in rows.values():
        row["share_of_op"] = row["self_s"] / op_s if op_s else 0.0
    return {"op_s": op_s, "unattributed_s": unattributed,
            "unattributed_frac": unattributed / op_s if op_s else 0.0, "layers": rows}


def format_table(table: dict) -> str:
    lines = [f"{'layer':<10}{'calls':>10}{'self_s':>12}{'share':>9}"]
    for layer, row in sorted(table["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{layer:<10}{row['calls']:>10}{row['self_s']:>12.4f}{row['share_of_op']:>9.1%}")
    lines.append(f"{'(none)':<10}{'':>10}{table['unattributed_s']:>12.4f}{table['unattributed_frac']:>9.1%}"
                 "  op time outside any layer span")
    return "\n".join(lines)


def outermost(spans: list[dict], names: set[str]) -> list[dict]:
    """Spans named in ``names`` with no ancestor also named in ``names``."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] not in names:
            continue
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] not in names:
            parent = by_id.get(parent["parent"])
        if parent is None:
            out.append(s)
    return out


def chrome_trace(spans: list[dict]) -> dict:
    """Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
    events = [{"name": s["name"], "cat": layer_of(s["name"]), "ph": "X",
               "ts": s["t0"] * 1e6, "dur": (s["t1"] - s["t0"]) * 1e6,
               "pid": s["pid"], "tid": s["tid"],
               "args": dict(s["attrs"], rank=s["rank"], id=s["id"][1],
                            parent=None if s["parent"] is None else s["parent"][1])}
              for s in spans]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
