"""Benchmark of the balanced k-means partitioner, end to end and per layer.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload cold-2d --seed 1 --seconds 5 --trace 0

The workloads are listed in ``BENCHMARK.json`` and ``perfbench/README.md``.
The inputs are generated from ``--seed``.  The program is driven through its
public API.  Every result is checked outside the timed region.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` it holds the end-to-end
metrics; with ``--trace 1`` the run measures an untraced and then a traced
phase and reports the per-layer metrics.  A line starting with ``# env``
before it records the environment.  The full record goes to
``.bench_out/``; traced runs also write Chrome trace-event JSON there.

Every process, shared-memory segment, socket and directory the run creates
is removed on every exit path: errors, a 150 s watchdog, SIGTERM
and SIGINT.  Anything still present afterwards counts as a failed op and
makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere in this process
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SHM_DIR = "/dev/shm"
#: A run is aborted and torn down after this long; teardown is bounded too,
#: so every run ends within 180 s.
WATCHDOG_S = 150.0


class RunAborted(Exception):
    """Raised by the signal handlers and the watchdog so teardown runs."""


def _abort(signum, frame):
    raise RunAborted(signal.Signals(signum).name)


# -- process and resource bookkeeping ------------------------------------------


def _proc_table() -> dict[int, tuple[int, str]]:
    """pid -> (ppid, state) for every process visible in /proc."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        table[int(entry)] = (int(fields[1]), fields[0])
    return table


def live_descendants() -> list[int]:
    """Descendants of this process that are not zombies."""
    table = _proc_table()
    found, frontier = [], [os.getpid()]
    while frontier:
        parent = frontier.pop()
        for pid, (ppid, state) in table.items():
            if ppid == parent:
                frontier.append(pid)
                if state != "Z":
                    found.append(pid)
    return found


def stop_resource_tracker() -> None:
    """Stop and reap the helper process Python starts for shared memory.

    It would exit by itself once this process exits; stopping it here means
    the run ends with no process of its own left.  ``_stop`` is the
    standard library's own shutdown path for it.
    """
    from multiprocessing import resource_tracker

    with contextlib.suppress(AttributeError, OSError):
        resource_tracker._resource_tracker._stop()


def shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir(SHM_DIR) if name.startswith("psm_")}
    except FileNotFoundError:
        return set()


def peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def is_resource_tracker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return b"multiprocessing.resource_tracker" in fh.read()
    except OSError:
        return False


def reset_peak_rss() -> None:
    """Restart this process's VmHWM from its current RSS (Linux clear_refs)."""
    with contextlib.suppress(OSError):
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")


# -- environment record ----------------------------------------------------------


def environment(spill_dir: str) -> dict:
    import numpy
    import scipy

    from repro.core.xp import available_kernel_backends

    mount = {}
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        out = subprocess.run(["findmnt", "-n", "-o", "TARGET,FSTYPE,OPTIONS", "-T", spill_dir],
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 3:
            mount = dict(zip(("mount", "fstype", "options"), out))
    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        # a checkout without .git must not report an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, env=env)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backends": available_kernel_backends(),
        "spill_dir_fs": mount,
        "git_commit": commit,
        "src_digest": src_digest(),
        "platform": platform.platform(),
    }


def src_digest() -> str:
    """Digest of the program's source files, for checkouts without git metadata."""
    import hashlib

    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


# -- the harness ---------------------------------------------------------------


class Run:
    """State of one benchmark run: phases, ops, set-up times and teardown."""

    def __init__(self, args) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.size = args.size
        self.workdir = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
        self.tmpdir = os.path.join(self.workdir, "tmp")
        self.spans_dir = os.path.join(self.workdir, "spans")
        # relative: unix socket paths are limited to ~100 bytes
        self.socket_path = os.path.relpath(os.path.join(self.workdir, "server.sock"), ROOT)
        self.ops: list[dict] = []
        self.phase_walls: dict[str, float] = {}
        self.setup_times: list[float] = []
        self.quality: dict = {}
        self.rss_kb: dict[int, int] = {}
        self.respawns = 0
        self.retries = 0
        self.service_stats: dict = {}
        self.tracer = None
        self._teardown = contextlib.ExitStack()

    # -- lifecycle ------------------------------------------------------------

    def prepare(self) -> None:
        os.makedirs(self.tmpdir)
        os.makedirs(self.spans_dir)
        # the program's default temp location (spill, scratch) lands in the
        # checkout, on the checkout's filesystem
        os.environ["TMPDIR"] = self.tmpdir
        import tempfile

        tempfile.tempdir = None
        if self.trace:
            import tracing

            flag = os.path.join(self.workdir, "trace.flag")
            tracing.make_flag(flag)
            self.flag_path = flag
            self.tracer = tracing.Tracer(self.spans_dir, flag)
            tracing.install(self.tracer)

    def on_teardown(self, fn) -> None:
        self._teardown.callback(fn)

    def teardown(self) -> None:
        # the watchdog and signals must not interrupt cleanup itself
        signal.setitimer(signal.ITIMER_REAL, 0)
        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, signal.SIG_IGN)
        self._teardown.close()
        if self.tracer is not None:
            self.tracer.flush()

    def program_load(self) -> float:
        """Seconds for a fresh interpreter to import the program and build a partitioner.

        Part of every workload's set-up; the service's server pays it itself.
        """
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro; from repro.partitioners import "
                        "GeographerPartitioner; GeographerPartitioner()"],
                       env=self.child_env(), check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    def child_env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    # -- inputs, memory --------------------------------------------------------

    def inputs_ready(self) -> None:
        """Inputs exist: this process's peak RSS counts from here."""
        gc.collect()
        reset_peak_rss()

    def sample_rss(self) -> None:
        """Record the peak RSS of this process and of every live child.

        Called at the end of each measured phase, while the rank workers and
        the server are still up.  Python's shared-memory resource trackers
        are helpers of the interpreter, not of the program, and are left out.
        """
        for pid in [os.getpid(), *live_descendants()]:
            if not is_resource_tracker(pid):
                self.rss_kb[pid] = max(self.rss_kb.get(pid, 0), peak_rss_kb(pid))

    # -- the service's server process ------------------------------------------

    def start_server(self):
        env = self.child_env()
        if self.tracer is not None:
            env["PERFBENCH_TRACE_DIR"] = self.spans_dir
            env["PERFBENCH_TRACE_FLAG"] = self.flag_path
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve_traced.py"), self.socket_path],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        )
        self.on_teardown(lambda: self.reap(proc))
        return proc

    def stop_server(self, proc, clients) -> None:
        """Graceful shutdown; escalates to SIGTERM and SIGKILL (bounded)."""
        clients = list(clients or ())
        if proc.poll() is None:
            # the other connections close first, so the drain waits on none
            for client in clients[1:]:
                client.close()
            if clients:
                clients[0].request_timeout = 10.0
                with contextlib.suppress(Exception):
                    clients[0].shutdown()
        for client in clients:
            client.close()
        self.reap(proc)

    @staticmethod
    def reap(proc, grace: float = 5.0) -> None:
        for escalate in (None, proc.terminate, proc.kill):
            if escalate is not None and proc.poll() is None:
                escalate()
            try:
                proc.wait(timeout=grace)
                return
            except subprocess.TimeoutExpired:
                continue

    # -- measured phases ---------------------------------------------------------

    def span(self, name: str):
        if self.tracer is None or not self.tracer.on:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def phases(self, min_ops: int):
        """Yield ``(phase, min_ops, seconds)``: untraced, then traced if tracing.

        A traced run splits the op budget between its two phases so that it
        takes about as long as an untraced one.
        """
        if not self.trace:
            yield "untraced", min_ops, self.seconds
            self.sample_rss()
            return
        half = max(1, (min_ops + 1) // 2)
        for name, on in (("untraced", False), ("traced", True)):
            self.tracer.enable(on)
            yield name, half, self.seconds / 2
            self.sample_rss()
        self.tracer.enable(False)

    def measure(self, op, check, min_ops: int) -> None:
        """Run ``op(i)`` until the phase's time and op count are both reached.

        Only the call is timed; ``check(i, result) -> (errors, info)`` runs
        after the clock stops.
        """
        for phase, phase_min, seconds in self.phases(min_ops):
            t_start = time.perf_counter()
            done = 0
            while done < phase_min or time.perf_counter() - t_start < seconds:
                i = len(self.ops)
                entry = {"phase": phase}
                t0 = time.perf_counter()
                try:
                    with self.span("bench.op"):
                        result = op(i)
                    entry["seconds"] = time.perf_counter() - t0
                    errors, info = check(i, result)
                    entry.update(info)
                except RunAborted:
                    raise
                except Exception as exc:  # a failed op; the run goes on
                    entry.setdefault("seconds", time.perf_counter() - t0)
                    errors = [f"{type(exc).__name__}: {exc}"]
                entry["errors"] = errors
                self.ops.append(entry)
                done += 1
                result = None  # the next op starts without this one's garbage
                gc.collect()
            self.phase_walls[phase] = time.perf_counter() - t_start

    def fail_ops(self, errors: list[str]) -> None:
        """A check that holds for every op at once (e.g. against a reference)."""
        if errors:
            for entry in self.ops:
                entry["errors"] = entry["errors"] + errors

    # -- results -------------------------------------------------------------------

    def end_to_end(self) -> dict:
        ops = [o for o in self.ops if o["phase"] == "untraced" and "seconds" in o]
        secs = sorted(o["seconds"] for o in ops)
        failed = sum(1 for o in self.ops if o["errors"])
        imbalances = [o["imbalance"] for o in self.ops if "imbalance" in o]
        p50 = statistics.median(secs)
        p90 = statistics.quantiles(secs, n=10, method="inclusive")[-1] if len(secs) > 1 else secs[0]
        return {
            "partition_s": (p50, "s"),
            "request_ms_p50": (p50 * 1e3, "ms"),
            "request_ms_p90": (p90 * 1e3, "ms"),
            "requests_per_s": (len(ops) / self.phase_walls["untraced"], "1/s"),
            "setup_s": (statistics.median(self.setup_times), "s"),
            "peak_rss_mb": (sum(self.rss_kb.values()) / 1024.0, "MB"),
            "max_load_ratio": (1.0 + max(imbalances, default=0.0), "ratio"),
            # absent only when no op produced a valid result
            "comm_volume_max": (self.quality.get("comm_volume_max", 0.0), "count"),
            "ok_frac": (1.0 - failed / len(self.ops), "fraction"),
        }


# -- leftovers -------------------------------------------------------------------


def leftovers(run: Run, shm_before: set[str]) -> list[str]:
    """What the run left behind; each entry is a failure.  Then remove it."""
    found = []
    for name in sorted(shm_segments() - shm_before):
        found.append(f"shared-memory segment /dev/shm/{name}")
        with contextlib.suppress(OSError):
            os.unlink(os.path.join(SHM_DIR, name))
    stop_resource_tracker()  # after the segment audit: it unlinks what it tracks
    deadline = time.perf_counter() + 5.0
    while True:  # a process that was just killed needs a moment to be reaped
        pids = live_descendants()
        if not pids or time.perf_counter() > deadline:
            break
        time.sleep(0.1)
    for pid in pids:
        found.append(f"live child process {pid}")
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)
    if os.path.exists(os.path.join(ROOT, run.socket_path)):
        found.append(f"service socket {run.socket_path}")
    if os.path.isdir(run.tmpdir):
        found += [f"temporary path {name}" for name in sorted(os.listdir(run.tmpdir))]
    if os.path.isdir(run.workdir):
        found += [f"benchmark path {name}" for name in sorted(os.listdir(run.workdir))
                  if name not in ("tmp", "spans", "trace.flag", "server.sock")]
    return found


# -- main ------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: tiny inputs for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    shm_before = shm_segments()
    run = Run(args)
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGALRM):
        signal.signal(sig, _abort)
    signal.setitimer(signal.ITIMER_REAL, WATCHDOG_S)
    aborted = None
    try:
        run.prepare()
        workloads.WORKLOADS[args.workload](run)
    except RunAborted as exc:
        aborted = str(exc)
    except Exception:  # the run cannot report; still tear down and audit
        traceback.print_exc()
        aborted = "an error"
    finally:
        run.teardown()
    left = leftovers(run, shm_before)
    try:
        if aborted is not None:
            print(f"perfbench: aborted by {aborted}; leftovers: {left or 'none'}", file=sys.stderr)
            return 3
        return report(run, left)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(run.workdir))


def report(run: Run, left: list[str]) -> int:
    if not run.ops:
        print("perfbench: no op completed", file=sys.stderr)
        return 1
    if left:  # a leftover is a failure of the whole run
        run.fail_ops([f"left behind: {item}" for item in left])
    env = environment(run.tmpdir)
    failed = sum(1 for o in run.ops if o["errors"])
    record = {"workload": run.workload, "seed": run.seed, "seconds": run.seconds, "trace": int(run.trace),
              "size": run.size, "environment": env, "ops": run.ops, "setup_times": run.setup_times,
              "phase_walls": run.phase_walls, "peak_rss_kb": run.rss_kb, "leftovers": left}
    if run.trace:
        import layers

        spans, table, metrics = layers.per_layer(run)
        record["layer_table"] = table
        print(layers.tracing.format_table(table), file=sys.stderr)
    else:
        metrics = run.end_to_end()
    metrics = {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()}
    record["metrics"] = metrics
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{run.workload}-seed{run.seed}-trace{int(run.trace)}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if run.trace:
        with open(stem + ".chrome.json", "w") as fh:
            json.dump(layers.tracing.chrome_trace(spans), fh)
    for o in run.ops:
        for err in o["errors"]:
            print(f"perfbench: op failed: {err}", file=sys.stderr)
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(run.ops), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
