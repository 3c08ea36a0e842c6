"""The benchmark's own tests, at toy sizes (a few seconds per workload).

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q

They check that the printed metric names and units match ``BENCHMARK.json``,
that a corrupted assignment or service reply is caught and counted as a
failed op, and that a run killed mid-op leaves no process, shared-memory
segment, socket or directory behind.  The file name keeps it out of the
default test collection, so the repository's own suite does not run it.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_PY = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Runnable but left out of BENCHMARK.json (see README); kept working here.
DROPPED = ["ondisk-v8"]


def bench_args(workload: str, trace: int = 0, seconds: float = 0.5) -> list[str]:
    return ["--workload", workload, "--seed", "3", "--seconds", str(seconds),
            "--trace", str(trace), "--size", "toy"]


def run_bench(args: list[str], patch: str = "") -> subprocess.CompletedProcess:
    """Run the benchmark; ``patch`` is code run first, to break the program from outside."""
    if patch:
        script = _patched_script(patch, args)
        cmd = [sys.executable, "-c", script]
    else:
        cmd = [sys.executable, RUN_PY, *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)


def _patched_script(patch: str, args: list[str]) -> str:
    return "\n".join([
        "import runpy, sys",
        f"sys.path.insert(0, {os.path.join(ROOT, 'src')!r})",
        textwrap.dedent(patch),
        f"sys.argv = [{RUN_PY!r}, *{args!r}]",
        f"runpy.run_path({RUN_PY!r}, run_name='__main__')",
    ])


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS + DROPPED)
@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_match_benchmark_json(workload, trace):
    proc = run_bench(bench_args(workload, trace))
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_assignment_is_caught():
    patch = """
        from repro.partitioners.base import GeometricPartitioner
        partition = GeometricPartitioner.partition
        def corrupt(self, *args, **kwargs):
            result = partition(self, *args, **kwargs)
            result.assignment[0] = result.k  # no such block
            return result
        GeometricPartitioner.partition = corrupt
    """
    proc = run_bench(bench_args("cold-2d"), patch)
    assert proc.returncode == 1
    result = result_of(proc)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_corrupted_service_reply_is_caught():
    patch = """
        from repro.service.client import ServiceClient
        repartition = ServiceClient.repartition
        calls = []
        def corrupt(self, *args, **kwargs):
            result = repartition(self, *args, **kwargs)
            calls.append(1)
            if len(calls) == 10:  # a measured reply (six come from set-up) moves one point
                result.assignment[0] = (result.assignment[0] + 1) % result.k
            return result
        ServiceClient.repartition = corrupt
    """
    proc = run_bench(bench_args("service-session"), patch)
    assert proc.returncode == 1
    result = result_of(proc)
    assert result["correct"] is False and result["failed"] == 1
    assert 0.0 < result["metrics"]["ok_frac"]["value"] < 1.0


def _group_members(pgid: int) -> list[int]:
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def _shm() -> set[str]:
    return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}


# each patch stalls the run inside an op, with the program's processes,
# segments and socket live, and writes a marker file when it got there
STALL_IN_SUPERSTEP = """
    import time
    from repro.runtime.procomm import ProcessComm
    allreduce = ProcessComm.allreduce
    def stall(self, *args, **kwargs):
        open({marker!r}, "w").close()
        time.sleep(60)
        return allreduce(self, *args, **kwargs)
    ProcessComm.allreduce = stall
"""
STALL_IN_REQUEST = """
    import time
    from repro.service.client import ServiceClient
    repartition = ServiceClient.repartition
    calls = []
    def stall(self, *args, **kwargs):
        calls.append(1)
        if len(calls) == 9:  # a measured request (six come from set-up)
            open({marker!r}, "w").close()
            time.sleep(60)
        return repartition(self, *args, **kwargs)
    ServiceClient.repartition = stall
"""

# the ondisk runner stalls with its spill directory in the program's temp location
STALL_IN_SPILL = """
    import time
    from repro.io.spill import SpillStore
    remove = SpillStore.remove
    def stall(self, *args, **kwargs):
        open({marker!r}, "w").close()
        time.sleep(60)
        return remove(self, *args, **kwargs)
    SpillStore.remove = stall
"""


@pytest.mark.parametrize("workload, patch, sig", [
    ("dist-3d", STALL_IN_SUPERSTEP, signal.SIGTERM),
    ("service-session", STALL_IN_REQUEST, signal.SIGTERM),
    ("service-session", STALL_IN_REQUEST, signal.SIGINT),
    ("ondisk-v2", STALL_IN_SPILL, signal.SIGTERM),
])
def test_killed_mid_op_leaves_nothing(tmp_path, workload, patch, sig):
    marker = str(tmp_path / "in-op")
    script = _patched_script(patch.format(marker=marker), bench_args(workload))
    shm_before = _shm()
    proc = subprocess.Popen([sys.executable, "-c", script], cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 120
        while not os.path.exists(marker):
            assert proc.poll() is None, proc.communicate()
            assert time.monotonic() < deadline, "the run never reached the op"
            time.sleep(0.05)
        if workload != "ondisk-v2":  # the virtual backend runs in the benchmark's process
            assert len(_group_members(proc.pid)) > 1  # the program's processes are up
        proc.send_signal(sig)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode not in (0, None)
    assert '"correct"' not in out  # an aborted run reports no result
    if workload == "ondisk-v2":
        # the runner leaves its temp spill directory when interrupted; the
        # audit names it, and it goes with the run's directory
        assert "leftovers: none" in err or "temporary path repro-ondisk-" in err
    else:
        assert "leftovers: none" in err
    time.sleep(0.5)
    assert _group_members(proc.pid) == []
    assert _shm() - shm_before == set()
    assert not os.path.exists(os.path.join(ROOT, ".bench_work", f"run-{proc.pid}"))
