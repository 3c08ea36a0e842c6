"""The benchmark's workloads.  Each drives ``repro`` only through its public API.

A workload function takes the :class:`run.Run` harness, generates its inputs
from the seed, sets the program up (timed, several times), runs the measured
ops through ``run.measure`` and checks every result outside the timed region.
Timings, checks and quality figures are recorded on the harness.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import shutil
import threading
import time

import numpy as np

EPSILON = 0.03

#: (n, k) per workload at full size and at the toy size the self-tests use.
SIZES = {
    "cold-2d": {"full": (1_000_000, 64), "toy": (6_000, 8)},
    "dist-3d": {"full": (1_000_000, 64), "toy": (6_000, 8)},
    "ondisk-v2": {"full": (200_000, 16), "toy": (6_000, 4)},
    "ondisk-v8": {"full": (400_000, 16), "toy": (6_000, 4)},
    "service-session": {"full": (100_000, 32), "toy": (3_000, 4)},
}

#: Fewest measured ops per run (the service counts requests).
#: Ops within one run agree to about 1%; the spread between runs is larger, so
#: a run times few partitions and the seeds supply the repetitions.  The
#: exception is ``ondisk-v2``: most of its op waits on unlinking spill files,
#: which varies by 10-20% from op to op, so a run reports the median of four.
MIN_OPS = {"cold-2d": 1, "dist-3d": 2, "ondisk-v2": 4, "ondisk-v8": 1, "service-session": 100}
TOY_MIN_OPS = {"cold-2d": 2, "dist-3d": 2, "ondisk-v2": 2, "ondisk-v8": 1, "service-session": 8}

#: How often the program's set-up is repeated per run (``setup_s`` is the median).
SETUP_REPEATS = 5
SERVICE_SETUP_REPEATS = 3  # each one starts a server and runs two cold partitions
ONDISK_SETUP_REPEATS = 3  # each one writes a set of shards, which teardown unlinks

# -- checks ----------------------------------------------------------------------


def check_assignment(assignment, weights: np.ndarray, k: int) -> tuple[list[str], float]:
    """Every point assigned exactly once to a valid block, imbalance <= epsilon."""
    a = np.asarray(assignment)
    n = weights.shape[0]
    if a.shape != (n,):
        return [f"assignment has shape {a.shape}, expected ({n},)"], float("inf")
    if a.dtype.kind not in "iu":
        return [f"assignment dtype {a.dtype} is not integral"], float("inf")
    if n and (a.min() < 0 or a.max() >= k):
        return [f"block ids outside [0, {k})"], float("inf")
    block_w = np.bincount(a, weights=weights, minlength=k)
    imbalance = float(block_w.max() / (weights.sum() / k) - 1.0)
    errors = [] if imbalance <= EPSILON + 1e-12 else [f"imbalance {imbalance:.5f} > {EPSILON}"]
    return errors, imbalance


def same_bits(label: str, got, want) -> list[str]:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape or got.dtype != want.dtype or got.tobytes() != want.tobytes():
        return [f"{label} differs from the reference"]
    return []


def comm_volume_max(mesh, assignment: np.ndarray, k: int) -> float:
    from repro.metrics.commvolume import max_comm_volume

    return float(max_comm_volume(mesh, assignment, k))


# -- cold-2d ---------------------------------------------------------------------


def cold_2d(run) -> None:
    from repro.mesh import delaunay_mesh
    from repro.partitioners import GeographerPartitioner

    n, k = SIZES["cold-2d"][run.size]
    mesh = delaunay_mesh(n, 2, rng=run.seed)
    run.inputs_ready()

    # the serial stack has no set-up of its own beyond loading the program
    run.setup_times += [run.program_load() for _ in range(SETUP_REPEATS)]

    partitioner = GeographerPartitioner()
    first = {}

    def op(i):
        return partitioner.partition(mesh.coords, k, mesh.node_weights, EPSILON, rng=run.seed)

    def check(i, result):
        errors, imb = check_assignment(result.assignment, mesh.node_weights, k)
        if not first and not errors:  # the first valid result is the one compared against
            first.update(assignment=np.array(result.assignment), centers=np.array(result.centers))
        elif first:  # the same call on the same inputs must repeat bit for bit
            errors += same_bits("repeated assignment", result.assignment, first["assignment"])
            errors += same_bits("repeated centers", result.centers, first["centers"])
        return errors, {"imbalance": imb, "iterations": result.iterations,
                        "converged": bool(result.converged)}

    run.measure(op, check, MIN_OPS["cold-2d"] if run.size == "full" else TOY_MIN_OPS["cold-2d"])
    if first:
        run.quality["comm_volume_max"] = comm_volume_max(mesh, first["assignment"], k)


# -- dist-3d ---------------------------------------------------------------------


def dist_3d(run) -> None:
    from repro.mesh import rgg_mesh
    from repro.runtime import ProcessComm, distributed_balanced_kmeans

    n, k = SIZES["dist-3d"][run.size]
    nranks = 2
    # workers are forked during set-up, before the inputs exist, so their
    # resident memory is the program's and not a copy of the benchmark's
    comm = None
    for _ in range(SETUP_REPEATS):
        if comm is not None:
            comm.close()
        t0 = time.perf_counter()
        comm = ProcessComm(nranks)
        run.setup_times.append(time.perf_counter() - t0 + run.program_load())
    run.on_teardown(comm.close)
    mesh = rgg_mesh(n, dim=3, rng=run.seed)
    run.inputs_ready()
    first = {}

    def op(i):
        return distributed_balanced_kmeans(mesh.coords, k, nranks, weights=mesh.node_weights,
                                           rng=run.seed, comm=comm)

    def check(i, result):
        errors, imb = check_assignment(result.assignment, mesh.node_weights, k)
        if not first and not errors:  # the first valid result is the one compared against
            first.update(assignment=np.array(result.assignment), centers=np.array(result.centers))
        elif first:
            errors += same_bits("repeated assignment", result.assignment, first["assignment"])
        return errors, {"imbalance": imb, "iterations": result.iterations,
                        "converged": bool(result.converged)}

    run.measure(op, check, MIN_OPS["dist-3d"] if run.size == "full" else TOY_MIN_OPS["dist-3d"])
    run.respawns = len(comm.ledger.events_of("worker_respawn"))
    comm.close()
    if first:
        # the same seed on the in-process backend must give the same bits
        ref = distributed_balanced_kmeans(mesh.coords, k, nranks, weights=mesh.node_weights,
                                          rng=run.seed, backend="virtual")
        run.fail_ops(same_bits("assignment vs virtual backend", first["assignment"], ref.assignment)
                     + same_bits("centers vs virtual backend", first["centers"], ref.centers))
        run.quality["comm_volume_max"] = comm_volume_max(mesh, first["assignment"], k)


# -- ondisk-v2, ondisk-v8 --------------------------------------------------------


def ondisk(run, nranks: int, shards: int, make_mesh, config=None) -> None:
    """``ondisk_distributed_kmeans`` from ``shards`` shards, on ``nranks`` virtual ranks."""
    from repro.io import write_sharded
    from repro.runtime import distributed_balanced_kmeans
    from repro.runtime.ondisk import ondisk_distributed_kmeans

    n, k = SIZES[run.workload][run.size]
    mesh = make_mesh(n, rng=run.seed)
    run.inputs_ready()
    dataset = None
    write_times = []
    for i in range(ONDISK_SETUP_REPEATS):
        directory = os.path.join(run.workdir, f"shards-{i}")
        run.on_teardown(lambda d=directory: shutil.rmtree(d, ignore_errors=True))
        t0 = time.perf_counter()
        dataset = write_sharded(directory, mesh.coords, mesh.node_weights,
                                shard_rows=-(-mesh.n // shards))
        write_times.append(time.perf_counter() - t0)
        run.setup_times.append(write_times[-1] + run.program_load())
        os.sync()
    run.quality["write_sharded_s"] = float(np.median(write_times))
    first = {}

    def op(i):
        return ondisk_distributed_kmeans(dataset, k, nranks, config=config, rng=run.seed,
                                         backend="virtual")

    def check(i, result):
        try:
            assignment = np.array(result.assignment)
        finally:  # the caller owns the result's spill directory
            shutil.rmtree(result.spill_dir, ignore_errors=True)
            os.sync()  # the next op starts with no write-back or discard of this one pending
        errors, imb = check_assignment(assignment, mesh.node_weights, k)
        if not first and not errors:  # the first valid result is the one compared against
            first.update(assignment=assignment, centers=np.array(result.centers))
        elif first:
            errors += same_bits("repeated assignment", assignment, first["assignment"])
        return errors, {"imbalance": imb, "iterations": result.iterations,
                        "converged": bool(result.converged)}

    run.measure(op, check, MIN_OPS[run.workload] if run.size == "full" else TOY_MIN_OPS[run.workload])
    if first:
        ref = distributed_balanced_kmeans(mesh.coords, k, nranks, weights=mesh.node_weights,
                                          config=config, rng=run.seed, backend="virtual")
        run.fail_ops(same_bits("assignment vs in-memory run", first["assignment"], ref.assignment)
                     + same_bits("centers vs in-memory run", first["centers"], ref.centers))
        run.quality["comm_volume_max"] = comm_volume_max(mesh, first["assignment"], k)


def _fixed_iterations(iterations: int):
    """Exactly ``iterations`` center-movement rounds on every seed (no early stop).

    Early convergence varies by seed (32 to 50 rounds on ``ondisk-v2``'s
    mesh); a fixed count keeps the work of an op the same for every seed.
    """
    from repro.core import BalancedKMeansConfig

    return BalancedKMeansConfig(max_iterations=iterations, delta_threshold_rel=1e-12)


def _delaunay_2d(n: int, rng: int):
    from repro.mesh import delaunay_mesh

    return delaunay_mesh(n, 2, rng=rng)


def _climate(n: int, rng: int):
    from repro.mesh import climate_mesh

    return climate_mesh(n, rng=rng)


# -- service-session -------------------------------------------------------------

#: Weight snapshots of the moving refinement front; clients walk them back and forth.
FRONT_STEPS = 24
CLIENTS = 2


def front_index(client: int, step: int) -> int:
    """Client ``c``'s front position at ``step``: a triangle wave, offset per client."""
    period = 2 * FRONT_STEPS - 2
    pos = (step + client * (FRONT_STEPS - 1)) % period
    return pos if pos < FRONT_STEPS else period - pos


def service_session(run) -> None:
    from repro.mesh import refinement_sequence
    from repro.service import ServiceClient

    n, k = SIZES["service-session"][run.size]
    min_requests = MIN_OPS["service-session"] if run.size == "full" else TOY_MIN_OPS["service-session"]
    meshes = refinement_sequence(n, steps=FRONT_STEPS, rng=run.seed)
    mesh = meshes[0]
    fronts = [m.node_weights for m in meshes]
    seeds = [run.seed * 1000 + c for c in range(CLIENTS)]
    run.inputs_ready()

    server = clients = None
    for _ in range(SERVICE_SETUP_REPEATS):
        if server is not None:
            run.stop_server(server, clients)
        t0 = time.perf_counter()
        server = run.start_server()
        clients = [ServiceClient(run.socket_path, connect_timeout=30.0, request_timeout=60.0).connect()
                   for _ in range(CLIENTS)]
        dataset = clients[0].register_dataset(mesh.coords)["dataset_id"]
        sessions = [clients[c].open_session(dataset, k, EPSILON, seed=seeds[c])["session_id"]
                    for c in range(CLIENTS)]
        # each session's first step is the cold partition
        replies = [[clients[c].repartition(sessions[c], weights=fronts[front_index(c, 0)])]
                   for c in range(CLIENTS)]
        run.setup_times.append(time.perf_counter() - t0)
    run.on_teardown(lambda: run.stop_server(server, clients))

    lock = threading.Lock()
    entries = {}
    for c in range(CLIENTS):  # the cold steps are checked like every other reply
        entries[(c, 0)] = {"phase": "setup", "client": c, "step": 0, "errors": []}
        run.ops.append(entries[(c, 0)])

    def drive(c: int, phase: str, quota: int, deadline: float, issued: list) -> None:
        """One closed-loop client: next request as soon as the reply is in."""
        while True:
            with lock:
                if issued[0] >= quota and time.perf_counter() >= deadline:
                    return
                issued[0] += 1
            step = len(replies[c])
            entry = {"phase": phase, "client": c, "step": step, "errors": []}
            t0 = time.perf_counter()
            try:
                with run.span("bench.op"):
                    result = clients[c].repartition(sessions[c], weights=fronts[front_index(c, step)])
                entry["seconds"] = time.perf_counter() - t0
            except Exception as exc:  # a failed request; this client stops
                entry["seconds"] = time.perf_counter() - t0
                entry["errors"] = [f"{type(exc).__name__}: {exc}"]
                with lock:
                    run.ops.append(entry)
                return
            entry.update(iterations=result.iterations, converged=bool(result.converged))
            with lock:
                run.ops.append(entry)
                entries[(c, step)] = entry
            replies[c].append(result)

    for phase, quota, seconds in run.phases(min_requests):
        issued = [0]
        t0 = time.perf_counter()
        threads = [threading.Thread(target=drive, args=(c, phase, quota, t0 + seconds, issued), daemon=True)
                   for c in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            while t.is_alive():  # short joins keep SIGTERM/SIGINT deliverable
                t.join(0.2)
        run.phase_walls[phase] = time.perf_counter() - t0
    run.service_stats = clients[0].stats()
    run.retries = sum(client.retries_total for client in clients)
    run.stop_server(server, clients)

    # reference: the direct partition/repartition chain of each session, one
    # process per session (after the measured phase, so it competes with nothing)
    steps = [len(replies[c]) for c in range(CLIENTS)]
    jobs = [(mesh.coords, fronts, k, seeds[c], c, steps[c]) for c in range(CLIENTS)]
    with multiprocessing.get_context("spawn").Pool(CLIENTS) as pool:
        reference = pool.starmap_async(session_reference, jobs).get()
    migration, volumes = [], []
    for c in range(CLIENTS):
        for step, reply in enumerate(replies[c]):
            entry = entries[(c, step)]
            errors, entry["imbalance"] = check_assignment(reply.assignment, fronts[front_index(c, step)], k)
            if digest(reply.assignment, reply.centers) != reference[c][step]:
                errors.append(f"client {c} step {step}: reply differs from the direct chain")
            entry["errors"] += errors
            if step and not errors:
                previous = replies[c][step - 1].assignment
                migration.append(float(np.mean(np.asarray(reply.assignment) != previous)))
                volumes.append(comm_volume_max(mesh, reply.assignment, k))
    if volumes:
        run.quality.update(comm_volume_max=float(np.median(volumes)),
                           migration_frac=float(np.mean(migration)))


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def session_reference(coords, fronts, k: int, seed: int, client: int, steps: int) -> list[str]:
    """Digests of ``steps`` steps of the direct partition/repartition chain.

    The SFC order of the (fixed) points is computed once and passed in, which
    ``balanced_kmeans`` documents as equal to computing it in every call; it
    takes a third off each step, so the reference fits the run's time budget.
    """
    from repro.core.balanced_kmeans import compute_sfc_order
    from repro.partitioners import GeographerPartitioner

    direct = GeographerPartitioner(sfc_order=compute_sfc_order(coords))
    out, previous = [], None
    for step in range(steps):
        w = fronts[front_index(client, step)]
        if previous is None:
            previous = direct.partition(coords, k, w, EPSILON, rng=seed)
        else:
            previous = direct.repartition(previous, coords, k, w, EPSILON, rng=seed + step)
        out.append(digest(previous.assignment, previous.centers))
    return out


WORKLOADS = {
    "cold-2d": cold_2d,
    "dist-3d": dist_3d,
    "ondisk-v2": lambda run: ondisk(run, 2, 4, _delaunay_2d, _fixed_iterations(30)),
    "ondisk-v8": lambda run: ondisk(run, 8, 16, _climate),
    "service-session": service_session,
}
