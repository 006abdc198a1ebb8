"""The repo benchmark: one closed-loop client driving PTSBE requests.

Usage::

    python3 perfbench/run.py --workload dense-prep --seed 1 --seconds 20 --trace 0

Run from the repository root (the package is imported from ``src/``).
One client keeps one request in flight: ``run_ptsbe_stream(...,
retain=False)`` is called and every chunk is consumed before the next
request is issued.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the same requests untraced and then traced, prints the
per-layer metrics and writes a Chrome trace to ``perfbench/out/``.  The
last line of standard output is the result as one JSON object; the lines
before it are a readable summary.  The exit code is 1 when a correctness
check fails and 2 when the program cannot be imported.

Every reported time is in reference-host seconds and every rate per
reference-host second (see ``hostspeed.py``): measured values scaled by the
host-speed probe timed after each request.  The summary prints the raw
values and the scale beside them.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import List, NamedTuple, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: End-to-end metrics and their units, in the order they are printed.
E2E_METRICS = {
    "shots_per_s": "shots/s",
    "request_s.p50": "s",
    "first_chunk_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

WORKLOADS = ("dense-prep", "dense-shots", "clifford-frames", "tensornet-35q")

#: Set-up samples per run: this process plus fresh child processes, so
#: interpreter-level caches (imports, plans) start cold in each.
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 120
#: Host-speed probes timed right after each set-up.
SETUP_PROBES = 15


def import_program():
    """Import ``repro`` from this checkout's ``src/``, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return repro


def setup(workload, seed):
    """Build the circuit and run one warm-up request; return the circuit.

    The warm-up fills the per-circuit plan, router and schedule caches, so
    the timed requests see steady state and the set-up time shows work
    moved out of them.
    """
    from workloads import WARMUP_INDEX, request_seed

    circuit = workload.build()
    stream = workload.stream(circuit, request_seed(seed, WARMUP_INDEX))
    for _ in stream:
        pass
    return circuit


class Request(NamedTuple):
    """Outcome of one timed request; ``error`` is None when it passed."""

    wall: float
    first_chunk: Optional[float]
    shots: int
    error: Optional[str]


def run_request(workload, circuit, seed, options=None, tracer=None, index=0):
    """Issue one request and consume it to its last chunk.

    The per-request invariants are checked on the delivered chunks:
    delivered shots equal the PTS result's planned total and delivered
    trajectories equal its spec count (plus the workload's own
    per-trajectory invariant).  A raise or a failed invariant is an error.
    """
    sampler = workload.sampler()
    planned = []
    pts_sample = sampler.sample

    def recording_sample(circ, rng):
        result = pts_sample(circ, rng)
        planned.append(result)
        return result

    sampler.sample = recording_sample
    shots = trajectories = 0
    first = None
    problems = []
    span = tracer.start_request(index) if tracer is not None else None
    t0 = time.perf_counter()
    try:
        stream = workload.stream(circuit, seed, options, sampler)
        for chunk in stream:
            if first is None:
                first = time.perf_counter() - t0
            shots += chunk.num_shots
            trajectories += chunk.num_trajectories
            if workload.per_trajectory is not None:
                for traj in chunk.trajectories:
                    problem = workload.per_trajectory(traj)
                    if problem:
                        problems.append(problem)
        wall = time.perf_counter() - t0
    except Exception as exc:  # a failed request is counted, not fatal
        return Request(time.perf_counter() - t0, None, 0, f"{type(exc).__name__}: {exc}")
    finally:
        if span is not None:
            tracer.end(span)
    if tracer is not None:
        tracer.count("exec.trajectories", trajectories)
        unique = stream.unique_preparations
        tracer.count("exec.unique", trajectories if unique is None else unique)
    pts = planned[0]
    if shots != pts.total_shots:
        problems.append(f"delivered {shots} shots, planned {pts.total_shots}")
    if trajectories != len(pts.specs):
        problems.append(f"delivered {trajectories} trajectories, planned {len(pts.specs)}")
    return Request(wall, first, shots, "; ".join(problems) or None)


class Phase(NamedTuple):
    """The requests of one closed loop and the host-speed scale it ran at."""

    requests: List[Request]
    scale: float


def closed_loop(workload, circuit, seed, seconds, first_index=0, options=None, tracer=None):
    """Issue requests back to back for ``seconds``; at least three.

    Request ``i`` uses the seed derived from ``(seed, first_index + i)``.
    The host-speed probe runs after each request, outside its timing.
    """
    from hostspeed import HostSpeed
    from workloads import request_seed

    host = HostSpeed()
    done = []
    t_end = time.perf_counter() + seconds
    index = first_index
    while time.perf_counter() < t_end or len(done) < 3:
        done.append(
            run_request(workload, circuit, request_seed(seed, index), options, tracer, index)
        )
        host.sample()
        index += 1
    return Phase(done, host.scale())


def summarize(requests, scale=1.0):
    """Throughput and median latencies of the passed requests.

    ``scale`` converts measured seconds (the default 1.0 leaves them raw).
    """
    ok = [r for r in requests if r.error is None]
    wall = sum(r.wall for r in ok) * scale
    return {
        "shots_per_s": sum(r.shots for r in ok) / wall if wall else 0.0,
        "request_s.p50": statistics.median(r.wall for r in ok) * scale if ok else 0.0,
        "first_chunk_s.p50": statistics.median(r.first_chunk for r in ok) * scale if ok else 0.0,
        "requests": len(requests),
        "errors": len(requests) - len(ok),
    }


def timed_setup(workload, seed):
    """Set up; return ``(circuit, raw set-up seconds, reference set-up seconds)``."""
    from hostspeed import HostSpeed

    circuit = setup(workload, seed)
    raw = time.perf_counter() - T_START
    host = HostSpeed()
    for _ in range(SETUP_PROBES):
        host.sample()
    return circuit, raw, raw * host.scale()


def setup_probe(workload_name, seed):
    """Child-process mode: time one set-up and print it as JSON."""
    import_program()
    from workloads import workloads

    _, raw, reference = timed_setup(workloads()[workload_name], seed)
    print(json.dumps({"raw_s": raw, "setup_s": reference}))


def child_setups(workload_name, seed):
    """``(raw, reference)`` set-up seconds of fresh child processes, run in turn."""
    times = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((probe["raw_s"], probe["setup_s"]))
    return times


def blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def provenance(repro):
    """Machine and software facts printed with every result."""
    import numpy as np
    from repro.linalg.backend import get_array_backend

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    try:
        # Only this checkout's own repository counts, not an enclosing one.
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass  # no git, or not a git checkout: the commit is unknown
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "array_module": get_array_backend(repro.DEFAULT_CONFIG.array_module).name,
        "git_commit": commit,
        "machine": platform.machine(),
    }


def measure_end_to_end(workload, circuit, seed, seconds, setups):
    """Untraced closed loop; returns ``(requests, metrics, summary lines)``.

    ``setups`` holds ``(raw, reference)`` set-up seconds per sample.
    """
    phase = closed_loop(workload, circuit, seed, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats = summarize(phase.requests, phase.scale)
    raw = summarize(phase.requests)
    metrics = {
        "shots_per_s": stats["shots_per_s"],
        "request_s.p50": stats["request_s.p50"],
        "first_chunk_s.p50": stats["first_chunk_s.p50"],
        "setup_s": statistics.median(reference for _, reference in setups),
        "peak_rss_mb": peak_rss_mb,
    }
    raw["setup_s"] = statistics.median(r for r, _ in setups)
    n = stats["requests"] - stats["errors"]
    samples = {"shots_per_s": f"over {n} requests", "request_s.p50": f"n={n}",
               "first_chunk_s.p50": f"n={n}", "setup_s": f"n={len(setups)}"}
    lines = [f"host-speed scale {phase.scale:.4f} reference s per measured s"]
    for name, unit in E2E_METRICS.items():
        line = f"{workload.name} {name} = {metrics[name]:.6g} {unit} {samples.get(name, '')}"
        if name in raw:
            line += f" (raw {raw[name]:.6g})"
        lines.append(line)
    lines.append(f"{workload.name} error_rate = {stats['errors'] / stats['requests']:.6g} "
                 f"fraction ({stats['errors']} of {stats['requests']} requests)")
    return phase.requests, metrics, lines


def measure_layers(workload, circuit, seed, seconds):
    """Untraced, traced and (dense-prep) serial phases in equal shares.

    Returns ``(requests, metrics, summary lines)`` and writes the Chrome
    trace of the traced phase.  Times and rates are scaled by the host
    speed of the phase they were measured in.
    """
    from repro.execution.plan import plan_cache_stats
    from repro.execution.router import router_cache_stats
    from spans import LAYER_METRICS, Tracer

    share = seconds / (3 if workload.reference else 2)
    plain = closed_loop(workload, circuit, seed, share)
    tracer = Tracer()
    router0, plan0 = router_cache_stats(), plan_cache_stats()
    tracer.install(type(workload.sampler()))
    try:
        traced = closed_loop(workload, circuit, seed, share, len(plain.requests), tracer=tracer)
    finally:
        tracer.uninstall()
    router1, plan1 = router_cache_stats(), plan_cache_stats()
    first = len(plain.requests)
    metrics = tracer.layer_metrics(range(first, first + len(traced.requests)))
    for name, unit in LAYER_METRICS.items():
        if unit == "s":
            metrics[name] *= traced.scale
    metrics["kernel.apply_gbps"] /= traced.scale
    metrics["router.cache_misses"] = router1["misses"] - router0["misses"]
    metrics["plan.cache_misses"] = plan1["misses"] - plan0["misses"]
    base = summarize(plain.requests, plain.scale)["shots_per_s"]
    metrics["trace.overhead"] = summarize(traced.requests, traced.scale)["shots_per_s"] / base - 1.0
    metrics["ref.serial_shots_per_s"] = metrics["ref.batch_speedup"] = 0.0
    requests = plain.requests + traced.requests
    if workload.reference:
        serial = closed_loop(workload, circuit, seed, share, options=workload.reference)
        requests += serial.requests
        metrics["ref.serial_shots_per_s"] = summarize(serial.requests, serial.scale)["shots_per_s"]
        metrics["ref.batch_speedup"] = base / metrics["ref.serial_shots_per_s"]
    path = OUT / f"trace-{workload.name}-seed{seed}.json"
    tracer.write(path, {"workload": workload.name, "seed": seed, "host_speed_scale": traced.scale})
    lines = [
        f"host-speed scale {traced.scale:.4f} reference s per measured s (traced phase)",
        f"trace written to {path.relative_to(ROOT)} ({len(tracer.spans)} spans)",
    ]
    lines += [
        f"self {name:<16} {own:10.4f} s (raw) over {len(traced.requests)} traced requests"
        for name, own in tracer.self_seconds_by_name().items()
    ]
    lines += [
        f"{workload.name} {name} = {metrics[name]:.6g} {unit}"
        for name, unit in LAYER_METRICS.items()
    ]
    return requests, {name: metrics[name] for name in LAYER_METRICS}, lines


def run(workload_name, seed, seconds, trace, small=False):
    """Run one benchmark pass; return ``(result, summary_lines)``.

    ``small`` runs the reduced-size workloads of the self-tests and skips
    the set-up child processes.
    """
    repro = import_program()
    from spans import LAYER_METRICS
    from workloads import VERIFY_INDEX, CheckFailed, request_seed, workloads

    workload = workloads(small)[workload_name]
    circuit, raw_setup, reference_setup = timed_setup(workload, seed)
    lines = [f"provenance {json.dumps(provenance(repro))}"]
    if trace:
        requests, metrics, more = measure_layers(workload, circuit, seed, seconds)
    else:
        setups = [(raw_setup, reference_setup)]
        if not small:
            setups += child_setups(workload_name, seed)
        requests, metrics, more = measure_end_to_end(workload, circuit, seed, seconds, setups)
    lines += more
    lines += [f"request error: {r.error}" for r in requests if r.error is not None]
    failed = sum(r.error is not None for r in requests)
    correct = failed == 0
    try:
        for detail in workload.verify(circuit, workload, request_seed(seed, VERIFY_INDEX)):
            lines.append(f"check passed: {detail}")
    except CheckFailed as exc:
        correct = False
        lines.append(f"check FAILED: {exc}")
    units = LAYER_METRICS if trace else E2E_METRICS
    result = {
        "correct": correct,
        "attempted": len(requests),
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()},
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One BLAS thread unless the environment asks for more.  On the 2-vCPU
    # host two threads were no faster on any workload (same-seed A/B runs),
    # and each threaded BLAS call waits on both vCPUs, so interference on
    # either one showed in every timing where the single-threaded host-speed
    # probe could not follow it.  Set before numpy is imported; the set-up
    # children inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
