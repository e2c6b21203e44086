"""Benchmark launcher for qtc.

    python3 perfbench/run.py --workload {bitexact,montecarlo,aoi} --seed N \
        --seconds S --trace {0,1} [--tiny]

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nothing is installed.  The launcher pins the
BLAS/OpenMP pools to one thread before numpy loads, sets the workload up from
the seed several times (reporting the median set-up time), then repeats
passes of the workload for ``--seconds`` seconds.  A pass's time is the sum
of its laps' fastest times over the run, corrected by a host probe timed
between passes (see ``_best_laps`` and ``_end_to_end``).

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
runs the same number of passes untraced and then traced, and reports the
per-layer metrics of the traced passes plus the tracing overhead.  The last
line of standard output is one JSON object; the lines before it give the
environment and a readable summary.  ``--tiny`` shrinks every input for the
smoke test.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing  # standard library only; safe to import before the thread pins

BLAS_THREADS = 1  # one caller, one thread: no BLAS pool beside it
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPEATS = 15
SETUP_PROBES = 3  # host probes before each set-up
TRACED_PASSES = 3  # caps the spans held in memory
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
IMPORT_PROBE = "import qtc.cli"
# Fastest time of `_host_probe` on an idle 2-vCPU KVM guest (Intel Xeon,
# Python 3.11, numpy 2.4): the host speed that `wall_s` is quoted at.
HOST_PROBE_REF_S = 0.0044


def _pin_threads() -> int:
    threads = max(1, min(BLAS_THREADS, os.cpu_count() or 1))
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _import_library() -> None:
    """Import qtc from this checkout's src/, refusing any other copy."""
    if not (SRC / "qtc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library source at {SRC}/qtc; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import qtc

    if Path(qtc.__file__).resolve().parent != (SRC / "qtc").resolve():
        raise SystemExit(f"perfbench: imported qtc from {qtc.__file__}, not from {SRC}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }


def _timed_import() -> float:
    """Wall time of a fresh interpreter importing the library, as a CLI user pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    # no timeout: with one, the wait polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True)
    return perf_counter() - t0


def _setup(setup_fn, seed: int, tiny: bool):
    """Median of several full set-ups (fresh import, input generation, file
    writes), and the fastest host probe timed between them."""
    times, probes = [], []
    state = None
    for _ in range(SETUP_REPEATS):
        probes += [_host_probe() for _ in range(SETUP_PROBES)]
        import_s = _timed_import()
        t0 = perf_counter()
        state = setup_fn(seed, WORKDIR, tiny)
        times.append(import_s + perf_counter() - t0)
    return state, statistics.median(times), min(probes)


@functools.cache
def _probe_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.normal(size=(256, 256)), rng.random((256, 256))


def _host_probe() -> float:
    """Time a fixed mix of interpreter and numpy work, written here so that
    no change to the library can move it: about 4 ms on an idle host."""
    import numpy as np

    x, keys = _probe_inputs()
    x = x.copy()
    t0 = perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i
    h = 1
    while h < x.shape[1]:  # an unnormalized Walsh-Hadamard butterfly
        y = x.reshape(x.shape[0], -1, 2, h)
        a = y[:, :, 0, :].copy()
        y[:, :, 0, :] += y[:, :, 1, :]
        y[:, :, 1, :] = a - y[:, :, 1, :]
        h *= 2
    np.argsort(keys, axis=1)
    return perf_counter() - t0


def _passes(run_fn, state, tally, seconds: float, max_passes: int | None = None) -> tuple[list, list]:
    """Repeat passes while the next one is expected to end within `seconds`.

    Returns the passes as (wall time, result) and the host probe's time
    before each pass."""
    out, probes = [], []
    start = perf_counter()
    while True:
        probes.append(_host_probe())
        t0 = perf_counter()
        res = run_fn(state, tally)
        out.append((perf_counter() - t0, res))
        elapsed = perf_counter() - start
        if max_passes is not None and len(out) >= max_passes or elapsed + out[-1][0] > seconds:
            return out, probes


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _best_laps(passes: list) -> dict:
    """Per lap group, the sum of each lap's fastest time across the passes.

    A pass is cut into laps (a round trip, one CLI command, one sampler
    call), and every pass on the same inputs makes the same laps, so the
    fastest time of lap i over the run is that call's cost when nothing else
    on the host slowed it.  Other tenants of a shared host only ever slow a
    lap down, in episodes of seconds to tens of seconds, so the median of a
    run moves with how much of it fell in such an episode.  Summed per-lap
    minima do not: over 30 s windows of one long bitexact run on a shared
    2-vCPU KVM guest, the windows' pass medians spread 25% (IQR / median)
    and their summed per-lap minima 0.3%.
    """
    layouts = {tuple(group for group, _ in res.laps) for _, res in passes}
    if len(layouts) != 1:
        raise SystemExit("perfbench: passes on the same inputs made different calls")
    fastest = [min(col) for col in zip(*([s for _, s in res.laps] for _, res in passes))]
    groups: dict = {}
    for group, s in zip(layouts.pop(), fastest):
        groups[group] = groups.get(group, 0.0) + s
    return groups


def _end_to_end(name: str, passes: list, probes: list, setup_s: float,
                setup_probe: float) -> tuple[dict, dict]:
    """(result-line metrics, workload-specific summary metrics).

    Times are quoted at the reference host speed: the summed per-lap minima
    divided by the host slowdown of the passes, their fastest host probe over
    `HOST_PROBE_REF_S`, and the median set-up divided by the host slowdown
    of the set-ups.  Other tenants of a shared host can slow it for a whole
    run (the probe's fastest time in 8 s windows ranged over 1.5x), which
    per-lap minima cannot see past; the probe, timed between the same
    passes or set-ups, is slowed alike.
    """
    walls = [wall for wall, _ in passes]
    work = passes[0][1].work
    slowdown = min(probes) / HOST_PROBE_REF_S
    setup_slowdown = setup_probe / HOST_PROBE_REF_S
    laps = {group: s / slowdown for group, s in _best_laps(passes).items()}
    wall = sum(laps.values())
    rate = work / (laps["sim"] if name == "aoi" else wall)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gated = {
        "setup_s": _metric(setup_s / setup_slowdown, "s"),
        "wall_s": _metric(wall, "s"),
        "peak_rss_mb": _metric(peak_mb, "MB"),
        "work_per_s": _metric(rate, "1/s"),
    }
    extra = {"setup_host_slowdown": _metric(setup_slowdown, "x"),
             "setup_measured_s": _metric(setup_s, "s"),
             "host_slowdown": _metric(slowdown, "x"),
             "wall_measured_s": _metric(wall * slowdown, "s"),
             "wall_median_s": _metric(statistics.median(walls), "s")}
    if name == "bitexact":
        lat = [s for _, res in passes for group, s in res.laps if group == "roundtrip"]
        extra["roundtrips_per_s"] = gated["work_per_s"]
        extra["roundtrip_p50_ms"] = _metric(tracing.percentile_ms(lat, 0.50), "ms")
        extra["roundtrip_p99_ms"] = _metric(tracing.percentile_ms(lat, 0.99), "ms")
        extra["roundtrip_samples"] = _metric(len(lat), "count")
        extra["payload_mbit_per_s"] = _metric(passes[0][1].extra["bits"] / wall / 1e6, "Mbit/s")
    elif name == "montecarlo":
        extra["client_trials_per_s"] = gated["work_per_s"]
    else:
        extra["sim_cycles_per_s"] = gated["work_per_s"]
        extra["solve_s"] = _metric(laps["solve"], "s")
    extra["passes"] = _metric(len(passes), "count")
    return gated, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("bitexact", "montecarlo", "aoi"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    threads = _pin_threads()
    _import_library()
    import workloads  # imports qtc, so only after the path and thread set-up

    WORKDIR.mkdir(exist_ok=True)
    setup_fn, run_fn = workloads.WORKLOADS[args.workload]
    tally = workloads.Tally()
    for _ in range(3):
        _host_probe()  # first calls run cold
    state, setup_s, setup_probe = _setup(setup_fn, args.seed, args.tiny)
    print("env " + json.dumps(_environment(threads)))
    run_fn(state, tally)  # warm-up pass: lazy imports and first-call costs stay out of the timings

    if args.trace == 0:
        passes, probes = _passes(run_fn, state, tally, args.seconds)
        metrics, extra = _end_to_end(args.workload, passes, probes, setup_s, setup_probe)
        extra["failed_frac"] = _metric(tally.failed / max(tally.attempted, 1), "frac")
        for name, m in {**metrics, **extra}.items():
            print(f"metric {args.workload} {name} = {m['value']:.6g} {m['unit']}")
    else:
        untraced, _ = _passes(run_fn, state, tally, args.seconds / 3, max_passes=TRACED_PASSES)
        rec = tracing.Recorder()
        tracing.install(rec, callers=(workloads,))
        state = setup_fn(args.seed, WORKDIR, args.tiny)  # re-made so its quantizers are wrapped
        with rec.root("harness.warmup"):
            run_fn(state, tally)
        rec.reset()
        traced_s = 0.0
        for _ in untraced:
            t0 = perf_counter()
            with rec.root():
                run_fn(state, tally)
            traced_s += perf_counter() - t0
        untraced_s = sum(wall for wall, _ in untraced)
        layers = tracing.layer_metrics(rec, traced_s)
        layers["trace.passes"] = (len(untraced), "count")
        layers["trace.spans"] = (len(rec.spans), "count")
        layers["trace.wall_s"] = (traced_s, "s")
        layers["trace.untraced_wall_s"] = (untraced_s, "s")
        layers["trace.overhead_s"] = (traced_s - untraced_s, "s")
        layers["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "frac")
        metrics = {name: _metric(v, unit) for name, (v, unit) in layers.items()}
        for name, m in metrics.items():
            print(f"layer {args.workload} {name} = {m['value']:.6g} {m['unit']}")
        rec.write_csv(WORKDIR / f"spans-{args.workload}-seed{args.seed}.csv")

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
