"""Benchmark of the cpproj solver: end-to-end metrics or a per-layer trace.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload reference-cli --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end metrics BENCHMARK.json lists; with `--trace 1` the run measures the
same passes untraced and then traced, and the metrics are the per-layer ones.
Lines before it print every metric by name and unit, the failed instances by
name, and the run's metadata.  Inputs, outputs, the full result and the trace
are written under `.perfbench_out/`.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 9
MIN_BEYOND = 10  # samples that must lie beyond a reported tail percentile


def pin_threads(count: int) -> None:
    """Fix every BLAS/OpenMP pool size; only effective before numpy loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("thread counts must be pinned before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = str(count)


def use_checkout_source() -> None:
    """Import cpproj from the checkout's src/, never from an installed copy."""
    if not (SRC / "cpproj" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cpproj sources under {SRC}; run from a source checkout")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]


def tail_percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank q-quantile, or None unless MIN_BEYOND samples lie beyond it.

    With n samples the quantile is the ceil(q*n)-th smallest, so n - ceil(q*n)
    samples lie beyond it; for q = 0.8 that takes at least 50 samples.
    """
    n = len(samples)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def median_hd(samples: Sequence[float]) -> float:
    """Harrell-Davis estimate of the median: a Beta-weighted mean of the order statistics.

    A workload of a few instances with unequal times has its middle values far
    apart (reference-cli's 7th to 9th instances take 0.7-1.1 s), so the plain
    median jumps from one to the next between runs; this estimate moves
    smoothly with them.
    """
    import numpy as np
    from scipy.stats import beta

    x = np.sort(np.asarray(samples, dtype=float))
    a = (len(x) + 1) / 2.0
    weights = np.diff(beta.cdf(np.arange(len(x) + 1) / len(x), a, a))
    return float(weights @ x)


def source_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "cpproj").glob("*.py")))


def metadata() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpproj_lines": source_lines(),
    }


# ---------------------------------------------------------------------------
# set-up


def setup(workload: str, seed: int, outdir: Path = OUT):
    """Import cpproj and write the workload's inputs; returns (workload, passes)."""
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](outdir / workload)
    return wl, wl.make(seed)


class SetupSampler:
    """Set-up times of SETUP_REPEATS fresh processes, spread over the timed passes.

    Each process imports cpproj from cold and writes the inputs to a directory
    of its own.  On a shared host one set-up's time is correlated with the
    next one's, so set-ups run back to back give a median that follows the
    host's speed of the moment; spread over the whole measurement they are
    close to independent samples.
    """

    def __init__(self, workload: str, seed: int):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                     "--workload", workload, "--seed", str(seed)]
        self.times: list[float] = []

    def sample(self) -> None:
        proc = subprocess.run(self.argv, capture_output=True, text=True, timeout=120, check=True)
        self.times.append(float(proc.stdout.strip().splitlines()[-1]))

    def __call__(self, progress: float) -> bool:
        """Take the next sample once `progress` (share of the budget used) reaches it."""
        if len(self.times) < SETUP_REPEATS and progress >= len(self.times) / SETUP_REPEATS:
            self.sample()
            return True
        return False

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_REPEATS:
            self.sample()
        return self.times


# ---------------------------------------------------------------------------
# timed passes


def calibrate(kind: str) -> float:
    """Seconds taken by a fixed kernel of the given instruction mix.

    The host's speed drifts by up to 1.7x over tens of seconds, and not
    equally for every kind of work.  The kernel whose mix resembles the
    workload's ("small": interpreter-bound work on tiny matrices; "dense":
    BLAS and LAPACK on mid-size matrices) runs between the timed calls, so
    that the run's times can also be read as multiples of the kernel's
    median, which cancels part of the drift.  The kernels belong to the
    benchmark, so no change to cpproj moves them.
    """
    import numpy as np

    G = np.arange(40000, dtype=float).reshape(200, 200) % 7.0
    big = G @ G.T + 200.0 * np.eye(200)
    small = big[:40, :40].copy()
    t0 = time.perf_counter()
    acc = 0.0
    if kind == "small":
        for _ in range(200):
            acc += float(np.linalg.cholesky(small)[-1, -1])
            acc += float(np.linalg.eigh(small[:20, :20])[0][0])
            acc += sum(x * 0.5 for x in range(100))
    else:
        for _ in range(24):
            acc += float(np.linalg.cholesky(big)[-1, -1] + (big @ big)[0, 0])
    return time.perf_counter() - t0


@dataclass
class Row:
    inst: object
    seconds: float
    result: object  # the call's return value, or the exception it raised
    pass_index: int


def measure(
    wl, passes, seconds: float, tracer=None, count: Optional[int] = None, between=None
) -> tuple[list[Row], list[float]]:
    """Run whole passes until `seconds` have passed; the last pass runs to its end.

    With `count` set, run exactly that many passes instead.  A calibration
    kernel runs before the first call and after every call; returns the rows
    and the calibration times.  `between`, if given, is called before the
    first call and after every call (and its calibration) with the share of
    `seconds` used so far, and returns whether it did any work; its own time
    does not count against `seconds`.
    """
    rows: list[Row] = []
    start = time.perf_counter()
    paused = 0.0

    def pause() -> None:
        nonlocal paused
        if between is not None:
            t1 = time.perf_counter()
            if between((t1 - start - paused) / seconds):
                # Waiting on another process leaves this one slow for a while
                # after; one discarded kernel brings it back up to speed.
                calibrate(wl.calibration)
            paused += time.perf_counter() - t1

    pause()
    cals = [calibrate(wl.calibration)]
    for p, batch in enumerate(passes):
        for inst in batch:
            if tracer is not None:
                tracer.instance = f"{inst.name}@{p}"
            t0 = time.perf_counter()
            try:
                result = wl.call(inst, tracer)
            except Exception as exc:  # a raising call is a failed instance, not a crash
                result = exc
            dt = time.perf_counter() - t0
            cals.append(calibrate(wl.calibration))
            rows.append(Row(inst, dt, result, p))
            pause()
        if count is not None:
            if p + 1 == count:
                break
        elif time.perf_counter() - start - paused >= seconds:
            break
    return rows, cals


def pass_totals(rows: list[Row]) -> list[float]:
    """Seconds in calls, per pass."""
    secs: dict[int, float] = {}
    for r in rows:
        secs[r.pass_index] = secs.get(r.pass_index, 0.0) + r.seconds
    return list(secs.values())


def check_rows(wl, rows: list[Row]) -> dict[str, list[str]]:
    """Failures by instance id; every row is rechecked from its output."""
    failures = {}
    for i, r in enumerate(rows):
        if isinstance(r.result, Exception):
            why = [f"raised {type(r.result).__name__}: {r.result}"]
        else:
            why = wl.check(r.inst, r.result)
        if why:
            failures[f"{r.inst.name}#{i}"] = why
    return failures


def per_instance_medians(rows: list[Row]) -> list[float]:
    """One sample per distinct instance: the median of its timed calls."""
    by_name: dict[str, list[float]] = {}
    for r in rows:
        by_name.setdefault(r.inst.name, []).append(r.seconds)
    return [statistics.median(v) for v in by_name.values()]


def end_to_end(setup_times, rows: list[Row], cals, failures, peak_kb) -> dict:
    """Raw times in seconds, plus the gated times in calibration multiples.

    A time in calibration multiples is divided by the median of the run's
    calibrations, not by the ones next to the call: one 20 ms calibration
    varies too much to correct a single call, while the run's median follows
    the host's speed over the run.
    """
    pass_s = pass_totals(rows)
    inst_s = [r.seconds for r in rows]
    cal = statistics.median(cals)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_cal": (statistics.median(pass_s) / cal, "cal"),
        "instance_p50_cal": (median_hd(inst_s) / cal, "cal"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "wall_s": (statistics.median(pass_s), "s"),
        "instance_p50_s": (median_hd(inst_s), "s"),
        "instance_p80_s": (tail_percentile(per_instance_medians(rows), 0.8), "s"),
        "failed_frac": (len(failures) / len(rows), "ratio"),
        "calibration_s": (cal, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if v is not None}


# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    pin_threads(1)
    use_checkout_source()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")

    if args.setup_only:
        t0 = time.perf_counter()
        setup(args.workload, args.seed, OUT / "setup")
        print(time.perf_counter() - t0, flush=True)
        os._exit(0)  # skip tearing down numpy and scipy, which is not set-up time

    wl, passes = setup(args.workload, args.seed)
    sampler = None if args.trace else SetupSampler(args.workload, args.seed)
    timed, cals = measure(wl, passes, args.seconds, between=sampler)
    setup_times = sampler.finish() if sampler else []
    rows = timed
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    meta = metadata()
    trace_doc = None
    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = measure(wl, passes, args.seconds, tracer, count=timed[-1].pass_index + 1)
        finally:
            tracer.uninstall()
        traced_wall = sum(r.seconds for r in traced)
        metrics = layer_metrics(tracer.spans, traced_wall, sum(r.seconds for r in timed))
        conic = metrics["conic.relax_s"]["value"] + metrics["conic.witness_s"]["value"]
        meta["conic_share_of_traced_wall"] = conic / traced_wall
        meta["absent_trace_points"] = tracer.absent
        trace_doc = tracer.to_json()
        rows = timed + traced
        failures = check_rows(wl, rows)
    else:
        failures = check_rows(wl, rows)
        metrics = end_to_end(setup_times, rows, cals, failures, peak_kb)

    kind = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in spec[kind]]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": meta,
        "passes": timed[-1].pass_index + 1,
        "pass_s": pass_totals(timed),
        "setup_runs_s": setup_times,
        "calibrations_s": cals,
        "instances": [
            {"id": f"{r.inst.name}#{i}", "seconds": r.seconds}
            for i, r in enumerate(rows)
        ],
        "failures": failures,
        "metrics": metrics,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    if trace_doc is not None:
        (OUT / f"trace-{tag}.json").write_text(json.dumps(trace_doc))

    print(f"workload {args.workload}, seed {args.seed}: {len(rows)} instances "
          f"in {record['passes']} passes")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for inst_id, why in failures.items():
        print(f"  FAILED {inst_id}: {'; '.join(why)}")
    print("meta " + json.dumps(meta))
    result = {
        "correct": not failures,
        "attempted": len(rows),
        "failed": len(failures),
        "metrics": {name: metrics[name] for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
