"""Do oracle-api's outcomes depend on the BLAS thread count?

Run from the root of a source checkout:

    python3 perfbench/thread_agreement.py

Decides oracle-api's instances once with 1 BLAS thread and once with as many
threads as the process may use, each in its own process, and lists every
instance whose status or distance differs.  A disagreement is reported, not
treated as an error: the script exits 0 either way.  The report is also
written to .perfbench_out/thread_agreement.json.  It is not part of the
timed benchmark.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import OUT, pin_threads, use_checkout_source


def decide(threads: int) -> dict:
    """Status and distance of every oracle-api instance, in this process."""
    pin_threads(threads)
    use_checkout_source()
    import cpproj.driver
    from cpproj.relaxation import ProblemSpec
    from workloads import OracleApi

    out = {}
    for inst in OracleApi(OUT / "oracle-api").make(seed=0)[0]:
        outcome = cpproj.driver.approximate(ProblemSpec(inst.data["C"], "fro"))
        out[inst.name] = {
            "status": outcome.status,
            "gamma": getattr(outcome, "gamma", getattr(outcome, "gamma_lower", None)),
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.threads is not None:
        print(json.dumps(decide(args.threads)))
        return 0

    counts = sorted({1, len(os.sched_getaffinity(0))})
    runs = {}
    for n in counts:
        proc = subprocess.run(
            [sys.executable, __file__, "--threads", str(n)],
            capture_output=True, text=True, timeout=900, check=True,
        )
        runs[n] = json.loads(proc.stdout.strip().splitlines()[-1])
    lo, hi = runs[counts[0]], runs[counts[-1]]
    differ = {
        name: {str(n): runs[n][name] for n in counts}
        for name in lo
        if lo[name]["status"] != hi[name]["status"]
        or (lo[name]["gamma"] is not None and hi[name]["gamma"] is not None
            and abs(lo[name]["gamma"] - hi[name]["gamma"]) > 1e-6)
    }
    report = {"thread_counts": counts, "instances": len(lo), "disagreements": differ, "runs": runs}
    OUT.mkdir(exist_ok=True)
    (OUT / "thread_agreement.json").write_text(json.dumps(report, indent=1))
    print(f"{len(lo)} instances at {counts} BLAS threads: {len(differ)} disagree")
    for name, by_n in differ.items():
        print("  " + name + ": " + ", ".join(
            f"{n} thread(s) {v['status']} gamma {v['gamma']}" for n, v in by_n.items()
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
