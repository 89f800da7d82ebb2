"""Run the 204 family runs through `approximate`, or compare two such runs.

    PYTHONPATH=src python tests/family_runs.py > runs.jsonl
    PYTHONPATH=src python tests/family_runs.py --compare A.jsonl B.jsonl

The runs are at `k_max` 3 unless noted:

  - CYCLE5 (1.8 I + adj(C5)) and pc0 - pc7 in the fro, one and two norms;
  - d2026 #0 - #99, with norms cycling fro, one, two;
  - rng21 #0 - #29 in the one norm;
  - sizing-5 to sizing-10 and sizing-12 at `k_max` 2;
  - 40 Frobenius draws B'B from one default_rng(11): draw t has
    n = 4 + t % 3, N = rng.standard_normal((n + 2, n)) and B = max(N, 0).

The first form writes one JSON line per run: its name, norm, `k_max`,
status, order, atoms, certifying start and seconds.  `--compare` pairs the
runs of two such files by name, prints each change, and exits 1 when a
status, order or atom count differs or a run is in one file only; a
changed start only prints.
"""
from __future__ import annotations

import json
import re
import sys
import time

import numpy as np

from cpproj.driver import DriverSettings, approximate
from cpproj.relaxation import ProblemSpec
from test_acceptance import _cycle_family, _d2026, _rng21_draw, _sizing

NORMS = ("fro", "one", "two")
KEYS = ("status", "order", "atoms")


def _btb_draws(count: int):
    rng = np.random.default_rng(11)
    for t in range(count):
        n = 4 + t % 3
        B = np.maximum(rng.standard_normal((n + 2, n)), 0.0)
        yield f"BtB #{t}", B.T @ B


def family_runs() -> list[tuple[str, np.ndarray, str, int]]:
    """The runs as (name, C, norm, k_max)."""
    runs = [(f"{name} {norm}", C, norm, 3) for norm in NORMS for name, C in _cycle_family()]
    draws = _d2026(range(100))
    runs += [(name, C, NORMS[t % 3], 3) for t, (name, C) in enumerate(draws.items())]
    runs += [(f"rng21 #{t}", _rng21_draw(t), "one", 3) for t in range(30)]
    runs += [(f"sizing-{n}", _sizing(n), "fro", 2) for n in (5, 6, 7, 8, 9, 10, 12)]
    runs += [(name, C, "fro", 3) for name, C in _btb_draws(40)]
    return runs


def _run(name: str, C: np.ndarray, norm: str, k_max: int) -> dict:
    start = time.perf_counter()
    out = approximate(ProblemSpec(C, norm), DriverSettings(k_max=k_max))
    seconds = time.perf_counter() - start
    dec = getattr(out, "decomposition", None)
    certified = [m for e in out.events for m in re.findall(r"certified from the (.+?) start", e)]
    return {
        "name": name, "norm": norm, "k_max": k_max, "status": out.status,
        "order": getattr(out, "k_used", getattr(out, "k_last", None)),
        "atoms": None if dec is None else dec.rank,
        "start": certified[-1] if certified else None,
        "seconds": round(seconds, 4),
    }


def compare(a: list[dict], b: list[dict]) -> tuple[list[str], bool]:
    """The report's lines, and whether a status, order, atom count or the
    set of runs differs."""
    runs_a, runs_b = ({r["name"]: r for r in runs} for runs in (a, b))
    moved, starts = [], []
    for name in [r["name"] for r in a if r["name"] in runs_b]:
        x, y = runs_a[name], runs_b[name]
        if any(x[key] != y[key] for key in KEYS):
            moved.append(f"  {name}: " + ", ".join(f"{key} {x[key]} -> {y[key]}" for key in KEYS))
        elif x["start"] != y["start"]:
            starts.append(f"  {name}: start {x['start']} -> {y['start']}")
    unpaired = sorted(runs_a.keys() ^ runs_b.keys())
    only = [f"  {n}: only in {'A' if n in runs_a else 'B'}" for n in unpaired]
    seconds = [sum(r["seconds"] for r in runs) for runs in (a, b)]
    lines = [
        f"runs with changed status, order or atoms: {len(moved)}", *moved,
        f"runs with only a changed start: {len(starts)}", *starts,
        f"runs in one file only: {len(only)}", *only,
        f"seconds: A {seconds[0]:.1f}, B {seconds[1]:.1f}",
    ]
    return lines, bool(moved or only)


def _read(path: str) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main(argv: list[str]) -> int:
    if argv[:1] == ["--compare"] and len(argv) == 3:
        lines, differs = compare(_read(argv[1]), _read(argv[2]))
        print("\n".join(lines))
        return 1 if differs else 0
    if argv:
        print("usage: family_runs.py [--compare A.jsonl B.jsonl]", file=sys.stderr)
        return 2
    for run in family_runs():
        print(json.dumps(_run(*run)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
