"""Compare two outcome digests written by `pytest --outcome-digest=PATH`.

    python tests/compare_digests.py A.json B.json

pairs the records of each test in call order, `conic.solve` with
`conic.solve` and `driver.approximate` with `driver.approximate`, and
prints

  - the solves whose bits changed (any of `primal`, `dual_eq`, `dual_cone`),
  - the solves whose status or iteration count changed,
  - the solves whose program data changed (`program`), or "not recorded"
    when a digest predates the field, so a moved program shows apart
    from a solve that moved on the same program,
  - the outcomes whose status, order k or atom count changed, each with
    the factor residual over its budget (`margin`) on both sides, so a
    certificate that sat near its budget shows,
  - the largest move of gamma over the paired outcomes, relative to
    max(1, |gamma|) as the solver's relative gap is,
  - the largest certificate margin on each side, and the largest rise of a
    paired margin, so a certificate drifting toward its budget shows
    before it is lost,

then the tests whose record counts differ.  It exits 1 when any solve or
outcome status, k or atom count differs or a test's record count does,
and 0 otherwise; changed bits, iteration counts, gammas and margins only
print, and so do moved programs.
"""
from __future__ import annotations

import json
import sys

SOLVE, OUTCOME = "conic.solve", "driver.approximate"
HASHES = ("primal", "dual_eq", "dual_cone")


def _calls(records: list[dict], call: str) -> list[dict]:
    return [r for r in records if r["call"] == call]


def _gamma(record: dict) -> float | None:
    return None if record["gamma"] == "None" else float(record["gamma"])


def _margin(record: dict) -> str:
    margin = record.get("margin")
    return "-" if margin is None else f"{margin:.3g}"


def _largest_margin(digest: dict) -> str:
    margins = [
        (r["margin"], f"{test} #{i}")
        for test in sorted(digest)
        for i, r in enumerate(_calls(digest[test], OUTCOME))
        if r.get("margin") is not None
    ]
    if not margins:
        return "-"
    margin, at = max(margins, key=lambda m: m[0])
    return f"{margin:.3g} ({at})"


def _listed(test: str, moved: list[int], solves: list) -> str:
    return f"  {test}: {len(moved)} of {len(solves)} (#{', #'.join(map(str, moved))})"


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """The report's lines, and whether a status, k, atom count or record
    count differs."""
    bits, iters, programs, outcomes, counts = [], [], [], [], []
    nbits, nprograms, worst, worst_at, status_moved = 0, 0, 0.0, None, False
    rise, rise_at = 0.0, None
    recorded = all("program" in r for d in (a, b) for t in d for r in _calls(d[t], SOLVE))
    for test in sorted(a.keys() & b.keys()):
        solves = list(zip(_calls(a[test], SOLVE), _calls(b[test], SOLVE)))
        results = list(zip(_calls(a[test], OUTCOME), _calls(b[test], OUTCOME)))
        for call in (SOLVE, OUTCOME):
            na, nb = len(_calls(a[test], call)), len(_calls(b[test], call))
            if na != nb:
                counts.append(f"  {test}: {na} -> {nb} {call} records")
        moved = [i for i, (x, y) in enumerate(solves) if any(x[h] != y[h] for h in HASHES)]
        if moved:
            nbits += len(moved)
            bits.append(_listed(test, moved, solves))
        moved = [i for i, (x, y) in enumerate(solves) if recorded and x["program"] != y["program"]]
        if moved:
            nprograms += len(moved)
            programs.append(_listed(test, moved, solves))
        for i, (x, y) in enumerate(solves):
            status_moved |= x["status"] != y["status"]
            if (x["status"], x["iterations"]) != (y["status"], y["iterations"]):
                iters.append(
                    f"  {test} #{i}: {x['status']} {x['iterations']} -> {y['status']} {y['iterations']}"
                )
        for i, (x, y) in enumerate(results):
            if any(x[key] != y[key] for key in ("status", "k", "atoms")):
                outcomes.append(
                    f"  {test} #{i}: {x['status']} k={x['k']} atoms={x['atoms']} -> "
                    f"{y['status']} k={y['k']} atoms={y['atoms']} "
                    f"(margin {_margin(x)} -> {_margin(y)})"
                )
            if x.get("margin") is not None and y.get("margin") is not None:
                if y["margin"] - x["margin"] > rise:
                    rise = y["margin"] - x["margin"]
                    rise_at = f"{test} #{i}: {_margin(x)} -> {_margin(y)}"
            ga, gb = _gamma(x), _gamma(y)
            if ga is not None and gb is not None and abs(ga - gb) / max(1.0, abs(ga)) > worst:
                worst, worst_at = abs(ga - gb) / max(1.0, abs(ga)), f"{test} #{i}"
    only = [f"  {t}: only in {'A' if t in a else 'B'}" for t in sorted(a.keys() ^ b.keys())]
    lines = [
        f"solves with changed bits: {nbits}", *bits,
        f"solves with changed status or iterations: {len(iters)}", *iters,
        f"programs with changed data: {nprograms if recorded else 'not recorded'}", *programs,
        f"outcomes with changed status, k or atoms: {len(outcomes)}", *outcomes,
        f"largest relative gamma move: {worst:.3g}" + (f" ({worst_at})" if worst_at else ""),
        f"largest margin: A {_largest_margin(a)}, B {_largest_margin(b)}",
        f"largest paired margin rise: {rise:.3g}" + (f" ({rise_at})" if rise_at else ""),
        f"tests with changed record counts: {len(counts)}", *counts,
        f"tests in one digest only: {len(only)}", *only,
    ]
    return lines, bool(outcomes or counts or status_moved)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_digests.py A.json B.json", file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        lines, differs = compare(json.load(fa), json.load(fb))
    print("\n".join(lines))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
