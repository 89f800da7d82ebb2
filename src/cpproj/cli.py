"""Command-line front end for the completely positive projection solver.

Reads a problem description from a JSON file, runs the projection (or the
membership check with --check), and writes a JSON result document.  Exit
codes triage the outcome so shell pipelines can branch without parsing:

    0   projection certified (or membership decided)
    10  constraints proved incompatible with complete positivity
    20  hierarchy exhausted without a certificate
    1   usage or input error
    2   the conic solver broke down

The problem file looks like

    {
      "n": 3,
      "C": [[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]],
      "constraints": [
        {"A": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
         "b": 4.0, "kind": "eq"}
      ]
    }

with "kind" either "eq" (<A, X> = b) or "ge" (<A, X> >= b); "constraints"
may be omitted.  C and every A must be finite and symmetric to within
1e-12 relative to their largest entry (absolute below 1), as `ProblemSpec`
requires.  All numbers in the result are printed with 12 significant
digits, and the same input with the same flags always produces
byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .conic import ConicSolverError, SolverSettings
from .driver import (
    DriverSettings,
    Inconclusive,
    Infeasible,
    Projected,
    SolverFailure,
    approximate,
    check_cp_membership,
)
from .extraction import CpDecomposition, verify_decomposition
from .relaxation import NORM_KINDS, LinearConstraint, ProblemSpec, order_name, p_norm, symmetric

__all__ = ["main", "run"]

EXIT_PROJECTED = 0
EXIT_INFEASIBLE = 10
EXIT_INCONCLUSIVE = 20
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


class InputError(ValueError):
    """Bad flags or a malformed problem file; message names the spot."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route through InputError so
    # usage problems land on exit code 1 as documented
    def error(self, message: str) -> None:
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    defaults = DriverSettings()
    p = _Parser(
        prog="cpproj",
        description="Project a symmetric matrix onto the completely positive "
        "matrices satisfying linear constraints, or prove that none exists.",
    )
    p.add_argument("problem", help="path to the JSON problem file")
    p.add_argument(
        "--norm",
        choices=NORM_KINDS,
        help="projection norm (required unless --check)",
    )
    p.add_argument(
        "--kmax",
        type=int,
        default=defaults.k_max,
        help=f"largest relaxation order (default {defaults.k_max})",
    )
    p.add_argument(
        "--tol",
        type=float,
        help="conic solver tolerance on the residuals and the relative gap "
        f"(default: the driver's, {defaults.solver.tol:g})",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="membership mode: decide whether C itself is completely positive "
        "(Frobenius norm, constraints must be absent or empty)",
    )
    p.add_argument(
        "--log",
        choices=("none", "summary", "trace"),
        default="none",
        help="diagnostics on stderr: one line, the full event trail, or nothing",
    )
    p.add_argument("--output", metavar="PATH", help="write the result here instead of stdout")
    return p


# ---------------------------------------------------------------------------
# input parsing


def _matrix_field(value: object, where: str, n: int) -> np.ndarray:
    if not isinstance(value, list) or len(value) != n:
        raise InputError(f"{where}: expected {n} rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            raise InputError(f"{where}[{i}]: expected {n} entries")
        for j, entry in enumerate(row):
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                raise InputError(f"{where}[{i}][{j}]: expected a number")
            if not math.isfinite(entry):
                raise InputError(f"{where}[{i}][{j}]: must be finite")
        rows.append([float(entry) for entry in row])
    M = np.array(rows, dtype=float)
    try:
        symmetric(M)
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from None
    return M


def load_problem(text: str) -> tuple[np.ndarray, tuple[LinearConstraint, ...]]:
    """Parse the problem document; raises InputError naming the bad field."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise InputError("top level: expected an object")
    unknown = set(doc) - {"n", "C", "constraints"}
    if unknown:
        raise InputError(f"top level: unknown field {sorted(unknown)[0]!r}")
    n = doc.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InputError("n: expected a positive integer")
    if "C" not in doc:
        raise InputError("C: missing")
    C = _matrix_field(doc["C"], "C", n)
    raw = doc.get("constraints", [])
    if not isinstance(raw, list):
        raise InputError("constraints: expected a list")
    cons = []
    for i, item in enumerate(raw):
        where = f"constraints[{i}]"
        if not isinstance(item, dict):
            raise InputError(f"{where}: expected an object")
        extra = set(item) - {"A", "b", "kind"}
        if extra:
            raise InputError(f"{where}: unknown field {sorted(extra)[0]!r}")
        if "A" not in item:
            raise InputError(f"{where}.A: missing")
        A = _matrix_field(item["A"], f"{where}.A", n)
        b = item.get("b")
        if isinstance(b, bool) or not isinstance(b, (int, float)) or not math.isfinite(b):
            raise InputError(f"{where}.b: expected a finite number")
        kind = item.get("kind")
        if kind not in ("eq", "ge"):
            raise InputError(f"{where}.kind: expected \"eq\" or \"ge\"")
        cons.append(LinearConstraint(A, float(b), "eq" if kind == "eq" else "ineq"))
    return C, tuple(cons)


# ---------------------------------------------------------------------------
# output rendering: fixed field order, floats at 12 significant digits


def _scalar(x: object) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".12g")
    if isinstance(x, str):
        return json.dumps(x)
    raise TypeError(f"cannot render {type(x).__name__}")


def render_json(obj: object, indent: int = 0) -> str:
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(key)}: {render_json(val, indent + 1)}"
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq):
            return "[" + ", ".join(_scalar(v) for v in seq) + "]"
        parts = [f"{inner}{render_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if isinstance(obj, np.ndarray):
        return render_json(obj.tolist(), indent)
    return _scalar(obj)


def _decomposition_doc(dec: Optional[CpDecomposition]) -> Optional[dict]:
    if dec is None:
        return None
    return {
        "weights": dec.weights.tolist(),
        "atoms": dec.atoms.tolist(),
        "factors": dec.factors.tolist(),
    }


def _outcome_doc(outcome, spec: ProblemSpec) -> tuple[dict, int]:
    if isinstance(outcome, Projected):
        X = outcome.matrix
        dec = outcome.decomposition
        residuals = {
            "reconstruction": verify_decomposition(X, dec),
            "constraint_violation": max((0.0, *spec.violations(X))),
            "distance_gap": abs(p_norm(X - spec.C, spec.norm) - outcome.gamma),
        }
        doc = {
            "status": "projected",
            "gamma": outcome.gamma,
            "X": X.tolist(),
            "decomposition": _decomposition_doc(dec),
            "k_used": outcome.k_used,
            "certificate": None,
            "residuals": residuals,
        }
        return doc, EXIT_PROJECTED
    if isinstance(outcome, Infeasible):
        cert = outcome.certificate
        doc = {
            "status": "infeasible",
            "gamma": None,
            "X": None,
            "decomposition": None,
            "k_used": outcome.k_used,
            "certificate": {
                "dual_equality": cert.dual_eq.tolist(),
                "dual_cone": cert.dual_cone.tolist(),
            },
            "residuals": {key: float(val) for key, val in sorted(cert.residuals.items())},
        }
        return doc, EXIT_INFEASIBLE
    assert isinstance(outcome, Inconclusive)
    doc = {
        "status": "inconclusive",
        # best distance lower bound the hierarchy established, not a distance
        "gamma": outcome.gamma_lower,
        "X": outcome.relaxation.matrix.tolist(),
        "decomposition": None,
        "k_used": outcome.k_last,
        "certificate": None,
        "residuals": {},
    }
    return doc, EXIT_INCONCLUSIVE


def _membership_doc(result) -> tuple[dict, int]:
    outcome, dec = result.outcome, result.decomposition
    doc = {
        "status": "checked" if result.is_cp is not None else "inconclusive",
        "is_cp": result.is_cp,
        "distance": result.distance,
        "decomposition": _decomposition_doc(dec),
        "k_used": outcome.k_used if isinstance(outcome, Projected) else outcome.k_last,
        "residuals": {},
    }
    if dec is not None and isinstance(outcome, Projected):
        doc["residuals"]["reconstruction"] = verify_decomposition(outcome.matrix, dec)
    code = EXIT_PROJECTED if result.is_cp is not None else EXIT_INCONCLUSIVE
    return doc, code


# ---------------------------------------------------------------------------
# orchestration


def _emit_logs(events: Sequence[str], summary: str, mode: str) -> None:
    if mode == "trace":
        for line in events:
            print(f"cpproj: {line}", file=sys.stderr)
    if mode in ("summary", "trace"):
        print(f"cpproj: {summary}", file=sys.stderr)


def _summarize(doc: dict) -> str:
    status, where = doc["status"], order_name(doc["k_used"], article=True)
    if status == "projected":
        return (
            f"projected: gamma={_scalar(doc['gamma'])} at {where}, "
            f"{len(doc['decomposition']['weights'])} atoms"
        )
    if status == "infeasible":
        return f"infeasible: certified at {where}"
    if status == "checked":
        return f"membership: is_cp={_scalar(doc['is_cp'])} (distance {_scalar(doc['distance'])})"
    gamma = doc.get("gamma", doc.get("distance"))
    return f"inconclusive after order {doc['k_used']} (lower bound {_scalar(gamma)})"


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except InputError as exc:
        print(f"cpproj: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.check and args.norm is not None:
            raise InputError("--check always uses the Frobenius norm; drop --norm")
        if not args.check and args.norm is None:
            raise InputError("--norm is required unless --check is given")
        try:
            solver = SolverSettings() if args.tol is None else SolverSettings(args.tol)
            settings = DriverSettings(k_max=args.kmax, solver=solver)
        except (ValueError, ConicSolverError) as exc:
            raise InputError(str(exc)) from None
        try:
            text = Path(args.problem).read_text()
        except OSError as exc:
            raise InputError(f"cannot read {args.problem}: {exc.strerror or exc}") from None
        try:
            C, constraints = load_problem(text)
        except InputError as exc:
            raise InputError(f"{args.problem}: {exc}") from None
        if args.check and constraints:
            raise InputError("--check tests C alone; remove the constraints")
    except InputError as exc:
        print(f"cpproj: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.check:
            result = check_cp_membership(C, settings=settings)
            doc, code = _membership_doc(result)
            events = result.outcome.events
        else:
            spec = ProblemSpec(C, args.norm, constraints)
            outcome = approximate(spec, settings)
            doc, code = _outcome_doc(outcome, spec)
            events = outcome.events
    except (SolverFailure, ConicSolverError) as exc:
        print(f"cpproj: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    rendered = render_json(doc) + "\n"
    if args.output:
        try:
            Path(args.output).write_text(rendered)
        except OSError as exc:
            print(f"cpproj: error: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(rendered)
    _emit_logs(events, _summarize(doc), args.log)
    return code


def main() -> None:
    sys.exit(run())
