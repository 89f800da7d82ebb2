"""Rechecks of the benchmark's outputs, made from the outputs alone.

Each function returns the list of reasons an instance failed; an empty list
means the output checks out.  The tolerances are the acceptance suite's and
the CLI's documented guarantees, not values tuned to the measured outputs.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from cpproj.conic import ConicSolution, verify_certificate
from cpproj.relaxation import (
    LinearConstraint,
    ProblemSpec,
    assemble,
    check_weak_duality,
    map_solution,
)

RECON_TOL = 1e-4  # relative Frobenius residual of sum f f^T against X
CONSTRAINT_TOL = 1e-6  # constraint violation, relative to 1 + |b|
ORACLE_TOL = 1e-4  # |gamma - gamma_DNN| on the oracle instances
BOUND_TOL = 1e-7  # order-4 bound may undercut the order-2 bound by this much

EXIT_FOR_STATUS = {"projected": 0, "infeasible": 10, "inconclusive": 20}


def recheck_cli(expected: dict, code: int, doc: Optional[dict]) -> list[str]:
    """Check one reference-cli result against its expected outcome.

    `expected` is the instance's entry in reference_instances.json, `code` the
    exit code of `cpproj.cli.run` and `doc` the JSON it wrote.
    """
    if code in (1, 2) or doc is None:
        return [f"exit code {code}"]
    status = doc["status"]
    if status != expected["status"]:
        return [f"status {status}, expected {expected['status']}"]
    if code != EXIT_FOR_STATUS[status]:
        return [f"exit code {code} for status {status}"]
    problem = expected["problem"]
    if status == "infeasible":
        cert = doc["certificate"]
        sol = ConicSolution(
            status="primal_infeasible",
            primal=None,
            dual_eq=np.array(cert["dual_equality"], dtype=float),
            dual_cone=np.array(cert["dual_cone"], dtype=float),
            primal_obj=None,
            dual_obj=None,
            residuals={},
            iterations=0,
        )
        cons = tuple(
            LinearConstraint(c["A"], c["b"], "eq" if c["kind"] == "eq" else "ineq")
            for c in problem.get("constraints", [])
        )
        spec = ProblemSpec(np.array(problem["C"], dtype=float), expected["norm"], cons)
        prog = assemble(spec, int(doc["k_used"]))
        return [] if verify_certificate(prog, sol) else ["Farkas pair fails verification"]

    fails = []
    gap = abs(doc["gamma"] - expected["gamma"])
    if gap > expected["gamma_tol"]:
        fails.append(f"gamma {doc['gamma']:.6f} vs {expected['gamma']} (off by {gap:.2e})")
    X = np.array(doc["X"], dtype=float)
    F = np.array(doc["decomposition"]["factors"], dtype=float).reshape(-1, X.shape[0])
    if F.size and F.min() < 0.0:
        fails.append(f"negative factor entry {F.min():.2e}")
    resid = float(np.linalg.norm(F.T @ F - X))
    if resid > RECON_TOL * (1.0 + float(np.linalg.norm(X))):
        fails.append(f"factor residual {resid:.2e}")
    for i, con in enumerate(problem.get("constraints", [])):
        b = float(con["b"])
        val = float(np.sum(np.array(con["A"], dtype=float) * X))
        err = abs(val - b) if con["kind"] == "eq" else max(0.0, b - val)
        if err > CONSTRAINT_TOL * (1.0 + abs(b)):
            fails.append(f"constraint {i} off by {err:.2e}")
    return fails


def recheck_oracle(status: str, gamma: Optional[float], gamma_dnn: float) -> list[str]:
    """A decided projection whose distance matches the DNN oracle."""
    if status != "projected":
        return [status]
    gap = abs(gamma - gamma_dnn)
    return [] if gap <= ORACLE_TOL else [f"gamma {gamma:.8f} vs oracle {gamma_dnn:.8f}"]


def recheck_probe(prog, sol, bound2: float) -> list[str]:
    """An optimal order-4 solve, weakly dual, bounding no lower than order 2."""
    if sol.status != "optimal":
        return [f"status {sol.status}"]
    rsol = map_solution(prog, sol)
    fails = []
    if not check_weak_duality(rsol):
        fails.append("weak duality violated")
    if rsol.gamma < bound2 - BOUND_TOL:
        fails.append(f"order-4 bound {rsol.gamma:.10f} below order-2 bound {bound2:.10f}")
    return fails
