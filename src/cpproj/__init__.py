"""cpproj: projection onto the completely positive cone under linear constraints.

The package solves, in the 1-, 2-, infinity-, or Frobenius norm,

    minimize ||X - C||  over completely positive X with  <A_i, X> = / >= b_i,

returning either the projection together with an explicit nonnegative rank-one
decomposition of it, or a certificate that no completely positive matrix
satisfies the constraints.  The computation climbs one ladder of conic
relaxations with the built-in interior-point method: order k is the dual of
Parrilo's cone K^(k - 1), a semidefinite program over the moments of degree
k + 1 of which X is a linear image, and order 1, the dual of K^(0), is the
doubly nonnegative relaxation.  Each order bounds the distance from below,
no lower than the order before it (or proves the constraints infeasible),
and its optimal matrix is certified completely positive by a direct
nonnegative factorization.

Entry points:

- `approximate(spec)` runs the full projection algorithm and returns a
  `Projected`, `Infeasible`, or `Inconclusive` outcome.
- `check_cp_membership(C)` decides whether C itself is completely positive
  and returns a `MembershipResult`.
- `ProblemSpec` / `LinearConstraint` describe the instance; `DriverSettings`
  sets the highest relaxation order and the `SolverSettings(tol)` of the
  conic solver, its one stopping tolerance.
- `SolverFailure` and `ConicSolverError` report a solver breakdown or a
  malformed program; `CpDecomposition` holds the certified factors.

The layers those entry points are built from are imported from their own
modules: the factorization starts, factor polish and the CP distance floor
(`cpproj.extraction`), the four norms, the input symmetry rule, the
monomial index and the conic relaxations built from them
(`cpproj.relaxation`), and a self-contained homogeneous conic
interior-point solver that also owns the upper-triangle fold of symmetric
matrices (`cpproj.conic`).
"""
from .conic import ConicSolverError, SolverSettings
from .driver import (
    DriverSettings,
    Inconclusive,
    Infeasible,
    MembershipResult,
    Projected,
    SolverFailure,
    approximate,
    check_cp_membership,
)
from .extraction import CpDecomposition
from .relaxation import LinearConstraint, ProblemSpec

__version__ = "0.1.0"

__all__ = [
    "approximate",
    "check_cp_membership",
    "ProblemSpec",
    "LinearConstraint",
    "DriverSettings",
    "SolverSettings",
    "Projected",
    "Infeasible",
    "Inconclusive",
    "MembershipResult",
    "SolverFailure",
    "ConicSolverError",
    "CpDecomposition",
    "__version__",
]
