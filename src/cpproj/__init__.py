"""cpproj: projection onto the completely positive cone under linear constraints.

The package solves, in the 1-, 2-, infinity-, or Frobenius norm,

    minimize ||X - C||  over completely positive X with  <A_i, X> = / >= b_i,

returning either the projection together with an explicit nonnegative rank-one
decomposition of it, or a certificate that no completely positive matrix
satisfies the constraints.  The computation runs a hierarchy of semidefinite
moment relaxations solved by the built-in conic interior-point method; exact
termination is detected through a moment-matrix rank condition and the measure
behind the solution is recovered atom by atom.

Entry points:

- `approximate(spec)` runs the full projection algorithm and returns a
  `Projected`, `Infeasible`, or `Inconclusive` outcome.
- `check_cp_membership(C)` decides whether C itself is completely positive
  and returns a `MembershipResult`.
- `ProblemSpec` / `LinearConstraint` describe the instance; `DriverSettings`
  sets the highest relaxation order, the extraction seed and the
  `SolverSettings` of the conic solver.
- `SolverFailure` and `ConicSolverError` report a solver breakdown or a
  malformed program; `CpDecomposition` holds the certified factors.

The layers those entry points are built from are imported from their own
modules: monomial bookkeeping and truncated moment sequences
(`cpproj.polybasis`), moment and localizing matrices with the flatness test
(`cpproj.moments`), atom extraction and factor handling (`cpproj.extraction`),
the semidefinite reformulations of the four norms (`cpproj.norms`,
`cpproj.relaxation`), and a self-contained homogeneous conic interior-point
solver (`cpproj.conic`).
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
