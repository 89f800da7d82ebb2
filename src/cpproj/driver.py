"""End-to-end projection driver.

Solves the order-k relaxation for increasing k, watches the moment matrix of
the solution for a flat truncation, and certifies the projection by
extracting an atomic measure and rebuilding the matrix from its CP factors.
The relaxation fixes the optimal matrix but not the moment vector behind it,
and the path-following solver returns the analytic center of the optimal
face, which is flat only when that face is a point.  Whenever the scan
certifies nothing, the driver fits nonnegative factors to the optimal matrix
directly, from a seeded random start, before moving to the next order.  Both
routes pass the same gates: polish, sparsify, the factor residual and the
constraints.  No moment evidence backs the direct factorization, so it is
held to a tighter residual than extracted atoms are.

Three outcomes are possible:

  Projected     a certified projection: matrix, distance, CP decomposition
  Infeasible    the constraint set excludes every completely positive matrix
                (a verified Farkas certificate is attached)
  Inconclusive  no order up to k_max produced a certified measure; the best
                relaxation bound is still a valid lower bound on the distance

A solver breakdown (no convergence, unverifiable certificate) raises
SolverFailure instead of guessing.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .conic import ConicSolution, SolverSettings
from .extraction import (
    CpDecomposition,
    ExtractionError,
    ExtractionTols,
    cp_decomposition,
    extract_atoms,
    polish_decomposition,
    row_floor,
    sparsify_decomposition,
    trace_scaled,
    verify_decomposition,
)
from .moments import check_flat
from .relaxation import (
    ProblemSpec,
    RelaxationSolution,
    map_solution,
    solve_relaxation,
)

__all__ = [
    "DriverSettings",
    "Projected",
    "Infeasible",
    "Inconclusive",
    "SolverFailure",
    "MembershipResult",
    "approximate",
    "check_cp_membership",
]

logger = logging.getLogger(__name__)


class SolverFailure(RuntimeError):
    """The conic solve broke down before the algorithm could decide."""

    def __init__(self, message: str, solution: Optional[ConicSolution] = None):
        super().__init__(message)
        self.solution = solution


K_START = 2  # the lowest relaxation order; `assemble` rejects anything below
RANK_TOL = 1e-6  # flatness rank decisions
FEAS_TOL = 1e-7  # flatness feasibility residual
# solver-grade sequences carry ~1e-7 noise that the eigenstructure reading can
# amplify by a few orders, so the raw gates sit much looser than the module
# defaults; the polished decomposition residual and constraint recheck below
# are the binding verification
EXTRACTION_TOLS = ExtractionTols(
    entry_tol=1.5e-1, sphere_tol=1.5e-1, weight_tol=1e-8, fit_tol=1.5e-1
)
# residual multiplier (on top of the solver tolerances) up to which a stalled
# iterate is still offered to the certification scan; its objective is never
# recorded as a distance bound in that band
STALL_SLACK = 100.0
CONSTRAINT_TOL = 1e-6  # constraint violation, relative to 1 + |b|
RECON_TOL = 1e-4  # relative factor-reconstruction residual of extracted atoms
# a direct factorization has no moment evidence behind it, so its fit is the
# whole proof that X is completely positive: it is held to ten times the
# default solver tolerance (widened only for a stalled iterate), not to the
# looser budget for polishing extracted atoms
FACTOR_TOL = 1e-6
MEMBERSHIP_TOL = 1e-5  # distance below which C itself counts as CP


@dataclass(frozen=True)
class DriverSettings:
    k_max: int = 4
    extraction_seed: int = 0
    # moment relaxations are chronically degenerate: the dense-LDL engine
    # reliably reaches ~1e-7 KKT accuracy on them but can stall a decade
    # short of its 1e-8 default, so the driver asks for what is attainable
    solver: SolverSettings = field(
        default_factory=lambda: SolverSettings(tol_feas=1e-7, tol_gap=1e-7)
    )

    def __post_init__(self) -> None:
        if self.k_max < K_START:
            raise ValueError(f"k_max must be at least {K_START}")


@dataclass(frozen=True, eq=False)
class Projected:
    """Certified projection with its completely positive decomposition.

    `t_used` is the flat truncation order whose atoms certified, or None
    when the direct factorization of `matrix` did.
    """

    matrix: np.ndarray
    gamma: float
    decomposition: CpDecomposition
    k_used: int
    t_used: Optional[int]
    relaxation: RelaxationSolution
    events: tuple[str, ...]
    bounds: tuple[tuple[int, float], ...] = ()  # (order, distance bound) per solve

    status = "projected"


@dataclass(frozen=True, eq=False)
class Infeasible:
    """No completely positive matrix satisfies the constraints."""

    k_used: int
    certificate: ConicSolution
    events: tuple[str, ...]

    status = "infeasible"


@dataclass(frozen=True, eq=False)
class Inconclusive:
    """No certificate up to k_max; gamma_lower still bounds the distance."""

    gamma_lower: Optional[float]
    k_last: int
    relaxation: Optional[RelaxationSolution]
    events: tuple[str, ...]
    bounds: tuple[tuple[int, float], ...] = ()

    status = "inconclusive"


Outcome = Union[Projected, Infeasible, Inconclusive]


def _usable_solution(csol, solver: SolverSettings, slack: float = 10.0) -> bool:
    """Accept a stalled solve whose best iterate nearly met the tolerances.

    Moment relaxations are degenerate enough that the interior-point engine
    can stall a small factor short of the request (typically on instances
    whose optimum touches the cone boundary everywhere).  The iterate it
    hands back is still far more accurate than the rank scan needs, and the
    binding checks happen downstream on the reconstructed factors and the
    constraints, so a near miss is worth scanning rather than aborting.
    """
    if csol.status == "optimal":
        return True
    if csol.status != "iteration_limit" or csol.primal is None:
        return False
    res = csol.residuals
    far = float("inf")
    return (
        res.get("primal_feas", far) <= slack * solver.tol_feas
        and res.get("dual_feas", far) <= slack * solver.tol_feas
        and res.get("rel_gap", far) <= slack * solver.tol_gap
    )


def _constraints_hold(spec: ProblemSpec, X: np.ndarray) -> Optional[str]:
    for i, (con, err) in enumerate(zip(spec.constraints, spec.violations(X))):
        if err > CONSTRAINT_TOL * (1.0 + abs(con.rhs)):
            return f"constraint {i} off by {err:.3e}"
    return None


def _certify(
    X: np.ndarray,
    dec: CpDecomposition,
    spec: ProblemSpec,
    note: Callable[[str], None],
    tag: str,
    tol: float,
) -> Optional[CpDecomposition]:
    """Polish and sparsify candidate factors of X; None unless both gates pass.

    `tol` is the factor residual allowed, relative to 1 + ||X||.  Sparsify
    runs even when the polished candidate misses that budget: its re-polish
    from fewer rows is part of the search for a certificate, and some
    matrices are certified only that way.  The event says when the atom
    count is the fewest that can fit X at all (`row_floor`).
    """
    dec = polish_decomposition(X, dec)
    budget = tol * (1.0 + float(np.linalg.norm(X)))
    dec = sparsify_decomposition(X, dec, budget)
    resid = verify_decomposition(X, dec)
    if resid > budget:
        note(f"{tag}: factor residual {resid:.3e} exceeds {budget:.3e}")
        return None
    bad = _constraints_hold(spec, X)
    if bad is not None:
        note(f"{tag}: {bad}")
        return None
    minimum = " (the Eckart-Young minimum)" if dec.rank == row_floor(X, budget) else ""
    note(f"{tag}: certified with {dec.rank} atoms{minimum}, factor residual {resid:.3e}")
    return dec


def _scan_truncations(
    rsol: RelaxationSolution,
    spec: ProblemSpec,
    st: DriverSettings,
    note: Callable[[str], None],
    k: int,
) -> Optional[tuple[CpDecomposition, int]]:
    """Look for a flat truncation whose atoms rebuild X; None if none does."""
    tms, X = rsol.tms, rsol.matrix.values
    for t in range(1, tms.k + 1):
        report = check_flat(tms, t, rank_tol=RANK_TOL, feas_tol=FEAS_TOL)
        if not report.is_flat:
            continue
        note(
            f"order {k}: flat at truncation {t} "
            f"(rank {report.rank_lo} = {report.rank_hi})"
        )
        try:
            measure = extract_atoms(
                tms,
                t,
                tols=EXTRACTION_TOLS,
                seed=st.extraction_seed,
                rank_tol=RANK_TOL,
            )
        except ExtractionError as exc:
            note(f"order {k}, truncation {t}: extraction failed ({exc})")
            continue
        tag = f"order {k}, truncation {t}"
        dec = _certify(X, cp_decomposition(measure), spec, note, tag, RECON_TOL)
        if dec is not None:
            return dec, t
    return None


def _factorize(
    X: np.ndarray,
    csol: ConicSolution,
    spec: ProblemSpec,
    st: DriverSettings,
    note: Callable[[str], None],
    k: int,
) -> Optional[CpDecomposition]:
    """Fit nonnegative factors to X directly, from a seeded random start.

    The start has n(n+1)/2 rows, more than the cp-rank of any completely
    positive matrix of order n (Barioli & Berman, 2003), and is scaled so
    that its reconstruction has the trace of X.  The fit must reach
    FACTOR_TOL, or ten times the worst residual of the solve when that is
    larger: a stalled iterate is only that accurate, so a tighter fit would
    hold X to more than the solve could deliver.
    """
    level = max(csol.residuals.get(key, 0.0) for key in ("primal_feas", "dual_feas", "rel_gap"))
    tol = max(FACTOR_TOL, 10.0 * level)
    n = X.shape[0]
    F = np.random.default_rng(st.extraction_seed).uniform(size=(n * (n + 1) // 2, n))
    F = trace_scaled(F, X)
    tag = f"order {k} (factorization)"
    return _certify(X, CpDecomposition.from_factors(F), spec, note, tag, tol)


def approximate(
    spec: ProblemSpec | np.ndarray, settings: DriverSettings | None = None
) -> Outcome:
    """Project onto the constrained completely positive set; see module doc."""
    if not isinstance(spec, ProblemSpec):
        spec = ProblemSpec(np.asarray(spec, dtype=float))
    st = settings or DriverSettings()
    events: list[str] = []

    def note(msg: str) -> None:
        events.append(msg)
        logger.info(msg)

    gamma_lower: Optional[float] = None
    last_rsol: Optional[RelaxationSolution] = None
    bounds: list[tuple[int, float]] = []
    k = K_START
    for k in range(K_START, st.k_max + 1):
        prog, csol = solve_relaxation(spec, k, st.solver)
        note(f"order {k}: solver finished {csol.status} after {csol.iterations} iterations")
        if csol.status == "primal_infeasible":
            # solve() only reports this after verifying the Farkas pair
            return Infeasible(k_used=k, certificate=csol, events=tuple(events))
        near_optimal = True
        if csol.status != "optimal":
            near_optimal = _usable_solution(csol, st.solver)
            if not near_optimal and not _usable_solution(csol, st.solver, STALL_SLACK):
                if not bounds:
                    raise SolverFailure(
                        f"relaxation order {k} ended with status {csol.status!r} "
                        f"(residuals {csol.residuals})",
                        csol,
                    )
                # orders already solved still bound the distance; report those
                # instead of discarding them over a breakdown higher up
                note(
                    f"order {k}: solver stalled with status {csol.status!r}; "
                    "stopping the hierarchy"
                )
                break
            note(
                f"order {k}: accepting a reduced-accuracy iterate "
                f"(rel_gap {csol.residuals.get('rel_gap', float('nan')):.3e})"
            )
        rsol = map_solution(prog, csol)
        last_rsol = rsol
        if near_optimal:
            gamma_lower = (
                rsol.gamma if gamma_lower is None else max(gamma_lower, rsol.gamma)
            )
            bounds.append((k, rsol.gamma))
            note(f"order {k}: distance bound {rsol.gamma:.10g}")
        else:
            # a stalled iterate still makes a certification candidate, but its
            # objective is not trusted as a distance bound
            note(f"order {k}: distance estimate {rsol.gamma:.10g} at reduced accuracy")

        X = rsol.matrix.values
        hit = _scan_truncations(rsol, spec, st, note, k)
        dec, t = hit if hit is not None else (_factorize(X, csol, spec, st, note, k), None)
        if dec is not None:
            return Projected(
                matrix=X,
                gamma=rsol.gamma,
                decomposition=dec,
                k_used=k,
                t_used=t,
                relaxation=rsol,
                events=tuple(events),
                bounds=tuple(bounds),
            )
        note(f"order {k}: neither a flat truncation nor the direct factorization certified")

    return Inconclusive(
        gamma_lower=gamma_lower,
        k_last=k,
        relaxation=last_rsol,
        events=tuple(events),
        bounds=tuple(bounds),
    )


@dataclass(frozen=True, eq=False)
class MembershipResult:
    """Outcome of the completely-positive membership test.

    `is_cp` is True or False when the algorithm decided, None when the
    relaxation hierarchy was exhausted without a certificate either way.
    """

    is_cp: Optional[bool]
    distance: Optional[float]
    decomposition: Optional[CpDecomposition]
    outcome: Outcome


def check_cp_membership(
    C: np.ndarray,
    norm: str = "fro",
    settings: DriverSettings | None = None,
) -> MembershipResult:
    """Decide membership of C in the completely positive cone.

    Projects C (no constraints, Frobenius norm unless overridden) onto the
    cone: distance zero means C is completely positive and the extracted
    factors decompose C itself; a positive certified distance, or a positive
    lower bound from an exhausted hierarchy, rules membership out.  Any norm
    answers the yes/no question; the default is the numerically gentlest.
    """
    C = np.asarray(C, dtype=float)
    outcome = approximate(ProblemSpec(C, norm=norm), settings)
    scale = max(1.0, float(np.linalg.norm(C)))
    if isinstance(outcome, Projected):
        if outcome.gamma <= MEMBERSHIP_TOL * scale:
            # the factors decompose the projection; hand them out as a
            # certificate for C itself only when the two actually coincide
            dec = outcome.decomposition
            if float(np.linalg.norm(outcome.matrix - C)) > MEMBERSHIP_TOL * scale:
                dec = None
            return MembershipResult(True, outcome.gamma, dec, outcome)
        return MembershipResult(False, outcome.gamma, None, outcome)
    if isinstance(outcome, Inconclusive):
        if outcome.gamma_lower is not None and outcome.gamma_lower > MEMBERSHIP_TOL * scale:
            # the relaxation bound already separates C from the cone
            return MembershipResult(False, outcome.gamma_lower, None, outcome)
        return MembershipResult(None, outcome.gamma_lower, None, outcome)
    raise SolverFailure("membership probe hit an infeasible relaxation")
