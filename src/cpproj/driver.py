"""End-to-end projection driver.

Solves the relaxations of `cpproj.relaxation` for k = 1, 2, ..., k_max.
Order 1 is the doubly nonnegative (DNN) relaxation, and order k >= 2 is the
dual of Parrilo's cone K^(k - 1), which lies inside the order below it.  CP
lies inside every order (and equals DNN for n <= 4), so each order either
gives a lower bound on the distance, no lower than the one before it, or,
for incompatible constraints, a verified Farkas certificate that ends the
run.
Every order's optimal matrix goes through one certification: the driver
fits nonnegative factors to the matrix directly and accepts them only if
their residual is within FACTOR_TOL and the matrix meets the constraints.
Each fit is one loop over a table of starts (`_fit`), each with its own
polish stages, from the rotated Eckart-Young factor to whole starts, that
stops at the first fit within the budget.  A candidate matrix whose
provable distance from the CP cone (`cp_distance_floor`) already exceeds
the residual budget skips the fit altogether.

Three outcomes are possible:

  Projected     a certified projection: matrix, distance, CP decomposition
  Infeasible    the constraint set excludes every completely positive matrix
                (a verified Farkas certificate is attached)
  Inconclusive  no order up to k_max produced a certified factorization; the
                best relaxation bound is still a valid lower bound on the
                distance

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
    clique_start,
    cp_distance_floor,
    edge_start,
    floor_factor,
    polish_decomposition,
    root_start,
    rotate_toward,
    row_floor,
    verify_decomposition,
)
from .relaxation import ProblemSpec, RelaxationSolution, map_solution, order_name, solve_relaxation

__all__ = [
    "DriverSettings", "Projected", "Infeasible", "Inconclusive", "SolverFailure",
    "MembershipResult", "approximate", "check_cp_membership",
]

logger = logging.getLogger(__name__)


class SolverFailure(RuntimeError):
    """The conic solve broke down before the algorithm could decide."""


K_MIN = 2  # the smallest k_max: the hierarchy reaches at least one order past DNN
CONSTRAINT_TOL = 1e-6  # constraint violation, relative to 1 + |b|
# the factorization is the whole proof that X is completely positive, so its
# fit is held to ten times the default solver tolerance, or to ten times the
# solve's worst residual when that is larger, but never to more than ten
# times FACTOR_TOL, whatever tolerance the solve ran at (`_factor_budget`)
FACTOR_TOL = 1e-6
MEMBERSHIP_TOL = 1e-5  # distance below which C itself counts as CP


@dataclass(frozen=True)
class DriverSettings:
    k_max: int = 4
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self) -> None:
        if self.k_max < K_MIN:
            raise ValueError(f"k_max must be at least {K_MIN}")


@dataclass(frozen=True, eq=False)
class Projected:
    """Certified projection with its completely positive decomposition.

    `k_used` is the relaxation order that certified, 1 for the DNN
    relaxation, and `relaxation` is that order's solution.  `bounds` lists
    an (order, distance bound) pair per order solved, `k_used` the last.  The
    projection and its distance are the relaxation's `matrix` and `gamma`.
    """

    decomposition: CpDecomposition
    k_used: int
    relaxation: RelaxationSolution
    events: tuple[str, ...]
    bounds: tuple[tuple[int, float], ...] = ()

    status = "projected"

    @property
    def matrix(self) -> np.ndarray:
        return self.relaxation.matrix

    @property
    def gamma(self) -> float:
        return self.relaxation.gamma


@dataclass(frozen=True, eq=False)
class Infeasible:
    """No completely positive matrix satisfies the constraints."""

    k_used: int
    certificate: ConicSolution
    events: tuple[str, ...]

    status = "infeasible"


@dataclass(frozen=True, eq=False)
class Inconclusive:
    """No certificate up to k_max; gamma_lower still bounds the distance, and
    `relaxation` is the solution of order `k_last`, the last one solved."""

    k_last: int
    relaxation: RelaxationSolution
    events: tuple[str, ...]
    bounds: tuple[tuple[int, float], ...] = ()

    status = "inconclusive"

    @property
    def gamma_lower(self) -> Optional[float]:
        """The largest of the distance bounds, None when no order gave one."""
        return max((gamma for _, gamma in self.bounds), default=None)


Outcome = Union[Projected, Infeasible, Inconclusive]


def _residual_level(csol: ConicSolution) -> float:
    """The solve's worst residual: primal, dual or relative gap (NaN if any is)."""
    return float(np.max([csol.residuals[key] for key in ("primal_feas", "dual_feas", "rel_gap")]))


def _usable_solution(csol, solver: SolverSettings) -> bool:
    """Whether the solve gives both a distance bound and a certification
    candidate: it is optimal, or it stalled at a residual level within ten
    times the tolerance.

    The relaxations are degenerate enough that the interior-point engine
    can stall a small factor short of the request (typically on instances
    whose optimum touches the cone boundary everywhere).  Such an iterate
    still bounds the distance, and its factors are held to a budget ten
    times its residual level (`_factor_budget`).  A solve that stalls
    further out proves nothing, so it is neither a bound nor a candidate.
    """
    if csol.status == "optimal":
        return True
    if csol.status != "iteration_limit" or csol.primal is None:
        return False
    return _residual_level(csol) <= 10.0 * solver.tol


def _constraints_hold(spec: ProblemSpec, X: np.ndarray) -> Optional[str]:
    for i, (con, err) in enumerate(zip(spec.constraints, spec.violations(X))):
        if err > CONSTRAINT_TOL * (1.0 + abs(con.rhs)):
            return f"constraint {i} off by {err:.3e}"
    return None


def _factor_budget(X: np.ndarray, csol: ConicSolution) -> float:
    """The residual up to which factors of X certify it, relative to
    1 + ||X||: FACTOR_TOL, or ten times the solve's worst residual when that
    is larger, capped at 10 FACTOR_TOL.  The cap is the widest budget a
    usable solve at the default tolerance gets (a stall within ten times
    it), so a looser tolerance loosens the solve but not the certificate."""
    level = min(max(FACTOR_TOL, 10.0 * _residual_level(csol)), 10.0 * FACTOR_TOL)
    return level * (1.0 + float(np.linalg.norm(X)))


def _factorize(
    X: np.ndarray,
    csol: ConicSolution,
    spec: ProblemSpec,
    note: Callable[[str], None],
    tag: str,
) -> Optional[CpDecomposition]:
    """Fit nonnegative factors to X directly; None unless every gate passes.

    X must first meet the constraints; that check reads X alone, so a miss
    there costs no fit.  The fit must then reach `_factor_budget`: a stalled
    iterate is only as accurate as its residuals, so a tighter fit would
    hold X to more than the solve could deliver.  When `cp_distance_floor`
    proves that no nonnegative factorization can come within that budget,
    no fit is tried and the event names the gate.  Otherwise `_fit` runs its
    table of starts from the `row_floor` count and writes the certificate's
    event.  The gate, the floor and the fit share one `eigh(X)`.
    """
    tag = f"{tag} (factorization)"
    bad = _constraints_hold(spec, X)
    if bad is not None:
        note(f"{tag}: {bad}")
        return None
    budget = _factor_budget(X, csol)
    lam, V = np.linalg.eigh(X)
    floor, gate = cp_distance_floor(X, lam)
    if floor > budget:
        note(
            f"{tag}: {gate} floor {floor:.3e} exceeds the factor budget {budget:.3e} "
            f"({floor / budget:.3g} times); polish skipped"
        )
        return None
    # every row adds its squared norm to the trace of F^T F, so a matrix
    # without a positive trace gets the empty factorization as its floor
    least = row_floor(lam, budget) if lam.sum() > 0.0 else 0
    return _fit(X, lam, V, least, budget, note, tag)


def _fit(
    X: np.ndarray,
    lam: np.ndarray,
    V: np.ndarray,
    least: int,
    budget: float,
    note: Callable[[str], None],
    tag: str,
) -> Optional[CpDecomposition]:
    """Fit nonnegative factors to X = V diag(lam) V^T by one loop over a
    table of starts, each row a name, its factor rows and its polish stages
    (`polish_decomposition`); the first factors within the budget, or None.

    First the Eckart-Young factor B at `least` rows (`floor_factor`): every
    exact factorization of B^T B with that many rows is Q B for an
    orthogonal Q (Groetzner & Duer), so B is rotated toward the heaviest
    rows of the clipped square root (`root_start`, `rotate_toward`) and
    clipped at zero.  Such a start is near a fit, and the bound stage alone
    finishes it.  Then whole starts, which the interior stage takes out of
    the local minima that projected steps fall into before the bound stage
    finishes them: `clique_start`, the clipped square root's n rows, and
    `edge_start`, whose up to n(n+1)/2 rows leave room for a cp-rank above n.

    Every start, built once the one before has missed, takes the same steps:
    it is skipped below `least` rows (by Eckart-Young it cannot fit), else
    accepted as built, else polished and accepted if it fits.  Each leaves
    one event under `tag`: the skip, the miss, or the certificate, which
    names the start, its polish, its residual against the budget and
    whether its atom count is the floor.
    """
    root = root_start(lam, V)
    whole = ("interior", "bound")
    for name, build, stages in (
        ("rotated square-root",
         lambda: np.maximum(rotate_toward(floor_factor(lam, V, least), root), 0.0), ("bound",)),
        ("clique", lambda: clique_start(X, budget), whole),
        ("square-root", lambda: root, whole),
        ("edge", lambda: edge_start(X, budget), whole),
    ):
        dec = CpDecomposition.from_factors(build())
        start = f"the {name} start"
        if dec.rank < least:
            note(f"{tag}: {start}'s row count {dec.rank} is below the floor of {least}; skipped")
            continue
        resid, how = verify_decomposition(X, dec), "no polish"
        if resid > budget:
            how = f"{' and '.join(stages)} polish from {resid:.3e}"
            dec = polish_decomposition(X, dec, stages)
            resid = verify_decomposition(X, dec)
        against = f"factor residual {resid:.3e} against {budget:.3e}"
        if resid <= budget:
            minimum = " (the Eckart-Young minimum)" if dec.rank == least else ""
            note(
                f"{tag}: certified from {start} ({how}) with {dec.rank} atoms{minimum}, {against}"
            )
            return dec
        note(f"{tag}: {start} misses ({how}) with {against}")
    return None


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

    k_last, last_rsol = 0, None
    bounds: list[tuple[int, float]] = []

    for k in range(1, st.k_max + 1):
        tag = order_name(k)
        prog, csol = solve_relaxation(spec, k, st.solver)
        note(f"{tag}: solver finished {csol.status} after {csol.iterations} iterations")
        if csol.status == "primal_infeasible":
            # solve() only reports this after verifying the Farkas pair, and
            # CP lies inside every order, so the pair rules out CP as well
            return Infeasible(k_used=k, certificate=csol, events=tuple(events))
        if not _usable_solution(csol, st.solver):
            if not bounds:
                raise SolverFailure(
                    f"relaxation order {k} ended with status {csol.status!r} "
                    f"(residuals {csol.residuals})"
                )
            # orders already solved still bound the distance; report those
            # instead of discarding them over a breakdown higher up
            note(f"{tag}: solver stalled with status {csol.status!r}; stopping the hierarchy")
            break
        if csol.status != "optimal":
            note(
                f"{tag}: accepting a reduced-accuracy iterate "
                f"(rel_gap {csol.residuals.get('rel_gap', float('nan')):.3e})"
            )
        rsol = map_solution(prog, csol)
        k_last, last_rsol = k, rsol
        bounds.append((k, rsol.gamma))
        note(f"{tag}: distance bound {rsol.gamma:.10g}")

        dec = _factorize(rsol.matrix, csol, spec, note, tag)
        if dec is not None:
            return Projected(
                decomposition=dec,
                k_used=k,
                relaxation=rsol,
                events=tuple(events),
                bounds=tuple(bounds),
            )
        note(f"{tag}: not certified")

    return Inconclusive(
        k_last=k_last,
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
    C: np.ndarray, settings: DriverSettings | None = None
) -> MembershipResult:
    """Decide membership of C in the completely positive cone.

    Projects C (no constraints, Frobenius norm) onto the cone: distance zero
    means C is completely positive and the certified factors decompose C
    itself; a positive certified distance, or a positive lower bound from an
    exhausted hierarchy, rules membership out.  Any norm would answer the
    yes/no question; the Frobenius norm is the numerically gentlest.
    """
    C = np.asarray(C, dtype=float)
    outcome = approximate(ProblemSpec(C), settings)
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
