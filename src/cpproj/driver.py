"""End-to-end projection driver.

Solves the order-k relaxation for increasing k, watches the moment matrix of
the solution for a flat truncation, and certifies the projection by
extracting an atomic measure and rebuilding the matrix from its CP factors.
The relaxation fixes the optimal matrix but not the moment vector behind it,
and the path-following solver returns the analytic center of the optimal
face, which is flat only when that face is a point.  Whenever the first scan
certifies nothing, the driver re-solves for an extreme moment vector with the
same degree-2 slice (a random positive definite objective pinned to the
optimal matrix) and scans again before moving to the next order.

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

from .conic import ConicSolution, SolverSettings, solve as conic_solve
from .extraction import (
    CpDecomposition,
    ExtractionError,
    ExtractionTols,
    cp_decomposition,
    extract_atoms,
    polish_decomposition,
    sparsify_decomposition,
    verify_decomposition,
)
from .moments import check_flat
from .polybasis import Tms
from .relaxation import (
    ProblemSpec,
    RelaxationSolution,
    assemble_witness,
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
# the extreme-point re-solve pins the degree-2 slice only to within
# WITNESS_SLACK * (1 + ||X||_F); zero would make the witness program lose its
# interior whenever X carries solver-level error
WITNESS_SLACK = 1e-6
WITNESS_ATTEMPTS = 3  # seeds tried before giving up on refinement
# residual multiplier (on top of the solver tolerances) up to which a stalled
# iterate is still offered to the certification scan; its objective is never
# recorded as a distance bound in that band
STALL_SLACK = 100.0
CONSTRAINT_TOL = 1e-6  # constraint violation, relative to 1 + |b|
RECON_TOL = 1e-4  # relative factor-reconstruction residual
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
    """Certified projection with its completely positive decomposition."""

    matrix: np.ndarray
    gamma: float
    decomposition: CpDecomposition
    k_used: int
    t_used: int
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


def _scan_truncations(
    tms: Tms,
    X: np.ndarray,
    spec: ProblemSpec,
    st: DriverSettings,
    note: Callable[[str], None],
    tag: str,
) -> Optional[tuple[CpDecomposition, int]]:
    """Look for a flat truncation of tms whose atoms rebuild X; None if none."""
    for t in range(1, tms.k + 1):
        report = check_flat(tms, t, rank_tol=RANK_TOL, feas_tol=FEAS_TOL)
        if not report.is_flat:
            continue
        note(
            f"{tag}: flat at truncation {t} "
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
            note(f"{tag}, truncation {t}: extraction failed ({exc})")
            continue
        dec = polish_decomposition(X, cp_decomposition(measure))
        scale = 1.0 + float(np.linalg.norm(X))
        dec = sparsify_decomposition(X, dec, RECON_TOL * scale)
        resid = verify_decomposition(X, dec)
        if resid > RECON_TOL * scale:
            note(
                f"{tag}, truncation {t}: factor residual {resid:.3e} "
                f"exceeds {RECON_TOL * scale:.3e}"
            )
            continue
        bad = _constraints_hold(spec, X)
        if bad is not None:
            note(f"{tag}, truncation {t}: {bad}")
            continue
        note(
            f"{tag}, truncation {t}: certified with {dec.rank} atoms, "
            f"factor residual {resid:.3e}"
        )
        return dec, t
    return None


def _refine_and_scan(
    X: np.ndarray,
    k: int,
    spec: ProblemSpec,
    st: DriverSettings,
    note: Callable[[str], None],
    slack_scale: float | None = None,
) -> Optional[tuple[CpDecomposition, int]]:
    """Re-solve for an extreme moment vector near X, then rescan.

    Any breakdown here is reported as an event and swallowed: the refined
    solve is a second chance at certification, not a correctness gate.  The
    random objective occasionally lands on a functional whose minimizer is
    not flat at this order, so a few seeds are tried before giving up.  The
    witness iterate only ever feeds the scan, whose own verification gates
    decide, so stalled witness solves are acceptable at a generous band.
    """
    if slack_scale is None:
        slack_scale = WITNESS_SLACK
    slack = slack_scale * (1.0 + float(np.linalg.norm(X)))
    for attempt in range(WITNESS_ATTEMPTS):
        seed = st.extraction_seed + attempt
        note(f"order {k}: re-solving for an extreme moment vector (seed {seed})")
        wprog = assemble_witness(X, k, seed=seed, slack=slack)
        wsol = conic_solve(wprog, st.solver)
        if not _usable_solution(wsol, st.solver, 10.0 * STALL_SLACK):
            note(f"order {k}: extreme-point solve ended {wsol.status}; skipping")
            continue
        s = wsol.primal[wprog.layout["tms"]]
        wtms = Tms(int(wprog.info["n"]), k, s.copy())
        hit = _scan_truncations(wtms, X, spec, st, note, f"order {k} (refined)")
        if hit is not None:
            return hit
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
        wslack = WITNESS_SLACK
        if not near_optimal:
            far = float("inf")
            level = max(
                csol.residuals.get("primal_feas", far),
                csol.residuals.get("dual_feas", far),
                csol.residuals.get("rel_gap", far),
            )
            # the iterate sits about this far from the cone section, so the
            # witness ball has to be at least that wide to contain a measure
            wslack = max(wslack, 10.0 * level)
        hit = _scan_truncations(rsol.tms, X, spec, st, note, f"order {k}")
        if hit is None:
            hit = _refine_and_scan(X, k, spec, st, note, wslack)
        if hit is not None:
            dec, t = hit
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
        note(f"order {k}: no flat truncation certified a measure")

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
