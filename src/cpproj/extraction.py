"""Atom extraction from flat moment sequences and CP factor recovery.

When the moment matrix of a sequence stops gaining rank between consecutive
truncation orders, the sequence is (numerically) the moment vector of a
measure supported on finitely many points.  The support is recovered through
the classical multiplication-operator construction: a column echelon basis of
the moment matrix turns each coordinate function into an r x r operator, and
the joint eigenvalues of those commuting operators are the atom coordinates.
A real Schur basis of a random convex combination of the operators
simultaneously (quasi-)triangularizes them, which is where the joint
eigenvalues are read off.

Atoms are then cleaned (tiny negative coordinates clamped, unit-sphere
deviation renormalized), weights refit by nonnegative least squares on the
full truncated sequence, and the fit residual checked.  Failures raise
ExtractionError so callers can move on to the next truncation or relaxation
order instead of consuming wrong atoms.
"""
from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
import scipy.linalg as sla
from scipy.optimize import least_squares, nnls

from .moments import moment_matrix
from .polybasis import SymMatrix, Tms, monomials_up_to

__all__ = [
    "ExtractionTols",
    "ExtractionError",
    "AtomicMeasure",
    "CpDecomposition",
    "extract_atoms",
    "cp_decomposition",
    "cp_distance_floor",
    "polish_decomposition",
    "row_floor",
    "sparsify_decomposition",
    "trace_scaled",
    "verify_decomposition",
]

logger = logging.getLogger(__name__)

STALL_ITERS = 50  # a polish stops once its cost has not halved over this many iterations


class ExtractionError(RuntimeError):
    """The sequence did not yield a clean atomic measure at this order."""


@dataclass(frozen=True)
class ExtractionTols:
    entry_tol: float = 1e-6  # most negative atom coordinate that gets clamped
    sphere_tol: float = 1e-6  # largest tolerated deviation from unit length
    weight_tol: float = 1e-8  # weights at or below this are dropped
    fit_tol: float = 1e-6  # relative moment-fit residual bound


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """Finitely supported measure: `atoms` has one point per row."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim != 2:
            raise ValueError("atoms must be a 2-d array (one point per row)")
        weights = np.asarray(self.weights, dtype=float).ravel()
        if atoms.shape[0] != weights.size:
            raise ValueError("atom and weight counts differ")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.weights.size


@dataclass(frozen=True, eq=False)
class CpDecomposition:
    """X = sum of outer products of the (entrywise nonnegative) factor rows."""

    atoms: np.ndarray
    weights: np.ndarray
    factors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.factors.T @ self.factors

    @property
    def rank(self) -> int:
        return self.factors.shape[0]

    @classmethod
    def from_factors(cls, F: np.ndarray) -> "CpDecomposition":
        """Split nonnegative factor rows into unit atoms and weights.

        Rows whose mass has collapsed are dropped, and the rest are sorted
        lexicographically by atom, so the result does not depend on the row
        order of F.
        """
        norms = np.linalg.norm(F, axis=1)
        keep = norms > 1e-12
        F, norms = F[keep], norms[keep]
        atoms = F / norms[:, None]
        order = np.lexsort(atoms.T[::-1])
        return cls(atoms[order], (norms**2)[order], F[order])


def _echelon_pivots(VT: np.ndarray, tol: float) -> tuple[list[int], np.ndarray]:
    """Column echelon form by Gauss-Jordan with row partial pivoting.

    Scans columns left to right (graded-lex, so low degrees are preferred as
    pivots) and returns the pivot column indices together with the reduced
    matrix U, which satisfies U[:, pivots] == identity.
    """
    U = VT.copy()
    r, cols = U.shape
    pivots: list[int] = []
    row = 0
    for col in range(cols):
        if row == r:
            break
        piv = row + int(np.argmax(np.abs(U[row:, col])))
        if abs(U[piv, col]) <= tol:
            continue
        if piv != row:
            U[[row, piv]] = U[[piv, row]]
        U[row] /= U[row, col]
        others = [i for i in range(r) if i != row]
        U[others] -= np.outer(U[others, col], U[row])
        pivots.append(col)
        row += 1
    return pivots, U


def _read_joint_eigenvalues(ops, seed):
    """Atoms as joint diagonal values of the commuting operators."""
    r = ops[0].shape[0]
    n = len(ops)
    for attempt_seed in (seed, seed + 101):
        rng = np.random.default_rng(attempt_seed)
        coeff = rng.uniform(0.1, 1.0, size=n)
        coeff /= coeff.sum()
        mix = sum(c * op for c, op in zip(coeff, ops))
        T, Q = sla.schur(mix, output="real")
        sub = np.abs(np.diag(T, -1)).max(initial=0.0)
        if sub > 1e-7 * (1.0 + np.abs(T).max(initial=0.0)):
            logger.debug("schur basis has 2x2 blocks (subdiag %.2e), retrying", sub)
            continue
        pts = np.empty((r, n))
        for j, op in enumerate(ops):
            M = Q.T @ op @ Q
            pts[:, j] = np.diag(M)
        return pts
    raise ExtractionError("could not split the joint spectrum into real points")


def extract_atoms(
    s: Tms,
    t: int,
    tols: ExtractionTols | None = None,
    seed: int = 0,
    rank_tol: float = 1e-6,
) -> AtomicMeasure:
    """Recover an atomic measure from the order-t moment matrix of s.

    Assumes the truncation at t is flat (callers typically gate on
    `cpproj.moments.check_flat`); raises ExtractionError when the numerical
    construction does not go through cleanly.
    """
    tols = tols or ExtractionTols()
    if t < 1 or t > s.k:
        raise ValueError(f"truncation order must lie in 1..{s.k}")
    n = s.n
    strunc = s.truncate(t).s
    M = moment_matrix(s, t)
    w, P = np.linalg.eigh(M)
    w, P = w[::-1], P[:, ::-1]
    wmax = w[0] if w.size else 0.0
    if wmax <= rank_tol * (1.0 + float(np.abs(strunc).max(initial=0.0))):
        return AtomicMeasure(np.zeros((0, n)), np.zeros(0))
    r = int(np.sum(w > rank_tol * wmax))
    V = P[:, :r] * np.sqrt(w[:r])[None, :]

    pivots, U = _echelon_pivots(V.T, tol=1e-10 * max(1.0, float(np.abs(V).max())))
    if len(pivots) != r:
        raise ExtractionError(f"echelon rank {len(pivots)} disagrees with {r}")

    basis = monomials_up_to(n, t)
    exps = basis.exponents
    ops = []
    for j in range(n):
        Nj = np.empty((r, r))
        for i, p in enumerate(pivots):
            shifted = tuple(exps[p] + (np.arange(n) == j))
            try:
                col = basis.position(shifted)
            except ValueError:
                raise ExtractionError(
                    "a pivot monomial leaves the basis when multiplied"
                ) from None
            Nj[i, :] = U[:, col]
        ops.append(Nj)

    pts = _read_joint_eigenvalues(ops, seed)

    # clean: clamp slightly negative coordinates, renormalize to the sphere
    low = float(pts.min(initial=0.0))
    if low < -tols.entry_tol:
        raise ExtractionError(f"atom coordinate {low:.3e} is negative")
    pts = np.clip(pts, 0.0, None)
    norms = np.linalg.norm(pts, axis=1)
    if np.abs(norms - 1.0).max(initial=0.0) > tols.sphere_tol:
        worst = float(np.abs(norms - 1.0).max())
        raise ExtractionError(f"atom leaves the unit sphere by {worst:.3e}")
    pts /= norms[:, None]

    # weights by nonnegative least squares over the whole truncated sequence
    strunc = s.truncate(t).s
    table = monomials_up_to(n, 2 * t).exponents
    A = np.prod(pts[:, None, :] ** table[None, :, :], axis=2).T
    weights, _ = nnls(A, strunc)
    resid = np.abs(A @ weights - strunc).max(initial=0.0)
    scale = 1.0 + np.abs(strunc).max(initial=0.0)
    if resid > tols.fit_tol * scale:
        raise ExtractionError(f"moment fit residual {resid:.3e} is too large")

    keep = weights > tols.weight_tol
    pts, weights = pts[keep], weights[keep]
    order = np.lexsort(pts.T[::-1])
    return AtomicMeasure(pts[order], weights[order])


def cp_decomposition(measure: AtomicMeasure) -> CpDecomposition:
    """Turn an atomic measure on the nonnegative sphere into CP factors."""
    factors = np.sqrt(measure.weights)[:, None] * measure.atoms
    return CpDecomposition(measure.atoms, measure.weights, factors)


def polish_decomposition(
    X: np.ndarray | SymMatrix, dec: CpDecomposition
) -> CpDecomposition:
    """Locally refine the factors so their outer-product sum matches X.

    Atom coordinates read from the eigenstructure carry noise that the outer
    products square up; a few bound-constrained Gauss-Newton steps on the
    factor matrix recover several digits at negligible cost.  The factor
    count never grows, entries stay nonnegative by the bound constraint, and
    rows whose mass collapses are dropped.  A fit whose cost has not halved
    over the last STALL_ITERS iterations stops where it is: on boundary
    matrices the bounded steps can crawl for thousands of evaluations
    without reaching the gate.  Any factor set this returns is validated by
    the caller through `verify_decomposition`, so a polish that stalls in a
    poor local minimum is caught there rather than here.
    """
    Xv = X.values if isinstance(X, SymMatrix) else np.asarray(X, dtype=float)
    if dec.factors.size == 0:
        return dec
    r, n = dec.factors.shape
    iu = np.triu_indices(n)
    wgt = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
    target = Xv[iu] * wgt
    rows = np.arange(iu[0].size)

    def resid(z: np.ndarray) -> np.ndarray:
        F = z.reshape(r, n)
        return (F.T @ F)[iu] * wgt - target

    def jac(z: np.ndarray) -> np.ndarray:
        # d(F^T F)_ab / dF_ic = delta_ca F_ib + delta_cb F_ia
        F = z.reshape(r, n)
        J = np.zeros((rows.size, r, n))
        J[rows, :, iu[0]] += wgt[:, None] * F[:, iu[1]].T
        J[rows, :, iu[1]] += wgt[:, None] * F[:, iu[0]].T
        return J.reshape(rows.size, r * n)

    costs: list[float] = []

    def stall_stop(intermediate_result) -> None:
        costs.append(intermediate_result.cost)
        if len(costs) > STALL_ITERS and costs[-1] > 0.5 * costs[-1 - STALL_ITERS]:
            raise StopIteration

    start = np.clip(dec.factors.ravel(), 0.0, None)
    try:
        fit = least_squares(
            resid, start, jac=jac, bounds=(0.0, np.inf), method="trf", xtol=1e-14,
            ftol=1e-14, callback=stall_stop,
        )
    except np.linalg.LinAlgError as exc:
        # a failed fit is reported as the unrefined start, which the
        # caller's residual gate then judges like any other candidate
        logger.debug("polish failed (%s); keeping the start", exc)
        return CpDecomposition.from_factors(start.reshape(r, n))
    return CpDecomposition.from_factors(fit.x.reshape(r, n))


# the Horn matrix: copositive, yet not a PSD plus a nonnegative matrix, so
# <H, X> >= 0 holds on the CP cone and can fail on DNN matrices of order >= 5
_HORN = np.array([
    [1.0, -1.0, 1.0, 1.0, -1.0],
    [-1.0, 1.0, -1.0, 1.0, 1.0],
    [1.0, -1.0, 1.0, -1.0, 1.0],
    [1.0, 1.0, -1.0, 1.0, -1.0],
    [-1.0, 1.0, 1.0, -1.0, 1.0],
])


@lru_cache(maxsize=None)
def _horn_cuts(n: int) -> np.ndarray:
    """Every distinct relabeling of _HORN on every 5-subset of n indices.

    Returns an array of shape (count, n, n), zero outside each subset: 12
    matrices for n = 5, 72 for n = 6, none below 5.
    """
    perms = {_HORN[np.ix_(p, p)].tobytes(): p for p in itertools.permutations(range(5))}
    cuts = []
    for subset in itertools.combinations(range(n), 5):
        idx = np.array(subset)
        for p in perms.values():
            H = np.zeros((n, n))
            H[np.ix_(idx, idx)] = _HORN[np.ix_(p, p)]
            cuts.append(H)
    cuts = np.array(cuts).reshape(-1, n, n)
    cuts.setflags(write=False)  # cached, so shared by every caller
    return cuts


def cp_distance_floor(X: np.ndarray | SymMatrix) -> tuple[float, str]:
    """A lower bound on ||F^T F - X||_F over all nonnegative F, and its gate.

    Every F^T F is entrywise nonnegative, PSD and has <H, F^T F> >= 0 for
    each copositive H, so it lies at least ||min(X, 0)||_F ("entrywise"),
    ||min(lambda(X), 0)||_2 ("eigenvalue") and -<H, X> / ||H||_F ("Horn")
    away from X.  Returns the largest of these with the name of its gate.
    """
    Xv = X.values if isinstance(X, SymMatrix) else np.asarray(X, dtype=float)
    floors = {
        "entrywise": float(np.linalg.norm(np.minimum(Xv, 0.0))),
        "eigenvalue": float(np.linalg.norm(np.minimum(np.linalg.eigvalsh(Xv), 0.0))),
    }
    cuts = _horn_cuts(Xv.shape[0])
    if cuts.size:
        # every embedded Horn matrix has Frobenius norm 5
        floors["Horn"] = max(0.0, float(-np.einsum("kij,ij->k", cuts, Xv).min()) / 5.0)
    gate = max(floors, key=floors.get)
    return floors[gate], gate


def trace_scaled(F: np.ndarray, X: np.ndarray) -> np.ndarray:
    """F rescaled so that its reconstruction F^T F has the trace of X."""
    return F * (np.sqrt(max(float(np.trace(X)), 0.0)) / np.linalg.norm(F))


def row_floor(X: np.ndarray | SymMatrix, tol: float) -> int:
    """Fewest factor rows (at least 1) whose reconstruction can lie within tol of X.

    By Eckart-Young, any k rows leave a Frobenius residual of at least the
    norm of the n - k eigenvalues of X smallest in absolute value, so fewer
    rows than the smallest k whose tail is at most `tol` cannot pass the gate.
    """
    Xv = X.values if isinstance(X, SymMatrix) else np.asarray(X, dtype=float)
    lam = np.sort(np.abs(np.linalg.eigvalsh(Xv)))
    tails = np.sqrt(np.concatenate(([0.0], np.cumsum(lam**2))))
    dropped = int(np.searchsorted(tails, tol, side="right")) - 1
    return max(1, lam.size - dropped)


def sparsify_decomposition(
    X: np.ndarray | SymMatrix, dec: CpDecomposition, tol: float
) -> CpDecomposition:
    """Drop factors while the rest still reconstructs X within tol.

    The moment vectors behind a factorization often carry more atoms than a
    minimal nonnegative factorization of X needs (duplicated support points,
    mass that other atoms can absorb), and a direct factorization starts
    from n(n+1)/2 rows.  No factorization with fewer rows than
    `row_floor(X, tol)` can pass, so the search first jumps there: one
    polish from the heaviest rows, rescaled to the trace of X.  If that fits,
    its count is the fewest possible (the Eckart-Young minimum).  Otherwise
    the greedy pass runs from the untouched input: each pass tentatively
    removes the lightest factor whose removal survives a re-polish, down to
    the floor, so the result is a locally minimal certificate.  `tol` is the
    absolute Frobenius residual budget; the input is returned unchanged when
    it is already at the floor or when no removal fits.
    """
    Xv = X.values if isinstance(X, SymMatrix) else np.asarray(X, dtype=float)
    least = row_floor(Xv, tol)
    if dec.rank > least:
        heavy = dec.factors[np.argsort(dec.weights)[-least:]]
        jump = polish_decomposition(Xv, CpDecomposition.from_factors(trace_scaled(heavy, Xv)))
        if verify_decomposition(Xv, jump) <= tol:
            return jump
    cur = dec
    shrunk = True
    while shrunk and cur.rank > least:
        shrunk = False
        for idx in np.argsort(cur.weights):
            trial = CpDecomposition(
                np.delete(cur.atoms, idx, axis=0),
                np.delete(cur.weights, idx),
                np.delete(cur.factors, idx, axis=0),
            )
            trial = polish_decomposition(Xv, trial)
            if verify_decomposition(Xv, trial) <= tol:
                cur = trial
                shrunk = True
                break
    return cur


def verify_decomposition(X: np.ndarray | SymMatrix, dec: CpDecomposition) -> float:
    """Frobenius residual of the factorization; rejects negative factors."""
    Xv = X.values if isinstance(X, SymMatrix) else np.asarray(X, dtype=float)
    if dec.factors.size and dec.factors.min() < 0:
        raise ValueError("decomposition has a negative factor entry")
    if dec.factors.size == 0:
        return float(np.linalg.norm(Xv))
    return float(np.linalg.norm(dec.reconstruct() - Xv))
