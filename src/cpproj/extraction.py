"""Nonnegative factorizations of a candidate matrix, and their gates.

A matrix X is certified completely positive by nonnegative factor rows F
with F^T F = X up to a residual budget.  The caller takes the Eckart-Young
factor of X at its `row_floor` count (`floor_factor`), rotates it toward
the heaviest rows of a start (`root_start`, the clipped PSD square root of
X, or seeded rows rescaled by `trace_scaled`) with `rotate_toward`, and
clips it at zero.  Only a rotation that misses is polished by
bound-constrained least squares (`polish_decomposition`), first by its
`dogbox` stage alone; only if that misses too, the whole start, which
`sparsify_decomposition` then thins while the fit holds.
`verify_decomposition` measures the residual that the caller gates on.
`cp_distance_floor` gives a provable lower bound on that residual over all
nonnegative factorizations, so a matrix that no factorization can fit is
rejected without a polish.
"""
from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import least_squares

from .conic import svec_index

__all__ = [
    "CpDecomposition",
    "cp_distance_floor",
    "floor_factor",
    "polish_decomposition",
    "root_start",
    "rotate_toward",
    "row_floor",
    "sparsify_decomposition",
    "trace_scaled",
    "verify_decomposition",
]

logger = logging.getLogger(__name__)

STALL_ITERS = 50  # a polish stage stops once its cost has not halved over this many iterations


@dataclass(frozen=True, eq=False)
class CpDecomposition:
    """X = sum of outer products of the (entrywise nonnegative) factor rows."""

    factors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.factors.T @ self.factors

    @property
    def rank(self) -> int:
        return self.factors.shape[0]

    @property
    def atoms(self) -> np.ndarray:
        return self.factors / np.linalg.norm(self.factors, axis=1)[:, None]

    @property
    def weights(self) -> np.ndarray:
        return np.linalg.norm(self.factors, axis=1) ** 2

    @classmethod
    def from_factors(cls, F: np.ndarray) -> "CpDecomposition":
        """Nonnegative factor rows in canonical order.

        Rows whose mass has collapsed are dropped, and the rest are sorted
        lexicographically by atom, so the result does not depend on the row
        order of F.
        """
        F = F[np.linalg.norm(F, axis=1) > 1e-12]
        return cls(F[np.lexsort(cls(F).atoms.T[::-1])])


def polish_decomposition(
    X: np.ndarray, dec: CpDecomposition, stages: tuple[str, ...] = ("trf", "dogbox")
) -> CpDecomposition:
    """Locally refine the factors so their outer-product sum matches X.

    Bound-constrained least squares on the factor matrix, by default in
    two stages under the same bounds, tolerances and stall stop.  The
    interior trust-region stage (`trf`) does the bulk of the fit but never
    quite reaches the bound, so factor entries that must vanish stall a
    little above zero (on the identity, at a residual of 3e-5).  The dogleg
    stage (`dogbox`), started from its result, steps onto the bound and
    finishes such fits to rounding level; a start already near a fit, such
    as a clipped rotation of the Eckart-Young factor, needs that stage
    alone (`stages=("dogbox",)`).  The factor count never grows, entries stay
    nonnegative by the bound constraint, and rows whose mass collapses are
    dropped.  A stage whose cost has not halved over the last STALL_ITERS
    iterations stops where it is: on boundary matrices the bounded steps can
    crawl for thousands of evaluations without reaching the gate.  Any
    factor set this returns is validated by the caller through
    `verify_decomposition`, so a polish that stalls in a poor local minimum
    is caught there rather than here.
    """
    if dec.factors.size == 0:
        return dec
    r, n = dec.factors.shape
    iu, wgt = svec_index(n)
    target = X[iu] * wgt
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

    z = np.clip(dec.factors.ravel(), 0.0, None)
    for method in stages:
        costs.clear()
        try:
            z = least_squares(
                resid, z, jac=jac, bounds=(0.0, np.inf), method=method, xtol=1e-14,
                ftol=1e-14, callback=stall_stop,
            ).x
        except np.linalg.LinAlgError as exc:
            # a failed fit keeps the last good point, which the caller's
            # residual gate then judges like any other candidate
            logger.debug("%s polish failed (%s); keeping its start", method, exc)
            break
    return CpDecomposition.from_factors(z.reshape(r, n))


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


def cp_distance_floor(X: np.ndarray, lam: np.ndarray) -> tuple[float, str]:
    """A lower bound on ||F^T F - X||_F over all nonnegative F, and its gate.

    Every F^T F is entrywise nonnegative, PSD and has <H, F^T F> >= 0 for
    each copositive H, so it lies at least ||min(X, 0)||_F ("entrywise"),
    ||min(lam, 0)||_2 ("eigenvalue", with lam the eigenvalues of X) and
    -<H, X> / ||H||_F ("Horn") away from X.  Returns the largest of these
    with the name of its gate.
    """
    floors = {
        "entrywise": float(np.linalg.norm(np.minimum(X, 0.0))),
        "eigenvalue": float(np.linalg.norm(np.minimum(lam, 0.0))),
    }
    cuts = _horn_cuts(X.shape[0])
    if cuts.size:
        # every embedded Horn matrix has Frobenius norm 5
        floors["Horn"] = max(0.0, float(-np.einsum("kij,ij->k", cuts, X).min()) / 5.0)
    gate = max(floors, key=floors.get)
    return floors[gate], gate


def root_start(lam: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The PSD square root of X = V diag(lam) V^T, clipped at zero: n factor
    rows near a fit.

    The symmetric root R = V diag(sqrt(max(lam, 0))) V^T satisfies R^T R = X
    for any PSD X, so where R is already nonnegative it is a certificate by
    itself, and elsewhere its clipped part is a start close to the answer
    (Groetzner & Duer's factorization method starts from any such R).
    """
    return np.maximum((V * np.sqrt(np.maximum(lam, 0.0))) @ V.T, 0.0)


def floor_factor(lam: np.ndarray, V: np.ndarray, rows: int) -> np.ndarray:
    """B = sqrt(Lambda_r) V_r^T over the r = `rows` largest eigenpairs of
    X = V diag(lam) V^T (ascending lam, as `eigh` returns them), negative
    eigenvalues read as zero.

    B^T B is the best rank-r approximation of X (Eckart-Young), and every
    exact rank-r factorization of it is Q B for an orthogonal Q.
    """
    keep = slice(lam.size - rows, lam.size)
    return (V[:, keep] * np.sqrt(np.maximum(lam[keep], 0.0))).T


def rotate_toward(B: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Q B for the orthogonal Q that brings B nearest the heaviest rows of F.

    H is the B.shape[0] heaviest rows of F (which must have at least that
    many), and Q = polar(H B^T) minimizes ||Q B - H||_F (orthogonal
    Procrustes).  Q leaves (Q B)^T (Q B) = B^T B, so where Q B is
    nonnegative it is a factorization as exact as B (Groetzner & Duer).
    """
    H = F[np.argsort(np.einsum("ij,ij->i", F, F))[F.shape[0] - B.shape[0]:]]
    U, _, Wt = np.linalg.svd(H @ B.T)
    return (U @ Wt) @ B


def trace_scaled(F: np.ndarray, X: np.ndarray) -> np.ndarray:
    """F rescaled so that its reconstruction F^T F has the trace of X."""
    return F * (np.sqrt(max(float(np.trace(X)), 0.0)) / np.linalg.norm(F))


def row_floor(lam: np.ndarray, tol: float) -> int:
    """Fewest factor rows whose reconstruction can lie within tol of the
    matrix X with eigenvalues lam.

    By Eckart-Young, any k rows leave a Frobenius residual of at least the
    norm of the n - k eigenvalues of X smallest in absolute value, so fewer
    rows than the smallest k whose tail is at most `tol` cannot pass the gate.
    When ||X||_F itself is at most `tol` that is 0: the empty factorization
    fits.
    """
    lam = np.sort(np.abs(lam))
    tails = np.sqrt(np.concatenate(([0.0], np.cumsum(lam**2))))
    dropped = int(np.searchsorted(tails, tol, side="right")) - 1
    return lam.size - dropped


def sparsify_decomposition(
    X: np.ndarray, dec: CpDecomposition, tol: float, least: int
) -> CpDecomposition:
    """Drop factors while the rest still reconstructs X within tol.

    A polished factorization often carries more rows than X needs (the n
    rows of the square root of a rank-deficient X, duplicated directions,
    mass that other rows can absorb).  From a fitting input, each pass
    first tries to drop, with one re-polish, the lightest rows down to the
    midpoint between the current count and `least` (the caller's
    `row_floor`: no fewer rows can pass), and on a miss removes the lightest
    single factor whose removal survives a re-polish.  No trial goes below
    `least` rows, and the result is a locally minimal certificate.  `tol` is
    the absolute Frobenius residual budget; the input is returned unchanged
    when it does not fit, when it is already at the floor, or when no
    removal fits.
    """
    if verify_decomposition(X, dec) > tol:
        return dec
    cur = dec
    shrunk = True
    while shrunk and cur.rank > least:
        order = np.argsort(cur.weights)
        cut = cur.rank - (least + cur.rank) // 2  # down to the midpoint row count
        trials = [order[:cut]] if cut > 1 else []
        trials += [order[i:i + 1] for i in range(cur.rank)]
        shrunk = False
        for drop in trials:
            trial = polish_decomposition(X, CpDecomposition(np.delete(cur.factors, drop, axis=0)))
            if verify_decomposition(X, trial) <= tol:
                cur = trial
                shrunk = True
                break
    return cur


def verify_decomposition(X: np.ndarray, dec: CpDecomposition) -> float:
    """Frobenius residual of the factorization; rejects negative factors."""
    if dec.factors.size and dec.factors.min() < 0:
        raise ValueError("decomposition has a negative factor entry")
    if dec.factors.size == 0:
        return float(np.linalg.norm(X))
    return float(np.linalg.norm(dec.reconstruct() - X))
