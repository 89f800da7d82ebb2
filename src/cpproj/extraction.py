"""Nonnegative factorizations of a candidate matrix, and their gates.

A matrix X is certified completely positive by nonnegative factor rows F
with F^T F = X up to a residual budget.  The caller takes the Eckart-Young
factor of X at its `row_floor` count (`floor_factor`), rotates it toward
the heaviest rows of `root_start`, the clipped PSD square root of X, with
`rotate_toward`, and clips it at zero.  Only a rotation that misses is
polished by bound-constrained least squares (`polish_decomposition`),
first by its `dogbox` stage alone; only if that misses too are whole
starts polished: `clique_start`, one row per maximal clique of the graph of
X, the square root's rows, and `edge_start`, one row per edge of that
graph and per vertex.  `verify_decomposition` measures the residual that
the caller gates on.  `cp_distance_floor` gives a provable lower bound on
that residual over all nonnegative factorizations, from the negative
entries and eigenvalues of X and the Horn cuts, the 12 relabelings of the
Horn matrix read on each 5x5 principal submatrix; so a matrix that no
factorization can fit is rejected without a polish.

scipy.optimize loads on the first polish, not on import: most fits never
polish, and its import is over a third of the package's import time.
"""
from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .conic import svec_index

__all__ = [
    "CpDecomposition",
    "clique_start",
    "cp_distance_floor",
    "edge_start",
    "floor_factor",
    "polish_decomposition",
    "root_start",
    "rotate_toward",
    "row_floor",
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


def least_squares(*args, **kwargs):
    """`scipy.optimize.least_squares`, imported on its first call."""
    from scipy.optimize import least_squares

    return least_squares(*args, **kwargs)


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
    is caught there rather than here.  The first polish of a process loads
    scipy.optimize (`least_squares`).
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
# its 12 distinct relabelings H[p][:, p], each copositive with Frobenius norm 5:
# every rotation and reflection of the cycle 0-1-2-3-4 maps H to itself, so
# the p with p[0] = 0 and p[1] < p[4] give each relabeling once
_HORN_CUTS = np.array([
    _HORN[np.ix_(p, p)] for p in itertools.permutations(range(5)) if p[0] == 0 and p[1] < p[4]
])
_HORN_CUTS.setflags(write=False)


def cp_distance_floor(X: np.ndarray, lam: np.ndarray) -> tuple[float, str]:
    """A lower bound on ||F^T F - X||_F over all nonnegative F, and its gate.

    Every F^T F is entrywise nonnegative, PSD and has <H, F^T F> >= 0 for
    each copositive H, so it lies at least ||min(X, 0)||_F ("entrywise"),
    ||min(lam, 0)||_2 ("eigenvalue", with lam the eigenvalues of X) and
    -<H, X> / ||H||_F ("Horn") away from X.  The Horn cuts are the
    relabelings of _HORN on each 5-subset S of the indices, zero elsewhere,
    so each reads only the principal submatrix X[S, S].  Returns the largest
    of these floors with the name of its gate.
    """
    floors = {
        "entrywise": float(np.linalg.norm(np.minimum(X, 0.0))),
        "eigenvalue": float(np.linalg.norm(np.minimum(lam, 0.0))),
    }
    if X.shape[0] >= 5:
        subsets = itertools.combinations(range(X.shape[0]), 5)
        S = np.fromiter(itertools.chain.from_iterable(subsets), np.intp).reshape(-1, 5)
        inner = np.einsum("pij,sij->sp", _HORN_CUTS, X[S[:, :, None], S[:, None, :]])
        floors["Horn"] = max(0.0, float(-inner.min()) / 5.0)
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


def clique_start(X: np.ndarray, tol: float) -> np.ndarray:
    """One factor row per maximal clique K of the graph {(i, j): i != j,
    X_ij > tol}, holding sqrt(X_ii / c_i) on K and zero elsewhere, where c_i
    counts the maximal cliques that contain i.

    The support of every nonnegative factor row of X is a clique of its
    graph (Groetzner & Duer), and when that graph is connected,
    triangle-free and not a tree, the cp-rank of X is its edge count
    (Berman & Shaked-Monderer, 2003), so these rows can reach factor counts
    above n.  Their reconstruction has the diagonal of X.  The cliques come
    from Bron-Kerbosch with a pivot.
    """
    n = X.shape[0]
    near = [set(np.flatnonzero(X[i] > tol).tolist()) - {i} for i in range(n)]
    cliques: list[list[int]] = []

    def extend(clique: set, todo: set, done: set) -> None:
        if not todo and not done:
            cliques.append(sorted(clique))
            return
        pivot = max(todo | done, key=lambda u: len(near[u] & todo))
        for v in todo - near[pivot]:
            extend(clique | {v}, todo & near[v], done & near[v])
            todo, done = todo - {v}, done | {v}

    extend(set(), set(range(n)), set())
    F = np.zeros((len(cliques), n))
    for row, members in enumerate(cliques):
        F[row, members] = 1.0
    return F * np.sqrt(np.maximum(np.diag(X), 0.0) / F.sum(axis=0))


def edge_start(X: np.ndarray, tol: float) -> np.ndarray:
    """One factor row per edge {i, j} of the graph {(i, j): i != j,
    X_ij > tol}, holding sqrt(X_ij) on i and j, and one per vertex i holding
    sqrt(max(X_ii - sum_j X_ij, 0)) over its edges; empty rows are dropped.

    These at most n(n+1)/2 rows, as many as any CP matrix needs (Hannah &
    Laffey, 1983), lie on cliques too, and they factor a diagonally dominant
    X exactly (Kaykobad, 1987).
    """
    E = np.triu(np.sqrt(np.where(X > tol, X, 0.0)), 1)
    i, j = np.nonzero(E)
    spare = np.diag(X) - (E**2).sum(axis=0) - (E**2).sum(axis=1)
    I = np.eye(X.shape[0])
    F = np.vstack([(I[i] + I[j]) * E[i, j][:, None], I * np.sqrt(np.maximum(spare, 0.0))])
    return F[F.any(axis=1)]


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


def verify_decomposition(X: np.ndarray, dec: CpDecomposition) -> float:
    """Frobenius residual of the factorization; rejects negative factors."""
    if dec.factors.size and dec.factors.min() < 0:
        raise ValueError("decomposition has a negative factor entry")
    if dec.factors.size == 0:
        return float(np.linalg.norm(X))
    return float(np.linalg.norm(dec.reconstruct() - X))
