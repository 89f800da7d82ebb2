"""Nonnegative factorizations of a candidate matrix, and their gates.

A matrix X is certified completely positive by nonnegative factor rows F
with F^T F = X up to a residual budget.  The starts are the Eckart-Young
factor of X at its `row_floor` count (`floor_factor`), rotated toward the
heaviest rows of `root_start`, the clipped PSD square root of X, with
`rotate_toward` and clipped at zero; `clique_start`, one row per maximal
clique of the graph of X; the square root's rows; and `edge_start`, one
row per edge of that graph and per vertex.  A start that misses is
polished by bounded Gauss-Newton least squares (`polish_decomposition`) in
the stages the caller names for it.  `verify_decomposition` measures the
residual that the caller gates on.  `cp_distance_floor` gives a provable lower bound on
that residual over all nonnegative factorizations, from the negative
entries and eigenvalues of X and the Horn cuts, the 12 relabelings of the
Horn matrix read on each 5x5 principal submatrix; so a matrix that no
factorization can fit is rejected without a polish.

The polish is a Levenberg-Marquardt loop over numpy and LAPACK's Cholesky
solve; no part of the package loads scipy.optimize.
"""
from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

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
STEP_TOL = 1e-14  # it also stops once a step or an accepted cost reduction is this small, relative
HANDOVER_TOL = 1e-6  # the interior stage ends once its Coleman-Li scaled gradient is this small
INTERIOR_LIFT = 1e-10  # entries at zero start the interior stage this far above the bound
DAMPING = 1e-3  # the first Levenberg-Marquardt damping, relative to the largest curvature


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


def _residual(F: np.ndarray, X: np.ndarray) -> np.ndarray:
    """F^T F - X, whose svec is the polish's least-squares residual."""
    return F.T @ F - X


def _gauss_newton(F: np.ndarray, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gradient J^T svec(R) = 2 F R of the polish's cost ||R||_F^2 / 2
    and the Gauss-Newton matrix J^T J, over the row-major entries of F.

    J is the Jacobian of svec(F^T F - X), with d(F^T F)_ab / dF_ic =
    delta_ca F_ib + delta_cb F_ia.  J^T J maps P to 2 F (P^T F + F^T P), so
    its entry ((i, c), (j, a)) is 2 (F_ia F_jc + (F F^T)_ij delta_ac), built
    from F without forming J.
    """
    r, n = F.shape
    H = np.multiply.outer(F, F).transpose(0, 3, 2, 1).reshape(r * n, r * n)
    H += np.kron(F @ F.T, np.eye(n))
    return 2.0 * (F @ R).ravel(), 2.0 * H


def _damped_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^-1 b for a damped, so positive definite, Gauss-Newton matrix A."""
    _, x, info = lapack.dposv(A, b)
    if info != 0:
        raise np.linalg.LinAlgError(f"dposv failed with info {info}")
    return x


def _to_bound(z: np.ndarray, p: np.ndarray) -> float:
    """The largest t with z + t p >= 0 (inf if p has no negative entry)."""
    down = p < 0.0
    return float((z[down] / -p[down]).min()) if down.any() else np.inf


def _interior_step(z, g, H, mu) -> tuple[np.ndarray, float]:
    """A Levenberg-Marquardt step in Coleman and Li's scaled variables,
    kept strictly inside z >= 0; the trial point and the model's reduction.

    An entry whose gradient is positive is scaled by its distance z_i to
    the bound, and its curvature gets Coleman-Li's diagonal term g_i, so it
    moves toward zero by at most about z_i per step; the others are
    unscaled.  A step that would cross the bound is cut back to theta of the
    way there, and is replaced by the scaled steepest-descent step (cut back
    the same way, and no longer) when the model prefers that one.
    """
    v = np.where(g > 0.0, z, 1.0)
    d = np.sqrt(v)
    gs = d * g
    Hs = d[:, None] * H * d + np.diag(np.maximum(g, 0.0))
    ps = _damped_solve(Hs + mu * np.eye(z.size), -gs)
    reach = _to_bound(z, d * ps)
    if reach <= 1.0:
        theta = max(0.995, 1.0 - float(np.abs(v * g).max()))
        radius = float(np.linalg.norm(ps))
        ps *= theta * reach
        curv = gs @ Hs @ gs
        t = min(gs @ gs / curv, radius / np.linalg.norm(gs), theta * _to_bound(z, -d * gs))
        if -t * (gs @ gs) + 0.5 * t * t * curv < gs @ ps + 0.5 * ps @ Hs @ ps:
            ps = -t * gs
    return z + d * ps, -(gs @ ps + 0.5 * ps @ Hs @ ps)


def _bound_step(z, g, H, mu) -> tuple[np.ndarray, float]:
    """A Levenberg-Marquardt step on the free entries, projected onto
    z >= 0; the trial point and the model's reduction.

    An entry is free when it is above zero or its gradient points into the
    bound's inside.  A free entry at zero that the step would take below
    zero is held there and the step recomputed without it, so the
    projection only snaps entries that were above zero onto the bound.
    """
    free = np.flatnonzero((z > 0.0) | (g < 0.0))
    while free.size:
        p = _damped_solve(H[np.ix_(free, free)] + mu * np.eye(free.size), -g[free])
        held = (z[free] == 0.0) & (p < 0.0)
        if not held.any():
            break
        free = free[~held]
    trial = z.copy()
    if free.size:
        trial[free] = np.maximum(z[free] + p, 0.0)
    s = trial - z
    return trial, -(g @ s + 0.5 * s @ H @ s)


def _descend(X: np.ndarray, F: np.ndarray, stage: str) -> np.ndarray:
    """One polish stage, "interior" or "bound": Levenberg-Marquardt on
    ||F^T F - X||_F^2 / 2 over F >= 0, from F, with the trial points of
    `_interior_step` or `_bound_step`.  The interior stage first lifts
    entries at zero to INTERIOR_LIFT, so that it starts strictly inside.

    A trial point is taken when it achieves more than 1e-4 of the model's
    reduction, and the damping follows Nielsen's update.  The stage stops at
    an exact fit, at a step or accepted reduction below STEP_TOL relative to
    the iterate or the cost, once its cost has not halved over the last
    STALL_ITERS iterations, after 100 iterations per entry, or when a
    damped solve fails; the interior stage also hands over once its scaled
    gradient is below HANDOVER_TOL.  It returns its last accepted point.
    """
    interior = stage == "interior"
    if interior:
        F = np.maximum(F, INTERIOR_LIFT)
    step = _interior_step if interior else _bound_step
    z = F.ravel()
    R = _residual(F, X)
    cost = 0.5 * float(np.einsum("ij,ij->", R, R))
    g, H = _gauss_newton(F, R)
    top = float(H.diagonal().max())
    mu, floor, grow = DAMPING * top, np.finfo(float).eps * top, 2.0
    costs = [cost]
    for _ in range(100 * z.size):
        if cost == 0.0:
            break
        if interior and np.abs(np.where(g > 0.0, z, 1.0) * g).max() < HANDOVER_TOL:
            break
        try:
            trial, predicted = step(z, g, H, max(mu, floor))
        except np.linalg.LinAlgError as exc:
            # a failed solve keeps the last accepted point, which the
            # caller's residual gate then judges like any other candidate
            logger.debug("%s polish stage failed (%s); keeping its last point", stage, exc)
            break
        Ft = trial.reshape(F.shape)
        Rt = _residual(Ft, X)
        reduction = cost - 0.5 * float(np.einsum("ij,ij->", Rt, Rt))
        rho = reduction / predicted if predicted > 0.0 else -1.0
        moved = float(np.linalg.norm(trial - z))
        if rho > 1e-4:
            settled = reduction < STEP_TOL * cost and rho > 0.25
            z, R, cost = trial, Rt, cost - reduction
            g, H = _gauss_newton(Ft, Rt)
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            grow = 2.0
            if settled:
                break
        else:
            mu *= grow
            grow *= 2.0
        if moved < STEP_TOL * (STEP_TOL + np.linalg.norm(z)):
            break
        costs.append(cost)
        if len(costs) > STALL_ITERS and costs[-1] > 0.5 * costs[-1 - STALL_ITERS]:
            break
    return z.reshape(F.shape)


def polish_decomposition(
    X: np.ndarray, dec: CpDecomposition, stages: tuple[str, ...]
) -> CpDecomposition:
    """Locally refine the factors so their outer-product sum matches X.

    Bounded Gauss-Newton on the least-squares residual svec(F^T F - X) over
    the factor entries, with their bound F >= 0 enforced by each step, in
    the named `stages`, in order, under the same stops (`_descend`).  The
    "interior" stage keeps every entry strictly above zero and takes
    Coleman-Li scaled steps: it does the bulk of a fit from a whole start,
    and leaves local minima that projected steps fall into, but only
    approaches the bound, so entries that must vanish stay a little above
    zero (on the identity, at over a hundred times the certification
    budget).  The "bound" stage takes projected steps on the free entries,
    snaps entries onto zero and finishes such fits to rounding level; a
    start already near a fit, such as a clipped rotation of the
    Eckart-Young factor, needs that stage alone.  The caller's table of
    starts (`cpproj.driver._fit`) names the stages of each start.  The
    factor count never grows, and rows whose mass collapses are dropped.  A
    stage whose cost has not halved over the last STALL_ITERS iterations
    stops where it is: on boundary matrices the bounded steps can crawl for
    thousands of iterations without reaching the gate.  Any factor set this
    returns is validated by the caller through `verify_decomposition`, so a
    polish that stalls in a poor local minimum is caught there rather than
    here.
    """
    if dec.factors.size == 0:
        return dec
    F = np.clip(dec.factors, 0.0, None)
    for stage in stages:
        F = _descend(X, F, stage)
    return CpDecomposition.from_factors(F)


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
