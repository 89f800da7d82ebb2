"""Primal-dual interior-point solver for conic programs.

Programs are stored as

    minimize    c . v
    subject to  eq_map @ v == eq_rhs
                cone_map @ v + cone_offset  in  K,

where K is an ordered product of nonnegative / second-order / PSD blocks
partitioning the cone image.  PSD blocks use the isometric upper triangle
vectorization of `svec_index` (off-diagonal entries scaled by sqrt(2)) so
that block inner products equal plain dot products.

The algorithm embeds the primal-dual pair in a homogeneous self-dual model,
scales each cone block by its Nesterov-Todd point, and takes Mehrotra
predictor-corrector steps with a 0.99 fraction-to-boundary rule, until the
scaled residuals and relative gap are all within `SolverSettings.tol` or
MAX_ITERS iterations have run.  Primal infeasibility surfaces as a
convergence mode of the embedding; a Farkas certificate is only reported
after it has been re-verified against the raw program data.
Every program built in this package has an objective bounded below by zero
(a distance bound, or a positive definite functional of a moment matrix),
so a dual infeasible program cannot arise; one would end without a
certificate.  The search direction comes from the cone-eliminated
KKT system with static regularization, which is quasi-definite and is
factored without pivoting by two dense Cholesky factors (see _Kkt), and a
couple of iterative-refinement sweeps, so identical inputs produce
identical iterates.  Work that does not change between iterations is done
once per solve: each nonneg block's sparse map is reduced to the (entry,
coefficient, row) triples of its Schur complement, each PSD block's map is
split into rank-one symmetric units grouped by column, and the equality and
cone maps are transposed once, the transposed equality map also stored
dense.  All four maps then act as gather-and-bincount products (see _CsrOp)
that are bitwise SciPy's, so the loop transposes nothing and dispatches no
sparse mat-vec; svec and smat are gathers through index arrays cached per
order.  Each iteration builds K11 = M' H^{-1} M in one Fortran-ordered
buffer, into which every block adds its Schur complement in place, over
only the columns its map touches: a nonneg block with one weighted bincount
(see _NonnegMap), a second-order block as a dense product over its touched
columns, and a PSD block from low-rank congruences and a sparse reduction,
column block by column block, at a cost proportional to the map's nonzeros
rather than to dense N x N congruences: every PSD block in this package is
a moment, localizing or norm matrix whose map has a few nonzeros per column
(see _PsdMap).  Every entry of K11 is the same sum, in the same block
order, as a sum of per-block dense matrices would be.  The dtau pivot of
the homogeneous embedding is taken in whichever of two equivalent forms has
not lost its digits to cancellation.  The step length of a PSD block comes from the
inverses of the Cholesky factors of its NT scaling, computed once per
scaling, so each step is two matrix products and one eigvalsh.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

__all__ = [
    "ConeBlock",
    "ConicProgram",
    "ConicSolution",
    "SolverSettings",
    "ConicSolverError",
    "solve",
    "svec_index",
    "verify_certificate",
]

KINDS = ("nonneg", "soc", "psd")

logger = logging.getLogger(__name__)


class ConicSolverError(RuntimeError):
    """Raised for malformed programs or unrecoverable numerical breakdowns."""


@dataclass(frozen=True)
class ConeBlock:
    """One factor of the cone product; `size` counts cone-image coordinates."""

    kind: str
    size: int
    order: int = 0  # matrix order for psd blocks, 0 otherwise

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConicSolverError(f"unknown cone kind {self.kind!r}")
        if self.size < 1:
            raise ConicSolverError("cone blocks must be nonempty")
        if self.kind == "psd":
            if self.order < 1 or self.order * (self.order + 1) // 2 != self.size:
                raise ConicSolverError(
                    f"psd block size {self.size} does not match order {self.order}"
                )
        elif self.kind == "soc":
            if self.size < 2:
                raise ConicSolverError("second-order blocks need size >= 2")


@dataclass(frozen=True, eq=False)
class ConicProgram:
    """Immutable conic program data; see the module docstring for semantics."""

    objective: np.ndarray
    eq_map: sp.csr_matrix
    eq_rhs: np.ndarray
    cone_map: sp.csr_matrix
    cone_offset: np.ndarray
    cone_blocks: tuple[ConeBlock, ...]
    layout: Mapping[str, slice]
    info: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        c = np.asarray(self.objective, dtype=float).ravel()
        object.__setattr__(self, "objective", c)
        n = c.size
        eq = sp.csr_matrix(self.eq_map, dtype=float)
        cm = sp.csr_matrix(self.cone_map, dtype=float)
        object.__setattr__(self, "eq_map", eq)
        object.__setattr__(self, "cone_map", cm)
        object.__setattr__(self, "eq_rhs", np.asarray(self.eq_rhs, dtype=float).ravel())
        object.__setattr__(
            self, "cone_offset", np.asarray(self.cone_offset, dtype=float).ravel()
        )
        if eq.shape[1] != n or cm.shape[1] != n:
            raise ConicSolverError("map column counts disagree with the objective length")
        if self.eq_rhs.size != eq.shape[0]:
            raise ConicSolverError("equality right-hand side has the wrong length")
        if self.cone_offset.size != cm.shape[0]:
            raise ConicSolverError("cone offset has the wrong length")
        if sum(b.size for b in self.cone_blocks) != cm.shape[0]:
            raise ConicSolverError("cone blocks do not partition the cone image")
        covered = np.zeros(n, dtype=bool)
        for name, sl in self.layout.items():
            picked = covered[sl]
            if picked.any():
                raise ConicSolverError(f"layout slice {name!r} overlaps another slice")
            covered[sl] = True
        if not covered.all():
            raise ConicSolverError("layout does not cover every decision coordinate")


INFEAS_THRESHOLD = 1e-8  # declare infeasibility once tau/kappa drops below
STATIC_REG = 1e-9  # absolute KKT regularization; see _Kkt
REFINE_STEPS = 2  # iterative-refinement sweeps per KKT solve
CERT_TOL = 1e-6  # relative residual up to which a Farkas pair verifies
MAX_ITERS = 200  # interior-point iterations before a solve ends "iteration_limit"


@dataclass(frozen=True)
class SolverSettings:
    # one bound on the scaled primal and dual residuals and the relative gap.
    # Moment relaxations are chronically degenerate: the interior-point engine
    # (a quasi-definite Cholesky KKT solve with refinement) reliably reaches
    # ~1e-7 on them but can stall short of 1e-8, so the default asks for what
    # is attainable; the order-1 (DNN) solve is held to relaxation.DNN_TOL
    tol: float = 1e-7

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise ConicSolverError("the tolerance must be positive")


@dataclass(frozen=True, eq=False)
class ConicSolution:
    """Solver outcome.

    For status "optimal", `primal`, `dual_eq`, `dual_cone` hold the scaled
    primal-dual point; "iteration_limit" and "ill_posed" hold the best
    iterate seen, if any.  For "primal_infeasible" the pair (dual_eq,
    dual_cone) is a Farkas certificate normalized to
    eq_rhs . y - cone_offset . z == 1 with adjoint
    eq_map^T y + cone_map^T z == 0 and z in the dual cone.
    """

    status: str
    primal: Optional[np.ndarray]
    dual_eq: Optional[np.ndarray]
    dual_cone: Optional[np.ndarray]
    primal_obj: Optional[float]
    dual_obj: Optional[float]
    residuals: Mapping[str, float]
    iterations: int


# ---------------------------------------------------------------------------
# svec helpers (isometric symmetric vectorization)


@lru_cache(maxsize=None)
def svec_index(order: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The one svec rule: read-only upper-triangle positions (row-major) of
    an order x order matrix and their weights, 1 on the diagonal and sqrt(2)
    off it."""
    iu = np.triu_indices(order)
    scale = np.where(iu[0] == iu[1], 1.0, math.sqrt(2.0))
    for a in (*iu, scale):
        a.setflags(write=False)
    return iu, scale


@lru_cache(maxsize=None)
def _svec_gather(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """svec_index as gathers: the flat position of each upper-triangle entry,
    the svec position of every entry of an order x order matrix, and the
    weights."""
    iu, scale = svec_index(order)
    flat = iu[0] * order + iu[1]
    pos = np.empty((order, order), dtype=np.intp)
    pos[iu] = pos[iu[1], iu[0]] = np.arange(iu[0].size)
    for a in (flat, pos):
        a.setflags(write=False)
    return flat, pos, scale


def svec(U: np.ndarray) -> np.ndarray:
    flat, _, scale = _svec_gather(U.shape[0])
    return U.take(flat) * scale


def smat(v: np.ndarray, order: int) -> np.ndarray:
    _, pos, scale = _svec_gather(order)
    # + 0.0 maps -0.0 to 0.0, as a sum of the two triangles would
    return (v / scale + 0.0).take(pos)


# ---------------------------------------------------------------------------
# per-block Nesterov-Todd scalings

_SQRT_EPS = 1e-14


class _Breakdown(Exception):
    pass


class _NonnegScaling:
    def __init__(self, s, z):
        if s.min(initial=np.inf) <= 0 or z.min(initial=np.inf) <= 0:
            raise _Breakdown
        self.s, self.z = s, z
        self.w = np.sqrt(s / z)
        self.lam = np.sqrt(s * z)

    def schur(self, nmap: "_NonnegMap", out: np.ndarray) -> None:
        """Add Mb' H^{-1} Mb = Mb' diag(1 / w^2) Mb into out, from the map
        prepared once per solve."""
        nmap.schur(1.0 / (self.w * self.w), out)

    def hinv_vec(self, v):
        return v / (self.w * self.w)

    def winv_vec(self, v):
        return v / self.w

    def wtinv_vec(self, v):
        return v / self.w

    def w_vec(self, v):
        return v * self.w

    def lam_solve(self, d):
        return d / self.lam

    def lam_sq(self):
        return self.lam * self.lam

    def jordan(self, a, b):
        return a * b

    def max_step(self, ds, dz):
        """Largest steps along ds and dz that keep s and z in the cone."""
        return self._step(self.s, ds), self._step(self.z, dz)

    @staticmethod
    def _step(u, du):
        neg = du < 0
        if not neg.any():
            return np.inf
        return float(np.min(-u[neg] / du[neg]))


def _soc_det(u):
    return u[0] * u[0] - u[1:] @ u[1:]


@lru_cache(maxsize=None)
def _soc_sign(size: int) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal (1, -1, ..., -1) of J and its index, read-only."""
    sign = np.full(size, -1.0)
    sign[0] = 1.0
    diag = np.arange(size)
    for a in (sign, diag):
        a.setflags(write=False)
    return sign, diag


class _SocScaling:
    def __init__(self, s, z):
        ds, dz = _soc_det(s), _soc_det(z)
        if ds <= 0 or dz <= 0 or s[0] <= 0 or z[0] <= 0:
            raise _Breakdown
        self.s, self.z = s, z
        sign, diag = _soc_sign(s.size)
        ns, nz = math.sqrt(ds), math.sqrt(dz)
        sh, zh = s / ns, z / nz
        gamma = math.sqrt((1.0 + sh @ zh) / 2.0)
        wbar = (sh + sign * zh) / (2.0 * gamma)
        # Jordan square root of wbar (its determinant is 1 by construction)
        v = wbar.copy()
        v[0] += 1.0
        v /= math.sqrt(2.0 * (wbar[0] + 1.0))
        eta = ns / nz
        # 2 v v' - J and its inverse 2 (Jv)(Jv)' - J, with J = diag(1, -1, ..., -1)
        # subtracted on the diagonal only
        W = 2.0 * np.outer(v, v)
        W[diag, diag] -= sign
        self.W = math.sqrt(eta) * W
        jv = sign * v
        Winv = 2.0 * np.outer(jv, jv)
        Winv[diag, diag] -= sign
        self.Winv = Winv / math.sqrt(eta)
        self.Hinv = self.Winv @ self.Winv
        self.lam = self.Winv @ s

    def schur(self, soc_map: tuple, out: np.ndarray) -> None:
        """Add Mb' H^{-1} Mb into out over the columns the block's map touches.

        `soc_map` is the (index, dense columns Mu) pair of `_block_map`; the
        index is `...` when every column is touched, so a program whose
        block touches them all makes a plain whole-array add."""
        cols, Mu = soc_map
        out[cols] += Mu.T @ (self.Hinv @ Mu)

    def hinv_vec(self, v):
        return self.Hinv @ v

    def winv_vec(self, v):
        return self.Winv @ v

    def wtinv_vec(self, v):
        return self.Winv @ v

    def w_vec(self, v):
        return self.W @ v

    def lam_solve(self, d):
        lam = self.lam
        det = _soc_det(lam)
        if abs(det) < _SQRT_EPS:
            raise _Breakdown
        u0 = (lam[0] * d[0] - lam[1:] @ d[1:]) / det
        u1 = (d[1:] - u0 * lam[1:]) / lam[0]
        return np.concatenate(([u0], u1))

    def lam_sq(self):
        return self.jordan(self.lam, self.lam)

    def jordan(self, a, b):
        return np.concatenate(([a @ b], a[0] * b[1:] + b[0] * a[1:]))

    def max_step(self, ds, dz):
        """Largest steps along ds and dz that keep s and z in the cone."""
        return self._step(self.s, ds), self._step(self.z, dz)

    @staticmethod
    def _step(u, du):
        # first positive root of det(u + alpha du) = 0, if any
        a = _soc_det(du)
        b = 2.0 * (u[0] * du[0] - u[1:] @ du[1:])
        c0 = _soc_det(u)
        roots = []
        if abs(a) < 1e-300:
            if b < 0:
                roots.append(-c0 / b)
        else:
            disc = b * b - 4.0 * a * c0
            if disc >= 0:
                sq = math.sqrt(disc)
                roots.extend(((-b - sq) / (2 * a), (-b + sq) / (2 * a)))
        pos = [r for r in roots if r > 0]
        return float(min(pos)) if pos else np.inf


class _PsdScaling:
    def __init__(self, s, z, order):
        self.order = order
        S = smat(s, order)
        Z = smat(z, order)
        try:
            Ls = np.linalg.cholesky(S)
            Lz = np.linalg.cholesky(Z)
        except np.linalg.LinAlgError:
            raise _Breakdown from None
        U, sig, Vt = np.linalg.svd(Lz.T @ Ls)
        if sig.min(initial=np.inf) <= 0:
            raise _Breakdown
        isq = 1.0 / np.sqrt(sig)
        self.R = Ls @ (Vt.T * isq[None, :])
        self.Rinv = (U * isq[None, :]).T @ Lz.T
        self.lam_diag = sig
        G = self.Rinv.T @ self.Rinv  # (R R^T)^{-1}
        self.Ginv = G
        self.Ls_inv = _tri_inverse(Ls)
        self.Lz_inv = _tri_inverse(Lz)

    def schur(self, pmap: "_PsdMap", out: np.ndarray) -> None:
        """Add Mb' H^{-1} Mb into out, from the map prepared once per solve."""
        pmap.schur(self.Ginv, out)

    def _congr(self, v, L, Rm):
        return svec(L @ smat(v, self.order) @ Rm)

    def hinv_vec(self, v):
        return self._congr(v, self.Ginv, self.Ginv)

    def winv_vec(self, v):
        return self._congr(v, self.Rinv.T, self.Rinv)

    def wtinv_vec(self, v):
        return self._congr(v, self.Rinv, self.Rinv.T)

    def w_vec(self, v):
        return self._congr(v, self.R.T, self.R)

    def lam_solve(self, d):
        D = smat(d, self.order)
        denom = 0.5 * (self.lam_diag[:, None] + self.lam_diag[None, :])
        return svec(D / denom)

    def lam_sq(self):
        return svec(np.diag(self.lam_diag * self.lam_diag))

    def jordan(self, a, b):
        A = smat(a, self.order)
        B = smat(b, self.order)
        return svec(0.5 * (A @ B + B @ A))

    def max_step(self, ds, dz):
        """Largest steps along ds and dz that keep S and Z semidefinite."""
        return self._step(self.Ls_inv, ds), self._step(self.Lz_inv, dz)

    def _step(self, L_inv, du):
        # largest alpha with L L' + alpha dU still PSD, from the inverse of L
        B = L_inv @ smat(du, self.order) @ L_inv.T
        lam_min = float(np.linalg.eigvalsh(0.5 * (B + B.T)).min())
        return np.inf if lam_min >= 0 else 1.0 / (-lam_min)


def _tri_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower triangular matrix."""
    L_inv, info = lapack.dtrtri(L, lower=1)
    if info != 0:
        raise _Breakdown
    return L_inv


class _NonnegMap:
    """The sparse map Mb of one nonneg block, prepared once per solve.

    Row r of Mb adds d_r Mb[r, i] Mb[r, j] to entry (i, j) of Mb' diag(d) Mb.
    The entry i n + j, the coefficient Mb[r, i] Mb[r, j] and the row r of
    every such term are recorded once, so one `schur` call is a single
    weighted bincount over them, with no sparse product or densification.
    """

    def __init__(self, Mb: sp.spmatrix):
        Mb = sp.csr_matrix(Mb, dtype=float)
        self.size = Mb.shape[1]
        counts = np.diff(Mb.indptr)
        # the counts[r]^2 ordered pairs of row r's stored entries, rows in
        # order; the pairs are bilinear, so duplicate entries need no summing
        pairs = counts * counts
        self.rows = np.repeat(np.arange(counts.size), pairs)
        t = np.arange(self.rows.size) - np.repeat(np.cumsum(pairs) - pairs, pairs)
        m, start = counts[self.rows], Mb.indptr[self.rows]
        a, b = start + t // m, start + t % m
        # the column-major position of entry (i, j), so the sum reads as a
        # Fortran-ordered matrix
        self.flat = Mb.indices[b].astype(np.int64) * self.size + Mb.indices[a]
        self.coef = Mb.data[a] * Mb.data[b]

    def schur(self, d: np.ndarray, out: np.ndarray) -> None:
        """Add Mb' diag(d) Mb into the n x n matrix out."""
        n = self.size
        total = np.bincount(self.flat, weights=self.coef * d[self.rows], minlength=n * n)
        out += total.reshape((n, n), order="F")


# Entries of the largest intermediate of one chunk of a PSD block's
# Schur-complement build (1 MB, twice that with its transposed copy); bounds
# the build's peak memory.  A sweep of 2^15 ... 2^19 over the 4x4 order-4
# Frobenius relaxation (2-core x86-64 host, 2 MB L2 per core, 1 BLAS thread)
# built its K11 in 11.3, 9.6, 9.2, 11.3 and 15.2 ms: smaller chunks pay
# more calls, larger ones fall out of cache.
PSD_CHUNK_ENTRIES = 1 << 17


class _PsdMap:
    """The sparse map Mb of one PSD block, prepared once per solve.

    A nonzero v of Mb in the svec row of entry (a, b) adds the symmetric
    unit c (e_a e_b' + e_b e_a') to smat(Mb[:, j]), with c = v / sqrt(2) off
    the diagonal and c = v / 2 on it.  For symmetric G, therefore,
    G smat(Mb[:, j]) G = X_j + X_j' with X_j = G[:, a_j] diag(c_j) G[b_j, :],
    a product of rank nnz(Mb[:, j]), and the Schur complement
    Mb' [svec(G smat(Mb[:, j]) G)]_j has entries 2 <smat(Mb[:, i]), X_j>:
    a sparse reduction of vec(X_j) against the pattern matrix Q whose row i
    is 2 vec(smat(Mb[:, i])).  The used columns (those with a nonzero) are
    grouped by their nonzero count, so no column is padded, and split into
    chunks whose intermediates hold at most PSD_CHUNK_ENTRIES entries.  One
    `schur` call costs N^2 nnz(Mb) for the products and nnz(Q) per used
    column for the reduction, where dense congruences cost 2 N^3 per used
    column and a dense product with Mb' on top.  It adds each chunk's
    reduction into the chunk's columns of the caller's K11 (through a view
    when they are a run), with no per-block temporary, and leaves unused
    columns as they were.
    """

    def __init__(self, Mb: sp.spmatrix, order: int):
        iu, scale = svec_index(order)
        Mb = sp.csc_matrix(Mb, dtype=float)
        Mb.sum_duplicates()
        Mb.eliminate_zeros()
        self.order = order
        self.size = Mb.shape[1]
        a, b = iu[0][Mb.indices], iu[1][Mb.indices]
        c = Mb.data / (scale[Mb.indices] * np.where(a == b, 2.0, 1.0))
        counts = np.diff(Mb.indptr)
        cols = np.repeat(np.arange(self.size), counts)
        # coo sums the two halves of a diagonal unit into one entry
        self.Q = sp.csr_matrix(
            (np.concatenate([2.0 * c, 2.0 * c]),
             (np.concatenate([cols, cols]), np.concatenate([a * order + b, b * order + a]))),
            shape=(self.size, order * order),
        )
        used = np.flatnonzero(counts)
        self.chunks = []
        by_count = used[np.argsort(counts[used], kind="stable")]
        for group in np.split(by_count, np.flatnonzero(np.diff(counts[by_count])) + 1):
            if not group.size:  # no column of Mb is used
                continue
            m = counts[group[0]]
            size = max(1, PSD_CHUNK_ENTRIES // (order * max(order, m)))
            for at in range(0, group.size, size):
                part = group[at : at + size]
                nz = Mb.indptr[part][:, None] + np.arange(m)
                if part[-1] - part[0] == part.size - 1:  # a run of columns: add through a view
                    part = slice(part[0], part[-1] + 1)
                self.chunks.append((part, a[nz], b[nz], c[nz]))

    def schur(self, G: np.ndarray, out: np.ndarray) -> None:
        """Add Mb' [svec(G smat(Mb[:, j]) G)]_j into out, column block by
        column block; a Fortran-ordered out takes each as contiguous columns."""
        N = self.order
        for part, a, b, c in self.chunks:
            X = (G[:, a].transpose(1, 0, 2) * c[:, None, :]) @ G[b]
            # the reduction reads each vec(X_j) as a column
            R = self.Q @ np.ascontiguousarray(X.reshape(a.shape[0], N * N).T)
            # R comes out C-ordered; its Fortran copy adds faster than a
            # strided read of it (by about 1 ms a build on the 4x4 order-4 probe)
            out[:, part] += np.asfortranarray(R)


def _make_scaling(block: ConeBlock, s, z):
    if block.kind == "nonneg":
        return _NonnegScaling(s, z)
    if block.kind == "soc":
        return _SocScaling(s, z)
    if block.kind == "psd":
        return _PsdScaling(s, z, block.order)
    raise ConicSolverError(f"no scaling for kind {block.kind!r}")


def _block_map(block: ConeBlock, Mb: sp.csr_matrix):
    """The block's rows of the cone map, in the form its `schur` takes."""
    if block.kind == "nonneg":
        return _NonnegMap(Mb)
    if block.kind == "soc":
        cols = np.flatnonzero(Mb.getnnz(axis=0))
        Mu = Mb[:, cols].toarray()
        return (... if cols.size == Mb.shape[1] else np.ix_(cols, cols)), Mu
    return _PsdMap(Mb, block.order)


def _unit_element(block: ConeBlock) -> np.ndarray:
    if block.kind == "nonneg":
        return np.ones(block.size)
    if block.kind == "soc":
        e = np.zeros(block.size)
        e[0] = 1.0
        return e
    if block.kind == "psd":
        return svec(np.eye(block.order))
    raise ConicSolverError(f"no unit element for kind {block.kind!r}")


def _cone_degree(block: ConeBlock) -> int:
    return {"nonneg": block.size, "soc": 1, "psd": block.order}[block.kind]


def _block_slices(blocks: Sequence[ConeBlock]) -> list[slice]:
    out, at = [], 0
    for b in blocks:
        out.append(slice(at, at + b.size))
        at += b.size
    return out


def _dist_outside_cone(block: ConeBlock, u: np.ndarray) -> float:
    """How far u sits outside the block's cone (0 when inside)."""
    if block.kind == "nonneg":
        return float(max(0.0, -u.min(initial=0.0)))
    if block.kind == "soc":
        return float(max(0.0, np.linalg.norm(u[1:]) - u[0]))
    lam_min = float(np.linalg.eigvalsh(smat(u, block.order)).min())
    return max(0.0, -lam_min)


# ---------------------------------------------------------------------------
# the interior-point loop


class _CsrOp:
    """A CSR matrix A prepared once per solve for products `A @ x`.

    The product is one gather, one multiply and one weighted bincount over
    the stored entries in row order.  bincount adds each output from 0.0 in
    stored order, as SciPy's csr_matvec does, so the result is bitwise
    SciPy's `A @ x`, without its dispatch.
    """

    def __init__(self, A: sp.csr_matrix):
        self.m = A.shape[0]
        self.rows = np.repeat(np.arange(self.m), np.diff(A.indptr))
        self.cols = A.indices
        self.data = A.data

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        out = np.bincount(self.rows, weights=self.data * x.take(self.cols), minlength=self.m)
        # bincount of no entries returns integer zeros
        return out.astype(float, copy=False)


class _Kkt:
    """Factorization of the quasi-definite [[K11 + eps, E'], [E, -eps]].

    K11 = M' H^{-1} M is positive semidefinite, so for eps > 0 the matrix is
    quasi-definite and has an LDL' factorization without pivoting (Vanderbei,
    SIAM J. Optim. 1995).  `factor` builds it by block elimination from two
    Cholesky factors, L L' = K11 + eps and L2 L2' = W'W + eps with
    W = L^{-1} E', the negated Schur complement of the first block.  E' is
    transposed once per solve, and stored both dense and as a _CsrOp beside
    E's.  Rounding can leave K11 a hair indefinite, so a failed Cholesky
    retries with eps a hundred times larger.  `solve` refines against the
    unregularized K11 and E, so eps moves the direction only by what the
    refinement sweeps leave of it.  K11 may come in either layout: the
    Cholesky factor is taken of a Fortran-ordered copy and the refinement
    product of a C-ordered one, so both give the same bits.
    """

    def __init__(self, E: sp.csr_matrix, n: int):
        self.n = n
        self.m = E.shape[0]
        ET = E.T.tocsr()
        self.E, self.ET = _CsrOp(E), _CsrOp(ET)
        self.ET_dense = np.asfortranarray(ET.toarray())

    def factor(self, K11: np.ndarray) -> None:
        # refinement multiplies by a C-ordered copy whatever K11's layout, as
        # the BLAS kernel of K11 @ x, and so its rounding, depends on it
        self.K11 = np.ascontiguousarray(K11)
        # absolute regularization: the NT diagonal grows like 1/mu near
        # convergence, so scaling eps by the matrix magnitude would wreck
        # the late directions that refinement is supposed to rescue
        eps = STATIC_REG
        for attempt in range(4):
            if attempt:
                eps *= 100.0
                logger.debug("KKT Cholesky failed; raising eps to %.0e", eps)
            if self._factor(K11, eps):
                return
        raise _Breakdown

    def _factor(self, K11: np.ndarray, eps: float) -> bool:
        mat = K11.copy(order="F")
        diag = np.arange(self.n)
        mat[diag, diag] += eps
        self.L, info = lapack.dpotrf(mat, lower=1, overwrite_a=1)
        if info != 0 or not self.m:
            return info == 0
        self.W, info = lapack.dtrtrs(self.L, self.ET_dense, lower=1)
        if info != 0:
            return False
        S = self.W.T @ self.W
        diag = np.arange(self.m)
        S[diag, diag] += eps
        self.L2, info = lapack.dpotrf(S, lower=1, overwrite_a=1)
        return info == 0

    def _raw_solve(self, rhs):
        # u = L^{-1} r1, y = (W'W + eps)^{-1} (W'u - r2), x = L^{-T} (u - W y)
        n = self.n
        u, info = lapack.dtrtrs(self.L, rhs[:n], lower=1)
        y = np.zeros(0)
        if self.m:
            y, info_y = lapack.dpotrs(self.L2, self.W.T @ u - rhs[n:], lower=1)
            u = u - self.W @ y
            info = info or info_y
        x, info_x = lapack.dtrtrs(self.L, u, lower=1, trans=1)
        if info or info_x:
            raise _Breakdown
        return np.concatenate([x, y])

    def _apply(self, xy):
        x, y = xy[: self.n], xy[self.n :]
        top = self.K11 @ x
        if self.m:
            top = top + self.ET @ y
            bot = self.E @ x
            return np.concatenate([top, bot])
        return top

    def solve(self, rhs1, rhs2):
        rhs = np.concatenate([rhs1, rhs2])
        sol = self._raw_solve(rhs)
        scale = 1.0 + float(np.abs(rhs).max(initial=0.0))
        for _ in range(REFINE_STEPS):
            resid = rhs - self._apply(sol)
            if np.abs(resid).max(initial=0.0) <= 1e-14 * scale:
                break
            sol = sol + self._raw_solve(resid)
        return sol[: self.n], sol[self.n :]


def solve(prog: ConicProgram, settings: SolverSettings | None = None) -> ConicSolution:
    """Run the interior-point method on `prog`."""
    st = settings or SolverSettings()
    E, d, M, h = prog.eq_map, prog.eq_rhs, prog.cone_map, prog.cone_offset
    blocks = prog.cone_blocks
    c = prog.objective
    n = c.size
    m_k = M.shape[0]
    slices = _block_slices(blocks)
    nu = sum(_cone_degree(b) for b in blocks)

    block_maps = [_block_map(b, M[sl]) for b, sl in zip(blocks, slices)]
    kkt = _Kkt(E, n)
    # from here on the four maps are _CsrOp products, each transposed once
    E, ET = kkt.E, kkt.ET
    M, MT = _CsrOp(M), _CsrOp(M.T.tocsr())

    x = np.zeros(n)
    y = np.zeros(kkt.m)
    unit = np.concatenate([_unit_element(b) for b in blocks]) if blocks else np.zeros(0)
    s = unit.copy()
    z = unit.copy()
    tau, kappa = 1.0, 1.0

    norm_c = 1.0 + np.linalg.norm(c)
    norm_d = 1.0 + np.linalg.norm(d)
    norm_h = 1.0 + np.linalg.norm(h)

    best = None
    best_score = np.inf
    status = "iteration_limit"
    iters_done = 0

    def scaled_residuals():
        r1 = -(ET @ y) - MT @ z + c * tau
        r2 = E @ x - d * tau
        r3 = M @ x + h * tau - s
        r4 = -c @ x + d @ y - h @ z - kappa
        pres = max(
            np.linalg.norm(r2) / tau / norm_d,
            np.linalg.norm(r3) / tau / norm_h,
        )
        dres = np.linalg.norm(r1) / tau / norm_c
        pobj = c @ x / tau
        dobj = (d @ y - h @ z) / tau
        gap = (z @ s) / (tau * tau)
        relgap = gap / max(1.0, abs(pobj), abs(dobj))
        return r1, r2, r3, r4, pres, dres, pobj, dobj, gap, relgap

    def pack_point(status, it, measures, x, y, z, tau):
        pres, dres, pobj, dobj, gap, relgap = measures
        return ConicSolution(
            status=status,
            primal=x / tau,
            dual_eq=y / tau,
            dual_cone=z / tau,
            primal_obj=float(pobj),
            dual_obj=float(dobj),
            residuals={
                "primal_feas": float(pres),
                "dual_feas": float(dres),
                "gap": float(gap),
                "rel_gap": float(relgap),
            },
            iterations=it,
        )

    def try_certificate(it):
        # primal infeasibility: Farkas pair from the dual embedding variables
        margin = d @ y - h @ z
        if not margin > 1e-300:
            return None
        yy, cert = y / margin, z / margin
        res = _certificate_residuals(prog, yy, cert, ET, MT)
        if res is None:
            return None
        return ConicSolution(
            status="primal_infeasible",
            primal=None,
            dual_eq=yy,
            dual_cone=cert,
            primal_obj=None,
            dual_obj=None,
            residuals=res,
            iterations=it,
        )

    tiny_steps = 0

    for it in range(MAX_ITERS + 1):
        iters_done = it
        r1, r2, r3, r4, pres, dres, pobj, dobj, gap, relgap = scaled_residuals()
        logger.debug(
            "iter %3d  pres %.3e  dres %.3e  relgap %.3e  tau %.3e  kappa %.3e",
            it, pres, dres, relgap, tau, kappa,
        )
        measures = (pres, dres, pobj, dobj, gap, relgap)
        score = max(pres, dres, relgap)
        if score < best_score:
            best_score = score
            best = (measures, x.copy(), y.copy(), z.copy(), tau)

        if pres <= st.tol and dres <= st.tol and relgap <= st.tol:
            return pack_point("optimal", it, measures, x, y, z, tau)
        if kappa > 0 and tau / kappa < INFEAS_THRESHOLD:
            cert = try_certificate(it)
            if cert is not None:
                return cert
            status = "ill_posed"
            break
        if it == MAX_ITERS or tiny_steps >= 3:
            status = "iteration_limit"
            break

        try:
            scalings = [_make_scaling(b, s[sl], z[sl]) for b, sl in zip(blocks, slices)]

            # K11 = M' H^{-1} M, each block adding its part in place
            K11 = np.zeros((n, n), order="F")
            hinv_h = np.zeros(m_k)
            for sl, sc, bmap in zip(slices, scalings, block_maps):
                hinv_h[sl] = sc.hinv_vec(h[sl])
                sc.schur(bmap, K11)
            mh = MT @ hinv_h

            kkt.factor(K11)
            vx, vy = kkt.solve(-(c + mh), d)
            # The pivot of dtau has two forms that agree in exact arithmetic:
            # the bordered (mh - c)'vx - d'vy + h'H^{-1}h + kappa / tau, exact
            # for the computed vx, vy, and ||H^{-1/2}(M vx + h)||^2 + kappa / tau,
            # which also takes the solve's residual to be zero.  Near
            # convergence the bordered terms grow like ||K11|| and cancel down
            # to their rounding error, which can shrink the pivot and blow dtau
            # up.  When the two forms differ by less than one rounding unit of
            # the bordered terms' magnitude, the bordered sum carries no digits
            # and the norm form is used; a wider gap is the solve's residual,
            # which only the bordered form accounts for.
            lin = mh - c
            den = lin @ vx - d @ vy + h @ hinv_h + kappa / tau
            mv = M @ vx + h
            den_norm = kappa / tau
            for sl, sc in zip(slices, scalings):
                den_norm += float(mv[sl] @ sc.hinv_vec(mv[sl]))
            magnitude = (
                np.abs(lin) @ np.abs(vx) + np.abs(d) @ np.abs(vy)
                + np.abs(h) @ np.abs(hinv_h) + kappa / tau
            )
            if abs(den - den_norm) <= np.finfo(float).eps * magnitude:
                den = den_norm

            mu = (s @ z + tau * kappa) / (nu + 1)

            # the parts of both directions that depend on the iterate only
            hr3 = np.zeros(m_k)
            lam_sq = np.zeros(m_k)
            for sl, sc in zip(slices, scalings):
                hr3[sl] = sc.hinv_vec(r3[sl])
                lam_sq[sl] = sc.lam_sq()
            mt_hr3, h_hr3 = MT @ hr3, h @ hr3

            def direction(eta, d_c, d_kappa):
                w1 = np.zeros(m_k)
                for sl, sc in zip(slices, scalings):
                    w1[sl] = sc.winv_vec(sc.lam_solve(d_c[sl]))
                p1 = -eta * r1 + MT @ w1 - eta * mt_hr3
                ux, uy = kkt.solve(p1, -eta * r2)
                p4 = -eta * r4 + h @ w1 - eta * h_hr3 + d_kappa / tau
                num = p4 - lin @ ux + d @ uy
                dtau = num / den if abs(den) > 1e-300 else 0.0
                dx = ux + dtau * vx
                dy = -(uy + dtau * vy)
                ds = M @ dx + h * dtau + eta * r3
                dz = np.zeros(m_k)
                for sl, sc in zip(slices, scalings):
                    dz[sl] = w1[sl] - sc.hinv_vec(ds[sl])
                dkappa = (d_kappa - kappa * dtau) / tau
                return dx, dy, dz, ds, dtau, dkappa

            def max_step(dz, ds, dtau, dkappa):
                alpha = np.inf
                for sl, sc in zip(slices, scalings):
                    alpha = min(alpha, *sc.max_step(ds[sl], dz[sl]))
                if dtau < 0:
                    alpha = min(alpha, -tau / dtau)
                if dkappa < 0:
                    alpha = min(alpha, -kappa / dkappa)
                return alpha

            # predictor
            dxa, dya, dza, dsa, dtaua, dkappaa = direction(1.0, -lam_sq, -tau * kappa)
            alpha_aff = min(1.0, max_step(dza, dsa, dtaua, dkappaa))
            mu_aff = (
                (s + alpha_aff * dsa) @ (z + alpha_aff * dza)
                + (tau + alpha_aff * dtaua) * (kappa + alpha_aff * dkappaa)
            ) / (nu + 1)
            sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3))

            # corrector
            d_c2 = np.zeros(m_k)
            for sl, sc in zip(slices, scalings):
                corr = sc.jordan(sc.wtinv_vec(dsa[sl]), sc.w_vec(dza[sl]))
                d_c2[sl] = sigma * mu * unit[sl] - lam_sq[sl] - corr
            d_kappa2 = sigma * mu - tau * kappa - dtaua * dkappaa
            dx, dy, dz, ds, dtau, dkappa = direction(1.0 - sigma, d_c2, d_kappa2)

            alpha = min(1.0, 0.99 * max_step(dz, ds, dtau, dkappa))
            if alpha < 1e-8:
                tiny_steps += 1
            else:
                tiny_steps = 0
            x += alpha * dx
            y += alpha * dy
            z += alpha * dz
            s += alpha * ds
            tau += alpha * dtau
            kappa += alpha * dkappa
        except _Breakdown:
            status = "iteration_limit"
            break

    # no convergence: report the best iterate seen, or a late certificate
    cert = try_certificate(iters_done)
    if cert is not None:
        return cert
    if best is not None:
        return pack_point(status, iters_done, *best)
    return ConicSolution(status, None, None, None, None, None, {}, iters_done)


# ---------------------------------------------------------------------------
# certificate verification against the raw data


def _certificate_residuals(prog: ConicProgram, y, z, ET, MT) -> Optional[dict]:
    """The Farkas residuals of (y, z) when each is within CERT_TOL relative
    to the pair's largest entry, else None; ET and MT apply the transposed
    maps."""
    adj = ET @ y + MT @ z
    margin = prog.eq_rhs @ y - prog.cone_offset @ z
    dist = 0.0
    for b, sl in zip(prog.cone_blocks, _block_slices(prog.cone_blocks)):
        dist = max(dist, _dist_outside_cone(b, z[sl]))
    res = {
        "adjoint": float(np.abs(adj).max(initial=0.0)),
        "cone_distance": float(dist),
        "margin_error": float(abs(margin - 1.0)),
    }
    scale = max(1.0, float(np.abs(y).max(initial=0.0)), float(np.abs(z).max(initial=0.0)))
    return res if all(v <= CERT_TOL * scale for v in res.values()) else None


def verify_certificate(prog: ConicProgram, sol: ConicSolution) -> bool:
    """Recompute the Farkas conditions of a primal infeasibility certificate."""
    if sol.status != "primal_infeasible" or sol.dual_eq is None or sol.dual_cone is None:
        return False
    y, z = sol.dual_eq, sol.dual_cone
    return _certificate_residuals(prog, y, z, prog.eq_map.T, prog.cone_map.T) is not None
