"""Assembly of the order-k projection relaxation as a conic program.

An instance asks for the matrix nearest to C, in one of the matrix norms of
`NORM_KINDS` (evaluated by `p_norm`), among completely positive matrices
satisfying affine trace constraints <A_i, X> = b_i or >= b_i; C and every
A_i pass `symmetric`, which rejects non-finite or asymmetric input.
Membership of X in the completely positive cone is relaxed by one ladder of
conic programs, indexed by the order k, that share the constraint and norm
rows.  Order 1 is the doubly nonnegative (DNN) relaxation: X entrywise
nonnegative and PSD.  Order k >= 2 uses the moment-sequence description
from `cpproj.polybasis`: X is identified with the degree-2 slice of a
moment vector s that satisfies the sphere equalities and the PSD block
conditions of order k.  CP lies inside every rung, so each optimal value
bounds the projection distance from below, and from order 2 on the values
grow with k toward it; certification at finite k happens downstream,
through a direct nonnegative factorization of the optimal matrix.

The norm objective turns into standard conic epigraphs:

  fro        one second-order block (gamma, svec(X - C))
  two        one PSD block [[gamma I, X - C], [X - C, gamma I]]
  one / inf  a symmetric bound T >= |X - C| entrywise and gamma >= sum_i T_ij
             for every column j (the two norms coincide on symmetric
             matrices, so they share the same reformulation)

Each block of rows is built whole from numpy index arrays (the vech columns
of X, upper-triangle positions, the column incidence of the one/inf sums,
the corner positions of the spectral block) and appended to a
coordinate-array row builder, `_Rows`; one builder makes the equality map
and one the cone map, each a single CSR matrix.  Every svec weight, of the
PSD, second-order and spectral blocks alike, comes from `conic.svec_index`.
`assemble` records the columns of vech(X) and gamma in the program's `info`
("X", "gamma"), which the solver never reads, for `map_solution`.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .conic import (
    ConeBlock,
    ConicProgram,
    ConicSolution,
    SolverSettings,
    solve as conic_solve,
    svec_gather,
    svec_index,
    vech,
    vech_inv,
)
from .polybasis import moment_cone_constraints

__all__ = [
    "NORM_KINDS",
    "LinearConstraint",
    "ProblemSpec",
    "RelaxationSolution",
    "assemble",
    "map_solution",
    "solve_relaxation",
    "check_weak_duality",
    "project_dnn",
    "p_norm",
    "symmetric",
]

# the DNN program is small and well conditioned, so its solve is held to a
# decade below the engine's default: at 1e-7 its X is only about sqrt(gap)
# accurate
DNN_TOL = 1e-8
WEAK_DUALITY_TOL = 1e-7  # absolute slack of the primal bound below the dual objective
NORM_KINDS: tuple[str, ...] = ("one", "two", "inf", "fro")


def symmetric(values) -> np.ndarray:
    """A read-only copy of a real, finite, symmetric matrix, exactly symmetric.

    The lower triangle is mirrored from the upper one by vech_inv(vech(.)),
    so out[i, j] == out[j, i] holds bitwise.  A NaN or infinite entry is
    rejected, and so is input asymmetry beyond 1e-12 (relative to the
    largest entry, or absolute below 1), rather than silently averaged away.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix has a non-finite entry")
    skew = np.abs(arr - arr.T).max(initial=0.0)
    if skew > 1e-12 * max(1.0, np.abs(arr).max(initial=0.0)):
        raise ValueError(f"matrix is not symmetric (max asymmetry {skew:.3e})")
    return vech_inv(vech(arr))


def p_norm(A: np.ndarray, p: str) -> float:
    """Norm of a symmetric matrix: max column sum / spectral / max row sum / Frobenius."""
    V = symmetric(A)
    if p not in NORM_KINDS:
        raise ValueError(f"unknown norm {p!r}; expected one of {NORM_KINDS}")
    if p == "one":
        return float(np.abs(V).sum(axis=0).max(initial=0.0))
    if p == "inf":
        return float(np.abs(V).sum(axis=1).max(initial=0.0))
    if p == "two":
        # symmetric, so the spectral norm is the largest eigenvalue magnitude
        return float(np.abs(np.linalg.eigvalsh(V)).max(initial=0.0))
    return float(np.linalg.norm(V))


@dataclass(frozen=True, eq=False)
class LinearConstraint:
    """<matrix, X> == rhs (kind "eq") or <matrix, X> >= rhs (kind "ineq")."""

    matrix: np.ndarray
    rhs: float
    kind: str = "eq"

    def __post_init__(self) -> None:
        if self.kind not in ("eq", "ineq"):
            raise ValueError(f"constraint kind must be 'eq' or 'ineq', got {self.kind!r}")
        object.__setattr__(self, "matrix", symmetric(self.matrix))
        object.__setattr__(self, "rhs", float(self.rhs))
        if not np.isfinite(self.rhs):
            raise ValueError(f"constraint right-hand side must be finite, got {self.rhs}")


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Projection instance: target matrix, norm, affine constraints."""

    C: np.ndarray
    norm: str = "fro"
    constraints: tuple[LinearConstraint, ...] = ()

    def __post_init__(self) -> None:
        C = symmetric(self.C)
        object.__setattr__(self, "C", C)
        if self.norm not in NORM_KINDS:
            raise ValueError(f"unknown norm {self.norm!r}")
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for con in self.constraints:
            if con.matrix.shape != C.shape:
                raise ValueError("constraint matrix shape differs from the target")

    @property
    def dim(self) -> int:
        return self.C.shape[0]

    @property
    def equalities(self) -> tuple[LinearConstraint, ...]:
        return tuple(c for c in self.constraints if c.kind == "eq")

    @property
    def inequalities(self) -> tuple[LinearConstraint, ...]:
        return tuple(c for c in self.constraints if c.kind == "ineq")

    def violations(self, X: np.ndarray) -> list[float]:
        """How far X misses each constraint: |<A, X> - b| or max(0, b - <A, X>)."""
        out = []
        for con in self.constraints:
            val = float(np.sum(con.matrix * X))
            out.append(abs(val - con.rhs) if con.kind == "eq" else max(0.0, con.rhs - val))
        return out


class _Rows:
    """Coordinate arrays of one sparse map, appended a whole block of rows at
    a time; `rhs` is the equality right-hand side or the cone offset."""

    def __init__(self) -> None:
        index = np.zeros(0, dtype=np.int64)
        self.parts = [(index, index, np.zeros(0), np.zeros(0))]
        self.size = 0

    def add(self, row, col, val, rhs) -> None:
        """Append len(rhs) rows; entry t is val[t] in column col[t] of the
        new block's row row[t]."""
        self.parts.append((self.size + row, col, val, rhs))
        self.size += len(rhs)

    def csr(self, width: int) -> tuple[sp.csr_matrix, np.ndarray]:
        row, col, val, rhs = map(np.concatenate, zip(*self.parts))
        return sp.csr_matrix((val, (row, col)), shape=(self.size, width)), rhs


def assemble(spec: ProblemSpec, k: int) -> ConicProgram:
    """Build the order-k conic relaxation of the projection instance.

    The columns are the head (vech(X) at order 1, the moment vector of
    half-degree k from order 2 on), then gamma, then for the one and inf
    norms the bound T on |X - C| (vech order).  Order 1 is the doubly
    nonnegative relaxation: vech(X) is held entrywise nonnegative by rows at
    the head of the nonnegative block and PSD by one order-n block.  Order
    k >= 2 holds the moment vector under the sphere equalities and the
    n + 1 moment PSD blocks.  Every order shares the constraint and norm
    rows, and its PSD blocks go through the same svec-scaled map.
    """
    if k < 1:
        raise ValueError("relaxation order must be at least 1")
    n = spec.dim
    nbar = n * (n + 1) // 2
    iu, wgt = svec_index(n)
    off = iu[0] != iu[1]
    vcol = np.arange(nbar)
    eq, cone = _Rows(), _Rows()
    if k == 1:
        xcol = vcol  # vech(X) is the whole head
        width, psd_blocks = nbar, ((n, vcol, vcol),)
        cone.add(vcol, vcol, np.ones(nbar), np.zeros(nbar))
    else:
        xcol = 1 + n + vcol  # the degree-2 moments follow the n + 1 of degree <= 1
        moment_eq, moment_blocks = moment_cone_constraints(n, k)
        width = moment_eq.shape[1]
        coo = moment_eq.tocoo()
        eq.add(coo.row, coo.col, coo.data, np.zeros(moment_eq.shape[0]))
        psd_blocks = tuple((order, *entries.nonzero()) for order, entries in moment_blocks)

    g = width  # gamma column
    bound = spec.norm in ("one", "inf")
    t = g + 1  # the columns of vech(T), the entrywise bound on |X - C|
    N = t + nbar if bound else t

    # <A, X> == b rows, and <A, X> - b >= 0 rows at the nonnegative block:
    # <A, X> is vech(A) . vech(X) with the off-diagonal terms counted twice
    for rows, cons, sign in ((eq, spec.equalities, 1.0), (cone, spec.inequalities, -1.0)):
        W = np.array([vech(c.matrix) for c in cons]).reshape(len(cons), nbar)
        W[:, off] *= 2.0
        r, m = np.nonzero(W)
        rows.add(r, xcol[m], W[r, m], sign * np.array([c.rhs for c in cons]))
    if bound:
        # T - (X - C) >= 0 and T + (X - C) >= 0, then gamma >= sum_i T_ij,
        # where entry m = (a, b) enters the column sums a and b (once if a == b)
        c = vech(spec.C)
        cone.add(
            np.tile(np.arange(2 * nbar), 2),
            np.concatenate([t + np.tile(vcol, 2), np.tile(xcol, 2)]),
            np.concatenate([np.ones(2 * nbar), np.repeat([-1.0, 1.0], nbar)]),
            np.concatenate([c, -c]),
        )
        j, m = np.concatenate([iu[0], iu[1][off]]), np.concatenate([vcol, vcol[off]])
        cone.add(
            np.concatenate([np.arange(n), j]),
            np.concatenate([np.full(n, g), t + m]),
            np.concatenate([np.ones(n), np.full(j.size, -1.0)]),
            np.zeros(n),
        )
    blocks = [ConeBlock("nonneg", cone.size)] if cone.size else []

    if spec.norm == "fro":
        # (gamma, svec(X - C)) in the second-order cone
        cone.add(
            np.arange(nbar + 1),
            np.concatenate([[g], xcol]),
            np.concatenate([[1.0], wgt]),
            np.concatenate([[0.0], -wgt * vech(spec.C)]),
        )
        blocks.append(ConeBlock("soc", nbar + 1))
    elif spec.norm == "two":
        # [[gamma I, X - C], [X - C, gamma I]] PSD: gamma on the diagonal,
        # X - C in the corner rows a < n <= b, zero elsewhere
        (a, b), wp = svec_index(2 * n)
        diag, corner = np.flatnonzero(a == b), np.flatnonzero((a < n) & (b >= n))
        i, j = a[corner], b[corner] - n
        pos = svec_gather(n)[1]  # the vech position of each entry (i, j)
        offset = np.zeros(wp.size)
        offset[corner] = -wp[corner] * spec.C[i, j]
        cone.add(
            np.concatenate([diag, corner]),
            np.concatenate([np.full(2 * n, g), xcol[pos[i, j]]]),
            np.concatenate([np.ones(2 * n), wp[corner]]),
            offset,
        )
        blocks.append(ConeBlock("psd", wp.size, 2 * n))

    for order, row, col in psd_blocks:
        w = svec_index(order)[1]
        cone.add(row, col, w[row], np.zeros(w.size))
        blocks.append(ConeBlock("psd", w.size, order))

    objective = np.zeros(N)
    objective[g] = 1.0
    eq_map, eq_rhs = eq.csr(N)
    cone_map, cone_offset = cone.csr(N)
    return ConicProgram(
        objective, eq_map, eq_rhs, cone_map, cone_offset, tuple(blocks), {"X": xcol, "gamma": g}
    )


@dataclass(frozen=True, eq=False)
class RelaxationSolution:
    """Mapped-back solution of one relaxation order."""

    matrix: np.ndarray
    gamma: float
    conic: ConicSolution


def map_solution(prog: ConicProgram, sol: ConicSolution) -> RelaxationSolution:
    """Read the matrix X and the distance gamma off a conic solution."""
    if sol.primal is None:
        raise ValueError(f"solution with status {sol.status!r} carries no point")
    xt = sol.primal
    return RelaxationSolution(vech_inv(xt[prog.info["X"]]), float(xt[prog.info["gamma"]]), sol)


def solve_relaxation(
    spec: ProblemSpec, k: int, settings: SolverSettings | None = None
) -> tuple[ConicProgram, ConicSolution]:
    """Assemble and solve one order; returns (program, conic solution).

    At order 1 the tolerance is tightened to at most DNN_TOL.
    """
    st = settings or SolverSettings()
    if k == 1:
        st = replace(st, tol=min(st.tol, DNN_TOL))
    prog = assemble(spec, k)
    return prog, conic_solve(prog, st)


def check_weak_duality(rsol: RelaxationSolution) -> bool:
    """The primal distance bound should never undercut the dual objective."""
    dual = rsol.conic.dual_obj
    return dual is None or rsol.gamma >= dual - WEAK_DUALITY_TOL


def project_dnn(C: np.ndarray, norm: str = "fro") -> tuple[float, np.ndarray]:
    """Project C onto the doubly nonnegative cone (PSD with no negative
    entries) in the Frobenius or spectral norm; returns (distance, matrix).

    This is the order-1 relaxation of the unconstrained instance.  For
    matrices of size up to 4 the doubly nonnegative cone coincides with the
    completely positive cone, which makes this a reference for small
    projection instances.
    """
    if norm not in ("fro", "two"):
        raise ValueError("reference projection supports norms 'fro' and 'two'")
    prog, sol = solve_relaxation(ProblemSpec(C, norm), 1)
    if sol.status != "optimal":
        raise RuntimeError(f"reference projection did not converge: {sol.status}")
    rsol = map_solution(prog, sol)
    return rsol.gamma, rsol.matrix
