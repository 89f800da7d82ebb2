"""Assembly of the order-k projection relaxation as a conic program.

An instance asks for the matrix nearest to C, in one of the matrix norms
handled by `cpproj.norms`, among completely positive matrices satisfying
affine trace constraints <A_i, X> = b_i or >= b_i.  Membership of X in the
completely positive cone is relaxed by one ladder of conic programs,
indexed by the order k, that share the constraint, split and norm rows.
Order 1 is the doubly nonnegative (DNN) relaxation: X entrywise
nonnegative and PSD.  Order k >= 2 uses the moment-sequence description
from `cpproj.polybasis`: X is identified with the degree-2 slice of a moment
vector s that satisfies the sphere equalities and the PSD block conditions
of order k.  CP lies inside every rung, so each optimal value bounds the
projection distance from below, and from order 2 on the values grow with
k toward it; certification at finite k happens downstream, through a
direct nonnegative factorization of the optimal matrix.

The norm objective turns into standard conic epigraphs:

  fro        one second-order block (gamma, sqrt-2-weighted entry residuals)
  two        one PSD block [[gamma I, X - C], [X - C, gamma I]]
  one / inf  an entrywise split X - C = Y+ - Y- plus per-column sum bounds
             (the two norms coincide on symmetric matrices, so they share
             the same reformulation)
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .conic import (
    ConeBlock,
    ConicProgram,
    ConicSolution,
    SolverSettings,
    solve as conic_solve,
)
from .norms import NORM_KINDS
from .polybasis import moment_cone_constraints, symmetric, vech, vech_inv, weighted_vech

__all__ = [
    "LinearConstraint",
    "ProblemSpec",
    "RelaxationSolution",
    "assemble",
    "map_solution",
    "solve_relaxation",
    "check_weak_duality",
    "project_dnn",
]

_SQRT2 = math.sqrt(2.0)
# the DNN program is small and well conditioned, so its solve is held to a
# decade below the engine's default: at 1e-7 its X is only about sqrt(gap)
# accurate
DNN_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class LinearConstraint:
    """<matrix, X> == rhs (kind "eq") or <matrix, X> >= rhs (kind "ineq")."""

    matrix: np.ndarray
    rhs: float
    kind: str = "eq"

    def __post_init__(self) -> None:
        if self.kind not in ("eq", "ineq"):
            raise ValueError(f"constraint kind must be 'eq' or 'ineq', got {self.kind!r}")
        A = symmetric(self.matrix)
        object.__setattr__(self, "matrix", A)
        object.__setattr__(self, "rhs", float(self.rhs))


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


def _vech_index(n: int, i: int, j: int) -> int:
    if i > j:
        i, j = j, i
    return i * n - i * (i + 1) // 2 + j


class _ConeRows:
    """Accumulates cone rows as triplets plus offsets and block descriptors."""

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.vals: list[float] = []
        self.offsets: list[float] = []
        self.blocks: list[ConeBlock] = []
        self.at = 0

    def add_row(self, cols, vals, offset=0.0):
        for c, v in zip(cols, vals):
            self.rows.append(self.at)
            self.cols.append(c)
            self.vals.append(float(v))
        self.offsets.append(float(offset))
        self.at += 1

    def add_sparse(self, mat: sp.spmatrix, scale: Optional[np.ndarray] = None):
        """Append the rows of `mat`, whose columns are the leading columns,
        each row i times scale[i]."""
        coo = mat.tocoo()
        data = coo.data if scale is None else scale[coo.row] * coo.data
        self.rows.extend((coo.row + self.at).tolist())
        self.cols.extend(coo.col.tolist())
        self.vals.extend(data.tolist())
        self.offsets.extend([0.0] * mat.shape[0])
        self.at += mat.shape[0]

    def close_block(self, kind: str, order: int = 0):
        start = sum(b.size for b in self.blocks)
        size = self.at - start
        if size > 0:
            self.blocks.append(ConeBlock(kind, size, order))

    def matrices(self):
        mat = sp.csr_matrix(
            (self.vals, (self.rows, self.cols)), shape=(self.at, self.num_vars)
        )
        return mat, np.asarray(self.offsets), tuple(self.blocks)


def _columns(spec: ProblemSpec, head: str, size: int) -> tuple[dict[str, slice], int]:
    """Column layout and count: `head` in the first `size` columns, then
    gamma, then the split parts Y+ and Y- (vech order) for the one and inf
    norms."""
    nbar = spec.dim * (spec.dim + 1) // 2
    layout = {head: slice(0, size), "gamma": slice(size, size + 1)}
    if spec.norm not in ("one", "inf"):
        return layout, size + 1
    layout["y_pos"] = slice(size + 1, size + 1 + nbar)
    layout["y_neg"] = slice(size + 1 + nbar, size + 1 + 2 * nbar)
    return layout, size + 1 + 2 * nbar


def _constraint_rows(
    spec: ProblemSpec,
    cone: _ConeRows,
    layout: dict[str, slice],
    x_off: int,
    moment_eq: sp.spmatrix,
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Rows every relaxation shares, with vech(X) in columns x_off + m.

    Returns the equality rows and their right-hand side: `moment_eq` (rows
    over the leading columns, right-hand side zero), the user's equalities,
    then the one/inf split X - C = Y+ - Y-.  Appends to `cone`
    the user's inequalities, Y+ >= 0, Y- >= 0 and the column-sum bounds
    gamma >= sum_i (Y+ + Y-)_ij; the caller closes that nonnegative block.
    """
    n = spec.dim
    nbar = n * (n + 1) // 2
    g = layout["gamma"].start
    split = spec.norm in ("one", "inf")
    coo = moment_eq.tocoo()
    rows, cols, vals = coo.row.tolist(), coo.col.tolist(), coo.data.tolist()
    r = moment_eq.shape[0]
    rhs = [0.0] * r
    for con in spec.equalities:
        w = weighted_vech(con.matrix)
        for m in range(nbar):
            if w[m] != 0.0:
                rows.append(r)
                cols.append(x_off + m)
                vals.append(w[m])
        rhs.append(con.rhs)
        r += 1
    if split:
        cvech = vech(spec.C)
        yp, yn = layout["y_pos"].start, layout["y_neg"].start
        for m in range(nbar):
            rows.extend([r, r, r])
            cols.extend([x_off + m, yp + m, yn + m])
            vals.extend([1.0, -1.0, 1.0])
            rhs.append(cvech[m])
            r += 1

    for con in spec.inequalities:
        w = weighted_vech(con.matrix)
        nz = np.nonzero(w)[0]
        cone.add_row(x_off + nz, w[nz], offset=-con.rhs)
    if split:
        for m in range(nbar):
            cone.add_row([yp + m], [1.0])
        for m in range(nbar):
            cone.add_row([yn + m], [1.0])
        pairs = [(a, b) for a in range(n) for b in range(a, n)]
        for j in range(n):
            cs, vs = [g], [1.0]
            for m, (a, b) in enumerate(pairs):
                if j in (a, b):
                    cs.extend([yp + m, yn + m])
                    vs.extend([-1.0, -1.0])
            cone.add_row(cs, vs)
    eq = sp.csr_matrix((vals, (rows, cols)), shape=(r, cone.num_vars))
    return eq, np.asarray(rhs, dtype=float)


def _x_offset(n: int, k: int) -> int:
    """Column of vech(X) in the order-k program: the degree-2 moments follow
    the n + 1 moments of degree <= 1 at order k >= 2, and are the whole head
    at order 1."""
    return 0 if k == 1 else 1 + n


def assemble(spec: ProblemSpec, k: int) -> ConicProgram:
    """Build the order-k conic relaxation of the projection instance.

    Order 1 is the doubly nonnegative relaxation: its head columns are
    vech(X), held entrywise nonnegative by rows at the head of the
    nonnegative block and PSD by one order-n block.  Order k >= 2 holds the
    moment vector of half-degree k under the sphere equalities and the
    n + 1 moment PSD blocks.  Every order shares the constraint, split and
    norm rows, and its PSD blocks go through the same svec-scaled map.
    """
    if k < 1:
        raise ValueError("relaxation order must be at least 1")
    n = spec.dim
    nbar = n * (n + 1) // 2
    if k == 1:
        eye = sp.identity(nbar, format="coo")
        moment_eq, head_nonneg, psd_blocks = sp.coo_matrix((0, nbar)), eye, ((n, eye),)
    else:
        moment_eq, psd_blocks = moment_cone_constraints(n, k)
        head_nonneg = sp.coo_matrix((0, moment_eq.shape[1]))
    L = moment_eq.shape[1]
    x_off = _x_offset(n, k)

    layout, N = _columns(spec, "vech" if k == 1 else "tms", L)
    g = L  # gamma column

    objective = np.zeros(N)
    objective[g] = 1.0

    cone = _ConeRows(N)
    cone.add_sparse(head_nonneg)
    eq_map, eq_vec = _constraint_rows(spec, cone, layout, x_off, moment_eq)
    cone.close_block("nonneg")

    if spec.norm in ("fro", "two"):
        _append_norm_block(cone, spec.norm, spec.C, g, x_off)

    for order, entries in psd_blocks:
        scale = np.array(
            [1.0 if a == b else _SQRT2 for a in range(order) for b in range(a, order)]
        )
        cone.add_sparse(entries, scale)
        cone.close_block("psd", order=order)

    cone_map, cone_offset, blocks = cone.matrices()
    return ConicProgram(
        objective=objective,
        eq_map=eq_map,
        eq_rhs=eq_vec,
        cone_map=cone_map,
        cone_offset=cone_offset,
        cone_blocks=blocks,
        layout=layout,
        info={"n": n, "k": k, "norm": spec.norm},
    )


def _append_norm_block(
    cone: _ConeRows, norm: str, C: np.ndarray, g: int, x_off: int
) -> None:
    """Append the epigraph block gamma >= ||X - C|| for norm "fro" or "two".

    Column g holds gamma and columns x_off + m hold vech(X).
    """
    n = C.shape[0]
    if norm == "fro":
        cvech = vech(C)
        cone.add_row([g], [1.0])
        for m, (a, b) in enumerate((a, b) for a in range(n) for b in range(a, n)):
            wgt = _SQRT2 if a != b else 1.0
            cone.add_row([x_off + m], [wgt], offset=-wgt * cvech[m])
        cone.close_block("soc")
        return
    p = 2 * n
    for rr in range(p):
        for cc in range(rr, p):
            if rr == cc:
                cone.add_row([g], [1.0])
            elif rr < n <= cc:
                i, j = rr, cc - n
                cone.add_row(
                    [x_off + _vech_index(n, i, j)], [_SQRT2], offset=-_SQRT2 * C[i, j]
                )
            else:
                cone.add_row([], [])
    cone.close_block("psd", order=p)


@dataclass(frozen=True, eq=False)
class RelaxationSolution:
    """Mapped-back solution of one relaxation order."""

    matrix: np.ndarray
    gamma: float
    dual_objective: Optional[float]
    conic: ConicSolution

    @property
    def status(self) -> str:
        return self.conic.status


def map_solution(prog: ConicProgram, sol: ConicSolution) -> RelaxationSolution:
    """Read the matrix X and the distance gamma off a conic solution."""
    if sol.primal is None:
        raise ValueError(f"solution with status {sol.status!r} carries no point")
    n = int(prog.info["n"])
    x_off = _x_offset(n, int(prog.info["k"]))
    xt = sol.primal
    return RelaxationSolution(
        matrix=vech_inv(xt[x_off : x_off + n * (n + 1) // 2]),
        gamma=float(xt[prog.layout["gamma"]][0]),
        dual_objective=sol.dual_obj,
        conic=sol,
    )


def solve_relaxation(
    spec: ProblemSpec, k: int, settings: SolverSettings | None = None
) -> tuple[ConicProgram, ConicSolution]:
    """Assemble and solve one order; returns (program, conic solution).

    At order 1 both tolerances are tightened to at most DNN_TOL and
    `max_iters` is kept.
    """
    st = settings or SolverSettings()
    if k == 1:
        st = replace(st, tol_feas=min(st.tol_feas, DNN_TOL), tol_gap=min(st.tol_gap, DNN_TOL))
    prog = assemble(spec, k)
    return prog, conic_solve(prog, st)


def check_weak_duality(rsol: RelaxationSolution, tol: float = 1e-7) -> bool:
    """The primal distance bound should never undercut the dual objective."""
    if rsol.dual_objective is None:
        return True
    return rsol.gamma >= rsol.dual_objective - tol


def project_dnn(
    C: np.ndarray,
    norm: str = "fro",
    settings: SolverSettings | None = None,
) -> tuple[float, np.ndarray]:
    """Project C onto the doubly nonnegative cone (PSD with no negative
    entries) in the Frobenius or spectral norm; returns (distance, matrix).

    This is the order-1 relaxation of the unconstrained instance.  For
    matrices of size up to 4 the doubly nonnegative cone coincides with the
    completely positive cone, which makes this a reference for small
    projection instances.
    """
    if norm not in ("fro", "two"):
        raise ValueError("reference projection supports norms 'fro' and 'two'")
    prog, sol = solve_relaxation(ProblemSpec(C, norm), 1, settings)
    if sol.status != "optimal":
        raise RuntimeError(f"reference projection did not converge: {sol.status}")
    rsol = map_solution(prog, sol)
    return rsol.gamma, rsol.matrix
