"""Assembly of the order-k projection relaxation as a conic program.

An instance asks for the matrix nearest to C, in one of the matrix norms of
`NORM_KINDS` (evaluated by `p_norm`), among completely positive matrices
satisfying affine trace constraints <A_i, X> = b_i or >= b_i; C and every
A_i pass `symmetric`, which rejects non-finite or asymmetric input.
Membership of X in the completely positive cone is relaxed by one ladder of
conic programs indexed by the order k, all built by one formula, `_rung`:
order k is the dual of Parrilo's cone K^(r), r = k - 1, of the matrices M
for which (sum_i u_i^2)^r sum_ij M_ij u_i^2 u_j^2 is a sum of squares.  Its
columns are the moments z_beta, |beta| = r + 2, of a measure on the
nonnegative orthant, under one PSD block per parity class of the monomials
of degree r + 2 in u, and X is their linear image vech(X) = P z, not a
variable of its own (Parrilo 2000; Bomze and de Klerk 2002).  So every
index the rung builds runs over the monomials of one degree, which
`_monomials` lists.  K^(0) is PSD + nonnegative, whose dual is DNN: at
order 1, P is the identity and the rung is X PSD with nonnegative
off-diagonal entries, the doubly nonnegative (DNN) relaxation.  K^(r)
grows with r, so CP lies inside every rung and each rung inside the one
below it: the optimal values bound the projection distance from below and
never fall from one order to the next.  Every order solves at the one
tolerance it is given, and `order_name` names the orders.  Certification
happens downstream, by a nonnegative factorization.

Every rung shares the constraint and norm rows, built once over
[vech(X) | gamma | T], each entry at a column of vech(X) spread over that
column's row of P.  The norm objective turns into standard conic epigraphs:

  fro        one second-order block (gamma, svec(X - C))
  two        one PSD block [[gamma I, X - C], [X - C, gamma I]]
  one / inf  a symmetric bound T >= |X - C| entrywise and gamma >= sum_i T_ij
             for every column j (the two norms coincide on symmetric
             matrices, so they share the same reformulation)

Each block of rows is built whole from numpy index arrays and appended to
a coordinate-array row builder, `_Rows`, one per map, each making a single
CSR matrix; every svec weight comes from `conic.svec_index`.  `assemble`
records P and the column of gamma in the program's `info` ("P", "gamma"),
which the solver never reads, for `map_solution`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .conic import ConeBlock, ConicProgram, ConicSolution, SolverSettings
from .conic import solve as conic_solve, svec_gather, svec_index, vech, vech_inv

__all__ = [
    "NORM_KINDS", "LinearConstraint", "ProblemSpec", "RelaxationSolution", "assemble",
    "map_solution", "order_name", "solve_relaxation", "check_weak_duality", "project_dnn",
    "p_norm", "symmetric",
]

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

    def __init__(self) -> None:  # one empty part, so a map of no rows still concatenates
        self.parts, self.size = [(np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0),) * 2], 0

    def add(self, row, col, val, rhs) -> None:
        """Append len(rhs) rows; val[t] goes to (row[t], col[t]) of the new block."""
        self.parts.append((self.size + row, col, val, rhs))
        self.size += len(rhs)

    def csr(self, width: int) -> tuple[sp.csr_matrix, np.ndarray]:
        row, col, val, rhs = map(np.concatenate, zip(*self.parts))
        return sp.csr_matrix((val, (row, col)), shape=(self.size, width)), rhs


class _Rung(NamedTuple):
    """One order's part of the program: its moment count, vech(X) = P z as
    the (n(n+1)/2, g) moment columns of P's rows and their g weights (every
    row has the same), the moments held nonnegative, the (order, moment per
    svec row) of each PSD block."""

    size: int
    P: np.ndarray
    weights: np.ndarray
    nonneg: np.ndarray
    psd: tuple


def order_name(k: int, article: bool = False) -> str:
    """Order k as events (and, with `article`, summaries) name it."""
    return ("the DNN relaxation" if article else "DNN relaxation") if k == 1 else f"order {k}"


def _monomials(n: int, d: int) -> np.ndarray:
    """The (C(n + d - 1, d), n) exponents of the n-variate monomials of
    degree exactly d, lexicographically with the first variable ranked
    highest, which is the lexicographic order of the multisets of
    variables."""
    return np.array(
        [[c.count(i) for i in range(n)] for c in combinations_with_replacement(range(n), d)],
        dtype=np.int64,
    ).reshape(-1, n)


@lru_cache(maxsize=None)
def _rung(n: int, k: int) -> _Rung:
    """The order-k rung for an n x n X, read-only as the cache shares it: the
    dual of Parrilo's cone K^(r), r = k - 1, over the moments z_beta, one per
    row of `_monomials(n, r + 2)`, in its order.  Row (a, b) of P
    is sum_{|gamma| = r} (r!/gamma!) z_{e_a + e_b + gamma}.  Per parity class
    p in {0, 1}^n with |p| = r mod 2 and |p| <= r + 2, the PSD block
    [z_{p + gamma_a + gamma_b}] runs over the exponents gamma of degree
    (r + 2 - |p|) / 2, and its svec row (a, b) picks that z; a block of
    order 1 is a nonnegative z instead.  At r = 0 (DNN) P is the identity,
    since the degree-2 monomials are vech's pairs, the class 0 gives the
    order-n block and the classes of size 2 the off-diagonal entries."""
    if k < 1:
        raise ValueError("relaxation order must be at least 1")
    r = k - 1
    index = {a: i for i, a in enumerate(map(tuple, _monomials(n, r + 2).tolist()))}

    def columns(alphas: np.ndarray) -> np.ndarray:
        return np.array([index[a] for a in map(tuple, alphas.reshape(-1, n).tolist())])

    eye = np.eye(n, dtype=np.int64)
    a, b = svec_index(n)[0]
    gammas = _monomials(n, r)
    weights = np.array([math.factorial(r) / math.prod(map(math.factorial, g)) for g in gammas])
    P = columns((eye[a] + eye[b])[:, None] + gammas).reshape(a.size, -1)
    single, psd = [], []
    for size in range(r % 2, min(r + 2, n) + 1, 2):
        gammas = _monomials(n, (r + 2 - size) // 2)
        i, j = svec_index(len(gammas))[0]
        for p in combinations(range(n), size):
            col = columns(eye[list(p)].sum(axis=0) + gammas[i] + gammas[j])
            if len(gammas) == 1:
                single.extend(col)
            else:
                psd.append((len(gammas), col))
    nonneg = np.array(single, dtype=np.int64)
    rung = _Rung(len(index), P, weights, nonneg, tuple(psd))
    for arr in (P, weights, nonneg, *(col for _, col in rung.psd)):
        arr.setflags(write=False)
    return rung


def assemble(spec: ProblemSpec, k: int) -> ConicProgram:
    """Build the order-k conic relaxation of the projection instance.

    The columns are the order's moments z (see `_rung`), gamma, and for the
    one and inf norms the bound T on |X - C| (vech order).  The rung's
    nonnegative rows come first and its PSD blocks last; the constraint and
    norm rows between are built over [vech(X) | gamma | T] and reach z
    through vech(X) = P z.
    """
    n = spec.dim
    rung = _rung(n, k)
    nbar = n * (n + 1) // 2
    iu, wgt = svec_index(n)
    off = iu[0] != iu[1]
    vcol = np.arange(nbar)
    bound = spec.norm in ("one", "inf")
    g, t = nbar, nbar + 1  # gamma, and the columns of vech(T), in [vech(X) | gamma | T]
    N = rung.size + 1 + (nbar if bound else 0)
    eq, cone = _Rows(), _Rows()
    held = rung.nonneg.size
    cone.add(np.arange(held), rung.nonneg, np.ones(held), np.zeros(held))

    def shared(rows: _Rows, row, col, val, rhs) -> None:
        # an entry at a column of vech(X) spreads over that column's row of P
        x = col < nbar
        rows.add(
            np.concatenate([np.repeat(row[x], rung.weights.size), row[~x]]),
            np.concatenate([rung.P[col[x]].ravel(), col[~x] + rung.size - nbar]),
            np.concatenate([np.outer(val[x], rung.weights).ravel(), val[~x]]),
            rhs,
        )

    # <A, X> == b rows, and <A, X> - b >= 0 rows at the nonnegative block:
    # <A, X> is vech(A) . vech(X) with the off-diagonal terms counted twice
    for rows, cons, sign in ((eq, spec.equalities, 1.0), (cone, spec.inequalities, -1.0)):
        W = np.array([vech(c.matrix) for c in cons]).reshape(len(cons), nbar)
        W[:, off] *= 2.0
        r, m = np.nonzero(W)
        shared(rows, r, m, W[r, m], sign * np.array([c.rhs for c in cons]))
    if bound:
        # T - (X - C) >= 0 and T + (X - C) >= 0, then gamma >= sum_i T_ij,
        # where entry m = (a, b) enters the column sums a and b (once if a == b)
        c = vech(spec.C)
        shared(
            cone,
            np.tile(np.arange(2 * nbar), 2),
            np.concatenate([t + np.tile(vcol, 2), np.tile(vcol, 2)]),
            np.concatenate([np.ones(2 * nbar), np.repeat([-1.0, 1.0], nbar)]),
            np.concatenate([c, -c]),
        )
        j, m = np.concatenate([iu[0], iu[1][off]]), np.concatenate([vcol, vcol[off]])
        shared(
            cone,
            np.concatenate([np.arange(n), j]),
            np.concatenate([np.full(n, g), t + m]),
            np.concatenate([np.ones(n), np.full(j.size, -1.0)]),
            np.zeros(n),
        )
    blocks = [ConeBlock("nonneg", cone.size)] if cone.size else []

    if spec.norm == "fro":
        # (gamma, svec(X - C)) in the second-order cone
        shared(
            cone,
            np.arange(nbar + 1),
            np.concatenate([[g], vcol]),
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
        shared(
            cone,
            np.concatenate([diag, corner]),
            np.concatenate([np.full(2 * n, g), pos[i, j]]),
            np.concatenate([np.ones(2 * n), wp[corner]]),
            offset,
        )
        blocks.append(ConeBlock("psd", wp.size, 2 * n))

    for order, col in rung.psd:
        w = svec_index(order)[1]
        cone.add(np.arange(w.size), col, w, np.zeros(w.size))
        blocks.append(ConeBlock("psd", w.size, order))

    objective = np.zeros(N)
    objective[rung.size] = 1.0
    eq_map, eq_rhs = eq.csr(N)
    cone_map, cone_offset = cone.csr(N)
    info = {"P": (rung.P, rung.weights), "gamma": rung.size}
    return ConicProgram(objective, eq_map, eq_rhs, cone_map, cone_offset, tuple(blocks), info)


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
    xt, (P, weights) = sol.primal, prog.info["P"]
    return RelaxationSolution(vech_inv(xt[P] @ weights), float(xt[prog.info["gamma"]]), sol)


def solve_relaxation(
    spec: ProblemSpec, k: int, settings: SolverSettings | None = None
) -> tuple[ConicProgram, ConicSolution]:
    """Assemble and solve one order at `settings` (the solver's default if
    None), whatever the order; returns (program, conic solution)."""
    prog = assemble(spec, k)
    return prog, conic_solve(prog, settings or SolverSettings())


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
