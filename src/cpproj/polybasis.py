"""Monomial bases, symmetric-matrix vectorizations, and truncated moment sequences.

Monomials are exponent tuples ordered graded-lexicographically: total degree
first, ties broken lexicographically with the first variable ranked highest.
Everything downstream (moment matrices, truncations, the identification of a
symmetric matrix with its degree-2 moment block) leans on the fact that the
basis of degree <= d is a prefix of the basis of degree <= d' for d <= d'.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "SymMatrix",
    "basis_size",
    "monomials_up_to",
    "vech",
    "vech_inv",
    "weighted_vech",
    "matrix_of_etms",
    "moments_of_atoms",
]


def basis_size(n: int, d: int) -> int:
    """Number of n-variate monomials of degree <= d."""
    return math.comb(n + d, d)


@dataclass(frozen=True)
class Monomial:
    """A single monomial, stored as its exponent tuple."""

    alpha: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(a < 0 for a in self.alpha):
            raise ValueError(f"negative exponent in {self.alpha}")

    @property
    def degree(self) -> int:
        return sum(self.alpha)

    @property
    def n(self) -> int:
        return len(self.alpha)


def _degree_block(total: int, n: int) -> Iterator[tuple[int, ...]]:
    # exponent tuples of fixed total degree, lexicographically descending
    if n == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _degree_block(total - first, n - 1):
            yield (first,) + rest


@dataclass(frozen=True, eq=False)
class MonomialBasis:
    """All monomials of degree <= d in n variables, graded-lex ordered."""

    n: int
    d: int
    monomials: tuple[Monomial, ...]
    exponents: np.ndarray  # (len, n) int array, row i = monomials[i].alpha
    _index: Mapping[tuple[int, ...], int]

    def __len__(self) -> int:
        return len(self.monomials)

    def position(self, alpha: Monomial | Sequence[int]) -> int:
        """Index of a monomial in this basis; raises for unindexed monomials."""
        key = tuple(alpha.alpha) if isinstance(alpha, Monomial) else tuple(alpha)
        try:
            return self._index[key]
        except KeyError:
            raise ValueError(
                f"monomial {key} is not indexed by the basis (n={self.n}, d={self.d})"
            ) from None


@lru_cache(maxsize=None)
def monomials_up_to(n: int, d: int) -> MonomialBasis:
    """Graded-lex basis of the n-variate monomials of degree <= d."""
    if n < 1:
        raise ValueError("need at least one variable")
    if d < 0:
        raise ValueError("degree bound must be nonnegative")
    alphas: list[tuple[int, ...]] = []
    for total in range(d + 1):
        alphas.extend(_degree_block(total, n))
    exps = np.array(alphas, dtype=np.int64).reshape(len(alphas), n)
    exps.setflags(write=False)
    index = {a: i for i, a in enumerate(alphas)}
    return MonomialBasis(
        n=n,
        d=d,
        monomials=tuple(Monomial(a) for a in alphas),
        exponents=exps,
        _index=index,
    )


class SymMatrix:
    """A real symmetric matrix; off-diagonal symmetry is exact by construction.

    The lower triangle is mirrored from the upper one at construction time, so
    values[i, j] == values[j, i] holds bitwise.  Input asymmetry beyond `tol`
    is rejected rather than silently averaged away.
    """

    __slots__ = ("values",)

    def __init__(self, values, tol: float = 1e-12):
        arr = np.array(values, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        skew = np.abs(arr - arr.T).max(initial=0.0)
        if skew > tol * max(1.0, np.abs(arr).max(initial=0.0)):
            raise ValueError(f"matrix is not symmetric (max asymmetry {skew:.3e})")
        upper = np.triu(arr)
        exact = upper + np.triu(arr, k=1).T
        exact.setflags(write=False)
        object.__setattr__(self, "values", exact)

    def __setattr__(self, name, value):
        raise AttributeError("SymMatrix is immutable")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        return SymMatrix(self.values - other.values)

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        return SymMatrix(self.values + other.values)

    def __repr__(self) -> str:
        return f"SymMatrix(n={self.n})"


def _as_sym(A) -> SymMatrix:
    return A if isinstance(A, SymMatrix) else SymMatrix(A)


def vech(A: SymMatrix | np.ndarray) -> np.ndarray:
    """Row-major upper-triangle vector (A11, A12, ..., A1n, A22, ..., Ann)."""
    A = _as_sym(A)
    iu = np.triu_indices(A.n)
    return A.values[iu].copy()


def vech_inv(v: np.ndarray, tol: float = 1e-12) -> SymMatrix:
    """Inverse of vech: rebuild the symmetric matrix from its upper triangle."""
    v = np.asarray(v, dtype=float).ravel()
    n = int(round((math.isqrt(8 * v.size + 1) - 1) / 2))
    if n * (n + 1) // 2 != v.size:
        raise ValueError(f"length {v.size} is not a triangular number")
    out = np.zeros((n, n))
    out[np.triu_indices(n)] = v
    out = out + np.triu(out, k=1).T
    return SymMatrix(out, tol=tol)


def weighted_vech(A: SymMatrix | np.ndarray) -> np.ndarray:
    """vech with off-diagonal entries doubled, so that
    weighted_vech(A) . vech(X) equals the trace inner product <A, X>."""
    A = _as_sym(A)
    n = A.n
    w = vech(A)
    iu, ju = np.triu_indices(n)
    w[iu != ju] *= 2.0
    return w


def _pair_positions(n: int) -> np.ndarray:
    # degree-2 monomials in graded-lex order are exactly the row-major
    # upper-triangle pairs (i, j), i <= j
    basis = monomials_up_to(n, 2)
    pairs = basis.exponents[1 + n :]
    assert pairs.shape[0] == n * (n + 1) // 2
    return pairs


@dataclass(frozen=True, eq=False)
class ETms(object):
    """Moment vector indexed by the degree-2 monomials only.

    The entry at exponent e_i + e_j is the (i, j) entry of the identified
    symmetric matrix, listed in vech (row-major upper-triangle) order.
    """

    n: int
    a: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.a, dtype=float).ravel()
        if arr.size != self.n * (self.n + 1) // 2:
            raise ValueError(
                f"expected {self.n * (self.n + 1) // 2} entries, got {arr.size}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "a", arr)


@dataclass(frozen=True, eq=False)
class Tms(object):
    """Truncated moment sequence of half-degree k: one entry per monomial of
    degree <= 2k, in graded-lex order (truncation is therefore a prefix)."""

    n: int
    k: int
    s: np.ndarray

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("half-degree k must be nonnegative")
        arr = np.array(self.s, dtype=float).ravel()
        want = basis_size(self.n, 2 * self.k)
        if arr.size != want:
            raise ValueError(f"expected {want} entries for (n={self.n}, k={self.k}), got {arr.size}")
        arr.setflags(write=False)
        object.__setattr__(self, "s", arr)

    def to_etms(self) -> ETms:
        """The degree-2 slice, identified with a symmetric matrix."""
        if self.k < 1:
            raise ValueError("need half-degree >= 1 for a degree-2 slice")
        lo = 1 + self.n
        return ETms(self.n, self.s[lo : lo + self.n * (self.n + 1) // 2])


def matrix_of_etms(a: ETms) -> SymMatrix:
    """The symmetric matrix identified with a degree-2 moment vector."""
    return vech_inv(a.a)


def moments_of_atoms(
    atoms: Iterable[Sequence[float]], weights: Iterable[float], k: int, n: int | None = None
) -> Tms:
    """Moment sequence of the atomic measure sum_i weights[i] * delta(atoms[i]).

    Degenerate case: no atoms gives the all-zero sequence (pass `n` then,
    since it cannot be inferred from an empty atom list).
    """
    pts_list = list(atoms)
    wts = np.asarray(list(weights), dtype=float).ravel()
    if len(pts_list) != wts.size:
        raise ValueError(f"{len(pts_list)} atoms but {wts.size} weights")
    if wts.size == 0:
        if n is None:
            raise ValueError("cannot infer the variable count from an empty measure")
        return Tms(n, k, np.zeros(basis_size(n, 2 * k)))
    pts = np.atleast_2d(np.asarray(pts_list, dtype=float))
    if n is not None and pts.shape[1] != n:
        raise ValueError(f"atoms have {pts.shape[1]} coordinates, expected {n}")
    n = pts.shape[1]
    exps = monomials_up_to(n, 2 * k).exponents
    # atom^alpha for every basis monomial at once; 0**0 == 1 covers alpha = 0
    powers = np.prod(pts[:, None, :] ** exps[None, :, :], axis=2)
    return Tms(n, k, wts @ powers)
