"""Graded-lex monomial index, the moment-cone rows built on it, and the
vectorizations of symmetric matrices.

Monomials are exponent tuples ordered graded-lexicographically: total degree
first, ties broken lexicographically with the first variable ranked highest.
Everything downstream (the moment vector's columns, the identification of a
symmetric matrix with its degree-2 moments) leans on the fact that the
basis of degree <= d is a prefix of the basis of degree <= d' for d <= d'.

The measures of interest live on the nonnegative part of the unit sphere, cut
out by the sphere residual sum(x_i^2) - 1 = 0 and the coordinate inequalities
x_j >= 0.  A truncated moment sequence is a candidate for such a measure when
its sphere-residual localizing matrix vanishes and the moment matrix together
with every coordinate localizing matrix is positive semidefinite; the
relaxation states these conditions as linear maps from the sequence
(`moment_cone_constraints`).
"""
from __future__ import annotations

import math
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np
import scipy.sparse as sp

from .conic import _svec_gather

__all__ = [
    "moment_cone_constraints",
    "symmetric",
    "vech",
    "vech_inv",
    "weighted_vech",
]


def _degree_block(total: int, n: int) -> Iterator[tuple[int, ...]]:
    # exponent tuples of fixed total degree, lexicographically descending
    if n == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _degree_block(total - first, n - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def monomials_up_to(n: int, d: int) -> np.ndarray:
    """Read-only (C(n + d, d), n) array: row i is the exponent of the i-th
    n-variate monomial of degree <= d in graded-lex order."""
    if n < 1:
        raise ValueError("need at least one variable")
    if d < 0:
        raise ValueError("degree bound must be nonnegative")
    alphas = [a for total in range(d + 1) for a in _degree_block(total, n)]
    exps = np.array(alphas, dtype=np.int64).reshape(len(alphas), n)
    exps.setflags(write=False)
    return exps


@lru_cache(maxsize=None)
def monomial_positions(n: int, d: int) -> Mapping[tuple[int, ...], int]:
    """Read-only map from exponent tuple to its row in `monomials_up_to(n, d)`;
    an unindexed monomial raises KeyError."""
    return MappingProxyType(
        {a: i for i, a in enumerate(map(tuple, monomials_up_to(n, d).tolist()))}
    )


@lru_cache(maxsize=None)
def moment_cone_constraints(
    n: int, k: int
) -> tuple[sp.csr_matrix, tuple[tuple[int, sp.csr_matrix], ...]]:
    """The order-k rows over the moment vector s (length C(n + 2k, 2k)).

    Returns `(equality, blocks)`.  `equality @ s == 0` are the sphere
    residual's localizer entries, deduplicated: they depend only on
    alpha + beta, so there is one row per monomial delta of degree
    <= 2(k - 1), sum_i s[delta + 2 e_i] - s[delta].  `blocks` holds
    `(order, entries)` for the moment matrix (the localizer of 1, half-order
    k) and then the localizers of x_1, ..., x_n (half-order k - 1): row r of
    `entries` is the r-th upper-triangle position (a, b), row-major, and
    picks s[alpha_a + alpha_b + shift].  The matrices' arrays are read-only.
    """
    if k < 1:
        raise ValueError("relaxation order must be at least 1")
    index = monomial_positions(n, 2 * k)

    def columns(exps: np.ndarray) -> list[int]:
        return [index[a] for a in map(tuple, exps.tolist())]

    eye = np.eye(n, dtype=np.int64)
    deltas = monomials_up_to(n, 2 * (k - 1))
    bumped = np.concatenate([deltas[:, None] + 2 * eye, deltas[:, None]], axis=1)
    equality = sp.csr_matrix(
        (
            np.tile(np.append(np.ones(n), -1.0), len(deltas)),
            (np.repeat(np.arange(len(deltas)), n + 1), columns(bumped.reshape(-1, n))),
        ),
        shape=(len(deltas), len(index)),
    )

    blocks = []
    for shift, half in [(np.zeros(n, dtype=np.int64), k)] + [(e, k - 1) for e in eye]:
        rows = monomials_up_to(n, half)
        a, b = np.triu_indices(len(rows))
        entries = sp.csr_matrix(
            (np.ones(a.size), (np.arange(a.size), columns(rows[a] + rows[b] + shift))),
            shape=(a.size, len(index)),
        )
        blocks.append((len(rows), entries))
    # the maps are shared through the cache, so no caller may edit them
    for mat in (equality, *(entries for _, entries in blocks)):
        for a in (mat.data, mat.indices, mat.indptr):
            a.setflags(write=False)
    return equality, tuple(blocks)


def symmetric(values) -> np.ndarray:
    """A read-only copy of a real symmetric matrix, exactly symmetric.

    The lower triangle is mirrored from the upper one by vech_inv(vech(.)),
    so out[i, j] == out[j, i] holds bitwise.  Input asymmetry beyond 1e-12
    (relative to the largest entry, or absolute below 1) is rejected rather
    than silently averaged away.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    skew = np.abs(arr - arr.T).max(initial=0.0)
    if skew > 1e-12 * max(1.0, np.abs(arr).max(initial=0.0)):
        raise ValueError(f"matrix is not symmetric (max asymmetry {skew:.3e})")
    return vech_inv(vech(arr))


def vech(A: np.ndarray) -> np.ndarray:
    """Row-major upper-triangle vector (A11, A12, ..., A1n, A22, ..., Ann),
    gathered through the index arrays that svec caches per order."""
    return A.take(_svec_gather(A.shape[0])[0])


def vech_inv(v: np.ndarray) -> np.ndarray:
    """Inverse of vech: rebuild the (read-only) symmetric matrix from its
    upper triangle."""
    v = np.asarray(v, dtype=float).ravel()
    n = int(round((math.isqrt(8 * v.size + 1) - 1) / 2))
    if n * (n + 1) // 2 != v.size:
        raise ValueError(f"length {v.size} is not a triangular number")
    # + 0.0 maps -0.0 to 0.0, as a sum of the two triangles would
    out = (v + 0.0).take(_svec_gather(n)[1])
    out.setflags(write=False)
    return out


def weighted_vech(A: np.ndarray) -> np.ndarray:
    """vech with off-diagonal entries doubled, so that
    weighted_vech(A) . vech(X) equals the trace inner product <A, X>."""
    w = vech(A)
    w[_svec_gather(A.shape[0])[2] != 1.0] *= 2.0
    return w
