"""Graded-lex monomial index and the moment-cone rows built on it.

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
(`moment_cone_constraints`) and reads X off its degree-2 slice (`vech_columns`).
"""
from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np
import scipy.sparse as sp

from .conic import svec_index

__all__ = ["moment_cone_constraints", "vech_columns"]


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


def vech_columns(n: int) -> np.ndarray:
    """The positions of the monomials x_a x_b, in the order (a, b) of
    `conic.svec_index(n)`, at which a moment vector holds vech(X): the
    degree-2 block, after the 1 + n monomials of degree <= 1."""
    return 1 + n + np.arange(n * (n + 1) // 2)


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
    `entries` is the r-th position (a, b) of `conic.svec_index` and picks
    s[alpha_a + alpha_b + shift].
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
        a, b = svec_index(len(rows))[0]
        entries = sp.csr_matrix(
            (np.ones(a.size), (np.arange(a.size), columns(rows[a] + rows[b] + shift))),
            shape=(a.size, len(index)),
        )
        blocks.append((len(rows), entries))
    return equality, tuple(blocks)
