"""The moment-cone constraints of the order-k relaxation.

The measures of interest live on the nonnegative part of the unit sphere, cut
out by the sphere residual sum(x_i^2) - 1 = 0 and the coordinate inequalities
x_j >= 0.  A truncated moment sequence is a candidate for such a measure when
its sphere-residual localizing matrix vanishes and the moment matrix together
with every coordinate localizing matrix is positive semidefinite; the
relaxation states these conditions as linear maps from the sequence
(`moment_cone_constraints`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np
import scipy.sparse as sp

from .polybasis import basis_size, monomials_up_to

__all__ = ["moment_cone_constraints"]


@dataclass(frozen=True, eq=False)
class LocalizingSpec:
    """A polynomial q together with the relaxation order its localizer uses.

    The localizing matrix rows/columns are indexed by monomials of degree
    <= k - ceil(deg q / 2), so that every entry stays within degree 2k.
    """

    name: str
    poly: Mapping[tuple[int, ...], float]
    n: int
    k: int

    @property
    def degree(self) -> int:
        return max((sum(a) for a in self.poly), default=0)

    @property
    def half_order(self) -> int:
        return self.k - (self.degree + 1) // 2

    @property
    def size(self) -> int:
        return basis_size(self.n, self.half_order)

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("relaxation order must be nonnegative")
        if self.half_order < 0:
            raise ValueError(
                f"polynomial degree {self.degree} exceeds relaxation order {self.k}"
            )


def unit_spec(n: int, k: int) -> LocalizingSpec:
    """The constant-one localizer; its matrix is the order-k moment matrix."""
    return LocalizingSpec("unit", {(0,) * n: 1.0}, n, k)


def coordinate_spec(n: int, j: int, k: int) -> LocalizingSpec:
    """x_j, the localizer for the j-th coordinate nonnegativity (0-based j)."""
    if not 0 <= j < n:
        raise ValueError(f"coordinate index {j} out of range for n={n}")
    return LocalizingSpec(
        f"coordinate_{j}", {tuple(1 if i == j else 0 for i in range(n)): 1.0}, n, k
    )


@dataclass(frozen=True, eq=False)
class PsdBlockMap:
    """Linear map from moment-sequence entries to one PSD matrix block.

    `entries` has one row per upper-triangle position (row-major), over the
    full moment vector of half-degree k.
    """

    name: str
    order: int
    entries: sp.csr_matrix


@dataclass(frozen=True, eq=False)
class MomentConeSystem:
    """Linear description of the order-k membership relaxation.

    A sequence s (length C(n + 2k, 2k)) lies in the relaxed cone iff
    equality @ s == 0 and, for every block, the symmetric matrix with
    upper-triangle block.entries @ s is positive semidefinite.
    """

    n: int
    k: int
    equality: sp.csr_matrix
    psd_blocks: tuple[PsdBlockMap, ...]


def _triu_pairs(order: int):
    for a in range(order):
        for b in range(a, order):
            yield a, b


@lru_cache(maxsize=None)
def moment_cone_constraints(n: int, k: int) -> MomentConeSystem:
    """Equality rows (deduplicated sphere-residual entries) and the n + 1 PSD
    block maps whose joint feasibility defines the order-k relaxation."""
    if k < 1:
        raise ValueError("relaxation order must be at least 1")
    length = basis_size(n, 2 * k)
    big = monomials_up_to(n, 2 * k)

    # sphere residual: entries of its localizer depend only on alpha + beta,
    # so one equation per monomial of degree <= 2(k - 1)
    eq_rows, eq_cols, eq_vals = [], [], []
    for r, delta in enumerate(monomials_up_to(n, 2 * (k - 1)).monomials):
        base = delta.alpha
        for i in range(n):
            bumped = tuple(e + (2 if j == i else 0) for j, e in enumerate(base))
            eq_rows.append(r)
            eq_cols.append(big.position(bumped))
            eq_vals.append(1.0)
        eq_rows.append(r)
        eq_cols.append(big.position(base))
        eq_vals.append(-1.0)
    n_eq = basis_size(n, 2 * (k - 1))
    equality = sp.csr_matrix(
        (eq_vals, (eq_rows, eq_cols)), shape=(n_eq, length)
    )

    blocks = []
    for spec in [unit_spec(n, k)] + [coordinate_spec(n, j, k) for j in range(n)]:
        t = spec.half_order
        rows_basis = monomials_up_to(n, t).exponents
        shift = np.asarray(next(iter(spec.poly)), dtype=np.int64)
        order = spec.size
        r_idx, c_idx, vals = [], [], []
        for row, (a, b) in enumerate(_triu_pairs(order)):
            pos = big.position(tuple(rows_basis[a] + rows_basis[b] + shift))
            r_idx.append(row)
            c_idx.append(pos)
            vals.append(1.0)
        entries = sp.csr_matrix(
            (vals, (r_idx, c_idx)), shape=(order * (order + 1) // 2, length)
        )
        blocks.append(PsdBlockMap(spec.name, order, entries))
    return MomentConeSystem(n, k, equality, tuple(blocks))
