"""Reference moment vectors of atomic measures, for tests of the relaxation rows.

The moment vector of a measure has one entry per monomial of degree <= 2k,
in graded-lex order (`graded_lex`, enumerated here apart from the
package's own index), so its degree-2 entries (after the n + 1 entries of
degree <= 1) list vech of the identified symmetric matrix.
"""
from itertools import product

import numpy as np
import scipy.sparse as sp

from cpproj.conic import vech, vech_inv
from cpproj.relaxation import _rung, p_norm


def graded_lex(n: int, d: int) -> list[tuple[int, ...]]:
    """The exponents of the n-variate monomials of degree <= d, by degree and
    then lexicographically descending (the first variable ranked highest)."""
    exps = (a for a in product(range(d + 1), repeat=n) if sum(a) <= d)
    return sorted(exps, key=lambda a: (sum(a), [-e for e in a]))


def moments_of_atoms(atoms, weights, k: int) -> np.ndarray:
    """Moment vector of the atomic measure sum_i weights[i] * delta(atoms[i])."""
    pts = np.atleast_2d(np.asarray(atoms, dtype=float))
    wts = np.asarray(weights, dtype=float).ravel()
    if len(pts) != wts.size:
        raise ValueError(f"{len(pts)} atoms but {wts.size} weights")
    exps = np.array(graded_lex(pts.shape[1], 2 * k)).reshape(-1, pts.shape[1])
    # atom^alpha for every basis monomial at once; 0**0 == 1 covers alpha = 0
    return wts @ np.prod(pts[:, None, :] ** exps[None, :, :], axis=2)


def rung_maps(n: int, k: int):
    """The rows of the order-k moment rung (k >= 2) as sparse maps over the
    moment vector: `(equality, blocks)`, with `equality @ s` the sphere
    rows' residuals (their right-hand side is zero) and, per PSD block,
    `(order, entries)` whose `entries @ s` lists the block's upper triangle
    row by row."""
    rung = _rung(n, k)
    row, col, val, rhs = rung.eq
    assert not rhs.any()
    equality = sp.csr_matrix((val, (row, col)), shape=(rhs.size, rung.width))
    blocks = tuple(
        (order, sp.csr_matrix((np.ones(r.size), (r, c)), shape=(order * (order + 1) // 2, rung.width)))
        for order, r, c in rung.psd
    )
    return equality, blocks


def degree2_slice(s: np.ndarray, n: int) -> np.ndarray:
    """The degree-2 moments of s: vech of the identified symmetric matrix."""
    return s[1 + n : 1 + n + n * (n + 1) // 2]


def lift_atomic_point(spec, k: int, atoms, weights) -> np.ndarray:
    """Decision vector of the order-k program evaluated at an atomic measure.

    The lift of any measure supported on the nonnegative unit sphere
    satisfies every moment-cone row, and gamma is set to the exact distance
    so the norm block is tight; for the one and inf norms the bound T is
    |X - C| itself.
    """
    s = moments_of_atoms(atoms, weights, k)
    X = vech_inv(degree2_slice(s, spec.dim))
    parts = [s, [p_norm(X - spec.C, spec.norm)]]
    if spec.norm in ("one", "inf"):
        parts.append(np.abs(vech(X - spec.C)))
    return np.concatenate([np.asarray(p, dtype=float) for p in parts])
