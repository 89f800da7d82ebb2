"""Reference rows of the relaxation's rungs, and moments of atomic measures,
for tests of the relaxation rows.

Order k >= 1 is the dual of Parrilo's cone

    K^(r) = {M : (sum_i u_i^2)^r sum_ij M_ij u_i^2 u_j^2 is a sum of squares},

r = k - 1, over the moments z: one moment z_beta per exponent beta of
degree r + 2 of a measure on the nonnegative orthant, with X = P z.
`kr_rows` builds P and the cone rows from that definition, with an
enumeration of its own (`itertools.product` over exponents), apart from
the package's index:

  - pairing M with X is applying the moment functional to the form above,
    so X_ab sums z_{e_a + e_b + w} over the words w in {1..n}^r, which
    counts each gamma of degree r with its multinomial weight r!/gamma!;
    at r = 0 the one word is empty and P is the identity;
  - the Gram matrix of that functional over the u-monomials u^a of degree
    r + 2 has entry (a, b) = z_{(a + b)/2} when a + b is even and 0
    otherwise, so it splits into one block per parity class a mod 2, and
    a block of order 1 is a nonnegative entry.

z is listed by exponent, lexicographically descending; P's rows follow
vech(X) (upper triangle, row by row), blocks are ordered by the size of
their class and then descending, and the entries of each by descending row
exponent.  `rung_maps` puts `relaxation._rung`'s maps in the same form, so
the two compare exactly.
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


def exponents(n: int, d: int) -> list[tuple[int, ...]]:
    """The exponents of degree exactly d, lexicographically descending."""
    return sorted((a for a in product(range(d + 1), repeat=n) if sum(a) == d), reverse=True)


def moments(atoms, weights, exps) -> np.ndarray:
    """sum_t weights[t] * atoms[t]^alpha for each exponent alpha of `exps`."""
    pts = np.atleast_2d(np.asarray(atoms, dtype=float))
    wts = np.asarray(weights, dtype=float).ravel()
    if len(pts) != wts.size:
        raise ValueError(f"{len(pts)} atoms but {wts.size} weights")
    exps = np.array(exps).reshape(-1, pts.shape[1])
    # atom^alpha for every exponent at once; 0**0 == 1 covers alpha = 0
    return wts @ np.prod(pts[:, None, :] ** exps[None, :, :], axis=2)


def moments_of_atoms(atoms, weights, k: int) -> np.ndarray:
    """Moment vector of the atomic measure over every monomial of degree
    <= 2k, in graded-lex order (`graded_lex`)."""
    n = np.atleast_2d(atoms).shape[1]
    return moments(atoms, weights, graded_lex(n, 2 * k))


def degree2_slice(s: np.ndarray, n: int) -> np.ndarray:
    """The degree-2 moments of a graded-lex moment vector s: vech of the
    identified symmetric matrix."""
    return s[1 + n : 1 + n + n * (n + 1) // 2]


def kr_rows(n: int, k: int):
    """The maps of the order-k rung from the K^(r) definition, as sparse
    maps over z: `(P, nonneg, blocks)`, with `P @ z` = vech(X),
    `nonneg @ z` the moments that must be nonnegative, and per PSD block
    `(order, entries)`, whose `entries @ z` lists the block's upper
    triangle row by row."""
    r = k - 1
    column = {beta: i for i, beta in enumerate(exponents(n, r + 2))}
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    P = sp.lil_matrix((len(pairs), len(column)))
    for m, (a, b) in enumerate(pairs):
        for word in product(range(n), repeat=r):
            beta = np.bincount([a, b, *word], minlength=n)
            P[m, column[tuple(beta)]] += 1.0
    classes: dict[tuple[int, ...], list[np.ndarray]] = {}
    for a in exponents(n, r + 2):  # the u-monomials of degree r + 2
        classes.setdefault(tuple(np.array(a) % 2), []).append(np.array(a))
    nonneg, blocks = [], []
    for p in sorted(classes, key=lambda p: (sum(p), [-e for e in p])):
        rows = classes[p]
        entries = sp.lil_matrix((len(rows) * (len(rows) + 1) // 2, len(column)))
        at = 0
        for i in range(len(rows)):
            for j in range(i, len(rows)):
                entries[at, column[tuple((rows[i] + rows[j]) // 2)]] = 1.0
                at += 1
        if len(rows) == 1:
            nonneg.append(entries)
        else:
            blocks.append((len(rows), entries.tocsr()))
    nonneg = sp.vstack(nonneg, format="csr") if nonneg else sp.csr_matrix((0, len(column)))
    return P.tocsr(), nonneg, tuple(blocks)


def rung_maps(n: int, k: int):
    """`relaxation._rung(n, k)`'s maps in the form of `kr_rows`."""
    rung = _rung(n, k)
    nbar, g = rung.P.shape
    P = sp.csr_matrix(
        (np.tile(rung.weights, nbar), (np.repeat(np.arange(nbar), g), rung.P.ravel())),
        shape=(nbar, rung.size),
    )
    m = rung.nonneg.size
    nonneg = sp.csr_matrix((np.ones(m), (np.arange(m), rung.nonneg)), shape=(m, rung.size))
    blocks = tuple(
        (order, sp.csr_matrix((np.ones(c.size), (np.arange(c.size), c)),
                              shape=(c.size, rung.size)))
        for order, c in rung.psd
    )
    return P, nonneg, blocks


def lift_atoms(atoms, weights, k: int) -> np.ndarray:
    """The order-k moments z at the atomic measure sum_t weights[t]
    delta(atoms[t]): z_beta = sum_t w_t x_t^beta over the exponents of
    degree k + 1."""
    pts = np.atleast_2d(np.asarray(atoms, dtype=float))
    return moments(pts, weights, exponents(pts.shape[1], k + 1))


def atomic_matrix(atoms, weights, k: int) -> np.ndarray:
    """X = sum_t w_t (1'x_t)^(k - 1) x_t x_t', exactly symmetric: the matrix
    that P maps the order-k moments of the same atoms to."""
    pts = np.atleast_2d(np.asarray(atoms, dtype=float))
    wts = np.asarray(weights, dtype=float).ravel()
    return vech_inv(vech((pts.T * (wts * pts.sum(axis=1) ** (k - 1))) @ pts))


def lift_atomic_point(spec, k: int, atoms, weights) -> np.ndarray:
    """Decision vector of the order-k program evaluated at an atomic measure.

    The lift of any measure with nonnegative atoms meets every rung row,
    and gamma is set to the exact distance so the norm block is tight; for
    the one and inf norms the bound T is |X - C| itself.
    """
    X = atomic_matrix(atoms, weights, k)
    parts = [lift_atoms(atoms, weights, k), [p_norm(X - spec.C, spec.norm)]]
    if spec.norm in ("one", "inf"):
        parts.append(np.abs(vech(X - spec.C)))
    return np.concatenate([np.asarray(p, dtype=float) for p in parts])
