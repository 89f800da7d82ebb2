"""The order-k rung's maps (`relaxation._rung`, the dual of Parrilo's
K^(k - 1), order 1 included) checked against the definition (`kr_rows`)
and against atomic measures on the nonnegative orthant."""
import math

import numpy as np
import numpy.testing as npt
import pytest

from cpproj.relaxation import _rung
from cpproj.conic import vech
from moment_reference import atomic_matrix, exponents, kr_rows, lift_atoms, moments, rung_maps


def block_matrices(n, k, z, blocks=None):
    """The symmetric matrices of the order-k rung's PSD blocks (or of
    `blocks`, in the form of `kr_rows`) at the moments z."""
    out = []
    for order, entries in blocks or rung_maps(n, k)[2]:
        M = np.zeros((order, order))
        M[np.triu_indices(order)] = entries @ z
        out.append(M + np.triu(M, 1).T)
    return out


def evaluations(pts, n, d):
    """Row t: every monomial of degree exactly d evaluated at atom t."""
    exps = np.array(exponents(n, d)).reshape(-1, n)
    return np.stack([np.prod(p ** exps, axis=1) for p in pts])


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("k", range(1, 5))
def test_rows_equal_the_definition(n, k):
    # the rung's maps are the K^(r) dual's, rebuilt from the definition
    # with an enumeration of their own: same moments, same P, same rows in
    # the same order; at k = 1 that is the DNN rung
    (P, nonneg, blocks), (ref_P, ref_nonneg, ref_blocks) = rung_maps(n, k), kr_rows(n, k)
    for got, want in [(P, ref_P), (nonneg, ref_nonneg)]:
        assert got.shape == want.shape
        assert (got != want).nnz == 0
    assert [order for order, _ in blocks] == [order for order, _ in ref_blocks]
    for (_, got), (_, want) in zip(blocks, ref_blocks):
        assert got.shape == want.shape
        assert (got != want).nnz == 0


def test_sizes_smallest_case():
    # n = 1, k = 2, the smallest rung above DNN: the one moment z_3, read
    # as X = z_3, and one block of order 1, which is the nonneg row z_3 >= 0
    P, nonneg, blocks = rung_maps(1, 2)
    assert blocks == ()
    assert P.shape == nonneg.shape == (1, math.comb(1 + 2, 3))
    npt.assert_array_equal(P.toarray(), [[1.0]])
    npt.assert_array_equal(nonneg.toarray(), [[1.0]])


def test_localizer_size_formula():
    # per class size s = r mod 2, s <= r + 2, C(n, s) classes of order
    # C(n + h - 1, h), h = (r + 2 - s) / 2; those of order 1 are nonneg rows
    for n, k in [(1, 1), (4, 1), (2, 2), (3, 3), (4, 2), (4, 4), (5, 2), (5, 3)]:
        r = k - 1
        rung = _rung(n, k)
        want, single = [], 0
        for s in range(r % 2, min(r + 2, n) + 1, 2):
            h = (r + 2 - s) // 2
            order = math.comb(n + h - 1, h)
            if order == 1:
                single += math.comb(n, s)
            else:
                want += [order] * math.comb(n, s)
        assert [order for order, *_ in rung.psd] == want
        assert rung.nonneg.size == single
        assert rung.size == math.comb(n + r + 1, r + 2)
    # the benchmark probe's shape: 4 blocks of order 10, 4 of order 4, 56
    # moments, and X read through 20 of them per entry
    assert [order for order, *_ in _rung(4, 4).psd] == [10] * 4 + [4] * 4
    assert (_rung(4, 4).size, _rung(4, 4).P.shape) == (56, (10, 20))


def test_moment_matrix_entries_and_rank():
    # the block of class p is the moment matrix sum_t w_t x_t^p v_t v_t',
    # with v_t the degree-h monomials at atom t, so two atoms give rank 2
    rng = np.random.default_rng(23)
    n, k, count = 3, 3, 2  # r = 2: the class 0 (order 6), then the pairs (order 3)
    pts = np.abs(rng.standard_normal((count, n)))
    wts = rng.uniform(0.5, 2.0, count)
    M = block_matrices(n, k, lift_atoms(pts, wts, k))[0]
    V = evaluations(pts, n, 2)
    npt.assert_allclose(M, V.T @ (wts[:, None] * V), rtol=1e-12, atol=1e-13)
    sv = np.linalg.svd(M, compute_uv=False)
    assert sv[count - 1] > 1e-6 > sv[count]
    assert np.linalg.eigvalsh(M).min() > -1e-12


def test_localizing_matrix_single_atom_oracle():
    # at r = 1 the class e_j's block is [z_{e_j + e_a + e_b}], the moment
    # matrix localized at x_j, which for one atom u of weight w is w u_j u u'
    rng = np.random.default_rng(29)
    n, k = 3, 2
    u = np.abs(rng.standard_normal(n)) + 0.1
    for j, L in enumerate(block_matrices(n, k, lift_atoms([u], [1.7], k))):
        npt.assert_allclose(L, 1.7 * u[j] * np.outer(u, u), rtol=1e-12)


def test_equality_rows_vanish_on_atomic_measures():
    # vech(X) = P z, X_ab = sum_gamma (r!/gamma!) z_{e_a + e_b + gamma},
    # holds at X = sum_t w_t (1'x_t)^r x_t x_t' for atoms anywhere in the
    # orthant, so X needs no equality row to tie it to z
    rng = np.random.default_rng(31)
    n, k = 4, 3
    pts = np.abs(rng.standard_normal((3, n)))
    wts = rng.uniform(0.5, 1.5, 3)
    P = rung_maps(n, k)[0]
    z, X = lift_atoms(pts, wts, k), atomic_matrix(pts, wts, k)
    assert np.abs(P @ z - vech(X)).max() < 1e-12 * np.abs(X).max()
    # the X of the same atoms without the factor (1'x_t)^r is not P z
    assert np.abs(P @ z - vech(atomic_matrix(pts, wts, 1))).max() > 1e-1


def test_localizing_degree_overflow_rejected():
    # below order 1 there is no rung: order k is the dual of K^(k - 1)
    with pytest.raises(ValueError, match="at least 1"):
        _rung(2, 0)


def test_membership_constraints_necessary_for_atomic_measures():
    rng = np.random.default_rng(37)
    n, k = 3, 2
    pts = np.abs(rng.standard_normal((4, n)))
    wts = rng.uniform(0.2, 2.0, 4)
    z, X = lift_atoms(pts, wts, k), atomic_matrix(pts, wts, k)
    P, nonneg, _ = rung_maps(n, k)
    npt.assert_allclose(P @ z, vech(X), rtol=0, atol=1e-12 * np.abs(X).max())
    assert (nonneg @ z >= 0).all() and nonneg.shape[0] == 1  # z_{e_1 + e_2 + e_3}
    blocks = block_matrices(n, k, z)
    for M in blocks:
        assert np.linalg.eigvalsh(M).min() > -1e-12
    # X is the sum of the blocks of the classes e_j, so it is PSD as well
    npt.assert_allclose(sum(blocks), X, rtol=1e-12)


def test_negative_mass_violates_unit_block():
    # an atom of negative weight at the unit vector e_1 makes z_{3 e_1} = -1
    # the (1, 1) entry of the class e_1's block
    n, k = 2, 2
    z = moments([[1.0, 0.0]], [-1.0], exponents(n, 3))
    assert z.size == _rung(n, k).size
    M = block_matrices(n, k, z)[0]
    assert np.linalg.eigvalsh(M).min() < -0.5


@pytest.mark.parametrize("n, k", [(3, 2), (4, 3), (5, 4)])
def test_atomic_measures_meet_every_row_and_a_negative_weight_breaks_a_block(n, k):
    # the identity holds for the maps of the definition and for the rung's
    rng = np.random.default_rng(41 + n)
    pts = np.abs(rng.standard_normal((n + 2, n)))
    wts = rng.uniform(0.2, 2.0, n + 2)
    for P, nonneg, blocks in (kr_rows(n, k), rung_maps(n, k)):
        z, X = lift_atoms(pts, wts, k), atomic_matrix(pts, wts, k)
        assert np.abs(P @ z - vech(X)).max() <= 1e-12 * np.abs(X).max()
        assert (nonneg @ z >= 0).all()
        for M in block_matrices(n, k, z, blocks):
            assert np.linalg.eigvalsh(M).min() >= -1e-12 * np.abs(M).max()
        # give one atom a negative weight that outweighs the rest: X = P z
        # still holds (it is linear), but some block is no longer PSD
        bad = np.append(-10.0 * wts.sum(), wts[1:])
        z, X = lift_atoms(pts, bad, k), atomic_matrix(pts, bad, k)
        assert np.abs(P @ z - vech(X)).max() <= 1e-12 * np.abs(X).max()
        worst = min(
            min(np.linalg.eigvalsh(M).min() for M in block_matrices(n, k, z, blocks)),
            (nonneg @ z).min(initial=np.inf),
        )
        assert worst < -1e-3


def test_equality_rows_are_deduplicated():
    # row m of P, entry (a, b) of vech(X), names the moments
    # e_a + e_b + gamma, |gamma| = k - 1, each once, so no sum hides a repeat
    for n, k in [(3, 1), (2, 2), (3, 4), (4, 3)]:
        P = _rung(n, k).P
        nbar, g = n * (n + 1) // 2, math.comb(n + k - 2, k - 1)
        assert P.shape == (nbar, g)
        assert all(np.unique(row).size == g for row in P)
        # the sparse P that sums duplicates keeps g entries per row
        assert rung_maps(n, k)[0].getnnz(axis=1).tolist() == [g] * nbar
