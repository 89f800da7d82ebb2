"""The order-k moment rung's rows (`relaxation._rung`, k >= 2) checked
against atomic measures on the nonnegative unit sphere."""
import math

import numpy as np
import numpy.testing as npt
import pytest

from cpproj.relaxation import _rung
from moment_reference import graded_lex, moments_of_atoms, rung_maps


def sphere_atoms(rng, r, n):
    pts = np.abs(rng.standard_normal((r, n)))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def block_matrices(n, k, s):
    """The symmetric matrices of the order-k PSD blocks at sequence s."""
    out = []
    for order, entries in rung_maps(n, k)[1]:
        M = np.zeros((order, order))
        M[np.triu_indices(order)] = entries @ s
        out.append(M + np.triu(M, 1).T)
    return out


def evaluations(pts, n, t):
    """Row i: every monomial of degree <= t evaluated at atom i."""
    exps = np.array(graded_lex(n, t)).reshape(-1, n)
    return np.stack([np.prod(p ** exps, axis=1) for p in pts])


def test_sizes_smallest_case():
    # n = 1, k = 2, the smallest moment rung: moment matrix 3x3, sphere rows
    # 3, coordinate localizer 2x2, over the 5 moments of degree <= 4
    equality, blocks = rung_maps(1, 2)
    assert [order for order, _ in blocks] == [3, 2]
    assert equality.shape == (3, math.comb(1 + 4, 4))


def test_localizer_size_formula():
    for n, k in [(2, 2), (3, 3), (4, 2)]:
        orders = [order for order, *_ in _rung(n, k).psd]
        assert orders == [math.comb(n + k, k)] + [math.comb(n + k - 1, k - 1)] * n


def test_moment_matrix_entries_and_rank():
    # the unit block of the relaxation is the moment matrix of the sequence
    rng = np.random.default_rng(23)
    n, k, r = 3, 2, 2
    pts = sphere_atoms(rng, r, n)
    wts = rng.uniform(0.5, 2.0, r)
    s = moments_of_atoms(pts, wts, k)
    M = block_matrices(n, k, s)[0]
    # oracle: M = sum_i w_i v_i v_i^T with v_i the monomial evaluation vector
    V = evaluations(pts, n, k)
    npt.assert_allclose(M, V.T @ (wts[:, None] * V), rtol=1e-12, atol=1e-13)
    sv = np.linalg.svd(M, compute_uv=False)
    assert sv[r - 1] > 1e-6 > sv[r]
    assert np.linalg.eigvalsh(M).min() > -1e-12


def test_localizing_matrix_single_atom_oracle():
    # the coordinate blocks are the localizing matrices of x_j, indexed by
    # the monomials of degree <= k - 1
    rng = np.random.default_rng(29)
    n, k = 3, 2
    u = np.abs(rng.standard_normal(n)) + 0.1
    s = moments_of_atoms([u], [1.7], k)
    v = evaluations([u], n, k - 1)[0]
    for j, L in enumerate(block_matrices(n, k, s)[1:]):
        npt.assert_allclose(L, 1.7 * u[j] * np.outer(v, v), rtol=1e-12)


def test_sphere_residual_vanishes_on_sphere_measures():
    rng = np.random.default_rng(31)
    n, k = 4, 3
    pts = sphere_atoms(rng, 3, n)
    equality = rung_maps(n, k)[0]
    s = moments_of_atoms(pts, rng.uniform(0.5, 1.5, 3), k)
    assert np.abs(equality @ s).max() < 1e-12
    # scaling an atom off the sphere breaks it
    s_off = moments_of_atoms(pts * 1.1, np.ones(3), k)
    assert np.abs(equality @ s_off).max() > 1e-3


def test_localizing_degree_overflow_rejected():
    # below order 1 the x_j localizers would need a negative half-order
    with pytest.raises(ValueError, match="at least 1"):
        _rung(2, 0)


def test_membership_constraints_necessary_for_atomic_measures():
    rng = np.random.default_rng(37)
    n, k = 3, 2
    pts = sphere_atoms(rng, 4, n)
    wts = rng.uniform(0.2, 2.0, 4)
    s = moments_of_atoms(pts, wts, k)
    equality = rung_maps(n, k)[0]
    npt.assert_allclose(equality @ s, 0.0, atol=1e-12)
    blocks = block_matrices(n, k, s)
    for M in blocks:
        assert np.linalg.eigvalsh(M).min() > -1e-12
    # the unit block is the moment matrix sum_i w_i v_i v_i^T
    V = evaluations(pts, n, k)
    npt.assert_allclose(blocks[0], V.T @ (wts[:, None] * V), rtol=1e-12, atol=1e-13)


def test_negative_mass_violates_unit_block():
    n, k = 2, 2
    s_vec = np.zeros(_rung(n, k).width)
    s_vec[0] = -1.0
    M = block_matrices(n, k, s_vec)[0]
    assert np.linalg.eigvalsh(M).min() < -0.5


def test_equality_rows_are_deduplicated():
    equality = rung_maps(2, 2)[0]
    assert equality.shape[0] == math.comb(2 + 2, 2)  # 6 distinct sums
