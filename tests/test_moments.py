import math

import numpy as np
import numpy.testing as npt
import pytest

from cpproj.moments import (
    LocalizingSpec,
    coordinate_spec,
    moment_cone_constraints,
    unit_spec,
)
from cpproj.polybasis import basis_size, moments_of_atoms, monomials_up_to


def sphere_atoms(rng, r, n):
    pts = np.abs(rng.standard_normal((r, n)))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def block_matrices(n, k, s):
    """The symmetric matrices of the order-k PSD blocks at sequence s."""
    out = []
    for blk in moment_cone_constraints(n, k).psd_blocks:
        M = np.zeros((blk.order, blk.order))
        M[np.triu_indices(blk.order)] = blk.entries @ s
        out.append(M + np.triu(M, 1).T)
    return out


def evaluations(pts, n, t):
    """Row i: every monomial of degree <= t evaluated at atom i."""
    exps = monomials_up_to(n, t).exponents
    return np.stack([np.prod(p ** exps, axis=1) for p in pts])


def test_sizes_smallest_case():
    # n = 1, k = 1: moment matrix 2x2, sphere and coordinate localizers 1x1
    assert unit_spec(1, 1).size == 2
    assert coordinate_spec(1, 0, 1).size == 1
    sys = moment_cone_constraints(1, 1)
    assert [b.order for b in sys.psd_blocks] == [2, 1]
    assert sys.equality.shape == (1, basis_size(1, 2))


def test_localizer_size_formula():
    for n, k in [(2, 2), (3, 3), (4, 2)]:
        assert unit_spec(n, k).size == math.comb(n + k, k)
        assert coordinate_spec(n, 0, k).size == math.comb(n + k - 1, k - 1)


def test_moment_matrix_entries_and_rank():
    # the unit block of the relaxation is the moment matrix of the sequence
    rng = np.random.default_rng(23)
    n, k, r = 3, 2, 2
    pts = sphere_atoms(rng, r, n)
    wts = rng.uniform(0.5, 2.0, r)
    s = moments_of_atoms(pts, wts, k)
    M = block_matrices(n, k, s.s)[0]
    # oracle: M = sum_i w_i v_i v_i^T with v_i the monomial evaluation vector
    V = evaluations(pts, n, k)
    npt.assert_allclose(M, V.T @ (wts[:, None] * V), rtol=1e-12, atol=1e-13)
    sv = np.linalg.svd(M, compute_uv=False)
    assert sv[r - 1] > 1e-6 > sv[r]
    assert np.linalg.eigvalsh(M).min() > -1e-12


def test_localizing_matrix_single_atom_oracle():
    # the coordinate blocks are the localizing matrices of x_j
    rng = np.random.default_rng(29)
    n, k = 3, 2
    u = np.abs(rng.standard_normal(n)) + 0.1
    s = moments_of_atoms([u], [1.7], k)
    for j, L in enumerate(block_matrices(n, k, s.s)[1:]):
        v = evaluations([u], n, coordinate_spec(n, j, k).half_order)[0]
        npt.assert_allclose(L, 1.7 * u[j] * np.outer(v, v), rtol=1e-12)


def test_sphere_residual_vanishes_on_sphere_measures():
    rng = np.random.default_rng(31)
    n, k = 4, 3
    pts = sphere_atoms(rng, 3, n)
    equality = moment_cone_constraints(n, k).equality
    s = moments_of_atoms(pts, rng.uniform(0.5, 1.5, 3), k)
    assert np.abs(equality @ s.s).max() < 1e-12
    # scaling an atom off the sphere breaks it
    s_off = moments_of_atoms(pts * 1.1, np.ones(3), k)
    assert np.abs(equality @ s_off.s).max() > 1e-3


def test_localizing_degree_overflow_rejected():
    with pytest.raises(ValueError):
        LocalizingSpec("too_big", {(4, 0): 1.0}, 2, 1)
    with pytest.raises(ValueError):
        coordinate_spec(3, 3, 1)


def test_membership_constraints_necessary_for_atomic_measures():
    rng = np.random.default_rng(37)
    n, k = 3, 2
    pts = sphere_atoms(rng, 4, n)
    wts = rng.uniform(0.2, 2.0, 4)
    s = moments_of_atoms(pts, wts, k)
    sys = moment_cone_constraints(n, k)
    npt.assert_allclose(sys.equality @ s.s, 0.0, atol=1e-12)
    blocks = block_matrices(n, k, s.s)
    for M in blocks:
        assert np.linalg.eigvalsh(M).min() > -1e-12
    # the unit block is the moment matrix sum_i w_i v_i v_i^T
    V = evaluations(pts, n, k)
    npt.assert_allclose(blocks[0], V.T @ (wts[:, None] * V), rtol=1e-12, atol=1e-13)


def test_negative_mass_violates_unit_block():
    n, k = 2, 2
    s_vec = np.zeros(basis_size(n, 2 * k))
    s_vec[0] = -1.0
    M = block_matrices(n, k, s_vec)[0]
    assert np.linalg.eigvalsh(M).min() < -0.5


def test_equality_rows_are_deduplicated():
    sys = moment_cone_constraints(2, 2)
    assert sys.equality.shape[0] == basis_size(2, 2)  # C(4, 2) = 6 distinct sums
