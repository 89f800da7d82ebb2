import math

import numpy as np
import numpy.testing as npt
import pytest

from cpproj.polybasis import (
    ETms,
    SymMatrix,
    Tms,
    basis_size,
    matrix_of_etms,
    moments_of_atoms,
    monomials_up_to,
    vech,
    vech_inv,
    weighted_vech,
)


def random_sym(rng, n, scale=1.0):
    A = rng.standard_normal((n, n)) * scale
    return SymMatrix((A + A.T) / 2)


def test_basis_ordering_n2_d2():
    b = monomials_up_to(2, 2)
    got = [m.alpha for m in b.monomials]
    assert got == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_basis_size_matches_binomial():
    # oracle: C(n + d, d), frozen for the spot case (4, 3) -> 35
    assert len(monomials_up_to(4, 3)) == 35
    for n in range(1, 6):
        for d in range(0, 5):
            assert len(monomials_up_to(n, d)) == math.comb(n + d, d)
            assert basis_size(n, d) == math.comb(n + d, d)


def test_basis_prefix_property():
    small = monomials_up_to(3, 2)
    big = monomials_up_to(3, 6)
    for i, m in enumerate(small.monomials):
        assert big.monomials[i].alpha == m.alpha
        assert big.position(m.alpha) == i


def test_basis_position_rejects_unknown():
    b = monomials_up_to(2, 2)
    with pytest.raises(ValueError):
        b.position((3, 0))
    with pytest.raises(ValueError):
        b.position((1, 1, 0))


def test_sym_matrix_exact_symmetry_and_rejection():
    A = np.array([[1.0, 2.0], [2.0 + 1e-15, 3.0]])
    S = SymMatrix(A)
    assert S.values[0, 1] == S.values[1, 0]
    with pytest.raises(ValueError):
        SymMatrix(np.array([[1.0, 2.0], [2.5, 3.0]]))
    with pytest.raises(AttributeError):
        S.values = np.eye(2)


def test_vech_round_trip():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5):
        A = random_sym(rng, n)
        v = vech(A)
        assert v.shape == (n * (n + 1) // 2,)
        npt.assert_array_equal(vech_inv(v).values, A.values)


def test_vech_is_row_major_upper_triangle():
    A = SymMatrix(np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]]))
    npt.assert_array_equal(vech(A), [1, 2, 3, 4, 5, 6])


def test_weighted_vech_trace_identity():
    # oracle: explicit double sum for <A, X>
    rng = np.random.default_rng(11)
    for n in (2, 4, 7):
        A, X = random_sym(rng, n), random_sym(rng, n)
        direct = sum(
            A.values[i, j] * X.values[i, j] for i in range(n) for j in range(n)
        )
        npt.assert_allclose(weighted_vech(A) @ vech(X), direct, rtol=1e-13)


def test_etms_matrix_identification_round_trip():
    rng = np.random.default_rng(5)
    A = random_sym(rng, 4)
    a = ETms(4, vech(A))
    npt.assert_array_equal(matrix_of_etms(a).values, A.values)
    # degree-2 monomials in graded-lex order line up with vech order
    npt.assert_array_equal(a.a, vech(A))


def test_tms_degree2_slice_matches_identification():
    rng = np.random.default_rng(13)
    n = 3
    u = np.abs(rng.standard_normal(n))
    s = moments_of_atoms([u], [2.5], 2)
    X = 2.5 * np.outer(u, u)
    npt.assert_allclose(s.to_etms().a, vech(SymMatrix(X)), rtol=1e-13)


def test_tms_length_validation():
    with pytest.raises(ValueError):
        Tms(2, 2, np.zeros(14))  # needs C(2 + 4, 4) = 15


def test_moments_of_atoms_against_matrix_sum():
    # oracle: the degree-2 block is vech of sum_i w_i u_i u_i^T
    rng = np.random.default_rng(19)
    n, k, r = 4, 3, 3
    pts = np.abs(rng.standard_normal((r, n)))
    wts = rng.uniform(0.5, 2.0, r)
    s = moments_of_atoms(pts, wts, k)
    X = sum(w * np.outer(u, u) for w, u in zip(wts, pts))
    npt.assert_allclose(s.to_etms().a, vech(SymMatrix(X)), rtol=1e-12)
    npt.assert_allclose(s.s[0], wts.sum(), rtol=1e-13)
    # spot-check a degree-6 entry against the raw sum
    alpha = (3, 1, 2, 0)
    want = float(sum(w * np.prod(u ** np.array(alpha)) for w, u in zip(wts, pts)))
    npt.assert_allclose(s.s[monomials_up_to(n, 2 * k).position(alpha)], want, rtol=1e-12)


def test_moments_of_atoms_empty_measure():
    s = moments_of_atoms([], [], 2, n=3)
    npt.assert_array_equal(s.s, np.zeros(basis_size(3, 4)))
    with pytest.raises(ValueError):
        moments_of_atoms([], [], 2)


def test_basis_position_stable_across_enclosing_bases():
    # the position of any degree <= 2t monomial agrees in bases (n, 2t), (n, 2k)
    n = 3
    small = monomials_up_to(n, 4)
    big = monomials_up_to(n, 8)
    for m in small.monomials:
        assert small.position(m.alpha) == big.position(m.alpha)


def test_immutability_of_sequences():
    s = Tms(2, 1, np.arange(6.0))
    with pytest.raises(ValueError):
        s.s[0] = 5.0
    a = ETms(2, np.arange(3.0))
    with pytest.raises(ValueError):
        a.a[0] = 1.0
