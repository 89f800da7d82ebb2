"""Tests of the polynomial basis of the rungs: the one-degree monomial
index `relaxation._monomials`, from which `relaxation._rung(n, k)` takes the
exponents of its moments, the row of P that reads each entry of vech(X)
off the moments of its degree-2 monomial, and the symmetric-matrix fold
(`symmetric`, `vech`, `vech_inv`) that identifies X with vech(X)."""
import math

import numpy as np
import numpy.testing as npt
import pytest

from cpproj.conic import svec_index, vech, vech_inv
from cpproj.relaxation import _monomials, _rung, symmetric
from moment_reference import degree2_slice, exponents, graded_lex, moments_of_atoms


def random_sym(rng, n, scale=1.0):
    A = rng.standard_normal((n, n)) * scale
    return symmetric((A + A.T) / 2)


def test_basis_ordering_n2_d2():
    got = [tuple(a) for a in _monomials(2, 2).tolist()]
    assert got == [(2, 0), (1, 1), (0, 2)]


def test_basis_size_matches_binomial():
    # oracle: C(n + d - 1, d), frozen for the spot case (4, 3) -> 20
    assert len(_monomials(4, 3)) == 20
    for n in range(1, 6):
        for d in range(0, 5):
            assert _monomials(n, d).shape == (math.comb(n + d - 1, d), n)
            # row for row the reference enumeration of degree d
            assert [tuple(a) for a in _monomials(n, d).tolist()] == exponents(n, d)


def test_sym_matrix_exact_symmetry_and_rejection():
    A = np.array([[1.0, 2.0], [2.0 + 1e-15, 3.0]])
    S = symmetric(A)
    assert S[0, 1] == S[1, 0]
    with pytest.raises(ValueError):
        symmetric(np.array([[1.0, 2.0], [2.5, 3.0]]))
    with pytest.raises(ValueError):
        S[0, 0] = 5.0


def test_symmetric_mirrors_the_upper_triangle_bitwise():
    rng = np.random.default_rng(24)
    for order in range(1, 9):
        for _ in range(25):
            B = rng.normal(size=(order, order))
            A = B + B.T
            zero = rng.random((order, order)) < 0.3
            A[zero | zero.T] = -0.0
            A[zero & (rng.random((order, order)) < 0.5)] = 0.0  # mixed-sign zero pairs
            ref = np.triu(A) + np.triu(A, k=1).T
            assert symmetric(A).tobytes() == ref.tobytes()


def test_vech_round_trip():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5):
        A = random_sym(rng, n)
        v = vech(A)
        assert v.shape == (n * (n + 1) // 2,)
        npt.assert_array_equal(vech_inv(v), A)


def test_vech_is_row_major_upper_triangle():
    A = symmetric(np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]]))
    npt.assert_array_equal(vech(A), [1, 2, 3, 4, 5, 6])


def test_etms_matrix_identification_round_trip():
    rng = np.random.default_rng(5)
    A = random_sym(rng, 4)
    npt.assert_array_equal(vech_inv(vech(A)), A)
    # degree-2 monomials in lexicographic order line up with vech order: the
    # row-major upper-triangle pairs (i, j), i <= j, as e_i + e_j
    iu, ju = np.triu_indices(4)
    want = np.eye(4, dtype=int)[iu] + np.eye(4, dtype=int)[ju]
    npt.assert_array_equal(_monomials(4, 2), want)
    # so the order-1 rung reads vech(X) as its moments in order (P is the
    # identity), and row m of the order-2 rung's P names the moments
    # e_a + e_b + e_j, whose entrywise least exponent is that pair's monomial
    npt.assert_array_equal(_rung(4, 1).P, np.arange(10)[:, None])
    P = _rung(4, 2).P
    z = _monomials(4, 3)  # the degree-3 exponents, one per moment
    least = [z[P[m]].min(axis=0) for m in range(10)]
    npt.assert_array_equal(least, want)


@pytest.mark.parametrize("n", range(1, 7))
def test_vech_columns_are_the_positions_of_the_degree_2_monomials(n):
    # the order-1 rung reads vech(X) at moments 0, 1, ... in the order (a, b)
    # of svec_index; at k = 2, 3 row m of P names exactly the moments
    # x_a x_b x^gamma, |gamma| = k - 1, looked up in the reference's own
    # enumeration of the exponents of degree k + 1
    (a, b), _ = svec_index(n)
    nbar = a.size
    eye = np.eye(n, dtype=int)
    npt.assert_array_equal(_rung(n, 1).P, np.arange(nbar)[:, None])
    for k in (2, 3):
        P = _rung(n, k).P
        index = {beta: i for i, beta in enumerate(exponents(n, k + 1))}
        for m in range(nbar):
            named = sorted(P[m])
            want = sorted(
                c for beta, c in index.items()
                if all(x >= y for x, y in zip(beta, eye[a[m]] + eye[b[m]]))
            )
            assert named == want


def test_tms_degree2_slice_matches_identification():
    rng = np.random.default_rng(13)
    n = 3
    u = np.abs(rng.standard_normal(n))
    s = moments_of_atoms([u], [2.5], 2)
    X = 2.5 * np.outer(u, u)
    npt.assert_allclose(degree2_slice(s, n), vech(symmetric(X)), rtol=1e-13)


def test_moments_of_atoms_against_matrix_sum():
    # oracle: the degree-2 block is vech of sum_i w_i u_i u_i^T
    rng = np.random.default_rng(19)
    n, k, r = 4, 3, 3
    pts = np.abs(rng.standard_normal((r, n)))
    wts = rng.uniform(0.5, 2.0, r)
    s = moments_of_atoms(pts, wts, k)
    X = sum(w * np.outer(u, u) for w, u in zip(wts, pts))
    npt.assert_allclose(degree2_slice(s, n), vech(symmetric(X)), rtol=1e-12)
    npt.assert_allclose(s[0], wts.sum(), rtol=1e-13)
    # spot-check a degree-6 entry against the raw sum
    alpha = (3, 1, 2, 0)
    want = float(sum(w * np.prod(u ** np.array(alpha)) for w, u in zip(wts, pts)))
    npt.assert_allclose(s[graded_lex(n, 2 * k).index(alpha)], want, rtol=1e-12)


def test_malformed_matrices_and_vectors_are_rejected():
    with pytest.raises(ValueError):
        symmetric(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        vech_inv(np.zeros(4))  # not a triangular number
