import numpy as np
import numpy.testing as npt
import pytest

from cpproj.relaxation import p_norm, symmetric


def random_sym(rng, n):
    A = rng.standard_normal((n, n))
    return symmetric((A + A.T) / 2)


def test_known_values():
    A = symmetric(np.array([[1.0, -2.0], [-2.0, 3.0]]))
    npt.assert_allclose(p_norm(A, "one"), 5.0)
    npt.assert_allclose(p_norm(A, "inf"), 5.0)
    npt.assert_allclose(p_norm(A, "fro"), np.sqrt(1 + 4 + 4 + 9))
    # eigenvalues of [[1,-2],[-2,3]] are 2 +- sqrt(5)
    npt.assert_allclose(p_norm(A, "two"), 2 + np.sqrt(5.0), rtol=1e-12)


def test_one_equals_inf_on_symmetric():
    rng = np.random.default_rng(2)
    for _ in range(5):
        A = random_sym(rng, 5)
        npt.assert_allclose(p_norm(A, "one"), p_norm(A, "inf"), rtol=1e-13)


def test_two_norm_against_svd_oracle():
    rng = np.random.default_rng(4)
    for _ in range(5):
        A = random_sym(rng, 6)
        npt.assert_allclose(p_norm(A, "two"), np.linalg.svd(A, compute_uv=False)[0], rtol=1e-12)


def test_norm_axioms_sampled():
    rng = np.random.default_rng(21)
    for p in ("one", "two", "inf", "fro"):
        A, B = random_sym(rng, 5), random_sym(rng, 5)
        assert p_norm(A + B, p) <= p_norm(A, p) + p_norm(B, p) + 1e-12
        npt.assert_allclose(p_norm(symmetric(-2.5 * A), p), 2.5 * p_norm(A, p), rtol=1e-12)
    Z = symmetric(np.zeros((3, 3)))
    for p in ("one", "two", "inf", "fro"):
        assert p_norm(Z, p) == 0.0


def test_unknown_norm_rejected():
    with pytest.raises(ValueError):
        p_norm(np.eye(2), "nuclear")
