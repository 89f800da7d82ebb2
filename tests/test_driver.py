import numpy as np
import numpy.testing as npt
import pytest

import cpproj.driver
from cpproj.conic import SolverSettings
from cpproj.driver import (
    FACTOR_TOL,
    DriverSettings,
    Inconclusive,
    Infeasible,
    Projected,
    SolverFailure,
    approximate,
    check_cp_membership,
)
from cpproj.relaxation import LinearConstraint, ProblemSpec


def test_identity_projects_to_itself():
    out = approximate(np.eye(2))
    assert isinstance(out, Projected)
    assert out.status == "projected"
    assert abs(out.gamma) <= 1e-6
    npt.assert_allclose(out.matrix, np.eye(2), atol=1e-5)
    npt.assert_allclose(out.decomposition.reconstruct(), out.matrix, atol=1e-4)
    assert out.decomposition.factors.min() >= 0.0
    assert out.k_used == 2
    assert any("certified" in e for e in out.events)


def test_projection_of_sign_indefinite_matrix():
    C = np.array([[1.0, -1.0], [-1.0, 1.0]])
    out = approximate(C)
    assert isinstance(out, Projected)
    npt.assert_allclose(out.gamma, np.sqrt(2.0), atol=1e-5)
    npt.assert_allclose(out.matrix, np.eye(2), atol=1e-4)
    npt.assert_allclose(
        out.decomposition.reconstruct(), out.matrix, atol=1e-4
    )


def test_zero_matrix_has_empty_decomposition():
    out = approximate(np.zeros((2, 2)))
    assert isinstance(out, Projected)
    assert abs(out.gamma) <= 1e-6
    assert out.decomposition.rank == 0


def test_negative_trace_constraint_is_infeasible():
    spec = ProblemSpec(
        np.eye(2),
        norm="fro",
        constraints=(LinearConstraint(np.eye(2), -1.0, "eq"),),
    )
    out = approximate(spec)
    assert isinstance(out, Infeasible)
    assert out.status == "infeasible"
    assert out.certificate.status == "primal_infeasible"


def test_constrained_projection():
    # force X11 >= 2; the projection of the identity becomes diag(2, 1)
    E11 = np.zeros((2, 2))
    E11[0, 0] = 1.0
    spec = ProblemSpec(
        np.eye(2),
        norm="fro",
        constraints=(LinearConstraint(E11, 2.0, "ineq"),),
    )
    out = approximate(spec)
    assert isinstance(out, Projected)
    npt.assert_allclose(out.gamma, 1.0, atol=1e-4)
    npt.assert_allclose(out.matrix, np.diag([2.0, 1.0]), atol=1e-3)
    assert out.matrix[0, 0] >= 2.0 - 1e-6


def test_solver_failure_is_raised_not_hidden():
    settings = DriverSettings(solver=SolverSettings(max_iters=2))
    with pytest.raises(SolverFailure):
        approximate(np.eye(3), settings)


def test_membership_of_cp_matrix():
    rng = np.random.default_rng(3)
    B = rng.uniform(0.0, 1.0, size=(3, 6))
    C = B @ B.T
    res = check_cp_membership(C)
    assert res.is_cp is True
    assert res.decomposition is not None
    rec = res.decomposition.reconstruct()
    npt.assert_allclose(rec, C, atol=1e-3 * (1 + np.linalg.norm(C)))


def test_membership_of_non_cp_matrix():
    C = np.array([[1.0, -1.0], [-1.0, 1.0]])
    res = check_cp_membership(C)
    assert res.is_cp is False
    assert res.distance == pytest.approx(np.sqrt(2.0), abs=1e-4)
    assert res.decomposition is None


def test_driver_is_deterministic():
    C = np.array([[2.0, 0.3], [0.3, 1.0]])
    a = approximate(C)
    b = approximate(C)
    assert a.gamma == b.gamma
    npt.assert_array_equal(a.decomposition.atoms, b.decomposition.atoms)


def test_direct_factorization_certifies_without_a_flat_truncation():
    # the order-2 moment vector of this CP matrix is not flat, so the
    # certificate comes from factoring the relaxation's matrix directly
    C4 = np.array([
        [2.0, 1, 1, 1],
        [1, 2, 2, 1],
        [1, 2, 6, 5],
        [1, 1, 5, 6],
    ])
    out = approximate(ProblemSpec(C4, "one"))
    assert isinstance(out, Projected)
    assert out.k_used == 2
    assert out.t_used is None
    assert any("(factorization): certified" in e for e in out.events)
    assert out.decomposition.factors.min() >= 0.0
    scale = 1.0 + np.linalg.norm(out.matrix)
    resid = np.linalg.norm(out.decomposition.reconstruct() - out.matrix)
    assert resid <= FACTOR_TOL * scale


def test_direct_factorization_rejects_a_matrix_outside_the_cp_cone():
    # draw 19 of the acceptance suite's seed-7 DNN-oracle set: its order-2
    # distance is 1.6e-5 below the DNN distance, and CP = DNN for n = 4, so
    # the order-2 matrix lies at least 1.6e-5 from the CP cone, six times
    # the factorization budget; the extracted-atom budget would admit it
    C = np.array([
        [-0.061344079833248494, -0.04752070495388338, 0.2260475390418809, 0.6498794000316037],
        [-0.04752070495388338, 1.1880942172123188, -0.11041043468631645, 0.47938866899588234],
        [0.2260475390418809, -0.11041043468631645, -0.3894303048753847, -0.4499534834136761],
        [0.6498794000316037, 0.47938866899588234, -0.4499534834136761, 0.6688984464469374],
    ])
    out = approximate(ProblemSpec(C, "fro"), DriverSettings(k_max=2))
    assert isinstance(out, Inconclusive)
    assert any("(factorization): factor residual" in e for e in out.events)


def test_sparsify_rescues_a_factorization_start_that_misses_the_budget(monkeypatch):
    # draw 15 of the acceptance suite's seed-7 set: the polished 10-row start
    # misses the factorization budget (3.6e-5 against 1.6e-6), and only the
    # re-polish from fewer rows inside sparsify certifies order 2
    C = np.array([
        [-0.1666548508803217, -0.5165536597357838, -1.3212621748156361, 0.4308736801067756],
        [-0.5165536597357838, 0.40652853663281385, -0.9379684042419925, -0.15915143320922082],
        [-1.3212621748156361, -0.9379684042419925, 0.19540791774940214, 0.6210931852725784],
        [0.4308736801067756, -0.15915143320922082, 0.6210931852725784, -1.3927890458668095],
    ])
    starts = []
    sparsify = cpproj.driver.sparsify_decomposition

    def recording(X, dec, tol):
        starts.append((dec.rank, np.linalg.norm(dec.reconstruct() - X), tol))
        return sparsify(X, dec, tol)

    monkeypatch.setattr(cpproj.driver, "sparsify_decomposition", recording)
    out = approximate(ProblemSpec(C, "fro"), DriverSettings(k_max=2))
    assert isinstance(out, Projected)
    assert out.k_used == 2
    assert out.t_used is None
    assert out.decomposition.rank == 2
    rank, resid, budget = starts[-1]
    assert rank == 10
    assert resid > 10.0 * budget
    assert any(
        "(factorization): certified with 2 atoms (the Eckart-Young minimum)" in e
        for e in out.events
    )


def test_settings_validation():
    with pytest.raises(ValueError):
        DriverSettings(k_max=1)
    assert DriverSettings(k_max=2).k_max == 2


@pytest.mark.parametrize("norm", ["one", "two", "inf", "fro"])
def test_all_norms_project_cp_fixed_point(norm):
    # a CP matrix is its own projection no matter the norm
    B = np.array([[1.0, 0.5], [0.2, 1.2]])
    C = B @ B.T
    out = approximate(ProblemSpec(C, norm=norm))
    assert isinstance(out, Projected)
    assert abs(out.gamma) <= 1e-5
    npt.assert_allclose(out.matrix, C, atol=1e-4)
