import re
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import cpproj.cli
import cpproj.conic
import cpproj.driver
import cpproj.extraction
import cpproj.relaxation
from cpproj.conic import SolverSettings, verify_certificate
from cpproj.driver import (
    FACTOR_TOL,
    DriverSettings,
    Inconclusive,
    Infeasible,
    Projected,
    SolverFailure,
    _factorize,
    approximate,
    check_cp_membership,
)
from cpproj.extraction import CpDecomposition, root_start, row_floor
from cpproj.relaxation import (
    LinearConstraint,
    ProblemSpec,
    assemble,
    map_solution,
    solve_relaxation,
)
from test_acceptance import K23, _counting_fits


def test_identity_projects_to_itself():
    out = approximate(np.eye(2))
    assert isinstance(out, Projected)
    assert out.status == "projected"
    assert abs(out.gamma) <= 1e-6
    npt.assert_allclose(out.matrix, np.eye(2), atol=1e-5)
    npt.assert_allclose(out.decomposition.reconstruct(), out.matrix, atol=1e-4)
    assert out.decomposition.factors.min() >= 0.0
    assert out.k_used == 1
    assert any("certified" in e for e in out.events)


@pytest.mark.parametrize("C", [
    np.eye(2),
    np.array([[1.0, -1.0], [-1.0, 1.0]]),
    np.array([[1.0, -0.5], [-0.5, 1.0]]),
])
def test_inputs_with_a_diagonal_projection_certify_at_the_dnn_relaxation(C):
    # each projects to the identity, whose factors must reach exact zeros;
    # the polish's bound stage takes them onto the bound, so the DNN
    # optimum factors within budget and the hierarchy is never entered
    out = approximate(C)
    assert isinstance(out, Projected)
    assert out.k_used == 1
    assert out.relaxation.gamma == out.gamma == out.bounds[0][1]
    npt.assert_allclose(out.matrix, np.eye(2), atol=1e-5)
    scale = 1.0 + np.linalg.norm(out.matrix)
    assert np.linalg.norm(out.decomposition.reconstruct() - out.matrix) <= FACTOR_TOL * scale


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
    # CP lies inside DNN, so the DNN relaxation's Farkas pair already proves
    # the constraints infeasible, and no moment relaxation is solved
    assert out.k_used == 1
    assert verify_certificate(assemble(spec, 1), out.certificate)
    assert [e for e in out.events if e.startswith("order")] == []


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


def test_solver_failure_is_raised_not_hidden(monkeypatch):
    monkeypatch.setattr(cpproj.conic, "MAX_ITERS", 2)
    with pytest.raises(SolverFailure):
        approximate(np.eye(3))


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
    # C4 is CP, so it is its own DNN projection in the one norm, and the
    # factorization of the DNN optimum certifies it before any moment
    # relaxation
    C4 = np.array([
        [2.0, 1, 1, 1],
        [1, 2, 2, 1],
        [1, 2, 6, 5],
        [1, 1, 5, 6],
    ])
    out = approximate(ProblemSpec(C4, "one"))
    assert isinstance(out, Projected)
    assert out.k_used == 1
    assert out.relaxation.gamma == out.gamma
    assert out.bounds == ((1, out.gamma),)
    assert any("DNN relaxation (factorization): certified" in e for e in out.events)
    assert out.decomposition.factors.min() >= 0.0
    scale = 1.0 + np.linalg.norm(out.matrix)
    resid = np.linalg.norm(out.decomposition.reconstruct() - out.matrix)
    assert resid <= FACTOR_TOL * scale


def _order2(C):
    """Spec and order-2 optimal matrix of a Frobenius instance."""
    spec = ProblemSpec(C, "fro")
    prog, csol = solve_relaxation(spec, 2, DriverSettings().solver)
    assert csol.status == "optimal"
    return spec, map_solution(prog, csol).matrix


def test_direct_factorization_rejects_a_matrix_outside_the_cp_cone():
    # the cycle matrix is its own DNN projection, and the Horn matrix keeps
    # it 0.2 from the CP cone, 3.3e4 times its factorization budget, so no
    # polish is tried.  A 4 x 4 matrix with one entry at -1e-2 is PSD,
    # and its entrywise floor of 1.4e-2 keeps it outside the cone as well
    C5 = _cycle_matrix()
    spec = ProblemSpec(C5, "fro")
    prog, csol = solve_relaxation(spec, 1, DriverSettings().solver)
    assert map_solution(prog, csol).gamma <= 1e-8  # C5 is its own DNN projection
    B = 0.5 * (np.eye(4) + 1.0)
    B[0, 1] = B[1, 0] = -1e-2
    assert np.linalg.eigvalsh(B).min() > 0.1
    for X, gate in [(C5, "Horn floor 2.000e-01"), (B, "entrywise floor 1.414e-02")]:
        events = []
        assert _factorize(X, ProblemSpec(X, "fro"), events.append, "order 2") is None
        assert [e for e in events if "certified" in e] == []
        assert any(
            e.startswith(f"order 2 (factorization): {gate}") and e.endswith("polish skipped")
            for e in events
        )


def _recording_polish(monkeypatch):
    """Record every polish the driver runs, as (rows, "bound") for the
    bound-stage polish of a rotated start and (rows, "full") for the full
    polish of a start."""
    calls = []
    polish = cpproj.driver.polish_decomposition

    def polishing(X, dec, *stages):
        calls.append((dec.rank, "bound" if stages == (("bound",),) else "full"))
        return polish(X, dec, *stages)

    monkeypatch.setattr(cpproj.driver, "polish_decomposition", polishing)
    return calls


def _draw_15():
    """Draw 15 of the acceptance suite's seed-7 set."""
    return np.array([
        [-0.1666548508803217, -0.5165536597357838, -1.3212621748156361, 0.4308736801067756],
        [-0.5165536597357838, 0.40652853663281385, -0.9379684042419925, -0.15915143320922082],
        [-1.3212621748156361, -0.9379684042419925, 0.19540791774940214, 0.6210931852725784],
        [0.4308736801067756, -0.15915143320922082, 0.6210931852725784, -1.3927890458668095],
    ])


def test_the_row_floor_jump_rescues_a_factorization_start_that_misses_the_budget(monkeypatch):
    # draw 15 at order 2 (the driver certifies this draw at the DNN
    # relaxation).  Its 4 clipped root rows miss the factorization budget
    # more than threefold unpolished; the Eckart-Young factor at the row
    # floor of 2, rotated toward the 2 heaviest of them and clipped,
    # certifies the matrix with no polish at all
    spec, X = _order2(_draw_15())
    root = CpDecomposition.from_factors(root_start(*np.linalg.eigh(X)))
    budget = FACTOR_TOL * (1.0 + np.linalg.norm(X))
    assert root.rank == 4
    assert np.linalg.norm(root.reconstruct() - X) > 3.0 * budget
    assert row_floor(np.linalg.eigvalsh(X), budget) == 2
    calls = _recording_polish(monkeypatch)
    events = []
    dec = _factorize(X, spec, events.append, "order 2")
    assert dec is not None
    assert dec.rank == 2
    assert calls == []
    assert any(
        "order 2 (factorization): certified from the rotated square-root start (no polish) "
        "with 2 atoms (the Eckart-Young minimum)" in e
        for e in events
    )
    assert not any("misses" in e for e in events)


def test_draw_15_certifies_at_its_floor_without_a_least_squares_call(monkeypatch):
    # at the DNN relaxation too, where the driver certifies draw 15, the
    # clipped root misses the budget threefold while its rotated
    # Eckart-Young factor fits at the floor of 2 atoms: no polish runs, so
    # fits that would fail do not matter
    calls = _failing_fits(monkeypatch)
    out = approximate(ProblemSpec(_draw_15(), "fro"))
    assert isinstance(out, Projected)
    assert out.k_used == 1
    X = out.matrix
    budget = FACTOR_TOL * (1.0 + np.linalg.norm(X))
    root = CpDecomposition.from_factors(root_start(*np.linalg.eigh(X)))
    assert np.linalg.norm(root.reconstruct() - X) > 3.0 * budget
    assert row_floor(np.linalg.eigvalsh(X), budget) == out.decomposition.rank == 2
    assert calls == []
    assert any(
        "DNN relaxation (factorization): certified from the rotated square-root start "
        "(no polish) with 2 atoms (the Eckart-Young minimum)" in e
        for e in out.events
    )


def _seed7_draw(draw):
    """Draw `draw` of the acceptance suite's seed-7 set."""
    rng = np.random.default_rng(7)
    for _ in range(draw + 1):
        n = int(rng.integers(3, 5))
        G = rng.standard_normal((n, n))
    return (G + G.T) / 2.0


@pytest.mark.parametrize("draw", [22, 42])
def test_a_rotated_start_that_misses_certifies_after_one_bound_stage_polish(draw, monkeypatch):
    # draws 22 and 42 of the acceptance suite's seed-7 set (both 3x3): the
    # clipped rotation misses the budget, and one bound-stage polish of its
    # 2 rows certifies, with no full polish; the start's one event gives its
    # residual before the polish and after it, against the budget
    calls = _recording_polish(monkeypatch)
    out = approximate(ProblemSpec(_seed7_draw(draw), "fro"))
    assert isinstance(out, Projected)
    assert out.k_used == 1
    assert out.decomposition.rank == 2
    assert calls == [(2, "bound")]
    assert not any("misses" in e for e in out.events)
    cert, = [e for e in out.events if "certified" in e]
    assert cert.startswith(
        "DNN relaxation (factorization): certified from the rotated square-root start "
        "(bound polish from "
    )
    built, resid, budget = map(float, re.search(
        r"from (\S+)\) with 2 atoms \(the Eckart-Young minimum\), "
        r"factor residual (\S+) against (\S+)$", cert
    ).groups())
    assert budget == pytest.approx(FACTOR_TOL * (1.0 + np.linalg.norm(out.matrix)), rel=1e-3)
    assert resid <= budget < built


def test_a_candidate_that_misses_a_constraint_is_rejected_before_any_polish(monkeypatch):
    # draw 22's DNN optimum X certifies only after its rotated start is
    # polished.  Under a constraint that X meets and one that it misses by
    # 0.5, far beyond CONSTRAINT_TOL (1 + |b|), the constraint check, which
    # reads X alone, rejects X first: the event names the constraint, and
    # no polish runs
    C = _seed7_draw(22)
    prog, csol = solve_relaxation(ProblemSpec(C, "fro"), 1, DriverSettings().solver)
    X = map_solution(prog, csol).matrix
    calls = _recording_polish(monkeypatch)
    assert _factorize(X, ProblemSpec(C, "fro"), [].append, "DNN relaxation") is not None
    assert calls == [(2, "bound")]
    E00 = np.zeros_like(X)
    E00[0, 0] = 1.0
    spec = ProblemSpec(C, "fro", (
        LinearConstraint(np.eye(3), np.trace(X), "eq"),
        LinearConstraint(E00, X[0, 0] + 0.5, "ineq"),
    ))
    assert 0.5 > cpproj.driver.CONSTRAINT_TOL * (1.0 + X[0, 0] + 0.5)
    calls.clear()
    events = []
    assert _factorize(X, spec, events.append, "DNN relaxation") is None
    assert calls == []
    assert events == ["DNN relaxation (factorization): constraint 1 off by 5.000e-01"]


def _dominant_draw_2():
    """Draw 2 of a seeded loop of nonnegative diagonally dominant matrices:
    a sparse symmetric A with zero diagonal plus diag(row sums of A + u)."""
    rng = np.random.default_rng(0)
    for _ in range(3):
        n = int(rng.integers(3, 7))
        A = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.6)
        A = (A + A.T) / 2.0
        np.fill_diagonal(A, 0.0)
        X = A + np.diag(A.sum(axis=1) + rng.uniform(0.0, 0.3, n))
    assert n == 4
    return X


def test_the_interior_stage_takes_the_square_root_start_to_the_row_floor(monkeypatch):
    # the rotated start of this draw's DNN optimum misses after its
    # bound-stage polish, the 2 clique rows are below the row floor of 4,
    # and the 4 square-root rows, polished in the interior stage and then
    # the bound stage, fit at rounding level: 4 atoms, the Eckart-Young
    # minimum.  Polished in the bound stage alone, they fall into the
    # rotated start's local minimum, and the chain certifies only from the
    # 9 edge rows, an exact factorization of a dominant matrix
    spec, settings = ProblemSpec(_dominant_draw_2(), "fro"), DriverSettings(k_max=2)
    calls = _recording_polish(monkeypatch)
    out = approximate(spec, settings)
    assert isinstance(out, Projected)
    assert (out.k_used, out.decomposition.rank) == (1, 4)
    assert calls == [(4, "bound"), (4, "full")]
    assert any(
        "DNN relaxation (factorization): certified from the square-root start "
        "(interior and bound polish from " in e and "with 4 atoms (the Eckart-Young minimum)" in e
        for e in out.events
    )
    budget = cpproj.driver._factor_budget(out.matrix)
    assert cpproj.extraction.verify_decomposition(out.matrix, out.decomposition) <= 1e-6 * budget
    polish = cpproj.extraction.polish_decomposition
    monkeypatch.setattr(
        cpproj.driver, "polish_decomposition", lambda X, dec, stages: polish(X, dec, ("bound",))
    )
    out = approximate(spec, settings)
    assert (out.k_used, out.decomposition.rank) == (1, 9)


def test_a_matrix_whose_norm_fits_the_budget_certifies_with_no_atoms(monkeypatch):
    # draw 1 of the seed-7 set (4x4) projects to an X of norm 1.2e-8 with a
    # positive trace: the empty factorization is within the budget of 1e-6,
    # so the Eckart-Young floor is 0 rows and no atom is certified
    rng = np.random.default_rng(7)
    for _ in range(2):
        n = int(rng.integers(3, 5))
        G = rng.standard_normal((n, n))
    calls = _recording_polish(monkeypatch)
    out = approximate(ProblemSpec((G + G.T) / 2.0, "fro"))
    assert isinstance(out, Projected)
    assert out.k_used == 1
    lam = np.linalg.eigvalsh(out.matrix)
    budget = FACTOR_TOL * (1.0 + np.linalg.norm(out.matrix))
    assert lam.sum() > 0.0 and np.linalg.norm(out.matrix) <= budget / 10
    assert row_floor(lam, budget) == 0
    assert out.decomposition.factors.shape == (0, n)
    assert calls == []
    assert out.events[-1].startswith(
        "DNN relaxation (factorization): certified from the rotated square-root start "
        "(no polish) with 0 atoms (the Eckart-Young minimum)"
    )


def _draw_35():
    """Draw 35 of a seeded loop over n = 3..6, every norm, half of the
    draws shifted by a multiple of the all-ones matrix: a 5x5 one-norm case."""
    rng = np.random.default_rng(123)
    for _ in range(36):
        n = int(rng.integers(3, 7))
        norm = ["fro", "fro", "two", "one"][rng.integers(4)]
        G = rng.standard_normal((n, n))
        C = (G + G.T) / 2
        if rng.random() < 0.5:
            C += rng.uniform(0, 2) * np.ones((n, n))
    assert (n, norm) == (5, "one")
    return C, norm


def test_the_row_floor_jump_certifies_draw_35_from_the_square_root_start(monkeypatch):
    # the clipped square root of draw 35's DNN optimum misses the budget
    # with all 5 rows polished, but the Eckart-Young factor at its row floor
    # of 4, rotated toward the heaviest root rows, fits after one bound-stage
    # polish: the rotation comes first, so no later start is needed
    calls = _recording_polish(monkeypatch)
    C, norm = _draw_35()
    out = approximate(ProblemSpec(C, norm))
    assert isinstance(out, Projected)
    assert out.k_used == 1
    assert out.decomposition.rank == 4
    assert out.gamma == pytest.approx(1.6287910457500272, rel=1e-9)
    assert calls == [(4, "bound")]
    assert not any("clique" in e for e in out.events)
    assert any(
        "DNN relaxation (factorization): certified from the rotated square-root start "
        "(bound polish from " in e and "with 4 atoms (the Eckart-Young minimum)" in e
        for e in out.events
    )


def test_a_missed_square_root_start_certifies_k23_from_its_clique_rows(monkeypatch):
    # K_{2,3}'s cp-rank is 6, while its order and row floor are 5.  No 5
    # rows fit: the rotated square-root start misses, after one bound-stage
    # polish too; the clique start, one row on each edge, fits after its
    # full polish.  Each start leaves one event
    C = K23
    calls = _recording_polish(monkeypatch)
    out = approximate(ProblemSpec(C, "one"))
    assert isinstance(out, Projected)
    assert out.k_used == 1
    assert abs(out.gamma) <= 1e-8
    assert out.decomposition.rank == 6
    budget = FACTOR_TOL * (1.0 + np.linalg.norm(out.matrix))
    assert row_floor(np.linalg.eigvalsh(out.matrix), budget) == 5
    assert calls == [(5, "bound"), (6, "full")]
    starts = [e.split(" from ")[0] for e in out.events if "(factorization)" in e]
    assert starts == [
        "DNN relaxation (factorization): the rotated square-root start misses (bound polish",
        "DNN relaxation (factorization): certified",
    ]
    assert any(
        "DNN relaxation (factorization): certified from the clique start "
        "(interior and bound polish from " in e and ") with 6 atoms, factor residual" in e
        for e in out.events
    )


def test_a_dense_matrix_above_its_order_in_cp_rank_certifies_from_its_edge_rows(monkeypatch):
    # K_{2,3} + 1e-3 J is CP, and its cp-rank is above its order 5: the
    # matrices of cp-rank at most 5 form a closed set that misses K_{2,3}.
    # Its graph is complete, so the single clique row is skipped under the
    # floor of 5, and the 5 square-root rows miss after their full polish;
    # the 14 edge rows, one per pair and one per diagonal surplus, fit.
    # Each of the four starts leaves one event
    C = K23 + 1e-3
    calls = _recording_polish(monkeypatch)
    out = approximate(ProblemSpec(C, "one"))
    assert isinstance(out, Projected)
    assert out.k_used == 1
    assert abs(out.gamma) <= 1e-8
    assert 5 < out.decomposition.rank <= 15
    assert calls == [(5, "bound"), (5, "full"), (14, "full")]
    starts = [e.split(" from ")[0] for e in out.events if "(factorization)" in e]
    assert starts == [
        "DNN relaxation (factorization): the rotated square-root start misses (bound polish",
        "DNN relaxation (factorization): the clique start's row count 1 is below the floor "
        "of 5; skipped",
        "DNN relaxation (factorization): the square-root start misses "
        "(interior and bound polish",
        "DNN relaxation (factorization): certified",
    ]
    assert any(
        "DNN relaxation (factorization): certified from the edge start "
        "(interior and bound polish from " in e and ") with 14 atoms, factor residual" in e
        for e in out.events
    )


def _shifted_draw(seed):
    """(G + G^T) / 2 + I / 2 for the 5x5 G of `default_rng(seed)`."""
    G = np.random.default_rng(seed).standard_normal((5, 5))
    return (G + G.T) / 2 + 0.5 * np.eye(5)


def test_the_bound_stage_certifies_a_draw_at_its_row_floor(monkeypatch):
    # the rotated square-root start of seed 3's DNN optimum misses the
    # budget, and one bound-stage polish of its 4 rows certifies the matrix
    # at its row floor, so neither the clique rows (3, below the floor) nor
    # the 5 square-root rows are built
    calls = _recording_polish(monkeypatch)
    out = approximate(ProblemSpec(_shifted_draw(3), "fro"), DriverSettings(k_max=2))
    assert isinstance(out, Projected)
    assert (out.k_used, out.decomposition.rank) == (1, 4)
    assert calls == [(4, "bound")]
    assert not any("clique" in e for e in out.events)
    assert any(
        "DNN relaxation (factorization): certified from the rotated square-root start "
        "(bound polish from " in e and "with 4 atoms (the Eckart-Young minimum)" in e
        for e in out.events
    )


def test_a_draw_whose_clique_start_is_skipped_certifies_from_its_square_root_rows(monkeypatch):
    # seed 66: the rotated square-root start misses at 3.2e-2 after its
    # bound-stage polish, and the clique start's 3 rows sit below the row
    # floor of 4, so the 5 rows of the clipped square root are polished in
    # full, and fit at about 7e-11 of the budget
    calls = _recording_polish(monkeypatch)
    out = approximate(ProblemSpec(_shifted_draw(66), "fro"), DriverSettings(k_max=2))
    assert isinstance(out, Projected)
    assert (out.k_used, out.decomposition.rank) == (1, 5)
    assert calls == [(4, "bound"), (5, "full")]
    assert "DNN relaxation (factorization): the clique start's row count 3 is below the " \
        "floor of 4; skipped" in out.events
    assert any(
        "DNN relaxation (factorization): certified from the square-root start "
        "(interior and bound polish from " in e and ") with 5 atoms, factor residual" in e
        for e in out.events
    )
    budget = cpproj.driver._factor_budget(out.matrix)
    assert cpproj.extraction.verify_decomposition(out.matrix, out.decomposition) <= 1e-2 * budget


def test_settings_validation():
    with pytest.raises(ValueError):
        DriverSettings(k_max=1)
    assert DriverSettings(k_max=2).k_max == 2


def test_the_driver_solves_at_the_solver_default():
    # one tolerance default: the driver adds no setting of its own, and
    # every order solves at it (test_every_order_solves_at_its_settings)
    assert DriverSettings().solver == SolverSettings()
    assert SolverSettings().tol == 1e-8


@pytest.mark.parametrize("norm", ["one", "two", "inf", "fro"])
def test_all_norms_project_cp_fixed_point(norm):
    # a CP matrix is its own projection no matter the norm
    B = np.array([[1.0, 0.5], [0.2, 1.2]])
    C = B @ B.T
    out = approximate(ProblemSpec(C, norm=norm))
    assert isinstance(out, Projected)
    assert abs(out.gamma) <= 1e-5
    npt.assert_allclose(out.matrix, C, atol=1e-4)


def _cycle_matrix():
    """1.8 I + adj(C5): doubly nonnegative, but <Horn, A> = -1, so not CP."""
    A = 1.8 * np.eye(5)
    for i in range(5):
        A[i, (i + 1) % 5] = A[(i + 1) % 5, i] = 1.0
    return A


def _cycle_at_every_order(monkeypatch, tol=SolverSettings().tol):
    """Make every order's solve the cycle matrix's DNN solve at `tol`, whose
    X is 1.8 I + adj(C5) to within the solve's accuracy.  No input is known
    that the K^(r) ladder leaves open at order 2, so a test that needs an
    Inconclusive run only to exercise what follows one takes this path."""
    prog, st = assemble(ProblemSpec(_cycle_matrix(), "fro"), 1), SolverSettings(tol=tol)
    monkeypatch.setattr(
        cpproj.driver, "solve_relaxation",
        lambda spec, k, settings: (prog, cpproj.relaxation.conic_solve(prog, st)),
    )


def _failing_fits(monkeypatch):
    """Make every damped solve of the polish raise, as a Cholesky
    factorization that breaks down does."""
    calls = []

    def failing(*args):
        calls.append(1)
        raise np.linalg.LinAlgError("dposv failed")

    monkeypatch.setattr(cpproj.extraction, "_damped_solve", failing)
    return calls


def test_a_failed_polish_is_rejected_by_the_residual_gate(monkeypatch):
    # the polish then hands back its start, which the residual gate judges,
    # and approximate returns an outcome instead of raising.  This rank-2 CP
    # matrix has no zero entry, so its single clique row is skipped, its
    # square root has negative entries, so neither the clipped root nor its
    # rotation fits unpolished, and its edge rows overshoot its diagonal:
    # the edge start, the last, misses, and its event ends the chain
    calls = _failing_fits(monkeypatch)
    F = np.array([[1.0, 1.0, 0.1], [0.1, 1.0, 1.0]])
    C = F.T @ F
    assert root_start(*np.linalg.eigh(C)).min() == 0.0
    out = approximate(C, DriverSettings(k_max=2))
    assert isinstance(out, Inconclusive)
    assert calls
    assert any(
        e.startswith("DNN relaxation (factorization): the edge start misses (interior and bound")
        for e in out.events
    )
    assert "DNN relaxation: not certified" in out.events


def test_a_nonnegative_square_root_certifies_without_a_fit(monkeypatch):
    # every 2x2 DNN matrix has a nonnegative square root, which is already
    # an exact factorization; so is its rotated Eckart-Young factor, and no
    # polish runs, so fits that would fail do not matter
    calls = _failing_fits(monkeypatch)
    out = approximate(np.array([[2.0, 1.0], [1.0, 2.0]]), DriverSettings(k_max=2))
    assert isinstance(out, Projected)
    assert out.k_used == 1
    assert calls == []
    assert any(
        "DNN relaxation (factorization): certified from the rotated square-root start "
        "(no polish)" in e
        for e in out.events
    )


def test_a_provable_miss_skips_polish_and_names_the_gate(monkeypatch):
    # the DNN optimum of the cycle matrix is the matrix itself, and the Horn
    # matrix keeps every CP matrix 0.2 away from it.  With that solve at
    # both orders (order 2 certifies the cycle matrix's real projection),
    # the floor exceeds the factor budget each time, so no polish runs at all
    _cycle_at_every_order(monkeypatch)
    polished = []
    monkeypatch.setattr(
        cpproj.driver, "polish_decomposition", lambda X, dec, stages: polished.append(1) or dec
    )
    out = approximate(_cycle_matrix(), DriverSettings(k_max=2))
    assert isinstance(out, Inconclusive)
    assert polished == []
    skips = [e for e in out.events if "Horn floor" in e and "polish skipped" in e]
    assert [e.split(":")[0] for e in skips] == [
        "DNN relaxation (factorization)",
        "order 2 (factorization)",
    ]
    assert all("Horn floor 2.000e-01" in e for e in skips)
    assert [k for k, _ in out.bounds] == [1, 2]
    assert out.gamma_lower == out.bounds[1][1]


def test_a_loose_tolerance_does_not_loosen_the_certificate(monkeypatch):
    # every order is the cycle matrix's DNN solve at tol 1e-2, which ends at
    # a relative gap of 1.8e-4, so a budget of ten times its residual level
    # would be 1.1e-2 with the 1 + ||X|| factor, wide enough for factors of
    # a matrix outside the CP cone.  The budget reads X alone, FACTOR_TOL
    # (1 + ||X||) as at the default tolerance, and the Horn floor of this
    # loose X clears it at least tenfold at both orders
    _cycle_at_every_order(monkeypatch, 1e-2)
    budgets, budget = [], cpproj.driver._factor_budget

    def recording(X):
        budgets.append((budget(X), np.linalg.norm(X)))
        return budgets[-1][0]

    monkeypatch.setattr(cpproj.driver, "_factor_budget", recording)
    out = approximate(_cycle_matrix(), DriverSettings(k_max=2, solver=SolverSettings(tol=1e-2)))
    assert isinstance(out, Inconclusive)
    assert out.relaxation.conic.residuals["rel_gap"] > 100 * FACTOR_TOL
    assert len(budgets) == 2
    for got, norm in budgets:
        assert got == pytest.approx(FACTOR_TOL * (1.0 + norm))
    skips = [e for e in out.events if "Horn floor" in e and e.endswith("polish skipped")]
    assert [e.split(":")[0] for e in skips] == [
        "DNN relaxation (factorization)",
        "order 2 (factorization)",
    ]
    for e in skips:
        assert float(re.search(r"\((\S+) times\)", e).group(1)) >= 10.0


@pytest.mark.parametrize(
    "C, order, scale",
    [(np.array([[2.0, 1.0], [1.0, 2.0]]), 1, 5.0),
     (np.array([[2.0, 1.0], [1.0, 2.0]]), 1, 50.0),
     (_cycle_matrix(), 2, 1000.0)],
    ids=["bound", "estimate", "stop"],
)
def test_a_stalled_solve_is_judged_by_its_residual_level(C, order, scale, monkeypatch):
    # the order's real solve, handed back as "iteration_limit" with every
    # residual at scale times the tolerance.  Within 10 times, it is used as
    # an optimal solve is: its objective bounds the distance and it is a
    # certification candidate, held to the same factor budget, FACTOR_TOL
    # (1 + ||X||).  Beyond that it is neither ("estimate", at 50
    # times): at order 1, with no bound below, approximate raises
    # SolverFailure; higher up the hierarchy stops, keeps the bounds of the
    # orders below and reports the last of them, whose X the CLI prints
    # under its k_used
    level = scale * DriverSettings().solver.tol
    solve, floor = cpproj.driver.solve_relaxation, cpproj.driver.row_floor
    budgets, matrices = [], {}

    def stalled(spec, k, settings):
        prog, csol = solve(spec, k, settings)
        matrices[k] = map_solution(prog, csol).matrix
        if k == order:
            residuals = {**csol.residuals, "primal_feas": level, "dual_feas": level, "rel_gap": level}
            csol = replace(csol, status="iteration_limit", residuals=residuals)
        return prog, csol

    def recording(lam, budget):
        budgets.append(budget)
        return floor(lam, budget)

    monkeypatch.setattr(cpproj.driver, "solve_relaxation", stalled)
    monkeypatch.setattr(cpproj.driver, "row_floor", recording)
    spec = ProblemSpec(C, "fro")
    tag = "DNN relaxation" if order == 1 else f"order {order}"
    if scale > 10.0 and order == 1:
        with pytest.raises(SolverFailure, match="order 1 ended with status 'iteration_limit'"):
            approximate(spec)
        assert budgets == []
        return
    out = approximate(spec)
    assert not any("distance estimate" in e for e in out.events)
    if scale <= 10.0:
        assert f"{tag}: accepting a reduced-accuracy iterate (rel_gap {level:.3e})" in out.events
        # the certified order is among the bounds: its gamma is one
        assert isinstance(out, Projected) and out.k_used == order
        assert out.bounds == ((order, out.gamma),)
        assert budgets == [pytest.approx(FACTOR_TOL * (1.0 + np.linalg.norm(out.matrix)))]
    else:
        stop = f"{tag}: solver stalled with status 'iteration_limit'; stopping the hierarchy"
        assert stop in out.events
        assert isinstance(out, Inconclusive) and out.k_last == order - 1
        assert [k for k, _ in out.bounds] == [1]
        doc, _ = cpproj.cli._outcome_doc(out, spec)
        assert doc["k_used"] == order - 1
        assert doc["X"] == matrices[order - 1].tolist() != matrices[order].tolist()


def test_every_relaxation_solve_goes_through_assemble_and_conic_solve(monkeypatch):
    # the benchmark's layer trace rebinds these two names, so an order that
    # reached the solver another way would drop out of its relaxation metrics
    seen, order_of = [], {}
    real_assemble = cpproj.relaxation.assemble
    real_solve = cpproj.relaxation.conic_solve

    def assembling(spec, k):
        seen.append(("assemble", k))
        prog = real_assemble(spec, k)
        order_of[prog] = k
        return prog

    def solving(prog, settings):
        seen.append(("conic_solve", order_of[prog]))
        return real_solve(prog, settings)

    monkeypatch.setattr(cpproj.relaxation, "assemble", assembling)
    monkeypatch.setattr(cpproj.relaxation, "conic_solve", solving)
    out = approximate(_cycle_matrix(), DriverSettings(k_max=3))
    # the cycle matrix is not CP, so order 1 cannot certify it; order 2 does
    assert isinstance(out, Projected) and out.k_used == 2
    assert seen == [("assemble", 1), ("conic_solve", 1), ("assemble", 2), ("conic_solve", 2)]


def test_a_stalled_polish_stops_early_and_rand41_still_certifies(monkeypatch):
    nfev = _counting_fits(monkeypatch)

    # a CP boundary matrix (the DNN optimum of draw 2 of `default_rng(2026)`,
    # with entries of 1e-9 and less) and its 5 clipped square-root rows: the
    # interior stage hands over and the bound stage finishes the fit, each
    # ended by the stall stop.  Without it the bound stage crawls to its
    # cap of 100 iterations per factor entry.
    X = np.array([
        [0.0891361305795615, 2.8100393847955274e-10, 0.32644370565034647,
         0.15785752652879598, 0.024079831403989223],
        [2.8100393847955274e-10, 1.3168194463100225, 2.2444567150226216e-09,
         9.142713583014863e-10, 1.1300263808612057],
        [0.32644370565034647, 2.2444567150226216e-09, 1.4460079179807612,
         0.6974604702658368, 4.6808911217397996e-11],
        [0.15785752652879598, 9.142713583014863e-10, 0.6974604702658368,
         0.33754003134205646, 4.872521655144899e-09],
        [0.024079831403989223, 1.1300263808612057, 4.6808911217397996e-11,
         4.872521655144899e-09, 1.007636475599109],
    ])
    start = CpDecomposition.from_factors(root_start(*np.linalg.eigh(X)))
    dec = cpproj.extraction.polish_decomposition(X, start, ("interior", "bound"))
    assert len(nfev) == 2 and sum(nfev) < 200
    resid = cpproj.extraction.verify_decomposition(X, dec)
    assert resid <= 0.1 * FACTOR_TOL * (1.0 + np.linalg.norm(X))
    monkeypatch.setattr(cpproj.extraction, "STALL_ITERS", 10**9)
    nfev.clear()
    cpproj.extraction.polish_decomposition(X, start, ("interior", "bound"))
    assert nfev[1] > 2000

    # draw 41 of the acceptance suite's seed-7 set: its DNN optimum is a CP
    # boundary matrix, on which the bounded fits of whole starts once
    # crawled to their evaluation cap (6,273 evaluations in all without the
    # stall stop); its rotated start now certifies after one bound-stage
    # polish of 15 residual evaluations
    C = np.array([
        [1.272591177882884, 0.6115922042386994, -0.21173324322243775, 1.371384810658078],
        [0.6115922042386994, -0.10335341582736501, 0.0919186627761294, -1.0166193235613654],
        [-0.21173324322243775, 0.0919186627761294, 0.39573076180964684, 0.02708085549524727],
        [1.371384810658078, -1.0166193235613654, 0.02708085549524727, 0.7312429884948122],
    ])
    nfev.clear()
    out = approximate(ProblemSpec(C, "fro"))
    assert isinstance(out, Projected)
    assert out.k_used == 1
    assert sum(nfev) < 30
