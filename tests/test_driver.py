import re
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import cpproj.conic
import cpproj.driver
import cpproj.extraction
import cpproj.relaxation
from cpproj.conic import SolverSettings, verify_certificate
from cpproj.driver import (
    FACTOR_TOL,
    STALL_SLACK,
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
    # the polish's dogbox stage takes them onto the bound, so the DNN
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
    """Spec, order-2 conic solution and optimal matrix of a Frobenius instance."""
    spec = ProblemSpec(C, "fro")
    prog, csol = solve_relaxation(spec, 2, DriverSettings().solver)
    assert csol.status == "optimal"
    return spec, csol, map_solution(prog, csol).matrix


def test_direct_factorization_rejects_a_matrix_outside_the_cp_cone():
    # draw 19 of the acceptance suite's seed-7 DNN-oracle set: its order-2
    # distance is 1.6e-5 below the DNN distance, and CP = DNN for n = 4, so
    # the order-2 matrix lies at least 1.6e-5 from the CP cone.  Its entries
    # reach -4.1e-5, and that entrywise floor (5.8e-5) is 21 times the
    # factorization budget, so no polish is tried; the extracted-atom budget
    # 1e-4 * (1 + ||X||) would admit a 2-atom fit.  The driver certifies
    # this draw at the DNN relaxation, so the order-2 matrix is handed to
    # the factorization directly
    C = np.array([
        [-0.061344079833248494, -0.04752070495388338, 0.2260475390418809, 0.6498794000316037],
        [-0.04752070495388338, 1.1880942172123188, -0.11041043468631645, 0.47938866899588234],
        [0.2260475390418809, -0.11041043468631645, -0.3894303048753847, -0.4499534834136761],
        [0.6498794000316037, 0.47938866899588234, -0.4499534834136761, 0.6688984464469374],
    ])
    spec, csol, X = _order2(C)
    events = []
    assert _factorize(X, csol, spec, DriverSettings(), events.append, "order 2") is None
    assert [e for e in events if "certified" in e] == []
    assert any("order 2 (factorization): entrywise floor" in e for e in events)


def _recording_polish(monkeypatch):
    """Record every polish the driver runs, as (rows, "dogbox") for the
    dogbox-only polish of a rotated start and (rows, "full") for the full
    polish of a start, and every input it hands to sparsify, as
    ("sparsify", rows)."""
    calls = []
    polish, sparsify = cpproj.driver.polish_decomposition, cpproj.driver.sparsify_decomposition

    def polishing(X, dec, *stages):
        calls.append((dec.rank, "dogbox" if stages == (("dogbox",),) else "full"))
        return polish(X, dec, *stages)

    def sparsifying(X, dec, tol, least):
        calls.append(("sparsify", dec.rank))
        return sparsify(X, dec, tol, least)

    monkeypatch.setattr(cpproj.driver, "polish_decomposition", polishing)
    monkeypatch.setattr(cpproj.driver, "sparsify_decomposition", sparsifying)
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
    spec, csol, X = _order2(_draw_15())
    root = CpDecomposition.from_factors(root_start(*np.linalg.eigh(X)))
    budget = FACTOR_TOL * (1.0 + np.linalg.norm(X))
    assert root.rank == 4
    assert np.linalg.norm(root.reconstruct() - X) > 3.0 * budget
    assert row_floor(np.linalg.eigvalsh(X), budget) == 2
    calls = _recording_polish(monkeypatch)
    events = []
    dec = _factorize(X, csol, spec, DriverSettings(), events.append, "order 2")
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
    # Eckart-Young factor fits at the floor of 2 atoms: no least_squares
    # call runs, so fits that would fail do not matter
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


@pytest.mark.parametrize("draw", [22, 42])
def test_a_rotated_start_that_misses_certifies_after_one_dogbox_polish(draw, monkeypatch):
    # draws 22 and 42 of the acceptance suite's seed-7 set (both 3x3): the
    # clipped rotation misses the budget, its event gives the residual, and
    # one dogbox polish of its 2 rows certifies, with no full polish and
    # no sparsify pass
    rng = np.random.default_rng(7)
    for _ in range(draw + 1):
        n = int(rng.integers(3, 5))
        G = rng.standard_normal((n, n))
    calls = _recording_polish(monkeypatch)
    out = approximate(ProblemSpec((G + G.T) / 2.0, "fro"))
    assert isinstance(out, Projected)
    assert out.k_used == 1
    assert out.decomposition.rank == 2
    assert calls == [(2, "dogbox")]
    miss, = [e for e in out.events if "misses" in e]
    assert miss.startswith(
        "DNN relaxation (factorization): the rotated square-root start misses (no polish) "
        "with factor residual"
    )
    assert miss.endswith("polishing it by dogbox")
    resid, budget = map(float, re.search(r"residual (\S+) against (\S+);", miss).groups())
    assert budget == pytest.approx(FACTOR_TOL * (1.0 + np.linalg.norm(out.matrix)), rel=1e-3)
    assert resid > budget
    assert any(
        "certified from the rotated square-root start (one dogbox polish) with 2 atoms "
        "(the Eckart-Young minimum)" in e
        for e in out.events
    )


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
    # of 4, rotated toward the heaviest root rows, fits after one dogbox
    # polish: the rotation comes first, so no random start is needed
    calls = _recording_polish(monkeypatch)
    C, norm = _draw_35()
    out = approximate(ProblemSpec(C, norm))
    assert isinstance(out, Projected)
    assert out.k_used == 1
    assert out.decomposition.rank == 4
    assert out.gamma == pytest.approx(1.6287910457500272, rel=1e-9)
    assert calls == [(4, "dogbox")]
    assert not any("random" in e for e in out.events)
    assert any(
        "DNN relaxation (factorization): certified from the rotated square-root start "
        "(one dogbox polish) with 4 atoms (the Eckart-Young minimum)" in e
        for e in out.events
    )


def test_a_missed_square_root_start_falls_back_to_random_rows(monkeypatch):
    # a CP matrix whose graph is the triangle-free K_{2,3}: the support of
    # every nonnegative factor row is a clique, an edge or a vertex, and
    # each of the 6 edges needs its own row, so its cp-rank is 6 while its
    # order and row floor are 5.  No 5 rows fit: the rotated square-root
    # start misses, and so does the rotation seeded by the 15 random rows;
    # only their full polish fits, and the sparsify pass drops them to 6
    B = np.zeros((6, 5))
    for row, (a, b, u, v) in enumerate(
        [(0, 2, 1, 2), (0, 3, 2, 1), (0, 4, 1, 1), (1, 2, 2, 2), (1, 3, 1, 3), (1, 4, 3, 1)]
    ):
        B[row, a], B[row, b] = u, v
    C = B.T @ B
    calls = _recording_polish(monkeypatch)
    out = approximate(ProblemSpec(C, "one"))
    assert isinstance(out, Projected)
    assert out.k_used == 1
    assert abs(out.gamma) <= 1e-8
    assert out.decomposition.rank == 6
    budget = FACTOR_TOL * (1.0 + np.linalg.norm(out.matrix))
    assert row_floor(np.linalg.eigvalsh(out.matrix), budget) == 5
    # each start's 5-row rotation is polished by dogbox and misses; then
    # the start's own rows are polished in full and handed to sparsify
    assert calls == [
        (5, "dogbox"), (5, "full"), ("sparsify", 5),
        (5, "dogbox"), (15, "full"), ("sparsify", 15),
    ]
    misses = [e for e in out.events if "misses" in e]
    assert [e.split(" misses ")[0] for e in misses] == (
        ["DNN relaxation (factorization): the rotated square-root start"] * 3
        + ["DNN relaxation (factorization): the random start"] * 2
    )
    assert misses[2].endswith("trying 15 random rows")
    assert any(
        "DNN relaxation (factorization): certified from the random start "
        "(full polish and sparsify) with 6 atoms," in e
        for e in out.events
    )


def test_settings_validation():
    with pytest.raises(ValueError):
        DriverSettings(k_max=1)
    assert DriverSettings(k_max=2).k_max == 2


def test_the_driver_solves_at_the_solver_default():
    # one tolerance default: the driver adds no setting of its own, and
    # only order 1 is held tighter, at DNN_TOL
    assert DriverSettings().solver == SolverSettings()
    assert SolverSettings().tol == 1e-7
    assert cpproj.relaxation.DNN_TOL < SolverSettings().tol


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


def _failing_fits(monkeypatch):
    """Make every least_squares call raise, as an SVD that does not converge does."""
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cpproj.extraction, "least_squares", failing)
    return calls


def test_a_failed_polish_is_rejected_by_the_residual_gate(monkeypatch):
    # the polish then hands back its start, which the residual gate judges,
    # and approximate returns an outcome instead of raising.  This CP matrix
    # has a square root with entries of -0.21, so neither its clipped root
    # nor the random rows fit unpolished
    calls = _failing_fits(monkeypatch)
    C = np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]])
    out = approximate(C, DriverSettings(k_max=2))
    assert isinstance(out, Inconclusive)
    assert calls
    assert any("DNN relaxation (factorization): factor residual" in e for e in out.events)


def test_a_nonnegative_square_root_certifies_without_a_fit(monkeypatch):
    # every 2x2 DNN matrix has a nonnegative square root, which is already
    # an exact factorization; so is its rotated Eckart-Young factor, and no
    # least_squares call runs, so fits that would fail do not matter
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
    # matrix keeps every CP matrix 0.2 away from it; at order 2 the bound is
    # 0.05587.  Both exceed the factor budget, so no polish runs at all
    polished = []
    monkeypatch.setattr(
        cpproj.driver, "polish_decomposition", lambda X, dec: polished.append(1) or dec
    )
    out = approximate(_cycle_matrix(), DriverSettings(k_max=2))
    assert isinstance(out, Inconclusive)
    assert polished == []
    skips = [e for e in out.events if "Horn floor" in e and "polish skipped" in e]
    assert [e.split(":")[0] for e in skips] == [
        "DNN relaxation (factorization)",
        "order 2 (factorization)",
    ]
    assert "Horn floor 2.000e-01" in skips[0]
    assert [k for k, _ in out.bounds] == [1, 2]
    assert out.gamma_lower == out.bounds[1][1]


@pytest.mark.parametrize(
    "C, order, scale",
    [(np.array([[2.0, 1.0], [1.0, 2.0]]), 1, 5.0),
     (np.array([[2.0, 1.0], [1.0, 2.0]]), 1, 50.0),
     (_cycle_matrix(), 2, 1000.0)],
    ids=["bound", "estimate", "stop"],
)
def test_a_stalled_solve_is_judged_by_its_residual_level(C, order, scale, monkeypatch):
    # the order's real solve, handed back as "iteration_limit" with every
    # residual at scale times the tolerance.  Within 10 times, its objective
    # still bounds the distance; within STALL_SLACK (100) times, it is only a
    # certification candidate; either way the factor budget widens to 10
    # times the residual level.  Beyond that, the hierarchy stops and keeps
    # the bounds of the orders below
    level = scale * DriverSettings().solver.tol
    solve, floor = cpproj.driver.solve_relaxation, cpproj.driver.row_floor
    budgets = []

    def stalled(spec, k, settings):
        prog, csol = solve(spec, k, settings)
        if k == order:
            residuals = {**csol.residuals, "primal_feas": level, "dual_feas": level, "rel_gap": level}
            csol = replace(csol, status="iteration_limit", residuals=residuals)
        return prog, csol

    def recording(lam, budget):
        budgets.append(budget)
        return floor(lam, budget)

    monkeypatch.setattr(cpproj.driver, "solve_relaxation", stalled)
    monkeypatch.setattr(cpproj.driver, "row_floor", recording)
    out = approximate(ProblemSpec(C, "fro"))
    tag = "DNN relaxation" if order == 1 else f"order {order}"
    orders = [k for k, _ in out.bounds]
    if scale < STALL_SLACK:
        assert f"{tag}: accepting a reduced-accuracy iterate (rel_gap {level:.3e})" in out.events
        assert isinstance(out, Projected) and out.k_used == order
        assert budgets == [pytest.approx(10.0 * level * (1.0 + np.linalg.norm(out.matrix)))]
        estimate = f"{tag}: distance estimate {out.gamma:.10g} at reduced accuracy"
        assert (estimate in out.events) == (order not in orders) == (scale > 10.0)
    else:
        stop = f"{tag}: solver stalled with status 'iteration_limit'; stopping the hierarchy"
        assert stop in out.events
        assert isinstance(out, Inconclusive) and out.k_last == order
        assert orders == [1]


def test_every_relaxation_solve_goes_through_assemble_and_conic_solve(monkeypatch):
    # the benchmark's layer trace rebinds these two names, so an order that
    # reached the solver another way would drop out of its relaxation metrics
    seen = []
    real_assemble = cpproj.relaxation.assemble
    real_solve = cpproj.relaxation.conic_solve

    def assembling(spec, k):
        seen.append(("assemble", k))
        return real_assemble(spec, k)

    def solving(prog, settings):
        seen.append(("conic_solve", prog.info["k"]))
        return real_solve(prog, settings)

    monkeypatch.setattr(cpproj.relaxation, "assemble", assembling)
    monkeypatch.setattr(cpproj.relaxation, "conic_solve", solving)
    out = approximate(_cycle_matrix(), DriverSettings(k_max=2))
    assert isinstance(out, Inconclusive)
    assert seen == [("assemble", 1), ("conic_solve", 1), ("assemble", 2), ("conic_solve", 2)]


def test_a_stalled_polish_stops_early_and_rand41_still_certifies(monkeypatch):
    fits = []
    fit = cpproj.extraction.least_squares

    def counting(*args, **kwargs):
        res = fit(*args, **kwargs)
        fits.append((res.nfev, res.status))
        return res

    monkeypatch.setattr(cpproj.extraction, "least_squares", counting)

    # a CP boundary matrix (an order-1 optimum of rand41 below, with entries
    # of 1e-9 and less) and a 3-row start: the bounded trf stage crawls, the
    # stall stop ends it, and the dogbox stage finishes the fit
    X = np.array([
        [1.5311335573058642, 0.30432021759551786, 2.000502087103216e-09, 1.095352895037716],
        [0.30432021759551786, 0.261833479657983, 0.048125374614484455, -2.1295285885964058e-12],
        [2.000502087103216e-09, 0.048125374614484455, 0.4009836644513979, 4.448041534302649e-08],
        [1.095352895037716, -2.1295285885964058e-12, 4.448041534302649e-08, 1.0259471727719016],
    ])
    F = np.array([
        [2.551799985234779e-12, 0.07877397543773494, 0.6563497993525533, 3.6322049170663425e-07],
        [1.062361216319675, 5.784917576971064e-13, 6.555146138915296e-08, 0.9953006969665481],
        [0.6233524577137435, 0.5244943832020798, 4.415996589272223e-12, 1.3071135093180622e-12],
    ])
    dec = cpproj.extraction.polish_decomposition(
        X, cpproj.extraction.CpDecomposition(F)
    )
    assert fits[0][1] == -2  # trf stopped by the callback
    assert len(fits) == 2 and sum(nfev for nfev, _ in fits) < 200
    resid = cpproj.extraction.verify_decomposition(X, dec)
    assert resid <= 0.1 * FACTOR_TOL * (1.0 + np.linalg.norm(X))

    # draw 41 of the acceptance suite's seed-7 set: its DNN optimum is a CP
    # boundary matrix, on which bounded trf fits crawl to their evaluation
    # cap (6,273 evaluations in all without the stall stop)
    C = np.array([
        [1.272591177882884, 0.6115922042386994, -0.21173324322243775, 1.371384810658078],
        [0.6115922042386994, -0.10335341582736501, 0.0919186627761294, -1.0166193235613654],
        [-0.21173324322243775, 0.0919186627761294, 0.39573076180964684, 0.02708085549524727],
        [1.371384810658078, -1.0166193235613654, 0.02708085549524727, 0.7312429884948122],
    ])
    fits.clear()
    out = approximate(ProblemSpec(C, "fro"))
    assert isinstance(out, Projected)
    assert out.k_used == 1
    assert sum(nfev for nfev, _ in fits) < 2000
