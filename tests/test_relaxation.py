from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import cpproj.relaxation
from cpproj.conic import (
    ConicSolution,
    SolverSettings,
    _dist_outside_cone,
    smat,
    solve as conic_solve,
    vech,
    vech_inv,
)
from cpproj.driver import DriverSettings
from cpproj.relaxation import (
    NORM_KINDS,
    LinearConstraint,
    ProblemSpec,
    assemble,
    check_weak_duality,
    map_solution,
    p_norm,
    project_dnn,
    solve_relaxation,
    symmetric,
)
from moment_reference import atomic_matrix, exponents, lift_atomic_point


# these checks assume the solver's accuracy of 1e-8, a decade below its default
TIGHT = SolverSettings(tol=1e-8)


def _block_slices(blocks):
    out, at = [], 0
    for b in blocks:
        out.append(slice(at, at + b.size))
        at += b.size
    return out


def test_frobenius_assembly_sizes():
    prog = assemble(ProblemSpec(np.eye(2), norm="fro"), 2)
    assert prog.objective.size == 5  # the 4 moments of degree 3, gamma
    assert prog.eq_map.shape[0] == 0  # X = P z needs no equality row
    kinds = [(b.kind, b.order) for b in prog.cone_blocks]
    # the parity classes e_1 and e_2; the class of size 3 needs n >= 3
    assert kinds == [("soc", 0), ("psd", 2), ("psd", 2)]
    assert prog.cone_blocks[0].size == 4  # gamma plus three weighted entries
    # row (a, b) of P names z_{e_a + e_b + e_j}, j = 1, 2, with weight 1,
    # over the moments z_30, z_21, z_12, z_03; gamma follows the moments
    P, weights = prog.info["P"]
    npt.assert_array_equal(P, [[0, 1], [1, 2], [2, 3]])
    npt.assert_array_equal(weights, [1.0, 1.0])
    assert prog.info["gamma"] == 4


def test_one_and_inf_agree():
    C = np.array([[1.0, -1.0], [-1.0, 1.0]])
    progs = {}
    sols = {}
    for kind in ("one", "inf"):
        prog, sol = solve_relaxation(ProblemSpec(C, norm=kind), 2, TIGHT)
        progs[kind] = prog
        sols[kind] = map_solution(prog, sol)
    assert [
        (b.kind, b.size) for b in progs["one"].cone_blocks
    ] == [(b.kind, b.size) for b in progs["inf"].cone_blocks]
    npt.assert_allclose(sols["one"].gamma, sols["inf"].gamma, atol=1e-7)
    npt.assert_allclose(sols["one"].gamma, 1.0, atol=1e-6)


def test_identity_is_its_own_projection():
    prog, sol = solve_relaxation(ProblemSpec(np.eye(2), norm="fro"), 2, TIGHT)
    rs = map_solution(prog, sol)
    assert rs.conic.status == "optimal"
    assert abs(rs.gamma) <= 1e-7
    npt.assert_allclose(rs.matrix, np.eye(2), atol=1e-6)
    assert check_weak_duality(rs)


def test_relaxation_value_meets_reference_projection():
    # for 2x2 matrices the completely positive cone equals the doubly
    # nonnegative cone, so the reference projection bounds the relaxation
    C = np.array([[1.0, -1.0], [-1.0, 1.0]])
    g_dnn, X_dnn = project_dnn(C, norm="fro")
    npt.assert_allclose(g_dnn, np.sqrt(2.0), atol=1e-6)
    npt.assert_allclose(X_dnn, np.eye(2), atol=1e-4)
    gammas = []
    for k in (2, 3):
        prog, sol = solve_relaxation(ProblemSpec(C, norm="fro"), k, TIGHT)
        assert sol.status == "optimal"
        gammas.append(map_solution(prog, sol).gamma)
    assert gammas[0] <= gammas[1] + 1e-7  # orders tighten monotonically
    assert gammas[1] <= g_dnn + 1e-6
    npt.assert_allclose(gammas[1], g_dnn, atol=1e-5)


def test_project_dnn_fixes_cp_matrices():
    rng = np.random.default_rng(5)
    B = rng.uniform(0.0, 1.0, size=(3, 5))
    C = B @ B.T
    g, X = project_dnn(C, norm="fro")
    assert g <= 1e-6 * (1 + np.linalg.norm(C))
    npt.assert_allclose(X, C, atol=1e-5)


def test_project_dnn_spectral_norm():
    C = np.array([[1.0, -1.0], [-1.0, 1.0]])
    g, X = project_dnn(C, norm="two")
    npt.assert_allclose(g, 1.0, atol=1e-6)
    with pytest.raises(ValueError):
        project_dnn(C, norm="one")


@pytest.mark.parametrize("norm", ["one", "two", "inf", "fro"])
def test_lifted_atomic_measures_are_feasible(norm):
    rng = np.random.default_rng(11)
    n, k = 3, 2
    atoms = np.abs(rng.normal(size=(3, n)))
    atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)
    weights = rng.uniform(0.5, 2.0, size=3)
    X = atomic_matrix(atoms, weights, k)  # sum_t w_t (1'x_t) x_t x_t'
    spec = ProblemSpec(
        np.eye(n),
        norm=norm,
        constraints=(
            LinearConstraint(np.eye(n), float(np.trace(X)), "eq"),
            LinearConstraint(np.eye(n), float(np.trace(X)) - 1.0, "ineq"),
        ),
    )
    prog = assemble(spec, k)
    xt = lift_atomic_point(spec, k, atoms, weights)
    assert xt.size == prog.objective.size
    resid = prog.eq_map @ xt - prog.eq_rhs
    assert np.abs(resid).max() <= 1e-9
    img = prog.cone_map @ xt + prog.cone_offset
    for b, sl in zip(prog.cone_blocks, _block_slices(prog.cone_blocks)):
        assert _dist_outside_cone(b, img[sl]) <= 1e-9
    assert xt[prog.info["gamma"]] == pytest.approx(
        p_norm(X - spec.C, norm), abs=1e-12
    )
    # the program reads that X off the lifted moments
    rs = map_solution(prog, ConicSolution("optimal", xt, None, None, None, None, {}, 0))
    npt.assert_allclose(rs.matrix, X, rtol=1e-13)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("norm", ["fro", "two", "one", "inf"])
def test_cone_image_is_the_exact_norm_encoding(norm, k):
    # at an arbitrary point, feasible or not, the rows evaluate to the
    # encoding itself: the nonneg block (for one/inf with the bound rows
    # T - (X - C), T + (X - C) and the column sums), then the norm block (fro,
    # two); the only equality row is the user's, as X = P z needs none
    rng = np.random.default_rng(8)
    n = 3
    G = rng.standard_normal((n, n))
    A = np.ones((n, n))
    spec = ProblemSpec(
        (G + G.T) / 2.0,
        norm,
        (LinearConstraint(np.eye(n), 2.0, "eq"), LinearConstraint(A, -1.0, "ineq")),
    )
    prog = assemble(spec, k)
    v = rng.standard_normal(prog.objective.size)
    rs = map_solution(prog, ConicSolution("optimal", v, None, None, None, None, {}, 0))
    X, gamma, D = rs.matrix, rs.gamma, rs.matrix - spec.C
    img = prog.cone_map @ v + prog.cone_offset
    blocks = list(zip(prog.cone_blocks, _block_slices(prog.cone_blocks)))
    iu = np.triu_indices(n)
    weight = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
    # order 1 holds the off-diagonal entries of X >= 0 (the PSD block
    # holds the diagonal); order 2 at n = 3 the one moment of the class of
    # size 3, z_{e_1 + e_2 + e_3}
    z111 = exponents(n, 3).index((1, 1, 1))
    nonneg = [X[np.triu_indices(n, 1)]] if k == 1 else [v[z111 : z111 + 1]]
    nonneg.append([np.sum(A * X) + 1.0])
    eq_res = prog.eq_map @ v - prog.eq_rhs
    assert eq_res.size == 1
    assert prog.eq_map[:, prog.info["gamma"] :].nnz == 0
    npt.assert_allclose(eq_res[-1], np.trace(X) - 2.0, rtol=0, atol=1e-12)
    if norm in ("one", "inf"):
        t = prog.info["gamma"] + 1  # vech(T) follows gamma
        T = vech_inv(v[t : t + iu[0].size])
        nonneg += [vech(T - D), vech(T + D), gamma - T.sum(axis=0)]
        assert all(b.kind == "psd" and b.order != 2 * n for b, _ in blocks[1:])
    (head, sl), norm_block = blocks[0], blocks[1]
    assert head.kind == "nonneg"
    npt.assert_allclose(img[sl], np.concatenate(nonneg), rtol=0, atol=1e-12)
    block, sl = norm_block
    if norm == "fro":
        assert block.kind == "soc"
        want = np.concatenate([[gamma], D[iu] * weight])
        npt.assert_allclose(img[sl], want, rtol=0, atol=1e-12)
    elif norm == "two":
        assert (block.kind, block.order) == ("psd", 2 * n)
        want = np.block([[gamma * np.eye(n), D], [D, gamma * np.eye(n)]])
        npt.assert_allclose(smat(img[sl], 2 * n), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("norm", NORM_KINDS)
def test_no_unconstrained_program_has_an_equality_row(norm):
    # X = P z is read off the moments, so only a user constraint makes an
    # equality row; and the Frobenius block, (gamma, svec(P z - C)), touches
    # every column, since every moment sits in some row of P
    rng = np.random.default_rng(9)
    for n in range(1, 6):
        G = rng.standard_normal((n, n))
        for k in range(1, 5):
            prog = assemble(ProblemSpec((G + G.T) / 2.0, norm), k)
            assert prog.eq_map.shape == (0, prog.objective.size)
            if norm == "fro":
                (sl,) = [sl for b, sl in zip(prog.cone_blocks, _block_slices(prog.cone_blocks))
                         if b.kind == "soc"]
                assert np.count_nonzero(prog.cone_map[sl].getnnz(axis=0)) == prog.objective.size


def test_equality_constraint_is_enforced():
    # pinning the trace to its current value keeps the identity optimal
    spec = ProblemSpec(
        np.eye(2),
        norm="fro",
        constraints=(LinearConstraint(np.eye(2), 2.0, "eq"),),
    )
    prog, sol = solve_relaxation(spec, 2)
    rs = map_solution(prog, sol)
    assert rs.conic.status == "optimal"
    assert abs(rs.gamma) <= 1e-6
    npt.assert_allclose(np.trace(rs.matrix), 2.0, atol=1e-7)


def test_inequality_constraint_pushes_projection():
    # forcing X11 >= 2 moves the projection of the identity to diag(2, 1)
    E11 = np.zeros((2, 2))
    E11[0, 0] = 1.0
    spec = ProblemSpec(
        np.eye(2),
        norm="fro",
        constraints=(LinearConstraint(E11, 2.0, "ineq"),),
    )
    prog, sol = solve_relaxation(spec, 2, TIGHT)
    rs = map_solution(prog, sol)
    assert rs.conic.status == "optimal"
    assert rs.matrix[0, 0] >= 2.0 - 1e-7
    npt.assert_allclose(rs.gamma, 1.0, atol=1e-5)
    assert check_weak_duality(rs)


def test_invalid_inputs_are_rejected():
    with pytest.raises(ValueError):
        assemble(ProblemSpec(np.eye(2)), 0)
    with pytest.raises(ValueError):
        ProblemSpec(np.eye(2), norm="nuclear")
    with pytest.raises(ValueError):
        LinearConstraint(np.eye(2), 1.0, "le")
    with pytest.raises(ValueError):
        ProblemSpec(np.eye(2), constraints=(LinearConstraint(np.eye(3), 1.0),))
    with pytest.raises(ValueError):
        ProblemSpec(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_target_is_rejected(bad):
    # a NaN asymmetry compares false, so only an explicit check keeps a
    # NaN or infinite C out of the solver
    C = np.eye(3)
    C[0, 2] = C[2, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        ProblemSpec(C)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_constraint_matrix_is_rejected(bad):
    A = np.ones((3, 3))
    A[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        LinearConstraint(A, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_right_hand_side_is_rejected(bad):
    with pytest.raises(ValueError, match="must be finite"):
        LinearConstraint(np.eye(3), bad, "ineq")


def test_constraint_row_is_the_trace_inner_product():
    # the row assemble builds for <A, X> == b, applied to the columns of
    # vech(X), against the explicit double sum
    rng = np.random.default_rng(11)
    for n in (2, 4, 7):
        A, X = (symmetric((G + G.T) / 2) for G in rng.standard_normal((2, n, n)))
        prog = assemble(ProblemSpec(np.zeros((n, n)), "fro", (LinearConstraint(A, 0.0),)), 1)
        # at order 1, P is the identity: moment m is entry m of vech(X)
        P, weights = prog.info["P"]
        npt.assert_array_equal(P, np.arange(n * (n + 1) // 2)[:, None])
        npt.assert_array_equal(weights, [1.0])
        v = np.zeros(prog.objective.size)
        v[P[:, 0]] = vech(X)
        direct = sum(A[i, j] * X[i, j] for i in range(n) for j in range(n))
        npt.assert_allclose(prog.eq_map @ v, [direct], rtol=1e-13)


def test_map_solution_requires_a_point():
    prog = assemble(ProblemSpec(np.eye(2)), 2)
    sol = conic_solve(prog)
    rs = map_solution(prog, sol)
    assert isinstance(rs.matrix, np.ndarray) and rs.matrix.shape == (2, 2)
    assert rs.conic.dual_obj is not None
    blank = replace(sol, status="iteration_limit", primal=None)
    with pytest.raises(ValueError):
        map_solution(prog, blank)


def test_map_solution_reads_the_same_matrix_at_orders_1_and_2():
    # order 1's moments are vech(X) itself, order 2's the moments z_30,
    # z_21, z_12, z_03 of degree 3, which map_solution reads through
    # X_11 = z_30 + z_21, X_12 = z_21 + z_12, X_22 = z_12 + z_03; the bound
    # T of the one norm follows gamma, and map_solution must not read it
    X = np.array([[2.0, 0.5], [0.5, 1.0]])
    for k, z in ((1, [2.0, 0.5, 1.0]), (2, [1.5, 0.5, 0.0, 1.0])):
        prog = assemble(ProblemSpec(np.eye(2), "one"), k)
        primal = np.full(prog.objective.size, 9.0)
        primal[: len(z)] = z
        primal[prog.info["gamma"]] = 0.25
        sol = ConicSolution("optimal", primal, None, None, None, None, {}, 0)
        rs = map_solution(prog, sol)
        npt.assert_array_equal(rs.matrix, X)
        assert rs.gamma == 0.25


def test_dnn_relaxation_of_a_plain_instance_is_the_dnn_projection():
    rng = np.random.default_rng(4)
    G = rng.standard_normal((4, 4))
    C = (G + G.T) / 2.0
    for norm in ("fro", "two"):
        prog, sol = solve_relaxation(ProblemSpec(C, norm), 1)
        assert [(b.kind, b.order) for b in prog.cone_blocks][-1] == ("psd", 4)
        assert prog.eq_map.shape[0] == 0  # no moment equalities at order 1
        assert sol.status == "optimal"
        rs = map_solution(prog, sol)
        ref_gamma, ref_X = project_dnn(C, norm)
        assert rs.gamma == pytest.approx(ref_gamma, abs=1e-8)
        npt.assert_allclose(rs.matrix, ref_X, atol=1e-6)


def test_dnn_relaxation_keeps_the_constraints_and_the_abs_bound():
    rng = np.random.default_rng(5)
    G = rng.standard_normal((3, 3))
    C = (G + G.T) / 2.0
    cons = (
        LinearConstraint(np.eye(3), 4.0, "eq"),
        LinearConstraint(np.ones((3, 3)), 6.0, "ineq"),
    )
    for norm in ("one", "inf"):
        spec = ProblemSpec(C, norm, cons)
        prog, sol = solve_relaxation(spec, 1)
        # vech(X), gamma, then vech(T)
        assert (prog.info["gamma"], prog.objective.size) == (6, 13)
        assert sol.status == "optimal"
        rs = map_solution(prog, sol)
        gamma, X = rs.gamma, rs.matrix
        assert max(spec.violations(X)) <= 1e-7
        assert X.min() >= -1e-8
        assert np.linalg.eigvalsh(X).min() >= -1e-8
        assert gamma == pytest.approx(p_norm(X - C, "one"), abs=1e-6)


def test_order_1_tightens_the_tolerance(monkeypatch):
    seen = []
    real = cpproj.relaxation.conic_solve
    monkeypatch.setattr(
        cpproj.relaxation, "conic_solve", lambda prog, st: seen.append(st) or real(prog, st)
    )
    spec = ProblemSpec(np.eye(2))
    solve_relaxation(spec, 1, SolverSettings(tol=1e-6))
    solve_relaxation(spec, 1, SolverSettings(tol=1e-9))
    solve_relaxation(spec, 2, SolverSettings(tol=1e-6))
    solve_relaxation(spec, 1)
    assert [st.tol for st in seen] == [1e-8, 1e-9, 1e-6, 1e-8]


def test_relabeling_leaves_the_order4_probe_solve_unchanged():
    # the benchmark's order-4 probe times relabelings of one 4x4 matrix as
    # equal work, which needs the same status and iteration count for each
    G = np.random.default_rng(5).standard_normal((4, 4))
    base = (G + G.T) / 2.0
    runs = []
    for perm in ([0, 1, 2, 3], [2, 0, 3, 1]):
        spec = ProblemSpec(base[np.ix_(perm, perm)], "fro")
        prog, sol = solve_relaxation(spec, 4, DriverSettings().solver)
        runs.append((sol.status, sol.iterations, map_solution(prog, sol).gamma))
    (status_a, iters_a, gamma_a), (status_b, iters_b, gamma_b) = runs
    assert status_a == status_b == "optimal"
    assert iters_a == iters_b
    assert abs(gamma_a - gamma_b) <= 1e-9


@pytest.mark.parametrize("k", [1, 2])
def test_programs_of_one_order_share_a_read_only_rung(k):
    # the rung is cached per (n, k), so the map P that one program hands
    # out in `info` is the next program's too, and may not be edited
    first = assemble(ProblemSpec(np.eye(3), "fro"), k)
    second = assemble(ProblemSpec(2.0 * np.eye(3), "one"), k)
    assert all(a is b for a, b in zip(first.info["P"], second.info["P"]))
    for a in first.info["P"]:
        with pytest.raises(ValueError):
            a[0] = 7
    # the rung keeps the only cached copy of its rows: P and its weights,
    # the nonneg moments (at order 1 the off-diagonal entries, at order 2
    # the class of size 3) and the PSD columns (at order 1 the class 0, at
    # order 2 the classes of size 1)
    rung = cpproj.relaxation._rung(3, k)
    rows = [a for a in (rung.P, rung.weights, rung.nonneg, *(c for _, c in rung.psd)) if a.size]
    assert len(rows) == {1: 3 + 1, 2: 3 + 3}[k]
    for a in rows:
        with pytest.raises(ValueError):
            a[0] = 7
    with pytest.raises(ValueError, match="at least 1"):
        assemble(ProblemSpec(np.eye(3)), 0)


def test_only_order_1_has_a_name_of_its_own():
    assert [cpproj.relaxation.order_name(k) for k in (1, 2, 3)] == [
        "DNN relaxation", "order 2", "order 3"]
    assert cpproj.relaxation.order_name(1, article=True) == "the DNN relaxation"
    assert cpproj.relaxation.order_name(2, article=True) == "order 2"
