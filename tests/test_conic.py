import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import cpproj.conic
from cpproj.conic import (
    ConeBlock,
    ConicProgram,
    ConicSolverError,
    SolverSettings,
    _Breakdown,
    _CsrOp,
    _Kkt,
    _dist_outside_cone,
    _NonnegMap,
    _NonnegScaling,
    _PsdMap,
    _PsdScaling,
    _SocScaling,
    _block_map,
    _block_slices,
    _chunk_scratch,
    _make_scaling,
    smat,
    solve,
    svec,
    svec_index,
    verify_certificate,
)
from cpproj.relaxation import LinearConstraint, ProblemSpec, assemble
from moment_reference import rung_maps
from test_acceptance import REFERENCE_INSTANCES


# these checks assume the solver's accuracy of 1e-8, a decade below its default
TIGHT = SolverSettings(tol=1e-8)


def make_program(c, E, d, M, h, blocks):
    c = np.asarray(c, dtype=float)
    return ConicProgram(
        objective=c,
        eq_map=sp.csr_matrix(np.atleast_2d(E).reshape(len(d), c.size)),
        eq_rhs=np.asarray(d, dtype=float),
        cone_map=sp.csr_matrix(np.atleast_2d(M).reshape(len(h), c.size)),
        cone_offset=np.asarray(h, dtype=float),
        cone_blocks=tuple(blocks),
    )


def test_svec_roundtrip_preserves_inner_products():
    rng = np.random.default_rng(7)
    for p in (1, 2, 5, 9):
        A = rng.normal(size=(p, p))
        A = A + A.T
        B = rng.normal(size=(p, p))
        B = B + B.T
        npt.assert_allclose(smat(svec(A), p), A, atol=1e-13)
        npt.assert_allclose(svec(A) @ svec(B), np.sum(A * B), rtol=1e-12)


def test_cone_block_validation():
    with pytest.raises(ConicSolverError):
        ConeBlock("soc", 1)
    with pytest.raises(ConicSolverError):
        ConeBlock("psd", 5, 2)
    with pytest.raises(ConicSolverError):
        ConeBlock("spd", 3)
    assert ConeBlock("psd", 10, 4).order == 4


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), 0.0, -1e-7, 1.0, 1e3])
def test_solver_settings_take_only_a_tolerance_strictly_between_0_and_1(tol):
    # the residuals are relative, so a bound of 1 or more is met by the
    # starting point and would pass any program as solved
    with pytest.raises(ConicSolverError, match=r"must lie in \(0, 1\)"):
        SolverSettings(tol)
    assert SolverSettings(0.5).tol == 0.5


def test_program_validation():
    with pytest.raises(ConicSolverError):
        ConicProgram(
            objective=np.ones(1),
            eq_map=sp.csr_matrix((0, 1)),
            eq_rhs=np.zeros(0),
            cone_map=sp.csr_matrix([[1.0]]),
            cone_offset=np.zeros(1),
            cone_blocks=(ConeBlock("nonneg", 2),),
        )


def test_lp_scalar_bound():
    # minimize x subject to x >= 1
    prog = make_program([1.0], np.zeros((0, 1)), [], [[1.0]], [-1.0],
                        [ConeBlock("nonneg", 1)])
    sol = solve(prog, TIGHT)
    assert sol.status == "optimal"
    npt.assert_allclose(sol.primal, [1.0], atol=1e-7)
    npt.assert_allclose(sol.primal_obj, 1.0, atol=1e-7)
    npt.assert_allclose(sol.dual_obj, 1.0, atol=1e-7)
    npt.assert_allclose(sol.dual_cone, [1.0], atol=1e-6)


def test_soc_euclidean_norm():
    # minimize t subject to ||(3, 4)|| <= t
    prog = make_program([1.0], np.zeros((0, 1)), [],
                        [[1.0], [0.0], [0.0]], [0.0, 3.0, 4.0],
                        [ConeBlock("soc", 3)])
    sol = solve(prog, TIGHT)
    assert sol.status == "optimal"
    npt.assert_allclose(sol.primal_obj, 5.0, atol=1e-7)
    npt.assert_allclose(sol.dual_obj, 5.0, atol=1e-7)
    # dual certificate is the unit normal of the cone facet
    npt.assert_allclose(sol.dual_cone, [1.0, -0.6, -0.8], atol=1e-6)


def test_sdp_matrix_completion():
    # variables (x11, x12, x22); pin x11 = 1, x12 = 0.9, minimize the trace
    # over PSD completions.  The optimal x22 is 0.9^2.
    rt2 = np.sqrt(2.0)
    M = np.array([[1.0, 0.0, 0.0], [0.0, rt2, 0.0], [0.0, 0.0, 1.0]])
    E = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    prog = make_program([1.0, 0.0, 1.0], E, [1.0, 0.9], M, [0.0, 0.0, 0.0],
                        [_psd(2)])
    sol = solve(prog, TIGHT)
    assert sol.status == "optimal"
    npt.assert_allclose(sol.primal_obj, 1.81, atol=1e-6)
    npt.assert_allclose(sol.primal, [1.0, 0.9, 0.81], atol=1e-6)
    X = smat(sol.dual_cone * 0 + M @ sol.primal, 2)
    assert np.linalg.eigvalsh(X).min() >= -1e-8


def test_equality_only_program():
    prog = make_program([0.0], [[1.0]], [3.0], np.zeros((0, 1)), [], [])
    sol = solve(prog)
    assert sol.status == "optimal"
    npt.assert_allclose(sol.primal, [3.0], atol=1e-7)


def test_infeasible_bounds_yield_verified_certificate():
    # x >= 1 and x <= 0 cannot hold together
    prog = make_program([1.0], np.zeros((0, 1)), [],
                        [[1.0], [-1.0]], [-1.0, 0.0],
                        [ConeBlock("nonneg", 2)])
    sol = solve(prog)
    assert sol.status == "primal_infeasible"
    assert verify_certificate(prog, sol)
    assert sol.residuals["margin_error"] <= 1e-8
    z = sol.dual_cone
    assert z.min() >= -1e-8
    npt.assert_allclose(prog.cone_map.T @ z, [0.0], atol=1e-6)


def _psd(order):
    return ConeBlock("psd", order * (order + 1) // 2, order)


def _interior_point(kind, size, order, rng, dual=False):
    if kind == "nonneg":
        return rng.uniform(0.5, 2.0, size=size)
    if kind == "soc":
        tail = rng.normal(size=size - 1)
        return np.concatenate(([np.linalg.norm(tail) + rng.uniform(0.5, 2.0)], tail))
    A = rng.normal(size=(order, order))
    return svec(A @ A.T + (0.5 + rng.uniform()) * np.eye(order))


def _random_blocks(rng, allow_pinned=True):
    """How many pinned rows (cone rows held at zero) to draw, and the cone blocks."""
    pinned = 0
    if allow_pinned and rng.uniform() < 0.3:
        pinned = int(rng.integers(1, 3))
    blocks = []
    if rng.uniform() < 0.8:
        blocks.append(ConeBlock("nonneg", int(rng.integers(1, 6))))
    for _ in range(rng.integers(0, 3)):
        blocks.append(ConeBlock("soc", int(rng.integers(2, 6))))
    for _ in range(rng.integers(0, 3)):
        blocks.append(_psd(int(rng.integers(1, 7))))
    if not pinned and not blocks:
        blocks.append(ConeBlock("nonneg", 2))
    return pinned, blocks


def _feasible_program(seed):
    """Program with a known strictly feasible primal-dual pair baked in.

    The first `pinned` rows of M are drawn as cone rows held at zero, with
    free multipliers, and go into the equality map after its drawn rows.
    """
    rng = np.random.default_rng(seed)
    pinned, blocks = _random_blocks(rng)
    m_k = pinned + sum(b.size for b in blocks)
    n = int(rng.integers(3, 12))
    m_e = int(rng.integers(0, 4))
    E = rng.normal(size=(m_e, n))
    M = rng.normal(size=(m_k, n))
    x0 = rng.normal(size=n)
    y0 = rng.normal(size=m_e)
    s_parts, z_parts = [np.zeros(0)], [rng.normal(size=pinned)]
    for b in blocks:
        s_parts.append(_interior_point(b.kind, b.size, b.order, rng))
        z_parts.append(_interior_point(b.kind, b.size, b.order, rng, dual=True))
    s0 = np.concatenate(s_parts)
    z0 = np.concatenate(z_parts)
    Mx0 = M @ x0
    c = E.T @ y0 + M.T @ z0
    d = np.concatenate([E @ x0, Mx0[:pinned]])
    E = np.vstack([E, M[:pinned]])
    prog = make_program(c, E, d, M[pinned:], s0 - Mx0[pinned:], blocks)
    return prog, x0, np.concatenate([y0, z0[:pinned]]), z0[pinned:]


def _block_slices(blocks):
    out, at = [], 0
    for b in blocks:
        out.append(slice(at, at + b.size))
        at += b.size
    return out


@pytest.mark.parametrize("seed", range(100))
def test_random_feasible_programs(seed):
    prog, x0, y0, z0 = _feasible_program(seed)
    sol = solve(prog, TIGHT)
    assert sol.status == "optimal", f"seed {seed}: {sol.status} {sol.residuals}"
    x, y, z = sol.primal, sol.dual_eq, sol.dual_cone
    d, h, c = prog.eq_rhs, prog.cone_offset, prog.objective

    # recomputed optimality conditions, independent of solver bookkeeping
    assert np.abs(prog.eq_map @ x - d).max(initial=0.0) <= 1e-6 * (1 + np.abs(d).max(initial=0.0))
    img = prog.cone_map @ x + h
    for b, sl in zip(prog.cone_blocks, _block_slices(prog.cone_blocks)):
        assert _dist_outside_cone(b, img[sl]) <= 1e-6
        assert _dist_outside_cone(b, z[sl]) <= 1e-6
    adj = prog.eq_map.T @ y + prog.cone_map.T @ z
    assert np.abs(adj - c).max() <= 1e-6 * (1 + np.abs(c).max())
    assert abs(sol.primal_obj - sol.dual_obj) <= 1e-6 * max(1.0, abs(sol.primal_obj))
    assert max(sol.residuals["primal_feas"], sol.residuals["dual_feas"]) <= 1e-7
    assert sol.residuals["rel_gap"] <= 1e-7

    # the baked-in pair sandwiches the optimal value
    pobj0 = c @ x0
    dobj0 = d @ y0 - h @ z0
    scale = 1 + abs(pobj0) + abs(dobj0)
    assert sol.primal_obj <= pobj0 + 1e-6 * scale
    assert sol.dual_obj >= dobj0 - 1e-6 * scale


def _infeasible_program(seed):
    """Empty feasible set by construction, but a strictly feasible dual."""
    rng = np.random.default_rng(seed + 5000)
    _, blocks = _random_blocks(rng, allow_pinned=False)
    m_k = sum(b.size for b in blocks)
    n = int(rng.integers(3, 9))
    z0 = np.concatenate(
        [_interior_point(b.kind, b.size, b.order, rng) for b in blocks]
    )
    M0 = rng.normal(size=(m_k, n))
    M = M0 - np.outer(z0, z0 @ M0) / (z0 @ z0)
    h0 = rng.normal(size=m_k)
    h = h0 - z0 * (z0 @ h0 + 1.0) / (z0 @ z0)
    # now z0 . (M x + h) == -1 for every x, so the cone rows are infeasible
    m_e = int(rng.integers(0, 3))
    E = rng.normal(size=(m_e, n))
    d = E @ rng.normal(size=n)
    z1 = np.concatenate(
        [_interior_point(b.kind, b.size, b.order, rng) for b in blocks]
    )
    c = E.T @ rng.normal(size=m_e) + M.T @ z1  # keeps the dual feasible
    return make_program(c, E, d, M, h, blocks)


@pytest.mark.parametrize("seed", range(20))
def test_random_infeasible_programs(seed):
    prog = _infeasible_program(seed)
    sol = solve(prog)
    assert sol.status == "primal_infeasible", f"seed {seed}: {sol.status}"
    assert verify_certificate(prog, sol)
    margin = prog.eq_rhs @ sol.dual_eq - prog.cone_offset @ sol.dual_cone
    npt.assert_allclose(margin, 1.0, atol=1e-6)
    # the solve judges the pair once, through its _CsrOp transposed
    # products; they are bitwise SciPy's, so it reports exactly the
    # residuals of the adjoint recomputed from the raw data
    adj = prog.eq_map.T @ sol.dual_eq + prog.cone_map.T @ sol.dual_cone
    raw = cpproj.conic._certificate_residuals(prog, sol.dual_eq, sol.dual_cone, adj)
    assert sol.residuals == raw


def test_large_psd_block():
    rng = np.random.default_rng(42)
    order = 25
    block = _psd(order)
    n = 10
    M = rng.normal(size=(block.size, n))
    x0 = rng.normal(size=n)
    A = rng.normal(size=(order, order))
    s0 = svec(A @ A.T + np.eye(order))
    B = rng.normal(size=(order, order))
    z0 = svec(B @ B.T + np.eye(order))
    h = s0 - M @ x0
    c = M.T @ z0
    prog = make_program(c, np.zeros((0, n)), [], M, h, [block])
    sol = solve(prog, TIGHT)
    assert sol.status == "optimal"
    assert max(sol.residuals["primal_feas"], sol.residuals["dual_feas"]) <= 1e-7
    assert sol.residuals["rel_gap"] <= 1e-7


def test_determinism_bitwise():
    prog, *_ = _feasible_program(3)
    a = solve(prog)
    b = solve(prog)
    assert np.array_equal(a.primal, b.primal)
    assert np.array_equal(a.dual_cone, b.dual_cone)
    assert a.iterations == b.iterations


def test_iteration_limit_reports_best_iterate(monkeypatch):
    prog, *_ = _feasible_program(11)
    monkeypatch.setattr(cpproj.conic, "MAX_ITERS", 2)
    sol = solve(prog)
    assert sol.status == "iteration_limit"
    assert sol.primal is not None
    assert "primal_feas" in sol.residuals


def _rung_block(n, k, i):
    """PSD block i of the order-k rung (one per parity class, the classes of
    fewest variables first) over the rung's head, with the cone map's svec
    weights, as a dense array, and its order."""
    order, entries = rung_maps(n, k)[2][i]
    return (sp.diags(svec_index(order)[1]) @ entries).toarray(), order


def _program_block(norm, n, kind, order=0):
    """The cone-map rows of the first `kind` block of that order in an n x n DNN relaxation."""
    G = np.random.default_rng(2).normal(size=(n, n))
    prog = assemble(ProblemSpec((G + G.T) / 2.0, norm), 1)
    at = 0
    for b in prog.cone_blocks:
        if b.kind == kind and b.order == order:
            return prog.cone_map[at : at + b.size]
        at += b.size
    raise AssertionError(f"no {kind} block of order {order}")


def _psd_map_case(name):
    if name == "dense random":
        order = 6
        return np.random.default_rng(3).normal(size=(order * (order + 1) // 2, 9)), order
    if name == "dnn block":
        return _program_block("fro", 3, "psd", 3).toarray(), 3
    if name == "two-norm block":
        return _program_block("two", 3, "psd", 6).toarray(), 6
    if name.startswith("moment n=4 k=4"):
        return _rung_block(4, 4, 0)  # the order-4 probe's class e_1, of order 10
    return _rung_block(3, 2, 1)  # the class e_2 of n=3, k=2: x_2 times the order-1 moments


def _schur_into_zeros(bmap, weights, n):
    out = np.zeros((n, n), order="F")
    bmap.schur(weights, out)
    return out


@pytest.mark.parametrize(
    "name",
    [
        "moment n=4 k=4",
        "moment n=4 k=4, small chunks",
        "coordinate localizer",
        "dense random",
        "dnn block",
        "two-norm block",
    ],
)
def test_psd_map_schur_matches_the_columnwise_congruence(name, monkeypatch):
    Mb, order = _psd_map_case(name)
    if name.endswith("small chunks"):
        # at most 8 columns of order 10 per chunk, so count groups split
        monkeypatch.setattr(cpproj.conic, "PSD_CHUNK_ENTRIES", 8 * order * order)
    rng = np.random.default_rng(11)
    A = rng.normal(size=(order, order))
    G = A @ A.T / order + np.eye(order)
    pmap = _PsdMap(sp.csr_matrix(Mb), order, _chunk_scratch([order]))
    # reference: one dense congruence per column of Mb
    ref = Mb.T @ np.array([svec(G @ smat(Mb[:, v], order) @ G) for v in range(Mb.shape[1])]).T
    got = _schur_into_zeros(pmap, G, Mb.shape[1])
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.array_equal(_schur_into_zeros(pmap, G, Mb.shape[1]), got)
    counts = np.count_nonzero(Mb, axis=0)
    used = np.flatnonzero(counts)
    # adding into a nonzero buffer adds the same sums, and leaves the columns
    # the map does not touch as they were
    base = np.asfortranarray(rng.normal(size=got.shape))
    out = base.copy(order="F")
    pmap.schur(G, out)
    assert np.array_equal(out, base + got)
    unused = np.flatnonzero(counts == 0)
    assert np.array_equal(out[:, unused], base[:, unused])
    # a chunk's columns are an index array into the compact block over the
    # used columns, or a slice when they are a run there
    cols = pmap.used
    at = [np.arange(cols.size)[part] for part, *_ in pmap.chunks]
    parts = [cols[p] for p in at]
    assert sorted(np.concatenate(parts)) == list(used)
    assert all(
        part.size * order * max(order, a.shape[1]) <= cpproj.conic.PSD_CHUNK_ENTRIES
        or part.size == 1
        for part, (_, a, *_) in zip(parts, pmap.chunks)
    )
    assert all(
        isinstance(part, slice) == (np.ptp(p) == p.size - 1)
        for p, (part, *_) in zip(at, pmap.chunks)
    )
    # every block is built compact, over exactly the columns it uses
    assert np.array_equal(pmap.used, used)
    if name == "moment n=4 k=4":
        # the 35 moments of degree 5 that hold x_1, of the rung's 56;
        # each sits in at most 3 entries of the block's upper triangle, and
        # at the default size each count gets one chunk
        assert (used.size, Mb.shape[1]) == (35, 56) and counts.max() == 3
        assert len(pmap.chunks) == np.unique(counts[used]).size
    if name.endswith("small chunks"):
        assert len(pmap.chunks) > np.unique(counts[used]).size
    if name == "coordinate localizer":
        # x_2 times the moments of degree 2: 6 of the 10 moments of degree 3
        assert (used.size, Mb.shape[1]) == (6, 10)
    if name == "two-norm block":
        assert counts.max() == order  # the gamma column: 2n diagonal entries


def test_a_psd_block_adds_the_same_bits_whatever_its_chunks_and_columns():
    # the block of the class 0 at n = 5, order 4 (r = 3) uses 70 of the
    # rung's 126 moments; with two more copies of its used columns it uses
    # 210 of 266, so its count groups split into other chunks.  Each
    # column's sum does not depend on its chunk, so the two agree bit for
    # bit over the first map's columns
    Mb, order = _rung_block(5, 4, 0)
    used = np.flatnonzero(np.count_nonzero(Mb, axis=0))
    wide = np.hstack([Mb, Mb[:, used], Mb[:, used]])
    block, widened = (
        _PsdMap(sp.csr_matrix(B), order, _chunk_scratch([order])) for B in (Mb, wide)
    )
    assert (used.size, Mb.shape[1], widened.used.size) == (70, 126, 210)
    A = np.random.default_rng(23).normal(size=(order, order))
    G = A @ A.T / order + np.eye(order)
    got = _schur_into_zeros(block, G, Mb.shape[1])
    ref = _schur_into_zeros(widened, G, wide.shape[1])[: Mb.shape[1], : Mb.shape[1]]
    assert got.tobytes() == np.asfortranarray(ref).tobytes()
    # a C-ordered K11 takes the same scatter
    out = np.zeros(got.shape)
    block.schur(G, out)
    assert np.array_equal(out, got)
    # entry (i, j) of the compact block lands at (used[i], used[j]): with a
    # nonsymmetric G the build 2 <smat(Mb[:, i]), G U_j G>, U_j the upper
    # half of smat(Mb[:, j]), is far from symmetric, so a transposed scatter
    # would show, into a Fortran- or a C-ordered K11 alike
    G = A / order + np.eye(order)
    S = [smat(Mb[:, j], order) for j in range(Mb.shape[1])]
    U = [np.triu(Sj, 1) + np.diag(np.diag(Sj)) / 2.0 for Sj in S]
    want = np.array([[2.0 * np.sum(Si * (G @ Uj @ G)) for Uj in U] for Si in S])
    assert np.abs(want - want.T).max() > 1e-2 * np.abs(want).max()
    for out in (np.zeros(got.shape, order="F"), np.zeros(got.shape)):
        block.schur(G, out)
        assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()


def _psd_step_reference(u, du, order):
    # largest alpha with smat(u) + alpha smat(du) PSD, from the smallest
    # generalized eigenvalue of the pencil (smat(du), smat(u))
    lam_min = float(sla.eigh(smat(du, order), smat(u, order), eigvals_only=True).min())
    return np.inf if lam_min >= 0 else 1.0 / (-lam_min)


def test_psd_step_from_the_scaling_factors_matches_the_generalized_eigenvalue():
    rng = np.random.default_rng(5)
    order = 7
    A, B = rng.normal(size=(2, order, order))
    s = svec(A @ A.T + 0.1 * np.eye(order))
    z = svec(B @ B.T + 0.1 * np.eye(order))
    sc = _PsdScaling(s, z, order)
    R = np.linalg.inv(sc.Rinv)  # W = R' (.) R
    D = rng.normal(size=(order, order))

    def steps(ds, dz):
        return sc.step(sc.wtinv_vec(ds)), sc.step(svec(R.T @ smat(dz, order) @ R))

    for d in (svec(D + D.T), -svec(D + D.T)):
        got = steps(d, -d)
        ref = (_psd_step_reference(s, d, order), _psd_step_reference(z, -d, order))
        npt.assert_allclose(got, ref, rtol=1e-10, atol=0.0)
        assert all(np.isfinite(a) and a > 0 for a in got)
    P = svec(D @ D.T)
    assert steps(P, P) == (np.inf, np.inf)
    got = steps(-P, P)
    assert got[1] == np.inf
    npt.assert_allclose(got[0], _psd_step_reference(s, -P, order), rtol=1e-10, atol=0.0)
    assert np.isfinite(got[0]) and got[0] > 0


def _raw_step(kind, u, du):
    """The largest alpha keeping u + alpha du in the cone, from the raw pair:
    a ratio test for nonneg; for soc the root of the concave
    (u + alpha du)_0 - ||(u + alpha du)_1||, which is positive at 0."""
    if kind == "nonneg":
        return float(np.min(-u[du < 0] / du[du < 0], initial=np.inf))
    if du[0] >= np.linalg.norm(du[1:]):
        return np.inf

    def f(alpha):
        return u[0] + alpha * du[0] - np.linalg.norm(u[1:] + alpha * du[1:])

    from scipy.optimize import brentq

    hi = 1.0
    while f(hi) >= 0:
        hi *= 2.0
    return brentq(f, 0.0, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps)


@pytest.mark.parametrize("kind", ["nonneg", "soc"])
def test_step_against_lam_is_the_raw_step(kind):
    rng = np.random.default_rng(24)
    for q in (2, 3, 7):
        s, z = rng.uniform(0.1, 3.0, size=(2, q))
        if kind == "soc":
            s[0] = np.linalg.norm(s[1:]) + rng.uniform(0.01, 2.0)
            z[0] = np.linalg.norm(z[1:]) + rng.uniform(0.01, 2.0)
        sc = (_NonnegScaling if kind == "nonneg" else _SocScaling)(s, z)
        W = _soc_scaling_reference(s, z)[0] if kind == "soc" else None

        def w_vec(v):  # W v, with W built here
            return v * sc.w if W is None else W @ v

        for _ in range(5):
            ds, dz = rng.normal(size=(2, q))
            got_by = {"s": sc.step(sc.wtinv_vec(ds)), "z": sc.step(w_vec(dz))}
            for side, u, du in (("s", s, ds), ("z", z, dz)):
                got, ref = got_by[side], _raw_step(kind, u, du)
                assert got == ref == np.inf or abs(got - ref) <= 1e-10 * ref, (got, ref)
        # a direction inside the cone never leaves it
        inside = np.abs(rng.normal(size=q))
        inside[0] += np.linalg.norm(inside[1:])
        assert sc.step(sc.wtinv_vec(inside)) == sc.step(w_vec(inside)) == np.inf
        # a step to the boundary is finite
        assert np.isfinite(sc.step(sc.wtinv_vec(-inside)))
        assert np.isfinite(sc.step(w_vec(-inside)))


@pytest.mark.parametrize("kind", ["nonneg", "soc", "psd"])
def test_the_scaled_pair_gives_the_raw_direction_and_the_affine_gap(kind):
    # the solver takes dz_t = q - W^{-T} ds, with q = lam_solve(d_c), for
    # W dz; the predictor's d_c = -lam o lam gives q = -lam, so the gap of its
    # affine step is (1 - alpha) s . z + alpha^2 ds_t . dz_t
    rng = np.random.default_rng(27)
    for size, order in ((3, 2), (6, 3), (10, 4)):
        block = ConeBlock(kind, size, order if kind == "psd" else 0)
        for _ in range(5):
            s, z = (_interior_point(kind, size, order, rng) for _ in range(2))
            sc = _make_scaling(block, s, z)
            ds, d_c = rng.normal(size=(2, size))
            alpha = rng.uniform()
            q, ds_t = sc.lam_solve(d_c), sc.wtinv_vec(ds)
            ref = sc.winv_vec(q) - sc.hinv_vec(ds)
            assert np.linalg.norm(sc.winv_vec(q - ds_t) - ref) <= 1e-12 * np.linalg.norm(ref)
            q = sc.lam_solve(-sc.jordan(sc.lam, sc.lam))
            assert np.linalg.norm(q + sc.lam) <= 1e-12 * np.linalg.norm(sc.lam)
            dz_t = q - ds_t
            got = (1.0 - alpha) * (s @ z) + alpha**2 * (ds_t @ dz_t)
            su, zu = s + alpha * ds, z + alpha * sc.winv_vec(dz_t)
            assert abs(got - su @ zu) <= 1e-12 * np.linalg.norm(su) * np.linalg.norm(zu)


def _nonneg_map_case(name):
    rng = np.random.default_rng(8)
    if name == "random sparse":
        keep = np.ones(40)
        keep[[3, 17, 30]] = 0.0  # empty rows
        Mb = sp.csr_matrix(sp.diags(keep) @ sp.random(40, 12, density=0.2, random_state=rng))
        Mb.eliminate_zeros()
        return Mb
    if name == "duplicate coordinates":
        # rows 0 and 2 store column 1 twice
        return sp.csr_matrix(
            (rng.normal(size=7), [1, 1, 4, 0, 1, 3, 1], [0, 3, 3, 7]), shape=(3, 5)
        )
    if name == "all zero":
        return sp.csr_matrix((6, 4))
    return _program_block("one", 5, "nonneg")


@pytest.mark.parametrize(
    "name", ["random sparse", "duplicate coordinates", "all zero", "one-norm 5x5 order 1"]
)
def test_nonneg_map_schur_matches_the_dense_product(name):
    Mb = _nonneg_map_case(name)
    d = np.random.default_rng(9).uniform(0.1, 10.0, size=Mb.shape[0])
    dense = Mb.toarray()
    ref = dense.T @ (d[:, None] * dense)
    nmap = _NonnegMap(Mb)
    got = _schur_into_zeros(nmap, d, Mb.shape[1])
    assert np.abs(got - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())
    assert np.array_equal(_schur_into_zeros(nmap, d, Mb.shape[1]), got)
    # the add is by entry, whatever the buffer's layout
    base = np.random.default_rng(10).normal(size=got.shape)
    for out in (base.copy(order="C"), base.copy(order="F")):
        nmap.schur(d, out)
        assert np.array_equal(out, base + got)
    counts = np.diff(Mb.indptr)
    if name == "random sparse":
        assert (counts == 0).sum() >= 3
    if name == "duplicate coordinates":
        assert not Mb.has_canonical_format
    if name == "one-norm 5x5 order 1":
        assert counts.max() > 2  # rows with several nonzeros


def _kkt_case(name):
    """(K11, E) of a KKT system: K11 PSD, E of full row rank, K11 PD on null(E)."""
    rng = np.random.default_rng(12)
    n, m = 12, 0 if name == "no equality rows" else 5
    B = rng.normal(size=(n, n - m))
    K11 = B @ B.T  # rank n - m: E must lift the rest
    if name == "no equality rows":
        K11 += 0.1 * np.eye(n)
    E = rng.normal(size=(m, n)) * (rng.uniform(size=(m, n)) < 0.5)
    if name == "variable in no cone block":
        K11[4, :] = K11[:, 4] = 0.0
        E[0, 4] = 1.0
    return K11, E


def _assert_solves_the_regularized_system(kkt, K11, E, eps, rhs):
    n, m = E.shape[1], E.shape[0]
    full = np.block([[K11 + eps * np.eye(n), E.T], [E, -eps * np.eye(m)]])
    ref = np.linalg.solve(full, rhs)
    # the block elimination solves with K11 + eps first, so its rounding
    # grows with that block's condition number (up to ||K11|| / eps when
    # K11 is singular), not with the block matrix's
    lam = np.linalg.eigvalsh(K11 + eps * np.eye(n))
    tol = 10.0 * np.finfo(float).eps * lam[-1] / lam[0]
    assert np.abs(kkt._raw_solve(rhs) - ref).max() <= tol * np.abs(ref).max()
    return ref


@pytest.mark.parametrize(
    "name", ["no equality rows", "equality rows", "variable in no cone block"]
)
def test_kkt_solves_the_regularized_and_refines_to_the_unregularized_system(name):
    K11, E = _kkt_case(name)
    n, m = E.shape[1], E.shape[0]
    rng = np.random.default_rng(13)
    r1, r2 = rng.normal(size=n), rng.normal(size=m)
    kkt = _Kkt(sp.csr_matrix(E), n)
    kkt.factor(K11)
    rhs = np.concatenate([r1, r2])
    ref = _assert_solves_the_regularized_system(kkt, K11, E, cpproj.conic.STATIC_REG, rhs)
    x, y = kkt.solve(r1, r2)
    assert x.shape == (n,) and y.shape == (m,)
    resid = np.concatenate([K11 @ x + E.T @ y - r1, E @ x - r2])
    assert np.abs(resid).max() <= 1e-12 * (1.0 + np.abs(ref).max())


def _slightly_indefinite(lam_min, n=8, seed=14):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    lam = np.linspace(1.0, 2.0, n)
    lam[0] = lam_min
    return (Q * lam) @ Q.T


def test_kkt_raises_eps_a_hundredfold_until_the_cholesky_factors(caplog):
    K11 = _slightly_indefinite(-5e-9)
    E = np.random.default_rng(15).normal(size=(3, 8))
    kkt = _Kkt(sp.csr_matrix(E), 8)
    with caplog.at_level("DEBUG", logger="cpproj.conic"):
        kkt.factor(K11)
    assert [r.getMessage() for r in caplog.records] == [
        "KKT Cholesky failed; raising eps to 1e-07"
    ]
    rhs = np.random.default_rng(16).normal(size=11)
    _assert_solves_the_regularized_system(kkt, K11, E, 1e-7, rhs)


def test_kkt_breaks_down_after_four_attempts(caplog):
    kkt = _Kkt(sp.csr_matrix(np.ones((1, 8))), 8)
    with caplog.at_level("DEBUG", logger="cpproj.conic"), pytest.raises(_Breakdown):
        kkt.factor(_slightly_indefinite(-1.0))
    assert [r.getMessage()[-5:] for r in caplog.records] == ["1e-07", "1e-05", "1e-03"]


def test_kkt_factor_and_solve_are_bit_identical_across_runs():
    K11, E = _kkt_case("variable in no cone block")
    rhs = np.random.default_rng(17).normal(size=E.shape[0] + E.shape[1])
    runs = []
    for _ in range(2):
        kkt = _Kkt(sp.csr_matrix(E), E.shape[1])
        kkt.factor(K11.copy())
        runs.append(np.concatenate(kkt.solve(rhs[: E.shape[1]], rhs[E.shape[1] :])))
    assert runs[0].tobytes() == runs[1].tobytes()


def test_every_iteration_factors_one_k11_into_the_same_buffers(monkeypatch):
    # the solve allocates its dense working set once: every iteration builds
    # the same K11 and factors it into the same Cholesky, W and S memory;
    # a user equality row makes W and L2 part of the working set
    G = np.random.default_rng(5).standard_normal((3, 3))
    prog = assemble(ProblemSpec((G + G.T) / 2.0, "fro", (LinearConstraint(np.eye(3), 3.0),)), 2)
    assert prog.eq_map.shape[0] == 1
    seen, factor = [], _Kkt.factor

    def recording(kkt, K11):
        factor(kkt, K11)
        seen.append(tuple(a.__array_interface__["data"][0] for a in (K11, kkt.L, kkt.W, kkt.L2)))
        assert K11 is kkt.K11 and K11.flags.f_contiguous

    monkeypatch.setattr(_Kkt, "factor", recording)
    sol = solve(prog)
    assert sol.status == "optimal" and sol.iterations >= 3 and len(seen) == sol.iterations
    assert set(seen) == {seen[0]} and len(set(seen[0])) == 4


@pytest.mark.parametrize("orders", [(5, 3), (3, 1)])
def test_soc_schur_adds_the_dense_product_over_the_touched_columns(orders):
    n, k = orders
    G = np.random.default_rng(2).normal(size=(n, n))
    prog = assemble(ProblemSpec((G + G.T) / 2.0, "fro"), k)
    (at, block), = [
        (sl, b) for sl, b in zip(_block_slices(prog.cone_blocks), prog.cone_blocks)
        if b.kind == "soc"
    ]
    Mb = prog.cone_map[at]
    # X = P z reaches every moment, so at every order the block touches
    # every column but the bound T's (none here)
    assert np.count_nonzero(Mb.getnnz(axis=0)) == prog.objective.size
    # one more column that no row touches: the dense product is zero there
    Mb = sp.hstack([Mb, sp.csr_matrix((block.size, 1))], format="csr")
    rng = np.random.default_rng(21)
    s, z = rng.normal(size=(2, block.size))
    s[0] = np.linalg.norm(s[1:]) + 0.5
    z[0] = np.linalg.norm(z[1:]) + 0.5
    sc = _SocScaling(s, z)
    dense = Mb.toarray()
    full = dense.T @ (sc.Hinv @ dense)
    touched = np.flatnonzero(np.abs(dense).sum(axis=0))
    assert touched.size == prog.objective.size == Mb.shape[1] - 1
    base = np.asfortranarray(rng.normal(size=full.shape))
    out = base.copy(order="F")
    sc.schur(_block_map(block, Mb, _chunk_scratch([])), out)
    part = np.ix_(touched, touched)
    rest = np.ones(full.shape, dtype=bool)
    rest[part] = False
    # the same sums over the block's rows, whatever columns the product spans
    assert np.abs(out[part] - (base[part] + full[part])).max() <= 4 * np.finfo(float).eps * (
        np.abs(base[part]).max() + np.abs(full[part]).max()
    )
    assert np.array_equal(out[rest], base[rest])
    assert not full[rest].any()


@pytest.mark.parametrize("attempt", ["first", "retry"])
@pytest.mark.parametrize("order", ["F", "C"])
def test_kkt_factor_leaves_the_callers_k11_unchanged_and_solves_against_it(order, attempt):
    # factor keeps a reference to K11 for the refinement and writes only to
    # its own copy, so a K11 of either layout comes back bit for bit, on the
    # first try and after a retry, and solve meets the system it holds
    if attempt == "first":
        (K11, E), eps = _kkt_case("equality rows"), cpproj.conic.STATIC_REG
    else:
        K11, E = _slightly_indefinite(-5e-9), np.random.default_rng(15).normal(size=(3, 8))
        eps = 1e-7
    n = E.shape[1]
    K = np.array(K11, order=order)
    kept = K.copy(order=order)
    rhs = np.random.default_rng(22).normal(size=E.shape[0] + n)
    kkt = _Kkt(sp.csr_matrix(E), n)
    kkt.factor(K)
    assert K.tobytes(order="A") == kept.tobytes(order="A")
    ref = _assert_solves_the_regularized_system(kkt, K11, E, eps, rhs)
    x, y = kkt.solve(rhs[:n], rhs[n:])
    assert K.tobytes(order="A") == kept.tobytes(order="A")
    resid = np.concatenate([K11 @ x + E.T @ y - rhs[:n], E @ x - rhs[n:]])
    assert np.abs(resid).max() <= 1e-12 * (1.0 + np.abs(ref).max())


def _soc_scaling_reference(s, z):
    """W, W^{-1} and H^{-1} from the dense sign matrix J, as first written."""
    ns, nz = np.sqrt(s[0] ** 2 - s[1:] @ s[1:]), np.sqrt(z[0] ** 2 - z[1:] @ z[1:])
    sh, zh = s / ns, z / nz
    gamma = np.sqrt((1.0 + sh @ zh) / 2.0)
    wbar = (sh + np.concatenate(([zh[0]], -zh[1:]))) / (2.0 * gamma)
    v = wbar.copy()
    v[0] += 1.0
    v /= np.sqrt(2.0 * (wbar[0] + 1.0))
    eta = ns / nz
    J = np.diag(np.concatenate(([1.0], -np.ones(s.size - 1))))
    W = np.sqrt(eta) * (2.0 * np.outer(v, v) - J)
    jv = np.concatenate(([v[0]], -v[1:]))
    Winv = (2.0 * np.outer(jv, jv) - J) / np.sqrt(eta)
    return W, Winv, Winv @ Winv


def test_soc_scaling_matches_the_dense_sign_matrix_formulas():
    rng = np.random.default_rng(18)
    for q in (2, 3, 7):
        for _ in range(5):
            s, z = rng.normal(size=q), rng.normal(size=q)
            s[0] = np.linalg.norm(s[1:]) + rng.uniform(0.01, 2.0)
            z[0] = np.linalg.norm(z[1:]) + rng.uniform(0.01, 2.0)
            sc = _SocScaling(s, z)
            _, Winv, Hinv = _soc_scaling_reference(s, z)
            assert np.array_equal(sc.Winv, Winv)
            assert np.array_equal(sc.Hinv, Hinv)


def _csr_op_case(name):
    rng = np.random.default_rng(19)
    if name.startswith("random"):
        A = sp.random(30, 17, density=0.3, random_state=rng, format="csr")
    elif name == "empty rows":
        A = sp.random(25, 9, density=0.25, random_state=rng, format="csr")
        A = sp.csr_matrix(sp.diags((np.arange(25) % 4 != 0).astype(float)) @ A)
        A.eliminate_zeros()
        assert (np.diff(A.indptr) == 0).sum() >= 6
    elif name == "no rows":
        A = sp.csr_matrix((0, 7))
    elif name == "duplicates":
        # stored, unsummed duplicates, three of them in one entry
        indices = np.array([2, 5, 2, 0, 0, 0, 4, 1])
        A = sp.csr_matrix((rng.normal(size=8), indices, [0, 3, 6, 6, 8]), shape=(4, 6))
        assert not A.has_canonical_format
    else:  # "zero column"
        A = sp.random(12, 8, density=0.5, random_state=rng, format="csc").tolil()
        A[:, 3] = 0.0
        A = sp.csr_matrix(A)
        assert 3 not in A.indices
    if name == "random, transposed":
        A = A.T.tocsr()
    return A


@pytest.mark.parametrize(
    "name",
    ["random", "random, transposed", "empty rows", "no rows", "zero column", "duplicates"],
)
def test_csr_op_is_bitwise_scipys_product(name):
    A = _csr_op_case(name)
    rng = np.random.default_rng(20)
    op = _CsrOp(A)
    for x in (rng.normal(size=A.shape[1]), np.zeros(A.shape[1]), -np.zeros(A.shape[1])):
        ref = A @ x
        got = op @ x
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
    # the transposed product over the same triples is bitwise SciPy's, on
    # the CSR copy of A' and on the CSC view A.T, and the dense A' is toarray's
    for y in (rng.normal(size=A.shape[0]), np.zeros(A.shape[0]), -np.zeros(A.shape[0])):
        got = op.rmatvec(y)
        ref = A.T.tocsr() @ y
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes() == (A.T @ y).tobytes()
    # written over whatever the buffer held
    dense = op.dense_t(np.full(A.shape[::-1], np.nan, order="F"))
    assert dense.tobytes() == A.T.tocsr().toarray().tobytes()


def _smat_reference(v, order):
    """smat by assigning both triangles."""
    iu, scale = svec_index(order)
    vals = v / scale + 0.0
    U = np.empty((order, order))
    U[iu] = vals
    U[iu[1], iu[0]] = vals
    return U


def test_gather_smat_and_svec_match_the_triangle_assignment():
    rng = np.random.default_rng(21)
    for order in range(1, 9):
        iu, scale = svec_index(order)
        v = rng.normal(size=iu[0].size)
        v[::3] = -0.0
        U = _smat_reference(v, order)
        got = smat(v, order)
        assert got.shape == (order, order)
        assert got.tobytes() == U.tobytes()
        # the -0.0 entries come out +0.0
        zeros = got == 0.0
        assert zeros.any() and not np.signbit(got[zeros]).any()
        A = rng.normal(size=(order, order))
        A[0, -1] = A[-1, 0] = -0.0
        assert svec(A).tobytes() == (A[iu] * scale).tobytes()
        # a transposed (non-contiguous) matrix reads the same upper triangle
        assert svec(A.T).tobytes() == (A.T[iu] * scale).tobytes()


class _SparseCalls:
    """Counts SciPy sparse transposes and sparse-times-vector products."""

    def __init__(self, monkeypatch):
        self.transposes = self.matvecs = 0
        for cls in (sp.csr_matrix, sp.csc_matrix):
            transpose, matmul = cls.transpose, cls.__matmul__

            def counted_transpose(A, *args, _f=transpose, **kw):
                self.transposes += 1
                return _f(A, *args, **kw)

            def counted_matmul(A, other, _f=matmul):
                self.matvecs += np.ndim(other) == 1
                return _f(A, other)

            monkeypatch.setattr(cls, "transpose", counted_transpose)
            monkeypatch.setattr(cls, "__matmul__", counted_matmul)


def test_the_iteration_makes_no_sparse_transpose_or_matvec(monkeypatch):
    prog = assemble(REFERENCE_INSTANCES["fro-c2"], 1)
    assert prog.eq_map.shape[0] == 3
    counts = {}
    for max_iters in (1, 6, 200):
        with monkeypatch.context() as mp:
            calls = _SparseCalls(mp)
            mp.setattr(cpproj.conic, "MAX_ITERS", max_iters)
            sol = solve(prog)
        counts[max_iters] = (sol.iterations, calls.transposes, calls.matvecs)
    assert counts[1][0] == 1 and counts[6][0] == 6 and counts[200][0] > 6, counts
    # no transpose even to prepare the solve: every product with E, M or
    # their transposes, the stopped solves' closing certificate check
    # included, is a _CsrOp product
    assert counts[1][1:] == counts[6][1:] == counts[200][1:] == (0, 0), counts
