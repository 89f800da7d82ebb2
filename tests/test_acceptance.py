"""End-to-end acceptance checks for the completely positive projection solver.

Every test exercises the shipped pipeline the way a caller would: build a
problem, run the driver, inspect the certified outcome.  The fixed instances
are small symmetric matrices whose projection distances are known; the
randomized suites are checked against independent oracles (the doubly
nonnegative projection for n <= 4, hand-rolled KKT recomputation for the
conic engine).  Each test prints one verdict line so a log scrape shows the
whole gate at a glance.
"""

import itertools
import math
import time

import numpy as np
import pytest
import scipy.sparse as sp

import cpproj.conic
import cpproj.driver
import cpproj.extraction
from cpproj.conic import (
    ConeBlock,
    ConicProgram,
    SolverSettings,
    smat,
    solve,
    verify_certificate,
)
from cpproj.driver import FACTOR_TOL, DriverSettings, approximate
from cpproj.relaxation import (
    LinearConstraint,
    ProblemSpec,
    assemble,
    check_weak_duality,
    map_solution,
    p_norm,
    project_dnn,
    solve_relaxation,
)
from moment_reference import exponents, rung_maps

C4 = np.array([
    [2.0, 1, 1, 1],
    [1, 2, 2, 1],
    [1, 2, 6, 5],
    [1, 1, 5, 6],
])
P4 = np.array([
    [0.0, 1, 0, 1],
    [1, 0, 1, 0],
    [0, 1, 0, 1],
    [1, 0, 1, 0],
])
S4 = np.array([
    [1.0, -1, 1, -1],
    [-1, 2, -2, 2],
    [1, -2, 3, -3],
    [-1, 2, -3, 4],
])

# B^T B for the rows (1, 0, 2, 0, 0), (2, 0, 0, 1, 0), (1, 0, 0, 0, 1),
# (0, 2, 2, 0, 0), (0, 1, 0, 3, 0) and (0, 3, 0, 0, 1): a CP matrix whose
# graph is the triangle-free K_{2,3}, parts {0, 1} and {2, 3, 4}.  Every
# nonnegative factor row lies on a clique, an edge or a vertex, and each of
# the 6 edges needs its own row, so its cp-rank is 6 while its order is 5
K23 = np.array([
    [6.0, 0, 2, 2, 1],
    [0, 14, 4, 3, 3],
    [2, 4, 8, 0, 0],
    [2, 3, 0, 10, 0],
    [1, 3, 0, 0, 2],
])

# a known optimizer of the constrained one-norm instance on C4; the test
# accepts any other optimizer that meets the constraints at the same distance
X4_ALT = np.array([
    [0.2709, 0.1572, 0.9582, 0.5928],
    [0.1572, 0.6302, 1.1918, 1.0000],
    [0.9582, 1.1918, 4.7709, 4.0582],
    [0.5928, 1.0000, 4.0582, 4.3280],
])

C5 = np.array([
    [2.0, 1, 1, 1, 2],
    [1, 2, 2, 1, 1],
    [1, 2, 6, 5, 1],
    [1, 1, 5, 6, 2],
    [2, 1, 1, 2, 3],
])
S5 = np.array([
    [1.0, -1, 1, -1, 1],
    [-1, 2, -2, 2, -2],
    [1, -2, 3, -3, 3],
    [-1, 2, -3, 4, -4],
    [1, -2, 3, -4, 5],
])
P5 = np.array([
    [0.0, 1, 0, 1, 0],
    [1, 0, 1, 0, 1],
    [0, 1, 0, 1, 0],
    [1, 0, 1, 0, 1],
    [0, 1, 0, 1, 0],
])

C6 = np.array([
    [4.0, 5, 4, 6, 4, 2],
    [5, 1, 4, 7, 4, 6],
    [4, 4, 4, 2, 5, 4],
    [6, 7, 2, 0, 3, 7],
    [4, 4, 5, 3, 1, 6],
    [2, 6, 4, 7, 6, 4],
])
G6A = np.array([
    [-12.0, 0, 7, -5, 4, -2],
    [0, 3, 1, -2, -6, -13],
    [7, 1, 4, 1, -9, 6],
    [-5, -2, 1, 7, -9, 10],
    [4, -6, -9, -9, -19, 1],
    [-2, -13, 6, 10, 1, 13],
])
G6B = np.array([
    [-4.0, 3, 11, 11, 2, -5],
    [3, 6, 3, -3, 5, -9],
    [11, 3, 5, 0, -3, -9],
    [11, -3, 0, 14, -4, -16],
    [2, 5, -3, -4, 7, -14],
    [-5, -9, -9, -16, -14, 3],
])
G6C = np.array([
    [8.0, -2, 5, 6, 5, -4],
    [-2, 10, 8, 12, 17, 4],
    [5, 8, 7, 6, -2, -3],
    [6, 12, 6, 4, 12, 7],
    [5, 17, -2, 12, 10, -8],
    [-4, 4, -3, 7, -8, 9],
])
G6D = np.array([
    [-2.0, -16, -12, 4, 1, -5],
    [-16, 3, 8, -3, -10, 0],
    [-12, 8, -13, -1, 11, 3],
    [4, -3, -1, -3, 5, 9],
    [1, -10, 11, 5, 10, 3],
    [-5, 0, 3, 9, 3, -15],
])
G6E = np.array([
    [5.0, 7, -4, -9, 4, 9],
    [7, -2, 6, -4, 7, -6],
    [-4, 6, -17, -9, -1, 6],
    [-9, -4, -9, 5, -13, 6],
    [4, 7, -1, -13, -3, 1],
    [9, -6, 6, 6, 1, -6],
])
G6F = np.array([
    [2.0, -4, 6, 4, 7, 1],
    [-4, -2, 11, 2, 6, 7],
    [6, 11, 12, -9, -2, 7],
    [4, 2, -9, -3, 0, 10],
    [7, 6, -2, 0, 4, -11],
    [1, 7, 7, 10, -11, 11],
])


def _eq(A, b):
    return LinearConstraint(A, b, "eq")


def _ge(A, b):
    return LinearConstraint(A, b, "ineq")


REFERENCE_INSTANCES = {
    "one-c1": ProblemSpec(C4, "one"),
    "one-c2": ProblemSpec(C4, "one", (_eq(np.eye(4), 10.0), _eq(P4, 12.0))),
    "one-c3": ProblemSpec(C4, "one", (_eq(S4, 5.0), _eq(-np.eye(4), -19.0))),
    "one-c4": ProblemSpec(C4, "one", (_eq(S4, 5.0), _ge(-np.eye(4), -19.0))),
    "two-c1": ProblemSpec(C5, "two", (_eq(np.eye(5), 19.0), _eq(S5, 17.0), _eq(P5, 24.0))),
    "two-c2": ProblemSpec(C5, "two", (_eq(np.eye(5), 19.0), _eq(S5, 50.0), _eq(P5, 24.0))),
    "two-c3": ProblemSpec(C5, "two", (_eq(np.eye(5), 19.0), _eq(S5, -50.0), _eq(P5, 24.0))),
    "two-c4": ProblemSpec(C5, "two", (_eq(np.eye(5), 10.0), _eq(S5, 12.0), _ge(P5, -2.0))),
    "fro-c1": ProblemSpec(C5, "fro", (_eq(np.eye(5), 19.0), _eq(S5, 17.0), _eq(P5, 24.0))),
    "fro-c2": ProblemSpec(C5, "fro", (_eq(np.eye(5), 19.0), _eq(S5, 50.0), _eq(P5, 24.0))),
    "fro-c3": ProblemSpec(C5, "fro", (_eq(np.eye(5), 19.0), _eq(S5, -50.0), _eq(P5, 24.0))),
    "fro-c4": ProblemSpec(C5, "fro", (_eq(np.eye(5), 10.0), _eq(S5, 12.0), _ge(P5, -2.0))),
    "six-c1": ProblemSpec(C6, "fro"),
    "six-c2": ProblemSpec(C6, "fro", (_eq(G6A, -17.0), _eq(G6B, 6.0))),
    "six-c3": ProblemSpec(C6, "fro", (_eq(G6C, -6.0), _eq(G6D, 4.0))),
    "six-c4": ProblemSpec(C6, "fro", (_eq(G6E, 7.0), _ge(G6F, -10.0))),
}


# instances whose relaxations the structural suite solves at orders 1 to 3
BOUND_STEP_INSTANCES = ("one-c1", "one-c2", "two-c1", "two-c2", "fro-c1", "six-c1")


@pytest.fixture(scope="module")
def reference_outcomes():
    """Solve every fixed instance once; the criterion tests share the results."""
    results = {}
    for name, spec in REFERENCE_INSTANCES.items():
        t0 = time.perf_counter()
        out = approximate(spec, DriverSettings(k_max=4))
        results[name] = (out, time.perf_counter() - t0)
    return results


def _check(failures, ok, msg):
    if not ok:
        failures.append(msg)


def _verdict(capsys, label, failures, detail):
    ok = not failures
    text = detail if ok else "; ".join(failures)
    with capsys.disabled():
        print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({text})")
    assert ok, f"{label}: {text}"


def _constraint_violation(spec, X):
    worst = 0.0
    for con in spec.constraints:
        val = float(np.sum(con.matrix * X))
        gap = val - con.rhs if con.kind == "eq" else min(0.0, val - con.rhs)
        worst = max(worst, abs(gap))
    return worst


def test_constraint_violation_helper_judges_the_known_optimizer():
    # the one-c2 test falls back on this helper when the solver lands on
    # another optimizer, so it must judge X4_ALT instead of raising
    assert _constraint_violation(REFERENCE_INSTANCES["one-c2"], X4_ALT) <= 1e-3


def test_one_norm_unconstrained_projection_recovers_target(reference_outcomes, capsys):
    out, elapsed = reference_outcomes["one-c1"]
    failures = []
    detail = f"status {out.status}"
    _check(failures, out.status == "projected", f"status {out.status}")
    _check(failures, elapsed <= 30.0, f"took {elapsed:.1f}s > 30s")
    if out.status == "projected":
        recon = float(np.linalg.norm(out.decomposition.reconstruct() - C4))
        _check(failures, abs(out.gamma) <= 1e-4, f"gamma {out.gamma:.2e} not 0")
        _check(failures, recon <= 2e-3, f"reconstruction residual {recon:.2e} > 2e-3")
        _check(failures, out.k_used <= 3, f"certified only at k={out.k_used}")
        detail = f"gamma {out.gamma:.1e}, recon {recon:.1e}, k={out.k_used}, {elapsed:.1f}s"
    _verdict(capsys, "one-norm unconstrained self projection", failures, detail)


def test_one_norm_equality_constrained_projection(reference_outcomes, capsys):
    out, _ = reference_outcomes["one-c2"]
    failures = []
    detail = f"status {out.status}"
    _check(failures, out.status == "projected", f"status {out.status}")
    if out.status == "projected":
        _check(failures, abs(out.gamma - 3.0209) <= 5e-3, f"gamma {out.gamma:.6f} vs 3.0209")
        dev = float(np.abs(out.matrix - X4_ALT).max())
        if dev <= 5e-3:
            detail = f"gamma {out.gamma:.6f}, matches the known optimizer to {dev:.1e}"
        else:
            # the optimizer need not be unique; accept any feasible point at
            # the reference distance
            viol = _constraint_violation(REFERENCE_INSTANCES["one-c2"], out.matrix)
            dist = float(np.abs(out.matrix - C4).sum(axis=0).max())
            _check(failures, viol <= 1e-6, f"constraint violation {viol:.2e}")
            _check(failures, abs(dist - 3.0209) <= 5e-3, f"one-norm distance {dist:.6f}")
            detail = f"gamma {out.gamma:.6f}, alternate optimizer (violation {viol:.1e})"
    _verdict(capsys, "one-norm equality constrained projection", failures, detail)


def test_one_norm_infeasible_constraints_are_certified(reference_outcomes, capsys):
    out, _ = reference_outcomes["one-c3"]
    failures = []
    detail = f"status {out.status}"
    _check(failures, out.status == "infeasible", f"status {out.status}")
    if out.status == "infeasible":
        _check(failures, out.k_used == 1, f"detected at k={out.k_used}, not 1")
        prog = assemble(REFERENCE_INSTANCES["one-c3"], out.k_used)
        _check(failures, verify_certificate(prog, out.certificate),
               "dual certificate fails independent verification")
        detail = f"infeasible at k={out.k_used}, certificate verified"
    _verdict(capsys, "one-norm infeasible constraints", failures, detail)


def test_one_norm_inequality_constrained_two_atom_projection(reference_outcomes, capsys):
    out, _ = reference_outcomes["one-c4"]
    failures = []
    detail = f"status {out.status}"
    _check(failures, out.status == "projected", f"status {out.status}")
    if out.status == "projected":
        recon = float(np.linalg.norm(out.decomposition.reconstruct() - out.matrix))
        _check(failures, abs(out.gamma - 1.6916) <= 5e-3, f"gamma {out.gamma:.6f} vs 1.6916")
        _check(failures, out.decomposition.rank == 2,
               f"{out.decomposition.rank} atoms, expected 2")
        _check(failures, recon <= 2e-3, f"reconstruction residual {recon:.2e} > 2e-3")
        detail = f"gamma {out.gamma:.6f}, {out.decomposition.rank} atoms, recon {recon:.1e}"
    _verdict(capsys, "one-norm inequality constrained projection", failures, detail)


def test_two_norm_constrained_suite(reference_outcomes, capsys):
    failures = []
    parts = []

    out, _ = reference_outcomes["two-c1"]
    _check(failures, out.status == "projected", f"c1 status {out.status}")
    if out.status == "projected":
        recon = float(np.linalg.norm(out.decomposition.reconstruct() - C5))
        _check(failures, abs(out.gamma) <= 1e-4, f"c1 gamma {out.gamma:.2e} not 0")
        _check(failures, out.decomposition.rank == 5,
               f"c1 has {out.decomposition.rank} atoms, expected 5")
        _check(failures, recon <= 2e-3, f"c1 reconstruction {recon:.2e} > 2e-3")
        parts.append(f"c1 {out.gamma:.1e}/{out.decomposition.rank} atoms")

    for name, want in (("two-c2", 2.8436), ("two-c4", 3.3763)):
        out, _ = reference_outcomes[name]
        _check(failures, out.status == "projected", f"{name[-2:]} status {out.status}")
        if out.status == "projected":
            _check(failures, abs(out.gamma - want) <= 5e-3,
                   f"{name[-2:]} gamma {out.gamma:.6f} vs {want}")
            parts.append(f"{name[-2:]} {out.gamma:.4f}")

    out, _ = reference_outcomes["two-c3"]
    _check(failures, out.status == "infeasible", f"c3 status {out.status}")
    if out.status == "infeasible":
        _check(failures, out.k_used == 1, f"c3 detected at k={out.k_used}")
        prog = assemble(REFERENCE_INSTANCES["two-c3"], out.k_used)
        _check(failures, verify_certificate(prog, out.certificate), "c3 certificate invalid")
        parts.append("c3 infeasible@1")

    _verdict(capsys, "two-norm constrained suite", failures, ", ".join(parts))


def test_frobenius_constrained_suite(reference_outcomes, capsys):
    failures = []
    parts = []

    out, _ = reference_outcomes["fro-c1"]
    _check(failures, out.status == "projected", f"c1 status {out.status}")
    if out.status == "projected":
        _check(failures, abs(out.gamma) <= 1e-4, f"c1 gamma {out.gamma:.2e} not 0")
        parts.append(f"c1 {out.gamma:.1e}")

    for name, want in (("fro-c2", 4.7642), ("fro-c4", 5.1904)):
        out, _ = reference_outcomes[name]
        _check(failures, out.status == "projected", f"{name[-2:]} status {out.status}")
        if out.status == "projected":
            _check(failures, abs(out.gamma - want) <= 5e-3,
                   f"{name[-2:]} gamma {out.gamma:.6f} vs {want}")
            parts.append(f"{name[-2:]} {out.gamma:.4f}")

    out, _ = reference_outcomes["fro-c3"]
    _check(failures, out.status == "infeasible", f"c3 status {out.status}")
    if out.status == "infeasible":
        prog = assemble(REFERENCE_INSTANCES["fro-c3"], out.k_used)
        _check(failures, verify_certificate(prog, out.certificate), "c3 certificate invalid")
        parts.append(f"c3 infeasible@{out.k_used}")

    _verdict(capsys, "frobenius constrained suite", failures, ", ".join(parts))


def test_six_by_six_constrained_suite(reference_outcomes, capsys):
    failures = []
    parts = []
    for name, want in (("six-c1", 9.7852), ("six-c2", 11.4970), ("six-c4", 10.4410)):
        out, _ = reference_outcomes[name]
        _check(failures, out.status == "projected", f"{name[-2:]} status {out.status}")
        if out.status == "projected":
            _check(failures, abs(out.gamma - want) <= 1e-2,
                   f"{name[-2:]} gamma {out.gamma:.6f} vs {want}")
            parts.append(f"{name[-2:]} {out.gamma:.4f}")

    out, _ = reference_outcomes["six-c3"]
    _check(failures, out.status == "infeasible", f"c3 status {out.status}")
    if out.status == "infeasible":
        prog = assemble(REFERENCE_INSTANCES["six-c3"], out.k_used)
        _check(failures, verify_certificate(prog, out.certificate), "c3 certificate invalid")
        parts.append(f"c3 infeasible@{out.k_used}")

    _verdict(capsys, "six-by-six constrained suite", failures, ", ".join(parts))


def _dykstra_dnn_distance(C, tol=1e-12, max_iter=20000):
    """Frobenius distance from C to the doubly nonnegative cone.

    Dykstra's alternating projections between the PSD cone and the
    nonnegative orthant (Higham, IMA J. Numer. Anal. 2002): plain numpy,
    no conic solver, so it is independent of the driver's programs.
    Returns the distance and the iterations used.
    """
    X = C.copy()
    P = np.zeros_like(C)
    Q = np.zeros_like(C)
    for it in range(1, max_iter + 1):
        w, V = np.linalg.eigh(X + P)
        Y = (V * np.maximum(w, 0.0)) @ V.T
        P = X + P - Y
        X_next = np.maximum(Y + Q, 0.0)
        Q = Y + Q - X_next
        step = np.linalg.norm(X_next - X)
        X = X_next
        if step <= tol and np.linalg.norm(X - Y) <= tol:
            break
    return float(np.linalg.norm(X - C)), it


def _oracle_draws():
    """The 50 seed-7 draws of size 3 or 4, as (index, C)."""
    rng = np.random.default_rng(7)
    for i in range(50):
        n = int(rng.integers(3, 5))
        G = rng.standard_normal((n, n))
        yield i, (G + G.T) / 2.0


def test_random_small_projections_match_dnn_oracle(capsys):
    """For n <= 4 the CP cone equals the doubly nonnegative cone, so the
    nearest DNN matrix, found by Dykstra's projections, is an independent
    oracle for the certified distance.  The oracle is first checked against
    the conic DNN projection."""
    failures = []
    inconclusive = []
    worst = 0.0
    oracle_worst = 0.0
    oracle_iters = 0
    for i, C in _oracle_draws():
        gamma_dnn, iters = _dykstra_dnn_distance(C)
        oracle_iters = max(oracle_iters, iters)
        oracle_gap = abs(gamma_dnn - project_dnn(C, "fro")[0])
        oracle_worst = max(oracle_worst, oracle_gap)
        _check(failures, oracle_gap <= 1e-6,
               f"instance {i}: Dykstra {gamma_dnn:.8f} vs conic DNN projection")
        out = approximate(ProblemSpec(C, "fro"))
        if out.status == "projected":
            gap = abs(out.gamma - gamma_dnn)
            worst = max(worst, gap)
            _check(failures, gap <= 1e-4,
                   f"instance {i}: gamma {out.gamma:.8f} vs oracle {gamma_dnn:.8f}")
        else:
            inconclusive.append(i)
    _check(failures, len(inconclusive) < 5,
           f"{len(inconclusive)}/50 inconclusive, need fewer than 10%")
    _verdict(capsys, "random 3x3/4x4 against the DNN oracle", failures,
             f"worst gap {worst:.1e}, inconclusive {len(inconclusive)}/50 {inconclusive}, "
             f"oracle within {oracle_worst:.1e} of the conic projection "
             f"in at most {oracle_iters} iterations")


def test_rand29_is_certified_at_the_dnn_relaxation():
    # draw 29 is CP (n = 4), but the clipped rotation of its Eckart-Young
    # factor misses the budget; the bound stage of the polish finishes that
    # start, so the DNN optimum certifies
    C = dict(_oracle_draws())[29]
    out = approximate(ProblemSpec(C, "fro"))
    assert out.status == "projected"
    assert out.k_used == 1
    assert abs(out.gamma - _dykstra_dnn_distance(C)[0]) <= 1e-6


def test_rand45_is_certified_at_the_dnn_relaxation():
    # draw 45 stalls at order 4, where its status depended on the BLAS
    # kernel; its DNN optimum factors, so the hierarchy is never entered
    C = dict(_oracle_draws())[45]
    out = approximate(ProblemSpec(C, "fro"))
    assert out.status == "projected"
    assert out.k_used == 1
    assert abs(out.gamma - _dykstra_dnn_distance(C)[0]) <= 1e-6


def _rng21_draw(t):
    """Draw t of `default_rng(21)` with n = 3 + i % 2 for draw i, as
    (G + G')/2.  Draw 7 is a 4x4 matrix whose one-norm optimum has the
    4-cycle as its graph."""
    rng = np.random.default_rng(21)
    for i in range(t + 1):
        n = 3 + i % 2
        G = rng.standard_normal((n, n))
    return (G + G.T) / 2.0


def test_rng21_draw_7_is_certified_with_at_most_four_atoms(capsys):
    """For n <= 4 the CP cone equals the DNN cone, so an inconclusive answer
    is a defect.  The graph of this draw's optimum is the triangle-free
    4-cycle, whose cp-rank is its 4 edges while the matrix has rank 3: no
    rotation of the 3-row Eckart-Young factor fits, and the clique start's
    4 rows do.  That fit lands near the budget at order 1, so the order is
    not pinned; the certificate is rechecked from the factors alone."""
    C = _rng21_draw(7)
    out = approximate(ProblemSpec(C, "one"), DriverSettings(k_max=3))
    failures = []
    detail = f"status {out.status}"
    _check(failures, out.status == "projected", f"status {out.status}")
    if out.status == "projected":
        F, X = out.decomposition.factors, out.matrix
        recon = float(np.linalg.norm(F.T @ F - X))
        budget = FACTOR_TOL * (1.0 + np.linalg.norm(X))
        dist = p_norm(F.T @ F - C, "one")
        _check(failures, out.k_used <= 3, f"certified only at k={out.k_used}")
        _check(failures, F.shape[0] <= 4, f"{F.shape[0]} atoms > 4")
        _check(failures, F.min() >= 0.0, f"negative factor entry {F.min():.2e}")
        _check(failures, recon <= budget, f"factor residual {recon:.2e} > {budget:.2e}")
        _check(failures, abs(dist - out.gamma) <= 1e-4,
               f"factors' distance {dist:.8f} vs gamma {out.gamma:.8f}")
        detail = (f"k={out.k_used}, {F.shape[0]} atoms, factor residual {recon:.2e} "
                  f"of {budget:.2e}, gamma {out.gamma:.6f}")
    _verdict(capsys, "rng21 draw 7 (the 4-cycle)", failures, detail)


# 1.8 I + adj(C5): DNN, but the Horn matrix H has <H, CYCLE5> = -1 and
# ||H||_F = 5, so CYCLE5 lies at least 0.2 from the CP cone
CYCLE5 = 1.8 * np.eye(5) + np.roll(np.eye(5), 1, axis=1) + np.roll(np.eye(5), -1, axis=1)


def _cycle_family():
    """CYCLE5, then pc0 - pc7: CYCLE5 + 0.2 (G + G')/2 for eight successive
    G = default_rng(3).standard_normal((5, 5))."""
    rng = np.random.default_rng(3)
    pcs = [CYCLE5 + 0.1 * (G + G.T) for G in (rng.standard_normal((5, 5)) for _ in range(8))]
    return [("CYCLE5", CYCLE5)] + [(f"pc{i}", C) for i, C in enumerate(pcs)]


def _recheck_projection(failures, name, spec, out, k_max):
    """Check a projected outcome from the outcome alone: its order, its
    factors against X and C, its constraints, and that each order's bound is
    no lower than the one before it, within tol (1 + |gamma|).  Returns the
    certificate's factor residual over its budget and the largest fall of a
    bound over its allowance (0 when none falls)."""
    tol = SolverSettings().tol
    if out.status != "projected":
        _check(failures, False, f"{name}: {out.status}")
        return 0.0, 0.0
    F, X = out.decomposition.factors, out.matrix
    recon = float(np.linalg.norm(F.T @ F - X))
    budget = cpproj.driver._factor_budget(X)
    dist = p_norm(F.T @ F - spec.C, spec.norm)
    _check(failures, out.k_used <= k_max, f"{name}: certified only at k={out.k_used}")
    _check(failures, F.min() >= 0.0, f"{name}: negative factor entry {F.min():.2e}")
    _check(failures, recon <= budget, f"{name}: factor residual {recon:.2e} > {budget:.2e}")
    _check(failures, abs(dist - out.gamma) <= 1e-6 * (1.0 + out.gamma),
           f"{name}: factors' distance {dist:.10f} vs gamma {out.gamma:.10f}")
    _check(failures, _constraint_violation(spec, X) <= 1e-6, f"{name}: constraints missed")
    bounds = [gamma for _, gamma in out.bounds]
    falls = [(lo - hi) / (tol * (1.0 + abs(lo))) for lo, hi in zip(bounds, bounds[1:])]
    _check(failures, max(falls, default=0.0) <= 1.0, f"{name}: a distance bound dropped: {bounds}")
    return recon / budget, max(falls, default=0.0)


@pytest.mark.parametrize("norm", ["fro", "one", "two"])
def test_the_cycle_family_is_projected_with_nested_bounds(norm, capsys):
    """CYCLE5 is DNN but not CP, and pc0 - pc7 perturb it.  Order 2, the
    dual of Parrilo's K^(1), holds every Horn cut, so each is projected by
    order 3 with rechecked factors, its bounds never fall from one order to
    the next, and CYCLE5's Frobenius distance is the Horn bound 0.2."""
    failures, margins, falls, orders = [], [], [], []
    for name, C in _cycle_family():
        spec = ProblemSpec(C, norm)
        out = approximate(spec, DriverSettings(k_max=3))
        margin, fall = _recheck_projection(failures, name, spec, out, 3)
        margins.append(margin)
        falls.append(fall)
        orders.append(getattr(out, "k_used", None))
        if name == "CYCLE5" and norm == "fro" and out.status == "projected":
            _check(failures, out.gamma >= 0.2 - 1e-6, f"CYCLE5 gamma {out.gamma:.8f} < 0.2")
    _verdict(capsys, f"cycle family ({norm})", failures,
             f"orders {orders}, largest certificate margin {max(margins):.2e}, "
             f"largest bound fall {max(falls):.2f} of its allowance")


def _sizing(n):
    """(G + G')/2 + 0.5 I with G = default_rng(n).standard_normal((n, n))."""
    G = np.random.default_rng(n).standard_normal((n, n))
    return (G + G.T) / 2.0 + 0.5 * np.eye(n)


def _d2026(draws):
    """Draws t of one default_rng(2026): n = 5 + t % 2, G an n x n normal
    draw, C = (G + G')/2 + U(0, 1.5) I."""
    rng, out = np.random.default_rng(2026), {}
    for t in range(max(draws) + 1):
        n = 5 + t % 2
        G = rng.standard_normal((n, n))
        C = (G + G.T) / 2.0 + rng.uniform(0.0, 1.5) * np.eye(n)
        if t in draws:
            out[f"d2026 #{t}"] = C
    return out


def test_sizing_and_d2026_draws_certify_by_order_2(capsys):
    """Each of these certifies by order 2, with rechecked factors; a
    ladder on which one of them needs order 3, or on which d2026 #19 ends
    inconclusive, certifies less at the same order.  rng21 #14, in the one
    norm, certifies at order 1 with 2 atoms at about 0.8 of its budget, the
    tightest certificate of the family runs, so its margin shows here."""
    cases = {
        "sizing-6": (_sizing(6), "fro"),
        "sizing-7": (_sizing(7), "fro"),
        **{name: (C, "fro") for name, C in _d2026((0, 3, 19, 33, 39)).items()},
        "rng21 #14": (_rng21_draw(14), "one"),
    }
    failures, margins = [], {}
    for name, (C, norm) in cases.items():
        spec = ProblemSpec(C, norm)
        out = approximate(spec, DriverSettings(k_max=3))
        margins[name] = _recheck_projection(failures, name, spec, out, 2)[0]
    _verdict(capsys, "sizing and d2026 draws by order 2", failures,
             ", ".join(f"{name} margin {m:.2e}" for name, m in margins.items()))


def _counting_fits(monkeypatch):
    """Record, for every polish stage that runs, how many residuals it
    evaluates (its start's included)."""
    nfev = []
    descend, residual = cpproj.extraction._descend, cpproj.extraction._residual

    def counting_stage(*args):
        nfev.append(0)
        return descend(*args)

    def counting_residual(*args):
        nfev[-1] += 1
        return residual(*args)

    monkeypatch.setattr(cpproj.extraction, "_descend", counting_stage)
    monkeypatch.setattr(cpproj.extraction, "_residual", counting_residual)
    return nfev


def test_certifying_the_size_3_draws_stays_cheap(monkeypatch):
    """An effort guard on the factorization: the rotated Eckart-Young start
    certifies the 21 size-3 seed-7 draws in 4 polish stages and 35 residual
    evaluations in all, each stage the bound-stage polish of a rotation that
    missed.  Polishing the square-root start's heaviest row-floor rows took
    50 stages and 210 evaluations, and the n(n+1)/2-row random start alone
    1,277 evaluations."""
    nfev = _counting_fits(monkeypatch)
    draws = [C for _, C in _oracle_draws() if C.shape[0] == 3]
    assert len(draws) == 21
    for C in draws:
        assert approximate(ProblemSpec(C, "fro")).status == "projected"
    assert len(nfev) <= 5
    assert sum(nfev) <= 45


def test_the_row_floor_jump_keeps_the_reference_polish_cheap(monkeypatch):
    """An effort guard on the rotated Eckart-Young start: two-c2 and fro-c2
    certify with no polish and one-c2 with one bound-stage polish of 11
    residual evaluations.  Polishing the start's heaviest row-floor rows
    took 6 stages and 53 evaluations, and polishing the full square-root
    start first 271 evaluations."""
    nfev = _counting_fits(monkeypatch)
    for name in ("two-c2", "fro-c2", "one-c2"):
        out = approximate(REFERENCE_INSTANCES[name], DriverSettings(k_max=4))
        assert out.status == "projected", name
    assert len(nfev) <= 2
    assert sum(nfev) <= 16


def test_the_clique_start_keeps_rng21_draw_7_cheap(monkeypatch):
    """An effort guard on the clique start: the order that certifies rng21
    draw 7 does so in at most 3 polish stages, the bound-stage polish of the
    rotation that missed and the interior and bound stages from the clique
    rows.  Only that order's stages count, since which order certifies is
    not pinned.  The random-row fallback took 12 stages for a draw 7 that
    stayed inconclusive.  K_{2,3}'s 3 stages are pinned by the driver's
    clique-row test."""
    nfev = _counting_fits(monkeypatch)
    before = []
    factorize = cpproj.driver._factorize

    def marking(*args):
        before.append(len(nfev))
        return factorize(*args)

    monkeypatch.setattr(cpproj.driver, "_factorize", marking)
    out = approximate(ProblemSpec(_rng21_draw(7), "one"), DriverSettings(k_max=3))
    assert out.status == "projected"
    assert len(before) == out.k_used
    assert len(nfev) - before[-1] <= 3


def test_one_c4_order_3_does_not_hang_on_the_kkt_regularization(monkeypatch):
    """one-c4's order-3 relaxation, with the absolute KKT regularization
    scaled by 0.7 to 1.5, ends optimal at the unscaled gamma (within 8.4e-9
    relative at 1 and 2 BLAS threads).  The split one-norm encoding
    X - C = Y+ - Y- ended it `iteration_limit` at 0.9 on 2 BLAS threads."""
    spec, solver = REFERENCE_INSTANCES["one-c4"], DriverSettings().solver
    prog, sol = solve_relaxation(spec, 3, solver)
    assert sol.status == "optimal"
    gamma = map_solution(prog, sol).gamma
    base = cpproj.conic.STATIC_REG
    for factor in (0.7, 0.9, 1.1, 1.5):
        monkeypatch.setattr(cpproj.conic, "STATIC_REG", base * factor)
        prog, sol = solve_relaxation(spec, 3, solver)
        assert sol.status == "optimal", factor
        assert abs(map_solution(prog, sol).gamma - gamma) <= 1e-7 * (1.0 + gamma), factor


def _moment_identity_residual():
    """Largest deviation of the relaxation's rung maps (the dual of
    Parrilo's K^(r), r = k - 1, order 1 included) from their defining index
    formulas, at random moments z over the reference exponents: row (a, b)
    of P z is sum_{|gamma| = r} (r!/gamma!) z[e_a + e_b + gamma], and the
    parity class p in {0, 1}^n, |p| = r mod 2, |p| <= r + 2, gives the
    block [z[p + gamma_a + gamma_b]] over |gamma| = (r + 2 - |p|) / 2, a
    nonneg row when it has order 1.  (4, 4) is the order-4 probe's
    program."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for n, k in ((3, 1), (2, 2), (3, 2), (3, 3), (4, 2), (4, 4), (5, 3)):
        r = k - 1
        position = {beta: i for i, beta in enumerate(exponents(n, r + 2))}
        head = rng.standard_normal(len(position))
        P, nonneg, blocks = rung_maps(n, k)
        eye = np.eye(n, dtype=int)
        pairs = [(a, b) for a in range(n) for b in range(a, n)]
        gammas = np.array(exponents(n, r)).reshape(-1, n)
        weight = [math.factorial(r) / math.prod(map(math.factorial, g)) for g in gammas]
        want = [
            sum(w * head[position[tuple(eye[a] + eye[b] + g)]] for w, g in zip(weight, gammas))
            for a, b in pairs
        ]
        worst = max(worst, float(np.abs(P @ head - want).max()))
        classes = sorted(
            (p for p in itertools.product((0, 1), repeat=n)
             if sum(p) % 2 == r % 2 and sum(p) <= r + 2),
            key=lambda p: (sum(p), [-e for e in p]),
        )
        single, psd = [], []
        for p in classes:
            rows = np.array(exponents(n, (r + 2 - sum(p)) // 2))
            entries = [
                head[position[tuple(np.array(p) + rows[a] + rows[b])]]
                for a in range(len(rows)) for b in range(a, len(rows))
            ]
            (single if len(rows) == 1 else psd).append(entries)
        assert [order * (order + 1) // 2 for order, _ in blocks] == [len(e) for e in psd]
        for (_, entries), want in zip(blocks, psd):
            worst = max(worst, float(np.abs(entries @ head - want).max()))
        assert nonneg.shape[0] == len(single)
        if single:
            worst = max(worst, float(np.abs(nonneg @ head - np.ravel(single)).max()))
    return worst


def _make_conic_program(c, E, d, M, h, blocks):
    c = np.asarray(c, dtype=float)
    return ConicProgram(
        objective=c,
        eq_map=sp.csr_matrix(np.atleast_2d(E).reshape(len(d), c.size)),
        eq_rhs=np.asarray(d, dtype=float),
        cone_map=sp.csr_matrix(np.atleast_2d(M).reshape(len(h), c.size)),
        cone_offset=np.asarray(h, dtype=float),
        cone_blocks=tuple(blocks),
    )


def _svec_sym(U):
    iu = np.triu_indices(U.shape[0])
    return U[iu] * np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))


def _cone_interior(block, rng, dual=False):
    if block.kind == "nonneg":
        return rng.uniform(0.5, 2.0, size=block.size)
    if block.kind == "soc":
        tail = rng.standard_normal(block.size - 1)
        return np.concatenate(([np.linalg.norm(tail) + rng.uniform(0.5, 2.0)], tail))
    G = rng.standard_normal((block.order, block.order))
    return _svec_sym(G @ G.T + (0.5 + rng.uniform()) * np.eye(block.order))


def _random_cone_blocks(rng, allow_pinned=True):
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
        order = int(rng.integers(1, 7))
        blocks.append(ConeBlock("psd", order * (order + 1) // 2, order))
    if not pinned and not blocks:
        blocks.append(ConeBlock("nonneg", 2))
    return pinned, blocks


def _feasible_conic_program(seed):
    """Random program carrying a strictly feasible primal-dual pair.

    The first `pinned` rows of M are drawn as cone rows held at zero, with
    free multipliers, and go into the equality map after its drawn rows.
    """
    rng = np.random.default_rng(seed)
    pinned, blocks = _random_cone_blocks(rng)
    m_k = pinned + sum(b.size for b in blocks)
    n = int(rng.integers(3, 12))
    m_e = int(rng.integers(0, 4))
    E = rng.standard_normal((m_e, n))
    M = rng.standard_normal((m_k, n))
    x0 = rng.standard_normal(n)
    y0 = rng.standard_normal(m_e)
    s0 = np.concatenate([np.zeros(0)] + [_cone_interior(b, rng) for b in blocks])
    z0 = np.concatenate(
        [rng.standard_normal(pinned)] + [_cone_interior(b, rng, dual=True) for b in blocks]
    )
    Mx0 = M @ x0
    return _make_conic_program(
        E.T @ y0 + M.T @ z0,
        np.vstack([E, M[:pinned]]),
        np.concatenate([E @ x0, Mx0[:pinned]]),
        M[pinned:],
        s0 - Mx0[pinned:],
        blocks,
    )


def _infeasible_conic_program(seed):
    """Random program whose cone image keeps a fixed margin against a dual ray."""
    rng = np.random.default_rng(seed + 9000)
    _, blocks = _random_cone_blocks(rng, allow_pinned=False)
    m_k = sum(b.size for b in blocks)
    n = int(rng.integers(3, 9))
    z0 = np.concatenate([_cone_interior(b, rng) for b in blocks])
    M = rng.standard_normal((m_k, n))
    h = rng.standard_normal(m_k)
    # project (M, h) so that z0 . (M x + h) == -1 for every x, which rules
    # out any cone-feasible point while z0 stays dual feasible
    Mt = M - np.outer(z0, z0 @ M) / (z0 @ z0)
    ht = h - z0 * ((z0 @ h) + 1.0) / (z0 @ z0)
    m_e = int(rng.integers(0, 3))
    E = rng.standard_normal((m_e, n))
    y_r = rng.standard_normal(m_e)
    z1 = np.concatenate([_cone_interior(b, rng) for b in blocks])
    return _make_conic_program(
        E.T @ y_r + Mt.T @ z1, E, rng.standard_normal(m_e), Mt, ht, blocks
    )


def _outside_cone(block, v):
    if block.kind == "nonneg":
        return float(max(0.0, -v.min(initial=0.0)))
    if block.kind == "soc":
        return float(max(0.0, np.linalg.norm(v[1:]) - v[0]))
    return float(max(0.0, -np.linalg.eigvalsh(smat(v, block.order)).min()))


def _kkt_recompute(prog, sol):
    """Worst scaled KKT violation, recomputed from the raw program data."""
    x, y, z = sol.primal, sol.dual_eq, sol.dual_cone
    d, h, c = prog.eq_rhs, prog.cone_offset, prog.objective
    worst = float(np.abs(prog.eq_map @ x - d).max(initial=0.0))
    worst /= 1.0 + float(np.abs(d).max(initial=0.0))
    img = prog.cone_map @ x + h
    at = 0
    for b in prog.cone_blocks:
        sl = slice(at, at + b.size)
        at += b.size
        worst = max(worst, _outside_cone(b, img[sl]))
        worst = max(worst, _outside_cone(b, z[sl]))
    adj = float(np.abs(prog.eq_map.T @ y + prog.cone_map.T @ z - c).max())
    worst = max(worst, adj / (1.0 + float(np.abs(c).max())))
    gap = abs(sol.primal_obj - sol.dual_obj) / max(1.0, abs(sol.primal_obj))
    return max(worst, gap)


def test_structural_property_suites(reference_outcomes, capsys):
    failures = []

    ident = _moment_identity_residual()
    _check(failures, ident <= 1e-10, f"moment identity residual {ident:.2e} > 1e-10")

    conic_worst = 0.0
    for seed in range(200, 300):
        prog = _feasible_conic_program(seed)
        # the residual checks below assume a decade below the default accuracy
        sol = solve(prog, SolverSettings(tol=1e-8))
        if sol.status != "optimal":
            _check(failures, False, f"feasible program {seed} ended {sol.status}")
            continue
        rep = max(sol.residuals["primal_feas"], sol.residuals["dual_feas"],
                  sol.residuals["rel_gap"])
        _check(failures, rep <= 1e-7, f"feasible {seed}: reported residual {rep:.2e}")
        kkt = _kkt_recompute(prog, sol)
        conic_worst = max(conic_worst, kkt)
        _check(failures, kkt <= 1e-6, f"feasible {seed}: recomputed KKT {kkt:.2e}")
    for seed in range(200, 220):
        prog = _infeasible_conic_program(seed)
        sol = solve(prog)
        ok = sol.status == "primal_infeasible" and verify_certificate(prog, sol)
        _check(failures, ok, f"infeasible {seed}: {sol.status}, certificate {ok}")

    # every order the driver reached, from the DNN relaxation to at least
    # order 2 (the driver may stop at order 1), and orders 1 to 3 of the
    # instances in BOUND_STEP_INSTANCES however early the driver certified
    # them, so the monotonicity check always has steps to compare: each
    # rung lies inside the one before it, order 2 inside DNN included
    st = SolverSettings()
    steps = 0
    optimal_solves = 0
    skipped = []
    for name, (out, _) in reference_outcomes.items():
        if out.status == "infeasible":
            continue
        k_hi = max(2, out.k_used if out.status == "projected" else out.k_last)
        if name in BOUND_STEP_INSTANCES:
            k_hi = max(k_hi, 3)
        bd = []
        for k in range(1, k_hi + 1):
            prog, csol = solve_relaxation(REFERENCE_INSTANCES[name], k, st)
            if csol.status != "optimal":
                skipped.append(f"{name} k={k} {csol.status}")
                continue
            rsol = map_solution(prog, csol)
            _check(failures, check_weak_duality(rsol),
                   f"{name} k={k}: gamma {rsol.gamma} undercuts dual {rsol.conic.dual_obj}")
            optimal_solves += 1
            bd.append(rsol.gamma)
        # each gamma is known only to the solve's relative gap, tol
        # times max(1, |pobj|, |dobj|), so a step may drop by that much
        for lo, hi in zip(bd, bd[1:]):
            _check(failures, hi >= lo - st.tol * max(1.0, abs(lo)),
                   f"{name}: distance bound dropped {lo:.8f} -> {hi:.8f}")
            steps += 1
    _check(failures, optimal_solves > 0, "no optimal relaxation solves exercised")
    _check(failures, steps > 0, "no bound steps exercised")

    _verdict(capsys, "structural property suites", failures,
             f"identities {ident:.1e}, conic 100+20 ok "
             f"(worst kkt {conic_worst:.1e}), {steps} bound steps monotone, "
             f"weak duality at {optimal_solves} solves, "
             f"{len(skipped)} non-optimal solves skipped {skipped}")


def test_random_six_by_six_projection_finishes_quickly(capsys):
    rng = np.random.default_rng(11)
    G = rng.standard_normal((6, 6))
    C = (G + G.T) / 2.0
    t0 = time.perf_counter()
    out = approximate(ProblemSpec(C, "fro"), DriverSettings(k_max=3))
    elapsed = time.perf_counter() - t0
    failures = []
    _check(failures, out.status in ("projected", "inconclusive"), f"status {out.status}")
    if out.status == "projected":
        _check(failures, out.k_used <= 3, f"k_used {out.k_used} > 3")
    _check(failures, elapsed <= 120.0, f"took {elapsed:.1f}s > 120s")
    _verdict(capsys, "random six-by-six runtime", failures,
             f"{out.status} in {elapsed:.1f}s")
