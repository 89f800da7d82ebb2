import numpy as np
import numpy.testing as npt
import pytest

import cpproj.driver
import cpproj.extraction
from cpproj.driver import FACTOR_TOL, DriverSettings, _fit
from cpproj.extraction import (
    CpDecomposition,
    _horn_cuts,
    cp_distance_floor,
    floor_factor,
    polish_decomposition,
    root_start,
    rotate_toward,
    row_floor,
    sparsify_decomposition,
    trace_scaled,
    verify_decomposition,
)
from cpproj.relaxation import ProblemSpec, map_solution, solve_relaxation


def test_verify_decomposition_rejects_negative_factors():
    dec = CpDecomposition.from_factors(np.array([[0.6, 0.8]]))
    bad = CpDecomposition(-dec.factors)
    with pytest.raises(ValueError):
        verify_decomposition(np.eye(2), bad)


@pytest.mark.parametrize("seed", range(6))
def test_polish_repairs_perturbed_factors(seed):
    rng = np.random.default_rng(seed)
    r, n = 3, 4
    F = np.abs(rng.normal(size=(r, n))) + 0.05
    X = F.T @ F
    noisy = np.clip(F + 1e-3 * rng.normal(size=F.shape), 0.0, None)
    dec = polish_decomposition(X, CpDecomposition(noisy))
    assert dec.factors.min() >= 0.0
    assert verify_decomposition(X, dec) <= 1e-8 * (1 + np.linalg.norm(X))
    npt.assert_allclose(
        np.linalg.norm(dec.atoms, axis=1), np.ones(dec.rank), atol=1e-12
    )


def test_polish_takes_factor_entries_of_the_identity_onto_the_bound(monkeypatch):
    # the driver's factorization start for I2: the trf stage stalls with an
    # entry that must vanish still a little above zero, at a residual of
    # 3.4e-5, beyond the 2.4e-6 budget; the dogbox stage from there steps
    # onto the bound and ends at 6.5e-10, where its gradient test stops it
    X = np.eye(2)
    budget = FACTOR_TOL * (1.0 + np.linalg.norm(X))
    stages = []
    fit = cpproj.extraction.least_squares

    def recording(*args, **kwargs):
        res = fit(*args, **kwargs)
        stages.append((kwargs["method"], np.linalg.norm(res.fun)))
        return res

    monkeypatch.setattr(cpproj.extraction, "least_squares", recording)
    F = trace_scaled(np.random.default_rng(0).uniform(size=(3, 2)), X)
    dec = polish_decomposition(X, CpDecomposition.from_factors(F))
    (first, trf_resid), (second, _) = stages
    assert (first, second) == ("trf", "dogbox")
    assert trf_resid > 10.0 * budget
    assert verify_decomposition(X, dec) <= 1e-8
    assert dec.factors.min() >= 0.0


def test_polish_keeps_empty_decomposition():
    empty = CpDecomposition(np.empty((0, 3)))
    out = polish_decomposition(np.zeros((3, 3)), empty)
    assert out.rank == 0


def test_sparsify_removes_redundant_duplicate_atom():
    F = np.array([[1.0, 2.0, 0.5], [0.3, 0.1, 1.2]])
    X = F.T @ F
    # split the first factor into two identical half-weight copies
    c = 1.0 / np.sqrt(2.0)
    padded = np.vstack([c * F[0], c * F[0], F[1]])
    dec = polish_decomposition(X, CpDecomposition(padded))
    tol = 1e-8 * (1 + np.linalg.norm(X))
    out = sparsify_decomposition(X, dec, tol, row_floor(np.linalg.eigvalsh(X), tol))
    assert out.rank == 2
    assert verify_decomposition(X, out) <= tol


def test_sparsify_keeps_minimal_decomposition():
    F = np.array([[2.0, 0.0], [1.0, 1.5]])
    X = F.T @ F
    dec = CpDecomposition(F)
    out = sparsify_decomposition(X, dec, 1e-9, row_floor(np.linalg.eigvalsh(X), 1e-9))
    assert out.rank == 2
    npt.assert_allclose(out.reconstruct(), X, atol=1e-12)


C5 = np.array([
    [2.0, 1, 1, 1, 2],
    [1, 2, 2, 1, 1],
    [1, 2, 6, 5, 1],
    [1, 1, 5, 6, 2],
    [2, 1, 1, 2, 3],
])


def _spy_on_polish(monkeypatch, module=cpproj.extraction, miss_first=False):
    """Record (row count, result) of every polish called through `module`:
    sparsify's removal trials in cpproj.extraction, the driver's fits in
    cpproj.driver.  A dogbox-only polish records its row count as
    ("dogbox", rows).

    With `miss_first`, the first polish hands its start back unpolished, so
    it misses and the search has to go on.
    """
    calls = []
    polish = module.polish_decomposition

    def spy(X, dec, *stages):
        out = dec if miss_first and not calls else polish(X, dec, *stages)
        calls.append((("dogbox", dec.rank) if stages else dec.rank, out))
        return out

    monkeypatch.setattr(module, "polish_decomposition", spy)
    return calls


@pytest.mark.parametrize("seed", range(5))
def test_polish_and_sparsify_factor_a_cp_matrix_from_random_rows(seed, monkeypatch):
    # the driver's fallback factorization start: n(n+1)/2 uniform rows whose
    # reconstruction has the trace of the target; C5 is nonsingular, so no
    # fewer than 5 factors rebuild it.  Its Eckart-Young factor, rotated
    # toward the 5 heaviest rows and clipped, misses; one dogbox polish of
    # those 5 rows fits, before any polish of all 15 or any sparsify trial
    F = trace_scaled(np.random.default_rng(seed).uniform(size=(15, 5)), C5)
    driver_calls = _spy_on_polish(monkeypatch, cpproj.driver)
    sparsify_calls = _spy_on_polish(monkeypatch)
    lam, V = np.linalg.eigh(C5)
    least = row_floor(lam, 1e-8)
    events = []
    out, resid, how = _fit(C5, F, 1e-8, floor_factor(lam, V, least), events.append, "C5")
    assert [rank for rank, _ in driver_calls] == [("dogbox", 5)]
    assert sparsify_calls == []
    assert how == "one dogbox polish"
    miss, = events
    assert miss.startswith("C5 misses (no polish) with factor residual")
    assert out.rank == 5
    assert resid == verify_decomposition(C5, out)
    assert out.factors.min() >= 0.0
    assert verify_decomposition(C5, out) <= 1e-8


@pytest.mark.parametrize("n, r", [(3, 1), (4, 2), (5, 3), (5, 5), (6, 4)])
def test_the_rotated_floor_factor_is_an_exact_eckart_young_factor(n, r):
    # for a CP matrix X = G^T G of rank r and each k <= r, the rotation Q B
    # of the floor factor B at k rows keeps (Q B)^T (Q B) = B^T B, the
    # rank-k truncation of X (X itself at k = r), to rounding, whatever rows
    # F seed the rotation; and Q B lies no farther from the k heaviest rows
    # of F than B does
    rng = np.random.default_rng(10 * n + r)
    X = (G := rng.uniform(size=(r, n))).T @ G
    lam, V = np.linalg.eigh(X)
    U, sig, Wt = np.linalg.svd(X)
    atol = 1e-13 * np.linalg.norm(X)
    npt.assert_allclose((U[:, :r] * sig[:r]) @ Wt[:r], X, rtol=0.0, atol=atol)
    for k in range(1, r + 1):
        B = floor_factor(lam, V, k)
        assert B.shape == (k, n)
        truncation = (U[:, :k] * sig[:k]) @ Wt[:k]
        for _ in range(5):
            F = rng.uniform(size=(n * (n + 1) // 2, n))
            QB = rotate_toward(B, F)
            npt.assert_allclose(QB.T @ QB, truncation, rtol=0.0, atol=atol)
            H = F[np.argsort(np.sum(F**2, axis=1))[-k:]]
            assert np.linalg.norm(QB - H) <= np.linalg.norm(B - H) + 1e-12


def test_root_start_is_nonnegative_and_exact_for_a_nonnegative_root():
    # R = B B^T is symmetric, PSD and entrywise nonnegative, so it is the
    # square root of X = R^2, and the clipped root reconstructs X exactly
    B = np.random.default_rng(4).uniform(size=(5, 3))
    R = B @ B.T
    X = R @ R
    F = root_start(*np.linalg.eigh(X))
    assert F.shape == (5, 5)
    assert F.min() >= 0.0
    npt.assert_allclose(F.T @ F, X, rtol=0.0, atol=1e-12 * np.linalg.norm(X))
    # a CP matrix whose square root has negative entries: they are clipped
    X = np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]])
    F = root_start(*np.linalg.eigh(X))
    assert F.min() == 0.0
    assert F[0, 2] == F[2, 0] == 0.0


def test_trace_scaled_matches_the_trace_of_the_target():
    F = trace_scaled(np.random.default_rng(1).uniform(size=(6, 3)), np.diag([1.0, 2.0, 4.0]))
    npt.assert_allclose(np.sum(F**2), 7.0)


def test_row_floor_counts_a_tail_exactly_at_tol_as_fitting():
    # eigenvalues are ranked by magnitude, so -0.5 is the smallest
    lam = np.array([3.0, 2.0, -0.5])
    assert row_floor(lam, 0.5) == 2
    assert row_floor(lam, np.nextafter(0.5, 0.0)) == 3
    assert row_floor(lam, np.sqrt(0.5**2 + 2.0**2)) == 1
    assert row_floor(np.zeros(3), 1e-9) == 1


@pytest.mark.parametrize("miss_first", [False, True])
def test_sparsify_never_polishes_fewer_rows_than_the_floor(miss_first, monkeypatch):
    # a rank-2 X of order 3, so no single row rebuilds it within 1e-9; the
    # first factor is split in two, the lighter part the lightest row.
    # Removing it fits; when that first trial is made to miss, the next
    # removal is tried, and no trial ever drops to 1 row
    F = np.array([[1.0, 2.0, 0.5], [0.3, 0.1, 1.2]])
    X = F.T @ F
    dec = CpDecomposition(np.vstack([0.9 * F[0], np.sqrt(0.19) * F[0], F[1]]))
    calls = _spy_on_polish(monkeypatch, miss_first=miss_first)
    out = sparsify_decomposition(X, dec, 1e-9, row_floor(np.linalg.eigvalsh(X), 1e-9))
    assert [rank for rank, _ in calls] == ([2, 2] if miss_first else [2])
    assert out.rank == 2
    assert verify_decomposition(X, out) <= 1e-9


@pytest.mark.parametrize("miss_first", [False, True])
def test_sparsify_tries_the_midpoint_row_count_first(miss_first, monkeypatch):
    # the same rank-2 X, with each of its 2 factor rows split into 4
    # parallel parts: 8 rows over a floor of 2, at a budget of 1e-6 (a
    # polish of parallel rows stalls near 1e-7).  Each pass first drops the
    # lightest rows down to the midpoint count in one polish (8 -> 5 -> 3),
    # then a single row (3 -> 2); when the first midpoint trial is made to
    # miss, that pass falls back to removing the lightest single row (8 -> 7)
    F = np.array([[1.0, 2.0, 0.5], [0.3, 0.1, 1.2]])
    X = F.T @ F
    parts = np.sqrt(np.array([0.4, 0.3, 0.2, 0.1]))[:, None]
    dec = CpDecomposition(np.vstack([parts * F[0], parts * F[1]]))
    calls = _spy_on_polish(monkeypatch, miss_first=miss_first)
    out = sparsify_decomposition(X, dec, 1e-6, row_floor(np.linalg.eigvalsh(X), 1e-6))
    assert [rank for rank, _ in calls] == ([5, 7, 4, 3, 2] if miss_first else [5, 3, 2])
    assert out.rank == 2
    assert verify_decomposition(X, out) <= 1e-6


def test_sparsify_tries_no_removal_from_an_input_that_misses(monkeypatch):
    # the same rank-2 X, with the factor rows scaled off the fit: removing
    # rows from factors that do not fit is not tried, no polish runs, and
    # the input comes back as it is
    F = np.array([[1.0, 2.0, 0.5], [0.3, 0.1, 1.2]])
    X = F.T @ F
    dec = CpDecomposition(np.vstack([0.9 * F[0], 0.5 * F[0], F[1]]))
    assert verify_decomposition(X, dec) > 1e-9
    calls = _spy_on_polish(monkeypatch)
    assert sparsify_decomposition(X, dec, 1e-9, row_floor(np.linalg.eigvalsh(X), 1e-9)) is dec
    assert calls == []


def test_a_missed_jump_leaves_the_greedy_result_unchanged(monkeypatch):
    # the order-2 X of draw 46 of the acceptance suite's seed-7 set is not
    # CP, so the rotated floor factor at its 3 rows misses the factorization
    # budget, unpolished and after one dogbox polish; the fit must then
    # return the sparsify pass's result from the polished start, bit for bit
    C = np.array([
        [1.469359036471145, -0.5824111870571382, -0.8477403269276138],
        [-0.5824111870571382, 0.78650572409622, 0.06507137558352677],
        [-0.8477403269276138, 0.06507137558352677, 0.3368524787764621],
    ])
    prog, csol = solve_relaxation(ProblemSpec(C, "fro"), 2, DriverSettings().solver)
    X = map_solution(prog, csol).matrix
    tol = FACTOR_TOL * (1.0 + np.linalg.norm(X))
    lam, V = np.linalg.eigh(X)
    least = row_floor(lam, tol)
    F = trace_scaled(np.random.default_rng(0).uniform(size=(6, 3)), X)
    dec = polish_decomposition(X, CpDecomposition.from_factors(F))
    want = sparsify_decomposition(X, dec, tol, least)

    calls = _spy_on_polish(monkeypatch, cpproj.driver)
    events = []
    got, _, how = _fit(X, F, tol, floor_factor(lam, V, least), events.append, "draw 46")
    (jump_rows, jump), (start_rows, _) = calls
    assert jump_rows == ("dogbox", least) and least == 3
    assert verify_decomposition(X, jump) > tol
    assert start_rows == 6
    assert how == "full polish and sparsify"
    assert [e.split(" with ")[0] for e in events] == [
        "draw 46 misses (no polish)", "draw 46 misses (one dogbox polish)"
    ]
    assert got.rank == want.rank > 3
    for field in ("atoms", "weights", "factors"):
        assert np.array_equal(getattr(got, field), getattr(want, field))


def test_from_factors_drops_empty_rows_and_normalizes_atoms():
    F = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 2.0]])
    dec = CpDecomposition.from_factors(F)
    assert dec.rank == 2
    npt.assert_allclose(np.linalg.norm(dec.atoms, axis=1), 1.0)
    npt.assert_allclose(dec.weights, [4.0, 25.0])
    npt.assert_allclose(dec.reconstruct(), F.T @ F)


@pytest.mark.parametrize("n, count", [(4, 0), (5, 12), (6, 72)])
def test_horn_cuts_are_the_distinct_embedded_relabelings(n, count):
    cuts = _horn_cuts(n)
    assert cuts.shape == (count, n, n)
    assert len({H.tobytes() for H in cuts}) == count
    for H in cuts:
        support = np.flatnonzero(np.abs(H).sum(axis=0))
        assert support.size == 5
        assert np.linalg.norm(H) == 5.0
        npt.assert_array_equal(np.diag(H)[support], 1.0)


def test_cp_distance_floor_names_the_gate_that_gives_it():
    cycle = 1.8 * np.eye(5)
    for i in range(5):
        cycle[i, (i + 1) % 5] = cycle[(i + 1) % 5, i] = 1.0
    bound, gate = cp_distance_floor(cycle, np.linalg.eigvalsh(cycle))
    assert gate == "Horn"
    assert bound == pytest.approx(0.2, abs=1e-15)
    X = np.array([[1.0, -0.5], [-0.5, 1.0]])
    assert cp_distance_floor(X, np.linalg.eigvalsh(X)) == (
        pytest.approx(np.sqrt(0.5), abs=1e-15), "entrywise"
    )
    X = np.array([[1.0, 2.0], [2.0, 1.0]])
    bound, gate = cp_distance_floor(X, np.linalg.eigvalsh(X))
    assert gate == "eigenvalue"
    assert bound == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [3, 5, 6])
def test_cp_distance_floor_never_exceeds_a_factorization_residual(n):
    rng = np.random.default_rng(n)
    for _ in range(40):
        F = rng.uniform(size=(rng.integers(1, 2 * n), n)) * (rng.uniform(size=(1, n)) > 0.3)
        E = rng.standard_normal((n, n))
        X = F.T @ F + rng.uniform(0.0, 2.0) * (E + E.T)
        bound, _ = cp_distance_floor(X, np.linalg.eigvalsh(X))
        assert bound <= np.linalg.norm(F.T @ F - X) * (1.0 + 1e-12)
