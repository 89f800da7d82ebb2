import numpy as np
import numpy.testing as npt
import pytest

import cpproj.extraction
from cpproj.driver import FACTOR_TOL, DriverSettings
from cpproj.extraction import (
    AtomicMeasure,
    CpDecomposition,
    ExtractionError,
    ExtractionTols,
    cp_decomposition,
    extract_atoms,
    polish_decomposition,
    row_floor,
    sparsify_decomposition,
    trace_scaled,
    verify_decomposition,
)
from cpproj.moments import check_flat
from cpproj.polybasis import Tms, moments_of_atoms
from cpproj.relaxation import ProblemSpec, map_solution, solve_relaxation


def _random_simplex_atoms(rng, r, n):
    pts = np.abs(rng.normal(size=(r, n))) + 0.05
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _sorted(measure):
    order = np.lexsort(measure.atoms.T[::-1])
    return measure.atoms[order], measure.weights[order]


@pytest.mark.parametrize("seed", range(12))
def test_round_trip_recovers_atoms(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    r = int(rng.integers(1, 4))
    atoms = _random_simplex_atoms(rng, r, n)
    weights = rng.uniform(0.3, 2.0, size=r)
    s = moments_of_atoms(atoms, weights, k=3)
    assert check_flat(s, 2).is_flat
    got = extract_atoms(s, 2)
    assert len(got) == r
    ga, gw = _sorted(got)
    ea, ew = _sorted(AtomicMeasure(atoms, weights))
    npt.assert_allclose(ga, ea, atol=1e-7)
    npt.assert_allclose(gw, ew, atol=1e-7)


def test_extraction_is_seed_stable():
    rng = np.random.default_rng(99)
    atoms = _random_simplex_atoms(rng, 3, 3)
    weights = np.array([1.0, 0.5, 2.0])
    s = moments_of_atoms(atoms, weights, k=3)
    a = extract_atoms(s, 2, seed=0)
    b = extract_atoms(s, 2, seed=12345)
    npt.assert_allclose(a.atoms, b.atoms, atol=1e-9)
    npt.assert_allclose(a.weights, b.weights, atol=1e-9)


def test_duplicate_atoms_merge():
    u = np.array([0.6, 0.8])
    atoms = np.vstack([u, u])
    s = moments_of_atoms(atoms, [0.7, 0.3], k=2)
    got = extract_atoms(s, 2)
    assert len(got) == 1
    npt.assert_allclose(got.atoms[0], u, atol=1e-8)
    npt.assert_allclose(got.weights[0], 1.0, atol=1e-8)


def test_zero_sequence_gives_empty_measure():
    s = moments_of_atoms(np.zeros((0, 3)), [], k=2, n=3)
    got = extract_atoms(s, 2)
    assert len(got) == 0
    dec = cp_decomposition(got)
    assert dec.reconstruct().shape == (0, 0) or dec.factors.shape[0] == 0
    assert verify_decomposition(np.zeros((3, 3)), dec) == 0.0


def test_negative_coordinate_is_rejected():
    atoms = np.array([[0.8, -0.6], [0.6, 0.8]])
    s = moments_of_atoms(atoms, [1.0, 1.0], k=3)
    with pytest.raises(ExtractionError, match="negative"):
        extract_atoms(s, 2)


def test_tiny_negative_coordinate_is_clamped():
    atoms = np.array([[1.0, -1e-9], [0.6, 0.8]])
    atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)
    s = moments_of_atoms(atoms, [1.0, 1.0], k=3)
    got = extract_atoms(s, 2)
    assert got.atoms.min() >= 0.0
    assert len(got) == 2


def test_off_sphere_atoms_are_rejected():
    atoms = 1.1 * np.array([[1.0, 0.0], [0.0, 1.0]])
    s = moments_of_atoms(atoms, [1.0, 1.0], k=2)
    with pytest.raises(ExtractionError, match="sphere"):
        extract_atoms(s, 2)


def test_corrupted_high_degree_entry_fails_the_fit():
    rng = np.random.default_rng(4)
    atoms = _random_simplex_atoms(rng, 2, 2)
    s0 = moments_of_atoms(atoms, [1.0, 1.0], k=2)
    arr = s0.s.copy()
    arr[-1] += 0.05  # break the top-degree moment only
    s = Tms(2, 2, arr)
    with pytest.raises(ExtractionError):
        extract_atoms(s, 2, tols=ExtractionTols(fit_tol=1e-8))


def test_cp_decomposition_reconstructs_matrix():
    rng = np.random.default_rng(21)
    atoms = _random_simplex_atoms(rng, 3, 4)
    weights = rng.uniform(0.2, 1.5, size=3)
    X = (atoms.T * weights) @ atoms
    s = moments_of_atoms(atoms, weights, k=2)
    dec = cp_decomposition(extract_atoms(s, 2))
    assert dec.rank == 3
    assert dec.factors.min() >= 0.0
    assert verify_decomposition(X, dec) <= 1e-7 * (1 + np.linalg.norm(X))
    npt.assert_allclose(dec.reconstruct(), X, atol=1e-7)


def test_verify_decomposition_rejects_negative_factors():
    dec = cp_decomposition(AtomicMeasure(np.array([[0.6, 0.8]]), np.array([1.0])))
    bad = type(dec)(dec.atoms, dec.weights, -dec.factors)
    with pytest.raises(ValueError):
        verify_decomposition(np.eye(2), bad)


def test_single_atom():
    u = np.array([0.0, 1.0])
    s = moments_of_atoms(u[None, :], [2.5], k=2)
    got = extract_atoms(s, 1)
    assert len(got) == 1
    npt.assert_allclose(got.atoms[0], u, atol=1e-9)
    npt.assert_allclose(got.weights[0], 2.5, atol=1e-9)


def test_truncation_order_bounds():
    s = moments_of_atoms(np.array([[1.0, 0.0]]), [1.0], k=2)
    with pytest.raises(ValueError):
        extract_atoms(s, 0)
    with pytest.raises(ValueError):
        extract_atoms(s, 3)


def _decomposition_from_factors(F):
    norms = np.linalg.norm(F, axis=1)
    return CpDecomposition(F / norms[:, None], norms**2, F)


@pytest.mark.parametrize("seed", range(6))
def test_polish_repairs_perturbed_factors(seed):
    rng = np.random.default_rng(seed)
    r, n = 3, 4
    F = np.abs(rng.normal(size=(r, n))) + 0.05
    X = F.T @ F
    noisy = np.clip(F + 1e-3 * rng.normal(size=F.shape), 0.0, None)
    dec = polish_decomposition(X, _decomposition_from_factors(noisy))
    assert dec.factors.min() >= 0.0
    assert verify_decomposition(X, dec) <= 1e-8 * (1 + np.linalg.norm(X))
    npt.assert_allclose(
        np.linalg.norm(dec.atoms, axis=1), np.ones(dec.rank), atol=1e-12
    )


def test_polish_keeps_empty_decomposition():
    empty = CpDecomposition(np.empty((0, 3)), np.empty(0), np.empty((0, 3)))
    out = polish_decomposition(np.zeros((3, 3)), empty)
    assert out.rank == 0


def test_sparsify_removes_redundant_duplicate_atom():
    F = np.array([[1.0, 2.0, 0.5], [0.3, 0.1, 1.2]])
    X = F.T @ F
    # split the first factor into two identical half-weight copies
    c = 1.0 / np.sqrt(2.0)
    padded = np.vstack([c * F[0], c * F[0], F[1]])
    dec = polish_decomposition(X, _decomposition_from_factors(padded))
    out = sparsify_decomposition(X, dec, 1e-8 * (1 + np.linalg.norm(X)))
    assert out.rank == 2
    assert verify_decomposition(X, out) <= 1e-8 * (1 + np.linalg.norm(X))


def test_sparsify_keeps_minimal_decomposition():
    F = np.array([[2.0, 0.0], [1.0, 1.5]])
    X = F.T @ F
    dec = _decomposition_from_factors(F)
    out = sparsify_decomposition(X, dec, 1e-9)
    assert out.rank == 2
    npt.assert_allclose(out.reconstruct(), X, atol=1e-12)


C5 = np.array([
    [2.0, 1, 1, 1, 2],
    [1, 2, 2, 1, 1],
    [1, 2, 6, 5, 1],
    [1, 1, 5, 6, 2],
    [2, 1, 1, 2, 3],
])


def _spy_on_polish(monkeypatch, miss_first=False):
    """Record (row count, result) of every polish that sparsify starts.

    With `miss_first`, the first polish hands its start back unpolished, so
    a jump to the row floor misses and the greedy pass has to run.
    """
    calls = []
    polish = cpproj.extraction.polish_decomposition

    def spy(X, dec):
        out = dec if miss_first and not calls else polish(X, dec)
        calls.append((dec.rank, out))
        return out

    monkeypatch.setattr(cpproj.extraction, "polish_decomposition", spy)
    return calls


@pytest.mark.parametrize("seed", range(5))
def test_polish_and_sparsify_factor_a_cp_matrix_from_random_rows(seed, monkeypatch):
    # the driver's direct-factorization start: n(n+1)/2 uniform rows whose
    # reconstruction has the trace of the target; C5 is nonsingular, so no
    # fewer than 5 factors rebuild it, and sparsify jumps there in one polish
    F = trace_scaled(np.random.default_rng(seed).uniform(size=(15, 5)), C5)
    dec = polish_decomposition(C5, CpDecomposition.from_factors(F))
    calls = _spy_on_polish(monkeypatch)
    out = sparsify_decomposition(C5, dec, 1e-8)
    assert [rank for rank, _ in calls] == [5]
    assert out.rank == 5
    assert out.factors.min() >= 0.0
    assert verify_decomposition(C5, out) <= 1e-8


def test_trace_scaled_matches_the_trace_of_the_target():
    F = trace_scaled(np.random.default_rng(1).uniform(size=(6, 3)), np.diag([1.0, 2.0, 4.0]))
    npt.assert_allclose(np.sum(F**2), 7.0)


def test_row_floor_counts_a_tail_exactly_at_tol_as_fitting():
    X = np.diag([3.0, 2.0, 0.5])
    assert row_floor(X, 0.5) == 2
    assert row_floor(X, np.nextafter(0.5, 0.0)) == 3
    assert row_floor(X, np.sqrt(0.5**2 + 2.0**2)) == 1
    assert row_floor(np.zeros((3, 3)), 1e-9) == 1


@pytest.mark.parametrize("miss_jump", [False, True])
def test_sparsify_never_polishes_fewer_rows_than_the_floor(miss_jump, monkeypatch):
    # a rank-2 X of order 3, so no single row rebuilds it within 1e-9; the
    # first factor is split in two, the lighter part the lightest row
    F = np.array([[1.0, 2.0, 0.5], [0.3, 0.1, 1.2]])
    X = F.T @ F
    dec = _decomposition_from_factors(np.vstack([0.9 * F[0], np.sqrt(0.19) * F[0], F[1]]))
    calls = _spy_on_polish(monkeypatch, miss_first=miss_jump)
    out = sparsify_decomposition(X, dec, 1e-9)
    assert [rank for rank, _ in calls] == ([2, 2] if miss_jump else [2])
    assert out.rank == 2
    assert verify_decomposition(X, out) <= 1e-9


def _greedy_sparsify(X, dec, tol):
    """The sparsify pass without floor or jump: drop the lightest factor
    whose removal survives a re-polish, down to one factor."""
    cur = dec
    shrunk = True
    while shrunk and cur.rank > 1:
        shrunk = False
        for idx in np.argsort(cur.weights):
            trial = CpDecomposition(
                np.delete(cur.atoms, idx, axis=0),
                np.delete(cur.weights, idx),
                np.delete(cur.factors, idx, axis=0),
            )
            trial = polish_decomposition(X, trial)
            if verify_decomposition(X, trial) <= tol:
                cur = trial
                shrunk = True
                break
    return cur


def test_a_missed_jump_leaves_the_greedy_result_unchanged(monkeypatch):
    # the order-2 X of draw 46 of the acceptance suite's seed-7 set is not
    # CP, so the jump to its 3-row floor misses the factorization budget;
    # sparsify must then return the greedy pass's result, bit for bit
    C = np.array([
        [1.469359036471145, -0.5824111870571382, -0.8477403269276138],
        [-0.5824111870571382, 0.78650572409622, 0.06507137558352677],
        [-0.8477403269276138, 0.06507137558352677, 0.3368524787764621],
    ])
    prog, csol = solve_relaxation(ProblemSpec(C, "fro"), 2, DriverSettings().solver)
    X = map_solution(prog, csol).matrix.values
    tol = FACTOR_TOL * (1.0 + np.linalg.norm(X))
    F = trace_scaled(np.random.default_rng(0).uniform(size=(6, 3)), X)
    dec = polish_decomposition(X, CpDecomposition.from_factors(F))
    want = _greedy_sparsify(X, dec, tol)

    calls = _spy_on_polish(monkeypatch)
    got = sparsify_decomposition(X, dec, tol)
    jump_rows, jump = calls[0]
    assert jump_rows == row_floor(X, tol) == 3
    assert verify_decomposition(X, jump) > tol
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
