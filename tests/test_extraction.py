import itertools
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import cpproj.driver
import cpproj.extraction
from cpproj.driver import FACTOR_TOL, _fit
from cpproj.extraction import (
    _HORN,
    _HORN_CUTS,
    CpDecomposition,
    clique_start,
    cp_distance_floor,
    edge_start,
    floor_factor,
    polish_decomposition,
    root_start,
    rotate_toward,
    row_floor,
    verify_decomposition,
)
from test_acceptance import K23

WHOLE = ("interior", "bound")  # the polish stages of a whole start


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
    dec = polish_decomposition(X, CpDecomposition(noisy), WHOLE)
    assert dec.factors.min() >= 0.0
    assert verify_decomposition(X, dec) <= 1e-8 * (1 + np.linalg.norm(X))
    npt.assert_allclose(
        np.linalg.norm(dec.atoms, axis=1), np.ones(dec.rank), atol=1e-12
    )


def test_polish_takes_factor_entries_of_the_identity_onto_the_bound():
    # 3 uniform rows scaled to the trace of I2: the interior stage hands
    # over with the entries that must vanish still a little above zero, at
    # a residual of 3.8e-4, beyond the 2.4e-6 budget; the bound stage from
    # there snaps them onto the bound and fits to rounding level
    X = np.eye(2)
    budget = FACTOR_TOL * (1.0 + np.linalg.norm(X))
    F = np.random.default_rng(0).uniform(size=(3, 2))
    F *= np.sqrt(np.trace(X)) / np.linalg.norm(F)
    start = CpDecomposition.from_factors(F)
    inner = polish_decomposition(X, start, ("interior",))
    assert inner.factors.min() > 0.0
    assert verify_decomposition(X, inner) > 10.0 * budget
    for dec in (polish_decomposition(X, inner, ("bound",)), polish_decomposition(X, start, WHOLE)):
        assert verify_decomposition(X, dec) <= 1e-8
        assert dec.factors.min() >= 0.0


@pytest.mark.parametrize("diag", [(1.0, 1.0), (1.0, 2.0, 3.0)])
@pytest.mark.parametrize("seed", range(16))
def test_the_polish_fits_a_diagonal_matrix_to_rounding_level(diag, seed):
    # the only nonnegative factors of a diagonal matrix have one nonzero per
    # row; from its square root, an exact factorization, with every entry
    # moved up by up to 1e-2, the entries off the diagonal must go back onto
    # the bound, and the fit ends at rounding level, not at a gradient test
    X = np.diag(diag)
    noise = 1e-2 * np.random.default_rng(seed).uniform(size=X.shape)
    dec = polish_decomposition(X, CpDecomposition(np.sqrt(X) + noise), WHOLE)
    assert verify_decomposition(X, dec) <= 1e-12


def test_polish_keeps_empty_decomposition():
    empty = CpDecomposition(np.empty((0, 3)))
    out = polish_decomposition(np.zeros((3, 3)), empty, WHOLE)
    assert out.rank == 0


def _spy_on_polish(monkeypatch, miss=False):
    """Record (row count, result) of every polish that the driver's
    factorization chain runs; a bound-stage polish records its row count as
    ("bound", rows).

    With `miss`, every polish hands its start back unpolished, as a failed
    fit does, so the chain has to go on.
    """
    calls = []
    polish = cpproj.driver.polish_decomposition

    def spy(X, dec, *stages):
        out = dec if miss else polish(X, dec, *stages)
        calls.append((("bound", dec.rank) if stages == (("bound",),) else dec.rank, out))
        return out

    monkeypatch.setattr(cpproj.driver, "polish_decomposition", spy)
    return calls


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


def test_row_floor_counts_a_tail_exactly_at_tol_as_fitting():
    # eigenvalues are ranked by magnitude, so -0.5 is the smallest
    lam = np.array([3.0, 2.0, -0.5])
    assert row_floor(lam, 0.5) == 2
    assert row_floor(lam, np.nextafter(0.5, 0.0)) == 3
    assert row_floor(lam, np.sqrt(0.5**2 + 2.0**2)) == 1
    # a spectrum whose whole norm fits needs no row: the empty factorization
    assert row_floor(lam, np.sqrt(0.5**2 + 2.0**2 + 3.0**2)) == 0
    assert row_floor(lam, np.nextafter(np.sqrt(0.5**2 + 2.0**2 + 3.0**2), 0.0)) == 1
    assert row_floor(np.zeros(3), 1e-9) == 0


def test_a_matrix_outside_the_cp_cone_runs_the_whole_chain(monkeypatch):
    # the cycle matrix 1.8 I + adj(C5) is DNN, and the Horn matrix keeps it
    # 0.2 from the CP cone, so the rotated floor factor at its 5 rows misses
    # the factorization budget, unpolished and after one bound-stage
    # polish.  Its graph is the 5-cycle, whose 5 clique rows (its edges)
    # reach the floor, so the chain polishes them in full, then the 5
    # square-root rows, and ends with the full polish of the 5 edge rows,
    # which misses too: each start leaves one event, and the chain returns
    # None.  The last polish is the one a direct call runs, bit for bit
    X = 1.8 * np.eye(5)
    for i in range(5):
        X[i, (i + 1) % 5] = X[(i + 1) % 5, i] = 1.0
    tol = FACTOR_TOL * (1.0 + np.linalg.norm(X))
    lam, V = np.linalg.eigh(X)
    least = row_floor(lam, tol)
    assert clique_start(X, tol).shape == (5, 5)
    want = polish_decomposition(X, CpDecomposition.from_factors(edge_start(X, tol)), WHOLE)

    calls = _spy_on_polish(monkeypatch)
    events = []
    assert _fit(X, lam, V, least, tol, events.append, "C5") is None
    (jump_rows, jump), (clique_rows, clique), (root_rows, root), (edge_rows, got) = calls
    assert jump_rows == ("bound", least) and least == 5
    # <Horn, F'F> >= 0 for any factors F >= 0, so each fit stays at least
    # 0.2 = |<Horn, X>| / ||Horn||_F away from X
    for dec in (jump, clique, root, got):
        assert verify_decomposition(X, dec) >= 0.2 - 1e-9
    assert clique_rows == root_rows == edge_rows == 5
    assert [e.split(" from ")[0] for e in events] == [
        "C5: the rotated square-root start misses (bound polish",
        "C5: the clique start misses (interior and bound polish",
        "C5: the square-root start misses (interior and bound polish",
        "C5: the edge start misses (interior and bound polish",
    ]
    for field in ("atoms", "weights", "factors"):
        assert np.array_equal(getattr(got, field), getattr(want, field))


def test_the_clique_start_of_k23_has_one_row_on_each_edge():
    # every maximal clique of a triangle-free graph is an edge; each vertex
    # lies on c_i of them and gets sqrt(X_ii / c_i) on each, so the rows
    # rebuild the diagonal
    X = K23
    F = clique_start(X, 1e-6)
    assert F.shape == (6, 5)
    supports = {tuple(np.flatnonzero(row)) for row in F}
    assert supports == {(a, b) for a in (0, 1) for b in (2, 3, 4)}
    npt.assert_allclose(np.diag(F.T @ F), np.diag(X), rtol=1e-15)


def test_the_clique_start_of_a_path_is_its_exact_factorization():
    # the path 0 - 1 - 2 has the cliques {0, 1} and {1, 2}; vertex 1 lies on
    # both, so each row holds sqrt(2 / 2) = 1 there
    X = np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]])
    F = clique_start(X, 1e-6)
    assert sorted(map(tuple, F)) == [(0.0, 1.0, 1.0), (1.0, 1.0, 0.0)]
    npt.assert_array_equal(F.T @ F, X)


def test_a_dense_matrix_gives_one_clique_row_that_the_chain_never_polishes(monkeypatch):
    # a rank-2 CP matrix with no zero entry: its graph is complete, so the
    # clique start is a single row, and by Eckart-Young no single row fits
    # a floor of 2.  With every polish made to miss, the chain goes from the
    # bound-stage polish of the 2 rotated rows straight to the 3 square-root
    # rows, and then to the 3 edge rows, and returns None
    F = np.array([[1.0, 1.0, 0.1], [0.1, 1.0, 1.0]])
    X = F.T @ F
    tol = FACTOR_TOL * (1.0 + np.linalg.norm(X))
    npt.assert_array_equal(clique_start(X, tol), np.sqrt(np.diag(X))[None, :])
    lam, V = np.linalg.eigh(X)
    least = row_floor(lam, tol)
    calls = _spy_on_polish(monkeypatch, miss=True)
    events = []
    assert _fit(X, lam, V, least, tol, events.append, "dense") is None
    assert least == 2
    assert [rows for rows, _ in calls] == [("bound", 2), 3, 3]
    assert events[1] == "dense: the clique start's row count 1 is below the floor of 2; skipped"
    assert [e.split(" (")[0] for e in events[2:]] == [
        "dense: the square-root start misses",
        "dense: the edge start misses",
    ]


def test_the_edge_start_of_a_dominant_matrix_is_its_factorization():
    # a nonnegative diagonally dominant matrix: one row per positive
    # off-diagonal entry and one per positive diagonal surplus (only vertex
    # 0 has one), an exact factorization
    X = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 2.0], [0.0, 2.0, 2.0]])
    F = edge_start(X, 1e-6)
    assert sorted(map(tuple, F)) == [
        (0.0, np.sqrt(2.0), np.sqrt(2.0)),
        (1.0, 1.0, 0.0),
        (np.sqrt(3.0), 0.0, 0.0),
    ]
    npt.assert_allclose(F.T @ F, X, rtol=1e-15)


def test_the_edge_start_of_a_dense_k23_has_a_row_on_every_pair():
    # K_{2,3} + 1e-3 J has a complete graph, so its 10 pairs each get a row;
    # the diagonal surplus of the vertices 0 to 3 gives 4 more, and vertex 4,
    # whose entries outweigh its diagonal, none.  With 14 of at most
    # n(n+1)/2 = 15 rows, the start leaves room above the order 5
    X = K23 + 1e-3
    F = edge_start(X, 1e-6)
    assert F.shape == (14, 5)
    assert {tuple(np.flatnonzero(row)) for row in F[F.astype(bool).sum(axis=1) == 2]} == {
        (i, j) for i in range(5) for j in range(i + 1, 5)
    }
    off = ~np.eye(5, dtype=bool)
    npt.assert_allclose((F.T @ F)[off], X[off], rtol=1e-14)


def test_from_factors_drops_empty_rows_and_normalizes_atoms():
    F = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 2.0]])
    dec = CpDecomposition.from_factors(F)
    assert dec.rank == 2
    npt.assert_allclose(np.linalg.norm(dec.atoms, axis=1), 1.0)
    npt.assert_allclose(dec.weights, [4.0, 25.0])
    npt.assert_allclose(dec.reconstruct(), F.T @ F)


def test_horn_cuts_are_the_distinct_relabelings():
    assert _HORN_CUTS.shape == (12, 5, 5)
    assert not _HORN_CUTS.flags.writeable
    relabelings = {_HORN[np.ix_(p, p)].tobytes() for p in itertools.permutations(range(5))}
    assert {H.tobytes() for H in _HORN_CUTS} == relabelings
    assert len(relabelings) == 12
    for H in _HORN_CUTS:
        assert np.linalg.norm(H) == 5.0
        npt.assert_array_equal(np.diag(H), 1.0)


def _padded_horn_cuts(n):
    """Every distinct relabeling of _HORN on every 5-subset of range(n),
    embedded in an n x n zero matrix; none below n = 5."""
    perms = {_HORN[np.ix_(p, p)].tobytes(): p for p in itertools.permutations(range(5))}
    cuts = []
    for subset in itertools.combinations(range(n), 5):
        idx = np.array(subset)
        for p in perms.values():
            H = np.zeros((n, n))
            H[np.ix_(idx, idx)] = _HORN[np.ix_(p, p)]
            cuts.append(H)
    return np.array(cuts).reshape(-1, n, n)


@pytest.mark.parametrize("n, count", [(4, 0), (5, 12), (6, 72)])
def test_horn_cuts_are_the_distinct_embedded_relabelings(n, count):
    cuts = _padded_horn_cuts(n)
    assert cuts.shape == (count, n, n)
    assert len({H.tobytes() for H in cuts}) == count
    for H in cuts:
        support = np.flatnonzero(np.abs(H).sum(axis=0))
        assert support.size == 5
        assert np.linalg.norm(H) == 5.0
        npt.assert_array_equal(np.diag(H)[support], 1.0)
    # the padded cuts are exactly the constant's 12 cuts placed on each 5-subset
    embedded = set()
    for subset in itertools.combinations(range(n), 5):
        idx = np.array(subset)
        for C in _HORN_CUTS:
            H = np.zeros((n, n))
            H[np.ix_(idx, idx)] = C
            embedded.add(H.tobytes())
    assert embedded == {H.tobytes() for H in cuts}


def _padded_floor(X, lam):
    """cp_distance_floor evaluated on the padded Horn cuts of _padded_horn_cuts."""
    cuts = _padded_horn_cuts(X.shape[0])
    floors = {
        "entrywise": float(np.linalg.norm(np.minimum(X, 0.0))),
        "eigenvalue": float(np.linalg.norm(np.minimum(lam, 0.0))),
    }
    if cuts.size:
        floors["Horn"] = max(0.0, float(-np.einsum("kij,ij->k", cuts, X).min()) / 5.0)
    gate = max(floors, key=floors.get)
    return floors[gate], gate


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_cp_distance_floor_matches_the_padded_horn_cuts(n):
    # half the draws are a CP matrix plus a relabeled cycle matrix on 5
    # random indices, DNN with the Horn cut setting their floor; the rest are
    # symmetric Gaussian matrices.  Each cut sums its 25 exact products
    # +-X_ij in an order that depends on where they lie in memory, so the
    # two floors agree to 24 roundings of sum |X[S, S]| on each side
    rng = np.random.default_rng(n)
    cycle = 1.8 * np.eye(5) + np.roll(np.eye(5), 1, axis=1) + np.roll(np.eye(5), -1, axis=1)
    horn = 0
    for t in range(60):
        G = rng.standard_normal((n, n))
        if t % 2:
            X = (G + G.T) / 2
        else:
            X = 0.05 * np.abs(G).T @ np.abs(G)
            idx = rng.permutation(n)[: min(n, 5)]
            X[np.ix_(idx, idx)] += 3.0 * cycle[: idx.size, : idx.size]
        lam = np.linalg.eigvalsh(X)
        (floor, gate), (ref, ref_gate) = cp_distance_floor(X, lam), _padded_floor(X, lam)
        assert gate == ref_gate
        assert abs(floor - ref) <= 240 * (np.finfo(float).eps / 2) * np.abs(X).max()
        if n == 5:
            assert floor == ref
        horn += gate == "Horn"
    assert (horn >= 20) == (n >= 5)


def test_the_horn_gate_holds_no_table():
    # at n = 16 the 12 C(16, 5) Horn cuts embedded in 16 x 16 zero matrices
    # take 107 MB; read on the 5 x 5 principal submatrices they need 25 of
    # the entries each, and nothing outlives the call but its result.  A
    # first call at n = 6 leaves numpy's one-time setup out of the trace
    cp_distance_floor(np.eye(6), np.ones(6))
    rng = np.random.default_rng(16)
    B = np.abs(rng.standard_normal((19, 16)))
    X = B.T @ B
    lam = np.linalg.eigvalsh(X)
    tracemalloc.start()
    try:
        result = cp_distance_floor(X, lam)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == (0.0, "entrywise")
    assert peak < 16e6
    assert retained < 1e3


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


@pytest.mark.parametrize("n", [3, 5, 6, 9, 12])
def test_cp_distance_floor_never_exceeds_a_factorization_residual(n):
    rng = np.random.default_rng(n)
    for _ in range(40):
        F = rng.uniform(size=(rng.integers(1, 2 * n), n)) * (rng.uniform(size=(1, n)) > 0.3)
        E = rng.standard_normal((n, n))
        X = F.T @ F + rng.uniform(0.0, 2.0) * (E + E.T)
        bound, _ = cp_distance_floor(X, np.linalg.eigvalsh(X))
        assert bound <= np.linalg.norm(F.T @ F - X) * (1.0 + 1e-12)
