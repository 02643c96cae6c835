import numpy as np
import pytest

from coherence_kit import (
    DensityMatrix,
    IncoherentState,
    OracleResult,
    PureState,
    ValidationError,
    c_tr_grid,
    c_tr_subgradient,
    c_tr_subgradient_many,
    max_coherence_bound,
    nearest_incoherent,
    simplex_project,
)
from coherence_kit.core import as_density_matrix
from coherence_kit.random_states import (
    random_mixed_state,
    random_pure_state,
    random_simplex_point,
)

QUTRIT = PureState([2 / 3, 2 / 3, 1 / 3])
QUTRIT_CTR = (3 + np.sqrt(17)) / 6


def simplex_project_reference(v) -> np.ndarray:
    """Sort-and-threshold projection of one vector, the threshold read off
    the last active index."""
    x = np.asarray(v, dtype=float)
    u = np.sort(x)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, x.size + 1)
    active = idx[u + (1.0 - css) / idx > 0.0]
    rho = int(active[-1])
    theta = (1.0 - css[rho - 1]) / rho
    return np.maximum(x + theta, 0.0)


def subgradient_reference(
    rho, max_iters=10000, step_scale=0.04, tol=1e-12, stall_window=100
) -> OracleResult:
    """The slow reference for ``c_tr_subgradient_many``: one state at a time,
    one eigh, one projection and one Python step per iteration."""
    a = as_density_matrix(rho).matrix

    def evaluate(delta):
        w, u = np.linalg.eigh(a - np.diag(delta))
        return float(np.abs(w).sum()), -((u.real**2 + u.imag**2) @ np.sign(w))

    delta = simplex_project_reference(np.real(np.diag(a)))
    value, grad = evaluate(delta)
    best_value = value
    best_delta = delta.copy()
    best_history = [best_value]
    scale = step_scale * (value if value > 0.0 else 1.0)
    converged = False
    iterations = 0
    for t in range(1, max_iters + 1):
        iterations = t
        delta = simplex_project_reference(delta - (scale / np.sqrt(t)) * grad)
        value, grad = evaluate(delta)
        if value < best_value:
            best_value = value
            best_delta = delta.copy()
        best_history.append(best_value)
        if t >= stall_window and best_history[-stall_window - 1] - best_value < tol:
            converged = True
            break
    return OracleResult(best_value, IncoherentState(best_delta), iterations, converged)


def assert_same_runs(results, references):
    """Bit-for-bit equality: value, argmin, iteration count and flag."""
    assert len(results) == len(references)
    for got, want in zip(results, references):
        assert got.value == want.value
        assert np.array_equal(got.argmin.diag, want.argmin.diag)
        assert got.iterations == want.iterations
        assert got.converged is want.converged


class TestSimplexProject:
    def test_feasible_point_fixed(self):
        assert np.allclose(simplex_project([0.2, 0.8]), [0.2, 0.8])

    def test_vertex(self):
        assert np.allclose(simplex_project([2.0, 0.0]), [1.0, 0.0])

    def test_symmetric_split(self):
        assert np.allclose(simplex_project([0.6, 0.6]), [0.5, 0.5])

    def test_rows_match_the_one_vector_reference(self):
        rng = np.random.default_rng(56)
        for n in (1, 2, 3, 7, 16):
            rows = rng.standard_normal((9, n)) * rng.choice([0.01, 1.0, 50.0], size=(9, 1))
            rows[0] = 1.0 / n  # already feasible
            rows[1] = 0.0  # all tied
            rows[2, 0] = rows[2, -1]  # a tie with the last entry
            want = np.stack([simplex_project_reference(row) for row in rows])
            assert np.array_equal(simplex_project(rows), want)
            for row, expected in zip(rows, want):
                assert np.array_equal(simplex_project(row), expected)

    def test_rejects_bad_input(self):
        for bad in ([], [[]], [np.nan, 1.0], [[0.5, np.inf]], np.zeros((2, 2, 2))):
            with pytest.raises(ValidationError, match="projection input"):
                simplex_project(bad)

    def test_projection_optimality(self):
        # Variational inequality: (v - p) . (z - p) <= 0 for feasible z.
        rng = np.random.default_rng(51)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            v = rng.standard_normal(n) * 2
            p = simplex_project(v)
            assert abs(float(np.sum(p)) - 1.0) <= 1e-12
            assert p.min() >= 0.0
            for _ in range(5):
                z = random_simplex_point(n, rng)
                assert float((v - p) @ (z - p)) <= 1e-10


def _objective(rho, delta):
    return float(np.abs(np.linalg.eigvalsh(rho - np.diag(delta))).sum())


class TestSubgradient:
    def test_incoherent_input(self):
        result = c_tr_subgradient(DensityMatrix(np.diag([0.3, 0.7])))
        assert result.value <= 1e-12
        assert np.allclose(result.argmin.diag, [0.3, 0.7])

    def test_qutrit_reference_state(self):
        result = c_tr_subgradient(QUTRIT.density(), max_iters=4000, tol=0.0)
        assert result.value == pytest.approx(QUTRIT_CTR, abs=1e-4)

    def test_maximally_coherent_qutrit(self):
        x = PureState(np.full(3, 1 / np.sqrt(3)))
        result = c_tr_subgradient(x.density(), max_iters=4000, tol=0.0)
        assert result.value == pytest.approx(4 / 3, abs=1e-4)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(52)
        states = [random_pure_state(int(rng.integers(2, 9)), rng) for _ in range(20)]
        results = c_tr_subgradient_many([x.density() for x in states], max_iters=6000, tol=0.0)
        for x, result in zip(states, results):
            assert result.value == pytest.approx(nearest_incoherent(x).c_tr, abs=1e-4)

    def test_mixed_states_respect_coherence_bound(self):
        rng = np.random.default_rng(53)
        states = [random_mixed_state(int(rng.integers(2, 7)), rng) for _ in range(20)]
        results = c_tr_subgradient_many(states, max_iters=2000, tol=0.0)
        for rho, result in zip(states, results):
            assert result.value <= max_coherence_bound(rho.dim) + 1e-4

    def test_objective_is_convex_along_segments(self):
        rng = np.random.default_rng(54)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            rho = random_mixed_state(n, rng).matrix
            d1 = random_simplex_point(n, rng)
            d2 = random_simplex_point(n, rng)
            mid = _objective(rho, (d1 + d2) / 2)
            assert mid <= (_objective(rho, d1) + _objective(rho, d2)) / 2 + 1e-10

    def test_stall_detection_reports_convergence(self):
        result = c_tr_subgradient(DensityMatrix(np.diag([0.5, 0.5])), tol=1e-9)
        assert result.converged
        assert result.iterations < 10000


class TestBatchedSubgradient:
    """Every row of ``c_tr_subgradient_many`` equals ``subgradient_reference``
    on that state alone, bit for bit."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_random_stacks(self, n):
        rng = np.random.default_rng(600 + n)
        states = [random_mixed_state(n, rng) for _ in range(3)]
        results = c_tr_subgradient_many(states, max_iters=150, step_scale=0.02)
        assert_same_runs(results, [subgradient_reference(s, 150, 0.02) for s in states])

    def test_rows_stop_at_different_iterations(self):
        rng = np.random.default_rng(61)
        states = [
            random_mixed_state(5, rng),
            DensityMatrix(np.diag([0.1, 0.2, 0.3, 0.15, 0.25])),  # incoherent: stalls first
            random_pure_state(5, rng).density(),
            random_mixed_state(5, rng),
            DensityMatrix(np.eye(5) / 5),
            random_mixed_state(5, rng),
        ]
        options = {"max_iters": 1500, "step_scale": 0.04, "tol": 1e-7, "stall_window": 40}
        results = c_tr_subgradient_many(states, **options)
        assert_same_runs(results, [subgradient_reference(s, **options) for s in states])
        assert len({r.iterations for r in results}) >= 4
        assert results[1].converged and results[1].iterations == 40
        assert any(not r.converged for r in results)

    @pytest.mark.parametrize(
        "options",
        [
            {"max_iters": 0},
            {"max_iters": 0, "tol": 0.0},
            {"max_iters": 200, "tol": 0.0},
            {"max_iters": 60, "stall_window": 0},
            {"max_iters": 300, "tol": 1e-3, "stall_window": 5},
        ],
    )
    def test_budget_and_tolerance_edges(self, options):
        rng = np.random.default_rng(62)
        states = [random_mixed_state(4, rng) for _ in range(3)] + [DensityMatrix(np.eye(4) / 4)]
        results = c_tr_subgradient_many(states, **options)
        assert_same_runs(results, [subgradient_reference(s, **options) for s in states])
        if options["max_iters"] == 0:
            assert all(r.iterations == 0 and not r.converged for r in results)

    def test_batch_of_one(self):
        rho = random_mixed_state(16, np.random.default_rng(63))
        want = subgradient_reference(rho, max_iters=400, tol=0.0)
        assert_same_runs([c_tr_subgradient(rho, max_iters=400, tol=0.0)], [want])
        assert_same_runs(c_tr_subgradient_many([rho], max_iters=400, tol=0.0), [want])

    def test_mixed_dimensions_out_of_order(self):
        rng = np.random.default_rng(64)
        dims = (5, 2, 8, 5, 3, 2, 8, 1, 5)
        states = [random_mixed_state(n, rng) for n in dims]
        states[4] = random_pure_state(3, rng)  # taken as its density matrix
        results = c_tr_subgradient_many(states, max_iters=400, step_scale=0.03, tol=1e-9)
        want = [subgradient_reference(s, 400, 0.03, 1e-9) for s in states]
        assert_same_runs(results, want)
        assert [r.argmin.dim for r in results] == list(dims)

    def test_one_eigh_per_iteration_per_dimension(self, monkeypatch):
        rng = np.random.default_rng(65)
        states = [random_mixed_state(n, rng) for n in (3, 4, 3, 3, 4, 3)]
        shapes = []
        eigh = np.linalg.eigh

        def counted(matrix):
            shapes.append(matrix.shape)
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        c_tr_subgradient_many(states, max_iters=50, tol=0.0)
        assert shapes == [(4, 3, 3)] * 51 + [(2, 4, 4)] * 51

    def test_no_states(self):
        assert c_tr_subgradient_many([]) == []

    def test_invalid_state_and_window_are_rejected(self):
        with pytest.raises(ValidationError):
            c_tr_subgradient_many([np.eye(2) / 2, np.eye(2)])
        with pytest.raises(ValidationError, match="stall_window"):
            c_tr_subgradient_many([np.eye(2) / 2], stall_window=-1)


class TestGrid:
    def test_uniform_qubit(self):
        plus = PureState([1 / np.sqrt(2), 1 / np.sqrt(2)])
        result = c_tr_grid(plus.density(), resolution=1000)
        assert result.value == pytest.approx(1.0, abs=2e-3)

    def test_incoherent_vertex(self):
        result = c_tr_grid(DensityMatrix(np.diag([1.0, 0.0])), resolution=50)
        assert result.value == 0.0
        assert np.allclose(result.argmin.diag, [1.0, 0.0])

    def test_qutrit_reference_state(self):
        result = c_tr_grid(QUTRIT.density(), resolution=300)
        assert result.value == pytest.approx(QUTRIT_CTR, abs=7e-3)
        assert np.abs(result.argmin.diag - np.array([0.5, 0.5, 0.0])).max() <= 2e-2

    def test_never_beats_closed_form(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            x = random_pure_state(3, rng)
            result = c_tr_grid(x.density(), resolution=60)
            assert result.value >= nearest_incoherent(x).c_tr - 1e-12

    def test_dimension_guard(self):
        with pytest.raises(ValidationError, match="n <= 4"):
            c_tr_grid(DensityMatrix(np.eye(5) / 5), resolution=10)

    def test_dimension_guard_reads_n_before_densifying(self, monkeypatch):
        def projector(self):
            raise AssertionError("the grid oracle built the projector")

        monkeypatch.setattr(PureState, "projector", projector)
        with pytest.raises(ValidationError, match="got n = 5"):
            c_tr_grid(PureState(np.ones(5)), resolution=10)

    def test_resolution_guard(self):
        with pytest.raises(ValidationError, match="resolution"):
            c_tr_grid(DensityMatrix(np.eye(2) / 2), resolution=0)

    def test_lattice_count(self):
        result = c_tr_grid(DensityMatrix(np.eye(2) / 2), resolution=10)
        assert result.iterations == 11

    def test_ties_break_lexicographically(self):
        # With an odd resolution the two lattice points flanking (1/2, 1/2)
        # tie; the first in ascending lexicographic order wins.
        result = c_tr_grid(DensityMatrix(np.eye(2) / 2), resolution=3)
        assert np.allclose(result.argmin.diag, [1 / 3, 2 / 3])
