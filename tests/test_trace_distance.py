import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherence_kit import (
    IncoherentState,
    PureState,
    ValidationError,
    canonicalize,
    breakpoint_shortcuts,
    find_k,
    max_coherence_bound,
    nearest_incoherent,
    prefix_stats,
)
from coherence_kit.random_states import random_pure_state
from coherence_kit.trace_distance import _top_k
from dense_reference import operator_norm, trace_norm

QUTRIT = [2 / 3, 2 / 3, 1 / 3]
QUTRIT_CTR = (3 + np.sqrt(17)) / 6


class TestCanonicalize:
    def test_sign_absorption(self):
        form = canonicalize([1 / np.sqrt(2), -1 / np.sqrt(2)])
        assert np.allclose(form.moduli, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_modulus_sort_with_phase(self):
        form = canonicalize([1j / 3, 2 / 3, 2 / 3])
        assert np.allclose(form.moduli, [2 / 3, 2 / 3, 1 / 3])
        assert list(form.permutation) == [1, 2, 0]

    def test_sorted_input_identity(self):
        form = canonicalize([0.8, 0.6])
        assert list(form.permutation) == [0, 1]

    def test_round_trip_random(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            x = random_pure_state(n, rng)
            form = canonicalize(x)
            moduli = np.empty(n)
            moduli[form.permutation] = form.moduli
            assert np.array_equal(moduli, np.abs(x.amplitudes))
            assert np.all(np.diff(form.moduli) <= 0.0)

    def test_stable_ties(self):
        # Equal moduli keep their original relative order.
        form = canonicalize([0.5, 0.5, 0.5, 0.5])
        assert list(form.permutation) == [0, 1, 2, 3]


class TestPrefixStats:
    def test_qutrit_q_values(self):
        stats = prefix_stats(QUTRIT)
        assert stats.q[0] == pytest.approx((3 * np.sqrt(5) - 5) / 6, abs=1e-12)
        assert stats.q[1] == pytest.approx((3 * np.sqrt(17) + 5) / 48, abs=1e-12)
        assert stats.q[2] == pytest.approx(16 / 45, abs=1e-12)

    def test_basis_state(self):
        stats = prefix_stats([1.0, 0.0])
        assert stats.q[0] == 0.0
        assert stats.m[0] == 0.0
        assert stats.p[0] == 0.0

    def test_qubit_formula(self):
        # q_2 = x1 x2 / (x1 + x2) for a qubit.
        stats = prefix_stats([1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert stats.q[1] == pytest.approx(1 / (2 * np.sqrt(2)), abs=1e-14)
        stats = prefix_stats([0.8, 0.6])
        assert stats.q[1] == pytest.approx(0.48 / 1.4, abs=1e-14)

    def test_invariants_random(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            n = int(rng.integers(1, 50))
            x = np.sort(random_pure_state(n, rng).moduli())[::-1]
            stats = prefix_stats(x)
            support = x > 0
            assert np.all(np.diff(stats.s)[support[1:]] > 0.0)
            assert np.all(np.diff(stats.m) <= 1e-15)
            assert stats.m[-1] == 0.0
            # p_n reduces to s_n^2 - 1 because m_n = 0
            assert stats.p[-1] == pytest.approx(stats.s[-1] ** 2 - 1.0, abs=1e-12)
            assert np.all(stats.q >= -1e-15)

    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError, match="descending"):
            prefix_stats([0.6, 0.8])

    def test_rejects_non_unit(self):
        with pytest.raises(ValidationError, match="unit"):
            prefix_stats([0.9, 0.1])

    @pytest.mark.parametrize(
        "moduli", [[np.nan], [np.nan, np.nan], [np.inf], [1.0, np.nan], [np.inf, 0.0], [-np.inf]]
    )
    def test_rejects_non_finite(self, moduli):
        # NaN slips through every comparison, so the sort and norm checks
        # alone would let it reach the statistics.
        for check in (prefix_stats, breakpoint_shortcuts):
            with pytest.raises(ValidationError, match="moduli must be finite"):
                check(moduli)


class TestFindK:
    def test_qutrit(self):
        assert find_k(QUTRIT) == 2

    def test_uniform_qubit(self):
        assert find_k([1 / np.sqrt(2), 1 / np.sqrt(2)]) == 2

    def test_basis_state(self):
        assert find_k([1.0, 0.0, 0.0]) == 1

    def test_predicate_holds_on_exact_prefix(self):
        # x_l > q_l holds for l = 1..k and for no larger l.
        rng = np.random.default_rng(23)
        for _ in range(500):
            n = int(rng.integers(1, 80))
            x = np.sort(random_pure_state(n, rng).moduli())[::-1]
            holds = x > prefix_stats(x).q
            k = find_k(x)
            assert holds[:k].all() and not holds[k:].any()


class TestNearestIncoherent:
    def test_qutrit_reference_state(self):
        res = nearest_incoherent(QUTRIT)
        assert res.k == 2
        assert np.abs(res.nearest.diag - np.array([0.5, 0.5, 0.0])).max() <= 1e-12
        assert res.c_tr == pytest.approx(QUTRIT_CTR, abs=1e-12)
        assert res.mu == pytest.approx(QUTRIT_CTR / 2, abs=1e-12)

    def test_qubit_closed_form(self):
        res = nearest_incoherent([0.8, 0.6])
        assert res.c_tr == pytest.approx(0.96, abs=1e-12)
        assert np.abs(res.nearest.diag - np.array([0.64, 0.36])).max() <= 1e-12

    def test_basis_state(self):
        res = nearest_incoherent([1.0, 0.0, 0.0, 0.0])
        assert res.c_tr == 0.0
        assert np.array_equal(res.nearest.diag, [1.0, 0.0, 0.0, 0.0])

    def test_original_order_restored(self):
        # Scrambled, rephased copy of the qutrit example.
        res = nearest_incoherent([1 / 3, 2j / 3, -2 / 3])
        assert res.c_tr == pytest.approx(QUTRIT_CTR, abs=1e-12)
        assert np.abs(res.nearest.diag - np.array([0.0, 0.5, 0.5])).max() <= 1e-12

    def test_zero_amplitudes_reduce_to_support(self):
        res = nearest_incoherent([0.6, 0.0, 0.8, 0.0])
        assert res.c_tr == pytest.approx(0.96, abs=1e-12)
        assert np.abs(res.nearest.diag - np.array([0.36, 0.0, 0.64, 0.0])).max() <= 1e-12

    def test_eigenpair_residual(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            n = int(rng.integers(2, 24))
            x = random_pure_state(n, rng)
            res = nearest_incoherent(x)
            m = x.projector() - np.diag(res.nearest.diag)
            residual = m @ res.eigenvector - res.mu * res.eigenvector
            assert np.linalg.norm(residual) <= 1e-10
            y = canonicalize(x).moduli
            s_k, m_k = float(np.sum(y[: res.k])), float(y[res.k :] @ y[res.k :])
            assert res.mu == pytest.approx(res.q_k * s_k + m_k, abs=1e-12)

    def test_monotone_breakpoint(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            x = np.sort(random_pure_state(n, rng).moduli())[::-1]
            from coherence_kit import prefix_stats as ps

            stats = ps(x)
            k = find_k(x, stats)
            assert np.all(x[:k] > stats.q[:k])
            if k < n:
                assert x[k] <= stats.q[k - 1]

    def test_norm_identity(self):
        rng = np.random.default_rng(26)
        for _ in range(60):
            n = int(rng.integers(2, 16))
            x = random_pure_state(n, rng)
            res = nearest_incoherent(x)
            diff = x.projector() - np.diag(res.nearest.diag)
            tn = trace_norm(diff)
            on = operator_norm(diff)
            assert tn == pytest.approx(2.0 * on, abs=1e-10)
            assert tn == pytest.approx(res.c_tr, abs=1e-10)

    def test_symmetry_invariance(self):
        rng = np.random.default_rng(27)
        for _ in range(60):
            n = int(rng.integers(2, 24))
            x = random_pure_state(n, rng)
            base = nearest_incoherent(x).c_tr
            perm = rng.permutation(n)
            phases = np.exp(2j * np.pi * rng.random(n))
            y = PureState(x.amplitudes[perm] * phases)
            assert nearest_incoherent(y).c_tr == pytest.approx(base, abs=1e-12)

    def test_weights_positive_and_sum_exact(self):
        rng = np.random.default_rng(28)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            x = random_pure_state(n, rng)
            res = nearest_incoherent(x)
            d = res.nearest.diag[canonicalize(x).permutation]
            assert np.all(d[: res.k] > 0.0)
            assert np.count_nonzero(res.nearest.diag) == res.k
            assert float(np.sum(res.nearest.diag)) == pytest.approx(1.0, abs=1e-14)

    def test_bounded_by_maximal_coherence(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            value = nearest_incoherent(random_pure_state(n, rng)).c_tr
            assert value <= max_coherence_bound(n) + 1e-10


class TestCtrPure:
    def test_maximally_coherent_n4(self):
        x = np.full(4, 0.5)
        assert nearest_incoherent(x).c_tr == pytest.approx(1.5, abs=1e-12)

    def test_uniform_qubit(self):
        result = nearest_incoherent([1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert result.c_tr == pytest.approx(1.0, abs=1e-12)

    def test_basis_state(self):
        assert nearest_incoherent([1.0] + [0.0] * 5).c_tr == 0.0


class TestBreakpointShortcuts:
    def test_qutrit_flags(self):
        # x1 m2 = (2/3)(1/9) = 2/27 < 20/27 = 2 x2 m1, and
        # s3 (s3 - 3 x3) = (5/3)(2/3) = 10/9 > 1: neither shortcut fires.
        flags = breakpoint_shortcuts(QUTRIT)
        assert flags.rank_one is False
        assert flags.full_rank is False
        assert (2 / 3) * (1 / 9) < 2 * (2 / 3) * (5 / 9)
        assert (5 / 3) * (5 / 3 - 1.0) > 1.0

    def test_maximally_coherent_full_rank(self):
        for n in (2, 5, 16):
            flags = breakpoint_shortcuts(np.full(n, 1 / np.sqrt(n)))
            assert flags.full_rank is True

    def test_basis_state_rank_one(self):
        flags = breakpoint_shortcuts([1.0, 0.0, 0.0])
        assert flags.rank_one is True

    def test_agreement_with_find_k(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            n = int(rng.integers(2, 24))
            x = np.sort(random_pure_state(n, rng).moduli())[::-1]
            k = find_k(x)
            flags = breakpoint_shortcuts(x)
            assert flags.rank_one == (k == 1)
            assert flags.full_rank == (k == n)


class TestMaxCoherenceBound:
    def test_values(self):
        assert max_coherence_bound(1) == 0.0
        assert max_coherence_bound(2) == 1.0
        assert max_coherence_bound(3) == pytest.approx(4 / 3, abs=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            max_coherence_bound(0)


# canonicalize's permutation is the stable sort of the negated moduli, on
# vectors rich in ties and zeros, where another sort may order them otherwise.


@st.composite
def tied_amplitudes(draw) -> np.ndarray:
    """Amplitudes whose moduli repeat: runs of a few drawn moduli, zero often
    among them, with phases from {1, -1, i, -i}, in run order or shuffled."""
    moduli = draw(st.lists(st.just(0.0) | st.floats(1e-3, 1e3), min_size=1, max_size=4))
    runs = draw(
        st.lists(st.tuples(st.integers(0, len(moduli) - 1), st.integers(1, 700)), min_size=1, max_size=8)
    )
    x = np.concatenate([np.full(length, moduli[i]) for i, length in runs])
    if not x.any():
        x[0] = 1.0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = rng.permutation(x)
    if draw(st.booleans()):
        # Distinct moduli beside the runs.
        x = np.concatenate([x, rng.random(draw(st.integers(0, 300)))])
    return x * rng.choice(np.array([1, -1, 1j, -1j]), size=x.size)


FUZZ = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@FUZZ
@given(tied_amplitudes())
def test_canonicalize_is_the_stable_sort(amplitudes):
    x = PureState(amplitudes)
    form = canonicalize(x)
    stable = np.argsort(-np.abs(x.amplitudes), kind="stable")
    assert np.array_equal(form.permutation, stable)
    assert np.array_equal(form.moduli, np.abs(x.amplitudes)[stable])


# nearest_incoherent sorts only the values of the moduli and rebuilds the top
# k of the stable order. The reference below is the solver before that change:
# the full stable permutation from canonicalize, scattered at its first k slots.


def stable_order_reference(x):
    """(k, q_k, mu, c_tr, weights, eigenvector) through canonicalize's full order."""
    state = PureState(x)
    canon = canonicalize(state)
    y = canon.moduli
    ys = y[: int(np.count_nonzero(y > 0.0))]
    stats = prefix_stats(ys)
    k = find_k(ys, stats)
    q_k = float(stats.q[k - 1])
    mu = q_k * float(stats.s[k - 1]) + float(stats.m[k - 1])
    top = canon.permutation[:k]
    d = np.zeros(y.size)
    gaps = ys[:k] - q_k
    d[top] = gaps / gaps.sum()
    amps = state.amplitudes
    v = amps.copy()
    v[top] = q_k * (amps[top] / y[:k])
    return k, q_k, mu, 2.0 * mu, IncoherentState(d).diag, v


def assert_same_as_reference(x):
    res = nearest_incoherent(x)
    got = (res.k, res.q_k, res.mu, res.c_tr, res.nearest.diag, res.eigenvector)
    names = ("k", "q_k", "mu", "c_tr", "weights", "eigenvector")
    for name, a, b in zip(names, got, stable_order_reference(x)):
        assert np.array_equal(a, b), name


def split_tie(n: int) -> np.ndarray:
    """n - 1 ones and 2(n-1)/(n-2) in the middle. That entry puts x_2 = q_2 in
    exact arithmetic, and with it x_l = q_l all along the run of ones, so
    rounding ends the support inside the run."""
    x = np.ones(n)
    x[n // 2] = 2 * (n - 1) / (n - 2)
    return x


NAMED = {
    "uniform": np.ones(1000),
    "near-uniform": 1 + 1e-4 * np.random.default_rng(5).normal(size=3000),
    "spike": np.concatenate([[1.0], np.full(999, 1e-12)]),
    "split-tie-5": split_tie(5),
    "split-tie-1000": split_tie(1000) * np.resize([1, -1, 1j, -1j], 1000),
}


@pytest.mark.parametrize("name", NAMED)
def test_nearest_matches_the_stable_order_reference(name):
    assert_same_as_reference(NAMED[name])


@pytest.mark.parametrize("n, k", [(5, 2), (1000, 41)])
def test_split_tie_has_more_tied_entries_than_slots(n, k):
    res = nearest_incoherent(split_tie(n))
    assert res.k == k
    # The big entry and the first k - 1 ones, in index order.
    support = np.flatnonzero(res.nearest.diag).tolist()
    assert support == sorted([n // 2] + [i for i in range(n) if i != n // 2][: k - 1])


@FUZZ
@given(tied_amplitudes())
def test_nearest_matches_the_stable_order_reference_on_ties(amplitudes):
    assert_same_as_reference(amplitudes)


@FUZZ
@given(tied_amplitudes(), st.floats(0.0, 1.0))
def test_top_k_is_the_head_of_the_stable_order(amplitudes, fraction):
    # Any k, so that ties at the k-th modulus are split far more often than
    # the solver's own k splits them.
    x = PureState(amplitudes)
    moduli = np.abs(x.amplitudes)
    k = 1 + int(fraction * (moduli.size - 1))
    threshold = np.sort(moduli)[::-1][k - 1]
    assert np.array_equal(_top_k(moduli, threshold, k), canonicalize(x).permutation[:k])
