import numpy as np
import pytest

from coherence_kit import (
    BipartitePureState,
    PureState,
    ValidationError,
    achieving_separable_state,
    apply_kraus,
    c_l1,
    c_rel_entropy,
    check_negativity_bound,
    diagonal_twirl,
    e_r_pure,
    is_ppt,
    max_coherence_bound,
    nearest_incoherent,
    negativity_pure,
    omega_kraus_operators,
    partial_transpose,
    schmidt,
    schmidt_vector,
    trace_norm,
    verify_channel_pipeline,
)
from coherence_kit.random_states import (
    random_bipartite_pure,
    random_mixed_state,
    random_real_separable,
    random_schmidt_state,
)

BELL = BipartitePureState(np.eye(2) / np.sqrt(2))
QUTRIT_COEFFS = np.array([2 / 3, 2 / 3, 1 / 3])
QUTRIT_STATE = BipartitePureState(np.diag(QUTRIT_COEFFS))
QUTRIT_CTR = (3 + np.sqrt(17)) / 6


def product_state(a, b):
    return BipartitePureState(np.outer(a, b))


class TestSchmidt:
    def test_bell(self):
        data = schmidt(BELL)
        assert np.allclose(data.coefficients, [1 / np.sqrt(2)] * 2)

    def test_product(self):
        state = product_state([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        data = schmidt(state)
        assert data.coefficients[0] == pytest.approx(1.0, abs=1e-14)
        assert np.all(data.coefficients[1:] <= 1e-14)

    def test_diagonal_already_schmidt(self):
        data = schmidt(QUTRIT_STATE)
        assert np.allclose(data.coefficients, QUTRIT_COEFFS, atol=1e-14)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(2, 7))
            v = random_bipartite_pure(m, n, rng)
            data = schmidt(v)
            rebuilt = (data.left * data.coefficients) @ data.right.T
            assert np.abs(rebuilt - v.amplitudes).max() <= 1e-10
            assert np.all(np.diff(data.coefficients) <= 0.0)
            for basis in (data.left, data.right):
                gram = basis.conj().T @ basis
                assert np.abs(gram - np.eye(gram.shape[0])).max() <= 1e-10


class TestETrPure:
    def test_bell(self):
        assert nearest_incoherent(schmidt_vector(BELL)).c_tr == pytest.approx(1.0, abs=1e-12)

    def test_qutrit_correlated_state(self):
        e_tr = nearest_incoherent(schmidt_vector(QUTRIT_STATE)).c_tr
        assert e_tr == pytest.approx(QUTRIT_CTR, abs=1e-12)

    def test_product_is_zero(self):
        state = product_state([0.6, 0.8], [1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert nearest_incoherent(schmidt_vector(state)).c_tr <= 1e-12

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(72)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            v = random_bipartite_pure(n, n, rng)
            base = nearest_incoherent(schmidt_vector(v)).c_tr
            u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            w, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            rotated = BipartitePureState(u @ v.amplitudes @ w.T)
            e_tr = nearest_incoherent(schmidt_vector(rotated)).c_tr
            assert e_tr == pytest.approx(base, abs=1e-10)

    def test_bell_attains_qubit_bound(self):
        e_tr = nearest_incoherent(schmidt_vector(BELL)).c_tr
        assert e_tr == pytest.approx(max_coherence_bound(2), abs=1e-12)


class TestAchievingSeparableState:
    def test_bell(self):
        sigma = achieving_separable_state(BELL)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        assert np.abs(sigma.matrix - expected).max() <= 1e-12
        assert trace_norm(BELL.projector() - sigma.matrix) == pytest.approx(1.0, abs=1e-12)

    def test_qutrit_reference_state(self):
        sigma = achieving_separable_state(QUTRIT_STATE)
        diag = np.real(np.diag(sigma.matrix))
        expected = np.zeros(9)
        expected[0] = expected[4] = 0.5
        assert np.abs(diag - expected).max() <= 1e-12
        distance = trace_norm(QUTRIT_STATE.projector() - sigma.matrix)
        assert distance == pytest.approx(QUTRIT_CTR, abs=1e-12)

    def test_product_state(self):
        state = product_state([0.6, 0.8], [0.8, 0.6])
        sigma = achieving_separable_state(state)
        assert np.abs(sigma.matrix - state.projector()).max() <= 1e-12

    def test_random_states_achieve_schmidt_coherence(self):
        rng = np.random.default_rng(73)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            v = random_bipartite_pure(n, n, rng)
            sigma = achieving_separable_state(v)
            expected = nearest_incoherent(schmidt_vector(v)).c_tr
            distance = trace_norm(v.projector() - sigma.matrix)
            assert distance == pytest.approx(expected, abs=1e-10)


class TestNegativityAndRelativeEntropy:
    def test_bell(self):
        assert negativity_pure(BELL) == pytest.approx(0.5, abs=1e-12)
        assert e_r_pure(BELL) == pytest.approx(1.0, abs=1e-12)

    def test_product(self):
        state = product_state([1.0, 0.0], [0.6, 0.8])
        assert negativity_pure(state) <= 1e-12
        assert e_r_pure(state) <= 1e-10

    def test_qutrit_reference_state(self):
        assert negativity_pure(QUTRIT_STATE) == pytest.approx(8 / 9, abs=1e-12)
        expected = -(2 * (4 / 9) * np.log2(4 / 9) + (1 / 9) * np.log2(1 / 9))
        assert e_r_pure(QUTRIT_STATE) == pytest.approx(expected, abs=1e-12)

    def test_negativity_matches_partial_transpose(self):
        # Independent route: N = (||rho^PT||_tr - 1) / 2.
        rng = np.random.default_rng(74)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            v = random_bipartite_pure(n, n, rng)
            pt = partial_transpose(v.projector(), n)
            direct = (trace_norm(pt) - 1.0) / 2.0
            assert negativity_pure(v) == pytest.approx(direct, abs=1e-10)

    def test_coherence_identities(self):
        rng = np.random.default_rng(75)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            v = random_bipartite_pure(n, n, rng)
            lam_density = schmidt_vector(v).density()
            assert negativity_pure(v) == pytest.approx(c_l1(lam_density) / 2, abs=1e-12)
            assert e_r_pure(v) == pytest.approx(c_rel_entropy(lam_density), abs=1e-12)


class TestSchmidtVectorReduction:
    """N = C_l1(lambda)/2, E_r = C_r(lambda) and E_tr = C_tr(lambda) on the Schmidt vector."""

    def test_negativity_near_product_has_no_cancellation(self):
        eps = 1e-11
        state = BipartitePureState(np.diag([np.sqrt(1 - eps * eps), eps]))
        expected = eps * np.sqrt(1 - eps * eps)
        assert abs(negativity_pure(state) - expected) <= 1e-12 * expected

    def test_pure_state_reads_as_maximally_correlated_state(self):
        rng = np.random.default_rng(84)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            x = PureState(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            v = BipartitePureState(np.diag(x.amplitudes))
            for measure in (negativity_pure, e_r_pure):
                assert measure(x) == pytest.approx(measure(v), rel=1e-12, abs=1e-12)
            e_tr_x, e_tr_v = (nearest_incoherent(schmidt_vector(s)).c_tr for s in (x, v))
            assert e_tr_x == pytest.approx(e_tr_v, rel=1e-12, abs=1e-12)
            got, want = check_negativity_bound(x), check_negativity_bound(v)
            for field in ("e_r", "two_n", "old_bound"):
                assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12, abs=1e-12)
            assert (got.holds, got.improves) == (want.holds, want.improves)

    def test_schmidt_vector_of_pure_state_is_identity(self):
        x = PureState([0.6j, -0.8])
        assert schmidt_vector(x) is x


class TestNegativityBound:
    def test_bell_boundary(self):
        check = check_negativity_bound(BELL)
        assert check.holds
        assert check.e_r == pytest.approx(check.two_n, abs=1e-12)
        assert not check.improves

    def test_product(self):
        check = check_negativity_bound(product_state([1.0, 0.0], [1.0, 0.0]))
        assert check.holds
        assert check.two_n <= 1e-12
        assert not check.improves

    def test_near_product_improves(self):
        lam = np.array([0.995, np.sqrt(1 - 0.995**2)])
        state = BipartitePureState(np.diag(lam))
        check = check_negativity_bound(state)
        assert check.improves
        assert negativity_pure(state) < 0.5

    def test_improvement_region_is_below_half(self):
        rng = np.random.default_rng(76)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            v = random_bipartite_pure(n, n, rng)
            check = check_negativity_bound(v)
            assert check.holds
            assert check.improves == (negativity_pure(v) < 0.5)


class TestDiagonalTwirl:
    def test_fixes_schmidt_form_states(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            v = random_schmidt_state(n, rng)
            rho = v.projector()
            assert np.abs(diagonal_twirl(rho, n) - rho).max() <= 1e-14

    def test_fixes_maximally_mixed(self):
        rho = np.eye(9) / 9
        assert np.abs(diagonal_twirl(rho, 3) - rho).max() == 0.0

    def test_idempotent(self):
        rng = np.random.default_rng(78)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            rho = random_mixed_state(n * n, rng).matrix
            once = diagonal_twirl(rho, n)
            twice = diagonal_twirl(once, n)
            assert np.abs(once - twice).max() == 0.0
            assert np.trace(once) == pytest.approx(1.0, abs=1e-12)
            assert np.abs(once - once.conj().T).max() <= 1e-14

    def test_preserves_ppt(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            sigma = random_real_separable(n, 4, rng)
            assert is_ppt(diagonal_twirl(sigma.matrix, n), n, 1e-10)

    def test_matches_monte_carlo_average(self):
        rng = np.random.default_rng(80)
        n = 3
        rho = random_mixed_state(n * n, rng).matrix
        closed = diagonal_twirl(rho, n)
        acc = np.zeros_like(rho)
        samples = 10000
        for _ in range(samples):
            u = np.exp(2j * np.pi * rng.random(n))
            w = np.kron(u, u.conj())
            acc += (rho * np.outer(w, w.conj())).astype(complex)
        acc /= samples
        assert np.abs(acc - closed).max() <= 1e-2


class TestOmegaChannel:
    def test_kraus_count_and_completeness(self):
        rng = np.random.default_rng(81)
        for n in (2, 3, 4):
            sigma = random_real_separable(n, 5, rng)
            ops = omega_kraus_operators(sigma, n)
            assert len(ops) == 1 + 2 * n * (n - 1)
            total = sum(op.T @ op for op in ops)
            assert np.abs(total - np.eye(n * n)).max() <= 1e-12

    def test_projects_schmidt_states_to_coefficient_projector(self):
        rng = np.random.default_rng(82)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            sigma = random_real_separable(n, 4, rng)
            v = random_schmidt_state(n, rng)
            lam = np.real(np.diag(v.amplitudes))
            out = apply_kraus(omega_kraus_operators(sigma, n), v.projector())
            assert np.abs(out - np.outer(lam, lam)).max() <= 1e-12

    def test_twirled_source_becomes_diagonal(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            sigma = random_real_separable(n, 4, rng).matrix
            out = apply_kraus(omega_kraus_operators(sigma, n), diagonal_twirl(sigma, n))
            off = np.abs(out).sum() - np.abs(np.diag(out)).sum()
            assert off <= 1e-12
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_pairs_use_flat_weights(self):
        # A diagonal correlated source has zero populations at (i, j), i != j,
        # so every c_ij = 0 and the channel still completes.
        d = np.array([0.5, 0.3, 0.2])
        sigma = np.zeros((9, 9))
        for i, w in enumerate(d):
            sigma[i * 3 + i, i * 3 + i] = w
        ops = omega_kraus_operators(sigma, 3)
        total = sum(op.T @ op for op in ops)
        assert np.abs(total - np.eye(9)).max() <= 1e-12

    def test_rejects_complex_sigma(self):
        rng = np.random.default_rng(84)
        sigma = random_mixed_state(4, rng).matrix
        if np.abs(sigma.imag).max() <= 1e-10:  # pragma: no cover
            pytest.skip("random state happened to be real")
        with pytest.raises(ValidationError, match="real"):
            omega_kraus_operators(sigma, 2)

    def test_rejects_non_ppt_sigma(self):
        with pytest.raises(ValidationError, match="partial transpose"):
            omega_kraus_operators(BELL.projector(), 2)


class TestVerifyChannelPipeline:
    def test_random_separable_sources(self):
        rng = np.random.default_rng(85)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            sigma = random_real_separable(n, 5, rng)
            v = random_schmidt_state(n, rng)
            check = verify_channel_pipeline(sigma, v)
            assert check.incoherent_ok
            assert check.fixed_point_ok

    def test_diagonal_sigma(self):
        d = np.array([0.25, 0.25, 0.5])
        sigma = np.zeros((9, 9))
        for i, w in enumerate(d):
            sigma[i * 3 + i, i * 3 + i] = w
        v = random_schmidt_state(3, np.random.default_rng(86))
        check = verify_channel_pipeline(sigma, v)
        assert check.incoherent_ok and check.fixed_point_ok

    def test_achieving_state_closes_the_loop(self):
        rng = np.random.default_rng(87)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            v = random_schmidt_state(n, rng)
            sigma = achieving_separable_state(v)
            check = verify_channel_pipeline(sigma, v)
            assert check.incoherent_ok and check.fixed_point_ok

    def test_offdiag_mass_is_never_negative(self):
        # A total minus the diagonal gave -1.1102230246251565e-16 here.
        rng = np.random.default_rng(16)
        sigma = random_real_separable(16, 6, rng)
        v = random_schmidt_state(16, rng)
        check = verify_channel_pipeline(sigma, v)
        assert check.offdiag_mass >= 0.0
        assert check.incoherent_ok and check.fixed_point_ok

    def test_requires_schmidt_form(self):
        rng = np.random.default_rng(88)
        v = random_bipartite_pure(3, 3, rng)
        sigma = random_real_separable(3, 4, rng)
        with pytest.raises(ValidationError, match="Schmidt form"):
            verify_channel_pipeline(sigma, v)

    def test_contraction_chain(self):
        # C_tr(lambda) <= ||Phi(|v><v| - sigma)||_tr <= |||v><v| - sigma||_tr.
        rng = np.random.default_rng(89)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            v = random_schmidt_state(n, rng)
            lam = np.real(np.diag(v.amplitudes))
            sigma = random_real_separable(n, 5, rng).matrix
            ops = omega_kraus_operators(sigma, n)
            diff = v.projector() - sigma
            image = apply_kraus(ops, diagonal_twirl(diff, n))
            full = trace_norm(diff)
            contracted = trace_norm(image)
            assert contracted <= full + 1e-10
            assert nearest_incoherent(PureState(lam)).c_tr <= contracted + 1e-10


def max_correlated(core):
    """The n^2 x n^2 matrix sum_ij core[i,j] |ii><jj|."""
    n = core.shape[0]
    out = np.zeros((n * n, n * n), dtype=complex)
    corr = np.arange(n) * (n + 1)
    out[np.ix_(corr, corr)] = core
    return out


class TestMaxCorrelated:
    def test_diagonal_core_is_admissible_channel_source(self):
        core = np.diag([0.5, 0.25, 0.25])
        sigma = max_correlated(core)
        v = random_schmidt_state(3, np.random.default_rng(90))
        check = verify_channel_pipeline(sigma, v)
        assert check.incoherent_ok and check.fixed_point_ok

    def test_entangled_core_rejected_by_ppt_gate(self):
        core = np.outer(QUTRIT_COEFFS, QUTRIT_COEFFS)
        sigma = max_correlated(core)
        with pytest.raises(ValidationError, match="partial transpose"):
            omega_kraus_operators(sigma, 3)


class TestSchmidtReductionSandwich:
    def test_both_directions(self):
        rng = np.random.default_rng(91)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            v = random_schmidt_state(n, rng)
            lam = PureState(np.real(np.diag(v.amplitudes)))
            target = nearest_incoherent(lam).c_tr
            # Upper direction: the explicit separable state attains C_tr(lambda).
            sigma_star = achieving_separable_state(v)
            attained = trace_norm(v.projector() - sigma_star.matrix)
            assert attained == pytest.approx(target, abs=1e-10)
            # Lower direction: no real separable state can do better.
            sigma = random_real_separable(n, 5, rng)
            assert target <= trace_norm(v.projector() - sigma.matrix) + 1e-10
