import numpy as np
import pytest

from coherence_kit import (
    DensityMatrix,
    IncoherentInputError,
    IncoherentState,
    InconclusiveCertificateError,
    NonInvertibleDifferenceError,
    PureState,
    c_tr_grid,
    canonicalize,
    nearest_incoherent,
    trace_norm,
    verify_mixed_invertible,
    verify_pure_optimality,
)
from coherence_kit.random_states import random_pure_state

QUTRIT = PureState([2 / 3, 2 / 3, 1 / 3])


class TestPureCertificate:
    def test_qutrit_optimal_candidate(self):
        result = verify_pure_optimality(QUTRIT, [0.5, 0.5, 0.0])
        assert result.optimal
        assert result.margin >= -1e-10

    def test_qutrit_suboptimal_candidate(self):
        result = verify_pure_optimality(QUTRIT, [1.0, 0.0, 0.0])
        assert not result.optimal
        assert result.margin < -1e-10
        # Independent confirmation that diag(1,0,0) really is worse.
        suboptimal = trace_norm(QUTRIT.projector() - np.diag([1.0, 0.0, 0.0]))
        optimum = c_tr_grid(QUTRIT.density(), resolution=400).value
        assert suboptimal > optimum + 1e-2

    def test_uniform_qubit_zero_margin(self):
        result = verify_pure_optimality(
            [1 / np.sqrt(2), 1 / np.sqrt(2)], [0.5, 0.5]
        )
        assert result.optimal
        assert abs(result.margin) <= 1e-12

    def test_incoherent_input_rejected(self):
        with pytest.raises(IncoherentInputError):
            verify_pure_optimality([1.0, 0.0], [1.0, 0.0])

    def test_degenerate_spectrum_inconclusive(self):
        eps = 1e-11
        x = PureState([np.sqrt(1 - eps * eps), eps])
        with pytest.raises(InconclusiveCertificateError):
            verify_pure_optimality(x, np.abs(x.amplitudes) ** 2)

    def test_closed_form_output_always_passes(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            n = int(rng.integers(2, 65))
            x = random_pure_state(n, rng)
            result = nearest_incoherent(x)
            cert = verify_pure_optimality(x, result.nearest)
            assert cert.optimal
            assert cert.margin >= -1e-10

    def test_mass_shift_perturbation_fails(self):
        rng = np.random.default_rng(42)
        failures = 0
        total = 0
        for _ in range(200):
            n = int(rng.integers(3, 24))
            x = random_pure_state(n, rng)
            result = nearest_incoherent(x)
            if result.k < 2:
                continue
            d = result.nearest.diag.copy()
            hi = int(np.argmax(d))
            lo = int(np.argsort(d)[-2])
            d[hi] -= 1e-3
            d[lo] += 1e-3
            total += 1
            cert = verify_pure_optimality(x, IncoherentState(d))
            if not cert.optimal:
                failures += 1
        assert total > 150
        assert failures == total

    def test_margin_two_evaluations_agree(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            n = int(rng.integers(2, 16))
            x = random_pure_state(n, rng)
            result = nearest_incoherent(x)
            diff = x.projector() - np.diag(result.nearest.diag)
            w, u = np.linalg.eigh(diff)
            v_sq = np.abs(u[:, -1]) ** 2
            d = result.nearest.diag
            # Extreme perturbations F_i = d - e_i, one per index.
            direct = min(float(v_sq @ (d - e_i)) for e_i in np.eye(d.size))
            formula = float(d @ v_sq - v_sq.max())
            assert abs(direct - formula) <= 1e-14

    def test_margin_tail_formula_reduction(self):
        # For the closed-form optimum, <v|F|v> with the unnormalized canonical
        # eigenvector reduces to sum_{j>k} f_j (x_j^2 - q_k^2) for any
        # traceless feasible diagonal F, and is non-negative at extreme points.
        rng = np.random.default_rng(44)
        for _ in range(50):
            n = int(rng.integers(2, 16))
            x = random_pure_state(n, rng)
            result = nearest_incoherent(x)
            canon = canonicalize(x)
            y = canon.moduli
            v = np.abs(result.eigenvector)[canon.permutation]
            k, q_k = result.k, result.q_k
            d = result.nearest.diag[canon.permutation]
            for f in d - np.eye(d.size):
                direct = float(f @ (v * v))
                reduced = float(f[k:] @ (y[k:] ** 2 - q_k**2))
                assert abs(direct - reduced) <= 1e-12
                assert direct >= -1e-12


class TestMixedCertificate:
    def test_qubit_certified(self):
        rho = PureState([0.8, 0.6]).density()
        result = verify_mixed_invertible(rho, [0.64, 0.36])
        assert result.certified
        assert result.margin >= -1e-10

    def test_zero_difference_rejected(self):
        with pytest.raises(NonInvertibleDifferenceError):
            verify_mixed_invertible(
                DensityMatrix(np.eye(2) / 2), [0.5, 0.5]
            )

    def test_wrong_candidate_for_incoherent_state(self):
        result = verify_mixed_invertible(
            DensityMatrix(np.diag([0.7, 0.3])), [0.6, 0.4]
        )
        assert not result.certified

    def test_qutrit_reference_state_difference_is_invertible_and_certified(self):
        # n = 3, k = 2: the difference has rank k + 1 = n, so the forced
        # witness exists and certifies the closed-form optimum.
        result = nearest_incoherent(QUTRIT)
        cert = verify_mixed_invertible(QUTRIT.density(), result.nearest)
        assert cert.certified

    def test_rank_deficient_difference_rejected(self):
        # A zero amplitude leaves a zero row in |x><x| - D, so the difference
        # is singular and the invertible-case certificate must refuse it.
        x = PureState([2 / 3, 2 / 3, 1 / 3, 0.0])
        result = nearest_incoherent(x)
        with pytest.raises(NonInvertibleDifferenceError):
            verify_mixed_invertible(x.density(), result.nearest)

    def test_agrees_with_pure_certificate_on_qubits(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            x = random_pure_state(2, rng)
            result = nearest_incoherent(x)
            mixed = verify_mixed_invertible(x.density(), result.nearest)
            assert mixed.certified
