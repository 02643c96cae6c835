"""The closed-form channel of ``verify_channel_pipeline`` against the Kraus list.

``omega_kraus_operators`` applied by ``apply_kraus`` after ``diagonal_twirl``
is the slow reference: it builds 1 + 2d(d-1) dense operators and shares no
arithmetic with the closed form, which reads only the populations and the
correlation block of its input.
"""

import numpy as np
import pytest

from coherence_kit import entanglement
from coherence_kit.config import DEFAULT_TOLERANCES, Tolerances
from coherence_kit.core import ValidationError
from coherence_kit.entanglement import (
    BipartitePureState,
    ChannelConstructionError,
    _omega_after_twirl,
    _omega_weights,
    _pure_twirl_entries,
    _twirl_entries,
    apply_kraus,
    diagonal_twirl,
    omega_kraus_operators,
    verify_channel_pipeline,
)
from coherence_kit.random_states import (
    random_mixed_state,
    random_real_separable,
    random_schmidt_state,
)
from dense_reference import achieving_separable_state

TOL = DEFAULT_TOLERANCES.channel


def closed_form(sigma, matrix, n):
    half, signs = _omega_weights(np.asarray(sigma, dtype=complex), n, TOL)
    return _omega_after_twirl(half, signs, *_twirl_entries(np.asarray(matrix, dtype=complex), n))


def kraus_reference(sigma, matrix, n):
    return apply_kraus(omega_kraus_operators(sigma, n), diagonal_twirl(matrix, n))


def max_correlated_diagonal(p):
    """sum_i p_i |ii><ii|: every pair (i, j), i != j, has zero population."""
    n = p.size
    sigma = np.zeros((n * n, n * n))
    corr = np.arange(n) * (n + 1)
    sigma[corr, corr] = p
    return sigma


def separable_with_empty_levels(n, rng):
    """A real separable state with no weight on some local levels, so every
    pair that touches one of them is degenerate (population zero)."""
    empty = rng.choice(n, size=max(1, n // 3), replace=False)
    sigma = np.zeros((n * n, n * n))
    for w in rng.dirichlet(np.ones(4)):
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        a[empty] = 0.0
        b[empty] = 0.0
        ket = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        sigma += w * np.outer(ket, ket)
    return sigma


def separable_with_negative_pairs(n, rng):
    """Mostly a real product state |a>|b> with a_i b_i < 0 only at i = 0, so
    the pairs (0, j) get negative signs, plus a little random separable noise."""
    a = 0.5 + rng.random(n)
    b = 0.5 + rng.random(n)
    b[0] = -b[0]
    ket = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
    return 0.1 * random_real_separable(n, 3, rng).matrix.real + 0.9 * np.outer(ket, ket)


def sources(n, rng):
    """The channel source states the closed form is compared on."""
    yield "separable", random_real_separable(n, 5, rng).matrix.real
    yield "negative-sign pairs", separable_with_negative_pairs(n, rng)
    yield "diagonal", np.diag(rng.dirichlet(np.ones(n * n)))
    yield "degenerate pairs", separable_with_empty_levels(n, rng)
    yield "achieving state", achieving_separable_state(random_schmidt_state(n, rng)).matrix.real
    yield "max-correlated diagonal", max_correlated_diagonal(rng.dirichlet(np.ones(n)))


class TestAgainstKrausList:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_entrywise_agreement(self, n):
        rng = np.random.default_rng(600 + n)
        for name, sigma in sources(n, rng):
            v = random_schmidt_state(n, rng)
            inputs = (sigma, v.projector(), random_mixed_state(n * n, rng).matrix)
            for matrix in inputs:
                gap = np.abs(closed_form(sigma, matrix, n) - kraus_reference(sigma, matrix, n))
                assert gap.max() <= 1e-12, name

    @pytest.mark.parametrize("n", range(2, 13))
    def test_amplitude_entries_match_the_projector(self, n):
        rng = np.random.default_rng(620 + n)
        sigma = random_real_separable(n, 5, rng).matrix
        half, signs = _omega_weights(sigma, n, TOL)
        for amps in (
            random_schmidt_state(n, rng).amplitudes,
            BipartitePureState(
                rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            ).amplitudes,
        ):
            projector = np.outer(amps.reshape(-1), amps.reshape(-1).conj())
            for got, want in zip(_pure_twirl_entries(amps), _twirl_entries(projector, n)):
                assert np.abs(got - want).max() <= 1e-15
            out = _omega_after_twirl(half, signs, *_pure_twirl_entries(amps))
            assert np.abs(out - kraus_reference(sigma, projector, n)).max() <= 1e-12

    def test_negative_sign_pairs_are_covered(self):
        rng = np.random.default_rng(640)
        for n in range(2, 13):
            sigma = separable_with_negative_pairs(n, rng)
            _, signs = _omega_weights(sigma, n, TOL)
            off = ~np.eye(n, dtype=bool)
            assert (signs[off] < 0).any()
            gap = np.abs(closed_form(sigma, sigma, n) - kraus_reference(sigma, sigma, n))
            assert gap.max() <= 1e-12

    def test_degenerate_pairs_carry_zero_weight(self):
        rng = np.random.default_rng(641)
        for n in range(3, 13):
            sigma = separable_with_empty_levels(n, rng)
            half, _ = _omega_weights(sigma, n, TOL)
            diag = np.diagonal(sigma).reshape(n, n)
            assert np.all(half[diag + diag.T <= TOL] == 0.0)
            check = verify_channel_pipeline(sigma, random_schmidt_state(n, rng))
            assert check.incoherent_ok and check.fixed_point_ok


def error_from(call):
    with pytest.raises(ValidationError) as info:
        call()
    return info.type, str(info.value)


class TestSameErrorsAsKrausList:
    def both(self, sigma, n):
        v = random_schmidt_state(n, np.random.default_rng(650))
        slow = error_from(lambda: omega_kraus_operators(sigma, n))
        fast = error_from(lambda: verify_channel_pipeline(sigma, v))
        return fast, slow

    def test_complex_sigma(self):
        sigma = random_mixed_state(9, np.random.default_rng(651)).matrix
        (kind, message), slow = self.both(sigma, 3)
        assert (kind, message) == slow
        assert kind is ValidationError
        assert message.startswith("channel source state must be real; largest imaginary part")

    def test_non_ppt_sigma(self):
        bell = np.zeros((4, 4))
        bell[np.ix_([0, 3], [0, 3])] = 0.5
        (kind, message), slow = self.both(bell, 2)
        assert (kind, message) == slow
        assert kind is ValidationError
        assert message == "channel source state must have positive partial transpose"

    def test_pair_bound_reports_first_pair_in_row_major_order(self, monkeypatch):
        # A noisy max-correlated state whose core couples 0-2 and 1-2 but not
        # 0-1: entangled, so the PPT gate is patched open to reach the bound.
        monkeypatch.setattr(entanglement, "is_ppt", lambda *args: True)
        core = np.array([[0.3, 0.0, 0.2], [0.0, 0.3, -0.2], [0.2, -0.2, 0.3]])
        sigma = 0.1 * np.eye(9) / 9
        corr = np.arange(3) * 4
        sigma[np.ix_(corr, corr)] += core
        (kind, message), slow = self.both(sigma, 3)
        assert (kind, message) == slow
        assert kind is ChannelConstructionError
        assert message.startswith("entry pair (0,2) violates the PPT bound: |sigma_ij,ij| = ")

    def test_completeness(self, monkeypatch):
        monkeypatch.setattr(entanglement, "DEFAULT_TOLERANCES", Tolerances(kraus=-1.0))
        sigma = random_real_separable(3, 4, np.random.default_rng(652)).matrix
        for kind, message in self.both(sigma, 3):
            assert kind is ChannelConstructionError
            assert message.startswith("Kraus completeness violated by ")

    def test_trace_of_the_image(self, monkeypatch):
        def leaky(*args):
            out = _omega_after_twirl(*args)
            out[0, 0] += 1e-9
            return out

        monkeypatch.setattr(entanglement, "_omega_after_twirl", leaky)
        rng = np.random.default_rng(653)
        sigma = random_real_separable(3, 4, rng)
        with pytest.raises(ChannelConstructionError, match="Kraus completeness violated by 1.000e-09"):
            verify_channel_pipeline(sigma, random_schmidt_state(3, rng))


class TestNoDenseIntermediates:
    def test_pipeline_at_d24_without_kraus_twirl_or_projector(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the closed-form pipeline used the dense reference")

        for name in ("omega_kraus_operators", "apply_kraus", "diagonal_twirl"):
            monkeypatch.setattr(entanglement, name, forbidden)
        monkeypatch.setattr(BipartitePureState, "projector", forbidden)
        rng = np.random.default_rng(660)
        sigma = random_real_separable(24, 6, rng)
        v = random_schmidt_state(24, rng)
        check = verify_channel_pipeline(sigma, v)
        assert check.incoherent_ok and check.fixed_point_ok
        assert check.offdiag_mass >= 0.0
