import numpy as np
import pytest

from coherence_kit import (
    BipartitePureState,
    DensityMatrix,
    DimensionMismatchError,
    IncoherentState,
    PureState,
    ValidationError,
    c_l1,
    hermitian_eig,
    is_ppt,
    nearest_incoherent,
    partial_transpose,
)
from dense_reference import operator_norm, trace_norm

QUTRIT = PureState([2 / 3, 2 / 3, 1 / 3])
QUTRIT_DIFF = QUTRIT.projector() - np.diag([0.5, 0.5, 0.0])


def bell_projector():
    ket = np.zeros(4)
    ket[0] = ket[3] = 1 / np.sqrt(2)
    return np.outer(ket, ket)


class TestStates:
    def test_pure_state_renormalizes(self):
        x = PureState([3.0, 4.0])
        assert np.allclose(x.amplitudes, [0.6, 0.8])
        assert abs(np.linalg.norm(x.amplitudes) - 1.0) < 1e-15

    def test_pure_state_rejects_zero_and_nan(self):
        with pytest.raises(ValidationError):
            PureState([0.0, 0.0])
        with pytest.raises(ValidationError):
            PureState([np.nan, 1.0])

    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityMatrix(np.diag([0.7, 0.7]))

    def test_density_matrix_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.1, 0.5]])
        with pytest.raises(ValidationError, match=r"\(0,1\)"):
            DensityMatrix(m)

    def test_density_matrix_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError, match="eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_incoherent_state_sum_is_exact(self):
        d = IncoherentState(np.full(7, 1.0 / 7.0))
        assert float(np.sum(d.diag)) == 1.0

    def test_incoherent_state_rejects_negative(self):
        with pytest.raises(ValidationError, match="negative"):
            IncoherentState([1.2, -0.2])

    def test_incoherent_state_clips_drift(self):
        d = IncoherentState([1.0 + 5e-13, -5e-13])
        assert d.diag[1] == 0.0


class TestExtremeScaleAmplitudes:
    """Amplitudes whose squares under- or overflow a double normalize like any others."""

    @pytest.mark.parametrize("scale", [1e200, 1e-160, 5e-324])
    def test_pure_state(self, scale):
        x = PureState([scale, scale])
        assert np.abs(x.amplitudes - 1 / np.sqrt(2)).max() <= 2e-16
        assert abs(float(np.sum(x.moduli() ** 2)) - 1.0) <= 4e-16

    @pytest.mark.parametrize("scale", [1e200, 1e-160, 5e-324])
    def test_bipartite_state(self, scale):
        v = BipartitePureState(np.eye(2) * scale)
        assert np.abs(v.amplitudes - np.eye(2) / np.sqrt(2)).max() <= 2e-16

    def test_subnormal_imaginary_parts_give_no_nan(self):
        x = PureState([5e-324j, 5e-324])
        assert np.abs(x.amplitudes - np.array([1j, 1.0]) / np.sqrt(2)).max() <= 2e-16

    @pytest.mark.parametrize("scale", [1e200, 1e-160])
    def test_measures_of_the_uniform_qubit(self, scale):
        x = PureState([scale, scale])
        assert c_l1(x) == pytest.approx(1.0, abs=1e-15)
        result = nearest_incoherent(x)
        assert result.c_tr == pytest.approx(1.0, abs=1e-15)
        assert np.abs(result.nearest.diag - 0.5).max() <= 1e-15

    def test_other_inputs_keep_their_bits(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        for scale in (1e-140, 1.0, 1e150):
            amps = z * scale
            assert np.array_equal(PureState(amps).amplitudes, amps / np.linalg.norm(amps))

    def test_all_zero_still_rejected(self):
        with pytest.raises(ValidationError, match="must not all be zero"):
            PureState([0.0, -0.0])


class TestHermitianEig:
    def test_identity(self):
        dec = hermitian_eig(np.eye(2))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0])

    def test_already_diagonal(self):
        dec = hermitian_eig(np.diag([3.0, -1.0]))
        assert np.allclose(dec.eigenvalues, [3.0, -1.0])
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(2))

    def test_rank_one_projector(self):
        dec = hermitian_eig(QUTRIT.projector())
        assert np.allclose(dec.eigenvalues, [1.0, 0.0, 0.0], atol=1e-12)

    def test_non_hermitian_names_entry_pair(self):
        m = np.eye(3, dtype=complex)
        m[0, 2] = 0.5
        with pytest.raises(ValidationError, match=r"\(0,2\)"):
            hermitian_eig(m)

    def test_random_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(1, 65))
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m = (g + g.conj().T) / 2
            dec = hermitian_eig(m)
            assert np.all(np.diff(dec.eigenvalues) <= 1e-12)
            v = dec.eigenvectors
            assert np.abs((v * dec.eigenvalues) @ v.conj().T - m).max() <= 1e-10
            gram = dec.eigenvectors.conj().T @ dec.eigenvectors
            assert np.abs(gram - np.eye(n)).max() <= 1e-10


class TestNorms:
    def test_trace_norm_zero(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_trace_norm_diagonal(self):
        assert trace_norm(np.diag([0.5, -0.5])) == pytest.approx(1.0, abs=1e-14)

    def test_trace_norm_qutrit_difference(self):
        expected = (3 + np.sqrt(17)) / 6
        assert trace_norm(QUTRIT_DIFF) == pytest.approx(expected, abs=1e-12)

    def test_operator_norm_identity(self):
        assert operator_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-14)

    def test_operator_norm_diagonal(self):
        assert operator_norm(np.diag([0.5, -0.5])) == pytest.approx(0.5, abs=1e-14)

    def test_operator_norm_qutrit_difference(self):
        # Independent route: largest |eigenvalue| straight from the solver.
        eigs = hermitian_eig(QUTRIT_DIFF).eigenvalues
        direct = float(np.abs(eigs).max())
        assert direct == pytest.approx((3 + np.sqrt(17)) / 12, abs=1e-12)
        assert operator_norm(QUTRIT_DIFF) == pytest.approx(direct, abs=1e-14)

    def test_trace_dominates_operator_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m = (g + g.conj().T) / 2
            assert trace_norm(m) >= operator_norm(m) - 1e-12

    def test_rank_one_equality(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            m = np.outer(v, v.conj())
            assert trace_norm(m) == pytest.approx(operator_norm(m), abs=1e-10)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 16))
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m = (g + g.conj().T) / 2
            phases = np.exp(2j * np.pi * rng.random(n))
            perm = rng.permutation(n)
            u = np.diag(phases)[:, perm]
            conj = u @ m @ u.conj().T
            assert trace_norm(conj) == pytest.approx(trace_norm(m), abs=1e-10)
            assert operator_norm(conj) == pytest.approx(operator_norm(m), abs=1e-10)


class TestPartialTranspose:
    def test_product_state_invariant(self):
        ket = np.kron([1.0, 0.0], [1.0, 0.0])
        rho = np.outer(ket, ket)
        assert np.array_equal(partial_transpose(rho, 2), rho)

    def test_bell_minimum_eigenvalue(self):
        pt = partial_transpose(bell_projector(), 2)
        eigs = np.linalg.eigvalsh(pt)
        assert eigs[0] == pytest.approx(-0.5, abs=1e-12)

    def test_diagonal_correlated_invariant(self):
        d = np.array([0.2, 0.3, 0.5])
        rho = np.zeros((9, 9))
        for i, w in enumerate(d):
            rho[i * 3 + i, i * 3 + i] = w
        assert np.array_equal(partial_transpose(rho, 3), rho)

    def test_involution_exact(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        m = (g + g.conj().T) / 2
        assert np.array_equal(partial_transpose(partial_transpose(m, 3), 3), m)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_transpose(np.eye(6), 2)


class TestIsPpt:
    def test_separable_mixture(self):
        rng = np.random.default_rng(7)
        n = 3
        sigma = np.zeros((9, 9), dtype=complex)
        for _ in range(5):
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            a /= np.linalg.norm(a)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            b /= np.linalg.norm(b)
            ket = np.kron(a, b)
            sigma += 0.2 * np.outer(ket, ket.conj())
        assert is_ppt(sigma, 3)

    def test_bell_is_not_ppt(self):
        assert not is_ppt(bell_projector(), 2)

    def test_maximally_mixed(self):
        assert is_ppt(np.eye(9) / 9, 3)
