import math

import numpy as np
import pytest

from coherence_kit import (
    DensityMatrix,
    IncoherentState,
    NumericalDriftWarning,
    PureState,
    ValidationError,
    c_l1,
    c_rel_entropy,
    c_robustness_pure,
    check_l1_vs_relent,
    f_gap,
    von_neumann_entropy,
)
from coherence_kit.random_states import (
    random_pure_state,
    random_simplex_point,
)

QUTRIT = PureState([2 / 3, 2 / 3, 1 / 3])

# Direct evaluation of -sum |x_i|^2 log2 |x_i|^2 for the qutrit example.
QUTRIT_REL_ENT = -(2 * (4 / 9) * math.log2(4 / 9) + (1 / 9) * math.log2(1 / 9))


class TestCl1:
    def test_incoherent(self):
        assert c_l1(DensityMatrix(np.diag([0.3, 0.7]))) == 0.0

    def test_maximally_coherent(self):
        n = 4
        x = PureState(np.full(n, 1 / np.sqrt(n)))
        assert c_l1(x.density()) == pytest.approx(n - 1, abs=1e-12)

    def test_qutrit_value_both_routes(self):
        by_entries = c_l1(QUTRIT.density())
        moduli = QUTRIT.moduli()
        by_sum = float(np.sum(moduli)) ** 2 - 1.0
        assert by_entries == pytest.approx(16 / 9, abs=1e-12)
        assert by_entries == pytest.approx(by_sum, abs=1e-12)


class TestEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(QUTRIT.density()) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        for n in (2, 3, 8):
            assert von_neumann_entropy(DensityMatrix(np.eye(n) / n)) == pytest.approx(
                math.log2(n), abs=1e-12
            )

    def test_half_half(self):
        assert von_neumann_entropy(
            DensityMatrix(np.diag([0.5, 0.5, 0.0]))
        ) == pytest.approx(1.0, abs=1e-12)

    def test_clipping_warns(self):
        n = 20
        d = np.full(n, -9e-11)
        d[0] = 1.0 + 19 * 9e-11
        rho = DensityMatrix(np.diag(d))
        with pytest.warns(NumericalDriftWarning):
            von_neumann_entropy(rho)


class TestRelativeEntropy:
    def test_maximally_coherent(self):
        for n in (2, 4, 8):
            x = PureState(np.full(n, 1 / np.sqrt(n)))
            assert c_rel_entropy(x.density()) == pytest.approx(math.log2(n), abs=1e-12)

    def test_incoherent_zero(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            rho = IncoherentState(random_simplex_point(n, rng)).density()
            assert c_rel_entropy(rho) <= 1e-12

    def test_qutrit_value(self):
        assert c_rel_entropy(QUTRIT.density()) == pytest.approx(QUTRIT_REL_ENT, abs=1e-12)

    def test_positive_iff_coherent(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            x = random_pure_state(n, rng)
            rho = x.density()
            if c_l1(rho) < 1e-12:
                assert c_rel_entropy(rho) <= 1e-12
            else:
                assert c_rel_entropy(rho) > 1e-12


class TestRobustness:
    def test_equals_l1_on_pure_states(self):
        rng = np.random.default_rng(63)
        for _ in range(20):
            n = int(rng.integers(2, 16))
            x = random_pure_state(n, rng)
            assert c_robustness_pure(x) == pytest.approx(c_l1(x.density()), abs=1e-14)

    def test_qutrit(self):
        assert c_robustness_pure(QUTRIT) == pytest.approx(16 / 9, abs=1e-12)


class TestFGap:
    def test_uniform_values(self):
        assert f_gap(np.full(4, 0.25)) == pytest.approx(1.0, abs=1e-12)
        assert f_gap([0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)
        assert f_gap([1.0]) == pytest.approx(0.0, abs=1e-15)

    def test_uniform_closed_form(self):
        for n in (2, 3, 5, 10):
            assert f_gap(np.full(n, 1 / n)) == pytest.approx(
                n - 1 - math.log2(n), abs=1e-12
            )

    def test_nonnegative_on_random_simplex(self):
        rng = np.random.default_rng(64)
        for _ in range(2000):
            n = int(rng.integers(1, 11))
            assert f_gap(random_simplex_point(n, rng)) >= -1e-12

    def test_validation(self):
        with pytest.raises(ValidationError):
            f_gap([0.5, 0.6])
        with pytest.raises(ValidationError):
            f_gap([-0.1, 1.1])


class TestL1VsRelEnt:
    def test_maximally_coherent_equality(self):
        n = 8
        x = PureState(np.full(n, 1 / np.sqrt(n)))
        check = check_l1_vs_relent(x)
        assert check.holds
        # Both branches of the lower bound meet c_l1 = n - 1 here.
        assert check.c_l1 == pytest.approx(n - 1, abs=1e-12)
        assert check.lower == pytest.approx(n - 1, abs=1e-9)

    def test_basis_state(self):
        check = check_l1_vs_relent([1.0, 0.0, 0.0])
        assert check.holds
        assert check.c_l1 == 0.0
        assert check.lower == 0.0

    def test_qutrit_values(self):
        check = check_l1_vs_relent(QUTRIT)
        assert check.holds
        assert check.c_l1 == pytest.approx(16 / 9, abs=1e-12)
        assert check.c_r == pytest.approx(QUTRIT_REL_ENT, abs=1e-12)
        assert check.lower == pytest.approx(2.0**QUTRIT_REL_ENT - 1.0, abs=1e-12)

    def test_random_states_hold(self):
        rng = np.random.default_rng(65)
        for _ in range(300):
            n = int(rng.integers(2, 65))
            assert check_l1_vs_relent(random_pure_state(n, rng)).holds

    def test_improves_log_bound(self):
        # c_l1 >= c_r > ln(2) c_r whenever the state is coherent.
        rng = np.random.default_rng(66)
        for _ in range(50):
            n = int(rng.integers(2, 16))
            check = check_l1_vs_relent(random_pure_state(n, rng))
            assert check.c_l1 >= check.c_r - 1e-12
            if check.c_r > 0:
                assert check.c_r > math.log(2) * check.c_r
