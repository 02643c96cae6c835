"""Known accuracy defects of the pure-state closed forms at the incoherent
boundary and at the uniform state (ROADMAP item 3), pinned as strict xfails.

Each reference is exact: a coherent qubit has k = 2 and C_tr = C_l1 = 2|x_1 x_2|,
the uniform state has C_tr = 2 - 2/n, and C_r of a pure state is the Shannon
entropy of |x_j|^2, evaluated here in 50-digit ``decimal``. The gate of item 3 is
1e-14 relative. A fix makes these tests pass, and the strict mark then fails
them, so the fix must remove the marks.
"""

from decimal import Decimal, localcontext

import numpy as np
import pytest

from coherence_kit import PureState, c_rel_entropy, nearest_incoherent

REL = 1e-14
pin = pytest.mark.xfail(strict=True, reason="ROADMAP item 3: cancellation in the closed forms")


def close(value: float, exact: float) -> bool:
    return value == pytest.approx(exact, rel=REL, abs=0.0)


def shannon_bits(eps: str) -> float:
    """H(|x|^2) of x = (1, eps) / ||(1, eps)||, in bits, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        e2 = Decimal(eps) ** 2
        p1, p2 = 1 / (1 + e2), e2 / (1 + e2)
        return float(-(p1 * p1.ln() + p2 * p2.ln()) / Decimal(2).ln())


@pin
def test_a_tiny_amplitude_keeps_c_tr_positive():
    assert close(nearest_incoherent([1.0, 1e-150]).c_tr, 2e-150)


@pin
def test_every_coherent_qubit_has_k_2():
    assert nearest_incoherent([1.0, 1e-10]).k == 2


@pin
def test_c_r_near_a_basis_state():
    assert close(c_rel_entropy(PureState([1.0, 1e-8])), shannon_bits("1e-8"))


@pin
def test_c_tr_of_the_uniform_state():
    assert close(nearest_incoherent(np.ones(1000)).c_tr, 2.0 - 2.0 / 1000)
