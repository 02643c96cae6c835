"""Closed-form pure-state measures and certificate against dense n x n oracles.

The dense side lives only in this module: it forms |x><x| (through
``PureState.density`` and ``PureState.projector``) and diagonalizes it, the way
the library computed these quantities before the closed forms.  Tolerances,
fixed independently of the implementation: 1e-12 relative for C_l1 and
robustness, 1e-12 absolute for C_r and the certificate margin, an identical
``optimal`` flag and an identical exception type.
"""

import numpy as np
import pytest

from coherence_kit import (
    IncoherentInputError,
    IncoherentState,
    InconclusiveCertificateError,
    PureState,
    c_l1,
    c_rel_entropy,
    c_robustness_pure,
    canonicalize,
    check_l1_vs_relent,
    nearest_incoherent,
    verify_pure_optimality,
)
from coherence_kit.random_states import random_pure_state

REL = 1e-12
ABS = 1e-12
CERT_TOL = 1e-10


def dense_certificate(x: PureState, d: np.ndarray, tol: float = CERT_TOL):
    """(optimal, margin) from the full eigendecomposition of |x><x| - D.

    Raises the same exception types as ``verify_pure_optimality`` under the
    dense criteria: incoherent input, and anything but exactly one eigenvalue
    above ``tol`` with a gap above ``tol``.
    """
    if c_l1(x.density()) < 1e-12:
        raise IncoherentInputError("incoherent input")
    w, u = np.linalg.eigh(x.projector() - np.diag(d))
    if int(np.count_nonzero(w > tol)) != 1 or w[-1] - w[-2] <= tol:
        raise InconclusiveCertificateError("degenerate top eigenvalue")
    v_sq = np.abs(u[:, -1]) ** 2
    margin = float(d @ v_sq - v_sq.max())
    return margin >= -tol, margin


def outcome(call):
    try:
        return call()
    except (IncoherentInputError, InconclusiveCertificateError) as exc:
        return type(exc)


def breakpoint_tie_states(head):
    """The two states on either side of the t where (head..., t) changes k.

    There the first excluded modulus x_{k+1} equals the threshold q_k to the
    last ulp, so the certificate margin is zero at more than one index.
    """
    k_head = nearest_incoherent(PureState(head + [0.0])).k
    lo, hi = 0.0, min(head)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if nearest_incoherent(PureState(head + [mid])).k == k_head:
            lo = mid
        else:
            hi = mid
    return [PureState(head + [lo]), PureState(head + [hi])]


def adversarial_states(rng):
    """Random states plus the families where the closed forms are most fragile."""
    states = []
    for _ in range(120):
        n = int(rng.integers(2, 65))
        states.append(random_pure_state(n, rng))
    for _ in range(40):
        n = int(rng.integers(2, 65))
        amps = random_pure_state(n, rng).amplitudes
        amps[rng.random(n) < 0.4] = 0.0
        amps[int(rng.integers(n))] = 1.0
        states.append(PureState(amps))
    for _ in range(30):
        n = int(rng.integers(2, 65))
        phases = np.exp(2j * np.pi * rng.random(n))
        states.append(PureState(phases * (1.0 + 1e-9 * rng.standard_normal(n))))
    for _ in range(30):
        n = int(rng.integers(3, 65))
        levels = rng.choice([1.0, 2.0, 3.0], size=n)
        states.append(PureState(levels * rng.choice([1.0, -1.0, 1j, -1j], size=n)))
    for head in ([1.0, 1.0], [3.0, 2.0, 2.0], [1.0] * 6):
        states.extend(breakpoint_tie_states(head))
    for n in (2, 3, 17, 64):
        states.append(PureState(np.full(n, 1.0)))
        states.append(PureState(np.eye(n)[0]))
    eps = 1e-11
    states.append(PureState([np.sqrt(1 - eps * eps), eps]))
    return states


STATES = adversarial_states(np.random.default_rng(2024))


def test_family_coverage():
    ks = [nearest_incoherent(x) for x in STATES]
    assert any(r.k == x.dim and x.dim > 2 for r, x in zip(ks, STATES))
    assert any(np.any(x.amplitudes == 0.0) and r.k > 1 for r, x in zip(ks, STATES))
    ties = 0
    for r, x in zip(ks, STATES):
        y = canonicalize(x).moduli
        if 0 < r.k < y.size and abs(y[r.k] - r.q_k) <= 1e-12:
            ties += 1
    assert ties >= 3


@pytest.mark.parametrize("index", range(len(STATES)))
def test_measures_match_dense(index):
    x = STATES[index]
    dense = x.density()
    l1 = c_l1(dense)
    assert abs(c_l1(x) - l1) <= REL * abs(l1)
    assert abs(c_robustness_pure(x) - l1) <= REL * abs(l1)
    assert abs(c_rel_entropy(x) - c_rel_entropy(dense)) <= ABS


def candidates(x: PureState, rng) -> list[np.ndarray]:
    """The closed-form optimum, its mass-shifted neighbour, a random candidate
    and diag(|x|^2)."""
    result = nearest_incoherent(x)
    d = result.nearest.diag
    out = [d]
    if result.k >= 2:
        shifted = d.copy()
        order = np.argsort(shifted)
        shifted[order[-1]] -= 1e-3
        shifted[order[-2]] += 1e-3
        out.append(shifted)
    out.append(rng.dirichlet(np.ones(x.dim)))
    out.append(x.moduli() ** 2)
    return [IncoherentState(c).diag for c in out]


@pytest.mark.parametrize("index", range(len(STATES)))
def test_certificate_matches_dense(index):
    x = STATES[index]
    for d in candidates(x, np.random.default_rng(index)):
        fast = outcome(lambda: verify_pure_optimality(x, d, tol=CERT_TOL))
        slow = outcome(lambda: dense_certificate(x, d))
        if isinstance(slow, type):
            assert fast is slow
            continue
        assert not isinstance(fast, type), fast
        optimal, margin = slow
        assert fast.optimal == optimal
        assert abs(fast.margin - margin) <= ABS


def test_certificate_case_outcomes_are_mixed():
    counts = {"optimal": 0, "refuted": 0, "inconclusive": 0, "incoherent": 0}
    for index, x in enumerate(STATES):
        for d in candidates(x, np.random.default_rng(index)):
            slow = outcome(lambda: dense_certificate(x, d))
            if slow is InconclusiveCertificateError:
                counts["inconclusive"] += 1
            elif slow is IncoherentInputError:
                counts["incoherent"] += 1
            else:
                counts["optimal" if slow[0] else "refuted"] += 1
    assert min(counts.values()) > 0, counts


def test_degenerate_qubit_both_inconclusive():
    eps = 1e-11
    x = PureState([np.sqrt(1 - eps * eps), eps])
    d = np.abs(x.amplitudes) ** 2
    with pytest.raises(InconclusiveCertificateError, match="expected exactly one eigenvalue"):
        verify_pure_optimality(x, d)
    with pytest.raises(InconclusiveCertificateError):
        dense_certificate(x, d)


@pytest.mark.parametrize("eps", [1e-11, 1e-8, 1e-150])
def test_l1_near_basis_state_keeps_relative_accuracy(eps):
    # A total minus the diagonal cancels here: 8e-8 relative error at 1e-11.
    x = PureState([np.sqrt(1 - eps * eps), eps])
    exact = 2 * eps * np.sqrt(1 - eps * eps)
    for value in (c_l1(x), c_l1(x.density()), c_robustness_pure(x)):
        assert abs(value - exact) <= REL * exact


def test_inequality_check_forms_no_dense_matrix(monkeypatch):
    def forbidden(self):
        raise AssertionError("an n x n matrix was formed")

    x = random_pure_state(200_000, np.random.default_rng(7))
    monkeypatch.setattr(PureState, "projector", forbidden)
    monkeypatch.setattr(PureState, "density", forbidden)
    check = check_l1_vs_relent(x)
    assert check.holds
    assert check.c_l1 == c_robustness_pure(x)
    assert check.c_l1 == pytest.approx(float(np.sum(x.moduli())) ** 2 - 1.0, rel=1e-12)
