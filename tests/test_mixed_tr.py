"""The mixed-state C_tr bracket against exact values and the independent oracles.

``c_tr_mixed_many`` reports [lower_bound, value] with a relative gap of at
most ``GAP_RTOL``. These tests check the bracket against what is known
exactly (qubits, X states, pure densities, diagonal states) and against the
slow paths of ``oracle``: the grid search at n <= 3 and the subgradient
descent. ``ROUNDING`` is the slack between two independent floating-point
evaluations of the same number, not a tolerance of the method.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherence_kit import mixed_tr
from coherence_kit.mixed_tr import GAP_RTOL, c_tr_mixed_many
from coherence_kit.oracle import c_tr_grid, c_tr_subgradient
from coherence_kit.random_states import random_mixed_state, random_pure_state
from coherence_kit.trace_distance import nearest_incoherent

FUZZ = settings(derandomize=True, max_examples=30, deadline=None, database=None)
ROUNDING = 1e-13
seeds = st.integers(0, 2**32 - 1)


def certified(result, max_iters=500) -> None:
    assert result.lower_bound <= result.value
    assert result.value - result.lower_bound <= GAP_RTOL * max(1.0, result.value)
    assert result.converged
    assert 1 <= result.iterations <= max_iters


def trace_norm_at_diagonal(rho) -> float:
    return float(np.abs(np.linalg.eigvalsh(rho - np.diag(np.real(np.diag(rho))))).sum())


def low_rank_state(n: int, rank: int, rng) -> np.ndarray:
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    m = g @ g.conj().T
    return (m + m.conj().T) / 2.0 / np.trace(m).real


def x_state(n: int, rng) -> np.ndarray:
    """Weights on the diagonal and the anti-diagonal only; each 2 x 2 block
    {i, n-1-i} is positive, so the state is."""
    p = rng.random(n) + 0.01
    rho = np.diag(p / p.sum()).astype(complex)
    for i in range(n // 2):
        j = n - 1 - i
        bound = np.sqrt(rho[i, i].real * rho[j, j].real)
        rho[i, j] = bound * rng.random() * np.exp(2j * np.pi * rng.random())
        rho[j, i] = np.conj(rho[i, j])
    return rho


@FUZZ
@given(seed=seeds)
def test_qubit_value_is_twice_the_coherence(seed):
    rho = random_mixed_state(2, np.random.default_rng(seed)).matrix
    (result,) = c_tr_mixed_many([rho])
    exact = 2.0 * abs(rho[0, 1])
    assert result.value == pytest.approx(exact, abs=1e-10)
    assert result.lower_bound <= exact + ROUNDING
    certified(result)


@FUZZ
@given(n=st.integers(2, 8), seed=seeds)
def test_x_state_value_is_the_l1_coherence(n, seed):
    rho = x_state(n, np.random.default_rng(seed))
    (result,) = c_tr_mixed_many([rho])
    l1 = float(np.abs(rho).sum() - np.abs(np.diag(rho)).sum())
    assert result.value == pytest.approx(l1, abs=1e-10)
    assert result.lower_bound <= l1 + ROUNDING
    certified(result)


@FUZZ
@given(n=st.integers(2, 8), seed=seeds)
def test_pure_density_brackets_the_closed_form(n, seed):
    x = random_pure_state(n, np.random.default_rng(seed))
    (result,) = c_tr_mixed_many([x.density()])
    exact = nearest_incoherent(x).c_tr
    assert result.lower_bound <= exact + ROUNDING
    assert exact <= result.value + ROUNDING
    certified(result)


@FUZZ
@given(n=st.integers(2, 3), seed=seeds)
def test_lower_bound_is_at_most_the_grid_value(n, seed):
    rho = random_mixed_state(n, np.random.default_rng(seed)).matrix
    (result,) = c_tr_mixed_many([rho])
    assert result.lower_bound <= c_tr_grid(rho, 40).value
    certified(result)


@settings(derandomize=True, max_examples=15, deadline=None, database=None)
@given(n=st.integers(2, 6), seed=seeds)
def test_value_is_at_most_the_subgradient_value(n, seed):
    rho = random_mixed_state(n, np.random.default_rng(seed)).matrix
    (result,) = c_tr_mixed_many([rho])
    descent = c_tr_subgradient(rho, max_iters=1000, step_scale=0.04, tol=0.0)
    assert result.value <= descent.value + 1e-12
    certified(result)


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 32])
def test_random_states_are_certified_within_500_steps(n):
    states = [random_mixed_state(n, np.random.default_rng(100 + n + i)).matrix for i in range(4)]
    for rho, result in zip(states, c_tr_mixed_many(states, max_iters=500)):
        certified(result)
        assert result.value <= trace_norm_at_diagonal(rho)
        attained = np.abs(np.linalg.eigvalsh(rho - np.diag(result.nearest.diag))).sum()
        assert attained == pytest.approx(result.value, abs=1e-12)


def test_each_state_is_solved_as_if_alone():
    rng = np.random.default_rng(5)
    states = [random_mixed_state(n, rng).matrix for n in (3, 5, 3, 3, 5)]
    batch = c_tr_mixed_many(states, max_iters=500)
    for rho, together in zip(states, batch):
        (alone,) = c_tr_mixed_many([rho], max_iters=500)
        assert alone.value == together.value and alone.lower_bound == together.lower_bound
        assert alone.iterations == together.iterations
        assert np.array_equal(alone.nearest.diag, together.nearest.diag)


def test_diagonal_state_is_incoherent():
    (result,) = c_tr_mixed_many([np.diag([0.5, 0.2, 0.2, 0.1, 0.0])])
    assert result.value <= 1e-9
    certified(result)


def test_zero_row_pushes_its_weight_to_the_boundary():
    rho = np.zeros((5, 5), dtype=complex)
    rho[:4, :4] = low_rank_state(4, 4, np.random.default_rng(8))
    (result,) = c_tr_mixed_many([rho])
    certified(result)
    assert result.nearest.diag[4] <= 1e-6


@pytest.mark.parametrize("rank", [1, 2])
def test_low_rank_states_at_n_16(rank):
    rng = np.random.default_rng(20 + rank)
    states = [low_rank_state(16, rank, rng) for _ in range(2)]
    for rho, result in zip(states, c_tr_mixed_many(states, max_iters=500)):
        certified(result)
        if rank == 1:
            _, vectors = np.linalg.eigh(rho)
            assert result.lower_bound <= nearest_incoherent(vectors[:, -1]).c_tr + ROUNDING


def test_one_dimensional_state():
    (result,) = c_tr_mixed_many([np.array([[1.0]])])
    assert (result.value, result.lower_bound, result.iterations) == (0.0, 0.0, 1)
    assert result.nearest.diag.tolist() == [1.0]
    assert result.converged


def test_budget_zero_reports_the_starting_point():
    rho = random_mixed_state(4, np.random.default_rng(9)).matrix
    (result,) = c_tr_mixed_many([rho], max_iters=0)
    assert result.value == pytest.approx(trace_norm_at_diagonal(rho), abs=1e-15)
    assert result.nearest.diag == pytest.approx(np.real(np.diag(rho)), abs=1e-15)
    assert (result.lower_bound, result.iterations, result.converged) == (0.0, 0, False)


def test_hessian_slabs_sum_to_the_whole_product(monkeypatch):
    rng = np.random.default_rng(12)
    states = [random_mixed_state(8, rng).matrix for _ in range(2)]
    lam, u = np.linalg.eigh(np.stack(states))
    mu = np.array([1e-3, 1e-5])
    gamma = mixed_tr._divided_differences(lam, np.hypot(lam, mu[:, None]), mu)
    whole = mixed_tr._hessian(u, gamma, mixed_tr._hessian_work(2, 8))
    monkeypatch.setattr(mixed_tr, "HESSIAN_SLAB", 3 * 8 * 8)  # three rows of i per slab
    slabbed = mixed_tr._hessian(u, gamma, mixed_tr._hessian_work(2, 8))
    assert slabbed == pytest.approx(whole, rel=1e-12, abs=1e-12)


def fresh_hessian(u, gamma, width) -> np.ndarray:
    """The slabbed Daleckii-Krein product with every temporary allocated anew."""
    b, n = u.shape[:2]
    out = np.zeros((b, n, n))
    for lo in range(0, n, width):
        hi = min(n, lo + width)
        w = (u[:, :, lo:hi, None] * u.conj()[:, :, None, :]).reshape(b, n, (hi - lo) * n)
        scaled = w * gamma[:, lo:hi, :].reshape(b, 1, (hi - lo) * n)
        out += (scaled @ w.conj().transpose(0, 2, 1)).real
    return out


@pytest.mark.parametrize("slab", [mixed_tr.HESSIAN_SLAB, 3 * 8 * 8, 8 * 8])
def test_hessian_in_reused_work_arrays_is_bit_identical(monkeypatch, slab):
    monkeypatch.setattr(mixed_tr, "HESSIAN_SLAB", slab)
    rng = np.random.default_rng(14)
    states = np.stack([random_mixed_state(8, rng).matrix for _ in range(5)])
    mu = np.geomspace(1e-2, 1e-6, 5)
    work = mixed_tr._hessian_work(5, 8)
    # The live rows shrink as certified rows leave the stack; the work arrays stay.
    for live in ([0, 1, 2, 3, 4], [0, 2, 3], [2, 3], [3]):
        lam, u = np.linalg.eigh(states[live])
        gamma = mixed_tr._divided_differences(lam, np.hypot(lam, mu[live, None]), mu[live])
        reused = mixed_tr._hessian(u, gamma, work)
        assert reused.tobytes() == fresh_hessian(u, gamma, max(1, slab // 64)).tobytes()


def test_divided_differences_match_the_direct_quotient():
    # Well-separated eigenvalues, where the direct quotient does not cancel,
    # and ties (including two zeros), where the quotient is g''.
    lam = np.array([[-0.7, -0.2, -1e-3, 0.0, 0.0, 2e-3, 0.3, 0.3]])
    mu = np.array([1e-2])
    r = np.hypot(lam, mu[:, None])
    gamma = mixed_tr._divided_differences(lam, r, mu)[0]
    slope = lam[0] / (mu[0] + r[0])
    for i in range(8):
        for k in range(8):
            if lam[0, i] == lam[0, k]:
                expected = mu[0] / (r[0, i] * (mu[0] + r[0, i]))
            else:
                expected = (slope[i] - slope[k]) / (lam[0, i] - lam[0, k])
            assert gamma[i, k] == pytest.approx(expected, rel=1e-12), (i, k)
