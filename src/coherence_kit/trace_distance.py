"""Closed-form nearest incoherent state of a pure state under the trace norm.

For a unit vector with sorted non-negative moduli x_1 >= ... >= x_n the nearest
diagonal density matrix has the explicit form

    D = diag(d_1, ..., d_k, 0, ..., 0),    d_j = (x_j - q_k) / (s_k - k q_k),

where s_l, m_l are prefix sums, q_l is the larger root of the quadratic
l s_l q^2 - q (s_l^2 - 1 - l m_l) - s_l m_l, and k is the largest index with
x_k > q_k.  The trace-norm distance is 2 (q_k s_k + m_k) and the operator-norm
distance is half of that, attained by the eigenvector
(q_k, ..., q_k, x_{k+1}, ..., x_n).

The breakpoint predicate x_l > q_l holds exactly for l = 1..k, so k is found
by binary search; all prefix quantities come from one O(n) pass after the
O(n log n) sort, which is what makes million-dimensional states cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import IncoherentState, ValidationError, as_pure_state


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """Sorted moduli plus the phase/permutation data that restores the input.

    ``moduli`` is descending; canonical slot ``i`` holds original index
    ``permutation[i]``; ``phases`` stores one unit complex number per original
    index.  Scattering the moduli through the permutation and multiplying by
    the phases reproduces the original amplitudes.
    """

    moduli: np.ndarray
    permutation: np.ndarray
    phases: np.ndarray

    def reconstruct(self) -> np.ndarray:
        amps = np.empty(self.moduli.size, dtype=complex)
        amps[self.permutation] = self.moduli
        return amps * self.phases

    def to_original(self, canonical_values: np.ndarray) -> np.ndarray:
        """Scatter a canonical-order vector back to original index order."""
        out = np.empty(canonical_values.shape, dtype=canonical_values.dtype)
        out[self.permutation] = canonical_values
        return out


@dataclass(frozen=True, eq=False)
class PrefixStats:
    """Prefix statistics of a sorted modulus vector.

    s[l-1] = x_1 + ... + x_l
    m[l-1] = x_{l+1}^2 + ... + x_n^2
    p[l-1] = s_l^2 - 1 - l m_l
    q[l-1] = larger root of  l s_l q^2 - p_l q - s_l m_l
    """

    s: np.ndarray
    m: np.ndarray
    p: np.ndarray
    q: np.ndarray


@dataclass(frozen=True, eq=False)
class TraceDistanceResult:
    """Nearest incoherent state of a pure state with its optimality data.

    The nearest state and eigenvector are reported in the original index
    order; the canonical-order data used to compute them is retained.
    """

    k: int
    q_k: float
    nearest: IncoherentState
    mu: float
    eigenvector: np.ndarray
    c_tr: float
    op_dist: float
    canonical: CanonicalForm
    d_canonical: np.ndarray
    v_canonical: np.ndarray


@dataclass(frozen=True)
class ShortcutFlags:
    rank_one: bool
    full_rank: bool


def canonicalize(x) -> CanonicalForm:
    """Split a pure state into descending moduli, a permutation, and phases.

    The sort is stable: entries with equal modulus keep their relative order.
    Zero entries get phase 1.
    """
    state = as_pure_state(x)
    amps = state.amplitudes
    moduli = np.abs(amps)
    order = np.argsort(-moduli, kind="stable")
    safe = np.where(moduli > 0.0, moduli, 1.0)
    phases = np.where(moduli > 0.0, amps / safe, 1.0 + 0.0j)
    return CanonicalForm(moduli=moduli[order], permutation=order, phases=phases)


def _sorted_unit_moduli(moduli) -> np.ndarray:
    """``moduli`` as a non-empty descending non-negative vector of unit l2 norm."""
    x = np.atleast_1d(np.asarray(moduli, dtype=float))
    if x.ndim != 1 or x.size == 0:
        raise ValidationError("moduli must form a non-empty 1-D vector")
    if float(x[-1]) < 0.0:
        raise ValidationError("moduli must be non-negative")
    if np.any(np.diff(x) > 0.0):
        raise ValidationError("moduli must be sorted in descending order")
    if abs(float(x @ x) - 1.0) > 1e-9:
        raise ValidationError("moduli must have unit l2 norm")
    return x


def prefix_stats(moduli) -> PrefixStats:
    """Prefix statistics (s, m, p, q) of a descending non-negative unit vector.

    The root q_l is evaluated in the cancellation-free form for each sign of
    p_l: the textbook quotient when p_l >= 0 and the conjugate form
    2 m_l s_l / (sqrt(p_l^2 + 4 l m_l s_l^2) - p_l) when p_l < 0.
    """
    x = _sorted_unit_moduli(moduli)
    if float(x[0]) <= 0.0:
        raise ValidationError("moduli must have at least one positive entry")
    n = x.size

    s = np.cumsum(x)
    sq = x * x
    # Suffix sums accumulate from the tail so the small entries add first.
    tail = np.cumsum(sq[::-1])[::-1]
    m = np.empty(n)
    m[:-1] = tail[1:]
    m[-1] = 0.0
    ell = np.arange(1, n + 1, dtype=float)
    p = s * s - 1.0 - ell * m
    disc = np.sqrt(p * p + 4.0 * ell * m * s * s)
    q = np.empty(n)
    pos = p >= 0.0
    q[pos] = (p[pos] + disc[pos]) / (2.0 * ell[pos] * s[pos])
    neg = ~pos
    q[neg] = 2.0 * m[neg] * s[neg] / (disc[neg] - p[neg])
    return PrefixStats(s=s, m=m, p=p, q=q)


def find_k(moduli, stats: PrefixStats | None = None, *, linear_scan: bool = False) -> int:
    """Largest index k with x_k > q_k (strict floating-point comparison).

    The predicate is true exactly on a prefix 1..k, so a binary search with
    O(log n) probes suffices; ``linear_scan`` switches to a full scan for
    differential testing.  k = 1 always exists.
    """
    x = np.asarray(moduli, dtype=float)
    if stats is None:
        stats = prefix_stats(x)
    q = stats.q
    if linear_scan:
        hits = np.nonzero(x > q)[0]
        return int(hits[-1]) + 1 if hits.size else 1
    if not x[0] > q[0]:
        return 1
    lo, hi = 1, x.size
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if x[mid - 1] > q[mid - 1]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def nearest_incoherent(x) -> TraceDistanceResult:
    """Nearest incoherent state of a pure state under the trace norm.

    Sorts the moduli, restricts to the support (leading positive block) so the
    closed form never divides by a vanishing amplitude, computes the
    breakpoint k and the diagonal weights, and maps everything back to the
    original index order.  The minimizer is unique whenever every amplitude is
    nonzero; with zero amplitudes the support-restricted solution is returned
    without a uniqueness claim.  Runs in O(n log n) and never forms an n x n
    matrix.
    """
    state = as_pure_state(x)
    canon = canonicalize(state)
    y = canon.moduli
    n = y.size
    support = int(np.count_nonzero(y > 0.0))
    ys = y[:support]
    stats = prefix_stats(ys)
    k = find_k(ys, stats)
    q_k = float(stats.q[k - 1])
    s_k = float(stats.s[k - 1])
    m_k = float(stats.m[k - 1])
    mu = q_k * s_k + m_k

    d_canon = np.zeros(n)
    d_canon[:k] = (ys[:k] - q_k) / (s_k - k * q_k)
    v_canon = np.concatenate([np.full(k, q_k), y[k:]])

    d_original = canon.to_original(d_canon)
    v_original = canon.to_original(v_canon.astype(complex)) * canon.phases

    return TraceDistanceResult(
        k=k,
        q_k=q_k,
        nearest=IncoherentState(d_original),
        mu=mu,
        eigenvector=v_original,
        c_tr=2.0 * mu,
        op_dist=mu,
        canonical=canon,
        d_canonical=d_canon,
        v_canonical=v_canon,
    )


def c_tr_pure(x) -> float:
    """Trace-distance coherence of a pure state, 2 (q_k s_k + m_k)."""
    return nearest_incoherent(x).c_tr


def breakpoint_shortcuts(moduli) -> ShortcutFlags:
    """Closed-form tests for the extreme breakpoints of a sorted unit vector.

    rank_one:  the nearest incoherent state is diag(1, 0, ..., 0), which
               happens if and only if x_1 m_2 >= 2 x_2 m_1.
    full_rank: the nearest incoherent state has full support, which happens
               if and only if 1 > s_n (s_n - n x_n).
    """
    x = _sorted_unit_moduli(moduli)
    if x.size < 2:
        raise ValidationError("shortcut tests need dimension >= 2")
    m1 = float(x[1:] @ x[1:])
    m2 = float(x[2:] @ x[2:])
    s_n = float(np.sum(x))
    n = x.size
    rank_one = x[0] * m2 >= 2.0 * x[1] * m1
    full_rank = 1.0 > s_n * (s_n - n * float(x[-1]))
    return ShortcutFlags(rank_one=bool(rank_one), full_rank=bool(full_rank))


def max_coherence_bound(n: int) -> float:
    """Largest trace-distance coherence any n-dimensional state can have."""
    if n <= 0:
        raise ValidationError("dimension must be positive")
    return 2.0 - 2.0 / n
