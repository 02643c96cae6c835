"""Closed-form nearest incoherent state of a pure state under the trace norm.

For a unit vector with sorted non-negative moduli x_1 >= ... >= x_n the nearest
diagonal density matrix has the explicit form

    D = diag(d_1, ..., d_k, 0, ..., 0),    d_j = (x_j - q_k) / sum_{i<=k} (x_i - q_k),

where s_l, m_l are prefix sums, q_l is the larger root of the quadratic
l s_l q^2 - q (s_l^2 - 1 - l m_l) - s_l m_l, and k is the largest index with
x_k > q_k.  The trace-norm distance is 2 (q_k s_k + m_k) and the operator-norm
distance is half of that, attained by the eigenvector
(q_k, ..., q_k, x_{k+1}, ..., x_n).

k comes from one vectorized comparison and every prefix quantity from one
O(n) pass after the O(n log n) sort of the moduli's values; no permutation of
all n entries is formed.  Only the indices of the k largest entries are
selected, in the stable order ``canonicalize`` gives, and the answer is
written back in place there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import IncoherentState, ValidationError, as_pure_state


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """Descending moduli; canonical slot ``i`` holds original index ``permutation[i]``."""

    moduli: np.ndarray
    permutation: np.ndarray


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
    """Nearest incoherent state in the original index order, with the operator-norm
    distance ``mu`` that ``eigenvector`` attains and ``c_tr = 2 mu``."""

    k: int
    q_k: float
    nearest: IncoherentState
    mu: float
    eigenvector: np.ndarray
    c_tr: float


@dataclass(frozen=True)
class ShortcutFlags:
    rank_one: bool
    full_rank: bool


def canonicalize(x) -> CanonicalForm:
    """Sort the moduli of a pure state in descending order.

    The sort is stable: entries with equal modulus keep their relative order.
    This is the reference order: ``nearest_incoherent`` sorts only the values
    and rebuilds the first k slots of this permutation, with the same result.
    """
    moduli = np.abs(as_pure_state(x).amplitudes)
    order = np.argsort(-moduli, kind="stable")
    return CanonicalForm(moduli=moduli[order], permutation=order)


def _top_k(moduli: np.ndarray, threshold: float, k: int) -> np.ndarray:
    """The first k slots of the stable descending order of ``moduli``, where
    ``threshold`` is the k-th largest modulus.

    Fewer than k entries lie strictly above the threshold; they are sorted
    stably. The slots left go to the first entries equal to it, in index order.
    """
    above = np.flatnonzero(moduli > threshold)
    above = above[np.argsort(-moduli[above], kind="stable")]
    tied = np.flatnonzero(moduli == threshold)[: k - above.size]
    return np.concatenate((above, tied))


def _sorted_unit_moduli(moduli) -> np.ndarray:
    """``moduli`` as a non-empty descending non-negative vector of unit l2 norm."""
    x = np.atleast_1d(np.asarray(moduli, dtype=float))
    if x.ndim != 1 or x.size == 0:
        raise ValidationError("moduli must form a non-empty 1-D vector")
    if not np.all(np.isfinite(x)):
        raise ValidationError("moduli must be finite")
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


def find_k(moduli, stats: PrefixStats | None = None) -> int:
    """Largest index k with x_k > q_k (strict floating-point comparison), or 1
    when no index satisfies it."""
    x = np.asarray(moduli, dtype=float)
    if stats is None:
        stats = prefix_stats(x)
    hits = np.flatnonzero(x > stats.q)
    return int(hits[-1]) + 1 if hits.size else 1


def nearest_incoherent(x) -> TraceDistanceResult:
    """Nearest incoherent state of a pure state under the trace norm.

    Sorts the values of the moduli, restricts to the support (leading positive
    block) so the closed form never divides by a vanishing amplitude, selects
    the indices of the k largest moduli (ties in index order, as in
    ``canonicalize``) and writes the k weights and eigenvector entries back
    there.  The minimizer is unique whenever every amplitude is nonzero; with
    zero amplitudes the support-restricted solution is returned without a
    uniqueness claim.  Runs in O(n log n) and never forms an n x n matrix.
    """
    state = as_pure_state(x)
    moduli = np.abs(state.amplitudes)
    # The sorted values do not depend on how ties are ordered, so the default
    # sort gives the same y, and the same prefix sums, as canonicalize's.
    y = np.sort(moduli)[::-1]
    support = int(np.count_nonzero(y > 0.0))
    ys = y[:support]
    stats = prefix_stats(ys)
    k = find_k(ys, stats)
    q_k = float(stats.q[k - 1])
    s_k = float(stats.s[k - 1])
    m_k = float(stats.m[k - 1])
    mu = q_k * s_k + m_k

    amps = state.amplitudes
    top = _top_k(moduli, y[k - 1], k)
    d = np.zeros(y.size)
    # s_k - k q_k is the sum of the k gaps x_j - q_k; summed as gaps it does
    # not cancel when q_k is close to the x_j.
    gaps = ys[:k] - q_k
    d[top] = gaps / gaps.sum()
    v = amps.copy()
    v[top] = q_k * (amps[top] / y[:k])

    return TraceDistanceResult(
        k=k,
        q_k=q_k,
        nearest=IncoherentState(d),
        mu=mu,
        eigenvector=v,
        c_tr=2.0 * mu,
    )


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
