"""Pure-state closed forms on Python floats, for input too small to pay for numpy.

Importing numpy takes most of a short CLI call. The nearest incoherent state
of a pure state has a closed form that needs only a sort, prefix sums, square
roots and, for the certificate, a scalar secular equation, so a small input
needs no linear algebra. ``io`` reads a ``pure`` or ``incoherent`` document
below ``io.CACHE_MIN_BYTES`` of at most ``io.FLOAT_PATH_MAX_ENTRIES`` entries
as Python numbers, and ``measures``, ``nearest`` and ``verify`` run on them
here. Nothing in this module imports numpy or ``core``.

Each name is the twin of a numpy function and keeps its error text:

- ``FloatPureState``: ``core.PureState`` (``core._unit_amplitudes``);
- ``FloatIncoherentState``: ``core.IncoherentState`` (``core._probability_vector``);
- ``nearest_incoherent``: ``trace_distance.nearest_incoherent``;
- ``c_l1``, ``c_rel_entropy``, ``c_robustness_pure``: ``measures``;
- ``verify_pure_optimality``: ``certificates.verify_pure_optimality``.

One arithmetic: where numpy adds in order (``np.cumsum``) or works
elementwise, this module does the same operations in the same order, and
``_np_sum`` adds exactly as ``np.sum`` does. So from the same moduli, k, the
support, q_k, mu, c_tr and the nearest weights come out with the same bits.
The rest may differ by a few ulps: the norm (numpy's pairwise sum of squares,
``math.hypot`` here), the moduli (numpy's SIMD ``abs``, libm's ``hypot``
here), the other sums of products (``math.fsum`` here) and ``log2``. Near a
basis state or the uniform state the cancelling closed form (ROADMAP item 3)
amplifies a difference in the moduli, as it amplifies their rounding.
"""

from __future__ import annotations

import math
import sys
from functools import reduce
from itertools import accumulate
from operator import add, mul, sub
from typing import NamedTuple

from .config import _NORM_SAFE_MIN, DEFAULT_TOLERANCES
from .errors import IncoherentInputError, InconclusiveCertificateError, ValidationError

# Newton steps from the left of the root stay left of it and converge
# quadratically; a step that leaves the bracket is replaced by bisection.  The
# root is reached to a few ulps in well under this many steps (about 60 on
# roots near 1e-11, under 10 on random states).
_SECULAR_MAX_STEPS = 200


class PureCertificate(NamedTuple):
    optimal: bool
    margin: float


def _incoherent_input_error() -> IncoherentInputError:
    return IncoherentInputError(
        "state is incoherent: its trace distance to the incoherent set is 0 "
        "and the optimality certificate is vacuous"
    )


def _dimension_error(size: int, dim: int) -> ValidationError:
    return ValidationError(f"candidate dimension {size} does not match state dimension {dim}")


def _inconclusive_error(lam: float, tol: float) -> InconclusiveCertificateError:
    return InconclusiveCertificateError(
        f"expected exactly one eigenvalue above {tol:g}, found none: the "
        f"positive eigenvalue {lam:.3e} of |x><x| - D is within tolerance of "
        "the rest of the spectrum; certificate inconclusive"
    )


def _np_sum(values: list) -> float:
    """``np.sum`` of a float64 vector, to the bit: numpy adds pairwise, down to
    blocks of at most 128 entries, each summed by eight interleaved
    accumulators."""
    return 0.0 + _pairwise_sum(values)


def _pairwise_sum(a: list) -> float:
    n = len(a)
    if not any(a):
        # A block of zeros adds nothing, whatever their signs: the sum of a
        # vector of zeros is 0.0 + its pairwise sum, and that is 0.0.
        return 0.0
    if n < 8:
        return reduce(add, a, 0.0)
    if n <= 128:
        end = n - n % 8
        r = [reduce(add, a[j:end:8]) for j in range(8)]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, a[end:], res)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(a[:half]) + _pairwise_sum(a[half:])


def _unit_moduli(amplitudes: list) -> list:
    """The moduli of ``amplitudes`` divided by their l2 norm, as
    ``core._unit_amplitudes`` divides them: a finite, not all zero vector,
    scaled first by a power of two where the squares would under- or
    overflow, and divided as numpy divides a complex number by a real one,
    times the reciprocal."""
    re = [z.real for z in amplitudes]
    im = [z.imag for z in amplitudes]
    # hypot is inf if any part is, else nan if any part is nan.
    norm = math.hypot(*re, *im)
    if not _NORM_SAFE_MIN <= norm < math.inf:
        if not all(map(math.isfinite, re + im)):
            raise ValidationError("pure state amplitudes must contain only finite entries")
        _, exponent = math.frexp(max(map(abs, re + im)))
        re = [math.ldexp(a, -exponent) for a in re]
        im = [math.ldexp(b, -exponent) for b in im]
        norm = math.hypot(*re, *im)
    if norm <= 0.0:
        raise ValidationError("pure state amplitudes must not all be zero")
    scale = 1.0 / norm
    return list(map(math.hypot, [a * scale for a in re], [b * scale for b in im]))


def _probability_vector(p: list, what: str) -> list:
    """``core._probability_vector`` on a non-empty list of floats."""
    tol = DEFAULT_TOLERANCES.construction
    if not all(map(math.isfinite, p)):
        raise ValidationError(f"{what} must contain only finite entries")
    low = min(p)
    if low < -tol:
        raise ValidationError(f"{what} has negative entry {low:.3e}")
    vec = [v if v > 0.0 else 0.0 for v in p]
    total = _np_sum(vec)
    if abs(total - 1.0) > tol:
        raise ValidationError(f"{what} sums to {total:.17g}, expected 1")
    return vec


class FloatPureState:
    """A unit vector of complex amplitudes, given as a list of Python complex
    numbers and kept as the list of its moduli, which is all the closed
    forms read."""

    __slots__ = ("_moduli",)

    def __init__(self, amplitudes: list):
        self._moduli = _unit_moduli(amplitudes)

    def moduli(self) -> list:
        return self._moduli


class FloatIncoherentState:
    """A probability vector as a list of floats, normalized as
    ``core.IncoherentState`` normalizes it, to the same bits."""

    __slots__ = ("diag",)

    def __init__(self, diag: list):
        d = _probability_vector(diag, "incoherent state")
        total = _np_sum(d)
        d = [v / total for v in d]
        for _ in range(2):
            residual = _np_sum(d) - 1.0
            if residual == 0.0:
                break
            d[d.index(max(d))] -= residual
        self.diag = d


class FloatTraceDistance(NamedTuple):
    """``trace_distance.TraceDistanceResult`` without the eigenvector."""

    k: int
    q_k: float
    nearest: FloatIncoherentState
    mu: float
    c_tr: float


def _top_k(moduli: list, threshold: float, k: int) -> list:
    """The first k slots of the stable descending order of ``moduli``, where
    ``threshold`` is the k-th largest modulus (``trace_distance._top_k``)."""
    top = [i for i, v in enumerate(moduli) if v >= threshold]
    above = [i for i in top if moduli[i] > threshold]
    # A reverse sort keeps equal keys in their order: the stable descending order.
    above.sort(key=moduli.__getitem__, reverse=True)
    tied = [i for i in top if moduli[i] == threshold]
    return above + tied[: k - len(above)]


def nearest_from_moduli(moduli: list) -> FloatTraceDistance:
    """The closed form of ``trace_distance.nearest_incoherent`` from the moduli
    of a unit vector: the values sort, the prefix statistics s, m, p and q,
    k, and the weights on the top k in the stable tie order."""
    y = sorted(moduli, reverse=True)
    # The support: the leading positive block, so nothing divides by a zero amplitude.
    ys = y[: y.index(0.0)] if y[-1] == 0.0 else y
    s = list(accumulate(ys))
    # Suffix sums accumulate from the tail so the small entries add first.
    tail = list(accumulate(map(mul, ys[::-1], ys[::-1])))
    m = tail[-2::-1] + [0.0]
    # q_l is the larger root of l s_l q^2 - p_l q - s_l m_l, in the
    # cancellation-free form for each sign of p_l; k is the last l with x_l > q_l.
    q = []
    k = 1
    sqrt = math.sqrt
    for ell, x, s_l, m_l in zip(range(1, len(ys) + 1), ys, s, m):
        p = s_l * s_l - 1.0 - ell * m_l
        disc = sqrt(p * p + 4.0 * ell * m_l * s_l * s_l)
        q_l = (p + disc) / (2.0 * ell * s_l) if p >= 0.0 else 2.0 * m_l * s_l / (disc - p)
        q.append(q_l)
        if x > q_l:
            k = ell
    q_k = q[k - 1]
    mu = q_k * s[k - 1] + m[k - 1]
    # s_k - k q_k is the sum of the k gaps x_j - q_k; summed as gaps it does
    # not cancel when q_k is close to the x_j.
    gaps = [x - q_k for x in ys[:k]]
    total = _np_sum(gaps)
    d = [0.0] * len(moduli)
    for i, gap in zip(_top_k(moduli, y[k - 1], k), gaps):
        d[i] = gap / total
    return FloatTraceDistance(k=k, q_k=q_k, nearest=FloatIncoherentState(d), mu=mu, c_tr=2.0 * mu)


def nearest_incoherent(x: FloatPureState) -> FloatTraceDistance:
    """Nearest incoherent state of a pure state under the trace norm."""
    return nearest_from_moduli(x.moduli())


def _l1_from_moduli(moduli: list) -> float:
    """C_l1 from the moduli, as ``measures._l1_from_moduli``: 2 m r + (r^2 -
    sum_{j != i} |x_j|^2), with m = |x_i| the largest modulus and r the sum of
    the others."""
    top = max(moduli)
    i = moduli.index(top)
    rest = moduli[:i] + moduli[i + 1 :]
    r = _np_sum(rest)
    return 2.0 * top * r + (r * r - math.fsum(v * v for v in rest))


def c_l1(x: FloatPureState) -> float:
    """Sum of the absolute values of the off-diagonal entries of |x><x|."""
    return _l1_from_moduli(x.moduli())


def c_rel_entropy(x: FloatPureState) -> float:
    """The Shannon entropy H(|x_j|^2) in bits."""
    weights = [v * v for v in x.moduli()]
    return max(0.0, -math.fsum(w * math.log2(w) for w in weights if w > 0.0))


def c_robustness_pure(x: FloatPureState) -> float:
    """Robustness of coherence of a pure state, which equals its l1 coherence."""
    return c_l1(x)


def _secular_root(weights: list, d: list, lo: float, hi: float) -> float:
    """The root in [lo, hi] of sum_j weights_j / (lam + d_j) = 1, as
    ``certificates._secular_root`` finds it. The terms with d_j = 0 share
    the denominator lam and are summed once, so a step costs the size of
    the candidate's support."""
    w0 = math.fsum(w for w, dj in zip(weights, d) if dj == 0.0)
    rest = [(w, dj) for w, dj in zip(weights, d) if dj != 0.0]
    lam = hi
    for _ in range(_SECULAR_MAX_STEPS):
        inv = 1.0 / lam
        terms = [w0 * inv]
        slopes = [terms[0] * inv]
        for w, dj in rest:
            inv = 1.0 / (lam + dj)
            terms.append(w * inv)
            slopes.append(terms[-1] * inv)
        g = math.fsum(terms) - 1.0
        if g > 0.0:
            lo = lam
        elif g < 0.0:
            hi = lam
        else:
            return lam
        step = lam + g / math.fsum(slopes)
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if abs(step - lam) <= 4.0 * sys.float_info.epsilon * step:
            return step
        lam = step
    return lam


def verify_pure_optimality(x: FloatPureState, delta, tol: float | None = None) -> PureCertificate:
    """``certificates.verify_pure_optimality`` on Python floats; ``delta`` is a
    candidate with a ``diag`` sequence of weights."""
    if tol is None:
        tol = DEFAULT_TOLERANCES.certificate
    moduli = x.moduli()
    if _l1_from_moduli(moduli) < DEFAULT_TOLERANCES.construction:
        raise _incoherent_input_error()
    weights = [v * v for v in moduli]
    d = [float(v) for v in delta.diag]
    if len(d) != len(weights):
        raise _dimension_error(len(d), len(weights))

    lo = max(0.0, max(map(sub, weights, d)), 1.0 - math.fsum(map(mul, d, weights)))
    lam = _secular_root(weights, d, lo, 1.0)
    if lam <= tol:
        raise _inconclusive_error(lam, tol)
    v_sq = [w / ((lam + dj) * (lam + dj)) for w, dj in zip(weights, d)]
    total = _np_sum(v_sq)
    v_sq = [v / total for v in v_sq]
    margin = math.fsum(map(mul, d, v_sq)) - max(v_sq)
    return PureCertificate(optimal=margin >= -tol, margin=margin)
