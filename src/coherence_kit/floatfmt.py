"""Whole-array ``%.17g``: the text of a float array, each element as
``"%.17g" % x`` gives it, laid out as ``io.render_json`` lays out lists,
computed in numpy passes instead of one correctly rounded conversion per
element. The tests hold the one-pass ``%`` reference it is compared against.

Domain. For a double x with 1e-6 <= |x| < 1e17, let E = floor(log10 |x|)
and k = 16 - E, so 0 <= k <= 22 and 10^k is an exact double. Dekker's
error-free product (a Veltkamp split of both factors) gives
x * 10^k = hi + lo exactly, with hi = fl(x * 10^k). When that value lies in
[10^16, 10^17), hi is an even integer (every double from 2^53 up is), so
the 17 significant digits of x rounded half-even are D = hi + rint(lo),
exactly, in int64, and the exponent %g uses is E. An element whose
floor(hi + lo) is outside [10^16, 10^17) (log10 was off by one near a power
of ten) or whose D carries to 10^17, and every nonzero |x| outside the
domain, is formatted by ``%``, all of them in one pass. Exact zeros are
``0`` and ``-0``.

Layout. Every element becomes one fixed-width row of bytes: sign, the
``0.000`` prefix, the 17 digits with a slot for the point after each, the
exponent ``e-0d``, and the separator that follows the element in the
nested-list text (it depends only on how many trailing axes close there).
One table row, chosen by a code from E, the number of digits kept, the sign
and the separator, holds every constant byte, and 0xFF in the columns of the
digits it keeps; the digits are ANDed in, and the NUL bytes left in the rows
are dropped with ``bytearray.translate``. Elements go through in chunks of
``CHUNK``, so the work arrays stay small, and the text of each chunk is
handed on as soon as it is made.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator

import numpy as np

from . import io

# Elements per chunk. Each work array of a chunk is then 64 KB, below
# glibc's default 128 KB mmap threshold, so the heap reuses the same blocks
# chunk after chunk; at 2^15 the `random` child at n = 10^5 peaked 5 MB
# higher, above the whole-array ``%`` pass.
CHUNK = 1 << 13

# Decimal exponents of the fast domain; -5 and -6 take %g's exponent form.
_E_MIN, _E_MAX = -6, 16
_N_DIGITS = 17
# Exponent slots: one per exponent, then exact zeros, then the elements
# formatted by ``%``, whose rows hold only their separator.
_ZERO = _E_MAX - _E_MIN + 1
_BLANK = _ZERO + 1
_SLOTS = _BLANK + 1

# Byte columns of a row: sign, a prefix of up to five bytes, then from
# _DIGIT0 the 17 digits each followed by a point slot, the exponent, and
# from _SEP the separator.
_DIGIT0 = 6
_EXP = _DIGIT0 + 2 * _N_DIGITS
_SEP = _EXP + 4
# %24.17g is %.17g padded with spaces: no %.17g text of a double is longer
# than "-2.2250738585072014e-308".
_FALLBACK_WIDTH = 24

_POW10 = np.array([10.0**k for k in range(23)])


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a = high + low, each with at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    high = c - (c - a)
    return high, a - high


_POW10_HI, _POW10_LO = _split(_POW10)

# The four digits of 0..9999, each as a little-endian uint16 whose high byte
# is 0xFF, so that ANDed onto a (digit mask, point slot) column pair it keeps
# the point slot; and how many of those four digits are trailing zeros.
_FOUR = np.arange(10**4)
_DIGITS4 = (
    ((_FOUR[:, None] // np.array([1000, 100, 10, 1])) % 10 + (0xFF00 + ord("0")))
    .astype("<u2")
    .view("<u8")[:, 0]
)
_TRAILING_ZEROS4 = sum(_FOUR % p == 0 for p in (10, 100, 1000, 10**4))


def _number_rows() -> np.ndarray:
    """The constant bytes of the number part of each row, indexed
    ``(sign * _SLOTS + slot) * 17 + kept - 1`` for ``kept`` significant
    digits (trailing zeros dropped) of D."""
    rows = np.zeros((2, _SLOTS, _N_DIGITS, _SEP), dtype=np.uint8)
    rows[1, :_BLANK, :, 0] = ord("-")
    rows[:, _ZERO, :, _DIGIT0 - 1] = ord("0")
    for slot in range(_ZERO):
        e = _E_MIN + slot
        for nonzero in range(1, _N_DIGITS + 1):
            row = rows[:, slot, nonzero - 1]
            # The integer digits of the fixed form stay, zeros or not.
            kept = max(e + 1, nonzero)
            row[:, _DIGIT0 : _DIGIT0 + 2 * kept : 2] = 0xFF
            if e < -4:
                if kept > 1:
                    row[:, _DIGIT0 + 1] = ord(".")
                row[:, _EXP:_SEP] = np.frombuffer(f"e-{-e:02d}".encode(), np.uint8)
            elif e < 0:
                prefix = np.frombuffer(("0." + "0" * (-e - 1)).encode(), np.uint8)
                row[:, _DIGIT0 - len(prefix) : _DIGIT0] = prefix
            elif kept > e + 1:
                row[:, _DIGIT0 + 2 * e + 1] = ord(".")
    return rows.reshape(-1, _SEP)


_NUMBER_ROWS = _number_rows()


def _layout(ndim: int, indent: int, level: int) -> tuple[str, list[str]]:
    """The text before the first element of a nested list of ``ndim`` axes,
    and the text after an element at which c trailing axes close, for c = 0
    .. ndim - 1, then after the last element: the pieces between the
    elements of the ``%`` template of shape (2, ..., 2)."""
    pieces = io._float_template((2,) * ndim, indent, level).split("%.17g")
    return pieces[0], [pieces[2**c] for c in range(ndim)] + [pieces[-1]]


def _closings(shape: tuple[int, ...], start: int, stop: int) -> np.ndarray:
    """How many trailing axes close after each of the elements ``start`` to
    ``stop`` of the flat array (all of them after the last element)."""
    count = np.zeros(stop - start, dtype=np.int64)
    for j in range(1, len(shape)):
        stride = math.prod(shape[j:])
        count[(stride - 1 - start) % stride :: stride] += 1
    if stop == math.prod(shape):
        count[-1] = len(shape)
    return count


@functools.cache
def _row_table(ndim: int, indent: int, level: int) -> tuple[str, int, np.ndarray]:
    """For an array of ``ndim`` axes laid out at ``indent`` and ``level``: the
    text before its first element, the number of separators, and the
    read-only table of whole rows, indexed ``number * separators + closings``."""
    head, after = _layout(ndim, indent, level)
    width = _SEP + max(map(len, after))
    width += width % 2  # whole uint16 columns
    table = np.zeros((_NUMBER_ROWS.shape[0], len(after), width), dtype=np.uint8)
    table[:, :, :_SEP] = _NUMBER_ROWS[:, None, :]
    for c, sep in enumerate(after):
        table[:, c, _SEP : _SEP + len(sep)] = np.frombuffer(sep.encode(), np.uint8)
    table = table.reshape(-1, width)
    table.flags.writeable = False
    return head, len(after), table


def format_array(arr: np.ndarray, indent: int = 0, level: int = 0) -> Iterator[str]:
    """The text ``io._float_template(arr.shape, indent, level) %
    tuple(arr.ravel().tolist())`` of a finite float16, float32 or float64
    array, as its opening brackets and then the text of each chunk; an array
    with no elements is its brackets alone."""
    if not arr.size:
        yield io._float_template(arr.shape, indent, level)
        return
    head, separators, table = _row_table(arr.ndim, indent, level)
    width = table.shape[1]

    flat = arr.reshape(-1)
    chunk = min(CHUNK, flat.size)
    # The rows of a chunk live in one bytearray, which ``translate`` compacts
    # without a copy of the rows first.
    buffer = bytearray(chunk * width)
    rows = np.frombuffer(buffer, np.uint8).reshape(chunk, width)
    digits = np.empty((chunk, 5), dtype=np.uint64)
    yield head
    for start in range(0, flat.size, chunk):
        stop = min(start + chunk, flat.size)
        m = stop - start
        x = flat[start:stop].astype(np.float64)
        numbers, groups, fallback = _numbers(x)
        codes = numbers * separators + _closings(arr.shape, start, stop)
        table.take(codes, axis=0, out=rows[:m], mode="clip")
        _DIGITS4.take(groups, out=digits[:m], mode="clip")
        rows.view(np.uint16)[:m, _DIGIT0 // 2 : _EXP // 2] &= digits[:m].view(np.uint16)[:, 3:]
        if fallback.size:
            padded = ("%24.17g" * fallback.size) % tuple(x[fallback].tolist())
            fixed = np.frombuffer(padded.encode(), np.uint8).reshape(-1, _FALLBACK_WIDTH)
            rows[fallback, :_FALLBACK_WIDTH] = np.where(fixed == ord(" "), 0, fixed)
        rows[m:] = 0
        yield buffer.translate(None, b"\0").decode("ascii")


def _numbers(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For the finite doubles ``x``: the row of ``_NUMBER_ROWS`` of each, the
    indices into ``_DIGITS4`` of its digits (n, 5), and the indices of the
    elements ``%`` formats."""
    a = np.abs(x)
    fast = (a >= 1e-6) & (a < 1e17)
    safe = np.where(fast, a, 1.0)
    e = np.floor(np.log10(safe)).astype(np.int64)
    np.clip(e, _E_MIN, _E_MAX, out=e)
    k = _E_MAX - e
    # Dekker's TwoProduct: safe * 10^k = hi + lo exactly.
    hi = safe * _POW10.take(k)
    a_hi, a_lo = _split(safe)
    b_hi, b_lo = _POW10_HI.take(k), _POW10_LO.take(k)
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    whole = hi.astype(np.int64)
    d = whole + np.rint(lo).astype(np.int64)
    fast &= (whole + np.floor(lo).astype(np.int64) >= 10**16) & (d < 10**17)

    # D as five groups: its lead digit and four groups of four digits.
    groups = np.empty((5, x.size), dtype=np.int64)
    lead, g1, g2, g3, g4 = groups
    np.floor_divide(d, 10**16, out=lead)
    rest = d - lead * 10**16
    for group, scale in ((g1, 10**12), (g2, 10**8), (g3, 10**4)):
        np.floor_divide(rest, scale, out=group)
        rest -= group * scale
    g4[:] = rest

    trailing = _TRAILING_ZEROS4.take(g4)
    zeros = np.flatnonzero(g4 == 0)  # elements whose groups so far are all 0000
    for group in (g3, g2, g1):
        if not zeros.size:
            break
        values = group[zeros]
        trailing[zeros] += _TRAILING_ZEROS4.take(values)
        zeros = zeros[values == 0]

    slot = e - _E_MIN
    zero = a == 0
    slot[zero] = _ZERO
    fallback = np.flatnonzero(~(fast | zero))
    slot[fallback] = _BLANK
    numbers = (np.signbit(x) * _SLOTS + slot) * _N_DIGITS + (_N_DIGITS - 1) - trailing
    return numbers, groups.T, fallback
