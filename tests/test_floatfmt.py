"""The whole-array %.17g kernel against the one-pass ``%`` reference.

``floatfmt.format_array(a, indent, level)`` must give the bytes of
``format_floats(a.shape, tuple(a.ravel().tolist()), indent, level)`` for
every finite float array; the inputs below aim at its exactness argument
(powers of ten, 17-digit ties, the edges of its domain) and at its layout
(chunk edges, shapes, indents and levels). ``io.format_finite`` sends every
list and array of at least ``io.KERNEL_MIN_SIZE`` elements to it, and
formats a smaller one by the reference's own ``%`` pass.
"""

import collections
import tracemalloc

import numpy as np
import pytest
from float_reference import format_floats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from test_cli import special_values

from coherence_kit import floatfmt
from coherence_kit.core import ValidationError
from coherence_kit.io import KERNEL_MIN_SIZE, format_finite, render_json, render_pieces

# Elements in most arrays below: half of ``floatfmt.CHUNK``.
SIZE = 4096


def reference(a: np.ndarray, indent: int = 0, level: int = 0) -> str:
    return format_floats(a.shape, tuple(a.ravel().tolist()), indent, level)


def assert_same_text(a: np.ndarray, indent: int = 0, level: int = 0) -> None:
    expected = reference(a, indent, level)
    got = "".join(floatfmt.format_array(a, indent, level))
    if got != expected:
        at = next((i for i, (p, q) in enumerate(zip(got, expected)) if p != q), None)
        at = min(len(got), len(expected)) if at is None else at
        raise AssertionError(
            f"first difference at {at}: {got[at - 30 : at + 30]!r} "
            f"against {expected[at - 30 : at + 30]!r}"
        )


def powers_of_ten() -> np.ndarray:
    """10^k for k from -8 to 18 and their neighbours one ulp away, both signs."""
    p = np.array([10.0**k for k in range(-8, 19)])
    near = np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])
    return np.concatenate([near, -near])


def random_bit_patterns(size: int, seed: int) -> np.ndarray:
    drawn = np.random.default_rng(seed).integers(0, 2**64, size=size, dtype=np.uint64)
    drawn = drawn.view(float)
    return drawn[np.isfinite(drawn)]


def amplitudes(shape, seed: int = 7) -> np.ndarray:
    z = np.random.default_rng(seed).standard_normal(shape)
    return z / np.linalg.norm(z)


class TestAgainstPercentFormatting:
    @pytest.mark.parametrize(
        "size",
        [
            2**15 - 1, 2**15, 2**15 + 1,
            floatfmt.CHUNK - 1, floatfmt.CHUNK, floatfmt.CHUNK + 1, 3 * floatfmt.CHUNK,
        ],
    )
    def test_special_values_across_chunk_edges(self, size):
        assert_same_text(np.resize(special_values(), size))

    def test_powers_of_ten_and_their_neighbours(self):
        values = powers_of_ten()
        assert_same_text(np.resize(values, 2 * SIZE))
        assert_same_text(np.resize(values, (SIZE, 2)), 2, 1)

    def test_exact_ties_round_half_even(self):
        # 1e15 + 0.25 and 1e15 + 0.75 are doubles with 18 significant digits
        # ending in 5: the 17th digit rounds to even, 2 stays and 7 becomes 8.
        ties = np.array([1000000000000000.25, 1000000000000000.75, -1000000000000000.25])
        text = "".join(floatfmt.format_array(np.resize(ties, SIZE)))
        assert text.startswith("[1000000000000000.2, 1000000000000000.8, -1000000000000000.2, ")
        drawn = np.random.default_rng(3).integers(0, 10**15, size=SIZE)
        halves = 1e15 + drawn + np.resize([0.25, 0.75, 0.5, 0.125], SIZE)
        assert_same_text(halves)

    def test_zeros_subnormals_extremes_and_random_bits(self):
        fixed = [
            0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308, 1e-6, 9.999999999999999e-7,
            1e17, 99999999999999984.0, 9007199254740993.0,
        ]
        assert_same_text(np.resize(fixed, SIZE))
        assert_same_text(random_bit_patterns(3 * SIZE, seed=19))

    def test_every_decimal_exponent_and_short_decimals(self):
        rng = np.random.default_rng(23)
        spread = rng.choice([-1.0, 1.0], 2 * SIZE) * 10 ** rng.uniform(-9, 19, 2 * SIZE)
        assert_same_text(spread)
        scale = rng.choice([1, 2, 8, 10, 100, 1000, 1024, 1e6], 2 * SIZE)
        assert_same_text(rng.integers(-10**6, 10**6, 2 * SIZE) / scale)

    def test_float32_input_and_strided_real_views(self):
        assert_same_text(amplitudes(2 * SIZE).astype(np.float32))
        assert_same_text(amplitudes(SIZE).astype(np.float16))
        z = amplitudes((70, 90, 2)).view(complex)[..., 0]
        assert not z.real.flags.c_contiguous
        assert_same_text(z.real, 2, 1)
        assert_same_text(amplitudes((SIZE, 3))[:, 1])

    @pytest.mark.parametrize("indent, level", [(0, 0), (0, 1), (2, 0), (2, 1), (2, 3), (4, 2)])
    @pytest.mark.parametrize("shape", [(5000,), (2500, 2), (3, 1500, 2), (5, 1, 2)])
    def test_shapes_indents_and_levels(self, shape, indent, level):
        values = amplitudes(shape)
        values.flat[::7] = 0.0
        assert_same_text(values, indent, level)


SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=40)


@st.composite
def sparse_arrays(draw) -> np.ndarray:
    """float64 arrays of about 99 % zeros, both signs of zero among them, as
    the weights of a `nearest` report are."""
    values = np.zeros(draw(SHAPES))
    flat = values.reshape(-1)
    entries = st.integers(0, flat.size - 1)
    few = max(1, flat.size // 100)
    flat[draw(st.lists(entries, max_size=few))] = -0.0
    finite = st.floats(allow_nan=False, allow_infinity=False)
    for i, value in draw(st.lists(st.tuples(entries, finite), min_size=1, max_size=few)):
        flat[i] = value
    return values


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    st.one_of(
        hnp.arrays(
            dtype=st.sampled_from([np.float64, np.float32]),
            shape=SHAPES,
            elements={"allow_nan": False, "allow_infinity": False},
        ),
        sparse_arrays(),
    ),
    st.sampled_from([0, 2]),
    st.integers(0, 3),
)
def test_hypothesis_arrays_match_percent_formatting(values, indent, level):
    assert_same_text(values, indent, level)


def test_sparse_weights_render_in_a_few_megabytes():
    # A `nearest` report's weights at n = 10^6 have about 20 nonzero entries.
    # The kernel holds one chunk's work at a time; one ``%`` pass over the
    # array would hold 10^6 Python floats, about 54 MB.
    weights = np.zeros(10**6)
    picked = np.random.default_rng(7).choice(weights.size, 19, replace=False)
    weights[picked] = amplitudes(19) ** 2
    tracemalloc.start()
    try:
        collections.deque(render_pieces({"nearest": weights}, 2), maxlen=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10**6


class TestDispatch:
    """``format_finite`` sends every list and array of at least
    ``KERNEL_MIN_SIZE`` elements to the kernel, whatever its zeros or dtype,
    and a smaller one to one ``%`` pass; both give the reference's text."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        kernel = floatfmt.format_array

        def counted(arr, indent=0, level=0):
            calls.append((arr.shape, arr.dtype))
            return kernel(arr, indent, level)

        monkeypatch.setattr(floatfmt, "format_array", counted)
        return calls

    def test_dense_and_mostly_zero_arrays_go_to_the_kernel(self, kernel_calls):
        values = amplitudes((KERNEL_MIN_SIZE, 2))
        assert render_json({"data": values}, 2) == '{\n  "data": ' + reference(values, 2, 1) + "\n}"
        sparse = np.zeros(10**5)
        sparse[[3, 500, 77_777]] = [0.5, -0.25, 0.25]
        sparse[[4, 99_999]] = -0.0
        for indent, level in ((0, 0), (2, 1)):
            assert "".join(format_finite(sparse, indent, level)) == reference(sparse, indent, level)
        float64 = np.dtype(np.float64)
        assert kernel_calls == [((KERNEL_MIN_SIZE, 2), float64)] + [((10**5,), float64)] * 2

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_float32_and_float16_arrays_go_to_the_kernel(self, kernel_calls, dtype):
        special = special_values()
        special = special[np.abs(special) <= np.finfo(dtype).max]
        values = np.resize(special, (KERNEL_MIN_SIZE, 2)).astype(dtype)
        assert "".join(format_finite(values, 2, 1)) == reference(values, 2, 1)
        assert kernel_calls == [(values.shape, np.dtype(dtype))]

    def test_int_and_longdouble_arrays_go_to_the_kernel(self, kernel_calls):
        ints = np.arange(-KERNEL_MIN_SIZE, KERNEL_MIN_SIZE).reshape(-1, 2) * 10**12
        longdouble = np.resize(special_values(), KERNEL_MIN_SIZE).astype(np.longdouble) / 3
        assert "".join(format_finite(ints, 2)) == reference(ints, 2)
        assert "".join(format_finite(longdouble)) == reference(longdouble)
        float64 = np.dtype(np.float64)
        assert kernel_calls == [(ints.shape, float64), (longdouble.shape, float64)]

    def test_lists_go_to_the_side_of_their_size(self, kernel_calls):
        floats = special_values().tolist()
        mixed = [1, -2, 2**70, 0.5, -0.0, 10**17]
        long = np.resize(floats, KERNEL_MIN_SIZE).tolist()
        for values in (floats, mixed, tuple(mixed), long, long[:-1], tuple(long)):
            expected = format_floats((len(values),), tuple(values), 2, 1)
            assert "".join(format_finite(values, 2, 1)) == expected
        assert len(floats) < KERNEL_MIN_SIZE
        float64 = np.dtype(np.float64)
        assert kernel_calls == [((KERNEL_MIN_SIZE,), float64)] * 2

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("indent, level", [(0, 0), (2, 1), (4, 3)])
    @pytest.mark.parametrize(
        "shape, kernel",
        [
            ((14_999,), False),
            ((15_000,), True),
            ((14_999, 1), False),
            ((7_500, 2), True),
            ((1, 1, 14_999), False),
        ],
    )
    def test_arrays_either_side_of_the_threshold(
        self, kernel_calls, shape, kernel, indent, level, dtype
    ):
        assert KERNEL_MIN_SIZE == 15_000
        special = special_values()
        special = special[np.abs(special) <= np.finfo(dtype).max]
        values = np.resize(special, shape).astype(dtype)
        assert "".join(format_finite(values, indent, level)) == reference(values, indent, level)
        assert kernel_calls == ([(shape, np.dtype(dtype))] if kernel else [])

    @pytest.mark.parametrize(
        "shape, indent, text",
        [
            ((0,), 0, "[]"),
            ((0,), 2, "[]"),
            ((2, 0), 0, "[[], []]"),
            ((2, 0), 2, "[\n    [],\n    []\n  ]"),
        ],
    )
    def test_empty_arrays_are_their_brackets(self, kernel_calls, shape, indent, text):
        values = np.empty(shape)
        assert "".join(format_finite(values, indent, 1)) == text == reference(values, indent, 1)
        assert "".join(floatfmt.format_array(values, indent, 1)) == text
        # An empty array is below the threshold; only the direct call above reached the kernel.
        assert kernel_calls == [(shape, np.dtype(np.float64))]

    def test_empty_list_is_its_brackets(self):
        assert "".join(format_finite([])) == "[]"
        assert "".join(format_finite((), 2, 1)) == "[]"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entries_are_refused_before_the_kernel(self, kernel_calls, bad):
        values = amplitudes(2 * SIZE)
        values[-1] = bad
        with pytest.raises(ValidationError, match="^reports must contain only finite"):
            format_finite(values)
        with pytest.raises(ValidationError, match="^reports must contain only finite"):
            format_finite([0.5, bad])
        assert kernel_calls == []
