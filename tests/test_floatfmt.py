"""The whole-array %.17g kernel against the one-pass ``%`` reference.

``floatfmt.format_array(a, indent, level)`` must give the bytes of
``format_floats(a.shape, tuple(a.ravel().tolist()), indent, level)`` for
every finite float array; the inputs below aim at its exactness argument
(powers of ten, 17-digit ties, the edges of its domain) and at its layout
(chunk edges, shapes, indents and levels).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from test_cli import special_values

from coherence_kit import floatfmt
from coherence_kit import io as state_io
from coherence_kit.core import ValidationError
from coherence_kit.io import format_finite, format_floats, render_json

THRESHOLD = state_io.KERNEL_MIN_NONZERO


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
        assert_same_text(np.resize(values, 2 * THRESHOLD))
        assert_same_text(np.resize(values, (THRESHOLD, 2)), 2, 1)

    def test_exact_ties_round_half_even(self):
        # 1e15 + 0.25 and 1e15 + 0.75 are doubles with 18 significant digits
        # ending in 5: the 17th digit rounds to even, 2 stays and 7 becomes 8.
        ties = np.array([1000000000000000.25, 1000000000000000.75, -1000000000000000.25])
        text = "".join(floatfmt.format_array(np.resize(ties, THRESHOLD)))
        assert text.startswith("[1000000000000000.2, 1000000000000000.8, -1000000000000000.2, ")
        drawn = np.random.default_rng(3).integers(0, 10**15, size=THRESHOLD)
        halves = 1e15 + drawn + np.resize([0.25, 0.75, 0.5, 0.125], THRESHOLD)
        assert_same_text(halves)

    def test_zeros_subnormals_extremes_and_random_bits(self):
        fixed = [
            0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308, 1e-6, 9.999999999999999e-7,
            1e17, 99999999999999984.0, 9007199254740993.0,
        ]
        assert_same_text(np.resize(fixed, THRESHOLD))
        assert_same_text(random_bit_patterns(3 * THRESHOLD, seed=19))

    def test_every_decimal_exponent_and_short_decimals(self):
        rng = np.random.default_rng(23)
        spread = rng.choice([-1.0, 1.0], 2 * THRESHOLD) * 10 ** rng.uniform(-9, 19, 2 * THRESHOLD)
        assert_same_text(spread)
        scale = rng.choice([1, 2, 8, 10, 100, 1000, 1024, 1e6], 2 * THRESHOLD)
        assert_same_text(rng.integers(-10**6, 10**6, 2 * THRESHOLD) / scale)

    def test_float32_input_and_strided_real_views(self):
        assert_same_text(amplitudes(2 * THRESHOLD).astype(np.float32))
        assert_same_text(amplitudes(THRESHOLD).astype(np.float16))
        z = amplitudes((70, 90, 2)).view(complex)[..., 0]
        assert not z.real.flags.c_contiguous
        assert_same_text(z.real, 2, 1)
        assert_same_text(amplitudes((THRESHOLD, 3))[:, 1])

    @pytest.mark.parametrize("indent, level", [(0, 0), (0, 1), (2, 0), (2, 1), (2, 3), (4, 2)])
    @pytest.mark.parametrize("shape", [(5000,), (2500, 2), (3, 1500, 2), (5, 1, 2)])
    def test_shapes_indents_and_levels(self, shape, indent, level):
        values = amplitudes(shape)
        values.flat[::7] = 0.0
        assert_same_text(values, indent, level)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    hnp.arrays(
        dtype=st.sampled_from([np.float64, np.float32]),
        shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=40),
        elements={"allow_nan": False, "allow_infinity": False},
    ),
    st.sampled_from([0, 2]),
    st.integers(0, 3),
)
def test_hypothesis_arrays_match_percent_formatting(values, indent, level):
    assert_same_text(values, indent, level)


class TestDispatch:
    """``format_finite`` sends an array to the kernel only when it has enough
    nonzero entries, and every path gives the same text."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        kernel = floatfmt.format_array

        def counted(arr, indent=0, level=0):
            calls.append(arr.shape)
            return kernel(arr, indent, level)

        monkeypatch.setattr(floatfmt, "format_array", counted)
        return calls

    def test_threshold_counts_nonzero_entries(self, kernel_calls):
        values = amplitudes((THRESHOLD, 2))
        assert render_json({"data": values}, 2) == render_json({"data": values.tolist()}, 2)
        assert kernel_calls == [(THRESHOLD, 2)]
        sparse = np.zeros(10**5)
        sparse[:THRESHOLD - 1] = amplitudes(THRESHOLD - 1)
        assert "".join(format_finite(sparse)) == reference(sparse)
        sparse[-1] = 0.5
        assert "".join(format_finite(sparse)) == reference(sparse)
        assert kernel_calls == [(THRESHOLD, 2), (10**5,)]

    def test_other_dtypes_keep_the_percent_pass(self, kernel_calls):
        longdouble = np.resize(special_values(), THRESHOLD).astype(np.longdouble)
        ints = np.arange(1, THRESHOLD + 1)
        assert "".join(format_finite(ints)) == reference(ints)
        assert "".join(format_finite(longdouble)) == reference(longdouble)
        assert kernel_calls == []

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entries_are_refused_before_the_kernel(self, kernel_calls, bad):
        values = amplitudes(2 * THRESHOLD)
        values[-1] = bad
        with pytest.raises(ValidationError, match="^reports must contain only finite"):
            format_finite(values)
        assert kernel_calls == []
