"""The pure-state closed forms on Python floats against their numpy twins.

``pure_floats`` is the differential reference for the numpy path at every size
it takes (below ``io.CACHE_MIN_BYTES`` and at most ``io.FLOAT_PATH_MAX_ENTRIES``
entries), and the numpy path is its reference in turn.

- From the same moduli, on every family: k, the support, q_k, mu, c_tr and
  the nearest weights are bit-identical (``pure_floats._np_sum`` adds as
  ``np.sum`` does), and so are a candidate's normalized weights. C_l1, C_r
  and robustness agree within ``REL`` relative, and the certificate margin
  within ``REL`` absolute: it is the difference of two terms of at most
  max_j |v_j|^2 <= 1. Verdicts and messages are equal.
- From the same amplitudes the two normalizations differ by a few ulps: the
  norm is a BLAS dot product on one side and ``math.hypot`` on the other, and
  numpy's SIMD modulus is not libm's ``hypot``. Near a basis state or the
  uniform state that difference moves the cancelling closed form (ROADMAP
  item 3) far more than ``REL``, so whole states and whole CLI calls are
  compared on the well-conditioned families: k and the support are equal,
  exit codes and messages too, and every value agrees within ``REL``
  relative, or 1e-15 absolute, the rounding of p_l = s_l^2 - 1 - l m_l
  (the margin, as above, within ``REL`` absolute).
"""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coherence_kit import cli, pure_floats
from coherence_kit import io as state_io
from coherence_kit.certificates import verify_pure_optimality
from coherence_kit.core import IncoherentState, PureState
from coherence_kit.measures import c_l1, c_rel_entropy
from coherence_kit.trace_distance import nearest_incoherent
from state_files import write_state

REL = 1e-14
FLOOR = 1e-15
FUZZ = settings(derandomize=True, max_examples=150, deadline=None, database=None)

FAMILIES = (
    "random", "scaled", "ties", "signed-zeros", "near-basis", "near-uniform", "uniform", "tiny"
)
WELL_CONDITIONED = ("random", "scaled", "ties", "signed-zeros", "uniform", "tiny")


def phases(rng, n):
    return np.exp(2j * np.pi * rng.random(n))


@st.composite
def amplitudes(draw, families=FAMILIES) -> np.ndarray:
    """A pure state from one of the families where the closed forms are most
    fragile: random states, random states scaled by 1e-320 to 1e300 (whose
    squares under- or overflow), exact ties and zeros, signed zeros,
    near-basis states with eps from 1e-300 to 1e-5, near-uniform and uniform
    states (k = n), and n <= 3."""
    family = draw(st.sampled_from(families))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3) if family == "tiny" else st.integers(2, 300))
    if family in ("random", "tiny"):
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if family == "scaled":
        scale = 10.0 ** draw(st.sampled_from([-320.0, -310.0, -200.0, -160.0, 150.0, 300.0]))
        return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    if family == "ties":
        moduli = rng.choice([0.0, 0.25, 0.5, 1.0], size=n)
        moduli[0] = 1.0
        return moduli * rng.choice(np.array([1, -1, 1j, -1j]), size=n)
    if family == "signed-zeros":
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x.real[rng.random(n) < 0.3] = -0.0
        x.imag[rng.random(n) < 0.5] = rng.choice([0.0, -0.0])
        x[0] = complex(-0.0, 0.7)
        return x
    if family == "near-basis":
        eps = 10.0 ** draw(st.floats(-300.0, -5.0))
        x = eps * rng.random(n) * phases(rng, n)
        x[rng.integers(n)] = phases(rng, 1)[0]
        return x
    if family == "near-uniform":
        delta = 10.0 ** draw(st.floats(-12.0, -2.0))
        return (1.0 + delta * rng.standard_normal(n)) * phases(rng, n)
    return np.ones(n, dtype=complex)


def same_bits(a: float, b: float) -> bool:
    return math.copysign(1.0, a) == math.copysign(1.0, b) and a == b


def close(a: float, b: float, scale: float | None = None) -> bool:
    return abs(a - b) <= REL * (abs(b) if scale is None else scale)


def float_twin(state: PureState) -> pure_floats.FloatPureState:
    """A FloatPureState that holds exactly the moduli of the numpy ``state``."""
    twin = object.__new__(pure_floats.FloatPureState)
    twin._moduli = state.moduli().tolist()
    return twin


@FUZZ
@given(amplitudes())
def test_closed_form_from_the_same_moduli_is_bit_identical(x):
    state = PureState(x)
    expected = nearest_incoherent(state)
    got = pure_floats.nearest_incoherent(float_twin(state))
    assert got.k == expected.k
    for name in ("q_k", "mu", "c_tr"):
        assert same_bits(getattr(got, name), getattr(expected, name)), name
    weights = np.array(got.nearest.diag)
    assert np.array_equal(np.flatnonzero(weights), np.flatnonzero(expected.nearest.diag))
    assert weights.tobytes() == expected.nearest.diag.tobytes()


@FUZZ
@given(amplitudes())
def test_measures_from_the_same_moduli_agree(x):
    state = PureState(x)
    twin = float_twin(state)
    assert close(pure_floats.c_l1(twin), c_l1(state))
    assert close(pure_floats.c_robustness_pure(twin), c_l1(state))
    assert close(pure_floats.c_rel_entropy(twin), c_rel_entropy(state))


def outcome(verify, state, candidate):
    try:
        return verify(state, candidate)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return type(exc), str(exc)


@FUZZ
@given(amplitudes(), st.sampled_from(["nearest", "shifted", "uniform"]))
def test_certificates_from_the_same_moduli_agree(x, which):
    state = PureState(x)
    d = nearest_incoherent(state).nearest.diag.copy()
    if which == "shifted" and d.size > 1:
        # A quarter of the largest weight onto the next index.
        top = int(np.argmax(d))
        shift = d[top] / 4.0
        d[top] -= shift
        d[(top + 1) % d.size] += shift
    elif which == "uniform":
        d = np.full(d.size, 1.0 / d.size)
    candidate, float_candidate = IncoherentState(d), pure_floats.FloatIncoherentState(d.tolist())
    assert np.array(float_candidate.diag).tobytes() == candidate.diag.tobytes()
    expected = outcome(verify_pure_optimality, state, candidate)
    got = outcome(pure_floats.verify_pure_optimality, float_twin(state), float_candidate)
    if not isinstance(expected, pure_floats.PureCertificate):
        assert got == expected
        return
    assert got.optimal == expected.optimal
    assert close(got.margin, expected.margin, scale=1.0)


def close_or_tiny(a: float, b: float) -> bool:
    return abs(a - b) <= REL * abs(b) + FLOOR


@FUZZ
@given(amplitudes(WELL_CONDITIONED))
def test_whole_states_agree(x):
    state, floats = PureState(x), pure_floats.FloatPureState(x.tolist())
    assert np.allclose(floats.moduli(), state.moduli(), rtol=1e-15, atol=0.0)
    assert close_or_tiny(pure_floats.c_l1(floats), c_l1(state))
    assert close_or_tiny(pure_floats.c_rel_entropy(floats), c_rel_entropy(state))
    got, expected = pure_floats.nearest_incoherent(floats), nearest_incoherent(state)
    assert got.k == expected.k
    assert np.array_equal(np.flatnonzero(got.nearest.diag), np.flatnonzero(expected.nearest.diag))
    assert close_or_tiny(got.c_tr, expected.c_tr)
    assert np.allclose(got.nearest.diag, expected.nearest.diag, rtol=REL, atol=FLOOR)


def candidate_outcome(make, diag):
    try:
        return np.array(make(diag).diag, dtype=float).tobytes()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "diag",
    [
        [0.75, -0.25, 0.5],
        [0.11] * 10,
        [math.inf, 0.0],
        [0.5, 0.5 + 1e-13],
        # Entries within the tolerance below zero are clipped, -0.0 becomes 0.0.
        [0.5, -1e-13, 0.5 + 1e-13, -0.0],
        [0.1] * 9 + [0.1 + 4e-13],
    ],
)
def test_candidates_normalize_to_the_same_bits_or_message(diag):
    expected = candidate_outcome(IncoherentState, diag)
    assert candidate_outcome(pure_floats.FloatIncoherentState, diag) == expected


@FUZZ
@given(st.lists(st.floats(0.0, 1e6), min_size=0, max_size=1500), st.floats(0.0, 1.0))
def test_np_sum_adds_as_numpy_does(values, zeros):
    rng = np.random.default_rng(len(values))
    values = [0.0 if rng.random() < zeros else v for v in values]
    assert same_bits(pure_floats._np_sum(values), float(np.sum(np.array(values, dtype=float))))


# Whole CLI calls: the same file on Python floats and, through a loader that
# never passes ``python_floats``, on numpy.


def cli_report(argv, capsys, monkeypatch, numpy_path: bool):
    """Exit code, report and stderr of one call; the report also records the
    type of the data of each state file the call turned into a state."""
    data_types = []
    to_state = cli.to_state
    with monkeypatch.context() as patch:
        patch.setattr(cli, "to_state", lambda sf: data_types.append(type(sf.data)) or to_state(sf))
        if numpy_path:
            load = state_io.load_state_file
            patch.setattr(cli, "load_state_file", lambda path, **keywords: load(path))
        code = cli.main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err, data_types


def assert_reports_agree(floats, numpy):
    """Reports of the two paths: equal but for the values that are computed
    through a norm, a dot product or a log, which agree within REL."""
    if isinstance(numpy, dict):
        assert floats.keys() == numpy.keys()
        for key in numpy:
            if key == "timings":
                continue
            if key in ("weights", "margin", "value", "c_tr", "mu", "q_k", "l1", "rel-ent",
                       "robustness", "operator_norm_distance"):
                a, b = np.atleast_1d(floats[key]), np.atleast_1d(numpy[key])
                # The margin is a difference of two terms of at most 1.
                atol = REL if key == "margin" else FLOOR
                assert a.shape == b.shape and np.allclose(a, b, rtol=REL, atol=atol), key
            else:
                assert_reports_agree(floats[key], numpy[key])
    elif isinstance(numpy, list):
        assert len(floats) == len(numpy)
        for a, b in zip(floats, numpy):
            assert_reports_agree(a, b)
    else:
        assert floats == numpy


def run_both(argv, capsys, monkeypatch):
    floats = cli_report(argv, capsys, monkeypatch, numpy_path=False)
    numpy = cli_report(argv, capsys, monkeypatch, numpy_path=True)
    assert floats[0] == numpy[0] and floats[2] == numpy[2]
    assert_reports_agree(floats[1], numpy[1])
    return floats


@settings(
    derandomize=True,
    max_examples=40,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(amplitudes(WELL_CONDITIONED))
def test_cli_reports_agree(tmp_path_factory, capsys, monkeypatch, x):
    root = tmp_path_factory.mktemp("pure-floats")
    path, cand = root / "x.json", root / "d.json"
    write_state(path, "pure", x)
    state = PureState(x)
    write_state(cand, "incoherent", nearest_incoherent(state).nearest.diag)
    for argv in (
        ["measures", "--input", str(path)],
        ["nearest", "--input", str(path)],
        ["verify", "--input", str(path), "--candidate", str(cand)],
    ):
        run_both(argv, capsys, monkeypatch)


@pytest.fixture(scope="module")
def threshold_files(tmp_path_factory):
    """One random state, written into two files padded with trailing blanks
    to one byte below CACHE_MIN_BYTES and to exactly CACHE_MIN_BYTES, and
    its nearest weights as a candidate."""
    root = tmp_path_factory.mktemp("threshold")
    x = np.random.default_rng(23).standard_normal((19_000, 2)).view(complex)[:, 0]
    text_path = root / "x.json"
    write_state(text_path, "pure", x)
    text = text_path.read_text()
    below, at = root / "below.json", root / "at.json"
    limit = state_io.CACHE_MIN_BYTES
    assert len(text) < limit
    below.write_text(text + " " * (limit - 1 - len(text)))
    at.write_text(text + " " * (limit - len(text)))
    cand = root / "d.json"
    write_state(cand, "incoherent", nearest_incoherent(x).nearest.diag)
    return str(below), str(at), str(cand)


@pytest.mark.parametrize("command", ["measures", "nearest", "verify"])
def test_the_path_changes_at_the_threshold_and_the_reports_agree(
    threshold_files, capsys, monkeypatch, command
):
    below, at, cand = threshold_files
    extra = ["--candidate", cand] if command == "verify" else []
    floats = cli_report([command, "--input", below, *extra], capsys, monkeypatch, numpy_path=False)
    above = cli_report([command, "--input", at, *extra], capsys, monkeypatch, numpy_path=False)
    numpy = cli_report([command, "--input", below, *extra], capsys, monkeypatch, numpy_path=True)
    assert set(floats[3]) == {list}
    assert set(above[3]) == set(numpy[3]) == {np.ndarray}
    assert floats[0] == above[0] == numpy[0] == 0
    assert floats[2] == above[2] == numpy[2] == ""
    # At CACHE_MIN_BYTES the file takes numpy's path: the same report as numpy's.
    strip = lambda report: {k: v for k, v in report.items() if k not in ("inputs", "timings")}  # noqa: E731
    assert strip(above[1]) == strip(numpy[1])
    assert_reports_agree(floats[1], numpy[1])


def test_a_candidate_too_large_for_python_floats_is_read_with_numpy(
    threshold_files, tmp_path, capsys, monkeypatch
):
    # The state's file is below the threshold, its candidate's above it (padded).
    below, _, cand = threshold_files
    big = tmp_path / "big-candidate.json"
    text = pathlib.Path(cand).read_text()
    big.write_text(text + " " * (state_io.CACHE_MIN_BYTES - len(text)))
    small = cli_report(["verify", "--input", below, "--candidate", cand], capsys, monkeypatch, False)
    large = cli_report(["verify", "--input", below, "--candidate", str(big)], capsys, monkeypatch, False)
    assert small[3] == [list, list] and large[3] == [list, np.ndarray]
    assert small[0] == large[0] == 0
    # The two candidates normalize to the same bits, so the certificates are equal.
    assert small[1]["certificate"] == large[1]["certificate"]


@pytest.fixture(scope="module")
def entry_limit_files(tmp_path_factory):
    """Pure states of 4-digit entries, with FLOAT_PATH_MAX_ENTRIES entries and
    with one more, in files far below CACHE_MIN_BYTES."""
    root = tmp_path_factory.mktemp("entry-limit")
    rng = np.random.default_rng(29)
    paths = []
    for n in (state_io.FLOAT_PATH_MAX_ENTRIES, state_io.FLOAT_PATH_MAX_ENTRIES + 1):
        path = root / f"x{n}.json"
        data = np.round(rng.standard_normal((n, 2)), 4).tolist()
        path.write_text(json.dumps({"kind": "pure", "dims": [n], "data": data}))
        assert path.stat().st_size < state_io.CACHE_MIN_BYTES
        paths.append(str(path))
    return paths


def test_the_path_changes_at_the_entry_limit(entry_limit_files, capsys, monkeypatch):
    at, above = entry_limit_files
    floats = cli_report(["nearest", "--input", at], capsys, monkeypatch, numpy_path=False)
    numpy = cli_report(["nearest", "--input", at], capsys, monkeypatch, numpy_path=True)
    beyond = cli_report(["nearest", "--input", above], capsys, monkeypatch, numpy_path=False)
    assert floats[3] == [list]
    assert numpy[3] == beyond[3] == [np.ndarray]
    assert floats[0] == numpy[0] == beyond[0] == 0
    assert_reports_agree(floats[1], numpy[1])
