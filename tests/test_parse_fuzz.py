"""The whole-array state-file parse against the per-entry parse.

``parse_state_document`` reads a document as one numpy array when it can
(``io._parse_array``) and otherwise entry by entry. Both paths must accept
the same documents and give the same array bit for bit, or refuse them with
the same message. Each drawn document is parsed as the loader parses it, and
again with ``_parse_array`` returning None, which forces the per-entry path.
A ``pure`` or ``incoherent`` document parsed into Python numbers
(``python_floats``) is held to the same: ``_parse_floats`` against the
per-entry path, and both against the numpy parse.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherence_kit import io as state_io
from coherence_kit.io import parse_state_document

# Plain numbers as ``json.loads`` gives them: floats of every kind (``-0``
# is read as -0.0), ints within and beyond int64 and beyond a double.
NUMBERS = st.one_of(
    st.floats(),
    st.just(-0.0),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**63, 2**64, 10**400, -(10**400)]),
)
PAIRS = st.lists(NUMBERS, min_size=2, max_size=2)
# Entries no parse accepts as a number: bools (numpy would read them as 1
# and 0), alone or in a pair, strings, null, and lists of the wrong length.
ODD = st.one_of(
    st.booleans(),
    st.tuples(NUMBERS, st.booleans()).map(list),
    st.text(max_size=3),
    st.none(),
    st.lists(NUMBERS, max_size=3),
)
ENTRIES = {
    "pure": [NUMBERS, PAIRS, st.one_of(NUMBERS, PAIRS)],
    "incoherent": [NUMBERS, st.integers(-(2**70), 2**70), st.one_of(NUMBERS, PAIRS)],
    "mixed": [NUMBERS, PAIRS, st.one_of(NUMBERS, PAIRS)],
    "bipartite-pure": [NUMBERS, PAIRS, st.one_of(NUMBERS, PAIRS)],
}


@st.composite
def documents(draw, kind: str) -> dict:
    """A document of ``kind`` whose entries share one style, with at most one
    flaw: an odd entry or, for a matrix, a row of the wrong length. A
    bipartite state is m x n with m and n drawn separately."""
    n = draw(st.integers(1, 4))
    entry = draw(st.sampled_from(ENTRIES[kind]))
    rows = {"mixed": n, "bipartite-pure": draw(st.integers(1, 4))}.get(kind, 1)
    data = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(rows)]
    flaw = draw(st.sampled_from([None, None, "odd", "ragged"]))
    row = data[draw(st.integers(0, rows - 1))]
    if flaw == "odd":
        row[draw(st.integers(0, n - 1))] = draw(ODD)
    elif flaw == "ragged" and draw(st.booleans()):
        row.pop()
    elif flaw == "ragged":
        row.append(draw(entry))
    if kind == "bipartite-pure":
        return {"kind": kind, "dims": [rows, n], "data": data}
    return {"kind": kind, "dims": [n], "data": data if kind == "mixed" else data[0]}


def outcome(doc: dict):
    """What parsing ``doc`` gives: kind, dims, dtype, shape and the bits of
    the array, or the type and message of the error."""
    try:
        sf = parse_state_document(doc)
    except Exception as exc:  # noqa: BLE001 - any difference between the paths counts
        return type(exc).__name__, str(exc)
    data = np.ascontiguousarray(sf.data)
    return sf.kind, sf.dims, data.dtype.str, data.shape, data.view(np.uint64).tolist()


@pytest.mark.parametrize("kind", ["pure", "incoherent", "mixed", "bipartite-pure"])
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_whole_array_parse_matches_per_entry_parse(kind, data):
    doc = data.draw(documents(kind))
    fast = outcome(doc)
    with mock.patch.object(state_io, "_parse_array", lambda *args: None):
        slow = outcome(doc)
    assert fast == slow


def float_outcome(doc: dict, may_hold_bools: bool):
    """``outcome`` of a parse with ``python_floats``: the list it gives, as an
    array, or the type and message of the error."""
    try:
        sf = parse_state_document(doc, may_hold_bools=may_hold_bools, python_floats=True)
    except Exception as exc:  # noqa: BLE001 - any difference between the paths counts
        return type(exc).__name__, str(exc)
    assert type(sf.data) is list
    data = np.array(sf.data, dtype=float if sf.kind == "incoherent" else complex)
    return sf.kind, sf.dims, data.dtype.str, data.shape, data.view(np.uint64).tolist()


@pytest.mark.parametrize("kind", ["pure", "incoherent"])
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_python_float_parse_matches_per_entry_parse(kind, data):
    doc = data.draw(documents(kind))
    # The loader says a document may hold bools when its text holds true or false.
    text = json.dumps(doc)
    may_hold_bools = "true" in text or "false" in text
    fast = float_outcome(doc, may_hold_bools)
    with mock.patch.object(state_io, "_parse_floats", lambda *args: None):
        slow = float_outcome(doc, may_hold_bools)
    assert fast == slow
    # Both give the numpy parse's values, or its message.
    assert fast == outcome(doc)
