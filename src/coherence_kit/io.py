"""State file serialization: JSON documents with complex entries as [re, im] pairs.

The four kinds of state file are defined in one table, ``_KINDS``, which the
parser, the parse-cache check, the writer and ``to_state`` all read.

Floats are written as decimals with 17 significant digits (``%.17g``),
enough for every double to round-trip exactly, so write-then-read reproduces
amplitudes bit for bit. Arrays are written and parsed in whole-array numpy
passes; a document numpy cannot read as one array goes through the per-entry
parser, which accepts the same documents and names the first bad entry.

Every float array, and every list of numbers, is written by the kernel in
``floatfmt``: it computes the digits of every element with
1e-6 <= |x| < 1e17 exactly in numpy (Dekker's error-free product), and
gives every other element, and any whose decimal exponent it cannot settle,
to one ``%`` pass. Its text is the bytes ``%.17g`` gives each element, laid
out as ``render_json`` lays out lists. Text is made, written, and for a
state file hashed, as a sequence of pieces (``render_pieces``).

A document of at least ``CACHE_MIN_BYTES`` is parsed once: its validated
contents are memoized on disk under the sha256 digest of its bytes (see
``cache``, imported only for such a document), and a later load of the same
bytes reads them back from there.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections.abc import Iterator
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import (
    BipartitePureState,
    DensityMatrix,
    IncoherentState,
    PureState,
    ValidationError,
)

# Each kind of state file: the state class it describes, whether its entries
# are real, and how many ``dims`` it takes.
_Kind = NamedTuple("_Kind", [("state", type), ("real", bool), ("ndims", int)])
_KINDS = {
    "pure": _Kind(PureState, real=False, ndims=1),
    "mixed": _Kind(DensityMatrix, real=False, ndims=1),
    "bipartite-pure": _Kind(BipartitePureState, real=False, ndims=2),
    "incoherent": _Kind(IncoherentState, real=True, ndims=1),
}
STATE_KINDS = tuple(_KINDS)

# An error message quotes at most this many characters of a bad entry.
_QUOTE_LIMIT = 100

# Documents of at least this size go through the parse cache. A smaller one
# parses in milliseconds (6 ms at 240 KB), so it is not worth an entry.
CACHE_MIN_BYTES = 1 << 20


class StateFile(NamedTuple):
    """Parsed state document: kind, explicit dims, complex data array.

    ``digest`` is the sha256 hex digest of the bytes that were parsed, set
    when the document was read from a file.
    """

    kind: str
    dims: tuple[int, ...]
    data: np.ndarray
    digest: str | None = None


def _is_number(value) -> bool:
    # bool is an int subclass, but JSON true and false are not numbers.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _to_float(value, where: str) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{where}: integer too large for a double") from None


def _repr_pieces(value):
    """``repr`` of a parsed JSON value, piece by piece."""
    if isinstance(value, list):
        yield "["
        for i, item in enumerate(value):
            if i:
                yield ", "
            yield from _repr_pieces(item)
        yield "]"
    elif isinstance(value, dict):
        yield "{"
        for i, (key, item) in enumerate(value.items()):
            if i:
                yield ", "
            yield from _repr_pieces(key)
            yield ": "
            yield from _repr_pieces(item)
        yield "}"
    elif isinstance(value, str):
        # One character past the limit is enough to know the quote is cut.
        yield repr(value[: _QUOTE_LIMIT + 1])
    else:
        yield repr(value)


def _quote(entry) -> str:
    """``repr(entry)``, or its first ``_QUOTE_LIMIT`` characters and "..." when
    longer; a large entry is never rendered whole."""
    text = ""
    for piece in _repr_pieces(entry):
        text += piece
        if len(text) > _QUOTE_LIMIT:
            return text[:_QUOTE_LIMIT] + "..."
    return text


def _parse_complex(entry, where: str) -> complex:
    if _is_number(entry):
        return complex(_to_float(entry, where))
    if isinstance(entry, list) and len(entry) == 2 and all(map(_is_number, entry)):
        return complex(_to_float(entry[0], where), _to_float(entry[1], where))
    raise ValidationError(f"{where}: expected a number or a [re, im] pair, got {_quote(entry)}")


def _parse_real(entry, where: str) -> float:
    if _is_number(entry):
        return _to_float(entry, where)
    raise ValidationError(f"{where}: expected a real number, got {_quote(entry)}")


def _shape(kind: str, dims: tuple[int, ...]) -> tuple[int, ...]:
    """The array shape of ``dims``; a mixed state's one dim gives both sides."""
    return dims * 2 if kind == "mixed" else dims


def _parse_entries(data: list, shape: tuple[int, ...], parse, where: str) -> list:
    """``data``, a list of ``shape[0]`` items, read entry by entry with
    ``parse``; a matrix's rows must be lists, each read as a vector."""
    if len(shape) == 1:
        return [parse(e, f"{where}[{i}]") for i, e in enumerate(data)]
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != shape[1]:
            raise ValidationError(f"{where}[{i}] must be a list of {shape[1]} entries")
        rows.append(_parse_entries(row, shape[1:], parse, f"{where}[{i}]"))
    return rows


def _holds_bool(data: list, ndim: int) -> bool:
    """Whether an entry of the ``ndim``-deep nested list ``data`` is a bool."""
    entries = data
    for _ in range(ndim - 1):
        entries = itertools.chain.from_iterable(entries)
    return bool in set(map(type, entries))


def _parse_array(
    data: list, shape: tuple[int, ...], real: bool, may_hold_bools: bool
) -> np.ndarray | None:
    """``data`` as one array, or None when numpy does not read it as numbers.

    Plain numbers must have ``shape`` and, unless ``real``, [re, im] pairs
    ``shape + (2,)``. On None the per-entry parser decides the document, so
    what numpy reads otherwise (strings, null, bools, ints beyond 64 bits,
    ragged rows, numbers mixed with pairs) keeps its result or its message.
    numpy reads a bool among numbers as 1 or 0, so unless ``may_hold_bools``
    is false the entries' types are scanned once for bools.
    """
    try:
        arr = np.array(data)
    except (ValueError, OverflowError):
        return None
    if arr.dtype.kind not in "fi":
        return None
    if may_hold_bools and _holds_bool(data, arr.ndim):
        return None
    if arr.shape == shape:
        return arr.astype(float if real else complex)
    if not real and arr.shape == shape + (2,):
        # The same bits as complex(re, im): the pairs become the two halves of
        # each complex entry, with no arithmetic that could touch -0.0 or inf.
        return np.ascontiguousarray(arr, dtype=float).view(complex)[..., 0]
    return None


def parse_state_document(
    doc, source: str = "<memory>", *, may_hold_bools: bool = True
) -> StateFile:
    """The validated contents of a state document.

    ``may_hold_bools`` false says that no value in ``doc`` is a bool, as when
    the JSON text it was read from holds neither ``true`` nor ``false``; the
    scan of every entry's type for bools is then skipped.
    """
    if not isinstance(doc, dict):
        raise ValidationError(f"{source}: state document must be an object")
    kind = doc.get("kind")
    if kind not in STATE_KINDS:
        raise ValidationError(
            f"{source}: field 'kind' must be one of {STATE_KINDS}, got {kind!r}"
        )
    dims = doc.get("dims")
    if not isinstance(dims, list) or not all(type(d) is int and d >= 1 for d in dims):
        raise ValidationError(f"{source}: field 'dims' must be a list of positive integers")
    data = doc.get("data")
    if not isinstance(data, list) or not data:
        raise ValidationError(f"{source}: field 'data' must be a non-empty list")

    spec = _KINDS[kind]
    if len(dims) != spec.ndims:
        raise ValidationError(f"{source}: kind '{kind}' takes dims of length {spec.ndims}")
    shape = _shape(kind, tuple(dims))
    if len(data) != shape[0]:
        items = "entries" if len(shape) == 1 else "rows"
        raise ValidationError(f"{source}: 'data' has {len(data)} {items}, dims say {shape[0]}")
    values = _parse_array(data, shape, spec.real, may_hold_bools)
    if values is None:
        parse = _parse_real if spec.real else _parse_complex
        values = np.array(_parse_entries(data, shape, parse, f"{source}: data"))
    return StateFile(kind=kind, dims=tuple(dims), data=values)


def _parse_int(literal: str):
    # Floats are written with "%.17g", which writes -0.0 as "-0"; JSON would
    # read that back as the integer 0 and lose the sign.
    return -0.0 if literal == "-0" else int(literal)


def load_state_file(path) -> StateFile:
    """Read, parse and hash a state file; the file is read once.

    A document of at least ``CACHE_MIN_BYTES`` whose bytes were parsed before
    is read back from the parse cache instead of parsed again.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    cacheable = len(raw) >= CACHE_MIN_BYTES
    sf = _cached_state_file(digest) if cacheable else None
    if sf is not None:
        return sf
    try:
        doc = json.loads(raw.decode("utf-8"), parse_int=_parse_int)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise ValidationError(f"{path}: JSON nested too deeply") from None
    # JSON has no bool but the literals true and false.
    may_hold_bools = b"true" in raw or b"false" in raw
    sf = parse_state_document(doc, source=str(path), may_hold_bools=may_hold_bools)
    if cacheable:
        from . import cache

        cache.store(digest, sf.kind, sf.data)
    return sf._replace(digest=digest)


def _cached_state_file(digest: str) -> StateFile | None:
    """The StateFile the parse cache holds under ``digest``, or None when
    there is no entry or its array lacks the dtype, rank or shape a parse of
    its kind gives."""
    from . import cache

    kind, data = cache.lookup(digest) or (None, None)
    spec = _KINDS.get(kind)
    if spec is None or data.dtype != (float if spec.real else complex) or not data.size:
        return None
    dims = data.shape[: spec.ndims]
    if len(dims) != spec.ndims or data.shape != _shape(kind, dims):
        return None
    return StateFile(kind=kind, dims=dims, data=data, digest=digest)


def state_document(kind: str, data: np.ndarray) -> dict:
    """The document of a state; ``data`` becomes a float array of shape
    ``dims`` (incoherent) or ``dims + (2,)`` ([re, im] pairs)."""
    spec = _KINDS.get(kind)
    if spec is None:
        raise ValidationError(f"unknown state kind {kind!r}")
    arr = np.asarray(data)
    if spec.real:
        body = arr.astype(float)
    else:
        body = np.stack([arr.real, arr.imag], -1).astype(float, copy=False)
    return {"kind": kind, "dims": list(arr.shape[: spec.ndims]), "data": body}


def _float_template(shape: tuple[int, ...], indent: int, level: int) -> str:
    """The ``%`` template of a float array of ``shape`` (one ``%.17g`` per
    element) laid out as ``render_json`` lays out lists at ``indent`` and
    ``level``."""
    if not shape:
        return "%.17g"
    if not shape[0]:
        return "[]"
    item = _float_template(shape[1:], indent, level + 1)
    first, between, last = _separators(indent, level)
    return "[" + first + between.join([item] * shape[0]) + last + "]"


def _require_finite(finite: bool) -> None:
    if not finite:
        raise ValidationError("reports must contain only finite numbers")


def format_finite(obj, indent: int = 0, level: int = 0) -> Iterator[str]:
    """A float, a list or tuple of numbers, or a numeric ndarray, as the
    pieces of its ``%.17g`` text laid out at ``indent`` and ``level``; a
    ValidationError, before any piece is made, unless every number is finite.

    A list, tuple or array is formatted by ``floatfmt``, which makes the text
    a chunk at a time as the pieces are taken.
    """
    if not isinstance(obj, (np.ndarray, list, tuple)):
        _require_finite(math.isfinite(obj))
        return iter(["%.17g" % obj])
    if not (isinstance(obj, np.ndarray) and obj.dtype in (np.float16, np.float32, np.float64)):
        # ``%`` would make every element a double as well.
        obj = np.asarray(obj, dtype=np.float64)
    _require_finite(bool(np.isfinite(obj).all()))
    from . import floatfmt

    return floatfmt.format_array(obj, indent, level)


def render_pieces(obj, indent: int = 0) -> Iterator[str]:
    """The JSON text of ``obj``, floats at 17 significant digits, as pieces.
    Every number is checked before this returns; a ``floatfmt`` array's text
    is made a chunk at a time as it is taken."""
    parts = [(part,) if isinstance(part, str) else part for part in _parts(obj, indent, 0)]
    return itertools.chain.from_iterable(parts)


def _parts(obj, indent: int, level: int):
    """The pieces of ``render_pieces``, but with the text of a float or
    integer ndarray, or of a list of nothing but Python floats, as the
    iterator of its one ``format_finite`` pass; ints, bools and numpy scalars
    are elements."""
    if (isinstance(obj, np.ndarray) and obj.ndim and obj.dtype.kind in "fiu") or (
        isinstance(obj, (list, tuple)) and obj and all(type(v) is float for v in obj)
    ):
        yield format_finite(obj, indent, level)
    elif isinstance(obj, dict) and obj:
        keys = (json.dumps(str(k)) + ": " for k in obj)
        yield from _wrap(keys, obj.values(), "{}", indent, level)
    elif isinstance(obj, (list, tuple)) and obj:
        yield from _wrap(itertools.repeat(""), obj, "[]", indent, level)
    else:
        yield _scalar(obj)


def _scalar(obj) -> str:
    """The JSON text of a scalar or an empty container."""
    if isinstance(obj, (bool, str, dict, list, tuple)) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return next(format_finite(float(obj)))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _wrap(keys, values, brackets: str, indent: int, level: int):
    """The parts of a non-empty JSON object or array: its brackets around each
    key (empty in an array) and value, laid out at ``indent`` and ``level``."""
    first, between, last = _separators(indent, level)
    separator = brackets[0] + first
    for key, value in zip(keys, values):
        if isinstance(value, (dict, list, tuple, np.ndarray)):
            yield separator + key
            yield from _parts(value, indent, level + 1)
        else:
            yield separator + key + _scalar(value)
        separator = between
    yield last + brackets[1]


def _separators(indent: int, level: int) -> tuple[str, str, str]:
    """The text after a container's opening bracket, between its items, and
    before its closing bracket."""
    if not indent:
        return "", ", ", ""
    pad = "\n" + " " * (indent * (level + 1))
    return pad, "," + pad, "\n" + " " * (indent * level)


def render_json(obj, indent: int = 0) -> str:
    """``render_pieces(obj, indent)`` as one string."""
    return "".join(render_pieces(obj, indent))


def dump_state_document(doc: dict) -> str:
    return render_json(doc)


def write_state_file(fh, kind: str, data: np.ndarray) -> tuple[str, int]:
    """Write ``dump_state_document(state_document(kind, data))`` and a newline
    to the open text file ``fh``, a piece at a time; return the sha256 hex
    digest of the bytes written, as ``load_state_file`` gives it, and their count."""
    digest = hashlib.sha256()
    size = 0
    for piece in itertools.chain(render_pieces(state_document(kind, data)), ("\n",)):
        raw = piece.encode()
        fh.write(piece)
        digest.update(raw)
        size += len(raw)
    return digest.hexdigest(), size


def to_state(sf: StateFile):
    """Materialize the validated state object a document describes."""
    return _KINDS[sf.kind].state(sf.data)


def file_digest(path) -> str:
    """sha256 hex digest of a file's current bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
