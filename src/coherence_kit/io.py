"""State file serialization: JSON documents with complex entries as [re, im] pairs.

Floats are written as decimals with 17 significant digits, enough for every
double to round-trip exactly, so write-then-read reproduces amplitudes bit
for bit. Arrays are written and parsed in whole-array numpy passes; a
document numpy cannot read as one array goes through the per-entry parser,
which accepts the same documents and names the first bad entry.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import (
    BipartitePureState,
    DensityMatrix,
    IncoherentState,
    PureState,
    ValidationError,
)

STATE_KINDS = ("pure", "mixed", "bipartite-pure", "incoherent")

# An error message quotes at most this many characters of a bad entry.
_QUOTE_LIMIT = 100


@dataclass(frozen=True, eq=False)
class StateFile:
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

    if kind in ("pure", "incoherent"):
        if len(dims) != 1:
            raise ValidationError(f"{source}: kind '{kind}' takes dims of length 1")
        n = dims[0]
        if len(data) != n:
            raise ValidationError(f"{source}: 'data' has {len(data)} entries, dims say {n}")
        values = _parse_array(data, (n,), kind == "incoherent", may_hold_bools)
        if values is None:
            parse = _parse_real if kind == "incoherent" else _parse_complex
            values = np.array([parse(e, f"{source}: data[{i}]") for i, e in enumerate(data)])
        return StateFile(kind=kind, dims=(n,), data=values)

    if kind == "mixed":
        if len(dims) != 1:
            raise ValidationError(f"{source}: kind 'mixed' takes dims of length 1")
        shape = (dims[0], dims[0])
    else:
        if len(dims) != 2:
            raise ValidationError(f"{source}: kind 'bipartite-pure' takes dims of length 2")
        shape = (dims[0], dims[1])
    if len(data) != shape[0]:
        raise ValidationError(f"{source}: 'data' has {len(data)} rows, dims say {shape[0]}")
    values = _parse_array(data, shape, False, may_hold_bools)
    if values is None:
        rows = []
        for i, row in enumerate(data):
            if not isinstance(row, list) or len(row) != shape[1]:
                raise ValidationError(
                    f"{source}: data[{i}] must be a list of {shape[1]} entries"
                )
            rows.append(
                [_parse_complex(e, f"{source}: data[{i}][{j}]") for j, e in enumerate(row)]
            )
        values = np.array(rows)
    return StateFile(kind=kind, dims=tuple(dims), data=values)


def _parse_int(literal: str):
    # Floats are written with "%.17g", which writes -0.0 as "-0"; JSON would
    # read that back as the integer 0 and lose the sign.
    return -0.0 if literal == "-0" else int(literal)


def load_state_file(path) -> StateFile:
    """Read, parse and hash a state file; the file is read once."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc
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
    return replace(sf, digest=hashlib.sha256(raw).hexdigest())


def state_document(kind: str, data: np.ndarray) -> dict:
    """The document of a state; ``data`` becomes a float array of shape
    ``dims`` (incoherent) or ``dims + (2,)`` ([re, im] pairs)."""
    arr = np.asarray(data)
    if kind == "incoherent":
        body = arr.astype(float)
    elif kind in ("pure", "mixed", "bipartite-pure"):
        body = np.stack([arr.real, arr.imag], -1).astype(float, copy=False)
    else:
        raise ValidationError(f"unknown state kind {kind!r}")
    dims = list(arr.shape[:2] if kind == "bipartite-pure" else arr.shape[:1])
    return {"kind": kind, "dims": dims, "data": body}


def format_floats(shape: tuple[int, ...], values, indent: int = 0, level: int = 0) -> str:
    """Floats as JSON text at 17 significant digits, in one ``%`` pass.

    ``shape`` () formats the single float ``values``; otherwise ``values`` is
    the flat tuple of a float array of that shape, laid out as nested lists
    the way ``render_json`` lays out lists at ``indent`` and ``level``. No
    check for finiteness is made here.
    """
    return _float_template(shape, indent, level) % values


def _float_template(shape: tuple[int, ...], indent: int, level: int) -> str:
    if not shape:
        return "%.17g"
    if not shape[0]:
        return "[]"
    item = _float_template(shape[1:], indent, level + 1)
    return _wrap([item] * shape[0], "[", "]", indent, level)


def _require_finite(finite: bool) -> None:
    if not finite:
        raise ValidationError("reports must contain only finite numbers")


def render_json(obj, indent: int = 0, _level: int = 0) -> str:
    """JSON text with every float rendered at 17 significant digits.

    A float ndarray, or a list of nothing but Python floats, is formatted in
    one pass; ints, bools and numpy scalars take the element path.
    """
    if isinstance(obj, np.ndarray) and obj.ndim and obj.dtype.kind == "f":
        _require_finite(bool(np.isfinite(obj).all()))
        return format_floats(obj.shape, tuple(obj.ravel().tolist()), indent, _level)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{json.dumps(str(k))}: {render_json(v, indent, _level + 1)}"
            for k, v in obj.items()
        ]
        return _wrap(items, "{", "}", indent, _level)
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        if all(type(v) is float for v in obj):
            _require_finite(all(map(math.isfinite, obj)))
            return format_floats((len(obj),), tuple(obj), indent, _level)
        items = [render_json(v, indent, _level + 1) for v in obj]
        return _wrap(items, "[", "]", indent, _level)
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        _require_finite(math.isfinite(value))
        return format_floats((), value)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _wrap(items: list[str], opener: str, closer: str, indent: int, level: int) -> str:
    if not indent:
        return opener + ", ".join(items) + closer
    pad = " " * (indent * (level + 1))
    return (
        opener + "\n" + pad + (",\n" + pad).join(items)
        + "\n" + " " * (indent * level) + closer
    )


def dump_state_document(doc: dict) -> str:
    return render_json(doc)


def write_state_file(path, kind: str, data: np.ndarray) -> None:
    Path(path).write_text(dump_state_document(state_document(kind, data)) + "\n")


def to_state(sf: StateFile):
    """Materialize the validated state object a document describes."""
    if sf.kind == "pure":
        return PureState(sf.data)
    if sf.kind == "incoherent":
        return IncoherentState(sf.data)
    if sf.kind == "mixed":
        return DensityMatrix(sf.data)
    return BipartitePureState(sf.data)


def file_digest(path) -> str:
    """sha256 hex digest of a file's current bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
