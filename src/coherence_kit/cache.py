"""On-disk memo of parsed state documents, keyed by the sha256 of their bytes.

An entry is the file ``<digest>`` in ``$XDG_CACHE_HOME/coherence-kit`` (or
``~/.cache/coherence-kit``): one line with the document's kind, then one
``.npy`` array written with ``allow_pickle=False``. Entries are written to a
temporary file in the same directory and moved into place, so a reader sees a
whole entry or none. The directory is kept under ``MAX_BYTES``; the entries
least recently written or read go first.

The cache is an accelerator only: every ``OSError`` and every malformed entry
reads as a miss, and nothing here prints or raises.
"""

from __future__ import annotations

import contextlib
import math
import os

import numpy as np

MAX_BYTES = 256 << 20

# Longer than any kind line; a longer first line is not an entry.
_KIND_LINE_LIMIT = 64


def _directory() -> str | None:
    # A relative XDG_CACHE_HOME is ignored, as the XDG base directory spec asks.
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "coherence-kit") if os.path.isabs(base) else None


def lookup(digest: str) -> tuple[str, np.ndarray] | None:
    """The kind and the C-ordered array stored under ``digest``, or None.

    The array is read only when the bytes after its header are exactly the
    data the header describes, so a damaged header cannot make a large
    allocation. A hit refreshes the entry's mtime, so eviction spares it
    longest. The caller checks that the array fits the kind.
    """
    directory = _directory()
    if directory is None:
        return None
    path = os.path.join(directory, digest)
    try:
        with open(path, "rb") as fh:
            line = fh.readline(_KIND_LINE_LIMIT)
            if not line.endswith(b"\n") or np.lib.format.read_magic(fh) != (1, 0):
                return None
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
            count = math.prod(shape)
            size = os.fstat(fh.fileno()).st_size - fh.tell()
            if fortran_order or dtype.hasobject or count * dtype.itemsize != size:
                return None
            data = np.fromfile(fh, dtype=dtype, count=count).reshape(shape)
        os.utime(path)
    except (OSError, ValueError):
        return None
    return line[:-1].decode("latin-1"), data


def store(digest: str, kind: str, data: np.ndarray) -> None:
    """Store ``kind`` and ``data`` under ``digest``, then evict down to the cap."""
    directory = _directory()
    if directory is None or data.nbytes > MAX_BYTES:
        return
    path = os.path.join(directory, digest)
    temporary = os.path.join(directory, f".{digest}.{os.getpid()}.tmp")
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        with open(temporary, "xb") as fh:
            fh.write(kind.encode("ascii") + b"\n")
            np.save(fh, data, allow_pickle=False)
        os.replace(temporary, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(temporary)
        return
    _evict(directory)


def _evict(directory: str) -> None:
    """Delete the oldest files by mtime until the directory holds at most ``MAX_BYTES``."""
    files = []
    try:
        with os.scandir(directory) as entries:
            for entry in entries:
                if entry.is_file(follow_symlinks=False):
                    stat = entry.stat(follow_symlinks=False)
                    files.append((stat.st_mtime_ns, stat.st_size, entry.path))
    except OSError:
        return
    total = sum(size for _, size, _ in files)
    for _, size, path in sorted(files):
        if total <= MAX_BYTES:
            break
        try:
            os.unlink(path)
        except OSError:
            continue
        total -= size
