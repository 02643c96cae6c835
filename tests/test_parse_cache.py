"""The parse cache: a document whose bytes were parsed before is read back, not parsed.

Every test lowers the size threshold to 0, so small documents take the cache
path; ``conftest.py`` gives each test an empty cache directory of its own.
"""

import hashlib
import io
import json
import os
import pathlib
import re

import numpy as np
import pytest

from coherence_kit import cache, cli
from coherence_kit import io as state_io
from coherence_kit.io import load_state_file
from coherence_kit.random_states import random_real_separable
from coherence_kit.trace_distance import nearest_incoherent
from state_files import write_state

TIMINGS = re.compile(r'"timings": \{[^{}]*\}')


@pytest.fixture(autouse=True)
def threshold_zero(monkeypatch):
    monkeypatch.setattr(state_io, "CACHE_MIN_BYTES", 0)


@pytest.fixture
def cache_dir():
    return pathlib.Path(os.environ["XDG_CACHE_HOME"]) / "coherence-kit"


@pytest.fixture
def no_parse(monkeypatch):
    """Make any parse fail: a load that still succeeds was a cache hit."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a document was parsed")

    def arm():
        monkeypatch.setattr(state_io, "parse_state_document", forbidden)

    return arm


def entry_path(cache_dir, path) -> pathlib.Path:
    return cache_dir / hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


def write_pure(path, amplitudes) -> pathlib.Path:
    write_state(path, "pure", np.asarray(amplitudes, dtype=complex))
    return path


def forced_parse(path):
    """What a parse of the file gives, with the cache out of reach."""
    text = pathlib.Path(path).read_text()
    return state_io.parse_state_document(json.loads(text, parse_int=state_io._parse_int))


def bits(values) -> np.ndarray:
    return np.ascontiguousarray(values).view(np.uint64)


def assert_same_state_file(got, want):
    assert got.kind == want.kind
    assert got.dims == want.dims
    assert got.data.dtype == want.data.dtype and got.data.shape == want.data.shape
    assert got.data.flags.c_contiguous
    assert np.array_equal(bits(got.data), bits(want.data))


def special_values(size: int) -> np.ndarray:
    """Signed zeros, subnormals, values that need all 17 digits, then random doubles."""
    fixed = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 4.9406564584124654e-320,
             0.1, 1 / 3, 0.30000000000000004, 1.0000000000000002, 123456789.01234567]
    drawn = np.random.default_rng(71).standard_normal(size)
    return np.resize(np.concatenate([fixed, drawn]), size)


def complex_values(shape) -> np.ndarray:
    size = int(np.prod(shape))
    v = special_values(size)
    return (v + 1j * np.roll(v, 3)).reshape(shape)


KINDS = [("pure", (12,)), ("mixed", (5, 5)), ("bipartite-pure", (3, 7)), ("incoherent", (12,))]


class TestHits:
    @pytest.mark.parametrize("kind, shape", KINDS)
    def test_hit_returns_the_state_file_of_the_miss(
        self, tmp_path, cache_dir, no_parse, kind, shape
    ):
        data = special_values(shape[0]) if kind == "incoherent" else complex_values(shape)
        path = tmp_path / "s.json"
        write_state(path, kind, data)
        miss = load_state_file(path)
        assert entry_path(cache_dir, path).is_file()
        no_parse()
        hit = load_state_file(path)
        assert_same_state_file(hit, miss)
        assert hit.digest == miss.digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert np.array_equal(bits(miss.data), bits(data))

    def test_documents_below_the_threshold_are_not_cached(self, tmp_path, cache_dir, monkeypatch):
        path = write_pure(tmp_path / "x.json", [0.8, 0.6])
        monkeypatch.setattr(state_io, "CACHE_MIN_BYTES", path.stat().st_size + 1)
        load_state_file(path)
        assert not cache_dir.exists()

    def test_failed_parse_stores_nothing(self, tmp_path, cache_dir):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "pure", "dims": [2], "data": [[1, 0], "oops"]}\n')
        with pytest.raises(state_io.ValidationError):
            load_state_file(path)
        assert not cache_dir.exists()

    def test_hit_refreshes_mtime(self, tmp_path, cache_dir):
        path = write_pure(tmp_path / "x.json", [0.8, 0.6])
        load_state_file(path)
        entry = entry_path(cache_dir, path)
        os.utime(entry, ns=(10**9, 10**9))
        load_state_file(path)
        assert entry.stat().st_mtime_ns > 10**9

    def test_new_directory_is_private(self, tmp_path, cache_dir):
        load_state_file(write_pure(tmp_path / "x.json", [0.8, 0.6]))
        assert cache_dir.stat().st_mode & 0o077 == 0


@pytest.fixture
def command_inputs(tmp_path):
    amplitudes = np.array([2 / 3, 2 / 3, 1 / 3])
    x = write_pure(tmp_path / "x.json", amplitudes)
    d = tmp_path / "d.json"
    write_state(d, "incoherent", nearest_incoherent(amplitudes).nearest.diag)
    rho = tmp_path / "rho.json"
    write_state(rho, "mixed", random_real_separable(2, 4, np.random.default_rng(13)).matrix)
    v = tmp_path / "v.json"
    write_state(v, "bipartite-pure", np.diag([0.8, 0.6]))
    return {"x": str(x), "d": str(d), "rho": str(rho), "v": str(v)}


ARGVS = {
    "nearest": ["nearest", "--input", "{x}"],
    "measures": ["measures", "--input", "{x}", "--input", "{rho}", "--max-iters", "50"],
    "verify": ["verify", "--input", "{x}", "--candidate", "{d}"],
    "entanglement": ["entanglement", "--input", "{v}"],
    "oracle": ["oracle", "--input", "{rho}", "--resolution", "20"],
    "channel-verify": ["channel-verify", "--sigma", "{rho}", "--input", "{v}", "--local-dim", "2"],
}


class TestReports:
    @pytest.mark.parametrize("command", sorted(ARGVS))
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_report_identical_on_miss_and_hit(self, command_inputs, capsys, no_parse, command, fmt):
        argv = [a.format(**command_inputs) for a in ARGVS[command]] + ["--format", fmt]
        assert cli.main(argv) == 0
        miss = capsys.readouterr()
        no_parse()
        assert cli.main(argv) == 0
        hit = capsys.readouterr()
        assert hit.err == miss.err == ""
        if fmt == "json":
            assert TIMINGS.sub("", hit.out) == TIMINGS.sub("", miss.out)
            assert set(json.loads(hit.out)["timings"]) == {"load_s", "wall_s"}
        else:
            def untimed(out):
                return [line for line in out.splitlines() if not line.startswith("timings.")]

            assert untimed(hit.out) == untimed(miss.out)


class TestRandomWriteThrough:
    @pytest.mark.parametrize(
        "kind, sizes", [("pure", ["--n", "50"]), ("mixed", ["--n", "6"]),
                        ("bipartite-pure", ["--m", "3", "--n", "5"])],
    )
    def test_entry_equals_a_parse_of_the_file(self, tmp_path, cache_dir, no_parse, kind, sizes):
        path = tmp_path / "s.json"
        argv = ["random", "--kind", kind, *sizes, "--seed", "5", "--output", str(path)]
        assert cli.main(argv) == 0
        assert entry_path(cache_dir, path).is_file()
        parsed = forced_parse(path)
        no_parse()
        assert_same_state_file(load_state_file(path), parsed)

    @pytest.mark.parametrize("argv", [["--count", "2", "--output", "{out}"], []])
    def test_count_two_and_stdout_store_nothing(self, tmp_path, cache_dir, capsys, argv):
        argv = [a.format(out=tmp_path / "s.jsonl") for a in argv]
        assert cli.main(["random", "--n", "20", *argv]) == 0
        capsys.readouterr()
        assert not cache_dir.exists()


def npy_bytes(array, allow_pickle=False) -> bytes:
    out = io.BytesIO()
    np.save(out, array, allow_pickle=allow_pickle)
    return out.getvalue()


def huge_header() -> bytes:
    """A well-formed header that claims 2^40 entries: refused by its size, before
    anything is allocated."""
    out = io.BytesIO()
    header = {"descr": "<c16", "fortran_order": False, "shape": (2**40,)}
    np.lib.format.write_array_header_1_0(out, header)
    return out.getvalue()


BAD_ENTRIES = {
    "corrupt": lambda good, data: b"\x93NUMPY garbage",
    "empty": lambda good, data: b"",
    "truncated": lambda good, data: good[:-8],
    "trailing": lambda good, data: good + b"\0",
    "unknown-kind": lambda good, data: b"purer\n" + npy_bytes(data),
    "wrong-kind": lambda good, data: b"incoherent\n" + npy_bytes(data),
    "no-kind-line": lambda good, data: npy_bytes(data),
    "wrong-dtype": lambda good, data: b"pure\n" + npy_bytes(data.astype(np.complex64)),
    "byte-swapped": lambda good, data: b"pure\n" + npy_bytes(data.astype(">c16")),
    "wrong-shape": lambda good, data: b"pure\n" + npy_bytes(data.reshape(2, 2)),
    "empty-array": lambda good, data: b"pure\n" + npy_bytes(data[:0]),
    "pickled": lambda good, data: b"pure\n" + npy_bytes(data.astype(object), allow_pickle=True),
    "huge-shape": lambda good, data: b"pure\n" + huge_header() + data.tobytes(),
}


class TestBadEntries:
    @pytest.mark.parametrize("bad", sorted(BAD_ENTRIES))
    def test_ignored_and_replaced(self, tmp_path, cache_dir, capsys, bad):
        path = write_pure(tmp_path / "x.json", [0.5, 0.5j, -0.5, 0.5])
        reference = load_state_file(path)
        entry = entry_path(cache_dir, path)
        good = entry.read_bytes()
        entry.write_bytes(BAD_ENTRIES[bad](good, reference.data))
        assert_same_state_file(load_state_file(path), reference)
        assert entry.read_bytes() == good
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("kind, shape", [("mixed", (3, 4)), ("bipartite-pure", (12,))])
    def test_matrix_kinds_check_their_shape(self, tmp_path, cache_dir, kind, shape):
        path = tmp_path / "rho.json"
        write_state(path, "mixed", np.eye(3, dtype=complex) / 3)
        reference = load_state_file(path)
        entry = entry_path(cache_dir, path)
        good = entry.read_bytes()
        entry.write_bytes(kind.encode() + b"\n" + npy_bytes(np.zeros(shape, dtype=complex)))
        assert_same_state_file(load_state_file(path), reference)
        assert entry.read_bytes() == good

    def test_fortran_order_entry_is_a_miss(self, tmp_path, cache_dir):
        path = tmp_path / "v.json"
        write_state(path, "bipartite-pure", complex_values((3, 4)))
        reference = load_state_file(path)
        entry = entry_path(cache_dir, path)
        good = entry.read_bytes()
        entry.write_bytes(b"bipartite-pure\n" + npy_bytes(np.asfortranarray(reference.data)))
        assert_same_state_file(load_state_file(path), reference)
        assert entry.read_bytes() == good


class TestUnusableCache:
    def report(self, command_inputs, capsys):
        argv = [a.format(**command_inputs) for a in ARGVS["measures"]]
        code = cli.main(argv)
        out, err = capsys.readouterr()
        return code, TIMINGS.sub("", out), err

    def test_cache_path_is_a_regular_file(self, command_inputs, cache_dir, capsys):
        cache_dir.parent.mkdir()
        cache_dir.write_text("not a directory")
        first = self.report(command_inputs, capsys)
        assert first[0] == 0 and first[2] == ""
        assert self.report(command_inputs, capsys) == first
        assert cache_dir.read_text() == "not a directory"

    def test_cache_home_below_a_regular_file(self, command_inputs, monkeypatch, capsys, tmp_path):
        expected = self.report(command_inputs, capsys)
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file" / "cache"))
        assert self.report(command_inputs, capsys) == expected

    def test_entries_cannot_be_written_or_read(self, command_inputs, monkeypatch, capsys):
        expected = self.report(command_inputs, capsys)

        def refused(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(cache, "open", refused, raising=False)
        assert self.report(command_inputs, capsys) == expected
        monkeypatch.setattr(cache.os, "makedirs", refused)
        monkeypatch.setattr(cache.os, "utime", refused)
        assert self.report(command_inputs, capsys) == expected

    def test_relative_cache_home_falls_back_to_home(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        assert cache._directory() == str(tmp_path / "home" / ".cache" / "coherence-kit")
        monkeypatch.delenv("XDG_CACHE_HOME")
        assert cache._directory() == str(tmp_path / "home" / ".cache" / "coherence-kit")


class TestEviction:
    def test_directory_stays_under_the_cap(self, tmp_path, cache_dir, monkeypatch):
        files = []
        for i in range(6):
            x = np.zeros(100, dtype=complex)
            x[i] = 1.0
            files.append(write_pure(tmp_path / f"x{i}.json", x))
        load_state_file(files[0])
        entry_size = entry_path(cache_dir, files[0]).stat().st_size
        monkeypatch.setattr(cache, "MAX_BYTES", 3 * entry_size)
        for path in files[1:3]:
            load_state_file(path)
        for i, path in enumerate(files[:3]):
            os.utime(entry_path(cache_dir, path), ns=(10**9 * (i + 1),) * 2)
        load_state_file(files[0])  # a hit makes the oldest entry the newest

        def kept():
            return {p.name for p in cache_dir.iterdir()}

        load_state_file(files[3])
        assert kept() == {entry_path(cache_dir, files[i]).name for i in (0, 2, 3)}
        for path in files[4:]:
            load_state_file(path)
            assert sum(p.stat().st_size for p in cache_dir.iterdir()) <= cache.MAX_BYTES
        assert kept() == {entry_path(cache_dir, files[i]).name for i in (3, 4, 5)}

    def test_an_entry_larger_than_the_cap_is_not_stored(self, tmp_path, cache_dir, monkeypatch):
        monkeypatch.setattr(cache, "MAX_BYTES", 1000)
        load_state_file(write_pure(tmp_path / "x.json", np.ones(100) / 10))
        assert not cache_dir.exists()
