"""Start-up of the package and of a CLI call: which modules load, and the GC policy.

Each check runs in a fresh interpreter and compares module sets, never times.
"""

import gc
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import coherence_kit
from coherence_kit import cli
from coherence_kit import io as state_io
from coherence_kit.trace_distance import nearest_incoherent
from state_files import write_state

SRC = str(pathlib.Path(coherence_kit.__file__).resolve().parents[1])

# Runs a CLI call in a fresh interpreter and prints to stderr, at exit, the
# loaded modules, the collector's state then and when numpy was imported.
# ``-m`` runs ``python -m coherence_kit.cli <argv>`` through runpy, as ``-m``
# does; ``script`` calls ``cli.run`` as the installed console script does;
# ``numpy-path`` does the same, but loads every state file without
# ``python_floats``, so a small pure file takes numpy's parse and solver.
CLI_CHILD = """
import atexit, gc, json, runpy, sys

state = {}

def on_import(event, args):
    if event == "import" and args[0] == "numpy":
        state.setdefault("gc_enabled_at_numpy", gc.isenabled())

def report():
    state.update(modules=sorted(sys.modules), gc_enabled=gc.isenabled(),
                 frozen=gc.get_freeze_count())
    print(json.dumps(state), file=sys.stderr)

sys.addaudithook(on_import)
atexit.register(report)
mode, sys.argv = sys.argv[1], ["coherence_kit.cli", *sys.argv[2:]]
if mode == "-m":
    runpy.run_module("coherence_kit.cli", run_name="__main__", alter_sys=True)
else:
    from coherence_kit import cli
    if mode == "numpy-path":
        load = cli.load_state_file
        cli.load_state_file = lambda path, **keywords: load(path)
    sys.exit(cli.run())
"""


def child(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120
    )


def cli_call(*argv: str, mode: str = "-m", code: int = 0) -> dict:
    done = child(CLI_CHILD, mode, *argv)
    assert done.returncode == code, done.stderr
    return json.loads(done.stderr.splitlines()[-1])


def loaded(modules, *names: str) -> set:
    return {name for name in names if name in modules}


@pytest.fixture(scope="module")
def pure_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    x = np.array([0.6, 0.48, 0.64], dtype=complex)
    write_state(root / "x.json", "pure", x)
    write_state(root / "d.json", "incoherent", nearest_incoherent(x).nearest.diag)
    return str(root / "x.json"), str(root / "d.json")


@pytest.fixture(scope="module")
def big_pure_file(tmp_path_factory):
    """A pure state file of at least CACHE_MIN_BYTES, read with numpy."""
    amplitudes = np.random.default_rng(3).standard_normal((30_000, 2)).view(complex)[:, 0]
    big = tmp_path_factory.mktemp("startup-big") / "big.json"
    write_state(big, "pure", amplitudes / np.linalg.norm(amplitudes))
    assert big.stat().st_size >= state_io.CACHE_MIN_BYTES
    return str(big)


@pytest.fixture(scope="module")
def other_files(tmp_path_factory):
    """A mixed and a bipartite-pure state file."""
    root = tmp_path_factory.mktemp("startup-other")
    write_state(root / "rho.json", "mixed", np.diag([0.5, 0.3, 0.2]).astype(complex))
    write_state(root / "v.json", "bipartite-pure", np.eye(2, dtype=complex) / np.sqrt(2.0))
    return str(root / "rho.json"), str(root / "v.json")


class TestPackageImport:
    def test_import_loads_no_submodule_and_no_numpy(self):
        done = child("import coherence_kit, json, sys; print(json.dumps(sorted(sys.modules)))")
        assert done.returncode == 0, done.stderr
        modules = json.loads(done.stdout)
        assert [m for m in modules if m.startswith("coherence_kit.")] == []
        assert [m for m in modules if m == "numpy" or m.startswith("numpy.")] == []

    def test_every_exported_name_resolves_to_its_definition(self):
        for name in coherence_kit.__all__:
            value = getattr(coherence_kit, name)
            if name != "__version__":
                defining = sys.modules[f"coherence_kit.{coherence_kit._EXPORTS[name]}"]
                assert value is getattr(defining, name)
        assert set(coherence_kit.__all__) <= set(dir(coherence_kit))

    def test_unknown_name_is_attribute_error_and_submodules_import(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            coherence_kit.no_such_name
        from coherence_kit import io, oracle

        assert io.__name__ == "coherence_kit.io" and oracle.__name__ == "coherence_kit.oracle"

    def test_moved_classes_are_reexported_where_they_were(self):
        from coherence_kit import certificates, core, entanglement, errors

        assert entanglement.BipartitePureState is core.BipartitePureState
        assert certificates.InconclusiveCertificateError is errors.InconclusiveCertificateError


class TestCliImports:
    def test_verify_on_pure_input_loads_only_its_layers(self, pure_files):
        # A small pure file is certified on Python floats, by ``pure_floats``;
        # the numpy certificate module is not loaded.
        x, d = pure_files
        modules = cli_call("verify", "--input", x, "--candidate", d)["modules"]
        assert "coherence_kit.pure_floats" in modules
        assert not loaded(
            modules,
            "coherence_kit.certificates",
            "coherence_kit.entanglement",
            "coherence_kit.oracle",
            "coherence_kit.random_states",
            "numpy.random",
        )
        modules = cli_call("verify", "--input", x, "--candidate", d, mode="numpy-path")["modules"]
        assert "coherence_kit.certificates" in modules
        assert not loaded(
            modules,
            "coherence_kit.entanglement",
            "coherence_kit.oracle",
            "coherence_kit.random_states",
            "numpy.random",
        )

    def test_nearest_loads_only_its_layers(self, pure_files, big_pure_file):
        modules = cli_call("nearest", "--input", pure_files[0])["modules"]
        assert "coherence_kit.pure_floats" in modules
        assert not loaded(
            modules,
            "coherence_kit.trace_distance",
            "coherence_kit.certificates",
            "coherence_kit.measures",
            "coherence_kit.oracle",
            "coherence_kit.entanglement",
        )
        modules = cli_call("nearest", "--input", big_pure_file)["modules"]
        assert "coherence_kit.trace_distance" in modules
        assert not loaded(
            modules,
            "coherence_kit.pure_floats",
            "coherence_kit.certificates",
            "coherence_kit.measures",
            "coherence_kit.oracle",
            "coherence_kit.entanglement",
        )

    def test_only_mixed_measures_load_the_mixed_state_solver(self, pure_files, other_files):
        x, d = pure_files
        for argv in (["measures", "--input", x], ["verify", "--input", x, "--candidate", d]):
            modules = cli_call(*argv)["modules"]
            assert not loaded(modules, "coherence_kit.mixed_tr", "coherence_kit.oracle"), argv
        modules = cli_call("measures", "--input", other_files[0], "--max-iters", "5")["modules"]
        assert "coherence_kit.mixed_tr" in modules
        assert not loaded(modules, "coherence_kit.oracle", "coherence_kit.trace_distance")

    def test_mixed_verify_loads_the_mixed_state_solver_and_not_the_oracle(
        self, other_files, tmp_path
    ):
        candidate = tmp_path / "d.json"
        write_state(candidate, "incoherent", np.array([0.5, 0.3, 0.2]))
        argv = ["verify", "--input", other_files[0], "--candidate", str(candidate)]
        modules = cli_call(*argv)["modules"]
        assert "coherence_kit.mixed_tr" in modules
        assert "coherence_kit.oracle" not in modules

    def test_only_reports_with_a_large_float_array_load_the_format_kernel(
        self, pure_files, tmp_path
    ):
        # The kernel module is compiled in every process that imports it; an
        # array of fewer than KERNEL_MIN_SIZE (15,000) elements does without
        # it, and so does a list of any length while numpy is not loaded.
        assert state_io.KERNEL_MIN_SIZE == 15_000
        x, d = pure_files
        uniform = tmp_path / "uniform-128.json"
        write_state(uniform, "pure", np.ones(128, dtype=complex) / np.sqrt(128))
        schmidt = tmp_path / "schmidt-128.json"
        write_state(schmidt, "bipartite-pure", np.eye(128, dtype=complex) / np.sqrt(128))
        for argv in (
            ["verify", "--input", x, "--candidate", d],
            ["nearest", "--input", x],
            ["measures", "--input", x],
            # 7,499 amplitudes are 14,998 numbers: [re, im] pairs.
            ["random", "--n", "7499", "--output", str(tmp_path / "x.json")],
            # The uniform state's nearest weights are a list of 128 Python floats.
            ["nearest", "--input", str(uniform)],
            ["nearest", "--input", str(uniform), "--format", "table"],
            ["measures", "--input", str(uniform)],
            # 128 Schmidt coefficients, an array.
            ["entanglement", "--input", str(schmidt)],
        ):
            assert "coherence_kit.floatfmt" not in cli_call(*argv)["modules"], argv
        argv = ["random", "--n", "7500", "--output", str(tmp_path / "x.json")]
        assert "coherence_kit.floatfmt" in cli_call(*argv)["modules"]

    def test_benchmarked_calls_generate_no_dataclass_code(self, pure_files, other_files, tmp_path):
        # ``dataclasses`` generates and compiles the methods of every class it
        # decorates, at each import; the records are NamedTuples instead.
        x, d = pure_files
        rho, v = other_files
        for argv in (
            ["nearest", "--input", x],
            ["measures", "--input", x],
            ["measures", "--input", rho, "--max-iters", "5"],
            ["verify", "--input", x, "--candidate", d],
            ["entanglement", "--input", v],
            ["channel-verify", "--local-dim", "2"],
            ["random", "--n", "3", "--output", str(tmp_path / "x.json")],
        ):
            assert "dataclasses" not in cli_call(*argv)["modules"], argv

    def test_small_file_calls_do_not_load_the_parse_cache(self, pure_files, tmp_path):
        for argv in (
            ["nearest", "--input", pure_files[0]],
            ["random", "--n", "3", "--output", str(tmp_path / "x.json")],
        ):
            assert "coherence_kit.cache" not in cli_call(*argv)["modules"], argv

    def test_parse_cache_miss_and_hit_load_no_further_module(self, pure_files, big_pure_file):
        # A document of at least CACHE_MIN_BYTES takes the cache path; a small
        # one, read on the numpy path, is the reference.
        entries = pathlib.Path(os.environ["XDG_CACHE_HOME"]) / "coherence-kit"
        small = set(cli_call("nearest", "--input", pure_files[0], mode="numpy-path")["modules"])
        miss = set(cli_call("nearest", "--input", big_pure_file, mode="script")["modules"])
        (entry,) = entries.iterdir()
        os.utime(entry, ns=(10**9, 10**9))
        hit = set(cli_call("nearest", "--input", big_pure_file, mode="script")["modules"])
        assert entry.stat().st_mtime_ns > 10**9  # the second call read the entry
        # The cache module is imported only for a document this large.
        assert miss - small == {"coherence_kit.cache"}
        assert hit - small == {"coherence_kit.cache"}


GOLDEN_INPUTS = pathlib.Path(__file__).resolve().parent / "golden" / "inputs"


class TestNumpyOnlyWhereUsed:
    """Help, version, usage errors, refusals made before a load, and
    ``measures``, ``nearest`` and ``verify`` on a pure file below
    CACHE_MIN_BYTES, their errors included, never import numpy or ``core``;
    a pure file above it and a mixed file do."""

    def test_calls_that_do_not_import_numpy(self, pure_files, tmp_path):
        x, d = pure_files
        qutrit = str(GOLDEN_INPUTS / "qutrit.json")
        calls = [
            (["--version"], 0),
            (["--help"], 0),
            (["verify", "--help"], 0),
            (["nearest"], 1),
            (["frobnicate"], 1),
            (["random", "--n", "3", "--m", "2"], 1),
            (["nearest", "--input", str(tmp_path / "missing.json")], 1),
            (["measures", "--input", x], 0),
            (["measures", "--input", x, "--measure", "tr", "--format", "table"], 0),
            (["nearest", "--input", x], 0),
            (["verify", "--input", x, "--candidate", d], 0),
            (["verify", "--input", qutrit, "--candidate", str(GOLDEN_INPUTS / "qutrit-shifted.json")], 2),
            (["nearest", "--input", str(GOLDEN_INPUTS / "infinity-amplitude.json")], 1),
            (["verify", "--input", qutrit, "--candidate", str(GOLDEN_INPUTS / "sum-off.json")], 1),
            (["verify", "--input", qutrit, "--candidate", d, "--tol", "0.9"], 3),
        ]
        for argv, code in calls:
            modules = cli_call(*argv, code=code)["modules"]
            assert not loaded(modules, "numpy", "coherence_kit.core"), argv

    def test_large_pure_and_mixed_files_import_numpy(self, pure_files, big_pure_file, other_files):
        rho, _ = other_files
        for argv in (
            ["nearest", "--input", big_pure_file],
            ["measures", "--input", rho, "--max-iters", "5"],
            ["verify", "--input", rho, "--candidate", pure_files[1]],
        ):
            assert "numpy" in cli_call(*argv, code=2 if argv[0] == "verify" else 0)["modules"], argv


class TestParserAndCommandModules:
    """A plain ``--flag value`` call is parsed without argparse and imports
    only its own command's module; help and every other form use argparse."""

    ARGPARSE = ("argparse", "gettext", "locale")

    @pytest.fixture(scope="class")
    def benchmarked(self, pure_files, other_files, tmp_path_factory):
        """The seven calls of the benchmark's workloads, each with --output."""
        x, d = pure_files
        rho, v = other_files
        out = tmp_path_factory.mktemp("startup-out")
        calls = [
            ["random", "--kind", "pure", "--n", "1000", "--seed", "5"],
            ["nearest", "--input", x],
            ["measures", "--input", x],
            ["verify", "--input", x, "--candidate", d],
            ["measures", "--input", rho, "--input", rho, "--max-iters", "5"],
            ["entanglement", "--input", v],
            ["channel-verify", "--local-dim", "2", "--seed", "3"],
        ]
        return [[*argv, "--output", str(out / f"{i}.json")] for i, argv in enumerate(calls)]

    def test_benchmarked_calls_load_no_argparse(self, benchmarked):
        for argv in benchmarked:
            assert not loaded(cli_call(*argv)["modules"], *self.ARGPARSE), argv

    def test_each_call_loads_only_its_own_command_module(self, benchmarked):
        for argv in benchmarked:
            modules = cli_call(*argv)["modules"]
            own = f"coherence_kit.commands.{argv[0].replace('-', '_')}"
            commands = {m for m in modules if m.startswith("coherence_kit.commands.")}
            assert commands == {own}, argv
            assert "coherence_kit.parser" not in modules

    def test_help_and_declined_forms_load_argparse(self, pure_files):
        x, _ = pure_files
        for argv in (["nearest", "--help"], ["--help"]):
            done = child(CLI_CHILD, "-m", *argv)
            assert done.returncode == 0 and done.stdout.startswith("usage: coherence-kit")
            modules = json.loads(done.stderr.splitlines()[-1])["modules"]
            assert "argparse" in modules and "coherence_kit.parser" in modules
        for argv in (["nearest", f"--input={x}"], ["nearest", "--inp", x]):
            modules = cli_call(*argv)["modules"]
            assert "argparse" in modules and "coherence_kit.parser" in modules, argv
            assert "coherence_kit.commands.nearest" in modules

    @pytest.mark.parametrize("alter_sys", [True, False])
    def test_run_as_main_imports_no_second_dispatcher(self, pure_files, alter_sys):
        # Under ``-m`` the command module imports the dispatcher it runs in; run
        # without ``alter_sys`` there is no such module, and it imports a copy.
        code = (
            "import runpy, sys\n"
            f"sys.argv = ['cli', 'nearest', '--input', {pure_files[0]!r}]\n"
            "try:\n"
            f"    runpy.run_module('coherence_kit.cli', run_name='__main__', alter_sys={alter_sys})\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, sys.modules['coherence_kit.cli'].__name__, file=sys.stderr)\n"
        )
        done = child(code)
        assert json.loads(done.stdout)["command"] == "nearest"
        assert done.stderr.split() == ["0", "__main__" if alter_sys else "coherence_kit.cli"]

    def test_io_imports_hashlib_only_to_take_a_digest(self):
        # ``channel-verify`` reads no file, but its sampler's numpy.random
        # imports hashlib (through secrets and hmac) all the same.
        done = child("import coherence_kit.cli, json, sys; print(json.dumps(sorted(sys.modules)))")
        assert done.returncode == 0, done.stderr
        assert not loaded(json.loads(done.stdout), "hashlib", "_hashlib", *self.ARGPARSE)


class TestGcPolicy:
    # A mixed state file is read with numpy, so numpy's import is observed.
    def test_cli_process_runs_without_cyclic_gc_and_freezes_at_exit(self, other_files):
        state = cli_call("measures", "--input", other_files[0], "--max-iters", "5")
        assert state["gc_enabled_at_numpy"] is False
        assert state["gc_enabled"] is False
        assert state["frozen"] > 0

    def test_console_script_runs_without_cyclic_gc_and_freezes_at_exit(self, other_files):
        # ``cli`` does not import numpy, so even the console script, which
        # disables the collector once ``cli`` is imported, imports it with
        # the collector off.
        state = cli_call("measures", "--input", other_files[0], "--max-iters", "5", mode="script")
        assert state["gc_enabled_at_numpy"] is False
        assert state["gc_enabled"] is False
        assert state["frozen"] > 0

    def test_importing_the_cli_leaves_gc_enabled(self):
        done = child("import gc, coherence_kit.cli; print(gc.isenabled(), gc.get_freeze_count())")
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["True", "0"]

    def test_in_process_main_leaves_gc_as_found(self, pure_files, capsys):
        assert gc.isenabled()
        frozen = gc.get_freeze_count()
        assert cli.main(["nearest", "--input", pure_files[0]]) == 0
        capsys.readouterr()
        assert gc.isenabled()
        assert gc.get_freeze_count() == frozen
