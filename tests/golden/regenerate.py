"""Rewrite the golden CLI reports in this directory.

Run from the repository root after a change that is meant to alter a report:

    PYTHONPATH=src python tests/golden/regenerate.py

The script writes the input state files under ``inputs/`` (fixed amplitudes
and fixed seeds), runs each case through ``cli.main`` from this directory, and
stores its stdout, with the timings masked, under ``reports/<name>.out``, its
stderr, when there is any, under ``reports/<name>.err`` and its exit code in
``cases.json``. ``tests/test_golden.py`` replays the same cases.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import re
from unittest import mock

import numpy as np

from coherence_kit import cli
from coherence_kit.io import write_state_file
from coherence_kit.random_states import random_mixed_state, random_pure_state
from coherence_kit.trace_distance import nearest_incoherent

HERE = pathlib.Path(__file__).resolve().parent

# Timing fields differ on every run; everything else in a report is determined
# by the inputs. The whole timings object, or the whole run of table lines it
# becomes, is one mask, so a report may gain a timing without a new corpus.
TIMINGS = re.compile(r'"timings": \{[^{}]*\}|^timings\..*$(?:\ntimings\..*$)*', re.MULTILINE)

PURE_INPUTS = {
    "qutrit": np.array([2 / 3, 2 / 3, 1 / 3], dtype=complex),
    "phased-qutrit": np.array([1 / 3, 2j / 3, -2 / 3]),
    "signed-zeros": np.array([0.6, 0.0, 0.8j, -0.0]),
    "random-1000": random_pure_state(1000, np.random.default_rng(7)).amplitudes,
    # s_k - k q_k cancels on this state; weights divided by it do not sum to 1.
    "near-uniform-1000": 1 + 1e-4 * np.random.default_rng(5).standard_normal(1000),
    # Repeated moduli and zero amplitudes: the support lists original indices in order.
    "ties-and-zeros": np.array([0.4, 0, -0.4, 0.6, 0, 0.4j, 0.2, 0, -0.2j, 0.4]),
}


def mask_timings(text: str) -> str:
    return TIMINGS.sub("<timings>", text)


def write_state(path, kind: str, data) -> None:
    with open(path, "w") as fh:
        write_state_file(fh, kind, data)


def write_inputs() -> None:
    inputs = HERE / "inputs"
    inputs.mkdir(exist_ok=True)
    for name, amplitudes in PURE_INPUTS.items():
        write_state(inputs / f"{name}.json", "pure", amplitudes)
    nearest = nearest_incoherent(PURE_INPUTS["qutrit"]).nearest.diag
    shifted = nearest.copy()
    shifted[0] -= 1e-3
    shifted[1] += 1e-3
    write_state(inputs / "qutrit-nearest.json", "incoherent", nearest)
    write_state(inputs / "qutrit-shifted.json", "incoherent", shifted)
    bell = np.eye(2, dtype=complex) / np.sqrt(2.0)
    write_state(inputs / "bell.json", "bipartite-pure", bell)
    schmidt = np.diag(np.sqrt([0.4, 0.3, 0.2, 0.1])).astype(complex)
    write_state(inputs / "schmidt-4x4.json", "bipartite-pure", schmidt)
    mixed = random_mixed_state(3, np.random.default_rng(11)).matrix
    write_state(inputs / "mixed-3.json", "mixed", mixed)
    write_state(inputs / "mixed-qubit.json", "mixed", np.array([[0.5, 0.3], [0.3, 0.5]]))
    write_state(inputs / "mixed-qubit-half.json", "incoherent", np.array([0.5, 0.5]))
    write_state(inputs / "mixed-qubit-skewed.json", "incoherent", np.array([0.6, 0.4]))
    write_state(inputs / "mixed-diagonal.json", "mixed", np.diag([0.7, 0.3]))
    write_state(inputs / "mixed-diagonal-itself.json", "incoherent", np.array([0.7, 0.3]))


def cases() -> list[dict]:
    """Name, argv and whether its floats come from a LAPACK call, per case."""
    runs = []
    for command in ("nearest", "measures"):
        for name in PURE_INPUTS:
            runs.append((f"{command}-{name}", [command, "--input", f"inputs/{name}.json"], False))
    for candidate in ("nearest", "shifted"):
        argv = ["verify", "--input", "inputs/qutrit.json",
                "--candidate", f"inputs/qutrit-{candidate}.json"]
        runs.append((f"verify-qutrit-{candidate}", argv, False))
    # Every float of the entanglement report derives from an SVD.
    runs.append(("entanglement-bell", ["entanglement", "--input", "inputs/bell.json"], True))
    # The fixed-point distance is a sum of eigenvalues.
    argv = ["channel-verify", "--local-dim", "3", "--seed", "7"]
    runs.append(("channel-verify-d3-seed7", argv, True))
    # Each lattice point's trace distance is a sum of eigenvalues.
    argv = ["oracle", "--method", "grid", "--input", "inputs/qutrit.json"]
    runs.append(("oracle-grid-qutrit", argv, True))
    # Entropy and oracle of a mixed state are computed from eigenvalues.
    argv = ["measures", "--max-iters", "50", "--input", "inputs/mixed-3.json"]
    runs.append(("measures-mixed-3", argv, True))
    # A mixed state's certificate takes its witness from an eigendecomposition
    # of A - D: certified with margin 0, not certified (exit 2), and A - D = 0,
    # which is singular (exit 1).
    for name, state, candidate in (
        ("half", "qubit", "qubit-half"),
        ("skewed", "qubit", "qubit-skewed"),
        ("singular", "diagonal", "diagonal-itself"),
    ):
        argv = ["verify", "--input", f"inputs/mixed-{state}.json",
                "--candidate", f"inputs/mixed-{candidate}.json"]
        runs.append((f"verify-mixed-{name}", argv, True))
    # A 4 x 4 state against the default --local-dim 3: exit 1, nothing on stdout.
    argv = ["channel-verify", "--input", "inputs/schmidt-4x4.json"]
    runs.append(("channel-verify-input-dim-mismatch", argv, False))
    table = [
        {"name": f"{name}.{fmt}", "argv": [*argv, "--format", fmt], "lapack": lapack}
        for name, argv, lapack in runs
        for fmt in ("json", "table")
    ]
    # ``random`` writes state documents, which have one format.
    argv = ["random", "--n", "3", "--seed", "1"]
    table.append({"name": "random-pure-3", "argv": argv, "lapack": False})
    argv = ["random", "--kind", "mixed", "--n", "3", "--seed", "1"]
    table.append({"name": "random-mixed-3", "argv": argv, "lapack": False})
    # The parser's own text: help, version and usage errors, on stdout or stderr.
    usage = [
        ("help", ["--help"]),
        *((f"{command}-help", [command, "--help"]) for command in COMMANDS),
        ("version", ["--version"]),
        ("no-command", []),
        ("unknown-command", ["frobnicate"]),
        ("nearest-without-input", ["nearest"]),
        ("random-n-0", ["random", "--n", "0"]),
        ("unknown-option", ["nearest", "--input", "inputs/qutrit.json", "--frobnicate"]),
    ]
    table += [{"name": f"usage-{name}", "argv": argv, "lapack": False} for name, argv in usage]
    return table


COMMANDS = (
    "measures", "nearest", "verify", "entanglement", "channel-verify", "random", "bench", "oracle"
)


def run_case(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, masked stdout and stderr of one ``cli.main`` call from this
    directory; a parser exit is caught, and help text wraps at 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mock.patch.dict(
            os.environ, COLUMNS="80"
        ):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code or 0
    finally:
        os.chdir(cwd)
    return code, mask_timings(out.getvalue()), err.getvalue()


def main() -> None:
    write_inputs()
    reports = HERE / "reports"
    reports.mkdir(exist_ok=True)
    table = cases()
    for case in table:
        case["exit_code"], stdout, stderr = run_case(case["argv"])
        (reports / f"{case['name']}.out").write_text(stdout)
        if stderr:
            (reports / f"{case['name']}.err").write_text(stderr)
    lines = ",\n".join(json.dumps(case) for case in table)
    (HERE / "cases.json").write_text(f"[\n{lines}\n]\n")


if __name__ == "__main__":
    main()
