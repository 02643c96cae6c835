"""Rewrite the golden CLI reports in this directory.

Run from the repository root after a change that is meant to alter a report:

    PYTHONPATH=src python tests/golden/regenerate.py

The script writes the input state files under ``inputs/`` (fixed amplitudes
and fixed seeds), runs each case through ``cli.main`` from this directory, and
stores its stdout, with the timings masked, under ``reports/`` and its exit
code in ``cases.json``. ``tests/test_golden.py`` replays the same cases.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import re

import numpy as np

from coherence_kit import cli
from coherence_kit.io import write_state_file
from coherence_kit.random_states import random_pure_state
from coherence_kit.trace_distance import nearest_incoherent

HERE = pathlib.Path(__file__).resolve().parent

# Timing fields differ on every run; everything else in a report is determined
# by the inputs.
TIMINGS = re.compile(r'"timings": \{[^{}]*\}|^timings\..*$', re.MULTILINE)

PURE_INPUTS = {
    "qutrit": np.array([2 / 3, 2 / 3, 1 / 3], dtype=complex),
    "phased-qutrit": np.array([1 / 3, 2j / 3, -2 / 3]),
    "signed-zeros": np.array([0.6, 0.0, 0.8j, -0.0]),
    "random-1000": random_pure_state(1000, np.random.default_rng(7)).amplitudes,
}


def mask_timings(text: str) -> str:
    return TIMINGS.sub("<timings>", text)


def write_inputs() -> None:
    inputs = HERE / "inputs"
    inputs.mkdir(exist_ok=True)
    for name, amplitudes in PURE_INPUTS.items():
        write_state_file(inputs / f"{name}.json", "pure", amplitudes)
    nearest = nearest_incoherent(PURE_INPUTS["qutrit"]).nearest.diag
    shifted = nearest.copy()
    shifted[0] -= 1e-3
    shifted[1] += 1e-3
    write_state_file(inputs / "qutrit-nearest.json", "incoherent", nearest)
    write_state_file(inputs / "qutrit-shifted.json", "incoherent", shifted)
    bell = np.eye(2, dtype=complex) / np.sqrt(2.0)
    write_state_file(inputs / "bell.json", "bipartite-pure", bell)


def cases() -> list[dict]:
    """Name, argv and whether its floats derive from an SVD, per case."""
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
    return [
        {"name": f"{name}.{fmt}", "argv": [*argv, "--format", fmt], "svd": svd}
        for name, argv, svd in runs
        for fmt in ("json", "table")
    ]


def run_case(argv: list[str]) -> tuple[int, str]:
    """Exit code and masked stdout of one ``cli.main`` call from this directory."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return code, mask_timings(out.getvalue())


def main() -> None:
    write_inputs()
    reports = HERE / "reports"
    reports.mkdir(exist_ok=True)
    table = cases()
    for case in table:
        case["exit_code"], stdout = run_case(case["argv"])
        (reports / f"{case['name']}.out").write_text(stdout)
    lines = ",\n".join(json.dumps(case) for case in table)
    (HERE / "cases.json").write_text(f"[\n{lines}\n]\n")


if __name__ == "__main__":
    main()
