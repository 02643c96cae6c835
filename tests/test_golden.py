"""CLI reports on fixed inputs match the committed golden reports.

Each case in ``tests/golden/cases.json`` is one ``cli.main`` call; its stdout,
with the timings masked, must equal the stored report and its exit code the
stored code. Floats compare exactly, except in cases flagged ``lapack``, whose
floats come from a LAPACK call (an SVD or an eigendecomposition): those
compare within 1e-12 relative, so the corpus survives another LAPACK build.
``tests/golden/regenerate.py`` rewrites the corpus.
"""

import importlib.util
import json
import math
import pathlib
import re

import pytest

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())

_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def assert_same_report(actual: str, expected: str, lapack: bool) -> None:
    if not lapack:
        assert actual == expected
        return
    assert NUMBER.split(actual) == NUMBER.split(expected)
    for got, want in zip(NUMBER.findall(actual), NUMBER.findall(expected)):
        assert got == want or math.isclose(float(got), float(want), rel_tol=1e-12), (got, want)


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_report_matches_golden(case):
    code, stdout = regenerate.run_case(case["argv"])
    assert code == case["exit_code"]
    expected = (GOLDEN / "reports" / f"{case['name']}.out").read_text()
    assert_same_report(stdout, expected, case["lapack"])
