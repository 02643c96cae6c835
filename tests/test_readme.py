"""Every ``coherence-kit`` call in the README's ``sh`` blocks parses.

Each such line, its trailing comment dropped, goes to the parser of the
command it names; an option the CLI does not take, or a value it refuses, is
a usage error. The input files it names need not exist.
"""

import pathlib
import re
import shlex

import pytest

from coherence_kit import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
CALLS = [
    shlex.split(line, comments=True)[1:]
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    for line in block.splitlines()
    if line.startswith("coherence-kit ")
]


def test_the_readme_shows_a_call_of_every_command():
    assert {argv[0] for argv in CALLS} == set(cli.COMMANDS)


@pytest.mark.parametrize("argv", CALLS, ids=" ".join)
def test_readme_call_parses(argv, capsys):
    try:
        cli.build_parser(argv[0]).parse_args(argv)
    except SystemExit:
        pytest.fail(capsys.readouterr().err)
