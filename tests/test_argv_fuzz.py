"""The CLI's own parse of plain argv against the argparse parser.

``cli._parse`` reads a command and ``--flag value`` pairs from the option
table and returns None for every other form, which ``cli.main`` hands to
argparse. Whenever it returns a namespace, argparse must give the same one;
whenever argparse would exit (help, version, a usage error), it must have
returned None. Drawn argv mix each command's options with other commands'
flags, ``--flag=value`` forms, abbreviations, repeats, stray tokens and
values good and bad for each option.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coherence_kit import cli

# The argv of ``test_cli.py::TestUsageErrors::test_full_parser_agrees_with_the_parser_main_builds``:
# one plain call per command.
PLAIN = [
    ["measures", "--input", "a.json", "--input", "b.json", "--measure", "l1",
     "--max-iters", "5", "--step-scale", "0.5", "--format", "table"],
    ["nearest", "--input", "x.json", "--output", "r.json"],
    ["verify", "--input", "x.json", "--candidate", "d.json", "--tol", "1e-9"],
    ["entanglement", "--input", "v.json"],
    ["channel-verify", "--sigma", "s.json", "--local-dim", "4", "--terms", "2", "--seed", "3"],
    ["random", "--kind", "mixed", "--n", "5", "--count", "2"],
    ["bench", "--sizes", "10,20", "--repetitions", "1"],
    ["oracle", "--input", "x.json", "--resolution", "10"],
]

FLAGS = sorted({flag for name in cli.COMMANDS for flag, _ in cli._options(name)} | {"--format"})
# Values good for some option and bad for others.
VALUES = [
    "0", "1", "3", "25", "0.5", "1e-9", "inf", "nan", "-1", "-0.5", "x", "", " 7 ", "1.5",
    "10,20", ",", "5,,6", "a.json", "-x", "--input", "json", "table", "l1", "tr", "rel-ent",
    "pure", "mixed", "bipartite-pure", "nearest",
]
STRAYS = ["-h", "--help", "--version", "--", "-", "stray", "--frobnicate", "--inp", "--m", "--max",
          "--form", "--in", "--local"]


def good_values(keywords: dict) -> list[str]:
    """The values of ``VALUES`` that pass an option's type and choices checks."""
    if "choices" in keywords:
        return list(keywords["choices"])
    check = keywords.get("type", str)
    good = []
    for value in VALUES:
        try:
            check(value)
        except ValueError:
            continue
        if not value.startswith("-"):
            good.append(value)
    return good


@st.composite
def plain_pairs(draw, command: str) -> list[list[str]]:
    """``[flag, value]`` pairs of the command's own options, mostly with good
    values: required options mostly present, ``append`` options up to three
    times."""
    pairs = []
    for flag, keywords in cli._options(command):
        times = draw(st.integers(0, 3 if keywords.get("action") == "append" else 1))
        if keywords.get("required") and draw(st.integers(0, 9)):
            times = max(times, 1)
        for _ in range(times):
            values = good_values(keywords) if draw(st.integers(0, 7)) else VALUES
            pairs.append([flag, draw(st.sampled_from(values))])
    return draw(st.permutations(pairs))


@st.composite
def noise(draw) -> list[str]:
    """Tokens that may make argv anything but plain: ``=`` forms, strays and
    abbreviations, a flag without its value, any flag with any value."""
    flag = draw(st.sampled_from(FLAGS))
    value = draw(st.sampled_from(VALUES))
    return draw(st.sampled_from([
        [f"{flag}={value}"],
        [draw(st.sampled_from(STRAYS))],
        [flag],
        [flag, value],
        [draw(st.sampled_from(STRAYS)), value],
    ]))


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    pairs = draw(plain_pairs(command))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2]))):
        pairs.insert(draw(st.integers(0, len(pairs))), draw(noise()))
    tokens = [token for pair in pairs for token in pair]
    head = draw(st.sampled_from([[command]] * 8 + [[], ["frobnicate"], [command, command]]))
    return head + tokens


def argparse_namespace(argv):
    """``vars`` of argparse's namespace for ``argv``, as ``main`` builds the
    parser, or None where it exits."""
    command = next((token for token in argv if not token.startswith("-")), "")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser(command).parse_args(argv))
        except SystemExit:
            return None


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(argvs())
@example(["measures", "--measure", "tr", "--input", "x.json", "--measure", "l1"])
@example(["bench"])
@example(["random", "--n", "3", "--m", "2"])
@example(["nearest", "--input", "x.json", "--input", "y.json"])
@example(["nearest", "--input", "-x"])
@example(["random", "--n", "3", "--format", "json"])
def test_own_parse_agrees_with_argparse_or_declines(argv):
    fast = cli._parse(argv)
    slow = argparse_namespace(argv)
    if slow is None:
        assert fast is None, argv
    elif fast is not None:
        assert vars(fast) == slow, argv


@pytest.mark.parametrize("argv", PLAIN, ids=[argv[0] for argv in PLAIN])
def test_plain_calls_are_parsed_without_argparse(argv):
    fast = cli._parse(argv)
    assert fast is not None
    assert vars(fast) == argparse_namespace(argv)


def test_string_default_goes_through_its_type():
    assert cli._parse(["bench"]).sizes == [10000, 100000, 1000000]
    assert cli._parse(["bench", "--sizes", "7,8"]).sizes == [7, 8]
