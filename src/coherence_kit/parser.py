"""The CLI's argparse parser, built from the option table ``cli.COMMANDS``.

``cli.main`` imports this module only for the argument forms it does not
parse itself: help, version, and every form beyond plain ``--flag value``
pairs, whose usage errors argparse words and exits on.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .cli import COMMANDS, EXIT_VALIDATION, _options


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the validation code; argparse's own 2 would read
    as a negative certificate."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


class _CommandParser(_Parser):
    """A command's parser refuses arguments it does not take itself, so the
    error shows that command's usage, not the top level's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _argparse_type(check):
    """The value check ``check`` as an argparse type: its ValueError is a
    usage error with the same message."""

    def parse(text: str):
        try:
            return check(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser. Every command is registered with its help line, so
    help and an unknown command list them all, but only ``command`` gets its
    options, or every command when it is None: a call builds its own only."""
    parser = _Parser(
        prog="coherence-kit",
        description="Coherence and entanglement measures with certificates and oracles",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, (summary, _) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if command is not None and command != name:
            continue
        for flag, keywords in _options(name):
            if "type" in keywords:
                keywords = {**keywords, "type": _argparse_type(keywords["type"])}
            p.add_argument(flag, **keywords)
    return parser
