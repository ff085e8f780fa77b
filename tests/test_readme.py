"""The README stays true: its quick tour runs, its CLI table lists the
parser's subcommands, and its ``verify`` section lists the checks."""

import argparse
import doctest
import re
from pathlib import Path

from ncsym import verify
from ncsym.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs_as_a_doctest():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_cli_table_names_every_subcommand_in_order():
    table = re.findall(r"^\| `([a-z-]+)[^`]*` \|", README.read_text(encoding="utf-8"), re.M)
    (subparsers,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert len(table) == 13
    assert table == list(subparsers.choices)


def test_verify_section_names_every_check_in_order():
    section = README.read_text(encoding="utf-8").split("### verify\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```\n(.*?)^```$", section, re.M | re.S)
    assert block.split() == list(verify.CHECK_NAMES)
