"""Golden CLI output: exit code and exact stdout of a fixed set of commands.

The data file was recorded from the command line itself; refactors of the
library must leave every byte of it unchanged.  To re-record after an
intended output change, run ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import json
import pathlib

import pytest

from pnsym import cli

DATA = pathlib.Path(__file__).with_name("data") / "cli_golden.json"

MIXED = "3/2*F((1,2);[2,1]) - F((3);[1]) + F((0,1,1);[3,1,2])"
TWISTED = "F((1,1);[2,1])"

COMMANDS = (
    [[op, left, right] for op in ("mul", "imul")
     for left in (MIXED, TWISTED) for right in (MIXED, TWISTED)]
    + [[op, e] for op in ("coproduct", "antipode") for e in (MIXED, TWISTED)]
    + [
        ["reduce", "((3,0,1,2,0);[4,5,1,3,2])"],
        ["rank", "7"],
        ["check", "(p1*p2 - p2*p1)^4", "--degree", "3"],
        ["check", "(p1*p2 - p2*p1)^5", "--degree", "3"],
        ["check", "S*id - ue", "--degree", "3"],
        ["ktable", "1", "3"],
        ["ktable", "2", "3", "--max", "4"],
        ["verify", "--model-size", "3", "--max-size", "2"],
    ]
)
ARGVS = [argv + flag for argv in COMMANDS for flag in ([], ["--json"])]


def _load():
    return {tuple(case["argv"]): case for case in json.loads(DATA.read_text())}


def test_golden_file_covers_every_command():
    assert sorted(_load()) == sorted(map(tuple, ARGVS))


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_cli_output_is_unchanged(capsys, argv):
    want = _load()[tuple(argv)]
    code = cli.main(list(argv))
    assert (code, capsys.readouterr().out) == (want["code"], want["stdout"])


if __name__ == "__main__":
    import contextlib
    import io

    cases = []
    for argv in ARGVS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        cases.append({"argv": argv, "code": code, "stdout": out.getvalue()})
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(cases, indent=1) + "\n")
