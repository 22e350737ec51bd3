"""Stdout goldens for the README's command-line examples.

Each of the README's fifteen commands runs in-process through
``cli.main`` and its stdout must match ``tests/data/cli_golden/<name>.json``
byte for byte.  ``EXTRA_COMMANDS`` pins commands the README does not list
(the two transposition families of ``lift copointed``) the same way.
``gb run`` reads a temporary ideal file, so its report is compared with
``options.file`` removed.  A change that means to alter one
of these reports re-records the goldens with

    PYTHONPATH=src python tests/test_cli_golden.py

and explains the diff.
"""

import io
import json
import pathlib
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

from rackalg import cli
from rackalg.catalog import builtin_cocycle, builtin_rack
from rackalg.freealg import ideal_to_json
from rackalg.quadrel import quadratic_ideal

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "data" / "cli_golden"
IDEAL = "ideal.json"

README_COMMANDS = [
    "rack props --rack o24",
    "cocycle check --rack o24 --cocycle chi",
    "braid check --rack o44 --cocycle const:-1 --flavor W",
    "nichols dim --rack o23 --cocycle const:-1",
    "nichols j2 --rack o24 --cocycle chi",
    "nichols hilbert --rack o23 --cocycle const:-1",
    "gb run --file ideal.json --max-deg 12",
    "deform params --rack o24 --cocycle chi",
    "deform verify --family Eminus --n 4 --samples 20 --seed 11",
    "deform audit",
    "lift pointed --rack o24 --cocycle chi --seed 5",
    "lift copointed --rack o44 --cocycle const:-1 --seed 5",
    "realize check --rack o24 --cocycle const:-1",
    "realize dual --rack o23 --cocycle chi",
    "realize theta --rack o44 --cocycle const:-1",
]

EXTRA_COMMANDS = [
    "lift copointed --rack o24 --cocycle const:-1 --seed 5",
    "lift copointed --rack o24 --cocycle chi --seed 5",
]


def _golden_name(command):
    """README commands by group and action, the extras by every word."""
    words = command.split() if command in EXTRA_COMMANDS else command.split()[:2]
    return "%s.json" % "-".join(w.strip("-").replace(":", "") for w in words)


def _write_ideal(directory):
    """The `gb run` input: the o24/chi quadratic ideal (flavour V)."""
    rack, _ = builtin_rack("o24")
    polys = quadratic_ideal(rack, builtin_cocycle("o24", "chi"), "V")
    path = pathlib.Path(directory) / IDEAL
    path.write_text(json.dumps(ideal_to_json(list(rack.labels), polys)))
    return str(path)


def _argv(command, ideal_path):
    return [ideal_path if a == IDEAL else a for a in command.split()]


def _comparable(command, out):
    """stdout as compared: `gb run` without its temporary file path."""
    if "--file" not in command:
        return out
    doc = json.loads(out)
    del doc["options"]["file"]
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_readme_lists_the_golden_commands():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = [
        line[len("rackalg "):]
        for line in text.splitlines()
        if line.startswith("rackalg ")
    ]
    assert listed == README_COMMANDS


def test_readme_lists_each_commands_flags():
    """The README's flag table is the command table of `cli`."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = {}
    for line in text.splitlines():
        if line.startswith("| `"):
            commands, flags = line.strip("|").split("|")
            for command in commands.split(","):
                listed[tuple(command.strip(" `").split())] = tuple(
                    flags.strip(" `").split())
    assert listed == {c: flags for c, (_, flags) in cli._COMMANDS.items()}


@pytest.mark.parametrize("command", README_COMMANDS + EXTRA_COMMANDS)
def test_stdout_matches_golden(command, capsys, tmp_path):
    cli.main(_argv(command, _write_ideal(tmp_path)))
    got = _comparable(command, capsys.readouterr().out)
    want = (GOLDEN_DIR / _golden_name(command)).read_text(encoding="utf-8")
    assert got == want


def _record():
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        ideal_path = _write_ideal(tmp)
        for command in README_COMMANDS + EXTRA_COMMANDS:
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                cli.main(_argv(command, ideal_path))
            path = GOLDEN_DIR / _golden_name(command)
            path.write_text(_comparable(command, out.getvalue()), encoding="utf-8")
            print("recorded", path.name)


if __name__ == "__main__":
    _record()
