"""Each CLI command loads only the layers its handler runs.

Every other CLI test calls ``cli.main`` in process, where ``sys.modules``
is shared, so none of them can see what a command imports.  These tests
run ``python -X importtime -m rackalg.cli ...`` in a fresh interpreter and
read the ``rackalg.*`` modules off the import-time lines on stderr.  The
``cli`` module itself runs as ``__main__`` there, so it is not listed.
"""

import json
import os
import subprocess
import sys

import pytest

import rackalg

SRC = os.path.dirname(os.path.dirname(os.path.abspath(rackalg.__file__)))

BASE = {"catalog", "cocycle", "exactnum", "perm", "rack"}
NICHOLS = {"braided", "linalg", "quadrel", "freealg"}
DEFORM = {"deform", "quadrel", "freealg", "braided", "linalg"}
REALIZE = {"grouprealize", "braided", "linalg"}
EVERY = DEFORM | REALIZE

IDEAL = {"alphabet": ["a", "b"], "polys": [
    [{"word": [0, 0], "coeff": 1}],
    [{"word": [1, 1], "coeff": 1}],
]}

# (argv, the modules it loads beyond BASE)
FOOTPRINTS = [
    ("rack props --rack o24", set()),
    ("cocycle check --rack o24 --cocycle chi", set()),
    ("braid check --rack o44 --cocycle const:-1 --flavor W", {"braided", "linalg"}),
    ("nichols dim --rack o23 --cocycle const:-1", NICHOLS),
    ("nichols j2 --rack o23 --cocycle const:-1", NICHOLS),
    ("nichols hilbert --rack o23 --cocycle const:-1", NICHOLS),
    ("deform params --rack o24 --cocycle chi", NICHOLS),
    ("gb run --file IDEAL", {"freealg"}),
    ("realize check --rack o24 --cocycle const:-1", REALIZE),
    ("realize dual --rack o23 --cocycle chi", REALIZE),
    ("realize theta --rack o44 --cocycle const:-1", REALIZE),
    ("deform verify --family Eminus --n 3 --samples 1", DEFORM),
    ("deform audit", DEFORM),
    ("lift pointed --rack o24 --cocycle chi", EVERY),
    ("lift copointed --rack o44 --cocycle const:-1", EVERY),
]


def _imported(stderr):
    """The rackalg submodules named on `-X importtime` lines."""
    names = set()
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            name = line.rsplit("|", 1)[1].strip()
            if name.startswith("rackalg."):
                names.add(name[len("rackalg."):])
    return names


@pytest.mark.parametrize("command, extra", FOOTPRINTS, ids=[c for c, _ in FOOTPRINTS])
def test_command_loads_only_its_layers(command, extra, tmp_path):
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps(IDEAL))
    argv = [str(ideal) if a == "IDEAL" else a for a in command.split()]
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "rackalg.cli"] + argv,
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout
    assert json.loads(proc.stdout)["ok"] is True
    assert _imported(proc.stderr) == BASE | extra
