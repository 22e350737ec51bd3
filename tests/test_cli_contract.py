"""The CLI contract on hostile ``--file`` input and hostile argv.

Hypothesis starts from well-formed rack, cocycle, parameter and ideal
documents of small size and breaks up to three of their nodes: a node
becomes a wrong type (a float, a bool, a huge exponent or integer, a
list, a dict), a key or a list entry goes missing, a node is repeated
(a list entry, which makes a table ragged, or an object key, which the
JSON text then holds twice), or an object key is misspelt by a trailing
``_`` (a list entry drawn for that is repeated).  Every run of
``cli.main`` must
print exactly one JSON document on stdout and exit with 0, 1, 2 or 3.
The argv half draws a command from ``cli._COMMANDS``, a subset of its
flags with valid or invalid values, and sometimes one flag the command
does not read, which must exit 2.  The examples are derandomized and
bounded, so the tests are deterministic and take a few seconds.
"""

import copy
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rackalg import cli
from rackalg.catalog import builtin_cocycle, builtin_rack
from rackalg.cocycle import constant_cocycle
from rackalg.deform import DeformParams
from rackalg.freealg import ideal_to_json
from rackalg.quadrel import quadratic_ideal
from rackalg.rack import dihedral_rack, trivial_rack

HUGE_INT = "__huge_int__"  # written as a 5000-digit integer literal
REPEAT = "__repeat__"  # a key with this prefix is written as the bare key

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.integers(min_value=-2, max_value=6),
    st.sampled_from([
        "1e10000000", "-1E-99999", "1/0", "0.1", "abc", "", "1e" + "9" * 5000,
        HUGE_INT,
    ]),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.sampled_from(["n", "q", "a"]), st.integers(0, 2), max_size=1),
)


def _o23_ideal():
    rack, _ = builtin_rack("o23")
    polys = quadratic_ideal(rack, builtin_cocycle("o23", "const:-1"), "V")
    return ideal_to_json(list(rack.labels), polys)


RACKS = [trivial_rack(1), trivial_rack(2), dihedral_rack(3), builtin_rack("o23")[0]]
VALID = {
    ("rack", "check"): [r.to_json() for r in RACKS],
    ("cocycle", "check"): [constant_cocycle(r, -1).to_json() for r in RACKS],
    ("deform", "verify", "--max-deg", "2"): [
        DeformParams.unit("Eminus", 3).to_json(),
        DeformParams.echi(4, 1, 2).to_json(),
        DeformParams.etilde(2, 0, 1).to_json(),
        DeformParams.unit("GenericLambda", rack_name="o23", cocycle_spec="chi").to_json(),
    ],
    ("gb", "run", "--max-deg", "4"): [
        _o23_ideal(),
        {"alphabet": ["a", "b"], "polys": [[{"word": [0, 1], "coeff": "1/2"}]]},
    ],
}


def _nodes(doc, out):
    """Every (container, key) below doc, depth first."""
    keys = doc if isinstance(doc, dict) else range(len(doc))
    for key in keys:
        out.append((doc, key))
        if isinstance(doc[key], (dict, list)):
            _nodes(doc[key], out)
    return out


@st.composite
def cases(draw):
    command = draw(st.sampled_from(sorted(VALID)))
    doc = copy.deepcopy(draw(st.sampled_from(VALID[command])))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        nodes = _nodes(doc, [])
        if not nodes:
            break
        parent, key = draw(st.sampled_from(nodes))
        how = draw(st.sampled_from(["junk", "drop", "repeat", "rename"]))
        if how == "junk":
            parent[key] = draw(JUNK)
        elif how == "drop":
            del parent[key]
        elif isinstance(parent, list):
            parent.append(copy.deepcopy(parent[key]))
        elif how == "rename":
            parent[key + "_"] = parent.pop(key)
        else:
            parent[REPEAT + key] = copy.deepcopy(parent[key])
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        doc = draw(JUNK)
    return list(command), doc


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(cases())
def test_file_input_yields_one_document_and_a_documented_exit(tmp_path, case):
    argv, doc = case
    src = tmp_path / "doc.json"
    text = json.dumps(doc).replace(json.dumps(HUGE_INT), "1" * 5000)
    src.write_text(re.sub('"(%s)+' % REPEAT, '"', text))
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv + ["--file", str(src)])
    assert code in (0, 1, 2, 3)
    report = json.loads(out.getvalue())
    assert set(report) == {"schema", "version", "command", "options", "ok", "report"}
    assert report["ok"] is (code == 0)


# per flag, valid and invalid values; FILE:<kind> names a document below.
# --max-deg stays small and --samples at most 1, so every run is quick.
ARGV_VALUES = {
    "--rack": ["o23", "o24", "o44", "o55"],
    "--cocycle": ["chi", "const:-1", "const:2", "const:x"],
    "--flavor": ["V", "W", "X"],
    "--file": ["FILE:rack", "FILE:cocycle", "FILE:params", "FILE:ideal",
               "FILE:junk", "FILE:absent"],
    "--seed": ["0", "5", "-2", "x"],
    "--samples": ["0", "1", "-1", "x"],
    "--max-deg": ["1", "2", "3", "-1", "x"],
    "--family": ["Eminus", "Echi", "Etilde", "GenericLambda", "Bogus"],
    "--n": ["3", "4", "9", "x"],
}
ARGV_FILES = {
    "rack": RACKS[2].to_json(),
    "cocycle": VALID[("cocycle", "check")][2],
    "params": VALID[("deform", "verify", "--max-deg", "2")][0],
    "ideal": VALID[("gb", "run", "--max-deg", "4")][0],
    "junk": [1, "a"],
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    _, flags = cli._COMMANDS[command]
    chosen = [f for f in flags if f == "--max-deg" or draw(st.integers(0, 3))]
    if draw(st.integers(0, 4)) == 0:
        chosen.append(draw(st.sampled_from(
            [f for f in ARGV_VALUES if f not in flags])))
    argv = list(command)
    for flag in chosen:
        argv += [flag, draw(st.sampled_from(ARGV_VALUES[flag]))]
    return argv, not set(chosen) <= set(flags)


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argvs())
def test_argv_yields_one_document_and_a_documented_exit(tmp_path, case):
    argv, unread = case
    for kind, doc in ARGV_FILES.items():
        (tmp_path / kind).write_text(json.dumps(doc))
    argv = [str(tmp_path / a[5:]) if a.startswith("FILE:") else a for a in argv]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    report = json.loads(out.getvalue())
    assert report["ok"] is (code == 0)
    if unread:
        assert code == 2


# exact numbers that the readers accept, or that a completion makes, with
# more digits than str() writes: each is a budget, exit 3, one document
TOO_LONG = {
    "cocycle-constant": (["cocycle", "check", "--rack", "o24", "--cocycle",
                          "const:1e-4300"], None),
    "ideal-coefficient": (["gb", "run"], {"alphabet": ["a", "b"], "polys": [
        [{"word": [0, 1], "coeff": "1e4300"}, {"word": [1], "coeff": 1}]]}),
    "deform-point": (["deform", "verify"], {"family": "Eminus", "n": 3, "params": {
        "alpha": {"(12)": "1e4300", "(13)": "1e4300", "(23)": "1e4300"}}}),
    # b - 10^3000 a and aaa - bb complete to aaa - 10^6000 aa
    "completed-basis": (["gb", "run"], {"alphabet": ["a", "b"], "polys": [
        [{"word": [1], "coeff": 1}, {"word": [0], "coeff": "-1e3000"}],
        [{"word": [0, 0, 0], "coeff": 1}, {"word": [1, 1], "coeff": -1}]]}),
}


@pytest.mark.parametrize("name", sorted(TOO_LONG))
def test_a_number_too_long_to_print_is_a_budget(tmp_path, name):
    argv, doc = TOO_LONG[name]
    if doc is not None:
        src = tmp_path / "doc.json"
        src.write_text(json.dumps(doc))
        argv = argv + ["--file", str(src)]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code == cli.EXIT_BUDGET
    report = json.loads(out.getvalue())
    assert report["ok"] is False
    assert "more than 4300 digits" in report["report"]["error"]
