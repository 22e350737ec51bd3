import json
import time

import pytest

from rackalg import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload(out):
    doc = json.loads(out)
    assert doc["schema"] == "rackalg-report/1"
    return doc


def test_rack_props(capsys):
    code, out, err = run(capsys, "rack", "props", "--rack", "o24")
    assert code == 0
    doc = payload(out)
    assert doc["ok"]
    assert doc["command"] == "rack props"
    assert doc["report"]["n"] == 6
    assert doc["report"]["labels"][0] == "(34)"
    assert doc["report"]["quandle"] is True
    assert doc["report"]["faithful"] is True
    assert doc["report"]["indecomposable"] is True


def test_stdout_is_pure_json_and_timing_on_stderr(capsys):
    code, out, err = run(capsys, "braid", "check", "--rack", "o44",
                         "--cocycle", "const:-1")
    assert code == 0
    json.loads(out)
    assert "[time]" not in out
    assert "[time]" in err


def test_determinism_byte_identical(capsys):
    args = (
        "lift", "pointed", "--rack", "o24", "--cocycle", "chi",
        "--seed", "5",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_json_out_matches_stdout(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "nichols", "hilbert", "--rack", "o23",
        "--cocycle", "const:-1", "--json-out", str(target),
    )
    assert code == 0
    assert target.read_text() == out
    doc = payload(out)
    assert doc["report"]["series"][:5] == [1, 3, 4, 3, 1]


def test_nichols_dim_small_and_large(capsys):
    code, out, _ = run(capsys, "nichols", "dim", "--rack", "o23",
                       "--cocycle", "const:-1")
    assert code == 0
    assert payload(out)["report"]["dim"] == 12

    code, out, _ = run(capsys, "nichols", "dim", "--rack", "o24",
                       "--cocycle", "chi")
    assert code == 0
    doc = payload(out)
    assert doc["report"]["dim"] == 576
    assert doc["report"]["status"] == "complete"


def test_nichols_j2(capsys):
    code, out, _ = run(capsys, "nichols", "j2", "--rack", "o44",
                       "--cocycle", "const:-1", "--flavor", "W")
    assert code == 0
    doc = payload(out)
    assert doc["ok"]
    assert doc["report"]["kernel_dim"] == 17
    assert doc["report"]["relation_count"] == 17
    assert doc["report"]["span_match"] is True


def test_unknown_rack_is_invalid_usage(capsys):
    code, out, _ = run(capsys, "rack", "props", "--rack", "nope")
    assert code == 2
    doc = payload(out)
    assert not doc["ok"]
    # the message as the catalog words it, without the quotes of a KeyError
    for command in (("realize", "check"), ("lift", "pointed")):
        code, out, _ = run(capsys, *command, "--rack", "nope",
                           "--cocycle", "chi")
        assert code == 2
        assert payload(out)["report"]["error"] == (
            "unknown rack 'nope' (have o23, o24, o44)")
    code, out, _ = run(capsys, "cocycle", "check", "--rack", "o24",
                       "--cocycle", "foo")
    assert code == 2
    assert payload(out)["report"]["error"] == (
        "unknown cocycle 'foo' (want const:w or chi)")


def test_bad_rack_file_fails_validation(capsys, tmp_path):
    from rackalg.rack import dihedral_rack

    doc = dihedral_rack(4).to_json()
    doc["table"][0] = list(doc["table"][1])  # rows collide, not bijective
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "rack", "check", "--file", str(bad))
    assert code == 1
    assert not payload(out)["ok"]


def test_malformed_rack_file_is_invalid_usage(capsys, tmp_path):
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps({"labels": ["a", "b"]}))
    code, out, _ = run(capsys, "rack", "check", "--file", str(bad))
    assert code == 2
    assert not payload(out)["ok"]


def test_missing_file_is_invalid_usage(capsys, tmp_path):
    code, out, _ = run(
        capsys, "rack", "check", "--file", str(tmp_path / "absent.json")
    )
    assert code == 2


def test_budget_exit(capsys):
    code, out, _ = run(capsys, "nichols", "dim", "--rack", "o24",
                       "--cocycle", "chi", "--max-deg", "1")
    assert code == 3
    assert not payload(out)["ok"]


def test_hilbert_max_deg_sets_the_series_length_only(capsys):
    def hilbert(*argv):
        code, out, _ = run(capsys, "nichols", "hilbert", *argv)
        assert code == 0
        return payload(out)["report"]

    o24 = ("--rack", "o24", "--cocycle", "chi")
    default = hilbert(*o24)
    assert len(default["series"]) == 9
    assert hilbert(*o24, "--max-deg", "8") == default
    assert default["dim"] == 576
    longer = hilbert(*o24, "--max-deg", "20")
    assert len(longer["series"]) == 21
    assert longer["series"][:9] == default["series"]
    assert longer["dim"] == 576
    short = hilbert("--rack", "o23", "--cocycle", "const:-1", "--max-deg", "2")
    assert short["series"] == [1, 3, 4]
    assert short["dim"] == 12


def test_deform_verify(capsys):
    code, out, _ = run(capsys, "deform", "verify", "--family", "Echi",
                       "--n", "3", "--samples", "2", "--seed", "7")
    assert code == 0
    doc = payload(out)
    assert doc["ok"]
    dims = [r["dim"] for r in doc["report"]["runs"]]
    assert dims == [12, 12, 12]


def test_deform_audit(capsys):
    code, out, _ = run(capsys, "deform", "audit")
    assert code == 0
    doc = payload(out)
    assert doc["report"]["all_member"] is True
    assert len(doc["report"]["elements"]) == 13


def test_deform_params(capsys):
    code, out, _ = run(capsys, "deform", "params", "--rack", "o24",
                       "--cocycle", "chi")
    assert code == 0
    doc = payload(out)
    assert doc["report"]["pointed"]["free_dim"] == 2
    assert doc["report"]["copointed"]["free_dim"] == 6
    assert doc["report"]["hom_vanishing"]["all"] is True


def test_lift_pointed(capsys):
    code, out, _ = run(capsys, "lift", "pointed", "--rack", "o24",
                       "--cocycle", "chi", "--seed", "5")
    assert code == 0
    doc = payload(out)
    assert doc["report"]["count"] == 17
    assert set(doc["report"]["free_values"]) == {"1,4", "3,3"}


def test_lift_copointed(capsys):
    code, out, _ = run(capsys, "lift", "copointed", "--rack", "o44",
                       "--cocycle", "const:-1", "--seed", "5")
    assert code == 0
    doc = payload(out)
    assert doc["report"]["family"] == "FourCycles"
    assert doc["report"]["quadratic_count"] == 14
    assert len(doc["report"]["deformed"]) == 6


def test_realize_check_and_theta(capsys):
    for rack, spec in [("o24", "chi"), ("o44", "const:-1")]:
        code, out, _ = run(capsys, "realize", "check", "--rack", rack,
                           "--cocycle", spec)
        assert code == 0
        assert payload(out)["ok"]
        code, out, _ = run(capsys, "realize", "theta", "--rack", rack,
                           "--cocycle", spec)
        assert code == 0
        doc = payload(out)
        assert doc["ok"]
        assert doc["report"]["distinct"] is True


def test_realize_solves_chi_from_the_cocycle(capsys):
    code, out, _ = run(capsys, "realize", "check", "--rack", "o44",
                       "--cocycle", "const:1")
    assert code == 0
    assert payload(out)["ok"] is True
    for command in (("realize", "check"), ("lift", "pointed")):
        code, out, _ = run(capsys, *command, "--rack", "o24",
                           "--cocycle", "const:2")
        assert code == 2
        assert payload(out)["report"]["error"] == (
            "chi_(34)(e) is forced to 1 and to 4")
    code, out, _ = run(capsys, "realize", "check", "--rack", "o24",
                       "--cocycle", "const:x")
    assert code == 2
    assert payload(out)["report"]["error"] == "not an exact rational: 'x'"


def test_forced_chi_too_long_to_write_is_a_budget(capsys):
    # const:1e3000 forces chi_(34)(e) = 10^6000, past the digit limit
    code, out, _ = run(capsys, "realize", "check", "--rack", "o24",
                       "--cocycle", "const:1e3000")
    assert code == 3
    assert not payload(out)["ok"]


def test_realize_dual(capsys):
    code, out, _ = run(capsys, "realize", "dual", "--rack", "o23",
                       "--cocycle", "chi")
    assert code == 0
    doc = payload(out)
    assert doc["ok"]
    assert doc["report"]["braiding"]["V"]["ok"] is True
    assert doc["report"]["braiding"]["W"]["ok"] is True


def test_gb_run_round_trip(capsys, tmp_path):
    from rackalg.catalog import builtin_cocycle, builtin_rack
    from rackalg.freealg import ideal_to_json
    from rackalg.quadrel import quadratic_ideal

    rack, _ = builtin_rack("o23")
    q = builtin_cocycle("o23", "const:-1")
    polys = quadratic_ideal(rack, q, "V")
    src = tmp_path / "ideal.json"
    src.write_text(json.dumps(ideal_to_json(list("abc"), polys)))
    code, out, _ = run(capsys, "gb", "run", "--file", str(src))
    assert code == 0
    doc = payload(out)
    assert doc["report"]["quotient_dim"] == 12
    assert doc["report"]["status"] == "complete"
    assert doc["report"]["obstructions_reduce"] is True
    for index in (-1, 3, 300):
        src.write_text(json.dumps({"alphabet": list("abc"), "polys": [
            [{"word": [0, index], "coeff": 1}]]}))
        code, out, _ = run(capsys, "gb", "run", "--file", str(src))
        assert code == 2
        assert payload(out)["report"]["error"] == (
            "invalid ideal document: word index %d is outside the alphabet"
            " of 3 letters" % index)


def test_options_echoed_in_envelope(capsys):
    code, out, _ = run(capsys, "nichols", "j2", "--rack", "o23",
                       "--cocycle", "chi", "--flavor", "W")
    assert code == 0
    doc = payload(out)
    assert doc["options"]["rack"] == "o23"
    assert doc["options"]["flavor"] == "W"
    assert "seed" not in doc["options"]
    assert "n" not in doc["options"]
    code, out, _ = run(capsys, "lift", "pointed", "--rack", "o24",
                       "--cocycle", "chi", "--seed", "9")
    assert code == 0
    assert payload(out)["options"]["seed"] == 9


# one value per flag, valid wherever the flag is read
FLAG_VALUES = {
    "--rack": "o24", "--cocycle": "chi", "--flavor": "W", "--file": "x.json",
    "--seed": "1", "--samples": "1", "--max-deg": "2", "--family": "Echi",
    "--n": "3",
}


def _unread_flag(command):
    _, flags = cli._COMMANDS[command]
    return next(f for f in FLAG_VALUES if f not in flags)


@pytest.mark.parametrize(
    "argv",
    [list(c) + [_unread_flag(c), FLAG_VALUES[_unread_flag(c)]]
     for c in sorted(cli._COMMANDS)]
    + [["deform", "audit", "--max-deg", "2", "--samples", "5"],
       ["rack", "props", "--rack", "o24", "--cocycle", "chi", "--family", "Echi"],
       ["rack", "props", "--rack", "o24", "--json", "x.json"]],
    ids=lambda argv: " ".join(argv),
)
def test_a_flag_the_command_does_not_read_is_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    doc = payload(out)
    assert doc["ok"] is False
    _, flags = cli._COMMANDS[tuple(argv[:2])]
    assert next(a for a in argv[2::2] if a not in flags) in doc["report"]["error"]
    assert "usage:" not in err


def test_json_out_never_overwrites_the_file_input(capsys, tmp_path):
    from rackalg.rack import dihedral_rack

    src = tmp_path / "r.json"
    src.write_text(json.dumps(dihedral_rack(3).to_json()))
    before = src.read_bytes()
    code, out, _ = run(capsys, "rack", "check", "--file", str(src),
                       "--json-out", str(tmp_path / "." / "r.json"))
    assert code == 2
    doc = payload(out)
    assert doc["ok"] is False
    assert "--file" in doc["report"]["error"]
    assert src.read_bytes() == before


@pytest.mark.parametrize("n", ["0", "1", "5"])
def test_deform_n_outside_range_is_invalid_usage(capsys, n):
    code, out, _ = run(capsys, "deform", "verify", "--family", "Eminus",
                       "--n", n)
    assert code == 2
    doc = payload(out)
    assert not doc["ok"]
    assert doc["options"]["n"] == int(n)
    assert "n in [3, 4]" in doc["report"]["error"]


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "GenericLambda", "--rack", "o44",
     "--cocycle", "const:2", "--n", "9"),
    ("verify", "--family", "Eminus", "--rack", "o44", "--cocycle", "chi"),
    ("audit", "--n", "3"),
    ("verify", "--file", "PARAMS", "--n", "3"),
], ids=["generic-n", "preset-rack", "audit-n", "file-n"])
def test_deform_flags_the_point_does_not_read_are_refused(capsys, tmp_path, argv):
    from rackalg.deform import DeformParams

    params = tmp_path / "params.json"
    params.write_text(json.dumps(DeformParams.unit("Eminus", 3).to_json()))
    argv = [str(params) if a == "PARAMS" else a for a in argv]
    code, out, _ = run(capsys, "deform", *argv)
    assert code == 2
    assert not payload(out)["ok"]


@pytest.mark.parametrize("spec", ["const:abc", "const:0"])
def test_bad_cocycle_spec_is_invalid_usage(capsys, spec):
    code, out, _ = run(capsys, "cocycle", "check", "--rack", "o24",
                       "--cocycle", spec)
    assert code == 2
    assert not payload(out)["ok"]


def test_basis_size_budget_exit(capsys, monkeypatch):
    from rackalg import braided, exactnum, freealg

    def over_budget(*args, **kwargs):
        raise freealg.ResourceBudgetExceeded("basis exceeded 1")

    # the handler imports groebner when it runs, so patch it at its source
    monkeypatch.setattr(freealg, "groebner", over_budget)
    code, out, _ = run(capsys, "nichols", "dim", "--rack", "o23",
                       "--cocycle", "const:-1")
    assert code == 3
    assert not payload(out)["ok"]
    for cls in (braided.DegreeBudgetExceeded, freealg.ResourceBudgetExceeded):
        assert issubclass(cls, exactnum.BudgetExceeded)


def test_deform_verify_truncated_fibre_is_budget_exit(capsys):
    code, out, _ = run(capsys, "deform", "verify", "--family", "Echi",
                       "--n", "3", "--max-deg", "2")
    assert code == 3
    assert not payload(out)["ok"]


def test_malformed_parameter_document_is_invalid_usage(capsys, tmp_path):
    doc = tmp_path / "params.json"
    doc.write_text(json.dumps(
        {"family": "Eminus", "n": 4, "params": {"alpha": ["1", "2"]}}
    ))
    code, out, _ = run(capsys, "deform", "verify", "--file", str(doc))
    assert code == 2
    assert not payload(out)["ok"]


@pytest.mark.parametrize("doc, key", [
    ({"family": "Eminus", "n": 3, "params": {"alpha": 5}}, "alpha"),
    ({"family": "GenericLambda", "rack": "o23", "cocycle": "const:-1",
      "params": {"lambda": 7}}, "lambda"),
    ({"family": "Etilde", "params": {"beta": [1, 2]}}, "beta"),
], ids=["alpha", "lambda", "beta"])
def test_non_object_scalars_in_a_parameter_document_name_the_key(
        capsys, tmp_path, doc, key):
    src = tmp_path / "params.json"
    src.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "deform", "verify", "--file", str(src))
    assert code == 2
    report = payload(out)
    assert not report["ok"]
    assert f"'{key}' must be an object" in report["report"]["error"]


def test_empty_relation_set_is_the_free_algebra(capsys, tmp_path):
    # a constant cocycle 2 on the 4-cycles selects no relations at all
    code, out, _ = run(capsys, "nichols", "dim", "--rack", "o44",
                       "--cocycle", "const:2")
    assert code == 0
    assert payload(out)["report"]["dim"] == "infinite"
    code, out, _ = run(capsys, "deform", "verify", "--family",
                       "GenericLambda", "--rack", "o44", "--cocycle", "const:2")
    assert code == 0
    assert payload(out)["report"]["expected_dim"] == "infinite"
    src = tmp_path / "ideal.json"
    src.write_text(json.dumps({"alphabet": list("abcdef"), "polys": []}))
    code, out, _ = run(capsys, "gb", "run", "--file", str(src))
    assert code == 0
    assert payload(out)["report"]["quotient_dim"] == "infinite"


@pytest.mark.parametrize("argv", [
    ("rack", "props", "--rack", "o24", "--bogus"),
    ("nichols", "dim", "--rack", "o24", "--max-deg", "abc"),
    ("nichols",),
    (),
])
def test_argument_errors_are_one_json_document(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    doc = payload(out)
    assert doc["ok"] is False
    assert doc["report"]["error"]
    assert "usage:" not in err


@pytest.mark.parametrize("argv", [
    ("nichols", "dim", "--rack", "o24", "--cocycle", "chi", "--max-deg", "-3"),
    ("deform", "verify", "--family", "Echi", "--n", "3", "--samples", "-2"),
])
def test_negative_counts_are_invalid_usage(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2
    doc = payload(out)
    assert doc["ok"] is False
    assert "non-negative" in doc["report"]["error"]


@pytest.mark.parametrize("argv", [
    ("nichols", "hilbert", "--rack", "o23", "--cocycle", "const:-1", "--max-deg", "65"),
    ("gb", "run", "--file", "absent.json", "--max-deg", "65"),
    ("deform", "verify", "--family", "Eminus", "--n", "4", "--samples", "1001"),
])
def test_counts_above_their_bound_are_invalid_usage(capsys, argv):
    # bound + 1 is refused while parsing, before any input is read
    code, out, _ = run(capsys, *argv)
    assert code == 2
    doc = payload(out)
    assert doc["ok"] is False
    assert doc["command"] is None
    assert "above the bound" in doc["report"]["error"]


@pytest.mark.parametrize("command", [
    ("rack", "check"),
    ("nichols", "dim", "--cocycle", "const:-1"),
])
def test_rack_document_over_256_elements_is_invalid_usage(capsys, tmp_path, command):
    # a valid trivial rack, refused before its n^3 axiom loop runs
    src = tmp_path / "big.json"
    n = 257
    src.write_text(json.dumps({"n": n, "table": [list(range(n))] * n}))
    code, out, _ = run(capsys, *command, "--file", str(src))
    assert code == 2
    doc = payload(out)
    assert doc["ok"] is False
    assert "256" in doc["report"]["error"]


def test_unwritable_json_out_is_one_failing_document(capsys, tmp_path):
    target = tmp_path / "absent" / "x.json"
    code, out, _ = run(capsys, "rack", "props", "--rack", "o24",
                       "--json-out", str(target))
    assert code == 2
    doc = payload(out)
    assert doc["ok"] is False
    assert str(target) in doc["report"]["error"]
    assert not target.exists()


def test_non_utf8_file_is_invalid_usage(capsys, tmp_path):
    src = tmp_path / "bin.json"
    src.write_bytes(b"\xff\xfe")
    code, out, _ = run(capsys, "rack", "check", "--file", str(src))
    assert code == 2
    doc = payload(out)
    assert doc["ok"] is False
    assert str(src) in doc["report"]["error"]


def test_deeply_nested_file_is_invalid_usage(capsys, tmp_path):
    src = tmp_path / "deep.json"
    src.write_text("[" * 200000 + "]" * 200000)
    code, out, _ = run(capsys, "rack", "check", "--file", str(src))
    assert code == 2
    doc = payload(out)
    assert doc["ok"] is False
    assert str(src) in doc["report"]["error"]


RACK2 = {"n": 2, "table": [[0, 1], [0, 1]]}
IDEAL2 = {"alphabet": ["a", "b"], "polys": [[{"word": [0, 1], "coeff": "1"}]]}
O24_ALPHA = dict.fromkeys(("(34)", "(23)", "(24)", "(12)", "(13)", "(14)"), "1")
O23_ALPHA = dict.fromkeys(("(23)", "(12)", "(13)"), "1")
O44_BETA = dict.fromkeys(
    ("(1234)", "(1243)", "(1342)", "(1324)", "(1432)", "(1423)"), "1"
)


@pytest.mark.parametrize("argv, doc", [
    (("cocycle", "check"),
     {"n": 2, "table": [[0, 1], [0, 1]], "q": [[0.1, "1"], ["1", "1"]]}),
    (("rack", "check"), {"n": 2, "table": [[False, True], [False, True]]}),
    (("gb", "run"),
     {"alphabet": ["a", "b"], "polys": [[{"word": [0, 1.9], "coeff": "1"}]]}),
    (("gb", "run"),
     {"alphabet": ["a", "b"], "polys": [[{"word": [True, "0"], "coeff": "1"}]]}),
    (("gb", "run"),
     {"alphabet": ["a", "b"], "polys": [[{"word": [0], "coeff": "1e10000000"}]]}),
    (("deform", "verify"),
     {"family": "Echi", "n": 3,
      "params": {"alpha": {"(12)": 0.5, "(13)": "1", "(23)": "1"}}}),
    (("deform", "verify"),
     {"family": "Echi", "n": 3.0,
      "params": {"alpha": {"(12)": "1", "(13)": "1", "(23)": "1"}}}),
    (("rack", "check"), {"n": 2, "table": [[0, 1, 0], [1, 0]]}),
    (("rack", "check"), {"n": 2, "table": [[0, 1], [0, 1]], "labels": ["a"]}),
    (("cocycle", "check"), {"n": 2, "table": [[0, 1], [0, 1]], "q": [["1", "1"]]}),
    (("deform", "verify"),
     {"family": "Eminus", "n": 4,
      "params": {"alpha": O24_ALPHA, "mu_1": "5", "mu2": "1"}}),
    (("deform", "verify"),
     {"family": "Echi", "n": 3, "params": {"alpha": O23_ALPHA, "mu": "1"},
      "extra": 1}),
    (("deform", "verify"), {"family": "Etilde", "n": 3, "params": {"beta": O44_BETA}}),
    (("deform", "verify"),
     {"family": "GenericLambda", "rack": "o44", "cocycle": "const:2", "n": 4,
      "params": {"lambda": {}}}),
    (("rack", "check"), {**RACK2, "labels": "ab"}),
    (("rack", "check"), {**RACK2, "labels": []}),
    (("rack", "check"), {**RACK2, "extra": 1}),
    (("cocycle", "check"), {**RACK2, "q": [["1", "1"], ["1", "1"]], "extra": 1}),
    (("gb", "run"), {**IDEAL2, "extra": 1}),
    (("gb", "run"),
     {"alphabet": ["a", "b"],
      "polys": [[{"word": [0, 1], "coeff": "1", "extra": 1}]]}),
    (("gb", "run"), {**IDEAL2, "alphabet": ["x%d" % i for i in range(300)]}),
    (("gb", "run"), {**IDEAL2, "alphabet": "ab"}),
    (("gb", "run"), {**IDEAL2, "alphabet": [{"x": 1}, 7]}),
    (("cocycle", "check"), {**RACK2, "q": [["1", "1"], "11"]}),
    (("gb", "run"), {**IDEAL2, "alphabet": ["a", "a"]}),
    (("rack", "check"), {**RACK2, "labels": ["a", "a"]}),
], ids=["float-q", "bool-table", "float-word", "bool-word", "huge-exponent",
        "float-alpha", "float-n", "ragged-table", "short-labels", "short-q",
        "misspelt-mu", "extra-key", "etilde-n3", "generic-n", "string-labels",
        "empty-labels", "rack-extra-key", "cocycle-extra-key",
        "ideal-extra-key", "term-extra-key", "alphabet-over-256",
        "string-alphabet", "non-string-letters", "string-q-row",
        "repeated-letter", "repeated-label"])
def test_inexact_json_values_are_invalid_usage(capsys, tmp_path, argv, doc):
    """An inexact value, a document of the wrong shape, or a key the
    document's reader does not read: exit 2 with one document."""
    src = tmp_path / "doc.json"
    src.write_text(json.dumps(doc))
    started = time.perf_counter()
    code, out, _ = run(capsys, *argv, "--file", str(src))
    assert time.perf_counter() - started < 1
    assert code == 2
    doc = payload(out)
    assert doc["ok"] is False


GENERIC_O23 = ('{"family": "GenericLambda", "rack": "o23", "cocycle": "chi", '
               '"params": {"lambda": {%s, "0,1": "-1", "0,2": "1", '
               '"1,1": "1", "2,2": "1"}}}')


@pytest.mark.parametrize("lam00, want", [
    ('"0,0": "1"', 0),
    ('"0,0": "1", "0,0": "7"', 2),
    ('"0,0": "1", " 0, 0": "7"', 2),
    ('"0,0": "1", "00,0": "7"', 2),
    ('"0_0,0": "1"', 2),
    ('"\\u0660,0": "1"', 2),
], ids=["one-key-per-pair", "repeated-key", "padded-key", "zero-padded-pair",
        "underscore-key", "arabic-digit-key"])
def test_a_lambda_pair_is_named_once_in_ascii_digits(capsys, tmp_path, lam00, want):
    src = tmp_path / "params.json"
    src.write_text(GENERIC_O23 % lam00)
    code, out, _ = run(capsys, "deform", "verify", "--file", str(src))
    assert code == want
    assert payload(out)["ok"] is (want == 0)


def test_integer_over_the_digit_limit_is_invalid_usage(capsys, tmp_path):
    src = tmp_path / "huge.json"
    src.write_text('{"n": %s, "table": []}' % ("1" * 5000))
    code, out, _ = run(capsys, "rack", "check", "--file", str(src))
    assert code == 2
    assert "bad JSON" in payload(out)["report"]["error"]


def test_documents_the_commands_write_are_read_back(capsys, tmp_path):
    src = tmp_path / "doc.json"
    src.write_text(json.dumps({**RACK2, "labels": ["a", "b"], "q": [[1, 1], [1, 1]]}))
    for argv in (("rack", "check"), ("cocycle", "check")):
        code, out, _ = run(capsys, *argv, "--file", str(src))
        assert code == 0
        assert payload(out)["ok"]
    src.write_text(json.dumps(IDEAL2))
    code, out, _ = run(capsys, "gb", "run", "--file", str(src))
    assert code == 0
    basis = payload(out)["report"]["basis"]
    assert basis["status"] == "complete"
    src.write_text(json.dumps(basis))
    code, out, _ = run(capsys, "gb", "run", "--file", str(src))
    assert code == 0
    assert payload(out)["report"]["basis"] == basis


def test_cocycle_document_is_read_by_cocycle_check(capsys, tmp_path):
    from rackalg.catalog import builtin_cocycle

    src = tmp_path / "cocycle.json"
    src.write_text(json.dumps(builtin_cocycle("o23", "const:-1").to_json()))
    code, out, _ = run(capsys, "cocycle", "check", "--file", str(src))
    assert code == 0
    assert payload(out)["report"]["diagonal"] == ["-1"] * 3


@pytest.mark.parametrize("argv", [
    ("cocycle", "check", "--rack", "o24", "--cocycle", "const:1e10000000"),
    ("deform", "verify", "--family", "GenericLambda", "--rack", "o44",
     "--cocycle", "const:1e10000000"),
])
def test_unbounded_cocycle_constant_is_invalid_usage(capsys, argv):
    started = time.perf_counter()
    code, out, _ = run(capsys, *argv)
    assert time.perf_counter() - started < 1
    assert code == 2
    assert not payload(out)["ok"]
