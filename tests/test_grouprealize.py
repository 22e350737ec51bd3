import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import rackalg
from rackalg import perm
from rackalg.catalog import builtin_cocycle, builtin_rack, symmetric_permgroup
from rackalg.cocycle import Cocycle2, chi_character_value
from rackalg.braided import make_braiding, quantum_symmetrizer
from rackalg.freealg import QuotientAlgebra, groebner
from rackalg.grouprealize import (
    FiniteDimAlgebra,
    NotModuleAlgebra,
    PrincipalRealization,
    RealizationError,
    algebra_from_quotient,
    builtin_realization,
    comatrix_action_audit,
    dual_braiding_check,
    group_side,
    module_algebra_audit_grading,
    module_algebra_audit_group,
    principal_realization,
    quotient_grading,
    quotient_group_action,
    smash_with_dual,
    smash_with_group,
    theta_characters,
    validate_principal,
    word_degree,
)
from rackalg.quadrel import quadratic_ideal
from rackalg.rack import trivial_rack

F = Fraction

SPECS = [
    ("o24", "const:-1"),
    ("o24", "chi"),
    ("o44", "const:-1"),
    ("o23", "const:-1"),
    ("o23", "chi"),
]


def fk3_quotient(flavor="V"):
    rack, _ = builtin_rack("o23")
    q = builtin_cocycle("o23", "const:-1")
    return QuotientAlgebra(groebner(quadratic_ideal(rack, q, flavor)))


def test_realization_input_guards():
    rack, class_perms = builtin_rack("o24")
    with pytest.raises(RealizationError):
        # a repeated group image breaks conjugation faithfulness
        principal_realization(rack, (class_perms[0],) * 6)
    with pytest.raises(RealizationError):
        # the order character needs transpositions
        builtin_realization("o44", "chi")
    with pytest.raises(RealizationError):
        builtin_realization("o24", "const:2")
    # explicit chi rows are keyed by exactly the elements of S4
    group = symmetric_permgroup(4)
    rows = [{t: 1 for t in group} for _ in class_perms]
    assert principal_realization(rack, class_perms, rows).chi(0, group.identity) == 1
    missing = {t: 1 for t in group if t != group.identity}
    for row in (missing, {**missing, (0, 1, 2): 1}):
        with pytest.raises(RealizationError):
            principal_realization(rack, class_perms, [row] + rows[1:])


def test_builtin_realizations_validate():
    for rack_name, spec in SPECS:
        real = builtin_realization(rack_name, spec)
        report = validate_principal(
            real, cocycle=builtin_cocycle(rack_name, spec)
        )
        assert report["ok"], (rack_name, spec, report)
        for key in (
            "left_action",
            "equivariance",
            "rack_match",
            "cocycle_rule",
            "values_nonzero",
            "q_match",
        ):
            assert report[key]["ok"], (rack_name, spec, key)
            assert report[key]["checked"] > 0


def test_induced_cocycle_matches_builtin():
    for rack_name, spec in SPECS:
        real = builtin_realization(rack_name, spec)
        assert real.induced_cocycle() == builtin_cocycle(rack_name, spec)


def test_validation_flags_perturbed_cocycle():
    real = builtin_realization("o24", "chi")
    q = builtin_cocycle("o24", "chi")
    rows = [list(r) for r in q.q]
    rows[0][1] = -rows[0][1]
    bad = Cocycle2(real.rack, rows)
    report = validate_principal(real, cocycle=bad)
    assert not report["ok"]
    assert not report["q_match"]["ok"]
    assert report["q_match"]["witnesses"]


def test_dual_braiding_checks():
    for rack_name, spec in SPECS:
        report = dual_braiding_check(builtin_realization(rack_name, spec))
        assert report["ok"], (rack_name, spec)
        assert report["V"] and report["W"]


def test_comatrix_audits_both_sides():
    for rack_name, spec in SPECS:
        real = builtin_realization(rack_name, spec)
        for side in ("pointed", "copointed"):
            report = comatrix_action_audit(real, side)
            assert report["ok"], (rack_name, spec, side, report)
    real = builtin_realization("o24", "chi")
    with pytest.raises(ValueError):
        comatrix_action_audit(real, "dual")
    with pytest.raises(ValueError):
        group_side(real, "dual")


def test_comatrix_audit_flags_wrong_cocycle():
    real = builtin_realization("o24", "const:-1")
    q = builtin_cocycle("o24", "const:-1")
    rows = [list(r) for r in q.q]
    rows[2][3] = F(2)
    bad = Cocycle2(real.rack, rows)
    report = comatrix_action_audit(real, "copointed", cocycle=bad)
    assert not report["ok"]


def test_comatrix_shared_laws_fail_on_a_non_multiplicative_chi():
    # sgn rows with chi_0(e) = 2: the cocycle chi_y(g_x) is untouched, but
    # e[0,0] takes the value 2 at the identity, so the counit, the
    # coproduct, the exchange law and the antipode axiom break on the
    # function side; kG never evaluates chi at the identity
    rack, perms = builtin_rack("o23")
    group = symmetric_permgroup(3)
    rows = [{t: F(perm.sign(t)) for t in group.elements} for _ in perms]
    rows[0][group.identity] = F(2)
    real = principal_realization(rack, perms, rows)
    assert comatrix_action_audit(real, "pointed")["ok"]
    report = comatrix_action_audit(real, "copointed")
    assert not report["ok"]
    for law in ("counit", "coproduct", "exchange", "antipode"):
        assert not report[law]["ok"], law
        assert report[law]["witnesses"], law
    assert report["counit"]["witnesses"] == [(0, 0)]
    assert report["coproduct"]["witnesses"][0] == (0, 0, "e", "e")
    assert report["exchange"]["witnesses"][0] == (0, 0, 1, 1)
    assert report["antipode"]["witnesses"] == [("axiom", 0, 0)]
    assert report["action_eval"]["ok"] and report["yd_compat"]["ok"]

def test_comatrix_shapes():
    real = builtin_realization("o24", "chi")
    e_point = group_side(real, "pointed").e
    for x in range(6):
        for y in range(6):
            if x == y:
                assert e_point[(x, y)] == {real.group.index[real.gmap[x]]: F(1)}
            else:
                assert e_point[(x, y)] == {}
    e_co = group_side(real, "copointed").e
    # each copointed e[x,y] is supported on a coset of the stabilizer of
    # x, of size 24 / 6 = 4
    sizes = {len(e_co[(x, y)]) for x in range(6) for y in range(6)}
    assert sizes == {4}


def _twisted(lam, scale=None):
    """o44/const:-1 twisted by the coboundary of lam: chi'_x(t) =
    lam[t.x] / lam[x] chi_x(t), which keeps the cocycle rule.  ``scale``,
    when given, multiplies chi'_0((12)) and breaks the rule."""
    real = builtin_realization("o44", "const:-1")
    rows = [
        {t: F(lam[real.act(t, x)], lam[x]) * real.chi(x, t) for t in real.group}
        for x in range(real.rack.n)
    ]
    if scale is not None:
        rows[0][perm.from_cycles(4, [(1, 2)])] *= scale
    return principal_realization(real.rack, real.gmap, rows)


# the induced q' = lam[x>y] / lam[y] q takes the values -3 and -1/3
TWIST = (1, 3, 1, 1, 1, 1)


def _five_audits(real):
    return {
        "validate_principal": validate_principal(
            real, cocycle=real.induced_cocycle()
        ),
        "dual_braiding_check": dual_braiding_check(real),
        "comatrix_action_audit.pointed": comatrix_action_audit(real, "pointed"),
        "comatrix_action_audit.copointed": comatrix_action_audit(
            real, "copointed"
        ),
        "theta_characters": theta_characters(real),
    }


def _checked(report):
    return {law: entry["checked"] for law, entry in report.items()
            if isinstance(entry, dict)}


def _failing(report):
    return sorted(law for law, entry in report.items()
                  if isinstance(entry, dict) and not entry["ok"])


def test_twisted_realization_audits_exactly_in_mixed_scalars():
    # a non-unit integer and a non-integral q' entry: 1/3 is no exact
    # float, so a float 1/q(z,y) in the copointed antipode powers would
    # miss Fraction(-1, 3), where 1/2 would slip through
    real = _twisted(TWIST)
    values = {v for row in real.induced_cocycle().q for v in row}
    assert F(-3) in values
    assert F(-1, 3) in values
    plain = _five_audits(builtin_realization("o44", "const:-1"))
    for name, report in _five_audits(real).items():
        assert report["ok"], (name, report)
        assert _checked(report) == _checked(plain[name]), name


def test_twisted_realization_with_a_scaled_chi_value_fails():
    # chi'_0((12)) times 2/3 breaks the cocycle rule; (12) is no 4-cycle,
    # so the induced cocycle is untouched.  The witnesses are those of the
    # Fraction-only audits
    real = _twisted(TWIST, scale=F(2, 3))
    report = validate_principal(real, cocycle=real.induced_cocycle())
    assert _failing(report) == ["cocycle_rule"]
    assert report["cocycle_rule"]["witnesses"][0] == ("(34)", "(12)", "(1234)")
    report = comatrix_action_audit(real, "copointed")
    assert _failing(report) == ["antipode", "coproduct", "exchange"]
    assert report["antipode"]["witnesses"][0] == ("axiom", 0, 0)
    assert report["coproduct"]["witnesses"][0] == (0, 0, "(12)", "(234)")
    assert report["exchange"]["witnesses"][0] == (0, 2, 1, 4)


def test_chi_returns_ints_where_integral_else_fractions():
    for real in (builtin_realization("o24", "chi"), _twisted(TWIST)):
        for x in range(real.rack.n):
            for t in real.group:
                v = real.chi(x, t)
                assert type(v) is (int if v.denominator == 1 else F)


def _scalar_form(values):
    """Whether every value is an int where integral and a Fraction
    otherwise, never a float."""
    return all(type(v) is (int if v.denominator == 1 else F) for v in values)


def test_one_exact_scalar_from_the_cocycle_to_the_audits():
    reals = [builtin_realization(*spec) for spec in SPECS[:3]] + [_twisted(TWIST)]
    for real in reals:
        q = real.induced_cocycle()
        assert _scalar_form(v for row in q.q for v in row)
        for flavor in ("V", "W"):
            space = make_braiding(q.rack, q, flavor)
            assert _scalar_form(c for _, c in space.pair_map.values())
            assert _scalar_form(quantum_symmetrizer(space, 3).entries.values())
        assert _scalar_form(real.chi(x, t) for x in range(q.rack.n) for t in real.group)
    # the twisted cocycle has entries -3 and -1/3, and chi non-integral values
    twisted = reals[-1]
    assert {-3, F(-1, 3)} <= {v for row in twisted.induced_cocycle().q for v in row}
    assert any(type(twisted.chi(x, t)) is F for x in range(6) for t in twisted.group)
    # products on a smash product whose structure constants include
    # 1/2, 3 and -2/3
    o23, alg_v, action, _, _ = _o23_smash_inputs()
    scaled, scaled_action = _rescaled(alg_v, action)
    smash = smash_with_group(scaled, o23.group, scaled_action)
    prods = [smash.multiply({i: 1}, {j: 1}) for i in range(smash.dim)
             for j in range(0, smash.dim, 5)]
    values = [c for prod in prods for c in prod.values()]
    assert _scalar_form(values)
    assert any(type(c) is F for c in values) and any(type(c) is int for c in values)


def test_quotient_grading_is_word_degree():
    for rack_name, spec in (("o23", "const:-1"), ("o24", "chi"), ("o44", "const:-1")):
        real = builtin_realization(rack_name, spec)
        quo = QuotientAlgebra(groebner(quadratic_ideal(
            real.rack, builtin_cocycle(rack_name, spec), "W")))
        side = group_side(real, "copointed")
        assert quotient_grading(real, quo) == tuple(
            word_degree(side, w) for w in quo.words), rack_name


def _input_tables(rack_name, spec, lam=None):
    """The group, gmap, chi rows and action of a builtin datum, keyed by
    permutation and computed from perm: sgn or the order character, the
    action conjugation along gmap, and, with ``lam``, the rows twisted as
    in :func:`_twisted`."""
    gmap = tuple(builtin_rack(rack_name)[1])
    group = symmetric_permgroup(len(gmap[0]))
    pos = {p: x for x, p in enumerate(gmap)}
    act = {t: tuple(pos[perm.conjugate(t, p)] for p in gmap) for t in group}
    if spec == "chi":
        rows = [{t: chi_character_value(t, [i for i in range(len(p)) if p[i] != i])
                 for t in group} for p in gmap]
    else:
        rows = [{t: F(perm.sign(t)) for t in group} for _ in gmap]
    if lam is not None:
        rows = [{t: F(lam[act[t][x]], lam[x]) * row[t] for t in group}
                for x, row in enumerate(rows)]
    return group, gmap, rows, act


def test_index_tables_match_the_permutation_keyed_formulas():
    cases = [
        (builtin_realization("o23", "const:-1"), ("o23", "const:-1")),
        (builtin_realization("o24", "chi"), ("o24", "chi")),
        (builtin_realization("o44", "const:-1"), ("o44", "const:-1")),
        (_twisted(TWIST), ("o44", "const:-1", TWIST)),
    ]
    for real, data in cases:
        group, gmap, rows, act = _input_tables(*data)
        n = len(gmap)
        assert real.gmap == gmap
        for x in range(n):
            for t in group:
                assert real.chi(x, t) == rows[x][t], (data, x, t)
                assert real.act(t, x) == act[t][x], (data, x, t)
        elements = group.elements
        pointed = group_side(real, "pointed")
        copointed = group_side(real, "copointed")
        assert {elements[i]: c for i, c in pointed.unit.items()} == {group.identity: 1}
        assert len(copointed.unit) == len(group)
        for x in range(n):
            for y in range(n):
                want = {gmap[x]: 1} if x == y else {}
                got = {elements[i]: c for i, c in pointed.e[x, y].items()}
                assert got == want, (data, x, y)
                # e[x,y](t) = chi_x(t^{-1}) where t^{-1} . x == y
                want = {t: rows[x][perm.inverse(t)] for t in group
                        if act[perm.inverse(t)][x] == y}
                got = {elements[i]: c for i, c in copointed.e[x, y].items()}
                assert got == want, (data, x, y)


def test_group_table_matches_perm():
    for n in (3, 4):
        group = symmetric_permgroup(n)
        elements = group.elements
        for i, s in enumerate(elements):
            assert elements[group.inv[i]] == perm.inverse(s)
            for j, t in enumerate(elements):
                assert elements[group.mul[i][j]] == perm.compose(s, t)


def test_import_builds_no_group_table():
    # a table is built on a group's first audit, never at import nor when
    # a rack is built from the group
    src = os.path.dirname(os.path.dirname(os.path.abspath(rackalg.__file__)))
    code = ("import rackalg.grouprealize; "
            "from rackalg.catalog import symmetric_permgroup, transposition_rack; "
            "transposition_rack(5); "
            "print([k for n in (3, 4, 5) for k in ('mul', 'inv') "
            "if k in vars(symmetric_permgroup(n))])")
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout == "[]\n"


def test_letter_degrees_on_four_cycles():
    # every g_x of o44 is a 4-cycle, so g_x != g_x^{-1} and the two
    # conventions differ, which the transposition racks cannot show
    real = builtin_realization("o44", "const:-1")
    co = group_side(real, "copointed").deg
    assert co == tuple(perm.inverse(p) for p in real.gmap)
    assert all(d != p for d, p in zip(co, real.gmap))
    assert group_side(real, "pointed").deg == real.gmap
    rack, _ = builtin_rack("o44")
    q = builtin_cocycle("o44", "const:-1")
    quo = QuotientAlgebra(groebner(quadratic_ideal(rack, q, "W")))
    degrees = quotient_grading(real, quo)
    for w, d in zip(quo.words, degrees, strict=True):
        want = real.group.identity
        for a in w:
            want = perm.compose(want, perm.inverse(real.gmap[a]))
        assert d == want, w


def test_theta_characters_for_builtins():
    for rack_name, spec in SPECS:
        report = theta_characters(builtin_realization(rack_name, spec))
        assert report["ok"], (rack_name, spec)
        assert report["distinct"]
        assert report["gmap_injective"]
        assert report["collisions"] == []


def test_theta_collisions_on_commuting_class():
    # the double transpositions commute pairwise, the conjugation rack is
    # trivial and the characters coincide
    perms = (
        perm.from_cycles(4, [(1, 2), (3, 4)]),
        perm.from_cycles(4, [(1, 3), (2, 4)]),
        perm.from_cycles(4, [(1, 4), (2, 3)]),
    )
    rack = trivial_rack(3)
    real = principal_realization(rack, perms, chi="sgn")
    report = theta_characters(real)
    assert report["ok"]
    assert not report["distinct"]
    assert len(report["collisions"]) == 3


def test_builtin_realization_is_built_once():
    assert builtin_realization("o24", "chi") is builtin_realization("o24", "chi")
    for _ in range(2):
        with pytest.raises(RealizationError):
            builtin_realization("o24", "const:2")


def test_scalar_algebra_smash_is_group_algebra():
    g = symmetric_permgroup(3)
    triv = FiniteDimAlgebra(1, [[{0: 1}]], {0: 1}, labels=("1",))
    action = {t: [{0: F(1)}] for t in g}
    smash = smash_with_group(triv, g, action)
    assert smash.dim == 6
    assert smash.associativity_audit()["ok"]
    assert smash.unit_audit()["ok"]
    # the product table is exactly the group multiplication
    for i, a in enumerate(g.elements):
        for j, b in enumerate(g.elements):
            prod = smash.multiply({i: F(1)}, {j: F(1)})
            assert prod == {g.index[perm.compose(a, b)]: F(1)}


def test_scalar_algebra_smash_with_dual_is_function_algebra():
    g = symmetric_permgroup(3)
    triv = FiniteDimAlgebra(1, [[{0: 1}]], {0: 1}, labels=("1",))
    degrees = [g.identity]
    smash = smash_with_dual(triv, g, degrees)
    assert smash.dim == 6
    assert smash.associativity_audit()["ok"]
    # delta functions are orthogonal idempotents
    for i in range(6):
        for j in range(6):
            prod = smash.multiply({i: F(1)}, {j: F(1)})
            assert prod == ({i: F(1)} if i == j else {})


def test_quotient_smash_with_group():
    real = builtin_realization("o23", "const:-1")
    quo = fk3_quotient("V")
    alg = algebra_from_quotient(quo)
    assert alg.dim == 12
    assert alg.unit_audit()["ok"]
    action = quotient_group_action(real, quo)
    audit = module_algebra_audit_group(alg, real.group, action)
    assert audit["ok"], audit
    smash = smash_with_group(alg, real.group, action)
    assert smash.dim == 72
    assert smash.unit_audit()["ok"]
    assert smash.associativity_audit()["ok"]


def test_quotient_smash_with_dual():
    real = builtin_realization("o23", "const:-1")
    quo = fk3_quotient("W")
    alg = algebra_from_quotient(quo)
    degrees = quotient_grading(real, quo)
    audit = module_algebra_audit_grading(alg, real.group, degrees)
    assert audit["ok"], audit
    smash = smash_with_dual(alg, real.group, degrees)
    assert smash.dim == 72
    assert smash.unit_audit()["ok"]
    assert smash.associativity_audit()["ok"]


def test_smash_rejects_broken_action():
    real = builtin_realization("o23", "const:-1")
    quo = fk3_quotient("V")
    alg = algebra_from_quotient(quo)
    action = quotient_group_action(real, quo)
    t = perm.from_cycles(3, [(1, 2)])
    broken = dict(action)
    broken[t] = [dict(img) for img in broken[t]]
    broken[t][1] = {1: F(2)}  # no longer an algebra map
    with pytest.raises(NotModuleAlgebra) as caught:
        smash_with_group(alg, real.group, broken)
    report = module_algebra_audit_group(alg, real.group, broken)
    assert caught.value.args == (report["witnesses"][0],)


def test_smash_rejects_broken_grading():
    real = builtin_realization("o23", "const:-1")
    quo = fk3_quotient("W")
    alg = algebra_from_quotient(quo)
    degrees = quotient_grading(real, quo)
    broken = list(degrees)
    broken[1] = real.group.identity
    with pytest.raises(NotModuleAlgebra):
        smash_with_dual(alg, real.group, broken)


def _o23_smash_inputs():
    """The o23/const:-1 realization, the V algebra with its group action
    and the W algebra with its grading."""
    real = builtin_realization("o23", "const:-1")
    quo_v, quo_w = fk3_quotient("V"), fk3_quotient("W")
    return (real, algebra_from_quotient(quo_v), quotient_group_action(real, quo_v),
            algebra_from_quotient(quo_w), quotient_grading(real, quo_w))


def _reference_smash(algebra, group, kind, data):
    """The smash table by the per-(i, g, j, h) formula in Fractions, with
    group products from perm.compose: A # kG for kind "group" (data the
    action), (a_i g)(a_j h) = a_i (g . a_j) gh, or A # k^G for kind "dual"
    (data the degrees), (a_i d_g)(a_j d_h) = [g == deg(a_j) h] a_i a_j d_h."""
    basis = [(i, g) for i in range(algebra.dim) for g in group.elements]
    index = {b: k for k, b in enumerate(basis)}
    table = []
    for i, g in basis:
        row = []
        for j, h in basis:
            out = {}
            if kind == "group":
                gh = perm.compose(g, h)
                for m, cm in data[g][j].items():
                    for n, c in algebra.table[i][m].items():
                        key = index[n, gh]
                        out[key] = out.get(key, F(0)) + F(cm) * F(c)
            elif g == perm.compose(data[j], h):
                out = {index[n, h]: F(c) for n, c in algebra.table[i][j].items()}
            row.append({k: v for k, v in out.items() if v != 0})
        table.append(row)
    return table


def _rescaled(algebra, action):
    """The algebra on a'_i = s_i a_i with s_i in {1/2, 3, -2/3}, and the
    action written in that basis: a'_i a'_j = sum_k s_i s_j c_ijk / s_k a'_k
    and g . a'_j = sum_m s_j A_gjm / s_m a'_m."""
    s = [(F(1, 2), F(3), F(-2, 3))[i % 3] for i in range(algebra.dim)]
    table = [[{k: s[i] * s[j] * c / s[k] for k, c in cell.items()}
              for j, cell in enumerate(row)] for i, row in enumerate(algebra.table)]
    unit = {k: c / s[k] for k, c in algebra.unit.items()}
    images = {g: [{m: s[j] * c / s[m] for m, c in img.items()}
                  for j, img in enumerate(imgs)] for g, imgs in action.items()}
    return FiniteDimAlgebra(algebra.dim, table, unit, labels=algebra.labels), images


def test_smash_tables_match_per_cell_reference():
    real, alg_v, action, alg_w, degrees = _o23_smash_inputs()
    g = real.group
    one = FiniteDimAlgebra(1, [[{0: 1}]], {0: 1}, labels=("1",))
    scaled, scaled_action = _rescaled(alg_v, action)
    assert scaled.unit_audit()["ok"]
    assert scaled.associativity_audit()["ok"]
    cases = [
        (alg_v, "group", action),
        (alg_w, "dual", degrees),
        (one, "group", {t: [{0: F(1)}] for t in g}),
        (one, "dual", [g.identity]),
        (scaled, "group", scaled_action),
    ]
    for algebra, kind, data in cases:
        build = smash_with_group if kind == "group" else smash_with_dual
        smash = build(algebra, g, data)
        assert smash.table == _reference_smash(algebra, g, kind, data), kind
        assert smash.unit_audit()["ok"], kind
        assert smash.associativity_audit()["ok"], kind
    # the rescaled product keeps non-integral constants as Fractions
    cells = [c for row in smash.table for cell in row for c in cell.values()]
    assert any(type(c) is F for c in cells)
    assert all(type(c) is int or c.denominator != 1 for c in cells)


def test_fraction_action_gives_the_same_audit_and_smash_table():
    # the action is built in exact scalars, and the module-algebra pass
    # reads the images it is given as they are
    real, alg_v, action, _, _ = _o23_smash_inputs()
    assert all(type(c) is int
               for images in action.values() for img in images for c in img.values())
    as_fractions = {g: [{m: F(c) for m, c in img.items()} for img in images]
                    for g, images in action.items()}
    assert (module_algebra_audit_group(alg_v, real.group, as_fractions)
            == module_algebra_audit_group(alg_v, real.group, action))
    smash = smash_with_group(alg_v, real.group, as_fractions)
    assert smash.table == smash_with_group(alg_v, real.group, action).table
    assert all(type(c) is int
               for row in smash.table for cell in row for c in cell.values())


def test_smash_products_read_the_group_table(monkeypatch):
    real, alg_v, action, alg_w, degrees = _o23_smash_inputs()
    quo_v = fk3_quotient("V")
    # a group's first audit builds its table from perm, and a datum's
    # construction conjugates along gmap; both happen before the patch
    reals = [builtin_realization(*spec) for spec in SPECS] + [_twisted(TWIST)]
    for r in reals:
        r.group.mul, r.group.inv

    def refuse(*args):
        raise AssertionError("group product outside the indexed table")

    monkeypatch.setattr(perm, "compose", refuse)
    monkeypatch.setattr(perm, "inverse", refuse)
    monkeypatch.setattr(perm, "conjugate", refuse)
    for r in reals:
        for name, report in _five_audits(r).items():
            assert report["ok"], name
    assert quotient_group_action(real, quo_v) == action
    assert module_algebra_audit_group(alg_v, real.group, action)["ok"]
    assert module_algebra_audit_grading(alg_w, real.group, degrees)["ok"]
    for smash in (smash_with_group(alg_v, real.group, action),
                  smash_with_dual(alg_w, real.group, degrees)):
        assert smash.unit_audit()["ok"]
        assert smash.associativity_audit()["ok"]
        assert all(type(c) is int
                   for row in smash.table for cell in row for c in cell.values())
        prod = smash.multiply({7: 1}, smash.unit)
        assert prod == {7: 1}
        assert type(prod[7]) is int


def test_finite_dim_algebra_audits_catch_breakage():
    # a one-dimensional "algebra" whose product forgets the unit
    alg = FiniteDimAlgebra(1, [[{0: F(0)}]], {0: F(1)})
    assert not alg.unit_audit()["ok"]
    # and a two-dimensional one that is not associative:
    # (e1 e0) e1 = e1 while e1 (e0 e1) = e0
    table = [
        [{0: F(1)}, {1: F(1)}],
        [{0: F(1)}, {0: F(1)}],
    ]
    skew = FiniteDimAlgebra(2, table, {0: F(1)})
    report = skew.associativity_audit()
    assert not report["ok"]
    assert report["witnesses"]


def test_finite_dim_algebra_refuses_float_coefficients():
    with pytest.raises(TypeError):
        FiniteDimAlgebra(1, [[{0: 0.5}]], {0: 2.0})
    with pytest.raises(TypeError):
        FiniteDimAlgebra(1, [[{0: F(1)}]], {0: 1.0})


def test_finite_dim_algebra_refuses_indices_outside_the_basis():
    with pytest.raises(ValueError):
        FiniteDimAlgebra(1, [[{3: 1}]], {0: 1})
    with pytest.raises(ValueError):
        FiniteDimAlgebra(1, [[{0: 1}]], {-1: 1})


def _reference_associativity(alg):
    """The per-triple Fraction loop: (a_i a_j) a_k against a_i (a_j a_k)
    for every i, j, k in order, at most five witnesses."""
    d = alg.dim
    T = alg.table
    report = {"ok": True, "checked": d * d * d, "witnesses": []}

    def combine(coeffs, row):
        out = {}
        for m, c in coeffs.items():
            for n, v in row[m].items():
                out[n] = out.get(n, 0) + c * v
        return {n: v for n, v in out.items() if v != 0}

    for i, j, k in itertools.product(range(d), repeat=3):
        lhs = combine(T[i][j], [T[m][k] for m in range(d)])
        rhs = combine(T[j][k], T[i])
        if lhs != rhs:
            report["ok"] = False
            if len(report["witnesses"]) < 5:
                report["witnesses"].append((alg.label(i), alg.label(j), alg.label(k)))
    return report


def _group_algebra(n, shape):
    """Structure constants of k[Z_n] (shape "cyclic"), k[Z_2 x Z_2]
    ("klein") or the 2 x 2 matrices, basis E11 E12 E21 E22 ("matrix")."""
    if shape == "cyclic":
        return [[{(i + j) % n: F(1)} for j in range(n)] for i in range(n)]
    if shape == "klein":
        return [[{i ^ j: F(1)} for j in range(4)] for i in range(4)]
    units = [(0, 0), (0, 1), (1, 0), (1, 1)]
    return [
        [{units.index((a, d)): F(1)} if b == c else {} for c, d in units]
        for a, b in units
    ]


def _random_tables(rng, count):
    """Seeded sparse tables of dimension 1-5: rescaled associative
    algebras with explicit zeros, the same with one entry perturbed, and
    random tables, all with denominators up to 4."""

    def scalar():
        return F(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 4))

    for _ in range(count):
        kind = rng.choice(["associative", "perturbed", "random"])
        if kind == "random":
            d = rng.randint(1, 5)
            table = [
                [{rng.randrange(d): scalar() for _ in range(rng.randint(0, 2))}
                 for _ in range(d)]
                for _ in range(d)
            ]
        else:
            shape = rng.choice(["cyclic", "klein", "matrix"])
            d = rng.randint(1, 5) if shape == "cyclic" else 4
            table = _group_algebra(d, shape)
            # a'_i = s_i a_i gives a'_i a'_j = sum s_i s_j c_ijk / s_k a'_k
            s = [F(rng.choice([-2, -1, 1, 2])) for _ in range(d)]
            table = [
                [{k: s[i] * s[j] * c / s[k] for k, c in table[i][j].items()}
                 for j in range(d)]
                for i in range(d)
            ]
            if kind == "perturbed":
                i, j = rng.randrange(d), rng.randrange(d)
                table[i][j][rng.randrange(d)] = scalar()
        for _ in range(rng.randint(0, 3)):
            cell = table[rng.randrange(d)][rng.randrange(d)]
            k = rng.randrange(d)
            if k not in cell:
                cell[k] = F(0)
        yield kind, FiniteDimAlgebra(d, table, {0: F(1)})


def test_associativity_audit_matches_per_triple_reference():
    rng = random.Random(20170301)
    seen = {"associative": 0, "perturbed": 0, "random": 0}
    failing = 0
    for kind, alg in _random_tables(rng, 400):
        want = _reference_associativity(alg)
        assert alg.associativity_audit() == want, alg.table
        seen[kind] += 1
        failing += not want["ok"]
        if kind == "associative":
            assert want["ok"]
    assert min(seen.values()) > 50
    assert 100 < failing < 350


def test_associativity_audit_witness_order_and_cap_inside_one_pair():
    # k[Z_7] with a_0 a_0 = a_0 + a_1/3: the first failing pair (0, 0)
    # fails for k = 1, ..., 6, so k = 1, ..., 5 are the witnesses
    table = _group_algebra(7, "cyclic")
    table[0][0] = {0: F(1), 1: F(1, 3)}
    alg = FiniteDimAlgebra(7, table, {0: F(1)})
    want = _reference_associativity(alg)
    assert want["witnesses"] == [("0", "0", str(k)) for k in range(1, 6)]
    assert alg.associativity_audit() == want


# ---------------------------------------------------------------------------
# pinned audit reports

AUDIT_FIXTURE = pathlib.Path(__file__).parent / "data" / "grouprealize_audits.json"


def _swapped_gmap_realization():
    """o24 with sgn, but gmap[0] and gmap[1] swapped under the conjugation
    action of the untouched gmap: gmap is no longer equivariant."""
    real = builtin_realization("o24", "const:-1")
    gmap = list(real.gmap)
    gmap[0], gmap[1] = gmap[1], gmap[0]
    return PrincipalRealization(
        real.group,
        real.rack,
        gmap,
        [{t: real.chi(x, t) for t in real.group} for x in range(real.rack.n)],
        {t: tuple(real.act(t, x) for x in range(real.rack.n)) for t in real.group},
    )


def _perturbed(rack_name, spec, entry, value):
    """The builtin cocycle with q[entry] replaced by value(q[entry])."""
    q = builtin_cocycle(rack_name, spec)
    rows = [list(r) for r in q.q]
    x, y = entry
    rows[x][y] = value(rows[x][y])
    return Cocycle2(builtin_rack(rack_name)[0], rows)


def _smash_reports(real):
    out = {}
    quo_v = fk3_quotient("V")
    quo_w = fk3_quotient("W")
    alg_v = algebra_from_quotient(quo_v)
    alg_w = algebra_from_quotient(quo_w)
    action = quotient_group_action(real, quo_v)
    degrees = quotient_grading(real, quo_w)
    out["algebra_V.unit_audit"] = alg_v.unit_audit()
    out["algebra_V.associativity_audit"] = alg_v.associativity_audit()
    out["module_algebra_audit_group"] = module_algebra_audit_group(
        alg_v, real.group, action
    )
    out["module_algebra_audit_grading"] = module_algebra_audit_grading(
        alg_w, real.group, degrees
    )
    smash = smash_with_group(alg_v, real.group, action)
    out["smash_with_group.unit_audit"] = smash.unit_audit()
    out["smash_with_group.associativity_audit"] = smash.associativity_audit()
    smash = smash_with_dual(alg_w, real.group, degrees)
    out["smash_with_dual.unit_audit"] = smash.unit_audit()
    out["smash_with_dual.associativity_audit"] = smash.associativity_audit()
    t = perm.from_cycles(3, [(1, 2)])
    broken = dict(action)
    broken[t] = [dict(img) for img in broken[t]]
    broken[t][1] = {1: F(2)}
    out["module_algebra_audit_group.broken"] = module_algebra_audit_group(
        alg_v, real.group, broken
    )
    broken = list(degrees)
    broken[1] = real.group.identity
    out["module_algebra_audit_grading.broken"] = module_algebra_audit_grading(
        alg_w, real.group, broken
    )
    return out


def audit_reports():
    """Every grouprealize audit on the builtin realizations, negative
    controls included, as one JSON-able tree."""
    out = {}
    for rack_name, spec in sorted(SPECS):
        real = builtin_realization(rack_name, spec)
        entry = {
            "validate_principal": validate_principal(
                real, cocycle=builtin_cocycle(rack_name, spec)
            ),
            "dual_braiding_check": dual_braiding_check(real),
            "comatrix_action_audit.pointed": comatrix_action_audit(
                real, "pointed"
            ),
            "comatrix_action_audit.copointed": comatrix_action_audit(
                real, "copointed"
            ),
            "theta_characters": theta_characters(real),
        }
        if (rack_name, spec) == ("o23", "const:-1"):
            entry.update(_smash_reports(real))
        out["%s/%s" % (rack_name, spec)] = entry

    real = builtin_realization("o24", "chi")
    bad = _perturbed("o24", "chi", (0, 1), lambda v: -v)
    out["o24/chi perturbed cocycle"] = {
        "validate_principal": validate_principal(real, cocycle=bad),
    }
    real = builtin_realization("o24", "const:-1")
    bad = _perturbed("o24", "const:-1", (2, 3), lambda v: F(2))
    out["o24/const:-1 wrong cocycle"] = {
        "comatrix_action_audit.pointed": comatrix_action_audit(
            real, "pointed", cocycle=bad
        ),
        "comatrix_action_audit.copointed": comatrix_action_audit(
            real, "copointed", cocycle=bad
        ),
    }
    real = _swapped_gmap_realization()
    out["o24/const:-1 swapped gmap"] = {
        "validate_principal": validate_principal(real),
        "dual_braiding_check": dual_braiding_check(real),
        "comatrix_action_audit.pointed": comatrix_action_audit(real, "pointed"),
        "comatrix_action_audit.copointed": comatrix_action_audit(
            real, "copointed"
        ),
        "theta_characters": theta_characters(real),
    }
    perms = (
        perm.from_cycles(4, [(1, 2), (3, 4)]),
        perm.from_cycles(4, [(1, 3), (2, 4)]),
        perm.from_cycles(4, [(1, 4), (2, 3)]),
    )
    real = principal_realization(trivial_rack(3), perms, chi="sgn")
    out["double transpositions"] = {"theta_characters": theta_characters(real)}
    no_unit = FiniteDimAlgebra(1, [[{0: F(0)}]], {0: F(1)})
    skew = FiniteDimAlgebra(
        2, [[{0: F(1)}, {1: F(1)}], [{0: F(1)}, {0: F(1)}]], {0: F(1)}
    )
    out["broken algebras"] = {
        "unit_audit": no_unit.unit_audit(),
        "associativity_audit": skew.associativity_audit(),
    }
    return json.loads(json.dumps(out))


def test_audit_reports_match_pinned_fixture():
    want = json.loads(AUDIT_FIXTURE.read_text(encoding="utf-8"))
    got = audit_reports()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


def test_non_equivariant_gmap_fails_theta_with_witnesses():
    report = theta_characters(_swapped_gmap_realization())
    assert not report["ok"]
    for law in ("exchange_convolution", "identified"):
        assert not report[law]["ok"], law
        assert report[law]["witnesses"], law


def test_grading_audit_caps_unit_witnesses():
    # six orthogonal idempotents summing to the unit, all put in the
    # degree of a transposition: six unit failures, at most five kept
    g = symmetric_permgroup(3)
    t = perm.from_cycles(3, [(1, 2)])
    table = [[{i: F(1)} if i == j else {} for j in range(6)] for i in range(6)]
    alg = FiniteDimAlgebra(6, table, {i: F(1) for i in range(6)})
    report = module_algebra_audit_grading(alg, g, [t] * 6)
    assert not report["ok"]
    assert report["checked"] == 6 + 36
    assert len(report["witnesses"]) == 5


if __name__ == "__main__":
    AUDIT_FIXTURE.write_text(
        json.dumps(audit_reports(), sort_keys=True, indent=1) + "\n",
        encoding="utf-8",
    )
