import copy
import itertools
import json
import pathlib
from fractions import Fraction

import pytest

from rackalg import perm
from rackalg.catalog import builtin_cocycle, builtin_rack
from rackalg.deform import (
    ConditionViolated,
    DeformParams,
    IndexMismatch,
    NonzeroCheckFailed,
    NormalizationViolated,
    appendix_membership_audit,
    appendix_printed_elements,
    build_deformed_ideal,
    copointed_lifting_generators,
    function_part,
    is_admissible,
    iso_class_equal,
    pointed_lifting_generators,
    sample_params,
    verify_nonzero,
    zero_parameter_dim,
)
from rackalg import deform
from rackalg.braided import DegreeBudgetExceeded
from rackalg.exactnum import BadNumber
from rackalg.freealg import (
    FreePoly,
    GroebnerBasis,
    groebner,
    is_trivial_quotient,
    normal_form,
    quotient_dim,
)
from rackalg.grouprealize import builtin_realization
from rackalg.linalg import row_space_equal
from rackalg.quadrel import copointed_lambda_space, pointed_lambda_space

F = Fraction
DATA = pathlib.Path(__file__).parent / "data"


def full_scalars(labels, default=0, **overrides):
    vals = {lab: F(default) for lab in labels}
    for lab, v in overrides.items():
        vals[lab] = F(v)
    return vals


def ideal_rows(polys, m):
    basis = (
        [b""]
        + [bytes([i]) for i in range(m)]
        + [bytes([i, j]) for i in range(m) for j in range(m)]
    )
    pos = {w: k for k, w in enumerate(basis)}
    rows = []
    for p in polys:
        v = [F(0)] * len(basis)
        for w, c in p.terms.items():
            v[pos[w]] = c
        rows.append(v)
    return rows


# The hand-written relations of the three named families, kept as the
# reference the presets onto lambda are checked against.  alpha and beta
# are per-label sequences on the rack order.


def transposition_pairs(n):
    """(i, j) with i < j, 1-based, aligned with the transposition rack."""
    _, perms = builtin_rack({3: "o23", 4: "o24"}[n])
    return [tuple(i + 1 for i in range(n) if p[i] != i) for p in perms]


def fourcycle_inverses():
    """idx -> idx of the inverse 4-cycle, on the o44 rack order."""
    _, perms = builtin_rack("o44")
    index = {p: i for i, p in enumerate(perms)}
    return tuple(index[perm.inverse(p)] for p in perms)


def minus_relations(n, alpha, mu1, mu2):
    pairs = transposition_pairs(n)
    idx = {p: i for i, p in enumerate(pairs)}
    m = len(pairs)
    rels = [FreePoly.word(m, [t, t]) - alpha[t] for t in range(m)]
    for t in range(m):
        for u in range(t + 1, m):
            if not set(pairs[t]) & set(pairs[u]):
                rels.append(
                    FreePoly.word(m, [t, u]) + FreePoly.word(m, [u, t]) - mu1
                )
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        a, b, c = idx[(i, j)], idx[(i, k)], idx[(j, k)]
        rels.append(
            FreePoly.word(m, [a, b]) + FreePoly.word(m, [b, c])
            + FreePoly.word(m, [c, a]) - mu2
        )
        rels.append(
            FreePoly.word(m, [b, a]) + FreePoly.word(m, [a, c])
            + FreePoly.word(m, [c, b]) - mu2
        )
    return rels


def chi_relations(n, alpha, mu):
    pairs = transposition_pairs(n)
    idx = {p: i for i, p in enumerate(pairs)}
    m = len(pairs)
    rels = [FreePoly.word(m, [t, t]) - alpha[t] for t in range(m)]
    for t in range(m):
        for u in range(t + 1, m):
            if not set(pairs[t]) & set(pairs[u]):
                rels.append(
                    FreePoly.word(m, [t, u]) - FreePoly.word(m, [u, t])
                )
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        a, b, c = idx[(i, j)], idx[(i, k)], idx[(j, k)]
        rels.append(
            FreePoly.word(m, [a, c]) - FreePoly.word(m, [b, a])
            - FreePoly.word(m, [c, b]) - mu
        )
        rels.append(
            FreePoly.word(m, [c, a]) - FreePoly.word(m, [a, b])
            - FreePoly.word(m, [b, c]) - mu
        )
    return rels


def fourcycle_relations(beta, mu1, mu2):
    rack, _ = builtin_rack("o44")
    inv = fourcycle_inverses()
    m = rack.n
    rels = [FreePoly.word(m, [s, s]) - mu1 for s in range(m)]
    for s in range(m):
        rels.append(
            FreePoly.word(m, [s, inv[s]]) + FreePoly.word(m, [inv[s], s])
            - beta[s]
        )
    for s in range(m):
        for t in range(m):
            if t not in (s, inv[s]):
                v = rack.act(s, t)
                rels.append(
                    FreePoly.word(m, [s, t]) + FreePoly.word(m, [v, s])
                    + FreePoly.word(m, [t, v]) - mu2
                )
    return rels


def inverse_symmetric(values):
    inv = fourcycle_inverses()
    return [F(values[min(s, inv[s])]) for s in range(len(values))]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("constant", [True, False])
def test_presets_match_handwritten_relations(n, constant):
    m = len(transposition_pairs(n))
    alpha = [F(2)] * m if constant else [F(k + 1, 2) for k in range(m)]
    cases = [
        (DeformParams.eminus(n, alpha, 3, 5), minus_relations(n, alpha, 3, 5)),
        (DeformParams.echi(n, alpha, 7), chi_relations(n, alpha, 7)),
    ]
    if n == 4:
        beta = [F(2)] * 6 if constant else inverse_symmetric([1, -2, 3, 0, 0, 0])
        cases.append(
            (DeformParams.etilde(beta, 3, 5), fourcycle_relations(beta, 3, 5))
        )
    for params, reference in cases:
        assert row_space_equal(
            ideal_rows(build_deformed_ideal(params), m),
            ideal_rows(reference, m),
        ), params.family


def test_zero_parameter_dimensions():
    assert zero_parameter_dim(DeformParams.eminus(3, 0)) == 12
    assert zero_parameter_dim(DeformParams.eminus(4, 0)) == 576
    assert zero_parameter_dim(DeformParams.echi(4, 0)) == 576
    assert zero_parameter_dim(DeformParams.etilde(0)) == 576


def test_deformed_dimensions_match_zero_fiber():
    points = [
        DeformParams.eminus(4, 1, F(1, 2), 2),
        DeformParams.echi(4, 3, F(-2, 3)),
        DeformParams.etilde(1, 2, 3),
    ]
    for p in points:
        gb = groebner(build_deformed_ideal(p))
        assert gb.complete
        assert quotient_dim(gb) == 576, p.family


def test_minus_family_matches_generic_relations():
    rack, _ = builtin_rack("o24")
    q = builtin_cocycle("o24", "const:-1")
    space = pointed_lambda_space(rack, q)
    alpha, mu1, mu2 = F(2), F(3), F(5)
    by_size = {c.size: c.base_pair for c in space.free_classes()}
    roots = {by_size[1]: alpha, by_size[2]: mu1, by_size[3]: mu2}
    generic = DeformParams.generic("o24", "const:-1", space.value_map(roots))
    named = DeformParams.eminus(4, alpha, mu1, mu2)
    assert row_space_equal(
        ideal_rows(build_deformed_ideal(named), 6),
        ideal_rows(build_deformed_ideal(generic), 6),
    )


def test_chi_family_matches_generic_relations():
    rack, _ = builtin_rack("o24")
    q = builtin_cocycle("o24", "chi")
    space = pointed_lambda_space(rack, q)
    alpha, mu = F(2), F(7)
    by_size = {c.size: c.base_pair for c in space.free_classes()}
    # the 3-term scalar enters with the opposite sign to the square one
    roots = {by_size[1]: alpha, by_size[3]: -mu}
    generic = DeformParams.generic("o24", "chi", space.value_map(roots))
    named = DeformParams.echi(4, alpha, mu)
    assert row_space_equal(
        ideal_rows(build_deformed_ideal(named), 6),
        ideal_rows(build_deformed_ideal(generic), 6),
    )


def test_fourcycle_family_matches_generic_relations():
    rack, _ = builtin_rack("o44")
    q = builtin_cocycle("o44", "const:-1")
    space = pointed_lambda_space(rack, q)
    beta, mu1, mu2 = F(2), F(3), F(5)
    by_size = {c.size: c.base_pair for c in space.free_classes()}
    roots = {by_size[2]: beta, by_size[1]: mu1, by_size[3]: mu2}
    generic = DeformParams.generic("o44", "const:-1", space.value_map(roots))
    named = DeformParams.etilde(beta, mu1, mu2)
    assert row_space_equal(
        ideal_rows(build_deformed_ideal(named), 6),
        ideal_rows(build_deformed_ideal(generic), 6),
    )


def test_admissibility_branches():
    labels24 = builtin_rack("o24")[0].labels
    assert is_admissible(DeformParams.eminus(4, 1, 2, 3))
    varied = full_scalars(labels24, default=1, **{"(34)": 2})
    assert is_admissible(DeformParams.eminus(4, varied, 0, 0))
    assert not is_admissible(DeformParams.eminus(4, varied, 1, 0))
    assert is_admissible(DeformParams.echi(4, 1, 5))
    assert not is_admissible(DeformParams.echi(4, varied, 5))
    assert is_admissible(DeformParams.etilde(1, 2, 3))
    # inverse-pair-constant but not globally constant, zero mus
    inv = fourcycle_inverses()
    rack, _ = builtin_rack("o44")
    beta = full_scalars(
        rack.labels,
        **{rack.labels[0]: 1, rack.labels[inv[0]]: 1},
    )
    assert is_admissible(DeformParams.etilde(beta, 0, 0))
    assert not is_admissible(DeformParams.etilde(beta, 1, 0))
    # breaking the inverse-pair symmetry leaves the model
    broken = full_scalars(rack.labels, **{rack.labels[0]: 1})
    with pytest.raises(IndexMismatch):
        DeformParams.etilde(broken, 0, 0)


def test_generic_admissibility_follows_ties():
    rack, _ = builtin_rack("o24")
    q = builtin_cocycle("o24", "chi")
    space = pointed_lambda_space(rack, q)
    roots = {c.base_pair: F(1) for c in space.free_classes()}
    good = DeformParams.generic("o24", "chi", space.value_map(roots))
    assert is_admissible(good)
    bad_lam = dict(space.value_map(roots))
    zero_pair = space.zero_classes()[0].base_pair
    bad_lam[zero_pair] = F(1)
    assert not is_admissible(DeformParams.generic("o24", "chi", bad_lam))


def test_generic_requires_full_lambda_keying():
    with pytest.raises(IndexMismatch):
        DeformParams.generic("o24", "chi", {(0, 0): 1})


def test_verify_nonzero_small_family():
    report = verify_nonzero(DeformParams.eminus(3, 1, 1, 1), samples=4, seed=2)
    assert report["expected_dim"] == 12
    assert len(report["runs"]) == 5
    assert report["all_nonzero"] and report["flat_on_admissible"]
    for run in report["runs"]:
        assert not run["trivial"]
        if run["admissible"]:
            assert run["dim"] == 12


def test_asymmetric_fourcycle_scalars_collapse():
    rack, _ = builtin_rack("o44")
    # value differs from the one at the inverse label
    beta = full_scalars(rack.labels, **{rack.labels[0]: 1})
    with pytest.raises(IndexMismatch):
        DeformParams.etilde(beta, 0, 0)
    # the two anticommutators of an inverse pair are one word sum, so
    # asking for 1 and 0 at once puts 1 in the ideal
    s, t = 0, fourcycle_inverses()[0]
    anti = FreePoly.word(6, [s, t]) + FreePoly.word(6, [t, s])
    assert is_trivial_quotient(groebner([anti - 1, anti]))


def test_sampling_is_deterministic():
    template = DeformParams.echi(4, 1, 1)
    a = [p.to_json() for p in sample_params(template, 5, 13)]
    b = [p.to_json() for p in sample_params(template, 5, 13)]
    assert a == b
    assert len(a) == 5


def test_params_json_round_trip():
    for p in (
        DeformParams.eminus(4, 1, F(1, 2), 0),
        DeformParams.echi(3, 2, 1),
        DeformParams.etilde(2, 0, 1),
        DeformParams.generic(
            "o24",
            "chi",
            {
                c.base_pair: F(0)
                for c in pointed_lambda_space(
                    builtin_rack("o24")[0], builtin_cocycle("o24", "chi")
                ).classes
            },
        ),
    ):
        doc = p.to_json()
        back = DeformParams.from_json(doc)
        assert back.to_json() == doc


def test_params_json_values_are_exact():
    doc = DeformParams.eminus(4, 0, 1, 0).to_json()
    doc["params"]["alpha"]["(12)"] = "0.1"
    i12 = builtin_rack("o24")[0].labels.index("(12)")
    assert DeformParams.from_json(doc).coordinates()[0][i12] == F(1, 10)
    for edit in (
        lambda d: d["params"]["alpha"].update({"(12)": 0.1}),
        lambda d: d["params"].update(mu1=True),
        lambda d: d["params"].update(mu2="1e10000000"),
        lambda d: d.update(n=True),
        lambda d: d.update(n=4.0),
    ):
        bad = copy.deepcopy(doc)
        edit(bad)
        with pytest.raises(BadNumber):
            DeformParams.from_json(bad)


def test_params_json_reads_a_missing_mu_as_zero():
    doc = DeformParams.etilde(1, 2, 3).to_json()
    del doc["params"]["mu1"], doc["params"]["mu2"]
    assert DeformParams.from_json(doc).coordinates()[1] == {"mu1": 0, "mu2": 0}
    doc["n"] = 4
    assert DeformParams.from_json(doc).to_json() == DeformParams.etilde(1).to_json()
    doc = DeformParams.eminus(4, 1, 2, 3).to_json()
    del doc["params"]["mu1"]
    assert DeformParams.from_json(doc).coordinates()[1] == {"mu1": 0, "mu2": 3}


def test_printed_elements_reduce_to_zero():
    for alpha, mu1, mu2 in [
        (F(1), F(0), F(0)),
        (F(1), F(1), F(1)),
        (F(2), F(-1), F(1, 2)),
    ]:
        params = DeformParams.eminus(4, alpha, mu1, mu2)
        report = appendix_membership_audit(params)
        assert report["all_member"], (alpha, mu1, mu2)
        assert report["gb_status"] == "complete"


def test_printed_elements_flag_wrong_point():
    good = DeformParams.eminus(4, 1, 1, 1)
    gb_other = groebner(
        build_deformed_ideal(DeformParams.eminus(4, 2, 1, 1))
    )
    report = appendix_membership_audit(good, gb=gb_other)
    assert not report["all_member"]


def test_printed_element_count_and_degrees():
    els = appendix_printed_elements(F(1), F(1), F(1))
    assert len(els) == 13
    assert sorted({e.degree() for e in els}) == [3, 4, 5, 6]


def test_copointed_normalizations():
    labels24 = builtin_rack("o24")[0].labels
    labels44 = builtin_rack("o44")[0].labels
    with pytest.raises(NormalizationViolated):
        # the lambda_x must sum to zero
        copointed_lifting_generators(
            DeformParams.eminus(4, full_scalars(labels24, **{"(12)": 1}))
        )
    with pytest.raises(NormalizationViolated):
        # a nonzero mu leaves the copointed space
        zero_sum = full_scalars(labels24, **{"(12)": 1, "(34)": -1})
        copointed_lifting_generators(DeformParams.eminus(4, zero_sum, 0, 1))
    with pytest.raises(IndexMismatch):
        # sums to zero but breaks the inverse-pair rule of the preset chart
        DeformParams.etilde(
            full_scalars(labels44, **{"(1234)": 1, "(1243)": -1})
        )
    with pytest.raises(IndexMismatch):
        # no lifting family deforms the transpositions of S3
        copointed_lifting_generators(DeformParams.eminus(3, 0))
    with pytest.raises(ValueError):
        iso_class_equal([0] * 6, [0] * 6, "NoSuchFamily")
    cl = DeformParams.eminus(
        4, full_scalars(labels24, **{"(12)": 1, "(34)": -1})
    )
    copointed_lifting_generators(cl)
    assert sum(cl.coordinates()[0]) == 0


def fourcycle_lambda():
    rack, _ = builtin_rack("o44")
    inv = fourcycle_inverses()
    lam = [F(0)] * 6
    lam[0] = lam[inv[0]] = F(2)
    lam[1] = lam[inv[1]] = F(-2)
    return DeformParams.etilde({rack.labels[i]: lam[i] for i in range(6)})


def test_copointed_generator_counts():
    labels24 = builtin_rack("o24")[0].labels
    cl = DeformParams.eminus(
        4, full_scalars(labels24, **{"(12)": 1, "(34)": -1})
    )
    gens = copointed_lifting_generators(cl)
    assert len(gens["quadratic"]) == 11
    assert len(gens["deformed"]) == 6
    chi = DeformParams.echi(
        4, full_scalars(labels24, **{"(13)": 2, "(24)": -2})
    )
    gens_chi = copointed_lifting_generators(chi)
    assert len(gens_chi["quadratic"]) == 11
    assert len(gens_chi["deformed"]) == 6
    gens4 = copointed_lifting_generators(fourcycle_lambda())
    assert len(gens4["quadratic"]) == 14
    assert len(gens4["deformed"]) == 6


def test_function_part_values():
    labels24 = builtin_rack("o24")[0].labels
    cl = DeformParams.eminus(
        4, full_scalars(labels24, **{"(12)": 1, "(34)": -1})
    )
    fs = function_part(cl)
    ident = perm.identity(4)
    for f in fs:
        # the counit of every deforming function vanishes
        assert ident not in f
    # conjugating (12) by (12) fixes it; by (13) moves it to (23)
    rack, perms = builtin_rack("o24")
    x12 = rack.labels.index("(12)")
    g13 = perm.from_cycles(4, [(1, 3)])
    f12 = fs[x12]
    # lam[(12)] - lam[(23)] = 1 - 0
    assert f12[g13] == 1
    # f_x(g) = lam_x - lam at the conjugate of x by g^-1, for all of S4
    lam = cl.coordinates()[0]
    index = {p: i for i, p in enumerate(perms)}
    for x, px in enumerate(perms):
        for g in perm.symmetric_group(4):
            conj = perm.conjugate(perm.inverse(g), px)
            assert fs[x].get(g, 0) == lam[x] - lam[index[conj]]


def test_function_part_agrees_on_inverse_pairs():
    fs = function_part(fourcycle_lambda())
    inv = fourcycle_inverses()
    for s in range(6):
        assert fs[s] == fs[inv[s]]


def test_automorphism_conjugators_all_distinct():
    # Aut(S4) is conjugation by the 24 elements; the realization's action,
    # which relabels lambda in iso_class_equal, is that conjugation on the
    # rack, and the 24 maps are pairwise distinct on both racks
    for rack_name, spec in [("o24", "const:-1"), ("o44", "const:-1")]:
        real = builtin_realization(rack_name, spec)
        perms = builtin_rack(rack_name)[1]
        index = {p: i for i, p in enumerate(perms)}
        assert list(real.group) == perm.symmetric_group(4)
        maps = set()
        for t in real.group:
            action = tuple(real.act(t, x) for x in range(6))
            assert action == tuple(
                index[perm.compose(t, perm.compose(p, perm.inverse(t)))]
                for p in perms
            )
            maps.add(action)
        assert len(maps) == 24


def test_iso_class_pointed():
    ok, wit = iso_class_equal([1, 2, 0], [2, 4, 0], "pointed")
    assert ok and wit == {"mu": "2"}
    ok, _ = iso_class_equal([1, 2], [2, 5], "pointed")
    assert not ok
    ok, wit = iso_class_equal([0, 0], [0, 0], "pointed")
    assert ok and wit == {"mu": "any"}
    ok, _ = iso_class_equal([0, 1], [1, 1], "pointed")
    assert not ok
    with pytest.raises(IndexMismatch):
        iso_class_equal([1], [1, 2], "pointed")


def test_iso_class_copointed_scaling():
    lam = [1, -1, 0, 0, 0, 0]
    doubled = [2, -2, 0, 0, 0, 0]
    ok, wit = iso_class_equal(lam, doubled, "TranspMinus")
    assert ok
    assert wit["theta"] == "e" and wit["mu"] == "2"


def test_iso_class_copointed_relabelling():
    rack, perms = builtin_rack("o24")
    lam = [F(1), F(2), F(-3), F(0), F(0), F(0)]
    t = perm.from_cycles(4, [(1, 3, 2)])
    tinv = perm.inverse(t)
    index = {p: i for i, p in enumerate(perms)}
    moved = [F(0)] * 6
    for i in range(6):
        j = index[perm.compose(t, perm.compose(perms[i], tinv))]
        moved[j] = lam[i]
    ok, wit = iso_class_equal(lam, moved, "TranspMinus")
    assert ok
    assert wit["mu"] == "1"


def test_iso_class_copointed_distinct():
    a = [1, -1, 0, 0, 0, 0]
    b = [2, -1, -1, 0, 0, 0]
    ok, wit = iso_class_equal(a, b, "TranspMinus")
    assert not ok and wit is None


def test_pointed_lifting_generators_all_families():
    for rack_name, spec in [
        ("o24", "const:-1"),
        ("o24", "chi"),
        ("o44", "const:-1"),
    ]:
        real = builtin_realization(rack_name, spec)
        rack = real.rack
        q = real.induced_cocycle()
        space = pointed_lambda_space(rack, q)
        lam_free = {c.base_pair: F(1) for c in space.free_classes()}
        records = pointed_lifting_generators(real, lam_free)
        assert len(records) == 17
        values = space.value_map(lam_free)
        for rec in records:
            assert rec["b"].degree() == 2
            assert rec["lam"] == values[rec["class"].base_pair]
            i2, i1 = rec["class"].base_pair
            assert rec["g"] == perm.compose(
                real.gmap[i2], real.gmap[i1]
            )


def test_pointed_lifting_rejects_clashing_group_data():
    real = builtin_realization("o24", "const:-1")

    class Doctored:
        def __init__(self, base, gmap):
            self.rack = base.rack
            self.group = base.group
            self.gmap = gmap
            self._base = base

        def induced_cocycle(self):
            return self._base.induced_cocycle()

    c = perm.from_cycles(4, [(1, 2, 3, 4)])
    c2 = perm.compose(c, c)
    gmap = [c] * 6
    gmap[3] = c2  # now some class product c*c equals this entry
    fake = Doctored(real, tuple(gmap))
    space = pointed_lambda_space(real.rack, real.induced_cocycle())
    lam_free = {cl.base_pair: F(1) for cl in space.free_classes()}
    with pytest.raises(ConditionViolated):
        pointed_lifting_generators(fake, lam_free)


def test_pointed_lifting_requires_free_class_keys():
    real = builtin_realization("o24", "chi")
    with pytest.raises(IndexMismatch):
        pointed_lifting_generators(real, {(0, 0): F(1)})


def test_copointed_deformed_squares_are_consistent():
    # the deformed relation x_s^2 = f_s must reduce to the quadratic ideal
    # when lambda = 0
    cl = DeformParams.eminus(
        4, {label: 0 for label in builtin_rack("o24")[0].labels}
    )
    gens = copointed_lifting_generators(cl)
    for rec in gens["deformed"]:
        assert rec["f"] == {}


def test_generic_copointed_point_is_admissible_and_flat():
    rack, _ = builtin_rack("o24")
    space = copointed_lambda_space(rack, builtin_cocycle("o24", "chi"))
    free = [c.base_pair for c in space.free_classes()]
    assert all(a == b for a, b in free)  # the six squares
    lam = {c.base_pair: F(0) for c in space.classes}
    lam.update({pair: F(k - 2, 3) for k, pair in enumerate(free)})
    params = DeformParams.generic("o24", "chi", lam)
    assert is_admissible(params)
    report = verify_nonzero(params)
    assert report["runs"][0]["admissible"]
    assert report["runs"][0]["dim"] == 576


def test_preset_n_outside_range_is_rejected():
    for n in (1, 2, 5):
        with pytest.raises(IndexMismatch):
            DeformParams.eminus(n, 1)
        with pytest.raises(IndexMismatch):
            DeformParams.echi(n, 1)


def test_sample_params_pinned():
    """Documents recorded before the families became presets onto lambda.

    o23 has no pair of commuting transpositions, so Eminus on n = 3 has no
    class for mu1 and its documents no longer carry it.
    """
    recorded = json.loads((DATA / "sample_params_seed11.json").read_text())
    templates = {
        "Eminus-3": DeformParams.eminus(3, 1, 1, 1),
        "Eminus-4": DeformParams.eminus(4, 1, 1, 1),
        "Echi-3": DeformParams.echi(3, 1, 1),
        "Echi-4": DeformParams.echi(4, 1, 1),
        "Etilde": DeformParams.etilde(1, 1, 1),
    }
    assert set(recorded) == set(templates)
    for label, template in templates.items():
        docs = recorded[label]
        if label == "Eminus-3":
            for doc in docs:
                del doc["params"]["mu1"]
        assert [p.to_json() for p in sample_params(template, 6, 11)] == docs


def test_zero_fibre_cache_keys_on_budget():
    p = DeformParams.eminus(4, 1, 1, 1)
    assert zero_parameter_dim(p, max_deg=3) == "unknown"
    assert zero_parameter_dim(p) == 576


def test_verify_nonzero_refuses_truncated_zero_fibre():
    with pytest.raises(DegreeBudgetExceeded):
        verify_nonzero(DeformParams.echi(3, 1, 1), max_deg=2)


def test_verify_nonzero_refuses_truncated_admissible_point(monkeypatch):
    params = DeformParams.echi(3, 1, 1)
    assert zero_parameter_dim(params) == 12  # cached before the patch
    real = deform.groebner

    def truncated(gens, max_deg=16, max_basis=20000, ngens=None):
        gb = real(gens, max_deg, max_basis, ngens=ngens)
        return GroebnerBasis(gb.ngens, gb._items, truncated_at=max_deg)

    monkeypatch.setattr(deform, "groebner", truncated)
    with pytest.raises(DegreeBudgetExceeded):
        verify_nonzero(params)
