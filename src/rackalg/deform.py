"""Deformed quadratic ideals, their parameter spaces, and lifting data.

One deformation model: over a builtin rack and cocycle, the point lambda
assigns a scalar lambda_C to every class C of R', and the deformed ideal is
spanned by the relations b_C - lambda_C.  A point is admissible when it
lies in the pointed or the copointed parameter space.  The named families
Eminus, Echi (transpositions of S3/S4) and Etilde (4-cycles of S4) are
presets onto lambda; GenericLambda takes lambda as given.  Verification is
by exact rational specialization: seeded samples feed the Groebner engine,
which certifies nontriviality and (on the admissible points) flatness of
the dimension.

A copointed lifting datum is a point of the same model: the Eminus, Echi
or Etilde preset at n = 4 with zero mu's (the lifting families
TranspMinus, TranspChi and FourCycles of LIFTINGS), which lies in the
copointed space, with the one further law sum_x lambda_x = 0.  Its
deforming functions are read off the group action of the builtin
realization.
"""

import random
import re
from fractions import Fraction
from functools import lru_cache

from . import catalog, perm, quadrel
from .braided import DegreeBudgetExceeded
from .exactnum import exact, integer, number_text, rational, refuse_unread
from .freealg import (
    FreePoly,
    groebner,
    is_trivial_quotient,
    normal_form,
    quotient_dim,
)


class IndexMismatch(ValueError):
    """Parameter labels do not line up with the rack."""


class NonzeroCheckFailed(AssertionError):
    """A sampled specialization came out trivial or non-flat."""


class ConditionViolated(ValueError):
    """A class element collides with a generator comatrix element."""


class NormalizationViolated(ValueError):
    """A copointed lifting datum leaves the copointed space, or its
    lambda_x do not sum to zero."""


EMINUS = "Eminus"
ECHI = "Echi"
ETILDE = "Etilde"
GENERIC = "GenericLambda"
FAMILIES = (ECHI, EMINUS, ETILDE, GENERIC)

# The presets as coordinates on lambda: their racks by n (the degree of the
# symmetric group), their cocycle, the name of the per-label scalar, and
# each mu as (name, size of its pointed root class, sign of lambda there).
# The per-label scalar of x sits on the copointed-free class holding a pair
# (x, .); the 4-cycle classes hold inverse pairs, so beta agrees on them.
PRESETS = {
    EMINUS: ({3: "o23", 4: "o24"}, "const:-1", "alpha",
             (("mu1", 2, 1), ("mu2", 3, 1))),
    ECHI: ({3: "o23", 4: "o24"}, "chi", "alpha", (("mu", 3, -1),)),
    ETILDE: ({4: "o44"}, "const:-1", "beta", (("mu1", 1, 1), ("mu2", 3, 1))),
}


def _normalize_scalars(raw, labels, what):
    """Accept a scalar, a label-keyed dict, or a full sequence."""
    m = len(labels)
    if isinstance(raw, dict):
        vals = [None] * m
        label_index = {lab: i for i, lab in enumerate(labels)}
        for key, v in raw.items():
            if key not in label_index:
                raise IndexMismatch(f"unknown {what} label {key!r}")
            vals[label_index[key]] = exact(v)
        if any(v is None for v in vals):
            missing = [labels[i] for i, v in enumerate(vals) if v is None]
            raise IndexMismatch(f"missing {what} values for {missing}")
        return tuple(vals)
    if isinstance(raw, (list, tuple)):
        if len(raw) != m:
            raise IndexMismatch(f"{what} needs {m} values, got {len(raw)}")
        return tuple(exact(v) for v in raw)
    return (exact(raw),) * m


@lru_cache(maxsize=None)
def _model(rack_name, cocycle_spec):
    """(rack, ((base pair, b_C) for C in R'), pointed space, copointed
    space) of a builtin rack and cocycle."""
    rack, _ = catalog.builtin_rack(rack_name)
    q = catalog.builtin_cocycle(rack_name, cocycle_spec)
    pointed = quadrel.pointed_lambda_space(rack, q)
    relations = tuple(
        (c.base_pair, quadrel.relation_poly(c, "V", rack.n))
        for c in pointed.classes
    )
    return rack, relations, pointed, quadrel.copointed_lambda_space(rack, q)


def _label_classes(space, n):
    """Per label x, the base pair of the free class holding a pair (x, .)."""
    holder = {a: c.base_pair for c in space.free_classes() for a, _ in c.pairs()}
    return tuple(holder[x] for x in range(n))


@lru_cache(maxsize=None)
def _chart(family, rack_name, cocycle_spec):
    """(per-label classes, mus) of a family on lambda.

    Each mu is (name, base pair of its root class or None when the rack
    has no class of that size, sign).  GenericLambda has no per-label
    scalars; its coordinates are the free roots of the pointed space.
    """
    rack, _, pointed, copointed = _model(rack_name, cocycle_spec)
    if family not in PRESETS:
        return (), tuple((None, c.base_pair, 1) for c in pointed.free_classes())
    by_size = {c.size: c.base_pair for c in pointed.free_classes()}
    return _label_classes(copointed, rack.n), tuple(
        (name, by_size.get(size), sign) for name, size, sign in PRESETS[family][3]
    )


def _preset_rack(family, n):
    racks = PRESETS[family][0]
    if n not in racks:
        raise IndexMismatch(f"{family} needs n in {sorted(racks)}, got {n!r}")
    return racks[n]


class DeformParams:
    """One point lambda of the deformation model, with the family name
    that shapes its document."""

    __slots__ = ("family", "rack_name", "cocycle_spec", "lam")

    def __init__(self, family, rack_name, cocycle_spec, lam):
        self.family = family
        self.rack_name = rack_name
        self.cocycle_spec = cocycle_spec
        self.lam = lam

    @classmethod
    def _from_chart(cls, family, rack_name, cocycle_spec, scalars, mus):
        """The point with these per-label scalars and mu values."""
        _, _, pointed, _ = _model(rack_name, cocycle_spec)
        labels, chart_mus = _chart(family, rack_name, cocycle_spec)
        roots = {c.base_pair: 0 for c in pointed.free_classes()}
        for (_, root, sign), v in zip(chart_mus, mus):
            if root is not None:
                roots[root] = sign * exact(v)
        lam = pointed.value_map(roots)
        fixed = {}
        for pair, v in zip(labels, scalars):
            if fixed.setdefault(pair, exact(v)) != v:
                raise IndexMismatch(
                    f"{PRESETS[family][2]} must agree on labels sharing "
                    "a relation class"
                )
        lam.update(fixed)
        return cls(family, rack_name, cocycle_spec, lam)

    @classmethod
    def _preset(cls, family, n, scalars, *mus):
        _, spec, key, _ = PRESETS[family]
        rack_name = _preset_rack(family, n)
        labels = _model(rack_name, spec)[0].labels
        return cls._from_chart(
            family, rack_name, spec, _normalize_scalars(scalars, labels, key),
            mus,
        )

    @classmethod
    def eminus(cls, n, alpha, mu1=0, mu2=0):
        """On o23 no pair of transpositions commutes, so mu1 has no class
        there and is dropped."""
        return cls._preset(EMINUS, n, alpha, mu1, mu2)

    @classmethod
    def echi(cls, n, alpha, mu=0):
        return cls._preset(ECHI, n, alpha, mu)

    @classmethod
    def etilde(cls, beta, mu1=0, mu2=0):
        return cls._preset(ETILDE, 4, beta, mu1, mu2)

    @classmethod
    def generic(cls, rack_name, cocycle_spec, lam):
        _, relations, _, _ = _model(rack_name, cocycle_spec)
        lam = {tuple(k): exact(v) for k, v in lam.items()}
        if set(lam) != {pair for pair, _ in relations}:
            raise IndexMismatch(
                "lambda must be keyed by the base pairs of R'"
            )
        return cls(GENERIC, rack_name, cocycle_spec, lam)

    @classmethod
    def unit(cls, family, n=None, rack_name=None, cocycle_spec=None):
        """The family's point with every coordinate 1.  A preset picks its
        rack by n (None means 4); GenericLambda needs the rack and cocycle
        by name.  Either raises IndexMismatch on what it does not read."""
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if family in PRESETS:
            if rack_name is not None or cocycle_spec is not None:
                raise IndexMismatch(f"{family} fixes its rack and cocycle")
            rack_name = _preset_rack(family, 4 if n is None else n)
            cocycle_spec = PRESETS[family][1]
        elif n is not None:
            raise IndexMismatch(f"{family} takes no n")
        elif not (rack_name and cocycle_spec):
            raise IndexMismatch(f"{family} needs a rack and a cocycle")
        labels, mus = _chart(family, rack_name, cocycle_spec)
        return cls._from_chart(
            family, rack_name, cocycle_spec, [1] * len(labels), [1] * len(mus)
        )

    def rack(self):
        return catalog.builtin_rack(self.rack_name)[0]

    def coordinates(self):
        """A preset point's (per-label scalars, {mu name: value}); a mu
        without a class on the rack is left out."""
        labels, mus = _chart(self.family, self.rack_name, self.cocycle_spec)
        return tuple(self.lam[p] for p in labels), {
            name: sign * self.lam[root]
            for name, root, sign in mus
            if root is not None
        }

    def to_json(self):
        d = {"family": self.family}
        if self.family not in PRESETS:
            d["rack"] = self.rack_name
            d["cocycle"] = self.cocycle_spec
            d["params"] = {
                "lambda": {
                    f"{a},{b}": number_text(v) for (a, b), v in sorted(self.lam.items())
                }
            }
            return d
        racks, _, key, _ = PRESETS[self.family]
        if len(racks) > 1:
            d["n"] = next(n for n, r in racks.items() if r == self.rack_name)
        scalars, mus = self.coordinates()
        labels = self.rack().labels
        d["params"] = {
            key: {labels[i]: number_text(v) for i, v in enumerate(scalars)}}
        d["params"].update((name, number_text(v)) for name, v in mus.items())
        return d

    @classmethod
    def from_json(cls, doc):
        """The point of a parameter document; a key the family does not
        read raises ValueError, a per-label scalar or lambda that is not an
        object TypeError, and a mu left out reads as 0."""
        family = doc["family"]
        p = doc.get("params", {})
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if family in PRESETS:
            racks, _, key, mus = PRESETS[family]
            refuse_unread(doc, ("family", "params", "n"))
            refuse_unread(p, (key, *(name for name, _, _ in mus)))
            if not isinstance(p[key], dict):
                raise TypeError(f"params {key!r} must be an object")
            return cls._preset(
                family,
                integer(doc["n"] if len(racks) > 1 else doc.get("n", 4)),
                {k: rational(v) for k, v in p[key].items()},
                *(rational(p.get(name, 0)) for name, _, _ in mus),
            )
        refuse_unread(doc, ("family", "rack", "cocycle", "params"))
        refuse_unread(p, ("lambda",))
        if not isinstance(p["lambda"], dict):
            raise TypeError("params 'lambda' must be an object")
        lam = {}
        for key, v in p["lambda"].items():
            if not re.fullmatch(r"\d+,\d+", key, re.ASCII):
                raise ValueError(f"lambda key {key!r} is not 'a,b'")
            lam[tuple(map(int, key.split(",")))] = rational(v)
        if len(lam) < len(p["lambda"]):
            raise ValueError("lambda names one base pair twice")
        return cls.generic(doc["rack"], doc["cocycle"], lam)


def build_deformed_ideal(params):
    """Generators b_C - lambda_C of the deformation ideal, one per class
    of R'."""
    _, relations, _, _ = _model(params.rack_name, params.cocycle_spec)
    return [b - params.lam[pair] for pair, b in relations]


def is_admissible(params):
    """Whether the point sits in the union of the two lifting images: the
    pointed and the copointed parameter space."""
    _, _, pointed, copointed = _model(params.rack_name, params.cocycle_spec)
    return pointed.contains(params.lam) or copointed.contains(params.lam)


def zero_parameter_dim(params, max_deg=16):
    """Quotient dimension at lambda = 0, the quadratic algebra (flavour V)
    of the point's rack and cocycle."""
    return _zero_fibre_dim(params.rack_name, params.cocycle_spec, max_deg)


@lru_cache(maxsize=None)
def _zero_fibre_dim(rack_name, cocycle_spec, max_deg):
    rack, relations, _, _ = _model(rack_name, cocycle_spec)
    return quotient_dim(
        groebner([b for _, b in relations], max_deg, ngens=rack.n)
    )


def _rand_frac(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 3))


def sample_params(template, count, seed):
    """Seeded parameter points of the template's family.

    Preset samples rotate through three shapes: pointed (one value on
    every per-label class, random mu's), copointed (random per-label
    scalars, zero mu's) and fully generic.  A mu without a class on the
    rack is drawn all the same, so the draws do not depend on the rack.
    GenericLambda samples draw every pointed free root, so they stay in
    the pointed space.
    """
    rng = random.Random(seed)
    fam, rack_name, spec = (
        template.family, template.rack_name, template.cocycle_spec
    )
    labels, mus = _chart(fam, rack_name, spec)
    classes = list(dict.fromkeys(labels))
    out = []
    for s in range(count):
        shape = s % 3 if labels else 0
        if shape == 0:
            values = dict.fromkeys(classes, _rand_frac(rng)) if labels else {}
        else:
            values = {c: _rand_frac(rng) for c in classes}
        mu_values = [0 if shape == 1 else _rand_frac(rng) for _ in mus]
        out.append(
            DeformParams._from_chart(
                fam, rack_name, spec, [values[p] for p in labels], mu_values
            )
        )
    return out


def verify_nonzero(params, samples=0, seed=0, max_deg=16):
    """Nontriviality (and flatness on admissible points) by sampling.

    Runs the given point plus `samples` seeded ones.  A trivial quotient,
    or an admissible point whose dimension moves, raises
    NonzeroCheckFailed; a completion cut by the degree budget on the zero
    fibre or at an admissible point raises DegreeBudgetExceeded, since
    flatness cannot be read off it; anything else is reported.
    """
    runs = [params] + sample_params(params, samples, seed)
    expected = zero_parameter_dim(params, max_deg)
    if expected == "unknown":
        raise DegreeBudgetExceeded(
            f"zero-fibre completion truncated at degree {max_deg}"
        )
    report = {
        "family": params.family,
        "seed": seed,
        "samples": samples,
        "expected_dim": expected,
        "runs": [],
    }
    doc = params.to_json()
    if "n" in doc:
        report["n"] = doc["n"]
    ngens = _model(params.rack_name, params.cocycle_spec)[0].n
    for p in runs:
        gb = groebner(build_deformed_ideal(p), max_deg, ngens=ngens)
        trivial = is_trivial_quotient(gb)
        if trivial:
            raise NonzeroCheckFailed(
                f"trivial quotient at {p.to_json()['params']}"
            )
        dim = quotient_dim(gb)
        adm = is_admissible(p)
        if adm and not gb.complete:
            raise DegreeBudgetExceeded(
                f"completion {gb.status} at admissible point "
                f"{p.to_json()['params']}"
            )
        if adm and dim != expected:
            raise NonzeroCheckFailed(
                f"dimension {dim} != {expected} at admissible point "
                f"{p.to_json()['params']}"
            )
        report["runs"].append(
            {
                "params": p.to_json()["params"],
                "admissible": adm,
                "trivial": trivial,
                "dim": dim,
                "basis_size": len(gb.elements),
                "status": gb.status,
            }
        )
    report["all_nonzero"] = True
    report["flat_on_admissible"] = True
    return report


def appendix_printed_elements(alpha, mu1, mu2):
    """The extra basis elements printed for the n=4 minus-family, with
    scalars specialized.

    Sums of scalar products directly in front of a word are read as one
    parenthesized coefficient; the membership audit is the check of this
    reading.
    """
    rack, _ = catalog.transposition_rack(4)
    a = _normalize_scalars(alpha, rack.labels, "alpha")
    m1, m2 = exact(mu1), exact(mu2)
    ids = [rack.labels.index(f"({p})") for p in ("12", "13", "14", "23", "24", "34")]
    i12, i13, i14, i23, i24, i34 = ids
    a12, a13, a14, a23, a24, a34 = (a[i] for i in ids)
    n = rack.n

    def w(*ids, c=1):
        return FreePoly.word(n, list(ids), c)

    def const(c):
        return FreePoly.one(n, c)

    els = []
    els.append(
        w(i13, i12, i13) - w(i12, i13, i12)
        + w(i23, c=(-a12 + a13)) - w(i13, c=m2) + w(i12, c=m2)
    )
    els.append(
        w(i14, i12, i14) - w(i12, i14, i12)
        + w(i24, c=(-a12 + a14)) - w(i14, c=m2) + w(i12, c=m2)
    )
    els.append(
        w(i14, i13, i12) + w(i14, i12, i23) - w(i23, i14, i13)
        - w(i14, c=m2) + w(i13, c=m1)
    )
    els.append(
        w(i14, i13, i23) + w(i14, i12, i13) - w(i23, i14, i12)
        - w(i14, c=m2) + w(i12, c=m1)
    )
    els.append(
        w(i14, i13, i14) - w(i13, i14, i13)
        + w(i34, c=(-a13 + a14)) - w(i14, c=m2) + w(i13, c=m2)
    )
    els.append(
        w(i24, i23, i14) - w(i14, i12, i23) - w(i12, i24, i23)
        - w(i24, c=m1) + w(i23, c=m2)
    )
    els.append(
        w(i24, i23, i24) - w(i23, i24, i23)
        + w(i34, c=(-a23 + a24)) - w(i24, c=m2) + w(i23, c=m2)
    )
    els.append(
        w(i14, i12, i13, i23) - w(i23, i14, i12, i23)
        + w(i14, i13, c=a23) + w(i23, i14, c=m2) + w(i12, i23, c=m1)
        - const(m1 * m2)
    )
    els.append(
        w(i14, i12, i13, i14) + w(i13, i14, i12, i13)
        + w(i12, i13, i14, i12)
        + w(i24, i34, c=(a13 - a14)) + w(i14, i13, c=m1)
        - w(i14, i12, c=m2) + w(i23, i24, c=(-a12 + a13))
        - w(i13, i14, c=m2) + w(i13, i12, c=m1) + w(i12, i14, c=m1)
        - w(i12, i13, c=m2)
        + const(-a13 * m2 - m1 * m2 + m2 * m2)
    )
    els.append(
        w(i14, i12, i23, i14) + w(i12, i14, i12, i23)
        + w(i24, i23, c=(a12 - a14)) - w(i14, i12, c=m1)
        - w(i23, i14, c=m2) - w(i12, i23, c=m2)
        + const(m1 * m2)
    )
    els.append(
        w(i14, i12, i13, i12, i23) - w(i23, i14, i12, i13, i12)
        - w(i14, i12, i13, c=m2) - w(i23, i14, i13, c=m2)
        + w(i23, i14, i12, c=m2) + w(i12, i13, i12, c=m1)
        + w(i14, c=(a12 * a13 + a12 * a23 - a13 * a23))
        + w(i13, c=m1 * m2) - w(i12, c=m1 * m2)
    )
    els.append(
        w(i14, i12, i13, i12, i14, i12) + w(i13, i14, i12, i13, i12, i14)
        + w(i14, i13, i24, i34, c=(a13 - a14))
        + w(i14, i12, i13, i24, c=(a12 - a13))
        - w(i14, i12, i13, i12, c=m2)
        + w(i23, i14, i12, i24, c=(-a12 + a13))
        - w(i13, i14, i12, i13, c=m2)
        - w(i13, i12, i14, i13, c=m1)
        - w(i13, i12, i14, i12, c=m2)
        + w(i12, i14, i13, i34, c=(-a13 + a14))
        + w(i12, i14, i12, i23, c=m1)
        - w(i12, i23, i14, i13, c=m1)
        - w(i12, i13, i14, i12, c=m2)
        - w(i12, i13, i12, i14, c=m2)
        + w(i24, i34, c=(-a13 * m2 + a14 * m2))
        + w(i24, i23, c=(a12 * m1 - a14 * m1))
        + w(i14, i34, c=(-a13 * m1 + a14 * m1))
        + w(i14, i24, c=(a13 * m2 - a14 * m2))
        + w(i14, i12, c=(a12 * m1 - m1 * m1 + m2 * m2))
        + w(i23, i34, c=(a13 * m1 - a14 * m1))
        + w(i23, i24, c=(a12 * m2 - a13 * m2))
        + w(i13, i34, c=(a13 * m2 - a14 * m2))
        + w(i13, i24, c=(-a12 * m2 + a14 * m2))
        + w(i13, i14, c=(a12 * m1 - m1 * m1))
        + w(i13, i12, c=m2 * m2)
        + w(i12, i24, c=(a12 * m1 - a13 * m1))
        + w(i12, i14, c=(-a14 * m2 - m1 * m2 + m2 * m2))
        + w(i12, i13, c=(a12 * a14 + m2 * m2))
        + const(
            -a12 * a14 * m2 - a12 * m1 * m2 + a13 * m1 * m2
            + a14 * m2 * m2 + m1 * m1 * m2 - m2 * m2 * m2
        )
    )
    els.append(
        w(i14, i12, i13, i12, i14, i13) + w(i12, i14, i12, i13, i12, i14)
        + w(i14, i12, i24, i23, c=(-a12 + a14))
        + w(i14, i12, i23, i34, c=(-a13 + a14))
        - w(i14, i12, i13, i12, c=m2)
        + w(i13, i14, i12, i24, c=(-a12 + a14))
        - w(i13, i14, i12, i13, c=m1)
        - w(i13, i12, i14, i13, c=m2)
        + w(i12, i14, i12, i23, c=m2)
        - w(i12, i14, i12, i13, c=m2)
        - w(i12, i23, i14, i13, c=m2)
        - w(i12, i13, i14, i12, c=m1)
        - w(i12, i13, i12, i14, c=m2)
        + w(i24, i34, c=(-a13 * m1 + a14 * m1))
        + w(i24, i23, c=(a12 * m2 - a14 * m2))
        + w(i14, i24, c=(-a12 * m1 + a14 * m1))
        + w(i14, i13, c=(a12 * m1 - m1 * m1))
        + w(i14, i12, c=(-a14 * m2 + m2 * m2))
        + w(i23, i34, c=(a13 * m2 - a14 * m2))
        + w(i23, i24, c=(a12 * m1 - a13 * m1))
        + w(i13, i24, c=(a12 * m2 - a14 * m2))
        + w(i13, i12, c=(a12 * a14 - m1 * m1 + m2 * m2))
        + w(i12, i14, c=(a12 * m1 - m1 * m1))
        + w(i12, i13, c=(m1 * m2 + m2 * m2))
        + const(
            -a12 * a14 * m2 - a12 * m1 * m2 + a13 * m1 * m2
            + a14 * m2 * m2 + m1 * m1 * m2 - m2 * m2 * m2
        )
    )
    return els


def appendix_membership_audit(params, gb=None):
    """normal_form == 0 for every printed extra basis element."""
    if params.family != EMINUS or params.rack_name != "o24":
        raise ValueError("the printed basis belongs to the n=4 minus family")
    if gb is None:
        gb = groebner(build_deformed_ideal(params))
    alpha, mus = params.coordinates()
    els = appendix_printed_elements(alpha, mus["mu1"], mus["mu2"])
    out = []
    for i, e in enumerate(els):
        nf = normal_form(e, gb)
        out.append(
            {"index": i, "degree": e.degree(), "member": nf.is_zero()}
        )
    return {
        "elements": out,
        "all_member": all(r["member"] for r in out),
        "gb_status": gb.status,
    }


def pointed_lifting_generators(realization, lam_free):
    """Lifting generator data b_C - lambda_C (1 - g_C) over a group.

    lam_free assigns values to the free classes of the pointed parameter
    space; everything else is spelled out through the ties.  The group
    element g_C is the kG degree g_{i2} g_{i1} of the base pair (i2, i1);
    the classes' g_C must avoid every letter's degree (otherwise the
    lifting ansatz breaks and ConditionViolated reports the clashes).
    """
    # imported here, so that the deformation checks do not compile it
    from . import grouprealize

    pointed = grouprealize.group_side(realization, "pointed")
    rack = realization.rack
    q = realization.induced_cocycle()
    space = quadrel.pointed_lambda_space(rack, q)
    lam_free = {tuple(k): exact(v) for k, v in lam_free.items()}
    free_pairs = {c.base_pair for c in space.free_classes()}
    if set(lam_free) != free_pairs:
        raise IndexMismatch(
            f"need values exactly for free classes {sorted(free_pairs)}"
        )
    lam = space.value_map(lam_free)
    clashes = []
    records = []
    for c in space.classes:
        g_c = grouprealize.word_degree(pointed, c.base_pair)
        clashes += [(c.base_pair, x) for x, d in enumerate(pointed.deg) if d == g_c]
        records.append(
            {
                "class": c,
                "b": quadrel.relation_poly(c, "V", rack.n),
                "lam": lam[c.base_pair],
                "g": g_c,
            }
        )
    if clashes:
        raise ConditionViolated(clashes)
    return records


# The copointed lifting families by name, each the preset whose point at
# n = 4 with zero mu's carries the lifting datum lambda_x.
LIFTINGS = {"TranspMinus": EMINUS, "TranspChi": ECHI, "FourCycles": ETILDE}


def lifting_model(name):
    """(rack name, cocycle spec) of a copointed lifting family."""
    preset = LIFTINGS[name]
    return _preset_rack(preset, 4), PRESETS[preset][1]


def copointed_lifting_point(name, draw):
    """The family's lifting datum with one draw() per copointed free class,
    in first-appearance order along the labels, but the last class, which
    is set so that the lambda_x sum to zero."""
    rack_name, spec = lifting_model(name)
    labels, _ = _chart(LIFTINGS[name], rack_name, spec)
    *classes, last = dict.fromkeys(labels)
    values = {c: draw() for c in classes}
    values[last] = -Fraction(sum(values.get(c, 0) for c in labels), labels.count(last))
    return DeformParams._from_chart(
        LIFTINGS[name], rack_name, spec, [values[c] for c in labels], ()
    )


def function_part(params):
    """The deforming functions f_x(g) = lambda_x - lambda_{g^-1 . x} of a
    preset point, per label x, with the action of the realization of its
    rack and cocycle; zero values are left out."""
    # imported here, so that the deformation checks do not compile it
    from . import grouprealize

    r = grouprealize.builtin_realization(params.rack_name, params.cocycle_spec)
    lam, _ = params.coordinates()
    return [
        {g: v for g in r.group if (v := lx - lam[r.act(perm.inverse(g), x)])}
        for x, lx in enumerate(lam)
    ]


def copointed_lifting_generators(params):
    """Structured generator set of a copointed lifting datum: fixed
    quadratics plus deformed relations.

    The datum is a preset point at n = 4 in the copointed space whose
    lambda_x sum to zero; anything else raises IndexMismatch or
    NormalizationViolated.  The quadratics are the relations b_C of the
    classes the copointed space forces to zero.  Each label x gets the
    relation of the free class holding a pair (x, .) (a square for the
    transposition families, an inverse-pair anticommutator for the 4-cycle
    family) with its function-algebra right-hand side f_x.
    """
    family = params.family
    if family not in LIFTINGS.values() or params.rack_name != _preset_rack(family, 4):
        raise IndexMismatch(
            f"copointed liftings are the presets {sorted(LIFTINGS.values())} "
            "at n = 4"
        )
    rack, relations, _, copointed = _model(params.rack_name, params.cocycle_spec)
    if not copointed.contains(params.lam):
        raise NormalizationViolated(
            "a copointed lifting lies in the copointed space (zero mu's)"
        )
    if sum(params.coordinates()[0]) != 0:
        raise NormalizationViolated("lambda values must sum to zero")
    b = dict(relations)
    fs = function_part(params)
    return {
        "rack": rack,
        "quadratic": [b[c.base_pair] for c in copointed.zero_classes()],
        "deformed": [
            {"x": x, "poly": b[pair], "f": fs[x]}
            for x, pair in enumerate(_label_classes(copointed, rack.n))
        ],
    }


def _common_ratio(a, b):
    """The mu with b = mu * a entrywise, as a witness string ("any" when
    both vanish); None when the zero patterns or the ratios differ."""
    ratio = None
    for u, v in zip(a, b):
        if (u == 0) != (v == 0):
            return None
        if u != 0:
            r = v / u
            if ratio is None:
                ratio = r
            elif r != ratio:
                return None
    return number_text(ratio) if ratio is not None else "any"


def iso_class_equal(lam_a, lam_b, family):
    """Equality of lifting isomorphism classes, with a witness.

    Pointed families compare projectively.  Copointed families, named as
    in LIFTINGS, search the scaling-and-automorphism orbit: conjugation by
    t relabels lambda through the realization's action, in the group's
    element order, and scaling is settled by ratio normalization.
    """
    a = [exact(v) for v in lam_a]
    b = [exact(v) for v in lam_b]
    if family == "pointed":
        if len(a) != len(b):
            raise IndexMismatch("length mismatch")
        mu = _common_ratio(a, b)
        return (True, {"mu": mu}) if mu is not None else (False, None)
    if family not in LIFTINGS:
        raise ValueError(f"unknown family {family!r}")
    from . import grouprealize

    r = grouprealize.builtin_realization(*lifting_model(family))
    n = r.rack.n
    if len(a) != n or len(b) != n:
        raise IndexMismatch("wrong number of lambda values")
    for t in r.group:
        mu = _common_ratio([a[r.act(t, x)] for x in range(n)], b)
        if mu is not None:
            return True, {"theta": perm.cycle_notation(t), "mu": mu}
    return False, None
