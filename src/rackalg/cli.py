"""Command line interface with deterministic JSON reports.

Every subcommand prints one JSON document to standard output and
nothing else there; wall-clock timings go to standard error so repeated
runs with the same flags and seed stay byte-identical.  Exit codes: 0
success, 1 a mathematical assertion failed, 2 invalid input, 3 a
resource budget was exceeded.  The table ``_COMMANDS`` is the one source
of each command's flags; a flag outside a command's entry exits 2.

Only the base layers the parser and every command read are imported
here; each handler imports the further layers it calls when it runs, so
a command does not compile layers it never calls.
"""

import argparse
import contextlib
import json
import os
import random
import sys
import time
from fractions import Fraction

from . import __version__, perm
from .catalog import RACK_NAMES, builtin_cocycle, builtin_rack
from .cocycle import CocycleLawFails, Cocycle2, ZeroEntry, constant_cocycle
from .exactnum import BudgetExceeded, number_text, rational
from .rack import NotBijective, NotSelfDistributive, Rack

SCHEMA = "rackalg-report/1"

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


class CliError(Exception):
    """Carries the exit code alongside the message."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _jsonable(value):
    """Make a report tree printable: Fractions to strings, tuples to
    lists, tuple keys to comma-joined strings."""
    if isinstance(value, Fraction):
        return number_text(value)
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if isinstance(k, tuple):
                k = ",".join(str(a) for a in k)
            out[str(k)] = _jsonable(v)
        return out
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _unique_keys(pairs):
    """A JSON object as a dict, refused when it names a key twice."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise ValueError("an object names one key twice")
    return obj


def _load_json_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise CliError("cannot read %s: %s" % (path, exc), EXIT_INVALID)
    except UnicodeDecodeError as exc:
        raise CliError("%s is not UTF-8 text: %s" % (path, exc), EXIT_INVALID)
    except ValueError as exc:  # JSONDecodeError, or an int over the digit limit
        raise CliError("bad JSON in %s: %s" % (path, exc), EXIT_INVALID)
    except RecursionError:
        raise CliError("JSON in %s is nested too deeply" % path, EXIT_INVALID)


def _read_doc(read, doc, what):
    """read(doc); a failed rack or cocycle axiom exits 1, a document of
    the wrong shape 2."""
    try:
        return read(doc)
    except (NotBijective, NotSelfDistributive, ZeroEntry, CocycleLawFails) as exc:
        raise CliError("invalid %s: %s" % (what, exc), EXIT_ASSERTION)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError("malformed %s document: %s" % (what, exc), EXIT_INVALID)


def _load_rack(args):
    """Return (rack, rack_name or None).  --file wins over --rack."""
    if args.file:
        return _read_doc(Rack.from_json, _load_json_file(args.file), "rack"), None
    if args.rack:
        try:
            rack, _ = builtin_rack(args.rack)
        except KeyError as exc:
            raise CliError(str(exc.args[0]), EXIT_INVALID)
        return rack, args.rack
    raise CliError("need --rack or --file", EXIT_INVALID)


def _load_cocycle(args, rack, rack_name):
    spec = args.cocycle
    if spec is None:
        raise CliError("need --cocycle", EXIT_INVALID)
    try:
        if rack_name is not None:
            return builtin_cocycle(rack_name, spec)
        if spec.startswith("const:"):
            return constant_cocycle(rack, rational(spec[len("const:"):]))
        raise CliError("cocycle %r needs a builtin rack" % spec, EXIT_INVALID)
    except (KeyError, ZeroDivisionError) as exc:
        raise CliError(str(exc.args[0]), EXIT_INVALID)
    except ValueError as exc:
        raise CliError("invalid cocycle: %s" % exc, EXIT_INVALID)


def _complete_gb(polys, max_deg, ngens):
    from .freealg import groebner

    gb = groebner(polys, max_deg=max_deg or 16, ngens=ngens)
    if not gb.complete:
        raise CliError(
            "basis completion hit the degree budget (%s)" % gb.status,
            EXIT_BUDGET,
        )
    return gb


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (payload, ok)


def _cmd_rack_check(args):
    rack, name = _load_rack(args)
    payload = {"rack": name or "file", "n": rack.n, "labels": list(rack.labels)}
    payload.update(rack.properties())
    return payload, True


def _cmd_cocycle_check(args):
    rack, name = _load_rack(args)
    if args.file and args.cocycle is None:
        doc = _load_json_file(args.file)
        if "q" not in doc:
            raise CliError("file has no cocycle values", EXIT_INVALID)
        q = _read_doc(lambda d: Cocycle2.from_json(d, rack), doc, "cocycle")
    else:
        q = _load_cocycle(args, rack, name)
    payload = {
        "rack": name or "file",
        "q": [[number_text(v) for v in row] for row in q.q],
        "diagonal": [number_text(q(x, x)) for x in range(rack.n)],
    }
    return payload, True


def _cmd_braid_check(args):
    from .braided import check_braid_equation, make_braiding

    rack, name = _load_rack(args)
    q = _load_cocycle(args, rack, name)
    space = make_braiding(rack, q, args.flavor)
    holds = check_braid_equation(space)
    invertible = space.is_invertible()
    payload = {
        "rack": name or "file",
        "flavor": space.flavor,
        "braid_equation": holds,
        "invertible": invertible,
    }
    return payload, holds and invertible


def _cmd_nichols_dim(args):
    from .freealg import quotient_dim
    from .quadrel import quadratic_ideal

    rack, name = _load_rack(args)
    q = _load_cocycle(args, rack, name)
    gb = _complete_gb(quadratic_ideal(rack, q, args.flavor), args.max_deg, rack.n)
    dim = quotient_dim(gb)
    payload = {
        "rack": name or "file",
        "flavor": args.flavor,
        "dim": dim,
        "basis_size": len(gb.elements),
        "status": gb.status,
    }
    return payload, True


def _cmd_nichols_j2(args):
    from .quadrel import degree_two_kernel, quadratic_ideal, spans_kernel

    rack, name = _load_rack(args)
    q = _load_cocycle(args, rack, name)
    kernel = degree_two_kernel(rack, q, args.flavor)
    relations = quadratic_ideal(rack, q, args.flavor)
    match = spans_kernel(relations, kernel, rack.n)
    payload = {
        "rack": name or "file",
        "flavor": args.flavor,
        "kernel_dim": len(kernel),
        "relation_count": len(relations),
        "span_match": match,
    }
    return payload, match and len(kernel) == len(relations)


def _cmd_nichols_hilbert(args):
    from .freealg import hilbert_series, quotient_dim
    from .quadrel import quadratic_ideal

    rack, name = _load_rack(args)
    q = _load_cocycle(args, rack, name)
    # --max-deg is the series' last degree here, not the completion's budget
    gb = _complete_gb(quadratic_ideal(rack, q, args.flavor), max(args.max_deg, 16), rack.n)
    up_to = args.max_deg if args.max_deg else 8
    payload = {
        "rack": name or "file",
        "flavor": args.flavor,
        "series": hilbert_series(gb, up_to),
        "dim": quotient_dim(gb),
    }
    return payload, True


def _cmd_gb_run(args):
    from .freealg import (
        audit_obstructions, ideal_from_json, ideal_to_json, quotient_dim)

    if not args.file:
        raise CliError("gb run needs --file with an ideal document", EXIT_INVALID)
    doc = _load_json_file(args.file)
    try:
        names, polys = ideal_from_json(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError("invalid ideal document: %s" % exc, EXIT_INVALID)
    gb = _complete_gb(polys, args.max_deg, len(names))
    confluent = audit_obstructions(gb)
    payload = {
        "alphabet": names,
        "status": gb.status,
        "basis_size": len(gb.elements),
        "quotient_dim": quotient_dim(gb),
        "obstructions_reduce": confluent,
        "basis": ideal_to_json(names, gb.elements, status=gb.status),
    }
    return payload, bool(confluent)


def _params_file(path):
    from . import deform

    doc = _load_json_file(path)
    try:
        return deform.DeformParams.from_json(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError("invalid parameter document: %s" % exc, EXIT_INVALID)


def _default_params(args):
    """The point of --file, or the unit point of --family."""
    from . import deform

    if args.file:
        if args.n is not None or args.rack or args.cocycle:
            raise CliError("--file takes no --n, --rack or --cocycle", EXIT_INVALID)
        return _params_file(args.file)
    if args.family not in deform.FAMILIES:
        raise CliError(
            "--family must be one of %s" % ", ".join(deform.FAMILIES),
            EXIT_INVALID,
        )
    try:
        return deform.DeformParams.unit(args.family, args.n, args.rack, args.cocycle)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        raise CliError("invalid parameters: %s" % exc, EXIT_INVALID)


def _cmd_deform_verify(args):
    from . import deform

    params = _default_params(args)
    try:
        report = deform.verify_nonzero(
            params, samples=args.samples, seed=args.seed, max_deg=args.max_deg or 16
        )
    except deform.NonzeroCheckFailed as exc:
        return {"family": params.family, "error": str(exc)}, False
    return report, True


def _cmd_deform_audit(args):
    from . import deform

    if args.file:
        params = _params_file(args.file)
    else:
        params = deform.DeformParams.unit(deform.EMINUS)
    try:
        report = deform.appendix_membership_audit(params)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_INVALID)
    return report, bool(report["all_member"])


def _cmd_deform_params(args):
    from .quadrel import (
        copointed_lambda_space, hom_vanishing_check, pointed_lambda_space)

    rack, name = _load_rack(args)
    q = _load_cocycle(args, rack, name)
    pointed = pointed_lambda_space(rack, q)
    copointed = copointed_lambda_space(rack, q)
    hom = hom_vanishing_check(rack, q)
    payload = {
        "rack": name or "file",
        "pointed": {
            "free_dim": pointed.free_dim,
            "classes": pointed.to_json(),
        },
        "copointed": {
            "free_dim": copointed.free_dim,
            "classes": copointed.to_json(),
        },
        "hom_vanishing": hom,
    }
    return payload, True


def _realization_for(args):
    from . import grouprealize

    if not args.rack or not args.cocycle:
        raise CliError("need --rack and --cocycle", EXIT_INVALID)
    try:
        return grouprealize.builtin_realization(args.rack, args.cocycle)
    except (KeyError, grouprealize.RealizationError) as exc:
        raise CliError(str(exc.args[0]), EXIT_INVALID)


def _lambda_draws(seed):
    """A seeded source of lambda values a/b, a in [-5, 5] and b in [1, 3]."""
    rng = random.Random(seed)
    return lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def _cmd_lift_pointed(args):
    from . import deform
    from .quadrel import pointed_lambda_space

    realization = _realization_for(args)
    q = realization.induced_cocycle()
    space = pointed_lambda_space(realization.rack, q)
    draw = _lambda_draws(args.seed)
    lam = {}
    for c in space.free_classes():
        lam[c.base_pair] = draw()
    try:
        records = deform.pointed_lifting_generators(realization, lam)
    except deform.ConditionViolated as exc:
        return {"error": str(exc)}, False
    payload = {
        "rack": args.rack,
        "cocycle": args.cocycle,
        "free_values": lam,
        "count": len(records),
        "classes": [
            {
                "class": ",".join(str(a) for a in rec["class"].base_pair),
                "lam": rec["lam"],
                "g": perm.cycle_notation(rec["g"]),
                "relation": rec["b"].to_json(),
            }
            for rec in records
        ],
    }
    return payload, True


def _cmd_lift_copointed(args):
    from . import deform

    names = {deform.lifting_model(name): name for name in deform.LIFTINGS}
    if (args.rack, args.cocycle) not in names:
        raise CliError(
            "copointed liftings exist for %s"
            % ", ".join("%s/%s" % k for k in sorted(names)),
            EXIT_INVALID,
        )
    family = names[args.rack, args.cocycle]
    params = deform.copointed_lifting_point(family, _lambda_draws(args.seed))
    gens = deform.copointed_lifting_generators(params)
    rack = gens["rack"]
    payload = {
        "family": family,
        "lambda": dict(zip(rack.labels, params.coordinates()[0])),
        "quadratic_count": len(gens["quadratic"]),
        "deformed": [
            {
                "x": rack.labels[rec["x"]],
                "poly": rec["poly"].to_json(),
                "f": {perm.cycle_notation(g): c for g, c in rec["f"].items()},
            }
            for rec in gens["deformed"]
        ],
    }
    return payload, True


def _cmd_realize_check(args):
    from . import grouprealize

    realization = _realization_for(args)
    reference = builtin_cocycle(args.rack, args.cocycle)
    report = grouprealize.validate_principal(realization, cocycle=reference)
    return report, bool(report["ok"])


def _cmd_realize_dual(args):
    from . import grouprealize

    realization = _realization_for(args)
    braiding = grouprealize.dual_braiding_check(realization)
    pointed = grouprealize.comatrix_action_audit(realization, "pointed")
    copointed = grouprealize.comatrix_action_audit(realization, "copointed")
    payload = {"braiding": braiding, "pointed": pointed, "copointed": copointed}
    ok = braiding["ok"] and pointed["ok"] and copointed["ok"]
    return payload, ok


def _cmd_realize_theta(args):
    from . import grouprealize

    realization = _realization_for(args)
    report = grouprealize.theta_characters(realization)
    return report, bool(report["ok"])


_RACK = ("--rack", "--file")
_COCYCLE = _RACK + ("--cocycle",)
_BRAIDING = _COCYCLE + ("--flavor",)
_REALIZATION = ("--rack", "--cocycle")

# (group, action) -> (handler, the flags it reads); --json-out is on every one
_COMMANDS = {
    ("rack", "check"): (_cmd_rack_check, _RACK),
    ("rack", "props"): (_cmd_rack_check, _RACK),
    ("cocycle", "check"): (_cmd_cocycle_check, _COCYCLE),
    ("braid", "check"): (_cmd_braid_check, _BRAIDING),
    ("nichols", "dim"): (_cmd_nichols_dim, _BRAIDING + ("--max-deg",)),
    ("nichols", "j2"): (_cmd_nichols_j2, _BRAIDING),
    ("nichols", "hilbert"): (_cmd_nichols_hilbert, _BRAIDING + ("--max-deg",)),
    ("gb", "run"): (_cmd_gb_run, ("--file", "--max-deg")),
    ("deform", "verify"): (_cmd_deform_verify, (
        "--family", "--n", "--rack", "--cocycle", "--file", "--samples",
        "--seed", "--max-deg")),
    ("deform", "audit"): (_cmd_deform_audit, ("--file",)),
    ("deform", "params"): (_cmd_deform_params, _COCYCLE),
    ("lift", "pointed"): (_cmd_lift_pointed, _REALIZATION + ("--seed",)),
    ("lift", "copointed"): (_cmd_lift_copointed, _REALIZATION + ("--seed",)),
    ("realize", "check"): (_cmd_realize_check, _REALIZATION),
    ("realize", "dual"): (_cmd_realize_dual, _REALIZATION),
    ("realize", "theta"): (_cmd_realize_theta, _REALIZATION),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors go into the JSON report; subcommand parsers inherit it."""

    def error(self, message):
        raise CliError(message, EXIT_INVALID)


def _count(bound):
    """A non-negative integer option of at most ``bound``, refused before
    any work; 0 keeps the command's default."""

    def parse(text):
        if not text.isdecimal():
            raise argparse.ArgumentTypeError("%r is not a non-negative integer" % text)
        if int(text) > bound:
            raise argparse.ArgumentTypeError("%r is above the bound %d" % (text, bound))
        return int(text)

    return parse


_FLAG_SPECS = {
    "--rack": dict(help="builtin rack name: %s" % ", ".join(RACK_NAMES)),
    "--cocycle": dict(help="builtin cocycle: const:w or chi"),
    "--flavor": dict(default="V", choices=("V", "W"), help="braiding flavor"),
    "--file": dict(help="JSON input file"),
    "--seed": dict(type=int, default=0),
    "--samples": dict(type=_count(1000), default=0,
                      help="seeded sample points, at most 1000 (default 0)"),
    "--max-deg": dict(type=_count(64), default=0,
                      help="degree budget (nichols hilbert: the series' last degree), "
                           "at most 64 (0: the command's default)"),
    "--family": dict(help="deformation family name"),
    "--n": dict(type=int, help="transposition rack size"),
    "--json-out": dict(help="also write the report here"),
}


def _build_parser():
    parser = _Parser(
        prog="rackalg",
        description="exact computations with racks, braidings and their algebras",
    )
    groups = {}
    sub = parser.add_subparsers(dest="group", required=True)
    for (group, action), (_, flags) in sorted(_COMMANDS.items()):
        if group not in groups:
            gp = sub.add_parser(group)
            groups[group] = gp.add_subparsers(dest="action", required=True)
        ap = groups[group].add_parser(action, allow_abbrev=False)
        for flag in flags + ("--json-out",):
            ap.add_argument(flag, **_FLAG_SPECS[flag])
    return parser


def _options_doc(args, flags):
    """The command's own flags: truthy values, and seed and n if given."""
    doc = {}
    for flag in flags:
        key = flag[2:].replace("-", "_")
        value = getattr(args, key)
        if value or (key in ("seed", "n") and value is not None):
            doc[key] = value
    return doc


def _emit(doc, out=None):
    """Print the report, and write it to the open --json-out file too."""
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if out is not None:
        out.write(text)


def main(argv=None):
    doc = {"schema": SCHEMA, "version": __version__}
    try:
        args = _build_parser().parse_args(argv)
    except CliError as exc:
        doc.update(command=None, options={}, ok=False, report={"error": str(exc)})
        _emit(doc)
        return exc.code
    command = (args.group, args.action)
    handler, flags = _COMMANDS[command]
    started = time.perf_counter()
    doc["command"] = "%s %s" % command
    doc["options"] = _options_doc(args, flags)
    # open --json-out before any work, so a bad path prints one document
    # and the --file input is never opened for writing before it is read
    clobbers = "--file" in flags and args.json_out and args.file and all(
        map(os.path.exists, (args.json_out, args.file)))
    try:
        if clobbers and os.path.samefile(args.json_out, args.file):
            raise OSError("it is the --file input")
        out = open(args.json_out, "w", encoding="utf-8") if args.json_out else None
    except OSError as exc:
        doc.update(ok=False, report={
            "error": "cannot write %s: %s" % (args.json_out, exc)})
        _emit(doc)
        return EXIT_INVALID
    with out or contextlib.nullcontext():
        try:
            payload, ok = handler(args)
            # inside the try: a Fraction too long to write is a budget
            report = _jsonable(payload)
            code = EXIT_OK if ok else EXIT_ASSERTION
        except CliError as exc:
            report, ok = {"error": str(exc)}, False
            code = exc.code
        except BudgetExceeded as exc:
            report, ok = {"error": str(exc)}, False
            code = EXIT_BUDGET
        doc["ok"] = ok
        doc["report"] = report
        _emit(doc, out)
    elapsed = time.perf_counter() - started
    print("[time] %s %s %.3fs" % (command[0], command[1], elapsed), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
