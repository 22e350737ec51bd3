"""The four workloads: their set-up, their job lists and the answers each
job must produce.

Every call into rackalg goes through `tr.call("<module>.<function>", ...)`
so a traced run can attribute time to the module's layer.  The expected
values are mathematical facts about the inputs (dimensions, basis sizes,
ranks, Hilbert series, audit verdicts), never frozen report bytes, so a
change that renames report text does not break the benchmark.

Import this module only after the checkout's `src` is on `sys.path`.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from harness import CheckFailed, expect

from rackalg import braided, catalog, deform, freealg, grouprealize, linalg, quadrel
from rackalg.cocycle import constant_cocycle

S4_SPECS = (("o24", "const:-1"), ("o24", "chi"), ("o44", "const:-1"))
S4_BASIS_SIZES = {
    ("o24", "const:-1", "V"): 28,
    ("o24", "chi", "V"): 28,
    ("o44", "const:-1", "V"): 27,
    ("o24", "const:-1", "W"): 28,
    ("o24", "chi", "W"): 28,
    ("o44", "const:-1", "W"): 29,
}
S4_DIM = 576
FK3_DIM = 12
POINTED_FREE_DIMS = {("o24", "const:-1"): 3, ("o24", "chi"): 2, ("o44", "const:-1"): 3}
COPOINTED_FREE_CLASSES = {("o24", "const:-1"): 6, ("o24", "chi"): 6, ("o44", "const:-1"): 3}
# o24/chi/V, degrees 0..3; degree 4 (rank 71, a 1296 x 1296 Bareiss
# elimination of 3-4 s) made the workload too unsteady to measure
SYMMETRIZER_RANKS = (1, 6, 19, 42)
SMASH_DIM = 72
S5_HILBERT = (1, 10, 55, 220, 711, 1960, 4761, 10410, 20796, 38370, 65921)

CLI_TIMEOUT_S = 120


def _count_checked(report):
    """Sum of every "checked" figure in an audit report tree."""
    if isinstance(report, dict):
        own = report.get("checked")
        total = own if isinstance(own, int) and not isinstance(own, bool) else 0
        return total + sum(_count_checked(v) for k, v in report.items() if k != "checked")
    if isinstance(report, list):
        return sum(_count_checked(v) for v in report)
    return 0


def _audit(tr, name, fn, *args):
    """Run one audit and require its verdict to be ok."""
    report = tr.call(name, fn, *args)
    tr.count("grouprealize.audits")
    tr.count("grouprealize.checked", _count_checked(report))
    if report.get("ok") is True:
        tr.count("grouprealize.ok")
    expect(report.get("ok"), True, name + " ok")
    return report


def _complete(tr, gens, **kwargs):
    gb = tr.call("freealg.groebner", freealg.groebner, gens, **kwargs)
    tr.count("freealg.groebner.basis_size", len(gb.elements))
    if not gb.complete:
        tr.count("freealg.groebner.truncated")
    return gb


def _quotient_dim(tr, gb):
    dim = tr.call("freealg.quotient_dim", freealg.quotient_dim, gb)
    if isinstance(dim, int):
        tr.count("freealg.normal_words", dim)
    return dim


def _hilbert(tr, gb, up_to):
    series = tr.call("freealg.hilbert_series", freealg.hilbert_series, gb, up_to)
    tr.count("freealg.normal_words", sum(series))
    return series


def _builtin(tr, rack_name, spec):
    rack, _ = tr.call("rack.builtin_rack", catalog.builtin_rack, rack_name)
    q = tr.call("cocycle.builtin_cocycle", catalog.builtin_cocycle, rack_name, spec)
    return rack, q


def _quadratic_ideal(tr, rack, q, flavor):
    ideal = tr.call("quadrel.quadratic_ideal", quadrel.quadratic_ideal, rack, q, flavor)
    tr.count("quadrel.quadratic_ideal.relations", len(ideal))
    return ideal


def _shuffled_rescaled(gens, rng):
    """Same ideal, other presentation: generator order shuffled, each
    generator multiplied by a nonzero rational."""
    gens = list(gens)
    rng.shuffle(gens)
    return [g * Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for g in gens]


class Workload:
    """What a workload's set-up hands to the runner."""

    def __init__(self, jobs, input_size, nominal_cycle_s):
        self.jobs = jobs
        self.input_size = input_size
        # one cycle's wall time when the benchmark was added, on a 2-core shared VM;
        # it only converts --seconds into a fixed number of cycles
        self.nominal_cycle_s = nominal_cycle_s


# ---------------------------------------------------------------------------
# cli-suite


def _ideal_doc(tr, seed):
    """The `gb run` input: the o24/chi/V ideal in a seeded presentation."""
    rack, q = _builtin(tr, "o24", "chi")
    gens = _shuffled_rescaled(_quadratic_ideal(tr, rack, q, "V"), random.Random(seed))
    return freealg.ideal_to_json(list(rack.labels), gens)


def _check_verify(report):
    expect(report["expected_dim"], S4_DIM, "deform verify expected_dim")
    expect(len(report["runs"]), 21, "deform verify runs")
    expect(report["all_nonzero"], True, "deform verify all_nonzero")
    expect(report["flat_on_admissible"], True, "deform verify flat_on_admissible")
    for run in report["runs"]:
        if run["admissible"]:
            expect(run["dim"], S4_DIM, "deform verify admissible dim")


def cli_commands(seed, ideal_path):
    """The README's fifteen commands plus two more `nichols dim` runs, each
    with a check of the report's key numbers."""
    s = str(seed)
    return [
        (["rack", "props", "--rack", "o24"],
         lambda r: expect(r["n"], 6, "rack size")),
        (["cocycle", "check", "--rack", "o24", "--cocycle", "chi"],
         lambda r: expect(r["diagonal"], ["-1"] * 6, "chi diagonal")),
        (["braid", "check", "--rack", "o44", "--cocycle", "const:-1", "--flavor", "W"],
         lambda r: expect((r["braid_equation"], r["invertible"]), (True, True), "braid check")),
        (["nichols", "dim", "--rack", "o23", "--cocycle", "const:-1"],
         lambda r: expect(r["dim"], FK3_DIM, "o23 dim")),
        (["nichols", "j2", "--rack", "o24", "--cocycle", "chi"],
         lambda r: expect((r["kernel_dim"], r["relation_count"], r["span_match"]), (17, 17, True), "j2")),
        (["nichols", "hilbert", "--rack", "o23", "--cocycle", "const:-1"],
         lambda r: expect((r["series"], r["dim"]), ([1, 3, 4, 3, 1, 0, 0, 0, 0], FK3_DIM), "o23 series")),
        (["gb", "run", "--file", ideal_path, "--max-deg", "12"],
         lambda r: expect((r["quotient_dim"], r["basis_size"], r["obstructions_reduce"]),
                          (S4_DIM, 28, True), "gb run")),
        (["deform", "params", "--rack", "o24", "--cocycle", "chi"],
         lambda r: expect((r["pointed"]["free_dim"], r["copointed"]["free_dim"]), (2, 6), "param spaces")),
        (["deform", "verify", "--family", "Eminus", "--n", "4", "--samples", "20", "--seed", s],
         _check_verify),
        (["deform", "audit"],
         lambda r: expect((r["all_member"], len(r["elements"])), (True, 13), "printed basis")),
        (["lift", "pointed", "--rack", "o24", "--cocycle", "chi", "--seed", s],
         lambda r: expect(r["count"], 17, "pointed lifting relations")),
        (["lift", "copointed", "--rack", "o44", "--cocycle", "const:-1", "--seed", s],
         lambda r: expect((r["quadratic_count"], len(r["deformed"])), (14, 6), "copointed lifting")),
        (["realize", "check", "--rack", "o24", "--cocycle", "const:-1"],
         lambda r: expect(r["ok"], True, "realization")),
        (["realize", "dual", "--rack", "o23", "--cocycle", "chi"],
         lambda r: expect((r["braiding"]["ok"], r["pointed"]["ok"], r["copointed"]["ok"]),
                          (True, True, True), "dual realization")),
        (["realize", "theta", "--rack", "o44", "--cocycle", "const:-1"],
         lambda r: expect((r["ok"], r["distinct"]), (True, True), "theta characters")),
        (["nichols", "dim", "--rack", "o24", "--cocycle", "chi"],
         lambda r: expect((r["dim"], r["basis_size"]), (S4_DIM, 28), "o24/chi/V")),
        (["nichols", "dim", "--rack", "o44", "--cocycle", "const:-1", "--flavor", "W"],
         lambda r: expect((r["dim"], r["basis_size"]), (S4_DIM, 29), "o44/const:-1/W")),
    ]


def _handler_seconds(stderr):
    """The handler time from the CLI's `[time] <group> <action> <s>s` line."""
    for line in reversed(stderr.splitlines()):
        if line.startswith("[time] ") and line.endswith("s"):
            return float(line.rsplit(" ", 1)[1][:-1])
    return None


def _probe_record(stderr):
    for line in reversed(stderr.splitlines()):
        if line.startswith("perfbench-probe "):
            return json.loads(line[len("perfbench-probe "):])
    raise CheckFailed("no probe record on stderr")


def cli_job(argv, check, env, cwd, command=None):
    """One CLI process per call.  Untraced calls run `python -m rackalg.cli`;
    traced calls run the probe, which reports interpreter start, import and
    `main` times.  Stdout must be byte-identical on every call after the
    first.  `command` replaces the program (for the harness self-tests)."""
    reference = []
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cliprobe.py")

    def job(tr):
        if command is not None:
            cmd = list(command)
        elif tr.enabled:
            cmd = [sys.executable, probe] + argv
        else:
            cmd = [sys.executable, "-m", "rackalg.cli"] + argv
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, timeout=CLI_TIMEOUT_S)
        t1 = time.perf_counter()
        stderr = proc.stderr.decode("utf-8", "replace")
        expect(proc.returncode, 0, "exit code of %s" % " ".join(argv))
        if reference:
            if proc.stdout != reference[0]:
                raise CheckFailed("stdout of %s differs between runs" % " ".join(argv))
        else:
            reference.append(proc.stdout)
        handler = _handler_seconds(stderr)
        if handler is not None:
            tr.count("cli.main.handler_s", handler)
            tr.count("cli.main.overhead_s", (t1 - t0) - handler)
        if tr.enabled and command is None:
            rec = _probe_record(stderr)
            top = tr.add_span("cli.process", t0, t1)
            tr.add_span("cli.interpreter", t0, rec["started"], top)
            tr.add_span("cli.import", rec["started"], rec["imported"], top)
            tr.add_span("cli.main", rec["imported"], rec["done"], top)
            tr.count("cli.interpreter_s", rec["started"] - t0)
            tr.count("cli.import_s", rec["imported"] - rec["started"])
        if check is not None:
            doc = json.loads(proc.stdout)
            expect(doc["ok"], True, "report ok")
            check(doc["report"])

    return job


def cli_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_cli_suite(seed, tr, root, workdir):
    ideal_path = os.path.join(workdir, "ideal-%d.json" % seed)
    doc = _ideal_doc(tr, seed)
    with open(ideal_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    env = cli_env(root)
    jobs = [
        (" ".join(argv[:2]), cli_job(argv, check, env, workdir))
        for argv, check in cli_commands(seed, ideal_path)
    ]
    return Workload(jobs, "17 CLI commands, one subprocess each", 6.0)


# ---------------------------------------------------------------------------
# deform-sweep

DEFORM_SAMPLES = 30


def _deform_templates():
    return [
        ("Eminus-3", deform.DeformParams.eminus(3, 1, 1, 1), FK3_DIM),
        ("Eminus-4", deform.DeformParams.eminus(4, 1, 1, 1), S4_DIM),
        ("Echi-3", deform.DeformParams.echi(3, 1, 1), FK3_DIM),
        ("Echi-4", deform.DeformParams.echi(4, 1, 1), S4_DIM),
        ("Etilde", deform.DeformParams.etilde(1, 1, 1), S4_DIM),
    ]


def _deform_job(point, fibre, is_template):
    def job(tr):
        ideal = tr.call("deform.build_deformed_ideal", deform.build_deformed_ideal, point)
        gb = _complete(tr, ideal)
        if tr.call("freealg.is_trivial_quotient", freealg.is_trivial_quotient, gb):
            raise CheckFailed("trivial quotient")
        dim = _quotient_dim(tr, gb)
        # a filtered deformation is at most as large as its fibre
        if not isinstance(dim, int) or not 0 < dim <= fibre:
            raise CheckFailed("dimension %r outside (0, %d]" % (dim, fibre))
        admissible = tr.call("deform.is_admissible", deform.is_admissible, point)
        tr.count("deform.points")
        if is_template:
            expect(admissible, True, "template point admissible")
        if admissible:
            tr.count("deform.admissible")
            zero = tr.call("deform.zero_parameter_dim", deform.zero_parameter_dim, point)
            expect((dim, zero), (fibre, fibre), "dimension at an admissible point")

    return job


def setup_deform_sweep(seed, tr, root, workdir):
    columns = []
    for label, template, fibre in _deform_templates():
        zero = tr.call("deform.zero_parameter_dim", deform.zero_parameter_dim, template)
        expect(zero, fibre, "zero-parameter dim of " + label)
        points = tr.call("deform.sample_params", deform.sample_params, template, DEFORM_SAMPLES, seed)
        columns.append([(label, p, fibre, False) for p in points])
        columns[-1].insert(0, (label, template, fibre, True))
    # interleave the families so every stretch of jobs has the same mix
    jobs = [
        (label, _deform_job(point, fibre, is_template))
        for row in zip(*columns)
        for label, point, fibre, is_template in row
    ]
    return Workload(jobs, "5 templates x (1 + %d sampled points)" % DEFORM_SAMPLES, 10.0)


# ---------------------------------------------------------------------------
# s5-stress

S5_DEGREE = 7
S5_PRESENTATIONS = 4


def _s5_job(gens):
    def job(tr):
        gb = _complete(tr, gens, max_deg=S5_DEGREE)
        series = _hilbert(tr, gb, S5_DEGREE)
        expect(tuple(series), S5_HILBERT[: S5_DEGREE + 1], "S5 Hilbert series")

    return job


def setup_s5_stress(seed, tr, root, workdir):
    rack, _ = tr.call("rack.transposition_rack", catalog.transposition_rack, 5)
    q = tr.call("cocycle.constant_cocycle", constant_cocycle, rack, Fraction(-1))
    ideal = _quadratic_ideal(tr, rack, q, "V")
    rng = random.Random(seed)
    jobs = [
        ("presentation-%d" % i, _s5_job(_shuffled_rescaled(ideal, rng)))
        for i in range(S5_PRESENTATIONS)
    ]
    return Workload(
        jobs, "S5 transpositions, %d relations, completed to degree %d" % (len(ideal), S5_DEGREE),
        2.4,
    )


# ---------------------------------------------------------------------------
# audit-oracle

NF_SAMPLES = 4


def _random_poly(rng, ngens, length, terms):
    """`terms` random words of one length, with nonzero rational
    coefficients; a fixed shape keeps the cost alike across seeds."""
    return freealg.FreePoly(ngens, {
        bytes(rng.randrange(ngens) for _ in range(length)):
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 3))
        for _ in range(terms)
    })


def _symrank_job(space, m):
    def job(tr):
        mat = tr.call("braided.quantum_symmetrizer", braided.quantum_symmetrizer, space, m)
        tr.count("braided.quantum_symmetrizer.rows", mat.rows)
        tr.count("braided.quantum_symmetrizer.nnz", len(mat.entries))
        rank = tr.call("linalg.rank_bareiss", linalg.rank_bareiss, mat)
        expect(rank, SYMMETRIZER_RANKS[m], "symmetrizer rank in degree %d" % m)

    return job


def _obstruction_job(gb, samples):
    def job(tr):
        confluent = tr.call("freealg.audit_obstructions", freealg.audit_obstructions, gb)
        expect(confluent, True, "confluence audit")
        for poly, member in samples:
            nf = tr.call("freealg.normal_form", freealg.normal_form, poly, gb)
            again = tr.call("freealg.normal_form", freealg.normal_form, nf, gb)
            expect(again.terms, nf.terms, "normal form is idempotent")
            shifted = tr.call("freealg.normal_form", freealg.normal_form, poly + member, gb)
            expect(shifted.terms, nf.terms, "ideal element reduces to zero")

    return job


def _realization_jobs(real, q):
    g = grouprealize
    return [
        ("validate_principal",
         lambda tr: _audit(tr, "grouprealize.validate_principal", g.validate_principal, real, q)),
        ("dual_braiding_check",
         lambda tr: _audit(tr, "grouprealize.dual_braiding_check", g.dual_braiding_check, real)),
        ("comatrix_pointed",
         lambda tr: _audit(tr, "grouprealize.comatrix_action_audit.pointed",
                           g.comatrix_action_audit, real, "pointed")),
        ("comatrix_copointed",
         lambda tr: _audit(tr, "grouprealize.comatrix_action_audit.copointed",
                           g.comatrix_action_audit, real, "copointed")),
        ("theta_characters",
         lambda tr: expect(_audit(tr, "grouprealize.theta_characters", g.theta_characters,
                                  real)["distinct"], True, "theta characters distinct")),
    ]


def _smash_job(build, algebra, group, data):
    def job(tr):
        smash = tr.call("grouprealize.smash", build, algebra, group, data)
        expect(smash.dim, SMASH_DIM, "smash product dimension")
        expect(smash.unit_audit()["ok"], True, "smash unit")
        _audit(tr, "grouprealize.associativity_audit", smash.associativity_audit)

    return job


def setup_audit_oracle(seed, tr, root, workdir):
    rng = random.Random(seed)
    jobs = []
    bases = {}
    for rack_name, spec in S4_SPECS:
        rack, q = _builtin(tr, rack_name, spec)
        for flavor in ("V", "W"):
            ideal = _quadratic_ideal(tr, rack, q, flavor)
            gb = _complete(tr, ideal)
            key = (rack_name, spec, flavor)
            expect(len(gb.elements), S4_BASIS_SIZES[key], "basis size %s/%s/%s" % key)
            expect(_quotient_dim(tr, gb), S4_DIM, "dimension %s/%s/%s" % key)
            bases[key] = gb
            samples = []
            for _ in range(NF_SAMPLES):
                left = _random_poly(rng, rack.n, 2, 1)
                right = _random_poly(rng, rack.n, 2, 1)
                member = left * ideal[rng.randrange(len(ideal))] * right
                samples.append((_random_poly(rng, rack.n, 4, 3), member))
            jobs.append(("obstructions %s/%s/%s" % key, _obstruction_job(gb, samples)))
        pointed = tr.call("quadrel.pointed_lambda_space", quadrel.pointed_lambda_space, rack, q)
        copointed = tr.call("quadrel.copointed_lambda_space", quadrel.copointed_lambda_space, rack, q)
        expect(pointed.free_dim, POINTED_FREE_DIMS[(rack_name, spec)], "pointed free dim")
        expect(len(copointed.free_classes()), COPOINTED_FREE_CLASSES[(rack_name, spec)],
               "copointed free classes")
        real = tr.call("grouprealize.builtin_realization", grouprealize.builtin_realization,
                       rack_name, spec)
        jobs += [("%s %s/%s" % (name, rack_name, spec), fn) for name, fn in _realization_jobs(real, q)]

    # the symmetrizer oracle must agree with the Groebner engine
    rack, q = _builtin(tr, "o24", "chi")
    space = tr.call("braided.make_braiding", braided.make_braiding, rack, q, "V")
    series = _hilbert(tr, bases[("o24", "chi", "V")], len(SYMMETRIZER_RANKS) - 1)
    expect(tuple(series), SYMMETRIZER_RANKS, "Hilbert series of o24/chi/V")
    jobs += [("symrank %d" % m, _symrank_job(space, m)) for m in range(len(SYMMETRIZER_RANKS))]

    rack, q = _builtin(tr, "o23", "const:-1")
    real = tr.call("grouprealize.builtin_realization", grouprealize.builtin_realization,
                   "o23", "const:-1")
    quotients = {}
    for flavor in ("V", "W"):
        gb = _complete(tr, _quadratic_ideal(tr, rack, q, flavor))
        expect(_quotient_dim(tr, gb), FK3_DIM, "o23 dimension")
        quotients[flavor] = freealg.QuotientAlgebra(gb)
    alg_v = grouprealize.algebra_from_quotient(quotients["V"])
    alg_w = grouprealize.algebra_from_quotient(quotients["W"])
    action = grouprealize.quotient_group_action(real, quotients["V"])
    grading = grouprealize.quotient_grading(real, quotients["W"])
    jobs.append(("smash group", _smash_job(grouprealize.smash_with_group, alg_v, real.group, action)))
    jobs.append(("smash dual", _smash_job(grouprealize.smash_with_dual, alg_w, real.group, grading)))
    return Workload(
        jobs,
        "6 bases x %d normal forms, 3 x 5 realization audits, symmetrizer ranks to degree %d, "
        "2 smash products" % (NF_SAMPLES, len(SYMMETRIZER_RANKS) - 1),
        4.0,
    )


WORKLOADS = {
    "cli-suite": setup_cli_suite,
    "deform-sweep": setup_deform_sweep,
    "s5-stress": setup_s5_stress,
    "audit-oracle": setup_audit_oracle,
}
