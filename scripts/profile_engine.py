#!/usr/bin/env python3
"""Timing sweep over the heavier symbolic checks.

Useful when touching the Groebner kernel: prints wall times for the
checks that dominate suite runtime so regressions are visible at a
glance, times the GB of J(sigma-v0-type3) on both coefficient cores
with a check that the QQ basis reduced mod p is the GF(p) basis and
each split into the signature loop, the reduced basis and the
conversion to Polynomial, times
the module path (syzygies and symbolic H1) on R(f) 2x4, an ideal
quotient over GF(101) in three variables under a step budget that ends
it in about a second (a module loop, whose reductions scan its
tail-length-ordered records; it ends in BudgetExceeded), the C -> D
morphism of full-mixed at cap 3 (with its d^2 = 0 check on D and its
commuting squares timed again on their own, the two sparse matrix
product workloads), the det congruence of r = 3, indices (1, 2, 3, 1)
by its cofactors against ``in_ideal``, the trace-identities suite with
its engine calls against its number of ids (0 of 56), the 24
rotation classes of r = 3 trace words of length 4, a degree-4 negative
control in the full J(p1-type4) and the generator sets of that J against
its presentation scaled by 2, all decided on a basis truncated at the
target's degree (the full basis of that J exhausts the step budget), a
member of degree 5 of the full J of p1-type4, full-mixed and spec-r4
and one of degree 6 of J(p1-type4), each decided by
``_ideal_contains_all`` on its truncated basis, which is nearly all of
the time, the specialization suite at the default prime and at
p = 1000003, that suite's work at p = 1000003 split into instance
generation (with the row reductions per generation attempt), the three
determinants, the cocycle check and the J-vanishes check, and the two
layers that keep what they build for one check: the adjoint law of
every relation quadruple of the five corpus shapes with one tau_x
action per shape, and the trace questions, built but not decided, of
every r = 3 word of length at most 3 on one generic model.  First it
times the formal construction of every corpus shape (variables, the
auxiliary matrices with their determinants, and the relation ideals)
from a cold cache, then the polynomial layer on fixed inputs: det(E')
of spec-r4 over QQ, with the Polynomial products and sums that one
warm run_suite(all) pass makes.
After the tau-invariance check of p1-type4, an inhomogeneous membership
question decided on one reduced basis under one step counter, the GB of
J(sigma-v0-type3), the length-4 trace classes, the negative control and
each member of the full J it prints the counters of the signature loops
behind them: the step counters taken, the steps charged, the reduction
steps among them, the pairs formed and queued, the pairs pruned by the
F5, syzygy, rewrite and one-per-signature criteria, and the reductions
to zero.  After symbolic H1 of R(f) 2x4 it prints its counters and
steps: one counter for the syzygies and one for the membership batch;
after the quotient, the steps of its one counter.
The Buchberger loop behind a module basis keeps no pair counts.
Before all of this it times ``import ribetkit.ribet`` and ``import
ribetkit.veriharness``, each in a few fresh interpreters, and names which
of ``groebner``, ``reducers`` and ``brcomplex`` each left loaded.

Run: PYTHONPATH=src python scripts/profile_engine.py
"""

import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import product
from pathlib import Path

import ribetkit.groebner as groebner
import ribetkit.linalg as linalg
import ribetkit.ribet.formal as formal
import ribetkit.ribet.specialize as specialize
from ribetkit.borel import TauAction, adjoint_quadruple_check
from ribetkit.errors import BudgetExceeded
from ribetkit.exactpoly import GF, QQ, Polynomial, VariableTable
from ribetkit.genmat import (
    GenericModel,
    Mat2,
    Word,
    det_congruence_check,
    trace_congruence_check,
    trace_congruence_question,
)
from ribetkit.groebner import Budget, IdealSpec, buchberger, ideal_quotient, in_ideal, syzygies
from ribetkit.brcomplex import (
    br_complexes,
    build_cd_morphism,
    check_d2,
    generic_2xn,
    ideal_generator_sets_match,
    symbolic_h1,
)
from ribetkit.ribet.formal import (
    build_ideals,
    build_matrices,
    check_e_tau_invariance,
    check_example_r2,
    formal_ring,
    symbolic_det,
)
from ribetkit.ribet.shapes import (
    corpus,
    shape_full_mixed,
    shape_one_place_type4,
    shape_sigma_type3,
    shape_specialization,
)
from ribetkit.veriharness import SuiteConfig, load_config, run_suite


P31 = 2**31 - 1
# Ends the GF(101) quotient in BudgetExceeded after about a second.
QUOTIENT_STEPS = 2_500
# Fresh interpreters per cold import.
COLD_RUNS = 5
# The ribetkit modules a cold import reports as loaded or not: the
# engine, and brcomplex, through which the harness loads it.
COLD_WATCHED = ("groebner", "reducers", "brcomplex")


def timed(label, thunk, show=lambda result: result):
    start = time.monotonic()
    result = thunk()
    print(f"{label:55s} {time.monotonic() - start:8.3f}s  -> {show(result)}")
    return result


class CountingBudget(Budget):
    """A budget that keeps every step counter it hands out."""

    def __init__(self, **limits):
        super().__init__(**limits)
        self.counters = []

    def fresh_counter(self):
        counter = super().fresh_counter()
        self.counters.append(counter)
        return counter


def print_counts(budgets):
    """The work counters of the engine calls run under ``budgets``,
    summed: the step counters they took, the steps charged to them, of
    which the reduction steps (in the loop, then in reducing its records
    to a reduced basis, the generators to zero against that basis in the
    check that certifies it, and the targets by the records) and the
    pairs formed, then the pairs queued, the pairs each criterion pruned
    and the zero reductions.  The pair counts come from signature loops
    only."""
    counters = [c for budget in budgets for c in budget.counters]
    stats = Counter()
    for c in counters:
        stats.update(c.stats or {})
    steps = sum(c.steps for c in counters)
    counts = {"counters": len(counters), "steps": steps, "reduction steps": steps - stats["pairs"], **stats}
    print(f"{'  counts':55s} {'':9s}  -> " + ", ".join(f"{k} {n}" for k, n in counts.items()))


def split_basis(thunk):
    """``thunk()``, and the seconds it spent in the signature loop, in
    the reduced basis and in converting records to ``Polynomial``."""
    parts = ((groebner, "_signature_basis"), (groebner, "_reduced_basis"), (groebner._Engine, "to_vector"))
    originals = [getattr(owner, name) for owner, name in parts]
    spent = Counter()

    def timing(name, fn):
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] += time.monotonic() - start

        return wrapper

    for (owner, name), fn in zip(parts, originals):
        setattr(owner, name, timing(name, fn))
    try:
        return thunk(), [spent[name] for _, name in parts]
    finally:
        for (owner, name), fn in zip(parts, originals):
            setattr(owner, name, fn)


def cold_imports():
    """``import ribetkit.ribet`` and ``import ribetkit.veriharness``, each
    timed in ``COLD_RUNS`` fresh interpreters that inherit this one's
    environment and bytecode setting, so without a bytecode cache they
    compile every module they load: the median import time, and which
    of ``COLD_WATCHED`` the import left loaded."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    flags = ["-B"] if sys.flags.dont_write_bytecode else []
    for module in ("ribetkit.ribet", "ribetkit.veriharness"):
        code = (f"import sys, time\nstart = time.perf_counter()\nimport {module}\n"
                f"print(time.perf_counter() - start)\n"
                f"print(', '.join(m for m in {COLD_WATCHED!r} if 'ribetkit.' + m in sys.modules))")
        times = []
        for _ in range(COLD_RUNS):
            seconds, loaded = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True,
                                             text=True, check=True).stdout.splitlines()
            times.append(float(seconds))
        print(f"{'cold import ' + module:55s} {statistics.median(times):8.3f}s  -> "
              f"loads {loaded or 'none of ' + ', '.join(COLD_WATCHED)}")


def gb_both_cores():
    """GB of J(sigma-v0-type3) over QQ and over GF(2^31-1): the two
    coefficient cores of the one reduction loop, on the same work, each
    split into the signature loop, the reduced basis and the conversion
    of its records to Polynomial."""
    bases = {}
    for label, ring in (("QQ", QQ), ("GF(2^31-1)", GF(P31))):
        J = build_ideals(shape_sigma_type3(), ring).J
        budget = CountingBudget()
        bases[label], split = timed(
            f"GB of J(sigma-v0-type3) over {label}",
            lambda: split_basis(lambda: buchberger(J, budget).basis),
            lambda result: f"{len(result[0])} elements",
        )
        print_counts([budget])
        print(f"{'  signature loop / reduced basis / to Polynomial':55s} {'':9s}  -> "
              + " / ".join(f"{s:.3f}s" for s in split))
    agree = [g.change_ring(GF(P31)) for g in bases["QQ"]] == list(bases["GF(2^31-1)"])
    print(f"{'QQ basis mod p equals the GF(p) basis':55s} {'':9s}  -> {agree}")


def module_path():
    """Syzygies of d_1 and the exactness test of H1 on R(f) 2x4: the
    module side of the one Buchberger loop."""
    rf = br_complexes(generic_2xn(4)).Rf
    timed("syzygies of d_1 of R(f) 2x4", lambda: syzygies(rf.diffs[1]), lambda syz: f"{len(syz)} generators")
    budget = CountingBudget()
    timed(
        "symbolic H1 of R(f) 2x4",
        lambda: symbolic_h1(rf, budget),
        lambda rep: f"{len(rep.h1_generators)} generators, exact {rep.is_exact_at_1}",
    )
    print_counts([budget])


def few_variable_quotient():
    """I : f over GF(101) for I = (-3y^2 + 3xz + 3z, -2x^2 - 2y - 1,
    x^3 - 3xyz + y) and f = -x^2y + 2z^3: the lift carries a cofactor of
    every generator, and the module loop runs until the step budget ends
    it.  Its reducer lists reach 96 records within the budget.  Like every
    pair loop the module loop scans them: in three variables a support
    index would rule out almost none of them (the ``groebner`` module
    docstring)."""
    F, table = GF(101), VariableTable(["x", "y", "z"])
    x, y, z = (Polynomial.var(F, table, i) for i in range(3))
    I = IdealSpec([-3 * y**2 + 3 * x * z + 3 * z, -2 * x**2 - 2 * y - 1, x**3 - 3 * x * y * z + y])
    f = -(x**2) * y + 2 * z**3
    budget = CountingBudget(max_steps=QUOTIENT_STEPS)

    def quotient():
        try:
            return f"{len(ideal_quotient(I, f, budget).generators)} generators"
        except BudgetExceeded as exc:
            return f"BudgetExceeded: {exc}"

    timed("ideal quotient over GF(101) in x, y, z", quotient)
    print_counts([budget])


def trace_suite():
    """One run_suite of trace-identities, with its engine calls counted at
    ``groebner._engine_for``, where every engine entry point builds its
    engine: the trace and det ids are checked by closed-form cofactors,
    so none of them reaches the engine."""
    calls = []
    engine_for = groebner._engine_for

    def counting_engine_for(*args, **kwargs):
        calls.append(args[0])
        return engine_for(*args, **kwargs)

    groebner._engine_for = counting_engine_for
    try:
        report = timed(
            "trace-identities suite",
            lambda: run_suite(SuiteConfig(suite="trace-identities")),
            lambda report: report.summary(),
        )
    finally:
        groebner._engine_for = engine_for
    print(f"{'  engine calls / ids':55s} {'':9s}  -> {len(calls)} / {len(report.checks)}")


def det_closed_form():
    """The det congruence of r = 3, indices (1, 2, 3, 1) at its default
    cap 4, by its closed-form cofactors, against ``in_ideal`` on the
    question's 240 generators (the tr and det defects of the words of
    length at most 4 over 1, 2, 3)."""
    r, indices = 3, (1, 2, 3, 1)
    names = tuple(f"c_{k}" for k in range(1, len(indices) + 1))
    model = GenericModel(r, extra=names)
    target = Mat2.zero(model.ring, model.table)
    for name, i in zip(names, indices):
        target = target + model.extra_var(name) * model.rho(i)
    words = [w for n in range(1, len(indices) + 1) for w in product(sorted(set(indices)), repeat=n)]
    spec = IdealSpec([f for w in words for f in (model.trace_defect(w), model.det_defect(w))])
    start = time.monotonic()
    closed = det_congruence_check(r, indices)
    middle = time.monotonic()
    engine = in_ideal(target.det(), spec)
    print(f"{'det r=3 (1,2,3,1): cofactors, then in_ideal':55s} {middle - start:8.3f}s  -> "
          f"{closed}; in_ideal {time.monotonic() - middle:.3f}s -> {engine}")


def truncated_membership():
    """Homogeneous questions decided on a basis truncated at the target's
    degree: one word per rotation class of the r = 3 trace words of
    length 4; a member of J(p1-type4) plus nu1^2 nu2^2, which J cannot
    contain since it vanishes where every matrix entry and x_g does; and
    the generator sets of J(p1-type4) against the same generators times
    2."""
    model = GenericModel(3)
    classes = [w for w in product((1, 2, 3), repeat=4) if w == min(w[k:] + w[:k] for k in range(4))]
    budgets = [CountingBudget() for _ in classes]
    timed(
        "trace classes of length 4 over r=3 (truncated)",
        lambda: [in_ideal(*trace_congruence_question(Word(w), 3, model), b) for w, b in zip(classes, budgets)],
        lambda verdicts: f"{sum(verdicts)} of {len(verdicts)} members",
    )
    print_counts(budgets)
    ideals = build_ideals(shape_one_place_type4())
    J, F = ideals.J, ideals.ring
    control = J.generators[1] * J.generators[4] + F.nu(1) ** 2 * F.nu(2) ** 2
    budget = CountingBudget()
    timed("degree-4 negative control in full J(p1-type4)", lambda: in_ideal(control, J, budget))
    print_counts([budget])
    scaled = IdealSpec([2 * g for g in J.generators])
    timed("generator sets of J(p1-type4) and 2 J(p1-type4) match", lambda: ideal_generator_sets_match(scaled, J))


def larger_truncated_bases():
    """A member of degree 5 of the full J of each of the three larger
    shapes, and one of degree 6 of J(p1-type4): a product of two
    generators times a power of nu1.  ``in_ideal`` decides each through
    ``_ideal_contains_all``, on a basis truncated at the target's degree;
    a basis missing an element could turn the verdict to False."""
    for shape, d in (
        (shape_one_place_type4(), 5),
        (shape_full_mixed(), 5),
        (shape_specialization(), 5),
        (shape_one_place_type4(), 6),
    ):
        ideals = build_ideals(shape)
        J, F = ideals.J, ideals.ring
        member = J.generators[1] * J.generators[4] * F.nu(1) ** (d - 4)
        budget = CountingBudget()
        timed(f"degree-{d} member of full J({shape.name})", lambda: in_ideal(member, J, budget))
        print_counts([budget])


def specialization_suite():
    """One run_suite of the specialization suite per prime: instance
    generation, the numeric checks and the J evaluation, once per seed."""
    for p in (10007, 1000003):
        timed(
            f"specialization suite at p={p}",
            lambda: run_suite(SuiteConfig(suite="specialization", prime=p)),
            lambda report: report.summary(),
        )


def specialization_phases():
    """The specialization suite's work at p = 1000003, phase by phase over 200
    seeds: generating the instances, det(E), det(D) and det(E') of each,
    the cocycle check, the J-vanishes check (J is built first, untimed)
    and the perturbed control, ``perturb_alpha`` and ``check_specialized``
    of each instance.  Generation counts its attempts and the row
    reductions they run: one ``_eliminate`` per attempt gives the rank,
    the eps kernel and every delta and alpha row."""
    shape, p, seeds = shape_specialization(), 1000003, range(200)
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    eliminate, try_generate = linalg._eliminate, specialize._try_generate
    linalg._eliminate = counting("eliminations", eliminate)
    specialize._try_generate = counting("attempts", try_generate)
    try:
        insts = timed(
            f"specialization at p={p}: generation",
            lambda: [specialize.generate_specialization(shape, s, p) for s in seeds],
            lambda insts: f"{len(insts)} instances",
        )
    finally:
        linalg._eliminate, specialize._try_generate = eliminate, try_generate
    per_attempt = calls["eliminations"] / calls["attempts"]
    print(f"{'  row reductions per generation attempt':55s} {'':9s}  -> "
          f"{calls['eliminations']} / {calls['attempts']} = {per_attempt:g}")
    timed(
        "  det(E), det(D), det(E')",
        lambda: [[linalg.det(M, inst.ring) for M in (inst.E, inst.D, inst.Eprime)] for inst in insts],
        lambda dets: f"{sum(d[2] == 0 for d in dets)} of {len(dets)} with det(E') = 0",
    )
    timed("  cocycle", lambda: [specialize._check_cocycle(inst) for inst in insts], all)
    build_ideals(shape, GF(p))
    timed("  J vanishes", lambda: [specialize._check_j_vanishes(inst) for inst in insts], all)
    timed(
        "  perturbed control: perturb_alpha + check_specialized",
        lambda: [specialize.check_specialized(specialize.perturb_alpha(inst)) for inst in insts],
        lambda res: f"{sum(not r.detEprime_zero for r in res)} of {len(res)} break det(E') = 0",
    )


def cached_layers():
    """The adjoint law of every relation quadruple of the five corpus
    shapes, one TauAction per shape as the stability check makes it (the
    ideals are built first, untimed); and the trace questions of every
    r = 3 word of length 1 to 3 on one GenericModel, built, not decided."""
    all_ideals = [build_ideals(sh) for sh in corpus()]

    def adjoint_laws():
        verdicts = []
        for ideals in all_ideals:
            act = TauAction(ideals.ring.table)
            verdicts += [adjoint_quadruple_check(*q.matrix.entries(), action=act) for q in ideals.quadruples]
        return verdicts

    timed(
        "adjoint law of every quadruple of the corpus shapes",
        adjoint_laws,
        lambda verdicts: f"{sum(verdicts)} of {len(verdicts)} hold",
    )
    words = [w for n in (1, 2, 3) for w in product((1, 2, 3), repeat=n)]

    def questions():
        model = GenericModel(3)
        return [trace_congruence_question(Word(w), 3, model) for w in words]

    timed(
        "trace questions of r=3 words of length <= 3 (built)",
        questions,
        lambda qs: f"{len(qs)} questions, {sum(len(spec.generators) for _, spec in qs)} generators",
    )


def cold_constructions():
    """The formal construction of every corpus shape over QQ from a cold
    cache: the variables, E, E' and D with det E and det E', and J, J'
    and I_R.  A run builds each once per process and shares it."""
    formal._formal_ring.cache_clear()

    def build():
        sizes = []
        for sh in corpus():
            F = formal_ring(sh)
            mats, ideals = F.matrices, F.ideals
            sizes.append(mats.det_E.num_terms() + mats.det_Eprime.num_terms() + len(ideals.J.generators))
        return sizes

    timed("formal constructions of the corpus shapes (cold)", build,
          lambda sizes: f"{len(sizes)} shapes, {sum(sizes)} det terms and J generators")


def polynomial_layer():
    """One line: det(E') of spec-r4 over QQ (E' built first, untimed),
    and the calls of Polynomial.__mul__ and __add__ in one run_suite(all)
    pass after a first pass has built what a run keeps."""
    cfg = load_config("all")
    run_suite(cfg)
    calls = Counter()
    mul, add = Polynomial.__mul__, Polynomial.__add__

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    Polynomial.__mul__, Polynomial.__add__ = counting("products", mul), counting("sums", add)
    try:
        run_suite(cfg)
    finally:
        Polynomial.__mul__, Polynomial.__add__ = mul, add
    Eprime = build_matrices(shape_specialization()).Eprime
    timed(
        "polynomial layer: det(E') of spec-r4 over QQ",
        lambda: symbolic_det(Eprime),
        lambda det: f"{det.num_terms()} terms; run_suite(all): "
                    f"{calls['products']} products, {calls['sums']} sums",
    )


def main():
    cold_imports()
    cold_constructions()
    polynomial_layer()
    timed("example-r2 (positive)", check_example_r2)
    timed("example-r2 (negative control)", lambda: check_example_r2(omit_relation=7))
    timed("trace X1.X2.X3 over r=3", lambda: trace_congruence_check(Word.parse("X1.X2.X3"), 3))
    timed("det pair cap 2", lambda: det_congruence_check(2, [1, 2], word_cap=2))
    det_closed_form()
    budget = CountingBudget()
    timed("tau-invariance one-place shape", lambda: check_e_tau_invariance(shape_one_place_type4(), budget=budget))
    print_counts([budget])
    timed(
        "tau-invariance negative control",
        lambda: check_e_tau_invariance(shape_one_place_type4(), drop_pair_generator=True),
    )
    gb_both_cores()
    module_path()
    few_variable_quotient()
    timed("BR complexes 2x5 full length + d2", lambda: all(
        check_d2(c) for c in (lambda b: (b.Rf, b.Rdetf))(br_complexes(generic_2xn(5)))
    ))
    for sh in corpus():
        timed(f"cd-morphism cap 2 [{sh.name}]", lambda s=sh: build_cd_morphism(s, cap=2).all_pass())
    cd = timed("cd-morphism cap 3 [full-mixed]", lambda: build_cd_morphism(shape_full_mixed(), cap=3),
               lambda cd: cd.all_pass())
    timed("  check_d2(D) [full-mixed, cap 3]", lambda: check_d2(cd.D))
    timed("  inclusion.check_commutes() [full-mixed, cap 3]", cd.inclusion.check_commutes)
    trace_suite()
    truncated_membership()
    larger_truncated_bases()
    specialization_suite()
    specialization_phases()
    cached_layers()


if __name__ == "__main__":
    main()
