"""Named verification suites.

Each suite expands to a list of independent checks (id, anchor, thunk).
Anchors are the verbatim statement labels the checks certify.  Checks
run concurrently up to the configured job limit; a BudgetExceeded from
the engine is recorded as a timeout for that check, never a crash.
"""

from __future__ import annotations

import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import product as iproduct
from typing import Callable

from ..borel import TauAction, adjoint_quadruple_check
from ..errors import BudgetExceeded, GenerationFailure, StructuralError
from ..exactpoly import QQ, Polynomial
from ..genmat import Word, det_congruence_check, trace_congruence_check
from ..brcomplex import (
    br_complexes,
    build_cd_morphism,
    check_d2,
    generic_2xn,
    homology_at_point,
    inhomogeneous_regular_check,
    koszul,
    regularity_check,
    symbolic_h1,
    tensor,
)
from ..groebner import FreeModuleMatrix
from ..ribet import (
    FormalRing,
    SpecializedChecks,
    SpecializedInstance,
    build_ideals,
    check_e_tau_invariance,
    check_example_r2,
    check_quotient_presentation,
    check_specialized,
    corpus,
    element_e,
    generate_specialization,
    perturb_alpha,
    shape_one_place_type4,
    shape_r2_two_type2,
    shape_specialization,
)
from .config import SuiteConfig
from .report import CheckResult, Report

Check = tuple[str, str, Callable[[], tuple[bool, str]]]


def _ok(flag: bool, witness: str = "") -> tuple[bool, str]:
    return flag, witness


# ---------------------------------------------------------------------------
# Suite builders.

def _suite_trace_identities(cfg: SuiteConfig) -> list[Check]:
    checks: list[Check] = []
    for r in (2, 3):
        for length in (1, 2, 3):
            for letters in iproduct(range(1, r + 1), repeat=length):
                word = Word(tuple(letters))
                cid = f"trace-r{r}-{word}"
                checks.append(
                    (
                        cid,
                        "l:tr-char",
                        lambda w=word, rr=r: _ok(
                            trace_congruence_check(w, rr, cfg.budget)
                        ),
                    )
                )
    checks.append(
        ("det-single-1", "l:dets", lambda: _ok(det_congruence_check(2, [1], budget=cfg.budget)))
    )
    checks.append(
        ("det-single-2", "l:dets", lambda: _ok(det_congruence_check(2, [2], budget=cfg.budget)))
    )
    checks.append(
        (
            "det-pair-12",
            "l:dets",
            lambda: _ok(det_congruence_check(2, [1, 2], word_cap=2, budget=cfg.budget)),
        )
    )
    return checks


def _suite_example_r2(cfg: SuiteConfig) -> list[Check]:
    return [
        (
            "example-r2",
            "e:example",
            lambda: _ok(check_example_r2(budget=cfg.budget)),
        )
    ]


def _suite_stability(cfg: SuiteConfig) -> list[Check]:
    shapes = cfg.load_shapes() or corpus()
    checks: list[Check] = []
    for sh in shapes:
        def run(shape=sh):
            ideals = build_ideals(shape)
            act = TauAction(ideals.ring.table)
            for q in ideals.quadruples:
                if not adjoint_quadruple_check(*q.matrix.entries(), action=act):
                    return False, f"quadruple {q.origin} fails the adjoint law"
            return True, f"{len(ideals.quadruples)} quadruples"
        checks.append((f"stability-{sh.name}", "l:stable", run))

    def negative():
        sh = shape_r2_two_type2()
        F = FormalRing(sh)
        bad = adjoint_quadruple_check(F.a(1), F.b(1), F.c(1), F.zero())
        return (not bad), "corrupted quadruple must fail"

    checks.append(("stability-negative-control", "l:stable", negative))
    return checks


def _suite_tau_invariance(cfg: SuiteConfig) -> list[Check]:
    shapes = cfg.load_shapes() or [shape_r2_two_type2(), shape_one_place_type4()]
    checks: list[Check] = []
    for sh in shapes:
        checks.append(
            (
                f"tau-invariance-{sh.name}",
                "l:ebar",
                lambda s=sh: _ok(check_e_tau_invariance(s, budget=cfg.budget)),
            )
        )

    def negative():
        ok = check_e_tau_invariance(
            shape_one_place_type4(), budget=cfg.budget, drop_pair_generator=True
        )
        return (not ok), "membership must fail without the pair generator"

    checks.append(("tau-invariance-negative-control", "l:ei", negative))
    return checks


def _suite_specialization(cfg: SuiteConfig) -> list[Check]:
    shapes = cfg.load_shapes() or [shape_specialization()]
    sh = shapes[0]
    fields = (
        ("detE-factorization", "e:zidef", "detE_factorization"),
        ("detEprime-zero", "l:detzero", "detEprime_zero"),
        ("cocycle", "s:cocycle", "cocycle"),
        ("J-vanishes", "e:pibst", "J_vanishes"),
    )

    # One generation and one check per seed for this run: the four field
    # checks of a seed read the same result, and the perturbed control
    # reuses the instance of the first seed (perturb_alpha deep-copies
    # it).  A GenerationFailure is not cached, so each of the four checks
    # raises it again, with the same witness.  The lock keeps concurrent
    # checks of one seed from each doing the work under --jobs.
    lock = threading.Lock()

    @functools.cache
    def instance(seed: int) -> SpecializedInstance:
        return generate_specialization(sh, seed, cfg.prime)

    @functools.cache
    def run_once(seed: int) -> SpecializedChecks:
        return check_specialized(instance(seed))

    def run(seed: int) -> SpecializedChecks:
        with lock:
            return run_once(seed)

    checks: list[Check] = []
    for seed in cfg.seeds:
        for field_name, anchor, attr in fields:
            def one(seed=seed, attr=attr):
                return getattr(run(seed), attr), ""
            checks.append((f"spec-seed{seed:03d}-{field_name}", anchor, one))

    def perturbed():
        with lock:
            inst = instance(cfg.seeds[0])
        res = check_specialized(perturb_alpha(inst))
        return (not res.detEprime_zero), "perturbed coefficient must break det(E')=0"

    checks.append(("spec-perturbed-control", "l:detzero", perturbed))
    return checks


def _suite_quotient_presentation(cfg: SuiteConfig) -> list[Check]:
    shapes = cfg.load_shapes() or corpus()
    checks: list[Check] = []
    for sh in shapes:
        checks.append(
            (
                f"quotient-presentation-{sh.name}",
                "l:pia",
                lambda s=sh: _ok(check_quotient_presentation(s)),
            )
        )

        def elem(s=sh):
            # element_e raises if det(E') - det(E) escapes I_R.
            e = element_e(s, budget=cfg.budget)
            return True, f"{e.num_terms()} terms"

        checks.append((f"element-e-in-IR-{sh.name}", "l:pia", elem))
    return checks


def _br_exact_instance():
    """Smallest nontrivial tensor instance: one 2-element block and one
    generic linear form in one extra variable."""
    from ..exactpoly import VariableTable

    names = ["b1", "b2", "b3", "bp1", "bp2", "V1", "V2", "V3"]
    roles = ["b", "b", "b"] + ["other"] * 5
    table = VariableTable(names, roles)

    def v(name):
        return Polynomial.var(QQ, table, table.index(name))

    f1 = FreeModuleMatrix([[v("b1"), v("b2")], [v("bp1"), v("bp2")]])
    L = v("V1") * v("b1") + v("V2") * v("b2") + v("V3") * v("b3")
    block = br_complexes(f1).Rdetf
    lin = koszul([L])
    return tensor(block, lin)


def _suite_koszul_br(cfg: SuiteConfig) -> list[Check]:
    checks: list[Check] = []
    for n in (2, 3, 4):
        def d2_koszul(n=n):
            M = generic_2xn(n)
            return _ok(check_d2(koszul(list(M.entries[0]))))
        checks.append((f"koszul-d2-n{n}", "p:br-exact", d2_koszul))

        def d2_br(n=n):
            brs = br_complexes(generic_2xn(n), cap=3)
            return _ok(check_d2(brs.Rf) and check_d2(brs.Rdetf))
        checks.append((f"br-d2-n{n}", "p:br-exact", d2_br))

    def koszul_exact():
        M = generic_2xn(2)
        rep = symbolic_h1(koszul(list(M.entries[0])), cfg.budget)
        return _ok(rep.is_exact_at_1)
    checks.append(("koszul-b1b2-exact-at-1", "p:br-exact", koszul_exact))

    def rf_kernel():
        # symbolic_h1 tests every syzygy of d_1 against the module of the d_123 columns.
        rep = symbolic_h1(br_complexes(generic_2xn(3)).Rf, cfg.budget)
        if not rep.is_exact_at_1:
            return False, "R(f) 2x3 not exact at degree 1"
        return True, f"{len(rep.h1_generators)} syzygy generators"
    checks.append(("br-f-2x3-kernel-d123", "p:br-exact", rf_kernel))

    def br_exact_points():
        C = _br_exact_instance()
        import random

        rng = random.Random(cfg.seeds[0])
        p = cfg.prime
        for _ in range(20):
            point = {i: rng.randrange(p) for i in range(len(C.table))}
            dims = homology_at_point(C, point, p)
            if any(dims[k] != 0 for k in range(1, len(dims))):
                return False, f"H at {point} = {dims}"
        return True, "20 points"
    checks.append(("br-exact-instance-points", "l:tensor", br_exact_points))

    def br_exact_symbolic():
        C = _br_exact_instance()
        rep = symbolic_h1(C, cfg.budget)
        return _ok(rep.is_exact_at_1)
    checks.append(("br-exact-instance-symbolic", "p:br-exact", br_exact_symbolic))
    return checks


def _suite_regularity(cfg: SuiteConfig) -> list[Check]:
    checks: list[Check] = []
    checks.append(
        ("regularity-generic-2x2", "l:reg", lambda: _ok(regularity_check(generic_2xn(2), cfg.budget)))
    )
    checks.append(
        ("regularity-generic-2x3", "c:genericb", lambda: _ok(regularity_check(generic_2xn(3), cfg.budget)))
    )

    def degenerate():
        M = generic_2xn(3)
        b1, bp1 = M.entries[0][0], M.entries[1][0]
        bad = FreeModuleMatrix(
            [[b1, b1, M.entries[0][2]], [bp1, bp1, M.entries[1][2]]]
        )
        return (not regularity_check(bad, cfg.budget)), "degenerate matrix must fail"
    checks.append(("regularity-degenerate-control", "l:reg", degenerate))

    checks.append(
        (
            "regularity-inhomogeneous-m2n2",
            "p:regular-seq-inhomog",
            lambda: _ok(inhomogeneous_regular_check(2, 2, cfg.budget)),
        )
    )
    return checks


def _suite_cd_morphism(cfg: SuiteConfig) -> list[Check]:
    shapes = cfg.load_shapes() or corpus()
    checks: list[Check] = []
    for sh in shapes:
        def run(shape=sh):
            cd = build_cd_morphism(shape, cap=cfg.degree_cap, budget=cfg.budget)
            if not cd.commutes:
                return False, "a square fails to commute"
            if not cd.im_c1_is_jprime:
                return False, "im(C1 -> C0) differs from the b-coefficient ideal"
            if not cd.im_d1_is_j:
                return False, "im(D1 -> D0) differs from the relation ideal"
            if not cd.quadruples_adjoint:
                return False, "a relation quadruple fails the adjoint law"
            return True, f"C ranks {cd.C.ranks}, D ranks {cd.D.ranks}"
        checks.append((f"cd-morphism-{sh.name}", "t:comm", run))
    return checks


SUITES: dict[str, tuple[str, list[str], Callable[[SuiteConfig], list[Check]]]] = {
    "trace-identities": (
        "trace and determinant congruence identities for words in shifted generic matrices",
        ["l:tr-char", "l:dets"],
        _suite_trace_identities,
    ),
    "example-r2": (
        "the closed-form r=2 difference identity modulo its eight coefficient relations",
        ["e:example"],
        _suite_example_r2,
    ),
    "stability": (
        "adjoint transformation law for every relation quadruple (Borel stability)",
        ["l:stable"],
        _suite_stability,
    ),
    "tau-invariance": (
        "unipotent invariance of det(E') modulo the b-coefficient ideal",
        ["l:ebar", "l:ei"],
        _suite_tau_invariance,
    ),
    "specialization": (
        "finite-field instances: determinant factorization and vanishing, cocycle defect, relation vanishing",
        ["l:detzero", "s:cocycle", "e:zidef", "e:pibst"],
        _suite_specialization,
    ),
    "quotient-presentation": (
        "collapse of the relation ideal under the canonical substitution",
        ["l:pia"],
        _suite_quotient_presentation,
    ),
    "koszul-br": (
        "complex axioms and exactness evidence for Koszul and Buchsbaum-Rim complexes",
        ["p:br-exact", "l:tensor"],
        _suite_koszul_br,
    ),
    "regularity": (
        "ideal-quotient regularity criteria for 2-row maps and linear sequences",
        ["l:reg", "c:genericb", "p:regular-seq-inhomog"],
        _suite_regularity,
    ),
    "cd-morphism": (
        "commuting inclusion of the b-coefficient resolution into the full relation complex",
        ["t:comm"],
        _suite_cd_morphism,
    ),
}


def list_suites() -> list[dict]:
    out = []
    for name, (description, anchors, _builder) in sorted(SUITES.items()):
        out.append({"name": name, "description": description, "anchors": anchors})
    out.append(
        {
            "name": "all",
            "description": "every suite above, merged into one report",
            "anchors": sorted({a for _d, anchors, _b in SUITES.values() for a in anchors}),
        }
    )
    return out


def run_suite(cfg: SuiteConfig) -> Report:
    """Execute one suite (or "all") and return the finalized report."""
    if cfg.suite == "all":
        builders = [b for (_d, _a, b) in SUITES.values()]
    elif cfg.suite in SUITES:
        builders = [SUITES[cfg.suite][2]]
    else:
        raise StructuralError(f"unknown suite {cfg.suite!r}")
    checks: list[Check] = []
    for b in builders:
        checks.extend(b(cfg))

    def execute(check: Check) -> CheckResult:
        cid, anchor, thunk = check
        start = time.monotonic()
        try:
            ok, witness = thunk()
            status = "pass" if ok else "fail"
        except BudgetExceeded as exc:
            status, witness = "timeout", str(exc)
        except GenerationFailure as exc:
            status, witness = "fail", str(exc)
        return CheckResult(cid, anchor, status, round(time.monotonic() - start, 3), witness)

    results: list[CheckResult]
    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(execute, checks))
    else:
        results = [execute(c) for c in checks]

    report = Report(
        suite=cfg.suite,
        prime=cfg.prime,
        seeds=list(cfg.seeds),
        budget_steps=cfg.budget.max_steps,
        budget_degree=cfg.budget.max_degree,
        checks=results,
    ).finalize()
    if cfg.out_path:
        report.write(cfg.out_path)
    return report
