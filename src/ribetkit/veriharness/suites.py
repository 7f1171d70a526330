"""Named verification suites.

Each suite expands to a list of ``Check`` records: a module-level
function, the plain data it is called with, and the (id, anchor) pairs
its verdicts certify.  Anchors are the verbatim statement labels the
checks certify.  Records pickle, so at ``--jobs N`` they run in up to
min(N, CPU count) worker processes; at ``--jobs 1`` they run in this
process.  A BudgetExceeded from the engine is recorded as a timeout for
every id of its record, never a crash; a GenerationFailure or a
StructuralError raised while a record runs fails every id of the record,
with the error's message as the witness.

Records that certify several ids share work between them: the four
numeric checks of one specialization seed run on one generated
instance, and the trace congruences of every word over r generators
share one generic model.  The congruences (by their cofactors) and
element e (by the quotient map of I_R) run no engine and spend no budget.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Callable

# brcomplex first: it loads the engine before the ribet layer (see __init__).
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
from ..algebra import Budget, FreeModuleMatrix
from ..borel import adjoint_quadruple_check
from ..errors import BudgetExceeded, GenerationFailure, StructuralError
from ..exactpoly import QQ, Polynomial, VariableTable
from ..genmat import (
    GenericModel,
    Word,
    det_congruence_check,
    trace_congruence_check,
)
from ..ribet import (
    RibetShape,
    build_ideals,
    check_e_tau_invariance,
    check_example_r2,
    check_quotient_presentation,
    check_specialized,
    corpus,
    element_e,
    formal_ring,
    generate_specialization,
    perturb_alpha,
    shape_one_place_type4,
    shape_r2_two_type2,
    shape_specialization,
)
from .config import SuiteConfig, load_config
from .report import CheckResult, Report


@dataclass(frozen=True)
class Check:
    """``fn(*args)`` certifies ``ids``, a tuple of (id, anchor) pairs.

    ``fn`` returns one verdict per id, a bool or a (bool, witness) pair:
    a list of them, or with a single id the verdict bare.  ``fn`` is a
    module-level function and ``args`` plain data, so the record pickles.
    """

    ids: tuple[tuple[str, str], ...]
    fn: Callable
    args: tuple = ()


def _check(cid: str, anchor: str, fn: Callable, *args) -> Check:
    return Check(((cid, anchor),), fn, args)


def _rejects(witness: str, fn: Callable, *args) -> tuple[bool, str]:
    """Negative control: passes when ``fn(*args)`` is False."""
    return not fn(*args), witness


# ---------------------------------------------------------------------------
# Check functions.

def _trace_congruences(words: tuple[Word, ...], r: int) -> list[bool]:
    """Trace congruences of ``words`` over r generators, one verdict per
    word.  The words share one GenericModel, so a word matrix or trace
    defect that several of them need is built once."""
    model = GenericModel(r)
    return [trace_congruence_check(w, r, model) for w in words]


def _example_r2(budget: Budget) -> bool:
    return check_example_r2(budget=budget)


def _stability(shape: RibetShape) -> tuple[bool, str]:
    ideals = build_ideals(shape)
    q = ideals.first_non_adjoint()
    if q is not None:
        return False, f"quadruple {q.origin} fails the adjoint law"
    return True, f"{len(ideals.quadruples)} quadruples"


def _corrupted_quadruple_is_adjoint() -> bool:
    F = formal_ring(shape_r2_two_type2())
    return adjoint_quadruple_check(F.a(1), F.b(1), F.c(1), F.zero())


def _tau_invariance(shape: RibetShape, budget: Budget, drop_pair_generator: bool = False) -> bool:
    return check_e_tau_invariance(shape, budget=budget, drop_pair_generator=drop_pair_generator)


_SPEC_FIELDS = (
    ("detE-factorization", "e:zidef"),
    ("detEprime-zero", "l:detzero"),
    ("cocycle", "s:cocycle"),
    ("J-vanishes", "e:pibst"),
)


def _specialization(shape: RibetShape, seed: int, p: int, control: bool) -> list:
    """The four numeric checks of one seed's instance, in ``_SPEC_FIELDS``
    order, and with ``control`` the perturbed control on a copy of it."""
    inst = generate_specialization(shape, seed, p)
    res = check_specialized(inst)
    verdicts: list = [res.detE_factorization, res.detEprime_zero, res.cocycle, res.J_vanishes]
    if control:
        broken = check_specialized(perturb_alpha(inst))  # a copy: inst is unchanged
        verdicts.append((not broken.detEprime_zero, "perturbed coefficient must break det(E')=0"))
    return verdicts


def _element_e(shape: RibetShape) -> tuple[bool, str]:
    # element_e raises a StructuralError when det(E') - det(E) escapes
    # I_R, which _execute reports as a fail with its message as witness.
    e = element_e(shape)
    return True, f"{e.num_terms()} terms"


def _br_exact_instance():
    """Smallest nontrivial tensor instance: one 2-element block and one
    generic linear form in one extra variable."""
    names = ["b1", "b2", "b3", "bp1", "bp2", "V1", "V2", "V3"]
    table = VariableTable(names, ["b", "b", "b"] + ["other"] * 5)
    b1, b2, b3, bp1, bp2, V1, V2, V3 = (Polynomial.var(QQ, table, name) for name in names)
    f1 = FreeModuleMatrix([[b1, b2], [bp1, bp2]])
    L = V1 * b1 + V2 * b2 + V3 * b3
    block = br_complexes(f1).Rdetf
    lin = koszul([L])
    return tensor(block, lin)


def _koszul_d2(n: int) -> bool:
    return check_d2(koszul(list(generic_2xn(n).entries[0])))


def _br_d2(n: int) -> bool:
    brs = br_complexes(generic_2xn(n), cap=3)
    return check_d2(brs.Rf) and check_d2(brs.Rdetf)


def _koszul_exact_at_1(budget: Budget) -> bool:
    return symbolic_h1(koszul(list(generic_2xn(2).entries[0])), budget).is_exact_at_1


def _rf_kernel(budget: Budget) -> tuple[bool, str]:
    # symbolic_h1 tests every syzygy of d_1 against the module of the d_123 columns.
    rep = symbolic_h1(br_complexes(generic_2xn(3)).Rf, budget)
    if not rep.is_exact_at_1:
        return False, "R(f) 2x3 not exact at degree 1"
    return True, f"{len(rep.h1_generators)} syzygy generators"


def _br_exact_points(seed: int, p: int) -> tuple[bool, str]:
    C = _br_exact_instance()
    rng = random.Random(seed)
    for _ in range(20):
        point = {i: rng.randrange(p) for i in range(len(C.table))}
        dims = homology_at_point(C, point, p)
        if any(dims[k] != 0 for k in range(1, len(dims))):
            return False, f"H at {point} = {dims}"
    return True, "20 points"


def _br_exact_symbolic(budget: Budget) -> bool:
    return symbolic_h1(_br_exact_instance(), budget).is_exact_at_1


def _regularity_generic(n: int, budget: Budget) -> bool:
    return regularity_check(generic_2xn(n), budget)


def _degenerate_is_regular(budget: Budget) -> bool:
    # Columns (b1, bp1), (b2, bp2), (b1 b2, b1 bp2): r_13 = b1 r_12, so
    # the k = 3 step's quotient (r_12) : r_13 is (1), outside (r_12).
    (b1, b2), (bp1, bp2) = generic_2xn(2).entries
    bad = FreeModuleMatrix([[b1, b2, b1 * b2], [bp1, bp2, b1 * bp2]])
    return regularity_check(bad, budget)


def _cd_morphism(shape: RibetShape, cap: int, budget: Budget) -> tuple[bool, str]:
    cd = build_cd_morphism(shape, cap=cap, budget=budget)
    if not cd.commutes:
        return False, "a square fails to commute"
    if not cd.im_c1_is_jprime:
        return False, "im(C1 -> C0) differs from the b-coefficient ideal"
    if not cd.im_d1_is_j:
        return False, "im(D1 -> D0) differs from the relation ideal"
    if not cd.quadruples_adjoint:
        return False, "a relation quadruple fails the adjoint law"
    return True, f"C ranks {cd.C.ranks}, D ranks {cd.D.ranks}"


# ---------------------------------------------------------------------------
# Suite builders.

def _suite_trace_identities(cfg: SuiteConfig) -> list[Check]:
    # One record per r, not per word: its words share the model that
    # _trace_congruences builds, and that sharing is most of the speed.
    checks: list[Check] = []
    for r in (2, 3):
        words = tuple(Word(letters) for n in (1, 2, 3) for letters in iproduct(range(1, r + 1), repeat=n))
        ids = tuple((f"trace-r{r}-{w}", "l:tr-char") for w in words)
        checks.append(Check(ids, _trace_congruences, (words, r)))
    checks.append(_check("det-single-1", "l:dets", det_congruence_check, 2, (1,)))
    checks.append(_check("det-single-2", "l:dets", det_congruence_check, 2, (2,)))
    checks.append(_check("det-pair-12", "l:dets", det_congruence_check, 2, (1, 2), 2))
    return checks


def _suite_example_r2(cfg: SuiteConfig) -> list[Check]:
    return [_check("example-r2", "e:example", _example_r2, cfg.budget)]


def _suite_stability(cfg: SuiteConfig) -> list[Check]:
    shapes = cfg.load_shapes() or corpus()
    checks = [_check(f"stability-{sh.name}", "l:stable", _stability, sh) for sh in shapes]
    checks.append(
        _check(
            "stability-negative-control", "l:stable",
            _rejects, "corrupted quadruple must fail", _corrupted_quadruple_is_adjoint,
        )
    )
    return checks


def _suite_tau_invariance(cfg: SuiteConfig) -> list[Check]:
    shapes = cfg.load_shapes() or [shape_r2_two_type2(), shape_one_place_type4()]
    checks = [
        _check(f"tau-invariance-{sh.name}", "l:ebar", _tau_invariance, sh, cfg.budget) for sh in shapes
    ]
    checks.append(
        _check(
            "tau-invariance-negative-control", "l:ei",
            _rejects, "membership must fail without the pair generator",
            _tau_invariance, shape_one_place_type4(), cfg.budget, True,
        )
    )
    return checks


def _suite_specialization(cfg: SuiteConfig) -> list[Check]:
    # One record per seed: its instance is generated and checked once for
    # the four field ids, and the first seed's record also runs the
    # perturbed control on that instance.  A GenerationFailure fails every
    # id of the record with the same witness.
    sh = (cfg.load_shapes() or [shape_specialization()])[0]
    checks: list[Check] = []
    for k, seed in enumerate(cfg.seeds):
        ids = [(f"spec-seed{seed:03d}-{name}", anchor) for name, anchor in _SPEC_FIELDS]
        if k == 0:
            ids.append(("spec-perturbed-control", "l:detzero"))
        checks.append(Check(tuple(ids), _specialization, (sh, seed, cfg.prime, k == 0)))
    return checks


def _suite_quotient_presentation(cfg: SuiteConfig) -> list[Check]:
    shapes = cfg.load_shapes() or corpus()
    checks: list[Check] = []
    for sh in shapes:
        checks.append(_check(f"quotient-presentation-{sh.name}", "l:pia", check_quotient_presentation, sh))
        checks.append(_check(f"element-e-in-IR-{sh.name}", "l:pia", _element_e, sh))
    return checks


def _suite_koszul_br(cfg: SuiteConfig) -> list[Check]:
    checks: list[Check] = []
    for n in (2, 3, 4):
        checks.append(_check(f"koszul-d2-n{n}", "p:br-exact", _koszul_d2, n))
        checks.append(_check(f"br-d2-n{n}", "p:br-exact", _br_d2, n))
    checks.append(_check("koszul-b1b2-exact-at-1", "p:br-exact", _koszul_exact_at_1, cfg.budget))
    checks.append(_check("br-f-2x3-kernel-d123", "p:br-exact", _rf_kernel, cfg.budget))
    checks.append(_check("br-exact-instance-points", "l:tensor", _br_exact_points, cfg.seeds[0], cfg.prime))
    checks.append(_check("br-exact-instance-symbolic", "p:br-exact", _br_exact_symbolic, cfg.budget))
    return checks


def _suite_regularity(cfg: SuiteConfig) -> list[Check]:
    return [
        _check("regularity-generic-2x2", "l:reg", _regularity_generic, 2, cfg.budget),
        _check("regularity-generic-2x3", "c:genericb", _regularity_generic, 3, cfg.budget),
        _check(
            "regularity-degenerate-control", "l:reg",
            _rejects, "degenerate matrix must fail", _degenerate_is_regular, cfg.budget,
        ),
        _check(
            "regularity-inhomogeneous-m2n2", "p:regular-seq-inhomog",
            inhomogeneous_regular_check, 2, 2, cfg.budget,
        ),
    ]


def _suite_cd_morphism(cfg: SuiteConfig) -> list[Check]:
    shapes = cfg.load_shapes() or corpus()
    return [
        _check(f"cd-morphism-{sh.name}", "t:comm", _cd_morphism, sh, cfg.degree_cap, cfg.budget)
        for sh in shapes
    ]


SUITES: dict[str, tuple[str, Callable[[SuiteConfig], list[Check]]]] = {
    "trace-identities": (
        "trace and determinant congruence identities for words in shifted generic matrices",
        _suite_trace_identities,
    ),
    "example-r2": (
        "the closed-form r=2 difference identity modulo its eight coefficient relations",
        _suite_example_r2,
    ),
    "stability": (
        "adjoint transformation law for every relation quadruple (Borel stability)",
        _suite_stability,
    ),
    "tau-invariance": (
        "unipotent invariance of det(E') modulo the b-coefficient ideal",
        _suite_tau_invariance,
    ),
    "specialization": (
        "finite-field instances: determinant factorization and vanishing, cocycle defect, relation vanishing",
        _suite_specialization,
    ),
    "quotient-presentation": (
        "collapse of the relation ideal under the canonical substitution",
        _suite_quotient_presentation,
    ),
    "koszul-br": (
        "complex axioms and exactness evidence for Koszul and Buchsbaum-Rim complexes",
        _suite_koszul_br,
    ),
    "regularity": (
        "ideal-quotient regularity criteria for 2-row maps and linear sequences",
        _suite_regularity,
    ),
    "cd-morphism": (
        "commuting inclusion of the b-coefficient resolution into the full relation complex",
        _suite_cd_morphism,
    ),
}


def list_suites() -> list[dict]:
    """Each suite with the anchors that the checks its builder makes
    under ``load_config(name)`` carry, in the order first carried; then
    "all", with every anchor, sorted."""
    out = []
    for name, (description, build) in sorted(SUITES.items()):
        carried = (anchor for check in build(load_config(name)) for _cid, anchor in check.ids)
        out.append({"name": name, "description": description, "anchors": list(dict.fromkeys(carried))})
    out.append(
        {
            "name": "all",
            "description": "every suite above, merged into one report",
            "anchors": sorted({a for entry in out for a in entry["anchors"]}),
        }
    )
    return out


def _outcome(verdict) -> tuple[str, str]:
    """(status, witness) of one id's verdict, a bool or a (bool, str)
    pair.  Any other verdict fails, with a witness that names it."""
    ok, witness = verdict if isinstance(verdict, tuple) and len(verdict) == 2 else (verdict, "")
    if isinstance(ok, bool) and isinstance(witness, str):
        return ("pass" if ok else "fail"), witness
    return "fail", f"malformed verdict {verdict!r}"


def _execute(check: Check) -> list[CheckResult]:
    """Run one record: one result per id, the first carrying the runtime.
    A record of several ids must return a list of as many verdicts;
    anything else fails every id with a witness that names it.  A
    GenerationFailure or StructuralError raised by the record fails every
    id, with the message as the witness."""
    start = time.monotonic()
    try:
        out = check.fn(*check.args)
        verdicts = [out] if len(check.ids) == 1 else out
        if isinstance(verdicts, list) and len(verdicts) == len(check.ids):
            outcomes = [_outcome(v) for v in verdicts]
        else:
            outcomes = [("fail", f"malformed verdicts {out!r} for {len(check.ids)} ids")] * len(check.ids)
    except BudgetExceeded as exc:
        outcomes = [("timeout", str(exc))] * len(check.ids)
    except (GenerationFailure, StructuralError) as exc:
        outcomes = [("fail", str(exc))] * len(check.ids)
    runtime = round(time.monotonic() - start, 3)
    return [
        CheckResult(cid, anchor, status, runtime if k == 0 else 0.0, witness)
        for k, ((cid, anchor), (status, witness)) in enumerate(zip(check.ids, outcomes, strict=True))
    ]


def run_suite(cfg: SuiteConfig) -> Report:
    """Execute one suite (or "all") and return the finalized report."""
    if cfg.suite == "all":
        names = list(SUITES)
    elif cfg.suite in SUITES:
        names = [cfg.suite]
    else:
        raise StructuralError(f"unknown suite {cfg.suite!r}")
    checks = [c for name in names for c in SUITES[name][1](cfg.suites.get(name, cfg))]

    workers = min(cfg.jobs, os.cpu_count() or 1, len(checks))
    if workers > 1:
        # Imported here so that a --jobs 1 run never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(_execute, checks))
    else:
        runs = [_execute(c) for c in checks]

    report = Report(
        suite=cfg.suite,
        prime=cfg.prime,
        seeds=list(cfg.seeds),
        budget_steps=cfg.budget.max_steps,
        budget_degree=cfg.budget.max_degree,
        checks=[r for run in runs for r in run],
    ).finalize()
    if cfg.out_path:
        report.write(cfg.out_path)
    return report
