"""The benchmark's workloads: set-up, one timed pass, and the verdict oracle.

Every workload is a closed loop in one process: the next operation
starts only after the previous one has returned.  A pass is one unit a
user waits for (one ``verify run all``, one sweep of the engine calls,
one batch of specialization seeds); ``wall_s`` is the median pass time.
``run_pass`` gets the host factor (see run.py): a limit of L reference
seconds lasts L / host_factor seconds of wall-clock time.

Set-up imports ``ribetkit`` afresh, so modules are looked up through
``ctx`` at call time: the traced run patches module attributes after
set-up, and a function object captured here would bypass the spans.
"""

from __future__ import annotations

import importlib
import itertools
import random
import signal
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

P31 = 2**31 - 1
# The prime of spec-wide-prime: the smallest above 10^6, a hundred times
# the default 10007.  Specialization finds eigenlines with a linear scan
# over F_p (_sqrts), which runs in about half the instances and stops at
# a point spread evenly up to p/2.  At this prime every instance ends
# (0.01-0.09 s on a 2-core x86 host), and the scan is about 55% of the
# workload's time, so removing it shows as wall_s about halving.  At
# 2^31-1 the scan runs for minutes: half the instances would have to be
# cut off, and how many is a coin flip per seed, not a measure of speed.
SPEC_PRIME = 1000003
# Per-instance limit on spec-wide-prime, in reference seconds (see
# run.py).  It is more than twenty times the slowest instance, so a
# healthy program never reaches it; an instance that does fails, and is
# charged the limit.
SPEC_LIMIT_S = 2.0
# Seeds per pass: a pass of about a second, a few dozen passes per run.
SPEC_BATCH = 32

# Check ids of `verify run all` other than the per-seed specialization
# checks and the trace words, which are generated below.
_SHAPES = ("full-mixed", "p1-type4", "r2-two-type1", "r2-two-type2", "sigma-v0-type3")
_FIXED_CHECK_IDS = (
    "br-d2-n2", "br-d2-n3", "br-d2-n4", "br-exact-instance-points",
    "br-exact-instance-symbolic", "br-f-2x3-kernel-d123",
    "det-pair-12", "det-single-1", "det-single-2", "example-r2",
    "koszul-b1b2-exact-at-1", "koszul-d2-n2", "koszul-d2-n3", "koszul-d2-n4",
    "regularity-degenerate-control", "regularity-generic-2x2",
    "regularity-generic-2x3", "regularity-inhomogeneous-m2n2",
    "spec-perturbed-control", "stability-negative-control",
    "tau-invariance-negative-control", "tau-invariance-p1-type4",
    "tau-invariance-r2-two-type2",
) + tuple(
    f"{prefix}-{shape}"
    for prefix in ("cd-morphism", "element-e-in-IR", "quotient-presentation", "stability")
    for shape in _SHAPES
)
SPEC_FIELDS = ("detE-factorization", "detEprime-zero", "cocycle", "J-vanishes")


def expected_check_ids(suite_seed: int) -> set[str]:
    """The 176 check ids `verify run all --seed suite_seed` must report.
    Every one must pass; the four negative controls pass by rejecting."""
    ids = set(_FIXED_CHECK_IDS)
    for r in (2, 3):
        for length in (1, 2, 3):
            for letters in itertools.product(range(1, r + 1), repeat=length):
                ids.add(f"trace-r{r}-" + ".".join(f"X{i}" for i in letters))
    for seed in range(suite_seed, suite_seed + 20):
        ids.update(f"spec-seed{seed:03d}-{f}" for f in SPEC_FIELDS)
    return ids


class OpTimeout(BaseException):
    """Raised by SIGALRM when an operation exceeds its limit.  A
    BaseException, so no ``except Exception`` in the library swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@dataclass
class PassResult:
    wall_s: float  # measured time of the pass's operations
    attempted: int
    failed: int
    wrong: list[str] = field(default_factory=list)
    report: object = None  # run_suite's report, for the suites
    limit_s: float = 0.0  # reference seconds charged for operations over their limit


class Suite:
    """`verify run all` with the built-in config, in process."""

    def __init__(self, name: str, jobs: int, why: str):
        self.name, self.jobs, self.why = name, jobs, why
        self.deterministic_counts = jobs == 1

    def setup(self, seed: int):
        vh = importlib.import_module("ribetkit.veriharness")
        cfg = vh.load_config("all", seed=seed, jobs=self.jobs)
        return SimpleNamespace(vh=vh, cfg=cfg, expected=expected_check_ids(seed))

    def run_pass(self, ctx, index: int, host_factor: float) -> PassResult:
        start = time.perf_counter()
        report = ctx.vh.run_suite(ctx.cfg)
        wall = time.perf_counter() - start
        got = {c.id: c.status for c in report.checks}
        wrong = [f"{cid}: {got.get(cid, 'missing')}" for cid in sorted(ctx.expected)
                 if got.get(cid) != "pass"]
        wrong += [f"{cid}: unexpected check" for cid in sorted(set(got) - ctx.expected)]
        return PassResult(wall, len(ctx.expected), len(wrong), wrong, report)


class EngineCore:
    """Fixed library calls, no harness and no specialization."""

    name = "engine-core"
    jobs = 1
    deterministic_counts = True
    why = ("fixed engine inputs on both coefficient cores plus cd-morphism, "
           "module syzygies and symbolic det; no harness, no specialization")

    def setup(self, seed: int):
        ex = importlib.import_module("ribetkit.exactpoly")
        ribet = importlib.import_module("ribetkit.ribet")
        brc = importlib.import_module("ribetkit.brcomplex")
        ctx = SimpleNamespace(
            groebner=importlib.import_module("ribetkit.groebner"),
            linalg=importlib.import_module("ribetkit.linalg"),
            ribet=ribet,
            brc=brc,
            gf=ex.GF(P31),
            J_qq=ribet.build_ideals(ribet.shape_sigma_type3()).J,
            full_mixed=ribet.shape_full_mixed(),
            rf=brc.br_complexes(brc.generic_2xn(4)).Rf,
            spec=ribet.build_matrices(ribet.shape_specialization()),
        )
        ctx.J_gf = ribet.build_ideals(ribet.shape_sigma_type3(), ctx.gf).J
        # Points for the sampled determinant cross-check.
        rng = random.Random(f"engine-core:{seed}")
        nvars = len(ctx.spec.E.entries[0][0].table)
        ctx.points = [{i: rng.randrange(P31) for i in range(nvars)} for _ in range(2)]
        return ctx

    def run_pass(self, ctx, index: int, host_factor: float) -> PassResult:
        ops = (
            ("gb-qq", lambda: ctx.groebner.buchberger(ctx.J_qq)),
            ("gb-gf", lambda: ctx.groebner.buchberger(ctx.J_gf)),
            ("cd-morphism", lambda: ctx.brc.build_cd_morphism(ctx.full_mixed, cap=3)),
            ("h1", lambda: ctx.brc.symbolic_h1(ctx.rf)),
            ("det-E", lambda: ctx.ribet.symbolic_det(ctx.spec.E)),
            ("det-Eprime", lambda: ctx.ribet.symbolic_det(ctx.spec.Eprime)),
        )
        out, wall = {}, 0.0
        for label, op in ops:
            start = time.perf_counter()
            out[label] = op()
            wall += time.perf_counter() - start
        wrong = self._verdicts(ctx, out)
        return PassResult(wall, len(ops), len({w.split(":")[0] for w in wrong}), wrong)

    def _verdicts(self, ctx, out) -> list[str]:
        wrong = []
        qq, gf = out["gb-qq"].basis, out["gb-gf"].basis
        # The two coefficient cores cross-check each other: the monic QQ
        # basis reduced mod p is the GF(p) basis, term for term.
        if len(qq) != 102 or len(gf) != 102:
            wrong.append(f"gb-qq: {len(qq)} and {len(gf)} elements, expected 102")
        elif [g.change_ring(ctx.gf) for g in qq] != list(gf):
            wrong.append("gb-gf: GF(p) basis differs from the QQ basis mod p")
        if not out["cd-morphism"].all_pass():
            wrong.append("cd-morphism: a check fails")
        if not out["h1"].is_exact_at_1:
            wrong.append("h1: R(f) 2x4 not exact at degree 1")
        # A symbolic determinant must agree with the numeric determinant of
        # the matrix evaluated at sampled points (Schwartz-Zippel).
        for label, M in (("det-E", ctx.spec.E), ("det-Eprime", ctx.spec.Eprime)):
            for point in ctx.points:
                value = out[label].change_ring(ctx.gf).evaluate(point)
                rows = [[e.change_ring(ctx.gf).evaluate(point) for e in row] for row in M.entries]
                if ctx.linalg.det(rows, ctx.gf) != value:
                    wrong.append(f"{label}: differs from the numeric determinant")
                    break
        return wrong


class SpecWidePrime:
    """Finite-field instances at p = SPEC_PRIME under a per-instance limit."""

    name = "spec-wide-prime"
    jobs = 1
    deterministic_counts = True  # as long as no instance reaches the limit
    why = ("instance generation and numeric checks at p=1000003, 100x the default; "
           "the O(p) _sqrts scan in about half the instances is most of its time")

    def setup(self, seed: int):
        ribet = importlib.import_module("ribetkit.ribet")
        errors = importlib.import_module("ribetkit.errors")
        return SimpleNamespace(ribet=ribet, errors=errors, shape=ribet.shape_specialization(),
                               seed=seed)

    def instance_seeds(self, ctx, index: int) -> list[int]:
        rng = random.Random(f"spec-wide-prime:{ctx.seed}:{index}")
        return [rng.randrange(2**31) for _ in range(SPEC_BATCH)]

    def run_pass(self, ctx, index: int, host_factor: float) -> PassResult:
        """One batch: SPEC_BATCH limited instances, then the perturbed
        negative control on the batch's first decided instance (its own
        operation, as in the suite; it cannot reach the slow scan).

        An instance over the limit, or one whose generation gives up
        (GenerationFailure, which run_suite reports as a failed check),
        fails and is charged the limit.  Any other exception is a wrong
        verdict, as it would crash run_suite."""
        limit_wall_s = SPEC_LIMIT_S / host_factor
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        wall, charged, attempted, failed, wrong = 0.0, 0.0, 0, 0, []
        control_of = None
        try:
            for seed in self.instance_seeds(ctx, index):
                attempted += 1
                start = time.perf_counter()
                try:
                    signal.setitimer(signal.ITIMER_REAL, limit_wall_s)
                    inst = ctx.ribet.generate_specialization(ctx.shape, seed, SPEC_PRIME)
                    res = ctx.ribet.check_specialized(inst)
                    signal.setitimer(signal.ITIMER_REAL, 0)
                except (OpTimeout, ctx.errors.GenerationFailure):
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    charged += SPEC_LIMIT_S
                    failed += 1
                    continue
                except Exception as exc:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    failed += 1
                    wrong.append(f"seed {seed}: raised {exc!r}")
                    continue
                wall += time.perf_counter() - start
                if not res.all_pass():
                    failed += 1
                    wrong.append(f"seed {seed}: {res}")
                control_of = control_of or inst
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if control_of is not None:
            attempted += 1
            start = time.perf_counter()
            control = ctx.ribet.check_specialized(ctx.ribet.perturb_alpha(control_of))
            wall += time.perf_counter() - start
            if control.detEprime_zero:
                failed += 1
                wrong.append(f"seed {control_of.seed}: perturbed control keeps det(E')=0")
        return PassResult(wall, attempted, failed, wrong, limit_s=charged)


def workloads(nproc: int) -> dict:
    """Every workload by name.  suite-all-par is not listed in
    BENCHMARK.json: on a shared 2-vCPU host its time follows the load on
    the second vCPU, which the reference loop in this process does not
    see (passes of 4.5-5.8 s raw in one stretch of minutes, 7.4-8.9 s in
    a later one at the same host factor, so 29% spread over five runs).
    Judge a harness change on it by hand, alternating runs of the parent
    and the change, and by its per-layer metrics."""
    return {w.name: w for w in (
        Suite("suite-all-j1", 1,
              "verify run all at --jobs 1, the canonical user run; exercises every layer, "
              "mostly groebner through the r=3 trace words"),
        Suite("suite-all-par", nproc,
              "verify run all at --jobs nproc; its threads contend for the GIL, "
              "so a harness change must show its gain here"),
        EngineCore(),
        SpecWidePrime(),
    )}
