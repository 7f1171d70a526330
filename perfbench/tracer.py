"""Spans around ribetkit's public entry points, installed at run time.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` replaces
every module-level binding of each traced function in every loaded
``ribetkit`` module (``from ... import`` makes copies, so patching only
the defining module would miss callers) and patches methods on their
class; ``Tracer.uninstall`` puts the originals back.  Spans are kept in
memory as ``[name, start, end, parent, op]`` and written out by
``Tracer.dump`` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
import time

# layer -> (traced entry points, the end-to-end metric it should move and
# the workload where that shows).  A layer name is its module path below
# ``ribetkit``.
LAYERS = {
    "groebner": (
        ("buchberger", "reduce_by", "in_ideal", "GroebnerBasis.normal_form",
         "ideal_quotient", "module_gb", "module_contains", "syzygies",
         "FreeModuleMatrix.matmul"),
        "wall_s on engine-core and suite-all-j1; no change predicted on spec-wide-prime",
    ),
    "exactpoly": (
        ("Polynomial.__mul__", "Polynomial.__add__", "Polynomial.substitute",
         "Polynomial.evaluate"),
        "wall_s on engine-core (cd-morphism) and on suite-all-j1 (about 10%)",
    ),
    "brcomplex.free_complex": (
        ("tensor", "truncate", "check_d2", "symbolic_h1", "homology_at_point",
         "tensor_morphism", "ComplexMorphism.check_commutes"),
        "wall_s on engine-core (cd-morphism) and on suite-all-j1 (about 10%)",
    ),
    "brcomplex.build": (
        ("koszul_general", "br_f", "br_detf", "regularity_check"),
        "wall_s on engine-core (cd-morphism) and on suite-all-j1 (about 10%)",
    ),
    "brcomplex.morphism": (
        ("build_cd_morphism", "ideal_generator_sets_match"),
        "wall_s on engine-core (cd-morphism) and on suite-all-j1 (about 10%)",
    ),
    "genmat": (
        ("trace_congruence_check", "det_congruence_check"),
        "wall_s on suite-all-j1 (self time is expression building; groebner is child time)",
    ),
    "borel": (
        ("adjoint_quadruple_check", "invariant_mod"),
        "wall_s on suite-all-j1 (self time is expression building; groebner is child time)",
    ),
    "ribet.formal": (
        ("build_ideals", "build_matrices", "symbolic_det", "check_e_tau_invariance",
         "element_e", "check_quotient_presentation"),
        "wall_s on suite-all-j1 (and suite-all-par, run by hand)",
    ),
    "ribet.specialize": (
        ("generate_specialization", "check_specialized"),
        "wall_s on spec-wide-prime (the _sqrts scan); unique_ratio moves the suites' wall_s",
    ),
    "linalg": (
        ("rank", "solve", "kernel_basis", "det"),
        "wall_s on spec-wide-prime",
    ),
    "veriharness": (
        ("run_suite",),
        "wall_s on suite-all-par (run by hand, not gated); no change predicted on suite-all-j1",
    ),
}

# Counts that must repeat exactly between two traced passes at --jobs 1.
EXTRA_COUNTS = (
    "groebner.reduction_steps",
    "groebner.buchberger.basis_size",
    "groebner.syzygies.count",
    "groebner.in_ideal.division_hit_ratio",
    "ribet.specialize.generate.unique_ratio",
)

# Per-layer metrics the traced run reports besides <layer>.<entry>.calls
# and .self_s; the veriharness and untraced ones come from an untraced
# pass (its wall in raw seconds and the host factor that scales it).
EXTRA_METRICS = EXTRA_COUNTS + (
    "untraced.wall_raw_s",
    "untraced.host_factor",
    "veriharness.check_p50_s",
    "veriharness.check_p90_s",
    "veriharness.check_time_sum_s",
    "veriharness.effective_concurrency",
    "trace.overhead_s",
    "trace.overhead_share",
)


def entry_metric_names():
    for layer, (entries, _why) in LAYERS.items():
        for entry in entries:
            yield f"{layer}.{entry}"


def metric_units():
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for name in entry_metric_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in EXTRA_METRICS:
        units[name] = "s" if name.endswith("_s") else "count"
    for name in ("groebner.in_ideal.division_hit_ratio",
                 "ribet.specialize.generate.unique_ratio",
                 "veriharness.effective_concurrency",
                 "untraced.host_factor",
                 "trace.overhead_share"):
        units[name] = "ratio"
    return units


class Tracer:
    """Records one span per call of a traced entry point."""

    def __init__(self):
        self.spans: list[list] = []
        self.recording = False
        self.op_id = 0
        self._local = threading.local()
        self._main_stack: list = []
        self._counters: list = []
        self._patches: list[tuple] = []  # (owner, attribute, original value)
        self._basis_sizes: list[int] = []
        self._syzygy_counts: list[int] = []
        self._in_ideal_hits = 0
        self._generate_keys: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every traced entry point of the loaded ribetkit modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ribetkit" or n.startswith("ribetkit."))]
        for layer, (entries, _why) in LAYERS.items():
            home = importlib.import_module(f"ribetkit.{layer}")
            for entry in entries:
                name = f"{layer}.{entry}"
                if "." in entry:
                    cls_name, attr = entry.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    wrapped = self._wrap(name, original)
                    for key, value in list(cls.__dict__.items()):
                        if value is original:  # aliases such as __radd__
                            self._patch(cls, key, wrapped)
                else:
                    original = getattr(home, entry)
                    wrapped = self._wrap(name, original)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, wrapped)
        budget_cls = importlib.import_module("ribetkit.groebner").Budget
        fresh = budget_cls.fresh_counter
        counters = self._counters

        def fresh_counter(budget):
            counter = fresh(budget)
            if self.recording:
                counters.append(counter)
            return counter

        self._patch(budget_cls, "fresh_counter", fresh_counter)

    def _patch(self, owner, key: str, value):
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self):
        """Put back every attribute that install replaced."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # A worker thread's outermost span was caused by whatever the
            # main thread is blocked in (run_suite's pool.map).
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        observe = {
            "groebner.buchberger": lambda a, k, r, p: tracer._basis_sizes.append(len(r.basis)),
            "groebner.syzygies": lambda a, k, r, p: tracer._syzygy_counts.append(len(r)),
            "groebner.reduce_by": tracer._observe_reduce_by,
            "ribet.specialize.generate_specialization": tracer._observe_generate,
        }.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer._main_stack[-1] if tracer._main_stack else None)
            span = [name, clock(), 0.0, parent, tracer.op_id]
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result, parent)
            return result

        return traced

    def _observe_reduce_by(self, args, kwargs, result, parent):
        # in_ideal's division certificate hit: its reduce_by child gave 0.
        if parent is not None and parent[0] == "groebner.in_ideal" and result.is_zero():
            self._in_ideal_hits += 1

    def _observe_generate(self, args, kwargs, result, parent):
        shape, seed, p = args[:3]
        self._generate_keys.append((shape.name, seed, p))

    # -- recording ----------------------------------------------------------

    def begin(self, op_id: int):
        """Start recording the spans of one pass."""
        self.op_id = op_id
        self.recording = True

    def end(self):
        self.recording = False

    def metrics(self, op_id: int) -> dict[str, float]:
        """Per-layer calls and self time for the spans of one pass, plus the
        work counts gathered while it was recorded."""
        spans = [s for s in self.spans if s[4] == op_id]
        children: dict[int, list] = {}
        for s in spans:
            if s[3] is not None:
                children.setdefault(id(s[3]), []).append(s)
        calls = dict.fromkeys(entry_metric_names(), 0)
        self_s = dict.fromkeys(entry_metric_names(), 0.0)
        for s in spans:
            calls[s[0]] += 1
            self_s[s[0]] += (s[2] - s[1]) - _covered(children.get(id(s), ()))
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = max(self_s[name], 0.0)
        in_ideal_calls = calls["groebner.in_ideal"]
        keys = self._generate_keys
        out.update({
            "groebner.reduction_steps": sum(c.steps for c in self._counters),
            "groebner.buchberger.basis_size": sum(self._basis_sizes),
            "groebner.syzygies.count": sum(self._syzygy_counts),
            "groebner.in_ideal.division_hit_ratio":
                self._in_ideal_hits / in_ideal_calls if in_ideal_calls else 0.0,
            "ribet.specialize.generate.unique_ratio":
                len(set(keys)) / len(keys) if keys else 0.0,
        })
        return out

    def reset_counts(self):
        """Forget the work counts (not the spans) before the next pass."""
        self._counters.clear()
        self._basis_sizes.clear()
        self._syzygy_counts.clear()
        self._in_ideal_hits = 0
        self._generate_keys.clear()

    def dump(self, path: str):
        """Write every span as one JSON line: name, start, end, parent index, op."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                parent = index[id(s[3])] if s[3] is not None else None
                fh.write(json.dumps([s[0], s[1], s[2], parent, s[4]]) + "\n")


def _covered(children) -> float:
    """Length of the union of the children's intervals.  Children in one
    thread nest without overlap; worker-thread children of run_suite can
    overlap each other."""
    total = 0.0
    end = float("-inf")
    for _name, start, stop, _p, _op in sorted(children, key=lambda s: s[1]):
        if start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def check_time_metrics(report, wall_s: float) -> dict[str, float]:
    """veriharness per-check timings from an untraced run_suite report
    (all 0 on workloads that run no suite)."""
    if report is None:
        return dict.fromkeys(("veriharness.check_p50_s", "veriharness.check_p90_s",
                              "veriharness.check_time_sum_s",
                              "veriharness.effective_concurrency"), 0.0)
    times = sorted(c.runtime_s for c in report.checks)
    total = sum(times)
    deciles = statistics.quantiles(times, n=10)
    return {
        "veriharness.check_p50_s": statistics.median(times),
        "veriharness.check_p90_s": deciles[8],
        "veriharness.check_time_sum_s": total,
        "veriharness.effective_concurrency": total / wall_s,
    }
