#!/usr/bin/env python3
"""ribetkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S   # every workload

Run from the repository root; the library is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics (wall_s,
setup_s, peak_rss_mb, decided_share).  With ``--trace 1`` it runs an
untraced pass, then a traced pass of the same inputs (twice on
workloads whose counts must repeat, which are compared), and reports
the per-layer metrics; spans go to ``.perfbench-out/``.  Every pass is
checked against the known verdicts.  Metric lines are printed first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every verdict is right, 1 otherwise, 2 on a usage or set-up error.

Host speed.  On a shared host the speed of pure-Python code drifts by a
third within a minute and flickers within a second, which swamps any
change worth measuring.  So while a stretch (the set-ups, or one pass)
is timed, a profiling timer runs a short fixed reference loop every
SAMPLE_EVERY_S of CPU time, and times are reported in seconds at the
reference speed: ``(measured - sampling cost) * (REF_LOOP_S / median
reference-loop time) ** ELASTICITY``.  The loop only reads a table
built at import: on a shared 2-vCPU host, a loop that built a dict on
every sample ran about 20% slower under --jobs 2 than at --jobs 1, and
so cancelled the GIL contention that suite-all-par exists to show.
Probing only between stretches keeps the probe out of the workload's
process state, but there it tracked the flicker too poorly (spreads of
26-28% over five runs).  A per-operation limit is set in reference
seconds with the latest factor and charged as such.  Raw times and host
factors are printed on standard error, and the traced run reports them
as per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import workloads  # noqa: E402

# Timed set-ups per run, after one untimed import that compiles bytecode.
SETUPS = 9

# About the time of _reference_loop on an unloaded 2-core x86 host
# (2.0 GHz, CPython 3.11); it only sets the scale of the reported times.
REF_LOOP_S = 0.001
SAMPLE_EVERY_S = 0.05
# The workloads' times move as about this power of the loop's: the
# log-log slope of raw pass time on loop time was 0.74 over 23
# suite-all-j1 passes (host factors 0.49-0.97), and about 0.76 on
# engine-core; a plain ratio over-corrects.
ELASTICITY = 0.75

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "decided_share": "share"}

# Tuple keys, dict lookups and integer arithmetic: the mix that dominates
# ribetkit's polynomial and Groebner code.
_REF_TABLE = {(i & 63, (i >> 3) & 7, i >> 10): i for i in range(3000)}


def _reference_loop():
    get = _REF_TABLE.get
    total = 0
    for i in range(4000):
        total += get((i & 63, (i >> 3) & 7, i >> 10), 0) * 7919 % 104729
    return total


class HostSpeed:
    """Samples the reference loop from a SIGPROF handler while a stretch runs."""

    def __init__(self):
        self.factor = 1.0  # of the latest stretch; set-up always runs first

    def run(self, stretch):
        """Run ``stretch()``; return its value and the factor that turns
        time measured in it into reference seconds."""
        self.samples: list[float] = []
        previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = time.perf_counter()
        try:
            value = stretch()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
        elapsed = time.perf_counter() - start
        sampling_share = sum(self.samples) / elapsed if elapsed > 0 else 0.0
        while len(self.samples) < 3:  # a short stretch: sample right after it
            self._sample(None, None)
        self.factor = (REF_LOOP_S / statistics.median(self.samples)) ** ELASTICITY
        return value, self.factor * (1 - sampling_share)

    def _sample(self, signum, frame):
        # Thread CPU time: under --jobs N a worker may take the GIL in the
        # middle of the loop, and that wait must not count as slowness.
        start = time.thread_time()
        _reference_loop()
        self.samples.append(time.thread_time() - start)


def _purge_ribetkit():
    for name in [n for n in sys.modules if n == "ribetkit" or n.startswith("ribetkit.")]:
        del sys.modules[name]


def timed_setup(workload, seed: int, speed: HostSpeed):
    """Median set-up time over SETUPS fresh imports; returns the last context."""
    _purge_ribetkit()
    workload.setup(seed)  # compiles bytecode on a fresh checkout

    def setups():
        times, ctx = [], None
        for _ in range(SETUPS):
            _purge_ribetkit()
            ctx = None
            gc.collect()  # start each set-up from a heap without the last one's garbage
            start = time.perf_counter()
            ctx = workload.setup(seed)
            times.append(time.perf_counter() - start)
        return times, ctx

    (times, ctx), factor = speed.run(setups)
    raw = statistics.median(times)
    print(f"# setup raw {raw:.4f} s, host factor {speed.factor:.3f}", file=sys.stderr)
    return raw * factor, ctx


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def add(self, res):
        self.attempted += res.attempted
        self.failed += res.failed
        self.wrong += res.wrong


def scaled_pass(workload, ctx, index: int, tally: Tally, speed: HostSpeed):
    """Run one pass; returns (result, wall at the reference speed, raw
    wall, host factor).  Limits are charged in reference seconds."""
    limit_factor = speed.factor
    res, factor = speed.run(lambda: workload.run_pass(ctx, index, limit_factor))
    tally.add(res)
    return (res, res.wall_s * factor + res.limit_s,
            res.wall_s + res.limit_s / limit_factor, speed.factor)


def run_timed(workload, ctx, seconds: float, tally: Tally, speed: HostSpeed) -> dict:
    """Closed loop of passes; stops before a pass that would overrun."""
    walls, raws, factors = [], [], []
    start = time.perf_counter()
    while True:
        _res, wall, raw, factor = scaled_pass(workload, ctx, len(walls), tally, speed)
        print(f"# pass raw {raw:.4f} s, host factor {factor:.3f}, limits {_res.limit_s:.3f} s",
              file=sys.stderr)
        walls.append(wall)
        raws.append(raw)
        factors.append(factor)
        if time.perf_counter() - start + statistics.median(raws) > seconds:
            break
    print(f"# {len(walls)} passes, raw median {statistics.median(raws):.4f} s, "
          f"host factor {statistics.median(factors):.3f}", file=sys.stderr)
    return {
        "wall_s": statistics.median(walls),
        "decided_share": 1 - tally.failed / tally.attempted,
    }


def run_traced(workload, ctx, seed: int, tally: Tally,
               speed: HostSpeed) -> tuple[dict, list[str]]:
    """Traced passes of the same inputs, each right after an untraced one.
    The overhead is the difference of their means."""
    tr = tracer.Tracer()
    repeats = 2 if workload.deterministic_counts else 1
    metrics, problems, untraced, traced, base = None, [], [], [], None
    for op in range(1, repeats + 1):
        res, untraced_wall, raw, factor = scaled_pass(workload, ctx, 0, tally, speed)
        if base is None:
            base, base_raw, base_factor = res, raw, factor
        tr.install()
        tr.reset_counts()
        tr.begin(op)
        try:
            _res, wall, _raw, _factor = scaled_pass(workload, ctx, 0, tally, speed)
        finally:
            tr.end()
            tr.uninstall()
        untraced.append(untraced_wall)
        traced.append(wall)
        got = tr.metrics(op)
        if metrics is None:
            metrics = got
            continue
        for name, value in got.items():
            if not name.endswith("_s") and value != metrics[name]:
                problems.append(f"count {name} differs between traced passes: "
                                f"{metrics[name]} != {value}")
    OUT_DIR.mkdir(exist_ok=True)
    tr.dump(str(OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"))
    metrics.update(tracer.check_time_metrics(base.report, base.wall_s))
    metrics["untraced.wall_raw_s"] = base_raw
    metrics["untraced.host_factor"] = base_factor
    overhead = statistics.mean(traced) - statistics.mean(untraced)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / statistics.mean(untraced)
    return metrics, problems


def emit(correct: bool, attempted: int, failed: int, values: dict, units: dict):
    for name, value in values.items():
        print(f"{name:60s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))


def declared_metrics_problem() -> str | None:
    """BENCHMARK.json lists the metric names a second time; they must be
    the ones this program reports (tracer.LAYERS is the source)."""
    try:
        doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"cannot read BENCHMARK.json: {exc}"
    for key, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", tracer.metric_units())):
        declared = {m["name"]: m["unit"] for m in doc.get(key, ())}
        if declared != units:
            return (f"BENCHMARK.json {key} differs from the reported metrics: "
                    f"{sorted(set(declared.items()) ^ set(units.items()))[:5]}")
    return None


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def run_all(args) -> int:
    """Every workload in its own process, so peak memory stays per workload."""
    correct, attempted, failed, values, units = True, 0, 0, {}, {}
    for name in workloads(nproc()):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return 2
        doc = json.loads(lines[-1])
        correct &= doc["correct"] and proc.returncode == 0
        attempted += doc["attempted"]
        failed += doc["failed"]
        for metric, entry in doc["metrics"].items():
            values[f"{name}.{metric}"] = entry["value"]
            units[f"{name}.{metric}"] = entry["unit"]
    emit(correct, attempted, failed, values, units)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ribetkit" / "__init__.py").is_file():
        print(f"error: no ribetkit sources under {SRC}", file=sys.stderr)
        return 2
    problem = declared_metrics_problem()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    table = workloads(nproc())
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(table)} or all",
              file=sys.stderr)
        return 2
    workload = table[args.workload]
    print(f"# {workload.name}: jobs={workload.jobs} nproc={nproc()} "
          f"python={sys.version.split()[0]} seed={args.seed}", file=sys.stderr)

    speed = HostSpeed()
    setup_s, ctx = timed_setup(workload, args.seed, speed)
    tally = Tally()
    if args.trace:
        values, problems = run_traced(workload, ctx, args.seed, tally, speed)
        units = tracer.metric_units()
        values = {name: values[name] for name in units}
    else:
        values = run_timed(workload, ctx, args.seconds, tally, speed)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = peak_rss_mb()
        values = {name: values[name] for name in END_TO_END_UNITS}
        units, problems = END_TO_END_UNITS, []
    for line in tally.wrong[:20] + problems:
        print(f"WRONG: {line}", file=sys.stderr)
    correct = not tally.wrong and not problems
    emit(correct, tally.attempted, tally.failed, values, units)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
