"""perfbench/tracer.py names ribetkit entry points by string; a rename
or deletion in src/ must fail here, not in a later traced benchmark run
(`python perfbench/run.py --workload NAME --trace 1`)."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from ribetkit import groebner

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    # Read-only: no bytecode cache is written next to the benchmark.
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_traced_entry_point_resolves(tracer):
    for layer, (entries, _why) in tracer.LAYERS.items():
        home = importlib.import_module(f"ribetkit.{layer}")
        for entry in entries:
            if "." in entry:  # a method, patched in its class's own dict
                cls_name, attr = entry.split(".")
                assert callable(vars(getattr(home, cls_name)).get(attr)), f"{layer}.{entry}"
            else:
                assert callable(getattr(home, entry, None)), f"{layer}.{entry}"


def test_step_counter_the_tracer_wraps_has_steps():
    assert callable(groebner.Budget.fresh_counter)
    counter = groebner.Budget().fresh_counter()
    assert counter.steps == 0
