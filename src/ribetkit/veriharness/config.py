"""Flat text configuration for verification suites.

The format is deliberately tiny: ``key = value`` lines, ``[section]``
headers (one section per suite), ``#`` comments, repeated keys
accumulate into lists.  Shape files use the same syntax without
sections (see RibetShape.from_mapping).
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field

from ..errors import StructuralError
from ..exactpoly import GF
from ..groebner import Budget
from ..ribet.shapes import RibetShape, _int


def parse_flat_config(text: str) -> dict[str, dict[str, list[str]]]:
    """Sections -> key -> list of values.  Keys before any section
    header land in the '' section."""
    out: dict[str, dict[str, list[str]]] = {"": {}}
    section = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            out.setdefault(section, {})
            continue
        if "=" not in line:
            raise StructuralError(f"bad config line {raw!r}")
        key, _, value = line.partition("=")
        out[section].setdefault(key.strip(), []).append(value.strip())
    return out


def _parse_seeds(values: list[str]) -> list[int]:
    seeds: list[int] = []
    for v in values:
        for piece in v.split():
            if ".." in piece:
                lo, _, hi = piece.partition("..")
                seeds.extend(range(_int("seeds", lo), _int("seeds", hi) + 1))
            else:
                seeds.append(_int("seeds", piece))
    return seeds


@dataclass
class SuiteConfig:
    """Everything one suite run needs."""

    suite: str
    shape_paths: list[str] = field(default_factory=list)
    prime: int = 10007
    seeds: list[int] = field(default_factory=lambda: list(range(20)))
    budget: Budget = field(default_factory=Budget)
    out_path: str | None = None
    jobs: int = 1
    degree_cap: int = 2  # morphism materialization cap
    # Under "all": each suite's own config, which its checks run with.  A
    # suite not listed runs with this one.
    suites: dict[str, "SuiteConfig"] = field(default_factory=dict)

    def __post_init__(self):
        GF(self.prime)  # the bound p < 2**31 first, so a large prime cannot stall the trial division
        for path in self.shape_paths:
            if not os.path.exists(path):
                raise StructuralError(f"shape file {path!r} does not exist")
        if not self.seeds:
            raise StructuralError("seed list must be nonempty")
        # A repeated seed would give two checks one id.
        repeated = sorted(seed for seed, n in Counter(self.seeds).items() if n > 1)
        if repeated:
            raise StructuralError(f"seeds repeat {repeated}")
        for key, value, least in (("degree_cap", self.degree_cap, 0), ("jobs", self.jobs, 1),
                                  ("budget_steps", self.budget.max_steps, 0),
                                  ("degree_budget", self.budget.max_degree, 0)):
            if value < least:
                raise StructuralError(f"{key} = {value} is below {least}")

    def load_shapes(self) -> list[RibetShape]:
        """The shapes of ``shape_paths``; two with one ``name`` would give
        two checks one id, and raise StructuralError."""
        shapes = {}
        for path in self.shape_paths:
            with open(path, "r", encoding="utf-8") as fh:
                shape = RibetShape.from_mapping(parse_flat_config(fh.read())[""])
            if shape.name in shapes:
                raise StructuralError(f"shapes lists two shape files with name = {shape.name}")
            shapes[shape.name] = shape
        return list(shapes.values())


def load_config(
    suite: str,
    path: str | None = None,
    seed: int | None = None,
    prime: int | None = None,
    jobs: int | None = None,
    out: str | None = None,
) -> SuiteConfig:
    """Build a SuiteConfig from an optional config file plus CLI
    overrides.  VERIFY_BUDGET_STEPS overrides the step budget.

    The keys above the first ``[section]`` apply to every suite, and the
    ``[suite]`` section overrides them.  For ``suite="all"`` that is the
    ``[all]`` section, which sets only ``jobs``, ``out`` and the report
    header: each suite's checks run with the config this function builds
    for that suite from the same file and overrides.

    A malformed number, or a ``seeds`` key that names no seed, raises
    StructuralError naming the key."""
    section: dict[str, list[str]] = {}
    if path is not None:
        if not os.path.exists(path):
            raise StructuralError(f"config file {path!r} does not exist")
        with open(path, "r", encoding="utf-8") as fh:
            parsed = parse_flat_config(fh.read())
        section = dict(parsed.get("", {}))
        section.update(parsed.get(suite, {}))
    base_dir = os.path.dirname(os.path.abspath(path)) if path else "."

    def single(key, default):
        vals = section.get(key)
        return vals[-1] if vals else default

    def number(key, default):
        return _int(key, single(key, default))

    budget = Budget(
        max_steps=number("budget_steps", Budget().max_steps),
        max_degree=number("degree_budget", Budget().max_degree),
    )
    env_steps = os.environ.get("VERIFY_BUDGET_STEPS")
    if env_steps:
        budget.max_steps = _int("VERIFY_BUDGET_STEPS", env_steps)

    # A seeds key that names no seed (``seeds = 5..3``) is an error, not
    # the default range.
    seeds = _parse_seeds(section["seeds"]) if "seeds" in section else list(range(20))
    if seed is not None:
        seeds = [seed + k for k in range(len(seeds))]

    shape_paths = []
    for v in section.get("shapes", []):
        for piece in v.split():
            shape_paths.append(os.path.join(base_dir, piece) if not os.path.isabs(piece) else piece)

    cfg = SuiteConfig(
        suite=suite,
        shape_paths=shape_paths,
        prime=prime if prime is not None else number("prime", 10007),
        seeds=seeds,
        budget=budget,
        out_path=out if out is not None else single("out", None),
        jobs=jobs if jobs is not None else number("jobs", 1),
        degree_cap=number("degree_cap", 2),
    )
    if suite == "all":
        from .suites import SUITES  # suites imports this module

        cfg.suites = {name: load_config(name, path, seed, prime, jobs, out) for name in SUITES}
    return cfg
