"""The engine's inputs and limits, without the engine.

``IdealSpec`` (the generator list of an ideal), ``FreeModuleMatrix`` (a
matrix over a polynomial ring, with its sparse products) and ``Budget``
(the step and degree limits of one engine call, with the step counter
``_Counter`` that each call takes from it) are plain data.  The layers
that only build ideals and matrices -- ``genmat``, ``borel``, ``ribet``
and the harness config -- take them from here, so importing those
layers does not load the Groebner engine; ``groebner`` re-exports all
four names, which are the same objects there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import BudgetExceeded, StructuralError
from .exactpoly import Polynomial


@dataclass
class Budget:
    """Resource limits shared by all engine entry points."""

    max_steps: int = 1_000_000
    max_degree: int = 40

    def fresh_counter(self) -> "_Counter":
        return _Counter(self)


class _Counter:
    """Steps spent against one budget.  ``stats`` holds the pair and
    zero-reduction counts of the signature loops that used the counter,
    if any did (``_signature_basis``)."""

    __slots__ = ("budget", "steps", "stats")

    def __init__(self, budget: Budget):
        self.budget = budget
        self.steps = 0
        self.stats = None

    def tick(self, n: int = 1):
        self.steps += n
        if self.steps > self.budget.max_steps:
            raise BudgetExceeded(
                f"Groebner step budget exceeded ({self.budget.max_steps})"
            )

    def check_degree(self, d: int):
        if d > self.budget.max_degree:
            raise BudgetExceeded(
                f"degree cap exceeded ({d} > {self.budget.max_degree})"
            )


DEFAULT_BUDGET = Budget()


@dataclass(frozen=True)
class IdealSpec:
    """The generator list of an ideal; its nonzero generators, in order."""

    generators: tuple[Polynomial, ...]

    def __init__(self, generators: Sequence[Polynomial]):
        gens = tuple(g for g in generators if not g.is_zero())
        if gens:
            ring, table = gens[0].ring, gens[0].table
            for g in gens:
                if g.ring != ring or g.table != table:
                    raise StructuralError("ideal generators must share ring and table")
        object.__setattr__(self, "generators", gens)

    @property
    def ring(self):
        return self.generators[0].ring if self.generators else None

    @property
    def table(self):
        return self.generators[0].table if self.generators else None


@dataclass(frozen=True)
class FreeModuleMatrix:
    """Rectangular matrix of polynomials sharing one ring and table.

    Products are sparse: only pairs of nonzero entries are multiplied,
    and an output entry that no pair reaches is one shared zero."""

    entries: tuple[tuple[Polynomial, ...], ...]

    def __init__(self, entries: Sequence[Sequence[Polynomial]]):
        rows = tuple(tuple(r) for r in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise StructuralError("matrix must be rectangular")
            probe = rows[0][0] if width else None
            if probe is not None:
                ring, table = probe.ring, probe.table
                for r in rows:
                    for e in r:
                        if e.ring is ring and e.table is table:
                            continue
                        if e.ring != ring or e.table != table:
                            raise StructuralError("matrix entries must share ring and table")
        object.__setattr__(self, "entries", rows)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def column(self, j: int) -> list[Polynomial]:
        return [self.entries[i][j] for i in range(self.rows)]

    def _zero(self) -> Polynomial:
        probe = self.entries[0][0]
        return Polynomial.zero(probe.ring, probe.table)

    def apply(self, v: Sequence[Polynomial]) -> list[Polynomial]:
        if len(v) != self.cols:
            raise StructuralError("vector length mismatch")
        if not v:  # no entry to take a ring from: one None per row
            return [None] * self.rows
        zero = self._zero()
        pairs = [(j, x) for j, x in enumerate(v) if x._terms]
        out = []
        for row in self.entries:
            acc = None
            for j, x in pairs:
                a = row[j]
                if a._terms:
                    t = a * x
                    acc = t if acc is None else acc + t
            out.append(zero if acc is None else acc)
        return out

    def matmul(self, other: "FreeModuleMatrix") -> "FreeModuleMatrix":
        if self.cols != other.rows:
            raise StructuralError("matrix dimension mismatch")
        if not other.cols:  # covers a zero inner dimension: a factor with no rows has no columns
            return FreeModuleMatrix([[] for _ in range(self.rows)])
        zero = self._zero()
        # The nonzero (j, entry) pairs of each row of the right factor.  The
        # tests read the term dicts: a __bool__ call per entry is slow.
        right = [[(j, b) for j, b in enumerate(row) if b._terms] for row in other.entries]
        out = []
        for row in self.entries:
            acc: dict[int, Polynomial] = {}
            for a, pairs in zip(row, right):
                if not a._terms:
                    continue
                for j, b in pairs:
                    t = a * b
                    acc[j] = acc[j] + t if j in acc else t
            out.append([acc.get(j, zero) for j in range(other.cols)])
        return FreeModuleMatrix(out)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)
