"""The reducer sets of the Groebner engine and their support index.

``Reducers`` holds unsigned records in the order ``groebner._Engine.reduce``
tries them, which is the order they were added, and on large sets a
support index that finds the same record as that ordered scan.
``EarlierLeads`` holds the records of the signature loop's earlier
phases and answers that loop's divisor queries through the same index.
The contract and the selection are in the ``groebner`` module docstring.

The support index.  A lead divides a term only if it uses no variable
the term lacks.  Adding 2^bits - 1 to every exponent field sets the
guard bit of exactly the nonzero exponents, so one addition gives a
term's zero pattern.  The index keeps, for each variable, the bitset of
the record ids whose lead uses it, an id being a list position, which an
append never moves.  For each chunk of five variables it keeps a table
from a zero pattern of the chunk to the ids it rules out.  The ids left
are tested in increasing order, as the scan would test them, and the
first that passes is the scan's record.

The signature loop's queries (``EarlierLeads``), over the leads of the
earlier phases, which no phase changes:
  - partners: the leads a new lead of the phase forms a pair with.  The
    leads that share no variable with it form a pair that F5 prunes by
    that lead, so they are counted in bulk, by one popcount of the ids
    outside the bitsets of its variables; only those of degree at most
    the bound minus its degree, since the lcm of coprime leads is their
    product.  A lead at the degree bound pairs only with its divisors.
  - F5: whether some lead divides a pair's signature monomial t.  The
    last four leads that answered it are tried first: consecutive pairs
    have signatures that one lead often divides;
  - the phase-end filter: the records that no new lead divides.  A
    multiple of a lead uses every variable the lead uses, so its
    candidates are the AND of those variables' bitsets.
Without the index each query scans: partners visits every record, F5
tests the leads in increasing degree up to that of t (a lead of higher
degree cannot divide t), and the filter tests every pair of a record
and a new lead.

Measured, each against the scan (medians on a shared 2-vCPU x86 host):
  - the reduced basis of J(sigma-v0-type3) over QQ, 20 variables: 23.6
    ms down to 13.3 ms; its 3,277 indexed terms meet 269,163 records, of
    which 2,717 pass the support test and 1,676 divide;
  - the GF(101) quotient of scripts/profile_engine.py, a module loop in
    3 variables: the support test rules out almost nothing, and the
    index took 2.4 s against 1.3 s to the same BudgetExceeded at 3,000
    steps.  So the pair loops, the module loop among them, reduce by a
    scan;
  - whole bases of random sparse quadrics in 8 and 10 variables: within
    the noise (medians 0.85 to 1.07 of the scan's time);
  - head-only reductions: nearly every popped term is reducible and the
    scan meets a reducer early, so the index saved nothing on
    J(sigma-v0-type3) and was about 1.4 times slower on random sparse
    quadrics in 10 variables;
  - below 32 records, the truncated bases of a suite run stay scans; 16
    would have saved under 1 ms on J(sigma-v0-type3);
  - the signature loop's queries, against the scans they replaced
    (medians of process time, three alternating runs): the basis of
    J(sigma-v0-type3) went from 43.3 to 39.1 ms over QQ and from 46.5 to
    42.5 ms over GF(2^31 - 1); the degree-5 members of the full J in
    scripts/profile_engine.py from 70 to 60 ms (p1-type4), 152 to 124
    ms (full-mixed) and 0.68 to 0.49 s (spec-r4, 71 variables), the
    degree-6 one of J(p1-type4) from 0.40 to 0.35 s.  Without the
    selection, on every phase, warm run_suite(all) passes took about 3%
    longer, their bases being small.

The types have their own module to keep ``groebner.py``, the package's
largest source, from growing: every import without cached bytecode
compiles it, and the compiler's peak memory grows with its length.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, islice
from typing import Iterable


# The selection of the support index (groebner's module docstring).
_INDEX_MIN_RECORDS, _INDEX_MIN_VARS, _INDEX_CHUNK = 32, 8, 5
# How many of the leads that last answered ``EarlierLeads.divides`` it tries first.
_RECENT = 4


def _ids(bits: int) -> Iterable[int]:
    """The ids of a bitset, in increasing order."""
    while bits:
        low = bits & -bits
        bits ^= low
        yield low.bit_length() - 1


class Reducers(list):
    """Unsigned records in the order ``_Engine.reduce`` tries them: as
    given, then as added.  ``packer`` is the engine's ``_Packer``.
    Extend it only by ``add``, which appends."""

    __slots__ = ("packer", "indexed", "all", "ones", "var_ids", "chunks")

    def __init__(self, packer, records: Iterable[tuple] = ()):
        super().__init__(records)
        self.packer, self.indexed = packer, False

    def add(self, rec: tuple):
        self.append(rec)
        if self.indexed:
            self._index(rec)

    def finder(self):
        """``find`` once the set is selected for the support index, which
        the first call builds; else None, and ``reduce`` scans the records."""
        if not self.indexed:
            shifts, bits = self.packer.shifts, self.packer.bits
            if len(self) < _INDEX_MIN_RECORDS or len(shifts) < _INDEX_MIN_VARS:
                return None
            # m + ones sets the guard bit of exactly the nonzero exponents of m.
            self.ones = sum(((1 << bits) - 1) << s for s in shifts)
            self.var_ids = [0] * len(shifts)  # the ids of the leads that use each variable
            self.chunks = []  # (guard bits, {zero pattern: ids excluded}, (variable, guard bit) pairs)
            for i in range(0, len(shifts), _INDEX_CHUNK):
                vs = [(v, 1 << (shifts[v] + bits)) for v in range(i, min(i + _INDEX_CHUNK, len(shifts)))]
                self.chunks.append((sum(g for _, g in vs), {}, vs))
            self.indexed, self.all = True, 0
            for rec in self:
                self._index(rec)
        return self.find

    def _index(self, rec: tuple):
        """Index the record given the next id, its list position."""
        bit = self.all + 1  # all holds the ids 0 .. n - 1, so this is 1 << n
        self.all |= bit
        used = (rec[0] & self.ones) + self.ones
        for mask, table, vs in self.chunks:
            used_here = used & mask
            if not used_here:
                continue
            for v, g in vs:
                if used_here & g:
                    self.var_ids[v] |= bit
            for pattern, ids in table.items():
                if used_here & ~pattern:
                    table[pattern] = ids | bit

    def _variables(self, m: int) -> list[int]:
        """The variables whose exponent in the packed term ``m`` is nonzero."""
        used = (m & self.ones) + self.ones
        return [v for mask, _, vs in self.chunks if used & mask for v, g in vs if used & g]

    def _candidates(self, m: int) -> int:
        """The ids of the records whose lead uses no variable that the
        packed term ``m`` lacks."""
        ones = self.ones
        nonzero = (m & ones) + ones
        excluded = 0
        for mask, table, vs in self.chunks:
            pattern = nonzero & mask
            ids = table.get(pattern)
            if ids is None:
                ids = 0
                for v, g in vs:
                    if not pattern & g:
                        ids |= self.var_ids[v]
                table[pattern] = ids
            excluded |= ids
        return self.all & ~excluded

    def find(self, m: int):
        """The record the ordered scan finds for the packed term ``m``, or
        None: the first in list order whose lead divides ``m``, tested
        only among the records whose lead uses no variable that ``m``
        lacks."""
        candidates = self._candidates(m)
        guard = self.packer.guard
        mg = m | guard
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            rec = self[low.bit_length() - 1]
            if (mg - rec[0]) & guard == guard:
                return rec
        return None


class EarlierLeads(Reducers):
    """The records of the signature loop's earlier phases and the divisor
    queries a phase asks of their leads (module docstring), through the
    support index when the set is selected for it, else by scans."""

    __slots__ = ("low", "by_degree", "recent")

    def __init__(self, packer, records: Iterable[tuple]):
        super().__init__(packer, records)
        self.low, self.by_degree, self.recent = {}, None, []  # filled by the queries
        self.finder()  # builds the index if the set is selected for it

    def partners(self, lm: int, slack: int, end: int) -> tuple[Iterable[int], int]:
        """(ids, coprime) for a new lead ``lm`` of the running phase whose
        pairs may have lcms of degree up to its own plus ``slack``, and
        whose phase holds the ids from ``len(self)`` to ``end``: the ids
        of the records to visit, in increasing order, and the bitset of
        the ids of earlier-phase leads coprime to ``lm`` within the
        degree bound, which form pairs that F5 prunes.  With a slack
        below 0 it pairs with nothing; with 0, only with the leads that
        divide it."""
        if slack < 0:
            return (), 0
        if not self.indexed:
            return range(end), 0
        phase = range(len(self), end)
        if not slack:
            guard = self.packer.guard
            lg = lm | guard
            return chain([i for i in _ids(self._candidates(lm)) if (lg - self[i][0]) & guard == guard], phase), 0
        shared = 0
        for v in self._variables(lm):
            shared |= self.var_ids[v]
        low = self.low.get(slack)
        if low is None:
            mask = self.packer.deg_mask
            low = self.low[slack] = sum(1 << i for i, rec in enumerate(self) if rec[0] & mask <= slack)
        return chain(_ids(shared), phase), low & ~shared

    def divides(self, t: int) -> bool:
        """Whether some lead divides the packed term ``t`` (F5), trying
        the last leads found first."""
        guard = self.packer.guard
        tg = t | guard
        recent = self.recent
        for lead in recent:
            if (tg - lead) & guard == guard:
                return True
        if self.indexed:
            rec = self.find(t)
            if rec is None:
                return False
            lead = rec[0]
        else:
            mask = self.packer.deg_mask
            if self.by_degree is None:
                leads = sorted((rec[0] for rec in self), key=lambda lm: lm & mask)
                self.by_degree = leads, [lm & mask for lm in leads]
            leads, degrees = self.by_degree
            for lead in islice(leads, bisect_right(degrees, t & mask)):
                if (tg - lead) & guard == guard:
                    break
            else:
                return False
        recent.insert(0, lead)
        del recent[_RECENT:]
        return True

    def without_multiples(self, leads: list[int]) -> list[tuple]:
        """The records whose lead none of ``leads`` divides, in order."""
        guard = self.packer.guard
        if not self.indexed:
            return [rec for rec in self if not any(((rec[0] | guard) - h) & guard == guard for h in leads)]
        dropped = set()
        for h in leads:
            ids = self.all
            for v in self._variables(h):
                ids &= self.var_ids[v]
            dropped.update(i for i in _ids(ids) if ((self[i][0] | guard) - h) & guard == guard)
        return [rec for i, rec in enumerate(self) if i not in dropped]
