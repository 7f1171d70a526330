"""The reducer sets of the Groebner engine: unsigned records in the order
``groebner._Engine.reduce`` tries them, which is the order they were
added, and the support index that finds the same record as that ordered
scan on large sets.  The contract, the index and the selection are in
the ``groebner`` module docstring.

The type has its own module to keep ``groebner.py``, the package's
largest source, from growing: every import without cached bytecode
compiles it, and the compiler's peak memory grows with its length.
"""

from __future__ import annotations

from typing import Iterable


# The selection of the support index (groebner's module docstring).
_INDEX_MIN_RECORDS, _INDEX_MIN_VARS, _INDEX_CHUNK = 32, 8, 5


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

    def find(self, m: int):
        """The record the ordered scan finds for the packed term ``m``, or
        None: the first in list order whose lead divides ``m``, tested
        only among the records whose lead uses no variable that ``m``
        lacks."""
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
        candidates = self.all & ~excluded
        guard = self.packer.guard
        mg = m | guard
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            rec = self[low.bit_length() - 1]
            if (mg - rec[0]) & guard == guard:
                return rec
        return None
