"""The reducer sets of the Groebner engine: records in the order
``groebner._Engine.reduce`` tries them, and the support index that finds
the same record as that ordered scan on large sets.  The contract, the
index and the selection are in the ``groebner`` module docstring.

The type has its own module to keep ``groebner.py``, the package's
largest source, from growing: every import without cached bytecode
compiles it, and the compiler's peak memory grows with its length.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable


# The selection of the support index (groebner's module docstring).
_INDEX_MIN_RECORDS, _INDEX_MIN_VARS, _INDEX_CHUNK = 32, 8, 5


class Reducers(list):
    """Records in the order ``_Engine.reduce`` tries them: least ``key``
    first, ties to the earliest added; with no key, as given and added.
    ``packer`` is the engine's ``_Packer``.  Extend it only by ``add``."""

    __slots__ = ("key", "packer", "indexed", "all", "ones", "var_ids", "chunks")

    def __init__(self, packer, records: Iterable[tuple] = (), key=None):
        super().__init__(sorted(records, key=key) if key else records)
        self.key, self.packer, self.indexed = key, packer, False

    def add(self, rec: tuple):
        at = bisect_right(self, self.key(rec), key=self.key) if self.key else len(self)
        self.insert(at, rec)
        if self.indexed:
            self._index(rec, at)

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
            for at, rec in enumerate(self):
                self._index(rec, at)
        return self.find

    def _index(self, rec: tuple, at: int):
        """Index the record now at list position ``at``: an id is a list
        position, so the ids from ``at`` up move up by one."""
        bit, low, moved = 1 << at, (1 << at) - 1, self.all >> at
        self.all = (self.all << 1) | 1
        used = (rec[0] & self.ones) + self.ones
        for mask, table, vs in self.chunks:
            used_here = used & mask
            if not (used_here or moved):
                continue
            for v, g in vs:
                ids = self.var_ids[v]
                if moved:
                    ids = (ids & low) | (ids >> at << at + 1)
                self.var_ids[v] = ids | bit if used_here & g else ids
            for pattern, ids in table.items():
                if moved:
                    ids = (ids & low) | (ids >> at << at + 1)
                table[pattern] = ids | bit if used_here & ~pattern else ids

    def find(self, m: int, signature: int | None = None):
        """The record the ordered scan finds for the packed term ``m``
        under ``signature``, or None: the first in list order that
        reduces ``m``, tested only among the records whose lead uses no
        variable that ``m`` lacks."""
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
            if (mg - rec[0]) & guard == guard and (rec[5] is None or rec[5] + m - rec[0] < signature):
                return rec
        return None
