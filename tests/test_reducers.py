"""reducers.Reducers: the support-indexed lookup returns exactly the
record that the ordered scan of ``_Engine.reduce`` returns, on the
unsigned, append-only sets the index serves."""

import random

import pytest

import ribetkit.groebner as groebner
import ribetkit.reducers as reducers
from ribetkit.exactpoly import GF, QQ
from ribetkit.groebner import Budget


def _scan(records, m, guard):
    """The reference: the first record in order whose lead divides m."""
    mg = m | guard
    for rec in records:
        if (mg - rec[0]) & guard == guard:
            return rec
    return None


def _monomial(rng, packer, nvars, degree, component=0):
    """A random packed monomial of total degree at most ``degree`` in
    component ``component``: in a large ring it uses few variables, as
    the leads of the relation ideals do."""
    exps = [0] * nvars
    for _ in range(rng.randint(0, degree)):
        exps[rng.randrange(nvars)] += 1
    return sum(e * u for e, u in zip(exps, packer.units)) + packer.components[component]


def _record(rng, eng, nvars, components):
    """An unsigned record whose lead and tail come from random monomials
    of one component."""
    c = rng.randrange(components or 1)
    terms = {_monomial(rng, eng.packer, nvars, 4, c): rng.randint(1, 5) for _ in range(rng.randint(1, 4))}
    return eng.record(terms)


def _queries(rng, eng, nvars, components, records, count):
    """Terms that many records divide (a lead times a monomial) and random
    ones."""
    for _ in range(count):
        if records and rng.random() < 0.6:
            yield rng.choice(records)[0] + _monomial(rng, eng.packer, nvars, 2)
        else:
            yield _monomial(rng, eng.packer, nvars, 6, rng.randrange(components or 1))


def _assert_tables_exclude_exactly(indexed):
    """Each zero-pattern table maps a pattern to the ids (list positions)
    of exactly the records whose lead uses a variable of the chunk that
    the pattern lacks: excluding fewer would still give the right record,
    only slower."""
    leads = [indexed.packer.unpack(rec[0]) for rec in indexed]
    for _, table, vs in indexed.chunks:
        for pattern, ids in table.items():
            lacking = [v for v, g in vs if not pattern & g]
            assert ids == sum(1 << i for i, lead in enumerate(leads) if any(lead[v] for v in lacking))


@pytest.mark.parametrize("nvars", [3, 20])
@pytest.mark.parametrize("components", [0, 3], ids=["scalar", "module"])
@pytest.mark.parametrize("size", [reducers._INDEX_MIN_RECORDS - 1, 3 * reducers._INDEX_MIN_RECORDS])
@pytest.mark.parametrize("sort", [False, True], ids=["by-position", "by-tail-length"])
def test_indexed_lookup_returns_the_record_of_the_ordered_scan(monkeypatch, nvars, components, size, sort):
    # A set takes its records in whatever order it is given: as drawn, or
    # in the pair loops' tail-length order, which groups similar records.
    # Ids are list positions either way, and appends come after them.
    rng = random.Random(f"reducers:{nvars}:{components}:{size}:{sort}")
    eng = groebner._Engine(QQ, nvars, 40, components)
    guard = eng.packer.guard
    records = [_record(rng, eng, nvars, components) for _ in range(size)]
    if sort:
        records.sort(key=groebner._tail_length)
    scanned = reducers.Reducers(eng.packer, records)
    # The selection: an index only for large sets in rings of many variables.
    selected = size >= reducers._INDEX_MIN_RECORDS and nvars >= reducers._INDEX_MIN_VARS
    assert (scanned.finder() is not None) == selected
    # Checked on every set, whatever the selection would pick: the index
    # is built over the records, then filled as more are added.
    monkeypatch.setattr(reducers, "_INDEX_MIN_RECORDS", 0)
    monkeypatch.setattr(reducers, "_INDEX_MIN_VARS", 0)
    indexed = reducers.Reducers(eng.packer, records)
    find = indexed.finder()
    for _ in range(3):
        assert list(indexed) == records
        hits = 0
        for m in _queries(rng, eng, nvars, components, records, 300):
            expected = _scan(records, m, guard)
            assert find(m) is expected
            hits += expected is not None
        assert hits > 30
        _assert_tables_exclude_exactly(indexed)
        for _ in range(size // 2 + 1):
            rec = _record(rng, eng, nvars, components)
            indexed.add(rec)
            records.append(rec)


@pytest.mark.parametrize("ring", [QQ, GF(101)], ids=["QQ", "GF"])
def test_indexed_reduction_matches_the_scan(ring):
    # The whole reduction, not just one lookup: the same remainder, scale
    # and steps from a reducer set with an index as from the plain list.
    rng = random.Random(f"reduce:{ring!r}")
    nvars = 20
    eng = groebner._Engine(ring, nvars, 40)
    records = [_record(rng, eng, nvars, 0) for _ in range(2 * reducers._INDEX_MIN_RECORDS)]
    indexed = reducers.Reducers(eng.packer, records)
    assert indexed.finder() is not None
    for _ in range(20):
        terms = {_monomial(rng, eng.packer, nvars, 6): rng.randint(-9, 9) or 1 for _ in range(8)}
        by_index, by_scan = Budget().fresh_counter(), Budget().fresh_counter()
        assert eng.reduce(terms, indexed, by_index) == eng.reduce(terms, list(indexed), by_scan)
        assert by_index.steps == by_scan.steps


@pytest.mark.parametrize("nvars", [3, 20])
@pytest.mark.parametrize("forced", [False, True], ids=["as-selected", "indexed"])
def test_earlier_leads_answer_the_signature_loop_queries_like_the_scans(monkeypatch, nvars, forced):
    # Each query against its brute-force reference: partners visits or
    # counts every pair the scan forms, counting only coprime leads within
    # the slack; divides is any lead dividing; without_multiples keeps the
    # records no given lead divides.  The set is large enough for the
    # selection, so the index answers when the ring has 8 variables or
    # more, and always when forced.
    rng = random.Random(f"earlier:{nvars}:{forced}")
    eng = groebner._Engine(QQ, nvars, 40)
    packer, guard, mask = eng.packer, eng.packer.guard, eng.packer.deg_mask
    records = [_record(rng, eng, nvars, 0) for _ in range(3 * reducers._INDEX_MIN_RECORDS)]
    if forced:
        monkeypatch.setattr(reducers, "_INDEX_MIN_RECORDS", 0)
        monkeypatch.setattr(reducers, "_INDEX_MIN_VARS", 0)
    earlier = reducers.EarlierLeads(packer, records)
    assert earlier.indexed == (forced or nvars >= reducers._INDEX_MIN_VARS)

    def divides(a, b):
        return ((b | guard) - a) & guard == guard

    def lcm_degree(a, b):
        return sum(map(max, packer.unpack(a), packer.unpack(b)))

    n = len(records)
    for _ in range(300):
        lm = _monomial(rng, packer, nvars, 4)
        slack, end = rng.randint(-1, 4), n + rng.randint(0, 3)
        ids, coprime = earlier.partners(lm, slack, end)
        ids = list(ids)
        assert ids == sorted(set(ids))
        assert ids[len(ids) - (end - n) :] == ([*range(n, end)] if slack >= 0 else [])
        for i, rec in enumerate(records):
            formed = slack > 0 and lcm_degree(lm, rec[0]) <= (lm & mask) + slack or not slack and divides(rec[0], lm)
            if coprime >> i & 1:
                assert i not in ids and lcm_degree(lm, rec[0]) == (lm & mask) + (rec[0] & mask) and formed
            elif i not in ids:
                assert not formed
        t = _monomial(rng, packer, nvars, 6) if rng.random() < 0.5 else rng.choice(records)[0] + _monomial(rng, packer, nvars, 2)
        assert earlier.divides(t) == any(divides(rec[0], t) for rec in records)
    for _ in range(20):
        new = [_monomial(rng, packer, nvars, 3) for _ in range(rng.randint(0, 4))]
        expected = [rec for rec in records if not any(divides(h, rec[0]) for h in new)]
        assert earlier.without_multiples(new) == expected
