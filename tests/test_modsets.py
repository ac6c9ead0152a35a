"""Modular set verification, the family table, block expansion, search."""

import os
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stanley import (
    BudgetExceededError,
    NotModularError,
    compose_system,
    expand_modular,
    explore_basic_characters,
    family_modulus,
    family_set,
    family_table,
    generate,
    modularize,
    plan_character,
    plan_seed,
    search_near_modular,
    verify_modular,
    verify_near_modular,
    zero_sequence_value,
)

from stanley import characters, core, modsets

from .naive import (
    naive_branch_search,
    naive_first_violation,
    naive_is_modular,
    naive_is_near_modular,
    naive_search,
    naive_search_nodes,
    naive_search_prefixes,
)


def test_zero_sequence_closed_form():
    # value n spells n's binary digits in ternary
    assert [zero_sequence_value(n) for n in range(8)] == [0, 1, 3, 4, 9, 10, 12, 13]
    assert zero_sequence_value(2**10) == 3**10
    assert zero_sequence_value(0b1011) == 3**3 + 3**1 + 3**0


def test_known_modular_sets():
    assert verify_modular([0], 1).verdict == "modular"
    assert verify_modular([0, 1], 3).verdict == "modular"
    assert verify_modular([0, 2, 5, 6], 9).verdict == "modular"


def test_near_modular_vocabulary():
    report = verify_near_modular([0, 4, 10, 12], 9)
    assert report.verdict == "near-modular-only"
    assert report.ok
    assert verify_near_modular([0, 2, 5, 6], 9).verdict == "modular"
    out_of_range = verify_modular([0, 4, 10, 12], 9)
    assert out_of_range.verdict == "invalid"
    assert out_of_range.violation.kind == "out-of-range"
    assert not out_of_range.ok


def test_violation_kinds():
    assert verify_modular([1, 2], 3).violation.kind == "missing-zero"
    ap = verify_near_modular([0, 1, 2, 4], 9)
    assert ap.verdict == "invalid" and ap.violation.kind == "mod-ap"
    x, y, z = ap.violation.details
    assert (x - (2 * y - z)) % 9 == 0
    gap = verify_near_modular([0, 1], 9)
    assert gap.verdict == "invalid" and gap.violation.kind == "uncovered-residue"


def test_duplicate_residues_rejected():
    # distinct integers, equal residues: x = 2y - y (mod N) nontrivially
    report = verify_near_modular([0, 2, 5, 11], 9)
    assert report.verdict == "invalid"
    assert report.violation.kind == "mod-ap"


@given(st.sets(st.integers(0, 40), min_size=1, max_size=8), st.integers(2, 30))
@settings(max_examples=150, deadline=None)
def test_near_modular_matches_naive(elements, modulus):
    elements = {0} | elements
    report = verify_near_modular(sorted(elements), modulus)
    assert report.ok == naive_is_near_modular(sorted(elements), modulus)


@given(st.sets(st.integers(0, 26), min_size=1, max_size=8), st.integers(2, 27))
@settings(max_examples=150, deadline=None)
def test_modular_matches_naive(elements, modulus):
    elements = {0} | elements
    report = verify_modular(sorted(elements), modulus)
    assert (report.verdict == "modular") == naive_is_modular(sorted(elements), modulus)


# The eight shipped base sets, written out so that a change to how the
# table is stored cannot change what it holds.
FAMILY_SETS = {
    (1, "A"): (0, 2, 5, 6),
    (1, "B"): (0, 4, 10, 12),
    (2, "A"): (0, 1, 4, 6, 10, 13, 15, 18),
    (2, "B"): (0, 2, 8, 12, 20, 26, 30, 36),
    (3, "A"): (0, 2, 3, 5, 11, 14, 18, 21, 29, 30, 32, 38, 41, 45, 48, 54),
    (3, "B"): (0, 4, 6, 10, 22, 28, 36, 42, 58, 60, 64, 76, 82, 90, 96, 108),
    (4, "A"): (
        0, 2, 8, 9, 15, 20, 24, 26,
        54, 56, 62, 63, 69, 74, 78, 80,
        83, 89, 90, 96, 101, 105, 107, 135,
        137, 143, 144, 150, 155, 159, 161, 162,
    ),
    (4, "B"): (
        0, 4, 16, 18, 30, 40, 48, 52,
        108, 112, 124, 126, 138, 148, 156, 160,
        166, 178, 180, 192, 202, 210, 214, 270,
        274, 286, 288, 300, 310, 318, 322, 324,
    ),
}


def test_family_table_contents():
    table = family_table()
    assert len(table) == 8
    assert {(e.index, e.side): e.elements for e in table} == FAMILY_SETS
    assert [(e.index, e.side) for e in table] == list(FAMILY_SETS)
    for entry in table:
        assert entry.modulus == 3 ** (entry.index + 1)
        assert len(entry.elements) == 2 ** (entry.index + 1)
        expected_max = (2 if entry.side == "A" else 4) * 3**entry.index
        assert entry.elements[-1] == expected_max
        assert verify_near_modular(entry.elements, entry.modulus).ok


@pytest.mark.parametrize("index", [1, 2, 3, 4])
@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("shift", [0, 1, 2, 3])
def test_shifted_families_stay_near_modular(index, side, shift):
    elements = family_set(index, side, shift)
    modulus = family_modulus(index)
    base = family_set(index, side, 0)
    # only the largest element moves, by shift * modulus
    assert elements[:-1] == base[:-1]
    assert elements[-1] == base[-1] + shift * modulus
    assert verify_near_modular(elements, modulus).ok


def test_family_set_validation():
    with pytest.raises(ValueError):
        family_set(5, "A")
    with pytest.raises(ValueError):
        family_set(1, "C")
    with pytest.raises(ValueError):
        family_set(1, "A", -1)


def test_expand_modular_matches_greedy():
    for elements, modulus in [((0,), 1), ((0, 1), 3), ((0, 2, 5, 6), 9)]:
        expanded = expand_modular(elements, modulus, count=200)
        assert expanded == list(generate(elements, count=200).terms)


def test_expand_modular_limit():
    vals = expand_modular((0, 2, 5, 6), 9, limit=100)
    assert vals == [v for v in expand_modular((0, 2, 5, 6), 9, count=60) if v <= 100]
    assert expand_modular((0, 2, 5, 6), 9, count=4, limit=10**6) == [0, 2, 5, 6]


def test_expand_modular_rejects_non_modular():
    with pytest.raises(NotModularError):
        expand_modular((0, 4, 10, 12), 9, count=10)
    with pytest.raises(ValueError):
        expand_modular((0, 2, 5, 6), 9)


def test_search_recovers_known_sets():
    found6 = search_near_modular(1, 6)
    assert [s.elements for s in found6] == [(0, 2, 5, 6)]
    assert found6[0].verdict == "modular"
    found12 = [s.elements for s in search_near_modular(1, 12)]
    assert (0, 4, 10, 12) in found12
    found18 = [s.elements for s in search_near_modular(2, 18)]
    assert family_set(2, "A") in found18


@pytest.mark.parametrize("max_element", range(3, 37))
def test_search_matches_naive(max_element):
    got = [s.elements for s in search_near_modular(1, max_element)]
    assert got == naive_search(1, max_element)


def test_search_worker_counts_agree():
    solo = search_near_modular(2, 18, workers=1)
    multi = search_near_modular(2, 18, workers=3)
    assert solo == multi


@pytest.mark.parametrize(
    "requested,cpus,expected",
    [(2, 2, 2), (64, 2, 2), (64, 8, 8), (10**9, 128, "jobs"), (3, 1, None)],
)
def test_worker_count_is_clamped(monkeypatch, requested, cpus, expected):
    # No process starts: the pool runs in this process and records the
    # worker count it was asked for, and the CPU affinity is patched.
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

        def shutdown(self):
            pass

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(modsets, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(characters, "ProcessPoolExecutor", FakePool)
    jobs = {"search": 72, "explore": 87}  # depth-2 prefixes; heads x tails
    for name, run in (
        ("search", lambda: search_near_modular(2, 18, workers=requested)),
        ("explore", lambda: explore_basic_characters(2, 9, workers=requested)),
    ):
        sizes.clear()
        run()
        want = jobs[name] if expected == "jobs" else expected
        assert sizes == ([] if want is None else [want])


def test_search_first_only():
    all_sets = search_near_modular(1, 12)
    first = search_near_modular(1, 12, first_only=True)
    assert first == [min(all_sets, key=lambda s: s.elements)]


def test_search_budget_enforced():
    with pytest.raises(BudgetExceededError):
        search_near_modular(2, 18, budget=50)


def test_prefix_split_stops_at_the_budget(monkeypatch):
    # The first v1 row alone holds thousands of prefix nodes, so a budget
    # of 5 raises before a second row is admitted.
    admitted = []
    admit = modsets._admit

    def spy(open_, chosen, y, modulus):
        admitted.append(y)
        return admit(open_, chosen, y, modulus)

    monkeypatch.setattr(modsets, "_admit", spy)
    with pytest.raises(BudgetExceededError, match=r"\(5\)"):
        search_near_modular(1, 3000, budget=5)
    assert len(admitted) <= 1


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_branch_search_matches_oracle(data):
    # Same sets and the same node count, branch by branch, as re-checking
    # every pair for every candidate.
    ell = data.draw(st.sampled_from([1, 2]), label="ell")
    modulus, size = 3 ** (ell + 1), 2 ** (ell + 1)
    max_element = data.draw(st.integers(size - 1, 36), label="max_element")
    prefixes, _ = naive_search_prefixes(ell, max_element)
    if not prefixes:
        return
    prefix = data.draw(st.sampled_from(prefixes), label="prefix")
    want = naive_branch_search(prefix, modulus, size, max_element)
    nodes = want[1]
    # A branch may spend budget - spent nodes and not one more.
    job = (prefix, modulus, size, max_element, nodes + 1, 1)
    assert modsets._branch_search(job) == want
    with pytest.raises(BudgetExceededError):
        modsets._branch_search(job[:4] + (nodes, 1))


@pytest.mark.parametrize("ell, max_element", [(1, 7), (1, 35), (2, 18), (2, 36)])
def test_only_progression_free_sets_reach_coverage(ell, max_element):
    # Coverage alone passes some sets with a progression through
    # max_element, e.g. (0, 2, 6, 7) mod 9, so the last candidate must be
    # filtered before it.
    modulus = 3 ** (ell + 1)
    with mock.patch.object(modsets, "_covers", wraps=modsets._covers) as covers:
        search_near_modular(ell, max_element)
    assert covers.call_count
    for call in covers.call_args_list:
        full = call.args[0]
        assert all((x - 2 * y + z) % modulus or x == y == z
                   for x in full for y in full for z in full), full


@pytest.mark.parametrize("ell, max_element", [(2, 18), (1, 12)])
def test_search_budget_threshold_is_exact(ell, max_element):
    total = naive_search_nodes(ell, max_element)
    assert search_near_modular(ell, max_element, budget=total)
    with pytest.raises(BudgetExceededError, match=rf"\({total - 1}\)"):
        search_near_modular(ell, max_element, budget=total - 1)


def test_serial_branches_share_one_budget(monkeypatch):
    # Each serial branch is capped at what the prefix split and the
    # earlier branches left of the budget.
    seen = []
    branch = modsets._branch_search

    def spy(args):
        found, nodes = branch(args)
        seen.append((args[4], args[5], nodes))
        return found, nodes

    monkeypatch.setattr(modsets, "_branch_search", spy)
    search_near_modular(2, 18, budget=10**6)
    prefixes, spent = naive_search_prefixes(2, 18)
    assert len(seen) == len(prefixes)
    for budget, given, nodes in seen:
        assert (budget, given) == (10**6, spent)
        spent += nodes


def test_search_degenerate_bounds():
    assert search_near_modular(1, 2) == []
    with pytest.raises(ValueError):
        search_near_modular(0, 6)


def test_search_results_are_verified_sets():
    for s in search_near_modular(1, 12):
        assert verify_near_modular(s.elements, s.modulus).ok
        assert s.elements[0] == 0 and s.elements[-1] == 12


# ---------------------------------------------------------------------------
# The row-block kernel against the brute-force oracle.


@contextmanager
def kernel_layout(block_cells):
    # Shrink the row blocks, and with them the largest residue bitmap, so
    # that small sets run through several blocks and both membership paths.
    with mock.patch.object(modsets, "_BLOCK_CELLS", block_cells), mock.patch.object(
        core, "_BLOCK_CELLS", block_cells
    ):
        yield


LAYOUTS = [1 << 19, 1, 7, 40]


def expected_violation(elements, modulus, strict):
    values = sorted(elements)
    if strict and values and values[0] == 0:
        outside = tuple(v for v in values if v >= modulus)
        if outside:
            return ("out-of-range", outside)
    return naive_first_violation(values, modulus)


def assert_matches_oracle(elements, modulus):
    for strict, verify in ((False, verify_near_modular), (True, verify_modular)):
        want = expected_violation(elements, modulus, strict)
        for layout in LAYOUTS:
            with kernel_layout(layout):
                report = verify(sorted(elements), modulus)
            got = report.violation
            if want is None:
                assert got is None and report.ok, (layout, report)
            else:
                assert (got.kind, got.details) == want, (layout, report)
                assert report.verdict == "invalid"


@given(st.sets(st.integers(0, 60), max_size=10), st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_verification_matches_oracle_on_random_sets(elements, modulus):
    assert_matches_oracle(elements, modulus)


@given(
    st.sampled_from(sorted((e.index, e.side) for e in family_table())),
    st.integers(0, 3),
    st.integers(0, 2),
)
@settings(max_examples=60, deadline=None)
def test_verification_matches_oracle_on_near_modular_sets(family, shift, extra):
    index, side = family
    elements = family_set(index, side, shift)
    # Near-modular, but also checked against every smaller modulus power.
    assert_matches_oracle(elements, family_modulus(index) // 3**extra)


@given(
    st.sampled_from(sorted((e.index, e.side) for e in family_table() if e.index <= 2)),
    st.integers(0, 2),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_verification_matches_oracle_on_mutated_covers(family, shift, data):
    index, side = family
    cover = modularize(compose_system(family_set(index, side, shift), ell=index + 1))
    values = list(cover.elements)
    pos = data.draw(st.integers(0, len(values) - 1))
    action = data.draw(st.sampled_from(["keep", "drop", "move", "add"]))
    if action == "drop":
        del values[pos]
    elif action == "move":
        values[pos] += data.draw(st.sampled_from([1, 2, cover.modulus, 5 * 2**70]))
    elif action == "add":
        values.append(data.draw(st.integers(0, 3 * cover.modulus)))
    if len(set(values)) == len(values):
        assert_matches_oracle(values, cover.modulus)


def test_verification_is_exact_past_int64():
    big = 2**70
    for elements, modulus in (
        ([0, 2, 5, 6 + 9 * big], 9),
        ([0, 2, 5, 3 + 9 * big], 9),
        ([0, 1, big, 2 * big - 1], 3 * big + 1),
        ([0, 2, 5, 8], 2**62 + 1),
        ([0, 4, 10, 12], 2**64),
    ):
        assert_matches_oracle(elements, modulus)
    assert verify_near_modular([0, 2, 5, 6 + 9 * big], 9).verdict == "near-modular-only"


def test_large_cover_verification_memory():
    # 4096 elements modulo 3**12: the full |A| x |A| table would need
    # 128 MB in int64; the row blocks stay far below that.
    cover = plan_seed(plan_character(300002))
    assert len(cover.elements) == 4096
    tracemalloc.start()
    try:
        report = verify_modular(cover.elements, cover.modulus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.verdict == "modular"
    assert peak < 64 * 2**20
