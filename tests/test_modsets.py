"""Modular set verification, the family table, block expansion, search."""

import functools
import multiprocessing
import os
import time
import tracemalloc
from concurrent.futures import Future
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stanley import (
    BudgetExceededError,
    DuplicateSumError,
    NotModularError,
    NotRealizableError,
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

from stanley import basis, characters, core, modsets

from .naive import (
    naive_branch_search,
    naive_extension_ok,
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


# Modular sets whose modulus is not a power of 3: the first 4 or 8 terms
# of the greedy runs of (0, 1, 7), (0, 4, 7, 11) and (0, 2, 6, 8, 11),
# modular with respect to the next term, 10 or 29.
OTHER_BASES = [
    ((0, 1, 7, 8), 10),
    ((0, 4, 7, 11, 12, 16, 19, 23), 29),
    ((0, 2, 6, 8, 11, 13, 17, 19), 29),
]


def test_expand_modular_matches_greedy():
    for elements, modulus in [((0,), 1), ((0, 1), 3), ((0, 2, 5, 6), 9)] + OTHER_BASES:
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
    [(2, 2, 2), (64, 2, 2), (64, 8, 8), (10**9, 128, "jobs"), (3, 1, None),
     pytest.param(64, ("cpu_count", 8), 8, id="64-cpu_count_8-8"),
     pytest.param(3, ("cpu_count", None), None, id="3-cpu_count_None-None")],
)
def test_worker_count_is_clamped(monkeypatch, requested, cpus, expected):
    # No process starts: the pool runs in this process and records the
    # worker count it was asked for, and the CPU affinity is patched.
    # ("cpu_count", n): the platform has no CPU affinity and os.cpu_count()
    # returns n, where None counts as one CPU.
    sizes = []

    class FakePool:
        def __init__(self, max_workers, initializer=None, initargs=(), **options):
            sizes.append(max_workers)
            if initializer is not None:
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, job):
            future = Future()
            future.set_result(fn(job))
            return future

        def shutdown(self):
            pass

    if isinstance(cpus, tuple):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus[1])
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(modsets, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(modsets, "_pool_nodes", None)  # the in-process initializer sets it
    # Search: the first middle elements legal with 0 and 18.  Explore:
    # (head length, first entry) pairs.
    jobs = {"search": len(naive_search_prefixes(2, 18)[0]), "explore": 17}
    for name, run in (
        ("search", lambda: search_near_modular(2, 18, workers=requested)),
        ("explore", lambda: explore_basic_characters(2, 9, workers=requested)),
    ):
        sizes.clear()
        run()
        want = jobs[name] if expected == "jobs" else expected
        assert sizes == ([] if want is None else [want])


def test_pool_is_handed_a_bounded_number_of_jobs(monkeypatch):
    # No process starts.  The runner submits a lazy million jobs to the
    # pool no faster than it reads the results back, and each comes back
    # in job order.
    submitted = []

    class FakePool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, job):
            submitted.append(job)
            future = Future()
            future.set_result(fn(job))
            return future

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(modsets, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(modsets, "_pool_nodes", None)
    runner = modsets._branches(lambda job, counter: job, iter(range(10**6)), 10**6, 2)
    for want in range(300):
        assert next(runner) == want
        assert len(submitted) == want + 1 + 2 * modsets._AHEAD
    runner.close()
    assert len(submitted) == 300 + 2 * modsets._AHEAD


def test_search_first_only():
    all_sets = search_near_modular(1, 12)
    first = search_near_modular(1, 12, first_only=True)
    assert first == [min(all_sets, key=lambda s: s.elements)]
    # The first hit is the first of all sets, also with a pool requested
    # and when there is none.
    for ell, max_element in [(1, m) for m in range(3, 45)] + [(2, 18), (2, 30), (2, 33)]:
        first = search_near_modular(ell, max_element, first_only=True, workers=2)
        assert first == search_near_modular(ell, max_element)[:1], (ell, max_element)


def test_search_budget_enforced():
    with pytest.raises(BudgetExceededError):
        search_near_modular(2, 18, budget=50)


def test_prefix_split_stops_at_the_budget(monkeypatch):
    # The split counts its thousands of v1 candidates in one step, so a
    # budget of 5 raises before any element is admitted.
    admitted = []
    admit = modsets._admit

    def spy(state, y, steps):
        admitted.append(y)
        return admit(state, y, steps)

    monkeypatch.setattr(modsets, "_admit", spy)
    with pytest.raises(BudgetExceededError, match=r"\(5\)"):
        search_near_modular(1, 3000, budget=5)
    assert admitted == []
    # The spy sits on the step every admission takes.
    search_near_modular(1, 12)
    assert admitted


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_branch_search_matches_oracle(data):
    # Same sets and the same node count, branch by branch, as re-checking
    # every pair for every candidate, for every sharing interval.
    # At ell = 3 the masks span 2 * 81 bits, wider than a machine word.
    ell = data.draw(st.sampled_from([1, 2, 3]), label="ell")
    modulus, size = 3 ** (ell + 1), 2 ** (ell + 1)
    # A max_element that repeats 0's residue has no branch at all.
    max_element = data.draw(st.integers(size - 1, 30 if ell == 3 else 36).filter(
        lambda m: m % modulus), label="max_element")
    prefixes, _ = naive_search_prefixes(ell, max_element)
    prefix = data.draw(st.sampled_from(prefixes), label="prefix")
    first_only = data.draw(st.booleans(), label="first_only")
    spent = data.draw(st.integers(0, 100), label="spent")
    share = data.draw(st.sampled_from([1, 5, 1 << 14]), label="share")
    found, nodes = naive_branch_search(prefix, modulus, size, max_element, first_only)
    # The counter holds what was spent before the branch; the branch adds
    # its nodes, and one node less of budget raises.
    job = (prefix, modulus, size, max_element, spent + nodes, first_only)
    with mock.patch.object(modsets, "_SHARE_NODES", share):
        counter = multiprocessing.Value("q", spent)
        assert modsets._branch_search(job, counter) == found
        assert counter.value == spent + nodes
        counter.value = spent
        with pytest.raises(BudgetExceededError):
            modsets._branch_search(job[:4] + (spent + nodes - 1, first_only), counter)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_pruning_unfillable_slots_keeps_the_sets_and_never_adds_nodes(data):
    # A middle slot with fewer open values before max_element than slots
    # left returns at once: the oracle finds the same sets with and
    # without that rule, and never counts more nodes with it.
    ell = data.draw(st.sampled_from([1, 2, 3]), label="ell")
    modulus, size = 3 ** (ell + 1), 2 ** (ell + 1)
    max_element = data.draw(st.integers(size - 1, 30 if ell == 3 else 36).filter(
        lambda m: m % modulus), label="max_element")
    prefix = data.draw(st.sampled_from(naive_search_prefixes(ell, max_element)[0]), label="prefix")
    first_only = data.draw(st.booleans(), label="first_only")
    found, nodes = naive_branch_search(prefix, modulus, size, max_element, first_only)
    found_all, nodes_all = naive_branch_search(
        prefix, modulus, size, max_element, first_only, prune=False)
    assert found == found_all
    assert nodes <= nodes_all


def test_unfillable_slots_are_pruned_before_they_are_walked():
    # First-only ell = 3 at 35 has no set.  Walking every slot takes
    # 170,614 nodes; with unfillable slots pruned it takes 26,264.
    assert search_near_modular(3, 35, first_only=True, budget=60_000) == []


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_open_residues_match_the_pairwise_check(data):
    # N = 9 ... 729: the integer masks of a progression-free prefix leave
    # residue r open exactly when adding r keeps it progression-free.
    ell = data.draw(st.integers(1, 5), label="ell")
    modulus = 3 ** (ell + 1)
    prefix = []
    for value in data.draw(st.lists(st.integers(0, 3 * modulus), max_size=40), label="values"):
        if len(prefix) < 12 and naive_extension_ok(prefix, value, modulus):
            prefix.append(value)
    steps = modsets._residue_steps(modulus, modulus)
    open_ = modsets._open_residues(prefix, steps)[0]
    assert open_ >> modulus == 0
    assert [open_ >> r & 1 for r in range(modulus)] == [
        naive_extension_ok(prefix, r, modulus) for r in range(modulus)]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_open_residues_do_not_depend_on_the_admission_order(data):
    # The search admits max_element before the middle elements, so its
    # state must be that of the same set admitted in ascending order.
    ell = data.draw(st.integers(1, 5), label="ell")
    modulus = 3 ** (ell + 1)
    chosen = []
    for value in data.draw(st.lists(st.integers(0, 3 * modulus), max_size=40), label="values"):
        if len(chosen) < 12 and naive_extension_ok(chosen, value, modulus):
            chosen.append(value)
    order = data.draw(st.permutations(chosen), label="order")
    steps = modsets._residue_steps(modulus, modulus)
    assert modsets._open_residues(order, steps) == modsets._open_residues(sorted(chosen), steps)


@pytest.mark.parametrize("ell, max_element", [(1, 9), (1, 36), (2, 27), (3, 81)])
def test_search_ending_on_a_multiple_of_the_modulus_ends_at_the_split(
    monkeypatch, ell, max_element
):
    # max_element repeats 0's residue, so no set exists: the split counts
    # its v1 candidates and hands out no branch.
    prefixes, spent = naive_search_prefixes(ell, max_element)
    assert prefixes == []
    assert naive_search_nodes(ell, max_element) == spent
    monkeypatch.setattr(modsets, "_branch_search", mock.Mock(side_effect=AssertionError))
    assert search_near_modular(ell, max_element, budget=spent) == []
    assert search_near_modular(ell, max_element, budget=spent, first_only=True) == []
    with pytest.raises(BudgetExceededError, match=rf"\({spent - 1}\)"):
        search_near_modular(ell, max_element, budget=spent - 1)


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


@pytest.mark.parametrize(
    "ell, max_element", [(2, 18), (1, 12), (1, 3), (1, 4), (2, 7), (2, 30)]
)
def test_search_budget_threshold_is_exact(monkeypatch, ell, max_element):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    total = naive_search_nodes(ell, max_element)
    want = search_near_modular(ell, max_element)
    for workers in (1, 2):
        assert search_near_modular(ell, max_element, budget=total, workers=workers) == want
        # At (2, 7) the prune leaves only the split's one node, and a
        # budget of 0 is refused as input.
        below = (pytest.raises(BudgetExceededError, match=rf"\({total - 1}\)") if total > 1
                 else pytest.raises(ValueError, match="budget must be positive"))
        with below:
            search_near_modular(ell, max_element, budget=total - 1, workers=workers)


@pytest.mark.parametrize(
    "ell, max_element", [(1, 3), (1, 4), (1, 12), (1, 44), (2, 18), (2, 33), (3, 40)]
)
def test_first_only_budget_threshold_is_exact(ell, max_element):
    # A first-only search counts its nodes up to its hit and no further.
    total = naive_search_nodes(ell, max_element, first_only=True)
    search_near_modular(ell, max_element, budget=total, first_only=True)
    with pytest.raises(BudgetExceededError, match=rf"\({total - 1}\)"):
        search_near_modular(ell, max_element, budget=total - 1, first_only=True)


def test_serial_branches_share_one_budget(monkeypatch):
    # Every serial branch is handed the search's one counter, which holds
    # what the split and the earlier branches spent when it starts, and
    # no module global is set.
    seen = []
    branch = modsets._branch_search

    def spy(job, counter):
        seen.append((job[4], counter, counter.value))
        return branch(job, counter)

    monkeypatch.setattr(modsets, "_branch_search", spy)
    search_near_modular(2, 18, budget=10**6)
    prefixes, spent = naive_search_prefixes(2, 18)
    assert len(seen) == len(prefixes)
    assert len({id(counter) for _, counter, _ in seen}) == 1
    for (budget, _, value), prefix in zip(seen, prefixes):
        assert (budget, value) == (10**6, spent)
        spent += naive_branch_search(prefix, 27, 8, 18)[1]
    assert seen[0][1].value == spent
    assert modsets._pool_nodes is None


_BRANCH_LOG = ""  # file the pool branches below append to; fork workers inherit it
_SLOW_PREFIX = ()  # branches from this prefix on sleep before searching
_unlogged_branch = modsets._branch_search


def _logged_branch(job, counter):
    with open(_BRANCH_LOG, "a") as log:
        log.write(f"{job[4]},{counter is not None and counter is modsets._pool_nodes}\n")
    if job[0] >= _SLOW_PREFIX:
        time.sleep(1)
    return _unlogged_branch(job, counter)


def test_pool_search_cancels_branches_after_an_overrun(monkeypatch, tmp_path):
    # Each pool branch reports to the counter the initializer installed,
    # which starts at what the split spent; the budget leaves one node
    # more, so the first branch overruns at once.  The later branches are
    # slowed so that the overrun is read while they are in flight.  Only
    # the branches the pool has already handed out may still start: one
    # running per worker and the workers + 1 calls it keeps queued, not
    # all 29.
    prefixes, spent = naive_search_prefixes(2, 36)
    log = tmp_path / "branches"
    monkeypatch.setattr(f"{__name__}._BRANCH_LOG", str(log))
    monkeypatch.setattr(f"{__name__}._SLOW_PREFIX", prefixes[1])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(modsets, "_branch_search", _logged_branch)
    with pytest.raises(BudgetExceededError, match=rf"\({spent + 1}\)"):
        search_near_modular(2, 36, budget=spent + 1, workers=2)
    given = log.read_text().split()
    assert set(given) == {f"{spent + 1},True"}
    assert len(given) <= 1 + 2 + 3 < len(prefixes)
    assert modsets._pool_nodes is None


def test_pool_branches_stop_at_the_shared_budget(monkeypatch):
    # A pool branch reports to the installed counter.  It raises once what
    # it last read there plus its own nodes pass the budget, though its
    # own nodes alone would not, and adds its nodes before it raises.
    prefixes, spent = naive_search_prefixes(2, 36)
    prefix = prefixes[0]
    found, nodes = naive_branch_search(prefix, 27, 8, 36)
    job = (prefix, 27, 8, 36, spent + nodes, False)
    counter = multiprocessing.Value("q", spent)
    monkeypatch.setattr(modsets, "_pool_nodes", counter)
    assert modsets._pool_call(modsets._branch_search, job) == found
    assert counter.value == spent + nodes
    counter.value = spent + 1  # another branch has spent one node
    with pytest.raises(BudgetExceededError):
        modsets._pool_call(modsets._branch_search, job)
    assert counter.value == spent + 1 + nodes  # it overran on its last node
    # Another branch spends as much again while this one runs, after its
    # first share.  The branch reads that at its next share, every
    # _SHARE_NODES nodes, and stops within one more row of candidates.
    counter.value = spent
    admit = modsets._admit

    def busy_admit(state, y, steps):
        if spent < counter.value < spent + nodes:
            counter.value += nodes
        return admit(state, y, steps)

    monkeypatch.setattr(modsets, "_admit", busy_admit)
    monkeypatch.setattr(modsets, "_SHARE_NODES", 64)
    with pytest.raises(BudgetExceededError):
        modsets._pool_call(modsets._branch_search, job)
    assert spent + nodes < counter.value < spent + nodes + 64 + 2 * 36 < spent + 2 * nodes


def test_search_degenerate_bounds():
    assert search_near_modular(1, 2) == []
    with pytest.raises(ValueError):
        search_near_modular(0, 6)


def test_search_with_a_huge_ell_is_empty_at_once():
    # No 2**(ell+1) elements fit up to max_element, which is read from its
    # bit length: 3**(ell+1) alone would take over a minute at ell = 10**8.
    start = time.perf_counter()
    assert search_near_modular(10**8, 5) == []
    assert search_near_modular(10**8, 2**40) == []
    assert search_near_modular(5, 2**6 - 2) == []
    assert time.perf_counter() - start < 5


def test_last_slot_walks_a_wide_window_a_period_at_a_time():
    # Branch (0, 1) scans its last middle slot, [2, max_element), about
    # 10**6 values, before it raises.  Peeled one period of N = 9 at a
    # time, each candidate costs O(N) bits: under 0.5 s on a 2-core x86
    # host.  Peeling the slot's whole tiled mask costs O(width) bits per
    # candidate: 16 s there.
    max_element = 10**6 + 2  # residue 3 stays open with 0 and 1 chosen
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        search_near_modular(1, max_element, budget=max_element + 10)
    assert time.perf_counter() - start < 5


def test_split_hands_out_its_jobs_lazily(monkeypatch):
    # With the budget at the split's own count, the first branch raises at
    # its first share.  The split's 814,811 jobs, about 176 B each, are
    # made as they are handed out, not listed first.
    branch = modsets._branch_search
    started = []

    def spy(job, counter):
        started.append(job[0])
        return branch(job, counter)

    monkeypatch.setattr(modsets, "_branch_search", spy)
    max_element = 10**6
    split = max_element - 8 + 2  # v1 in [1, max_element - 5], size 8
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match=rf"\({split}\)"):
            search_near_modular(2, max_element, budget=split)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    first = next(v1 for v1 in range(1, split) if naive_extension_ok([0, max_element], v1, 27))
    assert started == [(0, first)]
    assert peak < 8 << 20


def test_search_results_are_verified_sets():
    for s in search_near_modular(1, 12):
        assert verify_near_modular(s.elements, s.modulus).ok
        assert s.elements[0] == 0 and s.elements[-1] == 12


# ---------------------------------------------------------------------------
# The row-block kernel against the brute-force oracle.


@contextmanager
def kernel_layout(block_cells):
    # Shrink the row blocks, and with them the largest residue bitmap, so
    # that small sets run through several blocks and both layouts.
    with mock.patch.object(core, "_BLOCK_CELLS", block_cells):
        yield


LAYOUTS = [1 << 19, 1, 7, 40]

# The most entries a residue bitmap may hold in the default layout.
BITMAP_CAP = core._BITMAP_BLOCKS * 8 * core._BLOCK_CELLS


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
    cover = modularize(compose_system(family_set(index, side, shift)))
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


@given(st.sets(st.integers(1, 3**14), max_size=6), st.integers(3 * 7**2 + 1, (8 << 19) // 3))
@settings(max_examples=60, deadline=None)
def test_verification_matches_oracle_where_search_meets_a_small_modulus(elements, modulus):
    # 3N fits the default bitmap cap but exceeds 9|A|**2, so the default
    # layout looks residues up by binary search and reduces covering cells
    # mod N, where a lifted 3N cover bitmap once served.
    elements = sorted({0, *elements})
    assert 3 * modulus <= BITMAP_CAP and modulus > 3 * len(elements) ** 2
    assert_matches_oracle(elements, modulus)


def test_searched_lookup_allocates_no_lifted_cover():
    # Ten covering pairs reach at most ten residues: the cover bitmap holds
    # 11 entries, not 3 * 3**12 = 1.6 MB.
    tracemalloc.start()
    try:
        report = verify_near_modular([0, 1, 3, 4], 3**12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.violation == modsets.ModSetViolation("uncovered-residue", (9,))
    assert peak < 64 * 2**10


# Cells are lifted to [0, 3N) in int64 while 3N < 2**63 and in Python ints
# past that; these moduli lie on both sides of the switch, and 2**62 - 1
# would overflow a lifted int64 cell.
EDGE_MODULI = [2**61 + 1, 3 * 2**59, 2**62 - 1, (2**63 - 1) // 3, (2**63 - 1) // 3 + 1]


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
    for modulus in EDGE_MODULI:
        for elements in (
            [0, 1, 3, 9 + modulus],  # no mod-AP: the smallest gap, 4, is found
            [0, 1, modulus - 1],  # 2*0 - 1 wraps to modulus - 1
            [0, modulus - 2, 2 * modulus - 1],  # 2y - z lifts to 3N - 2
            [0, 2, 5, modulus - 2, modulus + 4, 2 * modulus + 7],
            [0, 3, modulus + 1, 2 * modulus - 2, 3 * modulus + 5],
        ):
            assert_matches_oracle(elements, modulus)


def test_verification_reduces_covering_cells_past_the_lifted_bitmap():
    # 3N is past the lifted bitmap in every layout, so covering cells are
    # reduced mod N; a few elements leave residues above P uncovered.
    modulus = 3**16
    assert 3 * modulus > BITMAP_CAP
    for elements in (
        [0, 1, 3, 9 + modulus],
        [0, 1, 3, 9, 27 + 2 * modulus, 81],
        [0, 2, 5, modulus - 2, modulus + 4],
    ):
        assert_matches_oracle(elements, modulus)
    report = verify_near_modular([0, 1, 3, 9 + modulus], modulus)
    assert report.violation == modsets.ModSetViolation("uncovered-residue", (4,))


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


def cover_structure(sys_):
    # A composed system's cover as the certificate reads it: A, the level
    # steps b_0, ..., b_{n0-1}, and their sorted sums.
    steps = [sys_.basis.element(k) for k in range(sys_.n0)]
    return list(sys_.a_set), steps, basis._expand(sys_.a_set, steps, (), None, None)


@functools.lru_cache(maxsize=1)
def planner_systems():
    systems = []
    for lam in range(0, 4001, 2):
        try:
            systems.append(plan_character(lam).system)
        except NotRealizableError as exc:
            assert exc.reason == "residue-244"
    return systems


def test_certificate_accepts_every_planner_cover():
    # Every even target to 4000 outside the class 244 mod 486; the pair
    # oracle runs on every cover of at most 64 elements and on a stride of
    # the larger ones (up to 256), the exact table check on all.
    systems = planner_systems()
    assert len(systems) == 1993
    for i, sys_ in enumerate(systems):
        a_set, steps, values = cover_structure(sys_)
        assert modsets._cover_certificate(a_set, steps, sys_.modulus) == tuple(values), sys_
        assert modsets._first_violation(values, sys_.modulus) is None
        if len(values) <= 64 or i % 64 == 0:
            assert naive_first_violation(values, sys_.modulus) is None


def test_certificate_accepts_every_family_recipe_to_shift_20():
    sizes = set()
    for index in modsets.FAMILY_INDICES:
        for side in ("A", "B"):
            for shift in range(21):
                sys_ = compose_system(family_set(index, side, shift))
                a_set, steps, values = cover_structure(sys_)
                assert modsets._cover_certificate(a_set, steps, sys_.modulus) == tuple(values)
                assert modsets._first_violation(values, sys_.modulus) is None
                if len(values) <= 128:
                    assert naive_first_violation(values, sys_.modulus) is None
                sizes.add(len(values))
    assert max(sizes) == 512


def mutations(a_set, steps, powers):
    # Structures one edit away: a step moved by +-1 or +-3**j for j up to
    # powers, or doubled; or an element of A moved by the same amounts.
    moves = [1, -1] + [s * 3**j for j in range(1, powers + 1) for s in (1, -1)]
    for k, b in enumerate(steps):
        for new in [b + m for m in moves] + [2 * b]:
            yield a_set, steps[:k] + [new] + steps[k + 1 :]
    for i, a in enumerate(a_set):
        for m in moves:
            yield a_set[:i] + [a + m] + a_set[i + 1 :], steps


def certificate_is_sound(a_set, steps, modulus):
    # Whether the certificate accepted the structure; what it accepts must
    # be the structure's sums and a modular set.  A structure whose sums
    # collide must be refused, and gives None.
    cover = modsets._cover_certificate(a_set, steps, modulus)
    try:
        values = basis._expand(a_set, steps, (), None, None)
    except DuplicateSumError:
        assert cover is None, (a_set, steps)
        return None
    if cover is not None:
        assert cover == tuple(values), (a_set, steps)
        assert modsets._first_violation(values, modulus) is None, (a_set, steps)
        assert verify_modular(values, modulus).verdict == "modular", (a_set, steps)
    return cover is not None


MUTATION_BASES = {
    "A1": lambda: compose_system(family_set(1, "A")),
    "B2": lambda: compose_system(family_set(2, "B", 3)),
    "A3": lambda: compose_system(family_set(3, "A", 1)),
    "lambda-40": lambda: plan_character(40).system,
    "lambda-1540": lambda: plan_character(1540).system,
    "lambda-3000": lambda: plan_character(3000).system,
}
on_each_base = pytest.mark.parametrize("build", list(MUTATION_BASES.values()), ids=list(MUTATION_BASES))


@on_each_base
def test_certificate_is_never_wrong_on_any_single_edit(build):
    sys_ = build()
    a_set, steps, _ = cover_structure(sys_)
    edits = mutations(a_set, steps, basis._v3(sys_.modulus))
    verdicts = [certificate_is_sound(a, s, sys_.modulus) for a, s in edits]
    # Both answers occur, so the soundness checks above are not vacuous.
    assert verdicts.count(True) > 0 and verdicts.count(False) > 0


@given(st.sampled_from(list(MUTATION_BASES.values())), st.data())
@settings(max_examples=100, deadline=None)
def test_certificate_is_never_wrong_on_repeated_edits(build, data):
    sys_ = build()
    a_set, steps, _ = cover_structure(sys_)
    for _ in range(data.draw(st.integers(2, 4))):
        edits = list(mutations(a_set, steps, basis._v3(sys_.modulus)))
        a_set, steps = edits[data.draw(st.integers(0, len(edits) - 1))]
    certificate_is_sound(a_set, steps, sys_.modulus)


@on_each_base
def test_certificate_refuses_values_that_are_not_its_sums(build):
    # The certificate returns no values but the sums it built: the cover it
    # proves is the merge kernel's, sorted, on the base and on every single
    # edit that it accepts.
    sys_ = build()
    a_set, steps, values = cover_structure(sys_)
    cover = modsets._cover_certificate(a_set, steps, sys_.modulus)
    assert cover == tuple(values)
    assert all(type(v) is int for v in cover)
    accepted = 0
    for a, s in mutations(a_set, steps, basis._v3(sys_.modulus)):
        cover = modsets._cover_certificate(a, s, sys_.modulus)
        if cover is not None:
            assert cover == tuple(basis._expand(a, s, (), None, None)), (a, s)
            accepted += 1
    assert accepted > 0


@pytest.mark.parametrize("base, unit", OTHER_BASES)
@pytest.mark.parametrize("heads", [[], [1], [2], [1, 3]], ids=["none", "N0", "2N0", "N0-3N0"])
def test_certificate_proves_covers_over_other_base_moduli(base, unit, heads):
    # A base set L, modular with respect to N0 = unit, under heads b_k that
    # are N0 * 3**k times a unit mod 3: the cover is modular with respect to
    # N0 * 3**len(heads), and tiles its own greedy run.
    steps = [h * unit for h in heads]
    modulus = unit * 3 ** len(heads)
    cover = modsets._cover_certificate(list(base), steps, modulus)
    assert cover == tuple(basis._expand(base, steps, (), None, None))
    assert naive_first_violation(cover, modulus) is None
    assert list(generate(cover, count=1024).terms) == expand_modular(cover, modulus, count=1024)


def test_certificate_refuses_a_cover_past_its_modulus():
    # Heads 40 and 60 over (0, 1, 7, 8) reach 8 + 40 + 60 = 108 >= 90.
    assert modsets._cover_certificate([0, 1, 7, 8], [40, 60], 90) is None


def test_certificate_memory_is_a_few_bytes_per_residue():
    # 4096 elements modulo 3**12: five N-byte maps, where the table check
    # peaks near 12 MB.
    a_set, steps, values = cover_structure(plan_character(300002).system)
    modulus = 3**12
    assert len(values) == 4096
    tracemalloc.start()
    try:
        cover = modsets._cover_certificate(a_set, steps, modulus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cover == tuple(values)
    assert peak < 6 * modulus
