"""Greedy generator against the quadratic oracle and the closed form."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stanley import (
    APWitness,
    Basis,
    InvalidSeedError,
    NotRepresentableError,
    OverflowLimitError,
    analyze_independence,
    character_at,
    compose_system,
    decompose,
    expand_basis,
    expand_modular,
    explore_basic_characters,
    family_modulus,
    family_set,
    generate,
    growth_stats,
    has_3ap,
    is_admissible,
    minimal_generating_prefix,
    plan_character,
    residue_coverage,
    search_near_modular,
    validate_seed,
    verify_modular,
    verify_near_modular,
    verify_plan,
    zero_sequence_value,
)

from stanley import core
from stanley.basis import COVER_CAP

from .naive import naive_first_3ap, naive_is_3ap_free, naive_marks, naive_stanley


# strictly increasing AP-free seeds starting at 0, built incrementally so
# hypothesis can shrink them
@st.composite
def ap_free_seeds(draw, max_extra=4, max_step=12):
    seed = [0]
    for _ in range(draw(st.integers(0, max_extra))):
        step = draw(st.integers(1, max_step))
        candidate = seed[-1] + step
        while any(
            2 * y - candidate in seed and 2 * y - candidate != y for y in seed
        ):
            candidate += 1
        seed.append(candidate)
    return tuple(seed)


KNOWN_PREFIXES = {
    (0,): [0, 1, 3, 4, 9, 10, 12, 13, 27, 28],
    (0, 4): [0, 4, 5, 7, 11],
    (0, 1, 7): [0, 1, 7, 8, 10, 11, 17, 18, 30, 31],
    (0, 2, 5, 6): [0, 2, 5, 6, 9, 11, 14, 15, 27, 29],
}


@pytest.mark.parametrize("seed,prefix", sorted(KNOWN_PREFIXES.items()))
def test_known_prefixes(seed, prefix):
    assert list(generate(seed, count=len(prefix)).terms) == prefix


def test_zero_seed_closed_form():
    seq = generate([0], count=256)
    assert list(seq.terms) == [zero_sequence_value(n) for n in range(256)]


@given(ap_free_seeds(), st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_matches_naive_oracle(seed, extra):
    count = len(seed) + extra
    got = list(generate(seed, count=count).terms)
    assert got == naive_stanley(seed, count)


@given(ap_free_seeds(), st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_output_is_3ap_free_and_increasing(seed, extra):
    terms = generate(seed, count=len(seed) + extra).terms
    assert all(a < b for a, b in zip(terms, terms[1:]))
    assert naive_is_3ap_free(terms)


@given(ap_free_seeds(), st.integers(1, 50))
@settings(max_examples=40, deadline=None)
def test_greedy_minimality(seed, extra):
    # every skipped integer must complete a progression with earlier terms
    terms = generate(seed, count=len(seed) + extra).terms
    chosen = list(terms[: len(seed)])
    for t in terms[len(seed) :]:
        for skipped in range(chosen[-1] + 1, t):
            assert not is_admissible(chosen, skipped)
        assert is_admissible(chosen, t)
        chosen.append(t)


def test_count_and_limit_bounds():
    by_count = generate([0], count=20)
    assert len(by_count) == 20
    limit = by_count.terms[-1]
    by_limit = generate([0], limit=limit)
    assert by_limit.terms == by_count.terms
    # limit that falls between terms keeps everything below it
    assert generate([0], limit=limit - 1).terms == by_count.terms[:-1]
    # both bounds: whichever cuts first
    assert len(generate([0], count=5, limit=limit)) == 5
    assert generate([0], count=10**6, limit=4).terms == (0, 1, 3, 4)


def test_limit_below_next_term_returns_seed():
    assert generate([0, 4], limit=4).terms == (0, 4)


def test_count_equal_to_seed_returns_seed():
    assert generate([0, 1, 7], count=3).terms == (0, 1, 7)


@given(ap_free_seeds(), st.integers(0, 120), st.sampled_from([core._WINDOW, 1, 7, 45]), st.data())
@settings(max_examples=150, deadline=None)
def test_greedy_run_check_matches_the_naive_oracle_and_extend(seed, extra, window, data):
    # The check accepts every true run.  With one term past the seed moved,
    # dropped or inserted, it answers as regenerating the run with _extend
    # does.  Small window caps make a run cross several windows.
    run = naive_stanley(seed, len(seed) + extra)
    with mock.patch.object(core, "_WINDOW", window):
        assert core._greedy_run(seed, run)
        if not extra:
            return
        mutated = list(run)
        i = data.draw(st.integers(len(seed), len(run) - 1), label="index")
        kind = data.draw(st.sampled_from(["move", "drop", "insert"]), label="kind")
        if kind != "insert":
            del mutated[i]
        if kind != "drop":
            mutated.append(data.draw(st.integers(seed[-1] + 1, run[-1] + 3), label="value"))
            mutated.sort()
        want = core._extend(seed, len(mutated), None).terms == tuple(mutated)
        assert core._greedy_run(seed, mutated) == want


@pytest.mark.parametrize("seed, run, want", [
    ((0, 1), (0, 1), True),
    ((0, 1), (0, 3, 4), False),
    ((0, 1), (0, 1, 4), False),
    ((0, 1), (0, 1, 3, 3), False),
    ((0, 1), (0, 1, 4, 3), False),
    # Unsorted, the terms of the one window up to 5 would pass.
    ((0,), (0, 1, 3, 4, 9, 10, 12, 13, 5), False),
    # Above the seed's max the run looks greedy; only its prefix differs.
    ((0, 4), (0, 1, 5), False),
    ((0,), (0, 1, 2**70), False),
], ids=["seed_only", "other_prefix", "skips_a_free_value", "repeat", "decreasing",
        "unsorted_tail", "seed_differs_below_its_max", "past_int64"])
def test_greedy_run_check_edges(seed, run, want):
    assert core._greedy_run(seed, run) is want
    if run[-1] < 2**62:  # verify_plan hands the check an int64 array
        assert core._greedy_run(seed, np.array(run, dtype=np.int64)) is want


@pytest.mark.parametrize("seed, count", [((0, 2**61 - 3), 4), ((0, 2**61 + 7), 3),
                                         ((0, 2**62 - 5), 3)])
def test_greedy_run_check_raises_past_the_sieve_range_as_extend_does(seed, count):
    # A true run that reaches past the int64 range of the sieve's marks.
    run = naive_stanley(seed, count)
    with pytest.raises(OverflowLimitError) as want:
        core._extend(seed, count, None)
    with pytest.raises(OverflowLimitError) as got:
        core._greedy_run(seed, run)
    assert str(got.value) == str(want.value)


def test_greedy_run_check_memory_stays_near_one_window():
    run = generate((0, 1, 13), count=2**14).terms
    assert run[-1] > 2 * core._WINDOW  # so the check slides
    core._greedy_run((0, 1, 13), run[:64])
    tracemalloc.start()
    try:
        assert core._greedy_run((0, 1, 13), run)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


@pytest.mark.parametrize("window", [1, 16, 45])
def test_window_slides_keep_marks(monkeypatch, window):
    # A tiny window slides many times.  Each slide clears it and marks every
    # pair landing in it, so a lost or misplaced mark shows up as a wrong
    # term.  Seeds reaching past the first window have their own marks cut
    # at its top as well.
    calls = []
    real_mark_pairs = core._mark_pairs

    def spy(sieve, terms, top, pad):
        calls.append(top)
        return real_mark_pairs(sieve, terms, top, pad)

    monkeypatch.setattr(core, "_WINDOW", window)
    monkeypatch.setattr(core, "_mark_pairs", spy)
    seeds = ([0], [0, 4], [0, 1, 7], [0, 7, 11], [0, 1, 13], [0, 13, 14],
             [0, 3, 5, 15], [0, 9, 11, 17])
    for seed in seeds:
        want = naive_stanley(seed, 200)
        # Limit mode first: it stops at the limit even if marks go stale.
        assert list(generate(seed, limit=want[-1]).terms) == want
        calls.clear()
        assert list(generate(seed, count=200).terms) == want
        assert len(calls) >= 3  # the first window and at least two slides


@given(ap_free_seeds(), st.integers(0, 400), st.sampled_from([core._WINDOW, 1, 7, 45]))
@settings(max_examples=100, deadline=None)
def test_limit_mode_matches_naive_oracle(seed, headroom, window):
    # The window's top is limit + 1 or below, so every term above half the
    # top (and the seed, when it reaches that far) cuts the low end of its
    # slice; tiny windows slide as well.
    limit = seed[-1] + headroom
    with mock.patch.object(core, "_WINDOW", window):
        got = list(generate(seed, limit=limit).terms)
    assert got == [t for t in naive_stanley(seed, len(got) + 1) if t <= limit]


@given(ap_free_seeds(), st.integers(0, 150), st.sampled_from([core._WINDOW, 1, 7, 45]))
@settings(max_examples=100, deadline=None)
def test_count_mode_matches_naive_oracle(seed, extra, window):
    # Windows of a count run are sized from the run's last terms; tiny
    # caps make every one of them slide.
    count = len(seed) + extra
    with mock.patch.object(core, "_WINDOW", window):
        got = list(generate(seed, count=count).terms)
    assert got == naive_stanley(seed, count)


def _window_marks(terms, base, size, pad):
    # The window [base, base + size) as _mark_pairs fills it, read back in
    # value order; the pad below the window must stay untouched.
    sieve = np.zeros(pad + size, dtype=bool)
    arr = np.array(terms, dtype=np.int64)
    core._mark_pairs(sieve, arr, base + size, pad)
    assert not sieve[:pad].any()
    return sieve[pad:][::-1].tolist()


_STEPS = st.lists(st.integers(1, 40), max_size=60).map(lambda steps: np.cumsum([0] + steps).tolist())


@given(
    _STEPS,
    st.integers(0, 2500),
    st.integers(0, 2500),
    st.sampled_from([0, core._SHORT_SLICE, 10**9]),
    st.sampled_from([1, 5, core._FILL_CHUNK]),
    st.sampled_from([0, 1, 64, 4096]),
)
@example(list(range(1500)), 1500, 1500, core._SHORT_SLICE, core._FILL_CHUNK, 1500)
@settings(max_examples=200, deadline=None)
def test_mark_pairs_matches_naive_marks(terms, base, size, short, chunk, pad):
    # A short-slice threshold of 0 scatters every slice alone, one above
    # every slice gathers them all, and the default mixes both in the
    # example of 1,500 consecutive terms.  Chunks of 1 and 5 marks put one
    # slice or a few in each gathered scatter.  Pads of 0 and 1 put each
    # row in a group of its own; 4096 puts every row of these terms in one.
    with mock.patch.object(core, "_SHORT_SLICE", short), \
            mock.patch.object(core, "_FILL_CHUNK", chunk):
        assert _window_marks(terms, base, size, pad) == naive_marks(terms, base, size)


@given(_STEPS, st.integers(0, 2500), st.integers(0, 2500), st.sampled_from(["rows", "window"]))
@settings(max_examples=150, deadline=None)
def test_mark_pairs_groups_match_naive_marks(terms, base, size, grouping):
    # The two extreme groupings, forced with every slice scattered through
    # its own view: a group spread of 0, one row per group, and a pad of
    # twice the largest row, which makes the whole window one group.
    pad = 1 if grouping == "rows" else 2 * terms[-1] + 2
    with mock.patch.object(core, "_SHORT_SLICE", 0):
        assert _window_marks(terms, base, size, pad) == naive_marks(terms, base, size)


@pytest.mark.parametrize("window", [2, 3, 4, 8])
@pytest.mark.parametrize("seed", [(0,), (0, 1, 13), (0, 3, 5, 15)])
def test_greedy_run_check_catches_every_edit_at_group_and_window_edges(window, seed):
    # Tiny windows put a window edge every few values and, with every slice
    # scattered through its own view, a group edge every window // 2 rows'
    # worth of values; every term of the run sits at or next to one.  Each
    # term dropped, moved by one either way or followed by an extra value
    # must be refused, and the true run accepted.
    run = naive_stanley(seed, 28)
    with mock.patch.object(core, "_WINDOW", window), mock.patch.object(core, "_SHORT_SLICE", 0):
        assert core._greedy_run(seed, run)
        for i in range(len(seed), len(run)):
            edits = [run[:i] + run[i + 1:], run[:i] + [run[i] - 1] + run[i + 1:],
                     run[:i] + [run[i] + 1] + run[i + 1:], run[:i + 1] + [run[i] + 1] + run[i + 1:]]
            for edited in edits:
                want = edited == naive_stanley(seed, len(edited))
                assert core._greedy_run(seed, edited) is want, (i, edited)


@pytest.mark.parametrize("seed", [(0, 3, 4), (0, 1, 3, 4, 10)])
def test_last_window_ends_near_the_last_term(monkeypatch, seed):
    # Marks past the last term are never read: a count run sizes its
    # windows from its own terms instead of one up-front growth guess,
    # which put the last window's top at 4x the last term.
    tops = []
    real_mark_pairs = core._mark_pairs

    def spy(sieve, terms, top, pad):
        tops.append(top)
        return real_mark_pairs(sieve, terms, top, pad)

    monkeypatch.setattr(core, "_mark_pairs", spy)
    terms = generate(seed, count=4096).terms
    assert tops[-1] <= 1.5 * terms[-1]


def test_count_run_memory_stays_near_one_window():
    generate((0, 1, 13), count=64)
    tracemalloc.start()
    try:
        generate((0, 1, 13), count=2**14)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


def test_generate_requires_some_bound():
    with pytest.raises(ValueError):
        generate([0])
    with pytest.raises(ValueError):
        generate([0], count=0)
    with pytest.raises(ValueError):
        generate([0, 4], limit=2)


def test_seed_validation_errors():
    with pytest.raises(InvalidSeedError):
        validate_seed([])
    with pytest.raises(InvalidSeedError):
        validate_seed([1, 2])  # no zero
    with pytest.raises(InvalidSeedError):
        validate_seed([0, 3, 3])
    with pytest.raises(InvalidSeedError):
        validate_seed([0, -3])
    with pytest.raises(InvalidSeedError):
        validate_seed([0, True])
    with pytest.raises(InvalidSeedError):
        validate_seed([0, 1.5])
    err = None
    try:
        validate_seed([0, 1, 2])
    except InvalidSeedError as e:
        err = e
    assert err is not None and err.witness == APWitness(0, 1, 2)


@pytest.mark.parametrize("bad", [2.9, True, "5"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("call", [
    lambda v: has_3ap([0, v, 3]),
    lambda v: verify_modular([0, v, 5, 6], 9),
    lambda v: verify_near_modular([0, v, 5, 6], 9),
    lambda v: compose_system([0, v, 5, 6]),
    lambda v: expand_modular([0, v, 5, 6], 9, count=8),
    lambda v: minimal_generating_prefix([0, v, 5, 6]),
    lambda v: character_at([0, v, 5, 6, 9], 1),
], ids=["has_3ap", "verify_modular", "verify_near_modular", "compose_system", "expand_modular",
        "minimal_generating_prefix", "character_at"])
def test_entry_points_refuse_non_integers(call, bad):
    # int() once truncated 2.9 to 2, so (0, 2.9, 5, 6) passed as modular
    # mod 9 and (0, 1.5, 3) as free of progressions.
    with pytest.raises(ValueError, match="must be plain integers"):
        call(bad)
    call(np.int64(2))  # numpy integers are integers


_SYSTEM = compose_system(family_set(1, "A", 1))


@pytest.mark.parametrize("bad", [1.5, True, "5"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("call, good", [
    (lambda v: expand_basis(Basis((v, 3)), count=4), 1),
    (lambda v: Basis((1, 3), v), 27),
    (lambda v: family_set(1, "A", v), 2),
    (lambda v: family_set(v, "A", 0), 2),
    (lambda v: family_modulus(v), 2),
    (lambda v: plan_character(v), 40),
    (lambda v: decompose(v, _SYSTEM), 2),
    (lambda v: zero_sequence_value(v), 2),
    (lambda v: search_near_modular(v, 6), 2),
    (lambda v: search_near_modular(1, v), 2),
    (lambda v: residue_coverage(v), 486),
    (lambda v: is_admissible([0, 1], v), 3),
], ids=["basis_head", "basis_shift", "family_shift", "family_index", "family_modulus",
        "plan_character", "decompose", "zero_sequence_value", "search_ell",
        "search_max_element", "residue_coverage", "is_admissible"])
def test_single_integer_arguments_refuse_non_integers(call, good, bad):
    # Each of these once took 1.5 (family_set(1, "A", 1.5) gave a last
    # element 19.5) or failed with a TypeError deep inside.
    with pytest.raises(ValueError, match="must be (a )?plain integers?$"):
        call(bad)
    call(np.int64(good))  # numpy integers are integers


@pytest.mark.parametrize("call, error, message", [
    (lambda: decompose(6, _SYSTEM), NotRepresentableError, "6 lies below set element 15"),
    (lambda: decompose(20, _SYSTEM), NotRepresentableError, "20 is not a member value"),
    (lambda: Basis((1,), 0), ValueError, "tail_start must be positive"),
    (lambda: validate_seed((0, 2**62)), OverflowLimitError,
     f"seed element {2**62} exceeds value cap"),
    (lambda: minimal_generating_prefix((1, 2)), ValueError, "sequence must start at 0"),
    (lambda: minimal_generating_prefix((0, 1, 3, 2**62)), OverflowLimitError,
     f"seed element {2**62} exceeds value cap"),
    # No prefix regenerates these, the full sequence included.
    (lambda: minimal_generating_prefix((0, 1, 2)), InvalidSeedError,
     r"seed contains the arithmetic progression \(0, 1, 2\)"),
    (lambda: minimal_generating_prefix((0, 2, 1)), InvalidSeedError,
     r"seed contains the arithmetic progression \(0, 1, 2\)"),
    (lambda: minimal_generating_prefix((0, 1, 1)), InvalidSeedError,
     "seed contains duplicate elements"),
    (lambda: minimal_generating_prefix((0, 1, 3, 4, 5)), InvalidSeedError,
     r"seed contains the arithmetic progression \(1, 3, 5\)"),
    (lambda: minimal_generating_prefix((0, 3, 1)), ValueError, "sequence must be increasing"),
    (lambda: verify_modular((0, 1, 1), 9), ValueError, "elements must be distinct"),
    (lambda: verify_modular((0,), 0), ValueError, "modulus must be positive"),
    (lambda: zero_sequence_value(-1), ValueError, "index must be nonnegative"),
    (lambda: family_modulus(9), ValueError, r"family index must be one of \(1, 2, 3, 4\)"),
    (lambda: search_near_modular(1, 6, budget=0), ValueError, "budget must be positive"),
    (lambda: search_near_modular(1, 6, workers=0), ValueError, "workers must be positive"),
    (lambda: explore_basic_characters(2, 4, workers=0), ValueError, "workers must be positive"),
    (lambda: search_near_modular(0, 6), ValueError, "ell must be positive"),
    # A negative bound once indexed an empty residue table (IndexError).
    (lambda: search_near_modular(1, -5), ValueError, "max_element must be nonnegative"),
    (lambda: search_near_modular(1, -100), ValueError, "max_element must be nonnegative"),
    (lambda: search_near_modular(1, -1), ValueError, "max_element must be nonnegative"),
    (lambda: analyze_independence([0, 1, 3, 4], 0), ValueError, "max_depth must be positive"),
    (lambda: character_at([0, 1], -1), ValueError, "depth must be nonnegative"),
    (lambda: growth_stats([0, 1], 0), ValueError, "sample_spacing must be positive"),
    (lambda: Basis((1,)).element(-1), ValueError, "index must be nonnegative"),
    (lambda: Basis((0, 3)), ValueError, "head entries must be positive"),
    (lambda: verify_modular((-1, 0), 9), ValueError, "elements must be nonnegative"),
    (lambda: explore_basic_characters(0, 4), ValueError, "head_length must be positive"),
    (lambda: explore_basic_characters(2, 0), ValueError, "max_entry must be positive"),
    (lambda: explore_basic_characters(2, 4, budget=-1), ValueError, "budget must be positive"),
    (lambda: explore_basic_characters(1, 1, budget=0), ValueError, "budget must be positive"),
    (lambda: verify_plan(plan_character(40), 0), ValueError, "depth must be positive"),
    (lambda: generate([0]), ValueError, "need a count bound or a value limit"),
], ids=["decompose_below", "decompose_nonmember", "basis_shift", "seed_cap", "prefix_zero", "prefix_cap",
        "prefix_progression", "prefix_unsorted_progression", "prefix_repeat",
        "prefix_late_progression", "prefix_order",
        "modular_distinct", "modular_modulus", "zero_index", "family_index", "search_budget",
        "search_workers", "explore_workers", "search_ell", "search_max_minus_5",
        "search_max_minus_100", "search_max_minus_1", "analysis_depth", "character_depth",
        "growth_spacing", "basis_index", "basis_head", "modular_negative", "explore_length",
        "explore_entry", "explore_budget", "explore_budget_zero", "plan_depth", "generate_bounds"])
def test_argument_errors(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_validate_seed_sorts():
    assert validate_seed([7, 0, 1]) == (0, 1, 7)


def test_has_3ap_witness():
    w = has_3ap([0, 5, 10, 11])
    assert w is not None and w.x + w.z == 2 * w.y
    assert has_3ap([0, 1, 3, 4]) is None


def _witness_tuple(elements):
    w = has_3ap(elements)
    return None if w is None else (w.x, w.y, w.z)


_INT64 = 2**63
_value_lists = st.one_of(
    st.lists(st.integers(-60, 60), max_size=14),
    st.lists(st.integers(_INT64 - 40, _INT64 + 40), max_size=14),
    st.lists(st.integers(-(2**70), 2**70), max_size=8),
    st.lists(st.sampled_from([-(2**64), -7, 0, 3, _INT64, _INT64 + 3, 2**65]), max_size=8),
)


@given(_value_lists)
@settings(max_examples=300, deadline=None)
def test_has_3ap_witness_matches_pair_loop(values):
    # Duplicates, negative values and values past int64 included; small
    # row blocks force several blocks per call and the binary-search path.
    want = naive_first_3ap(values)
    assert _witness_tuple(values) == want
    for block_cells in (1, 5, 30):
        with mock.patch.object(core, "_BLOCK_CELLS", block_cells):
            assert _witness_tuple(values) == want


@given(
    st.one_of(
        st.sets(st.integers(0, 3000), min_size=40, max_size=120),
        # 3-AP-free greedy prefixes, with at most one extra value planted
        st.builds(
            lambda n, extra: set(generate((0,), count=n).terms) | extra,
            st.integers(40, 200),
            st.sets(st.integers(0, 5000), max_size=1),
        ),
    )
)
@settings(max_examples=60, deadline=None)
def test_has_3ap_witness_matches_pair_loop_on_larger_sets(values):
    want = naive_first_3ap(values)
    with mock.patch.object(core, "_BLOCK_CELLS", 256):
        assert _witness_tuple(values) == want
    assert _witness_tuple(values) == want


@given(st.sets(st.integers(0, 200), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_member_mask_paths_agree(members):
    # Default blocks take the 201-entry bitmap once there are 15 members;
    # one-cell blocks, or fewer members, take binary search.
    arr = np.array(sorted(members), dtype=np.int64)
    queries = np.arange(201, dtype=np.int64).reshape(3, 67)
    want = np.isin(queries, arr)
    for block_cells in (1, 1 << 19):
        with mock.patch.object(core, "_BLOCK_CELLS", block_cells):
            member, bitmap, rows = core._member_mask(arr, 201, 67)
            assert (member(queries) == want).all()
            assert bitmap == (block_cells > 1 and len(members) >= 15)
            assert rows == min(67, max(1, block_cells // 67))
    # Bounds past int64 take object arrays of Python ints.
    member, bitmap, _ = core._member_mask(arr.astype(object), 2**64, 67)
    assert (member(queries.astype(object)) == want).all() and not bitmap


def test_bitmap_serves_the_largest_cover_under_the_cap():
    # A cover of COVER_CAP = 2**15 elements modulo N = 3**15 tiles 3 * 2**15
    # residues over [0, 3N): its modular check looks them up in a 3**16-byte
    # bitmap, not by binary search, which once took 94% of verify_plan.
    members = np.arange(3 * COVER_CAP, dtype=np.int64)
    _, bitmap, _ = core._member_mask(members, 3**16, COVER_CAP)
    assert bitmap


def test_has_3ap_memory_follows_set_size_not_span():
    # Three values over a span of 2**22: no bitmap over the whole span.
    tracemalloc.start()
    try:
        assert has_3ap([0, 1, 2**22]) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_is_admissible_contract():
    assert is_admissible([0, 1], 3)
    assert not is_admissible([0, 1], 2)
    with pytest.raises(ValueError):
        is_admissible([0, 5], 4)


@st.composite
def ap_free_sets_with_negatives(draw):
    chosen = []
    for v in draw(st.lists(st.integers(-60, 60), max_size=12)):
        if v not in chosen and has_3ap([*chosen, v]) is None:
            chosen.append(v)
    return chosen


@given(ap_free_sets_with_negatives(), st.integers(1, 130))
@settings(max_examples=200, deadline=None)
@example([-2, 0], 2)
def test_is_admissible_matches_has_3ap_through_negative_values(chosen, step):
    c = max(chosen, default=0) + step
    assert is_admissible(chosen, c) == (has_3ap([*chosen, c]) is None)


def test_overflow_guard():
    big = 2**61
    with pytest.raises(OverflowLimitError):
        generate([0, big], count=5)
    with pytest.raises(OverflowLimitError):
        generate([0], limit=2**62)
    # A seed this close to the cap leaves no room for a window above it.
    with pytest.raises(OverflowLimitError, match="64-bit"):
        generate([0, 2**62 - 5], count=5)


def test_minimal_generating_prefix():
    zero = generate([0], count=64).terms
    assert minimal_generating_prefix(zero) == 1
    # (0,2,5) already extends to 6 greedily, so the prefix drops one
    s256 = generate([0, 2, 5, 6], count=64).terms
    assert minimal_generating_prefix(s256) == 3
    assert generate((0, 2, 5), count=6).terms == (0, 2, 5, 6, 9, 11)
    # S(0,1,7)'s prefix must keep the 7: {0,1} alone regenerates S(0,1)
    s17 = generate([0, 1, 7], count=64).terms
    assert minimal_generating_prefix(s17) == 3


@given(ap_free_seeds(max_extra=3, max_step=6), st.integers(1, 24))
@settings(max_examples=30, deadline=None)
def test_minimal_prefix_regenerates(seed, extra):
    terms = generate(seed, count=len(seed) + extra).terms
    p = minimal_generating_prefix(terms)
    assert generate(terms[:p], count=len(terms)).terms == terms
    if p > 1:
        assert generate(terms[: p - 1], count=len(terms)).terms != terms
