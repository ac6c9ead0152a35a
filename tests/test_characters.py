"""Planner, realization cross-check, residue coverage, exploration."""

import json
import os
import random
import time
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stanley import (
    Basis,
    BasisRecipe,
    BudgetExceededError,
    DuplicateSumError,
    FamilyRecipe,
    IdentityViolation,
    IndependenceCertificate,
    IndependenceReport,
    InvalidSeedError,
    NotRealizableError,
    PlanVerificationError,
    analyze_independence,
    compose,
    decompose,
    expand_basis,
    explore_basic_characters,
    generate,
    plan_character,
    plan_seed,
    realize_plan,
    residue_coverage,
    verify_modular,
    verify_plan,
)
from stanley import characters, core, modsets, structure
from stanley.cli import main

from .naive import naive_basis_cover, naive_basis_head, naive_residue_coverage


def _v3(n):
    v = 0
    while n % 3 == 0:
        n //= 3
        v += 1
    return v


KNOWN_PLANS = {
    0: BasisRecipe((1,)),
    2: BasisRecipe((2,)),
    8: BasisRecipe((2, 6)),
    12: BasisRecipe((4, 6)),
    14: BasisRecipe((5, 6)),
    4: FamilyRecipe(1, "A", 0),
    16: FamilyRecipe(1, "B", 0),
    10: FamilyRecipe(2, "A", 0),
    40: FamilyRecipe(1, "A", 2),
    82: FamilyRecipe(4, "A", 0),
}


@pytest.mark.parametrize("target,recipe", sorted(KNOWN_PLANS.items(), key=str))
def test_known_plans(target, recipe):
    assert plan_character(target).recipe == recipe


def test_rejections_with_reasons():
    with pytest.raises(NotRealizableError) as e:
        plan_character(-4)
    assert e.value.reason == "negative"
    with pytest.raises(NotRealizableError) as e:
        plan_character(9)
    assert e.value.reason == "odd"
    for lam in (244, 244 + 486, 244 + 2 * 486):
        with pytest.raises(NotRealizableError) as e:
            plan_character(lam)
        assert e.value.reason == "residue-244"
        assert "not covered" in str(e.value)
        assert "impossible" not in str(e.value).lower()


def test_excluded_class_is_exactly_v3_of_five_plus():
    # lam = 244 (mod 486) iff v3(lam - 1) >= 5 among lam = 4 (mod 6)
    for lam in range(4, 3000, 6):
        excluded = _v3(lam - 1) >= 5
        assert (lam % 486 == 244) == excluded
        if excluded:
            with pytest.raises(NotRealizableError):
                plan_character(lam)
        else:
            plan_character(lam)


@given(st.integers(0, 4000).map(lambda n: 2 * n))
@settings(max_examples=200, deadline=None)
def test_recipe_arithmetic_is_exact(lam):
    try:
        plan = plan_character(lam)
    except NotRealizableError as e:
        assert e.reason == "residue-244"
        return
    r = plan.recipe
    if isinstance(r, BasisRecipe):
        assert lam % 6 in (0, 2)
        assert sum(2 * (b - 3**p) for p, b in enumerate(r.head)) == lam
        for p, b in enumerate(r.head):
            assert _v3(b) == p
    else:
        assert lam % 6 == 4
        base = (1 if r.side == "A" else 5) * 3**r.index
        assert base + 1 + 2 * r.shift * 3 ** (r.index + 1) == lam


@given(st.integers(0, 1500).map(lambda n: 2 * n))
@settings(max_examples=120, deadline=None)
def test_basis_heads_are_lexicographically_minimal(lam):
    if lam % 6 == 4:
        return
    head = plan_character(lam).recipe.head
    mu = lam // 2
    # no shorter-or-equal head with a smaller first differing entry can
    # reach the same target: check all heads over the same positions with
    # smaller multipliers at the first position where they could differ
    offsets = [b // 3**p - 1 for p, b in enumerate(head)]
    for p, c in enumerate(offsets):
        for smaller in range(c):
            if smaller % 3 != c % 3:
                continue
            prefix = offsets[:p] + [smaller]
            rest = mu - sum(o * 3**q for q, o in enumerate(prefix))
            # remaining budget must be expressible over positions > p
            if rest >= 0 and _reachable(rest, p + 1):
                pytest.fail(f"head {head} not minimal for {lam}")


def _reachable(mu, start):
    if mu == 0:
        return True
    digit = (mu // 3**start) % 3
    for c in (0, 1, 3, 4, 6, 7):
        if c % 3 != digit % 3 or c * 3**start > mu:
            continue
        if _reachable(mu - c * 3**start, start + 1):
            return True
    return False


def test_basis_heads_match_the_backtracking_oracle():
    # Every mu = 0, 1 (mod 3) below 20000, and 200 drawn with up to 300
    # ternary digits.
    rng = random.Random(20)
    drawn = [rng.randrange(3 ** rng.randrange(1, 301)) for _ in range(200)]
    for mu in list(range(20000)) + drawn:
        if mu % 3 != 2:
            assert characters._basis_head_for(mu) == naive_basis_head(mu), mu


@pytest.mark.parametrize("head, message", [
    ((3,), "head (3,) breaks valuation at 0"),
    ((1, 2), "head (1, 2) breaks valuation at 1"),
    ((2,), "head (2,) realizes 2, wanted 8"),
    ((0,), "head (0,) breaks valuation at 0"),
], ids=["valuation", "valuation-low", "sum", "zero"])
def test_plan_character_checks_every_emitted_head(monkeypatch, head, message):
    # A planner bug is caught before the plan leaves plan_character: 3 is
    # divisible by 3 = 3**(0 + 1), 2 is not divisible by 3**1, (2,) sums
    # to 2 * (2 - 1), and 0, divisible by every power of 3, has no exact
    # valuation (the check must refuse it, not divide it by 3 forever).
    monkeypatch.setattr(characters, "_basis_head_for", lambda mu: head)
    with pytest.raises(PlanVerificationError) as err:
        plan_character(8)
    assert str(err.value) == message


def test_plans_targets_with_a_thousand_ternary_digits():
    # Planning walks the digits of lam/2 in a loop, so no recursion limit
    # caps the target.
    powers = tuple(3**p for p in range(1, 1000))
    for lam, first in ((2 * 3**1000, 1), (2 * 3**1000 + 2, 2)):
        plan = plan_character(lam)
        assert plan.recipe == BasisRecipe((first,) + powers + (2 * 3**1000,))


def _spy(monkeypatch, module, name):
    # Replace module.name by a wrapper that logs each call's arguments.
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("lam", [300, 40, 1540])
@pytest.mark.parametrize("count", [[], ["--count", "40"]])
def test_character_builds_its_system_once(monkeypatch, capsys, lam, count):
    # plan_seed, the certificate and the realization share the plan's one
    # composed system, and the seed and the certificate its one cover.
    systems = _spy(monkeypatch, characters, "compose_system")
    covers = _spy(monkeypatch, characters, "modularize")
    assert main(["character", "--lambda", str(lam), *count]) == 0
    assert str(lam) in capsys.readouterr().out
    assert (len(systems), len(covers)) == (1, 1)


@pytest.mark.parametrize("lam", [8, 40, 1540])
def test_plan_seed_and_verify_plan_share_one_cover(monkeypatch, lam):
    covers = _spy(monkeypatch, characters, "modularize")
    plan = plan_character(lam)
    cover = plan_seed(plan)
    assert verify_plan(plan).character == lam
    assert plan_seed(plan) is cover is plan.cover
    assert covers == [(plan.system,)]


def test_plan_seed_is_modular_cover():
    for lam in (0, 8, 12, 14, 4, 16, 40):
        cover = plan_seed(plan_character(lam))
        assert cover.verdict == "modular"
        assert verify_modular(cover.elements, cover.modulus).verdict == "modular"
        size = len(cover.elements)
        assert size & (size - 1) == 0  # power of two
        # cover regenerates the realization
        realized = realize_plan(plan_character(lam), count=3 * size)
        assert list(generate(cover.elements, count=3 * size).terms) == realized


def test_basis_covers_match_the_subset_sum_oracle():
    # A basis recipe is the composed system A = {0}, ell = 0; its cover
    # must be the head's subset sums up to the dominance boundary.
    for lam in range(0, 2001, 2):
        if lam % 6 == 4:
            continue
        plan = plan_character(lam)
        cover = plan_seed(plan)
        elements, modulus = naive_basis_cover(plan.recipe.head)
        assert (list(cover.elements), cover.modulus) == (elements, modulus), lam


def test_smallest_basis_covers():
    for lam, elements in ((0, (0, 1)), (2, (0, 2))):
        cover = plan_seed(plan_character(lam))
        assert (cover.elements, cover.modulus, cover.verdict) == (elements, 3, "modular")


def test_verify_plan_round_trip_small():
    for lam in range(0, 100, 2):
        cert = verify_plan(plan_character(lam), depth=5)
        assert cert.character == lam


def test_verify_plan_depth_adapts_to_cover():
    # family index 4 with a shift needs two tail blocks before dominance,
    # giving a 128-element cover; depth must rise to certify it
    plan = plan_character(1540)
    assert plan.recipe == FamilyRecipe(4, "A", 3)
    cert = verify_plan(plan, depth=6)
    assert cert.verified_depth == 7
    assert cert.character == 1540


@pytest.mark.parametrize("lam", [8, 1540])
def test_verified_cover_is_not_revalidated(monkeypatch, capsys, lam):
    # plan_seed has just verified the cover as modular, so neither
    # verify_plan nor the character command runs has_3ap on it again.
    calls = []
    monkeypatch.setattr(core, "has_3ap", lambda elements: calls.append(elements))
    assert verify_plan(plan_character(lam)).character == lam
    assert main(["character", "--lambda", str(lam), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["certificate"]["character"] == lam
    assert calls == []


@pytest.mark.parametrize("result, message", [
    (IndependenceReport(IdentityViolation("addition", 6, 3, 10, 11), 6),
     r"realization failed independence analysis: IdentityViolation\(kind='addition', depth=6, "
     r"index=3, expected=10, actual=11\)"),
    (IndependenceCertificate(10, 0, 1, 6), "realized character 10 differs from target 8"),
], ids=["not_independent", "wrong_character"])
def test_verify_plan_refuses_what_the_analysis_refutes(monkeypatch, result, message):
    # The greedy run matches the realization; only the analysis disagrees.
    monkeypatch.setattr(structure, "analyze_independence", lambda seq, max_depth: result)
    with pytest.raises(PlanVerificationError, match=f"^{message}$"):
        verify_plan(plan_character(8))


def test_verify_plan_depth_validation():
    with pytest.raises(ValueError):
        verify_plan(plan_character(8), depth=0)


@pytest.mark.parametrize("lam", [8, 1540])
@pytest.mark.parametrize("idx, step", [(100, 1), (255, -1)])
def test_certify_reports_the_first_divergence(monkeypatch, lam, idx, step):
    # A realization that differs from the greedy sequence in one term: a
    # greedy term below the realized one, or, with the last realized term
    # lowered, a greedy term past it.  One greedy run of as many terms as
    # the realization, with no value bound, names the greedy term in both
    # cases.
    plan = plan_character(lam)
    cover = plan_seed(plan)
    assert len(cover.elements) <= 128  # so depth 7 compares 256 terms
    greedy = generate(cover.elements, count=256).terms
    real_realize, real_extend = characters.realize_plan, core._extend
    extends = []

    def realize(p, count=None, limit=None):
        terms = real_realize(p, count=count, limit=limit)
        terms[idx] += step
        return terms

    def extend(seed_t, count, limit):
        extends.append((count, limit))
        return real_extend(seed_t, count, limit)

    monkeypatch.setattr(characters, "realize_plan", realize)
    monkeypatch.setattr(core, "_extend", extend)
    with pytest.raises(PlanVerificationError) as err:
        verify_plan(plan, depth=7)
    assert str(err.value) == (
        f"greedy generation diverges from the realization at index {idx}: "
        f"greedy {greedy[idx]}, realized {greedy[idx] + step}"
    )
    assert extends == [(256, None)]


def _refuse(*args, **kwargs):
    raise AssertionError("not expected on this path")


@pytest.mark.parametrize("lam", [0, 8, 40, 1540, 3000])
def test_verify_plan_certifies_without_regenerating(monkeypatch, lam):
    # The realization is checked against the sieve's marks; _extend runs
    # only when the check fails, to name the divergence.
    plan = plan_character(lam)
    plan.cover
    monkeypatch.setattr(core, "_extend", _refuse)
    monkeypatch.setattr(core, "generate", _refuse)
    assert verify_plan(plan).character == lam


def test_verify_plan_refuses_an_unallocatable_count_before_composing(monkeypatch):
    # Depth 200 asks for 2**201 terms; composing them first never ends.
    monkeypatch.setattr(characters, "realize_plan", _refuse)
    with pytest.raises(MemoryError, match=f"^cannot allocate {2**201} terms$"):
        verify_plan(plan_character(10), depth=200)


def test_realize_plan_bounds():
    plan = plan_character(8)
    by_count = realize_plan(plan, count=50)
    assert len(by_count) == 50
    assert realize_plan(plan, limit=by_count[-1]) == by_count
    with pytest.raises(ValueError):
        realize_plan(plan)


def test_realizations_analyze_to_target():
    for lam in (0, 2, 4, 8, 10, 16, 22, 28):
        terms = realize_plan(plan_character(lam), count=96)
        cert = analyze_independence(terms, max_depth=5)
        assert cert.independent and cert.character == lam


def test_coverage_at_main_modulus():
    cover = residue_coverage(486)
    assert cover.uncovered == (244,)
    entries = {e.residue: e for e in cover.entries}
    assert len(cover.entries) == 243
    assert entries[0].kind == "basic"
    assert entries[2].kind == "basic"
    assert entries[4].kind == "family" and entries[4].index == 1
    assert entries[244].kind == "uncovered"
    for e in cover.entries:
        assert (e.kind == "family") == (e.index is not None)


def test_coverage_assignment_matches_realization():
    # the family index and side assigned to a residue class agree with
    # the plan of its smallest in-class member
    cover = residue_coverage(486)
    for e in cover.entries:
        if e.kind != "family":
            continue
        lam = e.residue
        while True:
            try:
                plan = plan_character(lam)
                break
            except NotRealizableError:
                lam += 486
        assert isinstance(plan.recipe, FamilyRecipe)
        assert plan.recipe.index == e.index
        assert plan.recipe.side == e.side


@pytest.mark.parametrize(
    "moduli", [range(6, 1800, 6), (2916, 4374, 6 * 3**6 * 5)], ids=["small", "3-heavy"]
)
def test_coverage_matches_oracle(moduli):
    for modulus in moduli:
        got = [(e.residue, e.kind, e.index, e.side) for e in residue_coverage(modulus).entries]
        assert got == naive_residue_coverage(modulus), modulus


def test_coverage_other_moduli():
    small = residue_coverage(18)
    assert small.uncovered == ()
    assert {e.kind for e in small.entries} == {"basic", "family"}
    with pytest.raises(ValueError):
        residue_coverage(20)
    with pytest.raises(ValueError):
        residue_coverage(0)


def test_explore_finds_known_examples():
    results = explore_basic_characters(3, 10)
    by_key = {(r.head, r.tail): r for r in results}
    assert by_key[((1,), "power")].character == 0
    assert by_key[((2, 6), "power")].character == 8
    geo = by_key[((1, 7, 10), "geometric")]
    assert geo.independent and geo.character == 7 and geo.chi == 2
    # at least one odd character shows up, so parity alone cannot be the
    # obstruction for basic sequences
    assert any(
        r.character is not None and r.character % 2 == 1 for r in results
    )


def test_explore_dedups_equal_expansions():
    results = explore_basic_characters(2, 6)
    seen = set()
    for r in results:
        key = tuple(realize_plan_like(r))
        assert key not in seen
        seen.add(key)


def test_every_planner_system_reads_its_modulus_off_its_basis():
    # compose_system's n0 rule makes b_{n0} the exact power 3**(n0 + ell),
    # which the system reads as its modulus, with ell from the recipe; and
    # decompose inverts the first 256 terms of every system.
    for lam in range(0, 2001, 2):
        if lam % 486 == 244:
            continue
        plan = plan_character(lam)
        ell = plan.recipe.index + 1 if isinstance(plan.recipe, FamilyRecipe) else 0
        sys_ = plan.system
        assert sys_.modulus == 3 ** (sys_.n0 + ell), lam
        for v in compose(sys_, count=256):
            assert decompose(v, sys_).value(sys_) == v, (lam, v)


def explored_basis(head, tail):
    # The basis of an explored head: the power tail starts at 3**len(head),
    # the geometric tail at 3 * head[-1].
    return Basis(head, 3 ** len(head) if tail == "power" else 3 * head[-1])


def realize_plan_like(result):
    return expand_basis(explored_basis(result.head, result.tail), count=32)


def test_explore_validates_each_seed_once(monkeypatch):
    # validate_seed runs has_3ap once per prefix; explore adds no check of
    # its own on top, and checks survivors without generate.
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(core, "has_3ap", counted("has_3ap", core.has_3ap))
    monkeypatch.setattr(core, "validate_seed", counted("validate_seed", core.validate_seed))
    monkeypatch.setattr(core, "generate", counted("generate", core.generate))
    explore_basic_characters(2, 12)
    assert calls["validate_seed"] > 0
    assert calls["has_3ap"] == calls["validate_seed"]
    assert calls["generate"] == 0


def _explore_branch_oracle(length, first, max_entry):
    # A branch by generate and compare: the greedy run from the sub-tail
    # prefix, regenerated term by term.
    survivors = []
    for rest in combinations(range(first + 1, max_entry + 1), length - 1):
        head = (first, *rest)
        for tail in ("power",) if head[-1] == 3 ** (length - 1) else ("power", "geometric"):
            basis = explored_basis(head, tail)
            try:
                expansion = expand_basis(basis, count=characters._EXPLORE_TERMS)
                prefix = [v for v in expansion if v < basis.element(length)]
                greedy = generate(prefix, count=len(expansion))
            except (DuplicateSumError, InvalidSeedError):
                continue
            if list(greedy.terms) == expansion:
                survivors.append((head, tail, tuple(expansion)))
    return survivors


@pytest.mark.parametrize("length", [2, 3])
@pytest.mark.parametrize("max_entry", [3, 7, 12])
def test_explore_survivors_match_a_generate_and_compare_oracle(monkeypatch, length, max_entry):
    jobs = [(length, first, max_entry) for first in range(1, max_entry - length + 2)]
    want = [_explore_branch_oracle(*job) for job in jobs]
    monkeypatch.setattr(core, "generate", _refuse)
    monkeypatch.setattr(core, "_extend", _refuse)
    assert [characters._explore_branch(job) for job in jobs] == want
    if max_entry == 12:
        assert any(want)


def test_explore_budget_checked_before_enumeration():
    # comb(10**6, 40) heads: enumerating them first would never finish.
    with pytest.raises(BudgetExceededError, match="exceed the budget 1000"):
        explore_basic_characters(40, 10**6, budget=1000)


@pytest.mark.parametrize("head_length, max_entry", [(1, 1), (2, 3), (3, 10), (4, 30), (5, 12)])
def test_explore_budget_counts_every_candidate(head_length, max_entry):
    heads = (
        h for n in range(1, head_length + 1) for h in combinations(range(1, max_entry + 1), n)
    )
    total = sum(1 if h[-1] == 3 ** (len(h) - 1) else 2 for h in heads)
    if total > 1:
        with pytest.raises(BudgetExceededError, match=f"^{total} candidate heads"):
            explore_basic_characters(head_length, max_entry, budget=total - 1)
    else:
        # A budget below 1 is an argument error, as in search_near_modular.
        with pytest.raises(ValueError, match="^budget must be positive$"):
            explore_basic_characters(head_length, max_entry, budget=total - 1)
    # The exact count passes; (4, 30) takes seconds to run, so only its
    # refusal is checked.
    if (head_length, max_entry) != (4, 30):
        assert explore_basic_characters(head_length, max_entry, budget=total)


def test_explore_budget_message_needs_no_binomial_per_length():
    # With head_length = max_entry = n every length counts, so the heads
    # number 2**n - 1, less the power-ended ones counted once.  The budget
    # formula once recomputed comb(n, length) for every length: 7 s at n =
    # 8,000 before it raised.
    n = 8000
    total = 2 * (2**n - 1) - sum(
        comb(3 ** (length - 1) - 1, length - 1)
        for length in range(1, n + 1) if 3 ** (length - 1) <= n
    )
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as exc:
        explore_basic_characters(n, n, budget=1)
    assert time.perf_counter() - start < 1.0
    assert str(exc.value) == f"{total} candidate heads exceed the budget 1"


def test_explore_budget_and_workers():
    with pytest.raises(BudgetExceededError):
        explore_basic_characters(3, 10, budget=10)
    for head_length, max_entry in [(2, 9), (3, 12), (4, 10)]:
        solo = explore_basic_characters(head_length, max_entry, workers=1)
        multi = explore_basic_characters(head_length, max_entry, workers=3)
        assert solo == multi, (head_length, max_entry)
    with pytest.raises(ValueError):
        explore_basic_characters(0, 5)


def test_explore_pool_maps_one_branch_per_length_and_first_entry(monkeypatch):
    # No process starts: the fork runner runs in this process and records
    # the jobs it is handed and what each returns.
    returned = []

    def fake_forked(fn, jobs, count, workers, counter):
        for job in jobs:
            returned.append((job, fn(job, counter)))
            yield returned[-1][1]

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(modsets, "_forked", fake_forked)
    results = explore_basic_characters(2, 9, workers=2)
    assert [job for job, _ in returned] == (
        [(1, first, 9) for first in range(1, 10)] + [(2, first, 9) for first in range(1, 9)]
    )
    # Every returned entry is a survivor: its expansion is the basis
    # expansion, reproduced by the greedy generator from the sub-tail prefix.
    entries = [entry for _, found in returned for entry in found]
    for head, tail, expansion in entries:
        basis = explored_basis(head, tail)
        assert list(expansion) == expand_basis(basis, count=len(expansion))
        prefix = [v for v in expansion if v < basis.element(len(head))]
        assert generate(prefix, count=len(expansion)).terms == expansion
    firsts = {}
    for head, tail, expansion in entries:
        firsts.setdefault(expansion, (head, tail))
    assert [(r.head, r.tail) for r in results] == list(firsts.values())
    assert results == explore_basic_characters(2, 9)


def test_explore_head_length_is_clamped_to_max_entry():
    # A strictly increasing head in [1, 3] has at most 3 entries; the
    # budget formula once ran over every length up to head_length.
    start = time.perf_counter()
    results = explore_basic_characters(50_000, 3, budget=10**8)
    assert time.perf_counter() - start < 2.0
    assert results == explore_basic_characters(3, 3) and len(results) == 2
    with pytest.raises(BudgetExceededError) as long_head:
        explore_basic_characters(50_000, 3, budget=1)
    with pytest.raises(BudgetExceededError) as short_head:
        explore_basic_characters(3, 3, budget=1)
    assert str(long_head.value) == str(short_head.value)
