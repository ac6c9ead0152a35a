"""Planner, realization cross-check, residue coverage, exploration."""

import json
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stanley import (
    BasisRecipe,
    BudgetExceededError,
    FamilyRecipe,
    NotRealizableError,
    analyze_independence,
    explore_basic_characters,
    generate,
    plan_character,
    plan_seed,
    realize_plan,
    residue_coverage,
    verify_modular,
    verify_plan,
)
from stanley import core
from stanley.cli import main

from .naive import naive_basis_cover, naive_residue_coverage


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


def test_verify_plan_depth_validation():
    with pytest.raises(ValueError):
        verify_plan(plan_character(8), depth=0)


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


def realize_plan_like(result):
    from stanley import Basis, expand_basis

    return expand_basis(
        Basis(result.head, geometric_tail=(result.tail == "geometric")),
        count=32,
    )


def test_explore_validates_each_seed_once(monkeypatch):
    # generate validates its seed with has_3ap; explore adds no check of
    # its own on top.
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(core, "has_3ap", counted("has_3ap", core.has_3ap))
    monkeypatch.setattr(core, "generate", counted("generate", core.generate))
    explore_basic_characters(2, 12)
    assert calls["generate"] > 0
    assert calls["has_3ap"] == calls["generate"]


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
    with pytest.raises(BudgetExceededError, match=f"^{total} candidate heads"):
        explore_basic_characters(head_length, max_entry, budget=total - 1)


def test_explore_budget_and_workers():
    with pytest.raises(BudgetExceededError):
        explore_basic_characters(3, 10, budget=10)
    solo = explore_basic_characters(2, 9, workers=1)
    multi = explore_basic_characters(2, 9, workers=3)
    assert solo == multi
    with pytest.raises(ValueError):
        explore_basic_characters(0, 5)
