"""Constructive realization of even characters.

Every nonnegative even target lam not congruent to 244 modulo 486 is
realized by one of two recipes, split on lam mod 6:

* lam = 0 or 2 (mod 6): a basis head (b_0, ..., b_m) with b_i = l_i * 3**i,
  3 not dividing l_i, and sum of 2*(b_i - 3**i) equal to lam.  The head is
  found by a digit-by-digit search over the multipliers l_i in
  {1, 2, 4, 5, 7, 8} with base-3 carries, returning the lexicographically
  smallest head.

* lam = 4 (mod 6): a family recipe.  Writing lam - 1 = q * 3**i with
  3 not dividing q forces a unique index i, side (A for q = 1 mod 6, B for
  q = 5 mod 6), and shift j with lam = (1 or 5)*3**i + 1 + 2*j*3**(i+1).
  Indices past the family table are exactly the class lam = 244
  (mod 486), which this construction does not cover.

Either recipe becomes a composed system (basis.compose_system) in one
place.  A family recipe pairs the shifted family set with the all-powers
tail basis; a basis recipe is the degenerate system A = {0}, ell = 0,
whose composition is the subset-sum expansion of the head and powers.
modularize gives every plan its finite modular cover and compose its
realization.  Each plan is cross-checked against the greedy generator
itself: the realization is reproduced term by term from the cover, then
re-analyzed for independence, and the certificate's character must equal
the target exactly.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Union

from . import core, structure
from .basis import Basis, ComposedSystem, _v3, compose, compose_system, expand_basis, modularize
from .errors import (
    BudgetExceededError,
    DuplicateSumError,
    InvalidSeedError,
    NotRealizableError,
    PlanVerificationError,
)
from .modsets import FAMILY_INDICES, NearModularSet, _worker_count, family_set
# Unused here; perfbench/tests/test_perfbench.py asserts this name is modsets' function.
from .modsets import verify_modular  # noqa: F401

EXCLUDED_MODULUS = 486
EXCLUDED_RESIDUE = 244

# Multipliers coprime to 3, as offsets c = l - 1; each contributes
# 2*c*3**i to the target, so c mod 3 must track the target's digit.
_MULT_OFFSETS = (0, 1, 3, 4, 6, 7)


@dataclass(frozen=True)
class BasisRecipe:
    head: tuple[int, ...]


@dataclass(frozen=True)
class FamilyRecipe:
    index: int
    side: str
    shift: int


@dataclass(frozen=True)
class CharacterPlan:
    target: int
    recipe: Union[BasisRecipe, FamilyRecipe]


def _basis_head_for(mu: int) -> tuple[int, ...]:
    # Find offsets c_p in _MULT_OFFSETS with sum(c_p * 3**p) = mu, smallest
    # head first.  At position p the remainder is divisible by 3**p and
    # c_p must match its next digit mod 3; a digit of 2 has no matching
    # offset and forces backtracking into a larger earlier offset.
    assert mu % 3 != 2

    def rec(p: int, rest: int, chosen: list[int]) -> list[int] | None:
        if rest == 0:
            return chosen
        digit = (rest // 3**p) % 3
        if digit == 2:
            return None
        for c in _MULT_OFFSETS:
            if c % 3 != digit or c * 3**p > rest:
                continue
            found = rec(p + 1, rest - c * 3**p, chosen + [c])
            if found is not None:
                return found
        return None

    offsets = rec(0, mu, [])
    if offsets is None:  # unreachable for mu = 0, 1 (mod 3)
        raise PlanVerificationError(f"no basis head reaches {2 * mu}")
    while offsets and offsets[-1] == 0:
        offsets.pop()
    if not offsets:
        return (1,)
    return tuple((c + 1) * 3**p for p, c in enumerate(offsets))


def _family_parts(target: int) -> tuple[int, str, int]:
    # target = 4 (mod 6): target - 1 = q * 3**i with q coprime to 3 and
    # odd, so q = 1 or 5 (mod 6) picks the side and j pays the rest.
    i = _v3(target - 1)
    if i > max(FAMILY_INDICES):
        raise NotRealizableError(
            f"{target} = 244 (mod 486) is not covered by this construction",
            reason="residue-244",
        )
    q = (target - 1) // 3**i
    if q % 6 == 1:
        return i, "A", (q - 1) // 6
    return i, "B", (q - 5) // 6


def plan_character(target: int) -> CharacterPlan:
    """Pick the recipe realizing ``target`` as a character.

    Rejects negative targets (characters are nonnegative), odd targets
    (outside this method; odd characters do occur, see
    explore_basic_characters), and the class 244 mod 486, which the
    constructive table does not cover.
    """
    if target < 0:
        raise NotRealizableError(
            f"characters are nonnegative, got {target}", reason="negative"
        )
    if target % 2 == 1:
        raise NotRealizableError(
            f"{target} is odd; this construction only reaches even characters "
            f"(odd ones exist, try explore_basic_characters)",
            reason="odd",
        )
    if target % 6 in (0, 2):
        head = _basis_head_for(target // 2)
        plan = CharacterPlan(target, BasisRecipe(head))
        _check_emitted_head(plan)
        return plan
    index, side, shift = _family_parts(target)
    return CharacterPlan(target, FamilyRecipe(index, side, shift))


def _check_emitted_head(plan: CharacterPlan) -> None:
    # Machine check on every emitted head: exact valuations and the exact
    # character sum.  A failure is a planner bug, not an input error.
    head = plan.recipe.head
    total = 0
    for p, b in enumerate(head):
        if b % 3**p != 0 or (b // 3**p) % 3 == 0:
            raise PlanVerificationError(f"head {head} breaks valuation at {p}")
        total += 2 * (b - 3**p)
    if total != plan.target:
        raise PlanVerificationError(
            f"head {head} realizes {total}, wanted {plan.target}"
        )


def _system(recipe: Union[BasisRecipe, FamilyRecipe]) -> ComposedSystem:
    # The one place a recipe becomes a composed system.  A basis head is
    # the degenerate system A = {0}, ell = 0: near-modular mod 3**0 = 1.
    if isinstance(recipe, FamilyRecipe):
        elements = family_set(recipe.index, recipe.side, recipe.shift)
        return compose_system(elements, ell=recipe.index + 1)
    return compose_system((0,), ell=0, head=recipe.head)


def plan_seed(plan: CharacterPlan) -> NearModularSet:
    """Finite modular cover of the plan's realization.

    This is modularize of the plan's composed system.  The cover
    regenerates the full realization greedily, which verify_plan checks
    term by term.
    """
    return modularize(_system(plan.recipe))


def realize_plan(
    plan: CharacterPlan,
    count: int | None = None,
    limit: int | None = None,
) -> list[int]:
    """Terms of the sequence the plan promises, up to a bound."""
    return compose(_system(plan.recipe), count=count, limit=limit)


def verify_plan(plan: CharacterPlan, depth: int = 6) -> structure.IndependenceCertificate:
    """Cross-check a plan against the greedy generator and certify it.

    Seeds the greedy generator with the plan's modular cover, compares the
    greedy output against the realization term by term, then runs the
    independence analysis and insists the certified character equals the
    target.  The analysis depth is raised to the cover's block scale when
    that exceeds ``depth``, so the certificate always reaches the level
    where the block structure locks in.
    """
    return _certify(plan, plan_seed(plan), depth)


def _certify(
    plan: CharacterPlan, cover: NearModularSet, depth: int
) -> structure.IndependenceCertificate:
    # verify_plan's checks against a cover already built by plan_seed, so a
    # caller that also reports the cover builds and verifies it only once.
    if depth < 1:
        raise ValueError("depth must be at least 1")
    block_scale = len(cover.elements).bit_length() - 1
    eff_depth = max(depth, block_scale)
    n_terms = 2 ** (eff_depth + 1)

    realization = realize_plan(plan, count=n_terms)
    # The cover passed verify_modular, so it is increasing, starts at 0 and
    # is 3-AP-free: the sieve runs without generate's re-validation.
    greedy = core._extend(cover.elements, n_terms, None)
    for idx, (got, want) in enumerate(zip(greedy.terms, realization)):
        if got != want:
            raise PlanVerificationError(
                f"greedy generation diverges from the realization at index "
                f"{idx}: greedy {got}, realized {want}"
            )

    result = structure.analyze_independence(greedy, max_depth=eff_depth)
    if not result.independent:
        raise PlanVerificationError(
            f"realization failed independence analysis: {result.violation}"
        )
    if result.character != plan.target:
        raise PlanVerificationError(
            f"realized character {result.character} differs from target "
            f"{plan.target}"
        )
    return result


# ---------------------------------------------------------------------------
# Residue coverage.


@dataclass(frozen=True)
class CoverageEntry:
    residue: int
    kind: str  # "basic" | "family" | "uncovered"
    index: int | None = None
    side: str | None = None


@dataclass(frozen=True)
class CoverageMap:
    modulus: int
    entries: tuple[CoverageEntry, ...]

    @property
    def uncovered(self) -> tuple[int, ...]:
        return tuple(e.residue for e in self.entries if e.kind == "uncovered")


def residue_coverage(modulus: int = EXCLUDED_MODULUS) -> CoverageMap:
    """Which recipe covers each even residue class mod ``modulus``.

    Residues 0 and 2 mod 6 fall to the basis recipe.  A residue 4 mod 6 is
    assigned the family of its smallest class member whose index lands in
    the table; classes all of whose members need a larger index are
    reported uncovered.  At modulus 486 that leaves exactly residue 244
    uncovered.  Checking the members r and r + modulus suffices: at most
    one of any three consecutive members has v3(lam - 1) above the
    class's least, so one of these two attains it.
    """
    if modulus < 6 or modulus % 6 != 0:
        raise ValueError("modulus must be a positive multiple of 6")
    entries: list[CoverageEntry] = []
    for r in range(0, modulus, 2):
        if r % 6 in (0, 2):
            entries.append(CoverageEntry(r, "basic"))
            continue
        entry = CoverageEntry(r, "uncovered")
        for lam in (r, r + modulus):
            try:
                index, side, _ = _family_parts(lam)
            except NotRealizableError:
                continue
            entry = CoverageEntry(r, "family", index=index, side=side)
            break
        entries.append(entry)
    return CoverageMap(modulus, tuple(entries))


# ---------------------------------------------------------------------------
# Exploration of basis heads, the odd-character playground.


@dataclass(frozen=True)
class ExploredBasis:
    head: tuple[int, ...]
    tail: str  # "power" | "geometric"
    independent: bool
    character: int | None
    chi: int | None


_EXPLORE_DEPTH = 5
_EXPLORE_TERMS = 2 ** (_EXPLORE_DEPTH + 1)


def _explore_candidate(args) -> tuple[tuple[int, ...], str, tuple[int, ...] | None]:
    head, tail_kind = args
    basis = Basis(head, geometric_tail=(tail_kind == "geometric"))
    try:
        expansion = expand_basis(basis, count=_EXPLORE_TERMS)
    except DuplicateSumError:
        return head, tail_kind, None
    first_tail = basis.element(len(head))
    prefix = tuple(v for v in expansion if v < first_tail)
    try:
        # generate validates the prefix as a seed: one has_3ap pass.
        greedy = core.generate(prefix, count=len(expansion))
    except InvalidSeedError:
        return head, tail_kind, None
    if list(greedy.terms) != expansion:
        return head, tail_kind, None
    return head, tail_kind, tuple(expansion)


def explore_basic_characters(
    head_length: int,
    max_entry: int,
    budget: int | None = None,
    workers: int = 1,
) -> list[ExploredBasis]:
    """Survey basis heads and report the characters their expansions show.

    Enumerates strictly increasing heads up to ``head_length`` entries
    with values up to ``max_entry``, under both tail rules, keeps the ones
    whose expansion is reproduced exactly by the greedy generator seeded
    with the sub-tail prefix, and analyzes each survivor.  Purely
    observational and makes no completeness claim; this is where odd
    characters (such as 7, from the head (1, 7, 10) continued
    geometrically) become visible.  ``budget`` caps the number of
    candidate expansions; no more than ``workers`` processes start, nor
    more than there are candidates or usable CPUs.
    """
    if head_length < 1 or max_entry < 1:
        raise ValueError("bounds must be positive")
    if workers < 1:
        raise ValueError("workers must be positive")
    if budget is not None:
        # Every head comes with both tails, except a head ending in the
        # exact power 3**(length - 1): comb(p - 1, length - 1) such heads.
        total = 0
        for length in range(1, head_length + 1):
            total += 2 * comb(max_entry, length)
            p = 3 ** (length - 1)
            if p <= max_entry:
                total -= comb(p - 1, length - 1)
        if total > budget:
            raise BudgetExceededError(
                f"{total} candidate heads exceed the budget {budget}"
            )
    candidates: list[tuple[tuple[int, ...], str]] = []
    for length in range(1, head_length + 1):
        for head in combinations(range(1, max_entry + 1), length):
            candidates.append((head, "power"))
            # The geometric tail coincides with the power tail when the
            # last entry is already the exact power; skip the duplicate.
            if head[-1] != 3 ** (length - 1):
                candidates.append((head, "geometric"))

    workers = _worker_count(workers, len(candidates))
    if workers == 1:
        raw = map(_explore_candidate, candidates)
    else:
        pool = ProcessPoolExecutor(max_workers=workers)
        raw = pool.map(_explore_candidate, candidates, chunksize=8)

    results: list[ExploredBasis] = []
    seen: set[tuple[int, ...]] = set()
    try:
        for head, tail_kind, expansion in raw:
            if expansion is None or expansion in seen:
                continue
            seen.add(expansion)
            outcome = structure.analyze_independence(expansion, _EXPLORE_DEPTH)
            if outcome.independent:
                results.append(
                    ExploredBasis(head, tail_kind, True, outcome.character, outcome.chi)
                )
            else:
                results.append(ExploredBasis(head, tail_kind, False, None, None))
    finally:
        if workers > 1:
            pool.shutdown()
    return results
