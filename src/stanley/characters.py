"""Constructive realization of even characters.

Every nonnegative even target lam not congruent to 244 modulo 486 is
realized by one of two recipes, split on lam mod 6:

* lam = 0 or 2 (mod 6): a basis head (b_0, ..., b_m) with b_i = l_i * 3**i,
  3 not dividing l_i, and sum of 2*(b_i - 3**i) equal to lam.  The
  multipliers l_i in {1, 2, 4, 5, 7, 8} are read off lam/2 digit by digit
  in base 3, which gives the lexicographically smallest head in one pass.

* lam = 4 (mod 6): a family recipe.  Writing lam - 1 = q * 3**i with
  3 not dividing q forces a unique index i, side (A for q = 1 mod 6, B for
  q = 5 mod 6), and shift j with lam = (1 or 5)*3**i + 1 + 2*j*3**(i+1).
  Indices past the family table are exactly the class lam = 244
  (mod 486), which this construction does not cover.

Either recipe becomes a composed system (basis.compose_system, which
reads ell off |A| = 2**ell) in one place, CharacterPlan.system, built
once per plan.  A family recipe pairs the shifted family set with the
all-powers tail basis; a basis recipe is the degenerate system A = {0},
so ell = 0, whose composition is the subset-sum expansion of the head
and powers.  CharacterPlan.cover, its modularize cover, is likewise
built and verified once per plan; compose gives the realization.
verify_plan is the one certifier: it checks the realization against the
greedy sieve's marks seeded with the cover, one fill per sieve window
(core._greedy_run), re-analyzes it for independence, and insists the
certificate's character equals the target exactly.  Explore checks each
survivor's expansion the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
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
from .modsets import DEFAULT_NODE_BUDGET, FAMILY_INDICES, NearModularSet, _branches, family_set
# Unused here; perfbench/tests/test_perfbench.py asserts this name is modsets' function.
from .modsets import verify_modular  # noqa: F401

# Targets 4 (mod 6) with 3**k dividing target - 1, k one past the family
# table, have no recipe: target = 3**k + 1 (mod 2 * 3**k), 244 mod 486.
_GAP_INDEX = max(FAMILY_INDICES) + 1
EXCLUDED_MODULUS = 2 * 3**_GAP_INDEX
EXCLUDED_RESIDUE = 3**_GAP_INDEX + 1


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

    @cached_property
    def system(self) -> ComposedSystem:
        """The composed system of the recipe, built once per plan.

        A family set A_i has 2**(i + 1) elements, so ell = i + 1; a basis
        head is the system A = {0}, ell = 0: near-modular mod 3**0 = 1.
        """
        recipe = self.recipe
        if isinstance(recipe, FamilyRecipe):
            return compose_system(family_set(recipe.index, recipe.side, recipe.shift))
        return compose_system((0,), head=recipe.head)

    @cached_property
    def cover(self) -> NearModularSet:
        """The modularize cover of the system, built and verified once per plan."""
        return modularize(self.system)


def _basis_head_for(mu: int) -> tuple[int, ...]:
    # Offsets c_p = l_p - 1 in {0, 1, 3, 4, 6, 7} with sum(c_p * 3**p) = mu,
    # smallest head first.  c_p must match the remainder's lowest digit
    # mod 3; the smaller offset is taken unless it leaves a next digit of
    # 2, which no offset matches, and then the one 3 larger is.
    assert mu % 3 != 2
    offsets = []
    while mu:
        c = mu % 3 + (3 if mu // 3 % 3 == 2 else 0)
        offsets.append(c)
        mu = (mu - c) // 3
    if not offsets:
        return (1,)
    return tuple((c + 1) * 3**p for p, c in enumerate(offsets))


def _family_parts(target: int) -> tuple[int, str, int]:
    # target = 4 (mod 6): target - 1 = q * 3**i with q coprime to 3 and
    # odd, so q = 1 or 5 (mod 6) picks the side and j pays the rest.
    i = _v3(target - 1)
    if i >= _GAP_INDEX:
        raise NotRealizableError(
            f"{target} = {EXCLUDED_RESIDUE} (mod {EXCLUDED_MODULUS}) "
            f"is not covered by this construction",
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
    target = core._integer(target, "target")
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
        if b < 1 or _v3(b) != p:
            raise PlanVerificationError(f"head {head} breaks valuation at {p}")
        total += 2 * (b - 3**p)
    if total != plan.target:
        raise PlanVerificationError(
            f"head {head} realizes {total}, wanted {plan.target}"
        )


def plan_seed(plan: CharacterPlan) -> NearModularSet:
    """The plan's modular cover, ``plan.cover``, whose greedy run verify_plan checks."""
    return plan.cover


def realize_plan(
    plan: CharacterPlan,
    count: int | None = None,
    limit: int | None = None,
) -> list[int]:
    """Terms of the sequence the plan promises, up to a bound."""
    return compose(plan.system, count=count, limit=limit)


def verify_plan(plan: CharacterPlan, depth: int = 6) -> structure.IndependenceCertificate:
    """Cross-check a plan against the greedy generator and certify it.

    Checks that the realization is the greedy run seeded with the plan's
    modular cover, against the sieve's marks one window fill at a time,
    then runs the independence analysis and insists the certified
    character equals the target.  The analysis depth is raised to the
    cover's block scale when that exceeds ``depth``, so the certificate
    always reaches the level where the block structure locks in.
    """
    depth = core._integer(depth, "depth", 1)
    cover = plan.cover
    block_scale = len(cover.elements).bit_length() - 1
    eff_depth = max(depth, block_scale)
    n_terms = 2 ** (eff_depth + 1)

    # Sized before anything is composed: a count numpy refuses to size
    # raises MemoryError here.
    run = core._term_array(n_terms)
    realization = realize_plan(plan, count=n_terms)
    run[:] = realization
    # modularize proved the cover modular, so it is increasing, starts at 0 and
    # is 3-AP-free: a valid seed without generate's re-validation.
    if not core._greedy_run(cover.elements, run):
        # Only a failed check regenerates the run, n_terms terms of it, to
        # name the first index where it differs from the realization.
        got = core._extend(cover.elements, n_terms, None).terms
        idx = next(i for i, (g, w) in enumerate(zip(got, realization)) if g != w)
        raise PlanVerificationError(
            f"greedy generation diverges from the realization at index "
            f"{idx}: greedy {got[idx]}, realized {realization[idx]}"
        )

    greedy = core.GreedySequence(cover.elements, tuple(realization))
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
    modulus = core._integer(modulus, "modulus")
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


def _explore_branch(job, counter=None) -> list[tuple[tuple[int, ...], str, tuple[int, ...]]]:
    # The (head, tail, expansion) survivors among the heads of one length
    # and first entry, in lexicographic order, the power tail first.  No
    # node is counted: the budget was checked before any branch ran.
    length, first, max_entry = job
    power = 3**length
    survivors = []
    for rest in combinations(range(first + 1, max_entry + 1), length - 1):
        head = (first, *rest)
        for start in dict.fromkeys((power, 3 * head[-1])):
            try:
                expansion = expand_basis(Basis(head, start), count=_EXPLORE_TERMS)
                # One has_3ap pass validates the sums below the tail as a seed.
                seed = core.validate_seed(tuple(v for v in expansion if v < start))
            except (DuplicateSumError, InvalidSeedError):
                continue
            if core._greedy_run(seed, expansion):
                tail_kind = "power" if start == power else "geometric"
                survivors.append((head, tail_kind, tuple(expansion)))
    return survivors


def explore_basic_characters(
    head_length: int,
    max_entry: int,
    budget: int = DEFAULT_NODE_BUDGET,
    workers: int = 1,
) -> list[ExploredBasis]:
    """Survey basis heads and report the characters their expansions show.

    Enumerates strictly increasing heads up to ``head_length`` entries
    with values up to ``max_entry``, under both tail starts, 3**len(head)
    and 3 * head[-1], keeps the ones whose expansion is reproduced exactly
    by the greedy generator seeded with the sums below the tail start,
    checked against the sieve's marks one window fill at a time, and
    analyzes each survivor.  Purely observational and makes no
    completeness claim; this is where odd characters (such as 7, from
    Basis((1, 7, 10), 30)) become visible.  ``budget`` (at least 1,
    10**8 by default as for search) caps the candidate expansions, all
    counted before any runs.  The survey splits once, into one branch per
    head length and first entry; each hands back only its survivors, so
    memory grows with the survivors, not the candidates, and results are
    identical for every worker count.  Search's runner, modsets._branches,
    runs them in at most ``workers`` processes, branches or usable CPUs.
    """
    head_length = core._integer(head_length, "head_length", 1)
    max_entry = core._integer(max_entry, "max_entry", 1)
    workers = core._integer(workers, "workers", 1)
    budget = core._integer(budget, "budget", 1)
    # A strictly increasing head in [1, max_entry] has at most max_entry entries.
    head_length = min(head_length, max_entry)
    # Every head comes with two tail starts, except a head ending in the
    # exact power p = 3**(length - 1): comb(p - 1, length - 1) such heads.
    # heads steps through comb(max_entry, length) by one factor per
    # length, so no binomial is recomputed from scratch.
    total, heads, p = 0, 1, 1
    for length in range(1, head_length + 1):
        heads = heads * (max_entry - length + 1) // length
        total += 2 * heads
        if p <= max_entry:
            total -= comb(p - 1, length - 1)
        p *= 3
    if total > budget:
        text = core._count_text(total, "candidate heads")
        verb = "exceeds" if text.startswith("a ") else "exceed"
        raise BudgetExceededError(f"{text} {verb} the budget {budget}")
    jobs = [(length, first, max_entry)
            for length in range(1, head_length + 1)
            for first in range(1, max_entry - length + 2)]
    results: list[ExploredBasis] = []
    seen: set[tuple[int, ...]] = set()
    branches = _branches(_explore_branch, jobs, len(jobs), workers)
    for head, tail_kind, expansion in chain.from_iterable(branches):
        if expansion in seen:
            continue
        seen.add(expansion)
        outcome = structure.analyze_independence(expansion, _EXPLORE_DEPTH)
        found = (outcome.character, outcome.chi) if outcome.independent else (None, None)
        results.append(ExploredBasis(head, tail_kind, outcome.independent, *found))
    return results
