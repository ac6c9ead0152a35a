"""Ten-point acceptance gate.

Each criterion is one test that prints a single pass/fail line with its
elapsed time and asserts the stated runtime budget.  Criterion 10 is
observational: it asserts completion and monotone output only and reports
the measured growth numbers without judging them.

Run with -s to see the lines as they happen; without -s pytest shows them
for failing tests only.
"""

import math
import time
from contextlib import contextmanager
from functools import lru_cache

import pytest

from stanley import (
    FamilyRecipe,
    NotRealizableError,
    analyze_independence,
    Basis,
    compose,
    compose_system,
    decompose,
    expand_basis,
    family_set,
    generate,
    growth_stats,
    modularize,
    plan_character,
    plan_seed,
    realize_plan,
    residue_coverage,
    search_near_modular,
    verify_modular,
    verify_near_modular,
    verify_plan,
)
from stanley.cli import main

from .naive import recheck_certificate

BUDGETS = {
    1: 5.0,
    2: 30.0,
    3: 10.0,
    4: 300.0,
    5: 60.0,
    6: 60.0,
    7: 120.0,
    8: 5.0,
    9: 60.0,
    10: 60.0,
}


@contextmanager
def criterion(num, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {num:2d} [{label}]: FAIL after {elapsed:.2f}s")
        raise
    elapsed = time.perf_counter() - start
    budget = BUDGETS[num]
    print(f"criterion {num:2d} [{label}]: PASS in {elapsed:.2f}s (budget {budget:.0f}s)")
    assert elapsed < budget


@lru_cache(maxsize=1)
def _plans_to_2000():
    """Plan every even target up to 2000; shared by criteria 4, 5 and 3."""
    plans = []
    excluded = []
    for lam in range(0, 2001, 2):
        try:
            plans.append((lam, plan_character(lam)))
        except NotRealizableError as exc:
            assert exc.reason == "residue-244"
            excluded.append(lam)
    return plans, excluded


@lru_cache(maxsize=1)
def _small_family_covers():
    """Modular covers of every family recipe from the sweep with index <= 3."""
    plans, _ = _plans_to_2000()
    covers = []
    for _, plan in plans:
        r = plan.recipe
        if not isinstance(r, FamilyRecipe) or r.index > 3:
            continue
        sys_ = compose_system(family_set(r.index, r.side, r.shift))
        covers.append(modularize(sys_))
    return covers


def test_criterion_01_zero_seed_ternary():
    with criterion(1, "ternary digits of S(0)"):
        got = generate([0], count=2**14).terms
        # n-th term reads n's binary digits as ternary digits
        expect = tuple(int(format(n, "b"), 3) for n in range(2**14))
        assert got == expect
        assert all(v < 3**14 for v in got)


def test_criterion_02_families_near_modular():
    with criterion(2, "family table incl. shifts"):
        for index in (1, 2, 3, 4):
            modulus = 3 ** (index + 1)
            for side in ("A", "B"):
                for shift in range(4):
                    elements = family_set(index, side, shift)
                    report = verify_near_modular(elements, modulus)
                    assert report.ok, (index, side, shift, report)
                    # only unshifted A sets stay inside [0, modulus);
                    # B sets top out at 4*3**index, past the modulus
                    if shift == 0 and side == "A":
                        assert report.verdict == "modular"


def test_criterion_03_modular_tiling():
    with criterion(3, "greedy equals tiled zero sequence"):
        pool = [((0,), 1), ((0, 1), 3), ((0, 2, 5, 6), 9)]
        for cover in _small_family_covers():
            if cover.modulus <= 27 and len(cover.elements) <= 8:
                pool.append((cover.elements, cover.modulus))
        assert len(pool) > 3  # the sweep must contribute some covers
        base = generate([0], count=500).terms
        for elements, modulus in pool:
            report = verify_modular(elements, modulus)
            assert report.verdict == "modular"
            tiled = [a + modulus * s for s in base for a in elements]
            tiled.sort()
            got = generate(elements, count=500).terms
            assert list(got) == tiled[:500], (elements, modulus)


def test_criterion_04_even_character_sweep():
    with criterion(4, "every even target to 2000"):
        plans, excluded = _plans_to_2000()
        assert excluded == [244, 730, 1216, 1702]
        assert len(plans) + len(excluded) == 1001
        for lam, plan in plans:
            cert = verify_plan(plan, depth=6)
            assert cert.character == lam, lam


def test_criterion_05_family_modularization():
    with criterion(5, "family covers verify modular"):
        covers = _small_family_covers()
        assert len(covers) == 321
        for cover in covers:
            report = verify_modular(cover.elements, cover.modulus)
            assert report.verdict == "modular", cover


def test_criterion_06_residue_coverage():
    with criterion(6, "coverage map at 486"):
        cover = residue_coverage(486)
        assert cover.uncovered == (244,)
        entries = {e.residue: e for e in cover.entries}
        for lam in range(0, 487, 2):
            entry = entries[lam % 486]
            if lam % 486 == 244:
                assert entry.kind == "uncovered"
                continue
            plan = plan_character(lam)
            terms = realize_plan(plan, count=192)
            cert = analyze_independence(terms, max_depth=7)
            assert cert.independent and cert.character == lam
            if isinstance(plan.recipe, FamilyRecipe):
                assert entry.kind == "family"
                assert entry.index == plan.recipe.index
                assert entry.side == plan.recipe.side
            else:
                assert entry.kind == "basic"


def test_criterion_07_search_recovers_sets():
    with criterion(7, "search finds published sets"):
        hits_6 = [s.elements for s in search_near_modular(1, 6)]
        assert (0, 2, 5, 6) in hits_6
        hits_12 = [s.elements for s in search_near_modular(1, 12)]
        assert (0, 4, 10, 12) in hits_12
        hits_18 = [s.elements for s in search_near_modular(2, 18)]
        assert family_set(2, "A") in hits_18


def test_criterion_08_odd_character_example():
    with criterion(8, "seed 0,1,7 has character 7"):
        terms = generate((0, 1, 7), count=300).terms
        cert = analyze_independence(terms[:96], max_depth=6)
        assert cert.independent and cert.character == 7
        # tail triples from the last head entry: literal powers of three
        # fail the valuation rule for this head, the greedy terms decide
        basis = Basis((1, 7, 10), 30)
        assert expand_basis(basis, count=300) == list(terms)


def test_criterion_09_property_suites():
    with criterion(9, "round trips, recheck, determinism, exits"):
        # decompose/value round trip, 1000 values per system
        for args in ((1, "A", 0), (2, "B", 0), (1, "B", 2)):
            sys_ = compose_system(family_set(*args))
            values = compose(sys_, count=1000)
            for v in values:
                dec = decompose(v, sys_)
                assert dec.value(sys_) == v

        # certificates survive a from-scratch recheck
        for seed in ((0,), (0, 1, 7), (0, 2, 5, 6)):
            terms = generate(seed, count=96).terms
            cert = analyze_independence(terms, max_depth=6)
            assert cert.independent
            assert recheck_certificate(terms, cert)

        # worker count must not change search output
        solo = search_near_modular(1, 9, workers=1)
        multi = search_near_modular(1, 9, workers=3)
        assert solo == multi

        # exit-code contract
        assert main(["gen", "--seed", "0", "--count", "4"]) == 0
        assert main(["analyze", "--seed", "0,4", "--depth", "6"]) == 1
        assert main(["modset", "--elements", "0,1", "--modulus", "9"]) == 1
        assert main(["search", "--ell", "1", "--max-element", "2"]) == 1
        assert main(["character", "--lambda", "244"]) == 1
        assert main(["character", "--lambda", "9"]) == 2
        assert main(["character", "--lambda", "-2"]) == 2
        assert main(["gen", "--seed", "0,1,2", "--count", "4"]) == 2
        assert main(["search", "--ell", "2", "--max-element", "18",
                     "--budget", "5"]) == 3
        assert main(["gen", "--seed", f"0,{2**61}", "--count", "4"]) == 3


def test_criterion_10_growth_observational(capsys):
    with criterion(10, "chaotic growth survey, report only"):
        sequence = generate((0, 4), limit=10**7)
        terms = sequence.terms
        assert all(a < b for a, b in zip(terms, terms[1:]))
        report = growth_stats(terms, sample_spacing=max(1, len(terms) // 64))
        assert report.samples  # completion is the only requirement
        assert math.isfinite(report.alpha_estimate)
        with capsys.disabled():
            print(
                f"\n  [observational] S(0,4): {len(terms)} terms below 1e7, "
                f"last {terms[-1]}, ratio range "
                f"[{report.ratio_min:.3f}, {report.ratio_max:.3f}], "
                f"alpha estimate {report.alpha_estimate:.3f}"
            )
