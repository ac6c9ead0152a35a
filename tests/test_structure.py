"""Independence analysis and growth reporting."""

import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stanley import (
    IndependenceCertificate,
    IndependenceReport,
    InsufficientTermsError,
    analyze_independence,
    character_at,
    generate,
    GrowthSample,
    growth_stats,
)

from .naive import naive_character_level, recheck_certificate


def _terms(seed, count):
    return generate(seed, count=count).terms


def test_zero_seed_certificate():
    cert = analyze_independence(_terms([0], 100), max_depth=6)
    assert isinstance(cert, IndependenceCertificate)
    assert cert.character == 0
    assert cert.chi == 0
    assert cert.repeat_factor == 1
    assert cert.verified_depth == 6


def test_seed_017_certificate():
    cert = analyze_independence(_terms([0, 1, 7], 100), max_depth=6)
    assert cert.independent
    assert cert.character == 7
    assert cert.chi == 2
    assert cert.repeat_factor == 10


def test_seed_0256_certificate():
    cert = analyze_independence(_terms([0, 2, 5, 6], 100), max_depth=6)
    assert cert.independent
    assert cert.character == 4
    assert cert.chi == 2
    assert cert.repeat_factor == 9


def test_chaotic_seed_is_refuted():
    result = analyze_independence(_terms([0, 4], 200), max_depth=6)
    assert isinstance(result, IndependenceReport)
    assert not result.independent
    assert result.violation.kind in ("addition", "character")
    assert result.verified_depth == 6


@pytest.mark.parametrize("seed", [(0,), (0, 1, 7), (0, 2, 5, 6)])
@pytest.mark.parametrize("depth", [2, 4, 6])
def test_certificates_survive_recheck(seed, depth):
    terms = _terms(seed, 2**depth + 2 ** (depth - 1) + 5)
    cert = analyze_independence(terms, max_depth=depth)
    assert cert.independent
    assert recheck_certificate(terms, cert)


def test_character_at_matches_naive():
    terms = _terms([0, 1, 7], 80)
    for k in range(0, 6):
        assert character_at(terms, k) == naive_character_level(terms, k)


def test_character_at_bounds():
    with pytest.raises(InsufficientTermsError):
        character_at([0, 1, 3], 2)
    with pytest.raises(ValueError):
        character_at([0, 1, 3], -1)


def test_insufficient_terms_raises():
    with pytest.raises(InsufficientTermsError):
        analyze_independence(_terms([0], 50), max_depth=6)  # needs 96
    with pytest.raises(ValueError):
        analyze_independence(_terms([0], 50), max_depth=0)


def test_huge_depths_name_the_term_count_by_its_size():
    # 2**20000 has more digits than int-to-str conversion allows.
    with pytest.raises(InsufficientTermsError,
                       match="^depth 20000 needs at least a 20001-bit count of terms, got 3$"):
        analyze_independence([0, 1, 3], max_depth=20000)
    with pytest.raises(InsufficientTermsError) as exc:
        character_at([0, 1, 3], 20000)
    assert str(exc.value) == "need more than a 20001-bit count of terms to evaluate level 20000"


def test_exact_term_requirement_accepted():
    need = 2**5 + 2**4
    cert = analyze_independence(_terms([0], need), max_depth=5)
    assert cert.independent and cert.verified_depth == 5


def test_violation_pinpoints_first_bad_index():
    # hand-built sequence: perfect doubling except one flipped entry
    base = list(_terms([0], 96))
    base[65] += 1  # inside level 6's checked range? depth 6 needs 96 terms
    result = analyze_independence(base, max_depth=6)
    assert not result.independent
    v = result.violation
    assert v.kind == "addition"
    assert v.depth == 6
    assert v.index == 1
    assert v.actual == v.expected + 1


def test_synthetic_negative_character_refuted():
    # independent-looking doubling with a negative boundary character:
    # a_{2k} chosen so 2*a_{2k-1} - a_{2k} + 1 < 0 at the top level
    terms = [0, 1]
    for _ in range(6):
        block = 2 * terms[-1] + 2  # forces lambda = -1 at every level
        terms += [block + t for t in terms]
    result = analyze_independence(terms, max_depth=6)
    assert not result.independent
    assert result.violation.kind == "character"
    assert result.violation.actual < 0


@given(st.sampled_from([(0,), (0, 1, 7), (0, 2, 5, 6), (0, 1, 4, 9, 10, 13)]),
       st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_certified_depth_never_overclaims(seed, depth):
    terms = _terms(seed, max(2**depth + 2 ** (depth - 1), len(seed)))
    result = analyze_independence(terms, max_depth=depth)
    if result.independent:
        assert recheck_certificate(terms, result)


def test_growth_report_shape():
    seq = generate([0], count=128)
    report = growth_stats(seq, sample_spacing=16)
    ns = [s.n for s in report.samples]
    assert ns == sorted(ns)
    assert 64 in ns and 127 in ns  # powers of two and the last index
    assert all(n % 16 == 0 or n & (n - 1) == 0 or n == 127 for n in ns)
    assert report.ratio_min <= report.ratio_max
    assert math.isfinite(report.alpha_estimate)


def test_growth_powers_of_two_ratio_for_zero_seed():
    # a_{2^k} = 3^k for the zero seed, so the ratio is exactly 1 there
    report = growth_stats(generate([0], count=600), sample_spacing=100)
    by_n = {s.n: s for s in report.samples}
    for n in (64, 128, 256, 512):
        assert by_n[n].ratio == pytest.approx(1.0)


def test_growth_running_extrema():
    report = growth_stats(generate([0, 4], count=200), sample_spacing=7)
    lo, hi = math.inf, -math.inf
    for s in report.samples:
        lo = min(lo, s.ratio)
        hi = max(hi, s.ratio)
        assert s.running_min == pytest.approx(lo)
        assert s.running_max == pytest.approx(hi)
    assert report.ratio_min == pytest.approx(lo)
    assert report.ratio_max == pytest.approx(hi)


def test_growth_alpha_uses_trailing_half():
    report = growth_stats(generate([0], count=100), sample_spacing=10)
    cut = report.samples[-1].n / 2
    expected = max(s.ratio for s in report.samples if s.n >= cut)
    assert report.alpha_estimate == expected


def test_growth_sample_is_a_frozen_slotted_record():
    sample = growth_stats(generate([0, 4], count=20), sample_spacing=3).samples[2]
    assert [f.name for f in dataclasses.fields(GrowthSample)] == [
        "n", "term", "ratio", "running_min", "running_max"]
    twin = GrowthSample(sample.n, sample.term, sample.ratio, sample.running_min,
                        sample.running_max)
    assert sample == twin and hash(sample) == hash(twin)
    assert sample != dataclasses.replace(sample, term=sample.term + 1)
    assert not hasattr(sample, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        sample.ratio = 0.0
    assert pickle.loads(pickle.dumps(sample)) == sample


def test_growth_degenerate():
    report = growth_stats(generate([0], count=1))
    assert report.samples == ()
    assert math.isnan(report.alpha_estimate)
    with pytest.raises(ValueError):
        growth_stats(generate([0], count=4), sample_spacing=0)
