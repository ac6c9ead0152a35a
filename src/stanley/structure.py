"""Block-doubling structure analysis for greedy 3-AP-free sequences.

A sequence (a_n) is *independent up to depth K* with character lambda and
threshold chi when, for every chi <= k <= K and every index i < 2**k that
the sequence actually reaches,

    a_{2**k + i} = a_{2**k} + a_i          (block translation)
    a_{2**k}     = 2*a_{2**k - 1} - lambda + 1   (block boundary)

Both identities are finite observations: a certificate always says
"verified up to depth K", never "for all k".  The character lambda is read
off at the deepest verified level and required to be consistent at every
level down to chi; chi is the least level from which everything holds, so
when chi > 0 at least one identity fails at level chi - 1.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence, Union

from .core import GreedySequence, _count_text, _integer, _integers
from .errors import InsufficientTermsError

LOG2_3 = math.log2(3.0)


@dataclass(frozen=True)
class IndependenceCertificate:
    character: int
    chi: int
    repeat_factor: int
    verified_depth: int

    @property
    def independent(self) -> bool:
        return True


@dataclass(frozen=True)
class IdentityViolation:
    """First identity failure found at the deepest requested level.

    kind is "addition" (block translation broke at index ``index``) or
    "character" (the boundary value at the deepest level implies a
    negative character, which no independent sequence can have).
    """

    kind: str
    depth: int
    index: int | None
    expected: int
    actual: int


@dataclass(frozen=True)
class IndependenceReport:
    """Negative analysis outcome: not independent up to the asked depth."""

    violation: IdentityViolation
    verified_depth: int

    @property
    def independent(self) -> bool:
        return False


AnalysisResult = Union[IndependenceCertificate, IndependenceReport]


def _terms_of(seq) -> tuple[int, ...]:
    if isinstance(seq, GreedySequence):
        return seq.terms
    return tuple(_integers(seq))


def character_at(seq, k: int) -> int:
    """Boundary character candidate 2*a_{2**k - 1} - a_{2**k} + 1.

    Purely diagnostic; the value may be negative or drift below the level
    where the block identities lock in.
    """
    k = _integer(k, "depth", 0)
    terms = _terms_of(seq)
    if len(terms) <= 2**k:
        raise InsufficientTermsError(
            f"need more than {_count_text(2**k, 'terms')} to evaluate level {k}"
        )
    return 2 * terms[2**k - 1] - terms[2**k] + 1


def _addition_violation(terms: Sequence[int], k: int) -> IdentityViolation | None:
    base = 2**k
    block = terms[base]
    stop = min(base, len(terms) - base)
    for i in range(stop):
        expected = block + terms[i]
        if terms[base + i] != expected:
            return IdentityViolation("addition", k, i, expected, terms[base + i])
    return None


def _terms_needed(depth: int) -> int:
    return 2**depth + 2 ** (depth - 1)


def analyze_independence(seq, max_depth: int) -> AnalysisResult:
    """Check the block identities up to ``max_depth`` and certify or refute.

    Needs at least 2**max_depth + 2**(max_depth - 1) terms; each level is
    checked over every index the sequence reaches.  Returns a certificate
    (character, chi, repeat factor, verified depth) or a report naming the
    violation at the deepest level that rules the certificate out.
    """
    max_depth = _integer(max_depth, "max_depth", 1)
    terms = _terms_of(seq)
    need = _terms_needed(max_depth)
    if len(terms) < need:
        raise InsufficientTermsError(
            f"depth {max_depth} needs at least {_count_text(need, 'terms')}, got {len(terms)}"
        )

    lam = [2 * terms[2**k - 1] - terms[2**k] + 1 for k in range(max_depth + 1)]
    target = lam[max_depth]

    top = _addition_violation(terms, max_depth)
    if top is not None:
        return IndependenceReport(violation=top, verified_depth=max_depth)
    if target < 0:
        # Characters of independent sequences are nonnegative, so a
        # negative boundary value at the deepest level is a refutation.
        violation = IdentityViolation(
            "character", max_depth, None, 0, target
        )
        return IndependenceReport(violation=violation, verified_depth=max_depth)

    chi = max_depth
    for k in range(max_depth - 1, -1, -1):
        if lam[k] != target or _addition_violation(terms, k) is not None:
            break
        chi = k

    return IndependenceCertificate(
        character=target,
        chi=chi,
        repeat_factor=terms[2**chi],
        verified_depth=max_depth,
    )


@dataclass(frozen=True, slots=True)
class GrowthSample:
    n: int
    term: int
    ratio: float
    running_min: float
    running_max: float


@dataclass(frozen=True)
class GrowthReport:
    spacing: int
    samples: tuple[GrowthSample, ...]
    ratio_min: float
    ratio_max: float
    alpha_estimate: float


def _growth_columns(terms: Sequence[int], spacing: int):
    # The sampled indices, their terms and ratios, then ratio_min,
    # ratio_max and alpha_estimate, as growth_stats reports them; the
    # growth subcommand prints these columns without building samples.
    last = len(terms) - 1
    if last < 1:
        return [], [], [], math.nan, math.nan, math.nan
    indices = set(range(spacing, last + 1, spacing))
    p = 1
    while p <= last:
        indices.add(p)
        p *= 2
    indices.add(last)
    indices.discard(0)
    ns = sorted(indices)
    values = [terms[n] for n in ns]
    ratios = [t / float(n) ** LOG2_3 for n, t in zip(ns, values)]
    tail = bisect_left(ns, ns[-1] / 2)
    return ns, values, ratios, min(ratios), max(ratios), max(ratios[tail:])


def growth_stats(seq, sample_spacing: int = 1) -> GrowthReport:
    """Observational growth report: ratios a_n / n**log2(3).

    Samples every index that is a positive multiple of ``sample_spacing``,
    every power of two in range, and the final index.  Ratios are plain
    floats (the terms themselves stay exact integers); alpha_estimate is
    the maximum ratio over the trailing half of the sampled window, a
    crude stand-in for the limsup.  Descriptive only, no verdict.
    """
    sample_spacing = _integer(sample_spacing, "sample_spacing", 1)
    ns, values, ratios, lo, hi, alpha = _growth_columns(_terms_of(seq), sample_spacing)
    samples = tuple(map(GrowthSample, ns, values, ratios,
                        accumulate(ratios, min), accumulate(ratios, max)))
    return GrowthReport(sample_spacing, samples, lo, hi, alpha)
