"""Bases: sequences whose finite subset sums form greedy 3-AP-free sets.

A basis here is a finite head (b_0, ..., b_m) continued by a tail rule.
The power tail continues with exact powers b_k = 3**(k + shift); the
geometric tail continues the last head entry by factors of three,
b_k = b_m * 3**(k - m), which covers bases whose tail is a constant times
a power of three without being a pure power.

A basis with exact 3-adic valuations (3**(k + shift) divides b_k exactly)
makes every value a + sum(delta_k * b_k) uniquely decomposable, which is
what composition and decomposition below rely on.  Sorting of subset sums
is done by streaming merges so memory stays proportional to the requested
output, and any collision between two distinct subsets is detected and
reported rather than silently deduplicated.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import (
    DuplicateSumError,
    InvalidSystemError,
    NotModularError,
    NotRepresentableError,
)
from .modsets import NearModularSet, verify_modular, verify_near_modular


def _v3(n: int) -> int:
    """Exact exponent of 3 in n (n must be positive)."""
    v = 0
    while n % 3 == 0:
        n //= 3
        v += 1
    return v


@dataclass(frozen=True)
class Basis:
    """Finite head plus a tail rule; element(k) is total and increasing
    past the head."""

    head: tuple[int, ...]
    shift: int = 0
    geometric_tail: bool = False

    def __post_init__(self):
        if self.shift < 0:
            raise ValueError("shift must be nonnegative")
        if any(v < 1 for v in self.head):
            raise ValueError("head entries must be positive")
        if self.geometric_tail and not self.head:
            raise ValueError("geometric tail needs a nonempty head")

    def element(self, k: int) -> int:
        if k < 0:
            raise ValueError("index must be nonnegative")
        if k < len(self.head):
            return self.head[k]
        if self.geometric_tail:
            m = len(self.head) - 1
            return self.head[m] * 3 ** (k - m)
        return 3 ** (k + self.shift)


@dataclass(frozen=True)
class BasisReport:
    valid: bool
    index: int | None = None
    reason: str | None = None


def verify_basis(b: Basis) -> BasisReport:
    """Exact-valuation validity check.

    Valid when 3**(k + shift) divides b_k exactly for every head index k
    and the tail continues with pure powers 3**(k + shift).  A geometric
    tail therefore only passes when the last head entry is itself the
    exact power, which makes both tail rules agree.
    """
    for k, v in enumerate(b.head):
        if _v3(v) != k + b.shift:
            return BasisReport(False, k, "valuation")
    if b.geometric_tail and b.head:
        m = len(b.head) - 1
        if b.head[m] != 3 ** (m + b.shift):
            return BasisReport(False, len(b.head), "tail")
    return BasisReport(True)


def _merge_add(sums: list[int], b: int, count: int | None, limit: int | None) -> list[int]:
    # Sorted merge of sums and sums + b with collision detection.
    # Truncating at count is sound: later merges only add values, which can
    # only push the count-th smallest down, never resurrect a dropped one.
    out: list[int] = []
    i = j = 0
    n = len(sums)
    while i < n or j < n:
        if limit is not None:
            if i < n and sums[i] > limit:
                i = n
            if j < n and sums[j] + b > limit:
                j = n
            if i >= n and j >= n:
                break
        left = sums[i] if i < n else None
        right = sums[j] + b if j < n else None
        if left is None or (right is not None and right < left):
            out.append(right)
            j += 1
        elif right is None or left < right:
            out.append(left)
            i += 1
        else:
            raise DuplicateSumError(f"two distinct subsets sum to {left}")
        if count is not None and len(out) >= count:
            break
    return out


def expand_basis(
    b: Basis,
    count: int | None = None,
    limit: int | None = None,
) -> list[int]:
    """Sorted subset sums of the basis, up to a count or value bound.

    Works for any well-formed basis, valid or not; a genuine collision of
    two distinct subsets raises DuplicateSumError.  With a count bound the
    expansion stops once every unprocessed tail element exceeds the
    count-th smallest sum, which is exact because tail elements increase.
    """
    if count is None and limit is None:
        raise ValueError("need a count bound or a value limit")
    if count is not None and count < 1:
        raise ValueError("count must be positive")

    sums = [0]
    for k in range(len(b.head)):
        v = b.head[k]
        if limit is not None and v > limit:
            continue  # every sum through v would exceed the limit
        sums = _merge_add(sums, v, count, limit)
    k = len(b.head)
    while True:
        v = b.element(k)
        if limit is not None and v > limit:
            break
        if count is not None and len(sums) >= count and v > sums[count - 1]:
            break
        sums = _merge_add(sums, v, count, limit)
        k += 1
    if count is not None:
        return sums[:count]
    return sums


@dataclass(frozen=True)
class ComposedSystem:
    """Near-modular set A paired with a shifted basis.

    Invariants are established by compose_system: |A| = 2**ell, A is
    near-modular with respect to 3**ell, every basis element b_k carries
    3-adic valuation exactly k + ell, and n0 is the least index >= 1 from
    which the tail is exact powers and b_{n0} dominates everything below:
    b_{n0} > max(A) + sum of all earlier basis elements.
    """

    a_set: tuple[int, ...]
    ell: int
    basis: Basis
    n0: int

    @property
    def modulus(self) -> int:
        return 3 ** (self.n0 + self.ell)


def compose_system(
    a_set: Iterable[int],
    ell: int,
    head: tuple[int, ...] = (),
) -> ComposedSystem:
    """Validate and assemble a composed system.

    ``head`` lists explicit leading basis elements; the tail continues
    with exact powers 3**(k + ell).  With ell = 0 and A = (0,) the
    composition is the plain subset-sum expansion of Basis(head).  Raises
    InvalidSystemError on a cardinality or valuation failure, or when A
    is not near-modular.
    """
    if ell < 0:
        raise InvalidSystemError("ell must be nonnegative")
    elements = tuple(sorted(int(v) for v in a_set))
    if len(elements) != 2**ell:
        raise InvalidSystemError(
            f"set size {len(elements)} differs from 2**ell = {2**ell}"
        )
    report = verify_near_modular(elements, 3**ell)
    if report.verdict == "invalid":
        raise InvalidSystemError(
            f"set is not near-modular with respect to 3**{ell}: {report.violation}"
        )
    basis = Basis(head=tuple(head), shift=ell)
    basis_report = verify_basis(basis)
    if not basis_report.valid:
        raise InvalidSystemError(
            f"basis head invalid at index {basis_report.index}"
            f" ({basis_report.reason})"
        )

    # Least n >= 1 with the tail exact from n on and b_n dominating the
    # head sums plus max(A); such an n always exists because the exact
    # powers eventually triple past the (slower) partial sums.
    exact_from = len(basis.head)
    for k in range(len(basis.head) - 1, -1, -1):
        if basis.head[k] != 3 ** (k + ell):
            break
        exact_from = k
    n0 = max(1, exact_from)
    prior = sum(basis.element(k) for k in range(n0))
    while basis.element(n0) <= elements[-1] + prior:
        prior += basis.element(n0)
        n0 += 1
    return ComposedSystem(a_set=elements, ell=ell, basis=basis, n0=n0)


def compose(
    sys: ComposedSystem,
    count: int | None = None,
    limit: int | None = None,
) -> list[int]:
    """Sorted values a + sum(delta_k * b_k), a in A, deltas 0/1 and finite.

    Streams one generator per element of A over the shared subset-sum
    expansion of the basis and k-way merges them; a collision between
    streams violates the uniqueness invariant and raises DuplicateSumError.
    """
    if count is None and limit is None:
        raise ValueError("need a count bound or a value limit")
    tail_sums = expand_basis(sys.basis, count=count, limit=limit)

    def stream(a: int) -> Iterator[int]:
        for s in tail_sums:
            v = a + s
            if limit is not None and v > limit:
                return
            yield v

    out: list[int] = []
    prev: int | None = None
    for v in heapq.merge(*(stream(a) for a in sys.a_set)):
        if prev is not None and v == prev:
            raise DuplicateSumError(f"two distinct decompositions reach {v}")
        out.append(v)
        prev = v
        if count is not None and len(out) >= count:
            break
    return out


def modularize(sys: ComposedSystem) -> NearModularSet:
    """Finite modular cover of the composed sequence.

    L = { a + sum(delta_k * b_k, k < n0) } taken modulo 3**(n0 + ell)
    tiles the full composition: compose(sys) = L + modulus * S({0}).
    The modularity of L is checked exhaustively here and a failure is an
    invariant violation, reported loudly.
    """
    prefix_sums = [0]
    for k in range(sys.n0):
        b = sys.basis.element(k)
        prefix_sums = [s + d for s in prefix_sums for d in (0, b)]
    values = sorted(a + s for a in sys.a_set for s in prefix_sums)
    if len(set(values)) != len(values):
        raise DuplicateSumError("modular cover produced a repeated value")
    modulus = sys.modulus
    report = verify_modular(values, modulus)
    if report.verdict != "modular":
        raise NotModularError(
            f"composition invariant broken: cover fails modularity at "
            f"{modulus}: {report.violation}",
            report=report,
        )
    return NearModularSet(tuple(values), modulus, "modular")


@dataclass(frozen=True)
class Decomposition:
    """value = a + sum over set bits of delta (delta[k] scales b_k)."""

    a: int
    delta: tuple[int, ...]

    def value(self, sys: ComposedSystem) -> int:
        return self.a + sum(
            sys.basis.element(k) for k, d in enumerate(self.delta) if d
        )


def decompose(value: int, sys: ComposedSystem) -> Decomposition:
    """Invert compose: recover (a, delta) for a member value.

    Successive reduction: a is pinned by the residue mod 3**ell (elements
    of A are pairwise distinct there), then each delta_k is pinned modulo
    3**(ell + k + 1) because all later basis elements vanish at that
    modulus while b_k does not.  A value outside the sequence fails one of
    these steps and raises NotRepresentableError.
    """
    if value < 0:
        raise NotRepresentableError(f"{value} is negative")
    base_mod = 3**sys.ell
    residue_of = {a % base_mod: a for a in sys.a_set}
    a = residue_of.get(value % base_mod)
    if a is None:
        raise NotRepresentableError(
            f"{value} has residue {value % base_mod} mod {base_mod}, "
            f"which no set element carries"
        )
    rest = value - a
    if rest < 0:
        raise NotRepresentableError(f"{value} lies below set element {a}")
    deltas: list[int] = []
    # After level k a nonzero rest is a positive multiple of 3**(ell + k + 1)
    # that never grows, so the loop ends within log3(value - a) levels.
    k = 0
    while rest:
        b = sys.basis.element(k)
        step_mod = 3 ** (sys.ell + k + 1)
        r = rest % step_mod
        if r == 0:
            deltas.append(0)
        elif r == b % step_mod:
            deltas.append(1)
            rest -= b
            if rest < 0:
                raise NotRepresentableError(f"{value} is not a member value")
        else:
            raise NotRepresentableError(f"{value} is not a member value")
        k += 1
    return Decomposition(a=a, delta=tuple(deltas))


def recompose(dec: Decomposition, sys: ComposedSystem) -> int:
    """Evaluate a decomposition back to its integer value."""
    return dec.value(sys)
