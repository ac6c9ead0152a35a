"""Bases: sequences whose finite subset sums form greedy 3-AP-free sets.

A basis here is a finite head (b_0, ..., b_{m-1}) continued by one tail
rule: the tail starts at t and triples, b_k = t * 3**(k - m).  The default
start t = 3**m gives the exact powers 3**k; t = 3**(m + s) gives the
powers shifted by s, and t = 3 * b_{m-1} continues the last head entry by
factors of three.

A basis with exact 3-adic valuations (3**(k + s) divides b_k exactly)
makes every value a + sum(delta_k * b_k) uniquely decomposable, which is
what composition and decomposition below rely on.

Every expansion is one kernel: the sorted sums s + sum(delta_k * e_k) of
a start set and a run of elements e_k, grown one element at a time, each
step a merge of two sorted runs cut at the requested bound.  Memory stays
proportional to the requested output, and any collision between two
distinct sums is detected and reported rather than silently
deduplicated.  expand_basis starts from {0} and compose from A, both over
the basis; expand_modular from a modular A over N, 3N, 9N, ..., whose
subset sums are N * S({0}).  modularize's cover, the sums of A over b_0,
..., b_{n0-1}, comes from the level certificate of modsets, which builds
it in numpy and proves it modular.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Iterator

from .core import _bounds, _integer, _integers
from .errors import (
    BudgetExceededError,
    DuplicateSumError,
    InvalidSystemError,
    NotModularError,
    NotRepresentableError,
)
from .modsets import NearModularSet, _cover_certificate, verify_modular, verify_near_modular

# Largest cover modularize builds.  Its certificate is linear in the
# modulus, 0.2 s for 2**15 elements on a 2-core x86 host, but
# verify_plan's greedy sieve check of that cover takes about 2.2 s, and
# the sieve's pair marks grow fourfold per doubling.
COVER_CAP = 2**15


def _v3(n: int) -> int:
    """Exact exponent of 3 in n (n must be positive)."""
    v = 0
    while n % 3 == 0:
        n //= 3
        v += 1
    return v


@dataclass(frozen=True)
class Basis:
    """Finite head continued by a tail that triples from ``tail_start``
    (default 3**len(head), the powers 3**k): element k is head[k], then
    tail_start * 3**(k - len(head))."""

    head: tuple[int, ...]
    tail_start: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "head", tuple(_integers(self.head, "head entries", least=1)))
        start = 3 ** len(self.head) if self.tail_start is None else self.tail_start
        object.__setattr__(self, "tail_start", _integer(start, "tail_start", 1))

    def element(self, k: int) -> int:
        k = _integer(k, "index", 0)
        if k < len(self.head):
            return self.head[k]
        return self.tail_start * 3 ** (k - len(self.head))


@dataclass(frozen=True)
class BasisReport:
    valid: bool
    index: int | None = None
    reason: str | None = None


def verify_basis(b: Basis) -> BasisReport:
    """Exact-valuation validity check.

    The shift is read from the tail, s = max(0, v3(tail_start) - len(head)).
    Valid when 3**(k + s) divides b_k exactly for every head index k
    ("valuation" at the first k that fails) and the tail is the pure
    powers 3**(k + s) ("tail" at index len(head) otherwise).
    """
    m = len(b.head)
    s = max(0, _v3(b.tail_start) - m)
    for k, v in enumerate(b.head):
        if _v3(v) != k + s:
            return BasisReport(False, k, "valuation")
    if b.tail_start != 3 ** (m + s):
        return BasisReport(False, m, "tail")
    return BasisReport(True)


def _merge_add(sums: list[int], b: int, count: int | None, limit: int | None) -> list[int]:
    # Sorted merge of sums and sums + b with collision detection; sorted()
    # merges the two runs in C.  Truncating at count is sound: later merges
    # only add values, which can only push the count-th smallest down,
    # never resurrect a dropped one.  A collision counts when its first
    # copy is among the first count values.
    out = sorted(sums + [s + b for s in sums])
    if limit is not None:
        del out[bisect_right(out, limit):]
    if count is not None:
        del out[count + 1:]
    if len(set(out)) != len(out):
        value = next(v for v, w in zip(out, out[1:]) if v == w)
        raise DuplicateSumError(f"two distinct subsets sum to {value}")
    return out[:count]


def _expand(
    start: Iterable[int],
    head: Iterable[int],
    tail: Iterable[int],
    count: int | None,
    limit: int | None,
) -> list[int]:
    # Sorted sums s + sum(delta_k * e_k) of a nonnegative start set and the
    # elements e_k of head, then tail, up to the bounds; a collision raises
    # DuplicateSumError.  A head element is skipped only past the limit.
    # The tail increases, so it stops at the first element past the limit
    # or past the count-th smallest sum: every sum through that element or
    # a later one is at least as large.
    sums = sorted(start)
    if limit is not None:
        del sums[bisect_right(sums, limit):]
    for v in head:
        if limit is None or v <= limit:
            sums = _merge_add(sums, v, count, limit)
    for v in tail:
        if limit is not None and v > limit:
            break
        if count is not None and len(sums) >= count and v > sums[count - 1]:
            break
        sums = _merge_add(sums, v, count, limit)
    return sums[:count]


def _tail(start: int) -> Iterator[int]:
    # start, 3 * start, 9 * start, ...: the tail of every expansion.
    while True:
        yield start
        start *= 3


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
    count, limit = _bounds(count, limit)
    return _expand((0,), b.head, _tail(b.tail_start), count, limit)


@dataclass(frozen=True)
class ComposedSystem:
    """Near-modular set A of size 2**ell composed with the basis
    Basis(head, 3**(len(head) + ell)), checked as it is built, so no
    invalid system exists.

    ell is read off the set as log2 |A|.  A must be near-modular with
    respect to 3**ell and every b_k have 3-adic valuation exactly k + ell;
    InvalidSystemError names the first check that fails, or a size that is
    not a power of two.  n0 is derived: the least index >= 1 from which the
    tail is exact powers and b_{n0} > max(A) + sum of all earlier basis
    elements.  A = (0,), so ell = 0, composes the plain subset-sum
    expansion of Basis(head).  The basis keeps ``head``: fields, repr and
    equality are (a_set, basis, n0).
    """

    a_set: tuple[int, ...]
    head: InitVar[Iterable[int]] = ()
    basis: Basis = field(init=False)
    n0: int = field(init=False)

    def __post_init__(self, head: Iterable[int]):
        elements = tuple(sorted(_integers(self.a_set)))
        ell = len(elements).bit_length() - 1
        if not elements or len(elements) != 2**ell:
            raise InvalidSystemError(f"set size {len(elements)} is not a power of two")
        report = verify_near_modular(elements, 3**ell)
        if report.verdict == "invalid":
            raise InvalidSystemError(
                f"set is not near-modular with respect to 3**{ell}: {report.violation}"
            )
        head = tuple(head)
        basis = Basis(head, 3 ** (len(head) + ell))
        basis_report = verify_basis(basis)
        if not basis_report.valid:
            raise InvalidSystemError(
                f"basis head invalid at index {basis_report.index}"
                f" ({basis_report.reason})"
            )

        # The n0 rule; n0 always exists, as the exact powers eventually
        # triple past the (slower) partial sums.
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
        object.__setattr__(self, "a_set", elements)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "n0", n0)

    @property
    def modulus(self) -> int:
        """b_{n0}, which the n0 rule makes 3**(n0 + ell), 2**ell = |A|."""
        return self.basis.element(self.n0)


# dataclasses.replace reads the InitVar head off the instance, so a
# replaced system is rebuilt, and checked, from its own head.
ComposedSystem.head = property(lambda self: self.basis.head)


def compose_system(a_set: Iterable[int], *, head: tuple[int, ...] = ()) -> ComposedSystem:
    """ComposedSystem(a_set, head): the system, with its checks."""
    return ComposedSystem(a_set, head)


def compose(
    sys: ComposedSystem,
    count: int | None = None,
    limit: int | None = None,
) -> list[int]:
    """Sorted values a + sum(delta_k * b_k), a in A, deltas 0/1 and finite.

    The expansion from A over the basis; a value reached twice violates
    the uniqueness invariant and raises DuplicateSumError.
    """
    count, limit = _bounds(count, limit)
    return _expand(sys.a_set, sys.basis.head, _tail(sys.basis.tail_start), count, limit)


def modularize(sys: ComposedSystem) -> NearModularSet:
    """Finite modular cover of the composed sequence.

    L = { a + sum(delta_k * b_k, k < n0) } taken modulo b_{n0} tiles the
    full composition: compose(sys) = L + modulus * S({0}).  The level
    certificate of modsets builds L and proves it modular, exactly; the
    system's invariants are what make it accept, so a refusal raises
    NotModularError naming the modulus.  A cover of more than COVER_CAP
    elements raises BudgetExceededError before any sum is built.
    """
    size = len(sys.a_set) << sys.n0
    if size > COVER_CAP:
        raise BudgetExceededError(
            f"cover of {size} elements exceeds the cap of {COVER_CAP}"
        )
    prefix = [sys.basis.element(k) for k in range(sys.n0)]
    values = _cover_certificate(sys.a_set, prefix, sys.modulus)
    if values is None:
        raise NotModularError(
            f"the level certificate refuses the cover modulo {sys.modulus}"
        )
    return NearModularSet(values, sys.modulus, "modular")


def expand_modular(
    elements: Iterable[int],
    modulus: int,
    count: int | None = None,
    limit: int | None = None,
) -> list[int]:
    """Sorted values of A + modulus * S({0}) for a verified modular A.

    S({0}) is the set of subset sums of the powers of three, so this is
    the expansion from A over modulus * 3**k.  Raises NotModularError when
    verification fails.
    """
    modulus = _integer(modulus, "modulus", 1)  # the powers must be Python ints
    count, limit = _bounds(count, limit)
    values = _integers(elements)  # read once, for the check and the merge
    report = verify_modular(values, modulus)
    if report.verdict != "modular":
        raise NotModularError(
            f"set is not modular with respect to {modulus}: {report.violation}",
            report=report,
        )
    return _expand(values, (), _tail(modulus), count, limit)


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

    Successive reduction: a is pinned by the residue mod
    N0 = tail_start // 3**len(head), which the system makes 3**ell with
    ell = log2 |A| (elements of A are pairwise distinct there), then
    each delta_k is pinned modulo N0 * 3**(k + 1) because all later basis
    elements vanish at that modulus while b_k does not.  A value outside
    the sequence fails one of these steps and raises NotRepresentableError.
    """
    value = _integer(value, "value")
    if value < 0:
        raise NotRepresentableError(f"{value} is negative")
    base_mod = sys.basis.tail_start // 3 ** len(sys.basis.head)
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
    # After level k a nonzero rest is a positive multiple of N0 * 3**(k + 1)
    # that never grows, so the loop ends within log3(value - a) levels.
    step_mod = base_mod
    while rest:
        b = sys.basis.element(len(deltas))
        step_mod *= 3
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
    return Decomposition(a=a, delta=tuple(deltas))
