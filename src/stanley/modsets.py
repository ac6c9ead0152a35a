"""Modular and near-modular 3-AP-free covering sets.

A set A is *near-modular* with respect to N when it contains 0, has no
nontrivial progression modulo N (x = 2y - z mod N with x, y, z in A forces
x = y = z), and covers every residue: each r in [0, N) is 2y - z mod N for
some y >= z in A.  It is *modular* when additionally every element lies in
[0, N).  A modular set tiles its greedy extension: the sequence generated
from seed A is exactly A + N*S where S is the greedy sequence grown from
{0} alone, so expansion reduces to a closed form.

The family table below ships eight base sets, near-modular with respect to
3**(i+1) for i = 1..4.  Shifting the largest element of a family set by
j*3**(i+1) keeps it near-modular and raises the character of the composed
sequence by 2*j*3**(i+1); the character planner leans on exactly that.

Verification is one pass over row blocks of the table 2y - z (mod N),
computed from residues so elements of any size stay exact: O(|A|^2)
cells in O(|A| * B) working memory for blocks of B rows.  A cell is
looked up among the residues in a byte bitmap of N entries when N is at
most |A|^2 and at most the byte size of one block, by binary search
otherwise; covered residues go in a bitmap of min(N, |A|(|A|+1)/2 + 1)
entries.  Verifying a 4096-element cover modulo 3**12 allocates about
14 MB at its peak.

The search keeps, for the elements chosen so far, a byte bitmap of the
residues still open.  Since N = 3**(ell+1) is odd, a candidate c would
close a progression exactly when c mod N lies in {2a - b, (a + b)/2 : a, b
chosen}, so a candidate is checked with one lookup, and admitting an
element closes O(|chosen|) residues.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import _BLOCK_CELLS, VALUE_CAP, _member_mask
from .errors import BudgetExceededError, NotModularError

DEFAULT_NODE_BUDGET = 10**8


@dataclass(frozen=True)
class ModSetViolation:
    """Why verification failed or stopped short.

    kind: "missing-zero", "mod-ap" (witness x, y, z), "uncovered-residue"
    (the residue), or "out-of-range" (offending elements).
    """

    kind: str
    details: tuple[int, ...] = ()


@dataclass(frozen=True)
class ModSetReport:
    verdict: str  # "modular" | "near-modular-only" | "invalid"
    violation: ModSetViolation | None = None

    @property
    def ok(self) -> bool:
        return self.verdict != "invalid"


@dataclass(frozen=True)
class NearModularSet:
    elements: tuple[int, ...]
    modulus: int
    verdict: str | None = None


def _canonical(elements: Iterable[int]) -> tuple[int, ...]:
    values = sorted(int(v) for v in elements)
    if len(set(values)) != len(values):
        raise ValueError("elements must be distinct")
    if values and values[0] < 0:
        raise ValueError("elements must be nonnegative")
    return tuple(values)


def _first_violation(values: Sequence[int], modulus: int) -> ModSetViolation | None:
    # First mod-AP, else the smallest uncovered residue, of sorted distinct
    # values.  Any x = 2y - z (mod N) with (x, y, z) not all equal is a
    # mod-AP, reported first in (y, z) row-major order; residue r is
    # covered by some 2y - z with y at or after z in index order.
    n = len(values)
    res = np.array(
        [v % modulus for v in values],
        dtype=np.int64 if modulus < VALUE_CAP else object,
    )
    order = np.argsort(res, kind="stable")
    ranked = res[order]
    repeated = ranked[1:] == ranked[:-1]
    if repeated.any():
        # Smallest repeated residue: its first two elements give
        # x = 2y - y (mod N) with x != y.
        k = int(np.argmax(repeated))
        y = values[order[k + 1]]
        return ModSetViolation("mod-ap", (values[order[k]], y, y))
    member = _member_mask(ranked, modulus)
    # P covering pairs reach at most P residues, so a gap lies at or below P.
    covered = np.zeros(min(modulus, n * (n + 1) // 2 + 1), dtype=bool)
    index = np.arange(n)
    rows = max(1, _BLOCK_CELLS // n)
    for j0 in range(0, n, rows):
        j1 = min(n, j0 + rows)
        cells = 2 * res[j0:j1, None] - res[None, :]  # indexed [y, z]
        cells %= modulus
        hit = member(cells)
        # With all residues distinct, the diagonal y == z only ever finds
        # the trivial x = y = z solution.
        hit[index[: j1 - j0], index[j0:j1]] = False
        if hit.any():
            i, z = divmod(int(np.argmax(hit)), n)
            x = values[order[np.searchsorted(ranked, cells[i, z])]]
            return ModSetViolation("mod-ap", (x, values[j0 + i], values[z]))
        reached = cells[index[None, :] <= index[j0:j1, None]]
        if len(covered) < modulus:
            reached = reached[reached < len(covered)]
        covered[reached.astype(np.intp, copy=False)] = True
    if covered.all():
        return None
    return ModSetViolation("uncovered-residue", (int(np.argmin(covered)),))


def verify_near_modular(elements: Iterable[int], modulus: int) -> ModSetReport:
    """Check the near-modular conditions for A with respect to ``modulus``.

    Verdict "modular" when A additionally sits inside [0, modulus),
    "near-modular-only" when some element sticks out, "invalid" with the
    first violation otherwise.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    values = _canonical(elements)
    if not values or values[0] != 0:
        return ModSetReport("invalid", ModSetViolation("missing-zero"))
    violation = _first_violation(values, modulus)
    if violation is not None:
        return ModSetReport("invalid", violation)
    verdict = "modular" if values[-1] < modulus else "near-modular-only"
    return ModSetReport(verdict)


def verify_modular(elements: Iterable[int], modulus: int) -> ModSetReport:
    """Like verify_near_modular but elements must also lie in [0, modulus)."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    values = _canonical(elements)
    if not values or values[0] != 0:
        return ModSetReport("invalid", ModSetViolation("missing-zero"))
    outside = tuple(v for v in values if v >= modulus)
    if outside:
        return ModSetReport("invalid", ModSetViolation("out-of-range", outside))
    report = verify_near_modular(values, modulus)
    if report.verdict != "modular":
        return ModSetReport("invalid", report.violation)
    return report


def zero_sequence_value(n: int) -> int:
    """n-th value (0-indexed) of the greedy sequence grown from {0} alone.

    Closed form: write n in binary and read those digits in ternary, so
    the values are exactly the integers whose base-3 digits are 0 or 1.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    value = 0
    power = 1
    while n:
        if n & 1:
            value += power
        power *= 3
        n >>= 1
    return value


def _zero_sequence_stream():
    n = 0
    while True:
        yield zero_sequence_value(n)
        n += 1


def expand_modular(
    elements: Iterable[int],
    modulus: int,
    count: int | None = None,
    limit: int | None = None,
) -> list[int]:
    """Sorted values of A + modulus * S({0}) for a verified modular A.

    Raises NotModularError when verification fails.  Because max(A) <
    modulus, emitting blocks in closed-form order is already sorted.
    """
    if count is None and limit is None:
        raise ValueError("need a count bound or a value limit")
    values = _canonical(elements)
    report = verify_modular(values, modulus)
    if report.verdict != "modular":
        raise NotModularError(
            f"set is not modular with respect to {modulus}: {report.violation}",
            report=report,
        )
    out: list[int] = []
    for base in _zero_sequence_stream():
        offset = modulus * base
        if limit is not None and offset > limit:
            break
        for a in values:
            v = offset + a
            if limit is not None and v > limit:
                break
            out.append(v)
            if count is not None and len(out) >= count:
                return out
        if limit is None and count is not None and len(out) >= count:
            return out
    return out


# Family table: near-modular A-side base sets with respect to 3**(i+1),
# one per index i.  |A| = 2**(i+1) and max(A) = 2*3**i.  The B side is
# 2*A: doubling is a unit modulo 3**(i+1), so it keeps near-modularity,
# and its max is 4*3**i.
_FAMILY_BASE: dict[int, tuple[int, ...]] = {
    1: (0, 2, 5, 6),
    2: (0, 1, 4, 6, 10, 13, 15, 18),
    3: (0, 2, 3, 5, 11, 14, 18, 21, 29, 30, 32, 38, 41, 45, 48, 54),
    4: (
        0, 2, 8, 9, 15, 20, 24, 26,
        54, 56, 62, 63, 69, 74, 78, 80,
        83, 89, 90, 96, 101, 105, 107, 135,
        137, 143, 144, 150, 155, 159, 161, 162,
    ),
}

FAMILY_INDICES = tuple(_FAMILY_BASE)
FAMILY_SIDES = ("A", "B")


def family_modulus(index: int) -> int:
    if index not in FAMILY_INDICES:
        raise ValueError(f"family index must be one of {FAMILY_INDICES}")
    return 3 ** (index + 1)


def family_set(index: int, side: str, shift: int = 0) -> tuple[int, ...]:
    """Family base set with its largest element shifted by shift*3**(i+1)."""
    if index not in FAMILY_INDICES:
        raise ValueError(f"family index must be one of {FAMILY_INDICES}")
    if side not in FAMILY_SIDES:
        raise ValueError("side must be 'A' or 'B'")
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    base = _FAMILY_BASE[index]
    if side == "B":
        base = tuple(2 * v for v in base)
    if shift == 0:
        return base
    return base[:-1] + (base[-1] + shift * family_modulus(index),)


@dataclass(frozen=True)
class FamilyEntry:
    index: int
    side: str
    modulus: int
    elements: tuple[int, ...]


def family_table() -> tuple[FamilyEntry, ...]:
    """All eight shipped base sets, in (index, side) order."""
    return tuple(
        FamilyEntry(i, s, family_modulus(i), family_set(i, s))
        for i in FAMILY_INDICES
        for s in FAMILY_SIDES
    )


# ---------------------------------------------------------------------------
# Exhaustive search for near-modular sets.


def _admit(open_: bytearray, chosen: Sequence[int], y: int, modulus: int) -> bytearray:
    # The open-residue bitmap once a legal y joins chosen: y closes its own
    # residue and, for each chosen z, 2y - z, 2z - y and (y + z)/2, where
    # halving modulo the odd N is multiplying by (N + 1)/2.
    out = bytearray(open_)
    half = (modulus + 1) // 2
    out[y % modulus] = 0
    for z in chosen:
        out[(2 * y - z) % modulus] = 0
        out[(2 * z - y) % modulus] = 0
        out[(y + z) * half % modulus] = 0
    return out


def _open_residues(chosen: Sequence[int], modulus: int) -> bytearray:
    # The bitmap of a progression-free chosen, admitted one at a time.
    open_ = bytearray(b"\x01") * modulus
    for i, y in enumerate(chosen):
        open_ = _admit(open_, chosen[:i], y, modulus)
    return open_


def _covers(chosen: Sequence[int], modulus: int) -> bool:
    covered = bytearray(modulus)
    for idx, y in enumerate(chosen):
        for z in chosen[: idx + 1]:
            covered[(2 * y - z) % modulus] = 1
    return all(covered)


def _branch_search(args) -> tuple[list[tuple[int, ...]], int]:
    # All sets below one prefix and the nodes they took (see
    # search_near_modular); more than budget - spent nodes raises.
    prefix, modulus, size, max_element, budget, spent = args
    node_cap = budget - spent
    chosen = list(prefix)
    # Bitmaps are tiled before the candidate scan so values index them.
    reps = max_element // modulus + 1
    last = max_element % modulus
    found: list[tuple[int, ...]] = []
    nodes = 0

    def count(more: int) -> None:
        nonlocal nodes
        nodes += more
        if nodes > node_cap:
            raise BudgetExceededError(f"node budget exceeded ({budget})")

    def rec(open_: bytearray, slots_left: int) -> None:
        # slots_left >= 1 middle slots still to fill.
        start = chosen[-1] + 1
        stop = max_element - slots_left + 1
        if stop <= start:
            return
        tiled = open_ * reps
        if slots_left > 1:
            count(stop - start)
            for cand in itertools.compress(range(start, stop), tiled[start:stop]):
                child = _admit(open_, chosen, cand, modulus)
                chosen.append(cand)
                rec(child, slots_left - 1)
                chosen.pop()
            return
        # Last middle slot: a legal candidate must also leave max_element
        # legal, so it is read from the bitmap with max_element admitted.
        count(stop - start + tiled.count(1, start, stop))
        if not open_[last]:
            return
        with_max = _admit(open_, chosen, max_element, modulus) * reps
        for cand in itertools.compress(range(start, stop), with_max[start:stop]):
            full = chosen + [cand, max_element]
            if _covers(full, modulus):
                found.append(tuple(full))

    open_ = _open_residues(chosen, modulus)
    if len(chosen) < size - 1:
        rec(open_, size - 1 - len(chosen))
    else:  # the prefix fills every middle slot: one leaf check
        count(1)
        full = chosen + [max_element]
        if open_[last] and _covers(full, modulus):
            found.append(tuple(full))
    return found, nodes


def _worker_count(requested: int, jobs: int) -> int:
    # Processes worth starting: no more than the jobs or the usable CPUs.
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(requested, jobs, cpus))


def search_near_modular(
    ell: int,
    max_element: int,
    budget: int = DEFAULT_NODE_BUDGET,
    workers: int = 1,
    first_only: bool = False,
) -> list[NearModularSet]:
    """All near-modular sets mod 3**(ell+1) of size 2**(ell+1) ending at
    ``max_element``.

    Backtracking over ascending elements with 0 forced first and
    ``max_element`` forced last; partial progressions modulo N are pruned
    as they appear: a candidate is legal when its residue is outside
    {2a - b, (a + b)/2 mod N : a, b chosen}, read from a bitmap of open
    residues.  A candidate for the last middle slot must also leave
    ``max_element`` legal; every full set is then checked for coverage.
    Results come back sorted and duplicate-free, and are identical for
    every worker count: the tree splits at fixed depth-2 prefixes,
    branches are independent, and branch results are merged in prefix
    order.  No more processes start than there are prefixes or usable
    CPUs.  ``first_only`` stops at the lexicographically first hit.

    A node is one candidate examined, plus one leaf check for each legal
    candidate for the last middle slot.  More than ``budget`` nodes raises
    BudgetExceededError; a serial search stops at the budget, while pool
    workers each run to it before the total is checked.
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if budget < 1:
        raise ValueError("budget must be positive")
    if workers < 1:
        raise ValueError("workers must be positive")
    modulus = 3 ** (ell + 1)
    size = 2 ** (ell + 1)
    if max_element < size - 1:
        return []

    # Depth-2 prefix split: fix the two smallest middle elements.  Each v1
    # row adds its candidates in one step; counts only rise, so raising as
    # soon as they pass the budget raises exactly when the total would.
    prefixes: list[tuple[int, int, int]] = []
    nodes_used = 0
    open0 = _open_residues((0,), modulus)
    stop = max_element - (size - 4)
    for v1 in range(1, stop - 1):
        row = stop - v1 - 1 if open0[v1 % modulus] else 0
        nodes_used += 1 + row
        if nodes_used > budget:
            raise BudgetExceededError(f"node budget exceeded ({budget})")
        if not row:
            continue
        open1 = _admit(open0, (0,), v1, modulus)
        for v2 in range(v1 + 1, stop):
            if open1[v2 % modulus]:
                prefixes.append((0, v1, v2))

    workers = _worker_count(workers, len(prefixes))
    results: list[tuple[int, ...]] = []

    if workers == 1 or first_only:
        # Each branch may spend only what the earlier ones left.
        for p in prefixes:
            found, nodes = _branch_search((p, modulus, size, max_element, budget, nodes_used))
            nodes_used += nodes
            results.extend(found)
            if first_only and results:
                results = [min(results)]
                break
    else:
        jobs = [(p, modulus, size, max_element, budget, 0) for p in prefixes]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for found, nodes in pool.map(_branch_search, jobs, chunksize=1):
                nodes_used += nodes
                if nodes_used > budget:
                    raise BudgetExceededError(f"node budget exceeded ({budget})")
                results.extend(found)

    results.sort()
    return [
        NearModularSet(r, modulus, "modular" if r[-1] < modulus else "near-modular-only")
        for r in results
    ]
