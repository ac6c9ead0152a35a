"""Modular and near-modular 3-AP-free covering sets.

A set A is *near-modular* with respect to N when it contains 0, has no
nontrivial progression modulo N (x = 2y - z mod N with x, y, z in A forces
x = y = z), and covers every residue: each r in [0, N) is 2y - z mod N for
some y >= z in A.  It is *modular* when additionally every element lies in
[0, N).  A modular set tiles its greedy extension: the sequence generated
from seed A is exactly A + N*S where S is the greedy sequence grown from
{0} alone: the subset sums of the powers of three, which
basis.expand_modular merges in like any basis.

The family table below ships eight base sets, near-modular with respect to
3**(i+1) for i = 1..4.  Shifting the largest element of a family set by
j*3**(i+1) keeps it near-modular and raises the character of the composed
sequence by 2*j*3**(i+1); the character planner leans on exactly that.

Verification is one pass over row blocks of the table 2y - z (mod N),
computed from residues so elements of any size stay exact: O(|A|^2)
cells in O(|A| * B) working memory for blocks of B rows.  Each cell is
lifted to 2y - z + N, which lies in [0, 3N), and looked up among the
residues tiled three times (r, r + N, r + 2N).  One rule in core picks
the layout and the block rows: a byte bitmap of 3N entries when 3N is at
most 9|A|^2 and at most 64 MiB, binary search otherwise.  The covering
cells, z at or before y, are the columns before a block and a small
triangle inside it.  Beside a bitmap lookup they go in a bitmap over
[0, 3N) whose thirds fold together at the end; beside binary search they
are reduced mod N into a bitmap of min(N, |A|(|A|+1)/2 + 1) entries.
Peaks: about 12 MB for a 4096-element cover modulo 3**12, 102 MiB (two
3N-byte maps) for a 32768-element one modulo 3**15.

A cover L = A + {sum(delta_k * b_k)} built level by level, L' = L u (L
+ b), has a certificate linear in N, _cover_certificate, that
basis.modularize uses in place of the table.  A pair y = y' + d*b, z =
z' + e*b gives 2y - z = (2y' - z') + (2d - e)*b with 2d - e in {0, 2,
-1, 1}, so the counts of 2y - z mod N over all pairs obey cnt' = sum of
cnt rotated by c*b over those four c, starting from A's |A|^2 table;
kept saturated at 2, the classes 0, 1 and >= 2 stay exact.  Since (x, x)
lands on x, cnt = 1 at every element of L says exactly that L has
distinct residues and no mod-AP.  Coverage needs pairs with y >= z.  A
map O of residues that such pairs reach goes to O' = O u (O + b) u (O +
2b): the ordered pairs of each copy stay ordered, and an ordered pair
(y', z') gives the ordered pair (y' + b, z').  Other pairs are left out,
so O never states a residue that no ordered pair reaches, and a full O
proves coverage.  It is enough for a composed system: when b_k has
3-adic valuation exactly k + ell, the sums of c_k * b_k with c_k in {0,
1, 2} are distinct mod N, so they are the multiples of 3**ell, and O
ends full exactly when A's ordered pairs reach every residue mod 3**ell,
which near-modularity of A asks.  The certificate builds the sums and
returns them, sorted, as modularize's cover only when all lie in [0, N)
(so residues order as the sums do) with 0 among them, cnt is 1 on each
(so no two collide), and O is full.  A composed system's constructor
checks the invariants that make all of this hold, so modularize takes
every cover from here, and a refusal raises NotModularError.  Each level
is four rotations of N-byte maps, two slice operations each, and one
saturating minimum, over five maps in all: 4096 elements modulo 3**12
take 2-3 ms where the table takes about 55, and 32768 modulo 3**15 take
0.2 s in 71 MiB on a 2-core x86 host.

The search keeps the residues still open for the elements chosen so
far as the bits of an int.  Since N = 3**(ell+1) is odd, a candidate c
would close a progression exactly when c mod N lies in {2a - b, (a + b)/2
: a, b chosen}.  A new element y closes -A, 2A and A(N + 1)/2, for the
chosen A, moved by 2y, -y and y(N + 1)/2: rotations of three more masks,
stored doubled so that one shift rotates each.  So admitting y costs a
few int operations, whatever |A|.  The open residues depend only on the
set admitted, not on the order (a residue is closed exactly when it
would complete a progression with two admitted elements), so the
largest element, forced into every set, is admitted at the root with 0.
A candidate legal after it is then exactly one that keeps it legal, the
walk reaches the same sets in the same ascending order, and no subtree
is entered whose largest element is already closed.  Nor is one whose
open values W in [start, max_element) cannot fill the slots left:
later elements are distinct values of W, since residues only close.
With p the last element chosen, c and 2c - p cannot both join (p, c,
2c - p is a progression), nor c and (c + max_element)/2.  A completion
takes at most one value of each pair in a matching, so a slot returns
when |W| less the pairs a greedy ascending scan matches is below the
slots left; the walk still reaches the same sets in the same order.
The tree is split once, at the first middle element v1: one branch (0,
v1) per v1 legal with 0 and the largest element, made as it is handed
out and run in order by _branches, the runner explore_basic_characters
shares: in this process, or in it and helpers forked beside it that
claim branches from a shared count, no more processes in all than
branches or usable CPUs, and none left once the runner returns, raises
or is closed.  Every branch reports its nodes to one counter, shared
memory only when helpers exist, and raises once the counter as last
read plus its nodes not yet added pass the budget.
A first-only search runs in this process and stops at the first hit,
counting nodes only up to it.  The last middle slot, whose
candidates cost only a coverage check, reads them from the open
residues one period of N at a time, so a wide slot costs O(N) bits per
candidate, not its width.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import multiprocessing
import os
import signal
import types
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import _integer, _integers, _member_mask
from .errors import BudgetExceededError

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
    values = sorted(_integers(elements, least=0))
    if len(set(values)) != len(values):
        raise ValueError("elements must be distinct")
    return tuple(values)


def _first_violation(values: Sequence[int], modulus: int) -> ModSetViolation | None:
    # First mod-AP, else the smallest uncovered residue, of sorted distinct
    # values.  Any x = 2y - z (mod N) with (x, y, z) not all equal is a
    # mod-AP, reported first in (y, z) row-major order; residue r is
    # covered by some 2y - z with y at or after z in index order.
    n = len(values)
    # Cells are lifted to 2y - z + N in [0, 3N), which must fit in int64.
    res = np.array(
        [v % modulus for v in values],
        dtype=np.int64 if 3 * modulus < 2**63 else object,
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
    # A lifted cell is a residue mod N exactly when it is one of the
    # residues tiled three times over [0, 3N).
    tiled = np.concatenate([ranked, ranked + modulus, ranked + 2 * modulus])
    member, bitmap, rows = _member_mask(tiled, 3 * modulus, n)
    # Covered residues follow the lookup: beside a bitmap, lifted cells go
    # in a bitmap over [0, 3N) whose thirds fold together at the end; beside
    # binary search, cells are reduced mod N and, since P covering pairs
    # reach at most P residues, only residues up to P are kept.
    size = 3 * modulus if bitmap else min(modulus, n * (n + 1) // 2 + 1)
    covered = np.zeros(size, dtype=bool)
    block = np.empty((rows, n), dtype=res.dtype)
    for j0 in range(0, n, rows):
        j1 = min(n, j0 + rows)
        cells = block[: j1 - j0]  # indexed [y, z]
        np.subtract((2 * res[j0:j1] + modulus)[:, None], res, out=cells)
        hit = member(cells)
        # With all residues distinct, the diagonal y == z only ever finds
        # the trivial x = y = z solution.
        np.fill_diagonal(hit[:, j0:j1], False)
        if hit.any():
            i, z = divmod(int(np.argmax(hit)), n)
            x = values[order[np.searchsorted(ranked, cells[i, z] % modulus)]]
            return ModSetViolation("mod-ap", (x, values[j0 + i], values[z]))
        # Covering cells have z at or before y: the rectangle of columns
        # before the block, and a triangle within it.
        for reached in (cells[:, :j0].ravel(), cells[:, j0:j1][np.tri(j1 - j0, dtype=bool)]):
            if not bitmap:
                reached = reached % modulus
                reached = reached[reached < size]
            covered[reached.astype(np.intp, copy=False)] = True
    if bitmap:
        covered = covered[:modulus] | covered[modulus : 2 * modulus] | covered[2 * modulus :]
    if covered.all():
        return None
    return ModSetViolation("uncovered-residue", (int(np.argmin(covered)),))


def _rotate_into(op, out: np.ndarray, base: np.ndarray, table: np.ndarray, shift: int) -> None:
    # out[v] = op(base[v], table[(v - shift) % N]) in two slice operations.
    n = len(table)
    shift %= n
    op(base[shift:], table[: n - shift], out=out[shift:])
    op(base[:shift], table[n - shift :], out=out[:shift])


def _cover_certificate(
    a_set: Sequence[int], steps: Sequence[int], modulus: int
) -> tuple[int, ...] | None:
    # The sorted sums a + sum(delta_k * steps[k]), as Python ints, when it
    # proves them modular with respect to ``modulus``; None decides
    # nothing.  The level recursion and its proof are in the module
    # docstring.  n elements reach at most n(n + 1)/2 residues, which also
    # keeps every sum below modulus inside int64.
    n = len(a_set) << len(steps)
    if (
        modulus > n * (n + 1) // 2
        or min(a_set) != 0
        or min(steps, default=1) < 1
        or max(a_set) + sum(steps) >= modulus
    ):
        return None
    sums = np.array(a_set, dtype=np.int64)
    cells = (2 * sums[:, None] - sums) % modulus
    counts, spare = np.zeros(modulus, np.uint8), np.empty(modulus, np.uint8)
    twos = np.full(modulus, 2, np.uint8)  # a scalar 2 makes minimum 20 times slower
    residues, hits = np.unique(cells, return_counts=True)
    counts[residues] = np.minimum(hits, 2)
    ordered, ordered_spare = np.zeros(modulus, bool), np.empty(modulus, bool)
    ordered[cells[sums[:, None] >= sums]] = True
    # counts holds the pair counts rotated back by lag: cnt[v] is
    # counts[v - lag].  The level's c run over {0, 2, -1, 1} = {0, 1} +
    # {0, -2} + 1, so two rotations, by b and by -2b, do it, and the last b
    # goes into lag.
    lag = 0
    for b in steps:
        _rotate_into(np.bitwise_or, ordered_spare, ordered, ordered, b)
        _rotate_into(np.bitwise_or, ordered_spare, ordered_spare, ordered, 2 * b)
        _rotate_into(np.add, spare, counts, counts, b)
        _rotate_into(np.add, counts, spare, spare, -2 * b)
        np.minimum(counts, twos, out=counts)
        lag += b
        ordered, ordered_spare = ordered_spare, ordered
        sums = np.concatenate([sums, sums + b])
    if (counts[(sums - lag) % modulus] == 1).all() and ordered.all():
        return tuple(np.sort(sums).tolist())
    return None


def _verify(elements: Iterable[int], modulus: int, near: bool) -> ModSetReport:
    # Both verifications: 0 must be present, every element must lie below
    # the modulus unless ``near``, and then no mod-AP or uncovered residue.
    modulus = _integer(modulus, "modulus", 1)
    values = _canonical(elements)
    if not values or values[0] != 0:
        return ModSetReport("invalid", ModSetViolation("missing-zero"))
    outside = tuple(v for v in values if v >= modulus)
    if outside and not near:
        return ModSetReport("invalid", ModSetViolation("out-of-range", outside))
    violation = _first_violation(values, modulus)
    if violation is not None:
        return ModSetReport("invalid", violation)
    return ModSetReport("near-modular-only" if outside else "modular")


def verify_near_modular(elements: Iterable[int], modulus: int) -> ModSetReport:
    """Check the near-modular conditions for A with respect to ``modulus``.

    Verdict "modular" when A additionally sits inside [0, modulus),
    "near-modular-only" when some element sticks out, "invalid" with the
    first violation otherwise.
    """
    return _verify(elements, modulus, near=True)


def verify_modular(elements: Iterable[int], modulus: int) -> ModSetReport:
    """Like verify_near_modular but elements must also lie in [0, modulus)."""
    return _verify(elements, modulus, near=False)


def zero_sequence_value(n: int) -> int:
    """n-th value (0-indexed) of the greedy sequence grown from {0} alone.

    Closed form: write n in binary and read those digits in ternary, so
    the values are exactly the integers whose base-3 digits are 0 or 1.
    """
    n = _integer(n, "index", 0)
    return sum(3**k for k in range(n.bit_length()) if n >> k & 1)


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
    index = _integer(index, "family index")
    if index not in FAMILY_INDICES:
        raise ValueError(f"family index must be one of {FAMILY_INDICES}")
    return 3 ** (index + 1)


def family_set(index: int, side: str, shift: int = 0) -> tuple[int, ...]:
    """Family base set with its largest element shifted by shift*3**(i+1)."""
    modulus = family_modulus(index)
    if side not in FAMILY_SIDES:
        raise ValueError("side must be 'A' or 'B'")
    shift = _integer(shift, "shift", 0)
    base = _FAMILY_BASE[index]
    if side == "B":
        base = tuple(2 * v for v in base)
    return base[:-1] + (base[-1] + shift * modulus,)


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


@functools.lru_cache(maxsize=1)
def _residue_steps(modulus: int, count: int) -> tuple:
    # N, the doubled bit 1 | 1 << N, and per residue r < count: the right
    # shifts that rotate the masks by 2r, -r and r(N + 1)/2, and the bits
    # -r, 2r and r(N + 1)/2 that admitting r adds to them.
    half = (modulus + 1) // 2
    table = []
    for r in range(count):
        neg, two, mid = -r % modulus, 2 * r % modulus, r * half % modulus
        table.append((modulus - two, modulus - neg, modulus - mid, neg, two, mid))
    return modulus, 1 | 1 << modulus, tuple(table)


def _admit(state: tuple[int, int, int, int], y: int, steps) -> tuple[int, int, int, int]:
    # The state (open residues, reflections -z, doubles 2z, halves
    # z(N + 1)/2 of the chosen z) once a legal y joins.  The last three
    # hold each bit at r and r + N, so a right shift by N - k rotates by k.
    # y closes 2y - z, 2z - y and (y + z)/2, and its own residue: -y is
    # among the reflections it rotates by 2y.
    open_, refl, dbl, half = state
    modulus, unit, table = steps
    rot_r, rot_d, rot_h, neg, two, mid = table[y % modulus]
    refl |= unit << neg
    closed = open_ & (refl >> rot_r | dbl >> rot_d | half >> rot_h)
    return open_ ^ closed, refl, dbl | unit << two, half | unit << mid


def _open_residues(chosen: Sequence[int], steps) -> tuple[int, int, int, int]:
    # The state of a progression-free chosen, admitted one at a time.
    state = ((1 << steps[0]) - 1, 0, 0, 0)
    for y in chosen:
        state = _admit(state, y, steps)
    return state


def _window(open_: int, start: int, stop: int, modulus: int):
    # The values in [start, stop) with open residues, ascending: the
    # residues rotated to start's, peeled one period of N at a time.
    ring = (open_ | open_ << modulus) >> start % modulus & (1 << modulus) - 1
    for base in range(start, stop, modulus):
        bits = ring if stop - base >= modulus else ring & (1 << stop - base) - 1
        while bits:
            rest = bits & bits - 1
            yield base + (bits ^ rest).bit_length() - 1
            bits = rest


def _covers(chosen: Sequence[int], modulus: int) -> bool:
    covered = bytearray(modulus)
    for idx, y in enumerate(chosen):
        for z in chosen[: idx + 1]:
            covered[(2 * y - z) % modulus] = 1
    return all(covered)


# A search branch adds its nodes to its counter every _SHARE_NODES nodes,
# before it raises, and when it ends.
_SHARE_NODES = 1 << 14
_AHEAD = 64  # jobs per worker claimed past the one read next


def _branches(fn, jobs: Iterable, count: int, workers: int, spent: int = 0):
    # fn(job, counter) for each of the count jobs, in job order, where
    # counter.value holds the nodes spent (spent at first) under
    # counter.get_lock().  At most one worker per job and usable CPU is
    # worth having, and helpers need os.fork.  With one worker the jobs run
    # in this process against a plain counter, else in _forked.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, count, cpus or 1) if hasattr(os, "fork") else 1
    if workers <= 1:
        counter = types.SimpleNamespace(value=spent, get_lock=contextlib.nullcontext)
        return (fn(job, counter) for job in jobs)
    return _forked(fn, jobs, count, workers, multiprocessing.Value("q", spent))


def _forked(fn, jobs: Iterable, count: int, workers: int, counter):
    # The runner with workers - 1 helpers forked beside this process,
    # which is a worker too.  A worker claims the next job index from a
    # shared count under one of _AHEAD * workers tokens, which come back
    # as results are yielded, and walks its own copy of jobs to it.
    # Helpers send (index, result, error) down a pipe each; this process
    # reads them between its own jobs.  Helpers leave through os._exit, so
    # no buffer or exit handler of the caller runs twice, and one whose
    # caller is gone stops at its next claim.  A raise or an early close
    # kills and reaps every helper.
    from multiprocessing.connection import wait  # only pooled runs pay for it

    caller, source, taken = os.getpid(), iter(jobs), 0
    claimed = multiprocessing.Value("q", 0)
    tokens = multiprocessing.Semaphore(_AHEAD * workers)

    def claim(block: bool) -> int:
        # The next job index, count or more once none is left, or count
        # when no token is to be had: at once in this process, in a helper
        # only once its caller is gone.
        while not tokens.acquire(block, 1):
            if not block or os.getppid() != caller:
                return count
        with claimed.get_lock():
            claimed.value += 1
            return claimed.value - 1

    def run(index: int) -> tuple:
        # (result, error) of job index, walked to from the last one taken.
        nonlocal taken
        job = next(itertools.islice(source, index - taken, None))
        taken = index + 1
        try:
            return fn(job, counter), None
        except Exception as exc:
            return None, exc

    pipes: dict = {}  # read end -> helper pid
    done: dict = {}  # index -> (result, error)
    try:
        for _ in range(workers - 1):
            read, write = multiprocessing.Pipe(duplex=False)
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    while (index := claim(True)) < count:
                        write.send((index, *run(index)))
                    status = 0
                finally:
                    os._exit(status)
            write.close()
            pipes[read] = pid
        for want in range(count):
            while want not in done:
                mine = claim(False)
                if mine < count:
                    done[mine] = run(mine)
                for read in wait(list(pipes), 0 if mine < count else None):
                    try:
                        index, *outcome = read.recv()
                    except EOFError:
                        read.close()
                        status = os.waitpid(pipes.pop(read), 0)[1]
                        if status:
                            raise RuntimeError(f"a branch helper ended with wait status {status}")
                        continue
                    done[index] = outcome
            result, error = done.pop(want)
            tokens.release()
            if error is not None:
                raise error
            yield result
    finally:
        for read, pid in pipes.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            read.close()


def _pairs(free: int, span: int) -> int:
    # A greedy matching of the open values of a slot, as bits c - start of
    # free for c in [start, start + span), span reaching max_element.  With
    # p = start - 1 the last element chosen, c pairs with 2c - p (p, c, 2c -
    # p is a progression) or else with (c + max_element)/2 (c, it and
    # max_element are one), each at bit 2i + 1 or (i + span)/2 for c's bit
    # i.  Both partners lie above c, so one ascending scan finds them.
    pairs = 0
    while free:
        low = free & -free
        i = low.bit_length() - 1
        free ^= low
        partner = 2 * i + 1
        if not free >> partner & 1 and not i + span & 1:
            partner = i + span >> 1
        if free >> partner & 1:
            free ^= 1 << partner
            pairs += 1
    return pairs


def _branch_search(job, counter) -> list[tuple[int, ...]]:
    # The sets below one prefix (0, v1), or with first_only the first of
    # them (see search_near_modular).  The branch raises once the counter
    # as last read plus its nodes not yet added pass the budget.
    prefix, modulus, size, max_element, budget, first_only = job
    chosen = list(prefix)
    steps = _residue_steps(modulus, min(modulus, max_element + 1))
    # N-bit blocks over [0, max_element]: bit v of open * tile is v's residue.
    tile = ((1 << (max_element // modulus + 1) * modulus) - 1) // ((1 << modulus) - 1)
    found: list[tuple[int, ...]] = []
    nodes = shared = 0  # the branch's nodes, and those added to the counter
    limit = -1  # share once nodes pass it, first at the first count

    def share() -> None:
        # Add the nodes to the counter and read it.  The next share comes
        # _SHARE_NODES nodes later, or as soon as the counter as read plus
        # the nodes not yet added would pass the budget.
        nonlocal shared, limit
        with counter.get_lock():
            counter.value += nodes - shared
            total = counter.value
        shared = nodes
        if total > budget:
            raise BudgetExceededError(f"node budget exceeded ({budget})")
        limit = nodes + min(_SHARE_NODES - 1, budget - total)

    def rec(state: tuple[int, int, int, int], start: int, stop: int) -> None:
        # The middle slot whose candidates lie in [start, stop); each
        # leaves at least one value for every slot after it.
        nonlocal nodes
        open_ = state[0]
        if stop == max_element:
            # Last middle slot: each legal candidate costs only a coverage
            # check, so they are read a period at a time.  The slot is
            # counted once scanned.
            for cand in _window(open_, start, stop, modulus):
                full = chosen + [cand, max_element]
                if _covers(full, modulus):
                    found.append(tuple(full))
                    if first_only:
                        stop = cand + 1
                        break
            nodes += stop - start + (open_ * tile >> start & (1 << stop - start) - 1).bit_count()
        else:
            # No set below when the open values before max_element, less
            # one of each pair that cannot both join, are fewer than the
            # slots left; the parent counted the candidate.  No matching
            # takes more than half of them, so it is sought only when that
            # could leave too few.
            row = open_ * tile >> start
            span = max_element - start
            free = row & (1 << span) - 1
            width, left = free.bit_count(), size - 1 - len(chosen)
            if width < left or width + 1 >> 1 < left and width - _pairs(free, span) < left:
                return
            # Bit i of bits is start + i.  Peeling one costs O(stop -
            # start) bits, no more than tiling the child row it opens.
            # Candidates are counted as they are reached, so a first_only
            # hit leaves the rest of each row uncounted.
            reached = start
            bits = row & (1 << stop - start) - 1
            while bits:
                rest = bits & bits - 1
                cand = start + (bits ^ rest).bit_length() - 1
                bits = rest
                nodes += cand + 1 - reached
                reached = cand + 1
                if nodes > limit:
                    share()
                chosen.append(cand)
                rec(_admit(state, cand, steps), reached, stop + 1)
                chosen.pop()
                if first_only and found:
                    return
            nodes += stop - reached
        if nodes > limit:
            share()

    # max_element is admitted first (see search_near_modular).
    rec(_open_residues((*chosen, max_element), steps), chosen[-1] + 1,
        max_element - size + len(chosen) + 2)
    del rec  # it refers to itself: drop the cycle, so no collection is needed
    share()
    return found


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
    ``max_element`` forced last, both admitted before any middle element;
    partial progressions modulo N are pruned as they appear: a candidate
    is legal when its residue is outside {2a - b, (a + b)/2 mod N : a, b
    chosen}, read from an int whose bits are the open residues.  These
    depend only on the chosen set, so a candidate legal with
    ``max_element`` chosen is exactly one that keeps ``max_element``
    legal.  Every full set is then checked for coverage.  When
    ``max_element`` repeats 0's residue, no set exists and the search
    ends after the split.
    The tree splits once, at the first middle element v1: one branch per
    v1 legal with 0 and ``max_element``, each walked in ascending order, so
    results come back sorted, duplicate-free and identical for every
    worker count.  _branches runs them in this process and helpers forked
    beside it, at most ``workers`` processes, branches or usable CPUs;
    ``first_only`` runs them in this process, in order, and stops at the
    first hit, the lexicographically first set.

    A node is one candidate examined with ``max_element`` admitted, plus
    one leaf check for each legal candidate for the last middle slot.  A
    slot before it adds none when its open values from its start up to
    ``max_element``, less one for each pair of them matched as unable to
    both join (see the module docstring), are fewer than the slots left.
    A first_only search counts the nodes up to its hit.  More than
    ``budget`` nodes raises BudgetExceededError.  The split counts all its
    v1 candidates in one step, and every branch adds its nodes to one
    counter.  A serial search stops at the budget; a pooled one stops
    within 2**14 nodes per branch in flight past it.
    """
    ell, max_element = _integer(ell, "ell", 1), _integer(max_element, "max_element", 0)
    budget, workers = _integer(budget, "budget", 1), _integer(workers, "workers", 1)
    # 2**(ell+1) elements need max_element >= 2**(ell+1) - 1, read from
    # the bit length, so the sizes are built only once they fit.
    if (max_element + 1).bit_length() <= ell + 1:
        return []
    modulus = 3 ** (ell + 1)
    size = 2 ** (ell + 1)

    # The split counts every v1 candidate.  Only the v1 legal with 0 and
    # max_element are handed out, as jobs made as the branches start;
    # none is when max_element repeats 0's residue.
    stop = max_element - size + 3
    if stop - 1 > budget:
        raise BudgetExceededError(f"node budget exceeded ({budget})")
    if max_element % modulus == 0:
        return []
    steps = _residue_steps(modulus, min(modulus, max_element + 1))
    root = _open_residues((0, max_element), steps)[0]
    jobs = (((0, v1), modulus, size, max_element, budget, first_only)
            for v1 in _window(root, 1, stop, modulus))
    # 0's residue is closed, so [0, stop) holds the same open values.
    count = stop // modulus * root.bit_count() + (root & (1 << stop % modulus) - 1).bit_count()
    # In one process, the counter as last read plus a branch's nodes not
    # yet added is the exact total, so a serial search raises exactly at
    # the budget.  With helpers it is a lower bound, and the branch that
    # adds last reads the exact total, so the search raises exactly when a
    # serial search would.
    results: list[tuple[int, ...]] = []
    for found in _branches(_branch_search, jobs, count, 1 if first_only else workers, stop - 1):
        results.extend(found)
        if first_only and results:
            break
    return [
        NearModularSet(r, modulus, "modular" if r[-1] < modulus else "near-modular-only")
        for r in results
    ]
