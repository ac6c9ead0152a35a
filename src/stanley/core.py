"""Greedy generation of 3-AP-free integer sequences.

A sequence is extended greedily: starting from a finite seed containing 0,
the next term is always the least integer above the current maximum that
does not complete a three-term arithmetic progression x < y < z (with
x + z = 2y) together with two earlier terms.  Because candidates are
always larger than everything chosen so far, a candidate only ever needs
to be tested as the *largest* element of a progression.

The generator keeps a byte-per-value sieve of blocked values over a
window [base, top) that slides upward: whenever a term t is appended,
every value 2*t - x for earlier terms x becomes forever inadmissible, and
the marks that land inside the window are written.  Because terms
increase, the earlier terms whose marks land inside the window form one
slice, so appending is one vectorized scatter per term, and the next
candidate is one byte search (bytearray.rfind) over the window:
generating n terms costs O(n^2) sieve writes with small constants.  The
marks of a new term c that would land at or past the window's top come
from the earlier terms at or below 2c - top, a prefix that is cut off;
the cut only rises with c, so it advances through a Python list of the
terms by bisection from where it stood.  When the window holds no free
value, it moves on past its top, is cleared, and takes the marks of every
pair x < y that lands in it: slices of many x get one scatter each, and
the short ones are gathered into a few batched scatters.  No mark is
written past the window, so marks above the final term stop at the last
window's top, and no mark is written twice.

The window lies backwards above a pad: its buffer holds P bytes and then
the window, value v at byte P + top - 1 - v, so the next candidate is the
last zero byte below the current term's.  The mark 2y - x then sits at
byte (P + top - 1 - 2y) + x, the x itself read through a view that starts
at the row's offset, and a scatter needs no arithmetic per mark once the
terms are stored shifted.  Rows y are taken in groups: the group that
row y1 starts shifts its x once by x0 = max(0, 2*y1 - top + 1), and takes
the rows y1 <= y <= y1 + P/2.  Row y of a group scatters rel = x - x0
through the view that starts at P + top - 1 - 2y + x0, and that start is
never negative: it is P - 2(y - y1) >= 0 when x0 > 0, and that plus
top - 1 - 2*y1 >= 0 otherwise.  A row's x are nonnegative and exceed
2y - top >= 2*y1 - top, so rel >= 0 and every byte written is at least
P; the view ends at the window's end, so numpy's bounds check turns any
slip past the window into an IndexError.  In a fill the rows of a group share one shifted slice of
the terms.  While the window is scanned, a new term past the group's
last row starts a new group, and otherwise adds its own shifted value to
the group's slice.

Only the last window's top decides how many marks are wasted, so windows
follow the run.  Under a term count, each window spans 5/4 of the span of
the last r terms, r being the terms still wanted or the terms so far less
one, whichever is fewer: the next r terms are taken to span about as much
as the last r did, so a run tends to end a little below its last
window's top.  Under a value limit a window ends at the limit.  Memory is
O(window + n) whatever the values: a window holds at least _MIN_WINDOW
values under a term count and never more than _WINDOW, and the buffer
holds as many pad bytes again, P being the largest window so far.

A run already in hand, such as a composed realization, is checked
against the greedy run of its seed by _greedy_run with the same window
fill and no per-term loop: each window of at most _WINDOW values over
(max(seed), last term] takes the marks of every pair of the run at once,
and the run is accepted when no term in a window is marked and every other
value is.  That is exact, by induction on the value v: a mark at v comes
from a pair x < y < v, so once the run agrees with the greedy run below v,
the marks at v are the greedy run's own, and v is a greedy term exactly
when it is unmarked.

Seed validation runs has_3ap, a vectorized pass over row blocks of the
pair table 2y - x: O(n^2) membership probes for n seed values, with
O(n * B) working memory for blocks of B rows.  Probes go to a byte bitmap
over the seed's span when that bitmap is small next to the pair table,
to a binary search otherwise.

Every public function reads each integer argument once through one rule,
_integer (or _integers for a list): ints and numpy integers pass; bools,
floats and strings raise ValueError, and so does a value below the lower
bound 0 or 1 that the argument may carry.  generate and every bounded
expansion read their count and limit through _bounds, which also asks
for at least one of the two.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidSeedError, OverflowLimitError

# Sieve arithmetic runs in int64; values past this cap would risk wrap-around.
VALUE_CAP = 2**62

# The largest sieve window in values, one byte each; its buffer holds as
# many pad bytes again, so the sieve takes at most 2 * _WINDOW bytes.
# With windows sized from the run, caps from 2**19 to 2**23 take
# 0.29-0.38 s for 2**14 terms of S(0,1,13) and 1.02-1.38 s for 2**15,
# fastest at 2**20-2**21, and 0.34-0.56 s for 2**15 terms of S(0,3,4),
# fastest at 2**20 and 0.42 s at 2**21 (best of five interleaved runs,
# 2-vCPU Xeon): a small cap slides more often, each slide a fill over all
# terms, and a large one scatters past the L2 cache.
_WINDOW = 1 << 21

# Windows of a term-count run hold at least this many values.
_MIN_WINDOW = 1 << 16

# Window fills scatter slices of this many earlier terms or more one by
# one, and gather shorter ones into scatters of at most _FILL_CHUNK marks.
_SHORT_SLICE = 1024
_FILL_CHUNK = 1 << 14

# Row blocks of pair tables hold about this many cells (8 bytes each).
_BLOCK_CELLS = 1 << 19

# A byte bitmap holds at most this many blocks' bytes, 64 MiB by default:
# the 3N = 3**16 entries of a 2**15-element cover (basis.COVER_CAP), whose
# modular check keeps a second map as large and peaks near 2 * 3N bytes.
_BITMAP_BLOCKS = 16


@dataclass(frozen=True)
class APWitness:
    """A nontrivial arithmetic progression x < y < z with x + z = 2*y."""

    x: int
    y: int
    z: int


@dataclass(frozen=True)
class GreedySequence:
    """Result of a greedy run: the seed and the terms."""

    seed: tuple[int, ...]
    terms: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.terms)


def _member_mask(members: np.ndarray, bound: int, width: int):
    # The layout of a pair table of ``width`` columns, its cells in
    # [0, bound) looked up among the sorted distinct array ``members``:
    # the lookup, whether it is a bitmap, and the rows per block.  The
    # memory rule: a byte bitmap serves when it holds at most _BITMAP_BLOCKS
    # blocks' bytes and at most len(members)**2 entries; binary search,
    # which also takes object arrays of Python ints, otherwise.
    m = len(members)
    rows = min(width, max(1, _BLOCK_CELLS // width))
    if bound <= min(m * m, _BITMAP_BLOCKS * 8 * _BLOCK_CELLS):
        present = np.zeros(bound, dtype=bool)
        present[members] = True
        return present.__getitem__, True, rows

    def member(queries: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(members, queries)
        np.minimum(pos, m - 1, out=pos)
        return members[pos] == queries

    return member, False, rows


def _integers(values: Iterable[int], what="elements", error=ValueError, least=None) -> list[int]:
    # The integer rule of every entry point, for many values here and one
    # in _integer: operator.index takes ints and numpy integers but refuses
    # floats and strings; bools are refused too.  ``least`` is 0, 1 or None.
    out = list(values)
    try:
        if bool in set(map(type, out)):
            raise TypeError
        out = list(map(operator.index, out))
    except TypeError:
        raise error(f"{what} must be plain integers") from None
    if least is not None and min(out, default=least) < least:
        raise error(f"{what} must be {'positive' if least else 'nonnegative'}")
    return out


def _integer(value, what: str, least: int | None = None) -> int:
    if type(value) is bool or not hasattr(type(value), "__index__"):
        raise ValueError(f"{what} must be a plain integer")
    value = operator.index(value)
    if least is not None and value < least:
        raise ValueError(f"{what} must be {'positive' if least else 'nonnegative'}")
    return value


def _bounds(count, limit, least=1) -> tuple[int | None, int | None]:
    # The bound rule of generate and of every bounded expansion: a count,
    # at least ``least`` unless that is None, or a value limit, or both.
    if count is None and limit is None:
        raise ValueError("need a count bound or a value limit")
    return (None if count is None else _integer(count, "count", least),
            None if limit is None else _integer(limit, "limit"))


def _count_text(count: int, noun: str) -> str:
    # "<count> <noun>", or, for a count with more digits than int-to-str
    # conversion allows, "a <bits>-bit count of <noun>".
    try:
        return f"{count} {noun}"
    except ValueError:
        return f"a {count.bit_length()}-bit count of {noun}"


def _term_array(count: int) -> np.ndarray:
    # An int64 array of ``count`` zeros.  numpy refuses some sizes before
    # trying to allocate; that refusal becomes a MemoryError too.
    try:
        return np.zeros(count, dtype=np.int64)
    except ValueError:
        raise MemoryError(f"cannot allocate {_count_text(count, 'terms')}") from None


def has_3ap(elements: Iterable[int]) -> APWitness | None:
    """Return a witness progression inside ``elements``, or None.

    Tests every pair x < y for 2*y - x among the values, so it finds each
    progression by its middle element; the witness has the smallest y,
    then the smallest x.  Values are translated by their minimum and
    checked in int64 row blocks: O(n^2) probes and O(n * B) memory for
    blocks of B rows.  A span too wide for int64 runs the same blocks on
    Python ints, so the answer is exact for any integers.
    """
    values = sorted(set(_integers(elements)))
    n = len(values)
    if n < 3:
        return None
    lo = values[0]
    span = values[-1] - lo
    arr = np.array(
        [v - lo for v in values],
        dtype=np.int64 if span < VALUE_CAP else object,
    )
    member, _, rows = _member_mask(arr, 2 * span + 1, n)
    for j0 in range(0, n, rows):
        j1 = min(n, j0 + rows)
        # hit[i, k]: x = values[k] < y = values[j0 + i] with 2y - x present.
        hit = member(2 * arr[j0:j1, None] - arr[None, :j1])
        hit &= np.tri(j1 - j0, j1, j0 - 1, dtype=bool)
        if hit.any():
            i, k = divmod(int(np.argmax(hit)), j1)
            x, y = values[k], values[j0 + i]
            return APWitness(x, y, 2 * y - x)
    return None


def is_admissible(chosen: Iterable[int], candidate: int) -> bool:
    """Would appending ``candidate`` keep ``chosen`` free of 3-APs?

    ``chosen`` must be 3-AP-free already and ``candidate`` must exceed its
    maximum; a smaller candidate is a contract violation (ValueError).
    Only progressions ending at ``candidate`` can arise, so one membership
    probe per earlier term suffices.
    """
    members = set(_integers(chosen))
    candidate = _integer(candidate, "candidate")
    if members and candidate <= max(members):
        raise ValueError(
            f"candidate {candidate} does not exceed max(chosen) = {max(members)}"
        )
    return all(2 * y - candidate not in members for y in members)


def validate_seed(seed: Iterable[int]) -> tuple[int, ...]:
    """Canonicalize and validate a seed set.

    Returns the seed as a strictly increasing tuple.  Raises
    InvalidSeedError when the seed is empty, has duplicates or negative
    entries, lacks 0, or contains a 3-term progression (the witness is
    attached to the error).
    """
    values = _integers(seed, "seed entries", InvalidSeedError)
    if not values:
        raise InvalidSeedError("seed is empty")
    if len(set(values)) != len(values):
        raise InvalidSeedError("seed contains duplicate elements")
    ordered = tuple(sorted(values))
    if ordered[0] < 0:
        raise InvalidSeedError(f"seed contains negative element {ordered[0]}")
    if ordered[0] != 0:
        raise InvalidSeedError("seed must contain 0")
    if ordered[-1] >= VALUE_CAP:
        raise OverflowLimitError(f"seed element {ordered[-1]} exceeds value cap")
    witness = has_3ap(ordered)
    if witness is not None:
        raise InvalidSeedError(
            f"seed contains the arithmetic progression "
            f"({witness.x}, {witness.y}, {witness.z})",
            witness=witness,
        )
    return ordered


def _group(y: int, top: int, pad: int) -> tuple[int, int]:
    # The group of rows that row y starts in a window below ``top`` with
    # ``pad`` bytes under it: the shift x0 of its rows' x, and the largest
    # row it takes.  The module docstring shows that its views start at
    # byte 0 or above.
    return max(0, 2 * y - top + 1), y + pad // 2


def _mark_row(sieve: np.ndarray, pad: int, top: int, y: int, x0: int, rel: np.ndarray) -> None:
    # Block 2y - x for each x = x0 + rel, in a group that x0 shifts: the
    # view that starts at byte pad + top - 1 - 2y + x0 holds 2y - x at
    # byte rel.  It ends at the window's end, so a slip past the window
    # raises IndexError.
    sieve[pad + top - 1 - 2 * y + x0 :][rel] = True


def _mark_pairs(sieve: np.ndarray, terms: np.ndarray, top: int, pad: int) -> None:
    # Block 2y - x for the pairs x < y of the increasing ``terms`` whose
    # mark lies in the window [top - size, top), laid out as in _extend:
    # ``sieve`` holds ``pad`` bytes and then the window's size bytes, value
    # v at byte pad + top - 1 - v.  For each y these x form one slice:
    # marks past the window come from its low end, marks below it from its
    # high end.  A slice of _SHORT_SLICE or more x is scattered on its own
    # by _mark_row; the rows of a group share one shifted copy of their x.
    # Shorter ones, where numpy's per-call cost outweighs the marks, are
    # gathered into one scatter per _FILL_CHUNK marks; gathering takes
    # more passes per mark, so long slices skip it.
    size = len(sieve) - pad
    twice = 2 * terms
    lo = np.searchsorted(terms, twice - top, "right")
    hi = np.minimum(np.searchsorted(terms, twice - (top - size), "right"),
                    np.arange(len(terms)))
    sizes = hi - lo
    rows = np.flatnonzero(sizes >= max(_SHORT_SLICE, 1))
    ys = terms[rows]
    i = 0
    while i < len(rows):
        x0, last = _group(int(ys[i]), top, pad)
        g = int(np.searchsorted(ys, last, "right"))
        # lo and hi rise with the row, so one slice holds the group's x.
        a = lo[rows[i]]
        rel = terms[a : hi[rows[g - 1]]] - x0
        for y, l, h in zip(ys[i:g].tolist(), (lo[rows[i:g]] - a).tolist(),
                           (hi[rows[i:g]] - a).tolist()):
            _mark_row(sieve, pad, top, y, x0, rel[l:h])
        i = g
    short = np.flatnonzero((sizes > 0) & (sizes < _SHORT_SLICE))
    # starts[i]: marks of the short slices before the i-th one.
    starts = np.concatenate(([0], np.cumsum(sizes[short])))
    i = 0
    while i < len(short):
        k = max(i + 1, int(np.searchsorted(starts, starts[i] + _FILL_CHUNK, "right")) - 1)
        ys = short[i:k]
        n = sizes[ys]
        # The x of slice y sit at lo[y], lo[y] + 1, ... in terms.
        pos = np.repeat(lo[ys] - (starts[i:k] - starts[i]), n)
        pos += np.arange(len(pos))
        marks = np.repeat(pad + top - 1 - twice[ys], n)
        marks += terms[pos]
        sieve[marks] = True
        i = k


def generate(
    seed: Iterable[int],
    count: int | None = None,
    limit: int | None = None,
) -> GreedySequence:
    """Greedily extend ``seed`` into a 3-AP-free sequence.

    Exactly one stopping rule is required: ``count`` asks for that many
    terms in total (seed included), ``limit`` asks for every term with
    value <= limit.  When both are given, generation stops at whichever
    bound is hit first.  The result is deterministic in the seed alone.
    """
    seed_t = validate_seed(seed)
    count, limit = _bounds(count, limit, least=None)
    if count is not None and count < len(seed_t):
        raise ValueError(f"count {count} is below the seed length {len(seed_t)}")
    if limit is not None and limit < seed_t[-1]:
        raise ValueError(f"limit {limit} is below max(seed) = {seed_t[-1]}")
    if limit is not None and limit >= VALUE_CAP:
        raise OverflowLimitError(f"limit {limit} exceeds value cap")
    return _extend(seed_t, count, limit)


def _extend(seed_t: tuple[int, ...], count: int | None, limit: int | None) -> GreedySequence:
    # The sieve loop of generate.  ``seed_t`` must be increasing, start at
    # 0 and be free of 3-APs; the bounds must pass generate's checks.
    # Callers that hold a verified cover skip generate's re-validation.
    terms_buf = _term_array(max(count or 0, len(seed_t), 1024))
    terms_buf[: len(seed_t)] = seed_t
    rel = np.empty_like(terms_buf)  # rel[lo:k]: terms_buf[lo:k] - x0
    terms = list(seed_t)
    k = len(seed_t)

    # The window covers the values [base, top).  Marks at or below the
    # last term are never read, so it starts just above the seed.
    base = seed_t[-1] + 1
    sieve = bytearray()
    pad = 0
    while count is None or k < count:
        if limit is not None:
            size = min(_WINDOW, limit + 1 - base)
        else:
            # The next r terms should span about what the last r did; 5/4
            # of that puts the top a little past the run's end.
            r = min(count - k, k - 1)
            size = min(_WINDOW, max(_MIN_WINDOW, (terms[-1] - terms[-1 - r]) * 5 // 4))
        if base + size >= VALUE_CAP:
            raise OverflowLimitError("sieve window left the 64-bit range")
        if size > pad:
            sieve = blocked = None  # never hold two windows
            sieve, pad = bytearray(2 * size), size
        top = base + size
        end = pad + size
        blocked = np.frombuffer(sieve, dtype=bool, count=end)
        blocked[pad:].fill(False)
        # No mark at or past the window's top was ever written, so every
        # pair landing in it is marked here.
        _mark_pairs(blocked, terms_buf[:k], top, pad)
        lo = 0  # the cut: terms[:lo] lie at or below 2c - top
        last = -1  # the group's largest row; a larger c starts a new one
        idx = sieve.rfind(0, pad, end)
        while idx >= 0:
            c = pad + top - 1 - idx
            if c >= VALUE_CAP // 2:
                raise OverflowLimitError("term value left the 64-bit range")
            if k == len(terms_buf):
                terms_buf = np.concatenate([terms_buf, np.zeros(len(terms_buf), np.int64)])
                rel = np.concatenate([rel, np.empty_like(rel)])
            # Every mark 2c - x lies above c; those at or past the top come
            # from the x at or below 2c - top, a prefix, which is cut off.
            # Within a window the cut only rises with c.
            lo = bisect_right(terms, 2 * c - top, lo)
            if c > last:
                x0, last = _group(c, top, pad)
                np.subtract(terms_buf[lo:k], x0, out=rel[lo:k])
            _mark_row(blocked, pad, top, c, x0, rel[lo:k])
            terms_buf[k] = c
            rel[k] = c - x0
            terms.append(c)
            k += 1
            if count is not None and k >= count:
                break
            idx = sieve.rfind(0, pad, idx)
        if limit is not None and top > limit:
            break  # value bound exhausted
        # Slide the window on past its top.
        base = top

    return GreedySequence(seed_t, tuple(terms))


def _greedy_run(seed_t: tuple[int, ...], terms: Sequence[int]) -> bool:
    # Are ``terms`` the first len(terms) terms of the greedy run of the
    # valid seed ``seed_t``?  One window fill per window of at most _WINDOW
    # values over (seed_t[-1], terms[-1]], with the same layout, marks and
    # memory bound as _extend (see the module docstring for why it is
    # exact).  An array's prefix is read through tolist(): ints made in C.
    k = len(seed_t)
    if tuple(terms[:k].tolist() if isinstance(terms, np.ndarray) else terms[:k]) != seed_t:
        return False
    try:
        run = np.asarray(terms, dtype=np.int64)
    except OverflowError:
        run = None
    if run is None or (len(run) > k and run.max() >= VALUE_CAP // 2):
        # Past the sieve's int64 range _extend decides, and raises
        # OverflowLimitError where its run would cross it.
        return _extend(seed_t, len(terms), None).terms == tuple(terms)
    if np.any(run[k:] <= run[k - 1 : -1]):
        return False
    last = int(run[-1])
    base = seed_t[-1] + 1
    pad = min(_WINDOW, last + 1 - base)
    sieve = bytearray(2 * pad)
    j = k  # run[j:] lie at or above base
    while base <= last:
        top = min(base + pad, last + 1)
        end = pad + top - base
        blocked = np.frombuffer(sieve, dtype=bool, count=end)
        blocked[pad:].fill(False)
        # Pairs with y at or past the window's top mark only above it.
        i = int(np.searchsorted(run, top))
        _mark_pairs(blocked, run[:i], top, pad)
        # Flipping the terms' flags leaves no zero byte exactly when every
        # term was free and every other value blocked.
        blocked[pad + top - 1 - run[j:i]] ^= True
        if sieve.find(0, pad, end) >= 0:
            return False
        base, j = top, i
    return True


def minimal_generating_prefix(terms: Sequence[int]) -> int:
    """Length of the shortest prefix that greedily regenerates ``terms``.

    Requires terms[0] == 0.  If a prefix of length p works then so does
    every longer one (the greedy successor of a working prefix is the next
    term), so a binary search over the prefix length is sound.  When not
    even the full sequence works it raises InvalidSeedError (a progression
    or a repeat) or ValueError (out of order); a value at or above 2**62
    raises OverflowLimitError.
    """
    values = tuple(_integers(terms))
    if not values or values[0] != 0:
        raise ValueError("sequence must start at 0")

    def works(p: int) -> bool:
        return _greedy_run(validate_seed(values[:p]), values)

    lo, hi = 1, len(values)
    while lo < hi:
        mid = (lo + hi) // 2
        if works(mid):
            hi = mid
        else:
            lo = mid + 1
    if lo == len(values) and not works(lo):  # the search never tries len(values)
        raise ValueError("sequence must be increasing")
    return lo
