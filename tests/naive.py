"""Deliberately slow reference implementations used as test oracles.

Everything here recomputes from definitions with no shared code paths
into the package: the greedy generator re-scans all pairs per candidate,
subset sums go through itertools, modular checks are triple loops.  Keep
these dumb; their value is independence, not speed.
"""

import decimal
import json
import math
from dataclasses import fields, is_dataclass
from itertools import combinations


def naive_stanley(seed, count):
    """Greedy 3-AP-free extension, quadratic re-check per candidate."""
    chosen = sorted(seed)
    assert len(chosen) <= count
    while len(chosen) < count:
        c = chosen[-1] + 1
        while True:
            ok = True
            members = set(chosen)
            for y in chosen:
                x = 2 * y - c
                if x != c and x in members and x != y:
                    ok = False
                    break
            if ok:
                break
            c += 1
        chosen.append(c)
    return chosen


def naive_marks(terms, base, size):
    """Flags of the window [base, base + size): True where 2y - x lands for
    some x < y in ``terms``."""
    marks = [False] * size
    for y in terms:
        for x in terms:
            if x < y and base <= 2 * y - x < base + size:
                marks[2 * y - x - base] = True
    return marks


def naive_is_3ap_free(values):
    vals = sorted(values)
    for i, x in enumerate(vals):
        for j in range(i + 1, len(vals)):
            for k in range(j + 1, len(vals)):
                if x + vals[k] == 2 * vals[j]:
                    return False
    return True


def naive_subset_sums(elements):
    """All finite subset sums, duplicates included, sorted."""
    sums = []
    for r in range(len(elements) + 1):
        for combo in combinations(elements, r):
            sums.append(sum(combo))
    return sorted(sums)


def naive_expansion(start, window):
    """Every a + s, a in start and s a subset sum of window; duplicates
    included, sorted."""
    return sorted(a + s for a in start for s in naive_subset_sums(window))


def naive_is_near_modular(elements, modulus):
    """Triple-loop transcription of the near-modular definition."""
    a = sorted(elements)
    if not a or a[0] != 0:
        return False
    for x in a:
        for y in a:
            for z in a:
                if (x - (2 * y - z)) % modulus == 0 and not (x == y == z):
                    return False
    covered = set()
    for y in a:
        for z in a:
            if y >= z:
                covered.add((2 * y - z) % modulus)
    return len(covered) == modulus


def naive_is_modular(elements, modulus):
    return (
        all(0 <= v < modulus for v in elements)
        and naive_is_near_modular(elements, modulus)
    )


def naive_search(ell, max_element):
    """Brute force every candidate set, no pruning at all."""
    modulus = 3 ** (ell + 1)
    size = 2 ** (ell + 1)
    found = []
    if max_element < size - 1:
        return found
    middle = range(1, max_element)
    for combo in combinations(middle, size - 2):
        candidate = (0,) + combo + (max_element,)
        if naive_is_near_modular(candidate, modulus):
            found.append(candidate)
    return found


def naive_extension_ok(chosen, cand, modulus):
    """Adding cand to chosen makes no x = 2y - z (mod N), pair by pair."""
    residues = {v % modulus for v in chosen}
    if cand % modulus in residues:
        return False
    for y in chosen:
        if (2 * y - cand) % modulus in residues:
            return False
        if (2 * cand - y) % modulus in residues:
            return False
    for y in chosen:
        for z in chosen:
            if (2 * y - z) % modulus == cand % modulus:
                return False
    return True


def naive_branch_search(prefix, modulus, size, max_element, first_only=False, prune=True):
    """(sets, nodes) below one search prefix, checking each candidate anew.

    max_element is admitted before any middle slot, so a candidate is
    examined against the chosen elements and max_element together.  A
    node is one candidate examined, and one leaf check each time the
    middle slots are all filled; a set counts when its residues 2y - z,
    y >= z, reach every class.  With first_only the walk stops right after
    the leaf check that finds the first set.  With prune, a middle slot
    other than the last returns uncounted when fewer values in [start,
    max_element) than slots left are legal with the chosen elements.
    """
    chosen = list(prefix)
    found = []
    nodes = 0

    def rec(start):
        nonlocal nodes
        slots_left = size - 1 - len(chosen)
        if slots_left == 0:
            nodes += 1
            full = chosen + [max_element]
            if naive_extension_ok(chosen, max_element, modulus) and len(
                {(2 * y - z) % modulus for y in full for z in full if y >= z}
            ) == modulus:
                found.append(tuple(full))
            return
        if prune and slots_left > 1 and sum(
            naive_extension_ok(chosen + [max_element], v, modulus)
            for v in range(start, max_element)
        ) < slots_left:
            return
        for cand in range(start, max_element - slots_left + 1):
            if first_only and found:
                return
            nodes += 1
            if naive_extension_ok(chosen + [max_element], cand, modulus):
                chosen.append(cand)
                rec(cand + 1)
                chosen.pop()

    rec(chosen[-1] + 1)
    return found, nodes


def naive_search_prefixes(ell, max_element):
    """(depth-1 prefixes (0, v1), nodes spent finding them).

    Every v1 candidate is a node.  A prefix is kept when v1 is legal with
    0 and max_element both chosen, and none is when max_element repeats
    0's residue.
    """
    modulus = 3 ** (ell + 1)
    size = 2 ** (ell + 1)
    prefixes = []
    nodes = 0
    for v1 in range(1, max_element - (size - 3)):
        nodes += 1
        if max_element % modulus and naive_extension_ok([0, max_element], v1, modulus):
            prefixes.append((0, v1))
    return prefixes, nodes


def naive_search_nodes(ell, max_element, first_only=False):
    """Every node a search with these bounds examines.

    With first_only the branches are walked in order and the count stops
    at the first set found.
    """
    modulus = 3 ** (ell + 1)
    size = 2 ** (ell + 1)
    prefixes, nodes = naive_search_prefixes(ell, max_element)
    for prefix in prefixes:
        found, more = naive_branch_search(prefix, modulus, size, max_element, first_only)
        nodes += more
        if first_only and found:
            break
    return nodes


def naive_character_level(terms, k):
    """Boundary value 2*a_{2^k-1} - a_{2^k} + 1 straight from the terms."""
    return 2 * terms[2**k - 1] - terms[2**k] + 1


def recheck_certificate(terms, cert):
    """Re-verify an IndependenceCertificate against raw terms, from scratch.

    Checks both block identities for every level from chi up to the
    certified depth, and that chi is genuinely minimal (level chi - 1
    must fail at least one identity or disagree on the character).
    """

    def level_holds(k):
        base = 2**k
        if len(terms) <= base:
            return False
        if naive_character_level(terms, k) != cert.character:
            return False
        for i in range(min(base, len(terms) - base)):
            if terms[base + i] != terms[base] + terms[i]:
                return False
        return True

    for k in range(cert.chi, cert.verified_depth + 1):
        if not level_holds(k):
            return False
    if cert.chi > 0 and level_holds(cert.chi - 1):
        return False
    return terms[2**cert.chi] == cert.repeat_factor


def naive_first_3ap(values):
    """First progression (x, y, 2y - x) by smallest y, then smallest x."""
    vals = sorted(set(values))
    present = set(vals)
    for y in vals:
        for x in vals:
            if x < y and 2 * y - x in present:
                return (x, y, 2 * y - x)
    return None


def naive_first_violation(elements, modulus):
    """First near-modular violation of a set of distinct integers.

    Returns (kind, details) or None, checking in the reporting order: a
    missing 0; the smallest repeated residue, as x = 2y - y with its two
    smallest elements; the first x = 2y - z (mod N) with y != z, by y and
    then z in increasing order; the smallest residue no 2y - z with
    y >= z reaches.
    """
    a = sorted(elements)
    if not a or a[0] != 0:
        return ("missing-zero", ())
    for r in sorted({v % modulus for v in a}):
        same = [v for v in a if v % modulus == r]
        if len(same) > 1:
            return ("mod-ap", (same[0], same[1], same[1]))
    owner = {v % modulus: v for v in a}
    for y in a:
        for z in a:
            r = (2 * y - z) % modulus
            if y != z and r in owner:
                return ("mod-ap", (owner[r], y, z))
    covered = {(2 * y - z) % modulus for y in a for z in a if y >= z}
    r = 0
    while r < modulus:
        if r not in covered:
            return ("uncovered-residue", (r,))
        r += 1
    return None


def naive_verify_basis(head, shift):
    """(valid, index, reason) of a head continued by the powers
    3**(k + shift): valid when 3**(k + shift) divides b_k and 3**(k + shift + 1)
    does not, for every head index k; else the first k that fails."""
    for k, b in enumerate(head):
        if b % 3 ** (k + shift) != 0 or b % 3 ** (k + shift + 1) == 0:
            return (False, k, "valuation")
    return (True, None, None)


def naive_basis_cover(head):
    """Modular cover of a basis head continued by exact powers of three.

    The basis is b_0..b_m = head, then b_k = 3**k.  Past the head, powers
    join until the next one exceeds the sum of all earlier elements: the
    least M >= m with 3**(M + 1) > b_0 + ... + b_M.  The cover is every
    subset sum of b_0..b_M (duplicates kept) with modulus 3**(M + 1).
    """
    elements = list(head)
    while 3 ** len(elements) <= sum(elements):
        elements.append(3 ** len(elements))
    return naive_subset_sums(elements), 3 ** len(elements)


def naive_basis_head(mu):
    """Lexicographically smallest head (l_0 * 3**0, l_1 * 3**1, ...) with
    multipliers l_p in {1, 2, 4, 5, 7, 8} and sum (l_p - 1) * 3**p = mu,
    by backtracking over the offsets l_p - 1 position by position.

    An offset must match the remainder's digit mod 3, and a digit of 2
    has no match, so the search backs up into a larger earlier offset.
    mu = 0 gives the head (1,).  Recursion depth grows with the number of
    base-3 digits of mu.
    """

    def rec(p, rest, chosen):
        if rest == 0:
            return chosen
        digit = (rest // 3**p) % 3
        if digit == 2:
            return None
        for c in (0, 1, 3, 4, 6, 7):
            if c % 3 != digit or c * 3**p > rest:
                continue
            found = rec(p + 1, rest - c * 3**p, chosen + [c])
            if found is not None:
                return found
        return None

    offsets = rec(0, mu, [])
    assert offsets is not None, mu
    return tuple((c + 1) * 3**p for p, c in enumerate(offsets)) or (1,)


def naive_residue_coverage(modulus, max_index=4):
    """(residue, kind, index, side) for each even residue mod ``modulus``.

    Residues 0, 2 mod 6 are "basic".  A residue r = 4 mod 6 takes the
    family of its smallest member lam = r + t * modulus with
    v3(lam - 1) <= max_index, read off lam - 1 = q * 3**i (side A when
    q = 1 mod 6).  Membership of v3(lam - 1) <= max_index depends on lam
    mod 3**(max_index + 1) only, so t below that power is exhaustive.
    """
    out = []
    for r in range(0, modulus, 2):
        if r % 6 in (0, 2):
            out.append((r, "basic", None, None))
            continue
        entry = (r, "uncovered", None, None)
        for t in range(3 ** (max_index + 1)):
            q, i = r + t * modulus - 1, 0
            while q % 3 == 0:
                q, i = q // 3, i + 1
            if i <= max_index:
                entry = (r, "family", i, "A" if q % 6 == 1 else "B")
                break
        out.append(entry)
    return out


def naive_json_text(value):
    """A CLI record as JSON: the standard library's indented encoder over a
    copy of the record in which every int past 2**53 is a string, NaN is
    None, callables are called, dataclasses are dicts of their fields and
    any other iterable is a list."""

    def ready(v):
        if isinstance(v, bool) or v is None:
            return v
        if isinstance(v, int):
            return v if abs(v) <= 2**53 else str(decimal.Decimal(v))
        if isinstance(v, float):
            return None if math.isnan(v) else v
        if isinstance(v, str):
            return v
        if callable(v):
            return ready(v())
        if isinstance(v, dict):
            return {k: ready(x) for k, x in v.items()}
        if is_dataclass(v):
            return {f.name: ready(getattr(v, f.name)) for f in fields(v)}
        return [ready(x) for x in v]

    return json.dumps(ready(value), indent=2)
