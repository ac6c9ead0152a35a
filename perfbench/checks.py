"""Independent references and output checks for the benchmark operations.

Nothing here imports the package under test.  Every operation's stdout
and exit code is checked against code written separately from it:

* ``gen`` / ``growth``: every term is checked against the definition of
  the greedy extension (``greedy_violations``), and the two commands must
  agree with each other over the full length.
* ``character``: the certified character must equal the target, the
  recipe kind must follow from the target mod 6, and members of the class
  244 mod 486 must exit 1 with no output.
* ``search``: every returned set is re-checked by brute force, the number
  of sets must match a table derived with ``near_modular_sets`` below,
  the shipped family sets must appear at their bounds, and ``--workers 2``
  must return exactly what the serial run returned.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

LOG2_3 = math.log2(3)

EXCLUDED_MODULUS = 486
EXCLUDED_RESIDUE = 244

# Shipped family sets near-modular mod 27 (index 2), as printed by
# `stanley families`; `search --ell 2` at their maximum must return them.
FAMILY_SETS_ELL2 = (
    (0, 1, 4, 6, 10, 13, 15, 18),
    (0, 2, 8, 12, 20, 26, 30, 36),
)

# Number of near-modular sets mod 27 of size 8 with maximum element m,
# for m = 7..36, as enumerated by near_modular_sets(2, m).
ELL2_SET_COUNTS = {
    7: 0, 8: 0, 9: 0, 10: 0, 11: 0, 12: 0, 13: 1, 14: 1, 15: 1, 16: 2,
    17: 2, 18: 2, 19: 7, 20: 7, 21: 11, 22: 17, 23: 12, 24: 19, 25: 18,
    26: 19, 27: 0, 28: 27, 29: 30, 30: 59, 31: 67, 32: 66, 33: 93, 34: 108,
    35: 100, 36: 183,
}

# Lexicographically first near-modular set mod 81 of size 16 with maximum
# element m, for m = 31..40 (None: no such set), from
# near_modular_sets(3, m, first_only=True).
ELL3_FIRST = {
    31: None, 32: None, 33: None, 34: None, 35: None, 36: None, 37: None,
    38: None, 39: None,
    40: (0, 1, 3, 4, 9, 10, 12, 13, 27, 28, 30, 31, 36, 37, 39, 40),
}


# ---------------------------------------------------------------------------
# References.


def greedy_prefix(seed, n: int) -> list[int]:
    """First ``n`` terms of the greedy 3-AP-free extension of ``seed``.

    Keeps the set of values blocked by a pair of chosen terms and takes
    the least unblocked value above the last term; a plain Python
    transcription of the definition, quadratic in ``n``.
    """
    terms = sorted(seed)
    blocked = set()
    for j, y in enumerate(terms):
        for x in terms[:j]:
            blocked.add(2 * y - x)
    candidate = terms[-1] + 1
    while len(terms) < n:
        while candidate in blocked:
            candidate += 1
        for x in terms:
            blocked.add(2 * candidate - x)
        terms.append(candidate)
        candidate += 1
    return terms[:n]


def greedy_violations(seed, terms) -> list[str]:
    """Check ``terms`` against the definition of the greedy extension of ``seed``.

    Marks every value 2*y - x with x < y both terms, up to the last term.
    A term is marked exactly when it ends a 3-AP of terms, and an integer
    is marked exactly when it would end one with two smaller terms.  So
    ``terms`` is the greedy extension of ``seed`` up to its last term if
    it starts with the seed, increases, has no marked term, and has every
    integer it skips past the seed marked.
    """
    seed = sorted(seed)
    t = np.asarray(terms, dtype=np.int64)
    if list(t[: len(seed)]) != seed:
        return ["terms do not start with the seed"]
    if np.any(t[1:] <= t[:-1]):
        return ["terms are not strictly increasing"]
    last = int(t[-1])
    marked = np.zeros(last + 1, dtype=bool)
    for j in range(1, len(t)):
        lo = int(np.searchsorted(t, 2 * t[j] - last))  # x >= 2y - last keeps 2y - x <= last
        if lo < j:
            marked[2 * t[j] - t[lo:j]] = True
    hits = np.flatnonzero(marked[t])
    if hits.size:
        return [f"term {hits[0]} ({t[hits[0]]}) ends a 3-AP of earlier terms"]
    start = seed[-1] + 1
    free = ~marked[start:]
    free[t[len(seed):] - start] = False
    missed = np.flatnonzero(free)
    if missed.size:
        return [f"{start + missed[0]} was skipped, but it ends no 3-AP"]
    return []


def is_near_modular(elements, modulus: int) -> bool:
    """Brute-force near-modularity of a set containing 0.

    No x = 2y - z (mod N) with x, y, z in the set other than x = y = z,
    and every residue mod N is 2y - z for some y >= z in the set.
    """
    values = sorted(elements)
    if not values or values[0] != 0 or len(set(values)) != len(values):
        return False
    residues = [v % modulus for v in values]
    for i, y in enumerate(residues):
        for j, z in enumerate(residues):
            for k, x in enumerate(residues):
                if (x - 2 * y + z) % modulus == 0 and not i == j == k:
                    return False
    covered = {(2 * y - z) % modulus for i, y in enumerate(values) for z in values[: i + 1]}
    return len(covered) == modulus


def near_modular_sets(ell: int, max_element: int, first_only: bool = False) -> list[tuple[int, ...]]:
    """Near-modular sets mod 3**(ell+1) of size 2**(ell+1) ending at ``max_element``.

    Depth-first over ascending elements.  Each chosen element forbids the
    residues that would complete a progression mod N with two chosen
    ones, kept as one integer bitmask, so a candidate is tested with one
    bit lookup.  Results come in lexicographic order.
    """
    modulus = 3 ** (ell + 1)
    size = 2 ** (ell + 1)
    half = (modulus + 1) // 2  # inverse of 2 mod N, N odd
    found: list[tuple[int, ...]] = []
    if max_element < size - 1:
        return found

    def add(chosen, forbidden, c):
        r = c % modulus
        bits = forbidden | (1 << r)
        for y in chosen:
            s = y % modulus
            for t in ((2 * r - s) % modulus, (2 * s - r) % modulus, ((r + s) * half) % modulus):
                bits |= 1 << t
        return bits

    def covers(chosen):
        covered = {(2 * y - z) % modulus for i, y in enumerate(chosen) for z in chosen[: i + 1]}
        return len(covered) == modulus

    def rec(chosen, forbidden, start):
        slots = size - 1 - len(chosen)
        if slots == 0:
            if forbidden >> (max_element % modulus) & 1:
                return False
            full = chosen + [max_element]
            if covers(full):
                found.append(tuple(full))
                return first_only
            return False
        for c in range(start, max_element - slots + 1):
            if forbidden >> (c % modulus) & 1:
                continue
            if rec(chosen + [c], add(chosen, forbidden, c), c + 1):
                return True
        return False

    rec([0], add([], 0, 0), 1)
    return found


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; empty means correct.


def expected_exit(op: dict) -> int:
    """Exit code the operation must end with (0 answer, 1 negative finding)."""
    kind = op["kind"]
    if kind == "character":
        return 1 if op["target"] % EXCLUDED_MODULUS == EXCLUDED_RESIDUE else 0
    if kind == "search":
        if op["first_only"]:
            return 0 if ELL3_FIRST[op["max_element"]] else 1
        return 0 if ELL2_SET_COUNTS[op["max_element"]] else 1
    return 0


def _growth_rows(out: str) -> list[tuple[int, int, float]]:
    rows = list(csv.reader(io.StringIO(out)))
    if rows[0] != ["n", "term", "ratio"]:
        raise ValueError(f"unexpected growth header {rows[0]}")
    return [(int(n), int(t), float(r)) for n, t, r in rows[1:]]


def check_sequence(op: dict, out: str) -> tuple[list[str], dict]:
    """Check a gen (json) or growth (csv) output; return problems and facts."""
    seed = sorted(op["seed"])
    count = op["count"]
    if op["kind"] == "gen":
        obj = json.loads(out)
        if [int(v) for v in obj["seed"]] != seed:
            return ["seed echoed wrongly"], {}
        terms = [int(v) for v in obj["terms"]]
    else:
        rows = _growth_rows(out)
        if [n for n, _, _ in rows] != list(range(1, count)):
            return ["growth rows do not cover every index"], {}
        for n, t, r in rows:
            if abs(r - t / n**LOG2_3) > 1e-6:
                return [f"ratio at n={n} is {r}, expected {t / n**LOG2_3:.6f}"], {}
        terms = [seed[0]] + [t for _, t, _ in rows]
    problems = greedy_violations(seed, terms)
    if len(terms) != count:
        problems.append(f"{len(terms)} terms, expected {count}")
    n = len(terms) - 1
    facts = {"final_ratio": terms[-1] / n**LOG2_3 if n > 0 else float("nan"), "result": terms}
    return problems, facts


def check_character(op: dict, out: str) -> tuple[list[str], dict]:
    lam = op["target"]
    if expected_exit(op) == 1:
        return ([] if out == "" else ["excluded target printed output"]), {"recipe": "excluded"}
    obj = json.loads(out)
    problems = []
    if obj["target"] != lam:
        problems.append(f"target echoed as {obj['target']}")
    if obj["certificate"]["character"] != lam:
        problems.append(f"certified character {obj['certificate']['character']} != {lam}")
    kind = obj["recipe"]["kind"]
    if kind != ("basis" if lam % 6 in (0, 2) else "family"):
        problems.append(f"recipe {kind} for a target {lam % 6} mod 6")
    elements = [int(v) for v in obj["seed"]["elements"]]
    modulus = int(obj["seed"]["modulus"])
    size = len(elements)
    if size & (size - 1) or not elements or elements[0] != 0 or elements[-1] >= modulus:
        problems.append("cover is not a power-of-two set inside [0, modulus)")
    if 3 ** round(math.log(modulus, 3)) != modulus:
        problems.append(f"cover modulus {modulus} is not a power of 3")
    return problems, {"recipe": kind, "cover_elements": size}


def check_search(op: dict, out: str) -> tuple[list[str], dict]:
    ell, bound = op["ell"], op["max_element"]
    modulus, size = 3 ** (ell + 1), 2 ** (ell + 1)
    obj = json.loads(out)
    sets = [tuple(int(v) for v in s) for s in obj["sets"]]
    problems = []
    if (obj["ell"], obj["modulus"], obj["max_element"]) != (ell, modulus, bound):
        problems.append("search parameters echoed wrongly")
    for s in sets:
        if len(s) != size or s[-1] != bound or list(s) != sorted(set(s)):
            problems.append(f"set {s} has the wrong shape")
        elif not is_near_modular(s, modulus):
            problems.append(f"set {s} is not near-modular mod {modulus}")
    if op["first_only"]:
        want = ELL3_FIRST[bound]
        if sets != ([want] if want else []):
            problems.append(f"first set {sets} differs from {want}")
    else:
        if len(sets) != ELL2_SET_COUNTS[bound]:
            problems.append(f"{len(sets)} sets, expected {ELL2_SET_COUNTS[bound]}")
        for fam in FAMILY_SETS_ELL2:
            if fam[-1] == bound and fam not in sets:
                problems.append(f"family set {fam} missing")
    return problems, {"sets": len(sets), "result": sets}


_CHECKERS = {
    "gen": check_sequence,
    "growth": check_sequence,
    "character": check_character,
    "search": check_search,
}


def check_outputs(ops: list[dict], codes: list, outputs: list[str]) -> tuple[dict[int, list[str]], dict[int, dict]]:
    """Check one pass: per-op problems and facts, keyed by op index.

    Besides each op's own check, ops that must agree are compared: gen and
    growth of one seed, and a search run with and without workers.
    """
    problems: dict[int, list[str]] = {}
    facts: dict[int, dict] = {}
    for i, (op, code, out) in enumerate(zip(ops, codes, outputs)):
        want = expected_exit(op)
        if code != want:
            problems[i] = [f"exit code {code}, expected {want}"]
            facts[i] = {}
            continue
        try:
            problems[i], facts[i] = _CHECKERS[op["kind"]](op, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems[i], facts[i] = [f"unreadable output: {exc!r}"], {}

    first_of: dict[tuple, int] = {}
    for i, op in enumerate(ops):
        if op["kind"] in ("gen", "growth"):
            key = (tuple(op["seed"]), op["count"])
        elif op["kind"] == "search":
            key = (op["ell"], op["max_element"], op["first_only"])
        else:
            continue
        j = first_of.setdefault(key, i)
        mine, theirs = facts[i].get("result"), facts[j].get("result")
        if mine is not None and theirs is not None and mine != theirs:
            problems[i].append(f"output disagrees with operation {j}")
    for f in facts.values():
        f.pop("result", None)
    return problems, facts
