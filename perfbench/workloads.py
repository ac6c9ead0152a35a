"""The four workloads, each a fixed list of CLI operations drawn from a seed.

A workload seed fixes every input; the program only ever sees the argv
lists built here.  One pass runs the list once, in order, from a single
client that waits for each operation before sending the next (a closed
loop with one client).  Passes repeat the identical list, so every work
count must repeat exactly from pass to pass and from run to run.

Inputs are drawn from strata of near-equal cost, so that the workload
seed changes which inputs run but not how much work a pass holds; the
drawn inputs and their properties are recorded with each result.
"""

from __future__ import annotations

import random

COUNT = 2**14

# Admissible seeds (subsets of [0, 16] containing 0, no 3-AP), split by the
# final ratio a_n / n**log2(3) at n = 2**14 - 1.  Tame seeds end near 0.5
# and fit the generator's first sieve, so each marks the same pairs.
# Chaotic seeds end above 2.3 and force one sieve regrowth, which re-marks
# every pair so far.  The chaotic seeds kept here all regrow between terms
# 15587 and 15889, so each re-marks 121-126 million pairs.  The other
# chaotic seeds in [0, 16] regrow anywhere from term 14095 to 16189 and
# re-mark 99-131 million pairs, which would make a pass's work depend on
# the draw.
TAME_SEEDS = (
    (0, 3, 4), (0, 6, 7), (0, 9, 11), (0, 4, 7, 9), (0, 3, 7, 9),
    (0, 4, 9, 12), (0, 2, 9, 11, 15), (0, 3, 5, 8, 9), (0, 1, 3, 4, 10),
    (0, 6, 9, 11, 14), (0, 5, 9, 11, 14), (0, 1, 6, 7, 9, 10),
    (0, 3, 8, 9, 11, 12), (0, 3, 9, 10, 12, 13), (0, 4, 6, 9, 10, 13),
    (0, 5, 8, 9, 14, 15), (0, 1, 4, 5, 11, 12, 15), (0, 5, 6, 9, 11, 14, 15),
)
CHAOTIC_SEEDS = (
    (0, 1, 13), (0, 3, 5, 15), (0, 2, 3, 11, 12), (0, 1, 9, 10, 16),
    (0, 3, 4, 10, 12, 13), (0, 1, 5, 6, 13, 14),
)

# Even targets in [3**7 + 3, 3**8 + 3) all have 256-element covers.
SWEEP_BAND = (2190, 6564)
SWEEP_TARGETS = 300
# Even targets in [3**10 + 3, 3**11 + 3) have 2048-element covers and
# those in [3**11 + 3, 3**12 + 3) have 4096-element ones; draws stay
# clear of the band edges.
SMALL_COVER_BAND = (100_000, 170_000)
LARGE_COVER_BAND = (190_000, 520_000)

ELL2_BOUNDS = range(7, 37)
# `search --ell 3 --first-only` bounds: three fixed ones, and one drawn
# from a pair of equal cost (about 0.7 s each), so a draw keeps the pass's
# work the same.  The other bounds in 31..40 differ in cost by up to 2x.
ELL3_FIXED = (32, 33, 34)
ELL3_DRAWN = (35, 40)
# `--workers 2` repeats of ell=2 searches of similar cost.
WORKER_BOUNDS = (33, 34, 35, 36)

def _op(kind: str, argv: list[str], **params) -> dict:
    return {"kind": kind, "argv": argv, **params}


def _even(rng: random.Random, band: tuple[int, int]) -> int:
    return 2 * rng.randrange(band[0] // 2, band[1] // 2)


def _greedy_growth(rng: random.Random) -> tuple[list[dict], dict]:
    # One seed of each kind keeps a pass short enough for several passes in a run.
    tame = rng.sample(TAME_SEEDS, 1)
    chaotic = rng.sample(CHAOTIC_SEEDS, 1)
    seeds = tame + chaotic
    rng.shuffle(seeds)
    ops = []
    for seed in seeds:
        text = ",".join(map(str, seed))
        ops.append(_op("gen", ["gen", "--seed", text, "--count", str(COUNT), "--format", "json"],
                       seed=list(seed), count=COUNT))
        ops.append(_op("growth", ["growth", "--seed", text, "--count", str(COUNT), "--format", "csv"],
                       seed=list(seed), count=COUNT))
    inputs = {"count": COUNT, "tame": [list(s) for s in tame], "chaotic": [list(s) for s in chaotic]}
    return ops, inputs


def _character_op(target: int) -> dict:
    return _op("character", ["character", "--lambda", str(target), "--format", "json"], target=target)


def _character_sweep(rng: random.Random) -> tuple[list[dict], dict]:
    span = 2 * SWEEP_TARGETS
    start = _even(rng, (SWEEP_BAND[0], SWEEP_BAND[1] - span))
    targets = list(range(start, start + span, 2))
    return [_character_op(t) for t in targets], {"first": targets[0], "last": targets[-1]}


def _realizable_even(rng: random.Random, band: tuple[int, int]) -> int:
    while True:
        target = _even(rng, band)
        if target % 486 != 244:
            return target


def _large_cover(rng: random.Random) -> tuple[list[dict], dict]:
    # One small cover and two large ones: the large ones are the majority,
    # so the median operation is always a 4096-element cover.
    targets = [_realizable_even(rng, SMALL_COVER_BAND)]
    targets += [_realizable_even(rng, LARGE_COVER_BAND) for _ in range(2)]
    rng.shuffle(targets)
    return [_character_op(t) for t in targets], {"targets": targets}


def _search_op(ell: int, bound: int, first_only: bool = False, workers: int = 1) -> dict:
    argv = ["search", "--ell", str(ell), "--max-element", str(bound), "--format", "json"]
    if first_only:
        argv.append("--first-only")
    if workers > 1:
        argv += ["--workers", str(workers)]
    return _op("search", argv, ell=ell, max_element=bound, first_only=first_only, workers=workers)


def _modset_search(rng: random.Random) -> tuple[list[dict], dict]:
    ell3 = [*ELL3_FIXED, rng.choice(ELL3_DRAWN)]
    parallel = sorted(rng.sample(WORKER_BOUNDS, 3))
    # Each ell=2 bound runs twice per pass: the short searches around the
    # median operation vary by a quarter from run to run, so they need more
    # samples than the passes alone give.
    ops = [_search_op(2, b) for b in ELL2_BOUNDS for _ in range(2)]
    ops += [_search_op(3, b, first_only=True) for b in ell3]
    ops += [_search_op(2, b, workers=2) for b in parallel]
    inputs = {"ell2_bounds": [ELL2_BOUNDS[0], ELL2_BOUNDS[-1]], "ell3_first_only_bounds": ell3,
              "workers2_bounds": parallel}
    return ops, inputs


_BUILDERS = {
    "greedy-growth": _greedy_growth,
    "character-sweep": _character_sweep,
    "large-cover": _large_cover,
    "modset-search": _modset_search,
}

NAMES = tuple(_BUILDERS)


def build(workload: str, seed: int) -> tuple[list[dict], dict]:
    """Operations of one pass and the drawn inputs, fixed by ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    return _BUILDERS[workload](rng)
