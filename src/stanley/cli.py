"""Command line surface for the package.

One executable, ``stanley``, with a subcommand per capability: gen,
analyze, modset, search, character, coverage, growth, explore, families.
Output is plain text by default; ``--format csv`` emits diffable
comma-separated rows (one value per line for sequences, headered
``index,value`` style rows for indexed reports) and ``--format json``
emits a single object per run.  JSON integers above 2**53 are rendered
as strings so javascript-side readers cannot silently round them.

Exit codes are part of the contract:

* 0: ran to completion, positive outcome.
* 1: ran to completion, negative finding (not independent, not modular,
  plan cross-check failed, search found nothing, target in the excluded
  244 mod 486 class).
* 2: input error (malformed seed, odd or negative character target,
  nonsensical bounds).
* 3: resource limit (node budget, value overflow, out of memory).

A reader that closes stdout early (``stanley gen ... | head``) is not an
error: the run stops writing and exits 0 with nothing on stderr.

The environment variable STANLEY_NODE_BUDGET overrides the default
search and exploration budget of 10**8 nodes; an explicit --budget flag
wins over both.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Sequence

from . import basis as basis_mod
from . import characters, core, modsets, structure
from .errors import (
    BudgetExceededError,
    DuplicateSumError,
    InsufficientTermsError,
    InvalidBasisError,
    InvalidSeedError,
    InvalidSystemError,
    NotModularError,
    NotRealizableError,
    NotRepresentableError,
    OverflowLimitError,
    PlanVerificationError,
    StanleyError,
)

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

_JSON_SAFE_BOUND = 2**53

FORMATS = ("plain", "csv", "json")


@dataclass
class RunConfig:
    """Everything one invocation needs, normalized from flags and env."""

    command: str
    fmt: str = "plain"
    seed: tuple[int, ...] | None = None
    elements: tuple[int, ...] | None = None
    count: int | None = None
    limit: int | None = None
    depth: int = 6
    modulus: int | None = None
    target: int | None = None
    ell: int | None = None
    max_element: int | None = None
    head_length: int | None = None
    max_entry: int | None = None
    spacing: int = 1
    near: bool = False
    first_only: bool = False
    workers: int = 1
    budget: int | None = None

    def node_budget(self) -> int:
        if self.budget is not None:
            return self.budget
        raw = os.environ.get("STANLEY_NODE_BUDGET")
        if raw is None:
            return modsets.DEFAULT_NODE_BUDGET
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"STANLEY_NODE_BUDGET must be an integer, got {raw!r}"
            ) from None
        if value <= 0:
            raise ValueError("STANLEY_NODE_BUDGET must be positive")
        return value


def _parse_int_list(text: str) -> tuple[int, ...]:
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    if not parts:
        raise ValueError("empty integer list")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"not a comma-separated integer list: {text!r}") from None


def _json_ready(value):
    # Stringify anything a double cannot hold exactly; booleans first,
    # they are ints to isinstance.
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return str(value) if abs(value) > _JSON_SAFE_BOUND else value
    if isinstance(value, float):
        # NaN is not JSON; undefined ratios become null.
        return None if math.isnan(value) else value
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _print_json(obj) -> None:
    print(json.dumps(_json_ready(obj), indent=2))


def _fmt_ratio(x: float) -> str:
    if math.isnan(x):
        return "nan"
    return f"{x:.6f}"


# ---------------------------------------------------------------------------
# Subcommand bodies.  Each returns the process exit code.


def _cmd_gen(cfg: RunConfig) -> int:
    seq = core.generate(cfg.seed, count=cfg.count, limit=cfg.limit)
    if cfg.fmt == "json":
        _print_json({"seed": list(seq.seed), "terms": list(seq.terms)})
    else:
        for t in seq.terms:
            print(t)
    return EXIT_OK


def _required_terms(depth: int) -> int:
    return 2**depth + 2 ** (depth - 1)


def _violation_dict(v: structure.IdentityViolation) -> dict:
    return {
        "kind": v.kind,
        "depth": v.depth,
        "index": v.index,
        "expected": v.expected,
        "actual": v.actual,
    }


def _report_rows(result) -> list[tuple[str, object]]:
    if result.independent:
        return [
            ("independent", True),
            ("character", result.character),
            ("chi", result.chi),
            ("repeat_factor", result.repeat_factor),
            ("verified_depth", result.verified_depth),
        ]
    v = result.violation
    return [
        ("independent", False),
        ("violation_kind", v.kind),
        ("violation_depth", v.depth),
        ("violation_index", v.index),
        ("expected", v.expected),
        ("actual", v.actual),
        ("verified_depth", result.verified_depth),
    ]


def _emit_rows(cfg: RunConfig, rows: list[tuple[str, object]]) -> None:
    if cfg.fmt == "csv":
        print("field,value")
        for k, v in rows:
            print(f"{k},{v}")
    else:
        for k, v in rows:
            print(f"{k}: {v}")


def _cmd_analyze(cfg: RunConfig) -> int:
    count = cfg.count if cfg.count is not None else _required_terms(cfg.depth)
    if count < _required_terms(cfg.depth):
        raise ValueError(
            f"depth {cfg.depth} needs at least {_required_terms(cfg.depth)} terms"
        )
    seq = core.generate(cfg.seed, count=count)
    result = structure.analyze_independence(seq, max_depth=cfg.depth)
    if cfg.fmt == "json":
        if result.independent:
            _print_json(
                {
                    "independent": True,
                    "character": result.character,
                    "chi": result.chi,
                    "repeat_factor": result.repeat_factor,
                    "verified_depth": result.verified_depth,
                }
            )
        else:
            _print_json(
                {
                    "independent": False,
                    "violation": _violation_dict(result.violation),
                    "verified_depth": result.verified_depth,
                }
            )
    else:
        _emit_rows(cfg, _report_rows(result))
    return EXIT_OK if result.independent else EXIT_FINDING


def _cmd_modset(cfg: RunConfig) -> int:
    if cfg.near:
        report = modsets.verify_near_modular(cfg.elements, cfg.modulus)
    else:
        report = modsets.verify_modular(cfg.elements, cfg.modulus)
    rows: list[tuple[str, object]] = [("verdict", report.verdict)]
    obj: dict = {"elements": list(cfg.elements), "modulus": cfg.modulus,
                 "verdict": report.verdict}
    if report.violation is not None:
        rows.append(("violation_kind", report.violation.kind))
        rows.append(("violation", report.violation.details))
        obj["violation"] = {
            "kind": report.violation.kind,
            "details": report.violation.details,
        }
    if cfg.fmt == "json":
        _print_json(obj)
    else:
        _emit_rows(cfg, rows)
    return EXIT_OK if report.ok else EXIT_FINDING


def _cmd_search(cfg: RunConfig) -> int:
    results = modsets.search_near_modular(
        cfg.ell,
        cfg.max_element,
        budget=cfg.node_budget(),
        workers=cfg.workers,
        first_only=cfg.first_only,
    )
    modulus = 3 ** (cfg.ell + 1)
    if cfg.fmt == "json":
        _print_json(
            {
                "ell": cfg.ell,
                "modulus": modulus,
                "max_element": cfg.max_element,
                "sets": [list(s.elements) for s in results],
            }
        )
    elif cfg.fmt == "csv":
        print("index,elements")
        for i, s in enumerate(results):
            print(f"{i},{' '.join(str(v) for v in s.elements)}")
    else:
        for s in results:
            print(" ".join(str(v) for v in s.elements))
    return EXIT_OK if results else EXIT_FINDING


def _recipe_dict(recipe) -> dict:
    if isinstance(recipe, characters.BasisRecipe):
        return {"kind": "basis", "head": list(recipe.head)}
    return {
        "kind": "family",
        "index": recipe.index,
        "side": recipe.side,
        "shift": recipe.shift,
    }


def _cmd_character(cfg: RunConfig) -> int:
    plan = characters.plan_character(cfg.target)
    cover = characters.plan_seed(plan)
    cert = characters._certify(plan, cover, cfg.depth)
    terms = characters.realize_plan(plan, count=cfg.count) if cfg.count else None

    if cfg.fmt == "json":
        obj = {
            "target": plan.target,
            "recipe": _recipe_dict(plan.recipe),
            "seed": {"elements": list(cover.elements), "modulus": cover.modulus},
            "certificate": {
                "character": cert.character,
                "chi": cert.chi,
                "repeat_factor": cert.repeat_factor,
                "verified_depth": cert.verified_depth,
            },
        }
        if terms is not None:
            obj["terms"] = terms
        _print_json(obj)
        return EXIT_OK

    rows: list[tuple[str, object]] = [("target", plan.target)]
    recipe = _recipe_dict(plan.recipe)
    rows.append(("recipe", recipe["kind"]))
    if recipe["kind"] == "basis":
        rows.append(("head", " ".join(str(b) for b in recipe["head"])))
    else:
        rows.append(("family_index", recipe["index"]))
        rows.append(("family_side", recipe["side"]))
        rows.append(("family_shift", recipe["shift"]))
    rows.append(("seed_modulus", cover.modulus))
    rows.append(("seed", " ".join(str(v) for v in cover.elements)))
    rows.append(("character", cert.character))
    rows.append(("chi", cert.chi))
    rows.append(("repeat_factor", cert.repeat_factor))
    rows.append(("verified_depth", cert.verified_depth))
    _emit_rows(cfg, rows)
    if terms is not None:
        for t in terms:
            print(t)
    return EXIT_OK


def _cmd_coverage(cfg: RunConfig) -> int:
    modulus = cfg.modulus if cfg.modulus is not None else characters.EXCLUDED_MODULUS
    cover = characters.residue_coverage(modulus)
    if cfg.fmt == "json":
        _print_json(
            {
                "modulus": cover.modulus,
                "uncovered": list(cover.uncovered),
                "entries": [
                    {
                        "residue": e.residue,
                        "kind": e.kind,
                        "index": e.index,
                        "side": e.side,
                    }
                    for e in cover.entries
                ],
            }
        )
    elif cfg.fmt == "csv":
        print("residue,kind,index,side")
        for e in cover.entries:
            idx = "" if e.index is None else e.index
            side = "" if e.side is None else e.side
            print(f"{e.residue},{e.kind},{idx},{side}")
    else:
        for e in cover.entries:
            extra = ""
            if e.kind == "family":
                extra = f" index={e.index} side={e.side}"
            print(f"{e.residue} {e.kind}{extra}")
        print(f"uncovered: {' '.join(str(r) for r in cover.uncovered)}")
    return EXIT_OK


def _cmd_growth(cfg: RunConfig) -> int:
    seq = core.generate(cfg.seed, count=cfg.count, limit=cfg.limit)
    report = structure.growth_stats(seq, sample_spacing=cfg.spacing)
    if cfg.fmt == "json":
        _print_json(
            {
                "seed": list(seq.seed),
                "spacing": report.spacing,
                "samples": [
                    {"n": s.n, "term": s.term, "ratio": s.ratio}
                    for s in report.samples
                ],
                "ratio_min": report.ratio_min,
                "ratio_max": report.ratio_max,
                "alpha_estimate": report.alpha_estimate,
            }
        )
        return EXIT_OK
    print("n,term,ratio" if cfg.fmt == "csv" else "n term ratio")
    joiner = "," if cfg.fmt == "csv" else " "
    for s in report.samples:
        print(joiner.join((str(s.n), str(s.term), _fmt_ratio(s.ratio))))
    if cfg.fmt == "plain":
        print(f"ratio_min: {_fmt_ratio(report.ratio_min)}")
        print(f"ratio_max: {_fmt_ratio(report.ratio_max)}")
        print(f"alpha_estimate: {_fmt_ratio(report.alpha_estimate)}")
    return EXIT_OK


def _cmd_explore(cfg: RunConfig) -> int:
    results = characters.explore_basic_characters(
        cfg.head_length,
        cfg.max_entry,
        budget=cfg.node_budget(),
        workers=cfg.workers,
    )
    if cfg.fmt == "json":
        _print_json(
            {
                "head_length": cfg.head_length,
                "max_entry": cfg.max_entry,
                "results": [
                    {
                        "head": list(r.head),
                        "tail": r.tail,
                        "independent": r.independent,
                        "character": r.character,
                        "chi": r.chi,
                    }
                    for r in results
                ],
            }
        )
        return EXIT_OK
    if cfg.fmt == "csv":
        print("head,tail,independent,character,chi")
    for r in results:
        head = " ".join(str(b) for b in r.head)
        char = "" if r.character is None else r.character
        chi = "" if r.chi is None else r.chi
        if cfg.fmt == "csv":
            print(f"{head},{r.tail},{r.independent},{char},{chi}")
        else:
            print(f"head=({head}) tail={r.tail} independent={r.independent} "
                  f"character={char} chi={chi}")
    return EXIT_OK


def _cmd_families(cfg: RunConfig) -> int:
    table = modsets.family_table()
    if cfg.fmt == "json":
        _print_json(
            {
                "families": [
                    {
                        "index": e.index,
                        "side": e.side,
                        "modulus": e.modulus,
                        "elements": list(e.elements),
                    }
                    for e in table
                ]
            }
        )
        return EXIT_OK
    if cfg.fmt == "csv":
        print("index,side,modulus,elements")
        for e in table:
            print(f"{e.index},{e.side},{e.modulus},"
                  f"{' '.join(str(v) for v in e.elements)}")
    else:
        for e in table:
            print(f"{e.side}_{e.index} mod {e.modulus}: "
                  f"{' '.join(str(v) for v in e.elements)}")
    return EXIT_OK


_HANDLERS = {
    "gen": _cmd_gen,
    "analyze": _cmd_analyze,
    "modset": _cmd_modset,
    "search": _cmd_search,
    "character": _cmd_character,
    "coverage": _cmd_coverage,
    "growth": _cmd_growth,
    "explore": _cmd_explore,
    "families": _cmd_families,
}


# ---------------------------------------------------------------------------
# Argument plumbing.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stanley",
        description="Greedy 3-AP-free sequence toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--format", choices=FORMATS, default="plain")
        return p

    p = add("gen", "generate greedy terms from a seed")
    p.add_argument("--seed", required=True, help="comma-separated, e.g. 0,1,7")
    p.add_argument("--count", type=int)
    p.add_argument("--limit", type=int)

    p = add("analyze", "independence analysis of a greedy sequence")
    p.add_argument("--seed", required=True)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--count", type=int, help="terms to generate first")

    p = add("modset", "verify a (near-)modular set")
    p.add_argument("--elements", required=True)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--near", action="store_true",
                   help="allow elements at or beyond the modulus")

    p = add("search", "search for near-modular sets of size 2**(ell+1)")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--max-element", type=int, required=True)
    p.add_argument("--budget", type=int)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--first-only", action="store_true")

    p = add("character", "plan, realize and certify an even character")
    p.add_argument("--lambda", dest="target", type=int, required=True)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--count", type=int, help="also print this many terms")

    p = add("coverage", "recipe coverage of even residue classes")
    p.add_argument("--modulus", type=int, default=characters.EXCLUDED_MODULUS)

    p = add("growth", "growth statistics of a greedy sequence")
    p.add_argument("--seed", required=True)
    p.add_argument("--count", type=int)
    p.add_argument("--limit", type=int)
    p.add_argument("--spacing", type=int, default=1)

    p = add("explore", "survey basis heads and their characters")
    p.add_argument("--head-length", type=int, required=True)
    p.add_argument("--max-entry", type=int, required=True)
    p.add_argument("--budget", type=int)
    p.add_argument("--workers", type=int, default=1)

    add("families", "print the built-in near-modular set families")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command, fmt=args.format)
    if hasattr(args, "seed"):
        cfg.seed = _parse_int_list(args.seed)
    if getattr(args, "elements", None) is not None:
        cfg.elements = _parse_int_list(args.elements)
    for name in ("count", "limit", "depth", "modulus", "target", "ell",
                 "max_element", "head_length", "max_entry", "spacing",
                 "near", "first_only", "workers", "budget"):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    for name in ("count", "limit", "spacing", "workers", "budget",
                 "max_element", "head_length", "max_entry"):
        value = getattr(cfg, name)
        if value is not None and value < (0 if name in ("count", "limit") else 1):
            raise ValueError(f"--{name.replace('_', '-')} must be positive")
    return cfg


def run(cfg: RunConfig) -> int:
    return _HANDLERS[cfg.command](cfg)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        return run(cfg)
    except BrokenPipeError:
        return EXIT_OK
    except NotRealizableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FINDING if exc.reason == "residue-244" else EXIT_INPUT
    except (PlanVerificationError, NotModularError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FINDING
    except (BudgetExceededError, OverflowLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_RESOURCE
    except (
        InvalidSeedError,
        InsufficientTermsError,
        InvalidBasisError,
        InvalidSystemError,
        NotRepresentableError,
        DuplicateSumError,
        StanleyError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone: point stdout at devnull so the interpreter's
        # last flush of what is still buffered stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
