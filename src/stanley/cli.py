"""Command line surface for the package.

One executable, ``stanley``, with a subcommand per capability: gen,
analyze, modset, search, character, coverage, growth, explore, families.

Each subcommand computes its result and returns a ``Report``: the JSON
object (``record``), a table (``header`` and ``rows``), an optional plain
formatter for one row (``line``), "name: value" ``notes`` printed in plain
only, and the exit code.  One renderer prints every report:

* ``--format json`` writes the record in one pass, as json.dumps lays it
  out with a two-space indent.  A dataclass becomes its fields in order;
  integers above 2**53 become strings, which javascript cannot round.
* ``--format csv`` emits the header, if any, then each row's cells joined
  by commas.
* ``--format plain`` (the default) emits each row through ``line``, or,
  when there is none, the header and the rows with cells joined by
  spaces; then the notes.

One rule formats every text cell: None is blank, a sequence is
space-joined, a float has six decimal places (nan stays ``nan``), and
anything else is ``str()``.

Exit codes are part of the contract:

* 0: ran to completion, positive outcome.
* 1: ran to completion, negative finding (not independent, not modular,
  plan cross-check failed, search found nothing, target in the excluded
  244 mod 486 class).
* 2: input error (malformed seed, odd or negative character target,
  nonsensical bounds).
* 3: resource limit (node budget, cover cap, value overflow, out of memory).

A reader that closes stdout early (``stanley gen ... | head``) is not an
error: the run stops writing and exits 0 with nothing on stderr.

STANLEY_NODE_BUDGET overrides the default budget of 10**8 search nodes
for ``search`` and candidate heads for ``explore``; an explicit --budget
flag wins over both.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import astuple, dataclass, fields, is_dataclass
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Sequence

from . import characters, core, modsets, structure
from .errors import (
    BudgetExceededError,
    NotModularError,
    NotRealizableError,
    OverflowLimitError,
    PlanVerificationError,
    StanleyError,
)

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

_JSON_SAFE_BOUND = 2**53
_JSON_WORDS = {None: "null", True: "true", False: "false"}

FORMATS = ("plain", "csv", "json")

# Table rows per write.
_BLOCK_ROWS = 2048


@dataclass
class Report:
    """One subcommand's result, in the shape ``_render`` prints.

    ``line``, when given, receives one row's text cells as arguments.
    """

    record: dict
    rows: Iterable[Sequence] = ()
    header: Sequence[str] | None = None
    line: Callable[..., str] | None = None
    notes: Sequence[tuple[str, object]] = ()
    code: int = EXIT_OK


def _parse_int_list(text: str) -> tuple[int, ...]:
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    if not parts:
        raise ValueError("empty integer list")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"not a comma-separated integer list: {text!r}") from None


def _field_dict(obj) -> dict:
    # A dataclass's fields by name, in order: asdict without its deep copy.
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _json_text(value, indent: str = "") -> str:
    # ``value`` as JSON indented by two spaces a level, in json.dumps's
    # layout and spelling, written in one pass.  Keys are strings.
    # Booleans first: they are ints to isinstance.
    if isinstance(value, bool) or value is None:
        return _JSON_WORDS[value]
    if isinstance(value, int):
        if -_JSON_SAFE_BOUND <= value <= _JSON_SAFE_BOUND:
            return int.__repr__(value)
        # Decimal prints every digit where str() refuses ints past 4,300
        # digits; imported here, it costs no other process its 0.4 MB.
        import decimal

        return encode_basestring_ascii(str(decimal.Decimal(value)))
    if isinstance(value, float):
        # NaN is not JSON; undefined ratios become null.
        if math.isnan(value):
            return "null"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if callable(value):  # a value computed only when it is printed
        return _json_text(value(), indent)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict) or is_dataclass(value):
        pairs = value if isinstance(value, dict) else _field_dict(value)
        body = sep.join([f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                         for k, v in pairs.items()])
        return f"{{\n{inner}{body}\n{indent}}}" if body else "{}"
    # A list, tuple or generator.  Plain ints that a double holds exactly,
    # the bulk of every long record, are joined in C.
    if (type(value) in (list, tuple) and {*map(type, value)} == {int}
            and -_JSON_SAFE_BOUND <= min(value) and max(value) <= _JSON_SAFE_BOUND):
        body = sep.join(map(int.__repr__, value))
    else:
        body = sep.join([_json_text(v, inner) for v in value])
    return f"[\n{inner}{body}\n{indent}]" if body else "[]"


def _join(values) -> str:
    return " ".join(map(str, values))


# The cell rule, keyed by exact type so that a cell costs one dict lookup:
# growth tables run it on 16k rows.
_TEXT = {type(None): lambda v: "", float: lambda v: f"{v:.6f}", tuple: _join, list: _join}


def _cells(row: Iterable) -> list[str]:
    return [_TEXT.get(type(value), str)(value) for value in row]


def _render(fmt: str, report: Report) -> None:
    # Rows are written in blocks of _BLOCK_ROWS lines, so a generator of
    # rows is never held whole and a row costs no write call of its own.
    if fmt == "json":
        print(_json_text(report.record))
        return
    sep = "," if fmt == "csv" else " "
    line = report.line if fmt == "plain" else None
    if line is None:
        if report.header:
            print(sep.join(report.header))
        text = sep.join
    else:
        def text(cells):
            return line(*cells)
    rows = iter(report.rows)
    while block := [text(_cells(row)) for row in islice(rows, _BLOCK_ROWS)]:
        block.append("")
        sys.stdout.write("\n".join(block))
    if fmt == "plain":
        for name, value in report.notes:
            print(f"{name}: {_cells([value])[0]}")


# ---------------------------------------------------------------------------
# Subcommand bodies.  Each takes the normalized arguments and returns a
# Report; none of them looks at --format.

_FIELDS = ("field", "value")


def _field_line(*cells: str) -> str:
    # "name: value" for a field row; a one-cell row (a term) prints bare.
    return ": ".join(cells)


def _node_budget(args: argparse.Namespace) -> int:
    if args.budget is not None:
        return args.budget
    raw = os.environ.get("STANLEY_NODE_BUDGET")
    if raw is None:
        return modsets.DEFAULT_NODE_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"STANLEY_NODE_BUDGET must be an integer, got {raw!r}"
        ) from None
    return core._integer(value, "STANLEY_NODE_BUDGET", 1)


def _cmd_gen(args: argparse.Namespace) -> Report:
    seq = core.generate(args.seed, count=args.count, limit=args.limit)
    return Report({"seed": seq.seed, "terms": seq.terms}, ((t,) for t in seq.terms))


def _cmd_analyze(args: argparse.Namespace) -> Report:
    required = structure._terms_needed(args.depth)
    count = args.count if args.count is not None else required
    if count < required:
        needed = core._count_text(required, "terms")
        raise ValueError(f"depth {args.depth} needs at least {needed}")
    seq = core.generate(args.seed, count=count)
    result = structure.analyze_independence(seq, max_depth=args.depth)
    record = {"independent": result.independent, **_field_dict(result)}
    if result.independent:
        rows = list(record.items())
    else:
        v = result.violation
        rows = [
            ("independent", False),
            ("violation_kind", v.kind),
            ("violation_depth", v.depth),
            ("violation_index", v.index),
            ("expected", v.expected),
            ("actual", v.actual),
            ("verified_depth", result.verified_depth),
        ]
    code = EXIT_OK if result.independent else EXIT_FINDING
    return Report(record, rows, _FIELDS, _field_line, code=code)


def _cmd_modset(args: argparse.Namespace) -> Report:
    verify = modsets.verify_near_modular if args.near else modsets.verify_modular
    check = verify(args.elements, args.modulus)
    record = {"elements": args.elements, "modulus": args.modulus, "verdict": check.verdict}
    rows = [("verdict", check.verdict)]
    if check.violation is not None:
        record["violation"] = check.violation
        rows += [("violation_kind", check.violation.kind), ("violation", check.violation.details)]
    code = EXIT_OK if check.ok else EXIT_FINDING
    return Report(record, rows, _FIELDS, _field_line, code=code)


def _cmd_search(args: argparse.Namespace) -> Report:
    results = modsets.search_near_modular(
        args.ell,
        args.max_element,
        budget=_node_budget(args),
        workers=args.workers,
        first_only=args.first_only,
    )
    sets = [s.elements for s in results]
    record = {
        "ell": args.ell,
        # Built only if the record is printed, so a huge ell answers at once.
        "modulus": lambda: 3 ** (args.ell + 1),
        "max_element": args.max_element,
        "sets": sets,
    }
    return Report(record, enumerate(sets), ("index", "elements"),
                  line=lambda index, elements: elements,
                  code=EXIT_OK if sets else EXIT_FINDING)


def _cmd_character(args: argparse.Namespace) -> Report:
    plan = characters.plan_character(args.target)
    cover = characters.plan_seed(plan)
    cert = characters.verify_plan(plan, args.depth)
    terms = characters.realize_plan(plan, count=args.count) if args.count else None
    kind = "basis" if isinstance(plan.recipe, characters.BasisRecipe) else "family"
    recipe = _field_dict(plan.recipe)
    record = {
        "target": plan.target,
        "recipe": {"kind": kind, **recipe},
        "seed": {"elements": cover.elements, "modulus": cover.modulus},
        "certificate": cert,
    }
    rows = [
        ("target", plan.target),
        ("recipe", kind),
        *((name if kind == "basis" else f"family_{name}", v) for name, v in recipe.items()),
        ("seed_modulus", cover.modulus),
        ("seed", cover.elements),
        *_field_dict(cert).items(),
    ]
    if terms is not None:
        record["terms"] = terms
        rows += [(t,) for t in terms]
    return Report(record, rows, _FIELDS, _field_line)


def _coverage_line(residue: str, kind: str, index: str, side: str) -> str:
    extra = f" index={index} side={side}" if kind == "family" else ""
    return f"{residue} {kind}{extra}"


def _cmd_coverage(args: argparse.Namespace) -> Report:
    cover = characters.residue_coverage(args.modulus)
    record = {"modulus": cover.modulus, "uncovered": cover.uncovered, "entries": cover.entries}
    return Report(record, (astuple(e) for e in cover.entries), ("residue", "kind", "index", "side"),
                  line=_coverage_line, notes=[("uncovered", cover.uncovered)])


def _cmd_growth(args: argparse.Namespace) -> Report:
    seq = core.generate(args.seed, count=args.count, limit=args.limit)
    # growth_stats' columns, without its per-sample records.
    ns, values, ratios, lo, hi, alpha = structure._growth_columns(seq.terms, args.spacing)
    record = {
        "seed": seq.seed,
        "spacing": args.spacing,
        "samples": ({"n": n, "term": t, "ratio": r} for n, t, r in zip(ns, values, ratios)),
        "ratio_min": lo,
        "ratio_max": hi,
        "alpha_estimate": alpha,
    }
    notes = [(name, record[name]) for name in ("ratio_min", "ratio_max", "alpha_estimate")]
    return Report(record, zip(ns, values, ratios), ("n", "term", "ratio"), notes=notes)


def _cmd_explore(args: argparse.Namespace) -> Report:
    results = characters.explore_basic_characters(
        args.head_length,
        args.max_entry,
        budget=_node_budget(args),
        workers=args.workers,
    )
    record = {"head_length": args.head_length, "max_entry": args.max_entry, "results": results}
    return Report(record, (astuple(r) for r in results),
                  ("head", "tail", "independent", "character", "chi"),
                  line=lambda head, tail, independent, character, chi: (
                      f"head=({head}) tail={tail} independent={independent} "
                      f"character={character} chi={chi}"))


def _cmd_families(args: argparse.Namespace) -> Report:
    table = modsets.family_table()
    return Report({"families": table}, (astuple(e) for e in table),
                  ("index", "side", "modulus", "elements"),
                  line=lambda index, side, modulus, elements: (
                      f"{side}_{index} mod {modulus}: {elements}"))


# ---------------------------------------------------------------------------
# Argument plumbing.


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared."""
    parser = argparse.ArgumentParser(
        prog="stanley",
        description="Greedy 3-AP-free sequence toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler: Callable[[argparse.Namespace], Report],
            help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--format", choices=FORMATS, default="plain")
        p.set_defaults(handler=handler)
        return p

    p = add("gen", _cmd_gen, "generate greedy terms from a seed")
    p.add_argument("--seed", required=True, help="comma-separated, e.g. 0,1,7")
    p.add_argument("--count", type=int)
    p.add_argument("--limit", type=int)

    p = add("analyze", _cmd_analyze, "independence analysis of a greedy sequence")
    p.add_argument("--seed", required=True)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--count", type=int, help="terms to generate first")

    p = add("modset", _cmd_modset, "verify a (near-)modular set")
    p.add_argument("--elements", required=True)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--near", action="store_true",
                   help="allow elements at or beyond the modulus")

    p = add("search", _cmd_search, "search for near-modular sets of size 2**(ell+1)")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--max-element", type=int, required=True)
    p.add_argument("--budget", type=int)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--first-only", action="store_true")

    p = add("character", _cmd_character, "plan, realize and certify an even character")
    p.add_argument("--lambda", dest="target", type=int, required=True)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--count", type=int, help="also print this many terms")

    p = add("coverage", _cmd_coverage, "recipe coverage of even residue classes")
    p.add_argument("--modulus", type=int, default=characters.EXCLUDED_MODULUS)

    p = add("growth", _cmd_growth, "growth statistics of a greedy sequence")
    p.add_argument("--seed", required=True)
    p.add_argument("--count", type=int)
    p.add_argument("--limit", type=int)
    p.add_argument("--spacing", type=int, default=1)

    p = add("explore", _cmd_explore, "survey basis heads and their characters")
    p.add_argument("--head-length", type=int, required=True)
    p.add_argument("--max-entry", type=int, required=True)
    p.add_argument("--budget", type=int)
    p.add_argument("--workers", type=int, default=1)

    add("families", _cmd_families, "print the built-in near-modular set families")

    return parser


# The least value of each bound: --count and --limit may be zero.
_LEAST = dict(count=0, limit=0, spacing=1, workers=1, budget=1,
              max_element=1, head_length=1, max_entry=1, depth=1)


def _normalize(args: argparse.Namespace) -> argparse.Namespace:
    for name in ("seed", "elements"):
        if hasattr(args, name):
            setattr(args, name, _parse_int_list(getattr(args, name)))
    for name, least in _LEAST.items():
        value = getattr(args, name, None)
        if value is not None:
            core._integer(value, "--" + name.replace("_", "-"), least)
    return args


def run(args: argparse.Namespace) -> int:
    """Run one parsed command line: print its report, return its exit code."""
    report = args.handler(_normalize(args))
    _render(args.format, report)
    return report.code


def _attach_list_values(argv: Sequence[str]) -> list[str]:
    # argparse reads a value such as "-1,0" as an unknown option, so an
    # integer list that starts with a minus sign is attached to its option.
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--seed", "--elements") and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_list_values(argv))
    try:
        return run(args)
    except BrokenPipeError:
        return EXIT_OK
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_RESOURCE
    except (StanleyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (BudgetExceededError, OverflowLimitError)):
            return EXIT_RESOURCE
        if isinstance(exc, (PlanVerificationError, NotModularError)) or (
            isinstance(exc, NotRealizableError) and exc.reason == "residue-244"
        ):
            return EXIT_FINDING
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
