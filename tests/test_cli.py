"""CLI contract: exit codes, formats, schemas, env budget, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from unittest import mock

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stanley import basis, cli, core
from stanley.cli import (
    EXIT_FINDING,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_RESOURCE,
    build_parser,
    main,
)

from .naive import naive_json_text, naive_stanley


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(command, payload):
    schema = json.loads(
        resources.files("stanley.schemas").joinpath(f"{command}.json").read_text()
    )
    jsonschema.validate(payload, schema)


def run_json(capsys, command, *argv):
    code, out, err = run_cli(capsys, command, "--format", "json", *argv)
    payload = json.loads(out)
    validate(command, payload)
    return code, payload, err


# Exact plain and csv stdout for every subcommand, on small inputs.  Each
# case is (argv, exit code, plain, csv); SAME marks a csv output equal to
# the plain one, and \x20 a trailing space.  JSON is pinned by the
# schemas instead.
SAME = object()

GOLDEN = [
    ("gen --seed 0,1,7 --count 6", EXIT_OK,
     """\
0
1
7
8
10
11
""", SAME),
    ("analyze --seed 0,1,7 --depth 2", EXIT_OK,
     """\
independent: True
character: 7
chi: 2
repeat_factor: 10
verified_depth: 2
""",
     """\
field,value
independent,True
character,7
chi,2
repeat_factor,10
verified_depth,2
"""),
    ("analyze --seed 0,1,3,4,10 --depth 2", EXIT_FINDING,
     """\
independent: False
violation_kind: character
violation_depth: 2
violation_index:\x20
expected: 0
actual: -1
verified_depth: 2
""",
     """\
field,value
independent,False
violation_kind,character
violation_depth,2
violation_index,
expected,0
actual,-1
verified_depth,2
"""),
    ("analyze --seed 0,4 --depth 3", EXIT_FINDING,
     """\
independent: False
violation_kind: addition
violation_depth: 3
violation_index: 1
expected: 30
actual: 31
verified_depth: 3
""",
     """\
field,value
independent,False
violation_kind,addition
violation_depth,3
violation_index,1
expected,30
actual,31
verified_depth,3
"""),
    ("modset --elements 0,2,5,6 --modulus 9", EXIT_OK,
     'verdict: modular\n',
     """\
field,value
verdict,modular
"""),
    ("modset --near --elements 0,1,2 --modulus 9", EXIT_FINDING,
     """\
verdict: invalid
violation_kind: mod-ap
violation: 2 1 0
""",
     """\
field,value
verdict,invalid
violation_kind,mod-ap
violation,2 1 0
"""),
    ("modset --elements 1,2 --modulus 9", EXIT_FINDING,
     """\
verdict: invalid
violation_kind: missing-zero
violation:\x20
""",
     """\
field,value
verdict,invalid
violation_kind,missing-zero
violation,
"""),
    ("search --ell 2 --max-element 18", EXIT_OK,
     """\
0 1 4 6 10 13 15 18
0 1 6 7 10 15 16 18
""",
     """\
index,elements
0,0 1 4 6 10 13 15 18
1,0 1 6 7 10 15 16 18
"""),
    ("search --ell 1 --max-element 9", EXIT_FINDING,
     "",
     'index,elements\n'),
    ("character --lambda 8 --count 4", EXIT_OK,
     """\
target: 8
recipe: basis
head: 2 6
seed_modulus: 9
seed: 0 2 6 8
character: 8
chi: 2
repeat_factor: 9
verified_depth: 6
0
2
6
8
""",
     """\
field,value
target,8
recipe,basis
head,2 6
seed_modulus,9
seed,0 2 6 8
character,8
chi,2
repeat_factor,9
verified_depth,6
0
2
6
8
"""),
    ("character --lambda 40 --count 3", EXIT_OK,
     """\
target: 40
recipe: family
family_index: 1
family_side: A
family_shift: 2
seed_modulus: 81
seed: 0 2 5 9 11 14 24 27 29 32 33 36 38 41 51 60
character: 40
chi: 4
repeat_factor: 81
verified_depth: 6
0
2
5
""",
     """\
field,value
target,40
recipe,family
family_index,1
family_side,A
family_shift,2
seed_modulus,81
seed,0 2 5 9 11 14 24 27 29 32 33 36 38 41 51 60
character,40
chi,4
repeat_factor,81
verified_depth,6
0
2
5
"""),
    ("coverage --modulus 18", EXIT_OK,
     """\
0 basic
2 basic
4 family index=1 side=A
6 basic
8 basic
10 family index=2 side=A
12 basic
14 basic
16 family index=1 side=B
uncovered:\x20
""",
     """\
residue,kind,index,side
0,basic,,
2,basic,,
4,family,1,A
6,basic,,
8,basic,,
10,family,2,A
12,basic,,
14,basic,,
16,family,1,B
"""),
    ("growth --seed 0,4 --count 6 --spacing 2", EXIT_OK,
     """\
n term ratio
1 4 4.000000
2 5 1.666667
4 11 1.222222
5 12 0.936138
ratio_min: 0.936138
ratio_max: 4.000000
alpha_estimate: 1.222222
""",
     """\
n,term,ratio
1,4,4.000000
2,5,1.666667
4,11,1.222222
5,12,0.936138
"""),
    ("growth --seed 0 --count 1", EXIT_OK,
     """\
n term ratio
ratio_min: nan
ratio_max: nan
alpha_estimate: nan
""",
     'n,term,ratio\n'),
    ("explore --head-length 2 --max-entry 4", EXIT_OK,
     """\
head=(1) tail=power independent=True character=0 chi=0
head=(2) tail=power independent=True character=2 chi=1
head=(3 4) tail=power independent=True character=6 chi=2
""",
     """\
head,tail,independent,character,chi
1,power,True,0,0
2,power,True,2,1
3 4,power,True,6,2
"""),
    ("families", EXIT_OK,
     """\
A_1 mod 9: 0 2 5 6
B_1 mod 9: 0 4 10 12
A_2 mod 27: 0 1 4 6 10 13 15 18
B_2 mod 27: 0 2 8 12 20 26 30 36
A_3 mod 81: 0 2 3 5 11 14 18 21 29 30 32 38 41 45 48 54
B_3 mod 81: 0 4 6 10 22 28 36 42 58 60 64 76 82 90 96 108
A_4 mod 243: 0 2 8 9 15 20 24 26 54 56 62 63 69 74 78 80 83 89 90 96 101 105 107 135 137 143 144 150 155 159 161 162
B_4 mod 243: 0 4 16 18 30 40 48 52 108 112 124 126 138 148 156 160 166 178 180 192 202 210 214 270 274 286 288 300 310 318 322 324
""",
     """\
index,side,modulus,elements
1,A,9,0 2 5 6
1,B,9,0 4 10 12
2,A,27,0 1 4 6 10 13 15 18
2,B,27,0 2 8 12 20 26 30 36
3,A,81,0 2 3 5 11 14 18 21 29 30 32 38 41 45 48 54
3,B,81,0 4 6 10 22 28 36 42 58 60 64 76 82 90 96 108
4,A,243,0 2 8 9 15 20 24 26 54 56 62 63 69 74 78 80 83 89 90 96 101 105 107 135 137 143 144 150 155 159 161 162
4,B,243,0 4 16 18 30 40 48 52 108 112 124 126 138 148 156 160 166 178 180 192 202 210 214 270 274 286 288 300 310 318 322 324
"""),
]


@pytest.mark.parametrize(
    "argv, code, plain, csv", GOLDEN,
    ids=[case[0].replace("--", "").replace(" ", "-") for case in GOLDEN],
)
def test_text_output_is_exact(capsys, argv, code, plain, csv):
    for fmt, expected in (("plain", plain), ("csv", plain if csv is SAME else csv)):
        assert run_cli(capsys, *argv.split(), "--format", fmt) == (code, expected, "")


@pytest.mark.parametrize(
    "argv, code, plain, csv", GOLDEN,
    ids=[case[0].replace("--", "").replace(" ", "-") for case in GOLDEN],
)
def test_json_output_is_its_own_layout(capsys, argv, code, plain, csv):
    # Every number printed is an int a double holds exactly or a float
    # that round-trips, so reading the output back and writing it with the
    # standard library's indented encoder gives the same text.
    out_code, out, err = run_cli(capsys, *argv.split(), "--format", "json")
    assert (out_code, err) == (code, "")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# Digests of outputs too long to spell out.  The gen case's terms reach
# about 19 windows of core._WINDOW values; the growth case writes 16,383
# rows, several blocks of cli._BLOCK_ROWS.  The search cases pin the sets
# and their order; at ell = 1 and bound 35 the last middle slot spans up
# to four periods of N = 9.  The JSON cases pin the writer's text on every
# subcommand with a long record: the 4,096-element cover of lambda =
# 300002, null ratios, and nested dataclasses.
DIGESTS = [
    pytest.param("gen --seed 0,1,13 --count 32768 --format csv",
                 "45b5f545999933a14602c65a989f6e68b4ea0a147f7f2f4be3ebe566b476ada3", id="gen"),
    pytest.param("growth --seed 0,3,4 --count 16384 --format csv",
                 "e6faa0899e516a5ecaada4509fcefb6d7432781bde7c1619b618ed083b2f5d02", id="growth"),
    pytest.param("search --ell 2 --max-element 36 --format json",
                 "cddeefb71b3685471da9e0d8c9337f88d9a2b12d1d3afc6232d5de2f4cef5ab8", id="search0"),
    pytest.param("search --ell 1 --max-element 35 --format csv",
                 "505f4a0d3ffb6423f0c761ff676bbd3e7caf59886c5964ec88f337e40bc5edb0", id="search1"),
    pytest.param("search --ell 3 --max-element 40 --first-only --format json",
                 "9b570a7d790e5110c299bd9a7b6f47287cbe12ad6a33c826d2881bb63f54b743", id="search2"),
    pytest.param("character --lambda 300002 --format json",
                 "34abd220930751779dae32584d0ba41975e22ff2c05e4e7b7cdba341060de6c3",
                 id="character-json"),
    pytest.param("character --lambda 40 --count 50 --format json",
                 "52b66e0167e9fb2ac0bc2917a649a07b6d83d598a10e66701effa86afa1b7b16",
                 id="character-terms-json"),
    pytest.param("gen --seed 0,1,13 --count 4096 --format json",
                 "cc36b837a8ac91d2ba1ae238605ccf5282d4d6b1a3ee16ededd09bf15190d825",
                 id="gen-json"),
    pytest.param("growth --seed 0,4 --count 2000 --format json",
                 "f96fb99192e2bce990f5acc44426bc273995115c851787e0de12d46c8bf980db",
                 id="growth-json"),
    pytest.param("growth --seed 0 --count 1 --format json",
                 "ff8c94c88f2911fcd6979f1ea0cb6594b27688ca3a06c27f348eb1e15a9db1f9",
                 id="growth-null-json"),
    pytest.param("coverage --modulus 486 --format json",
                 "45e743e73aed295948870a6a179db58f092efeed09803430df07143cb1a39911",
                 id="coverage-json"),
    pytest.param("explore --head-length 3 --max-entry 12 --format json",
                 "3900cbf0181280c66263ae93f1d751191e8b6afc28e288074bb0228daa38cb61",
                 id="explore-json"),
    # 57 survivors, two of them only the geometric tail start reaches.
    pytest.param("explore --head-length 3 --max-entry 30 --format json",
                 "4aa56e26c4bf2f921d4415237fbeb4d5899ccc7839d1894b0e0afa771f817a8f",
                 id="explore-wide-json"),
    pytest.param("families --format json",
                 "6909173a8a75506ccc7c8f778d8fa47abe9e7cbe588e715e63b65824f2d02462",
                 id="families-json"),
]


@pytest.mark.parametrize("argv, digest", DIGESTS)
def test_long_output_digests(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_term_20000_of_a_chaotic_seed(capsys):
    # The installed-package step of CI checks the same line with
    # `stanley gen --seed 0,1,13 --count 20000 --format csv | tail -1`.
    code, out, _ = run_cli(capsys, "gen", "--seed", "0,1,13", "--count", "20000", "--format", "csv")
    assert (code, out.splitlines()[-1]) == (EXIT_OK, "15944290")


def test_every_subcommand_prints_only_through_the_renderer(capsys):
    # Each subparser needs a _cmd_<name> that returns a Report without
    # printing, a schema and a golden case, so no subcommand can write
    # around the one renderer.
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    golden = {case[0].split()[0]: case[0].split() for case in GOLDEN}
    assert set(subparsers.choices) == set(golden)
    for name, argv in golden.items():
        args = parser.parse_args(argv)
        assert args.handler is getattr(cli, f"_cmd_{name}")
        assert isinstance(args.handler(cli._normalize(args)), cli.Report)
        assert capsys.readouterr() == ("", "")
        run_json(capsys, *argv)  # validates against schemas/<name>.json


@dataclass(frozen=True)
class _Pair:
    first: object
    second: object


# Each strategy draws a builder, a function that makes a fresh value, so a
# generator in the value can be consumed once by each writer.
_JSON_INTS = st.one_of(
    st.integers(),
    st.builds(lambda base, sign, step: sign * base + step,
              st.sampled_from([2**53, 2**63]), st.sampled_from([1, -1]), st.integers(-2, 2)),
)
_JSON_LEAVES = st.one_of(
    _JSON_INTS, st.booleans(), st.none(),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.text(), st.sampled_from(['"', "\\", "\n\t\x00\x1f", "\u2028", "\U0001f600", "é"]),
    # Sequences of ints, for the joined fast path and the bools it must refuse.
    st.lists(_JSON_INTS), st.lists(st.one_of(_JSON_INTS, st.booleans())).map(tuple),
).map(lambda v: lambda: v)


def _json_nodes(children):
    many = st.lists(children, max_size=4)
    return st.one_of(
        many.map(lambda bs: lambda: [b() for b in bs]),
        many.map(lambda bs: lambda: tuple(b() for b in bs)),
        many.map(lambda bs: lambda: (b() for b in bs)),
        st.dictionaries(st.text(max_size=4), children, max_size=4).map(
            lambda d: lambda: {k: b() for k, b in d.items()}),
        st.tuples(children, children).map(lambda ab: lambda: _Pair(ab[0](), ab[1]())),
        children.map(lambda b: lambda: b),  # a callable that builds the value
    )


@given(st.recursive(_JSON_LEAVES, _json_nodes, max_leaves=30))
@settings(max_examples=400, deadline=None)
def test_json_writer_matches_the_standard_library(build):
    assert cli._json_text(build()) == naive_json_text(build())


def test_json_render_of_a_long_run_holds_each_term_text_once(capsys):
    # The record of `gen --seed 0 --count 262144`: term i of S(0) is i in
    # binary read in base 3.  Its 3.8 MB of text peak at 20.1 MiB, each
    # term's text held once and then joined; the standard library's
    # indented encoder peaked at 23.8 MiB.
    terms = tuple(int(f"{i:b}", 3) for i in range(2**18))
    assert list(terms[:40]) == naive_stanley([0], 40)
    report = cli.Report({"seed": (0,), "terms": terms})
    tracemalloc.start()
    try:
        cli._render("json", report)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(capsys.readouterr().out) == 3757477
    assert peak < 22 * 2**20


def test_gen_plain_tokens(capsys):
    code, out, err = run_cli(capsys, "gen", "--seed", "0", "--count", "8")
    assert code == EXIT_OK and err == ""
    assert out.split() == ["0", "1", "3", "4", "9", "10", "12", "13"]


def test_gen_csv(capsys):
    code, out, _ = run_cli(
        capsys, "gen", "--format", "csv", "--seed", "0,1,7", "--count", "5"
    )
    assert code == EXIT_OK
    assert out.splitlines() == ["0", "1", "7", "8", "10"]


def test_gen_json_schema(capsys):
    code, payload, _ = run_json(capsys, "gen", "--seed", "0,2,5,6", "--count", "10")
    assert code == EXIT_OK
    assert payload["terms"][:4] == [0, 2, 5, 6]
    assert payload["seed"] == [0, 2, 5, 6]


def test_gen_rejects_ap_seed(capsys):
    code, out, err = run_cli(capsys, "gen", "--seed", "0,1,2", "--count", "5")
    assert code == EXIT_INPUT and out == ""
    assert "progression" in err


def test_gen_requires_bound(capsys):
    code, _, err = run_cli(capsys, "gen", "--seed", "0")
    assert code == EXIT_INPUT and "count" in err


def test_gen_overflow_is_resource_exit(capsys):
    code, _, err = run_cli(
        capsys, "gen", "--seed", f"0,{2**61}", "--count", "5"
    )
    assert code == EXIT_RESOURCE and "64-bit" in err


@pytest.mark.parametrize("message", ["Unable to allocate 37.3 GiB", ""], ids=["numpy", "bare"])
def test_memory_error_is_resource_exit(capsys, monkeypatch, message):
    # A huge --count asks for a terms buffer of that many int64 values; the
    # allocation failure is simulated, never made.
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(core, "generate", out_of_memory)
    code, out, err = run_cli(capsys, "gen", "--seed", "0", "--count", "1000000000000")
    assert code == EXIT_RESOURCE and out == ""
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert message in err


def test_gen_huge_seed_value_needs_one_window(capsys):
    # Memory follows the window and its pad, as many bytes again, not the
    # values: the seed 0,10**10 once asked for a 37 GiB sieve.
    tracemalloc.start()
    try:
        code, payload, _ = run_json(capsys, "gen", "--seed", "0,10000000000", "--count", "20")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert payload["terms"] == naive_stanley([0, 10**10], 20)
    assert peak < 2 * core._WINDOW + 2**20


def test_analyze_independent(capsys):
    code, payload, _ = run_json(capsys, "analyze", "--seed", "0,1,7", "--depth", "4")
    assert code == EXIT_OK
    assert payload["independent"] is True
    assert payload["character"] == 7
    assert payload["chi"] == 2
    assert payload["repeat_factor"] == 10


def test_analyze_refutation_exits_one(capsys):
    code, payload, _ = run_json(capsys, "analyze", "--seed", "0,4", "--depth", "6")
    assert code == EXIT_FINDING
    assert payload["independent"] is False
    assert payload["violation"]["depth"] == 6


def test_modset_valid(capsys):
    code, payload, _ = run_json(
        capsys, "modset", "--elements", "0,2,5,6", "--modulus", "9"
    )
    assert code == EXIT_OK
    assert payload["verdict"] == "modular"


def test_modset_invalid(capsys):
    code, payload, _ = run_json(
        capsys, "modset", "--elements", "0,1", "--modulus", "9"
    )
    assert code == EXIT_FINDING
    assert payload["verdict"] == "invalid"
    assert payload["violation"]["kind"] == "uncovered-residue"


def test_modset_near_flag(capsys):
    # shifted family set: largest element pushed past the modulus
    code, payload, _ = run_json(
        capsys, "modset", "--near", "--elements", "0,2,5,15", "--modulus", "9"
    )
    assert code == EXIT_OK
    assert payload["verdict"] == "near-modular-only"
    code2, _, _ = run_cli(
        capsys, "modset", "--elements", "0,2,5,15", "--modulus", "9"
    )
    assert code2 == EXIT_FINDING  # strict mode insists on range


def test_modset_near_element_past_int64(capsys):
    # 6 + 9 * 2**70 has the residue of 15 mod 9, so the verdict must match.
    big = str(6 + 9 * 2**70)
    small = run_cli(capsys, "modset", "--near", "--elements", "0,2,5,15", "--modulus", "9")
    huge = run_cli(capsys, "modset", "--near", "--elements", f"0,2,5,{big}", "--modulus", "9")
    assert huge == small == (EXIT_OK, "verdict: near-modular-only\n", "")
    code, payload, _ = run_json(
        capsys, "modset", "--near", "--elements", f"0,2,5,{big}", "--modulus", "9"
    )
    assert code == EXIT_OK and payload["verdict"] == "near-modular-only"
    assert payload["elements"][-1] == big


def test_search_finds_known_set(capsys):
    code, payload, _ = run_json(
        capsys, "search", "--ell", "1", "--max-element", "6"
    )
    assert code == EXIT_OK
    assert [0, 2, 5, 6] in payload["sets"]


def test_search_empty_exits_one(capsys):
    code, payload, _ = run_json(
        capsys, "search", "--ell", "1", "--max-element", "2"
    )
    assert code == EXIT_FINDING
    assert payload["sets"] == []


def test_search_with_a_huge_ell_exits_one_at_once(capsys):
    # No set of 2**(ell+1) elements fits below 5, and the modulus
    # 3**(ell+1), over a minute's work at this ell, is built only for JSON.
    start = time.perf_counter()
    assert run_cli(capsys, "search", "--ell", "100000000", "--max-element", "5") == (
        EXIT_FINDING, "", "")
    assert time.perf_counter() - start < 5


def test_search_json_prints_a_modulus_past_the_int_string_limit(capsys):
    # 3**10001 has 4,772 digits, past the 4,300 that int-to-str allows.
    code, out, err = run_cli(
        capsys, "search", "--ell", "10000", "--max-element", "5", "--format", "json"
    )
    assert (code, err) == (EXIT_FINDING, "")
    payload = json.loads(out)
    assert payload["sets"] == [] and payload["ell"] == 10000
    digits = payload["modulus"]
    assert len(digits) == 4772 and digits.isdigit()
    value = 0
    for i in range(0, len(digits), 1000):  # chunks int() converts
        chunk = digits[i : i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    assert value == 3**10001
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1f0f7194a5e3cfa6a33712e2275a009d463742369647d00669ea7e61a7ce2870")


def test_search_budget_exit(capsys):
    code, _, err = run_cli(
        capsys, "search", "--ell", "2", "--max-element", "18", "--budget", "5"
    )
    assert code == EXIT_RESOURCE and "budget" in err.lower()


def test_search_worker_determinism(capsys):
    _, solo, _ = run_cli(
        capsys, "search", "--format", "json", "--ell", "1", "--max-element", "9"
    )
    _, multi, _ = run_cli(
        capsys,
        "search", "--format", "json", "--ell", "1", "--max-element", "9",
        "--workers", "3",
    )
    assert solo == multi


def test_character_family_plan(capsys):
    code, payload, _ = run_json(
        capsys, "character", "--lambda", "40", "--count", "12"
    )
    assert code == EXIT_OK
    assert payload["target"] == 40
    recipe = payload["recipe"]
    assert recipe["kind"] == "family"
    assert recipe["index"] == 1 and recipe["side"] == "A" and recipe["shift"] == 2
    assert payload["certificate"]["character"] == 40
    assert len(payload["terms"]) == 12


def test_character_basis_plan(capsys):
    code, payload, _ = run_json(capsys, "character", "--lambda", "8")
    assert code == EXIT_OK
    assert payload["recipe"] == {"kind": "basis", "head": [2, 6]}
    assert payload["seed"]["modulus"] == 9


def test_character_excluded_class(capsys):
    code, out, err = run_cli(capsys, "character", "--lambda", "244")
    assert code == EXIT_FINDING and out == ""
    assert "not covered" in err


@pytest.mark.parametrize("power", [60, 15])
def test_character_cover_past_the_cap_is_a_resource_exit(capsys, power):
    # lam = 2 * 3**power plans the head (1, 3, ..., 3**(power-1), 2 * 3**power),
    # whose cover of 2**(power+1) sums is refused before any is built.
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run_cli(capsys, "character", "--lambda", str(2 * 3**power))
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (EXIT_RESOURCE, "")
    assert err == (
        f"error: cover of {2 ** (power + 1)} elements exceeds the cap of {basis.COVER_CAP}\n"
    )
    assert elapsed < 1 and peak < 8 * 2**20


def test_character_bad_targets(capsys):
    for target in ("9", "-2"):
        code, _, err = run_cli(capsys, "character", "--lambda", target)
        assert code == EXIT_INPUT and "error:" in err


def test_coverage_json(capsys):
    code, payload, _ = run_json(capsys, "coverage")
    assert code == EXIT_OK
    assert payload["modulus"] == 486
    assert payload["uncovered"] == [244]
    kinds = [e["kind"] for e in payload["entries"]]
    assert kinds.count("basic") == 162
    assert kinds.count("family") == 80
    assert kinds.count("uncovered") == 1


def test_coverage_plain_mentions_uncovered(capsys):
    code, out, _ = run_cli(capsys, "coverage")
    assert code == EXIT_OK
    assert "uncovered: 244" in out


def test_growth_json(capsys):
    code, payload, _ = run_json(
        capsys, "growth", "--seed", "0,4", "--count", "64"
    )
    assert code == EXIT_OK
    assert payload["alpha_estimate"] is not None
    assert payload["ratio_min"] <= payload["ratio_max"]
    rows = payload["samples"]
    assert rows[-1]["n"] == 63


def test_growth_degenerate_is_null_not_nan(capsys):
    code, out, _ = run_cli(
        capsys, "growth", "--format", "json", "--seed", "0", "--count", "1"
    )
    assert code == EXIT_OK
    payload = json.loads(out)  # must be strictly valid JSON
    assert payload["alpha_estimate"] is None
    validate("growth", payload)


def test_explore_json(capsys):
    code, payload, _ = run_json(
        capsys, "explore", "--head-length", "2", "--max-entry", "8"
    )
    assert code == EXIT_OK
    heads = {tuple(r["head"]) for r in payload["results"]}
    assert (2, 6) in heads


def test_explore_worker_determinism(capsys):
    args = ["explore", "--format", "csv", "--head-length", "2", "--max-entry", "9"]
    _, solo, _ = run_cli(capsys, *args)
    _, multi, _ = run_cli(capsys, *args, "--workers", "4")
    assert solo == multi


def test_families_json(capsys):
    code, payload, _ = run_json(capsys, "families")
    assert code == EXIT_OK
    assert len(payload["families"]) == 8
    first = {(f["index"], f["side"]): f for f in payload["families"]}
    assert first[(1, "A")]["elements"] == [0, 2, 5, 6]
    assert first[(1, "A")]["modulus"] == 9


def test_env_budget_respected(capsys, monkeypatch):
    monkeypatch.setenv("STANLEY_NODE_BUDGET", "5")
    code, _, err = run_cli(
        capsys, "search", "--ell", "2", "--max-element", "18"
    )
    assert code == EXIT_RESOURCE and "budget" in err.lower()


def test_env_budget_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("STANLEY_NODE_BUDGET", "5")
    code, _, _ = run_cli(
        capsys,
        "search", "--ell", "1", "--max-element", "6", "--budget", "100000",
    )
    assert code == EXIT_OK


def test_env_budget_invalid_value(capsys, monkeypatch):
    monkeypatch.setenv("STANLEY_NODE_BUDGET", "lots")
    code, _, err = run_cli(
        capsys, "search", "--ell", "1", "--max-element", "6"
    )
    assert code == EXIT_INPUT and "STANLEY_NODE_BUDGET" in err


@pytest.mark.parametrize("argv, env_budget, code, message", [
    (("gen", "--seed", "abc", "--count", "3"), None, EXIT_INPUT,
     "error: not a comma-separated integer list: 'abc'\n"),
    (("gen", "--seed", " , ", "--count", "3"), None, EXIT_INPUT, "error: empty integer list\n"),
    (("search", "--ell", "1", "--max-element", "6"), "0", EXIT_INPUT,
     "error: STANLEY_NODE_BUDGET must be positive\n"),
    (("analyze", "--seed", "0", "--depth", "6", "--count", "50"), None, EXIT_INPUT,
     "error: depth 6 needs at least 96 terms\n"),
    # A total of more than 4300 digits is too long for str(): its size is given.
    (("explore", "--head-length", "15000", "--max-entry", "15000", "--budget", "1"), None,
     EXIT_RESOURCE, "error: a 15001-bit count of candidate heads exceeds the budget 1\n"),
    # Term counts whose buffer numpy refuses to size at all.
    (("gen", "--seed", "0", "--count", str(2**60)), None, EXIT_RESOURCE,
     f"error: out of memory: cannot allocate {2**60} terms\n"),
    (("gen", "--seed", "0", "--count", str(2**62)), None, EXIT_RESOURCE,
     f"error: out of memory: cannot allocate {2**62} terms\n"),
    (("gen", "--seed", "0", "--count", str(2**70)), None, EXIT_RESOURCE,
     f"error: out of memory: cannot allocate {2**70} terms\n"),
    (("analyze", "--seed", "0", "--depth", "200"), None, EXIT_RESOURCE,
     f"error: out of memory: cannot allocate {2**200 + 2**199} terms\n"),
    (("analyze", "--seed", "0", "--depth", "20000"), None, EXIT_RESOURCE,
     "error: out of memory: cannot allocate a 20001-bit count of terms\n"),
    (("analyze", "--seed", "0", "--depth", "20000", "--count", "5"), None, EXIT_INPUT,
     "error: depth 20000 needs at least a 20001-bit count of terms\n"),
    # The certificate's term count is sized before the realization is composed.
    (("character", "--lambda", "10", "--depth", "200"), None, EXIT_RESOURCE,
     f"error: out of memory: cannot allocate {2**201} terms\n"),
], ids=["seed_not_integers", "seed_empty", "env_budget_zero", "analyze_too_few_terms",
        "explore_total_past_str_limit", "gen_count_2_60", "gen_count_2_62", "gen_count_2_70",
        "analyze_depth_200", "analyze_depth_past_str_limit", "analyze_count_below_a_huge_depth",
        "character_depth_200"])
def test_input_and_resource_errors(capsys, monkeypatch, argv, env_budget, code, message):
    if env_budget is not None:
        monkeypatch.setenv("STANLEY_NODE_BUDGET", env_budget)
    assert run_cli(capsys, *argv) == (code, "", message)


def test_main_builds_its_parser_once(capsys, monkeypatch):
    # Two main() calls in one process construct one parser, and each
    # still reads STANLEY_NODE_BUDGET when it runs.
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        if kwargs.get("prog") == "stanley":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    getattr(cli.build_parser, "cache_clear", lambda: None)()
    argv = ("search", "--ell", "1", "--max-element", "6")
    monkeypatch.setenv("STANLEY_NODE_BUDGET", "5")
    assert run_cli(capsys, *argv)[0] == EXIT_RESOURCE
    monkeypatch.setenv("STANLEY_NODE_BUDGET", "100000")
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    assert len(built) == 1


def test_argparse_rejects_unknown_format():
    with pytest.raises(SystemExit) as e:
        main(["gen", "--format", "xml", "--seed", "0", "--count", "4"])
    assert e.value.code == 2


def test_argparse_requires_seed():
    with pytest.raises(SystemExit) as e:
        main(["gen", "--count", "4"])
    assert e.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["gen", "--seed", "-1,0", "--count", "4"], "seed contains negative element -1"),
    (["modset", "--elements", "-1,2", "--modulus", "9"], "elements must be nonnegative"),
], ids=["seed", "elements"])
def test_integer_lists_may_start_with_a_minus_sign(capsys, argv, message):
    # argparse took "-1,0" for an option and stopped with "expected one
    # argument"; the list now reaches its own validation.
    assert run_cli(capsys, *argv) == (EXIT_INPUT, "", f"error: {message}\n")


def test_positivity_validation(capsys):
    code, out, err = run_cli(capsys, "gen", "--seed", "0", "--count", "-3")
    assert (code, out, err) == (EXIT_INPUT, "", "error: --count must be nonnegative\n")


@pytest.mark.parametrize("argv", [
    ["gen", "--seed", "0", "--count"],
    ["growth", "--seed", "0", "--count"],
    ["character", "--lambda", "10", "--count"],
    ["analyze", "--seed", "0", "--count"],
    ["gen", "--seed", "0", "--limit"],
    ["growth", "--seed", "0", "--limit"],
], ids=["gen-count", "growth-count", "character-count", "analyze-count", "gen-limit",
        "growth-limit"])
def test_count_and_limit_must_be_nonnegative(capsys, argv):
    # Zero passes the bound check and reaches the command's own checks, so
    # the refusal of -1 says "nonnegative".
    option = argv[-1]
    assert run_cli(capsys, *argv, "-1") == (EXIT_INPUT, "", f"error: {option} must be nonnegative\n")
    assert "must be" not in run_cli(capsys, *argv, "0")[2]


@pytest.mark.parametrize("depth", ["-1", "0"])
@pytest.mark.parametrize("argv", [["analyze", "--seed", "0"], ["character", "--lambda", "10"]])
def test_depth_must_be_positive(capsys, argv, depth):
    # Rejected before any term count is derived from it.
    code, out, err = run_cli(capsys, *argv, "--depth", depth)
    assert (code, out, err) == (EXIT_INPUT, "", "error: --depth must be positive\n")


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_closed_stdout_exits_zero_quietly(capsys, monkeypatch, fmt):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(["gen", "--seed", "0,1,13", "--count", "50", "--format", fmt])
    assert code == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("count", [5, 3000])
def test_entry_with_closed_reader_exits_zero_quietly(count):
    # A pipe whose reader is already gone: 5 terms stay in the buffer
    # until the final flush, 3000 overflow it inside main.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "stanley.cli", "gen", "--seed", "0", "--count", str(count)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")


# ---------------------------------------------------------------------------
# Fuzzed command lines.  Every run is small by construction: options that
# set the work stay small, --workers stays 1, and huge numbers go only where
# they are refused before any work (--lambda meets the cover cap, and seed
# and element entries past 2**62 meet the value cap or exact arithmetic).

_JUNK = st.sampled_from(["", ",,", "-0", "1e3", "0x10", "abc", " "])
_HUGE = st.integers(10**25, 10**80)


def _small(lo, hi):
    # An integer in [lo, hi], sometimes written with leading zeros.
    return st.one_of(st.integers(lo, hi).map(str), st.integers(0, hi).map("00{}".format))


# A huge value one entry in ten, else a small one; 0 leads half the lists.
_ENTRY = st.integers(0, 9).flatmap(
    lambda k: st.one_of(_HUGE, _HUGE.map(int.__neg__)) if k == 0 else st.integers(-2, 40))
_LIST = st.builds(lambda zero, rest: ",".join(map(str, [0] * zero + rest)),
                  st.booleans(), st.lists(_ENTRY, min_size=1, max_size=5))

# Per subcommand, each option's values; None marks a flag.
_FUZZ_OPTIONS = {
    "gen": {"--seed": _LIST, "--count": _small(-2, 200), "--limit": _small(-2, 200)},
    "analyze": {"--seed": _LIST, "--depth": _small(-1, 6), "--count": _small(-2, 200)},
    "modset": {"--elements": _LIST, "--modulus": st.one_of(_small(-2, 100), _HUGE.map(str)),
               "--near": None},
    "search": {"--ell": _small(-1, 2), "--max-element": _small(-1, 40),
               "--budget": _small(-1, 10**4), "--workers": st.just("1"), "--first-only": None},
    "character": {"--lambda": st.one_of(_small(-4, 400), _HUGE.map(str), _HUGE.map("-{}".format)),
                  "--depth": _small(-1, 6), "--count": _small(-2, 200)},
    "coverage": {"--modulus": _small(-6, 10**4)},
    "growth": {"--seed": _LIST, "--count": _small(-2, 200), "--limit": _small(-2, 200),
               "--spacing": _small(-1, 50)},
    "explore": {"--head-length": _small(-1, 3), "--max-entry": _small(-1, 12),
                "--budget": _small(-1, 10**4), "--workers": st.just("1")},
    "families": {},
}


@st.composite
def _fuzz_argv(draw, command):
    # Each option is left out one time in ten, takes a junk token one time
    # in ten (never --workers), and otherwise a value; flags are coin flips.
    options = {**_FUZZ_OPTIONS[command], "--format": st.sampled_from(cli.FORMATS)}
    pairs = []
    for option, values in options.items():
        if values is None:
            if draw(st.booleans()):
                pairs.append([option])
            continue
        kind = draw(st.sampled_from(["value"] * 8 + ["junk", "absent"]))
        if kind == "junk" and option != "--workers":
            pairs.append([option, draw(_JUNK)])
        elif kind != "absent":
            pairs.append([option, draw(values)])
    return [command, *(arg for pair in draw(st.permutations(pairs)) for arg in pair)]


def test_fuzz_draws_every_option_of_every_subcommand():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(_FUZZ_OPTIONS)
    for name, sub in subparsers.choices.items():
        options = {s for a in sub._actions for s in a.option_strings}
        assert options - {"-h", "--help", "--format"} == set(_FUZZ_OPTIONS[name])


@pytest.mark.parametrize("command", sorted(_FUZZ_OPTIONS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_fuzzed_command_lines_end_in_a_known_exit_code(command, data):
    argv = data.draw(_fuzz_argv(command))
    env = {"STANLEY_NODE_BUDGET": data.draw(st.one_of(_JUNK, _small(-1, 10**4)))}
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    assert code in (EXIT_OK, EXIT_FINDING, EXIT_INPUT, EXIT_RESOURCE), (argv, env, code)
    assert "Traceback" not in err.getvalue()
