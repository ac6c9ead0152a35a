"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# Spans and self time.


def test_self_times_on_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9].
    recorded = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["g", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
    ]
    assert spans.self_times(recorded) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_merge_overlapping_and_clip_outside_children():
    recorded = [
        ["p", 0.0, 10.0, -1, 0],
        ["c1", 1.0, 5.0, 0, 0],
        ["c2", 3.0, 7.0, 0, 0],  # overlaps c1: the union [1, 7] counts once
        ["c3", 8.0, 12.0, 0, 0],  # runs past p: only [8, 10] counts
    ]
    assert spans.self_times(recorded)[0] == pytest.approx(10.0 - 6.0 - 2.0)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_tracer_nests_spans_and_counts_errors_where_they_leave_a_layer():
    tracer = spans.Tracer(clock=_Clock())

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    def outer(x):
        return traced_inner(x) + 1

    traced_inner = tracer.wrap("core.inner", inner)
    traced_outer = tracer.wrap("characters.outer", outer)
    tracer.op = 7
    assert traced_outer(1) == 2
    (o_name, o_start, o_end, o_parent, o_op), (i_name, i_start, i_end, i_parent, i_op) = tracer.spans
    assert (o_name, o_parent, o_op) == ("characters.outer", -1, 7)
    assert (i_name, i_parent, i_op) == ("core.inner", 0, 7)
    assert o_start < i_start < i_end < o_end
    with pytest.raises(ValueError):
        traced_outer(-1)
    # The error left core (into characters) and then characters (to the caller).
    assert tracer.counts["core.errors"] == 1
    assert tracer.counts["characters.errors"] == 1


def test_every_named_layer_function_is_traced_where_it_was_imported():
    sys.path.insert(0, str(ROOT / "src"))
    tracer = spans.Tracer()
    tracer.install()
    try:
        from stanley import basis, characters, cli, modsets

        modules = {"basis": basis, "characters": characters, "cli": cli, "modsets": modsets}
        for name in run.PER_LAYER:
            layer, *rest = name.split(".")
            if len(rest) == 2:
                module = modules.get(layer) or sys.modules[f"stanley.{layer}"]
                assert hasattr(getattr(module, rest[0]), "__wrapped__"), name
        assert characters.verify_modular is modsets.verify_modular
        assert basis.verify_near_modular is modsets.verify_near_modular
        assert not hasattr(cli.run, "__wrapped__")
    finally:
        for name in [m for m in sys.modules if m == "stanley" or m.startswith("stanley.")]:
            del sys.modules[name]


# ---------------------------------------------------------------------------
# References and output checks.


def test_greedy_prefix_of_zero_is_the_ternary_sequence():
    assert checks.greedy_prefix((0,), 8) == [0, 1, 3, 4, 9, 10, 12, 13]
    assert checks.greedy_prefix((0, 1, 7), 5) == [0, 1, 7, 8, 10]


@pytest.mark.parametrize("seed", [(0,), (0, 3, 4), (0, 1, 13), (0, 5, 6, 11, 13, 14)])
def test_greedy_violations_accepts_exactly_the_naive_greedy_sequence(seed):
    terms = checks.greedy_prefix(seed, 1500)
    assert checks.greedy_violations(seed, terms) == []
    assert checks.greedy_violations(seed, terms[:700]) == []
    raised = terms[:]
    raised[900] += 1
    assert checks.greedy_violations(seed, raised)
    assert checks.greedy_violations(seed, terms[:900] + terms[901:])
    assert checks.greedy_violations(seed, terms + [terms[-1] + 1])
    assert checks.greedy_violations(seed, [terms[0] + 1] + terms[1:])
    assert checks.greedy_violations(seed, terms[:500] + [terms[499]] + terms[500:])


def test_brute_force_near_modular():
    for fam in checks.FAMILY_SETS_ELL2:
        assert checks.is_near_modular(fam, 27)
    assert not checks.is_near_modular((0, 1, 2, 4, 6, 10, 13, 18), 27)


def test_search_tables_match_the_independent_enumeration():
    counts = {m: len(checks.near_modular_sets(2, m)) for m in workloads.ELL2_BOUNDS}
    assert counts == checks.ELL2_SET_COUNTS
    for fam in checks.FAMILY_SETS_ELL2:
        assert fam in checks.near_modular_sets(2, fam[-1])
    for m in (31, 32, 33, 40):
        found = checks.near_modular_sets(3, m, first_only=True)
        assert found == ([checks.ELL3_FIRST[m]] if checks.ELL3_FIRST[m] else [])


def test_tail_latency_needs_more_than_ten_samples():
    assert run.tail_latency([0.001] * 10) is None
    tail = run.tail_latency([i / 1000 for i in range(1, 21)])
    assert tail["value"] == pytest.approx(10.0)
    assert (tail["percentile"], tail["samples"]) == (50.0, 20)


# ---------------------------------------------------------------------------
# Correct outputs pass, corrupted outputs raise the failure count.


SMALL_OPS = [
    {"kind": "gen", "argv": ["gen", "--seed", "0,3,4", "--count", "300", "--format", "json"],
     "seed": [0, 3, 4], "count": 300},
    {"kind": "growth", "argv": ["growth", "--seed", "0,3,4", "--count", "300", "--format", "csv"],
     "seed": [0, 3, 4], "count": 300},
    workloads._character_op(40),
    workloads._character_op(244),
    workloads._search_op(2, 18),
    workloads._search_op(2, 27),
]


class _Corrupting:
    """Stands in for stanley.cli: real runs, with one output altered."""

    def __init__(self, cli, target: int, edit):
        self.cli, self.target, self.edit, self.calls = cli, target, edit, 0

    def main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        text = out.getvalue()
        if argv == SMALL_OPS[self.target]["argv"]:
            self.calls += 1
            code, text = self.edit(code, text, self.calls)
        print(text, end="")
        return code


@pytest.fixture(scope="module")
def cli():
    sys.path.insert(0, str(ROOT / "src"))
    from stanley import cli

    return cli


@pytest.mark.parametrize("probe", sorted(worker.PROBES))
def test_correct_outputs_pass(cli, probe):
    report, facts = worker.run_and_check(cli, SMALL_OPS + [workloads._search_op(2, 16, workers=2)],
                                         seconds=0.0, probe=probe)
    assert report["failed"] == 0, report["problems"]
    assert len(report["ref_latencies"]) == len(SMALL_OPS) + 1
    assert all(r > 0 for r in report["ref_latencies"])
    assert facts[3]["recipe"] == "excluded"
    assert facts[5]["sets"] == 0


def _bump_last_term(code, text, calls):
    obj = json.loads(text)
    obj["terms"][-1] += 1
    return code, json.dumps(obj)


def _wrong_character(code, text, calls):
    obj = json.loads(text)
    obj["certificate"]["character"] = 42
    return code, json.dumps(obj)


def _drop_a_set(code, text, calls):
    obj = json.loads(text)
    obj["sets"] = obj["sets"][1:]
    return code, json.dumps(obj)


def _exit_zero(code, text, calls):
    return 0, text


def _differ_in_pass_two(code, text, calls):
    return code, text + "\n" if calls == 2 else text


@pytest.mark.parametrize("target, edit", [
    (0, _bump_last_term),
    (2, _wrong_character),
    (4, _drop_a_set),
    (3, _exit_zero),
    (1, _differ_in_pass_two),
])
def test_corrupted_output_raises_failed_ratio(cli, target, edit):
    honest, _ = worker.run_and_check(cli, SMALL_OPS, seconds=1e9, max_passes=2)
    corrupted, _ = worker.run_and_check(_Corrupting(cli, target, edit), SMALL_OPS,
                                        seconds=1e9, max_passes=2)
    assert honest["failed"] == 0
    assert corrupted["attempted"] == honest["attempted"] == 2 * len(SMALL_OPS)
    assert corrupted["failed"] / corrupted["attempted"] > 0


# ---------------------------------------------------------------------------
# Workloads and the benchmark definition.


def test_workloads_are_fixed_by_their_seed():
    for name in workloads.NAMES:
        assert workloads.build(name, 3) == workloads.build(name, 3)
        assert workloads.build(name, 3) != workloads.build(name, 4)


def test_character_sweep_contains_the_excluded_class():
    for seed in range(20):
        ops, _ = workloads.build("character-sweep", seed)
        targets = [op["target"] for op in ops]
        assert any(checks.expected_exit(op) == 1 for op in ops)
        assert workloads.SWEEP_BAND[0] <= targets[0] and targets[-1] < workloads.SWEEP_BAND[1]


def test_pool_seeds_are_admissible():
    for seed in workloads.TAME_SEEDS + workloads.CHAOTIC_SEEDS:
        assert seed[0] == 0 and max(seed) <= 16
        assert checks.greedy_prefix(seed, len(seed)) == list(seed)
        assert not any(2 * y - x in seed for i, y in enumerate(seed) for x in seed[:i])


def _exact_run(counts_per_pass, codes=(0, 1)):
    return {"exact": {"ops_per_pass": len(codes), "codes": list(codes), "output_sha256": "d",
                      "pass_counts": counts_per_pass}}


def test_exact_counts_must_repeat(tmp_path):
    store = tmp_path / "exact.json"
    same = [{"stdout_bytes": 10, "core.generate.calls": 2}] * 2
    run.check_exact([_exact_run(same)], store)
    run.check_exact([_exact_run(same), _exact_run([{"stdout_bytes": 10}])], store)
    with pytest.raises(run.BenchmarkError, match="between passes"):
        run.check_exact([_exact_run([{"stdout_bytes": 10}, {"stdout_bytes": 11}])], store)
    with pytest.raises(run.BenchmarkError, match="core.generate.calls"):
        run.check_exact([_exact_run([{"stdout_bytes": 10, "core.generate.calls": 3}])], store)
    with pytest.raises(run.BenchmarkError, match="outputs differ"):
        run.check_exact([_exact_run(same, codes=(0, 0))], store)


def test_pass_time_sums_each_operations_median():
    assert run.pass_time([1, 10, 3, 20, 2, 30], [0, 1]) == 2 + 20
    # Copies of one operation pool their samples and count once per copy.
    assert run.op_medians([1, 9, 3, 20, 2, 30], [0, 0]) == {0: 6.0}
    assert run.pass_time([1, 9, 3, 20, 2, 30], [0, 0]) == 12.0


def test_two_core_probe_times_both_copies_and_reaps_the_fork():
    assert worker.two_core_probe() > 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_host_factor_is_the_median_of_the_readings_around_each_operation(monkeypatch):
    monkeypatch.setattr(worker, "PROBE_WINDOW_S", 2.0)
    times = [0.0, 1.0, 5.0, 9.0, 20.0]
    readings = [1.0, 2.0, 3.0, 4.0, 5.0]
    factors = worker.windowed_factors([(0.5, 0.6), (5.5, 6.0), (10.0, 11.0)], times, readings)
    # In the window, and always the readings just before and just after.
    assert factors == pytest.approx([1.5, 3.5, 4.5])
