"""Run one workload in this fresh interpreter and print one JSON object.

Started by run.py, one process per measured run, so peak RSS belongs to
the workload.  The CLI runs in-process: ``stanley.cli.main(argv)`` with
stdout and stderr captured.  Passes of the workload's operation list
repeat while another pass of typical length still fits in ``--seconds``.
Output checks run after the last pass, outside the timed region.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace SPANS_PATH]
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import struct
import sys
import time
from pathlib import Path

import numpy as np

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MAX_PASSES = 32

# Host speed probe: a fixed piece of work timed next to the measured work.
# The host this benchmark runs on changes speed by up to half for seconds
# to minutes at a time.  So each operation's latency is divided by its host
# factor: the median of the probe readings (probe seconds over reference
# seconds) from PROBE_WINDOW_S before it starts to PROBE_WINDOW_S after it
# ends, and at least the one before and the one after it.  The window
# follows the drift, and its median keeps the probe's own noise out.
# Probes run every PROBE_EVERY_S between operations; an operation that uses
# a second process (``--workers 2``) is bracketed by two-core probes.
#
# A busy host slows Python code far more than numpy scatter into arrays of
# megabytes, so the probe matches where a workload spends its time:
# "sieve" (the greedy sieve's own scatter, 2y - x for the last terms of the
# sequence of seed 0, into a fresh 4.8 MB array) for greedy-growth; "mixed"
# (both) for large-cover, which is pure-Python has_3ap plus |A| x |A|
# matrices; and "compute" (Python plus a scatter that fits in cache) for
# the rest.  A random scatter into a 16 MB array tracked greedy-growth
# worse than no probe at all.
PROBE_EVERY_S = 0.2
PROBE_WINDOW_S = 5.0
PROBE_RUNS = 3
_SMALL = 1 << 19
_SMALL_INDEX = (np.arange(0, _SMALL, 7) * 3) & (_SMALL - 1)
# The greedy sequence of seed 0: the integers with no digit 2 in base 3.
_TERNARY = np.array([int(bin(n)[2:], 3) for n in range(1 << 14)], dtype=np.int64)


def _compute_work() -> None:
    checks.greedy_prefix((0,), 150)
    sieve = np.zeros(_SMALL, dtype=bool)
    for shift in range(24):
        sieve[(_SMALL_INDEX + shift) & (_SMALL - 1)] = True


def _sieve_work() -> None:
    marked = np.zeros(2 * int(_TERNARY[-1]) + 1, dtype=bool)
    for j in range(len(_TERNARY) - 160, len(_TERNARY)):
        marked[2 * _TERNARY[j] - _TERNARY[:j]] = True


# Probe kind -> (work, reference seconds of one run: about the fastest of
# sixty runs on a 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4).
PROBES = {
    "compute": (_compute_work, 0.0052),
    "sieve": (_sieve_work, 0.0066),
    "mixed": (lambda: (_compute_work(), _sieve_work()), 0.0052 + 0.0066),
}
PROBE_OF = {"greedy-growth": "sieve", "large-cover": "mixed"}


def import_cli():
    """Import the CLI from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import stanley
    from stanley import cli

    if Path(stanley.__file__).resolve().parent != SRC / "stanley":
        raise ImportError(f"stanley imported from {stanley.__file__}, not {SRC}")
    return cli


def run_op(cli, argv: list[str]) -> tuple[float, object, str]:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
            code = f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue()


def host_probe(kind: str = "compute") -> float:
    """One probe reading: the work's seconds over its reference seconds.

    The median of PROBE_RUNS runs, so a burst of host noise inside one run
    does not set the reading.
    """
    work, ref_s = PROBES[kind]
    runs = []
    for _ in range(PROBE_RUNS):
        start = time.perf_counter()
        work()
        runs.append(time.perf_counter() - start)
    return statistics.median(runs) / ref_s


def two_core_probe(kind: str = "compute") -> float:
    """The probe read at once here and in a forked copy; the slower reading."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read)
            os.write(write, struct.pack("d", host_probe(kind)))
        finally:
            os._exit(0)
    os.close(write)
    mine = host_probe(kind)
    with os.fdopen(read, "rb") as fh:
        theirs = struct.unpack("d", fh.read(8))[0]
    os.waitpid(pid, 0)
    return max(mine, theirs)


def windowed_factors(spans: list[tuple[float, float]], times: list[float],
                     readings: list[float]) -> list[float]:
    """Host factor of each (start, end) span from the readings taken at ``times``.

    Uses every reading within PROBE_WINDOW_S of the span, and always the
    last one before it and the first one after it.
    """
    factors = []
    for start, end in spans:
        lo = min(bisect.bisect_left(times, start - PROBE_WINDOW_S), bisect.bisect_left(times, start) - 1)
        hi = max(bisect.bisect_right(times, end + PROBE_WINDOW_S), bisect.bisect_right(times, end) + 1)
        factors.append(statistics.median(readings[max(lo, 0):hi]))
    return factors


def run_passes(cli, ops: list[dict], seconds: float, tracer=None, max_passes: int = MAX_PASSES,
               probe: str = "compute") -> dict:
    """Run passes of ``ops``; keep pass 1's outputs and compare later ones to them.

    Returns each execution's latency as measured and divided by its host
    factor, in execution order.
    """
    walls: list[float] = []
    latencies: list[float] = []
    factors: list[float | None] = []  # None: from the probe window, found after the run
    spans: list[tuple[float, float]] = []
    first_codes: list = []
    first_outputs: list[str] = []
    mismatches = 0
    pass_counts: list[dict] = []
    probe_times = [time.perf_counter()]
    probes = [host_probe(probe)]
    began = time.perf_counter()
    while True:
        gc.collect()
        n = len(walls)
        if tracer is not None:
            tracer.counts.clear()
        codes, outputs = [], []
        start = probed = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = n * len(ops) + i
            if op.get("workers", 1) > 1:
                before = two_core_probe(probe)
                latency, code, out = run_op(cli, op["argv"])
                factors.append((before + two_core_probe(probe)) / 2)
            else:
                op_start = time.perf_counter()
                latency, code, out = run_op(cli, op["argv"])
                spans.append((op_start, op_start + latency))
                factors.append(None)
            latencies.append(latency)
            codes.append(code)
            outputs.append(out)
            if time.perf_counter() - probed >= PROBE_EVERY_S or i == len(ops) - 1:
                probe_times.append(time.perf_counter())
                probes.append(host_probe(probe))
                probed = time.perf_counter()
        walls.append(time.perf_counter() - start)
        counts = {"stdout_bytes": sum(len(o.encode()) for o in outputs)}
        if tracer is not None:
            counts.update(tracer.counts)
        pass_counts.append(counts)
        if n == 0:
            first_codes, first_outputs = codes, outputs
        else:
            mismatches += sum(c != fc or o != fo for c, o, fc, fo in
                              zip(codes, outputs, first_codes, first_outputs))
        elapsed = time.perf_counter() - began
        if len(walls) >= max_passes or elapsed + statistics.median(walls) > seconds:
            break
    windowed = iter(windowed_factors(spans, probe_times, probes))
    factors = [next(windowed) if f is None else f for f in factors]
    return {"walls": walls, "latencies": latencies,
            "ref_latencies": [t / f for t, f in zip(latencies, factors)],
            "probes": probes, "codes": first_codes, "outputs": first_outputs,
            "mismatches": mismatches, "pass_counts": pass_counts}


def summarize_inputs(workload: str, ops: list[dict], facts: dict[int, dict], inputs: dict) -> dict:
    """Properties of the drawn inputs, so a change can report each kind's share."""
    props = dict(inputs)
    if workload == "greedy-growth":
        ratios = {}
        for i, op in enumerate(ops):
            if op["kind"] == "gen" and "final_ratio" in facts.get(i, {}):
                ratios[",".join(map(str, op["seed"]))] = facts[i]["final_ratio"]
        props["final_ratio"] = ratios
    elif workload in ("character-sweep", "large-cover"):
        recipes: dict[str, int] = {}
        covers: dict[str, int] = {}
        for f in facts.values():
            recipes[f.get("recipe", "?")] = recipes.get(f.get("recipe", "?"), 0) + 1
            if "cover_elements" in f:
                key = str(f["cover_elements"])
                covers[key] = covers.get(key, 0) + 1
        props["recipes"] = recipes
        props["cover_elements"] = covers
    else:
        sets = {}
        for i, op in enumerate(ops):
            key = f"ell={op['ell']} max={op['max_element']}"
            key += " first-only" if op["first_only"] else ""
            key += f" workers={op['workers']}" if op["workers"] > 1 else ""
            sets[key] = facts.get(i, {}).get("sets")
        props["sets_per_op"] = sets
    return props


def run_and_check(cli, ops: list[dict], seconds: float, tracer=None,
                  max_passes: int = MAX_PASSES, probe: str = "compute") -> tuple[dict, dict]:
    """Timed passes, then the output checks; returns the report and per-op facts.

    An execution fails when its exit code or output fails its check, or
    when its output differs from the same operation's output in pass 1.
    """
    result = run_passes(cli, ops, seconds, tracer, max_passes, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems, facts = checks.check_outputs(ops, result["codes"], result["outputs"])
    passes = len(result["walls"])
    failed = passes * sum(1 for p in problems.values() if p) + result["mismatches"]
    digest = hashlib.sha256("\0".join(result["outputs"]).encode()).hexdigest()
    report = {
        "ops_per_pass": len(ops),
        "same_as": [next(j for j, other in enumerate(ops) if other["argv"] == op["argv"]) for op in ops],
        "passes": passes,
        "walls": result["walls"],
        "latencies": result["latencies"],
        "ref_latencies": result["ref_latencies"],
        "host_factor": statistics.median(result["probes"]),
        "probe": probe,
        "probes": len(result["probes"]),
        "attempted": passes * len(ops),
        "failed": failed,
        "problems": {str(i): p for i, p in problems.items() if p},
        "peak_rss_mb": peak_rss_mb,
        "terms_per_pass": sum(op["count"] for op in ops if op["kind"] in ("gen", "growth")),
        "certs_per_pass": sum(1 for op, code in zip(ops, result["codes"])
                              if op["kind"] == "character" and code == 0),
        "exact": {"ops_per_pass": len(ops), "codes": result["codes"], "output_sha256": digest,
                  "pass_counts": result["pass_counts"]},
    }
    return report, facts


def measure(workload: str, seed: int, seconds: float, spans_path: str | None) -> dict:
    cli = import_cli()
    import numpy

    ops, inputs = workloads.build(workload, seed)
    run_op(cli, ["families"])  # first-call costs outside the timed passes
    tracer = None
    if spans_path:
        tracer = spans.Tracer()
        tracer.install()
    report, facts = run_and_check(cli, ops, seconds, tracer, probe=PROBE_OF.get(workload, "compute"))
    report["numpy"] = numpy.__version__
    report["inputs"] = summarize_inputs(workload, ops, facts, inputs)
    if tracer is not None:
        report["self_s"] = layer_self_times(tracer, len(ops), report["exact"]["pass_counts"])
        tracer.write(spans_path)
    return report


def layer_self_times(tracer, ops_per_pass: int, pass_counts: list[dict]) -> dict[str, float]:
    """Median over passes of each traced function's summed self time.

    Also adds each function's call count to its pass's exact counts.
    """
    per_pass_self = [dict() for _ in pass_counts]
    for span, own in zip(tracer.spans, spans.self_times(tracer.spans)):
        p = span[4] // ops_per_pass
        per_pass_self[p][span[0]] = per_pass_self[p].get(span[0], 0.0) + own
        pass_counts[p][f"{span[0]}.calls"] = pass_counts[p].get(f"{span[0]}.calls", 0) + 1
    names = sorted({name for s in per_pass_self for name in s})
    return {name: statistics.median(s.get(name, 0.0) for s in per_pass_self) for name in names}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", metavar="SPANS_PATH")
    args = parser.parse_args()
    print(json.dumps(measure(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
