"""Benchmark of the stanley toolkit, driven through its CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src`` directory and nowhere else.  Workloads (see
workloads.py for what each holds, and BENCHMARK.json for why):

* greedy-growth: gen (json) and growth (csv) to 2**14 terms for one tame
  seed and one chaotic seed.
* character-sweep: ``character`` for 300 consecutive even targets below
  10**4, all with 256-element covers, including members of 244 mod 486.
* large-cover: ``character`` for one target with a 2048-element cover and
  two with 4096-element covers.
* modset-search: ``search --ell 2`` twice for every bound 7..36, four
  ``--ell 3 --first-only`` bounds, three ``--workers 2`` repeats.

One client runs a workload's operations in a closed loop, in one fresh
interpreter per run.  The operation list is repeated in passes while the
next pass still fits in ``--seconds``; an operation's time is its median
over passes.  Set-up time is measured apart, in fresh interpreters that
import the package and run ``families``.  Every output is checked against
the independent references in checks.py, outside the timed region.

End-to-end metrics (``--trace 0``):

* wall_ref_s: one pass (the sum of the operations' median latencies) in
  seconds at reference host speed;
* op_p50_ref_ms: median over the distinct operations of a pass of each
  one's median latency, at reference host speed;
* peak_rss_mb: peak RSS of the workload's process;
* setup_s: median of nine fresh-interpreter set-ups, at reference host
  speed.

The host's speed drifts by up to half over seconds to minutes, which no
number of repeats inside one run removes.  So a fixed probe
(worker.host_probe) is timed next to the measured work, and its time over
its reference time is the host factor.  Each operation's latency is
divided by the median factor of the probes around it (two-core probes for
``--workers 2`` operations), before the median over passes; each set-up
is divided by the factor its own interpreter probes after it.  The probe
matches where the workload spends its time (worker.PROBE_OF).  The measured values (wall_s, op_p50_ms, op_tail_ms with its
percentile and sample count, setup_measured_s, terms_per_s, certs_per_s),
the run's median host factor and failed_ratio are in the report line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` also runs the
workload once more with spans around each layer's public functions and
prints the per-layer metrics; the end-to-end numbers always come from the
untraced run.  The last stdout line is the result object; the line
before it is the full report (environment, drawn inputs, every metric),
also written with the spans under perfbench/out/.

Exact work counts (operations, exit codes, output digest, calls and work
counters per layer) must repeat from pass to pass, between the traced and
untraced runs, and between runs of the same seed on the same source; a
difference stops the benchmark with exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SETUP_SAMPLES = 9
TIME_LIMIT_S = 165.0

# Metric names and units, and each workload's reason, as BENCHMARK.json defines them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}

NOTES = [
    "core.pairs_marked is computed from generate's outputs as the sum of k over "
    "appended terms; a lower bound, since a sieve regrowth re-marks pairs",
    "modsets.pair_cells is the sum of |A|^2 over verify_near_modular calls",
    "<layer>.errors counts exceptions leaving a layer's public functions",
    "spans inside --workers 2 pool processes are not captured",
    "trace.overhead_s is the traced run's wall_ref_s minus the untraced run's",
    "self_s values are as measured, not divided by the host factor",
]

# A fresh interpreter: import the package from src and run one trivial
# command; then, untimed, the host probe, for this interpreter's host factor.
_SETUP_PROBE = """
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
import stanley
from stanley import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["families"])
done = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import worker
factor = worker.host_probe()
print(repr(done), repr(factor), code, len(out.getvalue().splitlines()), stanley.__file__)
"""


class BenchmarkError(Exception):
    """The benchmark itself could not produce a trustworthy result."""


def run_child(argv: list[str], timeout: float) -> str:
    """Run a child process in its own session; kill the whole group on timeout."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"{argv[1:3]} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{argv[1:3]} exited with {proc.returncode}: {err.strip()[-2000:]}")
    return out


def measure_setup() -> list[tuple[float, float]]:
    """Set-up seconds and host factor of each of SETUP_SAMPLES fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        out = run_child([sys.executable, "-c", _SETUP_PROBE, str(SRC), str(HERE)], timeout=30)
        done, factor, code, lines, path = out.split(maxsplit=4)
        if code != "0" or lines != "8" or Path(path.strip()).resolve().parent != SRC / "stanley":
            raise BenchmarkError(f"set-up probe failed: {out.strip()}")
        samples.append((float(done) - start, float(factor)))
    return samples


def run_worker(args, spans_path: Path | None, timeout: float) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if spans_path is not None:
        argv += ["--trace", str(spans_path)]
    return json.loads(run_child(argv, timeout).splitlines()[-1])


def tail_latency(latencies: list[float]) -> dict | None:
    """Highest percentile with at least ten samples above it, if there is one."""
    n = len(latencies)
    if n <= 10:
        return None
    ordered = sorted(latencies)
    return {"value": ordered[n - 11] * 1e3, "unit": "ms",
            "percentile": 100.0 * (n - 10) / n, "samples": n}


def op_medians(latencies: list[float], same_as: list[int]) -> dict[int, float]:
    """Each distinct operation's median latency over all its runs.

    ``same_as[i]`` is the first position in a pass of the operation at
    position i; an operation listed more than once in a pass pools the
    samples of its copies.  Taking the median per operation keeps a burst
    of host noise that slows one stretch of one pass out of the result.
    """
    samples: dict[int, list[float]] = {}
    for k, latency in enumerate(latencies):
        samples.setdefault(same_as[k % len(same_as)], []).append(latency)
    return {i: statistics.median(v) for i, v in samples.items()}


def pass_time(latencies: list[float], same_as: list[int]) -> float:
    """Time of one pass: the sum over its operations of each one's median latency."""
    medians = op_medians(latencies, same_as)
    return sum(medians[i] for i in same_as)


def end_to_end(run: dict, setup: list[tuple[float, float]]) -> dict:
    measured = op_medians(run["latencies"], run["same_as"])
    ref = op_medians(run["ref_latencies"], run["same_as"])
    metrics = {
        "wall_s": {"value": pass_time(run["latencies"], run["same_as"]), "unit": "s",
                   "passes": run["passes"]},
        "op_p50_ms": {"value": statistics.median(measured.values()) * 1e3, "unit": "ms",
                      "ops": len(measured)},
        "host_factor": {"value": run["host_factor"], "unit": "ratio", "probes": run["probes"],
                        "probe": run["probe"]},
        "wall_ref_s": {"value": pass_time(run["ref_latencies"], run["same_as"]), "unit": "s"},
        "op_p50_ref_ms": {"value": statistics.median(ref.values()) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(t / f for t, f in setup), "unit": "s",
                    "samples": len(setup)},
        "setup_measured_s": {"value": statistics.median(t for t, _ in setup), "unit": "s"},
        "failed_ratio": {"value": run["failed"] / run["attempted"], "unit": "ratio"},
    }
    tail = tail_latency(run["latencies"])
    if tail is not None:
        metrics["op_tail_ms"] = tail
    if run["terms_per_pass"]:
        metrics["terms_per_s"] = {"value": run["terms_per_pass"] / sum(measured), "unit": "1/s"}
    if run["certs_per_pass"]:
        metrics["certs_per_s"] = {"value": run["certs_per_pass"] / sum(measured), "unit": "1/s"}
    return metrics


def per_layer(traced: dict, untraced: dict) -> dict:
    counts = traced["exact"]["pass_counts"][0]
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            value = (pass_time(traced["ref_latencies"], traced["same_as"])
                     - pass_time(untraced["ref_latencies"], untraced["same_as"]))
        elif name == "cli.stdout_bytes":
            value = counts["stdout_bytes"]
        elif name.endswith(".self_s"):
            value = traced["self_s"].get(name.removesuffix(".self_s"), 0.0)
        else:
            value = counts.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


_SHARED = ("ops_per_pass", "codes", "output_sha256")


def check_exact(runs: list[dict], store: Path) -> None:
    """Exact counts must repeat across passes, runs, and earlier runs of this seed.

    ``store`` keeps the union of the counts seen for one workload, seed and
    source tree; a traced run adds its per-layer counts to it.
    """
    records = [json.loads(store.read_text())] if store.exists() else []
    for run in runs:
        counts = run["exact"]["pass_counts"]
        if any(c != counts[0] for c in counts):
            raise BenchmarkError("work counts differ between passes of one run")
        records.append({**{k: run["exact"][k] for k in _SHARED}, "pass_counts": counts[0]})
    merged: dict = {}
    for record in records:
        if any(record[k] != records[0][k] for k in _SHARED):
            raise BenchmarkError(f"outputs differ from another run of this seed ({store.name})")
        for name, value in record["pass_counts"].items():
            if merged.setdefault(name, value) != value:
                raise BenchmarkError(f"work count {name} differs from another run ({store.name})")
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps({**{k: records[0][k] for k in _SHARED}, "pass_counts": merged}))
    tmp.replace(store)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def environment(numpy_version: str, digest: str) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": git_commit(),
        "src_sha256": digest,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "stanley" / "__init__.py").is_file():
        print(f"error: no stanley package under {SRC}", file=sys.stderr)
        return 2

    began = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup = measure_setup()
        budget = TIME_LIMIT_S - (time.perf_counter() - began)
        untraced = run_worker(args, None, budget / (1 + args.trace))
        runs = [untraced]
        if args.trace:
            spans_path = OUT / f"{stem}-spans.jsonl"
            runs.append(run_worker(args, spans_path, TIME_LIMIT_S - (time.perf_counter() - began)))
        digest = source_digest()
        ops, _ = workloads.build(args.workload, args.seed)
        key = hashlib.sha256((digest + json.dumps(ops)).encode()).hexdigest()[:16]
        check_exact(runs, OUT / f"exact-{args.workload}-seed{args.seed}-{key}.json")
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    e2e = end_to_end(untraced, setup)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "why": WHY[args.workload],
        "clients": 1,
        "loop": "closed",
        "inputs": untraced["inputs"],
        "environment": environment(untraced["numpy"], digest),
        "attempted": untraced["attempted"],
        "failed": untraced["failed"],
        "problems": untraced["problems"],
        "end_to_end": e2e,
        "exact": {k: untraced["exact"][k] for k in ("ops_per_pass", "output_sha256")},
    }
    if args.trace:
        traced = runs[1]
        report["per_layer"] = per_layer(traced, untraced)
        report["traced_failed"] = traced["failed"]
        report["notes"] = NOTES
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2))

    if args.trace:
        metrics = {name: {"value": m["value"], "unit": m["unit"]} for name, m in report["per_layer"].items()}
    else:
        metrics = {name: {"value": e2e[name]["value"], "unit": unit} for name, unit in END_TO_END.items()}
    failed = untraced["failed"] + (runs[1]["failed"] if args.trace else 0)
    attempted = untraced["attempted"] + (runs[1]["attempted"] if args.trace else 0)
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
