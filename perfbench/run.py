"""Benchmark of pqvirasoro: seeded workloads, checked outputs, timed ops.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory. Each workload is a closed loop: one client in this
process runs its ops back to back, as a batch verifier does. A run makes
``seconds * rate`` ops (at least MIN_OPS), where rate is the workload's
throughput at the commit that defined the benchmark, so two commits
compared at the same --seconds do the same work on the same inputs.

Times are scaled to a reference machine speed. The small virtual machines
this benchmark runs on change speed by up to 2x for spells of seconds to
minutes, for the program and for plain Python loops alike. So the ops run
in chunks of about CHUNK_S seconds, fixed pure-Python loops (``probe_s``)
are timed between chunks, and each op's latency is multiplied by
PROBE_REF_S over the probe time around its chunk. A reported time is thus
the time on a machine where the probe takes PROBE_REF_S; on a steady
machine it is the measured time up to a constant factor.

Every op's outcome is checked against invariants that hold for every
seed and, for recorded ops, against ``reference.json``. A failed op (one
that raises or whose outcome is wrong) is named on standard error.

With ``--trace 0`` the last line reports the end-to-end metrics. With
``--trace 1`` the ops run once untraced and once under the span recorder
of ``tracer.py``; the last line reports the per-layer metrics, the spans
are written to ``perfbench/out/``, and the two runs must give identical
outputs. Both modes print the run metadata and a readable summary first.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100
SETUP_REPEATS = 3
DEFAULT_SEED = 0
CHUNK_S = 0.05
PROBE_REF_S = 0.002
LAYERS = ("field", "freealg", "oscillator", "homlie", "hopf", "cli")


class BenchError(Exception):
    """The benchmark cannot run here."""


def probe_s():
    """The machine's current speed, as the time of fixed pure-Python loops.

    One loop fills and sums a table, the other formats, splits and copies
    text; each is timed three times and its best time counts.
    """
    best_table = best_text = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        table = {}
        for i in range(3000):
            table[(i, i & 7)] = i * i % 11
        total = 0
        for key, value in table.items():
            total += key[0] * value
        t1 = perf_counter()
        text = " + ".join("(%d*p^%d*q - %d)*L(%d) T^-1" % (i, i % 5, i % 7, i % 9)
                          for i in range(60))
        seen = {}
        for j, token in enumerate(text.split()):
            seen = dict(seen)
            seen[token, j % 13] = token.isdigit() or token[:2]
        t2 = perf_counter()
        best_table = min(best_table, t1 - t0)
        best_text = min(best_text, t2 - t1)
    return best_table + best_text


def load_program():
    """Import every layer of the program afresh from the checkout's src."""
    if not (SRC / "pqvirasoro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC}")
    for name in [m for m in sys.modules if m == "pqvirasoro" or m.startswith("pqvirasoro.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    mods = {layer: importlib.import_module("pqvirasoro." + layer) for layer in LAYERS}
    origin = Path(mods["field"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"imported the program from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def git_commit():
    """The checkout's commit read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def op_count(workload, seconds):
    return max(MIN_OPS, round(seconds * workload.rate))


def set_up(workload, seed, count):
    """Import the program and build the inputs; returns (prog, ops, scaled seconds)."""
    before = probe_s()
    t0 = perf_counter()
    prog = load_program()
    ops = workload.build(prog, seed, count)
    took = perf_counter() - t0
    return prog, ops, took * 2 * PROBE_REF_S / (before + probe_s())


def run_ops(prog, workload, ops, reference, recorder=None):
    """Run the ops back to back; check each outcome outside the timed part.

    Returns per-op scaled latencies, per-op outcomes (None for an op that
    raised) and a map from failed op index to (key, reason).
    """
    latencies = []
    outcomes = []
    failures = {}
    probes = [probe_s()]
    chunk_start, chunk_s = 0, 0.0
    for i, op in enumerate(ops):
        t0 = perf_counter()
        try:
            if recorder is None:
                texts, verdict, raw = op.thunk()
            else:
                with recorder.op(i, op.family):
                    texts, verdict, raw = op.thunk()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            latencies.append(perf_counter() - t0)
            failures[i] = (op.key, f"raised {type(exc).__name__}: {exc}")
            outcomes.append(None)
        else:
            latencies.append(perf_counter() - t0)
            reason = workloads.check(prog, workload, reference, op.key, texts, verdict, raw)
            if reason:
                failures[i] = (op.key, reason)
            outcomes.append(workloads.outcome(texts, verdict))
        chunk_s += latencies[-1]
        if chunk_s >= CHUNK_S or i == len(ops) - 1:
            probes.append(probe_s())
            scale = 2 * PROBE_REF_S / (probes[-2] + probes[-1])
            latencies[chunk_start:] = [t * scale for t in latencies[chunk_start:]]
            chunk_start, chunk_s = i + 1, 0.0
    return latencies, outcomes, failures


def verdict_counts(ops, outcomes):
    counts = {}
    for op, outcome in zip(ops, outcomes):
        verdict = outcome.split()[1] if outcome else "raised"
        key = f"{op.family}:{verdict}"
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def run(name, seed, seconds, trace, reference=None, count=None):
    """One benchmark run; returns a dict with the metrics and what the summary prints."""
    workload = workloads.WORKLOADS[name]
    if reference is None:
        reference = load_reference()
    if count is None:
        count = op_count(workload, seconds)
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        prog = ops = None  # free the previous set-up before timing the next
        gc.collect()
        prog, ops, took = set_up(workload, seed, count)
        setups.append(took)
    gc.collect()
    latencies, outcomes, failures = run_ops(prog, workload, ops, reference)
    wall_s = sum(latencies)
    meta = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "ops": len(ops), "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": git_commit(),
    }
    result = {"meta": meta, "failures": failures, "verdicts": verdict_counts(ops, outcomes)}

    if not trace:
        ordered = sorted(latencies)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall_s, "s"),
            "ops_per_s": (len(ops) / wall_s, "1/s"),
            "op_p50_ms": (1e3 * statistics.median(ordered), "ms"),
            "op_p90_ms": (1e3 * statistics.quantiles(ordered, n=10)[8], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        recorder = tracer.Recorder(prog)
        gc.collect()
        with recorder:
            traced, traced_out, traced_fail = run_ops(prog, workload, ops, reference,
                                                      recorder=recorder)
        for i, failure in traced_fail.items():
            failures.setdefault(i, failure)
        for i, (op, plain, out) in enumerate(zip(ops, outcomes, traced_out)):
            if out != plain:
                failures.setdefault(i, (op.key, "traced output differs from untraced output"))
        # layer times are raw; scale them like the op latencies of the traced pass
        raw_s = sum(v for k, v in recorder.total_s.items() if k.startswith("op."))
        scale = sum(traced) / raw_s
        metrics = {name: (value * scale if unit == "s" else value, unit)
                   for name, (value, unit) in recorder.layer_metrics().items()}
        metrics["trace.overhead_ratio"] = (sum(traced) / wall_s, "ratio")
        spans_path = OUT / f"spans-{name}-{seed}.jsonl"
        recorder.write_spans(spans_path, meta)
        result["spans_path"] = str(spans_path.relative_to(ROOT))
        result["spans"] = len(recorder.spans)

    result["attempted"] = len(ops)
    result["failed"] = len(failures)
    result["metrics"] = metrics
    return result


def summary_lines(result):
    meta = result["meta"]
    attempted, failed = result["attempted"], result["failed"]
    lines = [
        "meta " + json.dumps(meta),
        f"{meta['workload']}: {attempted} ops attempted, {failed} failed, "
        f"fail_ratio {failed / attempted:.4f}",
        "verdicts " + json.dumps(result["verdicts"]),
    ]
    for name, (value, unit) in result["metrics"].items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {SETUP_REPEATS} set-ups)"
        elif name in ("wall_s", "ops_per_s", "op_p50_ms", "op_p90_ms"):
            note = f"  (n={attempted} ops)"
        lines.append(f"  {name:32s} {value:.6g} {unit}{note}")
    if "spans_path" in result:
        lines.append(f"{result['spans']} spans written to {result['spans_path']}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for key, reason in list(result["failures"].values())[:20]:
        print(f"FAIL {key}: {reason}", file=sys.stderr)
    for line in summary_lines(result):
        print(line)
    failed = result["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
