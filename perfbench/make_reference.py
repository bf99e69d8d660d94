"""Record the benchmark's known answers in reference.json.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are accepted as right: the
benchmark treats every recorded digest and verdict as the truth, so a
later commit that changes an output fails the ops that show it.

For the default seed it records the outcome (digest and verdict) of
every op of a run of BENCHMARK.json's run_seconds and the verdict
counts of that run. hopf_sweep and lie_fock have finite op spaces, so
their record is complete: every op any seed can draw is run once, and
only the outcomes other than "all residuals zero" are stored; an op
missing from a complete record must come out zero.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def default_seed_record(name, seconds):
    workload = workloads.WORKLOADS[name]
    prog = run.load_program()
    ops = workload.build(prog, run.DEFAULT_SEED, run.op_count(workload, seconds))
    _, outcomes, failures = run.run_ops(prog, workload, ops, {})
    if failures:
        raise SystemExit(f"{name}: invariant failures at recording time: {failures}")
    return {
        "seed": run.DEFAULT_SEED,
        "seconds": seconds,
        "n_ops": len(ops),
        "counts": run.verdict_counts(ops, outcomes),
        "ops": {op.key: outcome for op, outcome in zip(ops, outcomes)},
    }


def nonzero_outcomes(keyed_thunks):
    out = {}
    for key, thunk in keyed_thunks:
        texts, verdict, _ = thunk()
        if verdict != workloads.ZERO_OUTCOME_VERDICT or any(t != "0" for t in texts):
            out[key] = workloads.outcome(texts, verdict)
    return out


def main():
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        record = default_seed_record(name, seconds)
        record["complete"] = workload.space is not None
        if workload.space is not None:
            space = workload.space(run.load_program())
            record["ops"] = nonzero_outcomes(kt for family in space.values() for kt in family)
            record["space"] = {family: len(v) for family, v in space.items()}
        reference[name] = record
        print(f"{name}: {len(record['ops'])} recorded outcomes, counts {record['counts']}",
              file=sys.stderr)
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
