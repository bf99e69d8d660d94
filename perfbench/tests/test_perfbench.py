"""Smoke-size tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMOKE_OPS = {"words_heavy": 3, "hopf_sweep": 42, "lie_fock": 9, "parse_roundtrip": 3}
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(SMOKE_OPS))
@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, 7])
def test_workload_passes_known_answer_checks(name, seed):
    result = run.run(name, seed, 1, trace=False, count=SMOKE_OPS[name])
    assert result["attempted"] == SMOKE_OPS[name]
    assert result["failed"] == 0, result["failures"]


def test_default_seed_ops_are_in_the_reference():
    reference = run.load_reference()
    for name, count in SMOKE_OPS.items():
        prog = run.load_program()
        ops = workloads.WORKLOADS[name].build(prog, run.DEFAULT_SEED, count)
        recorded = reference[name]["ops"]
        if not reference[name]["complete"]:
            assert all(op.key in recorded for op in ops), name


def test_word_indices_have_the_scheduled_inversions():
    rng = random.Random(0)
    for k in range(len(workloads._mahonian(workloads.WORD_L_LETTERS))):
        idx = workloads._indices_with_inversions(rng, k)
        assert len(set(idx)) == workloads.WORD_L_LETTERS
        assert sum(a > b for i, a in enumerate(idx) for b in idx[i + 1:]) == k


@pytest.mark.parametrize("name", ["hopf_sweep", "lie_fock"])
def test_finite_space_ops_repeat_only_after_the_space_is_used(name):
    workload = workloads.WORKLOADS[name]
    prog = run.load_program()
    size = sum(len(family) for family in workload.space(prog).values())
    keys = [op.key for op in workload.build(prog, 3, size + 5)]
    assert len(set(keys[:size])) == size
    assert keys[size:] == keys[:5]


@pytest.mark.parametrize("name", sorted(SMOKE_OPS))
def test_corrupted_reference_digest_fails_the_op(name):
    reference = run.load_reference()
    prog = run.load_program()
    first = workloads.WORKLOADS[name].build(prog, run.DEFAULT_SEED, 1)[0]
    reference[name]["ops"][first.key] = "0" * 16 + " zero"
    result = run.run(name, run.DEFAULT_SEED, 1, trace=False, reference=reference,
                     count=SMOKE_OPS[name])
    assert result["failed"] >= 1
    assert result["failures"][0][0] == first.key


def _last_json_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(capsys, trace, section):
    code = run.main(["--workload", "lie_fock", "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)])
    assert code == 0
    result = _last_json_line(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for metric in SPEC[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _layer_names(prog):
    names = {}
    for owner in (prog.field.RatFunc, prog.oscillator.FockOperator, prog.freealg,
                  prog.hopf, prog.oscillator, prog.homlie, prog.cli):
        names.update({(id(owner), k): v for k, v in vars(owner).items() if callable(v)})
    return names


@pytest.mark.parametrize("name", sorted(SMOKE_OPS))
def test_trace_restores_names_and_keeps_outputs(name):
    workload = workloads.WORKLOADS[name]
    prog = run.load_program()
    ops = workload.build(prog, 5, SMOKE_OPS[name])
    before = _layer_names(prog)
    _, plain, plain_fail = run.run_ops(prog, workload, ops, {})
    recorder = tracer.Recorder(prog)
    with recorder:
        assert _layer_names(prog) != before
        _, traced, traced_fail = run.run_ops(prog, workload, ops, {}, recorder=recorder)
    after = _layer_names(prog)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert traced == plain and not plain_fail and not traced_fail
    assert recorder.spans and not recorder.stack
    _, again, _ = run.run_ops(prog, workload, ops, {})
    assert again == plain


def test_outermost_field_calls_count_once():
    prog = run.load_program()
    recorder = tracer.Recorder(prog)
    x = prog.field.P + prog.field.Q
    with recorder:
        x - prog.field.ONE  # __sub__ calls __add__ inside
        x / prog.field.Q  # __truediv__ calls __mul__ inside
    assert recorder.calls == {"field.add": 1, "field.div": 1}


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:]
        + ["--workload", "lie_fock", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
