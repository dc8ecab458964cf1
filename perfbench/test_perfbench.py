"""The benchmark's own test: every workload at a reduced size, untraced and
traced, with every metric present in its unit and every gate passing."""

import json
import random
from pathlib import Path

import pytest

import oracle
import run
import tracer
from workloads import WORKLOADS, Context

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
SIZE = 0.05
EXACT_COUNTS = ("tensor.construct.calls", "normalizer.rewrite_steps",
                "normalizer.oracle.states", "coxeter.certificate_moves")


@pytest.fixture(scope="module")
def traced():
    return {name: [run.run_workload(name, 7, 0, True, SIZE) for _ in range(2)]
            for name in WORKLOADS}


def assert_metrics(result, declared):
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_reports_end_to_end_metrics(name):
    result = run.run_workload(name, 7, 0, False, SIZE)
    assert_metrics(result, BENCHMARK["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_layer_metrics_and_repeats_counts(name, traced):
    first, second = traced[name]
    assert_metrics(first, BENCHMARK["per_layer"])
    for metric in EXACT_COUNTS:
        assert first["metrics"][metric]["value"] == second["metrics"][metric]["value"]
    calls = {k: v["value"] for k, v in first["metrics"].items()}
    if name == "coxeter":
        assert calls["tensor.construct.calls"] == 0
        assert calls["coxeter.certificate_moves"] > 0
    if name == "confluence":
        assert calls["normalizer.normalize.calls"] == 0
        assert calls["normalizer.oracle.states"] > 0
    if name == "straighten":
        assert calls["normalizer.rewrite_steps"] > 0


def test_written_spans_give_the_reported_self_times(traced):
    names, spans = tracer.load(run.TRACE_DIR / "coxeter")
    layers = tracer.aggregate(names, spans)
    result = traced["coxeter"][1]["metrics"]
    calls = result["coxeter.contract_loop.calls"]["value"]
    assert layers["coxeter.contract_loop"]["calls"] == calls
    assert layers["coxeter.contract_loop"]["self_s"] == pytest.approx(
        result["coxeter.contract_loop.self_s"]["value"], rel=0.05)
    assert all(p < i for i, p in enumerate(spans["parent"]))


@pytest.fixture(scope="module")
def context():
    return Context(run.import_pbw(), run.ROOT)


def small_pass(context, name):
    workload = WORKLOADS[name](context, SIZE)
    items = workload.build(random.Random(3))
    p = run.Pass(workload, items)
    assert not p.failures
    return workload, items, p.outputs


def test_same_seed_same_digest(context):
    for name in WORKLOADS:
        workload, items, outputs = small_pass(context, name)
        again = workload.build(random.Random(3))
        assert again == items
        assert workload.digest(items, outputs, set()) == workload.digest(
            again, run.Pass(workload, again).outputs, set())


def test_gates_reject_a_wrong_straightening(context):
    workload, items, outputs = small_pass(context, "straighten")
    idx = next(i for i, it in enumerate(items) if it[0] == "normalize" and it[1] == "sl2")
    cli, L = context.pbw.cli, context.algebras["sl2"]
    wrong = cli.parse_expression(L, outputs[idx]) + cli.parse_expression(L, "h")
    outputs[idx] = cli.format_element(L, wrong)  # canonical and parses back, but wrong
    with pytest.raises(oracle.GateError, match=f"item {idx} .*matrix image"):
        workload.check(items, outputs, set())


def test_gates_reject_a_wrong_certificate(context):
    workload, items, outputs = small_pass(context, "coxeter")
    idx = next(i for i, it in enumerate(items) if it[0] == "contract" and outputs[i][0])
    cert, final = outputs[idx]
    outputs[idx] = (cert[:-1], final)
    with pytest.raises(oracle.GateError, match="does not reduce"):
        workload.check(items, outputs, set())


def test_representations_are_homomorphisms(context):
    assert context.reps["bad"] is None
    for name in ("abelian3", "heisenberg", "sl2", "f32", "f42"):
        assert context.reps[name] is not None
