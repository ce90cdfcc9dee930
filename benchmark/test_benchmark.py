"""The benchmark's own tests: run with ``python3 -m pytest benchmark``."""

import copy
import gzip
import json
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import worker
import workloads

RUN = Path(__file__).with_name("run.py")
SPEC = json.loads((workloads.CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def listlab():
    return worker.import_listlab()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_passes_its_gate(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--size", "tiny", "--seed", "3",
         "--seconds", "0.05", "--trace", str(trace)],
        cwd=workloads.CHECKOUT, stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in group]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_gate_catches_an_altered_expected_total(listlab, tmp_path):
    inputs = workloads.write_inputs("bursty", 5, "tiny", tmp_path)
    work = worker.Workload(listlab, "bursty", "tiny", 5, inputs, tmp_path)
    work.reference, _ = worker.probe(listlab, work.cases, detail=False)
    expected = {label: {"n": work.sizes[label], **totals} for label, totals in work.reference.items()}
    work.expected = expected
    outcomes = [worker.invoke(listlab.cli.main, call.argv) for call in work.calls]
    assert work.gate(outcomes, listlab.report.rows_from_csv) == [[], []]

    altered = copy.deepcopy(expected)
    altered[workloads.BURSTY_NAME]["fc"] += 1
    work.expected = altered
    problems = work.gate(outcomes, listlab.report.rows_from_csv)
    assert problems[1] == []
    assert len(problems[0]) == 1 and "fc" in problems[0][0] and "expected" in problems[0][0]


def test_gate_catches_a_failed_verify_check():
    good = "\n".join(f"PASS {name} (121 instances)" for name in workloads.VERIFY_CHECKS)
    good += "\nall checks passed (121 instances)\n"
    assert workloads.gate_verify(0, good, 121) == []
    assert workloads.gate_verify(0, good, 122)
    assert workloads.gate_verify(2, good, 121)
    assert workloads.gate_verify(0, good.replace("PASS opt-dominates", "FAIL opt-dominates"), 121)


@pytest.mark.parametrize("workload", ["corpus", "verify"])
def test_spans_nest_and_self_times_are_not_negative(listlab, tmp_path, workload):
    inputs = workloads.write_inputs(workload, 1, "tiny", tmp_path)
    work = worker.Workload(listlab, workload, "tiny", 1, inputs, tmp_path)
    spans_path = tmp_path / "spans.jsonl.gz"
    result = worker.measure(work, 0.0, True, spans_path)
    assert result["failed"] == 0 and result["missing_instrumentation"] == []

    tracer = tracing.Tracer()
    with gzip.open(spans_path, "rt", encoding="utf-8") as spans:
        for name, start, end, parent in map(json.loads, spans):
            tracer.names.append(name)
            tracer.starts.append(start)
            tracer.ends.append(end)
            tracer.parents.append(parent)
    assert len(tracer) > 0
    for i, parent in enumerate(tracer.parents):
        assert tracer.starts[i] <= tracer.ends[i]
        if parent != tracing.NO_PARENT:
            assert parent < i
            assert tracer.starts[parent] <= tracer.starts[i] <= tracer.ends[i] <= tracer.ends[parent]
    assert min(tracer.self_times()) >= 0.0

    layers = result["layers"]
    assert layers["trace.self_sum_s"] == pytest.approx(layers["trace.pass_s"], rel=1e-9)
    if workload == "verify":
        assert layers["oracle.instances"] == workloads.verify_instance_count("tiny")
        assert layers["oracle.opt_s"] > 0 and layers["corpus.preprocess_s"] == 0
    else:
        assert layers["oracle.instances"] == 0 and layers["corpus.preprocess_s"] > 0


def test_default_seed_reproduces_the_surrogate_corpus():
    textgen = workloads._load_textgen()
    assert workloads.corpus_texts(workloads.DEFAULT_SEED) == textgen.surrogate_corpus()


def test_bursty_runs_have_the_stated_mean():
    data = workloads.bursty_requests(11, workloads.BURSTY_LENGTH["full"])
    assert set(data) <= set(workloads.BURSTY_SYMBOLS)
    runs = 1 + sum(1 for a, b in zip(data, data[1:]) if a != b)
    # a run repeating its predecessor's symbol would merge into it and push
    # the observed mean to 8 / (1 - 1/16) = 8.53
    assert abs(len(data) / runs - workloads.BURSTY_MEAN_RUN) < 0.3
    assert workloads.bursty_requests(11, 500) == workloads.bursty_requests(11, 500)
