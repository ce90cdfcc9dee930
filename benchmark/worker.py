"""One workload's measurement, run in its own child process by run.py.

Passes run back to back in a closed loop with one client: each pass makes
the workload's CLI calls in-process through ``listlab.cli.main``, and every
call then goes through the correctness gate, outside the timed pass. With
``--trace 1`` untraced and traced passes alternate, the traced ones with a
span around each call into a listlab module, and a probe outside the passes
times each engine directly and counts its steps.

The calls of untraced passes are bracketed by a short calibration loop, so
the end-to-end times can be scaled to a fixed machine speed (see
``Calibration``); the raw wall and CPU times are kept beside them.

Prints one JSON object as its last line of standard output.
"""

import argparse
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

import tracing
import workloads

# span name -> metric for the spans whose self time is not "<name>_s"
SPAN_METRICS = {
    "bench.pass": "bench.self_s",
    "cli.main": "cli.self_s",
    "oracle.verify_engines": "oracle.checks_s",  # derived: the call minus its spanned parts
}
TIMED_SPANS = (
    "bench.pass",
    "cli.main",
    "corpus.load_file",
    "corpus.preprocess",
    "corpus.derive_list",
    *(f"algorithms.{e}.run" for e in workloads.ENGINES),
    "oracle.verify_engines",
    "oracle.enumerate",
    "oracle.naive_fc",
    "oracle.opt",
    "oracle.reruns",
    "report.format_table",
    "report.rows_to_csv",
    "report.rows_from_csv",
    "chart.render_bar_chart",
)
MAX_REPORTED_PROBLEMS = 10
SETUP_SAMPLES = 10  # fresh-interpreter imports per run, about evenly spaced
CALIBRATION_REQUESTS = 100_000
CALIBRATION_SEED = 1
CALIBRATION_REFERENCE_S = 0.1


def child_env() -> dict:
    # listlab comes from this checkout's src/ and nowhere else
    return dict(os.environ, PYTHONPATH=str(workloads.SRC), PYTHONHASHSEED="0")


def import_seconds() -> float:
    """Wall time from starting a fresh interpreter until ``import listlab``
    has completed in it."""
    code = "import listlab, sys; sys.stdout.write('imported\\n'); sys.stdout.flush()"
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code], cwd=workloads.CHECKOUT, env=child_env(), stdout=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line != "imported\n":
        raise SystemExit(f"import listlab failed in a fresh interpreter (exit {proc.returncode})")
    return elapsed


class Calibration:
    """A fixed pure-Python loop shaped like the engines' inner loop, written
    here and sharing no code with listlab: frequency count over a
    Zipf-skewed byte sequence (find the symbol, bump its counter, scan the
    prefix for the first smaller counter and move the symbol there).

    The machine this runs on is shared: its speed for the same work drifts
    by more than 1.5x over seconds and minutes, for CPU time as much as for
    wall time. The loop runs before and after every CLI call of an untraced
    pass, and each call's time is scaled by CALIBRATION_REFERENCE_S over the
    mean of the two, so the end-to-end times read as seconds on a machine
    where the loop takes that long.
    """

    def __init__(self):
        rng = random.Random(CALIBRATION_SEED)
        self.symbols = list(range(33, 123))
        weights = [1 / rank for rank in range(1, len(self.symbols) + 1)]
        self.requests = bytes(rng.choices(self.symbols, weights, k=CALIBRATION_REQUESTS))

    def seconds(self) -> float:
        order = list(self.symbols)
        counts = dict.fromkeys(self.symbols, 0)
        start = perf_counter()
        for symbol in self.requests:
            j = order.index(symbol)
            counts[symbol] += 1
            f = counts[symbol]
            for i in range(j):
                if f > counts[order[i]]:
                    order.insert(i, order.pop(j))
                    break
        return perf_counter() - start


def span_metric(name: str) -> str:
    return SPAN_METRICS.get(name, name + "_s")


def import_listlab():
    sys.path.insert(0, str(workloads.SRC))
    import listlab
    import listlab.cli
    import listlab.oracle
    import listlab.report

    if not Path(listlab.__file__).resolve().is_relative_to(workloads.SRC):
        raise SystemExit(f"listlab was imported from {listlab.__file__}, not from {workloads.SRC}")
    return listlab


def engine_args(listlab, label: str):
    kind, _, policy = label.partition("-")
    vfc_policy = listlab.VfcPolicy(policy) if policy else listlab.VfcPolicy.LITERAL
    return listlab.AlgorithmKind(kind), vfc_policy


def probe(listlab, cases, detail: bool) -> tuple[dict, dict]:
    """Run every engine directly over ``cases`` (label, state, sequence).

    Returns the totals (label -> engine -> total, for labelled cases) that
    the gate compares the CLI's output with, and, when ``detail`` is set,
    per-engine metrics: requests/s with ``keep_trace=False``, and the step
    counts of a ``keep_trace=True`` run.
    """
    full = listlab.CostModel.FULL
    run = listlab.run_algorithm
    n_total = sum(len(seq) for _, _, seq in cases)
    totals: dict = {label: {} for label, _, _ in cases if label is not None}
    metrics: dict = {}
    plain_s: dict = {}
    traced_s: dict = {}
    for engine in workloads.ENGINES:
        kind, policy = engine_args(listlab, engine)
        start = perf_counter()
        for label, state, seq in cases:
            total = run(kind, state, seq, full, policy, keep_trace=False).total_cost
            if label is not None:
                totals[label][engine] = total
        plain_s[engine] = perf_counter() - start
        if not detail:
            continue
        steps = batches = position_sum = 0
        start = perf_counter()
        for _, state, seq in cases:
            for step in run(kind, state, seq, full, policy, keep_trace=True).steps:
                steps += 1
                batches += step.requests_consumed > 1
                position_sum += step.position_before
        traced_s[engine] = perf_counter() - start
        metrics[f"algorithms.{engine}.req_per_s"] = n_total / plain_s[engine]
        metrics[f"algorithms.{engine}.steps"] = steps
        metrics[f"algorithms.{engine}.batches"] = batches
        metrics[f"algorithms.{engine}.served_share"] = steps / n_total
        metrics[f"algorithms.{engine}.mean_position"] = position_sum / steps
    if detail:
        kind, policy = engine_args(listlab, "fc")
        start = perf_counter()
        for _, state, seq in cases:
            run(kind, state, seq, full, policy, snapshots=True)
        snapshot_s = perf_counter() - start
        metrics["algorithms.trace_overhead"] = traced_s["fc"] / plain_s["fc"]
        metrics["algorithms.snapshot_overhead"] = snapshot_s / plain_s["fc"]
    return totals, metrics


def invoke(main, argv):
    """One operation: exit code (or the exception a traceback would show),
    standard output and standard error."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


class Workload:
    def __init__(self, listlab, name, size, seed, inputs: list[Path], workdir: Path):
        self.listlab = listlab
        self.name = name
        self.calls = workloads.pass_calls(name, size, inputs, workdir)
        if name == "verify":
            m, length = workloads.VERIFY_BOUNDS[size]
            instances = list(listlab.oracle.enumerate_instances(m, length))
            self.cases = [(None, inst.to_state(), inst.sequence) for inst in instances]
            self.sizes = {}
            self.verify_instances = workloads.verify_instance_count(size)
        else:
            sequences = {p.name: listlab.preprocess(listlab.load_file(p)) for p in inputs}
            self.cases = [(label, listlab.derive_list(seq), seq) for label, seq in sequences.items()]
            self.sizes = {label: len(seq) for label, seq in sequences.items()}
        self.instances_per_pass = len(self.cases)
        self.requests_per_pass = len(workloads.ENGINES) * sum(len(seq) for _, _, seq in self.cases)
        self.expected = None
        if name != "verify" and size == "full" and seed == workloads.DEFAULT_SEED:
            expected_path = Path(__file__).with_name("expected_totals.json")
            self.expected = json.loads(expected_path.read_text(encoding="utf-8"))[name]
        self.reference: dict = {}

    def gate(self, outcomes, parse_csv) -> list[list[str]]:
        """The problems of each call of one pass; an empty list is a pass."""
        per_call = []
        for call, (code, out, err) in zip(self.calls, outcomes):
            if self.name == "verify":
                found = workloads.gate_verify(code, out, self.verify_instances)
            else:
                found = workloads.gate_run(call, code, parse_csv, self.sizes, self.reference, self.expected)
            if found and err.strip():
                found.append("stderr: " + err.strip().splitlines()[-1])
            per_call.append([f"{' '.join(call.argv[:1])}: {p}" for p in found])
        return per_call


def run_pass(calls, main):
    wall, cpu = perf_counter(), process_time()
    outcomes = [invoke(main, call.argv) for call in calls]
    return perf_counter() - wall, process_time() - cpu, outcomes


def calibrated_pass(calls, main, calibrate, calibration: float):
    """An untraced pass with the calibration loop run after every call, the
    caller having run it once before the first. Returns the calls' summed
    wall, CPU and calibrated seconds, their outcomes, and the last
    calibration time."""
    wall = cpu = calibrated = 0.0
    outcomes = []
    for call in calls:
        call_wall, call_cpu = perf_counter(), process_time()
        outcomes.append(invoke(main, call.argv))
        call_wall, call_cpu = perf_counter() - call_wall, process_time() - call_cpu
        after = calibrate()
        wall += call_wall
        cpu += call_cpu
        calibrated += call_wall * CALIBRATION_REFERENCE_S / ((calibration + after) / 2)
        calibration = after
    return wall, cpu, calibrated, outcomes, calibration


def measure(work: Workload, seconds: float, trace: bool, spans_path: Path | None) -> dict:
    listlab = work.listlab
    modules = {"cli": listlab.cli, "oracle": listlab.oracle}
    parse_csv = listlab.report.rows_from_csv
    tracer = tracing.Tracer()
    traced_parse = tracing.wrap(tracer, "report.rows_from_csv", parse_csv)
    traced_main = tracing.wrap(tracer, "cli.main", listlab.cli.main)

    probe_metrics: dict = {}
    if trace or work.name != "verify":  # verify's gate needs no reference totals
        work.reference, probe_metrics = probe(listlab, work.cases, detail=trace)

    # set-up is sampled between passes, spread over the run, so its samples
    # meet the same machine load as the passes; the first import may compile
    # bytecode and is not timed
    setup: list[tuple[float, float]] = []  # (seconds, calibrated seconds)
    next_setup = 0.0
    if not trace:
        import_seconds()
    calibrate = Calibration().seconds
    calibration = calibrate()
    untraced, traced, layer_samples = [], [], []
    attempted = failed = 0
    problems: list[str] = []
    missing: list[str] = []
    pass_number = 0
    start = perf_counter()
    while True:
        kinds = [False]
        if trace:
            kinds = [False, True] if pass_number % 2 == 0 else [True, False]
        for traced_pass in kinds:
            if traced_pass:
                first = len(tracer)
                counts_before = dict(tracer.counts)
                with tracing.instrumented(tracer, modules) as missing:
                    with tracer.span("bench.pass") as root:
                        wall, cpu, outcomes = run_pass(work.calls, traced_main)
                    pass_stop = len(tracer)
                    with tracer.span("bench.gate"):
                        found = work.gate(outcomes, traced_parse)
                traced.append((wall, cpu))
                layer_samples.append(
                    summarize_pass(tracer, first, pass_stop, root, counts_before)
                )
            else:
                wall, cpu, calibrated, outcomes, calibration = calibrated_pass(
                    work.calls, listlab.cli.main, calibrate, calibration
                )
                untraced.append((wall, cpu, calibrated))
                found = work.gate(outcomes, parse_csv)
                if not trace and perf_counter() - start >= next_setup:
                    raw = import_seconds()
                    setup.append((raw, raw * CALIBRATION_REFERENCE_S / calibration))
                    next_setup += seconds / SETUP_SAMPLES
            attempted += len(found)
            failed += sum(1 for call_problems in found if call_problems)
            problems.extend(p for call_problems in found for p in call_problems)
        pass_number += 1
        if perf_counter() - start >= seconds:
            break

    result = {
        "setup_s": setup,
        "untraced": untraced,
        "traced": traced,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:MAX_REPORTED_PROBLEMS],
        "requests_per_pass": work.requests_per_pass,
        "instances_per_pass": work.instances_per_pass,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "missing_instrumentation": missing,
    }
    if trace:
        result["layers"] = layer_metrics(layer_samples, untraced, probe_metrics)
        if spans_path is not None:
            tracer.write(spans_path)
    return result


def summarize_pass(tracer, first, pass_stop, root, counts_before) -> dict:
    """Self time per metric for one traced pass and the gate after it."""
    by_name = tracer.self_by_name(first)
    sample = {span_metric(name): 0.0 for name in TIMED_SPANS}
    for name, value in by_name.items():
        if name != "bench.gate":
            sample[span_metric(name)] = value
    pass_self = tracer.self_times(first, pass_stop)
    sample["trace.pass_s"] = tracer.ends[root] - tracer.starts[root]
    sample["trace.self_sum_s"] = sum(pass_self)
    sample["trace.spans"] = pass_stop - first
    sample["oracle.instances"] = tracer.counts.get("oracle.enumerate", 0) - counts_before.get(
        "oracle.enumerate", 0
    )
    return sample


def layer_metrics(samples, untraced, probe_metrics) -> dict:
    metrics = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
    metrics["trace.untraced_pass_s"] = statistics.median(wall for wall, *_ in untraced)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - metrics["trace.untraced_pass_s"]
    metrics.update(probe_metrics)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True, help="where the CLI writes CSV and SVG")
    parser.add_argument("inputs", type=Path, nargs="*", help="the workload's generated input files")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    listlab = import_listlab()
    work = Workload(listlab, args.workload, args.size, args.seed, args.inputs, args.workdir)
    result = measure(work, args.seconds, bool(args.trace), args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
