"""listlab benchmark: end-to-end and per-layer measurements of the CLI.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload corpus --seed 0 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seconds 30

For each workload it generates the inputs from the seed, then runs the
workload in its own child process (worker.py) for the given seconds, which
gates every CLI call it makes. The end-to-end times (setup_s, wall_s and the
rates derived from wall_s) are calibrated to a fixed machine speed, because
the speed of a shared machine drifts; the raw wall and CPU times of every
pass are printed and recorded beside them. ``--trace 0`` reports the end-to-end metrics
of BENCHMARK.json, ``--trace 1`` the per-layer ones. A human summary comes
first; the last line of standard output is one JSON object. A record with
metadata, and the spans of a traced run, are written under .bench_out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker
import workloads

CHECKOUT = workloads.CHECKOUT
OUT_DIR = CHECKOUT / ".bench_out"
WORKER = Path(__file__).with_name("worker.py")
RUN_LIMIT_S = 175.0  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_stats() -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(workloads.SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(workloads.SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def wall_tail(walls) -> str:
    """The highest percentile with at least ten samples beyond it."""
    count = len(walls)
    if count < 11:
        return f"no percentile has ten samples beyond it at n={count}"
    ordered = sorted(walls)
    return f"p{100 * (count - 10) / count:.0f} {ordered[count - 11]:.4f} s at n={count}"


def end_to_end(result: dict) -> dict:
    """Times are calibrated to the reference machine speed (worker.py)."""
    wall = statistics.median(calibrated for _, _, calibrated in result["untraced"])
    return {
        "setup_s": statistics.median(calibrated for _, calibrated in result["setup_s"]),
        "wall_s": wall,
        "req_per_s": result["requests_per_pass"] / wall,
        "inst_per_s": result["instances_per_pass"] / wall,
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_share": 1.0 - result["failed"] / result["attempted"],
    }


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    started = time.perf_counter()
    tag = f"{workload}-s{seed}-t{int(trace)}-{size}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    workdir = OUT_DIR / tag
    workdir.mkdir(parents=True)
    try:
        inputs = workloads.write_inputs(workload, seed, size, workdir)
        spans = OUT_DIR / f"{tag}.spans.jsonl.gz"
        command = [
            sys.executable, str(WORKER), "--workload", workload, "--size", size, "--seed", str(seed),
            "--workdir", str(workdir), "--seconds", str(seconds), "--trace", str(int(trace)),
        ]
        if trace:
            command += ["--spans", str(spans)]
        command += [str(p) for p in inputs]
        budget = RUN_LIMIT_S - (time.perf_counter() - started)
        try:
            proc = subprocess.run(
                command, cwd=CHECKOUT, env=worker.child_env(), stdout=subprocess.PIPE, text=True, timeout=budget
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} did not finish within {budget:.0f} s") from None
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{workload} worker exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    group = "per_layer" if trace else "end_to_end"
    measured = result["layers"] if trace else end_to_end(result)
    absent = [m["name"] for m in spec[group] if m["name"] not in measured]
    if absent:
        raise BenchError(f"{workload} did not measure {', '.join(absent)}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in spec[group]}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        **source_stats(),
        "setup_raw_calibrated_s": result["setup_s"],
        "passes_wall_cpu_calibrated_s": result["untraced"],
        "traced_passes_wall_cpu_s": result["traced"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
        "missing_instrumentation": result["missing_instrumentation"],
        "metrics": metrics,
        "spans_file": spans.name if trace else None,
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print_summary(record, spec[group])
    return record


def print_summary(record: dict, declared: list[dict]) -> None:
    attempted, failed = record["attempted"], record["failed"]
    walls, cpus, calibrated = zip(*record["passes_wall_cpu_calibrated_s"])
    print(
        f"== {record['workload']}: seed {record['seed']}, {record['seconds']:g} s, "
        f"trace {record['trace']}, size {record['size']}"
    )
    print(
        f"   commit {record['commit'][:12]}, python {record['python']}, nproc {record['nproc']}, "
        f"src lines {record['src_lines']}"
    )
    print(
        f"   gate {'PASS' if failed == 0 else 'FAIL'}: fail_share {failed / attempted:g} share "
        f"({failed} of {attempted} CLI calls failed)"
    )
    for problem in record["problems"]:
        print(f"     {problem}")
    print(
        f"   {len(walls)} untraced passes: raw wall median {statistics.median(walls):.4f} s, "
        f"cpu median {statistics.median(cpus):.4f} s; calibrated wall median "
        f"{statistics.median(calibrated):.4f} s, {wall_tail(calibrated)}"
    )
    for entry in declared:
        value = record["metrics"][entry["name"]]["value"]
        print(f"   {entry['name']:<36} {value:>14.6g} {entry['unit']}")
    if record["trace"]:
        m = {k: v["value"] for k, v in record["metrics"].items()}
        print(
            f"   self times sum to {m['trace.self_sum_s']:.4f} s per traced pass; untraced pass "
            f"{m['trace.untraced_pass_s']:.4f} s; tracing overhead {m['trace.overhead_s']:+.4f} s"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full", help="tiny is for smoke tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    missing = workloads.missing_program_files()
    if missing:
        print(f"error: not a listlab checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(spec, name, args.seed, args.seconds, bool(args.trace), args.size) for name in names]
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
