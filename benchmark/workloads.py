"""The benchmark's workloads: generated inputs, the CLI calls one pass makes,
and the correctness gate every call goes through.

corpus  the eight surrogate Calgary-shaped texts of ``tests/_textgen.py``,
        Zipf-skewed prose, records and code on 41-89 symbol lists, so the
        list-scanning engines do nearly all the work.
bursty  one generated file of 16 symbols in geometric runs of mean 8, short
        list and long runs, so strict VFC's lookahead window takes the largest share.
verify  the exhaustive verifier at list size 4 and sequence length 6 (5,461
        instances), so the oracle and the per-instance engine reruns do the
        work; it is exhaustive and takes no seed. Length 7 would take about
        7.5 s a pass, too few passes per run to give a steady median here.

The program only ever sees files (and, for verify, its command line); this
module builds them from the benchmark seed.
"""

import importlib.util
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"
TEXTGEN = CHECKOUT / "tests" / "_textgen.py"

WORKLOADS = ("corpus", "bursty", "verify")
SIZES = ("full", "tiny")
DEFAULT_SEED = 0

# Engine labels: the engine and VFC policy the benchmark asks for.
ENGINES = ("mtf", "trans", "fc", "vfc-literal", "vfc-strict")

# (name, _textgen function, base seed, keyword arguments), exactly as
# tests/_textgen.surrogate_corpus() calls them; benchmark seed s uses base
# seed + SEED_STRIDE * s, so seed 0 reproduces surrogate_corpus() byte for byte.
CORPUS_PROFILES = (
    ("surrogate-trans", "_prose", 101, {"lexicon_size": 1100, "exponent": 1.1}),
    ("surrogate-book1", "_prose", 202, {"lexicon_size": 1600, "exponent": 1.0}),
    ("surrogate-news", "_prose", 303, {"lexicon_size": 1300, "exponent": 1.05, "digits": 0.04, "caps": 0.25}),
    ("surrogate-bib", "_records", 404, {}),
    ("surrogate-paper1", "_prose", 505, {"lexicon_size": 1200, "exponent": 1.15, "digits": 0.02}),
    ("surrogate-progp", "_code", 606, {"flavor": "pascal"}),
    ("surrogate-progc", "_code", 707, {"flavor": "c"}),
    ("surrogate-geo", "_near_binary", 808, {}),
)
SEED_STRIDE = 1000
TINY_TEXT_BYTES = 1500

# Printable, and none of them is stripped by preprocess (space, CR, LF).
BURSTY_SYMBOLS = b"ABCDEFGHIJKLMNOP"
BURSTY_MEAN_RUN = 8.0
BURSTY_LENGTH = {"full": 100_000, "tiny": 2_000}
BURSTY_NAME = "bursty"

VERIFY_BOUNDS = {"full": (4, 6), "tiny": (3, 4)}
VERIFY_CHECKS = (
    "fc-matches-reference",
    "opt-dominates-engines",
    "mtf-within-twice-opt",
    "fc-vfc-conservation",
    "full-model-lower-bound",
    "frequencies-non-increasing",
    "batch-promotes-to-head",
)


def missing_program_files() -> list[str]:
    """Files of the program the benchmark needs but cannot find."""
    needed = [SRC / "listlab" / "__init__.py", TEXTGEN]
    return [str(path.relative_to(CHECKOUT)) for path in needed if not path.is_file()]


def _load_textgen():
    spec = importlib.util.spec_from_file_location("_textgen", TEXTGEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def corpus_texts(seed: int) -> dict[str, bytes]:
    textgen = _load_textgen()
    return {
        name: getattr(textgen, function)(base + SEED_STRIDE * seed, **kwargs)
        for name, function, base, kwargs in CORPUS_PROFILES
    }


def bursty_requests(seed: int, length: int) -> bytes:
    """Geometric runs of mean BURSTY_MEAN_RUN; a run never repeats the
    previous run's symbol, so the observed mean run is the stated one."""
    rng = random.Random(seed)
    p = 1.0 / BURSTY_MEAN_RUN
    out = bytearray()
    previous = None
    while len(out) < length:
        symbol = rng.choice([s for s in BURSTY_SYMBOLS if s != previous])
        run = int(math.log(1.0 - rng.random()) / math.log(1.0 - p)) + 1
        out += bytes([symbol]) * min(run, length - len(out))
        previous = symbol
    return bytes(out)


def write_inputs(workload: str, seed: int, size: str, directory: Path) -> list[Path]:
    """Generate the workload's input files into ``directory``."""
    if workload == "corpus":
        texts = corpus_texts(seed)
        if size == "tiny":
            texts = {name: data[:TINY_TEXT_BYTES] for name, data in texts.items()}
    elif workload == "bursty":
        texts = {BURSTY_NAME: bursty_requests(seed, BURSTY_LENGTH[size])}
    else:
        return []
    paths = []
    for name, data in texts.items():
        path = directory / name
        path.write_bytes(data)
        paths.append(path)
    return paths


@dataclass
class Call:
    """One CLI invocation: an operation of the workload."""

    argv: list[str]
    engines: tuple[str, ...] = ()  # engine labels, in the order asked for
    csv: Path | None = None


def pass_calls(workload: str, size: str, inputs: list[Path], directory: Path) -> list[Call]:
    if workload == "verify":
        m, length = VERIFY_BOUNDS[size]
        return [Call(["verify", "--max-list-size", str(m), "--max-seq-len", str(length)])]
    paths = [str(p) for p in inputs]
    default_csv = directory / "default.csv"
    strict_csv = directory / "strict.csv"
    return [
        Call(
            ["run", *paths, "--csv", str(default_csv), "--chart", str(directory / "default.svg")],
            ("mtf", "trans", "fc", "vfc-literal"),
            default_csv,
        ),
        Call(
            ["run", *paths, "--algos", "vfc", "--vfc-policy", "strict", "--csv", str(strict_csv)],
            ("vfc-strict",),
            strict_csv,
        ),
    ]


def verify_instance_count(size: str) -> int:
    m, length = VERIFY_BOUNDS[size]
    return sum(m**n for n in range(length + 1))


def gate_run(call, exit_code, parse_csv, sizes, reference, expected=None) -> list[str]:
    """Problems with one ``listlab run`` call; an empty list means it passed.

    ``sizes`` maps each input label to its request count, in input order;
    ``reference`` and ``expected`` map label -> engine label -> total.
    ``parse_csv`` is ``listlab.report.rows_from_csv``.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        rows = parse_csv(call.csv.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        return [f"CSV {call.csv.name} unreadable: {err}"]
    if len(rows) != len(sizes):
        return [f"CSV has {len(rows)} rows for {len(sizes)} inputs"]
    problems = []
    for (label, n), row in zip(sizes.items(), rows):
        if row.n != n:
            problems.append(f"{label}: CSV n {row.n} != {n}")
        if expected is not None and n != expected[label]["n"]:
            problems.append(f"{label}: generated {n} requests, expected {expected[label]['n']}")
        totals = list(row.costs.values())
        if len(totals) != len(call.engines):
            problems.append(f"{label}: {len(totals)} totals for engines {call.engines}")
            continue
        for engine, total in zip(call.engines, totals):
            where = f"{label} {engine}"
            if total != reference[label][engine]:
                problems.append(f"{where}: total {total} != run_algorithm total {reference[label][engine]}")
            if row.cost_model.value == "full" and total < n:
                problems.append(f"{where}: full-model total {total} < n {n}")
            if expected is not None and total != expected[label][engine]:
                problems.append(f"{where}: total {total} != expected {expected[label][engine]}")
    return problems


def gate_verify(exit_code, stdout: str, instances: int) -> list[str]:
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    problems = []
    passed = set(re.findall(r"^PASS (\S+)", stdout, re.MULTILINE))
    for check in VERIFY_CHECKS:
        if check not in passed:
            problems.append(f"check {check} did not print PASS")
    found = re.search(r"all checks passed \((\d+) instances\)", stdout)
    if found is None or int(found.group(1)) != instances:
        problems.append(f"expected {instances} instances, got {found.group(1) if found else 'none'}")
    return problems
