import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import listlab.algorithms
import listlab.oracle
from listlab import AlgorithmKind, CostModel, derive_list, preprocess, rows_from_csv, rows_to_csv, run_algorithm
from listlab.cli import DEMO_NAME, DEMO_SEQUENCE, main
from listlab.report import CSV_HEADER
from test_oracle import _promote_ignoring_ties


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


DATA = Path(__file__).resolve().parent / "data"

# Each run golden's command line, once: tests/data/run_trace_<prefix><policy>.txt
# holds the output of ``listlab run <argv> --vfc-policy <policy> --trace``.
# The verify goldens carry their bounds and model in the file name, which is
# how the CI loop over all of them and ``TestGoldens`` read them.
RUN_WORKLOADS = {
    # the demo, and batches of both policies on short runs
    "": ["--demo", "--generate", "runs:3", "--alphabet-size", "5", "--length", "60"],
    # literal batches that swallow other symbols, and strict windows rejected after the repeat test
    "zipf_": ["--generate", "zipf:1.2", "--alphabet-size", "6", "--length", "150", "--seed", "2"],
    # VFC repeats served after a batch and after a rejected strict window, under the partial model
    "runs_partial_": ["--generate", "runs:6", "--alphabet-size", "8", "--length", "300", "--seed", "1",
                      "--cost-model", "partial"],
}
RUN_GOLDENS = {
    f"run_trace_{prefix}{policy}.txt": ["run", *argv, "--vfc-policy", policy]
    for prefix, argv in RUN_WORKLOADS.items()
    for policy in ("literal", "strict")
}
VERIFY_GOLDEN = re.compile(r"verify_m(\d+)_n(\d+)_(full|partial)\.txt")


def golden(name):
    return (DATA / name).read_bytes().decode("utf-8")


class TestGoldens:
    """The run goldens and the fast verify goldens, each against the CLI."""

    @pytest.mark.parametrize("name", RUN_GOLDENS)
    def test_traced_run_prints_its_golden(self, name):
        assert run_cli([*RUN_GOLDENS[name], "--trace"]) == (0, golden(name), "")

    @pytest.mark.parametrize("name", RUN_GOLDENS)
    def test_untraced_run_prints_its_golden_without_step_lines(self, name):
        """Served in one kernel call per engine, an untraced run reaches the
        repeat branches of FC's loop and MTF's, and strict VFC's hand-off to
        FC's loop, which the traced runs (one step a call) never take."""
        lines = golden(name).splitlines(keepends=True)
        table = "".join(line for line in lines if not line.startswith(("step=", "# trace")))
        assert run_cli(RUN_GOLDENS[name]) == (0, table, "")

    def test_strict_demo_run_writes_its_csv_and_svg_goldens(self, tmp_path):
        csv_path, svg_path, redrawn = tmp_path / "a.csv", tmp_path / "a.svg", tmp_path / "b.svg"
        argv = [*RUN_GOLDENS["run_trace_strict.txt"], "--csv", str(csv_path), "--chart", str(svg_path)]
        assert run_cli(argv)[0] == 0
        assert csv_path.read_bytes() == (DATA / "run_report_strict.csv").read_bytes()
        assert svg_path.read_bytes() == (DATA / "run_report_strict.svg").read_bytes()
        assert run_cli(["chart", "--from-csv", str(csv_path), "--out", str(redrawn)])[0] == 0
        assert redrawn.read_bytes() == svg_path.read_bytes()

    @pytest.mark.parametrize(
        "name", [f"verify_m{m}_n{n}_{model}.txt" for m, n in ((4, 7), (3, 8)) for model in ("full", "partial")]
    )
    def test_verify_prints_its_golden(self, name):
        m, n, model = VERIFY_GOLDEN.fullmatch(name).groups()
        argv = ["verify", "--max-list-size", m, "--max-seq-len", n, "--cost-model", model]
        assert run_cli(argv) == (0, golden(name), "")


class TestVerify:
    def test_small_bounds_pass_every_check(self):
        code, out, _ = run_cli(["verify", "--max-list-size", "2", "--max-seq-len", "3"])
        assert code == 0
        passes = [line for line in out.splitlines() if line.startswith("PASS ")]
        assert len(passes) == 7
        assert all(line.endswith("(15 instances)") for line in passes)

    def test_violated_property_exits_2(self, monkeypatch):
        """FC without its tie step fails one check; the report goes to stdout, and stderr says only that it failed."""
        monkeypatch.setattr(listlab.algorithms, "_promote", _promote_ignoring_ties(listlab.algorithms._promote))
        code, out, err = run_cli(["verify", "--max-list-size", "3", "--max-seq-len", "3"])
        assert (code, err) == (2, "verification FAILED\n")
        lines = out.splitlines()
        k = lines.index("FAIL fc-matches-reference (40 instances)")
        assert lines[k + 1] == "  counterexample: order=(1, 2, 3) seq=(1, 3, 1): engine 5 != reference 6"
        assert sum(line.startswith("PASS ") for line in lines) == 6
        assert not any(line.startswith("all checks passed") for line in lines)

    @staticmethod
    def _verify_as_python_m(module):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        argv = [sys.executable, "-m", module, "verify", "--max-list-size", "2", "--max-seq-len", "2"]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "all checks passed" in proc.stdout

    def test_runs_as_python_m_listlab(self):
        self._verify_as_python_m("listlab")

    def test_runs_as_python_m_listlab_cli(self):
        """Through ``cli.py``'s ``__main__`` block; without it the command prints nothing and exits 0."""
        self._verify_as_python_m("listlab.cli")

    def test_bounds_beyond_enumeration_are_a_config_error(self):
        m = listlab.oracle.MAX_ENUM_LIST + 1
        code, _, err = run_cli(["verify", "--max-list-size", str(m)])
        assert code == 1
        assert f"list size {m}" in err


def test_help_says_what_listlab_does():
    code, out, _ = run_cli(["--help"])
    assert code == 0
    description = "Compare MTF, TRANS, FC and VFC on request sequences, and verify them on small instances."
    assert description in " ".join(out.split())  # argparse wraps it to the terminal width


class TestInternalError:
    """A broken invariant exits 3 with one ``internal error:`` line and no traceback."""

    def test_run_below_the_full_model_lower_bound(self, monkeypatch):
        real = listlab.algorithms._access_costs
        monkeypatch.setattr(listlab.algorithms, "_access_costs", lambda model, m: [0, *real(model, m)[1:]])
        code, out, err = run_cli(["run", "--demo"])
        assert (code, out) == (3, "")
        assert err == "internal error: mtf on demo charged 5 for 6 requests (below the full-model lower bound)\n"

    def test_verify_walk_that_disagrees_with_a_whole_run(self, monkeypatch):
        """A ``_promote`` that hands back the index it was given breaks the
        whole run of (2, 2), which the walk reruns from scratch."""
        real = listlab.algorithms._promote

        def stale(order, neg, j, f):
            real(order, neg, j, f)
            return j

        monkeypatch.setattr(listlab.algorithms, "_promote", stale)
        code, _, err = run_cli(["verify", "--max-list-size", "2", "--max-seq-len", "3"])
        assert code == 3
        (line,) = err.splitlines()
        assert line.startswith("internal error: SmallInstance(order=(1, 2), sequence=(2, 2)")
        assert "Traceback" not in err

    def test_verify_rerun_that_repeats_a_symbol(self, monkeypatch):
        """A slot list shifted by one makes the whole TRANS run of (1, 2, 2, 2, 1), the
        first rerun longer than the list, write 1 over the symbol after it and repeat 1."""
        real = listlab.algorithms._slots
        monkeypatch.setattr(listlab.algorithms, "_slots", lambda order: (lambda s: s[1:] + s[:1])(real(order)))
        code, _, err = run_cli(["verify", "--max-list-size", "4", "--max-seq-len", "6"])
        assert code == 3
        (line,) = err.splitlines()
        assert line.startswith("internal error: SmallInstance(order=(1, 2, 3, 4), sequence=(1, 2, 2, 2, 1)")
        assert line.endswith("a whole run: trans left the list [1, 2, 1, 4], which repeats a symbol")

    @staticmethod
    def _verify_walking(monkeypatch, label, kernel, max_seq_len):
        """The one stderr line of a verify at list size 3 that exits 3 with ``kernel``
        driving ``label`` in the walk: ``_CONFIGS`` holds the kernels the walk drives."""
        configs = [(name, kernel if name == label else serve, *traits)
                   for name, serve, *traits in listlab.oracle._CONFIGS]
        monkeypatch.setattr(listlab.oracle, "_CONFIGS", tuple(configs))
        code, _, err = run_cli(["verify", "--max-list-size", "3", "--max-seq-len", max_seq_len])
        assert code == 3
        (line,) = err.splitlines()
        return line

    def test_verify_walk_step_that_loses_a_symbol(self, monkeypatch):
        """A TRANS step that writes the request over its predecessor instead of swapping
        them loses 1 on (1, 1, 2), so the kernel meets an unlisted 1 on (1, 1, 2, 1): a
        broken engine, not bad input."""

        def overwriting(order, neg, sequence, cursor, stop, costs):
            request = sequence[cursor]
            if request not in order:
                raise listlab.SymbolNotInList(request, cursor)
            j = order.index(request)
            if j:
                order[j - 1] = request
            return cursor + 1, costs[j]

        line = self._verify_walking(monkeypatch, "trans", overwriting, "4")
        assert line == ("internal error: trans lost a symbol of the list serving seq=(1, 1, 2, 1): "
                        "symbol 1 is not in the list (request index 3)")

    def test_verify_window_test_that_meets_a_lost_symbol(self, monkeypatch):
        """A literal VFC step that writes the third symbol over the second once 2 is at the
        head loses 1 on (1, 2); the walk extends (1, 2, 2, 1), so its window test looks 1 up."""
        real = listlab.algorithms._KERNELS["vfc[literal]"]

        def overwriting(order, neg, sequence, cursor, stop, costs):
            served = real(order, neg, sequence, cursor, stop, costs)
            if sequence[cursor] == 2 == order[0]:
                order[1] = order[2]
            return served

        line = self._verify_walking(monkeypatch, "vfc[literal]", overwriting, "5")
        assert line == "internal error: vfc[literal] lost a symbol of the list serving seq=(1, 2, 2, 1): 1 is not in list"

    def test_run_with_a_kernel_that_repeats_a_symbol(self, monkeypatch):
        real = listlab.algorithms._KERNELS["mtf"]

        def duplicating(order, *args):
            served = real(order, *args)
            order[-1] = order[0]
            return served

        monkeypatch.setitem(listlab.algorithms._KERNELS, "mtf", duplicating)
        code, out, err = run_cli(["run", "--demo", "--algos", "mtf"])
        assert (code, out) == (3, "")
        assert err == "internal error: mtf left the list [3, 2, 3], which repeats a symbol\n"


def test_trace_prints_batched_step():
    code, out, _ = run_cli(["run", "--demo", "--algos", "vfc", "--trace"])
    assert code == 0
    assert "step=2 request=2 pos=2 cost=3 consumed=2" in out.splitlines()
    assert "# trace file=demo algo=vfc[literal]" in out.splitlines()


class TestLabels:
    def test_strict_vfc_is_labelled_by_its_policy(self, tmp_path):
        csv_path = tmp_path / "o.csv"
        argv = ["run", "--demo", "--algos", "fc,vfc", "--vfc-policy", "strict", "--csv", str(csv_path)]
        code, out, _ = run_cli(argv)
        assert code == 0
        (row,) = rows_from_csv(csv_path.read_text(encoding="utf-8"))
        assert list(row.costs) == ["fc", "vfc[strict]"]
        assert "vfc[strict] cost" in out.splitlines()[0]

    def test_default_run_labels_literal_vfc(self, tmp_path):
        csv_path = tmp_path / "o.csv"
        assert run_cli(["run", "--demo", "--csv", str(csv_path)])[0] == 0
        (row,) = rows_from_csv(csv_path.read_text(encoding="utf-8"))
        assert list(row.costs) == ["mtf", "trans", "fc", "vfc[literal]"]


def test_default_strip_bytes_are_the_preprocessing_default(tmp_path):
    data = b"a b\r\nc\t"
    path, csv_path = tmp_path / "s.txt", tmp_path / "o.csv"
    path.write_bytes(data)
    assert run_cli(["run", str(path), "--algos", "fc", "--csv", str(csv_path)])[0] == 0
    (row,) = rows_from_csv(csv_path.read_text(encoding="utf-8"))
    assert row.n == len(preprocess(data)) == 4


class TestChart:
    def test_one_bar_per_input_and_algorithm(self, tmp_path):
        (tmp_path / "a").write_bytes(b"abcabcaab")
        csv_path, svg_path = tmp_path / "out.csv", tmp_path / "out.svg"
        argv = ["run", str(tmp_path / "a"), "--demo", "--algos", "mtf,fc,vfc", "--csv", str(csv_path)]
        assert run_cli(argv)[0] == 0
        code, _, _ = run_cli(["chart", "--from-csv", str(csv_path), "--out", str(svg_path)])
        assert code == 0
        assert svg_path.read_text(encoding="utf-8").count('class="bar"') == 2 * 3

    def test_header_only_csv_is_a_config_error(self, tmp_path):
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text(",".join(CSV_HEADER) + "\n", encoding="utf-8")
        code, _, err = run_cli(["chart", "--from-csv", str(csv_path), "--out", str(tmp_path / "x.svg")])
        assert code == 1
        assert "no rows to chart" in err

    def test_negative_total_is_a_config_error_and_writes_no_svg(self, tmp_path):
        csv_path, svg_path = tmp_path / "neg.csv", tmp_path / "neg.svg"
        csv_path.write_text(",".join(CSV_HEADER) + "\na,1,2,fc,full,-3\n", encoding="utf-8")
        code, _, err = run_cli(["chart", "--from-csv", str(csv_path), "--out", str(svg_path)])
        assert code == 1
        assert "CSV line 2: total_cost '-3'" in err
        assert not svg_path.exists()

    def test_field_over_the_csv_size_limit_is_a_config_error_and_writes_no_svg(self, tmp_path):
        csv_path, svg_path = tmp_path / "long.csv", tmp_path / "long.svg"
        csv_path.write_text(",".join(CSV_HEADER) + "\na,1,2,fc,full,3\n\"" + "x" * 140_000, encoding="utf-8")
        code, _, err = run_cli(["chart", "--from-csv", str(csv_path), "--out", str(svg_path)])
        assert code == 1
        (line,) = err.splitlines()
        assert line.startswith("error: CSV line ")
        assert not svg_path.exists()

    def test_repeated_pair_is_a_config_error_and_writes_no_svg(self, tmp_path):
        csv_path, svg_path = tmp_path / "dup.csv", tmp_path / "dup.svg"
        csv_path.write_text(",".join(CSV_HEADER) + "\na,1,2,fc,full,3\na,1,2,fc,full,5\n", encoding="utf-8")
        code, _, err = run_cli(["chart", "--from-csv", str(csv_path), "--out", str(svg_path)])
        assert code == 1
        assert "CSV line 3: repeated algo 'fc'" in err
        assert not svg_path.exists()


@pytest.mark.parametrize("token", ["100", "-1", "zz"])
@pytest.mark.parametrize("with_file", [False, True])
def test_strip_bytes_must_be_hex_bytes(tmp_path, token, with_file):
    path = tmp_path / "h.txt"
    path.write_bytes(b"hello")
    files = [str(path)] if with_file else []
    code, _, err = run_cli(["run", "--demo", *files, f"--strip-bytes={token}"])
    assert code == 1
    assert "--strip-bytes" in err and repr(token) in err


class TestGenerate:
    def test_non_finite_zipf_exponent_is_a_config_error(self):
        for spec in ("zipf:nan", "zipf:inf"):
            code, _, err = run_cli(["run", "--generate", spec, "--length", "20"])
            assert code == 1
            assert "exponent must be finite" in err

    @pytest.mark.parametrize("spec,value", [("zipf:abc", "abc"), ("runs:8x", "8x"), ("uniform:abc", "abc")])
    def test_unparsable_argument_names_the_option_and_value(self, spec, value):
        code, _, err = run_cli(["run", "--generate", spec, "--length", "20"])
        assert code == 1
        assert "--generate" in err and repr(value) in err


class TestAlgos:
    def test_unknown_name_is_a_config_error_that_lists_the_valid_names(self):
        code, out, err = run_cli(["run", "--demo", "--algos", "mtf,FC"])
        assert (code, out) == (1, "")
        assert "--algos" in err and "'FC'" in err
        assert all(kind.value in err for kind in AlgorithmKind)

    @pytest.mark.parametrize("spec", ["fc,fc", "fc, mtf ,fc", "vfc,vfc"])
    def test_repeated_name_is_a_config_error(self, spec):
        # a repeat would run twice, print its trace block twice and share one column
        code, out, err = run_cli(["run", "--demo", "--algos", spec, "--trace"])
        assert (code, out) == (1, "")
        assert "--algos" in err and repr(spec.split(",")[-1].strip()) in err

    def test_empty_selection_is_a_config_error(self):
        code, out, err = run_cli(["run", "--demo", "--algos", " , "])
        assert (code, out) == (1, "")
        assert "--algos" in err

    def test_names_are_trimmed_and_empty_tokens_skipped(self):
        code, out, _ = run_cli(["run", "--demo", "--algos", " fc,,mtf "])
        assert code == 0
        assert out.splitlines()[0].split()[-4:] == ["fc", "cost", "mtf", "cost"]


class TestRunOptions:
    def test_limit_truncates_every_sequence(self, tmp_path):
        csv_path = tmp_path / "o.csv"
        assert run_cli(["run", "--demo", "--limit", "3", "--csv", str(csv_path)])[0] == 0
        (row,) = rows_from_csv(csv_path.read_text(encoding="utf-8"))
        sequence = DEMO_SEQUENCE[:3]
        reports = [run_algorithm(kind, derive_list(sequence), sequence, CostModel.FULL) for kind in AlgorithmKind]
        expected = {report.label: report.total_cost for report in reports}
        assert (row.n, row.list_size, row.costs) == (3, 2, expected)
        assert expected == {"mtf": 4, "trans": 4, "fc": 5, "vfc[literal]": 4}

    def test_limit_below_one_is_a_config_error(self):
        code, out, err = run_cli(["run", "--demo", "--limit", "0"])
        assert (code, out) == (1, "")
        assert err == "error: --limit must be at least 1\n"

    @pytest.mark.parametrize("list_order,total", [("first-occurrence", 6), ("byte-value", 9)])
    def test_list_order_sets_the_initial_list(self, tmp_path, list_order, total):
        """On ``cba``, first occurrence gives the list c, b, a (1 + 2 + 3);
        byte value gives a, b, c, and each request is then last (3 + 3 + 3)."""
        path, csv_path = tmp_path / "cba.txt", tmp_path / "o.csv"
        path.write_bytes(b"cba")
        argv = ["run", str(path), "--algos", "mtf", "--list-order", list_order, "--csv", str(csv_path)]
        assert run_cli(argv)[0] == 0
        (row,) = rows_from_csv(csv_path.read_text(encoding="utf-8"))
        assert row.costs == {"mtf": total}


# (directory, basename) pairs; "demo" collides with the --demo label, and
# drawing one pair twice gives the same path twice
FILES = st.tuples(st.sampled_from(["d1", "d2"]), st.sampled_from(["x", "y", DEMO_NAME]))


@settings(max_examples=40, deadline=None)
@given(st.lists(FILES, min_size=1, max_size=5), st.booleans())
def test_csv_round_trip_keeps_one_row_per_input(files, demo):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths, sequences = [], []
        for directory, name in files:
            path = root / directory / name
            path.parent.mkdir(exist_ok=True)
            # contents differ between files, so merged rows would show
            path.write_bytes((directory + name).encode() * 3)
            paths.append(str(path))
            sequences.append(preprocess(path.read_bytes()))
        if demo:
            sequences.insert(0, DEMO_SEQUENCE)
        csv_path = root / "out.csv"
        argv = ["run", *paths, "--algos", "mtf,fc", "--csv", str(csv_path)]
        code, _, _ = run_cli(argv + (["--demo"] if demo else []))
        assert code == 0
        text = csv_path.read_text(encoding="utf-8")

    rows = rows_from_csv(text)
    assert rows_to_csv(rows) == text
    assert len({row.file for row in rows}) == len(rows) == len(sequences)
    for row, sequence in zip(rows, sequences):
        initial = derive_list(sequence)
        assert row.costs == {
            kind.value: run_algorithm(kind, initial, sequence, CostModel.FULL).total_cost
            for kind in (AlgorithmKind.MTF, AlgorithmKind.FC)
        }


def test_colliding_basenames_are_labelled_by_path(tmp_path):
    for directory in ("d1", "d2"):
        (tmp_path / directory).mkdir()
        (tmp_path / directory / "x").write_bytes(directory.encode())
    (tmp_path / "d1" / "y").write_bytes(b"yy")
    paths = [str(tmp_path / "d1" / "x"), str(tmp_path / "d2" / "x"), str(tmp_path / "d1" / "y")]
    csv_path = tmp_path / "out.csv"
    code, _, _ = run_cli(["run", *paths, "--algos", "fc", "--csv", str(csv_path)])
    assert code == 0
    rows = rows_from_csv(csv_path.read_text(encoding="utf-8"))
    assert [row.file for row in rows] == [paths[0], paths[1], "y"]
