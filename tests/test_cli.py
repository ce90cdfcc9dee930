import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from listlab import AlgorithmKind, CostModel, derive_list, preprocess, rows_from_csv, rows_to_csv, run_algorithm
from listlab.cli import DEMO_NAME, DEMO_SEQUENCE, main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestGenerate:
    def test_non_finite_zipf_exponent_is_a_config_error(self):
        for spec in ("zipf:nan", "zipf:inf"):
            code, _, err = run_cli(["run", "--generate", spec, "--length", "20"])
            assert code == 1
            assert "exponent must be finite" in err


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
