"""Comparison rows and their CSV / plain-table renderings.

The CSV is long form, one line per (input, algorithm) pair, with header
``file,n,list_size,algo,cost_model,total_cost``, UTF-8, LF line endings.
``algo`` holds the engine label of :class:`~listlab.RunReport`: ``mtf``,
``trans``, ``fc``, ``vfc[literal]`` or ``vfc[strict]``, so the two VFC
policies never share a column. Parsing an emitted document reproduces the
rows exactly. A count that is not a non-negative integer, an unknown cost
model, an input's second total for one algo or a line ``csv`` cannot read
fails with its line number.
"""

import csv
import io
import re

from .listcore import CostModel, _Record

CSV_HEADER = ("file", "n", "list_size", "algo", "cost_model", "total_cost")


class ComparisonRow(_Record):
    """Totals for one input: every selected algorithm's cost on the same
    derived list and request sequence."""

    _fields = ("file", "n", "list_size", "cost_model", "costs")

    def __init__(self, file: str, n: int, list_size: int, cost_model: CostModel, costs: dict[str, int]) -> None:
        self.file, self.n, self.list_size, self.cost_model, self.costs = file, n, list_size, cost_model, costs


def rows_to_csv(rows: list[ComparisonRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        for algo, total in row.costs.items():
            writer.writerow([row.file, row.n, row.list_size, algo, row.cost_model.value, total])
    return buf.getvalue()


def _count(name: str, value: str) -> int:
    if not re.fullmatch("[0-9]+", value):
        raise ValueError(f"{name} {value!r} is not a non-negative integer")
    return int(value)


def rows_from_csv(text: str) -> list[ComparisonRow]:
    reader = csv.reader(io.StringIO(text))
    try:  # each line with the number of the last physical line it spans
        numbered = [(reader.line_num, line) for line in reader]
    except csv.Error as err:  # such as a field longer than csv.field_size_limit()
        raise ValueError(f"CSV line {reader.line_num}: {err}") from None
    if not numbered:
        raise ValueError("empty CSV document")
    header = tuple(numbered[0][1])
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header!r}")
    rows: list[ComparisonRow] = []
    for line_num, line in numbered[1:]:
        if not line:
            continue
        if len(line) != len(CSV_HEADER):
            raise ValueError(f"CSV line {line_num} has {len(line)} fields, expected {len(CSV_HEADER)}")
        file, n, list_size, algo, model, total = line
        try:
            key = (file, _count("n", n), _count("list_size", list_size), CostModel(model))
            cost = _count("total_cost", total)
        except ValueError as err:
            raise ValueError(f"CSV line {line_num}: {err}") from None
        if not rows or (rows[-1].file, rows[-1].n, rows[-1].list_size, rows[-1].cost_model) != key:
            rows.append(ComparisonRow(*key, {}))
        elif algo in rows[-1].costs:
            raise ValueError(f"CSV line {line_num}: repeated algo {algo!r} for file {file!r}")
        rows[-1].costs[algo] = cost
    return rows


def algo_labels(rows: list[ComparisonRow]) -> list[str]:
    """Every algo any row has a total for, in first-seen order."""
    return list(dict.fromkeys(algo for row in rows for algo in row.costs))


def format_table(rows: list[ComparisonRow]) -> str:
    """Wide human-readable table: one line per input, one cost column per
    algorithm."""
    if not rows:
        return "(no rows)\n"
    algos = algo_labels(rows)
    headers = ["file", "requests", "list size"] + [f"{a} cost" for a in algos]
    table = [headers]
    for row in rows:
        table.append(
            [row.file, str(row.n), str(row.list_size)]
            + [str(row.costs.get(a, "-")) for a in algos]
        )
    widths = [max(len(line[i]) for line in table) for i in range(len(headers))]
    out = []
    for idx, line in enumerate(table):
        cells = [line[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(line[1:], widths[1:])]
        out.append("  ".join(cells).rstrip())
        if idx == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out) + "\n"
