import xml.etree.ElementTree as ET

import pytest

from listlab import (
    ComparisonRow,
    CostModel,
    EmptyReport,
    format_table,
    render_bar_chart,
    rows_from_csv,
    rows_to_csv,
)


def sample_rows():
    return [
        ComparisonRow("alpha.txt", 1200, 30, CostModel.FULL, {"fc": 5400, "vfc": 4100}),
        ComparisonRow("beta.txt", 900, 25, CostModel.FULL, {"fc": 3300, "vfc": 3300}),
    ]


def mixed_rows():
    """Two inputs whose CSV lines name different algorithms."""
    header = "file,n,list_size,algo,cost_model,total_cost"
    return rows_from_csv(f"{header}\na,1,2,fc,full,3\nb,1,2,mtf,full,4\n")


def bars(svg):
    return [
        (part.split('data-file="')[1].split('"')[0], part.split('data-algo="')[1].split('"')[0])
        for part in svg.splitlines()
        if 'class="bar"' in part
    ]


class TestCsv:
    def test_header_and_shape(self):
        lines = rows_to_csv(sample_rows()).splitlines()
        assert lines[0] == "file,n,list_size,algo,cost_model,total_cost"
        assert len(lines) == 1 + 4

    def test_round_trip(self):
        rows = sample_rows()
        assert rows_from_csv(rows_to_csv(rows)) == rows

    def test_round_trip_preserves_algo_order(self):
        rows = [ComparisonRow("x", 3, 2, CostModel.PARTIAL, {"vfc": 3, "mtf": 4, "fc": 5})]
        parsed = rows_from_csv(rows_to_csv(rows))
        assert list(parsed[0].costs) == ["vfc", "mtf", "fc"]

    def test_uses_lf_endings(self):
        text = rows_to_csv(sample_rows())
        assert "\r" not in text
        assert text.endswith("\n")

    def test_deterministic(self):
        assert rows_to_csv(sample_rows()) == rows_to_csv(sample_rows())

    def test_rejects_foreign_header(self):
        with pytest.raises(ValueError):
            rows_from_csv("a,b,c\n1,2,3\n")

    def test_rejects_empty_document(self):
        with pytest.raises(ValueError):
            rows_from_csv("")

    @pytest.mark.parametrize("fields", [3, 7])
    def test_rejects_wrong_field_count_with_line_number(self, fields):
        lines = rows_to_csv(sample_rows()).splitlines()
        lines.insert(2, ",".join(["1"] * fields))
        with pytest.raises(ValueError, match=f"CSV line 3 has {fields} fields, expected 6"):
            rows_from_csv("\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "row,message",
        [
            ("a,-1,2,fc,full,3", "n '-1' is not a non-negative integer"),
            ("a,1,-2,fc,full,3", "list_size '-2' is not a non-negative integer"),
            ("a,1,2,fc,full,-3", "total_cost '-3' is not a non-negative integer"),
            ("a,x,2,fc,full,3", "n 'x' is not a non-negative integer"),
            ("a,1,2.5,fc,full,3", "list_size '2.5' is not a non-negative integer"),
            ("a,1,2,fc,full,", "total_cost '' is not a non-negative integer"),
            ("a,1,2,fc,bogus,3", "'bogus' is not a valid CostModel"),
        ],
        ids=["negative-n", "negative-list-size", "negative-total", "text-n", "float-list-size", "empty-total", "model"],
    )
    def test_rejects_bad_field_with_line_number(self, row, message):
        lines = rows_to_csv(sample_rows()).splitlines()
        lines.insert(2, row)
        with pytest.raises(ValueError) as exc:
            rows_from_csv("\n".join(lines) + "\n")
        assert str(exc.value) == f"CSV line 3: {message}"

    def test_zero_counts_parse(self):
        rows = [ComparisonRow("empty", 0, 0, CostModel.FULL, {"fc": 0})]
        assert rows_from_csv(rows_to_csv(rows)) == rows

    def test_rejects_repeated_algo_within_an_input(self):
        text = "file,n,list_size,algo,cost_model,total_cost\na,1,2,fc,full,3\na,1,2,fc,full,5\n"
        with pytest.raises(ValueError) as exc:
            rows_from_csv(text)
        assert str(exc.value) == "CSV line 3: repeated algo 'fc' for file 'a'"

    @pytest.mark.parametrize("at", [1, 3], ids=["header", "row"])
    def test_field_over_the_csv_size_limit_is_a_value_error_with_line_number(self, at):
        """An unterminated quote runs on to the end of the document; once
        that passes ``csv.field_size_limit()`` the reader raises ``csv.Error``."""
        lines = rows_to_csv(sample_rows()).splitlines()[: at - 1]
        with pytest.raises(ValueError) as exc:
            rows_from_csv("\n".join([*lines, '"' + "x" * 140_000]) + "\n")
        assert str(exc.value).startswith(f"CSV line {at}: field larger than field limit")


class TestTable:
    def test_contains_all_costs(self):
        table = format_table(sample_rows())
        for needle in ("alpha.txt", "beta.txt", "5400", "4100", "3300"):
            assert needle in table

    def test_one_line_per_row_plus_header(self):
        assert len(format_table(sample_rows()).splitlines()) == 2 + 2

    def test_columns_cover_every_row(self):
        header, _, first, second = format_table(mixed_rows()).splitlines()
        assert header.split() == ["file", "requests", "list", "size", "fc", "cost", "mtf", "cost"]
        assert first.split() == ["a", "1", "2", "3", "-"]
        assert second.split() == ["b", "1", "2", "-", "4"]


class TestChart:
    def test_one_bar_per_row_and_algorithm(self):
        svg = render_bar_chart(sample_rows())
        assert svg.count('class="bar"') == 4
        assert svg.startswith("<?xml")
        assert svg.rstrip().endswith("</svg>")

    def test_equal_costs_make_equal_bars(self):
        svg = render_bar_chart(sample_rows())
        heights = {}
        for part in svg.splitlines():
            if 'data-file="beta.txt"' in part:
                height = part.split('height="')[1].split('"')[0]
                heights[part.split('data-algo="')[1].split('"')[0]] = height
        assert heights["fc"] == heights["vfc"]

    def test_axis_and_legend_labels(self):
        svg = render_bar_chart(sample_rows())
        assert "total access cost" in svg
        assert ">fc<" in svg and ">vfc<" in svg

    def test_deterministic(self):
        assert render_bar_chart(sample_rows()) == render_bar_chart(sample_rows())

    def test_empty_report(self):
        with pytest.raises(EmptyReport):
            render_bar_chart([])

    def test_escapes_markup_in_names(self):
        rows = [ComparisonRow("a<b>.txt", 5, 2, CostModel.FULL, {"fc": 7})]
        svg = render_bar_chart(rows)
        assert "a<b>" not in svg
        assert "a&lt;b&gt;" in svg

    @pytest.mark.parametrize("name", ['a"b', "a&b", "a<b", "a>b", '"&<>'])
    def test_attributes_round_trip_any_label(self, name):
        rows = [ComparisonRow(name, 5, 2, CostModel.FULL, {name: 7, "fc": 3})]
        root = ET.fromstring(render_bar_chart(rows))
        found = [(r.get("data-file"), r.get("data-algo")) for r in root.iter("{http://www.w3.org/2000/svg}rect")]
        assert [bar for bar in found if bar != (None, None)] == [(name, name), (name, "fc")]
        labels = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert labels.count(name) == 2  # under its bar group and in the legend

    def test_bars_cover_every_row_and_skip_missing_totals(self):
        svg = render_bar_chart(mixed_rows())
        assert bars(svg) == [("a", "fc"), ("b", "mtf")]
        assert ">fc<" in svg and ">mtf<" in svg

    def test_zero_cost_rows_render(self):
        rows = [ComparisonRow("empty", 0, 1, CostModel.FULL, {"fc": 0, "vfc": 0})]
        assert render_bar_chart(rows).count('class="bar"') == 2
