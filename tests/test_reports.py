import csv
import io
from fractions import Fraction

import numpy as np
import pytest

from matprng.reports import fmt_cell, render_csv


def csv_writer_reference(header, rows) -> str:
    """csv.writer over fmt_cell cells: the renderer for every table."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt_cell(x) for x in row])
    return buf.getvalue()


class TestIntegerArrays:
    @pytest.mark.parametrize("rows", [0, 1, 7])
    def test_int64(self, rows):
        table = np.arange(rows * 3, dtype=np.int64).reshape(rows, 3) * 10**15 - 5
        header = ("n", "u0", "u1")
        assert render_csv(header, table) == csv_writer_reference(header, table.tolist())

    def test_exact_ints(self):
        cells = [[0, 3**80, 2**64], [1, 2**63 - 1, 0], [2, 255, 10**30]]
        table = np.array(cells, dtype=object)
        assert render_csv(("n", "a", "b"), table) == csv_writer_reference(("n", "a", "b"), cells)

    @pytest.mark.parametrize("dtype", [np.int64, object])
    @pytest.mark.parametrize("columns", [1, 3])
    def test_extreme_values(self, dtype, columns):
        cells = [0, 2**63 - 1, -(2**63), 2**64 + 1, -(2**64 + 1), 7]
        if dtype is np.int64:
            cells = [x for x in cells if -(2**63) <= x < 2**63]
        rows = [[x] * columns for x in cells]
        table = np.array(rows, dtype=dtype)
        header = tuple(f"c{j}" for j in range(columns))
        assert render_csv(header, table) == csv_writer_reference(header, rows)
        # a block: the same rows without the header
        assert render_csv((), table) == render_csv(header, table).split("\n", 1)[1]

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_empty_block(self, dtype):
        table = np.empty((0, 3), dtype=dtype)
        assert render_csv((), table) == ""
        assert render_csv(("n", "a", "b"), table) == "n,a,b\n"

    def test_single_column(self):
        table = np.array([[5], [0], [2**70]], dtype=object)
        assert render_csv(("x",), table) == "x\n5\n0\n1180591620717411303424\n"


class TestRowTables:
    def test_mixed_cells_unchanged(self):
        header = ("N", "kind", "exact", "value", "ok", "empty", "note")
        rows = [
            (24, "extreme", Fraction(761, 6561), 0.125, True, None, "a,b"),
            (216, "star", Fraction(1, 3), 1e-20, False, "", 'say "hi"'),
        ]
        assert render_csv(header, rows) == csv_writer_reference(header, rows)

    def test_int_rows_as_tuples(self):
        rows = [(1, 8), (2, 24), (3, 72)]
        assert render_csv(("s", "tau_s"), rows) == "s,tau_s\n1,8\n2,24\n3,72\n"
