"""The CSV writer's bytes against a cell-by-cell `_fmt` reference."""

import numpy as np
import pytest

from starlab.artifacts import _fmt, write_csv


def reference_csv(header, columns):
    """One `_fmt` call per cell, rows joined in order: the writer's defining form."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(col[i]) for col in columns) for i in range(len(columns[0]))]
    return "\n".join(lines) + "\n"


SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 1e-300, 5e-324, 2.5e-310, 1.0 / 3.0])

TABLES = {
    "mixed": (["fate", "ok", "count", "value"],
              [["bounded", "escapes", "", "a b", "collapse", "x", "y", "z"],
               np.array([True, False] * 4), np.arange(-3, 5, dtype=np.int64), SPECIALS]),
    "floats": (["a", "b", "c"], [SPECIALS, -SPECIALS, np.linspace(-1.0, 1.0, 8)]),
    "float32 and int32": (["f", "i"], [SPECIALS.astype(np.float32), np.arange(8, dtype=np.int32)]),
    "no rows": (["a", "b"], [np.array([]), []]),
}


@pytest.mark.parametrize("table", sorted(TABLES))
def test_write_csv_matches_the_cell_reference(tmp_path, table):
    header, columns = TABLES[table]
    path = write_csv(str(tmp_path / "t.csv"), header, columns)
    with open(path) as fh:
        assert fh.read() == reference_csv(header, columns)
