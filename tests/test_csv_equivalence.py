"""The CSV reader and writer against the row-at-a-time code they replaced,
kept in oracles.py.

The reader must return the same arrays bit for bit, or raise the same
exception with the same message, on any file: quoted cells, blank lines,
wrong cell counts, bad or non-finite cells and every line ending, on
either of its paths (numpy's reader or the row-by-row fallback). The
writer must write the same bytes.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tcmicro import (
    AnonymizedTable,
    AttributeSpec,
    Role,
    Table,
    dataset,
    load_anonymized_csv,
    write_csv,
)
from oracles import rowwise_read_csv, rowwise_write_csv

SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

ROLES = [
    AttributeSpec("a", Role.QUASI_IDENTIFIER),
    AttributeSpec("b", Role.QUASI_IDENTIFIER),
    AttributeSpec("c", Role.CONFIDENTIAL),
]

# _read_csv's arguments for load_csv, load_csv(drop_missing=True) and
# load_anonymized_csv
MODES = {
    "load_csv": ((), False),
    "load_csv-drop": ((), True),
    "load_anonymized_csv": (("cluster_id",), False),
}


def outcome(reader, path, mode):
    """What a reader gives on a file: the arrays' dtypes, shapes and bytes,
    or the exception's type and message."""
    trailing, drop_missing = MODES[mode]
    try:
        specs, cells, ids = reader(path, ROLES, trailing, drop_missing)
    except Exception as exc:
        return type(exc), str(exc)
    return specs, cells.dtype, cells.shape, cells.tobytes(), ids.dtype, ids.shape, ids.tobytes()


def header(mode):
    return ",".join(["a", "b", "c", *MODES[mode][0]])


def assert_same_read(path, mode):
    expected = outcome(rowwise_read_csv, path, mode)
    assert outcome(dataset._read_csv, path, mode) == expected
    return expected


numbers = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
junk = st.one_of(
    st.text("0123456789.e-_ \x1c\x00", max_size=6),
    st.sampled_from(["nan", "inf", "-inf", "", " 7 ", '"', '"5"', '"1\n2"', '"3\r\n4"',
                     "99999999999999999999"]),
)
# one cell in ten is junk, so most files hold good blocks as well as bad ones
cells = st.integers(0, 9).flatmap(lambda i: junk if i == 0 else numbers)


@st.composite
def bodies(draw, ncol):
    """A file body of lines of mostly ncol cells, with blank lines, lines of
    only commas and short or long lines, each ending in LF, CRLF or a lone
    CR, and the last one possibly unterminated."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 12 + ["blank", "commas", "short", "long"]))
        if kind == "blank":
            line = ""
        elif kind == "commas":
            line = "," * draw(st.integers(1, ncol))
        else:
            count = ncol + {"row": 0, "short": -1, "long": 1}[kind]
            line = ",".join(draw(st.lists(cells, min_size=count, max_size=count)))
        lines.append(line + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines)


@SETTINGS
@given(st.sampled_from(list(MODES)), st.data())
def test_reader_matches_rowwise_reader(tmp_path, mode, data):
    ncol = len(header(mode).split(","))
    text = header(mode) + "\r\n" + data.draw(bodies(ncol))
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_same_read(path, mode)


def long_file(mode, n=2100):
    """n good rows, numbered from 1."""
    rng = np.random.default_rng(5)
    rows = [",".join(map(repr, rng.normal(size=3).tolist())) for _ in range(n)]
    if MODES[mode][0]:
        rows = [f"{row},{i % 7}" for i, row in enumerate(rows)]
    return rows


def write_rows(tmp_path, mode, rows):
    path = tmp_path / "data.csv"
    path.write_text(header(mode) + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


DEFECTS = {
    "bad-cell": lambda row: row.replace(",", ",x", 1),
    "non-finite": lambda row: "nan" + row[row.index(","):],
    "quote": lambda row: '"' + row.replace(",", '",', 1),
    # a good row spread over two physical lines
    "quoted-newline": lambda row: '"' + row.replace(",", '\n",', 1),
    "blank-line": lambda row: "",
    "wrong-count": lambda row: row + ",1",
    "oversized-last-cell": lambda row: row.rpartition(",")[0] + ",99999999999999999999",
}


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("row_no", [1023, 1024, 1025, 1026])
@pytest.mark.parametrize("defect", list(DEFECTS))
def test_defect_at_block_boundary(tmp_path, mode, row_no, defect):
    rows = long_file(mode)
    rows[row_no - 1] = DEFECTS[defect](rows[row_no - 1])
    path = write_rows(tmp_path, mode, rows)
    got = assert_same_read(path, mode)
    if defect in ("bad-cell", "wrong-count") and mode != "load_csv-drop":
        assert got[1].startswith(f"row {row_no}")


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("row_no", [1023, 1024, 1025])
def test_cell_moved_to_next_line(tmp_path, mode, row_no):
    # the block's total cell count is right, but two lines have the wrong one
    rows = long_file(mode)
    head, _, last = rows[row_no - 1].rpartition(",")
    rows[row_no - 1], rows[row_no] = head, last + "," + rows[row_no]
    path = write_rows(tmp_path, mode, rows)
    ncol = len(header(mode).split(","))
    expected = f"row {row_no}: expected {ncol} cells, got {ncol - 1}"
    assert assert_same_read(path, mode) == (ValueError, expected)


@pytest.mark.parametrize("mode", list(MODES))
def test_line_over_csv_field_limit(tmp_path, mode):
    # the first prefix makes an infinite cell; the second a finite one that
    # numpy's reader parses, so only the line-length guard sends it to csv's
    # field limit
    for prefix in ("1" + "0" * 131072, "0" * 131073 + "1"):
        rows = long_file(mode, n=3)
        rows[1] = prefix + rows[1]
        path = write_rows(tmp_path, mode, rows)
        assert "field limit" in str(assert_same_read(path, mode)[1])


@pytest.mark.parametrize("rows_hit", [[1], [7, 1500], "all"])
def test_non_finite_rows_dropped_without_a_second_read(tmp_path, monkeypatch, rows_hit):
    # with drop_missing, numpy's reader drops the non-finite rows itself:
    # the row-by-row reader, which only an error needs, is never called
    rows = long_file("load_csv-drop")
    for row_no in range(1, len(rows) + 1) if rows_hit == "all" else rows_hit:
        rows[row_no - 1] = DEFECTS["non-finite"](rows[row_no - 1])
    path = write_rows(tmp_path, "load_csv-drop", rows)
    expected = outcome(rowwise_read_csv, path, "load_csv-drop")

    def not_called(*args):
        raise AssertionError("_read_rows called")

    monkeypatch.setattr(dataset, "_read_rows", not_called)
    assert outcome(dataset._read_csv, path, "load_csv-drop") == expected


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("bad_row, byte_row, quoted", [
    (3, 500, False), (3, 1500, False), (600, 900, False), (1030, 1500, False),
    (3, 500, True), (3, 1500, True),
], ids=["same-chunk", "next-block", "same-block", "second-block", "in-quote", "in-quote-later"])
def test_undecodable_bytes_after_a_bad_row(tmp_path, mode, bad_row, byte_row, quoted):
    # both readers meet the decode error only where csv.reader(fh) asks for
    # the line that holds it, so an earlier bad row is reported instead
    rows = long_file(mode)
    rows[bad_row - 1] = "x" + rows[bad_row - 1]
    head = header(mode) + "\n" + "\n".join(rows[:byte_row]) + "\n" + ('"1\n' if quoted else "")
    path = tmp_path / "data.csv"
    path.write_bytes(head.encode() + b"\xff" + ("\n".join(rows[byte_row:]) + "\n").encode())
    assert_same_read(path, mode)


SPECIAL = np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 2.2250738585072009e-308,
                    1e16, 9999999999999998.0, 1e-05, 0.0001, 9.999999999999999e-05,
                    0.1, -123.456, 1.7976931348623157e308])


def release_table(n, seed):
    """n rows whose QI cells repeat a few centroids drawn from SPECIAL, with
    0.0 and -0.0 in both orders, and normal confidential cells of which a
    tenth repeat one value from SPECIAL; cluster ids include the int64
    extremes."""
    rng = np.random.default_rng(seed)
    centroids = rng.choice(SPECIAL, size=(max(1, n // 4), 2))
    centroids[0], centroids[-1] = [0.0, -0.0], [-0.0, 0.0]
    ids = np.sort(rng.integers(0, len(centroids), size=n))
    ids[0] = 0
    rows = np.column_stack([centroids[ids], rng.normal(scale=1e6, size=n)])
    rows[rng.integers(0, n, size=max(1, n // 10)), 2] = rng.choice(SPECIAL)
    big = np.array([0, 2**63 - 1, -(2**63), 10**18])
    return Table(ROLES, rows), np.where(ids % 3 == 0, big[ids % 4], ids)


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 3000])
@pytest.mark.parametrize("seed", [0, 1])
def test_writer_matches_rowwise_writer(tmp_path, n, seed):
    table, ids = release_table(n, seed)
    for data in (table, AnonymizedTable(table, ids)):
        write_csv(data, tmp_path / "new.csv")
        rowwise_write_csv(data, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    back = load_anonymized_csv(tmp_path / "new.csv", ROLES)
    assert back.table.rows.tobytes() == table.rows.tobytes()
    assert back.cluster_ids.tolist() == ids.tolist()


def test_writer_matches_rowwise_writer_on_few_distinct_values(tmp_path):
    # several blocks of columns with few distinct values, -0.0 next to 0.0:
    # one column converted whole, one whose first 2 * _BLOCK rows are all
    # distinct and the rest few, one all distinct
    n = 3 * dataset._BLOCK + 17
    rng = np.random.default_rng(4)
    few = rng.choice([0.0, -0.0, 1.5, -2.25, 1e-300, 0.1], size=n)
    late = np.concatenate([rng.normal(size=2 * dataset._BLOCK), few[2 * dataset._BLOCK:]])
    table = Table(ROLES, np.column_stack([few, late, rng.normal(size=n)]))
    assert dataset._few_distinct_reprs(table.rows[:, 0]) is not None
    assert dataset._few_distinct_reprs(table.rows[:, 1]) is None
    # few distinct values up front, then many
    assert dataset._few_distinct_reprs(np.concatenate([few, rng.normal(size=n)])) is None
    for data in (table, AnonymizedTable(table, np.arange(n) // 7)):
        write_csv(data, tmp_path / "new.csv")
        rowwise_write_csv(data, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    back = load_anonymized_csv(tmp_path / "new.csv", ROLES)
    assert back.table.rows.tobytes() == table.rows.tobytes()
    assert np.signbit(back.table.rows[:, 0]).tolist() == np.signbit(few).tolist()
