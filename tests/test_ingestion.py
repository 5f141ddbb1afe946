"""CSV readers: the numpy column path against the per-row parser as oracle."""

import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings

from elicitrisk import ForecastSeries, empirical_from_csv
from elicitrisk import distributions

from helpers import loadtxt_labels, panel_csv_texts, sample_csv_texts, write_csv


def outcome(read, path):
    """What a reader gives for a file: its result, or its error text."""
    try:
        return "ok", read(path)
    except (ValueError, csv.Error) as exc:
        return "error", str(exc)


def law_key(d):
    return d._values.tobytes(), d._cum.tobytes()


def panel_key(fs):
    return (fs.periods, fs.methods, fs.forecast_matrix.tobytes(),
            fs.realization_vector().tobytes())


PANEL = ("forecast", "realization"), ("method", "period")


def labels_match_numpy(path) -> bool:
    """Whether the byte scan reads the file's labels; if it does, they must be
    numpy's string reader's: names sorted, each row's code and each name's
    first row."""
    columns = distributions._read_columns(path, *PANEL)
    if columns is None:
        return False
    want = loadtxt_labels(path, PANEL[1])
    assert want is not None
    for (names, codes, first), column in zip(columns[1], want.T.tolist()):
        assert names == sorted(set(column))
        assert [names[c] for c in codes] == column
        assert first.tolist() == [column.index(name) for name in names]
    return True


# the csv module's field limit, 131 072 characters by default
LIMIT = csv.field_size_limit()


# numbers that numpy reads and Python's float does not, or the reverse; a
# quoted comma that shifts numpy's columns; a duplicated header name; a field
# at the csv module's limit, one past it in an unused column, and one past it
# that ends a hundred characters into the reader's second 1 MiB chunk
@example("y\n" + "1" * LIMIT + "\n")
@example("note,y\n" + "x" * (LIMIT + 1) + ",1\n")
@example("note,y\n" + "a,1\n" * ((2**20 - LIMIT) // 4 + 25) + "x" * (LIMIT + 1) + ",1\n")
@example("y\n1.0\x1c\n")
@example("y\n1_0\n")
@example('a,y,b\n"1,2",5,3\n')
@example("y,y\n1,2\n")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=sample_csv_texts())
def test_sample_reader_matches_rows(csv_dir, text):
    path = write_csv(csv_dir, text)
    kind, got = outcome(empirical_from_csv, path)
    want_kind, want = outcome(lambda p: distributions.Empirical(
        distributions._samples_by_rows(p)), path)
    assert kind == want_kind
    assert (law_key(got) == law_key(want)) if kind == "ok" else got == want


# conflicting and signed-zero realizations, an empty label, a duplicate
# cell, a missing cell, method labels at and past the csv module's limit
@example("method,period,forecast,realization\n" + "m" * LIMIT + ",1,0,1\n")
@example("method,period,forecast,realization\n" + "m" * 200_000 + ",1,0,1\n")
@example("method,period,forecast,realization\na,1,0,1\nb,1,0,2\n")
@example("method,period,forecast,realization\na,1,0,-0.0\nb,1,0,0.0\n")
@example("method,period,forecast,realization\na,1,0,1\n ,1,0,1\n")
@example("method,period,forecast,realization\na,1,0,1\na,1,0,1\n")
@example("method,period,forecast,realization\na,1,0,1\nb,2,0,1\n")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=panel_csv_texts())
def test_panel_reader_matches_rows(csv_dir, text):
    path = write_csv(csv_dir, text)
    kind, got = outcome(ForecastSeries.from_csv, path)
    want_kind, want = outcome(ForecastSeries._from_rows, path)
    assert kind == want_kind
    assert (panel_key(got) == panel_key(want)) if kind == "ok" else got == want
    labels_match_numpy(path)


# non-ASCII and padded labels, lone CR and CRLF line ends, blank lines, a last
# line with no line end and an extra column: the byte scan reads each
CLEAN_PANELS = [
    "method,period,forecast,realization\rm\u00e9,\u0663,1,2\r b\t,\t\u0663 ,3,2\r",
    "note,period,method,realization,forecast\r\n,t1 ,a,1,0\r\n\r\nx, t0,a,2,0\r\n,t1,b,1,0\r\n"
    "y,t0,b ,2,0",
    "method,period,forecast,realization\n\nb,2,0,1\n\r\na,2,1,1\r\r\n",
    # labels of 8 and 9 bytes and of several words, a character across a word
    "method,period,forecast,realization\nabcdefgh,1,0,1\nabcdefg\u00e9,1,0,1\n"
    "a long method name of several words,1,0,1\nabcdefghi,1,0,1\n",
]


@pytest.mark.parametrize("text", CLEAN_PANELS)
def test_byte_scan_reads_clean_panels_as_numpy_does(tmp_path, text):
    assert labels_match_numpy(write_csv(tmp_path, text))


def test_labels_sort_as_text_where_their_bytes_do_not():
    # in cp1252 the byte 0x80 is U+20AC, above the U+00E9 of 0xe9; 0xa0 is a
    # space that strips away, so " x" and "x" are one label
    cells = np.array([b"\x80", b"\xe9", b"\xa0x", b"x", b"\xe9"], dtype="S8")
    names, codes, first = distributions._factorise(cells, "cp1252")
    assert names == ["x", "\u00e9", "\u20ac"]
    assert codes.tolist() == [2, 1, 0, 0, 1]
    assert first.tolist() == [2, 1, 0]


def test_a_label_column_too_wide_for_the_file_is_read_by_rows(tmp_path, monkeypatch):
    # 40 rows at the 60-byte width of one label outgrow the 1.5 kB file once
    # the bound is not raised to a 1 MiB piece
    text = "method,period,forecast,realization\n" + "".join(
        f"{m},{t},0,1\n" for m in ("a", "b" * 60) for t in range(20))
    path = write_csv(tmp_path, text)
    assert labels_match_numpy(path)
    monkeypatch.setattr(distributions, "_PIECE", 64)
    assert distributions._read_columns(path, *PANEL) is None
    assert panel_key(ForecastSeries.from_csv(path)) == panel_key(ForecastSeries._from_rows(path))


def test_pieces_cut_anywhere_read_as_one(tmp_path, monkeypatch):
    # line ends of every kind, blank lines among them, cut after every byte
    # offset: a CRLF is never split, and every piece gives the same columns
    ends = ["\n", "\r\n", "\r", "\r\n\r\n", "\n\r", "\r\r\n"]
    rows = [f"{'mé'[:1 + i % 2]},{' ' * (i % 3)}p{i % 7},{i},{i % 7}" for i in range(60)]
    text = "method,period,forecast,realization\n" + "".join(
        row + ends[i % len(ends)] for i, row in enumerate(rows))
    path = write_csv(tmp_path, text[:-1])
    whole = distributions._read_columns(path, *PANEL)
    assert labels_match_numpy(path)
    for piece in range(40, 72):
        monkeypatch.setattr(distributions, "_PIECE", piece)
        values, labels = distributions._read_columns(path, *PANEL)
        assert values.tobytes() == whole[0].tobytes()
        for (names, codes, first), (want_names, want_codes, want_first) in zip(labels, whole[1]):
            assert names == want_names
            assert codes.tolist() == want_codes.tolist() and first.tolist() == want_first.tolist()


# line ends CRLF, lone CR and mixed, blank and whitespace-only lines, a byte
# order mark, duplicate header names, ragged rows, no trailing newline
EDGE_FILES = ["y\r\n1\r\n2.5\r\n", "y\r1\r2.5\r", "y\r\n1\r2\n3\r\n", "y\n1\n\n2\n",
              "y\n1\n   \n2\n", "\ufeffy\n1\n2\n", "\ufeffx,y\n0,1\n0,2\n", "y,y\n1,2\n3,4\n",
              "x,y\n1,2\n3\n", "x,y\n1,2,3\n4,5\n", "y\n1\n2", "note,y\r\nx, 1.5\r\n\r\ny,-0.0\r\n"]


@pytest.mark.parametrize("text", EDGE_FILES)
def test_numpy_path_and_row_reader_agree_on_edge_files(tmp_path, text):
    path = write_csv(tmp_path, text)
    columns = distributions._read_columns(path, ["y"])
    kind, rows = outcome(distributions._samples_by_rows, path)
    if columns is not None:
        assert kind == "ok"
        assert columns[0][:, 0].tobytes() == np.array(rows).tobytes()
    panel = write_csv(tmp_path, text.replace("y", "method,period,forecast,realization", 1)
                      .replace("1", "a,t,0,1").replace("2", "b,t,0,2"))
    kind, got = outcome(ForecastSeries.from_csv, panel)
    want_kind, want = outcome(ForecastSeries._from_rows, panel)
    assert kind == want_kind
    assert (panel_key(got) == panel_key(want)) if kind == "ok" else got == want
    labels_match_numpy(panel)


def test_a_path_numpy_would_decompress_is_read_by_rows(tmp_path):
    # numpy opens a path ending in .gz as gzip; this one is plain text
    path = tmp_path / "sample.csv.gz"
    path.write_text("y\n1\n2\n")
    assert distributions._read_columns(path, ["y"]) is None
    assert empirical_from_csv(path).atoms() == [(1.0, 0.5), (2.0, 0.5)]


def _no_rows(*args):
    raise AssertionError("the per-row parser ran on a clean file")


def test_clean_files_skip_the_row_parser(tmp_path, monkeypatch):
    monkeypatch.setattr(distributions, "_samples_by_rows", _no_rows)
    monkeypatch.setattr(ForecastSeries, "_from_rows", classmethod(_no_rows))
    y = write_csv(tmp_path, "note,y\r\nx, 1.5\r\n\r\ny,-0.0\r\nz,2e3\r\n")
    assert [v for v, _ in empirical_from_csv(y).atoms()] == [-0.0, 1.5, 2000.0]
    panel = write_csv(tmp_path, "realization,period,method,forecast\n"
                            "1.0, t2 ,b,0.5\n2.0,t1,b,0.25\n1.0,t2, a,7\n2.0,t1,a ,-1\n")
    fs = ForecastSeries.from_csv(panel)
    assert fs.periods == ["t2", "t1"]
    assert fs.methods == ["a", "b"]
    assert fs.forecast_matrix.tolist() == [[7.0, -1.0], [0.5, 0.25]]
    assert fs.realization_vector().tolist() == [1.0, 2.0]
    # non-ASCII labels, labels padded with tabs and spaces, lone CR line ends
    # and no final line end
    for end, last in (("\r", "\r"), ("\n", "")):
        panel = write_csv(tmp_path, end.join([
            "method,period,forecast,realization", "m\u00e9,\u0663,1,2", " b\t,\t\u0663 ,3,2",
            "m\u00e9,t1,4,5", "\tb ,  t1,6,5"]) + last)
        fs = ForecastSeries.from_csv(panel)
        assert fs.periods == ["\u0663", "t1"]
        assert fs.methods == ["b", "m\u00e9"]
        assert fs.forecast_matrix.tolist() == [[3.0, 6.0], [1.0, 4.0]]
        assert fs.realization_vector().tolist() == [2.0, 5.0]


def test_the_panel_reader_peaks_below_a_multiple_of_the_file(tmp_path, monkeypatch):
    # 1e5 rows of the form the benchmark writes; the parse must not fall back
    monkeypatch.setattr(ForecastSeries, "_from_rows", classmethod(_no_rows))
    rng = np.random.default_rng(8)
    y = rng.standard_t(4, 20_000).tolist()
    lines = [f"m{k:02d},{t},{x!r},{v!r}" for k in range(5)
             for t, x, v in zip(range(1, 20_001), rng.normal(size=20_000).tolist(), y)]
    path = write_csv(tmp_path, "\n".join(["method,period,forecast,realization", *lines]) + "\n")
    tracemalloc.start()
    try:
        ForecastSeries.from_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * path.stat().st_size
