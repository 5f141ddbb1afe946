"""CSV readers: the numpy column path against the per-row parser as oracle."""

import csv

import numpy as np
import pytest
from hypothesis import example, given, settings

from elicitrisk import ForecastSeries, empirical_from_csv
from elicitrisk import distributions

from helpers import panel_csv_texts, sample_csv_texts, write_csv


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
