"""End-to-end command-line behavior: output text, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import elicitrisk
from elicitrisk import (Empirical, SpectralMeasure, es, interval_mass, measure_to_json,
                        uc_measure)
from elicitrisk.cli import _csv_table, _fmt, main
from helpers import figure_text_oracle, per_value_csv_table

EVAL_ARGV = ["eval", "--type", "negmean", "--dist", '{"type": "dirac", "at": 0.0}']


def run_cli(argv):
    """Return the exit code whether main returns it or argparse raises it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


class TestEval:
    def test_negmean_on_dirac(self, capsys):
        code = run_cli(["eval", "--type", "negmean",
                        "--dist", '{"type": "dirac", "at": 2.0}'])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "-2"
        report = json.loads(out[1])
        assert report["value"] == -2.0
        assert report["spec"] == {"type": "negmean"}
        assert report["n"] == 1
        assert report["tolerance"] == 0.0

    def test_expectile_constant_law(self, capsys):
        code = run_cli(["eval", "--type", "expectile", "--level", "0.3",
                        "--dist", '{"type": "dirac", "at": 1.5}'])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "-1.5"
        assert json.loads(out[1])["tolerance"] == 0.0

    def test_an_atom_of_vanishing_weight_is_not_counted(self, capsys):
        code = run_cli(["eval", "--type", "es", "--level", "0.3", "--dist",
                        '{"type":"atomic","atoms":[[0,0.5],[1,1e-17],[2,0.5]]}'])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "0"
        assert json.loads(out[1])["n"] == 2

    def test_weights_summing_past_one_leave_no_negative_atom(self, capsys):
        # the cumulative weight reaches 1 at the second atom: the third is dropped
        code = run_cli(["eval", "--type", "var", "--level", "0.9999999999999", "--dist",
                        '{"type":"atomic","atoms":[[0,0.5],[1,0.5000000000005],[2,1e-14]]}'])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "-1"
        assert json.loads(out[1])["n"] == 2

    def test_es_from_csv_matches_library(self, capsys, tmp_path):
        f = tmp_path / "obs.csv"
        f.write_text("y\n-1.5\n2.0\n0.5\n3.5\n")
        code = run_cli(["eval", "--type", "es", "--level", "0.25",
                        "--data", str(f)])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        want = es(Empirical([-1.5, 2.0, 0.5, 3.5]), 0.25)
        assert float(out[0]) == pytest.approx(want, abs=1e-12)
        assert json.loads(out[1])["n"] == 4

    def test_inline_law_variants(self, capsys):
        for dist in ('{"type": "two_point", "x1": 0.0, "x2": 1.0, "p": 0.5}',
                     '{"type": "atomic", "atoms": [[-1.0, 0.5], [3.0, 0.5]]}',
                     '{"type": "uniform", "a": 0.0, "b": 1.0}'):
            assert run_cli(["eval", "--type", "var", "--level", "0.5",
                            "--dist", dist]) == 0
            capsys.readouterr()

    def test_quadrature_tolerance_reported(self, capsys):
        measure = json.dumps(measure_to_json(uc_measure(0.4)))
        code = run_cli(["eval", "--type", "spectral", "--measure", measure,
                        "--dist", '{"type": "uniform", "a": 0.0, "b": 1.0}'])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        # the uniform x density path is a closed form, so nothing is approximated
        assert json.loads(out[1])["tolerance"] == 0.0
        # same measure on an atomic law goes through exact arithmetic too
        run_cli(["eval", "--type", "spectral", "--measure", measure,
                 "--dist", '{"type": "dirac", "at": 1.0}'])
        out = capsys.readouterr().out.splitlines()
        assert json.loads(out[1])["tolerance"] == 0.0

    def test_spec_echo_round_trips(self, capsys):
        dist = '{"type": "two_point", "x1": -1.0, "x2": 2.0, "p": 0.4}'
        run_cli(["eval", "--type", "var", "--level", "0.3", "--dist", dist])
        first = capsys.readouterr().out.splitlines()
        spec = json.dumps(json.loads(first[1])["spec"])
        run_cli(["eval", "--spec", spec, "--dist", dist])
        second = capsys.readouterr().out.splitlines()
        assert second[0] == first[0]

    def test_negative_zero_never_printed(self, capsys):
        code = run_cli(["eval", "--type", "var", "--level", "0.5",
                        "--dist", '{"type": "dirac", "at": 0.0}'])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "0"
        assert json.loads(out[1])["value"] == 0.0

    def test_errors_exit_one(self, capsys, tmp_path):
        f = tmp_path / "obs.csv"
        f.write_text("y\n1.0\n")
        # a quoted field past the csv module's field size limit
        huge = tmp_path / "huge.csv"
        huge.write_text('y,note\n1.0,"' + "x" * 200_000 + '"\n')
        bad_calls = [
            # both and neither data source
            ["eval", "--type", "negmean", "--data", str(f),
             "--dist", '{"type": "dirac", "at": 0.0}'],
            ["eval", "--type", "negmean"],
            # spec excludes the piecemeal flags
            ["eval", "--spec", '{"type": "negmean"}', "--type", "negmean",
             "--dist", '{"type": "dirac", "at": 0.0}'],
            # malformed or unknown laws
            ["eval", "--type", "negmean", "--dist", "{not json"],
            ["eval", "--type", "negmean", "--dist", '{"type": "gauss", "mu": 0}'],
            ["eval", "--type", "negmean", "--dist",
             '{"type": "dirac", "at": 0.0, "extra": 1}'],
            # functional problems
            ["eval", "--type", "var", "--dist", '{"type": "dirac", "at": 0.0}'],
            ["eval", "--type", "negmean", "--level", "0.5",
             "--dist", '{"type": "dirac", "at": 0.0}'],
            ["eval", "--type", "spectral", "--dist", '{"type": "dirac", "at": 0.0}'],
            # keys the type does not take
            ["eval", "--spec", '{"type": "negmean", "level": 0.3}',
             "--dist", '{"type": "dirac", "at": 0.0}'],
            ["eval", "--spec", '{"type": "var", "level": 0.3, "bogus": 1}',
             "--dist", '{"type": "dirac", "at": 0.0}'],
            ["eval", "--type", "var", "--level", "0.3", "--measure", '{"atoms": [[1, 1]]}',
             "--dist", '{"type": "dirac", "at": 0.0}'],
            ["eval", "--type", "spectral", "--measure",
             '{"atoms": [[1, 0.5]], "density": {"type": "uc", "C": 0.5, "junk": 1}}',
             "--dist", '{"type": "dirac", "at": 0.0}'],
            # missing file
            ["eval", "--type", "negmean", "--data", str(tmp_path / "nope.csv")],
            ["eval", "--type", "negmean", "--data", str(huge)],
        ]
        for argv in bad_calls:
            assert run_cli(argv) == 1, argv
            err = capsys.readouterr().err
            assert "error:" in err

    @pytest.mark.parametrize("law", [
        '{"type": "dirac", "at": Infinity}',
        '{"type": "dirac", "at": NaN}',
        '{"type": "dirac", "at": "1"}',
        '{"type": "two_point", "x1": NaN, "x2": 1, "p": 0.5}',
        '{"type": "two_point", "x1": 0, "x2": -Infinity, "p": 0.5}',
        '{"type": "two_point", "x1": 0, "x2": 1, "p": true}',
        '{"type": "uniform", "a": "0", "b": 1}',
        '{"type": "atomic", "atoms": [[1]]}',
        '{"type": "atomic", "atoms": [[1, 0.5, 0.5]]}',
        '{"type": "atomic", "atoms": [1, 1]}',
        '{"type": "atomic", "atoms": {"1": 1}}',
        '{"type": "atomic", "atoms": [[1, "1"]]}',
        '{"type": "atomic", "atoms": [["1", 1]]}',
        '{"type": "atomic", "atoms": [[true, 1]]}',
        '{"type": "atomic", "atoms": [[1, null]]}',
        '{"type": "atomic", "atoms": [[Infinity, 1]]}',
    ])
    def test_malformed_law_is_one_error_line(self, capsys, law):
        assert run_cli(["eval", "--type", "es", "--level", "0.3", "--dist", law]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_non_finite_result_is_an_error(self, capsys):
        # finite values whose spread overflows a double: no NaN or Infinity
        # reaches stdout, and no numpy warning reaches stderr
        atomic = '{"type": "atomic", "atoms": [[-1.7e308, 0.5], [1.7e308, 0.5]]}'
        spread = "atom values must span a finite range, got "
        cases = [
            (atomic, ["--type", "negmean"], spread + "[-1.7e+308, 1.7e+308]"),
            (atomic, ["--type", "es", "--level", "0.5"], spread + "[-1.7e+308, 1.7e+308]"),
            ('{"type": "two_point", "x1": -1e308, "x2": 1e308, "p": 0.5}',
             ["--type", "expectile", "--level", "0.5"], spread + "[-1e+308, 1e+308]"),
            ('{"type": "uniform", "a": -1.7e308, "b": 1.7e308}', ["--type", "es", "--level", "0.5"],
             "uniform law needs finite a < b with a finite b - a, got [-1.7e+308, 1.7e+308]"),
        ]
        for law, flags, message in cases:
            assert run_cli(["eval", *flags, "--dist", law]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: {message}\n"

    def test_unknown_type_rejected_by_parser(self, capsys):
        assert run_cli(["eval", "--type", "cvar", "--level", "0.5",
                        "--dist", '{"type": "dirac", "at": 0.0}']) == 1
        capsys.readouterr()


SCORE_CSV = (
    "method,period,forecast,realization\n"
    "alpha,t1,1.2,1.0\n"
    "alpha,t2,2.2,2.0\n"
    "beta,t1,1.0,1.0\n"
    "beta,t2,2.0,2.0\n"
    "gamma,t1,2.7,1.0\n"
    "gamma,t2,0.3,2.0\n"
)


class TestScore:
    def test_table_and_ranks(self, capsys, tmp_path):
        f = tmp_path / "panel.csv"
        f.write_text(SCORE_CSV)
        code = run_cli(["score", str(f), "--quantile", "0.5"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0].split() == ["rank", "method", "mean_score"]
        assert out[1].split() == ["1", "beta", "0"]
        assert out[2].split() == ["2", "alpha", "0.1"]
        assert out[3].split() == ["3", "gamma", "0.85"]

    def test_csv_output_exact(self, capsys, tmp_path):
        f = tmp_path / "panel.csv"
        f.write_text(SCORE_CSV)
        dest = tmp_path / "ranking.csv"
        code = run_cli(["score", str(f), "--quantile", "0.5", "--out", str(dest)])
        capsys.readouterr()
        assert code == 0
        assert dest.read_text() == (
            "method,mean_score,rank\n"
            "beta,0,1\n"
            "alpha,0.1,2\n"
            "gamma,0.85,3\n")

    def test_repeat_runs_byte_identical(self, capsys, tmp_path):
        f = tmp_path / "panel.csv"
        f.write_text(SCORE_CSV)
        run_cli(["score", str(f), "--quantile", "0.25"])
        first = capsys.readouterr().out
        run_cli(["score", str(f), "--quantile", "0.25"])
        assert capsys.readouterr().out == first

    def test_expectile_flag(self, capsys, tmp_path):
        f = tmp_path / "panel.csv"
        f.write_text(SCORE_CSV)
        code = run_cli(["score", str(f), "--expectile", "0.7"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[1].split()[1] == "beta"

    def test_flag_errors(self, capsys, tmp_path):
        f = tmp_path / "panel.csv"
        f.write_text(SCORE_CSV)
        assert run_cli(["score", str(f)]) == 1
        capsys.readouterr()
        assert run_cli(["score", str(f), "--quantile", "0.5",
                        "--expectile", "0.5"]) == 1
        capsys.readouterr()

    def test_non_finite_panel(self, capsys, tmp_path):
        f = tmp_path / "panel.csv"
        f.write_text(SCORE_CSV.replace("beta,t2,2.0,2.0", "beta,t2,nan,2.0"))
        assert run_cli(["score", str(f), "--quantile", "0.5"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: line 5: forecast and realization must be finite\n"

    def test_bad_panel(self, capsys, tmp_path):
        f = tmp_path / "panel.csv"
        f.write_text("method,period,forecast\nalpha,t1,1.0\n")
        assert run_cli(["score", str(f), "--quantile", "0.5"]) == 1
        assert "needs columns" in capsys.readouterr().err


def test_an_undecodable_byte_names_its_line(capsys, tmp_path):
    # the byte lies far past the text decoder's first 8 KiB buffer, after LF,
    # CRLF and lone CR line ends and a blank line, each counted as a line
    head = "method,period,forecast,realization\r\n\nm,0,1,2\rm,00,1,2\n"
    rows = "".join(f"m,{i},0.5,1.5\n" for i in range(1, 2001))
    panel = tmp_path / "panel.csv"
    panel.write_bytes((head + rows).encode() + b"m,\xff,0,1\n")
    assert run_cli(["score", str(panel), "--quantile", "0.5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: line 2005: 'utf-8' codec can't decode byte 0xff: invalid start byte\n"
    sample = tmp_path / "y.csv"
    sample.write_bytes(("y\r\n" + "0.25\r\n" * 3000).encode() + b"1\xc3\n")
    assert run_cli(["eval", "--type", "negmean", "--data", str(sample)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {sample}:3002: 'utf-8' codec can't decode byte 0xc3: "
                   "invalid continuation byte\n")


class TestElicit:
    def test_expectile_consistent(self, capsys):
        code = run_cli(["elicit", "--type", "expectile", "--level",
                        "0.3333333333333333"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "consistent"
        assert report["C_hat"] == pytest.approx(0.5, abs=1e-9)
        assert report["witnesses"] == []
        assert report["margins"]
        assert report["note"] == "no violation found at budget 10000"

    def test_negmean_consistent(self, capsys):
        code = run_cli(["elicit", "--type", "negmean", "--budget", "2000"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["verdict"] == "consistent"
        assert report["C_hat"] == pytest.approx(1.0, abs=1e-9)

    def test_spectral_uc_identified_but_caught_by_mixture_hunt(self, capsys):
        # the density-plus-atom functional reproduces the two-point display
        # exactly, so identification recovers C, yet it is not an expectile
        # and a three-point mixture moves its value: verdict inconsistent
        measure = json.dumps(measure_to_json(uc_measure(0.37)))
        code = run_cli(["elicit", "--type", "spectral", "--measure", measure,
                        "--budget", "3000"])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert report["verdict"] == "inconsistent"
        assert report["C_hat"] == pytest.approx(0.37, abs=1e-9)
        assert report["degenerate"] == []
        assert len(report["witnesses"]) == 1
        kinds = {m["kind"] for m in report["margins"]}
        assert kinds == {"envelope", "spectral"}
        assert all(m["ok"] for m in report["margins"])

    def test_es_tail_level_inconsistent_without_witness(self, capsys):
        # the default grid has a single point under 0.1, and the witness hunt
        # needs two, so the verdict rests on the degenerate identification
        code = run_cli(["elicit", "--type", "es", "--level", "0.1"])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert report["verdict"] == "inconsistent"
        assert report["witnesses"] == []
        assert report["degenerate"]
        assert "note" in report

    def test_es_tail_level_witness_on_finer_grid(self, capsys):
        code = run_cli(["elicit", "--type", "es", "--level", "0.1",
                        "--grid-size", "37"])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert len(report["witnesses"]) == 1
        assert "note" not in report

    def test_es_median_witness(self, capsys):
        code = run_cli(["elicit", "--type", "es", "--level", "0.5"])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        w = report["witnesses"][0]
        assert w["target"] in (-0.5, -1.0, -2.0)
        assert abs(w["value_at_mixture"] - w["target"]) > 1e-8

    def test_deterministic(self, capsys):
        argv = ["elicit", "--type", "es", "--level", "0.5"]
        run_cli(argv)
        first = capsys.readouterr().out
        run_cli(argv)
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("functional", [
        ["--type", "var", "--level", "0.3"], ["--type", "es", "--level", "0.1"],
        ["--type", "es", "--level", "0.5"], ["--type", "expectile", "--level", "0.5"],
        ["--type", "negmean"],
        ["--type", "spectral", "--measure", json.dumps(measure_to_json(uc_measure(0.5)))]])
    def test_negative_zero_never_printed(self, capsys, functional):
        # ES(0.1) has -0.0 among its degenerate values, expectile(0.5) in its margins
        assert run_cli(["elicit", *functional]) in (0, 2)
        out = capsys.readouterr().out
        assert re.search(r"-0\.0(?![0-9e])", out) is None

    def test_expectile_just_below_half_is_consistent(self, capsys):
        # every expectile with tau <= 1/2 lies in the corridor; near C = 1 the
        # density part of u_C once cancelled into a false envelope violation
        code = run_cli(["elicit", "--type", "expectile", "--level", "0.49999999"])
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "consistent" and code == 0
        assert all(m["ok"] for m in report["margins"])

    def test_grid_size_validation(self, capsys):
        assert run_cli(["elicit", "--type", "negmean", "--grid-size", "4"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-9"])
    def test_tolerance_validation(self, capsys, tol):
        # uc(0.5) has a witness; --tol inf made it consistent, --tol nan hid it
        measure = json.dumps(measure_to_json(uc_measure(0.5)))
        assert run_cli(["elicit", "--type", "spectral", "--measure", measure,
                        f"--tol={tol}"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --tol must be finite and positive, got {float(tol)!r}\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "--seed must be non-negative"),
        ("--budget", "0", "--budget must be at least 1"),
        ("--budget", "-3", "--budget must be at least 1")])
    def test_hunt_flag_validation(self, capsys, flag, value, message):
        # these were numpy's "expected non-negative integer" and the library's
        # "search_budget must be positive", which name no flag
        assert run_cli(["elicit", "--type", "es", "--level", "0.5", f"{flag}={value}"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"


class TestFigure:
    def parse(self, text):
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
        return header, rows

    def test_default_curves(self, capsys):
        C = 0.5
        code = run_cli(["figure", "--C", str(C)])
        header, rows = self.parse(capsys.readouterr().out)
        assert code == 0
        assert header == ["p", "uc_integrated", "es_integrated", "mq_0.3", "mq_0.8"]
        assert len(rows) == 512
        assert rows[0] == [0.0, 1.0, 1.0, 1.0, 1.0]
        assert rows[-1] == [1.0, 0.0, 0.0, 0.0, 0.0]
        for row in rows:
            p, uc, esm, m3, m8 = row
            assert uc == pytest.approx(C * (1 - p) / (C + (1 - C) * p), abs=1e-10)
            assert esm == pytest.approx(max(0.0, (C - p) / C), abs=1e-10)
            for q, got in ((0.3, m3), (0.8, m8)):
                z = C + (1 - C) * q
                want = (q - p) / z + C * (1 - q) / z if p <= q else C * (1 - p) / z
                assert got == pytest.approx(want, abs=1e-10)

    def test_two_atom_curves_touch_only_at_their_level(self, capsys):
        run_cli(["figure", "--C", "0.5"])
        header, rows = self.parse(capsys.readouterr().out)
        for col, q in ((3, 0.3), (4, 0.8)):
            touches = [r[0] for r in rows
                       if 0.0 < r[0] < 1.0 and abs(r[col] - r[1]) <= 1e-10]
            assert touches == [q]

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        run_cli(["figure", "--C", "0.3", "--p-list", "0.5"])
        streamed = capsys.readouterr().out
        dest = tmp_path / "curves.csv"
        assert run_cli(["figure", "--C", "0.3", "--p-list", "0.5",
                        "--out", str(dest)]) == 0
        capsys.readouterr()
        assert dest.read_text() == streamed
        header, _ = self.parse(streamed)
        assert header == ["p", "uc_integrated", "es_integrated", "mq_0.5"]

    def test_tiny_c(self, capsys):
        # the smallest C whose measure levels stay normal doubles
        assert run_cli(["figure", "--C", "2.3e-308"]) == 0
        _, rows = self.parse(capsys.readouterr().out)
        assert len(rows) == 512
        assert np.isfinite(rows).all()

    @pytest.mark.parametrize("C", [1e-10, 1e-14])
    def test_small_c_keeps_relative_accuracy(self, capsys, C):
        # at and above its level, a two-atom curve is C (1 - p) / z; p is
        # printed to 12 digits, so 1 - p keeps about 11 where p <= 0.95
        assert run_cli(["figure", "--C", repr(C)]) == 0
        header, rows = self.parse(capsys.readouterr().out)
        for col, q in ((3, 0.3), (4, 0.8)):
            z = q * (1.0 - C) + C
            checked = [r for r in rows if q <= r[0] <= 0.95]
            assert checked[0][0] == q
            for r in checked:
                assert r[col] == pytest.approx(C * (1.0 - r[0]) / z, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("C", [1e-10, 0.2, 0.437, 0.9, 0.999999, 1.0])
    @pytest.mark.parametrize("qs", [(0.3, 0.8), (0.1, 0.25, 0.4, 0.55, 0.7, 0.85)])
    def test_matches_the_row_by_row_oracle(self, capsys, C, qs):
        assert run_cli(["figure", "--C", repr(C), "--p-list", ",".join(map(str, qs))]) == 0
        assert capsys.readouterr().out == figure_text_oracle(C, qs)

    @pytest.mark.parametrize("C", ["1e-10", "0.2", "0.437", "0.999999", "1", "2.3e-308"])
    @pytest.mark.parametrize("p_list", ["0.3,0.8", "1e-16,0.9999999999999999", "1e-300,0.5"])
    def test_matches_the_per_value_formatter(self, capsys, monkeypatch, C, p_list):
        # C = 2.3e-308 prints subnormal values, 1e-16 values near 1e-16
        argv = ["figure", "--C", C, "--p-list", p_list]
        assert run_cli(argv) == 0
        table = capsys.readouterr().out
        monkeypatch.setattr(elicitrisk.cli, "_csv_table", per_value_csv_table)
        assert run_cli(argv) == 0
        assert table == capsys.readouterr().out

    def test_table_formats_as_fmt(self):
        edge = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-16, -1e-16,
                         1e16, 1e16 + 2.0, -1e16, 1e17, 999999999999.5, 123456789012.5, 0.1,
                         1.0 / 3.0, 1.7976931348623157e308, np.nan, np.inf, -np.inf])
        bits = np.random.default_rng(5).integers(0, 2**64, 4000, dtype=np.uint64).view(np.float64)
        bits[np.isnan(bits)] = np.nan  # a signalling NaN would warn in the + 0.0
        for columns in ([edge], [edge, -edge, edge[::-1]], list(bits.reshape(8, 500))):
            assert _csv_table("h", columns) == per_value_csv_table("h", columns)

    def test_one_interval_mass_call_per_column(self, capsys, monkeypatch):
        calls = []

        def counting(m, p1, p2):
            calls.append(np.shape(p1))
            return interval_mass(m, p1, p2)

        monkeypatch.setattr(elicitrisk.cli, "interval_mass", counting)
        for p_list, columns in (("0.3,0.8", 4), ("0.1,0.25,0.4,0.55,0.7,0.85", 8)):
            calls.clear()
            assert run_cli(["figure", "--C", "0.5", "--p-list", p_list]) == 0
            capsys.readouterr()
            assert calls == [(512,)] * columns

    def test_close_levels_each_get_a_row(self, capsys):
        # both levels are nearest to one grid point; the second takes the
        # next nearest one, and each curve still touches at its own level
        C = 0.5
        assert run_cli(["figure", "--C", str(C), "--p-list", "0.3001,0.3002,0.3001"]) == 0
        header, rows = self.parse(capsys.readouterr().out)
        assert header[3:] == ["mq_0.3001", "mq_0.3002", "mq_0.3001"]
        p = [r[0] for r in rows]
        assert len(rows) == 512 and p == sorted(p)
        assert p.count(0.3001) == 1 and p.count(0.3002) == 1
        for col, q in ((3, 0.3001), (4, 0.3002), (5, 0.3001)):
            touches = [r[0] for r in rows if 0.0 < r[0] < 1.0 and abs(r[col] - r[1]) <= 1e-10]
            assert touches == [q]

    def test_as_many_levels_as_rows(self, capsys):
        levels = ",".join(repr(q) for q in np.linspace(0.001, 0.999, 512).tolist())
        assert run_cli(["figure", "--C", "0.5", "--p-list", levels]) == 0
        _, rows = self.parse(capsys.readouterr().out)
        assert [r[0] for r in rows] == [float(_fmt(q)) for q in np.linspace(0.001, 0.999, 512)]
        levels += ",0.9995"
        assert run_cli(["figure", "--C", "0.5", "--p-list", levels]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --p-list has 513 distinct levels, more than the 512 rows\n"

    def test_bad_arguments(self, capsys):
        for argv in (["figure", "--C", "0"],
                     ["figure", "--C", "1.2"],
                     ["figure", "--C", "abc"],
                     ["figure", "--C", "0.5", "--p-list", "1.5"],
                     ["figure", "--C", "0.5", "--p-list", "a,b"],
                     ["figure", "--C", "0.5", "--p-list", ","]):
            assert run_cli(argv) == 1, argv
            capsys.readouterr()


class TestGlobalFlags:
    def test_threads_validation(self, capsys):
        assert run_cli(["--threads", "0", "eval", "--type", "negmean",
                        "--dist", '{"type": "dirac", "at": 0.0}']) == 1
        capsys.readouterr()
        assert run_cli(["--threads", "2", "eval", "--type", "negmean",
                        "--dist", '{"type": "dirac", "at": 0.0}']) == 0
        capsys.readouterr()

    def test_verb_required(self, capsys):
        assert run_cli([]) == 1
        capsys.readouterr()
        assert run_cli(["frobnicate"]) == 1
        capsys.readouterr()

    def test_main_builds_its_parser_once(self, capsys, monkeypatch):
        built = []
        init = elicitrisk.cli._Parser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(elicitrisk.cli._Parser, "__init__", counting)
        elicitrisk.cli._build_parser.cache_clear()
        counts = []
        for argv in (EVAL_ARGV, ["figure", "--C", "0.5"], ["frobnicate"], EVAL_ARGV):
            run_cli(argv)
            capsys.readouterr()
            counts.append(len(built))
        assert counts[0] > 0
        assert counts == counts[:1] * 4

    @pytest.mark.parametrize("argv", [["frobnicate"], ["elicit", "--budget", "x"],
                                      ["--threads", "0", *EVAL_ARGV]])
    def test_usage_error_after_other_verbs(self, capsys, argv):
        elicitrisk.cli._build_parser.cache_clear()
        assert run_cli(argv) == 1
        first = capsys.readouterr()
        assert run_cli(EVAL_ARGV) == 0
        assert run_cli(["figure", "--C", "0.5"]) == 0
        capsys.readouterr()
        assert run_cli(argv) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", first.err)
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1


def test_import_needs_numpy_only():
    # numpy is the one runtime dependency: importing the package and the CLI
    # must not pull in scipy, nor numpy.random, which only coherence_check and
    # the hunt use and which costs a fresh process about 10 ms
    src = str(Path(elicitrisk.__file__).resolve().parents[1])
    code = ("import sys, elicitrisk.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[] False"


def test_elicit_leaves_numpy_ma_unimported():
    # np.median's NaN check imported numpy.ma, about half the time of a process's first elicit
    src = str(Path(elicitrisk.__file__).resolve().parents[1])
    # a consistent spectral functional runs bound_check and spectral_bounds_check too
    measure = json.dumps(measure_to_json(SpectralMeasure(atoms=[(1.0, 1.0)])))
    code = ("import sys; from elicitrisk.cli import main; "
            "codes = [main(['elicit', '--type', 'es', '--level', '0.5']), "
            "main(['elicit', '--type', 'expectile', '--level', '0.25']), "
            f"main(['elicit', '--type', 'spectral', '--measure', {measure!r}])]; "
            "print(codes, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.splitlines()[-1] == "[2, 0, 0] False"
