"""The benchmark's own tests.

    python3 benchmark/selftest.py

* The same seed gives byte-identical inputs.
* Each output check passes on the program's real output and rejects a
  deliberately perturbed copy of it, so no check passes vacuously.
* Each malformed-input check fails on the output the program gave for that
  call when the benchmark was defined (kept here verbatim, so the test stays
  true after the program is fixed).
* The metric names and units in the code match BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import libpass  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from libpass import call_cli  # noqa: E402

ES03 = ["--type", "es", "--level", "0.3"]

# (rc, stdout, stderr) of each malformed-input call at the commit that
# defined the benchmark
TODAY = {
    "dirac-infinity": (0, 'nan\n{"n": 1, "spec": {"level": 0.3, "type": "es"}, '
                          '"tolerance": 0.0, "value": NaN}\n', ""),
    "two-point-nan": (0, 'nan\n{"n": 2, "spec": {"level": 0.3, "type": "es"}, '
                         '"tolerance": 0.0, "value": NaN}\n', ""),
    "atomic-short-entry": (1, "", 'Traceback (most recent call last):\n'
                                  '  File "elicitrisk/cli.py", line 65, in _dist_from_json\n'
                                  "    return FiniteAtomic([a[0] for a in atoms], "
                                  "[a[1] for a in atoms])\n"
                                  "IndexError: list index out of range\n"),
    "atomic-string-weight": (0, '-1\n{"n": 1, "spec": {"level": 0.3, "type": "es"}, '
                                '"tolerance": 0.0, "value": -1.0}\n', ""),
    "nan-panel": (0, "rank  method  mean_score\n   1  m00  0.815245799226\n"
                     "   2  m01  nan\n   3  m02  0.818284159069\n", ""),
}


def digest(paths) -> dict:
    return {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}


def bump(text: str, old: str, new: str) -> str:
    assert old in text, (old, text[:200])
    return text.replace(old, new, 1)


def scale_number(text: str, pattern: str, factor: float) -> str:
    """Multiply the first number matched by `pattern` (one group) by factor."""
    m = re.search(pattern, text)
    assert m, (pattern, text[:200])
    num = float(m.group(1))
    return text[:m.start(1)] + repr(num * factor if num else 1e-6) + text[m.end(1):]


class Inputs(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        runs = []
        for _ in range(2):
            with tempfile.TemporaryDirectory(dir=ROOT) as d:
                d = Path(d)
                files = list(inputs.bulk_data(7, d)["paths"].values())
                files += list(inputs.diagnostics(7, d)["paths"].values())
                files += list(inputs.write_library_files(inputs.library(7, "full"), d).values())
                runs.append(digest(files))
        self.assertEqual(runs[0], runs[1])
        with tempfile.TemporaryDirectory(dir=ROOT) as d:
            other = digest([inputs.bulk_data(8, Path(d))["paths"]["y"]])
        self.assertNotEqual(other["y.csv"], runs[0]["y.csv"])

    def test_library_arrays_repeat(self):
        a, b = inputs.library(3, "full"), inputs.library(3, "full")
        for (s1, l1, w1), (s2, l2, w2) in zip(a["spectral"], b["spectral"]):
            self.assertTrue(np.array_equal(s1, s2) and np.array_equal(l1, l2)
                            and np.array_equal(w1, w2))
        self.assertEqual(a["coherence_seed"], b["coherence_seed"])


class CliChecks(unittest.TestCase):
    """Every CLI check passes on real output and fails on a perturbed copy."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory(dir=ROOT)
        cls.inp = inputs.bulk_data(5, Path(cls.tmp.name), rows=3000, methods=3, periods=400)
        cls.y = np.sort(cls.inp["y"])

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def assert_rejects(self, check, rc, out, err, perturbed_out, *args):
        self.assertIsNone(check(rc, out, err, *args))
        self.assertIsNotNone(check(rc, perturbed_out, err, *args))

    def test_eval_value(self):
        data = str(self.inp["paths"]["y"])
        rc, out, err = call_cli(["eval", *ES03, "--data", data])
        want = -checks.sample_lower_tail_mean(self.y, 0.3)
        self.assert_rejects(checks.eval_value, rc, out, err,
                            scale_number(scale_number(out, r'"value": (\S+)\}', 1 + 1e-7),
                                         r"^(\S+)", 1 + 1e-7), want, len(self.y))
        self.assertIsNotNone(checks.eval_value(rc, bump(out, '"n": 3000', '"n": 2999'), err,
                                               want, len(self.y)))
        rc, out, err = call_cli(["eval", "--type", "var", "--level", "0.01", "--data", data])
        self.assertIsNone(checks.eval_value(rc, out, err, -checks.sample_quantile(self.y, 0.01),
                                            len(self.y)))
        self.assertIsNotNone(checks.eval_value(rc, out, err,
                                               -checks.sample_quantile(self.y, 0.02), len(self.y)))

    def test_eval_expectile(self):
        rc, out, err = call_cli(["eval", "--type", "expectile", "--level", "0.1", "--data",
                                 str(self.inp["paths"]["y"])])
        bad = scale_number(scale_number(out, r'"value": (\S+)\}', 1 + 1e-7), r"^(\S+)", 1 + 1e-7)
        self.assert_rejects(checks.eval_expectile, rc, out, err, bad, self.y, 0.1)

    def test_eval_uniform_uc(self):
        law, C = {"type": "uniform", "a": -1.25, "b": 2.5}, 0.4
        rc, out, err = call_cli(["eval", "--type", "spectral", "--measure",
                                 inputs.dump(checks.uc(C)), "--dist", inputs.dump(law)])
        bad = scale_number(scale_number(out, r'"value": (\S+)\}', 1 + 1e-6), r"^(\S+)", 1 + 1e-6)
        self.assert_rejects(checks.eval_value, rc, out, err, bad,
                            checks.uniform_uc_value(-1.25, 2.5, C), None)

    def test_score_table(self):
        real, fc = self.inp["realizations"], self.inp["forecasts"]
        rc, out, err = call_cli(["score", str(self.inp["paths"]["panel"]), "--expectile", "0.2"])
        means = dict(zip(self.inp["methods"], checks.expectile_score_means(fc, real, 0.2)))
        row = out.splitlines()[2]
        self.assert_rejects(checks.score_table, rc, out, err,
                            out.replace(row, scale_number(row, r"(\S+)$", 1 + 1e-7)), means)
        swapped = out.replace("   1  ", "   9  ", 1)
        self.assertIsNotNone(checks.score_table(rc, swapped, err, means))

    def test_elicit_witness(self):
        spec = {"type": "es", "level": 0.5}
        rc, out, err = call_cli(["elicit", "--type", "es", "--level", "0.5"])
        self.assert_rejects(checks.elicit_report, rc, out, err,
                            scale_number(out, r'"value_at_mixture": ([^,}]+)', 1 + 1e-6),
                            spec, 2, None, True)
        self.assertIsNotNone(checks.elicit_report(
            rc, scale_number(out, r'"target": ([^,}]+)', 1 + 1e-6), err, spec, 2, None, True))

    def test_elicit_uc_witness(self):
        rc, out, err = call_cli(["elicit", *libpass.UC_ARGV])
        self.assert_rejects(checks.elicit_report, rc, out, err,
                            scale_number(out, r'"p1_atoms": \[\[[^,]+, [^]]+\], \[([^,]+)',
                                         1 + 1e-6),
                            libpass.UC_SPEC, 2, 0.5, True)

    def test_elicit_degenerate_and_c_hat(self):
        rc, out, err = call_cli(["elicit", "--type", "var", "--level", "0.3"])
        spec = {"type": "var", "level": 0.3}
        self.assert_rejects(checks.elicit_report, rc, out, err,
                            bump(out, "[0.25, -1.0]", "[0.25, -0.0]"), spec, 2, None, False, True)
        rc, out, err = call_cli(["elicit", "--type", "negmean"])
        self.assert_rejects(checks.elicit_report, rc, out, err,
                            bump(out, '"C_hat": 1.0', '"C_hat": 0.9999999'),
                            {"type": "negmean"}, 0, 1.0)
        self.assertIsNotNone(checks.elicit_report(rc, out, err, {"type": "negmean"}, 2, 1.0))

    def test_figure_rows(self):
        C = 0.37
        rc, out, err = call_cli(["figure", "--C", str(C)])
        row = out.splitlines()[100]
        self.assert_rejects(checks.figure_rows, rc, out, err,
                            out.replace(row, scale_number(row, r",(\S+?),", 1 + 1e-8)), C)
        self.assertIsNotNone(checks.figure_rows(rc, out, err, C + 0.01))
        self.assertIsNotNone(checks.figure_rows(rc, bump(out, "mq_0.8", "mq_0.9"), err, C))

    def test_error_contract(self):
        self.assertIsNone(checks.error_contract(*call_cli(["eval", *ES03, "--dist",
                                                           inputs.CONTROL_LAW])))
        self.assertIsNone(checks.error_contract(1, "", "error: atom values must be finite\n"))
        self.assertIsNotNone(checks.error_contract(1, "", "error: a\nerror: b\n"))
        self.assertIsNotNone(checks.error_contract(2, "", "error: a\n"))


class MalformedToday(unittest.TestCase):
    def test_each_malformed_call_failed_when_defined(self):
        self.assertEqual(set(TODAY) - {"nan-panel"}, set(inputs.MALFORMED_LAWS))
        for name, (rc, out, err) in TODAY.items():
            self.assertIsNotNone(checks.error_contract(rc, out, err), name)


class LibraryChecks(unittest.TestCase):
    def test_coherence(self):
        import elicitrisk as er
        rep = er.coherence_check(er.VaR(0.1), trials=600, seed=0, max_states=16)
        vs = [(v.axiom, v.states_x, v.states_y, v.lhs, v.rhs) for v in rep.violations]
        self.assertTrue(vs)
        self.assertIsNone(checks.coherence("var", 0.1, vs, True))
        a, x, y, lhs, rhs = vs[0]
        self.assertIsNotNone(checks.coherence("var", 0.1, [(a, x, y, lhs * 1.01 + 0.1, rhs)], True))
        self.assertIsNotNone(checks.coherence("var", 0.1, [], True))
        self.assertIsNotNone(checks.coherence("var", 0.1, vs, False))
        rep = er.coherence_check(er.ExpectileRisk(0.75), trials=50, seed=1)
        vs = [(v.axiom, v.states_x, v.states_y, v.lhs, v.rhs) for v in rep.violations]
        self.assertIsNone(checks.coherence("expectile", 0.75, vs, True))
        self.assertIsNotNone(checks.coherence("expectile", 0.25, vs, True))

    def test_spectral_values(self):
        import elicitrisk as er
        sample, levels, weights = inputs.library(1, "probe")["spectral"][0]
        d, m = er.Empirical(sample), er.SpectralMeasure(atoms=zip(levels, weights))
        a, b = er.nu(m, d), er.nu_via_U(m, d)
        s = np.sort(sample)
        self.assertIsNone(checks.spectral_values(s, levels, weights, a, b, -a))
        self.assertIsNotNone(checks.spectral_values(s, levels, weights, a * (1 + 1e-7),
                                                    b * (1 + 1e-7), -a * (1 + 1e-7)))
        self.assertIsNotNone(checks.spectral_values(s, levels, weights, a, b * (1 + 1e-7), -a))
        self.assertIsNotNone(checks.spectral_values(s, levels, weights, a, b, a + 1e-3))

    def test_argmin_and_min_nu(self):
        import elicitrisk as er
        for op in libpass.build_ops(inputs.library(2, "probe"), "probe"):
            result = op.run()
            self.assertIsNone(op.check(result), op.family)
            if op.family == "argmin":
                self.assertIsNotNone(checks.argmin_contains(result.hi + 1e-3, result.hi + 1.0,
                                                            result.lo))
        x, w = np.array([-1.0, 0.5, 2.0]), np.array([0.2, 0.5, 0.3])
        value = er.min_nu_over_mp(er.FiniteAtomic(x, w), 0.5)[1]
        self.assertIsNone(checks.min_nu(value, x, w, 0.5))
        self.assertIsNotNone(checks.min_nu(value + 1e-6, x, w, 0.5))


class Metrics(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         [row[:3] for row in tracing.PER_LAYER])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
