"""Fuzzers for every parser the command line feeds: inline laws, measures,
functional specs and CSV files.

Every input must end one of two ways: finite numbers on stdout with exit 0
or 2 and nothing on stderr, or exactly one ``error:`` line with exit 1.  An
exception escaping ``main`` is a traceback and fails the test.
"""

import contextlib
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from elicitrisk.cli import main

from helpers import panel_csv_texts, sample_csv_texts, write_csv

FUNCTIONAL_FLAGS = [["--type", "negmean"], ["--type", "var", "--level", "0.3"],
                    ["--type", "es", "--level", "0.5"], ["--type", "expectile", "--level", "0.2"]]
LAW = '{"type": "atomic", "atoms": [[-1.0, 0.25], [0.5, 0.5], [3.0, 0.25]]}'


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def assert_contract(argv):
    code, out, err = run(argv)
    if code == 1:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        return
    assert code in (0, 2) and err == ""
    for line in out.splitlines():
        if line.startswith("{"):
            json.loads(line, parse_constant=_reject_constant)
        elif not line.startswith("rank"):
            # eval's value line and score's table rows end in a number
            assert math.isfinite(float(line.split()[-1]))


def json_numbers():
    return st.one_of(st.integers(-10, 10), st.floats(), st.floats(-2.0, 2.0),
                     st.sampled_from([0, 1, 0.5, 1e308, -1.7e308, 5e-324]))


def json_values():
    scalars = st.one_of(st.none(), st.booleans(), json_numbers(), st.text(max_size=4))
    return st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=2)),
        max_leaves=6)


def pairs(first, second):
    """Lists of [x, w] entries, some of them malformed."""
    entry = st.one_of(st.tuples(first, second).map(list), json_values())
    return st.lists(entry, max_size=4)


def law_objects():
    n, v = json_numbers(), json_values()
    return st.one_of(
        st.fixed_dictionaries({"type": st.just("atomic"), "atoms": pairs(n, n)}),
        st.fixed_dictionaries({"type": st.just("two_point"), "x1": n, "x2": n, "p": n}),
        st.fixed_dictionaries({"type": st.just("uniform"), "a": n, "b": n}),
        st.fixed_dictionaries({"type": st.just("dirac"), "at": n}),
        st.dictionaries(st.sampled_from(["type", "atoms", "at", "a", "b", "x1", "p"]), v),
        v)


def measure_objects():
    n, v = json_numbers(), json_values()
    density = st.one_of(st.none(), st.fixed_dictionaries({"type": st.just("uc"), "C": n}), v)
    return st.one_of(
        st.fixed_dictionaries({}, optional={"atom0": n, "atoms": pairs(n, n), "density": density}),
        st.dictionaries(st.sampled_from(["atom0", "atoms", "density", "x"]), v),
        v)


def spec_objects():
    n, v = json_numbers(), json_values()
    level = st.one_of(n, v)
    return st.one_of(
        st.fixed_dictionaries({"type": st.sampled_from(["var", "es", "expectile", "negmean"]),
                               "level": level}),
        st.fixed_dictionaries({"type": st.just("spectral"), "measure": measure_objects()}),
        st.fixed_dictionaries({"type": st.just("inf_family"),
                               "measures": st.lists(measure_objects(), max_size=3)}),
        st.dictionaries(st.sampled_from(["type", "level", "measure", "measures"]), v),
        v)


def as_json(objects):
    # JSON text as Python writes it, NaN and Infinity included, or any text at all
    return st.one_of(objects.map(json.dumps), st.text(max_size=8))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(law=as_json(law_objects()), flags=st.sampled_from(FUNCTIONAL_FLAGS))
def test_inline_law(law, flags):
    assert_contract(["eval", *flags, f"--dist={law}"])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(measure=as_json(measure_objects()))
def test_measure(measure):
    assert_contract(["eval", "--type", "spectral", f"--measure={measure}", f"--dist={LAW}"])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spec=as_json(spec_objects()))
def test_spec(spec):
    assert_contract(["eval", f"--spec={spec}", f"--dist={LAW}"])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=panel_csv_texts(), flag=st.sampled_from(["--quantile", "--expectile"]))
def test_panel(csv_dir, text, flag):
    assert_contract(["score", str(write_csv(csv_dir, text)), flag, "0.3"])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=sample_csv_texts(), flags=st.sampled_from(FUNCTIONAL_FLAGS))
def test_sample_file(csv_dir, text, flags):
    assert_contract(["eval", *flags, "--data", str(write_csv(csv_dir, text))])
