"""The package namespace: the names it re-exports, resolved on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import elicitrisk
from elicitrisk import distributions, elicit, risk, scoring, spectral

SRC = str(Path(elicitrisk.__file__).resolve().parents[1])


def test_all_lists_the_modules_names_in_module_order():
    expected = [*distributions.__all__, *spectral.__all__, *risk.__all__, *elicit.__all__,
                *scoring.__all__, "__version__"]
    assert elicitrisk.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_star_import_binds_exactly_all():
    scope = {}
    exec("from elicitrisk import *", scope)
    del scope["__builtins__"]
    assert sorted(scope) == sorted(elicitrisk.__all__)
    assert all(scope[name] is getattr(elicitrisk, name) for name in scope)


def test_dir_lists_every_name_and_module():
    assert {*elicitrisk.__all__, "distributions", "spectral", "risk", "elicit",
            "scoring"} <= set(dir(elicitrisk))


def test_a_missing_name_is_an_attribute_error():
    with pytest.raises(AttributeError,
                       match=r"^module 'elicitrisk' has no attribute 'no_such_name'$"):
        elicitrisk.no_such_name
    assert not hasattr(elicitrisk, "no_such_name")
    assert "no_such_name" not in vars(elicitrisk)


def test_names_resolve_on_first_use_and_stay():
    # in a fresh process: a module is an attribute without its own import, and
    # a resolved name is a plain entry of the namespace, not a second lookup
    code = ("import elicitrisk as er\n"
            "before, es = 'ES' in vars(er), er.ES\n"
            "print(er.risk.__name__, before, vars(er)['ES'] is es is er.risk.ES)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC}).stdout
    assert out.split() == ["elicitrisk.risk", "False", "True"]
