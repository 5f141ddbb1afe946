"""Fuzzer for the public spectral functions.

Every call must end one of two ways: finite numbers (never NaN), or a
``ValueError`` or ``TypeError``.  Another exception or a warning fails the
test.  Levels reach NaN, +-inf, values outside [0, 1] and subnormals, as
scalars and as arrays; laws reach +-1e300; density parameters reach the
smallest C whose 1 / C is finite.
"""

import json
import math
import sys
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from elicitrisk import (FiniteAtomic, SpectralMeasure, UcDensity, Uniform, interval_mass,
                        measure_from_json, mp_measure, nu, nu_via_U, spectral_fn, uc_measure)

EDGES = [0.0, -0.0, 1.0, 5e-324, 1e-310, sys.float_info.min, 1e-300, 1e-200, 1e-160, 1e-16,
         0.5, 1.0 - 1e-16, np.nextafter(1.0, 2.0), -1e-300, 2.0, math.nan, math.inf, -math.inf]
# a level or a parameter: on an edge, inside [0, 1], or anywhere
NUMBERS = st.one_of(st.sampled_from(EDGES), st.floats(0.0, 1.0), st.floats())
LEVELS = st.one_of(NUMBERS, st.lists(NUMBERS, max_size=5),
                   st.lists(st.lists(NUMBERS, min_size=2, max_size=2), min_size=1, max_size=3))
VALUES = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e300, 1e300),
                   st.sampled_from([-1e300, -1e10, 0.0, 1e10, 1e300]))


def outcome(call):
    """The call's result, None for a ValueError or TypeError; a warning is
    raised as an error, and so fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except (ValueError, TypeError):
            return None


def assert_finite(result):
    assert result is None or np.isfinite(np.asarray(result, dtype=float)).all(), result


def assert_measure(m):
    """A built measure holds finite atoms, and its total mass is finite."""
    if m is None:
        return
    assert isinstance(m, SpectralMeasure)
    assert_finite([m.atom_at_zero, *(v for atom in m.atoms for v in atom)])
    total = outcome(lambda: interval_mass(m, 0.0, 1.0))
    assert total is not None and np.isfinite(total), (m, total)


@st.composite
def measures(draw):
    """Every way to build a measure: the two families, and an atom at zero,
    atoms and a density with weights scaled to mass one."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return outcome(lambda: mp_measure(draw(NUMBERS), draw(NUMBERS)))
    if kind == 1:
        return outcome(lambda: uc_measure(draw(NUMBERS)))
    n = draw(st.integers(0, 4))
    levels = draw(st.lists(NUMBERS, min_size=n, max_size=n))
    density = outcome(lambda: UcDensity(draw(NUMBERS))) if draw(st.booleans()) else None
    w = np.asarray(draw(st.lists(st.floats(0.01, 1.0), min_size=n + 1, max_size=n + 1)))
    w = w / w.sum() * (1.0 if density is None else density.C)
    return outcome(lambda: SpectralMeasure(float(w[-1]), zip(levels, w[:-1].tolist()), density))


@st.composite
def laws(draw):
    """Atomic laws, now and then a uniform one."""
    if draw(st.integers(0, 3)) == 0:
        return Uniform(*sorted(draw(st.lists(VALUES, min_size=2, max_size=2, unique=True))))
    n = draw(st.integers(1, 6))
    values = draw(st.lists(VALUES, min_size=n, max_size=n))
    w = np.asarray(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    return FiniteAtomic(values, w / w.sum())


# JSON documents near the measure schema: right and wrong keys, and values
# of every JSON type
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), NUMBERS, st.text(max_size=3))
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=6)
ATOM = st.one_of(st.lists(NUMBERS, min_size=2, max_size=2), JSON_VALUES)
SPECS = st.one_of(JSON_VALUES, st.fixed_dictionaries({}, optional={
    "atom0": st.one_of(NUMBERS, JSON_VALUES),
    "atoms": st.one_of(st.lists(ATOM, max_size=3), JSON_VALUES),
    "density": st.one_of(st.none(), st.fixed_dictionaries(
        {"type": st.sampled_from(["uc", "other"]), "C": st.one_of(NUMBERS, JSON_VALUES)}),
        JSON_VALUES),
    "extra": JSON_VALUES}))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(m=measures(), u=LEVELS)
def test_spectral_fn(m, u):
    if m is not None:
        assert_finite(outcome(lambda: spectral_fn(m, u)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(m=measures(), p1=LEVELS, p2=LEVELS)
def test_interval_mass(m, p1, p2):
    if m is not None:
        assert_finite(outcome(lambda: interval_mass(m, p1, p2)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(m=measures(), d=laws())
def test_nu_and_nu_via_U(m, d):
    if m is not None:
        assert_finite(outcome(lambda: nu(m, d)))
        assert_finite(outcome(lambda: nu_via_U(m, d)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=NUMBERS, C=NUMBERS)
def test_measure_families(p, C):
    assert_measure(outcome(lambda: mp_measure(p, C)))
    assert_measure(outcome(lambda: uc_measure(C)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(spec=SPECS, as_text=st.booleans())
def test_measure_from_json(spec, as_text):
    if as_text:
        spec = json.dumps(spec)
    assert_measure(outcome(lambda: measure_from_json(spec)))
