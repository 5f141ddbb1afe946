"""Fuzzer for the public law and risk functions.

Every call must end one of two ways: finite numbers (never NaN), or a
``ValueError`` or ``TypeError``.  Another exception or a warning fails the
test.  Atom values and points reach +-1e300; levels, weights and scale
factors reach NaN, +-inf, values outside [0, 1] and subnormals.  A law a
call returns must itself hold finite atoms and a ladder that ends at 1.
"""

import math
import sys
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from elicitrisk import (ES, Empirical, FiniteAtomic, Uniform, dirac, es, expectile, l_C,
                        min_nu_over_mp, mix, two_point, u_C, var)

EDGES = [0.0, -0.0, 1.0, 5e-324, 1e-310, sys.float_info.min, 1e-300, 1e-16, 0.25, 0.5,
         1.0 - 1e-16, 1.0000000000000002, -1e-300, 2.0, math.nan, math.inf, -math.inf]
# a level, a weight or a factor: on an edge, inside [0, 1], or anywhere
NUMBERS = st.one_of(st.sampled_from(EDGES), st.floats(0.0, 1.0), st.floats())
VALUES = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e300, 1e300),
                   st.sampled_from([-1e300, -1e10, 0.0, 1e-300, 1e10, 1e300]))
# a point: a value, or anything
POINTS = st.one_of(VALUES, st.floats())


def outcome(call):
    """The call's result, None for a ValueError or TypeError; a warning is
    raised as an error, and so fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except (ValueError, TypeError):
            return None


def assert_finite(*results):
    for result in results:
        assert result is None or np.isfinite(np.asarray(result, dtype=float)).all(), result


def assert_law(d):
    """A law a call built: finite, sorted atoms and a ladder that ends at 1."""
    if d is None or isinstance(d, Uniform):
        return
    assert isinstance(d, FiniteAtomic)
    assert np.isfinite(d._values).all() and np.all(np.diff(d._values) > 0.0), d._values
    assert np.isfinite(d._csum).all() and d._cum[-1] == 1.0, d


@st.composite
def laws(draw):
    """Every constructor, with values and weights near and past their domain."""
    kind = draw(st.integers(0, 4))
    if kind == 0:
        n = draw(st.integers(1, 6))
        values = draw(st.lists(VALUES, min_size=n, max_size=n))
        w = np.asarray(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
        w = w / w.sum()
        if draw(st.booleans()):  # weights as given, in or out of their domain
            w = draw(st.lists(NUMBERS, min_size=n, max_size=n))
        return outcome(lambda: FiniteAtomic(values, w))
    if kind == 1:
        return outcome(lambda: Empirical(draw(st.lists(POINTS, min_size=1, max_size=8))))
    if kind == 2:
        return outcome(lambda: two_point(draw(POINTS), draw(POINTS), draw(NUMBERS)))
    if kind == 3:
        return outcome(lambda: dirac(draw(POINTS)))
    return outcome(lambda: Uniform(draw(POINTS), draw(POINTS)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(d=laws(), x=POINTS, v=NUMBERS)
def test_ladder_methods(d, x, v):
    if d is None:
        return
    assert_law(d)
    assert_finite(outcome(lambda: d.cdf(x)), outcome(lambda: d.quantile(v)),
                  outcome(lambda: d.partial_quantile_integral(v)), outcome(d.mean),
                  outcome(lambda: d.upper_partial_moment(x)),
                  outcome(lambda: d.lower_partial_moment(x)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(d=laws(), c=POINTS, lam=st.one_of(NUMBERS, VALUES))
def test_shift_and_scale(d, c, lam):
    if d is not None:
        assert_law(outcome(lambda: d.shift(c)))
        assert_law(outcome(lambda: d.scale(lam)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(d0=laws(), d1=laws(), p=st.one_of(st.sampled_from([0.0, 1.0]), NUMBERS),
       shared=st.booleans())
def test_mix(d0, d1, p, shared):
    if d0 is None or d1 is None:
        return
    if shared and isinstance(d0, FiniteAtomic):  # a copy moved onto d0's first atom
        d1 = outcome(lambda: d1.shift(d0.support_min() - d1.support_min()))
        if d1 is None:
            return
    m = outcome(lambda: mix(d0, d1, p))
    assert_law(m)
    if m is not None and p in (0.0, 1.0):  # the other law drops out
        assert set(m._values.tolist()) <= set((d0 if p == 1.0 else d1)._values.tolist())


@settings(max_examples=400, deadline=None, derandomize=True)
@given(d=laws(), level=NUMBERS)
def test_risk_functions(d, level):
    if d is None:
        return
    assert_finite(outcome(lambda: var(d, level)), outcome(lambda: es(d, level)),
                  outcome(lambda: u_C(d, level)), outcome(lambda: l_C(d, level)))
    sol = outcome(lambda: expectile(d, level))
    if sol is not None:
        assert_finite(sol.mu, sol.p_star)
        assert d.support_min() <= sol.mu <= d.support_max()
    assert_finite(outcome(lambda: min_nu_over_mp(d, level)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(alpha=NUMBERS)
def test_es_levels_match_the_spectral_atoms(alpha):
    # es, ES and a spectral atom accept the same levels below 1
    d = two_point(0.245464, 1.0, 0.307886)
    accepted = outcome(lambda: es(d, alpha)) is not None
    assert accepted == (outcome(lambda: ES(alpha)) is not None)
    assert accepted == (sys.float_info.min <= alpha < 1.0)
