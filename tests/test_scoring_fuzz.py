"""Fuzzer for the public scoring functions.

Every call must end one of two ways: finite numbers (never NaN), or a
``ValueError`` or ``NotImplementedError``.  Another exception or a warning
fails the test.  The laws reach +-1e300, where generator values and scores
overflow a double.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from elicitrisk import (ArgminInterval, ExpectileScore, FiniteAtomic, IdentityGenerator,
                        QuantileScore, SquaredGenerator, TabulatedGenerator, Uniform,
                        argmin_expected_score)

VALUES = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e300, 1e300),
                   st.sampled_from([-1e300, -1e10, 0.0, 1e10, 1e300]))
LEVELS = st.floats(0.01, 0.99)
POINTS = st.one_of(VALUES, st.lists(VALUES, min_size=1, max_size=4))


@st.composite
def laws(draw):
    """Atomic laws, now and then a uniform one."""
    if draw(st.integers(0, 5)) == 0:
        return Uniform(*sorted(draw(st.lists(VALUES, min_size=2, max_size=2, unique=True))))
    n = draw(st.integers(1, 6))
    values = draw(st.lists(VALUES, min_size=n, max_size=n))
    w = np.asarray(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    return FiniteAtomic(values, w / w.sum())


@st.composite
def generators(draw):
    """None (the score's default) or knots with nondecreasing slopes, all of
    them nonnegative or not: a convex generator, nondecreasing or not."""
    if draw(st.integers(0, 3)) == 0:
        return None
    xs = sorted(set(draw(st.lists(VALUES, min_size=2, max_size=5))))
    if len(xs) < 2:
        xs.append(xs[0] + 1.0)
    low = 0.0 if draw(st.booleans()) else -1e3
    # a zero slope keeps a quantile score off the closed form
    slope = st.one_of(st.just(0.0), st.floats(low, 1e3), st.floats(low, 1e300))
    slopes = sorted(draw(st.lists(slope, min_size=len(xs) - 1, max_size=len(xs) - 1)))
    v = [draw(VALUES)]
    for s, a, b in zip(slopes, xs, xs[1:]):
        v.append(v[-1] + s * (b - a))
    return list(zip(xs, v))


@st.composite
def brackets(draw):
    if draw(st.booleans()):
        return None
    return draw(VALUES), draw(VALUES)


def outcome(call):
    """The call's result, None for a ValueError or NotImplementedError; a
    warning is raised as an error, and so fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except (ValueError, NotImplementedError):
            return None


def build(kind, level, knots):
    """The score, None where a constructor rejects its arguments."""
    return outcome(lambda: kind(level, None if knots is None else TabulatedGenerator(knots)))


def assert_finite(result):
    assert result is None or np.isfinite(np.asarray(result, dtype=float)).all(), result


KINDS = st.sampled_from([QuantileScore, ExpectileScore])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(knots=generators(), t=POINTS, side=st.sampled_from(["left", "right"]))
def test_generator(knots, t, side):
    for g in (IdentityGenerator(), SquaredGenerator(),
              outcome(lambda: knots and TabulatedGenerator(knots))):
        if g:
            assert_finite(outcome(lambda: g(t)))
            assert_finite(outcome(lambda: g.derivative(t, side=side)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kind=KINDS, level=LEVELS, knots=generators(), x=POINTS, y=POINTS)
def test_score(kind, level, knots, x, y):
    score = build(kind, level, knots)
    if score is not None:
        assert_finite(outcome(lambda: score.score(x, y)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kind=KINDS, level=LEVELS, knots=generators(), d=laws(), x=POINTS)
def test_expected_score(kind, level, knots, d, x):
    score = build(kind, level, knots)
    if score is not None:
        assert_finite(outcome(lambda: score.expected_score(x, d)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kind=KINDS, level=LEVELS, knots=generators(), d=laws(), bracket=brackets())
def test_argmin_expected_score(kind, level, knots, d, bracket):
    score = build(kind, level, knots)
    if score is None:
        return
    r = outcome(lambda: argmin_expected_score(score, d, bracket))
    if r is not None:
        assert isinstance(r, ArgminInterval)
        assert_finite((r.lo, r.hi, r.value))
        assert r.lo <= r.hi
