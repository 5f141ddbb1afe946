"""Fuzzer for the elicitability diagnostics and the coherence search.

Every call must end one of two ways: a result, or a ``ValueError`` or
``TypeError``.  Another exception or a warning fails the test.  The six
built-in functionals take levels inside and outside their domains; grids,
budgets, seeds and tolerances reach their edges.  The mixture hunt and
``coherence_check`` must also equal, bit for bit, the per-law computations
they replaced (``per_law_hunt`` and ``per_trial_coherence_check``), raising
where those raise.
"""

import json
import math
import struct
import sys
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from elicitrisk import (ES, ConvexityWitness, ExpectileRisk, FiniteAtomic, InfOverFamily,
                        NegMean, SpectralMeasure, SpectralRisk, Uniform, VaR, bound_check,
                        coherence_check, convex_level_set_test, diagnostic_report, identify_C,
                        mp_measure, spectral_bounds_check, two_point, uc_measure)

from helpers import BAD_TOLERANCES, per_law_hunt, per_trial_coherence_check


class Raised:
    """What a call that raised a ValueError or TypeError gives."""

    def __init__(self, exc):
        self.kind = type(exc)

    def __eq__(self, other):
        return isinstance(other, Raised) and other.kind is self.kind


def outcome(call):
    """The call's result, or Raised for a ValueError or TypeError; a warning
    is raised as an error, and so fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except (ValueError, TypeError) as exc:
            return Raised(exc)


def bits(x) -> bytes:
    return struct.pack("d", float(x))


LEVELS = st.one_of(st.floats(0.0, 1.0), st.sampled_from(
    [0.0, 1.0, 5e-324, sys.float_info.min, 1e-300, 0.5, 1.0 - 1e-16, np.nextafter(1.0, 2.0),
     2.0, -0.25, math.nan, math.inf]))
TOLS = st.one_of(st.just(1e-9), st.floats(1e-15, 1e-3),
                 st.sampled_from([*BAD_TOLERANCES, 1e300, 5e-324]))


@st.composite
def measures(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return outcome(lambda: uc_measure(draw(LEVELS)))
    if kind == 1:
        return outcome(lambda: mp_measure(draw(LEVELS), draw(LEVELS)))
    return outcome(lambda: SpectralMeasure(atoms=[(draw(LEVELS), 1.0)]))


@st.composite
def functionals(draw):
    """One of the six built-ins, or Raised where its constructor refuses."""
    kind = draw(st.integers(0, 5))
    if kind == 3:
        return NegMean()
    if kind < 3:
        return outcome(lambda: (VaR, ES, ExpectileRisk)[kind](draw(LEVELS)))
    ms = draw(st.lists(measures(), min_size=1, max_size=3))
    if any(isinstance(m, Raised) for m in ms):
        return Raised(ValueError())
    return SpectralRisk(ms[0]) if kind == 4 else InfOverFamily(tuple(ms))


@st.composite
def grids(draw):
    """None, an evenly spaced grid, or points anywhere, repeated or not."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return None
    if kind == 1:
        return np.linspace(0.05, 0.95, draw(st.integers(2, 25)))
    return draw(st.lists(st.one_of(LEVELS, st.floats(0.01, 0.99)), max_size=12))


@st.composite
def laws(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        lo = draw(st.floats(-10.0, 10.0))
        return Uniform(lo, lo + draw(st.floats(0.1, 10.0)))
    if kind == 1:
        return two_point(0.0, draw(st.floats(0.0, 10.0)), draw(st.floats(0.0, 1.0)))
    n = draw(st.integers(1, 6))
    w = np.asarray(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    return FiniteAtomic(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)),
                        w / w.sum())


def witness_fields(w):
    if not isinstance(w, ConvexityWitness):
        return w
    return (w.p0.atoms(), w.p1.atoms(), w.mix_weight, w.target, bits(w.value_at_mixture))


def report_fields(rep):
    if isinstance(rep, Raised):
        return rep
    return (rep.trials, rep.max_states, bits(rep.tolerance), rep.checks,
            [(v.axiom, v.trial, [bits(s) for s in v.states_x],
              None if v.states_y is None else [bits(s) for s in v.states_y],
              v.param, bits(v.lhs), bits(v.rhs)) for v in rep.violations])


def assert_finite(*xs):
    assert np.isfinite(np.asarray(xs, dtype=float)).all(), xs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rf=functionals(), grid=grids(), tol=TOLS)
def test_identify_C(rf, grid, tol):
    if isinstance(rf, Raised):
        return
    ident = outcome(lambda: identify_C(rf, grid=grid, tolerance=tol))
    if not isinstance(ident, Raised):
        assert_finite(ident.c_hat, *(x for pair in ident.residuals for x in pair))
        assert ident.consistent in (True, False)


GOOD_TOLS = st.one_of(st.just(1e-9), st.floats(1e-15, 1e-3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rf=functionals(), grid=grids(), budget=st.integers(1, 700),
       seed=st.integers(0, 2**32 - 1), tol=GOOD_TOLS)
def test_hunt_equals_the_per_law_hunt(rf, grid, budget, seed, tol):
    if isinstance(rf, Raised):
        return
    w = outcome(lambda: convex_level_set_test(rf, search_budget=budget, seed=seed, tol=tol,
                                              grid=grid))
    old = outcome(lambda: per_law_hunt(rf, search_budget=budget, seed=seed, tol=tol, grid=grid))
    assert witness_fields(w) == witness_fields(old)
    if isinstance(w, ConvexityWitness):
        assert w.validate(rf, tol)
        assert outcome(lambda: w.validate(NegMean(), tol)) in (True, False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rf=functionals(), trials=st.integers(1, 20), max_states=st.integers(2, 20),
       seed=st.integers(0, 2**32 - 1), tol=GOOD_TOLS)
def test_coherence_check_equals_the_per_trial_check(rf, trials, max_states, seed, tol):
    if isinstance(rf, Raised):
        return
    new = outcome(lambda: coherence_check(rf, trials=trials, seed=seed, max_states=max_states,
                                          tol=tol))
    old = outcome(lambda: per_trial_coherence_check(rf, trials=trials, seed=seed,
                                                    max_states=max_states, tol=tol))
    assert report_fields(new) == report_fields(old)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rf=functionals(), budget=st.integers(-2, 3), trials=st.integers(-1, 3),
       max_states=st.integers(0, 3), tol=TOLS)
def test_bad_arguments_raise_where_they_raised(rf, budget, trials, max_states, tol):
    if isinstance(rf, Raised):
        return
    w = outcome(lambda: convex_level_set_test(rf, search_budget=budget, tol=tol))
    assert witness_fields(w) == witness_fields(
        outcome(lambda: per_law_hunt(rf, search_budget=budget, tol=tol)))
    new = outcome(lambda: coherence_check(rf, trials=trials, max_states=max_states, tol=tol))
    assert report_fields(new) == report_fields(outcome(
        lambda: per_trial_coherence_check(rf, trials=trials, max_states=max_states, tol=tol)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rf=functionals(), C=LEVELS, test_set=st.lists(laws(), max_size=4), tol=TOLS)
def test_bound_check(rf, C, test_set, tol):
    if isinstance(rf, Raised):
        return
    rep = outcome(lambda: bound_check(rf, C, test_set, tol=tol))
    if not isinstance(rep, Raised):
        assert len(rep.entries) == len(test_set)
        for e in rep.entries:
            assert_finite(e.lower, e.value, e.upper, e.lower_margin, e.upper_margin)
        assert rep.ok == all(e.ok for e in rep.entries)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(m=measures(), C=LEVELS, grid=grids(), eq_tol=TOLS)
def test_spectral_bounds_check(m, C, grid, eq_tol):
    if isinstance(m, Raised):
        return
    rep = outcome(lambda: spectral_bounds_check(m, C, grid=grid, eq_tol=eq_tol))
    if not isinstance(rep, Raised):
        for e in rep.entries:
            assert_finite(e.p, e.spectral_value, e.integrated, e.lower_margin, e.upper_margin,
                          e.integrated_margin)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rf=functionals(), m=measures(), C=LEVELS, grid=grids(),
       test_set=st.lists(laws(), max_size=3), budget=st.one_of(st.none(), st.integers(1, 300)))
def test_diagnostic_report(rf, m, C, grid, test_set, budget):
    if isinstance(rf, Raised) or isinstance(m, Raised):
        return
    ident = outcome(lambda: identify_C(rf, grid=grid))
    witness = outcome(lambda: convex_level_set_test(rf, search_budget=budget or 1, grid=grid))
    bounds = outcome(lambda: bound_check(rf, C, test_set))
    spectral = outcome(lambda: spectral_bounds_check(m, C, grid=grid))
    if any(isinstance(r, Raised) for r in (ident, witness, bounds, spectral)):
        return
    report = outcome(lambda: diagnostic_report(ident, witness, bounds, [spectral],
                                               search_budget=budget))
    assert not isinstance(report, Raised)
    assert json.loads(json.dumps(report, allow_nan=False)) == report
    assert report["verdict"] in ("consistent", "inconsistent")
