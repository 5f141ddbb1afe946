"""Scores, expected-score surfaces, argmin intervals, forecast comparison."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from elicitrisk import (
    ArgminInterval,
    Empirical,
    ExpectileScore,
    FiniteAtomic,
    ForecastSeries,
    IdentityGenerator,
    MethodScore,
    QuantileScore,
    SquaredGenerator,
    TabulatedGenerator,
    Uniform,
    argmin_expected_score,
    compare,
    dirac,
    expectile,
    two_point,
)

from helpers import (bisection_expectile, derivative_argmin, random_atomic, random_law_with_ties,
                     sublevel_argmin)


def uniform_midpoint_empirical(a, b, n=200_000):
    # midpoint discretization, an independent oracle for the closed forms
    k = np.arange(n)
    return Empirical(a + (b - a) * (k + 0.5) / n)


class TestScoreValues:
    def test_pinball_examples(self):
        s = QuantileScore(0.25)
        assert s.score(3.0, 2.0) == 0.75
        assert s.score(1.0, 2.0) == 0.25
        assert s.score(2.0, 2.0) == 0.0

    def test_pinball_asymmetry(self):
        a = 0.1
        s = QuantileScore(a)
        y = 1.0
        assert s.score(y - 1.0, y) == pytest.approx(a)
        assert s.score(y + 1.0, y) == pytest.approx(1.0 - a)

    def test_expectile_squared_examples(self):
        s = ExpectileScore(0.3)
        assert s.score(0.0, 1.0) == pytest.approx(0.3)
        assert s.score(2.0, 1.0) == pytest.approx(0.7)
        assert s.score(1.0, 1.0) == 0.0

    def test_expectile_half_symmetric(self):
        s = ExpectileScore(0.5)
        assert s.score(0.0, 1.0) == s.score(2.0, 1.0) == 0.5

    def test_scalar_in_scalar_out(self):
        assert isinstance(QuantileScore(0.4).score(1.0, 2.0), float)
        assert isinstance(ExpectileScore(0.4).score(1.0, 2.0), float)

    def test_broadcasting(self):
        s = QuantileScore(0.5)
        out = s.score(np.array([0.0, 1.0, 2.0]), 1.0)
        assert out.shape == (3,)
        assert out[1] == 0.0

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(-50.0, 50.0, 100_000)
        y = rng.uniform(-50.0, 50.0, 100_000)
        assert np.all(QuantileScore(0.3).score(x, y) >= 0.0)
        assert np.all(ExpectileScore(0.7).score(x, y) >= 0.0)
        gen = TabulatedGenerator([(-60.0, 0.0), (0.0, 30.0), (60.0, 120.0)])
        # interpolation rounding can undershoot zero by a few ulps of the
        # knot scale, so the piecewise-linear case gets a tiny allowance
        assert np.all(QuantileScore(0.3, gen).score(x, y) >= -1e-10)
        assert np.all(ExpectileScore(0.7, generator=gen).score(x, y) >= -1e-10)


class TestExpectedScore:
    def test_two_point_by_hand(self):
        d = two_point(0.0, 1.0, 0.5)
        s = QuantileScore(0.5)
        # 0.5 * (0.5 * 0.25) + 0.5 * (0.5 * 0.75)
        assert s.expected_score(0.25, d) == pytest.approx(0.25, abs=1e-15)

    def test_dirac_reduces_to_score(self):
        s = ExpectileScore(0.4)
        assert s.expected_score(1.7, dirac(0.2)) == s.score(1.7, 0.2)
        assert s.expected_score(0.2, dirac(0.2)) == 0.0

    def test_minimized_at_functional_value(self):
        d = Empirical([-2.0, 0.0, 1.0, 3.0])
        q = QuantileScore(0.5)
        med = d.quantile(0.5)
        assert q.expected_score(med, d) <= q.expected_score(med - 0.4, d)
        assert q.expected_score(med, d) <= q.expected_score(med + 0.4, d)
        e = ExpectileScore(0.5)
        m = d.mean()
        assert e.expected_score(m, d) < e.expected_score(m - 0.3, d)
        assert e.expected_score(m, d) < e.expected_score(m + 0.3, d)

    def test_vector_forecasts(self):
        d = Empirical([0.0, 1.0])
        out = QuantileScore(0.5).expected_score(np.array([0.2, 0.5]), d)
        assert out.shape == (2,)


class TestUniformClosedForms:
    def test_quantile_interior_matches_discretization(self):
        d = Uniform(-1.0, 2.0)
        emp = uniform_midpoint_empirical(-1.0, 2.0)
        s = QuantileScore(0.35)
        for x in (-0.8, 0.0, 0.7, 1.9):
            assert s.expected_score(x, d) == pytest.approx(
                s.expected_score(x, emp), abs=1e-8)

    def test_quantile_linear_tails(self):
        d = Uniform(0.0, 1.0)
        s = QuantileScore(0.2)
        # below the support the pinball integrand is linear in x
        assert s.expected_score(-2.0, d) == pytest.approx(0.2 * (0.5 + 2.0), abs=1e-14)
        assert s.expected_score(2.5, d) == pytest.approx(0.8 * 2.0, abs=1e-14)

    def test_quantile_continuous_at_edges(self):
        d = Uniform(0.0, 1.0)
        s = QuantileScore(0.2)
        for edge in (0.0, 1.0):
            v = s.expected_score(edge, d)
            assert s.expected_score(edge - 1e-9, d) == pytest.approx(v, abs=1e-8)
            assert s.expected_score(edge + 1e-9, d) == pytest.approx(v, abs=1e-8)

    def test_expectile_matches_discretization(self):
        d = Uniform(-1.0, 2.0)
        emp = uniform_midpoint_empirical(-1.0, 2.0)
        s = ExpectileScore(0.65)
        for x in (-1.5, -0.4, 0.5, 1.8, 2.3):
            assert s.expected_score(x, d) == pytest.approx(
                s.expected_score(x, emp), abs=1e-7)

    def test_expectile_minimum_at_mean_when_symmetric(self):
        d = Uniform(0.0, 1.0)
        s = ExpectileScore(0.5)
        assert s.expected_score(0.5, d) < s.expected_score(0.3, d)
        assert s.expected_score(0.5, d) < s.expected_score(0.7, d)

    def test_unsupported_combinations_raise(self):
        gen = TabulatedGenerator([(-10.0, 0.0), (0.0, 5.0), (10.0, 20.0)])
        with pytest.raises(NotImplementedError):
            QuantileScore(0.3, gen).expected_score(0.5, Uniform(0.0, 1.0))
        with pytest.raises(NotImplementedError):
            ExpectileScore(0.3, generator=gen).expected_score(0.5, Uniform(0.0, 1.0))


class TestGeneratorRules:
    def test_quantile_needs_monotone_generator(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            QuantileScore(0.3, SquaredGenerator())
        with pytest.raises(ValueError, match="nondecreasing"):
            QuantileScore(0.3, TabulatedGenerator([(0.0, 0.0), (1.0, -1.0)]))

    def test_expectile_needs_convex_generator(self):
        concave = TabulatedGenerator([(0.0, 0.0), (1.0, 2.0), (2.0, 3.0)])
        with pytest.raises(ValueError, match="convex"):
            ExpectileScore(0.3, generator=concave)

    def test_expectile_rejects_identity(self):
        with pytest.raises(ValueError, match="identity generator"):
            ExpectileScore(0.3, generator=IdentityGenerator())

    def test_level_validation(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                QuantileScore(bad)
            with pytest.raises(ValueError):
                ExpectileScore(bad)


class TestTabulatedGenerator:
    def test_validation(self):
        with pytest.raises(ValueError, match="two knots"):
            TabulatedGenerator([(0.0, 0.0)])
        with pytest.raises(ValueError, match="strictly increasing"):
            TabulatedGenerator([(0.0, 0.0), (0.0, 1.0)])
        with pytest.raises(ValueError, match="finite"):
            TabulatedGenerator([(0.0, 0.0), (1.0, float("inf"))])

    def test_interpolation_and_extension(self):
        g = TabulatedGenerator([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)])
        assert g(0.5) == 0.5
        assert g(1.5) == 2.0
        assert g(1.0) == 1.0
        # end segments extend with their own slopes
        assert g(-1.0) == -1.0
        assert g(3.0) == 5.0

    def test_one_sided_derivative_at_knot(self):
        g = TabulatedGenerator([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)])
        assert g.derivative(1.0, side="left") == 1.0
        assert g.derivative(1.0, side="right") == 2.0
        assert g.derivative(0.5, side="left") == g.derivative(0.5, side="right") == 1.0

    def test_shape_flags(self):
        g = TabulatedGenerator([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)])
        assert g.is_nondecreasing and g.is_strictly_increasing and g.is_convex
        flat = TabulatedGenerator([(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)])
        assert flat.is_nondecreasing and not flat.is_strictly_increasing
        assert list(flat.knots) == [0.0, 1.0, 2.0]
        assert SquaredGenerator().is_strictly_convex
        assert not IdentityGenerator().is_strictly_convex
        assert not g.is_strictly_convex and not flat.is_strictly_convex


class _Hinge:
    """g(t) = max(t, 0): nondecreasing and convex, with neither strictness
    flag and no knots attribute."""

    is_nondecreasing = True
    is_convex = True

    def __call__(self, t):
        return np.maximum(np.asarray(t, dtype=float), 0.0)

    def derivative(self, t, side="left"):
        t = np.asarray(t, dtype=float)
        return (t > 0.0 if side == "left" else t >= 0.0).astype(float)


class TestArgmin:
    def test_expectile_pinpoints_solution(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            d = random_atomic(rng)
            for tau in (0.2, 0.5, 0.8):
                r = argmin_expected_score(ExpectileScore(tau), d)
                assert r.hi - r.lo <= 1e-9
                assert abs(r.midpoint - expectile(d, tau).mu) <= 1e-6

    def test_quantile_unique_minimizer(self):
        d = Empirical([1.0, 2.0, 3.0])
        r = argmin_expected_score(QuantileScore(0.5), d)
        assert r.lo == pytest.approx(2.0, abs=1e-9)
        assert r.hi == pytest.approx(2.0, abs=1e-9)

    def test_quantile_flat_stretch(self):
        # F(1) hits 1/3 exactly, so every point of [1, 2] minimizes
        d = Empirical([1.0, 2.0, 3.0])
        r = argmin_expected_score(QuantileScore(1.0 / 3.0), d)
        assert r.lo == pytest.approx(1.0, abs=1e-9)
        assert r.hi == pytest.approx(2.0, abs=1e-9)
        assert r.contains(1.5)

    def test_two_point_median_interval(self):
        r = argmin_expected_score(QuantileScore(0.5), two_point(0.0, 1.0, 0.5))
        assert r.lo == pytest.approx(0.0, abs=1e-9)
        assert r.hi == pytest.approx(1.0, abs=1e-9)

    def test_uniform_both_scores(self):
        d = Uniform(0.0, 1.0)
        rq = argmin_expected_score(QuantileScore(0.3), d)
        assert abs(rq.midpoint - 0.3) <= 1e-9
        re = argmin_expected_score(ExpectileScore(0.5), d)
        assert abs(re.midpoint - 0.5) <= 1e-8

    def test_value_is_expected_score_at_midpoint(self):
        d = Empirical([0.0, 2.0, 5.0])
        s = QuantileScore(0.25)
        r = argmin_expected_score(s, d)
        assert r.value == s.expected_score(r.midpoint, d)

    def test_flat_piecewise_linear_interval_reported_honestly(self):
        # a single-segment generator has zero Bregman divergence, so the
        # expected score is identically zero and the whole bracket minimizes
        gen = TabulatedGenerator([(0.0, 0.0), (5.0, 25.0)])
        d = Empirical([0.5, 3.0])
        r = argmin_expected_score(ExpectileScore(0.5, generator=gen), d)
        assert r.lo == 0.0
        assert r.hi == 3.5
        assert r.value <= 1e-12

    def test_custom_bracket(self):
        d = Empirical([1.0, 2.0, 3.0])
        r = argmin_expected_score(QuantileScore(0.5), d, bracket=(1.9, 2.1))
        assert r.lo >= 1.9 and r.hi <= 2.1

    def test_validation(self):
        d = Empirical([1.0, 2.0])
        with pytest.raises(ValueError, match="bracket"):
            argmin_expected_score(QuantileScore(0.5), d, bracket=(2.0, 2.0))
        # no closed form and no knots: nothing exact to run
        for s in (QuantileScore(0.5, _Hinge()), ExpectileScore(0.5, generator=_Hinge())):
            with pytest.raises(NotImplementedError, match="exact argmin"):
                argmin_expected_score(s, d)
        gen = TabulatedGenerator([(-10.0, 10.0), (0.0, 0.0), (10.0, 10.0)])
        with pytest.raises(NotImplementedError):
            argmin_expected_score(ExpectileScore(0.5, generator=gen), Uniform(0.0, 1.0))

    def test_bracket_must_be_finite(self):
        score = ExpectileScore(0.3, TabulatedGenerator([(0.0, 0.0), (1.0, 0.0), (2.0, 3.0)]))
        d = FiniteAtomic([0.5, 1.5, 2.5], [0.25, 0.5, 0.25])
        for bracket in ((-math.inf, math.inf), (0.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="bracket"):
                argmin_expected_score(score, d, bracket=bracket)

    def test_edges_match_derivative_bisection(self):
        rng = np.random.default_rng(17)
        gen = TabulatedGenerator([(-3.0, -10.0), (0.0, 0.0), (2.0, 1.0), (5.0, 9.0)])
        laws = [Uniform(-1.0, 2.0), Uniform(1e8, 1e8 + 3.0)]
        for k in range(600):
            d = random_law_with_ties(rng) if k % 2 else random_atomic(rng)
            if k % 3:
                d = d.scale(float(10.0 ** rng.uniform(-8.0, 8.0)))
            laws.append(d.shift(float(rng.choice([0.0, 1e8, -1e8]))))
        for d in laws:
            lo, hi = d.support_min() - 0.5, d.support_max() + 0.5
            # tied laws put equal weights on atoms, so levels k/n hit the ladder
            for level in (0.25, 1.0 / 3.0, 0.5, float(rng.uniform(0.01, 0.99))):
                for s in (QuantileScore(level), QuantileScore(level, gen), ExpectileScore(level)):
                    if isinstance(d, Uniform) and s.generator is gen:
                        continue
                    r = argmin_expected_score(s, d)
                    a, b = derivative_argmin(s, d, lo, hi)
                    slack = 1e-12 * (1.0 + max(abs(lo), abs(hi)))
                    assert abs(r.lo - a) <= slack and abs(r.hi - b) <= slack, (d, s)

    def test_edges_clip_to_the_bracket(self):
        d = Empirical([1.0, 2.0, 3.0])
        r = argmin_expected_score(QuantileScore(1.0 / 3.0), d, bracket=(1.5, 4.0))
        assert (r.lo, r.hi) == (1.5, 2.0)
        r = argmin_expected_score(QuantileScore(0.9), d, bracket=(-1.0, 2.5))
        assert (r.lo, r.hi) == (2.5, 2.5)
        r = argmin_expected_score(ExpectileScore(0.5), d, bracket=(2.5, 9.0))
        assert (r.lo, r.hi) == (2.5, 2.5)

    def test_expectile_thin_tail(self):
        # prefix-sum partial moments lose about 1e-12 of the support here; the
        # expectile refines its root atom by atom
        d = Empirical(np.random.default_rng(3).standard_t(3, 100_000))
        tau = 1.0 - 1e-6
        r = argmin_expected_score(ExpectileScore(tau), d)
        scale = max(abs(d.support_min()), abs(d.support_max()))
        assert r.lo == r.hi
        assert abs(r.midpoint - bisection_expectile(d, tau)) <= 1e-12 * scale

    def test_frozen_interval(self):
        r = ArgminInterval(lo=0.0, hi=1.0, value=0.5)
        assert r.midpoint == 0.5
        assert r.contains(1.0) and not r.contains(1.1)
        assert r.contains(1.1, slack=0.2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.lo = 2.0


# the benchmark's convex knots, a second convex set, and two quantile
# generators with flat stretches
KNOTS = [(-6.0, 18.0), (-2.0, 2.0), (0.0, 0.0), (1.0, 0.5), (3.0, 4.5), (6.0, 18.0)]
CONVEX = [(-4.0, 8.0), (-1.0, 0.5), (0.5, 0.0), (2.0, 1.0), (4.0, 6.0)]
FLAT = [(-5.0, -5.0), (0.0, 0.0), (1.0, 0.0), (3.0, 2.0)]
STEPS = [(-2.0, 0.0), (-1.0, 0.0), (1.0, 1.0), (2.0, 1.0), (3.0, 4.0)]


def kernel_scores(level, c=0.0, s=1.0):
    """The scores that take the breakpoint kernel, knots moved to c + s t."""
    def gen(knots):
        return TabulatedGenerator([(c + s * t, s * v) for t, v in knots])
    return [ExpectileScore(level, generator=gen(KNOTS)), ExpectileScore(level, generator=gen(CONVEX)),
            QuantileScore(level, gen(FLAT)), QuantileScore(level, gen(STEPS))]


def brute_force_edges(score, d, lo, hi):
    """Edges from the expected score summed atom by atom at every candidate.

    The candidates are the breakpoints (atoms, knots, bracket ends) and, for
    an expectile score, the midpoint of each segment between them; an edge
    on a midpoint extends to its segment's end.
    """
    b = np.unique(np.concatenate(([lo, hi], d._values, score.generator.knots)))
    b = b[(b >= lo) & (b <= hi)]
    constant = isinstance(score, ExpectileScore)
    if constant:
        x = np.empty(2 * b.size - 1)
        x[0::2] = b
        x[1::2] = 0.5 * b[:-1] + 0.5 * b[1:]
    else:
        x = b
    f = np.array([float(score.expected_score(t, d)) for t in x])
    inside = np.flatnonzero(f <= f.min() + 1e-11 * (1.0 + abs(f.min())))
    left, right = int(inside[0]), int(inside[-1])
    if constant:
        left -= left % 2
        right += right % 2
    return float(x[left]), float(x[right])


def kernel_laws(rng, count):
    for k in range(count):
        if k % 3 == 0:
            yield random_atomic(rng, lo=-8.0, hi=8.0)
        elif k % 3 == 1:
            yield random_law_with_ties(rng)
        else:
            yield Empirical(np.round(rng.standard_t(3, 60), 2))


class TestBreakpointKernel:
    def test_within_the_sublevel_oracle(self):
        # the grid never does better: the new interval lies inside the
        # oracle's edges up to its bisection width, and its value is no
        # higher beyond rounding (both may sit on one flat stretch)
        rng = np.random.default_rng(61)
        for d in kernel_laws(rng, 60):
            lo, hi = d.support_min() - 0.5, d.support_max() + 0.5
            for level in (1.0 / 3.0, float(rng.uniform(0.01, 0.99))):
                for s in kernel_scores(level):
                    r = argmin_expected_score(s, d)
                    a, b = sublevel_argmin(s, d, lo, hi)
                    assert r.lo >= a - 1e-12 * (1.0 + abs(a)), (d, s)
                    assert r.hi <= b + 1e-12 * (1.0 + abs(b)), (d, s)
                    v = float(s.expected_score(0.5 * (a + b), d))
                    assert r.value <= v + 1e-14 * (1.0 + abs(v)), (d, s)

    def test_bit_for_bit_with_brute_force(self):
        rng = np.random.default_rng(62)
        for d in kernel_laws(rng, 150):
            lo, hi = d.support_min() - 0.5, d.support_max() + 0.5
            for level in (0.25, 0.5, float(rng.uniform(0.01, 0.99))):
                for s in kernel_scores(level):
                    r = argmin_expected_score(s, d)
                    assert (r.lo, r.hi) == brute_force_edges(s, d, lo, hi), (d, s)
                    assert r.value == s.expected_score(r.midpoint, d)

    def test_kink_is_reported_at_the_atom(self):
        # F jumps across 1/3 at -1.58, where g is strictly increasing; the
        # old grid reported about [-1.5800003, -1.5799998] here
        d = FiniteAtomic([-3.0, -1.58, 0.5, 2.0], [0.2, 0.3, 0.3, 0.2])
        r = argmin_expected_score(QuantileScore(1.0 / 3.0, TabulatedGenerator(FLAT)), d)
        assert (r.lo, r.hi) == (-1.58, -1.58)

    def test_flat_stretch_ends_on_a_knot(self):
        # an edge on a segment interior extends to the segment's end
        d = Empirical([-1.0, 0.6, 2.0])
        r = argmin_expected_score(ExpectileScore(0.5, generator=TabulatedGenerator(KNOTS)), d)
        assert (r.lo, r.hi) == (0.0, 1.0)

    @pytest.mark.parametrize("c, s", [(0.0, 1e-8), (0.0, 1e-3), (0.0, 1e3), (0.0, 1e8),
                                      (1e8, 1.0), (-1e8, 1.0), (1e8, 1e3), (-1e8, 1e8)])
    def test_offsets_and_scales(self, c, s):
        # law and knots moved to c + s y together: the values scale by s, so
        # the edges are the images of the unmoved ones, up to the level's
        # absolute part 1e-11, which widens the set at s < 1 and narrows it
        # at s > 1.  They match brute force on the moved law, except at
        # s = 1e8: g reaches 1e9 there, and a zero expected score can sum
        # to 1e-9 or so, above the level 1e-11 of a zero minimum
        rng = np.random.default_rng(63)
        for d in kernel_laws(rng, 30):
            lo, hi = d.support_min() - 0.5, d.support_max() + 0.5
            moved = d.scale(s).shift(c)
            bracket = (c + s * lo, c + s * hi)
            for level in (0.25, float(rng.uniform(0.01, 0.99))):
                for base, score in zip(kernel_scores(level), kernel_scores(level, c, s)):
                    r0 = argmin_expected_score(base, d)
                    r = argmin_expected_score(score, moved, bracket=bracket)
                    image = (c + s * r0.lo, c + s * r0.hi)
                    if s <= 1.0:
                        assert r.lo <= image[0] and r.hi >= image[1], (d, score)
                    if s >= 1.0:
                        assert r.lo >= image[0] and r.hi <= image[1], (d, score)
                    if s < 1e8:
                        assert (r.lo, r.hi) == brute_force_edges(score, moved, *bracket), (d, score)

    def test_no_candidates_by_atoms_matrix(self):
        # a single-segment generator zeroes the expected score, so the whole
        # bracket of a 1e5-atom law minimizes: 2e5 candidates, and a matrix
        # of their values atom by atom would take 160 GB
        d = Empirical(np.random.default_rng(64).standard_t(3, 100_000))
        line = TabulatedGenerator([(0.0, 0.0), (1.0, 2.0)])
        flat = TabulatedGenerator([(0.0, 0.0), (1.0, 0.0)])
        for s in (ExpectileScore(0.3, generator=line), QuantileScore(0.3, flat)):
            tracemalloc.start()
            try:
                r = argmin_expected_score(s, d)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (r.lo, r.hi) == (d.support_min() - 0.5, d.support_max() + 0.5)
            assert r.value == 0.0
            assert peak < 64e6


class TestConsistency:
    """The argmin interval must beat every other forecast, and strictly so
    away from the flat stretch."""

    def test_quantile(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            d = random_atomic(rng)
            s = QuantileScore(float(rng.uniform(0.1, 0.9)))
            r = argmin_expected_score(s, d)
            for t in np.linspace(d.support_min() - 0.5, d.support_max() + 0.5, 41):
                assert r.value <= s.expected_score(float(t), d) + 1e-12
            assert s.expected_score(r.hi + 0.6, d) > r.value
            assert s.expected_score(r.lo - 0.6, d) > r.value

    def test_expectile(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            d = random_atomic(rng)
            s = ExpectileScore(float(rng.uniform(0.1, 0.9)))
            r = argmin_expected_score(s, d)
            for t in np.linspace(d.support_min() - 0.5, d.support_max() + 0.5, 41):
                assert r.value <= s.expected_score(float(t), d) + 1e-12
            assert s.expected_score(r.hi + 0.6, d) > r.value
            assert s.expected_score(r.lo - 0.6, d) > r.value


class TestForecastSeries:
    def test_from_arrays(self):
        fs = ForecastSeries.from_arrays({"a": [1.0, 2.0], "b": [0.0, 0.0]}, [1.0, 3.0])
        assert fs.periods == ["1", "2"]
        assert fs.methods == ["a", "b"]
        assert list(fs.realization_vector()) == [1.0, 3.0]
        assert list(fs.forecast_vector("b")) == [0.0, 0.0]

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one period"):
            ForecastSeries([], {}, {"a": {}})
        with pytest.raises(ValueError, match="distinct"):
            ForecastSeries(["1", "1"], {"1": 0.0}, {"a": {"1": 0.0}})
        with pytest.raises(ValueError, match="no realization"):
            ForecastSeries(["1"], {}, {"a": {"1": 0.0}})
        with pytest.raises(ValueError, match="missing periods"):
            ForecastSeries(["1", "2"], {"1": 0.0, "2": 0.0}, {"a": {"1": 0.0}})
        with pytest.raises(ValueError, match="at least one method"):
            ForecastSeries(["1"], {"1": 0.0}, {})
        with pytest.raises(ValueError, match="2 forecasts"):
            ForecastSeries.from_arrays({"a": [1.0, 2.0]}, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="method 'a' is not finite at period '2'"):
            ForecastSeries.from_arrays({"a": [1.0, float("nan")]}, [1.0, 2.0])
        with pytest.raises(ValueError, match="realization is not finite at period '1'"):
            ForecastSeries(["1"], {"1": float("-inf")}, {"a": {"1": 0.0}})

    def test_from_csv(self, tmp_path):
        f = tmp_path / "panel.csv"
        f.write_text(
            "method,period,forecast,realization\n"
            "a,t1,0.5,1.0\n"
            "a,t2,0.7,2.0\n"
            "b,t1,1.0,1.0\n"
            "b,t2,2.0,2.0\n")
        fs = ForecastSeries.from_csv(f)
        assert fs.periods == ["t1", "t2"]
        assert fs.methods == ["a", "b"]
        assert list(fs.forecast_vector("a")) == [0.5, 0.7]

    def test_from_csv_errors(self, tmp_path):
        cases = [
            ("method,period,forecast\na,t1,0.5\n", "needs columns"),
            ("method,period,forecast,realization\na,t1,0.5,1.0\n,t2,0.7,2.0\n",
             "line 3: empty method"),
            ("method,period,forecast,realization\na,t1,oops,1.0\n", "must be numbers"),
            ("method,period,forecast,realization\na,t1,0.5,1.0\nb,t1,0.6,9.0\n",
             "conflicting"),
            ("method,period,forecast,realization\na,t1,0.5,1.0\na,t1,0.6,1.0\n",
             "duplicate forecast"),
            ("method,period,forecast,realization\na,t1,0.5,1.0\nb,t1,nan,1.0\n",
             "line 3: forecast and realization must be finite"),
            ("method,period,forecast,realization\na,t1,0.5,inf\n",
             "line 2: forecast and realization must be finite"),
            ("method,period,forecast,realization\na,t1,0.5,nan\nb,t1,0.6,nan\n",
             "line 2: forecast and realization must be finite"),
            ("method,period,forecast,realization\na,t1,0.5,1.0\n\n,t2,0.7,2.0\n",
             "line 4: empty method"),
            ("method,period,forecast,realization\na,t1,0.5,1.0\nb\n",
             "line 3: empty method or period"),
        ]
        for body, msg in cases:
            f = tmp_path / "bad.csv"
            f.write_text(body)
            with pytest.raises(ValueError, match=msg):
                ForecastSeries.from_csv(f)


class TestOverflow:
    """Finite inputs whose score overflows raise ValueError, not a numpy warning."""

    def test_scores(self):
        d = FiniteAtomic([-1e200, 0.0], [0.5, 0.5])
        for call in (lambda: ExpectileScore(0.5).score(1e200, -1e200),
                     lambda: QuantileScore(0.5).score(1.7e308, -1.7e308),
                     lambda: ExpectileScore(0.5).expected_score(1e200, d),
                     lambda: QuantileScore(0.5).expected_score(1.7e308, Uniform(-1.7e308, 0.0))):
            with pytest.raises(ValueError, match="not a finite number"):
                call()

    def test_compare_names_the_method(self):
        fs = ForecastSeries.from_arrays({"big": [1e200, 0.0], "small": [0.0, 1.0]}, [0.0, 0.0])
        with pytest.raises(ValueError, match="method 'big' has a score that is not a finite number"):
            compare(fs, ExpectileScore(0.5))


class TestCompare:
    def test_perfect_forecaster_wins(self):
        y = [1.0, 2.0, 3.0, 4.0]
        fs = ForecastSeries.from_arrays(
            {"oracle": y, "biased": [v + 1.0 for v in y]}, y)
        out = compare(fs, QuantileScore(0.25))
        assert out[0] == MethodScore(method="oracle", mean_score=0.0, rank=1)
        assert out[1].method == "biased"
        assert out[1].mean_score == pytest.approx(0.75)
        assert out[1].rank == 2

    def test_competition_ranks_on_ties(self):
        y = [1.0, 2.0]
        fs = ForecastSeries.from_arrays(
            {"m2": [0.0, 1.0], "m1": [0.0, 1.0], "worse": [5.0, 5.0]}, y)
        out = compare(fs, QuantileScore(0.5))
        assert [(m.method, m.rank) for m in out] == [("m1", 1), ("m2", 1), ("worse", 3)]
        assert out[0].mean_score == out[1].mean_score

    def test_period_order_does_not_change_means(self):
        rng = np.random.default_rng(16)
        y = rng.uniform(-5.0, 5.0, 200).tolist()
        x = rng.uniform(-5.0, 5.0, 200).tolist()
        a = compare(ForecastSeries.from_arrays({"m": x}, y), QuantileScore(0.3))
        b = compare(ForecastSeries.from_arrays({"m": x[::-1]}, y[::-1]), QuantileScore(0.3))
        # compensated summation makes the mean exact, hence order-independent
        assert a[0].mean_score == b[0].mean_score

    def test_expectile_ranking_runs(self):
        y = [0.0, 1.0, -1.0, 2.0]
        fs = ForecastSeries.from_arrays(
            {"near": [0.1, 0.9, -0.8, 1.7], "far": [3.0, 3.0, 3.0, 3.0]}, y)
        out = compare(fs, ExpectileScore(0.5))
        assert [m.method for m in out] == ["near", "far"]
        assert all(m.mean_score >= 0.0 for m in out)
        assert [m.rank for m in out] == [1, 2]

    def test_method_score_frozen(self):
        ms = MethodScore(method="a", mean_score=0.0, rank=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ms.rank = 2
