"""Risk functionals: closed forms, envelope identities, coherence search, JSON."""

import dataclasses
import json
import math
import re
import sys

import numpy as np
import pytest

from elicitrisk import (
    ES,
    Empirical,
    ExpectileRisk,
    FiniteAtomic,
    InfOverFamily,
    NegMean,
    SpectralMeasure,
    SpectralRisk,
    Uniform,
    VaR,
    coherence_check,
    dirac,
    es,
    evaluate,
    expectile,
    functional_from_json,
    functional_to_json,
    l_C,
    min_nu_over_mp,
    mp_measure,
    nu,
    two_point,
    u_C,
    uc_measure,
    var,
)

from elicitrisk import distributions

from helpers import (BAD_TOLERANCES, bisection_expectile, golden_min_nu_over_mp, random_atomic,
                     random_law_pair, random_law_with_ties, searched_tails_expectile)


def delta(a):
    return SpectralMeasure(atoms=[(a, 1.0)])


def asym_residual(d, tau, x):
    # tau * E(Y - x)^+ - (1 - tau) * E(x - Y)^+, zero at the tau-expectile
    return tau * d.upper_partial_moment(x) - (1.0 - tau) * d.lower_partial_moment(x)


class TestVar:
    def test_two_point_median(self):
        assert var(two_point(0.0, 1.0, 0.5), 0.5) == 0.0

    def test_uniform(self):
        assert var(Uniform(0.0, 1.0), 0.05) == -0.05

    def test_empirical_breakpoint(self):
        # F(-3) equals 1/3 exactly, and the generalized inverse picks -3
        assert var(Empirical([-3.0, -1.0, 2.0]), 1.0 / 3.0) == 3.0

    def test_level_validation(self):
        d = Uniform(0.0, 1.0)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                var(d, bad)


class TestEs:
    def test_uniform_half(self):
        assert es(Uniform(0.0, 1.0), 0.5) == pytest.approx(-0.25, abs=1e-15)

    def test_rejects_a_subnormal_level(self):
        # 1 / alpha overflows below the smallest normal double, as for a
        # spectral atom's level, and the result was nan or -inf
        d = two_point(0.245464, 1.0, 0.307886)
        for alpha in (5e-324, 1e-310):
            with pytest.raises(ValueError, match="alpha must lie in .* no lower than"):
                es(d, alpha)
            with pytest.raises(ValueError, match="alpha must lie in .* no lower than"):
                ES(alpha)
        alpha = sys.float_info.min
        assert es(d, alpha) == ES(alpha).evaluate(d) == -nu(delta(alpha), d)
        assert es(d, alpha) == pytest.approx(-0.245464, rel=1e-15)

    def test_two_point_below_split(self):
        # the whole lower tail sits on the first atom
        assert es(two_point(-2.0, 5.0, 0.5), 0.3) == pytest.approx(2.0, abs=1e-14)

    def test_matches_partial_integral_route(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            d = random_atomic(rng)
            for a in (0.1, 0.37, 0.9):
                direct = -d.partial_quantile_integral(a) / a
                assert math.isclose(es(d, a), direct, rel_tol=1e-14, abs_tol=1e-14)

    def test_equals_the_spectral_route(self):
        # 1 / alpha times the partial quantile integral is nu's own arithmetic
        rng = np.random.default_rng(5)
        laws = [random_atomic(rng) for _ in range(40)]
        laws += [random_law_with_ties(rng) for _ in range(20)]
        laws += [Uniform(*sorted(rng.uniform(-5.0, 5.0, 2))) for _ in range(20)]
        for d in laws:
            for a in (0.05, 1.0 / 3.0, float(rng.uniform(0.001, 0.999))):
                assert es(d, a) == -nu(SpectralMeasure(atoms=[(a, 1.0)]), d)

    def test_dominates_var(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            d = random_atomic(rng)
            for a in (0.1, 0.5, 0.9):
                assert es(d, a) >= var(d, a) - 1e-12

    def test_near_one_approaches_neg_mean(self):
        d = Empirical([-1.5, 0.25, 2.0, 4.0])
        assert es(d, 1.0 - 1e-6) == pytest.approx(-d.mean(), abs=1e-5)

    def test_level_validation(self):
        with pytest.raises(ValueError):
            es(Uniform(0.0, 1.0), 1.0)


class TestExpectile:
    def test_half_is_mean(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = random_atomic(rng)
            sol = expectile(d, 0.5)
            assert abs(sol.mu - d.mean()) <= 1e-12 * (1.0 + abs(d.mean()))

    def test_two_point_closed_form(self):
        for p in (0.2, 0.5, 0.8):
            for tau in (0.1, 0.3, 0.5, 0.7, 0.9):
                d = two_point(-2.0, 3.0, p)
                w = tau * (1.0 - p) / (tau * (1.0 - p) + (1.0 - tau) * p)
                assert expectile(d, tau).mu == pytest.approx(-2.0 + 5.0 * w, abs=5e-12)

    def test_uniform_half(self):
        assert expectile(Uniform(0.0, 1.0), 0.5).mu == pytest.approx(0.5, abs=1e-12)

    def test_residual_small_at_solution(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            d = random_atomic(rng)
            for tau in (0.2, 0.5, 0.8):
                sol = expectile(d, tau)
                assert abs(asym_residual(d, tau, sol.mu)) <= 1e-9 * (1.0 + abs(sol.mu))

    def test_p_star_is_cdf_at_solution(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            d = random_atomic(rng)
            sol = expectile(d, 0.35)
            assert sol.p_star == d.cdf(sol.mu)

    def test_monotone_in_tau(self):
        for d in (Empirical([-4.0, -1.0, 0.0, 2.0, 7.0]), Uniform(-1.0, 2.0)):
            mus = [expectile(d, t).mu for t in np.linspace(0.05, 0.95, 15)]
            assert all(b - a > -1e-12 for a, b in zip(mus, mus[1:]))

    def test_dirac_shortcut(self):
        sol = expectile(dirac(3.5), 0.123)
        assert sol.mu == 3.5
        assert sol.tau == 0.123
        assert sol.p_star == 1.0

    def test_rejects_bad_tau(self):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                expectile(Uniform(0.0, 1.0), bad)


_TAUS = (1e-6, 0.05, 0.3, 0.5, 0.7, 0.95, 1.0 - 1e-6)


class TestExpectileOffTheLadder:
    """The segment's end residuals and p_star read off the ladder equal the
    binary-searched tails and ``cdf`` they replaced, bit for bit."""

    @staticmethod
    def laws(seed):
        rng = np.random.default_rng(seed)
        for _ in range(150):
            yield from random_law_pair(rng)
            # samples with ties, at the same scales and offsets
            scale, offset = 10.0 ** rng.uniform(-8.0, 8.0), float(rng.choice([0.0, 1e8, -1e8]))
            yield Empirical(offset + scale * rng.integers(-5, 6, int(rng.integers(1, 51))))

    def test_bit_identical_to_the_searched_tails(self):
        for d in self.laws(60):
            for tau in (*_TAUS, 0.25, 1.0 / 3.0):
                sol = expectile(d, tau)
                ref = searched_tails_expectile(d, tau)
                assert np.array([sol.mu, sol.p_star]).tobytes() == np.array(ref).tobytes(), (d, tau)

    def test_atomic_laws_need_neither_cdf_nor_tail_search(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the atomic expectile called a ladder search")

        monkeypatch.setattr(distributions.FiniteAtomic, "cdf", refuse)
        monkeypatch.setattr(distributions.FiniteAtomic, "_tails", refuse)
        for d in (*self.laws(61), dirac(2.5), two_point(0.0, 1.0, 0.3)):
            for tau in (0.05, 0.5, 0.95):
                expectile(d, tau)


def _magnitude(d) -> float:
    return max(abs(d.support_min()), abs(d.support_max()))


class TestExpectileOracle:
    """The closed form against the bisection it replaced, to 1e-12 relative.

    "Relative" is to the law's magnitude max(|min|, |max|), the scale both
    solvers round at.
    """

    def check(self, d, tau, ref=None, magnitude=None):
        ref = bisection_expectile(d, tau) if ref is None else ref
        magnitude = _magnitude(d) if magnitude is None else magnitude
        assert abs(expectile(d, tau).mu - ref) <= 1e-12 * magnitude, (d, tau)

    def test_random_laws(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            d = random_atomic(rng, max_atoms=40)
            for tau in _TAUS:
                self.check(d, tau)

    def test_ties_and_duplicates(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            d = random_law_with_ties(rng)
            for tau in _TAUS:
                self.check(d, tau)

    def test_thin_tails_of_a_large_sample(self):
        # with tau near 0 or 1 the root sits among a few extreme atoms of a
        # 1e5-point sample, where prefix-sum differences alone lose digits
        d = Empirical(np.random.default_rng(44).standard_t(3, 100_000))
        for tau in (1e-6, 1e-3, 1.0 - 1e-3, 1.0 - 1e-6):
            self.check(d, tau)

    def test_root_on_an_atom_is_exact(self):
        # weights 1/4, 1/2, 1/4 on -1, 0, 1 (exact in binary): the 1/2-expectile
        # is the middle atom
        d = FiniteAtomic([1.0, 0.0, -1.0, 0.0], np.full(4, 0.25))
        sol = expectile(d, 0.5)
        assert sol.mu == 0.0
        assert sol.p_star == d.cdf(0.0)

    def test_large_offsets(self):
        rng = np.random.default_rng(42)
        for offset in (1e8, -1e8):
            for _ in range(50):
                base = random_atomic(rng, max_atoms=20)
                d = FiniteAtomic(base._values + offset, base._weights)
                for tau in _TAUS:
                    self.check(d, tau)

    def test_extreme_scales(self):
        # the bisection stops at an absolute width of 1e-14, too coarse for a
        # law of size 1e-8, so the oracle runs at unit scale and is rescaled
        rng = np.random.default_rng(43)
        for lam in (1e-8, 1e-4, 1e4, 1e8):
            for _ in range(50):
                base = random_atomic(rng, max_atoms=20)
                d = FiniteAtomic(base._values * lam, base._weights)
                for tau in _TAUS:
                    self.check(d, tau, lam * bisection_expectile(base, tau),
                               lam * _magnitude(base))
                    self.check(base.scale(lam), tau, lam * bisection_expectile(base, tau),
                               lam * _magnitude(base))

    def test_uniform(self):
        for a, b in ((0.0, 1.0), (-3.0, 2.0), (1e8 - 2.0, 1e8 + 3.0), (-1e8 - 2.0, -1e8 + 3.0)):
            for tau in _TAUS:
                self.check(Uniform(a, b), tau)
        for lam in (1e-8, 1e8):
            for tau in _TAUS:
                self.check(Uniform(-3.0 * lam, 2.0 * lam), tau,
                           lam * bisection_expectile(Uniform(-3.0, 2.0), tau), 3.0 * lam)

    def test_other_laws_rejected(self):
        class Custom(Uniform):
            pass

        with pytest.raises(TypeError):
            expectile(object(), 0.5)
        assert expectile(Custom(0.0, 1.0), 0.5).mu == 0.5


class TestEnvelopes:
    """The two C-indexed envelope functionals and their cross-checks."""

    def test_u_at_one_is_neg_mean(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            d = random_atomic(rng)
            assert math.isclose(u_C(d, 1.0), -d.mean(), rel_tol=1e-14, abs_tol=1e-14)

    def test_u_on_dirac(self):
        for C in (0.1, 0.5, 0.9, 1.0):
            assert u_C(dirac(2.75), C) == pytest.approx(-2.75, abs=1e-12)

    def test_u_two_point_antiderivative_oracle(self):
        # the density weight C/h(u)^2 integrates in closed form, h(u) = C + (1-C)u,
        # so the mass above p is C/(1-C) * (1/h(p) - 1); the payoff is x1 below
        # p and x2 above, giving an independent route to the same number
        for C in (0.3, 0.5, 0.8):
            for x1, x2, p in ((0.0, 1.0, 0.5), (-2.0, 3.0, 0.25), (-1.0, 4.0, 0.7)):
                h = C + (1.0 - C) * p
                above = C / (1.0 - C) * (1.0 / h - 1.0)
                expected = -(x1 * (1.0 - above) + x2 * above)
                assert u_C(two_point(x1, x2, p), C) == pytest.approx(expected, abs=1e-12)
        assert u_C(two_point(0.0, 1.0, 0.5), 0.5) == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_l_at_one_is_neg_mean(self):
        d = Empirical([-2.0, 0.5, 1.0, 6.0])
        assert l_C(d, 1.0) == pytest.approx(-d.mean(), abs=1e-12)

    def test_l_two_point_closed_form(self):
        for C in (0.2, 0.5, 0.8, 1.0):
            for p in (0.1, 0.4, 0.9):
                got = l_C(two_point(0.0, 1.0, p), C)
                want = -C * (1.0 - p) / (C * (1.0 - p) + p)
                assert got == pytest.approx(want, abs=1e-12)

    def test_l_below_u(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            d = random_atomic(rng)
            for C in (0.2, 0.6, 1.0):
                assert l_C(d, C) <= u_C(d, C) + 1e-10

    def test_c_validation(self):
        d = Uniform(0.0, 1.0)
        for fn in (u_C, l_C, min_nu_over_mp):
            with pytest.raises(ValueError):
                fn(d, 0.0)
            with pytest.raises(ValueError):
                fn(d, 1.2)


class TestMinNuOverMp:
    def test_minimum_equals_expectile(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            d = random_atomic(rng)
            for C in (0.1, 0.5, 0.9):
                p_opt, value = min_nu_over_mp(d, C)
                mu = expectile(d, C / (C + 1.0)).mu
                assert abs(value - mu) <= 1e-8 * (1.0 + abs(mu))
                assert 0.0 < p_opt < 1.0

    def test_argmin_on_continuous_law(self):
        # strictly increasing CDF, so the minimizing p is pinned down
        d = Uniform(-1.0, 2.0)
        C = 0.4
        p_opt, value = min_nu_over_mp(d, C)
        sol = expectile(d, C / (C + 1.0))
        assert value == pytest.approx(sol.mu, abs=1e-8)
        assert p_opt == pytest.approx(d.cdf(sol.mu), abs=1e-6)

    def test_never_below_the_golden_section(self, monkeypatch):
        # the closed form reads the ladder alone; the expectile is not called
        def no_expectile(*args):
            raise AssertionError("min_nu_over_mp called expectile")
        monkeypatch.setattr("elicitrisk.risk.expectile", no_expectile)
        rng = np.random.default_rng(12)
        laws = [random_atomic(rng) for _ in range(30)] + [random_law_with_ties(rng) for _ in range(30)]
        for d in laws:
            for C in (0.05, 0.5, 0.95):
                p_opt, value = min_nu_over_mp(d, C)
                p_gold, v_gold = golden_min_nu_over_mp(d, C)
                assert 0.0 < p_opt < 1.0
                assert value <= v_gold + 1e-15 * (1.0 + abs(v_gold))
                assert v_gold - value <= 1e-8 * (1.0 + abs(value))
                assert value == nu(mp_measure(p_opt, C), d)

    def test_uniform_closed_form(self):
        for a, b in ((0.0, 1.0), (-3.0, 2.0), (1e8, 1e8 + 5.0)):
            for C in (1e-12, 0.1, 0.5, 0.9, 1.0):
                p_opt, value = min_nu_over_mp(Uniform(a, b), C)
                assert p_opt == math.sqrt(C) / (1.0 + math.sqrt(C))
                assert value == nu(mp_measure(p_opt, C), Uniform(a, b))
                if 0.1 <= C < 1.0:  # at C = 1 every p minimizes
                    p_gold, v_gold = golden_min_nu_over_mp(Uniform(a, b), C)
                    assert value <= v_gold + 1e-15 * (1.0 + abs(v_gold))
                    # at 1e8 the objective's rounding hides p from the search
                    if abs(a) < 1e3:
                        assert abs(p_opt - p_gold) <= 1e-6

    def test_degenerate_cases_stay_inside(self):
        # a point mass, and C = 1, make every p a minimizer at the mean
        for d, C in ((dirac(2.5), 0.3), (dirac(-1e8), 1e-12), (Empirical([0.0, 1.0, 4.0]), 1.0)):
            p_opt, value = min_nu_over_mp(d, C)
            assert p_opt == 0.5
            assert value == pytest.approx(d.mean(), rel=1e-15)

    def test_offsets_scales_and_extreme_c(self):
        # the identity with the expectile at tau = C / (1 + C), to the
        # rounding of the law's own magnitude
        rng = np.random.default_rng(13)
        for shift, lam in ((1e8, 1.0), (-1e8, 1.0), (0.0, 1e-8), (0.0, 1e8), (1e8, 1e4)):
            for _ in range(20):
                base = random_atomic(rng, max_atoms=20)
                d = base.scale(lam).shift(shift)
                magnitude = abs(shift) + lam * max(abs(base.support_min()), abs(base.support_max()))
                for C in (1e-12, 0.3, 1.0 - 1e-12):
                    _, value = min_nu_over_mp(d, C)
                    mu = expectile(d, C / (C + 1.0)).mu
                    assert abs(value - mu) <= 1e-12 * magnitude, (d, C)

    def test_family_dominates_uc(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            d = random_atomic(rng)
            for C in (0.3, 0.7):
                _, value = min_nu_over_mp(d, C)
                assert nu(uc_measure(C), d) <= value + 1e-9


class TestEvaluate:
    def test_neg_mean(self):
        d = Empirical([-1.0, 2.0, 5.0])
        assert NegMean().evaluate(d) == -d.mean()

    def test_spectral_atom_matches_es(self):
        d = Empirical([-3.0, -0.5, 1.0, 2.5])
        for a in (0.2, 0.6):
            assert SpectralRisk(delta(a)).evaluate(d) == es(d, a)

    def test_singleton_family(self):
        d = Empirical([-1.0, 0.0, 4.0])
        assert InfOverFamily((delta(1.0),)).evaluate(d) == pytest.approx(-d.mean(), abs=1e-14)

    def test_family_takes_worst_member(self):
        d = Empirical([-3.0, 0.0, 1.0, 6.0])
        fam = InfOverFamily((delta(0.3), delta(1.0)))
        assert fam.evaluate(d) == -min(nu(delta(0.3), d), nu(delta(1.0), d))

    def test_expectile_functional(self):
        d = Empirical([-2.0, 1.0, 3.0])
        assert ExpectileRisk(0.25).evaluate(d) == -expectile(d, 0.25).mu

    def test_var_es_functionals(self):
        d = Empirical([-3.0, -1.0, 2.0])
        assert VaR(0.4).evaluate(d) == var(d, 0.4)
        assert ES(0.4).evaluate(d) == es(d, 0.4)

    def test_free_function_dispatch(self):
        d = Empirical([0.5, 1.5])
        rf = VaR(0.3)
        assert evaluate(rf, d) == rf.evaluate(d)

    def test_frozen_and_validated(self):
        rf = VaR(0.2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rf.alpha = 0.5
        with pytest.raises(ValueError):
            VaR(0.0)
        with pytest.raises(ValueError):
            ES(1.5)
        with pytest.raises(ValueError):
            ExpectileRisk(1.0)
        with pytest.raises(ValueError):
            InfOverFamily(())


class TestCoherenceCheck:
    def test_es_clean(self):
        rep = coherence_check(ES(0.3), trials=300, seed=0)
        assert rep.ok
        assert rep.violations == []
        assert rep.checks == {
            "subadditivity": 300,
            "homogeneity": 1200,
            "translation": 900,
            "monotonicity": 300,
        }
        assert rep.trials == 300 and rep.max_states == 8

    def test_low_expectile_clean(self):
        assert coherence_check(ExpectileRisk(0.25), trials=200, seed=1).ok

    def test_neg_mean_clean(self):
        assert coherence_check(NegMean(), trials=100, seed=2).ok

    def test_var_subadditivity_failures(self):
        # levels below 1/max_states degenerate to the worst case, so widen
        rep = coherence_check(VaR(0.1), trials=1000, seed=0, max_states=16)
        bad = rep.violations_for("subadditivity")
        assert len(bad) >= 1
        assert not rep.ok
        assert {v.axiom for v in rep.violations} == {"subadditivity"}
        v = bad[0]
        x = Empirical(np.array(v.states_x))
        y = Empirical(np.array(v.states_y))
        joint = Empirical(np.array(v.states_x) + np.array(v.states_y))
        rf = VaR(0.1)
        assert rf.evaluate(joint) == pytest.approx(v.lhs, abs=1e-12)
        assert rf.evaluate(x) + rf.evaluate(y) == pytest.approx(v.rhs, abs=1e-12)
        assert v.lhs > v.rhs + rep.tolerance

    def test_high_expectile_subadditivity_failures(self):
        rep = coherence_check(ExpectileRisk(0.75), trials=400, seed=0)
        assert len(rep.violations_for("subadditivity")) >= 1
        assert rep.violations_for("homogeneity") == []
        assert rep.violations_for("translation") == []
        assert rep.violations_for("monotonicity") == []

    def test_deterministic(self):
        a = coherence_check(ExpectileRisk(0.75), trials=50, seed=9)
        b = coherence_check(ExpectileRisk(0.75), trials=50, seed=9)
        assert a.violations == b.violations
        assert a.checks == b.checks

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            coherence_check(NegMean(), trials=0)
        with pytest.raises(ValueError):
            coherence_check(NegMean(), max_states=1)
        # no comparison against a NaN or infinite tolerance records a violation
        for bad in BAD_TOLERANCES:
            with pytest.raises(ValueError, match="tol must be finite and positive"):
                coherence_check(NegMean(), trials=1, tol=bad)

    @pytest.mark.parametrize("seed", [-1, -2**40, "5", (1, 2), [3], 1.0, None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="^seed must be (non-negative$|an integer, got )"):
            coherence_check(NegMean(), trials=1, seed=seed)

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_states": 8.5}, "max_states must be an integer, got 8.5"),
        ({"max_states": 1}, "max_states must be at least 2"),
        ({"trials": 2.5}, "trials must be an integer, got 2.5"),
        ({"trials": "3"}, "trials must be an integer, got '3'"),
        ({"trials": 0}, "trials must be at least 1")])
    def test_counts_must_be_integers(self, kwargs, message):
        # max_states=8.5 ran and reported 8.5; trials=2.5 raised numpy's TypeError
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            coherence_check(NegMean(), **kwargs)

    def test_integer_counts_of_any_type_report_python_ints(self):
        rep = coherence_check(ExpectileRisk(0.75), trials=np.int64(3), max_states=np.uint8(5))
        assert rep == coherence_check(ExpectileRisk(0.75), trials=3, max_states=5)
        assert type(rep.trials) is int and type(rep.max_states) is int
        assert all(type(v) is int for v in rep.checks.values())
        json.dumps(rep.checks)

    def test_integer_seeds_of_any_type_give_one_report(self):
        reports = [coherence_check(ExpectileRisk(0.75), trials=40, seed=seed)
                   for seed in (7, np.int64(7), np.uint32(7))]
        assert reports[0] == reports[1] == reports[2]

    def test_trials_fit_one_32_bit_word(self):
        # raised before anything is drawn or allocated
        with pytest.raises(ValueError, match="trials must be at most"):
            coherence_check(NegMean(), trials=2**32)

    def test_a_violation_replays_from_its_trial_generator(self):
        seed, max_states = 3, 16
        rep = coherence_check(VaR(0.1), trials=1500, seed=seed, max_states=max_states)
        assert rep.violations
        for v in rep.violations:
            rng = np.random.default_rng((seed, v.trial))
            n = rng.integers(2, max_states + 1)
            x, y = rng.uniform(-10.0, 10.0, n), rng.uniform(-10.0, 10.0, n)
            assert v.states_x == tuple(x) and v.states_y == tuple(y)


class TestFunctionalJson:
    def test_round_trips(self):
        cases = [
            VaR(0.2),
            ES(0.35),
            ExpectileRisk(0.6),
            NegMean(),
            SpectralRisk(uc_measure(0.4)),
            InfOverFamily((delta(0.3), mp_measure(0.2, 0.7))),
        ]
        for rf in cases:
            spec = functional_to_json(rf)
            again = functional_from_json(spec)
            assert functional_to_json(again) == spec
            assert type(again) is type(rf)

    def test_from_string(self):
        assert functional_from_json('{"type": "var", "level": 0.25}') == VaR(0.25)

    def test_errors(self):
        with pytest.raises(ValueError, match="'type'"):
            functional_from_json([1, 2])
        with pytest.raises(ValueError, match="level"):
            functional_from_json({"type": "es"})
        with pytest.raises(ValueError, match="level must be a number, got None"):
            functional_from_json({"type": "var", "level": None})
        with pytest.raises(ValueError, match="measure"):
            functional_from_json({"type": "spectral"})
        with pytest.raises(ValueError, match="nonempty"):
            functional_from_json({"type": "inf_family", "measures": []})
        with pytest.raises(ValueError, match="unknown"):
            functional_from_json({"type": "cvar", "level": 0.5})
        with pytest.raises(TypeError):
            functional_to_json(object())
        for kind in ([1], {"a": 1}, None, 3):
            with pytest.raises(ValueError, match="unknown functional type"):
                functional_from_json({"type": kind})
        # a key its type does not take
        one = {"atoms": [[1.0, 1.0]]}
        for spec, extra in (({"type": "negmean", "level": 0.3}, "level"),
                            ({"type": "var", "level": 0.3, "bogus": 1}, "bogus"),
                            ({"type": "es", "level": 0.3, "measure": one}, "measure"),
                            ({"type": "spectral", "measure": one, "level": 0.3}, "level"),
                            ({"type": "inf_family", "measures": [one], "level": 0.3}, "level")):
            with pytest.raises(ValueError, match=re.escape(
                    f"unknown keys for functional type {spec['type']!r}: [{extra!r}]")):
                functional_from_json(spec)
