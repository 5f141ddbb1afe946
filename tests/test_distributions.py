"""Distribution layer: fixed values plus the quantile-machinery properties."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elicitrisk import (Empirical, FiniteAtomic, Uniform, dirac,
                        empirical_from_csv, mix, two_point)
from elicitrisk.distributions import _Stack

from helpers import ladder_bytes, random_atomic, random_law_pair, stacked_mix, tail_sum_gap


class TestCdf:
    def test_two_point_step(self):
        d = two_point(0.0, 1.0, 0.5)
        assert d.cdf(0.0) == 0.5
        assert d.cdf(-1.0) == 0.0
        assert d.cdf(0.5) == 0.5
        assert d.cdf(1.0) == 1.0
        assert d.cdf(2.0) == 1.0

    def test_right_continuity_at_atoms(self):
        d = Empirical([1.0, 2.0, 2.0, 5.0])
        # cdf at the atom includes its weight; just below it does not
        assert d.cdf(2.0) == 0.75
        assert d.cdf(2.0 - 1e-12) == 0.25

    def test_uniform_identity(self):
        assert Uniform(0.0, 1.0).cdf(0.3) == 0.3
        assert Uniform(0.0, 1.0).cdf(-0.1) == 0.0
        assert Uniform(0.0, 1.0).cdf(1.5) == 1.0


class TestQuantile:
    def test_two_point_breakpoint_convention(self):
        d = two_point(0.0, 1.0, 0.5)
        assert d.quantile(0.5) == 0.0  # F(0) = 0.5 already reaches the level
        assert d.quantile(0.6) == 1.0
        assert d.quantile(1.0) == 1.0

    def test_empirical_example(self):
        assert Empirical([1.0, 2.0, 3.0]).quantile(1.0 / 3.0) == 1.0

    @pytest.mark.parametrize("bad", [0.0, -0.2, 1.0 + 1e-9, 2.0])
    def test_rejects_bad_levels(self, bad):
        with pytest.raises(ValueError):
            two_point(0.0, 1.0, 0.5).quantile(bad)

    @pytest.mark.parametrize("d", [
        two_point(0.0, 1.0, 0.5),
        Empirical([-3.0, -1.0, 2.0, 2.0]),
        FiniteAtomic([-2.0, 0.5, 4.0], [0.2, 0.5, 0.3]),
        Uniform(-1.0, 2.0),
    ])
    def test_nondecreasing_on_level_grid(self, d):
        vs = np.linspace(1e-6, 1.0, 1000)
        qs = [d.quantile(float(v)) for v in vs]
        assert all(a <= b for a, b in zip(qs, qs[1:]))

    def test_left_continuous_at_breakpoints(self):
        d = FiniteAtomic([-2.0, 0.5, 4.0], [0.2, 0.5, 0.3])
        cum = np.cumsum([w for _, w in d.atoms()])
        for c in cum:
            c = min(float(c), 1.0)
            assert d.quantile(c) == d.quantile(c - 1e-12)
            if c < 1.0:
                assert d.quantile(c + 1e-12) >= d.quantile(c)

    def test_galois_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = random_atomic(rng)
            for v in rng.uniform(1e-6, 1.0, 25):
                assert d.cdf(d.quantile(float(v))) >= float(v)


class TestPartialQuantileIntegral:
    def test_zero_at_zero(self):
        for d in (two_point(0.0, 1.0, 0.5), Uniform(-1.0, 2.0), dirac(3.0)):
            assert d.partial_quantile_integral(0.0) == 0.0

    def test_two_point_example(self):
        assert two_point(0.0, 1.0, 0.5).partial_quantile_integral(0.75) == 0.25

    def test_uniform_example(self):
        assert Uniform(0.0, 1.0).partial_quantile_integral(0.5) == 0.125

    def test_riemann_oracle(self):
        # independent reimplementation of the inverse plus a midpoint sum
        rng = np.random.default_rng(7)
        for _ in range(10):
            d = random_atomic(rng)
            vals = np.array([v for v, _ in d.atoms()])
            cum = np.cumsum([w for _, w in d.atoms()])
            p = float(rng.uniform(0.05, 1.0))
            n = 200_000
            vs = (np.arange(n) + 0.5) / n * p
            idx = np.searchsorted(cum, vs, side="left")
            riemann = float(vals[np.minimum(idx, len(vals) - 1)].sum() * (p / n))
            assert abs(d.partial_quantile_integral(p) - riemann) < 1e-3

    def test_full_integral_is_mean(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = random_atomic(rng)
            direct = float(np.dot([v for v, _ in d.atoms()], [w for _, w in d.atoms()]))
            assert abs(d.partial_quantile_integral(1.0) - direct) < 1e-14
            assert d.mean() == d.partial_quantile_integral(1.0)

    def test_tail_sum_split(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            d = random_atomic(rng)
            for p in rng.uniform(0.01, 1.0, 4):
                assert tail_sum_gap(d, float(p)) <= 1e-12


class TestConstruction:
    def test_merge_and_canonicalize(self):
        d = FiniteAtomic([1.0, 1.0, 2.0], [0.25, 0.25, 0.5])
        assert d.atoms() == [(1.0, 0.5), (2.0, 0.5)]
        assert d.n_atoms == 2

    def test_zero_weight_atoms_dropped(self):
        d = FiniteAtomic([0.0, 1.0], [0.0, 1.0])
        assert d.atoms() == [(1.0, 1.0)]

    def test_vanishing_weights_are_dropped(self):
        # 0.5 + 1e-17 is 0.5: the middle atom adds nothing to the cumulative weight
        d = FiniteAtomic([0.0, 1.0, 2.0], [0.5, 1e-17, 0.5])
        assert d.atoms() == [(0.0, 0.5), (2.0, 0.5)]
        assert d.n_atoms == 2
        # at the top, the pinned atom before a vanishing one stays
        top = FiniteAtomic([0.0, 1.0, 2.0], [0.25, 0.75, 1e-17])
        assert top.atoms() == [(0.0, 0.25), (1.0, 0.75)]
        m = mix(two_point(0.0, 1.0, 0.5), two_point(2.0, 3.0, 0.5), 5e-324)
        assert m.atoms() == [(2.0, 0.5), (3.0, 0.5)]
        for law in (d, top, m):
            assert np.all(law._weights > 0.0)

    def test_cumulative_weights_are_clipped_at_one(self):
        # 0.5 + (0.5 + 5e-13) passes 1 before the last atom: the law ends there,
        # and no atom is left with a negative weight
        d = FiniteAtomic([0.0, 1.0, 2.0], [0.5, 0.5 + 5e-13, 1e-14])
        assert d.atoms() == [(0.0, 0.5), (1.0, 0.5)]
        assert d.quantile(1.0) == 1.0
        m = mix(d, two_point(0.0, 3.0, 0.5), 0.5)
        assert m.atoms() == [(0.0, 0.5), (1.0, 0.25), (3.0, 0.25)]
        # the stack builder clips its rows the same way
        s = _Stack._from_sorted(np.array([[0.0, 1.0, 2.0]]), np.array([[0.5, 1.0 + 5e-13,
                                                                       1.0 + 5.1e-13]]))
        assert s.atoms.tolist() == [2]
        assert s.cum.tolist() == [0.5, 1.0] and s.weights.tolist() == [0.5, 0.5]
        for law in (d, m):
            assert np.all(law._weights > 0.0)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            FiniteAtomic([0.0, 1.0], [0.4, 0.7])
        with pytest.raises(ValueError):
            FiniteAtomic([0.0, 1.0], [-0.1, 1.1])
        with pytest.raises(ValueError):
            FiniteAtomic([], [])
        with pytest.raises(ValueError):
            FiniteAtomic([np.inf], [1.0])
        # weights whose total would overflow: an error, not a numpy warning
        with pytest.raises(ValueError, match="lie in \\[0, 1\\]"):
            FiniteAtomic([0.0, 1.0], [1e308, 1e308])

    def test_spread_must_be_finite(self):
        # finite atoms whose distance overflows a double, from every constructor
        for make in (lambda: FiniteAtomic([-1e308, 1e308], [0.5, 0.5]),
                     lambda: Empirical([1e308, -1e308, 0.0]),
                     lambda: two_point(-1e308, 1e308, 0.5),
                     lambda: FiniteAtomic([0.0, 1e308], [0.5, 0.5]).shift(1e308),
                     lambda: FiniteAtomic([-1.0, 1e308], [0.5, 0.5]).scale(2.0)):
            with pytest.raises(ValueError, match="finite range"):
                make()

    def test_two_point_collapses(self):
        assert two_point(2.0, 2.0, 0.3).atoms() == [(2.0, 1.0)]
        assert two_point(0.0, 1.0, 1.0).atoms() == [(0.0, 1.0)]
        assert two_point(0.0, 1.0, 0.0).atoms() == [(1.0, 1.0)]

    def test_two_point_rejects_unsorted(self):
        with pytest.raises(ValueError):
            two_point(1.0, 0.0, 0.5)

    def test_point_laws_reject_non_finite(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                dirac(bad)
            with pytest.raises(ValueError, match="finite"):
                two_point(bad, 1.0, 0.5)
            with pytest.raises(ValueError, match="finite"):
                two_point(0.0, bad, 0.5)

    def test_empirical_exact_ladder(self):
        d = Empirical([3.0, 1.0, 2.0, 1.0])
        assert d.atoms() == [(1.0, 0.5), (2.0, 0.25), (3.0, 0.25)]
        assert list(d.samples) == [1.0, 1.0, 2.0, 3.0]

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            Uniform(1.0, 1.0)
        with pytest.raises(ValueError):
            Uniform(2.0, 1.0)
        with pytest.raises(ValueError, match="finite b - a"):
            Uniform(-1e308, 1e308)

    def test_shift_scale(self):
        d = FiniteAtomic([-1.0, 2.0], [0.25, 0.75])
        assert d.shift(1.5).atoms() == [(0.5, 0.25), (3.5, 0.75)]
        assert d.scale(2.0).atoms() == [(-2.0, 0.25), (4.0, 0.75)]
        assert d.scale(0.0).atoms() == [(0.0, 1.0)]
        with pytest.raises(ValueError):
            d.scale(-1.0)


class TestMix:
    def test_dirac_mixture(self):
        d = mix(dirac(0.0), dirac(1.0), 0.5)
        assert d.atoms() == [(0.0, 0.5), (1.0, 0.5)]

    def test_idempotent(self):
        d = FiniteAtomic([0.0, 3.0], [0.4, 0.6])
        m = mix(d, d, 0.3)
        for (v, w), (mv, mw) in zip(d.atoms(), m.atoms()):
            assert v == mv and abs(w - mw) < 1e-15

    def test_weight_arithmetic(self):
        m = mix(two_point(0.0, 1.0, 0.5), dirac(1.0), 0.5)
        assert m.atoms() == [(0.0, 0.25), (1.0, 0.75)]

    def test_rejects_continuous(self):
        with pytest.raises(ValueError):
            mix(Uniform(0.0, 1.0), dirac(0.0), 0.5)

    def test_rejects_a_bad_weight(self):
        for p in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match="p must lie in"):
                mix(dirac(0.0), dirac(1.0), p)

    def test_rejects_a_range_past_the_largest_double(self):
        with pytest.raises(ValueError, match="finite range"):
            mix(dirac(-1e308), dirac(1e308), 0.5)

    def test_merged_ladder_equals_the_general_merge(self):
        # shared atoms, p = 0 and 1, a p whose weights underflow, offsets of
        # +-1e8 and scales from 1e-8 to 1e8: every ladder array, bit for bit
        rng = np.random.default_rng(50)
        for _ in range(400):
            d0, d1 = random_law_pair(rng)
            ps = np.array([0.0, 1.0, 0.25, 0.5, 0.75, float(rng.uniform()), 5e-324])
            rows = stacked_mix(*(np.tile(a, (ps.size, 1)) for a in
                                 (d0._values, d0._weights, d1._values, d1._weights)), ps)
            for p, row in zip(ps, rows.laws()):
                merged = mix(d0, d1, p)
                assert ladder_bytes(merged) == ladder_bytes(row)
                assert merged._cum[-1] == 1.0

    def test_shared_atoms_sum_their_weights(self):
        m = mix(FiniteAtomic([0.0, 1.0, 2.0], [0.25, 0.5, 0.25]), two_point(1.0, 3.0, 0.5), 0.5)
        assert m.atoms() == [(0.0, 0.125), (1.0, 0.5), (2.0, 0.125), (3.0, 0.25)]


class TestUniformMoments:
    def test_partial_moments_closed_form(self):
        d = Uniform(-1.0, 2.0)
        # interior: integrate (b - x)^2 / (2 (b - a)) and its mirror
        assert abs(d.upper_partial_moment(0.5) - 1.5**2 / 6.0) < 1e-15
        assert abs(d.lower_partial_moment(0.5) - 1.5**2 / 6.0) < 1e-15
        assert d.upper_partial_moment(3.0) == 0.0
        assert d.lower_partial_moment(-2.0) == 0.0
        assert abs(d.upper_partial_moment(-2.0) - (d.mean() + 2.0)) < 1e-15

    def test_atomic_partial_moments(self):
        d = FiniteAtomic([0.0, 2.0], [0.5, 0.5])
        assert d.upper_partial_moment(1.0) == 0.5
        assert d.lower_partial_moment(1.0) == 0.5

    def test_a_square_past_the_largest_double(self):
        # (b - x)^2 overflows, the moment itself does not; exact rationals as reference
        def exact(a, b, x, upper):
            a, b, x = Fraction(a), Fraction(b), Fraction(x)
            return float(((b - x) if upper else (x - a)) ** 2 / (2 * (b - a)))

        assert Uniform(0.3, 2.6e299).upper_partial_moment(1.0) == pytest.approx(
            exact(0.3, 2.6e299, 1.0, True), rel=1e-15)
        assert Uniform(-1e300, 2e299).lower_partial_moment(1e299) == pytest.approx(
            exact(-1e300, 2e299, 1e299, False), rel=1e-15)

    def test_a_moment_past_the_largest_double_is_an_error(self):
        d = FiniteAtomic([-2e299, 0.9, 1.7e308], [0.1, 0.2, 0.7])
        with pytest.raises(ValueError, match="largest double"):
            d.upper_partial_moment(-1.7e308)
        assert d.lower_partial_moment(-1.7e308) == 0.0
        with pytest.raises(ValueError, match="largest double"):
            Uniform(1e308, 1.5e308).upper_partial_moment(-1e308)
        with pytest.raises(ValueError, match="largest double"):
            Uniform(-1.5e308, -1e308).lower_partial_moment(1e308)


class TestPrefixSums:
    """The ladder of centred prefix sums behind the O(log n) lookups."""

    @staticmethod
    def direct(d, x):
        vals = np.array([v for v, _ in d.atoms()])
        ws = np.array([w for _, w in d.atoms()])
        return (float(np.dot(ws, np.clip(vals - x, 0.0, None))),
                float(np.dot(ws, np.clip(x - vals, 0.0, None))))

    def test_every_constructor_sets_it(self):
        laws = [FiniteAtomic([3.0, -1.0, 3.0], [0.25, 0.5, 0.25]),
                FiniteAtomic._from_cum(np.array([0.0, 2.0]), np.array([0.5, 1.0])),
                Empirical([2.0, -1.0, 2.0, 5.0]), two_point(-1.0, 4.0, 0.3), dirac(7.0)]
        # a shift or scale whose rounding merges neighbours, the first atom among them
        close = FiniteAtomic(1e8 + np.array([0.0, 1.0, 3.0, 4.0]) * np.spacing(1e8),
                             [0.1, 0.2, 0.3, 0.4])
        laws += [close.shift(1e300), close.scale(0.7)]
        assert [d.n_atoms for d in laws[-2:]] == [1, 3]
        for d in laws:
            x = d._values
            want = np.cumsum(d._weights * (x - x[0]))
            assert d._csum.shape == x.shape
            assert np.allclose(d._csum, want, rtol=0.0, atol=1e-15)
            assert d._csum[0] == 0.0

    def test_shift_reuses_and_scale_multiplies(self):
        d = FiniteAtomic([-1.0, 0.5, 2.0], [0.2, 0.3, 0.5])
        assert np.shares_memory(d.shift(1e8)._csum, d._csum)
        assert np.array_equal(d.scale(3.0)._csum, 3.0 * d._csum)

    def test_partial_moments_match_direct_sums(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            d = random_atomic(rng, max_atoms=30)
            xs = np.concatenate((rng.uniform(-7.0, 7.0, 5), d._values[:3]))
            for x in xs:
                up, down = self.direct(d, float(x))
                assert abs(d.upper_partial_moment(x) - up) <= 1e-13
                assert abs(d.lower_partial_moment(x) - down) <= 1e-13

    @pytest.mark.parametrize("offset", [0.0, 1e8, -1e8])
    def test_partial_moments_in_thin_tails(self, offset):
        # within 1e-14 relative of math.fsum over the law's own atoms, from
        # level 1e-5 to 1 - 1e-5; prefix differences were 5.7e-5 off here
        d = Empirical(np.random.default_rng(5).standard_t(3, 100_000) + offset)
        v, w = (np.array(c) for c in zip(*d.atoms()))
        for level in (1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0 - 1e-5):
            x = d.quantile(level)
            up = math.fsum((w[v > x] * (v[v > x] - x)).tolist())
            down = math.fsum((w[v < x] * (x - v[v < x])).tolist())
            assert abs(d.upper_partial_moment(x) - up) <= 1e-14 * up
            assert abs(d.lower_partial_moment(x) - down) <= 1e-14 * down

    def test_partial_quantile_integral_at_ladder_levels(self):
        d = FiniteAtomic([-2.0, 1.0, 4.0], [0.25, 0.25, 0.5])
        for p, want in ((0.25, -0.5), (0.5, -0.25), (0.375, -0.375), (1.0, 1.75)):
            assert d.partial_quantile_integral(p) == want


class TestMovedAtoms:
    """shift and scale merge atoms that rounding makes equal."""

    def test_shift_merges_atoms_that_round_together(self):
        d = FiniteAtomic([1e-17, 2e-17, 1.0], [0.25, 0.25, 0.5]).shift(3.0)
        assert d.atoms() == [(3.0, 0.5), (4.0, 0.5)]
        assert d.n_atoms == 2
        assert d.cdf(3.0) == 0.5 and d.quantile(0.5) == 3.0 and d.quantile(0.75) == 4.0

    def test_scale_merges_atoms_that_underflow_together(self):
        d = FiniteAtomic([1e-300, 2e-300], [0.5, 0.5]).scale(1e-30)
        assert d.atoms() == [(0.0, 1.0)]
        assert d.n_atoms == 1
        assert d.mean() == 0.0


class TestNonFinitePoints:
    LAWS = (two_point(0.0, 1.0, 0.5), Empirical([-1.0, 2.0, 2.0]), Uniform(0.0, 1.0))

    def test_cdf_rejects_nan(self):
        for d in self.LAWS:
            with pytest.raises(ValueError, match="nan"):
                d.cdf(math.nan)
            assert d.cdf(-math.inf) == 0.0
            assert d.cdf(math.inf) == 1.0

    def test_partial_moments_need_a_finite_point(self):
        for d in self.LAWS:
            for f in (d.upper_partial_moment, d.lower_partial_moment):
                for x in (math.nan, math.inf, -math.inf):
                    with pytest.raises(ValueError, match="finite"):
                        f(x)


@st.composite
def atomic_laws(draw):
    n = draw(st.integers(1, 8))
    values = draw(st.lists(st.floats(-50.0, 50.0, allow_nan=False,
                                     allow_infinity=False),
                           min_size=n, max_size=n))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    w = np.asarray(raw)
    return FiniteAtomic(values, w / w.sum())


@settings(max_examples=60, deadline=None)
@given(d=atomic_laws(), v=st.floats(1e-6, 1.0))
def test_galois_property(d, v):
    assert d.cdf(d.quantile(v)) >= v


@settings(max_examples=60, deadline=None)
@given(d=atomic_laws(), c=st.floats(-10.0, 10.0), v=st.floats(1e-6, 1.0))
def test_shift_equivariance(d, c, v):
    assert d.shift(c).quantile(v) == d.quantile(v) + c


class TestCsvIngestion:
    def test_happy_path(self, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_text("y\n1.5\n-0.5\n1.5\n")
        d = empirical_from_csv(path)
        assert [v for v, _ in d.atoms()] == [-0.5, 1.5]
        assert d.atoms()[0][1] == 1.0 / 3.0
        assert abs(d.atoms()[1][1] - 2.0 / 3.0) < 1e-15
        assert d.cdf(1.5) == 1.0

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("value\n1.0\n")
        with pytest.raises(ValueError, match="column named 'y'"):
            empirical_from_csv(path)

    def test_unparseable_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y\n1.0\noops\n")
        with pytest.raises(ValueError, match=":3:"):
            empirical_from_csv(path)

    def test_error_names_the_physical_line(self, tmp_path):
        # the csv module skips the blank line; the error still names line 4
        path = tmp_path / "bad.csv"
        path.write_text("y\n1.0\n\noops\n")
        with pytest.raises(ValueError, match=":4: could not parse 'oops'"):
            empirical_from_csv(path)

    def test_blank_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y\n1.0\n \n2.0\n")
        with pytest.raises(ValueError, match="missing value"):
            empirical_from_csv(path)

    def test_no_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("y\n")
        with pytest.raises(ValueError, match="no data rows"):
            empirical_from_csv(path)
