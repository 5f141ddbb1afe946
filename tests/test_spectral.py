"""Measures on the unit interval: weight profiles, interval masses, functionals."""

import math
import tracemalloc

import numpy as np
import pytest

from elicitrisk import (FiniteAtomic, SpectralMeasure, UcDensity, Uniform, dirac,
                        interval_mass, measure_from_json, measure_to_json,
                        mp_measure, nu, nu_via_U, spectral_fn, two_point,
                        uc_measure)

from helpers import BAD_TOLERANCES, overlap_nu, random_atomic, random_law_with_ties, random_measure


def delta(alpha: float) -> SpectralMeasure:
    return SpectralMeasure(atoms=[(alpha, 1.0)])


class TestConstruction:
    def test_atom_validation(self):
        with pytest.raises(ValueError):
            SpectralMeasure(atoms=[(0.0, 1.0)])
        with pytest.raises(ValueError):
            SpectralMeasure(atoms=[(1.5, 1.0)])
        with pytest.raises(ValueError):
            SpectralMeasure(atoms=[(0.5, 0.0), (1.0, 1.0)])
        with pytest.raises(ValueError):
            SpectralMeasure(atom_at_zero=-0.1, atoms=[(1.0, 1.1)])
        # subnormal levels, where weight / level can overflow (here 0.6 / level
        # alone would not, but the merged 1.0 / level does), and weights past
        # 1, whose total can
        with pytest.raises(ValueError, match="no lower than"):
            SpectralMeasure(atoms=[(5e-324, 1.0)])
        with pytest.raises(ValueError, match="no lower than"):
            SpectralMeasure(atoms=[(4e-309, 0.6), (4e-309, 0.4)])
        with pytest.raises(ValueError, match="atom weight must lie in"):
            SpectralMeasure(atoms=[(0.5, 1e308), (1.0, 1e308)])

    def test_normalization_tolerance(self):
        with pytest.raises(ValueError):
            SpectralMeasure(atoms=[(0.5, 0.5), (1.0, 0.5 + 5e-10)])
        m = SpectralMeasure(atoms=[(0.5, 0.5), (1.0, 0.5 + 5e-11)])
        assert m.atoms[1][0] == 1.0

    def test_duplicate_levels_merge(self):
        m = SpectralMeasure(atoms=[(0.5, 0.25), (0.5, 0.25), (1.0, 0.5)])
        assert m.atoms == ((0.5, 0.5), (1.0, 0.5))

    def test_density_needs_uc_type(self):
        with pytest.raises(TypeError):
            SpectralMeasure(atoms=[(1.0, 0.5)], density=object())

    def test_mp_weights(self):
        p, C = 0.3, 0.5
        z = p * (1.0 - C) + C
        m = mp_measure(p, C)
        (a1, w1), (a2, w2) = m.atoms
        assert (a1, a2) == (p, 1.0)
        assert w1 == p * (1.0 - C) / z
        # weight at 1 is pinned to 1 - w1 so the masses sum exactly
        assert w1 + w2 == 1.0
        assert w2 == pytest.approx(C / z, abs=1e-15)
        assert mp_measure(0.3, 1.0).atoms == ((1.0, 1.0),)
        with pytest.raises(ValueError):
            mp_measure(0.0, 0.5)
        with pytest.raises(ValueError):
            mp_measure(0.5, 0.0)

    def test_mp_weights_at_tiny_c(self):
        # 1 - w1 rounds to 0 here; the weight at 1 is still C / z
        for C in (1e-17, 1e-300):
            for p in (0.05, 0.3, 0.95):
                (a1, w1), (a2, w2) = mp_measure(p, C).atoms
                assert (a1, a2) == (p, 1.0)
                assert w2 > 0.0
                assert w1 + w2 == pytest.approx(1.0, abs=1e-15)

    def test_mp_weights_keep_relative_accuracy(self):
        # the smaller weight is its own formula, the larger 1 minus it
        rng = np.random.default_rng(22)
        for _ in range(4000):
            p = float(rng.uniform(0.001, 0.999))
            C = float(10.0 ** rng.uniform(-17.0, 0.0))
            z = p * (1.0 - C) + C
            (a1, w1), (a2, w2) = mp_measure(p, C).atoms
            assert (a1, a2) == (p, 1.0)
            assert w1 + w2 == 1.0
            assert abs(w1 - p * (1.0 - C) / z) <= 4.5e-16 * w1
            assert abs(w2 - C / z) <= 4.5e-16 * w2

    def test_uc_measure_shape(self):
        m = uc_measure(0.4)
        assert m.atoms == ((1.0, 0.4),)
        assert m.density is not None and m.density.C == 0.4
        assert abs(m.density.mass() - 0.6) < 1e-15
        assert uc_measure(1.0).density is None
        assert uc_measure(1.0).atoms == ((1.0, 1.0),)

    def test_uc_density_values(self):
        f = UcDensity(0.4)
        for v in (0.1, 0.5, 0.9):
            h = 0.4 + 0.6 * v
            assert abs(float(f(v)) - 2.0 * 0.4 * 0.6 * v / h**3) < 1e-15
        with pytest.raises(ValueError):
            UcDensity(0.0)
        with pytest.raises(ValueError, match="finite 1 / C"):
            UcDensity(5e-324)

    def test_uc_density_at_a_tiny_C(self):
        # h^3 underflowed: nan at 0 and at C = 1e-300; the peak 1 / (3.375 C)
        # at v = C / 2 stays finite down to the smallest admissible C
        f = UcDensity(1e-300)
        assert f(0.0) == 0.0
        assert f(1e-300) == pytest.approx(2.5e299, rel=1e-15)
        C = 5.56268464626801e-309
        assert UcDensity(C)(C / 2.0) == pytest.approx(1.0 / (3.375 * C), rel=1e-15)
        assert np.array_equal(f(np.array([0.0, 1.0])), [0.0, 2e-300])

    def test_uc_density_domain(self):
        f = UcDensity(0.5)
        for bad in (-1.0, -5e-324, 1.0000000000000002, math.nan, math.inf, [0.5, -0.0, 2.0]):
            with pytest.raises(ValueError, match="v must lie in"):
                f(bad)


class TestSpectralFn:
    def test_point_mass_at_one_is_flat(self):
        m = delta(1.0)
        for u in (1e-6, 0.3, 0.9999, 1.0):
            assert spectral_fn(m, u) == 1.0

    def test_two_atom_piecewise_closed_form(self):
        for q in (0.2, 0.5, 0.8):
            for C in (0.3, 0.7, 1.0):
                m = mp_measure(q, C)
                z = q * (1.0 - C) + C
                for u in np.linspace(0.01, 1.0, 100):
                    u = float(u)
                    want = 1.0 / z if u <= q else C / z
                    assert math.isclose(spectral_fn(m, u), want, rel_tol=1e-13)

    def test_density_profile_closed_form(self):
        C = 0.45
        m = uc_measure(C)
        for u in np.linspace(0.01, 1.0, 50):
            u = float(u)
            h = u + C * (1.0 - u)
            assert math.isclose(spectral_fn(m, u), C / h**2, rel_tol=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            spectral_fn(delta(0.5), 0.0)
        with pytest.raises(ValueError):
            spectral_fn(delta(0.5), 1.0 + 1e-9)

    def test_nonincreasing_profiles(self):
        rng = np.random.default_rng(21)
        grid = np.linspace(1e-4, 1.0, 1000)
        for _ in range(12):
            m = random_measure(rng)
            g = [spectral_fn(m, float(u)) for u in grid]
            assert all(a >= b - 1e-12 for a, b in zip(g, g[1:]))


class TestIntervalMass:
    def test_total_mass_one(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            m = random_measure(rng)
            assert abs(interval_mass(m, 0.0, 1.0) - 1.0) <= 1e-10

    def test_point_mass_overlap_formula(self):
        m = delta(0.6)
        assert abs(interval_mass(m, 0.2, 0.5) - 0.3 / 0.6) < 1e-15
        assert abs(interval_mass(m, 0.5, 0.9) - 0.1 / 0.6) < 1e-15
        assert interval_mass(m, 0.7, 0.9) == 0.0

    def test_two_atom_tail_envelope(self):
        for p in (0.1, 0.4, 0.75):
            for C in (0.2, 0.6, 0.9):
                z = C * (1.0 - p) + p
                got = interval_mass(mp_measure(p, C), p, 1.0)
                assert abs(got - C * (1.0 - p) / z) < 1e-14

    def test_additivity(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            m = random_measure(rng)
            a, b, c = sorted(rng.uniform(0.0, 1.0, 3))
            lhs = interval_mass(m, a, b) + interval_mass(m, b, c)
            assert abs(lhs - interval_mass(m, a, c)) <= 1e-12

    def test_atom_at_zero_counts_only_from_zero(self):
        m = SpectralMeasure(atom_at_zero=0.25, atoms=[(1.0, 0.75)])
        assert abs(interval_mass(m, 0.0, 0.5) - (0.25 + 0.75 * 0.5)) < 1e-15
        assert abs(interval_mass(m, 1e-9, 0.5) - 0.75 * (0.5 - 1e-9)) < 1e-12

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            interval_mass(delta(0.5), 0.7, 0.2)


class TestArrayLevels:
    """Both profiles take arrays of levels: each entry is the scalar call's
    result, exactly where the measure has at most two atoms."""

    def measures(self, rng):
        for _ in range(40):
            yield random_measure(rng)
        for n in (3, 9, 40):
            w = rng.dirichlet(np.ones(n + 1))
            levels = rng.uniform(1e-3, 1.0, n).tolist()
            yield SpectralMeasure(atom_at_zero=float(w[-1]), atoms=zip(levels, w[:-1].tolist()))
            yield SpectralMeasure(atoms=zip(levels, (0.4 * w[:-1] / w[:-1].sum()).tolist()),
                                  density=UcDensity(0.4))

    @staticmethod
    def assert_elementwise(m, got, want):
        if len(m.atoms) <= 2:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    def test_entries_are_the_scalar_results(self):
        rng = np.random.default_rng(24)
        for m in self.measures(rng):
            atoms = [a for a, _ in m.atoms]
            levels = np.concatenate((rng.uniform(0.0, 1.0, 50), atoms, [0.0, 1.0]))
            ends = np.maximum(levels, rng.uniform(0.0, 1.0, levels.size))
            ends[::4] = 1.0
            got = interval_mass(m, levels, ends)
            assert got.shape == levels.shape
            self.assert_elementwise(m, got, [interval_mass(m, a, b)
                                             for a, b in zip(levels.tolist(), ends.tolist())])
            u = levels[levels > 0.0]
            self.assert_elementwise(m, spectral_fn(m, u), [spectral_fn(m, x) for x in u.tolist()])

    def test_broadcasting_and_return_types(self):
        m = mp_measure(0.3, 0.6)
        p1 = np.array([[0.0], [0.2], [0.5]])
        p2 = np.array([0.5, 0.9, 1.0])
        got = interval_mass(m, p1, p2)
        assert got.shape == (3, 3)
        assert got[2, 0] == 0.0
        for i, j in np.ndindex(3, 3):
            assert got[i, j] == interval_mass(m, float(p1[i, 0]), float(p2[j]))
        assert spectral_fn(m, p1[1:]).shape == (2, 1)
        assert spectral_fn(m, [[0.2, 0.4]]).shape == (1, 2)
        assert interval_mass(m, [], 1.0).shape == (0,)
        for value in (interval_mass(m, 0.2, 1.0), interval_mass(m, np.float64(0.2), np.array(1.0)),
                      spectral_fn(m, 0.2), spectral_fn(m, np.array(0.2))):
            assert type(value) is float

    def test_validation_names_the_first_bad_level(self):
        m = delta(0.5)
        cases = [(lambda: spectral_fn(m, [0.5, 0.0, 2.0]), "u must lie in (0, 1], got 0.0"),
                 (lambda: spectral_fn(m, [[0.5], [math.nan]]), "u must lie in (0, 1], got nan"),
                 (lambda: interval_mass(m, [0.1, 0.7], [0.5, 0.2]),
                  "need 0 <= p1 <= p2 <= 1, got (0.7, 0.2)"),
                 (lambda: interval_mass(m, [0.1, -1e-300], 1.0),
                  "need 0 <= p1 <= p2 <= 1, got (-1e-300, 1.0)"),
                 (lambda: interval_mass(m, 0.7, 0.2), "need 0 <= p1 <= p2 <= 1, got (0.7, 0.2)")]
        for call, message in cases:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message


class TestNu:
    def test_point_mass_law(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            m = random_measure(rng)
            assert abs(nu(m, dirac(2.5)) - 2.5) <= 1e-10

    def test_two_point_display(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            m = random_measure(rng)
            x1, x2 = sorted(rng.uniform(-4.0, 4.0, 2))
            p = float(rng.uniform(0.05, 0.95))
            d = two_point(x1, x2, p)
            want = interval_mass(m, 0.0, p) * x1 + interval_mass(m, p, 1.0) * x2
            assert abs(nu(m, d) - want) <= 1e-12

    def test_tail_average_of_uniform(self):
        for a in (0.1, 0.5, 0.9):
            assert abs(nu(delta(a), Uniform(0.0, 1.0)) - a / 2.0) < 1e-15

    def test_mean_via_top_atom(self):
        d = random_atomic(np.random.default_rng(26))
        assert abs(nu(delta(1.0), d) - d.mean()) < 1e-12

    def test_rejects_unknown_law(self):
        with pytest.raises(TypeError):
            nu(delta(0.5), object())


class TestNuViaU:
    def test_top_atom_is_mean(self):
        d = random_atomic(np.random.default_rng(27))
        assert abs(nu_via_U(delta(1.0), d) - d.mean()) < 1e-12

    def test_atom_at_zero_contributes_worst_case(self):
        m = SpectralMeasure(atom_at_zero=0.3, atoms=[(1.0, 0.7)])
        d = FiniteAtomic([-2.0, 1.0], [0.5, 0.5])
        want = 0.3 * (-2.0) + 0.7 * d.mean()
        assert abs(nu_via_U(m, d) - want) < 1e-14
        assert abs(nu(m, d) - want) < 1e-14

    def test_cross_oracle_battery(self):
        rng = np.random.default_rng(28)
        for _ in range(200):
            m = random_measure(rng)
            d = random_atomic(rng)
            assert abs(nu(m, d) - nu_via_U(m, d)) <= 1e-9

    def test_cross_oracle_uniform_with_density(self):
        m = uc_measure(0.4)
        d = Uniform(-1.0, 2.0)
        assert abs(nu(m, d) - nu_via_U(m, d)) <= 1e-9

    def test_cross_oracle_atomic_with_density_is_tight(self):
        # both routes are closed-form here, so agreement is near machine level
        rng = np.random.default_rng(29)
        for C in (0.2, 0.5, 0.8):
            m = uc_measure(C)
            for _ in range(10):
                d = random_atomic(rng)
                assert abs(nu(m, d) - nu_via_U(m, d)) <= 1e-12


def _magnitude(d) -> float:
    return max(abs(d.support_min()), abs(d.support_max()))


class TestOverlapOracle:
    """Both routes against the n x k overlap-matrix sum, to 1e-12 relative.

    "Relative" is to the law's magnitude max(|min|, |max|).
    """

    def check(self, m, d):
        ref = overlap_nu(m, d)
        assert abs(nu(m, d) - ref) <= 1e-12 * _magnitude(d), (m, d)
        assert abs(nu_via_U(m, d) - ref) <= 1e-12 * _magnitude(d), (m, d)

    def test_random_laws(self):
        rng = np.random.default_rng(50)
        for _ in range(300):
            self.check(random_measure(rng), random_atomic(rng, max_atoms=40))

    def test_ties_and_duplicates(self):
        rng = np.random.default_rng(51)
        for _ in range(300):
            self.check(random_measure(rng), random_law_with_ties(rng))
        # measure levels that sit exactly on cumulative weights
        d = FiniteAtomic([3.0, -1.0, 3.0, 0.0, -1.0], np.full(5, 0.2))
        self.check(SpectralMeasure(atoms=[(0.4, 0.5), (0.6, 0.25), (1.0, 0.25)]), d)

    def test_large_offsets_and_extreme_scales(self):
        rng = np.random.default_rng(52)
        for offset, lam in ((1e8, 1.0), (-1e8, 1.0), (0.0, 1e-8), (0.0, 1e8), (-1e8, 1e-4)):
            for _ in range(60):
                base = random_atomic(rng, max_atoms=20)
                m = random_measure(rng)
                self.check(m, FiniteAtomic(base._values * lam + offset, base._weights))
                self.check(m, base.scale(lam).shift(offset))

    def test_no_law_by_measure_matrix(self):
        # the overlap matrix would take 8 * 1e5 * 400 bytes = 320 MB here
        rng = np.random.default_rng(53)
        d = FiniteAtomic(rng.standard_normal(100_000), np.full(100_000, 1e-5))
        m = SpectralMeasure(atoms=zip(np.linspace(0.0025, 1.0, 400).tolist(),
                                      np.full(400, 1.0 / 400).tolist()))
        tracemalloc.start()
        try:
            nu(m, d)
            nu_via_U(m, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestUniformDensityClosedForm:
    """Uniform x density against scipy quadrature of well-conditioned integrands.

    C / h^2 - C is written as C t (1 - v)(1 + h) / h^2 with t = 1 - C, so the
    reference keeps its relative accuracy as C -> 1.
    """

    CS = (0.1, 0.5, 1.0 - 1e-6, 1.0 - 1e-12)

    def reference(self, a, b, C, epsabs=0.0):
        quad = pytest.importorskip("scipy.integrate").quad
        t = 1.0 - C

        def via_g(v):
            h = C + t * v
            return C * t * (1.0 - v) * (1.0 + h) / h**2 * (a + (b - a) * v)

        def via_u(alpha):
            h = C + t * alpha
            return (a + 0.5 * (b - a) * alpha) * 2.0 * C * t * alpha / h**3

        kw = dict(epsabs=epsabs, epsrel=1e-13, limit=200)
        return quad(via_g, 0.0, 1.0, **kw)[0], quad(via_u, 0.0, 1.0, **kw)[0]

    def test_density_part_alone(self):
        # an atom at zero carries the rest of the mass and adds C * a = 0
        for C in self.CS:
            m = SpectralMeasure(atom_at_zero=C, density=UcDensity(C))
            for b in (1.0, 1e-8, 1e8):
                ref_g, ref_u = self.reference(0.0, b, C)
                assert abs(ref_g - ref_u) <= 1e-13 * abs(ref_g)
                assert abs(nu(m, Uniform(0.0, b)) - ref_g) <= 1e-12 * abs(ref_g), C
                assert abs(nu_via_U(m, Uniform(0.0, b)) - ref_u) <= 1e-12 * abs(ref_u), C

    def test_uc_measure(self):
        for C in self.CS:
            for a, b in ((-1.0, 2.0), (1e8, 1e8 + 3.0), (-1e8 - 5.0, -1e8)):
                d = Uniform(a, b)
                # the integrands change sign or sit on a large offset here
                ref_g, ref_u = self.reference(a, b, C, epsabs=1e-15 * _magnitude(d))
                atom = C * 0.5 * (a + b)
                assert abs(nu(uc_measure(C), d) - (atom + ref_g)) <= 1e-12 * _magnitude(d)
                assert abs(nu_via_U(uc_measure(C), d) - (atom + ref_u)) <= 1e-12 * _magnitude(d)


class TestEquivariance:
    def test_translation(self):
        rng = np.random.default_rng(30)
        for _ in range(15):
            m = random_measure(rng)
            d = random_atomic(rng)
            c = float(rng.uniform(-3.0, 3.0))
            assert abs(nu(m, d.shift(c)) - (nu(m, d) + c)) <= 1e-12

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            m = random_measure(rng)
            d = random_atomic(rng)
            for lam in (0.5, 2.0):
                assert abs(nu(m, d.scale(lam)) - lam * nu(m, d)) <= 1e-12


class TestJson:
    def test_round_trip(self):
        rng = np.random.default_rng(32)
        for _ in range(15):
            m = random_measure(rng)
            back = measure_from_json(measure_to_json(m))
            assert back.atom_at_zero == m.atom_at_zero
            assert back.atoms == m.atoms
            assert (back.density is None) == (m.density is None)
            if m.density is not None:
                assert back.density.C == m.density.C

    def test_accepts_string_input(self):
        m = measure_from_json('{"atoms": [[0.5, 0.5], [1.0, 0.5]]}')
        assert m.atoms == ((0.5, 0.5), (1.0, 0.5))

    def test_normalization_tolerance_is_checked(self):
        # a NaN tolerance accepted any total mass
        for bad in BAD_TOLERANCES:
            with pytest.raises(ValueError, match="tol must be finite and positive"):
                SpectralMeasure(atoms=[(1.0, 2.0)], tol=bad)
            with pytest.raises(ValueError, match="tol must be finite and positive"):
                measure_from_json({"atoms": [[1.0, 1.0]]}, tol=bad)

    def test_normalization_gate_is_looser_than_constructor(self):
        spec = {"atoms": [[1.0, 1.0 + 5e-9]]}
        m = measure_from_json(spec)  # inside the 1e-8 gate
        assert m.atoms[0][0] == 1.0
        with pytest.raises(ValueError):
            measure_from_json({"atoms": [[1.0, 1.0 + 5e-8]]})

    def test_rejects_malformed_specs(self):
        with pytest.raises(ValueError):
            measure_from_json('["not", "an", "object"]')
        with pytest.raises(ValueError):
            measure_from_json({"atoms": [[0.5, 0.5, 0.5]]})
        with pytest.raises(ValueError):
            measure_from_json({"atoms": "nope"})
        with pytest.raises(ValueError):
            measure_from_json({"atom0": 0.0, "extra": 1})
        with pytest.raises(ValueError):
            measure_from_json({"density": {"type": "gaussian"}})
        with pytest.raises(ValueError, match="atom0 must be a number, got None"):
            measure_from_json({"atom0": None})
        with pytest.raises(ValueError, match="atom weight must be a number"):
            measure_from_json({"atoms": [[0.5, "1"]]})
        with pytest.raises(ValueError, match="density C must be a number, got None"):
            measure_from_json({"density": {"type": "uc"}})
