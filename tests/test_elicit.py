"""Identification, mixture witnesses, and the two bound corridors."""

import dataclasses
import json

import numpy as np
import pytest

from elicitrisk import (
    ConvexityWitness,
    DEFAULT_GRID,
    ES,
    Empirical,
    ExpectileRisk,
    InfOverFamily,
    NegMean,
    RiskFunctional,
    SpectralMeasure,
    SpectralRisk,
    Uniform,
    VaR,
    bound_check,
    convex_level_set_test,
    diagnostic_report,
    dirac,
    identify_C,
    l_C,
    mp_measure,
    spectral_bounds_check,
    two_point,
    u_C,
    uc_measure,
)
from elicitrisk import distributions, elicit

from helpers import BAD_TOLERANCES, bisection_member, pointwise_bounds_entries, random_measure


def delta(a):
    return SpectralMeasure(atoms=[(a, 1.0)])


NINE_GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


class TestIdentifyC:
    def test_expectile_family_recovers_tau_ratio(self):
        # on {0, 1} two-point laws the expectile display is exact, so every
        # grid point inverts to the same constant
        for tau in (0.2, 1.0 / 3.0, 0.45):
            ident = identify_C(ExpectileRisk(tau))
            want = tau / (1.0 - tau)
            assert ident.consistent
            assert ident.degenerate == ()
            assert ident.c_hat == pytest.approx(want, abs=1e-10)
            assert ident.max_residual <= 1e-10

    def test_neg_mean_is_the_c_equals_one_corner(self):
        ident = identify_C(NegMean())
        assert ident.consistent
        assert ident.c_hat == pytest.approx(1.0, abs=1e-12)

    def test_uc_spectral_recovers_c(self):
        ident = identify_C(SpectralRisk(uc_measure(0.37)))
        assert ident.consistent
        assert ident.c_hat == pytest.approx(0.37, abs=1e-12)

    def test_es_fails_with_flat_tail(self):
        # above the level the two-point value freezes at 0, which cannot be
        # inverted; the informative point below the level disagrees with the
        # frozen median
        ident = identify_C(ES(0.4), grid=[0.3, 0.45, 0.5, 0.6, 0.7])
        assert not ident.consistent
        assert ident.c_hat == 0.0
        assert [p for p, _ in ident.degenerate] == [0.45, 0.5, 0.6, 0.7]
        assert all(r == 0.0 for _, r in ident.degenerate)
        p, res = ident.residuals[0]
        assert p == 0.3
        assert res == pytest.approx(1.0 / 7.0, abs=1e-12)

    def test_var_everything_degenerate(self):
        ident = identify_C(VaR(0.3))
        assert not ident.consistent
        assert ident.c_hat == 0.0
        assert len(ident.degenerate) == 19
        assert all(r in (0.0, -1.0) for _, r in ident.degenerate)

    def test_family_with_interior_atom_degenerates(self):
        rf = InfOverFamily((delta(0.4), delta(1.0)))
        ident = identify_C(rf)
        assert not ident.consistent
        assert len(ident.degenerate) >= 1

    def test_grid_validation(self):
        rf = NegMean()
        with pytest.raises(ValueError, match="at least 5"):
            identify_C(rf, grid=[0.2, 0.4, 0.6])
        with pytest.raises(ValueError, match="distinct"):
            identify_C(rf, grid=[0.1, 0.2, 0.2, 0.3, 0.4])
        with pytest.raises(ValueError, match="inside"):
            identify_C(rf, grid=[0.0, 0.2, 0.4, 0.6, 0.8])

    def test_custom_grid(self):
        ident = identify_C(NegMean(), grid=[0.1, 0.3, 0.5, 0.7, 0.9])
        assert ident.consistent
        assert len(ident.residuals) == 5


def test_median_is_numpys():
    # bit for bit, on arrays with ties, and NaN when any entry is NaN
    rng = np.random.default_rng(11)
    for k in range(20000):
        n = int(rng.integers(1, 40))
        pool = rng.normal(size=int(rng.integers(1, n + 1))) * 10.0 ** rng.integers(-300, 300)
        x = rng.choice(pool, size=n)
        if k % 7 == 0:
            x[rng.integers(n)] = np.nan
        want, got = np.median(x), elicit._median(x)
        assert np.isnan(got) if np.isnan(want) else np.float64(got).tobytes() == want.tobytes()


class TestConvexLevelSetTest:
    def test_es_yields_validated_witness(self):
        rf = ES(0.5)
        w = convex_level_set_test(rf, search_budget=10000, seed=0)
        assert w is not None
        assert w.validate(rf, 1e-9)
        assert w.target in (-0.5, -1.0, -2.0)
        assert 0.0 < w.mix_weight < 1.0
        assert abs(rf.evaluate(w.p0) - w.target) <= 1e-9
        assert abs(rf.evaluate(w.p1) - w.target) <= 1e-9
        assert abs(w.value_at_mixture - w.target) > 1e-8

    def test_witness_survives_reruns(self):
        a = convex_level_set_test(ES(0.5), search_budget=10000, seed=0)
        b = convex_level_set_test(ES(0.5), search_budget=10000, seed=0)
        assert a.p0.atoms() == b.p0.atoms()
        assert a.p1.atoms() == b.p1.atoms()
        assert (a.mix_weight, a.target, a.value_at_mixture) == \
            (b.mix_weight, b.target, b.value_at_mixture)

    def test_tampered_witness_rejected(self):
        rf = ES(0.5)
        w = convex_level_set_test(rf, search_budget=10000, seed=0)
        assert not dataclasses.replace(w, value_at_mixture=w.target).validate(rf, 1e-9)
        assert not dataclasses.replace(w, target=w.target + 0.1).validate(rf, 1e-9)

    def test_expectile_finds_nothing(self):
        assert convex_level_set_test(ExpectileRisk(0.25), search_budget=10000) is None

    def test_var_finds_nothing(self):
        assert convex_level_set_test(VaR(0.3), search_budget=10000) is None

    def test_neg_mean_finds_nothing(self):
        assert convex_level_set_test(NegMean(), search_budget=500) is None

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            convex_level_set_test(NegMean(), search_budget=0)

    def test_seed_validation(self):
        # numpy's own error would not name the seed
        with pytest.raises(ValueError, match="^seed must be non-negative$"):
            convex_level_set_test(NegMean(), seed=-1)

    @pytest.mark.parametrize("rf", [
        ES(0.5), ES(0.1), VaR(0.3), VaR(0.9), NegMean(), ExpectileRisk(0.1),
        ExpectileRisk(0.75), SpectralRisk(uc_measure(0.5)), SpectralRisk(mp_measure(0.4, 0.3)),
        InfOverFamily((delta(0.3), delta(1.0)))], ids=repr)
    def test_members_match_bisection(self, rf):
        # the closed-form member exists exactly where the old bisection found one
        tol = 1e-9
        pts = sorted(float(p) for p in np.linspace(0.05, 0.95, 37))
        s, member = elicit._hunt_members(rf, np.array(pts), tol)
        for k, t in enumerate(elicit._TARGETS):
            for i, p in enumerate(pts):
                r = member[i, k]
                m = None if r < 0 else two_point(0.0, s.values[r, -1], s.cum[r, 0])
                assert (m is None) == (bisection_member(rf, p, t, tol) is None), (t, p)
                if m is not None:
                    assert abs(rf.evaluate(m) - t) <= 0.01 * tol
                    assert m.atoms()[0] == (0.0, p)


def test_hunt_never_canonicalises(monkeypatch):
    # members are two-point laws and the mixtures tried are stack rows: only
    # the recomputation of a witness builds a law, its mixture, through the
    # sorting constructor
    canonical, validate = distributions._canonical_atoms, ConvexityWitness.validate
    sorts, checks = [], []
    monkeypatch.setattr(distributions, "_canonical_atoms",
                        lambda *a: sorts.append(1) or canonical(*a))
    monkeypatch.setattr(ConvexityWitness, "validate",
                        lambda self, *a: checks.append(len(sorts)) or validate(self, *a))
    for rf in (NegMean(), ExpectileRisk(0.25), ES(0.5), VaR(0.3),
               SpectralRisk(uc_measure(0.5))):
        del sorts[:], checks[:]
        convex_level_set_test(rf)
        # none before each check, one inside it
        assert checks == list(range(len(checks))), rf
        assert len(sorts) == len(checks), rf


class CountingNegMean(RiskFunctional):
    """NegMean that records every mixture law, one of three atoms, it evaluates."""

    def __init__(self):
        self.mixtures = []

    def evaluate(self, d):
        if d.n_atoms == 3:
            self.mixtures.append(tuple(d.atoms()))
        return NegMean().evaluate(d)


class TestHuntCoverage:
    # 3 g (g - 1) / 2 candidates on the default grid
    SPACE = 3 * len(DEFAULT_GRID) * (len(DEFAULT_GRID) - 1) // 2

    def test_full_budget_tries_each_candidate_once(self):
        rf = CountingNegMean()
        assert convex_level_set_test(rf, search_budget=self.SPACE) is None
        # three mixtures per candidate, none of them repeated
        assert len(rf.mixtures) == 3 * self.SPACE == 3 * 513
        assert len(set(rf.mixtures)) == len(rf.mixtures)
        # a budget past the space adds nothing
        more = CountingNegMean()
        convex_level_set_test(more, search_budget=10000)
        assert sorted(more.mixtures) == sorted(rf.mixtures)

    def test_budget_caps_the_candidates(self):
        rf = CountingNegMean()
        convex_level_set_test(rf, search_budget=100)
        assert len(rf.mixtures) == 300
        assert len(set(rf.mixtures)) == 300

    def test_seed_sets_the_order(self):
        def order(seed):
            rf = CountingNegMean()
            convex_level_set_test(rf, search_budget=self.SPACE, seed=seed)
            return rf.mixtures

        assert order(3) == order(3)
        assert order(3) != order(4)
        assert sorted(order(3)) == sorted(order(4))

    def test_space_on_a_larger_grid(self):
        rf = CountingNegMean()
        grid = np.linspace(0.05, 0.95, 37)
        convex_level_set_test(rf, search_budget=10000, grid=grid)
        assert len(set(rf.mixtures)) == len(rf.mixtures) == 3 * 1998


class TestBoundCheck:
    TEST_SET = (
        two_point(0.0, 1.0, 0.3),
        Empirical([-2.0, 0.0, 1.0, 5.0]),
        Uniform(-1.0, 2.0),
        dirac(0.7),
    )

    def test_matched_expectile_sits_on_the_floor(self):
        C = 0.6
        rf = ExpectileRisk(C / (C + 1.0))
        rep = bound_check(rf, C, self.TEST_SET)
        assert rep.ok
        assert rep.C == C and rep.tolerance == 1e-9
        assert len(rep.entries) == len(self.TEST_SET)
        for e in rep.entries:
            # the functional IS the lower envelope here, same code path
            assert e.lower_margin == 0.0
            assert e.upper_margin >= -1e-9
            assert e.lower == l_C(e.distribution, C)
            assert e.upper == u_C(e.distribution, C)

    def test_c_one_collapses_to_a_point(self):
        rep = bound_check(NegMean(), 1.0, self.TEST_SET)
        assert rep.ok
        for e in rep.entries:
            assert abs(e.lower_margin) <= 1e-10
            assert abs(e.upper_margin) <= 1e-10

    def test_es_breaks_the_ceiling(self):
        d = two_point(0.0, 1.0, 0.5)
        rep = bound_check(ES(0.3), 0.5, [d])
        assert not rep.ok
        e = rep.violations[0]
        assert e.value == 0.0
        assert e.upper_margin < 0.0
        assert e.distribution is d


class TestSpectralBoundsCheck:
    def test_point_mass_at_one_with_c_one(self):
        rep = spectral_bounds_check(delta(1.0), 1.0, grid=NINE_GRID)
        assert rep.ok
        assert rep.equality_points("lower") == NINE_GRID
        assert rep.equality_points("upper") == NINE_GRID

    def test_interior_point_mass_violates(self):
        rep = spectral_bounds_check(delta(0.4), 0.5, grid=NINE_GRID)
        assert not rep.ok
        by_p = {e.p: e for e in rep.entries}
        assert by_p[0.6].lower_margin < 0.0 and by_p[0.6].violated
        assert by_p[0.2].upper_margin < 0.0 and by_p[0.2].violated

    def test_two_atom_member_touches_at_its_level(self):
        for q in (0.3, 0.6):
            for C in (0.5, 0.8):
                rep = spectral_bounds_check(mp_measure(q, C), C, grid=NINE_GRID)
                assert rep.ok
                assert rep.equality_points("integrated") == [q]
                assert rep.equality_points("upper") == [q]
                assert rep.equality_points("lower") == []

    def test_density_measure_strict_inside_tight_integrated(self):
        C = 0.5
        rep = spectral_bounds_check(uc_measure(C), C, grid=NINE_GRID)
        assert rep.ok
        for e in rep.entries:
            assert e.lower_margin > 1e-10
            assert e.upper_margin > 1e-10
            assert e.equals_integrated

    def test_c_validation(self):
        with pytest.raises(ValueError):
            spectral_bounds_check(delta(1.0), 0.0)
        with pytest.raises(ValueError):
            spectral_bounds_check(delta(1.0), 1.2)

    def test_single_point_grid(self):
        rep = spectral_bounds_check(delta(1.0), 0.5, grid=[0.5])
        assert len(rep.entries) == 1

    def test_matches_the_pointwise_oracle(self):
        # the flags as the per-level loop set them, and its margins within
        # 1e-15: each column is now one array call
        rng = np.random.default_rng(31)
        for _ in range(60):
            m = random_measure(rng)
            C = float(rng.choice([rng.uniform(0.05, 1.0), 1.0, 1e-10]))
            grids = [NINE_GRID, np.linspace(0.05, 0.95, 19).tolist(),
                     rng.uniform(0.01, 0.99, 7).tolist(),
                     [a for a, _ in m.atoms if a < 1.0] or [0.5]]
            grid = grids[int(rng.integers(len(grids)))]
            eq_tol = float(rng.choice([1e-10, 1e-3]))
            rep = spectral_bounds_check(m, C, grid, eq_tol)
            got = [dataclasses.astuple(e) for e in rep.entries]
            want = pointwise_bounds_entries(m, C, grid, eq_tol)
            assert [e[9:] for e in got] == [e[9:] for e in want]
            np.testing.assert_allclose([e[:9] for e in got], [e[:9] for e in want],
                                       rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("bad", BAD_TOLERANCES)
def test_tolerances_must_be_finite_and_positive(bad):
    # with NaN or inf every diagnostic below passed, whatever it was given
    with pytest.raises(ValueError, match="tolerance must be finite and positive"):
        identify_C(NegMean(), tolerance=bad)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        convex_level_set_test(NegMean(), tol=bad)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        bound_check(NegMean(), 0.5, [dirac(0.0)], tol=bad)
    with pytest.raises(ValueError, match="eq_tol must be finite and positive"):
        spectral_bounds_check(delta(1.0), 0.5, eq_tol=bad)
    # validate needs every comparison true, so NaN, an infinity or a negative
    # tol only fails it; 0 asks for exact equality and may pass
    if bad != 0.0:
        assert not convex_level_set_test(ES(0.5)).validate(ES(0.5), bad)


class TestDiagnosticReport:
    def test_consistent_assembly(self):
        C = 0.25 / 0.75
        ident = identify_C(ExpectileRisk(0.25))
        brep = bound_check(ExpectileRisk(0.25), C, [two_point(0.0, 1.0, 0.4)])
        srep = spectral_bounds_check(uc_measure(C), C, grid=NINE_GRID)
        rep = diagnostic_report(ident, witness=None, bound_report=brep,
                                spectral_reports=[srep], search_budget=123)
        assert rep["verdict"] == "consistent"
        assert rep["C_hat"] == ident.c_hat
        assert rep["witnesses"] == []
        assert rep["note"] == "no violation found at budget 123"
        kinds = {m["kind"] for m in rep["margins"]}
        assert kinds == {"envelope", "spectral"}
        json.dumps(rep)  # must be serializable as-is

    def test_witness_drives_verdict(self):
        rf = ES(0.5)
        ident = identify_C(rf)
        w = convex_level_set_test(rf, search_budget=10000, seed=0)
        rep = diagnostic_report(ident, witness=w, search_budget=10000)
        assert rep["verdict"] == "inconsistent"
        assert len(rep["witnesses"]) == 1
        assert "note" not in rep
        assert rep["margins"] == []
        json.dumps(rep)

    def test_degenerate_points_serialized(self):
        ident = identify_C(VaR(0.3))
        rep = diagnostic_report(ident)
        assert rep["verdict"] == "inconsistent"
        assert len(rep["degenerate"]) == 19
