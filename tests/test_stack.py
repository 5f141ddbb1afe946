"""Stacks of atomic laws: every kernel against the per-law computation it replaced.

A stack holds K laws as one (K, n) ladder; a law is the stack of one row.
Each test compares bits, not values within a tolerance: the stacked
kernels sum the same terms in the same order as the per-law code did.
"""

import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from elicitrisk import (ES, ConvexityWitness, Empirical, ExpectileRisk, FiniteAtomic,
                        InfOverFamily, NegMean, RiskFunctional, SpectralMeasure, SpectralRisk,
                        Uniform, VaR, bound_check, coherence_check, convex_level_set_test, dirac,
                        es, expectile, identify_C, mix, mp_measure, nu, two_point, uc_measure,
                        var)
from elicitrisk import elicit
from elicitrisk.cli import _elicit_test_set
from elicitrisk.distributions import _Stack

from helpers import (argsort_empirical, argsort_from_sorted, atomic_expectile, canonical_ladder,
                     empirical_ladder, ladder_bytes, moved_ladder, per_law_bound_check,
                     per_law_hunt, per_law_identify_C, per_law_nu, per_trial_coherence_check,
                     random_law_pair, random_law_with_ties, random_measure, searched_pqi,
                     searched_quantile, set_ladder, sorted_rows_ladders, stacked_mix)


def bits(x) -> bytes:
    return struct.pack("d", float(x))


def delta(a):
    return SpectralMeasure(atoms=[(a, 1.0)])


# the library benchmark's coherence cases (its probe runs ES and the 0.25-expectile)
LIBRARY_CASES = [(ES(0.3), 8), (ExpectileRisk(0.25), 8), (ExpectileRisk(0.75), 8),
                 (VaR(0.1), 16), (SpectralRisk(uc_measure(0.5)), 8)]
BUILT_INS = [ES(0.3), ES(0.05), VaR(0.1), VaR(0.5), ExpectileRisk(0.25), ExpectileRisk(0.75),
             NegMean(), SpectralRisk(uc_measure(0.5)), SpectralRisk(mp_measure(0.4, 0.3)),
             InfOverFamily((delta(0.3), mp_measure(0.2, 0.7), uc_measure(0.6)))]


def report_fields(rep):
    return (rep.trials, rep.max_states, bits(rep.tolerance), rep.checks,
            [(v.axiom, v.trial, [bits(s) for s in v.states_x],
              None if v.states_y is None else [bits(s) for s in v.states_y],
              v.param, bits(v.lhs), bits(v.rhs)) for v in rep.violations])


def witness_fields(w):
    if w is None:
        return None
    return (w.p0.atoms(), w.p1.atoms(), w.mix_weight, w.target, bits(w.value_at_mixture))


@pytest.mark.parametrize("rf", [rf for rf, _ in LIBRARY_CASES] + [NegMean(), BUILT_INS[-1]],
                         ids=repr)
def test_coherence_reports_equal_the_per_trial_oracle(rf):
    for max_states in (*range(2, 17), 20):
        for seed in (0, 11):
            new = coherence_check(rf, trials=25, seed=seed, max_states=max_states)
            old = per_trial_coherence_check(rf, trials=25, seed=seed, max_states=max_states)
            assert report_fields(new) == report_fields(old), (max_states, seed)


@pytest.mark.parametrize("rf, max_states, trials", [
    (rf, states, 400) for rf, states in LIBRARY_CASES], ids=repr)
def test_library_coherence_cases_equal_the_oracle(rf, max_states, trials):
    # the sizes the benchmark runs, violations included
    new = coherence_check(rf, trials=trials, seed=1201, max_states=max_states)
    assert report_fields(new) == report_fields(
        per_trial_coherence_check(rf, trials=trials, seed=1201, max_states=max_states))


@pytest.mark.parametrize("seed", [2**32, 2**200], ids=repr)
@pytest.mark.parametrize("trials", [1, 1500])
@pytest.mark.parametrize("max_states", [2, 16, 20])
def test_coherence_reports_at_seeds_of_several_words_equal_the_oracle(seed, trials, max_states):
    rf = VaR(0.1)
    new = coherence_check(rf, trials=trials, seed=seed, max_states=max_states)
    assert report_fields(new) == report_fields(
        per_trial_coherence_check(rf, trials=trials, seed=seed, max_states=max_states))


def test_coherence_check_hashes_no_seed_per_trial(monkeypatch):
    # one seeded generator spawns the two streams, whatever the number of
    # trials; a generator spawns children of its own type, so they count too
    built = []

    class Counted(np.random.Generator):
        def __init__(self, bit_generator):
            built.append(bit_generator)
            super().__init__(bit_generator)

    PCG64 = np.random.PCG64
    monkeypatch.setattr(np.random, "Generator", Counted)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: Counted(PCG64(seed)))
    for trials in (1, 300, 1500):
        built.clear()
        coherence_check(VaR(0.1), trials=trials, seed=5, max_states=16)
        assert len(built) == 3, trials  # the seeded generator and its two streams


HUNTED = [ES(0.5), ES(0.1), VaR(0.3), ExpectileRisk(0.1), ExpectileRisk(0.25), NegMean(),
          SpectralRisk(uc_measure(0.5)), InfOverFamily((delta(0.3), delta(1.0)))]


@pytest.mark.parametrize("rf", HUNTED, ids=repr)
@pytest.mark.parametrize("points", [19, 37])
def test_hunt_returns_the_per_law_witness(rf, points):
    grid = np.linspace(0.05, 0.95, points)
    for seed, budget in ((0, 10000), (5, 10000), (2, 40)):
        new = convex_level_set_test(rf, search_budget=budget, seed=seed, grid=grid)
        old = per_law_hunt(rf, search_budget=budget, seed=seed, grid=grid)
        assert witness_fields(new) == witness_fields(old), (seed, budget)


def test_a_hunt_without_members_finds_nothing():
    # VaR(0.1) is 0 on every law on {0, 1} with mass p >= 0.1 at 0: no target is reached
    grid = np.linspace(0.5, 0.9, 5)
    assert convex_level_set_test(VaR(0.1), grid=grid) is None
    assert per_law_hunt(VaR(0.1), grid=grid) is None


def test_a_few_witnesses_are_found():
    # the identity above is not vacuous
    found = [convex_level_set_test(rf) is not None for rf in HUNTED]
    assert found == [True, False, False, False, False, False, True, True]


class TailMean(RiskFunctional):
    """ES(0.5) defined by evaluate alone, so it has no stacked kernel."""

    def __init__(self):
        self.calls = 0

    def evaluate(self, d):
        self.calls += 1
        return es(d, 0.5)

    def __repr__(self):
        return "TailMean()"


def test_a_functional_without_a_kernel_takes_the_per_law_route():
    rf = TailMean()
    w = convex_level_set_test(rf)
    assert witness_fields(w) == witness_fields(per_law_hunt(ES(0.5)))
    assert w.validate(rf, 1e-9)
    assert rf.calls > 3 * 19  # members, every mixture and the witness's check
    rep = coherence_check(rf, trials=30, seed=4, max_states=6)
    assert report_fields(rep) == report_fields(
        per_trial_coherence_check(ES(0.5), trials=30, seed=4, max_states=6))


# every built-in, ES where it finds witnesses, and a functional without a kernel
ORACLE_CASES = [*BUILT_INS, ES(0.5), TailMean()]


def ident_fields(ident):
    return (bits(ident.c_hat), [(bits(p), bits(r)) for p, r in ident.residuals],
            ident.consistent, bits(ident.tolerance),
            [(bits(p), bits(r)) for p, r in ident.degenerate])


def bound_fields(rep):
    return (bits(rep.C), bits(rep.tolerance),
            [(id(e.distribution), *map(bits, (e.lower, e.value, e.upper, e.lower_margin,
                                              e.upper_margin)), e.ok) for e in rep.entries])


@pytest.mark.parametrize("rf", ORACLE_CASES, ids=repr)
@pytest.mark.parametrize("points", [5, 19, 37])
def test_hunt_equals_the_per_law_hunt_at_every_budget_and_seed(rf, points):
    grid, memo = np.linspace(0.05, 0.95, points), {}
    for budget in (1, 7, 100, 10000):
        for seed in range(20):
            new = convex_level_set_test(rf, search_budget=budget, seed=seed, grid=grid)
            old = per_law_hunt(rf, search_budget=budget, seed=seed, grid=grid, memo=memo)
            assert witness_fields(new) == witness_fields(old), (budget, seed)


@pytest.mark.parametrize("rf", ORACLE_CASES, ids=repr)
def test_identify_C_equals_the_per_law_oracle(rf):
    for grid in (None, np.linspace(0.05, 0.95, 5), np.linspace(0.001, 0.999, 37),
                 [0.9, 0.1, 0.5, 0.3, 0.7, 0.2]):
        assert ident_fields(identify_C(rf, grid=grid)) == ident_fields(
            per_law_identify_C(rf, grid=grid))


def random_test_set(rng):
    laws = [random_law_with_ties(rng, 8), Empirical(rng.standard_normal(int(rng.integers(1, 9)))),
            two_point(0.0, float(rng.uniform(0.0, 3.0)), float(rng.uniform())), dirac(-1.5),
            Uniform(-1.0, float(rng.uniform(-0.5, 4.0)))]
    return [laws[k] for k in rng.choice(len(laws), int(rng.integers(1, 8)))]


def large_test_set(rng):
    # laws of 16 to 300 atoms, of several lengths, beside few-atom laws: a sum
    # over a row padded past 16 atoms need not match the law's own
    return [Empirical(rng.standard_normal(17)), two_point(0.0, 1.0, 0.3),
            Empirical(rng.standard_normal(300)), Uniform(-1.0, 2.0),
            Empirical(rng.standard_normal(int(rng.integers(16, 120)))),
            Empirical(rng.standard_normal(17)), random_law_with_ties(rng, 8)]


@pytest.mark.parametrize("rf", ORACLE_CASES, ids=repr)
def test_bound_check_equals_the_per_law_oracle(rf):
    rng = np.random.default_rng(29)
    for test_set in [_elicit_test_set(), [Uniform(0.0, 1.0)], []] + [
            random_test_set(rng) for _ in range(12)] + [large_test_set(rng) for _ in range(4)]:
        for C in (1e-12, 0.3, 1.0):
            assert bound_fields(bound_check(rf, C, test_set)) == bound_fields(
                per_law_bound_check(rf, C, test_set)), (test_set, C)


def stack_bytes(s):
    return s.values.shape, tuple(a.tobytes() for a in (s.values, s.cum, s.weights, s.csum,
                                                       s.atoms))


def test_two_point_rows_equal_the_stacked_laws():
    rng = np.random.default_rng(8)
    p = rng.uniform(0.001, 0.999, 400)
    x = rng.choice([0.0, 5e-324, 1e-300, 1.0, 7.5, 1e300], p.size)
    x[::3] = rng.uniform(0.0, 10.0, x[::3].size)
    for rows in (slice(None), slice(0, 1), x == 0.0):
        laws = [two_point(0.0, a, b) for a, b in zip(x[rows], p[rows])]
        assert stack_bytes(_Stack.two_point(x[rows], p[rows])) == stack_bytes(_Stack.of(laws))


def test_member_mixtures_equal_the_general_merge():
    # members two_point(0, x, p), the point mass at 0 among them; rows 300 to
    # 399 repeat the x of rows 0 to 99 at another p, and a tenth of the pairs
    # tie on x that way
    rng = np.random.default_rng(13)
    u = rng.uniform(0.0, 5.0, 300)
    x = np.concatenate((u, u[:100], [0.0, 0.0, 1e-310, 1e300]))
    s = _Stack.two_point(x, rng.uniform(0.001, 0.999, x.size))
    i0, i1 = rng.integers(0, x.size, (2, 20000))
    tie = rng.uniform(size=i0.size) < 0.1
    i0[tie] = rng.integers(0, 100, np.count_nonzero(tie))
    i1[tie] = i0[tie] + 300
    w = np.concatenate((np.tile(elicit._MIX_WEIGHTS, 5000), rng.uniform(size=4999), [0.0]))
    new = elicit._member_mixtures(s, i0, i1, w)
    old = stacked_mix(s.values[i0], s.weights[i0], s.values[i1], s.weights[i1], w)
    assert stack_bytes(new) == stack_bytes(old)


@pytest.mark.parametrize("rf", [NegMean(), ES(0.5), SpectralRisk(uc_measure(0.5))], ids=repr)
def test_the_hunt_makes_three_kernel_calls_and_builds_only_witness_laws(rf, monkeypatch):
    calls, builds, checks = [], [], []
    kernel, build = type(rf)._evaluate_stack, FiniteAtomic._hold
    validate = ConvexityWitness.validate
    monkeypatch.setattr(type(rf), "_evaluate_stack",
                        lambda self, s: calls.append(len(s.cum)) or kernel(self, s))
    # every atomic law passes through _hold, however it is built
    monkeypatch.setattr(FiniteAtomic, "_hold",
                        lambda self, *a: builds.append(1) or build(self, *a))
    monkeypatch.setattr(ConvexityWitness, "validate",
                        lambda self, *a: checks.append(1) or validate(self, *a))
    for points in range(5, 38):
        del calls[:], builds[:], checks[:]
        w = convex_level_set_test(rf, grid=np.linspace(0.05, 0.95, points))
        # r_p, the members and the mixtures; a checked witness builds its two
        # members and their mixture
        assert len(calls) == 3, points
        assert len(builds) == 3 * len(checks), points
        assert (w is not None) == (len(checks) > 0), points


def test_coherence_memory_grows_with_trials_times_states():
    coherence_check(ES(0.3), trials=2, max_states=16)
    tracemalloc.start()
    try:
        coherence_check(ES(0.3), trials=1000, max_states=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 1.7 MB: one state-count group's stack at a time, plus the draws
    assert peak < 4 * 2**20, peak


def test_coherence_draws_take_no_room_past_each_trials_states():
    coherence_check(ES(0.3), trials=2, max_states=200)
    tracemalloc.start()
    try:
        coherence_check(ES(0.3), trials=1000, max_states=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 4.5 MB: the 3 n draws of each trial, 2.4 MB on average, plus one
    # state-count group's stack; rows of 3 max_states draws each took 6.8 MB
    assert peak < 5 * 2**20, peak


def law_sizes():
    rng = np.random.default_rng(71)
    for n in (1, 2, 3, 15, 16, 17, 100, 1000, 100_000):
        yield Empirical(rng.standard_t(3, n))
    for _ in range(20):
        yield random_law_with_ties(rng, 40)
    yield Empirical(np.round(rng.standard_normal(5000), 2))  # many ties
    yield dirac(-0.0)


def test_one_row_kernels_equal_the_per_law_oracles():
    measures = [uc_measure(0.3), uc_measure(0.9), mp_measure(0.25, 0.5),
                SpectralMeasure(atom_at_zero=0.2, atoms=[(0.1, 0.3), (0.7, 0.5)]),
                SpectralMeasure(atoms=zip(np.linspace(0.001, 1.0, 400).tolist(), [1 / 400] * 400))]
    levels = [1e-300, 0.001, 0.025, 0.1, 0.3, 0.5, 0.75, 0.999]
    for d in law_sizes():
        for a in levels:
            assert bits(var(d, a)) == bits(-searched_quantile(d, a))
            assert bits(es(d, a)) == bits(-(1.0 / a) * searched_pqi(d, a))
            assert bits(d.partial_quantile_integral(a)) == bits(searched_pqi(d, a))
            sol = expectile(d, a)
            assert (bits(sol.mu), bits(sol.p_star)) == tuple(map(bits, atomic_expectile(d, a)))
        assert bits(d.mean()) == bits(searched_pqi(d, 1.0))
        assert np.array_equal(d._pqi(d._cum), searched_pqi(d, d._cum))
        for m in measures:
            assert bits(nu(m, d)) == bits(per_law_nu(m, d))


def test_nu_on_a_large_law_builds_no_levels_by_atoms_array():
    d = Empirical(np.random.default_rng(3).standard_t(3, 100_000))
    m = SpectralMeasure(atoms=zip(np.linspace(0.001, 1.0, 400).tolist(), [1 / 400] * 400))
    nu(m, d)
    tracemalloc.start()
    try:
        nu(m, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak  # 400 x 1e5 doubles would be 305 MB


def random_laws(rng, k, max_atoms=15):
    laws = []
    for _ in range(k):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            laws.append(random_law_with_ties(rng, max_atoms))
        elif kind == 1:
            laws.append(Empirical(rng.uniform(-10.0, 10.0, int(rng.integers(1, max_atoms + 1)))))
        else:
            laws.append(two_point(0.0, float(rng.uniform(0.0, 5.0)), float(rng.uniform())))
    return laws


@pytest.mark.parametrize("rf", BUILT_INS, ids=repr)
def test_stacked_rows_equal_evaluate(rf):
    # rows of 1 to 15 atoms padded to the longest: the padding adds exact zeros
    rng = np.random.default_rng(5)
    for _ in range(20):
        laws = random_laws(rng, int(rng.integers(1, 40)))
        got = rf._evaluate_stack(_Stack.of(laws))
        assert [bits(v) for v in got] == [bits(rf.evaluate(d)) for d in laws]


def test_stack_rows_hold_each_laws_ladder():
    rng = np.random.default_rng(8)
    laws = random_laws(rng, 60)
    s = _Stack.of(laws)
    assert s.atoms.tolist() == [d.n_atoms for d in laws]
    assert [ladder_bytes(d) for d in s.laws()] == [ladder_bytes(d) for d in laws]
    # the padding: zero weight at the last value, the top cumulative weight and prefix sum
    for row, d in enumerate(laws):
        n = d.n_atoms
        assert (s.values[row, n:] == d._values[-1]).all() and (s.weights[row, n:] == 0.0).all()
        assert (s.cum[row, n - 1:] == 1.0).all() and (s.csum[row, n:] == d._csum[-1]).all()
    # the ladders as the canonicalising build makes them from sorted values
    assert stack_bytes(s) == stack_bytes(_Stack._from_sorted(s.values, s.cum))


def test_empirical_rows_equal_empirical_laws():
    rng = np.random.default_rng(9)
    x = rng.uniform(-10.0, 10.0, (30, 6))
    rows = np.concatenate((x, 0.0 * x, np.round(x), np.full((2, 6), -0.0), 0.0 * -x))
    s = _Stack.empirical(np.sort(rows, axis=1))
    assert [ladder_bytes(d) for d in s.laws()] == [ladder_bytes(Empirical(r)) for r in rows]


def row_ladders(s) -> list:
    """Each row's (values, cum, weights, csum) bytes without its padding, after
    checking the padding: the top value, cumulative weight 1, weight 0 and the
    top prefix sum."""
    for r, m in enumerate(s.atoms):
        assert (s.values[r, m:] == s.values[r, m - 1]).all() and (s.cum[r, m - 1:] == 1.0).all()
        assert (s.weights[r, m:] == 0.0).all() and (s.csum[r, m:] == s.csum[r, m - 1]).all()
    return [tuple(a[r, :m].tobytes() for a in (s.values, s.cum, s.weights, s.csum))
            for r, m in enumerate(s.atoms)]


def oracle_bytes(ladder) -> tuple:
    return tuple(a.tobytes() for a in ladder)


def test_the_builder_equals_the_old_single_law_builders():
    rng = np.random.default_rng(20)
    for _ in range(40):
        k, n = int(rng.integers(1, 30)), int(rng.integers(1, 10))
        x = rng.uniform(-10.0, 10.0, (k, n))
        # samples: ties, all-equal rows (as lambda = 0 makes them) and -0.0 beside 0.0
        samples = np.concatenate((x, np.round(x), 0.0 * x, 0.0 * -x, np.where(x < 0, -0.0, 0.0)))
        s = _Stack.empirical(np.sort(samples, axis=1))
        want = [oracle_bytes(empirical_ladder(row)) for row in samples]
        assert row_ladders(s) == want
        assert [ladder_bytes(Empirical(row)) for row in samples] == want
        assert stack_bytes(s) == stack_bytes(argsort_empirical(samples))
        # sorted rows with ties, zero weights and totals that round past 1
        values = np.sort(rng.integers(-3, 4, (k, n)).astype(float), axis=1)
        w = rng.dirichlet(np.ones(n), k) * (rng.random((k, n)) < 0.7)
        w /= np.maximum(w.sum(axis=1, keepdims=True), 1e-300)
        w[:, -1] += rng.choice([0.0, 4e-13, -4e-13, 1.0], k) * (w.sum(axis=1) == 0.0)
        w[:, -1] = np.maximum(w[:, -1] + rng.choice([0.0, 5e-13, -5e-13], k), 0.0)
        ok = np.abs(w.sum(axis=1) - 1.0) <= 1e-12
        values, w = values[ok], w[ok]
        cum = np.cumsum(w, axis=1)
        assert row_ladders(_Stack._from_sorted(values, cum)) == [
            oracle_bytes(ladder) for ladder in sorted_rows_ladders(values, cum)]
        for v, wr in zip(values, w):
            assert ladder_bytes(FiniteAtomic(v, wr)) == oracle_bytes(canonical_ladder(v, wr))
        # rows without ties build as the argsort compaction built them
        distinct = (values[:, 1:] != values[:, :-1]).all(axis=1)
        if distinct.any():
            new = _Stack._from_sorted(values[distinct], cum[distinct])
            assert stack_bytes(new) == stack_bytes(argsort_from_sorted(values[distinct],
                                                                       cum[distinct]))


def test_moved_laws_merge_as_shift_and_scale_did():
    # neighbours one ulp apart merge when shifted far or scaled into the subnormals
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        base = float(rng.choice([1.0, 1e-300, -3.5, 1e8]))
        values = base + np.cumsum(rng.integers(0, 3, n)) * np.spacing(base)
        d = FiniteAtomic(values, rng.dirichlet(np.ones(n)))
        # and a shift or scale past the largest double leaves a range both reject
        c = float(rng.choice([0.0, 1e3, -1e9, 2.0 ** 60, 1e300, 1.79e308]))
        lam = float(rng.choice([1.0, 3.0, 1e-10, 1e-20, 2.0 ** -1070, 1e300]))
        with np.errstate(over="ignore", invalid="ignore"):
            moved = ((d.shift, c, d._values + c, d._csum),
                     (d.scale, lam, d._values * lam, d._csum * lam))
        for method, arg, v, csum in moved:
            try:
                want = oracle_bytes(moved_ladder(d, v, csum))
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    method(arg)
            else:
                assert ladder_bytes(method(arg)) == want


@pytest.mark.parametrize("a", [2.0 ** 1023, np.nextafter(2.0 ** 1023, 0.0), 8.9e307, 1.7e308])
def test_spans_at_the_edge_of_overflow(a):
    # [-a, a] spans 2 a: finite below 2 ** 1023, past the largest double from it on
    v, w = np.array([-a, a]), np.array([0.5, 0.5])
    try:
        want = oracle_bytes(set_ladder(v, np.cumsum(w)))
    except ValueError as exc:
        # a stack names its first row whose range is past the largest double
        for build in (lambda: FiniteAtomic(v, w), lambda: Empirical(v),
                      lambda: two_point(-a, a, 0.5),
                      lambda: _Stack._from_sorted(np.array([[0.0, 1.0], v, v]),
                                                  np.array([[0.5, 1.0]] * 3))):
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                build()
        return
    assert ladder_bytes(FiniteAtomic(v, w)) == ladder_bytes(Empirical(v)) == want
    assert ladder_bytes(two_point(-a, a, 0.5)) == want


def test_mixed_rows_equal_mix():
    rng = np.random.default_rng(10)
    pairs = [random_law_pair(rng) for _ in range(60)]
    p = np.array([0.0, 1.0, 0.25, 0.5, 5e-324, 0.75] * 10)
    s0, s1 = _Stack.of([a for a, _ in pairs]), _Stack.of([b for _, b in pairs])
    s = stacked_mix(s0.values, s0.weights, s1.values, s1.weights, p)
    assert [ladder_bytes(d) for d in s.laws()] == [
        ladder_bytes(mix(a, b, w)) for (a, b), w in zip(pairs, p)]


def test_search_steps_over_levels_the_offset_rounds_onto():
    # row 3 is offset by 6: 0.3 and its neighbour below round to one key there
    below = math.nextafter(0.3, 0.0)
    laws = [FiniteAtomic([0.0, 1.0], [below, 1.0 - below])] * 4
    s = _Stack.of(laws)
    assert 6.0 + below == 6.0 + 0.3
    assert (VaR(0.3)._evaluate_stack(s) == -1.0).all()
    assert [bits(v) for v in s.pqi(0.3)] == [bits(searched_pqi(d, 0.3)) for d in laws]
    assert [bits(v) for v in ES(0.3)._evaluate_stack(s)] == [bits(ES(0.3).evaluate(d))
                                                              for d in laws]


def test_random_measures_on_stacks():
    rng = np.random.default_rng(12)
    laws = random_laws(rng, 30)
    s = _Stack.of(laws)
    for _ in range(30):
        m = random_measure(rng)
        got = SpectralRisk(m)._evaluate_stack(s)
        assert [bits(v) for v in got] == [bits(-per_law_nu(m, d)) for d in laws]
