"""Shared randomized builders and oracles for the test suite."""

import bisect
import itertools
import math
import warnings

import numpy as np
from hypothesis import strategies as st

from elicitrisk import (BoundCheckReport, BoundEntry, CIdentification, CoherenceReport,
                        CoherenceViolation, ConvexityWitness, Empirical, FiniteAtomic,
                        QuantileScore, SpectralMeasure, dirac, interval_mass, l_C, mix,
                        mp_measure, nu, spectral_fn, two_point, u_C, uc_measure)
from elicitrisk.cli import _fmt
from elicitrisk.distributions import _check_tol, _Stack
from elicitrisk.elicit import _MIX_WEIGHTS, _TARGETS, DEFAULT_GRID, _check_grid
from elicitrisk.risk import _LAMBDAS, _SHIFTS
from elicitrisk.spectral import _density_g_integral


# Tolerances no diagnostic may accept: NaN and inf make its comparisons vacuous
BAD_TOLERANCES = (float("nan"), float("inf"), float("-inf"), 0.0, -1e-9)


def random_atomic(rng, max_atoms=10, lo=-5.0, hi=5.0) -> FiniteAtomic:
    """Law with 1..max_atoms atoms at uniform locations in [lo, hi]."""
    n = int(rng.integers(1, max_atoms + 1))
    values = rng.uniform(lo, hi, size=n)
    weights = rng.dirichlet(np.ones(n))
    return FiniteAtomic(values, weights)


def random_measure(rng) -> SpectralMeasure:
    """Measure drawn across the constructible shapes.

    Covers a single atom, several atoms with an optional atom at zero, the
    two-atom family, and the parametric density.
    """
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return SpectralMeasure(atoms=[(float(rng.uniform(0.05, 1.0)), 1.0)])
    if kind == 1:
        n = int(rng.integers(1, 5))
        levels = rng.uniform(0.05, 1.0, size=n)
        w = rng.dirichlet(np.ones(n + 1))
        return SpectralMeasure(atom_at_zero=float(w[-1]),
                               atoms=list(zip(levels.tolist(), w[:-1].tolist())))
    if kind == 2:
        return mp_measure(float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.1, 1.0)))
    return uc_measure(float(rng.uniform(0.1, 1.0)))


def tail_sum_gap(d: FiniteAtomic, p: float) -> float:
    # split of the quantile integral at its own endpoint q: the integral over
    # (0, p] must equal the mass-weighted sum below q plus q * (p - F(q))
    q = d.quantile(p)
    lhs = d.partial_quantile_integral(p)
    below = sum(v * w for v, w in d.atoms() if v <= q)
    return abs(lhs - (below + q * (p - d.cdf(q))))


def random_law_with_ties(rng, max_atoms=12) -> FiniteAtomic:
    """Law drawn on a coarse integer grid, so values repeat and merge.

    Equal weights are drawn half the time, which puts ties in the
    cumulative weights and lands symmetric functionals exactly on atoms.
    """
    n = int(rng.integers(1, max_atoms + 1))
    values = rng.integers(-4, 5, size=n).astype(float)
    if rng.random() < 0.5:
        weights = np.full(n, 1.0 / n)
    else:
        weights = rng.dirichlet(np.ones(n))
    return FiniteAtomic(values, weights)


def random_law_pair(rng) -> tuple[FiniteAtomic, FiniteAtomic]:
    """Two canonical laws of 1 to 50 atoms drawn from one pool of values, so
    they share atoms, at a scale of 1e-8 to 1e8 and an offset of 0 or +-1e8.

    The laws come from every constructor: weights summing to one, a sample
    with ties, a two-point law, a point mass, and shifted or scaled copies.
    """
    scale, offset = 10.0 ** rng.uniform(-8.0, 8.0), float(rng.choice([0.0, 1e8, -1e8]))
    pool = offset + scale * rng.standard_normal(int(rng.integers(1, 61)))

    def law():
        n = int(rng.integers(1, 51))
        values = rng.choice(pool, n)
        kind = int(rng.integers(0, 5))
        if kind == 0:
            return FiniteAtomic(values, rng.dirichlet(np.ones(n)))
        if kind == 1:
            return Empirical(values)
        if kind == 2:
            lo, hi = sorted(rng.choice(pool, 2))
            return two_point(lo, hi, float(rng.uniform()))
        if kind == 3:
            return dirac(float(values[0]))
        base = FiniteAtomic(values - offset, rng.dirichlet(np.ones(n)))
        return base.shift(offset) if rng.random() < 0.5 else base.scale(2.0 ** -3).shift(offset)

    return law(), law()


def bisection_expectile(d, tau: float) -> float:
    """Expectile by bisection of the asymmetric first-moment residual.

    This was the library's solver before the closed form: the root of
    tau * E(Y - x)^+ - (1 - tau) * E(x - Y)^+ is bracketed by the support,
    the bracket narrows to about 1e-14 times the support magnitude, and the
    midpoint must leave a residual within 1e-10 * (1 + |mu|).  On an atomic
    law each residual is a direct sum over the atoms, independent of the
    prefix sums.
    """
    def psi(x):
        if isinstance(d, FiniteAtomic):
            diff = d._values - x
            up = float(np.dot(d._weights, np.clip(diff, 0.0, None)))
            down = float(np.dot(d._weights, np.clip(-diff, 0.0, None)))
        else:
            up, down = d.upper_partial_moment(x), d.lower_partial_moment(x)
        return tau * up - (1.0 - tau) * down

    lo, hi = d.support_min(), d.support_max()
    if lo == hi:
        return lo
    width_tol = 1e-14 * max(1.0, abs(lo), abs(hi))
    for _ in range(200):
        if hi - lo <= width_tol:
            break
        mid = 0.5 * (lo + hi)
        if psi(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    assert abs(psi(mu)) <= 1e-10 * (1.0 + abs(mu)), "bisection did not converge"
    return mu


def stacked_mix(v0, w0, v1, w1, p) -> _Stack:
    """Rows p d0 + (1 - p) d1 from the values and weights of two sets of rows
    and one p per row: the general merge of two ladders, row by row, as
    ``mix`` merges two laws."""
    values = np.concatenate((v0, v1), axis=1)
    order = values.argsort(axis=1, kind="stable")  # a run of equal values: d0's, then d1's
    values = np.take_along_axis(values, order, 1)
    weights = np.concatenate((p[:, None] * w0, (1.0 - p[:, None]) * w1), axis=1)
    start = np.flatnonzero(np.concatenate(
        (np.ones((len(values), 1), dtype=bool), values[:, 1:] != values[:, :-1]), axis=1))
    # each run's weights summed in order onto its first entry, zero elsewhere
    run = np.zeros(values.size)
    run[start] = np.add.reduceat(np.take_along_axis(weights, order, 1).ravel(), start)
    return _Stack._from_sorted(values, np.cumsum(run.reshape(values.shape), axis=1))


def set_ladder(values, cum, csum=None) -> tuple:
    """(values, cum, weights, csum) of a canonical law as ``FiniteAtomic``
    built them before every law was a row of ``_Stack._from_sorted``: the
    range check on Python floats, then one (3, n) block filled in place."""
    if not math.isfinite(float(values[-1]) - float(values[0])):
        raise ValueError("atom values must span a finite range, got "
                         f"[{float(values[0])!r}, {float(values[-1])!r}]")
    ladder = np.empty((3 if csum is None else 2, values.size))
    ladder[0] = cum
    ladder[1, 0] = cum[0]
    np.subtract(cum[1:], cum[:-1], out=ladder[1, 1:])
    if csum is None:
        csum = np.subtract(values, values[0], out=ladder[2])
        csum *= ladder[1]
        csum.cumsum(out=csum)
    return values, ladder[0], ladder[1], csum


def canonical_ladder(values, weights) -> tuple:
    """The ladder of ``FiniteAtomic(values, weights)`` as its constructor made
    it on its own: sort and merge equal values, clip the cumulative weights
    at 1, drop an atom whose cumulative weight is its predecessor's, pin the
    top at 1."""
    uniq, inverse = np.unique(np.asarray(values, dtype=float), return_inverse=True)
    cum = np.minimum(np.cumsum(np.bincount(inverse, weights=np.asarray(weights, dtype=float),
                                           minlength=uniq.size)), 1.0)
    rise = cum != np.append(0.0, cum[:-1])
    uniq, cum = uniq[rise], cum[rise]
    cum[-1] = 1.0
    return set_ladder(uniq, cum)


def empirical_ladder(samples) -> tuple:
    """The ladder of ``Empirical(samples)`` as its constructor made it on its
    own: the last of each run of equal sorted samples stands for the run,
    with cumulative weight k / n."""
    samples = np.sort(np.asarray(samples, dtype=float))
    values, cum = samples, np.arange(1.0, samples.size + 1.0)
    tie = samples[1:] == samples[:-1]
    if tie.any():
        last = np.append(~tie, True)
        values, cum = samples[last], cum[last]
    cum /= samples.size
    return set_ladder(values, cum)


def moved_ladder(d: FiniteAtomic, values, csum) -> tuple:
    """The ladder of ``d.shift`` or ``d.scale`` from the moved values and
    prefix sums, as those methods made it: where rounding made neighbours
    equal, the last atom of each run, whose cumulative weight covers the run,
    and prefix sums summed again from the merged values."""
    last = np.append(values[1:] != values[:-1], True)
    if last.all():
        return set_ladder(values, d._cum, csum)
    return set_ladder(values[last], d._cum[last])


def sorted_rows_ladders(values, cum) -> list:
    """The ladder of each row of sorted values and running cumulative weights
    under the old single-law rules, the last of a run of equal values first
    (as ``moved_ladder`` and ``empirical_ladder``), then the clip, drop and
    pin of ``canonical_ladder``."""
    out = []
    for v, c in zip(values, cum):
        last = np.append(v[1:] != v[:-1], True)
        v, c = v[last], np.minimum(c[last], 1.0)
        rise = c != np.append(0.0, c[:-1])
        v, c = v[rise], c[rise]
        c[-1] = 1.0
        out.append(set_ladder(v, c))
    return out


def argsort_from_sorted(values, cum) -> _Stack:
    """``_Stack._from_sorted`` as it compacted rows before it merged runs of
    equal values: clip at 1, then a stable argsort moves the kept entries
    first; the top is pinned and copied over the padding."""
    cum = np.minimum(cum, 1.0)
    keep = cum != np.concatenate((np.zeros((len(cum), 1)), cum[:, :-1]), axis=1)
    atoms = keep.sum(axis=1)
    order = np.argsort(~keep, axis=1, kind="stable")[:, :atoms.max(initial=1)]
    values, cum = np.take_along_axis(values, order, 1), np.take_along_axis(cum, order, 1)
    top = np.arange(cum.shape[1]) >= atoms[:, None] - 1
    cum[top] = 1.0
    values = np.where(top, np.take_along_axis(values, atoms[:, None] - 1, 1), values)
    weights = np.diff(cum, axis=1, prepend=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        csum = np.cumsum((values - values[:, :1]) * weights, axis=1)
    return _Stack(values, cum, weights, csum, atoms)


def argsort_empirical(samples) -> _Stack:
    """``_Stack.empirical`` as it set k / n on the last of each run of ties
    and carried it over the next run's others, for ``argsort_from_sorted``."""
    s = np.sort(samples, axis=1)
    last = np.append(s[:, 1:] != s[:, :-1], np.ones((len(s), 1), dtype=bool), axis=1)
    cum = np.where(last, np.arange(1.0, s.shape[1] + 1.0) / s.shape[1], 0.0)
    return argsort_from_sorted(s, np.maximum.accumulate(cum, axis=1))


def _searched_tails(d: FiniteAtomic, x: float) -> tuple[float, float]:
    # E(Y - x)^+ and E(x - Y)^+ over the atoms strictly above and below x,
    # with the tail bounds found by binary search
    v, w = d._values, d._weights
    hi, lo = v.searchsorted(x, "right"), v.searchsorted(x, "left")
    return float(np.dot(w[hi:], v[hi:] - x)), float(np.dot(w[:lo], x - v[:lo]))


def searched_tails_expectile(d: FiniteAtomic, tau: float) -> tuple[float, float]:
    """(mu, p_star) of the tau-expectile as the library computed them before
    the segment's ends were read off the ladder: each end residual takes its
    tail bounds from a binary search, and p_star is ``d.cdf(mu)``."""
    x, cum = d._values, d._cum
    if x.size == 1:
        return float(x[0]), d.cdf(float(x[0]))
    b = 1.0 - 2.0 * tau
    psi = tau * d._csum[-1] + b * d._csum - (x - x[0]) * (tau + b * cum)
    k = min(max(int(np.searchsorted(-psi, 0.0)), 1), x.size - 1)
    lo, hi = (tau * up - (1.0 - tau) * down
              for up, down in (_searched_tails(d, v) for v in x[k - 1:k + 1]))
    if lo < 0.0:
        j, i, r = k - 2, k - 1, lo
    elif hi > 0.0:
        j, i, r = k, k, hi
    else:
        j, i, r = (k - 1, k - 1, lo) if lo < -hi else (k - 1, k, hi)
    mu = float(x[i]) + r / (tau + b * float(cum[j]))
    mu = min(max(mu, float(x[j])), float(x[j + 1]))
    return mu, d.cdf(mu)


def searched_pqi(d: FiniteAtomic, p):
    """Partial quantile integral at p, as a law computed it on its own before
    the ladder kernels read stacks: one binary search of the cumulative
    weights, then x_0 c[k] + S[k] less x_k (c[k] - p)."""
    k = d._cum.searchsorted(p)
    x0 = d._values[0]
    return x0 * p + d._csum[k] - (d._values[k] - x0) * (d._cum[k] - p)


def searched_quantile(d: FiniteAtomic, v: float) -> float:
    """The quantile at v from one binary search of the cumulative weights."""
    return float(d._values[int(np.searchsorted(d._cum, v, side="left"))])


def per_law_nu(m: SpectralMeasure, d: FiniteAtomic) -> float:
    """nu(m, d) on one atomic law, as computed before the stacked kernel: the
    atoms read searched partial quantile integrals, and the density part is
    one dot product over the atoms."""
    out = m.atom_at_zero * d.support_min() + float(np.dot(m._w_over_a, searched_pqi(d, m._alphas)))
    if m.density is None or m.density.C == 1.0:
        return out
    prev = np.concatenate(([0.0], d._cum[:-1]))
    return out + float(np.dot(d._values, _density_g_integral(m.density, prev, d._cum)))


def atomic_expectile(d: FiniteAtomic, tau: float) -> tuple[float, float]:
    """(mu, p_star) of the tau-expectile of one atomic law, as computed before
    the stacked kernel: the sign change of psi from one binary search of
    the prefix sums, the residuals at the segment's ends over slices of the
    law's own arrays, and p_star read off the ladder."""
    x, w, cum = d._values, d._weights, d._cum
    if x.size == 1:
        return float(x[0]), float(cum[0])
    b = 1.0 - 2.0 * tau
    psi = tau * d._csum[-1] + b * d._csum - (x - x[0]) * (tau + b * cum)
    k = min(max(int(np.searchsorted(-psi, 0.0)), 1), x.size - 1)
    lo, hi = (tau * float(np.dot(w[i + 1:], x[i + 1:] - x[i]))
              - (1.0 - tau) * float(np.dot(w[:i], x[i] - x[:i])) for i in (k - 1, k))
    if lo < 0.0:
        j, i, r = k - 2, k - 1, lo
    elif hi > 0.0:
        j, i, r = k, k, hi
    else:
        j, i, r = (k - 1, k - 1, lo) if lo < -hi else (k - 1, k, hi)
    mu = float(x[i]) + r / (tau + b * float(cum[j]))
    return min(max(mu, float(x[j])), float(x[j + 1])), float(cum[j + (mu >= x[j + 1])])


def per_trial_coherence_check(rf, trials=1000, seed=0, max_states=8, tol=1e-9):
    """coherence_check as it ran before the stacks: every trial draws its
    state count and payoffs one at a time from the two streams, and builds
    its eleven laws with ``Empirical`` and evaluates them one at a time."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if max_states < 2:
        raise ValueError("max_states must be at least 2")
    tol = _check_tol(tol)
    report = CoherenceReport(trials=trials, max_states=max_states, tolerance=tol)
    checks = {"subadditivity": 0, "homogeneity": 0, "translation": 0, "monotonicity": 0}

    def record(axiom, trial, sx, sy, param, lhs, rhs):
        report.violations.append(CoherenceViolation(
            axiom=axiom, trial=trial, states_x=tuple(sx),
            states_y=None if sy is None else tuple(sy), param=param, lhs=lhs, rhs=rhs))

    counts, draws = np.random.default_rng(seed).spawn(2)
    for k in range(trials):
        n = int(counts.integers(2, max_states + 1))
        x = draws.uniform(-10.0, 10.0, n)
        y = draws.uniform(-10.0, 10.0, n)
        rx = rf.evaluate(Empirical(x))
        ry = rf.evaluate(Empirical(y))
        checks["subadditivity"] += 1
        rxy = rf.evaluate(Empirical(x + y))
        if rxy > rx + ry + tol:
            record("subadditivity", k, x, y, None, rxy, rx + ry)
        for lam in _LAMBDAS:
            checks["homogeneity"] += 1
            r = rf.evaluate(Empirical(lam * x))
            if abs(r - lam * rx) > tol:
                record("homogeneity", k, x, None, lam, r, lam * rx)
        for a in _SHIFTS:
            checks["translation"] += 1
            r = rf.evaluate(Empirical(x + a))
            if abs(r - (rx - a)) > tol:
                record("translation", k, x, None, a, r, rx - a)
        checks["monotonicity"] += 1
        z = x - draws.uniform(0.0, 5.0, n)
        rz = rf.evaluate(Empirical(z))
        if rx > rz + tol:
            record("monotonicity", k, x, z, None, rx, rz)
    report.checks = checks
    return report


def _evaluate_each(rf, laws: list) -> list:
    # rf on every atomic law as floats, from one stack and one call of its kernel
    return rf._evaluate_stack(_Stack.of(laws)).tolist() if laws else []


def per_law_members(rf, pts: list[float], tol: float) -> dict:
    """The hunt's members {(t, i): law} as they were built before the member
    stack: a ``two_point`` law for every grid point and target."""
    laws = {}
    for i, (p, r_p) in enumerate(zip(pts, _evaluate_each(rf, [two_point(0.0, 1.0, p)
                                                              for p in pts]))):
        if not r_p < 0.0:
            continue
        for t in _TARGETS:
            x2 = t / r_p
            if math.isfinite(x2):
                laws[(t, i)] = two_point(0.0, x2, p)
    return {key: m for (key, m), v in zip(laws.items(), _evaluate_each(rf, list(laws.values())))
            if abs(v - key[0]) <= tol}


def per_law_identify_C(rf, grid=None, tolerance: float = 1e-8) -> CIdentification:
    """identify_C as it ran before the anchor stack: one ``two_point`` law per
    grid point."""
    tolerance = _check_tol(tolerance, "tolerance")
    pts = _check_grid(DEFAULT_GRID if grid is None else grid, minimum=5)
    estimates, degenerate = [], []
    for p, r in zip(pts, _evaluate_each(rf, [two_point(0.0, 1.0, p) for p in pts])):
        if r > -1.0:
            estimates.append((p, -p * r / ((1.0 - p) * (1.0 + r))))
        if not (-1.0 < r < 0.0):
            degenerate.append((p, r))
    c_hat = float(np.median([c for _, c in estimates])) if estimates else 0.0
    residuals = tuple((p, float(c - c_hat)) for p, c in estimates)
    max_res = max((abs(r) for _, r in residuals), default=0.0)
    consistent = bool((not degenerate) and max_res <= tolerance and 0.0 < c_hat <= 1.0)
    return CIdentification(c_hat=c_hat, residuals=residuals, consistent=consistent,
                           tolerance=tolerance, degenerate=tuple(degenerate))


def per_law_bound_check(rf, C, test_set, tol=1e-9) -> BoundCheckReport:
    """bound_check as it ran before the stack: l_C, u_C and the functional on
    each law in turn."""
    tol = _check_tol(tol)
    entries = []
    for d in test_set:
        lo, hi, v = float(l_C(d, C)), float(u_C(d, C)), float(rf.evaluate(d))
        entries.append(BoundEntry(distribution=d, lower=lo, value=v, upper=hi,
                                  lower_margin=v - lo, upper_margin=hi - v,
                                  ok=bool(v >= lo - tol and v <= hi + tol)))
    return BoundCheckReport(C=float(C), tolerance=tol, entries=entries)


def per_law_hunt(rf, search_budget=10000, seed=0, tol=1e-9, grid=None, memo=None):
    """convex_level_set_test as it ran before the stacks: each candidate's
    three mixtures are built with ``mix`` and evaluated one at a time, and
    the hunt stops at the first witness that validates.

    ``memo``, a dict the caller keeps for one functional, grid and ``tol``,
    holds each mixture's value across calls, keyed by target, pair and weight.
    """
    memo = {} if memo is None else memo
    if search_budget < 1:
        raise ValueError("search_budget must be positive")
    tol = _check_tol(tol)
    pts = _check_grid(DEFAULT_GRID if grid is None else grid, minimum=2)
    members = per_law_members(rf, pts, tol)
    space = [(t, i, j) for t in _TARGETS for i, j in itertools.combinations(range(len(pts)), 2)]
    for k in np.random.default_rng(seed).permutation(len(space))[:search_budget]:
        t, i, j = space[k]
        m0, m1 = members.get((t, i)), members.get((t, j))
        if m0 is None or m1 is None:
            continue
        for w in _MIX_WEIGHTS:
            v = memo.get((t, i, j, w))
            if v is None:
                v = memo[(t, i, j, w)] = rf.evaluate(mix(m0, m1, w))
            if abs(v - t) > 10.0 * tol:
                witness = ConvexityWitness(p0=m0, p1=m1, mix_weight=w,
                                           target=t, value_at_mixture=v)
                if witness.validate(rf, tol):
                    return witness
    return None


def ladder_bytes(d: FiniteAtomic) -> tuple[bytes, ...]:
    """The bits of every array of an atomic law's ladder."""
    return tuple(a.tobytes() for a in (d._values, d._cum, d._weights, d._csum))


def overlap_nu(m: SpectralMeasure, d: FiniteAtomic) -> float:
    """nu(m, d) from the n x k matrix of overlaps between law and measure atoms.

    Entry (i, j) is the length of (c[i-1], c[i]] inside (0, alpha_j]; the
    library summed over it before it read partial quantile integrals off
    the prefix sums.  Memory is O(n k).
    """
    cum = d._cum
    prev = np.concatenate(([0.0], cum[:-1]))
    if m._alphas.size:
        overlap = np.clip(
            np.minimum(m._alphas[None, :], cum[:, None]) - prev[:, None], 0.0, None)
        masses = overlap @ m._w_over_a
    else:
        masses = np.zeros_like(cum)
    if m.density is not None and m.density.C < 1.0:
        c = m.density.C
        h_prev = c + (1.0 - c) * prev
        h_cum = c + (1.0 - c) * cum
        masses = masses + (c / (1.0 - c) * (1.0 / h_prev - 1.0 / h_cum) - c * (cum - prev))
    return float(np.dot(d._values, masses)) + m.atom_at_zero * float(d._values[0])


def bisection_member(rf, p: float, target: float, tol: float):
    """Two-point law at {0, x2} with weight p at 0 whose value hits target.

    This was the mixture hunt's member solver before the closed form
    x2 = target / r_p: the value is nonincreasing in x2 for monotone
    functionals, so the upper atom is bracketed by doubling (at most 40
    times) and bisected (at most 200 steps).  Returns None where the target
    is out of reach.
    """
    if rf.evaluate(two_point(0.0, 0.0, p)) < target:
        return None
    hi = 1.0
    f_hi = rf.evaluate(two_point(0.0, hi, p))
    expansions = 0
    while f_hi > target and expansions < 40:
        hi *= 2.0
        f_hi = rf.evaluate(two_point(0.0, hi, p))
        expansions += 1
    if f_hi > target:
        return None
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = rf.evaluate(two_point(0.0, mid, p))
        if abs(f_mid - target) <= 0.01 * tol:
            return two_point(0.0, mid, p)
        if f_mid > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, hi):
            break
    candidate = two_point(0.0, 0.5 * (lo + hi), p)
    if abs(rf.evaluate(candidate) - target) <= tol:
        return candidate
    return None


def _expected_derivative(score, d, x: float, side: str) -> float:
    """One-sided derivative in the forecast of the expected score."""
    if isinstance(score, QuantileScore):
        if side == "left" and isinstance(d, FiniteAtomic):  # the CDF's left limit
            idx = int(np.searchsorted(d._values, x, side="left"))
            f = float(d._cum[idx - 1]) if idx > 0 else 0.0
        else:
            f = d.cdf(x)
        return (f - score.alpha) * float(score.generator.derivative(x, side=side))
    # squared generator: 2[(1 - tau) E(x - Y)^+ - tau E(Y - x)^+], continuous in x
    return 2.0 * ((1.0 - score.tau) * d.lower_partial_moment(x)
                  - score.tau * d.upper_partial_moment(x))


def _sign_boundary(pred, a: float, b: float) -> tuple[float, float]:
    # (last true point, first false point) of a monotone predicate, 1e-13-scale apart
    for _ in range(200):
        if abs(b - a) <= 1e-13 * (1.0 + abs(a) + abs(b)):
            break
        mid = 0.5 * (a + b)
        if pred(mid):
            a = mid
        else:
            b = mid
    return a, b


def derivative_argmin(score, d, lo: float, hi: float) -> tuple[float, float]:
    """Minimizer-set edges in [lo, hi] by bisecting one-sided derivative signs.

    This was the argmin path for quantile scores with a strictly increasing
    generator and the squared expectile score before the edges were read off
    the quantile ladder and the expectile: the expected score is unimodal, so
    "decreasing to the right" and "not increasing to the left" are monotone
    predicates whose sign changes pin the two edges.
    """
    def decreasing(x: float) -> bool:
        return _expected_derivative(score, d, x, "right") < 0.0

    def not_increasing(x: float) -> bool:
        return not _expected_derivative(score, d, x, "left") > 0.0

    if not decreasing(lo):
        left = lo
    elif decreasing(hi):
        left = hi
    else:
        left = _sign_boundary(decreasing, lo, hi)[1]
    if not_increasing(hi):
        right = hi
    elif not not_increasing(lo):
        right = lo
    else:
        right = _sign_boundary(not_increasing, lo, hi)[0]
    return left, right


def sublevel_argmin(score, d, lo: float, hi: float, grid_points: int = 4097):
    """Minimizer-set edges in [lo, hi] from a grid, a zoom and two bisections.

    This was the argmin path for every generator without a closed form
    before the breakpoint kernel: a ``grid_points`` sweep over the bracket
    plus a zoom pins the minimum value, and the edges of the sublevel set
    just above it, fmin + 1e-11 (1 + |fmin|), are bisected to 1e-12 (1 + |x|)
    from the best point found.  It builds grid_points x n matrices.
    """
    xs = np.linspace(lo, hi, grid_points)
    f = np.asarray(score.expected_score(xs, d), dtype=float)
    k = int(np.argmin(f))
    zs = np.linspace(xs[max(k - 1, 0)], xs[min(k + 1, grid_points - 1)], grid_points)
    fz = np.asarray(score.expected_score(zs, d), dtype=float)
    kz = int(np.argmin(fz))
    if fz[kz] <= f[k]:
        fmin, xstar = float(fz[kz]), float(zs[kz])
    else:
        fmin, xstar = float(f[k]), float(xs[k])
    level = fmin + 1e-11 * (1.0 + abs(fmin))

    def inside(x: float) -> bool:
        return float(score.expected_score(x, d)) <= level

    def edge(outer: float, inner: float) -> float:
        a, b = outer, inner
        for _ in range(200):
            if abs(b - a) <= 1e-12 * (1.0 + abs(b)):
                break
            mid = 0.5 * (a + b)
            if inside(mid):
                b = mid
            else:
                a = mid
        return b

    left = lo if inside(lo) else edge(lo, xstar)
    right = hi if inside(hi) else edge(hi, xstar)
    return left, right


def stepwise_breakpoint_edges(score, d: FiniteAtomic, lo: float, hi: float):
    """Minimizer-set edges in [lo, hi] from the breakpoint kernel, step by step.

    This was the breakpoint kernel before it evaluated the generator once
    per solve: the same candidates, prefix-sum pass, level and bisections,
    but fmin and every bisection value come from ``score.expected_score``,
    which evaluates the generator on every atom again.  The prefix-sum pass
    runs under ``np.errstate``, so an overflow there ends, as in the kernel,
    in the ``ValueError`` of the first exact sum that is not finite.
    """
    gen, y = score.generator, d._values
    # the generator's values unchecked, as the kernel read them then: an
    # overflow is inf, and only the exact sums raise
    value, slope = gen.__call__.__wrapped__, gen.derivative.__wrapped__
    constant = not isinstance(score, QuantileScore)
    b = np.unique(np.concatenate(([lo, hi], y, gen.knots)))
    b = b[(b >= lo) & (b <= hi)]
    x = np.append(np.column_stack((b[:-1], 0.5 * b[:-1] + 0.5 * b[1:])), b[-1]) if constant else b
    with np.errstate(over="ignore", invalid="ignore"):
        g_cum = np.cumsum(d._weights * (value(gen, y) - value(gen, y[:1])))
        j = y.searchsorted(x, side="right")
        w, g, c = (np.concatenate(([0.0], s))[j] for s in (d._cum, g_cum, d._csum))
        c_le, c_gt, a, s = score._line(value(gen, x) - value(gen, y[:1]), slope(gen, x),
                                       x - y[:1])
        ladder = (c_le * (g - a * w - s * c)
                  + c_gt * (g_cum[-1] - g - a * (1.0 - w) - s * (d._csum[-1] - c)))
    k = int(np.argmin(ladder))
    fmin = float(score.expected_score(x[k], d))
    level = fmin + 1e-11 * (1.0 + abs(fmin))

    def above(i: int) -> bool:
        return float(score.expected_score(x[i], d)) > level

    left = bisect.bisect_left(range(k), True, key=lambda i: not above(i))
    right = k - 1 + bisect.bisect_left(range(k, x.size), True, key=above)
    if constant:
        left -= left % 2
        right += right % 2
    return float(x[left]), float(x[right])


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min_nu_over_mp(d, C: float, width_tol: float = 1e-10) -> tuple[float, float]:
    """Golden-section minimization of p -> nu(mp_measure(p, C), d) on (0, 1).

    This was ``min_nu_over_mp`` before the closed form: the objective is
    unimodal in p, so the bracket [1e-9, 1 - 1e-9] narrows to ``width_tol``
    without derivatives.  Returns (argmin, min value).
    """
    def f(p: float) -> float:
        return nu(mp_measure(p, C), d)

    a, b = 1e-9, 1.0 - 1e-9
    c1 = b - _GOLDEN * (b - a)
    c2 = a + _GOLDEN * (b - a)
    f1, f2 = f(c1), f(c2)
    while b - a > width_tol:
        if f1 <= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - _GOLDEN * (b - a)
            f1 = f(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + _GOLDEN * (b - a)
            f2 = f(c2)
    p = 0.5 * (a + b)
    return p, f(p)


def pointwise_interval_mass(m: SpectralMeasure, p1: float, p2: float) -> float:
    """interval_mass as it was, one pair of levels per call: the atoms'
    overlaps dotted with their weights, the density's closed form, and the
    atom at zero when p1 == 0."""
    overlap = np.clip(np.minimum(m._alphas, p2) - p1, 0.0, None)
    out = float(np.dot(m._w_over_a, overlap)) + _density_g_integral(m.density, p1, p2)
    return out + m.atom_at_zero if p1 == 0.0 else out


def figure_text_oracle(C: float, qs) -> str:
    """The figure verb's CSV as it was built before its columns were arrays:
    each level replaced its nearest grid point, and each of the 512 rows
    made one scalar interval_mass call per curve."""
    uc = uc_measure(C)
    es_measure = SpectralMeasure(atoms=[(C, 1.0)])
    mqs = [(q, mp_measure(q, C)) for q in qs]
    grid = np.linspace(0.0, 1.0, 512)
    for q in qs:
        grid[int(np.argmin(np.abs(grid - q)))] = q
    grid.sort()
    lines = ["p,uc_integrated,es_integrated," + ",".join(f"mq_{q:g}" for q, _ in mqs)]
    for p in grid.tolist():
        row = [p, pointwise_interval_mass(uc, p, 1.0), pointwise_interval_mass(es_measure, p, 1.0)]
        row += [pointwise_interval_mass(m, p, 1.0) for _, m in mqs]
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def per_value_csv_table(header: str, columns) -> str:
    """The figure verb's CSV text as it was formatted before one ``%`` took the
    whole table: one ``_fmt`` call per value."""
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return "\n".join([header] + [",".join(map(_fmt, row)) for row in rows]) + "\n"


def pointwise_bounds_entries(m: SpectralMeasure, C: float, grid, eq_tol: float) -> list:
    """spectral_bounds_check's entries as it built them, one level at a time
    with scalar spectral_fn and interval_mass calls, as field tuples."""
    entries = []
    for p in sorted(float(p) for p in grid):
        z = C * (1.0 - p) + p
        g = spectral_fn(m, p)
        integ = interval_mass(m, p, 1.0)
        env = C * (1.0 - p) / z
        lower, upper, integrated = g - C / z, 1.0 / z - g, integ - env
        entries.append((p, g, C / z, 1.0 / z, integ, env, lower, upper, integrated,
                        abs(lower) <= eq_tol, abs(upper) <= eq_tol, abs(integrated) <= eq_tol,
                        lower < -eq_tol or upper < -eq_tol or integrated < -eq_tol))
    return entries


def loadtxt_labels(path, labels):
    """Label columns as numpy's string reader gives them: stripped, one
    column per name, one row per data row; None where numpy rejects the file.

    The panel reader took its labels this way before it factorised them from
    the file's bytes.
    """
    with open(path, newline="") as fh, warnings.catch_warnings():
        warnings.simplefilter("error")
        # numpy reads strings in chunks of rows and warns that a blank line
        # does not count towards a chunk; every row is still read
        warnings.filterwarnings("ignore", "Input line", UserWarning)
        column = {name: i for i, name in enumerate(fh.readline().rstrip("\r\n").split(","))}
        try:
            text = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=str,
                              usecols=[column[name] for name in labels])
        except (ValueError, IndexError, Warning):
            return None
    return np.char.strip(text)


_csv_names = itertools.count()


def write_csv(directory, text: str):
    """Write text to a new file in directory, line ends untranslated."""
    # a fresh name each time: truncating a file can cost milliseconds
    path = directory / f"data{next(_csv_names)}.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


# Fields that Python's float and numpy's parser may read differently, or that
# one of them rejects: underscores, non-ASCII digits and spaces, the ASCII
# separators numpy strips, non-finite values, empty and non-numeric text.
ODD_NUMBERS = ["1_0", "\u0661\u0662", "\u30002.5", "1.0\x1c", "\x1d2", "\t7\x1f", " 3 ", "-0.0",
               "0.0", "nan", "-inf", "Infinity", "1e999", "", " ", "x", "0x1", "1,5"]
ODD_LABELS = ["", " ", "a b", "\u0663", "x\x00", "#c", "a,b", '"q"']


class Faults:
    """Draws for one generated file.

    A file gets at most two kinds of fault, each at about a third of the
    places it can occur, so that most files are valid or close to valid.
    """

    KINDS = ("number", "label", "ragged", "quote", "blank", "cells", "conflict")

    def __init__(self, draw):
        self.draw = draw
        self.kinds = draw(st.sets(st.sampled_from(self.KINDS), max_size=2))

    def __call__(self, kind) -> bool:
        return kind in self.kinds and self.draw(st.integers(1, 3)) == 1

    def number(self) -> str:
        if self("number"):
            return self.draw(st.sampled_from(ODD_NUMBERS))
        return repr(self.draw(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                        st.floats(-1e3, 1e3))))

    def label(self, clean) -> str:
        return self.draw(st.sampled_from(ODD_LABELS if self("label") else clean))

    def header(self, names) -> list:
        """The names in any order, maybe with an extra or a duplicate column."""
        cols = list(self.draw(st.permutations(names)))
        for extra in self.draw(st.lists(st.sampled_from(["note", *names]), max_size=2)):
            cols.insert(self.draw(st.integers(0, len(cols))), extra)
        return cols

    def row(self, cols, value) -> list:
        # the last column of a name is the one read; other columns get filler
        last = {name: len(cols) - 1 - cols[::-1].index(name) for name in value}
        return [value[c] if last.get(c) == i else self.label(["", "9", "n"])
                for i, c in enumerate(cols)]

    def text(self, rows) -> str:
        """Serialise rows, header first.

        Any row may be cut short, get an extra field or have a field quoted;
        blank and whitespace-only lines may follow it; the line ends are LF,
        CRLF or CR, with or without a final one.
        """
        draw = self.draw
        lines = []
        for fields in rows:
            if self("ragged"):
                fields = fields[:draw(st.integers(0, len(fields) - 1))]
            if self("ragged"):
                fields = [*fields, draw(st.sampled_from(["", "1", "z"]))]
            if fields and self("quote"):
                i = draw(st.integers(0, len(fields) - 1))
                fields = [*fields[:i], '"' + fields[i].replace('"', '""') + '"', *fields[i + 1:]]
            lines.append(",".join(fields))
            if self("blank"):
                lines.append(draw(st.sampled_from(["", " ", "\t"])))
        end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        return end.join(lines) + (end if draw(st.booleans()) else "")


@st.composite
def sample_csv_texts(draw) -> str:
    """CSV texts for the column-``y`` reader, valid and not."""
    f = Faults(draw)
    cols = f.header(["y"])
    rows = [f.row(cols, {"y": f.number()}) for _ in range(draw(st.integers(0, 6)))]
    return f.text([cols, *rows])


@st.composite
def panel_csv_texts(draw) -> str:
    """Long-format panel texts: full grids, with cells dropped, repeated or conflicting."""
    f = Faults(draw)
    cols = f.header(["method", "period", "forecast", "realization"])
    # dicts, not sets: the order must not depend on string hashing
    methods = dict.fromkeys(f.label(["a", "b", " a", "c ", "m\u00e9"])
                            for _ in range(draw(st.integers(1, 3))))
    periods = dict.fromkeys(f.label(["1", "2", "t3", " 1", "\u0663"])
                            for _ in range(draw(st.integers(1, 3))))
    truth = {p: f.number() for p in periods}
    cells = list(draw(st.permutations([(m, p) for m in methods for p in periods])))
    if f("cells"):
        del cells[draw(st.integers(0, len(cells) - 1))]
    if cells and f("cells"):
        cells.append(cells[draw(st.integers(0, len(cells) - 1))])
    rows = [f.row(cols, {"method": m, "period": p, "forecast": f.number(),
                         "realization": f.number() if f("conflict") else truth[p]})
            for m, p in cells]
    return f.text([cols, *rows])
