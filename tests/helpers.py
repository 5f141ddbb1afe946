"""Shared randomized builders and oracles for the test suite."""

import numpy as np

from elicitrisk import FiniteAtomic, SpectralMeasure, mp_measure, uc_measure


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
