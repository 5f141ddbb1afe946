"""Diagnostics for whether a risk functional can be backed by a scoring rule.

A functional with convex level sets assigns every two-point law on {0, 1} a
value determined by one constant C in (0, 1]:

    rho(p * delta_0 + (1 - p) * delta_1) = -C(1 - p) / (C(1 - p) + p).

Inverting this on a grid of p values identifies C; a functional for which the
per-point solutions disagree, or fall outside (0, 1], cannot have convex
level sets.  A second, direct diagnostic searches for mixtures of equal-value
two-point laws whose value moves, which witnesses non-convex level sets
outright.  Finally, the spectral bound checks compare a measure's weight
profile against the closed-form corridor

    C / (C(1-p) + p)  <=  g(p)  <=  1 / (C(1-p) + p)

and its integrated form, whose lower envelope over (p, 1] is
C(1 - p) / (C(1 - p) + p).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (Distribution, FiniteAtomic, _check_level, _check_tol, _Stack, mix,
                            two_point)
from .risk import RiskFunctional, _expectile_rows, l_C, u_C
from .spectral import SpectralMeasure, _nu_rows, interval_mass, spectral_fn, uc_measure

__all__ = [
    "CIdentification",
    "ConvexityWitness",
    "BoundEntry",
    "BoundCheckReport",
    "SpectralBoundsEntry",
    "SpectralBoundsReport",
    "identify_C",
    "convex_level_set_test",
    "bound_check",
    "spectral_bounds_check",
    "diagnostic_report",
    "DEFAULT_GRID",
]

DEFAULT_GRID = tuple(np.linspace(0.05, 0.95, 19))

# Search space for the mixture witness hunt: target values reachable by
# two-point laws anchored at 0, and interior mixture weights.  The weights
# are symmetric about 1/2, since the hunt tries each unordered pair once.
_TARGETS = (-0.5, -1.0, -2.0)
_MIX_WEIGHTS = (0.25, 0.5, 0.75)


@dataclass(frozen=True)
class CIdentification:
    """Result of inverting the two-point display for C on a grid.

    ``residuals`` holds (p, C_p - C_hat) for every grid point where the
    inversion was well posed; ``degenerate`` holds (p, value) for points
    whose two-point value fell outside (-1, 0), each one already a witness
    against convex level sets.
    """

    c_hat: float
    residuals: tuple[tuple[float, float], ...]
    consistent: bool
    tolerance: float
    degenerate: tuple[tuple[float, float], ...] = ()

    @property
    def max_residual(self) -> float:
        return max((abs(r) for _, r in self.residuals), default=0.0)


def _check_grid(grid, minimum: int) -> list[float]:
    pts = [float(p) for p in grid]
    if len(pts) < minimum:
        raise ValueError(f"grid needs at least {minimum} points, got {len(pts)}")
    if any(not 0.0 < p < 1.0 for p in pts):
        raise ValueError("grid points must lie strictly inside (0, 1)")
    if len(set(pts)) != len(pts):
        raise ValueError("grid points must be distinct")
    return sorted(pts)


def _median(x: np.ndarray) -> float:
    """``np.median`` of a nonempty 1-d array, bit for bit, NaN if any entry is
    NaN; without its NaN check, which imports ``numpy.ma``."""
    s = np.sort(x)  # NaN sorts last
    h = s.size // 2
    if np.isnan(s[-1]):
        return float(s[-1])
    return float(s[h] if s.size % 2 else (s[h - 1] + s[h]) / 2.0)


def identify_C(rf: RiskFunctional, grid=None, tolerance: float = 1e-8) -> CIdentification:
    """Estimate the two-point constant C and check its internal consistency.

    The functional is evaluated, in one call, on a stack of the laws putting
    mass p at 0 and 1 - p at 1, p on the grid.  A value r in (-1, 0) inverts to

        C_p = -p * r / ((1 - p) * (1 + r)),

    and C_hat is the median of the C_p.  The result is consistent only if no
    point was degenerate, the residual spread stays within ``tolerance`` and
    C_hat lands in (0, 1].
    """
    tolerance = _check_tol(tolerance, "tolerance")
    p = np.array(_check_grid(DEFAULT_GRID if grid is None else grid, minimum=5))
    r = rf._evaluate_stack(_Stack.two_point(np.ones_like(p), p))
    est, bad = r > -1.0, ~((-1.0 < r) & (r < 0.0))
    with np.errstate(all="ignore"):  # as Python's float arithmetic, which does not warn
        c = -p[est] * r[est] / ((1.0 - p[est]) * (1.0 + r[est]))
    c_hat = _median(c) if c.size else 0.0
    residuals = tuple(zip(p[est].tolist(), (c - c_hat).tolist()))
    max_res = max((abs(x) for _, x in residuals), default=0.0)
    consistent = bool(not bad.any() and max_res <= tolerance and 0.0 < c_hat <= 1.0)
    degenerate = tuple(zip(p[bad].tolist(), r[bad].tolist()))
    return CIdentification(c_hat=c_hat, residuals=residuals, consistent=consistent,
                           tolerance=tolerance, degenerate=degenerate)


@dataclass(frozen=True)
class ConvexityWitness:
    """Two equal-value laws whose mixture changes the functional's value."""

    p0: FiniteAtomic
    p1: FiniteAtomic
    mix_weight: float
    target: float
    value_at_mixture: float

    def validate(self, rf: RiskFunctional, tol: float) -> bool:
        """Recompute everything the witness claims."""
        v0 = rf.evaluate(self.p0)
        v1 = rf.evaluate(self.p1)
        vm = rf.evaluate(mix(self.p0, self.p1, self.mix_weight))
        return (abs(v0 - self.target) <= tol
                and abs(v1 - self.target) <= tol
                and abs(vm - self.value_at_mixture) <= tol
                and abs(vm - self.target) > 10.0 * tol)


def _hunt_members(rf: RiskFunctional, p: np.ndarray, tol: float):
    """The hunt's members as rows of a stack and a (grid point, target) table
    of their rows, -1 where there is no member."""
    r = rf._evaluate_stack(_Stack.two_point(np.ones_like(p), p))[:, None]
    with np.errstate(all="ignore"):  # x is used only where r_p < 0
        x = np.divide(_TARGETS, r)
    made = (r < 0.0) & np.isfinite(x)
    member = np.full(x.shape, -1)
    s = _Stack.two_point(x[made], np.broadcast_to(p[:, None], x.shape)[made])
    hit = np.abs(rf._evaluate_stack(s) - np.broadcast_to(_TARGETS, x.shape)[made]) <= tol
    member[made] = np.where(hit, np.arange(hit.size), -1)
    return s, member


def _member_mixtures(s: _Stack, i0, i1, w) -> _Stack:
    """Rows w m0 + (1 - w) m1 of members ``two_point(0, x, p)``, rows i0 and i1 of s,
    as ``mix`` merges them: mass at 0, then the upper atoms, m0's first."""
    c0, c1 = s.cum[i0, 0], s.cum[i1, 0]  # the mass at 0; 1 for the point mass at 0
    x0, x1 = s.values[i0, -1], s.values[i1, -1]
    b0, b1 = w * (1.0 - c0), (1.0 - w) * (1.0 - c1)
    lo, hi = np.where(x1 < x0, (b1, b0), (b0, b1))  # the weights of the upper atoms in order
    tie = x0 == x1  # one upper atom, whose weight sums m0's and m1's
    values = np.stack((np.zeros_like(x0), np.minimum(x0, x1), np.maximum(x0, x1)), axis=1)
    cum = np.stack((w * c0 + (1.0 - w) * c1, np.where(tie, b0 + b1, lo), np.where(tie, 0.0, hi)),
                   axis=1).cumsum(axis=1)
    return _Stack._from_sorted(values, cum)


def convex_level_set_test(rf: RiskFunctional, search_budget: int = 10000, seed: int = 0,
                          tol: float = 1e-9, grid=None):
    """Seeded hunt for a mixture that breaks convex level sets.

    The functional is assumed positively homogeneous, as the two-point display
    of :func:`identify_C` is.  So with r_p the value of the law putting mass p
    at 0 and 1 - p at 1, the law with mass p at 0 whose value is a target
    t < 0 is ``two_point(0, t / r_p, p)``; it exists only when r_p < 0, and is
    kept as a member only when its value lies within ``tol`` of t.

    The candidates are a target and an unordered pair i < j of grid weights,
    3 g (g - 1) / 2 of them on a grid of g points; the mixture weights are
    symmetric, so the ordered pair (j, i) would add nothing.  They are tried
    in the order of a permutation seeded by ``seed``, at most
    ``search_budget`` of them, and each is evaluated at three interior
    mixtures.  The laws r_p, the members and all mixtures tried are three
    stacks, each evaluated in one call.  Then, in the order tried, a mixture
    off its target builds the laws of a witness, and the first witness whose
    recomputation passes :meth:`ConvexityWitness.validate` is returned.
    ``None`` means only that no violation was found among the candidates tried.
    """
    if search_budget < 1:
        raise ValueError("search_budget must be positive")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    tol = _check_tol(tol)
    p = np.array(_check_grid(DEFAULT_GRID if grid is None else grid, minimum=2))
    s, member = _hunt_members(rf, p, tol)
    # candidate k is (target k // pairs, pair k % pairs), pairs i < j in row-major order
    i, j = np.triu_indices(p.size, 1)
    k = np.random.default_rng(seed).permutation(len(_TARGETS) * i.size)[:search_budget]
    t, pair = np.divmod(k, i.size)
    r0, r1 = member[i[pair], t], member[j[pair], t]
    tried = (r0 >= 0) & (r1 >= 0)
    if not tried.any():
        return None
    i0, i1, target = (np.repeat(c[tried], len(_MIX_WEIGHTS))
                      for c in (r0, r1, np.take(_TARGETS, t)))
    w = np.tile(_MIX_WEIGHTS, np.count_nonzero(tried))
    values = rf._evaluate_stack(_member_mixtures(s, i0, i1, w))
    for r in np.flatnonzero(np.abs(values - target) > 10.0 * tol):
        p0, p1 = (two_point(0.0, s.values[q, -1], s.cum[q, 0]) for q in (i0[r], i1[r]))
        witness = ConvexityWitness(p0=p0, p1=p1, mix_weight=float(w[r]),
                                   target=float(target[r]), value_at_mixture=float(values[r]))
        if witness.validate(rf, tol):
            return witness
    return None


@dataclass(frozen=True)
class BoundEntry:
    """One law's position inside the [l_C, u_C] corridor."""

    distribution: Distribution
    lower: float
    value: float
    upper: float
    lower_margin: float
    upper_margin: float
    ok: bool


@dataclass
class BoundCheckReport:
    C: float
    tolerance: float
    entries: list

    @property
    def violations(self) -> list:
        return [e for e in self.entries if not e.ok]

    @property
    def ok(self) -> bool:
        return not self.violations


def bound_check(rf: RiskFunctional, C: float, test_set, tol: float = 1e-9) -> BoundCheckReport:
    """Check l_C <= rho <= u_C on every law in the test set.  Its atomic laws of
    one atom count form a stack, so no row is padded, and l_C, u_C and the
    functional make one call of their kernel on each; other laws go one by one."""
    tol, C, laws = _check_tol(tol), _check_level(C, "C"), list(test_set)
    lo, hi, v = np.empty((3, len(laws)))
    nu, stacks = uc_measure(C), {}
    for k, d in enumerate(laws):
        if isinstance(d, FiniteAtomic):
            stacks.setdefault(d.n_atoms, []).append(k)
        else:
            lo[k], hi[k], v[k] = l_C(d, C), u_C(d, C), rf.evaluate(d)
    for rows in stacks.values():
        s = _Stack.of([laws[k] for k in rows])
        lo[rows], hi[rows] = -_expectile_rows(s, C / (C + 1.0))[0], -_nu_rows(nu, s)
        v[rows] = rf._evaluate_stack(s)
    entries = [BoundEntry(distribution=d, lower=a, value=x, upper=b, lower_margin=x - a,
                          upper_margin=b - x, ok=bool(x >= a - tol and x <= b + tol))
               for d, a, x, b in zip(laws, lo.tolist(), v.tolist(), hi.tolist())]
    return BoundCheckReport(C=C, tolerance=tol, entries=entries)


@dataclass(frozen=True)
class SpectralBoundsEntry:
    """Corridor margins for one level p.

    Margins are signed so that a negative value (beyond the equality
    tolerance) is a violation; ``equals_*`` flags equality within it.
    """

    p: float
    spectral_value: float
    pointwise_lower: float
    pointwise_upper: float
    integrated: float
    integrated_lower: float
    lower_margin: float
    upper_margin: float
    integrated_margin: float
    equals_lower: bool
    equals_upper: bool
    equals_integrated: bool
    violated: bool


@dataclass
class SpectralBoundsReport:
    C: float
    equality_tol: float
    entries: list

    @property
    def violations(self) -> list:
        return [e for e in self.entries if e.violated]

    @property
    def ok(self) -> bool:
        return not self.violations

    def equality_points(self, which: str = "integrated") -> list[float]:
        flag = {"integrated": "equals_integrated", "lower": "equals_lower",
                "upper": "equals_upper"}[which]
        return [e.p for e in self.entries if getattr(e, flag)]


def spectral_bounds_check(m: SpectralMeasure, C: float, grid=None,
                          eq_tol: float = 1e-10) -> SpectralBoundsReport:
    """Compare a measure's spectral function against the C-corridor on a grid.

    At each p the pointwise bounds C/Z and 1/Z with Z = C(1-p) + p are
    checked against g_m(p), and the integrated bound C(1-p)/Z against the
    mass of g_m over (p, 1].
    """
    C = _check_level(C, "C")
    eq_tol = _check_tol(eq_tol, "eq_tol")
    p = np.array(_check_grid(DEFAULT_GRID if grid is None else grid, minimum=1))
    z = C * (1.0 - p) + p
    g, g_lo, g_hi = spectral_fn(m, p), C / z, 1.0 / z
    integ, env = interval_mass(m, p, 1.0), C * (1.0 - p) / z
    margins = (g - g_lo, g_hi - g, integ - env)
    columns = (p, g, g_lo, g_hi, integ, env, *margins,
               *(np.abs(x) <= eq_tol for x in margins), np.min(margins, axis=0) < -eq_tol)
    entries = [SpectralBoundsEntry(*row) for row in zip(*(c.tolist() for c in columns))]
    return SpectralBoundsReport(C=C, equality_tol=eq_tol, entries=entries)


def _witness_dict(w: ConvexityWitness) -> dict:
    return {
        "target": w.target,
        "mix_weight": w.mix_weight,
        "value_at_mixture": w.value_at_mixture,
        "p0_atoms": [[x, wt] for x, wt in w.p0.atoms()],
        "p1_atoms": [[x, wt] for x, wt in w.p1.atoms()],
    }


def diagnostic_report(identification: CIdentification, witness=None,
                      bound_report: BoundCheckReport | None = None,
                      spectral_reports=(), search_budget: int | None = None) -> dict:
    """Assemble the JSON-ready diagnostic summary."""
    spectral_reports = list(spectral_reports)
    ok = (identification.consistent and witness is None
          and (bound_report is None or bound_report.ok)
          and all(r.ok for r in spectral_reports))
    margins: list[dict] = []
    if bound_report is not None:
        for e in bound_report.entries:
            margins.append({
                "kind": "envelope", "distribution": repr(e.distribution),
                "lower": e.lower, "value": e.value, "upper": e.upper,
                "lower_margin": e.lower_margin, "upper_margin": e.upper_margin,
                "ok": e.ok})
    for rep in spectral_reports:
        for e in rep.entries:
            margins.append({
                "kind": "spectral", "p": e.p,
                "lower_margin": e.lower_margin, "upper_margin": e.upper_margin,
                "integrated_margin": e.integrated_margin, "ok": not e.violated})
    report = {
        "verdict": "consistent" if ok else "inconsistent",
        "C_hat": identification.c_hat,
        "residuals": [[p, r] for p, r in identification.residuals],
        "degenerate": [[p, r] for p, r in identification.degenerate],
        "witnesses": [] if witness is None else [_witness_dict(witness)],
        "margins": margins,
    }
    if search_budget is not None and witness is None:
        report["note"] = f"no violation found at budget {search_budget}"
    return report
