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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, FiniteAtomic, _check_level, _check_tol, mix, two_point
from .risk import RiskFunctional, l_C, u_C
from .spectral import SpectralMeasure, interval_mass, spectral_fn

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


def identify_C(rf: RiskFunctional, grid=None, tolerance: float = 1e-8) -> CIdentification:
    """Estimate the two-point constant C and check its internal consistency.

    For each grid point p the functional is evaluated on the law putting
    mass p at 0 and 1 - p at 1.  A value r in (-1, 0) inverts to

        C_p = -p * r / ((1 - p) * (1 + r)),

    and C_hat is the median of the C_p.  The result is consistent only if no
    point was degenerate, the residual spread stays within ``tolerance`` and
    C_hat lands in (0, 1].
    """
    tolerance = _check_tol(tolerance, "tolerance")
    if grid is None:
        grid = DEFAULT_GRID
    pts = _check_grid(grid, minimum=5)
    estimates: list[tuple[float, float]] = []
    degenerate: list[tuple[float, float]] = []
    for p in pts:
        r = rf.evaluate(two_point(0.0, 1.0, p))
        if r > -1.0:
            c_p = -p * r / ((1.0 - p) * (1.0 + r))
            estimates.append((p, c_p))
        if not (-1.0 < r < 0.0):
            degenerate.append((p, r))
    c_hat = float(np.median([c for _, c in estimates])) if estimates else 0.0
    residuals = tuple((p, float(c - c_hat)) for p, c in estimates)
    max_res = max((abs(r) for _, r in residuals), default=0.0)
    consistent = bool((not degenerate) and max_res <= tolerance and 0.0 < c_hat <= 1.0)
    return CIdentification(c_hat=c_hat, residuals=residuals, consistent=consistent,
                           tolerance=tolerance, degenerate=tuple(degenerate))


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


def _hunt_members(rf: RiskFunctional, pts: list[float], tol: float) -> dict:
    """The hunt's members {(t, i): law}, as :func:`convex_level_set_test` states."""
    members = {}
    for i, p in enumerate(pts):
        r_p = rf.evaluate(two_point(0.0, 1.0, p))
        if not r_p < 0.0:
            continue
        for t in _TARGETS:
            x2 = t / r_p
            if math.isfinite(x2):
                m = two_point(0.0, x2, p)
                if abs(rf.evaluate(m) - t) <= tol:
                    members[(t, i)] = m
    return members


def convex_level_set_test(rf: RiskFunctional, search_budget: int = 10000, seed: int = 0,
                          tol: float = 1e-9, grid=None):
    """Seeded hunt for a mixture that breaks convex level sets.

    The functional is assumed positively homogeneous, as the two-point display
    of :func:`identify_C` is.  So with r_p the value of the law putting mass p
    at 0 and 1 - p at 1, the law with mass p at 0 whose value is a target
    t < 0 is ``two_point(0, t / r_p, p)``; it exists only when r_p < 0, and is
    kept only when its value lies within ``tol`` of t.

    The candidates are a target and an unordered pair i < j of grid weights,
    3 g (g - 1) / 2 of them on a grid of g points; the mixture weights are
    symmetric, so the ordered pair (j, i) would add nothing.  They are tried
    in the order of a permutation seeded by ``seed``, at most
    ``search_budget`` of them, and each is evaluated at three interior
    mixtures.  The first witness whose recomputation passes
    :meth:`ConvexityWitness.validate` is returned; ``None`` means only that
    no violation was found among the candidates tried.
    """
    if search_budget < 1:
        raise ValueError("search_budget must be positive")
    tol = _check_tol(tol)
    if grid is None:
        grid = DEFAULT_GRID
    pts = _check_grid(grid, minimum=2)
    members = _hunt_members(rf, pts, tol)
    space = [(t, i, j) for t in _TARGETS for i, j in itertools.combinations(range(len(pts)), 2)]
    for k in np.random.default_rng(seed).permutation(len(space))[:search_budget]:
        t, i, j = space[k]
        m0, m1 = members.get((t, i)), members.get((t, j))
        if m0 is None or m1 is None:
            continue
        for w in _MIX_WEIGHTS:
            v = rf.evaluate(mix(m0, m1, w))
            if abs(v - t) > 10.0 * tol:
                witness = ConvexityWitness(p0=m0, p1=m1, mix_weight=w,
                                           target=t, value_at_mixture=v)
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
    """Check l_C <= rho <= u_C on every law in the test set."""
    tol = _check_tol(tol)
    entries = []
    for d in test_set:
        lo = float(l_C(d, C))
        hi = float(u_C(d, C))
        v = float(rf.evaluate(d))
        entries.append(BoundEntry(
            distribution=d, lower=lo, value=v, upper=hi,
            lower_margin=v - lo, upper_margin=hi - v,
            ok=bool(v >= lo - tol and v <= hi + tol)))
    return BoundCheckReport(C=float(C), tolerance=tol, entries=entries)


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
    if grid is None:
        grid = DEFAULT_GRID
    pts = _check_grid(grid, minimum=1)
    entries = []
    for p in pts:
        z = C * (1.0 - p) + p
        g = float(spectral_fn(m, p))
        g_lo = C / z
        g_hi = 1.0 / z
        integ = float(interval_mass(m, p, 1.0))
        env = C * (1.0 - p) / z
        lower_margin = g - g_lo
        upper_margin = g_hi - g
        integrated_margin = integ - env
        entries.append(SpectralBoundsEntry(
            p=p, spectral_value=g, pointwise_lower=g_lo, pointwise_upper=g_hi,
            integrated=integ, integrated_lower=env,
            lower_margin=lower_margin, upper_margin=upper_margin,
            integrated_margin=integrated_margin,
            equals_lower=bool(abs(lower_margin) <= eq_tol),
            equals_upper=bool(abs(upper_margin) <= eq_tol),
            equals_integrated=bool(abs(integrated_margin) <= eq_tol),
            violated=bool(lower_margin < -eq_tol or upper_margin < -eq_tol
                          or integrated_margin < -eq_tol)))
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
