"""Probability measures on [0, 1] and the tail-weighting functionals they induce.

A measure m here is a (possibly zero) atom at 0, finitely many atoms on
(0, 1], and optionally one parametric density on (0, 1).  Its spectral
function is

    g_m(u) = integral of 1/alpha over m restricted to [u, 1],

a left-continuous nonincreasing weight profile.  The induced functional on a
law Y is

    nu(m, Y) = E[g_m(V) F^{-1}(V)] + m({0}) * essinf(Y),   V ~ U(0, 1),

which equals the m-average of the lower tail means

    nu_via_U(m, Y) = integral of U_alpha(Y) m(dalpha),
    U_alpha(Y) = (1/alpha) * integral of F^{-1} over (0, alpha],  U_0 = essinf.

Atoms of m enter both routes as w/alpha times a partial quantile integral.
On atomic laws the density part is integrated independently by each route,
so the two cross-check each other; on the uniform law both reduce to one
closed form.

The one parametric density provided has shape

    f_C(v) = 2 C (1 - C) v / (v + C(1 - v))^3   on (0, 1),  C in (0, 1],

total mass 1 - C; paired with an atom of weight C at 1 it yields the
spectral function C / (v + C(1 - v))^2, whose integral over (p, 1] is
C(1 - p) / (C(1 - p) + p): the lower envelope of the two-atom family below.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .distributions import (Distribution, FiniteAtomic, Uniform, _check_level, _check_normal_level,
                            _check_open_unit, _check_prob, _check_tol, _json_number,
                            _segment_dots)

__all__ = [
    "UcDensity",
    "SpectralMeasure",
    "mp_measure",
    "uc_measure",
    "spectral_fn",
    "interval_mass",
    "nu",
    "nu_via_U",
    "measure_from_json",
    "measure_to_json",
    "NORMALIZATION_TOL",
    "JSON_NORMALIZATION_TOL",
]

# Programmatic constructions must normalize to this accuracy; JSON input,
# typically hand-written decimals, gets the looser bound.
NORMALIZATION_TOL = 1e-10
JSON_NORMALIZATION_TOL = 1e-8


@dataclass(frozen=True)
class UcDensity:
    """Density 2C(1-C)v / (v + C(1-v))^3 on (0, 1), with mass 1 - C."""

    C: float

    def __post_init__(self):
        # a subnormal C would overflow the 1 / C of the closed forms
        C = _check_level(self.C, "density parameter C")
        if not math.isfinite(1.0 / C):
            raise ValueError(f"density parameter C must have a finite 1 / C, got {C!r}")
        object.__setattr__(self, "C", C)

    def mass(self) -> float:
        return 1.0 - self.C

    def __call__(self, v):
        c, v = self.C, np.asarray(v, dtype=float)
        bad = ~((0.0 <= v) & (v <= 1.0))
        if bad.any():
            raise ValueError(f"v must lie in [0, 1], got {v[bad][0].item()!r}")
        h = c + (1.0 - c) * v
        # two ratios that sum to 1: at most 1 / (2C), finite for every C; h^3 underflows
        out = 2.0 * (c / h) * ((1.0 - c) * v / h) / h
        return out if out.ndim else float(out)


class SpectralMeasure:
    """Probability measure on [0, 1]: atom at zero, atoms on (0, 1], optional density.

    Parameters
    ----------
    atom_at_zero : float
        Mass placed at level 0.
    atoms : iterable of (alpha, weight)
        Atoms with alpha in (0, 1] and positive weight.  Duplicate levels are
        merged.
    density : UcDensity or None
        Optional parametric density on (0, 1).
    tol : float
        Total mass must equal one within this tolerance.
    """

    def __init__(self, atom_at_zero: float = 0.0, atoms=(), density: UcDensity | None = None,
                 tol: float = NORMALIZATION_TOL):
        atom_at_zero = _check_prob(atom_at_zero, "atom_at_zero")
        tol = _check_tol(tol)
        pairs = [(float(a), float(w)) for a, w in atoms]
        # bounds that keep the total and every weight / level below overflow:
        # a normalized weight is at most 1 + tol
        for a, w in pairs:
            _check_normal_level(a, "atom level")
            if not 0.0 < w <= 1.0 + tol:
                raise ValueError(f"atom weight must lie in (0, 1], got {w!r}")
        if density is not None and not isinstance(density, UcDensity):
            raise TypeError("density must be a UcDensity or None")

        merged: dict[float, float] = {}
        for a, w in pairs:
            merged[a] = merged.get(a, 0.0) + w
        levels = np.array(sorted(merged), dtype=float)
        weights = np.array([merged[a] for a in sorted(merged)], dtype=float)

        density_mass = density.mass() if density is not None else 0.0
        total = atom_at_zero + float(weights.sum()) + density_mass
        if abs(total - 1.0) > tol:
            raise ValueError(
                f"measure must normalize to 1 within {tol}, got total mass {total!r}")

        self.atom_at_zero = atom_at_zero
        self.density = density
        self._alphas = levels
        self._weights = weights
        # 1/alpha weighting, precomputed for the Fubini-style interval sums
        self._w_over_a = weights / levels

    @property
    def atoms(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self._alphas.tolist(), self._weights.tolist()))

    def __repr__(self):
        parts = []
        if self.atom_at_zero:
            parts.append(f"atom0={self.atom_at_zero:.6g}")
        if self._alphas.size:
            at = ", ".join(f"({a:.6g}, {w:.6g})" for a, w in self.atoms)
            parts.append(f"atoms=[{at}]")
        if self.density is not None:
            parts.append(f"density=UcDensity({self.density.C:.6g})")
        return f"SpectralMeasure({', '.join(parts)})"


def mp_measure(p: float, C: float) -> SpectralMeasure:
    """Two-atom measure with mass at p and at 1, tuned by the bound parameter C.

    The weights are p(1-C)/Z at level p and C/Z at level 1, Z = p(1-C) + C.
    For C = 1 this degenerates to the point mass at 1.
    """
    p, C = _check_open_unit(p, "p"), _check_level(C, "C")
    z = p * (1.0 - C) + C
    # the smaller weight from its own formula keeps its relative accuracy,
    # and the larger is 1 minus it, so that the two sum to exactly 1
    top = C / z
    w1 = 1.0 - top if top <= 0.5 else p * (1.0 - C) / z
    atoms = [(1.0, top if top <= 0.5 else 1.0 - w1)]
    if w1 > 0.0:
        atoms.insert(0, (p, w1))
    return SpectralMeasure(atoms=atoms)


def uc_measure(C: float) -> SpectralMeasure:
    """Density f_C plus an atom of weight C at level 1 (point mass at 1 when C = 1)."""
    C = _check_level(C, "C")
    if C == 1.0:
        return SpectralMeasure(atoms=[(1.0, 1.0)])
    return SpectralMeasure(atoms=[(1.0, C)], density=UcDensity(C))


def _density_g_integral(density: UcDensity | None, p1, p2):
    # integral of the density part of g_m over (p1, p2], elementwise on arrays
    if density is None or density.C == 1.0:
        return 0.0
    # C (p2 - p1)(1 - h1 h2) / (h1 h2) with h = C + t p, t = 1 - C: as a product,
    # 1 - h1 h2 = t ((1 - p1) + (1 - p2) h1), it does not cancel as C -> 1, and
    # its ratios underflow only with the result
    c = density.C
    t = 1.0 - c
    h1 = c + t * p1
    return (c / h1) * ((p2 - p1) / (c + t * p2)) * (t * ((1.0 - p1) + (1.0 - p2) * h1))


def spectral_fn(m: SpectralMeasure, u):
    """g_m(u): total 1/alpha-weighted mass of m on [u, 1], for u in (0, 1].

    ``u`` may be an array of levels, giving an array of its shape; a scalar
    gives a float.
    """
    u = np.asarray(u, dtype=float)
    bad = ~((0.0 < u) & (u <= 1.0))
    if bad.any():
        raise ValueError(f"u must lie in (0, 1], got {u[bad][0].item()!r}")
    # the atoms' part looks up their tail sums, zero past the last atom
    out = np.append(np.cumsum(m._w_over_a[::-1])[::-1], 0.0)[np.searchsorted(m._alphas, u)]
    if m.density is not None and m.density.C != 1.0:
        # the density adds C / h(u)^2 - C with h = C + (1 - C) u >= C; C / h / h
        # does not underflow at a tiny C as h^2 would
        c = m.density.C
        h = c + (1.0 - c) * u
        out = out + (c / h / h - c)
    return out if out.ndim else float(out)


def interval_mass(m: SpectralMeasure, p1, p2):
    """Integral of g_m over (p1, p2], plus the atom at zero when p1 == 0.

    Equals the 1/alpha-weighted overlap sum over the measure: each atom
    (alpha, w) with alpha >= p1 contributes w * (min(alpha, p2) - p1)^+ / alpha.
    ``p1`` and ``p2`` may be arrays of levels, giving an array of their
    broadcast shape; scalars give a float.
    """
    p1, p2 = np.broadcast_arrays(np.asarray(p1, dtype=float), np.asarray(p2, dtype=float))
    bad = ~((0.0 <= p1) & (p1 <= p2) & (p2 <= 1.0))
    if bad.any():
        raise ValueError(f"need 0 <= p1 <= p2 <= 1, got ({p1[bad][0].item()!r}, "
                         f"{p2[bad][0].item()!r})")
    overlap = np.clip(np.minimum(m._alphas, p2[..., None]) - p1[..., None], 0.0, None)
    # the dot product a scalar level takes, once per level: a matrix-vector
    # product would sum in another order
    out = (np.vecdot(overlap, m._w_over_a) + _density_g_integral(m.density, p1, p2)
           + np.where(p1 == 0.0, m.atom_at_zero, 0.0))
    return out if out.ndim else float(out)


def _atom_part(m: SpectralMeasure, d: Distribution, route: str) -> float:
    # sum over the atoms of w/alpha * integral of F^{-1} over (0, alpha], plus
    # the atom at zero; exact for both law types
    if not isinstance(d, (FiniteAtomic, Uniform)):
        raise TypeError(f"{route} is not defined for {type(d).__name__}")
    return m.atom_at_zero * d.support_min() + float(np.dot(m._w_over_a, d._pqi(m._alphas)))


def _nu_rows(m: SpectralMeasure, s) -> np.ndarray:
    """nu(m, .) of every row of a stack of atomic laws, as an array."""
    out = m.atom_at_zero * s.values[s.start] + np.vecdot(s.pqi(m._alphas), m._w_over_a)
    if m.density is None or m.density.C == 1.0:
        return out
    # the quantile is x_i on (c[i-1], c[i]], c[-1] = 0 at each row's start
    prev = np.concatenate(([0.0], s.cum[:-1]))
    prev[s.start] = 0.0
    g = _density_g_integral(m.density, prev, s.cum)
    return out + _segment_dots(s.values, g, s.start, s.end)


# Horner coefficients 1/m, m = 60 down to 3, of the series below
_E_SERIES = 1.0 / np.arange(60.0, 2.0, -1.0)


def _uniform_density_part(d: Uniform, C: float) -> float:
    """Density part of nu for Uniform(a, b): a(1 - C) + (b - a) C E(1 - C).

    E(t) = (-log(1 - t) - t) / t^2 - 1/2 = sum over m >= 3 of t^(m-2) / m.
    The log form cancels as t -> 0, so below t = 1/2 the series is summed;
    there its truncation after t^58 is below 1e-17 relative.
    """
    t = 1.0 - C
    if t < 0.5:
        e = t * float(np.polyval(_E_SERIES, t))
    else:
        e = (-math.log(C) - t) / (t * t) - 0.5
    return d.a * t + (d.b - d.a) * C * e


def nu(m: SpectralMeasure, d: Distribution) -> float:
    """Spectral functional E[g_m(V) F^{-1}(V)] + m({0}) * essinf, V uniform.

    Exact for atomic laws: the atoms of m read the law's partial quantile
    integrals, and the quantile is constant on each cumulative-weight
    interval (c[i-1], c[i]], so the density part is a finite sum of interval
    masses.  For the uniform law the density part has a closed form.
    """
    if isinstance(d, FiniteAtomic):
        return float(_nu_rows(m, d._row)[0])
    out = _atom_part(m, d, "nu")
    if m.density is None or m.density.C == 1.0:
        return out
    return out + _uniform_density_part(d, m.density.C)


def nu_via_U(m: SpectralMeasure, d: Distribution) -> float:
    """Independent route: integrate the lower tail mean U_alpha(d) against m.

    Atoms evaluate exactly.  For an atomic law the density part also
    evaluates exactly: the partial quantile integral is piecewise affine in
    alpha, so each piece integrates against the density in closed form.
    For the uniform law it reduces to the same closed form as :func:`nu`.
    """
    out = _atom_part(m, d, "nu_via_U")
    if m.density is None or m.density.C == 1.0:
        return out
    c = m.density.C
    if isinstance(d, Uniform):
        return out + _uniform_density_part(d, c)
    cum, csum = d._cum, d._csum
    prev, csum_prev = np.concatenate(([0.0], cum[:-1])), np.concatenate(([0.0], csum[:-1]))
    # On (p1, p2] = (c[i-1], c[i]] the tail integral is affine in a, so its piece of
    # the integral against f_C(a)/a = 2C(1-C)/h(a)^3, h = C + t a, t = 1 - C, is
    # k (P1/h1 + P2/h2) with k = C (p2 - p1) t / (h1 h2) and P1, P2 the tail integral
    # x_0 c + S at the ends: a product that does not cancel as C -> 1.  The x_0 c
    # parts sum to x_0 t, x_0 times the density's mass.
    t = 1.0 - c
    h_prev, h_cum = c + t * prev, c + t * cum
    k = (c / h_prev) * ((cum - prev) * t / h_cum)
    return out + d._values[0] * t + float(np.dot(k, csum_prev / h_prev + csum / h_cum))


def measure_from_json(spec, tol: float = JSON_NORMALIZATION_TOL) -> SpectralMeasure:
    """Build a measure from a JSON object or string.

    Schema: {"atom0": w, "atoms": [[alpha, w], ...],
             "density": {"type": "uc", "C": c} | null}; all keys optional.
    """
    if isinstance(spec, (str, bytes)):
        spec = json.loads(spec)
    if not isinstance(spec, dict):
        raise ValueError("measure spec must be a JSON object")
    unknown = set(spec) - {"atom0", "atoms", "density"}
    if unknown:
        raise ValueError(f"unknown measure spec keys: {sorted(unknown)}")
    atom0 = _json_number(spec.get("atom0", 0.0), "atom0")
    atoms = spec.get("atoms", [])
    if not isinstance(atoms, list):
        raise ValueError("'atoms' must be a list of [alpha, weight] pairs")
    pairs = []
    for entry in atoms:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValueError(f"bad atom entry {entry!r}; expected [alpha, weight]")
        pairs.append((_json_number(entry[0], "atom level"),
                      _json_number(entry[1], "atom weight")))
    density_spec = spec.get("density")
    density = None
    if density_spec is not None:
        if not isinstance(density_spec, dict) or density_spec.get("type") != "uc":
            raise ValueError(f"unsupported density spec {density_spec!r}")
        unknown = set(density_spec) - {"type", "C"}
        if unknown:
            raise ValueError(f"unknown uc density keys: {sorted(unknown)}")
        density = UcDensity(_json_number(density_spec.get("C"), "density C"))
    return SpectralMeasure(atom_at_zero=atom0, atoms=pairs, density=density, tol=tol)


def measure_to_json(m: SpectralMeasure) -> dict:
    """Inverse of measure_from_json, as a plain dict."""
    density = None
    if m.density is not None:
        density = {"type": "uc", "C": m.density.C}
    return {
        "atom0": m.atom_at_zero,
        "atoms": [[a, w] for a, w in m.atoms],
        "density": density,
    }
