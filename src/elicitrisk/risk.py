"""Law-invariant risk functionals built on quantiles and spectral weights.

Sign convention: a law describes a financial position's payoff, and a risk
functional returns the capital that makes it acceptable, so cash added to the
position reduces risk one for one: rho(Y + a) = rho(Y) - a.  All functionals
here are normalized (rho of a zero payoff is zero) and positively homogeneous.

The two envelope functionals, parameterized by C in (0, 1]:

  * upper envelope u_C: minus the spectral functional of the density-plus-atom
    measure from :func:`elicitrisk.spectral.uc_measure`;
  * lower envelope l_C: minus the expectile at tau = C / (C + 1), which also
    equals the infimum of the two-atom spectral family over its location p.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import (Distribution, FiniteAtomic, Uniform, _check_count, _check_level,
                            _check_normal_level, _check_open_unit, _check_tol, _json_number,
                            _segment_dots, _Stack)
from .spectral import (JSON_NORMALIZATION_TOL, SpectralMeasure, _nu_rows, measure_from_json,
                       measure_to_json, mp_measure, nu, uc_measure)

__all__ = [
    "RiskFunctional",
    "VaR",
    "ES",
    "SpectralRisk",
    "InfOverFamily",
    "ExpectileRisk",
    "NegMean",
    "ExpectileSolution",
    "var",
    "es",
    "expectile",
    "u_C",
    "l_C",
    "min_nu_over_mp",
    "evaluate",
    "coherence_check",
    "CoherenceReport",
    "CoherenceViolation",
    "functional_from_json",
    "functional_to_json",
]


def var(d: Distribution, alpha: float) -> float:
    """Value at risk at level alpha: minus the alpha-quantile of the payoff."""
    alpha = _check_open_unit(alpha, "alpha")
    return -d.quantile(alpha)


def es(d: Distribution, alpha: float) -> float:
    """Expected shortfall: minus the mean of the quantile over (0, alpha].

    The partial quantile integral times 1 / alpha, the same arithmetic as the
    spectral route with a unit atom at alpha (and its bound on alpha), bit for bit.
    """
    alpha = _check_normal_level(_check_open_unit(alpha, "alpha"), "alpha")
    return -(1.0 / alpha) * d.partial_quantile_integral(alpha)


@dataclass(frozen=True)
class ExpectileSolution:
    """Root of the asymmetric first-moment equation, with its CDF location."""

    mu: float
    tau: float
    p_star: float


def _expectile_rows(s: _Stack, tau: float):
    """mu and p_star of the tau-expectile of every row of a stack, as arrays."""
    # psi(x) = tau E(Y - x)^+ - (1 - tau) E(x - Y)^+ is decreasing and piecewise
    # linear, with slope -(tau + (1 - 2 tau) c_j) on segment j, [x_j, x_{j+1}).
    x, cum, st, m, b = s.values, s.cum, s.start, s.atoms, 1.0 - 2.0 * tau
    # psi at every atom from the prefix sums locates the sign change: per row,
    # np.searchsorted(-psi, 0.0) within [1, atoms - 1] ...
    rep = (lambda a: a) if len(m) == 1 else (lambda a: np.repeat(a, m))  # a value per row, per atom
    psi = rep(tau * s.csum[s.end - 1]) + b * s.csum - (x - rep(x[st])) * (tau + b * cum)
    k = ((psi <= 0.0) + rep(s.off[:, 0])).searchsorted(0.5 + s.off[:, 0])
    k = np.minimum(np.maximum(k, st + 1), s.end - 1)
    # ... but the residuals at its ends, atoms k - 1 and k, are summed atom by atom (thin tails):
    # tau T - (1 - tau) H, T above the end and H below it; h = -H sums w_i (x_i - x_end)
    lo = np.maximum(k - 1, st)
    t, h = _segment_dots(s.weights, x, np.concatenate((lo + 1, k + 1, st, st)),
                         np.concatenate((s.end, s.end, lo, k)),
                         x[np.concatenate((lo, k, lo, k))]).reshape(2, -1)
    lo, hi = (tau * t + (1.0 - tau) * h).reshape(2, -1)
    # Rounding may have shifted the segment by one (left, right); else anchor
    # at the end nearer the root, exact when the root is an atom
    left = lo < 0.0
    right = (hi > 0.0) > left
    low_end = left | ((lo < -hi) > right)
    j = k - 1 - left + right  # segment j, [x_j, x_{j+1}), and the anchor, flat indices
    xj, xj1 = x[j], x[j + 1]
    mu = x[k - low_end] + np.where(low_end, lo, hi) / (tau + b * cum[j])
    mu = np.where(xj > mu, xj, mu)
    mu = np.where(xj1 < mu, xj1, mu)
    # F is c_j on the segment and c_{j+1} at its top end; a point mass is its atom
    return np.where(m == 1, x[st], mu), cum[j + (mu >= xj1)]


def expectile(d: Distribution, tau: float) -> ExpectileSolution:
    """Solve tau * E(Y - x)^+ = (1 - tau) * E(x - Y)^+ for x in closed form.

    On an atomic law the equation is piecewise linear between atoms: the
    sign change is located among the atoms by binary search over the prefix
    sums and one linear equation is solved on that segment (Newey & Powell
    1987); ``p_star`` = F(mu) is read off the ladder at that segment.  On a
    uniform law on [a, b] it is quadratic, with root
    (sqrt(tau) b + sqrt(1 - tau) a) / (sqrt(tau) + sqrt(1 - tau)).
    """
    tau = _check_open_unit(tau, "tau")
    if isinstance(d, FiniteAtomic):
        mu, p_star = _expectile_rows(d._row, tau)
        return ExpectileSolution(mu=float(mu[0]), tau=tau, p_star=float(p_star[0]))
    if not isinstance(d, Uniform):
        raise TypeError(f"expectile is not defined for {type(d).__name__}")
    st, sc = math.sqrt(tau), math.sqrt(1.0 - tau)
    mu = (st * d.b + sc * d.a) / (st + sc)
    return ExpectileSolution(mu=mu, tau=tau, p_star=d.cdf(mu))


def u_C(d: Distribution, C: float) -> float:
    """Upper envelope: minus the spectral functional of the C-density measure.

    C = 1 collapses to minus the mean.
    """
    C = _check_level(C, "C")
    return -nu(uc_measure(C), d)


def l_C(d: Distribution, C: float) -> float:
    """Lower envelope: minus the expectile at tau = C / (C + 1).

    Cross-checkable as the infimum over p of minus the two-atom spectral
    family evaluated on d; see :func:`min_nu_over_mp`.
    """
    C = _check_level(C, "C")
    return -expectile(d, C / (C + 1.0)).mu


def min_nu_over_mp(d: Distribution, C: float) -> tuple[float, float]:
    """Minimize p -> nu(two-atom measure at p, d) over (0, 1) in closed form.

    f(p) = [(1 - C) PQI(p) + C E Y] / (p (1 - C) + C), with PQI the partial
    quantile integral, is linear-fractional, hence monotone, between the
    cumulative weights c_k of an atomic law: its infimum is the least f(c_k)
    with 0 < c_k < 1, or the mean, its limit at both ends, where p = 1/2 is
    returned.  On a uniform law the minimizer is sqrt(C) / (1 + sqrt(C)).
    Returns (argmin, min value), the argmin inside (0, 1).
    """
    C = _check_level(C, "C")
    if isinstance(d, FiniteAtomic):
        c = d._cum[d._cum < 1.0]
        f = ((1.0 - C) * d._pqi(c) + C * d.mean()) / (c * (1.0 - C) + C)
        p = float(c[np.argmin(f)]) if c.size and f.min() < d.mean() else 0.5
    else:  # a uniform law; nu rejects any other
        p = math.sqrt(C) / (1.0 + math.sqrt(C))
    return p, nu(mp_measure(p, C), d)


class RiskFunctional:
    """Base class for the evaluable risk functional variants."""

    def evaluate(self, d: Distribution) -> float:
        raise NotImplementedError

    def _evaluate_stack(self, s: _Stack) -> np.ndarray:
        # the value of every row of a stack of atomic laws; the built-ins
        # override this with one call of their kernel
        return np.array([self.evaluate(d) for d in s.laws()], dtype=float)


@dataclass(frozen=True)
class VaR(RiskFunctional):
    """Quantile-based functional; elicited by pinball-type scores."""

    alpha: float

    def __post_init__(self):
        _check_open_unit(self.alpha, "alpha")

    def evaluate(self, d: Distribution) -> float:
        return var(d, self.alpha)

    def _evaluate_stack(self, s: _Stack) -> np.ndarray:
        return -s.values[s._reach(self.alpha)[0][:, 0]]


@dataclass(frozen=True)
class ES(RiskFunctional):
    """Tail-average functional; coherent but without convex level sets."""

    alpha: float

    def __post_init__(self):
        _check_normal_level(_check_open_unit(self.alpha, "alpha"), "alpha")

    def evaluate(self, d: Distribution) -> float:
        return es(d, self.alpha)

    def _evaluate_stack(self, s: _Stack) -> np.ndarray:
        return -(1.0 / self.alpha) * s.pqi(self.alpha)


@dataclass(frozen=True)
class SpectralRisk(RiskFunctional):
    """Minus the spectral functional of one fixed measure."""

    measure: SpectralMeasure

    @property
    def measures(self) -> tuple[SpectralMeasure, ...]:  # as InfOverFamily lists its family's
        return (self.measure,)

    def evaluate(self, d: Distribution) -> float:
        return -nu(self.measure, d)

    def _evaluate_stack(self, s: _Stack) -> np.ndarray:
        return -_nu_rows(self.measure, s)


@dataclass(frozen=True)
class InfOverFamily(RiskFunctional):
    """Minus the infimum of the spectral functional over a finite family."""

    measures: tuple[SpectralMeasure, ...]

    def __post_init__(self):
        object.__setattr__(self, "measures", tuple(self.measures))
        if not self.measures:
            raise ValueError("the family must contain at least one measure")

    def evaluate(self, d: Distribution) -> float:
        return -min(nu(m, d) for m in self.measures)

    def _evaluate_stack(self, s: _Stack) -> np.ndarray:
        low = _nu_rows(self.measures[0], s)
        for m in self.measures[1:]:  # the first of equal values stays, as with min
            v = _nu_rows(m, s)
            low = np.where(v < low, v, low)
        return -low


@dataclass(frozen=True)
class ExpectileRisk(RiskFunctional):
    """Minus the tau-expectile; coherent exactly when tau <= 1/2."""

    tau: float

    def __post_init__(self):
        _check_open_unit(self.tau, "tau")

    def evaluate(self, d: Distribution) -> float:
        return -expectile(d, self.tau).mu

    def _evaluate_stack(self, s: _Stack) -> np.ndarray:
        return -_expectile_rows(s, self.tau)[0]


@dataclass(frozen=True)
class NegMean(RiskFunctional):
    """Minus the mean: the C = 1 corner of the envelope family."""

    def evaluate(self, d: Distribution) -> float:
        return -d.mean()

    def _evaluate_stack(self, s: _Stack) -> np.ndarray:
        return -s.pqi(1.0)


def evaluate(rf: RiskFunctional, d: Distribution) -> float:
    """Evaluate a risk functional on a law."""
    return rf.evaluate(d)


@dataclass(frozen=True)
class CoherenceViolation:
    """One recorded axiom failure with enough state to replay it."""

    axiom: str
    trial: int
    states_x: tuple[float, ...]
    states_y: tuple[float, ...] | None
    param: float | None
    lhs: float
    rhs: float


@dataclass
class CoherenceReport:
    """Outcome of randomized coherence testing on finite equal-weight spaces."""

    trials: int
    max_states: int
    tolerance: float
    checks: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def violations_for(self, axiom: str) -> list:
        return [v for v in self.violations if v.axiom == axiom]


_LAMBDAS = (0.0, 0.5, 2.0, 10.0)
_SHIFTS = (-1.0, 0.0, 3.0)
# the columns of the checks: axiom and parameter
_AXIOMS = ("subadditivity", *["homogeneity"] * 4, *["translation"] * 3, "monotonicity")
_PARAMS = (None, *_LAMBDAS, *_SHIFTS, None)
# a run of trials starts where the laws' atoms before it, by state count, pass a multiple of this
_RUN_ATOMS = 1 << 13


def coherence_check(rf: RiskFunctional, trials: int = 1000, seed: int = 0,
                    max_states: int = 8, tol: float = 1e-9) -> CoherenceReport:
    """Randomized search for coherence violations on joint finite spaces.

    Each trial draws a pair of payoffs as functions on 2 to ``max_states``
    equally likely states with values in [-10, 10], then checks
    subadditivity, positive homogeneity (factors 0, 0.5, 2, 10), cash
    translation (shifts -1, 0, 3) and monotonicity against a dominated
    payoff.  ``seed`` is a non-negative integer, and
    ``counts, draws = np.random.default_rng(seed).spawn(2)`` are the two
    streams: ``counts`` draws every trial's state count n, and ``draws``
    then gives each trial in turn its x, y and z as ``uniform(-10, 10, n)``,
    ``uniform(-10, 10, n)`` and x less ``uniform(0, 5, n)``.  So reports
    are reproducible, the first k trials are the same whatever ``trials``
    is, and a violation's trial replays its payoffs: draw the counts up to
    it and skip 3 n uniforms for each trial before it.  Taken in order of
    state count, the trials fall into runs, a new one where the atoms of the
    laws before it, 11 n per trial, cross a multiple of 2**13; the eleven laws
    of each trial of a run form one stack that the functional evaluates in
    one call.  Violations are listed by trial, then axiom, then parameter.

    Note the granularity caveat: a quantile level below 1/max_states makes
    the quantile functional collapse to the worst-case payoff on these
    spaces, which is subadditive, so violation searches for such levels need
    a larger ``max_states``.
    """
    trials = _check_count(trials, "trials", 1)
    max_states = _check_count(max_states, "max_states", 2)
    tol = _check_tol(tol)
    seed = _check_count(seed, "seed", 0)
    # trial k's state count n is the k-th draw of one stream, and the 3 n
    # uniforms of its x, y and z are u[start[k]:][:3 n] of the other
    counts, draws = np.random.default_rng(seed).spawn(2)
    ns = counts.integers(2, max_states + 1, size=trials)
    start = np.cumsum(3 * ns) - 3 * ns
    u = draws.random(3 * ns.sum())

    def payoffs(v):
        # x, y and z, dominated statewise by x, from uniforms v: uniform(a, b) is a + (b - a) v
        x = -10.0 + 20.0 * v[0]
        return x, -10.0 + 20.0 * v[1], x - 5.0 * v[2]

    # rho of x, y, x + y, lam x, x + a and z by runs of trials in order of state count, each
    # row padded with NaN to its run's most states, which sorts last and weighs 0 (at cum 1)
    r, order = np.empty((trials, 11)), np.argsort(ns, kind="stable")
    atoms = 11 * ns[order]
    run = (np.cumsum(atoms) - atoms) // _RUN_ATOMS
    cut = [0, *(np.flatnonzero(run[1:] != run[:-1]) + 1).tolist(), trials]
    for k in (order[a:b] for a, b in zip(cut, cut[1:])):
        n = ns[k][:, None]
        col = np.arange(n.max())
        at = start[k][:, None] + np.minimum(col, n - 1) + np.multiply.outer([0, 1, 2], n)
        x, y, z = payoffs(np.where(col < n, u[at], np.nan))
        xyz = np.sort((x, y, x + y, z))
        # lam x and x + a are monotone in x: their rows are x's, sorted
        laws = np.concatenate((xyz[:3], np.multiply.outer(_LAMBDAS, xyz[0]),
                               np.add.outer(_SHIFTS, xyz[0]), xyz[3:]))
        r[k] = rf._evaluate_stack(_Stack.empirical(laws, n)).reshape(11, -1).T
    rx = r[:, :1]
    lhs = np.concatenate((r[:, 2:10], rx), axis=1)
    rhs = np.concatenate((rx + r[:, 1:2], np.multiply(_LAMBDAS, rx), rx - _SHIFTS, r[:, 10:]),
                         axis=1)
    bad = np.abs(lhs - rhs) > tol
    bad[:, 0], bad[:, 8] = lhs[:, 0] > rhs[:, 0] + tol, lhs[:, 8] > rhs[:, 8] + tol
    report = CoherenceReport(trials=trials, max_states=max_states, tolerance=tol, checks={
        "subadditivity": trials, "homogeneity": 4 * trials, "translation": 3 * trials,
        "monotonicity": trials})
    for k, c in zip(*np.nonzero(bad)):
        x, y, z = payoffs(u[start[k]:start[k] + 3 * ns[k]].reshape(3, -1))
        report.violations.append(CoherenceViolation(
            axiom=_AXIOMS[c], trial=int(k), states_x=tuple(x),
            states_y=tuple(y) if c == 0 else tuple(z) if c == 8 else None,
            param=_PARAMS[c], lhs=float(lhs[k, c]), rhs=float(rhs[k, c])))
    return report


# the one key, if any, that each functional type takes besides "type"
_SPEC_KEY = {"negmean": None, "var": "level", "es": "level", "expectile": "level",
             "spectral": "measure", "inf_family": "measures"}


def functional_from_json(spec, tol: float = JSON_NORMALIZATION_TOL) -> RiskFunctional:
    """Build a risk functional from a JSON object or string.

    Schema: {"type": "var" | "es" | "expectile" | "negmean", "level": x}
    or {"type": "spectral", "measure": <measure spec>}
    or {"type": "inf_family", "measures": [<measure spec>, ...]}.
    """
    if isinstance(spec, (str, bytes)):
        spec = json.loads(spec)
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("functional spec must be a JSON object with a 'type' key")
    kind = spec["type"]
    if not isinstance(kind, str) or kind not in _SPEC_KEY:
        raise ValueError(f"unknown functional type {kind!r}")
    key = _SPEC_KEY[kind]
    unknown = set(spec) - {"type", key}
    if unknown:
        raise ValueError(f"unknown keys for functional type {kind!r}: {sorted(unknown)}")
    if key is not None and key not in spec:
        raise ValueError(f"functional type {kind!r} needs a {key!r}")
    if kind == "negmean":
        return NegMean()
    if kind == "spectral":
        return SpectralRisk(measure_from_json(spec["measure"], tol=tol))
    if kind == "inf_family":
        measures = spec["measures"]
        if not isinstance(measures, list) or not measures:
            raise ValueError("inf_family needs a nonempty 'measures' list")
        return InfOverFamily(tuple(measure_from_json(ms, tol=tol) for ms in measures))
    return {"var": VaR, "es": ES, "expectile": ExpectileRisk}[kind](_json_number(spec[key], key))


def functional_to_json(rf: RiskFunctional) -> dict:
    """Inverse of functional_from_json, as a plain dict."""
    if isinstance(rf, VaR):
        return {"type": "var", "level": rf.alpha}
    if isinstance(rf, ES):
        return {"type": "es", "level": rf.alpha}
    if isinstance(rf, ExpectileRisk):
        return {"type": "expectile", "level": rf.tau}
    if isinstance(rf, NegMean):
        return {"type": "negmean"}
    if isinstance(rf, SpectralRisk):
        return {"type": "spectral", "measure": measure_to_json(rf.measure)}
    if isinstance(rf, InfOverFamily):
        return {"type": "inf_family", "measures": [measure_to_json(m) for m in rf.measures]}
    raise TypeError(f"cannot serialize {type(rf).__name__}")
