"""Consistent scoring of quantile and expectile forecasts.

Scores are negatively oriented: 0 is perfect, larger is worse.  The quantile
score with increasing generator g is

    s(x, y) = (1{x >= y} - alpha) * (g(x) - g(y)),

the expectile score with convex generator g is

    s(x, y) = |1{x >= y} - tau| * (g(y) - g(x) - g'(x) * (y - x)).

Both are nonnegative, and the expected score under the outcome law is
unimodal in the forecast with its minimizer set at the functional's value.
Piecewise-linear generators are legal for expectiles but make the score
piecewise constant in the forecast, so the minimizer interval can be wide.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, FiniteAtomic, Uniform, _check_level, _read_columns

__all__ = [
    "IdentityGenerator",
    "SquaredGenerator",
    "TabulatedGenerator",
    "QuantileScore",
    "ExpectileScore",
    "ArgminInterval",
    "argmin_expected_score",
    "ForecastSeries",
    "MethodScore",
    "compare",
]

_ARGMIN_GRID = 4097


class IdentityGenerator:
    """g(t) = t.  Strictly increasing; the quantile-score default."""

    is_nondecreasing = True
    is_strictly_increasing = True
    is_convex = True

    def __call__(self, t):
        return np.asarray(t, dtype=float)

    def derivative(self, t, side: str = "left"):
        return np.ones_like(np.asarray(t, dtype=float))

    def __repr__(self):
        return "IdentityGenerator()"


class SquaredGenerator:
    """g(t) = t^2.  Convex but not monotone on the whole line."""

    is_nondecreasing = False
    is_strictly_increasing = False
    is_convex = True

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return t * t

    def derivative(self, t, side: str = "left"):
        return 2.0 * np.asarray(t, dtype=float)

    def __repr__(self):
        return "SquaredGenerator()"


class TabulatedGenerator:
    """Piecewise-linear generator through given knots.

    Outside the knot range the end segments are extended with their own
    slopes.  The derivative at a knot is one-sided: ``side="left"`` gives the
    slope of the segment ending there (a valid subgradient when convex),
    ``side="right"`` the one starting there.
    """

    def __init__(self, knots):
        pts = sorted((float(x), float(v)) for x, v in knots)
        if len(pts) < 2:
            raise ValueError("need at least two knots")
        x = np.array([p[0] for p in pts])
        v = np.array([p[1] for p in pts])
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(v)):
            raise ValueError("knots must be finite")
        if np.any(np.diff(x) <= 0.0):
            raise ValueError("knot abscissae must be strictly increasing")
        self._x = x
        self._v = v
        self._slopes = np.diff(v) / np.diff(x)
        self.is_nondecreasing = bool(np.all(self._slopes >= 0.0))
        self.is_strictly_increasing = bool(np.all(self._slopes > 0.0))
        self.is_convex = bool(np.all(np.diff(self._slopes) >= -1e-12))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        y = np.interp(t, self._x, self._v)
        y = np.where(t < self._x[0],
                     self._v[0] + self._slopes[0] * (t - self._x[0]), y)
        y = np.where(t > self._x[-1],
                     self._v[-1] + self._slopes[-1] * (t - self._x[-1]), y)
        return y

    def derivative(self, t, side: str = "left"):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self._x, t, side=side) - 1,
                      0, len(self._slopes) - 1)
        return self._slopes[idx]

    def __repr__(self):
        return f"TabulatedGenerator({list(zip(self._x.tolist(), self._v.tolist()))!r})"


def _as_scalar_or_array(a):
    a = np.asarray(a, dtype=float)
    return float(a) if a.shape == () else a


def _cdf_left(d: Distribution, x: float) -> float:
    """Left limit of the CDF at x; differs from cdf(x) only at atoms."""
    if isinstance(d, FiniteAtomic):
        idx = int(np.searchsorted(d._values, x, side="left"))
        return float(d._cum[idx - 1]) if idx > 0 else 0.0
    return d.cdf(x)


class QuantileScore:
    """Consistent score for the alpha-quantile.

    Requires a nondecreasing generator; the default identity generator gives
    the pinball loss.
    """

    def __init__(self, alpha: float, generator=None):
        alpha = _check_level(alpha)
        if alpha == 1.0:
            raise ValueError("alpha must lie strictly inside (0, 1)")
        self.alpha = alpha
        self.generator = generator if generator is not None else IdentityGenerator()
        if not getattr(self.generator, "is_nondecreasing", False):
            raise ValueError("quantile scores need a nondecreasing generator")

    def score(self, forecast, outcome):
        x = np.asarray(forecast, dtype=float)
        y = np.asarray(outcome, dtype=float)
        ind = (x >= y).astype(float)
        g = self.generator
        return _as_scalar_or_array((ind - self.alpha) * (g(x) - g(y)))

    def expected_score(self, forecast, d: Distribution):
        x = np.asarray(forecast, dtype=float)
        if isinstance(d, FiniteAtomic):
            s = self.score(x[..., None], d._values)
            return _as_scalar_or_array(s @ d._weights)
        if isinstance(d, Uniform) and isinstance(self.generator, IdentityGenerator):
            a, b, alpha = d.a, d.b, self.alpha
            mean = 0.5 * (a + b)
            mid = ((1.0 - alpha) * (x - a) ** 2 + alpha * (b - x) ** 2) / (2.0 * (b - a))
            out = np.where(x <= a, alpha * (mean - x),
                           np.where(x >= b, (1.0 - alpha) * (x - mean), mid))
            return _as_scalar_or_array(out)
        raise NotImplementedError(
            f"expected quantile score not implemented for {type(d).__name__} "
            f"with {self.generator!r}")

    def _has_derivative_path(self) -> bool:
        return getattr(self.generator, "is_strictly_increasing", False)

    def _expected_derivative(self, x: float, d: Distribution, side: str) -> float:
        f = d.cdf(x) if side == "right" else _cdf_left(d, x)
        return (f - self.alpha) * float(self.generator.derivative(x, side=side))

    def __repr__(self):
        return f"QuantileScore(alpha={self.alpha!r}, generator={self.generator!r})"


class ExpectileScore:
    """Consistent score for the tau-expectile.

    Requires a convex generator; the default squared generator gives the
    asymmetric squared error.
    """

    def __init__(self, tau: float, generator=None):
        tau = _check_level(tau)
        if tau == 1.0:
            raise ValueError("tau must lie strictly inside (0, 1)")
        self.tau = tau
        self.generator = generator if generator is not None else SquaredGenerator()
        if not getattr(self.generator, "is_convex", False):
            raise ValueError("expectile scores need a convex generator")
        if isinstance(self.generator, IdentityGenerator):
            # linear g zeroes the divergence term, leaving the score useless
            raise ValueError("the identity generator is only valid for quantile scores")

    def score(self, forecast, outcome):
        x = np.asarray(forecast, dtype=float)
        y = np.asarray(outcome, dtype=float)
        ind = (x >= y).astype(float)
        g = self.generator
        bregman = g(y) - g(x) - g.derivative(x) * (y - x)
        return _as_scalar_or_array(np.abs(ind - self.tau) * bregman)

    def expected_score(self, forecast, d: Distribution):
        x = np.asarray(forecast, dtype=float)
        if isinstance(d, FiniteAtomic):
            s = self.score(x[..., None], d._values)
            return _as_scalar_or_array(s @ d._weights)
        if isinstance(d, Uniform) and isinstance(self.generator, SquaredGenerator):
            a, b, tau = d.a, d.b, self.tau
            below = tau * ((b - x) ** 3 - (a - x) ** 3)
            above = (1.0 - tau) * ((x - a) ** 3 - (x - b) ** 3)
            mid = (1.0 - tau) * (x - a) ** 3 + tau * (b - x) ** 3
            out = np.where(x <= a, below, np.where(x >= b, above, mid)) / (3.0 * (b - a))
            return _as_scalar_or_array(out)
        raise NotImplementedError(
            f"expected expectile score not implemented for {type(d).__name__} "
            f"with {self.generator!r}")

    def _has_derivative_path(self) -> bool:
        return isinstance(self.generator, SquaredGenerator)

    def _expected_derivative(self, x: float, d: Distribution, side: str) -> float:
        # d/dx E s = 2[(1-tau) E(x-Y)^+ - tau E(Y-x)^+], continuous in x
        return 2.0 * ((1.0 - self.tau) * d.lower_partial_moment(x)
                      - self.tau * d.upper_partial_moment(x))

    def __repr__(self):
        return f"ExpectileScore(tau={self.tau!r}, generator={self.generator!r})"


@dataclass(frozen=True)
class ArgminInterval:
    """Closed interval of (near-)minimizers of an expected score."""

    lo: float
    hi: float
    value: float

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= x <= self.hi + slack


def _sign_boundary(pred, a: float, b: float) -> tuple[float, float]:
    """Bisect a monotone predicate, true at a and false at b.

    Returns (last true point, first false point), a pair 1e-13-scale apart.
    """
    for _ in range(200):
        if abs(b - a) <= 1e-13 * (1.0 + abs(a) + abs(b)):
            break
        mid = 0.5 * (a + b)
        if pred(mid):
            a = mid
        else:
            b = mid
    return a, b


def _argmin_by_derivative(score, d: Distribution, lo: float, hi: float):
    # the expected score is unimodal with one-sided derivatives whose signs
    # are monotone predicates; bisecting them pins both minimizer-set edges
    def decreasing(x: float) -> bool:
        return score._expected_derivative(x, d, "right") < 0.0

    def not_increasing(x: float) -> bool:
        return not score._expected_derivative(x, d, "left") > 0.0

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


def _argmin_by_sublevel(score, d: Distribution, lo: float, hi: float, grid_points: int):
    # grid + zoom pins the minimum value; the minimizer set is then the
    # sublevel interval just above it, edged by bisecting inside/outside
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


def argmin_expected_score(score, d: Distribution, grid_points: int = _ARGMIN_GRID,
                          bracket=None) -> ArgminInterval:
    """Locate the minimizer interval of x -> expected_score(x, d).

    When the score exposes one-sided derivatives of the expected score
    (identity-type quantile generators, the squared expectile generator),
    the edges come from sign bisection and a unique minimizer is recovered
    as a degenerate interval to near machine precision.  Otherwise a
    ``grid_points`` sweep over the bracket plus a zoom pins the minimum
    value and the reported interval is its flat-to-tolerance sublevel set;
    piecewise-linear generators genuinely produce wide intervals there.
    """
    if bracket is None:
        lo, hi = d.support_min() - 0.5, d.support_max() + 0.5
    else:
        lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    if score._has_derivative_path():
        left, right = _argmin_by_derivative(score, d, lo, hi)
    else:
        if grid_points < 3:
            raise ValueError("grid_points must be at least 3")
        left, right = _argmin_by_sublevel(score, d, lo, hi, grid_points)
    if left > right:
        left = right = 0.5 * (left + right)
    value = float(score.expected_score(0.5 * (left + right), d))
    return ArgminInterval(lo=left, hi=right, value=value)


class ForecastSeries:
    """Aligned panel of forecasts from several methods over common periods.

    Stored as ``periods`` in first-occurrence order from the source, the
    sorted ``methods``, the ``forecast_matrix`` with one row per method and
    one column per period, and the realization of each period.  Every method
    must cover every period, a period's realization must agree across rows,
    and every forecast and realization must be finite.
    """

    def __init__(self, periods, realizations, forecasts):
        periods = list(periods)
        if len(set(periods)) != len(periods):
            raise ValueError("periods must be distinct")
        for p in periods:
            if p not in realizations:
                raise ValueError(f"period {p!r} has no realization")
        methods = sorted(forecasts)
        for m in methods:
            missing = [p for p in periods if p not in forecasts[m]]
            if missing:
                raise ValueError(f"method {m!r} is missing periods {missing!r}")
        matrix = np.array([[forecasts[m][p] for p in periods] for m in methods], dtype=float)
        self._set(periods, methods, matrix.reshape(len(methods), len(periods)),
                  np.array([realizations[p] for p in periods], dtype=float))

    def _set(self, periods: list, methods: list, matrix: np.ndarray, y: np.ndarray):
        # every constructor ends here; periods are distinct and methods sorted
        if not periods:
            raise ValueError("need at least one period")
        if not methods:
            raise ValueError("need at least one method")
        for name, row in (("realization", y), *((f"method {m!r}", x)
                                                 for m, x in zip(methods, matrix))):
            bad = np.flatnonzero(~np.isfinite(row))
            if bad.size:
                raise ValueError(f"{name} is not finite at period {periods[bad[0]]!r}")
        matrix.flags.writeable = y.flags.writeable = False
        self.periods = periods
        self.methods = methods
        self.forecast_matrix = matrix
        self._y = y

    @classmethod
    def _from_matrix(cls, periods, methods, matrix, y) -> "ForecastSeries":
        obj = cls.__new__(cls)
        obj._set(periods, methods, matrix, y)
        return obj

    def realization_vector(self) -> np.ndarray:
        return self._y

    def forecast_vector(self, method: str) -> np.ndarray:
        return self.forecast_matrix[self.methods.index(method)]

    @classmethod
    def from_arrays(cls, method_forecasts, realizations) -> "ForecastSeries":
        """Build from {method: [x_1..x_n]} plus aligned [y_1..y_n].

        Periods are synthesized as "1".."n".
        """
        y = np.fromiter(map(float, realizations), dtype=float)
        methods = sorted(method_forecasts)
        matrix = np.empty((len(methods), y.size))
        for row, method in zip(matrix, methods):
            xs = np.fromiter(map(float, method_forecasts[method]), dtype=float)
            if xs.size != y.size:
                raise ValueError(f"method {method!r} has {xs.size} forecasts "
                                 f"for {y.size} realizations")
            row[:] = xs
        return cls._from_matrix([str(i) for i in range(1, y.size + 1)], methods, matrix, y)

    @classmethod
    def from_csv(cls, path) -> "ForecastSeries":
        """Read a long-format panel: columns method, period, forecast, realization.

        The columns are parsed by numpy; a file numpy cannot read, or one that
        fails a check, is read again row by row, which names the physical line
        of the first fault.
        """
        columns = _read_columns(path, ("forecast", "realization"), ("method", "period"))
        panel = None if columns is None else cls._from_columns(*columns)
        return panel if panel is not None else cls._from_rows(path)

    @classmethod
    def _from_columns(cls, numbers: np.ndarray, labels: np.ndarray):
        """The panel from (forecast, realization) and (method, period) columns.

        Returns None where a check fails, so that the per-row parser can name
        the line at fault.
        """
        x, y = numbers.T
        methods, m_code = np.unique(labels[:, 0], return_inverse=True)
        periods, first, p_code = np.unique(labels[:, 1], return_index=True,
                                           return_inverse=True)
        # renumber the periods in first-occurrence order
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        p_code, first, periods = rank[p_code], first[order], periods[order]
        n_m, n_p = methods.size, periods.size
        if ("" in methods or "" in periods or x.size != n_m * n_p
                or not np.isfinite(numbers).all()
                or (np.bincount(m_code * n_p + p_code, minlength=x.size) != 1).any()
                or (y != y[first][p_code]).any()):
            return None
        matrix = np.empty((n_m, n_p))
        matrix[m_code, p_code] = x
        return cls._from_matrix(periods.tolist(), methods.tolist(), matrix, y[first])

    @classmethod
    def _from_rows(cls, path) -> "ForecastSeries":
        required = {"method", "period", "forecast", "realization"}
        periods: list = []
        realizations: dict = {}
        forecasts: dict = {}
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise ValueError(f"forecast csv needs columns {sorted(required)}")
            for row in reader:
                lineno = reader.line_num
                # a short row leaves its missing fields None
                method = (row["method"] or "").strip()
                period = (row["period"] or "").strip()
                if not method or not period:
                    raise ValueError(f"line {lineno}: empty method or period")
                try:
                    x = float(row["forecast"])
                    y = float(row["realization"])
                except (TypeError, ValueError):
                    raise ValueError(f"line {lineno}: forecast and realization "
                                     "must be numbers") from None
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ValueError(f"line {lineno}: forecast and realization "
                                     "must be finite")
                if period in realizations:
                    if realizations[period] != y:
                        raise ValueError(
                            f"line {lineno}: period {period!r} has conflicting "
                            f"realizations {realizations[period]!r} and {y!r}")
                else:
                    realizations[period] = y
                    periods.append(period)
                per_method = forecasts.setdefault(method, {})
                if period in per_method:
                    raise ValueError(f"line {lineno}: duplicate forecast for "
                                     f"method {method!r}, period {period!r}")
                per_method[period] = x
        return cls(periods, realizations, forecasts)


@dataclass(frozen=True)
class MethodScore:
    method: str
    mean_score: float
    rank: int


def compare(series: ForecastSeries, score) -> list[MethodScore]:
    """Rank methods by realized mean score, best first.

    Per-method scores are summed with compensated addition so the ranking
    does not depend on period order.  Equal means share a rank (competition
    style) and tied methods are listed by method id.
    """
    y = series.realization_vector()
    totals = []
    for method, x in zip(series.methods, series.forecast_matrix):
        # finite inputs can still overflow, as x * x does past 1.3e154
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(score.score(x, y), dtype=float)
        if not np.isfinite(vals).all():
            raise ValueError(f"method {method!r} has a score that is not a finite number")
        totals.append((method, math.fsum(vals.tolist()) / y.size))
    totals.sort(key=lambda t: (t[1], t[0]))
    out: list[MethodScore] = []
    for i, (method, mean) in enumerate(totals):
        if i > 0 and mean == totals[i - 1][1]:
            rank = out[i - 1].rank
        else:
            rank = i + 1
        out.append(MethodScore(method=method, mean_score=mean, rank=rank))
    return out
