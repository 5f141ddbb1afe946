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
:func:`argmin_expected_score` is exact on every supported generator, in closed
form: the functional's value for the strict ones, and for the piecewise-linear
ones that value widened to the nearest knots where the slope of g changes
(expectile) or stops being zero (quantile), read from g' at the knots.  No
tolerance enters.
"""

from __future__ import annotations

import csv
import functools
import math

import numpy as np

from ._ingest import _decode_errors, _floats, _read_columns
from .distributions import Distribution, FiniteAtomic, Uniform, _check_open_unit, _Record
from .risk import expectile

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

class _NotFinite(ValueError):
    """A generator value past the largest double."""


def _generator_value(method):
    # numpy raises at an overflow, where it would warn and return inf
    @functools.wraps(method)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise"):
                return method(*args, **kwargs)
        except FloatingPointError:
            raise _NotFinite("the generator value is not a finite number") from None
    return checked


class IdentityGenerator:
    """g(t) = t.  Strictly increasing; the quantile-score default."""

    is_nondecreasing = True
    is_strictly_increasing = True
    is_convex = True
    is_strictly_convex = False

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
    is_strictly_convex = True

    @_generator_value
    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return t * t

    @_generator_value
    def derivative(self, t, side: str = "left"):
        return 2.0 * np.asarray(t, dtype=float)

    def __repr__(self):
        return "SquaredGenerator()"


class TabulatedGenerator:
    """Piecewise-linear generator through given knots.

    Outside the knot range the end segments are extended with their own
    slopes.  The derivative at a knot is one-sided: ``side="left"`` gives the
    slope of the segment ending there (a valid subgradient when convex),
    ``side="right"`` the one starting there.  ``knots`` holds the abscissae,
    the only points where the slope may change; :func:`argmin_expected_score`
    reads ``derivative(knots, side)`` on both sides, and no other value of g.
    """

    is_strictly_convex = False

    def __init__(self, knots):
        pts = sorted((float(x), float(v)) for x, v in knots)
        if len(pts) < 2:
            raise ValueError("need at least two knots")
        x, v = np.array(pts).T
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(v)):
            raise ValueError("knots must be finite")
        if np.any(x[1:] <= x[:-1]):
            raise ValueError("knot abscissae must be strictly increasing")
        with np.errstate(over="ignore", invalid="ignore"):
            dx = np.diff(x)
            self._slopes = np.diff(v) / dx
            # a slope step past the largest double is +-inf, which compares right
            self.is_convex = bool(np.all(np.diff(self._slopes) >= -1e-12))
        if not (np.isfinite(dx).all() and np.isfinite(self._slopes).all()):
            raise ValueError("knot spacings and slopes must be finite")
        x.flags.writeable = False
        self.knots = x
        self._v = v
        self.is_nondecreasing = bool(np.all(self._slopes >= 0.0))
        self.is_strictly_increasing = bool(np.all(self._slopes > 0.0))

    def _segment(self, t, side: str):
        return np.clip(np.searchsorted(self.knots, t, side=side) - 1, 0, self._slopes.size - 1)

    @_generator_value
    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        i = self._segment(t, "right")
        return self._v[i] + self._slopes[i] * (t - self.knots[i])

    @_generator_value
    def derivative(self, t, side: str = "left"):
        return self._slopes[self._segment(np.asarray(t, dtype=float), side)]

    def __repr__(self):
        return f"TabulatedGenerator({list(zip(self.knots.tolist(), self._v.tolist()))!r})"


def _finite(method):
    # finite inputs can overflow, as x * x does past 1.3e154: ValueError, not a
    # warning; so can a generator value, which raises _NotFinite
    @functools.wraps(method)
    def checked(*args):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                a = np.asarray(method(*args), dtype=float)
        except _NotFinite:
            a = np.asarray(math.nan)
        a = float(a) if a.shape == () else a
        if not (math.isfinite(a) if type(a) is float else np.isfinite(a).all()):
            raise ValueError("the score is not a finite number")
        return a
    return checked


class QuantileScore:
    """Consistent score for the alpha-quantile.

    Requires a nondecreasing generator; the default identity generator gives
    the pinball loss.
    """

    def __init__(self, alpha: float, generator=None):
        self.alpha = _check_open_unit(alpha, "alpha")
        self.generator = generator if generator is not None else IdentityGenerator()
        if not getattr(self.generator, "is_nondecreasing", False):
            raise ValueError("quantile scores need a nondecreasing generator")

    def _score(self, forecast, outcome):
        x = np.asarray(forecast, dtype=float)
        y = np.asarray(outcome, dtype=float)
        return ((x >= y) - self.alpha) * (self.generator(x) - self.generator(y))

    score = _finite(_score)

    @_finite
    def expected_score(self, forecast, d: Distribution):
        x = np.asarray(forecast, dtype=float)
        if isinstance(d, FiniteAtomic):
            # a non-finite score term leaves the weighted sum non-finite
            return self._score(x[..., None], d._values) @ d._weights
        if isinstance(d, Uniform) and isinstance(self.generator, IdentityGenerator):
            a, b, alpha = d.a, d.b, self.alpha
            mean = 0.5 * (a + b)
            mid = ((1.0 - alpha) * (x - a) ** 2 + alpha * (b - x) ** 2) / (2.0 * (b - a))
            out = np.where(x <= a, alpha * (mean - x),
                           np.where(x >= b, (1.0 - alpha) * (x - mean), mid))
            return out
        raise NotImplementedError(f"expected quantile score not implemented for "
                                  f"{type(d).__name__} with {self.generator!r}")

    def _minimizer_edges(self, d: Distribution, lo: float, hi: float):
        # the slope g'(x) (F(x) - alpha) keeps the minimizers at the alpha-quantiles,
        # [q-, q+] on the ladder and a single point on a uniform law, for a strictly
        # increasing g; a knotted g widens each end, clipped to the bracket first,
        # through the knot segments next to it where g' = 0
        q = d.quantile(self.alpha)
        q_hi = (float(d._values[d._cum.searchsorted(self.alpha, side="right")])
                if isinstance(d, FiniteAtomic) else q)
        if getattr(self.generator, "is_strictly_increasing", False):
            return q, q_hi
        knots, left, right = _knot_slopes(self, d)
        a, b = (min(max(e, lo), hi) for e in (q, q_hi))
        # the ends and the starts of the segments where g rises, and g' on
        # (-inf, k_0), (k_0, k_1), ..., (k_last, inf)
        ends, starts, slope = knots[left > 0.0], knots[right > 0.0], np.append(left, right[-1:])
        if slope[knots.searchsorted(a)] <= 0.0:
            i = ends.searchsorted(a)
            a = float(ends[i - 1]) if i else -math.inf
        if slope[knots.searchsorted(b, side="right")] <= 0.0:
            j = starts.searchsorted(b, side="right")
            b = float(starts[j]) if j < starts.size else math.inf
        return a, b

    def __repr__(self):
        return f"QuantileScore(alpha={self.alpha!r}, generator={self.generator!r})"


class ExpectileScore:
    """Consistent score for the tau-expectile.

    Requires a convex generator; the default squared generator gives the
    asymmetric squared error.
    """

    def __init__(self, tau: float, generator=None):
        self.tau = _check_open_unit(tau, "tau")
        self.generator = generator if generator is not None else SquaredGenerator()
        if not getattr(self.generator, "is_convex", False):
            raise ValueError("expectile scores need a convex generator")
        if isinstance(self.generator, IdentityGenerator):
            # linear g zeroes the divergence term, leaving the score useless
            raise ValueError("the identity generator is only valid for quantile scores")

    def _score(self, forecast, outcome):
        x = np.asarray(forecast, dtype=float)
        y = np.asarray(outcome, dtype=float)
        g = self.generator
        # a Bregman divergence
        return np.abs((x >= y) - self.tau) * (g(y) - g(x) - g.derivative(x) * (y - x))

    score = _finite(_score)

    @_finite
    def expected_score(self, forecast, d: Distribution):
        x = np.asarray(forecast, dtype=float)
        if isinstance(d, FiniteAtomic):
            return self._score(x[..., None], d._values) @ d._weights
        if isinstance(d, Uniform) and isinstance(self.generator, SquaredGenerator):
            a, b, tau = d.a, d.b, self.tau
            below = tau * ((b - x) ** 3 - (a - x) ** 3)
            above = (1.0 - tau) * ((x - a) ** 3 - (x - b) ** 3)
            mid = (1.0 - tau) * (x - a) ** 3 + tau * (b - x) ** 3
            out = np.where(x <= a, below, np.where(x >= b, above, mid)) / (3.0 * (b - a))
            return out
        raise NotImplementedError(f"expected expectile score not implemented for "
                                  f"{type(d).__name__} with {self.generator!r}")

    def _minimizer_edges(self, d: Distribution, lo: float, hi: float):
        # a strictly convex g has the tau-expectile mu as its unique minimizer
        if getattr(self.generator, "is_strictly_convex", False):
            mu = expectile(d, self.tau).mu
            return mu, mu
        # a knotted g makes the expected score constant between its kinks (knots where
        # g' rises) and step by -(g'(k+) - g'(k-)) psi(k) across a kink k, with
        # psi(x) = tau E(Y - x)^+ - (1 - tau) E(x - Y)^+ positive below mu and negative
        # above: the minimizers run from the last kink below mu to the first above it,
        # mu read as hi past the bracket, and from lo to the first kink from lo on
        # when mu lies below the bracket
        knots, left, right = _knot_slopes(self, d)
        kinks = knots[right > left]
        mu = expectile(d, self.tau).mu
        m = min(max(mu, lo), hi)
        i = kinks.searchsorted(m)
        j = kinks.searchsorted(m, side="left" if mu < lo else "right")
        return (float(kinks[i - 1]) if i else -math.inf,
                float(kinks[j]) if j < kinks.size else math.inf)

    def __repr__(self):
        return f"ExpectileScore(tau={self.tau!r}, generator={self.generator!r})"


class ArgminInterval(_Record):
    """Closed interval of minimizers of an expected score: the closure of the set."""

    lo: float
    hi: float
    value: float

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= x <= self.hi + slack


def _knot_slopes(score, d: Distribution):
    """The generator's knots, and g' just below and just above each, for a
    minimizer on an atomic law in closed form; any other case raises."""
    gen = score.generator
    knots = getattr(gen, "knots", None)
    if knots is None or not isinstance(d, FiniteAtomic):
        raise NotImplementedError(f"no exact argmin for {score!r} on {type(d).__name__}: it needs a"
                                  " strictly increasing or strictly convex generator, or knots"
                                  " and an atomic law")
    return knots, gen.derivative(knots, "left"), gen.derivative(knots, "right")


def argmin_expected_score(score, d: Distribution, bracket=None) -> ArgminInterval:
    """Locate the minimizer interval of x -> expected_score(x, d), exactly.

    A quantile score with a strictly increasing generator is minimized on
    [q-(alpha), q+(alpha)], the smallest and largest alpha-quantile (read off
    the atom ladder, one point on a uniform law), an expectile score with a
    strictly convex generator at the tau-expectile alone; both are clipped
    to the bracket.  A generator exposing its ``knots``, linear between them,
    has closed forms on an atomic law too, read from ``derivative(t, side)``
    at the knots: the expectile's interval runs between the kinks (knots
    where g' rises) next to the expectile, the quantile's is [q-, q+] widened
    through the flat knot segments next to it.  Its interval can be wide, and
    no tolerance enters.  Any other generator raises ``NotImplementedError``.
    """
    if bracket is None:
        lo, hi = d.support_min() - 0.5, d.support_max() + 0.5
    else:
        lo, hi = float(bracket[0]), float(bracket[1])
    if not (lo < hi and math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bracket must be finite with lo < hi, got [{lo!r}, {hi!r}]")
    left, right = (min(max(e, lo), hi) for e in score._minimizer_edges(d, lo, hi))
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

        The file is read once, in pieces, and the labels taken from a scan of
        their bytes; the forecasts are cast from their bytes, and of the
        realizations only each period's first and those whose bytes differ
        from it.  A file that the scan cannot read, or one that fails a
        check, is read again row by row, which names the physical line of
        the first fault.
        """
        columns = _read_columns(path, ("forecast",), ("method", "period"), "realization")
        panel = None if columns is None else cls._from_columns(*columns)
        return panel if panel is not None else cls._from_rows(path)

    @classmethod
    def _from_columns(cls, numbers: np.ndarray, labels: list, realizations: tuple):
        """The panel from the forecast column, the (names, codes, first)
        triples of the method and period labels and the realizations: each
        period's first as bytes, and the rows whose bytes differ from it with
        their values.

        Returns None where a check fails, so that the per-row parser can name
        the line at fault.
        """
        x = numbers[:, 0]
        (methods, m_code, _), (periods, p_code, first) = labels
        (cells, rows, other) = realizations
        try:
            y = _floats(cells)
        except ValueError:
            return None
        # a realization that differs from its period's first as bytes must
        # equal it as a number
        if (other != y[p_code[rows]]).any():
            return None
        # renumber the periods in first-occurrence order
        order = np.argsort(first)
        rank = np.empty(order.size, p_code.dtype)
        rank[order] = np.arange(order.size)
        y, periods = y[order], [periods[i] for i in order]
        n_m, n_p = len(methods), len(periods)
        if ("" in methods or "" in periods or x.size != n_m * n_p
                or not (np.isfinite(x).all() and np.isfinite(y).all())):
            return None
        cell = np.ravel_multi_index((m_code, rank[p_code]), (n_m, n_p))
        # with as many rows as cells, a cell left empty means one given twice
        filled = np.zeros(x.size, bool)
        filled[cell] = True
        if not filled.all():
            return None
        matrix = np.empty(x.size)
        matrix[cell] = x
        return cls._from_matrix(periods, methods, matrix.reshape(n_m, n_p), y)

    @classmethod
    def _from_rows(cls, path) -> "ForecastSeries":
        required = {"method", "period", "forecast", "realization"}
        periods: list = []
        realizations: dict = {}
        forecasts: dict = {}
        with open(path, newline="") as fh, _decode_errors(path, "line {}".format):
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


class MethodScore(_Record):
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
        try:
            vals = score.score(x, y)
        except ValueError:
            raise ValueError(f"method {method!r} has a score that is not a finite number") from None
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
