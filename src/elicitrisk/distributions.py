"""Probability laws on the real line with exact quantile machinery.

Atomic laws carry their cumulative weights explicitly, so quantiles, partial
quantile integrals and mixtures are exact up to float rounding.  The quantile
is the generalized inverse

    F^{-1}(v) = inf{x : F(x) >= v},

left-continuous and nondecreasing in v.  The only continuous family provided
is the uniform law, which covers every closed-form case the diagnostics need.
"""

from __future__ import annotations

import csv
import math
import os
import sys
import warnings
from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "Distribution",
    "FiniteAtomic",
    "Empirical",
    "Uniform",
    "two_point",
    "dirac",
    "mix",
    "empirical_from_csv",
    "WEIGHT_TOL",
]

# Atom weights must sum to one within this tolerance at construction time.
WEIGHT_TOL = 1e-12


def _check_level(v: float, name: str = "quantile level") -> float:
    # also the domain of the envelope constant C and of the levels spectral_fn checks
    v = float(v)
    if not 0.0 < v <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {v!r}")
    return v


def _check_normal_level(a: float, name: str) -> float:
    # a level that divides: 1 / a and w / a stay finite down to the smallest normal double
    a = float(a)
    if not sys.float_info.min <= a <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], no lower than "
                         f"{sys.float_info.min!r}, got {a!r}")
    return a


def _check_prob(p: float, name: str = "p") -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {p!r}")
    return p


def _check_open_unit(x: float, name: str) -> float:
    x = float(x)
    if not 0.0 < x < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {x!r}")
    return x


def _check_point(x: float, finite: bool = True) -> float:
    x = float(x)
    if math.isnan(x) or (finite and math.isinf(x)):
        raise ValueError(f"x must be {'finite' if finite else 'a number'}, got {x!r}")
    return x


def _check_tol(tol: float, name: str = "tol") -> float:
    # NaN fails the check; a comparison with NaN or inf as tolerance is vacuous
    tol = float(tol)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {tol!r}")
    return tol


def _finite_moment(m: float, x: float) -> float:
    if not math.isfinite(m):
        raise ValueError(f"the partial moment at x = {x!r} is past the largest double")
    return float(m)


def _json_number(x, what: str) -> float:
    """A number from parsed JSON; bool is an int subclass, and strings must not
    slip through ``float``."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"{what} must be a number, got {x!r}")
    return float(x)


class Distribution(ABC):
    """A real-valued probability law exposing its CDF and generalized inverse."""

    @abstractmethod
    def cdf(self, x: float) -> float:
        """Right-continuous distribution function F(x) = P(Y <= x)."""

    @abstractmethod
    def quantile(self, v: float) -> float:
        """Generalized inverse inf{x : F(x) >= v} for v in (0, 1]."""

    @abstractmethod
    def partial_quantile_integral(self, p: float) -> float:
        """Integral of the quantile function over (0, p], for p in [0, 1]."""

    def mean(self) -> float:
        """First moment, computed as the full quantile integral."""
        return self.partial_quantile_integral(1.0)

    @abstractmethod
    def support_min(self) -> float:
        """Essential infimum of the law."""

    @abstractmethod
    def support_max(self) -> float:
        """Essential supremum of the law."""

    @abstractmethod
    def upper_partial_moment(self, x: float) -> float:
        """E(Y - x)^+."""

    @abstractmethod
    def lower_partial_moment(self, x: float) -> float:
        """E(x - Y)^+."""

    @abstractmethod
    def shift(self, c: float) -> "Distribution":
        """Law of Y + c."""

    @abstractmethod
    def scale(self, lam: float) -> "Distribution":
        """Law of lam * Y for lam >= 0."""


def _canonical_atoms(values, weights):
    """Sort atoms, merge equal values, drop zero weights, validate the total."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.ndim != 1 or weights.ndim != 1 or values.size != weights.size:
        raise ValueError("values and weights must be 1D arrays of equal length")
    if values.size == 0:
        raise ValueError("an atomic law needs at least one atom")
    if not np.all(np.isfinite(values)):
        raise ValueError("atom values must be finite")
    # NaN fails both comparisons; a bound on each weight keeps the total from overflowing
    if not np.all((weights >= 0.0) & (weights <= 1.0 + WEIGHT_TOL)):
        raise ValueError("atom weights must be finite and lie in [0, 1]")
    total = float(weights.sum())
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ValueError(f"atom weights must sum to 1 within {WEIGHT_TOL}, got {total!r}")
    uniq, inverse = np.unique(values, return_inverse=True)
    cum = np.minimum(np.cumsum(np.bincount(inverse, weights=weights, minlength=uniq.size)), 1.0)
    # clipped at 1, no weight is negative; an atom whose weight vanishes in the sum, a
    # zero weight among them, leaves the cumulative weight where its predecessor's was: drop it
    rise = cum != np.append(0.0, cum[:-1])
    uniq, cum = uniq[rise], cum[rise]
    cum[-1] = 1.0  # pin the top so quantile(1.0) is always defined
    return uniq, cum


class FiniteAtomic(Distribution):
    """Law with finitely many atoms, stored as sorted values and cumulative weights.

    Next to the cumulative weights c_i it keeps the prefix sums
    S_i = sum_{j <= i} w_j (x_j - x_0), centred on the first atom, so the
    partial quantile integral costs one binary search.  Both partial
    moments are summed atom by atom over their own tail.

    Parameters
    ----------
    values : array_like
        Atom locations.  Duplicates are merged (weights summed).
    weights : array_like
        Nonnegative weights summing to one within ``WEIGHT_TOL``.
    """

    def __init__(self, values, weights):
        self._set_ladder(*_canonical_atoms(values, weights))

    def _set_ladder(self, values: np.ndarray, cum: np.ndarray, csum=None):
        # every atomic law passes here; Python floats overflow to inf without a warning
        if not math.isfinite(float(values[-1]) - float(values[0])):
            raise ValueError("atom values must span a finite range, got "
                             f"[{float(values[0])!r}, {float(values[-1])!r}]")
        self._values = values
        # one block, filled in place: the allocator hands it to the next law
        # of its size, where separate n-arrays would each fault pages in again
        ladder = np.empty((3 if csum is None else 2, values.size))
        ladder[0] = cum
        ladder[1, 0] = cum[0]
        np.subtract(cum[1:], cum[:-1], out=ladder[1, 1:])
        if csum is None:
            csum = np.subtract(values, values[0], out=ladder[2])
            csum *= ladder[1]
            csum.cumsum(out=csum)
        self._cum, self._weights, self._csum = ladder[0], ladder[1], csum
        self._one = None

    @classmethod
    def _from_cum(cls, values: np.ndarray, cum: np.ndarray, csum=None) -> "FiniteAtomic":
        # internal: values strictly increasing, cum nondecreasing with cum[-1] == 1.0
        obj = cls.__new__(cls)
        obj._set_ladder(np.asarray(values, dtype=float), np.asarray(cum, dtype=float), csum)
        return obj

    def atoms(self) -> list[tuple[float, float]]:
        """Canonical (value, weight) pairs."""
        return [(float(v), float(w)) for v, w in zip(self._values, self._weights)]

    @property
    def n_atoms(self) -> int:
        return int(self._values.size)

    def cdf(self, x: float) -> float:
        idx = int(np.searchsorted(self._values, _check_point(x, finite=False), side="right"))
        if idx == 0:
            return 0.0
        return float(self._cum[idx - 1])

    def _stack(self) -> "_Stack":
        # the law as a stack of one row, made once: its offset is 0, so its
        # search key is cum itself
        if self._one is None:
            self._one = _Stack(self._values[None], self._cum[None], self._weights[None],
                               self._csum[None], np.array([self._values.size]), self._cum)
        return self._one

    def quantile(self, v: float) -> float:
        return float(self._values[self._stack()._reach(_check_level(v))[0][0, 0]])

    def _pqi(self, p):
        return self._stack().pqi(p)[0]

    def partial_quantile_integral(self, p: float) -> float:
        return float(self._pqi(_check_prob(p)))

    def support_min(self) -> float:
        return float(self._values[0])

    def support_max(self) -> float:
        return float(self._values[-1])

    def _tails(self, x: float) -> tuple[float, float]:
        # E(Y - x)^+ and E(x - Y)^+ summed atom by atom: a difference of prefix
        # sums keeps only the absolute accuracy of the whole sum
        v, w = self._values, self._weights
        hi, lo = v.searchsorted(x, "right"), v.searchsorted(x, "left")
        with np.errstate(over="ignore", invalid="ignore"):
            return np.dot(w[hi:], v[hi:] - x), np.dot(w[:lo], x - v[:lo])

    def upper_partial_moment(self, x: float) -> float:
        return _finite_moment(self._tails(_check_point(x))[0], x)

    def lower_partial_moment(self, x: float) -> float:
        return _finite_moment(self._tails(_check_point(x))[1], x)

    def _moved(self, values: np.ndarray, csum: np.ndarray) -> "FiniteAtomic":
        # rounding can make neighbours equal: keep the last atom of each run,
        # whose cumulative weight and prefix sum cover the whole run
        last = np.append(values[1:] != values[:-1], True)
        if last.all():
            return FiniteAtomic._from_cum(values, self._cum, csum)
        return FiniteAtomic._from_cum(values[last], self._cum[last], csum[last])

    def shift(self, c: float) -> "FiniteAtomic":
        # distances to the first atom do not move, so the prefix sums carry over;
        # an overflow leaves a range that _set_ladder rejects
        with np.errstate(over="ignore", invalid="ignore"):
            values = self._values + float(c)
        return self._moved(values, self._csum)

    def scale(self, lam: float) -> "FiniteAtomic":
        lam = float(lam)
        if lam < 0.0:
            raise ValueError("scale factor must be nonnegative")
        if lam == 0.0:
            return dirac(0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            values, csum = self._values * lam, self._csum * lam
        return self._moved(values, csum)

    def __repr__(self):
        pairs = ", ".join(f"({v:.6g}, {w:.6g})" for v, w in self.atoms()[:4])
        more = ", ..." if self.n_atoms > 4 else ""
        return f"FiniteAtomic([{pairs}{more}])"


class Empirical(FiniteAtomic):
    """Empirical law of a sample: each observation carries weight 1/n.

    Duplicated observations merge into heavier atoms; cumulative weights are
    the exact ratios k/n, so the top of the ladder is exactly one.
    """

    def __init__(self, samples):
        samples = np.sort(np.asarray(samples, dtype=float))
        if samples.size == 0:
            raise ValueError("empirical law needs at least one sample")
        # sorted, so an infinity sits at an end and a NaN at the top
        if not (math.isfinite(samples[0]) and math.isfinite(samples[-1])):
            raise ValueError("samples must be finite")
        # an atom ends wherever the next value differs; without ties the
        # sorted sample is the atom array itself, and k / n fills one array
        values, cum = samples, np.arange(1.0, samples.size + 1.0)
        tie = samples[1:] == samples[:-1]
        if tie.any():
            last = np.append(~tie, True)
            values, cum = samples[last], cum[last]
        cum /= samples.size
        self._set_ladder(values, cum)
        self.samples = samples

    def __repr__(self):
        return f"Empirical(n={self.samples.size}, range=[{self.samples[0]:.6g}, {self.samples[-1]:.6g}])"


def two_point(x1: float, x2: float, p: float) -> FiniteAtomic:
    """Law p * delta_{x1} + (1 - p) * delta_{x2} with x1 <= x2.

    Collapses to a single Dirac atom when x1 == x2 or p is 0 or 1.
    """
    x1, x2 = float(x1), float(x2)
    p = _check_prob(p)
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError(f"two_point atoms must be finite, got {x1!r} and {x2!r}")
    if x1 > x2:
        raise ValueError(f"two_point requires x1 <= x2, got {x1!r} > {x2!r}")
    if x1 == x2 or p == 1.0:
        return dirac(x1)
    if p == 0.0:
        return dirac(x2)
    return FiniteAtomic._from_cum(np.array([x1, x2]), np.array([p, 1.0]))


def dirac(a: float) -> FiniteAtomic:
    """Point mass at a."""
    a = float(a)
    if not math.isfinite(a):
        raise ValueError(f"a point mass needs a finite location, got {a!r}")
    return FiniteAtomic._from_cum(np.array([a]), np.array([1.0]))


class Uniform(Distribution):
    """Uniform law on [a, b]."""

    def __init__(self, a: float, b: float):
        a, b = float(a), float(b)
        if not (a < b and math.isfinite(b - a)):
            raise ValueError(f"uniform law needs finite a < b with a finite b - a, "
                             f"got [{a!r}, {b!r}]")
        self.a = a
        self.b = b

    def cdf(self, x: float) -> float:
        x = _check_point(x, finite=False)
        if x <= self.a:
            return 0.0
        if x >= self.b:
            return 1.0
        return (x - self.a) / (self.b - self.a)

    def quantile(self, v: float) -> float:
        v = _check_level(v)
        return self.a + v * (self.b - self.a)

    def _pqi(self, p):
        return self.a * p + 0.5 * (self.b - self.a) * p * p

    def partial_quantile_integral(self, p: float) -> float:
        return float(self._pqi(_check_prob(p)))

    def support_min(self) -> float:
        return self.a

    def support_max(self) -> float:
        return self.b

    def upper_partial_moment(self, x: float) -> float:
        x = _check_point(x)
        if x <= self.a:
            return _finite_moment(self.mean() - x, x)
        if x >= self.b:
            return 0.0
        # a ratio at most 1 first: the square of b - x may overflow
        return (self.b - x) * ((self.b - x) / (self.b - self.a) / 2.0)

    def lower_partial_moment(self, x: float) -> float:
        x = _check_point(x)
        if x <= self.a:
            return 0.0
        if x >= self.b:
            return _finite_moment(x - self.mean(), x)
        return (x - self.a) * ((x - self.a) / (self.b - self.a) / 2.0)

    def shift(self, c: float) -> "Uniform":
        return Uniform(self.a + float(c), self.b + float(c))

    def scale(self, lam: float):
        lam = float(lam)
        if lam < 0.0:
            raise ValueError("scale factor must be nonnegative")
        if lam == 0.0:
            return dirac(0.0)
        return Uniform(self.a * lam, self.b * lam)

    def __repr__(self):
        return f"Uniform({self.a:.6g}, {self.b:.6g})"


def mix(d0: Distribution, d1: Distribution, p: float) -> FiniteAtomic:
    """Mixture p * d0 + (1 - p) * d1 of two atomic laws.

    Continuous laws are rejected: mixtures are only needed on the atomic side
    of the diagnostics, where they stay exact.  Both ladders are canonical and
    are merged: a shared value sums its weights, and p = 0 or 1 drops a law.
    """
    p = _check_prob(p)
    if not isinstance(d0, FiniteAtomic) or not isinstance(d1, FiniteAtomic):
        raise ValueError("mix is defined for atomic laws only")
    return _Stack.mixed(d0._values[None], d0._weights[None], d1._values[None],
                        d1._weights[None], np.array([p])).laws()[0]


class _Stack:
    """K atomic laws as (K, n) arrays of values, cumulative weights, weights
    and prefix sums centred on each row's first atom; a law is one row.

    Row r holds ``atoms[r]`` atoms, then zero weight at its last value with
    cumulative weight 1 and its last prefix sum, so a sum along a row adds
    only exact zeros to the law's own.  A search runs once over the
    flattened rows, row r offset by ``off`` = 2 r.
    """

    def __init__(self, values, cum, weights, csum, atoms, key=None):
        self.values, self.cum, self.weights, self.csum = values, cum, weights, csum
        self.atoms, rows = atoms, np.arange(len(cum))
        self.off, self.start = 2.0 * rows[:, None], cum.shape[1] * rows
        self.key = (cum + self.off).ravel() if key is None else key

    @classmethod
    def _from_sorted(cls, values, cum):
        # rows sorted by value with running cumulative weights: clip them at 1, drop an
        # entry whose cumulative weight is its predecessor's (0 before the first), pin the top
        cum = np.minimum(cum, 1.0)
        keep = cum != np.concatenate((np.zeros((len(cum), 1)), cum[:, :-1]), axis=1)
        atoms = keep.sum(axis=1)
        order = np.argsort(~keep, axis=1, kind="stable")[:, :atoms.max(initial=1)]
        values, cum = np.take_along_axis(values, order, 1), np.take_along_axis(cum, order, 1)
        top = np.arange(cum.shape[1]) >= atoms[:, None] - 1
        cum[top] = 1.0
        values = np.where(top, np.take_along_axis(values, atoms[:, None] - 1, 1), values)
        weights = np.diff(cum, axis=1, prepend=0.0)
        with np.errstate(over="ignore", invalid="ignore"):  # a law rejects such a range
            csum = np.cumsum((values - values[:, :1]) * weights, axis=1)
        return cls(values, cum, weights, csum, atoms)

    @classmethod
    def of(cls, laws) -> "_Stack":
        """Atomic laws as the rows of one stack: each law's own ladder, padded."""
        values, cum, weights, csum = np.empty((4, len(laws), max(d.n_atoms for d in laws)))
        for r, d in enumerate(laws):
            for a, x, pad in ((values, d._values, d._values[-1]), (cum, d._cum, 1.0),
                              (weights, d._weights, 0.0), (csum, d._csum, d._csum[-1])):
                a[r, :x.size], a[r, x.size:] = x, pad
        return cls(values, cum, weights, csum, np.array([d.n_atoms for d in laws]))

    @classmethod
    def two_point(cls, x, p) -> "_Stack":
        """Rows ``two_point(0, x, p)``, x >= 0 and 0 < p < 1; x = 0 is the point mass at 0."""
        cum = np.stack((np.where(x == 0.0, 1.0, p), np.ones_like(x)), axis=1)
        return cls._from_sorted(np.stack((np.zeros_like(x), x), axis=1), cum)

    @classmethod
    def empirical(cls, samples) -> "_Stack":
        """Each row of equally likely samples, as ``Empirical`` builds its law."""
        s = np.sort(samples, axis=1)
        # k / n on the last of each run of ties, carried over the next run's others
        last = np.append(s[:, 1:] != s[:, :-1], np.ones((len(s), 1), dtype=bool), axis=1)
        cum = np.where(last, np.arange(1.0, s.shape[1] + 1.0) / s.shape[1], 0.0)
        return cls._from_sorted(s, np.maximum.accumulate(cum, axis=1))

    @classmethod
    def mixed(cls, v0, w0, v1, w1, p) -> "_Stack":
        """Rows p d0 + (1 - p) d1 from the values and weights of two sets of
        rows and one p per row, as ``mix`` merges two ladders."""
        values = np.concatenate((v0, v1), axis=1)
        order = values.argsort(axis=1, kind="stable")  # a run of equal values: d0's, then d1's
        values = np.take_along_axis(values, order, 1)
        weights = np.concatenate((p[:, None] * w0, (1.0 - p[:, None]) * w1), axis=1)
        start = np.flatnonzero(np.concatenate(
            (np.ones((len(values), 1), dtype=bool), values[:, 1:] != values[:, :-1]), axis=1))
        # each run's weights summed in order onto its first entry, zero elsewhere
        run = np.zeros(values.size)
        run[start] = np.add.reduceat(np.take_along_axis(weights, order, 1).ravel(), start)
        return cls._from_sorted(values, np.cumsum(run.reshape(values.shape), axis=1))

    def laws(self) -> list:
        return [FiniteAtomic._from_cum(x[:m], c[:m], s[:m])
                for x, c, s, m in zip(self.values, self.cum, self.csum, self.atoms)]

    def _reach(self, q):
        # flat index of each row's first atom whose cumulative weight reaches a
        # level q <= 1, and that weight; the offset may round q onto weights of
        # its own row just below it, never past the row's top: step over those
        f = self.key.searchsorted(q + self.off)
        while np.count_nonzero(low := (c := self.cum.ravel()[f]) < q):
            f = f + low
        return f, c

    def pqi(self, p):
        """Each row's integral of the quantile over (0, p], at levels p in
        [0, 1] shared by the rows: an array of shape (K,) + p.shape."""
        # level p lies on atom k, (c[k-1], c[k]]: take the integral up to c[k],
        # x_0 c[k] + S[k], less x_k (c[k] - p)
        p = np.asarray(p, dtype=float)
        (f, c), x0, q = self._reach(p.reshape(1, -1)), self.values[:, :1], p.reshape(1, -1)
        out = x0 * q + self.csum.ravel()[f] - (self.values.ravel()[f] - x0) * (c - q)
        return out.reshape(len(self.cum), *p.shape)


# Characters on which numpy's parse and the csv module's could differ: the
# quote, NUL (dropped from the end of numpy strings) and the ASCII separators
# 0x1c-0x1f (whitespace to numpy's float parser, not to Python's float).
_PER_ROW_ONLY = '"\0\x1c\x1d\x1e\x1f'


def _read_columns(path, numbers, labels=()):
    """Named columns of a CSV file with a header row, parsed by numpy.

    Returns a float64 array with one column per name in ``numbers`` and, when
    ``labels`` is given, a stripped string array with one column per label
    name; one row per data row, blank lines skipped.  A name given twice in
    the header means its last column.  Returns None whenever the per-row
    parser must decide: the file holds a quote, a character in
    ``_PER_ROW_ONLY`` or a field that may pass the csv module's field size
    limit, a name is missing, or numpy rejects the data (ragged rows, empty
    fields and the numbers Python's ``float`` reads but numpy does not, such
    as ``1_0`` or non-ASCII digits), or numpy would decompress or fetch the path.
    """
    fname = os.fspath(path) if isinstance(path, os.PathLike) else path
    if (not isinstance(fname, str) or "://" in fname
            or fname.endswith((".gz", ".bz2", ".xz", ".lzma"))):
        return None
    try:
        with open(path, newline="") as fh, warnings.catch_warnings():
            # a warning, such as that for a file with no data rows, declines too
            warnings.simplefilter("error")
            # a field longer than the csv module's limit covers a whole block
            # of at most half that length, so a block with no field end
            # declines; chunks are whole blocks, so blocks stay aligned
            block = min(max(1, (csv.field_size_limit() + 1) // 2), 1 << 20)
            size = block * ((1 << 20) // block)
            for chunk in iter(lambda: fh.read(size), ""):
                if any(c in chunk for c in _PER_ROW_ONLY):
                    return None
                for i in range(0, len(chunk) - block + 1, block):
                    if all(chunk.find(c, i, i + block) < 0 for c in ",\n\r"):
                        return None
            fh.seek(0)
            column = {name: i for i, name in enumerate(fh.readline().rstrip("\r\n").split(","))}
            if not all(name in column for name in (*numbers, *labels)):
                return None
            values = np.loadtxt(fname, delimiter=",", comments=None, ndmin=2, skiprows=1,
                                usecols=[column[name] for name in numbers])
            if not labels:
                return values, None
            # numpy reads strings in chunks of rows and warns that a blank line
            # does not count towards a chunk; every row is still read
            warnings.filterwarnings("ignore", "Input line", UserWarning)
            text = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=str,
                              usecols=[column[name] for name in labels])
    # ValueError covers undecodable bytes, whose message the per-row parser gives
    except (ValueError, IndexError, Warning):
        return None
    return values, np.char.strip(text)


def _samples_by_rows(path) -> list[float]:
    """Column ``y`` read row by row; errors name the physical line."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "y" not in reader.fieldnames:
            raise ValueError(f"{path}: expected a header row with a column named 'y'")
        samples = []
        for row in reader:
            raw = row.get("y")
            if raw is None or raw.strip() == "":
                raise ValueError(f"{path}:{reader.line_num}: missing value in column 'y'")
            try:
                samples.append(float(raw))
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: could not parse {raw!r} "
                                 "as a real number") from exc
    if not samples:
        raise ValueError(f"{path}: no data rows")
    return samples


def empirical_from_csv(path) -> Empirical:
    """Read an empirical law from a CSV file with a header and a column ``y``."""
    columns = _read_columns(path, ["y"])
    if columns is None:
        return Empirical(_samples_by_rows(path))
    return Empirical(columns[0][:, 0])
