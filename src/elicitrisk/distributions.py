"""Probability laws on the real line with exact quantile machinery.

Atomic laws carry their cumulative weights explicitly, so quantiles, partial
quantile integrals and mixtures are exact up to float rounding.  The quantile
is the generalized inverse

    F^{-1}(v) = inf{x : F(x) >= v},

left-continuous and nondecreasing in v.  The only continuous family provided
is the uniform law, which covers every closed-form case the diagnostics need.
"""

from __future__ import annotations

import contextlib
import csv
import math
import operator
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


def _check_count(x, name: str, minimum: int) -> int:
    # any integer type, returned as a Python int; a float, even 3.0, is not a count
    try:
        x = operator.index(x)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {x!r}") from None
    if x < minimum:
        raise ValueError(f"{name} must be non-negative" if minimum == 0
                         else f"{name} must be at least {minimum}")
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
    """Sorted distinct values and their running cumulative weights, one row
    each, after validating the weights."""
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
    return uniq[None], np.cumsum(np.bincount(inverse, weights=weights, minlength=uniq.size))[None]


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
        self._hold(_Stack._from_sorted(*_canonical_atoms(values, weights)))

    def _hold(self, row: "_Stack"):
        # every atomic law passes here: it is the one row of a stack that the
        # ladder builder made, and its arrays are views of that row
        self._row = row
        self._values, self._cum, self._weights, self._csum = (
            row.values[0], row.cum[0], row.weights[0], row.csum[0])

    @classmethod
    def _from_cum(cls, values: np.ndarray, cum: np.ndarray, csum=None) -> "FiniteAtomic":
        # internal: values sorted, cum their running cumulative weights
        obj = cls.__new__(cls)
        obj._hold(_Stack._from_sorted(values[None], cum[None],
                                      None if csum is None else csum[None]))
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

    def quantile(self, v: float) -> float:
        return float(self._values[self._row._reach(_check_level(v))[0][0, 0]])

    def _pqi(self, p):
        return self._row.pqi(p)[0]

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

    def shift(self, c: float) -> "FiniteAtomic":
        # distances to the first atom do not move, so the prefix sums carry over;
        # rounding may merge neighbours, and an overflow leaves a range the builder rejects
        with np.errstate(over="ignore", invalid="ignore"):
            values = self._values + float(c)
        return FiniteAtomic._from_cum(values, self._cum, self._csum)

    def scale(self, lam: float) -> "FiniteAtomic":
        lam = float(lam)
        if lam < 0.0:
            raise ValueError("scale factor must be nonnegative")
        if lam == 0.0:
            return dirac(0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            values, csum = self._values * lam, self._csum * lam
        return FiniteAtomic._from_cum(values, self._cum, csum)

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
        self._hold(_Stack.empirical(samples[None]))
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
    if x1 == x2:
        return dirac(x1)
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
    of the diagnostics, where they stay exact.  The law is built from both
    sets of atoms: a shared value sums its weights, and p = 0 or 1 drops a law.
    """
    p = _check_prob(p)
    if not isinstance(d0, FiniteAtomic) or not isinstance(d1, FiniteAtomic):
        raise ValueError("mix is defined for atomic laws only")
    return FiniteAtomic(np.concatenate((d0._values, d1._values)),
                        np.concatenate((p * d0._weights, (1.0 - p) * d1._weights)))


def _kept(keep):
    """Flat indices of each row's kept entries, padded with its last, and their counts."""
    flat = np.flatnonzero(keep)
    atoms = np.bincount(flat // keep.shape[1], minlength=len(keep))
    end = np.cumsum(atoms)
    return flat[np.minimum(np.arange(atoms.max(initial=1)) + (end - atoms)[:, None],
                           end[:, None] - 1)], atoms


class _Stack:
    """K atomic laws as (K, n) arrays of values, cumulative weights, weights
    and prefix sums centred on each row's first atom; a law is one row.

    Row r holds ``atoms[r]`` atoms, then zero weight at its last value with
    cumulative weight 1 and its last prefix sum, so a sum along a row adds
    only exact zeros to the law's own.  A search runs once over the
    flattened rows, row r offset by ``off`` = 2 r.
    """

    def __init__(self, values, cum, weights, csum, atoms):
        self.values, self.cum, self.weights, self.csum = values, cum, weights, csum
        self.atoms, (k, n) = atoms, cum.shape
        self.off, self.start = np.arange(0.0, 2.0 * k, 2.0)[:, None], np.arange(0, k * n, n)
        # row 0's offset is 0, so a single row is searched on its own cumulative weights
        self.key = (cum + self.off).ravel() if k > 1 else cum.ravel()

    @classmethod
    def _from_sorted(cls, values, cum, csum=None) -> "_Stack":
        """Rows of sorted values and running cumulative weights (one row of them
        may serve all rows), and prefix sums if ``csum`` carries them, as a
        stack; every atomic law is one such row.
        The last of a run of equal values stands for the run, cumulative weights
        are clipped at 1, an entry of weight 0 is dropped, the top is pinned at 1.
        """
        tie = values[:, 1:] == values[:, :-1]
        if tie.any():
            last = np.ones(values.shape, dtype=bool)
            np.logical_not(tie, out=last[:, :-1])
            take, _ = _kept(last)
            values, cum = np.take(values, take), np.take(np.broadcast_to(cum, last.shape), take)
            csum = None  # a merged row's first atom moved: sum its ladder again
        # one block, filled in place: the allocator hands it to the next law
        # of its size, where separate arrays would each fault pages in again
        ladder = np.empty((3 if csum is None else 2,) + values.shape)
        c, weights = np.minimum(cum, 1.0, out=ladder[0]), ladder[1]
        weights[:, 0] = c[:, 0]
        np.subtract(c[:, 1:], c[:, :-1], out=weights[:, 1:])
        if weights.min(initial=1.0) > 0.0:
            # the top is the last entry: pin it, and its weight with it
            atoms = np.full(len(c), c.shape[1])
            c[:, -1] = 1.0
            np.subtract(1.0, c[:, -2] if c.shape[1] > 1 else 0.0, out=weights[:, -1])
        else:
            take, atoms = _kept(weights != 0.0)
            c.reshape(-1)[take[:, -1]] = 1.0
            values, csum = np.take(values, take), None if csum is None else np.take(csum, take)
            ladder = np.empty((len(ladder),) + take.shape)
            c, weights = np.take(c, take, out=ladder[0]), ladder[1]
            weights[:, 0] = c[:, 0]
            np.subtract(c[:, 1:], c[:, :-1], out=weights[:, 1:])
        # distances to each row's first atom; the last is the row's span
        with np.errstate(over="ignore", invalid="ignore"):
            d = (np.subtract(values, values[:, :1], out=ladder[2]) if csum is None
                 else values[:, -1:] - values[:, :1])
        if not math.isfinite(d[:, -1].max(initial=0.0)):
            r = int(np.argmin(np.isfinite(d[:, -1])))
            raise ValueError("atom values must span a finite range, got "
                             f"[{float(values[r, 0])!r}, {float(values[r, -1])!r}]")
        if csum is None:
            csum = np.multiply(d, weights, out=d)
            csum.cumsum(axis=1, out=csum)
        return cls(values, c, weights, csum, atoms)

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
        return cls._from_sorted(np.stack((np.zeros_like(x), x), axis=1),
                                np.stack((p, np.ones_like(x)), axis=1))

    @classmethod
    def empirical(cls, s) -> "_Stack":
        """Rows of sorted, equally likely samples: sample k of n reaches k / n."""
        cum = np.arange(1.0, s.shape[1] + 1.0)
        cum /= s.shape[1]
        return cls._from_sorted(s, cum[None])

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


# Bytes on which numpy's parse and the csv module's could differ: the quote,
# NUL (dropped from the end of numpy strings) and the ASCII separators
# 0x1c-0x1f (whitespace to numpy's float parser, not to Python's float).
_PER_ROW_ONLY = b'"\0\x1c\x1d\x1e\x1f'

# The first L bytes of a little-endian 8-byte word, for L = 0..8
_PREFIX = np.array([(1 << 8 * L) - 1 for L in range(9)], np.uint64)

# The readers take the file in pieces of at most this many bytes; the label
# scan cuts each after a line end
_PIECE = 1 << 20


def _read_columns(path, numbers, labels=()):
    """Named columns of a CSV file with a header row, parsed by numpy.

    Returns a float64 array with one column per name in ``numbers``, one row
    per data row, blank lines skipped, and a list with a triple ``(names,
    codes, first)`` per name in ``labels``: the distinct stripped labels in
    sorted order, each row's index into them and the row where each first
    occurs.  A name given twice in the header means its last column.
    Returns None whenever the per-row parser must decide: the file holds a
    quote, a byte in ``_PER_ROW_ONLY`` or a field that may pass the csv
    module's field size limit, a name is missing, or numpy rejects the data
    (undecodable bytes, ragged rows, empty fields and the numbers Python's
    ``float`` reads but numpy does not, such as ``1_0`` or non-ASCII digits),
    or numpy would decompress or fetch the path; with labels, also when a
    line has not the header's number of fields or a label column held at
    its widest label's width would outgrow the file and 1 MiB.
    """
    fname = os.fspath(path) if isinstance(path, os.PathLike) else path
    if (not isinstance(fname, str) or "://" in fname
            or fname.endswith((".gz", ".bz2", ".xz", ".lzma"))):
        return None
    # a field longer than the csv module's limit covers a whole block of at
    # most half that length, so a block with no field end declines; reads of
    # whole blocks keep the blocks aligned
    block = min(max(1, (csv.field_size_limit() + 1) // 2), _PIECE)
    try:
        # the per-row parser's own file, so the same text encoding
        with open(fname, newline="") as fh:
            encoding, read, head = fh.encoding, fh.buffer.read, b""
            # the label scan reads the whole file; the numbers alone need no bytes kept
            for chunk in [read()] if labels else iter(lambda: read(_PIECE // block * block), b""):
                head = head or chunk
                if any(c in chunk for c in _PER_ROW_ONLY) or any(
                        all(chunk.find(c, i, i + block) < 0 for c in b",\n\r")
                        for i in range(0, len(chunk) - block + 1, block)):
                    return None
        end = min((i for i in (head.find(b"\n", 0, _PIECE), head.find(b"\r", 0, _PIECE))
                   if i >= 0), default=len(head))
        if end >= _PIECE:
            return None
        header = head[:end].decode(encoding).split(",")
        column = {name: i for i, name in enumerate(header)}
        if not all(name in column for name in (*numbers, *labels)):
            return None
        if labels:
            cells = _label_cells(head, end + 1 + (head[end:end + 2] == b"\r\n"), len(header),
                                 [column[name] for name in labels])
            # the bytes go before numpy parses the numbers
            del head, chunk
            if cells is None:
                return None
            factors = [_factorise(c, encoding) for c in cells]
            del cells
        with warnings.catch_warnings():
            # a warning, such as that for a file with no data rows, declines too
            warnings.simplefilter("error")
            values = np.loadtxt(fname, delimiter=",", comments=None, ndmin=2, skiprows=1,
                                usecols=[column[name] for name in numbers])
    # ValueError covers undecodable bytes, whose message the per-row parser gives
    except (ValueError, IndexError, Warning):
        return None
    if not labels:
        return values, []
    return (values, factors) if all(c.size == len(values) for _, c, _ in factors) else None


def _label_cells(data: bytes, lo: int, nfields: int, cols: list):
    """The fields ``cols`` of each non-empty line of ``data[lo:]``: one ``S``
    array per column, zero-padded to a multiple of 8 bytes.  None unless every
    such line has ``nfields`` fields and each column's widest field, times the
    rows, fits in the larger of ``data`` and a piece.

    Lines end at LF, CR and CRLF, as both parsers end them.
    """
    buf, n, rows = np.frombuffer(data, np.uint8), len(data), 0
    parts, widest = [[] for _ in cols], [0] * len(cols)
    while lo < n:
        # cut after the piece's last line end; the LF of a CRLF cut there
        # starts the next piece as an empty line
        hi = n if n - lo <= _PIECE else 1 + max(data.rfind(b"\n", lo, lo + _PIECE),
                                                data.rfind(b"\r", lo, lo + _PIECE))
        if hi <= lo:
            return None
        piece, lo = buf[lo:hi], hi
        pos = np.flatnonzero((piece == 44) | (piece == 10) | (piece == 13)).astype(np.int32)
        if hi == n and data[-1] not in b"\r\n":
            # the last line has no line end
            pos = np.append(pos, np.int32(piece.size))
        # the piece with zeros past its end, which also mark the missing line end
        padded = np.append(piece, np.zeros(8, np.uint8))
        sep = padded[pos]
        # a field starts after the separator before it; the LF of a CRLF ends
        # none, and neither does the line end of an empty line
        start = np.concatenate((np.zeros(1, np.int32), pos[:-1] + 1))
        keep = np.concatenate(([True], (sep[1:] != 10) | (sep[:-1] != 13)
                               | (pos[1:] != pos[:-1] + 1)))
        ends = sep != 44
        keep &= ~ends | (start != pos) | np.concatenate(([False], ~ends[:-1]))
        if not keep.all():
            pos, ends, start = pos[keep], ends[keep], start[keep]
        count = int(np.count_nonzero(ends))
        if pos.size != count * nfields or not ends[nfields - 1::nfields].all():
            return None
        rows += count
        fields = [(start[c::nfields], pos[c::nfields] - start[c::nfields]) for c in cols]
        widest = [max(w, int(length.max(initial=0))) for w, (_, length) in zip(widest, fields)]
        if any(rows * w > max(n, _PIECE) for w in widest):
            return None
        # a field as little-endian 8-byte words, read at any byte offset
        words = np.ndarray((piece.size + 1,), "<u8", padded, strides=(1,))
        for part, w, (s, length) in zip(parts, widest, fields):
            cell = np.empty((count, max(1, -(-w // 8))), "<u8")
            for k in range(cell.shape[1]):
                cell[:, k] = (words[np.minimum(s + 8 * k, piece.size)]
                              & _PREFIX[np.clip(length - 8 * k, 0, 8)])
            part.append(cell.view(f"S{8 * cell.shape[1]}")[:, 0])
    return [np.concatenate(part) for part in parts] if rows else None


def _factorise(cells: np.ndarray, encoding: str):
    """Distinct stripped labels of ``cells`` in sorted order, each cell's index
    into them and the first cell of each."""
    # eight bytes sort as their big-endian integer, and faster
    keys = cells.view(">u8").astype(np.uint64) if cells.itemsize == 8 else cells
    keys, first, codes = np.unique(keys, return_index=True, return_inverse=True)
    raw = keys.astype(">u8").view("S8").tolist() if cells.itemsize == 8 else keys.tolist()
    names = [b.decode(encoding).strip() for b in raw]
    # bytes sort as their ASCII text; other text, or stripping, may merge or reorder
    if any(not b.isascii() or len(b) != len(name) for b, name in zip(raw, names)):
        names, merged = np.unique(names, return_inverse=True)
        codes, names, merged_first = merged[codes], names.tolist(), np.full(len(names), codes.size)
        np.minimum.at(merged_first, merged, first)
        first = merged_first
    return names, codes, first


@contextlib.contextmanager
def _decode_errors(path, where):
    """Make a text decoding error in the block a ValueError that names the
    physical line of the file's first undecodable byte, counted as the csv
    module counts lines and formatted by ``where``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        # the decoder's own position counts from the start of its buffer
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode(exc.encoding)
        except UnicodeDecodeError as first:
            exc = first
        head = data[:exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise ValueError(f"{where(line)}: {exc.encoding!r} codec can't decode byte "
                         f"0x{exc.object[exc.start]:02x}: {exc.reason}") from None


def _samples_by_rows(path) -> list[float]:
    """Column ``y`` read row by row; errors name the physical line."""
    with open(path, newline="") as fh, _decode_errors(path, lambda line: f"{path}:{line}"):
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
