"""Probability laws on the real line with exact quantile machinery.

Atomic laws carry their cumulative weights explicitly, so quantiles, partial
quantile integrals and mixtures are exact up to float rounding.  The quantile
is the generalized inverse

    F^{-1}(v) = inf{x : F(x) >= v},

left-continuous and nondecreasing in v.  The only continuous family provided
is the uniform law, which covers every closed-form case the diagnostics need.
"""

from __future__ import annotations

import math
import operator
import sys
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


class _Record:
    """Base of the library's records: immutable values with named fields.

    A subclass lists its fields as annotations, after those of its bases; a
    class attribute of a field's name is its default, copied for each record
    if it is a list or a dict.  From that list alone the base gives what
    ``@dataclass(frozen=True)`` would: ``__init__`` by position or name,
    which then calls ``__post_init__``; ``==`` and ``hash`` on the fields in
    order, between records of one class; the repr ``Name(field=value, ...)``;
    and ``dataclasses.FrozenInstanceError`` on assignment or deletion.
    Unlike ``@dataclass``, it generates and compiles no code per class at
    import.  ``_astuple`` and ``_replace`` stand in for ``dataclasses``'
    ``astuple`` and ``replace``.
    """

    _fields: tuple[str, ...] = ()
    _names: frozenset = frozenset()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = cls._fields + own
        cls._names = frozenset(cls._fields)
        cls._defaults = {**cls._defaults, **{f: cls.__dict__[f] for f in own if f in cls.__dict__}}

    def __init__(self, *args, **kwargs):
        # every field by position, or every field by name, or else the general case
        if not kwargs and len(args) == len(self._fields):
            kwargs = zip(self._fields, args)
        elif args or kwargs.keys() != self._names:
            kwargs = self._bind(args, kwargs)
        self.__dict__.update(kwargs)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> dict:
        # every field's value, from arguments by position and by name
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__qualname__}() takes {len(cls._fields)} fields, "
                            f"got {len(args)} positional arguments")
        values = dict(zip(cls._fields, args))
        for name, value in kwargs.items():
            if name not in cls._names or name in values:
                raise TypeError(f"{cls.__qualname__}() got an unexpected or repeated "
                                f"argument {name!r}")
            values[name] = value
        for name in cls._fields[len(args):]:
            if name not in values:
                if name not in cls._defaults:
                    raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
                value = cls._defaults[name]
                values[name] = value.copy() if isinstance(value, (list, dict)) else value
        return values

    def __post_init__(self):
        pass

    def _astuple(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def _replace(self, **changes):
        """A record of the same class with ``changes`` to its fields."""
        return type(self)(**dict(zip(self._fields, self._astuple()), **changes))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._astuple()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


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
    """Sorted distinct values and their running cumulative weights, after validating both."""
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
    return uniq, np.cumsum(np.bincount(inverse, weights=weights, minlength=uniq.size))


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
        # every atomic law passes here: it is a stack of one row, whose arrays it holds
        self._row = row
        self._values, self._cum, self._weights, self._csum = (
            row.values, row.cum, row.weights, row.csum)

    @classmethod
    def _from_cum(cls, values: np.ndarray, cum: np.ndarray, csum=None) -> "FiniteAtomic":
        # internal: values sorted, cum their running cumulative weights
        obj = cls.__new__(cls)
        obj._hold(_Stack._from_sorted(values, cum, csum))
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
        # E(Y - x)^+ and E(x - Y)^+ summed atom by atom (a difference of prefix sums keeps only
        # the absolute accuracy of the whole sum); E(x - Y)^+ is 0.0 less a segment sum, exactly
        v = self._values
        hi, lo = v.searchsorted(x, "right"), v.searchsorted(x, "left")
        with np.errstate(over="ignore", invalid="ignore"):
            up, down = _segment_dots(self._weights, v, np.array([hi, 0]), np.array([v.size, lo]),
                                     np.array([x, x]))
        return up, 0.0 - down

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
        self._hold(_Stack.empirical(samples))
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


class _Stack:
    """K atomic laws end to end in flat arrays of values, cumulative weights, weights
    and prefix sums centred on each row's first atom: row r is the ``atoms[r]``
    entries from ``start[r]``, and a law is the stack of one row.  A search runs
    once over all rows, on ``cum`` + 2 r: a row's top is exactly 1."""

    def __init__(self, values, cum, weights, csum, atoms):
        self.values, self.cum, self.weights, self.csum = values, cum, weights, csum
        self.atoms, self.end = atoms, atoms.cumsum()
        self.start, self.off = self.end - atoms, np.arange(0.0, 2.0 * len(atoms), 2.0)[:, None]
        # row 0's offset is 0, so a single row is searched on its own cumulative weights
        self.key = cum + np.repeat(self.off[:, 0], atoms) if len(atoms) > 1 else cum

    @classmethod
    def _from_sorted(cls, values, cum, csum=None) -> "_Stack":
        """Rows of sorted values along the last axis, their running cumulative weights
        (broadcast to the values' shape) and prefix sums if ``csum`` carries them, as
        a stack; every atomic law is one such row.  The last of a run of equal values
        stands for the run, cumulative weights are clipped at 1, an entry of weight 0
        is dropped whatever its value, and the top is pinned at 1.  A row is summed
        at full length, a dropped entry adding an exact zero, then compacted."""
        # one block, filled in place: the allocator hands it to the next law
        # of its size, where separate arrays would each fault pages in again
        ladder = np.empty((3,) + values.shape)
        c = np.minimum(cum, 1.0, out=ladder[0]).reshape(-1)
        n, w, v = values.shape[-1], ladder[1].reshape(-1), values.reshape(-1)
        tie = v[1:] == v[:-1]
        tie[n - 1::n] = False  # a row's last entry against the next row's first
        if tie.any():
            # the others of a run take the cumulative weight before it (weight 0): csum is stale;
            # a row without a tie is nondecreasing already, which the accumulate leaves as it is
            c[:-1][tie], csum = 0.0, None
            np.maximum.accumulate(c.reshape(-1, n), axis=1, out=c.reshape(-1, n))
        if c[n - 1::n].min(initial=1.0) < 1.0:  # the top, a row's last rise and all after it, is 1
            np.putmask(c.reshape(-1, n), c.reshape(-1, n) == c[n - 1::n, None], 1.0)
        np.subtract(c[1:], c[:-1], out=w[1:])
        w[::n] = c[::n]
        if w.min(initial=1.0) > 0.0:
            keep, first, last = None, slice(0, None, n), slice(n - 1, None, n)
        else:
            keep = np.flatnonzero(w != 0.0)
            end = keep.searchsorted(np.arange(n, v.size + 1, n))
            atoms = np.diff(end, prepend=0)
            first, last = keep[end - atoms], keep[end - 1]
        x0, top = v[first], v[last]
        with np.errstate(over="ignore", invalid="ignore"):
            if not math.isfinite((top - x0).max(initial=0.0)):
                r = int(np.argmin(np.isfinite(top - x0)))
                raise ValueError("atom values must span a finite range, got "
                                 f"[{float(x0[r])!r}, {float(top[r])!r}]")
            if csum is None:
                # distances to each row's first atom; an entry below it has
                # weight 0 and its distance is clamped, so no -inf x 0 enters
                csum = np.subtract(v.reshape(-1, n), x0[:, None], out=ladder[2].reshape(-1, n))
                if keep is not None and (v[::n] < x0).any():
                    np.maximum(csum, 0.0, out=csum)
                np.multiply(csum, w.reshape(-1, n), out=csum).cumsum(axis=1, out=csum)
        if keep is None:
            return cls(v, c, w, csum.reshape(-1), np.full(v.size // n, n))
        return cls(*(np.take(a, keep) for a in (v, c, w, csum)), atoms)

    @classmethod
    def of(cls, laws) -> "_Stack":
        """Atomic laws as the rows of one stack: their ladders end to end."""
        ladders = zip(*((d._values, d._cum, d._weights, d._csum) for d in laws))
        return cls(*map(np.concatenate, ladders), np.array([d.n_atoms for d in laws]))

    @classmethod
    def two_point(cls, x, p) -> "_Stack":
        """Rows ``two_point(0, x, p)``, x >= 0 and 0 < p < 1; x = 0 is the point mass at 0."""
        return cls._from_sorted(np.stack((np.zeros_like(x), x), axis=1),
                                np.stack((p, np.ones_like(x)), axis=1))

    @classmethod
    def empirical(cls, s, n=None) -> "_Stack":
        """Rows of sorted, equally likely samples: sample k of n reaches k / n,
        with n the rows' length or an array of their counts, NaN padding the rest."""
        cum = np.arange(1.0, s.shape[-1] + 1.0)
        return cls._from_sorted(s, np.divide(cum, len(cum), out=cum) if n is None else cum / n)

    def laws(self) -> list:
        """Each row as a law that holds views of its slice of the stack."""
        laws = [FiniteAtomic.__new__(FiniteAtomic) for _ in self.atoms]
        for d, i, j, m in zip(laws, self.start.tolist(), self.end.tolist(), self.atoms[:, None]):
            d._hold(_Stack(self.values[i:j], self.cum[i:j], self.weights[i:j], self.csum[i:j], m))
        return laws

    def _reach(self, q):
        # flat index of each row's first atom whose cumulative weight reaches a
        # level q <= 1, and that weight; the offset may round q onto weights of
        # its own row just below it, never past the row's top: step over those
        f = self.key.searchsorted(q + self.off)
        while np.count_nonzero(low := (c := self.cum[f]) < q):
            f = f + low
        return f, c

    def pqi(self, p):
        """Each row's integral of the quantile over (0, p], at levels p in
        [0, 1] shared by the rows: an array of shape (K,) + p.shape."""
        # level p lies on atom k, (c[k-1], c[k]]: take the integral up to c[k],
        # x_0 c[k] + S[k], less x_k (c[k] - p)
        p = np.asarray(p, dtype=float)
        (f, c), x0 = self._reach(q := p.reshape(1, -1)), self.values[self.start][:, None]
        out = x0 * q + self.csum[f] - (self.values[f] - x0) * (c - q)
        return out.reshape(len(self.atoms), *p.shape)


def _segment_dots(a, b, begin, stop, center=None):
    """sum_i a_i (b_i - center) over each segment [begin, stop) of two flat arrays, one np.vecdot
    per segment length so each sums as over its own row; up to four (one row's) are views."""
    out = np.zeros(len(begin))
    if len(begin) <= 4:
        for j, (i, k) in enumerate(zip(begin.tolist(), stop.tolist())):
            out[j] = np.vecdot(a[i:k], b[i:k] if center is None else b[i:k] - center[j])
        return out
    length = stop - begin
    for n in set(length.tolist()) - {0}:
        j = np.flatnonzero(length == n)
        seg = begin[j][:, None] + np.arange(n)
        out[j] = np.vecdot(a[seg], b[seg] if center is None else b[seg] - center[j][:, None])
    return out


def empirical_from_csv(path) -> Empirical:
    """Read an empirical law from a CSV file with a header and a column ``y``.

    A clean file is read by numpy's ``loadtxt`` after a scan of its bytes,
    any other row by row, which names the physical line of the first fault.
    Both readers live in the private module ``_ingest``, imported here
    rather than with this module, so that a process that reads no CSV file
    never compiles them.
    """
    from ._ingest import _read_columns, _samples_by_rows
    columns = _read_columns(path, ["y"])
    if columns is None:
        return Empirical(_samples_by_rows(path))
    return Empirical(columns[0][:, 0])

