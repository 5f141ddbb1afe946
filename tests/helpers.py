"""Shared randomized builders and oracles for the test suite."""

import itertools

import numpy as np
from hypothesis import strategies as st

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


_csv_names = itertools.count()


def write_csv(directory, text: str):
    """Write text to a new file in directory, line ends untranslated."""
    # a fresh name each time: truncating a file can cost milliseconds
    path = directory / f"data{next(_csv_names)}.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


# Fields that Python's float and numpy's parser may read differently, or that
# one of them rejects: underscores, non-ASCII digits and spaces, the ASCII
# separators numpy strips, non-finite values, empty and non-numeric text.
ODD_NUMBERS = ["1_0", "\u0661\u0662", "\u30002.5", "1.0\x1c", "\x1d2", "\t7\x1f", " 3 ", "-0.0",
               "0.0", "nan", "-inf", "Infinity", "1e999", "", " ", "x", "0x1", "1,5"]
ODD_LABELS = ["", " ", "a b", "\u0663", "x\x00", "#c", "a,b", '"q"']


class Faults:
    """Draws for one generated file.

    A file gets at most two kinds of fault, each at about a third of the
    places it can occur, so that most files are valid or close to valid.
    """

    KINDS = ("number", "label", "ragged", "quote", "blank", "cells", "conflict")

    def __init__(self, draw):
        self.draw = draw
        self.kinds = draw(st.sets(st.sampled_from(self.KINDS), max_size=2))

    def __call__(self, kind) -> bool:
        return kind in self.kinds and self.draw(st.integers(1, 3)) == 1

    def number(self) -> str:
        if self("number"):
            return self.draw(st.sampled_from(ODD_NUMBERS))
        return repr(self.draw(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                        st.floats(-1e3, 1e3))))

    def label(self, clean) -> str:
        return self.draw(st.sampled_from(ODD_LABELS if self("label") else clean))

    def header(self, names) -> list:
        """The names in any order, maybe with an extra or a duplicate column."""
        cols = list(self.draw(st.permutations(names)))
        for extra in self.draw(st.lists(st.sampled_from(["note", *names]), max_size=2)):
            cols.insert(self.draw(st.integers(0, len(cols))), extra)
        return cols

    def row(self, cols, value) -> list:
        # the last column of a name is the one read; other columns get filler
        last = {name: len(cols) - 1 - cols[::-1].index(name) for name in value}
        return [value[c] if last.get(c) == i else self.label(["", "9", "n"])
                for i, c in enumerate(cols)]

    def text(self, rows) -> str:
        """Serialise rows, header first.

        Any row may be cut short, get an extra field or have a field quoted;
        blank and whitespace-only lines may follow it; the line ends are LF,
        CRLF or CR, with or without a final one.
        """
        draw = self.draw
        lines = []
        for fields in rows:
            if self("ragged"):
                fields = fields[:draw(st.integers(0, len(fields) - 1))]
            if self("ragged"):
                fields = [*fields, draw(st.sampled_from(["", "1", "z"]))]
            if fields and self("quote"):
                i = draw(st.integers(0, len(fields) - 1))
                fields = [*fields[:i], '"' + fields[i].replace('"', '""') + '"', *fields[i + 1:]]
            lines.append(",".join(fields))
            if self("blank"):
                lines.append(draw(st.sampled_from(["", " ", "\t"])))
        end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        return end.join(lines) + (end if draw(st.booleans()) else "")


@st.composite
def sample_csv_texts(draw) -> str:
    """CSV texts for the column-``y`` reader, valid and not."""
    f = Faults(draw)
    cols = f.header(["y"])
    rows = [f.row(cols, {"y": f.number()}) for _ in range(draw(st.integers(0, 6)))]
    return f.text([cols, *rows])


@st.composite
def panel_csv_texts(draw) -> str:
    """Long-format panel texts: full grids, with cells dropped, repeated or conflicting."""
    f = Faults(draw)
    cols = f.header(["method", "period", "forecast", "realization"])
    # dicts, not sets: the order must not depend on string hashing
    methods = dict.fromkeys(f.label(["a", "b", " a", "c ", "m\u00e9"])
                            for _ in range(draw(st.integers(1, 3))))
    periods = dict.fromkeys(f.label(["1", "2", "t3", " 1", "\u0663"])
                            for _ in range(draw(st.integers(1, 3))))
    truth = {p: f.number() for p in periods}
    cells = list(draw(st.permutations([(m, p) for m in methods for p in periods])))
    if f("cells"):
        del cells[draw(st.integers(0, len(cells) - 1))]
    if cells and f("cells"):
        cells.append(cells[draw(st.integers(0, len(cells) - 1))])
    rows = [f.row(cols, {"method": m, "period": p, "forecast": f.number(),
                         "realization": f.number() if f("conflict") else truth[p]})
            for m, p in cells]
    return f.text([cols, *rows])
