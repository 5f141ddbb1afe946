"""Command-line front end.

Four verbs:

* ``eval``    evaluate a risk functional on data or an inline law
* ``score``   rank forecast methods by realized mean score
* ``elicit``  run the elicitability diagnostics on a functional
* ``figure``  emit integrated spectral function curves as CSV

Exit codes: 0 success (and, for ``elicit``, a consistent verdict), 1 usage or
input error, 2 reserved for ``elicit`` finding an inconsistency or witness.
Every command is deterministic given its flags, input bytes, and seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

import numpy as np

from .distributions import (Distribution, Empirical, FiniteAtomic, Uniform, _check_count,
                            _check_level, _check_open_unit, _check_tol, _json_number, dirac,
                            empirical_from_csv, two_point)
from .spectral import SpectralMeasure, interval_mass, mp_measure, uc_measure

__all__ = ["main"]

_FIGURE_POINTS = 512


def _fmt(x) -> str:
    """12 significant digits, locale independent, no negative zero."""
    s = f"{float(x):.12g}"
    return "0" if s == "-0" else s


def _csv_table(header: str, columns) -> str:
    """The header line, then one line per row of the columns, each value as
    ``_fmt`` prints it, formatted by one ``%`` over the whole table."""
    table = np.column_stack(columns) + 0.0  # -0.0 + 0.0 is 0.0: no negative zero
    row = ",".join(["%.12g"] * table.shape[1]) + "\n"
    return header + "\n" + (row * len(table)) % tuple(table.ravel().tolist())


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is taken by elicit
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _no_negative_zero(obj):
    # -0.0 + 0.0 is 0.0, and every other float stays as it is
    if isinstance(obj, dict):
        return {k: _no_negative_zero(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_no_negative_zero(v) for v in obj]
    return obj + 0.0 if isinstance(obj, float) else obj


def _json_line(obj) -> str:
    """One RFC 8259 JSON line with no negative zero: a NaN or infinity in the
    output is an error."""
    try:
        return json.dumps(_no_negative_zero(obj), sort_keys=True, allow_nan=False)
    except ValueError:
        raise ValueError("the result is not a finite number") from None


def _dist_from_json(text: str) -> Distribution:
    """Inline law schema: {"type": "atomic"|"two_point"|"uniform"|"dirac", ...}."""
    obj = json.loads(text)
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("inline law must be an object with a 'type' key")
    kind = obj["type"]
    keys = set(obj) - {"type"}
    if kind == "atomic":
        if keys != {"atoms"}:
            raise ValueError("atomic law takes exactly the key 'atoms'")
        atoms = obj["atoms"]
        if not isinstance(atoms, list) or not atoms:
            raise ValueError("atomic law needs a nonempty list of [value, weight] atoms")
        for entry in atoms:
            if not isinstance(entry, list) or len(entry) != 2:
                raise ValueError(f"bad atom entry {entry!r}; expected [value, weight]")
        return FiniteAtomic([_json_number(a[0], "atom value") for a in atoms],
                            [_json_number(a[1], "atom weight") for a in atoms])
    if kind == "two_point":
        if keys != {"x1", "x2", "p"}:
            raise ValueError("two_point law takes exactly the keys x1, x2, p")
        return two_point(*(_json_number(obj[k], k) for k in ("x1", "x2", "p")))
    if kind == "uniform":
        if keys != {"a", "b"}:
            raise ValueError("uniform law takes exactly the keys a, b")
        return Uniform(_json_number(obj["a"], "a"), _json_number(obj["b"], "b"))
    if kind == "dirac":
        if keys != {"at"}:
            raise ValueError("dirac law takes exactly the key 'at'")
        return dirac(_json_number(obj["at"], "at"))
    raise ValueError(f"unknown law type {kind!r}")


def _functional_from_args(args):
    from .risk import functional_from_json
    if args.spec is not None:
        if args.type is not None or args.level is not None or args.measure is not None:
            raise ValueError("--spec replaces --type/--level/--measure")
        return functional_from_json(args.spec)
    if args.type is None:
        raise ValueError("a functional is required: --type or --spec")
    # only the flags given, so that the spec's checks name a missing or extra key
    flags = {"type": args.type, "level": args.level, "measure": args.measure}
    return functional_from_json({k: v for k, v in flags.items() if v is not None})


def _add_functional_flags(p: argparse.ArgumentParser):
    p.add_argument("--type", choices=["var", "es", "expectile", "negmean", "spectral"],
                   help="functional family")
    p.add_argument("--level", type=float, help="level for var/es/expectile")
    p.add_argument("--measure", help="spectral measure as inline JSON")
    p.add_argument("--spec", help="full functional spec as inline JSON")


def cmd_eval(args) -> int:
    from .risk import functional_to_json
    if (args.data is None) == (args.dist is None):
        raise ValueError("exactly one of --data and --dist is required")
    if args.data is not None:
        d = empirical_from_csv(args.data)
        n = len(d.samples)
    else:
        d = _dist_from_json(args.dist)
        n = d.n_atoms if isinstance(d, FiniteAtomic) else None
    rf = _functional_from_args(args)
    value = rf.evaluate(d)
    line = _json_line({
        "value": float(_fmt(value)),
        "spec": functional_to_json(rf),
        "n": n,
        # every functional is closed-form arithmetic
        "tolerance": 0.0,
    })
    print(_fmt(value))
    print(line)
    return 0


def cmd_score(args) -> int:
    from .scoring import ExpectileScore, ForecastSeries, QuantileScore, compare
    if (args.quantile is None) == (args.expectile is None):
        raise ValueError("exactly one of --quantile and --expectile is required")
    if args.quantile is not None:
        score = QuantileScore(alpha=args.quantile)
    else:
        score = ExpectileScore(tau=args.expectile)
    series = ForecastSeries.from_csv(args.forecasts)
    ranking = compare(series, score)
    if args.out is not None:
        with open(args.out, "w", newline="") as fh:
            # quotes a label that holds a comma or a quote
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["method", "mean_score", "rank"])
            writer.writerows([r.method, _fmt(r.mean_score), r.rank] for r in ranking)
    width = max(len("method"), *(len(r.method) for r in ranking))
    print(f"{'rank':>4}  {'method':<{width}}  mean_score")
    for r in ranking:
        print(f"{r.rank:>4}  {r.method:<{width}}  {_fmt(r.mean_score)}")
    return 0


# Fixed evaluation suite for the envelope check: atoms, a sample, a density,
# and a point mass.
def _elicit_test_set():
    return [
        two_point(0.0, 1.0, 0.3),
        two_point(-2.0, 3.0, 0.6),
        Empirical([-1.5, -0.5, 0.0, 2.0, 4.0]),
        Uniform(-1.0, 2.0),
        dirac(1.5),
    ]


def cmd_elicit(args) -> int:
    from .elicit import (bound_check, convex_level_set_test, diagnostic_report, identify_C,
                         spectral_bounds_check)
    rf = _functional_from_args(args)
    _check_count(args.grid_size, "--grid-size", 5)
    _check_tol(args.tol, "--tol")
    _check_count(args.budget, "--budget", 1)
    _check_count(args.seed, "--seed", 0)
    grid = tuple(np.linspace(0.05, 0.95, args.grid_size))
    ident = identify_C(rf, grid=grid)
    bounds = None
    spectral_reports = []
    if ident.consistent:
        bounds = bound_check(rf, ident.c_hat, _elicit_test_set(), tol=args.tol)
        for m in getattr(rf, "measures", ()):
            spectral_reports.append(spectral_bounds_check(m, ident.c_hat, grid=grid))
    witness = convex_level_set_test(rf, search_budget=args.budget, seed=args.seed,
                                    tol=args.tol, grid=grid)
    report = diagnostic_report(ident, witness=witness, bound_report=bounds,
                               spectral_reports=spectral_reports,
                               search_budget=args.budget)
    print(_json_line(report))
    return 0 if report["verdict"] == "consistent" else 2


def cmd_figure(args) -> int:
    C = _check_level(args.C, "--C")
    try:
        qs = [float(tok) for tok in args.p_list.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"could not parse --p-list {args.p_list!r}") from None
    if not qs:
        raise ValueError("--p-list needs comma-separated values in (0, 1)")
    measures = [uc_measure(C), SpectralMeasure(atoms=[(C, 1.0)])]
    measures += [mp_measure(_check_open_unit(q, "--p-list value"), C) for q in qs]
    levels = list(dict.fromkeys(qs))
    if len(levels) > _FIGURE_POINTS:
        raise ValueError(f"--p-list has {len(levels)} distinct levels, more than the "
                         f"{_FIGURE_POINTS} rows")
    grid = np.linspace(0.0, 1.0, _FIGURE_POINTS)
    # each distinct level replaces its nearest grid point not yet taken, so the
    # rows show every two-atom curve touching the lower envelope exactly
    taken = np.zeros(_FIGURE_POINTS, dtype=bool)
    for q in levels:
        i = int(np.argmin(np.where(taken, np.inf, np.abs(grid - q))))
        grid[i], taken[i] = q, True
    grid.sort()
    columns = [grid] + [interval_mass(m, grid, 1.0) for m in measures]
    text = _csv_table("p,uc_integrated,es_integrated," + ",".join(f"mq_{q:g}" for q in qs),
                      columns)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    return 0


@functools.cache  # parse_args makes a fresh namespace per call, so one parser serves every main
def _build_parser() -> _Parser:
    parser = _Parser(prog="elicitrisk",
                     description="Coherent risk measures and elicitability diagnostics.")
    parser.add_argument("--threads", type=int, default=1,
                        help="bound on internal parallelism (current code paths "
                             "are single-threaded)")
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser)

    p_eval = sub.add_parser("eval", help="evaluate a functional on data")
    _add_functional_flags(p_eval)
    p_eval.add_argument("--data", help="CSV file with a 'y' column")
    p_eval.add_argument("--dist", help="inline law JSON")
    p_eval.set_defaults(func=cmd_eval)

    p_score = sub.add_parser("score", help="rank forecast methods")
    p_score.add_argument("forecasts", help="CSV with method,period,forecast,realization")
    p_score.add_argument("--quantile", type=float, help="quantile level alpha")
    p_score.add_argument("--expectile", type=float, help="expectile level tau")
    p_score.add_argument("--out", help="also write the ranking as CSV here")
    p_score.set_defaults(func=cmd_score)

    p_elicit = sub.add_parser("elicit", help="elicitability diagnostics")
    _add_functional_flags(p_elicit)
    p_elicit.add_argument("--budget", type=int, default=10000,
                          help="most candidates the mixture witness hunt tries")
    p_elicit.add_argument("--seed", type=int, default=0,
                          help="seed of the order in which the hunt tries its candidates")
    p_elicit.add_argument("--grid-size", type=int, default=19,
                          help="points in the identification grid on [0.05, 0.95]")
    p_elicit.add_argument("--tol", type=float, default=1e-9,
                          help="numeric tolerance for witnesses and margins")
    p_elicit.set_defaults(func=cmd_elicit)

    p_fig = sub.add_parser("figure", help="integrated spectral function curves")
    p_fig.add_argument("--C", required=True, help="bound parameter in (0, 1]")
    p_fig.add_argument("--p-list", default="0.3,0.8", dest="p_list",
                       help="comma-separated levels for the two-atom measures")
    p_fig.add_argument("--out", default="-", help="output CSV path, - for stdout")
    p_fig.set_defaults(func=cmd_figure)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    try:
        return args.func(args)
    except (ValueError, NotImplementedError, ArithmeticError, OSError, MemoryError,
            json.JSONDecodeError, csv.Error) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
