"""Library operations: the public API called in one process after import.

Run as a child process:

    python3 benchmark/libpass.py ROOT WORKDIR PROFILE SEED SECONDS PASSES

It imports elicitrisk from ROOT/src, makes one small untimed warm-up pass
(the first BLAS call in a process is slow), then makes timed passes over
the operations of PROFILE until SECONDS have been measured and at least
PASSES passes made.  It prints one JSON line with each operation's fastest
time over the passes (see best_of).  The traced run imports this module
and calls build_ops and run_ops in its own process.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs

TABULATED_KNOTS = [(-6.0, 18.0), (-2.0, 2.0), (0.0, 0.0), (1.0, 0.5), (3.0, 4.5), (6.0, 18.0)]
FIGURE_LEVELS = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85)
UC_SPEC = {"type": "spectral", "measure": checks.uc(0.5)}
UC_ARGV = ["--type", "spectral", "--measure", inputs.dump(checks.uc(0.5))]


@dataclass
class Op:
    """One operation: `run` is timed, `check` judges its result afterwards."""

    family: str      # metric family: coherence, spectral, argmin, min_nu or a CLI verb
    units: int       # trials, evaluations or solves the operation performs
    run: Callable
    check: Callable
    malformed: bool = False
    argv: list | None = None  # set for CLI verbs, which the CLI workloads run as processes


def call_cli(argv) -> tuple[int, str, str]:
    """elicitrisk.cli.main in this process, with the exit status a process would give."""
    import elicitrisk.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = elicitrisk.cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def cli_op(verb: str, argv, check, malformed: bool = False) -> Op:
    argv = [verb, *argv]
    return Op(verb, 1, lambda: call_cli(argv), lambda r: check(*r), malformed, argv)


def _coherence_cases():
    import elicitrisk as er
    # name -> (functional, kind, level, max_states, violation expected)
    return {
        "ES": (er.ES(0.3), "es", 0.3, 8, False),
        "ExpectileRisk-0.25": (er.ExpectileRisk(0.25), "expectile", 0.25, 8, False),
        "ExpectileRisk-0.75": (er.ExpectileRisk(0.75), "expectile", 0.75, 8, True),
        "VaR-16": (er.VaR(0.1), "var", 0.1, 16, True),
        "SpectralRisk-uc": (er.SpectralRisk(er.uc_measure(0.5)), "spectral", None, 8, False),
    }


def spread(groups) -> list[Op]:
    """Interleave groups so each one's operations spread evenly over the pass.

    Machine speed drifts over seconds; spreading keeps every metric from
    being measured in one short window.
    """
    placed = [((j + 0.5) / len(g), k, op) for k, g in enumerate(groups) for j, op in enumerate(g)]
    return [op for _, _, op in sorted(placed, key=lambda t: t[:2])]


def build_ops(data: dict, profile: str, paths: dict | None = None) -> list[Op]:
    import elicitrisk as er
    cases = _coherence_cases()
    coherence = []
    for i, (name, (trials, chunks)) in enumerate(
            inputs.LIBRARY_SIZES[profile]["coherence"].items()):
        rf, kind, level, states, expect = cases[name]
        per = trials // chunks
        for c in range(chunks):
            def run(rf=rf, seed=data["coherence_seed"] + 1000 * i + c, states=states, per=per):
                return er.coherence_check(rf, trials=per, seed=seed, max_states=states)

            def check(rep, kind=kind, level=level, expect=expect, per=per):
                if rep.checks.get("subadditivity") != per:
                    return "not every trial was checked"
                return checks.coherence(kind, level, [
                    (v.axiom, v.states_x, v.states_y, v.lhs, v.rhs) for v in rep.violations],
                    expect)
            coherence.append(Op("coherence", per, run, check))

    spectral = []
    for sample, levels, weights in data["spectral"]:
        def run(sample=sample, levels=levels, weights=weights):
            d = er.Empirical(sample)
            m = er.SpectralMeasure(atoms=zip(levels.tolist(), weights.tolist()))
            return er.nu(m, d), er.nu_via_U(m, d), er.SpectralRisk(m).evaluate(d)
        s = np.sort(sample)
        spectral.append(Op("spectral", 3, run, lambda r, s=s, lv=levels, w=weights:
                           checks.spectral_values(s, lv, w, *r)))

    def argmin_op(score, sample, ref):
        return Op("argmin", 1, lambda: er.argmin_expected_score(score, er.Empirical(sample)),
                  lambda iv: checks.argmin_contains(iv.lo, iv.hi, ref))

    argmin = []
    for sample, level in data["argmin"]:
        s = np.sort(sample)
        argmin += [argmin_op(er.QuantileScore(level), sample, checks.sample_quantile(s, level)),
                   argmin_op(er.ExpectileScore(level), sample, checks.sample_expectile(s, level))]
    generator = er.TabulatedGenerator(TABULATED_KNOTS)
    for sample, level in data["sublevel"]:  # the sublevel path, 4097 x n matrices
        argmin.append(argmin_op(er.ExpectileScore(level, generator=generator), sample,
                                checks.sample_expectile(np.sort(sample), level)))

    min_nu = []
    for x, w, C in data["min_nu"]:
        xs, ws = checks.law(np.column_stack((x, w)))
        min_nu.append(Op("min_nu", 1,
                         lambda x=x, w=w, C=C: er.min_nu_over_mp(er.FiniteAtomic(x, w), C),
                         lambda r, xs=xs, ws=ws, C=C: checks.min_nu(r[1], xs, ws, C)))

    groups = [coherence, spectral, argmin, min_nu]
    if paths is not None:
        groups += verb_ops(data, paths)
    return spread(groups)


def verb_ops(data: dict, paths: dict) -> list[list[Op]]:
    """The four verbs on small inputs, called in this process, one group per verb."""
    y = np.sort(data["csv_y"])
    names, forecasts, real = data["panel"]
    means = dict(zip(names, checks.quantile_score_means(forecasts, real, 0.25)))
    lx, lw = checks.law(data["law"]["atoms"])
    ops = [
        cli_op("eval", ["--type", "expectile", "--level", "0.3",
                        "--dist", inputs.dump(data["law"])],
               lambda *r: checks.eval_value(*r, -checks.expectile(lx, lw, 0.3), len(set(lx)))),
        cli_op("eval", ["--type", "es", "--level", "0.05", "--data", str(paths["y"])],
               lambda *r: checks.eval_value(*r, -checks.sample_lower_tail_mean(y, 0.05), len(y))),
        cli_op("score", [str(paths["panel"]), "--quantile", "0.25"],
               lambda *r: checks.score_table(*r, means)),
        cli_op("elicit", UC_ARGV,
               lambda *r: checks.elicit_report(*r, UC_SPEC, 2, c_hat=0.5, witnesses=True)),
        cli_op("elicit", ["--type", "negmean"],
               lambda *r: checks.elicit_report(*r, {"type": "negmean"}, 0, c_hat=1.0)),
    ]
    for C in data["figure_C"]:
        ops.append(cli_op("figure", ["--C", str(C), "--p-list", ",".join(map(str, FIGURE_LEVELS))],
                          lambda *r, C=C: checks.figure_rows(*r, C, FIGURE_LEVELS)))
    return [[op for op in ops if op.family == v] for v in ("eval", "score", "elicit", "figure")]


def run_ops(ops: list[Op], tracer=None) -> list[tuple[Op, float, str | None]]:
    """Run every operation, timing only `run`; check afterwards."""
    timed = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            result, raised = op.run(), None
        except Exception as exc:  # a program fault is reported, not fatal
            result, raised = None, f"raised {type(exc).__name__}: {exc}"
        timed.append((op, time.perf_counter() - t0, result, raised))
    return [(op, dt, raised or op.check(result)) for op, dt, result, raised in timed]


def summarize(results) -> dict:
    """Per-pass figures: summed time and units per family, failures."""
    fam: dict = {}
    for op, dt, _ in results:
        units, secs = fam.get(op.family, (0, 0.0))
        fam[op.family] = (units + op.units, secs + dt)
    return {
        "wall_s": sum(dt for _, dt, _ in results),
        "families": fam,
        "attempted": len(results),
        "failed": sum(why is not None for _, _, why in results),
        "errors": [f"{op.family}: {why}" for op, _, why in results
                   if why is not None and not op.malformed],
    }


def best_of(passes: list[list]) -> dict:
    """Each operation's fastest time over passes of the same operations.

    The machine's speed changes from second to second with the load of other
    tenants, and a process's first touch of large arrays can stall; an
    operation's fastest repeat is the figure that either moves least.
    `ops` holds (family, units, fastest time) per operation; attempted and
    failed count every pass.
    """
    each = [summarize(p) for p in passes]
    return {"ops": fastest([[(op.family, op.units, dt) for op, dt, _ in p] for p in passes]),
            "attempted": sum(e["attempted"] for e in each),
            "failed": sum(e["failed"] for e in each),
            "errors": sorted({msg for e in each for msg in e["errors"]})}


def fastest(runs: list[list]) -> list:
    """Per operation, the fastest entry of several `ops` lists of the same
    operations."""
    return [min(col, key=lambda o: o[2]) for col in zip(*runs)]


def families(ops) -> dict:
    """(units, seconds) per family from best_of's `ops`."""
    fam: dict = {}
    for family, units, dt in ops:
        u, t = fam.get(family, (0, 0.0))
        fam[family] = (u + units, t + dt)
    return fam


def main(argv) -> int:
    root, workdir, profile, seed, seconds, min_passes = argv
    sys.path.insert(0, str(Path(root) / "src"))
    import elicitrisk  # noqa: F401  (import happens before timing)
    seed, seconds = int(seed), float(seconds)
    run_ops(build_ops(inputs.library(seed, "warmup"), "warmup"))  # untimed
    data = inputs.library(seed, profile)
    paths = None
    if profile == "full":
        paths = {"y": Path(workdir) / "lib_y.csv", "panel": Path(workdir) / "lib_panel.csv"}
    ops = build_ops(data, profile, paths)
    passes = []
    while (len(passes) < int(min_passes)
           or sum(dt for p in passes for _, dt, _ in p) < seconds):
        passes.append(run_ops(ops))
    print(json.dumps(best_of(passes)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
