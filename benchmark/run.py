"""Benchmark for elicitrisk: one workload, one seed, timed or traced.

    python3 benchmark/run.py --workload bulk-data --seed 1 --seconds 25 --trace 0

Workloads (see README.md): bulk-data, diagnostics, library.  Inputs are
generated from the seed into a temporary directory under .bench_work/
before any timing starts.  The program is run from this checkout's src/.

--trace 0 measures the end-to-end metrics: whole passes over the
workload's operations for about --seconds, one operation at a time; an
operation that runs more than once counts with its fastest run, and each
metric is the median over passes.  --trace 1 runs the same
operations in this process: an untimed warm-up pass, an untraced pass and a
pass with spans around the public functions of each module; it reports the
per-layer metrics and the tracing overhead, traced minus untraced wall time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread, here and in every child (they inherit the environment):
# the machine's two cores are shared with other load, and a second thread
# made operations slower and their times less steady (see README.md).
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import libpass  # noqa: E402
import tracing  # noqa: E402
from libpass import cli_op  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bulk-data", "diagnostics", "library")
VERBS = ("eval", "score", "elicit", "figure")
RATES = {"coherence_trials_per_s": "coherence", "spectral_evals_per_s": "spectral",
         "argmin_solves_per_s": "argmin"}
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              *((f"{v}_s", "s") for v in VERBS), *((r, "1/s") for r in RATES)]
SETUP_REPEATS = 6
PROBE_CHILDREN = 3   # per CLI pass, each times the whole probe once
LIBRARY_CHILDREN = 3  # on library, one after another, each for a share of --seconds
LIBRARY_PASSES = 2    # each library child's least number of passes
IMPORT_PROBE = ("import time; t = time.perf_counter(); import elicitrisk; "
                "print(time.perf_counter() - t)")


# ------------------------------------------------------------------ workloads

def bulk_ops(inp: dict) -> list:
    y = np.sort(inp["y"])
    n = len(y)
    data, panel = str(inp["paths"]["y"]), str(inp["paths"]["panel"])
    spectral = math.fsum(-w * checks.sample_lower_tail_mean(y, a)
                         for a, w in inputs.BULK_MEASURE["atoms"])
    forecasts, real = inp["forecasts"], inp["realizations"]
    q_means = dict(zip(inp["methods"], checks.quantile_score_means(
        forecasts, real, inputs.BULK_SCORE_QUANTILE)))
    e_means = dict(zip(inp["methods"], checks.expectile_score_means(
        forecasts, real, inputs.BULK_SCORE_EXPECTILE)))
    var = -checks.sample_quantile(y, inputs.BULK_VAR)
    es = -checks.sample_lower_tail_mean(y, inputs.BULK_ES)
    evals = [
        cli_op("eval", ["--type", "var", "--level", str(inputs.BULK_VAR), "--data", data],
               lambda *r: checks.eval_value(*r, var, n)),
        cli_op("eval", ["--type", "es", "--level", str(inputs.BULK_ES), "--data", data],
               lambda *r: checks.eval_value(*r, es, n)),
        cli_op("eval", ["--type", "expectile", "--level", str(inputs.BULK_EXPECTILE),
                        "--data", data],
               lambda *r: checks.eval_expectile(*r, y, inputs.BULK_EXPECTILE)),
        cli_op("eval", ["--type", "spectral", "--measure", inputs.dump(inputs.BULK_MEASURE),
                        "--data", data],
               lambda *r: checks.eval_value(*r, spectral, n)),
    ]
    scores = [
        cli_op("score", [panel, "--quantile", str(inputs.BULK_SCORE_QUANTILE)],
               lambda *r: checks.score_table(*r, q_means)),
        cli_op("score", [panel, "--expectile", str(inputs.BULK_SCORE_EXPECTILE)],
               lambda *r: checks.score_table(*r, e_means)),
    ]
    # small elicit and figure calls, so that this workload reports every verb
    elicit = cli_op("elicit", libpass.UC_ARGV, lambda *r: checks.elicit_report(
        *r, libpass.UC_SPEC, 2, c_hat=0.5, witnesses=True))
    C = inp["figure_C"]
    figure = cli_op("figure", ["--C", str(C)], lambda *r: checks.figure_rows(*r, C))
    return [evals * 2, scores * 2, [elicit] * 3, [figure] * 3]


def _elicit(argv, spec, rc, **expect):
    return cli_op("elicit", argv, lambda *r: checks.elicit_report(*r, spec, rc, **expect))


def diagnostics_ops(inp: dict) -> list:
    inf_family = {"type": "inf_family",
                  "measures": [{"atoms": [[0.3, 1.0]]}, {"atoms": [[1.0, 1.0]]}]}
    small = [
        _elicit(["--type", "es", "--level", "0.5"], {"type": "es", "level": 0.5}, 2,
                witnesses=True),
        _elicit(["--type", "var", "--level", "0.3"], {"type": "var", "level": 0.3}, 2,
                degenerate=True),
        _elicit(["--type", "negmean"], {"type": "negmean"}, 0, c_hat=1.0),
        _elicit(libpass.UC_ARGV, libpass.UC_SPEC, 2, c_hat=0.5, witnesses=True),
        _elicit(["--spec", inputs.dump(inf_family)], inf_family, 2,
                witnesses=True, degenerate=True),
    ]
    # the two expectile hunts take most of the time: they run once a pass,
    # half a pass apart; every other call runs twice, the clean score calls
    # three times
    elicits = [
        _elicit(["--type", "expectile", "--level", "0.1", "--grid-size", "37"],
                {"type": "expectile", "level": 0.1}, 0, c_hat=1.0 / 9.0),
        *small,
        _elicit(["--type", "expectile", "--level", "0.25"],
                {"type": "expectile", "level": 0.25}, 0, c_hat=1.0 / 3.0),
        *small,
    ]
    figures = [cli_op("figure", ["--C", str(C)], lambda *r, C=C: checks.figure_rows(*r, C))
               for C in inp["figure_C"]]
    tp, at, un = inp["two_point"], inp["atomic"], inp["uniform"]
    tx, tw = checks.law([[tp["x1"], tp["p"]], [tp["x2"], 1.0 - tp["p"]]])
    ax, aw = checks.law(at["atoms"])
    Cu = inp["uniform_C"]
    refs = (checks.risk({"type": "es", "level": 0.3}, tx, tw),
            -checks.expectile(ax, aw, 0.3),
            checks.uniform_uc_value(un["a"], un["b"], Cu))
    evals = [
        cli_op("eval", ["--type", "es", "--level", "0.3", "--dist", inputs.dump(tp)],
               lambda *r: checks.eval_value(*r, refs[0], 2)),
        cli_op("eval", ["--type", "expectile", "--level", "0.3", "--dist", inputs.dump(at)],
               lambda *r: checks.eval_value(*r, refs[1], len(ax))),
        cli_op("eval", ["--type", "spectral", "--measure", inputs.dump(checks.uc(Cu)),
                        "--dist", inputs.dump(un)],
               lambda *r: checks.eval_value(*r, refs[2], None)),
    ]
    names, forecasts, real = inp["panel"]
    panel = str(inp["paths"]["panel"])
    q_means = dict(zip(names, checks.quantile_score_means(forecasts, real, 0.2)))
    e_means = dict(zip(names, checks.expectile_score_means(forecasts, real, 0.6)))
    scores = [
        cli_op("score", [panel, "--quantile", "0.2"], lambda *r: checks.score_table(*r, q_means)),
        cli_op("score", [panel, "--expectile", "0.6"], lambda *r: checks.score_table(*r, e_means)),
    ]
    es = ["--type", "es", "--level", "0.3"]
    malformed = [cli_op("eval", [*es, "--dist", law], checks.error_contract, malformed=True)
                 for law in inputs.MALFORMED_LAWS.values()]
    malformed += [
        cli_op("score", [str(inp["paths"]["nan_panel"]), "--quantile", "0.5"],
               checks.error_contract, malformed=True),
        # controls: malformed inputs that the program already rejects
        cli_op("eval", [*es, "--dist", inputs.CONTROL_LAW], checks.error_contract, malformed=True),
        cli_op("eval", [*es, "--data", str(inp["paths"]["nan_y"])], checks.error_contract,
               malformed=True),
    ]
    return [elicits, figures * 2, evals * 2, scores * 3, malformed * 2]


def make_workload(workload: str, seed: int, work: Path):
    """Generate inputs; return (CLI operations, library data, library profile, file paths)."""
    if workload == "library":
        data = inputs.library(seed, "full")
        return [], data, "full", inputs.write_library_files(data, work)
    inp = (inputs.bulk_data if workload == "bulk-data" else inputs.diagnostics)(seed, work)
    groups = bulk_ops(inp) if workload == "bulk-data" else diagnostics_ops(inp)
    return libpass.spread(groups), inputs.library(seed, "probe"), "probe", None


# ------------------------------------------------------------------ processes

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_process(cmd, env, work: Path):
    """Run one child to completion; return (rc, stdout, stderr, wall s, peak RSS MB)."""
    with tempfile.TemporaryFile(dir=work) as fo, tempfile.TemporaryFile(dir=work) as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        fo.seek(0)
        fe.seek(0)
        return (proc.returncode, fo.read().decode(), fe.read().decode(), wall,
                usage.ru_maxrss / 1024.0)


def library_child(profile, seed, seconds, passes, env, work):
    """Run libpass.py in a child; return (its best_of figures, peak RSS MB,
    failure or None)."""
    rc, out, err, _, rss = run_process(
        [sys.executable, str(HERE / "libpass.py"), str(ROOT), str(work), profile,
         str(seed), str(seconds), str(passes)], env, work)
    if rc != 0:
        return None, rss, f"library child exited {rc}: {err.strip()[-300:]}"
    return json.loads(out.strip().splitlines()[-1]), rss, None


def rates(families: dict) -> dict:
    return {m: families[f][0] / families[f][1] for m, f in RATES.items()}


def cli_pass(ops, seed, env, work) -> dict:
    """Every CLI operation as a fresh process, with PROBE_CHILDREN library
    probe children spread over the pass.  An operation listed more than once
    in the pass, and each probe operation, counts with its fastest time."""
    schedule = libpass.spread([ops, list(range(PROBE_CHILDREN))])
    outputs, best, peak, probes = [], {}, 0.0, []
    attempted, n_failed, errors = len(ops), 0, []
    t0 = time.perf_counter()
    for item in schedule:
        if isinstance(item, int):
            probe, rss, error = library_child("probe", seed, 0, 1, env, work)
            peak = max(peak, rss)
            if error:
                errors.append(error)
                continue
            probes.append(probe["ops"])
            attempted += probe["attempted"]
            n_failed += probe["failed"]
            errors += probe["errors"]
            continue
        rc, out, err, wall, rss = run_process(
            [sys.executable, "-m", "elicitrisk", *item.argv], env, work)
        outputs.append((item, (rc, out, err)))
        if id(item) not in best or wall < best[id(item)][1]:
            best[id(item)] = (item, wall)
        peak = max(peak, rss)
    wall = time.perf_counter() - t0
    verb_s = dict.fromkeys(VERBS, 0.0)
    for op, op_wall in best.values():
        verb_s[op.family] += op_wall
    for op, result in outputs:
        why = op.check(result)
        if why is not None:
            n_failed += 1
            if not op.malformed:
                errors.append(f"{' '.join(op.argv)[:120]}: {why}")
    metrics = {"wall_s": wall, "peak_rss_mb": peak, **{f"{v}_s": s for v, s in verb_s.items()}}
    if not errors:
        metrics.update(rates(libpass.families(libpass.fastest(probes))))
    return {"metrics": metrics, "attempted": attempted, "failed": n_failed, "errors": errors}


def setup_times(env, work, repeats: int) -> list[float]:
    """Fresh interpreters that only import elicitrisk."""
    times = []
    for _ in range(repeats):
        rc, _, err, wall, _ = run_process([sys.executable, "-c", "import elicitrisk"], env, work)
        if rc != 0:
            raise RuntimeError(f"import elicitrisk failed: {err.strip()[-300:]}")
        times.append(wall)
    return times


def timed(workload: str, seed: int, seconds: float, work: Path):
    env = child_env()
    ops, _, profile, _ = make_workload(workload, seed, work)
    # one untimed import writes the bytecode cache; half the timed imports
    # come before the passes and half after, so they sample the whole run
    setup = setup_times(env, work, 1 + SETUP_REPEATS // 2)[1:]
    passes = []
    if workload == "library":
        # a process can stay slow for its whole life, so the time is shared
        # among children and each operation counts with its fastest run in any
        children, peak = [], 0.0
        for _ in range(LIBRARY_CHILDREN):
            best, rss, error = library_child(profile, seed, seconds / LIBRARY_CHILDREN,
                                             LIBRARY_PASSES, env, work)
            if error:
                raise RuntimeError(error)
            children.append(best)
            peak = max(peak, rss)
        ops_best = libpass.fastest([c["ops"] for c in children])
        fam = libpass.families(ops_best)
        passes.append({
            "metrics": {"wall_s": sum(dt for *_, dt in ops_best), "peak_rss_mb": peak,
                        **rates(fam), **{f"{v}_s": fam[v][1] for v in VERBS}},
            "attempted": sum(c["attempted"] for c in children),
            "failed": sum(c["failed"] for c in children),
            "errors": [e for c in children for e in c["errors"]]})
    else:
        # whole passes, another only if it should end within `seconds`
        t0 = time.perf_counter()
        while not passes or (time.perf_counter() - t0
                             + passes[-1]["metrics"]["wall_s"] <= seconds):
            passes.append(cli_pass(ops, seed, env, work))
    setup = statistics.median(setup + setup_times(env, work, SETUP_REPEATS - SETUP_REPEATS // 2))
    metrics = {name: statistics.median(p["metrics"].get(name, 0.0) for p in passes)
               for name, _ in END_TO_END if name != "setup_s"}
    metrics["setup_s"] = setup
    report = {name: (metrics[name], unit) for name, unit in END_TO_END}
    return report, passes


def traced(workload: str, seed: int, work: Path):
    env = child_env()
    ops, probe_data, profile, paths = make_workload(workload, seed, work)
    import_s = statistics.median(
        float(run_process([sys.executable, "-c", IMPORT_PROBE], env, work)[1])
        for _ in range(3))
    sys.path.insert(0, str(ROOT / "src"))
    import elicitrisk  # noqa: F401
    ops = ops + libpass.build_ops(probe_data, profile, paths)
    libpass.run_ops(ops)  # untimed warm-up pass: file cache, first large allocations
    plain = libpass.run_ops(ops)
    tracer = tracing.Tracer()
    tracer.install()
    traced_results = libpass.run_ops(ops, tracer)
    spans_path = ROOT / ".bench_out" / f"trace-{workload}-seed{seed}.csv.gz"
    spans_path.parent.mkdir(exist_ok=True)
    n = tracer.write(spans_path)
    print(f"{n} spans written to {spans_path.relative_to(ROOT)}", file=sys.stderr)
    values = tracer.metrics()
    wall_plain = sum(dt for _, dt, _ in plain)
    values["trace.wall_s"] = sum(dt for _, dt, _ in traced_results)
    values["trace.overhead_s"] = values["trace.wall_s"] - wall_plain
    values["cli.import_s"] = import_s
    report = {name: (values[name], unit) for name, unit, *_ in tracing.PER_LAYER}
    return report, [libpass.summarize(results) for results in (plain, traced_results)]


# ----------------------------------------------------------------------- main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "elicitrisk" / "__init__.py").is_file():
        print(f"error: no elicitrisk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        if args.trace:
            report, passes = traced(args.workload, args.seed, work)
        else:
            report, passes = timed(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    errors = [e for p in passes for e in p["errors"]]
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"attempted={attempted} failed={failed}")
    for name, (value, unit) in report.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
