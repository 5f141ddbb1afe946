"""The benchmark's tracer and its own tests against the library.

``benchmark/run.py --trace 1`` installs ``benchmark/tracing.Tracer`` over the
library; a refactor that renames or moves a traced callable breaks that run
or silently drops its metric.  The tracer replaces module attributes and
class methods, so it runs in a subprocess.  ``benchmark/selftest.py`` checks
the benchmark's output checks on the library's real output, so a library
change that breaks them fails here too.
"""

import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = textwrap.dedent("""
    import inspect, json, sys
    import elicitrisk.distributions, elicitrisk.spectral, elicitrisk.risk
    import elicitrisk.elicit, elicitrisk.scoring, elicitrisk.cli
    import tracing
    tracing.Tracer().install()
    unwrapped = []
    for key in tracing.CATEGORIES:
        layer, *path = key.split(".")
        obj = sys.modules["elicitrisk." + layer]
        for name in path:
            obj = inspect.getattr_static(obj, name)
        if getattr(obj, "__func__", obj).__qualname__ != "Tracer.wrap.<locals>.traced":
            unwrapped.append(key)
    print(json.dumps(unwrapped))
""")


def test_the_tracer_wraps_every_callable_it_lists():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "benchmark"), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", INSTALL], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == []


def test_the_benchmark_selftest_passes():
    run = subprocess.run([sys.executable, str(ROOT / "benchmark" / "selftest.py")], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-4000:]
    assert re.search(r"^Ran \d+ tests", run.stderr, re.M) and run.stderr.rstrip().endswith("OK")


def test_the_traced_run_counts_in_every_layer():
    # install() reads every layer from sys.modules, and the run's warm-up pass
    # is what imports them: a layer missing then fails the run, and a traced
    # callable that no operation reaches reads a count of 0
    run = subprocess.run([sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload",
                          "library", "--seed", "1", "--seconds", "1", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-4000:]
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0
    counts = {k: m["value"] for k, m in report["metrics"].items() if m["unit"] == "count"}
    assert counts and all(counts.values()), counts
