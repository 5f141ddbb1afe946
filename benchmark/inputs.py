"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the workload seed: the same seed gives
the same arrays and byte-identical files.  Floats are written with repr(),
so the program reads back exactly the values the checks use.

The malformed-input calls and their two controls use fixed inputs that do
not depend on the seed, so the operations that fail because of a program
fault fail on every run.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

Y_ROWS = 500_000
PANEL_METHODS = 10
PANEL_PERIODS = 50_000

# eval levels on the bulk sample, and the few-atom spectral measure
BULK_VAR = 0.01
BULK_ES = 0.025
BULK_EXPECTILE = 0.1
BULK_MEASURE = {"atoms": [[0.01, 0.2], [0.05, 0.3], [0.25, 0.5]]}
BULK_SCORE_QUANTILE = 0.1
BULK_SCORE_EXPECTILE = 0.1

# Inline laws that today's program mishandles, plus two that it must reject
# and already does.  Each is evaluated with ES at 0.3.
MALFORMED_LAWS = {
    "dirac-infinity": '{"type":"dirac","at":Infinity}',
    "two-point-nan": '{"type":"two_point","x1":NaN,"x2":1,"p":0.5}',
    "atomic-short-entry": '{"type":"atomic","atoms":[[1]]}',
    "atomic-string-weight": '{"type":"atomic","atoms":[[1,"1"]]}',
}
CONTROL_LAW = '{"type":"atomic","atoms":[[NaN,0.5],[1,0.5]]}'

_STREAMS = {"bulk-data": 1, "diagnostics": 2, "full": 3, "probe": 4, "warmup": 5}


def rng_for(stream: str, seed: int) -> np.random.Generator:
    return np.random.default_rng((int(seed), _STREAMS[stream]))


def _fmt_floats(a) -> list[str]:
    return [repr(v) for v in np.asarray(a, dtype=float).tolist()]


def write_y_csv(path: Path, y) -> None:
    path.write_text("y\n" + "\n".join(_fmt_floats(y)) + "\n")


def write_panel_csv(path: Path, methods, forecasts, realizations) -> None:
    """Long-format panel, method-major; periods are labelled 1..P."""
    periods = [str(i) for i in range(1, len(realizations) + 1)]
    ys = _fmt_floats(realizations)
    lines = ["method,period,forecast,realization"]
    for name, row in zip(methods, forecasts):
        lines += [f"{name},{p},{x},{y}" for p, x, y in zip(periods, _fmt_floats(row), ys)]
    path.write_text("\n".join(lines) + "\n")


def make_panel(rng, methods: int, periods: int):
    """Realizations from a Student-t law, forecasts of rising noise per method."""
    y = rng.standard_t(4, periods)
    names = [f"m{k:02d}" for k in range(methods)]
    level = rng.uniform(-1.5, -0.5)
    noise = 0.2 + 0.15 * np.arange(methods)
    forecasts = level + noise[:, None] * rng.standard_normal((methods, periods))
    return names, forecasts, y


def bulk_data(seed: int, workdir: Path, rows: int = Y_ROWS, methods: int = PANEL_METHODS,
              periods: int = PANEL_PERIODS) -> dict:
    """5e5-row heavy-tailed sample and a 10 x 5e4 forecast panel."""
    rng = rng_for("bulk-data", seed)
    y = rng.uniform(-1.0, 1.0) + rng.uniform(0.5, 2.0) * rng.standard_t(3, rows)
    names, forecasts, real = make_panel(rng, methods, periods)
    paths = {"y": workdir / "y.csv", "panel": workdir / "panel.csv"}
    write_y_csv(paths["y"], y)
    write_panel_csv(paths["panel"], names, forecasts, real)
    return {"paths": paths, "y": y, "methods": names, "forecasts": forecasts,
            "realizations": real,
            "figure_C": round(float(rng.uniform(0.2, 0.9)), 3)}


def diagnostics(seed: int, workdir: Path) -> dict:
    """Small inline laws from the seed, plus the fixed malformed-input files."""
    rng = rng_for("diagnostics", seed)
    x1 = round(float(rng.uniform(-3.0, 0.0)), 6)
    two_point = {"type": "two_point", "x1": x1,
                 "x2": round(x1 + float(rng.uniform(0.5, 4.0)), 6),
                 "p": round(float(rng.uniform(0.1, 0.9)), 6)}
    values = np.sort(rng.choice(np.arange(-5000, 5001), size=5, replace=False)) / 1000.0
    counts = 1 + rng.multinomial(15, np.ones(5) / 5)  # 5 positive parts of 20
    atomic = {"type": "atomic",
              "atoms": [[float(v), float(c) / 20.0] for v, c in zip(values, counts)]}
    a = round(float(rng.uniform(-3.0, 0.0)), 6)
    uniform = {"type": "uniform", "a": a, "b": round(a + float(rng.uniform(0.5, 5.0)), 6)}
    paths = {"panel": workdir / "panel.csv", "nan_y": workdir / "nan_y.csv",
             "nan_panel": workdir / "nan_panel.csv"}
    panel = make_panel(rng, 4, 250)
    write_panel_csv(paths["panel"], *panel)
    # fixed, seed-independent malformed inputs
    paths["nan_y"].write_text("y\n1.5\n-0.25\nnan\n2.0\n")
    fixed = np.random.default_rng(0)
    names, forecasts, real = make_panel(fixed, 3, 40)
    forecasts[1, 17] = np.nan
    write_panel_csv(paths["nan_panel"], names, forecasts, real)
    return {"paths": paths, "two_point": two_point, "atomic": atomic, "uniform": uniform,
            "panel": panel,
            "uniform_C": round(float(rng.uniform(0.2, 0.9)), 3),
            "figure_C": (round(float(rng.uniform(0.15, 0.45)), 3),
                         round(float(rng.uniform(0.55, 0.9)), 3))}


# Library sizes.  "full" is the library workload; "probe" is the small
# cross-section the two CLI workloads run in child processes spread over
# each pass; "warmup" is the untimed pass every library child makes first.
# Coherence entries are (trials, chunks): each chunk is one operation, so
# the trials spread over the pass.  The two functionals whose check needs
# at least one violation run as one chunk.
LIBRARY_SIZES = {
    "full": {
        "coherence": {"ES": (200, 4), "ExpectileRisk-0.25": (100, 4),
                      "ExpectileRisk-0.75": (80, 1), "VaR-16": (1500, 1),
                      "SpectralRisk-uc": (200, 4)},
        "spectral": [(10_000, 400), (30_000, 200), (100_000, 100)],
        "argmin_laws": [10_000, 10_000, 10_000], "sublevel_atoms": [1000, 1000],
        "min_nu_laws": 20,
        "csv_rows": 100_000, "panel": (5, 20_000),
    },
    "probe": {
        "coherence": {"ES": (240, 6), "ExpectileRisk-0.25": (72, 6)},
        "spectral": [(20_000, 100)] * 9,
        "argmin_laws": [10_000] * 6, "sublevel_atoms": [300] * 3,
        "min_nu_laws": 6,
        "csv_rows": 0, "panel": None,
    },
    "warmup": {
        "coherence": {"ES": (5, 1), "ExpectileRisk-0.25": (2, 1)},
        "spectral": [(1000, 10)],
        "argmin_laws": [1000], "sublevel_atoms": [100],
        "min_nu_laws": 1,
        "csv_rows": 0, "panel": None,
    },
}


def library(seed: int, profile: str) -> dict:
    """Arrays for the library operations; cheap, so the child rebuilds them."""
    sizes = LIBRARY_SIZES[profile]
    rng = rng_for(profile, seed)
    out = {"coherence_seed": int(rng.integers(0, 2**31)), "spectral": [],
           "argmin": [], "sublevel": [], "min_nu": []}
    for n, k in sizes["spectral"]:
        sample = rng.standard_t(3, n)
        levels = rng.uniform(0.001, 1.0, k)
        out["spectral"].append((sample, levels, rng.dirichlet(np.ones(k))))
    for n in sizes["argmin_laws"]:
        out["argmin"].append((rng.standard_t(3, n), round(float(rng.uniform(0.05, 0.95)), 4)))
    for n in sizes["sublevel_atoms"]:
        out["sublevel"].append((rng.standard_t(3, n), round(float(rng.uniform(0.1, 0.9)), 4)))
    for _ in range(sizes["min_nu_laws"]):
        m = int(rng.integers(2, 11))
        out["min_nu"].append((rng.uniform(-5.0, 5.0, m), rng.dirichlet(np.ones(m)),
                              float(rng.uniform(0.1, 1.0))))
    if sizes["csv_rows"]:
        out["csv_y"] = rng.standard_t(3, sizes["csv_rows"])
        out["panel"] = make_panel(rng, *sizes["panel"])
        out["law"] = {"type": "atomic", "atoms": [
            [float(v), 0.125] for v in np.round(rng.uniform(-4.0, 4.0, 8), 4)]}
        out["figure_C"] = [round(float(c), 3) for c in rng.uniform(0.2, 0.9, 3)]
    return out


def write_library_files(data: dict, workdir: Path) -> dict:
    paths = {"y": workdir / "lib_y.csv", "panel": workdir / "lib_panel.csv"}
    write_y_csv(paths["y"], data["csv_y"])
    write_panel_csv(paths["panel"], *data["panel"])
    return paths


def dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))
