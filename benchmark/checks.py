"""Output checks against computations made apart from the program.

Nothing here imports elicitrisk.  Laws are (values, weights) arrays; every
functional is recomputed from its definition with numpy, math.fsum or
extended-precision prefix sums.  Each check returns None when the output
passes and a one-line reason when it does not.
"""

from __future__ import annotations

import json
import math

import numpy as np

EVAL_REL = 1e-9       # printed values carry 12 significant digits
WITNESS_TOL = 1e-9    # the program's default witness tolerance
C_HAT_TOL = 1e-8
FIGURE_TOL = 1e-10
ARGMIN_SLACK = 1e-6


def _close(got, want, rel=EVAL_REL) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


def strict_json(text: str):
    """json.loads that rejects NaN and Infinity, which RFC 8259 does not allow."""
    def bad(tok):
        raise ValueError(f"non-finite number {tok} in JSON")
    return json.loads(text, parse_constant=bad)


# ---------------------------------------------------------------- references

def law(atoms) -> tuple[np.ndarray, np.ndarray]:
    """Sorted (values, weights) from [[x, w], ...] pairs; duplicates are kept."""
    a = np.asarray(atoms, dtype=float).reshape(-1, 2)
    order = np.argsort(a[:, 0], kind="stable")
    return a[order, 0], a[order, 1]


def mixture(atoms0, atoms1, w: float):
    x0, w0 = law(atoms0)
    x1, w1 = law(atoms1)
    return law(np.column_stack((np.concatenate((x0, x1)),
                                np.concatenate((w * w0, (1.0 - w) * w1)))))


def _ladder(w) -> np.ndarray:
    cum = np.cumsum(w)
    cum[-1] = 1.0
    return cum


def quantile(x, w, v: float) -> float:
    """inf{x : F(x) >= v} on sorted atoms."""
    return float(x[min(int(np.searchsorted(_ladder(w), v, side="left")), len(x) - 1)])


def sample_quantile(s, v: float) -> float:
    """Quantile of an equal-weight sorted sample whose ladder is k/n."""
    n = len(s)
    k = max(1, math.ceil(v * n) - 1)
    while k / n < v:
        k += 1
    while k > 1 and (k - 1) / n >= v:
        k -= 1
    return float(s[k - 1])


def lower_tail_mean(x, w, alpha: float) -> float:
    """U_alpha = (1/alpha) * integral of the quantile over (0, alpha]."""
    cum = _ladder(w)
    prev = np.concatenate(([0.0], cum[:-1]))
    seg = np.minimum(cum, alpha) - np.minimum(prev, alpha)
    return math.fsum((x * seg).tolist()) / alpha


def sample_lower_tail_mean(s, alpha: float) -> float:
    """U_alpha of a sorted sample: whole atoms below alpha*n plus the fractional one."""
    n = len(s)
    m = min(int(math.floor(alpha * n)), n - 1)
    return (math.fsum(s[:m].tolist()) + (alpha * n - m) * float(s[m])) / (alpha * n)


def expectile(x, w, tau: float) -> float:
    """Exact root of tau*E(Y-mu)^+ = (1-tau)*E(mu-Y)^+ for sorted atoms.

    psi is piecewise linear between atoms; prefix sums in extended precision
    locate the bracketing pair of atoms, then the linear piece is solved.
    """
    x = np.asarray(x, dtype=float)
    if x[0] == x[-1]:
        return float(x[0])
    W = np.cumsum(np.asarray(w, dtype=np.longdouble))
    M = np.cumsum(np.asarray(w, dtype=np.longdouble) * x)
    W_tot, M_tot = W[-1], M[-1]
    xl = x.astype(np.longdouble)
    psi = tau * ((M_tot - M) - xl * (W_tot - W)) - (1 - tau) * (xl * W - M)
    j = int(np.nonzero(psi >= 0)[0][-1])
    num = tau * (M_tot - M[j]) + (1 - tau) * M[j]
    den = tau * (W_tot - W[j]) + (1 - tau) * W[j]
    return float(num / den)


def sample_expectile(s, tau: float) -> float:
    return expectile(s, np.full(len(s), 1.0 / len(s)), tau)


def expectile_sign_change(s, tau: float, mu: float, delta: float) -> bool:
    """psi(mu - delta) > 0 > psi(mu + delta) on an equal-weight sample, with fsum."""
    def psi(m):
        up = math.fsum(np.maximum(s - m, 0.0).tolist())
        down = math.fsum(np.maximum(m - s, 0.0).tolist())
        return tau * up - (1.0 - tau) * down
    return psi(mu - delta) > 0.0 > psi(mu + delta)


def integrated_spectral(measure: dict, p):
    """G(p) = integral of the spectral function over (p, 1], atoms plus uc density."""
    p = np.asarray(p, dtype=float)
    g = np.zeros_like(p)
    for a, wt in measure.get("atoms", []):
        g = g + wt * np.maximum(a - p, 0.0) / a
    dens = measure.get("density")
    if dens is not None:
        C = float(dens["C"])
        g = g + C * (1.0 - p) / (C * (1.0 - p) + p) - C * (1.0 - p)
    return g


def uc(C: float) -> dict:
    return {"atoms": [[1.0, C]], "density": {"type": "uc", "C": C}}


def nu_atomic(measure: dict, x, w) -> float:
    """Spectral functional of an atomic law: sum of x_i * (G(c_{i-1}) - G(c_i))."""
    cum = _ladder(w)
    prev = np.concatenate(([0.0], cum[:-1]))
    terms = x * (integrated_spectral(measure, prev) - integrated_spectral(measure, cum))
    return math.fsum(terms.tolist()) + measure.get("atom0", 0.0) * float(x[0])


def risk(spec: dict, x, w) -> float:
    """The program's sign convention: capital requirement of the payoff law."""
    kind = spec["type"]
    if kind == "var":
        return -quantile(x, w, spec["level"])
    if kind == "es":
        return -lower_tail_mean(x, w, spec["level"])
    if kind == "expectile":
        return -expectile(x, w, spec["level"])
    if kind == "negmean":
        return -math.fsum((x * w).tolist())
    if kind == "spectral":
        return -nu_atomic(spec["measure"], x, w)
    if kind == "inf_family":
        return -min(nu_atomic(m, x, w) for m in spec["measures"])
    raise ValueError(kind)


def two_point_01(p: float):
    return np.array([0.0, 1.0]), np.array([p, 1.0 - p])


def uniform_uc_value(a: float, b: float, C: float, nodes: int = 200) -> float:
    """-nu(uc_C, U(a, b)) by Gauss-Legendre on the spectral function C/h^2."""
    t, wt = np.polynomial.legendre.leggauss(nodes)
    v = 0.5 * (t + 1.0)
    h = C + (1.0 - C) * v
    return -0.5 * float(np.dot(wt, C / (h * h) * (a + v * (b - a))))


def quantile_score_means(forecasts, y, alpha: float) -> list[float]:
    return [math.fsum((((f >= y) - alpha) * (f - y)).tolist()) / len(y) for f in forecasts]


def expectile_score_means(forecasts, y, tau: float) -> list[float]:
    return [math.fsum((np.abs((f >= y) - tau) * (y - f) ** 2).tolist()) / len(y)
            for f in forecasts]


def competition_ranks(means: dict) -> dict:
    order = sorted(means, key=lambda m: (means[m], m))
    ranks = {}
    for i, m in enumerate(order):
        ranks[m] = ranks[order[i - 1]] if i and means[m] == means[order[i - 1]] else i + 1
    return ranks


# -------------------------------------------------------------- CLI outputs

def error_contract(rc: int, out: str, err: str):
    """Bad input must end with exactly one `error:` line, exit 1, no traceback."""
    if "Traceback" in err:
        return "traceback on stderr"
    if rc != 1:
        return f"exit {rc}, expected 1"
    lines = [ln for ln in err.splitlines() if ln.strip()]
    if sum(ln.startswith("error:") for ln in lines) != 1 or not lines[-1].startswith("error:"):
        return "stderr does not end with exactly one error: line"
    return None


def _eval_report(rc: int, out: str, err: str):
    if rc != 0:
        return None, f"exit {rc}: {err.strip()[-200:]}"
    lines = out.strip().splitlines()
    if len(lines) != 2:
        return None, f"expected 2 output lines, got {len(lines)}"
    try:
        report = strict_json(lines[1])
    except ValueError as exc:
        return None, f"invalid JSON: {exc}"
    if float(lines[0]) != report["value"]:
        return None, "printed value and JSON value differ"
    return report, None


def eval_value(rc, out, err, want: float, n, rel: float = EVAL_REL):
    report, why = _eval_report(rc, out, err)
    if why:
        return why
    if report["n"] != n:
        return f"n = {report['n']}, expected {n}"
    if not _close(report["value"], want, rel):
        return f"value {report['value']!r}, expected {want!r}"
    return None


def eval_expectile(rc, out, err, sample, tau: float):
    """The reported expectile must sit at a sign change of psi."""
    report, why = _eval_report(rc, out, err)
    if why:
        return why
    if report["n"] != len(sample):
        return f"n = {report['n']}, expected {len(sample)}"
    mu = -report["value"]
    if not expectile_sign_change(sample, tau, mu, 1e-9 * (1.0 + abs(mu))):
        return f"expectile {mu!r} is not at a sign change of psi"
    return None


def score_table(rc, out, err, means: dict):
    """Ranking table: every method once, means recomputed, competition ranks."""
    if rc != 0:
        return f"exit {rc}: {err.strip()[-200:]}"
    lines = out.strip().splitlines()
    if lines[0].split() != ["rank", "method", "mean_score"]:
        return "bad header"
    got = {}
    for ln in lines[1:]:
        rank, method, mean = ln.split()
        got[method] = (int(rank), float(mean))
    if set(got) != set(means):
        return f"methods {sorted(got)} != {sorted(means)}"
    ranks = competition_ranks(means)
    for m, (rank, mean) in got.items():
        if not _close(mean, means[m]):
            return f"{m}: mean score {mean!r}, expected {means[m]!r}"
        if rank != ranks[m]:
            return f"{m}: rank {rank}, expected {ranks[m]}"
    return None


def elicit_report(rc, out, err, spec: dict, expect_rc: int, c_hat=None,
                  witnesses: bool = False, degenerate: bool = False):
    """Diagnostic summary: exit code, C_hat, and every witness and degenerate point replayed."""
    if rc != expect_rc:
        return f"exit {rc}, expected {expect_rc}: {err.strip()[-200:]}"
    try:
        rep = strict_json(out)
    except ValueError as exc:
        return f"invalid JSON: {exc}"
    if rep["verdict"] != ("consistent" if expect_rc == 0 else "inconsistent"):
        return f"verdict {rep['verdict']}"
    if c_hat is not None and abs(rep["C_hat"] - c_hat) > C_HAT_TOL:
        return f"C_hat {rep['C_hat']!r}, expected {c_hat!r}"
    if witnesses and not rep["witnesses"]:
        return "no witness reported"
    if not witnesses and rep["witnesses"]:
        return "unexpected witness"
    if degenerate and not rep["degenerate"]:
        return "no degenerate grid point reported"
    for p, r in rep["degenerate"]:
        if -1.0 < r < 0.0 or abs(risk(spec, *two_point_01(p)) - r) > 1e-12:
            return f"degenerate point ({p}, {r}) does not replay"
    for wit in rep["witnesses"]:
        t = wit["target"]
        v0 = risk(spec, *law(wit["p0_atoms"]))
        v1 = risk(spec, *law(wit["p1_atoms"]))
        vm = risk(spec, *mixture(wit["p0_atoms"], wit["p1_atoms"], wit["mix_weight"]))
        if not (abs(v0 - t) <= WITNESS_TOL and abs(v1 - t) <= WITNESS_TOL
                and abs(vm - wit["value_at_mixture"]) <= WITNESS_TOL
                and abs(vm - t) > 10 * WITNESS_TOL):
            return f"witness at target {t} does not replay"
    return None


def figure_rows(rc, out, err, C: float, qs=(0.3, 0.8)):
    """Closed-form integrated spectral curves; each two-atom curve touches only at q."""
    if rc != 0:
        return f"exit {rc}: {err.strip()[-200:]}"
    lines = out.strip().splitlines()
    if lines[0] != "p,uc_integrated,es_integrated," + ",".join(f"mq_{q:g}" for q in qs):
        return "bad header"
    rows = np.array([[float(t) for t in ln.split(",")] for ln in lines[1:]])
    if rows.shape != (512, 3 + len(qs)):
        return f"shape {rows.shape}"
    p = rows[:, 0]
    z = C * (1.0 - p) + p
    env = C * (1.0 - p) / z
    if np.max(np.abs(rows[:, 1] - env)) > FIGURE_TOL:
        return "uc curve off its closed form"
    if np.max(np.abs(rows[:, 2] - np.maximum(0.0, (C - p) / C))) > FIGURE_TOL:
        return "ES curve off its closed form"
    for col, q in enumerate(qs, start=3):
        zq = C * (1.0 - q) + q
        want = np.where(p <= q, (q - p) / zq + C * (1.0 - q) / zq, C * (1.0 - p) / zq)
        if np.max(np.abs(rows[:, col] - want)) > FIGURE_TOL:
            return f"mq_{q:g} curve off its closed form"
        inner = (p > 0.0) & (p < 1.0)
        touches = p[inner & (np.abs(rows[:, col] - rows[:, 1]) <= FIGURE_TOL)]
        if touches.tolist() != [q]:
            return f"mq_{q:g} touches the envelope at {touches.tolist()}"
    return None


# ------------------------------------------------------------ library values

def coherence(kind: str, level: float, violations, expect_violation: bool):
    """Violations present exactly where expected, and each one replays.

    ``violations`` holds (axiom, states_x, states_y, lhs, rhs) tuples; only
    subadditivity is expected, and a replay must show a strict breach.
    """
    if not expect_violation:
        return f"{len(violations)} unexpected violations" if violations else None
    subs = [v for v in violations if v[0] == "subadditivity"]
    if len(subs) != len(violations) or not subs:
        return f"{len(subs)} subadditivity of {len(violations)} violations"

    def rho(states):
        s = np.sort(np.asarray(states, dtype=float))
        return -(sample_expectile(s, level) if kind == "expectile" else sample_quantile(s, level))

    for _, sx, sy, lhs, rhs in violations:
        x, y = np.asarray(sx), np.asarray(sy)
        joint = rho(x + y)
        if not (joint > rho(x) + rho(y) and _close(joint, lhs)):
            return "a recorded violation does not replay"
    return None


def spectral_values(sample_sorted, levels, weights, nu: float, nu_u: float, risk_value: float):
    """nu and nu_via_U agree, match sum w_k * U_{alpha_k}, and the risk is -nu."""
    s = sample_sorted.astype(np.longdouble)
    n = len(s)
    prefix = np.concatenate(([0], np.cumsum(s)))
    m = np.minimum(np.floor(levels * n).astype(int), n - 1)
    u = (prefix[m] + (levels * n - m) * s[m]) / (levels * n)
    ref = float(np.dot(weights, u.astype(float)))
    if not _close(nu, nu_u):
        return f"nu {nu!r} and nu_via_U {nu_u!r} disagree"
    if not _close(nu, ref):
        return f"nu {nu!r}, reference {ref!r}"
    if not _close(risk_value, -nu):
        return "SpectralRisk is not -nu"
    return None


def argmin_contains(lo: float, hi: float, target: float):
    slack = ARGMIN_SLACK * (1.0 + abs(target))
    if lo - slack <= target <= hi + slack:
        return None
    return f"argmin [{lo!r}, {hi!r}] misses {target!r}"


def min_nu(value: float, x, w, C: float):
    mu = expectile(x, w, C / (C + 1.0))
    if abs(value - mu) <= 1e-8 * (1.0 + abs(mu)):
        return None
    return f"min over the two-atom family {value!r}, expectile {mu!r}"
