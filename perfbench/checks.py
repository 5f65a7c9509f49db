"""Output checks, run outside the timed region.

Each check returns a list of problems; an empty list means the job's output
is correct.  The references are the program's own public functions
(`build_trial`, `b_of_c`, `b_poly`), the independent finite-difference probe
`oracle.b_numeric`, and the asymptotes the acceptance suite uses for the
Feynman baseline.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

from varinterp import acceptance, models, oracle, solvers, strong_limit
from varinterp.reexpand import build_trial
from varinterp.series import ScalingLaw, WeakSeries

# aho: the paper's (and fig1's) claim; the worst ratio was 0.37% when written
AHO_RATIO_TOL = 5e-3
# stationarity certificate, as find_omega applies it
CERT_TOL = 1e-11
W_REL_TOL = 1e-12
GRID_REL_TOL = 1e-15
# infer: target reproduction, db0/dc, and agreement with the numeric probe
TARGET_TOL = 1e-10
DB0_TOL = 1e-10
PROBE_TOL = 1e-8
FROZEN_TOL = 1e-6

# Feynman weak ends (crit_feynman's coefficients; the next orders bound the
# remainder with a factor 2-3 to spare over 1e-6 <= alpha <= 0.1):
#   E = -alpha - 0.012345 alpha^2 + O(7e-7 alpha^2 + 6.5e-4 alpha^3)
#   m = 1 + alpha/6 + O(0.025 alpha^2)
# Strong ends: relative deviation from the asymptote within 2/alpha^2 for
# alpha >= 10 (observed 0.35/alpha^2 for E and 0.98/alpha^2 for m at 10).
STRONG_E = (-0.106103, -2.8294)
STRONG_M = (models.FEYNMAN_MASS_STRONG, -1.012775, 11.85579)


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


class Checker:
    """Caches the extended builtin models and their trial functions."""

    def __init__(self):
        self._ext = {}

    def extended(self, name: str):
        if name not in self._ext:
            ext, _ = solvers.extend_model(models.builtin(name))
            self._ext[name] = (ext, build_trial(ext.weak, ext.law, ext.omega))
        return self._ext[name]

    # -- interpolate ----------------------------------------------------------

    def curve(self, model: str, grid: tuple[float, float, int], csv_text: str) -> list[str]:
        try:
            header, rows = parse_csv(csv_text)
        except (IndexError, ValueError) as exc:
            return [f"unparseable CSV: {exc}"]
        amin, amax, n = grid
        if len(rows) != n or any(len(r) != len(header) for r in rows):
            return [f"expected {n} rows of {len(header)} columns"]
        problems = []
        ext, t = self.extended(model)
        for g_want, row in zip(np.geomspace(amin, amax, n), rows):
            g, Om, W = row[:3]
            if abs(g - g_want) > GRID_REL_TOL * g_want:
                problems.append(f"coupling {g!r} is not grid point {g_want!r}")
                continue
            alpha = ext.to_alpha(g)
            if not Om > 0:
                problems.append(f"nonpositive Omega {Om!r} at {g!r}")
                continue
            if not any(abs(t.deriv(alpha, Om, k)) <= CERT_TOL * max(t.deriv_scale(alpha, Om, k), 1e-300)
                       for k in (1, 2)):
                problems.append(f"Omega {Om!r} fails the stationarity certificate at {g!r}")
            w_ref = ext.apply_prefactor(alpha, t.eval(alpha, Om))
            if not abs(W - w_ref) <= W_REL_TOL * abs(w_ref):
                problems.append(f"W_N {W!r} != trial value {w_ref!r} at {g!r}")
        col = {h: i for i, h in enumerate(header)}
        if model == "aho":
            worst = max(abs(r[col["ratio"]] - 1.0) for r in rows)
            if not worst <= AHO_RATIO_TOL:
                problems.append(f"aho ratio off by {worst:.3e} (> {AHO_RATIO_TOL})")
        elif model == "polaron_energy":
            problems += _feynman_energy([r[0] for r in rows], [r[col["feynman"]] for r in rows])
        elif model == "polaron_mass":
            m = [r[col["feynman_norm"]] * r[col["M_as"]] for r in rows]
            problems += _feynman_mass([r[0] for r in rows], m)
        return problems

    # -- infer ----------------------------------------------------------------

    def inference(self, job, stdout: str) -> list[str]:
        vals = dict(re.findall(r"^(c|a\d+) = (\S+)$", stdout, flags=re.M))
        if job.user_model is not None:
            md = job.user_model
            weak, law = md.weak_fractions(), ScalingLaw(md.p, md.q)
            targets = md.strong
        else:
            spec = models.builtin(job.model)
            weak, law, targets = spec.weak.coeffs, spec.law, spec.known_strong
        names = [f"a{len(weak) + k}" for k in range(len(targets))]
        try:
            c = float(vals["c"])
            extension = tuple(float(vals[k]) for k in names)
        except (KeyError, ValueError):
            return [f"stdout lacks c and {names}"]
        if not c > 0:
            return [f"nonpositive c {c!r}"]
        ext = WeakSeries(tuple(weak) + tuple(Fraction(a) for a in extension))
        problems = []
        for n, target in enumerate(targets):
            b = strong_limit.b_of_c(ext, law, n, c)
            if not abs(b - target) <= TARGET_TOL * max(abs(target), 1.0):
                problems.append(f"b_{n}(c) = {b!r} misses target {target!r}")
        d1 = strong_limit.b_poly(ext, law, 0).diff()
        if not abs(d1.eval(c)) <= DB0_TOL * d1.eval_abs(c):
            problems.append(f"db0/dc = {d1.eval(c)!r} does not vanish at c")
        for n in range(3):
            a = strong_limit.b_of_c(ext, law, n, c)
            b = oracle.b_numeric(ext, law, n, c)
            if not abs(a - b) <= PROBE_TOL * max(abs(a), 1.0):
                problems.append(f"b_{n}: closed form {a!r} vs numeric probe {b!r}")
        if job.user_model is None:
            ext_ref, c_ref = acceptance._FROZEN_INFERRED[job.model]
            if not abs(c / c_ref - 1.0) <= FROZEN_TOL:
                problems.append(f"c {c!r} differs from frozen {c_ref!r}")
            for got, ref in zip(extension, ext_ref):
                if not abs(got - ref) <= FROZEN_TOL * max(abs(ref), 1e-9):
                    problems.append(f"coefficient {got!r} differs from frozen {ref!r}")
        return problems


def _monotone(xs: list[float], sign: int) -> bool:
    return all(sign * (b - a) > 0 for a, b in zip(xs, xs[1:]))


def _feynman_energy(alphas: list[float], E: list[float]) -> list[str]:
    problems = []
    if not _monotone(E, -1):
        problems.append("Feynman energy not decreasing along the grid")
    a, e = alphas[0], E[0]
    if not abs(e + a + 0.012345 * a * a) <= 2e-6 * a * a + 2e-3 * a**3:
        problems.append(f"Feynman energy {e!r} off the weak asymptote at {a!r}")
    a, e = alphas[-1], E[-1]
    s = STRONG_E[0] * a * a + STRONG_E[1]
    if not abs(e - s) <= 2.0 / (a * a) * abs(e):
        problems.append(f"Feynman energy {e!r} off the strong asymptote {s!r} at {a!r}")
    return problems


def _feynman_mass(alphas: list[float], m: list[float]) -> list[str]:
    problems = []
    if not _monotone(m, +1):
        problems.append("Feynman mass not increasing along the grid")
    a, x = alphas[0], m[0]
    if not abs(x - 1.0 - a / 6.0) <= 0.05 * a * a:
        problems.append(f"Feynman mass {x!r} off the weak asymptote at {a!r}")
    a, x = alphas[-1], m[-1]
    s = STRONG_M[0] * a**4 + STRONG_M[1] * a * a + STRONG_M[2]
    if not abs(x - s) <= 2.0 / (a * a) * abs(x):
        problems.append(f"Feynman mass {x!r} off the strong asymptote {s!r} at {a!r}")
    return problems
