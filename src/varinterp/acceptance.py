"""Quantitative acceptance checks behind `varinterp verify`.

Each criterion is a function returning a CriterionResult; the registry keeps
them addressable by name.  The `pins` criterion re-derives the inference
outputs and compares model data against independently frozen copies, so a
perturbation anywhere in the builtin series data trips it.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import models, oracle, solvers, strong_limit
from .reexpand import build_trial
from .series import LaurentPoly

__all__ = ["CriterionResult", "CRITERIA", "run_criteria"]


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(name, seconds, passed, detail):
    return CriterionResult(name=name, passed=bool(passed), detail=detail,
                           seconds=seconds)


def _extended(name):
    return solvers.extend_model(models.builtin(name))


def crit_reexpansion() -> CriterionResult:
    """W_N(alpha, omega) equals the plain weak series at the baseline."""
    t0 = time.perf_counter()
    rng = random.Random(20260824)
    worst = 0.0
    for name in models.MODEL_NAMES:
        ext, _ = _extended(name)
        t = build_trial(ext.weak, ext.law, 1.0)
        for _ in range(100):
            alpha = 10.0 ** rng.uniform(-3, 2)
            e = ext.weak.eval(alpha)
            w = t.eval(alpha, 1.0)
            worst = max(worst, abs(w / e - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-13 and elapsed < 1.0
    return _result("reexpansion", elapsed, ok,
                   f"max rel dev {worst:.2e} (tol 1e-13), {elapsed:.2f}s (<1s)")


def crit_printed_form() -> CriterionResult:
    """Exact rational agreement with the printed reexpanded polynomials."""
    t0 = time.perf_counter()
    mass = models.builtin("polaron_mass")
    t = build_trial(mass.weak.extended([Fraction(1)]), mass.law)
    P = LaurentPoly.term
    expected = [
        P(1, 0, 2),
        P(Fraction(-1, 8), 6) + P(Fraction(3, 4), 2, 1) + P(Fraction(3, 8), -2, 2),
        P(1, 0, 1),
        P(1, 2),
    ]
    ok_mass = list(t.term_polys) == expected
    en = models.builtin("polaron_energy")
    law = en.law
    lead = strong_limit.coeff_basis_poly(0, 4, law, 0)
    sub = strong_limit.coeff_basis_poly(2, 4, law, 0)
    ok_en = (lead.coeff(2) == Fraction(35, 128) and sub.coeff(-2) == Fraction(15, 8))
    ok = ok_mass and ok_en
    return _result("printed_form", time.perf_counter() - t0, ok,
                   f"mass W3 polys exact: {ok_mass}; energy 35/128 & 15/8 exact: {ok_en}")


def crit_aho_closed_form() -> CriterionResult:
    """c = 2 a1^(1/3) and the trig/hyperbolic closed form for Omega_1."""
    t0 = time.perf_counter()
    ext, sol = _extended("aho")
    a1 = sol.extension[0]
    c_rel = abs(sol.c / (2.0 * a1 ** (1.0 / 3.0)) - 1.0)
    t = build_trial(ext.weak, ext.law)
    worst = 0.0
    for g in np.geomspace(1e-3, 1e3, 40):
        r = solvers.find_omega(t, g / 4.0)
        worst = max(worst, abs(r.Omega / models.aho_omega1(g, a1) - 1.0))
    ok = c_rel <= 1e-12 and worst <= 1e-10
    return _result("aho_closed_form", time.perf_counter() - t0, ok,
                   f"c rel dev {c_rel:.2e}; max Omega rel dev {worst:.2e} (tol 1e-10)")


def crit_fig1() -> CriterionResult:
    """First-order oscillator approximant within 0.5% of the exact energy."""
    t0 = time.perf_counter()
    ext, sol = _extended("aho")
    a1_inferred = sol.extension[0]
    gs = np.geomspace(0.1, 1000.0, 60)
    exact = [oracle.aho_exact_energy(g) for g in gs]

    def max_err(a1):
        t = build_trial(models.builtin("aho").weak.extended([a1]), ext.law)
        errs = []
        for g, e in zip(gs, exact):
            r = solvers.find_omega(t, g / 4.0)
            errs.append(abs(t.eval(g / 4.0, r.Omega) / e - 1.0))
        return max(errs)

    err_inf = max_err(a1_inferred)
    err_printed = max_err(0.773970)
    err_exact = max_err(0.75)
    elapsed = time.perf_counter() - t0
    ok = err_inf <= 5e-3 and err_printed > err_inf and err_exact > err_inf \
        and elapsed < 30.0
    return _result(
        "fig1", elapsed, ok,
        f"max err: inferred a1 {err_inf:.2%} (tol 0.5%), "
        f"printed a1 {err_printed:.2%}, exact a1 {err_exact:.2%}; {elapsed:.1f}s (<30s)")


def crit_mass_inference() -> CriterionResult:
    """a3 = 0.0416929, c = sqrt(8 a3 / 3 a1), b0(c) = 0.0227019."""
    t0 = time.perf_counter()
    ext, sol = _extended("polaron_mass")
    a3 = sol.extension[0]
    d_a3 = abs(a3 - 0.0416929)
    c_closed = math.sqrt(8.0 * a3 / (3.0 * (1.0 / 6.0)))
    d_c = abs(sol.c / c_closed - 1.0)
    b0 = strong_limit.b_of_c(ext.weak, ext.law, 0, sol.c)
    d_b0 = abs(b0 - 0.0227019)
    ok = d_a3 <= 1e-6 and d_c <= 1e-10 and d_b0 <= 2e-6
    return _result("mass_inference", time.perf_counter() - t0, ok,
                   f"|a3-0.0416929|={d_a3:.2e} (1e-6); c vs closed form {d_c:.2e}; "
                   f"|b0-0.0227019|={d_b0:.2e} (2e-6)")


STRONG_FIT_ABSCISSAS = tuple(np.geomspace(100.0, 10000.0, 7))


def crit_strong_fit() -> CriterionResult:
    """Asymptotic fit of the mass interpolant vs corrected coefficients."""
    t0 = time.perf_counter()
    ext, _ = _extended("polaron_mass")
    pts = solvers.interpolant(ext, STRONG_FIT_ABSCISSAS)
    fit = oracle.asymptotic_fit([(p.alpha, p.value) for p in pts], ext.law, 4)
    sc = strong_limit.correct_bn(strong_limit.optimize_c(ext.weak, ext.law))
    d1p = abs(fit.coeffs[1] - 0.125722)
    d2p = abs(fit.coeffs[2] - 1.15304)
    d1 = abs(fit.coeffs[1] - sc.b_final[1])
    d2 = abs(fit.coeffs[2] - sc.b_final[2])
    ok = d1p <= 2e-4 and d2p <= 2e-3 and d1 <= 1e-6 and d2 <= 1e-6
    return _result("strong_fit", time.perf_counter() - t0, ok,
                   f"fit b1 {fit.coeffs[1]:.6f} (|d|={d1p:.1e}<=2e-4), "
                   f"b2 {fit.coeffs[2]:.5f} (|d|={d2p:.1e}<=2e-3); "
                   f"fit vs corrections: {d1:.1e}, {d2:.1e} (<=1e-6)")


# Printed simultaneous solution of the inference system for the energy model
# (the middle value disagrees with the self-consistent solution; no hard
# tolerance is applied to it -- see the infer report)
ENERGY_PRINTED_SOLUTION = (0.09819868, 6.43047343e-4, -8.4505836e-5)


def crit_energy_inference() -> CriterionResult:
    """Solved (a3, a4, c) reproduce both strong targets to 1e-10 relative."""
    t0 = time.perf_counter()
    ext, sol = _extended("polaron_energy")
    worst = 0.0
    for n, target in enumerate(models.POLARON_ENERGY_STRONG):
        b = strong_limit.b_of_c(ext.weak, ext.law, n, sol.c)
        worst = max(worst, abs(b / target - 1.0))
    dev = tuple(abs(x - y) for x, y in zip((sol.c,) + sol.extension, ENERGY_PRINTED_SOLUTION))
    ok = worst <= 1e-10
    return _result("energy_inference", time.perf_counter() - t0, ok,
                   f"target reproduction rel {worst:.2e} (tol 1e-10); "
                   f"dev from printed (c,a3,a4): {dev[0]:.1e}, {dev[1]:.1e}, {dev[2]:.1e}")


def crit_feynman() -> CriterionResult:
    """Feynman baseline against its published weak/strong coefficients.

    The strong-side mass sub-check asserts the printed 0.020141 leading
    coefficient at 1e-3 relative, as specified.  The formulas' exact
    asymptote is 16/(81 pi^2) = 0.0200141, which that printed value misses
    by 0.63%, so this sub-check fails; the other three pass.
    """
    t0 = time.perf_counter()
    als = np.linspace(0.01, 0.1, 10)
    sols = [models.feynman_energy(a) for a in als]
    Es = np.array([E for E, _ in sols])
    ms = np.array([models._mass_at(a, prm) for a, (_, prm) in zip(als, sols)])
    A = np.column_stack([als**2, als**3, als**4])
    c2 = np.linalg.lstsq(A, Es + als, rcond=None)[0][0]
    Am = np.column_stack([als, als**2, als**3])
    c1m = np.linalg.lstsq(Am, ms - 1.0, rcond=None)[0][0]
    d_weak_e = abs(c2 - (-0.012345))
    d_weak_m = abs(c1m - 1.0 / 6.0)

    alpha = 200.0
    E, prm = models.feynman_energy(alpha)
    strong_e = (E + 2.8294) / alpha**2
    d_strong_e = abs(strong_e - (-0.106103))
    m = models._mass_at(alpha, prm)
    strong_m = (m + 1.012775 * alpha**2 - 11.85579) / alpha**4
    d_strong_m = abs(strong_m / 0.020141 - 1.0)
    elapsed = time.perf_counter() - t0
    ok = (d_weak_e <= 1e-4 and d_weak_m <= 1e-4 and d_strong_e <= 5e-4
          and d_strong_m <= 1e-3 and elapsed < 60.0)
    return _result(
        "feynman", elapsed, ok,
        f"weak: |c2+0.012345|={d_weak_e:.1e} (1e-4), |c1-1/6|={d_weak_m:.1e} (1e-4); "
        f"strong: energy dev {d_strong_e:.1e} (5e-4), "
        f"mass/alpha^4 {strong_m:.7f} vs printed 0.020141 rel dev {d_strong_m:.1e} "
        f"(1e-3; exact asymptote 16/(81 pi^2)={16 / (81 * math.pi ** 2):.7f}); "
        f"{elapsed:.1f}s (<60s)")


def crit_coeff_probe() -> CriterionResult:
    """Closed-form b_n(c) vs the numeric-derivative probe, n = 0..2."""
    t0 = time.perf_counter()
    worst = 0.0
    for name in models.MODEL_NAMES:
        ext, sol = _extended(name)
        for n in range(3):
            a = strong_limit.b_of_c(ext.weak, ext.law, n, sol.c)
            b = oracle.b_numeric(ext.weak, ext.law, n, sol.c)
            worst = max(worst, abs(a - b) / max(abs(a), 1.0))
    ok = worst <= 1e-8
    return _result("coeff_probe", time.perf_counter() - t0, ok,
                   f"max rel dev {worst:.2e} (tol 1e-8)")


# Independently frozen copies of the builtin series data and of the
# self-consistent inference outputs.  Any 1% perturbation of a builtin
# coefficient lands far outside these tolerances.
_FROZEN_DATA = {
    "aho": ((0.5,), (0.667986259155777108270962016919860,)),
    "polaron_energy": ((1.0, 0.0159196220, 0.000806070048), (0.108513, 2.836)),
    "polaron_mass": ((1.0, 1.0 / 6.0, 0.02362763), (0.0227019,)),
}
_FROZEN_INFERRED = {
    "aho": ((0.706510786121379,), 1.7812966910820724),
    "polaron_energy": ((6.730473428139249e-4, -8.450583603774852e-5),
                       0.0981986792132972),
    "polaron_mass": ((0.04169292034963281,), 0.8167537729292272),
}


def crit_pins() -> CriterionResult:
    """Builtin data integrity + regression pins on the inference outputs."""
    t0 = time.perf_counter()
    bad = []
    for name, (weak, strong) in _FROZEN_DATA.items():
        spec = models.builtin(name)
        got_w = tuple(float(c) for c in spec.weak.coeffs)
        got_s = tuple(spec.known_strong)
        if len(got_w) != len(weak) or any(
                abs(a - b) > 1e-12 * max(abs(b), 1e-12) for a, b in zip(got_w, weak)):
            bad.append(f"{name} weak coefficients {got_w}")
        if len(got_s) != len(strong) or any(
                abs(a - b) > 1e-12 * max(abs(b), 1e-12) for a, b in zip(got_s, strong)):
            bad.append(f"{name} strong targets {got_s}")
    for name, (ext_ref, c_ref) in _FROZEN_INFERRED.items():
        try:
            _, sol = _extended(name)
        except Exception as exc:  # inference may diverge on corrupted data
            bad.append(f"{name} inference failed: {exc}")
            continue
        if abs(sol.c / c_ref - 1.0) > 1e-6:
            bad.append(f"{name} c {sol.c}")
        for got, ref in zip(sol.extension, ext_ref):
            if abs(got - ref) > 1e-6 * max(abs(ref), 1e-9):
                bad.append(f"{name} extension {sol.extension}")
                break
    ok = not bad
    return _result("pins", time.perf_counter() - t0, ok, "all pinned values reproduced" if ok
                   else "; ".join(bad))


CRITERIA = {
    "reexpansion": crit_reexpansion,
    "printed_form": crit_printed_form,
    "aho_closed_form": crit_aho_closed_form,
    "fig1": crit_fig1,
    "mass_inference": crit_mass_inference,
    "strong_fit": crit_strong_fit,
    "energy_inference": crit_energy_inference,
    "feynman": crit_feynman,
    "coeff_probe": crit_coeff_probe,
    "pins": crit_pins,
}


def run_criteria(names=None) -> list[CriterionResult]:
    if names is None:
        names = list(CRITERIA)
    unknown = [n for n in names if n not in CRITERIA]
    if unknown:
        raise KeyError(f"unknown criteria: {unknown}; choose from {list(CRITERIA)}")
    return [CRITERIA[n]() for n in names]
