import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from varinterp.errors import FloatOverflow, NoCandidate, NoConvergence, VarInterpError
from varinterp.models import AHO_B0, aho_omega1, builtin
from varinterp.reexpand import build_trial
from varinterp.series import ScalingLaw, StrongSeries, WeakSeries, binom_general
from varinterp.solvers import (
    InferenceProblem,
    extend_model,
    find_omega,
    infer_coefficients,
    interpolant,
)
from varinterp.strong_limit import b_of_c, b_poly, optimize_c

F = Fraction


def aho_trial(a1=F(3, 4)):
    return build_trial(WeakSeries([F(1, 2), a1]), ScalingLaw(1, 3))


class TestFindOmega:
    def test_zero_coupling_returns_baseline(self):
        t = aho_trial()
        r = find_omega(t, 0.0)
        assert r.Omega == 1.0
        assert r.kind == "extremum"

    def test_matches_cubic_root(self):
        t = aho_trial()
        for g in np.geomspace(1e-3, 1e3, 25):
            r = find_omega(t, g / 4.0)
            assert r.kind == "extremum"
            assert r.Omega == pytest.approx(aho_omega1(g, 0.75), rel=1e-12)

    def test_small_coupling_extrema_resolved(self):
        # the extremum pair hugs the baseline frequency at small coupling;
        # this must not degrade into a turning-point fallback
        ext, _ = extend_model(builtin("polaron_mass"))
        t = build_trial(ext.weak, ext.law)
        for alpha in (0.01, 0.05, 0.2):
            r = find_omega(t, alpha)
            assert r.kind == "extremum"
            assert r.Omega > 1.0

    def test_mass_frequency_tracks_strong_growth(self):
        ext, sol = extend_model(builtin("polaron_mass"))
        t = build_trial(ext.weak, ext.law)
        r = find_omega(t, 1e4)
        assert r.Omega == pytest.approx(sol.c * 1e4, rel=1e-4)

    def test_negative_coupling_rejected(self):
        for alpha in (-1.0, math.nan):
            with pytest.raises(ValueError):
                find_omega(aho_trial(), alpha)

    def test_no_candidate_without_any_structure(self):
        # a pure power has neither extremum nor turning point
        t = build_trial(WeakSeries([1]), ScalingLaw(2, 1))
        with pytest.raises(NoCandidate):
            find_omega(t, 1.0)

    def test_frequency_beyond_the_float_range_is_typed(self):
        # q = 1/2 and no root of K: the scan window 10 alpha^2 overflows
        t = build_trial(WeakSeries([1, 1]), ScalingLaw(F(1, 2), F(1, 2)))
        with pytest.raises(FloatOverflow):
            find_omega(t, 1e160)
        # r* = -1e-320: alpha/(-r*) overflows
        t = build_trial(WeakSeries([4e-320, 1]), ScalingLaw(1, 3))
        assert t.branch_roots == (pytest.approx(-1e-320),)
        with pytest.raises(FloatOverflow):
            find_omega(t, 1.0)

    @settings(max_examples=150, deadline=None)
    @given(
        p2=st.integers(-8, 16),
        q2=st.integers(1, 8),
        coeffs=st.lists(st.builds(F, st.integers(-50, 50), st.integers(1, 12)),
                        min_size=1, max_size=5),
        omega=st.floats(0.2, 5.0),
        alpha=st.floats(0.0, 100.0, exclude_min=True),  # alpha = 0 gives w by definition
    )
    # coefficients spanning more than the float range: the roots of K leave it
    # (the first two), stay inside it, or put alpha/(-r*) beyond it
    @example(p2=2, q2=6, coeffs=[F(1e-200), F(1e200)], omega=1.0, alpha=1.0)
    @example(p2=2, q2=6, coeffs=[F(1e200), F(1e-200)], omega=1.0, alpha=1.0)
    @example(p2=2, q2=6, coeffs=[F(1e-200), F(0), F(1e200)], omega=1.0, alpha=1.0)
    @example(p2=2, q2=6, coeffs=[F(4e-320), F(1)], omega=1.0, alpha=1.0)
    # the frequency window (10 alpha^(1/q), q = 1/2) overflows
    @example(p2=1, q2=1, coeffs=[F(1), F(1)], omega=1.0, alpha=1e160)
    def test_certified_or_typed_error(self, p2, q2, coeffs, omega, alpha):
        """Any user law: a certified stationary point or a VarInterpError."""
        try:
            t = build_trial(WeakSeries(coeffs), ScalingLaw(F(p2, 2), F(q2, 2)), omega)
            r = find_omega(t, alpha)
        except VarInterpError:
            return
        k = 1 if r.kind == "extremum" else 2
        assert r.Omega > 0
        scale = max(t.deriv_scale(alpha, r.Omega, k), 1e-300)
        assert abs(t.deriv(alpha, r.Omega, k)) <= 1e-11 * scale
        if t.branch_roots:  # Omega - w ~ alpha may round away
            assert r.kind == "extremum" and r.Omega >= omega

    def test_continuity_on_fine_grid(self):
        """The selected frequency moves smoothly along a geometric grid."""
        ext, sol = extend_model(builtin("polaron_energy"))
        pts = interpolant(ext, np.geomspace(0.05, 50.0, 120))
        omegas = [p.Omega for p in pts]
        for a, b in zip(omegas, omegas[1:]):
            assert 0.7 < b / a < 1.5


class TestInference:
    def test_problem_validation(self):
        with pytest.raises(ValueError):
            InferenceProblem(known_a=(F(1),), unknown_count=0, known_b=(),
                             law=ScalingLaw(1, 1))
        with pytest.raises(ValueError):
            InferenceProblem(known_a=(F(1),), unknown_count=2, known_b=(1.0,),
                             law=ScalingLaw(1, 1))
        with pytest.raises(ValueError):
            InferenceProblem(known_a=(F(1),), unknown_count=1,
                             known_b=(math.nan,), law=ScalingLaw(1, 1))

    def test_oscillator_inversion_closed_form(self):
        """Leading strong coefficient determines a1 as (4 b0 / 3)^3."""
        sol = infer_coefficients(InferenceProblem(
            known_a=(F(1, 2),), unknown_count=1, known_b=(AHO_B0,),
            law=ScalingLaw(1, 3)))
        assert sol.extension[0] == pytest.approx((4.0 * AHO_B0 / 3.0) ** 3, rel=1e-12)
        assert sol.c == pytest.approx(2.0 * sol.extension[0] ** (1 / 3), rel=1e-12)

    def test_roundtrip_recovers_known_coefficient(self):
        # hide the top mass coefficient and ask for it back
        ext, _ = extend_model(builtin("polaron_mass"))
        b0 = b_of_c(ext.weak, ext.law, 0, 0.8167537729292272)
        sol = infer_coefficients(InferenceProblem(
            known_a=ext.weak.coeffs[:3], unknown_count=1, known_b=(b0,),
            law=ext.law))
        assert sol.extension[0] == pytest.approx(float(ext.weak.coeffs[3]), rel=1e-10)

    def test_two_unknown_system(self):
        ext, sol = extend_model(builtin("polaron_energy"))
        assert len(sol.extension) == 2
        # both targets reproduced through the solved coefficients
        for n, target in enumerate((0.108513, 2.836)):
            assert b_of_c(ext.weak, ext.law, n, sol.c) == pytest.approx(
                target, rel=1e-12)
        assert max(abs(r) for r in sol.residuals) < 1e-12

    def test_prefix_beyond_the_float_range_fails_typed(self):
        # the roots of K for these known coefficients leave the float range,
        # and so do the coefficients at the root of the stationarity polynomial
        for known_a in ((F(1e-200), F(1e200)), (F(1e200), F(1e-200))):
            with pytest.raises(NoConvergence):
                infer_coefficients(InferenceProblem(known_a=known_a, unknown_count=1,
                                                    known_b=(1.0,), law=ScalingLaw(1, 3)))

    def test_smallest_positive_growth_constant(self):
        _, sol = extend_model(builtin("polaron_energy"))
        assert 0 < sol.c < 0.1

    def test_energy_roots_against_mpmath(self):
        """All three stationary roots, each within 1e-15 of a 40-digit root of
        db0/dc with the unknowns eliminated (mpmath findroot at 60 digits)."""
        _, sol = extend_model(builtin("polaron_energy"))
        frozen = ("0.003796416698357139436051505814734588263326",
                  "0.09819867921329715064247432194433414814952",
                  "0.4765045514790368538795094434373955222735")
        assert len(sol.roots) == 3
        for got, ref in zip(sol.roots, frozen):
            assert abs(got / mpmath.mpf(ref) - 1) <= 1e-15
        # the published root is the one nearest the prefix's growth constant
        assert sol.c == sol.roots[1]
        assert abs(math.log(sol.c / sol.prefix_c)) < abs(math.log(sol.roots[0] / sol.prefix_c))

    def test_unit_q_law_solves(self):
        # one unknown, q = 1: c^4 = 3 b0 and a1 = (1 + b0 / c^4) c
        sol = infer_coefficients(InferenceProblem(known_a=(F(1),), unknown_count=1,
                                                  known_b=(2.796,), law=ScalingLaw(4, 1)))
        assert sol.c == pytest.approx(1.70182384889721, rel=1e-12)
        assert sol.c == pytest.approx((3 * 2.796) ** 0.25, rel=1e-15)
        assert sol.extension[0] == pytest.approx(2.26909846519628, rel=1e-12)
        assert sol.roots == (sol.c,) and sol.prefix_c is None

    def test_undetermined_coefficient_is_named(self):
        # p = q: a_1 carries the factor C(0, 1) = 0 in b_1, so b_1 fixes nothing
        with pytest.raises(NoConvergence, match="a1 is not determined"):
            infer_coefficients(InferenceProblem(known_a=(F(1),), unknown_count=2,
                                                known_b=(1.0, 1.0), law=ScalingLaw(1, 1)))

    @settings(max_examples=150, deadline=None)
    @given(
        p2=st.integers(-8, 16),
        q2=st.integers(1, 8),
        coeffs=st.lists(st.builds(F, st.integers(-50, 50), st.integers(1, 12)),
                        min_size=2, max_size=5),
        m=st.integers(1, 2),
    )
    def test_round_trip_over_random_laws(self, p2, q2, coeffs, m):
        """Hide the top m coefficients of a series, take its b_n(c*) as targets:
        c* is among the roots, and the answer meets the targets and db0/dc = 0."""
        assume(len(coeffs) > m)
        s, law = WeakSeries(coeffs), ScalingLaw(F(p2, 2), F(q2, 2))
        k = s.order - m
        # the top coefficients are undetermined where a weight C(x_l, m - 1 - i) vanishes
        assume(all(binom_general((law.p - law.q * (k + 1 + i)) / 2, m - 1 - i)
                   for i in range(m)))
        try:
            c_star = optimize_c(s, law).c
            targets = tuple(b_of_c(s, law, n, c_star) for n in range(m))
        except VarInterpError:
            assume(False)
        sol = infer_coefficients(InferenceProblem(known_a=s.coeffs[:k + 1], unknown_count=m,
                                                  known_b=targets, law=law))
        assert any(abs(r / c_star - 1) <= 1e-8 for r in sol.roots)
        ext = WeakSeries(s.coeffs[:k + 1] + tuple(F(a) for a in sol.extension))
        # yardstick: the sum of absolute terms, as b_n may cancel to far below
        # them at a root other than c*
        for n, target in enumerate(targets):
            b = b_poly(ext, law, n)
            assert abs(b.eval(sol.c) - target) <= 1e-10 * b.eval_abs(sol.c)
        d1 = b_poly(ext, law, 0).diff()
        assert abs(d1.eval(sol.c)) <= 1e-10 * d1.eval_abs(sol.c)


class TestInterpolant:
    def test_oscillator_weak_limit(self):
        pts = interpolant(builtin("aho"), [0.0])
        assert pts[0].value == pytest.approx(0.5)
        assert pts[0].Omega == pytest.approx(1.0)

    def test_energy_prefactor_sign(self):
        ext, _ = extend_model(builtin("polaron_energy"))
        pts = interpolant(ext, [1.0, 5.0])
        assert pts[0].value < 0 and pts[1].value < pts[0].value

    def test_mass_approaches_strong_asymptote(self):
        ext, _ = extend_model(builtin("polaron_mass"))
        pt = interpolant(ext, [200.0])[0]
        assert pt.value / 200.0**4 == pytest.approx(0.0227019, rel=1e-3)

    def test_energy_frequency_fit_formula(self):
        """Optimal frequency roughly follows c alpha + 1/(1 + 0.07 alpha)."""
        ext, sol = extend_model(builtin("polaron_energy"))
        pts = interpolant(ext, np.geomspace(0.1, 30.0, 25))
        for p in pts:
            fit = sol.c * p.alpha + 1.0 / (1.0 + 0.07 * p.alpha)
            assert p.Omega == pytest.approx(fit, rel=0.05)

    def test_energy_between_weak_and_strong_at_small_coupling(self):
        ext, _ = extend_model(builtin("polaron_energy"))
        base = builtin("polaron_energy")
        strong = StrongSeries(base.law, base.known_strong)
        for alpha in (0.5, 1.0, 2.0):
            w = interpolant(ext, [alpha])[0].value
            e_weak = -alpha * base.weak.eval(alpha)
            e_strong = -alpha * strong.eval(alpha)
            assert min(e_weak, e_strong) < w < max(e_weak, e_strong)

    def test_energy_reaches_strong_asymptote(self):
        # at intermediate coupling the approximant dips slightly below both
        # truncated series before locking onto the strong asymptote
        ext, _ = extend_model(builtin("polaron_energy"))
        base = builtin("polaron_energy")
        strong = StrongSeries(base.law, base.known_strong)
        alpha = 100.0
        w = interpolant(ext, [alpha])[0].value
        assert w == pytest.approx(-alpha * strong.eval(alpha), rel=1e-4)

    def test_negative_grid_rejected(self):
        with pytest.raises(ValueError):
            interpolant(builtin("aho"), [-0.5])

    def test_energy_weak_tail_fails_only_typed(self):
        # the extremum hugs Omega = 1 from above here, on the branch that
        # grows into the strong-coupling limit
        ext, _ = extend_model(builtin("polaron_energy"))
        for pt in interpolant(ext, np.geomspace(1e-9, 1e-2, 71)):
            assert pt.kind == "extremum" and pt.Omega > 1.0 and math.isfinite(pt.value)
        # alpha/(-r*) underflows to 0 here, and Omega - 1 ~ alpha with it
        assert interpolant(ext, [5e-324])[0].Omega == 1.0

    def test_energy_weak_tail_against_mpmath(self):
        """Omega brackets a 50-digit root of dW/dOmega within 1e-13 relative."""
        ext, _ = extend_model(builtin("polaron_energy"))
        t = build_trial(ext.weak, ext.law, ext.omega)
        with mpmath.workdps(50):
            w2 = mpmath.mpf(t.omega) ** 2
            for alpha in (1e-8, 1e-6, 1e-4):
                terms = [(mpmath.mpf(a.numerator) / a.denominator * mpmath.mpf(alpha) ** n,
                          [(mpmath.mpf(e2) / 2, mpmath.mpf(c.numerator) / c.denominator * w2**m)
                           for e2, row in P.diff().items() for m, c in row.items()])
                         for n, (a, P) in enumerate(zip(t.coeffs, t.term_polys))]

                def dW(x):
                    return sum(a * sum(c * x**e for e, c in mono) for a, mono in terms)

                Om = mpmath.mpf(interpolant(ext, [alpha])[0].Omega)
                tol = mpmath.mpf("1e-13")
                assert dW(Om * (1 - tol)) * dW(Om * (1 + tol)) < 0

    def test_overflowing_value_raises(self):
        # Omega certifies here, but one monomial of W_N overflows to inf
        ext, _ = extend_model(builtin("polaron_mass"))
        with pytest.raises(FloatOverflow):
            interpolant(ext, [10**77.5])
