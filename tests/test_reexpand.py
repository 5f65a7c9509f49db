import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varinterp.models import aho_omega1, builtin
from varinterp.reexpand import build_fn, build_trial
from varinterp.series import LaurentPoly, ScalingLaw, WeakSeries

F = Fraction


def test_fn_top_order_is_one():
    law = ScalingLaw(1, 3)
    for N in range(4):
        assert build_fn(N, N, law) == LaurentPoly.one()


def test_fn_first_order_oscillator():
    # f_0 at N = 1: 1 - (1/2)(1 - w^2/X^2) = 1/2 + w^2 / (2 X^2)
    f0 = build_fn(0, 1, ScalingLaw(1, 3))
    assert f0 == LaurentPoly.term(F(1, 2)) + LaurentPoly.term(F(1, 2), -4, 1)


def test_fn_index_validation():
    with pytest.raises(ValueError):
        build_fn(3, 2, ScalingLaw(1, 3))
    with pytest.raises(ValueError):
        build_fn(-1, 2, ScalingLaw(1, 3))


def test_odd_exponent_rejected():
    # p - q n must stay a half-integer of X, i.e. 2(p - qn) integral
    with pytest.raises(ValueError):
        build_trial(WeakSeries([1, 1]), ScalingLaw(F(1, 4), 1))


def test_baseline_reduces_to_weak_series():
    """At the unshifted unit frequency the reexpansion telescopes exactly."""
    rng = random.Random(42)
    for _ in range(20):
        coeffs = [F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(4)]
        coeffs[0] += 1
        s = WeakSeries(coeffs)
        law = ScalingLaw(rng.choice([1, 2, 4]), rng.choice([1, 3]))
        t = build_trial(s, law)
        for alpha in (0.0, 0.3, 2.0):
            assert t.eval(alpha, 1.0) == pytest.approx(
                s.eval(alpha), rel=1e-12, abs=1e-12)


def test_baseline_with_general_frequency():
    # away from unit frequency each order picks up omega^(p - q n)
    s = WeakSeries([F(1, 2), F(3, 4)])
    law = ScalingLaw(1, 3)
    omega = 1.7
    t = build_trial(s, law, omega)
    alpha = 0.4
    expected = 0.5 * alpha**0 * omega + 0.75 * alpha * omega**-2
    assert t.eval(alpha, omega) == pytest.approx(expected, rel=1e-13)


def test_alpha_zero_keeps_constant_term():
    t = build_trial(WeakSeries([F(1, 2), F(3, 4)]), ScalingLaw(1, 3))
    # W(0, Omega) = a0 * Omega * f_0 = (Omega + 1/Omega) / 4
    assert t.eval(0.0, 2.0) == pytest.approx(0.625)


def test_derivatives_match_finite_differences():
    s = WeakSeries([1, F(1, 6), 0.02362763, 0.0416929])
    t = build_trial(s, ScalingLaw(4, 1))
    h = 1e-5
    for alpha, Om in [(0.5, 1.2), (3.0, 2.7), (10.0, 8.0)]:
        fd1 = (t.eval(alpha, Om + h) - t.eval(alpha, Om - h)) / (2 * h)
        fd2 = (t.eval(alpha, Om + h) - 2 * t.eval(alpha, Om) + t.eval(alpha, Om - h)) / h**2
        assert t.deriv(alpha, Om, 1) == pytest.approx(fd1, rel=1e-8, abs=1e-8)
        assert t.deriv(alpha, Om, 2) == pytest.approx(fd2, rel=1e-5, abs=1e-5)
        fd3 = (t.deriv(alpha, Om + h, 2) - t.deriv(alpha, Om - h, 2)) / (2 * h)
        assert t.deriv(alpha, Om, 3) == pytest.approx(fd3, rel=1e-8, abs=1e-8)


def test_stationary_at_closed_form_frequency():
    """First-order oscillator: dW/dOmega vanishes at the cubic-root frequency."""
    a1 = F(3, 4)
    t = build_trial(WeakSeries([F(1, 2), a1]), ScalingLaw(1, 3))
    for g in (0.05, 1.0, 40.0):
        Om = aho_omega1(g, float(a1))
        scale = t.deriv_scale(g / 4.0, Om)
        assert abs(t.deriv(g / 4.0, Om)) <= 1e-13 * scale


def test_deriv_scale_dominates():
    spec = builtin("polaron_mass")
    t = build_trial(spec.weak, spec.law)
    rng = random.Random(1)
    for _ in range(25):
        alpha = 10.0 ** rng.uniform(-2, 2)
        Om = 10.0 ** rng.uniform(-1, 1)
        for k in (1, 2):
            assert abs(t.deriv(alpha, Om, k)) <= t.deriv_scale(alpha, Om, k) * (1 + 1e-12)


def test_argument_validation():
    t = build_trial(WeakSeries([F(1, 2)]), ScalingLaw(1, 3))
    with pytest.raises(ValueError):
        t.eval(1.0, 0.0)
    for k in (0, 4):
        with pytest.raises(ValueError):
            t.deriv(1.0, 1.0, k)
        with pytest.raises(ValueError):
            t.deriv_scale(1.0, 1.0, k)
    with pytest.raises(ValueError):
        build_trial(WeakSeries([1]), ScalingLaw(1, 1), omega=-1.0)


@settings(max_examples=200, deadline=None)
@given(
    p2=st.integers(-8, 16),
    q2=st.integers(1, 8),
    coeffs=st.lists(st.builds(F, st.integers(-50, 50), st.integers(1, 12)),
                    min_size=1, max_size=5),
    omega=st.floats(0.2, 5.0),
    alpha=st.floats(0.0, 50.0),
    Omega=st.floats(0.05, 20.0),
)
def test_compiled_table_matches_exact_polys(p2, q2, coeffs, omega, alpha, Omega):
    """eval/deriv/deriv_scale agree with the exact, w-symbolic polynomials."""
    t = build_trial(WeakSeries(coeffs), ScalingLaw(F(p2, 2), F(q2, 2)), omega)
    polys = t.term_polys
    for k in range(4):
        value = math.fsum(float(a) * alpha**n * P.eval(Omega, omega)
                          for n, (a, P) in enumerate(zip(coeffs, polys)))
        scale = math.fsum(abs(float(a)) * alpha**n * P.eval_abs(Omega, omega)
                          for n, (a, P) in enumerate(zip(coeffs, polys)))
        got = t.eval(alpha, Omega) if k == 0 else t.deriv(alpha, Omega, k)
        assert abs(got - value) <= 1e-13 * scale
        if k:
            assert abs(t.deriv_scale(alpha, Omega, k) - scale) <= 1e-13 * scale
        polys = [P.diff() for P in polys]
