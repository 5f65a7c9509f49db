import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varinterp.errors import FloatOverflow
from varinterp.models import aho_omega1, builtin
from varinterp.reexpand import branch_roots, build_fn, build_trial
from varinterp.series import LaurentPoly, ScalingLaw, WeakSeries, binom_general

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


# c alpha^n Omega^e rounds c alpha^n first; once that is subnormal its error is
# absolute, up to ~5e-324, and Omega^e (up to 0.05^-27 ~ 1e35 in these laws)
# magnifies it with |c| up to ~1e3: hence an absolute floor on the tolerances
SUBNORMAL_FLOOR = 1e-280


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
        assert abs(got - value) <= 1e-13 * scale + SUBNORMAL_FLOOR
        if k:
            scale_got = t.deriv_scale(alpha, Omega, k)
            assert abs(scale_got - scale) <= 1e-13 * scale + SUBNORMAL_FLOOR
        polys = [P.diff() for P in polys]


@settings(max_examples=200, deadline=None)
@given(
    p2=st.integers(-8, 16),
    q2=st.integers(1, 8),
    coeffs=st.lists(st.builds(F, st.integers(-50, 50), st.integers(1, 12)),
                    min_size=1, max_size=6),
    omega=st.floats(0.2, 5.0),
    alpha=st.floats(0.0, 50.0),
    Omega=st.floats(0.05, 20.0),
)
def test_stationarity_identity(p2, q2, coeffs, omega, alpha, Omega):
    """dW_N/dOmega = Omega^(p-1) sum_n k_n y^n v^(N-n), y = alpha Omega^-q,
    v = w^2/Omega^2 - 1, k_n = a_n (p - q n) C(x_n - 1, N - n)."""
    p, q = F(p2, 2), F(q2, 2)
    t = build_trial(WeakSeries(coeffs), ScalingLaw(p, q), omega)
    N = len(coeffs) - 1
    y = alpha * Omega ** -float(q)
    v = (omega - Omega) * (omega + Omega) / Omega**2
    k = [a * (p - q * n) * binom_general((p - q * n) / 2 - 1, N - n)
         for n, a in enumerate(coeffs)]
    value = Omega ** float(p - 1) * math.fsum(float(c) * y**n * v ** (N - n)
                                              for n, c in enumerate(k))
    scale = t.deriv_scale(alpha, Omega, 1)
    assert abs(t.deriv(alpha, Omega, 1) - value) <= 1e-13 * scale + SUBNORMAL_FLOOR


def test_branch_roots_closed_forms():
    # first-order oscillator: K(r) = -1/4 - 3 r / 2; with alpha = g/4 the
    # branch alpha/(-r) = Omega (Omega^2 - 1) is the cubic aho_omega1 solves
    s, law = WeakSeries([F(1, 2), F(3, 4)]), ScalingLaw(1, 3)
    (r,) = branch_roots(s, law)
    assert r == pytest.approx(-1 / 6, rel=1e-15)
    t = build_trial(s, law)
    for g in (1e-3, 1.0, 1e3):
        Om = aho_omega1(g, 0.75)
        assert g / 4 / -r == pytest.approx(Om * (Om - 1) * (Om + 1), rel=1e-12)
    assert t.branch_roots == (r,)
    # order-3 mass series: K(r) = -r/16 + r^3/20, roots 0 and +-sqrt(5)/2
    roots = branch_roots(WeakSeries([1, F(1, 6), F(1, 50), F(1, 20)]), ScalingLaw(4, 1))
    assert roots == (pytest.approx(-math.sqrt(5) / 2, rel=1e-15),)
    # a pure power has a constant K: no branch
    assert branch_roots(WeakSeries([1]), ScalingLaw(2, 1)) == ()


def test_branch_roots_beyond_the_float_ratio():
    # K(r) = 3 a_0/8 - 5 a_2 r^2: |k_0/k_2| ~ 1e-401 underflows, its root does not
    a0, a2 = F(1e-200), F(1e200)
    ratio = F(3, 8) * a0 / (5 * a2)
    with mpmath.workdps(30):
        exact = -float(mpmath.sqrt(mpmath.mpf(ratio.numerator) / ratio.denominator))
    (r,) = branch_roots(WeakSeries([a0, 0, a2]), ScalingLaw(1, 3))
    assert r == pytest.approx(exact, rel=1e-15)
    # K(r) = -a_0/2 - 2 a_1 r: the root a_0/(4 a_1) ~ 2.5e-401 is below every float
    with pytest.raises(FloatOverflow):
        branch_roots(WeakSeries([a0, a2]), ScalingLaw(1, 3))
