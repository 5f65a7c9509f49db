import math
from fractions import Fraction

import pytest

from varinterp.errors import DegenerateCurvature, NoExtremum
from varinterp.models import builtin
from varinterp.reexpand import branch_roots
from varinterp.series import LaurentPoly, ScalingLaw, StrongSeries, WeakSeries
from varinterp.solvers import extend_model
from varinterp.strong_limit import (
    StrongCoeffs,
    b_of_c,
    b_poly,
    coeff_basis_poly,
    correct_bn,
    optimize_c,
)

F = Fraction


def test_oscillator_b0_polynomial():
    # first-order oscillator: b_0(c) = c/4 + a1 / c^2
    s = WeakSeries([F(1, 2), F(3, 4)])
    p = b_poly(s, ScalingLaw(1, 3), 0)
    assert p == LaurentPoly.term(F(1, 4), 2) + LaurentPoly.term(F(3, 4), -4)


def test_mass_b0_polynomial():
    # order-3 mass series: b_0(c) = a0 c^4 u-sum ... collapses to
    # -a1 c^3 / 8 + a3 c with the quartic scaling law
    s = WeakSeries([1, F(1, 6), F(1, 50), F(1, 20)])
    p = b_poly(s, ScalingLaw(4, 1), 0)
    assert p == LaurentPoly.term(-F(1, 6) / 8, 6) + LaurentPoly.term(F(1, 20), 2)


def test_basis_poly_half_integer_weights():
    # energy law, order 4: leading c-weights 35/128 (l = 0) and 15/8 (l = 2)
    law = ScalingLaw(1, 1)
    assert coeff_basis_poly(0, 4, law, 0).coeff(2) == F(35, 128)
    assert coeff_basis_poly(2, 4, law, 0).coeff(-2) == F(15, 8)
    assert coeff_basis_poly(1, 4, law, 0).coeff(0) == 1
    assert coeff_basis_poly(3, 4, law, 0).coeff(-4) == 2
    assert coeff_basis_poly(4, 4, law, 0).coeff(-6) == 1


def test_optimize_c_oscillator_closed_form():
    s = WeakSeries([F(1, 2), F(3, 4)])
    sc = optimize_c(s, ScalingLaw(1, 3))
    a1 = 0.75
    assert sc.c == pytest.approx(2.0 * a1 ** (1 / 3), rel=1e-14)
    assert sc.b_raw[0] == pytest.approx(0.75 * a1 ** (1 / 3), rel=1e-13)


def test_optimize_c_mass_closed_form():
    s = WeakSeries([1, F(1, 6), F(1, 50), F(1, 20)])
    sc = optimize_c(s, ScalingLaw(4, 1))
    assert sc.c == pytest.approx(math.sqrt(8 * (1 / 20) / (3 * (1 / 6))), rel=1e-13)


def test_no_extremum_for_monotone_b0():
    with pytest.raises(NoExtremum):
        optimize_c(WeakSeries([1]), ScalingLaw(4, 1))


def bender_wu(N):
    """Exact a_0..a_N of E(lambda) for H = p^2/2 + x^2/2 + lambda x^4.

    Rayleigh-Schroedinger recursion of Bender & Wu, Phys. Rev. 184, 1231
    (1969): psi = exp(-x^2/2) sum_n lambda^n sum_j A[n][j] x^(2j).
    """
    A, E = [{0: F(1)}], [F(1, 2)]
    for n in range(1, N + 1):
        row = {}
        for j in range(2 * n, 0, -1):
            rhs = (j + 1) * (2 * j + 1) * row.get(j + 1, 0) - A[n - 1].get(j - 2, 0)
            rhs += sum(E[m] * A[n - m].get(j, 0) for m in range(1, n))
            row[j] = rhs / (2 * j)
        A.append(row)
        E.append(-row[1])
    return E


def test_bender_wu_coefficients():
    assert bender_wu(5) == [F(1, 2), F(3, 4), F(-21, 8), F(333, 16), F(-30885, 128),
                            F(916731, 256)]


# growth constants of the exact oscillator series, from the roots of K
# computed by mpmath.polyroots at 50 digits
EXACT_AHO_C = {6: 2.4371557733757947, 12: 2.7926660240728273,
               19: 3.0440070765955577, 24: 3.6820164356510923}


@pytest.mark.parametrize("N", sorted(EXACT_AHO_C))
def test_optimize_c_exact_oscillator_series(N):
    sc = optimize_c(WeakSeries(bender_wu(N)), ScalingLaw(1, 3))
    assert sc.c == pytest.approx(EXACT_AHO_C[N], rel=1e-14)


def test_branch_roots_counts_on_exact_oscillator_series():
    # number of negative real roots of K at N = 1..24, from mpmath.polyroots
    # at 50 digits; the high orders need the rescaled numpy.roots candidates
    E = bender_wu(24)
    counts = [len(branch_roots(WeakSeries(E[:N + 1]), ScalingLaw(1, 3))) for N in range(1, 25)]
    assert counts == [1, 0, 1, 0, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2]


@pytest.mark.parametrize("N", [2, 4])
def test_exact_oscillator_series_without_extremum(N):
    # K has no negative root at these orders: b_0(c) is monotone
    with pytest.raises(NoExtremum):
        optimize_c(WeakSeries(bender_wu(N)), ScalingLaw(1, 3))


def test_b_of_c_validation():
    s = WeakSeries([F(1, 2), F(3, 4)])
    with pytest.raises(ValueError):
        b_of_c(s, ScalingLaw(1, 3), 0, -1.0)
    with pytest.raises(ValueError):
        b_poly(s, ScalingLaw(1, 3), -1)


def test_correct_bn_identity_on_pure_minimum():
    # b_0 = c^2 - 2c + 3 with all higher coefficients zero: every shift
    # and every correction must vanish
    X = LaurentPoly.term
    p0 = X(1, 4) - X(2, 2) + X(3)
    zero = LaurentPoly.zero()
    sc = StrongCoeffs(c=1.0, b_raw=(2.0, 0.0, 0.0, 0.0, 0.0),
                      polys=(p0, zero, zero, zero, zero))
    out = correct_bn(sc)
    assert out.shifts == (0.0, 0.0, 0.0)
    assert out.b_final == (2.0, 0.0, 0.0, 0.0, 0.0)


def test_correct_bn_degenerate_curvature():
    X = LaurentPoly.term
    p0 = X(1, 2)  # linear: b0'' = 0
    zero = LaurentPoly.zero()
    sc = StrongCoeffs(c=1.0, b_raw=(1.0, 0.0, 0.0, 0.0, 0.0),
                      polys=(p0, zero, zero, zero, zero))
    with pytest.raises(DegenerateCurvature):
        correct_bn(sc)


def test_mass_corrected_coefficients():
    """Corrected mass coefficients against their published values."""
    ext, _ = extend_model(builtin("polaron_mass"))
    sc = correct_bn(optimize_c(ext.weak, ext.law))
    assert sc.b_final[0] == pytest.approx(0.0227019, abs=2e-7)
    assert sc.b_final[1] == pytest.approx(0.125722, abs=2e-6)
    assert sc.b_final[2] == pytest.approx(1.15304, abs=5e-5)
    # leading pair untouched by the correction scheme
    assert sc.b_final[:2] == sc.b_raw[:2]


def test_corrected_series_matches_trial_at_large_coupling():
    """The strong series with final coefficients reproduces the optimized
    approximant deep in the strong-coupling regime."""
    from varinterp.solvers import interpolant

    ext, _ = extend_model(builtin("polaron_mass"))
    sc = correct_bn(optimize_c(ext.weak, ext.law))
    series = StrongSeries(ext.law, sc.b_final)
    for pt in interpolant(ext, [1e3, 1e4]):
        assert pt.value == pytest.approx(series.eval(pt.alpha), rel=1e-9)
