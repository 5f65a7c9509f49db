import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varinterp.series import (
    LaurentPoly,
    ScalingLaw,
    StrongSeries,
    WeakSeries,
    binom_general,
    scan_roots,
)

F = Fraction


class TestBinom:
    def test_integer_cases(self):
        assert binom_general(5, 2) == 10
        assert binom_general(4, 0) == 1
        assert binom_general(3, 5) == 0  # nonnegative integer upper index, j too big

    def test_half_integer(self):
        # (1/2 choose 2) = (1/2)(-1/2)/2
        assert binom_general(F(1, 2), 2) == F(-1, 8)
        assert binom_general(F(1, 2), 1) == F(1, 2)
        # appears as the j = 2 weight of the leading oscillator reexpansion term
        assert binom_general(F(1, 2), 3) == F(1, 16)

    def test_negative_half(self):
        assert binom_general(F(-1, 2), 1) == F(-1, 2)
        assert binom_general(F(-1, 2), 2) == F(3, 8)

    def test_pascal_recurrence(self):
        rng = random.Random(7)
        for _ in range(50):
            x = F(rng.randint(-20, 20), rng.randint(1, 7))
            j = rng.randint(1, 8)
            assert binom_general(x, j) + binom_general(x, j - 1) == binom_general(x + 1, j)

    def test_negative_j_rejected(self):
        with pytest.raises(ValueError):
            binom_general(F(1, 2), -1)


class TestWeakSeries:
    def test_polaron_energy_partial_sum(self):
        s = WeakSeries([1.0, 0.0159196220, 0.000806070048])
        assert s.eval(1.0) == pytest.approx(1.016725692048, rel=1e-12)

    def test_polaron_mass_partial_sum(self):
        s = WeakSeries([1, F(1, 6), 0.02362763])
        assert s.eval(2.0) == pytest.approx(1.0 + 2.0 / 6.0 + 0.02362763 * 4.0,
                                            rel=1e-15)

    def test_extended(self):
        s = WeakSeries([F(1, 2)]).extended([F(3, 4)])
        assert s.order == 1
        assert s.coeffs == (F(1, 2), F(3, 4))

    def test_coefficients_are_exact(self):
        s = WeakSeries([0.5, 0.25])
        assert s.coeffs == (F(1, 2), F(1, 4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            WeakSeries([])


class TestStrongSeries:
    def test_mass_leading_term(self):
        s = StrongSeries(ScalingLaw(4, 1), [0.0227019])
        assert s.eval(10.0) == pytest.approx(227.019, rel=1e-12)

    def test_energy_two_terms(self):
        s = StrongSeries(ScalingLaw(1, 1), [0.108513, 2.836])
        # alpha * (b0 + b1 / alpha^2) at alpha = 100
        assert s.eval(100.0) == pytest.approx(10.87966, rel=1e-10)

    def test_fractional_powers(self):
        s = StrongSeries(ScalingLaw(1, 3), [2.0, 5.0])
        a = 8.0
        assert s.eval(a) == pytest.approx(2.0 * a ** (1 / 3) + 5.0 * a ** (-1 / 3),
                                          rel=1e-14)

    def test_nonpositive_alpha_rejected(self):
        s = StrongSeries(ScalingLaw(1, 1), [1.0])
        with pytest.raises(ValueError):
            s.eval(0.0)

    def test_law_validation(self):
        with pytest.raises(ValueError):
            ScalingLaw(1, 0)


def random_poly(rng, nterms=6):
    out = LaurentPoly.zero()
    for _ in range(nterms):
        out = out + LaurentPoly.term(
            F(rng.randint(-9, 9), rng.randint(1, 5)),
            twice_exp=2 * rng.randint(-4, 4),
            w2_pow=rng.randint(0, 2),
        )
    return out


class TestLaurentPoly:
    def test_ring_identities(self):
        rng = random.Random(11)
        for _ in range(20):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert a - a == LaurentPoly.zero()

    def test_diff_product_rule(self):
        rng = random.Random(5)
        for _ in range(10):
            a, b = random_poly(rng, 4), random_poly(rng, 4)
            assert (a * b).diff() == a.diff() * b + a * b.diff()

    def test_half_integer_exponents(self):
        p = LaurentPoly.term(F(3, 2), twice_exp=1)  # (3/2) X^(1/2)
        assert p.eval(4.0) == pytest.approx(3.0)
        assert p.diff().eval(4.0) == pytest.approx(F(3, 4) / 2.0)

    def test_eval_with_omega(self):
        # w^2 / X at X = 2, w = 3
        p = LaurentPoly.term(1, twice_exp=-2, w2_pow=1)
        assert p.eval(2.0, 3.0) == pytest.approx(4.5)

    def test_subs_w(self):
        p = LaurentPoly.term(1, 2, 1) + LaurentPoly.term(2, 2, 0)
        q = p.subs_w(F(1, 2))
        assert q == LaurentPoly.term(F(9, 4), 2)

    def test_eval_abs_bounds_eval(self):
        rng = random.Random(13)
        for _ in range(10):
            p = random_poly(rng)
            x = 10.0 ** rng.uniform(-1, 1)
            assert abs(p.eval(x)) <= p.eval_abs(x) + 1e-15

    def test_eval_needs_positive_argument(self):
        with pytest.raises(ValueError):
            LaurentPoly.one().eval(0.0)

    def test_zero_coefficients_pruned(self):
        p = LaurentPoly.term(1, 2) - LaurentPoly.term(1, 2)
        assert p.is_zero()
        assert list(p.items()) == []


def product_poly(roots, scale):
    """scale * prod(x - r) and its derivative, in product form so that both
    stay accurate next to each root."""

    def f(x):
        return scale * math.prod(x - r for r in roots)

    def df(x):
        return scale * sum(math.prod(x - r for r in roots[:i] + roots[i + 1:])
                           for i in range(len(roots)))

    return f, df


class TestScanRoots:
    LO, HI, POINTS = 1e-3, 1e3, 60

    def grid(self):
        return [self.LO * (self.HI / self.LO) ** (i / (self.POINTS - 1))
                for i in range(self.POINTS)]

    @settings(max_examples=200, deadline=None)
    @given(
        cells=st.lists(st.integers(0, 58), min_size=1, max_size=5, unique=True),
        data=st.data(),
        scale=st.sampled_from([-3.5, -1e-6, 1e-3, 1.0, 2.0e5]),
    )
    def test_simple_roots_polished_inside_their_cells(self, cells, data, scale):
        grid = self.grid()
        cells = sorted(cells)
        fracs = data.draw(st.lists(st.floats(0.01, 0.99), min_size=len(cells),
                                   max_size=len(cells)))
        known = [grid[j] * (grid[j + 1] / grid[j]) ** t for j, t in zip(cells, fracs)]
        f, df = product_poly(known, scale)
        found = scan_roots(f, df, self.LO, self.HI, self.POINTS)
        assert len(found) == len(known)
        for j, r, x in zip(cells, known, found):
            assert grid[j] <= x <= grid[j + 1]
            assert abs(x - r) <= 1e-13 * r

    def test_extra_nodes_split_a_cell(self):
        # two roots in one grid cell give no sign change between its nodes;
        # a node between them brings both back
        grid = self.grid()
        a, b = grid[20], grid[21]
        r1, r2 = a + 0.3 * (b - a), a + 0.6 * (b - a)
        f, df = product_poly([r1, r2], 1.0)
        assert scan_roots(f, df, self.LO, self.HI, self.POINTS) == []
        found = scan_roots(f, df, self.LO, self.HI, self.POINTS, extra=[0.5 * (r1 + r2)])
        assert found == pytest.approx([r1, r2], rel=1e-13)

    def test_exact_zero_on_a_node(self):
        grid = self.grid()
        f, df = product_poly([grid[10]], 1.0)
        assert scan_roots(f, df, self.LO, self.HI, self.POINTS) == [grid[10]]
