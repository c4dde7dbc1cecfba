from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncprob.measures import NcprobError
from ncprob.series import LaurentSeries, compose_power


def f_like(coeffs):
    """z + c0 + c1/z + ... from a list of subleading coefficients."""
    return LaurentSeries(1, [1] + list(coeffs))


rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=12
)


class TestArithmetic:
    def test_add_aligns_ranges(self):
        a = LaurentSeries(1, [1, 2, 3], -1)
        b = LaurentSeries(0, [5, 7], -1)
        s = a + b
        assert s.coeff(1) == 1 and s.coeff(0) == 7 and s.coeff(-1) == 10

    def test_mul_tracks_validity(self):
        a = f_like([0, Fraction(1, 2), 5])   # valid down to z^-2
        b = a * a
        # product of two top-degree-1 series is exact only down to valid+1
        assert b.valid == -1
        assert b.coeff(2) == 1
        assert b.coeff(1) == 0

    def test_coeff_below_floor_raises(self):
        a = f_like([1, 2])
        with pytest.raises(NcprobError,
                           match=r"coefficient of z\^-5 lost to truncation"):
            a.coeff(-5)

    def test_reciprocal_of_g_series(self):
        # G of a point mass at c: 1/z + c/z^2 + c^2/z^3 + ...
        g = LaurentSeries.from_moments([2, 4, 8, 16])
        f = g.reciprocal()
        assert f.coeff(1) == 1
        assert f.coeff(0) == -2
        for p in range(f.valid, 0):
            assert f.coeff(p) == 0

    @given(st.lists(rationals, min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_reciprocal_roundtrip(self, coeffs):
        f = f_like(coeffs)
        back = f.reciprocal().reciprocal()
        for p in range(max(back.valid, f.valid), 2):
            assert back.coeff(p) == f.coeff(p)

    def test_sqrt_of_slit_polynomial(self):
        # sqrt((z-u)^2 - 4n) = z - u - 2n/z - 2nu/z^2 - ...
        u, n = Fraction(1), 2
        pol = LaurentSeries(2, [1, -2 * u, u * u - 4 * n, 0, 0, 0, 0], -4)
        root = pol.sqrt()
        assert root.coeff(1) == 1
        assert root.coeff(0) == -1
        assert root.coeff(-1) == -4
        assert root.coeff(-2) == -4
        square = root * root
        for p in range(square.valid, 3):
            assert square.coeff(p) == pol.coeff(p)

    def test_dilate_is_pushforward_scaling(self):
        # F of delta_c is z - c; pushforward by x -> 2x gives z - 2c
        f = LaurentSeries(1, [1, -3, 0, 0], -2)
        g = f.dilate(2)
        assert g.coeff(1) == 1 and g.coeff(0) == -6


class TestComposition:
    def test_requires_normalized_inner(self):
        with pytest.raises(NcprobError,
                           match="composition requires a normalized z"):
            f_like([1]).compose(LaurentSeries(1, [2, 0, 0]))

    def test_translation_composition(self):
        # (z - a) o (z - b) = z - a - b
        fa = f_like([-2, 0, 0, 0])
        fb = f_like([-5, 0, 0, 0])
        comp = fa.compose(fb)
        assert comp.coeff(0) == -7
        assert all(comp.coeff(p) == 0 for p in range(comp.valid, 0))

    @given(st.lists(rationals, min_size=3, max_size=5),
           st.lists(rationals, min_size=3, max_size=5),
           st.lists(rationals, min_size=3, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_associativity(self, a, b, c):
        fa, fb, fc = f_like(a), f_like(b), f_like(c)
        lhs = fa.compose(fb).compose(fc)
        rhs = fa.compose(fb.compose(fc))
        for p in range(max(lhs.valid, rhs.valid), 2):
            assert lhs.coeff(p) == rhs.coeff(p)

    def test_compose_power_translation(self):
        f = f_like([Fraction(1, 3), 0, 0, 0, 0])
        out = compose_power(f, 9)
        assert out.coeff(0) == 3

    def test_compose_power_matches_iteration(self):
        f = f_like([0, Fraction(-1, 2), Fraction(1, 4), 0, 0])
        slow = LaurentSeries.identity(-f.valid)
        for _ in range(5):
            slow = f.compose(slow)
        fast = compose_power(f, 5)
        for p in range(max(slow.valid, fast.valid), 2):
            assert fast.coeff(p) == slow.coeff(p)


class TestMoments:
    def test_from_moments_roundtrip(self):
        m = [Fraction(1, 2), 2, Fraction(-1, 3), 5]
        g = LaurentSeries.from_moments(m)
        assert list(g.moments(4)) == m

    def test_f_g_roundtrip_is_lossless(self):
        m = [0, 1, 0, 2, 0, 5]
        g = LaurentSeries.from_moments(m)
        back = g.reciprocal().reciprocal()
        assert list(back.moments(6)) == m
