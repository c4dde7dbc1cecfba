from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncprob import transforms as tr
from ncprob.measures import MomentSequence, NcprobError, Semicircle
from ncprob.series import _compose, _dilate, _mul, _reciprocal, compose_power


def f_like(coeffs):
    """P of z + c0 + c1/z + ...: [1, c0, c1, ...]."""
    return [1] + list(coeffs)


rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=12
)


class TestArithmetic:
    def test_mul_truncates(self):
        # (1 + w)^2 = 1 + 2w + w^2, kept to w^1
        assert _mul([1, 1], [1, 1], 2) == [1, 2]

    def test_coeff_below_floor_raises(self):
        # an F-series to w^4 holds four moments; a fifth is lost
        f = tr.f_series(Semicircle(0, 1).moments(4))
        assert tr.series_moments(f, 4) == Semicircle(0, 1).moments(4)
        with pytest.raises(NcprobError,
                           match=r"an F-series to w\^4 holds 4 moments, "
                                 "not 5"):
            tr.series_moments(f, 5)

    def test_reciprocal_of_g_series(self):
        # G of a point mass at c: 1/z + c/z^2 + c^2/z^3 + ..., so F = z - c
        assert _reciprocal([1, 2, 4, 8, 16]) == [1, -2, 0, 0, 0]

    @given(st.lists(rationals, min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_reciprocal_roundtrip(self, coeffs):
        f = f_like(coeffs)
        assert _reciprocal(_reciprocal(f)) == f
        assert _mul(f, _reciprocal(f), len(f)) == [1] + [0] * len(coeffs)

    def test_sqrt_of_slit_polynomial(self):
        # the spidernet's F is u + sqrt((z-u)^2 - 4n), and
        # sqrt((z-u)^2 - 4n) = z - u - 2n/z - 2nu/z^2 - ...
        u, n = Fraction(1), 2
        pol = [1, -2 * u, u * u - 4 * n, 0, 0, 0, 0]
        f = tr.free_meixner_f_series(n, u, len(pol) - 1)
        root = [1, f[1] - u, *f[2:]]
        assert root[:4] == [1, -1, -4, -4]
        assert _mul(root, root, len(pol)) == pol

    def test_dilate_is_pushforward_scaling(self):
        # F of delta_c is z - c; pushforward by x -> 2x gives z - 2c
        assert _dilate([1, -3, 0, 0], 2) == [1, -6, 0, 0]


class TestComposition:
    def test_translation_composition(self):
        # (z - a) o (z - b) = z - a - b
        assert _compose(f_like([-2, 0, 0, 0]), f_like([-5, 0, 0, 0])) \
            == f_like([-7, 0, 0, 0])

    def test_truncates_to_the_shorter(self):
        assert len(_compose(f_like([1, 2, 3]), f_like([4]))) == 2

    @given(st.lists(rationals, min_size=3, max_size=5),
           st.lists(rationals, min_size=3, max_size=5),
           st.lists(rationals, min_size=3, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_associativity(self, a, b, c):
        fa, fb, fc = f_like(a), f_like(b), f_like(c)
        assert _compose(_compose(fa, fb), fc) == _compose(fa, _compose(fb, fc))

    def test_compose_power_translation(self):
        f = f_like([Fraction(1, 3), 0, 0, 0, 0])
        assert compose_power(f, 9)[1] == 3

    @given(st.lists(rationals, min_size=1, max_size=5),
           st.integers(0, 9))
    @settings(max_examples=30, deadline=None)
    def test_compose_power_matches_iteration(self, coeffs, n):
        f = f_like(coeffs)
        slow = f_like([0] * len(coeffs))
        for _ in range(n):
            slow = _compose(f, slow)
        assert compose_power(f, n) == slow

    def test_negative_power(self):
        with pytest.raises(NcprobError, match="must be >= 0"):
            compose_power(f_like([1]), -1)


class TestMoments:
    def test_from_moments_roundtrip(self):
        g = [1, Fraction(1, 2), 2, Fraction(-1, 3), 5]
        assert _reciprocal(_reciprocal(g)) == g

    def test_f_g_roundtrip_is_lossless(self):
        m = MomentSequence((0, 1, 0, 2, 0, 5))
        assert tr.series_moments(tr.f_series(m), 6) == m
