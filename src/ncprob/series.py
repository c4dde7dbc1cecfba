"""Truncated Laurent series arithmetic.

Series are finite sums ``sum_p c_p z^p`` over a contiguous power range
``valid <= p <= top``.  Every operation tracks how far down the result's
coefficients remain exact given the truncation of the inputs (the ``valid``
floor), so round trips such as moments -> F-series -> moments are provably
lossless at the advertised order.

Coefficients may be ints, ``fractions.Fraction``, floats or complex numbers;
arithmetic stays exact whenever all inputs are exact.
"""

from fractions import Fraction

from .measures import NcprobError


class LaurentSeries:
    """A truncated Laurent series with a validity floor.

    ``coeffs[i]`` holds the coefficient of ``z**(top - i)``; the list spans
    the powers ``top`` down to ``valid`` inclusive.  Coefficients below
    ``valid`` are unknown (dropped by truncation), not zero.
    """

    __slots__ = ("top", "coeffs", "valid")

    def __init__(self, top, coeffs, valid=None):
        coeffs = list(coeffs)
        if valid is None:
            valid = top - len(coeffs) + 1
        if top - valid + 1 != len(coeffs):
            raise NcprobError("coefficient list does not match power range")
        self.top = top
        self.coeffs = coeffs
        self.valid = valid

    # -- construction -----------------------------------------------------

    @classmethod
    def identity(cls, order):
        """The series z, valid down to z**(-order)."""
        return cls(1, [1] + [0] * (order + 1), -order)

    @classmethod
    def constant(cls, c, order):
        return cls(0, [c] + [0] * order, -order)

    @classmethod
    def from_moments(cls, moments, order=None):
        """Cauchy-transform series 1/z + m_1/z^2 + ... + m_K/z^(K+1)."""
        moments = list(moments)
        if order is None:
            order = len(moments)
        if order > len(moments):
            raise NcprobError("not enough moments for requested order")
        return cls(-1, [1] + moments[:order], -order - 1)

    # -- accessors ---------------------------------------------------------

    def coeff(self, power):
        """Coefficient of z**power; raises if below the validity floor."""
        if power < self.valid:
            raise NcprobError(f"coefficient of z^{power} lost to truncation")
        if power > self.top:
            return 0
        return self.coeffs[self.top - power]

    def moments(self, order):
        """Extract (m_1, ..., m_order) from a Cauchy-transform series."""
        for p in range(min(self.top, 1), -1, -1):
            if p >= self.valid and self.coeff(p) != 0:
                raise NcprobError("series is not of Cauchy-transform type")
        if self.coeff(-1) != 1:
            raise NcprobError("leading 1/z coefficient is not 1")
        return tuple(self.coeff(-1 - k) for k in range(1, order + 1))

    def __repr__(self):
        terms = ", ".join(
            f"z^{self.top - i}: {c}" for i, c in enumerate(self.coeffs) if c != 0
        )
        return f"LaurentSeries({terms or '0'}; valid>=z^{self.valid})"

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        lo = max(self.valid, other.valid)
        hi = max(self.top, other.top)
        return all(self.coeff(p) == other.coeff(p) for p in range(lo, hi + 1))

    # -- arithmetic ---------------------------------------------------------

    def _as_range(self, top, valid):
        return [self.coeff(p) if p <= self.top else 0
                for p in range(top, valid - 1, -1)]

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            other = LaurentSeries.constant(other, -min(self.valid, 0))
        top = max(self.top, other.top)
        valid = max(self.valid, other.valid)
        if valid > top:
            raise NcprobError("empty power range after truncation alignment")
        a = self._as_range(top, valid)
        b = other._as_range(top, valid)
        return LaurentSeries(top, [x + y for x, y in zip(a, b)], valid)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries(self.top, [-c for c in self.coeffs], self.valid)

    def __sub__(self, other):
        if not isinstance(other, LaurentSeries):
            other = LaurentSeries.constant(other, -min(self.valid, 0))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        return LaurentSeries(self.top, [c * x for x in self.coeffs], self.valid)

    def dilate(self, lam):
        """Series of lam * f(z / lam): the F- and B-transform scaling law for
        the pushforward of a measure under x -> lam*x."""
        return LaurentSeries(
            self.top,
            [lam ** (1 - (self.top - i)) * c
             for i, c in enumerate(self.coeffs)],
            self.valid,
        )

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries):
            return self.scale(other)
        top = self.top + other.top
        valid = max(self.valid + other.top, other.valid + self.top)
        if valid > top:
            raise NcprobError("product has no valid coefficients left")
        out = [0] * (top - valid + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            pa = self.top - i
            for j, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                p = pa + (other.top - j)
                if p < valid:
                    break
                out[top - p] = out[top - p] + a * b
        return LaurentSeries(top, out, valid)

    __rmul__ = __mul__

    def reciprocal(self):
        """Multiplicative inverse, exact down to z**(valid - 2*lead)."""
        lead = None
        for i, c in enumerate(self.coeffs):
            if c != 0:
                lead = self.top - i
                break
        if lead is None:
            raise ZeroDivisionError("reciprocal of (truncated) zero series")
        c0 = self.coeff(lead)
        n = lead - self.valid  # number of known sub-leading coefficients
        a = [self.coeff(lead - i) for i in range(n + 1)]
        inv_c0 = _invert(c0)
        b = [inv_c0] + [0] * n
        for k in range(1, n + 1):
            acc = 0
            for i in range(1, k + 1):
                acc = acc + a[i] * b[k - i]
            b[k] = -inv_c0 * acc
        return LaurentSeries(-lead, b, self.valid - 2 * lead)

    def sqrt(self):
        """Square root branch with leading term +sqrt(c)*z^(p/2).

        The leading power p must be even.  Exact when the leading
        coefficient is a perfect rational square.
        """
        lead = None
        for i, c in enumerate(self.coeffs):
            if c != 0:
                lead = self.top - i
                break
        if lead is None:
            raise ZeroDivisionError("sqrt of (truncated) zero series")
        if lead % 2:
            raise NcprobError("sqrt needs an even leading power")
        m = lead // 2
        n = lead - self.valid
        s = [self.coeff(lead - i) for i in range(n + 1)]
        t0 = _sqrt_number(s[0])
        t = [t0] + [0] * n
        half = _invert(2 * t0)
        for k in range(1, n + 1):
            acc = 0
            for i in range(1, k):
                acc = acc + t[i] * t[k - i]
            t[k] = (s[k] - acc) * half
        return LaurentSeries(m, t, self.valid - m)

    def compose(self, inner):
        """Evaluate this series at another one.

        ``inner`` must be normalized of F-transform type (z + c_0 + c_1/z +
        ...), so that negative powers of it stay within the truncation.
        """
        if inner.top != 1 or inner.coeff(1) != 1:
            raise NcprobError(
                "composition requires a normalized z + ... inner series")
        if self.top > 1:
            raise NcprobError("outer series may not have powers above z^1")
        out = None
        inv = None
        inv_pow = None
        for i, c in enumerate(self.coeffs):
            p = self.top - i
            if c == 0:
                continue
            if p == 1:
                term = inner.scale(c)
            elif p == 0:
                term = LaurentSeries.constant(c, -min(inner.valid, 0))
            else:
                if inv is None:
                    inv = inner.reciprocal()
                    inv_pow = {1: inv}
                if p not in inv_pow:
                    q = max(k for k in inv_pow if k <= -p)
                    acc = inv_pow[q]
                    while q < -p:
                        acc = acc * inv
                        q += 1
                        inv_pow[q] = acc
                term = inv_pow[-p].scale(c)
            out = term if out is None else out + term
        if out is None:
            return LaurentSeries.constant(0, -min(inner.valid, 0))
        # truncation of the outer series caps validity at its own floor
        if self.valid > out.valid:
            out = LaurentSeries(out.top, out._as_range(out.top, self.valid),
                                self.valid)
        return out


def _invert(c):
    if isinstance(c, (int, Fraction)):
        return Fraction(1, 1) / c
    return 1.0 / c if not isinstance(c, complex) else (1 + 0j) / c


def _sqrt_number(c):
    import math

    if isinstance(c, (int, Fraction)):
        f = Fraction(c)
        rn, rd = math.isqrt(f.numerator), math.isqrt(f.denominator)
        if rn * rn == f.numerator and rd * rd == f.denominator:
            return Fraction(rn, rd)
        return math.sqrt(float(c))
    return c ** 0.5


def compose_power(series, n):
    """n-fold self-composition by binary exponentiation."""
    if n < 0:
        raise NcprobError("composition power must be >= 0")
    order = -series.valid
    result = LaurentSeries.identity(order)
    base = series
    while n:
        if n & 1:
            result = base.compose(result)
        n >>= 1
        if n:
            base = base.compose(base)
    return result
