"""Truncated power series in w = 1/z for F-transforms.

An F-transform F(z) = z + a_0 + a_1/z + ... is held as the coefficient
list ``[1, p_1, ..., p_K]`` of P(w) = F(z)/z = 1 + p_1 w + ... + p_K w^K,
a power series in w = 1/z truncated after w^K.  Every operation below
returns the exact coefficients up to w^K of its (truncated) inputs, so no
validity bookkeeping is needed, and ints and ``fractions.Fraction`` stay
exact; floats and complex numbers work too.
"""

from .measures import NcprobError


def _mul(a, b, n):
    """The first n coefficients of the product of a and b; zero terms (every
    odd one for a symmetric law) are skipped."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i]):
                if y:
                    out[i + j] += x * y
    return out


def _reciprocal(p):
    """1/P, for P with leading coefficient 1."""
    out = [1]
    for k in range(1, len(p)):
        out.append(-sum(x * out[k - i]
                        for i, x in enumerate(p[1:k + 1], 1) if x))
    return out


def _compose(a, b):
    """P of F_a(F_b(z)), which is P_b(w) * P_a(w / P_b(w)), to the shorter
    order; P_a(q) runs by Horner in q = w / P_b, keeping at each depth j
    only the coefficients that survive the factor q^j."""
    n = min(len(a), len(b))
    r = _reciprocal(b[:n])
    acc = [a[n - 1]]
    for k in range(n - 2, -1, -1):
        acc = [a[k]] + _mul(r, acc, n - 1 - k)
    return _mul(b, acc, n)


def compose_power(series, n):
    """n-fold self-composition by binary exponentiation."""
    if n < 0:
        raise NcprobError("composition power must be >= 0")
    result = [1] + [0] * (len(series) - 1)
    base = series
    while n:
        if n & 1:
            result = _compose(base, result)
        n >>= 1
        if n:
            base = _compose(base, base)
    return result


def _dilate(p, lam):
    """P of lam * F(z / lam), the F-transform of the pushforward of the law
    under x -> lam * x: p_k becomes p_k * lam^k."""
    return [c * lam ** k for k, c in enumerate(p)]

