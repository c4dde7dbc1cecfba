"""The five additive convolutions and their limit-theorem drivers.

Moment-level arithmetic is exact (rational inputs stay rational): classical
via binomial sums, Boolean and free via cumulant addition, monotone via
composition of truncated F-series.  Measure-level convolutions of atomic
measures are atomic but for the free kind: classical by pairing atoms,
Boolean and monotone as spectral measures of small symmetric matrices.  The
free kind recovers its measure from the subordination F-map by inversion.
"""

import math
from fractions import Fraction

import numpy as np

from . import transforms as tr
from .measures import (AtomicMeasure, MomentSequence, NcprobError,
                       _check_count, _spectral_pairs)
from .series import _compose, _dilate, compose_power

KINDS = ("classical", "boolean", "free", "monotone", "antimonotone")


def _check_kind(kind):
    if kind not in KINDS:
        raise NcprobError(f"unknown convolution kind {kind!r}; one of {KINDS}")


# ---------------------------------------------------------------------------
# moment level
# ---------------------------------------------------------------------------

def _convolve_moments(kind, a, b):
    if a.order != b.order:
        raise NcprobError(
            f"moment orders differ: {a.order} vs {b.order}"
        )
    k = a.order
    if kind == "classical":
        av, bv = [1] + list(a.values), [1] + list(b.values)
        vals = [sum(math.comb(n, j) * av[j] * bv[n - j] for j in range(n + 1))
                for n in range(1, k + 1)]
        return MomentSequence(tuple(vals))
    if kind in tr.CUMULANT_KINDS:
        ca = tr.moments_to_cumulants(kind, a)
        cb = tr.moments_to_cumulants(kind, b)
        return tr.cumulants_to_moments(kind, [x + y for x, y in zip(ca, cb)])
    if kind == "antimonotone":
        return _convolve_moments("monotone", b, a)
    comp = _compose(tr.f_series(a), tr.f_series(b))
    return tr.series_moments(comp, k)


# ---------------------------------------------------------------------------
# measure level (atomic inputs)
# ---------------------------------------------------------------------------

def _default_grid(mu, nu):
    lo1, hi1 = mu.support_bounds()
    lo2, hi2 = nu.support_bounds()
    r = max(abs(lo1), abs(hi1)) + max(abs(lo2), abs(hi2))
    pad = 0.1 * r + 0.1
    return np.linspace(-(r + pad), r + pad, 2001)


def _root_form(mu):
    """H diag(positions) H, with H the Householder reflection taking e_0 to
    -sqrt(weights): a matrix whose spectral measure at e_0 is ``mu``."""
    u = np.sqrt(mu.weights)
    u[0] += 1.0  # u = e_0 + sqrt(weights), stable as its entries are >= 0
    h = np.eye(len(u)) - np.outer(u, u) / u[0]
    return (h * mu.positions) @ h


def _convolve_measures(kind, mu, nu):
    if not (isinstance(mu, AtomicMeasure) and isinstance(nu, AtomicMeasure)):
        raise NcprobError("measure-level convolution expects atomic inputs")
    if kind == "classical":
        pairs = {}
        for x, w in mu.atoms:
            for y, v in nu.atoms:
                key = x + y
                pairs[key] = pairs.get(key, 0) + w * v
        return AtomicMeasure.from_pairs(pairs.items(), merge_tol=1e-12)
    if kind == "antimonotone":
        return _convolve_measures("monotone", nu, mu)
    if kind == "free":
        # subordination: F_{mu+nu}(z) = F_mu(w(z)) with w(z) the fixed point
        # of w -> z + h_nu(z + h_mu(w)), h = F - id = -B (Biane 1998;
        # Belinschi & Bercovici 2007)
        def subordinate(w, z):
            return z - tr.b_transform(nu, z - tr.b_transform(mu, w))

        def fmap(z):
            return tr.f_transform(mu, tr._fixed_point(subordinate, z, 1e-12))
        # atomic transforms evaluate exactly, so a fine ladder is cheap
        return tr.measure_from_ftransform(fmap, _default_grid(mu, nu),
                                          eps_ladder=(2e-3, 1e-3, 5e-4))
    n, m = len(mu.atoms), len(nu.atoms)
    side = n + m - 1 if kind == "boolean" else m
    if side > 4096:
        raise NcprobError(f"{kind} convolution of {n}- and {m}-atom laws "
                          f"needs a dense eigensolve of side {side} > 4096")
    r = _root_form(nu)
    if kind == "boolean":
        # F_mu + F_nu - z: mu's root form, reversed, and nu's share one root
        glued = np.pad(_root_form(mu)[::-1, ::-1], (0, m - 1))
        glued[n - 1:, n - 1:] += r
        return AtomicMeasure.from_pairs(_spectral_pairs(glued, n - 1),
                                        merge_tol=1e-12, renormalize=True)
    # G_mu(F_nu(z)); adding a to nu's root entry lowers F_nu by a
    alpha, pairs = r[0, 0], []
    for a, w in mu.atoms:
        r[0, 0] = alpha + a
        pairs += [(x, float(w) * p) for x, p in _spectral_pairs(r, 0)]
    return AtomicMeasure.from_pairs(pairs, merge_tol=1e-12, renormalize=True)


def convolve(kind, a, b):
    """Convolution of two measures or two moment sequences.

    Both inputs are moment sequences of the same order, or both are
    measures; mixing the two raises ``NcprobError``.  Measures must be
    atomic; the result is atomic for every kind but free, whose result is
    a GridMeasure recovered by Stieltjes inversion.
    """
    _check_kind(kind)
    if isinstance(a, MomentSequence) != isinstance(b, MomentSequence):
        raise NcprobError(
            "convolve needs two moment sequences or two atomic measures")
    if isinstance(a, MomentSequence):
        return _convolve_moments(kind, a, b)
    return _convolve_measures(kind, a, b)


def convolve_power(kind, m, n):
    """Moments of the n-fold self-convolution of a moment sequence."""
    _check_kind(kind)
    if not isinstance(m, MomentSequence):
        raise NcprobError("convolve_power expects a MomentSequence")
    _check_count(n, "convolution count n")
    if kind in tr.CUMULANT_KINDS:
        cum = tr.moments_to_cumulants(kind, m)
        return tr.cumulants_to_moments(kind, [n * c for c in cum])
    comp = compose_power(tr.f_series(m), n)
    return tr.series_moments(comp, m.order)


def boolean_divisibility_root(m, n):
    """The n-th Boolean convolution root: B-transform divided by n."""
    _check_count(n, "root order n")
    cum = tr.moments_to_cumulants("boolean", m)
    return tr.cumulants_to_moments("boolean", [
        Fraction(c) / n if isinstance(c, (int, Fraction)) else c / n
        for c in cum])


def _sqrt_scale(n):
    r = math.isqrt(n)
    if r * r == n:
        return Fraction(1, r)
    return 1.0 / math.sqrt(n)


def _scale_cumulant(c, n, k):
    """c * n^(1 - k/2), exact whenever the power is an integer or c = 0."""
    if c == 0:
        return c
    if k % 2 == 0:
        power = 1 - k // 2
        factor = Fraction(n) ** power if isinstance(c, (int, Fraction)) \
            else float(n) ** power
        return c * factor
    return c * n ** (1 - k / 2)


def clt_iterate(kind, base, n):
    """Moments of the rescaled n-fold self-convolution (x -> x/sqrt(n)).

    The base sequence must be normalized to mean 0 and variance 1.  Exact
    rational arithmetic is preserved when n is a perfect square.
    """
    _check_kind(kind)
    if not isinstance(base, MomentSequence):
        raise NcprobError("clt_iterate expects a MomentSequence")
    if base.order < 2:
        raise NcprobError(
            f"clt_iterate needs a base of order >= 2, got {base.order}")
    if abs(float(base[1])) > 1e-12 or abs(float(base[2]) - 1) > 1e-12:
        raise NcprobError("base must have mean 0 and variance 1")
    _check_count(n, "convolution count n")
    lam = _sqrt_scale(n)
    if kind in ("monotone", "antimonotone"):
        f = tr.f_series(base)
        scaled = _dilate(f, lam)
        return tr.series_moments(compose_power(scaled, n), base.order)
    cum = tr.moments_to_cumulants(kind, base)
    scaled = [_scale_cumulant(c, n, k) for k, c in enumerate(cum, start=1)]
    return tr.cumulants_to_moments(kind, scaled)
