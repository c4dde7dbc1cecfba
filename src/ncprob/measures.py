"""Probability measures on the real line.

Three canonical representations: purely atomic measures, gridded densities
with optional atoms, and truncated moment sequences.  Named laws (point
masses, two-point laws, normal, arcsine, semicircle, Poisson,
Marchenko-Pastur, free Meixner) provide grid realizations, seeded samplers
and exact moments, which one weighted Motzkin-path count takes from the
law's Jacobi parameters.  The four laws with an interval of support
(arcsine, semicircle, Marchenko-Pastur, free Meixner) are one family, whose
Jacobi parameters are constant from the second step; from those numbers
alone each has ``edges()`` of that interval, F = 1/G as ``fmap(z)``, the
Cauchy transform ``cauchy(z)``, its density and its exact ``atoms()``.
"""

import functools
import json
import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class NcprobError(ValueError):
    """Refused input or request; the message names the violated condition."""


class NoConvergence(NcprobError):
    """An iterative solve stalled before its tolerance."""


def sqrt_upper(zeta):
    """Branch of the square root mapping C minus [0, inf) into H."""
    return 1j * np.sqrt(-np.asarray(zeta, dtype=complex))


# ---------------------------------------------------------------------------
# core representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many atoms (position, weight), positions strictly increasing."""

    atoms: tuple

    def __post_init__(self):
        atoms = tuple((x, w) for x, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        xs = [x for x, _ in atoms]
        ws = [w for _, w in atoms]
        if not atoms:
            raise NcprobError("atomic measure needs at least one atom")
        for what, vals in (("position", xs), ("weight", ws)):
            for v in vals:
                if not (_is_real(v) and _is_finite(v)):
                    raise NcprobError(
                        f"atom {what} must be a finite real, got {v!r}")
        if any(w <= 0 for w in ws):
            raise NcprobError("atom weights must be strictly positive")
        if any(xs[i] >= xs[i + 1] for i in range(len(xs) - 1)):
            raise NcprobError("atom positions must be strictly increasing")
        if abs(float(sum(ws)) - 1.0) > 1e-12:
            raise NcprobError(f"atom weights sum to {float(sum(ws))}, not 1")

    @classmethod
    def from_pairs(cls, pairs, merge_tol=0.0, renormalize=False):
        """Build from unsorted (x, w) pairs, merging nearby positions."""
        pairs = sorted((x, w) for x, w in pairs if w > 0)
        merged = []
        for x, w in pairs:
            if merged and x - merged[-1][0] <= merge_tol:
                x0, w0 = merged[-1]
                merged[-1] = ((x0 * w0 + x * w) / (w0 + w), w0 + w)
            else:
                merged.append((x, w))
        if renormalize:
            total = sum(w for _, w in merged)
            merged = [(x, w / total) for x, w in merged]
        return cls(tuple(merged))

    @classmethod
    def dirac(cls, c):
        return cls(((c, 1),))

    @property
    def positions(self):
        return np.array([x for x, _ in self.atoms], dtype=float)

    @property
    def weights(self):
        return np.array([w for _, w in self.atoms], dtype=float)

    def support_bounds(self):
        return self.atoms[0][0], self.atoms[-1][0]

    def moments(self, order):
        """Exact raw moments m_1..m_order (Fractions stay Fractions)."""
        _check_count(order, "moment order")
        out = []
        for k in range(1, order + 1):
            out.append(sum(w * x**k for x, w in self.atoms))
        return MomentSequence(tuple(out))

    def cdf(self, x):
        return float(sum(w for a, w in self.atoms if a <= x))

    def mass(self):
        return float(sum(w for _, w in self.atoms))

    def sample(self, n, seed):
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(self.atoms), size=n, p=self.weights / self.mass())
        return self.positions[idx]


@dataclass(frozen=True)
class GridMeasure:
    """Density sampled on a strictly increasing grid plus optional atoms.

    The total of the trapezoid mass of ``density`` and the atom weights must
    be 1 within 1e-6.
    """

    grid: np.ndarray
    density: np.ndarray
    atoms: tuple = ()

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        dens = np.asarray(self.density, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "density", dens)
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
            raise NcprobError("grid must be 1-d and strictly increasing")
        if dens.shape != grid.shape:
            raise NcprobError("density shape must match grid")
        if np.any(dens < -1e-12):
            raise NcprobError("density must be nonnegative")
        if any(w <= 0 for _, w in self.atoms):
            raise NcprobError("atom weights must be positive")
        if abs(self.mass() - 1.0) > 1e-6:
            raise NcprobError(f"total mass {self.mass()} is not 1 within 1e-6")

    def density_mass(self):
        return float(np.trapezoid(self.density, self.grid))

    def atom_mass(self):
        return float(sum(w for _, w in self.atoms))

    def mass(self):
        return self.density_mass() + self.atom_mass()

    def support_bounds(self):
        lo, hi = self.grid[0], self.grid[-1]
        for x, _ in self.atoms:
            lo, hi = min(lo, x), max(hi, x)
        return float(lo), float(hi)

    def moments(self, order):
        """Raw moments by trapezoid quadrature plus exact atom sums."""
        _check_count(order, "moment order")
        out = []
        for k in range(1, order + 1):
            m = np.trapezoid(self.grid**k * self.density, self.grid)
            m += sum(w * x**k for x, w in self.atoms)
            out.append(float(m))
        return MomentSequence(tuple(out))

    def cdf(self, x):
        cum = _cumtrapz(self.density, self.grid)
        val = float(np.interp(x, self.grid, cum, left=0.0, right=cum[-1]))
        for a, w in self.atoms:
            if a <= x:
                val += w
        return val

    def sample(self, n, seed):
        rng = np.random.default_rng(seed)
        u = rng.random(n)
        cum = _cumtrapz(self.density, self.grid)
        out = np.interp(u, cum, self.grid)
        if self.atoms:
            # stack atoms after the continuous part on the unit interval: a
            # draw past it takes the first atom whose break is >= u, and the
            # last atom past the end
            breaks = np.cumsum([cum[-1]] + [w for _, w in self.atoms])[1:]
            pos = np.array([a for a, _ in self.atoms], dtype=float)
            k = np.minimum(np.searchsorted(breaks, u), len(pos) - 1)
            past = u > cum[-1]
            out[past] = pos[k[past]]
        return out


def _cumtrapz(y, x):
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


@dataclass(frozen=True)
class MomentSequence:
    """Raw moments (m_1, ..., m_K); m_0 = 1 is implicit.

    Validity requires the Hankel matrix (m_{i+j}), 0 <= i,j <= floor(K/2),
    to be positive semidefinite up to a relative eigenvalue floor of 1e-9.
    """

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise NcprobError("moment sequence needs order >= 1")
        # every comparison with a NaN is False, so the PSD test below would
        # pass one, and the eigensolve does not converge on an infinity
        for k, v in enumerate(self.values, start=1):
            if not _is_finite(v):
                raise NcprobError(f"moment m_{k} must be finite, got {v!r}")
        h = self.hankel()
        scale = max(1.0, float(np.abs(h).max()))
        if np.linalg.eigvalsh(h).min() < -1e-9 * scale:
            raise NcprobError("Hankel matrix is not PSD: invalid moments")

    @property
    def order(self):
        return len(self.values)

    def __getitem__(self, k):
        """m_k with m_0 = 1."""
        if k == 0:
            return 1
        return self.values[k - 1]

    def __iter__(self):
        return iter(self.values)

    def hankel(self):
        half = self.order // 2
        m = []
        for k in range(2 * half + 1):
            try:
                m.append(float(self[k]))
            except OverflowError:  # an exact moment past the largest float
                raise NcprobError(f"moment m_{k} is too large for a float"
                                  ) from None
        return np.array([m[i:i + half + 1] for i in range(half + 1)])

    def mean(self):
        return self.values[0]

    def floats(self):
        return np.array([float(v) for v in self.values])

    def truncate(self, order):
        _check_count(order, "moment order")
        if order > self.order:
            raise NcprobError("cannot extend a moment sequence")
        return MomentSequence(self.values[:order])


def _check_count(n, what, least=1):
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < least:
        raise NcprobError(f"{what} must be >= {least} and an int, got {n!r}")


def _spectral_pairs(matrix, row):
    """Spectral measure of the symmetric ``matrix`` at basis vector ``row``
    as (eigenvalue, squared component) pairs, less weights <= 1e-15."""
    evals, evecs = np.linalg.eigh(matrix)
    weights = evecs[row, :] ** 2
    return [(float(x), float(w)) for x, w in zip(evals, weights) if w > 1e-15]


# ---------------------------------------------------------------------------
# named laws
# ---------------------------------------------------------------------------

GRID_RESOLUTION = 4096
_PAD = 1e-9


@dataclass(frozen=True)
class Dirac:
    c: float = 0.0

    def __post_init__(self):
        if not -math.inf < self.c < math.inf:
            raise NcprobError(f"Dirac point c must be finite, got {self.c!r}")

    def moments(self, order):
        return _jacobi_moments(lambda j: self.c, lambda j: 0, order)

    def to_measure(self):
        return AtomicMeasure.dirac(self.c)

    def sample(self, n, seed):
        _check_count(n, "sample count")
        return np.full(n, float(self.c))


@dataclass(frozen=True)
class Bernoulli:
    """Two-point law p*delta_1 + (1-p)*delta_{-1}."""

    p: Fraction = Fraction(1, 2)

    def __post_init__(self):
        if not 0 < self.p < 1:
            raise NcprobError("Bernoulli parameter must satisfy 0 < p < 1")

    def moments(self, order):
        d = 2 * self.p - 1
        return _jacobi_moments(lambda j: -d if j else d,
                               lambda j: 1 - d * d if j == 1 else 0, order)

    def to_measure(self):
        return AtomicMeasure(((-1, 1 - self.p), (1, self.p)))

    def sample(self, n, seed):
        _check_count(n, "sample count")
        rng = np.random.default_rng(seed)
        return np.where(rng.random(n) < float(self.p), 1.0, -1.0)


@dataclass(frozen=True)
class Normal:
    mean: float = 0.0
    var: float = 1.0

    def __post_init__(self):
        if not (-math.inf < self.mean < math.inf and 0 <= self.var < math.inf):
            raise NcprobError("Normal needs a finite mean and 0 <= var < inf,"
                              f" got mean={self.mean!r}, var={self.var!r}")

    def moments(self, order):
        return _jacobi_moments(lambda j: self.mean, lambda j: j * self.var,
                               order)

    def to_measure(self):
        if self.var == 0:
            raise NcprobError("Normal with variance 0 has no density")
        m, v = float(self.mean), float(self.var)
        sd = math.sqrt(v)
        grid = np.linspace(m - 8.0 * sd, m + 8.0 * sd, GRID_RESOLUTION)
        dens = np.exp(-((grid - m) ** 2) / (2 * v))
        dens /= math.sqrt(2 * math.pi * v)
        dens /= np.trapezoid(dens, grid)
        return GridMeasure(grid, dens)

    def sample(self, n, seed):
        _check_count(n, "sample count")
        rng = np.random.default_rng(seed)
        return float(self.mean) + math.sqrt(self.var) * rng.standard_normal(n)


# bounds on a two-step law's Jacobi parameters: F's numerator P(t) has
# degree 4 in their scale, |alpha| or sqrt(beta), and stays a float
_ALPHA_MAX, _BETA_MAX = 1e75, 1e150


class _TwoStepLaw:
    """A law with Jacobi parameters (alpha_0, beta_1) and then a constant
    (alpha, beta): the free Meixner class with a constant recursion from
    the second step (Saitoh & Yoshida, Probab. Math. Statist. 21 (2001)
    159; Anshelevich, J. Funct. Anal. 201 (2003) 228).  A subclass gives
    ``_jacobi()``, those four numbers (exact when its parameters are), and
    ``_REFUSAL``, the message, formatted with its fields, that refuses a
    non-finite alpha or a beta outside (0, inf).  All else follows from
    the four numbers.  The continued-fraction tail w(z) solves
    beta w^2 - (z - alpha) w + 1 = 0 with w ~ 1/z, F = 1/G is
    z - alpha_0 - beta_1 w(z), and the support is where w is not real,
    alpha -+ 2 sqrt(beta).  The numerical methods work in floats: numpy
    makes an array minus an exact parameter an object array."""

    def __post_init__(self):
        a0, b1, a, b = self._jacobi()
        if not (-math.inf < a0 < math.inf and -math.inf < a < math.inf
                and 0 < b1 < math.inf and 0 < b < math.inf):
            raise NcprobError(self._REFUSAL.format(**vars(self)))
        if not (max(abs(a0), abs(a)) <= _ALPHA_MAX
                and max(b1, b) <= _BETA_MAX):
            raise NcprobError(
                f"{type(self).__name__} is too wide for F in floats: its "
                f"Jacobi parameters need |alpha| <= {_ALPHA_MAX:g} and "
                f"beta <= {_BETA_MAX:g}, got "
                + ", ".join(f"{k}={v!r}" for k, v in vars(self).items()))

    def _floats(self):
        return tuple(map(float, self._jacobi()))

    def _radius(self):
        return 2 * math.sqrt(self._floats()[3])

    def moments(self, order):
        a0, b1, a, b = self._jacobi()
        return _jacobi_moments(lambda j: a if j else a0,
                               lambda j: b if j > 1 else b1, order)

    def edges(self):
        a, r = self._floats()[2], self._radius()
        return a - r, a + r

    def fmap(self, z):
        """F = 1/G, a vectorized function of a complex array.  The tail is
        rationalized, w = ((z - alpha) - s)/(2 beta) = 2/((z - alpha) + s)
        with s = sqrt_upper((z - alpha)^2 - 4 beta) ~ z - alpha, so the
        sum does not cancel where the difference did for large z.  With
        t = z - alpha_0, F and F2, where beta F2 = beta t - beta_1/w, are
        the roots of beta X^2 - (2 beta t - beta_1 (z - alpha)) X + P(t),
        P(t) = (beta - beta_1) t^2 + beta_1 (alpha - alpha_0) t + beta_1^2.
        Where F is the smaller root, t - beta_1 w cancels (F -> 0 at an
        atom), so there F = P(t)/(beta F2), with P factored at its zeros
        from ``_tail``."""
        a0, b1, a, b = self._floats()
        z = np.asarray(z, dtype=complex)
        d = z - a
        s = sqrt_upper(d * d - 4 * b)
        f = z - a0 - b1 * 2 / (d + s)
        g = b * (z - a0) - b1 * (d + s) / 2
        lead, roots = self._tail
        p = lead * b1 ** (2 - len(roots))
        for _, hi, lo in roots:
            p = p * ((z - hi) - lo)
        # [()] makes a scalar of a 0-d result, as the arithmetic above does
        return np.divide(p, g, out=np.asarray(f),
                         where=np.abs(b * f) < np.abs(g))[()]

    def cauchy(self, z):
        return 1.0 / self.fmap(z)

    def density_at(self, x):
        """-Im G(x + i0)/pi = Im F/(pi |F|^2), in real arithmetic: on the
        support s = i r, r = sqrt(4 beta - (x - alpha)^2), so beta_1 w is
        k ((x - alpha) - i r) with k = beta_1/(2 beta); 0 off it."""
        a0, b1, a, b = self._floats()
        lo, hi = self.edges()
        x = np.asarray(x, dtype=float)
        r2 = (hi - x) * (x - lo)
        inside = r2 > 0
        k = b1 / (2 * b)
        re = x - a0 - k * (x - a)
        im = k * np.sqrt(np.where(inside, r2, 0.0))
        return np.divide(im, math.pi * (re * re + im * im),
                         out=np.zeros_like(x), where=inside)

    def atoms(self):
        """The atoms (position, mass), sorted: the real zeros of F.  At one,
        x - alpha_0 = beta_1 w, which turns the equation for w into
        (beta - beta_1) w^2 + (alpha - alpha_0) w + 1 = 0.  A root counts
        when it is the branch w(x), |w| < 1/sqrt(beta); then
        x - alpha = beta w + 1/w lies off the support.  The mass is
        1/F'(x), and with w' = w/(2 beta w - (x - alpha)) that is
        (1 - beta w^2)/(1 + (beta_1 - beta) w^2).  A root with
        beta w^2 = 1 is a zero of F at an edge, where the density blows
        up (Arcsine, Marchenko-Pastur(1)); rounding may put it on either
        side, so a root counts only if 1 - beta w^2 exceeds 1e-12."""
        b1, b = self._floats()[1::2]
        return sorted((x, (1 - b * w * w) / (1 + (b1 - b) * w * w))
                      for w, x, _ in self._tail[1]
                      if w.imag == 0 and 1 - b * w * w > 1e-12)

    @functools.cached_property
    def _tail(self):
        """(c, roots): (beta - beta_1) w^2 + (alpha - alpha_0) w + 1 is
        c prod(w - root), and P(t) is c beta_1^(2 - len(roots))
        prod(z - x) over the zeros x = alpha_0 + beta_1 w.  Each root
        comes as (w, hi, lo), complex where it is not real, with x =
        hi + lo: a real w first takes a Newton step in exact arithmetic
        on the parameters' floats, so hi + lo carries about twice a
        float's digits and z - x does not lose them next to an atom.
        Computed once per law, since the exact step costs about 50 us."""
        a0, b1, a, b = self._floats()
        lead, d = b - b1, a - a0
        if lead == 0:
            c, ws = (d, [-1 / d]) if d else (1.0, [])
        else:
            # q / lead adds terms of one sign; the other root is the
            # product of the two, 1 / lead, over it
            disc = d * d - 4 * lead
            root = math.sqrt(disc) if disc >= 0 else 1j * math.sqrt(-disc)
            q = -(d + math.copysign(1.0, d) * root) / 2
            c, ws = lead, [q / lead, 1 / q]
        e0, e1, ea, eb = map(Fraction, (a0, b1, a, b))
        el, ed = eb - e1, ea - e0
        roots = []
        for w in ws:
            if w.imag:
                roots.append((w, a0 + b1 * w, 0.0))
                continue
            v = Fraction(w)
            slope = 2 * el * v + ed
            if slope:
                v -= ((el * v + ed) * v + 1) / slope
            x = e0 + e1 * v
            roots.append((w, float(x), float(x - Fraction(float(x)))))
        return c, roots

    def to_measure(self):
        """The density at GRID_RESOLUTION nodes over the support widened by
        _PAD, scaled to the mass the atoms leave.  The density vanishes like
        a square root at an edge, or blows up like its inverse where F is 0
        there (Arcsine, Marchenko-Pastur(1)), and the trapezoid rule misses
        either, so the cells at each edge take their exact mass."""
        lo, hi = self.edges()
        grid = np.linspace(lo - _PAD, hi + _PAD, GRID_RESOLUTION)
        dens = self.density_at(grid)
        _match_edge_cells(grid, dens, self.density_at, (lo, hi))
        total = np.trapezoid(dens, grid)
        if not total > 0:
            raise NcprobError(
                f"{type(self).__name__} support width {hi - lo:.3g} is too "
                f"narrow for its {GRID_RESOLUTION}-point grid: the density "
                "is 0 at every node")
        atoms = self.atoms()
        return GridMeasure(grid, dens / total * (1 - sum(m for _, m in atoms)),
                           tuple(atoms))

    def sample(self, n, seed):
        _check_count(n, "sample count")
        return self.to_measure().sample(n, seed)


@dataclass(frozen=True)
class Arcsine(_TwoStepLaw):
    """Arcsine law with the given mean and variance: alpha = mean,
    beta_1 = var, then beta = var/2."""

    mean: float = 0.0
    var: float = 1.0
    _REFUSAL = ("Arcsine needs a finite mean and 0 < var < inf, got "
                "mean={mean!r}, var={var!r}")

    def _jacobi(self):
        return self.mean, self.var, self.mean, Fraction(1, 2) * self.var

    def cdf_exact(self, x):
        r = self._radius()
        t = np.clip((np.asarray(x, dtype=float) - float(self.mean)) / r, -1, 1)
        return 0.5 + np.arcsin(t) / math.pi

    def sample(self, n, seed):
        _check_count(n, "sample count")
        rng = np.random.default_rng(seed)
        theta = math.pi * (rng.random(n) - 0.5)
        return float(self.mean) + self._radius() * np.sin(theta)


@dataclass(frozen=True)
class Semicircle(_TwoStepLaw):
    """Semicircle law with the given mean and variance: alpha = mean and
    beta = var at every step."""

    mean: float = 0.0
    var: float = 1.0
    _REFUSAL = ("Semicircle needs a finite mean and 0 < var < inf, got "
                "mean={mean!r}, var={var!r}")

    def _jacobi(self):
        return self.mean, self.var, self.mean, self.var

    def cdf_exact(self, x):
        r = self._radius()
        t = np.clip((np.asarray(x, dtype=float) - float(self.mean)) / r, -1, 1)
        return 0.5 + (t * np.sqrt(1 - t**2) + np.arcsin(t)) / math.pi

    def sample(self, n, seed):
        _check_count(n, "sample count")
        rng = np.random.default_rng(seed)
        b = rng.beta(1.5, 1.5, size=n)
        return float(self.mean) + self._radius() * (2 * b - 1)

@dataclass(frozen=True)
class Poisson:
    lam: float = 1.0

    def __post_init__(self):
        if not (self.lam > 0 and self.lam < math.inf):
            raise NcprobError(
                f"Poisson rate must be positive and finite, got {self.lam!r}")

    def moments(self, order):
        return _jacobi_moments(lambda j: j + self.lam, lambda j: j * self.lam,
                               order)

    def to_measure(self):
        atoms, k = [], 0
        pk = math.exp(-self.lam)
        acc = 0.0
        while acc < 1 - 1e-15 and k < 10_000:
            if pk > 0:
                atoms.append((k, pk))
            acc += pk
            k += 1
            pk *= self.lam / k
        return AtomicMeasure.from_pairs(atoms, renormalize=True)

    def sample(self, n, seed):
        _check_count(n, "sample count")
        rng = np.random.default_rng(seed)
        return rng.poisson(self.lam, size=n).astype(float)


@dataclass(frozen=True)
class MarchenkoPastur(_TwoStepLaw):
    """Free Poisson law with rate c (all free cumulants equal to c):
    alpha_0 = c, then alpha = c + 1, and beta = c at every step."""

    c: float = 1.0
    _REFUSAL = ("Marchenko-Pastur parameter must be positive and finite, "
                "got c={c!r}")

    def _jacobi(self):
        return self.c, self.c, self.c + 1, self.c

    def sample(self, n, seed):
        if self.c == 1:
            s = Semicircle(0.0, 1.0).sample(n, seed)
            return s * s
        return super().sample(n, seed)


@dataclass(frozen=True)
class FreeMeixner(_TwoStepLaw):
    """Free Meixner law m_{a,c,u}: mean 0, variance a, Jacobi data
    (alpha_0, beta_1) = (0, a) and (alpha_k, beta_k) = (u, c) afterwards.
    Positive beta define a law for every real u.
    """

    a: int = 2
    c: int = 1
    u: int = 0
    _REFUSAL = ("free Meixner needs a > 0 and c > 0, all finite, got "
                "(a, c, u) = ({a!r}, {c!r}, {u!r})")

    def _jacobi(self):
        return 0, self.a, self.u, self.c

# ---------------------------------------------------------------------------
# law helpers
# ---------------------------------------------------------------------------

def _jacobi_moments(alpha, beta, order):
    """Moments m_1..m_order of the law with Jacobi parameters alpha(j),
    j >= 0, and beta(j), j >= 1, by Flajolet's count: m_k is the total
    weight of the k-step Motzkin paths from level 0 back to 0 in which an
    up-step weighs 1, a flat step at level j alpha_j and a down-step from
    level j beta_j.  Exact or whole parameters give exact moments."""
    _check_count(order, "moment order")
    top = order // 2  # a path above this level cannot return in time
    a = [alpha(j) for j in range(top + 1)]
    b = [beta(j) for j in range(1, top + 2)]
    exact = all(isinstance(x, numbers.Rational) or float(x).is_integer()
                for x in a + b)
    if exact:
        # a k-step path has f flat and d down-steps, f + 2d = k, so alpha*D
        # and beta*D^2 weigh it D^k more: D clears denominators, ints count
        grade = math.lcm(*(Fraction(x).denominator for x in a + b))
        a = [int(Fraction(x) * grade) for x in a]
        b = [int(Fraction(x) * grade**2) for x in b]
    # w[j]: weight of the paths so far ending at level j (w[-1] = w[top+1] = 0)
    w = [1] + [0] * (top + 1)
    out = []
    for k in range(1, order + 1):
        w = [w[j - 1] + a[j] * w[j] + b[j] * w[j + 1]
             for j in range(top + 1)] + [0]
        out.append(Fraction(w[0], grade**k) if exact else w[0])
    return MomentSequence(tuple(out))


@functools.cache
def _gauss_legendre():
    """The 16-point Gauss-Legendre nodes and weights on [0, 1]."""
    u, weights = np.polynomial.legendre.leggauss(16)
    return (u + 1) / 2, weights / 2


def _match_edge_cells(grid, dens, density, edges):
    """Give the eight cells of the uniform ``grid`` nearest each of the two
    ``edges`` of the support their exact mass under ``density``, in place,
    by setting their outer nodes in a sweep outward from the interior.  The
    mass from an edge e to a node x is, with x' = e + (x - e) u^2, the
    integral over 0 <= u <= 1 of 2 (x - e) u density(x'), which is smooth
    for a density that vanishes or blows up like |x' - e|^(+-1/2); 16-point
    Gauss-Legendre has it within 4e-11 relative for the arcsine law, where
    rounding x' next to e bounds it."""
    ncorr, n, h = 8, len(grid), grid[1] - grid[0]
    u, weights = _gauss_legendre()
    for edge, idx in zip(edges, (np.arange(ncorr + 1),
                                 np.arange(n - 1, n - ncorr - 2, -1))):
        d = grid[idx] - edge
        mass = d * (density(edge + np.outer(d, u * u)) @ (2 * u * weights))
        for j in range(ncorr - 1, -1, -1):
            cell = abs(mass[j + 1] - mass[j])
            dens[idx[j]] = max(2 * cell / h - dens[idx[j + 1]], 0.0)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def moments(measure, order):
    """Raw moments of a measure or law up to the given order."""
    if isinstance(measure, MomentSequence):
        return measure.truncate(order)
    return measure.moments(order)


def sample(law, n, seed):
    """Draw n samples; deterministic for a given seed."""
    _check_count(n, "sample count")
    return law.sample(n, seed)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def measure_to_json(m):
    if isinstance(m, AtomicMeasure):
        return {"atoms": [[float(x), float(w)] for x, w in m.atoms]}
    if isinstance(m, GridMeasure):
        return {
            "grid": m.grid.tolist(),
            "density": m.density.tolist(),
            "atoms": [[float(x), float(w)] for x, w in m.atoms],
        }
    if isinstance(m, MomentSequence):
        return {"moments": m.floats().tolist()}
    raise NcprobError(f"cannot serialize {type(m).__name__}")


def _is_real(v):
    # json.load gives int and float; the ABC check, five times slower,
    # admits other reals and refuses bools
    return type(v) in (float, int) or (isinstance(v, numbers.Real)
                                       and not isinstance(v, bool))


def _is_finite(v):
    if type(v) is float:
        return math.isfinite(v)
    # a rational is finite at any size, where math.isfinite would overflow
    # converting a large one to float
    return isinstance(v, numbers.Rational) or math.isfinite(v)


def json_real(value, where):
    """``value`` when it is a real number (bools are not numbers here) that
    is finite as a float: |value| <= sys.float_info.max, which refuses NaN,
    the infinities and ints past the float range alike; else an
    NcprobError naming ``where``."""
    if not _is_real(value):
        raise NcprobError(f"{where} must be a real number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise NcprobError(f"{where} must be finite, got {value!r}")
    return value


def json_reals(values, where, size=None):
    """``values`` as given when it is a list (of ``size`` entries, if set)
    of numbers ``json_real`` takes, so ints stay ints; else an NcprobError
    naming ``where`` or its bad entry."""
    if not isinstance(values, (list, tuple)) or size not in (None, len(values)):
        want = "a list" if size is None else f"a list of {size} numbers"
        raise NcprobError(f"{where} must be {want}, got {values!r}")
    for i, v in enumerate(values):
        if not (_is_real(v) and abs(v) <= sys.float_info.max):
            json_real(v, f"{where}[{i}]")  # raises, naming the entry
    return values


def _json_atoms(obj):
    atoms = obj.get("atoms", [])
    if not isinstance(atoms, (list, tuple)):
        raise NcprobError(f"measure JSON atoms must be a list, got {atoms!r}")
    return tuple(tuple(json_reals(a, f"measure JSON atoms[{i}]", 2))
                 for i, a in enumerate(atoms))


def measure_from_json(obj):
    if not isinstance(obj, dict):
        raise NcprobError("measure JSON must be an object")
    if "grid" in obj:
        return GridMeasure(np.array(json_reals(obj["grid"],
                                               "measure JSON grid")),
                           np.array(json_reals(obj.get("density"),
                                               "measure JSON density")),
                           _json_atoms(obj))
    if "atoms" in obj:
        return AtomicMeasure(_json_atoms(obj))
    if "moments" in obj:
        return MomentSequence(tuple(json_reals(obj["moments"],
                                               "measure JSON moments")))
    raise NcprobError("unrecognized measure JSON")


def _write_json(path, obj):
    """``obj`` as JSON, built whole and written at once.  json.dump would
    stream it through json's pure-Python encoder; json.dumps uses the C
    encoder, to the same bytes."""
    text = json.dumps(obj)
    with open(path, "w") as fh:
        fh.write(text)


def save_measure(m, path):
    _write_json(path, measure_to_json(m))


def load_measure(path):
    # bytes that are not UTF-8 read as U+FFFD, so such a file fails to
    # parse or to validate (a refusal) rather than to decode
    with open(path, errors="replace") as fh:
        return measure_from_json(json.load(fh))


def write_density_csv(m, path):
    """Two-column x,density CSV for plotting."""
    if isinstance(m, AtomicMeasure):
        raise NcprobError("atomic measures have no density to emit")
    rows = zip(m.grid.tolist(), m.density.tolist())
    text = "x,density\n" + "".join(f"{x!r},{d!r}\n" for x, d in rows)
    with open(path, "w") as fh:
        fh.write(text)
