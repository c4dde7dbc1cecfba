"""Probability measures on the real line.

Three canonical representations: purely atomic measures, gridded densities
with optional atoms, and truncated moment sequences.  Named laws (point
masses, two-point laws, normal, arcsine, semicircle, Poisson,
Marchenko-Pastur, free Meixner) provide exact moments, grid realizations,
and seeded samplers.  The four laws with an interval of support (arcsine,
semicircle, Marchenko-Pastur, free Meixner) also own their closed forms:
``edges()`` of that interval, the Cauchy transform ``cauchy(z)`` and the
points that may carry an atom, ``atom_candidates()``.
"""

import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class MeasureError(ValueError):
    """Invalid measure data or unsupported request."""


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
            raise MeasureError("atomic measure needs at least one atom")
        if any(w <= 0 for w in ws):
            raise MeasureError("atom weights must be strictly positive")
        if any(xs[i] >= xs[i + 1] for i in range(len(xs) - 1)):
            raise MeasureError("atom positions must be strictly increasing")
        if abs(float(sum(ws)) - 1.0) > 1e-12:
            raise MeasureError(f"atom weights sum to {float(sum(ws))}, not 1")

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
        _check_order(order)
        out = []
        for k in range(1, order + 1):
            out.append(sum(w * x**k for x, w in self.atoms))
        return MomentSequence(tuple(out))

    def cdf(self, x, left=False):
        acc = 0
        for a, w in self.atoms:
            if a < x or (not left and a == x):
                acc += w
        return float(acc)

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
            raise MeasureError("grid must be 1-d and strictly increasing")
        if dens.shape != grid.shape:
            raise MeasureError("density shape must match grid")
        if np.any(dens < -1e-12):
            raise MeasureError("density must be nonnegative")
        if any(w <= 0 for _, w in self.atoms):
            raise MeasureError("atom weights must be positive")
        if abs(self.mass() - 1.0) > 1e-6:
            raise MeasureError(f"total mass {self.mass()} is not 1 within 1e-6")

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
        _check_order(order)
        out = []
        for k in range(1, order + 1):
            m = np.trapezoid(self.grid**k * self.density, self.grid)
            m += sum(w * x**k for x, w in self.atoms)
            out.append(float(m))
        return MomentSequence(tuple(out))

    def cdf(self, x, left=False):
        cum = _cumtrapz(self.density, self.grid)
        val = float(np.interp(x, self.grid, cum, left=0.0, right=cum[-1]))
        for a, w in self.atoms:
            if a < x or (not left and a == x):
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
            raise MeasureError("moment sequence needs order >= 1")
        h = self.hankel()
        scale = max(1.0, float(np.abs(h).max()))
        if np.linalg.eigvalsh(h).min() < -1e-9 * scale:
            raise MeasureError("Hankel matrix is not PSD: invalid moments")

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
        return np.array(
            [[float(self[i + j]) for j in range(half + 1)] for i in range(half + 1)]
        )

    def mean(self):
        return self.values[0]

    def variance(self):
        if self.order < 2:
            raise MeasureError("need order >= 2 for variance")
        return self[2] - self[1] ** 2

    def floats(self):
        return np.array([float(v) for v in self.values])

    def truncate(self, order):
        if order > self.order:
            raise MeasureError("cannot extend a moment sequence")
        return MomentSequence(self.values[:order])


def _check_order(order):
    if order < 1:
        raise MeasureError("moment order must be >= 1")


# ---------------------------------------------------------------------------
# named laws
# ---------------------------------------------------------------------------

GRID_RESOLUTION = 4096
_PAD = 1e-9


class Law:
    """Base class for named laws; subclasses define exact moments etc."""

    def moments(self, order, allow_truncated=False):
        raise NotImplementedError

    def to_measure(self, resolution=GRID_RESOLUTION):
        raise NotImplementedError

    def sample(self, n, seed):
        raise NotImplementedError

    def atom_candidates(self):
        """Points that may carry an atom, for Stieltjes inversion."""
        return []


@dataclass(frozen=True)
class Dirac(Law):
    c: float = 0.0

    def moments(self, order, allow_truncated=False):
        _check_order(order)
        return MomentSequence(tuple(self.c**k for k in range(1, order + 1)))

    def to_measure(self, resolution=GRID_RESOLUTION):
        return AtomicMeasure.dirac(self.c)

    def sample(self, n, seed):
        return np.full(n, float(self.c))


@dataclass(frozen=True)
class Bernoulli(Law):
    """Two-point law p*delta_1 + (1-p)*delta_{-1}."""

    p: Fraction = Fraction(1, 2)

    def __post_init__(self):
        if not 0 < self.p < 1:
            raise MeasureError("Bernoulli parameter must satisfy 0 < p < 1")

    def moments(self, order, allow_truncated=False):
        _check_order(order)
        q = 1 - self.p
        return MomentSequence(
            tuple(self.p + ((-1) ** k) * q for k in range(1, order + 1))
        )

    def to_measure(self, resolution=GRID_RESOLUTION):
        return AtomicMeasure(((-1, 1 - self.p), (1, self.p)))

    def sample(self, n, seed):
        rng = np.random.default_rng(seed)
        return np.where(rng.random(n) < float(self.p), 1.0, -1.0)


@dataclass(frozen=True)
class Normal(Law):
    mean: float = 0.0
    var: float = 1.0

    def __post_init__(self):
        if self.var < 0:
            raise MeasureError("variance must be >= 0")

    def moments(self, order, allow_truncated=False):
        _check_order(order)
        if not allow_truncated:
            raise MeasureError(
                "normal law has unbounded support; pass allow_truncated=True "
                "to accept its (exact) moments anyway"
            )
        central = [0] * (order + 1)
        central[0] = 1
        for k in range(2, order + 1, 2):
            central[k] = _double_factorial(k - 1) * self.var ** (k // 2)
        return MomentSequence(tuple(_shift_moments(central, self.mean)[1:]))

    def to_measure(self, resolution=GRID_RESOLUTION, radius=8.0):
        sd = math.sqrt(self.var)
        grid = np.linspace(self.mean - radius * sd, self.mean + radius * sd,
                           resolution)
        dens = np.exp(-((grid - self.mean) ** 2) / (2 * self.var))
        dens /= math.sqrt(2 * math.pi * self.var)
        dens /= np.trapezoid(dens, grid)
        return GridMeasure(grid, dens)

    def sample(self, n, seed):
        rng = np.random.default_rng(seed)
        return self.mean + math.sqrt(self.var) * rng.standard_normal(n)


@dataclass(frozen=True)
class _SymmetricLaw(Law):
    """A law with the given mean and variance on [mean - r, mean + r],
    r = half_width()."""

    mean: float = 0.0
    var: float = 1.0

    def __post_init__(self):
        if self.var <= 0:
            raise MeasureError("variance must be positive")

    def edges(self):
        r = self.half_width()
        return self.mean - r, self.mean + r


@dataclass(frozen=True)
class Arcsine(_SymmetricLaw):
    """Arcsine law with the given mean and variance, symmetric support."""

    def half_width(self):
        return math.sqrt(2 * self.var)

    def density_at(self, x):
        x = np.asarray(x, dtype=float)
        u = 2 * self.var - (x - self.mean) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(u > 0, 1.0 / (math.pi * np.sqrt(np.abs(u))), 0.0)
        return d

    def cdf_exact(self, x):
        r = self.half_width()
        t = np.clip((np.asarray(x, dtype=float) - self.mean) / r, -1, 1)
        return 0.5 + np.arcsin(t) / math.pi

    def cauchy(self, z):
        return 1.0 / sqrt_upper((z - self.mean) ** 2 - 2 * self.var)

    def moments(self, order, allow_truncated=False):
        _check_order(order)
        central = [0] * (order + 1)
        central[0] = 1
        for k in range(2, order + 1, 2):
            j = k // 2
            central[k] = (Fraction(math.comb(k, j), 2**j)
                          * _exactify(self.var) ** j)
        return MomentSequence(tuple(_shift_moments(central, self.mean)[1:]))

    def to_measure(self, resolution=GRID_RESOLUTION):
        return _grid_from_edge_singular_law(self, resolution)

    def sample(self, n, seed):
        rng = np.random.default_rng(seed)
        theta = math.pi * (rng.random(n) - 0.5)
        return self.mean + self.half_width() * np.sin(theta)


@dataclass(frozen=True)
class Semicircle(_SymmetricLaw):
    def half_width(self):
        return 2 * math.sqrt(self.var)

    def density_at(self, x):
        x = np.asarray(x, dtype=float)
        u = 4 * self.var - (x - self.mean) ** 2
        return np.where(u > 0, np.sqrt(np.clip(u, 0, None))
                        / (2 * math.pi * self.var), 0.0)

    def cdf_exact(self, x):
        r = self.half_width()
        t = np.clip((np.asarray(x, dtype=float) - self.mean) / r, -1, 1)
        return 0.5 + (t * np.sqrt(1 - t**2) + np.arcsin(t)) / math.pi

    def cauchy(self, z):
        return (z - self.mean - sqrt_upper((z - self.mean) ** 2 - 4 * self.var)
                ) / (2 * self.var)

    def moments(self, order, allow_truncated=False):
        _check_order(order)
        central = [0] * (order + 1)
        central[0] = 1
        for k in range(2, order + 1, 2):
            j = k // 2
            central[k] = _catalan(j) * _exactify(self.var) ** j
        return MomentSequence(tuple(_shift_moments(central, self.mean)[1:]))

    def to_measure(self, resolution=GRID_RESOLUTION):
        lo, hi = self.edges()
        grid = np.linspace(lo - _PAD, hi + _PAD, resolution)
        dens = self.density_at(grid)
        dens = dens / np.trapezoid(dens, grid)
        return GridMeasure(grid, dens)

    def sample(self, n, seed):
        rng = np.random.default_rng(seed)
        b = rng.beta(1.5, 1.5, size=n)
        return self.mean + self.half_width() * (2 * b - 1)


@dataclass(frozen=True)
class Poisson(Law):
    lam: float = 1.0

    def __post_init__(self):
        if self.lam <= 0:
            raise MeasureError("Poisson rate must be positive")

    def moments(self, order, allow_truncated=False):
        _check_order(order)
        if not allow_truncated:
            raise MeasureError(
                "Poisson law has unbounded support; pass allow_truncated=True"
            )
        lam = _exactify(self.lam)
        out = []
        for k in range(1, order + 1):
            out.append(sum(_stirling2(k, j) * lam**j for j in range(1, k + 1)))
        return MomentSequence(tuple(out))

    def to_measure(self, resolution=GRID_RESOLUTION, tail=1e-15):
        lam = self.lam
        w, atoms, k = 1.0, [], 0
        pk = math.exp(-lam)
        acc = 0.0
        while acc < 1 - tail and k < 10_000:
            if pk > 0:
                atoms.append((k, pk))
            acc += pk
            k += 1
            pk *= lam / k
        return AtomicMeasure.from_pairs(atoms, renormalize=True)

    def sample(self, n, seed):
        rng = np.random.default_rng(seed)
        return rng.poisson(self.lam, size=n).astype(float)


@dataclass(frozen=True)
class MarchenkoPastur(Law):
    """Free Poisson law with rate c (all free cumulants equal to c)."""

    c: float = 1.0

    def __post_init__(self):
        if self.c <= 0:
            raise MeasureError("Marchenko-Pastur parameter must be positive")

    def edges(self):
        s = math.sqrt(self.c)
        return (1 - s) ** 2, (1 + s) ** 2

    def cauchy(self, z):
        c = self.c
        return (z + 1 - c - sqrt_upper(c**2 - 2 * c * (z + 1) + (z - 1) ** 2)
                ) / (2 * z)

    def atom_candidates(self):
        return [0.0] if self.c < 1 else []

    def density_at(self, x):
        lo, hi = self.edges()
        x = np.asarray(x, dtype=float)
        u = (hi - x) * (x - lo)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where((u > 0) & (x > 0),
                         np.sqrt(np.clip(u, 0, None)) / (2 * math.pi * x), 0.0)
        return d

    def moments(self, order, allow_truncated=False):
        _check_order(order)
        c = _exactify(self.c)
        out = []
        for k in range(1, order + 1):
            out.append(sum(_narayana(k, j) * c**j for j in range(1, k + 1)))
        return MomentSequence(tuple(out))

    def to_measure(self, resolution=GRID_RESOLUTION):
        lo, hi = self.edges()
        atoms = []
        if self.c < 1:
            atoms.append((0.0, 1 - self.c))
        grid = np.linspace(max(lo, 1e-12) - _PAD, hi + _PAD, resolution)
        dens = self.density_at(grid)
        target = 1.0 - sum(w for _, w in atoms)
        dens = dens * (target / np.trapezoid(dens, grid))
        return GridMeasure(grid, dens, tuple(atoms))

    def sample(self, n, seed):
        if self.c == 1:
            s = Semicircle(0.0, 1.0).sample(n, seed)
            return s * s
        return self.to_measure().sample(n, seed)


@dataclass(frozen=True)
class FreeMeixner(Law):
    """Free Meixner law m_{a,c,u}: mean 0, variance a, Jacobi data
    (alpha_0, beta_1) = (0, a) and (alpha_k, beta_k) = (u, c) afterwards.
    Positive beta define a law for every real u.
    """

    a: int = 2
    c: int = 1
    u: int = 0

    def __post_init__(self):
        if self.a <= 0 or self.c <= 0:
            raise MeasureError("free Meixner needs a > 0 and c > 0")

    def edges(self):
        r = 2 * math.sqrt(self.c)
        return self.u - r, self.u + r

    def fmap(self, z):
        """F = 1/G, a vectorized function of a complex array.

        Continued-fraction tail w solves c*w^2 - (z-u)*w + 1 = 0 with w ~ 1/z;
        then F(z) = z - a*w(z).  For a = 2c this is sqrt((z-u)^2 - 4c) + u.
        """
        z = np.asarray(z, dtype=complex)
        s = sqrt_upper((z - self.u) ** 2 - 4 * self.c)
        w = ((z - self.u) - s) / (2 * self.c)
        return z - self.a * w

    def cauchy(self, z):
        return 1.0 / self.fmap(z)

    def atom_candidates(self):
        # real solutions of z - a*w(z) = 0 via the quadratic for w = z/a
        a, c, u = self.a, self.c, self.u
        aa = Fraction(c - a, a * a) if all(isinstance(t, int) for t in (a, c)) \
            else (c - a) / a**2
        bb = Fraction(u, a) if isinstance(u, int) else u / a
        disc = float(bb) ** 2 - 4 * float(aa)
        if disc < 0 or aa == 0:
            return []
        r = math.sqrt(disc)
        return [(-float(bb) + s * r) / (2 * float(aa)) for s in (1, -1)]

    def jacobi(self, depth):
        alpha = [0] + [self.u] * depth
        beta = [self.a] + [self.c] * depth
        return alpha, beta

    def moments(self, order, allow_truncated=False):
        _check_order(order)
        alpha, beta = self.jacobi(order)
        return MomentSequence(tuple(_motzkin_moments(alpha, beta, order)[1:]))

    def to_measure(self, resolution=GRID_RESOLUTION):
        # realization goes through Stieltjes inversion; transforms imports
        # this module, so it is imported here
        from .transforms import measure_from_ftransform

        lo, hi = self.edges()
        margin = 0.05 * (hi - lo)
        grid = np.linspace(lo - margin, hi + margin, resolution)
        return measure_from_ftransform(self.fmap, grid,
                                       atom_candidates=self.atom_candidates(),
                                       eps_ladder=(1e-4, 5e-5, 2.5e-5))

    def sample(self, n, seed):
        return self.to_measure().sample(n, seed)


# ---------------------------------------------------------------------------
# law helpers
# ---------------------------------------------------------------------------

def _exactify(x):
    """Use exact arithmetic when a parameter is an exact number."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, float) and x == int(x):
        return Fraction(int(x))
    return x


def _double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def _catalan(j):
    return Fraction(math.comb(2 * j, j), j + 1)


def _narayana(k, j):
    return Fraction(math.comb(k, j) * math.comb(k, j - 1), k)


def _stirling2(k, j):
    acc = Fraction(0)
    for i in range(j + 1):
        acc += Fraction((-1) ** (j - i) * math.comb(j, i) * i**k)
    return acc / math.factorial(j)


def _shift_moments(central, mean):
    """Raw moments of X + mean from raw moments of X (index 0 .. K)."""
    if mean == 0:
        return central
    mean = _exactify(mean)
    k_max = len(central) - 1
    out = []
    for k in range(k_max + 1):
        out.append(sum(math.comb(k, j) * central[j] * mean ** (k - j)
                       for j in range(k + 1)))
    return out


def _motzkin_moments(alpha, beta, order):
    """Moments of the Jacobi matrix with monic recurrence data (alpha, beta).

    Weighted Motzkin-path count: level-j flats weigh alpha[j], down-steps
    from level j weigh beta[j-1].  Exact for exact inputs.
    """
    levels = order // 2 + 1
    state = [0] * (levels + 1)
    state[0] = 1
    out = [1]
    for _ in range(order):
        new = [0] * (levels + 1)
        for j, v in enumerate(state):
            if v == 0:
                continue
            new[j] += v * alpha[j]
            if j + 1 <= levels:
                new[j + 1] += v
            if j >= 1:
                new[j - 1] += v * beta[j - 1]
        state = new
        out.append(state[0])
    return out


def _grid_from_edge_singular_law(law, resolution):
    """Grid realization for laws with inverse-square-root edge blowups.

    Interior nodes carry the pointwise density; the two terminal nodes are
    adjusted so the boundary cells' trapezoid mass matches the exact CDF,
    then the whole density is renormalized.
    """
    lo, hi = law.edges()
    grid = np.linspace(lo - _PAD, hi + _PAD, resolution)
    dens = law.density_at(grid)
    h = grid[1] - grid[0]
    ncorr = 8  # edge cells made mass-exact by a boundary-inward sweep
    for i in range(resolution - 2, resolution - 2 - ncorr, -1):
        cell = law.cdf_exact(grid[i + 1]) - law.cdf_exact(grid[i])
        dens[i + 1] = max(2 * cell / h - dens[i], 0.0)
    for i in range(1, 1 + ncorr):
        cell = law.cdf_exact(grid[i]) - law.cdf_exact(grid[i - 1])
        dens[i - 1] = max(2 * cell / h - dens[i], 0.0)
    dens = dens / np.trapezoid(dens, grid)
    return GridMeasure(grid, dens)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def moments(measure, order, allow_truncated=False):
    """Raw moments of a measure or law up to the given order."""
    if isinstance(measure, MomentSequence):
        return measure.truncate(order)
    if isinstance(measure, Law):
        return measure.moments(order, allow_truncated=allow_truncated)
    return measure.moments(order)


def variance(measure):
    return moments(measure, 2, allow_truncated=True).variance()


def levy_distance(mu, nu, tol=1e-12):
    """Levy metric: the least delta such that the CDFs of mu and nu sandwich
    each other within a (delta, delta) margin.  Computed by bisection over
    the merged breakpoint set.
    """
    pts = np.unique(np.concatenate([_breakpoints(mu), _breakpoints(nu)]))

    def feasible(delta):
        for a, b in ((mu, nu), (nu, mu)):
            # sup_x F_a(x) - F_b(x + delta) <= delta; the sup over each
            # continuity interval is attained approaching a breakpoint.
            for x in pts:
                if a.cdf(x) - b.cdf(x + delta) > delta + 1e-15:
                    return False
                if a.cdf(x, left=True) - b.cdf(x + delta, left=True) > delta + 1e-15:
                    return False
        return True

    lo, hi = 0.0, 1.0
    if feasible(0.0):
        return 0.0
    while not feasible(hi):
        hi *= 2
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _breakpoints(m):
    if isinstance(m, AtomicMeasure):
        return m.positions
    pts = [m.grid]
    if m.atoms:
        pts.append(np.array([x for x, _ in m.atoms]))
    return np.concatenate(pts)


def sample(law, n, seed):
    """Draw n samples; deterministic for a given seed."""
    if n < 1:
        raise MeasureError("sample count must be >= 1")
    return law.sample(n, seed)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def measure_to_json(m):
    if isinstance(m, AtomicMeasure):
        return {"atoms": [[float(x), float(w)] for x, w in m.atoms]}
    if isinstance(m, GridMeasure):
        return {
            "grid": [float(x) for x in m.grid],
            "density": [float(d) for d in m.density],
            "atoms": [[float(x), float(w)] for x, w in m.atoms],
        }
    if isinstance(m, MomentSequence):
        return {"moments": [float(v) for v in m.values]}
    raise MeasureError(f"cannot serialize {type(m).__name__}")


def _is_real(v):
    # json.load gives int and float; the ABC check, five times slower,
    # admits other reals and refuses bools
    return type(v) in (float, int) or (isinstance(v, numbers.Real)
                                       and not isinstance(v, bool))


def json_real(value, where, error=MeasureError):
    """``value`` when it is a real number (bools are not numbers here);
    else ``error`` naming ``where``."""
    if not _is_real(value):
        raise error(f"{where} must be a real number, got {value!r}")
    return value


def json_reals(values, where, size=None, error=MeasureError):
    """``values`` as given when it is a list (of ``size`` entries, if set)
    of real numbers, so ints stay ints; else ``error`` naming ``where`` or
    its bad entry."""
    if not isinstance(values, (list, tuple)) or size not in (None, len(values)):
        want = "a list" if size is None else f"a list of {size} numbers"
        raise error(f"{where} must be {want}, got {values!r}")
    for i, v in enumerate(values):
        if not _is_real(v):  # name the entry only once one is bad
            json_real(v, f"{where}[{i}]", error)
    return values


def _json_atoms(obj):
    atoms = obj.get("atoms", [])
    if not isinstance(atoms, (list, tuple)):
        raise MeasureError(f"measure JSON atoms must be a list, got {atoms!r}")
    return tuple(tuple(json_reals(a, f"measure JSON atoms[{i}]", 2))
                 for i, a in enumerate(atoms))


def measure_from_json(obj):
    if not isinstance(obj, dict):
        raise MeasureError("measure JSON must be an object")
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
    raise MeasureError("unrecognized measure JSON")


def save_measure(m, path):
    with open(path, "w") as fh:
        json.dump(measure_to_json(m), fh)


def load_measure(path):
    with open(path) as fh:
        return measure_from_json(json.load(fh))


def write_density_csv(m, path):
    """Two-column x,density CSV for plotting."""
    if isinstance(m, AtomicMeasure):
        raise MeasureError("atomic measures have no density to emit")
    with open(path, "w") as fh:
        fh.write("x,density\n")
        for x, d in zip(m.grid, m.density):
            fh.write(f"{float(x)!r},{float(d)!r}\n")
