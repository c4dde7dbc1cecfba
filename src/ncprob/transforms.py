"""Holomorphic transforms of measures and moment/cumulant calculus.

The Cauchy transform G(z) = integral of 1/(z - x), its reciprocal F = 1/G,
the difference B = z - F, Stieltjes-Perron inversion with Richardson
extrapolation in the regularization parameter, Nevanlinna data extraction,
and the bijections between moments and free/Boolean/classical cumulants.
"""

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# sqrt_upper is re-exported: callers reach it as transforms.sqrt_upper
from .measures import (AtomicMeasure, GridMeasure, MomentSequence,
                       sqrt_upper)
from .series import LaurentSeries


class TransformError(ValueError):
    pass


class NormalizationError(TransformError):
    """iy*G(iy) does not tend to 1: not a Cauchy transform of a probability."""


class MassError(TransformError):
    """Recovered mass too far from 1 to renormalize honestly."""


class NotHerglotz(TransformError):
    """Map leaves the closed upper half-plane at a probe point."""


class AtomCollision(TransformError):
    """Evaluation point coincides with an atom."""


DEFAULT_EPS_LADDER = (1e-2, 5e-3, 2.5e-3)
ATOM_THRESHOLD = 1e-4


# ---------------------------------------------------------------------------
# transforms of measures
# ---------------------------------------------------------------------------

def _require_upper(z):
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag <= 0):
        raise TransformError("evaluation requires Im(z) > 0")
    return z


def cauchy(measure, z):
    """Cauchy transform of an atomic or gridded measure at points of H.

    Atom sums are exact; the density part integrates the piecewise-linear
    interpolant in closed form, so accuracy is O(h^2) uniformly in Im(z).
    """
    z = _require_upper(z)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.zeros_like(z)
    if isinstance(measure, AtomicMeasure):
        atoms = measure.atoms
        grid = dens = None
    elif isinstance(measure, GridMeasure):
        atoms = measure.atoms
        grid, dens = measure.grid, measure.density
    else:
        raise TransformError(f"cannot transform {type(measure).__name__}")
    for a, w in atoms:
        out += float(w) / (z - float(a))
    if grid is not None:
        out += _cauchy_linear_density(grid, dens, z)
    return out[0] if scalar else out


def _cauchy_linear_density(grid, dens, z, chunk=128):
    x0, x1 = grid[:-1], grid[1:]
    h = x1 - x0
    slope = (dens[1:] - dens[:-1]) / h
    intercept = dens[:-1] - slope * x0
    out = np.empty_like(z)
    for start in range(0, z.size, chunk):
        zz = z[start:start + chunk, None]
        w = h / (zz - x1)
        # log((z-x0)/(z-x1)) = log1p(w); series branch avoids cancellation
        small = np.abs(w) < 1e-2
        ws = np.where(small, w, 0.0)
        # each complex product keeps its temporary as the left operand:
        # complex multiplication is not bitwise commutative (fused
        # multiply-add SIMD loops), and numpy's temporary elision turns
        # ws * tmp into tmp * ws once tmp exceeds 256 KiB, so the other
        # order would make a value depend on how many points share a chunk
        series = (1 + (-1 / 2 + (1 / 3 + (-1 / 4 + (
            1 / 5 + ws * (-1 / 6)) * ws) * ws) * ws) * ws) * ws
        logs = np.where(small, series, np.log(np.where(small, 1.0, 1.0 + w)))
        vals = (intercept + slope * zz) * logs - slope * h
        out[start:start + chunk] = vals.sum(axis=1)
    return out


def f_transform(measure, z):
    """F = 1/G; maps H into H with Im F(z) >= Im z."""
    g = cauchy(measure, z)
    if np.any(np.abs(g) < 1e-300):
        raise TransformError("degenerate Cauchy transform value")
    return 1.0 / g


def b_transform(measure, z):
    """B = z - F; maps H into the closed lower half-plane."""
    return np.asarray(z, dtype=complex) - f_transform(measure, z)


# ---------------------------------------------------------------------------
# extrapolation helpers
# ---------------------------------------------------------------------------

def extrapolate_to_zero(xs, values):
    """Polynomial (Neville) extrapolation of values(x) to x = 0.

    ``values`` may be a list of numbers or of equal-shaped arrays.
    """
    xs = [float(x) for x in xs]
    tab = [np.asarray(v, dtype=float) if np.ndim(v) else v for v in values]
    n = len(tab)
    for m in range(1, n):
        new = []
        for i in range(n - m):
            xi, xim = xs[i], xs[i + m]
            new.append((xi * tab[i + 1] - xim * tab[i]) / (xi - xim))
        tab = new
    return tab[0]


# ---------------------------------------------------------------------------
# Stieltjes-Perron inversion
# ---------------------------------------------------------------------------

_NORM_Y = 1e6  # height of the normalization probe iy*G(iy)
_SCAN_EPS = 1e-6  # height of the real-zero scan


def _require_normalized(value, y, tol):
    """Raise NormalizationError unless iy*G(iy) is 1 within tol, given
    ``value`` = G(iy)."""
    val = 1j * y * value
    if abs(val - 1.0) > tol:
        raise NormalizationError(
            f"iy*G(iy) = {val:.6g} at y={y:.0e}; not a probability Cauchy transform"
        )


def check_cauchy_normalization(g, y=_NORM_Y, tol=1e-3):
    _require_normalized(np.asarray(g(np.array([1j * y])))[0], y, tol)


def _inversion_grid(grid):
    """``grid`` as floats, or TransformError naming what makes it unusable."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise TransformError("inversion grid needs at least 2 points in a "
                             f"1-d array, got shape {grid.shape}")
    if not np.all(np.isfinite(grid)):
        raise TransformError("inversion grid must be finite")
    if not np.all(np.diff(grid) > 0):
        raise TransformError("inversion grid must be strictly increasing")
    return grid


def _ladder_points(xs, eps_ladder):
    """xs + i*eps for every eps of the ladder, one layer after another."""
    return np.concatenate([xs + 1j * eps for eps in eps_ladder])


def _ladder_density(xs, vals, atoms, eps_ladder):
    """-Im G(x + i*eps)/pi extrapolated over the ladder, from ``vals`` = G at
    _ladder_points(xs, eps_ladder); each atom's own term is subtracted from
    every layer first."""
    layers = []
    for eps, v in zip(eps_ladder, np.split(np.asarray(vals), len(eps_ladder))):
        for a, w in atoms:
            v = v - w / (xs + 1j * eps - a)
        layers.append(-v.imag / math.pi)
    return extrapolate_to_zero(eps_ladder, layers)


def _extrapolated_mass(ladder, vals):
    """iy*G(a+iy) extrapolated to y = 0 from ``vals`` = G at a + i*ladder."""
    masses = [(1j * y * v).real for y, v in zip(ladder, vals)]
    return float(extrapolate_to_zero(ladder, masses))


def _spike_candidates(grid, density, eps_min, limit=8):
    """Positions of narrow density spikes that look like smeared atoms."""
    h = float(np.median(np.diff(grid)))
    w = max(2, int(math.ceil(3 * eps_min / h)))
    n = density.size
    out = []
    order = np.argsort(density)[::-1]
    for i in order[: 4 * limit]:
        if density[i] < 1e-3:
            break
        left = density[max(i - w, 0)]
        right = density[min(i + w, n - 1)]
        if density[i] > 4 * max(left, right, 1e-12):
            if all(abs(grid[i] - x) > w * h for x in out):
                out.append(float(grid[i]))
        if len(out) >= limit:
            break
    return out


# The real-zero search.  An equispaced call splits a bracket into _CELLS
# equal cells (63 interior points, as many as six bisection levels), and
# _GRID_CALLS of them leave 64**-6 = 2**-36 of it.  A window call puts
# _WINDOW points on an interpolated root +- w, with w at least one cell of
# the next equispaced call (the interpolation error estimate misses where
# the map bends between nodes, as at the edge of a support) and at least
# _WINDOW_FLOOR * max(1, |x|): chain maps at tol 1e-9 are noisy at about
# that level near the real axis.  Roots are found to _ROOT_TOL * max(1, |x|).
_CELLS, _GRID_CALLS, _WINDOW = 64, 6, 17
_ROOT_TOL, _WINDOW_FLOOR = 1e-11, 1e-9


def _first_change(vs):
    """Index j of the first cell with vs[j] * vs[j + 1] <= 0, or None."""
    hits = np.flatnonzero(vs[:-1] * vs[1:] <= 0)
    return int(hits[0]) if hits.size else None


def _bisected_cell(vs):
    """The cell of ``vs`` (values at _CELLS + 1 equispaced nodes) that
    bisection keeps: the left half wherever its ends' product is <= 0,
    else the right half, as many levels as _CELLS has halvings."""
    j, size = 0, _CELLS
    while size > 1:
        size //= 2
        if not vs[j] * vs[j + size] <= 0:
            j += size
    return j


def _secant(x0, x1, v0, v1):
    """Zero of the line through (x0, v0) and (x1, v1); exact at a zero end."""
    if v1 == 0:
        return x1
    return x0 - v0 * (x1 - x0) / (v1 - v0)


def _inverse_estimate(xs, vs, j):
    """A root in cell j by inverse cubic interpolation x(v) at v = 0 (Neville
    on the four nodes around the cell), and its distance to the inverse
    quintic on six nodes as an error estimate.

    None when those six nodes are not strictly monotone in v (a pole of
    the map, an extremum) or the cubic leaves the cell.
    """
    k = min(max(j - 2, 0), xs.size - 6)
    steps = np.diff(vs[k:k + 6])
    if not (np.all(steps > 0) or np.all(steps < 0)):
        return None
    c = min(max(j - 1, 0), xs.size - 4)
    cubic = float(extrapolate_to_zero(vs[c:c + 4], xs[c:c + 4]))
    if not xs[j] < cubic < xs[j + 1]:
        return None
    return cubic, abs(cubic - float(extrapolate_to_zero(vs[k:k + 6],
                                                        xs[k:k + 6])))


class _Bracket:
    """One search: its sign-change cell (lo, hi, flo, fhi), its pending
    window (or None), its equispaced calls so far and whether it has had
    its window."""

    def __init__(self, lo, hi, flo, fhi):
        self.cell = (float(lo), float(hi), float(flo), float(fhi))
        self.window, self.grids, self.tried = None, 0, False

    def _grid(self):
        return np.linspace(self.cell[0], self.cell[1], _CELLS + 1)

    def points(self):
        """Where the next call evaluates Re f."""
        return self._grid()[1:-1] if self.window is None else self.window

    def update(self, vs):
        """Take Re f at ``points()``; gives the root once it is found."""
        if self.window is not None:
            xs, self.window = self.window, None
            j = _first_change(vs)
            # none, or one against the cell's own (so the cell holds three
            # or more): equispaced calls go on over the cell
            if j is None or vs[j] * self.cell[2] < 0:
                return None
        else:
            xs = self._grid()
            vs = np.concatenate([[self.cell[2]], vs, [self.cell[3]]])
            j = _bisected_cell(vs)
            self.grids += 1
        self.cell = lo, hi, flo, fhi = xs[j], xs[j + 1], vs[j], vs[j + 1]
        hit = flo * fhi < 0 and _inverse_estimate(xs, vs, j)
        # the first estimate is checked by a window; later ones end the
        # search once accurate
        if (hit and self.tried
                and hit[1] <= _ROOT_TOL * max(1.0, abs(hit[0]))):
            return hit[0]
        if (flo * fhi == 0 or self.grids == _GRID_CALLS
                or hi - lo <= _ROOT_TOL * max(1.0, abs(lo))):
            return _secant(*self.cell)
        if hit and not self.tried:
            x, err = hit
            w = max(4 * err, (hi - lo) / _CELLS,
                    _WINDOW_FLOOR * max(1.0, abs(x)))
            self.window = np.linspace(max(x - w, lo), min(x + w, hi), _WINDOW)
            self.tried = True
        return None


def _bracketed_roots(f, lo, hi, flo, fhi, eps):
    """Zeros of Re f(x + i*eps), one in each bracket [lo, hi] whose end
    values ``flo``, ``fhi`` differ in sign.

    Every bracket shares each call of ``f``.  An equispaced call keeps the
    cell that bisection would keep; a window call keeps its first sign
    change.  The search ends when inverse interpolation around the kept
    cell is accurate (see ``_inverse_estimate``), and otherwise makes its
    next call a window around the interpolated root, once per bracket,
    or an equispaced call over the cell.  After _GRID_CALLS equispaced
    calls the secant root of the cell is taken, so a search makes at most
    _GRID_CALLS + 1 calls; at a simple zero it usually makes two.
    """
    brackets = [_Bracket(*b) for b in zip(lo, hi, flo, fhi)]
    roots = [None] * len(brackets)
    while None in roots:
        open_ = [b for b, r in enumerate(roots) if r is None]
        pts = [brackets[b].points() for b in open_]
        vals = np.asarray(f(np.concatenate(pts) + 1j * eps)).real
        splits = np.cumsum([p.size for p in pts])[:-1]
        for b, vs in zip(open_, np.split(vals, splits)):
            roots[b] = brackets[b].update(vs)
    return [np.float64(r) for r in roots]


def _refine_pole(g, a, halfwidth, eps=1e-7):
    """Sharpen an atom position: Re G(x + i*eps) changes sign at a pole.

    Both bracket ends are evaluated in one call, and the root search
    (``_bracketed_roots``) makes one to seven more.
    """
    lo, hi = a - halfwidth, a + halfwidth
    flo, fhi = np.asarray(g(np.array([lo + 1j * eps, hi + 1j * eps]))).real
    if flo * fhi >= 0:
        return a
    return float(_bracketed_roots(g, [lo], [hi], [flo], [fhi], eps)[0])


_VETO_LADDER = (1e-6, 3e-7, 1e-7)


def _vetted_atom(g, a, eps_ladder):
    """(a, mass) when the mass ladder at ``a`` shows an atom, else None.

    One call of ``g`` evaluates ``eps_ladder`` and the branch-point veto
    ladder: a genuine atom keeps its mass at much smaller regularization,
    while square-root edges decay.
    """
    n = len(eps_ladder)
    vals = np.asarray(g(np.array(
        [a + 1j * y for y in (*eps_ladder, *_VETO_LADDER)])))
    m = _extrapolated_mass(eps_ladder, vals[:n])
    if m < ATOM_THRESHOLD:
        return None
    if _extrapolated_mass(_VETO_LADDER, vals[n:]) < 0.5 * m:
        return None
    return float(a), float(m)


def stieltjes_invert(g, grid, atom_candidates=(),
                     eps_ladder=DEFAULT_EPS_LADDER):
    """Recover a measure from its Cauchy transform ``g``, a vectorized
    function of a complex array, or from the measure itself.

    Density via -Im G(x + i*eps)/pi extrapolated over the eps ladder; atom
    masses via the iy*G(a+iy) limit at the supplied candidates plus any
    narrow spikes the first density pass exposes.  Cells with steep density
    jumps (square-root support edges) are locally refined so the trapezoid
    mass stays accurate.  The result is renormalized to unit mass if the
    recovered mass lies within 2 percent of 1.  One call of ``g`` evaluates
    the normalization probe and every ladder layer of the grid, and each
    refine pass, two at most, one more.
    """
    if isinstance(g, (AtomicMeasure, GridMeasure)):
        g = functools.partial(cauchy, g)
    grid = _inversion_grid(grid)
    first = np.asarray(g(np.concatenate(
        [[1j * _NORM_Y], _ladder_points(grid, eps_ladder)])))
    return _invert(g, grid, first, atom_candidates, eps_ladder)


def _invert(g, grid, first, atom_candidates, eps_ladder):
    """``stieltjes_invert`` given ``first``, the values of ``g`` at i*_NORM_Y
    followed by _ladder_points(grid, eps_ladder), which the normalization
    check and every density pass over the grid read."""
    _require_normalized(first[0], _NORM_Y, 1e-3)
    ladder = first[1:]
    atoms = []
    for a in atom_candidates:
        hit = _vetted_atom(g, a, eps_ladder)
        if hit:
            atoms.append(hit)
    atoms.sort()

    density = _ladder_density(grid, ladder, atoms, eps_ladder)
    eps_min = min(eps_ladder)
    h = float(np.median(np.diff(grid)))
    found = False
    for a in _spike_candidates(grid, density, eps_min):
        if any(abs(a - x) <= 5 * max(eps_min, h) for x, _ in atoms):
            continue
        a = _refine_pole(g, a, halfwidth=3 * max(eps_min, h))
        hit = _vetted_atom(g, a, eps_ladder)
        if hit:
            atoms.append(hit)
            found = True
    if found:
        atoms.sort()
        density = _ladder_density(grid, ladder, atoms, eps_ladder)

    for _ in range(2):  # refine passes
        scale = max(np.abs(density).max(), 1e-12)
        jump = np.abs(np.diff(density))
        flagged = np.nonzero(jump > 0.2 * scale)[0]
        if flagged.size == 0:
            break
        cells = set()
        for i in flagged:  # pad so the smeared edge lobes get resolved too
            cells.update(range(max(i - 2, 0), min(i + 3, grid.size - 1)))
        extra = np.concatenate([
            np.linspace(grid[i], grid[i + 1], 9)[1:-1] for i in sorted(cells)
        ])
        vals = g(_ladder_points(extra, eps_ladder))
        grid = np.concatenate([grid, extra])
        density = np.concatenate(
            [density, _ladder_density(extra, vals, atoms, eps_ladder)])
        order = np.argsort(grid)
        grid, density = grid[order], density[order]

    # renormalize on the signed mass (small negative extrapolation lobes
    # legitimately cancel smeared edge surplus), then clip for output
    mass = float(np.trapezoid(density, grid)) + sum(w for _, w in atoms)
    if not 0.98 <= mass <= 1.02:
        raise MassError(f"recovered mass {mass:.4f} outside [0.98, 1.02]")
    density = np.clip(density / mass, 0.0, None)
    atoms = [(a, w / mass) for a, w in atoms]
    atom_total = sum(w for _, w in atoms)
    dens_mass = float(np.trapezoid(density, grid))
    if atom_total >= 1.0 or dens_mass <= 1e-12:
        # purely atomic recovery; absorb clip residue into the atoms
        density = np.zeros_like(density)
        atoms = [(a, w / atom_total) for a, w in atoms]
    else:
        density *= (1.0 - atom_total) / dens_mass
    return GridMeasure(grid, density, tuple(atoms))


def scan_real_zeros(f, grid, eps=_SCAN_EPS):
    """Real-axis zero candidates of a holomorphic map from a sign scan.

    Looks for sign changes of Re f(x + i*eps) along the grid and finds the
    zero in each; used to locate poles of 1/F, i.e. atom candidates.  One
    call evaluates the scan row, and the root search (``_bracketed_roots``)
    makes one to seven more, each shared by every bracket.
    """
    row = np.asarray(f(grid + 1j * eps)).real
    return _sign_change_roots(f, grid, row, eps)


def _sign_change_roots(f, grid, row, eps, searched=True):
    """The zero in every sign change of ``row`` = Re f(grid + i*eps) from
    grid[i] to grid[i + 1] where ``searched`` (an array over i) holds."""
    sign = np.sign(row)
    cross = np.nonzero((sign[:-1] * sign[1:] < 0) & searched)[0]
    return _bracketed_roots(f, grid[cross], grid[cross + 1], row[cross],
                            row[cross + 1], eps)


def _grid_atom_candidates(grid, row, roots):
    """The grid points x with |F(x + i*_SCAN_EPS)| <= _SCAN_EPS/ATOM_THRESHOLD
    (``row`` holds F there) and no root of ``roots`` within one cell.

    An atom on a grid point need not make a sign change of Re F: Re F can
    be exactly 0 there, and a pole of F can share each neighbouring cell
    with a zero, so that the signs at its ends agree.
    """
    near = np.flatnonzero(np.abs(row) <= _SCAN_EPS / ATOM_THRESHOLD)
    lo = grid[np.maximum(near - 1, 0), None]
    hi = grid[np.minimum(near + 1, grid.size - 1), None]
    r = np.asarray(roots, dtype=float)
    lone = ~np.any((lo <= r) & (r <= hi), axis=1)
    return [float(x) for x in grid[near[lone]]]


def measure_from_ftransform(f, grid, atom_candidates=None,
                            eps_ladder=DEFAULT_EPS_LADDER):
    """Stieltjes inversion of 1/F for an F-transform ``f``, a vectorized
    function of a complex array.

    Without ``atom_candidates`` the real zeros of F are scanned for at
    height _SCAN_EPS.  One call of ``f`` evaluates that scan row, the
    normalization probe and every ladder layer of the grid.

    An atom of mass m at a is a zero of F, |F(a + i*eps)| ~ eps/m, while
    inside the support F is far from real.  So a sign change of Re F over a
    cell of width h is skipped, without a call, when at both its ends
    Im F > max(|Re F|, eps/ATOM_THRESHOLD) and F is flat: with y the
    smallest ladder height, |F(x + i*y) - F(x + i*eps)| * max(h, 2(y - eps))
    < (y - eps) |F(x + i*eps)|.  Flatness says that a line with the slope
    |F'| of the two heights cannot reach zero within the cell.  Near a pole
    of F, Im F can exceed |Re F| as inside a support, but F grows about
    y/eps-fold from height y to eps, so |F(x + i*y) - F(x + i*eps)| is
    about |F(x + i*eps)| and the span 2(y - eps) fails flatness even in a
    cell narrower than y.  Atoms closer together than y act as one from
    height y, so F can be flat between them, but there |F| is below
    eps/ATOM_THRESHOLD.  Outside the support F is nearly real.  An atom of
    mass m embedded in a density at distance d <= h/2 from an end adds
    m/d**2 to |G'|, so its cell is skipped only when m is below about
    h |G|/4; such an atom is found as a density spike (``_spike_candidates``)
    if the grid resolves it, and is otherwise left in the density.  Atoms
    on grid points that make no sign change are candidates as well
    (``_grid_atom_candidates``).
    """
    grid = _inversion_grid(grid)
    scan = atom_candidates is None
    rows = [grid + 1j * _SCAN_EPS] if scan else []
    vals = np.asarray(f(np.concatenate(
        rows + [[1j * _NORM_Y], _ladder_points(grid, eps_ladder)])))
    if scan:
        row, vals = vals[:grid.size], vals[grid.size:]
        k = int(np.argmin(eps_ladder))
        rise = abs(eps_ladder[k] - _SCAN_EPS)
        change = np.abs(vals[1 + k * grid.size:1 + (k + 1) * grid.size] - row)
        reach = np.maximum(np.diff(grid), 2 * rise)
        size = rise * np.abs(row)
        far = row.imag > np.maximum(np.abs(row.real),
                                    _SCAN_EPS / ATOM_THRESHOLD)
        skip = (far[:-1] & far[1:] & (change[:-1] * reach < size[:-1])
                & (change[1:] * reach < size[1:]))
        roots = _sign_change_roots(f, grid, row.real, _SCAN_EPS, ~skip)
        atom_candidates = roots + _grid_atom_candidates(grid, row, roots)
    return _invert(lambda z: 1.0 / f(z), grid, 1.0 / vals, atom_candidates,
                   eps_ladder)


# ---------------------------------------------------------------------------
# Nevanlinna data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NevanlinnaData:
    a: float
    b: float

    def __post_init__(self):
        if self.b < -1e-12:
            raise TransformError("Nevanlinna slope b must be nonnegative")


def nevanlinna_extract(f, probe_ys=(1e3, 1e4, 1e5, 1e6)):
    """Extract (a, b): a = Re f(i), b = lim f(iy)/(iy), Richardson in 1/y."""
    check_zs = [1j, 1 + 1j, -2 + 0.5j, 3j]  # the first gives a = Re f(i)
    vals = np.asarray(f(np.array(check_zs + [1j * y for y in probe_ys])))
    if np.any(vals[:len(check_zs)].imag < -1e-9):
        raise NotHerglotz("Im f < 0 at a probe point")
    ratios = [(v / (1j * y)).real
              for y, v in zip(probe_ys, vals[len(check_zs):])]
    b = float(extrapolate_to_zero([1.0 / y for y in probe_ys], ratios))
    return NevanlinnaData(a=float(vals[0].real), b=b)


# ---------------------------------------------------------------------------
# Hilbert transform
# ---------------------------------------------------------------------------

def hilbert_transform(measure, x, eps=1e-2):
    """(1/pi) Re G(x + i*eps) extrapolated to eps -> 0, for a measure or its
    Cauchy transform, a vectorized function of a complex array.

    Agrees with the principal-value integral for continuous densities.
    """
    if isinstance(measure, (AtomicMeasure, GridMeasure)):
        for a, _ in measure.atoms:
            if abs(x - a) < 1e-9:
                raise AtomCollision(f"x = {x} collides with atom at {a}")
        g = functools.partial(cauchy, measure)
    else:
        g = measure
    ladder = (eps, eps / 2, eps / 4)
    vals = np.asarray(g(np.array([x + 1j * e for e in ladder]))).real
    return float(extrapolate_to_zero(ladder, list(vals / math.pi)))


# ---------------------------------------------------------------------------
# moment <-> cumulant calculus
# ---------------------------------------------------------------------------

def _values(m):
    if isinstance(m, MomentSequence):
        return list(m.values)
    return list(m)


CUMULANT_KINDS = ("classical", "boolean", "free")


def _moment_cumulant(kind, given, to_cumulants):
    """Solve m_k = c_k + sum_{j<k} c_j w_{k,j} for the side not given.

    The weight depends on the family: m_{k-j} (Boolean),
    C(k-1, j-1) m_{k-j} (classical), and [z^(k-j)] M(z)^j (free, from
    M(z) = 1 + sum_k kappa_k z^k M(z)^k).  w_{k,j} needs moments below
    order k only, so one pass solves either direction; the free powers
    gain one degree per known moment and are never rebuilt.
    """
    if kind not in CUMULANT_KINDS:
        raise ValueError(
            f"unknown cumulant kind {kind!r}; one of {CUMULANT_KINDS}")
    given = _values(given)
    op = operator.sub if to_cumulants else operator.add
    mom, cum = [1], []  # mom[d] = m_d, so mom is the series M(z) too
    powers = [[1]]  # powers[j][d] = [z^d] M(z)^j, known for d <= k - j
    for k in range(1, len(given) + 1):
        if kind == "free":
            for j in range(1, k):
                d = k - j
                powers[j].append(sum(a * mom[d - i] for i, a
                                     in enumerate(powers[j - 1][:d + 1])))
            powers.append([1])
            terms = (cum[j - 1] * powers[j][k - j] for j in range(1, k))
        elif kind == "classical":
            terms = (math.comb(k - 1, j - 1) * cum[j - 1] * mom[k - j]
                     for j in range(1, k))
        else:
            terms = (cum[j - 1] * mom[k - j] for j in range(1, k))
        solved = functools.reduce(op, terms, given[k - 1])
        mom.append(given[k - 1] if to_cumulants else solved)
        cum.append(solved if to_cumulants else given[k - 1])
    return cum if to_cumulants else mom[1:]


def moments_to_cumulants(kind, m):
    """Cumulants c_1..c_K of a kind in ``CUMULANT_KINDS`` from K moments.

    Exact inputs (int, Fraction) give exact cumulants.
    """
    return _moment_cumulant(kind, m, True)


def cumulants_to_moments(kind, c):
    """The MomentSequence m_1..m_K whose cumulants of ``kind`` are c."""
    return MomentSequence(tuple(_moment_cumulant(kind, c, False)))


# ---------------------------------------------------------------------------
# series-level transforms
# ---------------------------------------------------------------------------

def cauchy_series(m):
    """Truncated Laurent series of G from moments."""
    mom = _values(m)
    return LaurentSeries.from_moments(mom)


def f_series(m):
    """Truncated Laurent series of F = 1/G from moments.

    With K input moments the coefficients of z, z^0, ..., z^(-(K-1)) are
    exact; rational inputs stay rational.
    """
    return cauchy_series(m).reciprocal()


def b_series(m):
    return LaurentSeries.identity(-f_series(m).valid) - f_series(m)


def r_series(m):
    """Truncated R-transform polynomial kappa_1 + kappa_2 z + ... ; its
    coefficients are the free cumulants, and free convolution adds it."""
    kappa = moments_to_cumulants("free", m)
    return LaurentSeries(len(kappa) - 1, list(reversed(kappa)), 0)


def series_moments(f, order):
    """Moments encoded by an F-type series (via 1/F)."""
    return MomentSequence(f.reciprocal().moments(order))


def free_meixner_f_series(n, u, order):
    """Exact series of sqrt((z-u)^2 - 4n) + u down to z^(-order)."""
    pol = LaurentSeries(2, [1, -2 * Fraction(u), Fraction(u) ** 2 - 4 * n]
                        + [0] * order, -order)
    return pol.sqrt() + LaurentSeries.constant(Fraction(u), order)


# ---------------------------------------------------------------------------
# Gaussian quadrature realization of a moment sequence
# ---------------------------------------------------------------------------

def jacobi_recurrence(m):
    """Monic three-term recurrence coefficients from raw moments.

    Chebyshev's algorithm in exact arithmetic when the moments are exact.
    Returns (alpha, beta) with len(alpha) = n for n-point quadrature, where
    2n - 1 <= order of the input.  Stops early if the Hankel rank drops
    (finitely supported measure).
    """
    mom = [_to_exact(v) for v in _values(m)]
    full = [Fraction(1)] + mom
    n = (len(full)) // 2  # nodes supported by available moments
    sigma_prev = [Fraction(0)] * (2 * n)
    sigma = full[: 2 * n]
    alpha = [sigma[1] / sigma[0]]
    beta = [sigma[0]]
    for k in range(1, n):
        new = [Fraction(0)] * (2 * n)
        for l in range(k, 2 * n - k):
            new[l] = (sigma[l + 1] - alpha[k - 1] * sigma[l]
                      - beta[k - 1] * sigma_prev[l])
        if new[k] == 0:
            break
        alpha.append(new[k + 1] / new[k] - sigma[k] / sigma[k - 1])
        beta.append(new[k] / sigma[k - 1])
        if beta[-1] <= 0:
            alpha.pop()
            beta.pop()
            break
        sigma_prev, sigma = sigma, new
    return alpha, beta


def _to_exact(v):
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    return Fraction(v).limit_denominator(10**15) if isinstance(v, float) \
        else Fraction(v)


def moment_quadrature(m):
    """Atomic measure matching the given moments (Golub-Welsch nodes).

    With n recurrence coefficients the atoms reproduce m_1..m_{2n-1}
    exactly (up to float rounding in the eigensolve).
    """
    alpha, beta = jacobi_recurrence(m)
    n = len(alpha)
    d = np.array([float(a) for a in alpha])
    e = np.sqrt(np.array([float(b) for b in beta[1:]]))
    jac = np.diag(d)
    if n > 1:
        jac += np.diag(e, 1) + np.diag(e, -1)
    evals, evecs = np.linalg.eigh(jac)
    weights = evecs[0, :] ** 2
    pairs = [(float(x), float(w)) for x, w in zip(evals, weights) if w > 1e-15]
    return AtomicMeasure.from_pairs(pairs, merge_tol=1e-12, renormalize=True)
