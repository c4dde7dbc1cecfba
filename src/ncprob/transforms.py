"""Holomorphic transforms of measures and moment/cumulant calculus.

The Cauchy transform G(z) = integral of 1/(z - x), its reciprocal F = 1/G,
the difference B = z - F, fixed points of self-maps of H, Stieltjes-Perron
inversion with Richardson extrapolation in the regularization parameter,
and the bijections between moments and free/Boolean/classical cumulants.
"""

import functools
import itertools
import math
import operator
import sys
from fractions import Fraction

import numpy as np

# sqrt_upper is re-exported: callers reach it as transforms.sqrt_upper
from .measures import (AtomicMeasure, FreeMeixner, GridMeasure,
                       MomentSequence, NcprobError, NoConvergence, _is_real,
                       _spectral_pairs, sqrt_upper)
from .series import _reciprocal


DEFAULT_EPS_LADDER = (1e-2, 5e-3, 2.5e-3)
ATOM_THRESHOLD = 1e-4


# ---------------------------------------------------------------------------
# transforms of measures
# ---------------------------------------------------------------------------

def _require_upper(z):
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag <= 0):
        raise NcprobError("evaluation requires Im(z) > 0")
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
        raise NcprobError(f"cannot transform {type(measure).__name__}")
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
        raise NcprobError("degenerate Cauchy transform value")
    return 1.0 / g


def b_transform(measure, z):
    """B = z - F; maps H into the closed lower half-plane."""
    return np.asarray(z, dtype=complex) - f_transform(measure, z)


# ---------------------------------------------------------------------------
# fixed points in H
# ---------------------------------------------------------------------------

_FIXED_POINT_ROUNDS = 60  # rounds at one continuation level before refusing


def _in_upper(vals):
    if not np.all(vals.imag > 0):
        raise NoConvergence("the map left the upper half-plane")
    return vals


def _fixed_point(phi, w, tol):
    """For each entry of the 1-d complex array ``w``, the z in H with
    z = phi(z, w), where phi(., w) maps H into Im >= Im w: a nonlinear
    resolvent, or a subordination function of free convolution.

    The solve continues in Im w.  It solves at w + i*s with
    s = 10 (1 + |w|), then at s/10, s/100, ..., each level from the last
    root, and at s = 0 once s/10 < 1e-3 Im w.  A round takes the Newton
    step of z - phi(z), with a central-difference slope, when the step
    lands in H, moves z by at most Im z and shrinks the gap
    |z - phi|^2/(Im z Im phi); otherwise it takes the plain step
    z -> phi(z), which never grows the gap (Schwarz-Pick).  A level ends
    when |z - phi(z)| <= tol (1 + |z|^2) at the start of a round or after
    its Newton step, a bound that holds next to a pole of the map, where z
    is large.  Every entry takes the rounds it would take alone, so a batch
    entry equals its one-point result.  ``phi`` is called only in H;
    NoConvergence when it leaves H, or after _FIXED_POINT_ROUNDS rounds at
    one level.
    """
    def met(z, f):
        return np.abs(z - f) <= tol * (1 + np.abs(z) ** 2)

    s = 10 * (1 + np.abs(w))
    z = w + 1j * s
    rounds = np.zeros(w.size, dtype=int)
    live = np.arange(w.size)
    while live.size:
        n = live.size
        zl, wl = z[live], w[live] + 1j * s[live]
        h = 1e-7 * np.maximum(1.0, np.abs(zl))
        vals = _in_upper(phi(np.concatenate([zl, zl + h, zl - h]),
                             np.concatenate([wl, wl, wl])))
        f, fp, fm = vals[:n], vals[n:2 * n], vals[2 * n:]
        done = met(zl, f)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = (zl - f) / (1 - (fp - fm) / (2 * h))
        zn = zl - step
        ok = np.flatnonzero(~done & (zn.imag > 0)
                            & (np.abs(step) <= zl.imag))
        new = np.where(done, zl, f)
        if ok.size:
            fn = _in_upper(phi(zn[ok], wl[ok]))
            shrinks = (np.abs(zn[ok] - fn) ** 2 / (zn[ok].imag * fn.imag)
                       < np.abs(zl[ok] - f[ok]) ** 2
                       / (zl[ok].imag * f[ok].imag))
            took = ok[shrinks]
            new[took] = zn[took]
            # a Newton step that meets the stop rule ends its level at once
            done[took] = met(zn[took], fn[shrinks])
        z[live] = new
        rounds[live] = np.where(done, 0, rounds[live] + 1)
        if rounds.max() > _FIXED_POINT_ROUNDS:
            raise NoConvergence(f"no fixed point within {tol:g} (1 + |z|^2) "
                                f"after {_FIXED_POINT_ROUNDS} rounds")
        sl = s[live]
        lower = np.where(sl / 10 >= 1e-3 * w[live].imag, sl / 10, 0.0)
        s[live] = np.where(done, lower, sl)
        live = live[~(done & (sl == 0))]
    return z


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


def _require_normalized(value):
    """Raise NcprobError unless iy*G(iy) is 1 within 1e-3 at y = _NORM_Y,
    given ``value`` = G(iy); a NaN fails every comparison, so it is refused
    too."""
    val = 1j * _NORM_Y * value
    if not abs(val - 1.0) <= 1e-3:
        raise NcprobError(
            f"iy*G(iy) = {val:.6g} at y={_NORM_Y:.0e}; not a probability "
            "Cauchy transform"
        )


def check_cauchy_normalization(g):
    _require_normalized(np.asarray(g(np.array([1j * _NORM_Y])))[0])


def _inversion_grid(grid):
    """``grid`` as floats, or NcprobError naming what makes it unusable."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise NcprobError("inversion grid needs at least 2 points in a "
                          f"1-d array, got shape {grid.shape}")
    if not np.all(np.isfinite(grid)):
        raise NcprobError("inversion grid must be finite")
    if not np.all(np.diff(grid) > 0):
        raise NcprobError("inversion grid must be strictly increasing")
    return grid


def _real_points(values, what):
    """``values`` as a 1-d float array, or NcprobError naming ``what``
    unless it is a sequence of finite reals."""
    seq = np.iterable(values) and not isinstance(values, (str, bytes))
    items = list(values) if seq else [values]
    for x in items:
        if not (seq and _is_real(x) and abs(x) <= sys.float_info.max):
            raise NcprobError(f"{what} must be a 1-d sequence of finite "
                              f"reals, got {x!r}")
    return np.array(items, dtype=float)


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


def _bracket_search(lo, hi, flo, fhi):
    """One search over the sign-change cell (lo, hi, flo, fhi), as a
    generator: it yields the points where it needs Re f next, is sent
    Re f there, and returns the root."""
    lo, hi, flo, fhi = float(lo), float(hi), float(flo), float(fhi)
    window, grids, tried = None, 0, False
    while True:
        if window is not None:
            xs, window = window, None
            vs = yield xs
            j = _first_change(vs)
            # none, or one against the cell's own (so the cell holds three
            # or more): equispaced calls go on over the cell
            if j is None or vs[j] * flo < 0:
                continue
        else:
            xs = np.linspace(lo, hi, _CELLS + 1)
            vs = np.concatenate([[flo], (yield xs[1:-1]), [fhi]])
            j = _bisected_cell(vs)
            grids += 1
        lo, hi, flo, fhi = xs[j], xs[j + 1], vs[j], vs[j + 1]
        hit = flo * fhi < 0 and _inverse_estimate(xs, vs, j)
        # the first estimate is checked by a window; later ones end the
        # search once accurate
        if hit and tried and hit[1] <= _ROOT_TOL * max(1.0, abs(hit[0])):
            return hit[0]
        if (flo * fhi == 0 or grids == _GRID_CALLS
                or hi - lo <= _ROOT_TOL * max(1.0, abs(lo))):
            return _secant(lo, hi, flo, fhi)
        if hit and not tried:
            x, err = hit
            w = max(4 * err, (hi - lo) / _CELLS,
                    _WINDOW_FLOOR * max(1.0, abs(x)))
            window = np.linspace(max(x - w, lo), min(x + w, hi), _WINDOW)
            tried = True


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
    searches = [_bracket_search(*b) for b in zip(lo, hi, flo, fhi)]
    pending = {b: next(s) for b, s in enumerate(searches)}
    roots = [None] * len(searches)
    while pending:
        pts = list(pending.values())
        vals = np.asarray(f(np.concatenate(pts) + 1j * eps)).real
        splits = np.cumsum([p.size for p in pts])[:-1]
        for b, vs in zip(list(pending), np.split(vals, splits)):
            try:
                pending[b] = searches[b].send(vs)
            except StopIteration as stop:
                roots[b] = stop.value
                del pending[b]
    return [np.float64(r) for r in roots]


_ATOM_Y, _VETO_Y = 1e-6, 1e-7  # heights of an atom's mass and of its veto


def _vetted_atoms(f, candidates):
    """(a, mass) for each candidate a of mass Re(iy/F(a + iy)) at y = _ATOM_Y
    at least ATOM_THRESHOLD, in order of a; the mass tends to mu({a})
    (Julia-Caratheodory).  Next to a square-root edge it decays like
    sqrt(y), so a candidate is kept only if its value at _VETO_Y is within
    25 percent.  One call of ``f`` evaluates every candidate at both
    heights; with no candidate there is no call."""
    n = candidates.size
    if n == 0:
        return []
    vals = 1.0 / np.asarray(f(np.concatenate([candidates + 1j * _ATOM_Y,
                                              candidates + 1j * _VETO_Y])))
    mass = (1j * _ATOM_Y * vals[:n]).real
    low = (1j * _VETO_Y * vals[n:]).real
    keep = (mass >= ATOM_THRESHOLD) & (np.abs(low - mass) <= 0.25 * mass)
    return sorted(zip(candidates[keep].tolist(), mass[keep].tolist()))


def stieltjes_invert(g, grid, atom_candidates=None):
    """Recover a measure from its Cauchy transform ``g``, a vectorized
    function of a complex array, or from the measure itself.

    This is ``measure_from_ftransform`` of 1/g: without ``atom_candidates``
    the atoms are the real zeros of F = 1/G, and with them only those
    points are vetted.
    """
    if isinstance(g, (AtomicMeasure, GridMeasure)):
        g = functools.partial(cauchy, g)

    def f(z):
        # a NaN or zero G is refused at the probe, with no warning first
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / np.asarray(g(z))

    return measure_from_ftransform(f, grid, atom_candidates)


def scan_real_zeros(f, grid):
    """Real-axis zero candidates of a holomorphic map from a sign scan.

    Looks for upward sign changes of Re f(x + i*1e-6) along the grid and
    finds the zero in each; used to locate poles of 1/F, i.e. atom
    candidates.  One call evaluates the scan row, and the root search
    (``_bracketed_roots``) makes one to seven more, each shared by every
    bracket.
    """
    row = np.asarray(f(grid + 1j * _SCAN_EPS)).real
    return _sign_change_roots(f, grid, row, _SCAN_EPS)


def _sign_change_roots(f, grid, row, eps, searched=True):
    """The zero in every change of ``row`` = Re f(grid + i*eps) from below 0
    at grid[i] to above 0 at grid[i + 1] where ``searched`` (an array over
    i) holds.  F'(a) = 1/mu({a}) > 0 at an atom a, so a downward change is a
    pole of F, a zero of G, and never an atom."""
    cross = np.nonzero((row[:-1] < 0) & (row[1:] > 0) & searched)[0]
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


def _refine_points(grid, flagged):
    """Seven equispaced interior points in each cell [grid[i], grid[i+1]]
    within two cells of a flagged one (padded so the smeared edge lobes get
    resolved too), cell by cell in ascending order, from one linspace."""
    # a mask, not np.unique, which would load numpy.ma (1.7 MB resident)
    near = np.zeros(grid.size - 1, dtype=bool)
    near[np.clip(flagged[:, None] + np.arange(-2, 3), 0, grid.size - 2)] = True
    cells = np.flatnonzero(near)
    return np.linspace(grid[cells], grid[cells + 1], 9,
                       axis=1)[:, 1:-1].ravel()


def measure_from_ftransform(f, grid, atom_candidates=None,
                            eps_ladder=DEFAULT_EPS_LADDER):
    """Stieltjes inversion of 1/F for an F-transform ``f``, a vectorized
    function of a complex array.

    Density via -Im G(x + i*eps)/pi extrapolated over the eps ladder; atoms
    at the real zeros of F, scanned for at height _SCAN_EPS, or at
    ``atom_candidates`` only, all vetted in one call (``_vetted_atoms``).
    One call of ``f`` evaluates the scan row, the normalization probe and
    every ladder layer of the grid; the probe is checked before the scan.
    Cells with steep density jumps (square-root support edges) are refined,
    one call for each of two passes at most.  The result is renormalized to
    unit mass if the recovered mass lies within 2 percent of 1.

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
    h |G|/4, and such an atom stays in the density.  Atoms on grid points
    that make no sign change are candidates as well
    (``_grid_atom_candidates``).
    """
    grid = _inversion_grid(grid)
    scan = atom_candidates is None
    if not scan:
        atom_candidates = _real_points(atom_candidates, "atom_candidates")
    eps_ladder = tuple(_real_points(eps_ladder, "eps_ladder").tolist())
    if not (eps_ladder and min(eps_ladder) > 0
            and len(set(eps_ladder)) == len(eps_ladder)):
        raise NcprobError("eps_ladder must hold one or more distinct "
                          f"heights > 0, got {eps_ladder}")
    rows = [grid + 1j * _SCAN_EPS] if scan else []
    vals = np.asarray(f(np.concatenate(
        rows + [[1j * _NORM_Y], _ladder_points(grid, eps_ladder)])))
    n = grid.size if scan else 0
    row, probe, ladder = vals[:n], vals[n], vals[n + 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        _require_normalized(1.0 / probe)  # refuses a NaN or zero F
    if scan:
        k = int(np.argmin(eps_ladder))
        rise = abs(eps_ladder[k] - _SCAN_EPS)
        change = np.abs(ladder[k * grid.size:(k + 1) * grid.size] - row)
        reach = np.maximum(np.diff(grid), 2 * rise)
        size = rise * np.abs(row)
        far = row.imag > np.maximum(np.abs(row.real),
                                    _SCAN_EPS / ATOM_THRESHOLD)
        skip = (far[:-1] & far[1:] & (change[:-1] * reach < size[:-1])
                & (change[1:] * reach < size[1:]))
        roots = _sign_change_roots(f, grid, row.real, _SCAN_EPS, ~skip)
        atom_candidates = np.array(
            roots + _grid_atom_candidates(grid, row, roots))
    atoms = _vetted_atoms(f, atom_candidates)
    density = _ladder_density(grid, 1.0 / ladder, atoms, eps_ladder)
    for _ in range(2):  # refine passes
        scale = max(np.abs(density).max(), 1e-12)
        jump = np.abs(np.diff(density))
        flagged = np.nonzero(jump > 0.2 * scale)[0]
        if flagged.size == 0:
            break
        extra = _refine_points(grid, flagged)
        vals = 1.0 / f(_ladder_points(extra, eps_ladder))
        grid = np.concatenate([grid, extra])
        density = np.concatenate(
            [density, _ladder_density(extra, vals, atoms, eps_ladder)])
        order = np.argsort(grid)
        grid, density = grid[order], density[order]

    # renormalize on the signed mass (small negative extrapolation lobes
    # legitimately cancel smeared edge surplus), then clip for output
    mass = float(np.trapezoid(density, grid)) + sum(w for _, w in atoms)
    if not 0.98 <= mass <= 1.02:
        raise NcprobError(f"recovered mass {mass:.4f} outside [0.98, 1.02]")
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


# ---------------------------------------------------------------------------
# moment <-> cumulant calculus
# ---------------------------------------------------------------------------

def _values(m):
    if isinstance(m, MomentSequence):
        return list(m.values)
    return list(m)


CUMULANT_KINDS = ("classical", "boolean", "free")


def _integer_root(e, k):
    """floor(e ** (1/k)) for integers e >= 1, k >= 1 (Newton from above)."""
    r = 1 << -(-e.bit_length() // k)
    while True:
        s = ((k - 1) * r + e // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _grade(values):
    """An integer D >= 1 with D**k * v_k integral for every k = 1, 2, ...

    1 unless every entry is an int or a Fraction.  Where a denominator
    does not divide D**k, D grows by the k-th root of the missing factor
    when that is whole and by the factor itself otherwise, so moments
    with denominators q**k keep D = q where an lcm would give q**K.
    """
    if any(type(v) not in (int, Fraction) for v in values):
        return 1
    grade = 1
    for k, v in enumerate(values, 1):
        scale = grade ** k
        if scale % v.denominator:
            e = v.denominator // math.gcd(v.denominator, scale)
            root = _integer_root(e, k)
            grade *= root if root ** k == e else e
    return grade


def _moment_cumulant(kind, given, to_cumulants):
    """Solve m_k = c_k + sum_{j<k} c_j w_{k,j} for the side not given.

    The weight depends on the family: m_{k-j} (Boolean),
    C(k-1, j-1) m_{k-j} (classical), and [z^(k-j)] M(z)^j (free, from
    M(z) = 1 + sum_k kappa_k z^k M(z)^k).  w_{k,j} needs moments below
    order k only, so one pass solves either direction; the free powers
    gain one degree per known moment and are never rebuilt.

    The relations are isobaric: c_j, m_j and [z^j] M^i have weight j and
    every term of the k-th relation has weight k.  Scaling each value by
    D**weight, with D from ``_grade``, turns rational inputs into integers
    that the same loop solves without a gcd; outputs are unscaled once.
    """
    if kind not in CUMULANT_KINDS:
        raise NcprobError(
            f"unknown cumulant kind {kind!r}; one of {CUMULANT_KINDS}")
    given = _values(given)
    grade = _grade(given)
    if grade > 1:
        # an output stays an int until a Fraction has entered the recursion
        rational = list(itertools.accumulate(
            (type(v) is Fraction for v in given), operator.or_))
        given = [v.numerator * grade ** k // v.denominator
                 for k, v in enumerate(given, 1)]
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
    out = cum if to_cumulants else mom[1:]
    if grade == 1:
        return out
    return [Fraction(v, grade ** k) if frac else v // grade ** k
            for k, (v, frac) in enumerate(zip(out, rational), 1)]


def moments_to_cumulants(kind, m):
    """Cumulants c_1..c_K of a kind in ``CUMULANT_KINDS`` from K moments.

    Exact inputs (int, Fraction) give exact cumulants.  The Boolean
    cumulants are the coefficients of the B-transform,
    B(z) = z - F(z) = sum_k c_k z^(1-k), and the free ones those of the
    R-transform, R(z) = sum_k c_k z^(k-1), which free convolution adds.
    """
    return _moment_cumulant(kind, m, True)


def cumulants_to_moments(kind, c):
    """The MomentSequence m_1..m_K whose cumulants of ``kind`` are c."""
    return MomentSequence(tuple(_moment_cumulant(kind, c, False)))


# ---------------------------------------------------------------------------
# series-level transforms
# ---------------------------------------------------------------------------

def f_series(m):
    """F = 1/G of K moments as the list [1, p_1, ..., p_K] of the power
    series F(z)/z in w = 1/z (see ``ncprob.series``), exact to w^K.

    p_1..p_K are minus the Boolean cumulants; rational inputs stay
    rational.
    """
    return _reciprocal([1, *_values(m)])


def series_moments(f, order):
    """Moments m_1..m_order of an F-series, read off 1/P = 1 + m_1 w + ...;
    the series must reach w^order."""
    if order > len(f) - 1:
        raise NcprobError(f"an F-series to w^{len(f) - 1} holds "
                          f"{len(f) - 1} moments, not {order}")
    return MomentSequence(tuple(_reciprocal(f[:order + 1])[1:]))


def free_meixner_f_series(n, u, order):
    """Exact F-series, to w^order, of the spidernet S_{n,u}'s law, the free
    Meixner law with a = 2n, c = n: F = sqrt((z-u)^2 - 4n) + u."""
    return f_series(FreeMeixner(2 * n, n, Fraction(u)).moments(order))


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
    if not mom:
        raise NcprobError("a recurrence needs at least one moment, got none")
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
    d = np.array([float(a) for a in alpha])
    e = np.sqrt(np.array([float(b) for b in beta[1:]]))
    jac = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    return AtomicMeasure.from_pairs(_spectral_pairs(jac, 0), merge_tol=1e-12,
                                    renormalize=True)
