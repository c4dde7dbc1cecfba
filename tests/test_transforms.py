import json
import math
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
import scipy.integrate as si
from scipy.optimize import brentq
from hypothesis import given, settings
from hypothesis import strategies as st

from ncprob import _kernels, cli
from ncprob import loewner as lw
from ncprob import measures as ms
from ncprob import transforms as tr

PROBES = np.array([2j, 1 + 1j, -0.5 + 0.7j, 3 + 0.25j, -2 + 2j, 0.1 + 0.05j])


def random_atomic(seed, n=4, span=2.0):
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(-span, span, size=n)) + np.arange(n) * 1e-6
    ws = rng.random(n) + 0.05
    ws /= ws.sum()
    return ms.AtomicMeasure(tuple(zip(xs, ws)))


def random_moments(seed, order=8):
    return random_atomic(seed).moments(order)


class TestCauchy:
    def test_dirac(self):
        assert tr.cauchy(ms.AtomicMeasure.dirac(0), 1j) == pytest.approx(-1j)

    def test_rejects_lower_half_plane(self):
        with pytest.raises(tr.TransformError):
            tr.cauchy(ms.AtomicMeasure.dirac(0), -1j)

    def test_semicircle_closed_form(self):
        gm = ms.Semicircle(0, 1).to_measure()
        got = tr.cauchy(gm, PROBES)
        want = (PROBES - tr.sqrt_upper(PROBES**2 - 4)) / 2
        assert np.abs(got - want).max() < 1e-5
        assert abs(tr.cauchy(gm, 2j) - (2j - tr.sqrt_upper(-8)) / 2) < 1e-6

    def test_two_atom_f_transform(self):
        a, b = -0.75, 1.25
        mu = ms.AtomicMeasure(((a, 0.5), (b, 0.5)))
        got = tr.f_transform(mu, PROBES)
        want = (PROBES - a) * (PROBES - b) / (PROBES - (a + b) / 2)
        assert np.abs(got - want).max() < 1e-12

    def test_translation_f(self):
        mu = ms.AtomicMeasure.dirac(1.5)
        assert np.abs(tr.f_transform(mu, PROBES)
                      - (PROBES - 1.5)).max() < 1e-12

    def test_bernoulli_b_transform(self):
        mu = ms.AtomicMeasure(((-1, 0.5), (1, 0.5)))
        assert np.abs(tr.b_transform(mu, PROBES) - 1 / PROBES).max() < 1e-12

    def test_arcsine_f_closed_form(self):
        # the edge-singular grid realization limits accuracy near support
        for var in (1.0, 2.0):
            gm = ms.Arcsine(0, var).to_measure()
            got = tr.f_transform(gm, PROBES)
            want = tr.sqrt_upper(PROBES**2 - 2 * var)
            assert np.abs(got - want).max() < 1e-3

    def test_imag_sign(self):
        mu = random_atomic(5)
        g = tr.cauchy(mu, PROBES)
        assert np.all(g.imag < 0)
        f = tr.f_transform(mu, PROBES)
        assert np.all(f.imag >= PROBES.imag - 1e-12)
        b = tr.b_transform(mu, PROBES)
        assert np.all(b.imag <= 1e-12)

    def test_julia_inequality_at_scale(self):
        # Im F(z) >= Im z over 100 probes for 20 random atomic measures
        rng = np.random.default_rng(77)
        zs = rng.uniform(-4, 4, 100) + 1j * rng.uniform(0.05, 5, 100)
        for seed in range(20):
            mu = random_atomic(seed, n=1 + seed % 5)
            f = tr.f_transform(mu, zs)
            assert np.all(f.imag >= zs.imag - 1e-10)


class TestNormalization:
    def test_atomic_bound(self):
        # |iy G(iy) - 1| <= 2 * radius / y for y >= 100
        mu = random_atomic(9)
        radius = max(abs(x) for x, _ in mu.atoms)
        for y in (100.0, 1e3, 1e4):
            val = 1j * y * tr.cauchy(mu, 1j * y)
            assert abs(val - 1) <= 2 * radius / y

    def test_rejects_non_probability(self):
        g = lambda z: 0.5 / z
        with pytest.raises(tr.NormalizationError):
            tr.stieltjes_invert(g, np.linspace(-1, 1, 11))


class TestStieltjesInversion:
    def test_dirac_atom(self):
        g = lambda z: 1.0 / (z - 0.7)
        rec = tr.stieltjes_invert(g, np.linspace(-2, 2, 401),
                                  atom_candidates=[0.7])
        assert len(rec.atoms) == 1
        a, w = rec.atoms[0]
        assert abs(a - 0.7) < 1e-12 and abs(w - 1) < 1e-9
        assert rec.density_mass() < 1e-8

    def test_arcsine_density(self):
        f = lambda z: tr.sqrt_upper(z * z - 2)
        grid = np.linspace(-1.6, 1.6, 1601)
        rec = tr.measure_from_ftransform(f, grid)
        xs = grid[np.abs(grid) <= 1.2]
        want = ms.Arcsine(0, 1).density_at(xs)
        got = np.interp(xs, rec.grid, rec.density)
        assert np.abs(got - want).max() < 1e-3
        assert abs(rec.mass() - 1) < 1e-3
        assert not rec.atoms

    def test_semicircle_density(self):
        g = lambda z: (z - tr.sqrt_upper(z * z - 4)) / 2
        grid = np.linspace(-2.4, 2.4, 1201)
        rec = tr.stieltjes_invert(g, grid)
        xs = grid[np.abs(grid) <= 1.8]
        want = ms.Semicircle(0, 1).density_at(xs)
        assert np.abs(np.interp(xs, rec.grid, rec.density) - want).max() < 1e-3

    def test_roundtrip_atomic_weights(self):
        mu = random_atomic(21, n=3)
        rec = tr.stieltjes_invert(
            partial(tr.cauchy, mu),
            np.linspace(-3, 3, 601),
            atom_candidates=mu.positions,
        )
        assert len(rec.atoms) == 3
        for (a, w), (x, v) in zip(rec.atoms, mu.atoms):
            assert abs(a - x) < 1e-9
            assert abs(w - v) < 1e-4

    def test_roundtrip_grid_density(self):
        gm = ms.Semicircle(0.5, 1.3).to_measure()
        grid = np.linspace(-2.5, 3.5, 1201)
        rec = tr.stieltjes_invert(partial(tr.cauchy, gm), grid)
        law = ms.Semicircle(0.5, 1.3)
        xs = np.linspace(-1.3, 2.3, 200)
        assert np.abs(np.interp(xs, rec.grid, rec.density)
                      - law.density_at(xs)).max() < 1e-3

    def test_mass_error(self):
        g = lambda z: 1.0 / (z - 5.0)
        # grid misses the atom at 5 and no candidate is supplied
        with pytest.raises(tr.MassError):
            tr.stieltjes_invert(g, np.linspace(-1, 1, 51))

    def test_atom_autodetection(self):
        # no candidates supplied: the spike probe must find the atoms
        def gm(z):
            return 0.7 * (z - tr.sqrt_upper(z * z - 4)) / 2 + 0.3 / (z - 3.0)

        rec = tr.stieltjes_invert(gm, np.linspace(-2.4, 3.6, 1201))
        assert len(rec.atoms) == 1
        a, w = rec.atoms[0]
        assert abs(a - 3.0) < 1e-7
        assert abs(w - 0.3) < 1e-5
        xs = np.linspace(-1.8, 1.8, 100)
        want = 0.7 * ms.Semicircle(0, 1).density_at(xs)
        assert np.abs(np.interp(xs, rec.grid, rec.density) - want).max() < 1e-4

    def test_autodetection_no_false_atoms_on_edges(self):
        f = lambda z: tr.sqrt_upper(z * z - 2)
        rec = tr.measure_from_ftransform(f, np.linspace(-1.7, 1.7, 1201))
        assert rec.atoms == ()

    def test_free_meixner_realization(self):
        # m_{4,2,1}: density on [1-2sqrt(2), 1+2sqrt(2)], atom at -2
        rec = ms.FreeMeixner(4, 2, 1).to_measure()
        assert len(rec.atoms) == 1
        a, w = rec.atoms[0]
        assert abs(a + 2) < 1e-6
        assert abs(w - 1 / 3) < 1e-5
        m = rec.moments(4)
        want = ms.FreeMeixner(4, 2, 1).moments(4)
        assert np.abs(m.floats() - want.floats()).max() < 2e-3


# reference: the sequential bisection loops, one evaluation per step.  The
# bracketed root search must find the same roots to 1e-10 * max(1, |x|)
# wherever a bracket holds one zero, in at most 1 + 7 calls.

def reference_scan_real_zeros(f, grid, eps=1e-6, refine=40):
    vals = np.asarray(f(grid + 1j * eps))
    re = vals.real
    roots = []
    sign = np.sign(re)
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        lo, hi = grid[i], grid[i + 1]
        flo = re[i]
        for _ in range(refine):
            mid = 0.5 * (lo + hi)
            fm = np.asarray(f(np.array([mid + 1j * eps])))[0].real
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
        roots.append(0.5 * (lo + hi))
    return roots


def reference_refine_pole(g, a, halfwidth, eps=1e-7, iters=50):
    lo, hi = a - halfwidth, a + halfwidth
    flo = np.asarray(g(np.array([lo + 1j * eps])))[0].real
    fhi = np.asarray(g(np.array([hi + 1j * eps])))[0].real
    if flo * fhi >= 0:
        return a
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = np.asarray(g(np.array([mid + 1j * eps])))[0].real
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def reciprocal(f):
    """The map 1/f."""
    return lambda z: 1.0 / f(z)


class Counted:
    """A map that counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, z):
        self.calls += 1
        return self.fn(np.asarray(z, dtype=complex))


def close(x, want):
    return abs(x - want) <= 1e-10 * max(1.0, abs(want))


def is_root(f, x, eps):
    """Re f(t + i*eps) changes sign within 1e-10 * max(1, |x|) of x."""
    d = 1e-10 * max(1.0, abs(x))
    lo, hi = np.asarray(f(np.array([x - d, x + d]) + 1j * eps)).real
    return lo * hi <= 0


def atomic_sign_changes(mu):
    """Where Re F and Re G of an atomic law change sign on the real axis:
    at its atoms and at the zero of G between each two of them."""
    xs = [float(a) for a, _ in mu.atoms]

    def g(x):
        return sum(float(w) / (x - float(a)) for a, w in mu.atoms)

    zeros = [brentq(g, a + 1e-12, b - 1e-12) for a, b in zip(xs, xs[1:])]
    return np.array(sorted(xs + zeros))


def holds_one(changes, lo, hi):
    return np.count_nonzero((changes > lo) & (changes < hi)) == 1


# reference bisection steps; for the dyadic roots the exact zero falls on a
# midpoint at some step
STEP_COUNTS = (0, 1, 5, 6, 7, 15, 40, 50)


class TestTreeBisection:
    """The bracketed root search against sequential bisection.  Its
    equispaced calls evaluate the 63 points of six bisection levels and
    keep the cell that bisection keeps."""

    SLE_CALLS = [(2, 2), (3, 2), (4, 2), (5, 3), (6, 3), (7, 2), (8, 2)]

    @pytest.mark.parametrize("seed, calls", SLE_CALLS,
                             ids=[str(seed) for seed, _ in SLE_CALLS])
    def test_sle_chain_roots(self, seed, calls):
        # ``ncprob loewner``'s grid; each path has one sign change, at seeds
        # 5, 6 and 8 next to the edge of the support, where Re F bends too
        # sharply for the first call's error estimate: the window is at
        # least one cell of the next equispaced call wide, so at seed 8 it
        # still holds the root (it took 1 + 4 calls with 4 * error alone)
        driving = lw.sle_driving(2.0, 1.0, 0.1, seed=seed)
        f = lw.chain_fmap(lw.HerglotzField.from_driving(driving, 1.0), 1.0)
        grid = loewner_grid(driving, 41)
        counted = Counted(f)
        got = tr.scan_real_zeros(counted, grid)
        assert counted.calls == 1 + calls
        want = reference_scan_real_zeros(f, grid)
        assert len(got) == len(want) == 1 and close(got[0], want[0])
        assert type(got[0]) is np.float64
        g = reciprocal(f)
        a = round(float(got[0]), 2)
        counted = Counted(g)
        pole = tr._refine_pole(counted, a, halfwidth=0.02)
        assert pole != a and counted.calls <= 1 + 7
        assert close(pole, reference_refine_pole(g, a, 0.02, iters=50))

    @pytest.mark.parametrize("u", [0.023648, -0.3, 0.2])
    def test_slit_chain_roots(self, u):
        driving = lw.DrivingFunction.constant(u)
        f = lw.chain_fmap(lw.HerglotzField.from_driving(driving, 1.0), 1.0)
        grid = loewner_grid(driving, 301)
        counted = Counted(f)
        got = tr.scan_real_zeros(counted, grid)
        assert counted.calls == 1 + 2
        want = reference_scan_real_zeros(f, grid)
        assert len(got) == len(want) == 1 and close(got[0], want[0])

    @given(seed=st.integers(0, 10_000), points=st.integers(2, 60))
    @settings(max_examples=60, deadline=None)
    def test_scan_f_transform(self, seed, points):
        # brackets at atoms (zeros of F) and between them (poles of F)
        mu = random_atomic(seed)
        f = partial(tr.f_transform, mu)
        grid = np.linspace(-2.5, 2.5, points)
        counted = Counted(f)
        got = tr.scan_real_zeros(counted, grid)
        assert counted.calls <= 1 + 7
        want = reference_scan_real_zeros(f, grid)
        assert len(got) == len(want)
        assert all(type(r) is np.float64 for r in got)
        changes = atomic_sign_changes(mu)
        for x, w in zip(got, want):
            i = np.searchsorted(grid, w)
            assert grid[i - 1] <= x <= grid[i] and is_root(f, x, 1e-6)
            if holds_one(changes, grid[i - 1], grid[i]):
                assert close(x, w)

    @given(seed=st.integers(0, 10_000), shift=st.floats(-0.01, 0.01))
    @settings(max_examples=60, deadline=None)
    def test_refine_pole_cauchy(self, seed, shift):
        mu = random_atomic(seed)
        g = partial(tr.cauchy, mu)
        a = float(mu.atoms[0][0]) + shift
        counted = Counted(g)
        got = tr._refine_pole(counted, a, halfwidth=0.02)
        assert counted.calls <= 1 + 7
        want = reference_refine_pole(g, a, 0.02, iters=50)
        if want == a:  # no sign change across the bracket
            assert got == a
            return
        assert a - 0.02 <= got <= a + 0.02 and is_root(g, got, 1e-7)
        if holds_one(atomic_sign_changes(mu), a - 0.02, a + 0.02):
            assert close(got, want)

    @given(inner=st.lists(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0,
                                           math.nan]),
                          min_size=63, max_size=63),
           sign=st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_bisected_cell(self, inner, sign):
        # six sequential steps over the 65 nodes of an equispaced call
        vs = np.array([sign, *inner, -sign])
        lo, hi, flo = 0, 64, vs[0]
        for _ in range(6):
            mid = (lo + hi) // 2
            if flo * vs[mid] <= 0:
                hi = mid
            else:
                lo, flo = mid, vs[mid]
        assert tr._bisected_cell(vs) == lo

    def test_window_against_its_cell_falls_back(self):
        # two atoms and the pole of F between them share one cell of the
        # first call; the window meets the pole, where Re F falls, and the
        # equispaced calls that follow keep bisection's root
        mu = random_atomic(297)
        f = partial(tr.f_transform, mu)
        grid = np.linspace(-2.5, 2.5, 4)
        changes = atomic_sign_changes(mu)
        assert np.count_nonzero((changes > -0.8) & (changes < -0.78)) == 3
        got = tr.scan_real_zeros(f, grid)
        want = reference_scan_real_zeros(f, grid)
        assert len(got) == 1 and close(got[0], want[0])

    @pytest.mark.parametrize("roots", [(0.1, 0.2, 0.7), (0.05, 0.45, 0.9),
                                       (0.3, 0.6, 0.95)])
    def test_keeps_the_root_bisection_keeps(self, roots):
        # three zeros in one bracket, in different cells of the first call
        def f(z):
            return (z - roots[0]) * (z - roots[1]) * (z - roots[2])

        grid = np.array([0.0, 1.0])
        got = tr.scan_real_zeros(f, grid)
        want = reference_scan_real_zeros(f, grid)
        assert len(got) == 1 and close(got[0], want[0])

    @pytest.mark.parametrize("root", [0.3, 0.5, 0.71])
    def test_jump_ends_after_six_grid_calls(self, root):
        # a sign change with no interpolable zero: no window, no warning
        # from flat values, and 64**-6 of the bracket after six calls
        f = Counted(
            lambda z: np.where(z.real < root, -1.0, 1.0).astype(complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tr.scan_real_zeros(f, np.array([0.0, 1.0]))
        assert f.calls == 1 + 6
        assert len(got) == 1 and abs(got[0] - root) <= 2.0 ** -36

    @pytest.mark.parametrize("refine", STEP_COUNTS)
    @pytest.mark.parametrize("root", [0.5, 0.375, 0.5625, 0.3])
    def test_exact_zero_at_midpoint(self, root, refine):
        # the root lies in the bracket that ``refine`` bisection steps keep,
        # whose midpoint the reference returns
        f = lambda z: z - root
        got = tr.scan_real_zeros(f, np.array([0.0, 1.0]))
        want = reference_scan_real_zeros(f, np.array([0.0, 1.0]),
                                         refine=refine)
        assert len(got) == 1
        assert abs(got[0] - want[0]) <= 0.5 ** (refine + 1)
        g = lambda z: 1.0 / (z - root)
        got = tr._refine_pole(g, 0.5, 0.25)
        want = reference_refine_pole(g, 0.5, 0.25, iters=refine)
        assert abs(got - want) <= 0.5 ** (refine + 2)

    @pytest.mark.parametrize("seed", STEP_COUNTS)
    def test_one_call_per_tree_level_block(self, seed):
        # each call serves every bracket: the scan makes as many calls as
        # its slowest bracket alone
        f = partial(tr.f_transform, random_atomic(seed))
        grid = np.linspace(-2.5, 2.5, 41)
        counted = Counted(f)
        roots = tr.scan_real_zeros(counted, grid)
        assert len(roots) > 1
        alone = []
        for x in roots:
            i = np.searchsorted(grid, x)
            one = Counted(f)
            assert tr.scan_real_zeros(one, grid[i - 1:i + 1]) == [x]
            alone.append(one.calls)
        assert counted.calls == max(alone) <= 1 + 7
        g = Counted(partial(tr.cauchy, random_atomic(seed)))
        a = float(random_atomic(seed).atoms[0][0])
        tr._refine_pole(g, a, halfwidth=0.02)
        assert g.calls <= 1 + 7


# reference: the inversion with one call of the map per eps layer, a
# separate call for the normalization probe and, in
# reference_measure_from_ftransform, a separate scan row.  The shared-call
# inversion must return the same grid, density and atoms bit for bit.

def reference_stieltjes_invert(g, grid, atom_candidates=(),
                               eps_ladder=tr.DEFAULT_EPS_LADDER,
                               refine_passes=2, auto_atoms=True):
    if isinstance(g, (ms.AtomicMeasure, ms.GridMeasure)):
        g = partial(tr.cauchy, g)
    grid = np.asarray(grid, dtype=float)
    tr.check_cauchy_normalization(g)

    atoms = []
    for a in atom_candidates:
        hit = tr._vetted_atom(g, a, eps_ladder)
        if hit:
            atoms.append(hit)
    atoms.sort()

    def density_at(xs):
        layers = []
        for eps in eps_ladder:
            vals = np.asarray(g(xs + 1j * eps))
            for a, w in atoms:
                vals = vals - w / (xs + 1j * eps - a)
            layers.append(-vals.imag / math.pi)
        return tr.extrapolate_to_zero(eps_ladder, layers)

    density = density_at(grid)
    if auto_atoms:
        eps_min = min(eps_ladder)
        h = float(np.median(np.diff(grid)))
        found = False
        for a in tr._spike_candidates(grid, density, eps_min):
            if any(abs(a - x) <= 5 * max(eps_min, h) for x, _ in atoms):
                continue
            a = tr._refine_pole(g, a, halfwidth=3 * max(eps_min, h))
            hit = tr._vetted_atom(g, a, eps_ladder)
            if hit:
                atoms.append(hit)
                found = True
        if found:
            atoms.sort()
            density = density_at(grid)

    for _ in range(refine_passes):
        scale = max(np.abs(density).max(), 1e-12)
        jump = np.abs(np.diff(density))
        flagged = np.nonzero(jump > 0.2 * scale)[0]
        if flagged.size == 0:
            break
        cells = set()
        for i in flagged:
            cells.update(range(max(i - 2, 0), min(i + 3, grid.size - 1)))
        extra = np.concatenate([
            np.linspace(grid[i], grid[i + 1], 9)[1:-1] for i in sorted(cells)
        ])
        grid = np.concatenate([grid, extra])
        density = np.concatenate([density, density_at(extra)])
        order = np.argsort(grid)
        grid, density = grid[order], density[order]

    mass = float(np.trapezoid(density, grid)) + sum(w for _, w in atoms)
    if not 0.98 <= mass <= 1.02:
        raise tr.MassError(f"recovered mass {mass:.4f} outside [0.98, 1.02]")
    density = np.clip(density / mass, 0.0, None)
    atoms = [(a, w / mass) for a, w in atoms]
    atom_total = sum(w for _, w in atoms)
    dens_mass = float(np.trapezoid(density, grid))
    if atom_total >= 1.0 or dens_mass <= 1e-12:
        density = np.zeros_like(density)
        atoms = [(a, w / atom_total) for a, w in atoms]
    else:
        density *= (1.0 - atom_total) / dens_mass
    return ms.GridMeasure(grid, density, tuple(atoms))


def reference_measure_from_ftransform(f, grid, atom_candidates=None,
                                      eps_ladder=tr.DEFAULT_EPS_LADDER):
    if atom_candidates is None:
        grid = np.asarray(grid, dtype=float)
        roots = tr.scan_real_zeros(f, grid)
        # grid points where F nearly vanishes with no root in a cell next
        # to them: atoms that make no sign change of Re F
        row = np.asarray(f(grid + 1e-6j))
        last = grid.size - 1
        atom_candidates = roots + [
            float(x) for i, x in enumerate(grid)
            if abs(row[i]) <= 1e-6 / tr.ATOM_THRESHOLD
            and not any(grid[max(i - 1, 0)] <= r <= grid[min(i + 1, last)]
                        for r in roots)]
    return reference_stieltjes_invert(reciprocal(f), grid,
                                      atom_candidates, eps_ladder)


def reference_hilbert_transform(measure, x, eps=1e-2):
    if isinstance(measure, (ms.AtomicMeasure, ms.GridMeasure)):
        for a, _ in measure.atoms:
            if abs(x - a) < 1e-9:
                raise tr.AtomCollision(f"x = {x} collides with atom at {a}")
        g = partial(tr.cauchy, measure)
    else:
        g = measure
    ladder = (eps, eps / 2, eps / 4)
    vals = [np.asarray(g(np.array([x + 1j * e])))[0].real / math.pi
            for e in ladder]
    return float(tr.extrapolate_to_zero(ladder, vals))


def reference_nevanlinna_extract(f, probe_ys=(1e3, 1e4, 1e5, 1e6)):
    check_zs = np.array([1j, 1 + 1j, -2 + 0.5j, 3j])
    vals = np.asarray(f(check_zs))
    if np.any(vals.imag < -1e-9):
        raise tr.NotHerglotz("Im f < 0 at a probe point")
    ratios = []
    for y in probe_ys:
        v = np.asarray(f(np.array([1j * y])))[0]
        ratios.append((v / (1j * y)).real)
    b = float(tr.extrapolate_to_zero([1.0 / y for y in probe_ys], ratios))
    a = float(np.asarray(f(np.array([1j])))[0].real)
    return tr.NevanlinnaData(a=a, b=b)


def outcome(fn, *args, **kwargs):
    """A recovered measure as bytes and float hexes, or the error raised."""
    try:
        rec = fn(*args, **kwargs)
    except tr.TransformError as exc:
        return type(exc), str(exc)
    return (rec.grid.tobytes(), rec.density.tobytes(),
            [(float(a).hex(), float(w).hex()) for a, w in rec.atoms])


LAWS = {
    "semicircle": ms.Semicircle(0.0, 1.0),
    "arcsine": ms.Arcsine(0.0, 1.0),
    "marchenko-pastur": ms.MarchenkoPastur(0.5),
    "free-meixner": ms.FreeMeixner(4, 2, 1),
}


def law_map(law):
    return LAWS[law].cauchy
LOEWNER_LADDER = (5e-3, 2.5e-3, 1.25e-3)  # the one ``ncprob loewner`` uses


def loewner_grid(driving, points):
    """``ncprob loewner``'s default grid for a driving at t = 1."""
    half = driving.bound() + math.sqrt(2.0) + 0.5
    return np.linspace(-half, half, points)


class TestSharedCallInversion:
    @pytest.mark.parametrize("u", [0.0, 0.023648, -0.3])
    def test_slit_chain_measure(self, u):
        driving = lw.DrivingFunction.constant(u)
        f = lw.chain_fmap(lw.HerglotzField.from_driving(driving, 1.0), 1.0)
        grid = loewner_grid(driving, 301)
        got = outcome(tr.measure_from_ftransform, f, grid,
                      eps_ladder=LOEWNER_LADDER)
        assert len(got[2]) == (u != 0)  # the atom of the free Meixner law
        assert got == outcome(reference_measure_from_ftransform, f, grid,
                              eps_ladder=LOEWNER_LADDER)

    def test_sle_chain_measure(self):
        driving = lw.sle_driving(2.0, 1.0, 1e-2, seed=7)
        f = lw.chain_fmap(lw.HerglotzField.from_driving(driving, 1.0), 1.0)
        grid = loewner_grid(driving, 61)
        assert tr.scan_real_zeros(f, grid)  # the scan has a root to bisect
        got = outcome(tr.measure_from_ftransform, f, grid,
                      eps_ladder=LOEWNER_LADDER)
        assert len(np.frombuffer(got[0])) > grid.size  # cells were refined
        assert got == outcome(reference_measure_from_ftransform, f, grid,
                              eps_ladder=LOEWNER_LADDER)

    @pytest.mark.parametrize("law, lo, hi, candidates", [
        ("semicircle", -2.2, 2.2, []),
        ("arcsine", -1.62, 1.62, []),
        ("marchenko-pastur", -0.2, 3.12, [0.0]),
        ("free-meixner", -4.03, 4.03,
         ms.FreeMeixner(4, 2, 1).atom_candidates()),
    ])
    def test_closed_form_laws(self, law, lo, hi, candidates):
        g, grid = law_map(law), np.linspace(lo, hi, 301)
        got = outcome(tr.stieltjes_invert, g, grid, candidates)
        assert isinstance(got[0], bytes)
        assert got == outcome(reference_stieltjes_invert, g, grid, candidates)

    def test_spike_autodetection(self):
        # an atom found from a density spike: the grid's density is redone
        # from the same ladder values with the atom's terms removed
        g = lambda z: (0.7 * (z - tr.sqrt_upper(z * z - 4)) / 2
                       + 0.3 / (z - 3.0))
        grid = np.linspace(-2.4, 3.6, 601)
        got = outcome(tr.stieltjes_invert, g, grid)
        assert len(got[2]) == 1
        assert got == outcome(reference_stieltjes_invert, g, grid)

    def test_free_meixner_realization(self):
        # explicit candidates: no scan row in the shared call
        fmap, grid = ms.FreeMeixner(4, 2, 1).fmap, np.linspace(-4, 4, 301)
        cands = ms.FreeMeixner(4, 2, 1).atom_candidates()
        ladder = (1e-4, 5e-5, 2.5e-5)
        assert outcome(tr.measure_from_ftransform, fmap, grid, cands,
                       ladder) == outcome(reference_measure_from_ftransform,
                                          fmap, grid, cands, ladder)

    def test_grid_measure(self):
        gm = ms.Semicircle(0, 1).to_measure()
        grid = np.linspace(-2.5, 2.5, 201)
        got = outcome(tr.stieltjes_invert, gm, grid)
        assert isinstance(got[0], bytes)
        assert got == outcome(reference_stieltjes_invert, gm, grid)
        f = partial(tr.f_transform, gm)
        assert (outcome(tr.measure_from_ftransform, f, grid)
                == outcome(reference_measure_from_ftransform, f, grid))

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 5),
           points=st.integers(21, 201), extra=st.floats(-2.5, 2.5))
    @settings(max_examples=40, deadline=None)
    def test_random_atomic(self, seed, n, points, extra):
        mu = random_atomic(seed, n=n)
        grid = np.linspace(-3, 3, points)
        cands = [x for x, _ in mu.atoms] + [extra]
        assert (outcome(tr.stieltjes_invert, mu, grid, cands)
                == outcome(reference_stieltjes_invert, mu, grid, cands))
        f = partial(tr.f_transform, mu)
        assert (outcome(tr.measure_from_ftransform, f, grid)
                == outcome(reference_measure_from_ftransform, f, grid))


class TestRealZeroFilter:
    """``measure_from_ftransform`` skips a sign change of Re F only when F
    at both its ends is far from zero and from the real axis and flat, so it
    must return what ``reference_measure_from_ftransform``, which searches
    every bracket, returns."""

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 6),
           span=st.sampled_from([2.0, 1e-2, 1e-4]), points=st.integers(2, 60),
           offsets=st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_random_atomic(self, seed, n, span, points, offsets):
        # no density, so every atom must come from the real-zero search.
        # Grid points sit 1e-12 to 1e-2 to either side of each pole of F;
        # within 1e-6 of one Im F(x + 1e-6 i) exceeds |Re F| as inside a
        # support, and a bracket between two such points holds the atom
        # between the poles.  With spans 1e-2 and 1e-4 the atoms and poles
        # cluster closer than the ladder's smallest height.
        mu = random_atomic(seed, n=n, span=span)
        poles = np.setdiff1d(atomic_sign_changes(mu), mu.positions)
        near = [p + math.copysign(10 ** (-2 - abs(d)), d)
                for p, d in zip(poles, offsets)]
        grid = np.union1d(np.linspace(-2.5, 2.5, points), near)
        f = partial(tr.f_transform, mu)
        assert (outcome(tr.measure_from_ftransform, f, grid)
                == outcome(reference_measure_from_ftransform, f, grid))

    POLE_GRIDS = [
        # the cell holding the atom at 0 has both ends d from the poles
        # +-sqrt(0.4) of F
        *[(((-1.0, 0.3), (0.0, 0.4), (1.0, 0.3)), [-2.0, -0.8, 0.8, 2.0],
           [d, -d], 3) for d in (1e-5, 1e-6, 5e-7, 1e-7, 0.0)],
        # four atoms within 4e-4: seen from the ladder's heights they act as
        # one, so F is flat at the ends of the cell holding the heaviest,
        # but there |F| < eps/ATOM_THRESHOLD
        (((0.15143511, 0.227), (0.15146448, 0.176), (0.15154761, 0.545),
          (0.15179139, 0.052)), np.linspace(-2.5, 2.5, 37),
         [-8.8e-7, 3e-8, -4.4e-7], 1),
        # cells next to the poles narrower than twice the smallest ladder
        # height, so their flatness is measured over 2 * y
        (((-0.23125133, 0.587), (-0.22669612, 0.2), (-0.2246558, 0.122),
          (-0.2241646, 0.091)), np.linspace(-2.5, 2.5, 22),
         [4e-12, 1e-8, 5e-12], 2),
    ]

    @pytest.mark.parametrize(
        "atoms, base, offsets, found", POLE_GRIDS,
        ids=[f"three-{d}" for d in (1e-5, 1e-6, 5e-7, 1e-7, 0.0)]
        + ["cluster", "narrow-cluster"])
    def test_grid_at_poles(self, atoms, base, offsets, found):
        # grid points ``offsets`` from the poles of F, which lie between
        # the atoms
        mu = ms.AtomicMeasure(atoms)
        poles = np.setdiff1d(atomic_sign_changes(mu), mu.positions)
        grid = np.union1d(base, poles + offsets)
        f = partial(tr.f_transform, mu)
        got = outcome(tr.measure_from_ftransform, f, grid)
        assert len(got[2]) == found
        assert got == outcome(reference_measure_from_ftransform, f, grid)

    def test_atom_on_grid_point(self):
        # Re F(x + 1e-6 i) is exactly -0.0 at the atom on the grid point 0,
        # so neither cell next to it holds a sign change
        mu = ms.AtomicMeasure(((-0.1, 0.3), (0.0, 0.4), (0.1, 0.3)))
        f, grid = partial(tr.f_transform, mu), np.linspace(-2.5, 2.5, 201)
        got = outcome(tr.measure_from_ftransform, f, grid)
        assert got == outcome(reference_measure_from_ftransform, f, grid)
        atoms = [(float.fromhex(a), float.fromhex(w)) for a, w in got[2]]
        assert np.allclose(atoms, mu.atoms, rtol=0, atol=1e-4)
        assert atoms[1][0] == 0.0

    def test_atoms_sharing_cells_with_poles(self):
        # each cell next to the atoms at +-0.01 (grid points) holds a zero
        # and a pole of F, so the signs at its ends agree.  The masses are
        # off by the eps ladder (atoms 0.01 apart) and are not pinned.
        mu = ms.AtomicMeasure(((-0.01, 0.3), (0.0, 0.4), (0.01, 0.3)))
        f, grid = partial(tr.f_transform, mu), np.linspace(-2.5, 2.5, 1001)
        got = outcome(tr.measure_from_ftransform, f, grid)
        assert got == outcome(reference_measure_from_ftransform, f, grid)
        positions = [float.fromhex(a) for a, _ in got[2]]
        assert np.allclose(positions, mu.positions, rtol=0, atol=1e-12)

    @staticmethod
    def semicircle_with_atom(w, a):
        return lambda z: 1.0 / (
            (1 - w) * (z - tr.sqrt_upper(z * z - 4)) / 2 + w / (z - a))

    @pytest.mark.parametrize("w, a, points", [
        (0.01, 0.3, 201), (0.01, 0.3125, 201), (0.01, 0.3125, 51),
        (0.01, 0.31, 201), (0.005, 0.317, 201), (0.05, -0.7, 201),
        (0.1, 0.8, 11), (0.3, 1.9, 201)])
    def test_embedded_atom(self, w, a, points):
        # an atom inside the support, where F is far from real; at 0.3125
        # it lies mid-cell on both grids, too far from the grid for a
        # density spike, and at 0.31 and 0.317 F is flat at one end of its
        # cell only, so each end's flatness is tested.  On 11 points F is
        # flat at both ends of the cell holding 0.8, and its right end is
        # nearly real.
        f, grid = self.semicircle_with_atom(w, a), np.linspace(-2.5, 2.5,
                                                                points)
        got = outcome(tr.measure_from_ftransform, f, grid)
        assert len(got[2]) == 1
        assert got == outcome(reference_measure_from_ftransform, f, grid)

    @given(points=st.integers(21, 401), a=st.floats(-1.9, 1.9),
           ratio=st.floats(0.5, 20.0))
    @settings(max_examples=100, deadline=None)
    def test_random_embedded_atom(self, points, a, ratio):
        # |G| is about 1 inside the semicircle's support, so an atom of
        # mass >= h/2 (h the cell width) is above the about h|G|/4 that
        # flatness can miss (up to 0.36 h measured)
        grid = np.linspace(-2.5, 2.5, points)
        f = self.semicircle_with_atom(min(0.5, ratio * (grid[1] - grid[0])),
                                      a)
        assert (outcome(tr.measure_from_ftransform, f, grid)
                == outcome(reference_measure_from_ftransform, f, grid))

    @pytest.mark.parametrize("seed", range(1, 21))
    @pytest.mark.parametrize("dt, points", [(1e-1, 41), (1e-2, 201)])
    def test_sle_chain_measure(self, seed, dt, points):
        driving = lw.sle_driving(2.0, 1.0, dt, seed=seed)
        f = lw.chain_fmap(lw.HerglotzField.from_driving(driving, 1.0), 1.0)
        grid = loewner_grid(driving, points)
        assert (outcome(tr.measure_from_ftransform, f, grid,
                        eps_ladder=LOEWNER_LADDER)
                == outcome(reference_measure_from_ftransform, f, grid,
                           eps_ladder=LOEWNER_LADDER))


class TestFlowCalls:
    """Flow calls of one ``ncprob loewner`` inversion at the benchmark's
    inputs and at the README's slit.  With one call per ladder layer, plus
    one for the scan row and one for the normalization probe, they were 11
    (slit) and 19 (SLE) for the same points; with the real-zero search
    bisecting six levels per call they were 11 (SLE) and 12 (README).
    The slits count ``slit_batch`` calls, the SLE path ``flow_batch``
    calls."""

    def run(self, tmp_path, monkeypatch, driving, points=None,
            kernel="flow_batch"):
        path = tmp_path / "driving.json"
        path.write_text(json.dumps(driving.to_json()))
        sizes, flow = [], getattr(_kernels, kernel)

        def counted(z, *args):
            sizes.append(len(z))
            return flow(z, *args)

        monkeypatch.setattr(_kernels, kernel, counted)
        points = [] if points is None else ["--grid-points", str(points)]
        assert cli.main(["loewner", "--driving", str(path), "--t", "1",
                         *points, "--out", str(tmp_path / "chain")]) == 0
        return sizes

    def test_slit(self, tmp_path, monkeypatch):
        # slit fields flow in closed form, one slit_batch call per phase
        sizes = self.run(tmp_path, monkeypatch,
                         lw.DrivingFunction.constant(0.0), 151, "slit_batch")
        # scan row, probe and three layers; two refine passes
        assert sizes == [151 + 1 + 3 * 151, 3 * 84, 3 * 84]

    def test_sle(self, tmp_path, monkeypatch):
        sizes = self.run(tmp_path, monkeypatch,
                         lw.sle_driving(2.0, 1.0, 1e-2, seed=7), 201)
        # the shared first call and two refine passes: Re F changes sign
        # only inside the support, where F is far from zero, so the
        # real-zero search and the atom vetting make no call
        assert sizes == [201 + 1 + 3 * 201, 3 * 42, 3 * 42]

    def test_readme_slit(self, tmp_path, monkeypatch):
        driving = lw.DrivingFunction.constant(0.023648)
        sizes = self.run(tmp_path, monkeypatch, driving, kernel="slit_batch")
        assert sizes == [1201 + 1 + 3 * 1201, 63, 17, 6, 3 * 84, 3 * 77]
        f = lw.chain_fmap(lw.HerglotzField.from_driving(driving, 1.0), 1.0)
        want = reference_scan_real_zeros(f, loewner_grid(driving, 1201))
        (atom, _), = ms.load_measure(tmp_path / "chain.json").atoms
        assert len(want) == 1 and close(atom, want[0])


CLOSED_FORM_MAPS = {law: law_map(law) for law in LAWS}
CLOSED_FORM_MAPS["free_meixner_fmap"] = ms.FreeMeixner(4, 2, 1).fmap

upper_points = st.lists(
    st.builds(complex, st.floats(-5, 5),
              st.one_of(st.sampled_from([1e-6, 1e6]), st.floats(1e-6, 1e6))),
    min_size=1, max_size=30)


class TestBatchIndependence:
    """The shared call is bit-identical to one call per layer only because
    each map's value at a point does not depend on the rest of the batch."""

    @given(a=upper_points, b=upper_points)
    @settings(max_examples=60, deadline=None)
    def test_closed_forms(self, a, b):
        a, b = np.array(a), np.array(b)
        for name, g in CLOSED_FORM_MAPS.items():
            assert (g(np.concatenate([a, b])).tobytes()
                    == np.concatenate([g(a), g(b)]).tobytes()), name

    def test_grid_measure_cauchy(self):
        # 300 points fill 128-row chunks whose temporaries exceed numpy's
        # 256 KiB elision threshold; one point alone stays below it
        gm = ms.Semicircle(0, 1).to_measure()
        rng = np.random.default_rng(4)
        z = rng.uniform(-3, 3, 300) + 1j * np.exp(rng.uniform(-14, 14, 300))
        alone = np.concatenate([tr.cauchy(gm, z[i:i + 1])
                                for i in range(z.size)])
        assert tr.cauchy(gm, z).tobytes() == alone.tobytes()


class TestOneCallHelpers:
    @pytest.mark.parametrize("x", [0.0, 0.3, -1.7, 2.5])
    def test_hilbert_transform(self, x):
        for measure in (ms.Semicircle(0, 1).to_measure(), random_atomic(3)):
            assert (tr.hilbert_transform(measure, x)
                    == reference_hilbert_transform(measure, x))
        g = law_map("marchenko-pastur")
        counted = Counted(g)
        assert (tr.hilbert_transform(counted, x)
                == reference_hilbert_transform(g, x))
        assert counted.calls == 1

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_MAPS) + ["slit"])
    def test_nevanlinna_extract(self, name):
        if name == "slit":
            field = lw.HerglotzField.from_driving(
                lw.DrivingFunction.constant(0.3), 1.0)
            f = lw.chain_fmap(field, 1.0)
        elif name in LAWS:  # F = 1/G of the law
            f = reciprocal(CLOSED_FORM_MAPS[name])
        else:
            f = CLOSED_FORM_MAPS[name]
        counted = Counted(f)
        assert (tr.nevanlinna_extract(counted)
                == reference_nevanlinna_extract(f))
        assert counted.calls == 1

    def test_nevanlinna_not_herglotz(self):
        g = Counted(law_map("semicircle"))  # G maps H to the lower half-plane
        with pytest.raises(tr.NotHerglotz):
            tr.nevanlinna_extract(g)
        assert g.calls == 1


BAD_GRIDS = [
    ([], "at least 2 points"),
    ([0.5], "at least 2 points"),
    ([[0.0, 1.0], [2.0, 3.0]], "at least 2 points"),
    ([0.0, math.nan, 1.0], "finite"),
    ([0.0, 1.0, math.inf], "finite"),
    ([0.0, 1.0, 1.0, 2.0], "strictly increasing"),
    ([1.0, 0.0], "strictly increasing"),
]


class TestInversionGrid:
    @pytest.mark.parametrize("grid, message", BAD_GRIDS)
    def test_refused_before_any_evaluation(self, grid, message):
        g = Counted(law_map("semicircle"))
        with pytest.raises(tr.TransformError, match=message):
            tr.stieltjes_invert(g, grid)
        f = Counted(ms.FreeMeixner(2, 1, 0).fmap)
        for cands in (None, [0.0]):
            with pytest.raises(tr.TransformError, match=message):
                tr.measure_from_ftransform(f, grid, cands)
        assert g.calls == f.calls == 0


def _reference_values(m):
    return list(m.values) if isinstance(m, ms.MomentSequence) else list(m)


def reference_poly_mul(p, q, order):
    out = [0] * (order + 1)
    for i, a in enumerate(p):
        if a == 0 or i > order:
            continue
        for j, b in enumerate(q):
            if i + j > order:
                break
            out[i + j] = out[i + j] + a * b
    return out


def reference_moments_to_free_cumulants(m):
    """Inverts m_n = sum_k kappa_k [z^(n-k)] M(z)^k with M = 1 + m_1 z + ..."""
    mom = _reference_values(m)
    n = len(mom)
    mpoly = [1] + mom
    powers = [[1]]  # M^0
    for _ in range(n):
        powers.append(reference_poly_mul(powers[-1], mpoly, n))
    kappa = []
    for k in range(1, n + 1):
        acc = mom[k - 1]
        for j in range(1, k):
            acc = acc - kappa[j - 1] * powers[j][k - j]
        kappa.append(acc)
    return kappa


def reference_free_cumulants_to_moments(kappa):
    """Rebuilds every power M^j for each k: O(K^4).  The cumulants-to-moments
    references return plain lists."""
    kappa = _reference_values(kappa)
    n = len(kappa)
    mom = []
    for k in range(1, n + 1):
        mpoly = [1] + mom
        powers = [[1]]
        for _ in range(k):
            powers.append(reference_poly_mul(powers[-1], mpoly, k))
        acc = 0
        for j in range(1, k + 1):
            acc = acc + kappa[j - 1] * powers[j][k - j]
        mom.append(acc)
    return mom


def reference_moments_to_boolean_cumulants(m):
    mom = _reference_values(m)
    beta = []
    for k in range(1, len(mom) + 1):
        acc = mom[k - 1]
        for j in range(1, k):
            acc = acc - beta[j - 1] * ([1] + mom)[k - j]
        beta.append(acc)
    return beta


def reference_boolean_cumulants_to_moments(beta):
    beta = _reference_values(beta)
    mom = []
    for k in range(1, len(beta) + 1):
        acc = beta[k - 1]
        for j in range(1, k):
            acc = acc + beta[j - 1] * mom[k - j - 1]
        mom.append(acc)
    return mom


def reference_moments_to_classical_cumulants(m):
    mom = _reference_values(m)
    cum = []
    for k in range(1, len(mom) + 1):
        acc = mom[k - 1]
        for j in range(1, k):
            acc = acc - math.comb(k - 1, j - 1) * cum[j - 1] * mom[k - j - 1]
        cum.append(acc)
    return cum


def reference_classical_cumulants_to_moments(cum):
    cum = _reference_values(cum)
    mom = []
    for k in range(1, len(cum) + 1):
        acc = cum[k - 1]
        for j in range(1, k):
            acc = acc + math.comb(k - 1, j - 1) * cum[j - 1] * mom[k - j - 1]
        mom.append(acc)
    return mom


REFERENCE_MAPS = {
    "free": (reference_moments_to_free_cumulants,
             reference_free_cumulants_to_moments),
    "boolean": (reference_moments_to_boolean_cumulants,
                reference_boolean_cumulants_to_moments),
    "classical": (reference_moments_to_classical_cumulants,
                  reference_classical_cumulants_to_moments),
}

KIND = st.sampled_from(tr.CUMULANT_KINDS)
FRACTION_SEQ = st.lists(st.fractions(-3, 3, max_denominator=12),
                        min_size=1, max_size=12)
FLOAT_SEQ = st.lists(st.floats(-3, 3), min_size=1, max_size=12)


def _both_directions(kind, seq):
    """(new, reference) pairs for moments -> cumulants and back.

    Random sequences are rarely valid moment sequences, so both sides are
    compared before the library wraps moments in a MomentSequence.
    """
    to_ref, back_ref = REFERENCE_MAPS[kind]
    return ((tr.moments_to_cumulants(kind, seq), to_ref(seq)),
            (tr._moment_cumulant(kind, seq, False), back_ref(seq)))


class TestCumulantMaps:
    def test_free_cumulant_identities(self):
        m = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 5)]
        k = tr.moments_to_cumulants("free", m)
        m1, m2, m3 = m
        assert k[0] == m1
        assert k[1] == m2 - m1**2
        assert k[2] == m3 - 3 * m2 * m1 + 2 * m1**3

    def test_semicircle_free_cumulants(self):
        kappa = tr.moments_to_cumulants("free", ms.Semicircle(0, 1).moments(6))
        assert [int(v) for v in kappa] == [0, 1, 0, 0, 0, 0]

    def test_centered_second(self):
        kappa = tr.moments_to_cumulants("free", [0, 1, 0])
        assert kappa == [0, 1, 0]

    def test_bernoulli_boolean_cumulants(self):
        beta = tr.moments_to_cumulants("boolean", [0, 1, 0, 1])
        assert [int(v) for v in beta] == [0, 1, 0, 0]

    def test_dirac_boolean(self):
        beta = tr.moments_to_cumulants("boolean", ms.Dirac(2).moments(4))
        assert [int(v) for v in beta] == [2, 0, 0, 0]

    def test_unknown_kind(self):
        for call in (tr.moments_to_cumulants, tr.cumulants_to_moments):
            with pytest.raises(ValueError, match="classical.*boolean.*free"):
                call("monotone", [0, 1])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_roundtrips(self, seed):
        m = random_moments(seed)
        for kind in tr.CUMULANT_KINDS:
            back = tr.cumulants_to_moments(
                kind, tr.moments_to_cumulants(kind, m))
            assert np.abs(back.floats() - m.floats()).max() < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(KIND, FRACTION_SEQ)
    def test_exact_inputs_match_reference(self, kind, seq):
        for new, old in _both_directions(kind, seq):
            assert new == old
            assert all(type(a) is type(b) for a, b in zip(new, old))

    @settings(max_examples=100, deadline=None)
    @given(KIND, FLOAT_SEQ)
    def test_float_inputs_match_reference(self, kind, seq):
        (to_new, to_old), (back_new, back_old) = _both_directions(kind, seq)
        assert [v.hex() for v in to_new] == [v.hex() for v in to_old]
        if kind != "free":
            assert [v.hex() for v in back_new] == [v.hex() for v in back_old]
        # the recursion adds kappa_k first where the reference adds it last
        for new, old in zip(back_new, back_old):
            assert abs(new - old) <= 1e-12 * max(1, abs(old))


class TestSeriesTransforms:
    def test_variance_coefficient(self):
        f = tr.f_series(ms.MomentSequence((0, Fraction(7, 3))))
        assert f.coeff(1) == 1
        assert f.coeff(0) == 0
        assert f.coeff(-1) == Fraction(-7, 3)

    def test_dirac_series(self):
        f = tr.f_series(ms.Dirac(2).moments(5))
        assert f.coeff(0) == -2
        assert all(f.coeff(p) == 0 for p in range(f.valid, 0))

    def test_bernoulli_series_vs_long_division(self):
        # long division of z(z^2-1)^(-1)... F = z - 1/z exactly
        f = tr.f_series(ms.MomentSequence((0, 1, 0, 1, 0, 1, 0, 1)))
        assert f.coeff(-1) == -1
        assert all(f.coeff(p) == 0 for p in range(f.valid, -1))

    def test_mean_zero_variance_coefficient_exact(self):
        mu = ms.AtomicMeasure(((-2, Fraction(1, 3)), (1, Fraction(2, 3))))
        m = mu.moments(6)
        f = tr.f_series(m)
        assert f.coeff(-1) == -m.variance()

    def test_free_meixner_series_moments(self):
        s = tr.free_meixner_f_series(2, 1, 10)
        m = tr.series_moments(s, 6)
        assert [int(v) for v in m.values] == [0, 4, 4, 28, 60, 260]

    def test_semicircle_r_series_is_z(self):
        r = tr.r_series(ms.Semicircle(0, 1).moments(6))
        assert r.coeff(1) == 1
        assert all(r.coeff(p) == 0 for p in range(0, 6) if p != 1)

    def test_r_series_addition_is_free_convolution(self):
        a = random_moments(31, order=6)
        b = random_moments(32, order=6)
        summed = tr.r_series(a) + tr.r_series(b)
        kappa = [summed.coeff(k - 1) for k in range(1, 7)]
        direct = tr.cumulants_to_moments("free", kappa)
        from ncprob import convolutions as cv

        want = cv.convolve("free", a, b)
        assert np.abs(direct.floats() - want.floats()).max() < 1e-12


class TestNevanlinna:
    def test_translation(self):
        nd = tr.nevanlinna_extract(lambda z: z + 5)
        assert nd.a == pytest.approx(5.0)
        assert nd.b == pytest.approx(1.0, abs=1e-6)

    def test_linear(self):
        nd = tr.nevanlinna_extract(lambda z: 2 * z + 1j)
        assert nd.b == pytest.approx(2.0, abs=1e-4)

    def test_arcsine_f(self):
        nd = tr.nevanlinna_extract(lambda z: tr.sqrt_upper(z * z - 2))
        assert nd.b == pytest.approx(1.0, abs=1e-4)

    def test_not_herglotz(self):
        with pytest.raises(tr.NotHerglotz):
            tr.nevanlinna_extract(lambda z: -1j * np.ones_like(z))


class TestHilbert:
    def test_symmetric_zero(self):
        gm = ms.Semicircle(0, 1).to_measure()
        assert abs(tr.hilbert_transform(gm, 0.0)) < 1e-6

    def test_semicircle_vs_pv_quadrature(self):
        law = ms.Semicircle(0, 1)
        gm = law.to_measure()
        for x in (1.0, -0.5, 1.7):
            pv, _ = si.quad(lambda u: law.density_at(u), -2, 2,
                            weight="cauchy", wvar=x)
            want = -pv / math.pi
            assert abs(tr.hilbert_transform(gm, x) - want) < 1e-3

    def test_atom_collision(self):
        mu = ms.AtomicMeasure.dirac(0.5)
        with pytest.raises(tr.AtomCollision):
            tr.hilbert_transform(mu, 0.5)

    def test_slit_measure_welding_symmetry(self):
        # the vertical-slit measure m_{4,2,1} has density and Hilbert
        # transform symmetric under the reflection x -> 2u - x on its
        # continuous support
        u = 1.0
        rec = ms.FreeMeixner(4, 2, 1).to_measure()
        for x in (u + 0.4, u + 1.1, u + 2.0):
            mirrored = 2 * u - x
            d1 = np.interp(x, rec.grid, rec.density)
            d2 = np.interp(mirrored, rec.grid, rec.density)
            assert abs(d1 - d2) < 1e-4
            h1 = tr.hilbert_transform(rec, x)
            h2 = tr.hilbert_transform(rec, mirrored)
            assert abs(h1 - h2) < 1e-3


class TestQuadrature:
    def test_matches_moments(self):
        m = random_moments(3, order=9)
        quad = tr.moment_quadrature(m)
        back = quad.moments(9)
        assert np.abs(back.floats() - m.floats()).max() < 1e-9

    def test_point_mass_rank_drop(self):
        quad = tr.moment_quadrature(ms.Dirac(2).moments(8))
        assert len(quad.atoms) == 1
        assert quad.atoms[0][0] == pytest.approx(2.0)
