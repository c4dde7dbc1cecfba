import json
import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import given, settings
from hypothesis import strategies as st

from ncprob import measures as ms


def random_atomic(rng, n=4, span=2.0):
    xs = np.sort(rng.uniform(-span, span, size=n))
    xs += np.arange(n) * 1e-6  # enforce strict increase
    ws = rng.random(n) + 0.05
    ws /= ws.sum()
    return ms.AtomicMeasure(tuple(zip(xs, ws)))


class TestValidation:
    def test_atomic_weight_sum(self):
        with pytest.raises(ms.MeasureError):
            ms.AtomicMeasure(((0.0, 0.5), (1.0, 0.6)))

    def test_atomic_ordering(self):
        with pytest.raises(ms.MeasureError):
            ms.AtomicMeasure(((1.0, 0.5), (0.0, 0.5)))

    def test_grid_mass(self):
        grid = np.linspace(0, 1, 11)
        with pytest.raises(ms.MeasureError):
            ms.GridMeasure(grid, np.full(11, 2.0))

    def test_moment_sequence_psd(self):
        with pytest.raises(ms.MeasureError):
            ms.MomentSequence((0.0, -1.0))  # negative variance

    def test_moment_sequence_accepts_valid(self):
        ms.MomentSequence((0, 1, 0, 2, 0, 5))


class TestMoments:
    def test_dirac(self):
        assert ms.Dirac(2).moments(3).values == (2, 4, 8)

    def test_arcsine_against_quadrature(self):
        # oracle: numeric integration of 1/(pi sqrt(2 - x^2)), smoothed by
        # the substitution x = sqrt(2) sin(theta)
        law = ms.Arcsine(0, 1)
        r = law.half_width()
        for k, expected in ((2, 1.0), (4, 1.5)):
            val, err = si.quad(
                lambda th, k=k: (r * math.sin(th)) ** k / math.pi,
                -math.pi / 2, math.pi / 2)
            assert err < 1e-9
            assert abs(val - expected) < 1e-8
            assert float(law.moments(4)[k]) == pytest.approx(expected)

    def test_semicircle_against_quadrature(self):
        law = ms.Semicircle(0, 1)
        val, err = si.quad(lambda x: x**4 * law.density_at(x), -2, 2)
        assert abs(val - 2.0) < 1e-8
        assert law.moments(4).values == (0, 1, 0, 2)
        # Catalan numbers
        assert ms.Semicircle(0, 1).moments(8).values[7] == 14

    def test_atomic_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        mu = random_atomic(rng)
        m = mu.moments(6)
        for k in range(1, 7):
            direct = sum(w * x**k for x, w in mu.atoms)
            assert abs(float(m[k]) - direct) < 1e-12

    def test_variance_of_parametric_laws(self):
        for law in (ms.Arcsine(0.3, 2.0), ms.Semicircle(-1.0, 0.5),
                    ms.Normal(0.2, 1.7)):
            m = ms.moments(law, 2, allow_truncated=True)
            assert abs(float(m.variance()) - law.var) < 1e-6

    def test_unbounded_laws_require_opt_in(self):
        with pytest.raises(ms.MeasureError):
            ms.Normal(0, 1).moments(4)
        with pytest.raises(ms.MeasureError):
            ms.Poisson(1.0).moments(4)
        assert float(ms.Poisson(1.0).moments(3, allow_truncated=True)[3]) == 5.0

    def test_marchenko_pastur_catalan(self):
        # rate-1 free Poisson has Catalan moments
        m = ms.MarchenkoPastur(1).moments(6)
        assert [int(v) for v in m.values] == [1, 2, 5, 14, 42, 132]

    def test_free_meixner_mean_variance(self):
        m = ms.FreeMeixner(4, 2, 1).moments(3)
        assert m[1] == 0 and m[2] == 4

    @pytest.mark.parametrize("u", [5, -1])
    def test_free_meixner_any_u(self, u):
        law = ms.FreeMeixner(4, 2, u)
        want = law.moments(4).floats()
        got = law.to_measure().moments(4).floats()
        assert np.all(np.abs(got - want) <= 1e-4 * np.maximum(1, np.abs(want)))

    @pytest.mark.parametrize("a, c", [(0, 1), (2, 0), (-1, 1)])
    def test_free_meixner_rejects(self, a, c):
        with pytest.raises(ms.MeasureError, match="a > 0 and c > 0"):
            ms.FreeMeixner(a, c, 0)

    def test_rejects_order_zero(self):
        with pytest.raises(ms.MeasureError):
            ms.Dirac(1).moments(0)

    def test_grid_realizations_carry_good_moments(self):
        arc = ms.Arcsine(0, 1).to_measure()
        assert abs(arc.mass() - 1) < 1e-9
        # edge-singular density: mass exact, quadratic moment to ~5e-4
        assert abs(float(arc.moments(2)[2]) - 1) < 5e-4
        semi = ms.Semicircle(0, 1).to_measure()
        assert abs(float(semi.moments(4)[4]) - 2) < 1e-4


class TestLevyDistance:
    def test_identical_measures(self):
        d = ms.levy_distance(ms.AtomicMeasure.dirac(0), ms.AtomicMeasure.dirac(0))
        assert d == 0
        mu = ms.AtomicMeasure(((-1, 0.5), (1, 0.5)))
        assert ms.levy_distance(mu, mu) == 0

    def test_two_diracs(self):
        d = ms.levy_distance(ms.AtomicMeasure.dirac(0), ms.AtomicMeasure.dirac(1))
        assert 0 < d <= 1
        # brute-force oracle on a dense grid
        xs = np.linspace(-2, 3, 4001)
        a = ms.AtomicMeasure.dirac(0)
        b = ms.AtomicMeasure.dirac(1)

        def feasible(delta):
            fa = np.array([a.cdf(x) for x in xs])
            fbp = np.array([b.cdf(x + delta) + delta for x in xs])
            fbm = np.array([b.cdf(x - delta) - delta for x in xs])
            return np.all(fbm <= fa) and np.all(fa <= fbp)

        assert feasible(d + 1e-6)
        assert not feasible(d - 1e-3)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_symmetry_and_triangle(self, seed):
        rng = np.random.default_rng(seed)
        mu, nu, rho = (random_atomic(rng, n=3) for _ in range(3))
        dmn = ms.levy_distance(mu, nu)
        assert abs(dmn - ms.levy_distance(nu, mu)) < 1e-9
        assert dmn <= (ms.levy_distance(mu, rho)
                       + ms.levy_distance(rho, nu) + 1e-9)


class TestSampling:
    def test_dirac_exact(self):
        assert list(ms.sample(ms.Dirac(3), 5, seed=1)) == [3.0] * 5

    def test_deterministic_per_seed(self):
        a = ms.sample(ms.Normal(0, 1), 100, seed=7)
        b = ms.sample(ms.Normal(0, 1), 100, seed=7)
        assert np.array_equal(a, b)

    def test_bernoulli_mean(self):
        n = 10**5
        s = ms.sample(ms.Bernoulli(Fraction(1, 2)), n, seed=7)
        assert abs(s.mean()) < 4 / math.sqrt(n)

    def test_normal_variance(self):
        s = ms.sample(ms.Normal(0, 1), 10**5, seed=7)
        assert abs(s.var() - 1) < 0.05

    def test_arcsine_sampler_matches_moments(self):
        s = ms.sample(ms.Arcsine(0, 1), 10**5, seed=3)
        assert abs((s**2).mean() - 1) < 0.02
        assert abs((s**4).mean() - 1.5) < 0.05

    def test_semicircle_sampler(self):
        s = ms.sample(ms.Semicircle(0, 1), 10**5, seed=3)
        assert abs((s**2).mean() - 1) < 0.02

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ms.MeasureError):
            ms.sample(ms.Dirac(0), 0, seed=1)

    def test_atomic_sampler(self):
        mu = ms.AtomicMeasure(((0.0, 0.25), (1.0, 0.75)))
        s = mu.sample(10**5, seed=5)
        assert abs(s.mean() - 0.75) < 0.01


# ---------------------------------------------------------------------------
# reference: GridMeasure.sample as a per-draw loop
# ---------------------------------------------------------------------------

def reference_grid_sample(measure, n, seed):
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    cum = ms._cumtrapz(measure.density, measure.grid)
    dens_mass = cum[-1]
    out = np.empty(n)
    # stack atoms after the continuous part on the unit interval
    breaks = [dens_mass]
    for _, w in measure.atoms:
        breaks.append(breaks[-1] + w)
    for i, ui in enumerate(u):
        if ui <= dens_mass:
            out[i] = np.interp(ui, cum, measure.grid)
        else:
            for (a, _), b in zip(measure.atoms, breaks[1:]):
                if ui <= b:
                    out[i] = a
                    break
            else:
                out[i] = measure.atoms[-1][0]
    return out


def random_grid_measure(rng, points, atoms):
    """Density with flat stretches plus ``atoms`` atoms whose weights stop
    4e-7 short of 1, so that some draws fall past the last atom."""
    grid = np.cumsum(rng.uniform(0.01, 1.0, points)) - 2.0
    dens = rng.random(points) * (rng.random(points) < 0.7)
    dens[points // 2] += 0.5
    dens *= (rng.uniform(0.2, 0.9) if atoms else 1.0) / np.trapezoid(dens,
                                                                     grid)
    ws = rng.random(atoms) + 0.05
    ws *= (1.0 - 4e-7 - np.trapezoid(dens, grid)) / (ws.sum() or 1.0)
    return ms.GridMeasure(grid, dens, tuple(zip(rng.uniform(-3, 3, atoms),
                                                ws)))


class _FixedDraws:
    def __init__(self, u):
        self.u = u

    def random(self, n):
        assert n == len(self.u)
        return self.u.copy()


class TestGridSample:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), points=st.integers(2, 30),
           atoms=st.integers(0, 4), n=st.integers(0, 400))
    def test_matches_reference(self, seed, points, atoms, n):
        mu = random_grid_measure(np.random.default_rng(seed), points, atoms)
        got = mu.sample(n, seed)
        assert got.tobytes() == reference_grid_sample(mu, n, seed).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), points=st.integers(2, 30),
           atoms=st.integers(0, 4), extra=st.integers(0, 50))
    def test_draws_on_breaks(self, seed, points, atoms, extra):
        rng = np.random.default_rng(seed)
        mu = random_grid_measure(rng, points, atoms)
        cum = ms._cumtrapz(mu.density, mu.grid)
        breaks = [cum[-1]]
        for _, w in mu.atoms:
            breaks.append(breaks[-1] + w)
        # every break, its neighbours on both sides, the grid's own knots
        u = np.concatenate([breaks, np.nextafter(breaks, 0),
                            np.nextafter(breaks, 1), cum, rng.random(extra)])
        u = u[(u >= 0) & (u < 1) & ((u <= cum[-1]) | (atoms > 0))]
        rng.shuffle(u)
        with mock.patch.object(np.random, "default_rng",
                               lambda seed: _FixedDraws(u)):
            got = mu.sample(len(u), 0)
            want = reference_grid_sample(mu, len(u), 0)
        assert got.tobytes() == want.tobytes()
        if atoms:
            assert np.isin(mu.atoms[-1][0], got)

    @pytest.mark.parametrize("law", [ms.MarchenkoPastur(0.5),
                                     ms.FreeMeixner(2, 1, 0)])
    def test_laws_match_reference(self, law):
        mu = law.to_measure()
        assert (mu.sample(5000, 3).tobytes()
                == reference_grid_sample(mu, 5000, 3).tobytes())


class TestSerialization:
    def test_atomic_roundtrip(self, tmp_path):
        mu = ms.AtomicMeasure(((-1.5, 0.25), (0.0, 0.5), (2.0, 0.25)))
        path = tmp_path / "m.json"
        ms.save_measure(mu, path)
        back = ms.load_measure(path)
        assert back.atoms == mu.atoms

    def test_grid_roundtrip(self, tmp_path):
        g = ms.Semicircle(0, 1).to_measure(resolution=64)
        path = tmp_path / "g.json"
        ms.save_measure(g, path)
        back = ms.load_measure(path)
        assert np.allclose(back.grid, g.grid)
        assert np.allclose(back.density, g.density)

    def test_moments_roundtrip(self):
        m = ms.MomentSequence((0, 1, 0, 2))
        back = ms.measure_from_json(ms.measure_to_json(m))
        assert back.values == (0.0, 1.0, 0.0, 2.0)

    def test_exact_entries_stay_exact(self):
        mu = ms.measure_from_json({"atoms": [[0, 1]]})
        assert mu.atoms == ((0, 1),)
        assert all(type(v) is int for v in mu.atoms[0])
        m = ms.measure_from_json({"moments": [0, 1, 0, 2]})
        assert [type(v) for v in m.values] == [int] * 4

    @pytest.mark.parametrize("obj, entry", [
        ({"atoms": [[0, "a"]]}, "atoms[0][1]"),
        ({"atoms": [[0, False]]}, "atoms[0][1]"),
        ({"moments": [0, "1"]}, "moments[1]"),
        ({"grid": [0, 1], "density": [1, True]}, "density[1]"),
    ])
    def test_non_numeric_entry(self, obj, entry):
        with pytest.raises(ms.MeasureError, match=re.escape(entry)):
            ms.measure_from_json(obj)

    def test_density_csv(self, tmp_path):
        g = ms.Semicircle(0, 1).to_measure(resolution=16)
        path = tmp_path / "d.csv"
        ms.write_density_csv(g, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x,density"
        assert len(lines) == 17
        with pytest.raises(ms.MeasureError):
            ms.write_density_csv(ms.AtomicMeasure.dirac(0), path)
