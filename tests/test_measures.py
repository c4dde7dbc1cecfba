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
        with pytest.raises(ms.NcprobError, match="atom weights sum to"):
            ms.AtomicMeasure(((0.0, 0.5), (1.0, 0.6)))

    def test_atomic_ordering(self):
        with pytest.raises(ms.NcprobError,
                           match="atom positions must be strictly increasing"):
            ms.AtomicMeasure(((1.0, 0.5), (0.0, 0.5)))

    def test_grid_mass(self):
        grid = np.linspace(0, 1, 11)
        with pytest.raises(ms.NcprobError, match="is not 1 within 1e-6"):
            ms.GridMeasure(grid, np.full(11, 2.0))

    def test_moment_sequence_psd(self):
        with pytest.raises(ms.NcprobError, match="Hankel matrix is not PSD"):
            ms.MomentSequence((0.0, -1.0))  # negative variance

    def test_moment_sequence_accepts_valid(self):
        ms.MomentSequence((0, 1, 0, 2, 0, 5))

    @pytest.mark.parametrize("order", [0, -1])
    def test_truncate_below_order_one(self, order):
        with pytest.raises(ms.NcprobError, match="moment order must be >= 1"):
            ms.Bernoulli().moments(4).truncate(order)


class TestMoments:
    def test_dirac(self):
        assert ms.Dirac(2).moments(3).values == (2, 4, 8)

    def test_arcsine_against_quadrature(self):
        # oracle: numeric integration of 1/(pi sqrt(2 - x^2)), smoothed by
        # the substitution x = sqrt(2) sin(theta)
        law = ms.Arcsine(0, 1)
        r = math.sqrt(2)
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
            m = ms.moments(law, 2)
            assert abs(float(m[2] - m[1] ** 2) - law.var) < 1e-6

    def test_unbounded_law_moments(self):
        assert ms.Normal(0, 1).moments(4).values == (0, 1, 0, 3)
        assert ms.Poisson(1).moments(3).values == (1, 2, 5)

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
        with pytest.raises(ms.NcprobError, match="a > 0 and c > 0"):
            ms.FreeMeixner(a, c, 0)

    def test_rejects_order_zero(self):
        with pytest.raises(ms.NcprobError, match="moment order must be >= 1"):
            ms.Dirac(1).moments(0)

    def test_grid_realizations_carry_good_moments(self):
        arc = ms.Arcsine(0, 1).to_measure()
        assert abs(arc.mass() - 1) < 1e-9
        # edge-singular density: mass exact, quadratic moment to ~5e-4
        assert abs(float(arc.moments(2)[2]) - 1) < 5e-4
        semi = ms.Semicircle(0, 1).to_measure()
        assert abs(float(semi.moments(4)[4]) - 2) < 1e-4


def catalan(j):
    return math.comb(2 * j, j) // (j + 1)


def narayana(k, j):
    return math.comb(k, j) * math.comb(k, j - 1) // k


def stirling2(k, j):
    return sum((-1) ** (j - i) * math.comb(j, i) * i**k
               for i in range(j + 1)) // math.factorial(j)


def odd_double_factorial(k):
    """(k - 1)!! for even k."""
    return math.prod(range(1, k, 2))


def shifted(central, mean, order):
    """Raw moments m_1..m_order of X + mean from central(k) = E[X^k]."""
    return [sum(math.comb(k, i) * central(i) * mean ** (k - i)
                for i in range(k + 1)) for k in range(1, order + 1)]


def even(f):
    """central(k): f(k // 2) for even k, 0 for odd k."""
    return lambda k: f(k // 2) if k % 2 == 0 else 0


def marchenko_pastur(c, k):
    """m_k of the free Poisson law of rate c, a Narayana polynomial."""
    return sum(narayana(k, j) * c**j for j in range(1, k + 1)) if k else 1


EXACT = st.one_of(st.integers(-3, 3),
                  st.fractions(-3, 3, max_denominator=6))
POSITIVE = st.one_of(st.integers(1, 3),
                     st.fractions(Fraction(1, 6), 3, max_denominator=6))
PROBABILITY = st.fractions(Fraction(1, 12), Fraction(11, 12),
                           max_denominator=12)

# law, parameter strategies, closed-form raw moments m_1..m_K
CLOSED_FORMS = {
    "dirac": (ms.Dirac, (EXACT,),
              lambda c, K: [c**k for k in range(1, K + 1)]),
    "bernoulli": (ms.Bernoulli, (PROBABILITY,),
                  lambda p, K: [p + (-1) ** k * (1 - p)
                                for k in range(1, K + 1)]),
    "normal": (ms.Normal, (EXACT, POSITIVE), lambda m, v, K: shifted(
        even(lambda j: odd_double_factorial(2 * j) * v**j), m, K)),
    "arcsine": (ms.Arcsine, (EXACT, POSITIVE), lambda m, v, K: shifted(
        even(lambda j: Fraction(math.comb(2 * j, j), 2**j) * v**j), m, K)),
    "semicircle": (ms.Semicircle, (EXACT, POSITIVE), lambda m, v, K: shifted(
        even(lambda j: catalan(j) * v**j), m, K)),
    "poisson": (ms.Poisson, (POSITIVE,), lambda lam, K: [
        sum(stirling2(k, j) * lam**j for j in range(1, k + 1))
        for k in range(1, K + 1)]),
    "marchenko-pastur": (ms.MarchenkoPastur, (POSITIVE,), lambda c, K: [
        marchenko_pastur(c, k) for k in range(1, K + 1)]),
    # m_{c,c,1} is the Marchenko-Pastur law of rate c shifted by -c
    "free-meixner": (lambda c: ms.FreeMeixner(c, c, 1), (POSITIVE,),
                     lambda c, K: shifted(
                         lambda k: marchenko_pastur(c, k), -c, K)),
}


class TestJacobiMoments:
    """Every named law's moments come from one Motzkin path count over
    its Jacobi parameters; each is pinned here against its own closed
    form: Catalan, Narayana and Stirling numbers, (k - 1)!! and central
    binomials shifted by the mean, and the two-point and point-mass
    powers."""

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    @given(data=st.data(), order=st.integers(1, 24))
    @settings(max_examples=40, deadline=None)
    def test_exact_parameters(self, name, data, order):
        law, strategies, closed_form = CLOSED_FORMS[name]
        params = [data.draw(s) for s in strategies]
        got = law(*params).moments(order).values
        assert list(got) == closed_form(*params, order)
        assert all(isinstance(v, (int, Fraction)) for v in got)
        assert law(*params).moments(order + 1).values[:order] == got

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    @given(data=st.data(), order=st.integers(1, 24))
    @settings(max_examples=40, deadline=None)
    def test_float_parameters(self, name, data, order):
        law, strategies, closed_form = CLOSED_FORMS[name]
        params = [float(data.draw(s)) for s in strategies]
        got = law(*params).moments(order).values
        want = closed_form(*map(Fraction, params), order)
        for g, w in zip(got, want, strict=True):
            assert abs(g - w) <= 1e-14 * abs(w)

    def test_whole_float_parameters_stay_exact(self):
        assert ms.Normal(1.0, 2).moments(3).values == (1, 3, 7)
        assert all(isinstance(v, Fraction)
                   for v in ms.Normal(1.0, 2).moments(3).values)

    def test_free_meixner_linear_atom_equation(self):
        # a = c makes the atom equation linear: one atom at -a/u, of mass
        # 1 - c/u^2, which Stieltjes inversion missed without a candidate
        mu = ms.FreeMeixner(1, 1, 2).to_measure()
        ((x, w),) = mu.atoms
        assert x == -0.5 and abs(w - 0.75) < 1e-4


# each interval law with its atoms; FreeMeixner(2, 1, 0) is Arcsine(0, 2)
TWO_STEP_LAWS = [
    (ms.Semicircle(0.5, 2), []),
    (ms.Arcsine(-1, 0.5), []),
    (ms.MarchenkoPastur(0.5), [(0.0, 0.5)]),
    (ms.FreeMeixner(4, 2, 1), [(-2.0, 1 / 3)]),
    (ms.FreeMeixner(1, 1, 2), [(-0.5, 0.75)]),
    (ms.FreeMeixner(2, 1, 0), []),
]


@pytest.mark.parametrize("law, atoms", TWO_STEP_LAWS, ids=repr)
def test_two_step_law(law, atoms):
    """One F for the four interval laws: its far field is the moment
    series, its real zeros are the exact atoms, and the grid realization
    keeps the variance."""
    m = law.moments(30).floats()
    z = 1e6j
    series = 1 + sum(mk * z ** -k for k, mk in enumerate(m[:4], 1))
    assert abs(z * law.cauchy(z) - series) <= 1e-12
    radius = max(map(abs, law.edges()))
    zs = 10 * radius * np.exp(1j * np.linspace(0.1, math.pi - 0.1, 7))
    zs = np.concatenate([zs, 1e3 * zs])
    series = sum(mk * zs ** -(k + 1) for k, mk in enumerate([1, *m]))
    assert np.all(np.abs(1 / law.fmap(zs) - series) <= 1e-14 * np.abs(series))
    assert law.atoms() == atoms
    mu = law.to_measure()
    assert mu.atoms == tuple(atoms)
    m2 = float(law.moments(2)[2])
    assert abs(mu.moments(2)[2] - m2) <= 5e-4 * m2


def reference_fmap(law, zs):
    """F = z - alpha_0 - beta_1 w at 50 digits, on the law's float
    parameters; the cancellation costs at most 17 of them."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        a0, b1, a, b = map(mp.mpf, law._floats())
        out = []
        for z in zs.tolist():
            d = mp.mpc(z) - a
            out.append(mp.mpc(z) - a0
                       - b1 * 2 / (d + 1j * mp.sqrt(4 * b - d * d)))
        return out


def fmap_error(law, zs):
    return max(float(abs(mp_f - complex(f)) / abs(mp_f))
               for f, mp_f in zip(law.fmap(zs), reference_fmap(law, zs)))


@pytest.mark.parametrize("law", [
    *[law for law, _ in TWO_STEP_LAWS],
    # atoms off the float grid: FreeMeixner(4, 1, 0)'s at -+4/sqrt(3), and
    # those of MarchenkoPastur(0.1) (at 0) and FreeMeixner(3, 0.7, -1.3)
    # (at -3 and 3/2.3) on their rounded parameters
    ms.MarchenkoPastur(0.1), ms.FreeMeixner(4, 1, 0),
    ms.FreeMeixner(3, 0.7, -1.3),
], ids=repr)
def test_two_step_fmap_to_full_precision(law):
    """F next to each atom, where z - alpha_0 - beta_1 w cancels, and on
    a sweep across and around the support, at three heights."""
    for x, _ in law.atoms():
        near = x + np.linspace(-1e-3, 1e-3, 41) + 1e-6j
        assert fmap_error(law, near) <= 1e-12
    lo, hi = law.edges()
    xs = np.linspace(lo - 1, hi + 1, 201)
    # F vanishes at an edge of Arcsine and of FreeMeixner(2, 1, 0); there
    # (z - alpha)^2 - 4 beta cancels under the square root
    at_zero = np.zeros_like(xs, dtype=bool)
    for e in law.edges():
        if abs(law.fmap(e + 1e-12j)) <= 1e-5:
            at_zero |= np.abs(xs - e) <= 1e-3
    for h in (1e-6, 1e-3, 1.0):
        assert fmap_error(law, xs[~at_zero] + 1j * h) <= 1e-12
        if at_zero.any():
            assert fmap_error(law, xs[at_zero] + 1j * h) <= 1e-10


@pytest.mark.parametrize("law", [ms.Semicircle(0.5, 2), ms.Arcsine(-1, 0.5)],
                         ids=repr)
def test_realization_matches_exact_cdf(law):
    mu = law.to_measure()
    xs = np.linspace(*law.edges(), 41)
    assert max(abs(mu.cdf(x) - law.cdf_exact(x)) for x in xs) <= 1e-5


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
        with pytest.raises(ms.NcprobError, match="sample count must be >= 1"):
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
        grid = np.linspace(-2, 2, 64)
        dens = ms.Semicircle(0, 1).density_at(grid)
        g = ms.GridMeasure(grid, dens / np.trapezoid(dens, grid))
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
        with pytest.raises(ms.NcprobError, match=re.escape(entry)):
            ms.measure_from_json(obj)

    def test_density_csv(self, tmp_path):
        grid = np.linspace(-2, 2, 16)
        dens = ms.Semicircle(0, 1).density_at(grid)
        g = ms.GridMeasure(grid, dens / np.trapezoid(dens, grid))
        path = tmp_path / "d.csv"
        ms.write_density_csv(g, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x,density"
        assert len(lines) == 17
        with pytest.raises(ms.NcprobError,
                           match="atomic measures have no density to emit"):
            ms.write_density_csv(ms.AtomicMeasure.dirac(0), path)
