import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncprob import convolutions as cv
from ncprob import measures as ms
from ncprob import transforms as tr


def random_moments(seed, order=8, mean_zero=False):
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(-2, 2, size=4)) + np.arange(4) * 1e-6
    ws = rng.random(4) + 0.05
    ws /= ws.sum()
    if mean_zero:
        xs -= (xs * ws).sum()
    return ms.AtomicMeasure(tuple(zip(xs, ws))).moments(order)


def exact_two_point(a, b, wa):
    """Atoms at integer-ish positions with Fraction weights for exactness."""
    return ms.AtomicMeasure(((a, wa), (b, 1 - wa))).moments(8)


def random_atoms(rng):
    """A law of one to four atoms in [-2, 2] with weights >= 0.05 / 4.2."""
    xs = np.unique(rng.uniform(-2, 2, size=rng.integers(1, 5)))
    ws = rng.random(xs.size) + 0.05
    return ms.AtomicMeasure(tuple(zip(xs.tolist(), (ws / ws.sum()).tolist())))


BERN = ms.MomentSequence((0, 1, 0, 1, 0, 1, 0, 1))
ROOT2 = math.sqrt(2)
PHI = (1 + math.sqrt(5)) / 2


class TestMomentLevel:
    def test_monotone_translation(self):
        out = cv.convolve("monotone", ms.Dirac(2).moments(6),
                          ms.Dirac(-0.5).moments(6))
        want = ms.Dirac(1.5).moments(6)
        assert np.abs(out.floats() - want.floats()).max() < 1e-12

    def test_free_semicircles_add(self):
        semi = ms.Semicircle(0, 1).moments(6)
        out = cv.convolve("free", semi, semi)
        assert out.values == ms.Semicircle(0, 2).moments(6).values

    def test_boolean_bernoulli_pair(self):
        out = cv.convolve("boolean", BERN.truncate(6), BERN.truncate(6))
        # 1/2 delta_{sqrt 2} + 1/2 delta_{-sqrt 2}: moments 0,2,0,4,0,8
        assert [int(v) for v in out.values] == [0, 2, 0, 4, 0, 8]

    def test_orders_must_match(self):
        with pytest.raises(ms.NcprobError, match="moment orders differ"):
            cv.convolve("free", BERN.truncate(4), BERN.truncate(6))

    def test_unknown_kind(self):
        with pytest.raises(ms.NcprobError,
                           match="unknown convolution kind 'quantum'"):
            cv.convolve("quantum", BERN, BERN)

    @pytest.mark.parametrize("moments_first", [True, False])
    def test_mixed_inputs_rejected(self, moments_first):
        pair = (BERN, ms.AtomicMeasure.dirac(0))
        a, b = pair if moments_first else pair[::-1]
        with pytest.raises(ms.NcprobError, match="two moment sequences"):
            cv.convolve("free", a, b)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_variance_additivity_all_kinds(self, seed):
        a = random_moments(seed, mean_zero=True)
        b = random_moments(seed + 1, mean_zero=True)
        for kind in cv.KINDS:
            out = cv.convolve(kind, a, b)
            total = float(a[2]) + float(b[2])
            assert abs(float(out[2]) - total) < 1e-10

    def test_variance_additivity_exact_rationals(self):
        a = exact_two_point(-1, 1, Fraction(1, 2))
        b = exact_two_point(-2, 1, Fraction(1, 3))
        for kind in cv.KINDS:
            out = cv.convolve(kind, a, b)
            assert out[2] - out[1] ** 2 == (a[2] - a[1] ** 2) + (b[2] - b[1] ** 2)

    def test_monotone_associativity_exact(self):
        a = exact_two_point(-1, 2, Fraction(1, 3))
        b = exact_two_point(0, 1, Fraction(1, 2))
        c = exact_two_point(-2, 1, Fraction(2, 5))
        lhs = cv.convolve("monotone", cv.convolve("monotone", a, b), c)
        rhs = cv.convolve("monotone", a, cv.convolve("monotone", b, c))
        assert lhs.values == rhs.values

    def test_commutativity_and_its_failure(self):
        a = exact_two_point(-1, 2, Fraction(1, 3))
        b = exact_two_point(0, 3, Fraction(1, 2))
        for kind in ("classical", "boolean", "free"):
            assert (cv.convolve(kind, a, b).values
                    == cv.convolve(kind, b, a).values)
        ab = cv.convolve("monotone", a, b)
        ba = cv.convolve("monotone", b, a)
        assert ab.values[2] != ba.values[2]
        # anti-monotone is monotone with the factors swapped
        assert cv.convolve("antimonotone", a, b).values == ba.values


class TestMeasureLevel:
    def test_classical_atoms_exact(self):
        a = ms.AtomicMeasure(((0, Fraction(1, 2)), (1, Fraction(1, 2))))
        out = cv.convolve("classical", a, a)
        assert [(x, w) for x, w in out.atoms] == [
            (0, Fraction(1, 4)), (1, Fraction(1, 2)), (2, Fraction(1, 4))]

    def test_monotone_diracs(self):
        out = cv.convolve("monotone", ms.AtomicMeasure.dirac(0.5),
                          ms.AtomicMeasure.dirac(1.25))
        assert out.atoms == ((1.75, 1.0),)

    def test_boolean_bernoullis(self):
        bern = ms.AtomicMeasure(((-1, 0.5), (1, 0.5)))
        out = cv.convolve("boolean", bern, bern)
        assert out.positions == pytest.approx([-ROOT2, ROOT2], abs=1e-14)
        assert out.weights == pytest.approx([0.5, 0.5], abs=1e-14)

    def test_measure_level_matches_moment_level(self):
        rng = np.random.default_rng(12)
        xs = np.sort(rng.uniform(-1.5, 1.5, 3))
        ws = rng.random(3) + 0.1
        ws /= ws.sum()
        mu = ms.AtomicMeasure(tuple(zip(xs, ws)))
        nu = ms.AtomicMeasure(((-1.0, 0.4), (0.5, 0.6)))
        for kind in cv.KINDS:
            measure_out = cv.convolve(kind, mu, nu)
            moment_out = cv.convolve(kind, mu.moments(6), nu.moments(6))
            got, want = measure_out.moments(6).floats(), moment_out.floats()
            # the free kind is a density with square-root edges, recovered
            # on the default grid; the other kinds are exactly atomic
            bound = (1e-2 if kind == "free"
                     else 1e-12 * np.maximum(1, np.abs(want)))
            assert np.all(np.abs(got - want) < bound)

    def test_free_bernoullis_are_arcsine(self):
        bern = ms.AtomicMeasure(((-1, 0.5), (1, 0.5)))
        out = cv.convolve("free", bern, bern)
        assert out.atoms == ()
        xs = np.linspace(-2.2, 2.2, 4001)
        cdf = np.array([out.cdf(x) for x in xs])
        assert np.abs(cdf - ms.Arcsine(0, 2).cdf_exact(xs)).max() <= 1e-3

    def test_free_atom_rule(self):
        # mu + nu has an atom at a + b exactly when mu({a}) + nu({b}) > 1,
        # of mass the excess (Bercovici & Voiculescu 1998)
        mu = ms.AtomicMeasure(((0, 0.7), (1, 0.3)))
        nu = ms.AtomicMeasure(((0, 0.6), (2, 0.4)))
        out = cv.convolve("free", mu, nu)
        assert len(out.atoms) == 2
        for (a, w), (x, m) in zip(out.atoms, [(0.0, 0.3), (2.0, 0.1)]):
            assert abs(a - x) <= 1e-9 and abs(w - m) <= 1e-4

    def test_free_dirac_shifts(self):
        mu = ms.AtomicMeasure(((-1.0, 0.25), (0.2, 0.5), (1.3, 0.25)))
        out = cv.convolve("free", mu, ms.AtomicMeasure.dirac(0.75))
        assert len(out.atoms) == 3 and out.density_mass() <= 1e-6
        for (a, w), (x, m) in zip(out.atoms, mu.atoms):
            assert abs(a - (x + 0.75)) <= 1e-9 and abs(w - m) <= 1e-4

    def test_classical_vs_sampling(self):
        mu = ms.AtomicMeasure(((-1.0, 0.3), (0.5, 0.7)))
        nu = ms.AtomicMeasure(((0.0, 0.5), (2.0, 0.5)))
        out = cv.convolve("classical", mu, nu)
        n = 200_000
        s = mu.sample(n, seed=4) + nu.sample(n, seed=5)
        for k in (1, 2, 3):
            mc = (s**k).mean()
            se = (s**k).std() / math.sqrt(n)
            assert abs(mc - float(out.moments(3)[k])) < 5 * se


class TestAtomicConvolutions:
    """Boolean and monotone convolutions of atomic laws are atomic, the
    spectral measures of small symmetric matrices (Speicher & Woroudi
    1997; Muraki 2000)."""

    def test_moments_match_moment_level(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            mu, nu = random_atoms(rng), random_atoms(rng)
            for kind in ("boolean", "monotone", "antimonotone"):
                got = cv.convolve(kind, mu, nu).moments(8).floats()
                want = cv.convolve(kind, mu.moments(8),
                                   nu.moments(8)).floats()
                assert np.all(np.abs(got - want)
                              <= 1e-12 * np.maximum(1, np.abs(want)))

    def test_monotone_bernoullis(self):
        # B |> B is +-phi, +-1/phi; B (+) B is in test_boolean_bernoullis
        bern = ms.AtomicMeasure(((-1, 0.5), (1, 0.5)))
        mono = cv.convolve("monotone", bern, bern)
        assert mono.positions == pytest.approx(
            [-PHI, -1 / PHI, 1 / PHI, PHI], abs=1e-14)
        outer, inner = (5 + math.sqrt(5)) / 20, (5 - math.sqrt(5)) / 20
        assert mono.weights == pytest.approx([outer, inner, inner, outer],
                                             abs=1e-14)

    def test_close_atoms_kept(self):
        # a 1.2e-3 gap, finer than the default inversion grid's step
        mu = ms.AtomicMeasure(((-1.2347, 0.2), (-1.2335, 0.5), (1.2, 0.3)))
        out = cv.convolve("monotone", ms.AtomicMeasure.dirac(0.0), mu)
        assert out.positions == pytest.approx(mu.positions, abs=1e-12)
        assert out.weights == pytest.approx(mu.weights, abs=1e-12)

    def test_thirty_by_thirty_monotone(self):
        mu = ms.AtomicMeasure(tuple((x, 1 / 30)
                                    for x in np.linspace(-1, 1, 30)))
        nu = ms.AtomicMeasure(tuple((x, 1 / 30)
                                    for x in np.linspace(-1.3, 0.7, 30)))
        out = cv.convolve("monotone", mu, nu)
        assert len(out.atoms) == 900
        want = cv.convolve("monotone", mu.moments(8), nu.moments(8)).floats()
        assert np.all(np.abs(out.moments(8).floats() - want)
                      <= 1e-12 * np.maximum(1, np.abs(want)))

    def test_grid_inversion_of_the_boolean_fmap(self):
        # F_mu + F_nu - z, inverted on the grid the free kind uses
        bern = ms.AtomicMeasure(((-1, 0.5), (1, 0.5)))
        out = tr.measure_from_ftransform(
            lambda z: 2 * tr.f_transform(bern, z) - z,
            cv._default_grid(bern, bern), eps_ladder=(2e-3, 1e-3, 5e-4))
        assert len(out.atoms) == 2
        (a1, w1), (a2, w2) = out.atoms
        assert abs(a1 + ROOT2) < 1e-9 and abs(a2 - ROOT2) < 1e-9
        assert abs(w1 - 0.5) < 1e-6 and abs(w2 - 0.5) < 1e-6
        assert out.density_mass() < 1e-6

    def test_grid_inversion_of_the_monotone_fmap(self):
        # F_mu(F_nu(z)) for two Diracs, inverted on the same grid
        mu, nu = ms.AtomicMeasure.dirac(0.5), ms.AtomicMeasure.dirac(1.25)
        out = tr.measure_from_ftransform(
            lambda z: tr.f_transform(mu, tr.f_transform(nu, z)),
            cv._default_grid(mu, nu), eps_ladder=(2e-3, 1e-3, 5e-4))
        assert len(out.atoms) == 1
        a, w = out.atoms[0]
        assert abs(a - 1.75) < 1e-9 and abs(w - 1) < 1e-6


class TestMonotoneKernel:
    """The transition kernel k(x, .) = delta_x |> mu of the monotone
    additive process with increments mu (Franz 2009): the law with Cauchy
    transform 1/(F_mu(z) - x), from ``convolve`` for an atomic mu and from
    ``measure_from_ftransform`` of F_mu - x on a grid of one's own."""

    def test_x_zero_recovers_mu(self):
        mu = ms.Semicircle(0, 1).to_measure()
        grid = np.linspace(-2.4, 2.4, 901)
        k = tr.measure_from_ftransform(lambda z: tr.f_transform(mu, z) - 0.0,
                                       grid)
        xs = np.linspace(-1.8, 1.8, 100)
        want = ms.Semicircle(0, 1).density_at(xs)
        assert np.abs(np.interp(xs, k.grid, k.density) - want).max() < 1e-3

    def test_dirac_translation(self):
        k = cv.convolve("monotone", ms.AtomicMeasure.dirac(1.5),
                        ms.AtomicMeasure.dirac(0.75))
        assert len(k.atoms) == 1
        a, w = k.atoms[0]
        assert abs(a - 2.25) < 1e-9 and abs(w - 1) < 1e-6

    def test_arcsine_translation_equivariance(self):
        mu = ms.Arcsine(0, 1).to_measure()
        grid = np.linspace(-1.8, 2.8, 1301)
        k = tr.measure_from_ftransform(lambda z: tr.f_transform(mu, z) - 1.0,
                                       grid, eps_ladder=(5e-3, 2.5e-3, 1.25e-3))
        assert abs(k.mass() - 1) < 1e-3
        assert abs(float(k.moments(1)[1]) - 1.0) < 1e-3

    def test_chapman_kolmogorov(self):
        # 1/(F_{mu |> nu}(z) - x) = int 1/(F_nu(z) - y) k_mu(x, dy)
        mu = ms.AtomicMeasure(((-1.0, 0.5), (1.0, 0.5)))
        nu = ms.AtomicMeasure(((-0.5, 0.3), (0.8, 0.7)))
        x = 0.4
        kernel = cv.convolve("monotone", ms.AtomicMeasure.dirac(x), mu)
        for z in (2j, 1 + 1j, -0.5 + 1.5j):
            w = tr.f_transform(nu, np.array([z]))[0]
            lhs = 1.0 / (tr.f_transform(mu, np.array([w]))[0] - x)
            rhs = tr.cauchy(kernel, np.array([w]))[0]
            assert abs(lhs - rhs) < 1e-12


class TestFreePoisson:
    def test_matches_marchenko_pastur_transform(self):
        n, c = 2048, 1
        piece = ms.AtomicMeasure(
            ((0, Fraction(n - 1, n)), (1, Fraction(1, n)))).moments(40)
        total = cv.convolve_power("free", piece, n)
        quad = tr.moment_quadrature(total)
        zs = np.array([0.3 + 0.5j, 2 + 0.5j, 2 + 2j, -1 + 1j, 4.5 + 0.5j,
                       1j, 0.5 + 2j, 3 + 1j, -0.5 + 0.25j, 5 + 0.2j])
        got = tr.cauchy(quad, zs)
        root = tr.sqrt_upper(c * c - 2 * c * (zs + 1) + (zs - 1) ** 2)
        want = (zs + 1 - c - root) / (2 * zs)
        assert np.abs(got - want).max() < 2e-3


class TestCLT:
    def test_requires_normalized_base(self):
        with pytest.raises(ms.NcprobError,
                           match="base must have mean 0 and variance 1"):
            cv.clt_iterate("free", ms.Dirac(1).moments(4), 16)

    def test_boolean_fixed_point(self):
        # B = 1/z is a fixed point of the rescaling, exactly at every n
        for n in (2, 10, 4096):
            out = cv.clt_iterate("boolean", BERN, n)
            assert list(out.values) == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_free_fourth_moment(self):
        out = cv.clt_iterate("free", BERN.truncate(4), 4096)
        # kappa_4(Bernoulli) = -1, so m_4 = 2 - 1/n
        assert out[4] == 2 - Fraction(1, 4096)
        assert abs(float(out[4]) - 2) < 5e-4

    def test_monotone_fourth_moment(self):
        out = cv.clt_iterate("monotone", BERN.truncate(4), 4096)
        assert abs(float(out[4]) - 1.5) < 2e-2

    def test_classical_gaussian_limit(self):
        out = cv.clt_iterate("classical", BERN.truncate(4), 4096)
        assert abs(float(out[4]) - 3) < 1e-3

    def test_monotone_arcsine_limit_order6(self):
        out = cv.clt_iterate("monotone", BERN, 4096)
        # arcsine A(0,1) has m_6 = C(6,3)/2^3 = 2.5
        assert abs(float(out[6]) - 2.5) < 5e-2

    def test_base_needs_a_variance(self):
        with pytest.raises(ms.NcprobError,
                           match="clt_iterate needs a base of order >= 2, "
                                 "got 1"):
            cv.clt_iterate("free", BERN.truncate(1), 4)

    @pytest.mark.parametrize("n", [0, -4])
    def test_nonpositive_n_rejected(self, n):
        with pytest.raises(ms.NcprobError,
                           match="convolution count n must be >= 1"):
            cv.clt_iterate("free", BERN.truncate(4), n)

    def test_non_square_n_uses_floats(self):
        out = cv.clt_iterate("monotone", BERN.truncate(4), 1000)
        assert abs(float(out[4]) - 1.5) < 5e-2


class TestBooleanRoot:
    def test_bernoulli_half_variance(self):
        out = cv.boolean_divisibility_root(BERN.truncate(4), 2)
        # B = 1/(2z): variance 1/2
        assert out[2] == Fraction(1, 2)

    def test_identity_at_one(self):
        out = cv.boolean_divisibility_root(BERN, 1)
        assert out.values == BERN.values

    def test_power_needs_moments(self):
        with pytest.raises(ms.NcprobError,
                           match="convolve_power expects a MomentSequence"):
            cv.convolve_power("free", ms.AtomicMeasure.dirac(0), 2)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 7))
    def test_root_then_power_roundtrip(self, seed, n):
        m = random_moments(seed)
        root = cv.boolean_divisibility_root(m, n)
        back = cv.convolve_power("boolean", root, n)
        assert np.abs(back.floats() - m.floats()).max() < 1e-12
