import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import given, settings
from hypothesis import strategies as st

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
        g = tr.HerglotzMap(lambda z: 0.5 / z, "cauchy")
        with pytest.raises(tr.NormalizationError):
            tr.stieltjes_invert(g, np.linspace(-1, 1, 11))


class TestStieltjesInversion:
    def test_dirac_atom(self):
        g = tr.HerglotzMap(lambda z: 1.0 / (z - 0.7), "cauchy")
        rec = tr.stieltjes_invert(g, np.linspace(-2, 2, 401),
                                  atom_candidates=[0.7])
        assert len(rec.atoms) == 1
        a, w = rec.atoms[0]
        assert abs(a - 0.7) < 1e-12 and abs(w - 1) < 1e-9
        assert rec.density_mass() < 1e-8

    def test_arcsine_density(self):
        f = tr.HerglotzMap(lambda z: tr.sqrt_upper(z * z - 2), "f")
        grid = np.linspace(-1.6, 1.6, 1601)
        rec = tr.measure_from_ftransform(f, grid)
        xs = grid[np.abs(grid) <= 1.2]
        want = ms.Arcsine(0, 1).density_at(xs)
        got = np.interp(xs, rec.grid, rec.density)
        assert np.abs(got - want).max() < 1e-3
        assert abs(rec.mass() - 1) < 1e-3
        assert not rec.atoms

    def test_semicircle_density(self):
        g = tr.HerglotzMap(lambda z: (z - tr.sqrt_upper(z * z - 4)) / 2,
                           "cauchy")
        grid = np.linspace(-2.4, 2.4, 1201)
        rec = tr.stieltjes_invert(g, grid)
        xs = grid[np.abs(grid) <= 1.8]
        want = ms.Semicircle(0, 1).density_at(xs)
        assert np.abs(np.interp(xs, rec.grid, rec.density) - want).max() < 1e-3

    def test_roundtrip_atomic_weights(self):
        mu = random_atomic(21, n=3)
        rec = tr.stieltjes_invert(
            tr.HerglotzMap.from_measure(mu, "cauchy"),
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
        rec = tr.stieltjes_invert(tr.HerglotzMap.from_measure(gm, "cauchy"),
                                  grid)
        law = ms.Semicircle(0.5, 1.3)
        xs = np.linspace(-1.3, 2.3, 200)
        assert np.abs(np.interp(xs, rec.grid, rec.density)
                      - law.density_at(xs)).max() < 1e-3

    def test_mass_error(self):
        g = tr.HerglotzMap(lambda z: 1.0 / (z - 5.0), "cauchy")
        # grid misses the atom at 5 and no candidate is supplied
        with pytest.raises(tr.MassError):
            tr.stieltjes_invert(g, np.linspace(-1, 1, 51))

    def test_atom_autodetection(self):
        # no candidates supplied: the spike probe must find the atoms
        def gm(z):
            return 0.7 * (z - tr.sqrt_upper(z * z - 4)) / 2 + 0.3 / (z - 3.0)

        rec = tr.stieltjes_invert(tr.HerglotzMap(gm, "cauchy"),
                                  np.linspace(-2.4, 3.6, 1201))
        assert len(rec.atoms) == 1
        a, w = rec.atoms[0]
        assert abs(a - 3.0) < 1e-7
        assert abs(w - 0.3) < 1e-5
        xs = np.linspace(-1.8, 1.8, 100)
        want = 0.7 * ms.Semicircle(0, 1).density_at(xs)
        assert np.abs(np.interp(xs, rec.grid, rec.density) - want).max() < 1e-4

    def test_autodetection_no_false_atoms_on_edges(self):
        f = tr.HerglotzMap(lambda z: tr.sqrt_upper(z * z - 2), "f")
        rec = tr.measure_from_ftransform(f, np.linspace(-1.7, 1.7, 1201))
        assert rec.atoms == ()

    def test_free_meixner_realization(self):
        # m_{4,2,1}: density on [1-2sqrt(2), 1+2sqrt(2)], atom at -2
        rec = tr.free_meixner_measure(4, 2, 1)
        assert len(rec.atoms) == 1
        a, w = rec.atoms[0]
        assert abs(a + 2) < 1e-6
        assert abs(w - 1 / 3) < 1e-5
        m = rec.moments(4)
        want = ms.FreeMeixner(4, 2, 1).moments(4)
        assert np.abs(m.floats() - want.floats()).max() < 2e-3


# reference: the sequential bisection loops, one evaluation per step.  The
# tree-level bisection must return the same floats.

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


class Counted:
    """A map that counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, z):
        self.calls += 1
        return self.fn(np.asarray(z, dtype=complex))


D = tr._TREE_LEVELS
STEP_COUNTS = (0, 1, D - 1, D, D + 1, 2 * D + 3, 40, 50)


class TestTreeBisection:
    @pytest.mark.parametrize("seed", [2, 3])
    def test_sle_chain_roots(self, seed):
        field = lw.HerglotzField.from_driving(
            lw.sle_driving(2.0, 1.0, 0.1, seed=seed), horizon=1.0)
        f = lw.chain_fmap(field, 1.0)
        b = field.support_bound
        grid = np.linspace(-b - 0.5, b + 0.5, 41)
        got = tr.scan_real_zeros(f, grid)
        assert got and got == reference_scan_real_zeros(f, grid)
        g = f.reciprocal("cauchy")
        a = round(float(got[0]), 2)
        pole = tr._refine_pole(g, a, halfwidth=0.02, iters=13)
        assert pole != a
        assert pole == reference_refine_pole(g, a, 0.02, iters=13)

    @given(seed=st.integers(0, 10_000), points=st.integers(2, 60),
           refine=st.sampled_from(STEP_COUNTS))
    @settings(max_examples=40, deadline=None)
    def test_scan_f_transform(self, seed, points, refine):
        f = tr.HerglotzMap.from_measure(random_atomic(seed), "f")
        grid = np.linspace(-2.5, 2.5, points)
        got = tr.scan_real_zeros(f, grid, refine=refine)
        assert got == reference_scan_real_zeros(f, grid, refine=refine)
        assert all(type(r) is np.float64 for r in got)

    @given(seed=st.integers(0, 10_000), iters=st.sampled_from(STEP_COUNTS),
           shift=st.floats(-0.01, 0.01))
    @settings(max_examples=40, deadline=None)
    def test_refine_pole_cauchy(self, seed, iters, shift):
        mu = random_atomic(seed)
        g = tr.HerglotzMap.from_measure(mu, "cauchy")
        a = float(mu.atoms[0][0]) + shift
        got = tr._refine_pole(g, a, halfwidth=0.02, iters=iters)
        assert got == reference_refine_pole(g, a, 0.02, iters=iters)

    @pytest.mark.parametrize("refine", STEP_COUNTS)
    @pytest.mark.parametrize("root", [0.5, 0.375, 0.5625, 0.3])
    def test_exact_zero_at_midpoint(self, root, refine):
        # dyadic roots make flo * fm == 0 at some midpoint of the tree
        f = tr.HerglotzMap(lambda z: z - root)
        grid = np.array([0.0, 1.0])
        got = tr.scan_real_zeros(f, grid, refine=refine)
        assert got == reference_scan_real_zeros(f, grid, refine=refine)
        g = tr.HerglotzMap(lambda z: 1.0 / (z - root))
        assert (tr._refine_pole(g, 0.5, 0.25, iters=refine)
                == reference_refine_pole(g, 0.5, 0.25, iters=refine))

    @pytest.mark.parametrize("refine", STEP_COUNTS)
    def test_one_call_per_tree_level_block(self, refine):
        f = Counted(tr.HerglotzMap.from_measure(random_atomic(1), "f"))
        roots = tr.scan_real_zeros(f, np.linspace(-2.5, 2.5, 41),
                                   refine=refine)
        assert len(roots) > 1  # one call serves every bracket
        assert f.calls == 1 + math.ceil(refine / D)
        g = Counted(tr.HerglotzMap.from_measure(random_atomic(1), "cauchy"))
        a = float(random_atomic(1).atoms[0][0])
        tr._refine_pole(g, a, halfwidth=0.02, iters=refine)
        assert g.calls == 1 + math.ceil(refine / D)


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
        nd = tr.nevanlinna_extract(tr.HerglotzMap(lambda z: z + 5))
        assert nd.a == pytest.approx(5.0)
        assert nd.b == pytest.approx(1.0, abs=1e-6)

    def test_linear(self):
        nd = tr.nevanlinna_extract(tr.HerglotzMap(lambda z: 2 * z + 1j))
        assert nd.b == pytest.approx(2.0, abs=1e-4)

    def test_arcsine_f(self):
        nd = tr.nevanlinna_extract(
            tr.HerglotzMap(lambda z: tr.sqrt_upper(z * z - 2), "f"))
        assert nd.b == pytest.approx(1.0, abs=1e-4)

    def test_not_herglotz(self):
        with pytest.raises(tr.NotHerglotz):
            tr.nevanlinna_extract(tr.HerglotzMap(lambda z: -1j * np.ones_like(z)))


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
        rec = tr.free_meixner_measure(4, 2, 1)
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
