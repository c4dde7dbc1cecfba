import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncprob import randmat as rm


# Reference implementations: the straightforward bodies that the library's
# randmat functions must reproduce (bytes for sampling, 1e-12 for traces).

def reference_sample_gue(n, rng):
    # GUE: N(0, 1/N) diagonal, N(0, 1/(2N)) real and imaginary parts above
    z = rng.standard_normal((n, n))
    zs = z * math.sqrt(1.0 / (2 * n))
    a = np.zeros((n, n), dtype=complex)
    iu = np.triu_indices(n, 1)
    a[iu] = zs[iu] + 1j * zs.T[iu]
    a = a + a.conj().T
    a[np.diag_indices(n)] = np.diag(z) * math.sqrt(1.0 / n)
    return a


def reference_gue_eigenvalues(n, rng):
    # the beta = 2 Hermite matrix, built whole and solved from its lower half
    d = rng.standard_normal(n)
    e = np.sqrt(rng.standard_gamma(np.arange(n - 1, 0, -1)))
    t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    return np.linalg.eigvalsh(t) / math.sqrt(n)


def reference_freeness_statistic(a, b):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    n = a.shape[0]
    eye = np.eye(n)

    def centered(m):
        return [m - rm.trace_state(m) * eye,
                m @ m - rm.trace_state(m @ m) * eye]

    xa, xb = centered(a), centered(b)
    worst = 0.0
    for length in range(2, 5):
        for first in (xa, xb):
            second = xb if first is xa else xa
            letters = [first if i % 2 == 0 else second for i in range(length)]
            for choice in range(2**length):
                w = None
                for i, let in enumerate(letters):
                    m = let[(choice >> i) & 1]
                    w = m if w is None else w @ m
                worst = max(worst, abs(rm.trace_state(w)))
    return worst


def reference_free_ar1(n, steps, c, noise, seed):
    rng = np.random.default_rng(seed)
    x = np.eye(n, dtype=complex)
    traj = []
    prev = x
    eps = None
    for _ in range(steps):
        g = reference_sample_gue(n, rng)
        if noise == "squared_gue":
            g = g @ g
            g = g - rm.trace_state(g) * np.eye(n)
        prev = x
        eps = g
        x = c * x + g
        traj.append(rm.trace_state(x @ x))
    mixed = rm.trace_state(prev @ eps @ prev @ eps)
    return rm.FreeAR1Result(
        mean_last=rm.trace_state(x),
        var_last=rm.trace_state(x @ x) - rm.trace_state(x) ** 2,
        mixed_moment=mixed,
        noise_var_last=rm.trace_state(eps @ eps),
        var_trajectory=tuple(traj),
    )


def random_complex(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n))
                    + 1j * rng.standard_normal((n, n)))


class TestGUE:
    def test_hermitian_exact(self):
        a = rm.sample_gue(64, seed=0)
        assert np.abs(a - a.conj().T).max() == 0

    def test_deterministic_per_seed(self):
        assert np.array_equal(rm.sample_gue(16, seed=3),
                              rm.sample_gue(16, seed=3))

    def test_scalar_variance(self):
        # N=1: a single real Gaussian with variance 1 (standard error 0.014)
        vals = np.array([rm.sample_gue(1, seed=s)[0, 0].real
                         for s in range(10_000)])
        assert abs(vals.var() - 1.0) < 0.05

    def test_second_moment(self):
        phis = [rm.trace_state(rm.sample_gue(200, seed=s) @
                               rm.sample_gue(200, seed=s))
                for s in range(50)]
        assert abs(np.mean(phis) - 1.0) < 0.05

    def test_wigner_distance(self):
        dists = rm.wigner_check(1000, seeds=(7,))
        assert dists[0] <= 0.06


def spectra(sampler, n, draws, seed):
    """(draws, n) ascending spectra of one sampler from one Generator."""
    rng = np.random.default_rng(seed)
    if sampler == "matrix":
        return np.array([np.linalg.eigvalsh(rm.sample_gue(n, rng))
                         for _ in range(draws)])
    return np.array([rm.gue_eigenvalues(n, rng) for _ in range(draws)])


class TestGUELaw:
    """Both samplers against the exact GUE law and each other."""

    @pytest.mark.parametrize("sampler", ["matrix", "tridiagonal"])
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_exact_moments(self, sampler, n):
        # E phi(A^2) = 1 and E phi(A^4) = 2 + 1/N^2 (Harer-Zagier); the
        # old half-variance diagonal gave 1 - 1/(2N), over 10 standard
        # errors away at these sizes
        lam = spectra(sampler, n, 4000, seed=n)
        for k, exact in ((2, 1.0), (4, 2.0 + 1.0 / n**2)):
            phi = (lam**k).mean(axis=1)
            se = phi.std(ddof=1) / math.sqrt(phi.size)
            assert abs(phi.mean() - exact) < 4 * se, (k, phi.mean(), se)

    @pytest.mark.parametrize("n", [3, 8])
    def test_samplers_share_a_law(self, n):
        # each ordered eigenvalue is iid across draws: two-sample KS per
        # index, Bonferroni over the n indices
        from scipy.stats import ks_2samp
        a = spectra("matrix", n, 3000, seed=100 + n)
        b = spectra("tridiagonal", n, 3000, seed=200 + n)
        for k in range(n):
            assert ks_2samp(a[:, k], b[:, k]).pvalue > 1e-3 / n, k

    def test_one_by_one(self):
        # N = 1: the eigenvalue is the N(0, 1) entry itself
        for seed in range(5):
            x = np.random.default_rng(seed).standard_normal(1)
            assert rm.gue_eigenvalues(1, seed).tobytes() == x.tobytes()
            assert rm.sample_gue(1, seed).tobytes() == \
                x.astype(complex).reshape(1, 1).tobytes()

    def test_two_by_two_draws(self):
        # [[a, b], [b, c]] / sqrt(2) with b^2 ~ Gamma(1, 1)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a, c = rng.standard_normal(2)
            g = rng.standard_gamma(np.arange(1, 0, -1))[0]
            r = math.sqrt(((a - c) / 2) ** 2 + g)
            want = np.array([(a + c) / 2 - r, (a + c) / 2 + r]) / math.sqrt(2)
            assert rm.gue_eigenvalues(2, seed) == pytest.approx(
                want, rel=1e-14, abs=1e-14 * (abs(a) + abs(c) + r))

    @pytest.mark.parametrize("sampler", ["matrix", "tridiagonal"])
    def test_two_by_two_law(self, sampler):
        # N = 2 GUE: the trace is N(0, 1) and the squared gap chi^2_3
        from scipy.stats import kstest
        lam = spectra(sampler, 2, 4000, seed=7)
        assert kstest(lam.sum(axis=1), "norm").pvalue > 1e-3
        gap2 = (lam[:, 1] - lam[:, 0]) ** 2
        assert kstest(gap2, "chi2", args=(3,)).pvalue > 1e-3

    def test_ascending_and_scaled(self):
        lam = rm.gue_eigenvalues(1000, seed=3)
        assert np.all(np.diff(lam) >= 0)
        assert -2.1 < lam[0] < -1.9 and 1.9 < lam[-1] < 2.1

    def test_rejects_empty(self):
        with pytest.raises(rm.RandMatError):
            rm.gue_eigenvalues(0, seed=0)


class TestESD:
    def test_diagonal_atoms(self):
        d = np.diag([1.0, 2.0, 3.0])
        atoms = rm.esd(d).atoms
        assert [a for a, _ in atoms] == [1.0, 2.0, 3.0]

    def test_moments_match_traces(self):
        a = rm.sample_gue(60, seed=5)
        mu = rm.esd(a)
        for k in range(1, 9):
            tracek = rm.trace_state(np.linalg.matrix_power(a, k))
            assert abs(float(mu.moments(8)[k]) - tracek) < 1e-9

    def test_size_guard(self):
        with pytest.raises(rm.RandMatError):
            rm.esd(np.eye(5000))


class TestHaarFreeness:
    def test_unitary(self):
        u = rm.haar_unitary(100, seed=1)
        assert np.abs(u @ u.conj().T - np.eye(100)).max() < 1e-10

    def test_identity_partner_vanishes(self):
        a = rm.sample_gue(100, seed=2)
        assert rm.freeness_statistic(a, np.eye(100)) == 0.0

    def test_independent_gue_pair(self):
        a = rm.sample_gue(500, seed=1)
        b = rm.sample_gue(500, seed=2)
        assert rm.freeness_statistic(a, b) <= 0.1

    def test_haar_rotated_projection(self):
        n = 500
        diag = np.diag(np.concatenate([np.ones(n // 2), -np.ones(n // 2)]))
        u = rm.haar_unitary(n, seed=5)
        b = u @ diag @ u.conj().T
        assert rm.freeness_statistic(diag, b) <= 0.1
        # phi(ABAB) ~ 0 for centered free a, b
        assert abs(rm.trace_state(diag @ b @ diag @ b)) <= 0.05


class TestFreeAR1:
    def test_pure_noise(self):
        res = rm.free_ar1(300, steps=5, c=0.0, noise="gue", seed=1)
        assert abs(res.var_last - 1.0) < 0.1

    def test_stationary_variance(self):
        res = rm.free_ar1(500, steps=100, c=0.5, noise="gue", seed=3)
        assert abs(res.var_last - 4 / 3) < 0.1

    def test_mixed_moment_vanishes(self):
        res = rm.free_ar1(500, steps=100, c=0.5, noise="gue", seed=3)
        assert abs(res.mixed_moment) < 0.05

    def test_squared_noise_runs(self):
        res = rm.free_ar1(200, steps=30, c=0.5, noise="squared_gue", seed=4)
        assert abs(res.mean_last) < 0.1
        assert abs(res.mixed_moment) < 0.05

    def test_rejects_nonstationary(self):
        with pytest.raises(rm.RandMatError):
            rm.free_ar1(10, 5, c=1.0)


class TestSquaredGUE:
    def test_marchenko_pastur_limit(self):
        a = rm.sample_gue(1000, seed=9)
        dist = rm.kolmogorov_distance(rm.esd(a @ a), rm.marchenko_pastur_cdf)
        assert dist <= 0.08


    def test_marchenko_pastur_cdf_closed_form(self):
        assert abs(rm.marchenko_pastur_cdf(1.0)
                   - (1 / 3 + math.sqrt(3) / (2 * math.pi))) <= 1e-12
        xs = np.array([-1.0, -0.0, 0.0, 4.0, 4.5, np.inf])
        assert rm.marchenko_pastur_cdf(xs).tolist() == [0, 0, 0, 1, 1, 1]
        assert abs(rm.marchenko_pastur_cdf(1e-4) - 0.006366) <= 1e-6


class TestTraceState:
    def test_unit_on_identity(self):
        for n in (1, 7, 64):
            assert rm.trace_state(np.eye(n)) == 1.0


class TestReferencePins:
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 64, 500])
    def test_sample_gue_bytes(self, n):
        for seed in (0, 3):
            want = reference_sample_gue(n, np.random.default_rng(seed))
            assert rm.sample_gue(n, seed).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 64, 500])
    def test_gue_eigenvalues_bytes(self, n):
        for seed in (0, 3):
            want = reference_gue_eigenvalues(n, np.random.default_rng(seed))
            assert rm.gue_eigenvalues(n, seed).tobytes() == want.tobytes()

    def test_gue_eigenvalues_takes_a_generator(self):
        rng = np.random.default_rng(4)
        first, second = rm.gue_eigenvalues(5, rng), rm.gue_eigenvalues(5, rng)
        assert first.tobytes() == rm.gue_eigenvalues(5, 4).tobytes()
        assert not np.array_equal(first, second)

    def test_sample_gue_takes_a_generator(self):
        rng = np.random.default_rng(4)
        first, second = rm.sample_gue(5, rng), rm.sample_gue(5, rng)
        assert first.tobytes() == rm.sample_gue(5, 4).tobytes()
        assert not np.array_equal(first, second)

    @pytest.mark.parametrize("noise", ["gue", "squared_gue"])
    @pytest.mark.parametrize("n, steps, c, seed", [
        (1, 3, 0.5, 0), (17, 1, -0.4, 1), (64, 6, 0.5, 2), (200, 4, 0.9, 3)])
    def test_free_ar1(self, noise, n, steps, c, seed):
        got = rm.free_ar1(n, steps, c, noise, seed)
        want = reference_free_ar1(n, steps, c, noise, seed)
        for field in ("mean_last", "var_last", "mixed_moment",
                      "noise_var_last", "var_trajectory"):
            assert getattr(got, field) == pytest.approx(
                getattr(want, field), rel=1e-12, abs=0), field

    def test_freeness_gue_pair(self):
        a, b = rm.sample_gue(200, seed=1), rm.sample_gue(200, seed=2)
        assert rm.freeness_statistic(a, b) == pytest.approx(
            reference_freeness_statistic(a, b), rel=1e-12, abs=0)

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 12),
           scale=st.sampled_from([0.3, 1.0, 3.0]),
           hermitian=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_freeness_random_pairs(self, seed, n, scale, hermitian):
        rng = np.random.default_rng(seed)
        a, b = random_complex(rng, n, scale), random_complex(rng, n, scale)
        if hermitian:
            a, b = a + a.conj().T, b + b.conj().T
        assert rm.freeness_statistic(a, b) == pytest.approx(
            reference_freeness_statistic(a, b), rel=1e-12, abs=0)

    def test_freeness_reads_longest_words(self):
        # scaled letters make the length-4 words of squares the largest
        rng = np.random.default_rng(11)
        a, b = random_complex(rng, 6, 3.0), random_complex(rng, 6, 3.0)
        assert rm.freeness_statistic(a, b) == pytest.approx(
            reference_freeness_statistic(a, b), rel=1e-12, abs=0)

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_trace_product(self, seed, n):
        rng = np.random.default_rng(seed)
        a, b = random_complex(rng, n), random_complex(rng, n)
        scale = np.abs(a).sum() * np.abs(b).sum() / n
        assert abs(rm.trace_product(a, b)
                   - rm.trace_state(a @ b)) <= 1e-13 * scale
