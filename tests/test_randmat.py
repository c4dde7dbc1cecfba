import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncprob import randmat as rm


# Reference implementations: the straightforward bodies that the library's
# randmat functions must reproduce (bytes for sampling, 1e-12 for traces).

def reference_sample_gue(n, rng):
    sd = math.sqrt(1.0 / (2 * n))
    z = rng.standard_normal((n, n)) * sd
    a = np.zeros((n, n), dtype=complex)
    iu = np.triu_indices(n, 1)
    a[iu] = z[iu] + 1j * z.T[iu]
    a = a + a.conj().T
    a[np.diag_indices(n)] = np.diag(z)
    return a


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
        # N=1: a single real Gaussian with variance 1/2
        vals = np.array([rm.sample_gue(1, seed=s)[0, 0].real
                         for s in range(10_000)])
        assert abs(vals.var() - 0.5) < 0.025

    def test_second_moment(self):
        phis = [rm.trace_state(rm.sample_gue(200, seed=s) @
                               rm.sample_gue(200, seed=s))
                for s in range(50)]
        assert abs(np.mean(phis) - 1.0) < 0.05

    def test_wigner_distance(self):
        dists = rm.wigner_check(1000, seeds=(7,))
        assert dists[0] <= 0.06


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
