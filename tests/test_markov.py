import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncprob import markov as mk
from ncprob import measures as ms
from ncprob import transforms as tr


def basketball():
    # states (P1, P2, S, L); column k holds the law of the next state
    p = mk.TransitionMatrix(np.array([
        [0.0, 0.1, 0.0, 0.0],
        [0.6, 0.0, 0.0, 0.0],
        [0.2, 0.8, 1.0, 0.0],
        [0.2, 0.1, 0.0, 1.0],
    ]), labels=("P1", "P2", "S", "L"))
    rewards = np.array([0.0, 0.0, 1.0, -1.0])
    return p, rewards


def random_ergodic(seed, n=4):
    rng = np.random.default_rng(seed)
    p = rng.random((n, n)) + 0.05
    return mk.TransitionMatrix(p / p.sum(axis=0))


class TestTransitionMatrix:
    def test_column_sums_enforced(self):
        with pytest.raises(mk.MarkovError):
            mk.TransitionMatrix([[0.5, 0.0], [0.4, 1.0]])

    def test_products_stay_stochastic(self):
        p = random_ergodic(1).p
        q = random_ergodic(2).p
        prod = np.linalg.matrix_power(p, 3) @ np.linalg.matrix_power(q, 2)
        assert np.abs(prod.sum(axis=0) - 1).max() < 1e-12


class TestStationary:
    def test_doubly_stochastic_uniform(self):
        p = np.array([[0.2, 0.5, 0.3], [0.3, 0.2, 0.5], [0.5, 0.3, 0.2]])
        pi = mk.stationary_distribution(mk.TransitionMatrix(p))
        assert np.abs(pi - 1 / 3).max() < 1e-12

    def test_detailed_balance_gives_stationary(self):
        rng = np.random.default_rng(5)
        v = rng.random(4) + 0.1
        v /= v.sum()
        # build a reversible chain w.r.t. v
        w = rng.random((4, 4))
        w = w + w.T
        p = np.zeros((4, 4))
        for k in range(4):
            for j in range(4):
                if j != k:
                    p[j, k] = min(1.0, v[j] / v[k]) * w[j, k] / (4 * w.max())
            p[k, k] = 1 - p[:, k].sum()
        tm = mk.TransitionMatrix(p)
        assert np.abs(p * v[None, :] - p.T * v[:, None]).max() < 1e-12
        pi = mk.stationary_distribution(tm)
        assert np.abs(pi - v).max() < 1e-10

    def test_not_irreducible_raises(self):
        p2 = mk.TransitionMatrix([[0.5, 0.0], [0.5, 1.0]])
        with pytest.raises(mk.NotIrreducible):
            mk.stationary_distribution(p2)

    def test_hitting_time_identity(self):
        p = random_ergodic(42)
        pi = mk.stationary_distribution(p)
        mean, se, _ = mk.hitting_time_mc(p, 0, 100_000, seed=11)
        assert abs(mean - 1 / pi[0]) < 3 * se

    def test_transient_state_raises(self):
        p = np.array([[0.5, 0.0], [0.5, 1.0]])
        with pytest.raises(mk.NotIrreducible, match="transient"):
            mk.hitting_time_mc(p, 0, 10, seed=1)
        # the absorbing state returns at every step
        assert mk.hitting_time_mc(p, 1, 10, seed=1) == (1.0, 0.0, 10)

    @pytest.mark.parametrize("state", [-1, 2])
    def test_state_out_of_range_raises(self, state):
        p = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(mk.MarkovError, match="not one of the chain's"):
            mk.hitting_time_mc(p, state, 10, seed=1)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 5), episodes=st.integers(1, 300),
           chunk=st.integers(1, 5000), sparsity=st.sampled_from([0.0, 0.4]),
           seed=st.integers(0, 2**32 - 1))
    @example(n=2, episodes=300, chunk=4097, sparsity=0.0, seed=0)
    @example(n=5, episodes=300, chunk=1, sparsity=0.4, seed=1)
    def test_hitting_matches_reference(self, n, episodes, chunk, sparsity,
                                       seed):
        rng = np.random.default_rng(seed)
        p = rng.random((n, n)) * (rng.random((n, n)) >= sparsity)
        p[rng.integers(0, n, n), np.arange(n)] += 0.1  # no empty column
        p /= p.sum(axis=0)
        state = int(rng.integers(0, n))
        if not returns_surely(p, state):
            with pytest.raises(mk.NotIrreducible):
                mk.hitting_time_mc(p, state, episodes, seed, chunk=chunk)
            return
        got = mk.hitting_time_mc(p, state, episodes, seed, chunk=chunk)
        want = reference_hitting(p, state, episodes, seed, chunk)
        assert got == want and got[2] == episodes

    def test_hitting_matches_reference_across_blocks(self):
        # mean return time 100: 300 episodes cross 4096-uniform blocks and
        # 5000-uniform chunks
        p = np.array([[0.01, 0.01], [0.99, 0.99]])
        got = mk.hitting_time_mc(p, 0, 300, seed=7, chunk=5000)
        assert got == reference_hitting(p, 0, 300, 7, 5000)

    @pytest.mark.parametrize("episodes", [0, -1])
    def test_nonpositive_episodes_raises(self, episodes):
        p = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(mk.MarkovError, match="episodes must be positive"):
            mk.hitting_time_mc(p, 0, episodes, seed=4)


class TestIrreducibilityPeriod:
    def test_two_cycle(self):
        p1 = mk.TransitionMatrix([[0.0, 1.0], [1.0, 0.0]])
        assert mk.is_irreducible(p1)
        assert mk.period(p1, 0) == 2

    def test_absorbing(self):
        p2 = mk.TransitionMatrix([[0.5, 0.0], [0.5, 1.0]])
        assert not mk.is_irreducible(p2)

    def test_identity_not_irreducible(self):
        assert not mk.is_irreducible(mk.TransitionMatrix(np.eye(2)))

    def test_aperiodic(self):
        assert mk.period(random_ergodic(3), 0) == 1

    @given(n=st.integers(1, 8),
           density=st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.9, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    @example(n=1, density=0.0, seed=0)
    @example(n=1, density=1.0, seed=0)
    @settings(max_examples=300, deadline=None)
    def test_matches_strong_components(self, n, density, seed):
        import scipy.sparse as sp
        import scipy.sparse.csgraph as csgraph

        support = np.random.default_rng(seed).random((n, n)) < density
        ncomp, _ = csgraph.connected_components(
            sp.csr_matrix(support), directed=True, connection="strong")
        assert mk.is_irreducible(support.astype(float)) == (ncomp == 1)

    def test_empty_chain_not_irreducible(self):
        assert mk.is_irreducible(np.zeros((0, 0))) is False


class TestConvergence:
    def test_stationary_start_is_fixed(self):
        p = random_ergodic(7)
        pi = mk.stationary_distribution(p)
        assert np.abs(mk.iterate_distribution(p, pi, 5) - pi).max() < 1e-12

    def test_one_step_mixing(self):
        p3 = mk.TransitionMatrix([[0.5, 0.5], [0.5, 0.5]])
        v = np.array([1.0, 0.0])
        out = mk.iterate_distribution(p3, v, 1)
        assert np.abs(out - 0.5).max() < 1e-15

    def test_rate_matches_second_eigenvalue(self):
        p = random_ergodic(13)
        _, theta, _ = mk.convergence_report(p, np.eye(4)[0])
        lam2 = np.sort(np.abs(np.linalg.eigvals(p.p)))[-2]
        assert theta < 1
        assert abs(theta - lam2) < 0.05


class TestMRP:
    def test_expected_rewards(self):
        p, r = basketball()
        assert np.abs(mk.expected_reward(p, r)
                      - np.array([0.0, 0.7, 1.0, -1.0])).max() < 1e-12

    def test_gamma_zero(self):
        p, r = basketball()
        v = mk.mrp_value(p, r, 0.0)
        assert np.abs(v - np.array([0.0, 0.7, 1.0, -1.0])).max() < 1e-12

    def test_discounted_reference_values(self):
        p, r = basketball()
        v05 = mk.mrp_value(p, r, 0.5)
        assert np.abs(v05 - np.array([0.43, 1.42, 2.0, -2.0])).max() <= 0.01
        v09 = mk.mrp_value(p, r, 0.9)
        assert np.abs(v09 - np.array([3.97, 7.36, 10.0, -10.0])).max() <= 0.01

    def test_residual(self):
        p = random_ergodic(21)
        r = np.array([1.0, -0.5, 2.0, 0.0])
        v = mk.mrp_value(p, r, 0.95)
        resid = v - (mk.expected_reward(p, r) + 0.95 * v @ p.p)
        assert np.abs(resid).max() < 1e-10

    def test_bad_solve_raises(self, monkeypatch):
        p, r = basketball()
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: np.zeros_like(b))
        with pytest.raises(mk.NotConverged, match="Bellman residual"):
            mk.mrp_value(p, r, 0.5)


class TestMDP:
    def _toy(self, gamma=0.8):
        # two states, two actions; action 1 dominates action 0 pointwise
        t = np.zeros((2, 2, 2))
        t[:, 0, 0] = [0.9, 0.1]
        t[:, 0, 1] = [0.2, 0.8]
        t[:, 1, 0] = [0.8, 0.2]
        t[:, 1, 1] = [0.1, 0.9]
        r = np.array([0.0, 1.0])
        return mk.MDPSpec(t, r, gamma)

    def test_single_action_equals_mrp(self):
        p, r = basketball()
        t = p.p[:, :, None]
        spec = mk.MDPSpec(t, r, 0.5)
        v, policy = mk.mdp_value_iteration(spec, tol=1e-12)
        assert np.abs(v - mk.mrp_value(p, r, 0.5)).max() < 1e-9
        assert np.all(policy == 0)

    def test_dominated_action_never_chosen(self):
        spec = self._toy()
        _, policy = mk.mdp_value_iteration(spec, tol=1e-12)
        assert np.all(policy == 1)

    def test_policy_evaluation_crosscheck(self):
        spec = self._toy(0.9)
        tol = 1e-11
        v, policy = mk.mdp_value_iteration(spec, tol=tol)
        chain = mk.mdp_policy_chain(spec, policy)
        v_eval = mk.mrp_value(chain, spec.rewards, spec.gamma)
        assert np.abs(v - v_eval).max() < 10 * tol

    def test_contraction(self):
        spec = self._toy(0.7)
        t = spec.transitions
        rsa = np.einsum("psa,p->sa", t, spec.rewards)
        v = np.zeros(2)
        prev_step = None
        for _ in range(30):
            vnew = (rsa + spec.gamma * np.einsum("psa,p->sa", t, v)).max(axis=1)
            step = np.abs(vnew - v).max()
            if prev_step is not None and prev_step > 1e-14:
                assert step <= spec.gamma * prev_step + 1e-9
            prev_step = step
            v = vnew


class TestChannels:
    def test_classical_embedding(self):
        p = random_ergodic(6)
        chan = mk.kraus_from_transition(p)
        v = np.array([0.4, 0.3, 0.2, 0.1])
        rho = np.diag(v).astype(complex)
        for n in range(1, 4):
            rho = mk.channel_apply(chan, rho)
            v = p.p @ v
            assert np.abs(np.diag(rho).real - v).max() < 1e-12

    def test_identity_channel(self):
        chan = mk.KrausChannel((np.eye(3),))
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        assert np.abs(chan(rho) - rho).max() == 0

    def test_trace_and_positivity_preserved(self):
        p = random_ergodic(8)
        chan = mk.kraus_from_transition(p)
        rng = np.random.default_rng(0)
        a = rng.random((4, 4)) + 1j * rng.random((4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        out = mk.channel_apply(chan, rho)
        assert abs(np.trace(out).real - 1) < 1e-12
        assert np.linalg.eigvalsh(out).min() > -1e-9

    def test_depolarizing_fixed_point_multistart(self):
        n = 3
        lam = 0.6
        ops = [math.sqrt(1 - lam) * np.eye(n)]
        # Heisenberg-Weyl displacements give a depolarizing-style channel
        shift = np.roll(np.eye(n), 1, axis=0)
        clock = np.diag(np.exp(2j * math.pi * np.arange(n) / n))
        for a in range(n):
            for b in range(n):
                if a == b == 0:
                    continue
                u = np.linalg.matrix_power(shift, a) @ \
                    np.linalg.matrix_power(clock, b)
                ops.append(math.sqrt(lam / (n * n - 1)) * u)
        chan = mk.KrausChannel(tuple(ops))
        tol = 1e-12
        fixed = []
        rng = np.random.default_rng(1)
        for _ in range(5):
            a = rng.random((n, n)) + 1j * rng.random((n, n))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            fixed.append(mk.channel_fixed_point(chan, rho, tol=tol))
        for r in fixed[1:]:
            dist = np.abs(np.linalg.eigvalsh(r - fixed[0])).sum()
            assert dist <= 10 * tol

    def test_kraus_condition_enforced(self):
        with pytest.raises(mk.MarkovError):
            mk.KrausChannel((0.5 * np.eye(2),))


def reference_return_times(cum, start, urand, state, steps, done, total,
                           totalsq):
    """Scalar reference for first-return times to ``start``: one uniform
    per transition, a linear scan of ``cum[:, s]``, the cumulative
    next-state law from s.  Carries (state, steps) across calls."""
    n = cum.shape[0]
    for m in range(urand.shape[0]):
        u = urand[m]
        nxt = 0
        col = cum[:, state]
        for i in range(n):
            if u <= col[i]:
                nxt = i
                break
            nxt = i
        state = nxt
        steps += 1
        if state == start:
            done += 1
            total += steps
            totalsq += steps * steps
            steps = 0
    return state, steps, done, total, totalsq


def reference_hitting(p, state, episodes, seed, chunk):
    """``hitting_time_mc`` driven by ``reference_return_times`` on the same
    uniforms, one at a time, stopped at the ``episodes``-th return."""
    cum = np.cumsum(p, axis=0)
    rng = np.random.default_rng(seed)
    carry = (state, 0, 0, 0, 0)
    while True:
        for u in np.split(rng.random(chunk), chunk):
            carry = reference_return_times(cum, state, u, *carry)
            done, total, totalsq = carry[2:]
            if done == episodes:
                mean = total / done
                var = totalsq / done - mean**2
                return mean, math.sqrt(max(var, 0.0) / done), done


def returns_surely(p, state):
    """Whether the chain started at ``state`` returns to it with
    probability 1: every state it can reach can reach it back."""
    n = p.shape[0]
    reach = np.linalg.matrix_power(np.eye(n) + (p > 0), n) > 0
    return bool(np.all(reach[state, reach[:, state]]))


def reference_ising_run(spins, frozen, beta, coupling, field, sites, urand):
    """Scalar reference for the single-flip chain: consumes one chunk of
    proposals in place on a free-boundary lattice; returns the accepted
    count."""
    h, w = spins.shape
    accepted = 0
    for m in range(sites.shape[0]):
        idx = sites[m]
        i = idx // w
        jc = idx - i * w
        if frozen[i, jc]:
            continue
        s = spins[i, jc]
        nb = 0
        if i > 0:
            nb += spins[i - 1, jc]
        if i < h - 1:
            nb += spins[i + 1, jc]
        if jc > 0:
            nb += spins[i, jc - 1]
        if jc < w - 1:
            nb += spins[i, jc + 1]
        delta = 2.0 * s * (coupling * nb + field)
        if delta <= 0.0 or urand[m] < np.exp(-beta * delta):
            spins[i, jc] = -s
            accepted += 1
    return accepted


def reference_ising(state, steps, seed, chunk):
    """``metropolis_ising``'s final spins by ``reference_ising_run``,
    drawing sites and uniforms in the same chunks and order."""
    spins = state.spins.copy()
    rng = np.random.default_rng(seed)
    left = steps
    while left > 0:
        k = min(chunk, left)
        sites = rng.integers(0, spins.size, size=k)
        u = rng.random(k)
        reference_ising_run(spins, state.frozen, state.beta, state.coupling,
                            state.field, sites, u)
        left -= k
    return spins


def reference_run_hist(spins, beta, coupling, field, sites, urand, hist,
                       config):
    """Scalar reference for the histogram chain: one proposal at a time,
    recording the visited configuration id (bit i set iff spin i is up)."""
    h, w = spins.shape
    for m in range(sites.shape[0]):
        idx = sites[m]
        i = idx // w
        jc = idx - i * w
        s = spins[i, jc]
        nb = 0
        if i > 0:
            nb += spins[i - 1, jc]
        if i < h - 1:
            nb += spins[i + 1, jc]
        if jc > 0:
            nb += spins[i, jc - 1]
        if jc < w - 1:
            nb += spins[i, jc + 1]
        delta = 2.0 * s * (coupling * nb + field)
        if delta <= 0.0 or urand[m] < np.exp(-beta * delta):
            spins[i, jc] = -s
            if s < 0:
                config += 1 << idx
            else:
                config -= 1 << idx
        hist[config] += 1
    return config


def reference_histogram(shape, beta, coupling, field, burn_in, samples, seed,
                        chunk):
    """``metropolis_histogram`` driven by ``reference_run_hist``, drawing
    sites and uniforms in the same chunks and order."""
    h, w = shape
    m = h * w
    rng = np.random.default_rng(seed)
    spins = np.ones((h, w), dtype=np.int8)
    config = (1 << m) - 1
    hist = np.zeros(1 << m, dtype=np.int64)
    for proposals in (burn_in, samples):
        hist[:] = 0
        left = proposals
        while left > 0:
            k = min(chunk, left)
            sites = rng.integers(0, m, size=k)
            u = rng.random(k)
            config = reference_run_hist(spins, beta, coupling, field, sites,
                                        u, hist, config)
            left -= k
    return hist


class TestIsing:
    def test_frozen_spins_never_flip(self):
        frozen = np.zeros((4, 4), dtype=np.uint8)
        frozen[0, :] = 1
        st0 = mk.IsingState.random((4, 4), seed=1, beta=0.1, frozen=frozen)
        out = mk.metropolis_ising(st0, 20_000, seed=2)
        assert np.array_equal(out.spins[0, :], st0.spins[0, :])

    def test_zero_temperature_alignment(self):
        st0 = mk.IsingState.aligned((6, 6), up=True, beta=60.0, field=0.3)
        out = mk.metropolis_ising(st0, 50_000, seed=3)
        assert np.all(out.spins == 1)
        assert mk.magnetization(out) == 1.0

    def test_energy_convention(self):
        spins = np.array([[1, 1], [1, 1]], dtype=np.int8)
        state = mk.IsingState(spins, coupling=1.0, field=0.5, beta=1.0)
        # 4 bonds on a 2x2 free-boundary lattice, 4 spins
        assert mk.ising_energy(state) == -4.0 - 0.5 * 4

    def test_detailed_balance_exact(self):
        ok, worst = mk.detailed_balance_audit((3, 3), beta=0.3)
        assert ok
        assert worst < 1e-13

    def test_detailed_balance_audit_catches_asymmetry(self, monkeypatch):
        exact = mk.metropolis_exact_kernel

        def skewed(*args):
            p, energy = exact(*args)
            q = p.p.copy()
            q[1, 0] *= 1 + 1e-9  # one flip's rate off, columns re-summed
            q[0, 0] = 1.0 - q[1:, 0].sum()
            return mk.TransitionMatrix(q), energy

        monkeypatch.setattr(mk, "metropolis_exact_kernel", skewed)
        ok, worst = mk.detailed_balance_audit((2, 2), beta=0.3)
        assert not ok
        assert 1e-10 < worst < 1e-8

    def test_exact_boltzmann_limits(self):
        probs, measure = mk.exact_boltzmann((2, 2), beta=100.0, field=0.5)
        assert probs.argmax() == 15  # all-up configuration dominates
        assert probs[15] > 0.999
        assert abs(measure.mass() - 1) < 1e-12

    def test_enumeration_guard(self):
        with pytest.raises(mk.EnumerationTooLarge):
            mk.exact_boltzmann((5, 5), beta=1.0)

    def test_integer_coupling_matches_float(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            runs = [mk.metropolis_ising(
                mk.IsingState.aligned((4, 4), beta=1.0, coupling=j),
                2000, seed=1) for j in (100, 100.0)]
        assert np.array_equal(runs[0].spins, runs[1].spins)
        assert mk.magnetization(runs[0]) == 1.0

    @pytest.mark.parametrize("sampler", [
        lambda: mk.metropolis_ising(mk.IsingState.aligned((2, 2)), 10,
                                    seed=1, chunk=0),
        lambda: mk.metropolis_histogram((2, 2), 0.4, 1.0, 0.0, 0, 10,
                                        seed=1, chunk=0),
        lambda: mk.hitting_time_mc(np.array([[0.5, 0.5], [0.5, 0.5]]), 0,
                                   10, seed=1, chunk=0),
    ], ids=["ising", "histogram", "hitting"])
    def test_nonpositive_chunk_raises(self, sampler):
        with pytest.raises(mk.MarkovError, match="chunk must be positive"):
            sampler()

    def test_negative_steps_rejected(self):
        state = mk.IsingState.aligned((2, 2))
        with pytest.raises(mk.MarkovError, match="steps must be >= 0"):
            mk.metropolis_ising(state, -5, seed=1)
        assert np.array_equal(mk.metropolis_ising(state, 0, seed=1).spins,
                              state.spins)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (4,)])
    def test_empty_or_flat_lattice_rejected(self, shape):
        with pytest.raises(mk.MarkovError, match="non-empty 2-d grid"):
            mk.IsingState.random(shape, seed=1)

    def test_metropolis_tv_against_exact(self):
        probs, _ = mk.exact_boltzmann((3, 3), beta=0.3)
        hist = mk.metropolis_histogram((3, 3), beta=0.3, coupling=1.0,
                                       field=0.0, burn_in=10**6,
                                       samples=10**7, seed=5)
        emp = hist / hist.sum()
        tv = 0.5 * np.abs(emp - probs).sum()
        assert tv <= 0.05

    @settings(max_examples=40, deadline=None)
    @given(h=st.integers(1, 6), w=st.integers(1, 7),
           frozen_frac=st.sampled_from([0.0, 0.3, 1.0]),
           beta=st.floats(0.0, 60.0, exclude_min=True),
           coupling=st.one_of(st.integers(1, 5), st.floats(0.01, 3.0)),
           field=st.one_of(st.just(0), st.floats(0.0, 2.0)),
           steps=st.integers(0, 9000), chunk=st.integers(1, 10_000),
           seed=st.integers(0, 2**32 - 1))
    @example(h=6, w=7, frozen_frac=0.3, beta=0.44, coupling=1, field=0,
             steps=9000, chunk=5000, seed=0)
    @example(h=1, w=1, frozen_frac=0.0, beta=60.0, coupling=2.0, field=0.5,
             steps=100, chunk=7, seed=1)
    def test_ising_matches_reference(self, h, w, frozen_frac, beta, coupling,
                                     field, steps, chunk, seed):
        rng = np.random.default_rng(seed)
        state = mk.IsingState.random(
            (h, w), seed=seed, beta=beta, coupling=coupling, field=field,
            frozen=rng.random((h, w)) < frozen_frac)
        got = mk.metropolis_ising(state, steps, seed, chunk=chunk)
        want = reference_ising(state, steps, seed, chunk)
        assert got.spins.dtype == want.dtype
        assert np.array_equal(got.spins, want)

    @settings(max_examples=40, deadline=None)
    @given(h=st.integers(1, 3), w=st.integers(1, 3),
           beta=st.floats(0.0, 60.0), coupling=st.floats(0.01, 3.0),
           field=st.floats(0.0, 2.0), burn_in=st.integers(0, 300),
           samples=st.integers(1, 9000), chunk=st.integers(1, 10_000),
           seed=st.integers(0, 2**32 - 1))
    @example(h=1, w=1, beta=0.5, coupling=1.0, field=0.3, burn_in=0,
             samples=100, chunk=7, seed=0)
    @example(h=1, w=3, beta=60.0, coupling=2.0, field=0.0, burn_in=40,
             samples=120, chunk=40, seed=1)
    @example(h=3, w=3, beta=0.3, coupling=1.0, field=0.0, burn_in=0,
             samples=9000, chunk=9000, seed=2)
    @example(h=3, w=3, beta=1.0, coupling=0.5, field=1.0, burn_in=250,
             samples=8193, chunk=1000, seed=3)
    def test_histogram_matches_reference(self, h, w, beta, coupling, field,
                                         burn_in, samples, chunk, seed):
        args = ((h, w), beta, coupling, field, burn_in, samples, seed)
        got = mk.metropolis_histogram(*args, chunk=chunk)
        want = reference_histogram(*args, chunk=chunk)
        assert got.sum() == samples
        assert np.array_equal(got, want)


class TestLERW:
    def test_simple_walk_unchanged(self):
        path = [(0, 0), (1, 0), (2, 0), (2, 1)]
        assert mk.loop_erase(path) == path

    def test_single_loop(self):
        assert mk.loop_erase([0, 1, 0, 1]) == [0, 1]

    def test_output_simple_and_subpath(self):
        erased, walk = mk.lerw(15, 10**6, seed=9)
        assert len(set(erased)) == len(erased)
        walkset = set(walk)
        assert all(v in walkset for v in erased)
        assert erased[0] == (0, 0)
        # consecutive vertices adjacent on the lattice
        for a, b in zip(erased, erased[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

    def test_cap_exceeded(self):
        with pytest.raises(mk.CapExceeded):
            mk.lerw(10**6, 100, seed=1)

    def test_negative_width_rejected(self):
        with pytest.raises(mk.MarkovError, match="width must be >= 0"):
            mk.lerw(-1, 100, seed=1)
        erased, walk = mk.lerw(0, 100, seed=1)  # the first step exits
        assert len(walk) == 2 and erased == walk

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=40))
    def test_loop_erase_properties(self, steps):
        path = [0]
        for s in steps:
            path.append(path[-1] + (1 if s >= 0 else -1))
        erased = mk.loop_erase(path)
        assert len(set(erased)) == len(erased)
        assert erased[0] == path[0] and erased[-1] == path[-1]


class TestHomogeneousKernel:
    def test_x_zero_recovers_mu(self):
        mu = ms.Semicircle(0, 1).to_measure()
        grid = np.linspace(-2.4, 2.4, 901)
        k = mk.homogeneous_kernel(mu, 0.0, grid)
        xs = np.linspace(-1.8, 1.8, 100)
        want = ms.Semicircle(0, 1).density_at(xs)
        assert np.abs(np.interp(xs, k.grid, k.density) - want).max() < 1e-3

    def test_dirac_translation(self):
        mu = ms.AtomicMeasure.dirac(0.75)
        k = mk.homogeneous_kernel(mu, 1.5, np.linspace(0, 4, 801))
        assert len(k.atoms) == 1
        a, w = k.atoms[0]
        assert abs(a - 2.25) < 1e-9 and abs(w - 1) < 1e-6

    def test_arcsine_translation_equivariance(self):
        mu = ms.Arcsine(0, 1).to_measure()
        grid = np.linspace(-1.8, 2.8, 1301)
        k = mk.homogeneous_kernel(mu, 1.0, grid,
                                  eps_ladder=(5e-3, 2.5e-3, 1.25e-3))
        assert abs(k.mass() - 1) < 1e-3
        assert abs(float(k.moments(1)[1]) - 1.0) < 1e-3

    def test_chapman_kolmogorov(self):
        # 1/(F_{mu rhd nu}(z) - x) = int 1/(F_nu(z) - y) k_mu(x, dy)
        mu = ms.AtomicMeasure(((-1.0, 0.5), (1.0, 0.5)))
        nu = ms.AtomicMeasure(((-0.5, 0.3), (0.8, 0.7)))
        x = 0.4
        grid = np.linspace(-4, 4, 1601)
        kernel = mk.homogeneous_kernel(mu, x, grid,
                                       eps_ladder=(2e-3, 1e-3, 5e-4))
        for z in (2j, 1 + 1j, -0.5 + 1.5j):
            w = tr.f_transform(nu, np.array([z]))[0]
            lhs = 1.0 / (tr.f_transform(mu, np.array([w]))[0] - x)
            rhs = tr.cauchy(kernel, np.array([w]))[0]
            assert abs(lhs - rhs) < 1e-3
