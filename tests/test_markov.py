import bisect
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncprob import markov as mk
from ncprob import measures as ms


def basketball():
    # states (P1, P2, S, L); column k holds the law of the next state
    p = mk.TransitionMatrix(np.array([
        [0.0, 0.1, 0.0, 0.0],
        [0.6, 0.0, 0.0, 0.0],
        [0.2, 0.8, 1.0, 0.0],
        [0.2, 0.1, 0.0, 1.0],
    ]))
    rewards = np.array([0.0, 0.0, 1.0, -1.0])
    return p, rewards


def random_ergodic(seed, n=4):
    rng = np.random.default_rng(seed)
    p = rng.random((n, n)) + 0.05
    return mk.TransitionMatrix(p / p.sum(axis=0))


class TestTransitionMatrix:
    def test_column_sums_enforced(self):
        with pytest.raises(ms.NcprobError, match="columns must sum to 1"):
            mk.TransitionMatrix([[0.5, 0.0], [0.4, 1.0]])

    @pytest.mark.parametrize("p, message", [
        ([[math.nan, 0.5], [0.5, 0.5]], "entries must lie in"),
        ([[1.0, 0.5], [math.nan, 0.5]], "entries must lie in"),
        ([[1.5, 0.5], [-0.5, 0.5]], "entries must lie in"),
        ([[0.5, 0.5], [0.2, 0.2]], "columns must sum to 1"),
        (np.zeros((0, 0)), "at least one state"),
    ])
    def test_bad_entries_refused(self, p, message):
        # NaN fails every comparison, so it must fail the checks too
        with pytest.raises(ms.NcprobError, match=message):
            mk.TransitionMatrix(p)

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
        with pytest.raises(ms.NcprobError, match="chain is not irreducible"):
            mk.stationary_distribution(p2)

    def test_hitting_time_identity(self):
        p = random_ergodic(42)
        pi = mk.stationary_distribution(p)
        mean, se, _ = mk.hitting_time_mc(p, 0, 100_000, seed=11)
        assert abs(mean - 1 / pi[0]) < 3 * se

    def test_transient_state_raises(self):
        p = np.array([[0.5, 0.0], [0.5, 1.0]])
        with pytest.raises(ms.NcprobError, match="transient"):
            mk.hitting_time_mc(p, 0, 10, seed=1)
        # the absorbing state returns at every step
        assert mk.hitting_time_mc(p, 1, 10, seed=1) == (1.0, 0.0, 10)

    @pytest.mark.parametrize("state", [-1, 2])
    def test_state_out_of_range_raises(self, state):
        p = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ms.NcprobError, match="not one of the chain's"):
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
            with pytest.raises(ms.NcprobError, match="transient"):
                mk.hitting_time_mc(p, state, episodes, seed, chunk=chunk)
            return
        got = mk.hitting_time_mc(p, state, episodes, seed, chunk=chunk)
        want = reference_hitting(p, state, episodes, seed, chunk)
        assert got == want and got[2] == episodes

    def test_hitting_matches_reference_across_blocks(self):
        # mean return time 100: 300 episodes cross 5000-uniform blocks
        p = np.array([[0.01, 0.01], [0.99, 0.99]])
        got = mk.hitting_time_mc(p, 0, 300, seed=7, chunk=5000)
        assert got == reference_hitting(p, 0, 300, 7, 5000)

    def test_chunk_leaves_output_unchanged(self):
        # the uniforms are one stream however the blocks split it
        p = random_ergodic(5)
        runs = {chunk: mk.hitting_time_mc(p, 1, 500, seed=3, chunk=chunk)
                for chunk in (1, 7, 4096, 5000, 1 << 20)}
        assert len(set(runs.values())) == 1
        assert runs[4096] == mk.hitting_time_mc(p, 1, 500, seed=3)

    def test_large_chain_bisects_like_reference(self):
        # 41 states give a table of more than 2**16 entries, so the walk
        # bisects each column instead
        p = random_ergodic(3, n=41).p
        got = mk.hitting_time_mc(p, 2, 200, seed=8, chunk=3000)
        assert got == reference_hitting(p, 2, 200, 8, 3000)

    def test_return_table_ranks_at_ties(self):
        # zeros repeat cumulative sums within a column and 0.5 recurs
        # across columns
        p = np.array([[0.5, 0.0, 0.25, 0.5],
                      [0.0, 0.5, 0.25, 0.0],
                      [0.0, 0.25, 0.0, 0.5],
                      [0.5, 0.25, 0.5, 0.0]])
        cols = np.cumsum(p, axis=0)[:-1].T.tolist()
        rank, nxt = mk._return_table(cols)
        for u in tie_points([0.0, 0.25, 0.5, 0.75, 1.0]):
            r = int(rank(np.array([u]))[0])
            assert [row[r] for row in nxt] == [
                bisect.bisect_left(col, u) for col in cols]

    @pytest.mark.parametrize("p, message", [
        ([[0.5, 0.5], [0.2, 0.2]], "columns must sum to 1"),
        ([[math.nan, 0.5], [0.5, 0.5]], "entries must lie in"),
    ])
    def test_non_stochastic_array_refused(self, p, message):
        with pytest.raises(ms.NcprobError, match=message):
            mk.hitting_time_mc(np.array(p), 0, 100, seed=1)

    def test_array_and_matrix_agree(self):
        p = random_ergodic(5)
        assert (mk.hitting_time_mc(p.p, 1, 500, seed=3)
                == mk.hitting_time_mc(p, 1, 500, seed=3))

    @pytest.mark.parametrize("episodes", [0, -1])
    def test_nonpositive_episodes_raises(self, episodes):
        p = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ms.NcprobError,
                           match="episodes must be >= 1 and an int"):
            mk.hitting_time_mc(p, 0, episodes, seed=4)

    @pytest.mark.parametrize("episodes", [1.5, 2.0, "3"])
    def test_non_int_episodes_refused(self, episodes):
        p = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ms.NcprobError, match=">= 1 and an int"):
            mk.hitting_time_mc(p, 0, episodes, seed=4)

    def test_bool_episodes_refused_numpy_int_taken(self):
        p = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ms.NcprobError, match=">= 1 and an int"):
            mk.hitting_time_mc(p, 0, True, seed=4)
        assert (mk.hitting_time_mc(p, 0, np.int64(3), seed=4)
                == mk.hitting_time_mc(p, 0, 3, seed=4))


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
        with pytest.raises(ms.NoConvergence, match="Bellman residual"):
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

    @pytest.mark.parametrize("column, message", [
        ([math.nan, 1.0], "entries must lie in"),
        ([1.5, -0.5], "entries must lie in"),
        ([0.5, 0.2], "must be stochastic"),
    ])
    def test_bad_entries_refused(self, column, message):
        t = self._toy().transitions.copy()
        t[:, 1, 0] = column
        with pytest.raises(ms.NcprobError, match=message):
            mk.MDPSpec(t, [0.0, 1.0], 0.5)

    def test_values_past_float_range_refused(self):
        # v* = 1e308 / (1 - 0.99) is past the largest float
        spec = mk.MDPSpec([[[1.0]]], [1e308], 0.99)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ms.NoConvergence,
                               match="left the float range at sweep 2"):
                mk.mdp_value_iteration(spec)

    def test_dominated_action_never_chosen(self):
        spec = self._toy()
        _, policy = mk.mdp_value_iteration(spec, tol=1e-12)
        assert np.all(policy == 1)

    def test_policy_evaluation_crosscheck(self):
        spec = self._toy(0.9)
        tol = 1e-11
        v, policy = mk.mdp_value_iteration(spec, tol=tol)
        chain = mk.TransitionMatrix(
            spec.transitions[:, np.arange(spec.n_states), policy])
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


def tie_points(levels):
    """Each level and its float neighbours on either side."""
    levels = np.asarray(levels)
    return np.concatenate([np.nextafter(levels, -np.inf), levels,
                           np.nextafter(levels, np.inf)]).tolist()


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


def reference_ising_run(spins, beta, coupling, field, sites, urand):
    """Scalar reference for the single-flip chain: consumes one block of
    proposals in place on a free-boundary lattice; returns the accepted
    count."""
    h, w = spins.shape
    accepted = 0
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
            accepted += 1
    return accepted


def reference_ising(state, steps, seed, block):
    """``metropolis_ising``'s final spins by ``reference_ising_run``,
    drawing sites, then uniforms, for each block of ``block``
    proposals."""
    spins = state.spins.copy()
    rng = np.random.default_rng(seed)
    left = steps
    while left > 0:
        k = min(block, left)
        sites = rng.integers(0, spins.size, size=k)
        u = rng.random(k)
        reference_ising_run(spins, state.beta, state.coupling, state.field,
                            sites, u)
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
                        block):
    """``metropolis_histogram`` driven by ``reference_run_hist``, drawing
    sites, then uniforms, for each block of ``block`` proposals."""
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
            k = min(block, left)
            sites = rng.integers(0, m, size=k)
            u = rng.random(k)
            config = reference_run_hist(spins, beta, coupling, field, sites,
                                        u, hist, config)
            left -= k
    return hist


class TestIsing:
    def test_zero_temperature_alignment(self):
        st0 = mk.IsingState(np.ones((6, 6)), beta=60.0, field=0.3)
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

    def test_exact_zero_temperature(self):
        # beta = inf: the law is uniform on the ground states, with no NaN
        # from inf * 0 at them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, measure = mk.exact_boltzmann((2, 2), math.inf, field=0.5)
            assert measure.atoms == ((15, 1.0),)
            probs, _ = mk.exact_boltzmann((1, 2), math.inf)
            assert probs.tolist() == [0.5, 0.0, 0.0, 0.5]
            assert mk.detailed_balance_audit((2, 2), math.inf) == (True, 0.0)

    def test_enumeration_guard(self):
        with pytest.raises(ms.NcprobError,
                           match="exact enumeration limited to 20 spins"):
            mk.exact_boltzmann((5, 5), beta=1.0)

    def test_integer_coupling_matches_float(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            runs = [mk.metropolis_ising(
                mk.IsingState(np.ones((4, 4)), beta=1.0, coupling=j),
                2000, seed=1) for j in (100, 100.0)]
        assert np.array_equal(runs[0].spins, runs[1].spins)
        assert mk.magnetization(runs[0]) == 1.0

    @pytest.mark.parametrize("sampler", [
        lambda: mk.hitting_time_mc(np.array([[0.5, 0.5], [0.5, 0.5]]), 0,
                                   10, seed=1, chunk=0),
    ], ids=["hitting"])
    def test_nonpositive_chunk_raises(self, sampler):
        with pytest.raises(ms.NcprobError, match="chunk must be >= 1 and an "
                                                 "int, got 0"):
            sampler()

    def test_negative_steps_rejected(self):
        state = mk.IsingState(np.ones((2, 2)))
        with pytest.raises(ms.NcprobError, match="steps must be >= 0"):
            mk.metropolis_ising(state, -5, seed=1)
        assert np.array_equal(mk.metropolis_ising(state, 0, seed=1).spins,
                              state.spins)

    @pytest.mark.parametrize("steps", [1.5, 0.5, True, "3"])
    def test_non_int_steps_rejected(self, steps):
        state = mk.IsingState.random((4, 4), seed=2)
        with pytest.raises(ms.NcprobError, match="steps must be >= 0 and an "
                                                 "int"):
            mk.metropolis_ising(state, steps, seed=1)

    def test_numpy_int_steps_taken(self):
        state = mk.IsingState.random((4, 4), seed=2)
        assert np.array_equal(
            mk.metropolis_ising(state, np.int64(20), seed=1).spins,
            mk.metropolis_ising(state, 20, seed=1).spins)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (4,)])
    def test_empty_or_flat_lattice_rejected(self, shape):
        with pytest.raises(ms.NcprobError, match="non-empty 2-d grid"):
            mk.IsingState.random(shape, seed=1)

    @pytest.mark.parametrize("params", [
        {"beta": math.nan}, {"beta": 0.0}, {"beta": -1.0},
        {"coupling": math.nan}, {"coupling": math.inf}, {"coupling": 0.0},
        {"field": math.nan}, {"field": math.inf}, {"field": -0.5},
    ])
    def test_bad_parameters_rejected(self, params):
        with pytest.raises(ms.NcprobError,
                           match="need 0 < J < inf, 0 <= B < inf, beta > 0"):
            mk.IsingState(np.ones((2, 2)), **params)

    def test_zero_temperature_runs(self):
        # beta = inf accepts only moves that do not raise the energy
        state = mk.IsingState.random((4, 4), seed=2, beta=math.inf)
        out = mk.metropolis_ising(state, 1000, seed=1)
        assert mk.ising_energy(out) < mk.ising_energy(state)

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
           beta=st.floats(0.0, 60.0, exclude_min=True),
           coupling=st.one_of(st.integers(1, 5), st.floats(0.01, 3.0)),
           field=st.one_of(st.just(0), st.floats(0.0, 2.0)),
           steps=st.integers(0, 9000), block=st.integers(1, 10_000),
           seed=st.integers(0, 2**32 - 1))
    @example(h=6, w=7, beta=0.44, coupling=1, field=0,
             steps=9000, block=5000, seed=0)
    @example(h=1, w=1, beta=60.0, coupling=2.0, field=0.5,
             steps=100, block=7, seed=1)
    def test_ising_matches_reference(self, h, w, beta, coupling, field,
                                     steps, block, seed):
        state = mk.IsingState.random(
            (h, w), seed=seed, beta=beta, coupling=coupling, field=field)
        with mock.patch.object(mk, "_BLOCK", block):
            got = mk.metropolis_ising(state, steps, seed)
        want = reference_ising(state, steps, seed, block)
        assert got.spins.dtype == want.dtype
        assert np.array_equal(got.spins, want)

    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from([(h, w) for h in range(1, 13)
                                  for w in range(1, 13) if h * w <= 12]),
           beta=st.floats(0.0, 60.0), coupling=st.floats(0.01, 3.0),
           field=st.floats(0.0, 2.0), burn_in=st.integers(0, 300),
           samples=st.integers(1, 9000), block=st.integers(1, 10_000),
           seed=st.integers(0, 2**32 - 1))
    @example(shape=(1, 1), beta=0.5, coupling=1.0, field=0.3, burn_in=0,
             samples=100, block=7, seed=0)
    @example(shape=(1, 3), beta=60.0, coupling=2.0, field=0.0, burn_in=40,
             samples=120, block=40, seed=1)
    @example(shape=(3, 3), beta=0.3, coupling=1.0, field=0.0, burn_in=0,
             samples=9000, block=9000, seed=2)
    @example(shape=(3, 3), beta=1.0, coupling=0.5, field=1.0, burn_in=250,
             samples=8193, block=1000, seed=3)
    @example(shape=(3, 4), beta=0.4, coupling=1.0, field=0.7, burn_in=300,
             samples=9000, block=4097, seed=4)
    @example(shape=(2, 6), beta=2.0, coupling=0.3, field=0.2, burn_in=0,
             samples=5000, block=5000, seed=5)
    @example(shape=(1, 12), beta=0.1, coupling=1.5, field=1.0, burn_in=100,
             samples=9000, block=333, seed=6)
    def test_histogram_matches_reference(self, shape, beta, coupling, field,
                                         burn_in, samples, block, seed):
        args = (shape, beta, coupling, field, burn_in, samples, seed)
        with mock.patch.object(mk, "_BLOCK", block):
            got = mk.metropolis_histogram(*args)
        want = reference_histogram(*args, block=block)
        assert got.sum() == samples
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape, message", [
        ((1, 13), "histogram limited to 12 spins"),
        ((0, 3), "lattice shape must be positive"),
    ])
    def test_histogram_lattice_refused(self, shape, message):
        with pytest.raises(ms.NcprobError, match=message):
            mk.metropolis_histogram(shape, 0.4, 1.0, 0.0, 0, 10, seed=1)

    @pytest.mark.parametrize("beta, coupling, field", [
        (math.nan, 1.0, 0.0), (-3.0, 1.0, -1.0), (-1.0, 1.0, 0.0),
        (0.4, 1.0, -1.0), (0.4, 1.0, math.nan), (0.4, 1.0, math.inf),
        (0.4, math.nan, 0.0), (0.4, 0.0, 0.0), (0.4, math.inf, 0.0),
    ])
    def test_histogram_bad_parameters_rejected(self, beta, coupling, field):
        with pytest.raises(ms.NcprobError,
                           match="need 0 < J < inf, 0 <= B < inf, beta >= 0"):
            mk.metropolis_histogram((2, 2), beta, coupling, field, 0, 10,
                                    seed=1)

    def test_histogram_temperature_limits_run(self):
        # beta = 0 accepts every flip; beta = inf none that raises the
        # energy, so at B > 0 the all-up start never moves
        args = ((2, 2), 0.0, 1.0, 0.5, 10, 1000, 1)
        assert np.array_equal(mk.metropolis_histogram(*args),
                              reference_histogram(*args, block=mk._BLOCK))
        cold = mk.metropolis_histogram((2, 2), math.inf, 1.0, 0.5, 10, 1000,
                                       seed=1)
        assert cold[-1] == 1000

    def test_histogram_table_memory(self):
        tracemalloc.start()
        try:
            mk.metropolis_histogram((3, 4), 0.4, 1.0, 0.7, 0, 10_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20

    @pytest.mark.parametrize("shape, beta, coupling, field", [
        ((2, 2), 0.4, 1.0, 0.7), ((1, 3), 1.0, 0.5, 0.0),
        ((2, 3), 0.0, 1.0, 0.3), ((2, 2), math.inf, 1.0, 0.5),
    ])
    def test_flip_table_ranks_at_ties(self, shape, beta, coupling, field):
        h, w = shape
        m = h * w
        rank, nxt = mk._flip_table(shape, beta, coupling, field)
        table = mk._acceptance_table(beta, coupling, field)
        thr = {}
        for c in range(1 << m):
            spins = np.pad((c >> np.arange(m) & 1).reshape(h, w) * 2 - 1, 1)
            for i in range(m):
                y, x = divmod(i, w)
                nb = (spins[y, x + 1] + spins[y + 2, x + 1]
                      + spins[y + 1, x] + spins[y + 1, x + 2])
                thr[c, i] = table[5 * spins[y + 1, x + 1] + nb]
        us = tie_points(sorted(set(thr.values())))
        for (c, i), t in thr.items():
            for u, r in zip(us, rank(np.array(us)).tolist()):
                assert nxt[c][r * m + i] == (c ^ 1 << i if u < t else c)


class TestWorkingSet:
    """Each sampler holds one block of draws: its traced peak does not
    grow with its step or episode count."""

    @pytest.mark.parametrize("run, count, bound_mb", [
        # criterion 10's chain: about 4e5 uniforms
        (lambda n: mk.hitting_time_mc(random_ergodic(3), 0, n, seed=11),
         100_000, 1),
        # tracemalloc slows the walk to about 20 us a step; 5e4 steps'
        # draws, all at once, would take 0.8 MB
        (lambda n: mk.metropolis_ising(
            mk.IsingState.random((64, 64), seed=1, beta=0.44), n, seed=2),
         50_000, 1),
        (lambda n: mk.metropolis_histogram((3, 3), 0.3, 1.0, 0.0, 20_000, n,
                                           seed=5), 200_000, 2),
    ], ids=["hitting", "ising", "histogram"])
    def test_peak_bounded(self, run, count, bound_mb):
        run(10)  # lazy imports and first-call set-up happen untraced
        tracemalloc.start()
        try:
            run(count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 2**20


def reference_lerw(width, steps_cap, seed):
    """``lerw`` with one scalar draw per step."""
    rng = np.random.default_rng(seed)
    pos = (0, 0)
    path = [pos]
    for _ in range(int(steps_cap)):
        dx, dy = ((1, 0), (-1, 0), (0, 1), (0, -1))[rng.integers(0, 4)]
        pos = (pos[0] + dx, pos[1] + dy)
        path.append(pos)
        if abs(pos[0]) > width or abs(pos[1]) > width:
            return mk.loop_erase(path), path
    raise ms.NcprobError(f"walk did not exit within {steps_cap} steps")


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
        with pytest.raises(ms.NcprobError,
                           match="walk did not exit within 100 steps"):
            mk.lerw(10**6, 100, seed=1)

    @settings(max_examples=30, deadline=None)
    @given(width=st.integers(0, 60), seed=st.integers(0, 2**32 - 1))
    @example(width=100, seed=0)  # exits after several 4096-step blocks
    def test_lerw_matches_scalar_draws(self, width, seed):
        assert mk.lerw(width, 10**6, seed) == reference_lerw(width, 10**6,
                                                             seed)

    @pytest.mark.parametrize("cap", [0, 1, 4096, 5000])
    def test_cap_matches_scalar_draws(self, cap):
        # width 100 takes more than 5000 steps on seed 2
        assert reference_lerw(100, 10**6, 2)[1][5001:]
        for walk in (mk.lerw, reference_lerw):
            with pytest.raises(ms.NcprobError,
                               match=f"did not exit within {cap} steps"):
                walk(100, cap, 2)

    def test_exit_on_the_last_allowed_step(self):
        want = reference_lerw(100, 10**6, 0)
        steps = len(want[1]) - 1  # more than two 4096-step blocks
        assert steps > 2 * 4096
        assert mk.lerw(100, steps, 0) == want
        with pytest.raises(ms.NcprobError,
                           match=f"did not exit within {steps - 1} steps"):
            mk.lerw(100, steps - 1, 0)
        # width 0: the first step exits, and a cap of 1 allows it
        assert mk.lerw(0, 1, 1) == reference_lerw(0, 1, 1)

    def test_negative_width_rejected(self):
        with pytest.raises(ms.NcprobError, match="width must be >= 0"):
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
