"""Finite Markov chains and their quantum and statistical-physics kin.

Column-stochastic transition matrices (entry (j, k) is the probability of
moving to state j from state k), Markov reward processes and MDP value
iteration, quantum channels in Kraus form, the single-flip Metropolis
chain for the two-dimensional Ising model, loop-erased random walks, and
the monotone-homogeneous transition kernels built from F-transforms.
"""

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import transforms
from .measures import AtomicMeasure


class MarkovError(ValueError):
    pass


class NotIrreducible(MarkovError):
    pass


class NotConverged(MarkovError):
    pass


class EnumerationTooLarge(MarkovError):
    pass


class CapExceeded(MarkovError):
    pass


# ---------------------------------------------------------------------------
# transition matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransitionMatrix:
    """Column-stochastic matrix with optional state labels."""

    p: np.ndarray
    labels: tuple = ()

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "p", p)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise MarkovError("transition matrix must be square")
        if np.any(p < -1e-15) or np.any(p > 1 + 1e-15):
            raise MarkovError("entries must lie in [0, 1]")
        if np.any(np.abs(p.sum(axis=0) - 1.0) > 1e-12):
            raise MarkovError("columns must sum to 1 within 1e-12")
        if self.labels and len(self.labels) != p.shape[0]:
            raise MarkovError("label count must match matrix size")

    @property
    def n(self):
        return self.p.shape[0]


def _as_matrix(p):
    return p.p if isinstance(p, TransitionMatrix) else np.asarray(p, dtype=float)


def is_irreducible(p):
    """Strong connectivity of the support digraph: state 0 reaches every
    state and every state reaches state 0 (False for an empty chain)."""
    m = _as_matrix(p)
    return bool(m.shape[0] and _reachable(m, 0).all()
                and _reachable(m.T, 0).all())


def _reachable(m, start):
    """Mask of the states the chain with column-stochastic ``m`` can reach
    from ``start`` (``start`` included)."""
    seen = np.zeros(m.shape[0], dtype=bool)
    seen[start] = True
    frontier = seen
    while frontier.any():
        frontier = (m[:, frontier] > 0).any(axis=1) & ~seen
        seen |= frontier
    return seen


def period(p, state):
    """gcd of return-walk lengths through the state, scanned up to 2N."""
    m = _as_matrix(p) > 0
    n = m.shape[0]
    reach = np.eye(n, dtype=bool)
    g = 0
    for length in range(1, 2 * n + 1):
        reach = reach @ m
        if reach[state, state]:
            g = math.gcd(g, length)
            if g == 1:
                break
    return g


def stationary_distribution(p):
    """The unique pi with P pi = pi for an irreducible chain."""
    m = _as_matrix(p)
    if not is_irreducible(m):
        raise NotIrreducible("chain is not irreducible")
    n = m.shape[0]
    a = m - np.eye(n)
    a[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = np.linalg.solve(a, rhs)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def iterate_distribution(p, v, n):
    m = _as_matrix(p)
    v = np.asarray(v, dtype=float)
    for _ in range(n):
        v = m @ v
    return v


def convergence_report(p, v, nmax=200):
    """Geometric-rate fit of ||P^n v - pi||_inf; returns (pi, theta, c)."""
    m = _as_matrix(p)
    pi = stationary_distribution(m)
    v = np.asarray(v, dtype=float)
    errs = []
    w = v.copy()
    for _ in range(nmax):
        w = m @ w
        errs.append(np.abs(w - pi).max())
    errs = np.array(errs)
    keep = errs > 1e-13
    ns = np.arange(1, nmax + 1)[keep]
    if ns.size < 2:
        return pi, 0.0, 0.0
    slope, intercept = np.polyfit(ns, np.log(errs[keep]), 1)
    return pi, float(np.exp(slope)), float(np.exp(intercept))


# draws per Python list handed to a walker, which bounds the lists' memory
_BLOCK = 4096


def _draw_blocks(rng, chunk, n_sites=0, count=None):
    """Draw ``chunk`` at a time (``count`` in all, or without end) and yield
    the draws as Python lists of at most _BLOCK entries.  With ``n_sites``
    every chunk draws its sites before its uniforms and the blocks are
    (sites, uniforms) pairs; without, they are uniforms."""
    if chunk <= 0:
        raise MarkovError("chunk must be positive")
    left = math.inf if count is None else int(count)
    while left > 0:
        k = min(chunk, left)
        sites = rng.integers(0, n_sites, size=k) if n_sites else None
        u = rng.random(k)
        for lo in range(0, k, _BLOCK):
            us = u[lo:lo + _BLOCK].tolist()
            yield (sites[lo:lo + _BLOCK].tolist(), us) if n_sites else us
        left -= k


def hitting_time_mc(p, state, episodes, seed, chunk=1 << 20):
    """Monte Carlo first-return times to ``state``; returns (mean, se, n).

    One uniform u per transition, drawn ``chunk`` at a time, moves the
    chain from k to the first j with u <= sum_{i <= j} p_{ik} (the last
    state if there is none).  The walk stops at the ``episodes``-th
    return, so n == episodes.  Raises NotIrreducible when ``state`` is
    transient: the chain might never return.
    """
    if episodes <= 0:
        raise MarkovError("episodes must be positive")
    m = _as_matrix(p)
    if not 0 <= state < m.shape[0]:
        raise MarkovError(f"state {state} is not one of the chain's "
                          f"{m.shape[0]} states")
    # a state is recurrent iff every state it reaches can reach it back
    if not np.all(_reachable(m.T, state)[_reachable(m, state)]):
        raise NotIrreducible(f"state {state} is transient: its "
                             "communicating class is not closed")
    # bisect_left on a cumulative law finds the first j with u <= cum[j];
    # without the last entry, a u beyond all the others lands on the last
    # state
    cols = np.cumsum(m, axis=0)[:-1].T.tolist()
    cur, steps, done, total, totalsq = state, 0, 0, 0, 0
    for block in _draw_blocks(np.random.default_rng(seed), chunk):
        for u in block:
            cur = bisect_left(cols[cur], u)
            steps += 1
            if cur == state:
                done += 1
                total += steps
                totalsq += steps * steps
                steps = 0
                if done == episodes:
                    mean = total / done
                    var = totalsq / done - mean**2
                    return mean, math.sqrt(max(var, 0.0) / done), done


# ---------------------------------------------------------------------------
# Markov reward processes and MDPs
# ---------------------------------------------------------------------------

def expected_reward(p, rewards):
    """One-step expected rewards: R(s) = sum_s' p_{s',s} R(s')."""
    m = _as_matrix(p)
    return np.asarray(rewards, dtype=float) @ m


def mrp_value(p, rewards, gamma):
    """Solve the row-vector Bellman equation v = R + gamma * v P."""
    if not 0 <= gamma < 1:
        raise MarkovError("discount must lie in [0, 1)")
    m = _as_matrix(p)
    r = expected_reward(m, rewards)
    v = np.linalg.solve(np.eye(m.shape[0]) - gamma * m.T, r)
    residual = np.abs(v - (r + gamma * v @ m)).max()
    if not residual <= 1e-10:
        raise NotConverged(f"Bellman residual {residual:.3g} exceeds 1e-10")
    return v


@dataclass(frozen=True)
class MDPSpec:
    """Finite MDP: transitions[s', s, a], state rewards, discount."""

    transitions: np.ndarray
    rewards: np.ndarray
    gamma: float
    state_labels: tuple = ()
    action_labels: tuple = ()

    def __post_init__(self):
        t = np.asarray(self.transitions, dtype=float)
        object.__setattr__(self, "transitions", t)
        object.__setattr__(self, "rewards", np.asarray(self.rewards,
                                                       dtype=float))
        if t.ndim != 3 or t.shape[0] != t.shape[1]:
            raise MarkovError("transition tensor must be (s', s, a)")
        if np.any(np.abs(t.sum(axis=0) - 1.0) > 1e-12):
            raise MarkovError("every (s, a) column must be stochastic")
        if not 0 <= self.gamma < 1:
            raise MarkovError("discount must lie in [0, 1)")

    @property
    def n_states(self):
        return self.transitions.shape[1]

    @property
    def n_actions(self):
        return self.transitions.shape[2]


def mdp_value_iteration(spec, tol=1e-10):
    """Iterate the Bellman optimality operator to its fixed point.

    Returns (v_star, policy) with the greedy deterministic policy breaking
    ties toward the smallest action index.
    """
    t = spec.transitions
    rsa = np.einsum("psa,p->sa", t, spec.rewards)
    v = np.zeros(spec.n_states)
    max_iter = max(1, int(math.log(max(tol, 1e-300)) / math.log(spec.gamma))
                   + 50) if spec.gamma > 0 else 2
    for _ in range(max_iter):
        q = rsa + spec.gamma * np.einsum("psa,p->sa", t, v)
        vnew = q.max(axis=1)
        step = np.abs(vnew - v).max()
        v = vnew
        if step <= tol:
            break
    q = rsa + spec.gamma * np.einsum("psa,p->sa", t, v)
    policy = q.argmax(axis=1)  # argmax returns the smallest maximizing index
    return v, policy


def mdp_policy_chain(spec, policy):
    """Transition matrix of the chain induced by a deterministic policy."""
    idx = np.asarray(policy, dtype=int)
    cols = [spec.transitions[:, s, idx[s]] for s in range(spec.n_states)]
    return TransitionMatrix(np.stack(cols, axis=1))


# ---------------------------------------------------------------------------
# quantum channels
# ---------------------------------------------------------------------------

def check_density_matrix(rho, tol=1e-10):
    rho = np.asarray(rho, dtype=complex)
    if np.abs(np.trace(rho) - 1.0) > 1e-12:
        raise MarkovError("density matrix must have unit trace")
    if np.abs(rho - rho.conj().T).max() > 1e-12:
        raise MarkovError("density matrix must be Hermitian")
    if np.linalg.eigvalsh(rho).min() < -tol:
        raise MarkovError("density matrix must be positive semidefinite")
    return rho


@dataclass(frozen=True)
class KrausChannel:
    """Quantum channel T(X) = sum_j E_j X E_j^*."""

    ops: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(e, dtype=complex) for e in self.ops)
        object.__setattr__(self, "ops", ops)
        n = ops[0].shape[0]
        acc = np.zeros((n, n), dtype=complex)
        for e in ops:
            acc += e.conj().T @ e
        if np.abs(acc - np.eye(n)).max() > 1e-10:
            raise MarkovError("Kraus operators must satisfy sum E*E = I")

    def __call__(self, x):
        x = np.asarray(x, dtype=complex)
        out = np.zeros_like(x)
        for e in self.ops:
            out += e @ x @ e.conj().T
        return out


def kraus_from_transition(p):
    """Channel embedding a classical chain: E_{jk} = sqrt(p_jk) e_j e_k^T.

    Only time-homogeneous quantum Markov chains rho -> T(rho) are modeled
    here.  Their decision-process extension (a self-adjoint observable, a
    density-matrix state, channels as actions, self-adjoint reward
    operators with expected reward tr(R_j T_j(rho)), and a discount) is
    documented for orientation but not implemented.
    """
    m = _as_matrix(p)
    n = m.shape[0]
    ops = []
    for j in range(n):
        for k in range(n):
            if m[j, k] == 0:
                continue
            e = np.zeros((n, n))
            e[j, k] = math.sqrt(m[j, k])
            ops.append(e)
    return KrausChannel(tuple(ops))


def channel_apply(channel, rho):
    return channel(check_density_matrix(rho))


def channel_fixed_point(channel, rho0, tol=1e-12, max_iter=100_000):
    """Iterate the channel until the trace-norm step drops below tol."""
    rho = check_density_matrix(rho0)
    for _ in range(max_iter):
        nxt = channel(rho)
        step = np.abs(np.linalg.eigvalsh(nxt - rho)).sum()
        rho = nxt
        if step <= tol:
            return rho
    raise NotConverged(f"channel iteration did not reach {tol} in {max_iter}")


# ---------------------------------------------------------------------------
# the two-dimensional Ising model
# ---------------------------------------------------------------------------

def curie_temperature(coupling=1.0, boltzmann=1.0):
    """Critical temperature 2J/(k_B log(1 + sqrt 2)) of the square-lattice
    model (about 2.269 for J = k_B = 1); exposed for reference.

    In the thermodynamic limit the residual magnetization below this
    temperature is (1 - sinh(2J/(k_B T))**-4)**(1/8) and vanishes above
    it; that limit is out of reach at desk scale and is not validated
    here, only the finite-lattice chain statistics are.
    """
    return 2 * coupling / (boltzmann * math.log(1 + math.sqrt(2)))


CRITICAL_BETA = 0.5 * math.log(1 + math.sqrt(2))


@dataclass(frozen=True)
class IsingState:
    """Spin grid with couplings; free boundary, optional frozen cells."""

    spins: np.ndarray
    coupling: float = 1.0
    field: float = 0.0
    beta: float = 1.0
    frozen: np.ndarray = None

    def __post_init__(self):
        s = np.asarray(self.spins, dtype=np.int8)
        object.__setattr__(self, "spins", s)
        # floats, so the kernel's coupling * (int8 neighbour sum) cannot wrap
        for name in ("coupling", "field", "beta"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if s.ndim != 2 or s.size == 0:
            raise MarkovError(f"spins must be a non-empty 2-d grid, got "
                              f"shape {s.shape}")
        if not np.all(np.isin(s, (-1, 1))):
            raise MarkovError("spins must be +-1")
        if self.coupling <= 0 or self.field < 0 or self.beta <= 0:
            raise MarkovError("need J > 0, B >= 0, beta > 0")
        fr = (np.zeros_like(s, dtype=np.uint8) if self.frozen is None
              else np.asarray(self.frozen, dtype=np.uint8))
        if fr.shape != s.shape:
            raise MarkovError("frozen mask shape mismatch")
        object.__setattr__(self, "frozen", fr)

    @classmethod
    def aligned(cls, shape, up=True, **kw):
        s = np.full(shape, 1 if up else -1, dtype=np.int8)
        return cls(s, **kw)

    @classmethod
    def random(cls, shape, seed, **kw):
        rng = np.random.default_rng(seed)
        s = rng.integers(0, 2, size=shape).astype(np.int8) * 2 - 1
        return cls(s, **kw)


def ising_energy(state):
    """H = -J sum_{x~y} s_x s_y - B sum_x s_x with free boundary."""
    s = state.spins.astype(np.int64)
    bonds = (s[:-1, :] * s[1:, :]).sum() + (s[:, :-1] * s[:, 1:]).sum()
    return -state.coupling * bonds - state.field * s.sum()


def magnetization(state):
    return float(state.spins.mean())


def _acceptance_table(beta, coupling, field):
    """Single-flip acceptance thresholds: flipping spin s with neighbour sum
    nb is accepted iff u < table[5*s + nb] (negative indices wrap, so the
    2 x 9 entries do not collide).  The threshold is 2.0 where the energy
    change dE = 2 s (J nb + B) is <= 0, so every u in [0, 1) accepts, and
    exp(-beta dE) where dE > 0."""
    table = [0.0] * 19
    for s in (-1, 1):
        for nb in range(-4, 5):
            delta = 2.0 * s * (coupling * nb + field)
            table[5 * s + nb] = (2.0 if delta <= 0.0
                                 else float(np.exp(-beta * delta)))
    return table


def _walker(spins, frozen, beta, coupling, field):
    """The single-flip chain on a free-boundary lattice: returns the
    zero-padded flat spin list and ``walk(sites, u)``, which makes one
    proposal per (site, uniform) pair on that list and returns the flip
    flag of each.  A frozen site's thresholds are -1.0, so it never flips."""
    h, w = spins.shape
    stride = w + 2
    padded = np.zeros((h + 2, stride), dtype=np.int64)
    padded[1:-1, 1:-1] = spins
    grid = padded.ravel().tolist()
    where = (np.arange(1, h + 1)[:, None] * stride
             + np.arange(1, w + 1)).ravel().tolist()
    table = _acceptance_table(beta, coupling, field)
    never = [-1.0] * len(table)
    rows = [never if f else table for f in np.ravel(frozen).tolist()]

    def walk(sites, u):
        flipped = []
        for i, x in zip(sites, u):
            p = where[i]
            s = grid[p]
            flip = x < rows[i][5 * s + grid[p - 1] + grid[p + 1]
                               + grid[p - stride] + grid[p + stride]]
            if flip:
                grid[p] = -s
            flipped.append(flip)
        return flipped

    return grid, walk


def metropolis_ising(state, steps, seed, chunk=1 << 20):
    """Run the single-flip Metropolis chain; returns the final state.

    Each of the ``steps`` proposals picks a uniform site and flips it with
    the Metropolis probability; sites and uniforms are drawn ``chunk`` at
    a time, sites first.
    """
    if state.spins.size > 1 << 30:
        raise MarkovError("lattice too large")
    if steps < 0:
        raise MarkovError(f"steps must be >= 0, got {steps}")
    h, w = state.spins.shape
    grid, walk = _walker(state.spins, state.frozen, state.beta,
                         state.coupling, state.field)
    rng = np.random.default_rng(seed)
    for sites, u in _draw_blocks(rng, chunk, h * w, steps):
        walk(sites, u)
    spins = np.array(grid, dtype=np.int8).reshape(h + 2, w + 2)[1:-1, 1:-1]
    return IsingState(spins, state.coupling, state.field, state.beta,
                      state.frozen)


def _lattice_edges(shape):
    h, w = shape
    idx = np.arange(h * w).reshape(h, w)
    edges = []
    edges += list(zip(idx[:-1, :].ravel(), idx[1:, :].ravel()))
    edges += list(zip(idx[:, :-1].ravel(), idx[:, 1:].ravel()))
    return edges


def _config_energies(shape, coupling, field):
    """Integer-weighted energies of all configurations of a small lattice.

    Returns (bond_sums, spin_sums) so H = -J*bond_sums - B*spin_sums; the
    index encodes spins bitwise (bit i set iff flat spin i is up).
    """
    h, w = shape
    m = h * w
    if m > 20:
        raise EnumerationTooLarge("exact enumeration limited to 20 spins")
    ids = np.arange(1 << m, dtype=np.int64)
    spins = ((ids[:, None] >> np.arange(m)) & 1) * 2 - 1  # (2^m, m)
    edges = _lattice_edges(shape)
    bond = np.zeros(1 << m, dtype=np.int64)
    for a, b in edges:
        bond += spins[:, a] * spins[:, b]
    return bond, spins.sum(axis=1)


def exact_boltzmann(shape, beta, coupling=1.0, field=0.0):
    """Exact Boltzmann distribution over all configurations of a small
    free-boundary lattice, as (probabilities, AtomicMeasure over ids)."""
    bond, mag = _config_energies(shape, coupling, field)
    energy = -coupling * bond - field * mag
    w = np.exp(-beta * (energy - energy.min()))
    probs = w / w.sum()
    measure = AtomicMeasure(tuple((int(i), float(p))
                            for i, p in enumerate(probs) if p > 0))
    return probs, measure


def metropolis_exact_kernel(shape, beta, coupling=1.0, field=0.0):
    """Full single-flip transition matrix over configurations."""
    bond, mag = _config_energies(shape, coupling, field)
    energy = -coupling * bond - field * mag
    m = shape[0] * shape[1]
    size = 1 << m
    if size > 1 << 12:
        raise EnumerationTooLarge("kernel audit limited to 12 spins")
    p = np.zeros((size, size))
    for s in range(size):
        for i in range(m):
            s2 = s ^ (1 << i)
            delta = energy[s2] - energy[s]
            acc = 1.0 if delta <= 0 else math.exp(-beta * delta)
            p[s2, s] += acc / m
        p[s, s] = 1.0 - p[:, s].sum()
    return TransitionMatrix(p), energy


def detailed_balance_audit(shape, beta, coupling=1.0, field=0.0):
    """Verify P_{s's} w_s = P_{ss'} w_{s'} for all single-flip pairs.

    Both sides equal exp(-beta*max(H_s, H_{s'}))/(m Z); the audit passes
    when the float products agree to 1e-14 relative.  Returns (ok, worst
    relative gap).
    """
    p, energy = metropolis_exact_kernel(shape, beta, coupling, field)
    w = np.exp(-beta * (energy - energy.min()))
    m = shape[0] * shape[1]
    worst = 0.0
    for s in range(1 << m):
        for i in range(m):
            s2 = s ^ (1 << i)
            if s2 < s:
                continue
            lhs = p.p[s2, s] * w[s]
            rhs = p.p[s, s2] * w[s2]
            worst = max(worst, abs(lhs - rhs) / max(lhs, rhs, 1e-300))
    return worst <= 1e-14, worst


def metropolis_histogram(shape, beta, coupling, field, burn_in, samples,
                         seed, chunk=1 << 20):
    """Visit counts over configuration ids after burn-in (small lattices).

    One single-flip chain starts from the all-up configuration and makes
    ``burn_in`` proposals, then ``samples`` more; the histogram counts the
    configuration id (bit i set iff flat spin i is up) after each of the
    ``samples`` proposals, so it sums to ``samples``.  Sites and uniforms
    are drawn ``chunk`` at a time.  The chain is ``metropolis_ising``'s
    walker; each visited id is the previous one with the flipped site's
    bit toggled.
    """
    h, w = shape
    m = h * w
    if m > 20:
        raise EnumerationTooLarge("histogram limited to 20 spins")
    _, walk = _walker(np.ones(shape, dtype=np.int64), np.zeros(shape), beta,
                      coupling, field)
    rng = np.random.default_rng(seed)
    config = (1 << m) - 1
    hist = np.zeros(1 << m, dtype=np.int64)
    for proposals, counted in ((burn_in, False), (samples, True)):
        for sites, u in _draw_blocks(rng, chunk, m, proposals):
            bits = np.where(walk(sites, u), 1 << np.array(sites), 0)
            visited = config ^ np.bitwise_xor.accumulate(bits)
            config = int(visited[-1])
            if counted:  # add.at, not bincount: no pass over all 2**m ids
                np.add.at(hist, visited, 1)
    return hist


# ---------------------------------------------------------------------------
# random walks
# ---------------------------------------------------------------------------

_STEPS_2D = ((1, 0), (-1, 0), (0, 1), (0, -1))


def loop_erase(path):
    """Erase loops in chronological order; output is a simple path."""
    out = []
    index = {}
    for v in path:
        if v in index:
            cut = index[v]
            for w in out[cut + 1:]:
                del index[w]
            del out[cut + 1:]
        else:
            index[v] = len(out)
            out.append(v)
    return out


def lerw(width, steps_cap, seed):
    """Loop-erased random walk from the origin until it exits the centered
    square of half-width ``width``; raises CapExceeded at the step cap."""
    if width < 0:
        raise MarkovError(f"width must be >= 0, got {width}")
    rng = np.random.default_rng(seed)
    pos = (0, 0)
    path = [pos]
    for _ in range(int(steps_cap)):
        dx, dy = _STEPS_2D[rng.integers(0, 4)]
        pos = (pos[0] + dx, pos[1] + dy)
        path.append(pos)
        if abs(pos[0]) > width or abs(pos[1]) > width:
            return loop_erase(path), path
    raise CapExceeded(f"walk did not exit within {steps_cap} steps")


# ---------------------------------------------------------------------------
# monotone-homogeneous kernels
# ---------------------------------------------------------------------------

def homogeneous_kernel(mu, x, grid,
                       eps_ladder=transforms.DEFAULT_EPS_LADDER):
    """Transition kernel k(x, .) of the monotone-homogeneous Markov process:
    the measure with Cauchy transform 1/(F_mu(z) - x).  ``mu`` is a measure
    or its F-transform, a vectorized function of a complex array."""
    fmu = mu if callable(mu) else functools.partial(transforms.f_transform, mu)
    return transforms.measure_from_ftransform(lambda z: fmu(z) - x, grid,
                                              eps_ladder=eps_ladder)
