"""Finite Markov chains and their statistical-physics kin.

Column-stochastic transition matrices (entry (j, k) is the probability of
moving to state j from state k), Markov reward processes and MDP value
iteration, the single-flip Metropolis chain for the two-dimensional Ising
model, and loop-erased random walks.  The transition kernel of a monotone
additive process, k(x, .) = delta_x |> mu, is
``convolve("monotone", AtomicMeasure.dirac(x), mu)`` in ``convolutions``.
"""

import functools
import math
import numbers
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .measures import AtomicMeasure, NcprobError, NoConvergence, _check_count


# ---------------------------------------------------------------------------
# transition matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransitionMatrix:
    """Column-stochastic matrix."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "p", p)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise NcprobError("transition matrix must be square")
        if p.size == 0:
            raise NcprobError("transition matrix needs at least one state")
        _check_stochastic(p, "columns must sum to 1 within 1e-12")

    @property
    def n(self):
        return self.p.shape[0]


def _check_stochastic(p, column_message):
    """Refuse entries outside [0, 1] and axis-0 sums other than 1; written
    as ``not np.all(ok)`` so that a NaN, which fails every comparison, is
    refused too."""
    if not np.all((p >= -1e-15) & (p <= 1 + 1e-15)):
        raise NcprobError("entries must lie in [0, 1]")
    if not np.all(np.abs(p.sum(axis=0) - 1.0) <= 1e-12):
        raise NcprobError(column_message)


def _as_matrix(p):
    """The support matrix of ``p``: any square array, or a chain's."""
    m = p.p if isinstance(p, TransitionMatrix) else np.asarray(p, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NcprobError(f"matrix must be square, got shape {m.shape}")
    return m


def _chain(p):
    """The matrix of ``p``; an array is checked as a ``TransitionMatrix``."""
    return (p if isinstance(p, TransitionMatrix) else TransitionMatrix(p)).p


def _check_state(state, n):
    """Refuse a ``state`` other than an int in [0, n)."""
    if (isinstance(state, bool) or not isinstance(state, numbers.Integral)
            or not 0 <= state < n):
        raise NcprobError(f"state {state!r} is not one of the chain's "
                          f"{n} states")


def _per_state(v, n, what):
    """``v`` as a float array, refused unless it has one entry per state."""
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise NcprobError(f"{what} needs one entry per state ({n}), got "
                          f"shape {v.shape}")
    return v


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
    _check_state(state, n)
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
    m = _chain(p)
    if not is_irreducible(m):
        raise NcprobError("chain is not irreducible")
    n = m.shape[0]
    a = m - np.eye(n)
    a[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = np.linalg.solve(a, rhs)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def iterate_distribution(p, v, n):
    m = _chain(p)
    v = np.asarray(v, dtype=float)
    for _ in range(n):
        v = m @ v
    return v


def convergence_report(p, v):
    """Geometric-rate fit of ||P^n v - pi||_inf; returns (pi, theta, c)."""
    nmax = 200
    m = _chain(p)
    pi = stationary_distribution(m)
    v = _per_state(v, m.shape[0], "initial vector v0")
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


# draws per block: a sampler turns each block into a Python list to walk,
# so a block bounds the memory it holds, whatever its step count; a seed's
# Metropolis output depends on it
_BLOCK = 4096

# bound on the entries of hitting_time_mc's next-state table, n (n (n - 1)
# + 1) for a chain of n states: chains of up to 40 states
_TABLE_MAX = 1 << 16


def _draw_blocks(rng, block, n_sites=0, count=None):
    """Yield ``count`` draws (or draws without end) in blocks of at most
    ``block``.  With ``n_sites`` each block draws its sites, then its
    uniforms, and is a (sites, uniforms) pair; without, it is an array of
    uniforms."""
    left = math.inf if count is None else count
    while left > 0:
        k = min(block, left)
        sites = rng.integers(0, n_sites, size=k) if n_sites else None
        u = rng.random(k)
        yield (sites, u) if n_sites else u
        left -= k


def _return_table(cols):
    """Next-state table of the chain that moves from k to bisect_left(
    cols[k], u): returns (rank, nxt) with that move nxt[k][rank(u)], where
    rank counts the distinct entries of ``cols`` below each of an array
    of uniforms.  bisect_left compares u with entries of cols[k] only, and
    the rank settles every such comparison, so levels[r] (or inf past the
    last) stands for each u of rank r."""
    levels = sorted(set(x for col in cols for x in col))
    nxt = [[bisect_left(col, x) for x in levels + [math.inf]]
           for col in cols]
    return functools.partial(np.searchsorted, np.array(levels)), nxt


def hitting_time_mc(p, state, episodes, seed, chunk=_BLOCK):
    """Monte Carlo first-return times to ``state``; returns (mean, se, n).

    One uniform u per transition, drawn in blocks of ``chunk``, moves the
    chain from k to the first j with u <= sum_{i <= j} p_{ik} (the last
    state if there is none).  The uniforms are one PCG64 stream however
    they are split, so ``chunk`` bounds the memory a block holds and
    leaves the output unchanged.  Up to _TABLE_MAX entries, that move is
    one lookup in ``_return_table`` keyed by the rank of u among the
    chain's cumulative sums; a larger chain bisects its column per
    transition.  The walk stops at the ``episodes``-th return, so
    n == episodes.  An array ``p`` is checked as a ``TransitionMatrix``.
    Raises NcprobError when ``state`` is transient: the chain might never
    return.
    """
    _check_count(episodes, "episodes")
    _check_count(seed, "seed", 0)
    _check_count(chunk, "chunk")
    m = _chain(p)
    _check_state(state, m.shape[0])
    # a state is recurrent iff every state it reaches can reach it back
    if not np.all(_reachable(m.T, state)[_reachable(m, state)]):
        raise NcprobError(f"state {state} is transient: its "
                          "communicating class is not closed")
    # bisect_left on a cumulative law finds the first j with u <= cum[j];
    # without the last entry, a u beyond all the others lands on the last
    # state
    cum = np.cumsum(m, axis=0)[:-1].T
    cols = cum.tolist()
    rank, nxt = _return_table(cols) if (
        m.shape[0] * (cum.size + 1) <= _TABLE_MAX) else (None, None)

    def walk(cur, u):
        """The states after each transition of ``u``, as an array."""
        if nxt is None:
            return np.fromiter([cur := bisect_left(cols[cur], x)
                                for x in u.tolist()], np.intp)
        # a table has at most 40 states, so each state fits a byte
        return np.frombuffer(bytes([cur := nxt[cur][r]
                                    for r in rank(u).tolist()]), np.uint8)

    cur, steps, done, total, totalsq = state, 0, 0, 0, 0
    for u in _draw_blocks(np.random.default_rng(seed), chunk):
        path = walk(cur, u)
        cur = int(path[-1])
        hits = np.flatnonzero(path == state)[:episodes - done]
        if not hits.size:
            steps += path.size
            continue
        # return times; only the first, which carries ``steps`` over from
        # earlier blocks, can exceed the block length
        first = steps + int(hits[0]) + 1
        rest = np.diff(hits)
        done += hits.size
        total += first + int(rest.sum())
        totalsq += first * first + int(rest @ rest)
        steps = path.size - 1 - int(hits[-1])
        if done == episodes:
            mean = total / done
            var = totalsq / done - mean**2
            return mean, math.sqrt(max(var, 0.0) / done), done


# ---------------------------------------------------------------------------
# Markov reward processes and MDPs
# ---------------------------------------------------------------------------

def expected_reward(p, rewards):
    """One-step expected rewards: R(s) = sum_s' p_{s',s} R(s')."""
    m = _chain(p)
    return _per_state(rewards, m.shape[0], "reward vector R") @ m


def mrp_value(p, rewards, gamma):
    """Solve the row-vector Bellman equation v = R + gamma * v P."""
    if not 0 <= gamma < 1:
        raise NcprobError("discount must lie in [0, 1)")
    m = _chain(p)
    r = expected_reward(m, rewards)
    v = np.linalg.solve(np.eye(m.shape[0]) - gamma * m.T, r)
    if not np.isfinite(v).all():
        raise NoConvergence("MRP values left the float range")
    residual = np.abs(v - (r + gamma * v @ m)).max()
    if not residual <= 1e-10:
        raise NoConvergence(f"Bellman residual {residual:.3g} exceeds 1e-10")
    return v


@dataclass(frozen=True)
class MDPSpec:
    """Finite MDP: transitions[s', s, a], state rewards, discount."""

    transitions: np.ndarray
    rewards: np.ndarray
    gamma: float

    def __post_init__(self):
        t = np.asarray(self.transitions, dtype=float)
        object.__setattr__(self, "transitions", t)
        if t.ndim != 3 or t.shape[0] != t.shape[1]:
            raise NcprobError("transition tensor must be (s', s, a)")
        if t.shape[2] == 0:
            raise NcprobError(f"transitions need at least one action, got "
                              f"shape {t.shape}")
        object.__setattr__(self, "rewards", _per_state(
            self.rewards, t.shape[0], "reward vector R"))
        _check_stochastic(t, "every (s, a) column must be stochastic")
        if not 0 <= self.gamma < 1:
            raise NcprobError("discount must lie in [0, 1)")

    @property
    def n_states(self):
        return self.transitions.shape[1]


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
    for sweep in range(max_iter):
        # a value past the float range is inf or NaN, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            q = rsa + spec.gamma * np.einsum("psa,p->sa", t, v)
        vnew = q.max(axis=1)
        if not np.isfinite(vnew).all():
            raise NoConvergence(f"value iteration left the float range at "
                                f"sweep {sweep + 1}")
        step = np.abs(vnew - v).max()
        v = vnew
        if step <= tol:
            break
    q = rsa + spec.gamma * np.einsum("psa,p->sa", t, v)
    policy = q.argmax(axis=1)  # argmax returns the smallest maximizing index
    return v, policy


# ---------------------------------------------------------------------------
# the two-dimensional Ising model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsingState:
    """Spin grid with couplings; free boundary."""

    spins: np.ndarray
    coupling: float = 1.0
    field: float = 0.0
    beta: float = 1.0

    def __post_init__(self):
        s = np.asarray(self.spins, dtype=np.int8)
        object.__setattr__(self, "spins", s)
        # floats, so the kernel's coupling * (int8 neighbour sum) cannot wrap
        for name in ("coupling", "field", "beta"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if s.ndim != 2 or s.size == 0:
            raise NcprobError(f"spins must be a non-empty 2-d grid, got "
                              f"shape {s.shape}")
        if not np.all(np.isin(s, (-1, 1))):
            raise NcprobError("spins must be +-1")
        # NaN fails every comparison; beta = inf is the zero-temperature chain
        if not (0 < self.coupling < math.inf and 0 <= self.field < math.inf
                and self.beta > 0):
            raise NcprobError("need 0 < J < inf, 0 <= B < inf, beta > 0")

    @classmethod
    def random(cls, shape, seed, **kw):
        _check_count(seed, "seed", 0)
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


def metropolis_ising(state, steps, seed):
    """Run the single-flip Metropolis chain; returns the final state.

    Each of the ``steps`` proposals picks a uniform site and flips it with
    the Metropolis probability.  Each block of at most _BLOCK proposals
    draws its sites, then its uniforms, so the walk holds one block of
    draws whatever ``steps`` is.  Spins sit in a zero-padded flat list,
    so a neighbour sum is four fixed offsets.
    """
    if state.spins.size > 1 << 30:
        raise NcprobError("lattice too large")
    _check_count(steps, "steps", 0)
    _check_count(seed, "seed", 0)
    h, w = state.spins.shape
    stride = w + 2
    padded = np.zeros((h + 2, stride), dtype=np.int64)
    padded[1:-1, 1:-1] = state.spins
    grid = padded.ravel().tolist()
    where = (np.arange(1, h + 1)[:, None] * stride
             + np.arange(1, w + 1)).ravel().tolist()
    table = _acceptance_table(state.beta, state.coupling, state.field)
    rng = np.random.default_rng(seed)
    for sites, u in _draw_blocks(rng, _BLOCK, h * w, steps):
        for i, x in zip(sites.tolist(), u.tolist()):
            p = where[i]
            s = grid[p]
            if x < table[5 * s + grid[p - 1] + grid[p + 1]
                         + grid[p - stride] + grid[p + stride]]:
                grid[p] = -s
    spins = np.array(grid, dtype=np.int8).reshape(h + 2, w + 2)[1:-1, 1:-1]
    return IsingState(spins, state.coupling, state.field, state.beta)


def _check_lattice(shape, beta, coupling, field):
    """Refuse a lattice shape other than two ints >= 1 and parameters
    outside 0 < J < inf, 0 <= B < inf, beta >= 0: NaN fails every
    comparison, and beta = 0 and beta = inf are the infinite- and
    zero-temperature chains."""
    if not (isinstance(shape, (tuple, list)) and len(shape) == 2
            and all(isinstance(side, numbers.Integral)
                    and not isinstance(side, bool) and side >= 1
                    for side in shape)):
        raise NcprobError("lattice shape must be positive: two ints >= 1, "
                          f"got {shape!r}")
    if not (0 < coupling < math.inf and 0 <= field < math.inf
            and beta >= 0):
        raise NcprobError("need 0 < J < inf, 0 <= B < inf, beta >= 0")


def _configurations(shape):
    """Every configuration of a free-boundary lattice of m spins in id order
    (bit i set iff flat spin i is up), as int8 arrays (spins, nb) of shape
    (2**m, m): each spin and the sum of its up to four neighbours."""
    h, w = shape
    m = h * w
    words = np.arange(1 << m, dtype="<u4").view(np.uint8).reshape(-1, 4)
    bits = np.unpackbits(words, axis=1, count=m, bitorder="little")
    spins = bits.view(np.int8) * 2 - 1
    grid = spins.reshape(-1, h, w)
    nb = np.zeros_like(grid)
    nb[:, 1:] += grid[:, :-1]
    nb[:, :-1] += grid[:, 1:]
    nb[:, :, 1:] += grid[:, :, :-1]
    nb[:, :, :-1] += grid[:, :, 1:]
    return spins, nb.reshape(-1, m)


def _flips(m):
    """(ids, flipped) with ids[c, 0] = c and flipped[c, i] = c ^ 2**i."""
    ids = np.arange(1 << m)[:, None]
    return ids, ids ^ (1 << np.arange(m))


def _config_energies(shape, beta, coupling, field):
    """Energies H = -J * bond_sum - B * spin_sum of all configurations of
    a small lattice, after ``_check_lattice``, in ``_configurations``'
    order.  Each bond is counted once as sum_i s_i nb_i / 2, in integers.
    """
    _check_lattice(shape, beta, coupling, field)
    if shape[0] * shape[1] > 20:
        raise NcprobError("exact enumeration limited to 20 spins")
    spins, nb = _configurations(shape)
    bond = (spins * nb).sum(axis=1, dtype=np.int64) // 2
    return -coupling * bond - field * spins.sum(axis=1, dtype=np.int64)


def _boltzmann_factor(gap, beta):
    """exp(-beta * gap) where gap > 0 and 1 elsewhere, for every beta >= 0
    (0 where gap > 0 at beta = inf)."""
    return np.exp(np.multiply(-beta, gap, out=np.zeros(gap.shape),
                              where=gap > 0))


def _boltzmann_weights(energy, beta):
    """exp(-beta (H - min H)): 1 at the ground states for every beta >= 0,
    and 0 elsewhere at beta = inf."""
    return _boltzmann_factor(energy - energy.min(), beta)


def exact_boltzmann(shape, beta, coupling=1.0, field=0.0):
    """Exact Boltzmann distribution over all configurations of a small
    free-boundary lattice, as (probabilities, AtomicMeasure over ids)."""
    probs = _boltzmann_weights(
        _config_energies(shape, beta, coupling, field), beta)
    probs /= probs.sum()
    measure = AtomicMeasure(tuple((int(i), float(p))
                            for i, p in enumerate(probs) if p > 0))
    return probs, measure


def metropolis_exact_kernel(shape, beta, coupling=1.0, field=0.0):
    """Full single-flip transition matrix over configurations: each site is
    proposed w.p. 1/m and its flip accepted w.p. exp(-beta max(dE, 0))."""
    energy = _config_energies(shape, beta, coupling, field)
    m = shape[0] * shape[1]
    if m > 12:
        raise NcprobError("kernel audit limited to 12 spins")
    ids, flipped = _flips(m)
    rate = _boltzmann_factor(energy[flipped] - energy[ids], beta) / m
    p = np.zeros((1 << m, 1 << m))
    p[flipped, ids] = rate
    np.fill_diagonal(p, 1.0 - rate.sum(axis=1))
    return TransitionMatrix(p), energy


def detailed_balance_audit(shape, beta, coupling=1.0, field=0.0):
    """Verify P_{s's} w_s = P_{ss'} w_{s'} for all single-flip pairs.

    Both sides equal exp(-beta*max(H_s, H_{s'}))/(m Z); the audit passes
    when the float products agree to 1e-14 relative.  Returns (ok, worst
    relative gap).
    """
    p, energy = metropolis_exact_kernel(shape, beta, coupling, field)
    w = _boltzmann_weights(energy, beta)
    ids, flipped = _flips(shape[0] * shape[1])
    lhs = p.p[flipped, ids] * w[ids]
    rhs = p.p[ids, flipped] * w[flipped]
    worst = float((np.abs(lhs - rhs)
                   / np.maximum(np.maximum(lhs, rhs), 1e-300)).max())
    return worst <= 1e-14, worst


def _flip_table(shape, beta, coupling, field):
    """Next-state table of the single-flip chain over all configurations
    of a free-boundary lattice of m spins: returns (rank, nxt) with the
    proposal of flat site i with uniform u moving configuration c to
    nxt[c][rank(u) * m + i], where rank counts the distinct acceptance
    thresholds <= each of an array of uniforms.  The flip is accepted iff
    u < thr, that is iff rank(u) <= j for thr = levels[j]."""
    spins, nb = _configurations(shape)
    m = spins.shape[1]
    thr = np.array(_acceptance_table(beta, coupling, field))[5 * spins + nb]
    levels = sorted(set(thr.ravel().tolist()))
    accept = (np.arange(len(levels) + 1)[:, None]
              <= np.searchsorted(levels, thr)[:, None, :])
    ids, flipped = _flips(m)
    nxt = np.where(accept, flipped[:, None], ids[:, None])
    return (functools.partial(np.searchsorted, np.array(levels),
                              side="right"),
            nxt.reshape(1 << m, -1).tolist())


def metropolis_histogram(shape, beta, coupling, field, burn_in, samples,
                         seed):
    """Visit counts over configuration ids after burn-in (small lattices).

    One single-flip chain starts from the all-up configuration and makes
    ``burn_in`` proposals, then ``samples`` more; the histogram counts the
    configuration id (bit i set iff flat spin i is up) after each of the
    ``samples`` proposals, so it sums to ``samples``.  Sites and uniforms
    are drawn and accepted as in ``metropolis_ising``, the burn-in and the
    samples each in their own blocks; each proposal is one lookup in
    ``_flip_table``, whose 2**m * m * (R + 1) entries (R <= 10 distinct
    thresholds) limit the lattice to 12 spins.
    """
    _check_lattice(shape, beta, coupling, field)
    m = shape[0] * shape[1]
    if m > 12:
        raise NcprobError("histogram limited to 12 spins")
    _check_count(burn_in, "burn_in", 0)
    _check_count(samples, "samples")
    _check_count(seed, "seed", 0)
    rank, nxt = _flip_table(shape, beta, coupling, field)
    rng = np.random.default_rng(seed)
    c = (1 << m) - 1
    hist = np.zeros(1 << m, dtype=np.int64)
    for proposals, counted in ((burn_in, False), (samples, True)):
        for sites, u in _draw_blocks(rng, _BLOCK, m, proposals):
            keys = rank(u) * m + sites
            path = [c := nxt[c][k] for k in keys.tolist()]
            if counted:
                hist += np.bincount(np.fromiter(path, np.intp),
                                    minlength=1 << m)
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
    square of half-width ``width``; raises NcprobError at the step cap.
    Its steps are drawn in blocks of at most _BLOCK."""
    _check_count(width, "width", 0)
    _check_count(steps_cap, "steps_cap", 0)
    _check_count(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    pos = (0, 0)
    path = [pos]
    cap = int(steps_cap)
    while len(path) <= cap:
        for k in rng.integers(0, 4, size=min(_BLOCK, cap + 1 - len(path))
                              ).tolist():
            dx, dy = _STEPS_2D[k]
            pos = (pos[0] + dx, pos[1] + dy)
            path.append(pos)
            if abs(pos[0]) > width or abs(pos[1]) > width:
                return loop_erase(path), path
    raise NcprobError(f"walk did not exit within {steps_cap} steps")
