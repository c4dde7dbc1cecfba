"""Loewner evolutions on the upper half-plane.

A driving field is a time-indexed family of compactly supported measures
nu_t; the transition mappings f_{s,t} of the associated additive Loewner
chain are evaluated by integrating the characteristic ODE

    d/dtau f = G_{nu_tau}(f),    from tau = t down to tau = s,

whose solutions move upward in H.  The inverse flow integrates the same
equation forward in time and can collide with the growing hull.  Slit
chains are the special case nu_t = delta_{U(t)} for a real driving
function U.

Fields with at most one atom per time segment, at rest
(``HerglotzField.is_slit``: constant and piecewise-constant drivings,
single-atom ``constant``/``piecewise`` fields and their rescalings) flow in
closed form, one square root per segment (``_kernels.slit_batch``); every
other field runs the Dormand-Prince kernel (``_kernels.flow_batch``).  The
choice reads only the field.  ``tol`` is checked on both paths but governs
only the Dormand-Prince one; on the closed-form path a ``ChainPoint``'s
``steps`` counts the segments crossed and ``min_imag`` is the lowest Im y
at the start and the segment ends.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, transforms
from .measures import AtomicMeasure, json_reals


class LoewnerError(ValueError):
    pass


class StepUnderflow(LoewnerError):
    pass


class DomainEscape(LoewnerError):
    """Trajectory left H during a chain evaluation; indicates misuse."""


class HullCollision(LoewnerError):
    """Inverse flow hit the hull before the requested time."""


class NoConvergence(LoewnerError):
    pass


class BoundError(LoewnerError):
    pass


# ---------------------------------------------------------------------------
# driving functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DrivingFunction:
    """Real driving function of a slit chain.

    kind 'constant' uses ``values[0]``; 'piecewise_constant' holds values
    on the intervals between ``times``; 'sampled' interpolates linearly.
    """

    kind: str
    times: tuple = ()
    values: tuple = ()

    def __post_init__(self):
        if self.kind not in ("constant", "piecewise_constant", "sampled"):
            raise ValueError(f"unknown driving kind {self.kind!r}")
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.kind == "constant":
            if len(self.values) != 1:
                raise ValueError("constant driving needs exactly one value")
        elif self.kind == "piecewise_constant":
            if len(self.times) != len(self.values) + 1:
                raise ValueError("need len(times) == len(values) + 1")
        else:
            if len(self.times) != len(self.values) or len(self.times) < 2:
                raise ValueError("sampled driving needs matching times/values")
        if not all(map(math.isfinite, self.times + self.values)):
            raise ValueError("driving times and values must be finite")
        if self.times and any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    @classmethod
    def constant(cls, u):
        return cls("constant", (), (u,))

    @classmethod
    def piecewise(cls, times, values):
        return cls("piecewise_constant", tuple(times), tuple(values))

    @classmethod
    def sampled(cls, times, values):
        return cls("sampled", tuple(times), tuple(values))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.full_like(t, self.values[0])
        if self.kind == "sampled":
            return np.interp(t, self.times, self.values)
        idx = np.clip(np.searchsorted(self.times, t, side="right") - 1,
                      0, len(self.values) - 1)
        return np.asarray(self.values)[idx]

    def bound(self):
        return max(abs(v) for v in self.values)

    def horizon(self):
        return self.times[-1] if self.times else math.inf

    def to_json(self):
        out = {"kind": self.kind, "values": list(self.values)}
        if self.times:
            out["times"] = list(self.times)
        return out

    @classmethod
    def from_json(cls, obj):
        for key in ("kind", "values"):
            if not (isinstance(obj, dict) and key in obj):
                raise LoewnerError(f"driving JSON needs a {key!r} entry")
        def reals(key):
            return tuple(json_reals(obj.get(key, []), f"driving JSON {key}",
                                    error=LoewnerError))

        return cls(obj["kind"], reals("times"), reals("values"))


# ---------------------------------------------------------------------------
# Herglotz fields
# ---------------------------------------------------------------------------

class HerglotzField:
    """Time-indexed family of finite atomic measures driving a chain.

    Fields store per-segment atom positions (moving linearly in time),
    weights, and time breaks.  Weights may sum to a rate other than 1 (used
    by the scaling lemma); probability fields have rate 1.
    """

    def __init__(self, tbreaks, pos, slope, wts, horizon, support_bound):
        self.tbreaks = np.asarray(tbreaks, dtype=float)
        self.pos = np.asarray(pos, dtype=float)
        self.slope = np.asarray(slope, dtype=float)
        self.wts = np.asarray(wts, dtype=float)
        for name, arr in (("time breaks", self.tbreaks),
                          ("positions", self.pos), ("slopes", self.slope),
                          ("weights", self.wts)):
            if not np.all(np.isfinite(arr)):
                raise LoewnerError(f"field {name} must be finite")
        self.horizon = float(horizon)
        self.support_bound = float(support_bound)

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, measure, horizon):
        if not isinstance(measure, AtomicMeasure):
            raise LoewnerError("constant fields take an AtomicMeasure")
        p = measure.positions[None, :]
        w = measure.weights[None, :]
        bound = max(abs(x) for x, _ in measure.atoms)
        return cls([0.0, horizon], p, np.zeros_like(p), w, horizon, bound)

    @classmethod
    def piecewise(cls, tbreaks, measures):
        tbreaks = [float(t) for t in tbreaks]
        if len(measures) != len(tbreaks) - 1:
            raise LoewnerError("need one measure per time segment")
        na = max(len(m.atoms) for m in measures)
        ns = len(measures)
        pos = np.zeros((ns, na))
        wts = np.zeros((ns, na))
        for j, m in enumerate(measures):
            pos[j, :len(m.atoms)] = m.positions
            wts[j, :len(m.atoms)] = m.weights
        bound = max(max(abs(x) for x, _ in m.atoms) for m in measures)
        return cls(tbreaks, pos, np.zeros_like(pos), wts, tbreaks[-1], bound)

    @classmethod
    def from_driving(cls, driving, horizon=None):
        """Single-atom field at U(t); a constant driving is the one segment
        [0, horizon], and only sampled drivings move between breaks."""
        if horizon is None:
            horizon = driving.horizon()
        if not math.isfinite(horizon):
            raise LoewnerError("constant drivings need an explicit horizon")
        if horizon < 0:
            raise LoewnerError(f"horizon must be >= 0, got {horizon}")
        times = np.asarray(driving.times or (0.0, horizon), dtype=float)
        vals = np.asarray(driving.values)
        pos = vals[:len(times) - 1, None]
        slope = np.zeros_like(pos)
        if driving.kind == "sampled":
            slope = (np.diff(vals) / np.diff(times))[:, None]
        return cls(times, pos, slope, np.ones_like(pos), horizon,
                   driving.bound())

    # -- queries -------------------------------------------------------------

    def atoms(self, t):
        """Field atoms (positions, weights) at time t."""
        j = int(np.clip(np.searchsorted(self.tbreaks, t, side="right") - 1,
                        0, self.pos.shape[0] - 1))
        dt = t - self.tbreaks[j]
        live = self.wts[j] > 0
        return (self.pos[j, live] + self.slope[j, live] * dt,
                self.wts[j, live])

    def is_slit(self):
        """Whether every segment holds at most one live atom, at rest: the
        chain is then a composition of vertical-slit maps, one per segment,
        and flows in closed form."""
        live = self.wts > 0
        return bool(np.all(live.sum(axis=1) <= 1)
                    and not np.any(self.slope[live]))

    def rate(self, t):
        return float(self.atoms(t)[1].sum())

    def scaled(self, c, d):
        """Field of the rescaled chain h_t(z) = f_{d t}(c z) / c."""
        if c <= 0 or d <= 0:
            raise LoewnerError("scaling parameters must be positive")
        return HerglotzField(
            self.tbreaks / d, self.pos / c, self.slope * (d / c),
            self.wts * (d / c**2), self.horizon / d, self.support_bound / c,
        )


# ---------------------------------------------------------------------------
# chain evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainPoint:
    """One chain evaluation with its trajectory diagnostics."""

    s: float
    t: float
    z: complex
    value: complex
    min_imag: float
    steps: int


def _flow(field, tau0, tau1, z, tol, im_floor, escape_error):
    """Flow z from tau0 to tau1: in closed form (``_kernels.slit_batch``)
    when ``field.is_slit()``, else by the Dormand-Prince kernel at ``tol``."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if field.is_slit():
        out, status, min_im, steps = _kernels.slit_batch(
            z, float(tau0), float(tau1), field.tbreaks, field.pos,
            field.wts, float(im_floor))
    else:
        out, status, min_im, steps = _kernels.flow_batch(
            z, float(tau0), float(tau1), field.tbreaks, field.pos,
            field.slope, field.wts, float(tol), float(im_floor))
    if np.any(status == _kernels.FLOW_UNDERFLOW):
        raise StepUnderflow("required step below 1e-14 of the time span, "
                            "or a non-finite error estimate")
    if np.any(status == _kernels.FLOW_ESCAPE):
        raise escape_error("trajectory imaginary part fell below the floor")
    if np.any(status == _kernels.FLOW_STRANGLED):
        # the singularity clamp strangled the step: the trajectory ran into
        # the field support
        if escape_error is HullCollision:
            raise HullCollision("trajectory ran into the hull")
        raise StepUnderflow("step strangled near the field support")
    return out, min_im, steps


def _checked(field, s, t, z, tol, what, var):
    """The arguments every chain entry point shares, as a complex array."""
    if not 0 <= s <= t <= field.horizon + 1e-12:
        raise LoewnerError(f"need 0 <= s <= t <= horizon, got s={s}, t={t}, "
                           f"horizon={field.horizon}")
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise LoewnerError(f"{what} requires finite {var}")
    if np.any(z.imag <= 0):
        raise LoewnerError(f"{what} requires Im({var}) > 0")
    if not (tol > 0 and math.isfinite(tol)):
        raise LoewnerError(f"tol must be finite and > 0, got {tol}")
    return z


def evaluate_chain(field, s, t, z, tol=1e-9):
    """Transition mapping f_{s,t}(z) of the chain driven by the field."""
    z = _checked(field, s, t, z, tol, "chain evaluation", "z")
    out, _, _ = _flow(field, t, s, z, tol, 1e-12, DomainEscape)
    return out[0] if z.ndim == 0 else out


def evaluate_chain_point(field, s, t, z, tol=1e-9):
    """Like evaluate_chain for a single point, with step diagnostics."""
    z = complex(z)
    zs = _checked(field, s, t, [z], tol, "chain evaluation", "z")
    out, min_im, steps = _flow(field, t, s, zs, tol, 1e-12, DomainEscape)
    return ChainPoint(s=float(s), t=float(t), z=z, value=complex(out[0]),
                      min_imag=float(min_im[0]), steps=int(steps[0]))


def slit_chain(driving, t, z, tol=1e-9):
    """f_t(z) = f_{0,t}(z) for the slit field nu_s = delta_{U(s)}."""
    field = HerglotzField.from_driving(driving, horizon=max(t, 1e-300))
    return evaluate_chain(field, 0.0, t, z, tol)


def inverse_flow(field, t, w, tol=1e-9):
    """g_t(w) with f_{0,t}(g_t(w)) = w; raises HullCollision inside the hull."""
    w = _checked(field, 0.0, t, w, tol, "inverse flow", "w")
    out, _, _ = _flow(field, 0.0, t, w, tol, 1e-9, HullCollision)
    return out[0] if w.ndim == 0 else out


def chain_fmap(field, t, tol=1e-9):
    """The chain map f_{0,t}, a vectorized function of a complex array."""
    return lambda z: evaluate_chain(field, 0.0, t, z, tol)


def chain_measure(field, t, grid, tol=1e-9,
                  eps_ladder=transforms.DEFAULT_EPS_LADDER):
    """Recover the measure mu_t with F_{mu_t} = f_{0,t} by inversion."""
    return transforms.measure_from_ftransform(chain_fmap(field, t, tol),
                                              grid, eps_ladder=eps_ladder)


def scale_chain(field, c, d):
    """Field whose chain satisfies h_t(z) = f_{d t}(c z) / c (scaling lemma)."""
    return field.scaled(c, d)


def capacity_fit(fmap, ys=(1e3, 3e3, 1e4)):
    """Half-plane capacity from the 1/z coefficient at the hydrodynamic
    normalization: least-squares fit of Im f(iy) - y against 1/y and 1/y^3.
    """
    ys = np.asarray(ys, dtype=float)
    vals = np.asarray(fmap(1j * ys))
    rhs = vals.imag - ys
    basis = np.stack([1.0 / ys, 1.0 / ys**3], axis=1)
    coef, *_ = np.linalg.lstsq(basis, rhs, rcond=None)
    return float(coef[0])


# ---------------------------------------------------------------------------
# slit approximation of a general field (time-weaving construction)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlitApproximation:
    driving: DrivingFunction
    max_deviation: float
    probes: tuple


def approximate_field_by_slits(field, horizon, m, probe_points=None,
                               tol=1e-8):
    """Piecewise-constant driving function approximating a field with
    support in [0, M].

    The support is split into m bins, each represented by the mass centroid
    of the field atoms it contains (so a field that already is a slit comes
    back unchanged); time is split into m slabs, and within each slab the
    driving function dwells on each bin representative for a duration
    proportional to the bin's field mass at the slab's right endpoint.
    """
    M = field.support_bound
    TT = float(horizon)
    edges = np.linspace(0.0, M, m + 1)
    breaks = [0.0]
    values = []
    slab = TT / m
    for j in range(1, m + 1):
        tj = j * TT / m
        p, w = field.atoms(min(tj, field.horizon))
        if np.any(p < -1e-9) or np.any(p > M + 1e-9):
            raise BoundError("field support leaves [0, M]")
        total = w.sum()
        idx = np.clip(np.searchsorted(edges, p, side="right") - 1, 0, m - 1)
        lam = np.bincount(idx, w / total, m)
        centroid = np.bincount(idx, w / total * p, m)
        for k in range(m):
            if lam[k] <= 1e-12:
                continue
            breaks.append(breaks[-1] + slab * lam[k])
            values.append(centroid[k] / lam[k])
    breaks[-1] = TT  # guard float drift
    driving = DrivingFunction.piecewise(breaks, values)

    if probe_points is None:
        probe_points = (2j, 1 + 2j, -1 + 3j, 0.5 + 1.5j, M / 2 + 2.5j)
    probe_points = tuple(complex(p) for p in probe_points)
    zs = np.array(probe_points)
    target = evaluate_chain(field, 0.0, TT, zs, tol)
    got = slit_chain(driving, TT, zs, tol)
    dev = float(np.abs(target - got).max())
    return SlitApproximation(driving, dev, probe_points)


# ---------------------------------------------------------------------------
# nonlinear resolvents
# ---------------------------------------------------------------------------

def _damped_newton(gen, t, w, tol, max_steps):
    """Solve z - t*G(z) = w entrywise for z in H, starting at z = w.

    The slope is the central difference of phi(z) = z - t*G(z) - w; each
    entry halves its own step, up to 60 times, until |phi| drops with
    Im z > 0.  Entries stop once |phi| <= tol, so every entry takes the
    same steps as it would alone.
    """
    def phi(z, w):
        return z - t * np.asarray(gen(z)) - w

    z = w.copy()
    r = phi(z, w)
    for _ in range(max_steps):
        live = np.flatnonzero(~(np.abs(r) <= tol))
        if live.size == 0:
            return z
        zl, rl, wl = z[live], r[live], w[live]
        h = 1e-7 * np.maximum(1.0, np.abs(zl))
        dphi = (phi(zl + h, wl) - phi(zl - h, wl)) / (2 * h)
        if np.any(dphi == 0):
            raise NoConvergence("vanishing derivative in Newton step")
        step = rl / dphi
        lam = 1.0
        pending = np.ones(live.size, dtype=bool)
        for _ in range(60):
            znew = zl - lam * step
            trial = np.flatnonzero(pending & (znew.imag > 0))
            if trial.size:
                rnew = phi(znew[trial], wl[trial])
                better = np.abs(rnew) < np.abs(rl[trial])
                took = trial[better]
                zl[took], rl[took] = znew[took], rnew[better]
                pending[took] = False
                if not pending.any():
                    break
            lam *= 0.5
        else:
            raise NoConvergence("damping failed to reduce the residual")
        z[live], r[live] = zl, rl
    if np.all(np.abs(r) <= tol):
        return z
    raise NoConvergence(f"residual {np.abs(r).max():.2e} after {max_steps} "
                        "steps")


def _resolvent_points(t, w):
    """``w`` as a 1-d complex array, or a LoewnerError unless t >= 0 and
    every Im w > 0."""
    if t < 0:
        raise LoewnerError("resolvent time must be >= 0")
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    if np.any(w.imag <= 0):
        raise LoewnerError("resolvent requires Im(w) > 0")
    return w


def nonlinear_resolvent(gen, t, w, tol=1e-12, max_steps=200):
    """Solve w = z - t*G(z) for z in H by damped Newton iteration.

    ``gen`` is a Herglotz generator (maps H into H union R).  The iteration
    starts at z = w, halves its step until the residual decreases, and
    polishes to |z - t G(z) - w| <= tol.
    """
    w = _resolvent_points(t, complex(w))
    if t == 0:
        return complex(w[0])
    return complex(_damped_newton(gen, t, w, tol, max_steps)[0])


def resolvent_fmap(gen, t, tol=1e-12):
    """J_t, a vectorized function of a complex array (F-transform of a
    freely infinitely divisible law when gen is time-independent).

    Runs the damped Newton iteration of nonlinear_resolvent on the whole
    array, so each entry equals the one-point result.
    """
    def ev(w):
        w = _resolvent_points(t, w)
        if t == 0:
            return w.copy()
        return _damped_newton(gen, t, w, tol, 200)

    return ev


# ---------------------------------------------------------------------------
# SLE driving
# ---------------------------------------------------------------------------

def sle_driving(kappa, horizon, dt, seed):
    """Sampled driving function with independent N(0, (kappa/2) dt)
    increments, U(0) = 0, on [0, horizon]; deterministic per seed.  The
    horizon must be a whole number of steps dt (to 1e-9 relative)."""
    if not (kappa >= 0 and dt > 0):
        raise LoewnerError("need kappa >= 0 and dt > 0")
    if not horizon > 0:
        raise LoewnerError(f"horizon must be > 0, got {horizon}")
    ratio = horizon / dt
    steps = round(ratio) if math.isfinite(ratio) else 0
    if not (steps >= 1 and abs(steps * dt - horizon) <= 1e-9 * horizon):
        raise LoewnerError(f"horizon {horizon} is not a whole number of "
                           f"steps dt = {dt}")
    times = np.linspace(0.0, steps * dt, steps + 1)
    rng = np.random.default_rng(seed)
    incr = rng.standard_normal(steps) * math.sqrt(kappa / 2 * dt)
    vals = np.concatenate([[0.0], np.cumsum(incr)])
    return DrivingFunction.sampled(times, vals)
