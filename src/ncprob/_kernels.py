"""The Loewner flow kernels.

``slit_batch`` is the closed form for fields with at most one live atom
per time segment, at rest (constant and piecewise-constant drivings and
their rescalings): there dy/dtau = w/(y - p) gives (y - p)**2 a change of
2 w dtau over the segment, so the flow is one square root per segment
crossed (the vertical-slit map of the zipper algorithm).  Its ``steps``
counts the segments crossed, and no step size or tolerance enters.

``flow_batch`` integrates the characteristic ODE dy/dtau = G_{nu_tau}(y)
for a field whose atoms move linearly within time segments:

    position_k(tau) = pos[j, k] + slope[j, k] * (tau - tbreaks[j])

on segment j = [tbreaks[j], tbreaks[j+1]); zero-weight atom slots are
padding.  Steps use an embedded Dormand-Prince 5(4) pair, are confined to
one time segment, and are clamped so a single step never moves the
trajectory further than half its distance to the field support.

``flow_batch`` advances all points in lockstep: every point keeps its own
y, tau, step h, segment index, lowest Im y, step count and status, and one
loop iteration makes one step attempt for every point still running, with
the field evaluated on (active points x atom slots) arrays.  A point leaves
the active set when it reaches tau1 or ends with FLOW_ESCAPE,
FLOW_UNDERFLOW or FLOW_STRANGLED; a step whose error estimate is not
finite (a NaN point or field) ends the point as FLOW_UNDERFLOW, because
the step-size control would otherwise retry it forever.  Each point's
result is bit-identical to integrating it alone with scalar numpy
arithmetic in the same operation order (the reference oracle in the
tests), so it does not depend on the other points in its batch.  Four
rules keep that parity and must survive any edit:

* every operation is elementwise, in the scalar order (for example
  ``y + h * 0.2 * k1``), and G sums the atom slots one at a time in slot
  order, never with ``np.sum``, whose pairwise summation rounds otherwise;
* complex magnitudes are ``np.hypot(z.real, z.imag)``: ``np.abs`` on a
  complex array takes a SIMD path that differs from the scalar ``abs`` in
  the last bit;
* the step factor ``(tol/err)**0.2`` is libm ``math.pow`` per point:
  numpy's vectorised ``power`` differs from libm in the last bit;
* a padding slot (weight <= 0, skipped by the scalar loop) becomes a
  zero-weight atom at +inf with zero slope.  For finite y its term w/diff
  is exactly +-0 and its distance is inf, so it changes neither the support
  distance nor G: the parts of G start at +0 and, in round-to-nearest, a
  sum is -0 only when both addends are, so they are never -0 and adding
  +-0 leaves them bitwise unchanged.

The loop's cost is a fixed number of numpy calls per iteration, whatever
the batch size, so it is written to make each call cheap without changing
a bit.  Its constants (the tableau, the stage fractions, tol, the step
floor) are 0-d float64 or complex128 arrays: numpy would convert a Python
number operand to that very value, so the IEEE results are the same, and
the conversion, which costs more than the arithmetic on a small batch, is
done once.  The
step is kept as its size a with h = sgn * a: the scalar rule only ever
replaces h by a value of its own sign (the remaining span, the distance to
the segment end, half the support distance over |G|), so each cap is an
``np.minimum`` of magnitudes, inf where it does not apply, and picks the
same h.  The segment index is ``searchsorted`` on the inner breaks, which
for sorted breaks is the scalar index ``searchsorted(tbreaks) - 1``
clamped to the first and last segment.
"""

import math
from itertools import repeat

import numpy as np

FLOW_OK = 0
FLOW_UNDERFLOW = 1
FLOW_ESCAPE = 2
FLOW_STRANGLED = 3  # singularity clamp forced the step below the floor


# The loop's constants, as 0-d arrays (see above).
_ZERO, _FIFTH, _HALF, _NINE_TENTHS, _ONE, _FIVE = (
    np.array(c) for c in (0.0, 0.2, 0.5, 0.9, 1.0, 5.0))
_NEAR, _FAR, _INF = np.array(1e299), np.array(1e300), np.array(np.inf)
_ZERO_C = np.array(0j)
# Dormand-Prince 5(4): the stage fractions c2..c5, then the rows of the
# tableau as complex 0-d arrays.  Entries are stored without their sign; the
# stage sums in ``flow_batch`` subtract the negative ones, as the scalar
# reference does.
_C = tuple(np.array(c) for c in (0.2, 0.3, 0.8, 0.8888888888888888))
_A = tuple(tuple(np.array(complex(a)) for a in row) for row in (
    (0.075, 0.225),
    (0.9777777777777777, 3.7333333333333334, 3.5555555555555554),
    (2.9525986892242035, 11.595793324188385, 9.822892851699436,
     0.2908093278463649),
    (2.8462752525252526, 10.757575757575758, 8.906422717743473,
     0.2784090909090909, 0.2735313036020583),
    # the fifth-order weights b1, b3..b6, then the fourth-order ones d1,
    # d3..d7 (b2 = d2 = 0)
    (0.09114583333333333, 0.44923629829290207, 0.6510416666666666,
     0.322376179245283, 0.13095238095238096),
    (0.08991319444444444, 0.4534890685834082, 0.6140625, 0.2715123820754717,
     0.08904761904761904, 0.025),
))


def _field(z, atoms, with_dist=False):
    """G at the points z (one per active point) and, on request, their
    distance to the field support.  ``atoms`` holds one (position, weight)
    pair of columns per atom slot, at the time of evaluation; slots are
    summed in order."""
    g, dist = _ZERO_C, _FAR
    for p, w in atoms:
        diff = z - p
        g = g + w / diff
        if with_dist:
            dist = np.fmin(np.hypot(diff.real, diff.imag), dist)
    return g, dist


def _atoms(t, t0, slots):
    """The (position, weight) columns of the atom slots at times t."""
    dt = t - t0
    return [(p + s * dt, w) for p, s, w in slots]


def flow_batch(zs, tau0, tau1, tbreaks, pos, slope, wts, tol, im_floor):
    """Flow every point of ``zs`` from tau0 to tau1.

    Returns (values, status, lowest Im y along each path, accepted steps).
    """
    n = zs.shape[0]
    out = np.array(zs, dtype=np.complex128)
    status = np.zeros(n, dtype=np.int64)
    min_im = out.imag.copy()
    steps = np.zeros(n, dtype=np.int64)
    total = abs(tau1 - tau0)
    if total == 0.0:
        return out, status, min_im, steps
    forward = tau1 >= tau0
    side = "right" if forward else "left"
    inner = tbreaks[1:-1]  # searchsorted here gives the segment index
    k = pos.shape[1]
    pad = wts <= 0.0  # padding: a zero-weight atom at infinity, see above
    # one column per segment: its start, its end in the direction of
    # travel, then the positions, slopes and weights of its slots
    table = np.vstack([tbreaks[:-1], tbreaks[1:] if forward else tbreaks[:-1],
                       np.where(pad, np.inf, pos).T,
                       np.where(pad, 0.0, slope).T,
                       np.where(pad, 0.0, wts).T])
    sgn, min_h, tol, im_floor, tau1 = (
        np.array(float(v)) for v in
        (1.0 if forward else -1.0, 1e-14 * total, tol, im_floor, tau1))
    ((a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (b1, b3, b4, b5, b6),
     (d1, d3, d4, d5, d6, d7)) = _A
    c2, c3, c4, c5 = _C

    act = np.arange(n)
    y = out.copy()
    tau = np.full(n, tau0, dtype=np.float64)
    # the step is h = sgn * a: its size a, and the remaining span
    # r = sgn * (tau1 - tau), are kept as magnitudes
    a = np.full(n, total / 16.0)
    r = np.full(n, total)
    low = min_im.copy()
    nstep = np.zeros(n, dtype=np.int64)

    while act.size:
        t0, end, *cols = table.take(inner.searchsorted(tau, side), 1)
        slots = list(zip(cols[:k], cols[k:2 * k], cols[2 * k:]))
        hseg = sgn * (end - tau)  # <= 0 once past the breaks: no cap
        a = np.minimum(np.minimum(np.where(a <= _ZERO, min_h, a), r),
                       np.where(hseg > _ZERO, hseg, _INF))

        k1, dist = _field(y, _atoms(tau, t0, slots), with_dist=True)
        k1i = k1.imag
        gm = np.hypot(k1.real, k1i)
        clamp = (gm > _ZERO) & (dist < _NEAR)
        hmax = np.where(clamp, _HALF * dist / np.where(clamp, gm, _ONE), _INF)
        # the clamp strangles a trajectory heading into the support
        strangled = (hmax <= min_h) & (k1i <= _ZERO if forward
                                        else k1i >= _ZERO)
        a = np.minimum(a, hmax)
        h = sgn * a
        hc = h.astype(np.complex128)

        # Dormand-Prince 5(4) stages
        h2 = h * c2
        k2, _ = _field(y + h2 * k1, _atoms(tau + h2, t0, slots))
        k3, _ = _field(y + hc * (a31 * k1 + a32 * k2),
                       _atoms(tau + h * c3, t0, slots))
        k4, _ = _field(y + hc * (a41 * k1 - a42 * k2 + a43 * k3),
                       _atoms(tau + h * c4, t0, slots))
        k5, _ = _field(y + hc * (a51 * k1 - a52 * k2 + a53 * k3 - a54 * k4),
                       _atoms(tau + h * c5, t0, slots))
        tau_h = tau + h
        atoms_h = _atoms(tau_h, t0, slots)
        k6, _ = _field(y + hc * (a61 * k1 - a62 * k2 + a63 * k3 + a64 * k4
                                 - a65 * k5), atoms_h)
        ynew = y + hc * (b1 * k1 + b3 * k3 + b4 * k4 - b5 * k5 + b6 * k6)
        k7, _ = _field(ynew, atoms_h)
        e = ynew - (y + hc * (d1 * k1 + d3 * k3 + d4 * k4 - d5 * k5
                              + d6 * k6 + d7 * k7))
        err = np.hypot(e.real, e.imag)

        finite = np.isfinite(err)
        accept = ((err <= tol) | (a <= min_h)) & finite & ~strangled
        tau = np.where(accept, tau_h, tau)
        y = np.where(accept, ynew, y)
        nstep += accept
        yi = y.imag
        low = np.where(yi < low, yi, low)  # y moved only where accepted
        escape = accept & (yi < im_floor)
        # status ranks strangled before escape before underflow
        underflow = (accept & (err > tol)) | ~finite

        grow = err > _ZERO
        ratio = (tol / np.where(grow, err, _ONE)).tolist()
        fac = np.where(grow, _NINE_TENTHS * np.fromiter(
            map(math.pow, ratio, repeat(0.2)), np.float64, len(ratio)), _FIVE)
        a = a * np.minimum(np.maximum(fac, _FIFTH), _FIVE)

        r = sgn * (tau1 - tau)
        run = (r > _ZERO) & ~(strangled | escape | underflow)
        if np.count_nonzero(run) < act.size:
            done = ~run
            sel = act[done]
            out[sel] = y[done]
            status[sel] = np.where(
                strangled, FLOW_STRANGLED,
                np.where(escape, FLOW_ESCAPE,
                         np.where(underflow, FLOW_UNDERFLOW, FLOW_OK)))[done]
            min_im[sel] = low[done]
            steps[sel] = nstep[done]
            act, y, tau, a, r = act[run], y[run], tau[run], a[run], r[run]
            low, nstep = low[run], nstep[run]
    return out, status, min_im, steps


def slit_batch(zs, tau0, tau1, tbreaks, pos, wts, im_floor):
    """Flow every point of ``zs`` from tau0 to tau1 in closed form, for a
    field with at most one live slot (weight > 0) per segment and no slopes.

    Returns what ``flow_batch`` returns.  Segments are walked in the
    direction of travel; the first and last extend past ``tbreaks`` as
    ``flow_batch``'s segment index is clamped.  Each one maps y to
    p + sqrt((y - p)**2 +- 2 w dtau), the root in the closed upper
    half-plane, and one without a live slot leaves y as it is.  Im y is
    monotone along a trajectory, so its lowest value is at the start or at
    a segment end; a point whose lowest Im y is below ``im_floor`` ends as
    FLOW_ESCAPE (``flow_batch`` ends such a start so after its first step,
    which barely moves Im y), else as FLOW_OK.  Every point crosses the
    same segments, so ``steps`` is their number for all of them.
    """
    y = np.array(zs, dtype=np.complex128)
    min_im = y.imag.copy()
    sgn = 1.0 if tau1 >= tau0 else -1.0
    lo, hi = min(tau0, tau1), max(tau0, tau1)
    edges = np.concatenate([[-np.inf], tbreaks[1:-1], [np.inf]])
    span = np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo)
    crossed = np.flatnonzero(span > 0.0)[::int(sgn)]
    for j in crossed:
        live = np.flatnonzero(wts[j] > 0.0)
        if live.size:
            p = pos[j, live[0]]
            d = y - p
            # the root with Im >= 0: i * sqrt(-q) on the principal branch
            y = p + 1j * np.sqrt(-(d * d + sgn * 2.0 * wts[j, live[0]]
                                   * span[j]))
        min_im = np.minimum(min_im, y.imag)
    status = np.where(min_im < im_floor, FLOW_ESCAPE, FLOW_OK)
    steps = np.full(y.shape[0], crossed.size, dtype=np.int64)
    return y, status, min_im, steps
