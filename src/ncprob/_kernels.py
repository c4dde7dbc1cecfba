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
"""

import math

import numpy as np

FLOW_OK = 0
FLOW_UNDERFLOW = 1
FLOW_ESCAPE = 2
FLOW_STRANGLED = 3  # singularity clamp forced the step below the floor


def _field(t, z, t0, slots, with_dist=False):
    """G at the points z (one per active point) and, on request, their
    distance to the field support.  ``slots`` holds one (position, slope,
    weight) column per atom slot; slots are summed in order."""
    dt = t - t0
    g, dist = 0.0, 1e300
    for p, s, w in slots:
        diff = z - (p + s * dt)
        g = g + w / diff
        if with_dist:
            ad = np.hypot(diff.real, diff.imag)
            dist = np.where(ad < dist, ad, dist)
    return g, dist


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
    sgn = 1.0 if tau1 >= tau0 else -1.0
    side = "right" if sgn > 0 else "left"
    ns = tbreaks.shape[0] - 1
    min_h = 1e-14 * total
    pad = wts <= 0.0  # padding: a zero-weight atom at infinity, see above
    pos = np.where(pad, np.inf, pos)
    slope = np.where(pad, 0.0, slope)
    wts = np.where(pad, 0.0, wts)

    act = np.arange(n)
    y = out.copy()
    tau = np.full(n, tau0, dtype=np.float64)
    h = np.full(n, sgn * total / 16.0)
    low = min_im.copy()
    nstep = np.zeros(n, dtype=np.int64)

    while act.size:
        rem = tau1 - tau
        j = np.searchsorted(tbreaks, tau, side=side) - 1
        j = np.minimum(np.maximum(j, 0), ns - 1)
        hseg = tbreaks[j + 1] - tau if sgn > 0 else tbreaks[j] - tau
        h = np.where(sgn * h <= 0.0, sgn * min_h, h)
        h = np.where(np.abs(h) > np.abs(rem), rem, h)
        h = np.where((sgn * hseg > 0.0) & (np.abs(h) > np.abs(hseg)), hseg, h)

        t0 = tbreaks[j]
        slots = list(zip(pos[j].T, slope[j].T, wts[j].T))

        k1, dist = _field(tau, y, t0, slots, with_dist=True)
        gm = np.hypot(k1.real, k1.imag)
        clamp = (gm > 0.0) & (dist < 1e299)
        hmax = 0.5 * dist / np.where(clamp, gm, 1.0)
        # the clamp strangles a trajectory heading into the support
        strangled = clamp & (hmax <= min_h) & (sgn * k1.imag <= 0.0)
        # h points towards tau1 with |h| <= |rem|, so the clamped step
        # sgn * hmax needs no further check
        h = np.where(clamp & ~strangled & (np.abs(h) > hmax), sgn * hmax, h)

        # Dormand-Prince 5(4) stages
        k2, _ = _field(tau + h * 0.2, y + h * 0.2 * k1, t0, slots)
        k3, _ = _field(tau + h * 0.3, y + h * (0.075 * k1 + 0.225 * k2),
                       t0, slots)
        k4, _ = _field(tau + h * 0.8,
                       y + h * (0.9777777777777777 * k1
                                - 3.7333333333333334 * k2
                                + 3.5555555555555554 * k3), t0, slots)
        k5, _ = _field(tau + h * 0.8888888888888888,
                       y + h * (2.9525986892242035 * k1
                                - 11.595793324188385 * k2
                                + 9.822892851699436 * k3
                                - 0.2908093278463649 * k4), t0, slots)
        k6, _ = _field(tau + h,
                       y + h * (2.8462752525252526 * k1
                                - 10.757575757575758 * k2
                                + 8.906422717743473 * k3
                                + 0.2784090909090909 * k4
                                - 0.2735313036020583 * k5), t0, slots)
        ynew = y + h * (0.09114583333333333 * k1
                        + 0.44923629829290207 * k3
                        + 0.6510416666666666 * k4
                        - 0.322376179245283 * k5
                        + 0.13095238095238096 * k6)
        k7, _ = _field(tau + h, ynew, t0, slots)
        e = ynew - (y + h * (0.08991319444444444 * k1
                             + 0.4534890685834082 * k3
                             + 0.6140625 * k4
                             - 0.2715123820754717 * k5
                             + 0.08904761904761904 * k6
                             + 0.025 * k7))
        err = np.hypot(e.real, e.imag)

        broken = ~np.isfinite(err) & ~strangled
        accept = ((err <= tol) | (np.abs(h) <= min_h)) & ~strangled & ~broken
        tau = np.where(accept, tau + h, tau)
        y = np.where(accept, ynew, y)
        nstep += accept
        low = np.where(accept & (y.imag < low), y.imag, low)
        escape = accept & (y.imag < im_floor)
        underflow = (accept & (err > tol) & ~escape) | broken

        grow = err > 0.0
        fac = np.where(grow, 0.0, 5.0)
        fac[grow] = [0.9 * math.pow(r, 0.2)
                     for r in (tol / err[grow]).tolist()]
        h = h * np.where(fac < 0.2, 0.2, np.where(fac > 5.0, 5.0, fac))

        done = strangled | escape | underflow | ~(sgn * (tau1 - tau) > 0.0)
        if done.any():
            sel = act[done]
            out[sel] = y[done]
            status[sel] = np.where(
                strangled, FLOW_STRANGLED,
                np.where(escape, FLOW_ESCAPE,
                         np.where(underflow, FLOW_UNDERFLOW, FLOW_OK)))[done]
            min_im[sel] = low[done]
            steps[sel] = nstep[done]
            run = ~done
            act, y, tau, h = act[run], y[run], tau[run], h[run]
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
