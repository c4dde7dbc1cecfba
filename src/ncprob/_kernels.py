"""Hot numeric kernels: Loewner flows, Metropolis chunks, Markov episodes.

Loewner flows integrate the characteristic ODE dy/dtau = G_{nu_tau}(y) for a
field whose atoms move linearly within time segments:

    position_k(tau) = pos[j, k] + slope[j, k] * (tau - tbreaks[j])

on segment j = [tbreaks[j], tbreaks[j+1]); zero-weight atom slots are
padding.  Steps use an embedded Dormand-Prince 5(4) pair, are confined to
one time segment, and are clamped so a single step never moves the
trajectory further than half its distance to the field support.
"""

import numpy as np

FLOW_OK = 0
FLOW_UNDERFLOW = 1
FLOW_ESCAPE = 2
FLOW_STRANGLED = 3  # singularity clamp forced the step below the floor


def _field_eval(tau, y, j, tbreaks, pos, slope, wts):
    g = 0j
    dist = 1e300
    dt = tau - tbreaks[j]
    for k in range(pos.shape[1]):
        w = wts[j, k]
        if w <= 0.0:
            continue
        p = pos[j, k] + slope[j, k] * dt
        diff = y - p
        ad = abs(diff)
        if ad < dist:
            dist = ad
        g += w / diff
    return g, dist


def _flow_one(z, tau0, tau1, tbreaks, pos, slope, wts, tol, im_floor):
    y = z
    tau = tau0
    total = abs(tau1 - tau0)
    min_im = y.imag
    steps = 0
    if total == 0.0:
        return y, FLOW_OK, min_im, steps
    sgn = 1.0 if tau1 >= tau0 else -1.0
    ns = tbreaks.shape[0] - 1
    h = sgn * total / 16.0
    min_h = 1e-14 * total

    while sgn * (tau1 - tau) > 0.0:
        rem = tau1 - tau
        if sgn > 0:
            j = int(np.searchsorted(tbreaks, tau, side="right")) - 1
        else:
            j = int(np.searchsorted(tbreaks, tau, side="left")) - 1
        if j < 0:
            j = 0
        if j > ns - 1:
            j = ns - 1
        if sgn > 0:
            hseg = tbreaks[j + 1] - tau
        else:
            hseg = tbreaks[j] - tau
        if sgn * h <= 0.0:
            h = sgn * min_h
        if abs(h) > abs(rem):
            h = rem
        if sgn * hseg > 0.0 and abs(h) > abs(hseg):
            h = hseg

        k1, dist = _field_eval(tau, y, j, tbreaks, pos, slope, wts)
        gm = abs(k1)
        if gm > 0.0 and dist < 1e299:
            hmax = 0.5 * dist / gm
            if hmax <= min_h and (sgn * k1).imag <= 0.0:
                # clamp strangles a trajectory heading into the support
                return y, FLOW_STRANGLED, min_im, steps
            if abs(h) > hmax:
                h = sgn * hmax if sgn * h > 0 else -sgn * hmax
                if abs(h) > abs(rem):
                    h = rem

        # Dormand-Prince 5(4) stages
        k2, _ = _field_eval(tau + h * 0.2, y + h * 0.2 * k1,
                            j, tbreaks, pos, slope, wts)
        k3, _ = _field_eval(tau + h * 0.3, y + h * (0.075 * k1 + 0.225 * k2),
                            j, tbreaks, pos, slope, wts)
        k4, _ = _field_eval(tau + h * 0.8,
                            y + h * (0.9777777777777777 * k1
                                     - 3.7333333333333334 * k2
                                     + 3.5555555555555554 * k3),
                            j, tbreaks, pos, slope, wts)
        k5, _ = _field_eval(tau + h * 0.8888888888888888,
                            y + h * (2.9525986892242035 * k1
                                     - 11.595793324188385 * k2
                                     + 9.822892851699436 * k3
                                     - 0.2908093278463649 * k4),
                            j, tbreaks, pos, slope, wts)
        k6, _ = _field_eval(tau + h,
                            y + h * (2.8462752525252526 * k1
                                     - 10.757575757575758 * k2
                                     + 8.906422717743473 * k3
                                     + 0.2784090909090909 * k4
                                     - 0.2735313036020583 * k5),
                            j, tbreaks, pos, slope, wts)
        ynew = y + h * (0.09114583333333333 * k1
                        + 0.44923629829290207 * k3
                        + 0.6510416666666666 * k4
                        - 0.322376179245283 * k5
                        + 0.13095238095238096 * k6)
        k7, _ = _field_eval(tau + h, ynew, j, tbreaks, pos, slope, wts)
        y4 = y + h * (0.08991319444444444 * k1
                      + 0.4534890685834082 * k3
                      + 0.6140625 * k4
                      - 0.2715123820754717 * k5
                      + 0.08904761904761904 * k6
                      + 0.025 * k7)
        err = abs(ynew - y4)

        if err <= tol or abs(h) <= min_h:
            tau = tau + h
            y = ynew
            steps += 1
            if y.imag < min_im:
                min_im = y.imag
            if y.imag < im_floor:
                return y, FLOW_ESCAPE, min_im, steps
            if err > tol:
                return y, FLOW_UNDERFLOW, min_im, steps
        if err > 0.0:
            fac = 0.9 * (tol / err) ** 0.2
            if fac < 0.2:
                fac = 0.2
            elif fac > 5.0:
                fac = 5.0
        else:
            fac = 5.0
        h = h * fac
    return y, FLOW_OK, min_im, steps


def flow_batch(zs, tau0, tau1, tbreaks, pos, slope, wts, tol, im_floor):
    n = zs.shape[0]
    out = np.empty(n, dtype=np.complex128)
    status = np.zeros(n, dtype=np.int64)
    min_im = np.empty(n, dtype=np.float64)
    steps = np.zeros(n, dtype=np.int64)
    for i in range(n):
        v, st, mi, ns_ = _flow_one(zs[i], tau0, tau1, tbreaks, pos, slope,
                                   wts, tol, im_floor)
        out[i] = v
        status[i] = st
        min_im[i] = mi
        steps[i] = ns_
    return out, status, min_im, steps


# ---------------------------------------------------------------------------
# Metropolis single-flip Ising
# ---------------------------------------------------------------------------

def ising_run(spins, frozen, beta, coupling, field, sites, urand):
    """Consume one chunk of proposals in place; returns accepted count.

    Free boundary; ``sites`` are flat indices, ``urand`` uniforms of the
    same length.
    """
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


# ---------------------------------------------------------------------------
# Markov chain return-time episodes
# ---------------------------------------------------------------------------

def return_time_episodes(cum, start, urand, state, steps, done, total, totalsq):
    """Simulate first-return times to ``start``; consumes one uniform per
    transition.  ``cum[:, s]`` is the cumulative next-state law from s.
    Carries (state, steps) across chunks; returns updated carry and tallies.
    """
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
