import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncprob import _kernels
from ncprob import loewner as lw
from ncprob import measures as ms
from ncprob import transforms as tr

PROBES = np.array([2j, 1 + 1j, -0.5 + 0.7j, 3 + 0.5j, 0.1 + 2j,
                   -2 + 0.4j, 0.5 + 3j])


def zero_driving():
    return lw.DrivingFunction.constant(0.0)


def zero_field(horizon=1.0):
    return lw.HerglotzField.from_driving(zero_driving(), horizon=horizon)


def random_pc_field(seed, horizon=1.0, segments=3):
    rng = np.random.default_rng(seed)
    breaks = np.concatenate([[0.0], np.sort(rng.uniform(0, horizon,
                                                        segments - 1)),
                             [horizon]])
    measures = []
    for _ in range(segments):
        xs = np.sort(rng.uniform(-1.5, 1.5, 2)) + [0, 1e-6]
        w = rng.uniform(0.2, 0.8)
        measures.append(ms.AtomicMeasure(((xs[0], w), (xs[1], 1 - w))))
    return lw.HerglotzField.piecewise(breaks, measures)


def scaled(field, c, d):
    """The field of the rescaled chain h_t(z) = f_{d t}(c z) / c."""
    return lw.HerglotzField(field.tbreaks / d, field.pos / c,
                            field.slope * (d / c), field.wts * (d / c**2),
                            field.horizon / d)


# ---------------------------------------------------------------------------
# reference oracle: the scalar per-point Dormand-Prince kernel.  The lockstep
# ``_kernels.flow_batch`` must reproduce it bit for bit, point by point.
# ---------------------------------------------------------------------------

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
        return y, _kernels.FLOW_OK, min_im, steps
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
                return y, _kernels.FLOW_STRANGLED, min_im, steps
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
        if not math.isfinite(err):
            return y, _kernels.FLOW_UNDERFLOW, min_im, steps

        if err <= tol or abs(h) <= min_h:
            tau = tau + h
            y = ynew
            steps += 1
            if y.imag < min_im:
                min_im = y.imag
            if y.imag < im_floor:
                return y, _kernels.FLOW_ESCAPE, min_im, steps
            if err > tol:
                return y, _kernels.FLOW_UNDERFLOW, min_im, steps
        if err > 0.0:
            fac = 0.9 * (tol / err) ** 0.2
            if fac < 0.2:
                fac = 0.2
            elif fac > 5.0:
                fac = 5.0
        else:
            fac = 5.0
        h = h * fac
    return y, _kernels.FLOW_OK, min_im, steps


def reference_flow_batch(zs, tau0, tau1, tbreaks, pos, slope, wts, tol,
                         im_floor):
    results = [_flow_one(z, tau0, tau1, tbreaks, pos, slope, wts, tol,
                         im_floor) for z in zs]
    return (np.array([r[0] for r in results], dtype=np.complex128),
            np.array([r[1] for r in results], dtype=np.int64),
            np.array([r[2] for r in results], dtype=np.float64),
            np.array([r[3] for r in results], dtype=np.int64))


def assert_flows_identical(got, want):
    for name, g, w in zip(("values", "status", "min_im", "steps"), got, want):
        np.testing.assert_array_equal(g, w, err_msg=name, strict=True)


@st.composite
def flow_problems(draw):
    """A random field (constant, piecewise or sampled, several atom slots
    with padding of weight <= 0 and arbitrary position and slope), a span
    in either direction and a batch."""
    kind = draw(st.sampled_from(["constant", "piecewise", "sampled"]))
    segments = 1 if kind == "constant" else draw(st.integers(1, 8))
    slots = draw(st.integers(1, 3))
    n = draw(st.integers(0, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    horizon = rng.uniform(0.05, 1.0)
    tbreaks = np.concatenate([[0.0], np.sort(rng.uniform(0, horizon,
                                                         segments - 1)),
                              [horizon]])
    pos = rng.uniform(-1.5, 1.5, (segments, slots))
    slope = (rng.uniform(-3.0, 3.0, (segments, slots)) if kind == "sampled"
             else np.zeros((segments, slots)))
    wts = rng.uniform(0.05, 1.0, (segments, slots))
    pad = rng.random((segments, slots)) < 0.3
    wts[pad] = rng.choice([0.0, -0.5, -np.inf], pad.sum())
    pos[pad] = rng.choice([0.0, 1e300, np.nan], pad.sum())
    slope[pad] = rng.choice([0.0, 2.0, np.nan], pad.sum())
    span = draw(st.sampled_from(["backward", "forward", "empty"]))
    taus = (np.sort(rng.uniform(0.0, horizon, 2)) if draw(st.booleans())
            else (0.0, horizon))
    tau0, tau1 = {"backward": (taus[1], taus[0]),
                  "forward": (taus[0], taus[1]),
                  "empty": (taus[0], taus[0])}[span]
    zs = rng.uniform(-2.5, 2.5, n) + 1j * 10.0 ** rng.uniform(-6, 0.5, n)
    tol = draw(st.sampled_from([1e-6, 1e-9, 1e-11]))
    im_floor = draw(st.sampled_from([1e-12, 1e-9, 1e-2]))
    return (zs, float(tau0), float(tau1), tbreaks, pos, slope, wts, tol,
            im_floor)


ZERO_SLIT = (np.array([0.0, 1.0]), np.zeros((1, 1)), np.zeros((1, 1)),
             np.ones((1, 1)))


class TestLockstepFlow:
    @given(problem=flow_problems(), perm_seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_reference(self, problem, perm_seed):
        zs, *rest = problem
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # finite input warns nothing
            got = _kernels.flow_batch(zs, *rest)
        assert_flows_identical(got, reference_flow_batch(zs, *rest))
        # a point's result does not depend on the rest of its batch
        perm = np.random.default_rng(perm_seed).permutation(zs.size)
        shuffled = _kernels.flow_batch(zs[perm], *rest)
        assert_flows_identical(tuple(a[np.argsort(perm)] for a in shuffled),
                               got)
        for i in range(min(zs.size, 2)):
            alone = _kernels.flow_batch(zs[i:i + 1], *rest)
            assert_flows_identical(alone, tuple(a[i:i + 1] for a in got))

    @pytest.mark.parametrize("im_floor, code", [
        (1e-9, _kernels.FLOW_STRANGLED),  # inverse flow into the slit hull
        (0.5, _kernels.FLOW_ESCAPE),      # Im falls below a high floor
    ])
    def test_terminal_statuses(self, im_floor, code):
        zs = np.array([0.5j, 1.0j, 0.3 + 0.6j, 2 + 1j, -1.4 + 0.05j])
        args = (zs, 0.0, 1.0, *ZERO_SLIT, 1e-10, im_floor)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _kernels.flow_batch(*args)
        assert code in got[1] and _kernels.FLOW_OK in got[1]
        assert_flows_identical(got, reference_flow_batch(*args))

    def test_nonfinite_error_ends_as_underflow(self):
        zs = np.array([complex(np.nan, 1.0), 1.0j, complex(np.inf, 1.0),
                       complex(0.5, np.nan)])
        args = (zs, 1.0, 0.0, *ZERO_SLIT, 1e-9, 1e-12)
        with np.errstate(invalid="ignore"):
            got = _kernels.flow_batch(*args)
            assert_flows_identical(got, reference_flow_batch(*args))
        assert got[1].tolist() == [_kernels.FLOW_UNDERFLOW, _kernels.FLOW_OK,
                                   _kernels.FLOW_UNDERFLOW,
                                   _kernels.FLOW_UNDERFLOW]

    def test_nonfinite_field_raises_loewner_error(self):
        good = ([0.0, 1.0], [[0.0]], [[0.0]], [[1.0]])
        for i, name in enumerate(("time breaks", "positions", "slopes",
                                  "weights")):
            for bad in (np.nan, np.inf, -np.inf):
                arrays = [np.array(a, dtype=float) for a in good]
                arrays[i].flat[-1] = bad
                with pytest.raises(ms.NcprobError, match=name):
                    lw.HerglotzField(*arrays, 1.0)

    def test_nan_field_arrays_end_as_underflow(self):
        # the kernel itself still ends a point whose field value is NaN
        zs = np.array([1j, 2j, 0.5 + 0.1j])
        for pos, slope in (([[np.nan]], [[0.0]]), ([[0.0]], [[np.nan]])):
            args = (zs, 1.0, 0.0, np.array([0.0, 1.0]), np.array(pos),
                    np.array(slope), np.ones((1, 1)), 1e-9, 1e-12)
            with np.errstate(invalid="ignore"):
                got = _kernels.flow_batch(*args)
                assert_flows_identical(got, reference_flow_batch(*args))
            assert got[1].tolist() == [_kernels.FLOW_UNDERFLOW] * zs.size

    def test_backward_slit_batch(self):
        zs = np.linspace(-1.75, 1.75, 41) + 1e-6j
        args = (zs, 1.0, 0.0, *ZERO_SLIT, 1e-9, 1e-12)
        assert_flows_identical(_kernels.flow_batch(*args),
                               reference_flow_batch(*args))

    @staticmethod
    def moving_field(tbreaks, slots=2, seed=0):
        rng = np.random.default_rng(seed)
        shape = (len(tbreaks) - 1, slots)
        return (np.array(tbreaks, dtype=float), rng.uniform(-1.5, 1.5, shape),
                rng.uniform(-3.0, 3.0, shape), rng.uniform(0.1, 1.0, shape))

    ZS = np.array([2j, 1 + 1j, -0.5 + 0.7j, 0.1 + 0.05j, -2 + 0.4j,
                   0.3 + 1e-4j])

    @pytest.mark.parametrize("tbreaks", [
        [0.0, 0.3, 0.3, 0.7, 1.0],
        [0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 1.0],
    ])
    @pytest.mark.parametrize("tau0, tau1", [
        (0.0, 1.0), (1.0, 0.0), (0.3, 0.7), (0.7, 0.3), (0.5, 1.0),
        (0.5, 0.0),
    ])
    def test_zero_length_segments(self, tbreaks, tau0, tau1):
        args = (self.ZS, tau0, tau1, *self.moving_field(tbreaks), 1e-9,
                1e-12)
        assert_flows_identical(_kernels.flow_batch(*args),
                               reference_flow_batch(*args))

    @pytest.mark.parametrize("tau0, tau1", [
        (0.0, 1.0), (-0.5, 0.1), (0.05, 0.15), (0.9, 1.3), (0.85, 1.0),
        (-0.2, 1.2),
    ])
    @pytest.mark.parametrize("backward", [False, True])
    def test_span_beyond_breaks(self, tau0, tau1, backward):
        # the breaks cover [0.2, 0.8]: the first and last segment extend
        if backward:
            tau0, tau1 = tau1, tau0
        args = (self.ZS, tau0, tau1, *self.moving_field([0.2, 0.5, 0.8]),
                1e-9, 1e-12)
        assert_flows_identical(_kernels.flow_batch(*args),
                               reference_flow_batch(*args))

    @pytest.mark.parametrize("tau0, tau1", [(0.0, 1.0), (1.0, 0.0),
                                            (0.45, 0.55), (0.55, 0.45)])
    def test_all_padding_segment(self, tau0, tau1):
        # no live atom on [0.4, 0.6]: G = 0, the error is 0 and the step
        # grows by the factor 5
        tbreaks, pos, slope, wts = self.moving_field([0.0, 0.4, 0.6, 1.0])
        wts[1] = [0.0, -1.0]
        args = (self.ZS, tau0, tau1, tbreaks, pos, slope, wts, 1e-9, 1e-12)
        got = _kernels.flow_batch(*args)
        assert_flows_identical(got, reference_flow_batch(*args))
        if min(tau0, tau1) >= 0.4:
            np.testing.assert_array_equal(got[0], self.ZS)


class TestDrivingFunction:
    def test_kinds(self):
        u = lw.DrivingFunction.piecewise([0, 1, 2], [0.5, -0.5])
        assert u(0.5) == 0.5 and u(1.5) == -0.5
        s = lw.DrivingFunction.sampled([0, 1], [0, 2])
        assert s(0.25) == 0.5
        with pytest.raises(ms.NcprobError,
                           match=r"need len\(times\) == len\(values\) \+ 1"):
            lw.DrivingFunction.piecewise([0, 1], [1, 2])

    def test_json_roundtrip(self):
        u = lw.DrivingFunction.sampled([0, 0.5, 1], [0, 1, 0.5])
        back = lw.DrivingFunction.from_json(u.to_json())
        assert back == u

    @pytest.mark.parametrize("driving", [
        lambda: lw.DrivingFunction.constant(math.nan),
        lambda: lw.DrivingFunction.piecewise([0, 1, math.inf], [0.5, 0.0]),
        lambda: lw.DrivingFunction.sampled([0, 1], [0.0, -math.inf]),
    ], ids=["nan-value", "inf-time", "inf-sample"])
    def test_nonfinite_rejected(self, driving):
        with pytest.raises(ms.NcprobError, match="must be finite"):
            driving()

    @pytest.mark.parametrize("call", [
        lambda z: lw.slit_chain(zero_driving(), 1.0, z),
        lambda z: lw.evaluate_chain(zero_field(), 0.0, 1.0, np.array([z])),
        lambda z: lw.evaluate_chain_point(zero_field(), 0.0, 1.0, z),
        lambda z: lw.inverse_flow(zero_field(), 1.0, np.array([1j, z])),
    ], ids=["slit_chain", "evaluate_chain", "evaluate_chain_point",
            "inverse_flow"])
    @pytest.mark.parametrize("z", [complex(math.nan, 1.0),
                                   complex(0.0, math.inf)])
    def test_nonfinite_points_rejected(self, call, z):
        with pytest.raises(ms.NcprobError, match="finite"):
            call(z)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ms.NcprobError, match="horizon must be >= 0"):
            lw.HerglotzField.from_driving(zero_driving(), horizon=-1.0)


# ---------------------------------------------------------------------------
# reference: HerglotzField.from_driving with one branch per driving kind
# ---------------------------------------------------------------------------

def reference_from_driving(driving, horizon=None):
    if horizon is None:
        horizon = driving.horizon()
    if driving.kind == "constant":
        return lw.HerglotzField.constant(
            ms.AtomicMeasure.dirac(driving.values[0]), horizon)
    if driving.kind == "piecewise_constant":
        times = np.asarray(driving.times)
        vals = np.asarray(driving.values)
        pos = vals[:, None]
        return lw.HerglotzField(times, pos, np.zeros_like(pos),
                                np.ones_like(pos), horizon)
    times = np.asarray(driving.times)
    vals = np.asarray(driving.values)
    pos = vals[:-1, None]
    slope = ((vals[1:] - vals[:-1]) / np.diff(times))[:, None]
    return lw.HerglotzField(times, pos, slope, np.ones_like(pos), horizon)


def slit_edge_gap(u, t):
    """Distance from the atom of the slit at constant u to its support."""
    return math.sqrt(u * u + 2 * t) - math.sqrt(2 * t)


def assert_same_field(got, want):
    for name in ("tbreaks", "pos", "slope", "wts"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.horizon == want.horizon


class TestFromDriving:
    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["constant", "piecewise_constant",
                                 "sampled"]),
           segments=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           horizon=st.one_of(st.none(), st.floats(0.0, 5.0)))
    def test_matches_branch_reference(self, kind, segments, seed, horizon):
        rng = np.random.default_rng(seed)
        values = rng.normal(0.0, 2.0, segments + 1)
        times = np.cumsum(np.concatenate([[rng.uniform(0, 1)],
                                          rng.uniform(1e-3, 1, segments)]))
        if kind == "constant":
            driving = lw.DrivingFunction.constant(values[0])
            horizon = 1.0 if horizon is None else horizon
        elif kind == "piecewise_constant":
            driving = lw.DrivingFunction.piecewise(times, values[:-1])
        else:
            driving = lw.DrivingFunction.sampled(times, values)
        assert_same_field(lw.HerglotzField.from_driving(driving, horizon),
                          reference_from_driving(driving, horizon))

    @pytest.mark.parametrize("driving, horizon", [
        (lw.DrivingFunction.constant(0.0), 1.0),
        (lw.DrivingFunction.constant(0.023648), 1),
        (lw.DrivingFunction.constant(-3.5), 0.0),
        (lw.sle_driving(2.0, 1.0, 0.01, 7), None),
        (lw.sle_driving(2.0, 1.0, 0.01, 7), 0.5),
        (lw.DrivingFunction.piecewise([0, 0.3, 1], [1.0, -2.0]), None),
    ])
    def test_known_drivings(self, driving, horizon):
        assert_same_field(lw.HerglotzField.from_driving(driving, horizon),
                          reference_from_driving(driving, horizon))

    def test_piecewise_empty_measure_list(self):
        with pytest.raises(ms.NcprobError, match="measure list is empty"):
            lw.HerglotzField.piecewise([0], [])

    @pytest.mark.parametrize("segment", [
        ms.Semicircle().to_measure(), ((0.0, 1.0),), ms.Semicircle()])
    def test_segments_must_be_atomic(self, segment):
        dirac = ms.AtomicMeasure.dirac(0.0)
        for build in (lambda: lw.HerglotzField.piecewise([0, 1], [segment]),
                      lambda: lw.HerglotzField.piecewise(
                          [0, 1, 2], [dirac, segment]),
                      lambda: lw.HerglotzField.constant(segment, 1.0)):
            with pytest.raises(ms.NcprobError,
                               match="field segments take AtomicMeasures"):
                build()

    @pytest.mark.parametrize("atoms, horizon", [
        (((0.0, 1.0),), 1.0), (((-1.5, 0.25), (0.3, 0.75)), 2),
        (((0.1, 0.2), (0.4, 0.3), (2.0, 0.5)), 0.0)])
    def test_constant_is_one_piecewise_segment(self, atoms, horizon):
        mu = ms.AtomicMeasure(atoms)
        got = lw.HerglotzField.constant(mu, horizon)
        assert_same_field(got, lw.HerglotzField.piecewise([0.0, horizon],
                                                          [mu]))
        # the field the constant builder made on its own
        p, w = mu.positions[None, :], mu.weights[None, :]
        assert_same_field(got, lw.HerglotzField(
            [0.0, horizon], p, np.zeros_like(p), w, horizon))


class TestChainArguments:
    """evaluate_chain, evaluate_chain_point and inverse_flow share one check
    of the times, the points and tol."""

    CALLS = {
        "evaluate_chain": lambda f, tol: lw.evaluate_chain(f, 0.0, 1.0, 3j,
                                                           tol),
        "evaluate_chain_point": lambda f, tol: lw.evaluate_chain_point(
            f, 0.0, 1.0, 3j, tol),
        "inverse_flow": lambda f, tol: lw.inverse_flow(f, 1.0, 3j, tol),
    }

    @pytest.mark.parametrize("s, t", [(0.0, 5.0), (0.8, 0.2), (-1.0, 0.5)])
    @pytest.mark.parametrize("call", [lw.evaluate_chain,
                                      lw.evaluate_chain_point])
    def test_time_range(self, call, s, t):
        with pytest.raises(ms.NcprobError,
                           match="need 0 <= s <= t <= horizon"):
            call(zero_field(1.0), s, t, 1j)

    def test_inverse_flow_time_range(self):
        with pytest.raises(ms.NcprobError,
                           match="need 0 <= s <= t <= horizon"):
            lw.inverse_flow(zero_field(1.0), 5.0, 1j)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_bad_tol(self, name, tol):
        self.CALLS[name](zero_field(1.0), 1e-9)
        with pytest.raises(ms.NcprobError,
                           match="tol must be finite and > 0"):
            self.CALLS[name](zero_field(1.0), tol)


class TestChainClosedForms:
    def test_identity_at_equal_times(self):
        f = zero_field()
        out = lw.evaluate_chain(f, 0.3, 0.3, PROBES)
        assert np.abs(out - PROBES).max() < 1e-14

    def test_vertical_slit(self):
        got = lw.slit_chain(zero_driving(), 1.0, PROBES, tol=1e-10)
        want = tr.sqrt_upper(PROBES**2 - 2)
        assert np.abs(got - want).max() < 1e-6

    def test_zero_time(self):
        got = lw.slit_chain(zero_driving(), 0.0, PROBES)
        assert np.abs(got - PROBES).max() < 1e-14

    def test_constant_slit_free_meixner(self):
        for n, u in ((1, 1.0), (2, 1.0), (2, 0.5)):
            got = lw.slit_chain(lw.DrivingFunction.constant(u), 2.0 * n,
                                PROBES, tol=1e-10)
            want = tr.sqrt_upper((PROBES - u) ** 2 - 4 * n) + u
            assert np.abs(got - want).max() < 1e-6

    def test_constant_slit_free_meixner_dopri(self):
        # the same identities through the Dormand-Prince kernel, which the
        # chain no longer runs for slit fields
        for n, u in ((1, 1.0), (2, 1.0), (2, 0.5)):
            field = lw.HerglotzField.from_driving(
                lw.DrivingFunction.constant(u), 2.0 * n)
            got, status, _, _ = dopri(field, 2.0 * n, 0.0, PROBES, 1e-10)
            want = tr.sqrt_upper((PROBES - u) ** 2 - 4 * n) + u
            assert np.all(status == _kernels.FLOW_OK)
            assert np.abs(got - want).max() < 1e-6

    def test_imaginary_part_monotone(self):
        field = random_pc_field(7)
        out = lw.evaluate_chain(field, 0.0, 1.0, PROBES, tol=1e-10)
        assert np.all(out.imag >= PROBES.imag - 1e-12)

    def test_chain_point_diagnostics(self):
        field = random_pc_field(4)
        cp = lw.evaluate_chain_point(field, 0.0, 1.0, 0.5 + 0.2j, tol=1e-10)
        assert cp.steps > 0
        assert cp.min_imag >= 0.2 - 1e-12  # Im only grows along the flow
        assert cp.value == lw.evaluate_chain(field, 0.0, 1.0,
                                             np.array([0.5 + 0.2j]),
                                             tol=1e-10)[0]

    def test_hemigroup_composition(self):
        for seed in (1, 2, 3):
            field = random_pc_field(seed)
            s, t = 0.25, 0.85
            lhs = lw.evaluate_chain(field, 0.0, t, PROBES, tol=1e-11)
            inner = lw.evaluate_chain(field, s, t, PROBES, tol=1e-11)
            rhs = lw.evaluate_chain(field, 0.0, s, inner, tol=1e-11)
            assert np.abs(lhs - rhs).max() < 1e-6


class TestInverseFlow:
    def test_zero_time(self):
        f = zero_field()
        assert lw.inverse_flow(f, 0.0, 3j) == 3j

    def test_vertical_slit_inverse(self):
        got = lw.inverse_flow(zero_field(), 1.0, 3j, tol=1e-10)
        assert abs(got - tr.sqrt_upper(np.array([-9 + 2]))[0]) < 1e-6

    def test_roundtrip(self):
        field = random_pc_field(11)
        rng = np.random.default_rng(0)
        ws = rng.uniform(-2, 2, 20) + 1j * rng.uniform(2.5, 4, 20)
        g = np.array([lw.inverse_flow(field, 1.0, w, tol=1e-11) for w in ws])
        back = lw.evaluate_chain(field, 0.0, 1.0, g, tol=1e-11)
        assert np.abs(back - ws).max() < 1e-5

    def test_sampled_driving_roundtrip(self):
        # the Kufarev-type family U(s) = sqrt(1 - s), linearly sampled
        times = np.linspace(0.0, 1.0, 201)
        driving = lw.DrivingFunction.sampled(times, np.sqrt(1 - times))
        field = lw.HerglotzField.from_driving(driving, horizon=1.0)
        w = 3j
        g = lw.inverse_flow(field, 1.0, w, tol=1e-10)
        back = lw.evaluate_chain(field, 0.0, 1.0, g, tol=1e-10)
        assert abs(back - w) < 1e-6

    def test_hull_collision_on_slit(self):
        # the hull of U = 0 at time t is the segment (0, i sqrt(2t))
        f = zero_field()
        for w in (0.5j, 1.0j, 1.4j):
            with pytest.raises(lw.HullCollision):
                lw.inverse_flow(f, 1.0, w, tol=1e-10)
        for w in (1.45j, 0.05 + 0.5j, -0.05 + 1j):
            lw.inverse_flow(f, 1.0, w, tol=1e-10)


# ---------------------------------------------------------------------------
# closed-form slit flows: ``_kernels.slit_batch`` against the Dormand-Prince
# kernel, which stays the reference for every field
# ---------------------------------------------------------------------------

def dopri(field, tau0, tau1, zs, tol, im_floor=1e-12):
    """``flow_batch`` on any field, as ``_flow`` would call it."""
    return _kernels.flow_batch(np.asarray(zs, dtype=complex), float(tau0),
                               float(tau1), field.tbreaks, field.pos,
                               field.slope, field.wts, tol, im_floor)


def closed_form(field, tau0, tau1, zs, im_floor=1e-12):
    return _kernels.slit_batch(np.asarray(zs, dtype=complex), float(tau0),
                               float(tau1), field.tbreaks, field.pos,
                               field.wts, im_floor)


@st.composite
def slit_problems(draw):
    """A single-atom piecewise-constant field of 1-5 segments (from a
    driving, possibly rescaled, padded with a zero-weight slot or with an
    empty segment), times 0 <= s <= t with t at the horizon half of the
    time, and 40 points with Im from 1e-6 to 3.  The driving's times lie
    anywhere in [0, horizon], so the first and last segments extend to
    0 and to the horizon."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    segments = draw(st.integers(1, 5))
    horizon = rng.uniform(0.1, 2.0)
    breaks = np.sort(rng.uniform(0, horizon, segments + 1))
    field = lw.HerglotzField.from_driving(
        lw.DrivingFunction.piecewise(breaks, rng.uniform(-1, 1, segments)),
        horizon)
    if draw(st.booleans()):
        field = scaled(field, rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
    pad = draw(st.sampled_from(["none", "slot", "segment"]))
    if pad != "none":
        pos = np.hstack([field.pos, rng.uniform(-1, 1, (segments, 1))])
        wts = np.hstack([field.wts, np.zeros((segments, 1))])
        if pad == "segment":
            wts[rng.integers(segments)] = 0.0
        field = lw.HerglotzField(field.tbreaks, pos, np.zeros_like(pos), wts,
                                 field.horizon)
    s, t = np.sort(rng.uniform(0.0, field.horizon, 2))
    if draw(st.booleans()):
        t = field.horizon
    zs = rng.uniform(-3, 3, 40) + 1j * 10.0 ** rng.uniform(-6, math.log10(3),
                                                           40)
    return field, float(s), float(t), zs


def assert_near_dopri(field, tau0, tau1, zs, got, want):
    """``got`` (closed form) within 1e-8 max(1, |y|) max(1, |f'(z)|) of
    ``want`` (Dormand-Prince at tol 1e-12) wherever both end FLOW_OK.

    The flow's local error of 1e-12 per step, over up to about 400 steps,
    grows by the derivative of the map, which is large for points next to
    the real axis near a support edge: there the Dormand-Prince value was
    off by up to 3.5e-8 where the closed form agreed with a 40-digit
    evaluation to 1e-14.  |f'(z)| is a central difference of the closed
    form.
    """
    h = 1e-3 * zs.imag
    ends = [closed_form(field, tau0, tau1, zs + d)[0] for d in (h, -h)]
    slope = np.abs(ends[0] - ends[1]) / (2 * h)
    ok = (got[1] == _kernels.FLOW_OK) & (want[1] == _kernels.FLOW_OK)
    err = (np.abs(got[0] - want[0]) / np.maximum(1.0, np.abs(want[0]))
           / np.maximum(1.0, slope))[ok]
    assert err.max(initial=0.0) <= 1e-8, err.max()


class TestSlitBatch:
    @given(problem=slit_problems())
    @settings(max_examples=100, deadline=None)
    def test_backward_matches_dopri(self, problem):
        field, s, t, zs = problem
        assert field.is_slit()
        got = closed_form(field, t, s, zs)
        want = dopri(field, t, s, zs, 1e-12)
        assert np.all(got[1] == _kernels.FLOW_OK)
        assert np.all(want[1] == _kernels.FLOW_OK)
        assert_near_dopri(field, t, s, zs, got, want)
        # Im y rises along a backward flow, so its lowest value is Im z
        assert np.all(got[2] <= zs.imag)
        np.testing.assert_allclose(got[2], zs.imag, rtol=1e-12)
        inner = np.sum((field.tbreaks[1:-1] > s) & (field.tbreaks[1:-1] < t))
        assert np.all(got[3] == (inner + 1 if s < t else 0))

    @given(problem=slit_problems())
    @settings(max_examples=100, deadline=None)
    def test_forward_matches_dopri(self, problem):
        field, s, t, zs = problem
        got = closed_form(field, s, t, zs, im_floor=1e-9)
        want = dopri(field, s, t, zs, 1e-12, im_floor=1e-9)
        hit = got[1] != _kernels.FLOW_OK
        assert np.all(hit == (want[1] != _kernels.FLOW_OK))
        assert_near_dopri(field, s, t, zs, got, want)
        # Im y falls along a forward flow, so its lowest value is the last
        np.testing.assert_allclose(got[2][~hit], got[0][~hit].imag,
                                   rtol=1e-12)

    def test_hull_collision_like_dopri(self, monkeypatch):
        # TestInverseFlow's points: three on the hull of U = 0 at t = 1,
        # the segment (0, i sqrt(2)), and three beside or above it
        ws = (0.5j, 1.0j, 1.4j, 1.45j, 0.05 + 0.5j, -0.05 + 1j)

        def outcomes():
            got = []
            for w in ws:
                try:
                    got.append(lw.inverse_flow(zero_field(), 1.0, w,
                                               tol=1e-10))
                except lw.HullCollision:
                    got.append(None)
            return got

        closed = outcomes()
        monkeypatch.setattr(lw.HerglotzField, "is_slit", lambda self: False)
        flowed = outcomes()
        assert [v is None for v in closed] == [True] * 3 + [False] * 3
        assert [v is None for v in flowed] == [True] * 3 + [False] * 3
        want = tr.sqrt_upper(np.array(ws[3:]) ** 2 + 2)
        assert np.abs(np.array(closed[3:]) - want).max() < 1e-12
        assert np.abs(np.array(flowed[3:]) - want).max() < 1e-6

    def test_start_below_floor(self):
        # a start below the floor escapes, as in flow_batch, whose first
        # step along the real axis barely moves Im y; the closed form
        # itself would lift 0.5 + 1e-13i to 1.32i
        zs = np.array([0.5 + 1e-13j, 3 + 1e-14j])
        for kernel in (closed_form(zero_field(), 1.0, 0.0, zs),
                       dopri(zero_field(), 1.0, 0.0, zs, 1e-9)):
            assert np.all(kernel[1] == _kernels.FLOW_ESCAPE)
            assert np.all(kernel[2] == zs.imag)

    def test_tol_unused(self):
        field = lw.HerglotzField.from_driving(
            lw.DrivingFunction.piecewise([0, 0.4, 1], [0.3, -0.2]))
        rough = lw.evaluate_chain(field, 0.0, 1.0, PROBES, tol=1e-3)
        fine = lw.evaluate_chain(field, 0.0, 1.0, PROBES, tol=1e-13)
        assert rough.tobytes() == fine.tobytes()

    SLITS = {
        "constant": lambda: zero_field(),
        "piecewise-driving": lambda: lw.HerglotzField.from_driving(
            lw.DrivingFunction.piecewise([0, 0.3, 1], [1.0, -2.0])),
        "constant-dirac": lambda: lw.HerglotzField.constant(
            ms.AtomicMeasure.dirac(0.5), 1.0),
        "piecewise-dirac": lambda: lw.HerglotzField.piecewise(
            [0, 0.5, 1], [ms.AtomicMeasure.dirac(0.2),
                          ms.AtomicMeasure.dirac(-0.4)]),
        "padded": lambda: lw.HerglotzField(
            [0, 0.5, 1], [[0.2, 3.0], [-0.4, 0.0]], np.zeros((2, 2)),
            [[1.0, 0.0], [0.0, 1.0]], 1.0),
        "scaled": lambda: scaled(zero_field(2.0), 2.0, 2.0),
    }
    FLOWED = {
        "sampled": lambda: lw.HerglotzField.from_driving(
            lw.sle_driving(2.0, 1.0, 0.1, seed=3)),
        "two-atom": lambda: lw.HerglotzField.constant(
            ms.AtomicMeasure(((0.0, 0.5), (1.0, 0.5))), 1.0),
        "two-atom-piecewise": lambda: random_pc_field(5),
        "scaled-two-atom": lambda: scaled(random_pc_field(5), 2.0, 2.0),
    }

    @pytest.mark.parametrize("name", [*SLITS, *FLOWED])
    def test_dispatch(self, monkeypatch, name):
        field = {**self.SLITS, **self.FLOWED}[name]()
        calls = []
        for kernel in ("flow_batch", "slit_batch"):
            def counted(*args, kernel=kernel, run=getattr(_kernels, kernel)):
                calls.append(kernel)
                return run(*args)
            monkeypatch.setattr(_kernels, kernel, counted)
        lw.evaluate_chain(field, 0.0, field.horizon, PROBES)
        lw.inverse_flow(field, field.horizon, 3j)
        want = "slit_batch" if name in self.SLITS else "flow_batch"
        assert field.is_slit() == (name in self.SLITS)
        assert calls == [want, want]


class TestChainMeasure:
    def test_arcsine_at_t1(self):
        grid = np.linspace(-1.75, 1.75, 1201)
        mu = lw.chain_measure(zero_field(), 1.0, grid, tol=1e-9)
        xs = grid[np.abs(grid) <= 1.2]
        want = ms.Arcsine(0, 1).density_at(xs)
        got = np.interp(xs, mu.grid, mu.density)
        assert np.abs(got - want).max() < 2e-3
        assert abs(float(mu.moments(2)[2]) - 1.0) < 1e-3
        assert abs(float(mu.moments(1)[1])) < 1e-3

    def test_constant_slit_measure(self):
        u = 1.0
        field = lw.HerglotzField.from_driving(lw.DrivingFunction.constant(u),
                                              horizon=2.0)
        grid = np.linspace(u - 2.4, u + 2.4, 1201)
        mu = lw.chain_measure(field, 2.0, grid, tol=1e-9)
        fm = ms.FreeMeixner(2, 1, 1).to_measure()  # t = 2: a = t, c = t/2
        xs = np.linspace(u - 1.6, u + 1.6, 200)
        got = np.interp(xs, mu.grid, mu.density)
        want = np.interp(xs, fm.grid, fm.density)
        assert np.abs(got - want).max() < 2e-3
        assert abs(float(mu.moments(2)[2]) - 2.0) < 2e-3

    @given(u=st.floats(0.05, 0.5), sign=st.sampled_from([-1.0, 1.0]),
           t=st.floats(0.5, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_free_meixner_atom(self, u, sign, t):
        # the constant slit at u != 0 has one atom, at the pole
        # u - sgn(u) sqrt(u^2 + 2t) of 1/f_t
        u *= sign
        field = lw.HerglotzField.from_driving(lw.DrivingFunction.constant(u),
                                              horizon=t)
        half = abs(u) + math.sqrt(2 * t) + 0.5
        mu = lw.chain_measure(field, t, np.linspace(-half, half, 301))
        (a, _), = mu.atoms
        assert abs(a - (u - sign * math.sqrt(u * u + 2 * t))) <= 1e-7

    @given(ut=st.tuples(st.floats(-0.5, 0.5), st.floats(0.5, 2.0)).filter(
        lambda ut: slit_edge_gap(*ut) >= 1e-4))
    @example(ut=(0.005, 1.0))  # the edge 8.8e-6 from the atom
    @settings(max_examples=40, deadline=None)
    def test_free_meixner_atom_mass(self, ut):
        # the atom's mass is |u|/sqrt(u^2 + 2t), on the CLI's grid and
        # ladder and on a coarse grid with the default ladder.  The scan
        # finds the zero of Re F at height 1e-6, which a square-root edge
        # d away moves by less than 1e-12/d
        u, t = ut
        gap = slit_edge_gap(u, t)
        root = math.sqrt(u * u + 2 * t)
        field = lw.HerglotzField.from_driving(lw.DrivingFunction.constant(u),
                                              horizon=t)
        half = abs(u) + math.sqrt(2 * t) + 0.5
        grid = lambda points: np.linspace(-half, half, points)
        for mu in (lw.chain_measure(field, t, grid(1201)),
                   tr.measure_from_ftransform(lw.chain_fmap(field, t),
                                              grid(201))):
            (a, w), = mu.atoms
            assert abs(a - (u - math.copysign(root, u))) <= max(1e-8,
                                                                1e-12 / gap)
            assert abs(w / (abs(u) / root) - 1) <= 1e-3

    def test_small_time_degenerates(self):
        grid = np.linspace(-0.5, 0.5, 401)
        mu = tr.measure_from_ftransform(
            lw.chain_fmap(zero_field(), 1e-3, tol=1e-10), grid,
            eps_ladder=(2e-3, 1e-3, 5e-4))
        assert float(mu.moments(2)[2]) < 1.5e-3

    def test_capacity_normalization(self):
        # f(z) = z - t/z + O(z^-3) at infinity: fit Im f(iy) - y against
        # 1/y and 1/y^3; the 1/y coefficient is the half-plane capacity t
        ys = np.array([1e3, 3e3, 1e4])
        basis = np.stack([1.0 / ys, 1.0 / ys**3], axis=1)
        for seed in (3, 5):
            field = random_pc_field(seed)
            vals = lw.chain_fmap(field, 0.8, tol=1e-11)(1j * ys)
            (cap, _), *_ = np.linalg.lstsq(basis, vals.imag - ys, rcond=None)
            assert abs(cap - 0.8) < 1e-4


class TestScaling:
    def test_identity_scaling(self):
        field = random_pc_field(2)
        sc = scaled(field, 1.0, 1.0)
        a = lw.evaluate_chain(field, 0, 1.0, PROBES, tol=1e-10)
        b = lw.evaluate_chain(sc, 0, 1.0, PROBES, tol=1e-10)
        assert np.abs(a - b).max() < 1e-9

    def test_self_similar_slit(self):
        sc = scaled(zero_field(4.0), 2.0, 4.0)
        got = lw.evaluate_chain(sc, 0.0, 0.7, PROBES, tol=1e-10)
        want = tr.sqrt_upper(PROBES**2 - 2 * 0.7)
        assert np.abs(got - want).max() < 1e-6

    def test_general_identity(self):
        field = random_pc_field(9, horizon=2.0)
        c, d = 1.7, 0.8
        sc = scaled(field, c, d)
        t = 0.6
        got = lw.evaluate_chain(sc, 0.0, t, PROBES, tol=1e-11)
        want = lw.evaluate_chain(field, 0.0, d * t, c * PROBES,
                                 tol=1e-11) / c
        assert np.abs(got - want).max() < 1e-7

    def test_slit_rescaling_lemma(self):
        # c=2, d=1: driving U/c = 1/2 at rate d/c^2 = 1/4
        field = lw.HerglotzField.from_driving(lw.DrivingFunction.constant(1.0),
                                              horizon=4.0)
        sc = scaled(field, 2.0, 1.0)
        pos, wts = sc.atoms(0.5)
        assert pos[0] == pytest.approx(0.5)
        assert wts.sum() == pytest.approx(0.25)
        got = lw.evaluate_chain(sc, 0.0, 4.0, PROBES, tol=1e-10)
        want = (tr.sqrt_upper((2 * PROBES - 1) ** 2 - 2 * 4.0) + 1) / 2
        assert np.abs(got - want).max() < 1e-6


class TestResolvent:
    GEN = staticmethod(lambda z: -1.0 / z)

    def test_zero_time(self):
        assert lw.nonlinear_resolvent(self.GEN, 0.0, 2j) == 2j

    def test_quadratic_closed_form(self):
        rng = np.random.default_rng(4)
        ws = rng.uniform(-2, 2, 20) + 1j * rng.uniform(0.3, 3, 20)
        for t in (0.25, 1.0, 4.0):
            for w in ws:
                got = lw.nonlinear_resolvent(self.GEN, t, w)
                want = (w + tr.sqrt_upper(np.array([w * w - 4 * t]))[0]) / 2
                assert abs(got - want) < 1e-10

    def test_inverse_identity(self):
        # J_t(z - t G(z)) = z for Im z large
        for t in (0.5, 2.0):
            for z in (4j, 2 + 5j, -3 + 6j):
                w = z - t * (-1.0 / z)
                back = lw.nonlinear_resolvent(self.GEN, t, w)
                assert abs(back - z) < 1e-10

    def test_semigroup_variance(self):
        for t in (0.2, 0.5, 1.0):
            jmap = lw.resolvent_fmap(self.GEN, t)
            r = 2 * math.sqrt(t)
            grid = np.linspace(-r - 0.4, r + 0.4, 1001)
            mu = tr.measure_from_ftransform(jmap, grid,
                                            eps_ladder=(5e-3, 2.5e-3, 1.25e-3))
            assert abs(float(mu.moments(2)[2]) - t) < 1e-3

    def test_no_convergence_outside_domain(self):
        gen = lambda z: z  # w = (1-t) z
        with pytest.raises(ms.NoConvergence, match="no fixed point"):
            lw.nonlinear_resolvent(gen, 1.0, 1j)

    BERN = staticmethod(lambda z: -0.5 * (1 / (z - 1) + 1 / (z + 1)))

    @pytest.mark.parametrize("t, w, message", [
        (-1.0, 0.3 + 1j, "time must be >= 0"),
        (1.0, 0.3 - 1j, "requires Im"),
        (1.0, 0.3, "requires Im"),
        (0.0, -2j, "requires Im"),
        (math.nan, 0.3 + 1j, "time must be >= 0 and finite, got nan"),
        (math.inf, 0.3 + 1j, "time must be >= 0 and finite, got inf"),
        (1.0, complex(math.nan, 1.0), "requires finite w"),
        (1.0, complex(0.3, math.inf), "requires finite w"),
        (0.0, complex(-math.inf, 1.0), "requires finite w"),
    ])
    def test_both_entry_points_refuse(self, t, w, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ms.NcprobError, match=message):
                lw.nonlinear_resolvent(self.BERN, t, w)
            with pytest.raises(ms.NcprobError, match=message):
                lw.resolvent_fmap(self.BERN, t)(np.array([2j, w]))

    def test_no_convergence_messages(self):
        # z -> i + z has no fixed point in H: its plain steps climb forever
        with pytest.raises(ms.NoConvergence,
                           match=r"no fixed point within 1e-12 \(1 \+ \|z\|\^2\)"
                                 r" after 60 rounds"):
            lw.nonlinear_resolvent(lambda z: z, 1.0, 1j)
        # z -> i + 2 conj(z) maps H out of H
        with pytest.raises(ms.NoConvergence,
                           match="the map left the upper half-plane"):
            lw.nonlinear_resolvent(np.conj, 2.0, 1j)
        with (mock.patch.object(tr, "_FIXED_POINT_ROUNDS", 1),
              pytest.raises(ms.NoConvergence, match=r"after 1 rounds")):
            lw.nonlinear_resolvent(self.GEN, 4.0, 0.1 + 1e-3j)

    def test_fmap_entries_equal_one_point_calls(self):
        rng = np.random.default_rng(11)
        ws = rng.uniform(-5, 5, 300) + 1j * 10 ** rng.uniform(-8, 0.5, 300)
        for t in (0.25, 1.0, 4.0):
            batch = lw.resolvent_fmap(self.GEN, t)(ws)
            single = [lw.nonlinear_resolvent(self.GEN, t, w) for w in ws]
            assert batch.tobytes() == np.array(single).tobytes()

    def test_step_halving_converges(self):
        t = 4.0
        rng = np.random.default_rng(12)
        ws = rng.uniform(-5, 5, 500) + 1j * 10 ** rng.uniform(-8, 0, 500)

        def phi(z):
            return z + t / z - ws

        # a plain Newton step from z = w raises |phi| at 189 of the 500
        # points, and later plain steps can leave H
        h = 1e-7 * np.maximum(1.0, np.abs(ws))
        z1 = ws - phi(ws) * 2 * h / (phi(ws + h) - phi(ws - h))
        halved = (z1.imag <= 0) | ~(np.abs(phi(z1)) < np.abs(phi(ws)))
        assert halved.sum() >= 100
        seen = []

        def gen(z):
            seen.append(z.imag.min(initial=np.inf))
            return -1.0 / z

        got = lw.resolvent_fmap(gen, t)(ws)
        want = (ws + tr.sqrt_upper(ws * ws - 4 * t)) / 2
        assert np.abs(got - want).max() <= 1e-10
        assert min(seen) > 0  # G is only ever evaluated in H

    def test_iterates_stay_in_upper_half_plane(self):
        # G of the Bernoulli law, -(1/(z-1) + 1/(z+1))/2: phi is a cubic, and
        # at t = 1 full steps from some of these points leave H
        t = 1.0
        rng = np.random.default_rng(13)
        ws = rng.uniform(-3, 3, 300) + 1j * 10 ** rng.uniform(-2, 0, 300)

        def bern(z):
            return -0.5 * (1 / (z - 1) + 1 / (z + 1))

        single = [lw.nonlinear_resolvent(bern, t, w) for w in ws]
        seen = []

        def gen(z):
            seen.append(z.imag.min(initial=np.inf))
            return bern(z)

        got = lw.resolvent_fmap(gen, t)(ws)
        residual = np.abs(got - t * bern(got) - ws)
        assert np.all(residual <= 1e-12 * (1 + np.abs(got) ** 2))
        assert min(seen) > 0
        assert got.tobytes() == np.array(single).tobytes()

    @staticmethod
    def upper_root(atoms, t, w):
        """The root in H of z + t G(z) = w for G of the atomic law, by
        numpy.roots of (z - w) P(z) + t Q(z), where G = Q/P."""
        xs = np.array([a for a, _ in atoms])
        poly = np.poly(xs)
        tail = t * sum(p * np.poly(np.delete(xs, i))
                       for i, (_, p) in enumerate(atoms))
        out = []
        for wi in w:
            coef = np.polymul(poly, [1, -wi])
            coef[2:] += tail
            roots = np.roots(coef)
            out.append(roots[np.argmax(roots.imag)])
        return np.array(out)

    @staticmethod
    def minus_cauchy(atoms):
        return lambda z: -sum(p / (z - a) for a, p in atoms)

    def test_bernoulli_matches_numpy_roots(self):
        # Re w in [-0.5, 0.5], Im w log-uniform in [1e-8, 1], where a damped
        # Newton iteration from z = w stalled at most points
        rng = np.random.default_rng(0)
        ws = rng.uniform(-0.5, 0.5, 200) + 1j * 10 ** rng.uniform(-8, 0, 200)
        got = lw.resolvent_fmap(self.BERN, 1.0)(ws)
        want = self.upper_root([(-1.0, 0.5), (1.0, 0.5)], 1.0, ws)
        assert np.abs(got - want).max() <= 1e-9

    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    def test_atomic_generators_match_numpy_roots(self, t):
        for seed in range(20):
            rng = np.random.default_rng([seed, int(4 * t)])
            n = int(rng.integers(2, 5))
            ps = rng.random(n) + 0.05
            atoms = list(zip(np.sort(rng.uniform(-2, 2, n)), ps / ps.sum()))
            ws = rng.uniform(-3, 3, 200) + 1j * 10 ** rng.uniform(-8, 0, 200)
            got = lw.resolvent_fmap(self.minus_cauchy(atoms), t)(ws)
            want = self.upper_root(atoms, t, ws)
            assert np.abs(got - want).max() <= 1e-9, seed


class TestSLE:
    def test_kappa_zero(self):
        u = lw.sle_driving(0.0, 1.0, 0.01, seed=1)
        assert max(abs(v) for v in u.values) == 0.0

    def test_variance_scaling(self):
        # vectorized equivalent of many seeded paths: sum increments directly
        kappa, horizon, dt = 2.0, 1.0, 1e-3
        rng = np.random.default_rng(123)
        steps = int(round(horizon / dt))
        incr = rng.standard_normal((10_000, steps)) * math.sqrt(kappa / 2 * dt)
        finals = incr.sum(axis=1)
        assert abs(finals.var() - kappa / 2 * horizon) < 0.05 * kappa / 2
        # distributional scaling: c * U(t/c^2) has the variance of U(t)
        c = 2.0
        mid = incr[:, : steps // 4].sum(axis=1) * c
        assert abs(mid.var() - kappa / 2 * horizon) < 0.05 * kappa

    @pytest.mark.parametrize("horizon", [-1.0, 0.0, math.nan])
    def test_nonpositive_horizon_rejected(self, horizon):
        with pytest.raises(ms.NcprobError, match="horizon must be > 0"):
            lw.sle_driving(2.0, horizon, 0.1, seed=1)

    @pytest.mark.parametrize("horizon, dt", [
        (0.04, 0.1), (0.14, 0.1), (1.0, 0.3), (0.5, 1.0), (1.0, math.inf),
        (math.inf, 0.1), (1e300, 1e-300)])
    def test_horizon_off_the_step_grid_rejected(self, horizon, dt):
        with pytest.raises(ms.NcprobError,
                           match="is not a whole number of steps"):
            lw.sle_driving(2.0, horizon, dt, seed=1)

    @pytest.mark.parametrize("kappa, dt", [
        (math.nan, 0.1), (-1.0, 0.1), (2.0, math.nan), (2.0, 0.0)])
    def test_bad_kappa_or_step_rejected(self, kappa, dt):
        with pytest.raises(ms.NcprobError,
                           match="need kappa >= 0 and dt > 0"):
            lw.sle_driving(kappa, 1.0, dt, seed=1)

    def test_infinite_kappa_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before the draw
            with pytest.raises(ms.NcprobError,
                               match="kappa must be finite, got inf"):
                lw.sle_driving(math.inf, 1.0, 0.1, seed=1)

    @pytest.mark.parametrize("kappa, horizon, dt, seed", [
        (2.0, 1.0, 1e-2, 7), (2.0, 1.0, 0.1, 2), (2.0, 0.5, 1e-3, 9),
        (2.0, 0.1, 1e-3, 1), (3.0, 1.0, 1e-2, 0), (2.0, 1.0, 1e-4, 7)])
    def test_whole_step_paths_unchanged(self, kappa, horizon, dt, seed):
        # the sampler before horizons off the step grid were refused
        steps = max(1, int(round(horizon / dt)))
        times = np.linspace(0.0, steps * dt, steps + 1)
        incr = (np.random.default_rng(seed).standard_normal(steps)
                * math.sqrt(kappa / 2 * dt))
        vals = np.concatenate([[0.0], np.cumsum(incr)])
        got = lw.sle_driving(kappa, horizon, dt, seed)
        assert np.array(got.times).tobytes() == times.tobytes()
        assert np.array(got.values).tobytes() == vals.tobytes()

    def test_deterministic_per_seed(self):
        a = lw.sle_driving(2.0, 0.5, 1e-3, seed=9)
        b = lw.sle_driving(2.0, 0.5, 1e-3, seed=9)
        assert a.values == b.values

    def test_path_statistics(self):
        kappa, horizon, dt = 3.0, 1.0, 1e-2
        finals = [lw.sle_driving(kappa, horizon, dt, seed=s).values[-1]
                  for s in range(2000)]
        v = np.var(finals)
        assert abs(v - kappa / 2 * horizon) < 0.1 * kappa
