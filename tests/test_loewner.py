import math

import numpy as np
import pytest

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


class TestDrivingFunction:
    def test_kinds(self):
        u = lw.DrivingFunction.piecewise([0, 1, 2], [0.5, -0.5])
        assert u(0.5) == 0.5 and u(1.5) == -0.5
        s = lw.DrivingFunction.sampled([0, 1], [0, 2])
        assert s(0.25) == 0.5
        with pytest.raises(ValueError):
            lw.DrivingFunction.piecewise([0, 1], [1, 2])

    def test_json_roundtrip(self):
        u = lw.DrivingFunction.sampled([0, 0.5, 1], [0, 1, 0.5])
        back = lw.DrivingFunction.from_json(u.to_json())
        assert back == u

    def test_negative_horizon_rejected(self):
        with pytest.raises(lw.LoewnerError, match="horizon must be >= 0"):
            lw.HerglotzField.from_driving(zero_driving(), horizon=-1.0)


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


class TestChainMeasure:
    def test_arcsine_at_t1(self):
        grid = np.linspace(-1.75, 1.75, 1201)
        mu = lw.chain_measure(zero_field(), 1.0, grid, tol=1e-9,
                              eps_ladder=(5e-3, 2.5e-3, 1.25e-3))
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
        mu = lw.chain_measure(field, 2.0, grid, tol=1e-9,
                              eps_ladder=(5e-3, 2.5e-3, 1.25e-3))
        fm = tr.free_meixner_measure(2, 1, 1)  # a=2n=2? no: t=2 so n=1
        xs = np.linspace(u - 1.6, u + 1.6, 200)
        got = np.interp(xs, mu.grid, mu.density)
        want = np.interp(xs, fm.grid, fm.density)
        assert np.abs(got - want).max() < 2e-3
        assert abs(float(mu.moments(2)[2]) - 2.0) < 2e-3

    def test_small_time_degenerates(self):
        grid = np.linspace(-0.5, 0.5, 401)
        mu = lw.chain_measure(zero_field(), 1e-3, grid, tol=1e-10,
                              eps_ladder=(2e-3, 1e-3, 5e-4))
        assert float(mu.moments(2)[2]) < 1.5e-3

    def test_capacity_normalization(self):
        for seed in (3, 5):
            field = random_pc_field(seed)
            cap = lw.capacity_fit(lw.chain_fmap(field, 0.8, tol=1e-11))
            assert abs(cap - 0.8) < 1e-4


class TestScaling:
    def test_identity_scaling(self):
        field = random_pc_field(2)
        sc = lw.scale_chain(field, 1.0, 1.0)
        a = lw.evaluate_chain(field, 0, 1.0, PROBES, tol=1e-10)
        b = lw.evaluate_chain(sc, 0, 1.0, PROBES, tol=1e-10)
        assert np.abs(a - b).max() < 1e-9

    def test_self_similar_slit(self):
        sc = lw.scale_chain(zero_field(4.0), 2.0, 4.0)
        got = lw.evaluate_chain(sc, 0.0, 0.7, PROBES, tol=1e-10)
        want = tr.sqrt_upper(PROBES**2 - 2 * 0.7)
        assert np.abs(got - want).max() < 1e-6

    def test_general_identity(self):
        field = random_pc_field(9, horizon=2.0)
        c, d = 1.7, 0.8
        sc = lw.scale_chain(field, c, d)
        t = 0.6
        got = lw.evaluate_chain(sc, 0.0, t, PROBES, tol=1e-11)
        want = lw.evaluate_chain(field, 0.0, d * t, c * PROBES,
                                 tol=1e-11) / c
        assert np.abs(got - want).max() < 1e-7

    def test_slit_rescaling_lemma(self):
        # c=2, d=1: driving U/c = 1/2 at rate d/c^2 = 1/4
        field = lw.HerglotzField.from_driving(lw.DrivingFunction.constant(1.0),
                                              horizon=4.0)
        sc = lw.scale_chain(field, 2.0, 1.0)
        pos, wts = sc.atoms(0.5)
        assert pos[0] == pytest.approx(0.5)
        assert wts.sum() == pytest.approx(0.25)
        got = lw.evaluate_chain(sc, 0.0, 4.0, PROBES, tol=1e-10)
        want = (tr.sqrt_upper((2 * PROBES - 1) ** 2 - 2 * 4.0) + 1) / 2
        assert np.abs(got - want).max() < 1e-6


class TestSlitApproximation:
    def test_slit_field_is_fixed_point(self):
        field = lw.HerglotzField.constant(ms.AtomicMeasure.dirac(0.5), 1.0)
        res = lw.approximate_field_by_slits(field, 1.0, m=4)
        assert set(res.driving.values) == {0.5}
        assert res.max_deviation < 1e-6

    def test_two_atom_self_convergence(self):
        field = lw.HerglotzField.constant(
            ms.AtomicMeasure(((0.0, 0.5), (1.0, 0.5))), 1.0)
        devs = [lw.approximate_field_by_slits(field, 1.0, m).max_deviation
                for m in (8, 16, 32)]
        assert devs[0] > devs[1] > devs[2]

    def test_uniform_field_cauchy_criterion(self):
        # discretized Lebesgue measure on [0,1]
        xs = np.linspace(0.025, 0.975, 20)
        unif = ms.AtomicMeasure(tuple((x, 1 / 20) for x in xs))
        field = lw.HerglotzField.constant(unif, 1.0)
        probes = (2j, 1 + 2j)
        d32 = lw.approximate_field_by_slits(field, 1.0, 32,
                                            probe_points=probes)
        d64 = lw.approximate_field_by_slits(field, 1.0, 64,
                                            probe_points=probes)
        z = np.array(probes)
        gap = np.abs(lw.slit_chain(d32.driving, 1.0, z)
                     - lw.slit_chain(d64.driving, 1.0, z)).max()
        assert gap < 1e-2

    def test_bound_error(self):
        field = lw.HerglotzField.constant(ms.AtomicMeasure.dirac(-0.5), 1.0)
        with pytest.raises(lw.BoundError):
            lw.approximate_field_by_slits(field, 1.0, 8)


class TestResolvent:
    GEN = tr.HerglotzMap(lambda z: -1.0 / z, "generator")

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
        gen = tr.HerglotzMap(lambda z: z, "generator")  # w = (1-t) z
        with pytest.raises((lw.NoConvergence, lw.LoewnerError)):
            lw.nonlinear_resolvent(gen, 1.0, 1j)


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
