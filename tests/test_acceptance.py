"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
runtime budget and prints one PASS line (run with ``pytest -s`` to see
them; any failure surfaces as a normal pytest failure).
"""

import math
import time
from fractions import Fraction
from functools import partial
from itertools import product

import numpy as np

from ncprob import _kernels
from ncprob import convolutions as cv
from ncprob import graphs as gr
from ncprob import loewner as lw
from ncprob import markov as mk
from ncprob import measures as ms
from ncprob import randmat as rm
from ncprob import transforms as tr

PROBES20 = np.array([x + 1j * y
                     for x in (-3.0, -1.2, -0.4, 0.3, 1.5)
                     for y in (0.3, 0.8, 1.7, 3.0)])


def reciprocal(f):
    """The map 1/f."""
    return lambda z: 1.0 / f(z)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"{self.name} took {self.elapsed:.3f}s "
                f"(budget {self.seconds}s)")
            print(f"PASS  {self.name}  [{self.elapsed:.3f}s]")
        else:
            print(f"FAIL  {self.name}")
        return False


def basketball():
    p = mk.TransitionMatrix(np.array([
        [0.0, 0.1, 0.0, 0.0],
        [0.6, 0.0, 0.0, 0.0],
        [0.2, 0.8, 1.0, 0.0],
        [0.2, 0.1, 0.0, 1.0],
    ]))
    return p, np.array([0.0, 0.0, 1.0, -1.0])


def test_01_mrp_reference_values():
    p, r = basketball()
    mk.mrp_value(p, r, 0.5)  # solver warm (BLAS init outside the budget)
    with Budget("criterion 1: MRP basketball values", 1e-3):
        v05 = mk.mrp_value(p, r, 0.5)
        v09 = mk.mrp_value(p, r, 0.9)
        assert np.abs(v05 - np.array([0.43, 1.42, 2.0, -2.0])).max() <= 0.01
        assert np.abs(v09 - np.array([3.97, 7.36, 10.0, -10.0])).max() <= 0.01


def test_02_arcsine_inversion_round_trip():
    with Budget("criterion 2: Stieltjes inversion of sqrt(z^2-2)", 1.0):
        fmap = lambda z: tr.sqrt_upper(z * z - 2)
        grid = np.linspace(-1.7, 1.7, 1201)
        rec = tr.measure_from_ftransform(fmap, grid)
        xs = grid[np.abs(grid) <= 1.2]
        got = np.interp(xs, rec.grid, rec.density)
        want = ms.Arcsine(0, 1).density_at(xs)
        assert np.abs(got - want).max() <= 1e-3
        assert abs(rec.mass() - 1.0) <= 1e-3
        # raw (un-renormalized) extrapolated mass, same 1e-3 fidelity
        gmap = reciprocal(fmap)
        ladder = tr.DEFAULT_EPS_LADDER
        layers = [-np.asarray(gmap(rec.grid + 1j * e)).imag / math.pi
                  for e in ladder]
        raw = np.trapezoid(tr.extrapolate_to_zero(ladder, layers), rec.grid)
        assert abs(raw - 1.0) <= 1e-3


def dopri_slit_chain(driving, t, z, tol):
    """``slit_chain`` through the Dormand-Prince kernel, which the chain
    itself no longer runs for slit fields."""
    f = lw.HerglotzField.from_driving(driving, horizon=t)
    out, status, _, _ = _kernels.flow_batch(z, t, 0.0, f.tbreaks, f.pos,
                                            f.slope, f.wts, tol, 1e-12)
    assert np.all(status == _kernels.FLOW_OK)
    return out


def test_03_slit_loewner_closed_forms():
    with Budget("criterion 3: slit Loewner closed forms", 1.0):
        for chain in (lw.slit_chain, dopri_slit_chain):
            got = chain(lw.DrivingFunction.constant(0.0), 1.0, PROBES20,
                        tol=1e-10)
            assert np.abs(got - tr.sqrt_upper(PROBES20**2 - 2)).max() <= 1e-6
            u = 1.0
            for n in (1, 2):
                got = chain(lw.DrivingFunction.constant(u), 2.0 * n,
                            PROBES20, tol=1e-10)
                want = tr.sqrt_upper((PROBES20 - u) ** 2 - 4 * n) + u
                assert np.abs(got - want).max() <= 1e-6


def test_04_clt_table():
    base = ms.Bernoulli(Fraction(1, 2)).moments(4)
    with Budget("criterion 4: CLT table at n=4096", 1.0):
        boolean = cv.clt_iterate("boolean", base, 4096)
        target = ms.Bernoulli(Fraction(1, 2)).moments(4)
        assert boolean.values == target.values  # exactly Bernoulli, m4 = 1
        free = cv.clt_iterate("free", base, 4096)
        semi_m4 = float(ms.Semicircle(0, 1).moments(4)[4])
        assert abs(float(free[4]) - semi_m4) <= 5e-4
        mono = cv.clt_iterate("monotone", base, 4096)
        arcsine_m4 = float(ms.Arcsine(0, 1).moments(4)[4])
        assert abs(float(mono[4]) - arcsine_m4) <= 2e-2


def test_05_free_poisson():
    with Budget("criterion 5: free Poisson vs Marchenko-Pastur", 5.0):
        n, c = 2048, 1
        piece = ms.AtomicMeasure(
            ((0, Fraction(n - 1, n)), (1, Fraction(1, n)))).moments(40)
        total = cv.convolve_power("free", piece, n)
        quad = tr.moment_quadrature(total)
        zs = np.array([0.3 + 0.5j, 2 + 0.5j, 2 + 2j, -1 + 1j, 4.5 + 0.5j,
                       1j, 0.5 + 2j, 3 + 1j, -0.5 + 0.25j, 5 + 0.2j])
        got = tr.cauchy(quad, zs)
        root = tr.sqrt_upper(c * c - 2 * c * (zs + 1) + (zs - 1) ** 2)
        want = (zs + 1 - c - root) / (2 * zs)
        assert np.abs(got - want).max() <= 2e-3


def test_06_nonlinear_resolvent():
    gen = lambda z: -1.0 / z
    with Budget("criterion 6: nonlinear resolvent of -1/z", 1.0):
        for t in (0.25, 1.0, 4.0):
            for w in PROBES20:
                got = lw.nonlinear_resolvent(gen, t, complex(w))
                want = (w + tr.sqrt_upper(np.array([w * w - 4 * t]))[0]) / 2
                assert abs(got - want) <= 1e-10
        for t in (0.25, 1.0, 4.0):
            jmap = lw.resolvent_fmap(gen, t)
            r = 2 * math.sqrt(t)
            grid = np.linspace(-r - 0.3, r + 0.3, 801)
            mu = tr.measure_from_ftransform(
                jmap, grid, eps_ladder=(5e-3, 2.5e-3, 1.25e-3))
            assert abs(float(mu.moments(2)[2]) - t) <= 1e-3


def test_07_graph_product_independence():
    with Budget("criterion 7: graph products vs convolutions", 10.0):
        zoo = [gr.path_graph(2), gr.path_graph(3, root=0), gr.star_graph(3),
               gr.cycle_graph(4), gr.cycle_graph(3)]
        order = 6
        for g1, g2 in product(zoo, zoo):
            m1, m2 = gr.walk_moments(g1, order), gr.walk_moments(g2, order)
            checks = (
                (gr.comb_product, "monotone"),
                (gr.star_product, "boolean"),
                (gr.direct_product, "classical"),
            )
            for prod_fn, kind in checks:
                got = gr.walk_moments(prod_fn(g1, g2), order)
                want = cv.convolve(kind, m1, m2)
                assert got.values == tuple(int(v) for v in want.values)


def test_08_spidernet_spectra():
    with Budget("criterion 8: spidernet walk moments vs slit series", 10.0):
        for n, u in product((1, 2), (0, 1)):
            g = gr.spidernet(n, u, 4)
            walks = gr.walk_moments(g, 6)
            series = tr.series_moments(tr.free_meixner_f_series(n, u, 10), 6)
            assert walks.values == tuple(int(v) for v in series.values)


def test_09_spidernet_pipeline():
    with Budget("criterion 9: growing comb-product pipeline", 60.0):
        horizon = 2.0
        driving = lw.DrivingFunction.constant(0.0)
        fourth_errors = []
        for n in (1, 2, 3):
            res = gr.approx_process(driving, horizon, n, order=4)
            for k in range(n + 1):
                exact = (Fraction(int(res.raw_moments[k][2]))
                         / Fraction(2 * n**3, 2))
                assert exact == Fraction(k, 1) * 2 / n  # k T / n with T = 2
            # the limit law at t = T = 2 is the arcsine A(0, 2), m4 = 6
            target = float(ms.Arcsine(0, 2).moments(4)[4])
            assert target == 6.0
            fourth_errors.append(abs(res.scaled_moments(n)[4] - target))
        # monotone refinement report: n = 2, 3 at least as close as n = 1
        assert fourth_errors[1] <= fourth_errors[0] + 1e-12
        assert fourth_errors[2] <= fourth_errors[1] + 1e-12


def test_10_markov_convergence():
    with Budget("criterion 10: Markov rate fit and hitting times", 10.0):
        rng = np.random.default_rng(3)
        p = rng.random((4, 4)) + 0.05
        p = mk.TransitionMatrix(p / p.sum(axis=0))
        assert mk.is_irreducible(p) and mk.period(p, 0) == 1
        pi, theta, _ = mk.convergence_report(p, np.eye(4)[0])
        lam2 = np.sort(np.abs(np.linalg.eigvals(p.p)))[-2]
        assert abs(theta - lam2) <= 0.05
        mean, se, _ = mk.hitting_time_mc(p, 0, 100_000, seed=11)
        assert abs(mean - 1 / pi[0]) <= 3 * se


def test_11_metropolis_correctness():
    with Budget("criterion 11: Metropolis detailed balance and TV", 60.0):
        ok, worst = mk.detailed_balance_audit((3, 3), beta=0.3)
        assert ok and worst < 1e-13
        probs, _ = mk.exact_boltzmann((3, 3), beta=0.3)
        hist = mk.metropolis_histogram((3, 3), beta=0.3, coupling=1.0,
                                       field=0.0, burn_in=10**6,
                                       samples=10**7, seed=5)
        emp = hist / hist.sum()
        assert 0.5 * np.abs(emp - probs).sum() <= 0.05


def test_12_gue_wigner():
    with Budget("criterion 12: GUE, freeness, free AR(1)", 120.0):
        dist = rm.wigner_check(1000, seeds=(7,))[0]
        assert dist <= 0.06
        a = rm.sample_gue(500, seed=1)
        b = rm.sample_gue(500, seed=2)
        assert rm.freeness_statistic(a, b) <= 0.1
        res = rm.free_ar1(500, steps=100, c=0.5, noise="gue", seed=3)
        assert abs(res.var_last - 4 / 3) <= 0.1


def test_13_hemigroup_and_normalization():
    with Budget("criterion 13: hemigroup laws and normalizations", 10.0):
        rng = np.random.default_rng(17)
        probes = PROBES20[:10]
        for seed in (1, 2, 3):
            breaks = np.concatenate([[0.0],
                                     np.sort(rng.uniform(0.1, 0.9, 2)),
                                     [1.0]])
            measures = []
            for _ in range(3):
                xs = np.sort(rng.uniform(-1.5, 1.5, 2)) + [0, 1e-6]
                w = rng.uniform(0.2, 0.8)
                measures.append(ms.AtomicMeasure(((xs[0], w),
                                                  (xs[1], 1 - w))))
            field = lw.HerglotzField.piecewise(breaks, measures)
            s, t = sorted(rng.uniform(0.0, 1.0, 2))
            lhs = lw.evaluate_chain(field, 0.0, t, probes, tol=1e-11)
            rhs = lw.evaluate_chain(field, 0.0, s,
                                    lw.evaluate_chain(field, s, t, probes,
                                                      tol=1e-11), tol=1e-11)
            assert np.abs(lhs - rhs).max() <= 1e-6
            assert np.all(lhs.imag >= probes.imag - 1e-12)
        # Im F >= Im z and iy G(iy) -> 1 for a family of constructed maps
        mu_atoms = ms.AtomicMeasure(((-1.0, 0.25), (0.2, 0.5), (1.3, 0.25)))
        fvals = tr.f_transform(mu_atoms, probes)
        assert np.all(fvals.imag >= probes.imag - 1e-12)
        transforms = [
            partial(tr.cauchy, mu_atoms),
            partial(tr.cauchy, ms.Semicircle(0, 1).to_measure()),
            reciprocal(lw.chain_fmap(lw.HerglotzField.from_driving(
                lw.DrivingFunction.constant(0.0), 1.0), 1.0, tol=1e-10)),
            reciprocal(lw.resolvent_fmap(lambda z: -1.0 / z, 1.0)),
            reciprocal(ms.FreeMeixner(4, 2, 1).fmap),
        ]
        for g in transforms:
            tr.check_cauchy_normalization(g)  # raises on failure
