"""The benchmark's four workloads.

Each workload is a list of tasks that one client runs in sequence (a closed
loop in one process).  A task calls ``ncprob.cli.main(argv)`` or a public
library function and returns what it produced; its check compares that
output with a closed form or an exact enumeration and raises ``CheckFailed``
on a mismatch.  Every random input derives from the benchmark's ``--seed``,
except the SLE path (see ``sle_measure``).

Why these workloads:

* ``slit_measure`` -- the README's ``ncprob loewner`` example: a few large
  flow batches, so it isolates the per-step cost of the Loewner flow kernel.
* ``sle_measure`` -- the same layers used differently: an SLE driving with
  100 time segments, many small flow calls and a real-zero scan that finds
  roots, so per-call overhead and single-point bisection show here.
* ``mcmc_oracles`` -- the interpreted Metropolis and Markov episode loops on
  a tiny and a large lattice; no Loewner or inversion code runs.
* ``spectral_exact`` -- BLAS-bound random matrices, Fraction-exact series,
  convolutions, graph products and inversions with cheap closed-form
  evaluators: the layers a flow or Metropolis rewrite must leave alone.
"""

import contextlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ncprob import cli, convolutions, loewner, markov, measures, randmat
from ncprob import transforms

WORKLOADS = ("slit_measure", "sle_measure", "mcmc_oracles", "spectral_exact")

# Per-task sizes.  "full" is what the benchmark measures, scaled down from the
# CLI defaults so that a pass takes 3-8 s on one core of a 2 GHz Xeon and a
# run holds several passes; "tiny" keeps every code path and check but takes
# a few seconds (smoke test only).
SIZES = {
    "full": {
        "slit_grid": 151, "sle_grid": 201, "sle_dt": 1e-2,
        "hist_shape": (3, 3), "hist_burn_in": 20_000, "hist_samples": 200_000,
        "ising_steps": 100_000, "hitting_episodes": 100_000,
        "gue_n": 1000, "ar1_n": 500, "ar1_steps": 10,
        "poisson_n": 2048, "poisson_order": 32, "spider_n": 3,
    },
    "tiny": {
        "slit_grid": 101, "sle_grid": 41, "sle_dt": 1e-1,
        "hist_shape": (2, 2), "hist_burn_in": 2_000, "hist_samples": 20_000,
        "ising_steps": 10_000, "hitting_episodes": 1_000,
        "gue_n": 200, "ar1_n": 100, "ar1_steps": 5,
        "poisson_n": 2048, "poisson_order": 32, "spider_n": 1,
    },
}


class CheckFailed(Exception):
    """A task's output disagrees with its reference."""


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Task:
    name: str
    metric: str | None  # end-to-end task metric, e.g. "task.ising_s"
    run: object         # () -> output
    check: object       # output -> None, raises CheckFailed


def run_cli(argv, outputs=()):
    """``ncprob.cli.main(argv)`` with stdout captured; returns the printed
    text and the bytes of each output file, so passes can be compared."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    expect(code == 0, f"ncprob {argv[0]} exited with {code}")
    files = {}
    for path in outputs:
        with open(path, "rb") as fh:
            files[os.path.basename(path)] = fh.read()
    return {"stdout": buf.getvalue(), "files": files}


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _measure(out, name):
    return measures.measure_from_json(json.loads(out["files"][name]))


def _csv(out, name, header=True):
    """A CSV output as a 2-d float array; empty cells read as nan."""
    return np.genfromtxt(io.BytesIO(out["files"][name]), delimiter=",",
                         skip_header=header, ndmin=2)


def _seeds(seed, n):
    """Independent per-task seeds derived from the workload seed."""
    return [int(s.generate_state(1)[0])
            for s in np.random.SeedSequence(seed).spawn(n)]


# ---------------------------------------------------------------------------
# slit_measure
# ---------------------------------------------------------------------------

def slit_measure(seed, size, work):
    """The README example: constant driving 0, so mu_1 is Arcsine(0, 1).
    The input has nothing random, so ``seed`` is unused.  Like the CLI's
    default 1201-point grid, the 151-point grid holds x = 0 exactly, so the
    real-zero scan sees no sign change there and bisects nothing."""
    driving = _write_json(os.path.join(work, "slit_driving.json"),
                          {"kind": "constant", "values": [0.0]})
    prefix = os.path.join(work, "slit")
    argv = ["loewner", "--driving", driving, "--t", "1",
            "--grid-points", str(size["slit_grid"]), "--out", prefix]

    def check(out):
        mu = _measure(out, "slit.json")
        expect(not mu.atoms, f"spurious atoms {mu.atoms}")
        xs = mu.grid[np.abs(mu.grid) <= 1.2]
        want = measures.Arcsine(0.0, 1.0).density_at(xs)
        err = float(np.abs(np.interp(xs, mu.grid, mu.density) - want).max())
        expect(err <= 1e-3, f"density error {err:.3g} > 1e-3")
        dens = _csv(out, "slit.csv")
        mass = float(np.trapezoid(dens[:, 1], dens[:, 0]))
        expect(abs(mass - 1.0) <= 1e-3, f"CSV mass {mass:.6f} not 1 +- 1e-3")

    return [Task("loewner", "task.loewner_s",
                 lambda: run_cli(argv, (prefix + ".json", prefix + ".csv")),
                 check)]


# ---------------------------------------------------------------------------
# sle_measure
# ---------------------------------------------------------------------------

SLE_PATH_SEED = 7  # the README's ``ncprob sle`` example


def sle_measure(seed, size, work):
    """One fixed SLE(2) driving with 100 segments; every rate-one field
    gives a measure with mean 0 and variance t.

    The path is not drawn from ``seed``: the cost of a path depends on the
    shape of its measure (one or three real zeros, how many cells need
    refining), and six paths at 101 grid points took 4.0 to 8.5 s, so a
    seeded path would make the run-to-run spread exceed any usable bound.
    """
    driving = loewner.sle_driving(2.0, 1.0, size["sle_dt"], SLE_PATH_SEED)
    path = _write_json(os.path.join(work, "sle_driving.json"),
                       driving.to_json())
    prefix = os.path.join(work, "sle")
    argv = ["loewner", "--driving", path, "--t", "1",
            "--grid-points", str(size["sle_grid"]), "--out", prefix]

    def check(out):
        m1, m2 = _measure(out, "sle.json").moments(2).values
        expect(abs(m1) <= 1e-2, f"mean {m1:.3g} not 0 +- 1e-2")
        var = m2 - m1 * m1
        expect(abs(var - 1.0) <= 1e-2, f"variance {var:.6f} not 1 +- 1e-2")

    return [Task("loewner", "task.loewner_s",
                 lambda: run_cli(argv, (prefix + ".json",)), check)]


# ---------------------------------------------------------------------------
# mcmc_oracles
# ---------------------------------------------------------------------------

def _basketball():
    """Criterion 1's chain and its reference values at gamma 0.5 and 0.9."""
    p = [[0.0, 0.1, 0.0, 0.0], [0.6, 0.0, 0.0, 0.0],
         [0.2, 0.8, 1.0, 0.0], [0.2, 0.1, 0.0, 1.0]]
    return p, [0.0, 0.0, 1.0, -1.0], {
        0.5: [0.43, 1.42, 2.0, -2.0], 0.9: [3.97, 7.36, 10.0, -10.0]}


def _criterion10_chain():
    rng = np.random.default_rng(3)
    p = rng.random((4, 4)) + 0.05
    return markov.TransitionMatrix(p / p.sum(axis=0))


def mcmc_oracles(seed, size, work):
    s_hist, s_ising, s_hit, s_lerw = _seeds(seed, 4)
    tasks = []

    shape, beta = size["hist_shape"], 0.3
    exact, _ = markov.exact_boltzmann(shape, beta)

    def hist_check(hist):
        tv = 0.5 * float(np.abs(hist / hist.sum() - exact).sum())
        expect(tv <= 0.05, f"TV distance {tv:.4f} > 0.05")

    tasks.append(Task(
        "metropolis_hist", "task.metropolis_hist_s",
        lambda: markov.metropolis_histogram(
            shape, beta, 1.0, 0.0, size["hist_burn_in"],
            size["hist_samples"], s_hist),
        hist_check))

    grid_path = os.path.join(work, "ising.csv")
    ising_argv = ["ising", "--width", "64", "--beta", "0.4407",
                  "--steps", str(size["ising_steps"]), "--seed", str(s_ising),
                  "--out", grid_path]

    def ising_check(out):
        spins = _csv(out, "ising.csv", header=False)
        expect(spins.shape == (64, 64), f"grid shape {spins.shape}")
        expect(bool(np.all(np.abs(spins) == 1)), "spins not all +-1")
        printed = float(out["stdout"].split()[1])
        expect(printed == float(spins.mean()),
               f"printed magnetization {printed} != grid mean")

    tasks.append(Task("ising", "task.ising_s",
                      lambda: run_cli(ising_argv, (grid_path,)), ising_check))

    chain = _criterion10_chain()
    pi0 = float(markov.stationary_distribution(chain)[0])
    episodes = size["hitting_episodes"]

    def hitting_check(res):
        # 5 standard errors, not criterion 10's 3: the benchmark runs many
        # seeds, and a correct sampler misses 3 se on one seed in 370
        mean, se, n = res
        expect(n >= episodes, f"only {n} episodes")
        expect(abs(mean - 1 / pi0) <= 5 * se,
               f"mean return time {mean:.4f} vs 1/pi0 {1 / pi0:.4f}, "
               f"5 se = {5 * se:.4f}")

    tasks.append(Task("hitting", "task.hitting_s",
                      lambda: markov.hitting_time_mc(chain, 0, episodes,
                                                     seed=s_hit),
                      hitting_check))

    p, rewards, want = _basketball()
    mrp = []
    for gamma in sorted(want):
        spec = _write_json(os.path.join(work, f"mrp_{gamma}.json"),
                           {"P": p, "R": rewards, "gamma": gamma})
        mrp.append((["markov", "mrp", "--spec", spec, "--out",
                     spec.replace(".json", "_v.json")], gamma))

    def mrp_run():
        return [run_cli(argv, (argv[-1],)) for argv, _ in mrp]

    def mrp_check(outs):
        for out, (_, gamma) in zip(outs, mrp):
            v = json.loads(next(iter(out["files"].values())))["v"]
            err = float(np.abs(np.subtract(v, want[gamma])).max())
            expect(err <= 0.01, f"MRP values at gamma {gamma} off by {err}")

    tasks.append(Task("markov_mrp", None, mrp_run, mrp_check))

    lerw_path = os.path.join(work, "lerw.csv")
    lerw_argv = ["lerw", "--seed", str(s_lerw), "--out", lerw_path]

    def lerw_check(out):
        path = _csv(out, "lerw.csv").astype(int)
        steps = np.abs(np.diff(path, axis=0)).sum(axis=1)
        expect(tuple(path[0]) == (0, 0), "path does not start at the origin")
        expect(bool(np.all(steps == 1)), "path makes a non-unit step")
        expect(len({tuple(v) for v in path}) == len(path),
               "erased path is not self-avoiding")
        expect(int(np.abs(path[-1]).max()) == 101, "path ends inside the box")
        erased = int(out["stdout"].split()[-1])
        expect(erased == len(path), "printed erased length differs")

    tasks.append(Task("lerw", None, lambda: run_cli(lerw_argv, (lerw_path,)),
                      lerw_check))
    return tasks


# ---------------------------------------------------------------------------
# spectral_exact
# ---------------------------------------------------------------------------

def _kolmogorov_to_semicircle(evals):
    x = np.sort(evals)
    n = x.size
    f = randmat.semicircle_cdf(x)
    emp = np.arange(1, n + 1) / n
    return float(np.maximum(np.abs(emp - f), np.abs(emp - 1.0 / n - f)).max())


def spectral_exact(seed, size, work):
    s_gue, s_ar1 = _seeds(seed, 2)
    tasks = []

    gue_path = os.path.join(work, "gue.csv")
    gue_argv = ["gue", "--N", str(size["gue_n"]), "--seed", str(s_gue),
                "--out", gue_path]

    def gue_check(out):
        d = _kolmogorov_to_semicircle(_csv(out, "gue.csv")[:, 0])
        expect(d <= 0.06, f"Kolmogorov distance {d:.4f} > 0.06")

    tasks.append(Task("gue", "task.gue_s",
                      lambda: run_cli(gue_argv, (gue_path,)), gue_check))

    c, steps = 0.5, size["ar1_steps"]
    ar1_argv = ["free-ar1", "--N", str(size["ar1_n"]), "--steps", str(steps),
                "--c", str(c), "--seed", str(s_ar1)]
    ar1_var = (1 - c ** (2 * steps)) / (1 - c * c)  # 4/3 as steps grow

    def ar1_check(out):
        var = json.loads(out["stdout"])["var_last"]
        expect(abs(var - ar1_var) <= 0.1,
               f"free AR(1) variance {var:.4f} vs {ar1_var:.4f}")

    tasks.append(Task("free_ar1", "task.free_ar1_s",
                      lambda: run_cli(ar1_argv), ar1_check))

    n, order = size["poisson_n"], size["poisson_order"]
    piece = measures.AtomicMeasure(
        ((0, Fraction(n - 1, n)), (1, Fraction(1, n)))).moments(order)
    zs = np.array([0.3 + 0.5j, 2 + 0.5j, 2 + 2j, -1 + 1j, 4.5 + 0.5j,
                   1j, 0.5 + 2j, 3 + 1j, -0.5 + 0.25j, 5 + 0.2j])
    mp = (zs - transforms.sqrt_upper(zs * zs - 4 * zs)) / (2 * zs)

    def poisson_run():
        total = convolutions.convolve_power("free", piece, n)
        return transforms.cauchy(transforms.moment_quadrature(total), zs)

    def poisson_check(got):
        err = float(np.abs(got - mp).max())
        expect(err <= 2e-3, f"free Poisson vs Marchenko-Pastur {err:.3g}")

    tasks.append(Task("free_poisson", "task.free_poisson_s", poisson_run,
                      poisson_check))

    zero = _write_json(os.path.join(work, "zero_driving.json"),
                       {"kind": "constant", "values": [0.0]})
    spider_path = os.path.join(work, "spider.csv")
    horizon, spider_n = 2, size["spider_n"]
    spider_argv = ["spidernet-approx", "--driving", zero, "--T", str(horizon),
                   "--n", str(spider_n), "--order", "4", "--out", spider_path]

    def spider_check(out):
        m2 = _csv(out, "spider.csv")[:, 4]  # columns k, u, vertices, m1, m2
        want = np.arange(spider_n + 1) * horizon / spider_n
        err = float(np.abs(m2 - want).max())
        expect(err <= 1e-12, f"spidernet m2 differs from kT/n by {err:.3g}")

    tasks.append(Task("spidernet", "task.spidernet_s",
                      lambda: run_cli(spider_argv, (spider_path,)),
                      spider_check))

    clt_path = os.path.join(work, "clt.csv")
    clt_argv = ["clt", "--kind", "monotone", "--n", "4096", "--out", clt_path]

    def clt_check(out):
        m = _csv(out, "clt.csv")[:, 1]
        expect(abs(m[1] - 1.0) <= 1e-12, f"monotone CLT m2 {m[1]}")
        expect(abs(m[3] - 1.5) <= 2e-2, f"monotone CLT m4 {m[3]} vs 3/2")

    tasks.append(Task("clt", None, lambda: run_cli(clt_argv, (clt_path,)),
                      clt_check))

    inversions = {
        "semicircle": ["--law", "semicircle"],
        "marchenko_pastur": ["--law", "marchenko-pastur", "--c", "0.5"],
        "free_meixner": ["--law", "free-meixner", "--fm-a", "4", "--fm-c",
                         "2", "--fm-u", "1"],
    }
    inv_argv = {
        name: ["invert", *args, "--out", os.path.join(work, name + ".csv"),
               "--json-out", os.path.join(work, name + ".json")]
        for name, args in inversions.items()
    }

    def inv_run():
        return {name: run_cli(argv, (argv[-1],))
                for name, argv in inv_argv.items()}

    def inv_check(outs):
        semi = _measure(outs["semicircle"], "semicircle.json")
        inner = np.abs(semi.grid) <= 1.8
        err = float(np.abs(semi.density[inner] - measures.Semicircle(
            0, 1).density_at(semi.grid[inner])).max())
        expect(err <= 1e-3, f"semicircle density error {err:.3g}")
        mp_ = _measure(outs["marchenko_pastur"], "marchenko_pastur.json")
        expect(len(mp_.atoms) == 1 and abs(mp_.atoms[0][0]) <= 1e-6
               and abs(mp_.atoms[0][1] - 0.5) <= 1e-3,
               f"Marchenko-Pastur(1/2) atoms {mp_.atoms}, want [(0, 1/2)]")
        inner = (mp_.grid > 0.2) & (mp_.grid < 2.7)
        err = float(np.abs(mp_.density[inner] - measures.MarchenkoPastur(
            0.5).density_at(mp_.grid[inner])).max())
        expect(err <= 1e-2, f"Marchenko-Pastur density error {err:.3g}")
        fm = _measure(outs["free_meixner"], "free_meixner.json")
        expect(len(fm.atoms) == 1 and abs(fm.atoms[0][0] + 2) <= 1e-5
               and abs(fm.atoms[0][1] - 1 / 3) <= 1e-4,
               f"free Meixner atoms {fm.atoms}, want [(-2, 1/3)]")

    tasks.append(Task("invert_closed_forms", None, inv_run, inv_check))
    return tasks


_TASK_LISTS = {name: globals()[name] for name in WORKLOADS}


def build(workload, seed, size, work):
    return _TASK_LISTS[workload](seed, SIZES[size], work)
