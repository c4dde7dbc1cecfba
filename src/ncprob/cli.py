"""Command-line interface.

One subcommand per experiment family; numeric output is locale-independent
CSV or JSON, deterministic for a fixed configuration and seed.  Exit codes:
0 success, 2 validation/usage error (message names the violated
precondition), 1 unexpected runtime failure.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import convolutions, graphs, loewner, markov, measures, randmat
from . import transforms


def _format_cell(x):
    if isinstance(x, (bool, int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(x) for x in row) + "\n")


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _nonnegative(text):
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _positive(text):
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _sigma_squared(text):
    sigma = float(text)
    var = sigma * sigma
    if not (sigma > 0 and 0 < var < math.inf):
        raise argparse.ArgumentTypeError(
            f"must be > 0 with a finite, nonzero square, got {text}")
    return var


def _positive_int(text):
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _seed(text):
    """A nonnegative whole number, parsed exactly (no float rounding)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _whole(text, least=0):
    """A whole number >= ``least``, also written as a float such as 1e8."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (value >= least and math.isfinite(value) and value.is_integer()):
        raise argparse.ArgumentTypeError(
            f"must be a whole number >= {least}, got {text}")
    return int(value)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_convolve(args):
    lhs = measures.measure_from_json(_load_json(args.lhs))
    rhs = measures.measure_from_json(_load_json(args.rhs))
    if isinstance(lhs, measures.MomentSequence) and isinstance(
            rhs, measures.MomentSequence):
        lhs = lhs.truncate(min(lhs.order, args.order))
        rhs = rhs.truncate(min(rhs.order, args.order))
    out = convolutions.convolve(args.kind, lhs, rhs, order=args.order)
    measures.save_measure(out, args.out)
    return 0


# each --law choice as its law object, built from the invert flags
_LAWS = {
    "semicircle": lambda a: measures.Semicircle(a.mean, a.var),
    "arcsine": lambda a: measures.Arcsine(a.mean, a.var),
    "marchenko-pastur": lambda a: measures.MarchenkoPastur(a.c),
    "free-meixner": lambda a: measures.FreeMeixner(a.fm_a, a.fm_c, a.fm_u),
}


def _cmd_invert(args):
    candidates = list(args.atom or ())
    if args.law is not None:
        law = _LAWS[args.law](args)
        gmap, pad = law.cauchy, 0.2
        lo, hi = law.edges()
        candidates += law.atom_candidates()
    else:
        if args.measure is None:
            raise ValueError("invert needs either --law or --measure")
        mu = measures.measure_from_json(_load_json(args.measure))
        if isinstance(mu, measures.MomentSequence):
            raise ValueError("invert --measure expects atoms or a grid, "
                             "not a moment sequence")
        gmap, pad = mu, 0.5
        lo, hi = mu.support_bounds()
        candidates += [x for x, _ in mu.atoms]
    lo = args.grid_min if args.grid_min is not None else lo - pad
    hi = args.grid_max if args.grid_max is not None else hi + pad
    grid = np.linspace(lo, hi, args.grid_points)
    rec = transforms.stieltjes_invert(gmap, grid, atom_candidates=candidates)
    measures.write_density_csv(rec, args.out)
    if args.json_out:
        measures.save_measure(rec, args.json_out)
    return 0


def _cmd_loewner(args):
    driving = loewner.DrivingFunction.from_json(_load_json(args.driving))
    field = loewner.HerglotzField.from_driving(driving, horizon=args.t)
    # slit measures live within the driving range widened by sqrt(2t)
    bound = driving.bound()
    half = bound + math.sqrt(2 * args.t) + 0.5
    lo = args.grid_min if args.grid_min is not None else -half
    hi = args.grid_max if args.grid_max is not None else half
    if not math.isfinite(hi - lo):
        raise loewner.LoewnerError(
            f"inversion grid [{lo!r}, {hi!r}] is wider than the largest "
            f"float (driving bound {bound!r})")
    reach = bound + max(abs(lo), abs(hi))
    if not math.isfinite(reach * reach):  # the flow squares z - U(t)
        raise loewner.LoewnerError(
            f"driving bound {bound!r} and inversion grid [{lo!r}, {hi!r}] "
            f"reach {reach!r}, whose square overflows a float")
    grid = np.linspace(lo, hi, args.grid_points)
    mu = loewner.chain_measure(field, args.t, grid, tol=args.tol,
                               eps_ladder=(5e-3, 2.5e-3, 1.25e-3))
    measures.write_density_csv(mu, args.out + ".csv")
    measures.save_measure(mu, args.out + ".json")
    return 0


def _cmd_sle(args):
    try:
        driving = loewner.sle_driving(args.kappa, args.T, args.dt, args.seed)
    except loewner.LoewnerError as exc:
        raise loewner.LoewnerError(f"{exc} (--kappa {args.kappa}, "
                                   f"--T {args.T}, --dt {args.dt})") from exc
    _write_csv(args.out, ("t", "u"), zip(driving.times, driving.values))
    return 0


def _cmd_spidernet_approx(args):
    driving = loewner.DrivingFunction.from_json(_load_json(args.driving))
    res = graphs.approx_process(driving, args.T, args.n, order=args.order)
    header = ("k", "u", "vertices") + tuple(f"m{j}" for j in
                                            range(1, args.order + 1))
    rows = []
    for k in range(len(res.raw_moments)):
        scaled = res.scaled_moments(k)
        u = res.us[k - 1] if k else ""
        rows.append((k, u, res.graphs[k].n) + tuple(scaled.values))
    _write_csv(args.out, header, rows)
    return 0


_CLT_BASES = {
    "bernoulli": lambda order: measures.Bernoulli().moments(order),
}


def _cmd_clt(args):
    base = _CLT_BASES[args.base](args.order)
    out = convolutions.clt_iterate(args.kind, base, args.n)
    _write_csv(args.out, ("order", "moment"),
               [(j, float(v)) for j, v in enumerate(out.values, start=1)])
    return 0


def _json_array(value, where, ndim):
    """``value`` as an array when it is ``ndim`` levels of nested lists of
    real numbers with the entries of each list of one shape; else a
    MarkovError naming ``where`` or its bad list or entry."""
    if ndim == 1:
        return np.array(measures.json_reals(value, where,
                                            error=markov.MarkovError))
    if not isinstance(value, (list, tuple)):
        raise markov.MarkovError(f"{where} must be a list, got {value!r}")
    rows = [_json_array(v, f"{where}[{i}]", ndim - 1)
            for i, v in enumerate(value)]
    for i, row in enumerate(rows):
        if row.shape != rows[0].shape:
            raise markov.MarkovError(
                f"{where} entries must have one shape: [{i}] is "
                f"{value[i]!r} but [0] is {value[0]!r}")
    return np.array(rows)


def _cmd_markov(args):
    spec = _load_json(args.spec)

    def entry(key):
        if not (isinstance(spec, dict) and key in spec):
            raise markov.MarkovError(
                f"markov {args.mode} spec needs a {key!r} entry")
        return spec[key]

    def where(key):
        return f"markov {args.mode} spec {key!r}"

    def array(key, ndim):
        return _json_array(entry(key), where(key), ndim)

    def gamma():
        return measures.json_real(entry("gamma"), where("gamma"),
                                  markov.MarkovError)

    if args.mode != "mdp":
        p = markov.TransitionMatrix(array("P", 2))
    if args.mode == "stationary":
        result = {"pi": list(markov.stationary_distribution(p))}
    elif args.mode == "converge":
        v0 = array("v0", 1) if "v0" in spec else np.eye(p.n)[0]
        pi, theta, c = markov.convergence_report(p, v0)
        result = {"pi": list(pi), "theta": theta, "C": c}
    elif args.mode == "mrp":
        v = markov.mrp_value(p, array("R", 1), gamma())
        result = {"v": list(v)}
    else:
        mdp = markov.MDPSpec(array("transitions", 3), array("R", 1), gamma())
        v, policy = markov.mdp_value_iteration(mdp, tol=args.tol)
        result = {"v": list(v), "policy": [int(a) for a in policy]}
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def _cmd_ising(args):
    height = args.height if args.height is not None else args.width
    state = markov.IsingState.random(
        (height, args.width), seed=args.seed + 1,
        beta=args.beta, coupling=args.J, field=args.B,
    )
    out = markov.metropolis_ising(state, args.steps, args.seed)
    np.savetxt(args.out, out.spins, fmt="%d", delimiter=",")
    print(f"magnetization {markov.magnetization(out)!r}")
    return 0


def _cmd_lerw(args):
    path, walk = markov.lerw(args.width, args.cap, args.seed)
    _write_csv(args.out, ("x", "y"), path)
    print(f"walk length {len(walk)} erased length {len(path)}")
    return 0


def _cmd_gue(args):
    evals = randmat.gue_eigenvalues(args.N, args.seed)
    _write_csv(args.out, ("eigenvalue",), [(x,) for x in evals])
    return 0


def _cmd_free_ar1(args):
    res = randmat.free_ar1(args.N, args.steps, args.c, args.noise, args.seed)
    result = {
        "mean_last": res.mean_last,
        "var_last": res.var_last,
        "mixed_moment": res.mixed_moment,
        "noise_var_last": res.noise_var_last,
    }
    text = json.dumps(result)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The ``ncprob`` parser, built once per process: ``parse_args`` leaves
    it unchanged, so every ``main`` call can share it."""
    p = argparse.ArgumentParser(
        prog="ncprob",
        description="Noncommutative probability experiments",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("convolve", help="convolve two measure files")
    c.add_argument("--kind", required=True, choices=convolutions.KINDS)
    c.add_argument("--lhs", required=True)
    c.add_argument("--rhs", required=True)
    c.add_argument("--order", type=int, default=8)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=_cmd_convolve)

    c = sub.add_parser("invert", help="Stieltjes inversion to a density CSV")
    c.add_argument("--law", choices=sorted(_LAWS))
    c.add_argument("--measure", help="measure JSON to round-trip")
    c.add_argument("--mean", type=float, default=0.0)
    c.add_argument("--sigma", dest="var", type=_sigma_squared,
                   default=1.0, help="standard deviation")
    c.add_argument("--c", type=_positive, default=1.0)
    c.add_argument("--fm-a", type=_positive_int, default=2)
    c.add_argument("--fm-c", type=_positive_int, default=1)
    c.add_argument("--fm-u", type=int, default=0)
    c.add_argument("--grid-min", type=_finite)
    c.add_argument("--grid-max", type=_finite)
    c.add_argument("--grid-points", type=int, default=1201)
    c.add_argument("--atom", type=float, action="append")
    c.add_argument("--out", required=True)
    c.add_argument("--json-out")
    c.set_defaults(fn=_cmd_invert)

    c = sub.add_parser("loewner", help="recover the chain measure at time t")
    c.add_argument("--driving", required=True)
    c.add_argument("--t", type=_nonnegative, required=True)
    c.add_argument("--tol", type=_positive, default=1e-9,
                   help="Dormand-Prince tolerance; unused for constant and "
                        "piecewise-constant drivings, which flow in "
                        "closed form")
    c.add_argument("--grid-min", type=_finite)
    c.add_argument("--grid-max", type=_finite)
    c.add_argument("--grid-points", type=int, default=1201)
    c.add_argument("--out", required=True, help="prefix for .csv and .json")
    c.set_defaults(fn=_cmd_loewner)

    c = sub.add_parser("sle", help="sample an SLE driving function")
    c.add_argument("--kappa", type=float, required=True)
    c.add_argument("--T", type=float, required=True)
    c.add_argument("--dt", type=float, required=True)
    c.add_argument("--seed", type=_seed, required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=_cmd_sle)

    c = sub.add_parser("spidernet-approx",
                       help="growing graph approximation table "
                            "(levels n = 4 and 5 run in under a second)")
    c.add_argument("--driving", required=True)
    c.add_argument("--T", type=_positive, required=True)
    c.add_argument("--n", type=_positive_int, required=True)
    c.add_argument("--order", type=int, default=4)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=_cmd_spidernet_approx)

    c = sub.add_parser("clt", help="scaled moments of an iterated convolution")
    c.add_argument("--kind", required=True, choices=convolutions.KINDS)
    c.add_argument("--n", type=_positive_int, required=True)
    c.add_argument("--order", type=int, default=6)
    c.add_argument("--base", default="bernoulli", choices=sorted(_CLT_BASES))
    c.add_argument("--out", required=True)
    c.set_defaults(fn=_cmd_clt)

    c = sub.add_parser("markov", help="finite-chain solvers")
    c.add_argument("mode", choices=("stationary", "converge", "mrp", "mdp"))
    c.add_argument("--spec", required=True)
    c.add_argument("--tol", type=float, default=1e-10)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=_cmd_markov)

    c = sub.add_parser("ising", help="Metropolis simulation of the Ising model")
    c.add_argument("--width", type=_positive_int, required=True)
    c.add_argument("--height", type=_positive_int)
    c.add_argument("--beta", type=float, required=True)
    c.add_argument("--steps", type=_whole, required=True)
    c.add_argument("--seed", type=_seed, required=True)
    c.add_argument("--J", type=float, default=1.0)
    c.add_argument("--B", type=float, default=0.0)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=_cmd_ising)

    c = sub.add_parser("lerw", help="loop-erased random walk")
    c.add_argument("--width", type=_whole, default=100)
    c.add_argument("--cap", type=functools.partial(_whole, least=1),
                   default=10**7)
    c.add_argument("--seed", type=_seed, required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=_cmd_lerw)

    c = sub.add_parser("gue", help="sample a GUE matrix's eigenvalues")
    c.add_argument("--N", type=_positive_int, required=True)
    c.add_argument("--seed", type=_seed, required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=_cmd_gue)

    c = sub.add_parser("free-ar1", help="free autoregressive toy model")
    c.add_argument("--N", type=_positive_int, required=True)
    c.add_argument("--steps", type=_positive_int, required=True)
    c.add_argument("--c", type=float, required=True)
    c.add_argument("--noise", choices=("gue", "squared_gue"), default="gue")
    c.add_argument("--seed", type=_seed, required=True)
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_free_ar1)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.fn(args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
