import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ncprob import cli
from ncprob import measures as ms


def run(args, tmp_path):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return cli.main(args)
    finally:
        os.chdir(cwd)


@pytest.fixture
def files(tmp_path):
    json.dump({"atoms": [[-1, 0.5], [1, 0.5]]},
              open(tmp_path / "bern.json", "w"))
    json.dump({"kind": "constant", "values": [0.0]},
              open(tmp_path / "u0.json", "w"))
    json.dump({"P": [[0.0, 0.1, 0, 0], [0.6, 0, 0, 0],
                     [0.2, 0.8, 1, 0], [0.2, 0.1, 0, 1]],
               "R": [0, 0, 1, -1], "gamma": 0.5},
              open(tmp_path / "mrp.json", "w"))
    return tmp_path


class TestExitCodes:
    def test_unknown_flag(self, files):
        assert run(["convolve", "--oops"], files) == 2

    def test_unknown_kind(self, files):
        code = run(["convolve", "--kind", "warp", "--lhs", "bern.json",
                    "--rhs", "bern.json", "--out", "x.json"], files)
        assert code == 2

    def test_missing_file(self, files):
        code = run(["convolve", "--kind", "free", "--lhs", "nope.json",
                    "--rhs", "bern.json", "--out", "x.json"], files)
        assert code == 2

    def test_invalid_measure(self, files):
        json.dump({"atoms": [[0, 0.4]]}, open(files / "bad.json", "w"))
        code = run(["convolve", "--kind", "free", "--lhs", "bad.json",
                    "--rhs", "bern.json", "--out", "x.json"], files)
        assert code == 2

    @pytest.mark.parametrize("lhs, rhs", [("mom.json", "bern.json"),
                                          ("bern.json", "mom.json")])
    def test_convolve_mixed_inputs(self, files, capsys, lhs, rhs):
        json.dump({"moments": [0, 1, 0, 1]}, open(files / "mom.json", "w"))
        code = run(["convolve", "--kind", "free", "--lhs", lhs, "--rhs", rhs,
                    "--out", "x.json"], files)
        assert code == 2
        assert ("convolve needs two moment sequences or two atomic measures"
                in capsys.readouterr().err)

    def test_loewner_error_is_usage_error(self, files, capsys):
        code = run(["sle", "--kappa", "-1", "--T", "1", "--dt", "1e-2",
                    "--seed", "1", "--out", "s.csv"], files)
        assert code == 2
        assert "error: need kappa >= 0 and dt > 0" in capsys.readouterr().err

    def test_negative_loewner_time(self, files, capsys):
        code = run(["loewner", "--driving", "u0.json", "--t", "-1",
                    "--out", "c"], files)
        assert code == 2
        assert "argument --t: must be >= 0" in capsys.readouterr().err

    def test_nan_driving(self, files, capsys):
        json.dump({"kind": "constant", "values": [math.nan]},
                  open(files / "nan.json", "w"))
        code = run(["loewner", "--driving", "nan.json", "--t", "1",
                    "--out", "c"], files)
        assert code == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["invert", "--law", "semicircle", "--grid-min", "1", "--grid-max",
          "1"], "must be strictly increasing"),
        (["invert", "--law", "semicircle", "--grid-min", "3", "--grid-max",
          "-3"], "must be strictly increasing"),
        (["invert", "--law", "arcsine", "--grid-points", "0"],
         "needs at least 2 points"),
        (["invert", "--law", "arcsine", "--grid-points", "1"],
         "needs at least 2 points"),
        (["loewner", "--driving", "u0.json", "--t", "1", "--grid-points",
          "0"], "needs at least 2 points"),
        (["loewner", "--driving", "u0.json", "--t", "1", "--grid-points",
          "1"], "needs at least 2 points"),
    ])
    def test_bad_inversion_grid(self, files, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning exits 1
            code = run(argv + ["--out", "bad.csv"], files)
        assert code == 2
        assert f"error: inversion grid {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["invert", "loewner"])
    @pytest.mark.parametrize("bound", ["--grid-min", "--grid-max"])
    def test_nonfinite_grid_bound(self, files, capsys, command, bound):
        args = (["--law", "semicircle"] if command == "invert"
                else ["--driving", "u0.json", "--t", "1"])
        code = run([command, *args, bound, "nan", "--out", "bad.csv"], files)
        assert code == 2
        assert (f"argument {bound}: must be finite, got nan"
                in capsys.readouterr().err)

    SIGMA = "must be > 0 with a finite, nonzero square"

    @pytest.mark.parametrize("law, flag, value, message", [
        ("marchenko-pastur", "--c", "-1", "must be finite and > 0"),
        ("marchenko-pastur", "--c", "0", "must be finite and > 0"),
        ("marchenko-pastur", "--c", "nan", "must be finite and > 0"),
        ("marchenko-pastur", "--c", "inf", "must be finite and > 0"),
        ("semicircle", "--sigma", "0", SIGMA),
        ("arcsine", "--sigma", "-1", SIGMA),
        ("semicircle", "--sigma", "nan", SIGMA),
        ("semicircle", "--sigma", "inf", SIGMA),
        ("semicircle", "--sigma", "1e200", SIGMA),
        ("arcsine", "--sigma", "1e-200", SIGMA),
        ("free-meixner", "--fm-c", "0", "must be > 0"),
        ("free-meixner", "--fm-c", "-1", "must be > 0"),
    ])
    def test_bad_law_parameter(self, files, capsys, law, flag, value,
                               message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning exits 1
            code = run(["invert", "--law", law, flag, value,
                        "--out", "bad.csv"], files)
        assert code == 2
        assert (f"argument {flag}: {message}, got {value}"
                in capsys.readouterr().err)
        assert not (files / "bad.csv").exists()

    @pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
    def test_nonfinite_ar1_coefficient(self, files, capsys, c):
        code = run(["free-ar1", "--N", "4", "--steps", "2", f"--c={c}",
                    "--seed", "1"], files)
        assert code == 2
        captured = capsys.readouterr()
        assert "error: need |c| < 1 for stationarity" in captured.err
        assert captured.out == ""

    ISING = ["ising", "--beta", "0.4", "--seed", "1"]
    COUNT = "must be a whole number >= 0"
    LERW = ["lerw", "--seed", "1"]
    POSITIVE_COUNT = "must be a whole number >= 1"
    AR1 = ["free-ar1", "--c", "0.5", "--seed", "1"]

    @pytest.mark.parametrize("argv, flag, value, message", [
        (["clt", "--kind", "free"], "--n", "0", "must be > 0"),
        (["spidernet-approx", "--driving", "u0.json", "--n", "4"], "--T",
         "0", "must be finite and > 0"),
        (["invert", "--law", "free-meixner"], "--fm-a", "0", "must be > 0"),
        (["invert", "--law", "free-meixner"], "--fm-a", "-1", "must be > 0"),
        (["loewner", "--driving", "u0.json", "--t", "1"], "--tol", "-1",
         "must be finite and > 0"),
        (["loewner", "--driving", "u0.json", "--t", "1"], "--tol", "0",
         "must be finite and > 0"),
        (["loewner", "--driving", "u0.json", "--t", "1"], "--tol", "nan",
         "must be finite and > 0"),
        (ISING + ["--steps", "10"], "--width", "-1", "must be > 0"),
        (ISING + ["--steps", "10"], "--width", "0", "must be > 0"),
        (ISING + ["--steps", "10", "--width", "3"], "--height", "0",
         "must be > 0"),
        (ISING + ["--width", "3"], "--steps", "-5", COUNT),
        (ISING + ["--width", "3"], "--steps", "nan", COUNT),
        (ISING + ["--width", "3"], "--steps", "inf", COUNT),
        (ISING + ["--width", "3"], "--steps", "2.5", COUNT),
        (LERW, "--width", "-1", COUNT),
        (LERW, "--width", "2.5", COUNT),
        (LERW, "--cap", "nan", POSITIVE_COUNT),
        (LERW, "--cap", "inf", POSITIVE_COUNT),
        (LERW, "--cap", "-5", POSITIVE_COUNT),
        (LERW, "--cap", "2.5", POSITIVE_COUNT),
        (LERW, "--cap", "0", POSITIVE_COUNT),
        (["gue", "--seed", "1"], "--N", "0", "must be > 0"),
        (["gue", "--seed", "1"], "--N", "-3", "must be > 0"),
        (AR1 + ["--steps", "2"], "--N", "0", "must be > 0"),
        (AR1 + ["--N", "4"], "--steps", "0", "must be > 0"),
        (AR1 + ["--N", "4"], "--steps", "-1", "must be > 0"),
    ])
    def test_nonpositive_flag(self, files, capsys, argv, flag, value,
                              message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning exits 1
            code = run(argv + [flag, value, "--out", "bad"], files)
        assert code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {message}, got {value}" in err
        assert "domain error" not in err
        assert not any(name.startswith("bad") for name in os.listdir(files))

    @pytest.mark.parametrize("argv, message", [
        (["sle", "--kappa", "2", "--T", "0.04", "--dt", "0.1"],
         "horizon 0.04 is not a whole number of steps dt = 0.1 "
         "(--kappa 2.0, --T 0.04, --dt 0.1)"),
        (["sle", "--kappa", "2", "--T", "0.14", "--dt", "0.1"],
         "horizon 0.14 is not a whole number of steps dt = 0.1 "
         "(--kappa 2.0, --T 0.14, --dt 0.1)"),
        (["sle", "--kappa", "2", "--T", "-1", "--dt", "0.1"],
         "horizon must be > 0, got -1.0"),
        (["lerw", "--width", "10", "--cap", "5"],
         "walk did not exit within 5 steps"),
    ])
    def test_refused_input(self, files, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(argv + ["--seed", "1", "--out", "bad.csv"], files)
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (files / "bad.csv").exists()

    def test_ising_steps_as_float_literal(self):
        args = cli.build_parser().parse_args(
            ["ising", "--width", "3", "--beta", "0.4", "--steps", "1e8",
             "--seed", "1", "--out", "grid.csv"])
        assert args.steps == 10**8 and type(args.steps) is int

    def test_spidernet_too_large(self, files, capsys):
        code = run(["spidernet-approx", "--driving", "u0.json", "--T", "2",
                    "--n", "48", "--out", "sp.csv"], files)
        assert code == 2
        assert ("error: truncated spidernet has 10621441 > 10000000 vertices"
                in capsys.readouterr().err)

    def refused(self, files, capsys, argv):
        """stderr of a run that must exit 2 and write no ``bad*`` file."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning exits 1
            code = run(argv, files)
        assert code == 2
        err = capsys.readouterr().err
        assert "runtime error" not in err
        assert not any(name.startswith("bad") for name in os.listdir(files))
        return err

    P = [[0.5, 0.3], [0.5, 0.7]]
    DRIVE = ["--t", "1", "--out", "bad"]

    @pytest.mark.parametrize("argv, spec, key", [
        (["markov", "stationary"], {}, "P"),
        (["markov", "converge"], {"v0": [1, 0]}, "P"),
        (["markov", "mrp"], {"P": P, "gamma": 0.5}, "R"),
        (["markov", "mrp"], {"P": P, "R": [0, 1]}, "gamma"),
        (["markov", "mdp"], {"P": P}, "transitions"),
        (["markov", "mdp"], {"transitions": [[[1.0]]], "gamma": 0.5}, "R"),
        (["markov", "stationary"], [P], "P"),
        (["loewner", *DRIVE], {"kind": "constant"}, "values"),
        (["loewner", *DRIVE], {"values": [0.0]}, "kind"),
        (["loewner", *DRIVE], [0.0], "kind"),
        (["spidernet-approx", "--T", "1", "--n", "2", "--out", "bad.csv"],
         {"kind": "constant"}, "values"),
    ])
    def test_spec_missing_key(self, files, capsys, argv, spec, key):
        json.dump(spec, open(files / "spec.json", "w"))
        flag = "--spec" if argv[0] == "markov" else "--driving"
        if argv[0] == "markov":
            argv = argv + ["--out", "bad.json"]
        err = self.refused(files, capsys, argv + [flag, "spec.json"])
        assert f"needs a {key!r} entry" in err

    @pytest.mark.parametrize("argv", [
        ["sle", "--kappa", "2", "--T", "1", "--dt", "0.1"],
        ["gue", "--N", "3"],
        ["lerw", "--width", "3"],
        ["free-ar1", "--N", "3", "--steps", "2", "--c", "0.5"],
        ["ising", "--width", "3", "--beta", "0.4", "--steps", "10"],
    ])
    def test_negative_seed(self, files, capsys, argv):
        err = self.refused(files, capsys,
                           argv + ["--seed", "-1", "--out", "bad"])
        assert "argument --seed: must be >= 0, got -1" in err

    def test_seed_parsed_exactly(self):
        seed = 2**64 + 1  # a float would round it to 2**64
        args = cli.build_parser().parse_args(
            ["gue", "--N", "3", "--seed", str(seed), "--out", "eig.csv"])
        assert args.seed == seed and type(args.seed) is int

    @pytest.mark.parametrize("measure, entry", [
        ({"atoms": [[0, "a"]]}, "atoms[0][1]"),
        ({"atoms": [[True, 1]]}, "atoms[0][0]"),
        ({"atoms": [[0, 0.5, 1]]}, "atoms[0]"),
        ({"atoms": 1}, "atoms"),
        ({"grid": [0, "1"], "density": [1, 1]}, "grid[1]"),
        ({"grid": [0, 1], "density": [1, None]}, "density[1]"),
        ({"grid": [0, 1]}, "density"),
        ({"grid": [-1, 1], "density": [0.5, 0.5], "atoms": [["0", 1]]},
         "atoms[0][0]"),
    ])
    @pytest.mark.parametrize("command", ["convolve", "invert"])
    def test_non_numeric_measure(self, files, capsys, measure, entry,
                                 command):
        json.dump(measure, open(files / "m.json", "w"))
        argv = (["convolve", "--kind", "monotone", "--lhs", "m.json",
                 "--rhs", "bern.json", "--out", "bad.json"]
                if command == "convolve"
                else ["invert", "--measure", "m.json", "--out", "bad.csv"])
        err = self.refused(files, capsys, argv)
        assert f"measure JSON {entry} must be" in err

    @pytest.mark.parametrize("driving, entry", [
        ({"kind": "constant", "values": 5}, "values"),
        ({"kind": "constant", "values": ["0"]}, "values[0]"),
        ({"kind": "constant", "values": [True]}, "values[0]"),
        ({"kind": "sampled", "times": 1, "values": [0, 1]}, "times"),
        ({"kind": "sampled", "times": [0, None], "values": [0, 1]},
         "times[1]"),
    ])
    @pytest.mark.parametrize("command", ["loewner", "spidernet-approx"])
    def test_non_numeric_driving(self, files, capsys, driving, entry,
                                 command):
        json.dump(driving, open(files / "u.json", "w"))
        argv = ([command, "--driving", "u.json", "--out", "bad"]
                + (["--t", "1"] if command == "loewner"
                   else ["--T", "1", "--n", "2"]))
        err = self.refused(files, capsys, argv)
        assert f"error: driving JSON {entry} must be" in err

    @pytest.mark.parametrize("mode, spec", [
        ("mrp", {"P": P, "R": [0, 1]}),
        ("mdp", {"transitions": [[[1.0]]], "R": [0]}),
    ])
    @pytest.mark.parametrize("gamma", ["x", None, [0.5], True])
    def test_non_numeric_gamma(self, files, capsys, mode, spec, gamma):
        json.dump(dict(spec, gamma=gamma), open(files / "spec.json", "w"))
        err = self.refused(files, capsys, ["markov", mode, "--spec",
                                           "spec.json", "--out", "bad.json"])
        assert (f"error: markov {mode} spec 'gamma' must be a real number, "
                f"got {gamma!r}") in err

    # transitions[s', s, a]: two states that stay put under one action
    MDP = {"transitions": [[[1.0], [0.0]], [[0.0], [1.0]]], "R": [0, 1],
           "gamma": 0.5}

    @pytest.mark.parametrize("mode, spec, message", [
        ("stationary", {"P": "x"}, "'P' must be a list, got 'x'"),
        ("stationary", {"P": ["x", [0.5, 0.7]]},
         "'P'[0] must be a list, got 'x'"),
        ("stationary", {"P": [[0.5, "x"], [0.5, 0.7]]},
         "'P'[0][1] must be a real number, got 'x'"),
        ("converge", {"P": [[0.5, 0.3], [0.5, None]]},
         "'P'[1][1] must be a real number, got None"),
        ("stationary", {"P": [[0.5, 0.3], [0.5]]},
         "'P' entries must have one shape: [1] is [0.5] but [0] is "
         "[0.5, 0.3]"),
        ("converge", {"P": P, "v0": "x"}, "'v0' must be a list, got 'x'"),
        ("converge", {"P": P, "v0": [1, True]},
         "'v0'[1] must be a real number, got True"),
        ("mrp", {"P": P, "R": "x", "gamma": 0.5},
         "'R' must be a list, got 'x'"),
        ("mrp", {"P": P, "R": [0, "1"], "gamma": 0.5},
         "'R'[1] must be a real number, got '1'"),
        ("mdp", dict(MDP, transitions="x"),
         "'transitions' must be a list, got 'x'"),
        ("mdp", dict(MDP, transitions=[[[1.0], [0.0]], [[0.0], ["x"]]]),
         "'transitions'[1][1][0] must be a real number, got 'x'"),
        ("mdp", dict(MDP, transitions=[[[1.0], [0.0]], [[0.0]]]),
         "'transitions' entries must have one shape: [1] is [[0.0]] but "
         "[0] is [[1.0], [0.0]]"),
        ("mdp", dict(MDP, transitions=[[[1.0], [0.0]], [[0.0], [1.0, 0.0]]]),
         "'transitions'[1] entries must have one shape: [1] is [1.0, 0.0] "
         "but [0] is [0.0]"),
        ("mdp", dict(MDP, R="x"), "'R' must be a list, got 'x'"),
        ("mdp", dict(MDP, R=[None, 1]),
         "'R'[0] must be a real number, got None"),
    ])
    def test_non_numeric_markov_spec(self, files, capsys, mode, spec,
                                     message):
        json.dump(spec, open(files / "spec.json", "w"))
        err = self.refused(files, capsys, ["markov", mode, "--spec",
                                           "spec.json", "--out", "bad.json"])
        assert f"error: markov {mode} spec {message}\n" in err

    @pytest.mark.parametrize("driving, flags", [
        ({"kind": "constant", "values": [1e308]}, []),
        ({"kind": "constant", "values": [-9e307]}, []),
        ({"kind": "constant", "values": [1.7e308]}, ["--grid-min=-1e308"]),
        ({"kind": "constant", "values": [0.5]},
         ["--grid-min=-1.7e308", "--grid-max=1.7e308"]),
    ])
    def test_loewner_grid_overflow(self, files, capsys, driving, flags):
        json.dump(driving, open(files / "u.json", "w"))
        bound = abs(driving["values"][0])
        err = self.refused(files, capsys, ["loewner", "--driving", "u.json",
                                           "--t", "1", "--out", "bad",
                                           *flags])
        assert "Warning" not in err
        assert err.startswith("error: inversion grid [")
        assert f"is wider than the largest float (driving bound {bound!r})" \
            in err


    @pytest.mark.parametrize("value, flags", [
        (1e155, ["--grid-min=-1", "--grid-max=1"]),
        (-1e155, ["--grid-min=-1", "--grid-max=1"]),
        (1e155, []),
        (1e154, ["--grid-min=-1e154", "--grid-max=1"]),
    ])
    def test_loewner_driving_overflow(self, files, capsys, value, flags):
        json.dump({"kind": "constant", "values": [value]},
                  open(files / "u.json", "w"))
        err = self.refused(files, capsys, ["loewner", "--driving", "u.json",
                                           "--t", "1", "--out", "bad",
                                           *flags])
        assert "Warning" not in err
        assert err.startswith(f"error: driving bound {abs(value)!r} and "
                              "inversion grid [")
        assert "whose square overflows a float" in err

    def test_loewner_large_driving_reaches_the_flow(self, files, capsys):
        # (1e150 + 1)^2 is finite: the flow runs without a warning, and the
        # inversion's mass check refuses the result
        json.dump({"kind": "constant", "values": [1e150]},
                  open(files / "u.json", "w"))
        err = self.refused(files, capsys, ["loewner", "--driving", "u.json",
                                           "--t", "1", "--out", "bad",
                                           "--grid-min=-1", "--grid-max=1"])
        assert err.startswith("error: recovered mass")


class TestSubcommands:
    def test_convolve_boolean(self, files):
        code = run(["convolve", "--kind", "boolean", "--lhs", "bern.json",
                    "--rhs", "bern.json", "--out", "out.json"], files)
        assert code == 0
        out = ms.load_measure(files / "out.json")
        positions = [a for a, _ in out.atoms]
        assert positions == pytest.approx([-math.sqrt(2), math.sqrt(2)],
                                          abs=1e-8)

    def test_invert_free_meixner_atom(self, files):
        code = run(["invert", "--law", "free-meixner", "--fm-a", "4",
                    "--fm-c", "2", "--fm-u", "1", "--out", "fm.csv",
                    "--json-out", "fm.json"], files)
        assert code == 0
        rec = ms.load_measure(files / "fm.json")
        assert len(rec.atoms) == 1
        a, w = rec.atoms[0]
        assert abs(a + 2) < 1e-5 and abs(w - 1 / 3) < 1e-4

    @pytest.mark.parametrize("u", ["5", "-1"])
    def test_invert_free_meixner_any_u(self, files, u):
        code = run(["invert", "--law", "free-meixner", "--fm-a", "4",
                    "--fm-c", "2", "--fm-u", u, "--out", "fm.csv",
                    "--json-out", "fm.json"], files)
        assert code == 0
        rec = ms.load_measure(files / "fm.json")
        lo, hi = ms.FreeMeixner(4, 2, int(u)).edges()
        assert (rec.grid[0], rec.grid[-1]) == (lo - 0.2, hi + 0.2)

    @pytest.mark.parametrize("law", sorted(cli._LAWS))
    def test_law_table(self, law):
        args = cli.build_parser().parse_args(
            ["invert", "--law", law, "--out", "unused.csv"])
        obj = cli._LAWS[law](args)
        lo, hi = obj.edges()
        assert lo < hi
        assert all(isinstance(x, float) for x in obj.atom_candidates())
        y = 1e6
        assert abs(1j * y * obj.cauchy(np.array([1j * y]))[0] - 1) <= 1e-3

    def test_invert_semicircle(self, files):
        code = run(["invert", "--law", "semicircle", "--sigma", "1",
                    "--out", "semi.csv"], files)
        assert code == 0
        rows = np.genfromtxt(files / "semi.csv", delimiter=",", names=True)
        xs, dens = rows["x"], rows["density"]
        law = ms.Semicircle(0, 1)
        inner = np.abs(xs) <= 1.8
        assert np.abs(dens[inner] - law.density_at(xs[inner])).max() < 1e-3

    def test_clt_monotone(self, files):
        code = run(["clt", "--kind", "monotone", "--n", "4096",
                    "--order", "6", "--out", "clt.csv"], files)
        assert code == 0
        rows = np.genfromtxt(files / "clt.csv", delimiter=",", names=True)
        assert abs(rows["moment"][3] - 1.5) < 2e-2

    def test_loewner_emits_json_and_csv(self, files):
        code = run(["loewner", "--driving", "u0.json", "--t", "1.0",
                    "--out", "lw"], files)
        assert code == 0
        rec = ms.load_measure(files / "lw.json")
        assert abs(float(rec.moments(2)[2]) - 1.0) < 2e-3
        assert (files / "lw.csv").exists()

    def test_sle_csv(self, files):
        code = run(["sle", "--kappa", "2", "--T", "1", "--dt", "0.001",
                    "--seed", "7", "--out", "sle.csv"], files)
        assert code == 0
        rows = np.genfromtxt(files / "sle.csv", delimiter=",", names=True)
        assert rows["t"].size == 1001
        assert rows["u"][0] == 0.0

    def test_spidernet_approx_table(self, files):
        code = run(["spidernet-approx", "--driving", "u0.json", "--T", "2",
                    "--n", "2", "--order", "4", "--out", "sp.csv"], files)
        assert code == 0
        rows = np.genfromtxt(files / "sp.csv", delimiter=",", names=True)
        assert rows["m2"][2] == pytest.approx(2.0)

    def test_spidernet_approx_fourth_level(self, files):
        code = run(["spidernet-approx", "--driving", "u0.json", "--T", "2",
                    "--n", "4", "--order", "4", "--out", "sp4.csv"], files)
        assert code == 0
        rows = np.genfromtxt(files / "sp4.csv", delimiter=",", names=True)
        assert rows["vertices"].tolist() == [1, 545, 2113, 4705, 8321]
        assert rows["m2"].tolist() == [k * 2 / 4 for k in range(5)]
        assert rows["m4"].tolist() == [0, 0.375, 1.5, 3.375, 6.0]

    def test_markov_mrp(self, files):
        code = run(["markov", "mrp", "--spec", "mrp.json",
                    "--out", "v.json"], files)
        assert code == 0
        v = json.load(open(files / "v.json"))["v"]
        assert np.abs(np.array(v) - [0.43, 1.42, 2, -2]).max() <= 0.01

    def test_markov_mdp(self, files):
        json.dump(TestExitCodes.MDP, open(files / "mdp.json", "w"))
        code = run(["markov", "mdp", "--spec", "mdp.json", "--out", "v.json"],
                   files)
        assert code == 0
        out = json.load(open(files / "v.json"))
        assert out["v"] == pytest.approx([0.0, 2.0], abs=1e-9)
        assert out["policy"] == [0, 0]

    def test_markov_stationary(self, files):
        json.dump({"P": [[0.5, 0.25], [0.5, 0.75]]},
                  open(files / "chain.json", "w"))
        code = run(["markov", "stationary", "--spec", "chain.json",
                    "--out", "pi.json"], files)
        assert code == 0
        pi = json.load(open(files / "pi.json"))["pi"]
        assert pi == pytest.approx([1 / 3, 2 / 3])

    def test_ising_grid(self, files):
        code = run(["ising", "--width", "16", "--beta", "0.44",
                    "--steps", "1e4", "--seed", "1", "--out", "grid.csv"],
                   files)
        assert code == 0
        grid = np.genfromtxt(files / "grid.csv", delimiter=",")
        assert grid.shape == (16, 16)
        assert set(np.unique(grid)) <= {-1.0, 1.0}

    def test_lerw(self, files):
        code = run(["lerw", "--width", "10", "--seed", "1",
                    "--out", "path.csv"], files)
        assert code == 0
        rows = np.genfromtxt(files / "path.csv", delimiter=",", names=True)
        assert rows["x"][0] == 0.0 and rows["y"][0] == 0.0

    def test_gue(self, files):
        code = run(["gue", "--N", "64", "--seed", "1", "--out", "eig.csv"],
                   files)
        assert code == 0
        eig = np.genfromtxt(files / "eig.csv", delimiter=",", names=True)
        assert eig["eigenvalue"].size == 64

    def test_free_ar1(self, files, capsys):
        code = run(["free-ar1", "--N", "64", "--steps", "10", "--c", "0.5",
                    "--noise", "gue", "--seed", "1", "--out", "ar.json"],
                   files)
        assert code == 0
        res = json.load(open(files / "ar.json"))
        assert "var_last" in res


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_back_to_back_calls_match_fresh_processes(self, files, capsys):
        runs = [
            ["sle", "--kappa", "2", "--T", "0.1", "--dt", "0.01",
             "--seed", "3", "--out", "a.csv"],
            ["lerw", "--width", "10", "--seed", "2", "--out", "b.csv"],
            ["ising", "--width", "5", "--beta", "0.4", "--steps", "300",
             "--seed", "1", "--out", "c.csv"],
            ["loewner", "--driving", "u0.json", "--t", "1",
             "--grid-points", "101", "--out", "d"],
            ["sle", "--kappa", "4", "--T", "0.2", "--dt", "0.02",
             "--seed", "5", "--out", "e.csv"],
            ["gue", "--N", "6", "--seed", "4", "--out", "f.csv"],
            ["lerw", "--width", "8", "--cap", "100000", "--seed", "9",
             "--out", "g.csv"],
        ]
        outputs = ("a.csv", "b.csv", "c.csv", "d.csv", "d.json", "e.csv",
                   "f.csv", "g.csv")
        printed = []
        for argv in runs:
            assert run(argv, files) == 0
            printed.append(capsys.readouterr().out)
        in_process = {name: (files / name).read_bytes() for name in outputs}
        for name in outputs:
            (files / name).unlink()
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        for argv, out in zip(runs, printed):
            r = subprocess.run([sys.executable, "-m", "ncprob.cli", *argv],
                               cwd=files, env=env, capture_output=True,
                               text=True, check=True)
            assert r.stdout == out, argv[0]
        for name in outputs:
            assert (files / name).read_bytes() == in_process[name], name


class TestIdempotence:
    def test_byte_identical_reruns(self, files):
        for _ in range(2):
            assert run(["sle", "--kappa", "2", "--T", "0.1", "--dt", "0.001",
                        "--seed", "3", "--out", "a.csv"], files) == 0
            os.rename(files / "a.csv", files / f"run{_}.csv")
        assert (files / "run0.csv").read_bytes() == \
            (files / "run1.csv").read_bytes()


class TestPerSeedPin:
    """Per-seed outputs of the flow, Metropolis and episode kernels.

    A kernel rewrite that changes any of these lines changes per-seed
    output; it must update EXPECTED on purpose and say so.
    """

    SCRIPT = (
        "import numpy as np\n"
        "from ncprob import loewner as lw, markov as mk\n"
        "z = np.array([2j, 1+1j])\n"
        "out = lw.slit_chain(lw.DrivingFunction.constant(0.5), 1.0, z,"
        " tol=1e-9)\n"
        "print(repr(out[0]), repr(out[1]))\n"
        "st = mk.IsingState.random((8, 8), seed=1, beta=0.4)\n"
        "print(mk.metropolis_ising(st, 5000, seed=2).spins.tolist())\n"
        "hist = mk.metropolis_histogram((2, 2), 0.4, 1.0, 0.0, 500, 2000,"
        " seed=3)\n"
        "print(hist.tolist())\n"
        "p = np.array([[0.2, 0.6], [0.8, 0.4]])\n"
        "print(mk.hitting_time_mc(mk.TransitionMatrix(p), 0, 500, seed=4))\n"
    )

    EXPECTED = (
        "np.complex128(0.08896604097534705+2.4328890059909187j) "
        "np.complex128(0.7967953652602296+1.6846624257814837j)\n"
        "[[1, 1, -1, -1, 1, 1, 1, 1], "
        "[-1, -1, -1, 1, 1, 1, 1, 1], "
        "[-1, -1, -1, 1, 1, 1, 1, -1], "
        "[-1, -1, -1, -1, 1, 1, -1, -1], "
        "[-1, -1, -1, -1, 1, 1, 1, -1], "
        "[1, -1, -1, -1, -1, -1, 1, 1], "
        "[-1, -1, -1, -1, -1, -1, 1, -1], "
        "[-1, -1, -1, -1, -1, -1, 1, 1]]\n"
        "[424, 110, 64, 100, 99, 100, 19, 90, 96, 21,"
        " 90, 113, 101, 78, 101, 394]\n"
        "(2.364, 0.04731815719150527, 500)\n"
    )

    def test_script_output_matches_pin(self):
        r = subprocess.run([sys.executable, "-c", self.SCRIPT],
                           capture_output=True, text=True, check=True)
        got, want = r.stdout.splitlines(), self.EXPECTED.splitlines()
        for n, (g, w) in enumerate(zip(got, want), start=1):
            assert g == w, f"line {n} differs:\n got: {g}\nwant: {w}"
        assert len(got) == len(want)
