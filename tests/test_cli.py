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
        "np.complex128(0.08896604103167721+2.4328890060149027j) "
        "np.complex128(0.7967953651574163+1.6846624257071368j)\n"
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
