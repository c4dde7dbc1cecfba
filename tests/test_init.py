import os
import subprocess
import sys

import pytest

import ncprob

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ncprob.__file__)))
CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WARNING = "NCPROB_THREADS is set, but numpy was imported before ncprob"


def fresh_import(first, threads):
    """stderr and stdout of a new interpreter that imports ``first``, then
    numpy and ncprob, and prints the BLAS thread caps it ends with."""
    env = {k: v for k, v in os.environ.items()
           if k not in CAPS and k != "NCPROB_THREADS"}
    env["PYTHONPATH"] = SRC
    if threads is not None:
        env["NCPROB_THREADS"] = threads
    script = (f"import {first}\nimport numpy, ncprob, os\n"
              f"print([os.environ.get(v) for v in {CAPS!r}])\n")
    r = subprocess.run([sys.executable, "-W", "always", "-c", script],
                       env=env, capture_output=True, text=True, check=True)
    return r.stderr, r.stdout


class TestThreadCap:
    def test_numpy_first_warns_once(self):
        err, out = fresh_import("numpy", "1")
        assert err.count(WARNING) == 1
        assert "RuntimeWarning" in err

    def test_ncprob_first_is_silent(self):
        err, out = fresh_import("ncprob", "1")
        assert WARNING not in err
        assert out.strip() == "['1', '1', '1']"

    @pytest.mark.parametrize("first", ["numpy", "ncprob"])
    def test_unset_is_silent(self, first):
        err, out = fresh_import(first, None)
        assert WARNING not in err
        assert out.strip() == "[None, None, None]"


def fresh_run(script, tmp_path):
    """stdout of a new interpreter that runs ``script`` in ``tmp_path``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    r = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                       capture_output=True, text=True, check=True)
    return r.stdout


SCIPY_LOADED = "[m for m in sys.modules if m.split('.')[0] == 'scipy']"


class TestStartUp:
    """Only the graph functions and the GUE spectrum load scipy: graphs
    load scipy.sparse, ``gue_eigenvalues`` loads scipy.linalg."""

    def test_import_loads_no_scipy(self, tmp_path):
        out = fresh_run(f"import sys\nimport ncprob.cli\n"
                        f"print({SCIPY_LOADED})\n", tmp_path)
        assert out.strip() == "[]"

    def test_commands_load_no_scipy(self, tmp_path):
        (tmp_path / "u0.json").write_text(
            '{"kind": "constant", "values": [0.0]}')
        (tmp_path / "chain.json").write_text('{"P": [[0.5, 0.25], '
                                             '[0.5, 0.75]]}')
        runs = [
            ["loewner", "--driving", "u0.json", "--t", "1", "--out", "lw"],
            ["sle", "--kappa", "2", "--T", "0.1", "--dt", "0.01",
             "--seed", "1", "--out", "sle.csv"],
            ["markov", "stationary", "--spec", "chain.json",
             "--out", "pi.json"],
            ["ising", "--width", "4", "--beta", "0.4", "--steps", "100",
             "--seed", "1", "--out", "grid.csv"],
            ["lerw", "--width", "5", "--seed", "1", "--out", "path.csv"],
            ["free-ar1", "--N", "8", "--steps", "2", "--c", "0.5",
             "--seed", "1"],
        ]
        script = (
            "import contextlib, io, sys\n"
            "from ncprob import cli, graphs\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            f"    print(argv[0], {SCIPY_LOADED})\n"
            "g = graphs.spidernet(2, 1, 2)\n"
            "print(g.n, graphs.walk_moments(g, 4).values,"
            " 'scipy.sparse' in sys.modules)\n"
        )
        lines = fresh_run(script, tmp_path).splitlines()
        assert lines[:-1] == [f"{argv[0]} []" for argv in runs]
        assert lines[-1] == "13 (0, 4, 4, 28) True"

    def test_samplers_load_no_numpy_ma(self, tmp_path):
        # numpy.ma (pulled in by np.unique, for one) adds about 0.9 MB to
        # the resident set of every process that calls a sampler
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from ncprob import markov as mk\n"
            "mk.metropolis_histogram((2, 2), 1.0, 1.0, 0.0, 4, 16, seed=0)\n"
            "mk.hitting_time_mc(np.full((2, 2), 0.5), 0, 4, seed=0)\n"
            "mk.metropolis_ising(mk.IsingState.random((3, 3), seed=0), 16,"
            " seed=0)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        assert fresh_run(script, tmp_path).strip() == "False"

    def test_gue_loads_only_scipy_linalg(self, tmp_path):
        script = (
            "import contextlib, io, sys\n"
            "from ncprob import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['gue', '--N', '8', '--seed', '1',"
            " '--out', 'eig.csv']) == 0\n"
            "print('scipy.linalg' in sys.modules,"
            " 'scipy.sparse' in sys.modules)\n"
        )
        assert fresh_run(script, tmp_path).strip() == "True False"
