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
