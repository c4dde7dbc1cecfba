"""End-to-end and per-layer benchmark of ncprob.

Run from the repository root:

    python3 perfbench/run.py --workload slit_measure --seed 1 --seconds 25 --trace 0

The workload's tasks (see ``workloads.py``) run as one closed loop in this
process, one client and no added threads, pass after pass until
``--seconds`` is used up.  BLAS runs on one thread (``NCPROB_THREADS=1``).
Every output is checked against a closed form or an exact enumeration, and
every pass must reproduce the first pass's outputs exactly.

Pass and task times are means over the run's passes, that is the measured
time divided by the passes made (the inverse of the run's throughput).  On
a shared 2-core VM whose speed shifts by up to 45% for minutes at a time, a
median of a handful of passes jumps to one side of a shift that falls
inside a run, while the mean moves in proportion; over sets of ten seeds
the mean spread less than the median where the spread was largest (0.22
against 0.27 of the median on ``spectral_exact``).  Set-up time is the
median of several fresh set-ups.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics (``tracer.py``)
plus the tracing overhead.  Human-readable lines (provenance, every metric
with its unit and sample count, failures) come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 if any check failed.

Seed 1009 is held out: a later claim of a speed-up must also hold on it, so
do not use it while tuning a change.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREADS = "1"
HELD_OUT_SEED = 1009
SETUP_SAMPLES = {"full": 5, "tiny": 1}

os.environ["NCPROB_THREADS"] = THREADS  # read by ncprob on import
sys.path.insert(0, os.path.join(ROOT, "src"))

import ncprob  # noqa: E402  (must precede numpy so the thread cap applies)

if not os.path.abspath(ncprob.__file__).startswith(
        os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"ncprob was imported from {ncprob.__file__}, "
             f"not from {ROOT}/src")

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "task_geomean_s": "s",
                    "peak_rss_mb": "MB"}
TASK_METRICS = ("task.loewner_s", "task.metropolis_hist_s", "task.ising_s",
                "task.hitting_s", "task.gue_s", "task.free_ar1_s",
                "task.free_poisson_s", "task.spidernet_s")


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def warm_up():
    """One tiny call into each kernel, so lazy set-up (a JIT compile, a
    table) is paid here and not in the first timed pass."""
    from ncprob import loewner, markov
    loewner.slit_chain(loewner.DrivingFunction.constant(0.0), 0.01,
                       np.array([1j]), tol=1e-6)
    markov.metropolis_ising(markov.IsingState.random((3, 3), seed=0, beta=1.0),
                            16, seed=0)
    markov.metropolis_histogram((2, 2), 1.0, 1.0, 0.0, 4, 16, seed=0)
    chain = markov.TransitionMatrix(np.full((2, 2), 0.5))
    markov.hitting_time_mc(chain, 0, 4, seed=0, chunk=64)
    np.linalg.eigvalsh(np.eye(4))


def set_up(args, work):
    tasks = workloads.build(args.workload, args.seed, args.size, work)
    warm_up()
    return tasks


def setup_seconds(args):
    """Wall time from spawning a fresh interpreter until it has imported
    ncprob, built the workload's inputs and warmed the kernels."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    t0 = time.time()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.split()[-1]) - t0


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def fingerprint(value, h=None):
    """Order-sensitive digest of a task output, for the repeat check."""
    h = h or hashlib.sha256()
    if isinstance(value, dict):
        for k in sorted(value):
            h.update(repr(k).encode())
            fingerprint(value[k], h)
    elif isinstance(value, (list, tuple)):
        for v in value:
            fingerprint(v, h)
    elif isinstance(value, np.ndarray):
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, bytes):
        h.update(value)
    else:
        h.update(repr(value).encode())
    return h.hexdigest()


def run_pass(tasks, trace=None):
    """One pass over the tasks; returns timings, digests and failures."""
    times, digests, failures = {}, {}, []
    for task in tasks:
        t0 = time.perf_counter()
        try:
            if trace is None:
                out = task.run()
            else:
                trace.install()
                try:
                    out = trace.span("task." + task.name, task.run)
                finally:
                    trace.uninstall()
            times[task.name] = time.perf_counter() - t0
            task.check(out)
            digests[task.name] = fingerprint(out)
        except Exception as exc:  # a failed task is counted, not fatal
            times.setdefault(task.name, time.perf_counter() - t0)
            failures.append(f"{task.name}: {type(exc).__name__}: {exc}")
    return {"pass_s": sum(times.values()), "task_s": times,
            "digests": digests, "failures": failures}


def run_passes(tasks, seconds, trace, between=None):
    """Passes until ``seconds`` run out (at least one, or one traced and one
    untraced pair); a pass is not started if the median pass would overrun.
    ``between()`` runs after each pass, outside the measured time."""
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(run_pass(tasks))
        if trace is not None:
            trace.reset()
            traced.append((run_pass(tasks, trace), trace.snapshot()))
        if between is not None:
            t0 = time.perf_counter()
            between()
            deadline += time.perf_counter() - t0
        step = statistics.median(
            p["pass_s"] for p in plain) + statistics.median(
            [p["pass_s"] for p, _ in traced] or [0.0])
        if time.perf_counter() + step > deadline:
            return plain, traced


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def median_of(values):
    return float(statistics.median(values))


def mean_of(values):
    return float(statistics.fmean(values))


def task_means(tasks, passes):
    return {t.metric: mean_of(p["task_s"][t.name] for p in passes)
            for t in tasks if t.metric is not None}


def end_to_end(tasks, plain, setup):
    per_task = task_means(tasks, plain)
    return {
        "setup_s": median_of(setup),
        "pass_s": mean_of(p["pass_s"] for p in plain),
        "task_geomean_s": math.exp(statistics.fmean(
            math.log(v) for v in per_task.values())),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }, per_task


def layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("us_per_step"):
        return "us"
    if name.endswith(("accept_rate", "points_per_call")):
        return "ratio"
    return "bytes" if name == "io.bytes" else "count"


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(snap):
    """Per-layer metrics of one traced pass from its spans and counters."""
    c, incl, self_s = snap["count"], snap["incl"], snap["self_s"]
    m = {name: float(c.get(name, 0)) for name in (
        "flow.calls", "flow.points", "flow.steps", "flow.status.ok",
        "flow.status.escape", "flow.status.strangled",
        "flow.status.underflow", "invert.scan.roots", "invert.atoms.found",
        "invert.refined_points", "metropolis.proposals", "ising.proposals",
        "ising.accepted", "hitting.episodes", "hitting.transitions",
        "gue.sample.calls", "graphs.walk_moments.calls", "graphs.vertices",
        "io.bytes")}
    for phase in ("scan", "atoms", "density"):
        for what in ("flow_calls", "flow_points"):
            m[f"invert.{phase}.{what}"] = float(
                c.get(f"invert.{phase}.{what}", 0))
    m["flow.s"] = incl.get("flow", 0.0)
    m["flow.us_per_step"] = 1e6 * _ratio(m["flow.s"], m["flow.steps"])
    m["flow.points_per_call"] = _ratio(m["flow.points"], m["flow.calls"])
    m["invert.normcheck.s"] = incl.get("invert.normcheck", 0.0)
    m["invert.scan.s"] = incl.get("invert.scan", 0.0)
    m["invert.atoms.s"] = incl.get("invert.atoms", 0.0)
    # stieltjes_invert minus its normalization check and atom phases
    m["invert.density.s"] = (self_s.get("invert.density", 0.0)
                             + incl.get("invert.density.flow", 0.0))
    m["metropolis.s"] = incl.get("metropolis", 0.0)
    m["metropolis.kernel_s"] = incl.get("metropolis.kernel", 0.0)
    m["metropolis.proposals_per_s"] = _ratio(m["metropolis.proposals"],
                                             m["metropolis.s"])
    m["ising.s"] = incl.get("ising", 0.0)
    m["ising.accept_rate"] = _ratio(m["ising.accepted"], m["ising.proposals"])
    m["ising.proposals_per_s"] = _ratio(m["ising.proposals"], m["ising.s"])
    m["hitting.s"] = incl.get("hitting", 0.0)
    m["hitting.transitions_per_s"] = _ratio(m["hitting.transitions"],
                                            m["hitting.s"])
    m["gue.sample.s"] = incl.get("gue.sample", 0.0)
    # the gue task without sampling and file output: the eigensolve
    m["gue.eig_s"] = self_s.get("task.gue", 0.0)
    m["free_ar1.s"] = incl.get("free_ar1", 0.0)
    for name in ("exact.convolve_power", "exact.moment_quadrature",
                 "exact.clt", "graphs.walk_moments", "graphs.comb_product",
                 "graphs.ball"):
        m[name + ".s"] = incl.get(name, 0.0)
    m["io.s"] = incl.get("io", 0.0)
    return m


def per_layer(tasks, plain, traced):
    layers = [layer_metrics(snap) for _, snap in traced]
    out = {k: median_of(m[k] for m in layers) for k in layers[0]}
    out["trace.overhead_s"] = (mean_of(p["pass_s"] for p, _ in traced)
                               - mean_of(p["pass_s"] for p in plain))
    per_task = task_means(tasks, plain)
    for name in TASK_METRICS:
        out[name] = per_task.get(name, 0.0)
    return out


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _git_commit():
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head and head.startswith("ref: "):
        return _read(os.path.join(ROOT, ".git", head[5:]))
    return head  # a detached head, or None outside a git checkout


def _cpu():
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, entry, "level"))
        kind = _read(os.path.join(base, entry, "type"))
        size = _read(os.path.join(base, entry, "size"))
        if level and size:
            suffix = "" if kind == "Unified" else kind[0].lower()
            caches[f"L{level}{suffix}"] = size
    return model or platform.processor(), caches


def _blas():
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def provenance(args):
    import importlib.util
    import scipy
    model, caches = _cpu()
    backend = getattr(ncprob, "backend_name", None)
    return {
        "workload": args.workload, "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED, "size": args.size,
        "argv": sys.argv, "git_commit": _git_commit(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": model, "caches": caches,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": _blas(),
        "threads": {v: os.environ.get(v) for v in (
            "NCPROB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS", "NUMBA_NUM_THREADS")},
        "backend": backend() if backend else "missing (no backend switch)",
        "numba": ("importable" if importlib.util.find_spec("numba")
                  else "missing"),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                   help="'tiny' runs every task at a toy size (smoke test)")
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print the time and exit (used for setup_s)")
    return p.parse_args(argv)


def report(name, value, unit, note=""):
    print(f"{name:34s} {value:14.6g} {unit:6s} {note}")


def main(argv=None):
    args = parse_args(argv)
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        tasks = set_up(args, work)
        if args.setup_probe:
            print(repr(time.time()))
            return 0
        trace = tracer.Tracer() if args.trace else None
        setup = []

        def probe():  # set-ups spread over the run, not bunched before it
            if len(setup) < SETUP_SAMPLES[args.size]:
                setup.append(setup_seconds(args))

        plain, traced = run_passes(tasks, args.seconds, trace,
                                   None if trace else probe)
        while not trace and len(setup) < SETUP_SAMPLES[args.size]:
            probe()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("provenance " + json.dumps(provenance(args)))
    runs = plain + [p for p, _ in traced]
    failures = [f for p in runs for f in p["failures"]]
    first = runs[0]["digests"]
    failures += [f"{name}: output differs between passes"
                 for name in first
                 if any(p["digests"].get(name) != first[name] for p in runs)]
    attempted = len(tasks) * len(runs)
    failed = min(len(failures), attempted)

    print("pass times (s): " + " ".join(f"{p['pass_s']:.4f}" for p in plain))
    n = f"(mean of {len(plain)} passes)"
    if args.trace:
        metrics = per_layer(tasks, plain, traced)
        units = {k: layer_unit(k) for k in metrics}
        for name in sorted(metrics):
            report(name, metrics[name], units[name], n if name.startswith(
                "task.") else f"(median of {len(traced)} traced passes)")
        if trace.missing:
            print("missing (not traced): " + ", ".join(trace.missing))
        if trace.hook_errors:
            print("counters skipped: " + ", ".join(sorted(trace.hook_errors)))
    else:
        metrics, per_task = end_to_end(tasks, plain, setup)
        units = END_TO_END_UNITS
        for name, value in sorted(per_task.items()):
            report(name, value, "s", n)
        report("setup_s", metrics["setup_s"], "s",
               f"(median of {len(setup)} set-ups)")
        for name in ("pass_s", "task_geomean_s"):
            report(name, metrics[name], units[name], n)
        report("peak_rss_mb", metrics["peak_rss_mb"], "MB",
               "(peak of the process)")
    report("failed_frac", failed / attempted, "ratio",
           f"({failed} of {attempted} tasks)")
    for f in failures:
        print("FAILED " + f)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
