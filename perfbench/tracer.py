"""Per-layer tracing from outside the library.

The traced run replaces public module attributes of ``ncprob`` (and
``numpy.savetxt``, which the CLI uses to write Ising grids) with wrappers
that open a span and update counters, then restores the originals.  The
library itself is not modified.  A name that no longer exists is recorded
as missing and skipped, so the benchmark keeps running when a later
version removes a wrapped function.

Every span records its inclusive time and its self time (inclusive minus
its direct child spans).  Loewner flow calls are also attributed to the
innermost open inversion phase (``invert.<phase>``).
"""

import collections
import importlib
import os
import time

import numpy as np


def _module(name):
    """The named module, or None when a later version removed it."""
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _path_bytes(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _flow_counts(t, args, out):
    status = np.asarray(out[1])
    t.count["flow.calls"] += 1
    t.count["flow.points"] += len(args[0])
    t.count["flow.steps"] += int(np.sum(out[3]))
    kernels = importlib.import_module("ncprob._kernels")
    for name in ("ok", "underflow", "escape", "strangled"):
        code = getattr(kernels, "FLOW_" + name.upper())
        t.count["flow.status." + name] += int(np.sum(status == code))
    phase = t.innermost("invert.")
    if phase is not None:
        t.count[phase + ".flow_calls"] += 1
        t.count[phase + ".flow_points"] += len(args[0])


def _invert_counts(t, args, out):
    t.count["invert.refined_points"] += len(out.grid) - len(args[1])


def _hitting_counts(t, args, out):
    t.count["hitting.episodes"] += int(out[2])


def _io_counts(index):
    def hook(t, args, out):
        t.count["io.bytes"] += _path_bytes(args[index])
    return hook


# (module name, attribute, span name, hook(tracer, args, result) or None)
WRAPPED = (
    ("ncprob._kernels", "flow_batch", "flow", _flow_counts),
    ("ncprob.transforms", "stieltjes_invert", "invert.density",
     _invert_counts),
    ("ncprob.transforms", "check_cauchy_normalization", "invert.normcheck",
     None),
    ("ncprob.transforms", "scan_real_zeros", "invert.scan",
     lambda t, a, out: t.count.update({"invert.scan.roots": len(out)})),
    ("ncprob.transforms", "_vetted_atom", "invert.atoms",
     lambda t, a, out: t.count.update(
         {"invert.atoms.found": int(out is not None)})),
    ("ncprob.transforms", "_refine_pole", "invert.atoms", None),
    ("ncprob.markov", "metropolis_histogram", "metropolis", None),
    ("ncprob._kernels", "ising_run_hist", "metropolis.kernel",
     lambda t, a, out: t.count.update({"metropolis.proposals": len(a[4])})),
    ("ncprob.markov", "metropolis_ising", "ising", None),
    ("ncprob._kernels", "ising_run", "ising.kernel",
     lambda t, a, out: t.count.update({"ising.proposals": len(a[5]),
                                       "ising.accepted": int(out)})),
    ("ncprob.markov", "hitting_time_mc", "hitting", _hitting_counts),
    ("ncprob._kernels", "return_time_episodes", "hitting.kernel",
     lambda t, a, out: t.count.update({"hitting.transitions": len(a[2])})),
    ("ncprob.randmat", "sample_gue", "gue.sample",
     lambda t, a, out: t.count.update({"gue.sample.calls": 1})),
    ("ncprob.randmat", "free_ar1", "free_ar1", None),
    ("ncprob.convolutions", "convolve_power", "exact.convolve_power", None),
    ("ncprob.transforms", "moment_quadrature", "exact.moment_quadrature",
     None),
    ("ncprob.convolutions", "clt_iterate", "exact.clt", None),
    ("ncprob.graphs", "walk_moments", "graphs.walk_moments",
     lambda t, a, out: t.count.update({"graphs.walk_moments.calls": 1,
                                       "graphs.vertices": a[0].n})),
    ("ncprob.graphs", "comb_product", "graphs.comb_product", None),
    ("ncprob.graphs", "ball", "graphs.ball", None),
    ("ncprob.cli", "_load_json", "io", _io_counts(0)),
    ("ncprob.cli", "_write_csv", "io", _io_counts(0)),
    ("ncprob.measures", "write_density_csv", "io", _io_counts(1)),
    ("ncprob.measures", "save_measure", "io", _io_counts(1)),
    ("numpy", "savetxt", "io", _io_counts(0)),
)


class Tracer:
    """Spans and counters for one traced pass; ``install`` wraps the
    library, ``uninstall`` restores it."""

    def __init__(self):
        self.count = collections.Counter()
        self.incl = collections.defaultdict(float)
        self.self_s = collections.defaultdict(float)
        self.missing = sorted(f"{m}.{a}" for m, a, _, _ in WRAPPED
                              if not hasattr(_module(m), a))
        self.hook_errors = set()
        self._stack = []  # [name, child seconds]
        self._saved = []

    def reset(self):
        self.count.clear()
        self.incl.clear()
        self.self_s.clear()

    def snapshot(self):
        return {"count": dict(self.count), "incl": dict(self.incl),
                "self_s": dict(self.self_s)}

    def innermost(self, prefix):
        for name, _ in reversed(self._stack):
            if name.startswith(prefix):
                return name
        return None

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside span ``name``; a span already open under the
        same name is not reopened, so recursion is not counted twice."""
        if any(open_name == name for open_name, _ in self._stack):
            return fn(*args, **kwargs)
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.incl[name] += dt
            self.self_s[name] += dt - frame[1]
            if self._stack:
                self._stack[-1][1] += dt
            phase = self.innermost("invert.")
            if name == "flow" and phase is not None:
                self.incl[phase + ".flow"] += dt

    def _wrapper(self, fn, name, hook):
        def wrapped(*args, **kwargs):
            out = self.span(name, fn, *args, **kwargs)
            if hook is not None:
                try:
                    hook(self, args, out)
                except Exception:  # a changed signature must not stop a run
                    self.hook_errors.add(name)
            return out
        return wrapped

    def install(self):
        for module_name, attr, name, hook in WRAPPED:
            module = _module(module_name)
            if hasattr(module, attr):
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrapper(fn, name, hook))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
