"""The public surface: every public top-level name of the library, every
public method of its public classes and every parameter with a default
and defaulted dataclass field, pinned by name, so that adding or removing
a name or a setting shows up as an edit here."""

import ast
import pathlib

import pytest

import ncprob

SRC = pathlib.Path(ncprob.__file__).parent

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# "module.name" of each public top-level function, class and single-name
# constant, in source order, and "module.Class.method" of each public
# method after its class
NAMES = """
_kernels.FLOW_OK
_kernels.FLOW_UNDERFLOW
_kernels.FLOW_ESCAPE
_kernels.FLOW_STRANGLED
_kernels.flow_batch
_kernels.slit_batch
cli.build_parser
cli.main
convolutions.KINDS
convolutions.convolve
convolutions.convolve_power
convolutions.boolean_divisibility_root
convolutions.clt_iterate
graphs.VERTEX_GUARD
graphs.RootedGraph
graphs.RootedGraph.n
graphs.RootedGraph.from_edges
graphs.RootedGraph.single_vertex
graphs.RootedGraph.max_degree
graphs.RootedGraph.neighbors
graphs.RootedGraph.depths
graphs.path_graph
graphs.star_graph
graphs.cycle_graph
graphs.spidernet
graphs.comb_product
graphs.comb_ball
graphs.star_product
graphs.direct_product
graphs.ball
graphs.walk_moments
graphs.spectral_distribution
graphs.ApproxProcess
graphs.ApproxProcess.scaled_moments
graphs.spidernet_bound
graphs.approx_process
loewner.HullCollision
loewner.DrivingFunction
loewner.DrivingFunction.constant
loewner.DrivingFunction.piecewise
loewner.DrivingFunction.sampled
loewner.DrivingFunction.bound
loewner.DrivingFunction.horizon
loewner.DrivingFunction.to_json
loewner.DrivingFunction.from_json
loewner.HerglotzField
loewner.HerglotzField.constant
loewner.HerglotzField.piecewise
loewner.HerglotzField.from_driving
loewner.HerglotzField.atoms
loewner.HerglotzField.is_slit
loewner.ChainPoint
loewner.evaluate_chain
loewner.evaluate_chain_point
loewner.slit_chain
loewner.inverse_flow
loewner.chain_fmap
loewner.EPS_LADDER
loewner.chain_measure
loewner.nonlinear_resolvent
loewner.resolvent_fmap
loewner.sle_driving
markov.TransitionMatrix
markov.TransitionMatrix.n
markov.is_irreducible
markov.period
markov.stationary_distribution
markov.iterate_distribution
markov.convergence_report
markov.hitting_time_mc
markov.expected_reward
markov.mrp_value
markov.MDPSpec
markov.MDPSpec.n_states
markov.mdp_value_iteration
markov.IsingState
markov.IsingState.random
markov.ising_energy
markov.magnetization
markov.metropolis_ising
markov.exact_boltzmann
markov.metropolis_exact_kernel
markov.detailed_balance_audit
markov.metropolis_histogram
markov.loop_erase
markov.lerw
measures.NcprobError
measures.NoConvergence
measures.sqrt_upper
measures.AtomicMeasure
measures.AtomicMeasure.from_pairs
measures.AtomicMeasure.dirac
measures.AtomicMeasure.positions
measures.AtomicMeasure.weights
measures.AtomicMeasure.support_bounds
measures.AtomicMeasure.moments
measures.AtomicMeasure.cdf
measures.AtomicMeasure.mass
measures.AtomicMeasure.sample
measures.GridMeasure
measures.GridMeasure.density_mass
measures.GridMeasure.atom_mass
measures.GridMeasure.mass
measures.GridMeasure.support_bounds
measures.GridMeasure.moments
measures.GridMeasure.cdf
measures.GridMeasure.sample
measures.MomentSequence
measures.MomentSequence.order
measures.MomentSequence.hankel
measures.MomentSequence.mean
measures.MomentSequence.floats
measures.MomentSequence.truncate
measures.GRID_RESOLUTION
measures.Dirac
measures.Dirac.moments
measures.Dirac.to_measure
measures.Dirac.sample
measures.Bernoulli
measures.Bernoulli.moments
measures.Bernoulli.to_measure
measures.Bernoulli.sample
measures.Normal
measures.Normal.moments
measures.Normal.to_measure
measures.Normal.sample
measures.Arcsine
measures.Arcsine.cdf_exact
measures.Arcsine.sample
measures.Arcsine.moments
measures.Arcsine.edges
measures.Arcsine.fmap
measures.Arcsine.cauchy
measures.Arcsine.density_at
measures.Arcsine.atoms
measures.Arcsine.to_measure
measures.Semicircle
measures.Semicircle.cdf_exact
measures.Semicircle.sample
measures.Semicircle.moments
measures.Semicircle.edges
measures.Semicircle.fmap
measures.Semicircle.cauchy
measures.Semicircle.density_at
measures.Semicircle.atoms
measures.Semicircle.to_measure
measures.Poisson
measures.Poisson.moments
measures.Poisson.to_measure
measures.Poisson.sample
measures.MarchenkoPastur
measures.MarchenkoPastur.sample
measures.MarchenkoPastur.moments
measures.MarchenkoPastur.edges
measures.MarchenkoPastur.fmap
measures.MarchenkoPastur.cauchy
measures.MarchenkoPastur.density_at
measures.MarchenkoPastur.atoms
measures.MarchenkoPastur.to_measure
measures.FreeMeixner
measures.FreeMeixner.moments
measures.FreeMeixner.edges
measures.FreeMeixner.fmap
measures.FreeMeixner.cauchy
measures.FreeMeixner.density_at
measures.FreeMeixner.atoms
measures.FreeMeixner.to_measure
measures.FreeMeixner.sample
measures.moments
measures.sample
measures.measure_to_json
measures.json_real
measures.json_reals
measures.measure_from_json
measures.save_measure
measures.load_measure
measures.write_density_csv
randmat.trace_state
randmat.trace_product
randmat.sample_gue
randmat.gue_eigenvalues
randmat.haar_unitary
randmat.esd
randmat.semicircle_cdf
randmat.marchenko_pastur_cdf
randmat.kolmogorov_distance
randmat.wigner_check
randmat.freeness_statistic
randmat.FreeAR1Result
randmat.free_ar1
series.compose_power
transforms.DEFAULT_EPS_LADDER
transforms.ATOM_THRESHOLD
transforms.cauchy
transforms.f_transform
transforms.b_transform
transforms.extrapolate_to_zero
transforms.check_cauchy_normalization
transforms.stieltjes_invert
transforms.scan_real_zeros
transforms.measure_from_ftransform
transforms.CUMULANT_KINDS
transforms.moments_to_cumulants
transforms.cumulants_to_moments
transforms.f_series
transforms.series_moments
transforms.free_meixner_f_series
transforms.jacobi_recurrence
transforms.moment_quadrature
""".split()

# "module.function(param)", "module.Class.method(param)" or
# "module.Class.field", in source order
OPTIONS = """
cli.main(argv)
graphs.RootedGraph.from_edges(root)
graphs.path_graph(root)
graphs.cycle_graph(root)
graphs.approx_process(order)
loewner.DrivingFunction.times
loewner.DrivingFunction.values
loewner.HerglotzField.from_driving(horizon)
loewner.evaluate_chain(tol)
loewner.evaluate_chain_point(tol)
loewner.slit_chain(tol)
loewner.inverse_flow(tol)
loewner.chain_fmap(tol)
loewner.chain_measure(tol)
loewner.nonlinear_resolvent(tol)
loewner.resolvent_fmap(tol)
markov.hitting_time_mc(chunk)
markov.mdp_value_iteration(tol)
markov.IsingState.coupling
markov.IsingState.field
markov.IsingState.beta
markov.exact_boltzmann(coupling)
markov.exact_boltzmann(field)
markov.metropolis_exact_kernel(coupling)
markov.metropolis_exact_kernel(field)
markov.detailed_balance_audit(coupling)
markov.detailed_balance_audit(field)
measures.AtomicMeasure.from_pairs(merge_tol)
measures.AtomicMeasure.from_pairs(renormalize)
measures.GridMeasure.atoms
measures.Dirac.c
measures.Bernoulli.p
measures.Normal.mean
measures.Normal.var
measures.Arcsine.mean
measures.Arcsine.var
measures.Semicircle.mean
measures.Semicircle.var
measures.Poisson.lam
measures.MarchenkoPastur.c
measures.FreeMeixner.a
measures.FreeMeixner.c
measures.FreeMeixner.u
measures.json_reals(size)
randmat.free_ar1(noise)
randmat.free_ar1(seed)
transforms.stieltjes_invert(atom_candidates)
transforms.measure_from_ftransform(atom_candidates)
transforms.measure_from_ftransform(eps_ladder)
""".split()


def _dataclass(node):
    for d in node.decorator_list:
        name = ast.unparse(d.func if isinstance(d, ast.Call) else d)
        if name.split(".")[-1] == "dataclass":
            return True
    return False


def _defaulted(prefix, fn):
    """Names of fn's parameters with a default, unless fn is
    private."""
    if fn.name.startswith("_"):
        return []
    a = fn.args
    positional = a.posonlyargs + a.args
    names = [p.arg for p in positional[len(positional) - len(a.defaults):]]
    names += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
              if d is not None]
    return [f"{prefix}{fn.name}({n})" for n in names]


def _top_level():
    """(module name, node) for each top-level statement of
    src/ncprob/*.py, in source order."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            yield path.stem, node


def _methods(node, private):
    """Public method names of class ``node``: its own in source order, then
    those it inherits, unless it overrides them, from each base that is a
    private class of its module (``private``: name -> ClassDef)."""
    out = [item.name for item in node.body
           if isinstance(item, FUNCTIONS) and not item.name.startswith("_")]
    for base in node.bases:
        if isinstance(base, ast.Name) and base.id in private:
            out += [m for m in _methods(private[base.id], private)
                    if m not in out]
    return out


def names():
    """Every public top-level function, class and single-name constant
    across src/ncprob/*.py, each public class followed by its public
    methods, inherited ones included."""
    out = []
    private = {}  # module -> {name: ClassDef} of its private classes
    for module, node in _top_level():
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            name = node.name
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)):
            name = node.targets[0].id
        else:
            continue
        if name.startswith("_"):
            if isinstance(node, ast.ClassDef):
                private.setdefault(module, {})[name] = node
            continue
        out.append(f"{module}.{name}")
        if isinstance(node, ast.ClassDef):
            out += [f"{module}.{name}.{m}"
                    for m in _methods(node, private.get(module, {}))]
    return out


def options():
    """Every public function's or method's defaulted parameter (methods of
    any module-level class count) and every defaulted field of a public
    dataclass, across src/ncprob/*.py."""
    out = []
    for module, node in _top_level():
        if isinstance(node, FUNCTIONS):
            out += _defaulted(f"{module}.", node)
        elif isinstance(node, ast.ClassDef):
            prefix = f"{module}.{node.name}."
            for item in node.body:
                if isinstance(item, FUNCTIONS):
                    out += _defaulted(prefix, item)
            if _dataclass(node) and not node.name.startswith("_"):
                out += [prefix + item.target.id for item in node.body
                        if isinstance(item, ast.AnnAssign)
                        and item.value is not None]
    return out


def test_name_surface():
    assert names() == NAMES
    assert len(NAMES) == 209


def test_option_surface():
    assert options() == OPTIONS
    assert len(OPTIONS) == 49


@pytest.mark.parametrize("owner, name", [
    ("ncprob", "scale_chain"),
    ("ncprob", "SpidernetSpec"),
    ("ncprob.loewner", "scale_chain"),
    ("ncprob.graphs", "SpidernetSpec"),
    ("ncprob.measures", "variance"),
    ("ncprob.loewner.HerglotzField", "rate"),
    ("ncprob.markov.MDPSpec", "n_actions"),
    ("ncprob", "KrausChannel"),
    ("ncprob", "channel_apply"),
    ("ncprob", "channel_fixed_point"),
    ("ncprob", "curie_temperature"),
    ("ncprob", "approximate_field_by_slits"),
    ("ncprob.markov", "KrausChannel"),
    ("ncprob.markov", "kraus_from_transition"),
    ("ncprob.markov", "channel_apply"),
    ("ncprob.markov", "channel_fixed_point"),
    ("ncprob.markov", "check_density_matrix"),
    ("ncprob.markov", "mdp_policy_chain"),
    ("ncprob.markov", "curie_temperature"),
    ("ncprob.markov", "CRITICAL_BETA"),
    ("ncprob.loewner", "approximate_field_by_slits"),
    ("ncprob.loewner", "SlitApproximation"),
    ("ncprob.loewner", "capacity_fit"),
    ("ncprob.graphs", "write_edge_list"),
    ("ncprob.graphs", "read_edge_list"),
    ("ncprob", "b_series"),
    ("ncprob", "r_series"),
    ("ncprob.series", "LaurentSeries"),
    ("ncprob.transforms", "cauchy_series"),
    ("ncprob.transforms", "b_series"),
    ("ncprob.transforms", "r_series"),
    ("ncprob.measures", "Law"),
    ("ncprob.measures.MomentSequence", "variance"),
    ("ncprob.loewner.HerglotzField", "scaled"),
    ("ncprob.markov.IsingState", "aligned"),
    ("ncprob.graphs.RootedGraph", "degree"),
    ("ncprob.graphs.RootedGraph", "check_valid"),
    ("ncprob.measures.FreeMeixner", "jacobi"),
    ("ncprob.measures.Arcsine", "half_width"),
    ("ncprob.measures.Semicircle", "half_width"),
    ("ncprob", "homogeneous_kernel"),
    ("ncprob.markov", "homogeneous_kernel"),
    ("ncprob", "levy_distance"),
    ("ncprob.measures", "levy_distance"),
    ("ncprob.measures.Semicircle", "atom_candidates"),
    ("ncprob.measures.FreeMeixner", "atom_candidates"),
    ("ncprob.markov.IsingState", "frozen"),
])
def test_removed_name_absent(owner, name):
    obj = ncprob
    for part in owner.split(".")[1:]:
        obj = getattr(obj, part)
    assert not hasattr(obj, name)
