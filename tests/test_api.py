"""The public option surface: every parameter with a default and every
defaulted dataclass field of the library, pinned by name, so that adding
or removing a setting shows up as an edit here."""

import ast
import pathlib

import pytest

import ncprob

SRC = pathlib.Path(ncprob.__file__).parent

# "module.function(param)", "module.Class.method(param)" or
# "module.Class.field", in source order
OPTIONS = """
cli.main(argv)
convolutions.convolve(order)
graphs.RootedGraph.from_edges(root)
graphs.path_graph(root)
graphs.cycle_graph(root)
graphs.approx_process(order)
graphs.approx_process(k_max)
loewner.DrivingFunction.times
loewner.DrivingFunction.values
loewner.HerglotzField.from_driving(horizon)
loewner.evaluate_chain(tol)
loewner.evaluate_chain_point(tol)
loewner.slit_chain(tol)
loewner.inverse_flow(tol)
loewner.chain_fmap(tol)
loewner.chain_measure(tol)
loewner.chain_measure(eps_ladder)
loewner.approximate_field_by_slits(probe_points)
loewner.approximate_field_by_slits(tol)
loewner.nonlinear_resolvent(tol)
loewner.nonlinear_resolvent(max_steps)
loewner.resolvent_fmap(tol)
markov.hitting_time_mc(chunk)
markov.mdp_value_iteration(tol)
markov.channel_fixed_point(tol)
markov.curie_temperature(coupling)
markov.curie_temperature(boltzmann)
markov.IsingState.coupling
markov.IsingState.field
markov.IsingState.beta
markov.IsingState.frozen
markov.metropolis_ising(chunk)
markov.exact_boltzmann(coupling)
markov.exact_boltzmann(field)
markov.metropolis_exact_kernel(coupling)
markov.metropolis_exact_kernel(field)
markov.detailed_balance_audit(coupling)
markov.detailed_balance_audit(field)
markov.metropolis_histogram(chunk)
markov.homogeneous_kernel(eps_ladder)
measures.AtomicMeasure.from_pairs(merge_tol)
measures.AtomicMeasure.from_pairs(renormalize)
measures.AtomicMeasure.cdf(left)
measures.GridMeasure.cdf(left)
measures.GridMeasure.atoms
measures.Law.to_measure(resolution)
measures.Dirac.to_measure(resolution)
measures.Dirac.c
measures.Bernoulli.to_measure(resolution)
measures.Bernoulli.p
measures.Normal.to_measure(resolution)
measures.Normal.mean
measures.Normal.var
measures.Arcsine.to_measure(resolution)
measures.Semicircle.to_measure(resolution)
measures.Poisson.to_measure(resolution)
measures.Poisson.lam
measures.MarchenkoPastur.to_measure(resolution)
measures.MarchenkoPastur.c
measures.FreeMeixner.to_measure(resolution)
measures.FreeMeixner.a
measures.FreeMeixner.c
measures.FreeMeixner.u
measures.json_reals(size)
randmat.free_ar1(noise)
randmat.free_ar1(seed)
series.LaurentSeries.from_moments(order)
transforms.stieltjes_invert(atom_candidates)
transforms.stieltjes_invert(eps_ladder)
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


def options():
    """Every public function's or method's defaulted parameter (methods of
    any module-level class count) and every defaulted field of a public
    dataclass, across src/ncprob/*.py."""
    out = []
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, functions):
                out += _defaulted(f"{path.stem}.", node)
            elif isinstance(node, ast.ClassDef):
                prefix = f"{path.stem}.{node.name}."
                for item in node.body:
                    if isinstance(item, functions):
                        out += _defaulted(prefix, item)
                if _dataclass(node) and not node.name.startswith("_"):
                    out += [prefix + item.target.id for item in node.body
                            if isinstance(item, ast.AnnAssign)
                            and item.value is not None]
    return out


def test_option_surface():
    assert options() == OPTIONS
    assert len(OPTIONS) == 71


@pytest.mark.parametrize("owner, name", [
    ("ncprob", "scale_chain"),
    ("ncprob", "SpidernetSpec"),
    ("ncprob.loewner", "scale_chain"),
    ("ncprob.graphs", "SpidernetSpec"),
    ("ncprob.measures", "variance"),
    ("ncprob.loewner.HerglotzField", "rate"),
    ("ncprob.markov.MDPSpec", "n_actions"),
])
def test_removed_name_absent(owner, name):
    obj = ncprob
    for part in owner.split(".")[1:]:
        obj = getattr(obj, part)
    assert not hasattr(obj, name)
