"""The refusal contract of the named laws: whatever parameters and counts
a caller passes, a constructor, ``moments``, ``to_measure`` and ``sample``,
called on the law or through ``measures.sample``, return or raise
``NcprobError``, with no other exception and no numpy warning on the
way.  The inversion entries, the count arguments of the convolution
and graph builders and of the Markov samplers, atomic measures and the
resolvent's tolerance refuse malformed input the same way, naming it."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncprob import convolutions as cv
from ncprob import graphs as gr
from ncprob import loewner as lw
from ncprob import markov as mk
from ncprob import measures as ms
from ncprob import randmat as rm
from ncprob import transforms as tr

# law and its number of parameters
LAWS = {"dirac": (ms.Dirac, 1), "bernoulli": (ms.Bernoulli, 1),
        "normal": (ms.Normal, 2), "arcsine": (ms.Arcsine, 2),
        "semicircle": (ms.Semicircle, 2), "poisson": (ms.Poisson, 1),
        "marchenko-pastur": (ms.MarchenkoPastur, 1),
        "free-meixner": (ms.FreeMeixner, 3)}
PARAMETERS = st.sampled_from([math.nan, math.inf, -math.inf, 0, -1, -0.5,
                              0.5, 1, 2, Fraction(3, 2)])
COUNTS = st.sampled_from([0, 1.5, True, -1, 3])


def returns_or_refuses(call):
    try:
        call()
    except ms.NcprobError:
        pass


@pytest.mark.parametrize("name", sorted(LAWS))
@given(data=st.data(), order=COUNTS, n=COUNTS)
@settings(max_examples=60, deadline=5000)
def test_law_surface(name, data, order, n):
    law, arity = LAWS[name]
    params = [data.draw(PARAMETERS) for _ in range(arity)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            law = law(*params)
        except ms.NcprobError:
            return
        returns_or_refuses(lambda: law.moments(order))
        returns_or_refuses(law.to_measure)
        returns_or_refuses(lambda: law.sample(n, 1))
        returns_or_refuses(lambda: ms.sample(law, n, seed=1))


@pytest.mark.parametrize("law, message", [
    (lambda: ms.Dirac(math.inf), "Dirac point c must be finite"),
    (lambda: ms.Normal(0, math.nan), "Normal needs a finite mean"),
    (lambda: ms.Normal(0, 0).to_measure(), "Normal with variance 0"),
    (lambda: ms.Arcsine(math.nan, 1), "Arcsine needs a finite mean"),
    (lambda: ms.Semicircle(0, math.inf), "Semicircle needs a finite mean"),
    (lambda: ms.Poisson(math.nan), "Poisson rate must be positive"),
    (lambda: ms.Poisson(math.inf), "Poisson rate must be positive"),
    (lambda: ms.MarchenkoPastur(math.inf), "Marchenko-Pastur parameter"),
    (lambda: ms.FreeMeixner(math.nan, 1, 0), "a > 0 and c > 0, all finite"),
    (lambda: ms.FreeMeixner(1, 1, -math.inf), "a > 0 and c > 0, all finite"),
    (lambda: ms.Semicircle().moments(2.5), "moment order must be >= 1"),
    (lambda: ms.Semicircle().moments(True), "moment order must be >= 1"),
    (lambda: ms.sample(ms.Normal(), 1.5, seed=1), "sample count must be"),
    (lambda: ms.Normal().sample(1.5, 1), "an int, got 1.5"),
    (lambda: ms.Poisson().sample(-1, 1), "an int, got -1"),
    (lambda: ms.Dirac(1e200).moments(2), "moment m_2 is too large"),
    (lambda: ms.Poisson(1e6).moments(60), "moment m_52 is too large"),
    (lambda: ms.Semicircle(0, 1e-300).to_measure(),
     "support width 4e-150 is too narrow"),
    (lambda: ms.Arcsine(0, 1e300),
     r"Arcsine is too wide for F in floats: .* got mean=0, var=1e\+300"),
    (lambda: ms.Semicircle(0, 1e300),
     r"Semicircle is too wide for F .* got mean=0, var=1e\+300"),
    (lambda: ms.MarchenkoPastur(1e300),
     r"MarchenkoPastur is too wide for F .* got c=1e\+300"),
    pytest.param(lambda: ms.FreeMeixner(10**200, 10**200, 0),
                 f"FreeMeixner is too wide for F .* got a={10**200}, "
                 f"c={10**200}, u=0", id="free-meixner-1e200"),
    (lambda: ms.MomentSequence((0.0, math.nan)),
     "moment m_2 must be finite, got nan"),
    (lambda: ms.MomentSequence((0.0, math.inf, 1.0)),
     "moment m_2 must be finite, got inf"),
])
def test_refusal_names_the_parameter(law, message):
    with pytest.raises(ms.NcprobError, match=message):
        law()


class Counted:
    """The semicircle's Cauchy transform, counting its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, z):
        self.calls += 1
        return ms.Semicircle().cauchy(z)


BAD_CANDIDATES = [
    ([math.nan], "atom_candidates must be .* finite reals, got nan"),
    ([0.0, math.inf], "atom_candidates must be .* finite reals, got inf"),
    ([-math.inf], "atom_candidates must be .* finite reals, got -inf"),
    ([10 ** 400], "atom_candidates must be .* finite reals, got 1000"),
    ([Fraction(1, 3), np.float64(math.nan)], "got np.float64\\(nan\\)"),
    (["x"], "atom_candidates must be a 1-d sequence of finite reals"),
    ("0.5", "atom_candidates must be a 1-d sequence of finite reals"),
    ([[0.0, 1.0]], "atom_candidates must be a 1-d sequence of finite reals"),
    (np.zeros((2, 2)), "atom_candidates must be a 1-d sequence"),
    (0.5, "atom_candidates must be a 1-d sequence of finite reals"),
    ([True], "atom_candidates must be a 1-d sequence of finite reals"),
    ([1j], "atom_candidates must be a 1-d sequence of finite reals"),
]
BAD_LADDERS = [
    ((), "eps_ladder must hold one or more distinct heights > 0"),
    ((1e-2, 1e-2), "eps_ladder must hold one or more distinct heights > 0"),
    ((1e-2, 5e-3, 1e-2), "eps_ladder must hold one or more distinct"),
    ((1e-2, math.nan), "eps_ladder must be .* finite reals, got nan"),
    ((math.inf,), "eps_ladder must be .* finite reals, got inf"),
    ((-1e-2,), "eps_ladder must hold one or more distinct heights > 0"),
    ((1e-2, 0.0), "eps_ladder must hold one or more distinct heights > 0"),
    (1e-2, "eps_ladder must be a 1-d sequence of finite reals"),
    (("1e-2",), "eps_ladder must be a 1-d sequence of finite reals"),
]
GRID = np.linspace(-2.2, 2.2, 201)


@pytest.mark.parametrize("cands, message", BAD_CANDIDATES)
@pytest.mark.parametrize("entry", [tr.stieltjes_invert,
                                   tr.measure_from_ftransform])
def test_inversion_refuses_candidates(entry, cands, message):
    # refused before the map is called; the semicircle's F = 1/G is as
    # good a map for measure_from_ftransform as G is for stieltjes_invert
    g = Counted()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ms.NcprobError, match=message):
            entry(g, GRID, cands)
    assert g.calls == 0


@pytest.mark.parametrize("ladder, message", BAD_LADDERS)
def test_inversion_refuses_ladders(ladder, message):
    calls = [
        lambda: tr.measure_from_ftransform(Counted(), GRID, None, ladder),
        lambda: tr.measure_from_ftransform(Counted(), GRID, [0.0], ladder),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ms.NcprobError, match=message):
                call()


BERN = ms.MomentSequence((0, 1, 0, 1, 0, 1, 0, 1))
DRIVING = lw.DrivingFunction.constant(0.0)


@pytest.mark.parametrize("call, message", [
    *[(lambda k=k: cv.clt_iterate(k, BERN, 1.5),
       "convolution count n must be >= 1 and an int, got 1.5")
      for k in cv.KINDS],
    (lambda: cv.clt_iterate("monotone", BERN, 4.0),
     "convolution count n must be >= 1 and an int, got 4.0"),
    (lambda: cv.clt_iterate("free", BERN, True), "an int, got True"),
    *[(lambda k=k: cv.convolve_power(k, BERN, 2.5),
       "convolution count n must be >= 1 and an int, got 2.5")
      for k in cv.KINDS],
    (lambda: cv.convolve_power("free", BERN, 0), "an int, got 0"),
    (lambda: cv.boolean_divisibility_root(BERN, 1.5),
     "root order n must be >= 1 and an int, got 1.5"),
    (lambda: gr.walk_moments(gr.path_graph(3), 1.5),
     "walk order must be >= 1 and an int, got 1.5"),
    (lambda: gr.walk_moments(gr.path_graph(3), True),
     "walk order must be >= 1 and an int, got True"),
    (lambda: gr.spidernet(1.5, 0, 2),
     "spidernet n must be >= 1 and an int, got 1.5"),
    (lambda: gr.spidernet(2, 0, 2.0),
     "spidernet depth must be >= 1 and an int, got 2.0"),
    (lambda: gr.spidernet(2, 1.0, 2), "an int, got 1.0"),
    (lambda: gr.spidernet(2, True, 2), "an int, got True"),
    (lambda: gr.approx_process(DRIVING, 1.0, 1.5),
     "approximation level n must be >= 1 and an int, got 1.5"),
    (lambda: gr.approx_process(DRIVING, 1.0, 2, order=2.5),
     "moment order must be >= 1 and an int, got 2.5"),
])
def test_count_refusal_names_the_argument(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ms.NcprobError, match=message):
            call()


HALVES = np.full((2, 2), 0.5)


@pytest.mark.parametrize("call, message", [
    (lambda: mk.metropolis_histogram((2, 2), 0.4, 1.0, 0.0, -1, 10, 1),
     "burn_in must be >= 0 and an int, got -1"),
    (lambda: mk.metropolis_histogram((2, 2), 0.4, 1.0, 0.0, math.nan, 10,
                                     1), "burn_in must be .* got nan"),
    (lambda: mk.metropolis_histogram((2, 2), 0.4, 1.0, 0.0, 0, 2.5, 1),
     "samples must be >= 1 and an int, got 2.5"),
    (lambda: mk.metropolis_histogram((2, 2), 0.4, 1.0, 0.0, 0, 0, 1),
     "samples must be >= 1 and an int, got 0"),
    (lambda: mk.lerw(math.nan, 100, 1), "width must be >= 0 and an int"),
    (lambda: mk.lerw(2.5, 100, 1), "width must be >= 0 and an int"),
    (lambda: mk.lerw(3, -1, 1), "steps_cap must be >= 0 and an int, got -1"),
    (lambda: mk.lerw(3, math.nan, 1), "steps_cap must be .* got nan"),
    (lambda: mk.lerw(3, math.inf, 1), "steps_cap must be .* got inf"),
    (lambda: mk.hitting_time_mc(HALVES, 0, 10, 1, chunk=1.5),
     "chunk must be >= 1 and an int, got 1.5"),
    (lambda: mk.hitting_time_mc(HALVES, 0, 10, 1, chunk=True),
     "chunk must be >= 1 and an int, got True"),
    (lambda: mk.hitting_time_mc(HALVES, 0, 10, 1, chunk=math.nan),
     "chunk must be .* got nan"),
    (lambda: mk.hitting_time_mc(HALVES, 1.5, 10, 1),
     "state 1.5 is not one of the chain's 2 states"),
    (lambda: mk.hitting_time_mc(HALVES, True, 10, 1),
     "state True is not one of the chain's 2 states"),
])
def test_sampler_refusal_names_the_argument(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ms.NcprobError, match=message):
            call()


# columns summing to 0.7: not a chain
SHORT = [[0.5, 0.5], [0.2, 0.2]]


@pytest.mark.parametrize("call, message", [
    (lambda: mk.stationary_distribution(SHORT), "columns must sum to 1"),
    (lambda: mk.iterate_distribution(SHORT, [1, 0], 3),
     "columns must sum to 1"),
    (lambda: mk.convergence_report(SHORT, [1, 0]), "columns must sum to 1"),
    (lambda: mk.expected_reward(SHORT, [1, 0]), "columns must sum to 1"),
    (lambda: mk.mrp_value(SHORT, [1, 0], 0.5), "columns must sum to 1"),
    (lambda: mk.stationary_distribution([[1, math.nan], [0, 0.5]]),
     r"entries must lie in \[0, 1\]"),
    (lambda: mk.mrp_value([0.5, 0.5], [1, 0], 0.5),
     "transition matrix must be square"),
    (lambda: mk.period(np.eye(2), 5),
     "state 5 is not one of the chain's 2 states"),
    (lambda: mk.period(np.eye(2), 1.5),
     "state 1.5 is not one of the chain's 2 states"),
    (lambda: mk.is_irreducible(np.ones(3)),
     r"matrix must be square, got shape \(3,\)"),
])
def test_chain_refusal_names_the_condition(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ms.NcprobError, match=message):
            call()


NEED = "need 0 < J < inf, 0 <= B < inf, beta >= 0"
SHAPE = "lattice shape must be positive: two ints >= 1, got "
STATE = mk.IsingState(np.ones((2, 2)))


@pytest.mark.parametrize("call, message", [
    (lambda: mk.hitting_time_mc(HALVES, 0, 10, -1),
     "seed must be >= 0 and an int, got -1"),
    (lambda: mk.hitting_time_mc(HALVES, 0, 10, 1.5), "seed .* got 1.5"),
    (lambda: mk.metropolis_histogram((2, 2), 0.4, 1.0, 0.0, 0, 10, -1),
     "seed .* got -1"),
    (lambda: mk.IsingState.random((2, 2), -1), "seed .* got -1"),
    (lambda: mk.metropolis_ising(STATE, 3, 1.5), "seed .* got 1.5"),
    (lambda: mk.metropolis_ising(STATE, 3, True), "seed .* got True"),
    (lambda: mk.lerw(3, 10, math.nan), "seed .* got nan"),
    (lambda: mk.metropolis_histogram((2,), 0.4, 1.0, 0.0, 0, 10, 1),
     SHAPE + r"\(2,\)"),
    (lambda: mk.metropolis_histogram((2.5, 2), 0.4, 1.0, 0.0, 0, 10, 1),
     SHAPE + r"\(2.5, 2\)"),
    (lambda: mk.metropolis_histogram(4, 0.4, 1.0, 0.0, 0, 10, 1),
     SHAPE + "4"),
    (lambda: mk.exact_boltzmann((2, 2), math.nan), NEED),
    (lambda: mk.exact_boltzmann((0, 2), 0.3), SHAPE + r"\(0, 2\)"),
    (lambda: mk.exact_boltzmann((2, 2), 0.3, coupling=-1), NEED),
    (lambda: mk.exact_boltzmann((2, 2), 0.3, field=math.inf), NEED),
    (lambda: mk.metropolis_exact_kernel((2, 2), -1.0), NEED),
    (lambda: mk.metropolis_exact_kernel((2, True), 0.3), SHAPE),
    (lambda: mk.detailed_balance_audit((2, 2), math.nan), NEED),
    (lambda: mk.detailed_balance_audit((1.5, 2), 0.3), SHAPE),
])
def test_lattice_and_seed_refusal_names_the_argument(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ms.NcprobError, match=message):
            call()


def uniform_atoms(n):
    return ms.AtomicMeasure(tuple((i, Fraction(1, n)) for i in range(n)))


@pytest.mark.parametrize("call, message", [
    (lambda: rm.sample_gue(1.5, 0), "N must be >= 1 and an int, got 1.5"),
    (lambda: rm.gue_eigenvalues(math.nan, 0), "N must be >= 1 .* got nan"),
    (lambda: rm.haar_unitary(0, 1), "N must be >= 1 .* got 0"),
    (lambda: rm.free_ar1(True, 2, 0.5), "N must be >= 1 .* got True"),
    (lambda: rm.free_ar1(4, 1.5, 0.5),
     "steps must be >= 1 and an int, got 1.5"),
    (lambda: rm.free_ar1(4, 0, 0.5), "steps must be >= 1 .* got 0"),
    (lambda: gr.path_graph(0), "vertices must be >= 1 and an int, got 0"),
    (lambda: gr.path_graph(2.0), "vertices must be >= 1 .* got 2.0"),
    (lambda: gr.star_graph(-1), "leaves must be >= 0 and an int, got -1"),
    (lambda: gr.cycle_graph(1),
     "cycle vertices must be >= 3 and an int, got 1"),
    (lambda: gr.cycle_graph(2), "cycle vertices must be >= 3 .* got 2"),
    (lambda: gr.path_graph(3, root=1.5),
     "root must be >= 0 and an int, got 1.5"),
    (lambda: gr.path_graph(3, root=True), "root must be >= 0 .* got True"),
    (lambda: gr.cycle_graph(3, root=-1), "root must be >= 0 .* got -1"),
    (lambda: gr.RootedGraph.from_edges(2, [(0, 1)], root=2),
     "root index out of range"),
    (lambda: cv.convolve("boolean", uniform_atoms(2049), uniform_atoms(2049)),
     "boolean convolution of 2049- and 2049-atom laws needs a dense "
     "eigensolve of side 4097 > 4096"),
    (lambda: cv.convolve("antimonotone", uniform_atoms(4097),
                         ms.AtomicMeasure.dirac(0)),
     "monotone convolution of 1- and 4097-atom laws needs a dense "
     "eigensolve of side 4097 > 4096"),
])
def test_size_refusal_names_the_count(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ms.NcprobError, match=message):
            call()


def minus_bernoulli_cauchy(z):
    return -0.5 * (1 / (z - 1) + 1 / (z + 1))


@pytest.mark.parametrize("call, message", [
    (lambda: ms.AtomicMeasure(((math.nan, 1.0),)),
     "atom position must be a finite real, got nan"),
    (lambda: ms.AtomicMeasure(((math.inf, 1.0),)),
     "atom position must be a finite real, got inf"),
    (lambda: ms.AtomicMeasure(((0.0, 0.5), (-math.inf, 0.5))),
     "atom position must be a finite real, got -inf"),
    (lambda: ms.AtomicMeasure(((0.0, math.nan),)),
     "atom weight must be a finite real, got nan"),
    (lambda: ms.AtomicMeasure(((0.0, 0.5), (1.0, math.inf))),
     "atom weight must be a finite real, got inf"),
    (lambda: ms.AtomicMeasure((("0.5", 1.0),)),
     "atom position must be a finite real, got '0.5'"),
    (lambda: ms.AtomicMeasure(((0.5, 1j),)),
     "atom weight must be a finite real, got 1j"),
    *[(lambda tol=tol: lw.nonlinear_resolvent(minus_bernoulli_cauchy, 1.0,
                                              0.3 + 1j, tol),
       f"resolvent tol must be finite and > 0, got {tol}")
      for tol in (0.0, -1e-12, math.nan, math.inf)],
    (lambda: lw.resolvent_fmap(minus_bernoulli_cauchy, 1.0, 0.0)(
        np.array([2j])), "resolvent tol must be finite and > 0, got 0.0"),
])
def test_kernel_input_refusal_names_the_argument(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ms.NcprobError, match=message):
            call()
