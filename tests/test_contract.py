"""The refusal contract of the named laws: whatever parameters and counts
a caller passes, a constructor, ``moments``, ``to_measure`` and ``sample``,
called on the law or through ``measures.sample``, return or raise
``NcprobError``, with no other exception and no numpy warning on the
way."""

import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncprob import measures as ms

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
])
def test_refusal_names_the_parameter(law, message):
    with pytest.raises(ms.NcprobError, match=message):
        law()
