"""The beta-CDF quadrature route of the gamma-ratio survival at real
background and efficiency shapes.

For an integer numerator shape kn, A is the kn-th arrival of a unit
Poisson process, so P(A > B + x E) = P(N(B) + N(x E) <= kn - 1), and
N(B) and N(x E) are negative binomial for any real kb and ke (the
gamma-Poisson mixture).  tests/oracles.py sums that convolution with
scipy's nbinom, which takes real shapes; it shares no code with the
quadrature.  Every call under test has a time budget.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate  # noqa: F401  (loaded before any timed call)

import dsplim._gamma_ratio as gamma_ratio
from dsplim.bayes import PriorConfig, bayes_upper_limit
from dsplim.ds_limits import ChannelObservation
from dsplim.specfun import IntegrationError
from oracles import nb_convolution_survival


def _survival(x, kn, kb, ke, t, u):
    return gamma_ratio.survival(x, kn, 1.0, kb, 1.0 / t, ke, 1.0 / u, "quadrature")


# Shapes below 1 are left out: the integrand's factor v**(ke - 1) is
# singular at v = 0, and there the route still misses the oracle by up
# to about 5e-8 on some draws.
@settings(max_examples=300, deadline=None)
@given(
    kn=st.integers(1, 60),
    kb=st.floats(1.0, 5.0),
    ke=st.floats(1.0, 5.0),
    t=st.floats(0.1, 100.0),
    u=st.floats(0.1, 100.0),
    x=st.floats(0.1, 1e4),
)
def test_real_shapes_against_the_convolution(kn, kb, ke, t, u, x):
    got = _survival(x, kn, kb, ke, t, u)
    want = nb_convolution_survival(x, kn, 1.0, kb, 1.0 / t, ke, 1.0 / u)
    assert got == pytest.approx(want, rel=0.0, abs=1e-12)


def test_shapes_below_one_at_a_paper_scale():
    # (12, 0.5, 0.5) at t = 33, u = 100: the adaptive Simpson rule this
    # route once used stopped on the piece [0, 1e-26] after its 65536
    # subdivisions, about 6.5 s.
    start = time.perf_counter()
    got = _survival(40.0, 12, 0.5, 0.5, 33.0, 100.0)
    elapsed = time.perf_counter() - start
    want = nb_convolution_survival(40.0, 12, 1.0, 0.5, 1 / 33.0, 0.5, 1 / 100.0)
    assert want == pytest.approx(0.99999994202113, rel=0.0, abs=1e-13)
    assert got == pytest.approx(want, rel=0.0, abs=1e-12)
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


@pytest.mark.parametrize("prior", [PriorConfig(1.0, 0.5, 0.5),
                                   PriorConfig(0.5, 0.5, 0.5)], ids=str)
def test_bayes_row_with_shapes_below_one_ends(prior):
    # Posterior shapes (11 + a_s, 0.5, 0.5): a limit or a named error,
    # in bounded time.
    start = time.perf_counter()
    try:
        limit = bayes_upper_limit(ChannelObservation(11, 0, 0, 33.0, 100.0), prior, 0.9)
    except IntegrationError:
        pass
    else:
        assert limit > 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"took {elapsed:.2f} s"


def test_subinterval_budget_exhausted(monkeypatch):
    # This integrand needs bisections beyond its breakpoint pieces, and a
    # budget of one subinterval per piece allows none.
    args = (2.0, 10, 4.5, 0.25, 2.5, 33.0)
    assert 0.0 < _survival(*args) < 1.0
    monkeypatch.setattr(gamma_ratio, "_QUAD_PIECE_LIMIT", 1)
    with pytest.raises(IntegrationError, match="maximum number of subdivisions"):
        _survival(*args)
