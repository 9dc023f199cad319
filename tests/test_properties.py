"""Property tests: invariants checked on drawn inputs, derandomized."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from boostcap import channel  # noqa: E402
from boostcap.quadrature import DEFAULT_CONFIG  # noqa: E402

# polar angles, with t = pi/2 and its neighbourhood drawn on their own: the
# azimuthal denominators shrink to cos^2 t at the axes there
_ANGLES = st.one_of(st.floats(0.01, math.pi - 0.01),
                    st.floats(math.pi / 2 - 1e-6, math.pi / 2 + 1e-6),
                    st.just(math.pi / 2))


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(kind=st.sampled_from(channel.PROFILE_KINDS),
       thetas=st.lists(_ANGLES, min_size=1, max_size=8),
       cuts=st.lists(st.integers(1, 7), max_size=3))
def test_batched_profiles_match_one_node_calls(kind, thetas, cuts):
    # each azimuthal integral of a batch keeps its own partition and
    # splitting order, and the GK15 rule reduces every interval on its own,
    # so a batched profile has exactly the bits of its one-node call
    bounds = sorted({0, len(thetas), *(c for c in cuts if c < len(thetas))})
    for lo, hi in zip(bounds, bounds[1:]):
        batch = thetas[lo:hi]
        got = channel._azimuthal_profiles(kind, batch, DEFAULT_CONFIG)
        for theta, value in zip(batch, got):
            assert value == channel.phi_profile(kind, theta, DEFAULT_CONFIG), (kind, theta)


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(kind=st.sampled_from(channel.PROFILE_KINDS), theta=_ANGLES)
def test_quadrature_profile_matches_closed_form(kind, theta):
    # verify's profile tolerance
    closed = float(channel.phi_profile_closed(kind, theta))
    got = channel.phi_profile(kind, theta, DEFAULT_CONFIG)
    assert abs(got - closed) <= 1e-9 * max(1.0, abs(closed)), (kind, theta)
