"""Property tests: invariants checked on drawn inputs, derandomized."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from boostcap import channel  # noqa: E402
from boostcap.capacity import classical_capacity, hashing_bound  # noqa: E402
from boostcap.channel import PacketFrame, lambda_numeric, lambda_probs  # noqa: E402
from boostcap.quadrature import DEFAULT_CONFIG, SWEEP_CONFIG  # noqa: E402
from boostcap.wavepacket import normalization  # noqa: E402

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


# Fast-path channels on the validated domain, Gamma 1e-3 to 1e4 and
# |zeta| <= 10; 4 ulps of 1 allows for rounding in eigenvalues near 1
# (measured at most 2 ulps on a 41 x 15 grid of the domain)
_ROUNDING = 4 * 2.0 ** -53
_GAMMAS = st.floats(-3.0, 4.0).map(lambda e: 10.0 ** e)
_ZETAS = st.floats(-10.0, 10.0)


def _fast(gamma, zeta):
    return lambda_numeric(PacketFrame(gamma, zeta), SWEEP_CONFIG, "closed_profile")


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(gamma=_GAMMAS, zeta=_ZETAS)
def test_eigenvalues_are_a_completely_positive_channel(gamma, zeta):
    l1, l2, l3 = _fast(gamma, zeta).as_tuple()
    assert max(abs(l1), abs(l2), abs(l3)) <= 1.0
    # the Fujiwara-Algoet conditions: the tetrahedron of Pauli channels
    assert 1.0 + l3 - abs(l1 + l2) >= -_ROUNDING
    assert 1.0 - l3 - abs(l1 - l2) >= -_ROUNDING


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(gamma=_GAMMAS, zetas=st.lists(_ZETAS, min_size=2, max_size=2, unique=True))
def test_first_eigenvalue_grows_as_zeta_decreases(gamma, zetas):
    lower, higher = sorted(zetas)
    assert _fast(gamma, lower).l1 >= _fast(gamma, higher).l1 - _ROUNDING


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(gamma=_GAMMAS, zeta=_ZETAS)
def test_hashing_bound_is_below_classical_capacity(gamma, zeta):
    lam = _fast(gamma, zeta)
    assert hashing_bound(lambda_probs(lam))[0] <= classical_capacity(lam)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(zeta=st.floats(-5.0, 4.5), spread=st.floats(-3.0, -1.0).map(lambda e: 10.0 ** e))
def test_small_spread_is_the_identity_channel(zeta, spread):
    # with G = Gamma e^zeta the boosted spread, 1 - l_i <= G^4 / 8 to
    # leading order: the largest ratio measured for G <= 0.1 on the domain
    # was 0.12501, hence the bound 0.13 G^4
    gamma = spread * math.exp(-zeta)
    assume(1e-3 <= gamma <= 1e4)
    for value in _fast(gamma, zeta).as_tuple():
        assert 1.0 - value <= 0.13 * spread ** 4 + _ROUNDING


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(gamma=_GAMMAS, zeta=_ZETAS)
def test_fast_path_norm_is_the_closed_form(gamma, zeta):
    # the N row of the fast path's one rows problem against pi^(3/2) Gamma
    # erfcx(1/Gamma).  Its quadrature error is below 1e-10 relative here;
    # what is left comes from the cutoff angle theta_c = acos(-tanh zeta),
    # ill-conditioned at |zeta| near 10, where it sets the end of the range
    # next to which the kernel's mass lies: the worst of 300 random frames
    # of the domain was 7.5e-9, at zeta = 9.85 (ROADMAP item 7)
    frame = PacketFrame(gamma, zeta)
    norm = channel._closed_integrals([frame], DEFAULT_CONFIG)[0]["norm"]
    closed = normalization(frame, "closed_form")
    assert abs(norm - closed) <= 1e-8 * closed, (frame, norm / closed - 1.0)
