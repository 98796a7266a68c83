import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from builders import random_connected_network, rng_for
from oracles import floyd_warshall, haversine_reference

from mbplace.exceptions import DomainError, GeoUnavailable
from mbplace.netgraph import Network, Node, compute_apsp, geo_distance


def test_single_node_trivial():
    net = Network.from_edges(1, [])
    d = compute_apsp(net)
    assert d.values.shape == (1, 1)
    assert d.d(0, 0) == 0.0


def test_path_distance_is_sum():
    net = Network.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    d = compute_apsp(net)
    assert d.d(0, 2) == 2.0


def test_parallel_edges_collapse_to_min_and_self_loops_drop():
    net = Network.from_edges(2, [(0, 1, 3.0), (1, 0, 1.0), (0, 0, 5.0)])
    assert net.edges == [(0, 1, 1.0)]


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        Network.from_edges(2, [(0, 1, -1.0)])


def test_disconnected_pairs_get_infinity():
    net = Network.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    d = compute_apsp(net)
    assert math.isinf(d.d(0, 2))
    assert not d.reachable(1, 3)
    assert d.reachable(0, 1)


def test_distance_past_the_largest_float_rejected():
    # Each edge is finite, but the path 0-1-2 sums to inf: the pair is
    # connected, so inf must not stand for "no path".
    net = Network.from_edges(3, [(0, 1, 1e308), (1, 2, 1e308)])
    with pytest.raises(DomainError, match="largest float"):
        compute_apsp(net, "weight")


def test_overflowing_detour_is_not_an_error():
    # The walk 0-1-2 overflows, but the direct edge 0-2 is shorter.
    net = Network.from_edges(3, [(0, 1, 1e308), (1, 2, 1e308), (0, 2, 1.0)])
    d = compute_apsp(net, "weight")
    assert d.d(0, 2) == 1.0 and d.d(1, 2) == 1e308


def test_infinite_weight_is_no_edge():
    net = Network.from_edges(3, [(0, 1, 1.0), (1, 2, math.inf)])
    d = compute_apsp(net, "weight")
    assert d.d(0, 1) == 1.0 and not d.reachable(0, 2)


@pytest.mark.parametrize("seed", range(20))
def test_apsp_matches_floyd_warshall(seed):
    rng = rng_for(seed)
    net = random_connected_network(rng, 5)
    got = compute_apsp(net).values
    want = floyd_warshall(5, net.edges)
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_symmetry_and_triangle_inequality_on_random_triples():
    rng = rng_for(73)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(4, 13))
        net = random_connected_network(rng, n, weights="dyadic")
        d = compute_apsp(net).values
        for _ in range(50):
            u, v, w = rng.integers(0, n, size=3)
            assert d[u, v] == d[v, u]
            assert d[u, w] <= d[u, v] + d[v, w]
            checked += 1


def test_apsp_permutation_equivariance():
    rng = rng_for(5)
    net = random_connected_network(rng, 8, weights="integer")
    perm = rng.permutation(8)
    relabeled = Network.from_edges(8, [(perm[u], perm[v], w) for u, v, w in net.edges])
    d1 = compute_apsp(net).values
    d2 = compute_apsp(relabeled).values
    for u in range(8):
        for v in range(8):
            assert d1[u, v] == d2[perm[u], perm[v]]


def test_hop_metric_counts_edges():
    net = Network.from_edges(3, [(0, 1, 7.0), (1, 2, 9.0)])
    d = compute_apsp(net, "hops")
    assert d.d(0, 2) == 2.0


def test_geo_metric_uses_great_circle_weights():
    nodes = [Node(0, "a", 0.0, 0.0), Node(1, "b", 0.0, 1.0), Node(2, "c", 0.0, 2.0)]
    net = Network(nodes, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 999.0)])
    d = compute_apsp(net, "geo")
    leg = geo_distance((0.0, 0.0), (0.0, 1.0))
    # Direct 0-2 edge reweighted to ~2 legs; path through 1 is equal length on
    # the equator, so the distance equals the direct geo edge.
    assert d.d(0, 1) == pytest.approx(leg, rel=1e-12)
    assert d.d(0, 2) == pytest.approx(geo_distance((0.0, 0.0), (0.0, 2.0)), rel=1e-12)


def test_geo_metric_requires_coordinates():
    nodes = [Node(0, "a", 0.0, 0.0), Node(1, "b")]
    net = Network(nodes, [(0, 1, 1.0)])
    with pytest.raises(GeoUnavailable):
        compute_apsp(net, "geo")


def test_unknown_metric_rejected():
    with pytest.raises(ValueError):
        compute_apsp(Network.from_edges(1, []), "parsecs")


class TestGeoDistance:
    def test_identical_points(self):
        assert geo_distance((52.0, 13.0), (52.0, 13.0)) == 0.0

    def test_antipodal_half_circumference(self):
        assert geo_distance((0.0, 0.0), (0.0, 180.0)) == pytest.approx(20015.0868, abs=0.1)

    def test_berlin_paris_against_reference(self):
        got = geo_distance((52.52, 13.405), (48.8566, 2.3522))
        assert got == pytest.approx(877.4633259175432, abs=1e-6)
        assert got == pytest.approx(
            haversine_reference((52.52, 13.405), (48.8566, 2.3522)), abs=1e-9
        )

    @pytest.mark.parametrize("p1,p2", [
        ((91.0, 0.0), (0.0, 0.0)),
        ((0.0, 181.0), (0.0, 0.0)),
        ((0.0, 0.0), (-90.5, 0.0)),
    ])
    def test_out_of_range_coordinates(self, p1, p2):
        with pytest.raises(DomainError):
            geo_distance(p1, p2)

    @given(
        st.floats(-90, 90), st.floats(-180, 180),
        st.floats(-90, 90), st.floats(-180, 180),
    )
    def test_symmetric_and_nonnegative(self, lat1, lon1, lat2, lon2):
        d1 = geo_distance((lat1, lon1), (lat2, lon2))
        d2 = geo_distance((lat2, lon2), (lat1, lon1))
        assert d1 == d2
        assert 0.0 <= d1 <= math.pi * 6371.0 + 1e-6
