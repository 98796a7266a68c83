import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference

from mbplace.exceptions import Infeasible, MissingEndpoint, NegativeDemand, ParseError
from mbplace.ingest import (
    ScenarioConfig,
    dumps,
    formula_capacity,
    generate_unweighted_scenario,
    generate_weighted_scenario,
    instance_digest,
    instance_from_json,
    instance_to_json,
    parse_graphml,
    parse_sndlib,
    scenario_rng,
    stretch_grid,
)
from mbplace.instance import PlacementInstance
from mbplace.netgraph import Network, Node
from mbplace.weighted import Request, WeightedInstance

DATA = Path(__file__).parent / "data"


class TestParseGraphml:
    def test_two_node_document(self):
        doc = """<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
        <graph><node id="a"/><node id="b"/><edge source="a" target="b"/></graph>
        </graphml>"""
        net = parse_graphml(doc)
        assert net.num_nodes == 2 and net.num_edges == 1

    def test_mini_topology_counts_and_coordinates(self):
        net = parse_graphml((DATA / "mini.graphml").read_text())
        assert net.num_nodes == 5 and net.num_edges == 6
        assert net.nodes[0].label == "Berlin"
        assert net.nodes[0].lat == pytest.approx(52.52)
        assert net.nodes[1].lon == pytest.approx(2.3522)
        assert all(n.has_coords for n in net.nodes)

    def test_dangling_edge_raises_missing_endpoint(self):
        doc = """<graphml><graph><node id="a"/>
        <edge source="a" target="ghost"/></graph></graphml>"""
        with pytest.raises(MissingEndpoint):
            parse_graphml(doc)

    def test_malformed_xml_raises_parse_error(self):
        with pytest.raises(ParseError):
            parse_graphml("<graphml><graph>")

    def test_no_graph_element(self):
        with pytest.raises(ParseError):
            parse_graphml("<graphml></graphml>")

    def test_graph_without_nodes(self):
        # An empty network has no distance matrix; it is a malformed file.
        with pytest.raises(ParseError, match="no <node>"):
            parse_graphml("<graphml><graph/></graphml>")

    @pytest.mark.parametrize("graph, message", [
        ('<node id="a"/><node/>', "node element without id"),
        ('<node id="a"/><node id="b"/><node id="a"/>', "duplicate node id 'a'"),
        ('<node id="a"/><node id="b"/><edge source="a" target="b"><data key="w">heavy</data>'
         "</edge>", r"edge \('a', 'b'\): bad weight"),
    ], ids=["node-without-id", "duplicate-node-id", "non-numeric-weight"])
    def test_malformed_graph_raises_parse_error(self, graph, message):
        doc = ('<graphml><key id="w" for="edge" attr.name="weight"/>'
               f"<graph>{graph}</graph></graphml>")
        with pytest.raises(ParseError, match=message):
            parse_graphml(doc)

    def test_coordinate_keys_match_case_insensitively(self):
        doc = """<graphml>
        <key id="k0" for="node" attr.name="latitude"/>
        <key id="k1" for="node" attr.name="LONGITUDE"/>
        <graph>
          <node id="a"><data key="k0">10.5</data><data key="k1">-3.25</data></node>
        </graph></graphml>"""
        net = parse_graphml(doc)
        assert net.nodes[0].lat == 10.5 and net.nodes[0].lon == -3.25

    def test_weight_key_honored_and_unknown_ignored(self):
        doc = """<graphml>
        <key id="k0" for="edge" attr.name="weight"/>
        <key id="k1" for="node" attr.name="Comment"/>
        <graph>
          <node id="a"><data key="k1">hi</data></node><node id="b"/>
          <edge source="a" target="b"><data key="k0">2.5</data></edge>
        </graph></graphml>"""
        net = parse_graphml(doc)
        assert net.edges == [(0, 1, 2.5)]

    def test_round_trip_through_instance_json(self):
        from mbplace.netgraph import compute_apsp

        net = parse_graphml((DATA / "mini.graphml").read_text())
        inst = PlacementInstance(
            net=net, dist=compute_apsp(net, "geo"),
            pairs=[], candidates=tuple(range(net.num_nodes)), capacity=1,
            stretch=1.5, metric="geo",
        )
        text = instance_to_json(inst)
        again = instance_from_json(text)
        assert again.net == net
        assert instance_to_json(again) == text


class TestParseSndlib:
    def test_mini_fixture_counts(self):
        net, demands = parse_sndlib((DATA / "mini_sndlib.txt").read_text())
        assert net.num_nodes == 6
        assert net.num_edges == 8
        assert len(demands) == 8
        assert net.nodes[0].label == "A"
        assert net.nodes[0].lat == pytest.approx(52.20)   # y column
        assert net.nodes[0].lon == pytest.approx(6.90)    # x column

    def test_demand_values_positive_and_reparse_sum_agrees(self):
        text = (DATA / "mini_sndlib.txt").read_text()
        _, demands = parse_sndlib(text)
        total = sum(v for _, _, v in demands)
        # independent recount: pull the value column straight off the lines
        lines = [l.split() for l in text.splitlines()
                 if l.strip().startswith("D") and "(" in l and "UNLIMITED" in l]
        assert total == pytest.approx(sum(float(l[-2]) for l in lines))
        assert total == pytest.approx(13.0)

    def test_unknown_link_endpoint(self):
        with pytest.raises(MissingEndpoint):
            parse_sndlib("NODES (\n a ( 0 0 )\n)\nLINKS (\n l ( a ghost ) 0 0 0 0\n)\n")

    def test_negative_demand_rejected(self):
        doc = ("NODES (\n a ( 0 0 )\n b ( 1 1 )\n)\nLINKS (\n l ( a b ) 0 0 0 0\n)\n"
               "DEMANDS (\n d ( a b ) 1 -4.0 UNLIMITED\n)\n")
        with pytest.raises(NegativeDemand):
            parse_sndlib(doc)

    @pytest.mark.parametrize("value", ["nan", "inf", "NaN", "Infinity"])
    def test_non_finite_demand_rejected(self, value):
        doc = ("NODES (\n a ( 0 0 )\n b ( 1 1 )\n)\nLINKS (\n l ( a b ) 0 0 0 0\n)\n"
               f"DEMANDS (\n d ( a b ) 1 {value} UNLIMITED\n)\n")
        with pytest.raises(ParseError, match="must be finite"):
            parse_sndlib(doc)

    def test_empty_document_rejected(self):
        with pytest.raises(ParseError):
            parse_sndlib("# nothing here\n")

    @pytest.mark.parametrize("nodes, demand, message", [
        (" a ( 0 0 )\n b ( 1 1 )\n a ( 2 2 )\n", "a b", "line 4: duplicate node 'a'"),
        (" a ( 0 0 )\n b ( 1 1 )\n", "a ghost",
         r"line 9: demand references unknown node \('a', 'ghost'\)"),
    ], ids=["duplicate-node", "demand-unknown-node"])
    def test_malformed_document_raises_parse_error(self, nodes, demand, message):
        doc = (f"NODES (\n{nodes})\nLINKS (\n l ( a b ) 0 0 0 0\n)\n"
               f"DEMANDS (\n d ( {demand} ) 1 2.0 UNLIMITED\n)\n")
        with pytest.raises(ParseError, match=message) as info:
            parse_sndlib(doc)
        assert type(info.value) is ParseError


class TestScenarioFormulas:
    def test_capacity_formula_reference_value(self):
        assert formula_capacity(50, 0.3) == 30  # ceil(29.4)

    @pytest.mark.parametrize("n,p,want", [
        (51, 0.2, 20),     # exact 20.0 must not round up
        (50, 0.3, 30),
        (21, 0.4, 16),
        (2, 0.9, 2),
    ])
    def test_capacity_formula_exact_decimal(self, n, p, want):
        assert formula_capacity(n, p) == want

    def test_capacity_formula_gives_at_least_one(self):
        # 2 * (|V|-1) * p is 0 at p = 0 and on one node; a box still holds a pair.
        assert formula_capacity(5, 0) == 1
        assert formula_capacity(1, 0.3) == 1

    def test_stretch_grid_is_exactly_31_values(self):
        grid = stretch_grid()
        assert len(grid) == 31
        assert grid[0] == 1.0 and grid[-1] == 2.5
        assert grid == sorted(set(grid))
        for a, b in zip(grid, grid[1:]):
            assert b - a == pytest.approx(0.05, abs=1e-12)


class TestGenerateUnweighted:
    def _net(self, n=6):
        edges = [(i, i + 1, 1.0) for i in range(n - 1)] + [(0, n - 1, 1.0)]
        return Network.from_edges(n, edges)

    def test_p_one_includes_every_pair(self):
        cfg = ScenarioConfig(topology="k3", p=1.0, stretch=2.0, seed=7, metric="hops")
        net = Network.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        inst = generate_unweighted_scenario(cfg, net)
        assert inst.num_pairs == 3
        assert inst.candidates == (0, 1, 2)

    def test_capacity_follows_formula(self):
        cfg = ScenarioConfig(topology="ring", p=0.4, stretch=1.5, seed=1, metric="hops")
        inst = generate_unweighted_scenario(cfg, self._net(6))
        assert inst.capacity == formula_capacity(6, 0.4)

    def test_seed_determinism_byte_identical(self):
        cfg = ScenarioConfig(topology="ring", p=0.5, stretch=1.5, seed=99,
                             replication=3, metric="hops")
        a = instance_to_json(generate_unweighted_scenario(cfg, self._net(8)))
        b = instance_to_json(generate_unweighted_scenario(cfg, self._net(8)))
        assert a == b
        other = ScenarioConfig(topology="ring", p=0.5, stretch=1.5, seed=99,
                               replication=4, metric="hops")
        c = instance_to_json(generate_unweighted_scenario(other, self._net(8)))
        assert a != c

    def test_empirical_pair_count_within_three_sigma(self):
        n, p, reps = 8, 0.3, 10_000
        total_pairs = n * (n - 1) // 2
        counts = []
        net = self._net(n)
        for rep in range(reps):
            cfg = ScenarioConfig(topology="x", p=p, stretch=2.0, seed=123,
                                 replication=rep, metric="hops")
            counts.append(generate_unweighted_scenario(cfg, net).num_pairs)
        mean = float(np.mean(counts))
        expect = p * total_pairs
        sigma = math.sqrt(total_pairs * p * (1 - p) / reps)
        assert abs(mean - expect) <= 3 * sigma


class TestGenerateWeighted:
    def test_keep_all_preserves_demand_sum(self):
        net, demands = parse_sndlib((DATA / "mini_sndlib.txt").read_text())
        cfg = ScenarioConfig(topology="mini", p=1.0, stretch=1.5, seed=5, metric="hops")
        winst = generate_weighted_scenario(cfg, net, demands)
        assert len(winst.requests) == len(demands)
        total = sum(r.demand for r in winst.requests)
        assert total == pytest.approx(13.0)
        assert winst.capacity == pytest.approx(4.0 * total / net.num_nodes)

    def test_capacity_formula_constructed_value(self):
        # 28 nodes, kept demand 140 -> capacity 20
        net = Network.from_edges(28, [(i, (i + 1) % 28, 1.0) for i in range(28)])
        demands = [(i, i + 1, 5.0) for i in range(28 - 1)] + [(0, 2, 5.0)]
        cfg = ScenarioConfig(topology="c", p=1.0, stretch=1.5, seed=6, metric="hops")
        winst = generate_weighted_scenario(cfg, net, demands)
        assert sum(r.demand for r in winst.requests) == pytest.approx(140.0)
        assert winst.capacity == pytest.approx(20.0)

    def test_subsample_expectation_half(self):
        net, demands = parse_sndlib((DATA / "mini_sndlib.txt").read_text())
        cfg0 = ScenarioConfig(topology="mini", stretch=1.5, seed=11, metric="hops")
        totals = []
        for rep in range(300):
            cfg = ScenarioConfig(topology="mini", p=0.5, stretch=1.5, seed=11,
                                 replication=rep, metric="hops")
            try:
                winst = generate_weighted_scenario(cfg, net, demands)
                totals.append(sum(r.demand for r in winst.requests))
            except Infeasible:
                totals.append(0.0)
        full = sum(v for _, _, v in demands)
        assert abs(float(np.mean(totals)) - full / 2) < 0.75  # ~3 sigma


#: Keep probabilities: never, always, and anything in between.
PROBABILITIES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestScenarioStream:
    """The generators draw each stream in one call; the documented stream is
    one scalar ``random()`` per potential pair, or per SNDlib demand."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 20), st.integers(1, 24), PROBABILITIES)
    def test_pairs_are_the_scalar_draws(self, seed, rep, n, p):
        net = Network.from_edges(n, [(i, i + 1, 1.0) for i in range(n - 1)])
        # p = 0 or one node make the formula capacity 0, which no instance takes.
        cfg = ScenarioConfig("path", p=p, capacity=1, seed=seed, replication=rep, metric="hops")
        pairs = [(pair.s, pair.t) for pair in generate_unweighted_scenario(cfg, net).pairs]
        assert pairs == reference.scenario_pairs(seed, rep, n, p)
        assert all(type(u) is int for pair in pairs for u in pair)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 20),
           st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.sampled_from([0.5, 1.0, 2.5])).filter(lambda d: d[0] != d[1]),
                    max_size=30),
           PROBABILITIES)
    def test_requests_are_the_scalar_draws(self, seed, rep, demands, p):
        net = Network.from_edges(6, [(i, i + 1, 1.0) for i in range(5)])
        cfg = ScenarioConfig("path", p=p, seed=seed, replication=rep, metric="hops")
        kept = [Request.pair(*d) for d in reference.scenario_kept(seed, rep, demands, p)]
        if not kept:
            with pytest.raises(Infeasible):
                generate_weighted_scenario(cfg, net, demands)
            return
        assert generate_weighted_scenario(cfg, net, demands).requests == kept


class TestInstanceJson:
    def test_weighted_round_trip(self):
        net, demands = parse_sndlib((DATA / "mini_sndlib.txt").read_text())
        cfg = ScenarioConfig(topology="mini", p=1.0, stretch=1.3, seed=2, metric="hops")
        winst = generate_weighted_scenario(cfg, net, demands)
        text = instance_to_json(winst, provenance={"source": "mini", "seed": 2})
        again = instance_from_json(text)
        assert isinstance(again, WeightedInstance)
        assert again.requests == winst.requests
        assert again.capacity == pytest.approx(winst.capacity)
        assert instance_to_json(again, provenance={"source": "mini", "seed": 2}) == text

    def test_digest_stable(self):
        assert instance_digest("x") == instance_digest("x")
        assert instance_digest("x") != instance_digest("y")
        assert instance_digest("x").startswith("sha256:")

    def test_bad_documents_rejected(self):
        with pytest.raises(ParseError):
            instance_from_json("{not json")
        with pytest.raises(ParseError):
            instance_from_json('{"format": "other"}')
        with pytest.raises(ParseError):
            instance_from_json('{"format": "mbplace-instance", "version": 99}')


SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(2**63, 2**200)
           | st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324]))
TEXT = st.text() | st.sampled_from([",", "[", "]", "{", "}", '"', '"],["', "\\", "\n", "é",
                                    "\u2603"])
KEYS = TEXT | st.integers() | st.floats() | st.booleans() | st.none()
JSON_VALUES = st.recursive(
    SCALARS | TEXT | st.lists(SCALARS) | st.lists(st.lists(SCALARS, min_size=1, max_size=4)),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(KEYS, inner, max_size=4)),
    max_leaves=20,
)


class TestDumps:
    @settings(max_examples=200, deadline=None)
    @given(JSON_VALUES)
    def test_matches_stdlib_indent_2(self, value):
        assert dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        [], {}, [[]], [[], [1]], [[1], []], [1, [2, 3]], [[1, [2]], [3]], [[1], 2, [3]],
        [[[1]], [[2]]], [[1, 2], "x"], [(1, 2), (3, 4)], {1: [[1.5, None]], None: {}},
        ["],[", [","]], [[True, False], [math.nan, -math.inf]],
    ])
    def test_list_shapes(self, value):
        """Lists next to the two shapes written by the C encoder: empty rows,
        mixed depths, tuples and strings with brackets go through recursion."""
        assert dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [object(), [1, object()], {(1, 2): 3}, {"a": {1j: 0}}])
    def test_unserializable_raises_type_error(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            dumps(value)

    def test_instance_document_is_the_stdlib_text(self):
        inst = generate_unweighted_scenario(
            ScenarioConfig(topology="mini", seed=3),
            parse_graphml((DATA / "mini.graphml").read_text()))
        doc = json.loads(instance_to_json(inst, {"source": "mini", "seed": 3}))
        assert instance_to_json(inst, {"source": "mini", "seed": 3}) == \
            json.dumps(doc, indent=2) + "\n"


def test_scenario_rng_is_pcg64_with_split_streams():
    a = scenario_rng(1, 0).random(4)
    b = scenario_rng(1, 0).random(4)
    c = scenario_rng(1, 1).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert isinstance(np.random.Generator(np.random.PCG64()).bit_generator, np.random.PCG64)
