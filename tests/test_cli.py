import contextlib
import copy
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import re
import warnings
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference
from builders import star_instance

from mbplace import exceptions, greedy, oracle, weighted
from mbplace.bench import BENCH_COLUMNS
from mbplace.cli import INCREMENTAL_COLUMNS, TRACE_COLUMNS, build_parser, main
from mbplace.exceptions import Stalled
from mbplace.ingest import (
    KEEP_PROBABILITY,
    ScenarioConfig,
    generate_unweighted_scenario,
    generate_weighted_scenario,
    instance_to_json,
    parse_graphml,
    parse_sndlib,
)
from mbplace.netgraph import Network, Node

DATA = Path(__file__).parent / "data"

REPORT_KEYS = [
    "report_version", "algorithm", "instance_digest", "metric", "stretch",
    "route_limit", "capacity", "nodes", "edges", "pairs", "candidates",
    "middlebox_count", "middleboxes", "assigned_pairs", "assignment", "trace",
    "oracle_optimum", "approximation_ratio", "relative_difference", "validated",
    "wall_time_s",
]

WEIGHTED_REPORT_KEYS = [
    "report_version", "algorithm", "instance_digest", "metric", "stretch",
    "route_limit", "capacity", "nodes", "edges", "requests", "kept", "rejected",
    "middlebox_count", "middleboxes", "fractional_objective", "assignment",
    "relative_load", "max_relative_load", "capacity_violations",
    "oracle_optimum", "approximation_ratio", "validated", "wall_time_s",
]


@pytest.fixture
def star_file(tmp_path):
    inst = star_instance(4, 3, capacity=4, stretch=3.0)
    path = tmp_path / "star.json"
    path.write_text(instance_to_json(inst))
    return path


@pytest.fixture
def path_file(tmp_path):
    """Weighted instance on the hop path 0-1-2-3 (kappa 4, stretch 2); its
    third request has demand 5 > kappa and is rejected."""
    doc = {
        "format": "mbplace-instance", "version": 1, "kind": "weighted",
        "metric": "hops",
        "nodes": [{"id": i} for i in range(4)],
        "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0]],
        "candidates": [0, 1, 2, 3], "capacity": 4.0,
        "stretch": 2.0, "route_limit": None,
        "requests": [
            {"kind": "pair", "nodes": [0, 3], "demand": 2.0},
            {"kind": "pair", "nodes": [1, 2], "demand": 1.0},
            {"kind": "pair", "nodes": [0, 2], "demand": 5.0},
        ],
    }
    path = tmp_path / "path.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def empty_file(tmp_path):
    inst = star_instance(3, 3, capacity=3, stretch=3.0)
    inst.pairs = []
    path = tmp_path / "empty.json"
    path.write_text(instance_to_json(inst))
    return path


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def self_demand_sndlib(tmp_path) -> tuple[Path, str]:
    """The mini SNDlib file with demand D8 from node C to itself, and the
    message of the ParseError it must raise."""
    text = (DATA / "mini_sndlib.txt").read_text().replace("D8 ( C E )", "D8 ( C C )")
    lineno = next(i for i, line in enumerate(text.splitlines(), 1) if "D8 ( C C )" in line)
    path = tmp_path / "self_demand.txt"
    path.write_text(text)
    return path, f"line {lineno}: demand from node 'C' to itself"


class TestSolve:
    def test_star_fixture_reports_one_middlebox(self, star_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _ = run(capsys, "solve", str(star_file), "--oracle", "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert list(report) == REPORT_KEYS
        assert report["middlebox_count"] == 1
        assert report["middleboxes"] == [0]
        assert report["oracle_optimum"] == 1
        assert report["approximation_ratio"] == 1.0
        assert report["relative_difference"] == [0.0]
        assert report["validated"] is True
        assert report["assigned_pairs"] == report["pairs"] == 4

    def test_empty_pairs_zero_middleboxes_exit_zero(self, empty_file, capsys):
        code, out = run(capsys, "solve", str(empty_file))
        assert code == 0
        assert json.loads(out)["middlebox_count"] == 0

    def test_trace_csv_columns(self, star_file, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code, _ = run(capsys, "solve", str(star_file), "--trace-csv", str(trace),
                      "--out", str(tmp_path / "r.json"))
        assert code == 0
        rows = list(csv.reader(trace.read_text().splitlines()))
        assert rows[0] == TRACE_COLUMNS
        assert rows[1] == ["0", "0", "4", "4"]

    @pytest.mark.parametrize("unwritable", ["out", "trace", "trace-with-stdout-report"])
    def test_unwritable_output_leaves_no_output(self, unwritable, star_file, tmp_path, capsys):
        """A run that cannot write one of its outputs exits 3 with one error
        line and leaves neither the report nor the trace behind."""
        missing = tmp_path / "missing"
        out = (missing if unwritable == "out" else tmp_path) / "r.json"
        trace = (tmp_path if unwritable == "out" else missing) / "t.csv"
        argv = ["solve", str(star_file), "--trace-csv", str(trace)]
        if unwritable != "trace-with-stdout-report":
            argv += ["--out", str(out)]
        code, text = run(capsys, *argv)
        assert code == 3
        assert [json.loads(line)["error"] for line in text.splitlines()] == ["FileNotFoundError"]
        assert not out.exists() and not trace.exists()

    @pytest.mark.parametrize("argv", [
        ["--out", "r", "--trace-csv", "r"],
        ["--out", "r", "--trace-csv", "sub/../r"],
        ["--trace-csv", "-"],
        ["--out", "-", "--trace-csv", "-"],
    ])
    def test_two_outputs_at_one_destination_exit_3(self, argv, star_file, tmp_path,
                                                   monkeypatch, capsys):
        """Two outputs aimed at one file, or both at stdout, exit 3 with one
        error line naming both options, and nothing is written."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        code, text = run(capsys, "solve", str(star_file), *argv)
        assert code == 3
        error = json.loads(text)
        assert error["error"] == "ParseError"
        assert error["message"] == "--out and --trace-csv write to one destination"
        assert not (tmp_path / "r").exists()

    def test_p_0_on_graphml_solves_without_pairs(self, capsys):
        code, text = run(capsys, "solve", str(DATA / "mini.graphml"), "--p", "0",
                         "--metric", "hops")
        assert code == 0
        report = json.loads(text)
        assert report["capacity"] == 1
        assert report["pairs"] == report["middlebox_count"] == 0

    def test_repeated_pair_dropped_with_a_warning(self, tmp_path, capsys):
        f = tmp_path / "repeated.json"
        f.write_text(json.dumps(_path3("unweighted", pairs=[[0, 2], [2, 0]])))
        with pytest.warns(UserWarning, match="duplicate pair"):
            code, text = run(capsys, "solve", str(f))
        assert code == 0
        assert json.loads(text)["pairs"] == 1

    def test_infinite_edge_weight_is_no_edge(self, tmp_path, capsys):
        f = tmp_path / "inf.json"
        f.write_text(json.dumps(_path3("unweighted", metric="weight",
                                       edges=[[0, 1, 1.0], [1, 2, math.inf]])))
        out = tmp_path / "r.json"
        code, text = run(capsys, "solve", str(f), "--out", str(out))
        assert code == 2
        assert json.loads(text)["error"] == "InfeasiblePair"
        assert not out.exists()

    def test_route_limit_instance_shares_the_code_path(self, tmp_path, capsys):
        from builders import star_instance
        from mbplace.instance import PlacementInstance

        base = star_instance(3, 4, capacity=5, stretch=4.0)
        limited = PlacementInstance(net=base.net, dist=base.dist, pairs=base.pairs,
                                    candidates=base.candidates, capacity=5,
                                    stretch=None, route_limit=4.0)
        f = tmp_path / "lim.json"
        f.write_text(instance_to_json(limited))
        out = tmp_path / "lr.json"
        code, _ = run(capsys, "solve", str(f), "--oracle", "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["route_limit"] == 4.0 and report["stretch"] is None
        assert report["middlebox_count"] == report["oracle_optimum"] == 1

    def test_graphml_input_with_params(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code, _ = run(capsys, "solve", str(DATA / "mini.graphml"), "--p", "0.5",
                      "--seed", "3", "--stretch", "2.0", "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["metric"] == "geo"
        assert report["assigned_pairs"] == report["pairs"]

    def test_infeasible_exit_code_and_error_json(self, tmp_path, capsys):
        inst = star_instance(3, 4, capacity=5, stretch=3.9)
        bad = tmp_path / "bad.json"
        # candidates only the hub, which is infeasible at stretch c-eps
        bad.write_text(instance_to_json(dataclasses.replace(inst, candidates=(0,))))
        code, out = run(capsys, "solve", str(bad))
        assert code == 2
        err = json.loads(out)
        assert err["error"] == "InfeasiblePair"
        assert err["exit_code"] == 2

    def test_parse_error_exit_code(self, tmp_path, capsys):
        f = tmp_path / "junk.json"
        f.write_text("{nope")
        code, out = run(capsys, "solve", str(f))
        assert code == 3
        assert json.loads(out)["error"] == "ParseError"

    def test_missing_file_exit_code(self, capsys):
        code, _ = run(capsys, "solve", "/no/such/file.json")
        assert code == 3

    def test_oracle_too_large_exit_code(self, tmp_path, capsys):
        inst = star_instance(5, 3, capacity=5, stretch=3.0)
        f = tmp_path / "star.json"
        f.write_text(instance_to_json(inst))
        code, out = run(capsys, "solve", str(f), "--oracle", "--oracle-limit", "3")
        assert code == 4
        err = json.loads(out)
        assert err["error"] == "TooLarge"
        assert err["message"].endswith("exceed --oracle-limit 3; re-run without --oracle")


class TestJsonOverrides:
    @pytest.mark.parametrize("bound", [{"stretch": 2.0, "route_limit": None},
                                       {"stretch": None, "route_limit": 3000.0}],
                             ids=["stretch-doc", "route-limit-doc"])
    @pytest.mark.parametrize("option, key, value", [
        ("--stretch", "stretch", 3.0), ("--capacity", "capacity", 7),
        ("--metric", "metric", "hops")])
    def test_option_replaces_the_documents_value(self, bound, option, key, value, tmp_path,
                                                 capsys):
        doc = json.loads(FIXTURES["unweighted"]) | bound
        rewritten = doc | {key: value} | ({"route_limit": None} if key == "stretch" else {})
        reports = []
        for name, data, extra in [("given", doc, [option, str(value)]),
                                  ("rewritten", rewritten, [])]:
            f = tmp_path / f"{name}.json"
            f.write_text(json.dumps(data))
            out = tmp_path / f"{name}_report.json"
            code, text = run(capsys, "solve", str(f), *extra, "--out", str(out))
            assert code == 0, text
            report = json.loads(out.read_text())
            del report["wall_time_s"]
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0][key] == value


class TestSolveWeighted:
    @pytest.fixture
    def weighted_file(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        code = main(["gen", "--sndlib", str(DATA / "mini_sndlib.txt"),
                     "--keep-prob", "1.0", "--stretch", "2.0", "--seed", "4",
                     "--metric", "hops", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        return out

    def test_report_schema_and_load_bound(self, weighted_file, tmp_path, capsys):
        out = tmp_path / "wr.json"
        code, _ = run(capsys, "solve-weighted", str(weighted_file),
                      "--oracle", "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert list(report) == WEIGHTED_REPORT_KEYS
        assert report["max_relative_load"] <= 2.0
        assert report["validated"] is True
        assert len(report["assignment"]) == len(report["kept"])
        assert report["oracle_optimum"] >= 1
        ratio_bound = 1 + math.log(max(len(report["kept"]), 1))
        assert report["middlebox_count"] <= ratio_bound * report["oracle_optimum"]

    def test_wrong_kind_rejected(self, star_file, capsys):
        code, out = run(capsys, "solve-weighted", str(star_file))
        assert code == 3

    def test_oracle_over_candidate_limit_guidance(self, weighted_file, tmp_path, capsys):
        out = tmp_path / "wr.json"
        code, text = run(capsys, "solve-weighted", str(weighted_file), "--oracle",
                         "--oracle-limit", "3", "--out", str(out))
        assert code == 4
        err = json.loads(text)
        assert err["error"] == "TooLarge"
        assert re.fullmatch(r"\d+ candidates exceed --oracle-limit 3; re-run without --oracle",
                            err["message"])
        assert not out.exists()

    def test_oracle_over_request_limit_guidance(self, tmp_path, capsys):
        # Every pair of a hop star on 6 nodes detours through the hub at
        # stretch 1: 15 kept requests, above the oracle's fixed limit of 14.
        doc = {
            "format": "mbplace-instance", "version": 1, "kind": "weighted",
            "metric": "hops", "nodes": [{"id": i} for i in range(6)],
            "edges": [[0, i, 1.0] for i in range(1, 6)], "candidates": [0],
            "capacity": 20.0, "stretch": 1.0, "route_limit": None,
            "requests": [{"kind": "pair", "nodes": [s, t], "demand": 1.0}
                         for s in range(6) for t in range(s + 1, 6)],
        }
        f = tmp_path / "w15.json"
        f.write_text(json.dumps(doc))
        code, text = run(capsys, "solve-weighted", str(f), "--oracle")
        assert code == 4
        assert json.loads(text)["message"] == (
            "15 requests exceed the weighted oracle's fixed limit of 14; "
            "re-run without --oracle")

    def test_oracle_sees_kept_requests_only(self, path_file, tmp_path, capsys):
        # Request 2 exceeds kappa and is rejected; the oracle must not see it.
        out = tmp_path / "r.json"
        code, _ = run(capsys, "solve-weighted", str(path_file), "--oracle", "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["kept"] == [0, 1] and report["rejected"] == [2]
        assert isinstance(report["oracle_optimum"], int)
        assert report["middlebox_count"] == report["oracle_optimum"] == 1

    def test_request_feasibility_built_once(self, path_file, monkeypatch, capsys):
        calls = []
        real = weighted.build_request_feasibility

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(weighted, "build_request_feasibility", counting)
        code, _ = run(capsys, "solve-weighted", str(path_file), "--oracle")
        assert code == 0
        assert len(calls) == 1

    def test_overloaded_box_fails_validation(self, path_file, tmp_path, monkeypatch, capsys):
        # Box 1 lies on both kept pairs' shortest paths; 3 + 3 + 3 > 2 * kappa.
        doc = json.loads(path_file.read_text())
        doc["requests"] = [{"kind": "pair", "nodes": nodes, "demand": 3.0}
                           for nodes in ([0, 3], [1, 2], [0, 1])]
        path_file.write_text(json.dumps(doc))

        def overload(frac, active, prep):
            return weighted.RoundedSolution({j: 1 for j in prep.kept},
                                            {1: sum(prep.demands.values())})

        monkeypatch.setattr(weighted, "round_solution", overload)
        out = tmp_path / "r.json"
        code, text = run(capsys, "solve-weighted", str(path_file), "--out", str(out))
        assert code == 1
        err = json.loads(text)
        assert err["error"] == "PlacementError" and "load 9 > 8" in err["message"]
        assert not out.exists()

    def test_unserved_request_fails_validation(self, path_file, tmp_path, monkeypatch,
                                               capsys):
        real = weighted.round_solution

        def drop_first(frac, active, prep):
            sol = real(frac, active, prep)
            j = prep.kept[0]
            sol.load[sol.assignment.pop(j)] -= prep.demands[j]
            return sol

        monkeypatch.setattr(weighted, "round_solution", drop_first)
        out = tmp_path / "r.json"
        code, text = run(capsys, "solve-weighted", str(path_file), "--out", str(out))
        assert code == 1
        err = json.loads(text)
        assert err["error"] == "PlacementError" and "not served" in err["message"]
        assert not out.exists()

    def test_uncoverable_group_fails_fast(self, tmp_path, capsys):
        # On the 4-cycle at stretch 1 only 0 and 1 serve pair (0, 1) and only
        # 2 and 3 serve pair (2, 3), so no node serves the group {0,1,2,3}.
        doc = {
            "format": "mbplace-instance", "version": 1, "kind": "weighted",
            "metric": "hops",
            "nodes": [{"id": i} for i in range(4)],
            "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0], [3, 0, 1.0]],
            "candidates": [0, 1, 2, 3], "capacity": 4.0,
            "stretch": 1.0, "route_limit": None,
            "requests": [
                {"kind": "pair", "nodes": [0, 1], "demand": 1.0},
                {"kind": "group", "nodes": [0, 1, 2, 3], "demand": 1.0},
            ],
        }
        f = tmp_path / "c4.json"
        f.write_text(json.dumps(doc))
        code, text = run(capsys, "solve-weighted", str(f))
        assert code == 2
        err = json.loads(text)
        assert err["error"] == "Infeasible"
        assert "1 request(s) have no feasible candidate: 1 (0, 1, 2, 3)" in err["message"]

    def test_dropped_request_fails_validation(self, path_file, tmp_path, monkeypatch,
                                              capsys):
        real = weighted.preprocess

        def drop_last_kept(requests, fs, kappa):
            prep = real(requests, fs, kappa)
            prep.kept = prep.kept[:-1]
            return prep

        monkeypatch.setattr(weighted, "preprocess", drop_last_kept)
        out = tmp_path / "r.json"
        code, text = run(capsys, "solve-weighted", str(path_file), "--out", str(out))
        assert code == 1
        err = json.loads(text)
        assert err["error"] == "PlacementError" and "do not partition" in err["message"]
        assert not out.exists()

    def test_single_request_fixture_relative_load(self, tmp_path, capsys):
        doc = {
            "format": "mbplace-instance", "version": 1, "kind": "weighted",
            "metric": "hops",
            "nodes": [{"id": 0}, {"id": 1}, {"id": 2}],
            "edges": [[0, 1, 1.0], [1, 2, 1.0]],
            "candidates": [0, 1, 2], "capacity": 4.0,
            "stretch": 2.0, "route_limit": None,
            "requests": [{"kind": "pair", "nodes": [0, 2], "demand": 3.0}],
        }
        f = tmp_path / "one.json"
        f.write_text(json.dumps(doc))
        out = tmp_path / "or.json"
        code, _ = run(capsys, "solve-weighted", str(f), "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["middlebox_count"] == 1
        assert report["max_relative_load"] == pytest.approx(3.0 / 4.0)

    def test_every_request_over_capacity_keeps_none(self, tmp_path, capsys):
        # Demand 1 > kappa 0.5: no request is kept, so no box opens and the
        # oracle's optimum is 0, with no ratio to it.
        f = tmp_path / "big.json"
        f.write_text(json.dumps(_path3("weighted", capacity=0.5)))
        out = tmp_path / "r.json"
        code, text = run(capsys, "solve-weighted", str(f), "--oracle", "--out", str(out))
        assert code == 0, text
        report = json.loads(out.read_text())
        assert report["kept"] == [] and report["rejected"] == [0]
        assert report["middlebox_count"] == 0 and report["assignment"] == []
        assert report["oracle_optimum"] == 0 and report["approximation_ratio"] is None
        assert report["validated"] is True

    def test_group_requests_handled(self, tmp_path, capsys):
        doc = {
            "format": "mbplace-instance", "version": 1, "kind": "weighted",
            "metric": "hops",
            "nodes": [{"id": i} for i in range(4)],
            "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0], [3, 0, 1.0]],
            "candidates": [0, 1, 2, 3], "capacity": 5.0,
            "stretch": 2.0, "route_limit": None,
            "requests": [
                {"kind": "group", "nodes": [0, 1, 2], "demand": 2.0},
                {"kind": "pair", "nodes": [1, 3], "demand": 1.0},
                # Subnormal: exact as a Fraction with denominator 2**1074,
                # so its profit 1/demand is a 1075-bit integer in the flow.
                {"kind": "pair", "nodes": [0, 2], "demand": 5e-324},
            ],
        }
        f = tmp_path / "g.json"
        f.write_text(json.dumps(doc))
        out_path = tmp_path / "gr.json"
        code, _ = run(capsys, "solve-weighted", str(f), "--out", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["validated"] is True
        assert report["kept"] == [0, 1, 2]
        assert len(report["assignment"]) == 3
        assert report["max_relative_load"] <= 2.0


def _path3(kind: str, **fields) -> dict:
    """Instance document on the hop path 0-1-2, with ``fields`` overriding."""
    doc = {
        "format": "mbplace-instance", "version": 1, "kind": kind, "metric": "hops",
        "nodes": [{"id": i} for i in range(3)], "edges": [[0, 1, 1.0], [1, 2, 1.0]],
        "candidates": [0, 1, 2], "capacity": 2 if kind == "unweighted" else 4.0,
        "stretch": 2.0, "route_limit": None,
    }
    if kind == "unweighted":
        doc["pairs"] = [[0, 2]]
    else:
        doc["requests"] = [{"kind": "pair", "nodes": [0, 2], "demand": 1.0}]
    doc.update(fields)
    return doc


class TestOutOfDomainInput:
    @pytest.mark.parametrize("command, doc", [
        ("solve", _path3("unweighted", pairs=[[-1, 1]])),
        ("solve", _path3("unweighted", pairs=[[0, 9]])),
        ("solve", _path3("unweighted", candidates=[0, 7])),
        ("solve-weighted", _path3("weighted", candidates=[0, 7])),
        ("solve-weighted", _path3("weighted", requests=[
            {"kind": "group", "nodes": [0, 1, 9], "demand": 1.0}])),
        ("solve-weighted", _path3("weighted", stretch=0.5)),
        ("solve", _path3("unweighted", stretch=math.nan)),
        ("solve", _path3("unweighted", stretch=None, route_limit=math.nan)),
        ("solve", _path3("unweighted", capacity=1.5)),
        ("solve", _path3("unweighted", capacity=True)),
        ("solve-weighted", _path3("weighted", capacity=math.inf)),
        ("solve", _path3("unweighted", edges=[[0, 1, math.nan], [1, 2, 1.0]])),
        ("solve", _path3("unweighted", edges=[[0, 1, True], [1, 2, 1.0]])),
        ("solve", _path3("unweighted", metric="weight", edges=[[0, 1, 1e308], [1, 2, 1e308]])),
        ("solve", _path3("unweighted", stretch=True)),
        ("solve", _path3("unweighted", stretch=None, route_limit=True)),
        ("solve-weighted", _path3("weighted", capacity=True)),
        ("solve", _path3("unweighted", nodes=[{"id": 0, "lat": True, "lon": 0.0},
                                              {"id": 1}, {"id": 2}])),
        ("solve", _path3("unweighted", nodes=[{"id": 0, "lat": 0.0, "lon": True},
                                              {"id": 1}, {"id": 2}])),
        ("solve", _path3("unweighted", pairs=[[0, 1], [True, 2]])),
        ("solve", _path3("unweighted", candidates=[1, True])),
        ("solve-weighted", _path3("weighted", candidates=[1, True])),
    ], ids=["negative-pair-node", "pair-node-9", "candidate-7", "weighted-candidate-7",
            "weighted-request-node-9", "weighted-stretch-0.5", "stretch-nan", "route-limit-nan",
            "capacity-1.5", "capacity-true", "weighted-capacity-inf", "edge-weight-nan",
            "edge-weight-true", "edge-weight-sum-overflow", "stretch-true", "route-limit-true",
            "weighted-capacity-true", "lat-true", "lon-true", "pair-node-true-after-1",
            "candidate-true-after-1", "weighted-candidate-true-after-1"])
    def test_exit_3_with_json_error(self, command, doc, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        code, text = run(capsys, command, str(f), "--out", str(out))
        assert code == 3
        err = json.loads(text)
        assert err["error"] == "DomainError" and err["exit_code"] == 3
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "incremental"])
    def test_graphml_stretch_0_exit_3(self, command, tmp_path, capsys):
        # A stretch of 0 is out of domain, not a request for the GraphML default.
        out = tmp_path / "r.out"
        code, text = run(capsys, command, str(DATA / "mini.graphml"), "--stretch", "0",
                         "--out", str(out))
        assert code == 3
        err = json.loads(text)
        assert err["error"] == "DomainError" and err["exit_code"] == 3
        assert not out.exists()

    @pytest.mark.parametrize("weight", ["-1.0", "nan"])
    def test_graphml_bad_edge_weight_exit_3(self, weight, tmp_path, capsys):
        # A NaN weight would never settle the shortest-path relaxation.
        f = tmp_path / "bad.graphml"
        f.write_text(
            '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
            '<key attr.name="weight" attr.type="double" for="edge" id="w"/>'
            '<graph edgedefault="undirected"><node id="a"/><node id="b"/><node id="c"/>'
            f'<edge source="a" target="b"><data key="w">{weight}</data></edge>'
            '<edge source="b" target="c"/><edge source="a" target="c"/></graph></graphml>'
        )
        out = tmp_path / "r.out"
        code, text = run(capsys, "solve", str(f), "--metric", "weight", "--out", str(out))
        assert code == 3
        assert json.loads(text)["error"] == "DomainError"
        assert not out.exists()

    def test_graphml_stretch_nan_exit_3(self, tmp_path, capsys):
        # NaN fails every comparison, so it must not pass as a bound of 1 or more.
        out = tmp_path / "r.out"
        code, text = run(capsys, "solve", str(DATA / "mini.graphml"), "--stretch", "nan",
                         "--out", str(out))
        assert code == 3
        assert json.loads(text)["error"] == "DomainError"
        assert not out.exists()


@pytest.mark.parametrize("command, doc", [
    ("solve", _path3("unweighted", stretch=1e308)),
    ("solve-weighted", _path3("weighted", stretch=1e308)),
    ("solve", _path3("unweighted", metric="weight", edges=[[0, 1, 0.0], [1, 2, 1.0]],
                     pairs=[[0, 1]], stretch=math.inf)),
], ids=["stretch-1e308", "weighted-stretch-1e308", "stretch-inf-distance-0"])
def test_huge_stretch_is_no_bound(command, doc, tmp_path, capsys):
    # stretch * d overflows to inf, and inf * 0 is NaN: neither may bound a detour.
    f = tmp_path / "huge.json"
    f.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    code, _ = run(capsys, command, str(f), "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["validated"] is True and len(report["assignment"]) == 1


def _split(kind: str, **fields) -> dict:
    """Instance document on the two components {0, 1} and {2, 3} (edges 0-1
    and 2-3), with ``fields`` overriding."""
    return _path3(kind, **{"nodes": [{"id": i} for i in range(4)],
                           "edges": [[0, 1, 1.0], [2, 3, 1.0]],
                           "candidates": [0, 1, 2, 3], **fields})


SPLIT_GRAPHML = (
    '<graphml><key id="la" for="node" attr.name="Latitude"/>'
    '<key id="lo" for="node" attr.name="Longitude"/><graph>'
    + "".join(f'<node id="n{i}"><data key="la">{50 + i}</data>'
              f'<data key="lo">{10 + i}</data></node>' for i in range(4))
    + '<edge source="n0" target="n1"/><edge source="n2" target="n3"/>'
    '</graph></graphml>')


class TestNoRoute:
    """A request is served only over a finite detour: a pair or group without
    a path, or a candidate in another component, exits 2 under any bound."""

    @pytest.mark.parametrize("request_", [
        {"kind": "pair", "nodes": [0, 3], "demand": 1.0},
        {"kind": "group", "nodes": [0, 1, 2], "demand": 1.0},
    ], ids=["pair", "group"])
    def test_weighted_request_across_components_exits_2(self, request_, tmp_path, capsys):
        f = tmp_path / "split.json"
        f.write_text(json.dumps(_split("weighted", requests=[
            {"kind": "pair", "nodes": [0, 1], "demand": 1.0}, request_])))
        out = tmp_path / "r.json"
        code, text = run(capsys, "solve-weighted", str(f), "--out", str(out))
        assert code == 2
        err = json.loads(text)
        assert err["error"] == "Infeasible" and "1 request(s)" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("bound", [{"stretch": math.inf},
                                       {"stretch": None, "route_limit": math.inf}],
                             ids=["stretch-inf", "route-limit-inf"])
    @pytest.mark.parametrize("command, kind, error", [
        ("solve", "unweighted", "InfeasiblePair"),
        ("solve-weighted", "weighted", "Infeasible"),
    ])
    def test_infinite_bound_needs_a_finite_detour(self, command, kind, error, bound,
                                                  tmp_path, capsys):
        # The only candidate, 3, is in the other component than pair (0, 1).
        served = {"pairs": [[0, 1]]} if kind == "unweighted" else \
            {"requests": [{"kind": "pair", "nodes": [0, 1], "demand": 1.0}]}
        f = tmp_path / "split.json"
        f.write_text(json.dumps(_split(kind, candidates=[3], **served, **bound)))
        out = tmp_path / "r.json"
        code, text = run(capsys, command, str(f), "--out", str(out))
        assert code == 2
        assert json.loads(text)["error"] == error
        assert not out.exists()

    def test_gen_writes_a_disconnected_pair_and_solve_exits_2(self, tmp_path, capsys):
        topology = tmp_path / "split.graphml"
        topology.write_text(SPLIT_GRAPHML)
        inst = tmp_path / "split.json"
        code, _ = run(capsys, "gen", "--topology", str(topology), "--p", "1.0",
                      "--out", str(inst))
        assert code == 0
        assert [0, 2] in json.loads(inst.read_text())["pairs"]
        out = tmp_path / "r.json"
        code, text = run(capsys, "solve", str(inst), "--out", str(out))
        assert code == 2
        err = json.loads(text)
        assert err["error"] == "InfeasiblePair"
        assert err["message"].endswith("no candidate satisfies the bound")
        assert not out.exists()


class TestMalformedDocument:
    @pytest.mark.parametrize("command, doc, error", [
        ("solve", _path3("unweighted", pairs=[[1, 1]]), "ParseError"),
        ("solve", _path3("unweighted", edges=[[0, 1, 1.0], [1, 2, 1.0], [0, 5, 1.0]]),
         "ParseError"),
        ("solve", _path3("unweighted", candidates=[0, 1.5]), "DomainError"),
        ("solve", _path3("unweighted", pairs=[[0, 1.5]]), "DomainError"),
        ("solve", _path3("unweighted", pairs="x"), "ParseError"),
        ("solve-weighted", _path3("weighted", requests=[
            {"kind": "group", "nodes": [0, 1, 1], "demand": 1.0}]), "ParseError"),
        ("solve-weighted", _path3("weighted", requests=[
            {"kind": "pair", "nodes": [0, 2], "demand": 0}]), "ParseError"),
        ("solve-weighted", _path3("weighted", requests=[
            {"kind": "pair", "nodes": [0, 2], "demand": math.inf}]), "ParseError"),
        ("solve-weighted", _path3("weighted", requests=[
            {"kind": "pair", "nodes": [0, 2], "demand": True}]), "ParseError"),
        ("solve", {**_path3("unweighted"), "kind": None}, "ParseError"),
        ("solve", {**_path3("unweighted"), "kind": "graph"}, "ParseError"),
    ], ids=["pair-same-node", "edge-node-5", "candidate-1.5", "pair-node-1.5",
            "pairs-not-a-list", "weighted-repeated-node", "weighted-demand-0", "weighted-demand-inf",
            "weighted-demand-true", "kind-null", "kind-unknown"])
    def test_exit_3_with_json_error(self, command, doc, error, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        code, text = run(capsys, command, str(f), "--out", str(out))
        assert code == 3
        err = json.loads(text)
        assert err["error"] == error and err["exit_code"] == 3
        assert not out.exists()

    @pytest.mark.parametrize("command, doc, named", [
        ("solve", _path3("unweighted", route_limt=3, requests=[]), 'key "route_limt"'),
        ("solve", _path3("unweighted", requests=[]), 'key "requests"'),
        ("solve-weighted", _path3("weighted", pairs=[[0, 2]]), 'key "pairs"'),
        ("solve", _path3("unweighted", nodes=[{"id": 0}, {"id": 1, "x": 0.0}, {"id": 2}]),
         'node entry key "x"'),
        ("solve-weighted", _path3("weighted", requests=[
            {"kind": "pair", "nodes": [0, 2], "demand": 1.0, "weight": 2.0}]),
         'request entry key "weight"'),
    ], ids=["misspelt-route-limit", "unweighted-requests", "weighted-pairs", "node-entry",
            "request-entry"])
    def test_unknown_key_exit_3_names_it(self, command, doc, named, tmp_path, capsys):
        # A key the document format does not define would otherwise go unread.
        f = tmp_path / "extra.json"
        f.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        code, text = run(capsys, command, str(f), "--out", str(out))
        assert code == 3 and text.count("\n") == 1
        err = json.loads(text)
        assert err["error"] == "ParseError" and err["message"] == f"unknown {named}"
        assert not out.exists()

    @pytest.mark.parametrize("command, doc, message", [
        ("solve-weighted", _path3("weighted", requests=[
            {"kind": "pair", "nodes": [0, 1, 2], "demand": 1.0}]),
         "pair request needs exactly two nodes"),
        ("solve", _path3("unweighted", nodes=[], edges=[]), "network is empty"),
    ], ids=["pair-of-three-nodes", "no-nodes"])
    def test_exit_3_names_the_fault(self, command, doc, message, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        code, text = run(capsys, command, str(f), "--out", str(out))
        assert code == 3 and text.count("\n") == 1
        err = json.loads(text)
        assert err["error"] == "ParseError"
        assert err["message"] == f"invalid instance document: ValueError: {message}"
        assert not out.exists()


def _refuse_read(path, *args, **kwargs):
    raise PermissionError(13, "Permission denied", str(path))


class TestUnreadableInput:
    ARGV = {
        "solve": ["solve", "BAD"],
        "solve-weighted": ["solve-weighted", "BAD"],
        "incremental": ["incremental", "BAD"],
        "gen-topology": ["gen", "--topology", "BAD"],
        "gen-sndlib": ["gen", "--sndlib", "BAD"],
        "bench": ["bench", "BAD"],
    }

    @pytest.mark.parametrize("command", list(ARGV))
    @pytest.mark.parametrize("kind, error", [
        ("directory", "IsADirectoryError"),
        ("empty-path", "IsADirectoryError"),  # "" names the working directory
        ("not-utf8", "UnicodeDecodeError"),
        ("no-permission", "PermissionError"),
    ])
    def test_exit_3_names_the_os_error(self, command, kind, error, tmp_path, monkeypatch,
                                       capsys):
        bad = tmp_path / "input"
        if kind == "empty-path":
            bad = ""
        elif kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"\xff\xfe not UTF-8")
        if kind == "no-permission":
            bad.chmod(0)
            if os.geteuid() == 0:  # root reads a file whatever its mode
                monkeypatch.setattr(Path, "read_text", _refuse_read)
        out = tmp_path / "out"
        argv = [str(bad) if a == "BAD" else a for a in self.ARGV[command]]
        code, text = run(capsys, *argv, "--out", str(out))
        assert code == 3
        assert text.count("\n") == 1
        err = json.loads(text)
        assert err["error"] == error and err["exit_code"] == 3
        assert not out.exists()


class TestMalformedTopology:
    @pytest.mark.parametrize("argv", [["solve", "G"], ["incremental", "G"],
                                      ["gen", "--topology", "G"]])
    def test_graph_without_nodes_exit_3(self, argv, tmp_path, capsys):
        graph = tmp_path / "empty.graphml"
        graph.write_text("<graphml><graph/></graphml>")
        out = tmp_path / "out"
        code, text = run(capsys, *[str(graph) if a == "G" else a for a in argv],
                         "--out", str(out))
        assert code == 3 and text.count("\n") == 1
        assert json.loads(text)["error"] == "ParseError"
        assert not out.exists()

    @pytest.mark.parametrize("argv, name, text, message", [
        (["solve"], "dup.graphml",
         '<graphml><graph><node id="a"/><node id="a"/></graph></graphml>',
         "duplicate node id 'a'"),
        (["solve"], "north.graphml",
         '<graphml><key id="lat" for="node" attr.name="Latitude"/>'
         '<graph><node id="a"><data key="lat">north</data></node></graph></graphml>',
         "node 'a': bad coordinate: could not convert string to float: 'north'"),
        (["gen", "--sndlib"], "ghost.txt",
         (DATA / "mini_sndlib.txt").read_text().replace("D1 ( A C )", "D1 ( A Z )"),
         "demand references unknown node ('A', 'Z')"),
    ], ids=["graphml-duplicate-node", "graphml-bad-latitude", "sndlib-demand-unknown-node"])
    def test_parse_error_exit_3_names_the_fault(self, argv, name, text, message, tmp_path,
                                                capsys):
        path = tmp_path / name
        path.write_text(text)
        out = tmp_path / "out"
        code, printed = run(capsys, *argv, str(path), "--out", str(out))
        assert code == 3 and printed.count("\n") == 1
        err = json.loads(printed)
        assert err["error"] == "ParseError" and message in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["gen", "bench"])
    def test_non_finite_demand_exit_3(self, command, value, tmp_path, capsys):
        sndlib = tmp_path / "demand.txt"
        sndlib.write_text((DATA / "mini_sndlib.txt").read_text().replace(
            "D1 ( A C ) 1 3.00", f"D1 ( A C ) 1 {value}"))
        out = tmp_path / "out"
        if command == "gen":
            argv = ["gen", "--sndlib", str(sndlib)]
        else:
            cfg = tmp_path / "bench.json"
            cfg.write_text(json.dumps({"sndlib": [{"path": str(sndlib)}], "stretches": [1.5]}))
            argv = ["bench", str(cfg)]
        code, text = run(capsys, *argv, "--out", str(out))
        assert code == 3 and text.count("\n") == 1
        assert json.loads(text)["error"] == "ParseError"
        assert not out.exists()


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["solve", "STAR", "--threads", "2"],
        ["incremental", "STAR", "--threads", "2"],
        ["bench", "STAR", "--workers", "4"],
        ["solve", "STAR", "--trace", "t.csv"],  # no prefix matching of --trace-csv
        ["solve", "STAR", "--capacity", "two"],
        ["solve"],
        [],
        ["incremental", "STAR", "--budget-steps", "-1"],
        ["solve", "MINI", "--oracle", "--oracle-limit", "-1"],
        ["incremental", "MINI", "--oracle", "--oracle-limit", "-1"],
        ["solve-weighted", "STAR", "--oracle", "--oracle-limit", "-1"],
        ["solve", "MINI", "--p", "nan"],
        ["solve", "MINI", "--seed", "-5"],
        ["solve", "MINI", "--replication", "-1"],
        ["gen", "--topology", "MINI", "--p", "5"],
        ["gen", "--sndlib", "SNDLIB", "--keep-prob", "-0.5"],
        ["gen", "--topology", "MINI", "--sndlib", "SNDLIB"],
    ])
    def test_exit_3_with_json_error(self, argv, star_file, tmp_path, capsys):
        paths = {"STAR": star_file, "MINI": DATA / "mini.graphml",
                 "SNDLIB": DATA / "mini_sndlib.txt"}
        argv = [str(paths.get(a, a)) for a in argv]
        out = tmp_path / "out"
        if argv[:1] == ["gen"]:
            argv += ["--out", str(out)]
        code, text = run(capsys, *argv)
        assert code == 3
        err = json.loads(text)
        assert err["error"] == "ParseError" and err["exit_code"] == 3
        assert text.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("argv, options", [
        (["solve", "STAR", "--p", "0.9"], "--p"),
        (["solve", "STAR", "--p", "0.9", "--seed", "5", "--replication", "3"],
         "--p, --seed, --replication"),
        (["incremental", "STAR", "--seed", "0"], "--seed"),  # a default value counts too
        (["incremental", "STAR", "--replication", "1"], "--replication"),
        (["gen", "--topology", "MINI", "--keep-prob", "0.1"], "--keep-prob"),
        (["gen", "--sndlib", "SNDLIB", "--p", "0.9"], "--p"),
        (["gen", "--sndlib", "SNDLIB", "--capacity", "5", "--p", "0.9"], "--capacity, --p"),
        (["solve", "MINI", "--oracle-limit", "3"], "--oracle-limit"),
        (["incremental", "STAR", "--oracle-limit", "16"], "--oracle-limit"),
        (["solve-weighted", "PATH", "--oracle-limit", "12"], "--oracle-limit"),
    ])
    def test_option_the_input_does_not_read_exits_3(self, argv, options, star_file,
                                                     path_file, tmp_path, capsys):
        paths = {"STAR": star_file, "MINI": DATA / "mini.graphml",
                 "SNDLIB": DATA / "mini_sndlib.txt", "PATH": path_file}
        out = tmp_path / "out"
        code, text = run(capsys, *[str(paths.get(a, a)) for a in argv], "--out", str(out))
        assert code == 3 and text.count("\n") == 1
        err = json.loads(text)
        assert err["error"] == "ParseError"
        assert err["message"].endswith(f" reads {options}")
        assert not out.exists()

    @pytest.mark.parametrize("source, defaults, recorded", [
        ("--topology", ["--p", "0.3"], {"p": 0.3}),
        ("--sndlib", ["--keep-prob", "0.5"], {"keep_probability": 0.5}),
    ])
    def test_gen_records_the_resolved_defaults(self, source, defaults, recorded,
                                               tmp_path, capsys):
        path = DATA / ("mini.graphml" if source == "--topology" else "mini_sndlib.txt")
        texts = []
        for extra in ([], [*defaults, "--seed", "0", "--replication", "0"]):
            out = tmp_path / "out.json"
            code, _ = run(capsys, "gen", source, str(path), *extra, "--out", str(out))
            assert code == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]
        provenance = json.loads(texts[0])["provenance"]
        assert provenance == {"source": str(path), **recorded, "seed": 0, "replication": 0}

    def test_parser_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        assert "--oracle" in capsys.readouterr().out


class TestIncremental:
    def test_series_columns_and_convergence(self, star_file, capsys):
        code, out = run(capsys, "incremental", str(star_file), "--oracle")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == INCREMENTAL_COLUMNS
        assert rows[1] == ["0", "0", "0", "0.0"]
        last = rows[-1]
        assert last[1] == last[2] == "4"   # greedy == oracle at completion
        assert float(last[3]) == 0.0
        for row in rows[1:]:
            assert float(row[3]) >= 0.0

    def test_budget_limits_steps(self, tmp_path, capsys):
        from builders import feasible_instance, rng_for

        inst, _ = feasible_instance(rng_for(77), num_nodes=8, num_pairs=6, capacity=2)
        f = tmp_path / "i.json"
        f.write_text(instance_to_json(inst))
        code, out = run(capsys, "incremental", str(f), "--budget-steps", "1")
        assert code == 0
        rows = out.splitlines()
        assert len(rows) == 3  # header + n=0 + n=1

    def test_zero_budget_prints_row_zero_only(self, star_file, capsys):
        code, out = run(capsys, "incremental", str(star_file), "--budget-steps", "0",
                        "--oracle")
        assert code == 0
        assert out.splitlines() == [",".join(INCREMENTAL_COLUMNS), "0,0,0,0.0"]

    def test_series_is_the_solve_run(self, tmp_path, capsys):
        from builders import feasible_instance, rng_for

        inst, _ = feasible_instance(rng_for(77), num_nodes=8, num_pairs=6, capacity=2)
        f = tmp_path / "i.json"
        f.write_text(instance_to_json(inst))
        code, out = run(capsys, "incremental", str(f), "--oracle")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))[1:]
        code, out = run(capsys, "solve", str(f), "--oracle")
        assert code == 0
        report = json.loads(out)
        assert len(rows) == len(report["trace"]) > 1
        assert [int(r["n"]) for r in rows] == [s["iteration"] + 1 for s in report["trace"]]
        assert [int(r["phi_greedy"]) for r in rows] == [s["phi_after"] for s in report["trace"]]
        assert [float(r["relative_difference"]) for r in rows] == report["relative_difference"]

    def test_corrupted_engine_fails_validation(self, star_file, tmp_path, monkeypatch,
                                               capsys):
        real = greedy.greedy_place

        def overcount(inst, fs, budget=None):
            trace = real(inst, fs, budget)
            trace.engine.load[trace.middleboxes[-1]] += 1
            return trace

        monkeypatch.setattr(greedy, "greedy_place", overcount)
        out = tmp_path / "inc.csv"
        code, text = run(capsys, "incremental", str(star_file), "--out", str(out))
        assert code == 1
        err = json.loads(text)
        assert err["error"] == "PlacementError" and "mismatch at 0" in err["message"]
        assert not out.exists()

    def test_too_large_guidance(self, tmp_path, capsys):
        inst = star_instance(5, 3, capacity=5, stretch=3.0)
        f = tmp_path / "s.json"
        f.write_text(instance_to_json(inst))
        code, out = run(capsys, "incremental", str(f), "--oracle",
                        "--oracle-limit", "2")
        assert code == 4
        assert "--oracle" in json.loads(out)["message"]

    @pytest.mark.parametrize("command", ["solve", "incremental"])
    def test_stalled_run_exits_before_the_oracle(self, command, tmp_path, capsys):
        # Hop star on 0 at stretch 1: only the hub serves a leaf pair, and at
        # capacity 1 the run stalls after one box. The oracle limit (2 of 4
        # candidates) would raise TooLarge, but the run fails first.
        doc = {
            "format": "mbplace-instance", "version": 1, "kind": "unweighted",
            "metric": "hops",
            "nodes": [{"id": i} for i in range(7)],
            "edges": [[0, i, 1.0] for i in range(1, 7)],
            "candidates": [0, 4, 5, 6], "capacity": 1,
            "stretch": 1.0, "route_limit": None,
            "pairs": [[1, 2], [1, 3], [2, 3]],
        }
        f = tmp_path / "stall.json"
        f.write_text(json.dumps(doc))
        code, out = run(capsys, command, str(f), "--oracle", "--oracle-limit", "2")
        assert code == 2
        assert json.loads(out)["error"] == "Stalled"

    @pytest.mark.parametrize("command", ["solve", "incremental"])
    def test_no_pairs_need_no_oracle(self, command, tmp_path, capsys):
        # Ten candidates exceed the oracle limit of 2, but a run without
        # steps asks the oracle nothing.
        doc = {
            "format": "mbplace-instance", "version": 1, "kind": "unweighted",
            "metric": "hops",
            "nodes": [{"id": i} for i in range(10)],
            "edges": [[i, i + 1, 1.0] for i in range(9)],
            "candidates": list(range(10)), "capacity": 1,
            "stretch": 1.0, "route_limit": None, "pairs": [],
        }
        f = tmp_path / "empty.json"
        f.write_text(json.dumps(doc))
        code, out = run(capsys, command, str(f), "--oracle", "--oracle-limit", "2")
        assert code == 0
        if command == "solve":
            assert json.loads(out)["oracle_optimum"] == 0


class TestGen:
    def test_fixed_seed_byte_identical(self, tmp_path, capsys):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code, _ = run(capsys, "gen", "--topology", str(DATA / "mini.graphml"),
                          "--p", "0.4", "--stretch", "1.5", "--seed", "9",
                          "--out", str(out))
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_capacity_field_follows_formula(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code, _ = run(capsys, "gen", "--topology", str(DATA / "mini.graphml"),
                      "--p", "0.4", "--stretch", "1.5", "--seed", "9",
                      "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["capacity"] == math.ceil(2 * 4 * 0.4)
        assert doc["format"] == "mbplace-instance"
        assert doc["kind"] == "unweighted"
        assert doc["provenance"]["seed"] == 9

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        code, _ = run(capsys, "gen", "--out", str(tmp_path / "x.json"))
        assert code == 3

    def test_sndlib_refuses_capacity(self, tmp_path, capsys):
        # The weighted capacity is 4*D/|V| over the kept demand; a --capacity
        # would be silently ignored.
        out = tmp_path / "w.json"
        code, text = run(capsys, "gen", "--sndlib", str(DATA / "mini_sndlib.txt"),
                         "--capacity", "5", "--out", str(out))
        assert code == 3
        err = json.loads(text)
        assert err["error"] == "ParseError" and "--capacity" in err["message"]
        assert not out.exists()

    def test_sndlib_self_demand_exit_3(self, tmp_path, capsys):
        sndlib, message = self_demand_sndlib(tmp_path)
        out = tmp_path / "w.json"
        code, text = run(capsys, "gen", "--sndlib", str(sndlib), "--out", str(out))
        assert code == 3 and text.count("\n") == 1
        err = json.loads(text)
        assert err["error"] == "ParseError" and err["message"] == message
        assert not out.exists()


class TestBench:
    def test_smoke_config_row_count_and_columns(self, tmp_path, capsys):
        config = {
            "seed": 5,
            "metric": "geo",
            "topologies": [str(DATA / "mini.graphml")],
            "p_values": [0.3, 0.5],
            "stretches": [1.5, 2.0],
            "replications": 2,
            "algorithms": ["greedy"],
            "oracle": True,
            "oracle_limit": 16,
            "sndlib": [{"path": str(DATA / "mini_sndlib.txt"), "keep_probability": 1.0}],
        }
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "bench.csv"
        code, _ = run(capsys, "bench", str(cfg), "--out", str(out))
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == BENCH_COLUMNS
        expected = 1 * 2 * 2 * 2 * 1 + 1 * 2 * 2  # unweighted + weighted rows
        assert len(rows) - 1 == expected
        by_col = {c: i for i, c in enumerate(BENCH_COLUMNS)}
        for row in rows[1:]:
            assert row[by_col["status"]] == "ok"
            if row[by_col["kind"]] == "unweighted":
                ratio = float(row[by_col["approximation_ratio"]])
                opt = int(row[by_col["oracle_optimum"]])
                count = int(row[by_col["middlebox_count"]])
                assert ratio == pytest.approx(count / opt)
            else:
                assert float(row[by_col["max_relative_load"]]) <= 2.0

    def test_absent_keys_take_the_owners_defaults(self, tmp_path, capsys):
        # Mirrors test_gen_records_the_resolved_defaults: leaving a key out and
        # spelling out the value its owner gives it write the same rows.
        topology, sndlib = str(DATA / "mini.graphml"), str(DATA / "mini_sndlib.txt")
        # At stretch 1.2 the metrics "geo" and "hops" give different rows.
        omitted = {"topologies": [topology], "stretches": [1.2, 2.0], "oracle": True,
                   "sndlib": [{"path": sndlib}]}
        spelled = {**omitted, "seed": ScenarioConfig.seed, "metric": ScenarioConfig.metric,
                   "p_values": [ScenarioConfig.p], "oracle_limit": oracle.DEFAULT_LIMIT,
                   "sndlib": [{"path": sndlib, "keep_probability": KEEP_PROBABILITY}]}
        tables = []
        for name, config in (("omitted", omitted), ("spelled", spelled)):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(config))
            out = tmp_path / f"{name}.csv"
            code, _ = run(capsys, "bench", str(cfg), "--out", str(out))
            assert code == 0
            rows = list(csv.DictReader(out.read_text().splitlines()))
            for row in rows:
                assert row.pop("wall_time_s") and row["status"] == "ok"
            tables.append(rows)
        assert len(tables[0]) == 2 + 2  # unweighted and weighted rows
        assert tables[0] == tables[1]

    def test_two_runs_give_identical_rows(self, tmp_path, capsys):
        config = {
            "seed": 3, "metric": "geo",
            "topologies": [str(DATA / "mini.graphml")],
            "p_values": [0.4], "stretches": [1.5, 2.0], "replications": 2,
            "sndlib": [{"path": str(DATA / "mini_sndlib.txt"), "keep_probability": 1.0}],
        }
        cfg = tmp_path / "b.json"
        cfg.write_text(json.dumps(config))
        texts = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code, _ = run(capsys, "bench", str(cfg), "--out", str(out))
            assert code == 0
            rows = [r.rsplit(",", 2)[0] for r in out.read_text().splitlines()]
            texts.append(rows)  # strip wall_time / error columns
        assert len(texts[0]) == 1 + 4 + 4  # header, unweighted and weighted rows
        assert texts[0] == texts[1]

    def test_p_0_row_is_ok(self, tmp_path, capsys):
        config = {"topologies": [str(DATA / "mini.graphml")], "p_values": [0.0],
                  "stretches": [1.5]}
        cfg = tmp_path / "b.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "b.csv"
        code, _ = run(capsys, "bench", str(cfg), "--out", str(out))
        assert code == 0
        [row] = csv.DictReader(out.read_text().splitlines())
        assert (row["status"], row["total"], row["middlebox_count"]) == ("ok", "0", "0")

    def test_error_rows_of_both_kinds(self, tmp_path, monkeypatch, capsys):
        def stalled(inst, fs, budget=None):
            raise Stalled("no candidate improves")

        def unserved(frac, active, prep):
            return weighted.RoundedSolution({}, {})

        monkeypatch.setattr(greedy, "greedy_place", stalled)
        monkeypatch.setattr(weighted, "round_solution", unserved)
        config = {
            "seed": 2, "metric": "geo",
            "topologies": [str(DATA / "mini.graphml")],
            "p_values": [0.4], "stretches": [1.5], "replications": 1,
            "sndlib": [{"path": str(DATA / "mini_sndlib.txt"), "keep_probability": 1.0}],
        }
        cfg = tmp_path / "e.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "e.csv"
        code, _ = run(capsys, "bench", str(cfg), "--out", str(out))
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [(r["kind"], r["status"]) for r in rows] == [
            ("unweighted", "error"), ("weighted", "error")]
        assert rows[0]["error"].startswith("Stalled: ")
        assert rows[1]["error"].startswith("PlacementError: validation: ")
        for row in rows:
            assert row["p"] and row["stretch"] == "1.5" and row["wall_time_s"]
            assert not any(row[c] for c in BENCH_COLUMNS[10:18])

    def test_sndlib_self_demand_exit_3(self, tmp_path, capsys):
        sndlib, message = self_demand_sndlib(tmp_path)
        cfg = tmp_path / "self.json"
        cfg.write_text(json.dumps({"sndlib": [{"path": str(sndlib)}], "stretches": [1.5]}))
        out = tmp_path / "self.csv"
        code, text = run(capsys, "bench", str(cfg), "--out", str(out))
        assert code == 3 and text.count("\n") == 1
        err = json.loads(text)
        assert err["error"] == "ParseError" and err["message"] == message
        assert not out.exists()

    @pytest.mark.parametrize("algorithms", [["greedy", "bogus"], ["bogus"], [], "greedy"])
    def test_unknown_algorithms_exit_3(self, algorithms, tmp_path, capsys):
        cfg = tmp_path / "a.json"
        cfg.write_text(json.dumps({"topologies": [str(DATA / "mini.graphml")],
                                   "stretches": [1.5], "algorithms": algorithms}))
        out = tmp_path / "a.csv"
        code, text = run(capsys, "bench", str(cfg), "--out", str(out))
        assert code == 3
        err = json.loads(text)
        assert err["error"] == "ParseError" and err["exit_code"] == 3
        assert not out.exists()

    @pytest.mark.parametrize("config", [
        {"topologies": 5},
        [1, 2],
        {"sndlib": [{"nopath": 1}]},
        {"replications": "2"},
        {"seed": "0"},
        {"seed": -1},
        {"replications": True},
        {"metric": "foo"},
        {"p_values": [math.nan]},
        {"p_values": 0.3},
        {"sndlib": [{"path": "SNDLIB", "keep_probability": "0.5"}]},
        {"sndlib": [{"path": "SNDLIB", "keep_probability": 2}]},
        {"stretches": "foo"},
        {"stretches": [1.5, "2"]},
        {"topologies": [5]},
        {"oracle": True, "oracle_limit": "16"},
        {"oracle": "no"},
        {"oracle": 1},
        {"replication": 3},
        {"sndlib": [{"path": "SNDLIB", "keep_prob": 1.0}]},
        {"sndlib": [{"keep_probability": 1.0}]},
        {"sndlib": [{"path": "SNDLIB"}, 5]},
        {"oracle_limit": 16},
        {"oracle": False, "oracle_limit": 3},
    ], ids=["topologies-int", "top-level-list", "sndlib-no-path", "replications-str",
            "seed-str", "seed-negative", "replications-bool", "metric-unknown", "p-nan",
            "p-values-not-a-list", "keep-probability-str", "keep-probability-2",
            "stretches-str", "stretches-str-entry", "topology-int", "oracle-limit-str",
            "oracle-str", "oracle-int", "unknown-key", "unknown-sndlib-key",
            "sndlib-path-absent", "sndlib-entry-int", "oracle-limit-without-oracle",
            "oracle-limit-with-oracle-false"])
    def test_malformed_config_exit_3(self, config, tmp_path, capsys):
        # Each key is checked before any row runs, beside a config that would run.
        if isinstance(config, dict):
            config = {"topologies": [str(DATA / "mini.graphml")], "p_values": [0.3],
                      "stretches": [1.5], **config}
            for entry in config.get("sndlib", []):
                if isinstance(entry, dict) and entry.get("path") == "SNDLIB":
                    entry["path"] = str(DATA / "mini_sndlib.txt")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "c.csv"
        code, text = run(capsys, "bench", str(cfg), "--out", str(out))
        assert code == 3 and text.count("\n") == 1
        err = json.loads(text)
        assert err["error"] == "ParseError" and err["message"].startswith("bench: ")
        assert not out.exists()

    def test_config_not_json_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"topologies": [')
        out = tmp_path / "c.csv"
        code, text = run(capsys, "bench", str(cfg), "--out", str(out))
        assert code == 3 and text.count("\n") == 1
        err = json.loads(text)
        assert err["error"] == "ParseError"
        assert err["message"].startswith("bench: the config is not JSON: ")
        assert not out.exists()

    @pytest.mark.parametrize("config, named", [
        ({"replication": 3}, 'unknown key "replication"'),
        ({"sndlib": [{"path": "SNDLIB", "keep_prob": 1.0}]},
         'unknown "sndlib" entry key "keep_prob"'),
        ({"oracle": "no"}, '"oracle" must be absent or true or false'),
        ({"oracle": False, "oracle_limit": 3},
         '"oracle_limit" is read only when "oracle" is true'),
    ])
    def test_config_error_names_the_key(self, config, named, tmp_path, capsys):
        for entry in config.get("sndlib", []):
            entry["path"] = str(DATA / "mini_sndlib.txt")
        cfg = tmp_path / "k.json"
        cfg.write_text(json.dumps({"topologies": [str(DATA / "mini.graphml")],
                                   "stretches": [1.5], **config}))
        code, text = run(capsys, "bench", str(cfg), "--out", str(tmp_path / "k.csv"))
        assert code == 3 and json.loads(text)["message"] == f"bench: {named}"

    def test_row_over_the_oracle_limit_names_the_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "o.json"
        cfg.write_text(json.dumps({"topologies": [str(DATA / "mini.graphml")],
                                   "p_values": [1.0], "stretches": [2.0],
                                   "oracle": True, "oracle_limit": 2}))
        out = tmp_path / "o.csv"
        code, _ = run(capsys, "bench", str(cfg), "--out", str(out))
        assert code == 0
        [row] = list(csv.DictReader(out.read_text().splitlines()))
        assert row["status"] == "error"
        assert row["error"] == ("TooLarge: 5 candidates exceed the config's \"oracle_limit\" 2; "
                                'raise it or set "oracle" to false')

    def test_row_error_captured_batch_continues(self, tmp_path, capsys):
        # Two components: at p 1.0 some pair has disconnected endpoints, so
        # that row fails; the next topology's row must still come out ok.
        split = tmp_path / "split.graphml"
        split.write_text(SPLIT_GRAPHML)
        config = {
            "seed": 1, "metric": "geo",
            "topologies": [str(split), str(DATA / "mini.graphml")],
            "p_values": [1.0], "stretches": [2.0], "replications": 1,
        }
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "c.csv"
        code, _ = run(capsys, "bench", str(cfg), "--out", str(out))
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [(r["topology"], r["status"]) for r in rows] == [
            ("split", "error"), ("mini", "ok")]
        assert rows[0]["error"].startswith("InfeasiblePair: ")
        assert rows[1]["assigned"] == rows[1]["total"] and not rows[1]["error"]


class TestExitCodes:
    def test_every_error_class_carries_its_readme_code(self):
        # README's exit-code table lists, per code, the error names that exit with it.
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        table = {}
        for code, names in re.findall(r"^\| (\d) \|[^|]*\| ([^|]*) \|$", readme, re.MULTILINE):
            for name in re.findall(r"`(\w+)`", names):
                table[name] = int(code)
        classes = [cls for cls in vars(exceptions).values()
                   if isinstance(cls, type) and issubclass(cls, exceptions.PlacementError)]
        assert set(table) == {cls.__name__ for cls in classes} | {"OSError",
                                                                  "UnicodeDecodeError"}
        assert {cls.__name__: cls.exit_code for cls in classes} == \
            {cls.__name__: table[cls.__name__] for cls in classes}
        assert table["OSError"] == table["UnicodeDecodeError"] == 3


# ---------------------------------------------------------------------------
# The exit-code contract under mutated input


def _fixture_documents() -> dict[str, str]:
    """One valid input of each kind the commands read: an instance JSON v1
    document per kind, and the GraphML and SNDlib test files."""
    graphml = (DATA / "mini.graphml").read_text()
    sndlib = (DATA / "mini_sndlib.txt").read_text()
    unweighted = instance_to_json(generate_unweighted_scenario(
        ScenarioConfig("mini", p=0.5, seed=3), parse_graphml(graphml)))
    net, demands = parse_sndlib(sndlib)
    weighted_doc = json.loads(instance_to_json(generate_weighted_scenario(
        ScenarioConfig("mini_sndlib", p=1.0), net, demands)))
    weighted_doc["requests"].append({"kind": "group", "nodes": [0, 2, 4], "demand": 1.0})
    return {"unweighted": unweighted, "weighted": json.dumps(weighted_doc, indent=2),
            "graphml": graphml, "sndlib": sndlib}


FIXTURES = _fixture_documents()

# Replacement values: type swaps, NaN, infinities, bools, huge, subnormal and
# negative numbers.
JSON_MUTANTS = [None, True, False, "x", "", [], {}, [0], math.nan, math.inf, -math.inf,
                10**30, 1e308, 5e-324, -1, -0.5, 0, 0.5, 2**63]
# Keys the fuzzer adds to an entry that lacks them, where none is allowed: a
# misspelling, a stray key, and each kind's demand list, which the other kind
# and node and request entries do not read.
ADDED_KEYS = ["route_limt", "x", "pairs", "requests"]
TEXT_MUTANTS = ["", "x", "true", "nan", "inf", "-inf", "1e308", "5e-324", "-1", "-0.5", "0",
                "0.5", "1" + "0" * 30, "(", ")", "<", "&"]

# command -> the fixture kinds it reads
CONTRACT_INPUTS = {
    "solve": ["unweighted", "graphml"],
    "incremental": ["unweighted", "graphml"],
    "solve-weighted": ["weighted"],
    "gen": ["graphml", "sndlib"],
}


def _json_paths(node, path=()):
    """Every key or index path below ``node``."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


JSON_ACTIONS = ("drop", "replace", "duplicate", "add", "out_of_range")


def _mutate_json(data, text: str, actions=JSON_ACTIONS) -> tuple[str, str | None]:
    """Drop or replace one value; duplicate one entry of a top-level list or
    one member of a group; add a key of ``ADDED_KEYS`` that the top level, a
    node entry or a request entry does not hold yet, which the run must
    refuse by name; or put -1, n or 2**63 for one node id of ``pairs``,
    ``requests``, ``candidates`` or ``edges`` (n nodes), which the run must
    refuse naming the id."""
    doc = json.loads(text)
    action = data.draw(st.sampled_from(actions), label="action")
    if action == "out_of_range":
        slots = [(pair, i) for pair in doc.get("pairs", []) for i in (0, 1)]
        slots += [(r["nodes"], i) for r in doc.get("requests", []) for i in range(len(r["nodes"]))]
        slots += [(doc["candidates"], i) for i in range(len(doc["candidates"]))]
        slots += [(edge, i) for edge in doc["edges"] for i in (0, 1)]
        entry, i = data.draw(st.sampled_from(slots), label="slot")
        bad = data.draw(st.sampled_from([-1, len(doc["nodes"]), 2**63]), label="id")
        entry[i] = bad
        return json.dumps(doc), rf"(?<!\d){bad}(?!\d)"
    if action == "duplicate":
        lists = [doc[k] for k in ("pairs", "requests", "nodes", "edges", "candidates")
                 if doc.get(k)]
        lists += [r["nodes"] for r in doc.get("requests", []) if r["kind"] == "group"]
        entries = data.draw(st.sampled_from(lists), label="list")
        entries.append(copy.deepcopy(data.draw(st.sampled_from(entries), label="entry")))
        return json.dumps(doc), None
    if action == "add":
        entry = data.draw(st.sampled_from([doc, *doc["nodes"], *doc.get("requests", [])]),
                          label="entry")
        key = data.draw(st.sampled_from([k for k in ADDED_KEYS if k not in entry]), label="key")
        entry[key] = data.draw(st.sampled_from(JSON_MUTANTS), label="value")
        return json.dumps(doc), re.escape(f'key "{key}"') + r"\Z"
    path = data.draw(st.sampled_from(list(_json_paths(doc))), label="path")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if action == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(st.sampled_from(JSON_MUTANTS), label="value")
    return json.dumps(doc), None


def _mutate_graphml(data, text: str) -> tuple[str, None]:
    root = ET.fromstring(text)
    parents = [(parent, child) for parent in root.iter() for child in parent]
    parent, el = data.draw(st.sampled_from(parents), label="element")
    fields = [None, *sorted(el.attrib)]
    field = data.draw(st.sampled_from(fields), label="field")
    if data.draw(st.booleans(), label="drop"):
        if field is None:
            parent.remove(el)
        else:
            del el.attrib[field]
    else:
        value = data.draw(st.sampled_from(TEXT_MUTANTS), label="value")
        if field is None:
            el.text = value
        else:
            el.set(field, value)
    return ET.tostring(root, encoding="unicode"), None


def _mutate_tokens(data, text: str) -> tuple[str, None]:
    parts = re.split(r"(\s+)", text)
    index = data.draw(st.sampled_from([i for i, p in enumerate(parts) if p.strip()]),
                      label="token")
    parts[index] = "" if data.draw(st.booleans(), label="drop") else \
        data.draw(st.sampled_from(TEXT_MUTANTS), label="value")
    return "".join(parts), None


# kind -> mutator(data, text) -> (mutated text, None or a pattern the error message of a
# run that must exit 3 matches)
MUTATORS = {"unweighted": _mutate_json, "weighted": _mutate_json,
            "graphml": _mutate_graphml, "sndlib": _mutate_tokens}


def _check_report(report: dict, doc: dict) -> None:
    """Re-check a solve or solve-weighted report against its instance
    document, with distances from the reference Dijkstra: every member pair
    of an assigned request has a finite detour through its box within the
    bound (relative tolerance 1e-9), and every load is within capacity
    (2 kappa for the weighted variant)."""
    net = Network([Node(e["id"], lat=e.get("lat"), lon=e.get("lon")) for e in doc["nodes"]],
                  [tuple(e) for e in doc["edges"]])
    d = reference.compute_apsp(net, doc["metric"])
    stretch, limit = doc.get("stretch"), doc.get("route_limit")
    if doc["kind"] == "weighted":
        requests = doc["requests"]
        served = [(requests[j]["nodes"], Fraction(requests[j]["demand"]), u)
                  for j, u in report["assignment"]]
        load_limit = 2 * Fraction(doc["capacity"])
    else:
        served = [((s, t), 1, m) for s, t, m in report["assignment"]]
        load_limit = doc["capacity"]
    load: dict[int, Fraction] = {}
    for nodes, demand, u in served:
        for a, b in itertools.combinations(nodes, 2):
            via = d[a, u] + d[u, b]
            bound = limit if stretch is None else \
                math.inf if stretch == math.inf else stretch * float(d[a, b])
            assert via < math.inf and (via <= bound or math.isclose(via, bound, rel_tol=1e-9))
        load[u] = load.get(u, 0) + demand
    assert all(v <= load_limit for v in load.values())


def _check_contract(data, command: str, kind: str, text: str, refusal, work) -> None:
    """Run ``command`` on ``text`` in ``work``: it exits by the contract, a
    report it writes passes ``_check_report``, and a run given a ``refusal``
    pattern exits 3 with an error message that matches it."""
    src, out = work / f"input.{kind}", work / "out"
    src.write_text(text)
    if command == "gen":
        argv = ["gen", "--topology" if kind == "graphml" else "--sndlib", str(src)]
    else:
        argv = [command, str(src)]
        if data.draw(st.booleans(), label="oracle"):
            argv.append("--oracle")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, "--out", str(out)])
    # The one warning a run may give: a repeated pair is dropped.
    assert all("duplicate pair" in str(w.message) for w in caught)
    assert code in (0, 2, 3, 4)
    if code == 0:
        if command.startswith("solve"):
            report = json.loads(out.read_text())
            assert report["validated"] is True
            if kind in ("unweighted", "weighted"):
                _check_report(report, json.loads(text))
        else:
            assert out.exists()
    else:
        lines = stdout.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["exit_code"] == code
        assert not out.exists()
    if refusal is not None:
        assert code == 3 and re.search(refusal, json.loads(lines[0])["message"])


class TestExitCodeContract:
    @pytest.mark.parametrize("command", list(CONTRACT_INPUTS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mutated_input_exits_by_contract(self, command, data, tmp_path_factory):
        kind = data.draw(st.sampled_from(CONTRACT_INPUTS[command]), label="kind")
        text, refusal = FIXTURES[kind], None
        if data.draw(st.booleans(), label="truncate"):
            text = text[:data.draw(st.integers(0, len(text) - 1), label="cut")]
        else:
            text, refusal = MUTATORS[kind](data, text)
        _check_contract(data, command, kind, text, refusal, tmp_path_factory.mktemp("contract"))

    @pytest.mark.parametrize("command", ["solve", "incremental", "solve-weighted"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_out_of_range_id_exits_3(self, command, data, tmp_path_factory):
        kind = CONTRACT_INPUTS[command][0]
        text, refusal = _mutate_json(data, FIXTURES[kind], ["out_of_range"])
        _check_contract(data, command, kind, text, refusal, tmp_path_factory.mktemp("range"))

    @settings(max_examples=25, deadline=None)
    @given(p=st.sampled_from([0.2, 0.3, 0.5, 0.75, 1.0]), seed=st.integers(0, 50),
           stretch=st.sampled_from([1.0, 1.2, 1.5, 2.0, 3.0]),
           metric=st.sampled_from(["geo", "hops", "weight"]),
           capacity=st.one_of(st.none(), st.integers(1, 6)))
    def test_graphml_and_its_generated_document_give_one_report(
            self, p, seed, stretch, metric, capacity, tmp_path_factory):
        """``solve G.graphml <options>`` and ``solve`` of what ``gen --topology
        G.graphml <options>`` writes exit alike, with the same report or error
        line apart from ``wall_time_s``, the instance digest included."""
        options = ["--p", str(p), "--seed", str(seed), "--stretch", str(stretch),
                   "--metric", metric]
        if capacity is not None:
            options += ["--capacity", str(capacity)]
        work = tmp_path_factory.mktemp("forms")
        graphml, doc = DATA / "mini.graphml", work / "doc.json"
        results = []
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["gen", "--topology", str(graphml), *options, "--out", str(doc)]) == 0
        for argv in (["solve", str(graphml), *options], ["solve", str(doc)]):
            out, stdout = work / "report.json", io.StringIO()
            out.unlink(missing_ok=True)
            with contextlib.redirect_stdout(stdout):
                code = main([*argv, "--oracle", "--out", str(out)])
            report = json.loads(out.read_text() if code == 0 else stdout.getvalue())
            report.pop("wall_time_s", None)
            results.append((code, report))
        assert results[0] == results[1]


# ---------------------------------------------------------------------------
# Report text


@pytest.mark.parametrize("command, doc", [
    ("solve", json.loads(FIXTURES["unweighted"])),
    ("solve", _path3("unweighted", stretch=math.inf)),
    ("solve-weighted", json.loads(FIXTURES["weighted"])),
    ("solve-weighted", _path3("weighted", stretch=math.inf)),
], ids=["unweighted", "unweighted-stretch-inf", "weighted", "weighted-stretch-inf"])
def test_report_is_the_stdlib_indented_text(command, doc, tmp_path, capsys):
    # Reports and instance documents share one writer, ingest.dumps.
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    code, _ = run(capsys, command, str(f), "--oracle", "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert ('"stretch": Infinity,' in text) == (doc["stretch"] == math.inf)
