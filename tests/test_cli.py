import csv
import json
import math
from pathlib import Path

import pytest

from builders import star_instance

from mbplace import greedy, weighted
from mbplace.cli import BENCH_COLUMNS, INCREMENTAL_COLUMNS, TRACE_COLUMNS, build_parser, main
from mbplace.exceptions import Stalled
from mbplace.ingest import instance_to_json

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
        text = instance_to_json(inst).replace('"candidates": [', '"candidates": [0], "x": [')
        bad.write_text(text)
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
        ("solve", _path3("unweighted", stretch=True)),
        ("solve", _path3("unweighted", stretch=None, route_limit=True)),
        ("solve-weighted", _path3("weighted", capacity=True)),
        ("solve", _path3("unweighted", nodes=[{"id": 0, "lat": True, "lon": 0.0},
                                              {"id": 1}, {"id": 2}])),
        ("solve", _path3("unweighted", nodes=[{"id": 0, "lat": 0.0, "lon": True},
                                              {"id": 1}, {"id": 2}])),
    ], ids=["negative-pair-node", "pair-node-9", "candidate-7", "weighted-candidate-7",
            "weighted-request-node-9", "weighted-stretch-0.5", "stretch-nan", "route-limit-nan",
            "capacity-1.5", "capacity-true", "weighted-capacity-inf", "edge-weight-nan",
            "edge-weight-true", "stretch-true", "route-limit-true", "weighted-capacity-true",
            "lat-true", "lon-true"])
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
    ])
    def test_exit_3_with_json_error(self, argv, star_file, capsys):
        argv = [str(star_file) if a == "STAR" else a for a in argv]
        code, out = run(capsys, *argv)
        assert code == 3
        err = json.loads(out)
        assert err["error"] == "ParseError" and err["exit_code"] == 3

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

        def overcount(inst, fs):
            trace = real(inst, fs)
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

    def test_error_rows_of_both_kinds(self, tmp_path, monkeypatch, capsys):
        def stalled(inst, fs):
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

    def test_row_error_captured_batch_continues(self, tmp_path, capsys):
        # Two components: at p 1.0 some pair has disconnected endpoints, so
        # that row fails; the next topology's row must still come out ok.
        split = tmp_path / "split.graphml"
        split.write_text(
            '<graphml><key id="la" for="node" attr.name="Latitude"/>'
            '<key id="lo" for="node" attr.name="Longitude"/><graph>'
            + "".join(f'<node id="n{i}"><data key="la">{50 + i}</data>'
                      f'<data key="lo">{10 + i}</data></node>' for i in range(4))
            + '<edge source="n0" target="n1"/><edge source="n2" target="n3"/>'
            '</graph></graphml>')
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
