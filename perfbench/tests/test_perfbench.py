"""Tests of the benchmark's own code: generators, validator, tracing, runner.

    python3 -m pytest perfbench/tests      # from the repository root
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import run
import spans
import validate
import workloads
from mbplace.ingest import ScenarioConfig, generate_unweighted_scenario, parse_graphml

from conftest import BENCH, ROOT


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_gives_byte_identical_inputs(tmp_path, name):
    build = workloads.WORKLOADS[name]
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        (tmp_path / label).mkdir()
        build(seed, tmp_path / label)
    a, b, c = (_files(tmp_path / label) for label in "abc")
    assert a and a == b
    assert a.keys() == c.keys() and a != c


def test_mbplace_pairs_follow_the_documented_scheme(tmp_path):
    topo = workloads._library(3, (12,))[0]
    graphml = tmp_path / "t.graphml"
    workloads.gen.write_graphml(graphml, topo)
    cfg = ScenarioConfig(topology=str(graphml), p=0.3, seed=77)
    inst = generate_unweighted_scenario(cfg, parse_graphml(graphml.read_text()))
    assert workloads.mbplace_pairs(12, 0.3, 77) == [[p.s, p.t] for p in inst.pairs]


# -- validator ---------------------------------------------------------------

def _line_instance(stretch: float, capacity: int) -> workloads.Instance:
    """Four nodes on a meridian, 0-1-2-3, with pairs (0,1) and (2,3)."""
    topo = {"lat": [0.0, 1.0, 2.0, 3.0], "lon": [0.0] * 4, "edges": [(0, 1), (1, 2), (2, 3)]}
    doc = workloads.gen.unweighted_doc(topo, [[0, 1], [2, 3]], 0.3, stretch)
    doc["capacity"] = capacity
    return workloads.Instance(doc)


def _report(rows) -> dict:
    boxes = sorted({m for _, _, m in rows})
    return {"pairs": 2, "assigned_pairs": len(rows), "assignment": rows,
            "middleboxes": boxes, "middlebox_count": len(boxes), "oracle_optimum": None}


def test_validator_accepts_a_valid_report():
    inst = _line_instance(stretch=1.0, capacity=1)
    outcome = validate.check_solve(_report([[0, 1, 1], [2, 3, 2]]), inst.doc, inst.dist,
                                   oracle=False)
    assert outcome == validate.Outcome(served=2, middleboxes=2)


@pytest.mark.parametrize("rows, capacity, stretch, message", [
    ([[0, 1, 1], [2, 3, 1]], 1, 100.0, "capacity"),   # both pairs on one box of capacity 1
    ([[0, 1, 1], [2, 3, 0]], 2, 1.0, "stretch"),      # box 0 lies off the path 2-3
    ([[0, 1, 1]], 2, 1.0, "not served"),              # pair (2,3) missing
])
def test_validator_rejects_corrupted_reports(rows, capacity, stretch, message):
    inst = _line_instance(stretch, capacity)
    with pytest.raises(validate.Invalid, match=message):
        validate.check_solve(_report(rows), inst.doc, inst.dist, oracle=False)


def test_validator_checks_weighted_load_against_twice_capacity():
    topo = {"lat": [0.0, 1.0, 2.0], "lon": [0.0] * 3, "edges": [(0, 1), (1, 2)]}
    requests = [{"kind": "pair", "nodes": nodes, "demand": 3.0}
                for nodes in ([0, 2], [0, 1], [1, 2])]
    inst = workloads.Instance(workloads.gen.weighted_from_requests(topo, requests, 1.0))
    report = {"requests": 3, "kept": [0, 1, 2], "rejected": [], "middleboxes": [1],
              "middlebox_count": 1, "assignment": [[0, 1], [1, 1], [2, 1]]}
    assert validate.check_weighted(report, inst.doc, inst.dist).served == 3
    with pytest.raises(validate.Invalid, match="partition"):
        validate.check_weighted(dict(report, kept=[0, 1]), inst.doc, inst.dist)
    inst.doc["capacity"] = 4.0  # load 9 > 2 x 4
    with pytest.raises(validate.Invalid, match="2 x capacity"):
        validate.check_weighted(report, inst.doc, inst.dist)


def test_digest_ignores_wall_time_only():
    text = json.dumps({"middleboxes": [1], "wall_time_s": 0.5}, indent=2)
    same = json.dumps({"middleboxes": [1], "wall_time_s": 9.0}, indent=2)
    other = json.dumps({"middleboxes": [2], "wall_time_s": 0.5}, indent=2)
    assert validate.digest(text, "solve") == validate.digest(same, "solve")
    assert validate.digest(text, "solve") != validate.digest(other, "solve")


def test_digests_cover_every_call_at_the_default_seed(tmp_path):
    table = json.loads(run.DIGESTS.read_text())
    assert sorted(table) == sorted(workloads.WORKLOADS)
    for name, build in workloads.WORKLOADS.items():
        (tmp_path / name).mkdir()
        labels = [call.label for call in build(run.DEFAULT_SEED, tmp_path / name)]
        assert sorted(table[name]) == sorted(labels)


def _reject(text):
    raise validate.Invalid("rejected")


def test_failed_exit_and_wrong_output_are_told_apart(tmp_path):
    from mbplace import cli
    out = tmp_path / "r.json"
    missing = workloads.Call("missing", ["solve", str(tmp_path / "none.json"), "--out", str(out)],
                             out, "solve", _reject)
    result = run.run_call(cli, missing, None)
    assert result.error.startswith("exit ") and not result.wrong_output
    call = workloads.greedy_geo(1, tmp_path)[0]
    result = run.run_call(cli, dataclasses.replace(call, check=_reject), None)
    assert result.error.startswith("invalid:") and result.wrong_output


def test_operations_count_each_distinct_call_once():
    results = [run.CallResult("a", 1.0), run.CallResult("b", 1.0, "exit 2"),
               run.CallResult("a", 1.0), run.CallResult("b", 1.0, "exit 2"),
               run.CallResult("a", 1.0)]
    assert run.operations(results) == (2, 1)


# -- tracing -----------------------------------------------------------------

def test_self_time_on_a_hand_built_span_tree():
    tree = [
        spans.Span(0, None, 0, "cli.main", 0.0, 10.0, None),
        spans.Span(1, 0, 0, "greedy.place", 1.0, 9.0, None),
        spans.Span(2, 1, 0, "matching.add", 2.0, 5.0, 3),
        spans.Span(3, 2, 0, "matching.path", 2.5, 3.0, True),
        spans.Span(4, 1, 0, "matching.add", 6.0, 7.0, 0),
    ]
    assert spans.self_times(tree) == [2.0, 4.0, 2.5, 0.5, 1.0]
    m = spans.layer_metrics(tree)
    assert m["cli.self_s"] == 2.0 and m["greedy.self_s"] == 4.0
    assert m["matching.self_s"] == 4.0 and m["matching.add_s"] == 4.0
    assert m["matching.zero_gain_adds"] == 1 and m["matching.path_useful_ratio"] == 1.0
    assert [name for name, _, _ in spans.METRICS] == list(m)


def _run_recording_wrapped(monkeypatch, trace: int) -> list[list[str]]:
    seen = []
    original = run.run_call

    def recording(cli, call, expected):
        seen.append(spans.wrapped_targets())
        return original(cli, call, expected)

    monkeypatch.setattr(run, "run_call", recording)
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "desk_cli", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    return seen


def test_untraced_run_leaves_mbplace_unwrapped(monkeypatch, capsys):
    seen = _run_recording_wrapped(monkeypatch, trace=0)
    assert seen and all(wrapped == [] for wrapped in seen)
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and list(result["metrics"]) == list(run.END_TO_END)


def test_traced_run_wraps_every_target_and_restores_them(monkeypatch, capsys):
    seen = _run_recording_wrapped(monkeypatch, trace=1)
    assert seen[0] == [] and len(seen[-1]) == len(spans.TARGETS)
    assert spans.wrapped_targets() == []
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["metrics"]["matching.add_calls"]["value"] > 0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == [BENCH.name]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == spans.METRICS + [("trace.overhead_ratio", "ratio", "lower")]


def test_runner_refuses_a_directory_without_mbplace(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "greedy_geo", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
