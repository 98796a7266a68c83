"""The ``bench`` command: batch runs over a config file, one metrics CSV row
per instance.

``cli`` imports this module only when ``bench`` runs, so the per-instance
commands do not load the batch runner. A row makes the same validated runs
as the per-instance commands (``greedy.solve_unweighted``,
``weighted.solve_weighted``) and the same per-step oracle comparison; from
``cli`` it takes only the CSV and output plumbing. An absent config key takes
its owner's default, as in those commands: ``ingest.ScenarioConfig``'s,
``ingest.KEEP_PROBABILITY`` or ``oracle.DEFAULT_LIMIT``.
"""

from __future__ import annotations

import json
import time
from functools import partial
from pathlib import Path

from . import greedy, ingest, oracle, weighted
from .cli import EXIT_OK, _csv_text, _is_count, _is_probability, _write
from .exceptions import ParseError, PlacementError
from .instance import build_feasibility
from .netgraph import METRICS, is_number

BENCH_COLUMNS = [
    "topology", "kind", "nodes", "edges", "p", "stretch", "replication", "seed",
    "algorithm", "status", "middlebox_count", "assigned", "total",
    "oracle_optimum", "approximation_ratio", "relative_difference_max",
    "max_relative_load", "capacity_violations", "wall_time_s", "error",
]

CONFIG_LIMIT = 'the config\'s "oracle_limit" {}; raise it or set "oracle" to false'


def _bench_row(kind: str, algorithm: str, path: str, p: float, stretch: float, rep: int,
               seed: int, metric: str, measure) -> list:
    """One bench CSV row. ``measure(cfg)`` returns (nodes, edges, the eight
    columns middlebox_count..capacity_violations); a PlacementError becomes an
    error row and the batch continues."""
    t0 = time.perf_counter()
    try:
        cfg = ingest.ScenarioConfig(topology=path, p=p, stretch=stretch, seed=seed,
                                    replication=rep, metric=metric)
        nodes, edges, results = measure(cfg)
        status, error = "ok", None
    except PlacementError as exc:
        nodes = edges = None
        results = [None] * 8
        status, error = "error", f"{type(exc).__name__}: {exc}"
    return [Path(path).stem, kind, nodes, edges, p, stretch, rep, seed, algorithm, status,
            *results, round(time.perf_counter() - t0, 6), error]


def _measure_greedy(net, oracle_limit, cfg):
    inst = ingest.generate_unweighted_scenario(cfg, net)
    fs = build_feasibility(inst)
    trace = greedy.solve_unweighted(inst, fs)
    opt = ratio = rel_max = None
    if oracle_limit is not None:
        opt, ratio, series = oracle.compare_to_greedy(inst, fs, trace.steps, oracle_limit,
                                                      CONFIG_LIMIT)
        rel_max = max(series, default=0.0)
    return inst.net.num_nodes, inst.net.num_edges, [
        len(trace.steps), trace.engine.num_assigned, inst.num_pairs, opt, ratio, rel_max,
        None, None,
    ]


def _measure_weighted(parsed, cfg):
    net, demands = parsed
    winst = ingest.generate_weighted_scenario(cfg, net, demands)
    prep, chosen, _, rounded = weighted.solve_weighted(winst)
    rel, violations = weighted.relative_loads(prep, rounded)
    return net.num_nodes, net.num_edges, [
        len(chosen), len(rounded.assignment), len(prep.kept), None, None, None,
        max(rel.values(), default=0.0), violations,
    ]


#: Every key a bench config may hold, with the value an absent key takes.
DEFAULTS = {"seed": ingest.ScenarioConfig.seed, "metric": ingest.ScenarioConfig.metric,
            "topologies": [], "p_values": [ingest.ScenarioConfig.p], "stretches": "grid",
            "replications": 1, "algorithms": ["greedy"], "oracle": False,
            "oracle_limit": oracle.DEFAULT_LIMIT, "sndlib": []}
SNDLIB_DEFAULTS = {"path": None, "keep_probability": ingest.KEEP_PROBABILITY}


def _is_list_of(valid, value) -> bool:
    return isinstance(value, list) and all(map(valid, value))


def _is_sndlib_entry(entry) -> bool:
    return (isinstance(entry, dict) and isinstance(entry.get("path"), str)
            and _is_probability(entry.get("keep_probability")))


def _resolve_config(config) -> dict:
    """``DEFAULTS | config``, each "sndlib" entry completed the same way.
    Raise ParseError unless every key is known and has the shape ``run``
    reads, and an "oracle_limit" comes with "oracle" true, so a malformed
    config stops the batch before any row runs."""
    if not isinstance(config, dict):
        raise ParseError("bench: the config must be a JSON object")
    ingest.refuse_unknown(config, DEFAULTS, "bench: unknown key")
    cfg = DEFAULTS | config
    if _is_list_of(lambda entry: isinstance(entry, dict), cfg["sndlib"]):
        for entry in cfg["sndlib"]:
            ingest.refuse_unknown(entry, SNDLIB_DEFAULTS, 'bench: unknown "sndlib" entry key')
        cfg["sndlib"] = [SNDLIB_DEFAULTS | entry for entry in cfg["sndlib"]]
    for key, ok, shape in [
        ("seed", _is_count(cfg["seed"]), "an int >= 0"),
        ("replications", _is_count(cfg["replications"]), "an int >= 0"),
        ("oracle", type(cfg["oracle"]) is bool, "true or false"),
        ("oracle_limit", _is_count(cfg["oracle_limit"]), "an int >= 0"),
        ("metric", cfg["metric"] in METRICS, "one of " + ", ".join(map(json.dumps, METRICS))),
        ("stretches", cfg["stretches"] == "grid" or _is_list_of(is_number, cfg["stretches"]),
         '"grid" or a list of numbers'),
        ("topologies", _is_list_of(lambda path: isinstance(path, str), cfg["topologies"]),
         "a list of paths"),
        ("p_values", _is_list_of(_is_probability, cfg["p_values"]),
         "a list of numbers in [0, 1]"),
        ("sndlib", _is_list_of(_is_sndlib_entry, cfg["sndlib"]),
         'a list of {"path": ..., "keep_probability": ...} objects, the probability in [0, 1]'),
        ("algorithms", cfg["algorithms"] == ["greedy"], '["greedy"]'),
    ]:
        if not ok:
            raise ParseError(f'bench: "{key}" must be absent or {shape}')
    if "oracle_limit" in config and not cfg["oracle"]:
        raise ParseError('bench: "oracle_limit" is read only when "oracle" is true')
    return cfg


def run(args) -> int:
    """The ``bench`` command."""
    try:
        config = json.loads(Path(args.config).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"bench: the config is not JSON: {exc}") from exc
    cfg = _resolve_config(config)
    seed, metric, reps = cfg["seed"], cfg["metric"], cfg["replications"]
    stretches = ingest.stretch_grid() if cfg["stretches"] == "grid" else cfg["stretches"]
    oracle_limit = cfg["oracle_limit"] if cfg["oracle"] else None
    nets = {p: ingest.parse_graphml(Path(p).read_text()) for p in cfg["topologies"]}
    parsed = {entry["path"]: ingest.parse_sndlib(Path(entry["path"]).read_text())
              for entry in cfg["sndlib"]}
    rows = []
    for path in cfg["topologies"]:
        for p in cfg["p_values"]:
            for stretch in stretches:
                for rep in range(reps):
                    rows.append(_bench_row(
                        "unweighted", "greedy", path, p, stretch, rep, seed, metric,
                        partial(_measure_greedy, nets[path], oracle_limit),
                    ))
    for entry in cfg["sndlib"]:
        keep = entry["keep_probability"]
        for stretch in stretches:
            for rep in range(reps):
                rows.append(_bench_row(
                    "weighted", "generalized_greedy", entry["path"], keep, stretch, rep,
                    seed, metric, partial(_measure_weighted, parsed[entry["path"]]),
                ))
    _write(out=(args.out, _csv_text(BENCH_COLUMNS, rows)))
    return EXIT_OK
