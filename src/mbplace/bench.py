"""The ``bench`` command: batch runs over a config file, one metrics CSV row
per instance.

``cli`` imports this module only when ``bench`` runs, so the per-instance
commands do not load the batch runner. Rows share ``cli``'s validated runs
(``_solve_greedy``, ``_solve_weighted``) and per-step oracle series.
"""

from __future__ import annotations

import json
import time
from functools import partial
from pathlib import Path

from . import ingest
from .cli import (
    BENCH_COLUMNS,
    EXIT_OK,
    _compare_to_oracle,
    _csv_text,
    _is_count,
    _is_probability,
    _relative_loads,
    _solve_greedy,
    _solve_weighted,
    _write,
)
from .exceptions import ParseError, PlacementError
from .netgraph import METRICS, is_number

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
    fs, trace = _solve_greedy(inst)
    opt = ratio = rel_max = None
    if oracle_limit is not None:
        opt, ratio, series = _compare_to_oracle(inst, fs, trace, oracle_limit, CONFIG_LIMIT)
        rel_max = max(series, default=0.0)
    return inst.net.num_nodes, inst.net.num_edges, [
        len(trace.steps), trace.engine.num_assigned, inst.num_pairs, opt, ratio, rel_max,
        None, None,
    ]


def _measure_weighted(parsed, cfg):
    net, demands = parsed
    winst = ingest.generate_weighted_scenario(cfg, net, demands)
    prep, chosen, _, rounded = _solve_weighted(winst)
    rel = _relative_loads(prep, rounded).values()
    return net.num_nodes, net.num_edges, [
        len(chosen), len(rounded.assignment), len(prep.kept), None, None, None,
        max(rel, default=0.0), sum(1 for v in rel if v > 1.0),
    ]


#: Every key a bench config may hold, with the value an absent key takes.
DEFAULTS = {"seed": 0, "metric": "geo", "topologies": [], "p_values": [0.3],
            "stretches": "grid", "replications": 1, "algorithms": ["greedy"],
            "oracle": False, "oracle_limit": 16, "sndlib": []}
SNDLIB_DEFAULTS = {"path": None, "keep_probability": 0.5}


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
        ("metric", cfg["metric"] in METRICS, 'one of "weight", "hops", "geo"'),
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
        raise ParseError(f"malformed bench config: {exc}") from exc
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
    _write((args.out, _csv_text(BENCH_COLUMNS, rows)))
    return EXIT_OK
