"""Command-line front end.

Subcommands: ``solve`` (greedy on an unweighted instance), ``solve-weighted``
(generalized greedy plus rounding), ``incremental`` (per-step served-pairs
series vs. the exact oracle), ``gen`` (scenario generation) and ``bench``
(batch runs emitting a metrics CSV).

``solve``, ``incremental`` and ``bench`` share one validated greedy run
(``_solve_greedy``; ``incremental`` reads its series from the run's steps)
and one per-step oracle series (``_oracle_series``), which starts only after
the run, so a failed run decides the exit code before an oracle limit can.

Exit codes are a stable contract: 0 success, 2 infeasible, 3 parse or usage
error, 4 oracle too large. On failure a machine-readable error JSON is
printed. Every assignment, of either variant, is re-validated against the
instance invariants before it is reported.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
import time
from fractions import Fraction
from functools import cache, partial
from pathlib import Path

from . import greedy as greedy_mod
from . import ingest, oracle, weighted
from .exceptions import (
    DomainError,
    GeoUnavailable,
    Infeasible,
    InfeasiblePair,
    ParseError,
    PlacementError,
    RoundingFailed,
    Stalled,
    TooLarge,
)
from .instance import PlacementInstance, build_feasibility, check_total_capacity, validate_assignment
from .netgraph import METRICS

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_PARSE = 3
EXIT_TOO_LARGE = 4

REPORT_VERSION = 1

BENCH_COLUMNS = [
    "topology", "kind", "nodes", "edges", "p", "stretch", "replication", "seed",
    "algorithm", "status", "middlebox_count", "assigned", "total",
    "oracle_optimum", "approximation_ratio", "relative_difference_max",
    "max_relative_load", "capacity_violations", "wall_time_s", "error",
]

INCREMENTAL_COLUMNS = ["n", "phi_greedy", "phi_opt", "relative_difference"]

TRACE_COLUMNS = ["iteration", "chosen", "gain", "phi_after"]


# ---------------------------------------------------------------------------
# helpers


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _scenario(args, topology: str) -> ingest.ScenarioConfig:
    """The unweighted scenario recipe the CLI arguments give a GraphML topology."""
    return ingest.ScenarioConfig(
        topology=topology, p=args.p, stretch=1.5 if args.stretch is None else args.stretch,
        capacity=args.capacity, seed=args.seed, replication=args.replication,
        metric=args.metric or "geo",
    )


def _from_json(raw: str, kind: type, name: str):
    """The instance in document ``raw``; a ParseError names ``name`` unless it is a ``kind``."""
    inst = ingest.instance_from_json(raw)
    if not isinstance(inst, kind):
        raise ParseError(f"expected {name} instance document")
    return inst


def _load_unweighted(args) -> PlacementInstance:
    """Instance from JSON, or from GraphML plus the scenario arguments."""
    raw = Path(args.instance).read_text()
    if raw.lstrip().startswith("<"):
        return ingest.generate_unweighted_scenario(_scenario(args, args.instance),
                                                   ingest.parse_graphml(raw))
    inst = _from_json(raw, PlacementInstance, "an unweighted")
    overrides = {}
    if args.stretch is not None:
        overrides["stretch"] = args.stretch
    if args.capacity is not None:
        overrides["capacity"] = args.capacity
    if args.metric is not None and args.metric != inst.metric:
        overrides["metric"] = args.metric
        overrides["dist"] = ingest.compute_apsp(inst.net, args.metric)
    if overrides:
        inst = dataclasses.replace(inst, **overrides)
    return inst


def _solve_greedy(inst: PlacementInstance, budget: int | None = None):
    """Greedy placement, or with a ``budget`` the first ``budget`` steps of
    that run, validated: each assigned pair is feasible at its box, loads are
    within capacity and match a recount, and a complete run serves every pair."""
    fs = build_feasibility(inst)
    check_total_capacity(inst, fs)
    if budget is None:
        trace = greedy_mod.greedy_place(inst, fs)
    else:
        trace = greedy_mod.incremental_extend(greedy_mod.greedy_prefix(inst, fs), budget)
    validate_assignment(
        [(p.s, p.t) for p in inst.pairs], [1] * inst.num_pairs,
        {i: m for i, m in enumerate(trace.engine.mu) if m is not None}, trace.engine.load,
        inst.dist, inst.stretch, inst.route_limit,
        required=range(inst.num_pairs) if trace.complete else (), load_limit=inst.capacity,
    )
    return fs, trace


def _solve_weighted(winst: weighted.WeightedInstance):
    """Weighted pipeline, validated: kept and rejected split the requests by
    demand against kappa, every kept request is served, loads <= 2 kappa."""
    prep, chosen, frac, rounded = weighted.solve_weighted(winst)
    demands = [Fraction(r.demand) for r in winst.requests]
    kappa = Fraction(winst.capacity)
    if sorted(prep.kept + prep.rejected) != list(range(len(demands))):
        raise PlacementError("validation: kept and rejected do not partition the requests")
    if any(demands[j] > kappa for j in prep.kept) or \
            any(demands[j] <= kappa for j in prep.rejected):
        raise PlacementError("validation: a request is kept or rejected against its demand")
    validate_assignment(
        [r.nodes for r in winst.requests], demands, rounded.assignment, rounded.load,
        winst.dist, winst.stretch, winst.route_limit,
        required=prep.kept, load_limit=2 * kappa,
    )
    return prep, chosen, frac, rounded


def _relative_loads(prep, rounded) -> dict[str, float]:
    kappa = float(prep.kappa)
    return {str(u): float(load) / kappa for u, load in sorted(rounded.load.items())}


def _csv_text(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return buf.getvalue()


def _oracle_series(inst, fs, trace, limit) -> list[tuple[int, float]]:
    """Per greedy step n: (phi_opt, the most pairs any n boxes serve, and
    (phi_opt - phi_greedy) / phi_opt)."""
    try:
        best = [oracle.max_assignment_for_n(inst, fs, s.iteration + 1, limit=limit).value
                for s in trace.steps]
    except TooLarge:
        raise TooLarge(f"{len(inst.candidates)} candidates exceed --oracle-limit {limit}; "
                       "re-run without --oracle") from None
    return [(b, (b - s.phi_after) / b if b else 0.0) for b, s in zip(best, trace.steps)]


def _compare_to_oracle(inst, fs, trace, limit):
    """(optimum, greedy/optimum ratio, per-step relative differences).

    The run is complete, so its last step n has phi_opt(n) = |P|, and as
    phi_opt is monotone the optimum is the first n with phi_opt(n) = |P|
    (0 for a run without steps)."""
    series = _oracle_series(inst, fs, trace, limit)
    opt = next((n for n, (best, _) in enumerate(series, 1) if best == inst.num_pairs), 0)
    return opt, len(trace.steps) / opt if opt else None, [rel for _, rel in series]


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    t0 = time.perf_counter()
    inst = _load_unweighted(args)
    digest = ingest.instance_digest(ingest.instance_to_json(inst))
    fs, trace = _solve_greedy(inst)
    oracle_opt = ratio = rel_series = None
    if args.oracle:
        oracle_opt, ratio, rel_series = _compare_to_oracle(inst, fs, trace, args.oracle_limit)
    report = {
        "report_version": REPORT_VERSION,
        "algorithm": "greedy",
        "instance_digest": digest,
        "metric": inst.metric,
        "stretch": inst.stretch,
        "route_limit": inst.route_limit,
        "capacity": inst.capacity,
        "nodes": inst.net.num_nodes,
        "edges": inst.net.num_edges,
        "pairs": inst.num_pairs,
        "candidates": len(inst.candidates),
        "middlebox_count": len(trace.steps),
        "middleboxes": trace.middleboxes,
        "assigned_pairs": trace.engine.num_assigned,
        "assignment": [
            [inst.pairs[i].s, inst.pairs[i].t, m]
            for i, m in enumerate(trace.engine.mu) if m is not None
        ],
        "trace": [
            {"iteration": s.iteration, "chosen": s.chosen, "gain": s.gain,
             "phi_after": s.phi_after}
            for s in trace.steps
        ],
        "oracle_optimum": oracle_opt,
        "approximation_ratio": ratio,
        "relative_difference": rel_series,
        "validated": True,
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }
    _write_text(args.out, json.dumps(report, indent=2) + "\n")
    if args.trace_csv:
        rows = [[s.iteration, s.chosen, s.gain, s.phi_after] for s in trace.steps]
        _write_text(args.trace_csv, _csv_text(TRACE_COLUMNS, rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve-weighted


def cmd_solve_weighted(args) -> int:
    t0 = time.perf_counter()
    winst = _from_json(Path(args.instance).read_text(), weighted.WeightedInstance, "a weighted")
    digest = ingest.instance_digest(ingest.instance_to_json(winst))
    prep, chosen, frac, rounded = _solve_weighted(winst)
    rel_load = _relative_loads(prep, rounded)
    violations = sum(1 for v in rel_load.values() if v > 1.0)
    oracle_opt = ratio = None
    if args.oracle:
        # The oracle sees the kept requests only: a rejected one (demand above
        # kappa) has no integral placement at all.
        result = oracle.exact_weighted_min_middleboxes(
            [winst.requests[j] for j in prep.kept],
            [prep.fs.candidates_of[j] for j in prep.kept], winst.capacity,
            limit=args.oracle_limit,
        )
        oracle_opt = result.value
        ratio = len(chosen) / result.value if result.value else None
    report = {
        "report_version": REPORT_VERSION,
        "algorithm": "generalized_greedy",
        "instance_digest": digest,
        "metric": winst.metric,
        "stretch": winst.stretch,
        "route_limit": winst.route_limit,
        "capacity": float(prep.kappa),
        "nodes": winst.net.num_nodes,
        "edges": winst.net.num_edges,
        "requests": len(winst.requests),
        "kept": list(prep.kept),
        "rejected": list(prep.rejected),
        "middlebox_count": len(chosen),
        "middleboxes": sorted(chosen),
        "fractional_objective": frac.objective_float,
        "assignment": [[j, rounded.assignment[j]] for j in sorted(rounded.assignment)],
        "relative_load": rel_load,
        "max_relative_load": max(rel_load.values(), default=0.0),
        "capacity_violations": violations,
        "oracle_optimum": oracle_opt,
        "approximation_ratio": ratio,
        "validated": True,
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }
    _write_text(args.out, json.dumps(report, indent=2) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# incremental


def cmd_incremental(args) -> int:
    if args.budget_steps is not None and args.budget_steps < 0:
        raise ParseError(f"--budget-steps must be >= 0, got {args.budget_steps}")
    inst = _load_unweighted(args)
    fs, trace = _solve_greedy(inst, args.budget_steps)
    rows = [[0, 0, 0, 0.0] if args.oracle else [0, 0, None, None]]
    series = (_oracle_series(inst, fs, trace, args.oracle_limit) if args.oracle
              else [(None, None)] * len(trace.steps))
    rows += [[s.iteration + 1, s.phi_after, opt, rel]
             for s, (opt, rel) in zip(trace.steps, series)]
    _write_text(args.out, _csv_text(INCREMENTAL_COLUMNS, rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    if (args.topology is None) == (args.sndlib is None):
        raise ParseError("exactly one of --topology / --sndlib is required")
    if args.topology:
        net = ingest.parse_graphml(Path(args.topology).read_text())
        inst = ingest.generate_unweighted_scenario(_scenario(args, args.topology), net)
        provenance = {
            "source": args.topology, "p": args.p, "seed": args.seed,
            "replication": args.replication,
        }
    else:
        net, demands = ingest.parse_sndlib(Path(args.sndlib).read_text())
        cfg = ingest.ScenarioConfig(
            topology=args.sndlib, p=args.keep_prob, stretch=args.stretch,
            seed=args.seed, replication=args.replication, metric=args.metric or "geo",
        )
        inst = ingest.generate_weighted_scenario(cfg, net, demands,
                                                 keep_probability=args.keep_prob)
        provenance = {
            "source": args.sndlib, "keep_probability": args.keep_prob,
            "seed": args.seed, "replication": args.replication,
        }
    _write_text(args.out, ingest.instance_to_json(inst, provenance))
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


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
        opt, ratio, series = _compare_to_oracle(inst, fs, trace, oracle_limit)
        rel_max = max(series, default=0.0)
    return inst.net.num_nodes, inst.net.num_edges, [
        len(trace.steps), trace.engine.num_assigned, inst.num_pairs, opt, ratio, rel_max,
        None, None,
    ]


def _measure_weighted(parsed, cfg):
    net, demands = parsed
    winst = ingest.generate_weighted_scenario(cfg, net, demands, keep_probability=cfg.p)
    prep, chosen, _, rounded = _solve_weighted(winst)
    rel = _relative_loads(prep, rounded).values()
    return net.num_nodes, net.num_edges, [
        len(chosen), len(rounded.assignment), prep.num_kept, None, None, None,
        max(rel, default=0.0), sum(1 for v in rel if v > 1.0),
    ]


def cmd_bench(args) -> int:
    try:
        config = json.loads(Path(args.config).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed bench config: {exc}") from exc
    seed = config.get("seed", 0)
    metric = config.get("metric", "geo")
    stretches = config.get("stretches", "grid")
    if stretches == "grid":
        stretches = ingest.stretch_grid()
    oracle_limit = config.get("oracle_limit", 16) if config.get("oracle", False) else None
    reps = config.get("replications", 1)
    if config.get("algorithms", ["greedy"]) != ["greedy"]:
        raise ParseError('bench: "algorithms" must be absent or ["greedy"]')
    nets = {p: ingest.parse_graphml(Path(p).read_text())
            for p in config.get("topologies", [])}
    parsed = {entry["path"]: ingest.parse_sndlib(Path(entry["path"]).read_text())
              for entry in config.get("sndlib", [])}
    rows = []
    for path in config.get("topologies", []):
        for p in config.get("p_values", [0.3]):
            for stretch in stretches:
                for rep in range(reps):
                    rows.append(_bench_row(
                        "unweighted", "greedy", path, p, stretch, rep, seed, metric,
                        partial(_measure_greedy, nets[path], oracle_limit),
                    ))
    for entry in config.get("sndlib", []):
        keep = entry.get("keep_probability", 0.5)
        for stretch in stretches:
            for rep in range(reps):
                rows.append(_bench_row(
                    "weighted", "generalized_greedy", entry["path"], keep, stretch, rep,
                    seed, metric, partial(_measure_weighted, parsed[entry["path"]]),
                ))
    _write_text(args.out, _csv_text(BENCH_COLUMNS, rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors raise ParseError (exit 3 with the JSON error line) instead
    of exiting 2, which the contract reserves for infeasible instances.
    Abbreviated long options are not accepted."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParseError(f"{self.prog}: {message}")


@cache  # one parser per process: each build leaves ~340 objects for the cycle collector
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="mbplace",
        description="Capacitated, stretch-constrained middlebox placement solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_solve(sp):
        sp.add_argument("instance", help="instance JSON or GraphML file")
        sp.add_argument("--metric", choices=METRICS, default=None)
        sp.add_argument("--stretch", type=float, default=None)
        sp.add_argument("--capacity", type=int, default=None)
        sp.add_argument("--p", type=float, default=0.3,
                        help="pair probability for GraphML inputs")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--replication", type=int, default=0)
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    sp = sub.add_parser("solve", help="greedy placement on an unweighted instance")
    add_common_solve(sp)
    sp.add_argument("--trace-csv", default=None, help="write the per-step trace CSV")
    sp.add_argument("--oracle", action="store_true", help="also run the exact oracle")
    sp.add_argument("--oracle-limit", type=int, default=16)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("solve-weighted", help="generalized greedy plus rounding")
    sp.add_argument("instance", help="weighted instance JSON")
    sp.add_argument("--oracle", action="store_true")
    sp.add_argument("--oracle-limit", type=int, default=12)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_solve_weighted)

    sp = sub.add_parser("incremental", help="per-step assignment series")
    add_common_solve(sp)
    sp.add_argument("--budget-steps", type=int, default=None)
    sp.add_argument("--oracle", action="store_true")
    sp.add_argument("--oracle-limit", type=int, default=16)
    sp.set_defaults(func=cmd_incremental)

    sp = sub.add_parser("gen", help="generate a scenario instance file")
    sp.add_argument("--topology", default=None, help="GraphML topology")
    sp.add_argument("--sndlib", default=None, help="SNDlib native file")
    sp.add_argument("--p", type=float, default=0.3)
    sp.add_argument("--keep-prob", type=float, default=0.5)
    sp.add_argument("--stretch", type=float, default=1.5)
    sp.add_argument("--capacity", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--replication", type=int, default=0)
    sp.add_argument("--metric", choices=METRICS, default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("bench", help="batch runs over a config file")
    sp.add_argument("config", help="bench config JSON")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ParseError, GeoUnavailable, DomainError, FileNotFoundError) as exc:
        _emit_error(exc, EXIT_PARSE)
        return EXIT_PARSE
    except TooLarge as exc:
        _emit_error(exc, EXIT_TOO_LARGE)
        return EXIT_TOO_LARGE
    except (Infeasible, InfeasiblePair, Stalled, RoundingFailed) as exc:
        _emit_error(exc, EXIT_INFEASIBLE)
        return EXIT_INFEASIBLE
    except PlacementError as exc:
        _emit_error(exc, 1)
        return 1


def _emit_error(exc: Exception, code: int) -> None:
    sys.stdout.write(json.dumps(
        {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    ) + "\n")


if __name__ == "__main__":
    sys.exit(main())
