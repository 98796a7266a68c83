"""Command-line front end: each command parses its input, calls the library
and prints what it returns.

Subcommands: ``solve`` (greedy on an unweighted instance), ``solve-weighted``
(generalized greedy plus rounding), ``incremental`` (per-step served-pairs
series vs. the exact oracle), ``gen`` (scenario generation) and ``bench``
(batch runs emitting a metrics CSV).

The runs validate themselves: ``greedy.solve_unweighted`` (``solve``,
``incremental``, whose series is the run's steps, and ``bench``) and
``weighted.solve_weighted``. A command builds the pairs' feasibility itself,
as the oracle reads it too and ``perfbench/spans.py`` times that layer by
wrapping this module's ``build_feasibility``. The per-step oracle series
(``oracle.greedy_gap_series``) starts after the run, so a failed run decides
the exit code before an oracle limit can. ``--oracle-limit`` is read only
with ``--oracle``. The batch runner ``bench`` is imported only when it runs.

Exit codes are a stable contract: 0 success, 2 infeasible, 3 parse, usage or
read error, 4 oracle too large, 1 a failed validation or a broken engine
invariant. Each error class carries its code as ``exit_code``, so ``main``
has one handler for them and one for unreadable files. On failure a
machine-readable error JSON is printed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
import time
from functools import cache
from pathlib import Path

from . import greedy, ingest, oracle, weighted
from .exceptions import ParseError, PlacementError, TooLarge
from .instance import PlacementInstance, build_feasibility
from .netgraph import METRICS, is_number

EXIT_OK = 0
EXIT_PARSE = 3

REPORT_VERSION = 1

BENCH_COLUMNS = [
    "topology", "kind", "nodes", "edges", "p", "stretch", "replication", "seed",
    "algorithm", "status", "middlebox_count", "assigned", "total",
    "oracle_optimum", "approximation_ratio", "relative_difference_max",
    "max_relative_load", "capacity_violations", "wall_time_s", "error",
]

INCREMENTAL_COLUMNS = ["n", "phi_greedy", "phi_opt", "relative_difference"]

TRACE_COLUMNS = ["iteration", "chosen", "gain", "phi_after"]

#: How an oracle limit is named: the flag that sets it.
FLAG_LIMIT = "--oracle-limit {}; re-run without --oracle"


# ---------------------------------------------------------------------------
# helpers


def _write(*outputs: tuple[str | None, str]) -> None:
    """Write each ``(path, text)``; a path of None or ``-`` is stdout.

    Files come before stdout, and a file that cannot be written removes the
    files written before it, so a failed run leaves no output.
    """
    written: list[Path] = []
    try:
        for path, text in sorted(outputs, key=lambda out: out[0] in (None, "-")):
            if path is None or path == "-":
                sys.stdout.write(text)
            else:
                Path(path).write_text(text)
                written.append(Path(path))
    except OSError:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def _is_count(value) -> bool:
    """An int >= 0; a bool (JSON ``true``) is not one."""
    return type(value) is int and value >= 0


def _is_probability(value) -> bool:
    """A number in [0, 1]; NaN fails the comparison."""
    return is_number(value) and 0 <= value <= 1


def count(text: str) -> int:
    """argparse type of ``--seed``, ``--replication``, ``--budget-steps`` and
    ``--oracle-limit``."""
    value = int(text)
    if not _is_count(value):
        raise ValueError(text)
    return value


def probability(text: str) -> float:
    """argparse type of ``--p`` and ``--keep-prob``."""
    value = float(text)
    if not _is_probability(value):
        raise ValueError(text)
    return value


def _given(value, default):
    """An option's value, or its documented default when it was not given."""
    return default if value is None else value


def _refuse(args, reader: str, *options: str) -> None:
    """ParseError naming each of ``options`` (argparse dests) that was given,
    since only ``reader`` reads them: an option never goes silently unused."""
    given = [f"--{o.replace('_', '-')}" for o in options if getattr(args, o) is not None]
    if given:
        raise ParseError(f"{args.command}: only {reader} reads {', '.join(given)}")


def _oracle_limit(args, default: int) -> int | None:
    """The oracle's candidate limit (``--oracle-limit``, else ``default``), or
    None without ``--oracle``, which refuses a given ``--oracle-limit``."""
    if not args.oracle:
        _refuse(args, "--oracle", "oracle_limit")
        return None
    return _given(args.oracle_limit, default)


def _scenario(args, topology: str) -> ingest.ScenarioConfig:
    """The scenario recipe the given options make of ``topology``;
    ``ScenarioConfig`` holds the default of each option not given."""
    given = {o: v for o in ("p", "stretch", "capacity", "seed", "replication", "metric")
             if (v := getattr(args, o)) is not None}
    return ingest.ScenarioConfig(topology, **given)


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
    _refuse(args, "a GraphML input", "p", "seed", "replication")
    inst = _from_json(raw, PlacementInstance, "an unweighted")
    overrides = {}
    if args.stretch is not None:
        overrides.update(stretch=args.stretch, route_limit=None)
    if args.capacity is not None:
        overrides["capacity"] = args.capacity
    if args.metric is not None and args.metric != inst.metric:
        overrides["metric"] = args.metric
        overrides["dist"] = ingest.compute_apsp(inst.net, args.metric)
    if overrides:
        inst = dataclasses.replace(inst, **overrides)
    return inst


def _csv_text(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    t0 = time.perf_counter()
    limit = _oracle_limit(args, oracle.DEFAULT_LIMIT)
    inst = _load_unweighted(args)
    digest = ingest.instance_digest(ingest.instance_to_json(inst))
    fs = build_feasibility(inst)
    trace = greedy.solve_unweighted(inst, fs)
    oracle_opt = ratio = rel_series = None
    if limit is not None:
        oracle_opt, ratio, rel_series = oracle.compare_to_greedy(inst, fs, trace.steps, limit,
                                                                 FLAG_LIMIT)
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
        "assignment": [[inst.pairs[i].s, inst.pairs[i].t, m]
                       for i, m in trace.engine.assignment().items()],
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
    outputs = [(args.out, ingest.dumps(report) + "\n")]
    if args.trace_csv:
        rows = [[s.iteration, s.chosen, s.gain, s.phi_after] for s in trace.steps]
        outputs.append((args.trace_csv, _csv_text(TRACE_COLUMNS, rows)))
    _write(*outputs)
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve-weighted


def cmd_solve_weighted(args) -> int:
    t0 = time.perf_counter()
    limit = _oracle_limit(args, oracle.DEFAULT_WEIGHTED_LIMIT)
    winst = _from_json(Path(args.instance).read_text(), weighted.WeightedInstance, "a weighted")
    digest = ingest.instance_digest(ingest.instance_to_json(winst))
    prep, chosen, frac, rounded = weighted.solve_weighted(winst)
    rel_load, violations = weighted.relative_loads(prep, rounded)
    oracle_opt = ratio = None
    if limit is not None:
        # The oracle sees the kept requests only: a rejected one (demand above
        # kappa) has no integral placement at all.
        candidates_of = [prep.fs.candidates_of[j] for j in prep.kept]
        try:
            result = oracle.exact_weighted_min_middleboxes(
                [winst.requests[j] for j in prep.kept], candidates_of, winst.capacity,
                limit=limit,
            )
        except TooLarge as exc:  # the candidates are checked first, then the requests
            universe = len({u for us in candidates_of for u in us})
            raise TooLarge(f"{universe} candidates exceed {FLAG_LIMIT.format(limit)}"
                           if universe > limit
                           else f"{exc}; re-run without --oracle") from None
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
        "fractional_objective": float(frac.objective),
        "assignment": [[j, rounded.assignment[j]] for j in sorted(rounded.assignment)],
        "relative_load": rel_load,
        "max_relative_load": max(rel_load.values(), default=0.0),
        "capacity_violations": violations,
        "oracle_optimum": oracle_opt,
        "approximation_ratio": ratio,
        "validated": True,
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }
    _write((args.out, ingest.dumps(report) + "\n"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# incremental


def cmd_incremental(args) -> int:
    limit = _oracle_limit(args, oracle.DEFAULT_LIMIT)
    inst = _load_unweighted(args)
    fs = build_feasibility(inst)
    trace = greedy.solve_unweighted(inst, fs, args.budget_steps)
    rows = [[0, 0, 0, 0.0] if limit is not None else [0, 0, None, None]]
    series = (oracle.greedy_gap_series(inst, fs, trace.steps, limit, FLAG_LIMIT)
              if limit is not None else [(None, None)] * len(trace.steps))
    rows += [[s.iteration + 1, s.phi_after, opt, rel]
             for s, (opt, rel) in zip(trace.steps, series)]
    _write((args.out, _csv_text(INCREMENTAL_COLUMNS, rows)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    if args.topology is not None:
        _refuse(args, "--sndlib", "keep_prob")
        net = ingest.parse_graphml(Path(args.topology).read_text())
        cfg = _scenario(args, args.topology)
        inst = ingest.generate_unweighted_scenario(cfg, net)
        provenance = {"source": args.topology, "p": cfg.p}
    else:
        # An SNDlib instance's capacity is 4*D/|V| over the kept demand D.
        _refuse(args, "--topology", "capacity", "p")
        net, demands = ingest.parse_sndlib(Path(args.sndlib).read_text())
        cfg = dataclasses.replace(_scenario(args, args.sndlib), p=_given(args.keep_prob, 0.5))
        inst = ingest.generate_weighted_scenario(cfg, net, demands)
        provenance = {"source": args.sndlib, "keep_probability": cfg.p}
    provenance.update(seed=cfg.seed, replication=cfg.replication)
    _write((args.out, ingest.instance_to_json(inst, provenance)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args) -> int:
    from .bench import run  # the batch runner: no other command loads it
    return run(args)


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
        sp.add_argument("--p", type=probability, default=None,
                        help="pair probability for GraphML inputs (default 0.3)")
        sp.add_argument("--seed", type=count, default=None, help="GraphML only (default 0)")
        sp.add_argument("--replication", type=count, default=None,
                        help="GraphML only (default 0)")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    def add_oracle(sp, default: int):
        sp.add_argument("--oracle", action="store_true", help="also run the exact oracle")
        sp.add_argument("--oracle-limit", type=count, default=None,
                        help=f"--oracle only: most candidates it enumerates (default {default})")

    sp = sub.add_parser("solve", help="greedy placement on an unweighted instance")
    add_common_solve(sp)
    sp.add_argument("--trace-csv", default=None, help="write the per-step trace CSV")
    add_oracle(sp, oracle.DEFAULT_LIMIT)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("solve-weighted", help="generalized greedy plus rounding")
    sp.add_argument("instance", help="weighted instance JSON")
    add_oracle(sp, oracle.DEFAULT_WEIGHTED_LIMIT)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_solve_weighted)

    sp = sub.add_parser("incremental", help="per-step assignment series")
    add_common_solve(sp)
    sp.add_argument("--budget-steps", type=count, default=None)
    add_oracle(sp, oracle.DEFAULT_LIMIT)
    sp.set_defaults(func=cmd_incremental)

    sp = sub.add_parser("gen", help="generate a scenario instance file")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--topology", default=None, help="GraphML topology")
    source.add_argument("--sndlib", default=None, help="SNDlib native file")
    sp.add_argument("--p", type=probability, default=None, help="--topology only (default 0.3)")
    sp.add_argument("--keep-prob", type=probability, default=None,
                    help="--sndlib only (default 0.5)")
    sp.add_argument("--stretch", type=float, default=None)
    sp.add_argument("--capacity", type=int, default=None)
    sp.add_argument("--seed", type=count, default=None)
    sp.add_argument("--replication", type=count, default=None)
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
    except PlacementError as exc:
        return _emit_error(exc, exc.exit_code)
    except (OSError, UnicodeDecodeError) as exc:  # an input that is missing or unreadable
        return _emit_error(exc, EXIT_PARSE)


def _emit_error(exc: Exception, code: int) -> int:
    sys.stdout.write(json.dumps(
        {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    ) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
