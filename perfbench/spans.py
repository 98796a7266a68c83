"""Span tracing around the public entry points of each mbplace layer.

The solver's source is never touched: ``Tracer.installed`` replaces each
target attribute (a method on a class or a function on a module) where it is
looked up, and puts the original back on exit. Spans stay in memory as
``Span`` tuples until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, NamedTuple

MARK = "__perfbench_traced__"


class Span(NamedTuple):
    id: int
    parent: int | None
    call: int
    name: str
    start: float
    end: float
    info: object  # a work count taken from the call, see TARGETS


def _feasibility(args, result):
    return (args[0].num_pairs * len(args[0].candidates), result.edge_count())


def _step(args, result):
    # The step has opened one box; count the candidates it chose among.
    return len(args[0].fs.candidates) - len(args[0].load) + 1


# (module, class or None, attribute, span name, info taken from (args, result))
TARGETS: list[tuple[str, str | None, str, str, Callable | None]] = [
    ("mbplace.cli", None, "main", "cli.main", None),
    ("mbplace.cli", None, "build_feasibility", "instance.feasibility", _feasibility),
    ("mbplace.ingest", None, "compute_apsp", "netgraph.apsp", lambda a, r: a[0].num_nodes),
    ("mbplace.ingest", None, "parse_graphml", "ingest.parse_graphml", None),
    ("mbplace.ingest", None, "parse_sndlib", "ingest.parse_sndlib", None),
    ("mbplace.ingest", None, "instance_from_json", "ingest.load_json", None),
    ("mbplace.matching", "Assignment", "add_middlebox", "matching.add", lambda a, r: r),
    ("mbplace.matching", "Assignment", "find_augmenting_path", "matching.path",
     lambda a, r: r is not None),
    ("mbplace.matching", "Assignment", "clone", "matching.clone", None),
    ("mbplace.greedy", None, "greedy_place", "greedy.place", None),
    ("mbplace.greedy", None, "greedy_step", "greedy.step", _step),
    ("mbplace.greedy", None, "incremental_extend", "greedy.extend", None),
    ("mbplace.weighted", None, "solve_weighted", "weighted.solve", None),
    ("mbplace.weighted", None, "build_request_feasibility", "weighted.request_feasibility", None),
    ("mbplace.weighted", None, "preprocess", "weighted.preprocess", None),
    ("mbplace.weighted", None, "generalized_greedy", "weighted.greedy", None),
    ("mbplace.weighted", None, "solve_fractional", "weighted.fractional", None),
    ("mbplace.weighted", None, "round_solution", "weighted.round", None),
    ("mbplace._flow", "FlowNetwork", "min_cost_max_flow", "_flow.mcmf",
     lambda a, r: len(a[0].arcs) // 2),
    ("mbplace.oracle", None, "exact_min_middleboxes", "oracle.min", lambda a, r: r.explored),
    ("mbplace.oracle", None, "max_assignment_for_n", "oracle.max_for_n",
     lambda a, r: r.explored),
    ("mbplace.oracle", None, "exact_weighted_min_middleboxes", "oracle.weighted_min",
     lambda a, r: r.explored),
]

LAYERS = ("cli", "ingest", "netgraph", "instance", "matching", "greedy", "weighted", "_flow",
          "oracle")

# Per-layer metrics of a traced run: (name, unit, better), measured over one
# pass of the workload's calls.
METRICS: list[tuple[str, str, str]] = [
    ("matching.add_s", "s", "lower"),
    ("matching.add_calls", "count", "lower"),
    ("matching.gained", "count", "lower"),
    ("matching.zero_gain_adds", "count", "lower"),
    ("matching.path_found", "count", "lower"),
    ("matching.path_failed", "count", "lower"),
    ("matching.path_found_s", "s", "lower"),
    ("matching.path_failed_s", "s", "lower"),
    ("matching.path_useful_ratio", "ratio", "higher"),
    ("matching.clone_calls", "count", "lower"),
    ("matching.clone_s", "s", "lower"),
    ("greedy.step_s", "s", "lower"),
    ("greedy.steps", "count", "lower"),
    ("greedy.evaluations", "count", "lower"),
    ("greedy.pruned", "count", "higher"),
    ("greedy.evals_per_step", "ratio", "lower"),
    ("instance.feasibility_s", "s", "lower"),
    ("instance.feasibility_checks", "count", "lower"),
    ("instance.feasible_edges", "count", "lower"),
    ("instance.feasible_ratio", "ratio", "higher"),
    ("weighted.request_feasibility_s", "s", "lower"),
    ("weighted.request_feasibility_calls", "count", "lower"),
    ("weighted.preprocess_s", "s", "lower"),
    ("weighted.fractional_s", "s", "lower"),
    ("weighted.fractional_calls", "count", "lower"),
    ("weighted.greedy_self_s", "s", "lower"),
    ("weighted.round_s", "s", "lower"),
    ("_flow.mcmf_s", "s", "lower"),
    ("_flow.mcmf_calls", "count", "lower"),
    ("_flow.arcs", "count", "lower"),
    ("oracle.min_s", "s", "lower"),
    ("oracle.max_for_n_s", "s", "lower"),
    ("oracle.max_for_n_calls", "count", "lower"),
    ("oracle.weighted_min_s", "s", "lower"),
    ("oracle.explored", "count", "lower"),
    ("netgraph.apsp_s", "s", "lower"),
    ("netgraph.apsp_calls", "count", "lower"),
    ("netgraph.apsp_nodes", "count", "lower"),
    ("ingest.parse_graphml_s", "s", "lower"),
    ("ingest.parse_sndlib_s", "s", "lower"),
    ("ingest.load_json_s", "s", "lower"),
    ("ingest.calls", "count", "lower"),
    ("cli.main_s", "s", "lower"),
] + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]


def _owner(module: str, cls: str | None):
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls)


def wrapped_targets() -> list[str]:
    """Names of the targets that currently carry a tracing wrapper."""
    return [f"{module}.{cls + '.' if cls else ''}{attr}"
            for module, cls, attr, _, _ in TARGETS
            if getattr(getattr(_owner(module, cls), attr), MARK, False)]


class Tracer:
    """Collects spans; ``call`` is the index of the CLI call being traced."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.call = 0

    def _wrap(self, fn, name: str, info: Callable | None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            returned = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = Span(sid, parent, self.call, name, start, end,
                                  info(args, result) if returned and info else None)

        setattr(traced, MARK, True)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module, cls, attr, name, info in TARGETS:
                owner = _owner(module, cls)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, info))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children; a
    span's id is its index in ``spans``."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer times, work counts and ratios over ``spans``."""
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    self_total: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    m: dict[str, float] = defaultdict(float)
    for s in spans:
        dur = s.end - s.start
        total[s.name] += dur
        self_total[s.name] += own[s.id]
        count[s.name] += 1
        if s.info is None:
            continue
        if s.name == "matching.add":
            m["matching.gained"] += s.info
            m["matching.zero_gain_adds"] += s.info == 0
            if s.parent is not None and spans[s.parent].name == "greedy.step":
                m["greedy.evaluations"] += 1
        elif s.name == "matching.path":
            outcome = "found" if s.info else "failed"
            m[f"matching.path_{outcome}"] += 1
            m[f"matching.path_{outcome}_s"] += dur
        elif s.name == "greedy.step":
            m["greedy.candidates"] += s.info
        elif s.name == "instance.feasibility":
            m["instance.feasibility_checks"] += s.info[0]
            m["instance.feasible_edges"] += s.info[1]
        elif s.name == "netgraph.apsp":
            m["netgraph.apsp_nodes"] += s.info
        elif s.name == "_flow.mcmf":
            m["_flow.arcs"] += s.info
        elif s.name.startswith("oracle."):
            m["oracle.explored"] += s.info
    m["matching.add_s"] = total["matching.add"]
    m["matching.add_calls"] = count["matching.add"]
    m["matching.clone_calls"] = count["matching.clone"]
    m["matching.clone_s"] = total["matching.clone"]
    m["greedy.step_s"] = total["greedy.step"]
    m["greedy.steps"] = count["greedy.step"]
    m["greedy.pruned"] = m.pop("greedy.candidates", 0) - m["greedy.evaluations"]
    m["instance.feasibility_s"] = total["instance.feasibility"]
    m["weighted.request_feasibility_s"] = total["weighted.request_feasibility"]
    m["weighted.request_feasibility_calls"] = count["weighted.request_feasibility"]
    m["weighted.preprocess_s"] = total["weighted.preprocess"]
    m["weighted.fractional_s"] = total["weighted.fractional"]
    m["weighted.fractional_calls"] = count["weighted.fractional"]
    m["weighted.greedy_self_s"] = self_total["weighted.greedy"]
    m["weighted.round_s"] = total["weighted.round"]
    m["_flow.mcmf_s"] = total["_flow.mcmf"]
    m["_flow.mcmf_calls"] = count["_flow.mcmf"]
    m["oracle.min_s"] = total["oracle.min"]
    m["oracle.max_for_n_s"] = total["oracle.max_for_n"]
    m["oracle.max_for_n_calls"] = count["oracle.max_for_n"]
    m["oracle.weighted_min_s"] = total["oracle.weighted_min"]
    m["netgraph.apsp_s"] = total["netgraph.apsp"]
    m["netgraph.apsp_calls"] = count["netgraph.apsp"]
    m["ingest.parse_graphml_s"] = total["ingest.parse_graphml"]
    m["ingest.parse_sndlib_s"] = total["ingest.parse_sndlib"]
    m["ingest.load_json_s"] = self_total["ingest.load_json"]
    m["ingest.calls"] = sum(c for name, c in count.items() if name.startswith("ingest."))
    m["cli.main_s"] = total["cli.main"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for name, t in self_total.items()
                                   if name.split(".")[0] == layer)
    searches = m["matching.path_found"] + m["matching.path_failed"]
    m["matching.path_useful_ratio"] = m["matching.path_found"] / searches if searches else 0.0
    m["greedy.evals_per_step"] = (m["greedy.evaluations"] / m["greedy.steps"]
                                  if m["greedy.steps"] else 0.0)
    checks = m["instance.feasibility_checks"]
    m["instance.feasible_ratio"] = m["instance.feasible_edges"] / checks if checks else 0.0
    return {name: m[name] for name, _, _ in METRICS}
