"""Solver-independent checks of mbplace outputs, and output digests.

Distances come from this module's own haversine edge lengths and a numpy
Floyd-Warshall pass, never from mbplace's Dijkstra. Stretch comparisons use
the solver's relative tolerance of 1e-9, so a box on a shortest path passes
whichever summation order produced the distances.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_KM = 6371.0
REL_TOL = 1e-9

INCREMENTAL_HEADER = ["n", "phi_greedy", "phi_opt", "relative_difference"]


class Invalid(Exception):
    """An output that breaks a constraint of its instance."""


@dataclass(frozen=True)
class Outcome:
    """What a valid output served: pairs or kept requests, boxes, oracle ratio."""

    served: int
    middleboxes: int | None = None
    approx_ratio: float | None = None


def haversine(lat1, lon1, lat2, lon2):
    """Great-circle distance in km between (lat, lon) points given in degrees."""
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(a, dtype=float))
                              for a in (lat1, lon1, lat2, lon2))
    h = (np.sin((lat2 - lat1) / 2.0) ** 2
         + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def geo_apsp(lat, lon, edges) -> np.ndarray:
    """All-pairs great-circle shortest paths by Floyd-Warshall."""
    n = len(lat)
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    if edges:
        u, v = np.array(edges, dtype=int)[:, :2].T
        w = haversine(np.take(lat, u), np.take(lon, u), np.take(lat, v), np.take(lon, v))
        np.minimum.at(d, (u, v), w)
        np.minimum.at(d, (v, u), w)
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


def doc_distances(doc: dict) -> np.ndarray:
    """Distances for an Instance JSON v1 document with the geo metric."""
    if doc["metric"] != "geo":
        raise Invalid(f"unexpected metric {doc['metric']!r}")
    lat = [nd["lat"] for nd in doc["nodes"]]
    lon = [nd["lon"] for nd in doc["nodes"]]
    return geo_apsp(lat, lon, doc["edges"])


def _leq(lhs, rhs) -> np.ndarray:
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    return (lhs <= rhs) | (np.abs(lhs - rhs) <= REL_TOL * np.maximum(np.abs(lhs), np.abs(rhs)))


def _require(cond, message: str) -> None:
    if not cond:
        raise Invalid(message)


def _check_boxes(report: dict, candidates) -> list[int]:
    boxes = report["middleboxes"]
    _require(report["middlebox_count"] == len(boxes),
             f"middlebox_count {report['middlebox_count']} != {len(boxes)} listed")
    _require(len(set(boxes)) == len(boxes), "a middlebox is listed twice")
    _require(set(boxes) <= set(candidates), "a middlebox is not a candidate")
    return boxes


def check_solve(report: dict, doc: dict, dist: np.ndarray, *, oracle: bool) -> Outcome:
    """Unweighted report: every pair served once, within stretch and capacity."""
    pairs = {(min(s, t), max(s, t)) for s, t in doc["pairs"]}
    boxes = _check_boxes(report, doc["candidates"])
    _require(report["pairs"] == len(pairs), "pair count differs from the instance")
    rows = report["assignment"]
    served = [(min(s, t), max(s, t)) for s, t, _ in rows]
    _require(len(set(served)) == len(served), "a pair is assigned twice")
    _require(set(served) == pairs, f"{len(pairs - set(served))} pair(s) not served")
    _require(report["assigned_pairs"] == len(pairs), "assigned_pairs differs from the pair count")
    s, t, m = np.array(rows, dtype=int).reshape(-1, 3).T
    _require(set(m.tolist()) <= set(boxes), "a pair is assigned to an unopened box")
    ok = _leq(dist[s, m] + dist[m, t], doc["stretch"] * dist[s, t])
    _require(ok.all(), f"{int((~ok).sum())} pair(s) exceed the stretch bound at their box")
    if len(m):
        _require(np.bincount(m).max() <= doc["capacity"], "a box is loaded beyond capacity")
    ratio = None
    if oracle:
        opt = report["oracle_optimum"]
        _require(isinstance(opt, int) and 0 < opt <= len(boxes),
                 f"oracle optimum {opt!r} is not in 1..{len(boxes)}")
        ratio = len(boxes) / opt
    return Outcome(len(pairs), len(boxes), ratio)


def check_weighted(report: dict, doc: dict, dist: np.ndarray) -> Outcome:
    """Weighted report: kept requests served within stretch and 2 x capacity."""
    requests = doc["requests"]
    kappa = doc["capacity"]
    kept, rejected = report["kept"], report["rejected"]
    _require(report["requests"] == len(requests), "request count differs from the instance")
    _require(sorted(kept + rejected) == list(range(len(requests))),
             "kept and rejected do not partition the requests")
    _require(all(requests[j]["demand"] <= kappa for j in kept), "a kept request exceeds capacity")
    _require(all(requests[j]["demand"] > kappa for j in rejected),
             "a rejected request fits the capacity")
    boxes = _check_boxes(report, doc["candidates"])
    assignment = dict(report["assignment"])
    _require(len(assignment) == len(report["assignment"]), "a request is assigned twice")
    _require(set(assignment) == set(kept), "a kept request is not served")
    _require(set(assignment.values()) <= set(boxes), "a request is assigned to an unopened box")
    load: dict[int, float] = {}
    for j, u in assignment.items():
        nodes = requests[j]["nodes"]
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                _require(_leq(dist[a, u] + dist[u, b], doc["stretch"] * dist[a, b]),
                         f"request {j} exceeds the stretch bound at box {u}")
        load[u] = load.get(u, 0.0) + requests[j]["demand"]
    worst = max(load.values(), default=0.0)
    _require(_leq(worst, 2.0 * kappa), f"box load {worst} exceeds 2 x capacity {kappa}")
    return Outcome(len(kept), len(boxes))


def check_incremental(text: str, num_pairs: int, capacity: int) -> Outcome:
    """Served-pairs series: greedy grows every step, never beats the optimum,
    and ends with every pair served."""
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows and rows[0] == INCREMENTAL_HEADER, "bad incremental header")
    _require(rows[1:2] == [["0", "0", "0", "0.0"]], "bad n = 0 row")
    prev_g = 0
    for k, (n, g, opt, rel) in enumerate(rows[2:], start=1):
        n, g, opt, rel = int(n), int(g), int(opt), float(rel)
        _require(n == k, f"step {n} out of order")
        _require(prev_g < g <= opt <= min(num_pairs, n * capacity),
                 f"step {n}: greedy {g} / optimum {opt} out of range")
        _require(math.isclose(rel, (opt - g) / opt, rel_tol=REL_TOL, abs_tol=1e-12),
                 f"step {n}: relative difference {rel} is wrong")
        prev_g = g
    _require(prev_g == num_pairs, f"series ends at {prev_g} of {num_pairs} pairs")
    return Outcome(num_pairs, len(rows) - 2)


def check_gen(doc: dict, spec: dict, stretch: float) -> Outcome:
    """Weighted instance generated from an SNDlib file with every demand kept."""
    _require(doc["kind"] == "weighted" and doc["metric"] == "geo", "wrong instance kind")
    n = len(spec["lat"])
    _require([(nd["lat"], nd["lon"]) for nd in doc["nodes"]]
             == list(zip(spec["lat"], spec["lon"])), "node coordinates differ")
    _require(sorted(map(tuple, (e[:2] for e in doc["edges"])))
             == sorted((min(u, v), max(u, v)) for u, v in spec["edges"]), "links differ")
    want = [([min(s, t), max(s, t)], v) for s, t, v in spec["demands"]]
    got = [(r["nodes"], r["demand"]) for r in doc["requests"]]
    _require(got == want, "requests differ from the SNDlib demands")
    _require(math.isclose(doc["capacity"], 4.0 * sum(v for _, v in want) / n, rel_tol=REL_TOL),
             "capacity is not 4 D / |V|")
    _require(doc["candidates"] == list(range(n)) and doc["stretch"] == stretch,
             "candidates or stretch differ")
    return Outcome(0)


def digest(text: str, kind: str) -> str:
    """sha256 of an output with its run-dependent fields removed: a report's
    ``wall_time_s`` and a generated instance's source path."""
    if kind in ("solve", "solve-weighted", "gen"):
        obj = json.loads(text)
        obj.pop("wall_time_s", None)
        obj.get("provenance", {}).pop("source", None)
        text = json.dumps(obj, indent=2)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
