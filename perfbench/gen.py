"""Seeded instance generators for the benchmark workloads.

Everything mbplace reads in a run is written here: Instance JSON v1 files,
GraphML topologies and SNDlib native files. Every draw comes from
``numpy.random.default_rng([seed, *stream])``, so a seed and a stream name
give byte-identical files on every machine.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from validate import geo_apsp

# Continental box (degrees) that node coordinates are drawn from.
LAT_RANGE = (25.0, 49.0)
LON_RANGE = (-124.0, -67.0)
MEAN_DEGREE = 3.0


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def geo_topology(rng: np.random.Generator, n: int) -> dict:
    """Random geographic graph: a random tree, then short extra links up to
    mean degree 3. Returns node coordinates and the undirected edge list."""
    lat = np.round(rng.uniform(*LAT_RANGE, n), 4)
    lon = np.round(rng.uniform(*LON_RANGE, n), 4)
    planar = np.hypot(lat[:, None] - lat[None, :],
                      (lon[:, None] - lon[None, :]) * math.cos(math.radians(37.0)))
    order = rng.permutation(n)
    edges: set[tuple[int, int]] = set()
    for i in range(1, n):
        u = int(order[i])
        placed = order[:i]
        near = placed[np.argsort(planar[u, placed], kind="stable")[:3]]
        v = int(near[rng.integers(len(near))])
        edges.add((min(u, v), max(u, v)))
    target = round(MEAN_DEGREE * n / 2)
    while len(edges) < target:
        u = int(rng.integers(n))
        others = [int(v) for v in np.argsort(planar[u], kind="stable")[1:]
                  if (min(u, v), max(u, v)) not in edges][:4]
        v = others[rng.integers(len(others))]
        edges.add((min(u, v), max(u, v)))
    return {"lat": lat.tolist(), "lon": lon.tolist(), "edges": sorted(edges)}


def formula_capacity(n: int, p: float) -> int:
    """ceil(2 * (|V| - 1) * p) in exact decimal arithmetic."""
    return math.ceil(2 * (n - 1) * Fraction(str(p)))


def _doc(topo: dict, kind: str, capacity, stretch: float) -> dict:
    n = len(topo["lat"])
    return {
        "format": "mbplace-instance",
        "version": 1,
        "kind": kind,
        "metric": "geo",
        "nodes": [{"id": i, "label": f"n{i}", "lat": topo["lat"][i], "lon": topo["lon"][i]}
                  for i in range(n)],
        "edges": [[u, v, 1.0] for u, v in topo["edges"]],
        "candidates": list(range(n)),
        "capacity": capacity,
        "stretch": stretch,
        "route_limit": None,
    }


def sample_pairs(rng: np.random.Generator, n: int, p: float) -> list[list[int]]:
    """Each of the n(n-1)/2 node pairs, kept with probability p."""
    s, t = np.triu_indices(n, k=1)
    keep = rng.random(len(s)) < p
    return [[int(a), int(b)] for a, b in zip(s[keep], t[keep])]


def unweighted_doc(topo: dict, pairs, p: float, stretch: float) -> dict:
    """Unweighted Instance JSON v1: every node a candidate, ceil-formula capacity."""
    doc = _doc(topo, "unweighted", formula_capacity(len(topo["lat"]), p), stretch)
    doc["pairs"] = pairs
    return doc


def _group_has_box(dist: np.ndarray, nodes, stretch: float) -> bool:
    ok = np.ones(len(dist), dtype=bool)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            ok &= dist[a] + dist[b] <= stretch * dist[a, b]
    return bool(ok.any())


def draw_demand(rng: np.random.Generator) -> float:
    """One two-decimal demand from a lognormal law, as SNDlib demands spread."""
    return round(float(rng.lognormal(3.0, 0.8)), 2) or 0.01


def weighted_doc(topo: dict, rng: np.random.Generator, stretch: float,
                 group_share: float = 0.1) -> dict:
    """SNDlib-shaped weighted instance: about 1.5 n distinct node-pair draws
    with two-decimal demands, a share of which become 3-node groups when
    some location serves every member pair; capacity 4 D / |V|."""
    n = len(topo["lat"])
    dist = geo_apsp(topo["lat"], topo["lon"], topo["edges"])
    s, t = np.triu_indices(n, k=1)
    picks = rng.choice(len(s), size=round(1.5 * n), replace=False)
    requests = []
    for k in picks:
        nodes = [int(s[k]), int(t[k])]
        demand = draw_demand(rng)
        if rng.random() < group_share:
            third = int(rng.choice([v for v in range(n) if v not in nodes]))
            group = sorted(nodes + [third])
            if _group_has_box(dist, group, stretch):
                requests.append({"kind": "group", "nodes": group, "demand": demand})
                continue
        requests.append({"kind": "pair", "nodes": nodes, "demand": demand})
    return weighted_from_requests(topo, requests, stretch)


def weighted_from_requests(topo: dict, requests: list[dict], stretch: float) -> dict:
    """Weighted Instance JSON v1 with capacity 4 D / |V| over the total demand D."""
    total = sum(r["demand"] for r in requests)
    doc = _doc(topo, "weighted", 4.0 * total / len(topo["lat"]), stretch)
    doc["requests"] = requests
    return doc


def sndlib_spec(topo: dict, rng: np.random.Generator, num_demands: int) -> dict:
    """SNDlib network on ``topo`` with ``num_demands`` lognormal demands. A
    demand above the capacity 4 D / |V| is neither injected nor filtered."""
    n = len(topo["lat"])
    s, t = np.triu_indices(n, k=1)
    picks = rng.choice(len(s), size=num_demands, replace=False)
    demands = [(int(s[k]), int(t[k]), draw_demand(rng)) for k in picks]
    return {**topo, "demands": demands}


def write_json(path, doc: dict) -> None:
    path.write_text(json.dumps(doc) + "\n")


def write_graphml(path, topo: dict) -> None:
    lines = [
        "<?xml version='1.0' encoding='utf-8'?>",
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key attr.name="label" attr.type="string" for="node" id="d0" />',
        '  <key attr.name="Latitude" attr.type="double" for="node" id="d1" />',
        '  <key attr.name="Longitude" attr.type="double" for="node" id="d2" />',
        '  <graph edgedefault="undirected">',
    ]
    for i, (lat, lon) in enumerate(zip(topo["lat"], topo["lon"])):
        lines.append(f'    <node id="n{i}"><data key="d0">N{i}</data>'
                     f'<data key="d1">{lat!r}</data><data key="d2">{lon!r}</data></node>')
    for u, v in topo["edges"]:
        lines.append(f'    <edge source="n{u}" target="n{v}" />')
    lines += ["  </graph>", "</graphml>", ""]
    path.write_text("\n".join(lines))


def write_sndlib(path, spec: dict) -> None:
    lines = ["?SNDlib native format; type: network; version: 1.0", "", "NODES ("]
    lines += [f"  N{i} ( {lon!r} {lat!r} )"
              for i, (lat, lon) in enumerate(zip(spec["lat"], spec["lon"]))]
    lines += [")", "", "LINKS ("]
    lines += [f"  L{k} ( N{u} N{v} ) 0.00 0.00 0.00 0.00 ( 40.00 1.00 )"
              for k, (u, v) in enumerate(spec["edges"])]
    lines += [")", "", "DEMANDS ("]
    lines += [f"  D{k} ( N{a} N{b} ) 1 {value:.2f} UNLIMITED"
              for k, (a, b, value) in enumerate(spec["demands"])]
    lines += [")", ""]
    path.write_text("\n".join(lines))
