"""Dataset ingestion, scenario generation, and instance serialization.

Supported inputs: a GraphML subset (graph/node/edge/data elements; keys
named Latitude/Longitude/label/weight, case-insensitive) and the SNDlib
native plain-text format (NODES/LINKS/DEMANDS sections). Instances travel
as versioned JSON documents with a stable field order, so identical
scenario configs serialize byte-identically.

Randomness comes from a single named generator: numpy PCG64 seeded with
``SeedSequence([seed, replication])``. That scheme is part of the format
contract; regenerating with the same config reproduces the same instance.
"""

from __future__ import annotations

import hashlib
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exceptions import DomainError, Infeasible, MissingEndpoint, NegativeDemand, ParseError
from .instance import Pair, PlacementInstance
from .netgraph import Network, Node, compute_apsp
from .weighted import Request, WeightedInstance

INSTANCE_FORMAT = "mbplace-instance"
INSTANCE_VERSION = 1


# ---------------------------------------------------------------------------
# GraphML


def _localname(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def parse_graphml(data: bytes | str) -> Network:
    """Parse a GraphML document into a Network.

    Node ids are remapped to dense integers in document order; unknown
    attributes are ignored; the graph is treated as undirected regardless of
    the declared edgedefault. Nested graphs and ports are unsupported.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise ParseError(f"malformed GraphML: {exc}") from exc
    keys: dict[str, str] = {}
    for el in root.iter():
        if _localname(el.tag) == "key":
            name = (el.get("attr.name") or el.get("id") or "").lower()
            keys[el.get("id", "")] = name
    graph = next((el for el in root.iter() if _localname(el.tag) == "graph"), None)
    if graph is None:
        raise ParseError("no <graph> element found")

    def data_of(el) -> dict[str, str]:
        out = {}
        for child in el:
            if _localname(child.tag) == "data":
                name = keys.get(child.get("key", ""), child.get("key", "")).lower()
                out[name] = (child.text or "").strip()
        return out

    nodes: list[Node] = []
    index: dict[str, int] = {}
    for el in graph:
        if _localname(el.tag) != "node":
            continue
        raw_id = el.get("id")
        if raw_id is None:
            raise ParseError("node element without id")
        if raw_id in index:
            raise ParseError(f"duplicate node id {raw_id!r}")
        attrs = data_of(el)
        lat = lon = None
        try:
            if "latitude" in attrs:
                lat = float(attrs["latitude"])
            if "longitude" in attrs:
                lon = float(attrs["longitude"])
        except ValueError as exc:
            raise ParseError(f"node {raw_id!r}: bad coordinate: {exc}") from exc
        index[raw_id] = len(nodes)
        nodes.append(Node(len(nodes), attrs.get("label") or raw_id, lat, lon))

    edges: list[tuple[int, int, float]] = []
    for el in graph:
        if _localname(el.tag) != "edge":
            continue
        src, dst = el.get("source"), el.get("target")
        if src not in index or dst not in index:
            raise MissingEndpoint(f"edge ({src!r}, {dst!r}) references unknown node")
        attrs = data_of(el)
        weight = 1.0
        if "weight" in attrs:
            try:
                weight = float(attrs["weight"])
            except ValueError as exc:
                raise ParseError(f"edge ({src!r}, {dst!r}): bad weight: {exc}") from exc
        edges.append((index[src], index[dst], weight))
    return Network(nodes, edges)


# ---------------------------------------------------------------------------
# SNDlib native format


def parse_sndlib(data: bytes | str):
    """Parse SNDlib native text into (Network, demands).

    Demands are (source, target, value) triples with positive values;
    node coordinates from the NODES section are kept as (lon, lat) = (x, y).
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    section = None
    nodes: list[Node] = []
    index: dict[str, int] = {}
    edges: list[tuple[int, int, float]] = []
    demands: list[tuple[int, int, float]] = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("?"):
            continue
        upper = line.split()[0].upper()
        if upper in ("NODES", "LINKS", "DEMANDS", "META", "ADMISSIBLEPATHS"):
            section = upper
            continue
        if line == ")":
            section = None
            continue
        tokens = line.replace("(", " ( ").replace(")", " ) ").split()
        try:
            if section == "NODES":
                name = tokens[0]
                if name in index:
                    raise ParseError(f"line {lineno}: duplicate node {name!r}")
                lon = lat = None
                if "(" in tokens:
                    i = tokens.index("(")
                    lon, lat = float(tokens[i + 1]), float(tokens[i + 2])
                index[name] = len(nodes)
                nodes.append(Node(len(nodes), name, lat, lon))
            elif section == "LINKS":
                i = tokens.index("(")
                a, b = tokens[i + 1], tokens[i + 2]
                if a not in index or b not in index:
                    raise MissingEndpoint(
                        f"line {lineno}: link references unknown node ({a!r}, {b!r})"
                    )
                edges.append((index[a], index[b], 1.0))
            elif section == "DEMANDS":
                i = tokens.index("(")
                a, b = tokens[i + 1], tokens[i + 2]
                if a not in index or b not in index:
                    raise ParseError(
                        f"line {lineno}: demand references unknown node ({a!r}, {b!r})"
                    )
                close = tokens.index(")", i)
                value = float(tokens[close + 2])
                if value <= 0:
                    raise NegativeDemand(f"line {lineno}: demand value {value} must be positive")
                demands.append((index[a], index[b], value))
        except (ValueError, IndexError) as exc:
            raise ParseError(f"line {lineno}: cannot parse {line!r}: {exc}") from exc
    if not nodes:
        raise ParseError("no NODES section found")
    return Network(nodes, edges), demands


# ---------------------------------------------------------------------------
# Scenario generation


@dataclass(frozen=True)
class ScenarioConfig:
    """Reproducible scenario recipe; identical configs yield identical instances."""

    topology: str
    p: float = 0.3
    stretch: float = 1.5
    capacity: int | None = None  # None -> ceil(2 * (|V|-1) * p)
    seed: int = 0
    replication: int = 0
    metric: str = "geo"


def scenario_rng(seed: int, replication: int) -> np.random.Generator:
    """The package-wide PRNG scheme: PCG64(SeedSequence([seed, replication]))."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, replication])))


def formula_capacity(num_nodes: int, p: float) -> int:
    """ceil(2 * (|V|-1) * p), evaluated in exact decimal arithmetic."""
    exact = 2 * (num_nodes - 1) * Fraction(str(p))
    return int(math.ceil(exact))


def stretch_grid() -> list[float]:
    """The 31-value evaluation grid 1.00, 1.05, ..., 2.50."""
    return [float(Fraction(100 + 5 * k, 100)) for k in range(31)]


def generate_unweighted_scenario(cfg: ScenarioConfig, net: Network) -> PlacementInstance:
    """Sample each of the |V|(|V|-1)/2 potential pairs with probability p.

    All nodes may host middleboxes; capacity follows the ceil-formula unless
    overridden. One uniform draw is consumed per potential pair in
    lexicographic order, so the stream is stable across parameter changes.
    """
    rng = scenario_rng(cfg.seed, cfg.replication)
    n = net.num_nodes
    pairs = []
    for s in range(n):
        for t in range(s + 1, n):
            if rng.random() < cfg.p:
                pairs.append(Pair(s, t))
    capacity = cfg.capacity if cfg.capacity is not None else formula_capacity(n, cfg.p)
    dist = compute_apsp(net, cfg.metric)
    return PlacementInstance(
        net=net, dist=dist, pairs=pairs, candidates=tuple(range(n)),
        capacity=capacity, stretch=cfg.stretch, metric=cfg.metric,
    )


def generate_weighted_scenario(cfg: ScenarioConfig, net: Network, demands,
                               keep_probability: float = 0.5) -> WeightedInstance:
    """Subsample SNDlib demands and size capacity as 4 * D / |V|.

    D is the cumulative demand of the kept requests; one uniform draw is
    consumed per original demand. ``keep_probability=1`` keeps everything.
    """
    rng = scenario_rng(cfg.seed, cfg.replication)
    kept: list[Request] = []
    for s, t, value in demands:
        if rng.random() < keep_probability:
            kept.append(Request.pair(s, t, value))
    total = sum(r.demand for r in kept)
    if total <= 0:
        raise Infeasible("subsample kept no demand; cannot size capacity")
    capacity = 4.0 * total / net.num_nodes
    dist = compute_apsp(net, cfg.metric)
    return WeightedInstance(
        net=net, dist=dist, requests=kept, candidates=tuple(range(net.num_nodes)),
        capacity=capacity, stretch=cfg.stretch, metric=cfg.metric,
    )


# ---------------------------------------------------------------------------
# Instance JSON v1


def _network_obj(net: Network) -> dict:
    nodes = []
    for nd in net.nodes:
        entry: dict = {"id": nd.id}
        if nd.label is not None:
            entry["label"] = nd.label
        if nd.lat is not None:
            entry["lat"] = nd.lat
        if nd.lon is not None:
            entry["lon"] = nd.lon
        nodes.append(entry)
    return {"nodes": nodes, "edges": [[u, v, w] for u, v, w in net.edges]}


def _network_from_obj(obj: dict) -> Network:
    nodes = [
        Node(e["id"], e.get("label"), e.get("lat"), e.get("lon"))
        for e in obj["nodes"]
    ]
    return Network(nodes, [tuple(e) for e in obj["edges"]])


def instance_to_json(inst: PlacementInstance | WeightedInstance,
                     provenance: dict | None = None) -> str:
    """Canonical JSON text (stable field order, trailing newline)."""
    weighted = isinstance(inst, WeightedInstance)
    doc = {
        "format": INSTANCE_FORMAT,
        "version": INSTANCE_VERSION,
        "kind": "weighted" if weighted else "unweighted",
        "metric": inst.metric,
    }
    doc.update(_network_obj(inst.net))
    doc["candidates"] = list(inst.candidates)
    doc["capacity"] = inst.capacity
    doc["stretch"] = inst.stretch
    doc["route_limit"] = inst.route_limit
    if weighted:
        doc["requests"] = [
            {"kind": r.kind, "nodes": list(r.nodes), "demand": r.demand}
            for r in inst.requests
        ]
    else:
        doc["pairs"] = [[p.s, p.t] for p in inst.pairs]
    if provenance:
        doc["provenance"] = provenance
    return json.dumps(doc, indent=2) + "\n"


def instance_from_json(text: str) -> PlacementInstance | WeightedInstance:
    """Load an instance document; distances are recomputed from the stored
    metric, so the document alone reproduces the full instance.

    A value outside its domain raises DomainError; any other malformed or
    missing field raises ParseError.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed instance JSON: {exc}") from exc
    try:
        return _instance_from_doc(doc)
    except DomainError:
        raise
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"invalid instance document: {type(exc).__name__}: {exc}") from exc


def _instance_from_doc(doc) -> PlacementInstance | WeightedInstance:
    if doc.get("format") != INSTANCE_FORMAT:
        raise ParseError(f"not an instance document (format={doc.get('format')!r})")
    if doc.get("version") != INSTANCE_VERSION:
        raise ParseError(f"unsupported instance version {doc.get('version')!r}")
    kind = doc.get("kind")
    if kind not in ("unweighted", "weighted"):
        raise ParseError(f"unknown instance kind {kind!r}, expected 'unweighted' or 'weighted'")
    net = _network_from_obj(doc)
    dist = compute_apsp(net, doc["metric"])
    common = dict(
        net=net, dist=dist, candidates=tuple(doc["candidates"]),
        stretch=doc.get("stretch"), route_limit=doc.get("route_limit"),
        metric=doc["metric"],
    )
    if kind == "weighted":
        requests = [
            Request(r["kind"], tuple(r["nodes"]), r["demand"]) for r in doc["requests"]
        ]
        return WeightedInstance(requests=requests, capacity=doc["capacity"], **common)
    pairs = [Pair(s, t) for s, t in doc["pairs"]]
    return PlacementInstance(pairs=pairs, capacity=doc["capacity"], **common)


def instance_digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
