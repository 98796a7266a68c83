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
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .exceptions import DomainError, Infeasible, MissingEndpoint, NegativeDemand, ParseError
from .instance import Pair, PlacementInstance
from .netgraph import Network, Node, compute_apsp
from .weighted import Request, WeightedInstance

INSTANCE_FORMAT = "mbplace-instance"
INSTANCE_VERSION = 1
#: The share of an SNDlib file's demands a weighted scenario keeps by default.
KEEP_PROBABILITY = 0.5

# The keys an instance document may hold; each kind adds its demand list.
_DOC_KEYS = frozenset(("format", "version", "kind", "metric", "nodes", "edges", "candidates",
                       "capacity", "stretch", "route_limit", "provenance"))
_KIND_KEYS = {"unweighted": _DOC_KEYS | {"pairs"}, "weighted": _DOC_KEYS | {"requests"}}
_NODE_KEYS = ("id", "label", "lat", "lon")  # in the order a node entry writes them
_REQUEST_KEYS = frozenset(("kind", "nodes", "demand"))


# ---------------------------------------------------------------------------
# GraphML


def _localname(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def parse_graphml(data: str) -> Network:
    """Parse a GraphML document into a Network.

    Node ids are remapped to dense integers in document order; unknown
    attributes are ignored; the graph is treated as undirected regardless of
    the declared edgedefault. Nested graphs and ports are unsupported.
    """
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

    if not nodes:
        raise ParseError("no <node> element found")
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


def parse_sndlib(data: str):
    """Parse SNDlib native text into (Network, demands).

    Demands are (source, target, value) triples with finite positive values;
    node coordinates from the NODES section are kept as (lon, lat) = (x, y).
    """
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
                if a == b:
                    raise ParseError(f"line {lineno}: demand from node {a!r} to itself")
                close = tokens.index(")", i)
                value = float(tokens[close + 2])
                if value <= 0:
                    raise NegativeDemand(f"line {lineno}: demand value {value} must be positive")
                if not math.isfinite(value):
                    raise ParseError(f"line {lineno}: demand value {value} must be finite")
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
    """ceil(2 * (|V|-1) * p), evaluated in exact decimal arithmetic, and at
    least 1: a box holds a pair also where p is 0 or the topology has one node."""
    return max(1, math.ceil(2 * (num_nodes - 1) * Fraction(str(p))))


def stretch_grid() -> list[float]:
    """The 31-value evaluation grid 1.00, 1.05, ..., 2.50."""
    return [float(Fraction(100 + 5 * k, 100)) for k in range(31)]


def generate_unweighted_scenario(cfg: ScenarioConfig, net: Network) -> PlacementInstance:
    """Sample each of the |V|(|V|-1)/2 potential pairs with probability p.

    All nodes may host middleboxes; capacity follows the ceil-formula unless
    overridden. One uniform draw is consumed per potential pair in
    lexicographic order, so the stream is stable across parameter changes;
    the draws come in one call, which yields the same doubles as one call
    per pair.
    """
    n = net.num_nodes
    s, t = np.triu_indices(n, k=1)
    keep = scenario_rng(cfg.seed, cfg.replication).random(len(s)) < cfg.p
    pairs = [Pair(a, b) for a, b in zip(s[keep].tolist(), t[keep].tolist())]
    capacity = cfg.capacity if cfg.capacity is not None else formula_capacity(n, cfg.p)
    dist = compute_apsp(net, cfg.metric)
    return PlacementInstance(
        net=net, dist=dist, pairs=pairs, candidates=tuple(range(n)),
        capacity=capacity, stretch=cfg.stretch, metric=cfg.metric,
    )


def generate_weighted_scenario(cfg: ScenarioConfig, net: Network,
                               demands) -> WeightedInstance:
    """Keep each SNDlib demand with probability ``cfg.p`` and size capacity
    as 4 * D / |V|.

    D is the cumulative demand of the kept requests; one uniform draw is
    consumed per original demand, all in one call. ``p=1`` keeps everything.
    """
    keep = scenario_rng(cfg.seed, cfg.replication).random(len(demands)) < cfg.p
    kept = [Request.pair(*demand) for demand, k in zip(demands, keep) if k]
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
# JSON text


_compact = json.JSONEncoder(separators=(",", ":")).encode
_SCALARS = frozenset((int, float, bool, type(None)))


def dumps(obj, _depth: int = 0) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, in a fraction of its time.
    It writes instance documents (``instance_to_json``) and the ``solve`` and
    ``solve-weighted`` reports (``cli``).

    The stdlib encodes with an indent in pure Python. Here dicts and mixed
    lists recurse, but a list of scalars, or of non-empty lists of scalars,
    is encoded in one call of the C encoder and re-indented by
    ``str.replace``: its compact text holds no string, so every bracket
    and comma in it is a separator.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if not isinstance(obj, (dict, list, tuple)):
        return _scalar(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    outer = "\n" + "  " * _depth
    inner = outer + "  "
    if isinstance(obj, dict):
        items = (_key(k) + ": " + dumps(v, _depth + 1) for k, v in obj.items())
        return "{" + inner + ("," + inner).join(items) + outer + "}"
    kinds = set(map(type, obj))
    if kinds <= _SCALARS:
        return "[" + inner + _compact(obj)[1:-1].replace(",", "," + inner) + outer + "]"
    if kinds == {list} and all(obj) and set(map(type, chain.from_iterable(obj))) <= _SCALARS:
        row = inner + "  "
        body = _compact(obj)[2:-2].replace(",", "," + row)
        body = body.replace("]," + row + "[", inner + "]," + inner + "[" + row)
        return "[" + inner + "[" + row + body + inner + "]" + outer + "]"
    return "[" + inner + ("," + inner).join(dumps(v, _depth + 1) for v in obj) + outer + "]"


def _scalar(obj) -> str:
    """One value that is neither a string nor a container, as the stdlib
    writes it. Finite floats and ints are their repr, spelled here because
    starting the C encoder costs more than the number; anything the stdlib
    cannot write raises its TypeError."""
    if obj is None:
        return "null"
    if type(obj) is int or type(obj) is float and math.isfinite(obj):
        return repr(obj)
    return _compact(obj)


def _key(key) -> str:
    """A dict key as the stdlib writes it: a str, or a float, int, bool or
    None in its JSON spelling, quoted."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, (float, int)) or key is None:
        return '"' + _scalar(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


# ---------------------------------------------------------------------------
# Instance JSON v1


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
    doc["nodes"] = [{k: value for k in _NODE_KEYS if (value := getattr(node, k)) is not None}
                    for node in inst.net.nodes]
    doc["edges"] = [[u, v, w] for u, v, w in inst.net.edges]
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
    return dumps(doc) + "\n"


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
    refuse_unknown(doc, _KIND_KEYS[kind], "unknown key")
    nodes = []
    for e in doc["nodes"]:
        refuse_unknown(e, _NODE_KEYS, "unknown node entry key")
        nodes.append(Node(**e))
    net = Network(nodes, [tuple(e) for e in doc["edges"]])
    dist = compute_apsp(net, doc["metric"])
    common = dict(
        net=net, dist=dist, candidates=tuple(doc["candidates"]),
        stretch=doc.get("stretch"), route_limit=doc.get("route_limit"),
        metric=doc["metric"],
    )
    if kind == "weighted":
        requests = []
        for r in doc["requests"]:
            refuse_unknown(r, _REQUEST_KEYS, "unknown request entry key")
            requests.append(Request(r["kind"], tuple(r["nodes"]), r["demand"]))
        return WeightedInstance(requests=requests, capacity=doc["capacity"], **common)
    pairs = [Pair(s, t) for s, t in doc["pairs"]]
    return PlacementInstance(pairs=pairs, capacity=doc["capacity"], **common)


def refuse_unknown(entry: dict, known, what: str) -> None:
    """ParseError ``what "key"`` for the first key of ``entry`` not in
    ``known``: a misspelt key of an input document would go unread."""
    for key in entry.keys():
        if key not in known:
            raise ParseError(f'{what} "{key}"')


def instance_digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
