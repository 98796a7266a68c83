"""The benchmark's workloads: each turns a seed into a list of CLI calls.

Topologies come from a fixed synthetic library, as the paper's evaluation
uses a fixed set of real topologies; the workload seed draws what the paper
draws at random: the communicating pairs, the weighted requests and their
demands. mbplace receives only the files written here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import validate

TOPOLOGY_SEED = 1706_06496
P = 0.3
GREEDY_STRETCHES = (1.2, 1.5, 2.0)
WEIGHTED_STRETCH = 1.3


@dataclass
class Call:
    """One CLI call: ``check`` validates the text the call wrote to ``out``."""

    label: str
    argv: list[str]
    out: Path
    kind: str
    check: Callable[[str], validate.Outcome]


class Instance:
    """An instance document with lazily computed solver-independent distances."""

    def __init__(self, doc: dict):
        self.doc = doc

    @cached_property
    def dist(self) -> np.ndarray:
        return validate.doc_distances(self.doc)


def _library(stream: int, sizes) -> list[dict]:
    """Fixed topologies, one per size: they do not depend on the workload seed."""
    return [gen.geo_topology(gen.rng_for(TOPOLOGY_SEED, stream, i), n)
            for i, n in enumerate(sizes)]


def _solve_call(label, inst: Instance, path: Path, workdir: Path, extra=(), oracle=False):
    out = workdir / f"{label}.report.json"
    return Call(label, ["solve", str(path), *extra, "--out", str(out)], out, "solve",
                lambda text: validate.check_solve(json.loads(text), inst.doc, inst.dist,
                                                  oracle=oracle))


def _weighted_call(label, inst: Instance, path: Path, workdir: Path, extra=()):
    out = workdir / f"{label}.report.json"
    return Call(label, ["solve-weighted", str(path), *extra, "--out", str(out)], out,
                "solve-weighted",
                lambda text: validate.check_weighted(json.loads(text), inst.doc, inst.dist))


GREEDY_SIZES = (44, 48, 52, 56, 46, 50, 54)
GREEDY_INSTANCES = 84


def greedy_geo(seed: int, workdir: Path) -> list[Call]:
    """``solve`` on unweighted instances; each library topology meets every stretch."""
    library = _library(1, GREEDY_SIZES)
    calls = []
    for j in range(GREEDY_INSTANCES):
        stretch = GREEDY_STRETCHES[j % len(GREEDY_STRETCHES)]
        topo = library[j % len(library)]
        pairs = gen.sample_pairs(gen.rng_for(seed, j), len(topo["lat"]), P)
        inst = Instance(gen.unweighted_doc(topo, pairs, P, stretch))
        path = workdir / f"g{j:02d}.json"
        gen.write_json(path, inst.doc)
        calls.append(_solve_call(f"g{j:02d}", inst, path, workdir))
    return calls


WEIGHTED_SIZES = (8, 9, 10, 8, 9, 10, 9)
WEIGHTED_INSTANCES = 112


def weighted_sndlib(seed: int, workdir: Path) -> list[Call]:
    """``solve-weighted`` on SNDlib-shaped weighted instances."""
    library = _library(2, WEIGHTED_SIZES)
    calls = []
    for j in range(WEIGHTED_INSTANCES):
        inst = Instance(gen.weighted_doc(library[j % len(library)], gen.rng_for(seed, j),
                                         WEIGHTED_STRETCH))
        path = workdir / f"w{j:02d}.json"
        gen.write_json(path, inst.doc)
        calls.append(_weighted_call(f"w{j:02d}", inst, path, workdir))
    return calls


def mbplace_pairs(n: int, p: float, seed: int) -> list[list[int]]:
    """The pairs mbplace samples from a GraphML topology, by its documented
    scheme: PCG64(SeedSequence([seed, replication=0])), one uniform draw per
    potential pair in lexicographic order."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0])))
    return gen.sample_pairs(rng, n, p)


DESK_UNWEIGHTED_SIZES = (10, 11, 12, 13, 14, 11, 12, 13)
DESK_WEIGHTED_SIZES = (6, 7, 8, 9, 7, 8, 9, 6)
DESK_SCENARIOS = 48


def desk_cli(seed: int, workdir: Path) -> list[Call]:
    """Four small calls per scenario: ``solve`` on GraphML and ``incremental``
    on JSON, both with the exact oracle, then ``gen --sndlib`` and
    ``solve-weighted --oracle`` on its output."""
    unweighted = _library(3, DESK_UNWEIGHTED_SIZES)
    weighted = _library(4, DESK_WEIGHTED_SIZES)
    calls = []
    for i in range(DESK_SCENARIOS):
        rng = gen.rng_for(seed, i)
        stretch = GREEDY_STRETCHES[i % len(GREEDY_STRETCHES)]

        topo = unweighted[i % len(unweighted)]
        n = len(topo["lat"])
        mb_seed = int(rng.integers(2**31))
        doc = gen.unweighted_doc(topo, mbplace_pairs(n, P, mb_seed), P, stretch)
        graphml = workdir / f"d{i:02d}.graphml"
        gen.write_graphml(graphml, topo)
        calls.append(_solve_call(
            f"d{i:02d}.solve", Instance(doc), graphml, workdir, oracle=True,
            extra=["--oracle", "--p", str(P), "--stretch", str(stretch), "--seed", str(mb_seed)]))

        topo = unweighted[(i + 3) % len(unweighted)]
        doc = gen.unweighted_doc(topo, gen.sample_pairs(rng, len(topo["lat"]), P), P, stretch)
        path = workdir / f"d{i:02d}.json"
        gen.write_json(path, doc)
        out = workdir / f"d{i:02d}.incremental.csv"
        calls.append(Call(f"d{i:02d}.incremental", ["incremental", str(path), "--oracle",
                                                     "--out", str(out)], out, "incremental",
                          lambda text, m=len(doc["pairs"]), k=doc["capacity"]:
                          validate.check_incremental(text, m, k)))

        topo = weighted[i % len(weighted)]
        spec = gen.sndlib_spec(topo, rng, int(rng.integers(5, 10)))
        sndlib = workdir / f"d{i:02d}.sndlib.txt"
        gen.write_sndlib(sndlib, spec)
        winst = workdir / f"d{i:02d}.weighted.json"
        calls.append(Call(f"d{i:02d}.gen", ["gen", "--sndlib", str(sndlib), "--keep-prob", "1.0",
                                             "--stretch", str(WEIGHTED_STRETCH), "--seed", "0",
                                             "--out", str(winst)], winst, "gen",
                          lambda text, spec=spec: validate.check_gen(json.loads(text), spec,
                                                                     WEIGHTED_STRETCH)))
        requests = [{"kind": "pair", "nodes": [a, b], "demand": v} for a, b, v in spec["demands"]]
        wdoc = gen.weighted_from_requests(topo, requests, WEIGHTED_STRETCH)
        calls.append(_weighted_call(f"d{i:02d}.weighted", Instance(wdoc), winst, workdir,
                                    extra=["--oracle"]))
    return calls


WORKLOADS: dict[str, Callable[[int, Path], list[Call]]] = {
    "greedy_geo": greedy_geo,
    "weighted_sndlib": weighted_sndlib,
    "desk_cli": desk_cli,
}
