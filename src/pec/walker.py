"""Biased second-order random walks over a space relation graph.

The next step of a walk depends on the current node AND the previous one:
a candidate x gets the bias factor 1/p when x is the previous node, 1 when
x is adjacent to the previous node, and 1/q otherwise; the factor
multiplies the edge weight and the result is normalized.  Low q pushes the
walk outward (depth-first flavour), low p pulls it back (breadth-first
flavour); p = q = 1 leaves the walk driven by the weights alone.

Transitions are sampled in O(1) from precomputed alias tables.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .util import field_parser

__all__ = [
    "AliasTable",
    "WalkConfig",
    "WalkCorpus",
    "WalkSampler",
    "transition_distribution",
    "build_alias_tables",
    "generate_walks",
    "save_corpus",
    "load_corpus",
]


class AliasTable:
    """Constant-time sampler for a fixed discrete distribution (Vose setup)."""

    __slots__ = ("accept", "alias", "size")

    def __init__(self, probs) -> None:
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("need a non-empty 1-D probability vector")
        if np.any(probs < 0) or not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite and nonnegative")
        total = probs.sum()
        if total <= 0:
            raise ValueError("probabilities must not all be zero")
        k = probs.size
        scaled = (probs * (k / total)).tolist()
        accept = [0.0] * k
        alias = [0] * k
        small, large = [], []
        for i, s in enumerate(scaled):
            (small if s < 1.0 else large).append(i)
        while small and large:
            lo = small.pop()
            hi = large.pop()
            accept[lo] = scaled[lo]
            alias[lo] = hi
            scaled[hi] -= 1.0 - scaled[lo]
            (small if scaled[hi] < 1.0 else large).append(hi)
        for rest in (large, small):  # leftovers are numerically 1.0
            for i in rest:
                accept[i] = 1.0
                alias[i] = i
        self.size = k
        self.accept = np.array(accept)
        self.alias = np.array(alias, dtype=np.int64)

    def draw(self, rng: np.random.Generator) -> int:
        cell = min(int(rng.random() * self.size), self.size - 1)
        if rng.random() < self.accept[cell]:
            return cell
        return int(self.alias[cell])

    def draw_many(self, rng: np.random.Generator, shape) -> np.ndarray:
        cells = rng.integers(0, self.size, size=shape)
        keep = rng.random(shape) < self.accept[cells]
        return np.where(keep, cells, self.alias[cells])

    def probabilities(self) -> np.ndarray:
        """Exact per-outcome probability encoded by the table."""
        probs = self.accept / self.size
        np.add.at(probs, self.alias, (1.0 - self.accept) / self.size)
        return probs


@dataclass(frozen=True)
class WalkConfig:
    """Walk hyperparameters: return bias p, in-out bias q, walk length,
    walks per node, and the RNG seed."""

    p: float = 1.0
    q: float = 1.0
    walk_length: int = 10
    num_walks: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.p > 0 and self.q > 0):
            raise ValueError("p and q must be positive")
        if self.walk_length < 2:
            raise ValueError("walk_length must be at least 2")
        if self.num_walks < 1:
            raise ValueError("num_walks must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class WalkCorpus:
    """Sampled walks plus the provenance needed to reproduce them."""

    walks: tuple[tuple[str, ...], ...]
    node_ids: tuple[str, ...]
    config: WalkConfig
    graph_fingerprint: str
    isolated_nodes: tuple[str, ...] = ()

    @property
    def provenance(self) -> tuple[str, WalkConfig]:
        return (self.graph_fingerprint, self.config)


def transition_distribution(g, prev: str, cur: str, p: float, q: float) -> dict[str, float]:
    """Analytic next-step distribution from state (prev, cur)."""
    if not (p > 0 and q > 0):
        raise ValueError("p and q must be positive")
    if not g.has_edge(prev, cur):
        raise ValueError(f"({prev!r}, {cur!r}) is not an edge")
    ci = g.index(cur)
    pi = g.index(prev)
    nbrs = g.neighbor_indices(ci)
    if nbrs.size == 0:
        raise ValueError(f"node {cur!r} has no neighbors")
    prev_adj = g.adjacency(pi)
    weights = g.neighbor_weights(ci)
    factors = np.empty(nbrs.size)
    for k, x in enumerate(nbrs):
        if x == pi:
            factors[k] = 1.0 / p
        elif int(x) in prev_adj:
            factors[k] = 1.0
        else:
            factors[k] = 1.0 / q
    unnorm = factors * weights
    probs = unnorm / unnorm.sum()
    return {g.node_ids[int(x)]: float(pr) for x, pr in zip(nbrs, probs)}


class WalkSampler:
    """Precomputed alias tables for one graph and one (p, q) setting.

    ``first_step[i]`` samples the first move out of node i proportionally
    to edge weights (there is no previous node yet); ``step[(prev, cur)]``
    samples the biased second-order transition.
    """

    def __init__(self, g, p: float, q: float):
        if not (p > 0 and q > 0):
            raise ValueError("p and q must be positive")
        self.p = float(p)
        self.q = float(q)
        self.graph = g
        n = g.num_nodes
        self.first_step: list[AliasTable | None] = [None] * n
        self.step: dict[tuple[int, int], AliasTable] = {}
        inv_p, inv_q = 1.0 / self.p, 1.0 / self.q
        mark = np.zeros(n, dtype=bool)
        for i in range(n):
            wts = g.neighbor_weights(i)
            if wts.size:
                self.first_step[i] = AliasTable(wts / wts.sum())
        for prev in range(n):
            prev_nbrs = g.neighbor_indices(prev)
            if prev_nbrs.size == 0:
                continue
            mark[prev_nbrs] = True
            for cur in prev_nbrs:
                cur = int(cur)
                nbrs = g.neighbor_indices(cur)
                factors = np.where(mark[nbrs], 1.0, inv_q)
                factors[nbrs == prev] = inv_p
                unnorm = factors * g.neighbor_weights(cur)
                self.step[(prev, cur)] = AliasTable(unnorm / unnorm.sum())
            mark[prev_nbrs] = False


def build_alias_tables(g, p: float, q: float) -> WalkSampler:
    """Deterministically precompute all transition alias tables."""
    return WalkSampler(g, p, q)


def _single_walk(g, sampler: WalkSampler, start: int, length: int,
                 rng: np.random.Generator) -> list[int]:
    walk = [start]
    first = sampler.first_step[start]
    if first is None:
        return walk  # isolated start: dead end, truncate
    nbrs = g.neighbor_indices(start)
    walk.append(int(nbrs[first.draw(rng)]))
    while len(walk) < length:
        prev, cur = walk[-2], walk[-1]
        table = sampler.step[(prev, cur)]
        cur_nbrs = g.neighbor_indices(cur)
        walk.append(int(cur_nbrs[table.draw(rng)]))
    return walk


def generate_walks(g, cfg: WalkConfig, sampler: WalkSampler | None = None,
                   workers: int = 1) -> WalkCorpus:
    """Sample ``num_walks`` walks from every node.

    The RNG stream of walk j from node i is derived from (seed, i, j), so
    the corpus is byte-identical for any ``workers`` count.  Walks from
    isolated nodes are single-node sequences, flagged via the corpus
    provenance.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if sampler is None:
        sampler = build_alias_tables(g, cfg.p, cfg.q)
    elif sampler.graph is not g or sampler.p != cfg.p or sampler.q != cfg.q:
        raise ValueError("sampler does not match this graph and (p, q) setting")
    n = g.num_nodes
    tasks = [(i, j) for i in range(n) for j in range(cfg.num_walks)]

    def run(task: tuple[int, int]) -> list[int]:
        i, j = task
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, i, j))))
        return _single_walk(g, sampler, i, cfg.walk_length, rng)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(run, tasks, chunksize=64))
    else:
        raw = [run(t) for t in tasks]
    ids = g.node_ids
    walks = tuple(tuple(ids[i] for i in walk) for walk in raw)
    return WalkCorpus(
        walks=walks,
        node_ids=ids,
        config=cfg,
        graph_fingerprint=g.fingerprint(),
        isolated_nodes=g.isolated_nodes(),
    )


def save_corpus(corpus: WalkCorpus, path) -> None:
    """One walk per line, space-separated; header comments carry provenance."""
    cfg = corpus.config
    lines = [
        f"# graph={corpus.graph_fingerprint}",
        "# " + " ".join(f"{f.name}={getattr(cfg, f.name)!r}" for f in fields(cfg)),
        "# nodes=" + " ".join(corpus.node_ids),
        "# isolated=" + " ".join(corpus.isolated_nodes),
    ]
    lines += [" ".join(walk) for walk in corpus.walks]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_corpus(path) -> WalkCorpus:
    header: dict[str, str] = {}
    walks: list[tuple[int, tuple[str, ...]]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                for token in line[1:].strip().split(" "):
                    if "=" in token:
                        key, _, val = token.partition("=")
                        header.setdefault(key, val)
                if line.startswith("# nodes="):
                    header["nodes"] = line[len("# nodes="):]
                if line.startswith("# isolated="):
                    header["isolated"] = line[len("# isolated="):]
                continue
            walks.append((lineno, tuple(line.split(" "))))
    required = ("graph", *(f.name for f in fields(WalkConfig)), "nodes")
    missing = [k for k in required if k not in header]
    if missing:
        raise ValueError(f"{path}: missing corpus header fields: {', '.join(missing)}")
    node_ids = tuple(header["nodes"].split(" "))
    known = set(node_ids)
    for lineno, walk in walks:
        unknown = [x for x in walk if x not in known]
        if unknown:
            raise ValueError(f"{path}: line {lineno}: node {unknown[0]!r} is not in the '# nodes=' header")
    cfg = WalkConfig(**{f.name: field_parser(WalkConfig, f)(header[f.name]) for f in fields(WalkConfig)})
    isolated = tuple(x for x in header.get("isolated", "").split(" ") if x)
    return WalkCorpus(
        walks=tuple(walk for _, walk in walks),
        node_ids=node_ids,
        config=cfg,
        graph_fingerprint=header["graph"],
        isolated_nodes=isolated,
    )
