"""Biased second-order random walks over a space relation graph.

The next step of a walk depends on the current node AND the previous one:
a candidate x gets the bias factor 1/p when x is the previous node, 1 when
x is adjacent to the previous node, and 1/q otherwise; the factor
multiplies the edge weight and the result is normalized.  Low q pushes the
walk outward (depth-first flavour), low p pulls it back (breadth-first
flavour); p = q = 1 leaves the walk driven by the weights alone.

Steps are drawn by rejection from the first-order walk, as in KnightKing
(Yang et al., SOSP 2019) and PecanPy (Liu & Krishnan, 2021): a candidate
is proposed in proportion to its edge weight, by one inverse-CDF lookup in
the prefix sums of the graph's CSR weights, and accepted with probability
factor / max(1/p, 1, 1/q).  Accepted candidates follow the biased law
exactly, and nothing is stored per (previous, current) state, so the
sampler's memory is O(edges).  All walks advance together as one integer
array, drawing from one random stream per seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields

import numpy as np

from .util import Numbering, check_node_id, field_parser, parse_fields, prefixed, read_lines, write_lines

__all__ = [
    "WalkConfig",
    "WalkCorpus",
    "WalkSampler",
    "transition_distribution",
    "build_alias_tables",
    "generate_walks",
    "save_corpus",
    "load_corpus",
]


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


@dataclass(frozen=True, eq=False)
class WalkCorpus:
    """Sampled walks plus the provenance needed to reproduce them.  ``matrix`` holds the
    walks as read-only int32 node indices, one row per walk, -1 past its end; ``walks`` as ids."""

    matrix: np.ndarray
    node_ids: tuple[str, ...]
    config: WalkConfig
    graph_fingerprint: str
    isolated_nodes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.matrix.flags.writeable = False

    @classmethod
    def of_walks(cls, walks, node_ids, *args, **kwargs) -> "WalkCorpus":
        """The corpus of ``walks``, a list of id sequences over ``node_ids``, and the other fields."""
        index = {nid: i for i, nid in enumerate(node_ids)}
        lengths = np.fromiter(map(len, walks), dtype=np.int64, count=len(walks))
        try:
            steps = np.fromiter((index[nid] for walk in walks for nid in walk), dtype=np.int32)
        except KeyError as exc:
            raise ValueError(f"node {exc.args[0]!r} is not in the corpus's node ids") from None
        return cls(_padded(steps, lengths), tuple(node_ids), *args, **kwargs)

    @property
    def walks(self) -> tuple[tuple[str, ...], ...]:
        return tuple(map(tuple, self._id_rows()))

    def _id_rows(self):
        """Each walk as a list of ids, decoded one row at a time."""
        ids, lengths = np.array((*self.node_ids, None), dtype=object), (self.matrix >= 0).sum(axis=1)
        return (ids[row].tolist()[:n] for row, n in zip(self.matrix, lengths.tolist()))


def _padded(steps: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The walks whose node indices are ``steps``, walk k taking the next
    ``lengths[k]``, as the rows of an int32 matrix padded with -1."""
    matrix = np.full((lengths.size, int(lengths.max(initial=0))), -1, dtype=np.int32)
    matrix[np.arange(matrix.shape[1]) < lengths[:, None]] = steps
    return matrix


def transition_distribution(g, prev: str, cur: str, p: float, q: float) -> dict[str, float]:
    """Analytic next-step distribution from state (prev, cur)."""
    if not (p > 0 and q > 0):
        raise ValueError("p and q must be positive")
    if not g.has_edge(prev, cur):
        raise ValueError(f"({prev!r}, {cur!r}) is not an edge")
    ci, pi = g.index(cur), g.index(prev)
    nbrs = g.neighbor_indices(ci)
    factors = np.where(np.isin(nbrs, g.neighbor_indices(pi)), 1.0, 1.0 / q)
    factors[nbrs == pi] = 1.0 / p
    unnorm = factors * g.neighbor_weights(ci)
    probs = unnorm / unnorm.sum()
    return {g.node_ids[x]: float(pr) for x, pr in zip(nbrs.tolist(), probs)}


class WalkSampler:
    """Rejection sampler of the biased walk on one graph for one (p, q).

    Besides the graph it holds the prefix sums ``cum`` of the CSR weights,
    each divided by its row's total, and the sorted edge keys
    ``row * N + col``: O(edges) memory.  :meth:`propose` and
    :meth:`advance` return CSR positions, i.e. indices into
    ``graph.indices``.
    """

    def __init__(self, g, p: float, q: float):
        if not (p > 0 and q > 0):
            raise ValueError("p and q must be positive")
        self.p, self.q = float(p), float(q)
        self.graph = g
        rows = g.entry_rows()
        # every row spans ~1 of the running total, so a row of tiny weights
        # is not rounded away against the rows before it
        share = g.weights / np.bincount(rows, g.weights, minlength=g.num_nodes)[rows]
        self.cum = np.concatenate(([0.0], np.cumsum(share)))
        self.keys = rows * g.num_nodes + g.indices
        self.bound = max(1.0 / self.p, 1.0, 1.0 / self.q)

    def factors(self, prev: np.ndarray, nxt: np.ndarray) -> np.ndarray:
        """Bias factor of each move to ``nxt`` from a state whose previous node is ``prev``."""
        keys = prev * self.graph.num_nodes + nxt
        pos = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
        out = np.where(self.keys[pos] == keys, 1.0, 1.0 / self.q)
        out[nxt == prev] = 1.0 / self.p
        return out

    def propose(self, cur: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Weight-proportional (first-order) moves out of the nodes ``cur``."""
        lo, hi = self.graph.indptr[cur], self.graph.indptr[cur + 1]
        u = self.cum[lo] + rng.random(cur.size) * (self.cum[hi] - self.cum[lo])
        return np.clip(np.searchsorted(self.cum, u, side="right") - 1, lo, hi - 1)

    def advance(self, prev: np.ndarray, cur: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Biased second-order moves from the states (prev, cur); rejected
        candidates are proposed again until every state has moved."""
        out = np.empty(cur.size, dtype=np.int64)
        todo = np.arange(cur.size)
        while todo.size:
            k = self.propose(cur[todo], rng)
            ok = rng.random(todo.size) * self.bound < self.factors(prev[todo], self.graph.indices[k])
            out[todo[ok]] = k[ok]
            todo = todo[~ok]
        return out


def build_alias_tables(g, p: float, q: float) -> WalkSampler:
    """The walk sampler of graph ``g`` at (p, q); O(edges) time and memory."""
    return WalkSampler(g, p, q)


def generate_walks(g, cfg: WalkConfig) -> WalkCorpus:
    """Sample ``num_walks`` walks from every node.

    All walks advance together, drawing from one random stream seeded by
    ``cfg.seed``, so the corpus depends on the graph and ``cfg`` alone.
    The sampler is built per call; it costs O(edges), far less than the
    walks.  The corpus is node-major: walk j from node i is row
    i * num_walks + j.  A walk from an isolated node is the row [i, -1, ...],
    and the node is listed in ``isolated_nodes``.  ``graph_fingerprint`` is
    left empty: hashing the graph costs O(edges), and only a writer that
    records the corpus's provenance needs it (``dataclasses.replace`` sets it).
    """
    sampler = build_alias_tables(g, cfg.p, cfg.q)
    rng = np.random.default_rng(cfg.seed)
    starts = np.repeat(np.arange(g.num_nodes), cfg.num_walks)
    moving = np.flatnonzero(np.diff(g.indptr)[starts] > 0)
    steps = np.empty((moving.size, cfg.walk_length), dtype=np.int64)
    steps[:, 0] = starts[moving]
    steps[:, 1] = g.indices[sampler.propose(steps[:, 0], rng)]
    for t in range(2, cfg.walk_length):
        steps[:, t] = g.indices[sampler.advance(steps[:, t - 2], steps[:, t - 1], rng)]
    matrix = np.full((starts.size, cfg.walk_length), -1, dtype=np.int32)
    matrix[:, 0] = starts
    matrix[moving] = steps
    return WalkCorpus(matrix, g.node_ids, cfg, "", g.isolated_nodes())


def save_corpus(corpus: WalkCorpus, path) -> None:
    """One walk per line, space-separated; header comments carry provenance."""
    cfg = corpus.config
    lines = [
        f"# graph={corpus.graph_fingerprint}",
        "# " + " ".join(f"{f.name}={getattr(cfg, f.name)!r}" for f in fields(cfg)),
        "# nodes=" + " ".join(corpus.node_ids),
        "# isolated=" + " ".join(corpus.isolated_nodes),
    ]
    write_lines(path, itertools.chain(lines, map(" ".join, corpus._id_rows())))


def load_corpus(path) -> WalkCorpus:
    header = Numbering(path, what="corpus header field")  # each key's line
    values: dict[str, str] = {}
    seen = Numbering(path)  # each walk node id's index, in order of first appearance
    lengths: list[int] = []

    def steps():
        for lineno, line in read_lines(path):
            if line.startswith("#"):  # node lists are read whole, graph and config lines as key=value tokens
                whole = line.startswith(("# nodes=", "# isolated="))
                for token in [line[2:]] if whole else line[1:].strip().split(" "):
                    if "=" in token:
                        key, _, val = token.partition("=")
                        header.declare(key, lineno)
                        values[key] = val
            else:
                walk = line.split(" ")
                seen.lineno = lineno
                yield from map(seen.__getitem__, walk)
                lengths.append(len(walk))

    flat = np.fromiter(steps(), dtype=np.int32)
    required = ("graph", *(f.name for f in fields(WalkConfig)), "nodes")
    missing = [k for k in required if k not in header]
    if missing:
        raise ValueError(f"{path}: missing corpus header fields: {', '.join(missing)}")
    node_ids = tuple(values["nodes"].split(" "))
    for nid in node_ids:
        prefixed(f"{path}: line {header.line('nodes')}", check_node_id, nid)
    index = {nid: i for i, nid in enumerate(node_ids)}
    if len(index) != len(node_ids):  # the first id listed twice is the first whose last place is later
        twice = next(nid for i, nid in enumerate(node_ids) if index[nid] != i)
        raise ValueError(f"{path}: line {header.line('nodes')}: node {twice!r} is listed twice")
    settings = {}
    for f in fields(WalkConfig):
        parse = field_parser(WalkConfig, f)
        (settings[f.name],) = parse_fields(path, header.line(f.name), parse, [values[f.name]], f.name)
    isolated = tuple(x for x in values.get("isolated", "").split(" ") if x)
    stray = next((nid for nid in isolated if nid not in index), None)
    if stray is not None:
        raise ValueError(f"{path}: line {header.line('isolated')}: isolated node {stray!r} is not in # nodes=")
    config = prefixed(path, WalkConfig, **settings)
    stray = next((nid for nid in seen if nid not in index), None)
    if stray is not None:
        raise ValueError(f"{path}: line {seen.line(stray)}: node {stray!r} is not in the corpus's node ids")
    at = np.array([index[nid] for nid in seen], dtype=np.int32)
    matrix = _padded(at[flat], np.array(lengths, dtype=np.int64))
    return WalkCorpus(matrix, node_ids, config, values["graph"], isolated)
