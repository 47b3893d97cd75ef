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

import copy
import itertools
from dataclasses import dataclass, fields

import numpy as np

from .util import field_parser, parse_fields, prefixed, read_lines, write_lines

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
    DRAW_CHUNK = 1 << 16  # draws resolved, or cells skipped, at a time

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

    def draw_many(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Draws of ``shape`` as int32: all cells, then one uniform per cell in
        flat order.  Aliases are resolved in place, a chunk at a time, so the
        result, 4 bytes per draw, is the only full-size array.  For up to 2**31
        outcomes numpy draws int32 and int64 cells from the same 32-bit words,
        so both give the same values and leave the stream at the same place."""
        return self._resolve(rng.integers(0, self.size, size=shape, dtype=np.int32), rng)

    def draw_blocks(self, rng: np.random.Generator, rows: int, width: int, block: int):
        """``draw_many(rng, (rows, width))`` yielded ``block`` rows at a time,
        leaving ``rng`` where draw_many leaves it; only one block is held.

        Bounded int32 cells take their 32-bit words from the bit generator's
        own buffer, so consecutive draws give the values of one draw.  A copy
        of ``rng`` draws the cells block by block, while ``rng`` skips them
        all and then draws each block's uniforms."""
        cells_rng = copy.deepcopy(rng)
        n_cells = rows * width
        for start in range(0, n_cells, self.DRAW_CHUNK):
            rng.integers(0, self.size, size=min(self.DRAW_CHUNK, n_cells - start), dtype=np.int32)
        for start in range(0, rows, block):
            cells = cells_rng.integers(0, self.size, size=(min(block, rows - start), width), dtype=np.int32)
            yield self._resolve(cells, rng)

    def _resolve(self, cells: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """``cells`` with each replaced by its alias where a uniform from ``rng``
        is at least its acceptance, in flat order, a chunk at a time."""
        flat = cells.reshape(-1)
        for start in range(0, flat.size, self.DRAW_CHUNK):
            chunk = flat[start:start + self.DRAW_CHUNK]
            miss = rng.random(chunk.size) >= self.accept[chunk]
            chunk[miss] = self.alias[chunk[miss]]
        return cells

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
        matrix = np.full((lengths.size, int(lengths.max(initial=0))), -1, dtype=np.int32)
        try:
            matrix[np.arange(matrix.shape[1]) < lengths[:, None]] = [index[nid] for walk in walks for nid in walk]
        except KeyError as exc:
            raise ValueError(f"node {exc.args[0]!r} is not in the corpus's node ids") from None
        return cls(matrix, tuple(node_ids), *args, **kwargs)

    @property
    def walks(self) -> tuple[tuple[str, ...], ...]:
        ids, lengths = np.array((*self.node_ids, None), dtype=object), (self.matrix >= 0).sum(axis=1)
        return tuple(tuple(row[:n]) for row, n in zip(ids[self.matrix].tolist(), lengths.tolist()))


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
    ``graph.indices``.  ``step[(prev, cur)]`` is a view of one
    second-order state by node index, for inspection and tests.
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

    @property
    def step(self) -> "_States":  # built per read, so the sampler is no reference cycle
        return _States(self)

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


class _States:
    """``sampler.step[(prev, cur)]``: the state of an edge, by node index."""

    def __init__(self, sampler: WalkSampler):
        self.sampler = sampler

    def __getitem__(self, state: tuple[int, int]) -> "_State":
        prev, cur = (int(x) for x in state)
        if cur not in self.sampler.graph.neighbor_indices(prev):
            raise KeyError(state)
        return _State(self.sampler, prev, cur)


class _State:
    """One second-order state; outcomes are offsets into ``neighbor_indices(cur)``."""

    def __init__(self, sampler: WalkSampler, prev: int, cur: int):
        self.sampler, self.prev, self.cur = sampler, prev, cur

    def draw_many(self, rng: np.random.Generator, shape) -> np.ndarray:
        size = int(np.prod(shape))
        k = self.sampler.advance(np.full(size, self.prev), np.full(size, self.cur), rng)
        return (k - self.sampler.graph.indptr[self.cur]).reshape(shape)

    def probabilities(self) -> np.ndarray:
        """Exact probability of each outcome."""
        g = self.sampler.graph
        nbrs = g.neighbor_indices(self.cur)
        unnorm = self.sampler.factors(np.full(nbrs.size, self.prev), nbrs) * g.neighbor_weights(self.cur)
        return unnorm / unnorm.sum()


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
    and the node is listed in ``isolated_nodes``.
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
    return WalkCorpus(matrix, g.node_ids, cfg, g.fingerprint(), g.isolated_nodes())


def save_corpus(corpus: WalkCorpus, path) -> None:
    """One walk per line, space-separated; header comments carry provenance."""
    cfg = corpus.config
    lines = [
        f"# graph={corpus.graph_fingerprint}",
        "# " + " ".join(f"{f.name}={getattr(cfg, f.name)!r}" for f in fields(cfg)),
        "# nodes=" + " ".join(corpus.node_ids),
        "# isolated=" + " ".join(corpus.isolated_nodes),
    ]
    write_lines(path, itertools.chain(lines, (" ".join(walk) for walk in corpus.walks)))


def load_corpus(path) -> WalkCorpus:
    header: dict[str, tuple[int, str]] = {}  # key -> (line, value)
    walks: list[tuple[int, tuple[str, ...]]] = []
    for lineno, line in read_lines(path):
        if line.startswith(("# nodes=", "# isolated=")):  # node lists are read whole
            key, _, val = line[2:].partition("=")
            header[key] = (lineno, val)
        elif line.startswith("#"):  # graph and config lines: key=value tokens
            for token in line[1:].strip().split(" "):
                if "=" in token:
                    key, _, val = token.partition("=")
                    header.setdefault(key, (lineno, val))
        else:
            walks.append((lineno, tuple(line.split(" "))))
    required = ("graph", *(f.name for f in fields(WalkConfig)), "nodes")
    missing = [k for k in required if k not in header]
    if missing:
        raise ValueError(f"{path}: missing corpus header fields: {', '.join(missing)}")
    node_ids = tuple(header["nodes"][1].split(" "))
    settings = {}
    for f in fields(WalkConfig):
        lineno, text = header[f.name]
        (settings[f.name],) = parse_fields(path, lineno, field_parser(WalkConfig, f), [text], f.name)
    isolated = tuple(x for x in header.get("isolated", (0, ""))[1].split(" ") if x)
    config = prefixed(path, WalkConfig, **settings)
    try:
        return WalkCorpus.of_walks([walk for _, walk in walks], node_ids, config, header["graph"][1], isolated)
    except ValueError as exc:
        lineno = next(n for n, walk in walks if not set(walk) <= set(node_ids))
        raise ValueError(f"{path}: line {lineno}: {exc}") from None
