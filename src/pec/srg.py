"""Space relation graphs: undirected weighted graphs over spatial units.

A space relation graph (SRG) relates the units (parcels, grid cells,
stations) of a study area.  Edge weights come either from the similarity
of per-unit feature vectors (SRG-I) or from normalized pairwise
interaction volumes such as an origin-destination matrix (SRG-II).
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .util import (Numbering, check_node_id, parse_fields, parse_rows, prefixed, read_csv, read_lines,
                   sq_distances, whole_number, write_csv, write_lines)

__all__ = [
    "FeatureMatrix",
    "InteractionMatrix",
    "SpaceRelationGraph",
    "build_srg_from_features",
    "build_srg_from_interactions",
    "build_srg_from_adjacency",
    "save_graph",
    "load_graph",
    "save_feature_csv",
    "load_feature_csv",
    "save_od_csv",
    "load_od_csv",
]


def _check_node_ids(node_ids) -> tuple[str, ...]:
    ids = tuple(str(x) for x in node_ids)
    if len(set(ids)) != len(ids):
        raise ValueError("node identifiers must be unique")
    for nid in ids:
        check_node_id(nid)
    return ids


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-node feature vectors (one row per node)."""

    node_ids: tuple[str, ...]
    values: np.ndarray

    def __init__(self, node_ids: Sequence[str], values) -> None:
        ids = _check_node_ids(node_ids)
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 2:
            raise ValueError("feature values must be a 2-D matrix")
        if len(ids) != vals.shape[0]:
            raise ValueError("one row of features per node required")
        if len(ids) < 2:
            raise ValueError("need at least 2 nodes")
        if vals.shape[1] < 1:
            raise ValueError("need at least 1 feature column")
        if not np.all(np.isfinite(vals)):
            raise ValueError("feature values must be finite")
        object.__setattr__(self, "node_ids", ids)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class InteractionMatrix:
    """Pairwise interaction volumes; entry (i, j) is volume from i to j.

    The diagonal is ignored by every consumer (self-interaction carries no
    relational information).
    """

    node_ids: tuple[str, ...]
    volumes: np.ndarray

    def __init__(self, node_ids: Sequence[str], volumes) -> None:
        ids = _check_node_ids(node_ids)
        vols = np.asarray(volumes, dtype=float)
        if vols.ndim != 2 or vols.shape[0] != vols.shape[1]:
            raise ValueError("interaction volumes must be a square matrix")
        if vols.shape[0] != len(ids):
            raise ValueError("matrix order must match the number of node ids")
        if not np.all(np.isfinite(vols)):
            raise ValueError("interaction volumes must be finite")
        if np.any(vols < 0):
            raise ValueError("interaction volumes must be nonnegative")
        object.__setattr__(self, "node_ids", ids)
        object.__setattr__(self, "volumes", vols)


class SpaceRelationGraph:
    """Undirected, positively weighted graph with string node identifiers.

    The adjacency is stored once, in CSR form: the neighbors of node index
    i are ``indices[indptr[i]:indptr[i + 1]]`` (sorted) with edge weights
    ``weights`` at the same positions, so every undirected edge appears
    once in each endpoint's row.  Self-loops are rejected.  The arrays are
    read-only; instances are immutable and safe to share between workers.
    """

    def __init__(self, node_ids: Sequence[str], edges: Iterable[tuple[str, str, float]]):
        self.node_ids = _check_node_ids(node_ids)
        self._index = {nid: i for i, nid in enumerate(self.node_ids)}
        edges = list(edges)
        try:
            ends = np.array([(self._index[u], self._index[v]) for u, v, _ in edges], dtype=np.int64).reshape(-1, 2)
        except KeyError as exc:
            raise ValueError(f"edge references unknown node {exc.args[0]!r}") from None
        self._store(*ends.T, np.array([w for *_, w in edges], dtype=float))

    @classmethod
    def from_weight_matrix(cls, node_ids: Sequence[str], weights) -> "SpaceRelationGraph":
        """The graph whose edges are the nonzero entries of the (N, N) ``weights`` above the diagonal.

        The upper triangle is mirrored into a symmetric matrix, whose nonzeros
        in row-major order are the CSR entries; a matrix holds no duplicate edge.
        """
        g, weights = cls(node_ids, ()), np.asarray(weights, dtype=float)
        n = g.num_nodes
        if weights.shape != (n, n):
            raise ValueError("weight matrix order must match the number of node ids")
        sym = np.where(np.tri(n, dtype=bool), weights.T, weights)  # entry (i, j) is weights[min(i, j), max(i, j)]
        np.fill_diagonal(sym, 0.0)
        pos = np.flatnonzero(sym)
        indptr, indices, wts = np.searchsorted(pos, np.arange(n + 1) * n), pos % n, sym.ravel()[pos]
        bad = np.flatnonzero(~((wts > 0.0) & np.isfinite(wts)))
        if bad.size:  # the first bad entry in row-major order lies above the diagonal
            i = np.searchsorted(indptr, bad[0], side="right") - 1
            raise _weight_error(g.node_ids[i], g.node_ids[indices[bad[0]]], wts[bad[0]])
        g._freeze(indptr, indices, wts)
        return g

    def _store(self, src: np.ndarray, dst: np.ndarray, wts: np.ndarray) -> None:
        """Hold the edges (src[k], dst[k], wts[k]), by node index, as read-only CSR arrays."""
        n, ids = self.num_nodes, self.node_ids
        bad = np.flatnonzero((src == dst) | ~((wts > 0.0) & np.isfinite(wts)))
        if bad.size:
            u, v, w = ids[src[bad[0]]], ids[dst[bad[0]]], wts[bad[0]]
            if u == v:
                raise ValueError(f"self-loop on node {u!r} is not allowed")
            raise _weight_error(u, v, w)
        keys = np.concatenate((src * n + dst, dst * n + src))  # row * N + col, both directions of every edge
        order = np.argsort(keys)
        keys = keys[order]
        if np.any(keys[1:] == keys[:-1]):
            pairs = np.minimum(src, dst) * n + np.maximum(src, dst)
            k = int(np.setdiff1d(np.arange(pairs.size), np.unique(pairs, return_index=True)[1])[0])  # the first repeat
            raise ValueError(f"duplicate edge ({ids[src[k]]!r}, {ids[dst[k]]!r})")
        self._freeze(np.searchsorted(keys, np.arange(n + 1) * n), keys % n, np.concatenate((wts, wts))[order])

    def _freeze(self, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray) -> None:
        self.indptr, self.indices, self.weights = indptr, indices, weights
        for arr in (indptr, indices, weights):
            arr.flags.writeable = False

    # -- basic accessors ---------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_edges(self) -> int:
        return self.indices.size // 2

    def index(self, node_id: str) -> int:
        return self._index[node_id]

    def has_edge(self, u: str, v: str) -> bool:
        return self._index[v] in self.neighbor_indices(self._index[u])

    def neighbor_indices(self, i: int) -> np.ndarray:
        """Sorted neighbor indices of node index ``i`` (a read-only view)."""
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def neighbor_weights(self, i: int) -> np.ndarray:
        return self.weights[self.indptr[i]:self.indptr[i + 1]]

    def entry_rows(self) -> np.ndarray:
        """Row (source node index) of every CSR position."""
        return np.repeat(np.arange(self.num_nodes), np.diff(self.indptr))

    def edges(self) -> Iterator[tuple[str, str, float]]:
        """Canonical edge list: by node index, each pair once, read one CSR row at a time."""
        ids = self.node_ids
        for i in range(self.num_nodes):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            lo += np.searchsorted(self.indices[lo:hi], i)  # the pairs (i, j > i); rows are sorted
            cols, wts = self.indices[lo:hi].tolist(), self.weights[lo:hi].tolist()
            yield from ((ids[i], ids[j], w) for j, w in zip(cols, wts))

    def edge_lines(self) -> Iterator[str]:
        """The canonical edge list as ``u<TAB>v<TAB>repr(w)`` text lines."""
        return (f"{u}\t{v}\t{w!r}" for u, v, w in self.edges())

    def isolated_nodes(self) -> tuple[str, ...]:
        return tuple(self.node_ids[i] for i in np.flatnonzero(np.diff(self.indptr) == 0).tolist())

    def to_weight_matrix(self) -> np.ndarray:
        """Dense symmetric weight matrix in node order (zero diagonal)."""
        mat = np.zeros((self.num_nodes, self.num_nodes))
        mat[self.entry_rows(), self.indices] = self.weights
        return mat

    def fingerprint(self) -> str:
        """Content hash over nodes and the canonical edge list."""
        h, lines = self._hashed_edge_lines()
        for _ in lines:
            pass
        return h.hexdigest()

    def _hashed_edge_lines(self):
        """A sha256 of the node ids, and the edge lines, each added to it as
        it is read; once every line is read, the hash is the fingerprint."""
        h = hashlib.sha256(b"".join(f"{nid}\x00".encode("utf-8") for nid in self.node_ids) + b"\x01")

        def lines():
            for line in self.edge_lines():
                h.update(f"{line}\n".encode("utf-8"))
                yield line

        return h, lines()

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpaceRelationGraph):
            return NotImplemented
        return self.node_ids == other.node_ids and all(
            np.array_equal(getattr(self, a), getattr(other, a)) for a in ("indptr", "indices", "weights")
        )

    def __repr__(self) -> str:
        return (
            f"SpaceRelationGraph({self.num_nodes} nodes, {self.num_edges} edges, "
            f"{len(self.isolated_nodes())} isolated)"
        )


def _weight_error(u: str, v: str, w) -> ValueError:
    return ValueError(f"edge ({u!r}, {v!r}) has nonpositive or nonfinite weight {w}")


# -- builders ---------------------------------------------------------------


def _gaussian_similarity(values: np.ndarray, sigma: float) -> np.ndarray:
    return np.exp(-sq_distances(values, values) / (2.0 * sigma**2))

def _cosine_similarity(values: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(values, axis=1)
    if np.any(norms == 0.0):
        bad = np.nonzero(norms == 0.0)[0][0]
        raise ValueError(
            f"all-zero feature row (node index {bad}) has no direction for cosine similarity"
        )
    unit = values / norms[:, None]
    sim = unit @ unit.T
    np.clip(sim, 0.0, 1.0, out=sim)
    return sim


def build_srg_from_features(
    features: FeatureMatrix,
    similarity: str = "gaussian",
    sigma: float | None = None,
    k_nn: int | None = None,
    tau: float | None = None,
) -> SpaceRelationGraph:
    """Build an SRG-I: edge weights are pairwise feature similarities.

    similarity: "gaussian" (exp(-||x-y||^2 / 2 sigma^2), sigma 1.0 when not
    given) or "cosine" (negative values clamped to zero: anti-correlated rows
    are unrelated; it takes no sigma).  Euclidean distance enters only through
    the Gaussian kernel, which maps it into the required (0, 1] weight range.
    Zero-similarity pairs produce no edge.

    A given ``k_nn`` keeps the union of every node's ``k_nn`` strongest
    edges (symmetric by construction); a given ``tau`` keeps edges with
    weight >= ``tau``; neither keeps the full similarity graph.  Giving
    both is an error.
    """
    if k_nn is not None and tau is not None:
        raise ValueError(f"give k_nn or tau, not both (got k_nn={k_nn!r} and tau={tau!r})")
    n = len(features.node_ids)
    if similarity == "gaussian":
        if not (sigma is None or sigma > 0.0):
            raise ValueError("gaussian similarity requires sigma > 0")
        sim = _gaussian_similarity(features.values, 1.0 if sigma is None else float(sigma))
    elif similarity == "cosine":
        if sigma is not None:
            raise ValueError(f"cosine similarity takes no sigma, got sigma={sigma!r}")
        sim = _cosine_similarity(features.values)
    else:
        raise ValueError(f"unknown similarity {similarity!r}")
    np.fill_diagonal(sim, 0.0)

    keep = sim > 0.0
    if k_nn is not None:
        k = prefixed("k_nn", whole_number, k_nn)
        if not 1 <= k < n:
            raise ValueError(f"k_nn must satisfy 1 <= k_nn < N = {n}, got {k}")
        # strongest first, ties toward the smaller neighbor index; kept
        # entries (sim > 0) all rank before the zeros
        sel = np.zeros_like(keep)
        np.put_along_axis(sel, np.argsort(-sim, axis=1, kind="stable")[:, :k], True, axis=1)
        sel &= keep
        keep &= sel | sel.T
    elif tau is not None:
        if not (0.0 <= float(tau) <= 1.0):
            raise ValueError(f"tau must be in [0, 1], got {tau!r}")
        keep &= sim >= float(tau)

    return SpaceRelationGraph.from_weight_matrix(features.node_ids, np.where(keep, sim, 0.0))


def build_srg_from_interactions(od: InteractionMatrix) -> SpaceRelationGraph:
    """Build an SRG-II from an interaction / OD matrix.

    Directed volumes are folded to undirected by the arithmetic mean
    (A + A^T) / 2, then normalized by the global maximum so the strongest
    pair has weight 1.  Zero pairs produce no edge.  The mean's 1/2 cancels
    in the normalization and is left out, so a tiny positive volume does not
    underflow to zero.
    """
    sym = od.volumes + od.volumes.T
    np.fill_diagonal(sym, 0.0)
    top = sym.max()
    if top <= 0.0:
        raise ValueError("interaction matrix has no off-diagonal volume")
    sym /= top
    return SpaceRelationGraph.from_weight_matrix(od.node_ids, sym)


def build_srg_from_adjacency(
    edges: Iterable[tuple[str, str]],
    node_ids: Sequence[str] | None = None,
) -> SpaceRelationGraph:
    """Build a unit-weight SRG from a plain adjacency list.

    Duplicate pairs (in either orientation) collapse to one edge.  When
    ``node_ids`` is omitted, nodes are taken in order of first appearance.
    """
    raw = [(str(u), str(v)) for u, v in edges]
    for u, v in raw:
        if u == v:
            raise ValueError(f"self-loop ({u!r}, {v!r}) is not allowed")
    pairs = dict.fromkeys((u, v) if u <= v else (v, u) for u, v in raw)
    ids = tuple(node_ids) if node_ids is not None else tuple(dict.fromkeys(x for pair in raw for x in pair))
    return SpaceRelationGraph(ids, [(u, v, 1.0) for u, v in pairs])


# -- file formats -------------------------------------------------------------


def save_graph(g: SpaceRelationGraph, path) -> str:
    """Write the TSV edge list: ``u<TAB>v<TAB>weight``, one undirected edge
    per line.  ``#node`` directives preserve node order and isolated nodes.
    Returns ``g.fingerprint()``, hashed from the lines as they are written.
    """
    h, lines = g._hashed_edge_lines()
    write_lines(path, itertools.chain((f"#node\t{nid}" for nid in g.node_ids), lines))
    return h.hexdigest()


def load_graph(path) -> SpaceRelationGraph:
    """Read a TSV edge list written by :func:`save_graph` (or any file of
    ``u<TAB>v<TAB>weight`` lines; ``#`` lines other than ``#node`` are
    comments)."""
    declared = Numbering(path, checked=True)
    seen = Numbering(path, checked=True)  # each edge endpoint's index, in order of first appearance

    def parsed():
        for lineno, line in read_lines(path):
            if line.startswith("#"):
                if line.startswith("#node\t"):
                    declared.declare(line.split("\t", 1)[1], lineno)
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}: line {lineno}: expected 3 tab-separated fields")
            u, v, wtext = parts
            (w,) = parse_fields(path, lineno, float, [wtext], "weight")
            if not 0.0 < w < math.inf:
                raise ValueError(f"{path}: line {lineno}: weight must be positive and finite, got {wtext}")
            if u == v:
                raise ValueError(f"{path}: line {lineno}: self-loop on {u!r}")
            seen.lineno = lineno
            yield seen[u], seen[v], w

    edge = np.fromiter(parsed(), dtype=[("src", np.int64), ("dst", np.int64), ("w", float)])
    nodes = declared or seen
    unknown = next((nid for nid in seen if nid not in nodes), None)
    if unknown is not None:
        raise ValueError(f"{path}: line {seen.line(unknown)}: edge references unknown node {unknown!r}")
    g = SpaceRelationGraph(nodes, ())
    at = np.array([nodes[nid] for nid in seen], dtype=np.int64)
    src, dst, wts = at[edge["src"]], at[edge["dst"]], edge["w"].copy()
    del edge  # 24 bytes per edge that the CSR build does not need
    try:
        g._store(src, dst, wts)
    except ValueError as exc:
        # every line was checked as it was read but for repeated edges, which
        # _store names without their line; only then is the file read again
        edges = Numbering(path, what="edge")
        for lineno, line in read_lines(path):
            if not line.startswith("#"):
                edges.declare(tuple(sorted(line.split("\t")[:2])), lineno)
        raise ValueError(f"{path}: {exc}") from None
    return g


def _volume(text: str) -> float:
    x = float(text)
    if not 0.0 <= x < math.inf:
        raise ValueError(f"must be nonnegative and finite, got {text}")
    return x


def save_feature_csv(features: FeatureMatrix, path) -> None:
    rows = ([nid] + [repr(float(x)) for x in row] for nid, row in zip(features.node_ids, features.values))
    write_csv(path, ["node"] + [f"f{i + 1}" for i in range(features.values.shape[1])], rows)


def load_feature_csv(path) -> FeatureMatrix:
    rows = read_csv(path)
    header = next(rows, (0, []))[1]
    if len(header) < 2 or header[0] != "node":
        raise ValueError(f"{path}: expected header 'node,<f1>,...'")
    ids, values = parse_rows(path, rows, len(header), float, "feature value", checked=True)
    return prefixed(path, FeatureMatrix, ids, values)


def save_od_csv(od: InteractionMatrix, path) -> None:
    rows = ([nid] + [repr(float(x)) for x in row] for nid, row in zip(od.node_ids, od.volumes))
    write_csv(path, ["od", *od.node_ids], rows)


def load_od_csv(path) -> InteractionMatrix:
    rows = read_csv(path)
    head_line, header = next(rows, (0, []))
    if len(header) < 2:
        raise ValueError(f"{path}: expected a header row with node identifiers")
    ids, values = parse_rows(path, rows, len(header), _volume, "volume")
    if list(ids) != header[1:]:
        raise ValueError(f"{path}: row identifiers do not match header identifiers")
    for nid in ids:  # the header's ids, checked once they are known to be the rows'
        prefixed(f"{path}: line {head_line}", check_node_id, nid)
    return prefixed(path, InteractionMatrix, ids, values)
