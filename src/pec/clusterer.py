"""Clustering of embedding vectors and graph communities.

k-means (k-means++ initialization, Lloyd iterations, multiple restarts)
is the primary clusterer; Davies-Bouldin, Dunn and silhouette indices
score candidate cluster counts; Louvain greedy modularity optimization
estimates a community count directly from the graph.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .util import derive_seed, sq_distances

__all__ = [
    "ClusterConfig",
    "ClusterAssignment",
    "IndexScores",
    "kmeans",
    "validity_indices",
    "select_n",
    "louvain",
    "modularity",
    "check_cluster_count",
    "selection",
    "cluster",
]


CLUSTER_MODES = ("fixed", "auto-indices", "auto-louvain")
MAX_ITER = 100  # Lloyd iterations per k-means run
TOL = 1e-9  # Lloyd stops once no centroid moves this far


@dataclass(frozen=True)
class ClusterConfig:
    """Clustering hyperparameters: the k-means cluster count is
    ``n_clusters`` in mode "fixed", the Louvain community count in
    "auto-louvain", or the validity-index vote over ``n_min..n_max`` in
    "auto-indices"; every k-means keeps the best of ``restarts`` runs."""

    n_clusters: int | None = None
    cluster_mode: str = field(default="fixed", metadata={"choices": CLUSTER_MODES})
    n_min: int = 2
    n_max: int = 10
    restarts: int = 10

    def __post_init__(self) -> None:
        if self.n_clusters is not None and self.n_clusters < 2:
            raise ValueError(f"n_clusters must be at least 2, got {self.n_clusters}")
        if self.cluster_mode not in CLUSTER_MODES:
            raise ValueError(f"unknown cluster mode {self.cluster_mode!r}")
        if self.n_clusters is not None and self.cluster_mode != "fixed":
            raise ValueError(f"n_clusters={self.n_clusters} is for cluster_mode 'fixed', not {self.cluster_mode!r}")
        if not 2 <= self.n_min <= self.n_max:
            raise ValueError(f"need 2 <= n_min <= n_max, got n_min={self.n_min}, n_max={self.n_max}")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")


@dataclass(frozen=True)
class ClusterAssignment:
    """Cluster labels with centroids and inertia; ``inertia_history`` is the
    per-iteration inertia of the winning k-means run."""

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    n: int
    inertia_history: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1:
            raise ValueError("labels must be 1-D")
        if labels.size and (labels.min() < 0 or labels.max() >= self.n):
            raise ValueError("labels must lie in [0, n)")


@dataclass(frozen=True)
class IndexScores:
    davies_bouldin: float  # lower is better
    dunn: float  # higher is better
    silhouette: float  # in [-1, 1], higher is better


def _kmeans_pp_init(x: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    n_pts = x.shape[0]
    centroids = np.empty((n, x.shape[1]))
    first = int(rng.integers(n_pts))
    centroids[0] = x[first]
    d2 = sq_distances(x, centroids[:1]).ravel()
    for k in range(1, n):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n_pts))
        else:
            idx = int(rng.choice(n_pts, p=d2 / total))
        centroids[k] = x[idx]
        d2 = np.minimum(d2, sq_distances(x, centroids[k:k + 1]).ravel())
    return centroids


def _update_means(x: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Move nonempty clusters' centroids to their means, in place; return the empty ones."""
    counts = np.bincount(labels, minlength=centroids.shape[0])
    for k in np.flatnonzero(counts):
        centroids[k] = x[labels == k].mean(axis=0)
    return np.flatnonzero(counts == 0)


def _lloyd(x: np.ndarray, centroids: np.ndarray):
    history = []
    rows = np.arange(x.shape[0])
    for _ in range(MAX_ITER):
        d2 = sq_distances(x, centroids)
        labels = np.argmin(d2, axis=1)
        to_own = d2[rows, labels]
        history.append(float(to_own.sum()))
        new_centroids = centroids.copy()
        empty = _update_means(x, labels, new_centroids)
        # re-seed empty clusters at the point farthest from its own centroid
        # (smallest index on ties)
        new_centroids[empty] = x[int(np.argmax(to_own))]
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift < TOL:
            break
    # final consistent state: assign, recompute means, measure inertia
    labels = np.argmin(sq_distances(x, centroids), axis=1)
    _update_means(x, labels, centroids)
    inertia = float(sq_distances(x, centroids)[rows, labels].sum())
    history.append(inertia)
    return labels, centroids, inertia, history


def kmeans(
    x,
    n: int,
    seed: int = 0,
    restarts: int = ClusterConfig.restarts,
) -> ClusterAssignment:
    """Best-of-``restarts`` k-means with k-means++ initialization.

    Lloyd iterations stop when the largest centroid shift falls under
    ``TOL``, or after ``MAX_ITER`` of them.  A cluster emptied during
    iteration is re-seeded at the point farthest from its assigned
    centroid.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("input must be a 2-D matrix")
    if not np.all(np.isfinite(x)):
        raise ValueError("input must be finite")
    n_pts = x.shape[0]
    if not (2 <= n <= n_pts):
        raise ValueError(f"need 2 <= n <= {n_pts}, got n={n}")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    best = None
    for r in range(restarts):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(derive_seed(seed, "kmeans", r))))
        init = _kmeans_pp_init(x, n, rng)
        labels, centroids, inertia, history = _lloyd(x, init)
        if best is None or inertia < best[2]:
            best = (labels, centroids, inertia, history)
    labels, centroids, inertia, history = best
    return ClusterAssignment(labels, centroids, inertia, n, tuple(history))


def _pairwise_distances(x: np.ndarray) -> np.ndarray:
    """Exact row-difference distances (no a^2+b^2-2ab cancellation)."""
    n = x.shape[0]
    dist = np.empty((n, n))
    for i in range(n):
        dist[i] = np.sqrt(((x - x[i]) ** 2).sum(axis=1))
        dist[i, i] = 0.0
    return dist


def validity_indices(x, labels) -> IndexScores:
    """Davies-Bouldin, Dunn and mean silhouette for a labeled partition.

    Euclidean distances throughout.  A singleton cluster contributes
    silhouette 0 for its point.  Raises if fewer than 2 clusters are
    nonempty or all points coincide (Dunn undefined).
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != x.shape[0]:
        raise ValueError("one label per row required")
    clusters, own = np.unique(labels, return_inverse=True)
    if clusters.size < 2:
        raise ValueError("need at least 2 nonempty clusters")
    x = x - x.mean(axis=0)  # distances are translation-invariant; centering conditions them
    dist = _pairwise_distances(x)
    members = [np.nonzero(labels == c)[0] for c in clusters]

    # Davies-Bouldin: mean over clusters of the worst (s_i + s_j) / d_ij
    centroids = np.array([x[m].mean(axis=0) for m in members])
    scatter = np.array(
        [np.linalg.norm(x[m] - centroids[i], axis=1).mean() for i, m in enumerate(members)]
    )
    centroid_dist = _pairwise_distances(centroids)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(centroid_dist == 0.0, np.inf, (scatter[:, None] + scatter[None, :]) / centroid_dist)
    np.fill_diagonal(ratios, 0.0)
    davies_bouldin = float(ratios.max(axis=1).mean())

    # Dunn: min inter-cluster point distance / max intra-cluster diameter
    same = labels[:, None] == labels[None, :]
    max_diameter = dist[same].max()
    if max_diameter == 0.0:
        raise ValueError("all intra-cluster distances are zero; Dunn index undefined")
    dunn = float(dist[~same].min() / max_diameter)

    # silhouette: (b - a) / max(a, b) per point.  Row sums run over a
    # C-contiguous copy of each cluster's columns, so that each adds in the
    # order of a sum over one row; the strided block can round differently.
    sums = np.stack([np.ascontiguousarray(dist[:, m]).sum(axis=1) for m in members], axis=1)
    sizes = np.array([m.size for m in members])
    rows = np.arange(x.shape[0])
    means = sums / sizes
    means[rows, own] = np.inf
    b = means.min(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = sums[rows, own] / (sizes[own] - 1)
        top = np.maximum(a, b)
        sil = np.where((sizes[own] == 1) | (top == 0.0), 0.0, (b - a) / top)
    return IndexScores(davies_bouldin, dunn, float(sil.mean()))


def select_n(
    x,
    n_range,
    seed: int = 0,
    restarts: int = ClusterConfig.restarts,
) -> tuple[int, dict[int, IndexScores]]:
    """Score each candidate cluster count and recommend one.

    The recommendation is a majority vote of the three indices' optima
    (Davies-Bouldin minimum, Dunn and silhouette maxima); ties break
    toward the smaller count.
    """
    x = np.asarray(x, dtype=float)
    candidates = sorted(set(int(n) for n in n_range))
    if not candidates:
        raise ValueError("empty candidate range")
    if candidates[0] < 2 or candidates[-1] > x.shape[0]:
        raise ValueError("candidate counts must lie in [2, N]")
    if np.allclose(x, x[0]):
        raise ValueError("degenerate input: all rows identical")
    table: dict[int, IndexScores] = {}
    for n in candidates:
        assignment = kmeans(x, n, seed=derive_seed(seed, "select", n), restarts=restarts)
        table[n] = validity_indices(x, assignment.labels)
    votes = [
        min(candidates, key=lambda n: (table[n].davies_bouldin, n)),
        min(candidates, key=lambda n: (-table[n].dunn, n)),
        min(candidates, key=lambda n: (-table[n].silhouette, n)),
    ]
    return min(votes, key=lambda n: (-votes.count(n), n)), table


# -- Louvain community detection ---------------------------------------------


def modularity(g, labels) -> float:
    """Weighted modularity Q = sum_c (e_c / m - (d_c / 2m)^2) of a labeling."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != g.num_nodes:
        raise ValueError("one label per node required")
    m = g.weights.sum() / 2.0
    if m <= 0.0:
        raise ValueError("modularity is undefined for an edgeless graph")
    comm = np.unique(labels, return_inverse=True)[1]
    src, dst = comm[g.entry_rows()], comm[g.indices]
    intra = np.bincount(src, g.weights * (src == dst)) / 2.0  # each edge is stored twice
    degree = np.bincount(src, g.weights)
    return float(np.sum(intra / m - (degree / (2.0 * m)) ** 2))


def _louvain_once(ptr, idx, wts, self_loops: list[float],
                  m: float, rng: np.random.Generator) -> list[list[int]]:
    """One full Louvain run; returns communities as lists of original nodes.
    At every level node i's links are ``idx[ptr[i]:ptr[i + 1]]`` with ``wts`` at the same positions."""
    groups: list[list[int]] = [[i] for i in range(len(ptr) - 1)]  # original nodes per super-node
    min_gain = 1e-9 * m  # gains below are scaled by m relative to Q

    while True:
        size = len(ptr) - 1
        community = list(range(size))
        # strength = weighted degree incl. both self-loop endpoints
        strength = [sum(wts[ptr[i]:ptr[i + 1]]) + 2.0 * self_loops[i] for i in range(size)]
        comm_total = strength[:]
        improved_any = False
        improved = True
        while improved:
            improved = False
            order = rng.permutation(size)
            for i in order.tolist():
                ci = community[i]
                # weight from i to each neighboring community
                link: dict[int, float] = {}
                for j, w in zip(idx[ptr[i]:ptr[i + 1]], wts[ptr[i]:ptr[i + 1]]):
                    link[community[j]] = link.get(community[j], 0.0) + w
                comm_total[ci] -= strength[i]
                base = link.get(ci, 0.0) - comm_total[ci] * strength[i] / (2.0 * m)
                best_c, best_gain = ci, min_gain
                # the largest gain above min_gain, and of equal gains the smallest community id
                for c, w_ic in link.items():
                    if c == ci:
                        continue
                    gain = w_ic - comm_total[c] * strength[i] / (2.0 * m) - base
                    if gain > best_gain or (gain == best_gain and c < best_c and best_c != ci):
                        best_gain = gain
                        best_c = c
                comm_total[best_c] += strength[i]
                community[i] = best_c
                if best_c != ci:
                    improved = True
                    improved_any = True
        if not improved_any:
            return groups
        # aggregate: communities become super-nodes, their links flattened in insertion order
        remap = {c: i for i, c in enumerate(dict.fromkeys(community))}  # by first appearance
        new_size = len(remap)
        new_groups: list[list[int]] = [[] for _ in range(new_size)]
        for i, c in enumerate(community):
            new_groups[remap[c]].extend(groups[i])
        new_adj: list[dict[int, float]] = [dict() for _ in range(new_size)]
        new_loops = [0.0] * new_size
        for i in range(size):
            ci = remap[community[i]]
            new_loops[ci] += self_loops[i]
            for j, w in zip(idx[ptr[i]:ptr[i + 1]], wts[ptr[i]:ptr[i + 1]]):
                if j < i:
                    continue
                cj = remap[community[j]]
                if ci == cj:
                    new_loops[ci] += w
                else:
                    new_adj[ci][cj] = new_adj[ci].get(cj, 0.0) + w
                    new_adj[cj][ci] = new_adj[cj].get(ci, 0.0) + w
        ptr = np.cumsum([0, *map(len, new_adj)]).tolist()
        idx = [j for links in new_adj for j in links]
        wts = [w for links in new_adj for w in links.values()]
        self_loops, groups = new_loops, new_groups


def louvain(g, seed: int = 0, runs: int = 5) -> tuple[np.ndarray, int, float]:
    """Greedy modularity optimization (fast unfolding).

    Node sweeps use a seed-shuffled scan order; the best of ``runs``
    restarts by modularity is returned as (labels, community count, Q),
    with Q recomputed from scratch on the returned labels.
    """
    if g.num_edges == 0:
        raise ValueError("community detection needs at least one edge")
    if runs < 1:
        raise ValueError(f"need runs >= 1, got runs={runs}")
    n = g.num_nodes
    # total edge weight, added left to right over the canonical edge order
    m = float(np.cumsum(g.weights[g.entry_rows() < g.indices])[-1])
    # level 1 reads the CSR arrays in place: memoryview items are the same Python ints and floats as .tolist()'s
    ptr, idx, wts = g.indptr.tolist(), memoryview(g.indices), memoryview(g.weights)
    best_labels: np.ndarray | None = None
    best_q = -np.inf
    for r in range(runs):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(derive_seed(seed, "louvain", r))))
        groups = _louvain_once(ptr, idx, wts, [0.0] * n, m, rng)
        labels = np.empty(n, dtype=np.int64)
        # canonical labels: communities numbered by their smallest node index
        for c, members in enumerate(sorted(groups, key=min)):
            labels[members] = c
        q = modularity(g, labels)
        if q > best_q:
            best_q = q
            best_labels = labels
    count = int(best_labels.max()) + 1
    return best_labels, count, float(best_q)


def check_cluster_count(cfg: ClusterConfig, n_pts: int | None = None) -> None:
    """Raise ValueError if mode "fixed" has no ``n_clusters``, or, given the
    number of points to cluster, if it has more clusters than points or
    mode "auto-indices" has no candidate count."""
    if cfg.cluster_mode == "fixed" and cfg.n_clusters is None:
        raise ValueError("fixed clustering needs --n-clusters")
    if cfg.cluster_mode == "fixed" and n_pts is not None and cfg.n_clusters > n_pts:
        raise ValueError(f"n_clusters={cfg.n_clusters} exceeds the {n_pts} nodes to cluster")
    if cfg.cluster_mode == "auto-indices" and n_pts is not None:
        _candidate_counts(cfg, n_pts)


def _candidate_counts(cfg: ClusterConfig, n_pts: int) -> range:
    """The counts that select_n scores for ``n_pts`` points: n_min..n_max,
    with n_max clipped to N - 1 (N clusters are all singletons, whose Dunn
    index is undefined); ValueError if none is left."""
    counts = range(cfg.n_min, min(cfg.n_max, n_pts - 1) + 1)
    if not counts:
        raise ValueError(f"no candidate cluster count: n_min={cfg.n_min} exceeds N - 1 = {n_pts - 1} "
                         f"for the {n_pts} nodes to cluster")
    return counts


def selection(vectors, cfg: ClusterConfig, seed: int) -> dict:
    """select_n's recommended count and each candidate's validity indices
    over :func:`_candidate_counts`."""
    recommended, table = select_n(vectors, _candidate_counts(cfg, len(vectors)), seed=seed, restarts=cfg.restarts)
    return {"recommended": recommended, "scores": {str(n): asdict(s) for n, s in table.items()}}


def cluster(vectors, g, cfg: ClusterConfig, seed: int) -> tuple[np.ndarray, dict]:
    """The cluster stage: labels for the rows of ``vectors`` (one per node of
    ``g``) by k-means, seeded by ``seed``, at the count of ``cfg.cluster_mode``
    (all zero for one Louvain community), and a record of "n_clusters" plus
    "louvain" (communities, modularity) or "selection" (:func:`selection`)."""
    if cfg.cluster_mode == "fixed":
        record = {"n_clusters": cfg.n_clusters}
    elif cfg.cluster_mode == "auto-louvain":
        _, count, q = louvain(g, seed=seed)
        record = {"n_clusters": count, "louvain": {"communities": count, "modularity": q}}
    else:
        chosen = selection(vectors, cfg, seed)
        record = {"n_clusters": chosen["recommended"], "selection": chosen}
    if record["n_clusters"] < 2:  # louvain can legitimately report one community
        return np.zeros(len(vectors), dtype=np.int64), record
    return kmeans(vectors, record["n_clusters"], seed=seed, restarts=cfg.restarts).labels, record
