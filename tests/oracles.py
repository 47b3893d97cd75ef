"""Independent reference implementations used to check the library.

Everything here is deliberately brute force (enumeration, finite
differences, direct definitions) and shares no code with the package.
"""

import dataclasses
import itertools

import numpy as np

from pec.clusterer import IndexScores, modularity
from pec.embedder import sgns_loss_and_grad
from pec.srg import SpaceRelationGraph
from pec.util import derive_seed
from pec.embedder import AliasTable


def brute_force_kmeans(x, n):
    """Exhaustive minimum inertia over all partitions into n nonempty
    clusters, enumerated in canonical first-appearance labeling."""
    x = np.asarray(x, dtype=float)
    n_pts = x.shape[0]
    best = np.inf
    best_labels = None

    def recurse(idx, labels, used):
        nonlocal best, best_labels
        if n_pts - idx < n - used:
            return
        if idx == n_pts:
            if used != n:
                return
            inertia = 0.0
            arr = np.array(labels)
            for k in range(n):
                members = x[arr == k]
                inertia += float(((members - members.mean(axis=0)) ** 2).sum())
            if inertia < best:
                best = inertia
                best_labels = arr.copy()
            return
        for lab in range(min(used + 1, n)):
            labels.append(lab)
            recurse(idx + 1, labels, max(used, lab + 1))
            labels.pop()

    recurse(0, [], 0)
    return best, best_labels


def brute_force_macro_f1(pred, truth_labels, n_true):
    """Best macro F1 over all injective label matchings, by enumeration."""
    pred_values = sorted(set(pred))
    best = 0.0
    slots = list(range(n_true)) + [None] * max(0, len(pred_values) - n_true)
    for perm in set(itertools.permutations(slots, len(pred_values))):
        per_class = [0.0] * n_true
        for value, target in zip(pred_values, perm):
            if target is None:
                continue
            tp = sum(1 for p, t in zip(pred, truth_labels) if p == value and t == target)
            p_size = sum(1 for p in pred if p == value)
            t_size = sum(1 for t in truth_labels if t == target)
            if p_size + t_size:
                per_class[target] = 2.0 * tp / (p_size + t_size)
        best = max(best, sum(per_class) / n_true)
    return best


def silhouette_oracle(x, labels):
    """Per-point silhouette straight from the definition."""
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    values = []
    for i in range(x.shape[0]):
        own = [j for j in range(x.shape[0]) if labels[j] == labels[i] and j != i]
        if not own:
            values.append(0.0)
            continue
        a = np.mean([np.linalg.norm(x[i] - x[j]) for j in own])
        b = min(
            np.mean([np.linalg.norm(x[i] - x[j]) for j in range(x.shape[0]) if labels[j] == c])
            for c in set(labels.tolist())
            if c != labels[i]
        )
        values.append((b - a) / max(a, b))
    return values


def sgns_finite_difference_error(rng, d=5, m=3, h=1e-5):
    """Worst relative error of analytic gradients vs central differences."""
    u = rng.normal(size=d)
    v = rng.normal(size=d)
    negs = rng.normal(size=(m, d))
    _, gu, gv, gn = sgns_loss_and_grad(u, v, negs)

    def loss_at(u2, v2, n2):
        return sgns_loss_and_grad(u2, v2, n2)[0]

    worst = 0.0
    for idx in range(d):
        for vec, grad, apply in (
            (u, gu, lambda x: loss_at(x, v, negs)),
            (v, gv, lambda x: loss_at(u, x, negs)),
        ):
            step = np.zeros(d)
            step[idx] = h
            numeric = (apply(vec + step) - apply(vec - step)) / (2 * h)
            denom = max(abs(numeric), abs(grad[idx]), 1e-8)
            worst = max(worst, abs(numeric - grad[idx]) / denom)
    for k in range(m):
        for idx in range(d):
            stepm = np.zeros((m, d))
            stepm[k, idx] = h
            numeric = (loss_at(u, v, negs + stepm) - loss_at(u, v, negs - stepm)) / (2 * h)
            denom = max(abs(numeric), abs(gn[k, idx]), 1e-8)
            worst = max(worst, abs(numeric - gn[k, idx]) / denom)
    return worst


def reference_batch_loss(weights, centers, contexts, negatives):
    """Summed SGNS loss of a batch of pairs whose vectors are rows of one
    weight matrix, term by term from the definition."""
    total = 0.0
    for c, x, negs in zip(centers, contexts, negatives):
        u = weights[c]
        total += np.logaddexp(0.0, -(u @ weights[x]))
        for k in negs:
            total += np.logaddexp(0.0, u @ weights[k])
    return total


def central_difference_gradient(loss, x, h=1e-5):
    """Gradient of ``loss`` at the array ``x``, one central difference per
    element."""
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        step = np.zeros_like(x)
        step[idx] = h
        grad[idx] = (loss(x + step) - loss(x - step)) / (2 * h)
    return grad


def random_disconnected_graph(rng, with_isolated=True):
    """Components built from random spanning trees plus extra edges."""
    n_components = int(rng.integers(2, 5))
    ids = []
    edges = []
    counter = 0
    for _ in range(n_components):
        size = int(rng.integers(2, 6))
        members = [f"n{counter + i}" for i in range(size)]
        counter += size
        ids.extend(members)
        for i in range(1, size):
            j = int(rng.integers(0, i))
            edges.append((members[j], members[i], float(rng.uniform(0.5, 2.0))))
        for _ in range(size):
            a, b = rng.integers(0, size, size=2)
            if a != b:
                key = (members[min(a, b)], members[max(a, b)])
                if not any(e[:2] == key for e in edges):
                    edges.append((key[0], key[1], float(rng.uniform(0.5, 2.0))))
    n_isolated = int(rng.integers(0, 3)) if with_isolated else 0
    for _ in range(n_isolated):
        ids.append(f"iso{counter}")
        counter += 1
    return SpaceRelationGraph(ids, edges), n_components + n_isolated


def count_components(g):
    parent = list(range(g.num_nodes))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for u, v, _ in g.edges():
        a, b = find(g.index(u)), find(g.index(v))
        if a != b:
            parent[a] = b
    return len({find(i) for i in range(g.num_nodes)})


def same_corpus(a, b):
    """Every field of two walk corpora equal: the matrix in dtype and values, the rest by ==."""
    rest = [f.name for f in dataclasses.fields(a) if f.name != "matrix"]
    return (
        a.matrix.dtype == b.matrix.dtype
        and np.array_equal(a.matrix, b.matrix)
        and all(getattr(a, name) == getattr(b, name) for name in rest)
    )


# -- reference graph builders ----------------------------------------------------------
#
# The matrix builders as first written: one (id, id, weight) tuple per nonzero
# entry above the diagonal, handed to the string-edge constructor.  The
# arithmetic repeats the package's, so the weights must match bit for bit.


def _reference_edge_list_graph(ids, weights):
    iu, ju = np.nonzero(np.triu(weights, k=1))
    return SpaceRelationGraph(ids, [(ids[i], ids[j], float(weights[i, j])) for i, j in zip(iu, ju)])


def reference_srg_from_features(features, similarity="gaussian", sigma=1.0, sparsify="none", k_nn=None, tau=None):
    x = features.values
    if similarity == "gaussian":
        sq = np.sum(x**2, axis=1)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
        sim = np.exp(-d2 / (2.0 * sigma**2))
    else:
        unit = x / np.linalg.norm(x, axis=1)[:, None]
        sim = np.clip(unit @ unit.T, 0.0, 1.0)
    n = len(features.node_ids)
    np.fill_diagonal(sim, 0.0)
    keep = sim > 0.0
    if sparsify == "knn":
        sel = np.zeros_like(keep)
        for i in range(n):
            ranked = sorted((j for j in range(n) if keep[i, j]), key=lambda j: (-sim[i, j], j))
            sel[i, ranked[:k_nn]] = True
        keep &= sel | sel.T
    elif sparsify == "threshold":
        keep &= sim >= tau
    return _reference_edge_list_graph(features.node_ids, np.where(keep, sim, 0.0))


def reference_srg_from_interactions(od):
    # the mean (A + A^T) / 2 over its maximum; the 1/2 cancels, and halving
    # the smallest subnormal volume would round it to zero
    sym = od.volumes + od.volumes.T
    np.fill_diagonal(sym, 0.0)
    return _reference_edge_list_graph(od.node_ids, sym / sym.max())


# -- reference SGNS trainer ------------------------------------------------------------
#
# The minibatch trainer as first written: a pure-Python triple loop for the
# pairs, a per-token count loop for the negative table, a masked sigmoid, the
# alias draws as one np.where, and two row-wise np.add.at calls per batch.
# Only the alias table's setup is the package's.  The package's trainer must
# reproduce it bit for bit.

REFERENCE_LR_FLOOR_FACTOR = 1e-4
REFERENCE_NEGATIVE_EXPONENT = 0.75


def reference_pair_indices(corpus, window):
    index = {nid: i for i, nid in enumerate(corpus.node_ids)}
    centers = []
    contexts = []
    for walk in corpus.walks:
        idx = [index[nid] for nid in walk]
        length = len(idx)
        for i in range(length):
            lo = max(0, i - window)
            hi = min(length, i + window + 1)
            for j in range(lo, hi):
                if j != i:
                    centers.append(idx[i])
                    contexts.append(idx[j])
    return np.array(centers, dtype=np.int64), np.array(contexts, dtype=np.int64)


def reference_draw_many(table, rng, shape):
    cells = rng.integers(0, table.size, size=shape)
    keep = rng.random(shape) < table.accept[cells]
    return np.where(keep, cells, table.alias[cells])


def reference_alias_probabilities(table):
    """The law an alias table encodes: each cell, drawn with probability
    1/size, gives itself with its acceptance and its alias otherwise."""
    probs = np.zeros(table.size)
    for k in range(table.size):
        probs[k] += table.accept[k] / table.size
        probs[table.alias[k]] += (1.0 - table.accept[k]) / table.size
    return probs


def _reference_softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _reference_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _reference_negative_table(corpus):
    counts = np.zeros(len(corpus.node_ids))
    index = {nid: i for i, nid in enumerate(corpus.node_ids)}
    for walk in corpus.walks:
        for nid in walk:
            counts[index[nid]] += 1
    weights = counts**REFERENCE_NEGATIVE_EXPONENT
    return AliasTable(weights / weights.sum())


def reference_train(corpus, cfg):
    """(vectors, context_vectors, epoch_mean_loss) of the reference trainer,
    which trains in float32 and returns float64 copies."""
    n = len(corpus.node_ids)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    d = cfg.dim
    vectors = ((rng.random((n, d)) - 0.5) / d).astype(np.float32)
    contexts = np.zeros((n, d), dtype=np.float32)

    centers_idx, contexts_idx = reference_pair_indices(corpus, cfg.window)
    n_pairs = centers_idx.size
    epoch_losses = []
    if cfg.epochs == 0 or n_pairs == 0:
        return vectors.astype(float), contexts.astype(float), ()

    neg_table = _reference_negative_table(corpus)
    m = cfg.negatives
    total_updates = cfg.epochs * n_pairs
    done = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n_pairs)
        negs = reference_draw_many(neg_table, rng, (n_pairs, m))
        loss_sum = 0.0
        with np.errstate(invalid="ignore", over="ignore"):
            for start in range(0, n_pairs, cfg.batch_size):
                sel = order[start:start + cfg.batch_size]
                cen = centers_idx[sel]
                tgt = np.concatenate(
                    [contexts_idx[sel][:, None], negs[start:start + sel.size]], axis=1
                )
                u = vectors[cen]  # (B, d)
                v = contexts[tgt]  # (B, m+1, d)
                scores = np.einsum("bkd,bd->bk", v, u)
                loss_sum += float(
                    _reference_softplus(-scores[:, 0]).sum() + _reference_softplus(scores[:, 1:]).sum()
                )
                coef = _reference_sigmoid(scores)
                coef[:, 0] -= 1.0
                lr = cfg.initial_lr * max(1.0 - done / total_updates, REFERENCE_LR_FLOOR_FACTOR)
                grad_u = np.einsum("bk,bkd->bd", coef, v)
                grad_v = coef[:, :, None] * u[:, None, :]
                np.add.at(vectors, cen, -lr * grad_u)
                np.add.at(contexts, tgt.reshape(-1), (-lr * grad_v).reshape(-1, d))
                done += sel.size
        epoch_losses.append(loss_sum / n_pairs)
    return vectors.astype(float), contexts.astype(float), tuple(epoch_losses)


_REFERENCE_LINKAGES = ("single", "average", "complete")


def reference_agglomerate(distances: np.ndarray, linkage: str) -> list[tuple[int, int, float]]:
    """Full merge history [(cluster_a, cluster_b, distance), ...] by the
    O(N^3) textbook loop: merge the closest pair, update its distances.

    Input clusters are numbered 0..N-1; merge t creates cluster N+t (as in
    the usual linkage-matrix convention).  Ties break toward the smallest
    (a, b) pair.
    """
    if linkage not in _REFERENCE_LINKAGES:
        raise ValueError(f"linkage must be one of {_REFERENCE_LINKAGES}")
    dist = np.asarray(distances, dtype=float)
    n = dist.shape[0]
    if dist.shape != (n, n) or not np.allclose(dist, dist.T):
        raise ValueError("need a square symmetric distance matrix")
    active: dict[int, int] = {i: 1 for i in range(n)}  # cluster id -> size
    pair_dist: dict[tuple[int, int], float] = {
        (i, j): float(dist[i, j]) for i in range(n) for j in range(i + 1, n)
    }
    merges: list[tuple[int, int, float]] = []
    next_id = n
    while len(active) > 1:
        (a, b), d_ab = min(pair_dist.items(), key=lambda kv: (kv[1], kv[0]))
        merges.append((a, b, d_ab))
        size_a, size_b = active.pop(a), active.pop(b)
        del pair_dist[(a, b)]
        new_dists: dict[int, float] = {}
        for c in active:
            key_ac = (a, c) if a < c else (c, a)
            key_bc = (b, c) if b < c else (c, b)
            d_ac = pair_dist.pop(key_ac)
            d_bc = pair_dist.pop(key_bc)
            if linkage == "single":
                new_dists[c] = min(d_ac, d_bc)
            elif linkage == "complete":
                new_dists[c] = max(d_ac, d_bc)
            else:
                new_dists[c] = (size_a * d_ac + size_b * d_bc) / (size_a + size_b)
        for c, d_new in new_dists.items():
            pair_dist[(c, next_id)] = d_new
        active[next_id] = size_a + size_b
        next_id += 1
    return merges


def reference_hca_labels(distances, linkage, n):
    """Labels of ``reference_agglomerate`` cut at n clusters, each cluster
    numbered by the rank of its smallest member."""
    n_pts = len(distances)
    members = {i: {i} for i in range(n_pts)}
    for t, (a, b, _) in enumerate(reference_agglomerate(distances, linkage)[: n_pts - n]):
        members[n_pts + t] = members.pop(a) | members.pop(b)
    labels = np.empty(n_pts, dtype=np.int64)
    for c, rows in enumerate(sorted(members.values(), key=min)):
        labels[list(rows)] = c
    return labels


# -- reference validity indices -----------------------------------------------------
#
# The package's validity indices as first written: a Python loop over every
# point for the silhouette and over every cluster pair for Davies-Bouldin and
# Dunn.  The package's array version must return the same three floats.


def _reference_pairwise_distances(x: np.ndarray) -> np.ndarray:
    """Exact row-difference distances (no a^2+b^2-2ab cancellation)."""
    n = x.shape[0]
    dist = np.empty((n, n))
    for i in range(n):
        dist[i] = np.sqrt(((x - x[i]) ** 2).sum(axis=1))
        dist[i, i] = 0.0
    return dist


def reference_validity_indices(x, labels) -> IndexScores:
    """Davies-Bouldin, Dunn and mean silhouette for a labeled partition.

    Euclidean distances throughout.  A singleton cluster contributes
    silhouette 0 for its point.  Raises if fewer than 2 clusters are
    nonempty or all points coincide (Dunn undefined).
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != x.shape[0]:
        raise ValueError("one label per row required")
    clusters = np.unique(labels)
    if clusters.size < 2:
        raise ValueError("need at least 2 nonempty clusters")
    x = x - x.mean(axis=0)  # distances are translation-invariant; centering conditions them
    dist = _reference_pairwise_distances(x)
    members = [np.nonzero(labels == c)[0] for c in clusters]

    # Davies-Bouldin: mean over clusters of the worst (s_i + s_j) / d_ij
    centroids = np.array([x[m].mean(axis=0) for m in members])
    scatter = np.array(
        [np.linalg.norm(x[m] - centroids[i], axis=1).mean() for i, m in enumerate(members)]
    )
    centroid_dist = _reference_pairwise_distances(centroids)
    k = clusters.size
    ratios = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            d = centroid_dist[i, j]
            ratios[i, j] = np.inf if d == 0.0 else (scatter[i] + scatter[j]) / d
    davies_bouldin = float(ratios.max(axis=1).mean())

    # Dunn: min inter-cluster point distance / max intra-cluster diameter
    diameters = [dist[np.ix_(m, m)].max() for m in members]
    max_diameter = max(diameters)
    if max_diameter == 0.0:
        raise ValueError("all intra-cluster distances are zero; Dunn index undefined")
    min_inter = min(
        dist[np.ix_(members[i], members[j])].min()
        for i in range(k)
        for j in range(i + 1, k)
    )
    dunn = float(min_inter / max_diameter)

    # silhouette: (b - a) / max(a, b) per point
    sil = np.zeros(x.shape[0])
    for pos, lab in enumerate(labels):
        own = members[int(np.searchsorted(clusters, lab))]
        if own.size == 1:
            sil[pos] = 0.0
            continue
        a = dist[pos, own].sum() / (own.size - 1)
        b = min(
            dist[pos, m].mean() for c, m in zip(clusters, members) if c != lab
        )
        top = max(a, b)
        sil[pos] = 0.0 if top == 0.0 else (b - a) / top
    return IndexScores(davies_bouldin, dunn, float(sil.mean()))


def _reference_louvain_once(adj, self_loops, m, rng):
    """One Louvain run as pec.clusterer._louvain_once, scanning each node's
    neighbour communities in ascending id order and moving on a strictly
    larger gain only."""
    n = len(adj)
    groups = [[i] for i in range(n)]
    min_gain = 1e-9 * m
    while True:
        size = len(adj)
        community = list(range(size))
        strength = [sum(adj[i].values()) + 2.0 * self_loops[i] for i in range(size)]
        comm_total = strength[:]
        improved_any = False
        improved = True
        while improved:
            improved = False
            for i in rng.permutation(size):
                i = int(i)
                ci = community[i]
                link = {}
                for j, w in adj[i].items():
                    link[community[j]] = link.get(community[j], 0.0) + w
                comm_total[ci] -= strength[i]
                base = link.get(ci, 0.0) - comm_total[ci] * strength[i] / (2.0 * m)
                best_c, best_gain = ci, min_gain
                for c, w_ic in sorted(link.items()):
                    if c == ci:
                        continue
                    gain = w_ic - comm_total[c] * strength[i] / (2.0 * m) - base
                    if gain > best_gain:
                        best_gain = gain
                        best_c = c
                comm_total[best_c] += strength[i]
                community[i] = best_c
                if best_c != ci:
                    improved = improved_any = True
        if not improved_any:
            return groups
        remap = {c: i for i, c in enumerate(dict.fromkeys(community))}
        new_groups = [[] for _ in remap]
        for i, c in enumerate(community):
            new_groups[remap[c]].extend(groups[i])
        new_adj = [dict() for _ in remap]
        new_loops = [0.0] * len(remap)
        for i in range(len(adj)):
            ci = remap[community[i]]
            new_loops[ci] += self_loops[i]
            for j, w in adj[i].items():
                if j < i:
                    continue
                cj = remap[community[j]]
                if ci == cj:
                    new_loops[ci] += w
                else:
                    new_adj[ci][cj] = new_adj[ci].get(cj, 0.0) + w
                    new_adj[cj][ci] = new_adj[cj].get(ci, 0.0) + w
        adj, self_loops, groups = new_adj, new_loops, new_groups


def reference_louvain(g, seed=0, runs=5):
    """(labels, count, Q) of pec.clusterer.louvain, with every run through
    :func:`_reference_louvain_once`."""
    n = g.num_nodes
    m = float(np.cumsum(g.weights[g.entry_rows() < g.indices])[-1])
    adj = [dict(zip(g.neighbor_indices(i).tolist(), g.neighbor_weights(i).tolist())) for i in range(n)]
    best_labels, best_q = None, -np.inf
    for r in range(runs):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(derive_seed(seed, "louvain", r))))
        groups = _reference_louvain_once(adj, [0.0] * n, m, rng)
        labels = np.empty(n, dtype=np.int64)
        for c, members in enumerate(sorted(groups, key=min)):
            labels[members] = c
        q = modularity(g, labels)
        if q > best_q:
            best_q, best_labels = q, labels
    return best_labels, int(best_labels.max()) + 1, float(best_q)
