"""Comparison clusterers: spectral clustering and agglomerative HCA.

Spectral clustering embeds nodes with the eigenvectors of the smallest
eigenvalues of the symmetric normalized Laplacian and hands the rows to
k-means.  HCA merges observations bottom-up under average linkage.  Both
are numpy ports of the scipy code they replace (``csgraph.laplacian`` and
``hierarchy.linkage(method="average")``), operation for operation, so they
give scipy's bytes, ties included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clusterer import kmeans
from .util import sq_distances

__all__ = [
    "SpectralEmbedding",
    "normalized_laplacian",
    "spectral_embedding",
    "spectral_rows",
    "spectral_cluster",
    "hca",
    "agglomerate",
    "cut",
]


@dataclass(frozen=True)
class SpectralEmbedding:
    """Coordinates from the d smallest normalized-Laplacian eigenpairs."""

    vectors: np.ndarray
    eigenvalues: np.ndarray


def normalized_laplacian(g) -> np.ndarray:
    """Symmetric normalized Laplacian I - D^-1/2 W D^-1/2 of the weight matrix.

    Zero-degree nodes get an all-zero row/column, so every isolated node
    contributes an eigenvalue 0 and the eigenvalue-0 multiplicity equals
    the number of connected components.  The steps and their order are those
    of scipy's dense ``csgraph.laplacian(w, normed=True)`` (whose first step,
    zeroing the diagonal, is void here), so the bytes are too.
    """
    m = g.to_weight_matrix()
    degree = m.sum(axis=0)
    isolated = degree == 0
    root = np.where(isolated, 1, np.sqrt(degree))
    m /= root
    m /= root[:, np.newaxis]
    m *= -1
    m.flat[:: m.shape[0] + 1] = 1 - isolated
    return m


def spectral_embedding(g, d: int) -> SpectralEmbedding:
    """Eigenvectors of the d smallest eigenvalues of the normalized Laplacian."""
    n = g.num_nodes
    if g.num_edges == 0:
        raise ValueError("spectral embedding needs at least one edge")
    if not (1 <= d <= n):
        raise ValueError(f"need 1 <= d <= {n}, got d={d}")
    lap = normalized_laplacian(g)
    eigenvalues, eigenvectors = np.linalg.eigh(lap)
    eigenvalues = eigenvalues[:d]
    if eigenvalues.min() < -1e-9 or eigenvalues.max() > 2.0 + 1e-9:
        raise AssertionError("normalized-Laplacian eigenvalues escaped [0, 2]")
    return SpectralEmbedding(
        vectors=eigenvectors[:, :d].copy(),
        eigenvalues=np.clip(eigenvalues, 0.0, 2.0),
    )


def spectral_rows(g, d: int) -> np.ndarray:
    """Spectral coordinates (:func:`spectral_embedding`), each row scaled to unit length.

    Rows of isolated nodes can be identically zero; they are left at the
    origin.
    """
    vectors = spectral_embedding(g, d).vectors
    norms = np.linalg.norm(vectors, axis=1)
    return vectors / np.where(norms > 0.0, norms, 1.0)[:, None]


def spectral_cluster(g, d: int, runs) -> list[np.ndarray]:
    """Labels of k-means on :func:`spectral_rows` (``d`` clipped to N), one
    run per (cluster count, seed) in ``runs``; the rows are computed once.
    Zero rows end up sharing whatever cluster claims the origin."""
    rows = spectral_rows(g, min(d, g.num_nodes))
    return [kmeans(rows, n, seed=seed).labels for n, seed in runs]


# -- agglomerative hierarchical clustering ------------------------------------

def agglomerate(distances: np.ndarray) -> list[tuple[int, int, float]]:
    """Full average-linkage merge history [(cluster_a, cluster_b, distance),
    ...] of scipy's ``hierarchy.linkage``.

    Input clusters are numbered 0..N-1; merge t creates cluster N+t (the
    linkage-matrix convention), and a < b in every merge.  Merge distances
    are non-decreasing.  Ties are broken as scipy 1.17's ``_hierarchy``
    breaks them (by its nearest-neighbour chain), not by the smallest
    (a, b) pair.  Only the upper triangle of ``distances`` is read.
    """
    dist = np.asarray(distances, dtype=float)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError("need a square symmetric distance matrix")
    n = dist.shape[0]
    if not np.all(np.isfinite(dist)):
        raise ValueError("the distance matrix has a non-finite entry")
    if not np.allclose(dist, dist.T):
        raise ValueError("need a square symmetric distance matrix")
    if n < 2:
        return []
    d = dist.copy()
    lower = np.tril_indices(n, -1)
    d[lower] = d.T[lower]
    np.fill_diagonal(d, np.inf)
    merges = _nn_chain(d)
    return _label(merges[np.argsort(merges[:, 2], kind="stable")], n)


def _nn_chain(d: np.ndarray) -> np.ndarray:
    """scipy's ``nn_chain`` for average linkage on the symmetric matrix ``d``
    (inf on the diagonal), which it overwrites: (x, y, distance) rows in
    merge order, x < y being the slots of the merged clusters; the merged
    cluster takes slot y, and slot x is set to inf."""
    n = d.shape[0]
    merges = np.empty((n - 1, 3))
    size = np.ones(n, dtype=np.int64)
    chain: list[int] = []
    for k in range(n - 1):
        if not chain:
            chain = [int(np.flatnonzero(size)[0])]
        while True:  # follow nearest neighbours until two are mutual
            x = chain[-1]
            y = int(np.argmin(d[x]))  # the first nearest
            if len(chain) > 1 and not d[x, y] < d[x, chain[-2]]:
                y = chain[-2]  # a tie keeps the previous element
                break
            chain.append(y)
        del chain[-2:]
        x, y = min(x, y), max(x, y)
        nx, ny = size[x], size[y]
        merges[k] = x, y, d[x, y]
        size[x], size[y] = 0, nx + ny
        # Lance-Williams update; inf stays inf in inactive slots and on the diagonal
        new = (nx * d[x] + ny * d[y]) / (nx + ny)
        d[y], d[:, y] = new, new
        d[x], d[:, x] = np.inf, np.inf
    return merges


def _label(merges: np.ndarray, n: int) -> list[tuple[int, int, float]]:
    """scipy's ``label``: each (x, y, distance) row, in order, names the
    clusters holding points x and y (a union-find over cluster numbers) and
    merges them into cluster n + t."""
    parent = list(range(2 * n - 1))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    out = []
    for t, (x, y, dist) in enumerate(merges.tolist()):
        a, b = sorted((find(int(x)), find(int(y))))
        parent[a] = parent[b] = n + t
        out.append((a, b, dist))
    return out


def hca(x, counts) -> list[np.ndarray]:
    """Labels of average-linkage clustering on the Euclidean distances of the
    rows of ``x``, one :func:`cut` of one merge history per cluster count in
    ``counts``.  Where merge distances tie, scipy's rule decides which merge
    comes first (see :func:`agglomerate`)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("x must be a 2-D matrix")
    if not np.all(np.isfinite(x)):
        raise ValueError("x has a non-finite entry")
    with np.errstate(over="ignore", invalid="ignore"):
        dist = np.sqrt(sq_distances(x, x))
    if not np.all(np.isfinite(dist)):
        row = int(np.argmax(np.abs(x).max(axis=1)))
        raise ValueError(f"the squared distances between the rows of x overflow; row {row} holds the largest entry")
    merges = agglomerate(dist)
    return [cut(merges, x.shape[0], n) for n in counts]


def cut(merges, n_pts: int, n: int) -> np.ndarray:
    """Labels of the ``n`` clusters left after the first ``n_pts - n`` merges
    of an :func:`agglomerate` history; clusters are numbered by their
    smallest member index."""
    if not (1 <= n <= n_pts):
        raise ValueError(f"need 1 <= n <= {n_pts}, got n={n}")
    members: dict[int, list[int]] = {i: [i] for i in range(n_pts)}
    for t, (a, b, _) in enumerate(merges[: n_pts - n]):
        members[n_pts + t] = members.pop(a) + members.pop(b)
    labels = np.zeros(n_pts, dtype=np.int64)
    for c, rows in enumerate(sorted(members.values(), key=min)):
        labels[rows] = c
    return labels
