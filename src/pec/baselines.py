"""Comparison clusterers: spectral clustering and agglomerative HCA.

Spectral clustering embeds nodes with the eigenvectors of the smallest
eigenvalues of the symmetric normalized Laplacian and hands the rows to
k-means.  HCA merges observations bottom-up under single, average or
complete linkage.  The Laplacian comes from ``scipy.sparse.csgraph`` and
the merge history from ``scipy.cluster.hierarchy.linkage``.  This is the
only module that loads scipy subpackages, each on first use, so commands
without baselines never import them.
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
    """Symmetric normalized Laplacian of the weight matrix (scipy's ``csgraph``).

    Zero-degree nodes get an all-zero row/column, so every isolated node
    contributes an eigenvalue 0 and the eigenvalue-0 multiplicity equals
    the number of connected components.
    """
    # loaded on first use: ~0.4 s and ~26 MB on one 2.1 GHz core
    from scipy.sparse import csgraph

    return csgraph.laplacian(g.to_weight_matrix(), normed=True)


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

_LINKAGES = ("single", "average", "complete")


def agglomerate(distances: np.ndarray, linkage: str) -> list[tuple[int, int, float]]:
    """Full merge history [(cluster_a, cluster_b, distance), ...] from scipy's
    ``linkage``.

    Input clusters are numbered 0..N-1; merge t creates cluster N+t (the
    linkage-matrix convention), and a < b in every merge.  Merge distances
    are non-decreasing.  Ties are broken by scipy's algorithms (minimum
    spanning tree for single, nearest-neighbour chain for average and
    complete), not by the smallest (a, b) pair.
    """
    if linkage not in _LINKAGES:
        raise ValueError(f"linkage must be one of {_LINKAGES}")
    dist = np.asarray(distances, dtype=float)
    n = dist.shape[0]
    if dist.shape != (n, n) or not np.allclose(dist, dist.T):
        raise ValueError("need a square symmetric distance matrix")
    if n < 2:
        return []
    # loaded on first use: ~0.47 s and ~31 MB alone, ~0.16 s after csgraph
    from scipy.cluster import hierarchy

    z = hierarchy.linkage(dist[np.triu_indices(n, 1)], method=linkage)
    return [(int(a), int(b), float(d)) for a, b, d, _ in z]


def hca(x, counts, linkage: str = "average") -> list[np.ndarray]:
    """Labels of agglomerative clustering on the Euclidean distances of the
    rows of ``x``, one :func:`cut` of one merge history per cluster count in
    ``counts``.  Where merge distances tie, scipy decides which merge comes
    first (see :func:`agglomerate`)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("x must be a 2-D matrix")
    merges = agglomerate(np.sqrt(sq_distances(x, x)), linkage)
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
