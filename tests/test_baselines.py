import warnings

import numpy as np
import pytest
from oracles import count_components, random_disconnected_graph, reference_agglomerate, reference_hca_labels

from pec.baselines import agglomerate, cut, hca, normalized_laplacian, spectral_cluster, spectral_embedding
from pec.srg import SpaceRelationGraph, build_srg_from_adjacency, build_srg_from_interactions
from pec.synth import default_metro_spec, metro_network, planted_od


# -- spectral embedding ---------------------------------------------------------


def test_k3_eigenvalues():
    g = build_srg_from_adjacency([("a", "b"), ("b", "c"), ("a", "c")])
    emb = spectral_embedding(g, 3)
    assert np.allclose(emb.eigenvalues, [0.0, 1.5, 1.5], atol=1e-8)


def test_zero_eigenvalue_multiplicity_equals_components():
    rng = np.random.default_rng(19)
    for _ in range(10):
        g, expected = random_disconnected_graph(rng)
        assert expected == count_components(g)
        emb = spectral_embedding(g, g.num_nodes)
        multiplicity = int(np.sum(emb.eigenvalues < 1e-8))
        assert multiplicity == expected


def test_eigenpair_residuals():
    rng = np.random.default_rng(29)
    for _ in range(5):
        g, _ = random_disconnected_graph(rng)
        lap = normalized_laplacian(g)
        emb = spectral_embedding(g, g.num_nodes)
        for k in range(g.num_nodes):
            v = emb.vectors[:, k]
            residual = np.max(np.abs(lap @ v - emb.eigenvalues[k] * v))
            assert residual <= 1e-8


def test_eigenvalues_in_normalized_bound():
    rng = np.random.default_rng(37)
    g, _ = random_disconnected_graph(rng)
    emb = spectral_embedding(g, g.num_nodes)
    assert np.all(emb.eigenvalues >= 0.0)
    assert np.all(emb.eigenvalues <= 2.0)
    assert np.all(np.diff(emb.eigenvalues) >= -1e-12)


def test_eigenvector_columns_orthonormal():
    rng = np.random.default_rng(41)
    g, _ = random_disconnected_graph(rng)
    emb = spectral_embedding(g, min(4, g.num_nodes))
    gram = emb.vectors.T @ emb.vectors
    assert np.allclose(gram, np.eye(emb.vectors.shape[1]), atol=1e-6)


def test_spectral_cluster_separates_disconnected_triangles():
    g = build_srg_from_adjacency(
        [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f")]
    )
    (labels,) = spectral_cluster(g, 2, [(2, 0)])
    first = {labels[g.index(x)] for x in "abc"}
    second = {labels[g.index(x)] for x in "def"}
    assert len(first) == 1 and len(second) == 1 and first != second


def test_spectral_rejects_edgeless_and_bad_d():
    g = build_srg_from_adjacency([], node_ids=["a", "b"])
    with pytest.raises(ValueError, match="edge"):
        spectral_embedding(g, 1)
    g2 = build_srg_from_adjacency([("a", "b")])
    with pytest.raises(ValueError, match="d"):
        spectral_embedding(g2, 3)


# -- agglomerative clustering ------------------------------------------------------


def test_hca_three_point_example():
    x = np.array([[0.0], [1.0], [10.0]])
    (labels,) = hca(x, [2])
    assert labels[0] == labels[1] != labels[2]


def test_hca_singletons_at_n_equals_points():
    x = np.array([[0.0], [3.0], [9.0]])
    (labels,) = hca(x, [3])
    assert sorted(labels.tolist()) == [0, 1, 2]


def test_merge_distances_non_decreasing():
    x = np.random.default_rng(57).normal(size=(12, 3))
    sq = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
    dists = [d for _, _, d in agglomerate(np.sqrt(sq))]
    assert all(b >= a - 1e-12 for a, b in zip(dists, dists[1:]))


def test_hca_distance_matrix_input():
    dist = np.array(
        [
            [0.0, 1.0, 8.0],
            [1.0, 0.0, 8.5],
            [8.0, 8.5, 0.0],
        ]
    )
    labels = cut(agglomerate(dist), 3, 2)
    assert labels[0] == labels[1] != labels[2]


def test_hca_deterministic_tie_break():
    # four equidistant-ish points with exact ties: smallest pair indices first
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    merges = agglomerate(np.abs(x - x.T))
    assert merges[0][:2] == (0, 1)


def test_hca_input_validation():
    with pytest.raises(ValueError, match="2-D"):
        hca(np.zeros(3), [2])
    with pytest.raises(ValueError, match="n"):
        hca(np.zeros((3, 1)), [4])


@pytest.mark.parametrize("dist", [np.float64(1.0), np.zeros(3), np.zeros((2, 3)), np.zeros((2, 2, 2))],
                         ids=["scalar", "vector", "wide", "cube"])
def test_agglomerate_rejects_a_matrix_that_is_not_square(dist):
    with pytest.raises(ValueError, match="need a square symmetric distance matrix"):
        agglomerate(dist)


@pytest.mark.parametrize("x, row", [([[1e200], [-1e200]], 0), ([[1.0], [1e200], [2.0]], 1), ([[1e154], [-1e154]], 0)])
def test_hca_rejects_rows_whose_squared_distances_overflow(x, row):
    # finite rows, but |x|^2 or |x - y|^2 is past the largest float: the
    # message names the rows of x, and no RuntimeWarning leaks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"rows of x overflow; row {row} holds the largest entry"):
            hca(x, [1])


# -- scipy against the reference merge loop ------------------------------------------


def _distances(x):
    return np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(-1))


def _tie_free_inputs(count, seed=61):
    rng = np.random.default_rng(seed)
    while count:
        x = rng.normal(size=(int(rng.integers(2, 26)), int(rng.integers(1, 5))))
        dist = _distances(x)
        condensed = dist[np.triu_indices_from(dist, k=1)]
        if np.unique(condensed).size == condensed.size:
            count -= 1
            yield dist, int(rng.integers(1, x.shape[0] + 1))


def test_agglomerate_matches_reference_without_ties():
    for dist, n in _tie_free_inputs(200):
        merges, expected = agglomerate(dist), reference_agglomerate(dist, "average")
        assert [m[:2] for m in merges] == [m[:2] for m in expected]
        assert np.allclose([m[2] for m in merges], [m[2] for m in expected], rtol=1e-12)
        labels = cut(merges, dist.shape[0], n)
        assert np.array_equal(labels, reference_hca_labels(dist, "average", n))


def _weight_row_cases():
    for seed in range(6):
        g, line_truth, transfer_truth = metro_network(default_metro_spec(seed=seed))
        for n in (transfer_truth.n_true, line_truth.n_true):
            yield g.to_weight_matrix(), n
    for seed in range(3):
        od, truth = planted_od(4, 15, intra_rate=9.0, inter_rate=1.0, seed=seed)
        yield build_srg_from_interactions(od).to_weight_matrix(), truth.n_true


def test_hca_matches_reference_on_metro_and_od_weight_rows():
    for x, n in _weight_row_cases():
        sq = np.sum(x**2, axis=1)
        dist = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0))
        (labels,) = hca(x, [n])
        assert np.array_equal(labels, reference_hca_labels(dist, "average", n))


def test_agglomerate_fewer_than_two_points():
    assert agglomerate(np.zeros((1, 1))) == []
    assert agglomerate(np.zeros((0, 0))) == []


# -- the ports against scipy, the code they replace -------------------------------------


def _grid_inputs(count, seed=71):
    # points on a small integer grid: many equal distances, so every tie rule is exercised
    rng = np.random.default_rng(seed)
    for _ in range(count):
        x = rng.integers(0, 4, size=(int(rng.integers(2, 41)), int(rng.integers(1, 4)))).astype(float)
        yield _distances(x)


def test_agglomerate_equals_scipy_linkage_on_tie_heavy_inputs():
    from scipy.cluster import hierarchy  # the oracle only

    for dist in _grid_inputs(300):
        condensed = dist[np.triu_indices_from(dist, k=1)]
        expected = [(int(a), int(b), float(d)) for a, b, d, _ in hierarchy.linkage(condensed, method="average")]
        assert agglomerate(dist) == expected


def test_normalized_laplacian_equals_scipy_csgraph():
    from scipy.sparse import csgraph  # the oracle only

    graphs = [metro_network(default_metro_spec(seed=seed))[0] for seed in range(4)]
    graphs += [build_srg_from_interactions(planted_od(4, 15, intra_rate=9.0, inter_rate=1.0, seed=s)[0]) for s in range(3)]
    # non-integer weights over several decades, and node "e" isolated
    graphs.append(SpaceRelationGraph(list("abcde"), [("a", "b", 0.3), ("b", "c", 1e-3), ("a", "c", 7.25), ("c", "d", 2.0 / 3.0)]))
    for g in graphs:
        assert np.array_equal(normalized_laplacian(g), csgraph.laplacian(g.to_weight_matrix(), normed=True))


def test_hca_and_agglomerate_reject_non_finite_input():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite entry"):
            hca([[0.0], [bad], [1.0]], [2])
        dist = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, bad], [2.0, bad, 0.0]])
        with pytest.raises(ValueError, match="non-finite entry"):
            agglomerate(dist)
