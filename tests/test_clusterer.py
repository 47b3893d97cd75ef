import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import brute_force_kmeans, reference_louvain, reference_validity_indices, silhouette_oracle

from pec.clusterer import (
    kmeans,
    louvain,
    modularity,
    select_n,
    validity_indices,
)
from pec.srg import SpaceRelationGraph, build_srg_from_adjacency, build_srg_from_interactions
from pec.synth import blobs, default_metro_spec, metro_network, planted_od

FIXTURE_1D = np.array([[0.0], [0.1], [10.0], [10.1]])


def test_kmeans_two_cluster_fixture_matches_brute_force():
    oracle_inertia, oracle_labels = brute_force_kmeans(FIXTURE_1D, 2)
    assert oracle_inertia == pytest.approx(0.01, abs=1e-12)
    result = kmeans(FIXTURE_1D, 2, seed=0, restarts=10)
    assert result.inertia == pytest.approx(oracle_inertia, abs=1e-9)
    assert sorted(result.centroids.ravel().tolist()) == pytest.approx([0.05, 10.05], abs=1e-12)
    # same partition as the oracle
    assert (result.labels[0] == result.labels[1]) and (result.labels[2] == result.labels[3])
    assert result.labels[0] != result.labels[2]


def test_kmeans_n_equals_points():
    x = np.array([[0.0], [1.0], [2.0]])
    result = kmeans(x, 3, seed=1)
    assert result.inertia == pytest.approx(0.0, abs=1e-12)
    assert len(set(result.labels.tolist())) == 3


def test_kmeans_duplication_doubles_inertia():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(12, 2))
    single = kmeans(x, 3, seed=5, restarts=30)
    doubled = kmeans(np.vstack([x, x]), 3, seed=5, restarts=30)
    assert doubled.inertia == pytest.approx(2.0 * single.inertia, rel=1e-6)
    order1 = np.lexsort(single.centroids.T)
    order2 = np.lexsort(doubled.centroids.T)
    assert np.allclose(single.centroids[order1], doubled.centroids[order2], atol=1e-6)


def test_kmeans_matches_exhaustive_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(6):
        n_pts = int(rng.integers(5, 9))
        n = int(rng.integers(2, 4))
        x = rng.normal(size=(n_pts, 2))
        oracle, _ = brute_force_kmeans(x, n)
        result = kmeans(x, n, seed=int(rng.integers(1 << 16)), restarts=50)
        assert result.inertia <= oracle * (1.0 + 1e-9) + 1e-12


def test_kmeans_inertia_history_non_increasing():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(40, 3))
    result = kmeans(x, 4, seed=7, restarts=3)
    hist = np.array(result.inertia_history)
    assert np.all(np.diff(hist) <= 1e-9)


def test_kmeans_centroids_are_member_means():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(25, 2))
    result = kmeans(x, 3, seed=3)
    for k in range(3):
        members = x[result.labels == k]
        assert members.size > 0
        assert np.allclose(result.centroids[k], members.mean(axis=0), atol=1e-12)
    recomputed = sum(
        float(((x[i] - result.centroids[result.labels[i]]) ** 2).sum()) for i in range(25)
    )
    assert result.inertia == pytest.approx(recomputed, abs=1e-9)


def test_kmeans_invalid_n():
    x = np.zeros((4, 1))
    with pytest.raises(ValueError):
        kmeans(x, 5)
    with pytest.raises(ValueError):
        kmeans(x, 1)


# -- validity indices -------------------------------------------------------------


def test_validity_indices_hand_values():
    labels = np.array([0, 0, 1, 1])
    scores = validity_indices(FIXTURE_1D, labels)
    # scatter 0.05 each, centroid distance 10 -> DB = 0.1/10
    assert scores.davies_bouldin == pytest.approx(0.01, abs=1e-9)
    # min inter point distance 9.9, max diameter 0.1
    assert scores.dunn == pytest.approx(99.0, abs=1e-9)
    oracle = silhouette_oracle(FIXTURE_1D, labels)
    assert oracle[0] == pytest.approx(9.95 / 10.05, abs=1e-12)
    assert scores.silhouette == pytest.approx(np.mean(oracle), abs=1e-12)


def test_indices_invariant_to_relabeling_translation_scaling():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(20, 3))
    labels = rng.integers(0, 3, size=20)
    while len(set(labels.tolist())) < 3:
        labels = rng.integers(0, 3, size=20)
    base = validity_indices(x, labels)
    permuted = validity_indices(x, (labels + 1) % 3)
    translated = validity_indices(x + 100.0, labels)
    scaled = validity_indices(3.7 * x, labels)
    for other in (permuted, translated, scaled):
        assert other.davies_bouldin == pytest.approx(base.davies_bouldin, rel=1e-9)
        assert other.dunn == pytest.approx(base.dunn, rel=1e-9)
        assert other.silhouette == pytest.approx(base.silhouette, rel=1e-9)


def test_singleton_cluster_silhouette_zero():
    x = np.array([[0.0], [5.0], [5.1]])
    labels = np.array([0, 1, 1])
    scores = validity_indices(x, labels)
    oracle = silhouette_oracle(x, labels)
    assert oracle[0] == 0.0
    assert scores.silhouette == pytest.approx(np.mean(oracle), abs=1e-12)


def test_tight_clusters_drive_db_to_zero():
    eps = 1e-9
    x = np.array([[0.0], [eps], [10.0], [10.0 + eps]])
    labels = np.array([0, 0, 1, 1])
    scores = validity_indices(x, labels)
    assert scores.davies_bouldin <= 1e-9  # zero-scatter limit
    assert scores.dunn >= 1e9


def test_perfectly_tight_clusters_dunn_undefined():
    x = np.array([[0.0], [0.0], [10.0], [10.0]])
    with pytest.raises(ValueError, match="Dunn"):
        validity_indices(x, np.array([0, 0, 1, 1]))


def test_identical_points_rejected():
    x = np.zeros((4, 2))
    with pytest.raises(ValueError, match="Dunn"):
        validity_indices(x, np.array([0, 0, 1, 1]))


def test_single_cluster_rejected():
    with pytest.raises(ValueError, match="clusters"):
        validity_indices(FIXTURE_1D, np.zeros(4, dtype=int))


def _indices_or_error(fn, x, labels):
    try:
        return fn(x, labels)
    except ValueError as exc:
        return str(exc)


@st.composite
def labeled_points(draw):
    """Points with labels of at least 2 clusters.  Small integer coordinates
    make coincident points, zero-diameter clusters and coincident centroids
    common, and so are singleton clusters when k is close to N."""
    n = draw(st.integers(3, 30))
    d = draw(st.integers(1, 4))
    k = draw(st.integers(2, n))
    coords = st.integers(-3, 3).map(float) | st.floats(-1e3, 1e3, allow_nan=False)
    x = np.array(draw(st.lists(coords, min_size=n * d, max_size=n * d))).reshape(n, d)
    labels = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    if np.unique(labels).size < 2:
        labels[0] = labels[1] + 1
    return x, labels


@settings(max_examples=150, deadline=None)
@given(case=labeled_points())
@example(case=(np.array([[-1.0], [1.0], [0.0]]), np.array([0, 0, 1])))  # coincident centroids
@example(case=(np.array([[0.0, 0.0], [1.0, 2.0], [5.0, 5.0], [6.0, 7.0]]), np.array([3, 1, 1, 1])))
def test_validity_indices_equal_reference_property(case):
    x, labels = case
    got = _indices_or_error(validity_indices, x, labels)
    assert got == _indices_or_error(reference_validity_indices, x, labels)


def test_coincident_centroids_make_davies_bouldin_infinite():
    scores = validity_indices(np.array([[-1.0], [1.0], [0.0]]), np.array([0, 0, 1]))
    assert scores.davies_bouldin == np.inf
    assert scores.dunn == pytest.approx(0.5, abs=1e-12)


# -- cluster count selection ----------------------------------------------------------


def test_select_n_three_blobs():
    feats, _ = blobs(3, 20, dims=2, spread=0.3, separation=8.0, seed=6)
    recommended, table = select_n(feats.values, range(2, 7), seed=1)
    assert recommended == 3
    assert set(table) == {2, 3, 4, 5, 6}


def test_select_n_single_candidate():
    feats, _ = blobs(2, 10, dims=2, spread=0.2, separation=6.0, seed=3)
    recommended, table = select_n(feats.values, [2], seed=0)
    assert recommended == 2 and list(table) == [2]


def test_select_n_four_blobs_across_seeds():
    hits = 0
    for seed in range(5):
        feats, _ = blobs(4, 15, dims=3, spread=0.25, separation=9.0, seed=100 + seed)
        recommended, _ = select_n(feats.values, range(2, 7), seed=seed)
        hits += recommended == 4
    assert hits >= 4


def test_select_n_degenerate_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        select_n(np.ones((6, 2)), range(2, 4))


# -- louvain -----------------------------------------------------------------------------


def two_triangles_with_bridge():
    return build_srg_from_adjacency(
        [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f"), ("c", "d")]
    )


def test_louvain_two_triangles_with_bridge():
    g = two_triangles_with_bridge()
    labels, count, q = louvain(g, seed=0)
    assert count == 2
    assert q == pytest.approx(5.0 / 14.0, abs=1e-9)
    assert len({labels[g.index(x)] for x in "abc"}) == 1
    assert len({labels[g.index(x)] for x in "def"}) == 1


def test_louvain_disconnected_triangles():
    g = build_srg_from_adjacency(
        [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f")]
    )
    labels, count, q = louvain(g, seed=0)
    assert count == 2
    assert q == pytest.approx(0.5, abs=1e-9)


def test_louvain_single_edge_prefers_one_community():
    g = build_srg_from_adjacency([("a", "b")])
    labels, count, q = louvain(g, seed=0)
    # enumerating both partitions: singletons give Q = -0.5, merged gives 0
    assert modularity(g, np.array([0, 1])) == pytest.approx(-0.5, abs=1e-12)
    assert count == 1
    assert q == pytest.approx(0.0, abs=1e-12)


def test_louvain_reported_q_matches_recomputation():
    rng = np.random.default_rng(23)
    for trial in range(8):
        n = int(rng.integers(6, 16))
        ids = [f"n{i}" for i in range(n)]
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.35:
                    edges.append((ids[i], ids[j], float(rng.uniform(0.1, 2.0))))
        if not edges:
            continue
        g = SpaceRelationGraph(ids, edges)
        labels, _, q = louvain(g, seed=trial)
        assert q == pytest.approx(modularity(g, labels), abs=1e-9)


@st.composite
def tied_weight_graphs(draw):
    """Graphs of 2-14 nodes with weights in {1, 2, 3}, so that many moves tie."""
    n = draw(st.integers(2, 14))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(chosen), max_size=len(chosen)))
    return SpaceRelationGraph([f"n{i}" for i in range(n)],
                              [(f"n{i}", f"n{j}", float(w)) for (i, j), w in zip(chosen, weights)])


@settings(max_examples=150, deadline=None)
@given(g=tied_weight_graphs(), seed=st.integers(0, 3))
@example(g=metro_network(default_metro_spec())[0], seed=0)  # fixture size: several aggregation levels
@example(g=build_srg_from_interactions(planted_od(4, 15, 9, 1, seed=1)[0]), seed=1)
def test_louvain_equals_reference_on_tied_weights(g, seed):
    labels, count, q = louvain(g, seed=seed, runs=3)
    ref_labels, ref_count, ref_q = reference_louvain(g, seed=seed, runs=3)
    assert np.array_equal(labels, ref_labels) and count == ref_count and q == ref_q


@pytest.mark.parametrize("blocks", [4, 8])
def test_louvain_memory_is_linear_in_stored_entries(blocks):
    """Louvain reads the CSR arrays in place, so its traced peak stays a small
    constant per stored entry (one dict per node took ~100 bytes an entry)."""
    g = build_srg_from_interactions(planted_od(blocks, 25, 9, 1, seed=1)[0])
    tracemalloc.start()
    try:
        louvain(g, runs=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / g.indices.size < 50


def test_louvain_edgeless_rejected():
    g = build_srg_from_adjacency([], node_ids=["a", "b"])
    with pytest.raises(ValueError, match="edge"):
        louvain(g)


def test_modularity_weighted_example():
    # weighted two-triangle graph: communities stay intact under weighting
    g = SpaceRelationGraph(
        ["a", "b", "c", "d"],
        [("a", "b", 2.0), ("a", "c", 2.0), ("b", "c", 2.0), ("c", "d", 1.0)],
    )
    labels, count, q = louvain(g, seed=1)
    assert q == pytest.approx(modularity(g, labels), abs=1e-12)
