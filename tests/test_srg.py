import hashlib
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import reference_srg_from_features, reference_srg_from_interactions

from pec.srg import (
    FeatureMatrix,
    InteractionMatrix,
    SpaceRelationGraph,
    build_srg_from_adjacency,
    build_srg_from_features,
    build_srg_from_interactions,
    load_feature_csv,
    load_graph,
    load_od_csv,
    save_feature_csv,
    save_graph,
    save_od_csv,
)
from pec.synth import planted_od


def edge_map(g):
    return {(u, v): w for u, v, w in g.edges()}


# -- feature similarity (SRG-I) ------------------------------------------------


def test_gaussian_identical_rows_weight_one():
    feats = FeatureMatrix(["a", "b"], [[1.0, 2.0], [1.0, 2.0]])
    g = build_srg_from_features(feats, similarity="gaussian", sigma=0.7)
    assert edge_map(g) == {("a", "b"): 1.0}


def test_gaussian_closed_form_unit_distance():
    feats = FeatureMatrix(["a", "b"], [[0.0, 0.0], [1.0, 0.0]])
    g = build_srg_from_features(feats, similarity="gaussian", sigma=1.0)
    assert edge_map(g)[("a", "b")] == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_cosine_orthogonal_rows_no_edge():
    feats = FeatureMatrix(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
    g = build_srg_from_features(feats, similarity="cosine")
    assert g.num_edges == 0
    assert set(g.isolated_nodes()) == {"a", "b"}


def test_cosine_negative_similarity_clamped():
    feats = FeatureMatrix(["a", "b", "c"], [[1.0, 0.0], [-1.0, 0.0], [1.0, 1.0]])
    g = build_srg_from_features(feats, similarity="cosine")
    edges = edge_map(g)
    assert ("a", "b") not in edges  # anti-correlated -> unrelated
    assert edges[("a", "c")] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_cosine_zero_row_rejected():
    feats = FeatureMatrix(["a", "b"], [[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="zero"):
        build_srg_from_features(feats, similarity="cosine")


def test_sigma_defaults_to_one_for_gaussian_and_is_refused_with_cosine():
    feats = FeatureMatrix(["a", "b", "c"], [[0.0, 0.0], [1.0, 0.5], [2.0, -1.0]])
    assert build_srg_from_features(feats) == build_srg_from_features(feats, sigma=1.0)
    assert build_srg_from_features(feats) != build_srg_from_features(feats, sigma=2.0)
    with pytest.raises(ValueError, match=r"^cosine similarity takes no sigma, got sigma=1\.0$"):
        build_srg_from_features(feats, similarity="cosine", sigma=1.0)
    for sigma in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="gaussian similarity requires sigma > 0"):
            build_srg_from_features(feats, sigma=sigma)


def test_nonfinite_features_rejected():
    with pytest.raises(ValueError, match="finite"):
        FeatureMatrix(["a", "b"], [[0.0, np.inf], [1.0, 0.0]])


def test_gaussian_monotone_in_distance():
    rng = np.random.default_rng(7)
    values = rng.normal(size=(6, 3))
    feats = FeatureMatrix([f"n{i}" for i in range(6)], values)
    w = build_srg_from_features(feats, similarity="gaussian", sigma=1.3).to_weight_matrix()
    for i in range(6):
        for j in range(i + 1, 6):
            for k in range(j + 1, 6):
                d_ij = np.linalg.norm(values[i] - values[j])
                d_ik = np.linalg.norm(values[i] - values[k])
                if d_ij < d_ik:
                    assert w[i, j] > w[i, k]


def test_knn_sparsify_keeps_union_and_symmetry():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(8, 2))
    feats = FeatureMatrix([f"n{i}" for i in range(8)], values)
    full = build_srg_from_features(feats, sigma=1.0)
    sparse = build_srg_from_features(feats, sigma=1.0, k_nn=2)
    full_edges = edge_map(full)
    sparse_edges = edge_map(sparse)
    assert set(sparse_edges) <= set(full_edges)
    # every node's 2 strongest edges survive
    for i in range(8):
        nid = f"n{i}"
        ranked = sorted(
            ((w, u, v) for (u, v), w in full_edges.items() if nid in (u, v)), reverse=True
        )
        for w, u, v in ranked[:2]:
            assert (u, v) in sparse_edges


def test_knn_takes_a_whole_number_of_neighbors():
    feats = FeatureMatrix([f"n{i}" for i in range(6)], np.random.default_rng(3).normal(size=(6, 2)))
    assert build_srg_from_features(feats, k_nn=2.0) == build_srg_from_features(feats, k_nn=2)
    with pytest.raises(ValueError, match=r"^k_nn: expected a whole number, got 2\.5$"):
        build_srg_from_features(feats, k_nn=2.5)


def test_threshold_sparsify():
    feats = FeatureMatrix(["a", "b", "c"], [[0.0], [1.0], [2.0]])
    g = build_srg_from_features(feats, sigma=1.0, tau=0.5)
    # exp(-0.5) ~ 0.607 passes; exp(-2) ~ 0.135 does not
    assert set(edge_map(g)) == {("a", "b"), ("b", "c")}


def test_k_nn_and_tau_are_range_checked_and_never_both_given():
    feats = FeatureMatrix(["a", "b", "c"], [[0.0], [1.0], [2.0]])
    with pytest.raises(ValueError, match=r"^give k_nn or tau, not both \(got k_nn=1 and tau=0\.5\)$"):
        build_srg_from_features(feats, k_nn=1, tau=0.5)
    for kwargs, message in ((dict(k_nn=3), r"^k_nn must satisfy 1 <= k_nn < N = 3, got 3$"),
                            (dict(k_nn=0), r"^k_nn must satisfy 1 <= k_nn < N = 3, got 0$"),
                            (dict(tau=1.5), r"^tau must be in \[0, 1\], got 1\.5$")):
        with pytest.raises(ValueError, match=message):
            build_srg_from_features(feats, **kwargs)


def test_weights_in_unit_interval():
    rng = np.random.default_rng(11)
    feats = FeatureMatrix([f"n{i}" for i in range(5)], rng.normal(size=(5, 4)))
    for sim in ("gaussian", "cosine"):
        g = build_srg_from_features(feats, similarity=sim, sigma=2.0 if sim == "gaussian" else None)
        for _, _, w in g.edges():
            assert 0.0 < w <= 1.0


# -- interaction volumes (SRG-II) ----------------------------------------------


def test_interactions_two_node_example():
    od = InteractionMatrix(["a", "b"], [[0.0, 4.0], [2.0, 0.0]])
    g = build_srg_from_interactions(od)
    assert edge_map(g) == {("a", "b"): 1.0}


def test_interactions_uniform_offdiagonal():
    od = InteractionMatrix(["a", "b", "c"], [[0, 3, 3], [3, 0, 3], [3, 3, 0]])
    g = build_srg_from_interactions(od)
    assert all(w == 1.0 for _, _, w in g.edges())
    assert g.num_edges == 3


def test_interactions_three_node_example():
    od = InteractionMatrix(["a", "b", "c"], [[0, 2, 0], [2, 0, 1], [0, 1, 0]])
    g = build_srg_from_interactions(od)
    assert edge_map(g) == {("a", "b"): 1.0, ("b", "c"): 0.5}


def test_interactions_scale_invariance():
    rng = np.random.default_rng(5)
    vols = rng.poisson(4.0, size=(6, 6)).astype(float)
    ids = [f"n{i}" for i in range(6)]
    g1 = build_srg_from_interactions(InteractionMatrix(ids, vols))
    g2 = build_srg_from_interactions(InteractionMatrix(ids, 37.5 * vols))
    e1, e2 = edge_map(g1), edge_map(g2)
    assert set(e1) == set(e2)
    for key in e1:
        assert e1[key] == pytest.approx(e2[key], rel=1e-12)


def test_interactions_all_zero_rejected():
    od = InteractionMatrix(["a", "b"], [[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="volume"):
        build_srg_from_interactions(od)


def test_interactions_smallest_subnormal_volume_kept():
    # halving 5e-324 before normalizing would round the only pair to zero
    od = InteractionMatrix(["a", "b"], [[0.0, 0.0], [5e-324, 0.0]])
    assert edge_map(build_srg_from_interactions(od)) == {("a", "b"): 1.0}


def test_interactions_diagonal_ignored():
    od = InteractionMatrix(["a", "b"], [[100.0, 1.0], [1.0, 100.0]])
    g = build_srg_from_interactions(od)
    assert edge_map(g) == {("a", "b"): 1.0}


# -- matrix builders against the string edge list ---------------------------------


def _same_graph(g, ref):
    assert g == ref and g.fingerprint() == ref.fingerprint()


@settings(max_examples=100, deadline=None)
@given(
    values=st.integers(2, 8).flatmap(
        lambda n: st.lists(st.lists(st.floats(-10, 10), min_size=2, max_size=2), min_size=n, max_size=n)
    ),
    similarity=st.sampled_from(["gaussian", "cosine"]),
    sigma=st.floats(0.1, 10.0),
    sparsify=st.sampled_from(["none", "knn", "threshold"]),
    data=st.data(),
)
def test_feature_builder_matches_edge_list_reference(values, similarity, sigma, sparsify, data):
    # the reference names its mode; the builder takes it from the value given
    feats = FeatureMatrix([f"n{i}" for i in range(len(values))], values)
    # a zero row has no direction for cosine; test_cosine_zero_row_rejected covers it
    assume(similarity == "gaussian" or np.all(np.linalg.norm(feats.values, axis=1) > 0))
    k_nn = data.draw(st.integers(1, len(values) - 1)) if sparsify == "knn" else None
    tau = data.draw(st.floats(0.0, 1.0)) if sparsify == "threshold" else None
    kwargs = dict(similarity=similarity, k_nn=k_nn, tau=tau)
    ref = reference_srg_from_features(feats, sparsify=sparsify, sigma=sigma, **kwargs)
    # cosine takes no sigma; the reference ignores it
    _same_graph(build_srg_from_features(feats, sigma=sigma if similarity == "gaussian" else None, **kwargs), ref)


@settings(max_examples=100, deadline=None)
@given(
    volumes=st.integers(2, 8).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 5) | st.floats(0, 1e6), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_interaction_builder_matches_edge_list_reference(volumes):
    od = InteractionMatrix([f"n{i}" for i in range(len(volumes))], volumes)
    # no off-diagonal volume is rejected; test_interactions_all_zero_rejected covers it
    assume(np.any((od.volumes + od.volumes.T)[~np.eye(len(volumes), dtype=bool)] > 0))
    _same_graph(build_srg_from_interactions(od), reference_srg_from_interactions(od))


def test_planted_od_builder_matches_edge_list_reference():
    od, _ = planted_od(8, 25, 9.0, 1.0, seed=5)  # the od-dense benchmark input
    _same_graph(build_srg_from_interactions(od), reference_srg_from_interactions(od))


# -- plain adjacency -----------------------------------------------------------


def test_adjacency_path_graph_unit_weights():
    g = build_srg_from_adjacency([("A", "B"), ("B", "C")])
    assert edge_map(g) == {("A", "B"): 1.0, ("B", "C"): 1.0}


def test_adjacency_declared_isolated_nodes_flagged():
    g = build_srg_from_adjacency([], node_ids=["A", "B", "C"])
    assert g.num_edges == 0
    assert g.isolated_nodes() == ("A", "B", "C")


def test_adjacency_duplicate_edges_deduped():
    g = build_srg_from_adjacency([("A", "B"), ("B", "A"), ("A", "B")])
    assert g.num_edges == 1


def test_adjacency_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        build_srg_from_adjacency([("A", "A")])


# -- graph type invariants -------------------------------------------------------


def test_weight_lookup_symmetric():
    g = SpaceRelationGraph(["a", "b"], [("a", "b", 0.25)])
    w = g.to_weight_matrix()
    assert w[0, 1] == w[1, 0] == 0.25


def test_duplicate_edge_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        SpaceRelationGraph(["a", "b"], [("a", "b", 1.0), ("b", "a", 2.0)])


def test_nonpositive_weight_rejected():
    with pytest.raises(ValueError, match="weight"):
        SpaceRelationGraph(["a", "b"], [("a", "b", 0.0)])


def test_bad_node_ids_rejected():
    with pytest.raises(ValueError, match="unique"):
        SpaceRelationGraph(["a", "a"], [])
    with pytest.raises(ValueError, match="identifier"):
        SpaceRelationGraph(["a", "b c"], [])


def test_node_id_with_leading_hash_rejected():
    # graph and corpus files read a line starting with '#' as a comment
    with pytest.raises(ValueError, match="'#a'"):
        SpaceRelationGraph(["#a", "b", "c"], [("#a", "b", 1.0), ("b", "c", 1.0)])
    with pytest.raises(ValueError, match="identifier"):
        build_srg_from_adjacency([("#a", "b")])
    assert SpaceRelationGraph(["a#", "b"], [("a#", "b", 1.0)]).num_edges == 1


def test_node_id_not_encodable_as_utf8_rejected(tmp_path):
    # a lone surrogate is a valid str but cannot be written to a UTF-8 file
    with pytest.raises(ValueError, match=r"'\\ud800'.*UTF-8"):
        SpaceRelationGraph(["a", "\ud800"], [("a", "\ud800", 1.0)])
    g = SpaceRelationGraph(["a", "\u00e9\U0001f600"], [("a", "\u00e9\U0001f600", 1.0)])
    save_graph(g, tmp_path / "g.tsv")
    assert load_graph(tmp_path / "g.tsv") == g


def test_weight_matrix_round_trip():
    g = SpaceRelationGraph(["a", "b", "c"], [("a", "b", 0.5), ("b", "c", 0.125)])
    mat = g.to_weight_matrix()
    assert mat[0, 1] == mat[1, 0] == 0.5
    assert mat[1, 2] == 0.125
    assert mat[0, 2] == 0.0 and np.all(np.diag(mat) == 0.0)


@st.composite
def sparse_graphs(draw):
    # weights over ten decades; the last node, and any that no edge reaches, is isolated
    n = draw(st.integers(1, 9))
    ids = [f"v{i}" for i in range(n + 1)]
    pairs = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weight = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0, exclude_max=True), st.integers(-5, 4))
    return SpaceRelationGraph(ids, [(u, v, draw(weight)) for u, v in chosen])


@settings(max_examples=100, deadline=None)
@given(g=sparse_graphs())
def test_from_weight_matrix_inverts_to_weight_matrix(g):
    back = SpaceRelationGraph.from_weight_matrix(g.node_ids, g.to_weight_matrix())
    assert back == g and back.fingerprint() == g.fingerprint()
    assert back.isolated_nodes() == g.isolated_nodes()


def test_from_weight_matrix_rejects_bad_matrices():
    with pytest.raises(ValueError, match="order"):
        SpaceRelationGraph.from_weight_matrix(["a", "b"], np.ones((3, 3)))
    with pytest.raises(ValueError, match=r"edge \('a', 'b'\) has nonpositive or nonfinite weight -1\.0"):
        SpaceRelationGraph.from_weight_matrix(["a", "b"], [[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError, match="nonfinite weight nan"):
        SpaceRelationGraph.from_weight_matrix(["a", "b", "c"], [[0, 1, 0], [1, 0, np.nan], [0, np.nan, 0]])


@settings(max_examples=100, deadline=None)
@given(g=sparse_graphs())
@example(g=SpaceRelationGraph(["a", "b", "c"], [("a", "b", 0.1 + 0.2)]))  # 17 digits; "c" is isolated
def test_save_graph_returns_the_fingerprint_of_the_lines_it_writes(g):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.tsv"
        fingerprint = save_graph(g, path)
        lines = path.read_text(encoding="utf-8").splitlines()
    assert fingerprint == g.fingerprint()
    # node ids, each ended by a zero byte, then a one byte and the written edge lines
    h = hashlib.sha256(b"".join(nid.encode() + b"\x00" for nid in g.node_ids) + b"\x01")
    h.update("".join(f"{line}\n" for line in lines if line and not line.startswith("#")).encode())
    assert fingerprint == h.hexdigest()


def test_fingerprint_sensitive_to_structure():
    g1 = SpaceRelationGraph(["a", "b"], [("a", "b", 1.0)])
    g2 = SpaceRelationGraph(["a", "b"], [("a", "b", 0.5)])
    assert g1.fingerprint() != g2.fingerprint()
    assert g1.fingerprint() == SpaceRelationGraph(["a", "b"], [("a", "b", 1.0)]).fingerprint()
    assert g1 != g2 and g1 == SpaceRelationGraph(["a", "b"], [("a", "b", 1.0)])


# -- file round-trips ------------------------------------------------------------


def test_graph_tsv_round_trip(tmp_path):
    g = SpaceRelationGraph(
        ["a", "b", "c", "lonely"],
        [("a", "b", 1.0), ("b", "c", 1 / 3), ("a", "c", 0.9999999999999)],
    )
    path = tmp_path / "g.tsv"
    save_graph(g, path)
    assert load_graph(path) == g


def test_graph_tsv_single_edge(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("A\tB\t1.0\n", encoding="utf-8")
    g = load_graph(path)
    assert edge_map(g) == {("A", "B"): 1.0}


def test_graph_tsv_negative_weight_names_line(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("A\tB\t-1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        load_graph(path)


def test_graph_tsv_malformed_line(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("A\tB\t1.0\nA\tC\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        load_graph(path)


def test_graph_tsv_repeated_edge_names_both_lines(tmp_path):
    path = tmp_path / "dupedge.tsv"
    path.write_text("a\tc\t1.0\nc\tb\t1.0\na\tb\t1.0\nb\ta\t2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"dupedge\.tsv: line 4: edge \('a', 'b'\) repeats line 3$"):
        load_graph(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("#node\ta\n#node\tb\na\tc\t2.0\n", "line 3: edge references unknown node 'c'"),
        ("#node\ta\n#node\tb\n#node\ta\na\tb\t1.0\n", "line 3: node 'a' repeats line 1"),
        ("x\ty\t1.0\na,b\tc\t1.0\n", "line 2: invalid node identifier 'a,b'"),
    ],
)
def test_graph_tsv_bad_node_names_its_line(tmp_path, text, message):
    path = tmp_path / "g.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"g.tsv: {message}")):
        load_graph(path)


def test_feature_csv_round_trip(tmp_path):
    feats = FeatureMatrix(["a", "b"], [[0.1, 2.25], [-3.5, 1e-9]])
    path = tmp_path / "f.csv"
    save_feature_csv(feats, path)
    loaded = load_feature_csv(path)
    assert loaded.node_ids == feats.node_ids
    assert np.array_equal(loaded.values, feats.values)


def test_feature_csv_bad_header(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("id,f1\na,1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        load_feature_csv(path)


def test_od_csv_round_trip(tmp_path):
    od = InteractionMatrix(["a", "b"], [[0.0, 4.5], [2.0, 0.0]])
    path = tmp_path / "od.csv"
    save_od_csv(od, path)
    loaded = load_od_csv(path)
    assert loaded.node_ids == od.node_ids
    assert np.array_equal(loaded.volumes, od.volumes)


def test_od_csv_mismatched_ids(tmp_path):
    path = tmp_path / "od.csv"
    path.write_text("od,a,b\na,0,1\nc,1,0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="identifiers"):
        load_od_csv(path)


def test_feature_csv_repeated_id_names_file_and_lines(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("node,f1\na,1.0\nb,2.0\na,3.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"f\.csv: line 4: node 'a' repeats line 2$"):
        load_feature_csv(path)


def test_od_csv_negative_volume_names_file_and_line(tmp_path):
    path = tmp_path / "od.csv"
    path.write_text("od,a,b\na,0,1\nb,-1,0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"od\.csv: line 3: volume: must be nonnegative and finite, got -1$"):
        load_od_csv(path)
