"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured number (run with -s to watch).

The heavy end-to-end checks (8-10) use the synthetic metro and planted
interaction fixtures; seeds are pinned so runs are reproducible.
"""

import json
import math

import numpy as np
import pytest
from oracles import (
    brute_force_kmeans,
    brute_force_macro_f1,
    count_components,
    random_disconnected_graph,
    sgns_finite_difference_error,
)

from pec.baselines import normalized_laplacian, spectral_embedding
from pec.clusterer import kmeans, louvain, modularity, validity_indices
from pec.cli import main as cli_main
from pec.evaluator import (
    GroundTruth,
    interaction_frequency_report,
    macro_f1,
    noise_robustness,
    run_embedding_clustering,
    sweep,
)
from pec.srg import SpaceRelationGraph, build_srg_from_adjacency, build_srg_from_interactions
from pec.synth import default_metro_spec, metro_network, planted_od
from pec.util import sha256_file
from pec.walker import WalkConfig, build_alias_tables, generate_walks, save_corpus, transition_distribution


@pytest.fixture(scope="module")
def metro():
    return metro_network(default_metro_spec())


FIVE_NODE_GRAPH = SpaceRelationGraph(
    ["a", "b", "c", "d", "e"],
    [
        ("a", "b", 1.0),
        ("b", "c", 2.0),
        ("a", "c", 0.5),
        ("c", "d", 1.5),
        ("d", "e", 0.25),
    ],
)


def test_criterion_01_walk_transition_correctness():
    g = FIVE_NODE_GRAPH
    p, q = 2.0, 0.5
    sampler = build_alias_tables(g, p, q)
    rng = np.random.default_rng(101)
    worst_l1 = 0.0
    states = 0
    for u, v, _ in g.edges():
        for prev, cur in ((u, v), (v, u)):
            analytic = transition_distribution(g, prev, cur, p, q)
            assert sum(analytic.values()) == pytest.approx(1.0, abs=1e-12)
            pi, ci = g.index(prev), g.index(cur)
            nbrs = g.neighbor_indices(ci)
            draws = sampler.advance(np.full(100_000, pi), np.full(100_000, ci), rng) - g.indptr[ci]
            freq = np.bincount(draws, minlength=nbrs.size) / draws.size
            target = np.array([analytic[g.node_ids[int(x)]] for x in nbrs])
            worst_l1 = max(worst_l1, float(np.abs(freq - target).sum()))
            states += 1
    assert worst_l1 <= 0.01
    # p = q = 1 is exactly the weight-proportional walk
    for u, v, _ in g.edges():
        for prev, cur in ((u, v), (v, u)):
            dist = transition_distribution(g, prev, cur, 1.0, 1.0)
            ci = g.index(cur)
            wts = g.neighbor_weights(ci)
            for k, x in enumerate(g.neighbor_indices(ci)):
                assert dist[g.node_ids[int(x)]] == wts[k] / wts.sum()
    print(f"\nACCEPTANCE 1: PASS - {states} states x 1e5 draws, worst L1 {worst_l1:.4f} <= 0.01; "
          "p=q=1 reduces exactly to the weighted walk")


def test_criterion_02_sgns_gradients():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        m = int(rng.integers(1, 6))
        worst = max(worst, sgns_finite_difference_error(rng, d=d, m=m))
    assert worst <= 1e-4
    print(f"\nACCEPTANCE 2: PASS - 100 random gradient checks, worst relative error {worst:.2e} <= 1e-4")


def test_criterion_03_kmeans_global_optimum():
    rng = np.random.default_rng(303)
    for trial in range(20):
        n_pts = int(rng.integers(5, 11))
        n = int(rng.integers(2, 4))
        x = rng.normal(size=(n_pts, int(rng.integers(1, 3))))
        oracle, _ = brute_force_kmeans(x, n)
        result = kmeans(x, n, seed=trial, restarts=50)
        assert result.inertia <= oracle * (1.0 + 1e-9) + 1e-12, (
            f"instance {trial}: {result.inertia} vs exhaustive {oracle}"
        )
    print("\nACCEPTANCE 3: PASS - 20 instances (N<=10, n<=3): 50-restart k-means matches "
          "exhaustive-enumeration optimum")


def test_criterion_04_validity_index_hand_values():
    x = np.array([[0.0], [0.1], [10.0], [10.1]])
    labels = np.array([0, 0, 1, 1])
    scores = validity_indices(x, labels)
    assert scores.davies_bouldin == pytest.approx(0.01, abs=1e-9)
    assert scores.dunn == pytest.approx(99.0, abs=1e-9)
    # hand derivation: points 0 and 3 have a=0.1, b=10.05; points 1 and 2
    # have a=0.1, b=9.95
    edge_point = (10.05 - 0.1) / 10.05
    inner_point = (9.95 - 0.1) / 9.95
    assert edge_point == pytest.approx(0.99005, abs=1e-5)
    hand_mean = (2 * edge_point + 2 * inner_point) / 4
    assert scores.silhouette == pytest.approx(hand_mean, abs=1e-5)
    assert scores.silhouette == pytest.approx(hand_mean, abs=1e-12)
    print(f"\nACCEPTANCE 4: PASS - DB=0.01, Dunn=99.0 (1e-9); silhouette mean {scores.silhouette:.8f} "
          f"matches hand value {hand_mean:.8f} (per-point 0.99005 / 0.98995)")


def test_criterion_05_macro_f1_matching_oracle():
    rng = np.random.default_rng(505)
    for trial in range(50):
        n_nodes = int(rng.integers(8, 16))
        n_true = int(rng.integers(2, 6))
        truth_labels = rng.integers(0, n_true, size=n_nodes)
        while len(set(truth_labels.tolist())) < n_true:
            truth_labels = rng.integers(0, n_true, size=n_nodes)
        pred = rng.integers(0, int(rng.integers(2, 7)), size=n_nodes)
        truth = GroundTruth.from_labels([f"n{i}" for i in range(n_nodes)], truth_labels)
        ours = macro_f1(pred, truth).macro_f1
        oracle = brute_force_macro_f1(pred.tolist(), truth_labels.tolist(), n_true)
        assert ours == pytest.approx(oracle, abs=1e-12)
    truth_labels = rng.integers(0, 4, size=12)
    truth = GroundTruth.from_labels([f"n{i}" for i in range(12)], truth_labels)
    pred = rng.integers(0, 4, size=12)
    base = macro_f1(pred, truth).macro_f1
    for _ in range(100):
        relabel = rng.permutation(4)
        assert macro_f1(relabel[pred], truth).macro_f1 == pytest.approx(base, abs=1e-12)
    print("\nACCEPTANCE 5: PASS - assignment matching equals brute force on 50 instances (n<=5); "
          "invariant under 100 fuzzed relabelings")


def test_criterion_06_louvain_hand_value_and_recomputation():
    g = build_srg_from_adjacency(
        [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f"), ("c", "d")]
    )
    labels, count, q = louvain(g, seed=0)
    assert count == 2
    assert q == pytest.approx(5.0 / 14.0, abs=1e-9)
    assert q == pytest.approx(modularity(g, labels), abs=1e-9)
    rng = np.random.default_rng(606)
    for trial in range(10):
        graph, _ = random_disconnected_graph(rng, with_isolated=False)
        labels, _, reported = louvain(graph, seed=trial)
        assert reported == pytest.approx(modularity(graph, labels), abs=1e-9)
    print(f"\nACCEPTANCE 6: PASS - bridged triangles give 2 communities, Q={q:.9f} = 5/14; "
          "reported Q equals recomputed Q on 10 random graphs")


def test_criterion_07_spectral_baseline():
    k3 = build_srg_from_adjacency([("a", "b"), ("b", "c"), ("a", "c")])
    emb = spectral_embedding(k3, 3)
    assert np.allclose(emb.eigenvalues, [0.0, 1.5, 1.5], atol=1e-8)
    rng = np.random.default_rng(707)
    worst_residual = 0.0
    for _ in range(10):
        g, expected = random_disconnected_graph(rng)
        assert expected == count_components(g)
        full = spectral_embedding(g, g.num_nodes)
        multiplicity = int(np.sum(full.eigenvalues < 1e-8))
        assert multiplicity == expected
        lap = normalized_laplacian(g)
        for k in range(g.num_nodes):
            vec = full.vectors[:, k]
            worst_residual = max(
                worst_residual, float(np.max(np.abs(lap @ vec - full.eigenvalues[k] * vec)))
            )
    assert worst_residual <= 1e-8
    print(f"\nACCEPTANCE 7: PASS - K3 eigenvalues (0, 1.5, 1.5); zero-eigenvalue multiplicity = "
          f"components on 10 graphs; worst eigenpair residual {worst_residual:.1e} <= 1e-8")


def test_criterion_08_planted_block_recovery():
    params = {"p": 1.0, "q": 1.0, "dim": 16, "walk_length": 20, "num_walks": 10, "window": 5}
    scores = []
    for seed in range(5):
        od, truth = planted_od(4, 15, intra_rate=9.0, inter_rate=1.0, seed=seed)
        g = build_srg_from_interactions(od)
        labels, _ = run_embedding_clustering(g, 4, params=params, seed=1000 + seed)
        scores.append(macro_f1(labels, truth, node_ids=g.node_ids).macro_f1)
        freq = interaction_frequency_report(od, labels)
        for row in range(freq.matrix.shape[0]):
            assert freq.matrix[row, row] == freq.matrix[row].max(), (
                f"seed {seed}: region {row} diagonal is not the row maximum"
            )
    mean_score = float(np.mean(scores))
    assert mean_score >= 0.95
    print(f"\nACCEPTANCE 8: PASS - planted 4x15 blocks recovered, mean Macro-F1 {mean_score:.3f} "
          ">= 0.95 over 5 seeds; frequency-report diagonal dominates every row")


def test_criterion_09_hyperparameter_interaction(metro):
    g, line_truth, transfer_truth = metro
    report = sweep(
        g,
        [line_truth, transfer_truth],
        grid={"p": [0.25, 4.0], "q": [0.25, 4.0]},
        base_params={"dim": 5, "walk_length": 10, "num_walks": 10, "window": 5},
        repeats=20,
        seed=42,
    )
    best_line = report.best_cell(line_truth.name)
    best_transfer = report.best_cell(transfer_truth.name)
    assert best_line != best_transfer, (
        f"no interaction: both truths peak at {best_line}"
    )
    print(f"\nACCEPTANCE 9: PASS - line-membership peaks at {best_line}, transfer-vs-not at "
          f"{best_transfer} (direction reported, not asserted)")


def test_criterion_10_noise_robustness(metro):
    g, _, transfer_truth = metro
    params = {"p": 4.0, "q": 1.0, "dim": 5, "walk_length": 10, "num_walks": 10, "window": 5}
    noise = [("gaussian", s) for s in (0.2, 0.5, 1.0, 2.0, 4.0)] + [
        ("poisson", lam) for lam in (1.0, 2.0, 4.0, 8.0, 16.0)
    ]
    report = noise_robustness(
        g, transfer_truth, noise=noise, params=params, repeats=20, seed=77
    )
    drops = {}
    for label, curve in report.curves.items():
        drop = report.baseline_mean - curve["mean"]
        drops[label] = drop
        assert drop <= 0.10, f"{label}: Macro-F1 dropped {drop:.3f} > 0.10"
    worst = max(drops.values())
    print(f"\nACCEPTANCE 10: PASS - unperturbed {report.baseline_mean:.3f}; worst drop over "
          f"{len(noise)} noise settings x 20 repeats is {worst:.3f} <= 0.10")


def test_criterion_11_determinism(tmp_path, metro):
    od, _ = planted_od(3, 8, intra_rate=8.0, inter_rate=1.0, seed=5)
    from pec.srg import save_od_csv

    od_path = tmp_path / "od.csv"
    save_od_csv(od, od_path)
    args = [
        "pipeline", "--od", str(od_path), "--n-clusters", "3",
        "--walk-length", "8", "--num-walks", "3", "--dim", "4", "--epochs", "2",
        "--seed", "99",
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(args + ["--out-dir", str(out1)]) == 0
    first_manifest = (out1 / "manifest.json").read_bytes()
    assert cli_main(args + ["--out-dir", str(out1)]) == 0  # rerun in place
    assert (out1 / "manifest.json").read_bytes() == first_manifest
    assert cli_main(args + ["--workers", "4", "--out-dir", str(out2)]) == 0
    outputs = json.loads(first_manifest)["outputs"]
    for name, digest in outputs.items():
        assert sha256_file(out1 / name) == digest
        assert sha256_file(out2 / name) == digest

    g, _, _ = metro
    cfg = WalkConfig(p=4.0, q=0.25, walk_length=10, num_walks=5, seed=3)
    c1, c2 = tmp_path / "c1.txt", tmp_path / "c2.txt"
    save_corpus(generate_walks(g, cfg), c1)
    save_corpus(generate_walks(g, cfg), c2)
    assert c1.read_bytes() == c2.read_bytes()
    print(f"\nACCEPTANCE 11: PASS - repeated pipeline runs byte-identical across {len(outputs)} "
          "artifacts incl. manifest, for 1 and 4 workers; repeated walk corpora identical")


def test_criterion_12_baseline_comparison_table(metro):
    g, line_truth, transfer_truth = metro
    report = sweep(
        g,
        [line_truth, transfer_truth],
        grid={"p": [1.0, 4.0]},
        base_params={"dim": 5, "walk_length": 8, "num_walks": 4, "window": 5, "epochs": 2},
        repeats=2,
        seed=7,
        include_baselines=True,
    )
    payload = report.to_json()
    for truth_name in ("line-membership", "transfer-vs-not"):
        for row in payload["tables"][truth_name]:
            assert row["error"] is None
            assert {"mean", "sc_macro_f1", "hca_macro_f1"} <= set(row)
    print("\nACCEPTANCE 12: PASS - sweep table carries PEM, SC and HCA Macro-F1 columns "
          "for both metro ground truths")
