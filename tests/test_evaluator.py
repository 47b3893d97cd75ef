import csv
import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from oracles import brute_force_macro_f1

import pec.baselines
import pec.embedder
import pec.evaluator
from pec.clusterer import kmeans
from pec.embedder import TrainingDiverged, pair_count, train
from pec.evaluator import (
    GroundTruth,
    NoiseSpec,
    SweepCell,
    SweepReport,
    check_noise,
    interaction_frequency_report,
    load_ground_truth,
    load_labels,
    macro_f1,
    noise_robustness,
    perturb,
    save_labels,
    sweep,
)
from pec.srg import InteractionMatrix, build_srg_from_adjacency
from pec.synth import default_metro_spec, metro_network, MetroSpec, planted_od
from pec.util import derive_seed
from pec.walker import generate_walks


def truth_of(labels, name="t"):
    return GroundTruth.from_labels([f"n{i}" for i in range(len(labels))], labels, name=name)


def test_perfect_prediction():
    truth = truth_of([0, 1, 1, 2, 0])
    assert macro_f1(np.array([0, 1, 1, 2, 0]), truth).macro_f1 == 1.0


def test_label_swap_invariance():
    truth = truth_of([0, 1, 1, 0])
    report = macro_f1(np.array([5, 3, 3, 5]), truth)
    assert report.macro_f1 == 1.0
    assert report.matching == {5: 0, 3: 1}


def test_matching_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n_nodes = int(rng.integers(6, 12))
        n_true = int(rng.integers(2, 4))
        truth_labels = rng.integers(0, n_true, size=n_nodes)
        while len(set(truth_labels.tolist())) < n_true:
            truth_labels = rng.integers(0, n_true, size=n_nodes)
        pred = rng.integers(0, int(rng.integers(2, 5)), size=n_nodes)
        truth = truth_of(truth_labels.tolist())
        ours = macro_f1(pred, truth).macro_f1
        oracle = brute_force_macro_f1(pred.tolist(), truth_labels.tolist(), n_true)
        assert ours == pytest.approx(oracle, abs=1e-12)


def _contingency_f1(rng, size):
    """F1 matrix of random predictions against random classes, zero-padded to square."""
    n_pred, n_true = int(rng.integers(1, size + 1)), int(rng.integers(1, size + 1))
    nodes = int(rng.integers(1, 40))
    counts = np.zeros((size, size))
    np.add.at(counts, (rng.integers(0, n_pred, nodes), rng.integers(0, n_true, nodes)), 1.0)
    denom = counts.sum(axis=1)[:, None] + counts.sum(axis=0)[None, :]
    return np.where(denom > 0, 2.0 * counts / np.where(denom > 0, denom, 1.0), 0.0)


def test_max_assignment_equals_scipy():
    from scipy.optimize import linear_sum_assignment  # the oracle only

    def padded_rows(rng, n):
        m = rng.random((n, n))
        m[int(rng.integers(0, n)):] = 0.0
        return m

    kinds = {
        "uniform": lambda rng, n: rng.random((n, n)),
        "small-int": lambda rng, n: rng.integers(0, 3, (n, n)).astype(float),
        "zero": lambda rng, n: np.zeros((n, n)),
        "constant": lambda rng, n: np.full((n, n), rng.random()),
        "padded-rows": padded_rows,
        "contingency-f1": _contingency_f1,
    }
    rng = np.random.default_rng(11)
    for kind, make in kinds.items():
        for trial in range(900):
            m = make(rng, 1 + trial % 12)
            rows, cols = pec.evaluator._max_assignment(m)
            want_rows, want_cols = linear_sum_assignment(m, maximize=True)
            assert rows.tolist() == want_rows.tolist(), (kind, m)
            assert cols.tolist() == want_cols.tolist(), (kind, m)


def test_prediction_permutation_invariance():
    rng = np.random.default_rng(5)
    truth_labels = rng.integers(0, 3, size=10)
    truth = truth_of(truth_labels.tolist())
    pred = rng.integers(0, 3, size=10)
    base = macro_f1(pred, truth).macro_f1
    for _ in range(20):
        mapping = rng.permutation(3)
        assert macro_f1(mapping[pred], truth).macro_f1 == pytest.approx(base, abs=1e-12)


def test_imperfect_prediction_below_one():
    truth = truth_of([0, 0, 1, 1])
    assert macro_f1(np.array([0, 1, 0, 1]), truth).macro_f1 < 1.0


def test_node_alignment_by_ids():
    truth = truth_of([0, 0, 1])
    report = macro_f1(np.array([7, 2, 2]), truth, node_ids=["n2", "n0", "n1"])
    # reordered: n0 -> 2, n1 -> 2, n2 -> 7 equals truth up to naming
    assert report.macro_f1 == 1.0


def test_node_set_mismatch_rejected():
    truth = truth_of([0, 1])
    with pytest.raises(ValueError, match="node set"):
        macro_f1(np.array([0, 1]), truth, node_ids=["a", "b"])


def test_report_mean_consistency():
    truth = truth_of([0, 0, 1, 2])
    report = macro_f1(np.array([0, 0, 1, 1]), truth)
    assert report.macro_f1 == pytest.approx(float(np.mean(report.per_class_f1)), abs=1e-12)


# -- ground truth type ----------------------------------------------------------------


def test_ground_truth_contiguity_enforced():
    with pytest.raises(ValueError, match="contiguous"):
        GroundTruth(("a", "b"), np.array([0, 2]), 3)


def test_ground_truth_repeated_node_id_rejected():
    with pytest.raises(ValueError, match="node 'a' repeats"):
        GroundTruth(("a", "a", "b"), [0, 1, 1], 2)


def test_ground_truth_from_labels_remaps():
    truth = GroundTruth.from_labels(["a", "b", "c"], [10, -5, 10])
    assert truth.n_true == 2
    assert truth.labels.tolist() == [1, 0, 1]


def test_labels_csv_round_trip(tmp_path):
    path = tmp_path / "labels.csv"
    save_labels(["a", "b"], [3, 1], path)
    ids, labels = load_labels(path)
    assert ids == ("a", "b") and labels.tolist() == [3, 1]
    truth = load_ground_truth(path, name="demo")
    assert truth.name == "demo" and truth.labels.tolist() == [1, 0]


def test_labels_csv_repeated_node_names_path_and_line(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("node_id,label\na,0\nb,1\na,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"labels\.csv: line 4: node 'a' repeats line 2"):
        load_labels(path)


# -- interaction frequency ----------------------------------------------------------------


def test_frequency_single_region():
    od = InteractionMatrix(["a", "b"], [[0, 2], [3, 0]])
    report = interaction_frequency_report(od, [0, 0])
    assert report.matrix.tolist() == [[1.0]]


def test_frequency_block_diagonal_identity():
    od, truth = planted_od(3, 4, intra_rate=5.0, inter_rate=1e-9, seed=1)
    volumes = od.volumes.copy()
    same = truth.labels[:, None] == truth.labels[None, :]
    volumes[~same] = 0.0
    report = interaction_frequency_report(
        InteractionMatrix(od.node_ids, volumes), truth.labels
    )
    assert np.allclose(report.matrix, np.eye(3), atol=1e-12)


def test_frequency_rows_stochastic_and_scale_invariant():
    od, truth = planted_od(4, 6, intra_rate=6.0, inter_rate=2.0, seed=9)
    report = interaction_frequency_report(od, truth.labels)
    assert report.flagged_rows == ()
    assert np.allclose(report.matrix.sum(axis=1), 1.0, atol=1e-9)
    scaled = interaction_frequency_report(
        InteractionMatrix(od.node_ids, od.volumes * 12.5), truth.labels
    )
    assert np.allclose(report.matrix, scaled.matrix, atol=1e-12)


def test_frequency_zero_outgoing_region_flagged():
    od = InteractionMatrix(["a", "b", "c"], [[0, 1, 1], [2, 0, 1], [0, 0, 0]])
    report = interaction_frequency_report(od, [0, 0, 1])
    assert report.flagged_rows == (1,)
    assert np.all(report.matrix[1] == 0.0)


# -- perturbation -----------------------------------------------------------------------


def test_perturb_zero_sigma_identity():
    mat = np.arange(9.0).reshape(3, 3)
    out = perturb(mat, NoiseSpec("gaussian", 0.0, seed=3))
    assert np.array_equal(out, mat)


def test_perturb_noise_component_in_unit_interval():
    mat = np.zeros((20, 20))
    for spec in (NoiseSpec("gaussian", 2.0, seed=1), NoiseSpec("poisson", 4.0, seed=2)):
        out = perturb(mat, spec)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert out.max() == pytest.approx(1.0, abs=1e-12)


def test_perturb_deterministic():
    mat = np.ones((6, 6))
    spec = NoiseSpec("poisson", 8.0, seed=11)
    assert np.array_equal(perturb(mat, spec), perturb(mat, spec))


def test_perturb_scale_noise_is_sigma_invariant():
    # min-max processing removes the gaussian scale entirely for a fixed seed
    mat = np.ones((10, 10))
    a = perturb(mat, NoiseSpec("gaussian", 0.2, seed=5))
    b = perturb(mat, NoiseSpec("gaussian", 4.0, seed=5))
    assert np.allclose(a, b, atol=1e-12)


def test_noise_spec_validation(tiny_metro, monkeypatch):
    with pytest.raises(ValueError, match="kind"):
        NoiseSpec("uniform", 1.0)
    for level in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            NoiseSpec("gaussian", level)

    def no_run(*args, **kwargs):
        raise AssertionError("a run started before every noise setting was checked")

    g, _, transfer_t = tiny_metro
    monkeypatch.setattr(pec.embedder, "_train_group", no_run)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        noise_robustness(g, transfer_t, [("gaussian", 1.0), ("gaussian", float("inf"))], repeats=1)
    # two settings of one curve label would merge into one curve
    for noise, both in (
        ([("gaussian", 1.0), ("gaussian", 1.0000001)], "entry 1 (gaussian:1.0) and entry 2 (gaussian:1.0000001)"),
        ([("poisson", 2.0), ("gaussian", 0.5), ("poisson", 2.0)], "entry 1 (poisson:2.0) and entry 3 (poisson:2.0)"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"{both} are both '{noise[0][0]}(")):
            noise_robustness(g, transfer_t, noise, repeats=1)
    assert check_noise([("gaussian", 1.0), ("gaussian", 1.5), ("poisson", 1.0)]) == [
        "gaussian(1)", "gaussian(1.5)", "poisson(1)"
    ]


# -- sweep -------------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_metro():
    spec = MetroSpec(2, 5, ((0, 2, 1, 1),))
    return metro_network(spec)


FAST_PARAMS = {
    "walk_length": 6,
    "num_walks": 3,
    "dim": 4,
    "window": 2,
    "epochs": 2,
    "restarts": 3,
}


def test_experiments_check_every_truth_before_any_training(tiny_metro, monkeypatch):
    g, line_t, transfer_t = tiny_metro

    def no_run(*args, **kwargs):
        raise AssertionError("a run started before every truth was checked")

    monkeypatch.setattr(pec.embedder, "_train_group", no_run)
    foreign = truth_of([0, 1] * (g.num_nodes // 2), name="foreign")
    one_class = GroundTruth.from_labels(g.node_ids, [0] * g.num_nodes, name="flat")
    twin = "distinct names: two of them are both named 'line-membership'"
    for bad, message in ((foreign, "'foreign': node set does not match"), (one_class, "'flat': 1 class"),
                         (line_t, twin)):
        with pytest.raises(ValueError, match=message):
            sweep(g, [line_t, transfer_t, bad], grid={"p": [1.0]}, base_params=FAST_PARAMS, repeats=1)
        with pytest.raises(ValueError, match=message):
            noise_robustness(g, [line_t, transfer_t, bad], [("gaussian", 1.0)], params=FAST_PARAMS, repeats=1)


def test_sweep_empty_grid():
    g, line_t, transfer_t = metro_network(MetroSpec(2, 5, ((0, 2, 1, 1),)))
    report = sweep(g, [line_t], grid={}, repeats=1, seed=0)
    assert report.cells == ()
    assert report.to_json()["tables"] == {"line-membership": []}


def test_sweep_deterministic(tiny_metro):
    g, line_t, _ = tiny_metro
    kwargs = dict(
        grid={"p": [0.5, 2.0]}, base_params=FAST_PARAMS, repeats=1, seed=3
    )
    r1 = sweep(g, [line_t], **kwargs)
    r2 = sweep(g, [line_t], **kwargs)
    assert r1.to_json() == r2.to_json()


def test_sweep_grid_shape_and_baselines(tiny_metro):
    g, line_t, transfer_t = tiny_metro
    report = sweep(
        g,
        [line_t, transfer_t],
        grid={"p": [0.5, 2.0], "q": [1.0]},
        base_params=FAST_PARAMS,
        repeats=2,
        seed=1,
        include_baselines=True,
    )
    assert len(report.cells) == 2
    for cell in report.cells:
        assert cell.error is None
        for truth_name in ("line-membership", "transfer-vs-not"):
            assert 0.0 <= cell.scores[truth_name]["mean"] <= 1.0
            assert set(cell.baselines[truth_name]) == {"sc", "hca"}
    payload = report.to_json()
    row = payload["tables"]["line-membership"][0]
    assert {"mean", "std", "sc_macro_f1", "hca_macro_f1"} <= set(row)


def test_sweep_records_failures_and_continues(tiny_metro):
    g, line_t, _ = tiny_metro
    report = sweep(
        g, [line_t], grid={"p": [-1.0, 1.0]}, base_params=FAST_PARAMS, repeats=1, seed=2
    )
    assert report.cells[0].error is not None
    assert report.cells[1].error is None


def test_sweep_is_deterministic(tiny_metro):
    g, line_t, _ = tiny_metro
    kwargs = dict(grid={"p": [1.0]}, base_params=FAST_PARAMS, repeats=3, seed=9)
    assert sweep(g, [line_t], **kwargs).to_json() == sweep(g, [line_t], **kwargs).to_json()


def test_sweep_csv_output(tmp_path, tiny_metro):
    g, line_t, _ = tiny_metro
    report = sweep(g, [line_t], grid={"p": [1.0]}, base_params=FAST_PARAMS, repeats=1, seed=4)
    path = tmp_path / "sweep.csv"
    report.save_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "p,truth,method,macro_f1_mean,macro_f1_std,repeats,error"
    assert len(lines) == 2


def test_sweep_csv_writes_an_error_cell_row(tmp_path, tiny_metro):
    g, line_t, transfer_t = tiny_metro
    report = sweep(g, [line_t, transfer_t], grid={"dim": [2.5]}, base_params=FAST_PARAMS, repeats=2)
    error = report.cells[0].error
    assert error == "ValueError: dim: expected a whole number, got 2.5"
    path = tmp_path / "sweep.csv"
    report.save_csv(path)
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert rows[1:] == [["2.5", t.name, "pem", "", "", "2", error] for t in (line_t, transfer_t)]


def test_noise_robustness_raises_its_first_failed_run_and_trains_no_later_group(tiny_metro, monkeypatch):
    g, _, transfer_t = tiny_metro
    groups = []
    real_train_group = pec.embedder._train_group

    def failing_from_the_second_group(corpora, cfgs):
        groups.append(len(cfgs))
        outcomes = real_train_group(corpora, cfgs)
        return outcomes if len(groups) == 1 else [TrainingDiverged(f"group {len(groups)}")] * len(cfgs)

    monkeypatch.setattr(pec.embedder, "_train_group", failing_from_the_second_group)
    monkeypatch.setattr(pec.embedder, "LOCKSTEP_PAIRS", 1)  # one run per group
    with pytest.raises(TrainingDiverged, match="^group 2$"):
        noise_robustness(g, transfer_t, [("gaussian", 1.0), ("poisson", 2.0)], params=FAST_PARAMS, repeats=2)
    assert groups == [1, 1]


def test_sweep_trains_once_per_cell_and_repeat(tiny_metro, monkeypatch):
    g, line_t, transfer_t = tiny_metro
    calls = []
    real_train_group = pec.embedder._train_group

    def counting_train_group(corpora, cfgs):  # counts runs, not calls: a group trains several
        calls.extend(cfg.seed for cfg in cfgs)
        return real_train_group(corpora, cfgs)

    monkeypatch.setattr(pec.embedder, "_train_group", counting_train_group)
    report = sweep(
        g, [line_t, transfer_t], grid={"p": [0.5, 2.0]}, base_params=FAST_PARAMS, repeats=2, seed=3
    )
    assert all(cell.error is None for cell in report.cells)
    assert len(calls) == 2 * 2  # cells x repeats, whatever the number of truths
    assert len(set(calls)) == 4


def test_sweep_seed_scheme():
    """A cell's score is k-means on the embed step's output from
    run_seed = derive_seed(seed, "cell", cell_idx, rep), seeded per truth.

    On the 100-node metro fixture with one k-means restart, the k-means
    seed changes both truths' scores, so the test pins the seed labels."""
    g, line_t, transfer_t = metro_network(default_metro_spec())
    params = {"walk_length": 6, "num_walks": 2, "dim": 4, "window": 2, "epochs": 1, "restarts": 1}
    report = sweep(g, [line_t, transfer_t], grid={"p": [0.5, 2.0]}, base_params=params, repeats=1, seed=8)
    wcfg, tcfg, ccfg = pec.evaluator._resolve_params({**params, "p": 2.0})
    run_seed = derive_seed(8, "cell", 1, 0)
    corpus = generate_walks(g, replace(wcfg, seed=derive_seed(run_seed, "walks")))
    vectors = train(corpus, replace(tcfg, seed=derive_seed(run_seed, "train"))).vectors
    assert np.array_equal(vectors, train(*pec.evaluator._embed_inputs(g, wcfg, tcfg, run_seed)).vectors)
    for truth in (line_t, transfer_t):
        labels = kmeans(
            vectors, truth.n_true, seed=derive_seed(run_seed, truth.name, "kmeans"),
            restarts=ccfg.restarts,
        ).labels
        expected = macro_f1(labels, truth, node_ids=g.node_ids).macro_f1
        assert report.cells[1].scores[truth.name]["mean"] == expected
        assert report.cells[1].scores[truth.name]["std"] == 0.0


def test_sweep_baselines_do_not_depend_on_the_embedding_stream(tiny_metro):
    # Recorded before the sweep shared one embedding between truths; SC and
    # HCA are seeded from the sweep seed and the truth alone.
    g, line_t, transfer_t = tiny_metro
    report = sweep(
        g,
        [line_t, transfer_t],
        grid={"p": [0.5, 2.0], "dim": [2, 4]},
        base_params=FAST_PARAMS,
        repeats=2,
        seed=1,
        include_baselines=True,
    )
    expected = {
        2: {"line-membership": {"sc": 0.8831168831168831, "hca": 0.5},
            "transfer-vs-not": {"sc": 0.41558441558441556, "hca": 1.0}},
        4: {"line-membership": {"sc": 0.8888888888888888, "hca": 0.5},
            "transfer-vs-not": {"sc": 0.45779220779220775, "hca": 1.0}},
    }
    assert [cell.baselines for cell in report.cells] == [expected[2], expected[4]] * 2


def test_sweep_baselines_build_one_spectral_embedding_per_dim_and_one_tree(tiny_metro, monkeypatch):
    g, line_t, transfer_t = tiny_metro
    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("spectral_cluster", "hca"):  # the public entries, as the sweep binds them
        counting(pec.evaluator, name)
    counting(pec.baselines, "spectral_embedding")
    counting(pec.baselines, "agglomerate")
    report = sweep(
        g, [line_t, transfer_t], grid={"dim": [2, 4], "p": [0.5, 2.0]}, base_params=FAST_PARAMS, repeats=2,
        seed=1, include_baselines=True,
    )
    assert all(cell.error is None for cell in report.cells)
    # one spectral embedding per dim and one tree per sweep; two truths x two
    # repeats made four spectral embeddings, and each dim its own tree
    assert calls == [
        "spectral_cluster", "spectral_embedding", "hca", "agglomerate", "spectral_cluster", "spectral_embedding",
    ]


def recording_group_pairs(monkeypatch) -> list:
    """Each lockstep group's pair counts, run by run, as the experiments train them."""
    groups = []
    real_train_group = pec.embedder._train_group

    def recording_train_group(corpora, cfgs):
        groups.append([pair_count(c, cfg.window) for c, cfg in zip(corpora, cfgs)])
        return real_train_group(corpora, cfgs)

    monkeypatch.setattr(pec.embedder, "_train_group", recording_train_group)
    return groups


def test_score_runs_starts_a_group_where_the_pair_count_changes(monkeypatch):
    # node x is isolated in the second graph, so its walks are one step long
    # and that graph's corpus has fewer pairs
    left, right = [f"l{i}" for i in range(4)], [f"r{i}" for i in range(4)]
    edges = [(a, b) for side in (left, right) for i, a in enumerate(side) for b in side[i + 1:]]
    linked = build_srg_from_adjacency([*edges, ("l0", "r0"), ("l1", "x")])
    isolated = build_srg_from_adjacency([*edges, ("l0", "r0")], node_ids=linked.node_ids)
    truth = GroundTruth.from_labels(linked.node_ids, [nid[0] == "r" for nid in linked.node_ids])
    stages = pec.evaluator._resolve_params({**FAST_PARAMS, "restarts": 1})
    runs = [(g, stages, 10 + i, [20 + i]) for i, g in enumerate([linked, linked, isolated, isolated, linked])]
    groups = recording_group_pairs(monkeypatch)
    grouped = list(pec.evaluator._score_runs(iter(runs), [truth]))
    full, short = groups[0][0], groups[1][0]
    assert short < full and groups == [[full, full], [short, short], [full]]
    groups.clear()
    monkeypatch.setattr(pec.embedder, "LOCKSTEP_PAIRS", full)  # one run per group
    assert list(pec.evaluator._score_runs(iter(runs), [truth])) == grouped
    assert groups == [[full], [full], [short], [short], [full]]


def test_sweep_groups_span_cells_and_change_no_score(monkeypatch):
    # metro-sweep's shape: 4 cells x 1 repeat of 70,000 pairs; three fit in
    # LOCKSTEP_PAIRS (2**18), four do not
    g, line_t, transfer_t = metro_network(default_metro_spec())
    params = {"walk_length": 10, "num_walks": 10, "dim": 5, "epochs": 1, "restarts": 1}
    kwargs = dict(grid={"p": [0.25, 4.0], "q": [0.25, 4.0]}, base_params=params, repeats=1, seed=901)
    groups = recording_group_pairs(monkeypatch)
    shared = sweep(g, [line_t, transfer_t], **kwargs).to_json()
    assert groups == [[70_000] * 3, [70_000]]
    assert all(row["error"] is None for row in shared["tables"]["line-membership"])
    groups.clear()
    monkeypatch.setattr(pec.embedder, "LOCKSTEP_PAIRS", 70_000)  # one run per group
    assert sweep(g, [line_t, transfer_t], **kwargs).to_json() == shared
    assert groups == [[70_000]] * 4


def test_sweep_records_a_diverging_run_of_a_shared_group_as_if_alone(monkeypatch):
    # at lr 1.2-1.8 runs split into diverging and not, with an inf or a nan loss
    # (see test_train_many_gives_each_run_what_training_it_alone_gives); each
    # learning rate's three cells share one group of six runs
    g, _, transfer_t = metro_network(default_metro_spec())
    params = {"walk_length": 6, "num_walks": 1, "dim": 4, "epochs": 3, "restarts": 1}
    kwargs = dict(grid={"initial_lr": [1.214, 1.71], "p": [0.25, 1.0, 4.0]}, base_params=params, repeats=2, seed=7)
    groups = recording_group_pairs(monkeypatch)
    shared = sweep(g, [transfer_t], **kwargs).to_json()
    (run_pairs,) = set(groups[0])
    assert [len(group) for group in groups] == [6, 6]
    errors = [row["error"] for row in shared["tables"]["transfer-vs-not"]]
    assert all(error.startswith("TrainingDiverged: non-finite training loss (") for error in errors if error)
    # cell 0's second run trains and cell 3's runs give nan, then inf: a
    # cell records its first failed run
    assert [error and error.split("(")[1][:3] for error in errors] == ["inf", None, "inf", "nan", "inf", "inf"]
    groups.clear()
    monkeypatch.setattr(pec.embedder, "LOCKSTEP_PAIRS", run_pairs)  # one run per group
    assert sweep(g, [transfer_t], **kwargs).to_json() == shared
    assert groups == [[run_pairs]] * 12


# Held besides the pair codes (4 bytes per pair) of one lockstep group: the
# graph, the noise matrices, one run's training buffers and its k-means.
# Measured at the LOCKSTEP_PAIRS budget: 2.1 MB in all; one run per group
# 1.3 MB, and all 12 runs in one group 7.2 MB.
NOISE_FIXED_BYTES = 1_500_000


def test_noise_robustness_holds_one_lockstep_group_at_a_time():
    # 12 runs of 70,000 pairs, 840,000 pairs in all: groups of three
    g, _, transfer_t = metro_network(default_metro_spec())
    params = {"walk_length": 10, "num_walks": 10, "dim": 5, "epochs": 1, "restarts": 1}
    tracemalloc.start()
    try:
        noise_robustness(g, transfer_t, [("gaussian", 1.0), ("poisson", 4.0)], params=params, repeats=4, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * pec.embedder.LOCKSTEP_PAIRS + NOISE_FIXED_BYTES


# Held besides the pair codes of one lockstep group: the graph, one run's
# training buffers and its k-means, and each cell's configs and scores.
# Measured at the LOCKSTEP_PAIRS budget (groups of 3, 3 and 2): 1.9 MB in
# all; one run per group 0.8 MB, groups of 4 2.5 MB, and all 8 runs in one
# group 4.7 MB.
SWEEP_FIXED_BYTES = 1_000_000


def test_sweep_holds_one_lockstep_group_at_a_time():
    # 8 cells x 1 repeat of 70,000 pairs, 560,000 pairs in all
    g, line_t, transfer_t = metro_network(default_metro_spec())
    params = {"walk_length": 10, "num_walks": 10, "dim": 5, "epochs": 1, "restarts": 1}
    grid = {"p": [0.25, 0.5, 2.0, 4.0], "q": [0.25, 4.0]}
    tracemalloc.start()
    try:
        sweep(g, [line_t, transfer_t], grid=grid, base_params=params, repeats=1, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * pec.embedder.LOCKSTEP_PAIRS + SWEEP_FIXED_BYTES


def test_noise_robustness_of_two_truths_equals_each_alone(tiny_metro, monkeypatch):
    g, line_t, transfer_t = tiny_metro
    calls = []
    real_train_group = pec.embedder._train_group

    def counting_train_group(corpora, cfgs):  # counts runs, not calls: a group trains several
        calls.extend(cfg.seed for cfg in cfgs)
        return real_train_group(corpora, cfgs)

    monkeypatch.setattr(pec.embedder, "_train_group", counting_train_group)
    kwargs = dict(noise=[("gaussian", 1.0), ("poisson", 2.0)], params=FAST_PARAMS, repeats=2, seed=8)
    both = noise_robustness(g, [line_t, transfer_t], **kwargs)
    assert len(calls) == (1 + 2) * 2
    assert [r.truth_name for r in both] == [line_t.name, transfer_t.name]
    for report, truth in zip(both, (line_t, transfer_t)):
        assert report == noise_robustness(g, truth, **kwargs)


def test_sweep_sem_and_leads(tiny_metro):
    g, line_t, transfer_t = tiny_metro
    report = sweep(
        g, [line_t, transfer_t], grid={"p": [0.5, 2.0, 4.0]}, base_params=FAST_PARAMS, repeats=3, seed=2
    )
    payload = report.to_json()
    json.dumps(payload, allow_nan=False)
    for truth in (line_t.name, transfer_t.name):
        for cell in report.cells:
            score = cell.scores[truth]
            assert score["sem"] == pytest.approx(score["std"] * np.sqrt(3 / 2) / np.sqrt(3))
        means = [cell.scores[truth]["mean"] for cell in report.cells]
        order = sorted(range(3), key=lambda i: -means[i])
        lead = payload["leads"][truth]
        assert lead["best"] == report.best_cell(truth) == report.cells[order[0]].params
        assert lead["runner_up"] == report.cells[order[1]].params
        assert lead["lead"] == means[order[0]] - means[order[1]]
        sems = [report.cells[i].scores[truth]["sem"] for i in order[:2]]
        if np.hypot(*sems) > 0:
            assert lead["lead_se"] == pytest.approx(lead["lead"] / np.hypot(*sems))
        else:
            assert lead["lead_se"] is None

    single = sweep(g, [line_t], grid={"p": [0.5, 2.0]}, base_params=FAST_PARAMS, repeats=1, seed=2)
    assert all(cell.scores[line_t.name]["sem"] is None for cell in single.cells)
    lead = single.to_json()["leads"][line_t.name]
    assert lead["runner_up"] is not None and lead["lead_se"] is None


def test_sweep_leads_when_undefined():
    cell = SweepCell({"p": 1.0}, {"t": {"mean": 0.5, "std": 0.0, "sem": 0.0}}, {})
    failed = SweepCell({"p": 2.0}, {}, {}, error="ValueError: bad")
    tied = SweepCell({"p": 3.0}, {"t": {"mean": 0.5, "std": 0.0, "sem": 0.0}}, {})
    assert SweepReport(("p",), (failed,), 2, ("t",)).to_json()["leads"] == {"t": None}
    assert SweepReport(("p",), (cell, failed), 2, ("t",)).lead("t") == {
        "best": {"p": 1.0}, "runner_up": None, "lead": None, "lead_se": None
    }
    assert SweepReport(("p",), (cell, failed, tied), 2, ("t",)).lead("t") == {
        "best": {"p": 1.0}, "runner_up": {"p": 3.0}, "lead": 0.0, "lead_se": None
    }


# -- noise robustness harness ----------------------------------------------------------------


def test_noise_robustness_report(tiny_metro):
    g, _, transfer_t = tiny_metro
    report = noise_robustness(
        g,
        transfer_t,
        noise=[("gaussian", 1.0)],
        params=FAST_PARAMS,
        repeats=2,
        seed=5,
    )
    assert 0.0 <= report.baseline_mean <= 1.0
    curve = report.curves["gaussian(1)"]
    assert 0.0 <= curve["mean"] <= 1.0
    payload = report.to_json()
    assert payload["truth"] == "transfer-vs-not"
    assert payload["repeats"] == 2


def test_noise_robustness_csv(tmp_path, tiny_metro):
    g, _, transfer_t = tiny_metro
    report = noise_robustness(
        g, transfer_t, noise=[("poisson", 2.0)], params=FAST_PARAMS, repeats=1, seed=6
    )
    path = tmp_path / "noise.csv"
    report.save_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "kind,level,macro_f1_mean,macro_f1_std,repeats"
    assert len(lines) == 3
