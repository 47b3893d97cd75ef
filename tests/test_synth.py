import numpy as np
import pytest

from pec.clusterer import kmeans, select_n
from pec.evaluator import macro_f1
from pec.synth import MetroSpec, blobs, default_metro_spec, metro_network, planted_od


def reachable(g, start):
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for nbr in (g.node_ids[j] for j in g.neighbor_indices(g.index(node))):
                if nbr not in seen:
                    seen.add(nbr)
                    nxt.append(nbr)
        frontier = nxt
    return seen


# -- metro fixtures ----------------------------------------------------------------


def test_minimal_metro_counts():
    g, line_truth, transfer_truth = metro_network(MetroSpec(2, 3, ((0, 1, 1, 1),)))
    assert g.num_nodes == 5
    assert g.num_edges == 4
    assert int(transfer_truth.labels.sum()) == 1
    assert line_truth.n_true == 2


def test_default_metro_dual_truths():
    g, line_truth, transfer_truth = metro_network(default_metro_spec())
    assert line_truth.n_true == 11
    assert set(line_truth.labels.tolist()) == set(range(11))
    assert g.num_nodes == 11 * 10 - 10  # one merge per chaining transfer
    assert int(transfer_truth.labels.sum()) == 10
    assert len(reachable(g, g.node_ids[0])) == g.num_nodes  # chain connects all lines


def test_metro_unit_weights_and_node_count():
    spec = MetroSpec(3, 6, ((0, 2, 1, 3), (1, 4, 2, 2)))
    g, _, transfer_truth = metro_network(spec)
    assert g.num_nodes == 3 * 6 - 2
    assert all(w == 1.0 for _, _, w in g.edges())
    assert int(transfer_truth.labels.sum()) == 2


def test_metro_no_transfers_disconnected():
    g, line_truth, transfer_truth = metro_network(MetroSpec(2, 4))
    assert np.all(transfer_truth.labels == 0)
    assert transfer_truth.n_true == 1
    assert len(reachable(g, g.node_ids[0])) == 4  # one line only


def test_metro_line_collapse_rejected():
    spec = MetroSpec(2, 3, ((0, 0, 1, 0), (0, 1, 1, 1), (0, 2, 1, 2)))
    with pytest.raises(ValueError, match="entire line"):
        metro_network(spec)


def test_metro_adjacent_station_collapse_rejected():
    spec = MetroSpec(2, 3, ((0, 0, 1, 0), (0, 1, 1, 0)))
    with pytest.raises(ValueError, match="adjacent"):
        metro_network(spec)


def test_metro_spec_validation():
    with pytest.raises(ValueError):
        MetroSpec(1, 5)
    with pytest.raises(ValueError):
        MetroSpec(2, 2)
    with pytest.raises(ValueError, match="out of range"):
        MetroSpec(2, 3, ((0, 9, 1, 0),))
    with pytest.raises(ValueError, match="different lines"):
        MetroSpec(2, 3, ((0, 0, 0, 2),))


# -- planted interaction matrices ------------------------------------------------------


def test_planted_od_block_diagonal_when_inter_zero():
    rates_od, truth = planted_od(3, 5, intra_rate=4.0, inter_rate=0.0, seed=2)
    same = truth.labels[:, None] == truth.labels[None, :]
    assert np.all(rates_od.volumes[~same] == 0.0)


def test_planted_od_deterministic():
    a, _ = planted_od(4, 15, 9.0, 1.0, seed=13)
    b, _ = planted_od(4, 15, 9.0, 1.0, seed=13)
    c, _ = planted_od(4, 15, 9.0, 1.0, seed=14)
    assert np.array_equal(a.volumes, b.volumes)
    assert not np.array_equal(a.volumes, c.volumes)


def test_planted_od_within_block_mean_near_rate():
    od, truth = planted_od(4, 15, intra_rate=9.0, inter_rate=1.0, seed=8)
    same = truth.labels[:, None] == truth.labels[None, :]
    np.fill_diagonal(same, False)
    samples = od.volumes[same]
    se = np.sqrt(9.0 / samples.size)
    assert abs(samples.mean() - 9.0) <= 3.0 * se


def test_planted_od_rate_validation():
    with pytest.raises(ValueError, match="intra_rate"):
        planted_od(2, 5, intra_rate=1.0, inter_rate=2.0)


# -- blobs ------------------------------------------------------------------------------


def test_blobs_zero_spread_exact_recovery():
    feats, truth = blobs(3, 8, dims=2, spread=0.0, separation=4.0, seed=5)
    result = kmeans(feats.values, 3, seed=0, restarts=5)
    assert macro_f1(result.labels, truth, node_ids=feats.node_ids).macro_f1 == 1.0
    assert result.inertia == pytest.approx(0.0, abs=1e-18)


def test_blobs_select_n_recovers_count():
    feats, _ = blobs(3, 25, dims=2, spread=0.4, separation=10.0, seed=21)
    recommended, _ = select_n(feats.values, range(2, 7), seed=2)
    assert recommended == 3


def test_blobs_separation_honored_and_deterministic():
    feats1, _ = blobs(5, 3, dims=3, spread=0.1, separation=6.0, seed=9)
    feats2, _ = blobs(5, 3, dims=3, spread=0.1, separation=6.0, seed=9)
    assert np.array_equal(feats1.values, feats2.values)
    centers = feats1.values.reshape(5, 3, 3).mean(axis=1)
    for i in range(5):
        for j in range(i + 1, 5):
            assert np.linalg.norm(centers[i] - centers[j]) >= 6.0 - 1.0  # spread slack


def test_blobs_validation():
    with pytest.raises(ValueError, match="separation"):
        blobs(2, 3, separation=0.0)
