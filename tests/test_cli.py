import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pec.embedder
from pec.cli import build_parser, main, read_config_file
from pec.evaluator import load_labels
from pec.srg import build_srg_from_features, load_graph, save_graph
from pec.synth import blobs
from pec.util import sha256_file


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def metro_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("metro")
    assert run_cli("synth", "metro", "--lines", 4, "--stations", 6, "--out-dir", out) == 0
    return out


@pytest.fixture(scope="module")
def od_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("od")
    assert (
        run_cli(
            "synth", "od", "--blocks", 3, "--nodes-per-block", 6,
            "--intra", 8.0, "--inter", 1.0, "--seed", 5, "--out-dir", out,
        )
        == 0
    )
    return out


def test_import_and_scoring_load_no_scipy_subpackage_nor_numpy_ma():
    code = (
        "import sys, pec.cli\n"
        "from pec.evaluator import GroundTruth, interaction_frequency_report, macro_f1\n"
        "from pec.srg import InteractionMatrix\n"
        "macro_f1([1, 0, 0], GroundTruth(('a', 'b', 'c'), [0, 1, 1], 2))\n"
        "interaction_frequency_report(InteractionMatrix(('a', 'b'), [[0, 1], [2, 0]]), [1, 0])\n"
        "print('\\n'.join(sys.modules))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    heavy = ("scipy.optimize", "scipy.spatial", "scipy.sparse", "scipy.linalg", "scipy.cluster", "numpy.ma")
    loaded = [m for m in out if any(m == h or m.startswith(h + ".") for h in heavy)]
    assert "pec.cli" in out and loaded == []


def test_sweep_with_baselines_loads_no_scipy_subpackage(metro_dir, tmp_path):
    args = [
        "sweep", "--graph", str(metro_dir / "edges.tsv"), "--truth", str(metro_dir / "line-membership.csv"),
        "--grid", "dim=2,4", "--walk-length", "6", "--num-walks", "2", "--epochs", "1", "--repeats", "1",
        "--baselines", "--out-dir", str(tmp_path / "sweep"),
    ]
    code = (
        "import sys, pec.cli\n"
        f"assert pec.cli.main({args!r}) == 0\n"
        "print('\\n'.join(sys.modules))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    heavy = ("scipy.optimize", "scipy.spatial", "scipy.sparse", "scipy.linalg", "scipy.cluster")
    loaded = [m for m in out if any(m == h or m.startswith(h + ".") for h in heavy)]
    assert "pec.baselines" in out and (tmp_path / "sweep" / "sweep.csv").exists() and loaded == []


def test_synth_metro_writes_three_files(metro_dir):
    names = {p.name for p in metro_dir.iterdir()}
    assert {"edges.tsv", "line-membership.csv", "transfer-vs-not.csv"} <= names
    g = load_graph(metro_dir / "edges.tsv")
    assert g.num_nodes == 4 * 6 - 3


def test_synth_rejects_its_arguments_before_making_the_out_dir(tmp_path, capsys):
    cases = [
        (["metro", "--lines", 0], "need at least 2 lines"),
        (["od", "--blocks", 0], "need at least one block and one node per block"),
        (["blobs", "--points", 0], "counts must be positive"),
    ]
    for args, message in cases:
        out = tmp_path / args[0]
        assert run_cli("synth", *args, "--out-dir", out) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
        assert not out.exists()


def test_walks_subcommand_header(metro_dir, tmp_path):
    corpus_path = tmp_path / "corpus.txt"
    assert (
        run_cli(
            "walks", "--graph", metro_dir / "edges.tsv", "--p", 4, "--q", 1,
            "--walk-length", 8, "--num-walks", 2, "--seed", 3, "--out", corpus_path,
        )
        == 0
    )
    text = corpus_path.read_text()
    # generate_walks leaves the fingerprint empty; the writer hashes the graph
    assert text.startswith(f"# graph={load_graph(metro_dir / 'edges.tsv').fingerprint()}\n")
    assert "p=4.0 q=1.0" in text
    walk_lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert len(walk_lines) == 2 * 21


def test_full_subcommand_chain_and_evaluate(metro_dir, tmp_path):
    corpus = tmp_path / "c.txt"
    emb = tmp_path / "e.txt"
    labels = tmp_path / "l.csv"
    report = tmp_path / "r.json"
    assert run_cli("walks", "--graph", metro_dir / "edges.tsv", "--out", corpus, "--seed", 1) == 0
    assert run_cli("embed", "--corpus", corpus, "--dim", 4, "--epochs", 2, "--seed", 2, "--out", emb) == 0
    assert run_cli("cluster", "--embeddings", emb, "--n-clusters", 4, "--seed", 3, "--out", labels) == 0
    assert (
        run_cli(
            "evaluate", "--pred", labels,
            "--truth", metro_dir / "line-membership.csv", "--out", report,
        )
        == 0
    )
    payload = json.loads(report.read_text())
    assert 0.0 <= payload["macro_f1"] <= 1.0
    assert payload["truth"] == "line-membership"


def test_select_n_and_louvain(metro_dir, od_dir, tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    emb = tmp_path / "e.txt"
    run_cli("walks", "--graph", metro_dir / "edges.tsv", "--out", corpus, "--seed", 4)
    run_cli("embed", "--corpus", corpus, "--dim", 4, "--epochs", 2, "--seed", 5, "--out", emb)
    table = tmp_path / "table.json"
    assert run_cli("select-n", "--embeddings", emb, "--n-min", 2, "--n-max", 4, "--out", table) == 0
    payload = json.loads(table.read_text())
    assert payload["recommended"] in (2, 3, 4)
    assert set(payload["scores"]) == {"2", "3", "4"}

    labels = tmp_path / "comm.csv"
    assert run_cli("louvain", "--graph", metro_dir / "edges.tsv", "--out", labels) == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert result["communities"] >= 2
    ids, labs = load_labels(labels)
    assert len(ids) == 4 * 6 - 3


def test_louvain_rejects_fewer_than_one_run(metro_dir, tmp_path, capsys):
    assert run_cli("louvain", "--graph", metro_dir / "edges.tsv", "--runs", 0, "--out", tmp_path / "c.csv") == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError", "message": "need runs >= 1, got runs=0"}
    assert not (tmp_path / "c.csv").exists()


def test_select_n_clips_n_max_below_rows(tmp_path, capsys):
    emb = tmp_path / "six.txt"
    rows = [f"n{i} {i % 3} {i * i}" for i in range(6)]
    emb.write_text("6 2\n" + "\n".join(rows) + "\n", encoding="utf-8")
    table = tmp_path / "table.json"
    assert run_cli("select-n", "--embeddings", emb, "--out", table) == 0
    assert set(json.loads(table.read_text())["scores"]) == {"2", "3", "4", "5"}
    # an n_min above N - 1 leaves no candidate
    assert run_cli("select-n", "--embeddings", emb, "--n-min", 6, "--n-max", 8, "--out", tmp_path / "none.json") == 1
    assert json.loads(capsys.readouterr().err)["message"] == (
        "no candidate cluster count: n_min=6 exceeds N - 1 = 5 for the 6 nodes to cluster"
    )


def test_pipeline_auto_indices_on_six_nodes(tmp_path):
    edges = tmp_path / "ring.tsv"
    ring = ["a", "b", "c", "d", "e", "f"]
    edges.write_text("".join(f"{u}\t{v}\t1\n" for u, v in zip(ring, ring[1:] + ring[:1])), encoding="utf-8")
    out = tmp_path / "run"
    assert run_cli("pipeline", "--edges", edges, "--cluster-mode", "auto-indices", "--dim", 3,
                   "--epochs", 1, "--out-dir", out) == 0
    assert set(json.loads((out / "selection.json").read_text())["scores"]) == {"2", "3", "4", "5"}


def test_evaluate_rejects_repeated_node(tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    pred.write_text("node_id,label\na,0\nb,1\na,1\n", encoding="utf-8")
    truth = tmp_path / "truth.csv"
    truth.write_text("node_id,label\na,0\nb,1\n", encoding="utf-8")
    assert run_cli("evaluate", "--pred", pred, "--truth", truth) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert "pred.csv: line 4" in err["message"]


def test_label_and_embedding_readers_hold_ids_to_the_node_id_rule(tmp_path, capsys):
    emb = tmp_path / "emb.txt"
    emb.write_text("3 2\n 0.1 0.2\n#b 0.3 0.4\nc 0.5 0.6\n", encoding="utf-8")
    labels = tmp_path / "labels.csv"
    assert run_cli("cluster", "--embeddings", emb, "--n-clusters", 2, "--out", labels) == 1
    assert json.loads(capsys.readouterr().err.strip())["message"] == (
        f"{emb}: line 2: invalid node identifier '': must be non-empty, not start with '#', "
        "and have no whitespace or commas"
    )
    assert not labels.exists()
    pred = tmp_path / "pred.csv"
    pred.write_text("node_id,label\na,0\nz z,1\n", encoding="utf-8")
    assert run_cli("evaluate", "--pred", pred, "--truth", pred) == 1
    assert f"{pred}: line 3: invalid node identifier 'z z'" in json.loads(capsys.readouterr().err.strip())["message"]


def test_perturb_subcommand(od_dir, tmp_path):
    noisy = tmp_path / "noisy.csv"
    assert (
        run_cli(
            "perturb", "--matrix", od_dir / "od.csv", "--noise", "gaussian:1",
            "--seed", 7, "--out", noisy,
        )
        == 0
    )
    from pec.srg import load_od_csv

    original = load_od_csv(od_dir / "od.csv")
    perturbed = load_od_csv(noisy)
    delta = perturbed.volumes - original.volumes
    assert delta.min() >= 0.0 and delta.max() <= 1.0


def test_blob_features_pipeline_builds_the_library_knn_graph(tmp_path):
    fixture, out = tmp_path / "blobs", tmp_path / "run"
    assert run_cli("synth", "blobs", "--out-dir", fixture) == 0
    assert run_cli(
        "pipeline", "--features", fixture / "features.csv", "--k-nn", 3, "--n-clusters", 3,
        "--truth", fixture / "blob-membership.csv", "--walk-length", 5, "--num-walks", 2,
        "--dim", 3, "--epochs", 1, "--out-dir", out,
    ) == 0
    feats, _ = blobs(3, 30, dims=5, spread=0.5, separation=5.0, seed=0)  # the synth defaults
    save_graph(build_srg_from_features(feats, k_nn=3), tmp_path / "library.tsv")
    assert (out / "graph.tsv").read_bytes() == (tmp_path / "library.tsv").read_bytes()
    assert json.loads((out / "manifest.json").read_text())["config"]["k_nn"] == 3


def test_sweep_subcommand(metro_dir, tmp_path):
    out_dir = tmp_path / "sweepdir"
    assert (
        run_cli(
            "sweep", "--graph", metro_dir / "edges.tsv",
            "--truth", metro_dir / "line-membership.csv",
            "--truth", metro_dir / "transfer-vs-not.csv",
            "--grid", "p=0.5,2", "--walk-length", 6, "--num-walks", 2,
            "--dim", 4, "--epochs", 2, "--repeats", 1, "--baselines",
            "--out-dir", out_dir,
        )
        == 0
    )
    payload = json.loads((out_dir / "sweep.json").read_text())
    assert set(payload["tables"]) == {"line-membership", "transfer-vs-not"}
    assert len(payload["tables"]["line-membership"]) == 2
    csv_text = (out_dir / "sweep.csv").read_text().splitlines()
    methods = {line.split(",")[2] for line in csv_text[1:]}
    assert methods == {"pem", "sc", "hca"}


def test_pipeline_determinism(od_dir, tmp_path):
    args = [
        "pipeline", "--od", od_dir / "od.csv", "--n-clusters", 3,
        "--walk-length", 8, "--num-walks", 3, "--dim", 4, "--epochs", 2,
        "--truth", od_dir / "block-membership.csv", "--seed", 11,
    ]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert run_cli(*args, "--out-dir", out1) == 0
    assert run_cli(*args, "--out-dir", out2) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["outputs"] == m2["outputs"]
    for name in m1["outputs"]:
        assert sha256_file(out1 / name) == m1["outputs"][name]
        assert sha256_file(out2 / name) == m1["outputs"][name]
    assert {"graph.tsv", "corpus.txt", "embeddings.txt", "labels.csv", "report.json",
            "frequency.csv"} <= set(m1["outputs"])


def test_two_truth_noise_pipeline_trains_each_embedding_once(metro_dir, tmp_path, monkeypatch):
    calls = []
    real_train_group = pec.embedder._train_group

    def counting_train_group(corpora, cfgs):  # counts runs, the pipeline's own embedding included
        calls.extend(cfg.seed for cfg in cfgs)
        return real_train_group(corpora, cfgs)

    monkeypatch.setattr(pec.embedder, "_train_group", counting_train_group)
    truths = ["line-membership", "transfer-vs-not"]
    noise, repeats = ["gaussian:1", "poisson:4"], 2
    args = [
        "pipeline", "--edges", metro_dir / "edges.tsv", "--n-clusters", 2, "--walk-length", 6,
        "--num-walks", 2, "--dim", 3, "--epochs", 1, "--repeats", repeats, "--seed", 4,
        *[a for level in noise for a in ("--noise", level)],
    ]
    both = tmp_path / "both"
    assert run_cli(*args, *[a for t in truths for a in ("--truth", metro_dir / f"{t}.csv")],
                   "--out-dir", both) == 0
    assert len(calls) == 1 + (1 + len(noise)) * repeats  # the pipeline's own, then one per noise run
    report = json.loads((both / "report.json").read_text())
    for t in truths:
        alone = tmp_path / t
        assert run_cli(*args, "--truth", metro_dir / f"{t}.csv", "--out-dir", alone) == 0
        assert (both / f"noise_{t}.csv").read_bytes() == (alone / f"noise_{t}.csv").read_bytes()
        assert report[t] == json.loads((alone / "report.json").read_text())[t]


def test_workers_flag_leaves_the_manifest_unchanged(od_dir, tmp_path):
    args = [
        "pipeline", "--od", od_dir / "od.csv", "--n-clusters", 3,
        "--walk-length", 6, "--num-walks", 2, "--dim", 3, "--epochs", 1, "--out-dir", tmp_path,
    ]
    assert run_cli(*args) == 0
    first = (tmp_path / "manifest.json").read_bytes()
    assert run_cli(*args, "--workers", 4) == 0
    assert (tmp_path / "manifest.json").read_bytes() == first
    assert "workers" not in json.loads(first)["config"]


def test_pipeline_composability(od_dir, tmp_path):
    """Chaining the subcommands with the manifest's stage seeds reproduces
    the pipeline artifacts byte for byte."""
    out = tmp_path / "pipe"
    assert (
        run_cli(
            "pipeline", "--od", od_dir / "od.csv", "--n-clusters", 3,
            "--walk-length", 8, "--num-walks", 3, "--dim", 4, "--epochs", 2,
            "--seed", 23, "--out-dir", out,
        )
        == 0
    )
    manifest = json.loads((out / "manifest.json").read_text())
    seeds = manifest["stage_seeds"]

    graph = tmp_path / "graph.tsv"
    corpus = tmp_path / "corpus.txt"
    emb = tmp_path / "emb.txt"
    labels = tmp_path / "labels.csv"
    assert run_cli("build-graph", "--od", od_dir / "od.csv", "--out", graph) == 0
    assert (
        run_cli(
            "walks", "--graph", graph, "--walk-length", 8, "--num-walks", 3,
            "--seed", seeds["walks"], "--out", corpus,
        )
        == 0
    )
    assert (
        run_cli(
            "embed", "--corpus", corpus, "--dim", 4, "--epochs", 2,
            "--seed", seeds["embed"], "--out", emb,
        )
        == 0
    )
    assert (
        run_cli(
            "cluster", "--embeddings", emb, "--n-clusters", 3,
            "--seed", seeds["cluster"], "--out", labels,
        )
        == 0
    )
    for chained, name in ((graph, "graph.tsv"), (corpus, "corpus.txt"),
                          (emb, "embeddings.txt"), (labels, "labels.csv")):
        assert sha256_file(chained) == manifest["outputs"][name], name


def test_pipeline_case_study_defaults(tmp_path):
    """Five planted regions, long balanced walks, community count taken
    from fast unfolding: the run completes with a cohesive frequency
    report (diagonal dominates every row)."""
    fixtures = tmp_path / "fx"
    assert (
        run_cli(
            "synth", "od", "--blocks", 5, "--nodes-per-block", 12,
            "--intra", 9.0, "--inter", 1.0, "--seed", 3, "--out-dir", fixtures,
        )
        == 0
    )
    out = tmp_path / "case"
    assert (
        run_cli(
            "pipeline", "--od", fixtures / "od.csv", "--cluster-mode", "auto-louvain",
            "--p", 1, "--q", 1, "--dim", 64, "--walk-length", 80, "--num-walks", 10,
            "--window", 5, "--seed", 17, "--out-dir", out,
        )
        == 0
    )
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["louvain"]["communities"] == 5
    freq_rows = (out / "frequency.csv").read_text().splitlines()[1:]
    assert len(freq_rows) == 5
    for i, row in enumerate(freq_rows):
        values = [float(x) for x in row.split(",")[1:]]
        assert values[i] == max(values)
        assert sum(values) == pytest.approx(1.0, abs=1e-9)


def test_pipeline_auto_louvain(od_dir, tmp_path):
    out = tmp_path / "auto"
    assert (
        run_cli(
            "pipeline", "--od", od_dir / "od.csv", "--cluster-mode", "auto-louvain",
            "--walk-length", 6, "--num-walks", 2, "--dim", 4, "--epochs", 1,
            "--seed", 2, "--out-dir", out,
        )
        == 0
    )
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_clusters"] == manifest["louvain"]["communities"] == 3


def test_pipeline_single_community_edge(tmp_path):
    # a uniform interaction matrix has no community structure: fast
    # unfolding returns one community and clustering degenerates cleanly
    from pec.srg import InteractionMatrix, save_od_csv

    n = 6
    volumes = np.full((n, n), 4.0)
    np.fill_diagonal(volumes, 0.0)
    od_path = tmp_path / "uniform.csv"
    save_od_csv(InteractionMatrix([f"u{i}" for i in range(n)], volumes), od_path)
    out = tmp_path / "flat"
    assert (
        run_cli(
            "pipeline", "--od", od_path, "--cluster-mode", "auto-louvain",
            "--walk-length", 4, "--num-walks", 2, "--dim", 3, "--epochs", 1,
            "--seed", 1, "--out-dir", out,
        )
        == 0
    )
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_clusters"] == 1
    _, labels = load_labels(out / "labels.csv")
    assert set(labels.tolist()) == {0}


def test_config_file_with_flag_override(od_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"od_path = {od_dir / 'od.csv'}\n"
        "n_clusters = 3\n"
        "walk_length = 6   # short walks\n"
        "num_walks = 2\n"
        "dim = 4\n"
        "epochs = 1\n"
        "seed = 4\n",
        encoding="utf-8",
    )
    out = tmp_path / "cfgrun"
    assert run_cli("pipeline", "--config", cfg, "--dim", 5, "--out-dir", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["dim"] == 5  # flag wins over config file
    assert manifest["config"]["walk_length"] == 6


def test_read_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("just a line\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        read_config_file(bad)


def test_error_json_on_missing_input(tmp_path, capsys):
    code = run_cli("pipeline", "--od", tmp_path / "nope.csv", "--n-clusters", 2,
                   "--out-dir", tmp_path / "x")
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert "nope.csv" in err["message"]


def test_stage_error_names_stage(tmp_path, capsys):
    # Louvain on a graph without edges can only fail in the cluster stage
    edges = tmp_path / "nodes-only.tsv"
    edges.write_text("".join(f"#node\tv{i}\n" for i in range(6)), encoding="utf-8")
    code = run_cli(
        "pipeline", "--edges", edges, "--cluster-mode", "auto-louvain",
        "--walk-length", 6, "--num-walks", 2, "--dim", 4, "--epochs", 1,
        "--out-dir", tmp_path / "y",
    )
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["stage"] == "cluster"
    # artifacts from completed stages are retained
    assert (tmp_path / "y" / "embeddings.txt").exists()


def test_inputs_that_do_not_fit_the_graph_fail_before_the_walks(od_dir, metro_dir, tmp_path, capsys):
    od = ["--od", od_dir / "od.csv", "--walk-length", 6, "--num-walks", 2, "--dim", 3, "--epochs", 1]
    foreign = metro_dir / "line-membership.csv"
    one_class = tmp_path / "one-class.csv"
    ids, _ = load_labels(od_dir / "block-membership.csv")
    one_class.write_text("node_id,label\n" + "".join(f"{i},0\n" for i in ids), encoding="utf-8")
    twins = [tmp_path / "x" / "t.csv", tmp_path / "y" / "t.csv"]  # one stem, so one name in report.json
    for path in twins:
        path.parent.mkdir()
        path.write_bytes((od_dir / "block-membership.csv").read_bytes())
    cases = [
        (["--n-clusters", 999], "n_clusters=999 exceeds the 18 nodes"),
        (["--cluster-mode", "auto-indices", "--n-min", 18, "--n-max", 20],
         "no candidate cluster count: n_min=18 exceeds N - 1 = 17 for the 18 nodes to cluster"),
        (["--n-clusters", 3, "--truth", foreign], f"{foreign}: node set does not match the graph"),
        (["--n-clusters", 3, "--truth", one_class, "--noise", "gaussian:1"], f"{one_class}: 1 class"),
        (["--n-clusters", 3, "--truth", twins[0], "--truth", twins[1], "--noise", "gaussian:1"],
         f"{twins[0]} and {twins[1]} are both named 't'"),
    ]
    for i, (flags, message) in enumerate(cases):
        out = tmp_path / f"run{i}"
        assert run_cli("pipeline", *od, *flags, "--out-dir", out) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["stage"] == "graph" and message in err["message"]
        assert not (out / "corpus.txt").exists()
    # without noise curves one class is a valid truth to score against
    assert run_cli("pipeline", *od, "--n-clusters", 3, "--truth", one_class, "--out-dir", tmp_path / "ok") == 0
    code = run_cli(
        "sweep", "--graph", metro_dir / "edges.tsv", "--truth", od_dir / "block-membership.csv",
        "--grid", "p=1", "--repeats", 1, "--out-dir", tmp_path / "sw",
    )
    assert code == 1
    assert f"{od_dir / 'block-membership.csv'}: node set" in json.loads(capsys.readouterr().err)["message"]
    assert not (tmp_path / "sw").exists()


def test_usage_error_exit_code(od_dir, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["walks", "--graph"])  # missing value
    assert excinfo.value.code == 2
    for entry in ("gaussian:-1", "gaussian:nan", "gaussian:inf"):  # noise levels are read up front
        with pytest.raises(SystemExit) as excinfo:
            main(["pipeline", "--od", str(od_dir / "od.csv"), "--n-clusters", "2",
                  "--truth", str(od_dir / "block-membership.csv"), "--noise", entry,
                  "--out-dir", str(tmp_path / "never")])
        assert excinfo.value.code == 2
    assert not (tmp_path / "never").exists()


def test_unknown_subcommand_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def readme_commands() -> list[str]:
    """Every ``pec ...`` command of README.md's ``sh`` blocks, continuations joined."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.S | re.M)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line.split("#", 1)[0] for line in lines if line.startswith("pec ")]


def test_readme_commands_parse():
    parser = build_parser()
    parsed = []
    for command in readme_commands():
        try:
            parsed.append(parser.parse_args(shlex.split(command)[1:]))
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
    # the README shows every subcommand
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert {args.command for args in parsed} == set(subcommands)


# Digests recorded before sweep and noise_robustness shared one scored-run
# path (numpy 2.4, x86-64).  With nine repeats each mean and std goes
# through numpy's unrolled pairwise summation (eight partial sums from eight
# values on), so the digests pin every bit of the reported figures however
# the runner lays the scores out.
GOLDEN_SWEEP = {
    "sweep.json": "674299c997ea2683f3d1150c682d5b8a32cede470dc568c0a921bae13fb14ea9",
    "sweep.csv": "75063cbb5952a7f9fac089d1b92d4c5eb77fe5ca0a0dfd85a74ecf1876ca13ab",
}
GOLDEN_NOISE = {
    "report.json": "898b4a1472317a4f6de7114c625e768809eb9612ac0fb3a10c0877faf4f8901f",
    "noise_line-membership.csv": "6c972d4cad3cab33d3ef8702c02cd2bf293e0e5a1ae05c523c8315acf5802a47",
    "noise_transfer-vs-not.csv": "e9897d7f07c66198f840c2378a1f8b98722535a2bd094746e74d2940c04a423f",
}


def test_sweep_output_bytes_are_golden(metro_dir, tmp_path):
    out = tmp_path / "sweep"
    assert run_cli(
        "sweep", "--graph", metro_dir / "edges.tsv",
        "--truth", metro_dir / "line-membership.csv", "--truth", metro_dir / "transfer-vs-not.csv",
        "--grid", "dim=2,4", "--walk-length", 6, "--num-walks", 2, "--epochs", 1, "--restarts", 2,
        "--repeats", 9, "--seed", 5, "--baselines", "--out-dir", out,
    ) == 0
    assert {name: sha256_file(out / name) for name in GOLDEN_SWEEP} == GOLDEN_SWEEP


def test_noise_pipeline_output_bytes_are_golden(metro_dir, tmp_path):
    out = tmp_path / "noise"
    assert run_cli(
        "pipeline", "--edges", metro_dir / "edges.tsv", "--n-clusters", 2,
        "--truth", metro_dir / "line-membership.csv", "--truth", metro_dir / "transfer-vs-not.csv",
        "--noise", "gaussian:1", "--noise", "poisson:4", "--walk-length", 6, "--num-walks", 2,
        "--dim", 3, "--epochs", 1, "--restarts", 2, "--repeats", 9, "--seed", 6, "--out-dir", out,
    ) == 0
    assert {name: sha256_file(out / name) for name in GOLDEN_NOISE} == GOLDEN_NOISE
