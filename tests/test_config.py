"""The hyperparameter schema: config fields drive flags, config-file keys,
the manifest echo and experiment parameters; bad values fail up front."""

import argparse
import json
import re

import numpy as np
import pytest

import pec.embedder
import pec.evaluator
from pec.cli import PipelineConfig, PipelineError, _StoreOnce, build_parser, main, read_config_file, run_pipeline
from pec.clusterer import ClusterConfig
from pec.embedder import TrainConfig
from pec.evaluator import noise_robustness, run_embedding_clustering, sweep
from pec.srg import FeatureMatrix, save_feature_csv
from pec.synth import MetroSpec, metro_network
from pec.util import knobs, sha256_file
from pec.walker import WalkConfig

FAST_PARAMS = {"walk_length": 6, "num_walks": 2, "dim": 3, "window": 2, "epochs": 1, "restarts": 2}

# A valid value for every hyperparameter that differs from its default.
SCHEMA_VALUES = {
    "p": 2.0,
    "q": 0.5,
    "walk_length": 5,
    "num_walks": 2,
    "dim": 3,
    "window": 2,
    "epochs": 1,
    "initial_lr": 0.05,
    "negatives": 2,
    "batch_size": 16,
    "n_clusters": 2,
    "cluster_mode": "auto-indices",
    "n_min": 3,
    "n_max": 4,
    "restarts": 2,
}
SCHEMA_FIELDS = [f for cls in (WalkConfig, TrainConfig, ClusterConfig) for f in knobs(cls)]
# n_clusters is given only in mode "fixed", and n_min/n_max only in mode
# "auto-indices", so one run sets n_clusters and the other sets the cluster
# mode and n_min/n_max; together they set every knob.
SCHEMA_RUNS = {
    "fixed": [f for f in SCHEMA_FIELDS if f.name not in ("cluster_mode", "n_min", "n_max")],
    "auto-indices": [f for f in SCHEMA_FIELDS if f.name != "n_clusters"],
}


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def od_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("od")
    assert run_cli("synth", "od", "--blocks", 3, "--nodes-per-block", 6, "--seed", 5, "--out-dir", out) == 0
    return out


@pytest.fixture(scope="module")
def tiny_metro():
    return metro_network(MetroSpec(2, 5, ((0, 2, 1, 1),)))


def error_of(capsys) -> dict:
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


def test_every_hyperparameter_is_a_flag_a_config_key_and_echoed(od_dir, tmp_path):
    assert {f.name for f in SCHEMA_FIELDS} == set(SCHEMA_VALUES)
    for f in SCHEMA_FIELDS:
        assert SCHEMA_VALUES[f.name] != f.default, f.name

    for mode, given in SCHEMA_RUNS.items():
        flags = []
        for f in given:
            flags += [f.metadata.get("flag", "--" + f.name.replace("_", "-")), SCHEMA_VALUES[f.name]]
        assert run_cli("pipeline", "--od", od_dir / "od.csv", *flags, "--out-dir", tmp_path / mode / "flags") == 0

        cfg = tmp_path / mode / "run.cfg"
        lines = [f"od_path = {od_dir / 'od.csv'}"] + [f"{f.name} = {SCHEMA_VALUES[f.name]}" for f in given]
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli("pipeline", "--config", cfg, "--out-dir", tmp_path / mode / "file") == 0

        for run in ("flags", "file"):
            echo = json.loads((tmp_path / mode / run / "manifest.json").read_text())["config"]
            assert echo["cluster_mode"] == mode, (mode, run)
            for f in given:
                assert echo[f.name] == SCHEMA_VALUES[f.name], (mode, run, f.name)


def test_manifest_lists_only_this_runs_artifacts(od_dir, tmp_path):
    out = tmp_path / "shared"
    common = ["pipeline", "--od", od_dir / "od.csv", "--walk-length", 5, "--num-walks", 2,
              "--dim", 3, "--epochs", 1, "--out-dir", out]
    assert run_cli(*common, "--cluster-mode", "auto-indices", "--n-max", 4) == 0
    assert (out / "selection.json").exists()
    assert run_cli(*common, "--n-clusters", 3) == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert set(outputs) == {"graph.tsv", "corpus.txt", "embeddings.txt", "labels.csv", "frequency.csv"}


def test_rerun_deletes_earlier_runs_artifacts_only(od_dir, tmp_path):
    out = tmp_path / "shared"
    common = ["pipeline", "--od", od_dir / "od.csv", "--walk-length", 5, "--num-walks", 2,
              "--dim", 3, "--epochs", 1, "--out-dir", out]
    assert run_cli(*common, "--cluster-mode", "auto-indices", "--n-max", 4) == 0
    (out / "notes.txt").write_text("kept\n", encoding="utf-8")
    assert run_cli(*common, "--n-clusters", 3) == 0
    assert not (out / "selection.json").exists()
    assert (out / "notes.txt").read_text(encoding="utf-8") == "kept\n"
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert sorted(p.name for p in out.iterdir()) == sorted([*outputs, "manifest.json", "notes.txt"])


def test_failed_rerun_leaves_a_manifest_of_its_own_files(od_dir, tmp_path, capsys):
    out = tmp_path / "shared"
    common = ["pipeline", "--od", od_dir / "od.csv", "--walk-length", 5, "--num-walks", 2,
              "--dim", 3, "--epochs", 1, "--n-clusters", 3, "--out-dir", out]
    assert run_cli(*common, "--truth", od_dir / "block-membership.csv") == 0
    foreign = tmp_path / "foreign.csv"
    foreign.write_text("node_id,label\n" + "".join(f"x{i},{i % 2}\n" for i in range(18)), encoding="utf-8")
    assert run_cli(*common, "--truth", foreign) == 1
    err = error_of(capsys)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failed"] == err and err["stage"] == "graph"
    assert manifest["inputs"] == {str(od_dir / "od.csv"): sha256_file(od_dir / "od.csv"),
                                  str(foreign): sha256_file(foreign)}
    # the first run's later artifacts are gone; what is left is this run's and hashed
    assert manifest["outputs"] == {p.name: sha256_file(p) for p in out.iterdir() if p.name != "manifest.json"}
    assert set(manifest["outputs"]) == {"graph.tsv"}


@pytest.mark.parametrize(
    "call",
    [
        lambda g, t: sweep(g, [t], grid={"foo": [1, 2]}, base_params=FAST_PARAMS, repeats=1),
        lambda g, t: sweep(g, [t], grid={"p": [1.0]}, base_params={**FAST_PARAMS, "foo": 1}, repeats=1),
        lambda g, t: run_embedding_clustering(g, 2, params={**FAST_PARAMS, "foo": 1}),
        lambda g, t: noise_robustness(g, t, [("gaussian", 1.0)], params={"foo": 1}, repeats=1),
        # a cluster-count knob has no effect in an experiment, so it is not a parameter there
        lambda g, t: sweep(g, [t], grid={"n_clusters": [2, 3]}, base_params=FAST_PARAMS, repeats=1),
    ],
)
def test_unknown_experiment_parameter_rejected(tiny_metro, call):
    g, line_t, _ = tiny_metro
    with pytest.raises(ValueError, match="unknown hyperparameter '(foo|n_clusters)'"):
        call(g, line_t)


def test_sweep_cli_unknown_grid_key(tmp_path, capsys):
    assert run_cli("synth", "metro", "--lines", 3, "--stations", 4, "--out-dir", tmp_path) == 0
    code = run_cli("sweep", "--graph", tmp_path / "edges.tsv", "--truth", tmp_path / "line-membership.csv",
                   "--grid", "foo=1,2", "--repeats", 1, "--out-dir", tmp_path / "sw")
    assert code == 1
    assert "'foo'" in error_of(capsys)["message"]
    assert not (tmp_path / "sw").exists()


def test_sweep_cli_rejects_workers_below_one(tmp_path, capsys):
    assert run_cli("synth", "metro", "--lines", 3, "--stations", 4, "--out-dir", tmp_path) == 0
    code = run_cli("sweep", "--graph", tmp_path / "edges.tsv", "--truth", tmp_path / "line-membership.csv",
                   "--grid", "p=1", "--repeats", 1, "--workers", 0, "--out-dir", tmp_path / "sw")
    assert code == 1
    assert "workers" in error_of(capsys)["message"]
    assert not (tmp_path / "sw").exists()


def test_sweep_grid_values_keep_their_field_types(tmp_path):
    assert run_cli("synth", "metro", "--lines", 3, "--stations", 4, "--out-dir", tmp_path) == 0
    out = tmp_path / "sw"
    assert run_cli("sweep", "--graph", tmp_path / "edges.tsv", "--truth", tmp_path / "line-membership.csv",
                   "--grid", "dim=3,4", "--grid", "q=0.5", "--walk-length", 5, "--num-walks", 2,
                   "--epochs", 1, "--repeats", 1, "--out-dir", out) == 0
    cells = json.loads((out / "sweep.json").read_text())["tables"]["line-membership"]
    assert [c["params"] for c in cells] == [{"dim": 3, "q": 0.5}, {"dim": 4, "q": 0.5}]
    assert all(type(c["params"]["dim"]) is int for c in cells)
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [r.split(",")[:2] for r in rows] == [["3", "0.5"], ["4", "0.5"]]


def test_unknown_config_key_names_key_and_line(od_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"od_path = {od_dir / 'od.csv'}\nfoo = 1\n", encoding="utf-8")
    assert run_cli("pipeline", "--config", cfg, "--n-clusters", 2, "--out-dir", tmp_path / "x") == 1
    message = error_of(capsys)["message"]
    assert "'foo'" in message and "line 2" in message and str(cfg) in message


def test_config_key_on_two_lines_names_both_lines(od_dir, tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    truth = od_dir / "block-membership.csv"
    cfg.write_text(f"od_path = {od_dir / 'od.csv'}\ntruth = {truth}\n# comment\ntruth = {truth}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(cfg))}: line 4: config key 'truth' repeats line 2$"):
        read_config_file(cfg)
    assert run_cli("pipeline", "--config", cfg, "--n-clusters", 2, "--out-dir", tmp_path / "never") == 1
    assert "config key 'truth' repeats line 2" in error_of(capsys)["message"]
    assert not (tmp_path / "never").exists()


def test_sweep_grid_name_given_twice_is_rejected(tmp_path, capsys):
    assert run_cli("synth", "metro", "--lines", 3, "--stations", 4, "--out-dir", tmp_path) == 0
    for first, second, name in (("p=1,2", "p=4", "p"), ("walk_length=5", "walk-length=6", "walk_length")):
        code = run_cli("sweep", "--graph", tmp_path / "edges.tsv", "--truth", tmp_path / "line-membership.csv",
                       "--grid", first, "--grid", second, "--repeats", 1, "--out-dir", tmp_path / "sw")
        assert code == 1
        assert error_of(capsys)["message"] == f"grid name {name!r} is given twice"
    assert not (tmp_path / "sw").exists()


def test_input_path_that_is_a_directory_or_empty_fails_before_out_dir(od_dir, tmp_path, capsys):
    out = tmp_path / "never"
    cases = [["--edges", tmp_path], ["--od", od_dir / "od.csv", "--truth", od_dir]]
    for flags in cases:
        assert run_cli("pipeline", *flags, "--n-clusters", 2, "--out-dir", out) == 1
        err = error_of(capsys)
        assert err["error"] == "ValueError" and "stage" not in err
        assert err["message"].startswith("input file not found: ")
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(f"od_path = {od_dir / 'od.csv'}\ntruth =\n", encoding="utf-8")
    assert run_cli("pipeline", "--config", cfg, "--n-clusters", 2, "--out-dir", out) == 1
    err = error_of(capsys)
    assert err["error"] == "ValueError" and err["message"] == "input file not found: ''"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, match",
    [
        (["--n-clusters", 2, "--truth", "TRUTH", "--noise", "gaussian:1", "--repeats", 0], "repeats"),
        (["--n-clusters", 2, "--workers", 0], "workers"),
        (["--cluster-mode", "auto-indices", "--n-min", 5, "--n-max", 3], "n_min"),
        (["--n-clusters", -5], "n_clusters"),
        (["--n-clusters", 2, "--noise", "gaussian:1"], "--truth"),
        (["--n-clusters", 2, "--truth", "TRUTH", "--noise", "gaussian:1", "--noise", "gaussian:1.0000001"],
         "entry 1 (gaussian:1.0) and entry 2 (gaussian:1.0000001) are both 'gaussian(1)'"),
        (["--n-clusters", 2, "--truth", "TRUTH", *["--noise", "poisson:4", "--noise", "gaussian:1"] * 2],
         "entry 1 (poisson:4.0) and entry 3 (poisson:4.0) are both 'poisson(4)'"),
        (["--cluster-mode", "auto-louvain", "--n-clusters", 3],
         "n_clusters=3 is for cluster_mode 'fixed', not 'auto-louvain'"),
        (["--n-clusters", 2, "--n-min", 5, "--n-max", 7], "n_min=5 is for cluster_mode 'auto-indices', not 'fixed'"),
        (["--cluster-mode", "auto-louvain", "--n-max", 7],
         "n_max=7 is for cluster_mode 'auto-indices', not 'auto-louvain'"),
        (["--n-clusters", 2, "--truth", "TRUTH", "--repeats", 5],
         "repeats=5 is for noise curves: give --noise with it"),
    ],
)
def test_pipeline_rejects_bad_settings_before_any_stage(od_dir, tmp_path, capsys, flags, match):
    flags = [od_dir / "block-membership.csv" if f == "TRUTH" else f for f in flags]
    out = tmp_path / "never"
    assert run_cli("pipeline", "--od", od_dir / "od.csv", *flags, "--out-dir", out) == 1
    err = error_of(capsys)
    assert err["error"] == "ValueError" and "stage" not in err
    assert match in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("lines, match", [
    (["n_clusters = 2", "n_max = 7"], "n_max=7 is for cluster_mode 'auto-indices', not 'fixed'"),
    (["n_clusters = 2", "repeats = 3"], "repeats=3 is for noise curves: give --noise with it"),
])
def test_pipeline_refuses_config_keys_it_would_not_read(od_dir, tmp_path, capsys, lines, match):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join([f"od_path = {od_dir / 'od.csv'}", *lines]) + "\n", encoding="utf-8")
    out = tmp_path / "never"
    assert run_cli("pipeline", "--config", cfg, "--out-dir", out) == 1
    assert error_of(capsys) == {"error": "ValueError", "message": match}
    assert not out.exists()


def test_noise_mode_is_neither_a_flag_nor_a_config_key(od_dir, tmp_path, capsys):
    noisy = tmp_path / "noisy.csv"
    for argv in (["pipeline", "--od", od_dir / "od.csv", "--out-dir", tmp_path / "run"],
                 ["perturb", "--matrix", od_dir / "od.csv", "--noise", "gaussian:1", "--out", noisy]):
        with pytest.raises(SystemExit) as exit_:
            run_cli(*argv, "--noise-mode", "scale-noise")
        assert exit_.value.code == 2, argv[0]
        assert "unrecognized arguments: --noise-mode" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"od_path = {od_dir / 'od.csv'}\nnoise_mode = scale-noise\n", encoding="utf-8")
    assert run_cli("pipeline", "--config", cfg, "--n-clusters", 2, "--out-dir", tmp_path / "run") == 1
    assert error_of(capsys)["message"] == f"{cfg}: line 2: unknown config key 'noise_mode'"
    assert not (tmp_path / "run").exists() and not noisy.exists()


def test_config_classes_validate():
    with pytest.raises(ValueError, match="n_min"):
        ClusterConfig(n_min=5, n_max=3)
    with pytest.raises(ValueError, match="cluster mode"):
        ClusterConfig(cluster_mode="guess")
    with pytest.raises(ValueError, match="restarts"):
        ClusterConfig(restarts=0)
    for mode in ("auto-indices", "auto-louvain"):
        with pytest.raises(ValueError, match=f"n_clusters=3 is for cluster_mode 'fixed', not '{mode}'"):
            ClusterConfig(n_clusters=3, cluster_mode=mode)


def test_experiments_reject_repeats_below_one(tiny_metro):
    g, line_t, transfer_t = tiny_metro
    with pytest.raises(ValueError, match="repeats"):
        noise_robustness(g, transfer_t, [("gaussian", 1.0)], params=FAST_PARAMS, repeats=0)
    with pytest.raises(ValueError, match="repeats"):
        sweep(g, [line_t], grid={"p": [1.0]}, base_params=FAST_PARAMS, repeats=0)


def test_sweep_propagates_programming_errors(tiny_metro, monkeypatch):
    g, line_t, _ = tiny_metro

    def broken_train_group(corpora, cfgs):
        raise TypeError("not a domain error")

    monkeypatch.setattr(pec.embedder, "_train_group", broken_train_group)
    with pytest.raises(TypeError, match="not a domain error"):
        sweep(g, [line_t], grid={"p": [1.0]}, base_params=FAST_PARAMS, repeats=1)


def test_config_file_value_outside_choices_fails_before_any_stage(od_dir, tmp_path, capsys):
    out = tmp_path / "never"
    for key, value in (("cluster_mode", "foo"), ("noise", "gaussian:inf")):
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"od_path = {od_dir / 'od.csv'}\n{key} = {value}\n", encoding="utf-8")
        assert run_cli("pipeline", "--config", cfg, "--n-clusters", 2, "--out-dir", out) == 1
        message = error_of(capsys)["message"]
        assert str(cfg) in message and "line 2" in message and key in message
        assert not out.exists()


def test_int_setting_rejects_a_fraction_and_names_it():
    with pytest.raises(ValueError, match="dim: expected a whole number, got 4.7"):
        pec.evaluator._resolve_params({"dim": 4.7})
    for value in (4, "4", 4.0):
        assert pec.evaluator._resolve_params({"dim": value})[1].dim == 4


def test_pipeline_fraction_for_k_nn_fails_in_the_graph_stage(tmp_path):
    features = tmp_path / "f.csv"
    save_feature_csv(FeatureMatrix([f"n{i}" for i in range(6)], np.arange(12.0).reshape(6, 2)), features)
    out = tmp_path / "run"
    cfg = PipelineConfig(features_path=str(features), k_nn=2.5, out_dir=str(out),
                         cluster=ClusterConfig(n_clusters=2))
    with pytest.raises(PipelineError, match="k_nn: expected a whole number, got 2.5") as failure:
        run_pipeline(cfg)
    assert failure.value.stage == "graph"
    assert not (out / "corpus.txt").exists()


def test_sweep_grid_fraction_for_int_setting_is_an_error_cell(tiny_metro, monkeypatch):
    g, line_t, _ = tiny_metro
    trained = []
    monkeypatch.setattr(pec.embedder, "_train_group", lambda corpora, cfgs: trained.extend(cfgs))
    report = sweep(g, [line_t], grid={"dim": [2.5]}, base_params=FAST_PARAMS, repeats=1)
    assert trained == []
    assert report.cells[0].params == {"dim": 2.5}
    assert "dim: expected a whole number" in report.cells[0].error


def test_pipeline_needs_exactly_one_input(od_dir, tmp_path, capsys):
    out = tmp_path / "never"
    for inputs in ([], ["--od", od_dir / "od.csv", "--edges", od_dir / "od.csv"]):
        assert run_cli("pipeline", *inputs, "--n-clusters", 2, "--out-dir", out) == 1
        assert error_of(capsys) == {"error": "ValueError", "message": "give exactly one input: features, od or edges"}
    assert not out.exists()


def test_srg_i_settings_need_a_features_input(od_dir, tmp_path, capsys):
    out, od = tmp_path / "never", od_dir / "od.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"od_path = {od}\nsigma = 2\n", encoding="utf-8")
    cases = [
        (["build-graph", "--od", od, "--k-nn", 3, "--similarity", "cosine", "--sigma", -5, "--out", out / "g.tsv"],
         "similarity, sigma, k_nn"),
        (["pipeline", "--edges", od, "--tau", 0.5, "--n-clusters", 2, "--out-dir", out], "tau"),
        (["pipeline", "--config", cfg, "--n-clusters", 2, "--out-dir", out], "sigma"),
    ]
    for argv, names in cases:
        assert run_cli(*argv) == 1
        message = error_of(capsys)["message"]
        assert message == f"{names}: SRG-I settings apply only to a features input (--features)"
    assert not out.exists()


def test_build_graph_refuses_a_sigma_with_cosine(tmp_path, capsys):
    features = tmp_path / "f.csv"
    save_feature_csv(FeatureMatrix([f"n{i}" for i in range(4)], np.arange(1.0, 9.0).reshape(4, 2)), features)
    out = tmp_path / "g.tsv"
    assert run_cli("build-graph", "--features", features, "--similarity", "cosine", "--sigma", -3, "--out", out) == 1
    assert error_of(capsys)["message"] == "cosine similarity takes no sigma, got sigma=-3.0"
    assert not out.exists()
    assert run_cli("build-graph", "--features", features, "--similarity", "cosine", "--out", out) == 0


def single_valued_flags(parser, path=()):
    """(subcommand path, flag, a value it accepts) for every flag of
    ``parser`` and its subcommands that takes one value."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from single_valued_flags(sub, (*path, name))
        elif isinstance(action, _StoreOnce):
            value = action.choices[0] if action.choices else "gaussian:1" if action.metavar == "KIND:LEVEL" else "1"
            yield path, action.option_strings[0], value


def test_a_single_valued_flag_given_twice_is_a_usage_error(capsys):
    flags = list(single_valued_flags(build_parser()))
    assert len({path for path, _, _ in flags}) == 13  # every subcommand, synth's three fixtures each
    given = {(path, flag) for path, flag, _ in flags}
    assert {(("walks",), "--seed"), (("perturb",), "--noise"), (("pipeline",), "--config")} <= given
    # a flag that takes a list repeats
    assert given.isdisjoint({(("pipeline",), "--truth"), (("pipeline",), "--noise"), (("sweep",), "--truth"),
                             (("sweep",), "--grid")})
    for path, flag, value in flags:
        with pytest.raises(SystemExit) as exit_:
            main([*path, flag, value, flag, value])
        assert exit_.value.code == 2, (path, flag)
        assert f"error: argument {flag}: given more than once" in capsys.readouterr().err, (path, flag)


def test_sweep_cli_names_a_bad_grid_and_needs_one(tmp_path, capsys):
    assert run_cli("synth", "metro", "--lines", 3, "--stations", 4, "--out-dir", tmp_path) == 0
    cases = [
        (["--grid", "p"], "bad grid entry 'p'; expected name=v1,v2,..."),
        (["--grid", "dim=3,x"], "bad grid value for dim: invalid literal for int() with base 10: 'x'"),
        ([], "give at least one --grid name=v1,v2,..."),
    ]
    for grid, message in cases:
        code = run_cli("sweep", "--graph", tmp_path / "edges.tsv", "--truth", tmp_path / "line-membership.csv",
                       *grid, "--repeats", 1, "--out-dir", tmp_path / "sw")
        assert code == 1
        assert error_of(capsys)["message"] == message
    assert not (tmp_path / "sw").exists()
