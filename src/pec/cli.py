"""Command-line interface and the end-to-end pipeline runner.

Every subcommand is a thin file-in/file-out wrapper over one library
operation; ``pipeline`` chains them and writes a manifest with config,
derived stage seeds, versions and content hashes so a run is reproducible
byte for byte.  Failures print a machine-readable JSON object on stderr
and exit with status 1 (usage errors exit with 2).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .clusterer import ClusterConfig, check_cluster_count, cluster, kmeans, louvain, selection
from .embedder import TrainConfig, load_embeddings, save_embeddings, train
from .evaluator import (
    EXPERIMENT_PARAMS,
    STAGES,
    NoiseSpec,
    check_noise,
    check_truths,
    interaction_frequency_report,
    load_ground_truth,
    load_labels,
    macro_f1,
    noise_robustness,
    perturb,
    save_labels,
    stage_configs,
    sweep,
)
from .srg import (
    build_srg_from_features,
    build_srg_from_interactions,
    load_feature_csv,
    load_graph,
    load_od_csv,
    save_feature_csv,
    save_graph,
    save_od_csv,
    InteractionMatrix,
)
from .synth import blobs, default_metro_spec, metro_network, planted_od
from .util import Numbering, derive_seed, field_parser, knobs, parse_fields, read_lines, sha256_file, write_json
from .walker import WalkConfig, generate_walks, load_corpus, save_corpus

__all__ = ["PipelineConfig", "PipelineError", "run_pipeline", "main"]


class PipelineError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause

    def to_json(self) -> dict:
        """The failure as the stderr JSON and a failed run's manifest give it."""
        return {"error": type(self.cause).__name__, "stage": self.stage, "message": str(self.cause)}


def _parse_noise_entry(entry: str) -> tuple[str, float]:
    kind, _, level = entry.partition(":")
    try:
        spec = NoiseSpec(kind, float(level))
    except ValueError as exc:
        # argparse prints the message of this error type as it is
        raise argparse.ArgumentTypeError(f"bad noise entry {entry!r}; expected kind:level; {exc}") from None
    return spec.kind, spec.level


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one end-to-end run needs.

    The hyperparameters live in the stage configs ``walk``, ``train`` and
    ``cluster``; the run replaces their seeds by stage seeds derived from
    ``seed``.  Flags, config-file keys and the manifest echo flatten the
    stage configs into these fields (see :func:`_settings`).  Field
    metadata, here and in the stage configs: ``flag`` and ``key`` where
    the flag or config key is not the field name, ``choices``, ``parse``
    for one value, ``metavar``.
    """

    walk: WalkConfig = field(default_factory=WalkConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    # input (exactly one)
    features_path: str | None = field(default=None, metadata={"flag": "--features"})
    od_path: str | None = field(default=None, metadata={"flag": "--od"})
    edges_path: str | None = field(default=None, metadata={"flag": "--edges"})
    # SRG-I options, for a features input only (see build_srg_from_features)
    similarity: str | None = field(default=None, metadata={"choices": ("gaussian", "cosine")})
    sigma: float | None = None
    k_nn: int | None = None
    tau: float | None = None
    # evaluation options
    truth_paths: tuple[str, ...] = field(default=(), metadata={"flag": "--truth", "key": "truth"})
    repeats: int = 20
    noise: tuple[tuple[str, float], ...] = field(
        default=(), metadata={"parse": _parse_noise_entry, "metavar": "KIND:LEVEL"}
    )
    # run options
    out_dir: str = "pec-run"
    seed: int = 0

    def __post_init__(self) -> None:
        inputs = [self.features_path, self.od_path, self.edges_path]
        if sum(x is not None for x in inputs) != 1:
            raise ValueError("give exactly one input: features, od or edges")
        srg_i = [name for name in _SRG_I_SETTINGS if getattr(self, name) is not None]
        if srg_i and self.features_path is None:
            raise ValueError(f"{', '.join(srg_i)}: SRG-I settings apply only to a features input (--features)")
        for path in inputs + list(self.truth_paths):
            if path is not None and not Path(path).is_file():
                raise ValueError(f"input file not found: {path!r}")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        if self.noise and not self.truth_paths:
            raise ValueError("noise curves need a ground truth: give --truth with --noise")
        check_noise(self.noise)


def _fields(cls, names=None) -> list:
    """(class, field) for the fields of ``cls``, or for those in ``names``."""
    return [(cls, f) for f in fields(cls) if names is None or f.name in names]


def _settings() -> list:
    """(class, field) of every flat pipeline setting: PipelineConfig's own
    fields, then each stage's hyperparameters."""
    own = [name for name in PipelineConfig.__dataclass_fields__ if name not in STAGES]
    return _fields(PipelineConfig, own) + [(cls, f) for cls in STAGES.values() for f in knobs(cls)]


def _echo(cfg: PipelineConfig) -> dict:
    """Every flat setting of ``cfg`` by field name, tuples as lists."""
    owners = {PipelineConfig: cfg, **{cls: getattr(cfg, name) for name, cls in STAGES.items()}}
    values = {f.name: getattr(owners[cls], f.name) for cls, f in _settings()}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}


def read_config_file(path) -> dict:
    """Parse ``key = value`` lines ('#' starts a comment) into settings by
    field name.  Keys are the flat setting names of :func:`_settings`, each
    on one line at most; list settings take comma-separated values."""
    by_key = {f.metadata.get("key", f.name): (cls, f) for cls, f in _settings()}
    seen = Numbering(path, what="config key")
    out: dict = {}
    for lineno, line in read_lines(path):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip().replace("-", "_"), raw.strip()
        if key not in by_key:
            raise ValueError(f"{path}: line {lineno}: unknown config key {key!r}")
        seen.declare(key, lineno)
        cls, f = by_key[key]
        many = isinstance(f.default, tuple)
        values = parse_fields(path, lineno, field_parser(cls, f), raw.split(",") if many else [raw], key)
        out[f.name] = tuple(values) if many else values[0]
        choices = f.metadata.get("choices")
        if choices and out[f.name] not in choices:
            raise ValueError(f"{path}: line {lineno}: {key} must be one of {', '.join(choices)}")
    return out


def _load_input(cfg: PipelineConfig):
    """The space relation graph of the run's input, and the OD matrix when
    the input is one (else None)."""
    if cfg.features_path is not None:
        feats = load_feature_csv(cfg.features_path)
        return build_srg_from_features(feats, cfg.similarity or "gaussian", cfg.sigma, cfg.k_nn, cfg.tau), None
    if cfg.od_path is not None:
        od = load_od_csv(cfg.od_path)
        return build_srg_from_interactions(od), od
    return load_graph(cfg.edges_path), None


# -- pipeline -------------------------------------------------------------------


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Run graph -> walks -> embedding -> clustering -> evaluation.

    Writes artifacts plus ``manifest.json`` into ``cfg.out_dir`` and
    returns the manifest, which hashes the artifacts this run wrote.
    Artifacts that an earlier run's manifest in ``out_dir`` lists and this
    run did not write are deleted; no other file is touched.
    A failed stage raises PipelineError naming it, after the same cleanup
    and a manifest that hashes the artifacts of the stages before it and
    records the failure under "failed".  The graph stage also checks that
    the ground truths' file stems differ, that each labels exactly the
    graph's nodes (in two classes or more with noise curves) and that the
    cluster count or, in mode auto-indices, the candidate range fits the
    graph, so that no such run starts training.
    """
    check_cluster_count(cfg.cluster)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stage_seeds = {
        stage: derive_seed(cfg.seed, stage)
        for stage in ("walks", "embed", "cluster", "evaluate")
    }
    manifest: dict = {
        "config": _echo(cfg),
        "master_seed": cfg.seed,
        "stage_seeds": stage_seeds,
        "versions": {
            "pec": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "inputs": {},
    }
    for path in (cfg.features_path, cfg.od_path, cfg.edges_path, *cfg.truth_paths):
        if path is not None:
            manifest["inputs"][str(path)] = sha256_file(path)
    try:  # what an earlier run in this directory wrote; an unreadable manifest lists nothing
        earlier = set(json.loads((out / "manifest.json").read_text(encoding="utf-8"))["outputs"].keys())
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        earlier = set()
    (out / "manifest.json").unlink(missing_ok=True)  # no manifest while it would describe another run
    written: list[str] = []
    failure = None

    def artifact(name: str) -> Path:
        written.append(name)
        return out / name

    stage = "graph"
    try:
        graph, od = _load_input(cfg)
        fingerprint = save_graph(graph, artifact("graph.tsv"))
        classes = 2 if cfg.noise else 1  # noise curves run k-means at each truth's class count
        truths = check_truths(graph, map(load_ground_truth, cfg.truth_paths), cfg.truth_paths, classes)
        check_cluster_count(cfg.cluster, graph.num_nodes)

        stage = "walks"
        corpus = generate_walks(graph, replace(cfg.walk, seed=stage_seeds["walks"]))
        save_corpus(replace(corpus, graph_fingerprint=fingerprint), artifact("corpus.txt"))

        stage = "embed"
        emb = train(corpus, replace(cfg.train, seed=stage_seeds["embed"]))
        save_embeddings(emb, artifact("embeddings.txt"))

        stage = "cluster"
        labels, record = cluster(emb.vectors, graph, cfg.cluster, stage_seeds["cluster"])
        if "selection" in record:
            write_json(record.pop("selection"), artifact("selection.json"))
        manifest.update(record)
        save_labels(graph.node_ids, labels, artifact("labels.csv"))

        stage = "evaluate"
        if truths:
            reports = {t.name: macro_f1(labels, t, node_ids=graph.node_ids).to_json() for t in truths}
            if cfg.noise:  # one embedding per noise run, scored against every truth
                noise_reps = noise_robustness(
                    graph,
                    truths,
                    list(cfg.noise),
                    params={name: manifest["config"][name] for name in EXPERIMENT_PARAMS},
                    repeats=cfg.repeats,
                    seed=stage_seeds["evaluate"],
                )
                for truth, noise_rep in zip(truths, noise_reps):
                    noise_rep.save_csv(artifact(f"noise_{truth.name}.csv"))
                    reports[truth.name]["noise"] = noise_rep.to_json()
            write_json(reports, artifact("report.json"))
        if od is not None:
            freq = interaction_frequency_report(od, labels)
            freq.save_csv(artifact("frequency.csv"))
    except Exception as exc:
        failure = PipelineError(stage, exc)
        manifest["failed"] = failure.to_json()

    for name in sorted(earlier - set(written)):
        if Path(name).name == name and (out / name).is_file():
            (out / name).unlink()
    # a failed stage may have named an artifact that it did not write
    manifest["outputs"] = {name: sha256_file(out / name) for name in sorted(written) if (out / name).is_file()}
    write_json(manifest, out / "manifest.json")
    if failure is not None:
        raise failure from failure.cause
    return manifest


# -- subcommands ------------------------------------------------------------------


def _cmd_build_graph(args) -> int:
    g, _ = _load_input(PipelineConfig(**_given(args, _INPUT_SETTINGS)))
    save_graph(g, args.out)
    print(f"wrote {args.out}: {g.num_nodes} nodes, {g.num_edges} edges, "
          f"{len(g.isolated_nodes())} isolated")
    return 0


def _cmd_walks(args) -> int:
    g = load_graph(args.graph)
    corpus = generate_walks(g, WalkConfig(**_given(args, _names(WalkConfig))))
    save_corpus(replace(corpus, graph_fingerprint=g.fingerprint()), args.out)
    print(f"wrote {args.out}: {len(corpus.matrix)} walks")
    return 0


def _cmd_embed(args) -> int:
    corpus = load_corpus(args.corpus)
    emb = train(corpus, TrainConfig(**_given(args, _names(TrainConfig))))
    save_embeddings(emb, args.out)
    print(f"wrote {args.out}: {len(emb.node_ids)} vectors of dim {emb.dim}")
    return 0


def _cmd_cluster(args) -> int:
    emb = load_embeddings(args.embeddings)
    cfg = ClusterConfig(**_given(args, _names(ClusterConfig)))
    assignment = kmeans(emb.vectors, cfg.n_clusters, seed=args.seed, restarts=cfg.restarts)
    save_labels(emb.node_ids, assignment.labels, args.out)
    print(f"wrote {args.out}: {cfg.n_clusters} clusters, inertia {assignment.inertia:.6g}")
    return 0


def _cmd_select_n(args) -> int:
    emb = load_embeddings(args.embeddings)
    cfg = ClusterConfig(**_given(args, _names(ClusterConfig)))
    payload = selection(emb.vectors, cfg, args.seed)
    write_json(payload, args.out)
    print(f"recommended n = {payload['recommended']}")
    return 0


def _cmd_louvain(args) -> int:
    g = load_graph(args.graph)
    labels, count, q = louvain(g, seed=args.seed, runs=args.runs)
    save_labels(g.node_ids, labels, args.out)
    print(json.dumps({"communities": count, "modularity": q}))
    return 0


def _cmd_evaluate(args) -> int:
    ids, labels = load_labels(args.pred)
    truth = load_ground_truth(args.truth)
    payload = {"truth": truth.name, **macro_f1(labels, truth, node_ids=ids).to_json()}
    if args.out:
        write_json(payload, args.out)
    print(json.dumps(payload, sort_keys=True))
    return 0


def _parse_grid(entries) -> dict:
    """``name=v1,v2,...`` entries, each name once and each value read by its
    field's parser; an unknown name keeps its values as text for ``sweep``
    to reject."""
    parsers = {f.name: field_parser(cls, f) for cls in STAGES.values() for f in knobs(cls)}
    grid = {}
    for entry in entries or []:
        key, _, values = entry.partition("=")
        if not values:
            raise ValueError(f"bad grid entry {entry!r}; expected name=v1,v2,...")
        key = key.strip().replace("-", "_")
        if key in grid:
            raise ValueError(f"grid name {key!r} is given twice")
        parse = parsers.get(key, str)
        try:
            grid[key] = [parse(v) for v in values.split(",")]
        except ValueError as exc:
            raise ValueError(f"bad grid value for {key}: {exc}") from None
    return grid


def _cmd_sweep(args) -> int:
    if args.workers < 1:  # kept for scripts that pass it; runs are serial
        raise ValueError("workers must be at least 1")
    g = load_graph(args.graph)
    truths = check_truths(g, map(load_ground_truth, args.truth), args.truth)
    grid = _parse_grid(args.grid)
    if not grid:
        raise ValueError("give at least one --grid name=v1,v2,...")
    report = sweep(
        g,
        truths,
        grid,
        base_params=_given(args, EXPERIMENT_PARAMS),
        repeats=args.repeats,
        seed=args.seed,
        include_baselines=args.baselines,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(report.to_json(), out_dir / "sweep.json")
    report.save_csv(out_dir / "sweep.csv")
    print(f"wrote {out_dir / 'sweep.json'} and {out_dir / 'sweep.csv'}")
    return 0


def _cmd_perturb(args) -> int:
    od = load_od_csv(args.matrix)
    spec = NoiseSpec(*args.noise, seed=args.seed)
    noisy = perturb(od.volumes, spec)
    save_od_csv(InteractionMatrix(od.node_ids, noisy), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_synth(args) -> int:
    """Build the fixture, then make the out-dir and write its files, so that
    rejected arguments leave no directory behind."""
    if args.fixture == "metro":
        g, line_truth, transfer_truth = metro_network(default_metro_spec(args.lines, args.stations, seed=args.seed))
        files = {
            "edges.tsv": partial(save_graph, g),
            "line-membership.csv": partial(save_labels, line_truth.node_ids, line_truth.labels),
            "transfer-vs-not.csv": partial(save_labels, transfer_truth.node_ids, transfer_truth.labels),
        }
        kind, size = "metro fixture", f"{g.num_nodes} stations, {g.num_edges} links"
    elif args.fixture == "od":
        od, truth = planted_od(args.blocks, args.nodes_per_block, args.intra, args.inter, seed=args.seed)
        files = {
            "od.csv": partial(save_od_csv, od),
            "block-membership.csv": partial(save_labels, truth.node_ids, truth.labels),
        }
        kind, size = "planted OD fixture", f"{len(od.node_ids)} nodes"
    else:
        feats, truth = blobs(
            args.clusters, args.points, dims=args.dims, spread=args.spread, separation=args.separation, seed=args.seed
        )
        files = {
            "features.csv": partial(save_feature_csv, feats),
            "blob-membership.csv": partial(save_labels, truth.node_ids, truth.labels),
        }
        kind, size = "blob fixture", f"{len(feats.node_ids)} points"
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, save in files.items():
        save(out_dir / name)
    print(f"wrote {kind} to {out_dir}: {size}")
    return 0


def _check_settings_are_read(settings: dict) -> None:
    """Raise ValueError for a given setting that the run would not read:
    ``n_min``/``n_max`` outside cluster mode 'auto-indices', ``repeats``
    without noise curves.  (``select-n`` reads its ``n_min`` and ``n_max``
    in mode 'fixed', so ClusterConfig cannot hold this rule.)"""
    mode = settings.get("cluster_mode", ClusterConfig.cluster_mode)
    for name in ("n_min", "n_max"):
        if name in settings and mode != "auto-indices":
            raise ValueError(f"{name}={settings[name]} is for cluster_mode 'auto-indices', not {mode!r}")
    if "repeats" in settings and not settings.get("noise"):
        raise ValueError(f"repeats={settings['repeats']!r} is for noise curves: give --noise with it")


def _cmd_pipeline(args) -> int:
    if args.workers < 1:  # kept for scripts that pass it; runs are serial and it is not recorded
        raise ValueError("workers must be at least 1")
    settings = read_config_file(args.config) if args.config else {}
    for name, value in _given(args, [f.name for _, f in _settings()]).items():
        # a repeated flag adds to the config file's list; others replace its value
        settings[name] = settings.get(name, ()) + value if isinstance(value, tuple) else value
    _check_settings_are_read(settings)
    manifest = run_pipeline(PipelineConfig(**stage_configs(settings)))
    print(f"wrote {Path(manifest['config']['out_dir']) / 'manifest.json'} "
          f"({len(manifest['outputs'])} artifacts)")
    return 0


# -- parser ---------------------------------------------------------------------


_SRG_I_SETTINGS = ("similarity", "sigma", "k_nn", "tau")
_INPUT_SETTINGS = ("features_path", "od_path", "edges_path", *_SRG_I_SETTINGS)


class _StoreOnce(argparse.Action):
    """``store`` for a flag given once: a repeat is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if hasattr(namespace, f"{self.dest} given"):
            raise argparse.ArgumentError(self, "given more than once")
        setattr(namespace, f"{self.dest} given", True)
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, for pec and each subcommand, storing through :class:`_StoreOnce`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for name in (None, "store"):
            self.register("action", name, _StoreOnce)


def _names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _add_flags(parser, settings, required=()) -> None:
    """One flag per (config class, field) in ``settings``: ``--field-name``
    unless the field's metadata names the flag, typed by the field.  A flag
    left out reads None so that the field keeps its default; a tuple field
    takes a repeated flag."""
    for cls, f in settings:
        flag = f.metadata.get("flag", "--" + f.name.replace("_", "-"))
        parser.add_argument(
            flag,
            dest=f.name,
            type=field_parser(cls, f),
            action="append" if isinstance(f.default, tuple) else "store",
            choices=f.metadata.get("choices"),
            metavar=f.metadata.get("metavar"),
            required=f.name in required,
        )


def _given(args, names) -> dict:
    """The flags among ``names`` that were given, by field name; repeated
    flags as tuples."""
    given = {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}
    return {k: tuple(v) if isinstance(v, list) else v for k, v in given.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pec",
        description="Graph embedding clustering pipeline for urban structure detection",
    )
    parser.add_argument("--version", action="version", version=f"pec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("build-graph", help="build a space relation graph from a matrix")
    _add_flags(g, _fields(PipelineConfig, _INPUT_SETTINGS))
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_build_graph)

    w = sub.add_parser("walks", help="sample the biased second-order walk corpus")
    w.add_argument("--graph", required=True)
    _add_flags(w, _fields(WalkConfig))
    w.add_argument("--out", required=True)
    w.set_defaults(func=_cmd_walks)

    e = sub.add_parser("embed", help="train skip-gram embeddings from a corpus")
    e.add_argument("--corpus", required=True)
    _add_flags(e, _fields(TrainConfig))
    e.add_argument("--out", required=True)
    e.set_defaults(func=_cmd_embed)

    c = sub.add_parser("cluster", help="k-means on an embedding matrix")
    c.add_argument("--embeddings", required=True)
    _add_flags(c, _fields(ClusterConfig, ("n_clusters", "restarts")), required=("n_clusters",))
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_cluster)

    s = sub.add_parser("select-n", help="score candidate cluster counts")
    s.add_argument("--embeddings", required=True)
    _add_flags(s, _fields(ClusterConfig, ("n_min", "n_max", "restarts")))
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_select_n)

    l = sub.add_parser("louvain", help="community count via fast unfolding")
    l.add_argument("--graph", required=True)
    l.add_argument("--seed", type=int, default=0)
    l.add_argument("--runs", type=int, default=5)
    l.add_argument("--out", required=True)
    l.set_defaults(func=_cmd_louvain)

    ev = sub.add_parser("evaluate", help="Macro-F1 of predicted labels vs a ground truth")
    ev.add_argument("--pred", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--out")
    ev.set_defaults(func=_cmd_evaluate)

    sw = sub.add_parser("sweep", help="grid of seeded pipeline runs")
    sw.add_argument("--graph", required=True)
    sw.add_argument("--truth", action="append", required=True)
    sw.add_argument("--grid", action="append", metavar="NAME=V1,V2,...")
    _add_flags(sw, [pair for cls in STAGES.values() for pair in _fields(cls, EXPERIMENT_PARAMS)])
    sw.add_argument("--repeats", type=int, default=20)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--baselines", action="store_true")
    sw.add_argument("--workers", type=int, default=1)
    sw.add_argument("--out-dir", required=True)
    sw.set_defaults(func=_cmd_sweep)

    pe = sub.add_parser("perturb", help="add seeded noise to an interaction matrix")
    pe.add_argument("--matrix", required=True)
    pe.add_argument("--noise", type=_parse_noise_entry, required=True, metavar="KIND:LEVEL")
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--out", required=True)
    pe.set_defaults(func=_cmd_perturb)

    sy = sub.add_parser("synth", help="generate synthetic fixtures")
    sy_sub = sy.add_subparsers(dest="fixture", required=True)
    m = sy_sub.add_parser("metro", help="metro-style network with dual ground truths")
    m.add_argument("--lines", type=int, default=11)
    m.add_argument("--stations", type=int, default=10)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--out-dir", required=True)
    m.set_defaults(func=_cmd_synth, fixture="metro")
    o = sy_sub.add_parser("od", help="planted-partition interaction matrix")
    o.add_argument("--blocks", type=int, default=4)
    o.add_argument("--nodes-per-block", type=int, default=15)
    o.add_argument("--intra", type=float, default=9.0)
    o.add_argument("--inter", type=float, default=1.0)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--out-dir", required=True)
    o.set_defaults(func=_cmd_synth, fixture="od")
    b = sy_sub.add_parser("blobs", help="Gaussian blob feature matrix")
    b.add_argument("--clusters", type=int, default=3)
    b.add_argument("--points", type=int, default=30)
    b.add_argument("--dims", type=int, default=5)
    b.add_argument("--spread", type=float, default=0.5)
    b.add_argument("--separation", type=float, default=5.0)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out-dir", required=True)
    b.set_defaults(func=_cmd_synth, fixture="blobs")

    pl = sub.add_parser("pipeline", help="run the whole pipeline with a manifest")
    pl.add_argument("--config")
    _add_flags(pl, _settings(), required=("out_dir",))
    pl.add_argument("--workers", type=int, default=1)
    pl.set_defaults(func=_cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as exc:
        print(json.dumps(exc.to_json(), sort_keys=True), file=sys.stderr)
        return 1
    except Exception as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
