"""Scoring and experiment harnesses.

Macro-F1 against a ground truth (cluster labels are matched to classes by
an optimal one-to-one assignment first), hyperparameter sweep grids with
baseline columns, additive-noise robustness curves, and region-to-region
interaction frequency tables.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .baselines import hca, spectral_cluster
from .clusterer import ClusterConfig, kmeans
from .embedder import TrainConfig, TrainingDiverged, train, train_many
from .srg import InteractionMatrix, build_srg_from_interactions
from .util import derive_seed, field_parser, knobs, parse_rows, prefixed, read_csv, write_csv
from .walker import WalkConfig, generate_walks

__all__ = [
    "GroundTruth",
    "EvaluationReport",
    "NoiseSpec",
    "macro_f1",
    "run_embedding_clustering",
    "check_truths",
    "check_noise",
    "STAGES",
    "EXPERIMENT_PARAMS",
    "stage_configs",
    "sweep",
    "SweepReport",
    "perturb",
    "noise_robustness",
    "NoiseReport",
    "interaction_frequency_report",
    "FrequencyReport",
    "save_labels",
    "load_labels",
    "load_ground_truth",
]


@dataclass(frozen=True)
class GroundTruth:
    """Reference labels for every node; labels are contiguous from 0."""

    node_ids: tuple[str, ...]
    labels: np.ndarray
    n_true: int
    name: str = "truth"

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "node_ids", tuple(self.node_ids))
        if labels.shape[0] != len(self.node_ids):
            raise ValueError("one label per node required")
        seen: set[str] = set()
        for nid in self.node_ids:
            if nid in seen:
                raise ValueError(f"node {nid!r} repeats in ground truth {self.name!r}")
            seen.add(nid)
        in_range = labels.size == 0 or (labels.min() >= 0 and labels.max() < self.n_true)
        if not (in_range and np.all(np.bincount(labels, minlength=self.n_true))):
            raise ValueError("labels must be contiguous integers 0..n_true-1, all present")

    @classmethod
    def from_labels(cls, node_ids, labels, name: str = "truth") -> "GroundTruth":
        """Remap arbitrary label values to contiguous 0..k-1 (sorted order)."""
        values, inverse = np.unique(np.asarray(labels), return_inverse=True)
        return cls(node_ids=tuple(node_ids), labels=inverse, n_true=values.size, name=name)


@dataclass(frozen=True)
class EvaluationReport:
    macro_f1: float
    per_class_f1: tuple[float, ...]
    matching: dict

    def to_json(self) -> dict:
        """Score, per-class F1 and matching (keys as text) for a JSON report."""
        return {
            "macro_f1": self.macro_f1,
            "per_class_f1": list(self.per_class_f1),
            "matching": {str(k): v for k, v in self.matching.items()},
        }


def macro_f1(pred_labels, truth: GroundTruth, node_ids=None) -> EvaluationReport:
    """Macro-averaged F1 after optimal cluster-to-class matching.

    Predicted labels are arbitrary cluster names; the one-to-one matching
    maximizing summed per-class F1 is found by :func:`_max_assignment`
    (dummy rows/columns pad unequal counts).  The score is the unweighted
    mean of per-class F1 over the truth classes.
    """
    pred = np.asarray(pred_labels)
    if node_ids is not None:
        ids = [str(x) for x in node_ids]
        if sorted(ids) != sorted(truth.node_ids):
            raise ValueError("predicted node set does not match the ground truth")
        pos = {nid: i for i, nid in enumerate(ids)}
        pred = pred[[pos[nid] for nid in truth.node_ids]]
    if pred.shape[0] != len(truth.node_ids):
        raise ValueError("one predicted label per node required")

    pred_values, pred_index = np.unique(pred, return_inverse=True)
    pred_values = pred_values.tolist()
    n_pred = len(pred_values)
    n_true = truth.n_true
    size = max(n_pred, n_true)
    counts = np.zeros((size, size))
    np.add.at(counts, (pred_index, truth.labels), 1.0)
    pred_sizes = counts.sum(axis=1)
    true_sizes = counts.sum(axis=0)
    denom = pred_sizes[:, None] + true_sizes[None, :]
    with np.errstate(invalid="ignore"):
        f1 = np.where(denom > 0, 2.0 * counts / np.where(denom > 0, denom, 1.0), 0.0)
    rows, cols = _max_assignment(f1)
    per_class = np.zeros(n_true)
    real = cols < n_true  # dummy columns pad the classes
    per_class[cols[real]] = f1[rows[real], cols[real]]
    matching = {pred_values[r]: int(c) for r, c in zip(rows, cols) if r < n_pred and c < n_true}
    return EvaluationReport(
        macro_f1=float(per_class.mean()),
        per_class_f1=tuple(float(v) for v in per_class),
        matching=matching,
    )


def _max_assignment(f1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of a maximum-sum assignment of the square matrix ``f1``.

    A line-for-line port of scipy's ``linear_sum_assignment(f1, maximize=True)``:
    Crouse's shortest augmenting path (IEEE TAES 2016) as in scipy's
    ``rectangular_lsap.cpp``, on the negated costs.  Python floats are IEEE
    doubles, so every comparison, ties included, and hence the assignment
    come out as in scipy.  ``f1`` must be finite.
    """
    cost = (-np.asarray(f1, dtype=float)).tolist()
    n = len(cost)
    u, v = [0.0] * n, [0.0] * n
    path, col4row, row4col = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        # shortest augmenting path from row ``cur`` to a column with no row
        shortest = [math.inf] * n
        seen_rows, seen_cols = [False] * n, [False] * n
        remaining = list(range(n - 1, -1, -1))  # reversed: constant costs give the identity
        min_val, i, sink = 0.0, cur, -1
        while sink == -1:
            seen_rows[i] = True
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + cost[i][j] - u[i] - v[j]
                if r < shortest[j]:
                    path[j], shortest[j] = i, r
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] == -1):
                    lowest, index = shortest[j], it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        # dual update, then augment along the path
        u[cur] += min_val
        for i in range(n):
            if seen_rows[i] and i != cur:
                u[i] += min_val - shortest[col4row[i]]
        for j in range(n):
            if seen_cols[j]:
                v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.arange(n), np.array(col4row, dtype=np.int64)


# -- the embedding-and-clustering pipeline used by experiments ----------------

# The stage configs of a run, by the PipelineConfig field that holds each.
STAGES = {"walk": WalkConfig, "train": TrainConfig, "cluster": ClusterConfig}

# The cluster count of an experiment run is the ground truth's class count,
# so of ClusterConfig's knobs only ``restarts`` applies.
EXPERIMENT_PARAMS = tuple(f.name for f in knobs(WalkConfig) + knobs(TrainConfig)) + ("restarts",)


def stage_configs(settings: dict) -> dict:
    """Flat settings keyed by field name, with each stage's knobs gathered
    into its config under its STAGES name.  Values are read by each field's
    parser, and one it rejects raises ValueError naming the knob; a knob
    left out keeps its default."""
    out = dict(settings)
    for name, cls in STAGES.items():
        given = [f for f in knobs(cls) if f.name in out]
        out[name] = cls(**{f.name: prefixed(f.name, field_parser(cls, f), out.pop(f.name)) for f in given})
    return out


def _check_param_names(names) -> None:
    unknown = sorted(set(names) - set(EXPERIMENT_PARAMS))
    if unknown:
        raise ValueError(
            f"unknown hyperparameter {unknown[0]!r}; expected one of {', '.join(EXPERIMENT_PARAMS)}"
        )


def _resolve_params(params: dict | None = None) -> tuple:
    """The stage configs of a flat dict of EXPERIMENT_PARAMS, in STAGES
    order (see :func:`stage_configs`).  An unknown name raises ValueError."""
    _check_param_names(params or {})
    configs = stage_configs(params or {})
    return tuple(configs[name] for name in STAGES)


def check_truths(g, truths, sources=None, min_classes: int = 2) -> list[GroundTruth]:
    """``truths`` as a list, once checked to have distinct names and each to
    label exactly the nodes of ``g`` in at least ``min_classes`` classes;
    else ValueError naming the truth by its entry of ``sources`` (default:
    its name).  Experiments run k-means at the class count, so need two."""
    truths = list(truths)
    wheres = [f"ground truth {t.name!r}" for t in truths] if sources is None else [str(s) for s in sources]
    first: dict[str, str] = {}
    for truth, where in zip(truths, wheres):
        if truth.name in first:
            both = f"{first[truth.name]} and {where}" if sources is not None else "two of them"
            raise ValueError(f"ground truths must have distinct names: {both} are both named {truth.name!r}")
        first[truth.name] = where
        graph_ids, truth_ids = set(g.node_ids), set(truth.node_ids)
        if graph_ids != truth_ids:
            raise ValueError(
                f"{where}: node set does not match the graph: {len(graph_ids - truth_ids)} of its "
                f"{g.num_nodes} nodes unlabeled, {len(truth_ids - graph_ids)} labeled nodes not in it"
            )
        if truth.n_true < min_classes:
            raise ValueError(f"{where}: {truth.n_true} class(es), need at least {min_classes}")
    return truths


def _embed_inputs(g, wcfg: WalkConfig, tcfg: TrainConfig, seed: int):
    """The embed step's walk corpus and training config: walks, then
    skip-gram training, seeded from ``seed`` as "walks" and "train"."""
    corpus = generate_walks(g, replace(wcfg, seed=derive_seed(seed, "walks")))
    return corpus, replace(tcfg, seed=derive_seed(seed, "train"))


def _score_runs(runs, truths):
    """One outcome per run, yielded in run order: the run's Macro-F1 against
    every truth, or the TrainingDiverged its training gave (:func:`train_many`).
    A run is (graph, its stage configs as :func:`_resolve_params` gives them,
    run seed, one k-means seed per truth): one embedding (:func:`_embed_inputs`),
    then k-means at each truth's class count with the cluster config's restarts.
    ``runs`` is read one run at a time, so it can build each graph lazily."""
    kmeans_args = deque()  # each read run's k-means restarts and seeds, until it is scored

    def inputs():
        for g, (wcfg, tcfg, ccfg), run_seed, km_seeds in runs:
            kmeans_args.append((ccfg.restarts, km_seeds))
            yield _embed_inputs(g, wcfg, tcfg, run_seed)

    for emb in train_many(inputs()):
        restarts, km_seeds = kmeans_args.popleft()
        if isinstance(emb, Exception):
            yield emb
            continue
        labels = [kmeans(emb.vectors, t.n_true, seed=s, restarts=restarts).labels for t, s in zip(truths, km_seeds)]
        yield [macro_f1(lab, t, node_ids=emb.node_ids).macro_f1 for lab, t in zip(labels, truths)]


def run_embedding_clustering(g, n: int, params: dict | None = None, seed: int = 0):
    """The embed step (:func:`_embed_inputs`) then k-means; returns (labels, embedding).

    ``params`` maps EXPERIMENT_PARAMS names to values (see
    :func:`_resolve_params`).  Labels are aligned to ``g.node_ids``.  All
    stage seeds derive from ``seed``, so a run is fully reproducible.
    """
    wcfg, tcfg, ccfg = _resolve_params(params)
    emb = train(*_embed_inputs(g, wcfg, tcfg, seed))
    assignment = kmeans(emb.vectors, n, seed=derive_seed(seed, "kmeans"), restarts=ccfg.restarts)
    return assignment.labels, emb


# -- hyperparameter sweep ------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    params: dict
    scores: dict  # truth name -> {"mean": float, "std": float, "sem": float | None}
    baselines: dict  # truth name -> {"sc": float, "hca": float}
    error: str | None = None


@dataclass(frozen=True)
class SweepReport:
    param_names: tuple[str, ...]
    cells: tuple[SweepCell, ...]
    repeats: int
    truth_names: tuple[str, ...]

    def _ranked(self, truth_name: str) -> list[SweepCell]:
        """Successful cells by mean Macro-F1, best first; ties keep cell order."""
        scored = [c for c in self.cells if c.error is None and truth_name in c.scores]
        return sorted(scored, key=lambda c: -c.scores[truth_name]["mean"])

    def best_cell(self, truth_name: str) -> dict:
        """Grid point with the highest mean Macro-F1 for one ground truth."""
        ranked = self._ranked(truth_name)
        if not ranked:
            raise ValueError(f"no successful cells for truth {truth_name!r}")
        return dict(ranked[0].params)

    def lead(self, truth_name: str) -> dict | None:
        """The best cell, the runner-up and the best cell's lead over it.

        ``lead_se`` is the lead in standard errors of the difference of the
        two means, sqrt(sem_best**2 + sem_runner_up**2); cells are seeded
        independently.  It is None with one repeat or when that SE is 0;
        ``runner_up`` and ``lead`` are None with one successful cell, and
        the whole entry is None with none.
        """
        ranked = self._ranked(truth_name)
        if not ranked:
            return None
        out = {"best": dict(ranked[0].params), "runner_up": None, "lead": None, "lead_se": None}
        if len(ranked) > 1:
            best, second = ranked[0].scores[truth_name], ranked[1].scores[truth_name]
            out.update(runner_up=dict(ranked[1].params), lead=best["mean"] - second["mean"])
            se = math.hypot(best["sem"], second["sem"]) if best["sem"] is not None else 0.0
            if se > 0:
                out["lead_se"] = out["lead"] / se
        return out

    def to_json(self) -> dict:
        tables = {}
        for truth in self.truth_names:
            rows = []
            for cell in self.cells:
                row = {"params": dict(cell.params), "error": cell.error}
                if cell.error is None:
                    row.update(cell.scores.get(truth, {}))
                    row.update(
                        {f"{k}_macro_f1": v for k, v in cell.baselines.get(truth, {}).items()}
                    )
                rows.append(row)
            tables[truth] = rows
        return {
            "param_names": list(self.param_names),
            "repeats": self.repeats,
            "tables": tables,
            "leads": {truth: self.lead(truth) for truth in self.truth_names},
        }

    def save_csv(self, path) -> None:
        rows = []
        for cell in self.cells:
            base = [repr(cell.params[k]) for k in self.param_names]
            for truth in self.truth_names:
                if cell.error is not None:
                    rows.append(base + [truth, "pem", "", "", self.repeats, cell.error])
                    continue
                score = cell.scores[truth]
                rows.append(base + [truth, "pem", repr(score["mean"]), repr(score["std"]), self.repeats, ""])
                for method, value in sorted(cell.baselines.get(truth, {}).items()):
                    rows.append(base + [truth, method, repr(value), "", self.repeats, ""])
        header = ["truth", "method", "macro_f1_mean", "macro_f1_std", "repeats", "error"]
        write_csv(path, [*self.param_names, *header], rows)


def sweep(
    g,
    truths,
    grid: dict,
    base_params: dict | None = None,
    repeats: int = 20,
    seed: int = 0,
    include_baselines: bool = False,
) -> SweepReport:
    """Mean Macro-F1 over ``repeats`` seeded runs for every grid cell.

    ``grid`` maps parameter names (p, q, dim, walk_length, num_walks,
    window, ...) to candidate values; cells are their cartesian product
    applied over ``base_params``.  Each (cell, repeat) trains one embedding
    from ``run_seed = derive_seed(seed, "cell", cell_idx, rep)`` (:func:`_embed_inputs`)
    and scores it against every truth: k-means at the truth's class count,
    seeded ``derive_seed(run_seed, truth.name, "kmeans")``.  A score's ``sem``
    is its std (ddof=1) over sqrt(repeats), None with one repeat.  With
    ``include_baselines``, spectral clustering is scored once per embedding
    dimension and average-linkage HCA once per sweep, and every cell carries
    both.  A cell whose values are out of range or whose training diverges
    is recorded, with the error of its first failed run in run order, and
    skipped; an unknown parameter name, or a truth that does not fit the
    graph, or two truths of one name (:func:`check_truths`), raise
    ValueError up front.
    Every cell is resolved first; then one :func:`_score_runs` scores the
    runs of every valid cell, cell by cell, so a lockstep group may span
    cells, and a failed run fails its own cell alone.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    _check_param_names([*(base_params or {}), *grid])
    truths = check_truths(g, truths)
    names = [t.name for t in truths]
    param_names = tuple(grid.keys())
    if not param_names:
        return SweepReport((), (), repeats, tuple(names))
    cells_params = [dict(zip(param_names, v)) for v in itertools.product(*[list(grid[k]) for k in param_names])]
    resolved = []  # each cell's stage configs, or the ValueError that rejects its values
    for cell_params in cells_params:
        try:
            resolved.append(_resolve_params({**(base_params or {}), **cell_params}))
        except ValueError as exc:
            resolved.append(exc)

    def runs():
        for cell_idx, stages in enumerate(resolved):
            for rep in range(0 if isinstance(stages, Exception) else repeats):
                run_seed = derive_seed(seed, "cell", cell_idx, rep)
                yield g, stages, run_seed, [derive_seed(run_seed, name, "kmeans") for name in names]

    outcomes = _score_runs(runs(), truths)
    cells: list[SweepCell] = []
    sc_scores: dict[int, dict] = {}  # per dim
    hca_scores: dict[str, float] = {}  # the tree depends on the graph alone
    for cell_params, stages in zip(cells_params, resolved):
        # a cell whose values are rejected has that ValueError for its one outcome
        rows = [stages] if isinstance(stages, Exception) else list(itertools.islice(outcomes, repeats))
        try:
            failed = next((row for row in rows if isinstance(row, Exception)), None)
            if failed is not None:
                raise failed
            scores = {
                name: {
                    "mean": float(row.mean()),
                    "std": float(row.std()),
                    "sem": float(row.std(ddof=1) / math.sqrt(repeats)) if repeats > 1 else None,
                }
                for name, row in zip(names, np.ascontiguousarray(np.array(rows).T))
            }
            baselines: dict[str, dict] = {}
            if include_baselines:
                dim = stages[1].dim
                if dim not in sc_scores:
                    sc_scores[dim] = _sc_scores(g, truths, dim, repeats, seed)
                hca_scores = hca_scores or _hca_scores(g, truths)
                baselines = {t: {"sc": sc_scores[dim][t], "hca": hca_scores[t]} for t in names}
            cells.append(SweepCell(cell_params, scores, baselines))
        except (ValueError, TrainingDiverged) as exc:  # record the failure, keep sweeping
            cells.append(SweepCell(cell_params, {}, {}, error=f"{type(exc).__name__}: {exc}"))
    return SweepReport(param_names, tuple(cells), repeats, tuple(names))


def _sc_scores(g, truths, dim: int, repeats: int, seed: int) -> dict[str, float]:
    """Spectral-clustering Macro-F1 per ground truth, the mean over repeats
    of one :func:`spectral_cluster` run per truth and repeat."""
    runs = [(t.n_true, derive_seed(seed, "sc", t.name, rep)) for t in truths for rep in range(repeats)]
    labels = iter(spectral_cluster(g, dim, runs))
    return {
        t.name: float(np.mean([macro_f1(next(labels), t, node_ids=g.node_ids).macro_f1 for _ in range(repeats)]))
        for t in truths
    }


def _hca_scores(g, truths) -> dict[str, float]:
    """Average-linkage HCA Macro-F1 per ground truth: :func:`hca` of the
    weight rows, cut at each truth's class count."""
    labels = hca(g.to_weight_matrix(), [t.n_true for t in truths])
    return {t.name: macro_f1(lab, t, node_ids=g.node_ids).macro_f1 for t, lab in zip(truths, labels)}


# -- additive noise ------------------------------------------------------------


@dataclass(frozen=True)
class NoiseSpec:
    """Additive noise description: Gaussian (level = sigma) or Poisson
    (level = lambda), with its own seed."""

    kind: str
    level: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "poisson"):
            raise ValueError("kind must be 'gaussian' or 'poisson'")
        if not (np.isfinite(self.level) and self.level >= 0.0):
            raise ValueError(f"noise level must be finite and nonnegative, got {self.level!r}")

    @property
    def label(self) -> str:
        return f"{self.kind}({self.level:g})"


def check_noise(noise) -> list[str]:
    """The curve label of every (kind, level) in ``noise``, each checked by
    NoiseSpec; two of one label, which would merge into one curve, raise
    ValueError naming both entries."""
    first: dict[str, str] = {}
    for i, (kind, level) in enumerate(noise, 1):
        label, entry = NoiseSpec(kind, level).label, f"entry {i} ({kind}:{level!r})"
        if label in first:
            raise ValueError(f"noise settings must have distinct labels: {first[label]} and {entry} are both {label!r}")
        first[label] = entry
    return list(first)


def perturb(matrix, spec: NoiseSpec) -> np.ndarray:
    """Add a seeded noise matrix, min-max scaled into [0, 1], to ``matrix``;
    entries that end up at or below zero drop their edge when a graph is rebuilt."""
    mat = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(mat)):
        raise ValueError("input matrix must be finite")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed)))
    if spec.kind == "gaussian":
        noise = rng.normal(0.0, spec.level, size=mat.shape) if spec.level > 0 else np.zeros(mat.shape)
    else:
        noise = rng.poisson(spec.level, size=mat.shape).astype(float)
    lo, hi = noise.min(), noise.max()
    scaled = (noise - lo) / (hi - lo) if hi > lo else np.zeros(mat.shape)
    return mat + scaled


@dataclass(frozen=True)
class NoiseReport:
    truth_name: str
    baseline_mean: float
    curves: dict  # noise label -> {"mean": float, "std": float, "level": float, "kind": str}
    repeats: int

    def to_json(self) -> dict:
        return {
            "truth": self.truth_name,
            "repeats": self.repeats,
            "unperturbed_macro_f1": self.baseline_mean,
            "curves": self.curves,
        }

    def save_csv(self, path) -> None:
        rows = [["none", "0", repr(self.baseline_mean), "", self.repeats]]
        for cur in (self.curves[label] for label in sorted(self.curves)):
            rows.append([cur["kind"], repr(cur["level"]), repr(cur["mean"]), repr(cur["std"]), self.repeats])
        write_csv(path, ["kind", "level", "macro_f1_mean", "macro_f1_std", "repeats"], rows)


def noise_robustness(
    g,
    truth: GroundTruth | list[GroundTruth],
    noise: list[tuple[str, float]],
    params: dict | None = None,
    repeats: int = 20,
    seed: int = 0,
) -> NoiseReport | tuple[NoiseReport, ...]:
    """Macro-F1 of the full pipeline on noise-perturbed weight matrices.

    For every (kind, level) in ``noise``, each repeat draws a fresh noise
    matrix, adds it to the graph's weight matrix (per :func:`perturb`),
    rebuilds the graph from the noisy volumes and runs the embedding
    pipeline.  The unperturbed pipeline is run with the same repeat seeds
    as the reference.  ``params`` is as for :func:`run_embedding_clustering`.
    ``params``, every (kind, level) (as in :func:`check_noise`)
    and every truth (as in :func:`check_truths`) are checked before the
    first run.  Each noisy graph is built when its run starts, and only its
    walks are kept until it trains (:func:`_score_runs`).  The first failed
    run, in run order, raises its error.

    ``truth`` is one GroundTruth, which gives one NoiseReport, or a sequence
    of them, which gives a tuple of reports in the same order.  Each run
    trains one embedding (:func:`_embed_inputs`) and scores it against every truth:
    k-means at the truth's class count, seeded ``derive_seed(run_seed,
    "kmeans")``, so each report equals that of a single-truth call.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    curve_names = check_noise(noise)
    stages = _resolve_params(params)
    truths = check_truths(g, [truth] if isinstance(truth, GroundTruth) else truth)
    weight = g.to_weight_matrix()

    def runs():  # the clean runs, then each noise setting's; each graph is built when its run starts
        for si, rep in itertools.product([None, *range(len(noise))], range(repeats)):
            if si is None:
                graph, run_seed = g, derive_seed(seed, "clean", rep)
            else:
                spec = NoiseSpec(*noise[si], seed=derive_seed(seed, "noise", si, rep))
                graph = build_srg_from_interactions(InteractionMatrix(g.node_ids, perturb(weight, spec)))
                run_seed = derive_seed(seed, "run", si, rep)
            yield graph, stages, run_seed, [derive_seed(run_seed, "kmeans")] * len(truths)

    scored = []
    for row in _score_runs(runs(), truths):
        if isinstance(row, Exception):  # no later group trains
            raise row
        scored.append(row)
    scores = np.ascontiguousarray(np.array(scored).T)  # one contiguous row per truth
    reports = tuple(
        NoiseReport(
            truth_name=t.name,
            baseline_mean=float(rows[0].mean()),
            curves={
                label: dict(kind=kind, level=float(level), mean=float(row.mean()), std=float(row.std()))
                for (kind, level), label, row in zip(noise, curve_names, rows[1:])
            },
            repeats=repeats,
        )
        for t, rows in zip(truths, scores.reshape(len(truths), 1 + len(noise), repeats))
    )
    return reports[0] if isinstance(truth, GroundTruth) else reports


# -- interaction frequency ------------------------------------------------------


@dataclass(frozen=True)
class FrequencyReport:
    """Row-stochastic region-to-region interaction shares."""

    matrix: np.ndarray
    region_labels: tuple[int, ...]
    flagged_rows: tuple[int, ...]  # regions with zero outgoing volume

    def save_csv(self, path) -> None:
        names = [f"r{lab}" for lab in self.region_labels]
        rows = ([name] + [repr(float(x)) for x in row] for name, row in zip(names, self.matrix))
        write_csv(path, ["region", *names], rows)


def interaction_frequency_report(od: InteractionMatrix, labels) -> FrequencyReport:
    """Share of each region's outgoing volume going to every region.

    Cell (i, j) = volume from region i to region j over region i's total
    outgoing volume.  Node self-volumes (the OD diagonal) are ignored.
    Regions with zero outgoing volume are flagged and left as zero rows.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != len(od.node_ids):
        raise ValueError("one label per node required")
    regions = sorted(set(labels.tolist()))
    volumes = od.volumes.copy()
    np.fill_diagonal(volumes, 0.0)
    r = len(regions)
    totals = np.zeros((r, r))
    for a, lab_a in enumerate(regions):
        rows = labels == lab_a
        for b, lab_b in enumerate(regions):
            cols = labels == lab_b
            totals[a, b] = volumes[np.ix_(rows, cols)].sum()
    out = np.zeros_like(totals)
    flagged = []
    for a in range(r):
        row_sum = totals[a].sum()
        if row_sum > 0.0:
            out[a] = totals[a] / row_sum
        else:
            flagged.append(regions[a])
    return FrequencyReport(out, tuple(regions), tuple(flagged))


# -- labels CSV -------------------------------------------------------------------


def save_labels(node_ids, labels, path) -> None:
    rows = ([nid, int(lab)] for nid, lab in zip(node_ids, np.asarray(labels).tolist()))
    write_csv(path, ["node_id", "label"], rows)


def _label(text: str) -> int:
    x = int(text)
    if not -(2**63) <= x < 2**63:
        raise ValueError(f"must fit in 64 bits, got {text}")
    return x


def load_labels(path) -> tuple[tuple[str, ...], np.ndarray]:
    rows = read_csv(path)
    if next(rows, (0, []))[1] != ["node_id", "label"]:
        raise ValueError(f"{path}: expected header 'node_id,label'")
    ids, labels = parse_rows(path, rows, 2, _label, "label", dtype=np.int64, checked=True)
    return ids, labels.reshape(-1)


def load_ground_truth(path, name: str | None = None) -> GroundTruth:
    ids, labels = load_labels(path)
    truth_name = name if name is not None else Path(path).stem
    return GroundTruth.from_labels(ids, labels, name=truth_name)
