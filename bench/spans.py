"""Span recording around pec's layer functions, installed from outside the package.

``install`` replaces each target function by a span-recording wrapper in
every loaded ``pec`` module namespace that binds it.  ``from .walker import
generate_walks`` in ``pec.cli`` is such a binding, and the pipeline,
``sweep`` and ``noise_robustness`` look those names up in module globals
at call time, so their calls go through the wrapper.  A target that no
longer exists (renamed or inlined by a later change) is reported as
missing and its metrics read zero calls; nothing else changes.

Spans are ``[name, start, end, parent]`` rows kept in memory and written
out by the caller.  ``layer_metrics`` turns them into the per-layer
metrics: a span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import sys
import time
from collections import Counter

_PAGE = os.sysconf("SC_PAGE_SIZE")

# Function name -> span name.  Functions of one span name are one layer
# boundary; e.g. every graph file read or write is ``srg.io``.
TARGETS = {
    "pec.srg.build_srg_from_interactions": "srg.build",
    "pec.srg.build_srg_from_features": "srg.build",
    "pec.srg.build_srg_from_adjacency": "srg.build",
    "pec.srg.load_graph": "srg.io",
    "pec.srg.save_graph": "srg.io",
    "pec.srg.load_od_csv": "srg.io",
    "pec.srg.save_od_csv": "srg.io",
    "pec.srg.load_feature_csv": "srg.io",
    "pec.walker.build_alias_tables": "walker.sampler",
    "pec.walker.generate_walks": "walker.walks",
    "pec.walker.save_corpus": "walker.io",
    "pec.walker.load_corpus": "walker.io",
    "pec.embedder.train": "embedder.train",
    "pec.embedder.save_embeddings": "embedder.io",
    "pec.embedder.load_embeddings": "embedder.io",
    "pec.clusterer.kmeans": "clusterer.kmeans",
    "pec.clusterer.select_n": "clusterer.select_n",
    "pec.clusterer.louvain": "clusterer.louvain",
    "pec.baselines.spectral_cluster": "baselines.sc",
    "pec.baselines.hca": "baselines.hca",
    "pec.evaluator.macro_f1": "evaluator.macro_f1",
    "pec.evaluator.perturb": "evaluator.perturb",
}

# Work counters, read from a layer call's arguments and result after the
# span has closed.  Their own time is recorded as a ``trace.hooks`` span so
# that it lands in no layer's self time.
HOOK_SPAN = "trace.hooks"


def rss_bytes() -> int:
    """Resident set size of this process, from /proc/self/statm."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE


def _degrees(g) -> list[int]:
    return [len(g.neighbor_indices(i)) for i in range(g.num_nodes)]


def _window_pairs(length: int, window: int) -> int:
    return sum(min(length, i + window + 1) - max(0, i - window) - 1 for i in range(length))


def _count_graph(counters, args, kwargs, result) -> None:
    counters["srg.edges"] += result.num_edges


def _count_sampler(counters, args, kwargs, result) -> None:
    g = args[0] if args else kwargs["g"]
    counters["walker.second_order_states"] += sum(d * d for d in _degrees(g))


def _count_walks(counters, args, kwargs, result) -> None:
    counters["walker.steps"] += sum(len(w) - 1 for w in result.walks if w)


def _count_train(counters, args, kwargs, result) -> None:
    corpus = args[0] if args else kwargs["corpus"]
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    lengths = Counter(len(w) for w in corpus.walks)
    pairs = sum(n * _window_pairs(length, cfg.window) for length, n in lengths.items())
    counters["embedder.pair_updates"] += cfg.epochs * pairs
    if result.epoch_mean_loss:
        counters["embedder.final_loss"] = result.epoch_mean_loss[-1]


def _count_kmeans(counters, args, kwargs, result) -> None:
    counters["clusterer.kmeans_iters"] += max(len(result.inertia_history) - 1, 0)


def _count_louvain(counters, args, kwargs, result) -> None:
    counters["clusterer.louvain_modularity"] = result[2]


HOOKS = {
    "srg.build": _count_graph,
    "walker.sampler": _count_sampler,
    "walker.walks": _count_walks,
    "embedder.train": _count_train,
    "clusterer.kmeans": _count_kmeans,
    "clusterer.louvain": _count_louvain,
}


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.sampler_rss_growth: list[int] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        row = [name, 0.0, 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        row[1] = time.perf_counter()
        return row

    def _close(self, row: list) -> None:
        row[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        track_rss = name == "walker.sampler"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = rss_bytes() if track_rss else 0
            row = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(row)
            if track_rss:
                self.sampler_rss_growth.append(rss_bytes() - before)
            self.counters[name + ".calls"] += 1
            if hook is not None:
                row = self._open(HOOK_SPAN)
                try:
                    hook(self.counters, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, IndexError) as exc:
                    # a later change reshaped the call; lose the counter, not the run
                    note = f"{name} counters: {type(exc).__name__}: {exc}"
                    if note not in self.missing:
                        self.missing.append(note)
                finally:
                    self._close(row)
            return result

        return wrapper

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "counters": dict(self.counters),
            "sampler_rss_growth": self.sampler_rss_growth,
            "missing": self.missing,
        }


def install(tracer: Tracer, targets: dict = TARGETS) -> None:
    """Rebind every target in every loaded ``pec`` module to its wrapper."""
    import pec

    for info in pkgutil.iter_modules(pec.__path__, "pec."):
        importlib.import_module(info.name)
    modules = [m for key, m in sys.modules.items() if key == "pec" or key.startswith("pec.")]
    for qualname, span in targets.items():
        module_name, _, attr = qualname.rpartition(".")
        fn = getattr(sys.modules.get(module_name), attr, None)
        if not callable(fn):
            tracer.missing.append(qualname)
            continue
        wrapper = tracer.wrap(span, fn)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)


# -- aggregation (runs in run.py, not in the traced process) ------------------


def self_times(spans: list, probes: list = ()) -> tuple[dict, float]:
    """Self time per span name, and the summed duration of root spans.

    ``probes`` are ``(start, end)`` intervals of the speed probes (see
    child.py); each is taken out of the innermost span that contains it,
    and out of the root total when it falls inside a root span.
    """
    taken = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            taken[parent] += end - start
    in_roots = 0.0
    for p_start, p_end in probes:
        inner = max((i for i, (_, start, end, _) in enumerate(spans)
                     if start <= p_start and p_end <= end), default=-1)
        if inner >= 0:
            taken[inner] += p_end - p_start
            in_roots += p_end - p_start
    totals: Counter = Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        totals[name] += (end - start) - taken[i]
    roots = sum(end - start for name, start, end, parent in spans if parent < 0) - in_roots
    return dict(totals), roots


def layer_metrics(trace: dict, wall_s: float, probes: list = (), scale: float = 1.0) -> dict:
    """Per-layer metric values of one traced command.

    ``wall_s`` is the command's wall time with the ``probes`` taken out;
    every time is multiplied by ``scale``.
    """
    selfs, roots = self_times(trace["spans"], probes)
    counters = trace["counters"]
    other = wall_s - roots
    accounted = sum(selfs.values()) + other
    if abs(accounted - wall_s) > 1e-6 * max(wall_s, 1.0) or min(selfs.values(), default=0.0) < -1e-9:
        raise ValueError(
            f"span self times do not add up: {accounted!r} s accounted vs {wall_s!r} s wall"
        )

    def busy(name: str) -> float:
        return selfs.get(name, 0.0) * scale

    def count(name: str) -> float:
        return counters.get(name, 0)

    def rate(work: str, span: str) -> float:
        return count(work) / busy(span) if busy(span) > 0 else 0.0

    growth = trace["sampler_rss_growth"]
    return {
        "srg.build_s": busy("srg.build"),
        "srg.build_calls": count("srg.build.calls"),
        "srg.io_s": busy("srg.io"),
        "srg.edges": count("srg.edges"),
        "walker.sampler_s": busy("walker.sampler"),
        "walker.sampler_calls": count("walker.sampler.calls"),
        "walker.sampler_rss_mb": max(growth, default=0) / 2**20,
        "walker.second_order_states": count("walker.second_order_states"),
        "walker.walks_s": busy("walker.walks"),
        "walker.steps": count("walker.steps"),
        "walker.steps_per_s": rate("walker.steps", "walker.walks"),
        "walker.io_s": busy("walker.io"),
        "embedder.train_s": busy("embedder.train"),
        "embedder.train_calls": count("embedder.train.calls"),
        "embedder.pair_updates": count("embedder.pair_updates"),
        "embedder.pair_updates_per_s": rate("embedder.pair_updates", "embedder.train"),
        "embedder.final_loss": count("embedder.final_loss"),
        "embedder.io_s": busy("embedder.io"),
        "clusterer.kmeans_s": busy("clusterer.kmeans"),
        "clusterer.kmeans_calls": count("clusterer.kmeans.calls"),
        "clusterer.kmeans_iters": count("clusterer.kmeans_iters"),
        "clusterer.select_n_s": busy("clusterer.select_n"),
        "clusterer.louvain_s": busy("clusterer.louvain"),
        "clusterer.louvain_modularity": count("clusterer.louvain_modularity"),
        "baselines.sc_s": busy("baselines.sc"),
        "baselines.sc_calls": count("baselines.sc.calls"),
        "baselines.hca_s": busy("baselines.hca"),
        "baselines.hca_calls": count("baselines.hca.calls"),
        "evaluator.macro_f1_s": busy("evaluator.macro_f1"),
        "evaluator.perturb_s": busy("evaluator.perturb"),
        "evaluator.perturb_calls": count("evaluator.perturb.calls"),
        "cli.other_s": other * scale,
    }
