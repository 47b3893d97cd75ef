"""Where the paper's claims stand on the metro fixture: acceptance criteria 9
and 10 over several seeds, with a chance-level null.

    python3 tools/claims.py [--epochs N] > claims.json

Run it from the root of a checkout; ``pec`` is imported from ``src/``.  It
takes ~5 min on two cores and prints one JSON object:

- ``criterion_9``: the p/q sweep of ``test_criterion_09_hyperparameter_interaction``
  at seeds 42-51.  Per seed and truth: the best cell, its mean Macro-F1,
  its lead over the runner-up cell and that lead in SEs
  (``SweepReport.lead``).  Then the null: one draw of random N x dim
  Gaussian vectors per repeat, put through the same ``kmeans`` and
  ``macro_f1``, and the best F1's lead over the null's mean in SEs of the
  difference.  A seed passes when the two truths peak at different cells;
  ``passed`` counts those seeds.
- ``criterion_10``: the noise curves of ``test_criterion_10_noise_robustness``
  at seeds 77-79.  Per seed: the clean Macro-F1 and the worst drop of a
  noisy curve below it; a seed passes when that drop is at most 0.10.

``--epochs`` sets the training epochs of both criteria (default: the
tests', ``TrainConfig``'s default).  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pec.clusterer import kmeans  # noqa: E402
from pec.embedder import TrainConfig  # noqa: E402
from pec.evaluator import macro_f1, noise_robustness, sweep  # noqa: E402
from pec.synth import default_metro_spec, metro_network  # noqa: E402
from pec.util import derive_seed  # noqa: E402

CRITERION_9_SEEDS = range(42, 52)
CRITERION_10_SEEDS = range(77, 80)
REPEATS = 20
WALKS = {"dim": 5, "walk_length": 10, "num_walks": 10, "window": 5}
CRITERION_9_GRID = {"p": [0.25, 4.0], "q": [0.25, 4.0]}
CRITERION_10_PARAMS = {"p": 4.0, "q": 1.0, **WALKS}
CRITERION_10_NOISE = [("gaussian", s) for s in (0.2, 0.5, 1.0, 2.0, 4.0)] + [
    ("poisson", lam) for lam in (1.0, 2.0, 4.0, 8.0, 16.0)
]
MAX_DROP = 0.10


def null_scores(truth, dim: int, repeats: int, seed: int) -> np.ndarray:
    """Macro-F1 of k-means (the sweep's default restarts) on random Gaussian
    vectors, one draw per repeat."""
    scores = []
    for rep in range(repeats):
        draw_seed = derive_seed(seed, "null", truth.name, rep)
        x = np.random.default_rng(draw_seed).standard_normal((len(truth.node_ids), dim))
        labels = kmeans(x, truth.n_true, seed=draw_seed).labels
        scores.append(macro_f1(labels, truth).macro_f1)
    return np.array(scores)


def criterion_9(g, truths, epochs: int, seed: int) -> dict:
    report = sweep(g, truths, grid=CRITERION_9_GRID, base_params={**WALKS, "epochs": epochs},
                   repeats=REPEATS, seed=seed)
    out = {}
    for truth in truths:
        lead = report.lead(truth.name)
        best = next(c.scores[truth.name] for c in report.cells if c.error is None and c.params == lead["best"])
        null = null_scores(truth, WALKS["dim"], REPEATS, seed)
        null_sem = float(null.std(ddof=1) / math.sqrt(REPEATS))
        out[truth.name] = {
            "best": lead["best"],
            "best_f1": best["mean"],
            "lead": lead["lead"],
            "lead_se": lead["lead_se"],
            "null_f1": float(null.mean()),
            "lead_over_null_se": (best["mean"] - float(null.mean())) / math.hypot(best["sem"], null_sem),
        }
    out["pass"] = out[truths[0].name]["best"] != out[truths[1].name]["best"]
    return out


def criterion_10(g, truth, epochs: int, seed: int) -> dict:
    report = noise_robustness(g, truth, noise=CRITERION_10_NOISE, params={**CRITERION_10_PARAMS, "epochs": epochs},
                              repeats=REPEATS, seed=seed)
    drops = {label: report.baseline_mean - curve["mean"] for label, curve in report.curves.items()}
    worst = max(drops, key=drops.get)
    return {"clean_f1": report.baseline_mean, "worst_drop": drops[worst], "worst": worst,
            "pass": drops[worst] <= MAX_DROP}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--epochs", type=int, default=TrainConfig.epochs,
                        help="training epochs of both criteria (default: %(default)s)")
    args = parser.parse_args(argv)
    g, line_truth, transfer_truth = metro_network(default_metro_spec())
    result = {"epochs": args.epochs}
    for name, seeds, run in (
        ("criterion_9", CRITERION_9_SEEDS, lambda s: criterion_9(g, [line_truth, transfer_truth], args.epochs, s)),
        ("criterion_10", CRITERION_10_SEEDS, lambda s: criterion_10(g, transfer_truth, args.epochs, s)),
    ):
        per_seed = {}
        for seed in seeds:
            start = time.perf_counter()
            per_seed[str(seed)] = run(seed)
            print(f"{name} seed {seed}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
        result[name] = {"seeds": per_seed, "passed": sum(s["pass"] for s in per_seed.values()),
                        "of": len(per_seed)}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
