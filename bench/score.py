"""Macro-F1 of an embedding at each ground truth's own class count.

    python3 bench/score.py EMBEDDINGS SEED TRUTH.csv [TRUTH.csv ...]

Clusters the embedding with pec's k-means at the number of classes of
each truth and prints one JSON object ``{truth name: Macro-F1}``.  Used
for ``metro-paper``, whose pipeline picks the cluster count by majority
vote of three validity indices: across seeds that vote flips between ~4
and ~10 clusters, which would make a Macro-F1 at the picked count
bimodal.  Scoring at the true counts measures the embedding alone.
"""

import json
import sys

from pec.clusterer import kmeans
from pec.embedder import load_embeddings
from pec.evaluator import load_ground_truth, macro_f1

embeddings, seed, truth_paths = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
emb = load_embeddings(embeddings)
scores = {}
for path in truth_paths:
    truth = load_ground_truth(path)
    labels = kmeans(emb.vectors, truth.n_true, seed=seed).labels
    scores[truth.name] = macro_f1(labels, truth, node_ids=emb.node_ids).macro_f1
print(json.dumps(scores))
