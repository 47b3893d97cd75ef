"""Probabilistic embedding clustering toolkit.

Build a space relation graph from urban-style feature or interaction
matrices, embed its nodes with biased second-order random walks and
skip-gram training, cluster the embeddings, and evaluate the recovered
structure against ground truths and baselines.
"""

__version__ = "0.1.0"

from .baselines import SpectralEmbedding, hca, spectral_cluster, spectral_embedding
from .clusterer import (
    ClusterAssignment,
    ClusterConfig,
    IndexScores,
    kmeans,
    louvain,
    modularity,
    select_n,
    validity_indices,
)
from .embedder import (
    AliasTable,
    EmbeddingMatrix,
    TrainConfig,
    TrainingDiverged,
    load_embeddings,
    save_embeddings,
    sgns_loss_and_grad,
    train,
    train_many,
)
from .evaluator import (
    EvaluationReport,
    FrequencyReport,
    GroundTruth,
    NoiseSpec,
    interaction_frequency_report,
    load_ground_truth,
    load_labels,
    macro_f1,
    noise_robustness,
    perturb,
    run_embedding_clustering,
    save_labels,
    sweep,
)
from .srg import (
    FeatureMatrix,
    InteractionMatrix,
    SpaceRelationGraph,
    build_srg_from_adjacency,
    build_srg_from_features,
    build_srg_from_interactions,
    load_feature_csv,
    load_graph,
    load_od_csv,
    save_feature_csv,
    save_graph,
    save_od_csv,
)
from .synth import MetroSpec, blobs, default_metro_spec, metro_network, planted_od
from .walker import (
    WalkConfig,
    WalkCorpus,
    build_alias_tables,
    generate_walks,
    load_corpus,
    save_corpus,
    transition_distribution,
)
