"""Skip-gram embeddings with negative sampling, trained from a walk corpus.

Every node gets a d-dimensional vector; co-occurrence within a window of
the walks pulls vectors together, sampled negatives push them apart.  The
per-pair objective is

    loss = -ln sigmoid(u . v)  -  sum_n ln sigmoid(-u . v_n)

with u the center vector, v the context vector and v_n the sampled
negative context vectors.  Training is plain SGD with a linearly decaying
learning rate, applied in small batches; it is single-threaded by design
so a seed fully determines the result.  Center and context vectors are the
two halves of one (2N, d) array.  Each batch is one (B, m+2) row block,
``[center, context + N, negatives + N]`` pair by pair: one gather, one call
of ``_scores_and_grad``, the only place where the gradient is computed
(``sgns_loss_and_grad`` is that kernel at B = 1), and one 1-D ``np.add.at``
of its (B, m+2, d) step on the flat view.  That adds every element's updates
in input order, and center rows (< N) never coincide with context rows
(>= N), so interleaving them pair by pair keeps each element's order: the
floats are exactly those of one row-wise scatter for the centers and one for
the contexts.  The loss takes its softplus over a block of batches' scores
at once and sums each batch's share with one reshape-and-sum; the batch
totals are then added left to right, so the epoch means are unchanged.

Memory: node indices are below 2N, so the walk matrix, the pair indices and
the negatives are int32, and each epoch frees its permutation before it
draws the negatives.  An epoch holds ~36 bytes per (center, context) pair at
m = 5 negatives: the pair indices (8), their shuffled copies (8) and the
negatives (4m); the traced peak of ``train`` is that plus ~1.5 MB of chunk
and batch buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .util import parse_rows, read_lines, write_lines
from .walker import AliasTable, WalkCorpus

__all__ = [
    "TrainConfig",
    "EmbeddingMatrix",
    "TrainingDiverged",
    "extract_pairs",
    "sgns_loss_and_grad",
    "train",
    "save_embeddings",
    "load_embeddings",
]

LR_FLOOR_FACTOR = 1e-4  # lr never decays below initial_lr * this
NEGATIVE_EXPONENT = 0.75  # unigram smoothing for the negative distribution
LOSS_BLOCK_PAIRS = 1024  # pairs whose scores share one pair of softplus calls


class TrainingDiverged(RuntimeError):
    """Raised when training produces a non-finite loss or vectors."""


@dataclass(frozen=True)
class TrainConfig:
    """Skip-gram hyperparameters: vector dimension, context window, passes
    over the corpus, starting learning rate, negatives per pair, pairs per
    SGD step, and the RNG seed."""

    dim: int = 16
    window: int = 5
    epochs: int = 5
    initial_lr: float = field(default=0.025, metadata={"flag": "--lr"})
    negatives: int = 5
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if not (self.initial_lr > 0):
            raise ValueError("initial_lr must be positive")
        if self.negatives < 1:
            raise ValueError("negatives must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Learned vectors (one row per node) plus the training-side context
    vectors; ``vectors`` is the representation used downstream."""

    node_ids: tuple[str, ...]
    vectors: np.ndarray
    context_vectors: np.ndarray
    epoch_mean_loss: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.vectors.shape != self.context_vectors.shape:
            raise ValueError("vector matrices must have identical shapes")
        if self.vectors.shape[0] != len(self.node_ids):
            raise ValueError("one vector row per node required")
        if not (np.all(np.isfinite(self.vectors)) and np.all(np.isfinite(self.context_vectors))):
            raise ValueError("embedding entries must be finite")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _pair_indices(mat: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Center and context indices, walk by walk, position by position, then
    by ascending offset from -window to +window."""
    w = min(window, mat.shape[1] - 1)
    if w < 1:  # no walk has two nodes
        return np.zeros(0, dtype=mat.dtype), np.zeros(0, dtype=mat.dtype)
    padded = np.pad(mat, ((0, 0), (w, w)), constant_values=-1)
    ctx = np.lib.stride_tricks.sliding_window_view(padded, 2 * w + 1, axis=1)  # (walks, pos, offset)
    cen = mat[:, :, None]
    valid = (cen >= 0) & (ctx >= 0)
    valid[:, :, w] = False
    return np.broadcast_to(cen, ctx.shape)[valid], ctx[valid]


def extract_pairs(corpus: WalkCorpus, window: int) -> list[tuple[str, str]]:
    """(center, context) pairs for every walk position within the window."""
    if window < 1:
        raise ValueError("window must be at least 1")
    if not len(corpus.matrix):
        raise ValueError("corpus is empty")
    centers, contexts = _pair_indices(corpus.matrix, window)
    return [(corpus.node_ids[c], corpus.node_ids[x]) for c, x in zip(centers, contexts)]


def _softplus(x):
    return np.logaddexp(0.0, x)


def _sigmoid(x):
    e = np.exp(-np.abs(x))
    t = 1.0 + e
    return np.where(x >= 0, 1.0 / t, e / t)


def _scores_and_grad(rows_w, scores, grad) -> None:
    """On a gathered (B, m+2, d) block ``[center, context, negatives...]``, write
    u . v_k into ``scores`` (B, m+1) and, into ``grad`` (B, m+2, d), the
    gradient of each pair's loss with respect to each of its rows."""
    u, v = rows_w[:, 0], rows_w[:, 1:]
    np.einsum("bkd,bd->bk", v, u, out=scores)
    coef = _sigmoid(scores)
    coef[:, 0] -= 1.0
    np.einsum("bk,bkd->bd", coef, v, out=grad[:, 0])
    np.einsum("bk,bd->bkd", coef, u, out=grad[:, 1:])


def sgns_loss_and_grad(center_vec, context_vec, negative_vecs):
    """Loss and exact gradients for one (center, context, negatives) sample.

    Returns (loss, grad_center, grad_context, grad_negatives); the sigmoid
    is evaluated in an overflow-safe form, so the loss is finite for any
    finite inputs.  A 1-D ``negative_vecs`` is one negative.
    """
    rows_w = np.vstack([center_vec, context_vec, negative_vecs], dtype=float)[None]
    scores, grad = np.empty((1, rows_w.shape[1] - 1)), np.empty_like(rows_w)
    _scores_and_grad(rows_w, scores, grad)
    loss = float(_softplus(-scores[0, 0]) + _softplus(scores[0, 1:]).sum())
    return loss, grad[0, 0], grad[0, 1], grad[0, 2:]


def _negative_table(mat: np.ndarray, n: int) -> AliasTable:
    weights = np.bincount(mat[mat >= 0], minlength=n).astype(float) ** NEGATIVE_EXPONENT
    return AliasTable(weights / weights.sum())


def _sgd_epoch(weights, flat_index, cen_all, ctx_all, negs, cfg, done, total_updates) -> float:
    """One SGD pass over an epoch's pairs, in batches; returns the summed loss.

    ``cen_all`` are center rows of ``weights``, ``ctx_all`` and ``negs``
    context rows (already shifted by N); ``done`` counts earlier updates.
    Every array made here is freed on return, before the next epoch draws.
    """
    n_pairs, m = negs.shape
    flat = weights.reshape(-1)
    bs = min(cfg.batch_size, n_pairs)
    block = max(1, LOSS_BLOCK_PAIRS // bs) * bs  # whole batches per loss block
    step = np.empty((bs, m + 2, weights.shape[1]))
    block_scores = np.empty((block, m + 1))
    loss_sum = 0.0
    # divergence shows up as non-finite scores; detected and raised by the caller
    with np.errstate(invalid="ignore", over="ignore"):
        for first in range(0, n_pairs, block):
            last = min(first + block, n_pairs)
            for start in range(first, last, bs):
                stop = min(start + bs, last)
                rows = np.concatenate(
                    [cen_all[start:stop, None], ctx_all[start:stop, None], negs[start:stop]], axis=1
                )
                batch_step = step[:stop - start]
                _scores_and_grad(weights[rows], block_scores[start - first:stop - first], batch_step)
                lr = cfg.initial_lr * max(1.0 - (done + start) / total_updates, LR_FLOOR_FACTOR)
                batch_step *= -lr
                # center rows (< N) and context rows (>= N) never coincide, so the
                # pair-by-pair rows add each element's updates in batch order
                np.add.at(flat, flat_index[rows].reshape(-1), batch_step.reshape(-1))
            held = block_scores[:last - first]
            pos_loss, neg_loss = _softplus(-held[:, 0]), _softplus(held[:, 1:])
            whole = len(held) // bs * bs  # pairs in whole batches; only the epoch's last has a tail
            totals = (
                pos_loss[:whole].reshape(-1, bs).sum(axis=1) + neg_loss[:whole].reshape(-1, bs * m).sum(axis=1)
            ).tolist()
            if whole < len(held):
                totals.append(float(pos_loss[whole:].sum() + neg_loss[whole:].sum()))
            for total in totals:  # summed batch by batch, left to right, as the loss is defined
                loss_sum += total
    return loss_sum


def train(corpus: WalkCorpus, cfg: TrainConfig) -> EmbeddingMatrix:
    """Learn node vectors from the corpus.

    Negatives are drawn from the corpus unigram distribution raised to the
    3/4 power.  Center vectors start uniform in [-0.5/d, 0.5/d], context
    vectors at zero.  Deterministic for a fixed config.
    """
    n = len(corpus.node_ids)
    if n == 0:
        raise ValueError("corpus has no nodes")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    d = cfg.dim
    # rows 0..n-1 hold the center vectors, rows n..2n-1 the context vectors
    weights = np.zeros((2 * n, d))
    weights[:n] = (rng.random((n, d)) - 0.5) / d
    vectors, contexts = weights[:n], weights[n:]

    centers_idx, contexts_idx = _pair_indices(corpus.matrix, cfg.window)
    n_pairs = centers_idx.size
    epoch_losses: list[float] = []
    if cfg.epochs == 0 or n_pairs == 0:
        return EmbeddingMatrix(corpus.node_ids, vectors, contexts, ())

    neg_table = _negative_table(corpus.matrix, n)
    flat_index = np.arange(weights.size).reshape(weights.shape)
    total_updates = cfg.epochs * n_pairs
    for epoch in range(cfg.epochs):
        order = rng.permutation(n_pairs)
        cen_all = centers_idx[order]
        ctx_all = contexts_idx[order]
        del order  # freed before the negatives, the largest block, are drawn
        ctx_all += n
        negs = neg_table.draw_many(rng, (n_pairs, cfg.negatives))
        negs += n
        loss_sum = _sgd_epoch(weights, flat_index, cen_all, ctx_all, negs, cfg, epoch * n_pairs, total_updates)
        del negs, cen_all, ctx_all  # not held while the next epoch draws its own
        mean_loss = loss_sum / n_pairs
        if not np.isfinite(mean_loss):
            raise TrainingDiverged(
                f"non-finite training loss ({mean_loss}); lower initial_lr "
                f"(currently {cfg.initial_lr})"
            )
        epoch_losses.append(mean_loss)
    if not np.all(np.isfinite(vectors)):
        raise TrainingDiverged("non-finite embedding entries; lower initial_lr")
    return EmbeddingMatrix(corpus.node_ids, vectors, contexts, tuple(epoch_losses))


def save_embeddings(emb: EmbeddingMatrix, path) -> None:
    """Text format: ``N d`` header, then ``node_id v1 ... vd`` per node."""
    rows = (nid + " " + " ".join(f"{x:.17g}" for x in row) for nid, row in zip(emb.node_ids, emb.vectors))
    write_lines(path, ["{} {}".format(*emb.vectors.shape), *rows])


def load_embeddings(path) -> EmbeddingMatrix:
    lines = list(read_lines(path))
    if not lines:
        raise ValueError(f"{path}: empty embedding file")
    (head_line, head_text), body = lines[0], lines[1:]
    head = head_text.split()
    if len(head) != 2:
        raise ValueError(f"{path}: line {head_line}: expected header 'N d'")
    if not all(x.isdecimal() for x in head):
        raise ValueError(
            f"{path}: line {head_line}: header 'N d' needs two nonnegative integers, got {head_text!r}"
        )
    n, d = int(head[0]), int(head[1])
    if len(body) != n:
        raise ValueError(f"{path}: header declares {n} rows, found {len(body)}")
    split = [(lineno, text.split(" ")) for lineno, text in body]
    ids, rows = parse_rows(path, split, d + 1, float, "vector entry")
    vectors = np.array(rows).reshape(n, d)
    bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: line {body[bad[0]][0]}: non-finite vector entry")
    return EmbeddingMatrix(ids, vectors, np.zeros_like(vectors), ())
