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

Memory: the only array that grows with the corpus is an epoch's (pairs, 2)
int32 ``[center, context]`` rows, 8 bytes per pair, built a chunk of walks
at a time and shuffled in place; the traced peak of ``train`` is that plus
~0.4-0.8 MB of chunk and batch buffers.  The outputs are those of drawing
``rng.permutation(pairs)``, then every negative's alias cell, then every
negative's uniform, because of two numpy stream facts.  The 1-D shuffle of
the rows viewed as int64 makes the draws of ``permutation``.  Bounded int32
draws take their 32-bit words from the bit generator's own buffer, so cells
drawn a block at a time are the cells of one draw: in
``AliasTable.draw_blocks`` a copy of the generator draws each loss block's
cells, while the generator itself skips them all and then draws each
block's uniforms.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .util import parse_rows, read_lines, write_lines
from .walker import WalkCorpus

__all__ = [
    "AliasTable",
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
PAIR_CHUNK_STEPS = 1 << 12  # walk steps whose pairs are built at a time


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


def _pair_count(mat: np.ndarray, window: int) -> int:
    """How many pairs ``_pair_indices`` gives: every two steps of one walk at
    most ``window`` apart, once each way."""
    valid = mat >= 0
    offsets = range(1, min(window, mat.shape[1] - 1) + 1)
    return 2 * sum(int(np.count_nonzero(valid[:, k:] & valid[:, :-k])) for k in offsets)


def _pair_array(mat: np.ndarray, window: int, n_pairs: int) -> np.ndarray:
    """The ``_pair_indices`` pairs as (n_pairs, 2) int32 ``[center, context]``
    rows, built a chunk of walks at a time into the one full-size array."""
    pairs = np.empty((n_pairs, 2), dtype=np.int32)
    walks, at = max(1, PAIR_CHUNK_STEPS // mat.shape[1]), 0
    for start in range(0, len(mat), walks):
        cen, ctx = _pair_indices(mat[start:start + walks], window)
        pairs[at:at + cen.size, 0], pairs[at:at + cen.size, 1] = cen, ctx
        at += cen.size
        del cen, ctx  # not held while the next chunk is built
    return pairs


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


class AliasTable:
    """Constant-time sampler for a fixed discrete distribution (Vose setup)."""

    __slots__ = ("accept", "alias", "size")
    DRAW_CHUNK = 1 << 16  # cells skipped at a time

    def __init__(self, probs) -> None:
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("need a non-empty 1-D probability vector")
        if np.any(probs < 0) or not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite and nonnegative")
        total = probs.sum()
        if total <= 0:
            raise ValueError("probabilities must not all be zero")
        k = probs.size
        scaled = (probs * (k / total)).tolist()
        accept = [0.0] * k
        alias = [0] * k
        small, large = [], []
        for i, s in enumerate(scaled):
            (small if s < 1.0 else large).append(i)
        while small and large:
            lo = small.pop()
            hi = large.pop()
            accept[lo] = scaled[lo]
            alias[lo] = hi
            scaled[hi] -= 1.0 - scaled[lo]
            (small if scaled[hi] < 1.0 else large).append(hi)
        for rest in (large, small):  # leftovers are numerically 1.0
            for i in rest:
                accept[i] = 1.0
                alias[i] = i
        self.size = k
        self.accept = np.array(accept)
        self.alias = np.array(alias, dtype=np.int64)

    def draw_blocks(self, rng: np.random.Generator, rows: int, width: int, block: int):
        """(rows, width) int32 draws, yielded ``block`` rows at a time: a cell per
        draw, then a uniform per cell in flat order, and a cell whose uniform is
        at least its acceptance becomes its alias.  Only one block is held."""
        cells_rng = copy.deepcopy(rng)
        n_cells = rows * width
        for start in range(0, n_cells, self.DRAW_CHUNK):
            rng.integers(0, self.size, size=min(self.DRAW_CHUNK, n_cells - start), dtype=np.int32)
        for start in range(0, rows, block):
            cells = cells_rng.integers(0, self.size, size=(min(block, rows - start), width), dtype=np.int32)
            miss = rng.random(cells.shape) >= self.accept[cells]
            cells[miss] = self.alias[cells[miss]]
            yield cells


def _negative_table(mat: np.ndarray, n: int) -> AliasTable:
    weights = np.bincount(mat[mat >= 0], minlength=n).astype(float) ** NEGATIVE_EXPONENT
    return AliasTable(weights / weights.sum())


def _sgd_block(weights, flat_index, rows, cfg, done, total_updates) -> list[float]:
    """SGD over one loss block of pair rows ``[center, context + N, negatives + N]``,
    in batches; returns each batch's summed loss, in order.  ``done`` counts
    earlier updates."""
    bs, m = min(cfg.batch_size, len(rows)), rows.shape[1] - 2
    flat = weights.reshape(-1)
    step = np.empty((bs, m + 2, weights.shape[1]))
    scores = np.empty((len(rows), m + 1))
    for start in range(0, len(rows), bs):
        batch = rows[start:start + bs]
        batch_step = step[:len(batch)]
        _scores_and_grad(weights[batch], scores[start:start + len(batch)], batch_step)
        lr = cfg.initial_lr * max(1.0 - (done + start) / total_updates, LR_FLOOR_FACTOR)
        batch_step *= -lr
        # center rows (< N) and context rows (>= N) never coincide, so the
        # pair-by-pair rows add each element's updates in batch order
        np.add.at(flat, flat_index[batch].reshape(-1), batch_step.reshape(-1))
    pos_loss, neg_loss = _softplus(-scores[:, 0]), _softplus(scores[:, 1:])
    whole = len(rows) // bs * bs  # pairs in whole batches; only the epoch's last has a tail
    totals = (
        pos_loss[:whole].reshape(-1, bs).sum(axis=1) + neg_loss[:whole].reshape(-1, bs * m).sum(axis=1)
    ).tolist()
    if whole < len(rows):
        totals.append(float(pos_loss[whole:].sum() + neg_loss[whole:].sum()))
    return totals


def _sgd_epoch(weights, flat_index, pairs, neg_table, rng, cfg, done, total_updates) -> float:
    """One SGD pass over the shuffled ``[center, context]`` rows ``pairs``, one
    loss block at a time; returns the summed loss.

    Each block's negatives are drawn as it starts, and its rows are filled
    into one reused int32 buffer; ``done`` counts earlier updates.
    """
    n, n_pairs, m = len(weights) // 2, len(pairs), cfg.negatives
    bs = min(cfg.batch_size, n_pairs)
    block = max(1, LOSS_BLOCK_PAIRS // bs) * bs  # whole batches per loss block
    rows = np.empty((min(block, n_pairs), m + 2), dtype=np.int32)
    loss_sum, first = 0.0, 0
    # divergence shows up as non-finite scores; detected and raised by the caller
    with np.errstate(invalid="ignore", over="ignore"):
        for negs in neg_table.draw_blocks(rng, n_pairs, m, block):
            held = rows[:len(negs)]
            held[:, :2], held[:, 2:] = pairs[first:first + len(negs)], negs
            held[:, 1:] += n
            for total in _sgd_block(weights, flat_index, held, cfg, done + first, total_updates):
                loss_sum += total  # summed batch by batch, left to right, as the loss is defined
            first += len(negs)
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

    n_pairs = _pair_count(corpus.matrix, cfg.window)
    epoch_losses: list[float] = []
    if cfg.epochs == 0 or n_pairs == 0:
        return EmbeddingMatrix(corpus.node_ids, vectors, contexts, ())

    neg_table = _negative_table(corpus.matrix, n)
    flat_index = np.arange(weights.size).reshape(weights.shape)
    total_updates = cfg.epochs * n_pairs
    for epoch in range(cfg.epochs):
        # rebuilt each epoch, as each shuffles the pairs in _pair_indices' order;
        # the int64 view shuffles whole rows with the draws of rng.permutation(n_pairs)
        pairs = _pair_array(corpus.matrix, cfg.window, n_pairs)
        rng.shuffle(pairs.view(np.int64).reshape(-1))
        loss_sum = _sgd_epoch(weights, flat_index, pairs, neg_table, rng, cfg, epoch * n_pairs, total_updates)
        del pairs  # not held while the next epoch builds its own
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
