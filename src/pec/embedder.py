"""Skip-gram embeddings with negative sampling, trained from a walk corpus.

Every node gets a d-dimensional vector; co-occurrence within a window of
the walks pulls vectors together, sampled negatives push them apart.  The
per-pair objective is

    loss = -ln sigmoid(u . v)  -  sum_n ln sigmoid(-u . v_n)

with u the center vector, v the context vector and v_n the sampled
negative context vectors.  Training is plain SGD with a linearly decaying
learning rate, applied in small batches; it is single-threaded by design
so a seed fully determines the result.

``train_many`` trains a stream of independent runs, and ``train`` is its
one-run case.  Consecutive runs of one node count N, one config apart from
the seed and one pair count share every batch boundary and learning rate,
so they form one lockstep group while its pairs stay within LOCKSTEP_PAIRS.
One float32 (R, 2N, d) array, 4 bytes per entry, holds a group's R runs, as
the reference word2vec trains in single precision; the initial vectors are
drawn in float64 and rounded, and each run's outcome holds float64 copies.
Rows 0..N-1 of run r are its center vectors, rows N..2N-1 its context
vectors, and run r's rows sit r * 2N into the flat (R * 2N, d) view.  Each
loss block is one (pairs, R, m+2) row block, ``[center, context + N,
negatives + N]`` pair by pair and run by run.
A batch is one gather (``take``, which costs less per call than fancy
indexing), one call of ``_scores_and_grad`` over (B * R, m+2, d),
the only place where the gradient is computed (``sgns_loss_and_grad`` is
that kernel at B = 1), and one 1-D ``np.add.at`` of its step on the flat
view.  That adds every element's updates in input order.  Runs never share
a row, and center rows (< N) never coincide with context rows (>= N), so
each element gets its run's updates in that run's serial order: the floats
are exactly those of one row-wise scatter for the centers and one for the
contexts, run by run.  Each score is exponentiated once: the kernel writes
e = exp(-|s|) beside the scores and builds the sigmoid from it, and at the
end of a loss block ``_loss_terms`` turns the block's scores into softplus
terms max(x, 0) + log1p(e) in place, in the weights' dtype: within 3 float32
ULP of a correctly rounded logaddexp(0, x) in training, and within 2 ULP of
``np.logaddexp(0, x)`` in the float64 ``sgns_loss_and_grad`` (no update
reads the loss).  Each run's share is made contiguous and summed per batch
in float32 with one reshape-and-sum, and the batch totals are then added
left to right as Python floats, so each run's epoch means are those of
training it alone.

Memory: the only arrays that grow with the corpus are each run's epoch of
pair codes ``center * N + context``, int32 while N * N < 2**31, so 4 bytes
per pair; they are built a chunk of walks at a time and shuffled in place.
The traced peak of ``train`` is that plus ~0.4-0.8 MB of chunk and batch
buffers.  Each run keeps its own generator, and its outputs are those of
drawing ``rng.permutation(pairs)``, then every negative's alias cell, then
every negative's uniform, because of two numpy stream facts.  The 1-D
shuffle makes the same draws whatever the item size, so shuffling the codes
is ``permutation``.  Bounded int32 draws take their 32-bit words from the bit
generator's own buffer, so cells drawn a block at a time are the cells of
one draw: in ``AliasTable.draw_blocks`` a copy of the generator draws each
loss block's cells, while the generator itself skips them all and then
draws each block's uniforms.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .util import parse_rows, read_lines, write_lines
from .walker import WalkCorpus

__all__ = [
    "AliasTable",
    "TrainConfig",
    "EmbeddingMatrix",
    "TrainingDiverged",
    "sgns_loss_and_grad",
    "pair_count",
    "train",
    "train_many",
    "save_embeddings",
    "load_embeddings",
]

LR_FLOOR_FACTOR = 1e-4  # lr never decays below initial_lr * this
NEGATIVE_EXPONENT = 0.75  # unigram smoothing for the negative distribution
LOSS_BLOCK_PAIRS = 1024  # pairs whose scores turn into loss terms at once
PAIR_CHUNK_STEPS = 1 << 12  # walk steps whose pairs are built at a time
LOCKSTEP_PAIRS = 1 << 18  # pairs of one lockstep group (1 MB of int32 codes), unless one run has more


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

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _pair_indices(mat: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Center and context indices, walk by walk, position by position, then
    by ascending offset from -window to +window."""
    w = min(window, mat.shape[1] - 1)
    padded = np.pad(mat, ((0, 0), (w, w)), constant_values=-1)
    ctx = np.lib.stride_tricks.sliding_window_view(padded, 2 * w + 1, axis=1)  # (walks, pos, offset)
    cen = mat[:, :, None]
    valid = (cen >= 0) & (ctx >= 0)
    valid[:, :, w] = False
    return np.broadcast_to(cen, ctx.shape)[valid], ctx[valid]


def pair_count(corpus: WalkCorpus, window: int) -> int:
    """How many (center, context) pairs the corpus gives: every two steps of
    one walk at most ``window`` apart, once each way."""
    valid = corpus.matrix >= 0
    offsets = range(1, min(window, corpus.matrix.shape[1] - 1) + 1)
    return 2 * sum(int(np.count_nonzero(valid[:, k:] & valid[:, :-k])) for k in offsets)


def _pair_codes(mat: np.ndarray, window: int, n_pairs: int, n: int) -> np.ndarray:
    """The ``_pair_indices`` pairs as one code ``center * n + context`` each,
    built a chunk of walks at a time: int32 when n * n < 2**31, else int64."""
    codes = np.empty(n_pairs, dtype=np.int32 if n * n < 2**31 else np.int64)
    walks, at = max(1, PAIR_CHUNK_STEPS // mat.shape[1]), 0
    for start in range(0, len(mat), walks):
        cen, ctx = _pair_indices(mat[start:start + walks], window)
        chunk = codes[at:at + cen.size]
        np.multiply(cen, n, out=chunk, dtype=codes.dtype)
        chunk += ctx
        at += cen.size
        del cen, ctx  # not held while the next chunk is built
    return codes


def _scores_and_grad(rows_w, scores, e, grad) -> None:
    """On a gathered (B, m+2, d) block ``[center, context, negatives...]``, write
    u . v_k into ``scores`` (B, m+1), exp(-|u . v_k|) into ``e`` (B, m+1) and,
    into ``grad`` (B, m+2, d), the gradient of each pair's loss with respect
    to each of its rows.  The sigmoid is built from ``e``, so it never
    overflows."""
    u, v = rows_w[:, 0], rows_w[:, 1:]
    np.einsum("bkd,bd->bk", v, u, out=scores)
    np.negative(np.abs(scores, out=e), out=e)
    np.exp(e, out=e)
    coef = np.where(scores >= 0, 1.0, e) / (1.0 + e)
    coef[:, 0] -= 1.0
    np.einsum("bk,bkd->bd", coef, v, out=grad[:, 0])
    np.einsum("bk,bd->bkd", coef, u, out=grad[:, 1:])


def _loss_terms(scores, e) -> None:
    """Turn (..., m+1) scores into their loss terms in place: softplus(-s) for
    the context (column 0) and softplus(s) for each negative, as
    max(x, 0) + log1p(exp(-|x|)) with ``e`` the scores' exp(-|s|), which
    ``_scores_and_grad`` wrote (and this overwrites)."""
    np.negative(scores[..., 0], out=scores[..., 0])
    np.maximum(scores, 0.0, out=scores)
    scores += np.log1p(e, out=e)


def sgns_loss_and_grad(center_vec, context_vec, negative_vecs):
    """Loss and exact gradients for one (center, context, negatives) sample.

    Returns (loss, grad_center, grad_context, grad_negatives); the sigmoid
    and the loss are evaluated in an overflow-safe form, so both are finite
    for any finite scores.  A 1-D ``negative_vecs`` is one negative.
    """
    rows_w = np.vstack([center_vec, context_vec, negative_vecs], dtype=float)[None]
    scores, grad = np.empty((1, rows_w.shape[1] - 1)), np.empty_like(rows_w)
    e = np.empty_like(scores)
    _scores_and_grad(rows_w, scores, e, grad)
    _loss_terms(scores, e)
    loss = float(scores[0, 0] + scores[0, 1:].sum())
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
        self.alias = np.array(alias, dtype=np.int32)

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
            yield np.where(rng.random(cells.shape) >= self.accept.take(cells), self.alias.take(cells), cells)


def _negative_table(mat: np.ndarray, n: int) -> AliasTable:
    weights = np.bincount(mat[mat >= 0], minlength=n).astype(float) ** NEGATIVE_EXPONENT
    return AliasTable(weights / weights.sum())


def _sgd_block(weights, flat_index, rows, cfg, done, total_updates) -> list[list[float]]:
    """SGD over one loss block of (pairs, runs, m+2) rows of ``weights``, in
    batches of pairs; returns each run's summed loss per batch, in order.
    ``done`` counts earlier updates."""
    pairs, runs, width = rows.shape
    bs, m = min(cfg.batch_size, pairs), width - 2
    flat, flat_rows = weights.reshape(-1), rows.reshape(-1, width)
    step = np.empty((bs * runs, width, weights.shape[1]), dtype=weights.dtype)
    # one allocation: measured a slightly lower peak RSS than two
    scores, e = np.empty((2, pairs * runs, m + 1), dtype=weights.dtype)
    for start in range(0, pairs, bs):
        batch = flat_rows[start * runs:(start + bs) * runs]
        batch_step, at = step[:len(batch)], slice(start * runs, (start + bs) * runs)
        _scores_and_grad(weights.take(batch, axis=0), scores[at], e[at], batch_step)
        lr = cfg.initial_lr * max(1.0 - (done + start) / total_updates, LR_FLOOR_FACTOR)
        batch_step *= -lr
        # runs never share a row, and center rows (< N) and context rows (>= N)
        # never coincide, so the rows add each element's updates in its run's order
        np.add.at(flat, flat_index.take(batch, axis=0).reshape(-1), batch_step.reshape(-1))
    _loss_terms(scores, e)
    losses = scores.reshape(pairs, runs, m + 1)
    # each run's losses, contiguous, so that its sums are those of training it alone
    pos_loss = np.ascontiguousarray(losses[:, :, 0].T)
    neg_loss = np.ascontiguousarray(losses[:, :, 1:].transpose(1, 0, 2))
    whole = pairs // bs * bs  # pairs in whole batches; only the epoch's last has a tail
    totals = (
        pos_loss[:, :whole].reshape(runs, -1, bs).sum(axis=2)
        + neg_loss[:, :whole].reshape(runs, -1, bs * m).sum(axis=2)
    ).tolist()
    if whole < pairs:
        for run_totals, pos, neg in zip(totals, pos_loss, neg_loss):
            run_totals.append(float(pos[whole:].sum() + neg[whole:].sum()))
    return totals


def _sgd_epoch(weights, codes, neg_tables, rngs, cfg, done, total_updates) -> list[float]:
    """One SGD pass of every run of ``weights`` (runs, 2N, d) over its shuffled
    pair codes, one loss block at a time; returns each run's summed loss.

    Each block's negatives are drawn as it starts, run by run, and its rows
    are filled into one reused (pairs, runs, m+2) buffer; ``done`` counts
    earlier updates.
    """
    runs, n2, d = weights.shape
    n, n_pairs, m = n2 // 2, len(codes[0]), cfg.negatives
    bs = min(cfg.batch_size, n_pairs)
    block = max(1, LOSS_BLOCK_PAIRS // bs) * bs  # whole batches per loss block
    rows = np.empty((min(block, n_pairs), runs, m + 2), dtype=np.int32)
    # run r's rows start at r * 2N; its context and negative rows at N past that
    shift = np.full((runs, m + 2), n, dtype=np.int32)
    shift[:, 0] = 0
    shift += n2 * np.arange(runs, dtype=np.int32)[:, None]
    flat_index = np.arange(weights.size).reshape(-1, d)
    draws = zip(*(table.draw_blocks(rng, n_pairs, m, block) for table, rng in zip(neg_tables, rngs)))
    loss_sums, first = [0.0] * runs, 0
    # divergence shows up as non-finite scores; detected and raised by the caller
    with np.errstate(invalid="ignore", over="ignore"):
        for negs in draws:
            held = rows[:len(negs[0])]
            for r, (run_codes, run_negs) in enumerate(zip(codes, negs)):
                np.divmod(run_codes[first:first + len(held)], n, out=(held[:, r, 0], held[:, r, 1]))
                held[:, r, 2:] = run_negs
            held += shift
            block_totals = _sgd_block(weights.reshape(-1, d), flat_index, held, cfg, done + first, total_updates)
            for r, run_totals in enumerate(block_totals):
                for total in run_totals:
                    loss_sums[r] += total  # summed batch by batch, left to right, as the loss is defined
            first += len(held)
    return loss_sums


def train_many(runs):
    """Learn node vectors for a stream of independent ``(corpus, TrainConfig)``
    runs, read one run at a time; yields one outcome per run, in run order:
    its EmbeddingMatrix, byte for byte that of training it alone, or the
    TrainingDiverged that training it alone raises.  Runs train in lockstep
    groups (see the module docstring), and a group trains once the run after
    it is read, so only its corpora and that run are held.
    """
    group, key = [], None
    for corpus, cfg in runs:
        n_pairs = pair_count(corpus, cfg.window)
        run_key = (len(corpus.node_ids), replace(cfg, seed=0), n_pairs)
        if group and (run_key != key or (len(group) + 1) * n_pairs > LOCKSTEP_PAIRS):
            yield from _train_group(*zip(*group))
            group = []
        group.append((corpus, cfg))
        key = run_key
    if group:
        yield from _train_group(*zip(*group))


def _train_group(corpora, cfgs) -> list[EmbeddingMatrix | TrainingDiverged]:
    """The :func:`train_many` outcomes of one lockstep group, in run order; a
    diverged run trains on with the others (runs share no row) and fails alone.
    Negatives follow the corpus unigram law raised to the 3/4 power; center
    vectors start uniform in [-0.5/d, 0.5/d], context vectors at zero."""
    cfg, n = cfgs[0], len(corpora[0].node_ids)
    if n == 0:
        raise ValueError("corpus has no nodes")
    n_pairs = pair_count(corpora[0], cfg.window)
    rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(c.seed))) for c in cfgs]
    d = cfg.dim
    # rows 0..n-1 of weights[r] hold run r's center vectors, rows n..2n-1 its context vectors
    weights = np.zeros((len(corpora), 2 * n, d), dtype=np.float32)
    for run_weights, rng in zip(weights, rngs):
        run_weights[:n] = (rng.random((n, d)) - 0.5) / d

    epoch_losses: list[list[float]] = [[] for _ in corpora]
    if cfg.epochs and n_pairs:
        neg_tables = [_negative_table(corpus.matrix, n) for corpus in corpora]
        total_updates = cfg.epochs * n_pairs
        for epoch in range(cfg.epochs):
            # rebuilt each epoch, as each shuffles the pairs in _pair_indices' order;
            # the 1-D shuffle makes the draws of rng.permutation(n_pairs)
            codes = [_pair_codes(corpus.matrix, cfg.window, n_pairs, n) for corpus in corpora]
            for r, rng in enumerate(rngs):
                rng.shuffle(codes[r])
            loss_sums = _sgd_epoch(weights, codes, neg_tables, rngs, cfg, epoch * n_pairs, total_updates)
            del codes  # not held while the next epoch builds its own
            for losses, loss_sum in zip(epoch_losses, loss_sums):
                losses.append(loss_sum / n_pairs)
    return [_outcome(corpus, w, losses, cfg) for corpus, w, losses in zip(corpora, weights, epoch_losses)]


def _outcome(corpus: WalkCorpus, weights: np.ndarray, losses: list[float], cfg: TrainConfig):
    """One trained run's EmbeddingMatrix, or the TrainingDiverged it fails
    with: a non-finite epoch loss, or a non-finite entry in its 2N rows."""
    n = len(corpus.node_ids)
    bad = [x for x in losses if not np.isfinite(x)]
    if bad:
        return TrainingDiverged(
            f"non-finite training loss ({bad[0]}); lower initial_lr (currently {cfg.initial_lr})"
        )
    if not np.all(np.isfinite(weights)):
        return TrainingDiverged("non-finite embedding entries; lower initial_lr")
    return EmbeddingMatrix(corpus.node_ids, weights[:n].astype(float), weights[n:].astype(float), tuple(losses))


def train(corpus: WalkCorpus, cfg: TrainConfig) -> EmbeddingMatrix:
    """Learn node vectors from the corpus: :func:`train_many` of one run;
    raises its TrainingDiverged."""
    [outcome] = train_many([(corpus, cfg)])
    if isinstance(outcome, TrainingDiverged):
        raise outcome
    return outcome


def save_embeddings(emb: EmbeddingMatrix, path) -> None:
    """Text format: ``N d`` header, then ``node_id v1 ... vd`` per node."""
    rows = (nid + " " + " ".join(f"{x:.17g}" for x in row) for nid, row in zip(emb.node_ids, emb.vectors))
    write_lines(path, ["{} {}".format(*emb.vectors.shape), *rows])


def load_embeddings(path) -> EmbeddingMatrix:
    lines = read_lines(path)
    head_line, head_text = next(lines, (0, ""))
    if not head_text:
        raise ValueError(f"{path}: empty embedding file")
    head = head_text.split()
    if len(head) != 2:
        raise ValueError(f"{path}: line {head_line}: expected header 'N d'")
    if not all(x.isdecimal() for x in head):
        raise ValueError(
            f"{path}: line {head_line}: header 'N d' needs two nonnegative integers, got {head_text!r}"
        )
    n, d = int(head[0]), int(head[1])
    found = sum(1 for _ in read_lines(path)) - 1  # a first pass that holds no line
    if found != n:
        raise ValueError(f"{path}: header declares {n} rows, found {found}")
    rows = ((lineno, text.split(" ")) for lineno, text in lines)
    ids, vectors = parse_rows(path, rows, d + 1, float, "vector entry", checked=True)
    bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if bad.size:
        lineno = next(itertools.islice(read_lines(path), bad[0] + 1, None))[0]
        raise ValueError(f"{path}: line {lineno}: non-finite vector entry")
    return EmbeddingMatrix(ids, vectors, np.zeros_like(vectors), ())
