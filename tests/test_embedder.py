import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import (
    central_difference_gradient,
    reference_batch_loss,
    reference_pair_indices,
    reference_train,
    sgns_finite_difference_error,
)

import pec.embedder
from pec.embedder import (
    LOSS_BLOCK_PAIRS,
    EmbeddingMatrix,
    TrainConfig,
    TrainingDiverged,
    _loss_terms,
    _outcome,
    _pair_codes,
    _pair_indices,
    _paired,
    _scores_and_grad,
    _sgd_block,
    load_embeddings,
    pair_count,
    save_embeddings,
    sgns_loss_and_grad,
    train,
    train_many,
)
from pec.srg import build_srg_from_adjacency
from pec.synth import default_metro_spec, metro_network
from pec.walker import WalkConfig, WalkCorpus, generate_walks


def corpus_for(g, **kwargs):
    cfg = WalkConfig(**{"walk_length": 10, "num_walks": 5, "seed": 0, **kwargs})
    return generate_walks(g, cfg)


def corpus_of(walks, node_ids):
    return WalkCorpus.of_walks(walks, node_ids, WalkConfig(), "")


def two_cliques(k=5):
    edges = []
    left = [f"l{i}" for i in range(k)]
    right = [f"r{i}" for i in range(k)]
    for group in (left, right):
        for i in range(k):
            for j in range(i + 1, k):
                edges.append((group[i], group[j]))
    edges.append((left[0], right[0]))
    return build_srg_from_adjacency(edges), left, right


# -- pair extraction -----------------------------------------------------------------


def training_pairs(corpus, window):
    """The (center, context) id pairs of one epoch, in the order training
    builds their codes before it shuffles them."""
    n, n_pairs = len(corpus.node_ids), pair_count(corpus, window)
    if not n_pairs:  # training builds no codes
        return []
    centers, contexts = np.divmod(_pair_codes(corpus.matrix, window, n_pairs, n), n)
    return [(corpus.node_ids[c], corpus.node_ids[x]) for c, x in zip(centers, contexts)]


def test_pairs_small_walk_window_one(monkeypatch):
    g = build_srg_from_adjacency([("A", "B"), ("B", "C")])
    corpus = corpus_for(g)
    fake = WalkCorpus.of_walks(
        walks=(("A", "B", "C"),),
        node_ids=corpus.node_ids,
        config=corpus.config,
        graph_fingerprint=corpus.graph_fingerprint,
    )
    pairs = training_pairs(fake, window=1)
    assert pairs == [("A", "B"), ("B", "A"), ("B", "C"), ("C", "B")]


def test_pairs_singleton_walk_empty():
    g = build_srg_from_adjacency([("A", "B")], node_ids=["A", "B", "X"])
    corpus = corpus_for(g, num_walks=1)
    fake = WalkCorpus.of_walks(
        walks=(("X",),),
        node_ids=corpus.node_ids,
        config=corpus.config,
        graph_fingerprint=corpus.graph_fingerprint,
    )
    assert training_pairs(fake, window=3) == []


def test_pairs_full_window_count():
    g = build_srg_from_adjacency([("A", "B"), ("B", "C")])
    corpus = corpus_for(g, walk_length=6, num_walks=1)
    length = 6
    for walk in corpus.walks:
        fake = WalkCorpus.of_walks(
            walks=(walk,),
            node_ids=corpus.node_ids,
            config=corpus.config,
            graph_fingerprint=corpus.graph_fingerprint,
        )
        assert len(training_pairs(fake, window=length)) == length * (length - 1)


def test_pairs_symmetric():
    g, _, _ = two_cliques(4)
    corpus = corpus_for(g, num_walks=2)
    pairs = training_pairs(corpus, window=3)
    counts = {}
    for pair in pairs:
        counts[pair] = counts.get(pair, 0) + 1
    for (a, b), c in counts.items():
        assert counts.get((b, a), 0) == c


@settings(max_examples=200, deadline=None)
@given(
    walks=st.lists(st.lists(st.integers(0, 5), max_size=12), max_size=8),
    window=st.integers(1, 15),
    chunk_steps=st.sampled_from([1, 5, 13, pec.embedder.PAIR_CHUNK_STEPS]),
)
def test_pairs_match_reference_triple_loop(walks, window, chunk_steps):
    # a small PAIR_CHUNK_STEPS builds the codes a walk or a few at a time, so
    # the order must hold across the seams between chunks
    ids = [f"n{i}" for i in range(6)]
    corpus = corpus_of([[ids[i] for i in walk] for walk in walks], ids)
    centers, contexts = reference_pair_indices(corpus, window)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pec.embedder, "PAIR_CHUNK_STEPS", chunk_steps)
        assert training_pairs(corpus, window) == [(ids[c], ids[x]) for c, x in zip(centers, contexts)]


# -- loss and gradients ------------------------------------------------------------------


def test_loss_closed_form_at_zero_scores():
    d = 4
    u = np.zeros(d)
    v = np.ones(d)
    neg = np.ones((1, d))
    loss, *_ = sgns_loss_and_grad(u, v, neg)
    assert loss == pytest.approx(2.0 * math.log(2.0), abs=1e-12)


def test_loss_saturates_for_aligned_pair():
    u = np.array([50.0, 0.0])
    v = np.array([50.0, 0.0])
    neg = np.array([[0.0, 1.0]])
    loss, *_ = sgns_loss_and_grad(u, v, neg)
    # positive term vanishes; negative orthogonal term contributes ln 2
    assert loss == pytest.approx(math.log(2.0), abs=1e-9)


def test_loss_nonnegative_and_finite():
    rng = np.random.default_rng(8)
    for _ in range(50):
        d = int(rng.integers(1, 8))
        m = int(rng.integers(1, 6))
        loss, gu, gv, gn = sgns_loss_and_grad(
            rng.normal(scale=3, size=d), rng.normal(scale=3, size=d), rng.normal(scale=3, size=(m, d))
        )
        assert loss >= 0.0 and np.isfinite(loss)
        assert np.all(np.isfinite(gu)) and np.all(np.isfinite(gv)) and np.all(np.isfinite(gn))


# Scores from the subnormals to 1e308 both ways, a dense run through the
# curved middle, and the points where exp(-|s|) reaches the subnormals (710)
# or rounds to zero (745).
MAGNITUDES = np.geomspace(5e-324, 1e308, 100_001)
LOSS_GRID = np.concatenate([
    MAGNITUDES, -MAGNITUDES, np.linspace(-40.0, 40.0, 200_001), [0.0, -0.0, 36.7, -36.7, 710.0, -710.0, 745.0, -745.0],
])


def loss_terms_of(scores):
    """The trainer's loss terms of a context and a negative that each score
    ``scores``: at d = 1 with u = 1, the kernel's scores are ``scores`` exactly."""
    rows_w = np.stack([np.ones_like(scores), scores, scores], axis=1)[:, :, None]
    out, e = np.empty((2, scores.size, 2), dtype=scores.dtype)
    with np.errstate(invalid="ignore"):
        _scores_and_grad(rows_w, out, e, np.empty_like(rows_w))
    _loss_terms(out, e)
    return out[:, 0], out[:, 1]


def test_loss_terms_are_softplus_within_two_ulp():
    context, negative = loss_terms_of(LOSS_GRID)
    for got, want in ((context, np.logaddexp(0.0, -LOSS_GRID)), (negative, np.logaddexp(0.0, LOSS_GRID))):
        assert np.all(got >= 0.0) and np.all(want >= 0.0)
        ulps = np.abs(got.view(np.int64) - want.view(np.int64))  # nonnegative floats order as their bits
        assert ulps.max() <= 2


# The float32 grid: subnormals to the largest float32 both ways, the dense
# run, and the points where exp(-|s|) reaches the subnormals (87.4) or
# rounds to zero (103.98).
F32 = np.finfo(np.float32)
MAGNITUDES_F32 = np.geomspace(float(F32.smallest_subnormal), float(F32.max), 150_000).astype(np.float32)
LOSS_GRID_F32 = np.concatenate([
    MAGNITUDES_F32, -MAGNITUDES_F32, np.linspace(-40.0, 40.0, 200_001, dtype=np.float32),
    np.array([0.0, -0.0, 16.7, -16.7, 87.4, -87.4, 103.98, -103.98], dtype=np.float32),
])


def test_float32_loss_terms_are_softplus_within_three_ulp():
    # the trainer's float32 terms against logaddexp(0, x) in float64, rounded once to float32
    context, negative = loss_terms_of(LOSS_GRID_F32)
    grid = LOSS_GRID_F32.astype(float)
    for got, want in ((context, np.logaddexp(0.0, -grid)), (negative, np.logaddexp(0.0, grid))):
        want = want.astype(np.float32)
        assert got.dtype == np.float32
        assert np.all(got >= 0.0) and np.all(want >= 0.0)
        # nonnegative floats order as their bits
        ulps = np.abs(got.view(np.int32).astype(np.int64) - want.view(np.int32))
        assert ulps.max() <= 3


def test_loss_terms_of_inf_and_nan():
    scores = np.array([np.inf, -np.inf, np.nan])
    context, negative = loss_terms_of(scores)
    assert context[:2].tolist() == np.logaddexp(0.0, -scores[:2]).tolist() == [0.0, np.inf]
    assert negative[:2].tolist() == np.logaddexp(0.0, scores[:2]).tolist() == [np.inf, 0.0]
    assert np.isnan(context[2]) and np.isnan(negative[2])


def test_loss_and_gradient_finite_at_extreme_scores():
    for score in (1e308, -1e308, 745.0, -745.0, 710.0, -710.0, 36.7, -36.7, 5e-324, 0.0):
        loss, gu, gv, gn = sgns_loss_and_grad(np.array([1.0]), np.array([score]), np.array([[score]]))
        assert np.isfinite(loss) and loss >= 0.0, score
        assert np.all(np.isfinite(gu)) and np.all(np.isfinite(gv)) and np.all(np.isfinite(gn)), score


def test_loss_and_gradient_stay_float64_for_float32_input():
    rng = np.random.default_rng(3)
    u, v, negs = (rng.normal(size=shape).astype(np.float32) for shape in (4, 4, (3, 4)))
    loss, gu, gv, gn = sgns_loss_and_grad(u, v, negs)
    assert type(loss) is float
    assert gu.dtype == gv.dtype == gn.dtype == np.float64


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    for _ in range(20):
        assert sgns_finite_difference_error(rng) <= 1e-4


def test_batch_step_is_the_gradient_of_the_summed_batch_loss():
    # one batch of three pairs over four nodes: center 0 repeats, and the
    # negatives repeat rows, hit their own pair's context and other pairs' contexts
    n, d, lr = 4, 3, 2.0**-20
    cen = np.array([0, 1, 0])
    ctx = np.array([1, 2, 3]) + n
    negs = np.array([[1, 1, 2], [2, 0, 3], [3, 1, 1]]) + n
    before = np.random.default_rng(31).normal(scale=0.5, size=(2 * n, d))
    weights = before.copy()
    cfg = TrainConfig(dim=d, initial_lr=lr, negatives=3, batch_size=cen.size)
    flat_index = np.arange(weights.size).reshape(weights.shape)
    rows = np.concatenate([cen[:, None], ctx[:, None], negs], axis=1)[:, None]  # one run
    [[loss]] = _sgd_block(weights, flat_index, rows, cfg, 0, cen.size)  # one batch, lr = initial_lr
    assert loss == pytest.approx(reference_batch_loss(before, cen, ctx, negs), rel=1e-12)
    step = (weights - before) / -lr
    numeric = central_difference_gradient(lambda w: reference_batch_loss(w, cen, ctx, negs), before)
    denom = np.maximum(np.maximum(np.abs(step), np.abs(numeric)), 1e-8)
    assert np.max(np.abs(step - numeric) / denom) <= 1e-4


FLOAT32_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, -1e-45, 1e-40, 3.4028235e38, -3.4028235e38, 1.0]


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    d=st.sampled_from([2, 4, 6, 16]),
    n_rows=st.integers(1, 4),
)
def test_paired_scatter_is_the_float32_scatter(data, d, n_rows):
    # a complex64 add is two float32 adds, one per lane, so the scatter through
    # the paired view gives each float the adds, in order, of the float32 scatter;
    # few rows make heavy repeats, and the edge values make signed zeros, inf - inf,
    # nan, subnormal sums and float32-max steps that overflow.  Where a nan meets a
    # nan, IEEE 754 leaves open which one the sum returns, and numpy's complex64
    # add returns the step's where its float32 add returns the weight's, so a nan
    # may differ in sign; every nan is compared as one value.  A run with a nan
    # weight ends as TrainingDiverged, so no output holds one.
    floats = st.one_of(st.sampled_from(FLOAT32_EDGES), st.floats(width=32))
    weights = data.draw(arrays(np.float32, (n_rows, d), elements=floats))
    batch = data.draw(arrays(np.int32, st.integers(1, 24), elements=st.integers(0, n_rows - 1)))
    step = data.draw(arrays(np.float32, (batch.size, d), elements=floats))
    single, paired = weights.copy(), weights.copy()
    assert _paired(paired).dtype == np.complex64
    single_index = np.arange(single.size).reshape(n_rows, d)
    paired_index = np.arange(_paired(paired).size).reshape(n_rows, -1)
    with np.errstate(all="ignore"):
        np.add.at(single.reshape(-1), single_index.take(batch, axis=0).reshape(-1), step.reshape(-1))
        np.add.at(_paired(paired), paired_index.take(batch, axis=0).reshape(-1), _paired(step))
    assert np.array_equal(np.isnan(paired), np.isnan(single))
    one_nan = np.float32(np.nan)
    assert (
        np.where(np.isnan(paired), one_nan, paired).view(np.uint32).tobytes()
        == np.where(np.isnan(single), one_nan, single).view(np.uint32).tobytes()
    )


# -- training ----------------------------------------------------------------------------


def test_zero_epochs_returns_initialization():
    g, _, _ = two_cliques(3)
    corpus = corpus_for(g)
    cfg = TrainConfig(dim=6, epochs=0, seed=4)
    emb1 = train(corpus, cfg)
    emb2 = train(corpus, cfg)
    assert np.array_equal(emb1.vectors, emb2.vectors)
    assert np.all(emb1.context_vectors == 0.0)
    assert np.all(np.abs(emb1.vectors) <= 0.5 / 6)


RAGGED_WALKS = [
    ["a", "b", "c", "b", "a", "d"],
    ["e"],
    ["c", "a"],
    ["d", "d", "b", "e", "c", "a", "b", "c", "e"],
    ["b"],
    ["e", "d", "c"],
]


@pytest.mark.parametrize("cfg", [
    TrainConfig(dim=6, window=2, epochs=2, seed=3),
    TrainConfig(dim=6, window=20, epochs=1, seed=4),
    TrainConfig(dim=5, window=3, epochs=2, batch_size=7, seed=5),
    TrainConfig(dim=4, window=2, epochs=3, seed=6),
    TrainConfig(dim=4, window=3, epochs=2, negatives=1, seed=7),
    TrainConfig(dim=1, window=3, epochs=2, batch_size=5, seed=8),
    TrainConfig(dim=8, epochs=2, seed=1),
    TrainConfig(dim=2, window=3, epochs=2, batch_size=5, seed=9),
], ids=["ragged", "window-over-length", "batch-7", "epochs-3", "negatives-1", "dim-1", "defaults", "dim-2"])
def test_train_matches_reference_byte_for_byte(cfg):
    corpus = corpus_of(RAGGED_WALKS, "abcde")
    emb = train(corpus, cfg)
    vectors, contexts, losses = reference_train(corpus, cfg)
    assert emb.vectors.tobytes() == vectors.tobytes()
    assert emb.context_vectors.tobytes() == contexts.tobytes()
    assert emb.epoch_mean_loss == losses


@pytest.fixture(scope="module")
def metro_corpus():
    """The metro fixture at walk length 12 x 5 walks: 45,000 pairs at window 5."""
    g, _, _ = metro_network(default_metro_spec())
    return corpus_for(g, walk_length=12, num_walks=5, seed=1)


@pytest.mark.parametrize("cfg", [
    TrainConfig(dim=16, epochs=2, batch_size=61, seed=12),
    TrainConfig(dim=64, epochs=1, seed=13),
], ids=["dim-16-batch-61", "dim-64"])
def test_train_matches_reference_on_metro_corpus(metro_corpus, cfg):
    # tens of loss blocks per epoch, a ragged last batch and a ragged last block
    n_pairs = pair_count(metro_corpus, cfg.window)
    block = LOSS_BLOCK_PAIRS // cfg.batch_size * cfg.batch_size
    assert n_pairs >= 40_000 and n_pairs % cfg.batch_size and n_pairs % block
    emb = train(metro_corpus, cfg)
    vectors, contexts, losses = reference_train(metro_corpus, cfg)
    assert emb.vectors.tobytes() == vectors.tobytes()
    assert emb.context_vectors.tobytes() == contexts.tobytes()
    assert emb.epoch_mean_loss == losses


def traced_train_peak(corpus, cfg) -> int:
    tracemalloc.start()
    try:
        train(corpus, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Held per pair while an epoch trains: the shuffled codes center * N + context
# (uint16 on the 100-node metro fixture, 2 bytes; uint32 up to 65,536 nodes,
# 4 bytes).  Negatives are drawn one loss block at a time, and the walk matrix
# (~0.4 bytes per pair at window 5) exists before training starts.  Measured:
# 2.0-2.1 bytes per added pair.  The allowance
# covers what does not grow with the corpus: one chunk of walks' pairs
# (~0.3 MB), the skipped negative cells (0.25 MB) and the per-batch blocks
# (~0.4 MB at dim 64).
TRAIN_BYTES_PER_PAIR = 5
TRAIN_FIXED_BYTES = 1_000_000


@pytest.mark.parametrize("dim, walk_length, num_walks, epochs", [(5, 12, 6, 2), (5, 12, 6, 3), (64, 20, 10, 1)])
def test_train_memory_per_pair(dim, walk_length, num_walks, epochs):
    # 54,000 and 170,000 pairs, then the same walks twice: the peak may grow by
    # at most TRAIN_BYTES_PER_PAIR per added pair.  With two or three epochs,
    # nothing of one epoch may be held while the next builds its pairs.
    g, _, _ = metro_network(default_metro_spec())
    corpus = corpus_for(g, walk_length=walk_length, num_walks=num_walks, seed=2)
    doubled = WalkCorpus(np.concatenate([corpus.matrix, corpus.matrix]), corpus.node_ids, corpus.config, "")
    n_pairs = pair_count(corpus, 5)
    assert n_pairs >= 50_000 and pair_count(doubled, 5) == 2 * n_pairs
    cfg = TrainConfig(dim=dim, epochs=epochs, seed=0)
    assert traced_train_peak(doubled, cfg) - traced_train_peak(corpus, cfg) <= TRAIN_BYTES_PER_PAIR * n_pairs


@pytest.mark.parametrize(
    "dim, walk_length, num_walks, epochs", [(5, 12, 6, 2), (64, 20, 10, 1), (5, 40, 10, 1), (5, 40, 10, 3)]
)
def test_train_memory_slope_per_pair(dim, walk_length, num_walks, epochs):
    # 54,000, 170,000 and 370,000 pairs.  Pairs as two int32, a second copy of
    # the codes, an epoch's negatives or codes kept from an earlier epoch need
    # 8+ bytes per pair.
    g, _, _ = metro_network(default_metro_spec())
    corpus = corpus_for(g, walk_length=walk_length, num_walks=num_walks, seed=2)
    n_pairs = pair_count(corpus, 5)
    peak = traced_train_peak(corpus, TrainConfig(dim=dim, epochs=epochs, seed=0))
    assert peak <= TRAIN_BYTES_PER_PAIR * n_pairs + TRAIN_FIXED_BYTES


def test_int64_view_shuffle_moves_rows_in_permutation_order():
    # numpy's 1-D shuffle makes the same draws whatever the item size, and
    # Generator.permutation(n) is that shuffle of arange(n): (n, 2) int32 rows
    # shuffled as one int64 each move in permutation order
    n = 100_003
    rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
    for r in (rng, ref_rng):
        r.integers(0, 7, size=3, dtype=np.int32)  # half a 64-bit word left in the bit generator
    rows = np.stack([np.arange(n), 3 * np.arange(n)], axis=1).astype(np.int32)
    rng.shuffle(rows.view(np.int64).reshape(-1))
    order = ref_rng.permutation(n)
    assert np.array_equal(rows[:, 0], order) and np.array_equal(rows[:, 1], 3 * order)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.array_equal(rng.integers(0, 7, size=5, dtype=np.int32), ref_rng.integers(0, 7, size=5, dtype=np.int32))


def test_int32_code_shuffle_is_the_permutation():
    # train_many shuffles each run's 1-D pair codes in place: for every code
    # type, the draws, the order and the generator state after are those of
    # rng.permutation(n)
    for dtype, n in ((np.int32, 100_003), (np.uint8, 256), (np.uint16, 65_536), (np.uint32, 100_003)):
        rng, ref_rng = np.random.default_rng(22), np.random.default_rng(22)
        for r in (rng, ref_rng):
            r.integers(0, 7, size=3, dtype=np.int32)  # half a 64-bit word left in the bit generator
        codes = np.arange(n, dtype=dtype)
        rng.shuffle(codes)
        assert np.array_equal(codes, ref_rng.permutation(n)), dtype
        assert rng.bit_generator.state == ref_rng.bit_generator.state, dtype


def test_pair_codes_take_the_smallest_unsigned_type_and_decode_to_the_pairs():
    # codes center * N + context lie in [0, N * N): uint64 at N = 70,000, past uint32
    n = 70_000
    mat = np.array([[69_999, 3, 69_998, 7], [12_345, 69_999, -1, -1], [0, -1, -1, -1]], dtype=np.int32)
    n_pairs = pair_count(WalkCorpus(mat, tuple(f"n{i}" for i in range(n)), WalkConfig(), ""), 2)
    codes = _pair_codes(mat, 2, n_pairs, n)
    assert codes.dtype == np.uint64 and codes.size == n_pairs == 12
    centers, contexts = _pair_indices(mat, 2)
    assert np.array_equal(codes // n, centers) and np.array_equal(codes % n, contexts)
    # at each type's boundary, walks over the last three nodes reach the largest code N * N - 1
    for n, dtype in ((16, np.uint8), (17, np.uint16), (256, np.uint16), (257, np.uint32), (65_536, np.uint32),
                     (65_537, np.uint64)):
        walks = np.array([[1, 2, 0], [2, 0, 2]], dtype=np.int32) + (n - 3)
        codes = _pair_codes(walks, 2, 12, n)
        centers, contexts = _pair_indices(walks, 2)
        assert codes.dtype == dtype and codes.max() == n * n - 1, n
        assert np.array_equal(codes // n, centers) and np.array_equal(codes % n, contexts), n


def metro_corpora(runs, **kwargs):
    g, _, _ = metro_network(default_metro_spec())
    return [corpus_for(g, seed=40 + r, **kwargs) for r in range(runs)]


@pytest.mark.parametrize("runs, cfg", [
    (2, TrainConfig(dim=64, epochs=1, seed=0)),
    (3, TrainConfig(dim=5, epochs=3, batch_size=27, seed=0)),
    (7, TrainConfig(dim=5, epochs=2, seed=0)),
    (3, TrainConfig(dim=64, epochs=2, batch_size=27, seed=0)),
], ids=["2-runs-dim-64", "3-runs-short-last-block", "7-runs", "3-runs-dim-64-short-last-block"])
def test_train_many_is_byte_identical_to_each_run_alone(runs, cfg, monkeypatch):
    corpora = metro_corpora(runs, walk_length=12, num_walks=2)
    n_pairs = pair_count(corpora[0], cfg.window)
    if cfg.batch_size == 27:  # the epoch's last loss block is 18 pairs, less than one batch
        assert n_pairs % (LOSS_BLOCK_PAIRS // 27 * 27) == 18
    cfgs = [replace(cfg, seed=100 + r) for r in range(runs)]
    groups = recording_group_sizes(monkeypatch)
    trained = list(train_many(zip(corpora, cfgs)))
    assert groups == [runs]  # all in one lockstep group
    for emb, corpus, run_cfg in zip(trained, corpora, cfgs, strict=True):
        alone = train(corpus, run_cfg)
        assert emb.vectors.tobytes() == alone.vectors.tobytes()
        assert emb.context_vectors.tobytes() == alone.context_vectors.tobytes()
        assert emb.epoch_mean_loss == alone.epoch_mean_loss and len(alone.epoch_mean_loss) == cfg.epochs


def recording_group_sizes(monkeypatch) -> list:
    """The number of runs of each lockstep group that ``train_many`` trains."""
    groups = []
    real_train_group = pec.embedder._train_group

    def recording_train_group(corpora, cfgs):
        groups.append(len(cfgs))
        return real_train_group(corpora, cfgs)

    monkeypatch.setattr(pec.embedder, "_train_group", recording_train_group)
    return groups


def test_train_many_groups_a_mixed_stream_and_changes_no_byte(monkeypatch):
    corpora = metro_corpora(3, walk_length=6, num_walks=1)
    n_pairs = pair_count(corpora[0], 2)
    short = WalkCorpus(corpora[1].matrix[:-1], corpora[1].node_ids, corpora[1].config, "")
    tripled = WalkCorpus(np.tile(corpora[0].matrix, (3, 1)), corpora[0].node_ids, corpora[0].config, "")
    g, _, _ = two_cliques()
    other_n = corpus_for(g, walk_length=6, num_walks=1)
    cfg = TrainConfig(dim=4, window=2, epochs=2)
    # by the budget alone, runs 2 to 5 would each join the group before them
    stream = [
        (corpora[0], replace(cfg, seed=1)),
        (corpora[1], replace(cfg, dim=5, seed=2)),  # another config
        (short, replace(cfg, dim=5, seed=3)),  # fewer pairs
        (other_n, replace(cfg, dim=5, seed=4)),  # another node count
        *[(corpora[r], replace(cfg, seed=5 + r)) for r in range(3)],  # two fit the budget, the third does not
        (tripled, replace(cfg, seed=8)), (tripled, replace(cfg, seed=9)),  # each over the budget alone
    ]
    assert pair_count(short, 2) < n_pairs == pair_count(corpora[1], 2) != pair_count(other_n, 2)
    assert 2 * pair_count(other_n, 2) <= 2 * n_pairs
    monkeypatch.setattr(pec.embedder, "LOCKSTEP_PAIRS", 2 * n_pairs)
    groups, read = recording_group_sizes(monkeypatch), []

    def reading(runs):
        for run in runs:
            read.append(run)
            yield run

    trained, read_at_outcome = [], []
    for emb in train_many(reading(stream)):
        trained.append(emb)
        read_at_outcome.append(len(read))
    assert groups == [1, 1, 1, 1, 2, 1, 1, 1]
    # a group trains once the run after it is read, and no later run is read before
    assert read_at_outcome == [2, 3, 4, 5, 7, 7, 8, 9, 9]
    for emb, (corpus, run_cfg) in zip(trained, stream, strict=True):
        alone = train(corpus, run_cfg)
        assert emb.vectors.tobytes() == alone.vectors.tobytes()
        assert emb.context_vectors.tobytes() == alone.context_vectors.tobytes()
        assert emb.epoch_mean_loss == alone.epoch_mean_loss


@pytest.mark.parametrize("lr, seeds, losses", [
    (1.2, [0, 8, 19], [None, "inf", "inf"]),
    (1.6, [1, 2], ["inf", "nan"]),
    (1.6, [2, 1], ["nan", "inf"]),
])
def test_train_many_gives_each_run_what_training_it_alone_gives(lr, seeds, losses):
    # each run alone trains or raises with its non-finite loss; in the group,
    # each run's outcome is that embedding, byte for byte, or that error
    g, _, _ = metro_network(default_metro_spec())
    corpora = [corpus_for(g, walk_length=6, num_walks=1, seed=s) for s in seeds]
    cfgs = [TrainConfig(dim=4, epochs=3, initial_lr=lr, seed=s) for s in seeds]
    alone = []
    for corpus, cfg in zip(corpora, cfgs):
        try:
            alone.append(train(corpus, cfg))
        except TrainingDiverged as exc:
            alone.append(exc)
    messages = [str(run) if isinstance(run, TrainingDiverged) else None for run in alone]
    assert [m and m[len("non-finite training loss ("):][:3] for m in messages] == losses
    for outcome, run in zip(train_many(zip(corpora, cfgs)), alone, strict=True):
        assert type(outcome) is type(run)
        if isinstance(run, TrainingDiverged):
            assert str(outcome) == str(run)
        else:
            assert outcome.vectors.tobytes() == run.vectors.tobytes()
            assert outcome.context_vectors.tobytes() == run.context_vectors.tobytes()
            assert outcome.epoch_mean_loss == run.epoch_mean_loss


def test_a_non_finite_context_row_is_divergence():
    # finite losses and center rows, one inf in a context row (rows N..2N-1)
    corpus = corpus_of([["a", "b"]], "ab")
    weights = np.zeros((4, 2))
    weights[3, 1] = np.inf
    failed = _outcome(corpus, weights, [0.5], TrainConfig(dim=2))
    assert isinstance(failed, TrainingDiverged) and str(failed) == "non-finite embedding entries; lower initial_lr"
    weights[3, 1] = 0.0
    assert isinstance(_outcome(corpus, weights, [0.5], TrainConfig(dim=2)), EmbeddingMatrix)


# 128 walks of length 9 over 20 nodes; at window 9 (>= the walk length) each
# walk gives 72 pairs, 9,216 in all: nine whole loss blocks at batch size 64.
GOLDEN_WALKS = [[f"n{(7 * i + 3 * j * j + i * j) % 20}" for j in range(9)] for i in range(128)]


@pytest.mark.parametrize("cfg, digest", [
    (TrainConfig(dim=5, window=9, epochs=1, batch_size=1, seed=31),
     "f26fe348873c08fc5bf924c9e33cdca875e1fb34c50115af8a74533847d5a391"),
    (TrainConfig(dim=16, window=9, epochs=3, batch_size=61, seed=32),
     "9fd04104c75cc3e52367b553964d6f9284c46e6bf5075925f5bd03d4590a7563"),
    (TrainConfig(dim=8, window=9, epochs=3, batch_size=10_000, initial_lr=0.002, seed=33),
     "9a4bb2aa0c32334ac9101f62db11f866f74843d999991343dc9e19fe69135f57"),
    (TrainConfig(dim=3, window=9, epochs=3, batch_size=64, seed=34),
     "7dc8064f7786b0eafa3ba18178c2dc13de5f1d873a85e71cfbe650cf57ec7717"),
], ids=["batch-1", "batch-61", "batch-over-pairs", "whole-loss-blocks"])
def test_train_output_bytes_are_golden(cfg, digest):
    # Digests of train's output, recorded with float32 weights (numpy 2.4,
    # x86-64); the returned vectors are their float64 copies.
    corpus = corpus_of(GOLDEN_WALKS, [f"n{i}" for i in range(20)])
    assert pair_count(corpus, cfg.window) == 9 * LOSS_BLOCK_PAIRS
    emb = train(corpus, cfg)
    payload = emb.vectors.tobytes() + emb.context_vectors.tobytes() + repr(emb.epoch_mean_loss).encode()
    assert hashlib.sha256(payload).hexdigest() == digest


def test_train_returns_float64_copies_of_float32_weights():
    # training holds float32 weights; every returned entry is one of them, exactly
    g, _, _ = two_cliques(4)
    emb = train(corpus_for(g), TrainConfig(dim=6, epochs=2, seed=5))
    for v in (emb.vectors, emb.context_vectors):
        assert v.dtype == np.float64
        assert np.array_equal(v.astype(np.float32).astype(float), v)


@pytest.mark.parametrize("walks", [[["a"], ["b"], ["a"]], []], ids=["single-node-walks", "no-walks"])
def test_train_without_pairs_returns_initialization(walks):
    corpus = corpus_of(walks, "abc")
    cfg = TrainConfig(dim=3, epochs=2, seed=11)
    emb = train(corpus, cfg)
    vectors, contexts, _ = reference_train(corpus, cfg)
    assert emb.epoch_mean_loss == ()
    assert emb.vectors.tobytes() == vectors.tobytes()
    assert emb.context_vectors.tobytes() == contexts.tobytes()


def test_training_deterministic():
    g, _, _ = two_cliques(3)
    corpus = corpus_for(g)
    cfg = TrainConfig(dim=8, epochs=2, seed=21)
    assert np.array_equal(train(corpus, cfg).vectors, train(corpus, cfg).vectors)


def test_clique_separation():
    g, left, right = two_cliques(5)
    corpus = corpus_for(g, walk_length=10, num_walks=10, seed=2)
    emb = train(corpus, TrainConfig(dim=8, epochs=5, seed=2))
    vecs = dict(zip(emb.node_ids, emb.vectors))

    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    intra, inter = [], []
    for i, a in enumerate(left):
        for b in left[i + 1:]:
            intra.append(cos(vecs[a], vecs[b]))
        for b in right:
            inter.append(cos(vecs[a], vecs[b]))
    assert np.mean(intra) > np.mean(inter)


def test_mean_loss_decreases_over_epochs():
    g, _, _ = two_cliques(5)
    deltas = []
    for seed in range(5):
        corpus = corpus_for(g, num_walks=8, seed=seed)
        emb = train(corpus, TrainConfig(dim=8, epochs=5, seed=seed))
        deltas.append(emb.epoch_mean_loss[-1] - emb.epoch_mean_loss[0])
    assert np.mean(deltas) < 0.0
    assert emb.epoch_mean_loss[-1] <= emb.epoch_mean_loss[0]


def test_divergence_raises():
    g, _, _ = two_cliques(4)
    corpus = corpus_for(g)
    with pytest.raises(TrainingDiverged, match="lower initial_lr"):
        train(corpus, TrainConfig(dim=4, epochs=30, initial_lr=5e4, seed=0))


def test_training_output_finite():
    g, _, _ = two_cliques(4)
    corpus = corpus_for(g)
    emb = train(corpus, TrainConfig(dim=5, epochs=3, seed=9))
    assert np.all(np.isfinite(emb.vectors))
    assert np.all(np.isfinite(emb.context_vectors))


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(dim=0)
    with pytest.raises(ValueError):
        TrainConfig(window=0)
    with pytest.raises(ValueError):
        TrainConfig(initial_lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(negatives=0)


# -- embedding file -------------------------------------------------------------------------


def test_embeddings_round_trip(tmp_path):
    g, _, _ = two_cliques(3)
    emb = train(corpus_for(g), TrainConfig(dim=5, epochs=1, seed=3))
    path = tmp_path / "emb.txt"
    save_embeddings(emb, path)
    loaded = load_embeddings(path)
    assert loaded.node_ids == emb.node_ids
    assert np.max(np.abs(loaded.vectors - emb.vectors)) <= 1e-8


def test_embeddings_header_contract(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("2 3\na 0.0 1.0 2.0\nb 3.0 4.0 5.0\n", encoding="utf-8")
    emb = load_embeddings(path)
    assert emb.node_ids == ("a", "b")
    assert emb.vectors.shape == (2, 3)


def test_embeddings_short_row_names_line(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("2 3\na 0.0 1.0 2.0\nb 3.0 4.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 3"):
        load_embeddings(path)


def test_embeddings_row_count_mismatch(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("3 2\na 0.0 1.0\nb 2.0 3.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="3 rows"):
        load_embeddings(path)


@pytest.mark.parametrize("header", ["2 x", "-2 3", "2.0 3"])
def test_embeddings_bad_header_names_path_and_line(tmp_path, header):
    path = tmp_path / "emb.txt"
    path.write_text(f"{header}\na 0.0 1.0 2.0\nb 3.0 4.0 5.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"emb\.txt: line 1: .*nonnegative integers"):
        load_embeddings(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_embeddings_non_finite_entry_names_path_and_line(tmp_path, value):
    path = tmp_path / "emb.txt"
    path.write_text(f"2 2\na 0.0 1.0\nb {value} 4.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"emb\.txt: line 3: non-finite"):
        load_embeddings(path)


def test_embeddings_repeated_node_names_path_and_line(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("3 1\na 0.0\nb 1.0\na 2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"emb\.txt: line 4: node 'a' repeats line 2"):
        load_embeddings(path)
