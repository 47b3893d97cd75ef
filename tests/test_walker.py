import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_alias_probabilities, reference_draw_many, same_corpus

from pec.embedder import AliasTable
from pec.srg import SpaceRelationGraph, build_srg_from_adjacency, build_srg_from_interactions
from pec.synth import planted_od
from pec.walker import (
    WalkConfig,
    WalkCorpus,
    build_alias_tables,
    generate_walks,
    load_corpus,
    save_corpus,
    transition_distribution,
)


@pytest.fixture
def path_graph():
    return build_srg_from_adjacency([("A", "B"), ("B", "C")])


@pytest.fixture
def weighted_graph():
    # 5 nodes, mixed weights, one triangle so every bias case occurs
    return SpaceRelationGraph(
        ["a", "b", "c", "d", "e"],
        [
            ("a", "b", 1.0),
            ("b", "c", 2.0),
            ("a", "c", 0.5),
            ("c", "d", 1.5),
            ("d", "e", 0.25),
        ],
    )


def step_law(sampler, prev: int, cur: int) -> np.ndarray:
    """The sampler's exact law from the state (prev, cur), over ``neighbor_indices(cur)``."""
    g = sampler.graph
    nbrs = g.neighbor_indices(cur)
    unnorm = sampler.factors(np.full(nbrs.size, prev), nbrs) * g.neighbor_weights(cur)
    return unnorm / unnorm.sum()


# -- transition law ---------------------------------------------------------------


def test_unbiased_path_transition(path_graph):
    dist = transition_distribution(path_graph, "A", "B", p=1.0, q=1.0)
    assert dist == {"A": 0.5, "C": 0.5}


def test_biased_path_transition(path_graph):
    dist = transition_distribution(path_graph, "A", "B", p=2.0, q=0.5)
    assert dist["A"] == pytest.approx(0.2, abs=1e-12)
    assert dist["C"] == pytest.approx(0.8, abs=1e-12)


def test_triangle_q_never_applies():
    tri = build_srg_from_adjacency([("A", "B"), ("B", "C"), ("A", "C")])
    dist = transition_distribution(tri, "A", "B", p=1.0, q=4.0)
    assert dist["A"] == pytest.approx(0.5, abs=1e-12)
    assert dist["C"] == pytest.approx(0.5, abs=1e-12)


def test_distribution_sums_to_one(weighted_graph):
    g = weighted_graph
    for u, v, _ in g.edges():
        for prev, cur in ((u, v), (v, u)):
            for p, q in ((0.25, 4.0), (1.0, 1.0), (3.0, 0.5)):
                dist = transition_distribution(g, prev, cur, p, q)
                assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_unit_pq_reduces_to_weight_proportional(weighted_graph):
    g = weighted_graph
    for u, v, _ in g.edges():
        dist = transition_distribution(g, u, v, 1.0, 1.0)
        ci = g.index(v)
        wts = g.neighbor_weights(ci)
        expected = wts / wts.sum()
        for k, x in enumerate(g.neighbor_indices(ci)):
            assert dist[g.node_ids[int(x)]] == pytest.approx(expected[k], abs=1e-12)


def test_weight_scaling_leaves_transitions_unchanged(weighted_graph):
    g = weighted_graph
    scaled = SpaceRelationGraph(g.node_ids, [(u, v, 7.25 * w) for u, v, w in g.edges()])
    for u, v, _ in g.edges():
        d1 = transition_distribution(g, u, v, 0.5, 2.0)
        d2 = transition_distribution(scaled, u, v, 0.5, 2.0)
        for node in d1:
            assert d1[node] == pytest.approx(d2[node], abs=1e-12)


def test_non_edge_state_rejected(path_graph):
    with pytest.raises(ValueError, match="not an edge"):
        transition_distribution(path_graph, "A", "C", 1.0, 1.0)


# -- alias tables: the embedder's negative sampler ---------------------------------------


def draw(table, rng, rows, width=1):
    """``table``'s (rows, width) draws from ``draw_blocks`` in one block."""
    (block,) = table.draw_blocks(rng, rows, width, rows)
    return block


def test_alias_two_outcome_empirical_frequencies():
    table = AliasTable([0.2, 0.8])
    draws = draw(table, np.random.default_rng(0), 100_000)
    freq = np.bincount(draws.reshape(-1), minlength=2) / draws.size
    assert np.abs(freq - [0.2, 0.8]).sum() <= 0.01


def test_alias_uniform_case_needs_no_alias():
    table = AliasTable([0.2] * 5)
    assert np.allclose(table.accept, 1.0)
    assert np.allclose(reference_alias_probabilities(table), 0.2)


def test_alias_single_outcome():
    table = AliasTable([1.0])
    rng = np.random.default_rng(1)
    assert np.all(draw(table, rng, 100) == 0)


def test_alias_reconstructs_distribution_exactly():
    rng = np.random.default_rng(42)
    for _ in range(25):
        probs = rng.dirichlet(np.ones(rng.integers(2, 12)))
        table = AliasTable(probs)
        assert np.allclose(reference_alias_probabilities(table), probs, atol=1e-12)


@pytest.mark.parametrize("shape", [1, 1000, (70_000, 3), (1 << 16) + 1], ids=str)
def test_alias_draw_many_matches_reference(shape):
    table = AliasTable(np.random.default_rng(3).dirichlet(np.ones(37)))
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    shape = (shape, 1) if isinstance(shape, int) else shape
    draws = draw(table, rng, *shape)
    assert np.array_equal(draws, reference_draw_many(table, ref_rng, shape))
    assert rng.random() == ref_rng.random()  # the stream is left where the reference leaves it


def test_alias_draw_many_is_int32_and_matches_reference_across_chunks():
    table = AliasTable(np.random.default_rng(5).dirichlet(np.ones(100)))
    shape = (AliasTable.DRAW_CHUNK // 3 + 7, 3)  # the skipped cells straddle the first chunk's end
    assert np.prod(shape) > AliasTable.DRAW_CHUNK
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    draws = draw(table, rng, *shape)
    assert draws.dtype == np.int32
    assert np.array_equal(draws, reference_draw_many(table, ref_rng, shape))
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("rows, width, block", [
    (AliasTable.DRAW_CHUNK // 3 + 7, 3, 1000),  # a block straddles the cells' first chunk end; last is ragged
    (70_001, 3, 30_000),  # each block holds more than one chunk of cells
    (5, 5, 2),
], ids=["straddle", "blocks-over-chunk", "tiny"])
def test_alias_draw_blocks_concatenate_to_draw_many(rows, width, block):
    # bounded int32 cells are cut from the bit generator's 32-bit words, so
    # cells drawn block by block are the cells of one draw
    table = AliasTable(np.random.default_rng(6).dirichlet(np.ones(50)))
    rng, ref_rng = np.random.default_rng(13), np.random.default_rng(13)
    for r in (rng, ref_rng):
        r.integers(0, 7, size=3, dtype=np.int32)  # half a 64-bit word left in the bit generator
    blocks = list(table.draw_blocks(rng, rows, width, block))
    assert [len(b) for b in blocks] == [min(block, rows - s) for s in range(0, rows, block)]
    assert np.array_equal(np.concatenate(blocks), reference_draw_many(table, ref_rng, (rows, width)))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.array_equal(rng.integers(0, 7, size=5, dtype=np.int32), ref_rng.integers(0, 7, size=5, dtype=np.int32))


def test_alias_draw_many_memory_bound():
    # 10**6 draws a block of 1000 at a time: only one block is held
    table = AliasTable(np.random.default_rng(4).dirichlet(np.ones(100)))
    draws, block = 10**6, 1000
    tracemalloc.start()
    try:
        for _ in table.draw_blocks(np.random.default_rng(0), draws, 1, block):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < draws  # ~0.26 MB, one chunk of skipped cells; the whole result takes 4 bytes per draw


def test_alias_tables_match_transition_distribution(weighted_graph):
    g = weighted_graph
    sampler = build_alias_tables(g, p=2.0, q=0.5)
    for u, v, _ in g.edges():
        pi, ci = g.index(u), g.index(v)
        dist = transition_distribution(g, u, v, 2.0, 0.5)
        nbrs = g.neighbor_indices(ci)
        for k, prob in enumerate(step_law(sampler, pi, ci)):
            assert prob == pytest.approx(dist[g.node_ids[int(nbrs[k])]], abs=1e-12)


# -- walk generation --------------------------------------------------------------------


def test_generate_walks_does_not_hash_the_graph(weighted_graph, monkeypatch):
    # fingerprint() costs O(edges); only the corpus writers of the CLI need it
    monkeypatch.setattr(type(weighted_graph), "fingerprint", lambda self: pytest.fail("fingerprint() called"))
    assert generate_walks(weighted_graph, WalkConfig(seed=1)).graph_fingerprint == ""


def test_corpus_count_contract(weighted_graph):
    cfg = WalkConfig(walk_length=10, num_walks=10, seed=1)
    corpus = generate_walks(weighted_graph, cfg)
    assert len(corpus.walks) == 10 * weighted_graph.num_nodes
    for i, walk in enumerate(corpus.walks):
        assert walk[0] == weighted_graph.node_ids[i // 10]
        assert len(walk) == 10


def test_corpus_count_for_29_node_network():
    g = build_srg_from_adjacency([(f"s{i}", f"s{i + 1}") for i in range(28)])
    assert g.num_nodes == 29
    corpus = generate_walks(g, WalkConfig(walk_length=10, num_walks=10, seed=0))
    assert len(corpus.walks) == 290


def test_walk_adjacency_invariant(weighted_graph):
    corpus = generate_walks(weighted_graph, WalkConfig(p=0.5, q=2.0, seed=3))
    for walk in corpus.walks:
        for a, b in zip(walk, walk[1:]):
            assert weighted_graph.has_edge(a, b)


def test_disconnected_components_never_mix():
    g = build_srg_from_adjacency([("A", "B"), ("C", "D")])
    corpus = generate_walks(g, WalkConfig(walk_length=6, num_walks=5, seed=0))
    for walk in corpus.walks:
        nodes = set(walk)
        assert nodes <= {"A", "B"} or nodes <= {"C", "D"}


def test_isolated_node_yields_singleton_walk():
    g = build_srg_from_adjacency([("A", "B")], node_ids=["A", "B", "X"])
    corpus = generate_walks(g, WalkConfig(walk_length=5, num_walks=2, seed=0))
    x_walks = [w for w in corpus.walks if w[0] == "X"]
    assert x_walks == [("X",), ("X",)]
    assert corpus.isolated_nodes == ("X",)


def test_corpus_matrix_is_node_major_int32_padded_past_each_walk():
    g = build_srg_from_adjacency([("A", "B"), ("B", "C")], node_ids=["A", "X", "B", "C"])
    corpus = generate_walks(g, WalkConfig(walk_length=5, num_walks=3, seed=2))
    m = corpus.matrix
    assert m.dtype == np.int32 and m.shape == (12, 5) and not m.flags.writeable
    assert m[:, 0].tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]
    assert (m[3:6] == [1, -1, -1, -1, -1]).all()  # X is isolated
    assert (np.delete(m, [3, 4, 5], axis=0) >= 0).all()
    assert corpus.walks == tuple(tuple(g.node_ids[x] for x in row if x >= 0) for row in m.tolist())


def test_corpus_keeps_about_four_bytes_per_step():
    od, _ = planted_od(8, 25, 9.0, 1.0, seed=5)  # the od-dense benchmark input
    g = build_srg_from_interactions(od)
    cfg = WalkConfig(walk_length=80, num_walks=10, seed=1)
    np.random.default_rng(0)  # numpy.random's first use allocates; keep it out of the trace
    tracemalloc.start()
    try:
        corpus = generate_walks(g, cfg)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # an int32 matrix: ~4 bytes per step, where tuples of id strings took ~8.6
    assert corpus.matrix.size == g.num_nodes * 10 * 80
    assert kept < 5 * corpus.matrix.size


def test_sampler_is_freed_without_the_cycle_collector(weighted_graph):
    sampler = build_alias_tables(weighted_graph, 0.5, 2.0)
    prev, cur = (int(x) for x in (weighted_graph.entry_rows()[0], weighted_graph.indices[0]))
    assert step_law(sampler, prev, cur).sum() == pytest.approx(1.0)
    ref = weakref.ref(sampler)
    gc.disable()
    try:
        del sampler
        assert ref() is None
    finally:
        gc.enable()


def test_determinism_across_worker_counts(weighted_graph):
    cfg = WalkConfig(p=0.5, q=2.0, walk_length=8, num_walks=4, seed=99)
    assert generate_walks(weighted_graph, cfg).walks == generate_walks(weighted_graph, cfg).walks


def test_seed_changes_walks(weighted_graph):
    w1 = generate_walks(weighted_graph, WalkConfig(seed=1)).walks
    w2 = generate_walks(weighted_graph, WalkConfig(seed=2)).walks
    assert w1 != w2


def test_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(p=0.0)
    with pytest.raises(ValueError):
        WalkConfig(walk_length=1)
    with pytest.raises(ValueError):
        WalkConfig(num_walks=0)


# -- corpus file ---------------------------------------------------------------------


def test_corpus_round_trip(tmp_path, weighted_graph):
    corpus = generate_walks(weighted_graph, WalkConfig(p=0.25, q=4.0, seed=13))
    path = tmp_path / "corpus.txt"
    save_corpus(corpus, path)
    assert same_corpus(load_corpus(path), corpus)


def test_corpus_round_trip_with_isolated(tmp_path):
    g = build_srg_from_adjacency([("A", "B")], node_ids=["A", "B", "X"])
    corpus = generate_walks(g, WalkConfig(seed=0))
    path = tmp_path / "corpus.txt"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert same_corpus(loaded, corpus) and loaded.walks == corpus.walks


def test_corpus_missing_header(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("A B C\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        load_corpus(path)


def test_corpus_node_list_is_not_read_as_config(tmp_path):
    # config line without seed; a node named seed=3 must not fill it
    path = tmp_path / "corpus.txt"
    path.write_text(
        "# graph=abc\n# p=1.0 q=1.0 walk_length=2 num_walks=1\n# nodes=a seed=3\n# isolated=\na seed=3\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="missing corpus header fields: seed$"):
        load_corpus(path)


def test_corpus_bad_config_value_names_file_line_and_key(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text(
        "# graph=abc\n# p=abc q=1.0 walk_length=2 num_walks=1 seed=0\n# nodes=a\n# isolated=\na\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=r"c\.txt: line 2: p: could not convert string to float: 'abc'$"):
        load_corpus(path)


def test_corpus_unknown_node_names_path_and_line(tmp_path, weighted_graph):
    path = tmp_path / "c.txt"
    save_corpus(generate_walks(weighted_graph, WalkConfig(walk_length=3, num_walks=1)), path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("zzz a\n")
    n_lines = len(path.read_text().splitlines())
    with pytest.raises(ValueError, match=rf"c\.txt: line {n_lines}: node 'zzz'"):
        load_corpus(path)


def test_corpus_repeated_node_names_path_and_line(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text(
        "# graph=abc\n# p=1.0 q=1.0 walk_length=2 num_walks=1 seed=0\n# nodes=a b a\n# isolated=\na b\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=r"c\.txt: line 3: node 'a' is listed twice$"):
        load_corpus(path)


@pytest.mark.parametrize("nodes, bad", [("a  b", "''"), ("a #b", "'#b'"), ("a b,c", "'b,c'")])
def test_corpus_node_list_ids_are_held_to_the_node_id_rule(tmp_path, nodes, bad):
    # two spaces read as an empty id between a and b
    path = tmp_path / "c.txt"
    path.write_text(
        f"# graph=abc\n# p=1.0 q=1.0 walk_length=2 num_walks=1 seed=0\n# nodes={nodes}\n# isolated=\na a\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=rf"c\.txt: line 3: invalid node identifier {bad}: "):
        load_corpus(path)


def test_corpus_header_field_given_twice_names_both_lines(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text(
        "# graph=abc\n# p=1.0 q=1.0 walk_length=2 num_walks=1 seed=0\n"
        "# p=4.0 q=0.25 walk_length=9 num_walks=3 seed=7\n# nodes=a b\n# isolated=\na b\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=r"c\.txt: line 3: corpus header field 'p' repeats line 2$"):
        load_corpus(path)


def test_corpus_isolated_node_outside_node_list_names_path_and_line(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text(
        "# graph=abc\n# p=1.0 q=1.0 walk_length=2 num_walks=1 seed=0\n# nodes=a b\n# isolated=zzz\na b\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=r"c\.txt: line 4: isolated node 'zzz' is not in # nodes=$"):
        load_corpus(path)


def test_save_corpus_writes_one_row_at_a_time(tmp_path):
    # the planted 10x100 corpus's shape: 10,000 walks of 80 steps over 1,000 nodes;
    # decoding every walk to a tuple of ids before writing took a 14.1 MB traced peak
    matrix = np.random.default_rng(0).integers(0, 1000, size=(10_000, 80), dtype=np.int32)
    matrix[::7, 40:] = -1  # some walks end early
    corpus = WalkCorpus(matrix, tuple(f"n{i}" for i in range(1000)), WalkConfig(walk_length=80), "abc")
    path = tmp_path / "c.txt"
    tracemalloc.start()
    try:
        save_corpus(corpus, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000  # ~0.96 MB measured: the walks' lengths
    assert path.read_text(encoding="utf-8").splitlines()[4:] == [" ".join(w) for w in corpus.walks]


# -- rejection sampler: worst case and memory -----------------------------------------


@pytest.fixture
def hub_graph():
    # hub h with five leaves; chords a-b and c-d; tail a-x; heavy h-a edge so
    # most first steps from h land on a
    return SpaceRelationGraph(
        ["h", "a", "b", "c", "d", "e", "x"],
        [("h", "a", 20.0), ("h", "b", 1.0), ("h", "c", 1.0), ("h", "d", 2.0), ("h", "e", 1.0),
         ("a", "b", 0.5), ("c", "d", 0.5), ("a", "x", 1.0)],
    )


def _l1(freq: dict, target: dict) -> float:
    return sum(abs(freq.get(x, 0.0) - pr) for x, pr in target.items()) + sum(
        f for x, f in freq.items() if x not in target
    )


@pytest.mark.parametrize("q", [4.0, 0.25])
def test_hub_two_step_law_at_low_p(hub_graph, q):
    # p = 0.25 makes 1/p the rejection bound: the worst acceptance rate
    g, p = hub_graph, 0.25
    states = [("h", "a"), ("h", "e"), ("a", "h"), ("e", "h")]  # hub->leaf, leaf->hub
    sampler = build_alias_tables(g, p, q)
    rng = np.random.default_rng(7)
    for prev, cur in states:
        pi, ci = g.index(prev), g.index(cur)
        nbrs = [g.node_ids[x] for x in g.neighbor_indices(ci).tolist()]
        draws = sampler.advance(np.full(100_000, pi), np.full(100_000, ci), rng) - g.indptr[ci]
        freq = {nbrs[k]: c / draws.size for k, c in enumerate(np.bincount(draws, minlength=len(nbrs)))}
        assert _l1(freq, transition_distribution(g, prev, cur, p, q)) <= 0.01
    corpus = generate_walks(g, WalkConfig(p=p, q=q, walk_length=3, num_walks=100_000, seed=11))
    for prev, cur in (("h", "a"), ("e", "h")):  # e's only move is to h
        steps = corpus.matrix
        third = steps[(steps[:, 0] == g.index(prev)) & (steps[:, 1] == g.index(cur)), 2]
        assert third.size >= 75_000
        freq = {g.node_ids[x]: c / third.size for x, c in enumerate(np.bincount(third).tolist()) if c}
        assert _l1(freq, transition_distribution(g, prev, cur, p, q)) <= 0.01


@st.composite
def small_graphs(draw):
    n = draw(st.integers(3, 7))
    ids = [f"v{i}" for i in range(n)]
    pairs = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    return SpaceRelationGraph(ids, [(u, v, draw(st.floats(0.01, 100.0))) for u, v in chosen])


def _l1_bound(draws: int, outcomes: int, delta: float = 1e-12) -> float:
    # Bretagnolle-Huber-Carol: P(L1 >= eps) <= 2^k exp(-n eps^2 / 2)
    return math.sqrt(2.0 * (outcomes * math.log(2.0) + math.log(1.0 / delta)) / draws)


@settings(max_examples=50, deadline=None)
@given(g=small_graphs(), p=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
       q=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]), seed=st.integers(0, 2**32 - 1))
def test_two_step_law_on_random_graphs_property(g, p, q, seed):
    # every (prev, cur) state advances together, as in generate_walks
    draws = 20_000
    sampler = build_alias_tables(g, p, q)
    rows = g.entry_rows()
    prev = np.repeat(rows, draws)
    cur = np.repeat(g.indices, draws)
    nxt = g.indices[sampler.advance(prev, cur, np.random.default_rng(seed))]
    for s, (pi, ci) in enumerate(zip(rows.tolist(), g.indices.tolist())):
        law = transition_distribution(g, g.node_ids[pi], g.node_ids[ci], p, q)
        nbrs = g.neighbor_indices(ci)
        exact = step_law(sampler, pi, ci)
        assert exact == pytest.approx([law[g.node_ids[x]] for x in nbrs.tolist()], abs=1e-12)
        counts = np.bincount(nxt[s * draws:(s + 1) * draws], minlength=g.num_nodes)
        assert counts.sum() == counts[nbrs].sum()  # every move follows an edge
        freq = {g.node_ids[x]: counts[x] / draws for x in nbrs.tolist()}
        assert _l1(freq, law) <= _l1_bound(draws, nbrs.size)


def test_sampler_memory_linear_in_edges():
    # complete graph: sum of deg^2 is ~1.2e8 second-order states, 2E ~ 2.5e5 entries
    n = 500
    ids = [f"v{i}" for i in range(n)]
    g = SpaceRelationGraph(ids, [(ids[i], ids[j], 1.0 + (i + j) % 3) for i in range(n) for j in range(i + 1, n)])
    sampler = build_alias_tables(g, 0.25, 4.0)
    owned = [v for v in vars(sampler).values() if isinstance(v, np.ndarray)]
    arrays = {id(a): a for a in [*owned, g.indptr, g.indices, g.weights]}
    assert sum(a.nbytes for a in arrays.values()) <= 64 * (2 * g.num_edges + n + 1)
    corpus = generate_walks(g, WalkConfig(p=0.25, q=4.0, walk_length=4, num_walks=1))
    assert all(len(w) == 4 and g.has_edge(w[0], w[1]) for w in corpus.walks)


def test_tiny_weights_keep_their_law():
    # x's row is 4e-20 wide, far below the rounding step of a running weight
    # total of 4 from the rows before it
    g = SpaceRelationGraph(
        ["a", "b", "c", "x", "y", "z"],
        [("a", "b", 1.0), ("b", "c", 1.0), ("x", "y", 1e-20), ("x", "z", 3e-20)],
    )
    corpus = generate_walks(g, WalkConfig(walk_length=2, num_walks=20_000, seed=4))
    seconds = [w[1] for w in corpus.walks if w[0] == "x"]
    assert seconds.count("y") / len(seconds) == pytest.approx(0.25, abs=0.01)
