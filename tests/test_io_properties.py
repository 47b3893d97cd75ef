"""Property tests: every file format reads back what was written, for any
node identifiers that the graph accepts; and every reader names the physical
line of a bad row."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import same_corpus

from pec.cli import read_config_file
from pec.embedder import EmbeddingMatrix, load_embeddings, save_embeddings
from pec.evaluator import load_labels, save_labels
from pec.srg import SpaceRelationGraph, _check_node_ids, load_feature_csv, load_graph, load_od_csv, save_graph
from pec.util import write_lines
from pec.walker import WalkConfig, WalkCorpus, load_corpus, save_corpus


def _accepted(nid: str) -> bool:
    try:
        _check_node_ids([nid])
    except ValueError:
        return False
    return True


# characters that the file formats treat specially, and a lone surrogate that
# UTF-8 cannot encode, are drawn as often as all others
node_id = st.text(st.characters() | st.sampled_from("#=,\"' \t\ud800"), min_size=1, max_size=6).filter(_accepted)
node_ids = st.lists(node_id, min_size=1, max_size=8, unique=True)
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)

SETTINGS = settings(max_examples=100, deadline=None)


def _roundtrip(tmp_path_factory, save, load, obj):
    path = tmp_path_factory.mktemp("roundtrip") / "file"
    save(obj, path)
    return load(path)


@st.composite
def graphs(draw):
    ids = draw(node_ids)
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return SpaceRelationGraph(ids, [(u, v, draw(positive)) for u, v in chosen])


@SETTINGS
@given(g=graphs())
def test_graph_tsv_round_trip_property(tmp_path_factory, g):
    loaded = _roundtrip(tmp_path_factory, save_graph, load_graph, g)
    assert loaded == g and loaded.node_ids == g.node_ids


@st.composite
def corpora(draw):
    ids = draw(node_ids)
    walks = draw(st.lists(st.lists(st.sampled_from(ids), min_size=1, max_size=6).map(tuple), max_size=8))
    cfg = WalkConfig(
        p=draw(positive),
        q=draw(positive),
        walk_length=draw(st.integers(2, 100)),
        num_walks=draw(st.integers(1, 100)),
        seed=draw(st.integers(0, 2**63)),
    )
    isolated = tuple(x for x in ids if draw(st.booleans()))
    fingerprint = draw(st.text("0123456789abcdef", min_size=1, max_size=64))
    return WalkCorpus.of_walks(walks, ids, cfg, fingerprint, isolated)


@SETTINGS
@given(corpus=corpora())
def test_corpus_round_trip_property(tmp_path_factory, corpus):
    assert same_corpus(_roundtrip(tmp_path_factory, save_corpus, load_corpus, corpus), corpus)


@st.composite
def embeddings(draw):
    ids = draw(node_ids)
    dim = draw(st.integers(1, 4))
    vectors = np.array(draw(st.lists(finite, min_size=len(ids) * dim, max_size=len(ids) * dim)))
    vectors = vectors.reshape(len(ids), dim)
    return EmbeddingMatrix(tuple(ids), vectors, np.zeros_like(vectors))


@SETTINGS
@given(emb=embeddings())
def test_embeddings_round_trip_property(tmp_path_factory, emb):
    loaded = _roundtrip(tmp_path_factory, save_embeddings, load_embeddings, emb)
    assert loaded.node_ids == emb.node_ids
    assert loaded.vectors.shape == emb.vectors.shape
    assert np.array_equal(loaded.vectors, emb.vectors)
    assert np.array_equal(np.signbit(loaded.vectors), np.signbit(emb.vectors))


@SETTINGS
@given(ids=node_ids, data=st.data())
def test_labels_round_trip_property(tmp_path_factory, ids, data):
    labels = data.draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=len(ids), max_size=len(ids)))
    path = tmp_path_factory.mktemp("roundtrip") / "labels.csv"
    save_labels(ids, np.array(labels), path)
    loaded_ids, loaded = load_labels(path)
    assert loaded_ids == tuple(ids) and loaded.tolist() == labels


CORPUS_HEADER = "# graph=abc\n# p=1.0 q=1.0 walk_length=2 num_walks=1 seed=0\n# nodes=a b\n# isolated=\n"


@pytest.mark.parametrize(
    "load, text, line, message",
    [
        (load_graph, "a\tb\t1.0\n\na\tc\n", 3, "expected 3 tab-separated fields"),
        (load_corpus, CORPUS_HEADER + "\na zzz\n", 6, "node 'zzz'"),
        (load_embeddings, "2 1\na 0.0\n\nb x\n", 4, "vector entry"),
        (load_embeddings, "2 1\na 0.0\n\na 1.0\n", 4, "node 'a' repeats line 2"),
        (load_feature_csv, "node,f1\na,1.0\n\nb,x\n", 4, "feature value"),
        (load_od_csv, "od,a,b\na,0,1\n\nb,x,0\n", 4, "volume"),
        (load_labels, "node_id,label\na,0\n\nb,x\n", 4, "label"),
        (read_config_file, "n_clusters = 2\n\nfoo = 1\n", 3, "unknown config key 'foo'"),
    ],
    ids=["graph", "corpus", "embeddings", "embeddings-repeat", "features", "od", "labels", "config"],
)
def test_readers_name_the_physical_line_after_a_blank_line(tmp_path, load, text, line, message):
    path = tmp_path / "file"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line {line}: .*{re.escape(message)}"):
        load(path)


@pytest.mark.parametrize("lines", [[], [""], ["one"], [f"n{i}\tm{i}\t{i / 7!r} ü" for i in range(5000)]],
                         ids=["none", "one-empty", "one", "many"])
def test_write_lines_streams_the_bytes_of_the_joined_lines(tmp_path, lines):
    path = tmp_path / "lines.txt"
    write_lines(path, iter(lines))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_save_graph_holds_no_formatted_edge_list(tmp_path):
    # a complete graph of 300 nodes: 44,850 edge lines, ~1.2 MB of text and
    # ~3.7 MB as a list of strings; written a line at a time, only one CSR
    # row and the file buffer are held
    n = 300
    g = SpaceRelationGraph.from_weight_matrix([f"n{i}" for i in range(n)], 1.0 - np.eye(n))
    assert g.num_edges == n * (n - 1) // 2
    tracemalloc.start()
    try:
        save_graph(g, tmp_path / "g.tsv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000
    assert load_graph(tmp_path / "g.tsv") == g
