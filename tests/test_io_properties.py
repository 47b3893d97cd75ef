"""Property tests: every file format reads back what was written, for any
node identifiers that the graph accepts; and every reader names the physical
line of a bad row."""

import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import same_corpus

from pec.cli import read_config_file
from pec.embedder import EmbeddingMatrix, load_embeddings, save_embeddings
from pec.evaluator import load_labels, save_labels
from pec.srg import (FeatureMatrix, InteractionMatrix, SpaceRelationGraph, _check_node_ids, load_feature_csv, load_graph,
                     load_od_csv, save_feature_csv, save_graph, save_od_csv)
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
        (load_od_csv, "\nod,a,\na,0,1\n,1,0\n", 2, "invalid node identifier ''"),
        (load_labels, "node_id,label\na,0\n\nb,x\n", 4, "label"),
        (read_config_file, "n_clusters = 2\n\nfoo = 1\n", 3, "unknown config key 'foo'"),
    ],
    ids=["graph", "corpus", "embeddings", "embeddings-repeat", "features", "od", "od-header-id", "labels", "config"],
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


# -- reader fuzz ----------------------------------------------------------------
#
# Small valid files, one per reader, and line mutations of them.  Whatever a
# reader makes of a mutated file, it either reads it or raises a ValueError
# that starts with the file's path.  For every file with a single mutation,
# the message is pinned in reader_faults.json.  Those messages were recorded
# from the readers that held every line before they parsed one, and the
# streamed readers give each of them, with these exceptions: the three
# labels:*:last=2**70 entries, a range error where a bare OverflowError was
# raised; the nine features:*:{comment,first=empty,first=z z} entries, which
# name the line of the invalid id; corpus:{0..3}:duplicate, a header
# field given twice, which was read without an error; corpus:2:last=empty,
# an empty id in the node list, which was reported later as a walk's node
# missing from it; and the fifteen labels:{1..3}:{comment,first=empty,first=z z}
# and embeddings:{1..3}:{comment,first=empty} entries, whose invalid ids were
# read without an error.

SAMPLES = {
    "graph": (load_graph, ["#node\ta", "#node\tb", "#node\tc", "a\tb\t1.0", "b\tc\t0.5"]),
    "corpus": (load_corpus, ["# graph=abc", "# p=1.0 q=1.0 walk_length=3 num_walks=1 seed=0", "# nodes=a b c",
                             "# isolated=", "a b c", "b c b", "c b"]),
    "embeddings": (load_embeddings, ["3 2", "a 0.5 -1.0", "b 1.0 2.0", "c 0.0 0.25"]),
    "od": (load_od_csv, ["od,a,b,c", "a,0,1,2", "b,3,0,1", "c,2,1,0"]),
    "features": (load_feature_csv, ["node,f1,f2", "a,0.5,1.0", "b,1.0,2.0", "c,0.0,0.25"]),
    "labels": (load_labels, ["node_id,label", "a,0", "b,1", "c,1"]),
    "config": (read_config_file, ["# pipeline settings", "n_clusters = 2", "dim = 4", "p = 0.5",
                                  "noise = gaussian:1,poisson:4"]),
}


def _split(line: str) -> tuple[str, list[str]]:
    sep = next((s for s in ("\t", ",", " = ", " ") if s in line), " ")
    return sep, line.split(sep)


def _last(value: str):
    def mutate(line: str) -> list[str]:
        sep, fields = _split(line)
        return [sep.join(fields[:-1] + [value])]
    return mutate


def _first(value: str):
    def mutate(line: str) -> list[str]:
        sep, fields = _split(line)
        return [sep.join([value] + fields[1:])]
    return mutate


# each maps one line to the lines that replace it
MUTATIONS = {
    "delete": lambda line: [],
    "duplicate": lambda line: [line, line],
    "blank": lambda line: [""],
    "truncate": lambda line: [line[: len(line) // 2]],
    "comment": lambda line: ["#" + line],
    "drop-field": lambda line: [_split(line)[0].join(_split(line)[1][:-1])],
    "extra-field": lambda line: [line + _split(line)[0] + "1"],
    "last=x": _last("x"),
    "last=empty": _last(""),
    "last=nan": _last("nan"),
    "last=-1": _last("-1"),
    "last=1e999": _last("1e999"),
    "last=2**70": _last(str(2**70)),
    "first=empty": _first(""),
    "first=a": _first("a"),
    "first=z z": _first("z z"),
}


def _mutated(lines: list[str], faults) -> str:
    lines = list(lines)
    for at, kind in faults:
        at %= len(lines) or 1
        lines[at:at + 1] = MUTATIONS[kind](lines[at]) if lines else []
    return "".join(f"{line}\n" for line in lines)


def _outcome(load, path):
    """None if ``load`` reads ``path``, else the ValueError's message after the path."""
    try:
        load(path)
    except ValueError as exc:
        message = str(exc)
        assert message.startswith(f"{path}: "), message
        return message[len(f"{path}: "):]
    return None


@pytest.fixture(scope="module")
def single_faults(tmp_path_factory):
    """The outcome of every file with a single mutation, by reader:line:mutation."""
    tmp_path, seen = tmp_path_factory.mktemp("faults"), {}
    for reader, (load, lines) in SAMPLES.items():
        for at in range(len(lines)):
            for kind in MUTATIONS:
                path = tmp_path / f"{reader}-{at}-{kind}.txt"  # writing over one file is slow on some file systems
                path.write_text(_mutated(lines, [(at, kind)]), encoding="utf-8")
                seen[f"{reader}:{at}:{kind}"] = _outcome(load, path)
    return seen


def test_readers_keep_their_message_for_every_single_fault(single_faults):
    expected = json.loads((Path(__file__).parent / "reader_faults.json").read_text(encoding="utf-8"))
    assert single_faults == expected


def test_every_invalid_node_id_is_named_with_its_line(single_faults):
    invalid = {key: message for key, message in single_faults.items() if "invalid node identifier" in (message or "")}
    assert {key.split(":")[0] for key in invalid} == {"graph", "features", "corpus", "labels", "embeddings"}
    assert all(re.match(r"line \d+: invalid node identifier ", message) for message in invalid.values()), invalid


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(faults=st.lists(st.tuples(st.integers(0, 7), st.sampled_from(sorted(MUTATIONS))), min_size=1, max_size=4))
@pytest.mark.parametrize("reader", sorted(SAMPLES))
def test_readers_raise_only_value_errors_that_name_the_file(tmp_path_factory, reader, faults):
    load, lines = SAMPLES[reader]
    path = tmp_path_factory.mktemp("fuzz") / f"{reader}.txt"
    path.write_text(_mutated(lines, faults), encoding="utf-8")
    _outcome(load, path)



# -- reader memory ------------------------------------------------------------------
#
# Traced peaks per unit of what a reader returns, in the style of
# test_train_memory_slope_per_pair.  Holding a Python object per cell, edge
# or step (a str and a float: ~120 bytes) fails every bound.

READ_FIXED_BYTES = 200_000


def traced_peak(make, *args) -> int:
    tracemalloc.start()
    try:
        make(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _matrix_files(path, n):
    rng = np.random.default_rng(n)
    ids = [f"n{i}" for i in range(n)]
    save_od_csv(InteractionMatrix(ids, rng.random((n, n))), path / "od.csv")
    save_feature_csv(FeatureMatrix(ids, rng.normal(size=(n, n))), path / "features.csv")
    vectors = rng.normal(size=(n, n))
    save_embeddings(EmbeddingMatrix(tuple(ids), vectors, vectors), path / "embeddings.txt")


# Per cell: the float64 matrix (8 bytes), which np.fromiter grows by half at
# a time (up to 12 bytes), and the checks' one-byte masks; load_embeddings
# also returns a zero context matrix (8 bytes).  Measured: 11-16 bytes for the
# OD and feature readers, 17 for embeddings, against 118 and 146 when every
# row was held as strings and floats.
@pytest.mark.parametrize("n", [150, 300])
@pytest.mark.parametrize("load, name, per_cell", [(load_od_csv, "od.csv", 20), (load_feature_csv, "features.csv", 20),
                                                   (load_embeddings, "embeddings.txt", 28)],
                         ids=["od", "features", "embeddings"])
def test_matrix_reader_memory_per_cell(tmp_path, n, load, name, per_cell):
    _matrix_files(tmp_path, n)
    assert traced_peak(load, tmp_path / name) <= per_cell * n * n + READ_FIXED_BYTES


# Per edge: the parsed ends and weight (24 bytes), the row * N + col keys of
# both directions, their sort order and the sorted keys (16 bytes each), and
# the CSR indices and weights (32 bytes).  Measured: 105 bytes, against 346
# when each line was held as two strings and a float.
@pytest.mark.parametrize("n", [150, 300])
def test_load_graph_memory_per_edge(tmp_path, n):
    g = SpaceRelationGraph.from_weight_matrix([f"n{i}" for i in range(n)], np.random.default_rng(n).random((n, n)))
    save_graph(g, tmp_path / "g.tsv")
    assert traced_peak(load_graph, tmp_path / "g.tsv") <= 128 * g.num_edges + READ_FIXED_BYTES


# Per step: the int32 node indices as read (4 bytes, grown in place), as
# mapped to the # nodes= order (4) and padded into the walk matrix (4), and
# the matrix's one-byte mask.  Measured: 14 bytes, against 85 when every walk
# was held as a tuple of ids.
@pytest.mark.parametrize("walks", [5_000, 15_000])
def test_load_corpus_memory_per_step(tmp_path, walks):
    matrix = np.random.default_rng(walks).integers(0, 300, size=(walks, 20), dtype=np.int32)
    corpus = WalkCorpus(matrix, tuple(f"n{i}" for i in range(300)), WalkConfig(walk_length=20), "abc")
    save_corpus(corpus, tmp_path / "c.txt")
    assert traced_peak(load_corpus, tmp_path / "c.txt") <= 20 * matrix.size + READ_FIXED_BYTES


# Per cell of a dense matrix: the mirrored matrix (8 bytes) and its triangle
# mask (1), then the position, column and weight of each nonzero (8 each).
# Measured: 35 bytes, against 68 through np.triu, np.unique and lexsort.
@pytest.mark.parametrize("n", [150, 300])
def test_from_weight_matrix_memory_per_cell(n):
    weights = np.random.default_rng(n).random((n, n))
    assert traced_peak(SpaceRelationGraph.from_weight_matrix, [f"n{i}" for i in range(n)], weights) <= (
        40 * n * n + READ_FIXED_BYTES
    )
