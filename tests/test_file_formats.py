"""Round-trip and malformed-input tests for the four text file formats.

Edge lists, truth maps, matchings and motif tensors must survive a save and
load unchanged, and every malformed file must fail with an
``InputFormatError`` whose message names the file (and, for the line-based
formats, the offending line).
"""

import os
import tempfile
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenalign.errors import InputFormatError
from tenalign.graphs import Graph, load_edge_list, save_edge_list
from tenalign.matching import Matching
from tenalign.records import load_matching, load_truth, save_matching, save_truth
from tenalign.tensors import MotifTensor, load_tensor, save_tensor

PROPERTY = settings(max_examples=40, deadline=None)


@contextmanager
def text_file(content=None):
    """Path of a fresh file in a temporary directory, optionally pre-filled."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.txt")
        if content is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(content)
        yield path


def raises_at(loader, content, where, match=None):
    """``loader`` rejects ``content`` naming the file plus ``where``."""
    with text_file(content) as path:
        with pytest.raises(InputFormatError) as info:
            loader(path)
    assert f"{path}{where}" in str(info.value)
    if match is not None:
        assert match in str(info.value)


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 12))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, edges)


@st.composite
def partial_injections(draw):
    n_rows = draw(st.integers(0, 10))
    n_cols = draw(st.integers(0, 10))
    size = draw(st.integers(0, min(n_rows, n_cols)))
    rows = draw(st.permutations(range(n_rows)))[:size]
    cols = draw(st.permutations(range(n_cols)))[:size]
    return n_rows, n_cols, list(zip(rows, cols))


@st.composite
def motif_tensors(draw):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k, 7))
    tuples = list(combinations(range(n), k))
    edges = draw(st.lists(st.sampled_from(tuples), unique=True))
    positive = st.floats(1e-300, 1e300, allow_nan=False, allow_infinity=False)
    weights = draw(st.lists(positive, min_size=len(edges), max_size=len(edges)))
    return MotifTensor.from_hyperedges(k, n, edges, weights or None)


class TestRoundTrip:
    @PROPERTY
    @given(graph=graphs())
    def test_edge_list(self, graph):
        with text_file() as path:
            save_edge_list(graph, path)
            loaded = load_edge_list(path)
        assert loaded.n == graph.n
        assert np.array_equal(loaded.edges, graph.edges)

    @PROPERTY
    @given(data=st.data(), n=st.integers(0, 15))
    def test_truth(self, data, n):
        extra = data.draw(st.integers(0, 5))
        truth = np.array(data.draw(st.permutations(range(n + extra)))[:n], dtype=np.int64)
        with text_file() as path:
            save_truth(truth, path)
            loaded = load_truth(path)
        assert np.array_equal(loaded, truth)

    @PROPERTY
    @given(shape=partial_injections(), weight=st.floats(allow_nan=False))
    def test_matching(self, shape, weight):
        n_rows, n_cols, pairs = shape
        matching = Matching(n_rows, n_cols, pairs, weight)
        with text_file() as path:
            save_matching(matching, path)
            loaded = load_matching(path)
        assert loaded == matching

    @PROPERTY
    @given(tensor=motif_tensors())
    def test_tensor(self, tensor):
        with text_file() as path:
            save_tensor(tensor, path)
            loaded = load_tensor(path)
        assert (loaded.order, loaded.dim) == (tensor.order, tensor.dim)
        assert np.array_equal(loaded.hyperedges, tensor.hyperedges)
        assert np.array_equal(loaded.weights, tensor.weights)


class TestEdgeListErrors:
    @PROPERTY
    @given(bad=st.sampled_from(["1.5", "x", "2e1", "", "0x3"]), line=st.integers(1, 4))
    def test_non_integer_id_names_line(self, bad, line):
        rows = ["1 2", "2 3", "3 4", "4 1"]
        rows[line - 1] = f"{bad} 2" if bad else "2"
        raises_at(load_edge_list, "\n".join(rows) + "\n", f":{line}:")

    def test_id_above_vertex_comment(self):
        raises_at(load_edge_list, "# vertices: 3\n1 2\n2 4\n1 3\n", ":3:", "exceeds")

    def test_id_above_given_count(self):
        with text_file("1 2\n5 1\n") as path:
            with pytest.raises(InputFormatError, match=":2: vertex id 5 exceeds"):
                load_edge_list(path, n=4)

    @pytest.mark.parametrize("count", ["many", "-1", "2.0"])
    def test_bad_vertex_comment(self, count):
        raises_at(load_edge_list, f"# vertices: {count}\n1 2\n", ":1:")

    def test_zero_id_names_line(self):
        raises_at(load_edge_list, "1 2\n\n0 1\n", ":3:", "1-based")


class TestTruthErrors:
    def test_repeated_a_id(self):
        # formerly loaded as [1, -1, 2]: last A-id kept and B-id 0 wrapped
        raises_at(load_truth, "1 1\n1 2\n2 0\n3 3\n", ":2:", "A-id 1 repeated")

    def test_repeated_b_id(self):
        raises_at(load_truth, "1 2\n2 3\n3 2\n", ":3:", "B-id 2 repeated")

    @pytest.mark.parametrize("row", ["0 1", "1 0", "-2 3", "2 -1"])
    def test_ids_below_one(self, row):
        raises_at(load_truth, f"# truth\n{row}\n", ":2:", "1-based")

    @pytest.mark.parametrize("row", ["1", "1 b", "1.0 2"])
    def test_malformed_row(self, row):
        raises_at(load_truth, f"1 1\n{row}\n", ":2:")

    def test_gap_in_a_ids(self):
        raises_at(load_truth, "1 1\n3 2\n", ":", "cover")


class TestMatchingErrors:
    @pytest.mark.parametrize("row", ["1", "a 2", "1 2.5"])
    def test_malformed_pair(self, row):
        raises_at(load_matching, f"# weight: 1\n# shape: 3 3\n{row}\n", ":3:")

    def test_malformed_shape(self):
        raises_at(load_matching, "# weight: 1\n# shape: 3\n1 1\n", ":2:")

    def test_bad_weight(self):
        raises_at(load_matching, "# weight: heavy\n# shape: 3 3\n", ":1:")

    @pytest.mark.parametrize("rows", ["1 1\n1 2\n", "1 1\n2 1\n", "4 1\n", "0 1\n"])
    def test_invalid_pairs_name_file(self, rows):
        raises_at(load_matching, f"# shape: 3 3\n{rows}", ":")


class TestTensorErrors:
    @pytest.mark.parametrize(
        "content",
        [
            "",
            "3 3\n",
            "3 x 1\n1 2 3 1.0\n",
            "3 3 1\n1 2 3 heavy\n",
            "1 3 1\n1 1.0\n",
            "3 3 -1\n",
            "3 3 1\n1 2 3 -1.0\n",
            "3 4 2\n1 2 3 1.0\n1 2 3 2.0\n",
            "3 4 1\n1 2.5 3 1.0\n",
            "3 4 1\n1 2 3 nan\n",
        ],
    )
    def test_malformed_names_file(self, content):
        raises_at(load_tensor, content, ":")
