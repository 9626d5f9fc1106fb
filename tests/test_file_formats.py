"""Round-trip and malformed-input tests for the three text file formats.

Edge lists, truth maps and matchings must survive a save and load
unchanged, and every malformed file must fail with an ``InputFormatError``
whose message names the file (and, where one line is at fault, the line).
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
    @given(data=st.data(), n=st.integers(1, 15))
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


# lines every loader must skip or ignore wherever they stand
COMMENTS = ["#", "# note", "#vertices", "# weights: 3", "# shape 3 3", "   # indented: 1"]
BLANKS = ["", "   ", "\t"]
EXTRA_COLUMNS = [" 7", " 1.5", "\tx", " # tail", " 1 2 3"]


def interleave(data, text):
    """``text`` with comment and blank lines drawn in between its lines and a
    third column drawn onto some of its data lines."""
    noise = st.lists(st.sampled_from(COMMENTS + BLANKS), max_size=2)
    lines = data.draw(noise)
    for line in text.splitlines():
        if not line.startswith("#"):
            line += data.draw(st.sampled_from([""] + EXTRA_COLUMNS))
        lines += [line, *data.draw(noise)]
    return "\n".join(lines) + "\n"


class TestSharedLineRules:
    @PROPERTY
    @given(data=st.data(), kind=st.sampled_from(["edge list", "truth", "matching"]))
    def test_comments_blanks_and_extra_columns(self, data, kind):
        if kind == "edge list":
            value, save, load = data.draw(graphs()), save_edge_list, load_edge_list
        elif kind == "truth":
            n = data.draw(st.integers(1, 12))
            value = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
            save, load = save_truth, load_truth
        else:
            n_rows, n_cols, pairs = data.draw(partial_injections())
            value = Matching(n_rows, n_cols, pairs, data.draw(st.floats(allow_nan=False)))
            save, load = save_matching, load_matching
        with text_file() as path:
            save(value, path)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(interleave(data, text))
            loaded = load(path)
        if kind == "edge list":
            assert loaded.n == value.n and np.array_equal(loaded.edges, value.edges)
        elif kind == "truth":
            assert np.array_equal(loaded, value)
        else:
            assert loaded == value


    @pytest.mark.parametrize("loader", [load_edge_list, load_truth, load_matching])
    def test_undecodable_file_named(self, loader):
        # formerly a bare UnicodeDecodeError that named no file
        with text_file() as path:
            with open(path, "wb") as fh:
                fh.write(b"# shape: 2 2\n1 2\n\xff\xfe 1\n")
            with pytest.raises(InputFormatError, match="not UTF-8 text") as info:
                loader(path)
        assert str(info.value).startswith(f"{path}: ")


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
        with text_file("1 2\n# vertices: 4\n5 1\n") as path:
            with pytest.raises(InputFormatError, match=":3: vertex id 5 exceeds"):
                load_edge_list(path)

    @pytest.mark.parametrize("count", ["many", "-1", "2.0"])
    def test_bad_vertex_comment(self, count):
        raises_at(load_edge_list, f"# vertices: {count}\n1 2\n", ":1:")

    def test_zero_id_names_line(self):
        raises_at(load_edge_list, "1 2\n\n0 1\n", ":3:", "1-based")

    @pytest.mark.parametrize("second", ["# vertices: 4", "# VERTICES: 4", "# Vertices: 9"])
    def test_repeated_vertex_header(self, second):
        # formerly the last header won
        raises_at(load_edge_list, f"# vertices: 4\n1 2\n{second}\n", ":3:", "repeated")

    def test_header_key_in_any_case(self):
        with text_file("# VERTICES: 5\n1 2\n") as path:
            assert load_edge_list(path).n == 5


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

    def test_first_bad_line_named(self):
        raises_at(load_truth, "1 1\n2 x\n1 2\n", ":2:", "malformed")
        raises_at(load_truth, "1 1\n2 1\n3 x\n", ":2:", "B-id 1 repeated")

    @pytest.mark.parametrize("content", ["", "# truth\n\n# none\n"])
    def test_no_rows(self, content):
        # an empty truth is no ground truth, not a truth every matching misses
        raises_at(load_truth, content, ":", "no A-id B-id rows")


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

    @pytest.mark.parametrize(
        "rows, line, message",
        [
            ("1 1\n1 2\n", 3, "matched twice"),
            ("1 1\n2 1\n", 3, "matched twice"),
            ("4 1\n", 2, "1-based"),
            ("1 4\n", 2, "1-based"),
            ("0 3\n", 2, "1-based"),
            ("2 2\n3 -1\n", 3, "1-based"),
        ],
    )
    def test_invalid_pairs_name_line(self, rows, line, message):
        raises_at(load_matching, f"# shape: 3 3\n{rows}", f":{line}:", message)

    def test_missing_shape_header_named(self):
        raises_at(load_matching, "# weight: 1\n1 1\n", ":2:", "'# shape:' header")
        raises_at(load_matching, "# weight: 1\n", ":", "no '# shape:' header")

    def test_negative_shape(self):
        raises_at(load_matching, "# shape: -1 3\n", ":1:", "negative shape")

    @pytest.mark.parametrize(
        "content, key",
        [
            # formerly a bare ValueError from Matching, naming neither file nor line
            ("# weight: 1\n# shape: 3 3\n3 3\n# shape: 1 1\n", "shape"),
            # formerly the last one won
            ("# weight: 1\n# shape: 2 2\n1 1\n# weight: 1\n", "weight"),
            ("# Weight: 1\n# shape: 2 2\n1 1\n# WEIGHT: 2\n", "weight"),
        ],
    )
    def test_repeated_header(self, content, key):
        raises_at(load_matching, content, ":4:", f"repeated '# {key}:' header")

    def test_first_bad_line_named(self):
        # a pair matched twice comes before a malformed line and a repeated header
        content = "# shape: 3 3\n1 1\n2 1\nx y\n# shape: 3 3\n"
        raises_at(load_matching, content, ":3:", "matched twice")

