"""The vectorized local search against the per-candidate loop it replaced.

``OracleState`` and ``oracle_local_search`` are the former ``_SwapState``
and sweep loop of ``refine.local_search``: every candidate swap is scored
on its own with Python tuples and set lookups.  The array version scores
all candidates of a pair at once and must give the same pairs, a
bit-identical weight and the same work counters.  ``former_deltas`` is the
former ``_Layer.deltas``, which imaged every row of ``i`` once per
candidate; the completion-index scoring must give the same changes.
"""

from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import edge_set
from tenalign import graphs, refine
from tenalign.align import AlignOptions, FactorPair, lambda_tame
from tenalign.graphs import Graph, clique_tensor, nearest_rows
from tenalign.matching import Matching
from tenalign.refine import RefineOptions, RefineStats, local_search
from tenalign.synth import make_problem
from tenalign.tensors import MotifTensor


class OracleState:
    def __init__(self, matching, graph_a, graph_b, tensor_a, tensor_b):
        self.m, self.n = graph_a.n, graph_b.n
        self.match_a = [-1] * self.m
        self.match_b = [-1] * self.n
        for i, j in matching.pairs:
            self.match_a[i] = j
            self.match_b[j] = i
        self.hyper_rows = [tuple(row) for row in tensor_a.hyperedges.tolist()]
        self.b_hyper = {tuple(row) for row in tensor_b.hyperedges.tolist()}
        indptr, ids = tensor_a.incidence
        self.h_inc = [
            ids[indptr[v]:indptr[v + 1]].tolist() for v in range(self.m)
        ]
        self.a_edge_rows = [tuple(row) for row in graph_a.edges.tolist()]
        self.b_edges = edge_set(graph_b)
        self.e_inc = [[] for _ in range(self.m)]
        for eid, (u, v) in enumerate(self.a_edge_rows):
            self.e_inc[u].append(eid)
            self.e_inc[v].append(eid)
        self.h_ok = [self._hyper_ok(e, None) for e in range(len(self.hyper_rows))]
        self.e_ok = [self._edge_ok(e, None) for e in range(len(self.a_edge_rows))]
        self.motifs = sum(self.h_ok)
        self.edges = sum(self.e_ok)

    def _hyper_ok(self, eid, override):
        ma = self.match_a
        img = []
        if override:
            for v in self.hyper_rows[eid]:
                t = override.get(v)
                if t is None:
                    t = ma[v]
                if t < 0:
                    return False
                img.append(t)
        else:
            for v in self.hyper_rows[eid]:
                t = ma[v]
                if t < 0:
                    return False
                img.append(t)
        img.sort()
        return tuple(img) in self.b_hyper

    def _edge_ok(self, eid, override):
        u, v = self.a_edge_rows[eid]
        ma = self.match_a
        if override:
            iu = override.get(u)
            if iu is None:
                iu = ma[u]
            iv = override.get(v)
            if iv is None:
                iv = ma[v]
        else:
            iu, iv = ma[u], ma[v]
        if iu < 0 or iv < 0:
            return False
        key = (iu, iv) if iu < iv else (iv, iu)
        return key in self.b_edges

    def swap_delta(self, override):
        verts = list(override)
        if len(verts) == 1:
            h_ids = self.h_inc[verts[0]]
            e_ids = self.e_inc[verts[0]]
        else:
            h_ids = set()
            e_ids = set()
            for v in verts:
                h_ids.update(self.h_inc[v])
                e_ids.update(self.e_inc[v])
        h_ok, e_ok = self.h_ok, self.e_ok
        dm = 0
        for e in h_ids:
            dm += self._hyper_ok(e, override) - h_ok[e]
        de = 0
        for e in e_ids:
            de += self._edge_ok(e, override) - e_ok[e]
        return dm, de

    def apply(self, override):
        affected_b = set()
        for v, target in override.items():
            old = self.match_a[v]
            if old >= 0:
                affected_b.add(old)
            self.match_a[v] = target
            if target >= 0:
                affected_b.add(target)
        for b in affected_b:
            self.match_b[b] = -1
        for v in override:
            t = self.match_a[v]
            if t >= 0:
                self.match_b[t] = v
        for v in override:
            for e in self.h_inc[v]:
                ok = self._hyper_ok(e, None)
                self.motifs += ok - self.h_ok[e]
                self.h_ok[e] = ok
            for e in self.e_inc[v]:
                ok = self._edge_ok(e, None)
                self.edges += ok - self.e_ok[e]
                self.e_ok[e] = ok


def oracle_local_search(matching, graph_a, graph_b, tensor_a, tensor_b, factors, opts):
    """The former loop; returns the matching and its work counters."""
    stats = RefineStats()
    if len(matching) == 0:
        return matching, stats
    state = OracleState(matching, graph_a, graph_b, tensor_a, tensor_b)
    start_score = (state.motifs, state.edges)
    k_a = min(opts.resolve_k(factors.rank), graph_a.n - 1)
    k_b = min(opts.resolve_k(factors.rank), graph_b.n - 1)
    knn_a = nearest_rows(factors.u, k_a) if k_a >= 1 else None
    knn_b = nearest_rows(factors.v, k_b) if k_b >= 1 else None
    adj_a, adj_b = graph_a.adjacency, graph_b.adjacency
    for _ in range(opts.max_sweeps):
        stats.sweeps += 1
        ma = np.asarray(state.match_a)
        rows = np.nonzero(ma >= 0)[0]
        weights = np.einsum("ij,ij->i", factors.u[rows], factors.v[ma[rows]])
        order = np.lexsort((rows, -weights))
        changed = False
        before = stats.swaps_accepted
        for i in rows[order]:
            i = int(i)
            ip = state.match_a[i]
            if ip < 0:
                continue
            if _oracle_improve_pair(state, stats, i, ip, knn_a, knn_b, adj_a, adj_b):
                changed = True
        stats.swaps_per_sweep.append(stats.swaps_accepted - before)
        if not changed:
            stats.converged = True
            break
    assert (state.motifs, state.edges) >= start_score
    pairs = [
        (i, state.match_a[i]) for i in range(graph_a.n) if state.match_a[i] >= 0
    ]
    weight = float(sum(np.dot(factors.u[i], factors.v[j]) for i, j in pairs))
    return Matching(graph_a.n, graph_b.n, pairs, weight), stats


def _oracle_try(state, stats, override):
    stats.candidates_scored += 1
    dm, de = state.swap_delta(override)
    if dm > 0 or (dm == 0 and de > 0):
        state.apply(override)
        stats.swaps_accepted += 1
        return True
    return False


def _oracle_improve_pair(state, stats, i, ip, knn_a, knn_b, adj_a, adj_b):
    seen = set()
    candidates_b = []
    if knn_b is not None:
        candidates_b.extend(int(j) for j in knn_b[ip])
    candidates_b.extend(int(j) for j in adj_b[ip])
    for jp in candidates_b:
        if jp == ip or jp in seen:
            continue
        seen.add(jp)
        j = state.match_b[jp]
        override = {i: jp}
        if j >= 0:
            override[j] = ip
        if _oracle_try(state, stats, override):
            return True
    seen = set()
    candidates_a = []
    if knn_a is not None:
        candidates_a.extend(int(j) for j in knn_a[i])
    candidates_a.extend(int(j) for j in adj_a[i])
    for j in candidates_a:
        if j == i or j in seen:
            continue
        seen.add(j)
        jp = state.match_a[j]
        if _oracle_try(state, stats, {j: ip, i: jp}):
            return True
    return False


def assert_same_as_oracle(matching, graph_a, graph_b, tensor_a, tensor_b, factors, opts):
    want, want_stats = oracle_local_search(
        matching, graph_a, graph_b, tensor_a, tensor_b, factors, opts
    )
    stats = RefineStats()
    got = local_search(
        matching, graph_a, graph_b, tensor_a, tensor_b, factors, opts, stats=stats
    )
    assert got.pairs == want.pairs
    assert np.float64(got.weight).tobytes() == np.float64(want.weight).tobytes()
    assert stats == want_stats
    return got, stats


def lambda_tame_problem(n, seed, model="er", params=None, order=3):
    problem = make_problem(n, model, params or {"p": 0.05}, seed=seed)
    ta = clique_tensor(problem.graph_a, order)
    tb = clique_tensor(problem.graph_b, order)
    out = lambda_tame(ta, tb, AlignOptions(alpha=0.5, beta=1.0, max_iter=15))
    return out.best_matching, problem.graph_a, problem.graph_b, ta, tb, out.best_factors


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", [0, 1, 9, 11])
    def test_er60_lambda_tame(self, seed):
        args = lambda_tame_problem(60, seed)
        _, stats = assert_same_as_oracle(*args, RefineOptions(max_sweeps=10))
        assert stats.candidates_scored > 0

    @pytest.mark.parametrize("seed", [3, 4])
    def test_order4_cliques(self, seed):
        args = lambda_tame_problem(40, seed, "er", {"p": 0.3}, order=4)
        assert args[3].nnz > 0 and args[4].nnz > 0
        assert_same_as_oracle(*args, RefineOptions(max_sweeps=4))

    def test_empty_b_tensor(self):
        mt, ga, gb, ta, _, factors = lambda_tame_problem(30, 5, "er", {"p": 0.2})
        tb = MotifTensor(3, gb.n, [], [])
        got, _ = assert_same_as_oracle(mt, ga, gb, ta, tb, factors, RefineOptions())
        assert len(got) == len(mt)

    def test_matching_declared_over_fewer_rows(self):
        mt, ga, gb, ta, tb, factors = lambda_tame_problem(30, 5, "er", {"p": 0.2})
        rows = ga.n // 2
        small = Matching(rows, gb.n, [(i, j) for i, j in mt.pairs if i < rows])
        got, _ = assert_same_as_oracle(small, ga, gb, ta, tb, factors, RefineOptions())
        assert (got.n_rows, got.n_cols) == (ga.n, gb.n)

    @pytest.mark.parametrize("k", [29, 30, 100])
    def test_k_at_least_n_minus_1(self, k):
        args = lambda_tame_problem(30, 6, "er", {"p": 0.2})
        assert_same_as_oracle(*args, RefineOptions(k_neighbors=k, max_sweeps=3))

    @pytest.mark.parametrize("limit", [1, 2000])
    def test_compressed_prefix_codes(self, monkeypatch, limit):
        # a tiny code limit makes every fold of the row codes compress first
        monkeypatch.setattr(graphs, "CODE_LIMIT", limit)
        args = lambda_tame_problem(40, 4, "er", {"p": 0.3}, order=4)
        assert_same_as_oracle(*args, RefineOptions(max_sweeps=3))


@st.composite
def small_problems(draw):
    m = draw(st.integers(1, 9))
    n = draw(st.integers(1, 9))
    order = draw(st.integers(2, 4))

    def graph(size):
        pairs = [(u, v) for u in range(size) for v in range(u + 1, size)]
        picked = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return Graph.from_edges(size, picked)

    def tensor(size):
        if size < order:
            return MotifTensor(order, size, [], [])
        rows = draw(
            st.lists(
                st.lists(st.integers(0, size - 1), min_size=order, max_size=order, unique=True),
                max_size=12,
            )
        )
        rows = sorted({tuple(sorted(r)) for r in rows})
        return MotifTensor(order, size, rows, np.ones(len(rows)))

    graph_a, graph_b = graph(m), graph(n)
    tensor_a, tensor_b = tensor(m), tensor(n)
    cols = draw(st.permutations(range(n)))
    keep = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    pairs = [(i, cols[i]) for i in range(min(m, n)) if keep[i]]
    rank = draw(st.integers(1, 3))

    def embedding(size):
        # small integer entries give tied distances and tied weights
        entries = st.lists(st.integers(-2, 2), min_size=size * rank, max_size=size * rank)
        return np.array(draw(entries), dtype=np.float64).reshape(size, rank)

    u, v = embedding(m), embedding(n)
    opts = RefineOptions(
        k_neighbors=draw(st.sampled_from(["auto", 1, 2, 5, 20])),
        max_sweeps=draw(st.integers(1, 4)),
    )
    return (Matching(m, n, pairs), graph_a, graph_b, tensor_a, tensor_b,
            FactorPair(u, v), opts)


@settings(max_examples=300, deadline=None)
@given(problem=small_problems())
def test_small_problems_match_oracle(problem):
    assert_same_as_oracle(*problem)


class TestCodeSet:
    @settings(max_examples=60, deadline=None)
    @given(
        codes=st.lists(st.integers(-(2**63) + 1, 2**63 - 1), unique=True, max_size=300),
        probes=st.lists(st.integers(-(2**63) + 1, 2**63 - 1), max_size=50),
    )
    def test_exact_membership(self, codes, probes):
        keys = np.array(codes, dtype=np.int64)
        table = refine._CodeSet(keys)
        queries = np.array(codes + probes, dtype=np.int64)
        member = np.isin(queries, keys)
        assert table.contains(queries).tolist() == member.tolist()
        slots = table.find(queries)
        assert np.all((slots > 0) == member)
        assert np.unique(slots[: len(codes)]).size == len(codes)

    def test_failed_placement_grows_the_table(self, monkeypatch):
        place = refine._CodeSet._place
        calls = []

        def fail_once(codes, bits, mults):
            calls.append(bits)
            return None if len(calls) == 1 else place(codes, bits, mults)

        monkeypatch.setattr(refine._CodeSet, "_place", staticmethod(fail_once))
        keys = np.arange(0, 3000, 7, dtype=np.int64)
        table = refine._CodeSet(keys)
        assert calls == [calls[0], calls[0] + 1]
        queries = np.arange(-10, 3010, dtype=np.int64)
        assert table.contains(queries).tolist() == np.isin(queries, keys).tolist()


def former_deltas(layer, i, ip, x, j):
    """The former ``_Layer.deltas``, kept as the oracle of the new scoring."""
    size = x.size
    own = layer.incident(i)
    counts = layer.count[j]
    ends = np.cumsum(counts)
    other = layer.ids[
        np.arange(ends[-1]) + np.repeat(layer.start[j] - ends + counts, counts)
    ]
    # a row holding both i and j[c] is already among the rows of i
    marked = np.zeros(layer.ok.size, dtype=bool)
    marked[own] = True
    keep = ~marked[other]
    cand = np.concatenate(
        (np.repeat(np.arange(size), own.size), np.repeat(np.arange(size), counts)[keep])
    )
    rows = np.concatenate((np.tile(own, size), other[keep]))
    x, j = x[cand], j[cand]
    images = []
    for col in layer.cols:
        verts = col[rows]
        image = np.where(verts == i, x, layer.match_a[verts])
        images.append(np.where(verts == j, ip, image))
    diff = layer.row_ok(images) - layer.ok[rows]
    return np.bincount(cand, weights=diff, minlength=size)


def candidates(state, cands_a, cands_b):
    """``x`` and ``j`` of the candidate swaps, B side first, as ``_improve_pair`` builds them."""
    cands_a = np.array(cands_a, dtype=np.int64)
    cands_b = np.array(cands_b, dtype=np.int64)
    x = np.concatenate((cands_b, state.match_a[cands_a]))
    j = np.concatenate((state.match_b[cands_b], cands_a))
    return x, j


def full_lexicographic(state, i, ip, x, j):
    """Index of the first (motifs, edges) gain with both layers scored in full, or -1."""
    dm, de = (former_deltas(layer, i, ip, x, j) for layer in state.layers)
    better = np.flatnonzero((dm > 0) | ((dm == 0) & (de > 0)))
    return int(better[0]) if better.size else -1


def assert_deltas_match(state, i, x, j):
    ip = int(state.match_a[i])
    for layer in state.layers:
        got = layer.deltas(i, ip, x, j)
        assert got.tolist() == former_deltas(layer, i, ip, x, j).tolist()


@st.composite
def scored_pairs(draw):
    """A state, a matched pair ``(i, i')`` and candidate swaps of it.

    B is a relabeled copy of A with rows dropped and added, and the
    matching mixes the relabeling with other pairs, so that many candidate
    swaps change the scores.
    """
    order = draw(st.integers(2, 4))
    m, n = draw(st.integers(order, 8)), draw(st.integers(order, 8))

    def subsets(size, width):
        row = st.lists(st.integers(0, size - 1), min_size=width, max_size=width, unique=True)
        return {tuple(sorted(r)) for r in draw(st.lists(row, max_size=14))}

    def parts(size, motif_rows):
        edges = {pair for r in motif_rows for pair in combinations(r, 2)} | subsets(size, 2)
        tensor = MotifTensor(order, size, sorted(motif_rows), np.ones(len(motif_rows)))
        return Graph.from_edges(size, edges), tensor

    relabel, others = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
    rows_a = subsets(m, order)
    copied = {
        tuple(sorted(relabel[v] for v in r)) for r in sorted(rows_a)
        if max(r) < n and draw(st.booleans())
    }
    graph_a, tensor_a = parts(m, rows_a)
    graph_b, tensor_b = parts(n, subsets(n, order) | copied)
    pairs, used = [], set()
    for v in range(min(m, n)):
        target = draw(st.sampled_from([relabel[v], others[v], None]))
        if target is not None and target not in used:
            pairs.append((v, target))
            used.add(target)
    assume(pairs)
    matching = Matching(m, n, pairs)
    # a lowered limit makes the row and subset codes fold through their prefixes
    limit = draw(st.sampled_from([graphs.CODE_LIMIT, 1, 40]))
    with mock.patch.object(graphs, "CODE_LIMIT", limit):
        state = refine._SwapState(matching, graph_a, graph_b, tensor_a, tensor_b)
    i, ip = draw(st.sampled_from(pairs))
    cands_a = draw(st.lists(st.sampled_from([v for v in range(m) if v != i]), unique=True))
    cands_b = draw(st.lists(st.sampled_from([v for v in range(n) if v != ip]), unique=True))
    x, j = candidates(state, cands_a, cands_b)
    assume(x.size > 0)
    return state, i, x, j


def triangle_state(n_a, n_b, rows_a, rows_b, pairs):
    """A state on order-3 tensors whose graphs hold the edges of their rows."""
    def parts(n, rows):
        edges = {(r[a], r[b]) for r in rows for a in range(3) for b in range(a + 1, 3)}
        return Graph.from_edges(n, edges), MotifTensor(3, n, rows, np.ones(len(rows)))

    graph_a, tensor_a = parts(n_a, rows_a)
    graph_b, tensor_b = parts(n_b, rows_b)
    return refine._SwapState(Matching(n_a, n_b, pairs), graph_a, graph_b, tensor_a, tensor_b)


class TestCompletionScoring:
    @settings(max_examples=300, deadline=None)
    @given(case=scored_pairs())
    def test_matches_former_deltas(self, case):
        assert_deltas_match(*case)

    def test_empty_b_rows(self):
        state = triangle_state(4, 4, [(0, 1, 2), (1, 2, 3)], [], [(0, 0), (1, 1), (2, 2)])
        x, j = candidates(state, [1, 3], [1, 3])
        assert_deltas_match(state, 0, x, j)
        assert state.layers[0].deltas(0, 0, x, j).tolist() == [0.0] * 4

    def test_every_partner_unmatched(self):
        # j = -1 for every candidate: no rows of j, only the rows of i
        state = triangle_state(3, 6, [(0, 1, 2)], [(1, 2, 3), (1, 2, 4)], [(0, 0), (1, 1), (2, 2)])
        x, j = candidates(state, [], [3, 4, 5])
        assert j.tolist() == [-1, -1, -1]
        assert_deltas_match(state, 0, x, j)
        assert state.layers[0].deltas(0, 0, x, j).tolist() == [1.0, 1.0, 0.0]

    def test_unmatched_candidate_partner(self):
        # A-side candidate 3 is unmatched, so i moves to x = -1
        state = triangle_state(4, 4, [(0, 1, 2), (1, 2, 3)], [(0, 1, 2)], [(0, 0), (1, 1), (2, 2)])
        x, j = candidates(state, [3, 1], [])
        assert x.tolist() == [-1, 1]
        assert_deltas_match(state, 0, x, j)
        # candidate 3 moves row (0, 1, 2) off B and row (1, 2, 3) onto it
        assert state.layers[0].deltas(0, 0, x, j).tolist() == [0.0, 0.0]

    def test_unmatched_vertices_in_rows_of_i(self):
        state = triangle_state(5, 5, [(0, 1, 2), (0, 3, 4)], [(1, 2, 3), (0, 1, 2)], [(0, 0), (1, 1), (2, 2)])
        x, j = candidates(state, [1, 3], [3, 4])
        assert_deltas_match(state, 0, x, j)

    @pytest.mark.parametrize("limit", [1, 7])
    def test_folded_subset_codes(self, monkeypatch, limit):
        monkeypatch.setattr(graphs, "CODE_LIMIT", limit)
        mt, ga, gb, ta, tb, _ = lambda_tame_problem(40, 4, "er", {"p": 0.3}, order=4)
        state = refine._SwapState(mt, ga, gb, ta, tb)
        assert state.layers[0].subsets.prefixes[-1] is not None
        rng = np.random.default_rng(5)
        for i, _ in mt.pairs[:10]:
            x, j = candidates(state, rng.choice(ga.n, 12, replace=False), rng.choice(gb.n, 12, replace=False))
            keep = (j != i) & (x != state.match_a[i])
            assert_deltas_match(state, i, x[keep], j[keep])


class TestFirstGain:
    @settings(max_examples=300, deadline=None)
    @given(case=scored_pairs())
    def test_same_choice_and_count_as_full_scoring(self, case):
        state, i, x, j = case
        ip = int(state.match_a[i])
        want = full_lexicographic(state, i, ip, x, j)
        assert state.first_gain(i, ip, x, j) == want
        stats = RefineStats()
        assert refine._apply_first(state, stats, i, ip, x, j) == (want >= 0)
        assert stats.candidates_scored == (want + 1 if want >= 0 else x.size)

    def spied(self, state):
        calls = []
        edge = state.layers[1]
        score = edge.deltas

        def spy(i, ip, x, j):
            calls.append(x.tolist())
            return score(i, ip, x, j)

        edge.deltas = spy
        return calls

    def test_motif_tie_ahead_of_motif_gain_wins_on_edges(self):
        # i = 0 sits at B vertex 5: candidate 6 keeps the triangle count and
        # gains edge (1, 6); candidate 0, after it, restores the triangle
        ga = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        gb = Graph.from_edges(7, [(0, 1), (0, 2), (1, 2), (1, 6)])
        ta, tb = clique_tensor(ga, 3), clique_tensor(gb, 3)
        state = refine._SwapState(Matching(3, 7, [(0, 5), (1, 1), (2, 2)]), ga, gb, ta, tb)
        calls = self.spied(state)
        x, j = np.array([6, 0]), np.array([-1, -1])
        assert full_lexicographic(state, 0, 5, x, j) == 0
        assert state.first_gain(0, 5, x, j) == 0
        assert calls == [[6]]
        assert state.first_gain(0, 5, x[::-1].copy(), j) == 0
        assert calls == [[6]]

    def test_edge_layer_idle_without_ties(self):
        # i = 0 at B vertex 4 aligns no triangle: candidate 0 gains one, and
        # the tie of candidate x = -1 comes after that gain
        state = triangle_state(5, 5, [(0, 1, 2)], [(0, 1, 2), (1, 2, 3)], [(0, 4), (1, 1), (2, 2)])
        calls = self.spied(state)
        x, j = candidates(state, [3], [0])
        assert state.layers[0].deltas(0, 4, x, j).tolist() == [1.0, 0.0]
        assert state.first_gain(0, 4, x, j) == 0
        # i = 0 at B vertex 3 aligns the triangle, and moving it to -1 loses it
        state = triangle_state(4, 4, [(0, 1, 2)], [(0, 1, 2), (1, 2, 3)], [(0, 3), (1, 1), (2, 2)])
        more_calls = self.spied(state)
        x, j = candidates(state, [3], [])
        assert state.layers[0].deltas(0, 3, x, j).tolist() == [-1.0]
        assert state.first_gain(0, 3, x, j) == -1
        assert calls == more_calls == []
