"""The vectorized local search against the per-candidate loop it replaced.

``OracleState`` and ``oracle_local_search`` are the former ``_SwapState``
and sweep loop of ``refine.local_search``: every candidate swap is scored
on its own with Python tuples and set lookups.  The array version scores
all candidates of one side of a pair at once and must give the same pairs,
a bit-identical weight and the same work counters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
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
        for i in rows[order]:
            i = int(i)
            ip = state.match_a[i]
            if ip < 0:
                continue
            if _oracle_improve_pair(state, stats, i, ip, knn_a, knn_b, adj_a, adj_b):
                changed = True
        if not changed:
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
