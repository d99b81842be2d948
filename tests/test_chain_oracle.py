"""The memoised per-source chain search against the per-pair search it replaced.

`per_pair_witnesses` is a copy of the earlier search: one full label search
for every pair (u, v), with its sources and sinks listed through the
lifting walk `bruhat_leq`.  The library must give the same frontier and
the same witness chains, node for node and edge for edge, and its answers
must not depend on the order in which pairs are asked.  The library's
search runs on packed degrees and memoises them packed;
`tuple_label_search` is a copy of the tuple search it replaced, kept to
check the unpacked labels, bound cuts included.
"""

import dataclasses
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from qschub.checks import build_instance
from qschub.parabolic import (
    ChainWitness,
    PackedDegrees,
    ParabolicData,
    degree_add,
    degree_leq,
    make_parabolic,
    pareto_minima,
)


def adjacency_rows(g):
    """Row i of the graph read from `g.edges`: (j, degree, root) for each
    edge {i, j}, sorted by j, the order in which the library's search
    visits neighbours."""
    rows = [[] for _ in g.nodes]
    for (i, j), (root, deg) in g.edges.items():
        rows[i].append((j, deg, root))
        rows[j].append((i, deg, root))
    return [sorted(row, key=lambda e: e[0]) for row in rows]


def per_pair_witnesses(P, u, v):
    g = P.graph()
    adj = adjacency_rows(g)
    vdual = P.dual(v)
    sources = [i for i, x in enumerate(g.nodes) if P.bruhat_leq(u, x)]
    sinks = {i for i, x in enumerate(g.nodes) if P.bruhat_leq(x, vdual)}
    zero = (0,) * len(P.q_index)
    maxcoord = max((max(deg) for (_, deg) in g.edges.values()), default=0)
    bound = g.node_count * maxcoord
    labels = [dict() for _ in g.nodes]
    work = deque()
    for i in sources:
        labels[i][zero] = None
        work.append((i, zero))
    while work:
        i, d = work.popleft()
        if d not in labels[i]:
            continue
        for j, edeg, alpha in adj[i]:
            nd = degree_add(d, edeg)
            if any(c > bound for c in nd):
                continue
            lj = labels[j]
            if nd in lj or any(degree_leq(e, nd) for e in lj):
                continue
            for e in [e for e in lj if degree_leq(nd, e)]:
                del lj[e]
            lj[nd] = (i, d, alpha, edeg)
            work.append((j, nd))
    frontier = pareto_minima(d for i in sinks for d in labels[i])
    found = []
    for d in frontier:
        sink = min(i for i in sinks if d in labels[i])
        path_nodes, roots, degs = [sink], [], []
        cur, cd = sink, d
        while labels[cur][cd] is not None:
            pi, pd, alpha, edeg = labels[cur][cd]
            roots.append(alpha)
            degs.append(edeg)
            path_nodes.append(pi)
            cur, cd = pi, pd
        found.append(ChainWitness(
            d, tuple(g.nodes[i] for i in reversed(path_nodes)),
            tuple(reversed(roots)), tuple(reversed(degs))))
    return frontier, tuple(found)


def tuple_label_search(P, sources, bound):
    """Per-node (degree, back) labels of the chains from `sources`, on tuples."""
    g = P.graph()
    adj = adjacency_rows(g)
    zero = (0,) * len(P.q_index)
    labels = [dict() for _ in g.nodes]
    work = deque()
    for i in sources:
        labels[i][zero] = None
        work.append((i, zero))
    while work:
        i, d = work.popleft()
        if d not in labels[i]:
            continue
        for j, edeg, _alpha in adj[i]:
            nd = degree_add(d, edeg)
            if max(nd) > bound:
                continue
            lj = labels[j]
            if nd in lj or any(degree_leq(e, nd) for e in lj):
                continue
            for e in [e for e in lj if degree_leq(nd, e)]:
                del lj[e]
            lj[nd] = (i, d)
            work.append((j, nd))
    return tuple(tuple(lj.items()) for lj in labels)


def degree_holders(labels):
    """Each packed degree held at some node -> the bitset of its holders."""
    held = {}
    for i, node in enumerate(labels):
        for d, _back in node:
            held[d] = held.get(d, 0) | 1 << i
    return held


def unpacked_labels(P, u):
    """The labels of the search from u, degrees unpacked to tuples.  Where a
    witness query has kept that search, the record must hold the same
    labels and a degree table read off them."""
    labels = P._label_search(P.up_set(u))
    unpack = P.graph().packed.unpack
    if u in P._labels:
        kept, table = P._labels[u]
        assert kept == labels
        held = degree_holders(labels)
        assert list(table) == sorted(table)
        assert {x: nodes for _d, x, nodes in table} == held
        assert all(d == unpack(x) for d, x, _nodes in table)
    return tuple(
        tuple((unpack(d), None if back is None else (back[0], unpack(back[1])))
              for d, back in node)
        for node in labels)


def scanned_row(P, u):
    """u's frontier row by the per-pair scan the row pass replaced: for each
    v, the minima of the degrees held at some coset below dual(v)."""
    held = degree_holders(P._label_search(P.up_set(u)))
    pk = P.graph().packed
    row = []
    for v in P.cosets():
        sinks = P.down_set(P.dual(v))
        minima = pk.minima(x for x, nodes in held.items() if nodes & sinks)
        row.append(tuple(sorted(pk.unpack(x) for x in minima)))
    return row


def frontier_row(P, u):
    return [P.min_chain_degrees(u, v) for v in P.cosets()]


def several_label_instance():
    """The A3 flag graph with seeded edge degrees, on fresh memos.

    Every real quotient tried so far leaves one label per node; with
    these degrees incomparable labels meet at nodes, and frontiers hold
    several degrees.
    """
    P = ParabolicData(make_parabolic("A", 3, ()).system, ())
    g = P.graph()
    rng = random.Random("chain-oracle|degrees")
    pool = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (0, 2, 1), (1, 1, 0)]
    edges = {key: (root, rng.choice(pool)) for key, (root, _deg) in g.edges.items()}
    P._graph = dataclasses.replace(g, edges=edges)
    return P


def _flat(answer):
    """A witness answer as plain data: degrees, node words, root coefficients."""
    frontier, chains = answer
    return frontier, [
        (w.degree, [x.word() for x in w.nodes],
         [r.coeffs for r in w.edge_roots], w.edge_degrees)
        for w in chains
    ]


@pytest.mark.parametrize("tokens", [
    ("A3", "flag"), ("B2", "flag"), ("G2", "flag"), ("B3", "2"),
    ("gr", "3", "6"), ("D4", "1", "3"), ("A4", "1", "4"), ("C3", "1", "3"),
], ids="-".join)
def test_witnesses_match_per_pair_search_on_all_pairs(tokens):
    _label, P = build_instance(tokens)
    cosets = P.cosets()
    for u in cosets:
        for v in cosets:
            got = P.min_chain_witnesses(u, v)
            assert _flat(got) == _flat(per_pair_witnesses(P, u, v)), (u, v)
            assert got[0] == P.min_chain_degrees(u, v)


def test_witnesses_match_per_pair_search_on_a4_sample():
    P = make_parabolic("A", 4, ())
    cosets = P.cosets()
    rng = random.Random("chain-oracle|A4")
    for _ in range(200):
        u, v = rng.choice(cosets), rng.choice(cosets)
        assert _flat(P.min_chain_witnesses(u, v)) == _flat(per_pair_witnesses(P, u, v))


def test_witnesses_match_with_several_labels_per_node():
    P = several_label_instance()
    cosets = P.cosets()
    widest = 0
    for u in cosets:
        for v in cosets:
            got = P.min_chain_witnesses(u, v)
            assert _flat(got) == _flat(per_pair_witnesses(P, u, v)), (u, v)
            widest = max(widest, len(got[0]))
    assert widest > 1
    records = [unpacked_labels(P, u) for u in P._labels]
    assert len(records) == len(cosets)
    assert all(len(labels) == P.graph().node_count for labels in records)
    assert any(len(node) > 1 for labels in records for node in labels)


@pytest.mark.parametrize("tokens", [
    ("A4", "flag"), ("G2", "flag"), ("B3", "flag"), ("B3", "1", "3"),
    ("C3", "1", "3"), ("D4", "1", "3", "4"), ("gr", "3", "7"),
], ids="-".join)
def test_frontier_rows_match_the_per_pair_scan_on_all_pairs(tokens):
    shared = build_instance(tokens)[1]
    P = ParabolicData(shared.system, shared.delta_P)  # fresh rows
    for u in P.cosets():
        assert frontier_row(P, u) == scanned_row(P, u), u


def test_frontier_rows_match_the_per_pair_scan_with_several_labels_per_node():
    P = several_label_instance()
    widest = 0
    for u in P.cosets():
        row = frontier_row(P, u)
        assert row == scanned_row(P, u), u
        widest = max(widest, *map(len, row))
    assert widest > 1


@pytest.mark.parametrize("type_label, rank, sample", [("D", 4, 24), ("B", 4, 12)],
                         ids=["D4-flag", "B4-flag"])
def test_frontier_rows_match_the_per_pair_scan_on_sampled_sources(type_label, rank, sample):
    P = ParabolicData(make_parabolic(type_label, rank, ()).system, ())
    rng = random.Random(f"chain-oracle|rows|{type_label}{rank}")
    for u in rng.sample(P.cosets(), sample):
        assert frontier_row(P, u) == scanned_row(P, u), u


def test_witness_queries_search_each_source_once():
    # as in the flag-minq benchmark: 1000 seeded A4 flag pairs over at
    # most 120 sources, one label search per source asked
    P = ParabolicData(make_parabolic("A", 4, ()).system, ())
    cosets = P.cosets()
    real, searched = P._label_search, []

    def counted(sources):
        searched.append(sources)
        return real(sources)

    P._label_search = counted
    rng = random.Random("chain-oracle|witness-searches")
    pairs = [(rng.choice(cosets), rng.choice(cosets)) for _ in range(1000)]
    for u, v in pairs:
        P.min_chain_witnesses(u, v)
    assert len(searched) == len(set(searched)) == len({u for u, _v in pairs}) <= 120


def test_labels_match_the_tuple_search_under_a_low_bound():
    P = several_label_instance()
    g = P.graph()
    natural = g.label_bound
    g.label_bound = 2  # before the first search, which packs by the bound
    cut = False
    for u in P.cosets():
        sources = [i for i, x in enumerate(g.nodes) if P.bruhat_leq(u, x)]
        labels = unpacked_labels(P, u)
        assert labels == tuple_label_search(P, sources, 2), u
        cut |= labels != tuple_label_search(P, sources, natural)
    assert cut


@pytest.mark.parametrize("tokens, sample", [
    (("B3", "flag"), None), (("G2", "flag"), None), (("D4", "flag"), 12),
], ids=["B3-flag", "G2-flag", "D4-flag-sample"])
def test_labels_match_the_tuple_search_where_labels_are_deleted(tokens, sample):
    # real quotients where a label written at a node is later replaced by
    # a smaller one there: 1,134 deletions over B3 flag's 48 searches, 50
    # over G2 flag's 12, 906 over the 12 sampled D4 flag sources
    label, P = build_instance(tokens)
    g = P.graph()
    cosets = P.cosets()
    if sample is not None:
        cosets = random.Random(f"chain-oracle|labels|{label}").sample(cosets, sample)
    for u in cosets:
        sources = [i for i, x in enumerate(g.nodes) if P.bruhat_leq(u, x)]
        assert unpacked_labels(P, u) == tuple_label_search(P, sources, g.label_bound), u


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_packed_operations_match_tuple_operations(data):
    fields = data.draw(st.integers(1, 8), label="fields")
    largest = data.draw(st.integers(0, 6), label="largest edge coordinate")
    bound = data.draw(st.integers(0, 300), label="bound")
    pk = PackedDegrees(fields, bound, largest)
    G, C = pk.guard, pk.cap

    def vector(top):
        coord = st.one_of(st.sampled_from([0, top]), st.integers(0, top))
        return data.draw(st.tuples(*[coord] * fields))

    d, e = vector(bound), vector(largest)  # a label and an edge degree
    x, y = vector(bound + largest), vector(bound + largest)
    assert pk.unpack(pk.pack(x)) == x
    nd = pk.pack(d) + pk.pack(e)
    assert pk.unpack(nd) == degree_add(d, e)
    assert bool((nd + C) & G) == (max(degree_add(d, e)) > bound)
    assert bool((pk.pack(x) + C) & G) == (max(x) > bound)
    assert (((pk.pack(y) | G) - pk.pack(x)) & G == G) == degree_leq(x, y)
    # the search adds an edge to a guarded label, reads nd back by XOR,
    # and lets G stand for "no label yet": G dominates no degree
    guarded = (pk.pack(d) | G) + pk.pack(e)
    assert guarded == nd | G
    assert guarded ^ G == nd
    assert ((pk.pack(x) | G) - G) & G != G


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packed_minima_match_pareto_minima(data):
    fields = data.draw(st.integers(1, 8), label="fields")
    bound = data.draw(st.integers(0, 300), label="bound")
    pk = PackedDegrees(fields, bound, 0)
    coord = st.one_of(st.sampled_from([0, bound]), st.integers(0, bound))
    vector = st.tuples(*[coord] * fields)
    points = data.draw(st.lists(vector, min_size=1, max_size=10), label="points")
    points += data.draw(st.lists(st.sampled_from(points), max_size=4), label="duplicates")
    for p in data.draw(st.lists(st.sampled_from(points), max_size=4), label="dominated"):
        step = data.draw(vector)
        points.append(tuple(min(bound, c + s) for c, s in zip(p, step)))
    extremes = [(0,) * fields, (bound,) * fields]
    points += data.draw(st.lists(st.sampled_from(extremes), max_size=2), label="extremes")
    points = data.draw(st.permutations(points), label="order")
    got = pk.minima(map(pk.pack, points))
    assert got == sorted(got)
    assert tuple(sorted(map(pk.unpack, got))) == pareto_minima(points)


@pytest.mark.parametrize("tokens", [("A3", "flag"), ("B3", "2"), ("gr", "3", "6")],
                         ids="-".join)
def test_packed_rows_are_the_edges_sorted_by_neighbour(tokens):
    g = build_instance(tokens)[1].graph()
    pk = g.packed
    assert pk.adj == tuple(tuple((j, pk.pack(deg)) for j, deg, _alpha in row)
                           for row in adjacency_rows(g))


def test_answers_do_not_depend_on_query_order():
    system = make_parabolic("B", 3, ()).system
    pairs = [(i, j) for i in range(48) for j in range(48)]
    rng = random.Random("chain-oracle|order")
    sample = rng.sample(pairs, 300)
    answers = []
    for seed in (1, 2):
        P = ParabolicData(system, ())  # fresh memos, not the cached instance
        order = sample[:]
        random.Random(seed).shuffle(order)
        cosets = P.cosets()
        got = {(i, j): _flat(P.min_chain_witnesses(cosets[i], cosets[j]))
               for i, j in order}
        answers.append(got)
    assert answers[0] == answers[1]


def test_up_and_down_sets_match_bruhat_leq():
    P = ParabolicData(make_parabolic("C", 3, (1,)).system, (1,))
    g = P.graph()
    for i, a in enumerate(g.nodes):
        up, down = P.up_set(a), P.down_set(a)
        for j, b in enumerate(g.nodes):
            assert bool(up >> j & 1) == P.bruhat_leq(a, b)
            assert bool(down >> j & 1) == P.bruhat_leq(b, a)
