"""The memoised per-source chain search against the per-pair search it replaced.

`per_pair_witnesses` is a copy of the earlier search: one full label search
for every pair (u, v), with its sources and sinks listed through the
lifting walk `bruhat_leq`.  The library must give the same frontier and
the same witness chains, node for node and edge for edge, and its answers
must not depend on the order in which pairs are asked.  The library's
search runs on packed degrees; `tuple_label_search` is a copy of the
tuple search it replaced, kept to check the labels, bound cuts included.
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
    assert all(len(labels) == P.graph().node_count for labels in P._labels.values())
    assert any(len(node) > 1 for labels in P._labels.values() for node in labels)


def test_labels_match_the_tuple_search_under_a_low_bound():
    P = several_label_instance()
    g = P.graph()
    natural = g.label_bound
    g.label_bound = 2  # before the first search, which packs by the bound
    identity = P.identity_coset()  # its dual is the top coset: every node a sink
    cut = False
    for u in P.cosets():
        P.min_chain_degrees(u, identity)
        sources = [i for i, x in enumerate(g.nodes) if P.bruhat_leq(u, x)]
        assert P._labels[u] == tuple_label_search(P, sources, 2), u
        cut |= P._labels[u] != tuple_label_search(P, sources, natural)
    assert cut


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
