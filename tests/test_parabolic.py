"""Parabolic quotients W/W_P, curve degrees, adjacency graph, minimal chains.

min_chain_degrees is cross-checked against a brute-force oracle that
enumerates ALL simple paths in the adjacency graph.  Any chain with a
repeated node can drop the enclosed cycle without increasing its degree
(edge degrees are componentwise nonnegative), so simple paths suffice
for Pareto minima.
"""

import pytest

from qschub.checks import DEFAULT_SUITE, build_instance
from qschub.parabolic import (
    ParabolicData,
    degree_add,
    degree_leq,
    make_parabolic,
    pareto_minima,
)
from qschub.quantum import QClass, multiply_classes, qproduct_GB
from qschub.roots import InvariantError, build_root_system
from qschub.weyl import (
    GroupSizeGuardError,
    enumerate_parabolic_subgroup,
    identity,
    order_from_heights,
    simple_reflection,
)


def adjacency_rows(g):
    """Row i of the graph read from `g.edges`: (j, degree, root) for each
    edge {i, j}, sorted by j."""
    rows = [[] for _ in g.nodes]
    for (i, j), (root, deg) in g.edges.items():
        rows[i].append((j, deg, root))
        rows[j].append((i, deg, root))
    return [sorted(row, key=lambda e: e[0]) for row in rows]


def brute_force_chain_degrees(P):
    """Map (u_idx, v_idx) -> Pareto frontier, via exhaustive simple paths."""
    g = P.graph()
    adj = adjacency_rows(g)
    n = g.node_count
    leq = [[P.bruhat_leq(a, b) for b in g.nodes] for a in g.nodes]
    dual_idx = [P.dual(u).index for u in g.nodes]

    # collect every simple-path degree from each start node
    reachable = [dict() for _ in range(n)]  # start -> {end: set of degrees}

    def dfs(start, node, visited, acc):
        reachable[start].setdefault(node, set()).add(acc)
        for j, deg, _root in adj[node]:
            if j not in visited:
                dfs(start, j, visited | {j}, tuple(a + b for a, b in zip(acc, deg)))

    zero = (0,) * len(P.q_index)
    for i in range(n):
        dfs(i, i, {i}, zero)

    table = {}
    for ui in range(n):
        starts = [x for x in range(n) if leq[ui][x]]
        for vi in range(n):
            sinks = {x for x in range(n) if leq[x][dual_idx[vi]]}
            degrees = set()
            for x0 in starts:
                for end, degs in reachable[x0].items():
                    if end in sinks:
                        degrees |= degs
            table[(ui, vi)] = set(pareto_minima(degrees))
    return table


@pytest.mark.parametrize(
    "type_label,rank,delta_P",
    [("A", 2, ()), ("A", 3, (0, 2)), ("B", 2, ()), ("A", 3, (1, 2))],
)
def test_min_chain_degrees_against_path_oracle(type_label, rank, delta_P):
    P = make_parabolic(type_label, rank, delta_P)
    g = P.graph()
    expected = brute_force_chain_degrees(P)
    for ui, u in enumerate(g.nodes):
        for vi, v in enumerate(g.nodes):
            got = set(P.min_chain_degrees(u, v))
            assert got == expected[(ui, vi)], (u, v)


def test_gr24_coset_lengths():
    P = make_parabolic("A", 3, (0, 2))  # Gr(2,4)
    lengths = sorted(c.length for c in P.cosets())
    assert lengths == [0, 1, 2, 2, 3, 4]
    assert P.dim == 4


def test_to_coset_collapses_W_P():
    P = make_parabolic("A", 3, (0, 2))
    e_coset = P.identity_coset()
    assert e_coset.length == 0
    for b in enumerate_parabolic_subgroup(P.system, P.delta_P):
        assert P.to_coset(b) == e_coset
    # idempotent on representatives
    for c in P.cosets():
        assert P.to_coset(c.min_rep) == c


def test_to_coset_length_additivity():
    # w = a*b with a minimal and b in W_P satisfies l(w) = l(a) + l(b)
    P = make_parabolic("A", 3, (0, 2))
    subgroup = enumerate_parabolic_subgroup(P.system, P.delta_P)
    for c in P.cosets():
        for b in subgroup:
            w = c.min_rep * b
            assert w.length == c.length + b.length
            assert P.to_coset(w) == c


def test_dual_involution_and_length():
    for inst in (("A", 3, (0, 2)), ("A", 2, ()), ("B", 2, (0,))):
        P = make_parabolic(*inst)
        longest = max(P.cosets(), key=lambda c: c.length)
        assert P.dual(P.identity_coset()) == longest
        for u in P.cosets():
            assert P.dual(P.dual(u)) == u
            assert P.dual(u).length == P.dim - u.length


def test_dual_memo_keeps_the_length_check():
    P = ParabolicData(make_parabolic("A", 2, ()).system, ())  # fresh memos
    top = P.cosets()[-1]
    assert P.dual(P.identity_coset()) is top and P._dual == {P.identity_coset(): top}
    P.crossing_roots = P.crossing_roots[:-1]  # dim one too small: every dual is off
    for _ in range(2):  # a refused dual is not memoised
        with pytest.raises(InvariantError, match="wrong length"):
            P.dual(top)
    assert top not in P._dual


def test_degree_of_simple_root_is_unit_vector():
    P = make_parabolic("A", 3, (0, 2))
    (retained,) = P.q_index  # only b2 survives for Gr(2,4)
    beta = P.system.simple_roots[retained]
    assert P.degree_of_root(beta) == (1,)

    Q = make_parabolic("B", 2, ())
    for pos, i in enumerate(Q.q_index):
        deg = Q.degree_of_root(Q.system.simple_roots[i])
        assert deg == tuple(1 if j == pos else 0 for j in range(len(Q.q_index)))


def test_degree_of_root_rejects_R_P():
    P = make_parabolic("A", 3, (0, 2))
    for alpha in P.R_P_plus:
        with pytest.raises(ValueError):
            P.degree_of_root(alpha)


@pytest.mark.parametrize("tokens", DEFAULT_SUITE + (
    ("B3", "2"), ("C3", "1", "3"), ("D4", "2")))
def test_R_P_plus_sizes_the_enumerated_W_P(tokens):
    # one membership rule, Root.supported_on, read by is_crossing and by
    # the guard of enumerate_parabolic_subgroup: |W_P| from the heights of
    # R_P^+ is the number of elements the orbit walk finds
    P = build_instance(tokens)[1]
    assert set(P.R_P_plus) == {a for a in P.system.positive_roots
                               if a.supported_on(P.delta_P)}
    assert order_from_heights(P.R_P_plus) == len(
        enumerate_parabolic_subgroup(P.system, P.delta_P))


def test_grassmannian_crossing_degrees_all_one():
    # e_i - e_j with i <= r < j has degree 1 on a Grassmannian quotient
    for rank, k in ((3, 2), (4, 2), (5, 3)):
        delta_P = tuple(i for i in range(rank) if i != k - 1)
        P = make_parabolic("A", rank, delta_P)
        for alpha in P.crossing_roots:
            assert P.degree_of_root(alpha) == (1,)


def test_chern_numbers_positive_integers():
    from fractions import Fraction

    for inst in (("A", 2, ()), ("A", 3, (0, 2)), ("B", 2, ()), ("G", 2, ())):
        P = make_parabolic(*inst)
        rs = P.system
        # recompute 2*rho_P from scratch: sum of positive roots outside R_P^+
        in_R_P = {a.coeffs for a in P.R_P_plus}
        two_rho = [0] * rs.rank
        for alpha in rs.positive_roots:
            if alpha.coeffs not in in_R_P:
                two_rho = [x + c for x, c in zip(two_rho, alpha.coeffs)]
        for alpha in P.crossing_roots:
            n = P.chern_number(alpha)
            assert isinstance(n, int) and n > 0
            expected = Fraction(2 * rs.inner(tuple(two_rho), alpha.coeffs), alpha.norm)
            assert n == expected
        for i in P.q_index:
            # h_{b_i}(rho_P) = (b_i, 2 rho_P) / (b_i, b_i)
            beta = rs.simple_roots[i]
            rho_pairing = Fraction(rs.inner(beta.coeffs, P.two_rho_P), beta.norm)
            assert P.chern_number(beta) == 2 * rho_pairing


def test_wp_invariance_of_degrees():
    P = make_parabolic("A", 3, (1, 2))
    for w in enumerate_parabolic_subgroup(P.system, P.delta_P):
        for alpha in P.crossing_roots:
            image = w.apply_root(alpha)
            if not image.is_positive:
                image = P.system.root(tuple(-c for c in image.coeffs))
            assert P.degree_of_root(image) == P.degree_of_root(alpha)


def test_full_delta_P_rejected():
    with pytest.raises(ValueError):
        make_parabolic("A", 2, (0, 1))
    with pytest.raises(ValueError):
        make_parabolic("A", 2, (0, 5))


def test_make_parabolic_reads_delta_p_as_a_set():
    P = make_parabolic("A", 3, (2, 0))
    assert P is make_parabolic("A", 3, (0, 2))
    assert P is make_parabolic("A", 3, [0, 2])
    assert P is make_parabolic("a", 3, (0, 2, 2))
    with pytest.raises(ValueError):
        make_parabolic("A", 3, [0, 3])


def test_to_coset_refuses_an_element_of_another_system():
    w = simple_reflection(build_root_system("B", 3), 0)
    with pytest.raises(ValueError,
                       match="^element belongs to a different root system$") as err:
        make_parabolic("A", 3, ()).to_coset(w)
    assert err.type is ValueError


def test_one_parabolic_data_per_quotient():
    # what `qschub product B3 flag --max-group-order 48` builds
    _label, Q = build_instance(("B3", "flag"), max_elements=48)
    P = make_parabolic("B", 3, ())
    assert Q is P and Q.identity_coset() is P.identity_coset()
    u = P.cosets()[5]
    two = QClass.basis(Q, Q.identity_coset(), coeff=2)
    twice = multiply_classes(QClass.basis(P, u), two, lambda a, b: qproduct_GB(P, a, b))
    assert twice == QClass.basis(Q, u, coeff=2)


def test_enumeration_guard_ignores_call_order():
    # a fresh quotient refuses during the BFS ...
    fresh = ParabolicData(make_parabolic("A", 3, ()).system, (0, 2))
    fresh.max_elements = 5
    with pytest.raises(GroupSizeGuardError):
        fresh.cosets()
    # ... and a cached enumeration or graph refuses the same guard
    for delta_P, size in (((0, 2), 6), ((), 24)):
        assert len(make_parabolic("A", 3, delta_P).graph().nodes) == size
        P = make_parabolic("A", 3, delta_P, max_elements=size - 1)
        with pytest.raises(GroupSizeGuardError):
            P.cosets()
        with pytest.raises(GroupSizeGuardError):
            P.graph()
        assert make_parabolic("A", 3, delta_P, max_elements=size).cosets()


def test_refused_cosets_enumerate_nothing():
    # |W/W_P| is known before any work, so a refusal interns no coset
    P = ParabolicData(make_parabolic("A", 3, ()).system, (1,))
    P.max_elements = 5
    with pytest.raises(GroupSizeGuardError):
        P.cosets()
    with pytest.raises(GroupSizeGuardError):
        P.graph()
    assert P._cosets is None and P._graph is None and not P._coset_of
    assert P.size == 12


def test_small_guard_does_not_leak_into_a_later_default_call():
    with pytest.raises(GroupSizeGuardError):
        make_parabolic("A", 3, (1,), max_elements=2).cosets()
    P = make_parabolic("A", 3, (1,))
    assert len(P.cosets()) == 12 and P.graph().node_count == 12
    assert build_instance(("A3", "1", "3"))[1] is P and len(P.cosets()) == 12


def test_graph_counts():
    assert make_parabolic("A", 1, ()).graph().node_count == 2
    assert make_parabolic("A", 1, ()).graph().edge_count == 1
    g24 = make_parabolic("A", 3, (0, 2)).graph()
    assert (g24.node_count, g24.edge_count) == (6, 12)
    g25 = make_parabolic("A", 4, (0, 2, 3)).graph()
    assert (g25.node_count, g25.edge_count) == (10, 30)  # Johnson J(5,2)


def test_adjacency_symmetric_with_equal_degree():
    P = make_parabolic("B", 2, ())
    for u in P.cosets():
        for v in P.cosets():
            if u == v:
                continue
            fwd = P.adjacency(u, v)
            bwd = P.adjacency(v, u)
            assert (fwd is None) == (bwd is None)
            if fwd is not None:
                assert fwd[1] == bwd[1]
    # self-adjacency is a caller error, not an edge
    for u in P.cosets():
        with pytest.raises(ValueError):
            P.adjacency(u, u)


def test_adjacency_duality():
    P = make_parabolic("A", 3, (0, 2))
    for u in P.cosets():
        for v in P.cosets():
            if u == v:
                continue
            got = P.adjacency(u, v)
            dual_got = P.adjacency(P.dual(u), P.dual(v))
            assert (got is None) == (dual_got is None)
            if got is not None:
                assert got[1] == dual_got[1]


def test_frontier_examples():
    P = make_parabolic("A", 3, (0, 2))  # Gr(2,4)
    top = max(P.cosets(), key=lambda c: c.length)
    assert P.min_chain_degrees(top, top) == ((2,),)

    Q = make_parabolic("A", 2, ())
    e = Q.identity_coset()
    for v in Q.cosets():
        assert Q.min_chain_degrees(e, v) == ((0, 0),)


def test_empty_frontier_is_refused_where_it_is_made(monkeypatch):
    P = ParabolicData(make_parabolic("A", 2, ()).system, ())  # a fresh A2 flag quotient
    search = P._label_search

    def top_only(sources):
        # keep the labels of the top coset only: every other coset's
        # minima, and so every entry but one of a row, come out empty
        labels = search(sources)
        return tuple(node if i == len(labels) - 1 else () for i, node in enumerate(labels))

    monkeypatch.setattr(P, "_label_search", top_only)
    cosets = P.cosets()
    with pytest.raises(InvariantError, match="chain frontier is never empty"):
        P.min_chain_degrees(cosets[0], P.identity_coset())


def test_zero_degree_iff_bruhat_below_dual():
    for inst in (("A", 2, ()), ("A", 3, (0, 2)), ("B", 2, ())):
        P = make_parabolic(*inst)
        zero = (0,) * len(P.q_index)
        for u in P.cosets():
            for v in P.cosets():
                frontier = P.min_chain_degrees(u, v)
                assert (zero in frontier) == P.bruhat_leq(u, P.dual(v))
                if zero in frontier:
                    assert frontier == (zero,)


def test_min_chain_symmetry():
    P = make_parabolic("B", 2, ())
    for u in P.cosets():
        for v in P.cosets():
            assert set(P.min_chain_degrees(u, v)) == set(P.min_chain_degrees(v, u))


def test_witness_chains_are_valid():
    for inst in (("A", 2, ()), ("A", 3, (0, 2)), ("B", 2, ())):
        P = make_parabolic(*inst)
        zero = (0,) * len(P.q_index)
        for u in P.cosets():
            for v in P.cosets():
                frontier, witnesses = P.min_chain_witnesses(u, v)
                assert frontier == P.min_chain_degrees(u, v)
                assert {w.degree for w in witnesses} == set(frontier)
                for w in witnesses:
                    assert P.bruhat_leq(u, w.nodes[0])
                    assert P.bruhat_leq(w.nodes[-1], P.dual(v))
                    total = zero
                    for a, b, root, deg in zip(
                        w.nodes, w.nodes[1:], w.edge_roots, w.edge_degrees
                    ):
                        adj = P.adjacency(a, b)
                        assert adj is not None and adj[1] == deg
                        assert P.degree_of_root(root) == deg
                        total = degree_add(total, deg)
                    assert total == w.degree


def test_bruhat_on_cosets_vs_lengths():
    P = make_parabolic("A", 3, (0, 2))
    for u in P.cosets():
        assert P.bruhat_leq(P.identity_coset(), u)
        for v in P.cosets():
            if P.bruhat_leq(u, v) and u != v:
                assert u.length < v.length


def test_degree_order_helpers():
    assert degree_leq((0, 1), (1, 1))
    assert not degree_leq((2, 0), (1, 1))
    assert degree_add((1, 2), (3, 0)) == (4, 2)
    minima = set(pareto_minima([(1, 2), (2, 1), (2, 2), (0, 3), (1, 2)]))
    assert minima == {(1, 2), (2, 1), (0, 3)}
    assert pareto_minima([]) == ()


def test_cover_relations_have_length_one_gap():
    P = make_parabolic("A", 3, (0, 2))
    g = P.graph()
    for (i, j), (_root, _deg) in g.edges.items():
        u, v = g.nodes[i], g.nodes[j]
        if P.bruhat_leq(u, v) and v.length == u.length + 1:
            # adjacency includes all covers
            assert P.adjacency(u, v) is not None


@pytest.mark.parametrize("tokens", [
    ("A4", "flag"), ("D4", "flag"), ("B3", "2"), ("C3", "1", "3"),
    ("F4", "1", "4"), ("G2", "1"), ("E6", "1"), ("gr", "3", "7"),
], ids=" ".join)
def test_row_covers_are_the_length_one_edges(tokens):
    # up_set and down_set close over the entries of each row one longer
    # or one shorter; the rule they replaced read the covers off the graph
    # edges whose ends differ in length by one
    P = build_instance(tokens)[1]
    g = P.graph()
    up, down = [set() for _ in g.nodes], [set() for _ in g.nodes]
    for i, j in g.edges:
        lo, hi = sorted((i, j), key=lambda k: g.nodes[k].length)
        if g.nodes[hi].length == g.nodes[lo].length + 1:
            up[lo].add(hi)
            down[hi].add(lo)
    rows = [{v.index for v in P.targets(u)} for u in g.nodes]
    for i, u in enumerate(g.nodes):
        assert {j for j in rows[i] if g.nodes[j].length == u.length + 1} == up[i]
        assert {j for j in rows[i] if g.nodes[j].length == u.length - 1} == down[i]
        # the rows are symmetric as sets: W_P permutes the crossing roots
        assert all(i in rows[j] for j in rows[i])


def test_full_flag_coset_guard_is_immediate():
    # the full-flag coset count equals |W|, known in closed form, so a
    # hopeless request must be refused before any BFS work starts
    import time

    P = make_parabolic("B", 9, ())
    t0 = time.monotonic()
    with pytest.raises(GroupSizeGuardError):
        P.cosets()
    assert time.monotonic() - t0 < 5.0
