"""One Coset object per coset: the intern table of a quotient.

Cosets compare and hash by identity, so every entry point that hands out
a coset (to_coset, identity_coset, cosets(), the targets rows, dual)
must return the quotient's one object for it, whatever the call order.
"""

import pytest

from qschub import checks
from qschub.grassmann import (coset_of_partition, grassmannian_parabolic, partition_of_coset,
                              qproduct_grassmann_cosets)
from qschub.parabolic import ParabolicData, make_parabolic
from qschub.quantum import (DivisorEngine, QClass, classical_chevalley, multiply_classes,
                            product_engine, qproduct_GB, quantum_chevalley)
from qschub.roots import build_root_system
from qschub.weyl import from_word, identity


def fresh(type_label, rank, delta_P):
    """A ParabolicData outside make_parabolic's cache, with no memo filled."""
    return ParabolicData(build_root_system(type_label, rank), delta_P)


# (type, rank, Delta_P): A3 flag, B3 2, gr 3 6
QUOTIENTS = [("A", 3, ()), ("B", 3, (0, 2)), ("A", 5, (0, 1, 3, 4))]
QUOTIENT_IDS = ["A3 flag", "B3 2", "gr 3 6"]


def test_equal_elements_give_one_coset():
    P = fresh("A", 3, ())
    rs = P.system
    a, b = from_word(rs, (0, 1, 0)), from_word(rs, (1, 0, 1))  # braid relation
    assert a is not b and a == b
    assert P.to_coset(a) is P.to_coset(b)
    assert P.to_coset(identity(rs)) is P.identity_coset()
    for u in P.cosets():
        assert P.to_coset(from_word(rs, u.word())) is u


def test_one_coset_per_coset_of_w_p():
    P = fresh("A", 3, (0, 2))
    rs = P.system
    for u in P.cosets():
        for j in P.delta_P:
            # u s_j lies in the same coset, with a longer representative
            assert P.to_coset(u.min_rep * from_word(rs, (j,))) is u


@pytest.mark.parametrize("type_label,rank,delta_P", QUOTIENTS, ids=QUOTIENT_IDS)
def test_cosets_interned_before_enumeration_are_enumerated(type_label, rank, delta_P):
    P = fresh(type_label, rank, delta_P)
    # intern a good part of the quotient through Chevalley rows and duals
    # before cosets() runs: the BFS must still find and expand all of them
    seen_classes, duals = [], []
    frontier = [P.identity_coset()]
    for _ in range(3):
        nxt = []
        for u in frontier:
            for b in P.q_index:
                nxt += [v for (_d, v) in quantum_chevalley(P, b, u).terms]
            dual = P.dual(u)
            duals.append((u, dual))
            nxt.append(dual)
        seen_classes += nxt
        frontier = nxt
    assert P._cosets is None and P._targets
    cosets = P.cosets()
    ids = {id(u) for u in cosets}
    assert len(ids) == len(cosets)
    assert all(id(v) in ids for row in P._targets.values() for v in row)
    assert all(id(u) in ids and id(d) in ids for u, d in duals)
    assert all(id(v) in ids for v in seen_classes)
    untouched = fresh(type_label, rank, delta_P)
    assert [u.word() for u in cosets] == [u.word() for u in untouched.cosets()]
    # rows and duals computed after enumeration are entries of the same table
    for u in cosets:
        assert all(id(v) in ids for v in P.targets(u))
        assert id(P.dual(u)) in ids


def test_cosets_of_two_quotients_never_compare_equal():
    P1, P2 = fresh("A", 2, ()), fresh("A", 2, ())
    for u1, u2 in zip(P1.cosets(), P2.cosets()):
        assert u1.min_rep == u2.min_rep
        assert u1 != u2
    assert P1.identity_coset() not in set(P2.cosets())
    with pytest.raises(ValueError, match="different parabolic data"):
        multiply_classes(QClass.basis(P1, P1.identity_coset()),
                         QClass.basis(P2, P2.identity_coset()),
                         lambda u, v: qproduct_GB(P1, u, v))


@pytest.mark.parametrize("type_label,rank,delta_P",
                         [("E", 7, ()), ("A", 15, tuple(i for i in range(15) if i != 7))],
                         ids=["E7 flag", "gr 8 16"])
def test_single_products_intern_without_enumerating(type_label, rank, delta_P):
    P = fresh(type_label, rank, delta_P)
    e = P.identity_coset()
    b = P.q_index[len(P.q_index) // 2]
    (((_d, s_b), _c),) = quantum_chevalley(P, b, e).terms.items()
    for (_d, v) in quantum_chevalley(P, b, s_b).terms:
        assert P.to_coset(from_word(P.system, v.word())) is v
    if P.grassmannian_shape():
        u = coset_of_partition(P, (8, 8, 2, 1))
        prod = qproduct_grassmann_cosets(P, u, coset_of_partition(P, (8, 3, 1)))
        assert not prod.is_zero
        assert all(P.to_coset(w.min_rep) is w for (_d, w) in prod.terms)
    assert P._cosets is None


def test_product_cosets_are_the_enumerated_ones():
    P = fresh("A", 2, ())
    cosets = P.cosets()
    ids = {id(u) for u in cosets}
    for u in cosets:
        for v in cosets:
            assert all(id(w) in ids for (_d, w) in qproduct_GB(P, u, v).terms)


def test_foreign_cosets_are_refused_by_chevalley_targets_and_bruhat_leq():
    # a coset of another quotient, of another group or of the same group,
    # must not be read as one of this quotient's
    A2 = make_parabolic("A", 2, ())
    B2 = make_parabolic("B", 2, ())
    s1s2 = B2.to_coset(from_word(B2.system, (0, 1)))
    refuse = r"Coset\[s1\*s2\] is not a coset of this A2 flag quotient"
    for chevalley in (quantum_chevalley, classical_chevalley):
        with pytest.raises(ValueError, match=refuse):
            chevalley(A2, 0, s1s2)
    with pytest.raises(ValueError, match=refuse):
        A2.targets(s1s2)
    with pytest.raises(ValueError, match=refuse):
        A2.adjacency(s1s2, A2.identity_coset())
    assert s1s2 not in A2._targets  # no row memoised under the foreign coset
    e = A2.identity_coset()
    for method, args in ((A2.dual, (s1s2,)), (A2.up_set, (s1s2,)), (A2.down_set, (s1s2,)),
                         (A2.adjacency, (e, s1s2)),
                         (A2.min_chain_degrees, (s1s2, e)), (A2.min_chain_degrees, (e, s1s2)),
                         (A2.min_chain_witnesses, (s1s2, e)),
                         (A2.min_chain_witnesses, (e, s1s2))):
        with pytest.raises(ValueError, match=refuse):
            method(*args)
    assert all(s1s2 not in memo for memo in (A2._dual, A2._up, A2._down, A2._labels))
    partial = make_parabolic("A", 2, (1,))  # A2 1
    s1 = A2.to_coset(from_word(A2.system, (0,)))
    foreign = partial.to_coset(from_word(A2.system, (0,)))
    for u, v in ((foreign, s1), (s1, foreign)):
        with pytest.raises(ValueError,
                           match=r"Coset\[s1\] is not a coset of this A2 flag quotient"):
            A2.bruhat_leq(u, v)
    twin = fresh("A", 2, ()).cosets()[1]
    with pytest.raises(ValueError, match="is not a coset of this A2 flag quotient"):
        A2.bruhat_leq(A2.identity_coset(), twin)
    with pytest.raises(ValueError, match="is not a coset of this A2 flag quotient"):
        A2.dual(twin)  # same group: the orbit point is A2's, the object is not
    assert A2.bruhat_leq(A2.identity_coset(), s1)


def test_frontier_rows_refuse_a_foreign_coset_and_keep_no_row():
    # a row is indexed by v.index, which a coset of another quotient also
    # carries (or lacks), so either coset is refused before any row is made
    A2 = fresh("A", 2, ())
    e = A2.identity_coset()
    others = (fresh("B", 2, ()).cosets()[5],  # another group
              fresh("A", 2, ()).cosets()[1],  # the same group, index 1
              fresh("A", 2, ()).identity_coset())  # never enumerated: no index
    for foreign in others:
        for args in ((foreign, e), (e, foreign)):
            with pytest.raises(ValueError, match="is not a coset of this A2 flag quotient"):
                A2.min_chain_degrees(*args)
    assert not A2._frontiers and not A2._labels
    assert A2.min_chain_degrees(e, e) == ((0, 0),)
    assert list(A2._frontiers) == [e]
    # every pair: equal frontiers are one tuple, and a second read is the first
    pairs = [(u, v) for u in A2.cosets() for v in A2.cosets()]
    got = [A2.min_chain_degrees(u, v) for u, v in pairs]
    assert all(a is b for a in got for b in got if a == b)
    assert all(A2.min_chain_degrees(u, v) is f for (u, v), f in zip(pairs, got))


def test_grassmannian_entry_points_refuse_a_foreign_coset():
    # read as a coset of gr 2 5, the gr 3 5 coset s4*s3 gave the partition
    # (2,) and a memoised product of gr 2 5 classes
    P = fresh("A", 4, (0, 2, 3))  # gr 2 5
    gr35 = grassmannian_parabolic(3, 5)
    foreign = gr35.to_coset(from_word(gr35.system, (3, 2)))
    e = P.identity_coset()
    engine = product_engine(P)
    refuse = r"Coset\[s4\*s3\] is not a coset of this A4 omit 2 quotient"
    for call, args in ((partition_of_coset, (P, foreign)),
                       (engine.product, (foreign, e)), (engine.product, (e, foreign)),
                       (qproduct_grassmann_cosets, (P, foreign, e))):
        with pytest.raises(ValueError, match=refuse):
            call(*args)
    assert not engine._products
    # on gr 2 4, a gr 2 5 coset failed the weight invariant instead
    with pytest.raises(ValueError, match=r"Coset\[s2\] is not a coset of this A3 omit 2"):
        partition_of_coset(grassmannian_parabolic(2, 4), coset_of_partition(P, (1,)))


@pytest.mark.parametrize("tokens", checks.DEFAULT_SUITE + (("B3", "2"),), ids=" ".join)
def test_index_is_the_position_in_cosets(tokens):
    cosets = checks.build_instance(tokens)[1].cosets()
    assert [u.index for u in cosets] == list(range(len(cosets)))


def test_index_is_set_when_cosets_runs():
    P = fresh("A", 3, ())
    e = P.identity_coset()
    u = P.targets(e)[-1]  # reached through a row, before any enumeration
    assert e.index is None and u.index is None
    cosets = P.cosets()
    assert cosets[e.index] is e and cosets[u.index] is u


def test_divisor_engine_reads_the_coset_index():
    engine = DivisorEngine(fresh("A", 3, ()))
    assert all(engine.cosets[u.index] is u for u in engine.cosets)
