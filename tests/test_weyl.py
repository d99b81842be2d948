"""Weyl group elements, length, longest element, and Bruhat order.

The Bruhat order implementation is cross-checked against a brute-force
subword oracle: u <= v iff u arises from some subword of a reduced word
of v.  The oracle only needs ONE reduced word per v (subword property).
"""

import time

import pytest
from hypothesis import given, settings, strategies as st

from qschub.roots import build_root_system
from qschub.weyl import (
    DEFAULT_ENUMERATION_GUARD,
    GroupSizeGuardError,
    bruhat_leq_W,
    enumerate_parabolic_subgroup,
    format_word,
    from_word,
    identity,
    longest_element,
    parse_word,
    reflection_of_root,
    simple_reflection,
    weyl_group_order,
)

GROUP_ORDERS = {
    ("A", 1): 2,
    ("A", 2): 6,
    ("A", 3): 24,
    ("A", 4): 120,
    ("B", 2): 8,
    ("B", 3): 48,
    ("C", 3): 48,
    ("D", 4): 192,
    ("G", 2): 12,
}

BRUHAT_ORACLE_TYPES = [("A", 2), ("B", 2), ("A", 3), ("G", 2), ("B", 3), ("A", 4)]


def elements(rs, max_elements=DEFAULT_ENUMERATION_GUARD):
    """The whole Weyl group, as the parabolic subgroup on every node."""
    return enumerate_parabolic_subgroup(rs, range(rs.rank), max_elements)


def subword_reachable(v) -> set:
    """All elements representable by subwords of v's canonical reduced word."""
    system = v.system
    reach = {identity(system)}
    for i in v.word():
        s = simple_reflection(system, i)
        reach |= {x * s for x in reach}
    return reach


@pytest.mark.parametrize("type_label,rank", sorted(GROUP_ORDERS))
def test_group_order(type_label, rank):
    rs = build_root_system(type_label, rank)
    assert len(elements(rs)) == GROUP_ORDERS[(type_label, rank)] == weyl_group_order(rs)


@pytest.mark.parametrize("type_label,rank", [("A", 2), ("A", 3), ("B", 2), ("G", 2)])
def test_longest_element(type_label, rank):
    rs = build_root_system(type_label, rank)
    wo = longest_element(rs)
    assert wo.length == len(rs.positive_roots)
    assert wo * wo == identity(rs)
    # w_o is the unique element of maximal length
    elems = elements(rs)
    assert max(w.length for w in elems) == wo.length
    assert sum(1 for w in elems if w.length == wo.length) == 1


def test_compose_identity_and_involution():
    rs = build_root_system("A", 2)
    e = identity(rs)
    s1 = simple_reflection(rs, 0)
    s2 = simple_reflection(rs, 1)
    assert e * s1 == s1
    assert s1 * e == s1
    assert s1 * s1 == e
    assert (s1 * s2).length == 2


def test_compose_rejects_mixed_systems():
    a = identity(build_root_system("A", 2))
    b = identity(build_root_system("B", 2))
    with pytest.raises(ValueError):
        a * b
    a3 = simple_reflection(build_root_system("A", 3), 0)
    with pytest.raises(ValueError, match="^cannot compose elements of A2 and A3$") as err:
        a * a3
    assert err.type is ValueError


def test_bruhat_comparison_refuses_mixed_systems():
    a2 = simple_reflection(build_root_system("A", 2), 0)
    a3 = simple_reflection(build_root_system("A", 3), 0)
    with pytest.raises(ValueError,
                       match="^Bruhat comparison across different systems$") as err:
        bruhat_leq_W(a2, a3)
    assert err.type is ValueError


def test_length_examples():
    rs = build_root_system("A", 2)
    assert identity(rs).length == 0
    assert longest_element(rs).length == 3
    # reflection in the highest root of A2 has reduced word s1*s2*s1
    t = reflection_of_root(rs, rs.highest_root)
    assert t.length == 3
    assert t.word() in ((0, 1, 0), (1, 0, 1))


def test_highest_root_reflection_a3():
    rs = build_root_system("A", 3)
    t = reflection_of_root(rs, rs.highest_root)
    assert t.length == 5  # 2*height - 1 in type A


def test_reflection_of_root_properties():
    rs = build_root_system("B", 2)
    for alpha in rs.positive_roots:
        t = reflection_of_root(rs, alpha)
        assert t * t == identity(rs)
        assert t.apply_root(alpha).coeffs == tuple(-c for c in alpha.coeffs)
    for i, beta in enumerate(rs.simple_roots):
        assert reflection_of_root(rs, beta) == simple_reflection(rs, i)
        assert reflection_of_root(rs, beta).length == 1


def test_reflection_of_root_rejects_negative():
    rs = build_root_system("A", 2)
    neg = rs.root((-1, 0))
    with pytest.raises(ValueError):
        reflection_of_root(rs, neg)


@pytest.mark.parametrize("index", [-1, 2])
def test_out_of_range_indices_raise(index):
    # an element is its vector xi, where a raw xi[-1] would read node 2
    rs = build_root_system("A", 2)
    for call in (lambda: simple_reflection(rs, index),
                 lambda: from_word(rs, (0, index)),
                 lambda: enumerate_parabolic_subgroup(rs, (index,)),
                 lambda: identity(rs).is_right_descent(index)):
        with pytest.raises(ValueError, match=f"simple root index {index} out of range for A2"):
            call()


def test_word_round_trip():
    rs = build_root_system("A", 3)
    for w in elements(rs):
        assert from_word(rs, w.word()) == w
        assert len(w.word()) == w.length
        assert parse_word(rs, format_word(w.word())) == w


def test_parse_word_examples():
    rs = build_root_system("A", 2)
    assert parse_word(rs, "e") == identity(rs)
    assert parse_word(rs, "s1") == simple_reflection(rs, 0)
    assert parse_word(rs, "s1*s2*s1") == reflection_of_root(rs, rs.highest_root)
    with pytest.raises(ValueError):
        parse_word(rs, "s3")
    with pytest.raises(ValueError):
        parse_word(rs, "x1")


def test_word_is_reduced_canonical():
    # the canonical word re-evaluates to the element and is minimal-length
    rs = build_root_system("B", 2)
    for w in elements(rs):
        word = w.word()
        assert from_word(rs, word) == w
        assert len(word) == w.length


def test_matrix_action_is_homomorphism():
    rs = build_root_system("A", 3)
    elems = elements(rs)
    for a in elems[:8]:
        for b in elems[:8]:
            ab = a * b
            for alpha in rs.simple_roots:
                assert ab.apply_root(alpha) == a.apply_root(b.apply_root(alpha))


@pytest.mark.parametrize("type_label,rank", BRUHAT_ORACLE_TYPES)
def test_bruhat_matches_subword_oracle(type_label, rank):
    rs = build_root_system(type_label, rank)
    elems = elements(rs)
    for v in elems:
        reach = subword_reachable(v)
        for u in elems:
            assert bruhat_leq_W(u, v) == (u in reach), (u.word(), v.word())


def test_bruhat_boundary_cases():
    rs = build_root_system("A", 2)
    e = identity(rs)
    for w in elements(rs):
        assert bruhat_leq_W(e, w)
        if w != e:
            assert not bruhat_leq_W(w, e)
    s1 = simple_reflection(rs, 0)
    s2 = simple_reflection(rs, 1)
    assert bruhat_leq_W(s1, s1 * s2)
    assert bruhat_leq_W(s2, s1 * s2)
    assert not bruhat_leq_W(s1 * s2, s2 * s1)


@pytest.mark.parametrize("type_label,rank", [("A", 2), ("A", 3), ("B", 2), ("G", 2)])
def test_length_parity_and_longest_complement(type_label, rank):
    rs = build_root_system(type_label, rank)
    wo = longest_element(rs)
    for w in elements(rs):
        for i in range(rs.rank):
            assert abs((w * simple_reflection(rs, i)).length - w.length) == 1
        assert (wo * w).length == wo.length - w.length


@pytest.mark.parametrize("type_label,rank", [("A", 3), ("B", 2)])
def test_bruhat_is_partial_order_refining_length(type_label, rank):
    rs = build_root_system(type_label, rank)
    elems = elements(rs)
    for u in elems:
        assert bruhat_leq_W(u, u)
        for v in elems:
            if bruhat_leq_W(u, v) and u != v:
                assert u.length < v.length
                assert not bruhat_leq_W(v, u)


def test_bruhat_duality_antiautomorphism():
    rs = build_root_system("B", 2)
    wo = longest_element(rs)
    elems = elements(rs)
    for u in elems:
        for v in elems:
            assert bruhat_leq_W(u, v) == bruhat_leq_W(wo * v, wo * u)


def test_enumeration_guard():
    rs = build_root_system("A", 3)
    # the message names the size asked for
    with pytest.raises(GroupSizeGuardError,
                       match=r"^W_P\(A3; 1,2,3\) \(\|W_P\| = 24\) exceeds the enumeration"):
        elements(rs, max_elements=10)
    # exactly at the bound is fine
    assert len(elements(rs, max_elements=24)) == 24


def test_guard_refuses_huge_groups_without_enumerating():
    # |W(B9)| is ~1.9e8; the closed-form order check must refuse at once
    # instead of grinding through max_elements worth of matrix products.
    rs = build_root_system("B", 9)
    t0 = time.monotonic()
    with pytest.raises(GroupSizeGuardError):
        elements(rs)
    assert time.monotonic() - t0 < 5.0


def test_parabolic_subgroup_enumeration():
    rs = build_root_system("A", 3)
    sub = enumerate_parabolic_subgroup(rs, (0, 2))
    assert len(sub) == 4  # s1 and s3 commute
    assert len(enumerate_parabolic_subgroup(rs, ())) == 1
    assert len(enumerate_parabolic_subgroup(rs, (0, 1, 2))) == 24


@given(st.lists(st.integers(min_value=0, max_value=2), max_size=12))
def test_word_length_bound(indices):
    rs = build_root_system("A", 3)
    w = from_word(rs, indices)
    assert w.length <= len(indices)
    assert (w.length - len(indices)) % 2 == 0  # parity is preserved


@settings(max_examples=60)
@given(
    st.lists(st.integers(min_value=0, max_value=2), max_size=10),
    st.lists(st.integers(min_value=0, max_value=2), max_size=10),
)
def test_inverse_and_length_symmetry(w1, w2):
    rs = build_root_system("A", 3)
    a = from_word(rs, w1)
    b = from_word(rs, w2)
    assert (a * b).inverse() == b.inverse() * a.inverse()
    assert a.inverse().length == a.length
    assert a * a.inverse() == identity(rs) == a.inverse() * a
