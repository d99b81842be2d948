"""Words, lengths and sizes read off rho and root heights, against the
matrix code they replaced.

Test-local copies of the former code stand beside the new one: the
canonical word by a matrix walk (one r x r product per stripped right
descent), the length as the number of positive roots sent to negatives,
the longest element built greedily, and the per-type table of group
orders.  The words and lengths must agree on every element of W for
A1-A4, B2-B4, C2-C3, D4, G2 and F4; the longest element and |W| on every
type up to rank 8; and len(P.cosets()) == P.size on every quotient of
rank at most 4 and on the partial flags of D5.
"""

from itertools import combinations
from math import factorial

import pytest

from qschub.parabolic import ParabolicData
from qschub.roots import InvariantError, build_root_system
from qschub.weyl import (
    WeylElem,
    enumerate_parabolic_subgroup,
    identity,
    longest_element,
    order_from_heights,
    simple_reflection,
    weyl_group_order,
)

GROUP_ORDER = {
    "A": lambda r: factorial(r + 1),
    "B": lambda r: 2**r * factorial(r),
    "C": lambda r: 2**r * factorial(r),
    "D": lambda r: 2 ** (r - 1) * factorial(r),
    "E": lambda r: {6: 51840, 7: 2903040, 8: 696729600}[r],
    "F": lambda r: 1152,
    "G": lambda r: 12,
}

ELEMENT_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                 ("B", 4), ("C", 2), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]

TYPES_TO_RANK_8 = (
    [("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(2, 9)] + [("D", r) for r in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)

QUOTIENT_TYPES = [(t, r) for t, r in TYPES_TO_RANK_8 if r <= 4]


def matrix_word(w):
    """The former word(): strip the smallest right descent by a matrix product."""
    rev = []
    while (i := w.first_right_descent()) is not None:
        rev.append(i)
        w = w * simple_reflection(w.system, i)
    return tuple(reversed(rev))


def inversion_count(w):
    """The former length: positive roots sent to negative roots."""
    return sum(
        any(sum(row[j] * a.coeffs[j] for j in range(len(row))) < 0 for row in w.mat)
        for a in w.system.positive_roots
    )


def greedy_longest(system):
    """The former longest_element: append any non-descent until l = |R+|."""
    w = identity(system)
    while inversion_count(w) < len(system.positive_roots):
        i = next(i for i in range(system.rank) if not w.is_right_descent(i))
        w = w * simple_reflection(system, i)
    return w


def all_matrices(system):
    """Every element of W by a BFS on matrices, with no word or length read."""
    gens = [simple_reflection(system, i) for i in range(system.rank)]
    seen = {identity(system).mat}
    level = list(seen)
    while level:
        level = [m for m in {(WeylElem(system, a) * s).mat for a in level for s in gens}
                 if m not in seen]
        seen.update(level)
    return seen


@pytest.mark.parametrize("type_label,rank", ELEMENT_TYPES)
def test_word_and_length_match_the_matrix_walk(type_label, rank):
    system = build_root_system(type_label, rank)
    mats = all_matrices(system)
    assert len(mats) == GROUP_ORDER[type_label](rank)
    for m in mats:
        old = WeylElem(system, m)
        word = matrix_word(old)
        assert WeylElem(system, m).word() == word
        assert WeylElem(system, m).length == inversion_count(old) == len(word)
    # the enumeration's (length, word) order is the old one too
    elements = enumerate_parabolic_subgroup(system, range(rank), max_elements=len(mats))
    assert [w.sort_key() for w in elements] == sorted(
        (inversion_count(w), matrix_word(w)) for w in elements)


@pytest.mark.parametrize("type_label,rank", TYPES_TO_RANK_8)
def test_longest_element_and_order_match_the_old_code(type_label, rank):
    system = build_root_system(type_label, rank)
    w_o = longest_element(system)
    assert w_o == greedy_longest(system)
    assert w_o.length == len(system.positive_roots) == len(w_o.word())
    assert w_o.word() == matrix_word(WeylElem(system, w_o.mat))
    assert weyl_group_order(system) == GROUP_ORDER[type_label](rank)


def quotients(rank):
    """Every proper Delta_P, the full flag () first."""
    return [d for k in range(rank) for d in combinations(range(rank), k)]


@pytest.mark.parametrize("type_label,rank", QUOTIENT_TYPES)
def test_quotient_size_matches_the_enumeration(type_label, rank):
    system = build_root_system(type_label, rank)
    for delta_P in quotients(rank):
        P = ParabolicData(system, delta_P)
        assert len(P.cosets()) == P.size


def test_d5_partial_flag_sizes_match_the_enumeration():
    system = build_root_system("D", 5)
    for delta_P in quotients(5)[1:]:  # every quotient but the full flag
        P = ParabolicData(system, delta_P)
        assert len(P.cosets()) == P.size


def test_word_refuses_a_non_integral_coroot_height():
    # B2 has symmetrizer (2, 1): column (1, 1) gives coroot height 3/2
    system = build_root_system("B", 2)
    with pytest.raises(InvariantError):
        WeylElem(system, ((1, 0), (1, 1))).word()


def test_height_product_refuses_a_remainder():
    # one root of height 2 alone gives 3/2
    system = build_root_system("B", 2)
    assert order_from_heights(system.positive_roots) == 8
    with pytest.raises(InvariantError):
        order_from_heights([a for a in system.positive_roots if a.height == 2])
