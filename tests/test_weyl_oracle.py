"""Weyl elements as xi = w^-1 rho, against the matrix code they replaced.

`MatrixElem`, a test-local copy of the former element, is the matrix of
w in the simple-root basis, with the former word (strip the smallest
right descent by one r x r product per letter), length (positive roots
sent to negatives), product, inverse, action on roots, Bruhat walk,
reflections and longest element (built greedily).  Its xi is read off its
columns.  On every element of A1-A4, B2-B4, C2-C3, D4, G2 and F4 the
library's word and length must match; on every element of A1-A4, B2-B3,
C2-C3, D4 and G2, and on seeded samples of B4 and F4, so must equality,
hashing, the inverse and the action on roots, and on all pairs where
|W| <= 48, seeded pairs elsewhere, the product and Bruhat order.  The
reflections, the parabolic subgroups' (length, word) order and the
longest element are checked on the same groups, the longest element and
|W| on every type up to rank 8, and len(P.cosets()) == P.size on every
quotient of rank at most 4 and on the partial flags of D5.
"""

import random
from itertools import combinations
from math import factorial
from operator import mul

import pytest

from qschub.parabolic import ParabolicData
from qschub.roots import InvariantError, build_root_system
from qschub.weyl import (
    WeylElem,
    bruhat_leq_W,
    enumerate_parabolic_subgroup,
    from_word,
    longest_element,
    order_from_heights,
    reflection_of_root,
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
SAMPLED_TYPES = [("B", 4), ("F", 4)]  # seeded samples of elements, not all of W
ALL_PAIRS_ORDER = 48  # all pairs up to this |W|, seeded pairs above
SAMPLED_ELEMENTS = 200
SAMPLED_PAIRS = 1500

TYPES_TO_RANK_8 = (
    [("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(2, 9)] + [("D", r) for r in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)

QUOTIENT_TYPES = [(t, r) for t, r in TYPES_TO_RANK_8 if r <= 4]


def _mat_mul(a, b):
    cols_b = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, ra, cb)) for cb in cols_b) for ra in a)


class MatrixElem:
    """The former WeylElem: the matrix of w on the simple roots, column j
    being w(b_j), compared and hashed by the matrix."""

    def __init__(self, system, mat):
        self.system, self.mat = system, mat

    @classmethod
    def identity(cls, system):
        rank = range(system.rank)
        return cls(system, tuple(tuple(int(i == j) for j in rank) for i in rank))

    @classmethod
    def simple(cls, system, i):
        """s_i(b_j) = b_j - c_ij b_i."""
        rank = range(system.rank)
        return cls(system, tuple(
            tuple(int(r == j) - (system.cartan[i][j] if r == i else 0) for j in rank)
            for r in rank))

    @classmethod
    def reflection(cls, system, alpha):
        """s_alpha(b_j) = b_j - <b_j, alpha^vee> alpha."""
        cols = []
        for j, row in enumerate(system.gram):
            t, rem = divmod(2 * sum(map(mul, row, alpha.coeffs)), alpha.norm)
            assert not rem
            cols.append(tuple(int(r == j) - t * a for r, a in enumerate(alpha.coeffs)))
        return cls(system, tuple(zip(*cols)))

    @classmethod
    def from_word(cls, system, word):
        w = cls.identity(system)
        for i in word:
            w = w * cls.simple(system, i)
        return w

    def __mul__(self, other):
        return MatrixElem(self.system, _mat_mul(self.mat, other.mat))

    def __eq__(self, other):
        return isinstance(other, MatrixElem) and self.mat == other.mat

    def __hash__(self):
        return hash(self.mat)

    def apply_root(self, alpha):
        return self.system.root(tuple(sum(map(mul, row, alpha.coeffs)) for row in self.mat))

    def is_right_descent(self, i):
        return any(row[i] < 0 for row in self.mat)

    def first_right_descent(self):
        return next((i for i in range(self.system.rank) if self.is_right_descent(i)), None)

    def word(self):
        """Strip the smallest right descent by a matrix product."""
        rev, w = [], self
        while (i := w.first_right_descent()) is not None:
            rev.append(i)
            w = w * MatrixElem.simple(w.system, i)
        return tuple(reversed(rev))

    @property
    def length(self):
        """Positive roots sent to negative roots."""
        return sum(any(c < 0 for c in self.apply_root(a).coeffs)
                   for a in self.system.positive_roots)

    def inverse(self):
        return MatrixElem.from_word(self.system, reversed(self.word()))

    def xi(self):
        """w^-1 rho: xi_j = sum_k M[k][j] d_k / d_j is the coroot height of
        w(b_j), d being the symmetrizer."""
        d = self.system.symmetrizer
        xi = []
        for dj, col in zip(d, zip(*self.mat)):
            x, rem = divmod(sum(map(mul, col, d)), dj)
            if rem:
                raise InvariantError(f"non-integral coroot height in {self.mat}")
            xi.append(x)
        return tuple(xi)

    def bruhat_leq(self, other):
        """The former lifting walk: strip v's smallest right descent, and
        u's too when u shares it."""
        u, v, lu, lv = self, other, self.length, other.length
        while 0 < lu <= lv:
            i = v.first_right_descent()
            s = MatrixElem.simple(self.system, i)
            v, lv = v * s, lv - 1
            if u.is_right_descent(i):
                u, lu = u * s, lu - 1
        return lu == 0


def as_xi(m):
    """The library's element with m's xi."""
    return WeylElem(m.system, m.xi())


def greedy_longest(system):
    """The former longest_element: append any non-descent until l = |R+|."""
    w = MatrixElem.identity(system)
    while w.length < len(system.positive_roots):
        i = next(i for i in range(system.rank) if not w.is_right_descent(i))
        w = w * MatrixElem.simple(system, i)
    return w


def all_matrices(system, indices=None):
    """Every element of W (or of W_P for the given nodes) by a BFS on
    matrices, with no word or length read."""
    nodes = range(system.rank) if indices is None else indices
    gens = [MatrixElem.simple(system, i) for i in nodes]
    seen = {MatrixElem.identity(system)}
    level = list(seen)
    while level:
        level = [m for m in {a * s for a in level for s in gens} if m not in seen]
        seen.update(level)
    return seen


def sample(type_label, rank, mats):
    """All of mats, or a seeded sample on the sampled types; and the pairs."""
    mats = sorted(mats, key=lambda m: m.mat)
    rng = random.Random(f"weyl-oracle|{type_label}{rank}")
    if (type_label, rank) in SAMPLED_TYPES:
        mats = rng.sample(mats, SAMPLED_ELEMENTS)
    if len(mats) <= ALL_PAIRS_ORDER:
        return mats, [(a, b) for a in mats for b in mats]
    return mats, [(rng.choice(mats), rng.choice(mats)) for _ in range(SAMPLED_PAIRS)]


@pytest.mark.parametrize("type_label,rank", ELEMENT_TYPES)
def test_word_and_length_match_the_matrix_walk(type_label, rank):
    system = build_root_system(type_label, rank)
    mats = all_matrices(system)
    assert len(mats) == GROUP_ORDER[type_label](rank)
    for m in mats:
        word = m.word()
        assert as_xi(m).word() == word
        assert as_xi(m).length == m.length == len(word)
    # the enumeration's (length, word) order is the old one too
    elements = enumerate_parabolic_subgroup(system, range(rank), max_elements=len(mats))
    assert [w.xi for w in elements] == [
        m.xi() for m in sorted(mats, key=lambda m: (m.length, m.word()))]


@pytest.mark.parametrize("type_label,rank", ELEMENT_TYPES)
def test_xi_elements_match_the_matrix_oracle(type_label, rank):
    system = build_root_system(type_label, rank)
    mats, pairs = sample(type_label, rank, all_matrices(system))
    roots = system.positive_roots + tuple(-a for a in system.positive_roots)
    # ==/hash: xi is injective, and the word rebuilds the same xi
    assert len({as_xi(m) for m in mats}) == len(mats)
    for m in mats:
        w = as_xi(m)
        assert w == from_word(system, m.word()) == WeylElem(system, tuple(list(w.xi)))
        assert hash(w) == hash(from_word(system, m.word()))
        assert w.inverse() == as_xi(m.inverse())
        assert [w.apply_root(a) for a in roots] == [m.apply_root(a) for a in roots]
    for a, b in pairs:
        assert as_xi(a) * as_xi(b) == as_xi(a * b)
        assert bruhat_leq_W(as_xi(a), as_xi(b)) == a.bruhat_leq(b), (a.word(), b.word())
    for alpha in system.positive_roots:
        assert reflection_of_root(system, alpha) == as_xi(MatrixElem.reflection(system, alpha))
    assert longest_element(system) == as_xi(greedy_longest(system))


@pytest.mark.parametrize("type_label,rank", [t for t in ELEMENT_TYPES if t not in SAMPLED_TYPES])
def test_parabolic_subgroup_order_matches_the_matrix_bfs(type_label, rank):
    system = build_root_system(type_label, rank)
    for k in range(rank):
        for nodes in combinations(range(rank), k):
            mats = sorted(all_matrices(system, nodes), key=lambda m: (m.length, m.word()))
            got = enumerate_parabolic_subgroup(system, nodes)
            assert [w.xi for w in got] == [m.xi() for m in mats]
            assert [w.sort_key() for w in got] == [(m.length, m.word()) for m in mats]


@pytest.mark.parametrize("type_label,rank", TYPES_TO_RANK_8)
def test_longest_element_and_order_match_the_old_code(type_label, rank):
    system = build_root_system(type_label, rank)
    w_o = longest_element(system)
    greedy = greedy_longest(system)
    assert w_o == as_xi(greedy)
    assert w_o.length == len(system.positive_roots) == len(w_o.word())
    assert w_o.word() == greedy.word()
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
    # only a matrix can carry this: B2 has symmetrizer (2, 1), and column
    # (1, 1) gives coroot height 3/2, so the oracle's xi refuses it
    system = build_root_system("B", 2)
    with pytest.raises(InvariantError):
        MatrixElem(system, ((1, 0), (1, 1))).xi()


def test_height_product_refuses_a_remainder():
    # one root of height 2 alone gives 3/2
    system = build_root_system("B", 2)
    assert order_from_heights(system.positive_roots) == 8
    with pytest.raises(InvariantError):
        order_from_heights([a for a in system.positive_roots if a.height == 2])
