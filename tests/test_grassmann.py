"""Grassmannian oracles: partition dictionary, LR rule, rim-hook reduction.

classical_lr is cross-checked against an independent oracle that builds
skew semistandard tableaux cell by cell and tests the reverse-reading-word
lattice condition directly — a different algorithm shape than the
horizontal-strip recursion under test.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from qschub import grassmann as G
from qschub.grassmann import (
    beta_set,
    classical_lr,
    coset_of_partition,
    dual_partition,
    format_partition,
    grassmannian_parabolic,
    min_degree_diagonal,
    monotone_chain_exists,
    normalize_partition,
    parse_partition,
    partition_from_beta,
    partition_in_box,
    partition_of_coset,
    partitions_in_box,
    qproduct_grassmann,
    qproduct_grassmann_cosets,
    reduce_mod_hooks,
    rimhook_adjacent,
)

# ---------------------------------------------------------------------------
# independent LR oracle


def lr_tableau_count(nu, lam, mu):
    """Count LR skew tableaux of shape nu/lam with content mu.

    Deliberately naive: enumerate every semistandard filling, then check
    the lattice condition on the explicit reverse reading word.
    """
    rows = len(nu)
    lam = tuple(lam) + (0,) * (rows - len(lam))
    if any(l > n for l, n in zip(lam, nu)):
        return 0
    cells = [(r, c) for r in range(rows) for c in range(lam[r], nu[r])]
    if len(cells) != sum(mu):
        return 0
    m = len(mu)

    count = 0
    filling = {}

    def ok(r, c, x):
        if c - 1 >= lam[r] and (r, c - 1) in filling and filling[(r, c - 1)] > x:
            return False  # rows weakly increase
        if r > 0 and (r - 1, c) in filling and filling[(r - 1, c)] >= x:
            return False  # columns strictly increase
        return True

    def lattice_word_ok():
        counts = [0] * (m + 1)
        for r in range(rows):
            for c in range(nu[r] - 1, lam[r] - 1, -1):
                x = filling[(r, c)]
                counts[x] += 1
                if x > 1 and counts[x] > counts[x - 1]:
                    return False
        return True

    def rec(idx, counts):
        nonlocal count
        if idx == len(cells):
            if tuple(counts) == tuple(mu) and lattice_word_ok():
                count += 1
            return
        r, c = cells[idx]
        for x in range(m):
            if counts[x] >= mu[x]:
                continue
            if not ok(r, c, x + 1):
                continue
            counts[x] += 1
            filling[(r, c)] = x + 1
            rec(idx + 1, counts)
            del filling[(r, c)]
            counts[x] -= 1

    rec(0, [0] * m)
    return count


def candidate_shapes(lam, mu, k):
    """All partitions of |lam|+|mu| with at most k rows (width capped)."""
    total = sum(lam) + sum(mu)
    width = (lam[0] if lam else 0) + sum(mu)
    shapes = set()

    def rec(prefix, remaining, maxpart):
        if remaining == 0:
            shapes.add(tuple(prefix))
            return
        if len(prefix) == k:
            return
        for part in range(min(maxpart, remaining), 0, -1):
            rec(prefix + [part], remaining - part, part)

    rec([], total, width)
    return shapes


@pytest.mark.parametrize(
    "lam,mu,k",
    [((1,), (1,), 2), ((2, 1), (2, 1), 2), ((2, 2), (2, 1), 2), ((2, 1), (2, 1), 3),
     ((2,), (1, 1), 3), ((3, 1), (2, 1), 3), ((2, 2, 1), (2, 1), 3)],
)
def test_classical_lr_against_tableau_oracle(lam, mu, k):
    got = classical_lr(lam, mu, k)
    for nu in candidate_shapes(lam, mu, k):
        expected = lr_tableau_count(nu, lam, mu)
        assert got.get(nu, 0) == expected, nu
    # and nothing outside the candidate set
    assert set(got) <= candidate_shapes(lam, mu, k)


def test_classical_lr_frozen_values():
    assert classical_lr((1,), (1,), 2) == {(2,): 1, (1, 1): 1}
    assert classical_lr((2, 1), (2, 1), 3) == {
        (4, 2): 1,
        (4, 1, 1): 1,
        (3, 3): 1,
        (3, 2, 1): 2,
        (2, 2, 2): 1,
    }
    assert classical_lr((2, 1), (2, 1), 3)[(3, 2, 1)] == 2
    assert classical_lr((), (2, 1), 5) == {(2, 1): 1}
    assert classical_lr((2, 1), (), 5) == {(2, 1): 1}


def test_classical_lr_symmetric():
    box = list(partitions_in_box(2, 5))
    for lam in box:
        for mu in box:
            assert classical_lr(lam, mu, 3) == classical_lr(mu, lam, 3)


def test_classical_lr_grading():
    for lam in partitions_in_box(2, 4):
        for mu in partitions_in_box(2, 4):
            for nu, c in classical_lr(lam, mu, 2).items():
                assert c > 0
                assert sum(nu) == sum(lam) + sum(mu)


# ---------------------------------------------------------------------------
# partition plumbing


def test_parse_and_format_partition():
    assert parse_partition("5,4,4,3") == (5, 4, 4, 3)
    assert parse_partition("5443") == (5, 4, 4, 3)
    assert parse_partition("0") == ()
    assert parse_partition("21") == (2, 1)
    assert format_partition((5, 3, 2, 2)) == "5322"
    assert format_partition(()) == "0"
    assert format_partition((12, 3)) == "12,3"
    with pytest.raises(ValueError):
        parse_partition("1,2")  # not weakly decreasing
    with pytest.raises(ValueError):
        parse_partition("")


@pytest.mark.parametrize("k,width", [(1, 15), (2, 11), (3, 10)])
def test_partition_labels_parse_back(k, width):
    for lam in partitions_in_box(k, k + width):
        assert parse_partition(format_partition(lam)) == lam


def test_single_parts_of_ten_or_more_keep_a_comma():
    assert format_partition((10,)) == "10,"
    assert format_partition((11, 3)) == "11,3"
    assert parse_partition("10,") == (10,)
    assert parse_partition("5,4,") == (5, 4)
    for text in ("10", "50", "5403"):  # digit spellings hold no 0 ...
        with pytest.raises(ValueError):
            parse_partition(text)
    assert parse_partition("11") == (1, 1)  # ... and one part per digit


def test_normalize_partition():
    assert normalize_partition((3, 2, 0, 0)) == (3, 2)
    assert normalize_partition([]) == ()
    with pytest.raises(ValueError):
        normalize_partition((1, 2))
    with pytest.raises(ValueError):
        normalize_partition((2, -1))


def test_partitions_in_box_counts():
    from math import comb

    for k, n in ((2, 4), (2, 5), (3, 6), (4, 9)):
        box = list(partitions_in_box(k, n))
        assert len(box) == comb(n, k)
        assert len(set(box)) == len(box)
        for lam in box:
            assert partition_in_box(k, n, lam)


def test_dual_partition_examples():
    assert dual_partition(2, 4, (1,)) == (2, 1)
    assert dual_partition(2, 4, ()) == (2, 2)
    assert dual_partition(2, 4, (2, 2)) == ()
    assert dual_partition(4, 9, (5, 4, 4, 3)) == (2, 1, 1)
    for lam in partitions_in_box(3, 6):
        assert dual_partition(3, 6, dual_partition(3, 6, lam)) == lam
        assert sum(dual_partition(3, 6, lam)) == 9 - sum(lam)


def test_beta_set_round_trip():
    for k, n in ((2, 4), (3, 6)):
        for lam in partitions_in_box(k, n):
            b = beta_set(lam, k)
            assert len(b) == k
            assert partition_from_beta(b, k) == lam


# ---------------------------------------------------------------------------
# coset dictionary


@pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (3, 6)])
def test_partition_coset_bijection(k, n):
    P = grassmannian_parabolic(k, n)
    cosets = P.cosets()
    seen = set()
    for u in cosets:
        lam = partition_of_coset(P, u)
        assert partition_in_box(k, n, lam)
        assert sum(lam) == u.length
        assert coset_of_partition(P, lam) == u
        seen.add(lam)
    assert seen == set(partitions_in_box(k, n))


def test_identity_coset_is_empty_partition():
    P = grassmannian_parabolic(2, 4)
    assert partition_of_coset(P, P.identity_coset()) == ()


def test_dual_coset_matches_dual_partition():
    for k, n in ((2, 4), (2, 5), (3, 6)):
        P = grassmannian_parabolic(k, n)
        for u in P.cosets():
            lam = partition_of_coset(P, u)
            assert partition_of_coset(P, P.dual(u)) == dual_partition(k, n, lam)


def test_bruhat_is_containment():
    P = grassmannian_parabolic(2, 5)
    for u in P.cosets():
        lu = partition_of_coset(P, u)
        for v in P.cosets():
            lv = partition_of_coset(P, v)
            padded_u = lu + (0,) * (2 - len(lu))
            padded_v = lv + (0,) * (2 - len(lv))
            contained = all(a <= b for a, b in zip(padded_u, padded_v))
            assert P.bruhat_leq(u, v) == contained


def test_adjacency_is_rimhook_and_degree_one():
    for k, n in ((2, 4), (2, 5)):
        P = grassmannian_parabolic(k, n)
        for u in P.cosets():
            for v in P.cosets():
                if u == v:
                    continue
                lu, lv = partition_of_coset(P, u), partition_of_coset(P, v)
                edge = P.adjacency(u, v)
                assert (edge is not None) == rimhook_adjacent(lu, lv, k)
                if edge is not None:
                    assert P.degree_of_root(edge[0]) == (1,)


def test_rimhook_adjacent_examples():
    assert rimhook_adjacent((1,), (), 2)
    assert rimhook_adjacent((2, 1), (), 2)  # a connected 3-cell border strip
    assert not rimhook_adjacent((2, 2), (), 2)  # contains a 2x2 block
    assert rimhook_adjacent((2, 2), (1,), 2)
    assert not rimhook_adjacent((2, 2), (2, 2), 2)
    assert rimhook_adjacent((3, 1), (3,), 2)
    assert not rimhook_adjacent((2,), (1, 1), 2)  # incomparable


# ---------------------------------------------------------------------------
# rim-hook reduction


def test_reduce_mod_hooks_frozen():
    assert reduce_mod_hooks((2, 1), 2, 4) == (0, 1, (2, 1))  # already in box
    assert reduce_mod_hooks((3, 3), 2, 4) == (1, 1, (2,))
    assert reduce_mod_hooks((4, 2), 2, 4) == (1, 1, (1, 1))
    assert reduce_mod_hooks((3, 1), 2, 4) == (1, 1, ())
    assert reduce_mod_hooks((4, 4), 2, 4) == (2, 1, ())
    assert reduce_mod_hooks((4, 1), 2, 4) is None  # stuck: vanishes


def test_reduce_mod_hooks_in_box_fixed():
    for k, n in ((2, 4), (3, 6)):
        for lam in partitions_in_box(k, n):
            assert reduce_mod_hooks(lam, k, n) == (0, 1, lam)


def test_reduce_mod_hooks_result_fits_box():
    for width in range(3, 8):
        for second in range(0, min(width, 3) + 1):
            nu = (width, second) if second else (width,)
            out = reduce_mod_hooks(nu, 2, 4)
            if out is not None:
                hooks, sign, lam = out
                assert sign in (1, -1)
                assert partition_in_box(2, 4, lam)
                assert sum(nu) == sum(lam) + 4 * hooks


# ---------------------------------------------------------------------------
# quantum product oracle


GR24_PRODUCTS = {
    ((1,), (1,)): {(0, (2,)): 1, (0, (1, 1)): 1},
    ((2,), (1, 1)): {(1, ()): 1},
    ((2,), (2,)): {(0, (2, 2)): 1},
    ((2, 1), (2, 1)): {(1, (2,)): 1, (1, (1, 1)): 1},
    ((2, 2), (2, 2)): {(2, ()): 1},
    ((1,), (2, 1)): {(0, (2, 2)): 1, (1, ()): 1},
    ((1,), (2, 2)): {(1, (1,)): 1},
}


def test_qproduct_gr24_frozen():
    for (lam, mu), expected in GR24_PRODUCTS.items():
        assert qproduct_grassmann(2, 4, lam, mu) == expected
        assert qproduct_grassmann(2, 4, mu, lam) == expected


def test_qproduct_golden_gr49():
    got = qproduct_grassmann(4, 9, (5, 4, 4, 3), (5, 4, 4, 1))
    assert got == {
        (2, (5, 3, 2, 2)): 1,
        (2, (5, 3, 3, 1)): 1,
        (2, (5, 4, 2, 1)): 1,
        (3, (3,)): 1,
        (3, (2, 1)): 2,
        (3, (1, 1, 1)): 1,
    }


def test_qproduct_never_zero_and_graded():
    for k, n in ((2, 4), (2, 5)):
        box = list(partitions_in_box(k, n))
        for lam in box:
            for mu in box:
                prod = qproduct_grassmann(k, n, lam, mu)
                assert prod, (lam, mu)
                for (d, nu), c in prod.items():
                    assert c > 0
                    assert sum(lam) + sum(mu) == sum(nu) + d * n
                    assert partition_in_box(k, n, nu)


def test_qproduct_identity_and_duality():
    P = list(partitions_in_box(2, 5))
    full = (3, 3)
    for lam in P:
        assert qproduct_grassmann(2, 5, (), lam) == {(0, lam): 1}
        # q^0 coefficient of the full box detects the dual partner
        for mu in P:
            c = qproduct_grassmann(2, 5, lam, mu).get((0, full), 0)
            assert c == (1 if mu == dual_partition(2, 5, lam) else 0)


def test_qproduct_cosets_wrapper():
    P = grassmannian_parabolic(2, 4)
    u = coset_of_partition(P, (2, 1))
    qc = qproduct_grassmann_cosets(P, u, u)
    terms = {
        (deg, partition_of_coset(P, w)): c for (deg, w), c in qc.terms.items()
    }
    assert terms == {((1,), (2,)): 1, ((1,), (1, 1)): 1}


def test_single_product_enumerates_no_cosets():
    P = grassmannian_parabolic(8, 16)
    u = coset_of_partition(P, (3, 2, 1))
    v = coset_of_partition(P, (2, 2))
    qc = qproduct_grassmann_cosets(P, u, v)
    assert P._cosets is None
    terms = {(d[0], partition_of_coset(P, w)): c for (d, w), c in qc.terms.items()}
    assert terms == qproduct_grassmann(8, 16, (3, 2, 1), (2, 2))


def test_qproduct_rejects_out_of_box():
    with pytest.raises(ValueError):
        qproduct_grassmann(2, 4, (3,), (1,))


# ---------------------------------------------------------------------------
# minimal-degree formulas


def test_min_degree_diagonal_examples():
    assert min_degree_diagonal(4, 9, (5, 4, 4, 3), (5, 4, 4, 1)) == 2
    assert min_degree_diagonal(2, 4, (2, 2), (2, 2)) == 2
    assert min_degree_diagonal(2, 4, (), (2, 2)) == 0
    assert min_degree_diagonal(2, 4, (1,), (2, 2)) == 1
    assert min_degree_diagonal(2, 4, (1,), (1,)) == 0


def test_min_degree_matches_product_minimum():
    for k, n in ((2, 4), (2, 5), (3, 6)):
        box = list(partitions_in_box(k, n))
        for lam in box:
            for mu in box:
                prod = qproduct_grassmann(k, n, lam, mu)
                assert min(d for d, _ in prod) == min_degree_diagonal(k, n, lam, mu)


def test_monotone_chain_examples():
    assert monotone_chain_exists(2, 4, (2, 2), (2, 2), 2)
    assert not monotone_chain_exists(2, 4, (2, 2), (2, 2), 1)
    # d = 0 reduces to the containment test lam <= dual(mu)
    for lam in partitions_in_box(2, 4):
        for mu in partitions_in_box(2, 4):
            dual = dual_partition(2, 4, mu)
            padded_l = lam + (0,) * (2 - len(lam))
            padded_d = dual + (0,) * (2 - len(dual))
            contained = all(a <= b for a, b in zip(padded_l, padded_d))
            assert monotone_chain_exists(2, 4, lam, mu, 0) == contained


def test_monotone_chain_at_diagonal_bound():
    # a monotone chain exists at the diagonal count but not below it
    for k, n in ((2, 4), (2, 5)):
        for lam in partitions_in_box(k, n):
            for mu in partitions_in_box(k, n):
                d = min_degree_diagonal(k, n, lam, mu)
                assert monotone_chain_exists(k, n, lam, mu, d)
                if d > 0:
                    assert not monotone_chain_exists(k, n, lam, mu, d - 1)
                assert monotone_chain_exists(k, n, lam, mu, d + 1)  # monotone in d


# ---------------------------------------------------------------------------
# properties


boxed_partitions = st.sampled_from(sorted(partitions_in_box(3, 7)))


@given(boxed_partitions, boxed_partitions)
def test_lr_commutes_hypothesis(lam, mu):
    assert classical_lr(lam, mu, 3) == classical_lr(mu, lam, 3)


@given(boxed_partitions)
def test_dual_involution_hypothesis(lam):
    assert dual_partition(3, 7, dual_partition(3, 7, lam)) == lam


@settings(max_examples=40)
@given(boxed_partitions, boxed_partitions)
def test_qproduct_grading_hypothesis(lam, mu):
    prod = qproduct_grassmann(3, 7, lam, mu)
    assert prod
    for (d, nu), c in prod.items():
        assert c > 0
        assert sum(lam) + sum(mu) == sum(nu) + 7 * d
