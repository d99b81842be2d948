"""Root system construction: counts, Cartan data, exact inner products."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qschub.roots import build_root_system
from qschub.weyl import reflection_of_root

# Classical positive-root counts per (type, rank).
POSITIVE_ROOT_COUNTS = {
    ("A", 1): 1,
    ("A", 2): 3,
    ("A", 3): 6,
    ("A", 4): 10,
    ("B", 2): 4,
    ("B", 3): 9,
    ("C", 3): 9,
    ("C", 4): 16,
    ("D", 4): 12,
    ("D", 5): 20,
    ("G", 2): 6,
    ("F", 4): 24,
    ("E", 6): 36,
    ("E", 7): 63,
    ("E", 8): 120,
}

SMALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]


@pytest.mark.parametrize("type_label,rank", sorted(POSITIVE_ROOT_COUNTS))
def test_positive_root_count(type_label, rank):
    rs = build_root_system(type_label, rank)
    assert len(rs.positive_roots) == POSITIVE_ROOT_COUNTS[(type_label, rank)]


@pytest.mark.parametrize("type_label,rank", SMALL_TYPES)
def test_cartan_shape(type_label, rank):
    rs = build_root_system(type_label, rank)
    for i in range(rank):
        assert rs.cartan[i][i] == 2
        for j in range(rank):
            if i != j:
                assert rs.cartan[i][j] <= 0


def test_a1_is_sl2():
    rs = build_root_system("A", 1)
    assert rs.cartan == ((2,),)
    assert len(rs.positive_roots) == 1
    assert rs.positive_roots[0].coeffs == (1,)


def test_g2_cartan_off_diagonals():
    rs = build_root_system("G", 2)
    off = sorted((rs.cartan[0][1], rs.cartan[1][0]))
    assert off == [-3, -1]


@pytest.mark.parametrize(
    "type_label,rank",
    [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("H", 3)],
)
def test_invalid_type_rank_rejected(type_label, rank):
    with pytest.raises(ValueError):
        build_root_system(type_label, rank)


@pytest.mark.parametrize("type_label,rank", SMALL_TYPES)
def test_positive_roots_have_nonnegative_coeffs(type_label, rank):
    rs = build_root_system(type_label, rank)
    for alpha in rs.positive_roots:
        assert all(c >= 0 for c in alpha.coeffs)
        assert any(c > 0 for c in alpha.coeffs)


@pytest.mark.parametrize("type_label,rank", SMALL_TYPES)
def test_simple_roots_are_unit_vectors(type_label, rank):
    rs = build_root_system(type_label, rank)
    for i, beta in enumerate(rs.simple_roots):
        assert beta.coeffs == tuple(1 if j == i else 0 for j in range(rank))


def test_supported_on_reads_only_nonzero_coefficients():
    rs = build_root_system("A", 3)
    alpha = rs.root((1, 1, 0))  # alpha_1 + alpha_2
    assert alpha.supported_on({0, 1}) and alpha.supported_on((0, 1, 2))
    assert not alpha.supported_on({0}) and not alpha.supported_on({1, 2})
    assert rs.simple_roots[2].supported_on({2})


@pytest.mark.parametrize("type_label,rank", SMALL_TYPES)
def test_one_or_two_root_norms(type_label, rank):
    rs = build_root_system(type_label, rank)
    norms = {alpha.norm for alpha in rs.positive_roots}
    simply_laced = type_label in ("A", "D", "E")
    assert len(norms) == (1 if simply_laced else 2)
    # Short-root normalization: the minimum norm is 2.
    assert min(norms) == 2


def test_pairing_dual_bases():
    rs = build_root_system("B", 3)
    for i, beta in enumerate(rs.simple_roots):
        for j in range(rs.rank):
            expected = 1 if i == j else 0
            assert rs.pairing(beta, j) == expected


def test_pairing_a3_highest_root():
    # Highest root of A3 is b1+b2+b3; against the middle fundamental weight
    # the pairing is still 1 because all norms agree.
    rs = build_root_system("A", 3)
    theta = rs.highest_root
    assert theta.coeffs == (1, 1, 1)
    assert rs.pairing(theta, 1) == 1


@pytest.mark.parametrize("type_label,rank", SMALL_TYPES)
def test_pairing_integrality(type_label, rank):
    rs = build_root_system(type_label, rank)
    for alpha in rs.positive_roots:
        for i in range(rs.rank):
            value = rs.pairing(alpha, i)
            assert value.denominator == 1 and value >= 0


def test_reflect_negates_own_root():
    rs = build_root_system("G", 2)
    for alpha in rs.positive_roots:
        image = reflection_of_root(rs, alpha).apply_root(alpha)
        assert image.coeffs == tuple(-c for c in alpha.coeffs)


def test_reflect_fixes_orthogonal():
    # In A3 the outer simple roots are orthogonal.
    rs = build_root_system("A", 3)
    b1, _, b3 = rs.simple_roots
    assert reflection_of_root(rs, b1).apply_root(b3).coeffs == b3.coeffs


def test_reflect_a2_simple_on_simple():
    rs = build_root_system("A", 2)
    b1, b2 = rs.simple_roots
    assert reflection_of_root(rs, b1).apply_root(b2).coeffs == (1, 1)


@pytest.mark.parametrize("type_label,rank", SMALL_TYPES)
def test_reflect_involution_and_closure(type_label, rank):
    rs = build_root_system(type_label, rank)
    for beta in rs.simple_roots:
        s = reflection_of_root(rs, beta)
        for alpha in rs.positive_roots:
            image = s.apply_root(alpha)
            assert rs.is_root(image.coeffs)
            back = s.apply_root(image)
            assert back.coeffs == alpha.coeffs


@pytest.mark.parametrize("type_label,rank", SMALL_TYPES)
def test_reflect_preserves_norm(type_label, rank):
    rs = build_root_system(type_label, rank)
    for beta in rs.simple_roots:
        for alpha in rs.positive_roots:
            image = reflection_of_root(rs, beta).apply_root(alpha)
            assert image.norm == alpha.norm


def test_pairing_rejects_foreign_root():
    rs = build_root_system("A", 2)
    other = build_root_system("B", 2)
    with pytest.raises(ValueError):
        rs.pairing(other.positive_roots[-1], 0)


def test_type_label_is_case_insensitive():
    assert build_root_system("a", 2) is build_root_system("A", 2)
    with pytest.raises(ValueError):
        build_root_system("z", 2)


def test_highest_root_g2():
    rs = build_root_system("G", 2)
    assert rs.highest_root.coeffs == (3, 2)
    assert rs.highest_root.norm == 6


def test_norms_are_exact_integers():
    for type_label, rank in SMALL_TYPES:
        rs = build_root_system(type_label, rank)
        for alpha in rs.positive_roots:
            assert Fraction(alpha.norm).denominator == 1


@given(st.sampled_from(SMALL_TYPES), st.data())
def test_reflect_matches_coroot_formula(inst, data):
    # s_b(a) = a - <a, b-coroot> b, recomputed here from the Cartan matrix.
    type_label, rank = inst
    rs = build_root_system(type_label, rank)
    i = data.draw(st.integers(min_value=0, max_value=rank - 1))
    alpha = data.draw(st.sampled_from(rs.positive_roots))
    beta = rs.simple_roots[i]
    t = sum(rs.cartan[i][j] * a for j, a in enumerate(alpha.coeffs))
    expected = tuple(a - t * b for a, b in zip(alpha.coeffs, beta.coeffs))
    assert reflection_of_root(rs, beta).apply_root(alpha).coeffs == expected


def dense_positive_roots(rs):
    """(coeffs, norm) of the positive roots as the dense generator built them:
    every simple-reflection image from a full O(rank) pairing, every norm
    from the full Gram matrix."""
    rank = rs.rank
    simples = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    seen = set(simples)
    queue = list(simples)
    while queue:
        vec = queue.pop()
        for i in range(rank):
            t = sum(rs.cartan[i][j] * vec[j] for j in range(rank))
            img = tuple(vec[j] - t if j == i else vec[j] for j in range(rank))
            if img not in seen:
                seen.add(img)
                queue.append(img)
    positives = sorted((v for v in seen if all(c >= 0 for c in v)),
                       key=lambda v: (sum(v), v))
    return [(v, sum(v[i] * rs.gram[i][j] * v[j] for i in range(rank) for j in range(rank)))
            for v in positives]


SPARSE_GENERATOR_TYPES = (
    [("A", r) for r in range(1, 13)]
    + [(t, r) for t in "BC" for r in range(2, 9)]
    + [("D", r) for r in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("type_label,rank", SPARSE_GENERATOR_TYPES)
def test_sparse_generator_matches_the_dense_one(type_label, rank):
    rs = build_root_system(type_label, rank)
    assert [(a.coeffs, a.norm) for a in rs.positive_roots] == dense_positive_roots(rs)
