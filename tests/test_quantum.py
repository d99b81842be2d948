"""Quantum Chevalley multiplication and the divisor-recursion product on G/B."""

import pytest
from hypothesis import given, settings, strategies as st

from qschub import checks
from qschub.grassmann import (
    PieriEngine,
    coset_of_partition,
    grassmannian_parabolic,
    partition_of_coset,
    qproduct_grassmann,
)
from qschub.parabolic import ParabolicData, make_parabolic
from qschub.quantum import (
    DEFAULT_PRODUCT_GUARD,
    DivisorEngine,
    QClass,
    classical_chevalley,
    min_occurring_degrees,
    multiply_classes,
    product_engine,
    qproduct_GB,
    quantum_chevalley,
)
from qschub.roots import InvariantError, build_root_system
from qschub.weyl import GroupSizeGuardError, parse_word


def by_words(qc):
    return {(d, w.word()): c for (d, w), c in qc.terms.items()}


def coset(P, text):
    return P.to_coset(parse_word(P.system, text))


# ---------------------------------------------------------------------------
# Chevalley formula


def test_chevalley_a2_frozen():
    P = make_parabolic("A", 2, ())
    s1 = coset(P, "s1")
    s2 = coset(P, "s2")
    assert by_words(classical_chevalley(P, 0, s1)) == {((0, 0), (1, 0)): 1}
    assert by_words(quantum_chevalley(P, 0, s1)) == {
        ((0, 0), (1, 0)): 1,
        ((1, 0), ()): 1,
    }
    # s1 * s2 has no quantum correction
    assert by_words(quantum_chevalley(P, 0, s2)) == {
        ((0, 0), (1, 0)): 1,
        ((0, 0), (0, 1)): 1,
    }


def test_chevalley_a1_quantum():
    P = make_parabolic("A", 1, ())
    s = coset(P, "s1")
    assert by_words(quantum_chevalley(P, 0, s)) == {((1,), ()): 1}
    assert by_words(classical_chevalley(P, 0, s)) == {}


def test_chevalley_gr24():
    P = grassmannian_parabolic(2, 4)
    beta = P.q_index[0]
    one = coset_of_partition(P, (1,))
    got = {
        (d, partition_of_coset(P, w)): c
        for (d, w), c in classical_chevalley(P, beta, one).terms.items()
    }
    assert got == {((0,), (2,)): 1, ((0,), (1, 1)): 1}

    full = coset_of_partition(P, (2, 2))
    got_q = {
        (d, partition_of_coset(P, w)): c
        for (d, w), c in quantum_chevalley(P, beta, full).terms.items()
    }
    assert got_q == {((1,), (1,)): 1}


def test_chevalley_matches_grassmann_column():
    # multiplying by the box-(1) class is the Chevalley case of the rim-hook rule
    for k, n in ((2, 4), (2, 5), (3, 6)):
        P = grassmannian_parabolic(k, n)
        beta = P.q_index[0]
        for u in P.cosets():
            got = {
                (d[0], partition_of_coset(P, w)): c
                for (d, w), c in quantum_chevalley(P, beta, u).terms.items()
            }
            expected = qproduct_grassmann(k, n, (1,), partition_of_coset(P, u))
            assert got == expected


def test_chevalley_rejects_parabolic_node():
    P = grassmannian_parabolic(2, 4)
    with pytest.raises(ValueError):
        quantum_chevalley(P, 0, P.identity_coset())  # node 0 lies in Delta_P
    for out_of_range in (-1, 3):
        with pytest.raises(ValueError, match="not a retained node of A3 omit 2"):
            quantum_chevalley(P, out_of_range, P.identity_coset())


def test_chevalley_classical_is_q0_part():
    P = make_parabolic("B", 2, ())
    for i in range(2):
        for u in P.cosets():
            quantum = quantum_chevalley(P, i, u)
            q0_part = {k: c for k, c in quantum.terms.items() if k[0] == (0, 0)}
            assert classical_chevalley(P, i, u) == QClass(P, q0_part)


def test_chevalley_coefficients_nonnegative_integers():
    P = make_parabolic("G", 2, ())
    for i in range(2):
        for u in P.cosets():
            qc = quantum_chevalley(P, i, u)
            for (d, w), c in qc.terms.items():
                assert isinstance(c, int) and c > 0
                # classical terms raise length by one; quantum by 1 - n_alpha
                if all(x == 0 for x in d):
                    assert w.length == u.length + 1
                else:
                    assert w.length < u.length


# ---------------------------------------------------------------------------
# full product on G/B


def test_qproduct_gb_a2_frozen():
    P = make_parabolic("A", 2, ())
    s1 = coset(P, "s1")
    wo = coset(P, "s1*s2*s1")
    assert by_words(qproduct_GB(P, s1, s1)) == {
        ((0, 0), (1, 0)): 1,
        ((1, 0), ()): 1,
    }
    assert by_words(qproduct_GB(P, wo, wo)) == {
        ((1, 1), (1, 0)): 1,
        ((1, 1), (0, 1)): 1,
    }


def test_qproduct_gb_a1():
    P = make_parabolic("A", 1, ())
    s = coset(P, "s1")
    assert by_words(qproduct_GB(P, s, s)) == {((1,), ()): 1}


def test_qproduct_gb_unit():
    P = make_parabolic("B", 2, ())
    e = P.identity_coset()
    for v in P.cosets():
        assert qproduct_GB(P, e, v) == QClass.basis(P, v)


def test_qproduct_gb_commutative():
    P = make_parabolic("B", 2, ())
    for u in P.cosets():
        for v in P.cosets():
            assert qproduct_GB(P, u, v) == qproduct_GB(P, v, u)


def test_qproduct_gb_agrees_with_chevalley_column():
    P = make_parabolic("G", 2, ())
    for i in range(2):
        s = coset(P, f"s{i + 1}")
        for u in P.cosets():
            assert qproduct_GB(P, s, u) == quantum_chevalley(P, i, u)


def test_qproduct_gb_classical_duality():
    # q^0 part of u * v hits the top class exactly when v is dual to u
    P = make_parabolic("A", 2, ())
    top = max(P.cosets(), key=lambda c: c.length)
    zero = (0, 0)
    for u in P.cosets():
        for v in P.cosets():
            c = qproduct_GB(P, u, v).coefficient(zero, top)
            assert c == (1 if v == P.dual(u) else 0)


def test_qproduct_gb_rejects_parabolic_quotient():
    P = grassmannian_parabolic(2, 4)
    u = P.identity_coset()
    with pytest.raises(ValueError):
        qproduct_GB(P, u, u)


def test_qproduct_gb_guard():
    P = make_parabolic("B", 4, ())  # |W| = 384 > default guard
    u = P.identity_coset()
    with pytest.raises(GroupSizeGuardError):
        qproduct_GB(P, u, u)
    assert DEFAULT_PRODUCT_GUARD == 240


def test_gr12_equals_projective_line_flag():
    # A1 full flag IS Gr(1,2); both engines must produce the same ring
    P = make_parabolic("A", 1, ())
    s = coset(P, "s1")
    gb = by_words(qproduct_GB(P, s, s))
    rim = qproduct_grassmann(1, 2, (1,), (1,))
    assert gb == {((d,), () if lam == () else (1,) * 0): c for (d, lam), c in rim.items()}
    assert rim == {(1, ()): 1}


# ---------------------------------------------------------------------------
# QClass plumbing


def test_qclass_algebra():
    P = make_parabolic("A", 2, ())
    pair = lambda u, v: qproduct_GB(P, u, v)
    e = P.identity_coset()
    s1 = coset(P, "s1")
    total = QClass.basis(P, s1)
    total.add_term((1, 0), e, 2)
    assert total.coefficient((1, 0), e) == 2
    assert total.coefficient((0, 0), s1) == 1
    assert total.terms == {((0, 0), s1): 1, ((1, 0), e): 2}
    # a term added back with the opposite sign leaves no explicit zero
    total.add_term((1, 0), e, -2)
    total.add_term((0, 0), s1, -1)
    assert total.is_zero and total == QClass.zero(P)
    assert QClass.basis(P, s1, coeff=0).is_zero
    # scaling and q-shifts are products with a multiple of the unit class
    a = QClass.basis(P, s1)
    tripled = multiply_classes(a, QClass.basis(P, e, coeff=3), pair)
    assert tripled == QClass.basis(P, s1, coeff=3)
    shifted = multiply_classes(a, QClass.basis(P, e, degree=(0, 1)), pair)
    assert shifted == QClass.basis(P, s1, degree=(0, 1))


def test_qclass_has_slots_and_keeps_its_equality():
    P = make_parabolic("A", 2, ())
    Q = ParabolicData(P.system, ())  # the same group, a second quotient object
    s1 = coset(P, "s1")
    a = QClass.basis(P, s1)
    assert not hasattr(a, "__dict__")
    with pytest.raises(AttributeError):
        a.extra = 1
    # equality is context identity and terms, as before slots
    assert a == QClass(P, {((0, 0), s1): 1})
    assert a != QClass(Q, dict(a.terms))
    assert a != QClass.basis(P, s1, coeff=2)
    assert a != a.terms
    # multiply_classes as before: pinned from the class without slots
    pair = lambda u, v: qproduct_GB(P, u, v)
    e, s2 = P.identity_coset(), coset(P, "s2")
    x = QClass(P, {((0, 0), s1): 2, ((1, 0), e): 1})
    y = QClass(P, {((0, 0), s1): 1, ((0, 1), s2): -1})
    got = multiply_classes(x, y, pair)
    assert [((d, w.word()), c) for (d, w), c in got.terms.items()] == [
        (((1, 0), ()), 2), (((0, 0), (1, 0)), 2), (((0, 1), (1, 0)), -2),
        (((0, 1), (0, 1)), -2), (((1, 0), (0,)), 1), (((1, 1), (1,)), -1)]


def test_min_occurring_degrees():
    P = make_parabolic("A", 2, ())
    e = P.identity_coset()
    c = QClass.basis(P, e, degree=(1, 0))
    c.add_term((0, 1), e, 1)
    c.add_term((1, 1), e, 1)
    assert set(min_occurring_degrees(c)) == {(1, 0), (0, 1)}
    with pytest.raises(ValueError):
        min_occurring_degrees(QClass.zero(P))


def test_multiply_classes_bilinear():
    P = make_parabolic("A", 2, ())
    pair = lambda u, v: qproduct_GB(P, u, v)
    s1 = coset(P, "s1")
    s2 = coset(P, "s2")
    a = QClass.basis(P, s1)
    a.add_term((0, 0), s2, 2)
    b = QClass.basis(P, s1)
    lhs = multiply_classes(a, b, pair)
    rhs = QClass.zero(P)
    for coeff, u in ((1, s1), (2, s2)):
        for (d, w), c in qproduct_GB(P, u, s1).terms.items():
            rhs.add_term(d, w, coeff * c)
    assert lhs == rhs


def test_qclass_rejects_cross_context_mix():
    P = make_parabolic("A", 2, ())
    Q = make_parabolic("B", 2, ())
    pair = lambda u, v: qproduct_GB(P, u, v)
    with pytest.raises(ValueError, match="different parabolic data"):
        multiply_classes(QClass.basis(P, P.identity_coset()),
                         QClass.basis(Q, Q.identity_coset()), pair)


def test_qclass_arithmetic_across_label_spellings():
    P = make_parabolic("a", 2, ())
    Q = make_parabolic("A", 2, ())
    assert P is Q
    pair = lambda u, v: qproduct_GB(Q, u, v)
    total = multiply_classes(QClass.basis(P, P.identity_coset()),
                             QClass.basis(Q, Q.identity_coset(), coeff=2), pair)
    assert total.terms == {((0, 0), Q.identity_coset()): 2}


# ---------------------------------------------------------------------------
# product engines


def test_product_engine_choice():
    # full flags are tested first, so A1 = Gr(1,2) keeps the divisor engine
    for P in (make_parabolic("A", 1, ()), grassmannian_parabolic(1, 2),
              make_parabolic("B", 2, ())):
        engine = product_engine(P)
        assert isinstance(engine, DivisorEngine)
        assert engine is P._divisor_engine
    P = grassmannian_parabolic(2, 4)
    assert isinstance(product_engine(P), PieriEngine)
    assert product_engine(P) is P._divisor_engine
    # no full-product engine on a partial flag that is not a Grassmannian
    assert product_engine(make_parabolic("B", 3, (1, 2))) is None


def test_product_guard_is_asked_on_a_full_flag_first():
    # A1 = Gr(1,2) is a full flag, so the group-order guard refuses it
    cached = grassmannian_parabolic(1, 2)
    P = ParabolicData(cached.system, cached.delta_P)  # fresh
    with pytest.raises(GroupSizeGuardError, match=r"^divisor engine on .* \(\|W\| = 2\) "
                       r"exceeds the group-order guard of 1 elements"):
        product_engine(P, 1)
    assert P._divisor_engine is None


def test_divisor_engine_refuses_classes_that_do_not_span():
    # the span check is the divisor engine's one guard; product_engine's
    # policy never hands these quotients the divisor engine: A3 2 = Gr(2,4)
    # gets the Pieri engine, and B3 2 gets None, with no engine built
    gr24, b32 = (ParabolicData(P.system, P.delta_P)  # fresh
                 for _, P in (checks.build_instance(t) for t in (("A3", "2"), ("B3", "2"))))
    for P in (gr24, b32):
        with pytest.raises(InvariantError, match="divisor classes do not span"):
            DivisorEngine(P)
    assert isinstance(product_engine(gr24), PieriEngine)
    assert product_engine(b32) is None
    assert b32._divisor_engine is None


def test_pieri_engine_obeys_only_the_enumeration_guard():
    # |W(A6)| = 5040 is past any group-order guard; the 35 cosets are not
    cached = grassmannian_parabolic(3, 7)
    P = ParabolicData(cached.system, cached.delta_P)  # fresh
    assert isinstance(product_engine(P, 10), PieriEngine)
    P = ParabolicData(cached.system, cached.delta_P)
    P.max_elements = 34
    with pytest.raises(GroupSizeGuardError, match=r"\|W/W_P\| = 35"):
        product_engine(P)
    assert P._divisor_engine is None


def test_qproduct_GB_refuses_a_grassmannian_after_its_engine_is_built():
    P = grassmannian_parabolic(2, 4)
    e = P.identity_coset()
    product_engine(P).product(e, e)
    with pytest.raises(ValueError, match=r"^the divisor engine handles full flag "
                       r"quotients only \(Delta_P must be empty\); for other "
                       r"parabolics use quantum_chevalley or, in the Grassmannian "
                       r"case, the rim-hook product oracle$"):
        qproduct_GB(P, e, e)
    assert isinstance(P._divisor_engine, PieriEngine)


def test_product_guard_refuses_before_enumerating():
    P = ParabolicData(build_root_system("A", 5), ())  # |W| = 720, fresh
    with pytest.raises(GroupSizeGuardError, match=r"divisor engine on A5 flag \(\|W\| = 720\)"):
        product_engine(P, 100)
    assert P._cosets is None and P._divisor_engine is None


def test_product_guard_ignores_call_order():
    # a fresh quotient, so no earlier test's engine is cached on it
    P = ParabolicData(build_root_system("A", 3), ())
    with pytest.raises(GroupSizeGuardError):
        product_engine(P, 10)
    u, v = P.cosets()[1], P.cosets()[2]
    assert not qproduct_GB(P, u, v).is_zero  # builds and caches the engine
    with pytest.raises(GroupSizeGuardError):
        product_engine(P, 10)
    with pytest.raises(GroupSizeGuardError):
        qproduct_GB(P, u, v, max_group_order=10)
    assert product_engine(P, 24) is P._divisor_engine


# ---------------------------------------------------------------------------
# raising witnesses


def test_raising_witness_reports():
    for P, label in ((make_parabolic("A", 2, ()), "A2 flag"),
                     (grassmannian_parabolic(2, 4), "gr 2 4")):
        (row,) = checks.check_raising_witness(P, label, product_engine(P))
        assert (row.instance, row.name) == (label, "raising-witness")
        assert row.passed and not row.detail
        cosets = P.cosets()
        assert row.checked == sum(P.bruhat_leq(u, v) for u in cosets for v in cosets) > 0


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_grading_identity_hypothesis(data):
    P = make_parabolic(*data.draw(st.sampled_from([("A", 2, ()), ("B", 2, ())])))
    cosets = P.cosets()
    u = data.draw(st.sampled_from(cosets))
    v = data.draw(st.sampled_from(cosets))
    prod = qproduct_GB(P, u, v)
    assert not prod.is_zero
    chern = [P.chern_number(P.system.simple_roots[i]) for i in P.q_index]
    for (d, w), c in prod.terms.items():
        assert c > 0
        assert w.length == u.length + v.length - sum(
            di * ni for di, ni in zip(d, chern)
        )


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_product_min_degrees_match_chains_hypothesis(data):
    P = make_parabolic("B", 2, ())
    cosets = P.cosets()
    u = data.draw(st.sampled_from(cosets))
    v = data.draw(st.sampled_from(cosets))
    prod = qproduct_GB(P, u, v)
    assert set(min_occurring_degrees(prod)) == set(P.min_chain_degrees(u, v))
