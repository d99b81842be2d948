"""The verification sweeps: one body for every product engine."""

import sys
from fractions import Fraction
from operator import mul

import pytest

from qschub import checks, cli, grassmann, quantum
from qschub.grassmann import coset_of_partition, grassmannian_parabolic
from qschub.parabolic import ParabolicData, make_parabolic
from qschub.quantum import QClass, multiply_classes, product_engine
from qschub.weyl import GroupSizeGuardError, enumerate_parabolic_subgroup, identity


def times_q(engine, c):
    """c times the first q parameter, as a product with q * sigma_e."""
    P = c.context
    q = QClass.basis(P, P.identity_coset(), degree=(1,) + (0,) * (len(P.q_index) - 1))
    return multiply_classes(c, q, engine.product)


class ShiftedEngine:
    """Multiplies every product by one extra q: a wrong engine on purpose."""

    def __init__(self, P):
        self.inner = product_engine(P)

    def product(self, u, v):
        return times_q(self.inner, self.inner.product(u, v))


def rows_by_name(rows):
    return {r.name: r for r in rows}


def test_sweep_passes_on_both_engines():
    for P, label in ((make_parabolic("B", 2, ()), "B2 flag"),
                     (grassmannian_parabolic(2, 4), "gr 2 4")):
        engine = product_engine(P)
        rows = checks._product_sweep(P, label, engine)
        rows += checks._associativity(P, label, engine)
        assert all(r.passed for r in rows), [r for r in rows if not r.passed]
        assert {r.checked for r in rows} == {len(P.cosets()) ** 2, 100}


class RecordingEngine:
    """The quotient's own engine, logging every pair it is asked."""

    def __init__(self, P):
        self.inner = product_engine(P)
        self.calls = []

    def product(self, u, v):
        self.calls.append((u, v))
        return self.inner.product(u, v)


def test_associativity_samples_one_set_of_triples_per_quotient():
    # each group of spellings builds one ParabolicData, so it must draw
    # the same triples whatever label the user typed
    for spellings in (("gr 3 7", "A6 3"), ("a4 flag", "A4 flag", "A4")):
        samples = set()
        for label in spellings:
            _label, P = checks.build_instance(label.split())
            engine = RecordingEngine(P)
            rows = checks._associativity(P, label, engine)
            assert rows[0].passed and rows[0].checked == 100
            samples.add((id(P), tuple(engine.calls)))
        assert len(samples) == 1, spellings


def test_sweep_catches_a_wrong_flag_engine():
    P = make_parabolic("A", 2, ())
    rows = rows_by_name(checks._product_sweep(P, "A2 flag", ShiftedEngine(P)))
    for name in ("grading", "minimal-degree-agreement", "classical-duality",
                 "chevalley-column"):
        assert not rows[name].passed, name
    assert rows["commutativity"].passed and rows["nonnegativity"].passed
    assert rows["grading"].detail.startswith("grading broken at (),()")


def test_sweep_catches_a_wrong_grassmannian_engine():
    P = grassmannian_parabolic(2, 4)
    rows = rows_by_name(checks._product_sweep(P, "gr 2 4", ShiftedEngine(P)))
    for name in ("grading", "degree-triple-agreement", "classical-duality",
                 "chevalley-column"):
        assert not rows[name].passed, name
    # the diagonal rule and the monotone chains do not read the engine
    assert rows["monotone-chains"].passed
    assert "minimal-degree-agreement" not in rows
    assert rows["degree-triple-agreement"].detail.startswith(
        "diagonal 0 vs chains {(0,)} vs product at (),()"
    )


def _fresh(type_label, rank, delta_P):
    """An uncached quotient, so a deliberate corruption stays in the test."""
    return ParabolicData(make_parabolic(type_label, rank, delta_P).system, delta_P)


def test_commutativity_compares_two_memoised_products():
    # the Pieri engine holds each answer once, in the column of its v, so
    # one corrupted entry leaves its transpose intact and the sweep still
    # sees the split
    P = _fresh("A", 3, (0, 2))  # gr 2 4
    engine = product_engine(P)
    u, v = coset_of_partition(P, (1,)), coset_of_partition(P, (2, 1))
    engine._column[v.index][u.index] = times_q(engine, engine.product(u, v))
    rows = rows_by_name(checks._product_sweep(P, "gr 2 4", engine))
    assert not rows["commutativity"].passed
    assert rows["commutativity"].detail == (
        "not commutative at (1,),(2, 1); not commutative at (2, 1),(1,)")
    assert rows["nonnegativity"].passed


def test_flag_commutativity_compares_two_independent_answers():
    # the divisor engine holds each answer once, in the column of its v,
    # so one corrupted entry leaves its transpose intact
    P = _fresh("A", 3, ())
    engine = product_engine(P)
    u, v = P.cosets()[1], P.cosets()[4]
    engine._column[v.index][u.index] = times_q(engine, engine.product(u, v))
    rows = rows_by_name(checks._product_sweep(P, "A3 flag", engine))
    assert not rows["commutativity"].passed
    assert rows["commutativity"].detail == (
        "not commutative at (0,),(0, 1); not commutative at (0, 1),(0,)")
    assert rows["nonnegativity"].passed


def test_merged_monotone_row_fails_on_a_wrong_walk(monkeypatch):
    # one table entry per pair stands for "a chain at diag, none at
    # diag - 1"; a walk one strip long everywhere fails that row alone
    real = grassmann._monotone_table
    monkeypatch.setattr(grassmann, "_monotone_table", lambda k, n, lam: {
        beta: least + 1 for beta, least in real(k, n, lam).items()})
    rows = checks.run_instance_checks(("gr", "2", "5"))
    assert {r.name for r in rows if not r.passed} == {"monotone-chains"}


def test_merged_monotone_row_fails_on_a_wrong_diagonal(monkeypatch):
    real = grassmann._min_degree_diagonal
    monkeypatch.setattr(grassmann, "_min_degree_diagonal",
                        lambda k, n, lam, mu: real(k, n, lam, mu) + 1)
    rows = checks.run_instance_checks(("gr", "2", "5"))
    assert {r.name for r in rows if not r.passed} == {
        "degree-triple-agreement", "monotone-chains"}


def test_graph_structure_reads_the_chain_search_bitsets():
    (row,) = checks.check_graph_structure(_fresh("A", 2, ()), "A2 flag")
    assert row.passed
    P = _fresh("A", 2, ())
    bottom = P.graph().nodes[0]
    P.up_set(bottom)
    P._up[bottom] = 1  # the identity's up-set, truncated to the identity
    (row,) = checks.check_graph_structure(P, "A2 flag")
    assert not row.passed
    assert row.detail.startswith("cover closure vs bruhat_leq differ at (),(0,)")
    P = _fresh("A", 2, ())
    top = P.graph().nodes[-1]
    P.down_set(top)
    P._down[top] = 0  # the top's down-set, emptied
    (row,) = checks.check_graph_structure(P, "A2 flag")
    assert not row.passed
    assert row.detail.startswith("cover closure vs bruhat_leq differ at (),(0, 1, 0)")


def test_frontier_singleton_flags_a_two_degree_frontier():
    P = _fresh("A", 2, ())
    _, row = checks.check_chain_symmetry(P, "A2 flag")
    assert row.name == "frontier-singleton"
    assert row.passed and row.checked == 36
    top = P.cosets()[-1]
    real = P.min_chain_degrees
    P.min_chain_degrees = lambda u, v: ((0, 1), (1, 0)) if u == v == top else real(u, v)
    _, row = checks.check_chain_symmetry(P, "A2 flag")
    assert not row.passed
    assert row.detail == "frontier ((0, 1), (1, 0)) at (0, 1, 0),(0, 1, 0)"


def test_chain_symmetry_flags_an_asymmetric_frontier():
    P = _fresh("A", 2, ())
    e, top = P.cosets()[0], P.cosets()[-1]
    real = P.min_chain_degrees
    # both frontiers still hold the zero degree, so only symmetry breaks
    P.min_chain_degrees = lambda u, v: ((0, 0), (1, 1)) if (u, v) == (e, top) else real(u, v)
    row, _ = checks.check_chain_symmetry(P, "A2 flag")
    assert not row.passed
    assert row.detail == (f"frontier not symmetric at {e.word()},{top.word()}; "
                          f"frontier not symmetric at {top.word()},{e.word()}")


def test_chain_symmetry_flags_a_zero_degree_chain_above_the_dual():
    P = _fresh("A", 2, ())
    top = P.cosets()[-1]  # top <= dual(top) = e fails, so no chain has degree 0
    real = P.min_chain_degrees
    P.min_chain_degrees = lambda u, v: ((0, 0),) if u == v == top else real(u, v)
    row, _ = checks.check_chain_symmetry(P, "A2 flag")
    assert not row.passed
    assert row.detail == f"zero-degree chain vs u<=dual(v) at {top.word()},{top.word()}"


def _corrupt_first_edge(P, degree_of):
    g = P.graph()
    (i, j), (root, deg) = next(iter(g.edges.items()))
    g.edges[i, j] = (root, degree_of(deg))
    return i, j


def test_graph_structure_flags_a_zero_degree_edge():
    P = _fresh("A", 2, ())
    i, j = _corrupt_first_edge(P, lambda deg: (0,) * len(deg))
    (row,) = checks.check_graph_structure(P, "A2 flag")
    assert not row.passed
    assert row.detail == (f"edge {i}-{j} has zero degree; "
                          f"dual edge {i}-{j} missing or degree mismatch")


def test_graph_structure_flags_an_edge_its_dual_does_not_match():
    P = _fresh("A", 2, ())
    i, j = _corrupt_first_edge(P, lambda deg: tuple(c + 1 for c in deg))
    (row,) = checks.check_graph_structure(P, "A2 flag")
    assert not row.passed
    assert row.detail == f"dual edge {i}-{j} missing or degree mismatch"


def _dictionary_row(P):
    (row,) = checks.check_partition_dictionary(P, "gr 2 4")
    assert row.name == "partition-dictionary" and not row.passed
    return row.detail


def test_partition_dictionary_passes_on_gr24():
    (row,) = checks.check_partition_dictionary(_fresh("A", 3, (0, 2)), "gr 2 4")
    assert row.passed and row.checked == 6 + 6 ** 2


def test_partition_dictionary_flags_a_wrong_coset_of_partition(monkeypatch):
    P = _fresh("A", 3, (0, 2))
    real = grassmann.coset_of_partition
    u = real(P, (1,))
    monkeypatch.setattr(grassmann, "coset_of_partition",
                        lambda Q, lam: real(Q, (2,) if lam == (1,) else lam))
    assert _dictionary_row(P) == f"dictionary round trip fails at {u.word()}"


def test_partition_dictionary_flags_a_wrong_dual_partition(monkeypatch):
    real = grassmann.dual_partition
    monkeypatch.setattr(grassmann, "dual_partition",
                        lambda k, n, lam: (2, 2) if lam == (1,) else real(k, n, lam))
    assert _dictionary_row(_fresh("A", 3, (0, 2))) == \
        "dual vs complement-rotation differ at (1,)"


def test_partition_dictionary_flags_a_repeated_label(monkeypatch):
    # sigma_2 is self-dual on Gr(2,4); labelled (1, 1) like sigma_11, the
    # dual rows still agree and only the round trip and the count break
    P = _fresh("A", 3, (0, 2))
    real = grassmann.partition_of_coset
    u = grassmann.coset_of_partition(P, (2,))
    monkeypatch.setattr(grassmann, "partition_of_coset",
                        lambda Q, x: (1, 1) if x == u else real(Q, x))
    assert _dictionary_row(P) == (
        f"dictionary round trip fails at {u.word()}; partition labels not distinct")


def test_partition_dictionary_flags_a_flipped_up_set_bit():
    P = _fresh("A", 3, (0, 2))
    u, v = (grassmann.coset_of_partition(P, lam) for lam in ((2,), (1, 1)))
    P._up[u] = P.up_set(u) | 1 << v.index  # sigma_2 <= sigma_11, falsely
    assert _dictionary_row(P) == "containment vs Bruhat at (2,),(1, 1)"


@pytest.mark.parametrize("answer, detail", [
    (lambda real: None, "adjacency vs rim hook at (),(1,)"),
    (lambda real: (real[0], (2,)), "edge degree not 1 at (),(1,)"),
], ids=["missing", "degree"])
def test_partition_dictionary_flags_a_wrong_adjacency(answer, detail):
    P = _fresh("A", 3, (0, 2))
    e, u = (grassmann.coset_of_partition(P, lam) for lam in ((), (1,)))
    real = P.adjacency
    P.adjacency = lambda x, y: answer(real(x, y)) if (x, y) == (e, u) else real(x, y)
    assert _dictionary_row(P) == detail


def test_golden_product_checks_the_engine_the_sweep_reads():
    cached = grassmannian_parabolic(4, 9)
    P = ParabolicData(cached.system, cached.delta_P)  # fresh: its engine is corrupted
    engine = product_engine(P)
    (row,) = checks.check_golden_product(P, "gr 4 9", engine)
    assert (row.passed, row.checked, row.detail) == (True, 1, "")
    u, v = (coset_of_partition(P, lam) for lam in ((5, 4, 4, 3), (5, 4, 4, 1)))
    lost = coset_of_partition(P, (5, 3, 2, 2))
    column = engine._column[v.index]
    column[u.index] = QClass(P, {key: c for key, c in column[u.index].terms.items()
                                 if key[1] != lost})
    (row,) = checks.check_golden_product(P, "gr 4 9", engine)
    assert (row.passed, row.checked) == (False, 1)
    want = sorted(kv for kv in checks.GOLDEN_GR49.items() if kv[0] != (2, (5, 3, 2, 2)))
    assert row.detail == f"engine got {want}"


def test_chain_rows_search_each_ordered_pair_twice(monkeypatch):
    # chain-symmetry and frontier-singleton share one walk over the pairs:
    # min_chain_degrees(u, v) and (v, u) once each, n^2 pairs
    P = _fresh("A", 3, ())
    real, calls = P.min_chain_degrees, []

    def counted(u, v):
        calls.append((u, v))
        return real(u, v)

    def no_engine(*args):
        return None  # no product sweep: the sweep reads frontiers too

    P.min_chain_degrees = counted
    monkeypatch.setattr(checks, "build_instance", lambda tokens: ("A3 flag", P))
    monkeypatch.setattr(checks, "product_engine", no_engine)
    rows = checks.run_instance_checks(("A3", "flag"))
    assert [r.name for r in rows][-2:] == ["chain-symmetry", "frontier-singleton"]
    assert all(r.passed for r in rows)
    assert len(calls) == 2 * 24 ** 2


@pytest.mark.parametrize("tokens, owner", [
    (("gr", "2", "5"), grassmann.PieriEngine),
    (("A2", "flag"), quantum.DivisorEngine),
], ids=["pieri", "divisor"])
def test_an_engine_build_error_reaches_verify(monkeypatch, tokens, owner):
    # "no engine here" is product_engine's None, never a caught error, so a
    # row builder that raises stops the sweep instead of dropping its rows
    _, P = checks.build_instance(tokens)
    monkeypatch.setattr(P, "_divisor_engine", None)  # make_parabolic caches the engine too

    def broken(self, shift):
        raise ValueError("row builder broke")

    monkeypatch.setattr(owner, "_generators", broken)
    with pytest.raises(ValueError, match="^row builder broke$"):
        checks.run_instance_checks(tokens)
    assert P._divisor_engine is None


def test_an_engine_build_error_reaches_product(monkeypatch, capsys):
    # a Grassmannian product builds no engine, so the divisor engine's rows
    # break here, on a full-flag u that is not a divisor class
    _, P = checks.build_instance(("A2", "flag"))
    monkeypatch.setattr(P, "_divisor_engine", None)

    def broken(self, shift):
        raise ValueError("row builder broke")

    monkeypatch.setattr(quantum.DivisorEngine, "_generators", broken)
    with pytest.raises(ValueError, match="^row builder broke$"):
        cli.main(["product", "A2", "flag", "--u", "s1*s2", "--v", "s1"])
    assert "no full-product engine" not in capsys.readouterr().err


@pytest.mark.parametrize("tokens", [("B3", "2"), ("A3", "1", "3"), ("C3", "1", "3"), ("B3", "1")])
def test_product_engine_is_none_off_full_flags_and_grassmannians(tokens):
    _, P = checks.build_instance(tokens)
    assert product_engine(P) is None
    assert P._divisor_engine is None


def test_engine_divisor_is_not_an_option(capsys):
    # product picks its rule itself: --engine is no option at all
    for engine in ("divisor", "auto", "chevalley", "rimhook", "pieri"):
        assert cli.main(["product", "A2", "flag", "--u", "s1", "--v", "s2",
                         "--engine", engine]) == 1
        assert "unrecognized arguments: --engine" in capsys.readouterr().err


def test_verify_runs_one_label_search_per_source(monkeypatch):
    # chain-symmetry asks (u, v) and (v, u), the product sweep (u, v)
    # again: u's frontier row answers every v from one search from u
    P = _fresh("A", 3, ())
    real, searched = P._label_search, []

    def counted(sources):
        searched.append(sources)
        return real(sources)

    P._label_search = counted
    monkeypatch.setattr(checks, "build_instance", lambda tokens: ("A3 flag", P))
    rows = checks.run_instance_checks(("A3", "flag"))
    assert {r.name for r in rows} >= {"chain-symmetry", "minimal-degree-agreement"}
    assert all(r.passed for r in rows)
    assert sorted(searched) == sorted(P.up_set(u) for u in P.cosets())
    assert len(searched) == len(set(searched)) == 24


def test_bruhat_duality_reads_the_bitsets_and_catches_a_wrong_dual():
    (row,) = checks.check_bruhat_duality(_fresh("A", 3, ()), "A3 flag")
    assert row.passed and row.checked == 2 * 24 + 24 ** 2
    # conjugate w_o by swapping s1 and s2: still a length-reversing
    # involution, but s1 and s2 are not exchanged by any Bruhat automorphism
    P = _fresh("A", 3, ())
    s1, s2 = P.cosets()[1:3]
    swap = {s1: s2, s2: s1}
    real = P.dual

    def dual(u):
        d = real(swap.get(u, u))
        return swap.get(d, d)

    P.dual = dual
    (row,) = checks.check_bruhat_duality(P, "A3 flag")
    assert not row.passed
    # the same row, failures and all, as the lifting walk gives
    cosets = P.cosets()
    bad = [f"u<=v vs dual(v)<=dual(u) differ at {u.word()},{v.word()}"
           for u in cosets for v in cosets
           if P.bruhat_leq(u, v) != P.bruhat_leq(P.dual(v), P.dual(u))]
    assert bad and row == checks._result("A3 flag", "bruhat-duality", bad, row.checked)


def test_pairing_integrality_flags_a_fractional_pairing(monkeypatch):
    P = _fresh("A", 2, ())
    alpha = P.system.positive_roots[0]
    real = P.system.pairing
    monkeypatch.setattr(P.system, "pairing", lambda root, i: (
        Fraction(1, 2) if (root, i) == (alpha, 0) else real(root, i)))
    (row,) = checks.check_pairing_integrality(P, "A2 flag")
    assert not row.passed
    assert row.detail == f"h_{alpha.coeffs}(w1) = 1/2"


def test_weyl_structure_flags_a_wrong_group_order(monkeypatch):
    monkeypatch.setattr(checks, "weyl_group_order", lambda system: 7)
    (row,) = checks.check_weyl_structure(_fresh("A", 2, ()), "A2 flag")
    assert not row.passed
    assert row.detail == "|W| = 6, expected 7"


def test_weyl_structure_flags_a_wrong_longest_element(monkeypatch):
    # the identity as w_o: not of length |R+|, and l(wo*w) = l(w) misses
    # l(wo) - l(w) everywhere but at length 3/2, which A2 has none of
    P = _fresh("A", 2, ())
    monkeypatch.setattr(checks, "longest_element", lambda system: identity(system))
    (row,) = checks.check_weyl_structure(P, "A2 flag")
    assert not row.passed
    assert row.detail == ("longest element is not a length-|R+| involution; "
                          "l(wo*w) != l(wo)-l(w) at (); l(wo*w) != l(wo)-l(w) at (0,); "
                          "... 7 failures total")


def test_weyl_structure_flags_a_reflection_that_keeps_the_length(monkeypatch):
    P = _fresh("A", 2, ())
    monkeypatch.setattr(checks, "simple_reflection", lambda system, i: identity(system))
    (row,) = checks.check_weyl_structure(P, "A2 flag")
    assert not row.passed
    assert row.detail == ("l(w*s1) != l(w)+-1 at (); l(w*s2) != l(w)+-1 at (); "
                          "l(w*s1) != l(w)+-1 at (0,); ... 12 failures total")


def test_bruhat_duality_flags_a_dual_of_the_wrong_length():
    # e and s1 swapped as each other's duals: involutive there, but short
    P = _fresh("A", 2, ())
    e, s1 = P.cosets()[:2]
    P._dual[e], P._dual[s1] = s1, e
    (row,) = checks.check_bruhat_duality(P, "A2 flag")
    assert not row.passed
    assert row.detail.startswith(f"dual length off at {e.word()}; "
                                 f"dual length off at {s1.word()}; ")


def test_wp_degree_invariance_flags_a_root_moved_out():
    # s_i, i in Delta_P, sends alpha to another crossing root: drop that one
    P = _fresh("A", 3, (0, 2))  # gr 2 4
    i, alpha, shift = next(
        (i, c.root.coeffs, shift) for i in sorted(P.delta_P) for c in P.crossing_table
        if (shift := sum(map(mul, P.system.cartan[i], c.root.coeffs))))
    del P._entry[alpha[:i] + (alpha[i] - shift,) + alpha[i + 1:]]
    (row,) = checks.check_wp_degree_invariance(P, "gr 2 4")
    assert not row.passed
    assert row.detail.startswith(f"W_P moved {alpha} out of the crossing set")


class ZeroAtEngine:
    """The quotient's own engine, but zero at one pair."""

    def __init__(self, P, pair):
        self.inner, self.pair = product_engine(P), pair

    def product(self, u, v):
        if (u, v) == self.pair:
            return QClass.zero(u.quotient)
        return self.inner.product(u, v)


def test_nonvanishing_flags_a_zero_product_and_skips_its_other_rows():
    # (top, top) is its own transpose and not a Chevalley column, so the
    # zero product fails nonvanishing alone: the other rows skip the pair
    P = make_parabolic("A", 2, ())
    top = P.cosets()[-1]
    rows = rows_by_name(checks._product_sweep(P, "A2 flag", ZeroAtEngine(P, (top, top))))
    assert rows["nonvanishing"].detail == f"zero product at {top.word()},{top.word()}"
    assert [name for name, row in rows.items() if not row.passed] == ["nonvanishing"]


def test_quantum_monk_flags_a_wrong_chevalley_column(monkeypatch):
    P = _fresh("A", 2, ())
    e = P.identity_coset()
    real = checks.quantum_chevalley
    monkeypatch.setattr(checks, "quantum_chevalley", lambda Q, r, u: (
        QClass.zero(Q) if (r, u) == (0, e) else real(Q, r, u)))
    (row,) = checks.check_quantum_monk(P, "A2 flag")
    assert not row.passed
    assert row.detail == f"Monk pattern differs at {e.word()}, node 1"


def test_bruhat_duality_tests_the_involution_through_the_dual_memo():
    # dual is memoised one way only, so dual(dual(u)) is looked up under
    # dual(u): a wrong entry there, of the right length, must be caught
    P = _fresh("A", 3, ())
    s1, s2 = P.cosets()[1:3]
    P._dual[P.dual(s1)] = s2
    (row,) = checks.check_bruhat_duality(P, "A3 flag")
    assert not row.passed
    assert row.detail.startswith(f"dual not involutive at {s1.word()}")


class ZeroEngine:
    """Every product is zero: no pair has a witness."""

    def __init__(self, P):
        self.P = P

    def product(self, u, w):
        return QClass.zero(self.P)


class WrongLengthEngine(ZeroEngine):
    """sigma_u * sigma_w holds, at degree 0, every class of length
    l(u) + l(w) + 1: the classes a witness needs, each from a w one step
    too short, so none of them is a witness."""

    def product(self, u, w):
        zero = (0,) * len(self.P.q_index)
        return QClass(self.P, {(zero, v): 1 for v in self.P.cosets()
                               if v.length == u.length + w.length + 1})


@pytest.mark.parametrize("engine_class", [ZeroEngine, WrongLengthEngine],
                         ids=["zero", "wrong-length"])
def test_raising_witness_reports_a_pair_without_witness(engine_class):
    P = make_parabolic("A", 2, ())
    (row,) = checks.check_raising_witness(P, "A2 flag", engine_class(P))
    cosets = P.cosets()
    comparable = sum(P.bruhat_leq(u, v) for u in cosets for v in cosets)
    assert not row.passed and row.checked == comparable
    assert row.detail == ("no witness for () <= (); no witness for () <= (0,); "
                          f"no witness for () <= (1,); ... {comparable} failures total")


def test_only_graph_structure_runs_the_lifting_walk(monkeypatch):
    # graph-structure proves the up/down-set bitsets equal to bruhat_leq on
    # every pair; every other row reads the bitsets
    real, callers = ParabolicData.bruhat_leq, []

    def recorded(self, u, v):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(self, u, v)

    monkeypatch.setattr(ParabolicData, "bruhat_leq", recorded)
    for tokens in (("gr", "3", "6"), ("A3", "flag")):
        callers.clear()
        rows = checks.run_instance_checks(tokens)
        assert all(r.passed for r in rows), tokens
        assert set(callers) == {"check_graph_structure"}, tokens
        assert len(callers) == len(checks.build_instance(tokens)[1].cosets()) ** 2


def test_verify_passes_on_larger_flags():
    # the stretch flags beyond the default suite, weyl-structure and the
    # witness search included
    for tokens in (("B3", "flag"), ("C3", "flag"), ("A4", "flag")):
        rows = checks.run_instance_checks(tokens)
        assert all(r.passed for r in rows), [r for r in rows if not r.passed]
        names = {r.name for r in rows}
        assert {"weyl-structure", "raising-witness"} <= names, tokens


def old_wp_degree_invariance(P: ParabolicData, label: str) -> list:
    """The walk over every element of W_P that the generator check replaced,
    kept verbatim as its oracle."""
    bad = []
    count = 0
    wp = enumerate_parabolic_subgroup(P.system, P.delta_P)
    for w in wp:
        for alpha in P.crossing_roots:
            count += 1
            image = w.apply_root(alpha)
            coeffs = image.coeffs
            if all(c <= 0 for c in coeffs):
                image = -image
            if not P.is_crossing(image):
                bad.append(f"W_P moved {alpha.coeffs} out of the crossing set")
                continue
            if P.degree_of_root(image) != P.degree_of_root(alpha):
                bad.append(f"degree changed under W_P at {alpha.coeffs}")
    return [checks._result(label, "wp-degree-invariance", bad, count)]


WP_QUOTIENTS = ("gr 2 4", "gr 3 6", "B3 2", "C3 1 3", "D4 1 3", "A4 2 3", "G2 1", "F4 1")


def _corrupted(P: ParabolicData) -> ParabolicData:
    """A fresh copy of P whose table gives one root, moved by some s_i with
    i in Delta_P, a wrong degree."""
    Q = ParabolicData(P.system, P.delta_P)
    cartan = P.system.cartan
    k, c = next((k, c) for k, c in enumerate(Q.crossing_table)
                if any(sum(a * b for a, b in zip(cartan[i], c.root.coeffs))
                       for i in Q.delta_P))
    bad = c._replace(degree=(c.degree[0] + 1,) + c.degree[1:])
    Q.crossing_table = Q.crossing_table[:k] + (bad,) + Q.crossing_table[k + 1:]
    Q._entry[c.root.coeffs] = bad
    return Q


@pytest.mark.parametrize("label", WP_QUOTIENTS)
def test_wp_degree_invariance_agrees_with_the_full_walk(label):
    P = checks.build_instance(label.split())[1]
    (new,) = checks.check_wp_degree_invariance(P, label)
    (old,) = old_wp_degree_invariance(P, label)
    assert new.passed and old.passed
    assert new.checked == len(P.delta_P) * len(P.crossing_roots)
    Q = _corrupted(P)
    (new,) = checks.check_wp_degree_invariance(Q, label)
    (old,) = old_wp_degree_invariance(Q, label)
    assert not new.passed and "degree changed under W_P" in new.detail
    assert not old.passed and "degree changed under W_P" in old.detail


def test_guards_refuse_before_the_first_check(monkeypatch):
    # A3 flag is far inside the enumeration guard, so the group-order guard
    # alone refuses it, and before any row is computed
    calls = []

    def spy(P, label):
        calls.append(label)
        return []

    monkeypatch.setattr(checks, "check_pairing_integrality", spy)
    with pytest.raises(GroupSizeGuardError, match="group-order guard"):
        checks.run_instance_checks(("A3", "flag"), max_group_order=10)
    assert calls == []


def test_build_instance_refuses_an_empty_description():
    with pytest.raises(ValueError, match="^empty instance description$") as err:
        checks.build_instance(())
    assert err.type is ValueError
