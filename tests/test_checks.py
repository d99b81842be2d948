"""The verification sweeps: one body for every product engine."""

from qschub import checks, grassmann
from qschub.grassmann import coset_of_partition, grassmannian_parabolic
from qschub.parabolic import ParabolicData, make_parabolic
from qschub.quantum import QClass, multiply_classes, product_engine


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
    # the rim-hook memo is keyed by the ordered pair, so one corrupted
    # entry leaves its transpose intact and the sweep still sees the split
    P = _fresh("A", 3, (0, 2))  # gr 2 4
    engine = product_engine(P)
    u, v = coset_of_partition(P, (1,)), coset_of_partition(P, (2, 1))
    engine._products[(u, v)] = times_q(engine, engine.product(u, v))
    rows = rows_by_name(checks._product_sweep(P, "gr 2 4", engine))
    assert not rows["commutativity"].passed
    assert rows["commutativity"].detail == (
        "not commutative at (1,),(2, 1); not commutative at (2, 1),(1,)")
    assert rows["nonnegativity"].passed


def test_merged_monotone_row_fails_on_a_wrong_walk(monkeypatch):
    # one walk per pair stands for "a chain at diag, none at diag - 1"
    monkeypatch.setattr(grassmann, "_least_monotone_degree",
                        lambda k, n, lam, mu, cap: cap + 1)
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


def test_chain_rows_search_each_ordered_pair_twice(monkeypatch):
    # chain-symmetry and frontier-singleton share one walk over the pairs:
    # min_chain_degrees(u, v) and (v, u) once each, n^2 pairs
    P = _fresh("A", 3, ())
    real, calls = P.min_chain_degrees, []

    def counted(u, v):
        calls.append((u, v))
        return real(u, v)

    def no_engine(*args):
        raise ValueError("no product sweep")  # the sweep reads frontiers too

    P.min_chain_degrees = counted
    monkeypatch.setattr(checks, "build_instance", lambda tokens: ("A3 flag", P))
    monkeypatch.setattr(checks, "product_engine", no_engine)
    rows = checks.run_instance_checks(("A3", "flag"))
    assert [r.name for r in rows][-2:] == ["chain-symmetry", "frontier-singleton"]
    assert all(r.passed for r in rows)
    assert len(calls) == 2 * 24 ** 2


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


def test_bruhat_duality_tests_the_involution_through_the_dual_memo():
    # dual is memoised one way only, so dual(dual(u)) is looked up under
    # dual(u): a wrong entry there, of the right length, must be caught
    P = _fresh("A", 3, ())
    s1, s2 = P.cosets()[1:3]
    P._dual[P.dual(s1)] = s2
    (row,) = checks.check_bruhat_duality(P, "A3 flag")
    assert not row.passed
    assert row.detail.startswith(f"dual not involutive at {s1.word()}")


def test_raising_witness_reports_a_pair_without_witness():
    P = make_parabolic("A", 2, ())

    class ZeroEngine:
        def product(self, u, v):
            return QClass.zero(P)

    (row,) = checks.check_raising_witness(P, "A2 flag", ZeroEngine())
    cosets = P.cosets()
    comparable = sum(P.bruhat_leq(u, v) for u in cosets for v in cosets)
    assert not row.passed and row.checked == comparable
    assert row.detail == ("no witness for () <= (); no witness for () <= (0,); "
                          f"no witness for () <= (1,); ... {comparable} failures total")


def test_verify_passes_on_larger_flags():
    # the stretch flags beyond the default suite, weyl-structure and the
    # witness search included
    for tokens in (("B3", "flag"), ("C3", "flag"), ("A4", "flag")):
        rows = checks.run_instance_checks(tokens)
        assert all(r.passed for r in rows), [r for r in rows if not r.passed]
        names = {r.name for r in rows}
        assert {"weyl-structure", "raising-witness"} <= names, tokens
