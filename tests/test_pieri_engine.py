"""The Pieri-row engine on Gr(k, n) against its oracles.

The engine is the divisor engine's plan builder and column loop fed the
quantum Pieri rows sigma_p * sigma_lam, p = 1..n-k.  Its answers must
equal the rim-hook rule's (`_qproduct`) on every ordered pair, its p = 1
rows must equal the quantum Chevalley operator, and a corrupted Pieri row
must fail a verify row or raise InvariantError.
"""

import pytest

from qschub import checks
from qschub.grassmann import (
    PieriEngine,
    _qproduct,
    grassmannian_parabolic,
    partition_of_coset,
)
from qschub.parabolic import ParabolicData
from qschub.quantum import product_engine, quantum_chevalley
from qschub.roots import InvariantError

BOXES = [(1, 3), (2, 4), (2, 5), (2, 7), (3, 6), (3, 7), (4, 8), (5, 8)]


def fresh(k, n):
    """An uncached Gr(k, n), so its engine is built by the test and dropped after."""
    cached = grassmannian_parabolic(k, n)
    return ParabolicData(cached.system, cached.delta_P)


@pytest.mark.parametrize("k, n", BOXES)
def test_products_equal_the_rim_hook_rule_on_every_pair(k, n):
    P = fresh(k, n)
    engine = product_engine(P)
    assert isinstance(engine, PieriEngine)
    labels = [partition_of_coset(P, u) for u in P.cosets()]
    for u, lam in zip(P.cosets(), labels):
        for v, mu in zip(P.cosets(), labels):
            got = {(d, labels[w.index]): c for ((d,), w), c in engine.product(u, v).terms.items()}
            assert got == _qproduct(k, n, lam, mu), (lam, mu)
    # every decomposition is integral up to gr 5 10
    assert {plan[0] for plan in engine._plans[1:]} == {1}


@pytest.mark.parametrize("k, n", BOXES)
def test_first_pieri_row_is_the_quantum_chevalley_row(k, n):
    P = fresh(k, n)
    engine = PieriEngine(P)
    for w in P.cosets():
        want = {engine._packer.pack(d) << engine._bits | v.index: h
                for (d, v), h in quantum_chevalley(P, k - 1, w).terms.items()}
        assert dict(engine._rows[0][w.index]) == want, w


def test_generators_have_degrees_one_to_n_minus_k():
    P = fresh(3, 7)
    engine = PieriEngine(P)
    gens = engine._generators(engine._shift)
    assert [degree for _rows, degree in gens] == [1, 2, 3, 4]
    assert [rows for rows, _degree in gens] == engine._rows


def test_only_grassmannians_are_admitted():
    for P in (grassmannian_parabolic(1, 2), checks.build_instance(("B3", "1"))[1]):
        with pytest.raises(ValueError, match="the Pieri engine needs a Grassmannian"):
            PieriEngine(P)


# ---------------------------------------------------------------------------
# corrupted Pieri rows against the verify rows


def verify_with_corrupted_rows(monkeypatch, tokens, mutate):
    """run_instance_checks on the cached quotient of `tokens`, its engine
    rebuilt from Pieri rows that `mutate(engine, generators)` corrupts."""
    build = PieriEngine._generators

    def generators(self, shift):
        gens = build(self, shift)
        mutate(self, gens)
        return gens

    monkeypatch.setattr(PieriEngine, "_generators", generators)
    P = checks.build_instance(tokens)[1]
    monkeypatch.setattr(P, "_divisor_engine", None)  # restored after the test
    rows = checks.run_instance_checks(tokens)
    return {r.name for r in rows if not r.passed}


def double_quantum_terms(p):
    def mutate(engine, gens):
        rows = gens[p - 1][0]
        for wi, row in enumerate(rows):
            rows[wi] = tuple((key, 2 * h if key > engine._mask else h) for key, h in row)
    return mutate


def raise_first_term(p, quantum):
    def mutate(engine, gens):
        rows = gens[p - 1][0]
        for wi, row in enumerate(rows):
            for j, (key, h) in enumerate(row):
                if (key > engine._mask) == quantum:
                    rows[wi] = row[:j] + ((key, h + 1),) + row[j + 1:]
                    return
        raise AssertionError(f"no {'quantum' if quantum else 'classical'} term at p = {p}")
    return mutate


def test_doubled_q_in_the_first_row_fails_the_chevalley_column(monkeypatch):
    # q -> 2q in the p = 1 row alone; chevalley-column compares that row
    # with the quantum Chevalley operator
    failed = verify_with_corrupted_rows(monkeypatch, ("gr", "3", "6"), double_quantum_terms(1))
    assert "chevalley-column" in failed
    assert failed == {"nonnegativity", "commutativity", "degree-triple-agreement",
                      "chevalley-column", "associativity"}


def test_a_raised_quantum_coefficient_at_p_2_fails_verify_rows(monkeypatch):
    failed = verify_with_corrupted_rows(monkeypatch, ("gr", "3", "6"), raise_first_term(2, True))
    assert failed == {"nonnegativity", "commutativity", "associativity"}


def test_a_raised_classical_coefficient_at_p_2_raises(monkeypatch):
    with pytest.raises(InvariantError, match="non-integral coefficient"):
        verify_with_corrupted_rows(monkeypatch, ("gr", "3", "6"), raise_first_term(2, False))
