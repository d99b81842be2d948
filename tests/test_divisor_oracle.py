"""The integer divisor engine against the engines it replaced.

`FractionEngine` is a test-local copy of the earlier `DivisorEngine`:
the same elimination and quantum corrections, kept as exact rationals,
and products built by class addition with one integrality check at the
end.  That arithmetic (`add`, `scale`, `shift`, `integral`) lives here
too, as it was on `QClass` before the integer engine made it unused.
`TupleEngine` is a test-local copy of the integer product recursion as
it was before packed keys: terms keyed (degree, coset), every column and
product a QClass.  `PackedRecursion` is a test-local copy of the packed
recursion as it was before product columns: one memoised call per pair
(u, v), keyed ``ui << b | vi``.  The engine must give the same terms on
every pair it is asked, and every coefficient must be a Python int.  The all-pairs
digests at the end were recorded from the engine that still memoised its
divisor columns.
"""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest

import qschub.quantum
from qschub import make_parabolic
from qschub.parabolic import ParabolicData, degree_add
from qschub.quantum import (
    DivisorEngine,
    QClass,
    _IntegerSolver,
    classical_chevalley,
    product_engine,
    qproduct_GB,
    quantum_chevalley,
)
from qschub.roots import InvariantError


def add(a, b):
    out = QClass(a.context, dict(a.terms))
    for (d, u), c in b.terms.items():
        out.add_term(d, u, c)
    return out


def scale(a, c):
    return QClass(a.context, {k: c * v for k, v in a.terms.items()} if c else {})


def shift(a, degree):
    """a times the monomial q^degree."""
    return QClass(a.context, {(degree_add(d, degree), u): c for (d, u), c in a.terms.items()})


def integral(a):
    """a with every coefficient an int; InvariantError on a proper fraction."""
    out = {}
    for k, c in a.terms.items():
        f = Fraction(c)
        if f.denominator != 1:
            raise InvariantError(f"non-integral coefficient {c} at {k}")
        out[k] = int(f)
    return QClass(a.context, out)


def fraction_expressions(P):
    """(u, [(x, b, w)]) per coset of positive length, lengths in order:
    sigma_u = sum x * sigma_{s_b} . sigma_w classically, x a nonzero
    Fraction, from Gauss-Jordan elimination on [A | I] over Fractions.

    The columns (b, w) go in sparsest first: by the number of terms of
    sigma_{s_b} . sigma_w, then of sigma_{s_b} * sigma_w, ties in
    (b, w) order."""
    by_length = {}
    for u in P.cosets():
        by_length.setdefault(u.length, []).append(u)
    for k in range(1, max(by_length) + 1):
        level, prev = by_length[k], by_length[k - 1]
        pos = {u: i for i, u in enumerate(level)}
        pairs = sorted(((b, w) for b in range(P.system.rank) for w in prev),
                       key=lambda bw: (len(classical_chevalley(P, *bw).terms),
                                       len(quantum_chevalley(P, *bw).terms)))
        columns = []
        for b, w in pairs:
            col = [Fraction(0)] * len(level)
            for (_d, v), h in classical_chevalley(P, b, w).terms.items():
                col[pos[v]] += h
            columns.append(col)
        rows, pivots = FractionEngine._reduce(columns, len(level))
        for u in level:
            target = [Fraction(1 if x == u else 0) for x in level]
            x = FractionEngine._solve(rows, pivots, len(columns), target)
            yield u, [(x[i], b, w) for i, (b, w) in enumerate(pairs) if x[i] != 0]


class FractionEngine:
    """Divisor recursion over Fractions, as before integer decompositions."""

    def __init__(self, P):
        self.P = P
        self.decomp = {}
        self.products = {}
        self.columns = {}
        for u, chosen in fraction_expressions(P):
            acc = QClass.zero(P)
            for coeff, b, w in chosen:
                acc = add(acc, scale(quantum_chevalley(P, b, w), coeff))
            residue = add(acc, QClass.basis(P, u, coeff=-1))
            corrections = [(c, d, w2) for (d, w2), c in residue.sorted_terms()]
            self.decomp[u] = (chosen, corrections)

    @staticmethod
    def _reduce(columns, nrows):
        ncols = len(columns)
        rows = [[Fraction(columns[j][i]) for j in range(ncols)]
                + [Fraction(1 if k == i else 0) for k in range(nrows)]
                for i in range(nrows)]
        pivots, r = [], 0
        for col in range(ncols):
            piv = next((i for i in range(r, nrows) if rows[i][col] != 0), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = 1 / rows[r][col]
            rows[r] = [x * inv for x in rows[r]]
            for i in range(nrows):
                if i != r and rows[i][col] != 0:
                    f = rows[i][col]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            pivots.append((r, col))
            r += 1
            if r == nrows:
                break
        return rows, pivots

    @staticmethod
    def _solve(rows, pivots, ncols, b):
        y = [sum(row[ncols + k] * b[k] for k in range(len(b))) for row in rows]
        x = [Fraction(0)] * ncols
        for r, col in pivots:
            x[col] = y[r]
        return x

    def column(self, b, w, v):
        key = (b, w, v)
        if key not in self.columns:
            out = QClass.zero(self.P)
            for (d, x), c in self.product(w, v).terms.items():
                out = add(out, scale(shift(quantum_chevalley(self.P, b, x), d), c))
            self.columns[key] = out
        return self.columns[key]

    def product(self, u, v):
        key = (u, v)
        if key not in self.products:
            if u.length == 0:
                out = QClass.basis(self.P, v)
            else:
                chosen, corrections = self.decomp[u]
                out = QClass.zero(self.P)
                for coeff, b, w in chosen:
                    out = add(out, scale(self.column(b, w, v), coeff))
                for c, d, w2 in corrections:
                    out = add(out, scale(shift(self.product(w2, v), d), -c))
                out = integral(out)
            self.products[key] = out
        return self.products[key]


def decompositions(engine):
    """The engine's `_plans` unpacked: {u: (den, [(n, b, w)], [(n', d, w')])}
    for each coset of positive length, each list in the engine's order."""
    cosets, unpack = engine.cosets, engine._packer.unpack
    table = {}
    for ui, plan in enumerate(engine._plans):
        if plan is not None:
            den, chosen, corrections = plan
            table[cosets[ui]] = (
                den,
                [(n, b, cosets[wi]) for n, b, wi in chosen],
                [(n, unpack(shift >> engine._bits), cosets[wi])
                 for n, shift, wi in corrections])
    return table


@lru_cache(maxsize=None)
def _engines(type_label, rank):
    # the engine qproduct_GB uses, cached on the quotient
    P = make_parabolic(type_label, rank, ())
    return P, product_engine(P), FractionEngine(P)


def _agree(new, old, u, v):
    got, want = new.product(u, v), old.product(u, v)
    assert got.terms == want.terms, (u, v)
    assert all(type(c) is int for c in got.terms.values()), (u, v)


@pytest.mark.parametrize("type_label,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("G", 2), ("B", 3), ("C", 3)])
def test_integer_engine_matches_fraction_engine_on_all_pairs(type_label, rank):
    P, new, old = _engines(type_label, rank)
    for u in P.cosets():
        for v in P.cosets():
            _agree(new, old, u, v)


@pytest.mark.parametrize("type_label,rank,pairs", [("A", 4, 40), ("D", 4, 6)])
def test_integer_engine_matches_fraction_engine_on_seeded_pairs(type_label, rank, pairs):
    P, new, old = _engines(type_label, rank)
    rng = random.Random(7)
    cosets = P.cosets()
    for _ in range(pairs):
        _agree(new, old, rng.choice(cosets), rng.choice(cosets))


def test_d4_decompositions_have_denominator_two():
    new = _engines("D", 4)[1]
    assert {den for den, _c, _k in decompositions(new).values()} == {1, 2}


def corrupted_engine():
    """A B2 engine with one stored numerator raised by one, and its class u.

    The numerator is one whose divisor term has a coefficient that den
    does not divide, so sigma_u * sigma_e can no longer divide exactly.
    The engine reads `_plans[ui]` on every product with u, and the
    corruption is made before any product.
    """
    P = make_parabolic("B", 2, ())
    engine = DivisorEngine(P)
    for ui in range(1, len(engine.cosets)):
        den, chosen, corrections = engine._plans[ui]
        for i, (n, b, wi) in enumerate(chosen):
            if any(h % den for _key, h in engine._rows[b][wi]):
                chosen = list(chosen)
                chosen[i] = (n + 1, b, wi)
                engine._plans[ui] = (den, chosen, corrections)
                return engine, engine.cosets[ui]
    raise AssertionError("no B2 decomposition has a denominator")


def test_corrupted_numerator_raises():
    engine, u = corrupted_engine()
    with pytest.raises(InvariantError, match="non-integral coefficient"):
        engine.product(u, engine.P.identity_coset())
    assert not engine._column  # a column that failed is not memoised


def overflowing_engine():
    """Build an A2 engine whose Chevalley terms have every quantum degree
    raised past the grading bound l(w0) = 3.

    A correction's key is a row key, so the row is where the degree gets
    packed: the build packs every row from `_chevalley_terms`, and
    sigma_s1 * sigma_s1 = sigma_{s2 s1} + q_1 is one of them.
    """
    P = ParabolicData(make_parabolic("A", 2, ()).system, ())
    terms = qschub.quantum._chevalley_terms
    raised = (P.dim + 1,) * len(P.q_index)

    def overflowing(P, u):
        for quantum, v, c in terms(P, u):
            yield quantum, v, c._replace(degree=raised) if quantum else c

    qschub.quantum._chevalley_terms = overflowing
    try:
        return DivisorEngine(P)
    finally:
        qschub.quantum._chevalley_terms = terms


@pytest.mark.parametrize("type_label,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2)])
def test_rows_are_the_packed_chevalley_terms_from_the_build(type_label, rank):
    # before any product, every row is the operator's terms packed, in order
    P = make_parabolic(type_label, rank, ())
    engine = DivisorEngine(P)
    for b in range(rank):
        assert len(engine._rows[b]) == len(engine.cosets)
        for w in engine.cosets:
            want = tuple((engine._packer.pack(d) << engine._bits | v.index, h)
                         for (d, v), h in quantum_chevalley(P, b, w).terms.items())
            assert engine._rows[b][w.index] == want, (b, w)


def test_correction_degree_past_the_packed_field_raises():
    with pytest.raises(InvariantError,
                       match=r"degree \(4, 4\) does not fit its packed field: "
                             r"coordinates must lie in 0\.\.3 = l\(w0\) on A2 flag"):
        overflowing_engine()


def test_correction_degree_past_the_packed_field_raises_under_optimisation():
    out = run_optimised("overflowing_engine()")
    assert out.startswith("InvariantError degree (4, 4) does not fit its packed field")


def test_foreign_cosets_raise_value_error():
    # a second quotient of the same group interns its own cosets
    P = make_parabolic("A", 2, ())
    foreign = ParabolicData(P.system, ()).cosets()[1]
    u, e = P.cosets()[1], P.identity_coset()
    for a, b in ((foreign, e), (u, foreign)):
        with pytest.raises(ValueError,
                           match=r"Coset\[s1\] is not a coset of this A2 flag quotient"):
            qproduct_GB(P, a, b)


def run_optimised(statement):
    """Run `statement` under python -O; print the exception it raises."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    code = (
        "from test_divisor_oracle import *\n"
        "try:\n"
        f"    print({statement})\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, here, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def corrupted_product():
    engine, u = corrupted_engine()
    return engine.product(u, engine.P.identity_coset()).terms


def test_corrupted_numerator_raises_under_optimisation():
    # bare asserts vanish under -O; the exact-division check must not
    out = run_optimised("corrupted_product()")
    assert out.startswith("InvariantError non-integral coefficient")


# ---------------------------------------------------------------------------
# the integer elimination against the Fraction one


def oracle_decompositions(P):
    """The engine's (den, chosen, corrections) table, from Fraction solutions.

    den is the least common denominator of the Fraction coefficients x,
    chosen holds (den * x, b, w) in column order, and corrections the
    negated residue of the quantum evaluation in the order the engine
    sums it.
    """
    zero = (0,) * len(P.q_index)
    table = {}
    for u, x in fraction_expressions(P):
        den = lcm(*(c.denominator for c, _b, _w in x))
        chosen = [(int(c * den), b, w) for c, b, w in x]
        acc = {}
        for n, b, w in chosen:
            for key, h in quantum_chevalley(P, b, w).terms.items():
                acc[key] = acc.get(key, 0) + n * h
        acc[(zero, u)] = acc.get((zero, u), 0) - den
        table[u] = (den, chosen, [(-c, d, w2) for (d, w2), c in acc.items() if c])
    return table


@pytest.mark.parametrize("type_label,rank,guard", [
    ("A", 1, 240), ("A", 2, 240), ("A", 3, 240), ("A", 4, 240), ("B", 2, 240),
    ("B", 3, 240), ("C", 2, 240), ("C", 3, 240), ("D", 4, 240), ("G", 2, 240),
    ("B", 4, 384), ("C", 4, 384)])
def test_integer_decompositions_match_fraction_elimination(type_label, rank, guard):
    # a fresh quotient, its engine built under the group-order guard it needs
    P = ParabolicData(make_parabolic(type_label, rank, ()).system, ())
    got = decompositions(product_engine(P, guard))
    want = oracle_decompositions(P)
    assert list(got) == list(want)
    for u, entry in want.items():
        assert got[u] == entry, u  # values and list order
        den, chosen, _corrections = got[u]
        assert type(den) is int and all(type(n) is int for n, _b, _w in chosen), u


@pytest.mark.parametrize("type_label,rank,mean_bound", [("A", 4, 1.3), ("D", 4, 1.9)])
def test_decompositions_are_sparse(type_label, rank, mean_bound):
    # sparsest columns first: a class that is h * sigma_{s_b} . sigma_w
    # classically is that one term; in (b, w) order the means were 2.44
    # on A4 flag and 5.75 on D4 flag
    P = ParabolicData(make_parabolic(type_label, rank, ()).system, ())
    table = decompositions(DivisorEngine(P))
    sizes = [len(chosen) for _den, chosen, _corrections in table.values()]
    assert sum(sizes) / len(sizes) <= mean_bound
    single = set()  # classes that are h * sigma_{s_b} . sigma_w for some (b, w)
    for b in range(P.system.rank):
        for w in P.cosets():
            terms = classical_chevalley(P, b, w).terms
            if len(terms) == 1:
                [(_d, u)] = terms
                single.add(u)
    assert single
    for u in single:
        assert len(table[u][1]) == 1, u


def test_solver_reads_lowest_terms_over_one_denominator():
    # A = [[2, 1], [0, 3]] (columns [2, 0] and [1, 3]): A^-1 = [[1/2, -1/6], [0, 1/3]]
    solver = _IntegerSolver([[2, 0], [1, 3]], 2)
    assert solver.solve_unit(0) == (2, [(0, 1)])
    assert solver.solve_unit(1) == (6, [(0, -1), (1, 2)])


def rank_deficient_solve():
    # the second column is twice the first: e_1 is not in the span
    return _IntegerSolver([[1, 0], [2, 0]], 2).solve_unit(1)


def test_rank_deficient_columns_raise():
    assert _IntegerSolver([[1, 0], [2, 0]], 2).solve_unit(0) == (1, [(0, 1)])
    with pytest.raises(InvariantError, match="inconsistent system"):
        rank_deficient_solve()


def test_rank_deficient_columns_raise_under_optimisation():
    out = run_optimised("rank_deficient_solve()")
    assert out.startswith("InvariantError inconsistent system")


# ---------------------------------------------------------------------------
# the packed product recursion against the tuple-keyed one


class TupleEngine:
    """The product recursion on (degree, coset) keys, as before packed keys.

    It multiplies with the live decompositions of a DivisorEngine, so the
    two differ only in how terms are keyed and summed.
    """

    def __init__(self, engine):
        self.P, self._decomp = engine.P, decompositions(engine)
        self._qchev, self._products, self._column, self._sums = {}, {}, {}, {}

    def qchev(self, beta_index, u):
        got = self._qchev.get((beta_index, u))
        if got is None:
            got = self._qchev[(beta_index, u)] = quantum_chevalley(self.P, beta_index, u)
        return got

    def apply_divisor(self, beta_index, c):
        """Multiply a class by sigma_{s_beta}."""
        acc = {}
        for (d, u), coeff in c.terms.items():
            self._add_shifted(acc, coeff, d, self.qchev(beta_index, u).terms)
        return QClass(self.P, {k: n for k, n in acc.items() if n})

    def _add_shifted(self, acc, n, d, terms):
        """acc += n * q^d * terms, in place."""
        get = acc.get
        sums = self._sums
        for (d2, v), c in terms.items():
            s = sums.get((d, d2))
            if s is None:
                s = sums[(d, d2)] = degree_add(d, d2)
            key = (s, v)
            acc[key] = get(key, 0) + n * c

    def _column_product(self, beta_index, w, v):
        key = (beta_index, w, v)
        got = self._column.get(key)
        if got is None:
            got = self._column[key] = self.apply_divisor(beta_index, self.product(w, v))
        return got

    def product(self, u, v):
        key = (u, v)
        got = self._products.get(key)
        if got is not None:
            return got
        if u.length == 0:
            got = QClass.basis(self.P, v)
        else:
            den, chosen, corrections = self._decomp[u]
            acc = {}
            get = acc.get
            for n, b, w in chosen:
                for k, c in self._column_product(b, w, v).terms.items():
                    acc[k] = get(k, 0) + n * c
            for n, d, w2 in corrections:
                self._add_shifted(acc, n, d, self.product(w2, v).terms)
            terms = {}
            for k, c in acc.items():
                if c:
                    q, r = divmod(c, den)
                    if r:
                        raise InvariantError(f"non-integral coefficient at {k}")
                    terms[k] = q
            got = QClass(self.P, terms)
        self._products[key] = got
        return got


@pytest.mark.parametrize("type_label,rank", [("A", 4), ("D", 4)])
def test_packed_engine_matches_tuple_keyed_recursion_on_all_pairs(type_label, rank):
    # a fresh quotient, so the memos of every pair are dropped after the test
    P = ParabolicData(make_parabolic(type_label, rank, ()).system, ())
    new = DivisorEngine(P)
    old = TupleEngine(new)
    for u in P.cosets():
        for v in P.cosets():
            got, want = new.product(u, v), old.product(u, v)
            assert list(got.terms.items()) == list(want.terms.items()), (u, v)
            assert all(type(c) is int for c in got.terms.values()), (u, v)


# ---------------------------------------------------------------------------
# product columns against the memoised packed recursion


class PackedRecursion:
    """sigma_u * sigma_v as it was computed before product columns.

    One memoised call per pair, keyed ``ui << b | vi``, each miss
    recursing into the pairs (w, v) its plan reads.  It multiplies with
    the live plans and rows of a DivisorEngine, so the two differ only in
    the order the pairs are built.
    """

    def __init__(self, engine):
        self.engine = engine
        self._packed = {}

    def product(self, ui, vi):
        engine = self.engine
        key = ui << engine._bits | vi
        got = self._packed.get(key)
        if got is not None:
            return got
        if ui == 0:  # the identity coset
            got = {vi: 1}
        else:
            den, chosen, corrections = engine._plans[ui]
            mask = engine._mask
            acc = {}
            get = acc.get
            for n, b, wi in chosen:
                # n * sigma_{s_b} * (sigma_w * sigma_v), row by row
                rows = engine._rows[b]
                for k, c in self.product(wi, vi).items():
                    j = k & mask
                    base = k ^ j  # the degree part, pack(d) << b
                    c *= n
                    for rk, h in rows[j]:
                        t = base + rk
                        acc[t] = get(t, 0) + c * h
            for n, shift, w2i in corrections:
                for k, c in self.product(w2i, vi).items():
                    k += shift
                    acc[k] = get(k, 0) + n * c
            got = {}
            for k, c in acc.items():
                if c:
                    q, r = divmod(c, den)
                    if r:
                        raise InvariantError(f"non-integral coefficient at {k}")
                    got[k] = q
        self._packed[key] = got
        return got


@pytest.mark.parametrize("type_label,rank", [
    ("A", 3), ("B", 3), ("C", 3), ("G", 2), ("A", 4),
    ("D", 4)])  # D4 has plans with denominator 2
def test_product_columns_match_the_packed_recursion_on_all_pairs(type_label, rank):
    # a fresh quotient, so the memos of every pair are dropped after the test
    P = ParabolicData(make_parabolic(type_label, rank, ()).system, ())
    new = DivisorEngine(P)
    old = PackedRecursion(new)
    terms = new._terms
    for u in P.cosets():
        for v in P.cosets():
            want = [(terms[k], c) for k, c in old.product(u.index, v.index).items()]
            assert list(new.product(u, v).terms.items()) == want, (u, v)  # order too


def test_one_cold_product_builds_one_column():
    P = ParabolicData(make_parabolic("A", 3, ()).system, ())
    engine = DivisorEngine(P)
    cosets = P.cosets()
    assert not engine._column
    v = cosets[7]
    engine.product(cosets[5], v)
    assert list(engine._column) == [v.index]
    column = engine._column[v.index]
    assert len(column) == len(cosets)
    engine.product(cosets[9], v)
    assert list(engine._column) == [v.index] and engine._column[v.index] is column


def test_every_pair_has_one_answer_object():
    # D4 has plans with denominators 1 and 2; each answer is one QClass,
    # held in its column and nowhere else
    P = ParabolicData(make_parabolic("D", 4, ()).system, ())
    engine = DivisorEngine(P)
    cosets = P.cosets()
    for u in cosets:
        for v in cosets:
            engine.product(u, v)
    assert sorted(engine._column) == list(range(len(cosets)))
    for column in engine._column.values():
        assert len(column) == len(cosets)
        assert all(type(got) is QClass for got in column)
    for u in cosets:
        for v in cosets:
            assert engine.product(u, v) is engine._column[v.index][u.index]
    # `_products` is a view made from the columns, not a second store
    assert "_products" not in vars(engine)
    view = engine._products
    assert len(view) == len(cosets) ** 2
    assert all(got is engine._column[v.index][u.index] for (u, v), got in view.items())


def test_foreign_cosets_are_refused_after_every_column_is_built():
    # an answer is read by index, and a coset of a second A3 flag quotient
    # has the same indices: ownership is tested before the read
    P = ParabolicData(make_parabolic("A", 3, ()).system, ())
    other = ParabolicData(P.system, ())
    engine = DivisorEngine(P)
    e = P.identity_coset()
    for v in P.cosets():
        engine.product(e, v)
    assert len(engine._column) == len(P.cosets())
    foreign = other.cosets()[5]
    assert foreign.index == 5 and foreign.quotient is not P
    for args in ((foreign, e), (e, foreign)):
        with pytest.raises(ValueError, match=r"Coset\[s2\*s1\] is not a coset of this A3 flag"):
            engine.product(*args)


# ---------------------------------------------------------------------------
# all-pairs pins, recorded from the engine that memoised its divisor columns
# sigma_{s_beta} * sigma_w * sigma_v before products summed the rows directly

ALL_PAIRS = {
    ("A", 3): "e35df20678b1692191a143107802f0aadc5492b90e8a606af30650f8b405551a",
    ("B", 3): "8b2e74932e64cb01f664ec033dbaf4934fbfbf83f3708ed571ae77615f6a7912",
    ("C", 3): "6cf2569d584af7cd8692dd2198d17f5e9d8540e5839c4b9fbefc4efeffdad25e",
    ("G", 2): "4b5504fdc13ee8a73d3175932a1fe9d5cab39ffdcf5dd3b408ee574065826236",
    ("A", 4): "a9279b815251cd9fcdce0e261f97242f7db1cf83e9f6dec468d24c4313cd4b6b",
    # denominators 1 and 2; each column was read 5.75 times on average
    ("D", 4): "6bc48a4fc1f177b3be3a3433045b88d5adaba16d56b5190304e3dfa8aec150e2",
}


@pytest.mark.parametrize("type_label,rank", ALL_PAIRS)
def test_all_pairs_products_are_pinned(type_label, rank):
    # SHA-256 over every ordered pair in coset order, one line of sorted
    # (degree, coset index, coefficient) triples per pair
    P = ParabolicData(make_parabolic(type_label, rank, ()).system, ())
    engine = DivisorEngine(P)
    cosets = P.cosets()
    h = hashlib.sha256()
    for u in cosets:
        for v in cosets:
            terms = sorted((d, w.index, c) for (d, w), c in engine.product(u, v).terms.items())
            h.update(f"{terms}\n".encode())
    assert h.hexdigest() == ALL_PAIRS[(type_label, rank)]
