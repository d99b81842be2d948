"""Quantum cohomology of G/P: Chevalley products, full products on G/B and Gr(k, n).

Classes live in the free module over Z[q_1..q_m] (one q per retained
node) with basis the Schubert classes, i.e. the cosets of W_P.  A QClass
is a finite map (degree vector, coset) -> coefficient with no arithmetic
of its own: the engines sum products in plain dicts, and
`multiply_classes` extends a pair product bilinearly to whole classes.

Multiplication by a divisor class sigma_{s_beta} is closed-form: the
classical part raises length by one through a reflection, the quantum
part adds q^{d(alpha)} sigma_{[u t_alpha]} over crossing roots alpha
whose Chern number n_alpha exactly cancels the length bookkeeping,
l([u t_alpha]) = l(u) + 1 - n_alpha.  Both parts carry the coefficient
h_alpha(omega_beta), which is the beta-coordinate of d(alpha) because
beta is a retained node; the operator reads alpha's degree, Chern number
and target coset [u t_alpha] from the quotient's crossing-root table.

Full products are supported wherever a list of *generators* is known:
classes sigma_g that generate the cohomology ring, each given by its
degree and its rows, the quantum products sigma_g * sigma_w for every
coset w.  On full flag varieties (Delta_P empty) they are the divisor
classes sigma_{s_beta}, of degree 1, with the Chevalley rows; on
Grassmannians they are the special classes sigma_p, p = 1..n-k, of
degree p, with the quantum Pieri rows (`grassmann.PieriEngine`).  The
engine expresses each basis class classically as a rational-coefficient
polynomial in the generators (fraction-free Gauss-Jordan elimination on
integer rows, lengths in increasing order, the columns sigma_g . sigma_w
with l(w) = l(u) - deg g sparsest first), then corrects the expression
degree by degree in q: evaluating a classical expression with the
*quantum* rows reproduces sigma_u plus error terms that all carry
q-degree >= 1 and strictly smaller coset length, so they can be
subtracted recursively.  All arithmetic is in integers: each expression
is stored as integer numerators over one common denominator, read off
the eliminated rows, every product is summed in integers and divided by
that denominator once, and a division that is not exact raises
InvariantError.

The decompositions and the products run on packed integer keys: a term
q^d sigma_w is the one int ``pack(d) << b | w.index``, degrees packed by
`PackedDegrees` and each coset's `index` its position in `P.cosets()`,
so a q-shift is an integer addition and each product is summed in a
``dict[int, int]``.  The engine packs every generator row at build (the
Chevalley rows from the term list the Chevalley operators read), each
distinct degree once, and builds products one *product column* at a
time: the column at v is sigma_u * sigma_v for every u, one loop over u
in index order.  The
decomposition of sigma_u reads only products sigma_w * sigma_v with w
shorter than u, and cosets are indexed by length, so each entry is
summed from entries already in the list, with no recursion.  The packed
entries live only while their column is built: the full column is
unpacked once, each entry into the QClass that answers its pair, and
those answers are the engine's one product memo.  A cold single product
therefore builds and unpacks its whole column: up to about 23 ms on B4
flag (384 cosets), against 15-30 ms for the engine build (Python 3.11,
2-vCPU VM).  The columns of the elimination, sigma_g . sigma_w, are
not kept, nor their products sigma_g * sigma_w * sigma_v: only the
class that chooses (g, w) reads one, and summing its rows again costs
no more than building and reading it.  The field width comes from the
grading bound: every term of sigma_u * sigma_v has l(w) + sum d_i n_i =
l(u) + l(v) <= 2 dim, and every retained coroot has Chern number n_i
>= 2 (2 on G/B, n on Gr(k, n)), so no coordinate exceeds dim = the
length of the longest coset and fields of bit_length(dim) bits never
carry.

The columns enter the elimination sparsest first, by the number of
terms of sigma_g . sigma_w and then of sigma_g * sigma_w, ties in
(g, w) order.  Gauss-Jordan returns basic solutions, supported on the
pivot columns, so a class that is h times a single generator product
classically is decomposed as that one term, and every product with it
costs one row per term of sigma_w * sigma_v.  On A4 flag a
decomposition has 1.24 terms on average (2.44 in plain (beta, w)
order), on D4 flag 1.78 (5.75).

`product_engine` is the one place that picks, guards and caches the
engine that multiplies on a given quotient: the divisor engine on full
flags, under both size guards, and the Pieri engine on Grassmannians,
under the enumeration guard alone (its cost follows the C(n, k) cosets,
not |W|), each built once per quotient and cached on it.  On any other
quotient it returns None, so no caller catches an error from it: a guard
refusal or an error raised while an engine is built reaches the user.
The engines themselves refuse only a quotient their rows cannot be built
for: the divisor engine's constructor raises InvariantError when the
divisor classes do not span a level, and the Pieri rows need a
Grassmannian.
The rim-hook rule (`grassmann.qproduct_grassmann`) stays as the
Grassmannian oracle.  An engine is any object with ``product(u, v) ->
QClass``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import gcd, lcm
from typing import Callable, Optional

from .parabolic import (
    Coset,
    Degree,
    PackedDegrees,
    ParabolicData,
    degree_add,
    pareto_minima,
)
from .roots import InvariantError
from .weyl import GroupSizeGuardError

__all__ = [
    "QClass",
    "classical_chevalley",
    "quantum_chevalley",
    "qproduct_GB",
    "multiply_classes",
    "product_engine",
    "min_occurring_degrees",
    "DivisorEngine",
    "DEFAULT_PRODUCT_GUARD",
]

DEFAULT_PRODUCT_GUARD = 240  # largest |W| the divisor engine accepts by default


@dataclass(slots=True)
class QClass:
    """Finite Z[q]-linear combination of Schubert classes."""

    context: ParabolicData
    terms: dict  # (Degree, Coset) -> int, no explicit zeros

    @staticmethod
    def zero(context: ParabolicData) -> "QClass":
        return QClass(context, {})

    @staticmethod
    def basis(context: ParabolicData, u: Coset, degree: Optional[Degree] = None,
              coeff=1) -> "QClass":
        if degree is None:
            degree = (0,) * len(context.q_index)
        return QClass(context, {(degree, u): coeff} if coeff else {})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def add_term(self, degree: Degree, u: Coset, coeff) -> None:
        key = (degree, u)
        new = self.terms.get(key, 0) + coeff
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    def coefficient(self, degree: Degree, u: Coset):
        return self.terms.get((degree, u), 0)

    def sorted_terms(self):
        """Deterministic order: by (sum of degree, degree, coset key)."""
        return sorted(
            self.terms.items(),
            key=lambda kv: (sum(kv[0][0]), kv[0][0]) + kv[0][1].sort_key(),
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QClass)
            and self.context is other.context
            and self.terms == other.terms
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = " + ".join(
            f"{c}*q^{list(d)}*{u!r}" for (d, u), c in self.sorted_terms()
        )
        return f"QClass({inner or '0'})"


def _chevalley_terms(P: ParabolicData, u: Coset):
    """(quantum, [u t_alpha], crossing entry) per term of sigma_{s_beta} *
    sigma_u for any beta, in crossing_table order: [u t_alpha] is classical
    one step longer than u, quantum n_alpha - 1 steps shorter."""
    for c, v in zip(P.crossing_table, P.targets(u)):
        if v.length == u.length + 1:
            yield False, v, c
        elif v.length == u.length + 1 - c.chern:
            yield True, v, c


def _chevalley(P: ParabolicData, beta_index: int, u: Coset, quantum: bool) -> QClass:
    if beta_index not in P.q_index:  # in Delta_P, or out of range
        raise ValueError(
            f"node {beta_index + 1} is not a retained node of {P.label}: "
            f"sigma_s{beta_index + 1} is not a class of this quotient"
        )
    pos = P.q_index.index(beta_index)
    out = QClass.zero(P)
    zero = (0,) * len(P.q_index)
    for is_quantum, v, c in _chevalley_terms(P, u):
        h = c.degree[pos]  # h_alpha(omega_beta), beta being a retained node
        if h and (quantum or not is_quantum):
            out.add_term(c.degree if is_quantum else zero, v, h)
    return out


def classical_chevalley(P: ParabolicData, beta_index: int, u: Coset) -> QClass:
    """sigma_{s_beta} . sigma_u in ordinary cohomology."""
    return _chevalley(P, beta_index, u, quantum=False)


def quantum_chevalley(P: ParabolicData, beta_index: int, u: Coset) -> QClass:
    """sigma_{s_beta} * sigma_u in the quantum ring."""
    return _chevalley(P, beta_index, u, quantum=True)


def min_occurring_degrees(c: QClass) -> tuple[Degree, ...]:
    """Pareto-minimal q-degrees occurring in a nonzero class."""
    if c.is_zero:
        raise ValueError("minimal degrees of the zero class are undefined")
    return pareto_minima(d for (d, _u) in c.terms)


class _IntegerSolver:
    """Row-reduce [A | I] in integers once; read solutions of A x = e_k.

    Fraction-free Gauss-Jordan with the rational pivots: a row cleared by
    cross-multiplying with the pivot row, then divided by its gcd, stays a
    nonzero multiple of the rational row, so x_col = row[ncols + k] / row[col].
    """

    def __init__(self, columns: list[list[int]], nrows: int):
        self.ncols = len(columns)
        # augmented row-reduction transform: rows of [A | I]
        rows = [[col[i] for col in columns] + [int(k == i) for k in range(nrows)]
                for i in range(nrows)]
        self.pivots = []  # (row, col)
        r = 0
        for col in range(self.ncols):
            piv = next((i for i in range(r, nrows) if rows[i][col]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            prow = rows[r]
            for i, row in enumerate(rows):
                f = row[col]
                if i != r and f:
                    row = [prow[col] * a - f * b for a, b in zip(row, prow)]
                    g = gcd(*row)
                    rows[i] = [a // g for a in row] if g != 1 else row
            self.pivots.append((r, col))
            r += 1
            if r == nrows:
                break
        self.rows = rows

    def solve_unit(self, k: int) -> tuple[int, list[tuple[int, int]]]:
        """den and the nonzero (col, den * x_col) of a solution of A x = e_k,
        den the least common denominator of the x_col in lowest terms."""
        j = self.ncols + k
        if any(row[j] for row in self.rows[len(self.pivots):]):
            raise InvariantError("inconsistent system: divisor classes do not span")
        x = [(col, self.rows[r][j], self.rows[r][col]) for r, col in self.pivots
             if self.rows[r][j]]
        den = lcm(*(abs(d) // gcd(n, d) for _col, n, d in x))
        return den, [(col, n * den // d) for col, n, d in x]


class _TermTable(dict):
    """Packed key -> (Degree, Coset), each key unpacked on its first read."""

    def __init__(self, packer: PackedDegrees, bits: int, cosets: tuple):
        super().__init__()
        self._unpack, self._bits, self._cosets = packer.unpack, bits, cosets
        self._mask = (1 << bits) - 1

    def __missing__(self, key: int) -> tuple:
        got = self[key] = (self._unpack(key >> self._bits), self._cosets[key & self._mask])
        return got


class DivisorEngine:
    """Full quantum products by recursion over a list of generators.

    The generators come from `_generators`, a list of (rows, degree):
    rows[wi] is the quantum product sigma_b * sigma_w of generator b with
    every coset w, packed.  Here they are the divisor classes sigma_{s_b},
    each of degree 1 with its Chevalley rows; `grassmann.PieriEngine`
    overrides `_generators` to pass the quantum Pieri rows of Gr(k, n),
    and the plan builder and column loop below serve both unchanged.
    The constructor's one guard is the solver's span check: a quotient
    whose divisor classes do not span a level raises InvariantError
    ("divisor classes do not span") while the plans are built.  Which
    quotient gets which engine, and under which size guard, is
    `product_engine`'s policy alone.

    Each basis class sigma_u is stored as integer numerators over one
    common denominator den: den * sigma_u = sum n * sigma_b * sigma_w over
    the chosen generator pairs, plus sum n' * q^d * sigma_w' over the
    negated quantum corrections.  A product accumulates those integer
    terms into one dict and divides by den once, exactly or not at all.

    Products run on packed integer keys.  A term q^d sigma_w is the
    int ``pack(d) << b | w.index``, with b = n.bit_length() for the n
    cosets, `index` the coset's position in ``P.cosets()`` and `pack` the
    `PackedDegrees` packer.  Multiplying by q^d adds ``pack(d) << b`` and
    the coset of a term is ``key & mask``.  The build makes `_rows[b][wi]`,
    each generator row as packed (key, h) pairs (a Chevalley row in
    `quantum_chevalley`'s term order), and `_plans[ui]`, each
    decomposition as den, the chosen (n, b, wi) and the corrections
    (n', pack(d) << b, w'i); nothing is packed on first use.

    Products are built one product column at a time: `_build_column(vi)`
    fills a local list whose entry ui is sigma_u * sigma_v as a
    ``dict[int, int]``, by one loop over u in index order.  Entry 0 is
    sigma_v; each later entry reads the entries its plan names, w shorter
    than u by the degree of its generator and each w' shorter than u,
    which the length order of the indices puts earlier in the list.  A
    chosen term n * sigma_b . sigma_w is applied straight to entry wi,
    adding n * c * h over the row of each term c * q^d sigma_x; the
    product sigma_b * sigma_w * sigma_v is not kept, as only the u that
    chooses (b, w) reads it.  The full list is then unpacked once,
    each entry into a QClass with (Degree, Coset) keys read through
    `_terms`, one shared dict whose missing keys unpack themselves, so
    each answer term is one dict lookup.  The packed list is dropped, and
    `_column[vi]` keeps the QClass answers: the engine's one product
    memo, one answer object per pair.  So the first product at a given v
    builds and unpacks that whole column, up to about 23 ms on B4 flag
    against 15-30 ms for the engine build, and every later product at
    that v is an ownership test and a list read.  Unpacking each entry
    on its first read instead keeps a cold product at the cost of one
    entry, but cost the all-pairs sweep of flag-products 12-16% of its
    pairs per second.  `_products` is a (u, v) -> QClass view of `_column`,
    made on each read, not a store.

    `_build_plans` reads level l's classical columns sigma_b . sigma_w,
    l(w) = l - deg b, off the rows (the keys <= mask) and hands them to
    the solver sparsest first: by the number of classes in the column,
    then by the length of its row, a stable sort that keeps (b, w) order
    among ties.  A single-entry column h sigma_u pivots before any denser
    column reaches u's row, and the basic solution read off the pivots
    makes it u's whole decomposition, so most classes are one or two
    generator terms and a product applies that many rows per term of
    sigma_w * sigma_v.

    The field width is the grading bound, `_bound` = dim, the length of
    the longest coset (l(w0) on G/B).  Every retained coroot has Chern
    number n_i >= 2 (2 on G/B, n on Gr(k, n)), and each term q^d sigma_w
    that sigma_u * sigma_v accumulates (rows, corrections and shifted
    products alike) is homogeneous: l(w) + sum d_i n_i = l(u) + l(v) <=
    2 dim.  Every degree a product forms, each sum of a shift and a term
    included, therefore has every coordinate at most dim: fields of
    bit_length(dim) bits never carry into each other or into the coset
    index.  `_shift` is the one place a degree is packed (a correction's
    key is a row key or a coset index), once per distinct degree while
    the rows are built, and a row degree outside 0..dim breaks that
    argument and raises InvariantError there, at its first packing.
    """

    name = "divisor"

    def __init__(self, P: ParabolicData):
        self.P = P
        self.cosets = P.cosets()
        n = len(self.cosets)
        self._bits = n.bit_length()
        self._mask = (1 << self._bits) - 1
        # fields of bit_length(dim) bits: every retained coroot has Chern
        # number >= 2 and every term of sigma_u * sigma_v has degree
        # l(u) + l(v) <= 2 dim, so no coordinate a product forms exceeds dim
        self._bound = self.cosets[-1].length  # cosets go by length: the longest is last
        self._packer = PackedDegrees(len(P.q_index), self._bound, 0)
        self._plans: list = [None] * n  # ui -> (den, [(n, b, wi)], [(n', shift, w'i)])
        self._column: dict = {}  # vi -> product column, [ui] -> QClass, the answers
        self._terms = _TermTable(self._packer, self._bits, self.cosets)  # shared by every answer
        self._build_plans(self._generators(cache(self._shift)))  # each degree packed once

    def _generators(self, shift: Callable[[Degree], int]) -> list:
        """(rows, degree) per generator: the Chevalley rows of each node b,
        rows[wi] = sigma_{s_b} * sigma_w packed, each of degree 1.

        h_alpha(omega_b) at [w t_alpha], times q^{d(alpha)} on a quantum
        term, in `quantum_chevalley`'s term order.
        """
        P = self.P
        rank = P.system.rank
        rows = [[] for _ in range(rank)]
        for w in self.cosets:
            terms = [{} for _ in range(rank)]
            for quantum, v, c in _chevalley_terms(P, w):
                key = shift(c.degree) | v.index if quantum else v.index
                for acc, h in zip(terms, c.degree):
                    if h:
                        acc[key] = acc.get(key, 0) + h
            for row, acc in zip(rows, terms):
                row.append(tuple(acc.items()))
        return [(row, 1) for row in rows]

    # -- classical expressions + quantum corrections --------------------------

    def _build_plans(self, generators: list) -> None:
        """Decompose every class over `generators`, a list of (rows, degree)
        with rows[wi] the packed product sigma_b * sigma_w of generator b."""
        mask, cosets = self._mask, self.cosets
        self._rows = rows = [gen_rows for gen_rows, _degree in generators]
        levels = [[] for _ in range(self._bound + 1)]  # the cosets of each length
        for w in cosets:
            levels[w.length].append(w)
        for length in range(1, len(levels)):
            level = levels[length]
            pos = {u.index: i for i, u in enumerate(level)}
            # the classical sigma_b . sigma_w with l(w) = length - deg b:
            # the row's keys <= mask, the classes of this length
            pairs, columns, keys = [], [], []
            for b, (gen_rows, degree) in enumerate(generators):
                for w in levels[length - degree] if degree <= length else ():
                    row = gen_rows[w.index]
                    col = [0] * len(level)
                    for key, h in row:
                        if key <= mask:
                            col[pos[key]] = h
                    pairs.append((b, w.index))
                    columns.append(col)
                    keys.append((len(col) - col.count(0), len(row)))
            # sparsest first, ties in (b, w) order: a basic solution lies on
            # the pivot columns, so a class that is h times one generator
            # product classically is decomposed as that one term
            order = sorted(range(len(keys)), key=keys.__getitem__)
            pairs = [pairs[j] for j in order]
            solver = _IntegerSolver([columns[j] for j in order], len(level))
            for i, u in enumerate(level):
                den, x = solver.solve_unit(i)
                chosen = [(n, *pairs[j]) for j, n in x]
                # quantum evaluation of den times the same expression
                acc: dict = {}
                get = acc.get
                for n, b, wi in chosen:
                    for key, h in rows[b][wi]:
                        acc[key] = get(key, 0) + n * h
                ui = u.index
                acc[ui] = get(ui, 0) - den
                corrections = [(-c, key & ~mask, key & mask) for key, c in acc.items() if c]
                if any(not shift or cosets[wi].length >= u.length
                       for _c, shift, wi in corrections):
                    raise InvariantError(
                        "divisor residue must be q-positive with shorter classes")
                self._plans[ui] = (den, chosen, corrections)

    # -- packed keys ------------------------------------------------------------

    def _shift(self, d: Degree) -> int:
        """pack(d) << b: the packed key of q^d sigma_e."""
        if not all(0 <= c <= self._bound for c in d):
            raise InvariantError(
                f"degree {d} does not fit its packed field: coordinates must lie "
                f"in 0..{self._bound} = l(w0) on {self.P.label}")
        return self._packer.pack(d) << self._bits

    # -- products --------------------------------------------------------------

    def _build_column(self, vi: int) -> list:
        """The product column at v, memoized in `_column[vi]`: entry ui
        is sigma_u * sigma_v as a QClass, for every u in index order.

        The entries are summed on packed keys first: a plan reads w one
        step shorter than u and corrections w' shorter than u, and cosets
        are indexed by length, so each entry it reads is already summed.
        """
        column = [{vi: 1}]  # entry 0: sigma_e * sigma_v
        mask, all_rows = self._mask, self._rows
        for ui in range(1, len(self.cosets)):
            den, chosen, corrections = self._plans[ui]
            acc: dict = {}
            get = acc.get
            for n, b, wi in chosen:
                # n * sigma_{s_b} * (sigma_w * sigma_v), row by row
                rows = all_rows[b]
                for k, c in column[wi].items():
                    j = k & mask
                    base = k ^ j  # the degree part, pack(d) << b
                    c *= n
                    for rk, h in rows[j]:
                        t = base + rk
                        acc[t] = get(t, 0) + c * h
            for n, shift, w2i in corrections:
                for k, c in column[w2i].items():
                    k += shift
                    acc[k] = get(k, 0) + n * c
            got = {}
            for k, c in acc.items():
                if c:
                    q, r = divmod(c, den)
                    if r:
                        g = gcd(c, den)
                        raise InvariantError(
                            f"non-integral coefficient {c // g}/{den // g} at "
                            f"{self._terms[k]} in sigma_{self.cosets[ui]} * "
                            f"sigma_{self.cosets[vi]}"
                        )
                    got[k] = q
            column.append(got)
        P, terms = self.P, self._terms
        answers = self._column[vi] = [
            QClass(P, {terms[k]: c for k, c in entry.items()}) for entry in column]
        return answers

    def product(self, u: Coset, v: Coset) -> QClass:
        """sigma_u * sigma_v with integer coefficients.

        A cold call builds and unpacks the whole product column at v
        (up to about 23 ms on B4 flag); every later call with the same v
        reads the same QClass object out of it.
        """
        P = self.P
        # `_check_own`'s test, inlined; it still words the refusal.  Calling
        # it on every read cost flag-products 3.4% of pairs_per_s (worse in
        # 9 of 10 alternated runs, the gap wider than the spread)
        if u.quotient is not P or v.quotient is not P:
            P._check_own(u, v)
        column = self._column.get(v.index)
        if column is None:
            column = self._build_column(v.index)
        return column[u.index]

    @property
    def _products(self) -> dict:
        """(u, v) -> QClass for every answer held: a view of `_column`,
        made on each read, not a store."""
        cosets = self.cosets
        return {(u, cosets[vi]): got for vi, column in self._column.items()
                for u, got in zip(cosets, column)}


def qproduct_GB(P: ParabolicData, u: Coset, v: Coset,
                max_group_order: int = DEFAULT_PRODUCT_GUARD) -> QClass:
    """Quantum product of two Schubert classes on a full flag variety."""
    if P.delta_P:
        raise ValueError(
            "the divisor engine handles full flag quotients only "
            "(Delta_P must be empty); for other parabolics use "
            "quantum_chevalley or, in the Grassmannian case, the rim-hook "
            "product oracle"
        )
    return product_engine(P, max_group_order).product(u, v)


def product_engine(P: ParabolicData, max_group_order: int = DEFAULT_PRODUCT_GUARD):
    """The engine that multiplies Schubert classes on P, cached on P, or
    None where no full-product engine applies.

    The one place that picks an engine, asks its guards and caches it.
    The enumeration guard speaks first, on every quotient.  Full flags
    are tested next, so A1 = Gr(1,2) keeps the divisor engine, under the
    group-order guard on every call, whichever call built the cached
    engine; Grassmannians get the Pieri engine, under the enumeration
    guard alone, since its cost follows the C(n, k) cosets and not |W|;
    any other quotient gets None, and nothing is cached on it.  Both
    engines memoise their products.  No caller catches an error from
    this call: a guard refusal, or an error raised while an engine is
    built, is the caller's error too.
    """
    P.check_guard()
    if P.delta_P:
        if P.grassmannian_shape() is None:
            return None
    elif P.size > max_group_order:
        raise GroupSizeGuardError(
            f"divisor engine on {P.label} (|W| = {P.size})", max_group_order, "group-order")
    if P._divisor_engine is None:
        from .grassmann import PieriEngine  # deferred: grassmann imports this module

        P._divisor_engine = (PieriEngine if P.delta_P else DivisorEngine)(P)
    return P._divisor_engine


def multiply_classes(c1: QClass, c2: QClass,
                     pair_product: Callable[[Coset, Coset], QClass]) -> QClass:
    """Bilinear extension of a basis-pair product to whole classes."""
    if c1.context is not c2.context:
        raise ValueError("QClass arithmetic across different parabolic data")
    out = QClass.zero(c1.context)
    for (d1, u), a in c1.terms.items():
        for (d2, v), b in c2.terms.items():
            prod = pair_product(u, v)
            shift = degree_add(d1, d2)
            for (d3, w), c in prod.terms.items():
                out.add_term(degree_add(shift, d3), w, a * b * c)
    return out

