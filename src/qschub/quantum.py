"""Quantum cohomology of G/P: Chevalley products and full products on G/B.

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

Full products are supported on full flag varieties (Delta_P empty),
where the divisor classes generate the cohomology ring.  The engine
expresses each basis class classically as a rational-coefficient
polynomial in divisor classes (fraction-free Gauss-Jordan elimination on
integer rows, lengths in increasing order), then corrects the expression
degree by degree in q: evaluating a classical expression with the
*quantum* divisor operators reproduces sigma_u plus error terms that all
carry q-degree >= 1 and strictly smaller coset length, so they can be
subtracted recursively.  All arithmetic is in integers: each expression
is stored as integer numerators over one common denominator, read off
the eliminated rows, every product is summed in integers and divided by
that denominator once, and a division that is not exact raises
InvariantError.

The decompositions and the product recursion run on packed integer
keys: a term q^d sigma_w is the one int ``pack(d) << b | w.index``,
degrees packed by `PackedDegrees` and each coset's `index` its position
in `P.cosets()`, so a q-shift is an integer addition and every memo
entry is a ``dict[int, int]``.
The field width comes from the grading bound: on G/B each q_i has degree
2, every term of sigma_u * sigma_v has l(w) + 2|d| = l(u) + l(v), so no
coordinate exceeds l(w0) and fields of bit_length(l(w0)) bits never
carry.  Only the public answer is unpacked, into a QClass.

`product_engine` is the one place that decides which engine multiplies
on a given quotient: the divisor recursion on full flags, the rim-hook
rule on Grassmannians, each built once per quotient and cached on it.
An engine is any object with ``product(u, v) -> QClass``.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
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


def _chevalley(P: ParabolicData, beta_index: int, u: Coset, quantum: bool) -> QClass:
    if beta_index not in P.q_index:  # in Delta_P, or out of range
        raise ValueError(
            f"node {beta_index + 1} is not a retained node of {P.label}: "
            f"sigma_s{beta_index + 1} is not a class of this quotient"
        )
    pos = P.q_index.index(beta_index)
    out = QClass.zero(P)
    zero = (0,) * len(P.q_index)
    for c, v in zip(P.crossing_table, P.targets(u)):
        h = c.degree[pos]  # h_alpha(omega_beta), beta being a retained node
        if h == 0:
            continue
        if v.length == u.length + 1:
            out.add_term(zero, v, h)
        if quantum and v.length == u.length + 1 - c.chern:
            out.add_term(c.degree, v, h)
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


class DivisorEngine:
    """Full quantum products on a full flag variety via divisor recursion.

    Each basis class sigma_u is stored as integer numerators over one
    common denominator den: den * sigma_u = sum n * sigma_b * sigma_w over
    the chosen divisor pairs, plus sum n' * q^d * sigma_w' over the
    negated quantum corrections.  A product accumulates those integer
    terms into one dict and divides by den once, exactly or not at all.

    The recursion runs on packed integer keys.  A term q^d sigma_w is the
    int ``pack(d) << b | w.index``, with b = n.bit_length() for the n
    cosets, `index` the coset's position in ``P.cosets()`` and `pack` the
    `PackedDegrees` packer.  Multiplying by q^d adds ``pack(d) << b`` and
    the coset of a term is ``key & mask``.  Internal products (memo
    `_packed`, keyed ``ui << b | vi``) and divisor columns (memo
    `_column`, keyed ``(beta << b | wi) << b | vi``) are plain
    ``dict[int, int]``.  Each decomposition is built on those keys and
    kept once, in `_plans[ui]`: den, the chosen (n, beta, wi) and the
    corrections (n', pack(d) << b, w'i).  A Chevalley row is packed once
    per (beta, coset), by `_row`: the rows the decompositions choose
    during the build, the others on first use in a product.  The public
    `product` returns a QClass with (Degree, Coset) keys, cached in
    `_products`, read through one shared key -> (degree, coset) table.

    The field width is the grading bound.  On G/B every simple coroot has
    Chern number 2, so q^d has degree 2|d| and each term q^d sigma_w that
    sigma_u * sigma_v accumulates (Chevalley rows, corrections, columns
    and shifted products alike) is homogeneous: l(w) + 2|d| =
    l(u) + l(v) <= 2 l(w0).  Every degree the recursion forms, each sum
    of a shift and a term included, therefore has every coordinate at
    most |d| <= l(w0): fields of bit_length(l(w0)) bits never carry into
    each other or into the coset index.  `_row` is the one place a degree
    is packed (a correction's key is a row key or a coset index), and a
    row degree outside 0..l(w0) breaks that argument and raises
    InvariantError there.
    """

    name = "divisor"

    def __init__(self, P: ParabolicData, max_group_order: int = DEFAULT_PRODUCT_GUARD):
        if P.delta_P:
            raise ValueError(
                "the divisor engine handles full flag quotients only "
                "(Delta_P must be empty); for other parabolics use "
                "quantum_chevalley or, in the Grassmannian case, the rim-hook "
                "product oracle"
            )
        self.P = P
        if P.size > max_group_order:
            raise GroupSizeGuardError(
                f"divisor engine on {P.label} (|W| = {P.size})", max_group_order,
                "group-order",
            )
        self.cosets = P.cosets()
        self.by_length: dict[int, list[Coset]] = {}
        for u in self.cosets:
            self.by_length.setdefault(u.length, []).append(u)
        n = len(self.cosets)
        self._bits = n.bit_length()
        self._mask = (1 << self._bits) - 1
        # fields of bit_length(l(w0)) bits: each q_i has degree 2 and every
        # term of sigma_u * sigma_v has degree l(u) + l(v) <= 2 l(w0), so no
        # coordinate of a degree the recursion forms exceeds l(w0)
        self._bound = max(self.by_length)
        self._packer = PackedDegrees(len(P.q_index), self._bound, 0)
        self._plans: list = [None] * n  # ui -> (den, [(n, b, wi)], [(n', shift, w'i)])
        self._rows = [[None] * n for _ in range(P.system.rank)]  # [beta][wi]
        self._packed: dict = {}  # ui << b | vi -> {key: coeff}
        self._column: dict = {}  # (beta << b | wi) << b | vi -> {key: coeff}
        self._products: dict = {}  # (u, v) -> QClass, the public answers
        self._terms: dict = {}  # key -> (Degree, Coset), shared by every answer
        self._build_plans()

    # -- classical expressions + quantum corrections --------------------------

    def _build_plans(self) -> None:
        P, mask, cosets = self.P, self._mask, self.cosets
        rank = P.system.rank
        for k in range(1, self._bound + 1):
            level = self.by_length[k]
            prev = self.by_length[k - 1]
            pos = {u: i for i, u in enumerate(level)}
            pairs = [(b, w.index) for b in range(rank) for w in prev]
            # classical sigma_{s_b} . sigma_w: h_alpha(omega_b) at each [w t_alpha] of length k
            ups = [[(c.degree, pos[v]) for c, v in zip(P.crossing_table, P.targets(w))
                    if v.length == k] for w in prev]
            columns = []
            for b in range(rank):
                for up in ups:
                    col = [0] * len(level)
                    for d, i in up:
                        col[i] += d[b]
                    columns.append(col)
            solver = _IntegerSolver(columns, len(level))
            for i, u in enumerate(level):
                den, x = solver.solve_unit(i)
                chosen = [(n, *pairs[j]) for j, n in x]
                # quantum evaluation of den times the same expression
                acc: dict = {}
                get = acc.get
                for n, b, wi in chosen:
                    for key, h in self._rows[b][wi] or self._row(b, wi):
                        acc[key] = get(key, 0) + n * h
                ui = u.index
                acc[ui] = get(ui, 0) - den
                corrections = [(-c, key & ~mask, key & mask) for key, c in acc.items() if c]
                if any(not shift or cosets[wi].length >= k for _c, shift, wi in corrections):
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

    def _row(self, beta_index: int, wi: int) -> tuple:
        """sigma_{s_beta} * sigma_w as (key, h) pairs, packed once."""
        row = self._rows[beta_index][wi] = tuple(
            (self._shift(d) | v.index, h) for (d, v), h in
            quantum_chevalley(self.P, beta_index, self.cosets[wi]).terms.items())
        return row

    def _term(self, key: int) -> tuple:
        """The (degree, coset) of a packed key, from the shared table."""
        got = self._terms.get(key)
        if got is None:
            got = self._terms[key] = (self._packer.unpack(key >> self._bits),
                                      self.cosets[key & self._mask])
        return got

    # -- products --------------------------------------------------------------

    def _column_product(self, beta_index: int, wi: int, vi: int) -> dict:
        """sigma_{s_beta} * sigma_w * sigma_v on packed keys, memoized."""
        bits, mask = self._bits, self._mask
        rows = self._rows[beta_index]
        acc: dict = {}
        get = acc.get
        for k, c in self._packed_product(wi, vi).items():
            j = k & mask
            row = rows[j]
            if row is None:
                row = self._row(beta_index, j)
            base = k ^ j  # the degree part, pack(d) << b
            for rk, h in row:
                t = base + rk
                acc[t] = get(t, 0) + c * h
        # coefficients of products and rows are positive: no term cancels
        self._column[(beta_index << bits | wi) << bits | vi] = acc
        return acc

    def _packed_product(self, ui: int, vi: int) -> dict:
        """sigma_u * sigma_v on packed keys, memoized."""
        bits = self._bits
        key = ui << bits | vi
        got = self._packed.get(key)
        if got is not None:
            return got
        if ui == 0:  # the identity coset
            got = {vi: 1}
        else:
            den, chosen, corrections = self._plans[ui]
            column = self._column
            acc: dict = {}
            get = acc.get
            for n, b, wi in chosen:
                col = column.get((b << bits | wi) << bits | vi)
                if col is None:
                    col = self._column_product(b, wi, vi)
                for k, c in col.items():
                    acc[k] = get(k, 0) + n * c
            for n, shift, w2i in corrections:
                for k, c in self._packed_product(w2i, vi).items():
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
                            f"{self._term(k)} in sigma_{self.cosets[ui]} * "
                            f"sigma_{self.cosets[vi]}"
                        )
                    got[k] = q
        self._packed[key] = got
        return got

    def product(self, u: Coset, v: Coset) -> QClass:
        """sigma_u * sigma_v with integer coefficients."""
        got = self._products.get((u, v))
        if got is None:
            self.P._check_own(u, v)
            packed = self._packed_product(u.index, v.index)
            term = self._term
            got = self._products[(u, v)] = QClass(
                self.P, {term(k): c for k, c in packed.items()})
        return got


def _engine(P: ParabolicData, max_group_order: int) -> DivisorEngine:
    # the enumeration guard speaks first; a cached engine obeys both guards
    # too, whichever call built it: past the product guard, the constructor
    # raises before anything is replaced
    P.check_guard()
    if P._divisor_engine is None or P.size > max_group_order:
        P._divisor_engine = DivisorEngine(P, max_group_order=max_group_order)
    return P._divisor_engine


def qproduct_GB(P: ParabolicData, u: Coset, v: Coset,
                max_group_order: int = DEFAULT_PRODUCT_GUARD) -> QClass:
    """Quantum product of two Schubert classes on a full flag variety."""
    return _engine(P, max_group_order).product(u, v)


def product_engine(P: ParabolicData, max_group_order: int = DEFAULT_PRODUCT_GUARD):
    """The engine that multiplies Schubert classes on P.

    The cached divisor engine on full flags (tested first, so A1 = Gr(1,2)
    keeps it), the cached rim-hook engine on Grassmannians; no other
    quotient has a full-product engine.  Both memoise their products.
    """
    if not P.delta_P:
        return _engine(P, max_group_order)
    if P.grassmannian_shape() is not None:
        from .grassmann import rimhook_engine  # deferred: grassmann imports this module

        return rimhook_engine(P)
    raise ValueError(
        f"no full-product engine applies to {P.label}: the divisor recursion "
        "needs the full flag and the rim-hook rule needs a Grassmannian"
    )


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

