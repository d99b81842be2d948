"""Quantum cohomology of G/P: Chevalley products and full products on G/B.

Classes live in the free module over Z[q_1..q_m] (one q per retained
node) with basis the Schubert classes, i.e. the cosets of W_P.  A QClass
is a finite map (degree vector, coset) -> coefficient.

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
polynomial in divisor classes (Gaussian elimination over Fractions,
lengths in increasing order), then corrects the expression degree by
degree in q: evaluating a classical expression with the *quantum*
divisor operators reproduces sigma_u plus error terms that all carry
q-degree >= 1 and strictly smaller coset length, so they can be
subtracted recursively.  Fractions live only in that one-time
elimination: each expression is stored as integer numerators over one
common denominator, every product is summed in integers and divided by
that denominator once, and a division that is not exact raises
InvariantError.

`product_engine` is the one place that decides which engine multiplies
on a given quotient: the divisor recursion on full flags, the rim-hook
rule on Grassmannians.  An engine is any object with
``product(u, v) -> QClass``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Optional

from .parabolic import Coset, Degree, ParabolicData, degree_add, pareto_minima
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
    "raising_witness_report",
    "RaisingWitnessReport",
    "DivisorEngine",
    "DEFAULT_PRODUCT_GUARD",
]

DEFAULT_PRODUCT_GUARD = 240  # largest |W| the divisor engine accepts by default


@dataclass
class QClass:
    """Finite Z[q]-linear combination of Schubert classes."""

    context: ParabolicData
    terms: dict  # (Degree, Coset) -> int | Fraction, no explicit zeros

    @staticmethod
    def zero(context: ParabolicData) -> "QClass":
        return QClass(context, {})

    @staticmethod
    def basis(context: ParabolicData, u: Coset, degree: Optional[Degree] = None,
              coeff=1) -> "QClass":
        if degree is None:
            degree = (0,) * len(context.q_index)
        return QClass(context, {(degree, u): coeff} if coeff else {})

    def copy(self) -> "QClass":
        return QClass(self.context, dict(self.terms))

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

    def __add__(self, other: "QClass") -> "QClass":
        self._check(other)
        out = self.copy()
        for (d, u), c in other.terms.items():
            out.add_term(d, u, c)
        return out

    def __sub__(self, other: "QClass") -> "QClass":
        return self + other.scale(-1)

    def scale(self, c) -> "QClass":
        if not c:
            return QClass.zero(self.context)
        return QClass(self.context, {k: c * v for k, v in self.terms.items()})

    def shift(self, degree: Degree) -> "QClass":
        """Multiply by the monomial q^degree."""
        return QClass(
            self.context,
            {(degree_add(d, degree), u): c for (d, u), c in self.terms.items()},
        )

    def coefficient(self, degree: Degree, u: Coset):
        return self.terms.get((degree, u), 0)

    def assert_integral(self) -> "QClass":
        out = {}
        for k, c in self.terms.items():
            f = Fraction(c)
            if f.denominator != 1:
                raise InvariantError(f"non-integral coefficient {c} at {k}")
            out[k] = int(f)
        return QClass(self.context, out)

    def sorted_terms(self):
        """Deterministic order: by (sum of degree, degree, coset key)."""
        return sorted(
            self.terms.items(),
            key=lambda kv: (sum(kv[0][0]), kv[0][0]) + kv[0][1].sort_key(),
        )

    def _check(self, other: "QClass") -> None:
        if self.context is not other.context:
            raise ValueError("QClass arithmetic across different parabolic data")

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


class _RationalSolver:
    """Row-reduce [A | I] over Fractions once; read solutions of A x = e_k."""

    def __init__(self, columns: list[list[Fraction]], nrows: int):
        self.ncols = len(columns)
        self.nrows = nrows
        # augmented row-reduction transform: rows of [A | I]
        rows = [
            [Fraction(columns[j][i]) for j in range(self.ncols)]
            + [Fraction(1 if k == i else 0) for k in range(nrows)]
            for i in range(nrows)
        ]
        self.pivots = []  # (row, col)
        r = 0
        for col in range(self.ncols):
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
            self.pivots.append((r, col))
            r += 1
            if r == nrows:
                break
        self.rows = rows
        self.rank = r

    def solve_unit(self, k: int) -> list[tuple[int, Fraction]]:
        """The nonzero entries (col, x_col) of a solution of A x = e_k.

        The transform maps e_k to its column ncols + k, so the solution is
        read off that column at the pivot rows.
        """
        y = [row[self.ncols + k] for row in self.rows]
        if any(y[i] != 0 for i in range(self.rank, self.nrows)):
            raise InvariantError("inconsistent system: divisor classes do not span")
        return [(col, y[r]) for r, col in self.pivots if y[r] != 0]


class DivisorEngine:
    """Full quantum products on a full flag variety via divisor recursion.

    Each basis class sigma_u is stored as integer numerators over one
    common denominator den: den * sigma_u = sum n * sigma_b * sigma_w over
    the chosen divisor pairs, plus sum n' * q^d * sigma_w' over the
    negated quantum corrections.  A product accumulates those integer
    terms into one dict and divides by den once, exactly or not at all.
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
                f"divisor engine on {P.label} (|W| = {P.size})", max_group_order
            )
        self.cosets = P.cosets()
        self.zero_deg = (0,) * len(P.q_index)
        self.by_length: dict[int, list[Coset]] = {}
        for u in self.cosets:
            self.by_length.setdefault(u.length, []).append(u)
        self._qchev: dict = {}
        self._decomp: dict = {}  # u -> (den, [(n, b, w)], [(n', d, w')])
        self._products: dict = {}
        self._column: dict = {}
        # (a, b) -> a + b for degree vectors: a few hundred distinct pairs
        # on D4, and a lookup is cheaper than building the tuple each time
        self._sums: dict = {}
        self._build_decompositions()

    # -- divisor operators ---------------------------------------------------

    def qchev(self, beta_index: int, u: Coset) -> QClass:
        got = self._qchev.get((beta_index, u))
        if got is None:
            got = quantum_chevalley(self.P, beta_index, u)
            self._qchev[(beta_index, u)] = got
        return got

    def apply_divisor(self, beta_index: int, c: QClass) -> QClass:
        """Multiply a class by sigma_{s_beta}."""
        acc: dict = {}
        for (d, u), coeff in c.terms.items():
            self._add_shifted(acc, coeff, d, self.qchev(beta_index, u).terms)
        return QClass(self.P, {k: n for k, n in acc.items() if n})

    def _add_shifted(self, acc: dict, n: int, d: Degree, terms: dict) -> None:
        """acc += n * q^d * terms, in place."""
        get = acc.get
        sums = self._sums
        for (d2, v), c in terms.items():
            s = sums.get((d, d2))
            if s is None:
                s = sums[(d, d2)] = degree_add(d, d2)
            key = (s, v)
            acc[key] = get(key, 0) + n * c

    # -- classical expressions + quantum corrections --------------------------

    def _build_decompositions(self) -> None:
        P = self.P
        rank = P.system.rank
        top = max(self.by_length)
        for k in range(1, top + 1):
            level = self.by_length[k]
            prev = self.by_length[k - 1]
            pos = {u: i for i, u in enumerate(level)}
            pairs = [(b, w) for b in range(rank) for w in prev]
            columns = []
            for b, w in pairs:
                col = [Fraction(0)] * len(level)
                for (d, v), h in classical_chevalley(P, b, w).terms.items():
                    col[pos[v]] += h
                columns.append(col)
            solver = _RationalSolver(columns, len(level))
            for i, u in enumerate(level):
                x = solver.solve_unit(i)
                den = lcm(*(c.denominator for _j, c in x))
                chosen = [(int(c * den), *pairs[j]) for j, c in x]
                # quantum evaluation of den times the same expression
                acc: dict = {}
                get = acc.get
                for n, b, w in chosen:
                    for key, h in self.qchev(b, w).terms.items():
                        acc[key] = get(key, 0) + n * h
                key = (self.zero_deg, u)
                acc[key] = get(key, 0) - den
                corrections = []
                for (d, w2), c in acc.items():
                    if not c:
                        continue
                    if sum(d) == 0 or w2.length >= u.length:
                        raise InvariantError(
                            "divisor residue must be q-positive with shorter classes"
                        )
                    corrections.append((-c, d, w2))
                self._decomp[u] = (den, chosen, corrections)

    # -- products --------------------------------------------------------------

    def _column_product(self, beta_index: int, w: Coset, v: Coset) -> QClass:
        """sigma_{s_beta} * sigma_w * sigma_v, memoized."""
        key = (beta_index, w, v)
        got = self._column.get(key)
        if got is None:
            got = self.apply_divisor(beta_index, self.product(w, v))
            self._column[key] = got
        return got

    def product(self, u: Coset, v: Coset) -> QClass:
        """sigma_u * sigma_v with integer coefficients."""
        key = (u, v)
        got = self._products.get(key)
        if got is not None:
            return got
        if u.length == 0:
            got = QClass.basis(self.P, v)
        else:
            den, chosen, corrections = self._decomp[u]
            acc: dict = {}
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
                        raise InvariantError(
                            f"non-integral coefficient {Fraction(c, den)} at {k} "
                            f"in sigma_{u} * sigma_{v}"
                        )
                    terms[k] = q
            got = QClass(self.P, terms)
        self._products[key] = got
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
    keeps it), the rim-hook engine on Grassmannians; no other quotient
    has a full-product engine.
    """
    if not P.delta_P:
        return _engine(P, max_group_order)
    if P.grassmannian_shape() is not None:
        from .grassmann import RimHookEngine  # deferred: grassmann imports this module

        return RimHookEngine(P)
    raise ValueError(
        f"no full-product engine applies to {P.label}: the divisor recursion "
        "needs the full flag and the rim-hook rule needs a Grassmannian"
    )


def multiply_classes(c1: QClass, c2: QClass,
                     pair_product: Callable[[Coset, Coset], QClass]) -> QClass:
    """Bilinear extension of a basis-pair product to whole classes."""
    c1._check(c2)
    out = QClass.zero(c1.context)
    for (d1, u), a in c1.terms.items():
        for (d2, v), b in c2.terms.items():
            prod = pair_product(u, v)
            shift = degree_add(d1, d2)
            for (d3, w), c in prod.terms.items():
                out.add_term(degree_add(shift, d3), w, a * b * c)
    return out


@dataclass
class RaisingWitnessReport:
    """Outcome of the positivity search over Bruhat-comparable pairs.

    For each pair u <= v the search looks for some class sigma_w whose
    classical product with sigma_u contains sigma_v with positive
    coefficient.
    """

    context_label: str
    pairs_checked: int = 0
    witnesses: dict = field(default_factory=dict)  # (u, v) -> w
    failures: list = field(default_factory=list)

    @property
    def all_found(self) -> bool:
        return not self.failures


def raising_witness_report(P: ParabolicData,
                           max_group_order: int = DEFAULT_PRODUCT_GUARD
                           ) -> RaisingWitnessReport:
    """Search classical products for raising witnesses on all pairs u <= v."""
    product = product_engine(P, max_group_order).product
    cosets = P.cosets()
    zero = (0,) * len(P.q_index)
    report = RaisingWitnessReport(context_label=P.label)
    for u in cosets:
        for v in cosets:
            if not P.bruhat_leq(u, v):
                continue
            report.pairs_checked += 1
            witness = None
            for w in cosets:
                if w.length != v.length - u.length:
                    continue
                if product(u, w).coefficient(zero, v) > 0:
                    witness = w
                    break
            if witness is None:
                report.failures.append((u, v))
            else:
                report.witnesses[(u, v)] = witness
    return report
