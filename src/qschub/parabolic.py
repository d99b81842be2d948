"""Parabolic quotients W/W_P: cosets, curve degrees, and chain search.

A parabolic datum is a root system together with the set Delta_P of
simple roots generating W_P (Delta_P = Delta is rejected; the quotient
must be a proper flag variety).  W/W_P is the orbit W.lambda_P, with
lambda_P the sum of the fundamental weights of the retained nodes
(Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.5), and a coset u W_P
is its orbit point mu = u lambda_P in fundamental-weight coordinates: s_i
acts in O(r), mu -> mu - mu_i alpha_i, and mu_i < 0 marks a left descent.
`_intern` is the one constructor, one `Coset` per orbit point, so cosets
compare and hash by identity, at C speed, within one quotient; cosets of
two `ParabolicData` never compare equal.  A coset knows its quotient, so
membership is an identity test, and its index in `cosets()`.  It keeps its
parent one step down its smallest left descent; its minimal
representative, kept on first use for sorting and printed output, is the
`WeylElem` whose xi is rho under the descents down that chain.
The size |W/W_P| is the product of (ht alpha + 1)/ht alpha over the
crossing roots (below), so `cosets()`, `graph()` and the divisor engine
refuse an oversized quotient before any work.

Every positive root alpha outside R_P^+ ("crossing" root, the one test
being `is_crossing`) carries two integers used throughout:

* its degree vector d(alpha): coordinate h_alpha(omega_beta) for each
  retained node beta, i.e. the coefficient of alpha^vee over the coroots
  dual to Delta \\ Delta_P — the curve class of the T-stable curve
  attached to alpha;
* its Chern number n_alpha = 4(rho_P, alpha)/(alpha, alpha) with
  2 rho_P the sum of the crossing roots — the degree of the tangent
  bundle on that curve, which controls the length drop in the quantum
  Chevalley formula.

Both are computed once, in the crossing-root table (`crossing_table`):
one `CrossingRoot` per crossing root, in `crossing_roots` order, holding
the root, d(alpha) and n_alpha.  Beside it, `targets(u)` is the row of
cosets [u t_alpha] aligned with that table, computed on first use and
memoised per coset, so a single Chevalley product enumerates no cosets.
A row is its parent's, reflected: u = s_i parent(u) with i = u.descent,
so [u t_alpha] = s_i [parent(u) t_alpha], one O(rank) step per entry and
no Weyl element; a missing row builds its ancestors' missing rows first,
in a loop.  The
identity's row is lambda_P - <lambda_P, alpha^vee> alpha, the pairing
being the sum of d(alpha).  The graph, `adjacency` and the quantum
Chevalley operator all read these rows.

Two cosets are adjacent when one is the projection of the other times a
reflection; on that edge-weighted graph `min_chain_degrees` returns the
Pareto frontier of degrees of chains that start at any coset above u and
end below the dual of v.  Labels are pruned by componentwise dominance;
edge degrees are nonnegative, so non-dominated labels come from simple
paths, which bounds every coordinate by (#nodes) * (largest edge
coordinate) and guarantees termination.

The labels depend on u alone, so the search runs once per source coset.
It runs on degrees packed into one int each (`PackedDegrees`, built once
per graph as `BruhatGraph.packed`), so adding, the bound test and
dominance are a few integer operations, and its labels stay packed: node
i keeps a tuple of (degree, back) pairs, back being (previous node, its
degree) or None at a source, and the root and degree of an edge are read
back from `graph().edges`.

`min_chain_degrees` answers from frontier rows: one tuple per source
coset u, indexed by v.index, each entry the frontier of (u, v), equal
frontiers interned to one tuple on the quotient.  u's row is filled at
its first query by one pass over the cosets in index order, which puts
covered cosets before their covers: M(x), the minima of the labels at
the cosets below x, is the minima of the labels at x and of M(y) for
each y that x covers, and the entry for v is M(dual(v)), unpacked and
sorted.  The labels are then dropped.  No frontier is empty, since
sigma_u * sigma_v != 0: `_frontier_row` checks each where it interns it.
`verify` asks every ordered pair three times (twice for the symmetry
check, once for the product sweep) and searches once per source; a row
holds |W/W_P| pointers (D4 flag, all 192 rows: about 0.3 MB).  Both
cosets are checked for ownership before the row is read, since another
quotient's coset carries an index too, or none.

`min_chain_witnesses` keeps each source's labels, with a table of the
degrees they hold: each packed degree with the bitset of its holders and
its unpacked tuple, ascending by that tuple, in one memo entry per
source (A4 flag, all 120 sources: about 2.6 MB).  That order, like
ascending packed order, extends the componentwise order, so a pair
(u, v) is one pass over the table: a degree held below dual(v) is kept
unless a kept one is below it, the kept ones come out sorted, and the
back pointers of each are walked from the lowest node below dual(v)
that holds it.

The up-set of u and the down-set of dual(v) are int bitsets over graph
indices (`up_set`, `down_set`), memoised per coset on first use.  Every
Bruhat cover of u in W/W_P is some [u t_alpha] (Bjorner-Brenti 2.5), so
the covers are the entries of u's row one step longer or shorter, and a
set is u with the sets of those entries.  `bruhat_leq` is the reference
walk, the independent lifting walk on orbit points: the graph-structure
check is the one verify check that runs it, comparing it with both sets
on every pair, and every other check reads u <= v off the sets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Iterable, NamedTuple, Optional

from .roots import InvariantError, Root, RootSystem, build_root_system
from .weyl import (
    DEFAULT_ENUMERATION_GUARD,
    GroupSizeGuardError,
    WeylElem,
    _act,
    _levels,
    _reflect,
    bruhat_leq_W,  # noqa: F401 - the reference walk, traced under this name by perfbench
    format_word,
    longest_element,
    order_from_heights,
)

__all__ = [
    "Degree",
    "Coset",
    "ChainWitness",
    "CrossingRoot",
    "BruhatGraph",
    "ParabolicData",
    "make_parabolic",
    "degree_leq",
    "degree_add",
    "pareto_minima",
]

Degree = tuple  # tuple[int, ...], one coordinate per retained node


def degree_leq(a: Degree, b: Degree) -> bool:
    """Componentwise order on degree vectors."""
    return all(x <= y for x, y in zip(a, b))


def degree_add(a: Degree, b: Degree) -> Degree:
    return tuple(x + y for x, y in zip(a, b))


def pareto_minima(degrees: Iterable[Degree]) -> tuple[Degree, ...]:
    """The minimal elements of a finite set under componentwise order."""
    pool = sorted(set(degrees))
    out = []
    for d in pool:
        if not any(degree_leq(e, d) for e in out):
            out.append(d)
    return tuple(out)


@dataclass(eq=False, slots=True)
class Coset:
    """A coset u W_P as its orbit point mu = u lambda_P; one interned object.

    `quotient` is the `ParabolicData` that interned it; `index` is its
    position in `quotient.cosets()`, None until that enumeration runs.
    `parent` is the coset of s_i mu for the least i with mu_i < 0, stored
    as `descent`; the identity coset has neither.  The minimal
    representative is read off the parent chain and kept on first use.
    """

    mu: tuple
    length: int
    quotient: "ParabolicData"
    parent: Optional["Coset"] = None
    descent: Optional[int] = None
    index: Optional[int] = None
    _rep: Optional[WeylElem] = None

    @property
    def min_rep(self) -> WeylElem:
        """The minimal representative w, as w^-1 rho: rho under the
        descents from u down to the identity."""
        if self._rep is None:
            descents, u = [], self
            while u.parent is not None:
                descents.append(u.descent)
                u = u.parent
            system = self.quotient.system
            self._rep = WeylElem(system, _act(system, descents, (1,) * system.rank))
        return self._rep

    def word(self) -> tuple[int, ...]:
        """The canonical word of the minimal representative."""
        return self.min_rep.word()

    def sort_key(self):
        return (self.length, self.word())

    def __repr__(self) -> str:
        return f"Coset[{format_word(self.word())}]"


@dataclass(frozen=True)
class ChainWitness:
    """One chain realizing a frontier degree, for display purposes."""

    degree: Degree
    nodes: tuple[Coset, ...]
    edge_roots: tuple[Root, ...]
    edge_degrees: tuple[Degree, ...]


class CrossingRoot(NamedTuple):
    """One entry of the crossing-root table."""

    root: Root
    degree: Degree  # d(alpha)
    chern: int  # n_alpha


@dataclass
class BruhatGraph:
    """Adjacency graph on W/W_P with degree-weighted edges."""

    nodes: tuple[Coset, ...]  # node i is the coset with index i
    # canonical (i, j) with i < j -> (witness root, degree vector)
    edges: dict

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def label_bound(self) -> int:
        """No coordinate of a chain label exceeds this: non-dominated labels
        come from simple paths, so #nodes * the largest edge coordinate.
        The chain search packs degrees into fields sized by this bound
        (`packed`), so a bound set by hand must be set before the first
        search on the graph."""
        return self.node_count * self._largest_edge_coordinate

    @property
    def _largest_edge_coordinate(self) -> int:
        return max((max(deg) for (_, deg) in self.edges.values()), default=0)

    @cached_property
    def packed(self) -> "PackedDegrees":
        """The adjacency rows with packed degrees, built at the first search."""
        fields = len(next(iter(self.edges.values()))[1])
        return PackedDegrees(fields, self.label_bound, self._largest_edge_coordinate,
                             self.edges, self.node_count)


class PackedDegrees:
    """Degree vectors packed into one int each, for the chain search.

    Coordinate k sits in field k of `width` + 1 bits: W = `width` data
    bits, W = bit_length(bound + largest edge coordinate), under one
    guard bit.  `guard` (G) has every guard bit set and `cap` (C) holds
    2^W - 1 - bound in every field.  While every coordinate stays below
    2^W, as a label within the bound plus one edge does:

    * the sum of two packed degrees is the packed sum, and since neither
      has a guard bit set, `(x | G) + y` is `(x + y) | G`, which XOR with G
      turns back into x + y;
    * `(x + C) & G` is nonzero exactly when a coordinate of x exceeds the
      bound;
    * y <= x componentwise exactly when `((x | G) - y) & G == G`; G itself,
      in the place of y, is below no such x, so it can stand for "no
      degree".

    `adj[i]` is row i of the graph read from its `edges`: the (j, packed
    degree) of each edge {i, j}, sorted by j.  Ascending packed order is
    a linear extension of the componentwise order (y <= x, y != x gives
    y < x as ints), so `minima` finds the minimal elements in one pass.
    """

    __slots__ = ("fields", "width", "shifts", "guard", "cap", "adj")

    def __init__(self, fields: int, bound: int, largest: int,
                 edges: Optional[dict] = None, nodes: int = 0):
        width = (bound + largest).bit_length()
        ones = sum(1 << k * (width + 1) for k in range(fields))  # bit 0 of each field
        self.fields, self.width = fields, width
        self.shifts = tuple(range(0, fields * (width + 1), width + 1))  # field k's offset
        self.guard = ones << width
        self.cap = ones * ((1 << width) - 1 - bound)
        rows = [[] for _ in range(nodes)]
        for (i, j), (_alpha, deg) in (edges or {}).items():
            d = self.pack(deg)
            rows[i].append((j, d))
            rows[j].append((i, d))
        self.adj = tuple(tuple(sorted(row)) for row in rows)

    def pack(self, d: Degree) -> int:
        step = self.width + 1
        return sum(c << k * step for k, c in enumerate(d))

    def unpack(self, x: int) -> Degree:
        low = (1 << self.width) - 1
        return tuple([x >> s & low for s in self.shifts])

    def minima(self, xs: Iterable[int]) -> list[int]:
        """The minimal packed degrees of xs, componentwise, in ascending order."""
        G, out = self.guard, []
        for x in sorted(xs):
            guarded = x | G
            for y in out:
                if (guarded - y) & G == G:
                    break  # y <= x
            else:
                out.append(x)
        return out


class ParabolicData:
    """A proper parabolic quotient and its cached combinatorics."""

    def __init__(self, system: RootSystem, delta_P: Iterable[int]):
        delta_P = frozenset(delta_P)
        if not delta_P <= set(range(system.rank)):
            raise ValueError(
                f"delta_P {sorted(delta_P)} not a subset of 0..{system.rank - 1}"
            )
        if delta_P == set(range(system.rank)):
            raise ValueError("delta_P equals the whole node set: the quotient is a point")
        self.system = system
        self.delta_P = delta_P
        self.max_elements = DEFAULT_ENUMERATION_GUARD
        self.q_index = tuple(sorted(set(range(system.rank)) - delta_P))
        self.crossing_roots = tuple(filter(self.is_crossing, system.positive_roots))
        self.R_P_plus = tuple(a for a in system.positive_roots if not self.is_crossing(a))
        self.two_rho_P = tuple(
            sum(a.coeffs[j] for a in self.crossing_roots)
            for j in range(system.rank)
        )
        self.crossing_table = tuple(map(self._crossing_entry, self.crossing_roots))
        self._entry = {c.root.coeffs: c for c in self.crossing_table}
        self._lambda_P = tuple(0 if i in delta_P else 1 for i in range(system.rank))
        self._coset_of = {}  # orbit point -> its one Coset
        self._targets = {}  # coset -> row [u t_alpha], aligned with crossing_table
        self._cosets = None
        self._graph = None
        self._up, self._down = {}, {}  # coset -> Bruhat bitset over graph indices
        self._labels = {}  # coset u -> (labels, degree table) of the search from up_set(u)
        self._frontiers = {}  # coset u -> tuple of frontiers, indexed by v.index
        self._frontier_of = {}  # packed minima -> their one frontier tuple
        self._dual = {}  # coset u -> dual(u)
        self._divisor_engine = None  # product_engine's: divisor on G/B, Pieri on Gr(k, n)

    # -- small derived data ----------------------------------------------

    @property
    def dim(self) -> int:
        """Complex dimension of the quotient = number of crossing roots."""
        return len(self.crossing_roots)

    @cached_property
    def size(self) -> int:
        """|W/W_P|, the height product over the crossing roots."""
        return order_from_heights(self.crossing_roots)

    @property
    def label(self) -> str:
        if not self.delta_P:
            return f"{self.system.label} flag"
        return f"{self.system.label} omit {','.join(str(i + 1) for i in self.q_index)}"

    def grassmannian_shape(self) -> Optional[tuple[int, int]]:
        """(k, n) when this is a type-A quotient by one retained node."""
        if self.system.type_label == "A" and len(self.q_index) == 1:
            return (self.q_index[0] + 1, self.system.rank + 1)
        return None

    def is_crossing(self, alpha: Root) -> bool:
        return not alpha.supported_on(self.delta_P)

    def _crossing_entry(self, alpha: Root) -> CrossingRoot:
        degree = tuple(self.system.pairing(alpha, j) for j in self.q_index)
        if any(c.denominator != 1 or c < 0 for c in degree):
            raise InvariantError(f"bad degree {degree} for {alpha}")
        chern = Fraction(2 * self.system.inner(self.two_rho_P, alpha.coeffs), alpha.norm)
        if chern.denominator != 1 or chern <= 0:
            raise InvariantError(f"bad Chern number {chern} for {alpha}")
        return CrossingRoot(alpha, tuple(int(c) for c in degree), int(chern))

    def _lookup(self, alpha: Root, what: str) -> CrossingRoot:
        got = self._entry.get(alpha.coeffs)
        if got is None or got.root.norm != alpha.norm:
            self.system._require_root(alpha)
            raise ValueError(f"{what} is defined for positive roots outside R_P^+, "
                             f"got {alpha}")
        return got

    def degree_of_root(self, alpha: Root) -> Degree:
        """d(alpha): h_alpha(omega_beta) for each retained node beta."""
        return self._lookup(alpha, "degree").degree

    def chern_number(self, alpha: Root) -> int:
        """n_alpha = 4(rho_P, alpha)/(alpha, alpha); a positive integer."""
        return self._lookup(alpha, "Chern number").chern

    # -- cosets ------------------------------------------------------------

    def to_coset(self, w: WeylElem) -> Coset:
        """The coset w W_P: w's canonical word applied to lambda_P."""
        if w.system is not self.system:
            raise ValueError("element belongs to a different root system")
        return self._intern(_act(self.system, reversed(w.word()), self._lambda_P))

    def _intern(self, mu: tuple) -> Coset:
        """The one Coset of the orbit point mu: walk mu down its smallest
        left descents to an interned point (lambda_P, the one dominant
        point, is the identity coset), then intern that chain going up."""
        chain = []
        while mu not in self._coset_of:
            i = next((i for i, m in enumerate(mu) if m < 0), None)
            if i is None:
                if mu != self._lambda_P:
                    raise InvariantError(f"{mu} is not in the orbit of {self._lambda_P}")
                self._coset_of[mu] = Coset(mu, 0, self)
            else:
                chain.append((mu, i))
                mu = _reflect(self.system, mu, i)
        got = self._coset_of[mu]
        for mu, i in reversed(chain):
            got = self._coset_of[mu] = Coset(mu, got.length + 1, self, got, i)
        return got

    def identity_coset(self) -> Coset:
        return self._intern(self._lambda_P)

    @cached_property
    def _opposition(self) -> tuple[int, ...]:
        """sigma with w_o omega_i = -omega_sigma(i): w_o's word applied to omega_i."""
        system, rank = self.system, range(self.system.rank)
        letters = longest_element(system).word()[::-1]
        return tuple(_act(system, letters, tuple(int(j == i) for j in rank)).index(-1)
                     for i in rank)

    def dual(self, u: Coset) -> Coset:
        """The coset of w_o u, of complementary length: w_o mu = -mu o sigma.
        Memoised one way, so dual(dual(u)) is computed, not read back."""
        got = self._dual.get(u)
        if got is None:
            self._check_own(u)
            got = self._intern(tuple(-u.mu[j] for j in self._opposition))
            if got.length != self.dim - u.length:
                raise InvariantError(f"dual of {u} has the wrong length")
            self._dual[u] = got
        return got

    def bruhat_leq(self, u: Coset, v: Coset) -> bool:
        """Quotient Bruhat order, by the lifting walk on orbit points.

        v walks down its parents; u steps down too when v's descent s_i is
        a left descent of u.
        """
        self._check_own(u, v)
        mu, lu = u.mu, u.length
        while lu <= v.length:
            if lu == 0:
                return True
            i = v.descent
            if mu[i] < 0:
                mu, lu = _reflect(self.system, mu, i), lu - 1
            v = v.parent
        return False

    def _check_own(self, *cosets: Coset) -> None:
        """Refuse a coset of another quotient, which would give a wrong
        answer silently: each must be one this quotient interned."""
        for u in cosets:
            if u.quotient is not self:
                raise ValueError(f"{u!r} is not a coset of this {self.label} quotient")

    def check_guard(self) -> None:
        """Refuse, before any work, a quotient larger than the guard in force."""
        if self.size > self.max_elements:
            raise GroupSizeGuardError(
                f"W/W_P for {self.label} (|W/W_P| = {self.size})", self.max_elements)

    def cosets(self) -> tuple[Coset, ...]:
        """All cosets, sorted by (length, canonical word), which sets their
        `index`.  The orbit points are interned in level order
        (`weyl._levels`), so each parent is interned first.  The guard in
        force applies to a cached enumeration too.
        """
        self.check_guard()
        if self._cosets is not None:
            return self._cosets
        points = _levels(self.system, self._lambda_P, range(self.system.rank))
        self._cosets = tuple(sorted(map(self._intern, points), key=Coset.sort_key))
        for i, u in enumerate(self._cosets):
            u.index = i
        return self._cosets

    # -- adjacency and the Bruhat graph -------------------------------------

    def targets(self, u: Coset) -> tuple[Coset, ...]:
        """The row [u t_alpha], aligned with crossing_table; memoised."""
        self._check_own(u)
        missing = []  # u and its ancestors with no row, up to a built row or the identity
        row = self._targets.get(u)
        while row is None and u.parent is not None:
            missing.append(u)
            u = u.parent
            row = self._targets.get(u)
        if row is None:  # the identity: lambda_P - <lambda_P, alpha^vee> alpha
            cartan = self.system.cartan
            row = self._targets[u] = tuple(self._intern(tuple(
                m - sum(c.degree) * sum(map(mul, r, c.root.coeffs))
                for m, r in zip(u.mu, cartan))) for c in self.crossing_table)
        for u in reversed(missing):  # s_i [parent(u) t_alpha], i = u.descent
            row = self._targets[u] = tuple(
                self._intern(_reflect(self.system, v.mu, u.descent)) for v in row)
        return row

    def adjacency(self, u: Coset, v: Coset) -> Optional[tuple[Root, Degree]]:
        """The first crossing root t with [u t] = v, and its degree, if any."""
        self._check_own(v)  # u is checked by targets
        if u == v:
            raise ValueError("adjacency is a relation between distinct cosets")
        for c, w in zip(self.crossing_table, self.targets(u)):
            if w == v:
                return (c.root, c.degree)
        return None

    def graph(self) -> BruhatGraph:
        self.check_guard()  # the guard in force, as in cosets()
        if self._graph is not None:
            return self._graph
        nodes = self.cosets()
        edges = {}
        for i, u in enumerate(nodes):
            for c, v in zip(self.crossing_table, self.targets(u)):
                j = v.index
                if j == i:
                    raise InvariantError("a crossing reflection fixed a coset")
                # the edge keeps the first root seen from its lower endpoint
                key = (min(i, j), max(i, j))
                prev = edges.get(key)
                if prev is None:
                    edges[key] = (c.root, c.degree)
                elif prev[1] != c.degree:
                    # all realizing roots of one edge must agree in degree
                    raise InvariantError(
                        f"edge {key} carries degrees {prev[1]} and {c.degree}"
                    )
        self._graph = BruhatGraph(nodes=nodes, edges=edges)
        return self._graph

    # -- Bruhat up/down sets -------------------------------------------------

    def up_set(self, u: Coset) -> int:
        """Bitset over graph indices of the cosets x with u <= x."""
        return self._cover_closure(u, 1, self._up)

    def down_set(self, u: Coset) -> int:
        """Bitset over graph indices of the cosets x with x <= u."""
        return self._cover_closure(u, -1, self._down)

    def _cover_closure(self, u: Coset, step: int, memo: dict) -> int:
        # the covers of u (step 1) or the cosets it covers (step -1) are
        # the entries of its row of length u.length + step, and the covers
        # generate the order, so the set at u is u itself and the sets at
        # those entries; recursion depth is at most dim
        got = memo.get(u)
        if got is None:
            self._check_own(u)
            self.cosets()  # sets every coset's index
            got = 1 << u.index
            length = u.length + step
            for v in self.targets(u):
                if v.length == length:
                    got |= self._cover_closure(v, step, memo)
            memo[u] = got
        return got

    # -- chain search --------------------------------------------------------

    def min_chain_degrees(self, u: Coset, v: Coset) -> tuple[Degree, ...]:
        """Pareto frontier of degrees of chains from u to v, sorted; read
        from u's row, filled at u's first query, equal frontiers sharing
        one tuple."""
        self._check_own(u, v)  # a foreign v's index would read a wrong entry
        row = self._frontiers.get(u)
        if row is None:
            row = self._frontiers[u] = self._frontier_row(u)
        return row[v.index]

    def _frontier_row(self, u: Coset) -> tuple:
        """Every frontier from u, indexed by v.index, in one pass.

        M(x), the minima of the labels at the cosets below x, is the minima
        of the labels at x and of M(y) for each y that x covers; covered
        cosets are shorter, so they come first in index order.  The entry
        for v is M(dual(v)), unpacked and sorted.  The labels are dropped.
        """
        labels = self._label_search(self.up_set(u))
        pk, frontier_of = self.graph().packed, self._frontier_of
        below = []
        for node, covered in zip(labels, self._lower_covers):
            pool = [d for d, _back in node]
            for j in covered:
                pool += below[j]
            below.append(pk.minima(pool))
        row = []
        for v in self.cosets():
            m = tuple(below[self.dual(v).index])
            got = frontier_of.get(m)
            if got is None:
                if not m:
                    raise InvariantError("chain frontier is never empty")
                got = frontier_of[m] = tuple(sorted(map(pk.unpack, m)))
            row.append(got)
        return tuple(row)

    @cached_property
    def _lower_covers(self) -> tuple[tuple[int, ...], ...]:
        """Entry i: the indices of the cosets that coset i covers, the
        entries of its row one step shorter."""
        return tuple(tuple(y.index for y in self.targets(x) if y.length == x.length - 1)
                     for x in self.cosets())

    def min_chain_witnesses(
        self, u: Coset, v: Coset
    ) -> tuple[tuple[Degree, ...], tuple[ChainWitness, ...]]:
        """The frontier of (u, v), sorted, and for each of its degrees one
        chain realizing it, from a coset above u to the lowest coset below
        dual(v) that holds that degree.

        The search from u runs at u's first witness query and is kept, with
        its degree table of (unpacked, packed, holders) entries ascending
        by the unpacked tuple (`_witness_record`); each query is one pass
        over that table and a walk of back pointers per frontier degree.
        """
        self._check_own(u, v)
        got = self._labels.get(u)
        if got is None:
            got = self._labels[u] = self._witness_record(u)
        labels, table = got
        g = self.graph()
        G = g.packed.guard
        sinks = self.down_set(self.dual(v))
        frontier, found = [], []
        for d, x, holders in table:
            hit = holders & sinks
            if not hit:
                continue
            guarded = x | G
            for y, _ in found:
                if (guarded - y) & G == G:
                    break  # y <= x
            else:
                frontier.append(d)
                found.append((x, (hit & -hit).bit_length() - 1))  # the lowest sink
        if not frontier:
            raise InvariantError("chain frontier is never empty")
        nodes, edges, chains = g.nodes, g.edges, []
        for d, (x, cur) in zip(frontier, found):
            path, roots, degs = [nodes[cur]], [], []
            while True:
                for y, back in labels[cur]:
                    if y == x:
                        break
                else:
                    raise InvariantError("a back pointer names a dropped label")
                if back is None:
                    break
                pi, x = back
                alpha, edeg = edges[(cur, pi) if cur < pi else (pi, cur)]
                roots.append(alpha)
                degs.append(edeg)
                path.append(nodes[pi])
                cur = pi
            chains.append(ChainWitness(
                d, tuple(path[::-1]), tuple(roots[::-1]), tuple(degs[::-1])))
        return tuple(frontier), tuple(chains)

    def _witness_record(self, u: Coset) -> tuple[tuple, tuple]:
        """The labels of the search from u and its degree table."""
        labels = self._label_search(self.up_set(u))
        held, bit = {}, 1
        for node in labels:
            for d, _back in node:
                held[d] = held.get(d, 0) | bit
            bit <<= 1
        unpack = self.graph().packed.unpack
        return labels, tuple(sorted([(unpack(d), d, nodes) for d, nodes in held.items()]))

    def _label_search(self, sources: int) -> tuple:
        """Pareto labels of all chains starting in the bitset `sources`.

        Entry i of the result holds node i's surviving labels as
        (degree, back) pairs, back being (previous node, its degree) or
        None at a source.  Every degree, back-pointers' too, stays
        packed as the search ran on it (`BruhatGraph.packed`).

        The work queue is FIFO and each row is read in neighbour order, so
        the labels and their back pointers are a function of `sources`
        alone.  A relaxation of label d along edge e to node j costs one
        addition, `guarded = (d | G) + e`, which is nd | G for nd = d + e,
        and one test against `last[j]`, the label most recently written at
        j: labels at j are deleted only when a smaller one is written
        there, so `last[j]` is always held (0 at a source, which no nd
        beats; G before any label, which dominates nothing).  Only when
        `last[j]` does not dominate nd are the other labels at j scanned;
        the bound is tested after that, on a label about to be written,
        since a rejection changes nothing either way.
        """
        pk = self.graph().packed
        adj, G, C = pk.adj, pk.guard, pk.cap
        labels: list[dict] = [dict() for _ in adj]
        last = [G] * len(adj)
        work = deque()
        for i, bit in enumerate(reversed(bin(sources))):  # sources, ascending
            if bit == "1":
                labels[i][0] = None
                last[i] = 0
                work.append((i, 0))
        # queued labels stay within the bound and edge coordinates within
        # the largest, so every field of nd = d + e, nd + C and
        # (nd | G) - x stays inside its W + 1 bits: no carry or borrow
        # crosses into the next field, and (d | G) + e is nd | G
        while work:
            i, d = work.popleft()
            if d not in labels[i]:
                continue  # dominated since queued
            dg = d | G
            for j, e in adj[i]:
                guarded = dg + e
                if (guarded - last[j]) & G == G:
                    continue  # last[j] <= nd; a source's 0 rejects all
                lj = labels[j]
                for x in lj:
                    if (guarded - x) & G == G:
                        break  # x <= nd: nd is dominated or already there
                else:
                    nd = guarded ^ G
                    if (nd + C) & G:
                        continue  # a coordinate beyond the bound
                    for x in [x for x in lj if ((x | G) - nd) & G == G]:
                        del lj[x]
                    lj[nd] = (i, d)
                    last[j] = nd
                    work.append((j, nd))
        return tuple(tuple(lj.items()) for lj in labels)


def make_parabolic(type_label: str, rank: int, delta_P: tuple[int, ...],
                   max_elements: int = DEFAULT_ENUMERATION_GUARD) -> ParabolicData:
    """Cached ParabolicData factory; delta_P lists 0-based nodes.

    The type label is case-insensitive and delta_P is taken as a set, so
    "a" and "A", (0, 2), (2, 0) and [0, 2] all give the same object;
    max_elements sets that object's guard until the next call.
    """
    P = _make_parabolic(type_label.upper(), rank, tuple(sorted(set(delta_P))))
    P.max_elements = max_elements
    return P


@lru_cache(maxsize=None)
def _make_parabolic(type_label, rank, delta_P) -> ParabolicData:
    return ParabolicData(build_root_system(type_label, rank), delta_P)
