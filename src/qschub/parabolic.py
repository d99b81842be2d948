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
two `ParabolicData` never compare equal.  Each coset keeps its parent one
step down its smallest left descent and no Weyl matrix; its canonical
word, for sorting and printed output, is stripped on first use from rho
under the descents down that chain.
The size |W/W_P| is the product of (ht alpha + 1)/ht alpha over the
crossing roots (below), so `cosets()`, `graph()` and the divisor engine
refuse an oversized quotient before any work.

Every positive root alpha outside R_P^+ ("crossing" root) carries two
integers used throughout:

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
no Weyl matrix; a missing row builds its ancestors' missing rows first,
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

The labels depend on u alone, so the search runs once per source coset
and is memoised on the quotient.  It runs on degrees packed into one int
each (`PackedDegrees`, built once per graph as `BruhatGraph.packed`), so
adding, the bound test and dominance are a few integer operations, and
it is frozen back to tuples to stay small: node i keeps a tuple of
(degree, back) pairs, back being (previous node, its degree) or None at
a source, degree tuples are interned, and the root and degree of an edge
are read back from `graph().edges`.  Beside the labels, each source
keeps a map from each degree to the bitset of the nodes holding it (A4
flag, all 120 sources: about 2.3 MB for both).  A pair (u, v) then takes
the Pareto minima of the degrees whose bitset meets the cosets below
dual(v), one step per distinct degree, and walks the back-pointers of
the witnesses from the lowest such node.

The up-set of u and the down-set of dual(v) are int bitsets over graph
indices (`up_set`, `down_set`), closed over the cover edges (graph edges
whose ends differ in length by one) and memoised per coset on first use.
`bruhat_leq` stays the independent lifting walk, on orbit points; the
graph-structure check compares the two on every pair.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from operator import mul
from typing import Iterable, NamedTuple, Optional

from .roots import InvariantError, Root, RootSystem, build_root_system
from .weyl import (
    DEFAULT_ENUMERATION_GUARD,
    GroupSizeGuardError,
    WeylElem,
    _strip,
    bruhat_leq_W,  # noqa: F401 - the reference walk, traced under this name by perfbench
    format_word,
    from_word,
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

    `parent` is the coset of s_i mu for the least i with mu_i < 0, stored
    as `descent`; the identity coset has neither.  The coset holds no
    Weyl matrix: its canonical word is read off the parent chain.
    """

    mu: tuple
    length: int
    system: RootSystem
    parent: Optional["Coset"] = None
    descent: Optional[int] = None
    _word: Optional[tuple] = None

    @property
    def min_rep(self) -> WeylElem:
        """The minimal representative as a matrix, built from the word on each call."""
        return from_word(self.system, self.word())

    def word(self) -> tuple[int, ...]:
        """The canonical word of the minimal representative w, stripped
        from w^-1 rho: rho under the descents from u down to the identity."""
        if self._word is None:
            cartan, xi, u = self.system.cartan, [1] * self.system.rank, self
            while u.parent is not None:
                i = u.descent
                m = xi[i]
                xi = [x - m * row[i] for x, row in zip(xi, cartan)]
                u = u.parent
            self._word = _strip(self.system, xi)
        return self._word

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

    nodes: tuple[Coset, ...]
    index: dict
    # canonical (i, j) with i < j -> (witness root, degree vector)
    edges: dict
    up: tuple  # up[i] = the j covering i: an edge with length one more
    down: tuple  # down[i] = the j that i covers

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

    * the sum of two packed degrees is the packed sum;
    * `(x + C) & G` is nonzero exactly when a coordinate of x exceeds the
      bound;
    * y <= x componentwise exactly when `((x | G) - y) & G == G`.

    `adj[i]` is row i of the graph read from its `edges`: the (j, packed
    degree) of each edge {i, j}, sorted by j.  `unpack` memoises one
    degree tuple per packed int, so the frozen labels share their degree
    tuples.
    """

    __slots__ = ("fields", "width", "guard", "cap", "adj", "_unpacked")

    def __init__(self, fields: int, bound: int, largest: int,
                 edges: Optional[dict] = None, nodes: int = 0):
        width = (bound + largest).bit_length()
        ones = sum(1 << k * (width + 1) for k in range(fields))  # bit 0 of each field
        self.fields, self.width = fields, width
        self.guard = ones << width
        self.cap = ones * ((1 << width) - 1 - bound)
        rows = [[] for _ in range(nodes)]
        for (i, j), (_alpha, deg) in (edges or {}).items():
            d = self.pack(deg)
            rows[i].append((j, d))
            rows[j].append((i, d))
        self.adj = tuple(tuple(sorted(row)) for row in rows)
        self._unpacked = {}

    def pack(self, d: Degree) -> int:
        step = self.width + 1
        return sum(c << k * step for k, c in enumerate(d))

    def unpack(self, x: int) -> Degree:
        got = self._unpacked.get(x)
        if got is None:
            step, low = self.width + 1, (1 << self.width) - 1
            got = self._unpacked[x] = tuple(
                x >> k * step & low for k in range(self.fields))
        return got


class ParabolicData:
    """A proper parabolic quotient and its cached combinatorics."""

    def __init__(self, system: RootSystem, delta_P: Iterable[int],
                 max_elements: int = DEFAULT_ENUMERATION_GUARD):
        delta_P = frozenset(delta_P)
        if not delta_P <= set(range(system.rank)):
            raise ValueError(
                f"delta_P {sorted(delta_P)} not a subset of 0..{system.rank - 1}"
            )
        if delta_P == set(range(system.rank)):
            raise ValueError("delta_P equals the whole node set: the quotient is a point")
        self.system = system
        self.delta_P = delta_P
        self.max_elements = max_elements
        self.q_index = tuple(sorted(set(range(system.rank)) - delta_P))
        self.R_P_plus = tuple(
            a for a in system.positive_roots
            if all(a.coeffs[j] == 0 for j in self.q_index)
        )
        rp = set(self.R_P_plus)
        self.crossing_roots = tuple(a for a in system.positive_roots if a not in rp)
        self.two_rho_P = tuple(
            sum(a.coeffs[j] for a in self.crossing_roots)
            for j in range(system.rank)
        )
        self.crossing_table = tuple(map(self._crossing_entry, self.crossing_roots))
        self._entry = {c.root.coeffs: c for c in self.crossing_table}
        self._lambda_P = tuple(0 if i in delta_P else 1 for i in range(system.rank))
        self._alpha = tuple(zip(*system.cartan))  # alpha_i in weight coordinates
        self._coset_of = {}  # orbit point -> its one Coset
        self._targets = {}  # coset -> row [u t_alpha], aligned with crossing_table
        self._cosets = None
        self._graph = None
        self._up, self._down = {}, {}  # graph index -> Bruhat bitset
        self._labels = {}  # coset u -> frozen labels of the search from up_set(u)
        self._holders = {}  # coset u -> {degree: bitset of the nodes holding it}
        self._divisor_engine = None
        self._rimhook_engine = None

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
        return any(alpha.coeffs[j] != 0 for j in self.q_index)

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
        word = reversed(w.word())
        return self._intern(reduce(self._reflect, word, self._lambda_P))

    def _reflect(self, mu: tuple, i: int) -> tuple:
        """s_i mu = mu - mu_i alpha_i."""
        m = mu[i]
        return tuple(x - m * a for x, a in zip(mu, self._alpha[i]))

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
                self._coset_of[mu] = Coset(mu, 0, self.system)
            else:
                chain.append((mu, i))
                mu = self._reflect(mu, i)
        got = self._coset_of[mu]
        for mu, i in reversed(chain):
            got = self._coset_of[mu] = Coset(mu, got.length + 1, self.system, got, i)
        return got

    def identity_coset(self) -> Coset:
        return self._intern(self._lambda_P)

    @cached_property
    def _opposition(self) -> tuple[int, ...]:
        """sigma with w_o(b_i) = -b_sigma(i), read off the columns of w_o."""
        return tuple(col.index(-1) for col in zip(*longest_element(self.system).mat))

    def dual(self, u: Coset) -> Coset:
        """The coset of w_o u, of complementary length: w_o mu = -mu o sigma."""
        got = self._intern(tuple(-u.mu[j] for j in self._opposition))
        if got.length != self.dim - u.length:
            raise InvariantError(f"dual of {u} has the wrong length")
        return got

    def bruhat_leq(self, u: Coset, v: Coset) -> bool:
        """Quotient Bruhat order, by the lifting walk on orbit points.

        v walks down its parents; u steps down too when v's descent s_i is
        a left descent of u.
        """
        mu, lu = u.mu, u.length
        while lu <= v.length:
            if lu == 0:
                return True
            i = v.descent
            if mu[i] < 0:
                mu, lu = self._reflect(mu, i), lu - 1
            v = v.parent
        return False

    def check_guard(self) -> None:
        """Refuse, before any work, a quotient larger than the guard in force."""
        if self.size > self.max_elements:
            raise GroupSizeGuardError(f"W/W_P for {self.label}", self.max_elements)

    def cosets(self) -> tuple[Coset, ...]:
        """All cosets, sorted by (length, canonical word).

        A level BFS on orbit points: s_i u is a longer minimal
        representative exactly when mu_i > 0, so level L holds the cosets
        of length L.  The guard in force applies to a cached enumeration
        too.
        """
        self.check_guard()
        if self._cosets is not None:
            return self._cosets
        level = [self.identity_coset()]
        found = list(level)
        while level:
            nxt = {}
            for u in level:
                for i, m in enumerate(u.mu):
                    if m > 0:
                        nxt.setdefault(self._reflect(u.mu, i))
            level = list(map(self._intern, nxt))
            found += level
        self._cosets = tuple(sorted(found, key=Coset.sort_key))
        return self._cosets

    # -- adjacency and the Bruhat graph -------------------------------------

    def targets(self, u: Coset) -> tuple[Coset, ...]:
        """The row [u t_alpha], aligned with crossing_table; memoised."""
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
            row = self._targets[u] = tuple(self._intern(self._reflect(v.mu, u.descent))
                                           for v in row)
        return row

    def adjacency(self, u: Coset, v: Coset) -> Optional[tuple[Root, Degree]]:
        """The first crossing root t with [u t] = v, and its degree, if any."""
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
        index = {u: i for i, u in enumerate(nodes)}
        edges = {}
        for i, u in enumerate(nodes):
            for c, v in zip(self.crossing_table, self.targets(u)):
                j = index[v]
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
        up = [[] for _ in nodes]
        down = [[] for _ in nodes]
        for i, j in edges:
            if nodes[j].length == nodes[i].length + 1:  # i < j: never shorter
                up[i].append(j)
                down[j].append(i)
        self._graph = BruhatGraph(
            nodes=nodes,
            index=index,
            edges=edges,
            up=tuple(map(tuple, up)),
            down=tuple(map(tuple, down)),
        )
        return self._graph

    # -- Bruhat up/down sets -------------------------------------------------

    def up_set(self, u: Coset) -> int:
        """Bitset over graph indices of the cosets x with u <= x."""
        g = self.graph()
        return self._cover_closure(g.index[u], g.up, self._up)

    def down_set(self, u: Coset) -> int:
        """Bitset over graph indices of the cosets x with x <= u."""
        g = self.graph()
        return self._cover_closure(g.index[u], g.down, self._down)

    def _cover_closure(self, i: int, covers: tuple, memo: dict) -> int:
        # the covers generate the order, so the set at i is i itself and
        # the sets at its covers; recursion depth is at most dim
        got = memo.get(i)
        if got is None:
            got = 1 << i
            for j in covers[i]:
                got |= self._cover_closure(j, covers, memo)
            memo[i] = got
        return got

    # -- chain search --------------------------------------------------------

    def min_chain_degrees(self, u: Coset, v: Coset) -> tuple[Degree, ...]:
        """Pareto frontier of degrees of chains from u to v."""
        return self._chain_search(u, v)[0]

    def min_chain_witnesses(
        self, u: Coset, v: Coset
    ) -> tuple[tuple[Degree, ...], tuple[ChainWitness, ...]]:
        frontier, labels, at, sinks = self._chain_search(u, v)
        g = self.graph()
        found = []
        for d in frontier:
            hit = at[d] & sinks
            sink = (hit & -hit).bit_length() - 1  # the lowest sink holding d
            path_nodes, roots, degs = [sink], [], []
            cur, back = sink, _back(labels[sink], d)
            while back is not None:
                pi, pd = back
                alpha, edeg = g.edges[(min(cur, pi), max(cur, pi))]
                roots.append(alpha)
                degs.append(edeg)
                path_nodes.append(pi)
                cur, back = pi, _back(labels[pi], pd)
            found.append(ChainWitness(
                d, tuple(g.nodes[i] for i in reversed(path_nodes)),
                tuple(reversed(roots)), tuple(reversed(degs))))
        return frontier, tuple(found)

    def _chain_search(self, u: Coset, v: Coset):
        # the labels depend on u alone; v only picks the sinks
        labels = self._labels.get(u)
        if labels is None:
            labels, self._holders[u] = self._label_search(self.up_set(u))
            self._labels[u] = labels
        at = self._holders[u]
        sinks = self.down_set(self.dual(v))
        frontier = pareto_minima(d for d, nodes in at.items() if nodes & sinks)
        if not frontier:
            raise InvariantError("chain frontier is never empty")
        return frontier, labels, at, sinks

    def _label_search(self, sources: int) -> tuple[tuple, dict]:
        """Pareto labels of all chains starting in the bitset `sources`.

        Entry i of the first result holds node i's surviving labels as
        (degree, back) pairs, back being (previous node, its degree) or
        None at a source; the second maps each degree to the bitset of
        the nodes holding it.  The search runs on packed degrees
        (`BruhatGraph.packed`) and is frozen back to degree tuples.
        """
        pk = self.graph().packed
        adj, G, C = pk.adj, pk.guard, pk.cap
        labels: list[dict] = [dict() for _ in adj]
        work = deque()
        for i, bit in enumerate(reversed(bin(sources))):  # sources, ascending
            if bit == "1":
                labels[i][0] = None
                work.append((i, 0))
        # queued labels stay within the bound and edge coordinates within
        # the largest, so every field of nd = d + e, nd + C and
        # (nd | G) - x stays inside its W + 1 bits: no carry or borrow
        # crosses into the next field
        while work:
            i, d = work.popleft()
            if d not in labels[i]:
                continue  # dominated since queued
            for j, e in adj[i]:
                nd = d + e
                if (nd + C) & G:
                    continue  # a coordinate beyond the bound
                lj = labels[j]
                guarded = nd | G
                for x in lj:
                    if (guarded - x) & G == G:
                        break  # x <= nd: nd is dominated or already there
                else:
                    for x in [x for x in lj if ((x | G) - nd) & G == G]:
                        del lj[x]
                    lj[nd] = (i, d)
                    work.append((j, nd))
        # freeze compactly: tuples instead of dicts, one tuple per degree
        unpack, at, frozen = pk.unpack, {}, []
        for i, lj in enumerate(labels):
            node = []
            for d, back in lj.items():
                t = unpack(d)
                at[t] = at.get(t, 0) | 1 << i
                node.append((t, None if back is None else (back[0], unpack(back[1]))))
            frozen.append(tuple(node))
        return tuple(frozen), at


def _back(node_labels: tuple, d: Degree):
    """The back-pointer of degree d among one node's labels."""
    return next(back for e, back in node_labels if e == d)


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
