"""Weyl group elements as the integer vector xi = w^-1 rho.

An element is only xi, in fundamental-weight coordinates, and its
memoised canonical word.  s_i acts there in O(r), xi -> xi - xi_i alpha_i
(`_reflect`; alpha_i is column i of the Cartan matrix), and
(w s_i)^-1 rho = s_i xi, so xi_j, the coroot height of w(alpha_j), is
negative exactly when s_j is a right descent.  Stripping the smallest such
j until xi = rho, O(r) per letter, gives every element one canonical
reduced word and its length, so all printed output is deterministic.
rho is regular, so xi determines w: equality and hashing read xi alone.
The rest goes through the word: u * v applies v's letters to u's xi,
w(alpha) applies w's letters right to left in root coordinates, and the
inverse is the reversed word.  The identity is rho, s_i is rho - alpha_i,
s_alpha is rho - <rho, alpha^vee> alpha and w_o is -rho.

Group orders come from root heights, not from listing: |W| is the
product of (ht alpha + 1)/ht alpha over the positive roots (Macdonald,
The Poincare series of a Coxeter group, Math. Ann. 199, 1972), and over
the roots spanned by some simple roots it is their parabolic subgroup's
order, so every guard refuses before any enumeration.

`bruhat_leq_W` is the reference Bruhat walk: strip a right descent s off
the larger element, following the smaller element down only when it
shares the descent.  It is cross-checked in the test suite against
brute-force subword enumeration for every group of order at most 120,
and the quotient's own walk on orbit points is tested against it.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from operator import mul
from typing import Iterable, Sequence

from .roots import InvariantError, Root, RootSystem

__all__ = [
    "GroupSizeGuardError",
    "WeylElem",
    "bruhat_leq_W",
    "identity",
    "simple_reflection",
    "reflection_of_root",
    "from_word",
    "parse_word",
    "format_word",
    "longest_element",
    "order_from_heights",
    "weyl_group_order",
    "enumerate_parabolic_subgroup",
]

DEFAULT_ENUMERATION_GUARD = 1_000_000


def order_from_heights(roots: Iterable[Root]) -> int:
    """The product of (ht alpha + 1)/ht alpha over some positive roots, exactly."""
    heights = [alpha.height for alpha in roots]
    order, rem = divmod(prod(h + 1 for h in heights), prod(heights))
    if rem:
        raise InvariantError(f"height product over {len(heights)} roots is not an integer")
    return order


def weyl_group_order(system: RootSystem) -> int:
    """Order of the full Weyl group, from the root heights, not by listing."""
    return order_from_heights(system.positive_roots)


class GroupSizeGuardError(RuntimeError):
    """Raised when a computation would exceed its configured bound.

    `guard` names the bound: "enumeration" for coset and group
    enumerations, "group-order" for the divisor engine's |W| bound.
    """

    def __init__(self, what: str, bound: int, guard: str = "enumeration"):
        super().__init__(
            f"{what} exceeds the {guard} guard of {bound} elements; "
            "raise the bound explicitly to proceed"
        )
        self.what = what
        self.bound = bound
        self.guard = guard

    def __reduce__(self):
        # rebuild from the constructor's arguments, so the error survives
        # the pickle round trip out of a worker process
        return (type(self), (self.what, self.bound, self.guard))


def _reflect(system: RootSystem, xi: tuple, i: int) -> tuple:
    """s_i xi = xi - xi_i alpha_i, on fundamental-weight coordinates."""
    m = xi[i]
    return tuple([x - m * a for x, a in zip(xi, system.alpha_weights[i])])


def _act(system: RootSystem, letters: Iterable[int], xi: tuple) -> tuple:
    """xi under s_i for each letter i in turn, the first letter applied first."""
    for i in letters:
        xi = _reflect(system, xi, i)
    return xi


def _levels(system: RootSystem, start: tuple, indices: Sequence[int]) -> list[tuple]:
    """The orbit of a dominant start under the s_i, i in indices, in level
    order: s_i x is one step longer exactly when x_i > 0 (x = w^-1 rho for
    elements, u lambda_P for cosets), so level L holds the length-L points."""
    level = [start]
    found = list(level)
    while level:
        nxt = {}
        for x in level:
            for i in indices:
                if x[i] > 0:
                    nxt.setdefault(_reflect(system, x, i))
        level = list(nxt)
        found += level
    return found


def _node(system: RootSystem, i: int) -> int:
    """i, if it indexes a simple root: a raw xi[-1] would wrap silently."""
    if not 0 <= i < system.rank:
        raise ValueError(f"simple root index {i} out of range for {system.label}")
    return i


class WeylElem:
    """One Weyl group element w, held as xi = w^-1 rho; hashable, compared by xi."""

    __slots__ = ("system", "xi", "_word")

    def __init__(self, system: RootSystem, xi: tuple):
        self.system = system
        self.xi = xi
        self._word = None

    # -- group structure -------------------------------------------------

    def __mul__(self, other: "WeylElem") -> "WeylElem":
        """(uv)^-1 rho = v^-1 xi_u: v's letters applied to u's xi, first to last."""
        if self.system is not other.system:
            raise ValueError(
                f"cannot compose elements of {self.system.label} and "
                f"{other.system.label}"
            )
        return WeylElem(self.system, _act(self.system, other.word(), self.xi))

    def inverse(self) -> "WeylElem":
        """The reversed canonical word; l(w^-1) = l(w)."""
        return from_word(self.system, reversed(self.word()))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeylElem)
            and self.system is other.system
            and self.xi == other.xi
        )

    def __hash__(self) -> int:
        return hash(self.xi)

    def __repr__(self) -> str:
        return f"WeylElem({self.system.label}, {format_word(self.word())})"

    # -- action ----------------------------------------------------------

    def apply_root(self, alpha: Root) -> Root:
        """w(alpha): w's letters right to left, s_i v = v - <v, alpha_i^vee> alpha_i."""
        cartan, v = self.system.cartan, list(alpha.coeffs)
        for i in reversed(self.word()):
            v[i] -= sum(map(mul, cartan[i], v))
        return self.system.root(v)

    # -- length and descents ----------------------------------------------

    @property
    def length(self) -> int:
        """Number of positive roots mapped to negative roots: the word's length."""
        return len(self.word())

    def is_right_descent(self, i: int) -> bool:
        """True iff l(w s_i) < l(w), i.e. w(alpha_i) is negative."""
        return self.xi[_node(self.system, i)] < 0

    def word(self) -> tuple[int, ...]:
        """Canonical reduced word (smallest right descent stripped first)."""
        if self._word is None:
            self._word = _strip(self.system, self.xi)
        return self._word

    def sort_key(self):
        return (self.length, self.word())


def _strip(system: RootSystem, xi: tuple) -> tuple[int, ...]:
    """The canonical word of the w with w^-1 rho = xi.

    Strips the smallest i with xi_i < 0, xi <- s_i xi, until xi is
    dominant; the letters come off right to left.
    """
    rev = []
    while True:
        i = next((i for i, x in enumerate(xi) if x < 0), None)
        if i is None:
            return tuple(reversed(rev))
        rev.append(i)
        xi = _reflect(system, xi, i)


def identity(system: RootSystem) -> WeylElem:
    return WeylElem(system, (1,) * system.rank)


@lru_cache(maxsize=None)
def simple_reflection(system: RootSystem, i: int) -> WeylElem:
    """Generator s_i, with s_i rho = rho - alpha_i.  One object per (system, i)."""
    return WeylElem(system, _reflect(system, (1,) * system.rank, _node(system, i)))


def reflection_of_root(system: RootSystem, alpha: Root) -> WeylElem:
    """The reflection s_alpha for a positive root alpha: s_alpha rho =
    rho - <rho, alpha^vee> alpha, with (rho, alpha_k) = d_k."""
    alpha = system.root(alpha.coeffs)
    if not alpha.is_positive:
        raise ValueError(f"expected a positive root, got {alpha}")
    t, rem = divmod(2 * sum(map(mul, system.symmetrizer, alpha.coeffs)), alpha.norm)
    if rem:
        raise InvariantError(f"non-integral coroot pairing at {alpha}")
    # alpha in weight coordinates: coordinate j is sum_k c_jk alpha_k
    return WeylElem(system, tuple(1 - t * sum(map(mul, row, alpha.coeffs))
                                  for row in system.cartan))


def from_word(system: RootSystem, indices: Iterable[int]) -> WeylElem:
    """Product s_{i1} s_{i2} ... (not required to be reduced): its xi is
    rho under s_{i1} first."""
    nodes = (_node(system, i) for i in indices)
    return WeylElem(system, _act(system, nodes, (1,) * system.rank))


def parse_word(system: RootSystem, text: str) -> WeylElem:
    """Parse "s1*s3*s2" (or "e") into a group element.

    Indices are 1-based as in all external output.
    """
    text = text.strip()
    if text == "e":
        return identity(system)
    indices = []
    for token in text.split("*"):
        token = token.strip()
        if not (token[:1] == "s" and token[1:].isascii() and token[1:].isdigit()):
            raise ValueError(f"malformed Weyl word {text!r}: bad token {token!r}")
        i = int(token[1:])
        if not 1 <= i <= system.rank:
            raise ValueError(
                f"simple root index {i} out of range 1..{system.rank} in {text!r}"
            )
        indices.append(i - 1)
    return from_word(system, indices)


def _ascii_int(text: str) -> int:
    """int(text) on -?[0-9]+ in ASCII, parse_word's digit rule for numbers:
    int() alone also reads any Unicode digit, a '+', spaces and '_'."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def format_word(indices: Sequence[int]) -> str:
    """Render a word on 0-based indices as "s1*s3" (identity: "e")."""
    if not indices:
        return "e"
    return "*".join(f"s{i + 1}" for i in indices)


def bruhat_leq_W(u: WeylElem, v: WeylElem) -> bool:
    """Bruhat order on the full Weyl group, by the lifting walk on xi:
    strip v's smallest right descent s_i, and u's too when u shares it."""
    if u.system is not v.system:
        raise ValueError("Bruhat comparison across different systems")
    system = u.system
    memo = system._bruhat_memo
    key = (u.xi, v.xi)
    hit = memo.get(key)
    if hit is None:
        x, lu, y, lv = u.xi, u.length, v.xi, v.length
        while 0 < lu <= lv:
            i = next(i for i, c in enumerate(y) if c < 0)  # lv >= lu > 0
            y, lv = _reflect(system, y, i), lv - 1
            if x[i] < 0:
                x, lu = _reflect(system, x, i), lu - 1
        hit = memo[key] = lu == 0
    return hit


def longest_element(system: RootSystem) -> WeylElem:
    """The longest element w_o: w_o^-1 rho = -rho, so its word is stripped from -rho."""
    return WeylElem(system, (-1,) * system.rank)


def enumerate_parabolic_subgroup(
    system: RootSystem,
    indices: Iterable[int],
    max_elements: int = DEFAULT_ENUMERATION_GUARD,
) -> list[WeylElem]:
    """All elements of the subgroup generated by {s_i : i in indices}, in
    (length, canonical word) order; range(rank) gives the whole group.

    A level BFS on xi (`_levels`): w s_i is longer exactly when xi_i > 0.
    """
    indices = sorted({_node(system, i) for i in indices})
    spanned = [a for a in system.positive_roots
               if not any(c for j, c in enumerate(a.coeffs) if j not in indices)]
    order = order_from_heights(spanned)
    if order > max_elements:
        label = ",".join(str(i + 1) for i in indices)
        raise GroupSizeGuardError(
            f"W_P({system.label}; {label}) (|W_P| = {order})", max_elements)
    return sorted((WeylElem(system, xi) for xi in _levels(system, (1,) * system.rank, indices)),
                  key=WeylElem.sort_key)
