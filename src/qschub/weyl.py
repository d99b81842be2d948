"""Weyl group elements as exact integer matrices on the root lattice.

An element is only the matrix of its action in the simple-root basis
(columns are the images of the simple roots), so a product is one
matrix product and a right descent one column sign check; the inverse
comes from the reversed word.  Words are read off xi = w^-1 rho in
fundamental-weight coordinates: xi_j, the coroot height of w(alpha_j),
is negative exactly when s_j is a right descent, and (w s_j)^-1 rho =
s_j xi.  Stripping the smallest such j until xi = rho, O(r) per letter,
gives every element one canonical reduced word and its length, so all
printed output is deterministic; w_o's word is stripped from -rho.

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
from typing import Iterable, Optional, Sequence

from .roots import InvariantError, Root, RootSystem

__all__ = [
    "GroupSizeGuardError",
    "WeylElem",
    "WeylGroup",
    "bruhat_leq_W",
    "identity",
    "simple_reflection",
    "reflection_of_root",
    "from_word",
    "parse_word",
    "format_word",
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
    """Raised when an enumeration would exceed its configured bound."""

    def __init__(self, what: str, bound: int):
        super().__init__(
            f"{what} exceeds the enumeration guard of {bound} elements; "
            "raise the bound explicitly to proceed"
        )
        self.what = what
        self.bound = bound

    def __reduce__(self):
        # rebuild from the constructor's arguments, so the error survives
        # the pickle round trip out of a worker process
        return (type(self), (self.what, self.bound))


def _mat_mul(a, b):
    n = len(a)
    cols_b = tuple(zip(*b))
    return tuple(
        tuple(sum(ra[k] * cb[k] for k in range(n)) for cb in cols_b) for ra in a
    )


def _mat_vec(a, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v)) if v[j]) for row in a)


class WeylElem:
    """One Weyl group element; hashable, compared by its matrix."""

    __slots__ = ("system", "mat", "_length", "_word")

    def __init__(self, system: RootSystem, mat, length: Optional[int] = None):
        self.system = system
        self.mat = mat
        self._length = length
        self._word = None

    # -- group structure -------------------------------------------------

    def __mul__(self, other: "WeylElem") -> "WeylElem":
        if self.system is not other.system:
            raise ValueError(
                f"cannot compose elements of {self.system.label} and "
                f"{other.system.label}"
            )
        return WeylElem(self.system, _mat_mul(self.mat, other.mat))

    def inverse(self) -> "WeylElem":
        """The reversed canonical word; l(w^-1) = l(w)."""
        word = self.word()
        w = from_word(self.system, reversed(word))
        w._length = len(word)
        return w

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeylElem)
            and self.system is other.system
            and self.mat == other.mat
        )

    def __hash__(self) -> int:
        return hash(self.mat)

    def __repr__(self) -> str:
        return f"WeylElem({self.system.label}, {format_word(self.word())})"

    # -- action ----------------------------------------------------------

    def apply_root(self, alpha: Root) -> Root:
        return self.system.root(_mat_vec(self.mat, alpha.coeffs))

    # -- length and descents ----------------------------------------------

    @property
    def length(self) -> int:
        """Number of positive roots mapped to negative roots: the word's length."""
        if self._length is None:
            self._length = len(self.word())
        return self._length

    def is_right_descent(self, i: int) -> bool:
        """True iff l(w s_i) < l(w), i.e. w(b_i) is negative."""
        return any(row[i] < 0 for row in self.mat)

    def first_right_descent(self) -> Optional[int]:
        for i in range(self.system.rank):
            if self.is_right_descent(i):
                return i
        return None

    def word(self) -> tuple[int, ...]:
        """Canonical reduced word (smallest right descent stripped first).

        Stripped from xi = w^-1 rho; xi_j = sum_k M[k][j] d_k / d_j is the
        coroot height of w(alpha_j), d being the symmetrizer.
        """
        if self._word is None:
            d = self.system.symmetrizer
            xi = []
            for dj, col in zip(d, zip(*self.mat)):
                x, rem = divmod(sum(map(mul, col, d)), dj)
                if rem:
                    raise InvariantError(f"non-integral coroot height in {self.mat}")
                xi.append(x)
            self._word = _strip(self.system, xi)
            if self._length is not None and self._length != len(self._word):
                raise InvariantError(f"length {self._length} vs word {self._word}")
        return self._word

    def sort_key(self):
        return (self.length, self.word())


def _strip(system: RootSystem, xi: list) -> tuple[int, ...]:
    """The canonical word of the w with w^-1 rho = xi.

    Strips the smallest i with xi_i < 0, xi <- s_i xi = xi - xi_i alpha_i
    (alpha_i is column i of the Cartan matrix in fundamental-weight
    coordinates), until xi is dominant; the letters come off right to left.
    """
    rev = []
    while True:
        i = next((i for i, x in enumerate(xi) if x < 0), None)
        if i is None:
            return tuple(reversed(rev))
        rev.append(i)
        m = xi[i]
        xi = [x - m * row[i] for x, row in zip(xi, system.cartan)]


def identity(system: RootSystem) -> WeylElem:
    rank = range(system.rank)
    return WeylElem(system, tuple(tuple(int(i == j) for j in rank) for i in rank), length=0)


@lru_cache(maxsize=None)
def simple_reflection(system: RootSystem, i: int) -> WeylElem:
    """Generator s_i; s_i(b_j) = b_j - c_ij b_i.  One object per (system, i)."""
    if not 0 <= i < system.rank:
        raise ValueError(f"simple root index {i} out of range for {system.label}")
    rank = range(system.rank)
    mat = tuple(tuple(int(r == j) - (system.cartan[i][j] if r == i else 0) for j in rank)
                for r in rank)
    return WeylElem(system, mat, length=1)


def reflection_of_root(system: RootSystem, alpha: Root) -> WeylElem:
    """The reflection s_alpha for a positive root alpha."""
    alpha = system.root(alpha.coeffs)
    if not alpha.is_positive:
        raise ValueError(f"expected a positive root, got {alpha}")
    cols = []
    for j, row in enumerate(system.gram):
        # <b_j, alpha^vee> = 2(b_j, alpha)/(alpha, alpha)
        t, rem = divmod(2 * sum(map(mul, row, alpha.coeffs)), alpha.norm)
        if rem:
            raise InvariantError(f"non-integral coroot pairing at {alpha}")
        cols.append(tuple(int(r == j) - t * a for r, a in enumerate(alpha.coeffs)))
    return WeylElem(system, tuple(zip(*cols)))


def from_word(system: RootSystem, indices: Iterable[int]) -> WeylElem:
    """Product s_{i1} s_{i2} ... (not required to be reduced)."""
    w = identity(system)
    for i in indices:
        w = w * simple_reflection(system, i)
    return w


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
        if not token.startswith("s") or not token[1:].isdigit():
            raise ValueError(f"malformed Weyl word {text!r}: bad token {token!r}")
        i = int(token[1:])
        if not 1 <= i <= system.rank:
            raise ValueError(
                f"simple root index {i} out of range 1..{system.rank} in {text!r}"
            )
        indices.append(i - 1)
    return from_word(system, indices)


def format_word(indices: Sequence[int]) -> str:
    """Render a word on 0-based indices as "s1*s3" (identity: "e")."""
    if not indices:
        return "e"
    return "*".join(f"s{i + 1}" for i in indices)


def bruhat_leq_W(u: WeylElem, v: WeylElem) -> bool:
    """Bruhat order on the full Weyl group, by the lifting walk."""
    if u.system is not v.system:
        raise ValueError("Bruhat comparison across different systems")
    system = u.system
    memo = system._bruhat_memo
    key = (u.mat, v.mat)
    hit = memo.get(key)
    if hit is not None:
        return hit
    uu, vv = u, v
    lu, lv = u.length, v.length
    result = None
    while True:
        if lu > lv:
            result = False
            break
        if lu == 0:
            result = True
            break
        i = vv.first_right_descent()  # exists since l(vv) >= l(uu) > 0
        s = simple_reflection(system, i)
        vv = vv * s
        lv -= 1
        vv._length = lv
        if uu.is_right_descent(i):
            uu = uu * s
            lu -= 1
            uu._length = lu
    memo[key] = result
    return result


def longest_element(system: RootSystem) -> WeylElem:
    """The longest element w_o: w_o^-1 rho = -rho, so its word is stripped from -rho."""
    if system._longest is None:
        word = _strip(system, [-1] * system.rank)
        system._longest = from_word(system, word)
        system._longest._length = len(word)
    return system._longest


def _bfs_enumerate(system, indices):
    generators = [simple_reflection(system, i) for i in indices]
    start = identity(system)
    seen = {start.mat: start}
    queue = [start]
    while queue:
        nxt = []
        for w in queue:
            for s in generators:
                ws = w * s
                if ws.mat not in seen:
                    ws._length = w.length + 1
                    seen[ws.mat] = ws
                    nxt.append(ws)
        queue = nxt
    return sorted(seen.values(), key=WeylElem.sort_key)


class WeylGroup:
    """Guarded enumeration of a full Weyl group."""

    def __init__(self, system: RootSystem, max_elements: int = DEFAULT_ENUMERATION_GUARD):
        self.system = system
        self.max_elements = max_elements
        self._elements = None

    def elements(self) -> list[WeylElem]:
        if self._elements is None:
            if self.expected_order() > self.max_elements:
                raise GroupSizeGuardError(
                    f"W({self.system.label})", self.max_elements
                )
            self._elements = _bfs_enumerate(self.system, range(self.system.rank))
        return self._elements

    @property
    def order(self) -> int:
        return len(self.elements())

    def expected_order(self) -> int:
        return weyl_group_order(self.system)

    @property
    def longest(self) -> WeylElem:
        return longest_element(self.system)


def enumerate_parabolic_subgroup(
    system: RootSystem,
    indices: Iterable[int],
    max_elements: int = DEFAULT_ENUMERATION_GUARD,
) -> list[WeylElem]:
    """All elements of the subgroup generated by {s_i : i in indices}."""
    indices = sorted(set(indices))
    spanned = [a for a in system.positive_roots
               if not any(c for j, c in enumerate(a.coeffs) if j not in indices)]
    if order_from_heights(spanned) > max_elements:
        label = ",".join(str(i + 1) for i in indices)
        raise GroupSizeGuardError(f"W_P({system.label}; {label})", max_elements)
    return _bfs_enumerate(system, indices)
