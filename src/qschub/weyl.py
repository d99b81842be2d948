"""Weyl group elements as exact integer matrices on the root lattice.

An element is only the matrix of its action in the simple-root basis
(columns are the images of the simple roots), so a product is one
matrix product and a right descent one column sign check; the inverse
comes from the reversed word.  Length is the number of positive roots
sent to negatives; reduced words are recovered by walking down right
descents, always taking the smallest index, which gives every element
one canonical reduced word and makes all printed output deterministic.

`bruhat_leq_W` is the reference Bruhat walk: strip a right descent s off
the larger element, following the smaller element down only when it
shares the descent.  It is cross-checked in the test suite against
brute-force subword enumeration for every group of order at most 120,
and the quotient's own walk on orbit points is tested against it.
"""

from __future__ import annotations

from math import factorial
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
    "weyl_group_order",
    "enumerate_parabolic_subgroup",
]

DEFAULT_ENUMERATION_GUARD = 1_000_000

# Closed-form Weyl group orders by type, so an oversized request can be
# refused before any enumeration work happens.
_GROUP_ORDER = {
    "A": lambda r: factorial(r + 1),
    "B": lambda r: 2**r * factorial(r),
    "C": lambda r: 2**r * factorial(r),
    "D": lambda r: 2 ** (r - 1) * factorial(r),
    "E": lambda r: {6: 51840, 7: 2903040, 8: 696729600}[r],
    "F": lambda r: 1152,
    "G": lambda r: 12,
}


def weyl_group_order(system: RootSystem) -> int:
    """Order of the full Weyl group, computed from the type, not by listing."""
    return _GROUP_ORDER[system.type_label](system.rank)


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


def _identity_mat(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


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
        """Number of positive roots mapped to negative roots."""
        if self._length is None:
            n = 0
            for alpha in self.system.positive_roots:
                img = _mat_vec(self.mat, alpha.coeffs)
                if any(c < 0 for c in img):
                    n += 1
            self._length = n
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
        """Canonical reduced word (smallest right descent stripped first)."""
        if self._word is None:
            rev = []
            w = self
            while True:
                i = w.first_right_descent()
                if i is None:
                    break
                rev.append(i)
                w = w * simple_reflection(self.system, i)
            self._word = tuple(reversed(rev))
            if self._length is None:
                self._length = len(self._word)
            if self._length != len(self._word):
                raise InvariantError(f"length {self._length} vs word {self._word}")
        return self._word

    def sort_key(self):
        return (self.length, self.word())


def identity(system: RootSystem) -> WeylElem:
    m = _identity_mat(system.rank)
    return WeylElem(system, m, length=0)


_SIMPLE_CACHE: dict = {}


def simple_reflection(system: RootSystem, i: int) -> WeylElem:
    """Generator s_i; s_i(b_j) = b_j - c_ij b_i."""
    if not 0 <= i < system.rank:
        raise ValueError(f"simple root index {i} out of range for {system.label}")
    key = (id(system), i)
    cached = _SIMPLE_CACHE.get(key)
    if cached is not None:
        return cached
    rank = system.rank
    mat = tuple(
        tuple(
            (1 if r == j else 0) - (system.cartan[i][j] if r == i else 0)
            for j in range(rank)
        )
        for r in range(rank)
    )
    s = WeylElem(system, mat, length=1)
    _SIMPLE_CACHE[key] = s
    return s


def reflection_of_root(system: RootSystem, alpha: Root) -> WeylElem:
    """The reflection s_alpha for a positive root alpha."""
    alpha = system.root(alpha.coeffs)
    if not alpha.is_positive:
        raise ValueError(f"expected a positive root, got {alpha}")
    rank = system.rank
    cols = []
    for j in range(rank):
        # <b_j, alpha^vee> = 2(b_j, alpha)/(alpha, alpha)
        t = 2 * system.inner(
            tuple(1 if k == j else 0 for k in range(rank)), alpha.coeffs
        )
        if t % alpha.norm:
            raise InvariantError(f"non-integral coroot pairing at {alpha}")
        t //= alpha.norm
        cols.append(
            tuple((1 if r == j else 0) - t * alpha.coeffs[r] for r in range(rank))
        )
    mat = tuple(zip(*cols))
    return WeylElem(system, mat)


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
    """The longest element, built greedily (no full enumeration)."""
    if system._longest is None:
        w = identity(system)
        target = len(system.positive_roots)
        while w.length < target:
            for i in range(system.rank):
                if not w.is_right_descent(i):
                    w = w * simple_reflection(system, i)
                    break
            else:  # pragma: no cover - unreachable
                raise InvariantError("stuck before reaching the longest element")
        system._longest = w
    return system._longest


def _bfs_enumerate(system, generators, bound, what):
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
                    if len(seen) > bound:
                        raise GroupSizeGuardError(what, bound)
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
            gens = [simple_reflection(self.system, i) for i in range(self.system.rank)]
            self._elements = _bfs_enumerate(
                self.system, gens, self.max_elements, f"W({self.system.label})"
            )
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
    gens = [simple_reflection(system, i) for i in sorted(set(indices))]
    label = ",".join(str(i + 1) for i in sorted(set(indices)))
    return _bfs_enumerate(system, gens, max_elements, f"W_P({system.label}; {label})")
