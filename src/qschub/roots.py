"""Exact root systems for the finite crystallographic types A through G.

Roots are stored as integer coefficient vectors over the simple roots,
in Bourbaki numbering.  The invariant form is the symmetrized Cartan
form, scaled so that short roots have squared length 2; with that
normalization the Gram matrix of the simple roots is integral and every
pairing in the package is an exact integer or Fraction.  No floats.

The full root set is generated by closing the simple roots under the
simple reflections, which also certifies that the hard-coded Cartan
data is self-consistent (counts per type are checked at build time).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Container

__all__ = ["InvariantError", "Root", "RootSystem", "build_root_system"]


class InvariantError(AssertionError):
    """An internal invariant of the exact arithmetic failed.

    Raised explicitly rather than by ``assert``, so the checks survive
    ``python -O``.
    """


_RANK_RULES = {
    "A": (lambda r: r >= 1, "rank >= 1"),
    "B": (lambda r: r >= 2, "rank >= 2"),
    "C": (lambda r: r >= 2, "rank >= 2"),
    "D": (lambda r: r >= 3, "rank >= 3"),
    "E": (lambda r: r in (6, 7, 8), "rank in {6, 7, 8}"),
    "F": (lambda r: r == 4, "rank = 4"),
    "G": (lambda r: r == 2, "rank = 2"),
}

# Known number of positive roots, used as a build-time self check.
_POSITIVE_COUNT = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "E": lambda r: {6: 36, 7: 63, 8: 120}[r],
    "F": lambda r: 24,
    "G": lambda r: 6,
}


def _cartan_matrix(type_label: str, rank: int) -> list[list[int]]:
    """Cartan matrix with the convention c[i][j] = 2(b_i, b_j)/(b_i, b_i).

    Rows/columns follow Bourbaki numbering.  For the simply-laced types
    the matrix is symmetric; for B/C/F/G the asymmetric entries are
    hard-coded below.
    """
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def link(i: int, j: int, cij: int = -1, cji: int = -1) -> None:
        c[i][j] = cij
        c[j][i] = cji

    if type_label in ("A", "B", "C"):
        for i in range(rank - 1):
            link(i, i + 1)
        if type_label == "B" and rank >= 2:
            link(rank - 2, rank - 1, -1, -2)  # last root short
        if type_label == "C" and rank >= 2:
            link(rank - 2, rank - 1, -2, -1)  # last root long
    elif type_label == "D":
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 3, rank - 1)
    elif type_label == "E":
        # Chain 1-3-4-5-6(-7)(-8) with node 2 hanging off node 4.
        chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        for a, b in zip(chain, chain[1:]):
            link(a, b)
        link(1, 3)
    elif type_label == "F":
        link(0, 1)
        link(1, 2, -1, -2)  # roots 1,2 long; 3,4 short
        link(2, 3)
    elif type_label == "G":
        link(0, 1, -3, -1)  # root 1 short, root 2 long
    return c


def _symmetrizer(type_label: str, rank: int) -> tuple[int, ...]:
    """Minimal positive integers d with d_i c_ij = d_j c_ji.

    d_i is half the squared length of simple root i once short roots are
    normalized to squared length 2.
    """
    if type_label == "B":
        return tuple([2] * (rank - 1) + [1])
    if type_label == "C":
        return tuple([1] * (rank - 1) + [2])
    if type_label == "F":
        return (2, 2, 1, 1)
    if type_label == "G":
        return (1, 3)
    return tuple([1] * rank)


@dataclass(frozen=True)
class Root:
    """A root, as integer coefficients over the simple roots."""

    coeffs: tuple[int, ...]
    norm: int  # squared length under the normalized invariant form

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    @property
    def is_positive(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def supported_on(self, nodes: Container[int]) -> bool:
        """No coefficient outside `nodes`: the root lies in the span of those
        simple roots, so a positive root is in R_P^+ exactly when it is
        supported on Delta_P."""
        return all(j in nodes for j, c in enumerate(self.coeffs) if c)

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coeffs), self.norm)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Root{self.coeffs}"


class RootSystem:
    """Immutable-by-convention container for one finite root system.

    Instances are produced by :func:`build_root_system`, which caches
    them, so two requests for the same (type, rank) share one object
    (and its derived caches).
    """

    def __init__(self, type_label: str, rank: int):
        self.type_label = type_label
        self.rank = rank
        self.cartan = tuple(tuple(row) for row in _cartan_matrix(type_label, rank))
        self.symmetrizer = _symmetrizer(type_label, rank)
        # alpha_i in fundamental-weight coordinates: column i of the Cartan matrix
        self.alpha_weights = tuple(zip(*self.cartan))
        # Gram matrix of the simple roots: (b_i, b_j) = d_i c_ij.
        self.gram = tuple(
            tuple(self.symmetrizer[i] * self.cartan[i][j] for j in range(rank))
            for i in range(rank)
        )
        if any(self.gram[i][j] != self.gram[j][i]
               for i in range(rank) for j in range(rank)):
            raise InvariantError("symmetrizer mismatch")
        # the nonzero (j, (b_i, b_j)) of each row: at most four per row
        self._gram_rows = tuple(
            tuple((j, g) for j, g in enumerate(row) if g) for row in self.gram
        )
        self._generate_roots()
        self.simple_roots = tuple(
            self._index[tuple(1 if j == i else 0 for j in range(rank))]
            for i in range(rank)
        )
        # the Weyl-group layer's cache: bruhat_leq_W's memo, keyed by (u.xi, v.xi)
        self._bruhat_memo: dict = {}

    # -- construction -------------------------------------------------

    def _generate_roots(self) -> None:
        rank = self.rank
        simples = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
        # s_i(v) = v - <v, coroot_i> b_i with <v, coroot_i> = sum_j c_ij v_j,
        # read off the nonzero c_ij only: a Cartan row has at most four
        rows = [[(j, c) for j, c in enumerate(row) if c] for row in self.cartan]
        seen = set(simples)
        queue = list(simples)
        while queue:
            vec = queue.pop()
            for i, row in enumerate(rows):
                t = sum(c * vec[j] for j, c in row)
                if not t:
                    continue  # s_i fixes vec
                img = vec[:i] + (vec[i] - t,) + vec[i + 1:]
                if img not in seen:
                    seen.add(img)
                    queue.append(img)
        for vec in seen:
            if any(c > 0 for c in vec) and any(c < 0 for c in vec):
                raise InvariantError(f"mixed-sign vector generated: {vec}")
        positives = sorted(
            (v for v in seen if all(c >= 0 for c in v)),
            key=lambda v: (sum(v), v),
        )
        expected = _POSITIVE_COUNT[self.type_label](rank)
        if len(positives) != expected or len(seen) != 2 * expected:
            raise InvariantError(
                f"{self.label}: got {len(positives)} positive roots, expected {expected}"
            )
        self.positive_roots = tuple(
            Root(v, self.inner(v, v)) for v in positives
        )
        self._index = {r.coeffs: r for r in self.positive_roots}
        self._index.update({(-r).coeffs: -r for r in self.positive_roots})
        norms = {r.norm for r in self.positive_roots}
        if len(norms) not in (1, 2) or min(norms) != 2:
            raise InvariantError(f"bad norms {norms}")

    # -- basic queries -------------------------------------------------

    @property
    def label(self) -> str:
        return f"{self.type_label}{self.rank}"

    def __repr__(self) -> str:
        return f"RootSystem({self.label})"

    def is_root(self, coeffs: tuple[int, ...]) -> bool:
        return tuple(coeffs) in self._index

    def root(self, coeffs) -> Root:
        try:
            return self._index[tuple(coeffs)]
        except KeyError:
            raise ValueError(f"{tuple(coeffs)} is not a root of {self.label}") from None

    @property
    def highest_root(self) -> Root:
        return self.positive_roots[-1]

    def inner(self, u, v) -> int:
        """Invariant form (u, v) on root-lattice coefficient vectors."""
        total = 0
        for i, ui in enumerate(u):
            if ui:
                total += ui * sum(g * v[j] for j, g in self._gram_rows[i])
        return total

    # -- pairings ---------------------------------------------------------

    def _require_root(self, alpha: Root) -> Root:
        got = self._index.get(alpha.coeffs)
        if got is None or got.norm != alpha.norm:
            raise ValueError(f"{alpha} is not a root of {self.label}")
        return got

    def pairing(self, alpha: Root, i: int) -> Fraction:
        """h_alpha(omega_i) = 2(alpha, omega_i)/(alpha, alpha), exactly.

        With alpha = sum n_j b_j this is n_i (b_i, b_i)/(alpha, alpha); it
        is a nonnegative integer for every positive root, which the
        verification suite checks rather than assumes.
        """
        self._require_root(alpha)
        return Fraction(2 * self.symmetrizer[i] * alpha.coeffs[i], alpha.norm)


def build_root_system(type_label: str, rank: int) -> RootSystem:
    """Build (and cache) the root system of the given type and rank.

    The type label is case-insensitive: "a" and "A" give the same object.

    >>> build_root_system("G", 2).positive_roots[-1].coeffs
    (3, 2)
    >>> len(build_root_system("A", 3).positive_roots)
    6
    """
    return _build_root_system(type_label.upper(), rank)


@lru_cache(maxsize=None)
def _build_root_system(type_label: str, rank: int) -> RootSystem:
    if type_label not in _RANK_RULES:
        raise ValueError(
            f"unknown type {type_label!r}: expected one of A, B, C, D, E, F, G"
        )
    ok, rule = _RANK_RULES[type_label]
    if not isinstance(rank, int) or not ok(rank):
        raise ValueError(f"type {type_label} requires {rule}, got rank {rank!r}")
    return RootSystem(type_label, rank)
