"""Grassmannian quotient: partition combinatorics and the rim-hook product.

For the quotient of type A_{n-1} by the parabolic that keeps only node k
(1-based), Schubert classes are indexed by partitions inside the k x (n-k)
box.  This module provides the dictionary between coset language and
partition language, an exact classical Littlewood-Richardson expansion
(horizontal-strip recursion with the lattice-word condition), and the
quantum product computed by reducing wide partitions modulo rim hooks of
size n, one power of q per hook.  The dictionary reads and writes the
coset's orbit point mu directly: in type A, mu_j = y_j - y_{j+1} for n
values y, and on Gr(k, n) y is the indicator of S = {lam_{k+1-i} + i}.

The abacus encoding does the heavy lifting: a partition with at most k
rows becomes the k-element set B = {lam_i + k - i}, removing a rim hook
of size s is the move b -> b - s into an unoccupied slot, and the hook's
height is one more than the number of occupied slots passed over.  Each
removal of an n-hook contributes a factor q and a sign (-1)^(k - height);
a partition that is too wide but admits no removal reduces to zero.  The
reduced class must not depend on the order of removals, which the
recursion checks.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

from .parabolic import Coset, ParabolicData, make_parabolic
from .quantum import QClass
from .roots import InvariantError
from .weyl import DEFAULT_ENUMERATION_GUARD

__all__ = [
    "normalize_partition",
    "parse_partition",
    "format_partition",
    "partition_in_box",
    "partitions_in_box",
    "dual_partition",
    "grassmannian_parabolic",
    "partition_of_coset",
    "coset_of_partition",
    "beta_set",
    "partition_from_beta",
    "rimhook_adjacent",
    "reduce_mod_hooks",
    "classical_lr",
    "qproduct_grassmann",
    "qproduct_grassmann_cosets",
    "RimHookEngine",
    "min_degree_diagonal",
    "monotone_chain_exists",
]


# ---------------------------------------------------------------------------
# partitions


def normalize_partition(lam: Iterable[int]) -> tuple[int, ...]:
    """Validate weakly decreasing nonnegative parts; strip trailing zeros."""
    parts = tuple(int(x) for x in lam)
    if any(a < 0 for a in parts):
        raise ValueError(f"negative part in partition {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse "5443", "5,4,4,3", "10," (one part) or "0" (the empty partition).

    A digit spelling has one part per digit and no 0: "10" is refused.
    """
    text = text.strip()
    if text == "0":
        return ()
    if "," not in text and "0" in text:
        raise ValueError(f"cannot read partition from {text!r}: a digit spelling "
                         "has no 0; write parts of 10 or more with commas, e.g. '10,'")
    try:
        if "," in text:
            parts = [int(p) for p in text.removesuffix(",").split(",")]
        else:
            parts = [int(ch) for ch in text]
    except ValueError:
        raise ValueError(f"cannot read partition from {text!r}") from None
    if not parts:
        raise ValueError("empty partition spelled as '0'")
    return normalize_partition(parts)


def format_partition(lam: tuple[int, ...]) -> str:
    """The spelling parse_partition reads back: "5443", "12,3", "10," or "0"."""
    if not lam:
        return "0"
    if lam[0] <= 9:
        return "".join(str(a) for a in lam)
    return ",".join(str(a) for a in lam) + ("," if len(lam) == 1 else "")


def partition_in_box(k: int, n: int, lam: tuple[int, ...]) -> bool:
    return len(lam) <= k and (not lam or lam[0] <= n - k)


def _require_box(k: int, n: int, lam: tuple[int, ...]) -> tuple[int, ...]:
    lam = normalize_partition(lam)
    if not partition_in_box(k, n, lam):
        raise ValueError(f"partition {lam} does not fit in the {k} x {n - k} box")
    return lam


def partitions_in_box(k: int, n: int) -> Iterator[tuple[int, ...]]:
    """All partitions inside the k x (n-k) box, by weight then lex."""
    width = n - k

    def rows(bound: int, depth: int) -> Iterator[tuple[int, ...]]:
        if depth == 0:
            yield ()
            return
        for first in range(bound, -1, -1):
            if first == 0:
                yield ()
                return
            for rest in rows(first, depth - 1):
                yield (first,) + rest

    out = sorted(rows(width, k), key=lambda p: (sum(p), p))
    return iter(out)


def dual_partition(k: int, n: int, lam: tuple[int, ...]) -> tuple[int, ...]:
    """Complement of the 180-degree rotation inside the k x (n-k) box."""
    lam = _require_box(k, n, lam)
    padded = lam + (0,) * (k - len(lam))
    return normalize_partition(tuple((n - k) - padded[k - 1 - i] for i in range(k)))


# ---------------------------------------------------------------------------
# coset dictionary


def grassmannian_parabolic(k: int, n: int,
                           max_elements: int = DEFAULT_ENUMERATION_GUARD) -> ParabolicData:
    """Parabolic data whose quotient is Gr(k, n): keep only node k."""
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    delta_p = tuple(i for i in range(n - 1) if i != k - 1)
    return make_parabolic("A", n - 1, delta_p, max_elements=max_elements)


def partition_of_coset(P: ParabolicData, u: Coset) -> tuple[int, ...]:
    """Partition label of a Schubert coset of Gr(k, n)."""
    shape = P.grassmannian_shape()
    if shape is None:
        raise ValueError(f"{P.label} is not a Grassmannian quotient")
    k, n = shape
    # y_n, ..., y_1 up to a shift, from y_j = y_{j+1} + mu_j; the higher
    # of its two values marks S
    y = [0]
    for m in reversed(u.mu):
        y.append(y[-1] + m)
    low = min(y)
    ones = sorted(n - t for t, yt in enumerate(y) if yt > low)
    lam = normalize_partition(reversed([s - i for i, s in enumerate(ones, 1)]))
    if sum(lam) != u.length:
        raise InvariantError("partition weight must match coset length")
    return lam


def coset_of_partition(P: ParabolicData, lam: Iterable[int]) -> Coset:
    shape = P.grassmannian_shape()
    if shape is None:
        raise ValueError(f"{P.label} is not a Grassmannian quotient")
    k, n = shape
    lam = _require_box(k, n, lam)
    padded = lam + (0,) * (k - len(lam))
    ones = {padded[k - i] + i for i in range(1, k + 1)}
    y = [int(j in ones) for j in range(1, n + 1)]
    u = P._intern(tuple(a - b for a, b in zip(y, y[1:])))
    if u.length != sum(lam):
        raise InvariantError(f"coset of {lam} has length {u.length}")
    return u


# ---------------------------------------------------------------------------
# abacus moves


def beta_set(lam: tuple[int, ...], k: int) -> frozenset:
    lam = normalize_partition(lam)
    if len(lam) > k:
        raise ValueError(f"partition {lam} has more than {k} rows")
    padded = lam + (0,) * (k - len(lam))
    return frozenset(padded[i] + k - 1 - i for i in range(k))


def partition_from_beta(beta: frozenset, k: int) -> tuple[int, ...]:
    if len(beta) != k:
        raise InvariantError(f"abacus {sorted(beta)} does not hold {k} beads")
    desc = sorted(beta, reverse=True)
    return normalize_partition(tuple(desc[i] - (k - 1 - i) for i in range(k)))


def rimhook_adjacent(lam: tuple[int, ...], mu: tuple[int, ...], k: int) -> bool:
    """True when one partition is the other minus a single rim hook."""
    a = beta_set(lam, k)
    b = beta_set(mu, k)
    return len(a ^ b) == 2


@lru_cache(maxsize=None)
def _reduce(beta: frozenset, k: int, n: int):
    """Reduce modulo n-hooks; (hooks removed, sign, partition) or None for 0."""
    lam = partition_from_beta(beta, k)
    if not lam or lam[0] <= n - k:
        return (0, 1, lam)
    results = []
    for b in beta:
        c = b - n
        if c >= 0 and c not in beta:
            height = sum(1 for x in beta if c < x < b) + 1
            sign = (-1) ** (k - height)
            sub = _reduce(beta - {b} | {c}, k, n)
            results.append(
                None if sub is None else (sub[0] + 1, sign * sub[1], sub[2])
            )
    if not results:
        return None  # too wide, no hook to remove: the class vanishes
    if any(r != results[0] for r in results[1:]):
        raise InvariantError("rim-hook reduction must not depend on removal order")
    return results[0]


def reduce_mod_hooks(nu: tuple[int, ...], k: int, n: int):
    """Public wrapper around the memoized abacus reduction."""
    nu = normalize_partition(nu)
    if len(nu) > k:
        raise ValueError(f"partition {nu} has more than {k} rows")
    return _reduce(beta_set(nu, k), k, n)


# ---------------------------------------------------------------------------
# classical Littlewood-Richardson by horizontal strips


def classical_lr(lam: tuple[int, ...], mu: tuple[int, ...], k: int) -> dict:
    """Expand s_lam . s_mu in the ring of k-row Schur classes.

    Letters of content mu are placed one at a time as horizontal strips;
    the lattice condition becomes: the count of letter i in rows <= r
    never exceeds the count of letter i-1 in rows <= r-1.
    """
    lam = normalize_partition(lam)
    mu = normalize_partition(mu)
    if len(lam) > k or len(mu) > k:
        return {}
    out: dict = {}

    def strips(shape, size, prev_cum):
        """Yield (new shape, cumulative row counts) for one letter."""
        found = []

        def go(r, remaining, acc, cum):
            if r == k:
                if remaining == 0:
                    found.append((tuple(acc), tuple(cum)))
                return
            hi = remaining
            if r > 0:
                hi = min(hi, shape[r - 1] - shape[r])
            if prev_cum is not None:
                cap = (prev_cum[r - 1] if r > 0 else 0) - (cum[-1] if cum else 0)
                hi = min(hi, cap)
            for a in range(hi + 1):
                go(
                    r + 1,
                    remaining - a,
                    acc + [shape[r] + a],
                    cum + [(cum[-1] if cum else 0) + a],
                )

        go(0, size, [], [])
        return found

    def place(idx, shape, prev_cum):
        if idx == len(mu):
            key = normalize_partition(shape)
            out[key] = out.get(key, 0) + 1
            return
        for new_shape, cum in strips(shape, mu[idx], prev_cum):
            place(idx + 1, new_shape, cum)

    place(0, lam + (0,) * (k - len(lam)), None)
    return out


# ---------------------------------------------------------------------------
# quantum product


def qproduct_grassmann(k: int, n: int, lam, mu) -> dict:
    """Quantum product on Gr(k, n): {(q power, partition): coefficient}."""
    lam = _require_box(k, n, lam)
    mu = _require_box(k, n, mu)
    out: dict = {}
    for nu, c in classical_lr(lam, mu, k).items():
        red = reduce_mod_hooks(nu, k, n)
        if red is None:
            continue
        hooks, sign, tgt = red
        key = (hooks, tgt)
        out[key] = out.get(key, 0) + sign * c
    out = {key: v for key, v in out.items() if v}
    for (d, nu), v in out.items():
        if v <= 0:
            raise InvariantError(f"negative structure constant {v} at q^{d} {nu}")
        if sum(lam) + sum(mu) != sum(nu) + d * n:
            raise InvariantError("grading violated")
    return out


def qproduct_grassmann_cosets(P: ParabolicData, u: Coset, v: Coset) -> QClass:
    """Same product, spoken in coset language; it enumerates no cosets."""
    shape = P.grassmannian_shape()
    if shape is None:
        raise ValueError(f"{P.label} is not a Grassmannian quotient")
    k, n = shape
    lam, mu = partition_of_coset(P, u), partition_of_coset(P, v)
    out = QClass.zero(P)
    for (d, nu), c in qproduct_grassmann(k, n, lam, mu).items():
        out.add_term((d,), coset_of_partition(P, nu), c)
    return out


class RimHookEngine:
    """Full quantum products on a Grassmannian by the rim-hook rule."""

    name = "rimhook"

    def __init__(self, P: ParabolicData):
        self.P = P

    def product(self, u: Coset, v: Coset) -> QClass:
        return qproduct_grassmann_cosets(self.P, u, v)


# ---------------------------------------------------------------------------
# minimal q-degree combinatorics


def min_degree_diagonal(k: int, n: int, lam, mu) -> int:
    """Smallest q power in the product, from the diagonal-overlap rule.

    Overlay lam with the 180-degree rotation of mu inside the box; the
    answer is the longest run of cells in common along a NW-SE diagonal.
    """
    lam = _require_box(k, n, lam)
    mu = _require_box(k, n, mu)
    width = n - k
    lp = lam + (0,) * (k - len(lam))
    mp = mu + (0,) * (k - len(mu))

    def overlap(i: int, j: int) -> bool:
        return j < lp[i] and (width - 1 - j) < mp[k - 1 - i]

    best = 0
    run = [[0] * (width + 1) for _ in range(k + 1)]
    for i in range(k - 1, -1, -1):
        for j in range(width - 1, -1, -1):
            if overlap(i, j):
                run[i][j] = 1 + run[i + 1][j + 1]
                if run[i][j] > best:
                    best = run[i][j]
    return best


def monotone_chain_exists(k: int, n: int, lam, mu, d: int) -> bool:
    """Can at most d rim hooks be stripped from lam so it fits the dual of mu?

    Each strip is one abacus move downward; reaching a partition contained
    in the complement-of-rotation of mu means the classical intersection
    with mu is nonempty, so the walk witnesses q-degree d.
    """
    lam = _require_box(k, n, lam)
    mu = _require_box(k, n, mu)
    target = beta_set(dual_partition(k, n, mu), k)

    def inside(beta: frozenset) -> bool:
        # containment of partitions == componentwise on sorted abacus slots
        mine = sorted(beta, reverse=True)
        theirs = sorted(target, reverse=True)
        return all(a <= b for a, b in zip(mine, theirs))

    frontier = {beta_set(lam, k)}
    seen = set(frontier)
    for _step in range(d + 1):
        if any(inside(beta) for beta in frontier):
            return True
        nxt = set()
        for beta in frontier:
            for b in beta:
                for c in range(b):
                    if c not in beta:
                        cand = beta - {b} | {c}
                        if cand not in seen:
                            seen.add(cand)
                            nxt.add(cand)
        frontier = nxt
        if not frontier:
            break
    return False
