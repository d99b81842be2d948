"""Grassmannian quotient: partition combinatorics, Pieri rows, the rim-hook oracle.

For the quotient of type A_{n-1} by the parabolic that keeps only node k
(1-based), Schubert classes are indexed by partitions inside the k x (n-k)
box.  This module provides the dictionary between coset language and
partition language, an exact classical Littlewood-Richardson expansion
(horizontal-strip recursion with the lattice-word condition), the
quantum product computed by reducing wide partitions modulo rim hooks of
size n, one power of q per hook, and `PieriEngine`, the product engine
on Gr(k, n): the divisor engine's plan builder and column loop fed the
quantum Pieri rows, which are written here from partitions.

The abacus encoding does the heavy lifting, and every conversion goes
through it: a partition with at most k rows is the k-element set
B = {lam_i + k - i} of slots in {0, ..., n-1} (`_beta`, read back by
`partition_from_beta`).  A coset's orbit point is mu_j = y_j - y_{j+1},
with y the indicator of B over the slots; box duality sends bead b to
slot n-1-b (`_dual_beta`).  Removing a rim hook of size s is the move
b -> b - s into an unoccupied slot, and the hook's height is one more
than the number of occupied slots passed over.  Each removal of an
n-hook contributes a factor q and a sign (-1)^(k - height); a partition
that is too wide but admits no removal reduces to zero.  The reduced
class must not depend on the order of removals, which the recursion
checks.

The rim-hook rule is the engine's oracle.  `product_engine` picks,
guards and caches the one `PieriEngine` of a Grassmannian quotient, and
the engine refuses only a quotient its rows cannot be written for;
`qproduct_grassmann`, and `qproduct_grassmann_cosets`, through which the
command line multiplies a Grassmannian pair, expand the one pair asked
for and keep no product.  Across expansions the horizontal-strip step
and the rim-hook reduction are memoised.

Partitions are validated once, where they enter the module: only
`_require_box`, `beta_set`, `classical_lr` and `parse_partition` call
`normalize_partition`, and what the module builds is not validated
again.  The public entry points check their input and hand it to a
private body (`_qproduct`, `_classical_lr`, `_min_degree_diagonal`,
`_monotone_table`) that trusts it.  The verify sweep calls the bodies on
partitions read off its cosets, each coset converted once.

The monotone rim-hook walk from lam does not depend on mu, which only
picks where it may stop, so it runs once per partition: `_monotone_table`
walks from lam once and tabulates, for every partition rho in the box,
the fewest strips that bring lam inside rho.  The least degree of
(lam, mu) is the entry of dual(mu); the verify sweep builds one table per
class of its outer loop and reads it for every pair.  A single query,
`monotone_chain_exists(k, n, lam, mu, d)`, builds no table: it runs the
same walk (`_monotone_levels`) capped at level d and stops at the first
partition inside dual(mu).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations, product
from operator import le, sub
from typing import Iterable, Iterator, Optional

from .parabolic import Coset, ParabolicData, make_parabolic
from .quantum import DivisorEngine, QClass
from .roots import InvariantError
from .weyl import DEFAULT_ENUMERATION_GUARD, _ascii_int

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
    "classical_lr",
    "qproduct_grassmann",
    "qproduct_grassmann_cosets",
    "PieriEngine",
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
    return _strip_zeros(parts)


def _strip_zeros(parts: tuple[int, ...]) -> tuple[int, ...]:
    """A padded partition without its trailing zeros."""
    end = len(parts)
    while end and not parts[end - 1]:
        end -= 1
    return parts[:end]


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse "5443", "5,4,4,3", "10," (one part) or "0" (the empty partition).

    A digit spelling has one part per digit and no 0: "10" is refused.
    """
    text = text.strip()
    if not text:
        raise ValueError("cannot read partition from '': write the empty partition as '0'")
    if text == "0":
        return ()
    if "," not in text and "0" in text:
        raise ValueError(f"cannot read partition from {text!r}: a digit spelling "
                         "has no 0; write parts of 10 or more with commas, e.g. '10,'")
    try:
        if "," in text:
            parts = [_ascii_int(p) for p in text.removesuffix(",").split(",")]
        else:
            parts = [_ascii_int(ch) for ch in text]
    except ValueError:
        raise ValueError(f"cannot read partition from {text!r}") from None
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


def _require_shape(k: int, n: int) -> None:
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")


def _require_box(k: int, n: int, lam: tuple[int, ...]) -> tuple[int, ...]:
    _require_shape(k, n)
    lam = normalize_partition(lam)
    if not partition_in_box(k, n, lam):
        raise ValueError(f"partition {lam} does not fit in the {k} x {n - k} box")
    return lam


def partitions_in_box(k: int, n: int) -> Iterator[tuple[int, ...]]:
    """All partitions inside the k x (n-k) box, by weight then lex.

    Each is read off its abacus, a k-element subset of {0, ..., n-1}
    (see `beta_set`), so the box is the C(n, k) such subsets.
    """
    _require_shape(k, n)
    return iter(sorted((partition_from_beta(frozenset(beads), k)
                        for beads in combinations(range(n), k)),
                       key=lambda p: (sum(p), p)))


def dual_partition(k: int, n: int, lam: tuple[int, ...]) -> tuple[int, ...]:
    """Complement of the 180-degree rotation inside the k x (n-k) box."""
    return partition_from_beta(_dual_beta(_require_box(k, n, lam), k, n), k)


# ---------------------------------------------------------------------------
# coset dictionary


def grassmannian_parabolic(k: int, n: int,
                           max_elements: int = DEFAULT_ENUMERATION_GUARD) -> ParabolicData:
    """Parabolic data whose quotient is Gr(k, n): keep only node k."""
    _require_shape(k, n)
    delta_p = tuple(i for i in range(n - 1) if i != k - 1)
    return make_parabolic("A", n - 1, delta_p, max_elements=max_elements)


def partition_of_coset(P: ParabolicData, u: Coset) -> tuple[int, ...]:
    """Partition label of a Schubert coset of Gr(k, n)."""
    P._check_own(u)
    shape = P.grassmannian_shape()
    if shape is None:
        raise ValueError(f"{P.label} is not a Grassmannian quotient")
    # y_1, ..., y_n up to a shift, from y_{j+1} = y_j - mu_j; the higher
    # of its two values marks the beads, y_j at slot j - 1
    y = list(accumulate(u.mu, sub, initial=0))
    low = min(y)
    lam = partition_from_beta(frozenset(t for t, yt in enumerate(y) if yt > low), shape[0])
    if sum(lam) != u.length:
        raise InvariantError("partition weight must match coset length")
    return lam


def coset_of_partition(P: ParabolicData, lam: Iterable[int]) -> Coset:
    shape = P.grassmannian_shape()
    if shape is None:
        raise ValueError(f"{P.label} is not a Grassmannian quotient")
    k, n = shape
    lam = _require_box(k, n, lam)
    beads = _beta(lam, k)
    y = [int(j in beads) for j in range(n)]
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
    return _beta(lam, k)


def _beta(lam: tuple[int, ...], k: int) -> frozenset:
    """beta_set of a partition already known to have at most k rows."""
    padded = lam + (0,) * (k - len(lam))
    return frozenset(padded[i] + k - 1 - i for i in range(k))


def partition_from_beta(beta: frozenset, k: int) -> tuple[int, ...]:
    """The partition whose abacus is beta: its i-th largest bead less k - i.

    Distinct beads make the parts weakly decreasing, so only the bead count
    (InvariantError) and a negative slot (ValueError) are checked."""
    if len(beta) != k:
        raise InvariantError(f"abacus {sorted(beta)} does not hold {k} beads")
    desc = sorted(beta, reverse=True)
    if desc and desc[-1] < 0:
        raise ValueError(f"abacus {sorted(beta)} has a bead in a negative slot")
    return _strip_zeros(tuple(desc[i] - (k - 1 - i) for i in range(k)))


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
    return _classical_lr(lam, mu, k)


def _classical_lr(lam: tuple[int, ...], mu: tuple[int, ...], k: int) -> dict:
    """classical_lr of two partitions already known to have at most k rows."""
    out: dict = {}

    def place(idx, shape, prev_cum):
        if idx == len(mu):
            key = _strip_zeros(shape)
            out[key] = out.get(key, 0) + 1
            return
        for new_shape, cum in _strips(shape, mu[idx], prev_cum):
            place(idx + 1, new_shape, cum)

    place(0, lam + (0,) * (k - len(lam)), None)
    return out


@lru_cache(maxsize=None)
def _strips(shape: tuple, size: int, prev_cum) -> tuple:
    """(new shape, cumulative row counts) for each way to add one letter.

    shape is padded to k = len(shape) rows; the letter fills a horizontal
    strip of `size` boxes, and prev_cum (None for the first letter) holds
    the previous letter's cumulative counts, which cap this letter's.
    The same states recur across pairs, so the result is memoised.
    """
    k = len(shape)
    found = []

    def go(r, remaining, acc, cum):
        if r == k:
            if remaining == 0:
                found.append((acc, cum))
            return
        total = cum[-1] if cum else 0
        hi = remaining
        if r > 0:
            hi = min(hi, shape[r - 1] - shape[r])
        if prev_cum is not None:
            hi = min(hi, (prev_cum[r - 1] if r > 0 else 0) - total)
        for a in range(hi + 1):
            go(r + 1, remaining - a, acc + (shape[r] + a,), cum + (total + a,))

    go(0, size, (), ())
    return tuple(found)


# ---------------------------------------------------------------------------
# quantum product


def qproduct_grassmann(k: int, n: int, lam, mu) -> dict:
    """Quantum product on Gr(k, n): {(q power, partition): coefficient}."""
    return _qproduct(k, n, _require_box(k, n, lam), _require_box(k, n, mu))


def _qproduct(k: int, n: int, lam: tuple[int, ...], mu: tuple[int, ...]) -> dict:
    """qproduct_grassmann of two partitions already known to fit the box."""
    out: dict = {}
    for nu, c in _classical_lr(lam, mu, k).items():
        red = _reduce(_beta(nu, k), k, n)
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
    lam, mu = partition_of_coset(P, u), partition_of_coset(P, v)  # refuses a non-Grassmannian
    k, n = P.grassmannian_shape()
    return QClass(P, {((d,), coset_of_partition(P, nu)): c
                      for (d, nu), c in qproduct_grassmann(k, n, lam, mu).items()})


def _between(lo: tuple, hi: tuple) -> Iterator[tuple]:
    """Every vector x with lo <= x <= hi termwise, lex order; with
    lo_i >= hi_{i+1} each is a partition, padded."""
    return product(*(range(a, b + 1) for a, b in zip(lo, hi)))


class PieriEngine(DivisorEngine):
    """Full quantum products on Gr(k, n) from the quantum Pieri rows.

    The divisor engine's plan builder and column loop, fed the rows of
    the special classes sigma_p, p = 1..n-k, which generate the ring, in
    place of the Chevalley rows.  Bertram's quantum Pieri rule (in Buch's
    form, Compositio 137, 2003) reads sigma_p * sigma_lam = sum sigma_mu
    + q sum sigma_nu, each coefficient 1:
    - mu/lam is a horizontal strip of p boxes with mu in the box, so
      lam_i <= mu_i <= lam_{i-1}, with lam_0 = n - k;
    - lam_i - 1 >= nu_i >= lam_{i+1} - 1, nu_k >= 0 and |nu| = |lam| +
      p - n, so nu is lam less its first column, less a horizontal strip
      of n - k - p boxes, and lam has k parts.
    The p = 1 row is the quantum Chevalley formula.  sigma_p has degree
    p, so the plan of a class of length l reads the classical columns
    sigma_p . sigma_w with l(w) = l - p.  q has Chern number n >= 2, so
    the divisor engine's packed field bound holds unchanged.

    Its one refusal is the row builder's: the rows need a Grassmannian.
    Which quotient gets this engine, and under which guard, is
    `product_engine`'s policy: one per Grassmannian quotient, under the
    enumeration guard alone, since its cost follows the C(n, k) cosets,
    not |W|.  The rim-hook rule (`_qproduct`) stays as its oracle.
    """

    name = "pieri"

    def _generators(self, shift) -> list:
        """(rows, p) for p = 1..n-k, rows[wi] = sigma_p * sigma_w packed.

        Each term lands in exactly one row: every mu with lam_i <= mu_i <=
        lam_{i-1} (lam_0 = n - k) other than lam is a classical term of row
        p = |mu| - |lam| <= n - k, and every nu with lam_{i+1} - 1 <= nu_i
        <= lam_i - 1 (nu_k >= 0) a q-term of row p = |nu| - |lam| + n >= 1.
        So each coset's rows are read off two box enumerations.  Any
        quotient but a Grassmannian with Delta_P nonempty is refused here,
        the full flag A1 = Gr(1,2) included.
        """
        P = self.P
        if not P.delta_P or P.grassmannian_shape() is None:
            raise ValueError(f"the Pieri engine needs a Grassmannian quotient, not {P.label}")
        k, n = P.grassmannian_shape()
        width = n - k
        labels = [partition_of_coset(P, u) for u in self.cosets]
        labels = [lam + (0,) * (k - len(lam)) for lam in labels]
        index = {lam: i for i, lam in enumerate(labels)}  # padded partition -> coset index
        q = shift((1,))
        rows = [[] for _ in range(width)]
        for lam in labels:
            size = sum(lam)
            terms = [[] for _ in range(width + 1)]  # terms[p], p = 0 unused
            for mu in _between(lam, (width,) + lam[:-1]):
                terms[sum(mu) - size].append((index[mu], 1))
            hat = tuple(a - 1 for a in lam)  # lam less its first column
            for nu in _between(hat[1:] + (0,), hat):
                terms[sum(nu) - size + n].append((q | index[nu], 1))
            for row, got in zip(rows, terms[1:]):
                row.append(tuple(got))
        return [(row, p) for p, row in enumerate(rows, 1)]


# ---------------------------------------------------------------------------
# minimal q-degree combinatorics


def min_degree_diagonal(k: int, n: int, lam, mu) -> int:
    """Smallest q power in the product, from the diagonal-overlap rule.

    Overlay lam with the 180-degree rotation of mu inside the box; the
    answer is the longest run of cells in common along a NW-SE diagonal.
    """
    return _min_degree_diagonal(k, n, _require_box(k, n, lam), _require_box(k, n, mu))


def _min_degree_diagonal(k: int, n: int, lam: tuple[int, ...],
                         mu: tuple[int, ...]) -> int:
    """min_degree_diagonal of two partitions already known to fit the box."""
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
    target = sorted(_dual_beta(mu, k, n), reverse=True)
    # rho lies inside dual(mu) exactly when its beads, both sorted, do
    return any(all(map(le, sorted(beta, reverse=True), target))
               for level in _monotone_levels(_beta(lam, k), d) for beta in level)


def _dual_beta(mu: tuple[int, ...], k: int, n: int) -> frozenset:
    """The abacus of dual(mu): slot n-1-b for each bead b of mu."""
    return frozenset(n - 1 - b for b in _beta(mu, k))


@lru_cache(maxsize=None)
def _box_abaci(k: int, n: int) -> tuple:
    """(abacus, abaci one box smaller) of each partition in the box, by size."""
    out = []
    for beta in sorted(map(frozenset, combinations(range(n), k)), key=sum):
        # a corner box off: one bead one slot down into a free slot
        out.append((beta, tuple(beta - {b} | {b - 1}
                                for b in beta if b and b - 1 not in beta)))
    return tuple(out)


def _monotone_levels(start: frozenset, cap: Optional[int] = None) -> Iterator[list]:
    """The breadth-first walk over downward abacus moves from `start`,
    one list per level: level s holds the abaci first reached by s rim-hook
    strips.  With a cap it stops after level cap, and yields nothing when
    cap < 0; a caller that stops early leaves the next level unbuilt."""
    seen, level, step = {start}, [start], 0
    while level and (cap is None or step <= cap):
        yield level
        if step == cap:
            return
        step += 1
        nxt = []
        for beta in level:
            for b in beta:
                for c in range(b):
                    if c not in beta:
                        cand = beta - {b} | {c}
                        if cand not in seen:
                            seen.add(cand)
                            nxt.append(cand)
        level = nxt


def _monotone_table(k: int, n: int, lam: tuple[int, ...]) -> dict:
    """Abacus of rho -> the fewest rim-hook strips that bring lam inside
    rho, for every rho in the box; lam is already known to fit it.

    The uncapped walk from lam (`_monotone_levels`) records the level of
    every partition it reaches, all inside lam and the empty one among
    them.  Then, by increasing size, rho takes the least of its own level
    and of its entries one box smaller, since a partition inside rho is
    rho or lies inside rho minus a corner.  So (lam, mu) has a chain at d
    exactly when the entry of dual(mu) is at most d.
    """
    level = {beta: step
             for step, reached in enumerate(_monotone_levels(_beta(lam, k)))
             for beta in reached}
    table = {}
    for beta, smaller in _box_abaci(k, n):
        inside = [table[s] for s in smaller]
        if beta in level:
            inside.append(level[beta])
        table[beta] = min(inside)
    return table
