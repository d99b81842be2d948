"""The memoised Littlewood-Richardson kernel against the one it replaced.

`old_classical_lr`, `old_qproduct_grassmann`, `old_monotone_chain_exists`
and `old_least_monotone_degree` are test-local copies of the earlier
code: the horizontal strips are recomputed for every pair, every
partition is validated again wherever it is read, the rim-hook reduction
goes through its own cache, and the monotone walk runs once per pair.
The package must give the same terms, in the same dict order, on every
pair asked, the Pieri engine's memo must hold only such products, and
the one monotone table per partition must give the least degree of
every pair's walk.  `old_partition_of_coset`, `old_coset_of_partition`
and `old_dual_partition` are the coset dictionary and box duality as
they were before both went through the abacus: the set S = {lam_{k+1-i}
+ i} written out inline, and duality on padded partitions.
"""

import contextlib
import io
import random
from functools import lru_cache
from operator import le

import pytest

from qschub import cli
from qschub.grassmann import (
    PieriEngine,
    _dual_beta,
    _strip_zeros,
    _min_degree_diagonal,
    _monotone_table,
    classical_lr,
    coset_of_partition,
    dual_partition,
    grassmannian_parabolic,
    min_degree_diagonal,
    monotone_chain_exists,
    normalize_partition,
    partition_from_beta,
    partition_in_box,
    partition_of_coset,
    partitions_in_box,
    qproduct_grassmann,
    qproduct_grassmann_cosets,
)
from qschub.parabolic import ParabolicData
from qschub.quantum import product_engine
from qschub.roots import InvariantError


def old_require_box(k, n, lam):
    lam = normalize_partition(lam)
    if not partition_in_box(k, n, lam):
        raise ValueError(f"partition {lam} does not fit in the {k} x {n - k} box")
    return lam


def old_beta_set(lam, k):
    lam = normalize_partition(lam)
    if len(lam) > k:
        raise ValueError(f"partition {lam} has more than {k} rows")
    padded = lam + (0,) * (k - len(lam))
    return frozenset(padded[i] + k - 1 - i for i in range(k))


@lru_cache(maxsize=None)
def old_reduce(beta, k, n):
    lam = partition_from_beta(beta, k)
    if not lam or lam[0] <= n - k:
        return (0, 1, lam)
    results = []
    for b in beta:
        c = b - n
        if c >= 0 and c not in beta:
            height = sum(1 for x in beta if c < x < b) + 1
            sub = old_reduce(beta - {b} | {c}, k, n)
            results.append(
                None if sub is None else (sub[0] + 1, (-1) ** (k - height) * sub[1], sub[2])
            )
    if not results:
        return None
    if any(r != results[0] for r in results[1:]):
        raise InvariantError("rim-hook reduction must not depend on removal order")
    return results[0]


def old_classical_lr(lam, mu, k):
    lam = normalize_partition(lam)
    mu = normalize_partition(mu)
    if len(lam) > k or len(mu) > k:
        return {}
    out = {}

    def strips(shape, size, prev_cum):
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
                go(r + 1, remaining - a, acc + [shape[r] + a],
                   cum + [(cum[-1] if cum else 0) + a])

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


def old_qproduct_grassmann(k, n, lam, mu):
    lam = old_require_box(k, n, lam)
    mu = old_require_box(k, n, mu)
    out = {}
    for nu, c in old_classical_lr(lam, mu, k).items():
        red = old_reduce(old_beta_set(nu, k), k, n)
        if red is None:
            continue
        hooks, sign, tgt = red
        out[(hooks, tgt)] = out.get((hooks, tgt), 0) + sign * c
    return {key: v for key, v in out.items() if v}


def old_monotone_chain_exists(k, n, lam, mu, d):
    lam = old_require_box(k, n, lam)
    mu = old_require_box(k, n, mu)
    padded = mu + (0,) * (k - len(mu))
    dual = normalize_partition(tuple((n - k) - padded[k - 1 - i] for i in range(k)))
    target = old_beta_set(dual, k)

    def inside(beta):
        mine = sorted(beta, reverse=True)
        theirs = sorted(target, reverse=True)
        return all(a <= b for a, b in zip(mine, theirs))

    frontier = {old_beta_set(lam, k)}
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


def old_least_monotone_degree(k, n, lam, mu, cap):
    """The fewest rim-hook strips, at most cap, that bring lam inside the
    dual of mu, or None: one breadth-first walk per pair, stopped at the
    first level holding a partition inside the dual."""
    target = sorted((n - 1 - b for b in old_beta_set(mu, k)), reverse=True)

    def inside(beta):
        return all(map(le, sorted(beta, reverse=True), target))

    frontier = {old_beta_set(lam, k)}
    seen = set(frontier)
    for step in range(cap + 1):
        if any(inside(beta) for beta in frontier):
            return step
        if step == cap:
            break
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
    return None


def old_partition_of_coset(P, u):
    P._check_own(u)
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
    lam = _strip_zeros(tuple(reversed([s - i for i, s in enumerate(ones, 1)])))
    if sum(lam) != u.length:
        raise InvariantError("partition weight must match coset length")
    return lam


def old_coset_of_partition(P, lam):
    shape = P.grassmannian_shape()
    if shape is None:
        raise ValueError(f"{P.label} is not a Grassmannian quotient")
    k, n = shape
    lam = old_require_box(k, n, lam)
    padded = lam + (0,) * (k - len(lam))
    ones = {padded[k - i] + i for i in range(1, k + 1)}
    y = [int(j in ones) for j in range(1, n + 1)]
    u = P._intern(tuple(a - b for a, b in zip(y, y[1:])))
    if u.length != sum(lam):
        raise InvariantError(f"coset of {lam} has length {u.length}")
    return u


def old_dual_partition(k, n, lam):
    lam = old_require_box(k, n, lam)
    padded = lam + (0,) * (k - len(lam))
    return normalize_partition(tuple((n - k) - padded[k - 1 - i] for i in range(k)))


def pairs(k, n, count=None):
    box = list(partitions_in_box(k, n))
    every = [(lam, mu) for lam in box for mu in box]
    if count is None:
        return every
    return random.Random(f"gr {k} {n}|oracle").sample(every, count)


CASES = [(2, 5, None), (3, 6, None), (3, 7, None), (4, 8, 300)]


@pytest.mark.parametrize("k, n, count", CASES)
def test_products_match_the_old_kernel_term_for_term(k, n, count):
    for lam, mu in pairs(k, n, count):
        assert list(classical_lr(lam, mu, k).items()) == \
            list(old_classical_lr(lam, mu, k).items()), (lam, mu)
        assert list(qproduct_grassmann(k, n, lam, mu).items()) == \
            list(old_qproduct_grassmann(k, n, lam, mu).items()), (lam, mu)


def test_monotone_chains_match_the_old_walk():
    for lam, mu in pairs(3, 7):
        for d in range(3):
            assert monotone_chain_exists(3, 7, lam, mu, d) == \
                old_monotone_chain_exists(3, 7, lam, mu, d), (lam, mu, d)


MONOTONE_BOXES = [(1, 3), (2, 4), (2, 5), (3, 6), (3, 7), (4, 8), (2, 7), (5, 9)]


@pytest.mark.parametrize("k, n", MONOTONE_BOXES)
def test_monotone_table_matches_the_walk_per_pair(k, n):
    # one table per lam against one capped walk per (lam, mu, d), d <= 5
    box = list(partitions_in_box(k, n))
    duals = {mu: _dual_beta(mu, k, n) for mu in box}
    for lam in box:
        table = _monotone_table(k, n, lam)
        assert len(table) == len(box)
        for mu in box:
            least = table[duals[mu]]
            for d in range(6):
                want = old_least_monotone_degree(k, n, lam, mu, d)
                assert want == (least if least <= d else None), (lam, mu, d)


def test_outside_input_is_still_validated():
    with pytest.raises(ValueError):
        qproduct_grassmann(3, 7, (1, 2), (1,))  # not weakly decreasing
    with pytest.raises(ValueError):
        monotone_chain_exists(3, 7, (5,), (1,), 1)  # wider than the box
    with pytest.raises(ValueError):
        classical_lr((1, -1), (1,), 3)


BAD_INPUT = [
    ((1, 2), "parts must be weakly decreasing: (1, 2)"),
    ((2, -1), "negative part in partition (2, -1)"),
    ((5,), "partition (5,) does not fit in the 3 x 4 box"),
    ((1, 1, 1, 1), "partition (1, 1, 1, 1) does not fit in the 3 x 4 box"),
]


@pytest.mark.parametrize("lam, message", BAD_INPUT)
def test_every_public_entry_point_refuses_bad_input(lam, message):
    P = grassmannian_parabolic(3, 7)
    calls = [
        lambda: qproduct_grassmann(3, 7, lam, (1,)),
        lambda: qproduct_grassmann(3, 7, (1,), lam),
        lambda: min_degree_diagonal(3, 7, lam, (1,)),
        lambda: min_degree_diagonal(3, 7, (1,), lam),
        lambda: monotone_chain_exists(3, 7, lam, (1,), 1),
        lambda: monotone_chain_exists(3, 7, (1,), lam, 1),
        lambda: coset_of_partition(P, lam),
        lambda: dual_partition(3, 7, lam),
    ]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize("k, n", [(2, 4), (2, 5), (3, 6), (3, 7)])
def test_fast_path_matches_the_validated_path(k, n):
    # a fresh engine multiplies by Pieri rows read off its partitions once;
    # the public coset product converts and validates everything again
    P = grassmannian_parabolic(k, n)
    engine = PieriEngine(P)
    for u in P.cosets():
        for v in P.cosets():
            assert engine.product(u, v).terms == qproduct_grassmann_cosets(P, u, v).terms, (u, v)
    for lam, mu in pairs(k, n):
        diag = _min_degree_diagonal(k, n, lam, mu)
        at_diag = old_monotone_chain_exists(k, n, lam, mu, diag)
        below = old_monotone_chain_exists(k, n, lam, mu, diag - 1)
        least = _monotone_table(k, n, lam)[_dual_beta(mu, k, n)]
        for d, want in ((diag, at_diag), (diag - 1, below)):
            assert (least <= d) == want
        # the sweep's one table entry: a chain at diag and none below it
        assert (least == diag) == (at_diag and not below), (lam, mu)


def test_one_engine_per_grassmannian():
    P = grassmannian_parabolic(3, 6)
    engine = product_engine(P)
    assert type(engine) is PieriEngine and engine.name == "pieri"
    assert product_engine(P) is engine is P._divisor_engine
    u, v = coset_of_partition(P, (2, 1)), coset_of_partition(P, (1,))
    assert engine.product(u, v) is engine.product(u, v)
    # one answer per ordered pair
    assert engine.product(v, u) is not engine.product(u, v)


def test_memoised_products_are_unchanged_after_verify():
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "gr", "3", "6"]) == 0
    P = grassmannian_parabolic(3, 6)  # the cached quotient verify used
    engine = product_engine(P)
    assert type(engine) is PieriEngine
    memo = engine._products  # every column the sweep built
    assert len(memo) == len(P.cosets()) ** 2
    for (u, v), got in memo.items():
        assert got == qproduct_grassmann_cosets(P, u, v)


def test_rimhook_oracle_enumerates_no_cosets():
    # product multiplies a Grassmannian pair by the rim-hook rule: no
    # coset listed and no engine built, where the Pieri engine would build both
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["product", "gr", "8", "16", "--u", "321", "--v", "22"]) == 0
    P = grassmannian_parabolic(8, 16)  # the cached quotient the command used
    assert P._cosets is None and P._divisor_engine is None
    lines = buf.getvalue().splitlines()
    assert "# engine: rimhook" in lines
    terms = [line for line in lines if not line.startswith("#")]
    assert len(terms) == len(qproduct_grassmann(8, 16, (3, 2, 1), (2, 2)))


def test_a_fresh_quotient_gets_its_own_engine():
    cached = grassmannian_parabolic(2, 4)
    fresh = ParabolicData(cached.system, cached.delta_P)
    assert product_engine(fresh) is not product_engine(cached)


BOXES_TO_9 = [(k, n) for n in range(2, 10) for k in range(1, n)]


@pytest.mark.parametrize("k, n", BOXES_TO_9)
def test_dictionary_and_duality_match_the_old_formulas(k, n):
    P = grassmannian_parabolic(k, n)
    for lam in partitions_in_box(k, n):
        assert coset_of_partition(P, lam) is old_coset_of_partition(P, lam), lam
        assert dual_partition(k, n, lam) == old_dual_partition(k, n, lam), lam
    for u in P.cosets():
        assert partition_of_coset(P, u) == old_partition_of_coset(P, u), u.mu


def test_partition_from_beta_refuses_a_malformed_abacus():
    with pytest.raises(InvariantError):
        partition_from_beta(frozenset({0, 2}), 3)  # two beads for three rows
    with pytest.raises(ValueError):
        partition_from_beta(frozenset({-1, 2, 4}), 3)  # a negative slot
