"""Verification sweeps: every structural property the engine promises, runnable
per instance and aggregated by the CLI's verify command.

Each check returns CheckResult rows instead of raising, so a sweep always
produces a full report; the CLI turns any failed row into exit status 3.
The default suite covers the full flags of A1, A2, A3, B2, G2 and the
Grassmannians Gr(2,4), Gr(2,5), Gr(3,6), plus the golden Gr(4,9) product
as a sign-convention tripwire.

graph-structure alone runs the lifting walk `bruhat_leq`, proving the up- and
down-set bitsets equal to it on every pair; every other check reads u <= v off them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations
from operator import mul

from . import grassmann
from .parabolic import ParabolicData, make_parabolic
from .quantum import (
    DEFAULT_PRODUCT_GUARD,
    QClass,
    min_occurring_degrees,
    multiply_classes,
    product_engine,
    quantum_chevalley,
)
from .weyl import (DEFAULT_ENUMERATION_GUARD, _ascii_int, enumerate_parabolic_subgroup,
                   longest_element, simple_reflection, weyl_group_order)

__all__ = [
    "CheckResult",
    "run_instance_checks",
    "DEFAULT_SUITE",
    "GOLDEN_GR49",
]

# The anchor product on Gr(4,9): sigma_{5443} * sigma_{5441}.
GOLDEN_GR49 = {
    (2, (5, 3, 2, 2)): 1,
    (2, (5, 3, 3, 1)): 1,
    (2, (5, 4, 2, 1)): 1,
    (3, (3,)): 1,
    (3, (2, 1)): 2,
    (3, (1, 1, 1)): 1,
}

_ASSOC_TRIPLES = 100


@dataclass
class CheckResult:
    instance: str
    name: str
    passed: bool
    checked: int
    detail: str = ""


def _result(instance, name, failures, checked):
    """Collapse a failure list into one row, keeping the first few samples."""
    detail = "; ".join(failures[:3])
    if len(failures) > 3:
        detail += f"; ... {len(failures)} failures total"
    return CheckResult(instance, name, not failures, checked, detail)


# ---------------------------------------------------------------------------
# structural checks, any instance


def check_pairing_integrality(P: ParabolicData, label: str) -> list:
    system = P.system
    bad = []
    count = 0
    for alpha in system.positive_roots:
        for i in range(system.rank):
            count += 1
            h = system.pairing(alpha, i)
            if h.denominator != 1 or h < 0:
                bad.append(f"h_{alpha.coeffs}(w{i + 1}) = {h}")
    return [_result(label, "pairing-integrality", bad, count)]


def check_weyl_structure(P: ParabolicData, label: str) -> list:
    system = P.system
    elements = enumerate_parabolic_subgroup(system, range(system.rank))
    order = weyl_group_order(system)
    bad = []
    count = 2
    if len(elements) != order:
        bad.append(f"|W| = {len(elements)}, expected {order}")
    wo = longest_element(system)
    npos = len(system.positive_roots)
    if wo.length != npos or (wo * wo).length != 0:
        bad.append("longest element is not a length-|R+| involution")
    for w in elements:
        count += 2
        if (wo * w).length != npos - w.length:
            bad.append(f"l(wo*w) != l(wo)-l(w) at {w.word()}")
        for i in range(system.rank):
            if abs((w * simple_reflection(system, i)).length - w.length) != 1:
                bad.append(f"l(w*s{i + 1}) != l(w)+-1 at {w.word()}")
    return [_result(label, "weyl-structure", bad, count)]


def check_bruhat_duality(P: ParabolicData, label: str) -> list:
    cosets = P.cosets()
    dim = P.dim
    bad = []
    count = 0
    duals = []  # index of each coset's dual
    for u in cosets:
        count += 2
        du = P.dual(u)
        if P.dual(du) != u:
            bad.append(f"dual not involutive at {u.word()}")
        if du.length != dim - u.length:
            bad.append(f"dual length off at {u.word()}")
        duals.append(du.index)
    # the up-set bitsets, which graph-structure proves equal to bruhat_leq:
    # bit j of ups[i] says cosets[i] <= cosets[j]
    ups = [P.up_set(u) for u in cosets]
    for i, u in enumerate(cosets):
        for j, v in enumerate(cosets):
            count += 1
            if ups[i] >> j & 1 != ups[duals[j]] >> duals[i] & 1:
                bad.append(f"u<=v vs dual(v)<=dual(u) differ at {u.word()},{v.word()}")
    return [_result(label, "bruhat-duality", bad, count)]


def check_wp_degree_invariance(P: ParabolicData, label: str) -> list:
    bad = []
    count = 0
    wp = enumerate_parabolic_subgroup(P.system, P.delta_P)
    for w in wp:
        for alpha in P.crossing_roots:
            count += 1
            image = w.apply_root(alpha)
            coeffs = image.coeffs
            if all(c <= 0 for c in coeffs):
                image = -image
            if not P.is_crossing(image):
                bad.append(f"W_P moved {alpha.coeffs} out of the crossing set")
                continue
            if P.degree_of_root(image) != P.degree_of_root(alpha):
                bad.append(f"degree changed under W_P at {alpha.coeffs}")
    return [_result(label, "wp-degree-invariance", bad, count)]


def check_graph_structure(P: ParabolicData, label: str) -> list:
    g = P.graph()
    bad = []
    count = 0
    for (i, j), (root, deg) in g.edges.items():
        count += 1
        if not any(c > 0 for c in deg):
            bad.append(f"edge {i}-{j} has zero degree")
        du = P.dual(g.nodes[i])
        dv = P.dual(g.nodes[j])
        got = P.adjacency(du, dv)
        if got is None or got[1] != deg:
            bad.append(f"dual edge {i}-{j} missing or degree mismatch")
    # covers generate the Bruhat order: the up/down sets the chain search
    # reads, closed over the cover edges, against the lifting walk
    ups = [P.up_set(x) for x in g.nodes]
    downs = [P.down_set(x) for x in g.nodes]
    for i, a in enumerate(g.nodes):
        for j, b in enumerate(g.nodes):
            count += 1
            leq = P.bruhat_leq(a, b)
            if bool(ups[i] >> j & 1) != leq or bool(downs[j] >> i & 1) != leq:
                bad.append(
                    f"cover closure vs bruhat_leq differ at {a.word()},{b.word()}"
                )
    return [_result(label, "graph-structure", bad, count)]


def check_chain_symmetry(P: ParabolicData, label: str) -> list:
    # Dualizing every node of a chain and reversing it turns a (u,v)-chain
    # into a (v,u)-chain of the same degree, so the frontier must be
    # symmetric in its arguments; that IS the duality statement (plain
    # frontier(dual u, dual v) equality is false already on A1).  On G/B
    # the same frontiers give the frontier-singleton row: Postnikov
    # (Proc. AMS 133, 2005), the minimal degree in sigma_u * sigma_v is
    # unique, so every frontier is a single degree.  min_chain_degrees
    # fills a source's whole row of frontiers from one search, so (u, v)
    # is read from u's row, (v, u) from v's, and the product sweep reads
    # the same rows.
    cosets = P.cosets()
    below_dual = [P.down_set(P.dual(v)) for v in cosets]
    zero = (0,) * len(P.q_index)
    bad, many = [], []
    count = 0
    for u in cosets:
        for v in cosets:
            count += 1
            # both frontiers come sorted and without repeats
            frontier = P.min_chain_degrees(u, v)
            if frontier != P.min_chain_degrees(v, u):
                bad.append(f"frontier not symmetric at {u.word()},{v.word()}")
            if (zero in frontier) != bool(below_dual[v.index] >> u.index & 1):
                bad.append(f"zero-degree chain vs u<=dual(v) at {u.word()},{v.word()}")
            if len(frontier) != 1:
                many.append(f"frontier {frontier} at {u.word()},{v.word()}")
    rows = [_result(label, "chain-symmetry", bad, count)]
    if not P.delta_P:
        rows.append(_result(label, "frontier-singleton", many, count))
    return rows


# ---------------------------------------------------------------------------
# product sweeps


def _grading_ok(chern: tuple, c: QClass, total_len: int) -> bool:
    """l(w) = total_len - sum d_i chern_i on every term q^d sigma_w; chern
    holds the Chern numbers of the retained simple roots, in q_index order."""
    return all(w.length == total_len - sum(map(mul, d, chern)) for d, w in c.terms)


def _gr_shape(P: ParabolicData):
    """(k, n) on a Grassmannian; None on full flags, A1 = Gr(1,2) included."""
    return P.grassmannian_shape() if P.delta_P else None


def _class_labels(P: ParabolicData) -> dict:
    """Coset -> partition on Grassmannians, read through the rim-hook
    engine's dictionary; reduced word otherwise."""
    if _gr_shape(P):
        partition = grassmann.rimhook_engine(P).partition
        return {u: partition(u) for u in P.cosets()}
    return {u: u.word() for u in P.cosets()}


def _product_sweep(P: ParabolicData, label: str, engine) -> list:
    """Every pair through engine.product; Grassmannians add the diagonal
    rule to the minimal-degree row and a monotone-chains row."""
    shape = _gr_shape(P)
    cosets = P.cosets()
    zero = (0,) * len(P.q_index)
    chern = tuple(P.chern_number(P.system.simple_roots[b]) for b in P.q_index)
    top = max(cosets, key=lambda c: c.length)
    agreement = "degree-triple-agreement" if shape else "minimal-degree-agreement"
    names = ["nonvanishing", "grading", "nonnegativity", "commutativity",
             agreement, "chevalley-column", "classical-duality"]
    name_of = _class_labels(P)
    if shape:
        names.append("monotone-chains")
        k, n = shape
        dual_beads = {v: grassmann._dual_beta(name_of[v], k, n) for v in cosets}
    rows = {name: [] for name in names}
    count = 0
    for u in cosets:
        if shape:  # the monotone walk depends on lam alone: one per u
            table = grassmann._monotone_table(k, n, name_of[u])
        for v in cosets:
            count += 1
            prod = engine.product(u, v)
            tag = f"{name_of[u]},{name_of[v]}"
            if prod.is_zero:
                rows["nonvanishing"].append(f"zero product at {tag}")
                continue
            if not _grading_ok(chern, prod, u.length + v.length):
                rows["grading"].append(f"grading broken at {tag}")
            if any(c <= 0 for c in prod.terms.values()):
                rows["nonnegativity"].append(f"nonpositive coefficient at {tag}")
            if prod.terms != engine.product(v, u).terms:
                rows["commutativity"].append(f"not commutative at {tag}")
            occurring = set(min_occurring_degrees(prod))
            chains = set(P.min_chain_degrees(u, v))
            if shape:
                lam, mu = name_of[u], name_of[v]
                diag = grassmann._min_degree_diagonal(k, n, lam, mu)
                if not (occurring == {(diag,)} == chains):
                    rows[agreement].append(
                        f"diagonal {diag} vs chains {chains} vs product at {tag}"
                    )
                # the least monotone degree is diag: a chain at diag and
                # none at diag - 1
                if table[dual_beads[v]] != diag:
                    rows["monotone-chains"].append(f"monotone chain mismatch at {tag}")
            elif occurring != chains:
                rows[agreement].append(f"min degrees vs chains at {tag}")
            classical_top = prod.coefficient(zero, top)
            if classical_top != (1 if v == P.dual(u) else 0):
                rows["classical-duality"].append(
                    f"top classical coefficient {classical_top} at {tag}"
                )
            if u.length == 1:
                beta = u.word()[0]
                if prod.terms != quantum_chevalley(P, beta, v).terms:
                    rows["chevalley-column"].append(
                        f"product column differs from Chevalley at {tag}"
                    )
    return [_result(label, name, bad, count) for name, bad in rows.items()]


def _associativity(P: ParabolicData, label: str, engine) -> list:
    cosets = P.cosets()
    name_of = _class_labels(P)
    rng = random.Random(f"{P.label}|assoc")  # one sample per quotient
    prod = engine.product
    bad = []
    for _ in range(_ASSOC_TRIPLES):
        u, v, w = (rng.choice(cosets) for _ in range(3))
        left = multiply_classes(prod(u, v), QClass.basis(P, w), prod)
        right = multiply_classes(QClass.basis(P, u), prod(v, w), prod)
        if left.terms != right.terms:
            tag = ",".join(str(name_of[x]) for x in (u, v, w))
            bad.append(f"associativity fails at {tag}")
    return [_result(label, "associativity", bad, _ASSOC_TRIPLES)]


# the Grassmannian entry points, kept under their own names for tracing
def _grassmann_product_sweep(P: ParabolicData, label: str, engine) -> list:
    return _product_sweep(P, label, engine)


def _grassmann_associativity(P: ParabolicData, label: str, engine) -> list:
    return _associativity(P, label, engine)


def check_partition_dictionary(P: ParabolicData, label: str) -> list:
    k, n = P.grassmannian_shape()
    cosets = P.cosets()
    bad = []
    count = 0
    by_partition = {}
    for u in cosets:
        count += 1
        lam = grassmann.partition_of_coset(P, u)
        by_partition[lam] = u
        if grassmann.coset_of_partition(P, lam) != u:
            bad.append(f"dictionary round trip fails at {u.word()}")
        dual_lam = grassmann.partition_of_coset(P, P.dual(u))
        if dual_lam != grassmann.dual_partition(k, n, lam):
            bad.append(f"dual vs complement-rotation differ at {lam}")
    if len(by_partition) != len(cosets):
        bad.append("partition labels not distinct")
    beads = {lam: grassmann._beta(lam, k) for lam in by_partition}
    for lam, u in by_partition.items():
        up = P.up_set(u)
        for mu, v in by_partition.items():
            count += 1
            padded_mu = mu + (0,) * (k - len(mu))
            contains = all(
                a <= b for a, b in zip(lam + (0,) * (k - len(lam)), padded_mu)
            )
            if bool(up >> v.index & 1) != contains:
                bad.append(f"containment vs Bruhat at {lam},{mu}")
            if u == v:
                continue
            adj = P.adjacency(u, v)
            # one partition is the other minus a rim hook: one bead moved
            if (adj is not None) != (len(beads[lam] ^ beads[mu]) == 2):
                bad.append(f"adjacency vs rim hook at {lam},{mu}")
            if adj is not None and adj[1] != (1,):
                bad.append(f"edge degree not 1 at {lam},{mu}")
    return [_result(label, "partition-dictionary", bad, count)]


def check_quantum_monk(P: ParabolicData, label: str) -> list:
    """Type-A full flag: Chevalley terms vs direct permutation arithmetic."""
    system = P.system
    n = system.rank + 1
    bad = []
    count = 0

    def inversions(p):
        return sum(
            1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
        )

    def point(p):
        # the orbit point of p: y_{p(i)} = n - i and mu_j = y_j - y_{j+1}
        y = [0] * n
        for i, pi in enumerate(p, 1):
            y[pi - 1] = n - i
        return tuple(a - b for a, b in zip(y, y[1:]))

    coset_at = {u.mu: u for u in P.cosets()}
    for up in permutations(range(1, n + 1)):
        u = coset_at[point(up)]
        lu = inversions(up)
        for r in range(system.rank):
            count += 1
            expected: dict = {}
            for a in range(1, n):
                for b in range(a + 1, n + 1):
                    if not a <= r + 1 < b:
                        continue
                    vp = list(up)
                    vp[a - 1], vp[b - 1] = vp[b - 1], vp[a - 1]
                    lv = inversions(vp)
                    v = coset_at[point(vp)]
                    zero = (0,) * system.rank
                    if lv == lu + 1:
                        expected[(zero, v)] = expected.get((zero, v), 0) + 1
                    if lv == lu + 1 - 2 * (b - a):
                        deg = tuple(
                            1 if a - 1 <= i <= b - 2 else 0 for i in range(system.rank)
                        )
                        expected[(deg, v)] = expected.get((deg, v), 0) + 1
            got = quantum_chevalley(P, r, u)
            if got.terms != expected:
                bad.append(f"Monk pattern differs at {u.word()}, node {r + 1}")
    return [_result(label, "quantum-monk", bad, count)]


def check_raising_witness(P: ParabolicData, label: str, engine) -> list:
    """For each pair u <= v, some sigma_w whose classical product with
    sigma_u contains sigma_v with positive coefficient; one pass over u's
    memoised products collects every class so witnessed."""
    cosets = P.cosets()
    zero = (0,) * len(P.q_index)
    bad = []
    count = 0
    for u in cosets:
        witnessed = set()
        for w in cosets:  # by length: past dim, no product has a degree-0 term
            length = u.length + w.length
            if length > P.dim:
                break
            witnessed.update(v for (d, v), c in engine.product(u, w).terms.items()
                             if d == zero and c > 0 and v.length == length)
        up = P.up_set(u)
        for v in cosets:
            if not up >> v.index & 1:
                continue
            count += 1
            if v not in witnessed:
                bad.append(f"no witness for {u.word()} <= {v.word()}")
    return [_result(label, "raising-witness", bad, count)]


def check_golden_product(P: ParabolicData, label: str) -> list:
    got = grassmann.qproduct_grassmann(4, 9, (5, 4, 4, 3), (5, 4, 4, 1))
    ok = got == GOLDEN_GR49
    detail = "" if ok else f"got {sorted(got.items())}"
    return [CheckResult(label, "golden-product", ok, 1, detail)]


# ---------------------------------------------------------------------------
# suite wiring

DEFAULT_SUITE = (
    ("A1", "flag"),
    ("A2", "flag"),
    ("A3", "flag"),
    ("B2", "flag"),
    ("G2", "flag"),
    ("gr", "2", "4"),
    ("gr", "2", "5"),
    ("gr", "3", "6"),
    ("gr", "4", "9"),
)

_SMALL_GROUP = 1000


def build_instance(tokens, max_elements: int = DEFAULT_ENUMERATION_GUARD
                   ) -> tuple[str, ParabolicData]:
    """Resolve ("gr","2","4") or ("A3","flag") or ("A3","2") style tokens."""
    tokens = tuple(str(t) for t in tokens)
    if not tokens:
        raise ValueError("empty instance description")
    label = " ".join(tokens)
    if tokens[0].lower() == "gr":
        if len(tokens) != 3:
            raise ValueError("Grassmannian instances read: gr <k> <n>")
        try:
            k, n = _ascii_int(tokens[1]), _ascii_int(tokens[2])
        except ValueError:
            raise ValueError(f"gr needs integers, got {tokens[1:]}") from None
        return label, grassmann.grassmannian_parabolic(k, n, max_elements=max_elements)
    head = tokens[0]
    if len(head) < 2 or head[0].upper() not in "ABCDEFG":
        raise ValueError(f"cannot read instance type from {head!r}")
    try:
        rank = _ascii_int(head[1:])
    except ValueError:
        raise ValueError(f"cannot read rank from {head!r}") from None
    type_label = head[0].upper()
    rest = tokens[1:]
    if rest in ((), ("flag",)):  # bare "A1" is the full flag
        retained = tuple(range(rank))
    else:
        try:
            marked = sorted(map(_ascii_int, rest))
        except ValueError:
            raise ValueError(
                f"instance tail must be 'flag' or 1-based node indices, got {rest}"
            ) from None
        if any(not 1 <= m <= rank for m in marked):
            raise ValueError(f"node indices must lie in 1..{rank}: {marked}")
        if len(set(marked)) != len(marked):
            raise ValueError(f"node indices must not repeat: {marked}")
        retained = tuple(m - 1 for m in marked)
    delta_p = tuple(i for i in range(rank) if i not in retained)
    return label, make_parabolic(type_label, rank, delta_p, max_elements=max_elements)


def run_instance_checks(tokens, max_group_order: int = DEFAULT_PRODUCT_GUARD) -> list:
    """All applicable checks for one instance; returns CheckResult rows."""
    label, P = build_instance(tokens)
    if P.grassmannian_shape() == (4, 9):
        # kept to its role as golden-product tripwire; sweeps are desk-scale only
        return check_golden_product(P, label)
    results = check_pairing_integrality(P, label)
    if weyl_group_order(P.system) <= _SMALL_GROUP:
        results.extend(check_weyl_structure(P, label))
    results.extend(check_bruhat_duality(P, label))
    results.extend(check_wp_degree_invariance(P, label))
    results.extend(check_graph_structure(P, label))
    results.extend(check_chain_symmetry(P, label))
    try:
        engine = product_engine(P, max_group_order)
    except ValueError:
        return results  # no full-product engine on this quotient
    if _gr_shape(P):
        results.extend(check_partition_dictionary(P, label))
        results.extend(_grassmann_product_sweep(P, label, engine))
        results.extend(_grassmann_associativity(P, label, engine))
    else:
        results.extend(_product_sweep(P, label, engine))
        results.extend(_associativity(P, label, engine))
        if P.system.type_label == "A":
            results.extend(check_quantum_monk(P, label))
    results.extend(check_raising_witness(P, label, engine))
    return results
