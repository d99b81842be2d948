"""The benchmark's three workloads: inputs, timed phase, digest and checks.

Each workload is one cold repetition inside a fresh interpreter (see
worker.py): ``setup`` builds the instance, ``query`` answers the seeded
input stream, ``canonical`` renders the answers as bytes for the SHA-256
digest, and ``check`` is the correctness pass that runs after the timed
phase and returns one failure message per failed operation.

The workloads only call the package's public functions; the counters in
``counters`` read memo sizes that the package keeps privately, because
no public accessor exists for them yet.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import qschub
from qschub import cli, grassmann, quantum

# Instances per scale.  "full" is what the benchmark measures; "smoke" is
# the same code on tiny instances, for the benchmark's own tests.  "ops"
# counts the operations the correctness pass judges (pairs, or verify
# rows); "pairs" counts the class pairs one repetition answers or, for
# verify, sweeps (every check walks the ordered pairs of the quotient).
SCALES = {
    "full": {
        "flag-minq": {"type": "A", "rank": 4, "cosets": 120, "ops": 1000, "pairs": 1000},
        "flag-products": {"type": "A", "rank": 4, "cosets": 120, "ops": 14400, "pairs": 14400},
        "gr-verify": {"k": 3, "n": 7, "ops": 16, "pairs": 1225},
    },
    "smoke": {
        "flag-minq": {"type": "A", "rank": 2, "cosets": 6, "ops": 40, "pairs": 40},
        "flag-products": {"type": "A", "rank": 2, "cosets": 6, "ops": 36, "pairs": 36},
        "gr-verify": {"k": 2, "n": 5, "ops": 16, "pairs": 100},
    },
}

# verify builds its instance with the CLI's enumeration guard; passing the
# same value makes make_parabolic's cache hand verify the pre-built one
_ENUM_GUARD = 10 ** 6


@dataclass
class Run:
    """One repetition's state: the instance, its inputs and its answers."""

    cfg: dict
    inputs: list
    P: object = None
    results: list = None
    latencies_s: list = None
    out_path: str = ""  # where gr-verify has verify write its report
    clock: object = time.perf_counter  # the timer of request latencies


def _zero(P):
    return (0,) * len(P.q_index)


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# flag-minq: a seeded stream of (u, v) pairs through min_chain_witnesses


def minq_inputs(cfg, seed):
    rng = random.Random(f"flag-minq|{seed}")
    n = cfg["cosets"]
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(cfg["pairs"])]


def minq_setup(run):
    P = qschub.make_parabolic(run.cfg["type"], run.cfg["rank"], ())
    P.cosets()
    P.graph()
    run.P = P


def minq_query(run):
    P = run.P
    cosets = P.cosets()
    clock = run.clock
    results, lat = [], []
    for i, j in run.inputs:
        t = clock()
        got = P.min_chain_witnesses(cosets[i], cosets[j])
        lat.append(clock() - t)
        results.append(got)
    run.results, run.latencies_s = results, lat


def minq_canonical(run):
    index = {c: i for i, c in enumerate(run.P.cosets())}
    rows = []
    for (i, j), (frontier, chains) in zip(run.inputs, run.results):
        rows.append([
            i, j, [list(d) for d in frontier],
            [
                [list(w.degree), [index[x] for x in w.nodes],
                 [list(r.coeffs) for r in w.edge_roots],
                 [list(d) for d in w.edge_degrees]]
                for w in chains
            ],
        ])
    return rows


def _minq_pair_ok(P, u, v, answer):
    frontier, chains = answer
    expect = qschub.min_occurring_degrees(qschub.qproduct_GB(P, u, v))
    if sorted(frontier) != sorted(expect) or len(set(frontier)) != len(frontier):
        return "frontier differs from the product's minimal degrees"
    if [w.degree for w in chains] != list(frontier):
        return "one witness per frontier degree expected"
    vdual = P.dual(v)
    for w in chains:
        nodes = w.nodes
        if not (len(w.edge_roots) == len(w.edge_degrees) == len(nodes) - 1):
            return "chain has mismatched node and edge counts"
        if not P.bruhat_leq(u, nodes[0]):
            return "chain does not start above u"
        if not P.bruhat_leq(nodes[-1], vdual):
            return "chain does not end below dual(v)"
        total = _zero(P)
        for a, b, root, deg in zip(nodes, nodes[1:], w.edge_roots, w.edge_degrees):
            adj = P.adjacency(a, b)
            if adj is None or adj[1] != deg or P.degree_of_root(root) != deg:
                return "consecutive nodes are not adjacent with the stated degree"
            total = _add(total, deg)
        if total != w.degree:
            return "edge degrees do not sum to the frontier entry"
    return None


def minq_check(run):
    P = run.P
    cosets = P.cosets()
    bad = []
    for (i, j), answer in zip(run.inputs, run.results):
        try:
            why = _minq_pair_ok(P, cosets[i], cosets[j], answer)
        except Exception as exc:  # an exception is a failed operation
            why = f"raised {exc!r}"
        if why:
            bad.append(f"({i},{j}): {why}")
    return bad


# ---------------------------------------------------------------------------
# flag-products: every pair through qproduct_GB in a seeded shuffled order


def products_inputs(cfg, seed):
    n = cfg["cosets"]
    pairs = [(i, j) for i in range(n) for j in range(n)]
    random.Random(f"flag-products|{seed}").shuffle(pairs)
    return pairs


def products_setup(run):
    P = qschub.make_parabolic(run.cfg["type"], run.cfg["rank"], ())
    cosets = P.cosets()
    P.graph()
    # the first product builds and caches the divisor engine; sigma_e * sigma_e
    # is a basis lookup, so this is the engine build and nothing else
    qschub.qproduct_GB(P, cosets[0], cosets[0])
    run.P = P


def products_query(run):
    # Most calls are memo hits of about a microsecond, so per-call
    # percentiles would time a dict lookup; the request timed is the whole
    # product table, as for verify.
    P = run.P
    cosets = P.cosets()
    t = run.clock()
    run.results = [qschub.qproduct_GB(P, cosets[i], cosets[j]) for i, j in run.inputs]
    run.latencies_s = [run.clock() - t]


def products_canonical(run):
    index = {c: i for i, c in enumerate(run.P.cosets())}
    by_pair = dict(zip(run.inputs, run.results))
    return [
        [i, j, sorted([list(d), index[w], c] for (d, w), c in by_pair[(i, j)].terms.items())]
        for (i, j) in sorted(by_pair)
    ]


def products_check(run):
    P = run.P
    cosets = P.cosets()
    zero = _zero(P)
    top = max(cosets, key=lambda c: c.length)
    chern = [P.chern_number(P.system.simple_roots[b]) for b in P.q_index]
    by_pair = dict(zip(run.inputs, run.results))
    bad = []
    for (i, j), prod in zip(run.inputs, run.results):
        u, v = cosets[i], cosets[j]
        try:
            why = None
            terms = prod.terms
            if not terms:
                why = "zero product"
            elif any(
                w.length != u.length + v.length - sum(a * b for a, b in zip(d, chern))
                for (d, w) in terms
            ):
                why = "grading broken"
            elif any(type(c) is not int for c in terms.values()):
                why = "non-integral coefficient"
            elif any(c <= 0 for c in terms.values()):
                why = "nonpositive coefficient"
            elif terms != by_pair[(j, i)].terms:
                why = "not commutative"
            elif prod.coefficient(zero, top) != (1 if v == P.dual(u) else 0):
                why = "classical top coefficient is not the duality pairing"
            elif u.length == 1:
                beta = u.min_rep.word()[0]
                if terms != quantum.quantum_chevalley(P, beta, v).terms:
                    why = "divisor row differs from quantum Chevalley"
        except Exception as exc:  # an exception is a failed operation
            why = f"raised {exc!r}"
        if why:
            bad.append(f"({i},{j}): {why}")
    return bad


# ---------------------------------------------------------------------------
# gr-verify: `qschub verify gr k n` in-process on a pre-built instance


def verify_inputs(cfg, seed):
    return []  # verify is deterministic; the seed only names the run


def verify_setup(run):
    P = grassmann.grassmannian_parabolic(run.cfg["k"], run.cfg["n"],
                                         max_elements=_ENUM_GUARD)
    P.cosets()
    P.graph()
    run.P = P


def verify_query(run):
    k, n = run.cfg["k"], run.cfg["n"]
    t = run.clock()
    code = cli.main(["verify", "gr", str(k), str(n), "--out", run.out_path])
    run.latencies_s = [run.clock() - t]
    with open(run.out_path, encoding="utf-8") as fh:
        text = fh.read()
    os.remove(run.out_path)
    run.results = [code, text]


def verify_canonical(run):
    return run.results


def verify_check(run):
    code, text = run.results
    want = run.cfg["ops"]
    rows = [ln for ln in text.splitlines() if ln.startswith(("PASS ", "FAIL "))]
    bad = [f"row failed: {ln}" for ln in rows if not ln.startswith("PASS ")]
    if len(rows) != want:
        bad.extend([f"verify printed {len(rows)} rows, expected {want}"]
                   * abs(want - len(rows)))
    if code != 0 and not bad:
        bad = [f"verify exited with {code}"] * want
    return bad


class Workload(NamedTuple):
    inputs: Callable  # (cfg, seed) -> inputs
    setup: Callable  # (run) -> None, timed as setup_s
    query: Callable  # (run) -> None, timed as the query phase
    canonical: Callable  # (run) -> JSON-able answers for the digest
    check: Callable  # (run) -> one message per failed operation


WORKLOADS = {
    "flag-minq": Workload(minq_inputs, minq_setup, minq_query, minq_canonical,
                          minq_check),
    "flag-products": Workload(products_inputs, products_setup, products_query,
                              products_canonical, products_check),
    "gr-verify": Workload(verify_inputs, verify_setup, verify_query,
                          verify_canonical, verify_check),
}


def digest(rows) -> str:
    """SHA-256 of the canonical answers, as compact sorted-key JSON."""
    blob = json.dumps(rows, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def counters(run) -> dict:
    """Memo and graph sizes at the end of the timed phase."""
    P = run.P
    engine = P._divisor_engine
    reduce_info = grassmann._reduce.cache_info()
    return {
        "parabolic.graph.edges": len(P._graph.edges) if P._graph else 0,
        "weyl.bruhat_memo.size": len(P.system._bruhat_memo),
        "quantum.product_memo.size": len(engine._products) if engine else 0,
        "quantum.column_memo.size": len(engine._column) if engine else 0,
        "quantum.terms": sum(len(c.terms) for c in engine._products.values())
        if engine else 0,
        "grassmann.reduce.hits": reduce_info.hits,
        "grassmann.reduce.misses": reduce_info.misses,
    }


# ---------------------------------------------------------------------------
# layers traced in a traced repetition

# the check functions run_instance_checks calls on a Grassmannian
_GR_CHECKS = (
    "check_pairing_integrality", "check_bruhat_duality",
    "check_wp_degree_invariance", "check_graph_structure",
    "check_chain_symmetry", "check_partition_dictionary",
    "_grassmann_product_sweep", "_grassmann_associativity",
    "check_raising_witness",
)
_GR_FUNCS = ("qproduct_grassmann", "classical_lr", "coset_of_partition",
             "partition_of_coset", "min_degree_diagonal", "monotone_chain_exists")


def span_targets() -> list:
    """(owner, attribute, span name), each on the namespace its callers read."""
    from qschub import checks, parabolic

    PD, DE = parabolic.ParabolicData, quantum.DivisorEngine
    targets = [(PD, m, f"parabolic.{m}") for m in (
        "cosets", "graph", "to_coset", "bruhat_leq", "dual", "adjacency",
        "min_chain_witnesses", "min_chain_degrees")]
    targets += [
        (parabolic, "bruhat_leq_W", "weyl.bruhat_leq_W"),
        (DE, "__init__", "quantum.engine_build"),
        (DE, "product", "quantum.product"),
        (quantum, "quantum_chevalley", "quantum.quantum_chevalley"),
        (checks, "quantum_chevalley", "quantum.quantum_chevalley"),
    ]
    targets += [(grassmann, f, f"grassmann.{f}") for f in _GR_FUNCS]
    targets += [(cli, f, f"grassmann.{f}")
                for f in ("coset_of_partition", "partition_of_coset")]
    targets += [(checks, f, "checks." + f.removeprefix("check_").lstrip("_"))
                for f in _GR_CHECKS]
    targets.append((cli, "main", "cli.main"))
    return targets


# the keys of counters(), in report order
COUNTERS = ("parabolic.graph.edges", "weyl.bruhat_memo.size",
            "quantum.product_memo.size", "quantum.column_memo.size",
            "quantum.terms", "grassmann.reduce.hits", "grassmann.reduce.misses")


def layer_metrics() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    names = dict.fromkeys(name for _o, _a, name in span_targets())
    out = []
    for name in names:
        out += [(f"{name}.s", "s", "lower"), (f"{name}.self_s", "s", "lower"),
                (f"{name}.calls", "count", "lower")]
    out += [(c, "count", "higher" if c.endswith(".hits") else "lower")
            for c in COUNTERS]
    out.append(("trace.overhead_s", "s", "lower"))
    return out
