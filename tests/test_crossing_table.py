"""The crossing-root table against the direct computation it replaced.

Every row entry [u t_alpha], every Chevalley product and every graph edge
root is recomputed here the slow way, by projecting u * t_alpha with
`to_coset`, on each default-suite instance except gr 4 9, plus B3 2,
C3 flag, G2 1, D4 flag, F4 1 4, E6 1 and B3 1 3.  The rows themselves
come from parent rows by orbit-point reflections; the last tests build
them on fresh quotients, longest coset first, and with every Weyl element
product and the action of Weyl elements on roots disabled.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from qschub.checks import DEFAULT_SUITE, build_instance
from qschub.grassmann import grassmannian_parabolic
from qschub.parabolic import ParabolicData, make_parabolic
from qschub.quantum import QClass, classical_chevalley, quantum_chevalley
from qschub.weyl import WeylElem, reflection_of_root

INSTANCES = [t for t in DEFAULT_SUITE if t != ("gr", "4", "9")] + [
    ("B3", "2"), ("C3", "flag"), ("G2", "1"),
    ("D4", "flag"), ("F4", "1", "4"), ("E6", "1"), ("B3", "1", "3"),
]


@pytest.fixture(params=INSTANCES, ids=" ".join)
def P(request):
    return build_instance(request.param)[1]


@lru_cache(maxsize=1024)  # bounded: it holds the cosets it has seen
def rep(u):
    """u.min_rep, which the coset keeps after its first read."""
    return u.min_rep


def direct_target(P, u, alpha):
    return P.to_coset(rep(u) * reflection_of_root(P.system, alpha))


def direct_chevalley(P, beta_index, u, quantum):
    """The Chevalley loop as written before the table existed."""
    system = P.system
    beta = system.simple_roots[beta_index]
    out = QClass.zero(P)
    zero = (0,) * len(P.q_index)
    for alpha in P.crossing_roots:
        h = Fraction(alpha.coeffs[beta_index] * beta.norm, alpha.norm)
        assert h.denominator == 1 and h >= 0
        h = int(h)
        if h == 0:
            continue
        v = direct_target(P, u, alpha)
        if v.length == u.length + 1:
            out.add_term(zero, v, h)
        if quantum:
            n_alpha = Fraction(2 * system.inner(P.two_rho_P, alpha.coeffs), alpha.norm)
            if v.length == u.length + 1 - n_alpha:
                degree = tuple(
                    int(Fraction(alpha.coeffs[j] * 2 * system.symmetrizer[j], alpha.norm))
                    for j in P.q_index
                )
                out.add_term(degree, v, h)
    return out


def test_table_entries_match_direct_formulas(P):
    system = P.system
    assert tuple(c.root for c in P.crossing_table) == P.crossing_roots
    for c in P.crossing_table:
        alpha = c.root
        assert c.degree == tuple(system.pairing(alpha, j) for j in P.q_index)
        assert c.chern == Fraction(2 * system.inner(P.two_rho_P, alpha.coeffs),
                                   alpha.norm)


def test_rows_match_direct_projection(P):
    for u in P.cosets():
        row = P.targets(u)
        assert len(row) == len(P.crossing_roots)
        for alpha, v in zip(P.crossing_roots, row):
            assert v == direct_target(P, u, alpha)


def test_chevalley_matches_direct_loop(P):
    for u in P.cosets():
        for b in P.q_index:
            for quantum, op in ((False, classical_chevalley), (True, quantum_chevalley)):
                got = op(P, b, u)
                want = direct_chevalley(P, b, u, quantum)
                # same terms in the same order, so printed output is unchanged
                assert list(got.terms.items()) == list(want.terms.items())


def test_graph_edge_roots_match_direct_rule(P):
    """Each edge keeps the first crossing root seen from its lower endpoint."""
    g = P.graph()
    want = {}
    for i, u in enumerate(g.nodes):
        for alpha in P.crossing_roots:
            j = direct_target(P, u, alpha).index
            want.setdefault((min(i, j), max(i, j)), (alpha, P.degree_of_root(alpha)))
    assert g.edges == want
    for (i, j), (alpha, deg) in g.edges.items():
        assert P.adjacency(g.nodes[i], g.nodes[j]) == (alpha, deg)


@pytest.mark.parametrize("make", [lambda: make_parabolic("E", 7, ()),
                                  lambda: grassmannian_parabolic(8, 16)],
                         ids=["E7 flag", "gr 8 16"])
def test_chevalley_enumerates_no_cosets(make):
    P = make()
    e = P.identity_coset()
    for b in P.q_index:
        (((_d, s_b), _c),) = quantum_chevalley(P, b, e).terms.items()
        assert s_b.length == 1
        assert not quantum_chevalley(P, b, s_b).is_zero
    assert P._cosets is None


def fresh(P):
    """A new quotient of the same data, with no coset or row built yet."""
    return ParabolicData(P.system, P.delta_P)


def test_rows_built_lazily_from_the_longest_coset(P):
    Q = fresh(P)
    top = Q.dual(Q.identity_coset())
    Q.targets(top)
    # the row of the longest coset built the rows of its parent chain only
    assert Q._cosets is None and len(Q._targets) == top.length + 1
    for u in reversed(Q.cosets()):
        for alpha, v in zip(Q.crossing_roots, Q.targets(u)):
            assert v == direct_target(Q, u, alpha)


def _no_matrix(*_args):
    raise AssertionError("the coset path reached a Weyl element product")


@pytest.mark.parametrize("tokens", [("A4", "flag"), ("gr", "3", "7")], ids=" ".join)
def test_rows_need_no_weyl_matrix(tokens, monkeypatch):
    Q = fresh(build_instance(tokens)[1])
    for name in ("__mul__", "apply_root"):
        monkeypatch.setattr(WeylElem, name, _no_matrix)
    top = Q.dual(Q.identity_coset())
    for b in Q.q_index:  # before any enumeration
        quantum_chevalley(Q, b, top)
    cosets = Q.cosets()  # sorted by canonical words, read off the parent chains
    g = Q.graph()
    assert g.nodes == cosets and g.edge_count > 0
    assert all(Q.dual(Q.dual(u)) is u for u in cosets)
    rng = random.Random("no-matrix|" + " ".join(tokens))
    for _ in range(20):
        frontier, chains = Q.min_chain_witnesses(rng.choice(cosets), rng.choice(cosets))
        assert frontier == tuple(w.degree for w in chains)
    for u in cosets:
        for b in Q.q_index:
            quantum_chevalley(Q, b, u)
            classical_chevalley(Q, b, u)
