"""The orbit-point coset layer against the matrix path it replaced.

A test-local copy of the former layer stands beside it: a coset is its
minimal representative, found by stripping right descents in Delta_P;
a row entry [u t_alpha] strips u * s_alpha, with s_alpha from
`reflection_of_root`; the dual strips w_o * u; and Bruhat order is
`weyl.bruhat_leq_W` on minimal representatives.  Cosets and canonical
words, every row, every dual and `bruhat_leq` on all pairs must agree,
on each default-suite instance except gr 4 9, plus B3 flag, C3 1 3,
D4 2, G2 1, F4 1 4, E6 1 and D4 flag; Bruhat order is checked on 500
seeded pairs of the quotients with more than 100 cosets (F4 1 4, D4 flag).
The library reads its words off parent chains, with no matrix, so the
word checks here compare the two paths.
"""

import random
from functools import lru_cache

import pytest

from qschub.checks import DEFAULT_SUITE, build_instance
from qschub.weyl import (
    bruhat_leq_W,
    identity,
    longest_element,
    reflection_of_root,
    simple_reflection,
)

INSTANCES = [t for t in DEFAULT_SUITE if t != ("gr", "4", "9")] + [
    ("B3", "flag"), ("C3", "1", "3"), ("D4", "2"), ("G2", "1"), ("F4", "1", "4"),
    ("E6", "1"), ("D4", "flag"),
]
SAMPLED_PAIRS = 500  # on quotients with more than 100 cosets


@pytest.fixture(params=INSTANCES, ids=" ".join)
def P(request):
    return build_instance(request.param)[1]


@lru_cache(maxsize=1024)  # bounded: it holds the cosets it has seen
def rep(u):
    """u.min_rep, memoised here: the library rebuilds it from the word on each read."""
    return u.min_rep


def strip(P, w):
    """The minimal representative of w W_P: strip right descents in Delta_P."""
    while True:
        for i in sorted(P.delta_P):
            if w.is_right_descent(i):
                w = w * simple_reflection(P.system, i)
                break
        else:
            return w


def matrix_cosets(P):
    """The former BFS over minimal representatives, by (length, word)."""
    start = identity(P.system)
    found, seen, level = [start], {start}, [start]
    while level:
        nxt = []
        for w in level:
            for i in range(P.system.rank):
                cand = simple_reflection(P.system, i) * w
                if cand not in seen:
                    seen.add(cand)
                    if not any(cand.is_right_descent(j) for j in P.delta_P):
                        nxt.append(cand)
        found += nxt
        level = nxt
    return sorted(found, key=lambda w: w.sort_key())


def test_cosets_and_words_match(P):
    cosets = P.cosets()
    oracle = matrix_cosets(P)
    assert [u.min_rep for u in cosets] == oracle
    assert [(u.length, u.word()) for u in cosets] == [w.sort_key() for w in oracle]


def test_descent_chain_follows_the_smallest_left_descent(P):
    cartan = P.system.cartan
    for u in P.cosets():
        descents = [i for i, m in enumerate(u.mu) if m < 0]
        if not descents:
            assert u is P.identity_coset() and u.length == 0
            continue
        i = min(descents)
        s_i_mu = tuple(m - u.mu[i] * cartan[j][i] for j, m in enumerate(u.mu))
        assert (u.descent, u.parent.mu, u.length) == (i, s_i_mu, u.parent.length + 1)
        assert u.min_rep == simple_reflection(P.system, i) * u.parent.min_rep


def test_to_coset_matches_stripping(P):
    for u in P.cosets():
        for i in range(P.system.rank):
            s_i = simple_reflection(P.system, i)
            for w in (s_i * rep(u), rep(u) * s_i):
                assert rep(P.to_coset(w)) == strip(P, w)


def test_rows_match_reflection_matrices(P):
    for u in P.cosets():
        for c, v in zip(P.crossing_table, P.targets(u)):
            t_alpha = reflection_of_root(P.system, c.root)
            assert rep(v) == strip(P, rep(u) * t_alpha)


def test_duals_match_w_o(P):
    w_o = longest_element(P.system)
    for u in P.cosets():
        assert rep(P.dual(u)) == strip(P, w_o * rep(u))


def test_bruhat_leq_matches_the_reference_walk(P):
    cosets = P.cosets()
    pairs = [(u, v) for u in cosets for v in cosets]
    if len(cosets) > 100:
        pairs = random.Random(4).sample(pairs, SAMPLED_PAIRS)
    for u, v in pairs:
        assert P.bruhat_leq(u, v) == bruhat_leq_W(rep(u), rep(v)), (u, v)
