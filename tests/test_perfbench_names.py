"""The names the benchmark harness wraps and reads still resolve.

`perfbench/workloads.py` is loaded read-only from its file.  Every
(owner, attribute) it traces must exist, the products check's
`Coset.min_rep.word()` must work, and `counters()` must read its memo
sizes, so a refactor of the package cannot silently break
`perfbench/run.py --trace 1`.
"""

import os
import sys
from types import ModuleType, SimpleNamespace

import pytest

from qschub.checks import build_instance
from qschub.parabolic import ParabolicData, make_parabolic
from qschub.quantum import product_engine

WORKLOADS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "workloads.py")


@pytest.fixture(scope="module")
def wl():
    # run the source in a fresh module, so nothing is written beside it
    module = ModuleType("perfbench_workloads")
    module.__file__ = WORKLOADS
    sys.modules[module.__name__] = module  # its dataclasses look their module up here
    with open(WORKLOADS, encoding="utf-8") as fh:
        exec(compile(fh.read(), WORKLOADS, "exec"), module.__dict__)
    yield module
    del sys.modules[module.__name__]


def test_every_traced_name_resolves(wl):
    targets = wl.span_targets()
    assert targets
    for owner, attr, _span in targets:
        assert callable(getattr(owner, attr)), (owner, attr)


def test_min_rep_words_work():
    for tokens in (("A2", "flag"), ("B3", "2"), ("gr", "3", "6")):
        P = build_instance(tokens)[1]
        for u in P.cosets():
            assert u.min_rep.word() == u.word()
            assert P.to_coset(u.min_rep) is u


def test_counters_read_what_exists(wl):
    # a fresh quotient before anything is built, then after a graph and an engine
    P = ParabolicData(make_parabolic("A", 2, ()).system, ())
    assert set(wl.counters(SimpleNamespace(P=P))) == set(wl.COUNTERS)
    P.graph()
    engine = product_engine(P)
    engine.product(P.cosets()[1], P.cosets()[2])
    got = wl.counters(SimpleNamespace(P=P))
    assert set(got) == set(wl.COUNTERS)
    assert got["parabolic.graph.edges"] > 0 and got["quantum.product_memo.size"] > 0
    assert got["quantum.column_memo.size"] > 0
