"""The verification sweeps: one body for every product engine."""

from qschub import checks
from qschub.grassmann import grassmannian_parabolic
from qschub.parabolic import make_parabolic
from qschub.quantum import product_engine


class ShiftedEngine:
    """Multiplies every product by one extra q: a wrong engine on purpose."""

    def __init__(self, P):
        self.inner = product_engine(P)
        self.q = (1,) + (0,) * (len(P.q_index) - 1)

    def product(self, u, v):
        return self.inner.product(u, v).shift(self.q)


def rows_by_name(rows):
    return {r.name: r for r in rows}


def test_sweep_passes_on_both_engines():
    for P, label in ((make_parabolic("B", 2, ()), "B2 flag"),
                     (grassmannian_parabolic(2, 4), "gr 2 4")):
        engine = product_engine(P)
        rows = checks._product_sweep(P, label, engine)
        rows += checks._associativity(P, label, engine)
        assert all(r.passed for r in rows), [r for r in rows if not r.passed]
        assert {r.checked for r in rows} == {len(P.cosets()) ** 2, 100}


def test_sweep_catches_a_wrong_flag_engine():
    P = make_parabolic("A", 2, ())
    rows = rows_by_name(checks._product_sweep(P, "A2 flag", ShiftedEngine(P)))
    for name in ("grading", "minimal-degree-agreement", "classical-duality",
                 "chevalley-column"):
        assert not rows[name].passed, name
    assert rows["commutativity"].passed and rows["nonnegativity"].passed
    assert rows["grading"].detail.startswith("grading broken at (),()")


def test_sweep_catches_a_wrong_grassmannian_engine():
    P = grassmannian_parabolic(2, 4)
    rows = rows_by_name(checks._product_sweep(P, "gr 2 4", ShiftedEngine(P)))
    for name in ("grading", "degree-triple-agreement", "classical-duality",
                 "chevalley-column"):
        assert not rows[name].passed, name
    # the diagonal rule and the monotone chains do not read the engine
    assert rows["monotone-chains"].passed
    assert "minimal-degree-agreement" not in rows
    assert rows["degree-triple-agreement"].detail.startswith(
        "diagonal 0 vs chains {(0,)} vs product at (),()"
    )
