"""`graded_dims` stops its window walk at the top degree that the leading
terms of the relation basis show (`fpmod._top_degree`).

The capped counts must equal the uncapped ones on seeded graded modules
over QQ, GF(7) and QQ[x,y]/(xy); the cap is read off the `hi` handed to
`iter_window`, not off a timing.  A module with a position that holds no
pure power of some variable, and a ring with an inverse variable, are not
capped."""

import random

import pytest

from idals import GF, QQ, PolyRing, PresentedModule, free_module, graded_dims
from idals import cli, fpmod
from idals.polyring import monomials_of_degree

QQ_XY = PolyRing(QQ, ["x", "y"])
GF7_XY = PolyRing(GF(7), ["x", "y"])
XY_ZERO = PolyRing(QQ, ["x", "y"], quotient=["x*y"])
WEIGHTED = PolyRing(QQ, ["x", "y"], weights=[1, 2])
INVERTED = PolyRing(QQ, ["x", "xi"], quotient=["x*xi - 1"], weights=[1, -1])
WINDOW = range(-3, 31)


@pytest.fixture
def walks(monkeypatch):
    """The (lo, hi) of every `iter_window` call `graded_dims` makes."""
    seen = []
    walk = fpmod.iter_window

    def recording(ring, lo, hi):
        seen.append((lo, hi))
        return walk(ring, lo, hi)

    monkeypatch.setattr(fpmod, "iter_window", recording)
    return seen


def uncapped_dims(M, degrees, monkeypatch):
    """The counts of a fresh copy of M walked to the window's end."""
    with monkeypatch.context() as m:
        m.setattr(fpmod, "_top_degree", lambda ring, lts: None)
        fresh = PresentedModule(M.ring, M.gens, M.relations, M.grading)
        return graded_dims(fresh, degrees)


def random_element(ring, rng, d):
    p = ring.zero()
    for mono in monomials_of_degree(ring, d) if d >= 0 else ():
        c = rng.choice([0, 0, 1, -1, 2])
        if c:
            p = p + ring.monomial(mono, c)
    return p


def seeded_module(ring, rng):
    """A graded module whose positions mostly carry pure powers of both
    variables as relations, beside random homogeneous columns."""
    g = rng.randint(1, 3)
    shifts = [rng.randint(-1, 2) for _ in range(g)]
    cols = []
    for i in range(g):
        for v in ring.variables:
            if rng.random() < 0.85:
                col = [ring.zero()] * g
                col[i] = ring.var(v) ** rng.randint(1, 4)
                cols.append(col)
    for _ in range(rng.randint(0, 2)):
        d = max(shifts) + rng.randint(0, 2)
        cols.append([random_element(ring, rng, d - a) for a in shifts])
    return PresentedModule(ring, g, cols, grading=shifts)


@pytest.mark.parametrize("ring", [QQ_XY, GF7_XY, XY_ZERO, WEIGHTED], ids=repr)
@pytest.mark.parametrize("seed", range(8))
def test_capped_counts_equal_uncapped_counts(ring, seed, walks, monkeypatch):
    M = seeded_module(ring, random.Random(seed))
    dims = graded_dims(M, WINDOW)
    (lo, hi), = walks
    assert dims == uncapped_dims(M, WINDOW, monkeypatch)
    _, top = M._graded_leading_terms()
    wanted_hi = max(WINDOW) - min(M.grading)
    assert hi == (wanted_hi if top is None else min(wanted_hi, top))
    if top is not None:
        # nothing is standard above the cap
        assert all(n == 0 for d, n in dims.items() if d > top + max(M.grading))


def test_pure_powers_cap_the_walk(walks):
    # x^2 and y^3 leave the standard monomials 1, x, y, xy, y^2, xy^2
    M = PresentedModule(QQ_XY, 1, [("x^2",), ("y^3",)], grading=[0])
    assert graded_dims(M, range(0, 1001)) == {d: [1, 2, 2, 1][d] if d < 4 else 0
                                              for d in range(0, 1001)}
    assert walks == [(0, 3)]


def test_quotient_ring_powers_count(walks):
    # the quotient x*y is no pure power: the free module is not capped
    graded_dims(free_module(XY_ZERO, 1), range(0, 50))
    # x^3 and y^2 in the relations cap it at (3 - 1) + (2 - 1); the
    # standard monomials 1, x, y, x^2 stop a degree below
    M = PresentedModule(XY_ZERO, 1, [("x^3",), ("y^2",)], grading=[0])
    assert graded_dims(M, range(0, 50)) == {d: [1, 2, 1][d] if d < 3 else 0
                                            for d in range(0, 50)}
    assert walks == [(0, 49), (0, 3)]


def test_position_without_a_pure_power_is_not_capped(walks, monkeypatch):
    # position 1 holds x^2 but no power of y
    M = PresentedModule(QQ_XY, 2, [("x^2", "0"), ("y^3", "0"), ("0", "x^2")], grading=[0, 1])
    dims = graded_dims(M, range(0, 40))
    assert walks == [(-1, 39)]
    assert dims == uncapped_dims(M, range(0, 40), monkeypatch)
    assert dims[39] == 2


def test_inverse_variable_is_not_capped(walks, monkeypatch):
    M = PresentedModule(INVERTED, 1, [("x^2",)], grading=[0])
    dims = graded_dims(M, range(-20, 21))
    assert walks == [(-20, 20)]
    assert dims == uncapped_dims(M, range(-20, 21), monkeypatch)


def test_finite_quotient_window_walks_to_its_top_degree(walks, capsys):
    # the plane modulo the (x, y) idal: one standard monomial, in degree 0
    code = cli.run(["quotient", "Jxy", "O", "--preset", "double-origin-plane",
                    "--degree-bound", "10000"])
    assert code == 0
    assert walks == [(0, 0)]
    assert '"10000": 0' in capsys.readouterr().out
