"""`graded_dim` and `graded_dims` (standard monomials of the relation
Groebner basis, counted on one walk of the window) against the frozen dense
rank computation in `graded_oracle.py`, on degrees -5..5: seeded graded
modules over QQ[x,y] and GF(5)[x,y], modules over QQ[x]/(x^3) and over the
negative-weight ring of a localization oracle, the zero module, modules
without relations, and every stage module of the benchmark's Deligne windows
for seed 1.  The window enumerator is checked against the oracle's frozen
copy of the per-degree enumerator it replaced."""

import importlib.util
import pathlib
import random

import pytest

from idals import (GF, QQ, PolyRing, PresentedModule, free_module, graded_dim, graded_dims,
                   idal_from_ideal, localization_oracle, unit_module, zero_module)
from idals.errors import AlgebraError, UngradedError
from idals.localize import HomChain
from idals.polyring import monomials_in_window, monomials_of_degree

import graded_oracle as oracle
from conftest import random_graded_module_1var, random_homogeneous_module

DEGREES = range(-5, 6)
QQ_XY = PolyRing(QQ, ["x", "y"])
GF5_XY = PolyRing(GF(5), ["x", "y"])
QQ_X = PolyRing(QQ, ["x"])
NILPOTENT = PolyRing(QQ, ["x"], quotient=["x^3"])
INVERTED = PolyRing(QQ, ["x", "xi"], quotient=["x*xi - 1"], weights=[1, -1])


def assert_same_dims(M):
    assert [graded_dim(M, d) for d in DEGREES] == [oracle.graded_dim(M, d) for d in DEGREES]


def seeded_modules():
    rng = random.Random(8)
    out = []
    for ring in (QQ_XY, GF5_XY):
        for k in range(12):
            out.append((f"{ring!r}/{k}",
                        random_homogeneous_module(ring, rng, gens_max=3, deg_max=3)))
    for k in range(6):
        out.append((f"x^3/{k}", random_graded_module_1var(NILPOTENT, rng)))
    for k in range(6):
        M = random_graded_module_1var(QQ_X, rng)
        out.append((f"localized/{k}", localization_oracle("x", M)))
    out += [
        ("x^3/unit", unit_module(NILPOTENT)),
        ("localized/unit", localization_oracle("x", unit_module(QQ_X))),
        ("localized/x^2", localization_oracle("x^2", free_module(QQ_X, 2, [0, 1]))),
        ("zero/QQ[x,y]", zero_module(QQ_XY)),
        ("zero/x^3", zero_module(NILPOTENT)),
        ("free/QQ[x,y]", free_module(QQ_XY, 3, [-1, 0, 2])),
        ("free/GF5[x,y]", free_module(GF5_XY, 2, [1, 1])),
        ("killed/QQ[x,y]", PresentedModule(QQ_XY, 1, [("1",)])),
    ]
    return out


SEEDED = seeded_modules()


@pytest.mark.parametrize("M", [m for _, m in SEEDED], ids=[name for name, _ in SEEDED])
def test_seeded_modules_agree(M):
    assert_same_dims(M)


def test_unsupported_ring_shape_fails_alike():
    # two positive-weight variables and an inverse one: components are infinite
    M = localization_oracle("x", unit_module(QQ_XY))
    with pytest.raises(AlgebraError, match="not finite"):
        graded_dim(M, 0)
    with pytest.raises(AlgebraError, match="not finite"):
        graded_dims(M, DEGREES)
    with pytest.raises(AlgebraError, match="not finite"):
        oracle.graded_dim(M, 0)
    # no degree asked, no enumeration: neither raises
    assert graded_dims(M, ()) == {}


# ---------------------------------------------------------------------------
# the window enumerator and window counts

WINDOW_RINGS = [QQ_XY, GF5_XY, NILPOTENT, INVERTED]


@pytest.mark.parametrize("ring", WINDOW_RINGS, ids=repr)
def test_window_enumerator_matches_the_per_degree_copy(ring):
    want = {k: oracle.monomials_of_degree(ring, k) for k in range(-8, 9)}
    for lo in range(-8, 9):
        for hi in range(lo - 1, 9):
            got = monomials_in_window(ring, lo, hi)
            assert list(got.items()) == [(k, want[k]) for k in range(lo, hi + 1)]
    assert [monomials_of_degree(ring, k) for k in range(-8, 9)] == list(want.values())


@pytest.mark.parametrize("M", [m for _, m in SEEDED], ids=[name for name, _ in SEEDED])
def test_window_counts_agree(M):
    want = {d: oracle.graded_dim(M, d) for d in DEGREES}
    assert list(graded_dims(M, DEGREES).items()) == list(want.items())
    # degrees out of order and with gaps, single degrees, no degrees
    for window in [(3, -5, 0), (-4, 4), (5, 1, -1, -3)]:
        assert list(graded_dims(M, window).items()) == [(d, want[d]) for d in window]
    for d in DEGREES:
        assert graded_dims(M, (d,)) == {d: want[d]}
    assert graded_dims(M, ()) == {}


def test_ungraded_inputs_fail_alike():
    ungraded = PresentedModule(QQ_XY, 1, [("x + 1",)])
    assert ungraded.grading is None
    inhomogeneous_ring = unit_module(PolyRing(QQ, ["x"], quotient=["x^2 - x"]))
    for M in (ungraded, inhomogeneous_ring):
        for count in (lambda: graded_dims(M, DEGREES), lambda: graded_dims(M, ()),
                      lambda: graded_dim(M, 0), lambda: oracle.graded_dim(M, 0)):
            with pytest.raises(UngradedError):
                count()


def _deligne_specs():
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.hom_inputs(1)["deligne"]


DELIGNE_SPECS = _deligne_specs()


@pytest.mark.parametrize("spec", DELIGNE_SPECS,
                         ids=[f"window{i:03d}" for i in range(len(DELIGNE_SPECS))])
def test_deligne_window_stages_agree(spec):
    R = PolyRing(QQ, ["x"])
    J = idal_from_ideal(["x"], R)
    M = PresentedModule(R, spec["gens"], [tuple(c) for c in spec["cols"]],
                        grading=spec["shifts"])
    chain = HomChain.of(J, unit_module(R), M)
    for n in range(10):
        assert_same_dims(chain.stage(n).module)
