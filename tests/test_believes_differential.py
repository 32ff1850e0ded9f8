"""`believes`, decided inside the ambient of HOM(J, M), against the route it
replaced: `is_iso(canonical_to_hom(J, M))`, which presents HOM(J, M) and
lifts the canonical map into it.  Seeded idals and modules over five rings,
and every input of the benchmark's intersection-law tasks (seeds 1-3)."""

import importlib.util
import pathlib
import random

import pytest

from idals import (GF, QQ, Idal, PolyRing, PresentedModule, believes, canonical_to_hom,
                   idal_from_ideal, idal_product, is_iso)
from idals import fpmod, polyring
from idals.cli import Workspace, load_preset
from idals.errors import RingMismatchError
from idals.fpmod import ModuleMap, kernel_columns, unit_module, zero_module

from conftest import random_idal, random_module

RINGS = {
    "QQ[x,y]": PolyRing(QQ, ["x", "y"]),
    "GF5[x,y]": PolyRing(GF(5), ["x", "y"]),
    "cusp": PolyRing(QQ, ["x", "y"], quotient=["x^2 - y^3"]),
    "QQ[x]/(x^3)": PolyRing(QQ, ["x"], quotient=["x^3"]),
    "lex GF32003[x,y,z]": PolyRing(GF(32003), ["x", "y", "z"], order="lex"),
}


def old_route(J, M) -> bool:
    return is_iso(canonical_to_hom(J, M))


def seeded_cases(ring, seed):
    """(label, J, M) over idals from ideals, their product, the identity
    idal (and two nilpotent x idals on QQ[x]/(x^3)) against seeded, unit
    and zero modules."""
    rng = random.Random(seed)
    I, J = random_idal(ring, rng), random_idal(ring, rng)
    idals = {"I": I, "J": J, "I(x)J": idal_product(I, J), "O": Idal.identity(ring)}
    if ring.variables == ("x",) and ring.quotient_gb:
        idals["x"] = idal_from_ideal(["x"], ring)
        # x on O/(x^2): O -> HOM is onto with kernel (x^2), so only the
        # kernel test refuses it
        carrier = PresentedModule(ring, 1, [("x^2",)])
        idals["x mod x^2"] = Idal(carrier, ModuleMap(carrier, unit_module(ring), [["x"]]))
    modules = {f"M{k}": random_module(ring, rng) for k in range(3)}
    modules.update({"O": unit_module(ring), "0": zero_module(ring)})
    return [(f"{a} on {b}", idal, M) for a, idal in idals.items() for b, M in modules.items()]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("name", RINGS)
def test_believes_matches_the_presented_hom(name, seed):
    for label, J, M in seeded_cases(RINGS[name], seed):
        assert believes(J, M) == old_route(J, M), label


def _workloads():
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_believes_matches_on_the_intersection_inputs(seed):
    workloads = _workloads()
    answers = set()
    for i, d in enumerate(workloads.hom_inputs(seed)["intersection"]):
        R = PolyRing(QQ, d["names"])
        I, J = idal_from_ideal(d["I"], R), idal_from_ideal(d["J"], R)
        M = workloads._module(R, d["M"])
        for label, idal in (("I", I), ("J", J), ("I(x)J", idal_product(I, J))):
            got = believes(idal, M)
            assert got == old_route(idal, M), f"input {i}, {label}"
            answers.add(got)
    assert answers == {True, False}


def test_rings_that_do_not_match_are_refused():
    A, B = RINGS["QQ[x,y]"], RINGS["GF5[x,y]"]
    with pytest.raises(RingMismatchError):
        believes(idal_from_ideal(["x"], A), unit_module(B))
    with pytest.raises(RingMismatchError):
        believes(Idal.identity(A), PresentedModule(RINGS["cusp"], 1, [("x",)]))


def test_believes_presents_no_hom_and_lifts_nothing(monkeypatch):
    """The mechanism: no HomModule is built and no tracked basis is made."""
    plane, line = Workspace(), Workspace()
    plane.load(load_preset("double-origin-plane"))
    line.load(load_preset("double-origin-line"))

    def refuse(*args, **kwargs):
        raise AssertionError("believes built a HOM module or a lifter")

    monkeypatch.setattr(fpmod.HomModule, "__init__", refuse)
    monkeypatch.setattr(polyring.SubmoduleLifter, "__init__", refuse)
    assert believes(plane.idal("Jxy"), plane.module("O")) is True
    assert believes(plane.idal("Jx"), plane.module("O")) is False
    assert believes(plane.idal("Jxy"), plane.module("ideal_xy")) is False
    assert believes(line.idal("I"), line.module("k1")) is True
    assert believes(line.idal("I"), line.module("k0")) is False
    with pytest.raises(AssertionError):
        canonical_to_hom(plane.idal("Jxy"), plane.module("O"))


@pytest.mark.parametrize("name", RINGS)
def test_the_defining_map_presents_the_hom_module(name):
    """`hom_ambient`, which `believes` reads, gives HomModule's ambient and
    the defining map whose kernel columns generate HOM(M, N) in it."""
    ring = RINGS[name]
    rng = random.Random(7)
    for _ in range(6):
        M, N = random_module(ring, rng), random_module(ring, rng)
        for source in (M, random_idal(ring, rng).carrier, zero_module(ring)):
            hom = fpmod.HomModule(source, N)
            amb, d = fpmod.hom_ambient(source, N)
            assert amb == hom.ambient
            if source.relations:
                assert d.source is amb and d.target.gens == N.gens * len(source.relations)
                assert kernel_columns(d) == hom.incl.columns()
            else:
                assert d is None
                assert hom.incl.columns() == [amb.unit_column(k) for k in range(amb.gens)]
