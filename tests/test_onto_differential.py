"""The onto and zero-module tests read off a reduced Groebner basis, and the
canonical map into HOM(J, M) lifted from the columns of c', against the
routes they replaced (frozen in `onto_oracle.py`): presenting the cokernel
and asking of each generator whether its unit column lies in the
relations, and lifting one map J -> M per generator through
`HomModule.express`.  Seeded maps, modules and idals over five rings, zero
sources and zero targets included."""

import random

import pytest

from idals import (GF, QQ, Idal, PolyRing, PresentedModule, canonical_to_hom, cokernel,
                   free_module, idal_from_ideal, idal_product, is_iso)
from idals.fpmod import ModuleMap, is_surjective, kernel_columns, unit_module, zero_module

import onto_oracle
from conftest import random_idal, random_module, random_poly

RINGS = {
    "QQ[x,y]": PolyRing(QQ, ["x", "y"]),
    "GF5[x,y]": PolyRing(GF(5), ["x", "y"]),
    "cusp": PolyRing(QQ, ["x", "y"], quotient=["x^2 - y^3"]),
    "QQ[x]/(x^3)": PolyRing(QQ, ["x"], quotient=["x^3"]),
    "lex GF32003[x,y,z]": PolyRing(GF(32003), ["x", "y", "z"], order="lex"),
}

SEEDS = range(8)


def _column(ring, rng, gens):
    """Seeded entries, or a constant in one position plus seeded entries of
    positive degree elsewhere, so that about half the maps are onto."""
    if gens and rng.random() < 0.5:
        col = [random_poly(ring, rng, 1) * ring.var(rng.choice(ring.variables))
               for _ in range(gens)]
        col[rng.randrange(gens)] = ring.constant(rng.choice([1, -1, 2]))
        return col
    return [random_poly(ring, rng, rng.randint(0, 2)) for _ in range(gens)]


def _module(ring, rng):
    kind = rng.randrange(6)
    if kind == 0:
        return zero_module(ring)
    if kind == 1:
        return free_module(ring, rng.randint(1, 3))
    if kind == 2:
        # generators killed by constant or comaximal relations
        return PresentedModule(ring, 1, [(ring.constant(2),)] if rng.random() < 0.5
                               else [(ring.var(ring.variables[0]),),
                                     (ring.var(ring.variables[0]) - 1,)])
    return random_module(ring, rng, gens_max=3)


def seeded_maps(ring, seed, count=60):
    """`count` seeded maps, unchecked (onto-ness reads no source relation),
    with zero sources and zero targets among them."""
    rng = random.Random(seed)
    maps = []
    for _ in range(count):
        source, target = _module(ring, rng), _module(ring, rng)
        cols = [_column(ring, rng, target.gens) for _ in range(source.gens)]
        maps.append(ModuleMap(source, target,
                              [[col[r] for col in cols] for r in range(target.gens)],
                              check=False))
    return maps


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", RINGS)
def test_is_surjective_matches_the_presented_cokernel(name, seed):
    answers = set()
    for k, phi in enumerate(seeded_maps(RINGS[name], seed)):
        onto = is_surjective(phi)
        assert onto == onto_oracle.cokernel_is_zero(phi), k
        assert onto == cokernel(phi)[0].is_zero_module(), k
        answers.add(onto)
    assert answers == {True, False}


def test_seeded_maps_cover_both_answers_and_the_zero_ends():
    maps = [phi for name in RINGS for seed in SEEDS for phi in seeded_maps(RINGS[name], seed)]
    onto = sum(map(is_surjective, maps))
    assert 0.3 * len(maps) < onto < 0.7 * len(maps)
    assert any(phi.source.gens == 0 and phi.target.gens > 0 for phi in maps)
    assert any(phi.target.gens == 0 for phi in maps)


@pytest.mark.parametrize("name", RINGS)
def test_zero_ends(name):
    ring = RINGS[name]
    O, zero = unit_module(ring), zero_module(ring)
    assert is_surjective(ModuleMap.zero(O, zero))
    assert is_surjective(ModuleMap.zero(zero, zero))
    assert not is_surjective(ModuleMap.zero(zero, O))
    assert is_surjective(ModuleMap.zero(zero, PresentedModule(ring, 2, [("1", "0"), ("0", "1")])))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", RINGS)
def test_is_zero_module_matches_the_unit_column_loop(name, seed):
    ring = RINGS[name]
    modules = [_module(ring, random.Random(seed * 100 + k)) for k in range(20)]
    # cokernels are the modules the onto test used to present
    modules += [cokernel(phi)[0] for phi in seeded_maps(ring, seed, count=20)]
    answers = set()
    for k, M in enumerate(modules):
        zero = M.is_zero_module()
        assert zero == onto_oracle.is_zero_by_units(M), k
        answers.add(zero)
    assert answers == {True, False}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", RINGS)
def test_is_iso_is_onto_and_one_to_one(name, seed):
    for k, phi in enumerate(seeded_maps(RINGS[name], seed, count=20)):
        assert is_iso(phi) == (onto_oracle.cokernel_is_zero(phi) and not kernel_columns(phi)), k


def _idals(ring, rng):
    I, J = random_idal(ring, rng), random_idal(ring, rng)
    idals = {"I": I, "J": J, "I(x)J": idal_product(I, J), "O": Idal.identity(ring)}
    if ring.variables == ("x",) and ring.quotient_gb:
        idals["x"] = idal_from_ideal(["x"], ring)
    return idals


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", RINGS)
def test_canonical_map_matches_the_per_generator_express_route(name, seed):
    ring = RINGS[name]
    rng = random.Random(seed)
    modules = {f"M{k}": random_module(ring, rng) for k in range(2)}
    modules.update({"O": unit_module(ring), "0": zero_module(ring), "O^2": free_module(ring, 2)})
    for a, J in _idals(ring, rng).items():
        for b, M in modules.items():
            new, old = canonical_to_hom(J, M), onto_oracle.canonical_by_express(J, M)
            assert new.source == old.source and new.target == old.target, f"{a} on {b}"
            assert new.matrix == old.matrix, f"{a} on {b}"


def test_onto_questions_present_no_cokernel(monkeypatch):
    """`is_iso`, `believes` on a free carrier, both rules of the hom-chain
    scan, the chartwise onto test and the double-origin datum check answer
    with `cokernel` made to raise in every module that imports it."""
    from idals import believes, fpmod, glued, idal, localize, reflect
    from idals.cli import Workspace, load_preset

    def refuse(phi):
        raise AssertionError("presented a cokernel")

    line, p1 = Workspace(), Workspace()
    line.load(load_preset("double-origin-line"))
    p1.load(load_preset("p1"))
    R = PolyRing(QQ, ["T1", "T2"])
    J1, J2 = idal_from_ideal(["T1", "T2"], R), Idal.identity(R)
    p = ModuleMap(free_module(R, 2, [1, 1]), idal_product(J1, J2).carrier,
                  [["1", "0"], ["0", "1"]], check=False)
    for module in (fpmod, idal, localize):
        monkeypatch.setattr(module, "cokernel", refuse)
    assert not hasattr(glued, "cokernel")
    I, J = line.idal("I"), line.idal("J")
    O, k0, k1 = line.module("O"), line.module("k0"), line.module("k1")
    assert is_iso(ModuleMap.identity(O)) and not is_iso(line.map("xmult"))
    assert believes(I, k1) and not believes(I, k0) and not believes(I, O)
    plain, saturated = reflect(J, k0, n_max=4), reflect(I, k0, n_max=4)
    assert plain.stabilized and not plain.chain.saturated and not plain.value.is_zero_module()
    assert saturated.chain.saturated and saturated.value.is_zero_module()
    assert glued.GluedMap.identity(p1.glued_module("O")).is_chartwise_surjective()
    assert glued.doubleorigin2_datum_check(J1, J2, p).clauses["surjective"]
