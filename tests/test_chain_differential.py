"""`HomChain` (stages by iterated adjunction, H_{n+1} = HOM(J, H_n)) against
the frozen tensor-power chain in `chain_oracle.py`.

For every stage n, h |-> old.express(new.uncurry(n, h)), the staged map
read on the presented source, must be a well-defined isomorphism of stage
modules that commutes with the transitions; `curry` must invert `uncurry`;
the reflection units must agree through it; and the scan must reach the
same decisions on both chains.  The workspace loader's check of a staged
map, a curry into the chain, must accept exactly the matrices that are
well defined on the presented source.

The idal comparison search, which reads the chains into I and into O, must
find the same power as the frozen search that presented J^{(x)n} for every
n, with the same lift matrix on the seeded pairs and a lift that makes the
triangle commute on all, and raise the same errors."""

import random

import pytest

from idals import (GF, QQ, ModuleMap, PolyRing, PresentedModule, deligne_hom, idal_from_ideal,
                   is_iso, reflect)
from idals.cli import Workspace, _staged_matrix, load_preset
from idals.errors import AlgebraError, WellDefinednessError
from idals.localize import HomChain, _scan_hom_chain, idal_comparison_search

import chain_oracle as oracle
import staged_oracle
from conftest import random_module, random_poly

QQ_XY = PolyRing(QQ, ["x", "y"])
GF5_XY = PolyRing(GF(5), ["x", "y"])
STAGES = 3


def preset_idals():
    out = []
    for preset, names in (("double-origin-line", ("I", "Isq")),
                          ("double-origin-plane", ("Jxy", "Jx")),
                          ("p1", ("T1",))):
        ws = Workspace()
        ws.load(load_preset(preset))
        out += [(f"{preset}:{name}", ws.idal(name)) for name in names]
    return out


def seeded_idals():
    # generators without a constant term, so that no idal is the unit idal
    rng = random.Random(77)
    out = []
    for label, ring in (("QQ", QQ_XY), ("GF5", GF5_XY)):
        for k in (1, 2, 3):
            gens = [ring.var(rng.choice(ring.variables)) * random_poly(ring, rng, 1, zero_ok=False)
                    for _ in range(k)]
            out.append((f"{label}-{k}gen", idal_from_ideal(gens, ring)))
    return out


def targets(ring, rng):
    x = ring.var(ring.variables[0])
    return [("O", PresentedModule(ring, 1)),
            ("O/(x)", PresentedModule(ring, 1, [(x,)])),
            ("seeded", random_module(ring, rng))]


def cases():
    rng = random.Random(5)
    out = []
    for name, J in preset_idals() + seeded_idals():
        for tname, N in targets(J.ring, rng):
            out.append((f"{name}/{tname}", J, N))
    return out


CASES = cases()
IDS = [c[0] for c in CASES]


def comparison(new, old, n):
    """new stage n -> old stage n, h |-> old.express(new.uncurry(n, h)),
    checked well-defined."""
    H, old_H = new.stage(n).module, old.stage(n)
    cols = [old_H.express(ModuleMap(old_H.source, old_H.target,
                                    new.uncurry(n, H.unit_column(k)), check=False))
            for k in range(H.gens)]
    return ModuleMap(H, old.stage(n).module,
                     [[col[r] for col in cols] for r in range(old.stage(n).module.gens)])


def chains(J, mid, N):
    return HomChain(J, mid, N), oracle.OldHomChain(J, mid, N)


@pytest.mark.parametrize("name,J,N", CASES, ids=IDS)
def test_stages_isomorphic_and_transitions_commute(name, J, N):
    new, old = chains(J, J.carrier_power(0), N)
    iso = [comparison(new, old, n) for n in range(STAGES + 1)]
    for n, phi in enumerate(iso):
        assert is_iso(phi), f"stage {n}"
    for n in range(STAGES):
        left = iso[n + 1].compose(new.transition(n))
        right = old.transition(n).compose(iso[n])
        assert left.equals(right), f"transition {n}"


@pytest.mark.parametrize("name,J,N", CASES, ids=IDS)
def test_express_inverts_interpret(name, J, N):
    rng = random.Random(len(name))
    new = HomChain(J, J.carrier_power(0), N)
    for n in range(STAGES + 1):
        H = new.stage(n).module
        elements = [H.unit_column(k) for k in range(H.gens)]
        elements.append(tuple(random_poly(J.ring, rng, 1) for _ in range(H.gens)))
        for c in elements:
            back = new.curry(n, new.uncurry(n, c))
            assert H.normal_form(back) == H.normal_form(c), f"stage {n}"


@pytest.mark.parametrize("name,J,N", CASES, ids=IDS)
def test_reflect_units_agree(name, J, N):
    new, old = chains(J, J.carrier_power(0), N)
    for n in range(STAGES + 1):
        unit = ModuleMap(N, new.stage(n).module, new.composite(0, n).matrix, check=False)
        assert comparison(new, old, n).compose(unit).equals(old.unit(n)), f"stage {n}"


@pytest.mark.parametrize("name,J,N", CASES, ids=IDS)
def test_scan_decisions_agree(name, J, N):
    def decisions(res):
        return res.stabilized_at, res.truncated, res.saturated

    n_max = 3
    res = reflect(J, N, n_max)
    _, old = chains(J, J.carrier_power(0), N)
    assert decisions(res.chain) == decisions(_scan_hom_chain(old, n_max))
    mid = random_module(J.ring, random.Random(len(name)))
    res = deligne_hom(J, mid, N, n_max)
    _, old = chains(J, mid, N)
    assert decisions(res.chain) == decisions(_scan_hom_chain(old, n_max))


def staged_check_cases():
    """(label, J, M, T): a 1- and a 2-generator idal over QQ and GF(5), with
    sources that have relations, one of them on 2 generators."""
    out = []
    for label, ring in (("QQ", QQ_XY), ("GF5", GF5_XY)):
        x, y = ring.var("x"), ring.var("y")
        mods = {"O": PresentedModule(ring, 1), "O/(x)": PresentedModule(ring, 1, [(x,)]),
                "(x,y)": PresentedModule(ring, 2, [(y, -x)])}
        for gens in (["x"], ["x", "y"]):
            J = idal_from_ideal(gens, ring)
            for m, t in (("O/(x)", "O"), ("(x,y)", "O/(x)"), ("(x,y)", "(x,y)")):
                out.append((f"{label}-({','.join(gens)})/{m}->{t}", J, mods[m], mods[t]))
    return out


STAGED_CHECK_CASES = staged_check_cases()


@pytest.mark.parametrize("name,J,M,T", STAGED_CHECK_CASES, ids=[c[0] for c in STAGED_CHECK_CASES])
def test_staged_check_matches_the_presented_source(name, J, M, T):
    """Well-defined taus (uncurried stage elements), the same taus with one
    entry perturbed, and random matrices, at stages 0-3: the loader's curry
    check and `ModuleMap(..., check=True)` on the oracle's presented
    J^{(x)n} (x) M accept and reject the same ones."""
    rng = random.Random(len(name))
    chain = HomChain(J, M, T)
    verdicts = set()
    for n in range(STAGES + 1):
        width = J.power_gens(n) * M.gens
        H = chain.stage(n).module
        taus = []
        for _ in range(2):
            tau = [list(row) for row in
                   chain.uncurry(n, [random_poly(J.ring, rng, 1) for _ in range(H.gens)])]
            taus.append(tau)
            bent = [list(row) for row in tau]
            r, c = rng.randrange(T.gens), rng.randrange(width)
            bent[r][c] += random_poly(J.ring, rng, 1, zero_ok=False)
            taus.append(bent)
            taus.append([[random_poly(J.ring, rng, 1) for _ in range(width)]
                         for _ in range(T.gens)])
        source = staged_oracle.stage_source(J, n, M)
        for tau in taus:
            try:
                ModuleMap(source, T, tau, check=True)
                expected = True
            except WellDefinednessError:
                expected = False
            try:
                _staged_matrix(J, n, M, T, tau)
                got = True
            except WellDefinednessError:
                got = False
            assert got == expected, f"stage {n}: {tau}"
            verdicts.add(got)
    assert verdicts == {True, False}


def comparison_pairs():
    """(label, I, J, n_max): seeded idals of 1, 2 and 3 generators against
    each other over QQ, GF(5) and QQ[x,y]/(x^3), searched to n_max 3 (2 when
    J has 3 generators, whose third power the frozen search presents with 27
    generators); the oracle finds powers 1, 2 and 3 among them, and none."""
    rng = random.Random(5)
    out = []
    for label, ring in (("QQ", QQ_XY), ("GF5", GF5_XY),
                        ("QQ/(x^3)", PolyRing(QQ, ["x", "y"], quotient=["x^3"]))):
        def seeded(k):
            return idal_from_ideal([ring.var(rng.choice(ring.variables))
                                    * random_poly(ring, rng, 1, zero_ok=False)
                                    for _ in range(k)], ring)
        for gi in (1, 2, 3):
            for gj in (1, 2, 3):
                out.append((f"{label}-{gi}/{gj}", seeded(gi), seeded(gj), 3 if gj < 3 else 2))
    plane = Workspace()
    plane.load(load_preset("double-origin-plane"))
    # the frozen search raises the MAX_POWER_GENS error at n = 9, after 1-8
    out.append(("double-origin-plane:Jx/Jxy", plane.idal("Jx"), plane.idal("Jxy"), 9))
    qq, gf5 = out[0][1], out[9][1]
    out += [("rings-differ", qq, gf5, 2), ("n_max-0", qq, qq, 0)]
    return out


COMPARISON_PAIRS = comparison_pairs()
OLD_OUTCOMES: dict = {}


def search_outcome(search, I, J, n_max):
    """(power, lift matrix as strings), None, or (error type, message)."""
    try:
        found = search(I, J, n_max)
    except AlgebraError as exc:
        return type(exc), str(exc)
    if found is None:
        return None
    n, morphism = found
    return n, [[str(p) for p in row] for row in morphism.f.matrix]


@pytest.mark.parametrize("name,I,J,n_max", COMPARISON_PAIRS, ids=[c[0] for c in COMPARISON_PAIRS])
def test_comparison_search_matches_the_presented_powers(name, I, J, n_max):
    OLD_OUTCOMES[name] = old = search_outcome(oracle.comparison_search, I, J, n_max)
    new = search_outcome(idal_comparison_search, I, J, n_max)
    assert new == old
    if new is not None and isinstance(new[0], int):
        # the lift read off the chain is well defined on the presented power
        ModuleMap(J.carrier_power(new[0]), I.carrier, new[1], check=True)


def test_comparison_pairs_reach_every_outcome():
    for name, I, J, n_max in COMPARISON_PAIRS:
        if name not in OLD_OUTCOMES:
            OLD_OUTCOMES[name] = search_outcome(oracle.comparison_search, I, J, n_max)
    powers = {o[0] if isinstance(o, tuple) else o for o in OLD_OUTCOMES.values()}
    assert powers >= {None, 1, 2, 3}
    plane = OLD_OUTCOMES["double-origin-plane:Jx/Jxy"]
    assert plane[0] is AlgebraError and "2^n <= 256" in plane[1]
    assert OLD_OUTCOMES["rings-differ"][1] == "comparison of idals over different rings"
    assert OLD_OUTCOMES["n_max-0"][1] == "n_max must be >= 1"


def test_a_different_lift_is_an_idal_morphism_too():
    """A lift is unique only up to maps into the kernel of e_I.  For this
    pair the two searches find the power 2 with lifts that differ as maps;
    each is well defined on the presented J^{(x)2} and makes the triangle
    over O commute."""
    I = idal_from_ideal(["2*y^2 + 4*y", "y^2", "x^2"], QQ_XY)
    J = idal_from_ideal(["-x^2 - x", "-2*x*y - y"], QQ_XY)
    (n, new), (m, old) = idal_comparison_search(I, J, 3), oracle.comparison_search(I, J, 3)
    assert n == m == 2
    assert not new.f.equals(old.f)
    power = J.carrier_power(2)
    for f in (new.f, old.f):
        lift = ModuleMap(power, I.carrier, f.matrix, check=True)
        assert I.e.compose(lift).equals(J.power_map(2))
