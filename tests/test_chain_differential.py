"""`HomChain` (stages by iterated adjunction, H_{n+1} = HOM(J, H_n)) against
the frozen tensor-power chain in `chain_oracle.py`.

For every stage n, h |-> old.express(new.uncurry(n, h)), the staged map
read on the presented source, must be a well-defined isomorphism of stage
modules that commutes with the transitions; `curry` must invert `uncurry`;
the reflection units must agree through it; and the scan must reach the
same decisions on both chains.  The workspace loader's check of a staged
map, a curry into the chain, must accept exactly the matrices that are
well defined on the presented source."""

import random

import pytest

from idals import (GF, QQ, ModuleMap, PolyRing, PresentedModule, deligne_hom, idal_from_ideal,
                   is_iso, reflect)
from idals.cli import Workspace, _staged_matrix, load_preset
from idals.errors import WellDefinednessError
from idals.localize import HomChain, _scan_hom_chain

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
