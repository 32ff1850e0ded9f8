"""Glued-module code against frozen copies of the code it replaced, in
`glued_oracle.py`, on the projective line over QQ and GF(5), P1 x A1 and
the self-glued double-origin plane.

* `idal_generation` and `chart_idal`, one body for both charts, against the
  chart-by-chart code with a side-swapped scheme: the same blocks (chart and
  power) and every chart map entry for entry.
* Validation, `GluedMap.is_compatible`, `direct_sum_glued`, `tensor_glued`
  and `hom_glued`, one body for both scheme kinds, against the code written
  once per kind: the same verdicts and error types, and the same
  `serialize()` of every result."""

import pytest

from idals import GF, QQ, ModuleMap, PolyRing, PresentedModule, idal_from_ideal
from idals.errors import AlgebraError, StabilizationError
from idals.fpmod import free_module, unit_module, zero_module
from idals.glued import (
    GluedMap,
    GluedModule,
    SelfGlueTau,
    TwoChartScheme,
    chart_idal,
    direct_sum_glued,
    hom_glued,
    idal_generation,
    o_glued,
    p1_scheme,
    p1_standard,
    tensor_glued,
)

import glued_oracle as oracle
import staged_oracle


def entries(m):
    return [[str(p) for p in row] for row in m.matrix]


def p1_over(field):
    return TwoChartScheme.affine(
        PolyRing(field, ["t"]), PolyRing(field, ["s"]), "t", "s", "ti", "si",
        to2_images={"t": "si", "ti": "s"}, to1_images={"s": "ti", "si": "t"})


def p1_times_a1():
    return TwoChartScheme.affine(
        PolyRing(QQ, ["t", "u"]), PolyRing(QQ, ["s", "u"]), "t", "s", "ti", "si",
        to2_images={"t": "si", "ti": "s", "u": "u"},
        to1_images={"s": "ti", "si": "t", "u": "u"})


def double_origin_plane():
    R = PolyRing(QQ, ["x", "y"])
    return TwoChartScheme.selfglue(R, idal_from_ideal(["x", "y"], R))


def skyscrapers(sch):
    sky1 = PresentedModule(sch.chart1, 1, [("t",)])
    sky1sq = PresentedModule(sch.chart1, 1, [("t^2",)])
    sky2 = PresentedModule(sch.chart2, 1, [("s",)])
    return [("sky1", GluedModule(sch, sky1, zero_module(sch.chart2), [], [])),
            ("sky1sq", GluedModule(sch, sky1sq, zero_module(sch.chart2), [], [])),
            ("sky2", GluedModule(sch, zero_module(sch.chart1), sky2, [], []))]


def rank_two(sch):
    """A non-split transition [[t, 1], [0, 1/t]] on O^2, and O(1) + O(-2)."""
    O1 = PresentedModule(sch.chart1, 2)
    O2 = PresentedModule(sch.chart2, 2)
    twisted = GluedModule(sch, O1, O2, [["t", "1"], ["0", "ti"]], [["ti", "-1"], ["0", "t"]])
    split, _ = direct_sum_glued([p1_standard(1, sch), p1_standard(-2, sch)])
    return [("rank2-twisted", twisted), ("rank2-split", split)]


def generation_cases():
    cases = []
    P1 = p1_scheme()
    cases += [(f"p1-O({n})", p1_standard(n, P1)) for n in range(-3, 4)]
    cases += skyscrapers(P1)
    cases += rank_two(P1)
    F5 = p1_over(GF(5))
    cases += [(f"gf5-O({n})", p1_standard(n, F5)) for n in (-2, 0, 3)]
    cases += [("gf5-" + name, G) for name, G in skyscrapers(F5) + rank_two(F5)]
    PA = p1_times_a1()
    line = PresentedModule(PA.chart1, 1, [("u",)])
    line2 = PresentedModule(PA.chart2, 1, [("u",)])
    cases += [("p1xa1-O(-2)", GluedModule(PA, unit_module(PA.chart1), unit_module(PA.chart2),
                                          [["ti^2"]], [["t^2"]])),
              ("p1xa1-u=0,O(1)", GluedModule(PA, line, line2, [["t"]], [["ti"]]))]
    dop = double_origin_plane()
    L1, _ = chart_idal(dop, 1, 1)
    L2, _ = chart_idal(dop, 2, 2)
    cases += [("dop-O", o_glued(dop)), ("dop-L1", L1), ("dop-L2^2", L2),
              ("dop-L1(x)L1", tensor_glued(L1, L1))]
    return cases


GEN_CASES = generation_cases()


@pytest.mark.parametrize("name,G", GEN_CASES, ids=[c[0] for c in GEN_CASES])
def test_generation_matches_oracle(name, G):
    new = idal_generation(G, 4)
    old = oracle.idal_generation(G, 4)
    assert [(b.chart, b.power) for b in new.blocks] == [(b.chart, b.power) for b in old.blocks]
    for nb, ob in zip(new.blocks, old.blocks):
        assert nb.map.source.serialize() == ob.map.source.serialize()
        assert entries(nb.map.c1) == entries(ob.map.c1)
        assert entries(nb.map.c2) == entries(ob.map.c2)
    assert new.source.serialize() == old.source.serialize()
    assert entries(new.map.c1) == entries(old.map.c1)
    assert entries(new.map.c2) == entries(old.map.c2)
    assert new.verified is old.verified is True


@pytest.mark.parametrize("n", [-3, 3])
def test_both_stop_at_the_same_bound(n):
    """O(-3) needs power 3 from each chart, and O(3) none: with n_max 2 both
    versions give up on the first and agree on the second."""
    G = p1_standard(n, p1_scheme())
    if n < 0:
        with pytest.raises(StabilizationError):
            oracle.idal_generation(G, 2)
        with pytest.raises(StabilizationError):
            idal_generation(G, 2)
    else:
        old, new = oracle.idal_generation(G, 2), idal_generation(G, 2)
        assert [(b.chart, b.power) for b in new.blocks] == \
            [(b.chart, b.power) for b in old.blocks]


SCHEMES = [("p1", p1_scheme()), ("gf5-p1", p1_over(GF(5))), ("p1xa1", p1_times_a1()),
           ("dop", double_origin_plane())]


@pytest.mark.parametrize("name,sch", SCHEMES, ids=[s[0] for s in SCHEMES])
@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize("power", [1, 2, 3])
def test_chart_idal_matches_oracle(name, sch, which, power):
    L, e = chart_idal(sch, which, power)
    L_old, e_old = oracle.chart_idal(sch, which, power)
    assert L.serialize() == L_old.serialize()
    assert entries(e.c1) == entries(e_old.c1)
    assert entries(e.c2) == entries(e_old.c2)
    assert e.source is L and e.target.serialize() == e_old.target.serialize()


# ---------------------------------------------------------------------------
# validation, compatibility, direct sum, tensor and hom against the code
# written once per scheme kind


def dop_modules():
    """O, the chart idals at powers 1 and 2, two direct sums whose overlap
    data are not symmetric in their tensor slots, and the skyscraper at the
    origin, which e kills."""
    dop = double_origin_plane()
    out = [("dop-O", o_glued(dop))]
    for which in (1, 2):
        for power in (1, 2):
            out.append((f"dop-L{which}^{power}", chart_idal(dop, which, power)[0]))
    L1, L2 = chart_idal(dop, 1, 1)[0], chart_idal(dop, 2, 1)[0]
    out += [("dop-L1+O", direct_sum_glued([L1, o_glued(dop)])[0]),
            ("dop-L2+L1", direct_sum_glued([L2, L1])[0])]
    sky = PresentedModule(dop.chart1, 1, [("x",), ("y",)])
    one = [["1"]]
    out.append(("dop-sky0", GluedModule(dop, sky, sky, SelfGlueTau(
        0, ModuleMap(sky, sky, one).matrix, 0, ModuleMap(sky, sky, one).matrix))))
    return out


def construction_pairs():
    """(name, G, H) pairs on one scheme each."""
    P1 = p1_scheme()
    twists = {n: p1_standard(n, P1) for n in range(-3, 4)}
    pairs = [(f"p1-O({a}),O({b})", twists[a], twists[b])
             for a in range(-3, 4) for b in (-2, 0, 3)]
    sky = skyscrapers(P1)
    pairs += [(f"p1-{n1},{n2}", G, H) for n1, G in sky for n2, H in sky]
    pairs += [(f"p1-{n},O(1)", G, twists[1]) for n, G in sky]
    twisted = rank_two(P1)[0][1]
    pairs += [("p1-rank2,rank2", twisted, twisted), ("p1-rank2,O(-1)", twisted, twists[-1]),
              ("p1-O(2),rank2", twists[2], twisted)]
    F5 = p1_over(GF(5))
    pairs += [(f"gf5-O({a}),O({b})", p1_standard(a, F5), p1_standard(b, F5))
              for a, b in ((-2, 3), (1, 1), (0, -1))]
    pairs += [("gf5-sky1,rank2", skyscrapers(F5)[0][1], rank_two(F5)[0][1])]
    PA = p1_times_a1()
    line = GluedModule(PA, PresentedModule(PA.chart1, 1, [("u",)]),
                       PresentedModule(PA.chart2, 1, [("u",)]), [["t"]], [["ti"]])
    twist = GluedModule(PA, unit_module(PA.chart1), unit_module(PA.chart2),
                        [["ti^2"]], [["t^2"]])
    pairs += [("p1xa1-line,twist", line, twist), ("p1xa1-twist,line", twist, line),
              ("p1xa1-line,line", line, line)]
    dop = dop_modules()
    pairs += [(f"{n1},{n2}", G, H) for n1, G in dop for n2, H in dop]
    return pairs


PAIRS = construction_pairs()
PAIR_IDS = [p[0] for p in PAIRS]


def inclusion_entries(incls):
    return [(entries(f.c1), entries(f.c2)) for f in incls]


@pytest.mark.parametrize("name,G,H", PAIRS, ids=PAIR_IDS)
def test_direct_sum_matches_oracle(name, G, H):
    S, incls = direct_sum_glued([G, H, G])
    S_old, incls_old = oracle.direct_sum_glued([G, H, G])
    assert S.serialize() == S_old.serialize()
    assert inclusion_entries(incls) == inclusion_entries(incls_old)


@pytest.mark.parametrize("name,G,H", PAIRS, ids=PAIR_IDS)
def test_tensor_matches_oracle(name, G, H):
    assert tensor_glued(G, H).serialize() == oracle.tensor_glued(G, H).serialize()


@pytest.mark.parametrize("name,G,H", PAIRS, ids=PAIR_IDS)
def test_hom_matches_oracle(name, G, H):
    assert hom_glued(G, H).serialize() == oracle.hom_glued(G, H).serialize()


def candidate_maps(G, H):
    """Glued maps G -> H, compatible or not: zero, identity when G is H,
    the chart maps of H's idal generation read from G's charts when their
    shapes fit, and each of those with one chart scaled by a variable."""
    maps = [GluedMap(G, H, ModuleMap.zero(G.m1, H.m1), ModuleMap.zero(G.m2, H.m2),
                     validate=False)]
    if G is H:
        maps.append(GluedMap.identity(G))
    for block in idal_generation(H, 4).blocks:
        c1, c2 = block.map.c1, block.map.c2
        if c1.source.gens == G.m1.gens and c2.source.gens == G.m2.gens:
            maps.append(GluedMap(G, H, ModuleMap(G.m1, H.m1, c1.matrix, check=False),
                                 ModuleMap(G.m2, H.m2, c2.matrix, check=False),
                                 validate=False))
    for f in list(maps):
        v = G.m1.ring.var(G.m1.ring.variables[0])
        maps.append(GluedMap(G, H, ModuleMap(G.m1, H.m1, [[v * p for p in row]
                                                          for row in f.c1.matrix],
                                             check=False),
                             f.c2, validate=False))
    return maps


@pytest.mark.parametrize("name,G,H", PAIRS, ids=PAIR_IDS)
def test_compatibility_matches_oracle(name, G, H):
    verdicts = [(f.is_compatible(), oracle.is_compatible(f)) for f in candidate_maps(G, H)]
    assert all(new == old for new, old in verdicts), verdicts


@pytest.mark.parametrize("kind", ["affine", "selfglue"])
def test_compatibility_cases_see_both_verdicts(kind):
    pairs = [(G, H) for _, G, H in PAIRS if G.scheme.kind == kind][:12]
    assert {f.is_compatible() for G, H in pairs for f in candidate_maps(G, H)} == {True, False}


def validation_cases():
    """(name, scheme, m1, m2, tau, tau_inv), valid and not."""
    P1 = p1_scheme()
    O1, O2 = unit_module(P1.chart1), unit_module(P1.chart2)
    sky1 = PresentedModule(P1.chart1, 1, [("t",)])
    cases = [(f"p1-O({n})", P1, O1, O2, p1_standard(n, P1).tau.matrix,
              p1_standard(n, P1).tau_inv.matrix) for n in (-2, 0, 1)]
    cases += [("p1-bad-twist", P1, O1, O2, [["t"]], [["t"]]),
              ("p1-one-way", P1, O1, O2, [["t"]], None),
              ("p1-not-well-defined", P1, sky1, O2, [["1"]], [["1"]]),
              ("p1-sky", P1, sky1, zero_module(P1.chart2), [], []),
              ("p1-rank2", P1, PresentedModule(P1.chart1, 2), PresentedModule(P1.chart2, 2),
               [["t", "1"], ["0", "ti"]], [["ti", "-1"], ["0", "t"]]),
              ("p1-rank2-bad", P1, PresentedModule(P1.chart1, 2), PresentedModule(P1.chart2, 2),
               [["t", "1"], ["0", "ti"]], [["ti", "1"], ["0", "t"]]),
              # inverse on the chart-1 side only
              ("p1-one-sided", P1, O1, PresentedModule(P1.chart2, 2), [["1", "0"]],
               [["1"], ["0"]])]
    F5 = p1_over(GF(5))
    cases += [("gf5-O(2)", F5, unit_module(F5.chart1), unit_module(F5.chart2),
               [["t^2"]], [["ti^2"]]),
              ("gf5-bad", F5, unit_module(F5.chart1), unit_module(F5.chart2),
               [["2*t"]], [["2*ti"]])]
    dop = double_origin_plane()
    J, O = dop.idal, unit_module(dop.chart1)

    def staged(a, fwd, b, bwd, m1=O, m2=O):
        return SelfGlueTau(a, ModuleMap(staged_oracle.stage_source(J, a, m1), m2, fwd).matrix,
                           b, ModuleMap(staged_oracle.stage_source(J, b, m2), m1, bwd).matrix)

    cases += [("dop-O", dop, O, O, staged(0, [["1"]], 0, [["1"]]), None),
              ("dop-e,1", dop, O, O, staged(1, [["x", "y"]], 0, [["1"]]), None),
              ("dop-1,e", dop, O, O, staged(0, [["1"]], 1, [["x", "y"]]), None),
              ("dop-bad-scale", dop, O, O, staged(0, [["2"]], 0, [["1"]]), None),
              ("dop-bad-e", dop, O, O, staged(1, [["x^2", "x*y"]], 0, [["1"]]), None),
              ("dop-one-sided", dop, O, free_module(dop.chart1, 2),
               staged(0, [["1"], ["0"]], 0, [["1", "0"]], m2=free_module(dop.chart1, 2)), None)]
    for which in (1, 2):
        for power in (1, 2):
            L = chart_idal(dop, which, power)[0]
            cases.append((f"dop-L{which}^{power}", dop, L.m1, L.m2, L.tau, None))
    return cases


VALIDATION = validation_cases()


@pytest.mark.parametrize("name,scheme,m1,m2,tau,tau_inv", VALIDATION,
                         ids=[c[0] for c in VALIDATION])
def test_validation_matches_oracle(name, scheme, m1, m2, tau, tau_inv):
    old = oracle.glued_module_verdict(scheme, m1, m2, tau, tau_inv)
    try:
        GluedModule(scheme, m1, m2, tau, tau_inv)
        new = None
    except AlgebraError as exc:
        new = exc
    assert type(new) is type(old), (new, old)
