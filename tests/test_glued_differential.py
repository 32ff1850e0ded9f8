"""`idal_generation` and `chart_idal`, one body for both charts, against the
chart-by-chart code with a side-swapped scheme they replaced, frozen in
`glued_oracle.py`: the same blocks (chart and power) and every chart map
entry for entry, on the projective line over QQ and GF(5), P1 x A1 and the
self-glued double-origin plane."""

import pytest

from idals import GF, QQ, PolyRing, PresentedModule, idal_from_ideal
from idals.errors import StabilizationError
from idals.fpmod import unit_module, zero_module
from idals.glued import (
    GluedModule,
    TwoChartScheme,
    chart_idal,
    direct_sum_glued,
    idal_generation,
    o_glued,
    p1_scheme,
    p1_standard,
    tensor_glued,
)

import glued_oracle as oracle


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
