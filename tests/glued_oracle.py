"""Frozen copies of the chart-by-chart idal generation and chart idals that
one per-chart body in `glued` replaced.

Test-only oracle for `test_glued_differential.py`: `idal_generation` with
its four per-chart blocks, `_affine_extension_power` on chart 1 only, the
side-swapped scheme and glued module it used for chart 2
(`_swap_scheme_sides`, `_swap_glued`), `chart_idal` with its `which == 1` /
`which == 2` branches, and the index loop of `_stack_chart_maps`.  The
present code must give the same blocks and chart maps entry for entry.  Do
not optimise this file; its value is that it stays as it was.  (The three
chart-1-centred overlap properties it read became functions taking the
overlap.)
"""

from __future__ import annotations

from idals.errors import AlgebraError, StabilizationError
from idals.fpmod import ModuleMap, PresentedModule, _block_sum, _identity_matrix, unit_module
from idals.glued import (
    GenerationBlock,
    GenerationResult,
    GluedMap,
    GluedModule,
    SelfGlueTau,
    TwoChartScheme,
    direct_sum_glued,
    o_glued,
)
from idals.polyring import Poly


def f2_image_in_U1(ov):
    return ov.chart2_to_U1.apply(ov.f2)


def f2_inverse_image_in_U1(ov):
    return ov.to1.apply(ov.f2_inverse)


def f1_image_in_U1(ov):
    return ov.incl1.apply(ov.f1)


def chart_idal(scheme: TwoChartScheme, which: int, power: int = 1):
    """(L, e) with L the glued module of the chart idal (to the given tensor
    power) and e : L -> O_glued its structure map."""
    O = o_glued(scheme)
    if scheme.kind == "affine":
        ov = scheme.overlap
        O1, O2 = unit_module(scheme.chart1), unit_module(scheme.chart2)
        if which == 1:
            h = f2_image_in_U1(ov)
            hinv = f2_inverse_image_in_U1(ov)
            tau = [[h ** power]]
            tau_inv = [[hinv ** power]]
            L = GluedModule(scheme, O1, O2, tau, tau_inv)
            e = GluedMap(L, O, ModuleMap.identity(O1),
                         ModuleMap(O2, O2, [[ov.f2 ** power]], check=False))
        elif which == 2:
            h = f1_image_in_U1(ov)
            hinv = ov.to1.apply(ov.to2.apply(ov.f1_inverse))
            tau = [[hinv ** power]]
            tau_inv = [[h ** power]]
            L = GluedModule(scheme, O1, O2, tau, tau_inv)
            e = GluedMap(L, O, ModuleMap(O1, O1, [[ov.f1 ** power]], check=False),
                         ModuleMap.identity(O2))
        else:
            raise AlgebraError("chart index must be 1 or 2")
        return L, e
    J = scheme.idal
    O1 = unit_module(scheme.chart1)
    Jc = J.carrier_power(power)
    # overlap data: J^power (x) O1 -> Jc is the identity on generators, and
    # J^power (x) Jc -> O1 applies e at all 2 * power slots
    to_Jc = ModuleMap(J.stage_source(power, O1), Jc, _identity_matrix(O1.ring, Jc.gens),
                      check=False)
    to_O1 = ModuleMap(J.stage_source(power, Jc), O1, J.power_map(2 * power).matrix,
                      check=False)
    if which == 1:
        # trivial on chart 1, J^power on chart 2
        L = GluedModule(scheme, O1, Jc, SelfGlueTau(power, to_Jc, power, to_O1))
        e = GluedMap(L, O, ModuleMap.identity(O1),
                     ModuleMap(Jc, O1, J.power_map(power).matrix, check=False))
    elif which == 2:
        L = GluedModule(scheme, Jc, O1, SelfGlueTau(power, to_O1, power, to_Jc))
        e = GluedMap(L, O, ModuleMap(Jc, O1, J.power_map(power).matrix, check=False),
                     ModuleMap.identity(O1))
    else:
        raise AlgebraError("chart index must be 1 or 2")
    return L, e


def _affine_extension_power(G: GluedModule, gen_index: int, n_max: int):
    """Smallest k such that h^k tau^{-1}(gbar) comes from the chart-2 module,
    together with the chart-2 column; raises when n_max is insufficient."""
    ov = G.scheme.overlap
    gcol = [ov.U1.zero()] * G.m1.gens
    gcol[gen_index] = ov.U1.one()
    base = G.tau_inv.apply_column(tuple(gcol))
    h1 = f2_image_in_U1(ov)
    for k in range(n_max + 1):
        scaled = tuple(p * (h1 ** k) for p in base)
        images = [ov.to2.apply(p) for p in G.m2_overlap.normal_form(scaled)]
        inv_index = ov.U2.variables.index(ov.inv2)
        if all(all(e[inv_index] == 0 for e in p.terms) for p in images):
            a2_cols = []
            for p in images:
                terms = {}
                for e, c in p.terms.items():
                    reduced_e = tuple(x for i, x in enumerate(e) if i != inv_index)
                    terms[reduced_e] = c
                a2_cols.append(Poly(G.m2.ring, G.m2.ring.reduce_terms(terms)))
            return k, tuple(a2_cols)
    raise StabilizationError(
        f"extension of chart-1 generator {gen_index} did not clear its "
        f"denominators within n_max = {n_max} (failing chart: 2)")


def _swap_scheme_sides(scheme: TwoChartScheme) -> TwoChartScheme:
    if scheme.kind != "affine":
        raise AlgebraError("side swap only for affine schemes")
    ov = scheme.overlap
    return TwoChartScheme.affine(
        scheme.chart2, scheme.chart1, ov.f2, ov.f1, ov.inv2, ov.inv1,
        {v: str(ov.to1.images[v]) for v in ov.U2.variables},
        {v: str(ov.to2.images[v]) for v in ov.U1.variables})


def _swap_glued(G: GluedModule, swapped_scheme: TwoChartScheme) -> GluedModule:
    # overlap of the swapped scheme is U2; transport tau via to2
    to2 = G.scheme.overlap.to2
    tau_m = [[to2.apply(x) for x in row] for row in G.tau_inv.matrix]
    tinv_m = [[to2.apply(x) for x in row] for row in G.tau.matrix]
    return GluedModule(swapped_scheme, G.m2, G.m1, tau_m, tinv_m)


def idal_generation(G: GluedModule, n_max: int = 8) -> GenerationResult:
    """A verified epimorphism onto G from a direct sum of tensor powers of the
    scheme's chart idals, built by extending chart generators across."""
    scheme = G.scheme
    if scheme.kind == "affine":
        blocks = []
        for gidx in range(G.m1.gens):
            k, col2 = _affine_extension_power(G, gidx, n_max)
            L, _ = chart_idal(scheme, 1, k) if k else (o_glued(scheme), None)
            c1 = ModuleMap(unit_module(scheme.chart1), G.m1,
                           [[scheme.chart1.one() if i == gidx else scheme.chart1.zero()]
                            for i in range(G.m1.gens)], check=False)
            c2 = ModuleMap(unit_module(scheme.chart2), G.m2,
                           [[p] for p in col2], check=False)
            blocks.append(GenerationBlock(1, k, GluedMap(L, G, c1, c2)))
        swapped_scheme = _swap_scheme_sides(scheme)
        Gsw = _swap_glued(G, swapped_scheme)
        for gidx in range(G.m2.gens):
            k, col1 = _affine_extension_power(Gsw, gidx, n_max)
            L, _ = chart_idal(scheme, 2, k) if k else (o_glued(scheme), None)
            c2 = ModuleMap(unit_module(scheme.chart2), G.m2,
                           [[scheme.chart2.one() if i == gidx else scheme.chart2.zero()]
                            for i in range(G.m2.gens)], check=False)
            c1 = ModuleMap(unit_module(scheme.chart1), G.m1,
                           [[p] for p in col1], check=False)
            blocks.append(GenerationBlock(2, k, GluedMap(L, G, c1, c2)))
    elif scheme.kind == "selfglue":
        J = scheme.idal
        blocks = []
        a, b = G.tau.fwd_stage, G.tau.bwd_stage
        for gidx in range(G.m1.gens):
            L, _ = chart_idal(scheme, 1, a) if a else (o_glued(scheme), None)
            gmap = ModuleMap(L.m1, G.m1,
                             [[scheme.chart1.one() if i == gidx else scheme.chart1.zero()]
                              for i in range(G.m1.gens)], check=False)
            # J^a (x) O -> G.m2, read on L.m2 = J^a
            c2 = J.then(G.tau.fwd, a, gmap, 0, L.m1)
            c2 = ModuleMap(L.m2, G.m2, c2.matrix, check=False)
            blocks.append(GenerationBlock(1, a, GluedMap(L, G, gmap, c2)))
        for gidx in range(G.m2.gens):
            L, _ = chart_idal(scheme, 2, b) if b else (o_glued(scheme), None)
            gmap = ModuleMap(L.m2, G.m2,
                             [[scheme.chart2.one() if i == gidx else scheme.chart2.zero()]
                              for i in range(G.m2.gens)], check=False)
            c1 = J.then(G.tau.bwd, b, gmap, 0, L.m2)
            c1 = ModuleMap(L.m1, G.m1, c1.matrix, check=False)
            blocks.append(GenerationBlock(2, b, GluedMap(L, G, c1, gmap)))
    else:
        raise AlgebraError("unknown scheme kind")
    if not blocks:
        raise AlgebraError("module has no generators to hit")
    D, incls = direct_sum_glued([blk.map.source for blk in blocks])
    c1 = _stack_chart_maps([blk.map.c1 for blk in blocks], G.m1)
    c2 = _stack_chart_maps([blk.map.c2 for blk in blocks], G.m2)
    combined = GluedMap(D, G, c1, c2, validate=False)
    verified = combined.is_chartwise_surjective()
    if not verified:
        raise AlgebraError("constructed map is not surjective (internal)")
    return GenerationResult(blocks, D, combined, True)


def _stack_chart_maps(maps, target: PresentedModule) -> ModuleMap:
    total = sum(m.source.gens for m in maps)
    ring = target.ring
    zero = ring.zero()
    matrix = [[zero] * total for _ in range(target.gens)]
    off = 0
    for m in maps:
        for i in range(target.gens):
            for j in range(m.source.gens):
                matrix[i][off + j] = m.matrix[i][j]
        off += m.source.gens
    return ModuleMap(_block_sum(ring, [m.source for m in maps]), target, matrix, check=False)
