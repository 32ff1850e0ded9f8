"""Frozen copies of glued-module code that one body for both scheme kinds
replaced.

Test-only oracle for `test_glued_differential.py`.

* Idal generation and chart idals: `idal_generation` with its four
  per-chart blocks, `_affine_extension_power` on chart 1 only, the
  side-swapped scheme and glued module it used for chart 2
  (`_swap_scheme_sides`, `_swap_glued`), `chart_idal` with its
  `which == 1` / `which == 2` branches, and the index loop of
  `_stack_chart_maps`.  (The three chart-1-centred overlap properties it
  read became functions taking the overlap.)
* The constructions written once per scheme kind, before one overlap datum
  served both: the validation of `GluedModule` (`glued_module_verdict`),
  `GluedMap.is_compatible` (`is_compatible`), `direct_sum_glued` with
  `_blockdiag_selfglue`, `tensor_glued` with `_selfglue_tensor_element`,
  and `hom_glued` with `_hom_overlap_map`, `_hom_glued_selfglue` and
  `_conjugate_hom_element`.  They build their results through the present
  `GluedModule` constructor, in the argument forms it had: overlap matrices
  for affine schemes and a `SelfGlueTau` for self-glued ones.

Staged maps are `ModuleMap`s out of presented stage sources here, built,
composed and compared by the frozen stage operations of `staged_oracle.py`;
a self-glued datum, which the present code holds as matrices, is read into
such maps by `staged_maps` and handed back to `SelfGlueTau` as matrices.

The present code must give the same results entry for entry.  Do not
optimise this file; its value is that it stays as it was.
"""

from __future__ import annotations

from idals.errors import (
    AlgebraError,
    StabilizationError,
    TauNotInvertibleError,
    TauNotWellDefinedError,
    WellDefinednessError,
)
from idals.fpmod import (
    ModuleMap,
    PresentedModule,
    _block_sum,
    _identity_matrix,
    base_change_map,
    base_change_module,
    direct_sum,
    hom_module,
    tensor,
    tensor_map,
    tensor_permutation,
    unit_module,
)
from idals.glued import (
    GenerationBlock,
    GenerationResult,
    GluedMap,
    GluedModule,
    SelfGlueTau,
    TwoChartScheme,
    o_glued,
)
from idals.polyring import Poly

import staged_oracle as staged
from staged_oracle import compose, equals


def staged_maps(scheme, m1, m2, tau):
    """(fwd, bwd) of a self-glued datum as maps out of the frozen stage
    sources J^{(x)fwd_stage} (x) m1 and J^{(x)bwd_stage} (x) m2."""
    J = scheme.idal
    return (ModuleMap(staged.stage_source(J, tau.fwd_stage, m1), m2, tau.fwd, check=False),
            ModuleMap(staged.stage_source(J, tau.bwd_stage, m2), m1, tau.bwd, check=False))


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
    to_Jc = ModuleMap(staged.stage_source(J, power, O1), Jc,
                      _identity_matrix(O1.ring, Jc.gens), check=False)
    to_O1 = ModuleMap(staged.stage_source(J, power, Jc), O1, J.power_map(2 * power).matrix,
                      check=False)
    if which == 1:
        # trivial on chart 1, J^power on chart 2
        L = GluedModule(scheme, O1, Jc, SelfGlueTau(power, to_Jc.matrix, power, to_O1.matrix))
        e = GluedMap(L, O, ModuleMap.identity(O1),
                     ModuleMap(Jc, O1, J.power_map(power).matrix, check=False))
    elif which == 2:
        L = GluedModule(scheme, Jc, O1, SelfGlueTau(power, to_O1.matrix, power, to_Jc.matrix))
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
        fwd, bwd = staged_maps(scheme, G.m1, G.m2, G.tau)
        for gidx in range(G.m1.gens):
            L, _ = chart_idal(scheme, 1, a) if a else (o_glued(scheme), None)
            gmap = ModuleMap(L.m1, G.m1,
                             [[scheme.chart1.one() if i == gidx else scheme.chart1.zero()]
                              for i in range(G.m1.gens)], check=False)
            # J^a (x) O -> G.m2, read on L.m2 = J^a
            c2 = staged.then(J, fwd, a, gmap, 0, L.m1)
            c2 = ModuleMap(L.m2, G.m2, c2.matrix, check=False)
            blocks.append(GenerationBlock(1, a, GluedMap(L, G, gmap, c2)))
        for gidx in range(G.m2.gens):
            L, _ = chart_idal(scheme, 2, b) if b else (o_glued(scheme), None)
            gmap = ModuleMap(L.m2, G.m2,
                             [[scheme.chart2.one() if i == gidx else scheme.chart2.zero()]
                              for i in range(G.m2.gens)], check=False)
            c1 = staged.then(J, bwd, b, gmap, 0, L.m2)
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


# ---------------------------------------------------------------------------
# the constructions written once per scheme kind


def _as_overlap_map(data, source, target) -> ModuleMap:
    if data is None:
        raise TauNotInvertibleError("overlap data must include both directions")
    if isinstance(data, ModuleMap):
        data = data.matrix
    if data == [] or data == ():
        # convenient zero overlap for degenerate (zero-module) charts
        data = [[source.ring.zero()] * source.gens for _ in range(target.gens)]
    try:
        return ModuleMap(source, target, data, check=True)
    except WellDefinednessError as exc:
        raise TauNotWellDefinedError(str(exc)) from exc


def glued_module_verdict(scheme, m1, m2, tau, tau_inv=None):
    """What `GluedModule(scheme, m1, m2, tau, tau_inv)` checked: None when
    the data pass, else the exception it raised."""
    try:
        if scheme.kind == "affine":
            ov = scheme.overlap
            m1_overlap = base_change_module(m1, ov.incl1)
            m2_overlap = base_change_module(m2, ov.chart2_to_U1)
            t = _as_overlap_map(tau, m2_overlap, m1_overlap)
            t_inv = _as_overlap_map(tau_inv, m1_overlap, m2_overlap)
            if not equals(compose(t, t_inv), ModuleMap.identity(m1_overlap)) \
                    or not equals(compose(t_inv, t), ModuleMap.identity(m2_overlap)):
                raise TauNotInvertibleError("overlap maps are not mutually inverse")
        else:
            J = scheme.idal
            a, b = tau.fwd_stage, tau.bwd_stage
            fwd, bwd = staged_maps(scheme, m1, m2, tau)
            left = staged.then(J, bwd, b, fwd, a, m1)
            if not equals(left, staged.collapse(J, m1, a + b, 0)):
                raise TauNotInvertibleError(
                    "selfglue overlap elements are not mutually inverse")
            right = staged.then(J, fwd, a, bwd, b, m2)
            if not equals(right, staged.collapse(J, m2, a + b, 0)):
                raise TauNotInvertibleError(
                    "selfglue overlap elements are not mutually inverse")
    except AlgebraError as exc:
        return exc
    return None


def is_compatible(f: GluedMap) -> bool:
    G, H = f.source, f.target
    if G.scheme.kind == "affine":
        ov = G.scheme.overlap
        c1o = base_change_map(f.c1, ov.incl1, G.m1_overlap, H.m1_overlap)
        c2o = base_change_map(f.c2, ov.chart2_to_U1, G.m2_overlap, H.m2_overlap)
        return equals(compose(H.tau, c2o), compose(c1o, G.tau))
    J = G.scheme.idal
    a, b = G.tau.fwd_stage, H.tau.fwd_stage
    N = max(a, b)
    G_fwd, H_fwd = staged_maps(G.scheme, G.m1, G.m2, G.tau)[0], \
        staged_maps(H.scheme, H.m1, H.m2, H.tau)[0]
    lhs = staged.restage(J, compose(f.c2, G_fwd), G.m1, a, N)
    rhs = staged.restage(J, staged.then(J, H_fwd, b, f.c1, 0, G.m1), G.m1, b, N)
    return equals(lhs, rhs)


def direct_sum_glued(summands):
    """(G, inclusions) of a finite direct sum of glued modules."""
    if not summands:
        raise AlgebraError("empty direct sum")
    scheme = summands[0].scheme
    S1, incls1, _ = direct_sum([g.m1 for g in summands])
    S2, incls2, _ = direct_sum([g.m2 for g in summands])
    if scheme.kind == "affine":
        n1 = sum(g.m1_overlap.gens for g in summands)
        n2 = sum(g.m2_overlap.gens for g in summands)
        U1 = scheme.overlap.U1
        zero = U1.zero()
        tau_rows = [[zero] * n2 for _ in range(n1)]
        tinv_rows = [[zero] * n1 for _ in range(n2)]
        r_off = c_off = 0
        for g in summands:
            for i in range(g.m1_overlap.gens):
                for j in range(g.m2_overlap.gens):
                    tau_rows[r_off + i][c_off + j] = g.tau.matrix[i][j]
                    tinv_rows[c_off + j][r_off + i] = g.tau_inv.matrix[j][i]
            r_off += g.m1_overlap.gens
            c_off += g.m2_overlap.gens
        G = GluedModule(scheme, S1, S2, tau_rows, tinv_rows, validate=False)
    else:
        a = max(g.tau.fwd_stage for g in summands)
        b = max(g.tau.bwd_stage for g in summands)
        maps = [staged_maps(scheme, g.m1, g.m2, g.tau) for g in summands]
        fwd = _blockdiag_selfglue(scheme, [g.m1 for g in summands], [g.m2 for g in summands],
                                  [(g.tau.fwd_stage, m[0]) for g, m in zip(summands, maps)],
                                  a, S1, S2)
        bwd = _blockdiag_selfglue(scheme, [g.m2 for g in summands], [g.m1 for g in summands],
                                  [(g.tau.bwd_stage, m[1]) for g, m in zip(summands, maps)],
                                  b, S2, S1)
        G = GluedModule(scheme, S1, S2, SelfGlueTau(a, fwd.matrix, b, bwd.matrix),
                        validate=False)
    incls = []
    for k, g in enumerate(summands):
        incls.append(GluedMap(g, G, incls1[k], incls2[k], validate=False))
    return G, incls


def _blockdiag_selfglue(scheme, sources, targets, staged_maps, N, S_src, S_tgt) -> ModuleMap:
    """Block diagonal of Deligne elements, each pushed to the common stage N."""
    J = scheme.idal
    src = staged.stage_source(J, N, S_src)
    zero = scheme.chart1.zero()
    matrix = [[zero] * src.gens for _ in range(S_tgt.gens)]
    gN = J.carrier_power(N).gens
    src_off = 0
    tgt_off = 0
    for (stage, m), piece_src, piece_tgt in zip(staged_maps, sources, targets):
        pushed = staged.restage(J, m, piece_src, stage, N)
        for r in range(piece_tgt.gens):
            for t in range(gN):
                for j in range(piece_src.gens):
                    matrix[tgt_off + r][t * S_src.gens + (src_off + j)] = \
                        pushed.matrix[r][t * piece_src.gens + j]
        src_off += piece_src.gens
        tgt_off += piece_tgt.gens
    return ModuleMap(src, S_tgt, matrix, check=False)


def tensor_glued(G: GluedModule, H: GluedModule) -> GluedModule:
    if G.scheme != H.scheme:
        raise AlgebraError("tensor of glued modules on different schemes")
    scheme = G.scheme
    T1 = tensor(G.m1, H.m1)
    T2 = tensor(G.m2, H.m2)
    if scheme.kind == "affine":
        tau = tensor_map(G.tau, H.tau)
        tau_inv = tensor_map(G.tau_inv, H.tau_inv)
        return GluedModule(scheme, T1, T2, tau.matrix, tau_inv.matrix, validate=False)
    G_fwd, G_bwd = staged_maps(scheme, G.m1, G.m2, G.tau)
    H_fwd, H_bwd = staged_maps(scheme, H.m1, H.m2, H.tau)
    fwd = _selfglue_tensor_element(scheme, G.tau.fwd_stage, G_fwd, G.m1,
                                   H.tau.fwd_stage, H_fwd, H.m1, T1, T2)
    bwd = _selfglue_tensor_element(scheme, G.tau.bwd_stage, G_bwd, G.m2,
                                   H.tau.bwd_stage, H_bwd, H.m2, T2, T1)
    return GluedModule(scheme, T1, T2,
                       SelfGlueTau(G.tau.fwd_stage + H.tau.fwd_stage, fwd.matrix,
                                   G.tau.bwd_stage + H.tau.bwd_stage, bwd.matrix),
                       validate=False)


def _selfglue_tensor_element(scheme, a, fwd_a, Ma, b, fwd_b, Mb, MaMb, NaNb) -> ModuleMap:
    """J^{a+b} (x) MaMb -> NaNb from elements fwd_a : J^a (x) Ma -> Na and
    fwd_b : J^b (x) Mb -> Nb, where MaMb = Ma (x) Mb and NaNb = Na (x) Nb."""
    J = scheme.idal
    factors = [J.carrier] * (a + b) + [Ma, Mb]
    perm = list(range(a)) + [a + b] + list(range(a, a + b)) + [a + b + 1]
    shuffle = tensor_permutation(factors, perm)
    paired = tensor_map(fwd_a, fwd_b)
    paired = ModuleMap(paired.source, NaNb, paired.matrix, check=False)
    return compose(paired, ModuleMap(staged.stage_source(J, a + b, MaMb), paired.source,
                                     shuffle.matrix, check=False))


def hom_glued(G: GluedModule, H: GluedModule, n_max: int = 8) -> GluedModule:
    """Chartwise hom modules glued by the conjugation tau_H . (-) . tau_G^{-1}."""
    if G.scheme != H.scheme:
        raise AlgebraError("hom of glued modules on different schemes")
    scheme = G.scheme
    hom1 = hom_module(G.m1, H.m1)
    hom2 = hom_module(G.m2, H.m2)
    if scheme.kind == "affine":
        ov = scheme.overlap
        tau = _hom_overlap_map(hom2, ov.chart2_to_U1, hom1, ov.incl1, G.tau_inv, H.tau)
        tau_inv = _hom_overlap_map(hom1, ov.incl1, hom2, ov.chart2_to_U1, G.tau, H.tau_inv)
        return GluedModule(scheme, hom1.module, hom2.module, tau, tau_inv)
    return _hom_glued_selfglue(G, H, hom1, hom2, n_max)


def _hom_overlap_map(hom_src, src_to_U1, hom_tgt, tgt_to_U1, pre: ModuleMap, post: ModuleMap):
    """Matrix over U1 of the conjugation phi |-> post . phi . pre, from
    hom_src base-changed along src_to_U1 to hom_tgt base-changed along
    tgt_to_U1."""
    src_mod = base_change_module(hom_src.module, src_to_U1)
    tgt_mod = base_change_module(hom_tgt.module, tgt_to_U1)
    incl_bc = base_change_map(hom_tgt.incl, tgt_to_U1, tgt_mod,
                              base_change_module(hom_tgt.ambient, tgt_to_U1))
    cols = []
    for k in range(src_mod.gens):
        phi = base_change_map(hom_src.generator_map(k), src_to_U1, pre.target, post.source)
        cols.append(incl_bc.lift(hom_tgt._flatten_map(compose(compose(post, phi), pre))))
        if cols[-1] is None:
            raise AlgebraError("hom base change failed to lift (overlap hom mismatch)")
    return ModuleMap.from_columns(src_mod, tgt_mod, cols).matrix


def _hom_glued_selfglue(G, H, hom1, hom2, n_max: int) -> GluedModule:
    J = G.scheme.idal
    G_fwd, G_bwd = staged_maps(G.scheme, G.m1, G.m2, G.tau)
    H_fwd, H_bwd = staged_maps(H.scheme, H.m1, H.m2, H.tau)
    fwd = _conjugate_hom_element(J, hom1, hom2, G.m2, H.m2,
                                 G_bwd, G.tau.bwd_stage,
                                 H_fwd, H.tau.fwd_stage)
    bwd = _conjugate_hom_element(J, hom2, hom1, G.m1, H.m1,
                                 G_fwd, G.tau.fwd_stage,
                                 H_bwd, H.tau.bwd_stage)
    return GluedModule(G.scheme, hom1.module, hom2.module,
                       SelfGlueTau(G.tau.bwd_stage + H.tau.fwd_stage, fwd.matrix,
                                   G.tau.fwd_stage + H.tau.bwd_stage, bwd.matrix),
                       validate=False)


def _conjugate_hom_element(J, hom_src, hom_tgt, A: PresentedModule, D: PresentedModule,
                           pre: ModuleMap, p: int, post: ModuleMap, q: int) -> ModuleMap:
    """J^{(x)(p+q)} (x) Hom(B, C) -> Hom(A, D) sending t (x) h to the slice of
    post . (id (x) (h . pre)) at t, where pre : J^p (x) A -> B and
    post : J^q (x) C -> D."""
    c = p + q
    src = staged.stage_source(J, c, hom_src.module)
    zero = A.ring.zero()
    matrix = [[zero] * src.gens for _ in range(hom_tgt.module.gens)]
    gC = J.carrier_power(c).gens
    for k in range(hom_src.module.gens):
        h = hom_src.generator_map(k)
        step = compose(h, pre)        # J^p (x) A -> C
        full = staged.then(J, post, q, step, p, A)
        for t in range(gC):
            sub = [[full.matrix[r][t * A.gens + j] for j in range(A.gens)]
                   for r in range(D.gens)]
            phi = ModuleMap(A, D, sub, check=False)
            coords = hom_tgt.express(phi)
            for r in range(hom_tgt.module.gens):
                matrix[r][t * hom_src.module.gens + k] = coords[r]
    return ModuleMap(src, hom_tgt.module, matrix, check=False)
