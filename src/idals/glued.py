"""Quasi-coherent modules on two-chart schemes as gluing triples.

Two flavours of scheme:

* Affine: two affine charts glued along principal localizations, with the
  transition given by an explicit ring isomorphism both ways.  Overlap data
  of a glued module is a ModuleMap over the chart-1 overlap ring U1, mapping
  the base-changed chart-2 piece to the base-changed chart-1 piece (so a
  Serre twist O(n) on the projective line has tau = multiplication by t^n).
* SelfGlue: one ring glued to itself along the locus of an idal J; overlap
  data is a morphism element at a finite Deligne stage, from the chart-1
  piece to the chart-2 piece, with a supplied inverse element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    AlgebraError,
    RingMismatchError,
    StabilizationError,
    TauNotInvertibleError,
    TauNotWellDefinedError,
    UngradedError,
    WellDefinednessError,
)
from . import linalg
from .fpmod import (
    ModuleMap,
    PresentedModule,
    _block_sum,
    _identity_matrix,
    _kron,
    base_change_map,
    base_change_module,
    column_degree,
    cokernel,
    direct_sum,
    free_module,
    graded_dim,
    hom_module,
    is_iso,
    invert_iso,
    kernel,
    pullback,
    symtrivial_check,
    tensor,
    tensor_map,
    tensor_permutation,
    unit_module,
)
from .idal import Idal, cover_check, idal_product
from .localize import HomChain, _saturated_stage, localized_ring, reflect
from .polyring import Poly, PolyRing, QQ, RingHom, monomials_of_degree


# ---------------------------------------------------------------------------
# schemes


class AffineOverlap:
    """Principal overlap data: U1 = A1[f1^-1], U2 = A2[f2^-1] and the ring
    isomorphism between them, given by variable images both ways."""

    def __init__(self, chart1: PolyRing, chart2: PolyRing, f1, f2,
                 inv1: str, inv2: str, to2_images: dict, to1_images: dict):
        self.f1 = chart1.poly(f1)
        self.f2 = chart2.poly(f2)
        self.inv1 = inv1
        self.inv2 = inv2
        self.U1, self.incl1, self.f1_inverse = localized_ring(chart1, self.f1, inv1)
        self.U2, self.incl2, self.f2_inverse = localized_ring(chart2, self.f2, inv2)
        self.to2 = RingHom(self.U1, self.U2, to2_images)
        self.to1 = RingHom(self.U2, self.U1, to1_images)
        for v in self.U1.variables:
            if self.to1.apply(self.to2.apply(self.U1.var(v))) != self.U1.var(v):
                raise AlgebraError(f"transition maps do not compose to the identity at {v}")
        for v in self.U2.variables:
            if self.to2.apply(self.to1.apply(self.U2.var(v))) != self.U2.var(v):
                raise AlgebraError(f"transition maps do not compose to the identity at {v}")
        self.chart2_to_U1 = self.to1.compose(self.incl2)

    def f_in_U1(self, chart: int):
        """The chart's f and its inverse, as elements of U1."""
        if chart == 1:
            return self.incl1.apply(self.f1), self.f1_inverse
        return self.chart2_to_U1.apply(self.f2), self.to1.apply(self.f2_inverse)


class TwoChartScheme:
    """Either two affine charts with an affine overlap, or one ring glued to
    itself along an idal."""

    def __init__(self, kind: str, chart1: PolyRing, chart2: PolyRing,
                 overlap: AffineOverlap | None = None, idal: Idal | None = None):
        if kind not in ("affine", "selfglue"):
            raise AlgebraError("scheme kind must be 'affine' or 'selfglue'")
        self.kind = kind
        self.chart1 = chart1
        self.chart2 = chart2
        self.overlap = overlap
        self.idal = idal
        if kind == "affine" and overlap is None:
            raise AlgebraError("affine scheme requires overlap data")
        if kind == "selfglue":
            if idal is None or chart1 != chart2:
                raise AlgebraError("selfglue scheme requires one ring and an idal")

    @staticmethod
    def affine(chart1: PolyRing, chart2: PolyRing, f1, f2, inv1, inv2,
               to2_images, to1_images) -> "TwoChartScheme":
        ov = AffineOverlap(chart1, chart2, f1, f2, inv1, inv2, to2_images, to1_images)
        return TwoChartScheme("affine", chart1, chart2, overlap=ov)

    @staticmethod
    def selfglue(ring: PolyRing, J: Idal) -> "TwoChartScheme":
        return TwoChartScheme("selfglue", ring, ring, idal=J)

    def __eq__(self, other):
        if not isinstance(other, TwoChartScheme) or self.kind != other.kind:
            return False
        if self.kind == "selfglue":
            return (self.chart1 == other.chart1
                    and self.idal.serialize() == other.idal.serialize())
        a, b = self.overlap, other.overlap
        return (self.chart1 == other.chart1 and self.chart2 == other.chart2
                and str(a.f1) == str(b.f1) and str(a.f2) == str(b.f2)
                and a.U1 == b.U1 and a.U2 == b.U2)

    def to_json(self):
        if self.kind == "selfglue":
            return {"kind": "selfglue", "ring": self.chart1.to_json(),
                    "idal": self.idal.serialize()}
        ov = self.overlap
        return {
            "kind": "affine",
            "chart1": self.chart1.to_json(), "chart2": self.chart2.to_json(),
            "f1": str(ov.f1), "f2": str(ov.f2),
            "inv1": ov.inv1, "inv2": ov.inv2,
            "to2": {v: str(ov.to2.images[v]) for v in ov.U1.variables},
            "to1": {v: str(ov.to1.images[v]) for v in ov.U2.variables},
        }


def p1_scheme() -> TwoChartScheme:
    """The projective line over QQ: charts QQ[t], QQ[s], overlap t = 1/s."""
    A1 = PolyRing(QQ, ["t"])
    A2 = PolyRing(QQ, ["s"])
    return TwoChartScheme.affine(
        A1, A2, "t", "s", "ti", "si",
        to2_images={"t": "si", "ti": "s"},
        to1_images={"s": "ti", "si": "t"},
    )


# ---------------------------------------------------------------------------
# glued modules


@dataclass
class SelfGlueTau:
    fwd_stage: int
    fwd: ModuleMap      # J^{(x)fwd_stage} (x) m1 -> m2
    bwd_stage: int
    bwd: ModuleMap      # J^{(x)bwd_stage} (x) m2 -> m1


class GluedModule:
    def __init__(self, scheme: TwoChartScheme, m1: PresentedModule,
                 m2: PresentedModule, tau, tau_inv=None, validate: bool = True):
        self.scheme = scheme
        self.m1 = m1
        self.m2 = m2
        if m1.ring != scheme.chart1 or m2.ring != scheme.chart2:
            raise RingMismatchError("chart pieces must live over the chart rings")
        if scheme.kind == "affine":
            ov = scheme.overlap
            self.m1_overlap = base_change_module(m1, ov.incl1)
            self.m2_overlap = base_change_module(m2, ov.chart2_to_U1)
            self.tau = self._as_overlap_map(tau, self.m2_overlap, self.m1_overlap)
            self.tau_inv = self._as_overlap_map(tau_inv, self.m1_overlap, self.m2_overlap)
            if validate:
                if not self.tau.compose(self.tau_inv).equals(ModuleMap.identity(self.m1_overlap)) \
                        or not self.tau_inv.compose(self.tau).equals(ModuleMap.identity(self.m2_overlap)):
                    raise TauNotInvertibleError("overlap maps are not mutually inverse")
        else:
            if not isinstance(tau, SelfGlueTau):
                raise AlgebraError("selfglue modules take a SelfGlueTau")
            self.tau = tau
            self.tau_inv = None
            if validate:
                self._validate_selfglue()

    def _as_overlap_map(self, data, source, target) -> ModuleMap:
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

    def _validate_selfglue(self):
        J = self.scheme.idal
        t = self.tau
        a, b = t.fwd_stage, t.bwd_stage
        # bwd . (J^b (x) fwd) must equal the collapse J^{a+b} (x) m1 -> m1
        left = J.then(t.bwd, b, t.fwd, a, self.m1)
        if not left.equals(J.collapse(self.m1, a + b, 0)):
            raise TauNotInvertibleError("selfglue overlap elements are not mutually inverse")
        right = J.then(t.fwd, a, t.bwd, b, self.m2)
        if not right.equals(J.collapse(self.m2, a + b, 0)):
            raise TauNotInvertibleError("selfglue overlap elements are not mutually inverse")

    def serialize(self):
        out = {"m1": self.m1.to_json(), "m2": self.m2.to_json()}
        if self.scheme.kind == "affine":
            out["tau"] = [[str(x) for x in row] for row in self.tau.matrix]
            out["tau_inv"] = [[str(x) for x in row] for row in self.tau_inv.matrix]
        else:
            out["tau"] = {
                "fwd_stage": self.tau.fwd_stage,
                "fwd": [[str(x) for x in row] for row in self.tau.fwd.matrix],
                "bwd_stage": self.tau.bwd_stage,
                "bwd": [[str(x) for x in row] for row in self.tau.bwd.matrix],
            }
        return out


def glue(m1: PresentedModule, m2: PresentedModule, tau_data, scheme: TwoChartScheme,
         tau_inv_data=None) -> GluedModule:
    """Validate overlap data and build the triple; raises
    TauNotWellDefinedError / TauNotInvertibleError on bad data."""
    return GluedModule(scheme, m1, m2, tau_data, tau_inv_data)


def o_glued(scheme: TwoChartScheme) -> GluedModule:
    O1 = unit_module(scheme.chart1)
    O2 = unit_module(scheme.chart2)
    if scheme.kind == "affine":
        one = [["1"]]
        return GluedModule(scheme, O1, O2, one, one)
    J = scheme.idal
    one = [[scheme.chart1.one()]]
    fwd = ModuleMap(J.stage_source(0, O1), O2, one, check=False)
    bwd = ModuleMap(J.stage_source(0, O2), O1, one, check=False)
    return GluedModule(scheme, O1, O2, SelfGlueTau(0, fwd, 0, bwd))


class GluedMap:
    """A pair of chart maps compatible over the overlap."""

    def __init__(self, source: GluedModule, target: GluedModule,
                 c1: ModuleMap, c2: ModuleMap, validate: bool = True):
        if source.scheme != target.scheme:
            raise AlgebraError("glued map between different schemes")
        self.source = source
        self.target = target
        self.c1 = c1
        self.c2 = c2
        if validate and not self.is_compatible():
            raise WellDefinednessError("chart maps are not compatible over the overlap")

    def is_compatible(self) -> bool:
        G, H = self.source, self.target
        if G.scheme.kind == "affine":
            ov = G.scheme.overlap
            c1o = base_change_map(self.c1, ov.incl1, G.m1_overlap, H.m1_overlap)
            c2o = base_change_map(self.c2, ov.chart2_to_U1, G.m2_overlap, H.m2_overlap)
            return H.tau.compose(c2o).equals(c1o.compose(G.tau))
        J = G.scheme.idal
        a, b = G.tau.fwd_stage, H.tau.fwd_stage
        N = max(a, b)
        lhs = J.restage(self.c2.compose(G.tau.fwd), G.m1, a, N)
        rhs = J.restage(J.then(H.tau.fwd, b, self.c1, 0, G.m1), G.m1, b, N)
        return lhs.equals(rhs)

    def compose(self, other: "GluedMap") -> "GluedMap":
        return GluedMap(other.source, self.target,
                        self.c1.compose(other.c1), self.c2.compose(other.c2),
                        validate=False)

    def equals(self, other: "GluedMap") -> bool:
        return self.c1.equals(other.c1) and self.c2.equals(other.c2)

    @staticmethod
    def identity(G: GluedModule) -> "GluedMap":
        return GluedMap(G, G, ModuleMap.identity(G.m1), ModuleMap.identity(G.m2),
                        validate=False)

    def is_chartwise_surjective(self) -> bool:
        C1, _ = cokernel(self.c1)
        C2, _ = cokernel(self.c2)
        return C1.is_zero_module() and C2.is_zero_module()


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
        J = scheme.idal
        a = max(g.tau.fwd_stage for g in summands)
        b = max(g.tau.bwd_stage for g in summands)
        fwd = _blockdiag_selfglue(scheme, [g.m1 for g in summands], [g.m2 for g in summands],
                                  [(g.tau.fwd_stage, g.tau.fwd) for g in summands], a, S1, S2)
        bwd = _blockdiag_selfglue(scheme, [g.m2 for g in summands], [g.m1 for g in summands],
                                  [(g.tau.bwd_stage, g.tau.bwd) for g in summands], b, S2, S1)
        G = GluedModule(scheme, S1, S2, SelfGlueTau(a, fwd, b, bwd), validate=False)
    incls = []
    for k, g in enumerate(summands):
        incls.append(GluedMap(g, G, incls1[k], incls2[k], validate=False))
    return G, incls


def _blockdiag_selfglue(scheme, sources, targets, staged_maps, N, S_src, S_tgt) -> ModuleMap:
    """Block diagonal of Deligne elements, each pushed to the common stage N."""
    J = scheme.idal
    src = J.stage_source(N, S_src)
    zero = scheme.chart1.zero()
    matrix = [[zero] * src.gens for _ in range(S_tgt.gens)]
    gN = J.carrier_power(N).gens
    src_off = 0
    tgt_off = 0
    for (stage, m), piece_src, piece_tgt in zip(staged_maps, sources, targets):
        pushed = J.restage(m, piece_src, stage, N)
        for r in range(piece_tgt.gens):
            for t in range(gN):
                for j in range(piece_src.gens):
                    matrix[tgt_off + r][t * S_src.gens + (src_off + j)] = \
                        pushed.matrix[r][t * piece_src.gens + j]
        src_off += piece_src.gens
        tgt_off += piece_tgt.gens
    return ModuleMap(src, S_tgt, matrix, check=False)


# ---------------------------------------------------------------------------
# tensor and hom of glued modules


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
    fwd = _selfglue_tensor_element(scheme, G.tau.fwd_stage, G.tau.fwd, G.m1,
                                   H.tau.fwd_stage, H.tau.fwd, H.m1, T1, T2)
    bwd = _selfglue_tensor_element(scheme, G.tau.bwd_stage, G.tau.bwd, G.m2,
                                   H.tau.bwd_stage, H.tau.bwd, H.m2, T2, T1)
    return GluedModule(scheme, T1, T2,
                       SelfGlueTau(G.tau.fwd_stage + H.tau.fwd_stage, fwd,
                                   G.tau.bwd_stage + H.tau.bwd_stage, bwd),
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
    return paired.compose(ModuleMap(J.stage_source(a + b, MaMb), paired.source,
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


def _hom_overlap_map(hom_src, src_to_U1: RingHom, hom_tgt, tgt_to_U1: RingHom,
                     pre: ModuleMap, post: ModuleMap):
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
        cols.append(incl_bc.lift(hom_tgt._flatten_map(post.compose(phi).compose(pre))))
        if cols[-1] is None:
            raise AlgebraError("hom base change failed to lift (overlap hom mismatch)")
    return ModuleMap.from_columns(src_mod, tgt_mod, cols).matrix


def _hom_glued_selfglue(G, H, hom1, hom2, n_max: int) -> GluedModule:
    J = G.scheme.idal
    fwd = _conjugate_hom_element(J, hom1, hom2, G.m2, H.m2,
                                 G.tau.bwd, G.tau.bwd_stage,
                                 H.tau.fwd, H.tau.fwd_stage)
    bwd = _conjugate_hom_element(J, hom2, hom1, G.m1, H.m1,
                                 G.tau.fwd, G.tau.fwd_stage,
                                 H.tau.bwd, H.tau.bwd_stage)
    return GluedModule(G.scheme, hom1.module, hom2.module,
                       SelfGlueTau(G.tau.bwd_stage + H.tau.fwd_stage, fwd,
                                   G.tau.fwd_stage + H.tau.bwd_stage, bwd),
                       validate=False)


def _conjugate_hom_element(J: Idal, hom_src, hom_tgt, A: PresentedModule,
                           D: PresentedModule, pre: ModuleMap, p: int,
                           post: ModuleMap, q: int) -> ModuleMap:
    """J^{(x)(p+q)} (x) Hom(B, C) -> Hom(A, D) sending t (x) h to the slice of
    post . (id (x) (h . pre)) at t, where pre : J^p (x) A -> B and
    post : J^q (x) C -> D."""
    c = p + q
    src = J.stage_source(c, hom_src.module)
    zero = A.ring.zero()
    matrix = [[zero] * src.gens for _ in range(hom_tgt.module.gens)]
    gC = J.carrier_power(c).gens
    for k in range(hom_src.module.gens):
        h = hom_src.generator_map(k)
        step = h.compose(pre)         # J^p (x) A -> C
        full = J.then(post, q, step, p, A)
        for t in range(gC):
            sub = [[full.matrix[r][t * A.gens + j] for j in range(A.gens)]
                   for r in range(D.gens)]
            phi = ModuleMap(A, D, sub, check=False)
            coords = hom_tgt.express(phi)
            for r in range(hom_tgt.module.gens):
                matrix[r][t * hom_src.module.gens + k] = coords[r]
    return ModuleMap(src, hom_tgt.module, matrix, check=False)


# ---------------------------------------------------------------------------
# global sections


@dataclass
class SectionsResult:
    kind: str                      # "affine" or "selfglue"
    total: int | None              # window dimension (affine)
    by_degree: dict | None         # overlap-degree table when gradings allow
    module: PresentedModule | None # the sections module (selfglue)


def _window_candidates(M: PresentedModule, bound: int):
    """(generator, monomial, degree) triples spanning the window |deg| <= bound."""
    shifts = M.grading if M.grading is not None else (0,) * M.gens
    out = []
    for i in range(M.gens):
        for d in range(-bound, bound + 1):
            for m in monomials_of_degree(M.ring, d - shifts[i]):
                out.append((i, m, d))
    return out


def _candidate_columns(M: PresentedModule, cands):
    """The column of monomial m at generator i, for each candidate (i, m, d)."""
    return [tuple(M.ring.monomial(m) * p for p in M.unit_column(i)) for i, m, _ in cands]


def _nullity(module: PresentedModule, columns) -> int:
    """Dimension of the base-field relations among the columns' images in
    the module."""
    return len(columns) - linalg.rank(module.coordinates(columns), module.ring.field)


def global_sections(G: GluedModule, degree_bound: int = 6, n_max: int = 8) -> SectionsResult:
    """Sections of a glued module.

    Affine: the equalizer of windowed chart sections inside the overlap,
    by exact linear algebra on monomials of bounded weighted degree.
    SelfGlue: the pullback of the two units over the stabilized reflector
    value (an error if the chain does not stabilize within n_max).
    """
    if G.scheme.kind == "selfglue":
        return _selfglue_sections(G, degree_bound, n_max)
    ov = G.scheme.overlap
    cands1 = _window_candidates(G.m1, degree_bound)
    cands2 = _window_candidates(G.m2, degree_bound)
    chart1 = _candidate_columns(G.m1, cands1)
    chart2 = _candidate_columns(G.m2, cands2)
    cols1 = list(ov.incl1.apply_matrix(chart1))
    cols2 = [G.tau.apply_column(c) for c in ov.chart2_to_U1.apply_matrix(chart2)]
    total = (_nullity(G.m1_overlap, cols1 + cols2)
             - _nullity(G.m1, chart1) - _nullity(G.m2, chart2))
    by_degree = _sections_degree_table(G, ((cands1, chart1, cols1), (cands2, chart2, cols2)))
    return SectionsResult("affine", total, by_degree, None)


def _sections_degree_table(G, sides):
    """Per-overlap-degree dimensions when everything in sight is graded;
    sides holds (candidates, chart columns, overlap columns) per chart."""
    mov = G.m1_overlap
    if mov.grading is None or G.m1.grading is None or G.m2.grading is None:
        return None
    groups: dict = {}
    for side, (cands, chart_cols, cols) in enumerate(sides):
        for cand, chart_col, col in zip(cands, chart_cols, cols):
            d = column_degree(mov.ring, col, mov.grading)
            if d is None:
                return None
            if d == "zero":
                # degenerate candidate: group by its nominal chart degree
                d = cand[2]
            group = groups.setdefault(d, ([], [], []))
            group[side].append(chart_col)
            group[2].append(col)
    table = {}
    for d in sorted(groups):
        c1, c2, overlap = groups[d]
        dim = _nullity(mov, overlap) - _nullity(G.m1, c1) - _nullity(G.m2, c2)
        if dim:
            table[d] = dim
    return table


def _push_stage_element(chain: HomChain, vecmap: ModuleMap, idx_from: int,
                        idx_to: int) -> ModuleMap:
    """Push a map M -> stage(idx_from).module to stage idx_to (inverting the
    stabilized transitions when pushing down)."""
    if idx_from <= idx_to:
        return chain.composite(idx_from, idx_to).compose(vecmap)
    return invert_iso(chain.composite(idx_to, idx_from)).compose(vecmap)


def _check_selfglue_reflection(r, n_max: int):
    if r.chain.stabilized_at is None:
        raise StabilizationError(
            "selfglue overlap chain did not stabilize within n_max "
            f"= {n_max}; increase the bound")
    if r.chain.saturated:
        raise StabilizationError(
            "selfglue sections require an unsaturated stabilization")


def induced_on_reflections(J: Idal, fwd: ModuleMap, stage_a: int,
                           r_src, r_tgt) -> ModuleMap:
    """The map R(m_src) -> R(m_tgt) induced by a Deligne element
    fwd : J^{(x)a} (x) m_src -> m_tgt (a plain map at stage 0), read off the
    hom chains of the two reflections."""
    n_src = r_src.chain.stabilized_at
    chain_src, chain_tgt = r_src.hom_chain, r_tgt.hom_chain
    hom_src = chain_src.stage(n_src)
    cols = []
    for k in range(hom_src.module.gens):
        psi = chain_src.interpret(n_src, hom_src.module.unit_column(k))
        chi = J.then(fwd, stage_a, psi, n_src, chain_tgt.mid)
        cols.append(chain_tgt.express(n_src + stage_a, chi))
    to_big = ModuleMap.from_columns(hom_src.module, chain_tgt.stage(n_src + stage_a).module,
                                    cols)
    pushed = _push_stage_element(chain_tgt, to_big, n_src + stage_a,
                                 r_tgt.chain.stabilized_at)
    return ModuleMap(r_src.value, r_tgt.value, pushed.matrix, check=False)


def _selfglue_sections(G: GluedModule, degree_bound: int, n_max: int) -> SectionsResult:
    J = G.scheme.idal
    ra = reflect(J, G.m1, n_max)
    rb = reflect(J, G.m2, n_max)
    if (ra.stabilized and rb.stabilized
            and ra.value.is_zero_module() and rb.value.is_zero_module()):
        # both pieces die on the overlap: sections are the plain direct sum
        S = _block_sum(J.ring, [G.m1, G.m2])
        table = None
        if S.grading is not None:
            table = {d: graded_dim(S, d) for d in range(-degree_bound, degree_bound + 1)}
            table = {d: v for d, v in table.items() if v}
        return SectionsResult("selfglue", None, table, S)
    _check_selfglue_reflection(ra, n_max)
    _check_selfglue_reflection(rb, n_max)
    tau_hat_inv = induced_on_reflections(J, G.tau.bwd, G.tau.bwd_stage, rb, ra)
    b = tau_hat_inv.compose(rb.unit)
    P, p1, p2 = pullback(ra.unit, b)
    by_degree = None
    if P.grading is not None:
        try:
            by_degree = {d: graded_dim(P, d) for d in range(-degree_bound, degree_bound + 1)}
            by_degree = {d: v for d, v in by_degree.items() if v}
        except UngradedError:
            by_degree = None
    return SectionsResult("selfglue", None, by_degree, P)


# ---------------------------------------------------------------------------
# invertibility and duals


def _free_rank_one_witness(M: PresentedModule):
    """An iso O -> M if the module is visibly free of rank one, else None."""
    ring = M.ring
    O = unit_module(ring)
    if M.gens == 0:
        return None
    if M.gens == 1 and not M.relations:
        return ModuleMap(O, M, [["1"]], check=False)
    candidates = [M.unit_column(k) for k in range(M.gens)] + [(ring.one(),) * M.gens]
    for col in candidates:
        m = ModuleMap(O, M, [[c] for c in col], check=False)
        if is_iso(m):
            return m
    return None


def invertible_check(G: GluedModule) -> bool:
    """Chart pieces free of rank 1; when they are, an inverse triple is
    constructed and verified (see inverse_of)."""
    w1 = _free_rank_one_witness(G.m1)
    w2 = _free_rank_one_witness(G.m2)
    if w1 is None or w2 is None:
        return False
    try:
        inverse_of(G)
    except AlgebraError:
        return False
    return True


def _unit_scalar_inverse(ring: PolyRing, u: Poly) -> Poly:
    O = unit_module(ring)
    inv = ModuleMap(O, O, [[u]], check=False).lift((ring.one(),))
    if inv is None:
        raise AlgebraError("overlap scalar is not a unit")
    return inv[0]


def inverse_of(G: GluedModule) -> GluedModule:
    """An explicit inverse triple for a line-bundle-like glued module."""
    w1 = _free_rank_one_witness(G.m1)
    w2 = _free_rank_one_witness(G.m2)
    if w1 is None or w2 is None:
        raise AlgebraError("chart pieces are not free of rank 1")
    scheme = G.scheme
    if scheme.kind == "affine":
        ov = scheme.overlap
        w1o = base_change_map(w1, ov.incl1, unit_module(ov.U1), G.m1_overlap)
        w2o = base_change_map(w2, ov.chart2_to_U1, unit_module(ov.U1), G.m2_overlap)
        u = invert_iso(w1o).compose(G.tau).compose(w2o).matrix[0][0]
        uinv = _unit_scalar_inverse(ov.U1, u)
        inv = GluedModule(scheme, unit_module(scheme.chart1), unit_module(scheme.chart2),
                          [[uinv]], [[u]])
        _verify_inverse(G, inv)
        return inv
    raise AlgebraError("inverse construction implemented for affine overlaps")


def _verify_inverse(G: GluedModule, inv: GluedModule):
    T = tensor_glued(G, inv)
    O = o_glued(G.scheme)
    w1 = _free_rank_one_witness(T.m1)
    w2 = _free_rank_one_witness(T.m2)
    if w1 is None or w2 is None:
        raise AlgebraError("tensor with candidate inverse is not rank-1 free")
    iso = GluedMap(O, T, w1, w2)   # validates overlap compatibility
    if not (is_iso(iso.c1) and is_iso(iso.c2)):
        raise AlgebraError("candidate inverse failed verification")


def dualizable_check(G: GluedModule, dual: GluedModule, unit_map: GluedMap,
                     counit_map: GluedMap) -> bool:
    """Verify the two triangle identities chartwise.

    unit_map : O -> G (x) dual, counit_map : dual (x) G -> O.
    """
    for g, d, unit_c, counit_c in ((G.m1, dual.m1, unit_map.c1, counit_map.c1),
                                   (G.m2, dual.m2, unit_map.c2, counit_map.c2)):
        idg = ModuleMap.identity(g)
        idd = ModuleMap.identity(d)
        # (id_g (x) counit) . (unit (x) id_g) == id_g
        left = tensor_map(unit_c, idg)
        left = ModuleMap(g, left.target, left.matrix, check=False)      # O (x) g == g
        mid = tensor_map(idg, counit_c)
        mid = ModuleMap(left.target, g, mid.matrix, check=False)        # g (x) O == g
        if not mid.compose(left).equals(idg):
            return False
        # (counit (x) id_d) . (id_d (x) unit) == id_d
        left2 = tensor_map(idd, unit_c)
        left2 = ModuleMap(d, left2.target, left2.matrix, check=False)
        mid2 = tensor_map(counit_c, idd)
        mid2 = ModuleMap(left2.target, d, mid2.matrix, check=False)
        if not mid2.compose(left2).equals(idd):
            return False
    return True


def symtrivial_check_glued(G: GluedModule) -> bool:
    """Symtriviality tested chartwise, per the locality of the property."""
    return symtrivial_check(G.m1) and symtrivial_check(G.m2)


def standard_dual_datum(G: GluedModule):
    """(dual, unit, counit) for a glued module with free rank-1 pieces."""
    inv = inverse_of(G)
    O = o_glued(G.scheme)
    T = tensor_glued(G, inv)
    w1 = _free_rank_one_witness(T.m1)
    w2 = _free_rank_one_witness(T.m2)
    unit_map = GluedMap(O, T, w1, w2)
    Tc = tensor_glued(inv, G)
    v1 = invert_iso(_free_rank_one_witness(Tc.m1))
    v2 = invert_iso(_free_rank_one_witness(Tc.m2))
    counit_map = GluedMap(Tc, O, v1, v2)
    return inv, unit_map, counit_map


# ---------------------------------------------------------------------------
# the glue round trip


@dataclass
class RoundtripResult:
    ok: bool
    mode: str            # "exact" or "windowed"
    detail: dict = field(default_factory=dict)

    def __bool__(self):
        return self.ok


def _rho_matrix(I: Idal, J: Idal, N: int, use_first: bool):
    """The matrix of (I (x) J)^{(x)N} -> I^{(x)N}, (id_I (x) e_J)^{(x)N}
    (use_first), or of -> J^{(x)N}, (e_I (x) id_J)^{(x)N}."""
    ring = I.ring
    if use_first:
        step = _kron(ring, _identity_matrix(ring, I.carrier.gens), J.e.matrix)
    else:
        step = _kron(ring, I.e.matrix, _identity_matrix(ring, J.carrier.gens))
    matrix = [[ring.one()]]
    for _ in range(N):
        matrix = _kron(ring, matrix, step)
    return matrix


def roundtrip_check(A: PolyRing, I: Idal, J: Idal, M: PresentedModule,
                    n_max: int = 8, degree_bound: int = 6) -> RoundtripResult:
    """Whether M -> R_I(M) x_{R_{I(x)J}(M)} R_J(M) is an isomorphism.

    Exact when all three reflectors stabilize; otherwise decided by windowed
    dimension comparison against the principal-localization oracles.
    """
    if not cover_check(I, J):
        raise AlgebraError("cover check fails: the idals do not cover")
    IJ = idal_product(I, J)
    rI = reflect(I, M, n_max)
    rJ = reflect(J, M, n_max)
    rIJ = reflect(IJ, M, n_max)
    if rI.stabilized and rJ.stabilized and rIJ.stabilized:
        return _roundtrip_exact(A, I, J, IJ, M, rI, rJ, rIJ, n_max)
    return _roundtrip_windowed(A, I, J, M, degree_bound)


def _roundtrip_exact(A, I, J, IJ, M, rI, rJ, rIJ, n_max) -> RoundtripResult:
    chainI, chainJ, chainIJ = rI.hom_chain, rJ.hom_chain, rIJ.hom_chain
    N = max(rI.chain.stabilized_at, rJ.chain.stabilized_at, rIJ.chain.stabilized_at)
    budget = max(2, n_max - N)

    def saturated_at_N(chain):
        ker = chain.saturated_kernel(N, budget)
        if ker is None:
            raise StabilizationError("saturation did not settle at the common stage")
        return _saturated_stage(chain, N, ker)

    VI, VJ, VIJ = saturated_at_N(chainI), saturated_at_N(chainJ), saturated_at_N(chainIJ)

    def unit_to(chain, V):
        return ModuleMap(M, V, chain.composite(0, N).matrix, check=False)

    uI, uJ, uIJ = unit_to(chainI, VI), unit_to(chainJ, VJ), unit_to(chainIJ, VIJ)

    def comparison(chain_side, V_side, use_first):
        # (I (x) J)^{(x)N} (x) O -> I^{(x)N} (x) O, or onto J^{(x)N} (x) O
        rho = ModuleMap(IJ.stage_source(N, chainIJ.mid),
                        chain_side.J.stage_source(N, chain_side.mid),
                        _rho_matrix(I, J, N, use_first), check=False)
        stage = chain_side.stage(N).module
        cols = [chainIJ.express(N, chain_side.interpret(N, stage.unit_column(k)).compose(rho))
                for k in range(stage.gens)]
        return ModuleMap.from_columns(V_side, VIJ, cols)

    a = comparison(chainI, VI, True)
    b = comparison(chainJ, VJ, False)
    if not a.compose(uI).equals(uIJ) or not b.compose(uJ).equals(uIJ):
        raise AlgebraError("internal: comparison maps do not commute with units")
    P, p1, p2 = pullback(a, b)
    # lift the stacked unit M -> VI (+) VJ through the pullback inclusion
    incl = ModuleMap(P, _block_sum(A, [VI, VJ]), p1.matrix + p2.matrix, check=False)
    cols = [incl.lift(uI.column(j) + uJ.column(j)) for j in range(M.gens)]
    if None in cols:
        return RoundtripResult(False, "exact",
                               {"reason": "unit does not factor through the pullback"})
    ok = is_iso(ModuleMap.from_columns(M, P, cols))
    return RoundtripResult(ok, "exact", {"common_stage": N})


def _principal_generator(I: Idal):
    if I.carrier.gens == 1 and not I.carrier.relations:
        return I.e.matrix[0][0]
    return None


def _roundtrip_windowed(A, I, J, M, bound) -> RoundtripResult:
    f = _principal_generator(I)
    g = _principal_generator(J)
    if f is None or g is None:
        raise StabilizationError(
            "windowed roundtrip requires principal idals when reflectors truncate")
    Bf, hf, _ = localized_ring(A, f, "locf")
    Bg, hg, _ = localized_ring(A, g, "locg")
    Bfg, to_fg_from_f, _ = localized_ring(Bf, hf.apply(g), "locg")
    Mf = base_change_module(M, hf)
    Mg = base_change_module(M, hg)
    Mfg = base_change_module(Mf, to_fg_from_f)
    to_fg_from_g = RingHom(Bg, Bfg, {**{v: v for v in A.variables}, "locg": "locg"})

    colsM = _candidate_columns(M, _window_candidates(M, bound))
    colsF = _candidate_columns(Mf, _window_candidates(Mf, bound))
    colsG = _candidate_columns(Mg, _window_candidates(Mg, bound))

    # dimension of the windowed pullback inside Mf (+) Mg
    fg_cols = to_fg_from_f.apply_matrix(colsF) + to_fg_from_g.apply_matrix(colsG)
    dimW = _nullity(Mfg, fg_cols) - _nullity(Mf, colsF) - _nullity(Mg, colsG)

    # rank and injectivity of the windowed image of M in Mf (+) Mg
    rowsF = Mf.coordinates(hf.apply_matrix(colsM))
    rowsG = Mg.coordinates(hg.apply_matrix(colsM))
    rk_img = linalg.rank([rf + rg for rf, rg in zip(rowsF, rowsG)], A.field)
    injective = (len(colsM) - rk_img) == _nullity(M, colsM)
    ok = injective and (rk_img == dimW)
    return RoundtripResult(ok, "windowed",
                           {"window_dim_pullback": dimW, "window_rank_image": rk_img,
                            "injective_on_window": injective})


# ---------------------------------------------------------------------------
# chart idals and idal generation


def _oriented(chart: int, a, b):
    """(a, b) for chart 1 and (b, a) for chart 2: turns a pair in chart
    order into (this chart's, the other chart's), and back."""
    return (a, b) if chart == 1 else (b, a)


def chart_idal(scheme: TwoChartScheme, which: int, power: int = 1):
    """(L, e) with L the glued module of the chart idal (to the given tensor
    power) and e : L -> O_glued its structure map.  L is O on chart `which`,
    where e is the identity, and the power of the idal cut out by the chart's
    complement on the other chart."""
    if which not in (1, 2):
        raise AlgebraError("chart index must be 1 or 2")
    O = o_glued(scheme)
    if scheme.kind == "affine":
        ov = scheme.overlap
        O1, O2 = unit_module(scheme.chart1), unit_module(scheme.chart2)
        near, far = _oriented(which, O1, O2)
        # e is f^power on the far chart, so tau = e2 / e1 over U1
        u, u_inv = ov.f_in_U1(3 - which)
        L = GluedModule(scheme, O1, O2, *_oriented(which, [[u ** power]], [[u_inv ** power]]))
        f = _oriented(which, ov.f1, ov.f2)[1]
        e_far = ModuleMap(far, far, [[f ** power]], check=False)
    else:
        J = scheme.idal
        near, far = unit_module(scheme.chart1), J.carrier_power(power)
        # overlap data: J^power (x) O -> J^power is the identity on generators,
        # and J^power (x) J^power -> O applies e at all 2 * power slots
        to_far = ModuleMap(J.stage_source(power, near), far,
                           _identity_matrix(near.ring, far.gens), check=False)
        to_near = ModuleMap(J.stage_source(power, far), near, J.power_map(2 * power).matrix,
                            check=False)
        fwd, bwd = _oriented(which, to_far, to_near)
        L = GluedModule(scheme, *_oriented(which, near, far), SelfGlueTau(power, fwd, power, bwd))
        e_far = ModuleMap(far, near, J.power_map(power).matrix, check=False)
    return L, GluedMap(L, O, *_oriented(which, ModuleMap.identity(near), e_far))


@dataclass
class GenerationBlock:
    chart: int
    power: int
    map: GluedMap


@dataclass
class GenerationResult:
    blocks: list
    source: GluedModule
    map: GluedMap
    verified: bool


def _affine_extension_power(G: GluedModule, chart: int, gen_index: int, n_max: int):
    """Smallest k such that h^k x comes from the other chart's piece, for x
    the chart's generator gen_index carried across the overlap and h the
    other chart's f, together with that column over the other chart; raises
    when n_max is insufficient.  Chart 1 computes over U1, chart 2 over U2
    (tau and h carried there along to2)."""
    ov = G.scheme.overlap
    h, _ = ov.f_in_U1(3 - chart)
    if chart == 1:
        cross, back, inv = G.tau_inv, ov.to2, ov.inv2
    else:
        cross, back, inv, h = base_change_map(G.tau, ov.to2), ov.to1, ov.inv1, ov.to2.apply(h)
    base = cross.apply_column(cross.source.unit_column(gen_index))
    ring = _oriented(chart, G.m1, G.m2)[1].ring
    inv_index = back.dst.variables.index(inv)
    for k in range(n_max + 1):
        scaled = tuple(p * (h ** k) for p in base)
        images = [back.apply(p) for p in cross.target.normal_form(scaled)]
        if all(all(e[inv_index] == 0 for e in p.terms) for p in images):
            return k, tuple(
                Poly(ring, ring.reduce_terms({e[:inv_index] + e[inv_index + 1:]: c
                                              for e, c in p.terms.items()}))
                for p in images)
    raise StabilizationError(
        f"extension of chart-{chart} generator {gen_index} did not clear its "
        f"denominators within n_max = {n_max} (failing chart: {3 - chart})")


def idal_generation(G: GluedModule, n_max: int = 8) -> GenerationResult:
    """A verified epimorphism onto G from a direct sum of tensor powers of the
    scheme's chart idals, built by extending chart generators across."""
    scheme = G.scheme
    blocks = []
    for chart in (1, 2):
        near, far = _oriented(chart, G.m1, G.m2)
        for gidx in range(near.gens):
            if scheme.kind == "affine":
                k, col = _affine_extension_power(G, chart, gidx, n_max)
            else:
                k, step = (G.tau.fwd_stage, G.tau.fwd) if chart == 1 \
                    else (G.tau.bwd_stage, G.tau.bwd)
            L = chart_idal(scheme, chart, k)[0] if k else o_glued(scheme)
            L_near, L_far = _oriented(chart, L.m1, L.m2)
            unit = ModuleMap(L_near, near, [[p] for p in near.unit_column(gidx)], check=False)
            if scheme.kind == "affine":
                matrix = [[p] for p in col]
            else:
                # J^k (x) O -> far, read on L_far = J^k
                matrix = scheme.idal.then(step, k, unit, 0, L_near).matrix
            other = ModuleMap(L_far, far, matrix, check=False)
            blocks.append(GenerationBlock(chart, k,
                                          GluedMap(L, G, *_oriented(chart, unit, other))))
    if not blocks:
        raise AlgebraError("module has no generators to hit")
    D, _ = direct_sum_glued([blk.map.source for blk in blocks])
    c1 = _stack_chart_maps([blk.map.c1 for blk in blocks], G.m1)
    c2 = _stack_chart_maps([blk.map.c2 for blk in blocks], G.m2)
    combined = GluedMap(D, G, c1, c2, validate=False)
    verified = combined.is_chartwise_surjective()
    if not verified:
        raise AlgebraError("constructed map is not surjective (internal)")
    return GenerationResult(blocks, D, combined, True)


def _stack_chart_maps(maps, target: PresentedModule) -> ModuleMap:
    """The maps side by side, out of the block sum of their sources."""
    matrix = [sum(rows, ()) for rows in zip(*(m.matrix for m in maps))]
    return ModuleMap(_block_sum(target.ring, [m.source for m in maps]), target, matrix,
                     check=False)


# ---------------------------------------------------------------------------
# the projective line


def p1_standard(n: int, scheme: TwoChartScheme | None = None) -> GluedModule:
    """O(n) on the projective line: tau = multiplication by t^n over U1."""
    scheme = scheme or p1_scheme()
    ov = scheme.overlap
    t = ov.U1.var("t")
    ti = ov.U1.var("ti")
    tau = [[t ** n if n >= 0 else ti ** (-n)]]
    tau_inv = [[ti ** n if n >= 0 else t ** (-n)]]
    O1 = unit_module(scheme.chart1)
    O2 = unit_module(scheme.chart2)
    return GluedModule(scheme, O1, O2, tau, tau_inv)


def p1_sections_oracle(n: int) -> int:
    """Monomial count for sections of O(n): the t^k with 0 <= k <= n."""
    return max(n + 1, 0)


# ---------------------------------------------------------------------------
# classification-datum checkers


@dataclass
class CheckReport:
    clauses: dict

    @property
    def ok(self) -> bool:
        return all(self.clauses.values())


@dataclass
class LineBundleDatum:
    L: GluedModule
    cover_maps: tuple   # two GluedMaps L -> O_glued


def projline_datum_check(datum: LineBundleDatum) -> CheckReport:
    """Both cover maps from the SAME line object, covering chartwise."""
    L = datum.L
    m1_free = _free_rank_one_witness(L.m1) is not None
    m2_free = _free_rank_one_witness(L.m2) is not None
    clauses = {"rank_one_chart1": m1_free, "rank_one_chart2": m2_free}
    e1, e2 = datum.cover_maps
    clauses["maps_from_same_object"] = e1.source is L and e2.source is L
    clauses.update(_cover_clauses(L.scheme, datum.cover_maps))
    return CheckReport(clauses)


def _cover_clauses(scheme: TwoChartScheme, maps) -> dict:
    """cover_chart1 / cover_chart2: whether the nonzero entries of the maps'
    chart matrices generate the unit ideal of that chart."""
    clauses = {}
    for key, ring, chart_maps in (("cover_chart1", scheme.chart1, [e.c1 for e in maps]),
                                  ("cover_chart2", scheme.chart2, [e.c2 for e in maps])):
        gens = [p for c in chart_maps for row in c.matrix for p in row if not p.is_zero()]
        clauses[key] = bool(gens) and ring.contains_one(gens)
    return clauses


def doubleorigin_datum_check(l_map: GluedMap, lstar_map: GluedMap,
                             unit_map: GluedMap, counit_map: GluedMap) -> CheckReport:
    """Cover maps from L and a verified dual L*."""
    L = l_map.source
    Lstar = lstar_map.source
    clauses = {
        "rank_one_L": _free_rank_one_witness(L.m1) is not None
                      and _free_rank_one_witness(L.m2) is not None,
        "dual_verified": dualizable_check(L, Lstar, unit_map, counit_map),
    }
    clauses.update(_cover_clauses(L.scheme, (l_map, lstar_map)))
    return CheckReport(clauses)


def doubleorigin2_datum_check(J1: Idal, J2: Idal, p: ModuleMap) -> CheckReport:
    """Cover + exactness: p : O^2 -> J1 (x) J2 is a cokernel of (y; -x) where
    (x, y) is the composite O^2 -> J1 (x) J2 -> O."""
    ring = J1.ring
    clauses = {"cover": cover_check(J1, J2)}
    prod = idal_product(J1, J2)
    if p.source.gens != 2 or p.target != prod.carrier:
        raise AlgebraError("datum must map O^2 to the product carrier")
    comp = prod.e.compose(p)
    x, y = comp.matrix[0][0], comp.matrix[0][1]
    # p surjective
    C, _ = cokernel(p)
    clauses["surjective"] = C.is_zero_module()
    # kernel of p equals the span of (y, -x) in the free module O^2
    K, incl = kernel(p)
    syzygy = ModuleMap(unit_module(ring), free_module(ring, 2), [[y], [-x]], check=False)
    in_kernel = prod.carrier.contains_column(p.apply_column(syzygy.column(0)))
    span_ok = all(syzygy.lift(incl.column(j)) is not None for j in range(K.gens))
    clauses["kernel_generated_by_syzygy"] = bool(in_kernel and span_ok)
    return CheckReport(clauses)
