"""Quasi-coherent modules on two-chart schemes as gluing triples.

Both flavours of scheme glue along the localization at an overlap idal J;
the overlap data of a glued module are mutually inverse Deligne elements of
J between its chart pieces carried to the overlap.

* Affine: two affine charts glued along principal localizations, with the
  transition given by an explicit ring isomorphism both ways.  The overlap
  is the ring U1 = A1[f1^-1] itself, J its unit idal and every stage 0, so
  the data are inverse maps over U1 (a Serre twist O(n) on the projective
  line has tau = multiplication by t^n, from the chart-2 piece).
* SelfGlue: one ring glued to itself along the locus of an idal J; the
  overlap pieces are the chart pieces.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    AlgebraError,
    LiftError,
    RingMismatchError,
    StabilizationError,
    TauNotInvertibleError,
    TauNotWellDefinedError,
    UngradedError,
    WellDefinednessError,
)
from .fpmod import (
    ModuleMap,
    PresentedModule,
    _block_sum,
    _check_shape,
    _equal_into,
    _identity_matrix,
    _kron,
    _matmul,
    base_change_map,
    base_change_module,
    column_degree,
    column_rank,
    cokernel,
    direct_sum,
    free_module,
    graded_dims,
    hom_module,
    is_iso,
    invert_iso,
    kernel,
    pullback,
    symtrivial_check,
    tensor,
    unit_module,
)
from .idal import Idal, cover_check, idal_product
from .localize import _saturated_stage, localized_ring, reflect
from .polyring import Poly, PolyRing, QQ, RingHom, monomials_in_window


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
        for U, there, back in ((self.U1, self.to2, self.to1), (self.U2, self.to1, self.to2)):
            for v in U.variables:
                if back.apply(there.apply(U.var(v))) != U.var(v):
                    raise AlgebraError(f"transition maps do not compose to the identity at {v}")
        self.chart2_to_U1 = self.to1.compose(self.incl2)

    def f_in_U1(self, chart: int):
        """The chart's f and its inverse, as elements of U1."""
        if chart == 1:
            return self.incl1.apply(self.f1), self.f1_inverse
        return self.chart2_to_U1.apply(self.f2), self.to1.apply(self.f2_inverse)


class TwoChartScheme:
    """Either two affine charts with an affine overlap, or one ring glued to
    itself along an idal.  Both carry the overlap idal `idal` (the unit idal
    of U1 when affine) and `to_overlap`, per chart the ring map carrying
    chart pieces to the overlap (None when self-glued)."""

    def __init__(self, kind: str, chart1: PolyRing, chart2: PolyRing,
                 overlap: AffineOverlap | None = None, idal: Idal | None = None):
        if kind not in ("affine", "selfglue"):
            raise AlgebraError("scheme kind must be 'affine' or 'selfglue'")
        self.kind = kind
        self.chart1 = chart1
        self.chart2 = chart2
        self.overlap = overlap
        if kind == "affine":
            if overlap is None:
                raise AlgebraError("affine scheme requires overlap data")
            self.idal = Idal.identity(overlap.U1)
            self.to_overlap = (overlap.incl1, overlap.chart2_to_U1)
        else:
            if idal is None or chart1 != chart2:
                raise AlgebraError("selfglue scheme requires one ring and an idal")
            self.idal = idal
            self.to_overlap = (None, None)

    @staticmethod
    def affine(chart1: PolyRing, chart2: PolyRing, f1, f2, inv1, inv2,
               to2_images, to1_images) -> "TwoChartScheme":
        ov = AffineOverlap(chart1, chart2, f1, f2, inv1, inv2, to2_images, to1_images)
        return TwoChartScheme("affine", chart1, chart2, overlap=ov)

    @staticmethod
    def selfglue(ring: PolyRing, J: Idal) -> "TwoChartScheme":
        return TwoChartScheme("selfglue", ring, ring, idal=J)

    def overlap_piece(self, chart: int, M: PresentedModule) -> PresentedModule:
        """A module over the chart's ring carried to the overlap."""
        h = self.to_overlap[chart - 1]
        return M if h is None else base_change_module(M, h)

    def overlap_map(self, chart: int, phi: ModuleMap, source: PresentedModule,
                    target: PresentedModule) -> ModuleMap:
        """A map over the chart's ring carried to the overlap, between the
        given overlap pieces of its source and target."""
        h = self.to_overlap[chart - 1]
        return phi if h is None else base_change_map(phi, h, source, target)

    def __eq__(self, other):
        if self is other:
            return True
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


class OverlapDatum(NamedTuple):
    """The overlap data of a glued module: Deligne elements of the scheme's
    overlap idal J between its overlap pieces, mutually inverse up to the
    collapse J^{(x)(fwd_stage + bwd_stage)} -> O.  Each is the matrix of
    its staged map (see `Idal`), with Poly entries over the overlap ring."""
    fwd_stage: int
    fwd: list | tuple      # rows of J^{(x)fwd_stage} (x) m1_overlap -> m2_overlap
    bwd_stage: int
    bwd: list | tuple      # rows of J^{(x)bwd_stage} (x) m2_overlap -> m1_overlap


# the name under which self-glued modules take their datum
SelfGlueTau = OverlapDatum


def _entries(matrix):
    return [[str(x) for x in row] for row in matrix]


class GluedModule:
    """Chart pieces m1, m2 glued by one OverlapDatum `datum` between their
    overlap pieces m1_overlap, m2_overlap.  An affine module may be given
    matrices over U1 instead, tau : m2_overlap -> m1_overlap and tau_inv,
    the datum's bwd and fwd, which stay readable as the maps `.tau` and
    `.tau_inv`; a self-glued module's `.tau` is its datum."""

    def __init__(self, scheme: TwoChartScheme, m1: PresentedModule,
                 m2: PresentedModule, tau, tau_inv=None, validate: bool = True):
        self.scheme = scheme
        self.m1 = m1
        self.m2 = m2
        if m1.ring != scheme.chart1 or m2.ring != scheme.chart2:
            raise RingMismatchError("chart pieces must live over the chart rings")
        m1o = self.m1_overlap = scheme.overlap_piece(1, m1)
        m2o = self.m2_overlap = scheme.overlap_piece(2, m2)
        if not isinstance(tau, OverlapDatum):
            if scheme.kind != "affine":
                raise AlgebraError("selfglue modules take a SelfGlueTau")
            bwd = self._overlap_matrix(tau, m2o, m1o)
            tau = OverlapDatum(0, self._overlap_matrix(tau_inv, m1o, m2o), 0, bwd)
        self.datum = tau
        self.tau, self.tau_inv = (tau, None) if scheme.kind == "selfglue" else \
            (ModuleMap(m2o, m1o, tau.bwd, check=False), ModuleMap(m1o, m2o, tau.fwd, check=False))
        if validate:
            self._validate()

    @staticmethod
    def _overlap_matrix(data, source, target):
        """The matrix of a well-defined map source -> target over U1."""
        if data is None:
            raise TauNotInvertibleError("overlap data must include both directions")
        if data == [] or data == ():
            # convenient zero overlap for degenerate (zero-module) charts
            data = [[source.ring.zero()] * source.gens for _ in range(target.gens)]
        try:
            return ModuleMap(source, target, data, check=True).matrix
        except WellDefinednessError as exc:
            raise TauNotWellDefinedError(str(exc)) from exc

    def _validate(self):
        """fwd and bwd must have the shapes of their stages, and
        bwd . (J^b (x) fwd) and fwd . (J^a (x) bwd) must be the collapses
        J^{(x)(a+b)} (x) m -> m of the two overlap pieces."""
        J, one, two = self.scheme.idal, self.out_of(1), self.out_of(2)
        for (a, first, M), (b, second, N) in ((one, two), (two, one)):
            _check_shape(first, N.gens, J.power_gens(a) * M.gens)
            _check_shape(second, M.gens, J.power_gens(b) * N.gens)
            if not _equal_into(M, J.then(second, b, first, a, M), J.collapse(M, a + b, 0)):
                raise TauNotInvertibleError("overlap maps are not mutually inverse")

    def out_of(self, chart: int):
        """(stage, map, piece): the datum's staged map out of the chart's
        overlap piece, fwd for chart 1 and bwd for chart 2."""
        d = self.datum
        return _oriented(chart, (d.fwd_stage, d.fwd, self.m1_overlap),
                         (d.bwd_stage, d.bwd, self.m2_overlap))[0]

    def serialize(self):
        out = {"m1": self.m1.to_json(), "m2": self.m2.to_json()}
        if self.scheme.kind == "affine":
            out["tau"] = _entries(self.tau.matrix)
            out["tau_inv"] = _entries(self.tau_inv.matrix)
        else:
            d = self.datum
            out["tau"] = {"fwd_stage": d.fwd_stage, "fwd": _entries(d.fwd),
                          "bwd_stage": d.bwd_stage, "bwd": _entries(d.bwd)}
        return out


def glue(m1: PresentedModule, m2: PresentedModule, tau_data, scheme: TwoChartScheme,
         tau_inv_data=None) -> GluedModule:
    """Validate overlap data and build the triple; raises
    TauNotWellDefinedError / TauNotInvertibleError on bad data."""
    return GluedModule(scheme, m1, m2, tau_data, tau_inv_data)


def o_glued(scheme: TwoChartScheme) -> GluedModule:
    one = ((scheme.idal.ring.one(),),)
    return GluedModule(scheme, unit_module(scheme.chart1), unit_module(scheme.chart2),
                       OverlapDatum(0, one, 0, one))


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
        """Whether c2 . fwd_G and fwd_H . (J (x) c1) agree on the overlap,
        both restaged to the larger of the two forward stages."""
        G, H = self.source, self.target
        scheme, J = G.scheme, G.scheme.idal
        c1 = scheme.overlap_map(1, self.c1, G.m1_overlap, H.m1_overlap)
        c2 = scheme.overlap_map(2, self.c2, G.m2_overlap, H.m2_overlap)
        (a, f, M), (b, g, _) = G.out_of(1), H.out_of(1)
        N = max(a, b)
        lhs = J.restage(J.then(c2.matrix, 0, f, a, M), M, a, N)
        rhs = J.restage(J.then(g, b, c1.matrix, 0, M), M, b, N)
        return _equal_into(H.m2_overlap, lhs, rhs)

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
    fwd = _block_diagonal(scheme.idal, [g.out_of(1) for g in summands])
    bwd = _block_diagonal(scheme.idal, [g.out_of(2) for g in summands])
    G = GluedModule(scheme, S1, S2, OverlapDatum(*fwd, *bwd), validate=False)
    incls = [GluedMap(g, G, incls1[k], incls2[k], validate=False)
             for k, g in enumerate(summands)]
    return G, incls


def _block_diagonal(J: Idal, staged):
    """(N, D) with D : J^{(x)N} (x) S_src -> S_tgt the block diagonal of the
    staged maps (stage, f : J^{(x)stage} (x) M -> T, M), each restaged to
    the largest stage N, for S_src and S_tgt the direct sums of the M and
    of the T."""
    N = max(stage for stage, _, _ in staged)
    gN, width = J.power_gens(N), sum(M.gens for _, _, M in staged)
    zero = J.ring.zero()
    matrix = []
    src_off = 0
    for stage, f, M in staged:
        for pushed in J.restage(f, M, stage, N):
            row = [zero] * (gN * width)
            for t in range(gN):
                row[t * width + src_off:t * width + src_off + M.gens] = \
                    pushed[t * M.gens:(t + 1) * M.gens]
            matrix.append(row)
        src_off += M.gens
    return N, matrix


# ---------------------------------------------------------------------------
# tensor and hom of glued modules


def tensor_glued(G: GluedModule, H: GluedModule) -> GluedModule:
    if G.scheme != H.scheme:
        raise AlgebraError("tensor of glued modules on different schemes")
    scheme = G.scheme
    T1, T2 = tensor(G.m1, H.m1), tensor(G.m2, H.m2)
    fwd = _tensor_element(scheme.idal, G.out_of(1), H.out_of(1))
    bwd = _tensor_element(scheme.idal, G.out_of(2), H.out_of(2))
    return GluedModule(scheme, T1, T2, OverlapDatum(*fwd, *bwd), validate=False)


def _tensor_element(J: Idal, staged_f, staged_g):
    """(a + b, f (x) g) for staged maps (a, f : J^{(x)a} (x) M -> X, M) and
    (b, g : J^{(x)b} (x) N -> Y, N), as J^{(x)(a+b)} (x) (M (x) N) ->
    X (x) Y: the Kronecker product of f and g, its columns taken from the
    order (J^a, M, J^b, N) to (J^a, J^b, M, N)."""
    (a, f, M), (b, g, N) = staged_f, staged_g
    J.power_gens(a + b)   # the bound of the result's stage
    ga, gb = J.power_gens(a), J.power_gens(b)
    m, n = M.gens, N.gens
    order = [(ta * m + i) * gb * n + tb * n + j
             for ta in range(ga) for tb in range(gb) for i in range(m) for j in range(n)]
    return a + b, [[row[c] for c in order] for row in _kron(J.ring, f, g)]


def hom_glued(G: GluedModule, H: GluedModule) -> GluedModule:
    """Chartwise hom modules glued by conjugation: fwd sends h : G.m1 -> H.m1
    to H.fwd . (J (x) h) . G.bwd, and bwd sends h : G.m2 -> H.m2 to
    H.bwd . (J (x) h) . G.fwd."""
    if G.scheme != H.scheme:
        raise AlgebraError("hom of glued modules on different schemes")
    scheme = G.scheme
    homs = []
    for chart, M, N in ((1, G.m1, H.m1), (2, G.m2, H.m2)):
        hom = hom_module(M, N)
        module, ambient = (scheme.overlap_piece(chart, X) for X in (hom.module, hom.ambient))
        homs.append((hom, module, scheme.overlap_map(chart, hom.incl, module, ambient)))
    fwd, bwd = _conjugation(G, H, 1, homs), _conjugation(G, H, 2, homs)
    return GluedModule(scheme, homs[0][0].module, homs[1][0].module,
                       OverlapDatum(*fwd, *bwd), validate=False)


def _conjugation(G: GluedModule, H: GluedModule, chart: int, homs):
    """(p + q, the datum of hom_glued(G, H) out of `chart`) as
    J^{(x)(p+q)} (x) HOM(B, C) -> HOM(A, D) on the overlap: t (x) h goes to
    the slice at t of post . (J^{(x)q} (x) (h . pre)), for G's datum
    pre : J^{(x)p} (x) A -> B into this chart and H's datum
    post : J^{(x)q} (x) C -> D out of it.  homs holds per chart the hom
    module, its overlap piece and the overlap piece of its inclusion."""
    scheme, J = G.scheme, G.scheme.idal
    (hom_s, mod_s, _), (hom_t, mod_t, incl_t) = _oriented(chart, *homs)
    (p, pre, A), (q, post, C) = G.out_of(3 - chart), H.out_of(chart)
    B = _oriented(chart, G.m1_overlap, G.m2_overlap)[0]
    D = _oriented(chart, H.m1_overlap, H.m2_overlap)[1]
    gpq = J.power_gens(p + q)
    zero = mod_t.ring.zero()
    matrix = [[zero] * (gpq * mod_s.gens) for _ in range(mod_t.gens)]
    for k in range(mod_s.gens):
        phi = scheme.overlap_map(chart, hom_s.generator_map(k), B, C)
        full = J.then(post, q, J.then(phi.matrix, 0, pre, p, A), p, A)
        for t in range(gpq):
            piece = ModuleMap(A, D, [row[t * A.gens:(t + 1) * A.gens] for row in full],
                              check=False)
            coords = incl_t.lift(hom_t._flatten_map(piece))
            if coords is None:
                raise LiftError("conjugated overlap map does not lie in the hom module")
            for r in range(mod_t.gens):
                matrix[r][t * mod_s.gens + k] = coords[r]
    return p + q, matrix


# ---------------------------------------------------------------------------
# global sections


class SectionsResult(NamedTuple):
    kind: str                      # "affine" or "selfglue"
    total: int | None              # window dimension (affine)
    by_degree: dict | None         # overlap-degree table when gradings allow
    module: PresentedModule | None # the sections module (selfglue)


def _window_candidates(M: PresentedModule, bound: int):
    """(generator, monomial, degree) triples spanning the window |deg| <= bound."""
    if not M.gens or bound < 0:
        return []
    shifts = M.grading if M.grading is not None else (0,) * M.gens
    window = monomials_in_window(M.ring, -bound - max(shifts), bound - min(shifts))
    return [(i, m, d) for i, a in enumerate(shifts)
            for d in range(-bound, bound + 1) for m in window[d - a]]


def _candidate_columns(M: PresentedModule, cands):
    """The column of monomial m at generator i, for each candidate (i, m, d)."""
    return [tuple(M.ring.monomial(m) * p for p in M.unit_column(i)) for i, m, _ in cands]


def _nullity(module: PresentedModule, columns) -> int:
    """Dimension of the base-field relations among the columns' images in
    the module."""
    return len(columns) - column_rank((module, columns))


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


def _check_selfglue_reflection(r, n_max: int):
    if r.chain.stabilized_at is None:
        raise StabilizationError(
            "selfglue overlap chain did not stabilize within n_max "
            f"= {n_max}; increase the bound")
    if r.chain.saturated:
        raise StabilizationError(
            "selfglue sections require an unsaturated stabilization")


def induced_on_reflections(J: Idal, fwd, stage_a: int, r_src, r_tgt) -> ModuleMap:
    """The map R(m_src) -> R(m_tgt) induced by the matrix of a Deligne
    element fwd : J^{(x)a} (x) m_src -> m_tgt (a plain map at stage 0), read
    off the hom chains of the two reflections."""
    n_src = r_src.chain.stabilized_at
    chain_src, chain_tgt = r_src.hom_chain, r_tgt.hom_chain
    n_big, n_tgt = n_src + stage_a, r_tgt.chain.stabilized_at
    hom_src = chain_src.stage(n_src)
    cols = []
    for k in range(hom_src.module.gens):
        psi = chain_src.uncurry(n_src, hom_src.module.unit_column(k))
        cols.append(chain_tgt.curry(n_big, J.then(fwd, stage_a, psi, n_src, chain_tgt.mid)))
    to_big = ModuleMap.from_columns(hom_src.module, chain_tgt.stage(n_big).module, cols)
    # to the target's stabilized stage, inverting its transitions to go down
    push = chain_tgt.composite(n_big, n_tgt) if n_big <= n_tgt \
        else invert_iso(chain_tgt.composite(n_tgt, n_big))
    return ModuleMap(r_src.value, r_tgt.value, push.compose(to_big).matrix, check=False)


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
            dims = graded_dims(S, range(-degree_bound, degree_bound + 1))
            table = {d: v for d, v in dims.items() if v}
        return SectionsResult("selfglue", None, table, S)
    _check_selfglue_reflection(ra, n_max)
    _check_selfglue_reflection(rb, n_max)
    tau_hat_inv = induced_on_reflections(J, G.datum.bwd, G.datum.bwd_stage, rb, ra)
    b = tau_hat_inv.compose(rb.unit)
    P, p1, p2 = pullback(ra.unit, b)
    by_degree = None
    if P.grading is not None:
        try:
            dims = graded_dims(P, range(-degree_bound, degree_bound + 1))
            by_degree = {d: v for d, v in dims.items() if v}
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
    """Whether an inverse triple is constructed and verified (see inverse_of):
    the chart pieces must be free of rank 1."""
    try:
        inverse_of(G)
    except AlgebraError:
        return False
    return True


def inverse_of(G: GluedModule) -> GluedModule:
    """An explicit inverse triple for a line-bundle-like glued module."""
    return _inverse_with_unit(G)[0]


def _inverse_with_unit(G: GluedModule):
    """(inv, unit): the inverse triple of inverse_of and its verified unit
    O -> G (x) inv."""
    w1 = _free_rank_one_witness(G.m1)
    w2 = _free_rank_one_witness(G.m2)
    if w1 is None or w2 is None:
        raise AlgebraError("chart pieces are not free of rank 1")
    scheme = G.scheme
    if scheme.kind == "affine":
        O = unit_module(scheme.overlap.U1)
        w1o = scheme.overlap_map(1, w1, O, G.m1_overlap)
        w2o = scheme.overlap_map(2, w2, O, G.m2_overlap)
        u = invert_iso(w1o).compose(G.tau).compose(w2o).matrix[0][0]
        uinv = ModuleMap(O, O, [[u]], check=False).lift((O.ring.one(),))
        if uinv is None:
            raise AlgebraError("overlap scalar is not a unit")
        inv = GluedModule(scheme, unit_module(scheme.chart1), unit_module(scheme.chart2),
                          [uinv], [[u]])
        return inv, _verify_inverse(G, inv)
    raise AlgebraError("inverse construction implemented for affine overlaps")


def _verify_inverse(G: GluedModule, inv: GluedModule) -> "GluedMap":
    """The unit O -> G (x) inv, once it is verified an isomorphism."""
    T = tensor_glued(G, inv)
    O = o_glued(G.scheme)
    w1 = _free_rank_one_witness(T.m1)
    w2 = _free_rank_one_witness(T.m2)
    if w1 is None or w2 is None:
        raise AlgebraError("tensor with candidate inverse is not rank-1 free")
    iso = GluedMap(O, T, w1, w2)   # validates overlap compatibility
    if not (is_iso(iso.c1) and is_iso(iso.c2)):
        raise AlgebraError("candidate inverse failed verification")
    return iso


def dualizable_check(G: GluedModule, dual: GluedModule, unit_map: GluedMap,
                     counit_map: GluedMap) -> bool:
    """Verify the two triangle identities chartwise.

    unit_map : O -> G (x) dual, counit_map : dual (x) G -> O.
    """
    for g, d, unit_c, counit_c in ((G.m1, dual.m1, unit_map.c1, counit_map.c1),
                                   (G.m2, dual.m2, unit_map.c2, counit_map.c2)):
        ring = g.ring
        idg, idd = _identity_matrix(ring, g.gens), _identity_matrix(ring, d.gens)
        # (id_g (x) counit) . (unit (x) id_g) == id_g and
        # (counit (x) id_d) . (id_d (x) unit) == id_d, where O (x) X == X == X (x) O
        for X, ident, first, second in (
                (g, idg, _kron(ring, unit_c.matrix, idg), _kron(ring, idg, counit_c.matrix)),
                (d, idd, _kron(ring, idd, unit_c.matrix), _kron(ring, counit_c.matrix, idd))):
            _check_shape(first, len(first), X.gens)
            _check_shape(second, X.gens, len(first))
            if not _equal_into(X, _matmul(ring, second, first, X.gens), ident):
                return False
    return True


def symtrivial_check_glued(G: GluedModule) -> bool:
    """Symtriviality tested chartwise, per the locality of the property."""
    return symtrivial_check(G.m1) and symtrivial_check(G.m2)


def standard_dual_datum(G: GluedModule):
    """(dual, unit, counit) for a glued module with free rank-1 pieces."""
    inv, unit_map = _inverse_with_unit(G)
    O = unit_map.source
    Tc = tensor_glued(inv, G)
    v1 = invert_iso(_free_rank_one_witness(Tc.m1))
    v2 = invert_iso(_free_rank_one_witness(Tc.m2))
    counit_map = GluedMap(Tc, O, v1, v2)
    return inv, unit_map, counit_map


# ---------------------------------------------------------------------------
# the glue round trip


class RoundtripResult(NamedTuple):
    ok: bool
    mode: str            # "exact" or "windowed"
    detail: dict

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

    The reflectors are scanned in the order I, J, I (x) J.  Exact when all
    three stabilize; at the first one that truncates the rest are skipped,
    and the answer is a windowed dimension comparison against the
    principal-localization oracles, which reads no reflection.
    """
    if not cover_check(I, J):
        raise AlgebraError("cover check fails: the idals do not cover")
    IJ = idal_product(I, J)
    reflections = []
    for K in (I, J, IJ):
        r = reflect(K, M, n_max)
        if not r.stabilized:
            return _roundtrip_windowed(A, I, J, M, degree_bound)
        reflections.append(r)
    return _roundtrip_exact(A, I, J, IJ, M, *reflections, n_max)


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
        rho = _rho_matrix(I, J, N, use_first)
        width = IJ.power_gens(N) * chainIJ.mid.gens
        stage = chain_side.stage(N).module
        psis = (chain_side.uncurry(N, stage.unit_column(k)) for k in range(stage.gens))
        cols = [chainIJ.curry(N, _matmul(A, psi, rho, width)) for psi in psis]
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
    rk_img = column_rank((Mf, hf.apply_matrix(colsM)), (Mg, hg.apply_matrix(colsM)))
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
        # validating L multiplies matrices of g^power rows and g^(3 power)
        # columns, at stage 2 * power; that stage's bound, g^(2 power) at
        # most MAX_POWER_GENS, keeps them within 16 x 4096 entries and,
        # checked before anything is built, makes large powers fail at once
        J.power_gens(2 * power)
        near, far = unit_module(scheme.chart1), J.carrier_power(power)
        # overlap data: J^power (x) O -> J^power is the identity on generators,
        # and J^power (x) J^power -> O applies e at all 2 * power slots
        to_far = _identity_matrix(near.ring, far.gens)
        to_near = J.collapse(near, 2 * power, 0)
        fwd, bwd = _oriented(which, to_far, to_near)
        L = GluedModule(scheme, *_oriented(which, near, far), OverlapDatum(power, fwd, power, bwd))
        e_far = ModuleMap(far, near, J.collapse(near, power, 0), check=False)
    return L, GluedMap(L, O, *_oriented(which, ModuleMap.identity(near), e_far))


class GenerationBlock(NamedTuple):
    chart: int
    power: int
    map: GluedMap


class GenerationResult(NamedTuple):
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
                k, step, _ = G.out_of(chart)
            L = chart_idal(scheme, chart, k)[0] if k else o_glued(scheme)
            L_near, L_far = _oriented(chart, L.m1, L.m2)
            unit = ModuleMap(L_near, near, [[p] for p in near.unit_column(gidx)], check=False)
            if scheme.kind == "affine":
                matrix = [[p] for p in col]
            else:
                # J^k (x) O -> far, read on L_far = J^k
                matrix = scheme.idal.then(step, k, unit.matrix, 0, L_near)
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


class CheckReport(NamedTuple):
    clauses: dict

    @property
    def ok(self) -> bool:
        return all(self.clauses.values())


class LineBundleDatum(NamedTuple):
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
