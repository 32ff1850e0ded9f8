import random

import pytest

from idals import (
    GF,
    QQ,
    GluedMap,
    GluedModule,
    Idal,
    ModuleMap,
    PolyRing,
    PresentedModule,
    SelfGlueTau,
    TwoChartScheme,
    chart_idal,
    doubleorigin2_datum_check,
    doubleorigin_datum_check,
    dualizable_check,
    free_module,
    global_sections,
    glue,
    graded_dim,
    hom_glued,
    idal_from_ideal,
    idal_generation,
    idal_product,
    inverse_of,
    invertible_check,
    is_iso,
    o_glued,
    p1_scheme,
    p1_sections_oracle,
    p1_standard,
    projline_datum_check,
    reflect,
    roundtrip_check,
    tensor,
    tensor_glued,
    tensor_map,
    unit_module,
    zero_module,
)
from idals.errors import (
    AlgebraError,
    StabilizationError,
    TauNotInvertibleError,
    TauNotWellDefinedError,
)
from idals.glued import (
    LineBundleDatum,
    _free_rank_one_witness,
    direct_sum_glued,
    induced_on_reflections,
    standard_dual_datum,
)

from conftest import random_graded_module_1var

P1 = p1_scheme()


@pytest.fixture(scope="module")
def dop():
    R = PolyRing(QQ, ["x", "y"])
    J = idal_from_ideal(["x", "y"], R)
    return TwoChartScheme.selfglue(R, J)


class TestSchemes:
    def test_bad_transition_rejected(self):
        A1 = PolyRing(QQ, ["t"])
        A2 = PolyRing(QQ, ["s"])
        with pytest.raises(AlgebraError):
            TwoChartScheme.affine(A1, A2, "t", "s", "ti", "si",
                                  {"t": "si", "ti": "s"}, {"s": "t", "si": "ti"})

    def test_selfglue_requires_shared_ring(self):
        A1 = PolyRing(QQ, ["t"])
        J = idal_from_ideal(["t"], A1)
        sch = TwoChartScheme.selfglue(A1, J)
        assert sch.chart1 == sch.chart2


class TestGlue:
    def test_structure_sheaf_valid(self):
        G = glue(unit_module(P1.chart1), unit_module(P1.chart2), [["1"]], P1, [["1"]])
        assert G.tau.matrix[0][0].is_one()

    def test_twist_valid(self):
        G = glue(unit_module(P1.chart1), unit_module(P1.chart2), [["t"]], P1, [["ti"]])
        assert str(G.tau.matrix[0][0]) == "t"

    def test_non_invertible_tau_rejected(self):
        with pytest.raises(TauNotInvertibleError):
            glue(unit_module(P1.chart1), unit_module(P1.chart2), [["t"]], P1, [["t"]])

    def test_missing_inverse_rejected(self):
        with pytest.raises(TauNotInvertibleError):
            glue(unit_module(P1.chart1), unit_module(P1.chart2), [["t"]], P1)

    def test_ill_defined_tau_rejected(self):
        k2 = PresentedModule(P1.chart2, 1, [("s",)])
        with pytest.raises((TauNotWellDefinedError, TauNotInvertibleError)):
            glue(unit_module(P1.chart1), k2, [["1"]], P1, [["1"]])


class TestSections:
    def test_structure_sheaf(self):
        S = global_sections(p1_standard(0, P1), 6)
        assert S.total == 1

    def test_twists_match_oracle(self):
        for n in range(-3, 6):
            S = global_sections(p1_standard(n, P1), 6)
            assert S.total == p1_sections_oracle(n) == max(n + 1, 0)

    def test_twist_degree_table(self):
        S = global_sections(p1_standard(2, P1), 6)
        assert S.by_degree == {0: 1, 1: 1, 2: 1}

    def test_double_origin_plane(self, dop):
        S = global_sections(o_glued(dop), 4)
        assert S.module is not None
        # sections of the doubled plane structure sheaf are the plane functions
        assert S.by_degree == {0: 1, 1: 2, 2: 3, 3: 4, 4: 5}

    def test_double_origin_line_reports_nonstabilization(self):
        A = PolyRing(QQ, ["x"])
        J = idal_from_ideal(["x"], A)
        sch = TwoChartScheme.selfglue(A, J)
        with pytest.raises(StabilizationError):
            global_sections(o_glued(sch), 4)

    def test_skyscraper_total(self):
        sky = PresentedModule(P1.chart1, 1, [("t",)])
        G = GluedModule(P1, sky, zero_module(P1.chart2), [], [])
        assert global_sections(G, 4).total == 1

    def test_sections_additive_on_split_sums(self):
        G1 = p1_standard(1, P1)
        G2 = p1_standard(3, P1)
        S, _ = direct_sum_glued([G1, G2])
        assert global_sections(S, 6).total == \
            global_sections(G1, 6).total + global_sections(G2, 6).total


class TestTensorAndHom:
    def test_unit_law(self):
        G = p1_standard(2, P1)
        T = tensor_glued(G, p1_standard(0, P1))
        assert str(T.tau.matrix[0][0]) == "t^2"

    def test_twist_addition(self):
        for a, b in [(1, 1), (2, -1), (-2, 3), (-1, -1)]:
            T = tensor_glued(p1_standard(a, P1), p1_standard(b, P1))
            E = p1_standard(a + b, P1)
            iso = GluedMap(E, T, _free_rank_one_witness(T.m1), _free_rank_one_witness(T.m2))
            assert is_iso(iso.c1) and is_iso(iso.c2)

    def test_hom_of_twists(self):
        H = hom_glued(p1_standard(1, P1), p1_standard(0, P1))
        assert str(H.tau.matrix[0][0]) == "ti"
        assert global_sections(H, 6).total == 0

    def test_selfglue_hom(self, dop):
        O = o_glued(dop)
        H = hom_glued(O, O)
        assert H.m1.gens == 1 and H.m2.gens == 1
        S = global_sections(H, 3)
        assert S.by_degree == {0: 1, 1: 2, 2: 3, 3: 4}


class TestInvertible:
    def test_twists_invertible(self):
        for n in (-2, 0, 3):
            G = p1_standard(n, P1)
            assert invertible_check(G)
            inv = inverse_of(G)
            assert str(inv.tau.matrix[0][0]) == str(p1_standard(-n, P1).tau.matrix[0][0])

    def test_rank_two_not_invertible(self):
        two1 = free_module(P1.chart1, 2)
        two2 = free_module(P1.chart2, 2)
        eye = [["1", "0"], ["0", "1"]]
        G = GluedModule(P1, two1, two2, eye, eye)
        assert not invertible_check(G)

    def test_rank_two_dualizable(self):
        two1 = free_module(P1.chart1, 2)
        two2 = free_module(P1.chart2, 2)
        eye = [["1", "0"], ["0", "1"]]
        G = GluedModule(P1, two1, two2, eye, eye)
        O = o_glued(P1)
        # standard rank-2 duality datum: unit 1 -> sum e_i (x) e_i*
        unit1 = ModuleMap(unit_module(P1.chart1), tensor(two1, two1),
                          [["1"], ["0"], ["0"], ["1"]], check=False)
        unit2 = ModuleMap(unit_module(P1.chart2), tensor(two2, two2),
                          [["1"], ["0"], ["0"], ["1"]], check=False)
        counit1 = ModuleMap(tensor(two1, two1), unit_module(P1.chart1),
                            [["1", "0", "0", "1"]], check=False)
        counit2 = ModuleMap(tensor(two2, two2), unit_module(P1.chart2),
                            [["1", "0", "0", "1"]], check=False)
        GG = tensor_glued(G, G)
        unit_map = GluedMap(O, GG, unit1, unit2)
        counit_map = GluedMap(GG, O, counit1, counit2)
        assert dualizable_check(G, G, unit_map, counit_map)

    def test_line_bundle_self_duality(self):
        G = p1_standard(1, P1)
        dual, um, cm = standard_dual_datum(G)
        assert dualizable_check(G, dual, um, cm)


class TestRoundtrip:
    def test_identity_cover_trivial(self, R1):
        J = idal_from_ideal(["x-1"], R1)
        res = roundtrip_check(R1, Idal.identity(R1), J, unit_module(R1), 6, 6)
        assert res.ok

    def test_free_module_windowed(self, R1):
        I = idal_from_ideal(["x"], R1)
        J = idal_from_ideal(["x-1"], R1)
        res = roundtrip_check(R1, I, J, unit_module(R1), 8, 6)
        assert res.ok and res.mode == "windowed"

    def test_mixed_torsion_exact(self, R1):
        I = idal_from_ideal(["x"], R1)
        J = idal_from_ideal(["x-1"], R1)
        M = PresentedModule(R1, 2, [("x", "0"), ("0", "x-1")])
        res = roundtrip_check(R1, I, J, M, 8, 6)
        assert res.ok and res.mode == "exact"

    def test_noncover_rejected(self, R1):
        I = idal_from_ideal(["x"], R1)
        with pytest.raises(AlgebraError):
            roundtrip_check(R1, I, I, unit_module(R1), 4, 4)

    def test_regluing_reproduces_triple(self, R1):
        # F . G: pull back a valid triple, then check the reflections of the
        # pullback reproduce the pieces
        I = idal_from_ideal(["x"], R1)
        J = idal_from_ideal(["x-1"], R1)
        A_piece = PresentedModule(R1, 1, [("x-1",)])   # believes I
        B_piece = PresentedModule(R1, 1, [("x",)])     # believes J
        from idals import believes, pullback

        assert believes(I, A_piece) and believes(J, B_piece)
        M, _, _ = pullback(ModuleMap.zero(A_piece, zero_module(R1)),
                           ModuleMap.zero(B_piece, zero_module(R1)))
        p1m = ModuleMap(M, A_piece, [["1", "0"]], check=False)
        p2m = ModuleMap(M, B_piece, [["0", "1"]], check=False)
        for idal_obj, piece, proj in ((I, A_piece, p1m), (J, B_piece, p2m)):
            rM = reflect(idal_obj, M, 8)
            rP = reflect(idal_obj, piece, 8)
            fwd = ModuleMap(tensor(idal_obj.carrier_power(0), M), piece,
                            proj.matrix, check=False)
            induced = induced_on_reflections(idal_obj, fwd.matrix, 0, rM, rP)
            assert is_iso(induced)


class TestChartIdalsAndGeneration:
    def test_chart_idal_is_serre_minus_one(self):
        L1, e1 = chart_idal(P1, 1)
        assert str(L1.tau.matrix[0][0]) == "ti"
        assert global_sections(L1, 5).total == 0

    def test_chart_idals_cover(self):
        L1, e1 = chart_idal(P1, 1)
        L2, e2 = chart_idal(P1, 2)
        gens1 = [p for e in (e1, e2) for row in e.c1.matrix for p in row]
        gens2 = [p for e in (e1, e2) for row in e.c2.matrix for p in row]
        assert P1.chart1.contains_one([p for p in gens1 if not p.is_zero()])
        assert P1.chart2.contains_one([p for p in gens2 if not p.is_zero()])

    def test_generation_on_twists(self):
        for n in (-2, -1, 0, 1, 2):
            gen = idal_generation(p1_standard(n, P1), 8)
            assert gen.verified
            assert gen.map.is_chartwise_surjective()
            for blk in gen.blocks:
                assert blk.power <= max(0, -n)

    def test_generation_skyscrapers(self):
        sky1 = PresentedModule(P1.chart1, 1, [("t",)])
        sky1sq = PresentedModule(P1.chart1, 1, [("t^2",)])
        sky2 = PresentedModule(P1.chart2, 1, [("s",)])
        cases = [
            GluedModule(P1, sky1, zero_module(P1.chart2), [], []),
            GluedModule(P1, sky1sq, zero_module(P1.chart2), [], []),
            GluedModule(P1, zero_module(P1.chart1), sky2, [], []),
        ]
        for G in cases:
            gen = idal_generation(G, 2)
            assert gen.verified and all(b.power <= 1 for b in gen.blocks)

    def test_generation_on_selfglue(self, dop):
        gen = idal_generation(o_glued(dop), 4)
        assert gen.verified

    def test_generation_structure_sheaf_trivial(self):
        gen = idal_generation(p1_standard(0, P1), 2)
        assert all(b.power == 0 for b in gen.blocks)


class TestDatumCheckers:
    def test_projline_trivial(self):
        O = o_glued(P1)
        e = GluedMap(O, O, ModuleMap.identity(O.m1), ModuleMap.identity(O.m2))
        rep = projline_datum_check(LineBundleDatum(O, (e, e)))
        assert rep.ok

    def test_projline_chart_idals(self):
        L1, e1 = chart_idal(P1, 1)
        L2, e2 = chart_idal(P1, 2)
        rep = projline_datum_check(LineBundleDatum(L1, (e1, e2)))
        assert not rep.clauses["maps_from_same_object"]
        assert rep.clauses["cover_chart1"] and rep.clauses["cover_chart2"]

    def test_doubleorigin_trivial(self):
        O = o_glued(P1)
        dual, um, cm = standard_dual_datum(O)
        lm = GluedMap(O, O, ModuleMap.identity(O.m1), ModuleMap.identity(O.m2))
        lsm = GluedMap(dual, O, ModuleMap(dual.m1, O.m1, [["1"]], check=False),
                       ModuleMap(dual.m2, O.m2, [["1"]], check=False))
        rep = doubleorigin_datum_check(lm, lsm, um, cm)
        assert rep.ok

    def test_doubleorigin2_canonical_passes(self):
        R = PolyRing(QQ, ["T1", "T2"])
        J1 = idal_from_ideal(["T1", "T2"], R)
        J2 = Idal.identity(R)
        prod = idal_product(J1, J2)
        p = ModuleMap(free_module(R, 2, [1, 1]), prod.carrier,
                      [["1", "0"], ["0", "1"]], check=False)
        rep = doubleorigin2_datum_check(J1, J2, p)
        assert rep.ok

    def test_doubleorigin2_cover_clause_fails(self):
        R = PolyRing(QQ, ["T1", "T2"])
        J = idal_from_ideal(["T1", "T2"], R)
        prod = idal_product(J, J)
        p = ModuleMap(free_module(R, 2, [2, 2]), prod.carrier,
                      [["1", "0"], ["0", "0"], ["0", "0"], ["0", "1"]], check=False)
        rep = doubleorigin2_datum_check(J, J, p)
        assert not rep.clauses["cover"]

    def test_doubleorigin2_one_variable_exactness_fails(self, R1):
        J1 = idal_from_ideal(["x"], R1)
        J2 = idal_from_ideal(["x-1"], R1)
        prod = idal_product(J1, J2)
        p = ModuleMap(free_module(R1, 2), prod.carrier, [["1", "1"]], check=False)
        rep = doubleorigin2_datum_check(J1, J2, p)
        assert rep.clauses["cover"]
        assert not rep.clauses["kernel_generated_by_syzygy"]

    def test_koszul_kernel_statement(self):
        # the doubled-plane exact sequence: ker(T1, T2) = <(T2, -T1)>
        R = PolyRing(QQ, ["T1", "T2"])
        from idals import kernel

        phi = ModuleMap(free_module(R, 2), unit_module(R), [["T1", "T2"]])
        K, incl = kernel(phi)
        assert K.gens == 1
        assert [str(p) for p in incl.column(0)] == ["T2", "-T1"]


class TestP1Standard:
    def test_zero_twist_is_structure_sheaf(self):
        G = p1_standard(0, P1)
        O = o_glued(P1)
        assert G.serialize() == O.serialize()

    def test_twist_tau_cocycles(self):
        assert str(p1_standard(1, P1).tau.matrix[0][0]) == "t"
        assert str(p1_standard(-1, P1).tau.matrix[0][0]) == "ti"
        assert global_sections(p1_standard(-1, P1), 5).total == 0


class TestSelfGlueExtra:
    def test_selfglue_tensor_stays_valid(self, dop):
        O = o_glued(dop)
        T = tensor_glued(O, O)
        # revalidating the produced overlap elements must succeed
        GluedModule(dop, T.m1, T.m2, T.tau)
        S = global_sections(T, 3)
        assert S.by_degree == {0: 1, 1: 2, 2: 3, 3: 4}

    def test_selfglue_chart_idal_sections(self, dop):
        # chart idal on side 2: the ideal on one copy, trivial on the other;
        # its sections are the ideal itself (exercises the stage push-down)
        L, e = chart_idal(dop, 2)
        S = global_sections(L, 4)
        assert S.module is not None
        assert S.by_degree == {1: 2, 2: 3, 3: 4, 4: 5}

    def test_selfglue_chart_idal_sections_side1(self, dop):
        L, e = chart_idal(dop, 1)
        S = global_sections(L, 4)
        assert S.by_degree == {1: 2, 2: 3, 3: 4, 4: 5}


class TestSymtrivial:
    def test_line_objects_are_symtrivial(self):
        from idals import symtrivial_check, symtrivial_check_glued

        assert symtrivial_check_glued(p1_standard(2, P1))
        assert symtrivial_check(unit_module(P1.chart1))
        k = PresentedModule(P1.chart1, 1, [("t",)])
        assert symtrivial_check(k)

    def test_higher_rank_and_ideal_are_not(self, R2):
        from idals import symtrivial_check

        assert not symtrivial_check(free_module(R2, 2))
        ideal = PresentedModule(R2, 2, [("y", R2.poly("-x"))], grading=[1, 1])
        assert not symtrivial_check(ideal)


class TestStagedMapsAreMatrices:
    def test_no_stage_source_is_presented(self, monkeypatch, R1):
        """Staged maps compose and compare as matrices, so chart idals, their
        sums, tensors and homs, compatibility, self-glued sections and an
        exact round trip present no J^{(x)n} (x) M with n >= 1: no carrier
        power is built past 3, the largest chart power asked for."""
        present = Idal.carrier_power

        def refuse(J, n):
            if n > 3:
                raise AssertionError(f"presented the carrier power J^(x){n}")
            return present(J, n)

        monkeypatch.setattr(Idal, "carrier_power", refuse)
        R = PolyRing(QQ, ["x", "y"])
        dop = TwoChartScheme.selfglue(R, idal_from_ideal(["x", "y"], R))
        O = o_glued(dop)
        idals = {(which, power): chart_idal(dop, which, power)
                 for which in (1, 2) for power in (1, 2, 3)}
        for L, e in idals.values():
            assert e.is_compatible()
            wrong = GluedMap(L, O, ModuleMap(L.m1, O.m1, [[R.var("x") * p for p in row]
                                                        for row in e.c1.matrix]),
                             e.c2, validate=False)
            assert not wrong.is_compatible()
        for power in (1, 2, 3):
            G, H = idals[(1, power)][0], idals[(2, power)][0]
            S, incls = direct_sum_glued([G, H])
            assert all(f.is_compatible() for f in incls)
            for X in (S, tensor_glued(G, H), hom_glued(G, H)):
                if X.tau.fwd_stage + X.tau.bwd_stage <= 8:   # within MAX_POWER_GENS
                    GluedModule(dop, X.m1, X.m2, X.tau)   # revalidates the datum
        assert global_sections(O, 3).by_degree == {0: 1, 1: 2, 2: 3, 3: 4}
        I, J = idal_from_ideal(["x"], R1), idal_from_ideal(["x-1"], R1)
        M = PresentedModule(R1, 2, [("x", "0"), ("0", "x-1")])
        res = roundtrip_check(R1, I, J, M, 8, 6)
        assert res.ok and res.mode == "exact"
