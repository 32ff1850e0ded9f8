import random

import pytest

from idals import (
    QQ,
    Idal,
    IdalMorphism,
    ModuleMap,
    PolyRing,
    PresentedModule,
    RingHom,
    cover_check,
    cover_check_pushout,
    free_idal_hom_size,
    free_module,
    idal_base_change,
    idal_check,
    idal_from_ideal,
    idal_power,
    idal_product,
    idal_reflect,
    is_iso,
    nilpotency_check,
    unit_module,
)
from idals.errors import AlgebraError, WellDefinednessError
from idals.fpmod import tensor_map
from idals.idal import MAX_POWER_GENS, idal_check_witness

from conftest import random_idal, random_map_to_unit, random_poly


class TestIdalCheck:
    def test_scalar_endomorphism(self, R1):
        O = unit_module(R1)
        assert idal_check(ModuleMap(O, O, [["x"]]))

    def test_monomorphic_inclusion(self, R2):
        M = PresentedModule(R2, 2, [("y", R2.poly("-x"))], grading=[1, 1])
        assert idal_check(ModuleMap(M, unit_module(R2), [["x", "y"]]))

    def test_projection_fails_with_witness(self):
        Z = PolyRing(QQ, [])
        e = ModuleMap(free_module(Z, 2), unit_module(Z), [["1", "0"]])
        assert not idal_check(e)
        w = idal_check_witness(e)
        assert w is not None and w["difference"] != ["0", "0"]

    def test_requires_rank_one_target(self, R1):
        f = ModuleMap.identity(free_module(R1, 2))
        with pytest.raises(AlgebraError):
            idal_check(f)


class TestReflection:
    def test_existing_idal_reflects_isomorphically(self, R2):
        J = idal_from_ideal(["x", "y"], R2)
        _, pi = idal_reflect(J.e)
        assert is_iso(pi)

    def test_projection_collapses(self):
        Z = PolyRing(QQ, [])
        e = ModuleMap(free_module(Z, 2), unit_module(Z), [["1", "0"]])
        idal, _ = idal_reflect(e)
        from idals import graded_dim

        assert graded_dim(idal.carrier, 0) == 1
        assert is_iso(idal.e)

    def test_plane_ideal_carrier(self, R2):
        f = ModuleMap(free_module(R2, 2, [1, 1]), unit_module(R2), [["x", "y"]])
        idal, pi = idal_reflect(f)
        cols = {tuple(str(p) for p in c) for c in idal.carrier.relations}
        assert cols == {("y", "-x"), ("-y", "x")}
        assert idal.e.compose(pi).equals(f)

    def test_universal_property_randomized(self, R1, R2):
        rng = random.Random(21)
        for ring in (R1, R2):
            for _ in range(6):
                target = random_idal(ring, rng)
                k = rng.randint(1, 2)
                A = free_module(ring, k)
                h = ModuleMap(A, target.carrier,
                              [[random_poly(ring, rng) for _ in range(k)]
                               for _ in range(target.carrier.gens)], check=False)
                f = target.e.compose(h)
                refl, pi = idal_reflect(f)
                # the induced map out of the reflection exists and commutes
                u = ModuleMap(refl.carrier, target.carrier, h.matrix)
                assert u.compose(pi).equals(h)
                assert target.e.compose(u).equals(refl.e)


class TestProductAndPowers:
    def test_unit_law(self, R1):
        I = idal_from_ideal(["x"], R1)
        P = idal_product(I, Idal.identity(R1))
        w = ModuleMap(I.carrier, P.carrier, ModuleMap.identity(I.carrier).matrix)
        assert is_iso(w)
        assert P.e.compose(w).equals(I.e)

    def test_principal_product(self, R2):
        P = idal_product(idal_from_ideal(["x"], R2), idal_from_ideal(["y"], R2))
        assert [str(p) for p in P.image_generators()] == ["x*y"]

    def test_product_law_randomized(self, R1, R2):
        rng = random.Random(22)
        for ring in (R1, R2):
            for _ in range(5):
                P = idal_product(random_idal(ring, rng), random_idal(ring, rng))
                assert idal_check(P.e)

    def test_power_identity_transition(self, R1):
        I = idal_from_ideal(["x"], R1)
        _, t = idal_power(I, 2, 2)
        assert t.source.presentation_key() == t.target.presentation_key()
        n = t.source.gens
        assert [[str(x) for x in row] for row in t.matrix] == [
            ["1" if i == j else "0" for j in range(n)] for i in range(n)]

    def test_scalar_power_transition(self, R1):
        I = idal_from_ideal(["x"], R1)
        _, t = idal_power(I, 3, 1)
        assert str(t.matrix[0][0]) == "x^2"

    def test_position_independence(self, R2):
        # e at the first slot, e (x) I^{(x)(n-1)}, equals power_transition's
        # e at the last slot; hom chains by adjunction drop the first slot
        for J in (idal_from_ideal(["x", "y"], R2), idal_from_ideal(["x", "y", "x^2 + y"], R2)):
            for n in (2, 3):
                raw = tensor_map(J.e, ModuleMap.identity(J.carrier_power(n - 1)))
                first = ModuleMap(J.carrier_power(n), J.carrier_power(n - 1), raw.matrix)
                last = J.power_transition(n, n - 1)
                assert first.equals(last)
                assert not first.equals(ModuleMap.zero(first.source, first.target))

    def test_power_size_guard(self, R2):
        # the bound fails before anything is built, also for a huge exponent
        J = idal_from_ideal(["x", "y"], R2)
        assert 2 ** 8 <= MAX_POWER_GENS < 2 ** 9
        for n in (9, 10 ** 9, -1):
            with pytest.raises(AlgebraError):
                J.carrier_power(n)
        # a principal carrier has one generator at every power, built without recursion
        assert idal_from_ideal(["x"], R2).carrier_power(2000).grading == (2000,)

    def test_power_requires_order(self, R1):
        I = idal_from_ideal(["x"], R1)
        with pytest.raises(AlgebraError):
            idal_power(I, 1, 2)


class TestCovers:
    def test_identity_covers_anything(self, R1):
        assert cover_check(Idal.identity(R1), idal_from_ideal(["x^5"], R1))

    def test_partition_of_unity(self, R1):
        assert cover_check(idal_from_ideal(["x"], R1), idal_from_ideal(["x-1"], R1))

    def test_self_cover_fails(self, R1):
        I = idal_from_ideal(["x"], R1)
        assert not cover_check(I, I)

    def test_pushout_form_agrees(self, R1, R2):
        rng = random.Random(23)
        cases = [
            (idal_from_ideal(["x"], R1), idal_from_ideal(["x-1"], R1)),
            (idal_from_ideal(["x"], R1), idal_from_ideal(["x"], R1)),
            (Idal.identity(R2), idal_from_ideal(["x", "y"], R2)),
            (random_idal(R1, rng), random_idal(R1, rng)),
        ]
        for I, J in cases:
            assert cover_check(I, J) == cover_check_pushout(I, J)

    def test_regular_epi_rigidity(self, R1, R2):
        rng = random.Random(24)
        found = 0
        for ring in (R1, R2):
            for _ in range(10):
                I = random_idal(ring, rng)
                if ring.contains_one(I.image_generators()):
                    assert is_iso(I.e)
                    found += 1
        assert found > 0


class TestFromIdeal:
    def test_unit_generator(self, R1):
        I = idal_from_ideal(["1"], R1)
        assert is_iso(I.e)

    def test_plane_ideal(self, R2):
        I = idal_from_ideal(["x", "y"], R2)
        cols = {tuple(str(p) for p in c) for c in I.carrier.relations}
        assert ("y", "-x") in cols

    def test_squared_ideal(self, R2):
        I = idal_from_ideal(["x^2", "x*y", "y^2"], R2)
        assert [str(p) for p in I.image_generators()] == ["x^2", "x*y", "y^2"]
        assert not cover_check(I, I)
        assert idal_check(I.e)

    def test_zero_idal_is_legal(self, R1):
        Z = Idal.from_map(ModuleMap(zero := free_module(R1, 1), unit_module(R1), [["0"]]))
        assert nilpotency_check(Z, 2) == 1


class TestNilpotency:
    def test_zero_map(self, R1):
        O = unit_module(R1)
        e = Idal.from_map(ModuleMap(O, O, [["0"]]))
        assert nilpotency_check(e, 4) == 1

    def test_square_zero(self):
        Q = PolyRing(QQ, ["x"], quotient=["x^2"])
        O = unit_module(Q)
        e = Idal.from_map(ModuleMap(O, O, [["x"]]))
        assert nilpotency_check(e, 5) == 2

    def test_domain_has_none(self, R1):
        O = unit_module(R1)
        e = Idal.from_map(ModuleMap(O, O, [["x"]]))
        assert nilpotency_check(e, 5) is None

    def test_matches_the_presented_power_maps(self, R2):
        # the entries of e^{(x)n} against is_zero_map on I^{(x)n} -> O
        def by_power_maps(e, n_max):
            return next((n for n in range(1, n_max + 1) if e.power_map(n).is_zero_map()), None)

        Q3 = PolyRing(QQ, ["x"], quotient=["x^3"])
        O3 = unit_module(Q3)
        Q22 = PolyRing(QQ, ["x", "y"], quotient=["x^2", "y^2"])
        cases = [(idal_from_ideal(["x", "y"], R2), None),
                 (Idal.from_map(ModuleMap(O3, O3, [["x"]])), 3),
                 (idal_from_ideal(["x", "y"], Q22), 3)]
        for e, want in cases:
            assert nilpotency_check(e, 8) == by_power_maps(e, 8) == want

    def test_power_bound_still_raises(self):
        # 3^5 generators fit the bound and 3^6 do not: the same error as the carrier's
        R3 = PolyRing(QQ, ["x", "y", "z"])
        e = idal_from_ideal(["x", "y", "z"], R3)
        with pytest.raises(AlgebraError) as got:
            nilpotency_check(e, 8)
        with pytest.raises(AlgebraError) as want:
            e.carrier_power(6)
        assert str(got.value) == str(want.value)
        assert "tensor power 6 of a 3-generator" in str(got.value)


class TestFreeHomSizes:
    def test_values(self):
        assert free_idal_hom_size(3, 2) == 2
        assert free_idal_hom_size(0, 0) == 1
        assert free_idal_hom_size(1, 2) == 0
        assert free_idal_hom_size(4, 3) == 6


class TestBaseChange:
    def test_identity(self, R1):
        I = idal_from_ideal(["x"], R1)
        h = RingHom(R1, R1, {"x": "x"})
        out = idal_base_change(h, I)
        assert out.serialize() == I.serialize()

    def test_inverting_makes_iso(self, R1):
        L = PolyRing(QQ, ["x", "t"], quotient=["t*x-1"])
        h = RingHom(R1, L, {"x": "x"})
        out = idal_base_change(h, idal_from_ideal(["x"], R1))
        assert is_iso(out.e)

    def test_modding_out_a_variable(self, R2):
        Qx = PolyRing(QQ, ["x", "y"], quotient=["x"])
        h = RingHom(R2, Qx, {"x": "x", "y": "y"})
        out = idal_base_change(h, idal_from_ideal(["x", "y"], R2))
        gens = [str(p) for p in out.image_generators()]
        assert gens == ["0", "y"]

    def test_morphism_triangle_enforced(self, R1):
        I = idal_from_ideal(["x"], R1)
        J = idal_from_ideal(["x^2"], R1)
        IdalMorphism(J, I, ModuleMap(J.carrier, I.carrier, [["x"]]))
        with pytest.raises(WellDefinednessError):
            IdalMorphism(J, I, ModuleMap(J.carrier, I.carrier, [["1"]]))


class TestProductLocusIdentities:
    def test_square_has_same_covers_as_the_idal(self, R2):
        # the locus of J (x) J equals the locus of J: any test idal covers
        # with one iff it covers with the other
        J = idal_from_ideal(["x", "y"], R2)
        JJ = idal_product(J, J)
        assert JJ.carrier.gens == 4
        probes = [
            Idal.identity(R2),
            idal_from_ideal(["x-1", "y-1"], R2),
            idal_from_ideal(["x-1"], R2),
            idal_from_ideal(["x"], R2),
        ]
        for K in probes:
            assert cover_check(JJ, K) == cover_check(J, K)

    def test_pushout_cross_check_random_corpus(self, R1, R2):
        import random as _random

        from conftest import random_idal

        rng = _random.Random(41)
        for ring in (R1, R2):
            for _ in range(8):
                I = random_idal(ring, rng)
                J = random_idal(ring, rng)
                assert cover_check(I, J) == cover_check_pushout(I, J)


class TestLawMapsAreMatrices:
    def test_no_tensor_product_is_presented(self, monkeypatch, R1, R2):
        """The idal law, reflection, the pushout cover check and the dual
        triangles compare maps out of tensor products as matrices, so none
        of them presents a tensor product."""
        from idals import fpmod, glued, idal
        from idals.glued import dualizable_check, p1_scheme, p1_standard, standard_dual_datum

        line = p1_standard(1, p1_scheme())
        datum = standard_dual_datum(line)   # built before the wrap: it tensors glued pieces
        presented = []
        for module in (fpmod, idal, glued):
            def counted(M, N, tensor=module.tensor):
                presented.append((M.gens, N.gens))
                return tensor(M, N)
            monkeypatch.setattr(module, "tensor", counted)

        J = idal_from_ideal(["x", "y"], R2)
        K = idal_from_ideal(["x - 1", "y"], R2)
        assert idal_check(J.e) and idal_check(K.e)
        free = ModuleMap(free_module(R1, 2), unit_module(R1), [["x", "1"]])
        assert idal_check_witness(free) == {"generator_pair": [1, 2], "difference": ["-1", "x"]}
        assert cover_check_pushout(J, K) and not cover_check_pushout(J, J)
        assert dualizable_check(line, *datum)
        assert presented == []
