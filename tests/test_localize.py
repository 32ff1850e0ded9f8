import gc
import random
import weakref

import pytest

from idals import (
    QQ,
    Idal,
    ModuleMap,
    PolyRing,
    PresentedModule,
    believes,
    canonical_to_hom,
    cokernel,
    deligne_hom,
    graded_dim,
    hom_module,
    idal_comparison_search,
    idal_from_ideal,
    idal_product,
    intersection_check,
    is_iso,
    localization_oracle,
    nilpotency_check,
    quotient_functor,
    reflect,
    tensor,
    tensor_map,
    unit_module,
)
from idals.localize import HomChain, deligne_window_dims

from conftest import random_graded_module_1var, random_idal, random_module


@pytest.fixture
def Jxy(R2):
    return idal_from_ideal(["x", "y"], R2)


@pytest.fixture
def Ix(R1):
    return idal_from_ideal(["x"], R1)


class TestCanonicalAndBelieves:
    def test_identity_idal_is_iso(self, R1):
        M = PresentedModule(R1, 1, [("x^2",)])
        assert is_iso(canonical_to_hom(Idal.identity(R1), M))

    def test_principal_on_free_not_iso(self, R1, Ix):
        c = canonical_to_hom(Ix, unit_module(R1))
        assert not is_iso(c)
        C, _ = cokernel(c)
        assert not C.is_zero_module()

    def test_punctured_plane_iso(self, R2, Jxy):
        assert is_iso(canonical_to_hom(Jxy, unit_module(R2)))

    def test_believes_examples(self, R1, R2, Ix, Jxy):
        k = PresentedModule(R1, 1, [("x",)])
        assert believes(Idal.identity(R1), k)
        assert not believes(Ix, k)
        assert not believes(Ix, unit_module(R1))
        assert believes(Jxy, unit_module(R2))


class TestReflect:
    def test_identity_idal_stabilizes_at_zero(self, R1):
        M = PresentedModule(R1, 1, [("x",)])
        res = reflect(Idal.identity(R1), M, 4)
        assert res.chain.stabilized_at == 0
        assert is_iso(res.unit)

    def test_hartogs(self, R2, Jxy):
        res = reflect(Jxy, unit_module(R2), 5)
        assert res.chain.stabilized_at == 1
        assert not res.chain.saturated
        assert is_iso(res.unit)

    def test_principal_on_free_truncates(self, R1, Ix):
        res = reflect(Ix, unit_module(R1), 6)
        assert res.chain.truncated and res.chain.stabilized_at is None
        assert len(res.chain.stages) == 7

    def test_stabilized_value_believes(self, R2, Jxy):
        res = reflect(Jxy, unit_module(R2), 5)
        assert believes(Jxy, res.value)

    def test_reflector_idempotence(self, R2, Jxy):
        res = reflect(Jxy, unit_module(R2), 5)
        again = reflect(Jxy, res.value, 5)
        assert again.chain.stabilized_at is not None
        assert again.chain.stabilized_at <= 1
        assert is_iso(again.unit)

    def test_unit_factorization(self, R2, Jxy):
        # the unit at the stabilized stage equals the composite of
        # chain transitions after the first canonical map
        M = unit_module(R2)
        res = reflect(Jxy, M, 5)
        n = res.chain.stabilized_at
        chain = res.hom_chain
        comp = canonical_to_hom(Jxy, M)
        comp = ModuleMap(M, chain.stage(1).module, comp.matrix, check=False)
        for k in range(1, n):
            comp = chain.transition(k).compose(comp)
        assert ModuleMap(M, res.value, comp.matrix, check=False).equals(res.unit)

    def test_mixed_torsion_saturates(self, R1, Ix):
        M = PresentedModule(R1, 2, [("x", "0"), ("0", "x-1")])
        res = reflect(Ix, M, 8)
        assert res.chain.stabilized_at is not None and res.chain.saturated
        assert believes(Ix, res.value)
        assert not res.value.is_zero_module()

    def test_hom_chain_is_the_scanned_chain(self, R1, R2, Ix, Jxy):
        # the chain a reflection returns presents the same stages as a
        # freshly built chain for the same data
        cases = [(Jxy, unit_module(R2), 5),
                 (Ix, PresentedModule(R1, 2, [("x", "0"), ("0", "x-1")]), 8)]
        for J, M, n_max in cases:
            res = reflect(J, M, n_max)
            fresh = HomChain(J, unit_module(J.ring), M)
            assert res.hom_chain.J is J and res.hom_chain.target is M
            for n in range(len(res.chain.stages)):
                assert res.hom_chain.stage(n).module is res.chain.stages[n]
                assert res.hom_chain.stage(n).module == fresh.stage(n).module

    def test_reflections_share_the_idals_chains(self, R2, Jxy):
        M = PresentedModule(R2, 1, [("x",)])
        a, b = reflect(Jxy, M, 3), reflect(Jxy, unit_module(R2), 3)
        assert a.hom_chain.mid is b.hom_chain.mid is Jxy.carrier_power(0)
        assert reflect(Jxy, M, 4).hom_chain is a.hom_chain

    def test_idal_is_freed_without_the_cyclic_collector(self, R2):
        # the idal keeps its chains, and a chain refers back to it weakly
        gc.disable()
        try:
            J = idal_from_ideal(["x", "y"], R2)
            res = reflect(J, PresentedModule(R2, 1, [("x",)]), 3)
            assert res.hom_chain.J is J
            alive = weakref.ref(J)
            del J, res
            assert alive() is None
        finally:
            gc.enable()

    def test_chain_outliving_its_idal_says_so(self, R2):
        O = unit_module(R2)
        chain = HomChain.of(idal_from_ideal(["x", "y"], R2), O, O)
        with pytest.raises(ReferenceError):
            chain.stage(1)

    def test_long_chain_stays_small(self, R2, Jxy):
        # O/(x) away from the origin is k[y, 1/y]: no stabilization, and
        # stage n is O/(x) in degree -n, one generator and one relation
        M = PresentedModule(R2, 1, [("x",)])
        res = reflect(Jxy, M, 24)
        assert res.chain.truncated and res.chain.stabilized_at is None
        assert res.value.gens == 1 and res.value.grading == (-24,)
        value = PresentedModule(R2, 1, res.value.relations)
        assert value.contains_column((R2.var("x"),))
        assert all(M.contains_column(col) for col in value.relations)
        assert all(len(s.relations) == 1 for s in res.chain.stages)


class TestDeligneHom:
    def test_identity_idal(self, R1):
        M = unit_module(R1)
        N = PresentedModule(R1, 1, [("x",)])
        res = deligne_hom(Idal.identity(R1), M, N, 4)
        assert res.chain.stabilized_at == 0
        assert res.value.presentation_key() == hom_module(M, N).module.presentation_key()

    def test_punctured_plane_endomorphisms(self, R2, Jxy):
        O = unit_module(R2)
        res = deligne_hom(Jxy, O, O, 5)
        assert res.chain.stabilized_at is not None
        w = ModuleMap(O, res.value, [[res.value.ring.one()] if res.value.gens else []
                                     for _ in range(res.value.gens)], check=False)
        assert res.value.gens == 1 and is_iso(w)

    def test_killed_target_collapses(self, R1, Ix):
        O = unit_module(R1)
        k = PresentedModule(R1, 1, [("x",)])
        res = deligne_hom(Ix, O, k, 6)
        assert res.chain.stabilized_at == 1
        assert res.value.is_zero_module()

    def test_interpret_at_value(self, R2, Jxy):
        O = unit_module(R2)
        res = deligne_hom(Jxy, O, O, 5)
        matrix = res.interpret([res.value.ring.one()])
        assert any(not p.is_zero() for row in matrix for p in row)


class TestLocalizationOracle:
    def test_inverting_one(self, R1):
        M = PresentedModule(R1, 1, [("x",)])
        out = localization_oracle("1", M)
        assert out.is_zero_module() == M.is_zero_module()
        assert graded_dim(out, 0) == graded_dim(M, 0)

    def test_kills_torsion(self, R1):
        out = localization_oracle("x", PresentedModule(R1, 1, [("x",)]))
        assert out.is_zero_module()

    def test_laurent_dims(self, R1):
        out = localization_oracle("x", unit_module(R1))
        assert [graded_dim(out, d) for d in range(-5, 6)] == [1] * 11

    def test_window_agreement_with_deligne(self, R1, Ix):
        rng = random.Random(31)
        O = unit_module(R1)
        for _ in range(5):
            M = random_graded_module_1var(R1, rng)
            oracle = localization_oracle("x", M)
            want = {d: graded_dim(oracle, d) for d in range(-5, 6)}
            got8 = deligne_window_dims(Ix, O, M, 8, range(-5, 6))
            got9 = deligne_window_dims(Ix, O, M, 9, range(-5, 6))
            assert got8 == want and got9 == want


class TestQuotientFunctor:
    def test_identity_idal_kills_everything(self, R1):
        M = PresentedModule(R1, 1, [("x",)])
        assert quotient_functor(Idal.identity(R1), M).is_zero_module()

    def test_principal(self, R1, Ix):
        Q = quotient_functor(Ix, unit_module(R1))
        assert [graded_dim(Q, d) for d in range(3)] == [1, 0, 0]

    def test_conormal_shape(self, R2, Jxy):
        Q = quotient_functor(Jxy, Jxy.carrier)
        assert [graded_dim(Q, d) for d in (1, 2, 3)] == [2, 0, 0]

    def test_quotient_kills_the_idal(self, R1, R2):
        rng = random.Random(32)
        for ring in (R1, R2):
            for _ in range(4):
                I = random_idal(ring, rng)
                M = random_module(ring, rng)
                C, proj = cokernel(I.e)
                killed = tensor_map(ModuleMap.identity(M), proj.compose(I.e))
                target = tensor(M, C)
                killed = ModuleMap(killed.source, target, killed.matrix, check=False)
                assert killed.is_zero_map()


class TestIntersection:
    def test_identity_pair(self, R2):
        assert intersection_check(Idal.identity(R2), Idal.identity(R2), unit_module(R2))

    def test_disjoint_principal(self, R1):
        I = idal_from_ideal(["x"], R1)
        J = idal_from_ideal(["x-1"], R1)
        O = unit_module(R1)
        assert not believes(I, O) and not believes(J, O)
        assert not believes(idal_product(I, J), O)
        assert intersection_check(I, J, O)

    def test_mixed_with_identity(self, R2, Jxy):
        assert intersection_check(Jxy, Idal.identity(R2), unit_module(R2))

    def test_randomized(self, R1, R2):
        rng = random.Random(33)
        for ring in (R1, R2):
            for _ in range(8):
                assert intersection_check(random_idal(ring, rng),
                                          random_idal(ring, rng),
                                          random_module(ring, rng))


class TestComparisonSearch:
    def test_reflexive(self, R1, Ix):
        n, morphism = idal_comparison_search(Ix, Ix, 3)
        assert n == 1
        assert morphism.f.equals(ModuleMap.identity(Ix.carrier))

    def test_square_through_linear(self, R1, Ix):
        J = idal_from_ideal(["x^2"], R1)
        n, morphism = idal_comparison_search(Ix, J, 3)
        assert n == 1
        assert str(morphism.f.matrix[0][0]) == "x"

    def test_incomparable(self, R2):
        I = idal_from_ideal(["x"], R2)
        J = idal_from_ideal(["y"], R2)
        assert idal_comparison_search(I, J, 4) is None

    def test_nilpotency_collapse(self):
        Q3 = PolyRing(QQ, ["x"], quotient=["x^3"])
        O = unit_module(Q3)
        e = Idal.from_map(ModuleMap(O, O, [["x"]]))
        n = nilpotency_check(e, 8)
        assert n == 3
        res = reflect(e, O, 8)
        assert res.chain.stabilized_at is not None
        assert res.chain.stabilized_at <= n
        assert res.value.is_zero_module()


class TestChainResultInvariants:
    def test_unsaturated_transitions_are_isos(self, R2, Jxy):
        res = reflect(Jxy, unit_module(R2), 5)
        n = res.chain.stabilized_at
        assert not res.chain.saturated
        assert is_iso(res.chain.transitions[n])
        assert is_iso(res.chain.transitions[n + 1])

    def test_saturated_transitions_are_isos(self, R1, Ix):
        M = PresentedModule(R1, 2, [("x", "0"), ("0", "x-1")])
        res = reflect(Ix, M, 8)
        assert res.chain.saturated
        for t in res.chain.saturated_transitions:
            assert is_iso(t)
