import random

import pytest

from idals import (
    GF,
    QQ,
    ModuleMap,
    PolyRing,
    PresentedModule,
    cokernel,
    direct_sum,
    free_module,
    graded_dim,
    hom_module,
    invert_iso,
    is_iso,
    is_zero,
    kernel,
    pullback,
    pushout,
    tensor,
    tensor_map,
    tensor_power,
    unit_module,
    zero_module,
)
from idals.errors import (AlgebraError, GradingError, LiftError, UngradedError,
                          WellDefinednessError)
from idals.fpmod import _column_vec, _vec_column, column_rank, tensor_permutation
from idals.polyring import Poly, SubmoduleLifter, _module_gb

import rank_oracle
from conftest import random_homogeneous_module, random_module, random_poly


@pytest.fixture
def xy_ideal_module(R2):
    return PresentedModule(R2, 2, [("y", R2.poly("-x"))], grading=[1, 1])


class TestEquality:
    def test_a_module_equals_itself_without_rendering(self, monkeypatch, xy_ideal_module):
        # comparing a module with itself is the common case (a map's source
        # against the carrier it was built on) and reads no presentation
        def refuse(M):
            raise AssertionError("rendered a presentation")

        monkeypatch.setattr(PresentedModule, "presentation_key", refuse)
        M = xy_ideal_module
        assert M == M and not M != M


class TestIsZero:
    def test_unit_relation(self, R1):
        assert is_zero(PresentedModule(R1, 1, [("1",)]))

    def test_free_rank_one(self, R1):
        assert not is_zero(unit_module(R1))

    def test_comaximal_relations(self, R1):
        assert is_zero(PresentedModule(R1, 1, [("x",), ("x-1",)]))

    def test_no_generators(self, R1):
        assert is_zero(zero_module(R1))

    @pytest.mark.parametrize("gens", [-2, -1, 1.7, True, False, "1", None])
    def test_generator_count_is_a_non_negative_int(self, R1, gens):
        # PresentedModule(R, -2) was a "module" whose is_zero_module() held
        with pytest.raises(AlgebraError, match="generator count must be a non-negative integer"):
            PresentedModule(R1, gens)
        with pytest.raises(AlgebraError, match="generator count must be a non-negative integer"):
            PresentedModule.from_json({"gens": gens}, R1)

    @pytest.mark.parametrize("grading", [[0.5], [True], ["0"], [1.0]])
    def test_grading_entries_are_ints(self, R1, grading):
        with pytest.raises(AlgebraError, match="grading entries must be integers") as info:
            PresentedModule(R1, 1, (), grading)
        assert not isinstance(info.value, GradingError)


class TestKernelCokernel:
    def test_kernel_of_identity_vanishes(self, R1):
        K, _ = kernel(ModuleMap.identity(unit_module(R1)))
        assert K.is_zero_module()

    def test_kernel_of_zero_map_is_source(self, R1):
        M = PresentedModule(R1, 1, [("x^2",)])
        K, incl = kernel(ModuleMap.zero(M, unit_module(R1)))
        assert is_iso(incl)

    def test_koszul_kernel(self, R2):
        phi = ModuleMap(free_module(R2, 2), unit_module(R2), [["x", "y"]])
        K, incl = kernel(phi)
        assert K.gens == 1
        assert [str(p) for p in incl.column(0)] == ["y", "-x"]
        assert phi.compose(incl).is_zero_map()

    def test_cokernel_of_identity(self, R1):
        C, _ = cokernel(ModuleMap.identity(unit_module(R1)))
        assert C.is_zero_module()

    def test_cokernel_from_zero_module(self, R1):
        M = PresentedModule(R1, 1, [("x",)])
        C, proj = cokernel(ModuleMap.zero(zero_module(R1), M))
        assert is_iso(proj)

    def test_cokernel_of_multiplication(self, R1):
        C, _ = cokernel(ModuleMap(unit_module(R1), unit_module(R1), [["x"]]))
        assert [graded_dim(C, d) for d in range(3)] == [1, 0, 0]

    def test_exactness_spot_checks(self, R2):
        rng = random.Random(11)
        for _ in range(8):
            M = random_module(R2, rng)
            N = random_module(R2, rng)
            matrix = [[random_poly(R2, rng) for _ in range(M.gens)]
                      for _ in range(N.gens)]
            try:
                phi = ModuleMap(M, N, matrix)
            except WellDefinednessError:
                continue
            K, incl = kernel(phi)
            C, proj = cokernel(phi)
            assert phi.compose(incl).is_zero_map()
            assert proj.compose(phi).is_zero_map()


class TestTensor:
    def test_unit_law_witnessed(self, R2, xy_ideal_module):
        M = xy_ideal_module
        T = tensor(M, unit_module(R2))
        assert T.presentation_key() == M.presentation_key()
        w = ModuleMap(M, T, ModuleMap.identity(M).matrix)
        assert is_iso(w)

    def test_torsion_product(self):
        R = PolyRing(QQ, ["x"])
        k1 = PresentedModule(R, 1, [("x",)])
        k2 = PresentedModule(R, 1, [("x^2",)])
        T = tensor(k1, k2)
        w = ModuleMap(k1, T, [["1"]])
        assert is_iso(w)

    def test_ideal_square_shape(self, R2, xy_ideal_module):
        # reflected presentation of the ideal has two relation columns
        from idals import idal_from_ideal

        M = idal_from_ideal(["x", "y"], R2).carrier
        T = tensor(M, M)
        assert T.gens == 4
        assert len(T.relations) == 8

    def test_tensor_map_kronecker(self, R1):
        O = unit_module(R1)
        f = ModuleMap(O, O, [["x"]])
        g = ModuleMap(O, O, [["x+1"]])
        t = tensor_map(f, g)
        assert str(t.matrix[0][0]) == "x^2 + x"

    def test_tensor_strictly_associative(self, R2, xy_ideal_module):
        M = xy_ideal_module
        O = unit_module(R2)
        left = tensor(tensor(M, O), M)
        right = tensor(M, tensor(O, M))
        assert left.gens == right.gens
        assert set(tuple(str(p) for p in c) for c in left.relations) == \
            set(tuple(str(p) for p in c) for c in right.relations)

    def test_tensor_permutation_is_iso(self, R2, xy_ideal_module):
        M = xy_ideal_module
        N = PresentedModule(R2, 1, [("x",)])
        perm = tensor_permutation([M, N], [1, 0])
        assert is_iso(perm)


class TestHom:
    def test_hom_from_unit(self, R1):
        N = PresentedModule(R1, 1, [("x^2",)])
        H = hom_module(unit_module(R1), N)
        assert H.module.presentation_key() == N.presentation_key()

    def test_no_torsion_maps_into_free(self, R1):
        H = hom_module(PresentedModule(R1, 1, [("x",)]), unit_module(R1))
        assert H.module.is_zero_module()

    def test_reflexive_ideal(self, R2, xy_ideal_module):
        H = hom_module(xy_ideal_module, unit_module(R2))
        assert H.module.gens == 1 and not H.module.relations
        assert [[str(x) for x in row] for row in H.generator_map(0).matrix] == [["x", "y"]]

    def test_zero_hom_module(self, R1):
        M, N = PresentedModule(R1, 1, [("x",)]), unit_module(R1)
        H = hom_module(M, N)
        assert H.module.gens == 0
        assert H.interpret(()).equals(ModuleMap.zero(M, N))
        assert H.express(ModuleMap.zero(M, N)) == ()
        with pytest.raises(LiftError):
            H.express(ModuleMap(M, N, [["1"]], check=False))

    def test_express_interpret_roundtrip(self, R2, xy_ideal_module):
        H = hom_module(xy_ideal_module, unit_module(R2))
        phi = H.generator_map(0)
        coeffs = H.express(phi)
        assert H.interpret(coeffs).equals(phi)

    def test_hom_tensor_adjunction_dims(self, R2):
        rng = random.Random(12)
        for _ in range(4):
            M = random_homogeneous_module(R2, rng)
            N = random_homogeneous_module(R2, rng)
            P = random_homogeneous_module(R2, rng)
            H1 = hom_module(tensor(M, N), P).module
            H2 = hom_module(M, hom_module(N, P).module).module
            for d in range(-4, 5):
                assert graded_dim(H1, d) == graded_dim(H2, d)


class TestPullbackPushout:
    def test_diagonal(self, R1):
        M = PresentedModule(R1, 1, [("x^2",)])
        i = ModuleMap.identity(M)
        P, p1, p2 = pullback(i, i)
        assert is_iso(p1) and is_iso(p2)

    def test_pullback_over_zero(self, R1):
        M = PresentedModule(R1, 1, [("x",)])
        N = unit_module(R1)
        Z = zero_module(R1)
        P, p1, p2 = pullback(ModuleMap.zero(M, Z), ModuleMap.zero(N, Z))
        S, _, _ = direct_sum([M, N])
        stacked = ModuleMap(P, S,
                            [list(row) for row in p1.matrix] + [list(row) for row in p2.matrix],
                            check=False)
        assert is_iso(stacked)

    def test_pullback_of_scalings(self, R2):
        O = unit_module(R2)
        P, p1, p2 = pullback(ModuleMap(O, O, [["x"]]), ModuleMap(O, O, [["y"]]))
        assert P.gens == 1
        assert str(p1.matrix[0][0]) == "y" and str(p2.matrix[0][0]) == "x"

    def test_pushout_along_identity(self, R1):
        M = PresentedModule(R1, 1, [("x",)])
        i = ModuleMap.identity(M)
        P, i1, i2 = pushout(i, i)
        assert is_iso(i1) and is_iso(i2)

    def test_pushout_from_zero(self, R1):
        M = PresentedModule(R1, 1, [("x",)])
        N = unit_module(R1)
        Z = zero_module(R1)
        P, i1, i2 = pushout(ModuleMap.zero(Z, M), ModuleMap.zero(Z, N))
        S, incls, _ = direct_sum([M, N])
        glue = ModuleMap(S, P,
                         [[i1.matrix[i][j] for j in range(M.gens)] +
                          [i2.matrix[i][j] for j in range(N.gens)]
                          for i in range(P.gens)], check=False)
        assert is_iso(glue)

    def test_cover_square_pushout(self, R1):
        from idals import cover_check_pushout, idal_from_ideal

        I = idal_from_ideal(["x"], R1)
        J = idal_from_ideal(["x-1"], R1)
        assert cover_check_pushout(I, J)


class TestIsIso:
    def test_identity(self, R1):
        assert is_iso(ModuleMap.identity(unit_module(R1)))

    def test_zero_into_nonzero(self, R1):
        assert not is_iso(ModuleMap.zero(zero_module(R1), unit_module(R1)))

    def test_multiplication_not_iso(self, R1):
        O = unit_module(R1)
        assert not is_iso(ModuleMap(O, O, [["x"]]))

    def test_agrees_with_two_sided_inverse(self, R2):
        M = PresentedModule(R2, 2, [(R2.poly("-x"), R2.poly("1"))])
        f = ModuleMap(unit_module(R2), M, [["1"], ["0"]])
        assert is_iso(f)
        g = invert_iso(f)
        assert g.compose(f).equals(ModuleMap.identity(unit_module(R2)))
        assert f.compose(g).equals(ModuleMap.identity(M))


class TestGradedDim:
    def test_plane_counts(self, R2):
        assert graded_dim(unit_module(R2), 3) == 4

    def test_skyscraper(self, R1):
        k = PresentedModule(R1, 1, [("x",)])
        assert graded_dim(k, 0) == 1 and graded_dim(k, 1) == 0

    def test_ideal_module(self, R2, xy_ideal_module):
        assert graded_dim(xy_ideal_module, 1) == 2

    def test_ungraded_rejected(self, R1):
        M = PresentedModule(R1, 1, [("x-1",)])
        assert M.grading is None
        with pytest.raises(UngradedError):
            graded_dim(M, 0)

    def test_bad_grading_rejected(self, R2):
        with pytest.raises(GradingError):
            PresentedModule(R2, 2, [("y", R2.poly("-x"))], grading=[0, 1])


class TestWellDefinedness:
    def test_rejected(self, R1):
        k = PresentedModule(R1, 1, [("x",)])
        with pytest.raises(WellDefinednessError):
            ModuleMap(k, unit_module(R1), [["1"]])

    def test_map_equality_mod_relations(self, R1):
        k = PresentedModule(R1, 1, [("x",)])
        a = ModuleMap(k, k, [["1"]])
        b = ModuleMap(k, k, [["x+1"]])
        assert a.equals(b)


# ---------------------------------------------------------------------------
# lifts, normal forms, coordinates and span keys against the engine


def _engine_lift(phi, col):
    """The lift as the callers of `ModuleMap.lift` used to build it: a tracked
    basis of the map columns followed by the target relations."""
    ring = phi.ring
    cols = [_column_vec(c) for c in phi.columns()] + \
           [_column_vec(c) for c in phi.target.relations]
    cof = SubmoduleLifter(ring, cols, phi.target.gens).lift(_column_vec(col))
    if cof is None:
        return None
    return tuple(Poly(ring, ring.reduce_terms(cof[j])) for j in range(phi.source.gens))


def _engine_remainder(M, col):
    """The remainder of col by a tracked basis of M's relations; normal forms
    are unique, so it is the normal form whichever basis reduces it."""
    lifter = SubmoduleLifter(M.ring, [_column_vec(c) for c in M.relations], M.gens)
    rem, _ = lifter.reduce(_column_vec(col))
    return rem


def _random_column(ring, rng, gens, deg=2):
    return tuple(random_poly(ring, rng, deg) for _ in range(gens))


def _homogeneous_column(ring, rng, shifts, d):
    """A random homogeneous column of degree d over generators of `shifts`."""
    from idals.polyring import monomials_of_degree

    col = []
    for a in shifts:
        p = ring.zero()
        for m in monomials_of_degree(ring, d - a):
            c = rng.choice([0, 1, -1, 2])
            if c:
                p = p + ring.monomial(m, c)
        col.append(p)
    return tuple(col)


def _image_column(phi, rng):
    """phi of a random source column plus a random multiple of each target
    relation: a column in the image modulo the target relations."""
    ring = phi.ring
    col = phi.apply_column(_random_column(ring, rng, phi.source.gens, 1))
    for rel in phi.target.relations:
        c = random_poly(ring, rng, 1)
        col = tuple(a + c * b for a, b in zip(col, rel))
    return col


LIFT_RINGS = {
    "QQ": PolyRing(QQ, ["x", "y"]),
    "GF7": PolyRing(GF(7), ["x", "y"]),
    "quotient": PolyRing(QQ, ["x", "y"], quotient=["x^2 - y^3"]),
    "graded-quotient": PolyRing(QQ, ["x", "y"], quotient=["x*y"]),
}


def _seeded_map(ring, rng, graded):
    """A map from a free module (of rank 0 to 3) to a random module."""
    if graded:
        N = random_homogeneous_module(ring, rng)
        k = rng.randint(0, 3)
        degrees = [rng.randint(1, 2) for _ in range(k)]
        cols = [_homogeneous_column(ring, rng, N.grading, d) for d in degrees]
        src = free_module(ring, k, degrees)
    else:
        N = random_module(ring, rng)
        k = rng.randint(0, 3)
        cols = [_random_column(ring, rng, N.gens) for _ in range(k)]
        src = free_module(ring, k)
    matrix = [[cols[j][i] for j in range(k)] for i in range(N.gens)]
    return ModuleMap(src, N, matrix, check=False)


class TestLiftNormalForm:
    # x^2 - y^3 is not homogeneous, so that ring has no graded case
    @pytest.mark.parametrize("ring_name,graded", [
        (name, graded) for name in sorted(LIFT_RINGS) for graded in (False, True)
        if not (graded and name == "quotient")])
    @pytest.mark.parametrize("seed", range(6))
    def test_lift_matches_engine(self, ring_name, graded, seed):
        ring = LIFT_RINGS[ring_name]
        rng = random.Random(1000 * seed + len(ring_name))
        phi = _seeded_map(ring, rng, graded)
        assert phi.is_homogeneous() or not graded
        cols = [_image_column(phi, rng) for _ in range(3)]
        cols += [_random_column(ring, rng, phi.target.gens) for _ in range(3)]
        for col in cols:
            got = phi.lift(col)
            assert got == _engine_lift(phi, col)
            if got is not None:
                back = phi.apply_column(got)
                assert phi.target.contains_column(tuple(a - b for a, b in zip(back, col)))
        for col in cols[:3]:
            assert phi.lift(col) is not None

    @pytest.mark.parametrize("ring_name", sorted(LIFT_RINGS))
    @pytest.mark.parametrize("seed", range(6))
    def test_kernel_inclusion_lifts(self, ring_name, seed):
        # a source with relations: the inclusion of a kernel
        ring = LIFT_RINGS[ring_name]
        rng = random.Random(seed)
        K, incl = kernel(_seeded_map(ring, rng, False))
        for _ in range(3):
            col = _image_column(incl, rng)
            got = incl.lift(col)
            assert got is not None and got == _engine_lift(incl, col)
            back = incl.apply_column(got)
            assert incl.target.contains_column(tuple(a - b for a, b in zip(back, col)))

    def test_zero_generator_source(self, R2):
        N = PresentedModule(R2, 2, [("x", "y")])
        phi = ModuleMap(zero_module(R2), N, [[], []], check=False)
        assert phi.lift((R2.poly("x*y"), R2.poly("y^2"))) == ()
        assert phi.lift((R2.zero(), R2.zero())) == ()
        assert phi.lift((R2.one(), R2.zero())) is None
        assert _engine_lift(phi, (R2.one(), R2.zero())) is None

    def test_column_outside_the_image(self, R2):
        phi = ModuleMap(free_module(R2, 1), unit_module(R2), [["x"]])
        assert phi.lift((R2.poly("x*y + x"),)) == (R2.poly("y + 1"),)
        for text in ("1", "y", "x + y"):
            assert phi.lift((R2.poly(text),)) is None
            assert _engine_lift(phi, (R2.poly(text),)) is None

    def test_iso_inverse_through_lift(self, R2):
        phi = ModuleMap(free_module(R2, 2), free_module(R2, 2), [["1", "x"], ["0", "1"]])
        psi = invert_iso(phi)
        assert phi.compose(psi).equals(ModuleMap.identity(phi.target))
        assert [[str(p) for p in row] for row in psi.matrix] == [["1", "-x"], ["0", "1"]]

    @pytest.mark.parametrize("ring_name", sorted(LIFT_RINGS))
    @pytest.mark.parametrize("seed", range(6))
    def test_normal_form_matches_engine(self, ring_name, seed):
        ring = LIFT_RINGS[ring_name]
        rng = random.Random(seed + 77)
        M = random_module(ring, rng, gens_max=3, cols_max=3)
        cols = [_random_column(ring, rng, M.gens, 3) for _ in range(4)]
        for col in cols:
            nf = M.normal_form(col)
            assert nf == _vec_column(ring, M.gens, M.reduce_vec(_column_vec(col)))
            assert _column_vec(nf) == _engine_remainder(M, col)
            assert all(p == ring.poly(p) for p in nf)      # in the ring's normal form
            assert M.contains_column(tuple(a - b for a, b in zip(col, nf)))
            assert M.normal_form(nf) == nf
            for rel in M.relations:
                shifted = tuple(a + ring.poly("x - y") * b for a, b in zip(col, rel))
                assert M.normal_form(shifted) == nf

    @pytest.mark.parametrize("ring_name", sorted(LIFT_RINGS))
    @pytest.mark.parametrize("seed", range(4))
    def test_coordinates_match_engine(self, ring_name, seed):
        ring = LIFT_RINGS[ring_name]
        rng = random.Random(seed + 555)
        M = random_module(ring, rng, gens_max=3, cols_max=3)
        cols = [_random_column(ring, rng, M.gens, 2) for _ in range(5)]
        remainders = [_engine_remainder(M, c) for c in cols]
        support = sorted({k for r in remainders for k in r})
        zero = ring.field.zero()
        expected = [[r.get(k, zero) for k in support] for r in remainders]
        assert rank_oracle.coordinates(M, cols) == expected
        assert rank_oracle.coordinates(M, []) == []
        assert column_rank((M, cols)) == rank_oracle.rank(expected, ring.field)

    def test_coordinates_rank_counts_independent_columns(self, R1):
        M = PresentedModule(R1, 1, [("x^2",)])
        cols = [(R1.poly(t),) for t in ("1", "x", "x + 1", "x^2", "x^3 + 2")]
        rows = rank_oracle.coordinates(M, cols)
        assert len(rows) == 5 and all(len(r) == 2 for r in rows)
        assert rank_oracle.rank(rows, R1.field) == 2
        assert column_rank((M, cols)) == 2

    @pytest.mark.parametrize("ring_name", sorted(LIFT_RINGS))
    @pytest.mark.parametrize("seed", range(4))
    def test_span_key_matches_engine(self, ring_name, seed):
        ring = LIFT_RINGS[ring_name]
        rng = random.Random(seed + 31)
        M = random_module(ring, rng, gens_max=2, cols_max=2)
        extra = [_random_column(ring, rng, M.gens) for _ in range(2)]
        rel_vecs = [_column_vec(c) for c in M.relations]
        assert M.span_key(extra) == _module_gb(
            rel_vecs + [_column_vec(c) for c in extra], ring, M.gens)
        assert M.span_key([]) == _module_gb(rel_vecs, ring, M.gens)
        # adding a combination of what is already there keeps the span
        combo = tuple(ring.poly("y") * a - b for a, b in zip(extra[0], extra[1]))
        assert M.span_key(extra + [combo]) == M.span_key(extra)
        assert M.span_key(list(reversed(extra))) == M.span_key(extra)

    def test_span_key_separates_spans(self, R2):
        M = PresentedModule(R2, 1, [("x^2",)])

        def key(*texts):
            return M.span_key([(R2.poly(t),) for t in texts])

        assert key("x") != key()
        assert key("x^3") == key("x^2 + x^4") == key()
        assert key("x", "y") == key("x + y", "y")


# ---------------------------------------------------------------------------
# kernel columns without the kernel's presentation


KERNEL_RINGS = {"QQ": PolyRing(QQ, ["x", "y"]), "GF5": PolyRing(GF(5), ["x", "y"])}


def _maps_with_kernels(ring, rng):
    """A seeded map from a free module, the projection of its target onto
    the cokernel, the inclusion of its kernel, that inclusion composed with
    the map (zero), and a map out of a source with relations."""
    phi = _seeded_map(ring, rng, False)
    K, incl = kernel(phi)
    _, proj = cokernel(phi)
    M = random_module(ring, rng)
    to_free = _seeded_map(ring, rng, False)
    back = ModuleMap(M, unit_module(ring), [[random_poly(ring, rng, 1) for _ in range(M.gens)]],
                     check=False)
    return [phi, proj, incl, phi.compose(incl), to_free, back]


@pytest.mark.parametrize("ring_name", sorted(KERNEL_RINGS))
@pytest.mark.parametrize("seed", range(8))
def test_kernel_columns_are_the_inclusion_columns(ring_name, seed):
    from idals.fpmod import iso_failure_certificate, kernel_columns

    ring = KERNEL_RINGS[ring_name]
    rng = random.Random(f"kernel-columns-{ring_name}-{seed}")
    for f in _maps_with_kernels(ring, rng):
        K, incl = kernel(f)
        cols = kernel_columns(f)
        assert cols == [incl.column(j) for j in range(K.gens)]
        assert (not cols) == K.is_zero_module()
        C, _ = cokernel(f)
        assert is_iso(f) == (C.is_zero_module() and K.is_zero_module())
        cert = iso_failure_certificate(f)
        if C.is_zero_module() and not K.is_zero_module():
            assert cert == {"kind": "kernel_element", "column": [str(p) for p in incl.column(0)]}
        elif C.is_zero_module():
            assert cert is None
