import gc
import itertools
import random
import re
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from idals import (
    GF,
    QQ,
    FreeVector,
    Poly,
    PolyRing,
    PresentedModule,
    RingHom,
    divide_with_cofactors,
    graded_dims,
    groebner,
    normal_form,
    syzygies,
)
from idals import polyring
from idals.errors import AlgebraError, VariableMismatchError
from idals.polyring import SubmoduleLifter, mono_divides, monomials_of_degree

from conftest import random_poly
from reducer_oracle import mono_lcm


class TestNormalForm:
    def test_relation_reduces_to_zero(self):
        Q = PolyRing(QQ, ["x"], quotient=["x^2"])
        assert Q.poly("x^2").is_zero()

    def test_lex_localization_step(self):
        L = PolyRing(QQ, ["t", "x"], order="lex", quotient=["t*x-1"])
        assert L.poly("x*t").is_one()

    def test_free_ring_sorts_terms(self):
        R = PolyRing(QQ, ["x", "y"])
        p = R.poly("y + x^2 + x*y")
        assert str(p) == "x^2 + x*y + y"

    def test_idempotent(self, R2):
        rng = random.Random(1)
        Q = PolyRing(QQ, ["x", "y"], quotient=["x^2 - y"])
        for _ in range(25):
            p = random_poly(Q, rng, deg=3)
            assert normal_form(p, Q) == p

    def test_variable_mismatch(self, R1):
        with pytest.raises(VariableMismatchError):
            R1.poly("z + 1")

    @pytest.mark.parametrize("name", ["x y", "2x", "", "x+y", "x^2", " x", "x\n", "é", 5, None])
    def test_variable_names_the_parser_cannot_read_are_refused(self, name):
        # such a ring failed later, on its first parse or its repr
        with pytest.raises(AlgebraError, match=r"^bad variable name " + re.escape(repr(name))):
            PolyRing(QQ, ["x0", name])

    def test_a_variable_name_is_exactly_one_identifier_token(self):
        alphabet = ["a", "Z", "_", "0", "9", " ", "+", "é", "\n", "ǅ", "٣"]
        for name in itertools.chain(alphabet, map("".join, itertools.product(alphabet, repeat=2))):
            token = re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name) is not None
            try:
                PolyRing(QQ, [name])
                accepted = True
            except AlgebraError:
                accepted = False
            assert accepted == token, repr(name)

    @pytest.mark.parametrize("name", ["x", "_", "x_1", "Ti", "t2x"])
    def test_identifier_variable_names_parse_back(self, name):
        R = PolyRing(QQ, [name, "z"])
        assert R.poly(f"2*{name}^2 - {name}*z") == R.var(name) ** 2 * 2 - R.var(name) * R.var("z")
        assert repr(R) == f"QQ[{name}, z]"


class TestGroebner:
    def test_already_reduced(self, R2):
        gb = groebner([R2.poly("x"), R2.poly("y")], R2)
        assert [str(g) for g in gb] == ["x", "y"]

    def test_unit_ideal(self, R1):
        gb = groebner([R1.poly("x-1"), R1.poly("x")], R1)
        assert [str(g) for g in gb] == ["1"]

    def test_buchberger_example(self, R2):
        gb = groebner([R2.poly("x^2+y^2"), R2.poly("x*y")], R2)
        assert "y^3" in {str(g) for g in gb}

    def test_spolys_reduce_to_zero(self, R2):
        rng = random.Random(2)
        for _ in range(10):
            gens = [random_poly(R2, rng, deg=3, zero_ok=False) for _ in range(3)]
            gb = groebner(gens, R2)
            free = R2.free()
            for i in range(len(gb)):
                for j in range(i + 1, len(gb)):
                    ei, ci = gb[i].leading_term()
                    ej, cj = gb[j].leading_term()
                    lcm = mono_lcm(ei, ej)
                    si = free.monomial(tuple(a - b for a, b in zip(lcm, ei)))
                    sj = free.monomial(tuple(a - b for a, b in zip(lcm, ej)))
                    inv = free.field.inv
                    sp = gb[i] * si.scale(inv(ci)) - gb[j] * sj.scale(inv(cj))
                    rem, _ = divide_with_cofactors(
                        FreeVector(free, [sp]), [FreeVector(free, [g]) for g in gb])
                    assert rem.is_zero()

    def test_empty_generators_rejected(self, R1):
        with pytest.raises(AlgebraError):
            groebner([], R1)

    def test_deterministic(self, R2):
        rng1, rng2 = random.Random(3), random.Random(3)
        g1 = [random_poly(R2, rng1, 3, zero_ok=False) for _ in range(3)]
        g2 = [random_poly(R2, rng2, 3, zero_ok=False) for _ in range(3)]
        assert [str(p) for p in groebner(g1, R2)] == [str(p) for p in groebner(g2, R2)]


class TestDivideWithCofactors:
    def test_zero_input(self, R2):
        basis = [FreeVector(R2, ["x", "0"])]
        rem, cof = divide_with_cofactors(FreeVector(R2, ["0", "0"]), basis)
        assert rem.is_zero() and all(c.is_zero() for c in cof)

    def test_basis_element(self, R2):
        b = FreeVector(R2, ["x", "y"])
        rem, cof = divide_with_cofactors(b, [b])
        assert rem.is_zero() and cof[0].is_one()

    def test_single_step(self, R1):
        RR = PolyRing(QQ, ["x"])
        rem, cof = divide_with_cofactors(
            FreeVector(RR, ["x^2", "0"]), [FreeVector(RR, ["x", "0"])])
        assert rem.is_zero() and str(cof[0]) == "x"

    def test_reconstruction(self, R2):
        rng = random.Random(4)
        for _ in range(15):
            rank = rng.randint(1, 2)
            basis = [FreeVector(R2, [random_poly(R2, rng) for _ in range(rank)])
                     for _ in range(2)]
            v = FreeVector(R2, [random_poly(R2, rng, 3) for _ in range(rank)])
            rem, cof = divide_with_cofactors(v, basis)
            for pos in range(rank):
                acc = rem.entries[pos]
                for c, b in zip(cof, basis):
                    acc = acc + c * b.entries[pos]
                assert acc == v.entries[pos]

    def test_quotient_ring_reconstruction(self):
        Q = PolyRing(QQ, ["x"], quotient=["x^3"])
        v = FreeVector(Q, ["x^2 + x"])
        basis = [FreeVector(Q, ["x"])]
        rem, cof = divide_with_cofactors(v, basis)
        assert (cof[0] * basis[0].entries[0] + rem.entries[0]) == v.entries[0]


class TestSyzygies:
    def test_free_basis_has_none(self, R2):
        e1 = FreeVector(R2, ["1", "0"])
        e2 = FreeVector(R2, ["0", "1"])
        assert syzygies([e1, e2], R2) == []

    def test_koszul(self, R2):
        out = syzygies([FreeVector(R2, ["x"]), FreeVector(R2, ["y"])], R2)
        assert len(out) == 1
        assert [str(p) for p in out[0].entries] == ["y", "-x"]

    def test_quotient_torsion(self):
        Q = PolyRing(QQ, ["x"], quotient=["x^2"])
        out = syzygies([FreeVector(Q, ["x"])], Q)
        assert [[str(p) for p in s.entries] for s in out] == [["x"]]

    def test_annihilation(self, R2):
        rng = random.Random(5)
        for _ in range(10):
            rank = rng.randint(1, 2)
            gens = [FreeVector(R2, [random_poly(R2, rng) for _ in range(rank)])
                    for _ in range(3)]
            for s in syzygies(gens, R2):
                for pos in range(rank):
                    acc = R2.zero()
                    for c, g in zip(s.entries, gens):
                        acc = acc + c * g.entries[pos]
                    assert acc.is_zero()


class TestCoefficients:
    def test_rational_lowest_terms(self):
        R = PolyRing(QQ, ["x"])
        p = R.poly("2/4*x")
        assert str(p) == "1/2*x"
        assert p.terms[(1,)] == Fraction(1, 2)

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
    def test_floats_are_refused(self, field):
        R = PolyRing(field, ["x"])
        entries = (field.of, R.var("x").scale, R.constant, lambda c: R.monomial((1,), c))
        for bad in (0.1, 2.7, 1.0, Decimal("0.5")):
            for coerce in entries:
                with pytest.raises(AlgebraError, match="exact rational"):
                    coerce(bad)

    def test_prime_field(self):
        F = PolyRing(GF(5), ["x"])
        p = F.poly("7*x + 6")
        assert str(p) == "(2 mod 5)*x + (1 mod 5)"
        assert F.poly(str(p)) == p

    def test_nonprime_rejected(self):
        with pytest.raises(AlgebraError):
            GF(6)

    def test_primality_agrees_with_trial_division_below_10_4(self):
        def trial(n):
            return n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))

        for n in range(-3, 10 ** 4):
            if not n:
                continue   # p == 0 is the rationals
            if trial(n):
                assert GF(n).p == n
            else:
                with pytest.raises(AlgebraError, match=f"^{n} is not prime$"):
                    GF(n)

    def test_large_primes_build_quickly(self):
        for p in (2 ** 61 - 1, 10 ** 19 + 51, polyring.PRIME_BOUND - 10):
            started = time.perf_counter()
            is_prime = polyring._is_prime(p)
            assert time.perf_counter() - started < 0.1
            assert is_prime == (p != polyring.PRIME_BOUND - 10)
        started = time.perf_counter()
        assert GF(2 ** 61 - 1).p == 2 ** 61 - 1
        assert time.perf_counter() - started < 0.1

    def test_strong_pseudoprimes_are_composite(self):
        # strong pseudoprimes to the bases 2..7, 2..23 and 2..37, with a factor each
        for n, factor in ((3215031751, 151), (3825123056546413051, 149491),
                          (polyring.PRIME_BOUND, 399165290221)):
            assert n % factor == 0
        for n in (3215031751, 3825123056546413051, 10 ** 19 + 53):
            with pytest.raises(AlgebraError, match=f"^{n} is not prime$"):
                GF(n)

    def test_characteristic_beyond_the_exact_bound_is_refused(self):
        # the bound itself is composite but a strong pseudoprime to all 12 bases
        for p in (polyring.PRIME_BOUND, 2 ** 89 - 1, 10 ** 5000):
            with pytest.raises(AlgebraError, match="too large"):
                GF(p)

    def test_coefficient_with_two_slashes_is_an_algebra_error(self):
        R = PolyRing(QQ, ["x"])
        for call in (lambda: QQ.parse_coeff("1/2/3"), lambda: GF(5).parse_coeff("1/2/3"),
                     lambda: QQ.of("1/2/3"), lambda: R.constant(" 1/2/3 "),
                     lambda: R.var("x").scale("1/2/3")):
            with pytest.raises(AlgebraError, match="'1/2/3'"):
                call()
        with pytest.raises(AlgebraError, match="more than one '/'"):
            QQ.parse_coeff("1//2")

    def test_zero_variable_ring(self):
        Z = PolyRing(QQ, [])
        assert str(Z.poly("3/4 - 1/4")) == "1/2"
        assert [str(g) for g in groebner([Z.poly("2")], Z)] == ["1"]


coeffs = st.integers(min_value=-4, max_value=4)
exps = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def poly_terms(draw):
    return draw(st.dictionaries(exps, coeffs, max_size=5))


class TestPropertyBased:
    @given(poly_terms())
    @settings(max_examples=60, deadline=None)
    def test_parse_roundtrip(self, terms):
        R = PolyRing(QQ, ["x", "y"])
        p = R.zero()
        for e, c in terms.items():
            p = p + R.monomial(e, c)
        assert R.poly(str(p)) == p

    @given(poly_terms(), poly_terms())
    @settings(max_examples=60, deadline=None)
    def test_quotient_normal_form_is_congruence(self, t1, t2):
        Q = PolyRing(QQ, ["x", "y"], quotient=["x^2 - y"])
        p = Q.zero()
        q = Q.zero()
        for e, c in t1.items():
            p = p + Q.monomial(e, c)
        for e, c in t2.items():
            q = q + Q.monomial(e, c)
        # p = q iff p - q lies in the quotient ideal
        assert (p == q) == (p - q).is_zero()

    @given(poly_terms(), poly_terms())
    @settings(max_examples=40, deadline=None)
    def test_product_commutes(self, t1, t2):
        Q = PolyRing(QQ, ["x", "y"], quotient=["x^3", "y^2"])
        p, q = Q.zero(), Q.zero()
        for e, c in t1.items():
            p = p + Q.monomial(e, c)
        for e, c in t2.items():
            q = q + Q.monomial(e, c)
        assert p * q == q * p


class TestRingHom:
    def test_quotient_compatibility_enforced(self):
        Q2 = PolyRing(QQ, ["x"], quotient=["x^2"])
        Q3 = PolyRing(QQ, ["x"], quotient=["x^3"])
        RingHom(Q3, Q2, {"x": "x"})  # x^3 maps to 0 mod x^2
        with pytest.raises(AlgebraError):
            RingHom(Q2, Q3, {"x": "x"})  # x^2 does not vanish mod x^3

    def test_composition(self):
        A = PolyRing(QQ, ["x"])
        B = PolyRing(QQ, ["u", "v"])
        h = RingHom(A, B, {"x": "u + v"})
        idb = RingHom(B, B, {"u": "u", "v": "v"})
        assert str(idb.compose(h).apply(A.poly("x^2"))) == "u^2 + 2*u*v + v^2"


class TestMonomialEnumeration:
    def test_free_plane_counts(self, R2):
        assert len(monomials_of_degree(R2, 3)) == 4
        assert monomials_of_degree(R2, 0) == [(0, 0)]
        assert monomials_of_degree(R2, -1) == []

    def test_localization_strata(self):
        L = PolyRing(QQ, ["x", "xi"], quotient=["x*xi-1"], weights=[1, -1])
        for d in range(-4, 5):
            assert len(monomials_of_degree(L, d)) == 1

    def test_quotient_truncation(self):
        Q = PolyRing(QQ, ["x"], quotient=["x^3"])
        assert [len(monomials_of_degree(Q, d)) for d in range(5)] == [1, 1, 1, 0, 0]

    def test_window_leaves_no_reference_cycle(self, R2):
        M = PresentedModule(R2, 2, [("x", "y")], grading=[0, 0])
        assert graded_dims(M, range(7)) == {0: 2, **{d: d + 2 for d in range(1, 7)}}
        gc.collect()
        gc.disable()
        try:
            graded_dims(M, range(7))
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_parser_nesting_is_bounded(R1):
    from idals.polyring import MAX_NESTING

    depth = MAX_NESTING - 1
    assert R1.poly("(" * depth + "x" + ")" * depth) == R1.var("x")
    with pytest.raises(AlgebraError, match="nested"):
        R1.poly("(" * MAX_NESTING + "x" + ")" * MAX_NESTING)


def test_parser_exponent_is_bounded(R1):
    from idals.polyring import MAX_EXPONENT

    assert R1.poly(f"x^{MAX_EXPONENT}") == R1.var("x") ** MAX_EXPONENT
    assert R1.poly(f"x^000{MAX_EXPONENT}") == R1.var("x") ** MAX_EXPONENT
    for text in (f"(x+1)^{MAX_EXPONENT + 1}", "x**3000", "x^" + "9" * 5000):
        with pytest.raises(AlgebraError, match="exponent"):
            R1.poly(text)


def test_parser_expansion_is_bounded():
    R3 = PolyRing(QQ, ["x", "y", "z"])
    assert len(R3.poly("(x+y+1)^30").terms) == 496
    for text in ("(x+y+1)^100", "((x+1)^100)^100", "(x+y+z+1)^30"):
        start = time.perf_counter()
        with pytest.raises(AlgebraError, match="expansion too large"):
            R3.poly(text)
        assert time.perf_counter() - start < 1.0, text


def test_parser_long_integer_literals_are_algebra_errors(R1):
    # int() refuses decimal literals of over 4300 digits
    long = "9" * 5000
    F5 = PolyRing(GF(5), ["x"])
    for ring, text in ((R1, f"{long}*x"), (R1, f"x/{long}"), (R1, f"x + {long}"),
                       (F5, f"({long} mod 5)*x"), (F5, f"(2 mod {long})")):
        with pytest.raises(AlgebraError, match="integer literal"):
            ring.poly(text)
    assert R1.poly("9" * 4000 + "*x") == R1.var("x").scale(QQ.of(int("9" * 4000)))


def test_parser_rejects_division_by_zero(R1):
    F5 = PolyRing(GF(5), ["x"])
    for ring, text in ((R1, "x/0"), (R1, "x/000"), (F5, "x/5"), (F5, "x/10")):
        with pytest.raises(AlgebraError, match="division"):
            ring.poly(text)
    assert F5.poly("x/3") == F5.poly("2*x")


def test_parse_coeff_long_literals_are_algebra_errors():
    long = "7" * 5000
    for field, text in ((QQ, long), (QQ, f"1/{long}"), (QQ, f"{long}/3"),
                        (GF(5), f"({long} mod 5)"), (GF(5), f"(1 mod {long})")):
        with pytest.raises(AlgebraError, match="integer literal"):
            field.parse_coeff(text)
    with pytest.raises(AlgebraError, match="divides by zero"):
        QQ.parse_coeff("1/0")
    assert QQ.parse_coeff("2/4") == QQ.of("1/2")


class TestNoDivisors:
    """Cofactor tracking when nothing is tracked: zero lifts to no cofactors,
    anything else is its own remainder."""

    @pytest.mark.parametrize("columns", [[], [{}], [{}, {}]])
    def test_lifter_without_generators(self, R2, columns):
        lifter = SubmoduleLifter(R2, columns, 1)
        assert lifter.lift({}) == [{} for _ in columns]
        assert lifter.lift(FreeVector(R2, ["x + 1"]).to_vec()) is None

    @pytest.mark.parametrize("basis_len", [0, 2])
    def test_divide_by_zero_basis(self, R2, basis_len):
        basis = [FreeVector(R2, ["0", "0"])] * basis_len
        for v in (FreeVector(R2, ["0", "0"]), FreeVector(R2, ["x*y", "2"])):
            rem, cof = divide_with_cofactors(v, basis)
            assert rem == v
            assert len(cof) == basis_len and all(c.is_zero() for c in cof)

    def test_divide_by_zero_basis_over_quotient(self):
        Q = PolyRing(QQ, ["x"], quotient=["x^2"])
        rem, cof = divide_with_cofactors(FreeVector(Q, ["x^3 + x"]), [])
        assert rem == FreeVector(Q, ["x"]) and cof == []


def test_parser_leaves_no_reference_cycle():
    ring = PolyRing(QQ, ["x", "y"])
    gc.collect()
    gc.disable()
    try:
        ring.poly("(x+2*y)^2 - 3*x*y + 1/2")
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestGroebnerMemo:
    """Each ring memoizes `_module_gb`, `_syzygy_vecs` and the tracked basis
    of `SubmoduleLifter` on the ordered input columns."""

    @staticmethod
    def columns(ring, *entries):
        return [FreeVector(ring, e).to_vec() for e in entries]

    def quotient_ring(self):
        return PolyRing(QQ, ["x", "y"], quotient=["x^2*y - y^2"])

    def test_mutating_a_result_leaves_the_memo_alone(self):
        Q = self.quotient_ring()
        cols = self.columns(Q, ["x", "y"], ["y^2", "x*y"], ["x*y", "0"])
        gb = polyring._module_gb(cols, Q, 2)
        syz = polyring._syzygy_vecs(cols, Q, 2)
        want_gb, want_syz = [dict(v) for v in gb], [dict(v) for v in syz]
        gb[0].clear()
        gb.append({(0, (9, 9)): QQ.one()})
        syz[0][(0, (5, 5))] = QQ.one()
        assert polyring._module_gb(cols, Q, 2) == want_gb
        assert polyring._syzygy_vecs(cols, Q, 2) == want_syz

    def test_input_order_is_part_of_the_key(self):
        Q = self.quotient_ring()
        free = Q.free()
        cols = self.columns(Q, ["x", "y"], ["y^2", "x*y"], ["x*y", "0"])
        target = FreeVector(Q, ["x^2*y + x*y^2", "x*y^2 + y^2"]).to_vec()
        quotient = [{(pos, e): c for e, c in q.items()}
                    for q in Q.quotient_gb for pos in range(2)]
        results = []
        for order in (cols, cols[::-1]):
            vecs = [dict(c) for c in order] + quotient
            lifter = SubmoduleLifter(Q, order, 2)
            direct_gb, direct_reprs = polyring._buchberger(
                [dict(v) for v in vecs], free, 2, track=True)
            assert lifter._gb == direct_gb and lifter._reprs == direct_reprs
            fresh = SubmoduleLifter(self.quotient_ring(), order, 2)
            assert lifter.lift(target) == fresh.lift(target) is not None
            assert (polyring._module_gb(order, Q, 2)
                    == polyring._buchberger([dict(v) for v in vecs], free, 2))
            syz = polyring._syzygy_vecs(order, Q, 2)
            assert syz == polyring._syzygy_vecs(order, self.quotient_ring(), 2)
            results.append((lifter._reprs, syz))
        # the reversed input is tracked and solved by other positions
        assert results[0][0] != results[1][0] and results[0][1] != results[1][1]
        assert len(Q._gb_memo) == 6

    def test_rings_share_nothing(self):
        R, S = PolyRing(QQ, ["x", "y"]), PolyRing(QQ, ["x", "y"])
        cols = self.columns(R, ["x^2 - y"], ["x*y"])
        polyring._module_gb(cols, R, 1)
        assert R == S and len(R._gb_memo) == 1 and not S._gb_memo
        polyring._module_gb(cols, S, 1)
        (stored_r,), (stored_s,) = R._gb_memo.values(), S._gb_memo.values()
        assert stored_r == stored_s and stored_r is not stored_s

    def test_memo_is_capped(self):
        R = PolyRing(QQ, ["x", "y"])

        def key(k):
            return [{(0, (k, 1)): QQ.one()}]

        for k in range(polyring.GB_MEMO_MAX + 10):
            polyring._module_gb(key(k), R, 1)
            assert len(R._gb_memo) <= polyring.GB_MEMO_MAX
        assert len(R._gb_memo) == polyring.GB_MEMO_MAX
        # the oldest entries went first
        stored = [cols[0] for _, _, cols in R._gb_memo]
        assert stored == [frozenset(key(k)[0].items())
                          for k in range(10, polyring.GB_MEMO_MAX + 10)]

    def test_rings_and_memos_are_freed_without_the_cyclic_collector(self):
        gc.collect()
        gc.disable()
        try:
            for quotient in ((), ("x^2*y - y^2",)):
                R = PolyRing(QQ, ["x", "y"], quotient=quotient)
                cols = self.columns(R, ["x", "y"], ["y^2", "x*y"])
                polyring._module_gb(cols, R, 2)
                polyring._syzygy_vecs(cols, R, 2)
                SubmoduleLifter(R, cols, 2).lift(cols[0])
                del R
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_repeated_calls_skip_buchberger(self, monkeypatch):
        calls = []
        original = polyring._buchberger

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        Q = self.quotient_ring()
        cols = self.columns(Q, ["x", "y"], ["y^2", "x*y"])
        monkeypatch.setattr(polyring, "_buchberger", counting)
        for _ in range(3):
            polyring._module_gb(cols, Q, 2)
            polyring._syzygy_vecs(cols, Q, 2)
            SubmoduleLifter(Q, cols, 2)
        assert len(calls) == 3
