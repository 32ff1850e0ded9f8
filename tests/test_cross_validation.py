"""Cross-validation of the Groebner kernel against sympy, when available.

These tests are an extra safety net and skip silently if sympy is not
installed; the package itself never imports it.
"""

import random

import pytest

sp = pytest.importorskip("sympy")

from sympy import QQ as SQQ

from idals import (GF, FreeVector, ModuleMap, PolyRing, PresentedModule, QQ, cokernel,
                   divide_with_cofactors, groebner, syzygies)
from idals.fpmod import iso_failure_certificate
from idals.polyring import SubmoduleLifter

from conftest import random_poly

X, Y = sp.symbols("x y")


def _to_mine(ring, sp_poly, syms):
    p = sp.Poly(sp_poly, *syms, domain="QQ")
    out = ring.zero()
    for monom, coeff in p.terms():
        out = out + ring.monomial(tuple(monom), sp.Rational(coeff))
    return out


def _to_sympy(p):
    out = 0
    for e, c in p.terms.items():
        out += sp.Rational(c) * X ** e[0] * Y ** e[1]
    return out


def _rand_sympy(syms, rng, deg=3, terms=4):
    p = 0
    for _ in range(rng.randint(1, terms)):
        m = rng.choice([-3, -2, -1, 1, 2, 3])
        for s in syms:
            m *= s ** rng.randint(0, deg)
        p += m
    return sp.expand(p)


def test_reduced_bases_agree_up_to_monic():
    rng = random.Random(99)
    for trial in range(40):
        nv = 2 if trial % 2 == 0 else 1
        syms = [X, Y][:nv]
        names = ["x", "y"][:nv]
        gens_sp = [_rand_sympy(syms, rng) for _ in range(rng.randint(2, 3))]
        gens_sp = [g for g in gens_sp if g != 0] or [sp.Integer(1)]
        order = "grevlex" if trial % 3 else "lex"
        ring = PolyRing(QQ, names, order)
        mine = {str(p) for p in groebner([_to_mine(ring, g, syms) for g in gens_sp], ring)}
        theirs = set()
        for g in sp.groebner(gens_sp, *syms, order=order).exprs:
            q = _to_mine(ring.free(), g, syms)
            _, lc = q.leading_term()
            theirs.add(str(q.scale(ring.field.inv(lc))))
        assert mine == theirs


def test_ideal_membership_agrees():
    rng = random.Random(100)
    ring = PolyRing(QQ, ["x", "y"])
    for trial in range(25):
        gens_sp = [_rand_sympy([X, Y], rng) for _ in range(2)]
        gens_sp = [g for g in gens_sp if g != 0] or [sp.Integer(1)]
        probe_sp = sp.expand(_rand_sympy([X, Y], rng) * gens_sp[0]
                             + (_rand_sympy([X, Y], rng) if trial % 2 else 0))
        gb = groebner([_to_mine(ring, g, [X, Y]) for g in gens_sp], ring)
        probe = _to_mine(ring.free(), probe_sp, [X, Y])
        rem, _ = divide_with_cofactors(FreeVector(ring.free(), [probe]),
                                       [FreeVector(ring.free(), [g]) for g in gb])
        theirs = sp.groebner(gens_sp, X, Y, order="grevlex").contains(probe_sp)
        assert rem.is_zero() == theirs


def test_syzygy_modules_agree():
    rng = random.Random(7)
    R = PolyRing(QQ, ["x", "y"])
    for trial in range(15):
        k = rng.randint(2, 3)
        gens = [random_poly(R, rng, deg=2, zero_ok=False) for _ in range(k)]
        mine = syzygies([FreeVector(R, [g]) for g in gens], R)
        mine_vecs = [FreeVector(R, s.entries) for s in mine]
        lifter = SubmoduleLifter(R, [b.to_vec() for b in mine_vecs], k) \
            if mine_vecs else None

        ring_sp = SQQ.old_poly_ring(X, Y)
        sub = ring_sp.free_module(1).submodule(*[[_to_sympy(g)] for g in gens])
        for gen in sub.syzygy_module().gens:
            entries = []
            for comp in gen.data:
                expr = ring_sp.to_sympy(comp)
                p = R.zero()
                if expr != 0:
                    for monom, coeff in sp.Poly(expr, X, Y, domain="QQ").terms():
                        p = p + R.monomial(tuple(monom), sp.Rational(coeff))
                entries.append(p)
            v = FreeVector(R, entries)
            if not v.is_zero():
                assert lifter is not None and lifter.contains(v.to_vec())


@pytest.mark.parametrize("case", ["projection", "onto-quotient"])
def test_kernel_element_certificate(case):
    """The kernel_element kind of `iso_failure_certificate`, re-checked in
    sympy: for a map with zero cokernel and a nonzero kernel, the column is
    sent into the target's relations and is not in the source's."""
    R = PolyRing(QQ, ["x", "y"])
    if case == "projection":            # O^2 -> O onto the first summand
        src, tgt, matrix = PresentedModule(R, 2), PresentedModule(R, 1), [["1", "0"]]
    else:                               # O^2/(xy, 0) -> O/(x), kernel (-y, 1) and (x, 0)
        src = PresentedModule(R, 2, [("x*y", "0")])
        tgt, matrix = PresentedModule(R, 1, [("x",)]), [["1", "y"]]
    phi = ModuleMap(src, tgt, matrix)
    assert cokernel(phi)[0].is_zero_module()
    cert = iso_failure_certificate(phi)
    assert cert["kind"] == "kernel_element"

    def sym(text):
        return sp.sympify(text, locals={"x": X, "y": Y})

    col = [sym(p) for p in cert["column"]]
    ring_sp = SQQ.old_poly_ring(X, Y)

    def relations(M):
        return ring_sp.free_module(M.gens).submodule(
            *[[_to_sympy(R.poly(p)) for p in rel] for rel in M.relations])

    image = [sp.expand(sum(sym(str(a)) * c for a, c in zip(row, col))) for row in matrix]
    assert relations(tgt).contains(image)
    assert not relations(src).contains(col)


# -- three variables, standard systems and GF(p) -------------------------------

XYZ = sp.symbols("x y z")


def _monic_set(ring, polys):
    out = set()
    for q in polys:
        _, lc = q.leading_term()
        out.add(str(q.scale(ring.field.inv(lc))))
    return out


def _agree_with_sympy(names, gens, order, p):
    """The reduced basis of the gens (strings) in idals and in sympy, as sets
    of monic polynomials printed by idals."""
    field = QQ if not p else GF(p)
    ring = PolyRing(field, names, order)
    syms = sp.symbols(names)
    exprs = [sp.sympify(g.replace("^", "**"), locals=dict(zip(names, syms))) for g in gens]
    mine = _monic_set(ring, groebner([ring.poly(g) for g in gens], ring))
    options = {"modulus": p} if p else {"domain": "QQ"}
    theirs = []
    for g in sp.groebner(exprs, *syms, order=order, **options).polys:
        q = ring.zero()
        for monom, coeff in g.terms():
            c = int(coeff) if p else sp.Rational(coeff)
            q = q + ring.monomial(tuple(monom), c)
        theirs.append(q)
    assert mine == _monic_set(ring, theirs)


@pytest.mark.parametrize("p", [0, 32003], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("order", ["grevlex", "lex", "grlex"])
def test_three_variable_ideals_agree(p, order):
    rng = random.Random(f"xyz-{p}-{order}")
    for _ in range(6):
        gens = [str(_rand_sympy(list(XYZ), rng, deg=2, terms=3)).replace("**", "^")
                for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if g != "0"] or ["1"]
        _agree_with_sympy(["x", "y", "z"], gens, order, p)


def _katsura4():
    u = ["u0", "u1", "u2", "u3", "u4"]

    def at(i):
        return u[abs(i)] if abs(i) <= 4 else None
    eqs = [" + ".join(f"{at(l)}*{at(m - l)}" for l in range(-4, 5) if at(l) and at(m - l))
           + f" - {u[m]}" for m in range(4)]
    return u, eqs + [" + ".join([u[0]] + [f"2*{v}" for v in u[1:]]) + " - 1"]


def _cyclic4():
    x = ["x0", "x1", "x2", "x3"]
    eqs = [" + ".join("*".join(x[(i + j) % 4] for j in range(d)) for i in range(4))
           for d in range(1, 4)]
    return x, eqs + ["x0*x1*x2*x3 - 1"]


@pytest.mark.parametrize("p", [0, 32003], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("system", [_katsura4, _cyclic4], ids=["katsura-4", "cyclic-4"])
def test_standard_systems_agree(system, p):
    names, eqs = system()
    _agree_with_sympy(names, eqs, "grevlex", p)
