"""Over QQ every coefficient is stored in one canonical form: an int when its
value is integral, otherwise a Fraction whose denominator is greater than 1.

The test drives each public path that makes coefficients and checks what it
returns, and checks every QQ field operation made on the way as it is made."""

from fractions import Fraction

import pytest

from idals import (QQ, FreeVector, ModuleMap, PolyRing, PresentedModule, RingHom,
                   divide_with_cofactors, free_module, groebner, syzygies)
from idals.fpmod import column_rank, unit_module
from idals.polyring import BaseField


def canonical(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def assert_canonical(*polys):
    for p in polys:
        assert all(canonical(c) for c in p.terms.values()), p.terms


@pytest.fixture
def field_ops(monkeypatch):
    """Check the result of every QQ field operation; return the coefficients
    seen, so that a test can require both ints and Fractions among them."""
    seen = []
    for name in ("of", "zero", "one", "add", "sub", "mul", "neg", "inv", "div"):
        def checked(self, *args, _op=getattr(BaseField, name), _name=name):
            out = _op(self, *args)
            if not self.p:
                assert canonical(out), (_name, args, out)
                seen.append(out)
            return out
        monkeypatch.setattr(BaseField, name, checked)
    return seen


def test_public_paths_return_canonical_coefficients(field_ops):
    R = PolyRing(QQ, ["x", "y"])
    f = R.poly("x^2/2 + 3*y - 4/2")
    g = R.poly("2/3*x*y - y^2 + 1")
    assert f.terms[(0, 0)] == -2 and type(f.terms[(0, 0)]) is int
    assert_canonical(f, g, f + g, f - g, f * g, -f, f ** 3, f.scale(Fraction(3, 3)),
                     f.scale(2), R.constant("6/3"), R.monomial((1, 1), Fraction(-5, 5)))

    gb = groebner([f, g], R)
    assert_canonical(*gb)
    assert all(p.leading_term()[1] == 1 for p in gb)

    cols = [FreeVector(R, [f, g]), FreeVector(R, [g, R.poly("x/5")])]
    for s in syzygies(cols, R):
        assert_canonical(*s.entries)
    rem, cof = divide_with_cofactors(FreeVector(R, [f * g + R.poly("y/7")]),
                                     [FreeVector(R, [p]) for p in gb])
    assert_canonical(*rem.entries, *cof)

    phi = ModuleMap(free_module(R, 2), unit_module(R), [[f, g]])
    lifted = phi.lift((f * R.poly("3*x - 1/2") + g * R.poly("y/4"),))
    assert lifted is not None
    assert_canonical(*lifted)

    S = PolyRing(QQ, ["t"])
    hom = RingHom(R, S, {"x": "t/2", "y": "3*t^2 - 2/3"})
    assert_canonical(hom.apply(f), hom.apply(g))

    M = PresentedModule(R, 2, [(f, g)])
    columns = [(f, R.poly("x/3")), (g, R.one()), (f + g, R.poly("x/3 + 1"))]
    assert column_rank((M, columns)) == 2
    for col in columns:
        assert all(canonical(c) for c in M.reduce_vec({(i, e): c for i, p in enumerate(col)
                                                       for e, c in p.terms.items()}).values())

    Q = PolyRing(QQ, ["x", "y"], quotient=["2*x^2 - 3*y"])
    assert_canonical(Q.poly("x^3 + x^2/4"), Q.poly("x^2") * Q.poly("4/3"))

    assert any(type(c) is int for c in field_ops)
    assert any(type(c) is Fraction for c in field_ops)
