"""`localized_ring`, which builds `ring[t]/(t*f - 1)` from terms, against the
frozen text-built copy in `localize_oracle.py`: the same variables, weights,
reduced quotient basis (term for term and in order), signature, and
inclusion images."""

import pytest

from idals import GF, QQ, PolyRing
from idals.localize import localized_ring

import localize_oracle as oracle


def items(terms):
    return list(terms.items())


def assert_same_localization(ring, f, inv_name=None):
    B, hom, inv = localized_ring(ring, f, inv_name)
    want_B, want_hom, want_inv = oracle.localized_ring(ring, f, inv_name)
    assert B.variables == want_B.variables
    assert B.weights == want_B.weights
    assert B.order == want_B.order and B.field == want_B.field
    assert [items(q) for q in B.quotient_gb] == [items(q) for q in want_B.quotient_gb]
    assert B.signature() == want_B.signature()
    assert hom.src is ring and hom.dst is B
    for v in ring.variables:
        assert items(hom.images[v].terms) == items(want_hom.images[v].terms)
    assert items(inv.terms) == items(want_inv.terms)
    return B, hom


CASES = {
    "constant": (PolyRing(QQ, ["x", "y"]), "3"),
    "homogeneous": (PolyRing(QQ, ["x", "y"]), "x^2 - 3*x*y"),
    "inhomogeneous": (PolyRing(QQ, ["x", "y"]), "x*y - 2*y + 1/2"),
    "weighted": (PolyRing(QQ, ["x", "y"], weights=(2, 3)), "x^3 + y^2"),
    "quotient": (PolyRing(QQ, ["x", "y"], quotient=["x^2 - y^3"]), "x + y"),
    "quotient-reduced-f": (PolyRing(QQ, ["x", "y"], quotient=["x^2 - y^3"]), "x^3 - x*y"),
    "GF5": (PolyRing(GF(5), ["x", "y"]), "4*x^2 + x*y - 1"),
    "GF5-quotient": (PolyRing(GF(5), ["x", "y"], quotient=["x*y - 1"]), "3*x + 2"),
    "lex": (PolyRing(QQ, ["x", "y", "z"], order="lex"), "z^2 - x*y"),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("inv_name", [None, "w"])
def test_localized_ring_matches_the_text_built_ring(case, inv_name):
    ring, f = CASES[case]
    assert_same_localization(ring, ring.poly(f), inv_name)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_nested_localization_matches(field):
    # the overlap ring of a windowed round trip: B_f, then g inverted in it
    A = PolyRing(field, ["x"])
    f, g = A.poly("x"), A.poly("x - 1")
    Bf, hf = assert_same_localization(A, f, "locf")
    assert_same_localization(A, g, "locg")
    assert_same_localization(Bf, hf.apply(g), "locg")
