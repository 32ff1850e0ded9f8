"""Frozen copy of `localized_ring` from before it built its quotient from
terms.

Test-only oracle for `test_localize_differential.py`: this code writes the
base ring's quotient generators and `(f) * t - 1` out as text and has the
new ring parse them back, and maps each variable by its name.  The present
`localized_ring` must give a ring with the same variables, weights, reduced
quotient basis and signature, and an inclusion with the same images.  Do not
optimise this file; its value is that it stays as it was.
"""

from __future__ import annotations

from idals.errors import AlgebraError
from idals.localize import fresh_variable
from idals.polyring import Poly, PolyRing, RingHom


def localized_ring(ring: PolyRing, f: Poly, inv_name: str | None = None):
    """(B, hom, inv) with B = ring[t]/(t*f - 1) and hom the inclusion."""
    f = ring.poly(f)
    if f.is_zero():
        raise AlgebraError("cannot invert zero")
    name = inv_name or fresh_variable(ring)
    if f.is_constant():
        weight = 0   # the inverse variable is eliminated by c*t - 1
    elif f.is_homogeneous():
        weight = -f.degree()
    else:
        weight = 1
    free = ring.free()
    quotient = [str(Poly(free, dict(q))) for q in ring.quotient_gb]
    B = PolyRing(ring.field, ring.variables + (name,), ring.order,
                 quotient + [f"({f}) * {name} - 1"],
                 ring.weights + (weight,))
    hom = RingHom(ring, B, {v: v for v in ring.variables})
    return B, hom, B.var(name)
