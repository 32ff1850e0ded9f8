"""Frozen copy of `RingHom._apply_terms` from before a hom kept the powers
of its images.

Test-only oracle for `test_ringhom_differential.py`: this code raises each
image to each power again for every term.  The present `_apply_terms` reuses
the powers it has computed and must give the same polynomials, term for term
and in the same order.  Do not optimise this file; its value is that it stays
as it was.
"""

from __future__ import annotations


def apply_terms(hom, terms: dict):
    out = hom.dst.zero()
    for exps, c in terms.items():
        m = hom.dst.constant(c)
        for name, e in zip(hom.src.variables, exps):
            if e:
                m = m * (hom.images[name] ** e)
        out = out + m
    return out
