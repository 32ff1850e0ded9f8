"""Frozen copy of the dense graded dimension that ranked relation multiples.

Test-only oracle for `test_graded_differential.py`: `graded_dim` used to
list the (generator, monomial) pairs of degree d, write every relation
column times every monomial of the complementary degree as a dense row over
them, and subtract the rank of those rows.  The present `graded_dim` counts
standard monomials of the relation Groebner basis instead and must give the
same numbers.  Do not optimise this file; its value is that it stays as it
was.
"""

from __future__ import annotations

from idals import linalg
from idals.errors import AlgebraError, UngradedError
from idals.fpmod import PresentedModule, column_degree, ring_is_graded
from idals.polyring import monomials_of_degree


def graded_dim(M: PresentedModule, d: int) -> int:
    """Base-field dimension of the degree-d component."""
    if M.grading is None:
        raise UngradedError("module carries no grading")
    ring = M.ring
    if not ring_is_graded(ring):
        raise UngradedError("ring quotient ideal is not homogeneous")
    basis = []
    index = {}
    for i in range(M.gens):
        for m in monomials_of_degree(ring, d - M.grading[i]):
            index[(i, m)] = len(basis)
            basis.append((i, m))
    if not basis:
        return 0
    rows = []
    zero = ring.field.zero()
    for col in M.relations:
        cd = column_degree(ring, col, M.grading)
        if cd == "zero":
            continue
        for m in monomials_of_degree(ring, d - cd):
            mult = ring.monomial(m)
            row = [zero] * len(basis)
            for i, p in enumerate(col):
                prod = mult * p
                for e, c in prod.terms.items():
                    k = index.get((i, e))
                    if k is None:
                        raise AlgebraError(
                            "internal: homogeneous relation multiple left its degree stratum")
                    row[k] = c
            rows.append(row)
    if not rows:
        return len(basis)
    return len(basis) - linalg.rank(rows, ring.field)
