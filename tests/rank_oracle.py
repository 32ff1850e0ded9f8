"""Frozen copy of the dense base-field rank that `fpmod.column_rank`
replaced.

Test-only oracle for `test_fpmod.py`, `graded_oracle.py` and
`roundtrip_oracle.py`: `linalg.row_reduce` / `rank` were `Fraction` (or
mod-p) Gauss-Jordan on dense rows, and `PresentedModule.coordinates` wrote
the normal forms of a list of columns as dense rows over the union of
their (position, monomial) supports.  The sparse rank on the normal forms
must give the same numbers.  Do not optimise this file; its value is that
it stays as it was.
"""

from __future__ import annotations

from idals.fpmod import _column_vec
from idals.polyring import BaseField


def row_reduce(rows: list, field: BaseField):
    """Row-reduce in place semantics-free: returns (rref_rows, pivot_cols).

    Rows are lists of field elements; zero rows are dropped from the result.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(x, inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(rows: list, field: BaseField) -> int:
    return len(row_reduce(rows, field)[0])


def coordinates(module, columns):
    """Dense base-field rows, one per column, of the columns' normal
    forms, over the union of their (position, monomial) supports."""
    reduced = [module.reduce_vec(_column_vec(c)) for c in columns]
    support = sorted({k for r in reduced for k in r})
    zero = module.ring.field.zero()
    return [[r.get(k, zero) for k in support] for r in reduced]
