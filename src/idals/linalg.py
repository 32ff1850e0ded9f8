"""Exact dense linear algebra over QQ or F_p (Gaussian elimination only)."""

from __future__ import annotations

from .polyring import BaseField


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
