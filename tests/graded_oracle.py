"""Frozen copy of the dense graded dimension that ranked relation multiples.

Test-only oracle for `test_graded_differential.py`: `graded_dim` used to
list the (generator, monomial) pairs of degree d, write every relation
column times every monomial of the complementary degree as a dense row over
them, and subtract the rank of those rows.  The present `graded_dim` counts
standard monomials of the relation Groebner basis instead and must give the
same numbers.  The monomials come from a frozen copy of the per-degree
enumerator, which `polyring.monomials_in_window` replaced, so the oracle
shares no enumeration with the code it checks.  Do not optimise this file;
its value is that it stays as it was.
"""

from __future__ import annotations

from idals.errors import AlgebraError, UngradedError
from idals.fpmod import PresentedModule, column_degree, ring_is_graded

import rank_oracle as linalg


def mono_divides(a, b):
    """True if monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def monomials_of_degree(ring, d: int) -> list:
    """All quotient-normal-form monomials of weighted degree d, sorted by the
    ring's order (descending).

    Supported ring shapes (the graded components are finite exactly there):
    all weights positive, or a single positive-weight variable together with
    inverse variables t_j of negative weight whose quotient leading monomials
    have the localization shape t_j * (positive-block monomial).
    """
    n = ring.nvars
    if n == 0:
        return [()] if d == 0 else []
    weights = ring.weights
    lms = [max(q, key=ring.monomial_key) for q in ring.quotient_gb]
    # zero-weight variables are only allowed when eliminated by the quotient
    # (their leading monomial is the bare variable, as for inverted constants)
    for i in range(n):
        if weights[i] == 0:
            unit_vec = tuple(1 if j == i else 0 for j in range(n))
            if not any(mono_divides(lm, unit_vec) and lm == unit_vec for lm in lms):
                raise AlgebraError(
                    "monomial enumeration requires nonzero or eliminated variable weights")

    def irreducible(exps) -> bool:
        return not any(mono_divides(lm, exps) for lm in lms)

    pos = [i for i in range(n) if weights[i] > 0]
    neg = [i for i in range(n) if weights[i] < 0]
    out = []

    def dfs_block(var_list, target, base_exps, collect):
        """Exponent vectors over var_list with weighted sum == target.

        All weights in var_list must have one sign; each variable is bounded
        by the remaining budget since the rest moves the sum the same way.
        """
        exps = list(base_exps)

        def rec(k, cur):
            if k == len(var_list):
                if cur == target:
                    collect(tuple(exps))
                return
            i = var_list[k]
            w = weights[i]
            bound = (target - cur) // w  # negative when the sign cannot work out
            for e in range(max(bound, -1) + 1):
                exps[i] = e
                rec(k + 1, cur + e * w)
                exps[i] = 0

        rec(0, 0)

    if not neg:
        dfs_block(pos, d, [0] * n, lambda m: out.append(m) if irreducible(m) else None)
    else:
        if len(pos) > 1:
            raise AlgebraError(
                "graded components over rings with several positive-weight and "
                "some negative-weight variables are not finite in general")
        # positive-block degree cap for monomials that use an inverse variable:
        # every inverse variable t_j has a leading monomial t_j * m_j, so a
        # positive exponent >= deg(m_j) together with t_j >= 1 is reducible
        cap = 0
        for lm in lms:
            if any(lm[j] for j in neg):
                cap = max(cap, sum(lm[i] for i in pos))
        # pure positive-block monomial
        if pos:
            i = pos[0]
            w = weights[i]
            if d % w == 0 and d // w >= 0:
                e = [0] * n
                e[i] = d // w
                if irreducible(tuple(e)):
                    out.append(tuple(e))
        elif d == 0:
            out.append((0,) * n)
        # monomials with at least one inverse variable
        a_values = range(cap) if pos else [0]
        for a in a_values:
            base = [0] * n
            if pos:
                base[pos[0]] = a
            target = d - (a * weights[pos[0]] if pos else 0)
            if target >= 0:
                # at least one inverse variable is required, so the negative
                # block must contribute <= -1
                continue
            def keep(m, _a=a):
                if any(m[j] for j in neg) and irreducible(m):
                    out.append(m)
            dfs_block(neg, target, base, keep)

    out.sort(key=ring.monomial_key, reverse=True)
    return out


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
