"""Frozen copy of the kernel and tensor constructions that wrote their own
conversions and index loops.

Test-only oracle for `test_kernel_differential.py`: `kernel_columns` sent
each syzygy's source part through Poly columns and `normal_form` and
deduplicated the reduced columns by their printed form; `tensor` placed
each relation column by hand; fpmod kept its own copy of the column
converters.  The converters and the old `PresentedModule.normal_form` body
are copied here too, so the oracle shares none of the code it checks (its
`kernel_columns` calls `normal_form(src, ...)` where the method was called).
The present functions must give the same kernel columns in the same order,
the same presentations and the same inclusions.  Do not optimise this
file; its value is that it stays as it was.
"""

from __future__ import annotations

from idals.errors import AlgebraError, RingMismatchError
from idals.fpmod import MAX_TENSOR_ENTRIES, ModuleMap, PresentedModule, column_degree
from idals.polyring import Poly, PolyRing, _syzygy_vecs


def _column_vec(col) -> dict:
    out = {}
    for pos, p in enumerate(col):
        for e, c in p.terms.items():
            out[(pos, e)] = c
    return out


def _vec_column(ring: PolyRing, rank: int, vec: dict):
    cols = [dict() for _ in range(rank)]
    for (pos, e), c in vec.items():
        cols[pos][e] = c
    return tuple(Poly(ring, ring.reduce_terms(t)) for t in cols)


def normal_form(module: PresentedModule, col):
    """The column reduced modulo the relations: equal for two columns
    exactly when they are equal in the module."""
    # rel_gb holds the quotient generators in every position, so the
    # remainder is already in the ring's normal form
    cols = [dict() for _ in range(module.gens)]
    for (pos, e), c in module.reduce_vec(_column_vec(col)).items():
        cols[pos][e] = c
    return tuple(Poly(module.ring, t) for t in cols)


def kernel_columns(phi: ModuleMap) -> list:
    """Generators of ker(phi) as source columns: distinct normal forms, none
    of them zero, so the list is empty exactly when the kernel is zero.
    They are the columns of `kernel(phi)`'s inclusion; callers that read no
    relations of the kernel take them from here."""
    ring = phi.ring
    src, tgt = phi.source, phi.target
    cols = [_column_vec(phi.column(j)) for j in range(src.gens)]
    cols += [_column_vec(c) for c in tgt.relations]
    syz = _syzygy_vecs(cols, ring, tgt.gens)
    gens_vecs = []
    for s in syz:
        proj = {(p, e): c for (p, e), c in s.items() if p < src.gens}
        col = normal_form(src, _vec_column(ring, src.gens, proj))
        if any(not p.is_zero() for p in col):
            gens_vecs.append(col)
    # deduplicate reduced generators, deterministically
    seen = set()
    kernel_cols = []
    for col in gens_vecs:
        key = tuple(str(p) for p in col)
        if key not in seen:
            seen.add(key)
            kernel_cols.append(col)
    return kernel_cols


def kernel(phi: ModuleMap):
    """(K, incl) with incl a monomorphism presenting ker(phi)."""
    ring = phi.ring
    src = phi.source
    kernel_cols = kernel_columns(phi)
    k = len(kernel_cols)
    # relations of K: coefficient vectors c with sum c_i * col_i in src relations
    rel_inputs = [_column_vec(c) for c in kernel_cols] + [_column_vec(c) for c in src.relations]
    syz2 = _syzygy_vecs(rel_inputs, ring, src.gens)
    k_rels = []
    for s in syz2:
        proj = {(p, e): c for (p, e), c in s.items() if p < k}
        col = _vec_column(ring, k, proj)
        if any(not p.is_zero() for p in col):
            k_rels.append(col)
    grading = None
    if src.grading is not None:
        degs = [column_degree(ring, col, src.grading) for col in kernel_cols]
        if all(isinstance(d, int) for d in degs):
            grading = tuple(degs)
    K = PresentedModule(ring, k, k_rels, grading)
    return K, ModuleMap.from_columns(K, src, kernel_cols)


def tensor(M: PresentedModule, N: PresentedModule) -> PresentedModule:
    """M (x) N with generator (i, j) linearized row-major as i*N.gens + j."""
    if M.ring != N.ring:
        raise RingMismatchError("tensor over different rings")
    ring = M.ring
    g = M.gens * N.gens
    n_rels = len(M.relations) * N.gens + M.gens * len(N.relations)
    if g * n_rels > MAX_TENSOR_ENTRIES:
        raise AlgebraError(f"tensor product too large: {g} generators x {n_rels} relation "
                           f"columns exceeds {MAX_TENSOR_ENTRIES} entries")
    rels = []
    for col in M.relations:
        for j in range(N.gens):
            full = [ring.zero()] * g
            for i, p in enumerate(col):
                full[i * N.gens + j] = p
            rels.append(tuple(full))
    for i in range(M.gens):
        for col in N.relations:
            full = [ring.zero()] * g
            for j, p in enumerate(col):
                full[i * N.gens + j] = p
            rels.append(tuple(full))
    grading = None
    if M.grading is not None and N.grading is not None:
        grading = tuple(M.grading[i] + N.grading[j]
                        for i in range(M.gens) for j in range(N.gens))
    return PresentedModule(ring, g, rels, grading)
