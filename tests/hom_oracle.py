"""Frozen copy of the HOM ambient construction that went through `direct_sum`.

Test-only oracle for `test_hom_differential.py`: `HomModule` used to build
its ambient N^{g_M} and its target ambient N^{s_M} with `direct_sum` (whose
inclusion and projection maps it discarded) and then regrade the ambient.
The present `HomModule` must produce the same ambient, module and inclusion,
and `direct_sum` the same maps.  Do not optimise this file; its value is
that it stays as it was.
"""

from __future__ import annotations

from idals.errors import AlgebraError, RingMismatchError
from idals.fpmod import ModuleMap, PresentedModule, kernel, zero_module


def direct_sum(modules):
    """(S, inclusions, projections)."""
    if not modules:
        raise AlgebraError("empty direct sum")
    ring = modules[0].ring
    for m in modules:
        if m.ring != ring:
            raise RingMismatchError("direct sum over different rings")
    offsets = []
    total = 0
    for m in modules:
        offsets.append(total)
        total += m.gens
    rels = []
    for idx, m in enumerate(modules):
        for col in m.relations:
            full = [ring.zero()] * total
            for i, p in enumerate(col):
                full[offsets[idx] + i] = p
            rels.append(tuple(full))
    grading = None
    if all(m.grading is not None for m in modules):
        grading = tuple(d for m in modules for d in m.grading)
    S = PresentedModule(ring, total, rels, grading)
    incls, projs = [], []
    zero, one = ring.zero(), ring.one()
    for idx, m in enumerate(modules):
        mat_in = [[one if (i == offsets[idx] + j) else zero for j in range(m.gens)]
                  for i in range(total)]
        incls.append(ModuleMap(m, S, mat_in, check=False))
        mat_pr = [[one if (offsets[idx] + i == j) else zero for j in range(total)]
                  for i in range(m.gens)]
        projs.append(ModuleMap(S, m, mat_pr, check=False))
    return S, incls, projs


def regrade(module, grading):
    return PresentedModule(module.ring, module.gens, module.relations, grading)


def hom_parts(M, N):
    """(ambient, module, incl) exactly as the old `HomModule.__init__` built them."""
    ring = M.ring
    ambient_degrees = None
    if M.grading is not None and N.grading is not None:
        ambient_degrees = tuple(N.grading[r] - M.grading[i]
                                for i in range(M.gens) for r in range(N.gens))
    copies = [N] * M.gens
    if M.gens:
        amb, _, _ = direct_sum(copies)
        amb = regrade(amb, ambient_degrees) if ambient_degrees is not None else amb
    else:
        amb = zero_module(ring)
    s = len(M.relations)
    if s and M.gens:
        tgt_copies = [N] * s
        tgt_amb, _, _ = direct_sum(tgt_copies)
        rows = []
        for c in range(s):
            for r in range(N.gens):
                row = []
                for i in range(M.gens):
                    for r2 in range(N.gens):
                        row.append(M.relations[c][i] if r == r2 else ring.zero())
                rows.append(row)
        tmap = ModuleMap(amb, tgt_amb, rows, check=False)
        K, incl = kernel(tmap)
    else:
        K, incl = amb, ModuleMap.identity(amb)
    return amb, K, incl
