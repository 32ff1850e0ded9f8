"""Frozen copies of the index loops and hand-built staged composites that
`Idal.stage_source` / `collapse` / `restage` / `then` and `fpmod._kron`
replaced, and of those four stage operations as they were while staged
maps were `ModuleMap`s out of a presented J^{(x)n} (x) M.

Test-only oracle for `test_staged_differential.py` and `glued_oracle.py`:
the power transition, the two sides of the idal law, the product row, the
round-trip comparison matrix `_rho_matrix`, `tensor_map`, the
`_rebind(tensor_map(...))` composites of the self-glue validation, the
glued-map compatibility check and the block diagonal of staged maps; then
the `ModuleMap`-valued `stage_source` (one presented source per (n, M) for
the life of the idal), `collapse`, `restage` and `then`, with the
`ModuleMap.compose` and `ModuleMap.equals` they composed and compared by.
The present code must give every matrix entry for entry.  Do not optimise
this file; its value is that it stays as it was.  (Methods of `Idal` became
functions taking the idal; the stage sources are kept per idal here.)
"""

from __future__ import annotations

import weakref

from idals.errors import AlgebraError
from idals.fpmod import ModuleMap, PresentedModule, _identity_matrix, _kron, tensor
from idals.idal import idal_product


def _rebind(m: ModuleMap, source: PresentedModule, target: PresentedModule) -> ModuleMap:
    """Reinterpret a matrix between equal-generator presentations; used where
    strict associativity/flattening makes presentations agree up to relation
    order."""
    if len(m.matrix) != target.gens or (m.matrix and len(m.matrix[0]) != source.gens):
        raise AlgebraError("rebind shape mismatch")
    return ModuleMap(source, target, m.matrix, check=False)


def tensor_map(phi: ModuleMap, psi: ModuleMap) -> ModuleMap:
    """Kronecker product acting on the row-major tensor generators."""
    src = tensor(phi.source, psi.source)
    tgt = tensor(phi.target, psi.target)
    rows = []
    for i1 in range(phi.target.gens):
        for i2 in range(psi.target.gens):
            row = []
            for j1 in range(phi.source.gens):
                for j2 in range(psi.source.gens):
                    row.append(phi.matrix[i1][j1] * psi.matrix[i2][j2])
            rows.append(row)
    return ModuleMap(src, tgt, rows, check=False)


def power_transition(self, n: int, m: int, positions=None) -> ModuleMap:
    """The natural map I^{(x)n} -> I^{(x)m} applying e at n-m tensor slots.

    positions (0-based, within the n slots) defaults to the last n-m; the
    idal law makes the choice immaterial, which the tests exercise.
    """
    if n < m or m < 0:
        raise AlgebraError("power transition requires n >= m >= 0")
    drop = tuple(range(m, n)) if positions is None else tuple(sorted(positions))
    if len(drop) != n - m or any(p < 0 or p >= n for p in drop):
        raise AlgebraError("positions must be n-m distinct slots in range")
    keep = [p for p in range(n) if p not in drop]
    if len(keep) != m:
        raise AlgebraError("positions must be distinct")
    src = self.carrier_power(n)
    tgt = self.carrier_power(m)
    g = self.carrier.gens
    ring = self.ring
    zero = ring.zero()
    matrix = [[zero] * src.gens for _ in range(tgt.gens)]
    import itertools
    for idx in itertools.product(range(g), repeat=n):
        col = 0
        for i in idx:
            col = col * g + i
        coeff = ring.one()
        for p in drop:
            coeff = coeff * self.e.matrix[0][idx[p]]
        row = 0
        for p in keep:
            row = row * g + idx[p]
        if m == 0:
            row = 0
        matrix[row][col] = matrix[row][col] + coeff
    return ModuleMap(src, tgt, matrix, check=False)


def _law_sides(e: ModuleMap):
    """The two maps I (x) I -> I compared by the idal law.

    e (x) I sends generator (i, j) to e_i * g_j; I (x) e sends it to e_j * g_i.
    """
    I = e.source
    ring = e.ring
    II = tensor(I, I)
    g = I.gens
    zero = ring.zero()
    left = [[zero] * II.gens for _ in range(g)]
    right = [[zero] * II.gens for _ in range(g)]
    for i in range(g):
        for j in range(g):
            col = i * g + j
            left[j][col] = e.matrix[0][i]
            right[i][col] = e.matrix[0][j]
    lmap = ModuleMap(II, I, left, check=False)
    rmap = ModuleMap(II, I, right, check=False)
    return II, lmap, rmap


def idal_product_row(e, f):
    """The matrix row of the idal I (x) J -> O (x) O ~ O."""
    row = []
    for i in range(e.carrier.gens):
        for j in range(f.carrier.gens):
            row.append(e.e.matrix[0][i] * f.e.matrix[0][j])
    return row


def _rho_matrix(I, J, N: int, use_first: bool):
    """(I (x) J)^{(x)N} -> I^{(x)N} (use_first) or -> J^{(x)N}."""
    ring = I.ring
    gI, gJ = I.carrier.gens, J.carrier.gens
    prod = idal_product(I, J)
    src = prod.carrier_power(N)
    tgt = (I if use_first else J).carrier_power(N)
    zero = ring.zero()
    matrix = [[zero] * src.gens for _ in range(max(tgt.gens, 1))]
    import itertools
    for idx in itertools.product(range(gI * gJ), repeat=N):
        col = 0
        for p in idx:
            col = col * (gI * gJ) + p
        coeff = ring.one()
        row = 0
        for p in idx:
            i, j = divmod(p, gJ)
            if use_first:
                coeff = coeff * J.e.matrix[0][j]
                row = row * gI + i
            else:
                coeff = coeff * I.e.matrix[0][i]
                row = row * gJ + j
        matrix[row][col] = matrix[row][col] + coeff
    return ModuleMap(src, tgt, matrix[:tgt.gens] if tgt.gens else [], check=False)


def validate_selfglue_sides(J, fwd, a, bwd, b, m1, m2):
    """(left, collapse1, right, collapse2) of `GluedModule._validate_selfglue`."""
    # bwd . (J^b (x) fwd) must equal the collapse J^{a+b} (x) m1 -> m1
    left = bwd.compose(_rebind(
        tensor_map(ModuleMap.identity(J.carrier_power(b)), fwd),
        tensor(J.carrier_power(a + b), m1), bwd.source))
    collapse1 = _rebind(
        tensor_map(power_transition(J, a + b, 0), ModuleMap.identity(m1)),
        left.source, m1)
    right = fwd.compose(_rebind(
        tensor_map(ModuleMap.identity(J.carrier_power(a)), bwd),
        tensor(J.carrier_power(a + b), m2), fwd.source))
    collapse2 = _rebind(
        tensor_map(power_transition(J, a + b, 0), ModuleMap.identity(m2)),
        right.source, m2)
    return left, collapse1, right, collapse2


def compatibility_sides(J, c1, c2, G_fwd, a, G_m1, H_fwd, b):
    """(lhs, rhs) of `GluedMap.is_compatible` on a self-glued scheme."""
    N = max(a, b)
    lhs = c2.compose(G_fwd).compose(_rebind(
        tensor_map(power_transition(J, N, a), ModuleMap.identity(G_m1)),
        tensor(J.carrier_power(N), G_m1), G_fwd.source))
    inner = _rebind(tensor_map(ModuleMap.identity(J.carrier_power(b)), c1),
                    tensor(J.carrier_power(b), G_m1), H_fwd.source)
    rhs = H_fwd.compose(inner).compose(_rebind(
        tensor_map(power_transition(J, N, b), ModuleMap.identity(G_m1)),
        tensor(J.carrier_power(N), G_m1), inner.source))
    return lhs, rhs


def _blockdiag_selfglue(J, sources, targets, staged_maps, N, S_src, S_tgt) -> ModuleMap:
    """Block diagonal of Deligne elements, each pushed to the common stage N."""
    ring = J.ring
    src = tensor(J.carrier_power(N), S_src)
    zero = ring.zero()
    matrix = [[zero] * src.gens for _ in range(S_tgt.gens)]
    gN = J.carrier_power(N).gens
    src_off = 0
    tgt_off = 0
    for (stage, m), piece_src, piece_tgt in zip(staged_maps, sources, targets):
        pushed = m.compose(_rebind(
            tensor_map(power_transition(J, N, stage), ModuleMap.identity(piece_src)),
            tensor(J.carrier_power(N), piece_src), m.source))
        for r in range(piece_tgt.gens):
            for t in range(gN):
                for j in range(piece_src.gens):
                    matrix[tgt_off + r][t * S_src.gens + (src_off + j)] = \
                        pushed.matrix[r][t * piece_src.gens + j]
        src_off += piece_src.gens
        tgt_off += piece_tgt.gens
    return ModuleMap(src, S_tgt, matrix, check=False)


# ---------------------------------------------------------------------------
# the ModuleMap-valued stage operations


def compose(g: ModuleMap, f: ModuleMap) -> ModuleMap:
    """`ModuleMap.compose`: g after f, column by column."""
    if f.target is not g.source and f.target != g.source:
        raise AlgebraError("non-composable maps")
    cols = []
    for j in range(f.source.gens):
        col = f.column(j)
        out = []
        for i in range(g.target.gens):
            acc = g.ring.zero()
            for k in range(g.source.gens):
                m = g.matrix[i][k]
                if not m.is_zero() and not col[k].is_zero():
                    acc = acc + m * col[k]
            out.append(acc)
        cols.append(tuple(out))
    return ModuleMap.from_columns(f.source, g.target, cols)


def equals(f: ModuleMap, g: ModuleMap) -> bool:
    """`ModuleMap.equals`: difference columns lie in the target relations."""
    if f.source.gens != g.source.gens or f.target.gens != g.target.gens:
        return False
    diff = f - g
    return all(f.target.contains_column(diff.column(j)) for j in range(f.source.gens))


_STAGE_SOURCES = weakref.WeakKeyDictionary()   # idal -> {(n, id(M)): (M, source)}


def stage_source(J, n: int, M: PresentedModule) -> PresentedModule:
    """J^{(x)n} (x) M, one object per (n, M) for the life of the idal, so
    that staged maps built on it compose by identity; M itself at n = 0."""
    if n == 0:
        return M
    sources = _STAGE_SOURCES.setdefault(J, {})
    key = (n, id(M))
    if key not in sources:
        # M is kept with its source, so its id cannot be reused
        sources[key] = (M, tensor(J.carrier_power(n), M))
    return sources[key][1]


def _staged(J, matrix, M: PresentedModule, n: int, target: PresentedModule):
    return ModuleMap(stage_source(J, n, M), target, matrix, check=False)


def collapse(J, M: PresentedModule, n: int, m: int) -> ModuleMap:
    """J^{(x)n} (x) M -> J^{(x)m} (x) M applying e at the last n-m slots."""
    if n == m:
        return ModuleMap.identity(stage_source(J, n, M))
    return _staged(J, _collapse_matrix(J, M, n, m), M, n, stage_source(J, m, M))


def _collapse_matrix(J, M: PresentedModule, n: int, m: int):
    ident = _identity_matrix(J.ring, M.gens)
    return _kron(J.ring, power_transition(J, n, m).matrix, ident)


def restage(J, f: ModuleMap, M: PresentedModule, a: int, n: int) -> ModuleMap:
    """f : J^{(x)a} (x) M -> T moved to stage n >= a, as
    f . collapse(M, n, a) : J^{(x)n} (x) M -> T; f itself at n = a."""
    if n == a:
        return f
    return compose(f, _staged(J, _collapse_matrix(J, M, n, a), M, n, f.source))


def then(J, g: ModuleMap, b: int, f: ModuleMap, a: int, M: PresentedModule) -> ModuleMap:
    """g . (J^{(x)b} (x) f) : J^{(x)(a+b)} (x) M -> T for
    f : J^{(x)a} (x) M -> X and g : J^{(x)b} (x) X -> T."""
    if b == 0:
        return compose(g, f)
    ident = _identity_matrix(J.ring, J.carrier.gens ** b)
    return compose(g, _staged(J, _kron(J.ring, ident, f.matrix), M, a + b, g.source))
