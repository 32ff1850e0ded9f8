"""Finitely presented modules over a PolyRing and the maps between them.

A module is A^gens / (column span of `relations`); a map is a matrix on
generators whose well-definedness (source relations land in target relations)
is checked at construction.  Equality of maps always means equality modulo
the target's relations, never literal matrix equality.

Gradings are by weighted total degree with integer generator shifts.  They
are optional and propagate through the constructions whenever the resulting
relation columns stay homogeneous.
"""

from __future__ import annotations

import itertools

from .errors import (
    AlgebraError,
    GradingError,
    LiftError,
    RingMismatchError,
    UngradedError,
    WellDefinednessError,
)
from .polyring import (
    Poly,
    PolyRing,
    RingHom,
    SubmoduleLifter,
    _column_vec,
    _module_gb,
    _prepare,
    _syzygy_vecs,
    _vec_column,
    _vec_reduce,
    iter_window,
    mono_divides,
)


def _top_degree(ring: PolyRing, lts):
    """A degree above which no position has a standard monomial, or None
    when the leading terms `lts` (one list per position) show none.

    With every weight positive, a position whose leading terms hold a pure
    power x_v^(a_v) of every variable has no standard monomial of degree
    above sum((a_v - 1) * w_v): such a monomial has an exponent e_v >= a_v."""
    if not all(w > 0 for w in ring.weights):
        return None
    top = None
    for position in lts:
        least = {}
        for e in position:
            support = [v for v, a in enumerate(e) if a]
            if len(support) <= 1:   # a pure power, or 1 = x_v^0 for every v
                for v in support or range(ring.nvars):
                    least[v] = min(least.get(v, e[v]), e[v])
        if len(least) < ring.nvars:
            return None
        deg = sum((least[v] - 1) * w for v, w in enumerate(ring.weights))
        top = deg if top is None else max(top, deg)
    return top


def column_degree(ring: PolyRing, col, gen_degrees):
    """Weighted degree of a homogeneous column; None if inhomogeneous,
    'zero' for the zero column."""
    degs = set()
    for pos, p in enumerate(col):
        if p.is_zero():
            continue
        if not p.is_homogeneous():
            return None
        degs.add(p.degree() + gen_degrees[pos])
    if not degs:
        return "zero"
    if len(degs) > 1:
        return None
    return degs.pop()


class PresentedModule:
    """A^gens modulo the span of the relation columns."""

    def __init__(self, ring: PolyRing, gens: int, relations=(), grading=None):
        self.ring = ring
        self.gens = int(gens)
        cols = []
        for col in relations:
            col = tuple(ring.poly(p) for p in col)
            if len(col) != self.gens:
                raise AlgebraError(
                    f"relation column of length {len(col)} for {self.gens} generators")
            if any(not p.is_zero() for p in col):
                cols.append(col)
        self.relations = tuple(cols)
        if grading is not None:
            grading = tuple(int(d) for d in grading)
            if len(grading) != self.gens:
                raise GradingError("grading length must equal the generator count")
            if not self._homogeneous_for(grading):
                raise GradingError("relation columns are not homogeneous for this grading")
            self.grading = grading
        else:
            zeros = (0,) * self.gens
            self.grading = zeros if self._homogeneous_for(zeros) else None
        self._rel_gb = None
        self._rel_prepared = None
        self._graded_lts = None

    def _homogeneous_for(self, grading) -> bool:
        return all(column_degree(self.ring, col, grading) is not None
                   for col in self.relations)

    def rel_gb(self):
        if self._rel_gb is None:
            self._rel_gb = _module_gb([_column_vec(c) for c in self.relations],
                                      self.ring, self.gens)
            self._rel_prepared = _prepare(self._rel_gb, self.ring.free())
        return self._rel_gb

    def _graded_leading_terms(self):
        """(lts, top): the leading monomials of `rel_gb`, one list per
        position, after checking once that every basis element is homogeneous
        for the grading (it is whenever the relations and the ring's quotient
        are); and the top degree `_top_degree` reads off them."""
        if self._graded_lts is None:
            self.rel_gb()
            lts = [[] for _ in range(self.gens)]
            for v, g in zip(self._rel_gb, self._rel_prepared):
                if len({self.ring.mono_degree(e) + self.grading[p] for p, e in v}) > 1:
                    raise AlgebraError(
                        "internal: relation Groebner basis is not homogeneous for the grading")
                lts[g.pos].append(g.exps)
            self._graded_lts = lts, _top_degree(self.ring, lts)
        return self._graded_lts

    def reduce_vec(self, vec: dict) -> dict:
        self.rel_gb()
        red, _ = _vec_reduce(vec, self._rel_prepared, self.ring.free())
        return red

    def contains_column(self, col) -> bool:
        return not self.reduce_vec(_column_vec(col))

    def normal_form(self, col):
        """The column reduced modulo the relations: equal for two columns
        exactly when they are equal in the module."""
        return _vec_column(self.ring, self.gens, self.reduce_vec(_column_vec(col)))

    def span_key(self, extra_cols):
        """A value that is equal for two column lists over this module's
        generators exactly when the relations plus the columns span the same
        submodule (their reduced Groebner basis, which is unique)."""
        cols = [_column_vec(c) for c in self.relations] + [_column_vec(c) for c in extra_cols]
        return _module_gb(cols, self.ring, self.gens)

    def is_zero_module(self) -> bool:
        return all(self.contains_column(self.unit_column(i)) for i in range(self.gens))

    def unit_column(self, k: int):
        """The column of generator k."""
        col = [self.ring.zero()] * self.gens
        col[k] = self.ring.one()
        return tuple(col)

    def presentation_key(self):
        return (self.ring.signature(), self.gens,
                tuple(tuple(str(p) for p in col) for col in self.relations),
                self.grading)

    def __eq__(self, other):
        return (isinstance(other, PresentedModule)
                and self.presentation_key() == other.presentation_key())

    def __hash__(self):
        return hash(self.presentation_key())

    def __repr__(self):
        g = f", grading={list(self.grading)}" if self.grading else ""
        return f"PresentedModule({self.ring!r}, gens={self.gens}, relations={len(self.relations)}{g})"

    def to_json(self):
        data = {
            "ring": self.ring.to_json(),
            "gens": self.gens,
            "relations": [[str(self.relations[j][i]) for j in range(len(self.relations))]
                          for i in range(self.gens)],
        }
        if self.grading is not None:
            data["grading"] = list(self.grading)
        return data

    @staticmethod
    def from_json(data, ring: PolyRing | None = None) -> "PresentedModule":
        ring = ring if ring is not None else PolyRing.from_json(data["ring"])
        rows = data.get("relations", [])
        gens = int(data["gens"])
        ncols = len(rows[0]) if rows else 0
        cols = [tuple(rows[i][j] for i in range(gens)) for j in range(ncols)]
        return PresentedModule(ring, gens, cols, data.get("grading"))


def free_module(ring: PolyRing, rank: int, degrees=None) -> PresentedModule:
    return PresentedModule(ring, rank, (), degrees if degrees is not None else (0,) * rank)


def unit_module(ring: PolyRing) -> PresentedModule:
    """The ring as rank-1 free module; the tensor unit O."""
    return free_module(ring, 1)


def zero_module(ring: PolyRing) -> PresentedModule:
    return PresentedModule(ring, 0)


def _check_shape(matrix, rows: int, cols: int):
    """An AlgebraError unless the matrix, a sequence of rows, is rows x cols."""
    if len(matrix) != rows or any(len(r) != cols for r in matrix):
        raise AlgebraError(f"matrix must be {rows} x {cols}, got "
                           f"{len(matrix)} x {len(matrix[0]) if matrix else 0}")


def _apply(ring: PolyRing, matrix, col):
    """The matrix times the column, skipping zero entries."""
    nonzero = [(j, c) for j, c in enumerate(col) if not c.is_zero()]
    return tuple(sum((row[j] * c for j, c in nonzero if not row[j].is_zero()), ring.zero())
                 for row in matrix)


def _matmul(ring: PolyRing, a, b, width: int):
    """The product a b as rows, for b with `width` columns (a matrix without
    rows does not show its width)."""
    cols = [_apply(ring, a, [row[j] for row in b]) for j in range(width)]
    return [[col[r] for col in cols] for r in range(len(a))]


def _equal_into(target: PresentedModule, a, b) -> bool:
    """Whether matrices of one shape into target agree modulo its relations."""
    return all(target.contains_column(tuple(x - y for x, y in zip(ca, cb)))
               for ca, cb in zip(zip(*a), zip(*b)))


class ModuleMap:
    """Map of presented modules given by a (target.gens x source.gens) matrix."""

    def __init__(self, source: PresentedModule, target: PresentedModule, matrix,
                 check: bool = True):
        if source.ring != target.ring:
            raise RingMismatchError("map between modules over different rings")
        self.source = source
        self.target = target
        self.ring = source.ring
        rows = tuple(tuple(self.ring.poly(x) for x in row) for row in matrix)
        _check_shape(rows, target.gens, source.gens)
        self.matrix = rows
        self._lifter = None
        if check:
            for col in source.relations:
                if not target.contains_column(self.apply_column(col)):
                    raise WellDefinednessError(
                        "matrix does not send source relations into target relations")

    # -- evaluation ----------------------------------------------------------

    def apply_column(self, col):
        return _apply(self.ring, self.matrix, col)

    def column(self, j):
        return tuple(self.matrix[i][j] for i in range(self.target.gens))

    def columns(self):
        return [self.column(j) for j in range(self.source.gens)]

    def lift(self, col):
        """A source column c with self(c) equal to col modulo the target
        relations, or None when col is not in the image."""
        if self._lifter is None:
            # maps never change, so the tracked basis is built once per map
            cols = [_column_vec(c) for c in self.columns()]
            cols += [_column_vec(c) for c in self.target.relations]
            self._lifter = SubmoduleLifter(self.ring, cols, self.target.gens)
        cof = self._lifter.lift(_column_vec(col))
        if cof is None:
            return None
        return tuple(Poly(self.ring, self.ring.reduce_terms(cof[j]))
                     for j in range(self.source.gens))

    # -- algebra ---------------------------------------------------------------

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise AlgebraError("non-composable maps")
        return ModuleMap(other.source, self.target,
                         _matmul(self.ring, self.matrix, other.matrix, other.source.gens),
                         check=False)

    def __sub__(self, other: "ModuleMap") -> "ModuleMap":
        matrix = [[a - b for a, b in zip(r1, r2)]
                  for r1, r2 in zip(self.matrix, other.matrix)]
        return ModuleMap(self.source, self.target, matrix, check=False)

    # -- predicates ------------------------------------------------------------

    def equals(self, other: "ModuleMap") -> bool:
        """Equality as maps: difference columns lie in the target relations."""
        if self.source.gens != other.source.gens or self.target.gens != other.target.gens:
            return False
        return _equal_into(self.target, self.matrix, other.matrix)

    def is_zero_map(self) -> bool:
        return all(self.target.contains_column(self.column(j))
                   for j in range(self.source.gens))

    def is_homogeneous(self) -> bool:
        """Degree-0 homogeneity with respect to both gradings."""
        if self.source.grading is None or self.target.grading is None:
            return False
        for j in range(self.source.gens):
            d = column_degree(self.ring, self.column(j), self.target.grading)
            if d is None or (d != "zero" and d != self.source.grading[j]):
                return False
        return True

    @staticmethod
    def identity(M: PresentedModule) -> "ModuleMap":
        return ModuleMap(M, M, _identity_matrix(M.ring, M.gens), check=False)

    @staticmethod
    def from_columns(source: PresentedModule, target: PresentedModule, cols) -> "ModuleMap":
        """The map sending source generator j to the target column cols[j],
        unchecked."""
        return ModuleMap(source, target,
                         [[col[r] for col in cols] for r in range(target.gens)], check=False)

    @staticmethod
    def zero(source: PresentedModule, target: PresentedModule) -> "ModuleMap":
        z = source.ring.zero()
        return ModuleMap(source, target,
                         [[z] * source.gens for _ in range(target.gens)], check=False)

    def __repr__(self):
        return f"ModuleMap({self.source.gens} -> {self.target.gens} over {self.ring!r})"

    def to_json(self):
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "matrix": [[str(x) for x in row] for row in self.matrix],
        }


# ---------------------------------------------------------------------------
# base change


def base_change_module(M: PresentedModule, hom: RingHom) -> PresentedModule:
    """M over hom.dst: the relations mapped entrywise, the grading kept when
    it still fits."""
    cols = [tuple(hom.apply(p) for p in col) for col in M.relations]
    try:
        return PresentedModule(hom.dst, M.gens, cols, M.grading)
    except GradingError:
        return PresentedModule(hom.dst, M.gens, cols, None)


def base_change_map(phi: ModuleMap, hom: RingHom,
                    source: PresentedModule | None = None,
                    target: PresentedModule | None = None) -> ModuleMap:
    """phi over hom.dst, between the given base-changed source and target
    (built when not given)."""
    source = source if source is not None else base_change_module(phi.source, hom)
    target = target if target is not None else base_change_module(phi.target, hom)
    return ModuleMap(source, target, hom.apply_matrix(phi.matrix), check=False)


# ---------------------------------------------------------------------------
# kernel / cokernel / sums


def is_zero(M: PresentedModule) -> bool:
    return M.is_zero_module()


def kernel_columns(phi: ModuleMap) -> list:
    """Generators of ker(phi) as source columns: distinct normal forms, none
    of them zero, so the list is empty exactly when the kernel is zero.
    They are the columns of `kernel(phi)`'s inclusion; callers that read no
    relations of the kernel take them from here."""
    src, tgt = phi.source, phi.target
    cols = [_column_vec(phi.column(j)) for j in range(src.gens)]
    cols += [_column_vec(c) for c in tgt.relations]
    # the distinct nonzero normal forms of the syzygies' source parts, in order
    reduced = {}
    for s in _syzygy_vecs(cols, phi.ring, tgt.gens):
        red = src.reduce_vec({(p, e): c for (p, e), c in s.items() if p < src.gens})
        if red:
            reduced.setdefault(frozenset(red.items()), red)
    return [_vec_column(phi.ring, src.gens, red) for red in reduced.values()]


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


def cokernel(phi: ModuleMap):
    """(C, proj) with C = target/(image + target relations)."""
    tgt = phi.target
    cols = list(phi.columns()) + list(tgt.relations)
    grading = tgt.grading
    if grading is not None:
        if any(column_degree(phi.ring, c, grading) is None for c in cols):
            grading = None
    C = PresentedModule(phi.ring, tgt.gens, cols, grading)
    return C, ModuleMap(tgt, C, _identity_matrix(phi.ring, tgt.gens), check=False)


def _block_sum(ring: PolyRing, modules, grading=None) -> PresentedModule:
    """The direct sum of `modules` as one presentation: generators in blocks,
    one per summand in order, each summand's relations inside its block.

    `grading` defaults to the summands' gradings side by side when they all
    have one.
    """
    if grading is None and all(m.grading is not None for m in modules):
        grading = tuple(d for m in modules for d in m.grading)
    total = sum(m.gens for m in modules)
    zero = ring.zero()
    rels = []
    offset = 0
    for m in modules:
        for col in m.relations:
            full = [zero] * total
            full[offset:offset + m.gens] = col
            rels.append(tuple(full))
        offset += m.gens
    return PresentedModule(ring, total, rels, grading)


def direct_sum(modules):
    """(S, inclusions, projections)."""
    if not modules:
        raise AlgebraError("empty direct sum")
    ring = modules[0].ring
    for m in modules:
        if m.ring != ring:
            raise RingMismatchError("direct sum over different rings")
    S = _block_sum(ring, modules)
    ident = _identity_matrix(ring, S.gens)
    incls, projs = [], []
    offset = 0
    for m in modules:
        block = slice(offset, offset + m.gens)
        incls.append(ModuleMap(m, S, [row[block] for row in ident], check=False))
        projs.append(ModuleMap(S, m, ident[block], check=False))
        offset += m.gens
    return S, incls, projs


# ---------------------------------------------------------------------------
# tensor structure

# The most entries, generators times relation columns, of a presented tensor
# product, such as carrier powers and chart pieces.  The tests build 256 x 2048
# at most (the 8th power of the (x, y) idal).
MAX_TENSOR_ENTRIES = 1 << 22


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
    # the columns of R_M (x) id_N, then those of id_M (x) R_N, with R_M the
    # matrix whose columns are M's relations (no rows when it has none)
    r_m, r_n = list(zip(*M.relations)), list(zip(*N.relations))
    rels = [*zip(*_kron(ring, r_m, _identity_matrix(ring, N.gens))),
            *zip(*_kron(ring, _identity_matrix(ring, M.gens), r_n))]
    grading = None
    if M.grading is not None and N.grading is not None:
        grading = tuple(M.grading[i] + N.grading[j]
                        for i in range(M.gens) for j in range(N.gens))
    return PresentedModule(ring, g, rels, grading)


def _identity_matrix(ring: PolyRing, n: int):
    one, zero = ring.one(), ring.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _kron(ring: PolyRing, a, b):
    """Kronecker product of two Poly matrices: entry
    (i1 * rows(b) + i2, j1 * cols(b) + j2) is a[i1][j1] * b[i2][j2].

    Zero entries are skipped and unit entries are taken as the other
    factor, so a product with an identity or a 0/1 matrix multiplies nothing.
    """
    zero, one = ring.zero(), ring.one().terms
    cb = len(b[0]) if b else 0
    b_one = [[y.terms == one for y in row] for row in b]
    out = []
    for arow in a:
        for brow, brow_one in zip(b, b_one):
            row = [zero] * (len(arow) * cb)
            for j1, x in enumerate(arow):
                if not x.terms:
                    continue
                x_one, base = x.terms == one, j1 * cb
                for j2, y in enumerate(brow):
                    if y.terms:
                        row[base + j2] = y if x_one else (x if brow_one[j2] else x * y)
            out.append(row)
    return out


def tensor_map(phi: ModuleMap, psi: ModuleMap) -> ModuleMap:
    """Kronecker product acting on the row-major tensor generators."""
    return ModuleMap(tensor(phi.source, psi.source), tensor(phi.target, psi.target),
                     _kron(phi.ring, phi.matrix, psi.matrix), check=False)


def tensor_power(M: PresentedModule, n: int) -> PresentedModule:
    if n < 0:
        raise AlgebraError("negative tensor power")
    if n == 0:
        return unit_module(M.ring)
    P = M
    for _ in range(n - 1):
        P = tensor(P, M)
    return P


def symtrivial_check(M: PresentedModule) -> bool:
    """Whether the self-symmetry swap M (x) M -> M (x) M is the identity.

    Line-bundle-like objects are symtrivial; the plane-ideal module is not
    (the swap difference generates the torsion of its tensor square).
    """
    swap = tensor_permutation([M, M], [1, 0])
    return swap.equals(ModuleMap.identity(swap.source))


def tensor_permutation(factors, perm) -> ModuleMap:
    """Iso from factors[0] (x) ... (x) factors[k-1] to the permuted product
    factors[perm[0]] (x) ... ; perm maps new slot -> old slot."""
    ring = factors[0].ring
    src = factors[0]
    for f in factors[1:]:
        src = tensor(src, f)
    permuted = [factors[p] for p in perm]
    tgt = permuted[0]
    for f in permuted[1:]:
        tgt = tensor(tgt, f)
    dims = [f.gens for f in factors]

    def flatten(dims_list, idx):
        out = 0
        for d, i in zip(dims_list, idx):
            out = out * d + i
        return out

    zero, one = ring.zero(), ring.one()
    matrix = [[zero] * src.gens for _ in range(tgt.gens)]
    for idx in itertools.product(*[range(d) for d in dims]):
        s = flatten(dims, idx)
        t = flatten([dims[p] for p in perm], [idx[p] for p in perm])
        matrix[t][s] = one
    return ModuleMap(src, tgt, matrix, check=False)


# ---------------------------------------------------------------------------
# hom modules


class HomModule:
    """HOM(M, N) presented as the kernel of N^{g_M} -> N^{s_M}.

    Ambient coordinates flatten (source generator i, target generator r) to
    i * N.gens + r.  `interpret` turns an element (coefficient column over the
    hom generators) into the ModuleMap it encodes; `express` is its partial
    inverse, lifting a given map to hom coordinates.
    """

    def __init__(self, M: PresentedModule, N: PresentedModule):
        if M.ring != N.ring:
            raise RingMismatchError("hom over different rings")
        self.source = M
        self.target = N
        self.ring = M.ring
        ambient_degrees = None
        if M.grading is not None and N.grading is not None:
            ambient_degrees = tuple(N.grading[r] - M.grading[i]
                                    for i in range(M.gens) for r in range(N.gens))
        amb = _block_sum(self.ring, [N] * M.gens, ambient_degrees)
        self.ambient = amb
        if M.relations:
            # row (c, r) pairs relation c of M with target generator r
            rows = _kron(self.ring, M.relations, _identity_matrix(self.ring, N.gens))
            tmap = ModuleMap(amb, _block_sum(self.ring, [N] * len(M.relations)), rows,
                             check=False)
            K, incl = kernel(tmap)
        else:
            K, incl = amb, ModuleMap.identity(amb)
        self.module = K
        self.incl = incl

    def interpret(self, coeffs) -> ModuleMap:
        """The map M -> N encoded by an element of the hom module."""
        coeffs = tuple(self.ring.poly(c) for c in coeffs)
        if len(coeffs) != self.module.gens:
            raise AlgebraError("hom element length mismatch")
        flat, t = self.incl.apply_column(coeffs), self.target.gens
        return ModuleMap.from_columns(self.source, self.target,
                                      [flat[i * t:(i + 1) * t] for i in range(self.source.gens)])

    def generator_map(self, k: int) -> ModuleMap:
        return self.interpret(self.module.unit_column(k))

    def _flatten_map(self, phi: ModuleMap):
        return tuple(phi.matrix[r][i]
                     for i in range(self.source.gens) for r in range(self.target.gens))

    def express(self, phi: ModuleMap):
        """Hom coordinates of a map M -> N; raises LiftError if it is not one."""
        if phi.source.gens != self.source.gens or phi.target.gens != self.target.gens:
            raise AlgebraError("map shape does not match hom module")
        coords = self.incl.lift(self._flatten_map(phi))
        if coords is None:
            raise LiftError("map does not lie in the hom module")
        return coords


def hom_module(M: PresentedModule, N: PresentedModule) -> HomModule:
    return HomModule(M, N)


# ---------------------------------------------------------------------------
# pullback / pushout / iso


def pullback(phi: ModuleMap, psi: ModuleMap):
    """(P, p1, p2) for phi : M -> Q, psi : N -> Q with common target Q."""
    if phi.target != psi.target:
        raise AlgebraError("pullback requires a common target")
    S, incls, projs = direct_sum([phi.source, psi.source])
    combined = ModuleMap(
        S, phi.target,
        [list(phi.matrix[i]) + [-x for x in psi.matrix[i]] for i in range(phi.target.gens)],
        check=False)
    K, incl = kernel(combined)
    p1 = projs[0].compose(incl)
    p2 = projs[1].compose(incl)
    return K, p1, p2


def pushout(phi: ModuleMap, psi: ModuleMap):
    """(P, i1, i2) for phi : Q -> M, psi : Q -> N with common source Q."""
    if phi.source != psi.source:
        raise AlgebraError("pushout requires a common source")
    S, incls, projs = direct_sum([phi.target, psi.target])
    stacked = ModuleMap(
        phi.source, S,
        [list(row) for row in phi.matrix] + [[-x for x in row] for row in psi.matrix],
        check=False)
    C, proj = cokernel(stacked)
    i1 = proj.compose(incls[0])
    i2 = proj.compose(incls[1])
    return C, i1, i2


def is_iso(phi: ModuleMap) -> bool:
    C, _ = cokernel(phi)
    if not C.is_zero_module():
        return False
    return not kernel_columns(phi)


def iso_failure_certificate(phi: ModuleMap):
    """A machine-checkable witness when phi is not an isomorphism."""
    C, _ = cokernel(phi)
    if not C.is_zero_module():
        for i in range(C.gens):
            if not C.contains_column(C.unit_column(i)):
                return {"kind": "cokernel_generator", "index": i}
    for col in kernel_columns(phi):
        if not phi.source.contains_column(col):
            return {"kind": "kernel_element", "column": [str(p) for p in col]}
    return None


def invert_iso(phi: ModuleMap) -> ModuleMap:
    """Two-sided inverse of an isomorphism (raises LiftError otherwise)."""
    ring = phi.ring
    matrix = [[ring.zero()] * phi.target.gens for _ in range(phi.source.gens)]
    for k in range(phi.target.gens):
        col = phi.lift(phi.target.unit_column(k))
        if col is None:
            raise LiftError("map is not surjective; no inverse")
        for j in range(phi.source.gens):
            matrix[j][k] = col[j]
    psi = ModuleMap(phi.target, phi.source, matrix)
    if not psi.compose(phi).equals(ModuleMap.identity(phi.source)):
        raise LiftError("right inverse is not a left inverse; map is not injective")
    return psi


# ---------------------------------------------------------------------------
# graded dimensions


def ring_is_graded(ring: PolyRing) -> bool:
    """True when the quotient ideal is homogeneous for the ring's weights."""
    for q in ring.quotient_gb:
        if len({ring.mono_degree(e) for e in q}) > 1:
            return False
    return True


def graded_dims(M: PresentedModule, degrees) -> dict:
    """{d: base-field dimension of the degree-d component} for each d in
    degrees.

    By Macaulay's theorem the standard monomials, the pairs (generator i,
    monomial m) that no leading term of `rel_gb` in position i divides, form
    a basis of M; with homogeneous relations they form one of each graded
    component, so dim M_d counts those of degree d.  One enumeration covers
    every degree d - shift that some generator needs, and each monomial is
    counted as it comes, so a wide window holds no more than the counts.
    The walk stops at the top degree the leading terms show, if any
    (`_top_degree`): a finite module is not walked to the window's end."""
    if M.grading is None:
        raise UngradedError("module carries no grading")
    ring = M.ring
    if not ring_is_graded(ring):
        raise UngradedError("ring quotient ideal is not homogeneous")
    dims = dict.fromkeys(degrees, 0)
    # monomial degree k -> the (position, module degree) pairs it counts for
    wants: dict = {}
    for d in dims:
        for i, a in enumerate(M.grading):
            wants.setdefault(d - a, []).append((i, d))
    if not wants:
        return dims
    lts, top = M._graded_leading_terms()
    hi = max(wants) if top is None else min(max(wants), top)
    for m, k in iter_window(ring, min(wants), hi):
        pairs = wants.get(k)
        if pairs is None:
            continue
        for i, d in pairs:
            if not any(mono_divides(lt, m) for lt in lts[i]):
                dims[d] += 1
    return dims


def graded_dim(M: PresentedModule, d: int) -> int:
    """Base-field dimension of the degree-d component (see `graded_dims`)."""
    return graded_dims(M, (d,))[d]


def column_rank(*blocks) -> int:
    """Base-field rank of columns taken modulo module relations.

    Each block is a (module, columns) pair, every block holding the same
    number of columns; column j is the stack of the j-th column of each
    block, so modules over different rings with one base field are ranked
    together.  Elimination runs on the sparse normal forms, keyed by
    (block, (position, monomial)): a row pivots on its largest key, a new
    pivot row is scaled to 1 there, and each step touches only the nonzero
    entries of the pivot row."""
    field = blocks[0][0].ring.field
    if any(M.ring.field != field for M, _ in blocks):
        raise RingMismatchError("stacked columns over different base fields")
    if len({len(cols) for _, cols in blocks}) > 1:
        raise AlgebraError("stacked blocks hold different numbers of columns")
    zero = field.zero()
    reduced = [[M.reduce_vec(_column_vec(c)) for c in cols] for M, cols in blocks]
    pivots: dict = {}
    for parts in zip(*reduced):
        row = {(b, k): c for b, part in enumerate(parts) for k, c in part.items()}
        while row:
            key = max(row)
            lead = row[key]
            pivot = pivots.get(key)
            if pivot is None:
                inv = field.inv(lead)
                pivots[key] = {k: field.mul(c, inv) for k, c in row.items()}
                break
            for k, c in pivot.items():
                v = field.sub(row.get(k, zero), field.mul(lead, c))
                if v:
                    row[k] = v
                else:
                    row.pop(k, None)
    return len(pivots)
