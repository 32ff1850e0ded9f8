"""Idals: maps e : I -> O satisfying e (x) I = I (x) e, and their calculus.

The unit coherences O (x) I ~ I ~ I (x) O are identity reindexings for
presented modules, so the idal law is a literal equality of matrices modulo
the carrier's relations.
"""

from __future__ import annotations

import math

from .errors import AlgebraError, GradingError, RingMismatchError, WellDefinednessError
from .fpmod import (
    ModuleMap,
    PresentedModule,
    cokernel,
    is_iso,
    tensor,
    tensor_power,
    unit_module,
)
from .polyring import PolyRing, RingHom


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


def idal_check(e: ModuleMap) -> bool:
    """Whether e : I -> O satisfies the idal law."""
    return idal_check_witness(e) is None


def idal_check_witness(e: ModuleMap):
    """None if the law holds, else the first generator pair where it fails."""
    if e.target.gens != 1 or e.target.relations:
        raise AlgebraError("idal target must be the rank-1 free module")
    I = e.source
    _, lmap, rmap = _law_sides(e)
    diff = lmap - rmap
    g = I.gens
    for i in range(g):
        for j in range(g):
            col = diff.column(i * g + j)
            if not I.contains_column(col):
                return {"generator_pair": [i + 1, j + 1],
                        "difference": [str(p) for p in col]}
    return None


class Idal:
    """A carrier module I together with a verified idal map e : I -> O."""

    def __init__(self, carrier: PresentedModule, e: ModuleMap, check: bool = True):
        if e.source != carrier:
            raise AlgebraError("idal map source must be the carrier")
        if e.target.gens != 1 or e.target.relations:
            raise AlgebraError("idal target must be the rank-1 free module")
        if check and not idal_check(e):
            raise AlgebraError("map fails the idal law")
        self.carrier = carrier
        self.e = e
        self.ring = carrier.ring
        self._powers: dict = {0: unit_module(self.ring), 1: carrier}

    @staticmethod
    def identity(ring: PolyRing) -> "Idal":
        O = unit_module(ring)
        return Idal(O, ModuleMap.identity(O), check=False)

    @staticmethod
    def from_map(e: ModuleMap) -> "Idal":
        return Idal(e.source, e)

    def image_generators(self):
        """Entries of e's matrix: generators of the image ideal in O."""
        return [self.e.matrix[0][j] for j in range(self.carrier.gens)]

    def carrier_power(self, n: int) -> PresentedModule:
        if n not in self._powers:
            self._powers[n] = tensor(self.carrier_power(n - 1), self.carrier) \
                if n > 1 else tensor_power(self.carrier, n)
        return self._powers[n]

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

    def power_map(self, n: int) -> ModuleMap:
        """The full composite I^{(x)n} -> O."""
        t = self.power_transition(n, 0)
        O = unit_module(self.ring)
        return ModuleMap(self.carrier_power(n), O, t.matrix, check=False)

    def power_idal(self, n: int) -> "Idal":
        if n == 0:
            return Idal.identity(self.ring)
        if n == 1:
            return self
        return Idal(self.carrier_power(n), self.power_map(n), check=False)

    def serialize(self):
        return {"carrier": self.carrier.to_json(),
                "e_matrix": [[str(x) for x in row] for row in self.e.matrix]}

    def __repr__(self):
        return f"Idal(gens={self.carrier.gens} over {self.ring!r})"


class IdalMorphism:
    """A map of carriers commuting with the structure maps over O."""

    def __init__(self, source: Idal, target: Idal, f: ModuleMap):
        if f.source != source.carrier or f.target != target.carrier:
            raise AlgebraError("morphism endpoints must be the idal carriers")
        if not target.e.compose(f).equals(source.e):
            raise WellDefinednessError("triangle over O does not commute")
        self.source = source
        self.target = target
        self.f = f


def idal_reflect(f: ModuleMap):
    """Reflection of f : A -> O into idals.

    Returns (Idal, pi) where the carrier is the coequalizer of
    f (x) A and A (x) f, pi is the projection, and e . pi = f.
    """
    if f.target.gens != 1 or f.target.relations:
        raise AlgebraError("reflection input must map to the rank-1 free module")
    A = f.source
    ring = f.ring
    _, lmap, rmap = _law_sides(f)
    diff = lmap - rmap
    I, pi = cokernel(diff)
    e = ModuleMap(I, f.target, f.matrix, check=True)
    return Idal(I, e, check=False), pi


def idal_product(e: Idal, f: Idal) -> Idal:
    """The idal I (x) J -> O (x) O ~ O."""
    if e.ring != f.ring:
        raise RingMismatchError("idal product over different rings")
    carrier = tensor(e.carrier, f.carrier)
    ring = e.ring
    row = []
    for i in range(e.carrier.gens):
        for j in range(f.carrier.gens):
            row.append(e.e.matrix[0][i] * f.e.matrix[0][j])
    m = ModuleMap(carrier, unit_module(ring), [row], check=False)
    return Idal(carrier, m, check=False)


def idal_power(e: Idal, n: int, m: int):
    """(Idal for I^{(x)n}, transition I^{(x)n} -> I^{(x)m})."""
    if n < m:
        raise AlgebraError("idal_power requires n >= m")
    return e.power_idal(n), e.power_transition(n, m)


def cover_check(e: Idal, f: Idal) -> bool:
    """Whether (e, f) : I + J -> O is surjective, i.e. the entries of both
    matrices generate the unit ideal."""
    if e.ring != f.ring:
        raise RingMismatchError("cover check over different rings")
    gens = [p for p in e.image_generators() + f.image_generators() if not p.is_zero()]
    if not gens:
        return False
    return e.ring.contains_one(gens)


def cover_check_pushout(e: Idal, f: Idal) -> bool:
    """The pushout form of the cover condition: the square built on
    e (x) J and I (x) f has pushout mapping isomorphically onto O."""
    from .fpmod import pushout, tensor_map

    ring = e.ring
    O = unit_module(ring)
    idI = ModuleMap.identity(e.carrier)
    idJ = ModuleMap.identity(f.carrier)
    eJ_raw = tensor_map(e.e, idJ)   # I(x)J -> O(x)J
    If_raw = tensor_map(idI, f.e)   # I(x)J -> I(x)O
    IJ = eJ_raw.source
    eJ = ModuleMap(IJ, f.carrier, eJ_raw.matrix, check=False)
    If = ModuleMap(IJ, e.carrier, If_raw.matrix, check=False)
    P, iJ, iI = pushout(eJ, If)
    induced = [[f.e.matrix[0][j] for j in range(f.carrier.gens)]
               + [e.e.matrix[0][i] for i in range(e.carrier.gens)]]
    to_O = ModuleMap(P, O, induced, check=True)
    return is_iso(to_O)


def idal_from_ideal(gens, ring: PolyRing) -> Idal:
    """The reflected idal of f : O^k -> O built from ideal generators."""
    gens = [ring.poly(g) for g in gens]
    if not gens:
        raise AlgebraError("empty generator list")
    degrees = None
    if all(g.is_homogeneous() and not g.is_zero() for g in gens):
        degrees = [g.degree() for g in gens]
    from .fpmod import free_module

    A = free_module(ring, len(gens), degrees)
    f = ModuleMap(A, unit_module(ring), [gens], check=False)
    idal, _ = idal_reflect(f)
    return idal


def nilpotency_check(e: Idal, n_max: int = 8):
    """Smallest n <= n_max with the power map I^{(x)n} -> O zero, else None."""
    if n_max < 1:
        raise AlgebraError("n_max must be >= 1")
    for n in range(1, n_max + 1):
        if e.power_map(n).is_zero_map():
            return n
    return None


def free_idal_hom_size(n: int, m: int) -> int:
    """Hom sizes in the universal idal example: m! when n >= m, else 0."""
    if n < 0 or m < 0:
        raise AlgebraError("tensor powers are indexed by naturals")
    return math.factorial(m) if n >= m else 0


def idal_base_change(h: RingHom, e: Idal) -> Idal:
    """Push an idal along a ring homomorphism, entrywise on presentations."""
    if h.src != e.ring:
        raise RingMismatchError("homomorphism source must be the idal's ring")
    cols = [tuple(h.apply(p) for p in col) for col in e.carrier.relations]
    try:
        carrier = PresentedModule(h.dst, e.carrier.gens, cols, e.carrier.grading)
    except GradingError:
        carrier = PresentedModule(h.dst, e.carrier.gens, cols)
    m = ModuleMap(carrier, unit_module(h.dst),
                  [[h.apply(p) for p in row] for row in e.e.matrix], check=True)
    out = Idal(carrier, m, check=False)
    if not idal_check(m):
        raise AlgebraError("base change broke the idal law")
    return out
