"""Idals: maps e : I -> O satisfying e (x) I = I (x) e, and their calculus.

The unit coherences O (x) I ~ I ~ I (x) O are identity reindexings for
presented modules, so the idal law is a literal equality of matrices modulo
the carrier's relations.
"""

from __future__ import annotations

import math

from .errors import AlgebraError, RingMismatchError, WellDefinednessError
from .fpmod import (
    ModuleMap,
    PresentedModule,
    _identity_matrix,
    _kron,
    _matmul,
    base_change_module,
    cokernel,
    free_module,
    is_iso,
    pushout,
    tensor,
    unit_module,
)
from .polyring import PolyRing, RingHom

# The most generators a tensor power of a carrier may have.  I^{(x)n} has g^n
# generators and n g^(n-1) relation columns of that length; `nilpotency` of
# the (x, y) idal reaches n = 8, a power map with 2^8 entries, within its
# default n_max.
MAX_POWER_GENS = 256


def _law_sides(e: ModuleMap):
    """The matrices of the two maps I (x) I -> I compared by the idal law.

    e (x) I sends generator (i, j) to e_i * g_j; I (x) e sends it to e_j * g_i.
    """
    ident = _identity_matrix(e.ring, e.source.gens)
    return _kron(e.ring, e.matrix, ident), _kron(e.ring, ident, e.matrix)


def _law_difference(e: ModuleMap) -> ModuleMap:
    """e (x) I - I (x) e as a map out of the free module on the generators
    (i, j) of I (x) I, whose relations neither the law nor reflection reads."""
    left, right = _law_sides(e)
    return ModuleMap(free_module(e.ring, e.source.gens ** 2), e.source,
                     [[a - b for a, b in zip(l, r)] for l, r in zip(left, right)], check=False)


def idal_check(e: ModuleMap) -> bool:
    """Whether e : I -> O satisfies the idal law."""
    return idal_check_witness(e) is None


def idal_check_witness(e: ModuleMap):
    """None if the law holds, else the first generator pair where it fails."""
    if e.target.gens != 1 or e.target.relations:
        raise AlgebraError("idal target must be the rank-1 free module")
    I = e.source
    for k, col in enumerate(_law_difference(e).columns()):
        if not I.contains_column(col):
            return {"generator_pair": [k // I.gens + 1, k % I.gens + 1],
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
        self._chains: dict = {}   # localize's hom chains, keyed by (id(mid), id(target))
        self._e_powers = [[[self.ring.one()]]]   # e^{(x)k}, a 1 x g^k matrix

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

    def _check_power(self, n: int):
        """An AlgebraError unless I^{(x)n} has at most MAX_POWER_GENS generators."""
        g = self.carrier.gens
        # once g >= 2, g^n exceeds the bound for every n past its bit length
        if n < 0 or g ** min(n, MAX_POWER_GENS.bit_length()) > MAX_POWER_GENS:
            raise AlgebraError(f"tensor power {n} of a {g}-generator idal carrier is out "
                               f"of range: need n >= 0 and {g}^n <= {MAX_POWER_GENS}")

    def carrier_power(self, n: int) -> PresentedModule:
        """I^{(x)n}; an AlgebraError past MAX_POWER_GENS generators."""
        self._check_power(n)
        for k in range(2, n + 1):
            if k not in self._powers:
                self._powers[k] = tensor(self._powers[k - 1], self.carrier)
        return self._powers[n]

    def power_transition(self, n: int, m: int) -> ModuleMap:
        """The natural map I^{(x)n} -> I^{(x)m} applying e at the last n-m
        tensor slots: I^{(x)m} (x) e^{(x)(n-m)}.  The idal law makes the
        choice of slots immaterial, which the tests exercise."""
        return ModuleMap(self.carrier_power(n), self.carrier_power(m),
                         self._transition_matrix(n, m), check=False)

    def _transition_matrix(self, n: int, m: int):
        if n < m or m < 0:
            raise AlgebraError("a stage transition requires n >= m >= 0")
        while len(self._e_powers) <= n - m:
            self._e_powers.append(_kron(self.ring, self._e_powers[-1], self.e.matrix))
        ident = _identity_matrix(self.ring, self.carrier.gens ** m)
        return _kron(self.ring, ident, self._e_powers[n - m])

    # -- Deligne stages: maps out of J^{(x)n} (x) M ---------------------------
    # A staged map J^{(x)n} (x) M -> T is its T.gens x g^n M.gens matrix, with
    # generator (t, j) at column t * M.gens + j: composing and comparing staged
    # maps reads no relation of their source, so none presents it.

    def power_gens(self, n: int) -> int:
        """g^n, the generators of J^{(x)n}, counted without presenting it; an
        AlgebraError past MAX_POWER_GENS."""
        self._check_power(n)
        return self.carrier.gens ** n

    def collapse(self, M: PresentedModule, n: int, m: int):
        """J^{(x)n} (x) M -> J^{(x)m} (x) M applying e at the last n-m slots."""
        self._check_power(n)
        return _kron(self.ring, self._transition_matrix(n, m),
                     _identity_matrix(self.ring, M.gens))

    def restage(self, f, M: PresentedModule, a: int, n: int):
        """f : J^{(x)a} (x) M -> T moved to stage n >= a, as
        f . collapse(M, n, a) : J^{(x)n} (x) M -> T; f itself at n = a."""
        if n == a:
            return f
        return _matmul(self.ring, f, self.collapse(M, n, a), self.power_gens(n) * M.gens)

    def then(self, g, b: int, f, a: int, M: PresentedModule):
        """g . (J^{(x)b} (x) f) : J^{(x)(a+b)} (x) M -> T for
        f : J^{(x)a} (x) M -> X and g : J^{(x)b} (x) X -> T.  J^{(x)b} (x) f
        is block diagonal, so column block t of the result is g's column
        block t times f."""
        self._check_power(a + b)
        width, x = self.power_gens(a) * M.gens, len(f)
        blocks = [_matmul(self.ring, [row[t * x:(t + 1) * x] for row in g], f, width)
                  for t in range(self.carrier.gens ** b)]
        return [[p for block in blocks for p in block[r]] for r in range(len(g))]

    def power_map(self, n: int) -> ModuleMap:
        """The full composite I^{(x)n} -> O."""
        return ModuleMap(self.carrier_power(n), unit_module(self.ring),
                         self._transition_matrix(n, 0), check=False)

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
    I, pi = cokernel(_law_difference(f))
    e = ModuleMap(I, f.target, f.matrix, check=True)
    return Idal(I, e, check=False), pi


def idal_product(e: Idal, f: Idal) -> Idal:
    """The idal I (x) J -> O (x) O ~ O."""
    if e.ring != f.ring:
        raise RingMismatchError("idal product over different rings")
    carrier = tensor(e.carrier, f.carrier)
    row = _kron(e.ring, e.e.matrix, f.e.matrix)
    m = ModuleMap(carrier, unit_module(e.ring), row, check=False)
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
    ring = e.ring
    # the pushout reads only the targets' relations, so the shared source
    # I (x) J is held as the free module on its generators (i, j)
    IJ = free_module(ring, e.carrier.gens * f.carrier.gens)
    eJ = ModuleMap(IJ, f.carrier,   # I(x)J -> O(x)J = J
                   _kron(ring, e.e.matrix, _identity_matrix(ring, f.carrier.gens)), check=False)
    If = ModuleMap(IJ, e.carrier,   # I(x)J -> I(x)O = I
                   _kron(ring, _identity_matrix(ring, e.carrier.gens), f.e.matrix), check=False)
    P, _, _ = pushout(eJ, If)
    to_O = ModuleMap(P, unit_module(ring), [f.e.matrix[0] + e.e.matrix[0]], check=True)
    return is_iso(to_O)


def idal_from_ideal(gens, ring: PolyRing) -> Idal:
    """The reflected idal of f : O^k -> O built from ideal generators."""
    gens = [ring.poly(g) for g in gens]
    if not gens:
        raise AlgebraError("empty generator list")
    degrees = None
    if all(g.is_homogeneous() and not g.is_zero() for g in gens):
        degrees = [g.degree() for g in gens]
    A = free_module(ring, len(gens), degrees)
    f = ModuleMap(A, unit_module(ring), [gens], check=False)
    idal, _ = idal_reflect(f)
    return idal


def nilpotency_check(e: Idal, n_max: int = 8):
    """Smallest n <= n_max with the power map I^{(x)n} -> O zero, else None.

    The power map is the row e^{(x)n} into O, which has no relations, so it
    is zero exactly when every entry is; no presentation of I^{(x)n} is built.
    """
    if n_max < 1:
        raise AlgebraError("n_max must be >= 1")
    for n in range(1, n_max + 1):
        e._check_power(n)
        if all(p.is_zero() for p in e._transition_matrix(n, 0)[0]):
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
    carrier = base_change_module(e.carrier, h)
    m = ModuleMap(carrier, unit_module(h.dst),
                  [[h.apply(p) for p in row] for row in e.e.matrix], check=True)
    out = Idal(carrier, m, check=False)
    if not idal_check(m):
        raise AlgebraError("base change broke the idal law")
    return out
