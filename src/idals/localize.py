"""Localization at an idal: believing, the reflector as a stabilizing chain
colimit of hom modules, Deligne morphism spaces, the principal-localization
oracle, the closed-complement quotient, and the comparison search.

Chain stabilization policy (shared by reflect and deligne_hom): stage 0 is
accepted only when the idal map J.e is an isomorphism (then every transition
is one).  From n = 1 on, the scan reads transitions n and n + 1.  When both
are injective it applies the plain rule alone: it accepts stage n when both
are also surjective, and otherwise moves on to n + 1 without saturating.
When either has a kernel, it saturates stages n, n + 1 and n + 2 by the
stable kernel of the forward composites (the chain of saturated stages is
injective) and accepts saturated stage n when the two saturated transitions
are surjective.  Saturation is what detects collapse to zero for nilpotent
idals and for targets killed by the image ideal.
"""

from __future__ import annotations

import weakref
from typing import NamedTuple

from .errors import AlgebraError, LiftError, RingMismatchError
from .fpmod import (
    HomModule,
    ModuleMap,
    PresentedModule,
    base_change_module,
    cokernel,
    graded_dims,
    hom_module,
    is_iso,
    kernel,  # unused here; perfbench's tracer test wraps it through this module
    kernel_columns,
    tensor,
)
from .idal import Idal, IdalMorphism, idal_product
from .polyring import Poly, PolyRing, RingHom


# ---------------------------------------------------------------------------
# the canonical map and believing


def _canonical_stage_map(J: Idal, M: PresentedModule, hom: HomModule) -> ModuleMap:
    """M -> HOM(J, M) sending m to (t |-> e(t) * m), for hom = HOM(J.carrier, M)."""
    zero_row = [M.ring.zero()] * J.carrier.gens
    cols = []
    for k in range(M.gens):
        matrix = [zero_row] * M.gens
        matrix[k] = J.e.matrix[0]
        try:
            cols.append(hom.express(ModuleMap(J.carrier, M, matrix, check=False)))
        except LiftError as exc:
            raise LiftError(f"canonical map failed to lift (internal): {exc}") from exc
    return ModuleMap.from_columns(M, hom.module, cols)


def canonical_to_hom(J: Idal, M: PresentedModule) -> ModuleMap:
    """The canonical M -> HOM(J, M)."""
    if J.ring != M.ring:
        raise RingMismatchError("idal and module over different rings")
    return _canonical_stage_map(J, M, hom_module(J.carrier, M))


def believes(J: Idal, M: PresentedModule) -> bool:
    """Whether the canonical M -> HOM(J, M) is an isomorphism."""
    return is_iso(canonical_to_hom(J, M))


# ---------------------------------------------------------------------------
# hom chains


class HomChain:
    """The stages HOM(J^{(x)n} (x) mid, target) by tensor-hom adjunction:
    H_0 = HOM(mid, target) and H_{n+1} = HOM(J, H_n), so every stage is one
    HOM out of the idal's carrier and no stage is built from J^{(x)n}.
    Transition n is the canonical map H_n -> HOM(J, H_n), which applies e at
    the first tensor slot.

    The outermost HOM is the first slot of J^{(x)n}; with row-major
    flattening, column block j of a staged map J^{(x)n} (x) mid -> target
    belongs to generator j of that slot.  `uncurry` and `curry` move
    between stage-n elements and the matrices of such staged maps; `curry`
    raises LiftError on a matrix whose staged map is not well defined.
    """

    def __init__(self, J: Idal, mid: PresentedModule, target: PresentedModule):
        if J.ring != mid.ring or J.ring != target.ring:
            raise RingMismatchError("chain data over different rings")
        self._idal = weakref.ref(J)   # weak: the idal keeps its chains (`of`)
        self.mid = mid
        self.target = target
        self.ring = J.ring
        self._stages: dict = {}
        self._transitions: dict = {}
        self._saturated: dict = {}

    @staticmethod
    def of(J: Idal, mid: PresentedModule, target: PresentedModule) -> "HomChain":
        """The chain for (J, mid, target), one per triple for the life of the
        idal, so that stages and transitions are built once."""
        key = (id(mid), id(target))
        if key not in J._chains:
            # the chain keeps mid and target, so their ids cannot be reused
            J._chains[key] = HomChain(J, mid, target)
        return J._chains[key]

    @property
    def J(self) -> Idal:
        J = self._idal()
        if J is None:
            raise ReferenceError("the hom chain's idal has been freed")
        return J

    def stage(self, n: int) -> HomModule:
        for k in range(len(self._stages), n + 1):   # stages are built in order
            self._stages[k] = hom_module(self.mid, self.target) if k == 0 \
                else hom_module(self.J.carrier, self._stages[k - 1].module)
        return self._stages[n]

    def shrink(self, n: int):
        """The matrix of J^{(x)(n+1)} (x) mid -> J^{(x)n} (x) mid applying e
        at the last slot: precomposing with it is the transition stated on the
        staged maps."""
        return self.J.collapse(self.mid, n + 1, n)

    def transition(self, n: int) -> ModuleMap:
        if n not in self._transitions:
            self._transitions[n] = _canonical_stage_map(
                self.J, self.stage(n).module, self.stage(n + 1))
        return self._transitions[n]

    def composite(self, n: int, m: int) -> ModuleMap:
        """Transitions n, ..., m - 1 composed: H_n -> H_m."""
        comp = ModuleMap.identity(self.stage(n).module)
        for k in range(n, m):
            comp = self.transition(k).compose(comp)
        return comp

    def uncurry(self, n: int, coeffs):
        """The matrix of the staged map of a stage-n element."""
        # a stage-k element is a map out of J (out of mid at k = 0); its
        # columns are stage-(k-1) elements (target columns at k = 0)
        cols = [coeffs]
        for k in range(n, -1, -1):
            H = self.stage(k)
            cols = [c for h in cols for c in H.interpret(h).columns()]
        return [[c[r] for c in cols] for r in range(self.target.gens)]

    def curry(self, n: int, matrix):
        """Stage-n coordinates of the matrix of a staged map; a LiftError
        unless that map is well defined."""
        g = self.J.carrier.gens
        cols = [tuple(row[j] for row in matrix) for j in range(g ** n * self.mid.gens)]
        for k in range(n + 1):
            H = self.stage(k)
            w = H.source.gens
            cols = [H.express(ModuleMap.from_columns(H.source, H.target, cols[i * w:(i + 1) * w]))
                    for i in range(g ** (n - k))]
        return cols[0]

    def saturated_kernel(self, n: int, budget: int):
        """`_saturated_kernel(self, n, budget)`, computed once per chain."""
        if (n, budget) not in self._saturated:
            self._saturated[(n, budget)] = _saturated_kernel(self, n, budget)
        return self._saturated[(n, budget)]


def _saturated_kernel(chain: HomChain, n: int, budget: int):
    """Generators of the stable kernel of the forward composites out of
    stage n, or None if the kernel kept growing within the budget."""
    comp = None
    prev_key = None
    prev_cols = []
    for k in range(1, budget + 1):
        t = chain.transition(n + k - 1)
        comp = t if comp is None else t.compose(comp)
        cols = kernel_columns(comp)
        key = comp.source.span_key(cols)
        if prev_key is not None and key == prev_key:
            return prev_cols
        prev_key, prev_cols = key, cols
    return None


def _saturated_stage(chain: HomChain, n: int, ker_cols) -> PresentedModule:
    """Stage n of the chain modulo the stable kernel columns, graded by zero
    when its relation columns allow (the stage's own grading is not kept)."""
    base = chain.stage(n).module
    if not ker_cols:
        return base
    return PresentedModule(base.ring, base.gens, list(base.relations) + list(ker_cols), None)


class ChainColimitResult(NamedTuple):
    """What `_scan_hom_chain` read and decided: the stages and transitions up
    to where it stopped, the colimit value, and which rule fired."""

    stages: list
    transitions: list
    value: PresentedModule
    stabilized_at: int | None
    truncated: bool
    saturated: bool = False
    saturated_transitions: list | tuple = ()


def _scan_hom_chain(chain: HomChain, n_max: int) -> ChainColimitResult:
    if n_max < 1:
        raise AlgebraError("n_max must be >= 1")

    def module_at(n):
        return chain.stage(n).module

    def collect(upto_stage: int, upto_transition: int):
        stages = [module_at(i) for i in range(upto_stage + 1)]
        transitions = [chain.transition(i) for i in range(upto_transition + 1)]
        return stages, transitions

    # stage 0 is accepted only when the idal map itself is invertible (then
    # every transition is an isomorphism); all other chains scan from n = 1
    if is_iso(chain.J.e):
        upto = min(2, n_max)
        stages, transitions = collect(upto, upto - 1)
        return ChainColimitResult(stages, transitions, module_at(0), 0, False)

    def saturated(n):
        return chain.saturated_kernel(n, max(2, n_max - n))

    ker_cache: dict = {}

    def transition_kernel_is_zero(n):
        if n not in ker_cache:
            ker_cache[n] = not kernel_columns(chain.transition(n))
        return ker_cache[n]

    coker_cache: dict = {}

    def transition_is_surjective(n):
        if n not in coker_cache:
            C, _ = cokernel(chain.transition(n))
            coker_cache[n] = C.is_zero_module()
        return coker_cache[n]

    for n in range(1, n_max - 1):
        if transition_kernel_is_zero(n) and transition_kernel_is_zero(n + 1):
            # plain two-consecutive-isomorphisms rule (kernels already known)
            if transition_is_surjective(n) and transition_is_surjective(n + 1):
                stages, transitions = collect(n + 2, n + 1)
                return ChainColimitResult(stages, transitions, module_at(n), n, False)
            continue
        kn, kn1, kn2 = saturated(n), saturated(n + 1), saturated(n + 2)
        if kn is None or kn1 is None or kn2 is None:
            continue
        Vn = _saturated_stage(chain, n, kn)
        Vn1 = _saturated_stage(chain, n + 1, kn1)
        Vn2 = _saturated_stage(chain, n + 2, kn2)
        tn = ModuleMap(Vn, Vn1, chain.transition(n).matrix, check=False)
        tn1 = ModuleMap(Vn1, Vn2, chain.transition(n + 1).matrix, check=False)
        c1, _ = cokernel(tn)
        c2, _ = cokernel(tn1)
        if c1.is_zero_module() and c2.is_zero_module():
            any_sat = bool(kn or kn1 or kn2)
            stages, transitions = collect(n + 2, n + 1)
            return ChainColimitResult(stages, transitions, Vn, n, False,
                                      saturated=any_sat,
                                      saturated_transitions=[tn, tn1] if any_sat else [])

    stages, transitions = collect(n_max, n_max - 1)
    return ChainColimitResult(stages, transitions, module_at(n_max), None, True)


# ---------------------------------------------------------------------------
# the reflector


class ReflectorResult(NamedTuple):
    input: PresentedModule
    idal: Idal
    chain: ChainColimitResult
    unit: ModuleMap
    hom_chain: HomChain   # the chain the scan read; its stages stay cached

    @property
    def value(self) -> PresentedModule:
        return self.chain.value

    @property
    def stabilized(self) -> bool:
        return self.chain.stabilized_at is not None


def reflect(J: Idal, M: PresentedModule, n_max: int = 8) -> ReflectorResult:
    """The reflection of M into the modules believing J: the stabilizing
    chain colimit of HOM(J^{(x)n}, M), scanned on the idal's chain over its
    own O = J^{(x)0}.  Stage 0 is HOM(O, M), presented as M itself, so the
    unit is the composite of the transitions out of stage 0."""
    if J.ring != M.ring:
        raise RingMismatchError("idal and module over different rings")
    chain = HomChain.of(J, J.carrier_power(0), M)
    res = _scan_hom_chain(chain, n_max)
    idx = n_max if res.stabilized_at is None else res.stabilized_at
    # the value is the stage hom module or its saturated quotient; either way
    # it has the same generators
    unit = ModuleMap(M, res.value, chain.composite(0, idx).matrix, check=False)
    return ReflectorResult(M, J, res, unit, chain)


# ---------------------------------------------------------------------------
# Deligne morphism spaces


class DeligneHomResult(NamedTuple):
    idal: Idal
    source: PresentedModule
    target: PresentedModule
    chain: ChainColimitResult
    hom_chain: HomChain   # the chain the scan read; its stages stay cached

    @property
    def value(self) -> PresentedModule:
        return self.chain.value

    @property
    def stabilized(self) -> bool:
        return self.chain.stabilized_at is not None

    def interpret(self, coeffs):
        """The matrix of J^{(x)n*} (x) M -> N encoded by an element of the value."""
        if self.chain.stabilized_at is None:
            raise AlgebraError("chain did not stabilize; no interpretation")
        return self.hom_chain.uncurry(self.chain.stabilized_at, coeffs)


def deligne_hom(J: Idal, M: PresentedModule, N: PresentedModule,
                n_max: int = 8) -> DeligneHomResult:
    """The chain Hom(J^{(x)n} (x) M, N), its stages presented as
    H_{n+1} = HOM(J, H_n) with the canonical maps as transitions (see
    HomChain); the stabilized value presents the morphisms between the
    localizations of M and N."""
    chain = HomChain.of(J, M, N)
    return DeligneHomResult(J, M, N, _scan_hom_chain(chain, n_max), chain)


def deligne_window_dims(J: Idal, M: PresentedModule, N: PresentedModule,
                        n: int, degrees) -> dict:
    """Graded dimensions of the stage-n Deligne hom module on a degree window."""
    chain = HomChain.of(J, M, N)
    stage = chain.stage(n).module
    return graded_dims(stage, degrees)


# ---------------------------------------------------------------------------
# principal localization oracle


def fresh_variable(ring: PolyRing, stem: str = "inv") -> str:
    if stem not in ring.variables:
        return stem
    k = 0
    while f"{stem}{k}" in ring.variables:
        k += 1
    return f"{stem}{k}"


def localized_ring(ring: PolyRing, f: Poly, inv_name: str | None = None):
    """(B, hom, inv) with B = ring[t]/(t*f - 1) and hom the inclusion."""
    f = ring.poly(f)
    if f.is_zero():
        raise AlgebraError("cannot invert zero")
    name = fresh_variable(ring) if inv_name is None else inv_name
    if f.is_constant():
        weight = 0   # the inverse variable is eliminated by c*t - 1
    elif f.is_homogeneous():
        weight = -f.degree()
    else:
        weight = 1
    # the quotient of B on the free ring over B's variables: the base
    # relations with t to the power 0, then t*f - 1
    free = PolyRing(ring.field, ring.variables + (name,), ring.order, (),
                    ring.weights + (weight,))
    quotient = [Poly(free, {e + (0,): c for e, c in q.items()}) for q in ring.quotient_gb]
    quotient.append(Poly(free, {e + (1,): c for e, c in f.terms.items()}) - free.one())
    B = PolyRing(ring.field, free.variables, ring.order, quotient, free.weights)
    return B, RingHom.inclusion(ring, B), B.var(name)


def localization_oracle(f, M: PresentedModule, inv_name: str | None = None) -> PresentedModule:
    """M base-changed along A -> A[t]/(t f - 1); the independent model of the
    reflection at the principal idal (f).  Grading transports when f is
    homogeneous (the inverse variable gets degree -deg f)."""
    ring = M.ring
    f = ring.poly(f)
    B, hom, _ = localized_ring(ring, f, inv_name)
    return base_change_module(M, hom)


# ---------------------------------------------------------------------------
# quotient functor, intersection law, comparison search


def quotient_functor(I, M: PresentedModule) -> PresentedModule:
    """M (x) O/I, the reflection onto modules killed by the idal."""
    e = I.e if isinstance(I, Idal) else I
    C, _ = cokernel(e)
    return tensor(M, C)


def intersection_check(I: Idal, J: Idal, M: PresentedModule) -> bool:
    """Verify believes(I (x) J, M) <=> believes(I, M) and believes(J, M)."""
    both = believes(I, M) and believes(J, M)
    product = believes(idal_product(I, J), M)
    return both == product


def idal_comparison_search(I: Idal, J: Idal, n_max: int = 8):
    """Smallest n <= n_max such that the idal map J^{(x)n} -> O lifts through
    e_I, with the lift as an idal morphism; None if no power lifts.  Read on
    J's hom chains into I and O, presenting J^{(x)n} only for the power found."""
    if I.ring != J.ring:
        raise RingMismatchError("comparison of idals over different rings")
    if n_max < 1:
        raise AlgebraError("n_max must be >= 1")
    O = J.carrier_power(0)
    into_I, into_O = HomChain.of(J, O, I.carrier), HomChain.of(J, O, O)
    post = ModuleMap(into_I.stage(0).module, into_O.stage(0).module, I.e.matrix, check=False)
    power = (I.ring.one(),)
    for n in range(1, n_max + 1):
        J.power_gens(n)   # an AlgebraError past MAX_POWER_GENS
        H_I, H_O = into_I.stage(n), into_O.stage(n)
        post = ModuleMap.from_columns(H_I.module, H_O.module,
                                      [H_O.express(post.compose(H_I.generator_map(k)))
                                       for k in range(H_I.module.gens)])
        power = into_O.transition(n - 1).apply_column(power)
        coeffs = post.lift(power)
        if coeffs is not None:
            Jn = J.power_idal(n)
            lift = ModuleMap(Jn.carrier, I.carrier, into_I.uncurry(n, coeffs), check=False)
            return n, IdalMorphism(Jn, I, lift)
    return None
