"""Frozen copy of the hom chain that presented stage n as
HOM(J^{(x)n} (x) mid, target) on the explicit tensor-power source.

Test-only oracle for `test_chain_differential.py`: its transitions precompose
with the map J^{(x)(n+1)} (x) mid -> J^{(x)n} (x) mid that applies e at the
*last* tensor slot (the frozen `staged_oracle.collapse`), and its
reflection unit is the canonical map into the stage built from the full
power map J^{(x)n} -> O.  The present `HomChain` must present the same
stages up to isomorphism, with the same transitions, units and scan
decisions.

`comparison_search` is the idal comparison search that presented J^{(x)n}
for every n and read both hom modules out of it; the present search reads
the idal's hom chains instead and must find the same power and lift and
raise the same errors.  Do not optimise this file; its value is that it
stays as it was.
"""

from __future__ import annotations

from idals.errors import AlgebraError, LiftError, RingMismatchError
from idals.fpmod import ModuleMap, hom_module, unit_module
from idals.idal import IdalMorphism
from idals.localize import _saturated_kernel

import staged_oracle as staged


def canonical_stage_map(J, M, hom, n):
    """M -> HOM(J^{(x)n} (x) O, M) sending m to (t |-> powermap(t) * m)."""
    ring = M.ring
    power = J.power_map(n)
    src = hom.source  # tensor(J^{(x)n}, O), same generator count as the power
    cols = []
    for k in range(M.gens):
        matrix = [[ring.zero()] * src.gens for _ in range(M.gens)]
        for j in range(src.gens):
            matrix[k][j] = power.matrix[0][j]
        phi = ModuleMap(src, M, matrix, check=False)
        try:
            cols.append(hom.express(phi))
        except LiftError as exc:
            raise LiftError(f"canonical map failed to lift (internal): {exc}") from exc
    matrix = [[cols[k][r] for k in range(M.gens)] for r in range(hom.module.gens)]
    return ModuleMap(M, hom.module, matrix, check=False)


class OldHomChain:
    """Stages HOM(J^{(x)n} (x) mid, target) with transitions by precomposition
    with collapse : J^{(x)(n+1)} (x) mid -> J^{(x)n} (x) mid."""

    def __init__(self, J, mid, target):
        self.J = J
        self.mid = mid
        self.target = target
        self.ring = J.ring
        self._stages: dict = {}
        self._transitions: dict = {}
        self._saturated: dict = {}

    def source_at(self, n):
        return staged.stage_source(self.J, n, self.mid)

    def stage(self, n):
        if n not in self._stages:
            self._stages[n] = hom_module(self.source_at(n), self.target)
        return self._stages[n]

    def transition(self, n):
        if n not in self._transitions:
            Hs, Ht = self.stage(n), self.stage(n + 1)
            shr = staged.collapse(self.J, self.mid, n + 1, n)
            cols = [Ht.express(Hs.generator_map(k).compose(shr))
                    for k in range(Hs.module.gens)]
            matrix = [[cols[k][r] for k in range(Hs.module.gens)]
                      for r in range(Ht.module.gens)]
            self._transitions[n] = ModuleMap(Hs.module, Ht.module, matrix, check=False)
        return self._transitions[n]

    def saturated_kernel(self, n, budget):
        if (n, budget) not in self._saturated:
            self._saturated[(n, budget)] = _saturated_kernel(self, n, budget)
        return self._saturated[(n, budget)]

    def unit(self, n):
        """The reflection unit target -> stage n (mid = O)."""
        return canonical_stage_map(self.J, self.target, self.stage(n), n)


def comparison_search(I, J, n_max=8):
    """Smallest n <= n_max such that the idal map J^{(x)n} -> O lifts through
    e_I, with the lift as an idal morphism; None if no power lifts."""
    if I.ring != J.ring:
        raise RingMismatchError("comparison of idals over different rings")
    if n_max < 1:
        raise AlgebraError("n_max must be >= 1")
    O = unit_module(I.ring)
    for n in range(1, n_max + 1):
        Jn = J.power_idal(n)
        source = Jn.carrier
        H_O = hom_module(source, O)
        H_I = hom_module(source, I.carrier)
        try:
            u = H_O.express(Jn.e)
        except LiftError as exc:
            raise LiftError(f"power map not in its own hom module (internal): {exc}")
        # postcomposition with e_I as a map of hom modules H_I -> H_O
        post = ModuleMap.from_columns(H_I.module, H_O.module,
                                      [H_O.express(I.e.compose(H_I.generator_map(k)))
                                       for k in range(H_I.module.gens)])
        coeffs = post.lift(u)
        if coeffs is None:
            continue
        lift_map = H_I.interpret(coeffs)
        morphism = IdalMorphism(Jn, I, lift_map)
        return n, morphism
    return None
