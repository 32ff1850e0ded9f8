"""Frozen copies of the routes that asked whether a map is onto by
presenting its cokernel, and that built the canonical map into HOM(J, M)
one generator at a time.

Test-only oracle for `test_onto_differential.py`:

- `is_zero_by_units(M)`: the loop `is_zero_module` ran, asking of each
  generator whether its unit column lies in the relations;
- `cokernel_is_zero(phi)`: target / (image + target relations) presented,
  then that loop;
- `canonical_by_express(J, M)`: HOM(J.carrier, M) presented, and for each
  generator k of M the map J -> M whose row k is e, every other row zero,
  lifted to HOM coordinates through `HomModule.express`.

Do not optimise this file; its value is that it stays as it was.
"""

from idals.errors import LiftError
from idals.fpmod import ModuleMap, PresentedModule, hom_module


def is_zero_by_units(M) -> bool:
    return all(M.contains_column(M.unit_column(i)) for i in range(M.gens))


def cokernel_is_zero(phi) -> bool:
    tgt = phi.target
    C = PresentedModule(phi.ring, tgt.gens, list(phi.columns()) + list(tgt.relations))
    return is_zero_by_units(C)


def canonical_by_express(J, M) -> ModuleMap:
    hom = hom_module(J.carrier, M)
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
