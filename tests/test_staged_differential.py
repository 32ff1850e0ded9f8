"""The stage operations of `Idal` and the Kronecker builds of `fpmod._kron`
against the index loops and composites they replaced, and the matrix-valued
`collapse` / `restage` / `then` against their `ModuleMap`-valued forms out
of presented stage sources, all frozen in `staged_oracle.py`: every matrix
entry must print the same, on seeded idals with 1-3 generator carriers over
QQ and GF(5) at stages 0-3."""

import random

import pytest

from idals import GF, QQ, PolyRing, PresentedModule, direct_sum, idal_from_ideal, idal_product
from idals.fpmod import ModuleMap, tensor_map, zero_module
from idals.glued import _block_diagonal, _rho_matrix
from idals.idal import _law_sides

import staged_oracle as oracle
from conftest import random_idal, random_module, random_poly

QQ_XY = PolyRing(QQ, ["x", "y"])
GF5_XY = PolyRing(GF(5), ["x", "y"])
STAGES = range(4)


def entries(matrix):
    return [[str(p) for p in row] for row in matrix]


def same(new, old):
    new = new.matrix if isinstance(new, ModuleMap) else new
    old = old.matrix if isinstance(old, ModuleMap) else old
    assert entries(new) == entries(old)


def random_map(source, target, rng):
    ring = source.ring
    return ModuleMap(source, target,
                     [[random_poly(ring, rng, deg=1) for _ in range(source.gens)]
                      for _ in range(target.gens)], check=False)


def idal_cases():
    """(name, ring, idal): a principal idal, unit and zero entries in e, then
    seeded idals with 1-3 generators.  Each test seeds its own generator from the name."""
    cases = []
    for ring, tag in ((QQ_XY, "qq"), (GF5_XY, "gf5")):
        cases.append((f"{tag}-principal", ring, idal_from_ideal(["x^2 + 2*y"], ring)))
        cases.append((f"{tag}-unit-entry", ring, idal_from_ideal(["1", "x"], ring)))
        cases.append((f"{tag}-zero-entry", ring, idal_from_ideal(["x", "0", "y"], ring)))
        rng = random.Random(61 if ring is QQ_XY else 62)
        for k in range(3):
            cases.append((f"{tag}-random-{k}", ring, random_idal(ring, rng, gens_max=3)))
    return cases


CASES = idal_cases()
IDS = [c[0] for c in CASES]


@pytest.mark.parametrize("name,ring,J", CASES, ids=IDS)
def test_power_transitions_and_law_sides(name, ring, J):
    rng = random.Random(name)
    for n in STAGES:
        for m in range(n + 1):
            same(J.power_transition(n, m), oracle.power_transition(J, n, m))
    lmap, rmap = _law_sides(J.e)
    _, lold, rold = oracle._law_sides(J.e)
    same(lmap, lold)
    same(rmap, rold)


@pytest.mark.parametrize("name,ring,J", CASES, ids=IDS)
def test_products_rho_and_tensor_map(name, ring, J):
    rng = random.Random(name)
    I = random_idal(ring, rng)     # keeps (I (x) J)^{(x)3} at most 216 generators
    for A, B in ((I, J), (J, I)):
        same(idal_product(A, B).e, [oracle.idal_product_row(A, B)])
        for N in STAGES:
            for use_first in (True, False):
                same(_rho_matrix(A, B, N, use_first), oracle._rho_matrix(A, B, N, use_first))
    M, N_ = random_module(ring, rng), random_module(ring, rng)
    for phi, psi in ((J.e, random_map(M, N_, rng)), (random_map(M, N_, rng), J.e),
                     (ModuleMap.identity(M), random_map(N_, M, rng))):
        same(tensor_map(phi, psi), oracle.tensor_map(phi, psi))


@pytest.mark.parametrize("name,ring,J", CASES, ids=IDS)
def test_selfglue_validation_composites(name, ring, J):
    rng = random.Random(name)
    m1, m2 = random_module(ring, rng), random_module(ring, rng)
    for a in STAGES:
        for b in range(4 - a):
            fwd = random_map(oracle.stage_source(J, a, m1), m2, rng)
            bwd = random_map(oracle.stage_source(J, b, m2), m1, rng)
            left, collapse1, right, collapse2 = oracle.validate_selfglue_sides(
                J, fwd, a, bwd, b, m1, m2)
            same(J.then(bwd.matrix, b, fwd.matrix, a, m1), left)
            same(J.collapse(m1, a + b, 0), collapse1)
            same(J.then(fwd.matrix, a, bwd.matrix, b, m2), right)
            same(J.collapse(m2, a + b, 0), collapse2)
            same(J.then(bwd.matrix, b, fwd.matrix, a, m1), oracle.then(J, bwd, b, fwd, a, m1))
            same(J.collapse(m1, a + b, 0), oracle.collapse(J, m1, a + b, 0))


@pytest.mark.parametrize("name,ring,J", CASES, ids=IDS)
def test_compatibility_composites(name, ring, J):
    rng = random.Random(name)
    G_m1, G_m2 = random_module(ring, rng), random_module(ring, rng)
    H_m1, H_m2 = random_module(ring, rng), random_module(ring, rng)
    c1, c2 = random_map(G_m1, H_m1, rng), random_map(G_m2, H_m2, rng)
    for a in STAGES:
        for b in STAGES:
            G_fwd = random_map(oracle.stage_source(J, a, G_m1), G_m2, rng)
            H_fwd = random_map(oracle.stage_source(J, b, H_m1), H_m2, rng)
            lhs, rhs = oracle.compatibility_sides(J, c1, c2, G_fwd, a, G_m1, H_fwd, b)
            N = max(a, b)
            # the two sides exactly as GluedMap.is_compatible builds them
            new_lhs = J.restage(J.then(c2.matrix, 0, G_fwd.matrix, a, G_m1), G_m1, a, N)
            new_rhs = J.restage(J.then(H_fwd.matrix, b, c1.matrix, 0, G_m1), G_m1, b, N)
            same(new_lhs, lhs)
            same(new_rhs, rhs)
            same(new_lhs, oracle.restage(J, oracle.compose(c2, G_fwd), G_m1, a, N))
            same(new_rhs, oracle.restage(J, oracle.then(J, H_fwd, b, c1, 0, G_m1), G_m1, b, N))


@pytest.mark.parametrize("name,ring,J", CASES, ids=IDS)
def test_blockdiag_composite(name, ring, J):
    rng = random.Random(name)
    sources = [random_module(ring, rng) for _ in range(2)]
    targets = [random_module(ring, rng) for _ in range(2)]
    S_src, _, _ = direct_sum(sources)
    S_tgt, _, _ = direct_sum(targets)
    for N in STAGES:
        stages = [rng.randint(0, N), N]
        staged = [(s, random_map(oracle.stage_source(J, s, src), tgt, rng))
                  for s, src, tgt in zip(stages, sources, targets)]
        stage, D = _block_diagonal(J, [(s, f.matrix, src)
                                       for (s, f), src in zip(staged, sources)])
        assert stage == N
        same(D, oracle._blockdiag_selfglue(J, sources, targets, staged, N, S_src, S_tgt))


def stage_modules(ring, rng):
    """Two seeded modules, the unit module and the zero module, whose staged
    maps have no columns (out of it) or no rows (into it)."""
    return [random_module(ring, rng), random_module(ring, rng, gens_max=3),
            PresentedModule(ring, 1), zero_module(ring)]


@pytest.mark.parametrize("name,ring,J", CASES, ids=IDS)
def test_stage_operations_match_frozen_copies(name, ring, J):
    rng = random.Random(name)
    modules = stage_modules(ring, rng)
    for M in modules:
        for n in STAGES:
            for m in range(n + 1):
                same(J.collapse(M, n, m), oracle.collapse(J, M, n, m))
    for M, T in zip(modules, modules[1:] + modules[:1]):
        for a in STAGES:
            f = random_map(oracle.stage_source(J, a, M), T, rng)
            for n in range(a, 4):
                same(J.restage(f.matrix, M, a, n), oracle.restage(J, f, M, a, n))
    for M, X, T in zip(modules, modules[1:] + modules[:1], modules[2:] + modules[:2]):
        for a in STAGES:
            for b in range(4 - a):
                f = random_map(oracle.stage_source(J, a, M), X, rng)
                g = random_map(oracle.stage_source(J, b, X), T, rng)
                same(J.then(g.matrix, b, f.matrix, a, M), oracle.then(J, g, b, f, a, M))
