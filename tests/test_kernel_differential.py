"""`kernel_columns`, `kernel` and `tensor` against the frozen copies in
`kernel_oracle.py`: the same kernel columns in the same order, the same
kernel presentation and inclusion, and the same tensor presentation.

The maps are those of `test_hom_differential`'s module pairs (the map whose
kernel presents HOM(M, N), the maps M -> N of hom generators and a seeded
map from a free module into N) and seeded maps between random
modules over QQ, GF(7) and a quotient ring."""

import random

import pytest

from idals import ModuleMap, free_module, hom_module, kernel, tensor
from idals.errors import GradingError
from idals.fpmod import kernel_columns, ring_is_graded

import hom_oracle
import kernel_oracle as oracle
from conftest import random_module, random_poly
from test_hom_differential import CASES, GF7_XY, QQ_XY, QUOT, matrix_key


def column_keys(cols):
    return [tuple(str(p) for p in col) for col in cols]


def kernel_key(kernel_fn, phi):
    """The presentation and inclusion of the kernel, or the error raised:
    a graded source hands its degrees to kernel generators whose relations
    need not be homogeneous for them, and both versions refuse that alike."""
    try:
        K, incl = kernel_fn(phi)
    except GradingError as exc:
        return "GradingError", str(exc)
    return K.presentation_key(), matrix_key(incl)


def assert_kernel_matches(phi):
    assert column_keys(kernel_columns(phi)) == column_keys(oracle.kernel_columns(phi))
    assert kernel_key(kernel, phi) == kernel_key(oracle.kernel, phi)


def hom_defining_map(M, N):
    """The map N^{g_M} -> N^{s_M} whose kernel presents HOM(M, N), written
    out entry by entry."""
    ring = M.ring
    amb, _, _ = hom_oracle.direct_sum([N] * M.gens)
    tgt, _, _ = hom_oracle.direct_sum([N] * len(M.relations))
    rows = [[M.relations[c][i] if r == r2 else ring.zero()
             for i in range(M.gens) for r2 in range(N.gens)]
            for c in range(len(M.relations)) for r in range(N.gens)]
    return ModuleMap(amb, tgt, rows, check=False)


def seeded_maps(M, N, rng):
    """The maps M -> N of the first three hom generators, and over a graded
    ring a random map of degree-1 entries from a free module into N.

    Over QQ[x,y]/(x^2 - y^3) such a random map can make `_syzygy_vecs`
    run for minutes (2x2 into a module of one relation), so that ring is
    checked on the hom generator maps alone."""
    ring = M.ring
    H = hom_module(M, N)
    maps = [H.generator_map(k) for k in range(min(3, H.module.gens))]
    if ring_is_graded(ring):
        F = free_module(ring, rng.randint(1, 3))
        maps.append(ModuleMap(F, N, [[random_poly(ring, rng, 1) for _ in range(F.gens)]
                                     for _ in range(N.gens)], check=False))
    return maps


@pytest.mark.parametrize("name,M,N", CASES, ids=[c[0] for c in CASES])
def test_kernels_of_hom_pairs_match_oracle(name, M, N):
    rng = random.Random(name)
    if M.gens and M.relations:
        assert_kernel_matches(hom_defining_map(M, N))
    for phi in seeded_maps(M, N, rng):
        assert_kernel_matches(phi)


@pytest.mark.parametrize("name,M,N", CASES, ids=[c[0] for c in CASES])
def test_tensors_of_hom_pairs_match_oracle(name, M, N):
    for A, B in ((M, N), (N, M), (M, M)):
        assert tensor(A, B).presentation_key() == oracle.tensor(A, B).presentation_key()


RINGS = {"QQ": QQ_XY, "GF7": GF7_XY, "quotient": QUOT}


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@pytest.mark.parametrize("seed", range(6))
def test_seeded_maps_between_random_modules(ring_name, seed):
    ring = RINGS[ring_name]
    rng = random.Random(1000 * seed + len(ring_name))
    M = random_module(ring, rng, gens_max=3, cols_max=3)
    N = random_module(ring, rng, gens_max=3, cols_max=3)
    for phi in seeded_maps(M, N, rng):
        assert_kernel_matches(phi)
    assert tensor(M, N).presentation_key() == oracle.tensor(M, N).presentation_key()
