"""`kernel_columns`, `kernel` and `tensor` against the frozen copies in
`kernel_oracle.py`: the same kernel columns in the same order, the same
kernel presentation and inclusion, and the same tensor presentation.

The maps are those of `test_hom_differential`'s module pairs (the map whose
kernel presents HOM(M, N), the maps M -> N of hom generators and a seeded
map from a free module into N) and seeded maps between random
modules over QQ, GF(7) and a quotient ring.

Over a ring whose quotient is not homogeneous `kernel` hands no degrees to
the kernel generators, where the frozen copy grades them by the source and
may raise `GradingError`; there the kernel is compared with the frozen
copy's kernel of the same map from a source that carries no grading."""

import random
from copy import copy

import pytest

from idals import ModuleMap, PresentedModule, free_module, hom_module, kernel, tensor
from idals.errors import GradingError
from idals.fpmod import kernel_columns, ring_is_graded

import hom_oracle
import kernel_oracle as oracle
from conftest import random_module, random_poly
from test_hom_differential import CASES, GF7_XY, QQ_XY, QUOT, matrix_key


def column_keys(cols):
    return [tuple(str(p) for p in col) for col in cols]


def ungraded_source(phi):
    """phi from a copy of its source that carries no grading."""
    src = copy(phi.source)
    src.grading = None
    return ModuleMap(src, phi.target, phi.matrix, check=False)


def kernel_key(kernel_fn, phi):
    """The presentation of the kernel and its inclusion into phi's source."""
    K, incl = kernel_fn(phi)
    assert incl.source is K
    return K.presentation_key(), tuple(tuple(str(p) for p in row) for row in incl.matrix)


def assert_kernel_matches(phi):
    assert column_keys(kernel_columns(phi)) == column_keys(oracle.kernel_columns(phi))
    want = phi if ring_is_graded(phi.ring) else ungraded_source(phi)
    assert kernel_key(kernel, phi) == kernel_key(oracle.kernel, want)


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
    """The maps M -> N of the first three hom generators, and a random map
    of degree-1 entries from a free module into N."""
    ring = M.ring
    H = hom_module(M, N)
    maps = [H.generator_map(k) for k in range(min(3, H.module.gens))]
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


def test_kernel_over_an_ungraded_ring_is_ungraded():
    """diag(-x - 2, -y + 1) from free(2) into O^2/((0, -2xy + 2y^2)) over
    QQ[x,y]/(x^2 - y^3): the kernel columns (0, x^2) and (0, xy - y^2) are
    homogeneous, their relations are not, and the ring is not graded, so
    the kernel carries no grading; the frozen copy, which grades it by the
    source, raises instead."""
    R = QUOT
    N = PresentedModule(R, 2, [[R.zero(), R.poly("-2*x*y + 2*y^2")]])
    phi = ModuleMap(free_module(R, 2), N, [[R.poly("-x - 2"), R.zero()],
                                           [R.zero(), R.poly("-y + 1")]], check=False)
    K, incl = kernel(phi)
    assert K.grading is None
    assert [tuple(map(str, col)) for col in kernel_columns(phi)] == [("0", "x^2"),
                                                                     ("0", "x*y - y^2")]
    with pytest.raises(GradingError):
        oracle.kernel(phi)
    assert_kernel_matches(phi)
