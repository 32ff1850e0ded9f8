"""Frozen copy of the glue round trip before it stopped at the first
truncating reflector and ranked window columns sparsely.

Test-only oracle for `test_roundtrip_differential.py`: `roundtrip_check`
reflected M into I, J and I (x) J before choosing between the exact and
the windowed comparison, and `_roundtrip_windowed` and `_nullity` took
ranks of dense coordinate rows (`rank_oracle.py`).  The present code must
give the same (ok, mode, detail).  Do not optimise this file; its value is
that it stays as it was.
"""

from __future__ import annotations

from idals.errors import AlgebraError, StabilizationError
from idals.fpmod import base_change_module
from idals.glued import (
    RoundtripResult,
    _candidate_columns,
    _principal_generator,
    _roundtrip_exact,
    _window_candidates,
)
from idals.idal import cover_check, idal_product
from idals.localize import localized_ring, reflect
from idals.polyring import RingHom

import rank_oracle as linalg


def _nullity(module, columns) -> int:
    """Dimension of the base-field relations among the columns' images in
    the module."""
    return len(columns) - linalg.rank(linalg.coordinates(module, columns), module.ring.field)


def roundtrip_check(A, I, J, M, n_max: int = 8, degree_bound: int = 6) -> RoundtripResult:
    """Whether M -> R_I(M) x_{R_{I(x)J}(M)} R_J(M) is an isomorphism.

    Exact when all three reflectors stabilize; otherwise decided by windowed
    dimension comparison against the principal-localization oracles.
    """
    if not cover_check(I, J):
        raise AlgebraError("cover check fails: the idals do not cover")
    IJ = idal_product(I, J)
    rI = reflect(I, M, n_max)
    rJ = reflect(J, M, n_max)
    rIJ = reflect(IJ, M, n_max)
    if rI.stabilized and rJ.stabilized and rIJ.stabilized:
        return _roundtrip_exact(A, I, J, IJ, M, rI, rJ, rIJ, n_max)
    return _roundtrip_windowed(A, I, J, M, degree_bound)


def _roundtrip_windowed(A, I, J, M, bound) -> RoundtripResult:
    f = _principal_generator(I)
    g = _principal_generator(J)
    if f is None or g is None:
        raise StabilizationError(
            "windowed roundtrip requires principal idals when reflectors truncate")
    Bf, hf, _ = localized_ring(A, f, "locf")
    Bg, hg, _ = localized_ring(A, g, "locg")
    Bfg, to_fg_from_f, _ = localized_ring(Bf, hf.apply(g), "locg")
    Mf = base_change_module(M, hf)
    Mg = base_change_module(M, hg)
    Mfg = base_change_module(Mf, to_fg_from_f)
    to_fg_from_g = RingHom(Bg, Bfg, {**{v: v for v in A.variables}, "locg": "locg"})

    colsM = _candidate_columns(M, _window_candidates(M, bound))
    colsF = _candidate_columns(Mf, _window_candidates(Mf, bound))
    colsG = _candidate_columns(Mg, _window_candidates(Mg, bound))

    # dimension of the windowed pullback inside Mf (+) Mg
    fg_cols = to_fg_from_f.apply_matrix(colsF) + to_fg_from_g.apply_matrix(colsG)
    dimW = _nullity(Mfg, fg_cols) - _nullity(Mf, colsF) - _nullity(Mg, colsG)

    # rank and injectivity of the windowed image of M in Mf (+) Mg
    rowsF = linalg.coordinates(Mf, hf.apply_matrix(colsM))
    rowsG = linalg.coordinates(Mg, hg.apply_matrix(colsM))
    rk_img = linalg.rank([rf + rg for rf, rg in zip(rowsF, rowsG)], A.field)
    injective = (len(colsM) - rk_img) == _nullity(M, colsM)
    ok = injective and (rk_img == dimW)
    return RoundtripResult(ok, "windowed",
                           {"window_dim_pullback": dimW, "window_rank_image": rk_img,
                            "injective_on_window": injective})
