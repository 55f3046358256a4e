"""The inner product on m, the structural checks of the metric data
(bi-invariance, ad(h)-invariance, natural reductivity) and flag
orthonormalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import TOL_HYPOTHESIS, LieAlgebraSpec, ReductivePair
from .errors import FlagError, InputError, PreconditionError, ValidationError

TOL_DEP = 1e-12


@dataclass(frozen=True, eq=False)
class InnerProduct:
    """Symmetric positive-definite inner product on m (matrix form)."""

    g: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise InputError(f"metric must be square, got shape {g.shape}")
        if not np.isfinite(g).all():
            raise InputError("metric must be finite")
        sym_defect = float(np.max(np.abs(g - g.T))) if g.size else 0.0
        if sym_defect > TOL_HYPOTHESIS:
            raise ValidationError(f"metric is not symmetric (defect {sym_defect:g})")
        g = 0.5 * (g + g.T)
        if g.size:
            eig_min = float(np.linalg.eigvalsh(g)[0])
            if eig_min <= 0:
                raise ValidationError(
                    f"metric is not positive-definite (min eigenvalue {eig_min:g})"
                )
        g.setflags(write=False)
        object.__setattr__(self, "g", g)

    @property
    def dim(self) -> int:
        return self.g.shape[0]

    def dot(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(x @ self.g @ y)

    def norm(self, x: np.ndarray) -> float:
        return float(np.sqrt(max(self.dot(x, x), 0.0)))

    @cached_property
    def inv_sqrt(self) -> np.ndarray:
        """g^(-1/2): maps standard normals to g-isotropic vectors."""
        w, v = np.linalg.eigh(self.g)
        return v @ np.diag(1.0 / np.sqrt(w)) @ v.T


@dataclass(frozen=True, eq=False)
class Flag:
    """g-orthonormal pair (Y, U) in m; Y is the flagpole."""

    Y: np.ndarray
    U: np.ndarray


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    max_defect: float


def require(reports) -> None:
    """Refuse (PreconditionError) at the first failing (words, CheckReport) pair."""
    for words, rep in reports:
        if not rep.ok:
            raise PreconditionError(f"{words} (defect {rep.max_defect:g})")


def _skew_check(c: np.ndarray, g: np.ndarray) -> CheckReport:
    """max |<[z,x],y> + <x,[z,y]>| over basis vectors z, x, y, where
    c[z, x, :] = [z, x] in the coordinates of the space g lives on: each
    ad(z) must be g-skew-adjoint.  g is symmetric, so the second term is
    the first with x and y swapped."""
    cg = c @ g  # <[z,x],y>
    d = cg + cg.swapaxes(1, 2)
    max_defect = float(np.max(np.abs(d))) if d.size else 0.0
    return CheckReport(ok=max_defect <= TOL_HYPOTHESIS, max_defect=max_defect)


def check_bi_invariance(L: LieAlgebraSpec, g0: np.ndarray) -> CheckReport:
    """Defect of <[z,x],y>_0 + <x,[z,y]>_0 = 0 over all basis triples; g0
    must be symmetric, as HomogeneousGeometry requires (InputError)."""
    g0 = np.asarray(g0, dtype=float)
    if g0.shape != (L.dim, L.dim):
        raise InputError("g0 shape does not match algebra dimension")
    if not np.array_equal(g0, g0.T):
        raise InputError("g0 is not symmetric")
    return _skew_check(L.c, g0)


def check_ad_h_invariance(
    L: LieAlgebraSpec, R: ReductivePair, g: InnerProduct
) -> CheckReport:
    """Defect of <[z,x]_m, y> + <x, [z,y]_m> = 0 for z in h, x, y in m."""
    _check_m_metric(L, R, g)
    h = R.h_dim
    return _skew_check(L.c[:h, h:, h:], g.g)


def check_naturally_reductive(
    L: LieAlgebraSpec, R: ReductivePair, g: InnerProduct
) -> CheckReport:
    """Defect of <x, [z,y]_m> + <[z,x]_m, y> = 0 for x, y, z in m."""
    _check_m_metric(L, R, g)
    h = R.h_dim
    return _skew_check(L.c[h:, h:, h:], g.g)


def orthonormalize_flag(
    g: InnerProduct, y: np.ndarray, u: np.ndarray, tol_dep: float = TOL_DEP
) -> Flag:
    """Gram-Schmidt the pair (y, u) into a g-orthonormal flag.

    Classical single pass with one re-orthogonalization of U against Y.
    """
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    if y.shape != (g.dim,) or u.shape != (g.dim,):
        raise InputError(f"flag vectors must have length {g.dim}")
    gyy = g.dot(y, y)
    guu = g.dot(u, u)
    if not math.isfinite(gyy + guu):  # NaN or inf in y or u, or an overflow
        raise InputError("flag vectors must be finite, with finite g-lengths")
    gyu = g.dot(y, u)
    gram = gyy * guu - gyu * gyu
    if gyy <= 0 or gram <= tol_dep * max(1.0, gyy * guu):
        raise FlagError("flag vectors are (numerically) linearly dependent")
    Y = y / np.sqrt(gyy)
    w = u - g.dot(Y, u) * Y
    w = w - g.dot(Y, w) * Y  # re-orthogonalize to kill cancellation
    U = w / g.norm(w)
    return Flag(Y=Y, U=U)


def _check_m_metric(L: LieAlgebraSpec, R: ReductivePair, g: InnerProduct) -> None:
    if R.dim != L.dim:
        raise InputError("reductive pair dimension does not match algebra")
    if g.dim != R.m_dim:
        raise InputError(
            f"metric dimension {g.dim} does not match m_dim {R.m_dim}"
        )
