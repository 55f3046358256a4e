"""Invariant metric data: bi-invariant form g0, endomorphism phi, and the
induced inner product <x, y> = <phi x, y>_0 on m, plus the structural
checks (bi-invariance, ad(h)-invariance, natural reductivity) and flag
orthonormalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import TOL_HYPOTHESIS, LieAlgebraSpec, ReductivePair
from .errors import FlagError, InputError, PreconditionError, ValidationError

TOL_DEP = 1e-12


@dataclass(frozen=True)
class BiInvariantForm:
    """Symmetric positive-definite form on the full algebra.

    Bi-invariance itself is a property of the pair (algebra, form) and is
    checked separately by check_bi_invariance; construction only enforces
    symmetry and positive-definiteness.
    """

    g0: np.ndarray

    def __post_init__(self):
        g0 = np.asarray(self.g0, dtype=float)
        if g0.ndim != 2 or g0.shape[0] != g0.shape[1]:
            raise InputError(f"g0 must be square, got shape {g0.shape}")
        if not np.isfinite(g0).all():
            raise InputError("g0 must be finite")
        if not np.array_equal(g0, g0.T):
            raise ValidationError("g0 is not symmetric")
        eig_min = float(np.linalg.eigvalsh(g0)[0])
        if eig_min <= 0:
            raise ValidationError(
                f"g0 is not positive-definite (min eigenvalue {eig_min:g})"
            )
        g0 = g0.copy()
        g0.setflags(write=False)
        object.__setattr__(self, "g0", g0)

    @property
    def dim(self) -> int:
        return self.g0.shape[0]


@dataclass(frozen=True)
class MetricEndomorphism:
    """phi on m with <x,y> = <phi x, y>_0; extended by identity on h.

    phi must be self-adjoint and positive-definite with respect to g0
    restricted to m.  The inverse is factored once at construction.
    """

    phi: np.ndarray
    g0: BiInvariantForm
    h_dim: int
    phi_full: np.ndarray = field(init=False)
    phi_inv_full: np.ndarray = field(init=False)

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        m_dim = self.g0.dim - self.h_dim
        if phi.shape != (m_dim, m_dim):
            raise InputError(
                f"phi must be {m_dim}x{m_dim} (metric on m), got {phi.shape}"
            )
        if not np.isfinite(phi).all():
            raise InputError("phi must be finite")
        g0m = self.g0.g0[self.h_dim:, self.h_dim:]
        sym_defect = float(np.max(np.abs(g0m @ phi - phi.T @ g0m))) if m_dim else 0.0
        if sym_defect > TOL_HYPOTHESIS:
            raise ValidationError(
                f"phi is not self-adjoint w.r.t. g0 (defect {sym_defect:g})"
            )
        if m_dim:
            eig_min = float(np.linalg.eigvalsh(0.5 * (g0m @ phi + phi.T @ g0m))[0])
            if eig_min <= 0:
                raise ValidationError(
                    f"phi is not positive-definite w.r.t. g0 "
                    f"(min eigenvalue {eig_min:g})"
                )
        phi = phi.copy()
        phi.setflags(write=False)
        full = np.eye(self.g0.dim)
        full[self.h_dim:, self.h_dim:] = phi
        inv_full = np.eye(self.g0.dim)
        inv_full[self.h_dim:, self.h_dim:] = np.linalg.inv(phi)
        for name, arr in (("phi", phi), ("phi_full", full), ("phi_inv_full", inv_full)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def inner_from_phi(g0: BiInvariantForm, phi: MetricEndomorphism) -> InnerProduct:
    """Matrix of <x,y> = <phi x, y>_0 on m."""
    if phi.g0 is not g0 and not np.array_equal(phi.g0.g0, g0.g0):
        raise InputError("phi was constructed against a different g0")
    g0m = g0.g0[phi.h_dim:, phi.h_dim:]
    return InnerProduct(g0m @ phi.phi)


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
    must be symmetric, as BiInvariantForm requires (InputError)."""
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
