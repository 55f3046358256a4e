"""Bundles one problem setup: algebra, reductive split, and metric data."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import (TOL_HYPOTHESIS, LieAlgebraSpec, ReductivePair, ReductiveReport,
                      check_reductive)
from .errors import InputError, ValidationError
from .metrics import (
    CheckReport,
    InnerProduct,
    check_ad_h_invariance,
    check_bi_invariance,
    check_naturally_reductive,
)
from .riemann import ConnectionTable, koszul_connection


@dataclass(frozen=True, eq=False)
class HomogeneousGeometry:
    """A homogeneous space G/H at the Lie-algebra level, with the metric data
    of alpha: a symmetric positive-definite form g0 on the algebra and phi on
    m, self-adjoint and positive-definite w.r.t. g0, so that
    <x, y> = <phi x, y>_0 is an inner product on m.

    Construction validates g0 and phi and derives the split, phi extended by
    the identity on h, and the inner product.  Bi-invariance of g0 is a
    hypothesis, checked by g0_bi_invariance.  The operators that do not
    depend on a flag are cached on first use; the geometry is frozen and its
    arrays are read-only, so they never go stale.
    """

    algebra: LieAlgebraSpec
    h_dim: int
    g0: np.ndarray
    phi: np.ndarray
    pair: ReductivePair = field(init=False)
    phi_full: np.ndarray = field(init=False)
    inner: InnerProduct = field(init=False)

    def __post_init__(self):
        n = self.algebra.dim
        pair = ReductivePair(dim=n, h_dim=self.h_dim)
        h, m = self.h_dim, pair.m_dim
        g0 = np.array(self.g0, dtype=float)
        if g0.shape != (n, n):
            raise InputError(f"g0 must be {n}x{n} (form on the algebra), got {g0.shape}")
        if not np.isfinite(g0).all():
            raise InputError("g0 must be finite")
        if not np.array_equal(g0, g0.T):
            raise ValidationError("g0 is not symmetric")
        eig_min = float(np.linalg.eigvalsh(g0)[0])
        if eig_min <= 0:
            raise ValidationError(f"g0 is not positive-definite (min eigenvalue {eig_min:g})")
        phi = np.array(self.phi, dtype=float)
        if phi.shape != (m, m):
            raise InputError(f"phi must be {m}x{m} (metric on m), got {phi.shape}")
        if not np.isfinite(phi).all():
            raise InputError("phi must be finite")
        g0m = g0[h:, h:]
        sym_defect = float(np.max(np.abs(g0m @ phi - phi.T @ g0m))) if m else 0.0
        if sym_defect > TOL_HYPOTHESIS:
            raise ValidationError(f"phi is not self-adjoint w.r.t. g0 (defect {sym_defect:g})")
        if m:
            eig_min = float(np.linalg.eigvalsh(0.5 * (g0m @ phi + phi.T @ g0m))[0])
            if eig_min <= 0:
                raise ValidationError(
                    f"phi is not positive-definite w.r.t. g0 (min eigenvalue {eig_min:g})")
        phi_full = np.eye(n)
        phi_full[h:, h:] = phi
        for arr in (g0, phi, phi_full):
            arr.setflags(write=False)
        for name, value in (("pair", pair), ("g0", g0), ("phi", phi), ("phi_full", phi_full),
                            ("inner", InnerProduct(g0m @ phi))):
            object.__setattr__(self, name, value)

    @property
    def m_dim(self) -> int:
        return self.pair.m_dim

    @cached_property
    def g0_phi_inv(self) -> np.ndarray:
        """g0 phi^-1 on the full algebra: <a, phi^-1 b>_0 = a @ g0_phi_inv @ b."""
        h = self.h_dim
        phi_inv_full = np.eye(self.algebra.dim)
        phi_inv_full[h:, h:] = np.linalg.inv(self.phi)
        return self.g0 @ phi_inv_full

    @cached_property
    def connection(self) -> ConnectionTable:
        """Levi-Civita connection as the Nomizu map on m, for any isotropy;
        it is the metric's connection where ad_h_invariance holds."""
        return koszul_connection(self.algebra, self.inner)

    @cached_property
    def reductive(self) -> ReductiveReport:
        """Whether the split g = h + m is reductive; every method needs it."""
        return check_reductive(self.algebra, self.pair)

    @cached_property
    def ad_h_invariance(self) -> CheckReport:
        """ad(h)-invariance of the metric on m; always holds with h_dim = 0."""
        return check_ad_h_invariance(self.algebra, self.pair, self.inner)

    @cached_property
    def naturally_reductive(self) -> CheckReport:
        return check_naturally_reductive(self.algebra, self.pair, self.inner)

    @cached_property
    def g0_bi_invariance(self) -> CheckReport:
        """Bi-invariance of g0 on the full algebra; the general closed forms need it."""
        return check_bi_invariance(self.algebra, self.g0)

    def drift_parallel(self, X: np.ndarray) -> CheckReport:
        """Whether the invariant field X on m is parallel (the Chern connection
        of F is then the Levi-Civita one): max(max_i |Lambda(e_i) X|, max |[h, X]|),
        as X must also be ad(h)-fixed to be an invariant field."""
        if np.shape(X) != (self.m_dim,):
            raise InputError(f"drift vector must have length m = {self.m_dim}")
        h = self.h_dim
        rows = np.vstack((np.einsum("ijk,j->ik", self.connection.gamma, X),
                          np.einsum("zjk,j->zk", self.algebra.c[:h, h:, h:], X)))
        max_defect = float(np.abs(rows).max(initial=0.0))
        return CheckReport(ok=max_defect <= TOL_HYPOTHESIS, max_defect=max_defect)


def make_geometry(
    algebra: LieAlgebraSpec,
    h_dim: int = 0,
    g0: np.ndarray | None = None,
    phi: np.ndarray | None = None,
) -> HomogeneousGeometry:
    """Convenience constructor with identity defaults for g0 and phi."""
    eye = np.eye(algebra.dim)
    return HomogeneousGeometry(algebra=algebra, h_dim=h_dim,
                               g0=eye if g0 is None else g0,
                               phi=eye[h_dim:, h_dim:] if phi is None else phi)
