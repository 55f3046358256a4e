"""Bundles one problem setup: algebra, reductive split, and metric data."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import (TOL_HYPOTHESIS, LieAlgebraSpec, ReductivePair, ReductiveReport,
                      check_reductive)
from .errors import InputError
from .metrics import (
    BiInvariantForm,
    CheckReport,
    InnerProduct,
    MetricEndomorphism,
    check_ad_h_invariance,
    check_bi_invariance,
    check_naturally_reductive,
    inner_from_phi,
)
from .riemann import ConnectionTable, koszul_connection


@dataclass(frozen=True)
class HomogeneousGeometry:
    """A homogeneous space G/H at the Lie-algebra level.

    The inner product on m is derived from (g0, phi) at construction.  The
    operators that do not depend on a flag are cached on first use; the
    geometry is frozen and its arrays are read-only, so they never go stale.
    """

    algebra: LieAlgebraSpec
    pair: ReductivePair
    g0: BiInvariantForm
    phi: MetricEndomorphism
    inner: InnerProduct = field(init=False)

    def __post_init__(self):
        if self.pair.dim != self.algebra.dim:
            raise InputError("reductive pair dimension does not match algebra")
        if self.g0.dim != self.algebra.dim:
            raise InputError("g0 dimension does not match algebra")
        if self.phi.h_dim != self.pair.h_dim:
            raise InputError("phi h_dim does not match the reductive pair")
        object.__setattr__(self, "inner", inner_from_phi(self.g0, self.phi))

    @property
    def m_dim(self) -> int:
        return self.pair.m_dim

    @cached_property
    def g0_phi_inv(self) -> np.ndarray:
        """g0 phi^-1 on the full algebra: <a, phi^-1 b>_0 = a @ g0_phi_inv @ b."""
        return self.g0.g0 @ self.phi.phi_inv_full

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
        return check_bi_invariance(self.algebra, self.g0.g0)

    def drift_parallel(self, X: np.ndarray) -> CheckReport:
        """Whether the invariant field X on m is parallel (the Chern connection
        of F is then the Levi-Civita one): max(max_i |Lambda(e_i) X|, max |[h, X]|),
        as X must also be ad(h)-fixed to be an invariant field."""
        h = self.pair.h_dim
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
    n = algebra.dim
    pair = ReductivePair(dim=n, h_dim=h_dim)
    form = BiInvariantForm(np.eye(n) if g0 is None else np.asarray(g0, dtype=float))
    endo = MetricEndomorphism(
        phi=np.eye(pair.m_dim) if phi is None else np.asarray(phi, dtype=float),
        g0=form,
        h_dim=h_dim,
    )
    return HomogeneousGeometry(algebra=algebra, pair=pair, g0=form, phi=endo)
