"""One problem setup, algebra, reductive split and metric data, and its check table."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import CheckReport, LieAlgebraSpec, check_reductive, jacobi_defect, reductive_split
from .errors import InputError, ValidationError
from .metrics import (
    InnerProduct,
    _spd,
    check_ad_h_invariance,
    check_bi_invariance,
    check_naturally_reductive,
)
from .riemann import ConnectionTable, koszul_connection

NOT_AD_H_INVARIANT = "metric is not ad(h)-invariant"

# The check table: the drift-free checks as (name, hard, report of a geometry) in
# the order validate prints them.  validate fails when a hard row fails; the CLI
# gate refuses the first STRUCTURE rows, of the algebra and split, before the rest.
# The split's two rows are check_reductive's, set at construction (None here).
CHECKS = (
    ("jacobi", True, lambda geo: CheckReport.of(jacobi_defect(geo.algebra))),
    ("reductive_subalgebra", True, None),
    ("reductive_ad_invariance", True, None),
    ("g0_bi_invariance", False, lambda geo: check_bi_invariance(geo.algebra, geo.g0)),
    ("ad_h_invariance", True, lambda geo: check_ad_h_invariance(geo.algebra, geo.inner)),
    ("naturally_reductive", False,
     lambda geo: check_naturally_reductive(geo.algebra, geo.inner)),
)
STRUCTURE = 3


@dataclass(frozen=True, eq=False)
class HomogeneousGeometry:
    """A homogeneous space G/H at the Lie-algebra level, with the metric data
    of alpha: a symmetric positive-definite form g0 on the algebra and phi on
    m, self-adjoint and positive-definite w.r.t. g0, so that
    <x, y> = <phi x, y>_0 is an inner product on m.

    Construction validates the split 0 <= h_dim <= n, g0 and phi, and
    derives the split's two check-table rows, which every method needs, phi
    extended by the identity on h, and the inner product.  Each row of the
    check table is an attribute by its name; every other row, and each operator
    that does not depend on a flag, is computed on first use and cached.  The
    geometry is frozen and its arrays are read-only, so they never go stale.
    """

    algebra: LieAlgebraSpec
    h_dim: int
    g0: np.ndarray
    phi: np.ndarray
    phi_full: np.ndarray = field(init=False)
    inner: InnerProduct = field(init=False)

    def __post_init__(self):
        n, h = self.algebra.dim, self.h_dim
        split = check_reductive(self.algebra, h)  # refuses h outside [0, n]
        m = n - h
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
        # g0 phi is checked once, in phi's words, and is then the inner product
        inner = object.__new__(InnerProduct)
        object.__setattr__(inner, "g", _spd(g0[h:, h:] @ phi, "phi is not self-adjoint w.r.t. g0",
                                            "phi is not positive-definite w.r.t. g0"))
        phi_full = np.eye(n)
        phi_full[h:, h:] = phi
        for arr in (g0, phi, phi_full):
            arr.setflags(write=False)
        for name, value in (*zip(("reductive_subalgebra", "reductive_ad_invariance"), split),
                            ("g0", g0), ("phi", phi), ("phi_full", phi_full), ("inner", inner)):
            object.__setattr__(self, name, value)

    @property
    def m_dim(self) -> int:
        return self.algebra.dim - self.h_dim

    def __getattr__(self, name: str) -> CheckReport:
        """The row name of the check table, computed on first read and cached."""
        for row, _, report in CHECKS:
            if row == name:
                object.__setattr__(self, name, report(self))
                return self.__dict__[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def checks(self):
        """The check table as (name, CheckReport, hard) rows, lazily; ad_h_invariance,
        which always holds with h_dim = 0, is a row only with nontrivial isotropy."""
        for name, hard, _ in CHECKS:
            if name != "ad_h_invariance" or self.h_dim:
                yield name, getattr(self, name), hard

    def levi_civita(self):
        """The precondition under which connection is the metric's Levi-Civita
        connection, as (words of refusal, CheckReport) pairs, lazily, in order:
        the split is reductive (both of its rows hold), the metric ad(h)-invariant."""
        yield reductive_split((self.reductive_subalgebra, self.reductive_ad_invariance))
        yield NOT_AD_H_INVARIANT, self.ad_h_invariance

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
        it is the metric's connection where levi_civita() holds."""
        return koszul_connection(self.algebra, self.inner)

    def drift_parallel(self, X: np.ndarray) -> CheckReport:
        """Whether the invariant field X on m is parallel (the Chern connection
        of F is then the Levi-Civita one): max(max_i |Lambda(e_i) X|, max |[h, X]|),
        as X must also be ad(h)-fixed to be an invariant field."""
        if np.shape(X) != (self.m_dim,):
            raise InputError(f"drift vector must have length m = {self.m_dim}")
        h = self.h_dim
        rows = np.vstack((np.einsum("ijk,j->ik", self.connection.gamma, X),
                          np.einsum("zjk,j->zk", self.algebra.c[:h, h:, h:], X)))
        return CheckReport.of(float(np.abs(rows).max(initial=0.0)))


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
