"""The inner product on m, the structural checks of the metric data
(bi-invariance, ad(h)-invariance, natural reductivity) and flag
orthonormalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import TOL_HYPOTHESIS, CheckReport, LieAlgebraSpec
from .errors import FlagError, InputError, PreconditionError, ValidationError

TOL_DEP = 1e-12
_TINY, _HUGE = 2.0**-500, 2.0**500  # |y|^2 |u|^2 read without rescaling
_SUBNORMAL = 2.0**-1000  # a squared length below it may have lost bits to underflow


@dataclass(frozen=True, eq=False)
class InnerProduct:
    """Symmetric positive-definite inner product on m (matrix form)."""

    g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "g", _spd(np.array(self.g, dtype=float), "metric is not symmetric",
                                           "metric is not positive-definite"))

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


def _spd(g: np.ndarray, asymmetric: str, indefinite: str) -> np.ndarray:
    """g, read-only, once checked square and finite (InputError), symmetric within
    TOL_HYPOTHESIS and positive-definite (ValidationError, in the words asymmetric
    or indefinite).  Any g not exactly symmetric is symmetrized as a sum of halves."""
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise InputError(f"metric must be square, got shape {g.shape}")
    if not np.isfinite(g).all():
        raise InputError("metric must be finite")
    sym_defect = float(np.abs(g - g.T).max(initial=0.0))
    if sym_defect > TOL_HYPOTHESIS:
        raise ValidationError(f"{asymmetric} (defect {sym_defect:g})")
    if sym_defect:
        g = 0.5 * g + 0.5 * g.T
    eig_min = float(np.linalg.eigvalsh(g).min(initial=np.inf))
    if eig_min <= 0:
        raise ValidationError(f"{indefinite} (min eigenvalue {eig_min:g})")
    g.setflags(write=False)
    return g


@dataclass(frozen=True, eq=False)
class Flag:
    """g-orthonormal pair (Y, U) in m; Y is the flagpole."""

    Y: np.ndarray
    U: np.ndarray


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
    return CheckReport.of(float(np.max(np.abs(d))) if d.size else 0.0)


def check_bi_invariance(L: LieAlgebraSpec, g0: np.ndarray) -> CheckReport:
    """Defect of <[z,x],y>_0 + <x,[z,y]>_0 = 0 over all basis triples; g0
    must be symmetric, as HomogeneousGeometry requires (InputError)."""
    g0 = np.asarray(g0, dtype=float)
    if g0.shape != (L.dim, L.dim):
        raise InputError("g0 shape does not match algebra dimension")
    if not np.array_equal(g0, g0.T):
        raise InputError("g0 is not symmetric")
    return _skew_check(L.c, g0)


def _h_dim_of(L: LieAlgebraSpec, g: InnerProduct) -> int:
    """h_dim = L.dim - g.dim of a metric g on m, the last g.dim basis
    vectors; a metric larger than the algebra is refused (InputError)."""
    if g.dim > L.dim:
        raise InputError(f"metric dimension {g.dim} exceeds algebra dimension {L.dim}")
    return L.dim - g.dim


def check_ad_h_invariance(L: LieAlgebraSpec, g: InnerProduct) -> CheckReport:
    """Defect of <[z,x]_m, y> + <x, [z,y]_m> = 0 for z in h, x, y in m."""
    h = _h_dim_of(L, g)
    return _skew_check(L.c[:h, h:, h:], g.g)


def check_naturally_reductive(L: LieAlgebraSpec, g: InnerProduct) -> CheckReport:
    """Defect of <x, [z,y]_m> + <[z,x]_m, y> = 0 for x, y, z in m."""
    h = _h_dim_of(L, g)
    return _skew_check(L.c[h:, h:, h:], g.g)


def _scaled_rows(G: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of V times powers of two (exact) that bring their squared
    G-lengths into [1/2, 2), and those lengths; a zero row stays zero.  Each
    row is first brought to a largest entry in [1/2, 1), then, if its length
    still overflows, by 1/sqrt(max |G|); G is not scaled, so no entry is lost."""
    V = np.ldexp(V, -np.frexp(np.abs(V).max(axis=1, initial=0.0))[1][:, None])
    with np.errstate(over="ignore", invalid="ignore"):  # such a row is scaled down next
        q = np.einsum("ij,ij->i", V @ G, V)
    V = np.ldexp(V, -np.where(np.isfinite(q), 0, np.frexp(np.abs(G).max())[1] // 2)[:, None])
    V = np.ldexp(V, -(np.frexp(np.einsum("ij,ij->i", V @ G, V))[1] // 2)[:, None])
    return V, np.einsum("ij,ij->i", V @ G, V)


def orthonormalize_flag(
    g: InnerProduct, y: np.ndarray, u: np.ndarray, tol_dep: float = TOL_DEP
) -> Flag:
    """Gram-Schmidt the pair (y, u) into a g-orthonormal flag.

    Classical single pass with one re-orthogonalization of U against Y.  The
    pair is dependent (FlagError) when its Gram determinant is at most tol_dep
    |y|^2 |u|^2, a test unchanged by scaling g, y or u.  A pair with |y|^2
    |u|^2 outside [2^-500, 2^500], or a squared length below 2^-1000, is read
    on y and u brought to g-length near 1 by _scaled_rows: every finite pair
    of a finite g gets its verdict, and other pairs the bits they gave.
    """
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    if y.shape != (g.dim,) or u.shape != (g.dim,):
        raise InputError(f"flag vectors must have length {g.dim}")
    G = g.g
    with np.errstate(over="ignore", invalid="ignore"):  # such a pair is rescaled below
        yG, uG = y @ G, u @ G
        gyy, guu = float(yG @ y), float(uG @ u)
    if not (gyy > _SUBNORMAL and guu > _SUBNORMAL and _TINY <= gyy * guu <= _HUGE):  # also NaN
        if not (np.isfinite(y).all() and np.isfinite(u).all()):
            raise InputError("flag vectors must be finite")
        (y, u), (gyy, guu) = _scaled_rows(G, np.stack((y, u)))
        yG, uG = y @ G, u @ G
    gyu = float(yG @ u)
    gram = gyy * guu - gyu * gyu
    if gyy <= 0 or gram <= tol_dep * gyy * guu:
        raise FlagError("flag vectors are (numerically) linearly dependent")
    Y = y / np.sqrt(gyy)
    YG = Y @ G  # Y @ G @ v computes (Y @ G) @ v: one product serves both v
    w = u - float(YG @ u) * Y
    w = w - float(YG @ w) * Y  # re-orthogonalize to kill cancellation
    U = w / np.sqrt(max(float(w @ G @ w), 0.0))
    return Flag(Y=Y, U=U)
