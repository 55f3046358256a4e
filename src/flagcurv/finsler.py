"""The metric F = (alpha + beta)^2 / alpha and its fundamental tensor.

alpha(y) = sqrt(<y,y>) and beta(y) = <X,y> for a drift vector X with
|X|_g < 1.  The fundamental tensor g_Y is computed two independent ways:
a closed-form expansion (kept term-by-term in its four printed blocks,
then symmetrized in (u, v) -- the raw block sum carries a purely
antisymmetric artifact that the symmetrization removes), and a
central-difference Hessian of F^2 / 2 that serves as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FlagError, InputError, NumericError, PreconditionError
from .metrics import Flag, InnerProduct

TOL_BOUNDARY = 1e-12
TOL_FLAG = 1e-10
DEFAULT_FD_STEP = 1e-5


@dataclass(frozen=True)
class FinslerData:
    """Inner product on m plus the drift vector X (m-coordinates).

    Construction is permissive so that validate_finsler can report on
    invalid drifts; curvature entry points enforce |X|_g < 1.
    """

    g: InnerProduct
    X: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if X.shape != (self.g.dim,):
            raise InputError(
                f"drift vector must have length {self.g.dim}, got shape {X.shape}"
            )
        X = X.copy()
        X.setflags(write=False)
        object.__setattr__(self, "X", X)

    @property
    def norm_X(self) -> float:
        return self.g.norm(self.X)


@dataclass(frozen=True)
class FinslerReport:
    ok: bool
    norm_X: float


@dataclass(frozen=True)
class IdentityReport:
    lhs: float
    rhs: float
    defect: float


def validate_finsler(d: FinslerData) -> FinslerReport:
    """F is a Finsler metric iff |X|_g < 1 (strict)."""
    n = d.norm_X
    return FinslerReport(ok=n < 1.0 - TOL_BOUNDARY, norm_X=n)


def F_eval(d: FinslerData, y: np.ndarray) -> float:
    """F(y) = (alpha + <X,y>)^2 / alpha, positively 1-homogeneous."""
    y = np.asarray(y, dtype=float)
    if y.shape != (d.g.dim,):
        raise InputError(f"vector must have length {d.g.dim}")
    alpha = d.g.norm(y)
    if alpha == 0.0:
        raise InputError("F is undefined at y = 0")
    return (alpha + d.g.dot(d.X, y)) ** 2 / alpha


def _gy_blocks(
    d: FinslerData, Y: np.ndarray, u: np.ndarray, v: np.ndarray
) -> tuple[float, float, float, float]:
    """The four printed blocks of the g_Y expansion, unsymmetrized."""
    g = d.g
    gYY = g.dot(Y, Y)
    r = np.sqrt(gYY)
    gXY = g.dot(d.X, Y)
    gXU = g.dot(d.X, u)
    gXV = g.dot(d.X, v)
    gYU = g.dot(Y, u)
    gYV = g.dot(Y, v)
    gUV = g.dot(u, v)
    A = r + gXY
    t1 = 4.0 * A**3 / gYY**2.5 * (gXV * gYU - gYV * gXU)
    t2 = (
        2.0 * A**2 / gYY
        * (
            gUV
            + gXU * gXV
            - gXY * gYV * gYU / gYY**1.5
            + (gXU * gYV + gXY * gUV + gXV * gYU) / r
        )
    )
    t3 = A**4 / gYY**3 * (4.0 * gYU * gYV - gUV * gYY)
    t4 = (
        4.0 * A**2 / gYY
        * (gYV / r + gXV)
        * (gYU / r + gXU - 2.0 * gYU / r - 2.0 * gXY * gYU / gYY)
    )
    return t1, t2, t3, t4


def g_Y_closed(d: FinslerData, Y: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Closed-form g_Y(u, v), symmetrized over (u, v)."""
    Y = np.asarray(Y, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if d.g.dot(Y, Y) == 0.0:
        raise InputError("g_Y is undefined at Y = 0")
    return 0.5 * (sum(_gy_blocks(d, Y, u, v)) + sum(_gy_blocks(d, Y, v, u)))


def g_Y_fd(
    d: FinslerData,
    Y: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    step: float = DEFAULT_FD_STEP,
    richardson: bool = False,
) -> float:
    """Central-difference 1/2 d^2/ds dt F^2(Y + s u + t v) at s = t = 0."""
    Y = np.asarray(Y, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if d.g.dot(Y, Y) == 0.0:
        raise InputError("g_Y is undefined at Y = 0")
    if step <= 0:
        raise NumericError(f"step must be positive, got {step:g}")

    # Cross differences cancel ~10 leading digits at step 1e-5, so evaluate
    # F^2 in extended precision to keep the quotient accurate.
    G = d.g.g.astype(np.longdouble)
    Yl, ul, vl = (np.asarray(a, dtype=np.longdouble) for a in (Y, u, v))
    Xl = d.X.astype(np.longdouble)

    def f2(s, t):
        y = Yl + s * ul + t * vl
        alpha2 = y @ G @ y
        if alpha2 <= 0.0:
            raise NumericError("finite-difference step left the domain of F")
        alpha = np.sqrt(alpha2)
        return (alpha + Xl @ G @ y) ** 4 / alpha2

    h = np.longdouble(step)

    def mixed(h):
        return 0.5 * (f2(h, h) - f2(h, -h) - f2(-h, h) + f2(-h, -h)) / (4.0 * h * h)

    if richardson:
        return float((4.0 * mixed(h / 2.0) - mixed(h)) / 3.0)
    return float(mixed(h))


def g_Y_matrix(d: FinslerData, Y: np.ndarray) -> np.ndarray:
    """Full closed-form fundamental-tensor matrix at Y."""
    n = d.g.dim
    eye = np.eye(n)
    out = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            out[i, j] = out[j, i] = g_Y_closed(d, Y, eye[i], eye[j])
    return out


def denominator_identity(d: FinslerData, flag: Flag) -> IdentityReport:
    """g_Y(Y,Y) g_Y(U,U) - g_Y(U,Y)^2 vs (1+<X,Y>)^6 (2<X,U>^2 - <X,Y>^2 + 1)."""
    _require_orthonormal(d.g, flag)
    Y, U = flag.Y, flag.U
    lhs = (
        g_Y_closed(d, Y, Y, Y) * g_Y_closed(d, Y, U, U)
        - g_Y_closed(d, Y, U, Y) ** 2
    )
    XY = d.g.dot(d.X, Y)
    XU = d.g.dot(d.X, U)
    rhs = (1.0 + XY) ** 6 * (2.0 * XU**2 - XY**2 + 1.0)
    return IdentityReport(lhs=lhs, rhs=rhs, defect=abs(lhs - rhs))


def _require_orthonormal(g: InnerProduct, flag: Flag) -> None:
    defect = max(
        abs(g.dot(flag.Y, flag.Y) - 1.0),
        abs(g.dot(flag.U, flag.U) - 1.0),
        abs(g.dot(flag.Y, flag.U)),
    )
    if defect > TOL_FLAG:
        raise PreconditionError(
            f"flag is not g-orthonormal (defect {defect:g}); "
            "run orthonormalize_flag first"
        )
    if flag.Y.shape != flag.U.shape:
        raise FlagError("flag vectors have mismatched shapes")
