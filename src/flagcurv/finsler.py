"""The metric F = (alpha + beta)^2 / alpha and its fundamental tensor.

alpha(y) = sqrt(<y,y>) and beta(y) = <X,y> for a drift vector X with
|X|_g < 1, so F = alpha phi(beta/alpha) is an (alpha, beta)-metric with
phi(s) = (1+s)^2.  Its fundamental tensor g_Y is computed two independent
ways: the (alpha, beta)-metric formula, one symmetric matrix in four terms
(Chern-Shen, Riemann-Finsler Geometry, 2005; Shen, Lectures on Finsler
Geometry, 2001), and a central-difference Hessian of F^2 / 2 that serves
as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError, PreconditionError
from .metrics import Flag, InnerProduct

TOL_BOUNDARY = 1e-12
TOL_FLAG = 1e-10
DEFAULT_FD_STEP = 1e-5


@dataclass(frozen=True, eq=False)
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
    alpha = _alpha(d.g, y, "F is undefined at y = 0")
    return (alpha + d.g.dot(d.X, y)) ** 2 / alpha


def _alpha(g: InnerProduct, y: np.ndarray, at_zero: str) -> float:
    """alpha(y) = |y|_g, refusing (InputError) a y that is not finite or
    has no finite g-length, and y = 0 with the words at_zero."""
    alpha = g.norm(y)
    if not math.isfinite(alpha):
        raise InputError("vector must be finite, with a finite g-length")
    if alpha == 0.0:
        raise InputError(at_zero)
    return alpha


def _require_finite(words: str, *xs: np.ndarray) -> None:
    if not all(np.isfinite(x).all() for x in xs):
        raise InputError(f"{words} must be finite")


def g_Y_matrix(d: FinslerData, Y: np.ndarray) -> np.ndarray:
    """Fundamental tensor at Y as one symmetric matrix.

    For F = alpha phi(s) with s = beta/alpha and phi(s) = (1+s)^2,
    g_Y = rho g + rho0 b b^T + rho1 (b a_Y^T + a_Y b^T) + rho2 a_Y a_Y^T
    with b = gX and a_Y = gY/alpha (Chern-Shen, Riemann-Finsler Geometry).
    """
    Y = np.asarray(Y, dtype=float)
    alpha = _alpha(d.g, Y, "g_Y is undefined at Y = 0")
    G = d.g.g
    a_Y = G @ Y / alpha
    b = G @ d.X
    s = float(b @ Y) / alpha
    phi, dphi, ddphi = (1.0 + s) ** 2, 2.0 * (1.0 + s), 2.0
    rho = phi * (phi - s * dphi)
    rho0 = phi * ddphi + dphi**2
    rho1 = -(s * rho0 - phi * dphi)
    rho2 = -s * rho1
    ba = np.outer(b, a_Y)
    return (rho * G + rho0 * np.outer(b, b) + rho1 * (ba + ba.T)
            + rho2 * np.outer(a_Y, a_Y))


def g_Y_closed(d: FinslerData, Y: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Closed-form g_Y(u, v) = u . g_Y_matrix(Y) . v."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    _require_finite("u and v", u, v)
    return float(u @ g_Y_matrix(d, Y) @ v)


def g_Y_fd(
    d: FinslerData,
    Y: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    step: float = DEFAULT_FD_STEP,
) -> float:
    """Central-difference 1/2 d^2/ds dt F^2(Y + s u + t v) at s = t = 0."""
    Y = np.asarray(Y, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    _alpha(d.g, Y, "g_Y is undefined at Y = 0")
    _require_finite("u and v", u, v)
    if not (math.isfinite(step) and step > 0):
        raise NumericError(f"step must be positive and finite, got {step:g}")

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
    mixed = 0.5 * (f2(h, h) - f2(h, -h) - f2(-h, h) + f2(-h, -h)) / (4.0 * h * h)
    return float(mixed)


def denominator_identity(d: FinslerData, flag: Flag) -> IdentityReport:
    """g_Y(Y,Y) g_Y(U,U) - g_Y(U,Y)^2 vs (1+<X,Y>)^6 (2<X,U>^2 - <X,Y>^2 + 1)."""
    _require_orthonormal(d.g, flag)
    Y, U = flag.Y, flag.U
    G = g_Y_matrix(d, Y)
    lhs = float((Y @ G @ Y) * (U @ G @ U) - (U @ G @ Y) ** 2)
    XY = d.g.dot(d.X, Y)
    XU = d.g.dot(d.X, U)
    rhs = (1.0 + XY) ** 6 * (2.0 * XU**2 - XY**2 + 1.0)
    return IdentityReport(lhs=lhs, rhs=rhs, defect=abs(lhs - rhs))


def numerator_identity_check(
    d: FinslerData,
    flag: Flag,
    Ruyy: np.ndarray,
    gy_source: str = "closed",
) -> IdentityReport:
    """Compare g_Y(R(U,Y)Y, U) with its expansion in metric contractions.

    rhs = (1+<X,Y>)^2 {2 <X,U> <Y,R> (1 - 2<X,Y>) + 6 <X,R> <X,U>
    + <R,U> (1 - <X,Y>^2)}, where R is the supplied oracle vector; the
    expansion holds for a g-orthonormal flag only.
    """
    g = d.g
    _require_orthonormal(g, flag)
    Y, U = flag.Y, flag.U
    Ruyy = np.asarray(Ruyy, dtype=float)
    _require_finite("Ruyy", Ruyy)
    if gy_source == "closed":
        lhs = g_Y_closed(d, Y, Ruyy, U)
    elif gy_source == "fd":
        lhs = g_Y_fd(d, Y, Ruyy, U)
    else:
        raise InputError(f"gy_source must be 'closed' or 'fd', got {gy_source!r}")
    XY = g.dot(d.X, Y)
    XU = g.dot(d.X, U)
    rhs = (1.0 + XY) ** 2 * (
        2.0 * XU * g.dot(Y, Ruyy) * (1.0 - 2.0 * XY)
        + 6.0 * g.dot(d.X, Ruyy) * XU
        + g.dot(Ruyy, U) * (1.0 - XY**2)
    )
    return IdentityReport(lhs=lhs, rhs=rhs, defect=abs(lhs - rhs))


def _require_orthonormal(g: InnerProduct, flag: Flag) -> None:
    if np.shape(flag.Y) != (g.dim,) or np.shape(flag.U) != (g.dim,):
        raise InputError(f"flag vectors must have length {g.dim}")
    _require_finite("flag vectors", flag.Y, flag.U)
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
