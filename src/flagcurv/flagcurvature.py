"""Flag curvature K(P, Y) of F = (alpha + beta)^2 / alpha.

K is assembled from two curvature contractions <X, R(U,Y)Y> and
<R(U,Y)Y, U>, which can come from three methods: the general
Puttmann-style closed forms, the naturally reductive double-bracket
formula, or the bi-invariant corollary.

Sign conventions: the transcribed closed-form contractions evaluate, in
the bi-invariant phi = I case, to the negatives of the oracle values
(su(2) gives -1/4 |[Y,U]|^2 where the round sphere needs +1/4).  The
default 'oracle-aligned' convention multiplies both contractions by a
single global sign calibrated against the Koszul oracle;
'paper-verbatim' keeps the transcription untouched for auditing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebraSpec, bracket, project
from .errors import FlagError, InputError, PreconditionError
from .finsler import FinslerData, g_Y_closed, g_Y_fd, validate_finsler
from .geometry import HomogeneousGeometry
from .metrics import (
    Flag,
    InnerProduct,
    check_bi_invariance,
    check_naturally_reductive,
    orthonormalize_flag,
)
from .riemann import (
    curvature_oracle,
    koszul_connection,
    nat_reductive_R,
)

CONVENTIONS = ("oracle-aligned", "paper-verbatim")
METHODS = ("general", "naturally-reductive", "bi-invariant")

# Global sign relating the transcribed contractions to the curvature
# oracle, calibrated once on the bi-invariant su(2) round sphere.
ORACLE_SIGN = -1.0


@dataclass(frozen=True)
class Contractions:
    XRYY: float
    URYY: float
    RYYY: float


@dataclass(frozen=True)
class CurvatureReport:
    K: float
    contractions: Contractions
    numerator: float
    denominator: float
    convention: str
    method: str
    oracle_URYY: float | None = None
    sign_mismatch: bool | None = None


@dataclass(frozen=True)
class ScanSummary:
    n_samples: int
    seed: int
    min_K: float
    max_K: float
    mean_K: float
    argmin_index: int
    argmax_index: int
    argmin_flag: Flag
    argmax_flag: Flag


@dataclass(frozen=True)
class NumeratorReport:
    lhs: float
    rhs: float
    defect: float


def _check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise InputError(f"convention must be one of {CONVENTIONS}, got {convention!r}")


def _embed(geom: HomogeneousGeometry, x_m: np.ndarray) -> np.ndarray:
    return geom.pair.embed_m(np.asarray(x_m, dtype=float))


def puttmann_XRYY(
    geom: HomogeneousGeometry,
    X: np.ndarray,
    Y: np.ndarray,
    U: np.ndarray,
    convention: str = "oracle-aligned",
) -> float:
    """Closed-form <X, R(U,Y)Y>; all vectors in m-coordinates.

    Term 2 pairs m-projections with the derived metric <.,.>; the other
    terms use <.,.>_0 on the full algebra, as printed.
    """
    _check_convention(convention)
    L, R, g0, g = geom.algebra, geom.pair, geom.g0, geom.inner
    phi = geom.phi.phi_full
    phi_inv = geom.phi.phi_inv_full
    Xf, Yf, Uf = _embed(geom, X), _embed(geom, Y), _embed(geom, U)
    b = lambda a, c: bracket(L, a, c)

    t1 = 0.25 * (
        g0.dot(b(phi @ Uf, Yf) + b(Uf, phi @ Yf), b(Yf, Xf))
        + g0.dot(b(Uf, Yf), b(phi @ Yf, Xf) + b(Yf, phi @ Xf))
    )
    t2 = 0.75 * g.dot(
        R.m_coords(project(R, b(Yf, Uf), "m")),
        R.m_coords(project(R, b(Yf, Xf), "m")),
    )
    t3 = 0.5 * g0.dot(b(Uf, phi @ Xf) + b(Xf, phi @ Uf), phi_inv @ b(Yf, phi @ Yf))
    t4 = -0.25 * g0.dot(
        b(Uf, phi @ Yf) + b(Yf, phi @ Uf),
        phi_inv @ (b(Yf, phi @ Xf) + b(Xf, phi @ Yf)),
    )
    value = t1 + t2 + t3 + t4
    return value if convention == "paper-verbatim" else ORACLE_SIGN * value


def puttmann_URYY(
    geom: HomogeneousGeometry,
    Y: np.ndarray,
    U: np.ndarray,
    convention: str = "oracle-aligned",
    first_term: str = "statement",
    X: np.ndarray | None = None,
) -> float:
    """Closed-form <R(U,Y)Y, U>; all vectors in m-coordinates.

    first_term='statement' pairs the first term with [Y,U] (the canonical
    form; it alone survives the X = 0 Riemannian reduction).  The
    diagnostic variant 'proof' pairs with [Y,X] instead and needs X.
    """
    _check_convention(convention)
    L, R, g0, g = geom.algebra, geom.pair, geom.g0, geom.inner
    phi = geom.phi.phi_full
    phi_inv = geom.phi.phi_inv_full
    Yf, Uf = _embed(geom, Y), _embed(geom, U)
    b = lambda a, c: bracket(L, a, c)

    if first_term == "statement":
        pair_with = b(Yf, Uf)
    elif first_term == "proof":
        if X is None:
            raise InputError("first_term='proof' needs the drift vector X")
        pair_with = b(Yf, _embed(geom, X))
    else:
        raise InputError(f"first_term must be 'statement' or 'proof', got {first_term!r}")

    t1 = 0.5 * g0.dot(b(phi @ Uf, Yf) + b(Uf, phi @ Yf), pair_with)
    bm = R.m_coords(project(R, b(Yf, Uf), "m"))
    t2 = 0.75 * g.dot(bm, bm)
    t3 = g0.dot(b(Uf, phi @ Uf), phi_inv @ b(Yf, phi @ Yf))
    t4 = -0.25 * g0.dot(
        b(Uf, phi @ Yf) + b(Yf, phi @ Uf),
        phi_inv @ (b(Yf, phi @ Uf) + b(Uf, phi @ Yf)),
    )
    value = t1 + t2 + t3 + t4
    return value if convention == "paper-verbatim" else ORACLE_SIGN * value


def _oracle_RUYY(
    geom: HomogeneousGeometry, U: np.ndarray, Y: np.ndarray
) -> np.ndarray | None:
    """R(U,Y)Y in m-coordinates via the strongest available oracle."""
    if geom.pair.h_dim == 0:
        conn = koszul_connection(geom.algebra, geom.inner)
        return curvature_oracle(conn, geom.algebra, U, Y, Y)
    if check_naturally_reductive(geom.algebra, geom.pair, geom.inner).ok:
        return nat_reductive_R(geom.algebra, geom.pair, U, Y)
    return None


def _assemble(
    g: InnerProduct,
    X: np.ndarray,
    flag: Flag,
    contractions: Contractions,
) -> tuple[float, float, float]:
    XY = g.dot(X, flag.Y)
    XU = g.dot(X, flag.U)
    numerator = 6.0 * contractions.XRYY * XU + contractions.URYY * (1.0 - XY**2)
    denominator = (1.0 + XY) ** 4 * (2.0 * XU**2 - XY**2 + 1.0)
    return numerator, denominator, numerator / denominator


def flag_curvature(
    geom: HomogeneousGeometry,
    d: FinslerData,
    flag: Flag,
    method: str = "general",
    convention: str = "oracle-aligned",
    require_valid: bool = True,
) -> CurvatureReport:
    """Flag curvature of the flag spanned by (Y, U) with flagpole Y.

    The flag is re-orthonormalized first (a projection when it already is
    orthonormal).  K = [6 <X,R(U,Y)Y> <X,U> + <R(U,Y)Y,U> (1 - <X,Y>^2)]
    / [(1 + <X,Y>)^4 (2 <X,U>^2 - <X,Y>^2 + 1)].
    """
    _check_convention(convention)
    if method not in METHODS:
        raise InputError(f"method must be one of {METHODS}, got {method!r}")
    g = geom.inner
    if d.g.dim != g.dim or not np.allclose(d.g.g, g.g):
        raise InputError("FinslerData metric does not match the geometry")
    if require_valid:
        rep = validate_finsler(d)
        if not rep.ok:
            raise PreconditionError(
                f"drift vector fails the Finsler condition (|X|_g = {rep.norm_X:g})"
            )
    flag = orthonormalize_flag(g, flag.Y, flag.U)
    Y, U, X = flag.Y, flag.U, d.X

    oracle_URYY = None
    sign_mismatch = None
    if method == "general":
        XRYY = puttmann_XRYY(geom, X, Y, U, convention)
        URYY = puttmann_URYY(geom, Y, U, convention)
        r_vec = _oracle_RUYY(geom, U, Y)
        RYYY = g.dot(Y, r_vec) if r_vec is not None else 0.0
        if r_vec is not None:
            oracle_URYY = g.dot(r_vec, U)
            sign_mismatch = abs(URYY - oracle_URYY) > max(
                1e-9, 1e-9 * abs(oracle_URYY)
            )
    elif method == "naturally-reductive":
        r_vec = nat_reductive_R(geom.algebra, geom.pair, U, Y, g=g)
        XRYY = g.dot(X, r_vec)
        URYY = g.dot(U, r_vec)
        RYYY = g.dot(Y, r_vec)
        oracle_URYY = URYY
    else:  # bi-invariant corollary
        if geom.pair.h_dim != 0:
            raise PreconditionError("bi-invariant method needs trivial isotropy")
        rep = check_bi_invariance(geom.algebra, g.g)
        if not rep.ok:
            raise PreconditionError(
                f"metric is not bi-invariant (defect {rep.max_defect:g})"
            )
        W = bracket(geom.algebra, Y, bracket(geom.algebra, U, Y))
        XRYY = 0.25 * g.dot(X, W)
        URYY = 0.25 * g.dot(U, W)
        RYYY = 0.25 * g.dot(Y, W)
        oracle_URYY = URYY

    contractions = Contractions(XRYY=XRYY, URYY=URYY, RYYY=RYYY)
    numerator, denominator, K = _assemble(g, X, flag, contractions)
    return CurvatureReport(
        K=K,
        contractions=contractions,
        numerator=numerator,
        denominator=denominator,
        convention=convention,
        method=method,
        oracle_URYY=oracle_URYY,
        sign_mismatch=sign_mismatch,
    )


def flag_curvature_biinvariant(
    L: LieAlgebraSpec,
    g: InnerProduct,
    X: np.ndarray,
    flag: Flag,
) -> CurvatureReport:
    """Bi-invariant corollary: K from the double bracket [Y,[U,Y]].

    The factor 4 in the denominator absorbs the 1/4 of R = 1/4 [Y,[U,Y]].
    """
    if g.dim != L.dim:
        raise PreconditionError("bi-invariant corollary needs trivial isotropy")
    rep = check_bi_invariance(L, g.g)
    if not rep.ok:
        raise PreconditionError(
            f"metric is not bi-invariant (defect {rep.max_defect:g})"
        )
    X = np.asarray(X, dtype=float)
    flag = orthonormalize_flag(g, flag.Y, flag.U)
    Y, U = flag.Y, flag.U
    W = bracket(L, Y, bracket(L, U, Y))
    XY = g.dot(X, Y)
    XU = g.dot(X, U)
    numerator = 6.0 * g.dot(X, W) * XU + g.dot(U, W) * (1.0 - XY**2)
    denominator = 4.0 * (1.0 + XY) ** 4 * (2.0 * XU**2 - XY**2 + 1.0)
    K = numerator / denominator
    contractions = Contractions(
        XRYY=0.25 * g.dot(X, W), URYY=0.25 * g.dot(U, W), RYYY=0.25 * g.dot(Y, W)
    )
    return CurvatureReport(
        K=K,
        contractions=contractions,
        numerator=numerator,
        denominator=denominator,
        convention="oracle-aligned",
        method="bi-invariant",
        oracle_URYY=contractions.URYY,
        sign_mismatch=None,
    )


def numerator_identity_check(
    d: FinslerData,
    flag: Flag,
    Ruyy: np.ndarray,
    gy_source: str = "closed",
    fd_step: float = 1e-5,
) -> NumeratorReport:
    """Compare g_Y(R(U,Y)Y, U) with its expansion in metric contractions.

    rhs = (1+<X,Y>)^2 {2 <X,U> <Y,R> (1 - 2<X,Y>) + 6 <X,R> <X,U>
    + <R,U> (1 - <X,Y>^2)}, where R is the supplied oracle vector.
    """
    g = d.g
    Y, U = flag.Y, flag.U
    Ruyy = np.asarray(Ruyy, dtype=float)
    if gy_source == "closed":
        lhs = g_Y_closed(d, Y, Ruyy, U)
    elif gy_source == "fd":
        lhs = g_Y_fd(d, Y, Ruyy, U, step=fd_step)
    else:
        raise InputError(f"gy_source must be 'closed' or 'fd', got {gy_source!r}")
    XY = g.dot(d.X, Y)
    XU = g.dot(d.X, U)
    rhs = (1.0 + XY) ** 2 * (
        2.0 * XU * g.dot(Y, Ruyy) * (1.0 - 2.0 * XY)
        + 6.0 * g.dot(d.X, Ruyy) * XU
        + g.dot(Ruyy, U) * (1.0 - XY**2)
    )
    return NumeratorReport(lhs=lhs, rhs=rhs, defect=abs(lhs - rhs))


def sample_flag(
    g: InnerProduct, rng: np.random.Generator, g_inv_sqrt: np.ndarray | None = None
) -> Flag:
    """One flag: Y uniform on the g-unit sphere, U uniform in Y-perp."""
    if g.dim < 2:
        raise FlagError("flags need m_dim >= 2")
    if g_inv_sqrt is None:
        g_inv_sqrt = _inv_sqrt(g.g)
    while True:
        y = g_inv_sqrt @ rng.standard_normal(g.dim)
        u = g_inv_sqrt @ rng.standard_normal(g.dim)
        try:
            return orthonormalize_flag(g, y, u, tol_dep=1e-8)
        except FlagError:
            continue  # resample; deterministic given the generator state


def _inv_sqrt(gm: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(gm)
    return v @ np.diag(1.0 / np.sqrt(w)) @ v.T


def scan_flags(
    geom: HomogeneousGeometry,
    d: FinslerData,
    n_samples: int,
    seed: int,
    method: str = "general",
    convention: str = "oracle-aligned",
) -> ScanSummary:
    """Seeded random scan of flags; summary statistics of K."""
    if geom.m_dim < 2:
        raise FlagError("scan needs m_dim >= 2 (no flags exist otherwise)")
    if n_samples < 1:
        raise InputError("n_samples must be positive")
    rng = np.random.default_rng(seed)
    g_inv_sqrt = _inv_sqrt(geom.inner.g)
    ks = np.empty(n_samples)
    flags: list[Flag] = []
    for i in range(n_samples):
        flag = sample_flag(geom.inner, rng, g_inv_sqrt)
        flags.append(flag)
        ks[i] = flag_curvature(geom, d, flag, method=method, convention=convention).K
    i_min = int(np.argmin(ks))
    i_max = int(np.argmax(ks))
    return ScanSummary(
        n_samples=n_samples,
        seed=seed,
        min_K=float(ks[i_min]),
        max_K=float(ks[i_max]),
        mean_K=float(np.mean(ks)),
        argmin_index=i_min,
        argmax_index=i_max,
        argmin_flag=flags[i_min],
        argmax_flag=flags[i_max],
    )
