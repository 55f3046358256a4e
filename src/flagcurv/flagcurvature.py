"""Flag curvature K(P, Y) of F = (alpha + beta)^2 / alpha.

The paper's K holds for a parallel drift X; then R(.,.)X = 0, its term
6 <X,R(U,Y)Y> <X,U> vanishes, and K is assembled from <R(U,Y)Y, U> alone:
the general Puttmann-style closed form, the naturally reductive
double-bracket formula, or the bi-invariant corollary.  For any other X
this K is not the flag curvature.  One kernel evaluates it on a stack of
flags: one row for flag_curvature, every config flag of a `curvature`
command at once, blocks of rows for scan_flags.

Sign conventions: the transcribed closed-form contraction evaluates, in
the bi-invariant phi = I case, to the negative of the oracle value
(su(2) gives -1/4 |[Y,U]|^2 where the round sphere needs +1/4).  The
default 'oracle-aligned' convention multiplies it by a single global sign
calibrated against the Koszul oracle;
'paper-verbatim' keeps the transcription untouched for auditing.  Only
the general method has a transcription, so only it takes 'paper-verbatim'.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import LieAlgebraSpec
from .errors import FlagError, InputError, NumericError, PreconditionError
from .finsler import FinslerData, validate_finsler
from .geometry import NOT_AD_H_INVARIANT, HomogeneousGeometry, make_geometry
from .metrics import Flag, InnerProduct, orthonormalize_flag, require
from .riemann import NOT_NATURALLY_REDUCTIVE, _nat_reductive_RUYY, _pad_m, curvature_oracle

CONVENTIONS = ("oracle-aligned", "paper-verbatim")
METHODS = ("general", "naturally-reductive", "bi-invariant")

# Global sign relating the transcribed contraction to the curvature
# oracle, calibrated once on the bi-invariant su(2) round sphere.
ORACLE_SIGN = -1.0


@dataclass(frozen=True)
class Contractions:
    XRYY: float | None
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


@dataclass(frozen=True, eq=False)
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


def _check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise InputError(f"convention must be one of {CONVENTIONS}, got {convention!r}")


# Flags per kernel call in scan_flags: spreads numpy's per-call cost, and
# keeps the bracket temporaries small ((5 * _BLOCK, 168) arrays on so(8)).
_BLOCK = 16


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


# Each method's drift-free hypotheses as (check-table row, words of refusal), in
# order.  _Kernel refuses those the double-bracket formulas need; the general
# closed form evaluates on any metric, so only the CLI gate refuses its rows.
HYPOTHESES = {
    "general": (("ad_h_invariance", NOT_AD_H_INVARIANT),
                ("g0_bi_invariance", "g0 is not bi-invariant")),
    "naturally-reductive": (("ad_h_invariance", NOT_AD_H_INVARIANT),
                            ("naturally_reductive", NOT_NATURALLY_REDUCTIVE)),
    # on a group a metric is bi-invariant exactly when it is naturally reductive
    "bi-invariant": (("naturally_reductive", "metric is not bi-invariant"),),
}


def hypotheses(geom: HomogeneousGeometry, X: np.ndarray, method: str):
    """The paper's hypotheses for method as (words of refusal, CheckReport),
    lazily: its check-table rows, then whether X is parallel (Chern = Levi-Civita)."""
    for name, words in HYPOTHESES[method]:
        yield words, getattr(geom, name)
    yield "drift X is not parallel", geom.drift_parallel(X)


class _Kernel:
    """The contraction <R(U,Y)Y,U> of one geometry, method and convention,
    and K for one drift, on a stack of flags at once.

    The one place a curvature call is validated: everything that does not
    depend on the flag, including the formula's domain |X|_g < 1 and the
    method's preconditions, is settled at construction.  A stack of N flags
    then costs a fixed number of numpy calls on (N, n) arrays: its brackets
    come from LieAlgebraSpec.brackets, no ad matrix is formed per flag.
    """

    def __init__(
        self, geom: HomogeneousGeometry, d: FinslerData, method: str, convention: str
    ):
        _check_convention(convention)
        if method not in METHODS:
            raise InputError(f"method must be one of {METHODS}, got {method!r}")
        if convention == "paper-verbatim" and method != "general":
            raise InputError("convention 'paper-verbatim' applies to the general "
                             f"method only, got {method!r}")
        if not (d.g is geom.inner or np.array_equal(d.g.g, geom.inner.g)):
            raise InputError("FinslerData metric does not match the geometry")
        rep = validate_finsler(d)
        if not rep.ok:
            raise PreconditionError(
                f"drift vector fails the Finsler condition (|X|_g = {rep.norm_X:g})"
            )
        if geom.m_dim < 2:
            raise FlagError("flags need m_dim >= 2")
        require([next(geom.levi_civita())])  # the split; the metric's rows are in HYPOTHESES
        if method == "bi-invariant" and geom.h_dim != 0:
            # the metric on m alone cannot be bi-invariant on the algebra
            raise PreconditionError("bi-invariant method needs trivial isotropy")
        if method != "general":
            require((words, getattr(geom, name)) for name, words in HYPOTHESES[method])
        self.geom, self.method, self.convention = geom, method, convention
        self.Xg = d.X @ geom.inner.g

    def __call__(self, Y: np.ndarray, U: np.ndarray) -> np.ndarray:
        """The method's own <R(U,Y)Y,U>, an (N,) array, for g-orthonormal
        flags whose Y and U are the rows of two (N, m) stacks."""
        geom = self.geom
        h, N = geom.h_dim, len(Y)
        YU = np.zeros((2 * N, geom.algebra.dim))
        YU[:N, h:], YU[N:, h:] = Y, U
        if self.method == "general":
            return _closed_URYY(geom, YU, self.convention)
        return _rowdot(U @ geom.inner.g, _nat_reductive_RUYY(geom.algebra, YU[:N], YU[N:], h))

    def K(self, Y: np.ndarray, U: np.ndarray) -> np.ndarray:
        return _assemble(Y @ self.Xg, U @ self.Xg, self(Y, U))[2]

    def reports(self, Y: np.ndarray, U: np.ndarray) -> list[CurvatureReport]:
        """One CurvatureReport per row of two (N, m) stacks of g-orthonormal
        flags.  On an ad(h)-invariant metric one stacked curvature_oracle call
        on the Levi-Civita connection gives r = R(U,Y)Y, whence the oracle
        <R(U,Y)Y,U>, sign_mismatch, XRYY (zero for a parallel X, not part of
        K) and RYYY, for every method; otherwise None, None, None and 0."""
        geom, N = self.geom, len(Y)
        with np.errstate(all="ignore"):  # an overflow shows as a K that is not finite
            URYY = self(Y, U)
            numerator, denominator, K = _assemble(Y @ self.Xg, U @ self.Xg, URYY)
        _refuse_nonfinite_K(K)
        XRYY, RYYY, oracle, mismatch = [None] * N, np.zeros(N), [None] * N, [None] * N
        if all(rep.ok for _, rep in geom.levi_civita()):
            r = curvature_oracle(geom.connection, geom.algebra, U, Y, Y)
            o = _rowdot(r @ geom.inner.g, U)
            tol = np.maximum(1e-9, 1e-9 * np.abs(o))
            XRYY, RYYY = (r @ self.Xg).tolist(), _rowdot(Y @ geom.inner.g, r)
            oracle, mismatch = o.tolist(), (np.abs(URYY - o) > tol).tolist()
        return [
            CurvatureReport(K=k, contractions=Contractions(XRYY=x, URYY=u, RYYY=ry),
                            numerator=n, denominator=d, convention=self.convention,
                            method=self.method, oracle_URYY=o, sign_mismatch=s)
            for x, u, ry, n, d, k, o, s in zip(
                XRYY, *(a.tolist() for a in (URYY, RYYY, numerator, denominator, K)),
                oracle, mismatch)
        ]


def _refuse_nonfinite_K(K: np.ndarray) -> None:
    """Refuse (NumericError) a stack of K that holds a value that is not finite."""
    if not np.isfinite(K).all():
        raise NumericError("K is not finite: a curvature term overflows")


def _closed_URYY(geom: HomogeneousGeometry, YU: np.ndarray, convention: str) -> np.ndarray:
    """Closed form <R(U,Y)Y,U> as printed, times the convention's sign, of
    the N flags whose Y are stacked over their U in YU, (2N, n) in full
    coordinates.  Term 2 pairs m-projections with the derived metric <.,.>;
    the other terms use <.,.>_0 on the full algebra, as printed."""
    h, g0, g0_phi_inv = geom.h_dim, geom.g0, geom.g0_phi_inv
    N = len(YU) // 2
    Y, U = YU[:N], YU[N:]
    pY, pU = np.split(YU @ geom.phi_full.T, 2)
    y_pY, y_pU, u_pY, u_pU, y_U = geom.algebra.brackets(
        np.concatenate((Y, Y, U, U, Y)), np.concatenate((pY, pU, pY, pU, U))
    ).reshape(5, N, -1)
    s = u_pY - y_pU  # [phi U, Y] + [U, phi Y]
    t = u_pY + y_pU  # [U, phi Y] + [Y, phi U]
    yU_m = y_U[:, h:]
    w = y_pY @ g0_phi_inv.T  # g0 phi^-1 [Y, phi Y]
    sign = 1.0 if convention == "paper-verbatim" else ORACLE_SIGN
    return sign * (
        0.5 * _rowdot(s @ g0, y_U)
        + 0.75 * _rowdot(yU_m @ geom.inner.g, yU_m)
        + _rowdot(u_pU, w)
        - 0.25 * _rowdot(t @ g0_phi_inv, t)
    )


def puttmann_URYY(
    geom: HomogeneousGeometry,
    Y: np.ndarray,
    U: np.ndarray,
    convention: str = "oracle-aligned",
) -> float:
    """Closed-form <R(U,Y)Y, U>; all vectors in m-coordinates.

    The first term pairs with [Y,U]; it alone survives the X = 0
    Riemannian reduction.
    """
    _check_convention(convention)
    YU = _pad_m(geom.algebra.dim, geom.h_dim, Y, U)
    return float(_closed_URYY(geom, YU, convention)[0])


def _assemble(
    XY: np.ndarray, XU: np.ndarray, URYY: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Numerator, denominator and K from <X,Y>, <X,U> and <R(U,Y)Y,U>; the
    paper's 6 <X,R(U,Y)Y> <X,U>, zero for a parallel X, is left out."""
    numerator = URYY * (1.0 - XY**2)
    denominator = (1.0 + XY) ** 4 * (2.0 * XU**2 - XY**2 + 1.0)
    return numerator, denominator, numerator / denominator


def flag_curvature(
    geom: HomogeneousGeometry,
    d: FinslerData,
    flag: Flag,
    method: str = "general",
    convention: str = "oracle-aligned",
) -> CurvatureReport:
    """Flag curvature of the flag spanned by (Y, U) with flagpole Y.

    The flag is re-orthonormalized first (a projection when it already is
    orthonormal).  K = <R(U,Y)Y,U> (1 - <X,Y>^2) / [(1 + <X,Y>)^4 (2 <X,U>^2
    - <X,Y>^2 + 1)], the paper's formula less its 6 <X,R(U,Y)Y> <X,U>, zero
    for a parallel X; X is not checked here.  Every method also reports
    <X,R(U,Y)Y> and the oracle value of <R(U,Y)Y,U> from the geometry's
    Levi-Civita connection (the Nomizu map) when the metric is ad(h)-invariant.
    """
    kernel = _Kernel(geom, d, method, convention)
    flag = orthonormalize_flag(geom.inner, flag.Y, flag.U)
    return kernel.reports(flag.Y[None], flag.U[None])[0]


def flag_curvature_biinvariant(
    L: LieAlgebraSpec,
    g: InnerProduct,
    X: np.ndarray,
    flag: Flag,
) -> CurvatureReport:
    """Bi-invariant corollary: K from the double bracket [Y,[U,Y]].

    The bi-invariant method of flag_curvature on the group with g0 = g; the
    factor 4 in the denominator absorbs the 1/4 of R = 1/4 [Y,[U,Y]].
    """
    if g.dim != L.dim:
        raise PreconditionError("bi-invariant corollary needs trivial isotropy")
    rep = flag_curvature(make_geometry(L, g0=g.g), FinslerData(g=g, X=X), flag,
                         method="bi-invariant")
    return replace(rep, numerator=4.0 * rep.numerator, denominator=4.0 * rep.denominator)


def sample_flag(g: InnerProduct, rng: np.random.Generator) -> Flag:
    """One flag: Y uniform on the g-unit sphere, U uniform in Y-perp."""
    if g.dim < 2:
        raise FlagError("flags need m_dim >= 2")
    while True:
        y = g.inv_sqrt @ rng.standard_normal(g.dim)
        u = g.inv_sqrt @ rng.standard_normal(g.dim)
        try:
            return orthonormalize_flag(g, y, u, tol_dep=1e-8)
        except FlagError:
            continue  # resample; deterministic given the generator state


def _check_draws(n_samples: int, seed: int) -> None:
    """Refuse (InputError) an n_samples that is not a positive integer or a
    seed that is not a non-negative one; numpy integers count, bools do not."""
    for value, low, words in ((n_samples, 1, "n_samples must be a positive integer"),
                              (seed, 0, "seed must be a non-negative integer")):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
            raise InputError(words)


def scan_flags(
    geom: HomogeneousGeometry,
    d: FinslerData,
    n_samples: int,
    seed: int,
    method: str = "general",
    convention: str = "oracle-aligned",
) -> ScanSummary:
    """Seeded random scan of flags; summary statistics of K.

    The call is validated and the per-geometry operators are built once.
    Flags are drawn one at a time into two (n_samples, m) arrays, then K is
    evaluated on blocks of _BLOCK rows.  Among flags whose K ties with the
    extreme (within 1e-12 max(1, |K|)), the first is the witness.
    """
    _check_draws(n_samples, seed)
    try:  # a size numpy cannot describe, or one that malloc refuses
        Y, U = np.empty((2, n_samples, geom.m_dim))
    except (ValueError, OverflowError, MemoryError):
        raise InputError(f"n_samples = {n_samples} is too large to allocate") from None
    kernel = _Kernel(geom, d, method, convention)
    rng = np.random.default_rng(seed)
    for i in range(n_samples):
        flag = sample_flag(geom.inner, rng)
        Y[i], U[i] = flag.Y, flag.U
    ks = np.empty(n_samples)
    with np.errstate(all="ignore"):  # an overflow shows as a K that is not finite
        for start in range(0, n_samples, _BLOCK):
            block = slice(start, start + _BLOCK)
            ks[block] = kernel.K(Y[block], U[block])
    _refuse_nonfinite_K(ks)
    min_K, max_K = float(np.min(ks)), float(np.max(ks))
    i_min, i_max = _first_near(ks, min_K), _first_near(ks, max_K)
    return ScanSummary(
        n_samples=n_samples,
        seed=seed,
        min_K=min_K,
        max_K=max_K,
        mean_K=float(np.mean(ks)),
        argmin_index=i_min,
        argmax_index=i_max,
        argmin_flag=Flag(Y=Y[i_min].copy(), U=U[i_min].copy()),
        argmax_flag=Flag(Y=Y[i_max].copy(), U=U[i_max].copy()),
    )


def _first_near(ks: np.ndarray, k: float) -> int:
    """First index whose value lies within 1e-12 max(1, |k|) of k."""
    return int(np.argmax(np.abs(ks - k) <= 1e-12 * max(1.0, abs(k))))
