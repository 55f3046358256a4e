"""Berwald admissibility of a drift vector on G/H, at any isotropy.

A drift vector X makes F = (alpha + beta)^2 / alpha of Berwald type
exactly when the invariant field X is parallel; the verdict is the
geometry's drift_parallel(X) on a nonzero X.  By the Nomizu map,
2 <Lambda(u) X, v> = -(<[X,u]_m, v> + <u, [X,v]_m>) + <[v,u]_m, X>, so
nabla X = 0 exactly when ad_m(X) is g-skew on m, X is g-orthogonal to
[m, m]_m and [h, X] = 0; the first two are reported as diagnostics.
Perfect algebras exclude every X != 0.  The checks need a reductive
split and an ad(h)-invariant metric (PreconditionError).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import TOL_HYPOTHESIS, LieAlgebraSpec, _bracket_span, _svd_rank, derived_subalgebra
from .errors import FlagError, InputError
from .flagcurvature import _draws
from .geometry import HomogeneousGeometry
from .metrics import CheckReport, InnerProduct, _h_dim_of, _scaled_rows, _skew_check, require
from .riemann import sectional


@dataclass(frozen=True, eq=False)
class SectionalSignReport:
    min_K: float
    max_K: float
    n_samples: int
    witnesses: tuple[tuple[np.ndarray, float], ...]


@dataclass(frozen=True, eq=False)
class ObstructionReport:
    perfect: bool
    parallel_space: np.ndarray  # rows form a g-orthonormal basis
    in_parallel_space: bool
    ad_skew_ok: bool
    ad_skew_defect: float
    nabla_X_norm: float
    berwald_admissible: bool


def is_perfect(L: LieAlgebraSpec) -> bool:
    """True iff [g, g] = g (full-rank derived subalgebra)."""
    return derived_subalgebra(L).shape[0] == L.dim


def _unit_orthogonal(g: InnerProduct, Xu: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The rows of v made g-orthogonal to the g-unit Xu and g-unit, dropping
    rows whose largest entry the projection leaves at most 1e-10 of what it
    was.  Each g-length is read by _scaled_rows, so no square overflows."""
    w = v - np.outer(v @ (Xu @ g.g), Xu)
    ws, q = _scaled_rows(g.g, w)
    keep = np.abs(w).max(axis=1, initial=0.0) > 1e-10 * np.abs(v).max(axis=1, initial=0.0)
    return ws[keep] / np.sqrt(q[keep, None])


def _drift(geom: HomogeneousGeometry, X: np.ndarray) -> np.ndarray:
    """The drift as an m-vector of a geometry whose connection is the
    metric's Levi-Civita one: a reductive split, an ad(h)-invariant metric."""
    X = np.asarray(X, dtype=float)
    if X.shape != (geom.m_dim,):
        raise InputError(f"drift vector must have length {geom.m_dim}")
    require(geom.levi_civita())
    return X


def _ad_m(L: LieAlgebraSpec, h: int, X: np.ndarray) -> np.ndarray:
    """ad_m(X) on row vectors of m, v @ ad_m(X) = [X, v]_m, for X in m (the
    basis vectors from h on): the m-block of ad of X zero-padded on h."""
    return L.ad(np.concatenate((np.zeros(h), X)))[h:, h:]


def parallel_obstruction_space(L: LieAlgebraSpec, g: InnerProduct) -> np.ndarray:
    """g-orthonormal basis (rows) of {x in m : g(x, [m, m]_m) = 0}, for g on
    m, the last g.dim basis vectors.

    A parallel drift vector lies in this space.
    """
    h = _h_dim_of(L, g)
    return _orthogonal_complement(_bracket_span(L.c[h:, h:, h:]), g)


def _orthogonal_complement(derived: np.ndarray, g: InnerProduct) -> np.ndarray:
    """g-orthonormal basis (rows) of the g-orthogonal complement of derived."""
    # null space of the map x -> (g(x, d_i))_i over the rows d_i
    vt, rank = _svd_rank(derived @ g.g)
    candidates = vt[rank:]
    # g-orthonormalize the spanning set (small: eigendecompose the Gram matrix)
    gram = candidates @ g.g @ candidates.T
    w, v = np.linalg.eigh(gram)
    return (v / np.sqrt(w)).T @ candidates


def ad_skew_check(L: LieAlgebraSpec, g: InnerProduct, X: np.ndarray) -> CheckReport:
    """Defect of <[X,u]_m,v> + <u,[X,v]_m> = 0 over all basis pairs of m,
    for g on m, the last g.dim basis vectors."""
    X = np.asarray(X, dtype=float)
    return _skew_check(_ad_m(L, _h_dim_of(L, g), X)[None], g.g)


def obstruction_report(geom: HomogeneousGeometry, X: np.ndarray) -> ObstructionReport:
    """Berwald admissibility of a candidate drift vector: |X|_g > 0 and
    drift_parallel(X), with the parallel space and the ad-skew check."""
    L, g, X, h = geom.algebra, geom.inner, _drift(geom, X), geom.h_dim
    derived = derived_subalgebra(L)  # of g; with h_dim = 0 also [m, m]_m
    space = _orthogonal_complement(_bracket_span(L.c[h:, h:, h:]) if h else derived, g)
    # residual of X after g-orthogonal projection onto the space
    resid = X - space.T @ (space @ g.g @ X)
    in_space = g.norm(resid) <= TOL_HYPOTHESIS * max(1.0, g.norm(X))
    skew = ad_skew_check(L, g, X)
    nabla = geom.drift_parallel(X)
    return ObstructionReport(
        perfect=derived.shape[0] == L.dim,
        parallel_space=space,
        in_parallel_space=in_space,
        ad_skew_ok=skew.ok,
        ad_skew_defect=skew.max_defect,
        nabla_X_norm=nabla.max_defect,
        berwald_admissible=bool(nabla.ok and g.norm(X) > 0),
    )


def sectional_along_X_sign(
    geom: HomogeneousGeometry,
    X: np.ndarray,
    n_samples: int = 1000,
    seed: int = 0,
) -> SectionalSignReport:
    """Sample K(X, u) for u on the g-unit sphere orthogonal to X.

    X need not be parallel; for a parallel X every sample is 0.  Witnesses
    g-orthogonal to the image [X, m]_m, where K must vanish for a
    bi-invariant metric, are returned alongside the sampled extremes.  With
    m_dim < 2 no 2-plane contains X, so there is no sample (FlagError).
    """
    L, g, X, h = geom.algebra, geom.inner, _drift(geom, X), geom.h_dim
    if geom.m_dim < 2:
        raise FlagError("flags need m_dim >= 2")
    # one row of m normals per sample, drawn as a per-sample loop would
    draws = _draws(n_samples, seed,
                   lambda: np.random.default_rng(seed).standard_normal((n_samples, geom.m_dim)))
    if g.norm(X) == 0.0:
        raise InputError("X must be nonzero")
    Xu = X / g.norm(X)
    u = _unit_orthogonal(g, Xu, draws)
    # witnesses orthogonal to the image [X, m]_m: K must vanish there
    vt, rank = _svd_rank(_ad_m(L, h, X) @ g.g)  # rows [X, e_j]_m
    w = _unit_orthogonal(g, Xu, vt[rank:])
    ks, kw = np.split(sectional(L, g, geom.connection, X, np.vstack([u, w])), [len(u)])
    return SectionalSignReport(
        min_K=float(ks.min()),
        max_K=float(ks.max()),
        n_samples=n_samples,
        witnesses=tuple(zip(w, map(float, kw))),
    )
