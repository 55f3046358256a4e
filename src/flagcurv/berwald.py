"""Obstructions to the Chern-equals-Levi-Civita hypothesis (Lie groups).

A drift vector X can make F = (alpha + beta)^2 / alpha of Berwald type
only if the corresponding field is parallel.  The directly checkable
necessary conditions are g(X, [g, g]) = 0 and ad(X) g-skew-adjoint; a
direct nabla X = 0 check through the geometry's Levi-Civita connection
supplies the in-package sufficiency test.  Perfect algebras exclude every
X != 0.  The checks need trivial isotropy (h_dim = 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import TOL_HYPOTHESIS, TOL_RANK, LieAlgebraSpec, derived_subalgebra
from .errors import FlagError, InputError, PreconditionError
from .geometry import HomogeneousGeometry
from .metrics import CheckReport, InnerProduct, _skew_check
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


def _null_rows(A: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the null space of x -> A @ x."""
    _, s, vt = np.linalg.svd(A)
    rank = int(np.sum(s > TOL_RANK * np.max(s, initial=1.0)))
    return vt[rank:]


def _unit_orthogonal(g: InnerProduct, Xu: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The rows of v made g-orthogonal to the g-unit Xu and g-unit, dropping
    rows left shorter than 1e-10."""
    v = v - np.outer(v @ (Xu @ g.g), Xu)
    nv = np.sqrt(np.maximum(np.einsum("ij,ij->i", v @ g.g, v), 0.0))
    keep = nv >= 1e-10
    return v[keep] / nv[keep, None]


def _group(
    geom: HomogeneousGeometry, X: np.ndarray
) -> tuple[LieAlgebraSpec, InnerProduct, np.ndarray]:
    """Algebra, metric and drift of a geometry with trivial isotropy."""
    if geom.pair.h_dim:
        raise PreconditionError(
            f"Berwald checks need h_dim = 0, got h_dim = {geom.pair.h_dim}")
    X = np.asarray(X, dtype=float)
    if X.shape != (geom.algebra.dim,):
        raise InputError(f"drift vector must have length {geom.algebra.dim}")
    return geom.algebra, geom.inner, X


def parallel_obstruction_space(L: LieAlgebraSpec, g: InnerProduct) -> np.ndarray:
    """g-orthonormal basis (rows) of {x : g(x, [g, g]) = 0}.

    Any Berwald-admissible drift vector must lie in this space.
    """
    if g.dim != L.dim:
        raise InputError("metric must live on the full algebra (h_dim = 0)")
    return _orthogonal_complement(derived_subalgebra(L), g)


def _orthogonal_complement(derived: np.ndarray, g: InnerProduct) -> np.ndarray:
    """g-orthonormal basis (rows) of the g-orthogonal complement of derived."""
    # null space of the map x -> (g(x, d_i))_i over the rows d_i
    candidates = _null_rows(derived @ g.g)
    # g-orthonormalize the spanning set (small: eigendecompose the Gram matrix)
    gram = candidates @ g.g @ candidates.T
    w, v = np.linalg.eigh(gram)
    return (v / np.sqrt(w)).T @ candidates


def ad_skew_check(L: LieAlgebraSpec, g: InnerProduct, X: np.ndarray) -> CheckReport:
    """Defect of <[X,u],v> + <u,[X,v]> = 0 over all basis pairs."""
    if g.dim != L.dim:
        raise InputError("metric must live on the full algebra (h_dim = 0)")
    return _skew_check(L.ad(np.asarray(X, dtype=float))[None], g.g)


def obstruction_report(geom: HomogeneousGeometry, X: np.ndarray) -> ObstructionReport:
    """Aggregate Berwald admissibility of a candidate drift vector."""
    L, g, X = _group(geom, X)
    derived = derived_subalgebra(L)
    space = _orthogonal_complement(derived, g)
    # residual of X after g-orthogonal projection onto the space
    resid = X - space.T @ (space @ g.g @ X)
    in_space = g.norm(resid) <= TOL_HYPOTHESIS * max(1.0, g.norm(X))
    skew = ad_skew_check(L, g, X)
    nabla = geom.drift_parallel(X)
    admissible = bool(in_space and skew.ok and nabla.ok and g.norm(X) > 0)
    return ObstructionReport(
        perfect=derived.shape[0] == L.dim,
        parallel_space=space,
        in_parallel_space=in_space,
        ad_skew_ok=skew.ok,
        ad_skew_defect=skew.max_defect,
        nabla_X_norm=nabla.max_defect,
        berwald_admissible=admissible,
    )


def sectional_along_X_sign(
    geom: HomogeneousGeometry,
    X: np.ndarray,
    n_samples: int = 1000,
    seed: int = 0,
) -> SectionalSignReport:
    """Sample K(X, u) for u on the g-unit sphere orthogonal to X.

    For an admissible X all samples must be >= 0; zeros occur exactly for
    u g-orthogonal to the image [X, g].  Constructed orthogonal witnesses
    are returned alongside the sampled minimum.  With dim < 2 no 2-plane
    contains X, so there is no sample (FlagError).
    """
    L, g, X = _group(geom, X)
    if L.dim < 2:
        raise FlagError("flags need m_dim >= 2")
    if n_samples < 1:
        raise InputError("n_samples must be positive")
    if 8 * n_samples * L.dim > np.iinfo(np.intp).max:  # numpy refuses the draws
        raise InputError(f"n_samples = {n_samples} is too large to allocate")
    if g.norm(X) == 0.0:
        raise InputError("X must be nonzero")
    Xu = X / g.norm(X)
    # one row of n normals per sample, drawn as a per-sample loop would
    draws = np.random.default_rng(seed).standard_normal((n_samples, L.dim))
    u = _unit_orthogonal(g, Xu, draws)
    # witnesses orthogonal to the image [X, g]: K must vanish there
    w = _unit_orthogonal(g, Xu, _null_rows(L.ad(X) @ g.g))  # L.ad(X) has rows [X, e_j]
    ks, kw = np.split(sectional(L, g, geom.connection, X, np.vstack([u, w])), [len(u)])
    return SectionalSignReport(
        min_K=float(ks.min()),
        max_K=float(ks.max()),
        n_samples=n_samples,
        witnesses=tuple(zip(w, map(float, kw))),
    )
