"""Finite-dimensional real Lie algebras given by structure constants.

A Lie algebra is stored as a dense rank-3 tensor c with
[e_i, e_j] = sum_k c[i, j, k] e_k.  A reductive split g = h (+) m is
basis-adapted: the first ``h_dim`` basis vectors span h, the rest span m.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError

# Largest defect at which a hypothesis check holds: Jacobi identity,
# reductive split, symmetric or invariant metric, parallel drift.
TOL_HYPOTHESIS = 1e-9
TOL_RANK = 1e-10


@dataclass(frozen=True)
class LieAlgebraSpec:
    """Structure-constants description of a Lie algebra.

    The tensor is antisymmetrized in its first two indices at construction;
    if the raw input was not antisymmetric a warning is emitted.
    """

    dim: int
    c: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise InputError(f"dimension must be positive, got {self.dim}")
        c = np.asarray(self.c, dtype=float)
        if c.shape != (self.dim, self.dim, self.dim):
            raise InputError(
                f"structure tensor shape {c.shape} does not match dim {self.dim}"
            )
        anti = 0.5 * (c - np.swapaxes(c, 0, 1))
        if not np.array_equal(anti, c):
            warnings.warn(
                "structure constants were not antisymmetric in (i, j); "
                "storing the antisymmetrization",
                stacklevel=2,
            )
        anti.setflags(write=False)
        object.__setattr__(self, "c", anti)

    def ad(self, x: np.ndarray) -> np.ndarray:
        """ad_x acting on row vectors, v @ ad(x) = [x, v], as one product with
        c viewed as an (n, n*n) matrix."""
        n = self.dim
        return (x @ self.c.reshape(n, n * n)).reshape(n, n)

    @cached_property
    def _bracket_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(I, J, c[I, J]) over the pairs i < j with [e_i, e_j] != 0."""
        I, J = np.triu_indices(self.dim, 1)
        keep = np.any(self.c[I, J] != 0, axis=1)
        return I[keep], J[keep], self.c[I[keep], J[keep]]

    def brackets(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """[a_k, b_k] for each row k of two (N, n) stacks, as one product
        (a_I b_J - a_J b_I) @ c[I, J] over the nonzero pairs i < j of c; no
        ad stack or outer product is formed."""
        I, J, c_IJ = self._bracket_table
        ab = a[:, I] * b[:, J]
        ab -= a[:, J] * b[:, I]
        return ab @ c_IJ


@dataclass(frozen=True)
class ReductivePair:
    """Basis-adapted split: first h_dim vectors span h, the rest span m."""

    dim: int
    h_dim: int

    def __post_init__(self):
        if not 0 <= self.h_dim <= self.dim:
            raise InputError(
                f"h_dim must lie in [0, {self.dim}], got {self.h_dim}"
            )

    @property
    def m_dim(self) -> int:
        return self.dim - self.h_dim

    def embed_m(self, x_m: np.ndarray) -> np.ndarray:
        """Zero-pad an m-coordinate vector to full algebra coordinates."""
        x_m = np.asarray(x_m, dtype=float)
        if x_m.shape != (self.m_dim,):
            raise InputError(
                f"expected m-vector of length {self.m_dim}, got shape {x_m.shape}"
            )
        out = np.zeros(self.dim)
        out[self.h_dim:] = x_m
        return out


@dataclass(frozen=True)
class ReductiveReport:
    subalgebra_ok: bool
    ad_invariant_ok: bool
    max_defect: float
    subalgebra_defect: float  # max |[h, h]_m|
    ad_invariant_defect: float  # max |[h, m]_h|


def bracket(L: LieAlgebraSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] in basis coordinates."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (L.dim,) or y.shape != (L.dim,):
        raise InputError(
            f"bracket arguments must have length {L.dim}, "
            f"got {x.shape} and {y.shape}"
        )
    return L.brackets(x[None], y[None])[0]


def jacobi_defect(L: LieAlgebraSpec) -> float:
    """Largest inf-norm of the Jacobi cyclic sum over basis triples.

    Costs O(n^5) flops and O(n^3) memory: the Jacobiator is built one
    slab J[i, j > i, :, :] at a time from three BLAS matrix products.
    """
    # c is exactly antisymmetric, so the cyclic sum equals, elementwise,
    # J[i,j,k,:] = [e_i,[e_j,e_k]] - [e_j,[e_i,e_k]] - [[e_i,e_j],e_k],
    # which is antisymmetric in (i, j) and vanishes for i = j.
    n = L.dim
    c = L.c
    c_jk_a = c.reshape(n * n, n)  # rows (j, k)
    c_jm_a = c.transpose(0, 2, 1).reshape(n * n, n)  # rows (j, m): c[j, a, m]
    c_a_km = c.reshape(n, n * n)  # columns (k, m)
    defect = 0.0
    for i in range(n - 1):
        rows = slice((i + 1) * n, n * n)
        slab = (c_jk_a[rows] @ c[i]).reshape(-1, n, n)  # [e_i,[e_j,e_k]]
        # [e_j,[e_i,e_k]] comes out indexed (j, m, k)
        slab -= (c_jm_a[rows] @ c[i].T).reshape(-1, n, n).transpose(0, 2, 1)
        slab -= (c[i, i + 1:] @ c_a_km).reshape(-1, n, n)  # [[e_i,e_j],e_k]
        defect = max(defect, float(np.max(np.abs(slab, out=slab))))
    return defect


def derived_subalgebra(L: LieAlgebraSpec) -> np.ndarray:
    """Orthonormal basis (rows) of span{[e_i, e_j]}, via SVD rank reveal."""
    rows = L.c.reshape(L.dim * L.dim, L.dim)
    if not np.any(rows):
        return np.zeros((0, L.dim))
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    rank = int(np.sum(s > TOL_RANK * max(1.0, s[0])))
    return vt[:rank]


def project(R: ReductivePair, x: np.ndarray, part: str) -> np.ndarray:
    """Coordinate projection onto h or m, returned in full coordinates."""
    x = np.asarray(x, dtype=float)
    if x.shape != (R.dim,):
        raise InputError(f"expected vector of length {R.dim}, got shape {x.shape}")
    out = np.zeros_like(x)
    if part == "h":
        out[: R.h_dim] = x[: R.h_dim]
    elif part == "m":
        out[R.h_dim:] = x[R.h_dim:]
    else:
        raise InputError(f"part must be 'h' or 'm', got {part!r}")
    return out


def check_reductive(L: LieAlgebraSpec, R: ReductivePair) -> ReductiveReport:
    """Verify [h, h] <= h and [h, m] <= m within TOL_HYPOTHESIS."""
    if R.dim != L.dim:
        raise InputError("reductive pair dimension does not match algebra")
    h, n = R.h_dim, L.dim
    # [h, h] must have no m-component; [h, m] no h-component.
    sub_defect = float(np.max(np.abs(L.c[:h, :h, h:]))) if h and n > h else 0.0
    ad_defect = float(np.max(np.abs(L.c[:h, h:, :h]))) if h and n > h else 0.0
    return ReductiveReport(
        subalgebra_ok=sub_defect <= TOL_HYPOTHESIS,
        ad_invariant_ok=ad_defect <= TOL_HYPOTHESIS,
        max_defect=max(sub_defect, ad_defect),
        subalgebra_defect=sub_defect,
        ad_invariant_defect=ad_defect,
    )
