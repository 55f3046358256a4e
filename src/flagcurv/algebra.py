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


@dataclass(frozen=True, eq=False)
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
        if not np.all(np.isfinite(c)):
            raise InputError("structure constants must be finite")
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

    Costs O(P n^3) flops for the P nonzero brackets [e_j, e_k], j < k, and
    O(n^3) memory: the Jacobiator is read off the bracket table, 16 pairs
    at a time, from BLAS matrix products.
    """
    # With v @ ad(x) = [x, v], row i of ad([e_j,e_k]) - [ad e_j, ad e_k] is
    # minus the cyclic sum over (e_i, e_j, e_k), which is totally
    # antisymmetric and vanishes where all three brackets of a triple do:
    # the rows of the nonzero pairs j < k cover every triple.
    n, c = L.dim, L.c
    I, J, c_IJ = L._bracket_table
    # Constants beyond about 1e154 overflow the products: the defect is NaN or
    # inf, which np.maximum keeps (max() would drop a NaN), and the check fails.
    defect = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, len(I), 16):
            rows = slice(s, s + 16)
            i, j = I[rows], J[rows]
            block = (c_IJ[rows] @ c.reshape(n, n * n)).reshape(-1, n, n)
            block -= c[j] @ c[i]
            block += c[i] @ c[j]
            defect = float(np.maximum(defect, np.max(np.abs(block, out=block))))
    return defect


def derived_subalgebra(L: LieAlgebraSpec) -> np.ndarray:
    """Orthonormal basis (rows) of span{[e_i, e_j]}, via SVD rank reveal."""
    return _bracket_span(L.c)


def _bracket_span(c: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the span of the rows c[i, j] of an
    (m, m, m) tensor, via SVD rank reveal."""
    m = c.shape[-1]
    rows = c.reshape(m * m, m)
    if not np.any(rows):
        return np.zeros((0, m))
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    rank = int(np.sum(s > TOL_RANK * max(1.0, s[0])))
    return vt[:rank]


def check_reductive(L: LieAlgebraSpec, h_dim: int) -> ReductiveReport:
    """Verify [h, h] <= h and [h, m] <= m within TOL_HYPOTHESIS, for h the
    first h_dim basis vectors."""
    if not 0 <= h_dim <= L.dim:
        raise InputError(f"h_dim must lie in [0, {L.dim}], got {h_dim}")
    h = h_dim
    # [h, h] must have no m-component; [h, m] no h-component.
    sub_defect = float(np.abs(L.c[:h, :h, h:]).max(initial=0.0))
    ad_defect = float(np.abs(L.c[:h, h:, :h]).max(initial=0.0))
    return ReductiveReport(
        subalgebra_ok=sub_defect <= TOL_HYPOTHESIS,
        ad_invariant_ok=ad_defect <= TOL_HYPOTHESIS,
        max_defect=max(sub_defect, ad_defect),
        subalgebra_defect=sub_defect,
        ad_invariant_defect=ad_defect,
    )
