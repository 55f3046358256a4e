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
class CheckReport:
    ok: bool
    max_defect: float

    @classmethod
    def of(cls, defect: float) -> CheckReport:
        """The report of a check that holds within TOL_HYPOTHESIS; a NaN defect fails."""
        return cls(ok=defect <= TOL_HYPOTHESIS, max_defect=defect)


@dataclass(frozen=True, eq=False)
class LieAlgebraSpec:
    """Structure-constants description of a Lie algebra.

    A tensor antisymmetric in its first two indices is stored as given;
    any other is antisymmetrized, with a warning.  The antisymmetrization
    takes the difference of halves, so finite constants stay finite.
    """

    dim: int
    c: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise InputError(f"dimension must be positive, got {self.dim}")
        c = np.array(self.c, dtype=float)
        if c.shape != (self.dim, self.dim, self.dim):
            raise InputError(
                f"structure tensor shape {c.shape} does not match dim {self.dim}"
            )
        if not np.all(np.isfinite(c)):
            raise InputError("structure constants must be finite")
        swapped = np.swapaxes(c, 0, 1)
        if not np.array_equal(c, -swapped):
            warnings.warn(
                "structure constants were not antisymmetric in (i, j); "
                "storing the antisymmetrization",
                stacklevel=2,
            )
            c = 0.5 * c - 0.5 * swapped
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    def ad(self, x: np.ndarray) -> np.ndarray:
        """ad_x acting on row vectors, v @ ad(x) = [x, v], as one product with
        c viewed as an (n, n*n) matrix."""
        n = self.dim
        return (x @ self.c.reshape(n, n * n)).reshape(n, n)

    @cached_property
    def _bracket_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(I, J, c[I, J]) over the pairs i < j with [e_i, e_j] != 0, in
        row-major order."""
        I, J = np.nonzero(np.any(self.c, axis=2))
        upper = I < J
        I, J = I[upper], J[upper]
        return I, J, self.c[I, J]

    def brackets(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """[a_k, b_k] for each row k of two (N, n) stacks, as one product
        (a_I b_J - a_J b_I) @ c[I, J] over the nonzero pairs i < j of c; no
        ad stack or outer product is formed."""
        I, J, c_IJ = self._bracket_table
        ab = a[:, I] * b[:, J]
        ab -= a[:, J] * b[:, I]
        return ab @ c_IJ


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
    (m, m, m) tensor, via SVD rank reveal relative to the largest singular value."""
    m = c.shape[-1]
    rows = c.reshape(m * m, m)
    if not np.any(rows):
        return np.zeros((0, m))
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    rank = int(np.sum(s > TOL_RANK * s[0]))
    return vt[:rank]


def check_reductive(L: LieAlgebraSpec, h_dim: int) -> tuple[CheckReport, CheckReport]:
    """The rows (reductive_subalgebra, reductive_ad_invariance): max |[h, h]_m|
    and max |[h, m]_h|, for h the first h_dim basis vectors."""
    if not 0 <= h_dim <= L.dim:
        raise InputError(f"h_dim must lie in [0, {L.dim}], got {h_dim}")
    h = h_dim
    return (CheckReport.of(float(np.abs(L.c[:h, :h, h:]).max(initial=0.0))),
            CheckReport.of(float(np.abs(L.c[:h, h:, :h]).max(initial=0.0))))


def reductive_split(rows: tuple[CheckReport, CheckReport]) -> tuple[str, CheckReport]:
    """The split's (words of refusal, CheckReport) from check_reductive's two
    rows: it holds when both do, and carries the larger defect."""
    return ("the split is not reductive: [h, m] has an h-component or [h, h] an m-component",
            CheckReport.of(max(row.max_defect for row in rows)))
