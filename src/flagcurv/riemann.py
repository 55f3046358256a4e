"""Riemannian curvature of an invariant metric on G/H, from Lie-algebra data.

One route covers every isotropy: the Nomizu map Lambda_x y = nabla_x y of
the Levi-Civita connection on m (Kobayashi-Nomizu, Foundations II, ch. X;
Besse, Einstein Manifolds, 7.28-7.30), which is the Koszul formula on
[., .]_m, with the curvature R(u,v)w = Lambda_u Lambda_v w
- Lambda_v Lambda_u w - Lambda_[u,v]_m w - [[u,v]_h, w].  With trivial
isotropy it is the Koszul connection of the left-invariant metric.  The
naturally reductive formula R(U,Y)Y = 1/4 [Y,[U,Y]_m]_m + [Y,[U,Y]_h] is
kept as a second, closed-form route.

Sign convention: R(U,V)W = nabla_U nabla_V W - nabla_V nabla_U W
- nabla_[U,V] W, under which the bi-invariant su(2) metric has positive
sectional curvature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebraSpec, check_reductive, reductive_split
from .errors import FlagError, InputError
from .metrics import (TOL_DEP, InnerProduct, _h_dim_of, _scaled_rows, check_naturally_reductive,
                      require)

NOT_NATURALLY_REDUCTIVE = "metric is not naturally reductive"


@dataclass(frozen=True, eq=False)
class ConnectionTable:
    """gamma[i, j, :] = nabla_{e_i} e_j, the Nomizu map in the basis of m."""

    gamma: np.ndarray

    def nabla(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """nabla_x y for vectors or (N, m) row stacks, row by row."""
        return np.einsum("...i,...j,ijk->...k", x, y, self.gamma)


def koszul_connection(L: LieAlgebraSpec, g: InnerProduct) -> ConnectionTable:
    """Nomizu map of the Levi-Civita connection of an invariant metric on G/H.

    g lives on m, the last g.dim basis vectors (so h_dim = L.dim - g.dim),
    and must be ad(h)-invariant to define an invariant metric; a split that
    is not reductive is refused (PreconditionError).  Solves
    2<nabla_x y, z> = <[x,y]_m,z> - <[y,z]_m,x> + <[z,x]_m,y> over the basis
    of m; with h_dim = 0 this is the Koszul connection on the group.
    """
    h = _h_dim_of(L, g)
    require([reductive_split(check_reductive(L, h))])
    c, gm = L.c[h:, h:, h:], g.g
    # rhs[i,j,k] = <[e_i,e_j]_m,e_k> - <[e_j,e_k]_m,e_i> + <[e_k,e_i]_m,e_j>
    bg = c @ gm  # <[e_i,e_j]_m,e_k>
    rhs = bg - np.einsum("jki->ijk", bg) + np.einsum("kij->ijk", bg)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow: the oracle reads NaN
        gamma = 0.5 * (rhs @ np.linalg.inv(gm))
    gamma.setflags(write=False)
    return ConnectionTable(gamma=gamma)


def curvature_oracle(
    conn: ConnectionTable,
    L: LieAlgebraSpec,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
) -> np.ndarray:
    """R(u,v)w on m by composing the connection table on invariant fields;
    u, v and w may be vectors or (N, m) row stacks, giving R row by row."""
    h = L.dim - conn.gamma.shape[0]
    b = np.einsum("...i,...j,ijk->...k", u, v, L.c[h:, h:])  # [u, v], full coordinates
    return (
        conn.nabla(u, conn.nabla(v, w))
        - conn.nabla(v, conn.nabla(u, w))
        - conn.nabla(b[..., h:], w)
        - np.einsum("...a,...j,ajk->...k", b[..., :h], w, L.c[:h, h:, h:])  # [[u,v]_h, w]
    )


def nat_reductive_R(
    L: LieAlgebraSpec,
    h_dim: int,
    u: np.ndarray,
    y: np.ndarray,
    g: InnerProduct | None = None,
) -> np.ndarray:
    """R(U,Y)Y = 1/4 [y,[u,y]_m]_m + [y,[u,y]_h] for naturally reductive g.

    Arguments and result are in m-coordinates, h being the first h_dim basis
    vectors.  When g is supplied, a metric on m, natural reductivity is
    verified first.  The split must be reductive, so that the h-bracket
    term lands in m; this is asserted, not silently projected.
    """
    require([reductive_split(check_reductive(L, h_dim))])
    if g is not None:
        if g.dim != L.dim - h_dim:
            raise InputError(f"metric dimension {g.dim} does not match m_dim {L.dim - h_dim}")
        require([(NOT_NATURALLY_REDUCTIVE, check_naturally_reductive(L, g))])
    uf, yf = _pad_m(L.dim, h_dim, u, y)
    return _nat_reductive_RUYY(L, yf[None], uf[None], h_dim)[0]


def _pad_m(n: int, h_dim: int, *xs: np.ndarray) -> np.ndarray:
    """The m-coordinate vectors xs zero-padded to full coordinates, as the
    rows of one (len(xs), n) array; a wrong length is refused (InputError)."""
    out = np.zeros((len(xs), n))
    for row, x in zip(out, xs):
        x = np.asarray(x, dtype=float)
        if x.shape != (n - h_dim,):
            raise InputError(f"expected m-vector of length {n - h_dim}, got shape {x.shape}")
        row[h_dim:] = x
    return out


def _nat_reductive_RUYY(
    L: LieAlgebraSpec, yf: np.ndarray, uf: np.ndarray, h_dim: int
) -> np.ndarray:
    """Kernel of nat_reductive_R on a reductive split, for (N, n) stacks of y
    and u in full coordinates; the result is (N, m) in m-coordinates.  By
    linearity 1/4 [y,[u,y]_m] + [y,[u,y]_h] = [y, 1/4 [u,y]_m + [u,y]_h]."""
    b = L.brackets(uf, yf)  # [u, y]
    b[:, h_dim:] *= 0.25
    return L.brackets(yf, b)[:, h_dim:]


def sectional(
    L: LieAlgebraSpec,
    g: InnerProduct,
    conn: ConnectionTable,
    x: np.ndarray,
    u: np.ndarray,
) -> float | np.ndarray:
    """Sectional curvature <R(u,x)x, u> / (|x|^2 |u|^2 - <x,u>^2).

    u may be an (N, n) stack, giving N values: u -> R(u,x)x is linear, so
    one oracle call on the basis builds it, and one product applies it.  x
    and u are read at g-length near 1 by _scaled_rows (exact powers of two,
    which leave K as it is), and are dependent (FlagError), as in
    orthonormalize_flag, when the denominator is at most TOL_DEP |x|^2 |u|^2;
    a vector that is not finite is refused (InputError).
    """
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    us = np.atleast_2d(u)
    if x.shape != (g.dim,) or u.ndim not in (1, 2) or us.shape[1] != g.dim:
        raise InputError(f"vectors must have length {g.dim}")
    if not (np.isfinite(x).all() and np.isfinite(us).all()):
        raise InputError("vectors must be finite")
    xus = _scaled_rows(g.g, np.vstack((x, us)))[0]
    x, us = xus[0], xus[1:]
    ug, xx = us @ g.g, g.dot(x, x)
    uu = np.einsum("ij,ij->i", ug, us)
    denom = xx * uu - (ug @ x) ** 2
    if np.any(denom <= TOL_DEP * xx * uu):
        raise FlagError("sectional curvature needs linearly independent vectors")
    jacobi = curvature_oracle(conn, L, np.eye(g.dim), x, x)
    k = np.einsum("ij,ij->i", us @ jacobi, ug) / denom
    return float(k[0]) if u.ndim == 1 else k
