"""Brute-force Riemannian curvature oracles.

Two independent routes validate the closed-form curvature contractions:
the Koszul Levi-Civita connection for left-invariant metrics (trivial
isotropy), and the naturally reductive curvature formula
R(U,Y)Y = 1/4 [Y,[U,Y]_m]_m + [Y,[U,Y]_h].

Sign convention: R(U,V)W = nabla_U nabla_V W - nabla_V nabla_U W
- nabla_[U,V] W, under which the bi-invariant su(2) metric has positive
sectional curvature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebraSpec, ReductivePair, bracket
from .errors import (
    FlagError,
    InputError,
    PreconditionError,
    UnsupportedConfigurationError,
)
from .metrics import InnerProduct, check_naturally_reductive

TOL_ORACLE = 1e-10


@dataclass(frozen=True)
class ConnectionTable:
    """gamma[i, j, :] = nabla_{e_i} e_j for left-invariant frame fields."""

    gamma: np.ndarray

    def nabla(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", x, y, self.gamma)


def koszul_connection(L: LieAlgebraSpec, g: InnerProduct) -> ConnectionTable:
    """Levi-Civita connection of a left-invariant metric on the group.

    Solves 2<nabla_x y, z> = <[x,y],z> - <[y,z],x> + <[z,x],y> over the
    basis.  Only valid with trivial isotropy (metric on the full algebra).
    """
    if g.dim != L.dim:
        raise UnsupportedConfigurationError(
            "Koszul connection needs the metric on the full algebra "
            "(trivial isotropy); use nat_reductive_R for h_dim > 0"
        )
    c, gm = L.c, g.g
    # rhs[i,j,k] = <[e_i,e_j],e_k> - <[e_j,e_k],e_i> + <[e_k,e_i],e_j>
    bg = np.einsum("ija,ak->ijk", c, gm)  # <[e_i,e_j],e_k>
    rhs = bg - np.einsum("jki->ijk", bg) + np.einsum("kij->ijk", bg)
    gamma = 0.5 * np.einsum("ijk,kl->ijl", rhs, np.linalg.inv(gm))
    gamma.setflags(write=False)
    return ConnectionTable(gamma=gamma)


def curvature_oracle(
    conn: ConnectionTable,
    L: LieAlgebraSpec,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
) -> np.ndarray:
    """R(u,v)w by composing the connection table on left-invariant fields."""
    return (
        conn.nabla(u, conn.nabla(v, w))
        - conn.nabla(v, conn.nabla(u, w))
        - conn.nabla(bracket(L, u, v), w)
    )


def nat_reductive_R(
    L: LieAlgebraSpec,
    R: ReductivePair,
    u: np.ndarray,
    y: np.ndarray,
    g: InnerProduct | None = None,
) -> np.ndarray:
    """R(U,Y)Y = 1/4 [y,[u,y]_m]_m + [y,[u,y]_h] for naturally reductive g.

    Arguments and result are in m-coordinates.  When g is supplied, natural
    reductivity is verified first.  The h-bracket term must land in m (it
    does whenever [h, m] <= m); this is asserted, not silently projected.
    """
    if g is not None:
        rep = check_naturally_reductive(L, R, g)
        if not rep.ok:
            raise PreconditionError(
                f"metric is not naturally reductive (defect {rep.max_defect:g})"
            )
    uf = R.embed_m(np.asarray(u, dtype=float))
    yf = R.embed_m(np.asarray(y, dtype=float))
    return _nat_reductive_RUYY(L.ad(yf), uf, R.h_dim)


def _nat_reductive_RUYY(ad_y: np.ndarray, uf: np.ndarray, h_dim: int) -> np.ndarray:
    """Kernel of nat_reductive_R: ad_y acts on row vectors (v @ ad_y = [y, v]),
    uf is in full coordinates, the result in m-coordinates."""
    b = -(uf @ ad_y)  # [u, y]
    parts = np.zeros((2, b.shape[0]))
    parts[0, h_dim:] = b[h_dim:]
    parts[1, :h_dim] = b[:h_dim]
    term_m, term_h = parts @ ad_y  # [y, [u,y]_m], [y, [u,y]_h]
    stray = float(np.max(np.abs(term_h[:h_dim]))) if h_dim else 0.0
    if stray > TOL_ORACLE:
        raise PreconditionError(
            f"[y, [u,y]_h] has an h-component of size {stray:g}; "
            "the decomposition is not ad(h)-invariant"
        )
    return 0.25 * term_m[h_dim:] + term_h[h_dim:]


def sectional(
    L: LieAlgebraSpec,
    g: InnerProduct,
    conn: ConnectionTable,
    x: np.ndarray,
    u: np.ndarray,
) -> float:
    """Sectional curvature <R(u,x)x, u> / (|x|^2 |u|^2 - <x,u>^2)."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != (g.dim,) or u.shape != (g.dim,):
        raise InputError(f"vectors must have length {g.dim}")
    denom = g.dot(x, x) * g.dot(u, u) - g.dot(x, u) ** 2
    if denom <= TOL_ORACLE * max(1.0, g.dot(x, x) * g.dot(u, u)):
        raise FlagError("sectional curvature needs linearly independent vectors")
    r = curvature_oracle(conn, L, u, x, x)
    return g.dot(r, u) / denom
