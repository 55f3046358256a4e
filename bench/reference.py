"""Independent curvature reference, written apart from flagcurv.riemann.

R(U,Y)Y comes from the Levi-Civita connection of a left-invariant metric in
the form nabla_x y = ([x,y] - ad_x^* y - ad_y^* x) / 2 when h = 0, and from
the naturally reductive formula 1/4 [Y,[U,Y]_m]_m + [Y,[U,Y]_h] when h > 0.
K is the paper's formula.  Everything is batched over flags with einsum.
All vectors are in m-coordinates; g0 is the identity on the full algebra.
"""

from __future__ import annotations

import numpy as np

TOL_HYP = 1e-9  # hypothesis defects, as in flagcurv's TOL_METRIC
TOL_K = 1e-9  # relative agreement of K with the reference


class Reference:
    def __init__(self, c: np.ndarray, h_dim: int, phi: np.ndarray, X: np.ndarray):
        self.c, self.h = np.asarray(c, dtype=float), h_dim
        self.g = 0.5 * (phi + phi.T)  # <x, y> = <phi x, y>_0 with g0 = I
        self.X = np.asarray(X, dtype=float)
        cm = self.c[h_dim:, h_dim:, h_dim:]
        self.nat_defect = _skew_defect(cm, self.g)
        self.g0_defect = _skew_defect(self.c, np.eye(len(self.c)))
        self.parallel_defect = self._parallel_defect()
        self.norm_X = float(np.sqrt(self.X @ self.g @ self.X))

    # -- hypotheses -------------------------------------------------------
    @property
    def drift_parallel(self) -> bool:
        return self.parallel_defect <= TOL_HYP

    @property
    def berwald_admissible(self) -> bool:
        return self.h == 0 and self.norm_X > 0 and self.drift_parallel

    def applicable(self, method: str) -> bool:
        """Whether the paper's K formula holds for this method's curvature."""
        if not self.drift_parallel:
            return False
        if method == "general":
            return self.g0_defect <= TOL_HYP
        if method == "naturally-reductive":
            return self.nat_defect <= TOL_HYP
        return self.h == 0 and self.nat_defect <= TOL_HYP  # bi-invariant g

    def _parallel_defect(self) -> float:
        if self.h == 0:
            E = np.eye(len(self.c))
            return float(np.max(np.abs(self._nabla(E, np.broadcast_to(self.X, E.shape)))))
        # h > 0: X central and g-orthogonal to [m, m]_m makes it parallel.
        Xf = np.concatenate([np.zeros(self.h), self.X])
        central = np.abs(np.einsum("i,ijk->jk", Xf, self.c)).max()
        ortho = np.abs(np.einsum("abk,kl,l->ab", self.c[self.h:, self.h:, self.h:],
                                 self.g, self.X)).max()
        return float(max(central, ortho))

    # -- curvature --------------------------------------------------------
    def _br(self, x, y):
        return np.einsum("bi,bj,ijk->bk", x, y, self.c)

    def _nabla(self, x, y):
        """Batched nabla_x y on the group (h = 0)."""
        def adj(a, v):  # ad_a^* v = g^-1 ad_a^T g v
            return np.linalg.solve(self.g, np.einsum("bi,ijk,bk->bj", a, self.c,
                                                     v @ self.g).T).T
        return 0.5 * (self._br(x, y) - adj(x, y) - adj(y, x))

    def R_UYY(self, U: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """R(U,Y)Y for batches U, Y of shape (B, m_dim)."""
        U, Y = np.atleast_2d(U), np.atleast_2d(Y)
        if self.h == 0:
            nab = self._nabla
            return nab(U, nab(Y, Y)) - nab(Y, nab(U, Y)) - nab(self._br(U, Y), Y)
        h = self.h
        pad = np.zeros((len(U), h))
        Uf, Yf = np.hstack([pad, U]), np.hstack([pad, Y])
        b = self._br(Uf, Yf)
        bm, bh = b.copy(), b.copy()
        bm[:, :h] = 0.0
        bh[:, h:] = 0.0
        term_m = self._br(Yf, bm)
        term_m[:, :h] = 0.0
        return (0.25 * term_m + self._br(Yf, bh))[:, h:]

    def orthonormalize(self, y: np.ndarray, u: np.ndarray):
        y, u = np.atleast_2d(y), np.atleast_2d(u)
        g = self.g
        Y = y / np.sqrt(np.einsum("bi,ij,bj->b", y, g, y))[:, None]
        w = u - np.einsum("bi,ij,bj->b", Y, g, u)[:, None] * Y
        return Y, w / np.sqrt(np.einsum("bi,ij,bj->b", w, g, w))[:, None]

    def K(self, y: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Flag curvature of the flags spanned by rows (y, u), flagpole y."""
        Y, U = self.orthonormalize(y, u)
        R = self.R_UYY(U, Y)
        gX = self.X @ self.g
        XY, XU, XR = Y @ gX, U @ gX, R @ gX
        UR = np.einsum("bi,ij,bj->b", U, self.g, R)
        num = 6.0 * XR * XU + UR * (1.0 - XY**2)
        return num / ((1.0 + XY) ** 4 * (2.0 * XU**2 - XY**2 + 1.0))


def _skew_defect(c: np.ndarray, g: np.ndarray) -> float:
    """max |<[z,x],y> + <x,[z,y]>| over basis triples."""
    if not c.size:
        return 0.0
    d = np.einsum("zxa,ay->zxy", c, g) + np.einsum("zya,xa->zxy", c, g)
    return float(np.max(np.abs(d)))


def k_matches(value: float, reference: float, tol: float = TOL_K) -> bool:
    return abs(value - reference) <= tol * max(1.0, abs(reference))
