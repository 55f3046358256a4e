"""Milnor's curvature of a left-invariant metric on a unimodular 3-dimensional
Lie group (J. Milnor, Curvatures of left invariant metrics on Lie groups,
1976, section 4): an oracle that shares no code with the Nomizu map or the
paper's closed form.

In a g-orthonormal frame with [e2, e3] = l1 e1, [e3, e1] = l2 e2 and
[e1, e2] = l3 e3, the Ricci form is diag(2 mu2 mu3, 2 mu1 mu3, 2 mu1 mu2)
with mu_i = (l1 + l2 + l3)/2 - l_i.  In dimension 3 the curvature is its
Ricci form: the plane with normal n has <R(u,y)y,u> = (scal/2)|n|^2 - n Ric n
for n = u x y.
"""

import numpy as np


def milnor_tensor(lam) -> np.ndarray:
    """Structure constants of Milnor's frame for l = lam, antisymmetric."""
    c = np.zeros((3, 3, 3))
    for (i, j, k), l in zip(((1, 2, 0), (2, 0, 1), (0, 1, 2)), lam):
        c[i, j, k], c[j, i, k] = l, -l
    return c


def milnor_URYY(lam, u, y) -> float:
    """<R(u,y)y,u> of the vectors u and y in Milnor's (orthonormal) frame."""
    mu = 0.5 * sum(lam) - np.asarray(lam, dtype=float)
    ric = 2.0 * np.array([mu[1] * mu[2], mu[0] * mu[2], mu[0] * mu[1]])
    n = np.cross(u, y)
    return float(0.5 * ric.sum() * (n @ n) - n @ (ric * n))
