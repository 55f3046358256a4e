import numpy as np
import pytest

from flagcurv import LieAlgebraSpec


def su2_tensor():
    c = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    return c


def heisenberg_tensor(k=1):
    """h_{2k+1}: [x_i, y_i] = z in the basis (x_1..x_k, y_1..y_k, z)."""
    n = 2 * k + 1
    c = np.zeros((n, n, n))
    for i in range(k):
        c[i, k + i, n - 1] = 1.0
        c[k + i, i, n - 1] = -1.0
    return c


def so_tensor(n):
    """so(n) in the basis E_ab = e_a e_b^T - e_b e_a^T, a < b in row order."""
    a, b = np.triu_indices(n, 1)
    E = np.zeros((len(a), n, n))
    E[np.arange(len(a)), a, b] = 1.0
    E[np.arange(len(a)), b, a] = -1.0
    comm = np.einsum("iab,jbc->ijac", E, E) - np.einsum("jab,ibc->ijac", E, E)
    return comm[:, :, a, b]  # a commutator's E_ab coordinate is its (a, b) entry


def sphere_tensor(n):
    """so(n+1) + R adapted to S^n x R = (SO(n+1) x R)/SO(n): so(n) first."""
    _, b = np.triu_indices(n + 1, 1)
    order = np.argsort(b == n, kind="stable")
    c = so_tensor(n + 1)[np.ix_(order, order, order)]
    return direct_sum(c, np.zeros((1, 1, 1)))


def direct_sum(*tensors):
    n = sum(t.shape[0] for t in tensors)
    out = np.zeros((n, n, n))
    o = 0
    for t in tensors:
        d = t.shape[0]
        out[o:o + d, o:o + d, o:o + d] = t
        o += d
    return out


def change_basis(c, T):
    """Structure tensor in the basis f_a = sum_i T[a, i] e_i."""
    # [f_a, f_b] in old coordinates, then re-express in the f-basis.
    old = np.einsum("ai,bj,ijk->abk", T, T, c)
    return np.einsum("abk,kc->abc", old, np.linalg.inv(T))


@pytest.fixture
def su2():
    return LieAlgebraSpec(3, su2_tensor())


@pytest.fixture
def heisenberg():
    return LieAlgebraSpec(3, heisenberg_tensor())


@pytest.fixture
def abelian3():
    return LieAlgebraSpec(3, np.zeros((3, 3, 3)))


@pytest.fixture
def su2_plus_r():
    c = np.zeros((4, 4, 4))
    c[:3, :3, :3] = su2_tensor()
    return LieAlgebraSpec(4, c)


@pytest.fixture
def su2_u1():
    """su(2) in the adapted basis (e3, e1, e2): h = span of the first vector."""
    c = np.zeros((3, 3, 3))
    for i, j, k, v in [(1, 2, 0, 1.0), (0, 1, 2, 1.0), (0, 2, 1, -1.0)]:
        c[i, j, k] = v
        c[j, i, k] = -v
    return LieAlgebraSpec(3, c)


@pytest.fixture
def su2_double():
    c = np.zeros((6, 6, 6))
    c[:3, :3, :3] = su2_tensor()
    c[3:, 3:, 3:] = su2_tensor()
    return LieAlgebraSpec(6, c)
