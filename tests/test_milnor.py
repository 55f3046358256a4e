"""sectional, and the general K and its Levi-Civita oracle, against Milnor's
curvature of the unimodular 3-dimensional groups: su(2), sl(2,R), e(2),
e(1,1), h3 and R^3."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagcurv import FinslerData, InnerProduct, LieAlgebraSpec, koszul_connection, sectional
from flagcurv import make_geometry, orthonormalize_flag
from flagcurv.flagcurvature import _Kernel
from conftest import change_basis, direct_sum, su2_tensor
from milnor import milnor_tensor, milnor_URYY

LAMBDAS = st.tuples(*[st.floats(-3.0, 3.0)] * 3)
# which l_i vanish: none (su(2), sl(2,R)), one (e(2), e(1,1)), two (h3) or all (R^3)
ZEROS = st.tuples(*[st.booleans()] * 3)
SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=300, deadline=None)
@given(lam=LAMBDAS, zeros=ZEROS, seed=SEEDS)
def test_sectional_is_milnors(lam, zeros, seed):
    # the algebra in a basis f_a = T[a] of Milnor's frame, where g = T T^T
    lam = np.where(zeros, 0.0, lam)
    rng = np.random.default_rng(seed)
    T = 2.0 * np.eye(3) + 0.5 * rng.normal(size=(3, 3))
    L = LieAlgebraSpec(3, change_basis(milnor_tensor(lam), T))
    g = InnerProduct(T @ T.T)
    x, us = rng.normal(size=3), rng.normal(size=(4, 3))
    ks = sectional(L, g, koszul_connection(L, g), x, us)
    scale = max(1.0, float(np.max(np.abs(lam)))) ** 2
    for u, k in zip(us, ks):
        xe, ue = x @ T, u @ T
        area = (xe @ xe) * (ue @ ue) - (xe @ ue) ** 2
        assert k == pytest.approx(milnor_URYY(lam, ue, xe) / area, rel=1e-10,
                                  abs=1e-12 * scale * (xe @ xe) * (ue @ ue) / area)


@settings(max_examples=100, deadline=None)
@given(a=st.tuples(*[st.floats(0.2, 5.0)] * 3), d=st.floats(0.2, 5.0),
       x=st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True), seed=SEEDS)
def test_general_K_is_psi_times_milnor(a, d, x, seed):
    # su(2) + R with g0 = I and phi = diag(a, d): e_i / sqrt(a_i) is Milnor's
    # frame with l_i = a_i / sqrt(a1 a2 a3); X = x e4 / sqrt(d) is central and parallel
    geom = make_geometry(LieAlgebraSpec(4, direct_sum(su2_tensor(), np.zeros((1, 1, 1)))),
                         phi=np.diag([*a, d]))
    X = np.array([0.0, 0.0, 0.0, x / np.sqrt(d)])
    kernel = _Kernel(geom, FinslerData(g=geom.inner, X=X), "general", "oracle-aligned")
    rng = np.random.default_rng(seed)
    flags = [orthonormalize_flag(geom.inner, *rng.normal(size=(2, 4))) for _ in range(4)]
    Y, U = np.array([f.Y for f in flags]), np.array([f.U for f in flags])
    lam, root = np.array(a) / np.sqrt(np.prod(a)), np.sqrt(a)
    tol = 1e-12 * max(lam) ** 2
    for y, u, k, rep in zip(Y, U, kernel.K(Y, U), kernel.reports(Y, U)):
        s, t = geom.inner.dot(X, y), geom.inner.dot(X, u)
        psi = (1.0 - s**2) / ((1.0 + s) ** 4 * (2.0 * t**2 - s**2 + 1.0))
        kappa = milnor_URYY(lam, root * u[:3], root * y[:3])
        assert k == pytest.approx(psi * kappa, rel=1e-10, abs=tol * max(1.0, abs(psi)))
        assert rep.oracle_URYY == pytest.approx(kappa, rel=1e-10, abs=tol)
        assert rep.K == k and rep.sign_mismatch is False
