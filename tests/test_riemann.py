import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flagcurv.riemann
from flagcurv import (
    FlagError,
    HomogeneousGeometry,
    InnerProduct,
    InputError,
    LieAlgebraSpec,
    PreconditionError,
    bracket,
    check_ad_h_invariance,
    check_naturally_reductive,
    check_reductive,
    curvature_oracle,
    koszul_connection,
    make_geometry,
    nat_reductive_R,
    orthonormalize_flag,
    puttmann_URYY,
    sectional,
)
from flagcurv.riemann import _nat_reductive_RUYY
from conftest import direct_sum, heisenberg_tensor, sphere_tensor, su2_tensor

E3 = np.eye(3)
E4 = np.eye(4)


def random_metric(rng, n):
    A = rng.normal(size=(n, n))
    return InnerProduct(A @ A.T + n * np.eye(n))


class TestKoszul:
    def test_abelian_flat(self, abelian3):
        conn = koszul_connection(abelian3, InnerProduct(np.eye(3)))
        assert np.allclose(conn.gamma, 0.0)

    def test_su2_biinvariant_half_bracket(self, su2):
        conn = koszul_connection(su2, InnerProduct(np.eye(3)))
        assert np.allclose(conn.nabla(E3[0], E3[1]), 0.5 * E3[2])
        assert np.allclose(conn.nabla(E3[0], E3[0]), 0.0)

    def test_metric_larger_than_the_algebra_refused(self, su2):
        with pytest.raises(InputError, match="^metric dimension 4 exceeds algebra dimension 3$"):
            koszul_connection(su2, InnerProduct(np.eye(4)))

    def test_h_dim_nonzero_is_the_nomizu_map(self, su2_u1):
        # su(2)/u(1) with g = I is the round sphere of curvature 1
        g = InnerProduct(np.eye(2))
        conn = koszul_connection(su2_u1, g)
        y, u = np.eye(2)
        assert sectional(su2_u1, g, conn, y, u) == pytest.approx(1.0)
        rng = np.random.default_rng(6)
        for _ in range(10):
            u, y = rng.normal(size=(2, 2))
            lhs = curvature_oracle(conn, su2_u1, u, y, y)
            rhs = nat_reductive_R(su2_u1, 1, u, y, g=g)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_metric_compatible_and_torsion_free(self, su2, heisenberg, seed):
        rng = np.random.default_rng(seed)
        for L in (su2, heisenberg):
            g = random_metric(rng, 3)
            conn = koszul_connection(L, g)
            for i in range(3):
                for j in range(3):
                    for k in range(3):
                        compat = g.dot(conn.nabla(E3[i], E3[j]), E3[k]) + g.dot(
                            E3[j], conn.nabla(E3[i], E3[k])
                        )
                        assert abs(compat) < 1e-10
                    torsion = (
                        conn.nabla(E3[i], E3[j])
                        - conn.nabla(E3[j], E3[i])
                        - bracket(L, E3[i], E3[j])
                    )
                    assert np.max(np.abs(torsion)) < 1e-10


class TestCurvatureOracle:
    def test_abelian_zero(self, abelian3):
        conn = koszul_connection(abelian3, InnerProduct(np.eye(3)))
        rng = np.random.default_rng(0)
        u, v, w = rng.normal(size=(3, 3))
        assert np.allclose(curvature_oracle(conn, abelian3, u, v, w), 0.0)

    def test_su2_round_sphere(self, su2):
        conn = koszul_connection(su2, InnerProduct(np.eye(3)))
        r = curvature_oracle(conn, su2, E3[1], E3[0], E3[0])
        assert np.allclose(r, 0.25 * E3[1])  # = 1/4 [e1, [e2, e1]]
        assert float(r @ E3[1]) == pytest.approx(0.25)

    def test_biinvariant_double_bracket_identity(self, su2, su2_double):
        # R(u,v)w = 1/4 [w, [u,v]] for bi-invariant metrics under this
        # sign convention
        rng = np.random.default_rng(1)
        for L in (su2, su2_double):
            g = InnerProduct(np.eye(L.dim))
            conn = koszul_connection(L, g)
            for _ in range(10):
                u, v, w = rng.normal(size=(3, L.dim))
                lhs = curvature_oracle(conn, L, u, v, w)
                rhs = 0.25 * bracket(L, w, bracket(L, u, v))
                assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_antisymmetry_and_bianchi(self, su2, heisenberg):
        rng = np.random.default_rng(2)
        for L in (su2, heisenberg):
            g = random_metric(rng, 3)
            conn = koszul_connection(L, g)
            for _ in range(10):
                u, v, w = rng.normal(size=(3, 3))
                r_uv = curvature_oracle(conn, L, u, v, w)
                r_vu = curvature_oracle(conn, L, v, u, w)
                assert np.max(np.abs(r_uv + r_vu)) < 1e-10
                bianchi = (
                    curvature_oracle(conn, L, u, v, w)
                    + curvature_oracle(conn, L, v, w, u)
                    + curvature_oracle(conn, L, w, u, v)
                )
                assert np.max(np.abs(bianchi)) < 1e-10

    def test_ryyy_vanishes(self, su2, heisenberg):
        # <R(u,y)y, y> = 0 for every left-invariant metric
        rng = np.random.default_rng(3)
        for L in (su2, heisenberg):
            g = random_metric(rng, 3)
            conn = koszul_connection(L, g)
            for _ in range(20):
                u, y = rng.normal(size=(2, 3))
                r = curvature_oracle(conn, L, u, y, y)
                assert abs(g.dot(r, y)) < 1e-10


class TestNatReductive:
    def test_su2_u1_sphere(self, su2_u1):
        r = nat_reductive_R(su2_u1, 1, np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert np.allclose(r, [0.0, 1.0])

    def test_matches_koszul_biinvariant(self, su2):
        g = InnerProduct(np.eye(3))
        conn = koszul_connection(su2, g)
        rng = np.random.default_rng(4)
        for _ in range(20):
            u, y = rng.normal(size=(2, 3))
            lhs = nat_reductive_R(su2, 0, u, y, g=g)
            rhs = curvature_oracle(conn, su2, u, y, y)
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_abelian_zero(self, abelian3):
        r = nat_reductive_R(abelian3, 0, E3[1], E3[0])
        assert np.allclose(r, 0.0)

    def test_not_naturally_reductive_rejected(self, su2):
        with pytest.raises(PreconditionError):
            nat_reductive_R(
                su2, 0, E3[1], E3[0], g=InnerProduct(np.diag([1.0, 1.0, 4.0]))
            )


    def test_non_reductive_split_rejected(self):
        # [e2,e3] = e1 and [e3,e1] = e1 with h = span(e1): [h, m] is not in m
        c = np.zeros((3, 3, 3))
        c[1, 2, 0], c[2, 1, 0] = 1.0, -1.0
        c[2, 0, 0], c[0, 2, 0] = 1.0, -1.0
        with pytest.raises(PreconditionError, match="h-component"):
            nat_reductive_R(LieAlgebraSpec(3, c), 1,
                            E3[1, 1:], E3[2, 1:])


@pytest.mark.parametrize("h_dim", [-1, 4])
@pytest.mark.parametrize("call", [
    lambda L, h: check_reductive(L, h),
    lambda L, h: HomogeneousGeometry(L, h, np.eye(3), np.eye(3)),
    lambda L, h: nat_reductive_R(L, h, E3[0], E3[1]),
], ids=["check_reductive", "HomogeneousGeometry", "nat_reductive_R"])
def test_h_dim_out_of_range_refused(su2, call, h_dim):
    with pytest.raises(InputError, match=rf"^h_dim must lie in \[0, 3\], got {h_dim}$"):
        call(su2, h_dim)


@pytest.mark.parametrize("check", [check_ad_h_invariance, check_naturally_reductive])
def test_metric_checks_refuse_a_metric_larger_than_the_algebra(su2, check):
    with pytest.raises(InputError, match="^metric dimension 4 exceeds algebra dimension 3$"):
        check(su2, InnerProduct(np.eye(4)))


def test_nat_reductive_R_refuses_a_metric_not_on_m(su2_u1):
    with pytest.raises(InputError, match="^metric dimension 3 does not match m_dim 2$"):
        nat_reductive_R(su2_u1, 1, E3[0, 1:], E3[1, 1:], g=InnerProduct(np.eye(3)))


@pytest.mark.parametrize("call", [
    lambda L, u: nat_reductive_R(L, 1, u, E3[1, 1:]),
    lambda L, u: puttmann_URYY(make_geometry(L, h_dim=1), E3[1, 1:], u),
], ids=["nat_reductive_R", "puttmann_URYY"])
def test_m_vector_of_the_wrong_length_refused(su2_u1, call):
    with pytest.raises(InputError, match=r"^expected m-vector of length 2, got shape \(3,\)$"):
        call(su2_u1, E3[0])


class TestSectional:
    def test_su2_round(self, su2):
        g = InnerProduct(np.eye(3))
        conn = koszul_connection(su2, g)
        assert sectional(su2, g, conn, E3[0], E3[1]) == pytest.approx(0.25)

    def test_central_direction_flat(self, su2_plus_r):
        g = InnerProduct(np.eye(4))
        conn = koszul_connection(su2_plus_r, g)
        assert sectional(su2_plus_r, g, conn, E4[3], E4[0]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_abelian_zero(self, abelian3):
        g = InnerProduct(np.eye(3))
        conn = koszul_connection(abelian3, g)
        assert sectional(abelian3, g, conn, E3[0], E3[1]) == 0.0

    def test_dependent_vectors_rejected(self, su2):
        g = InnerProduct(np.eye(3))
        conn = koszul_connection(su2, g)
        with pytest.raises(FlagError):
            sectional(su2, g, conn, E3[0], 3.0 * E3[0])

    @pytest.mark.parametrize("s", [1e-150, 1e-100, 1e-7, 1.0, 1e7, 1e100, 1e150])
    def test_the_dependence_test_does_not_depend_on_the_scale(self, su2, s):
        # K is unchanged by scaling either vector; a dependent pair is refused at any scale
        g = InnerProduct(np.eye(3))
        conn = koszul_connection(su2, g)
        assert sectional(su2, g, conn, s * E3[0], E3[1]) == pytest.approx(0.25)
        assert sectional(su2, g, conn, E3[0], s * E3[1]) == pytest.approx(0.25)
        assert sectional(su2, g, conn, E3[0], s * np.eye(3)[1:]) == pytest.approx([0.25, 0.25])
        with pytest.raises(FlagError):
            sectional(su2, g, conn, s * E3[0], E3[0])

    @pytest.mark.parametrize("x, u", [(E4[0], E3[1]), (E3[0], E4[1]),
                                      (E3[0], np.zeros((2, 2, 3)))])
    def test_vectors_of_the_wrong_length_refused(self, su2, x, u):
        g = InnerProduct(np.eye(3))
        with pytest.raises(InputError, match="^vectors must have length 3$"):
            sectional(su2, g, koszul_connection(su2, g), x, u)

    @pytest.mark.parametrize("N", [0, 2, 4, 9])
    def test_a_stack_matches_one_call_per_row(self, heisenberg, N):
        # the reference calls the oracle on each row, sectional on the basis
        rng = np.random.default_rng(N)
        g = random_metric(rng, 3)
        conn = koszul_connection(heisenberg, g)
        x, us = rng.normal(size=3), rng.normal(size=(N, 3))
        ks = sectional(heisenberg, g, conn, x, us)
        assert ks.shape == (N,)
        for u, k in zip(us, ks):
            r = curvature_oracle(conn, heisenberg, u, x, x)
            ref = g.dot(r, u) / (g.dot(x, x) * g.dot(u, u) - g.dot(x, u) ** 2)
            assert k == pytest.approx(ref, abs=1e-12)
            assert sectional(heisenberg, g, conn, x, u) == pytest.approx(k, abs=1e-12)
        with pytest.raises(FlagError):
            sectional(heisenberg, g, conn, x, np.vstack([us, 2.0 * x]))

    def test_builds_its_jacobi_operator_in_one_oracle_call(self, monkeypatch, heisenberg):
        calls = []
        oracle = flagcurv.riemann.curvature_oracle
        monkeypatch.setattr(flagcurv.riemann, "curvature_oracle",
                            lambda *args: calls.append(args) or oracle(*args))
        rng = np.random.default_rng(3)
        g = random_metric(rng, 3)
        x, us = rng.normal(size=3), rng.normal(size=(5, 3))
        sectional(heisenberg, g, koszul_connection(heisenberg, g), x, us)
        assert len(calls) == 1


# --- the Nomizu route on S^k x R (+ a group factor), h = so(k) -------------

def near(a, b, scale=None):
    """|a - b| <= 1e-12 max(1, |b|) entrywise, or 1e-12 max(1, scale)."""
    scale = np.max(np.abs(b)) if scale is None else scale
    return np.max(np.abs(a - b)) <= 1e-12 * max(1.0, scale)


@st.composite
def invariant_products(draw, block=None):
    """S^k x R x G with phi = a I_k + T, T SPD on R + g: ad(h)-invariant,
    since h = so(k) acts irreducibly on R^k and trivially on R + g.  T is
    block-diagonal (a product metric) or couples R with g."""
    k = draw(st.sampled_from([2, 3, 4, 7]))
    group = draw(st.sampled_from(["su2", "h3"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = direct_sum(sphere_tensor(k), su2_tensor() if group == "su2" else heisenberg_tensor())
    A = rng.normal(size=(4, 4))
    T = A @ A.T / 4 + 0.5 * np.eye(4)
    if draw(st.booleans()) if block is None else block:
        T[0, 1:] = T[1:, 0] = 0.0
    phi = np.zeros((k + 4, k + 4))
    phi[:k, :k] = rng.uniform(0.5, 2.0) * np.eye(k)
    phi[k:, k:] = T
    geom = make_geometry(LieAlgebraSpec(c.shape[0], c), h_dim=k * (k - 1) // 2, phi=phi)
    assert geom.ad_h_invariance.ok
    return geom, k, group, rng.normal(size=(4, k + 4))


@settings(max_examples=60, deadline=None)
@given(invariant_products())
def test_nomizu_map_is_levi_civita(problem):
    geom, _, _, (y, u, v, w) = problem
    L, g, h = geom.algebra, geom.inner, geom.h_dim
    conn = koszul_connection(L, g)
    gamma = conn.gamma  # gamma[i, j] = Lambda(e_i) e_j
    # Lambda(x) is g-skew: <Lambda(x)y, z> + <y, Lambda(x)z> = 0
    skew = np.einsum("ijk,kl->ijl", gamma, g.g)
    assert near(skew + skew.transpose(0, 2, 1), 0.0, scale=np.max(np.abs(skew)))
    # Lambda(x)y - Lambda(y)x = [x, y]_m
    assert near(gamma - gamma.transpose(1, 0, 2), L.c[h:, h:, h:])
    # <R(u,y)y, y> = 0 and the first Bianchi identity
    R = lambda a, b, d: curvature_oracle(conn, L, a, b, d)
    r = R(u, y, y)
    assert near(g.dot(r, y), 0.0, scale=np.max(np.abs(r)))
    terms = (R(u, v, w), R(v, w, u), R(w, u, v))
    assert near(sum(terms), 0.0, scale=max(np.max(np.abs(t)) for t in terms))


@settings(max_examples=60, deadline=None)
@given(invariant_products(block=True))
def test_nomizu_curvature_splits_on_a_product_metric(problem):
    geom, k, group, (y, u, _, _) = problem
    L, g, h = geom.algebra, geom.inner, geom.h_dim
    r = curvature_oracle(geom.connection, L, u, y, y)
    # the S^k x R factor by the naturally reductive formula
    c1 = sphere_tensor(k)
    L1 = LieAlgebraSpec(c1.shape[0], c1)
    pad = lambda x: np.concatenate([np.zeros(h), x[:k + 1]])
    r1 = _nat_reductive_RUYY(L1, pad(y)[None], pad(u)[None], h)[0]
    # the group factor by the h = 0 Koszul connection
    L2 = LieAlgebraSpec(3, L.c[-3:, -3:, -3:])
    g2 = InnerProduct(g.g[-3:, -3:])
    r2 = curvature_oracle(koszul_connection(L2, g2), L2, u[-3:], y[-3:], y[-3:])
    assert near(r, np.concatenate([r1, r2]))
    if group == "su2":
        # g0 = I is bi-invariant: the closed form agrees with the oracle
        flag = orthonormalize_flag(g, y, u)
        r = curvature_oracle(geom.connection, L, flag.U, flag.Y, flag.Y)
        oracle = g.dot(r, flag.U)
        assert near(puttmann_URYY(geom, flag.Y, flag.U), oracle)


@st.composite
def oracle_stacks(draw):
    """A geometry with h > 0 (as in invariant_products) or h = 0 (su(2) + h_3
    with a random left-invariant metric), and three (N, m) stacks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        geom = draw(invariant_products())[0]
    else:
        A = rng.normal(size=(6, 6))
        L = LieAlgebraSpec(6, direct_sum(su2_tensor(), heisenberg_tensor()))
        geom = make_geometry(L, phi=A @ A.T / 6 + 0.5 * np.eye(6))
    N = draw(st.integers(1, 6))
    return geom, rng.normal(size=(3, N, geom.m_dim))


@settings(max_examples=40, deadline=None)
@given(oracle_stacks())
def test_a_stacked_oracle_is_the_per_vector_oracle_row_by_row(problem):
    geom, (u, v, w) = problem
    conn, L = geom.connection, geom.algebra
    stacked = curvature_oracle(conn, L, u, v, w)
    assert stacked.shape == u.shape
    for r, a, b, d in zip(stacked, u, v, w):
        assert near(r, curvature_oracle(conn, L, a, b, d))
    # a vector broadcasts against a stack, as in sectional's Jacobi operator
    jacobi = curvature_oracle(conn, L, u, v[0], v[0])
    for r, a in zip(jacobi, u):
        assert near(r, curvature_oracle(conn, L, a, v[0], v[0]))
    assert near(conn.nabla(u, v), np.array([conn.nabla(a, b) for a, b in zip(u, v)]))


@pytest.mark.parametrize("k", [2, 4, 7])
def test_nomizu_matches_naturally_reductive_on_spheres(k):
    # S^k x R with phi = a I_k + b, as on the scan-reductive ladder
    h = k * (k - 1) // 2
    c = sphere_tensor(k)
    L = LieAlgebraSpec(c.shape[0], c)
    geom = make_geometry(L, h_dim=h, phi=np.diag([1.7] * k + [0.6]))
    rng = np.random.default_rng(k)
    for _ in range(20):
        u, y = rng.normal(size=(2, k + 1))
        r = curvature_oracle(geom.connection, L, u, y, y)
        pad = lambda x: np.concatenate([np.zeros(h), x])
        assert near(r, _nat_reductive_RUYY(L, pad(y)[None], pad(u)[None], h)[0])


def test_koszul_refuses_a_split_that_is_not_reductive():
    # h = span(e1), [e2,e3] = e1, [e3,e1] = e1: [h, m] is not in m
    c = np.zeros((3, 3, 3))
    c[1, 2, 0], c[2, 1, 0] = 1.0, -1.0
    c[2, 0, 0], c[0, 2, 0] = 1.0, -1.0
    L = LieAlgebraSpec(3, c)
    with pytest.raises(PreconditionError, match="not reductive"):
        koszul_connection(L, InnerProduct(np.eye(2)))
    with pytest.raises(PreconditionError, match="not reductive"):
        make_geometry(L, h_dim=1).connection
