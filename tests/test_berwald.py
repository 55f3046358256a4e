import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from flagcurv import (
    FlagError,
    InnerProduct,
    InputError,
    LieAlgebraSpec,
    PreconditionError,
    ad_skew_check,
    is_perfect,
    make_geometry,
    obstruction_report,
    parallel_obstruction_space,
    sectional,
    sectional_along_X_sign,
)
from conftest import direct_sum, heisenberg_tensor, sphere_tensor, su2_tensor

E3 = np.eye(3)
E4 = np.eye(4)
I3 = InnerProduct(np.eye(3))
I4 = InnerProduct(np.eye(4))


class TestPerfect:
    def test_su2(self, su2):
        assert is_perfect(su2)

    def test_heisenberg(self, heisenberg):
        assert not is_perfect(heisenberg)

    def test_abelian(self, abelian3):
        assert not is_perfect(abelian3)


class TestParallelSpace:
    def test_su2_trivial(self, su2):
        assert parallel_obstruction_space(su2, I3).shape[0] == 0

    def test_heisenberg_plane(self, heisenberg):
        space = parallel_obstruction_space(heisenberg, I3)
        assert space.shape[0] == 2
        # spans {e1, e2}: no e3 component
        assert np.max(np.abs(space[:, 2])) < 1e-12

    def test_abelian_everything(self, abelian3):
        assert parallel_obstruction_space(abelian3, I3).shape[0] == 3

    def test_g_orthonormal_and_bracket_orthogonal(self, heisenberg, su2_plus_r):
        rng = np.random.default_rng(0)
        for L in (heisenberg, su2_plus_r):
            n = L.dim
            A = rng.normal(size=(n, n))
            g = InnerProduct(A @ A.T + n * np.eye(n))
            space = parallel_obstruction_space(L, g)
            gram = space @ g.g @ space.T
            assert np.allclose(gram, np.eye(space.shape[0]), atol=1e-10)
            if space.size:
                for i in range(n):
                    for j in range(n):
                        assert np.max(np.abs(space @ g.g @ L.c[i, j])) < 1e-10

    def test_su2_trivial_at_a_metric_of_wide_range(self, su2):
        # the singular values of [g, g] @ g span 1e200 to 1e-200: none is zero
        g = InnerProduct(np.diag([1e200, 1e-200, 1.0]))
        assert parallel_obstruction_space(su2, g).shape == (0, 3)

    def test_perfect_implies_trivial_space(self, su2, su2_double):
        rng = np.random.default_rng(1)
        for L in (su2, su2_double):
            n = L.dim
            A = rng.normal(size=(n, n))
            g = InnerProduct(A @ A.T + n * np.eye(n))
            assert parallel_obstruction_space(L, g).shape[0] == 0


class TestAdSkew:
    def test_central_drift(self, su2_plus_r):
        rep = ad_skew_check(su2_plus_r, I4, 0.5 * E4[3])
        assert rep.ok
        assert rep.max_defect == 0.0

    def test_heisenberg_fails(self, heisenberg):
        rep = ad_skew_check(heisenberg, I3, E3[0])
        assert not rep.ok
        assert rep.max_defect == pytest.approx(1.0)

    def test_biinvariant_every_ad_skew(self, su2):
        rng = np.random.default_rng(2)
        for _ in range(5):
            assert ad_skew_check(su2, I3, rng.normal(size=3)).ok


class TestObstructionReport:
    def test_su2_rejects_any_drift(self, su2):
        rep = obstruction_report(make_geometry(su2), 0.3 * E3[2])
        assert rep.perfect
        assert rep.parallel_space.shape[0] == 0
        assert not rep.in_parallel_space
        assert rep.ad_skew_ok  # bi-invariant metric, but still inadmissible
        assert not rep.berwald_admissible

    def test_heisenberg_rejects_despite_parallel_space(self, heisenberg):
        rep = obstruction_report(make_geometry(heisenberg), 0.4 * E3[0])
        assert not rep.perfect
        assert rep.parallel_space.shape[0] == 2
        assert rep.in_parallel_space
        assert not rep.ad_skew_ok
        assert not rep.berwald_admissible

    def test_central_drift_admissible(self, su2_plus_r):
        rep = obstruction_report(make_geometry(su2_plus_r), 0.5 * E4[3])
        assert rep.berwald_admissible
        assert rep.nabla_X_norm <= 1e-10

    def test_zero_drift_not_admissible(self, su2_plus_r):
        rep = obstruction_report(make_geometry(su2_plus_r), np.zeros(4))
        assert not rep.berwald_admissible

    def test_nabla_norm_is_the_geometry_drift_report(self, su2, heisenberg, su2_plus_r):
        phi = np.diag([1.0, 2.0, 3.0, 0.5])
        for geom, X in ((make_geometry(su2), 0.3 * E3[2]),
                        (make_geometry(heisenberg), 0.4 * E3[0]),
                        (make_geometry(su2_plus_r, phi=phi), 0.5 * E4[3]),
                        (make_geometry(su2_plus_r, phi=phi), 0.2 * E4[0])):
            rep = obstruction_report(geom, X)
            assert geom.drift_parallel(X).max_defect == rep.nabla_X_norm


    @pytest.mark.parametrize("length", [3, 5])
    def test_drift_of_the_wrong_length_refused(self, su2_plus_r, length):
        with pytest.raises(InputError, match="^drift vector must have length m = 4$"):
            make_geometry(su2_plus_r).drift_parallel(np.zeros(length))


class TestSectionalAlongX:
    def test_central_drift_all_zero(self, su2_plus_r):
        rep = sectional_along_X_sign(make_geometry(su2_plus_r), 0.5 * E4[3],
                                     n_samples=1000, seed=0)
        assert abs(rep.min_K) <= 1e-10
        for _, k in rep.witnesses:
            assert abs(k) <= 1e-10

    def test_abelian_flat(self):
        import flagcurv

        L = flagcurv.LieAlgebraSpec(4, np.zeros((4, 4, 4)))
        rep = sectional_along_X_sign(make_geometry(L), E4[0], n_samples=100, seed=1)
        assert abs(rep.min_K) <= 1e-12

    def test_nonnegative_for_admissible(self, su2_plus_r):
        rng = np.random.default_rng(3)
        # admissible drifts are multiples of e4; sampled K must be >= 0
        for _ in range(3):
            X = rng.uniform(0.1, 0.9) * E4[3]
            rep = sectional_along_X_sign(make_geometry(su2_plus_r), X,
                                         n_samples=300, seed=5)
            assert rep.min_K >= -1e-10

    def test_samples_match_a_per_sample_sectional_loop(self, su2_plus_r):
        geom = make_geometry(su2_plus_r, phi=np.diag([1.0, 2.0, 3.0, 1.0]))
        X = np.array([0.3, 0.2, 0.1, 0.4])
        assert not geom.drift_parallel(X).ok
        rep = sectional_along_X_sign(geom, X, n_samples=300, seed=7)
        # the reference: one draw and one sectional call per sample
        g, rng = geom.inner, np.random.default_rng(7)
        Xu = X / g.norm(X)
        ks = []
        for _ in range(300):
            u = rng.standard_normal(4)
            u = u - g.dot(Xu, u) * Xu
            ks.append(sectional(su2_plus_r, g, geom.connection, X, u / g.norm(u)))
        assert min(ks) < 0 < max(ks)
        assert abs(rep.min_K - min(ks)) <= 1e-12
        assert abs(rep.max_K - max(ks)) <= 1e-12

    def test_zero_drift_rejected(self, su2_plus_r):
        with pytest.raises(InputError):
            sectional_along_X_sign(make_geometry(su2_plus_r), np.zeros(4))

    def test_fewer_than_two_dimensions_rejected(self):
        # no 2-plane contains X, so there is no sample to report a range over
        geom = make_geometry(LieAlgebraSpec(1, np.zeros((1, 1, 1))))
        with pytest.raises(FlagError, match="flags need m_dim >= 2"):
            sectional_along_X_sign(geom, np.array([0.2]))

    def test_no_samples_rejected(self, su2_plus_r):
        geom = make_geometry(su2_plus_r)
        for n_samples, seed, words in (
            (0, 0, "n_samples must be a positive integer"),
            (2.5, 0, "n_samples must be a positive integer"),
            (True, 0, "n_samples must be a positive integer"),
            (5, -1, "seed must be a non-negative integer"),
            (5, 1.5, "seed must be a non-negative integer"),
            (5, True, "seed must be a non-negative integer"),
        ):
            with pytest.raises(InputError, match=f"^{words}$"):
                sectional_along_X_sign(geom, 0.5 * E4[3], n_samples=n_samples, seed=seed)
        # numpy integers are integers
        got = sectional_along_X_sign(geom, 0.5 * E4[3], n_samples=np.int64(7), seed=np.uint8(3))
        want = sectional_along_X_sign(geom, 0.5 * E4[3], n_samples=7, seed=3)
        assert (got.min_K, got.max_K) == (want.min_K, want.max_K)


def e2_plus_su2():
    """e(2) + su(2) in the basis (f1 | r, t1, t2, f2, f3), h = u(1) = span(f1):
    [r, t1] = t2, [r, t2] = -t1 and [f1, f2] = f3 cyclically."""
    c = np.zeros((6, 6, 6))
    for i, j, k, v in [(1, 2, 3, 1.0), (1, 3, 2, -1.0),
                       (0, 4, 5, 1.0), (4, 5, 0, 1.0), (5, 0, 4, 1.0)]:
        c[i, j, k], c[j, i, k] = v, -v
    return LieAlgebraSpec(6, c)


class TestHomogeneousSpace:
    """The verdict is drift_parallel at every isotropy."""

    def test_e2_times_s2_rotation_is_parallel(self):
        # E(2) x S^2 with g0 = I: ad_m(r) rotates (t1, t2), so it is g-skew, and
        # r is g-orthogonal to [m, m]_m = span(t1, t2) and fixed by h, so X = r/2
        # is parallel although r is not central
        geom = make_geometry(e2_plus_su2(), h_dim=1)
        X = 0.5 * np.eye(5)[0]
        rep = obstruction_report(geom, X)
        assert (rep.perfect, rep.in_parallel_space, rep.ad_skew_ok) == (False, True, True)
        assert (rep.berwald_admissible, rep.nabla_X_norm) == (True, 0.0)
        sect = sectional_along_X_sign(geom, X, n_samples=200, seed=0)
        assert max(abs(sect.min_K), abs(sect.max_K)) <= 1e-12
        assert all(abs(k) <= 1e-12 for _, k in sect.witnesses)

    def test_s2_drift_is_moved_by_the_isotropy(self, su2_u1):
        # SU(2)/U(1): [m, m]_m = 0 and ad_m(X) = 0 for every X in m, but
        # [h, X] != 0, so no X is parallel; su(2) is perfect
        geom = make_geometry(su2_u1, h_dim=1)
        rep = obstruction_report(geom, np.array([0.0, 0.5]))
        assert rep.parallel_space.shape[0] == 2
        assert (rep.in_parallel_space, rep.ad_skew_ok, rep.ad_skew_defect) == (True, True, 0.0)
        assert (rep.perfect, rep.berwald_admissible, rep.nabla_X_norm) == (True, False, 0.5)

    def test_checks_on_m_read_h_from_the_metric(self, su2_u1):
        assert parallel_obstruction_space(su2_u1, InnerProduct(np.diag([1.0, 4.0]))).shape == (2, 2)
        assert ad_skew_check(su2_u1, InnerProduct(np.eye(2)), np.array([0.0, 0.5])).ok

    @pytest.mark.parametrize("check", [obstruction_report, sectional_along_X_sign])
    def test_metric_that_is_not_ad_h_invariant_refused(self, check):
        # S^2 x R with phi coupling m's sphere part to R, as curvature refuses it
        geom = make_geometry(LieAlgebraSpec(4, sphere_tensor(2)), h_dim=1,
                             phi=[[1.0, 0.0, 0.3], [0.0, 1.0, 0.0], [0.3, 0.0, 1.0]])
        assert not geom.ad_h_invariance.ok
        with pytest.raises(PreconditionError, match="^metric is not ad\\(h\\)-invariant"):
            check(geom, 0.2 * np.eye(3)[2])

    @pytest.mark.parametrize("check", [obstruction_report, sectional_along_X_sign])
    def test_split_that_is_not_reductive_refused(self, check):
        c = np.zeros((3, 3, 3))  # h = span(e1): [e2, e3] = e1, [e3, e1] = e1
        c[1, 2, 0], c[2, 1, 0], c[2, 0, 0], c[0, 2, 0] = 1.0, -1.0, 1.0, -1.0
        with pytest.raises(PreconditionError, match="^the split is not reductive"):
            check(make_geometry(LieAlgebraSpec(3, c), h_dim=1), np.array([0.0, 0.5]))


def _families():
    """(algebra, h_dim) over su(2)^2 + R, S^n x R, Heisenberg and e(2) + su(2)."""
    su2_2r = direct_sum(su2_tensor(), su2_tensor(), np.zeros((1, 1, 1)))
    # h_3 in the basis (z, x, y): h = span(z) is central, so every metric is invariant
    heis_z = heisenberg_tensor()[np.ix_([2, 0, 1], [2, 0, 1], [2, 0, 1])]
    return [(LieAlgebraSpec(len(c), c), h) for c, h in (
        (su2_2r, 0), (su2_2r, 1), (sphere_tensor(2), 0), (sphere_tensor(2), 1),
        (sphere_tensor(3), 3), (heisenberg_tensor(), 0), (heis_z, 1),
        (e2_plus_su2().c, 0), (e2_plus_su2().c, 1),
    )]


FAMILIES = _families()


def _null_space(A):
    _, s, vt = np.linalg.svd(A)
    return vt[int(np.sum(s > 1e-10 * max(1.0, s.max(initial=0.0)))):]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(range(len(FAMILIES))), st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from(["parallel", "parallel_space", "random"]))
def test_diagnostics_together_decide_parallel(family, seed, round_phi, source):
    """in_parallel_space, ad_skew_ok and [h, X] = 0 hold together exactly when
    X is parallel, on random ad(h)-invariant phi: by the Nomizu map,
    2 <Lambda(u) X, v> = -(skew defect of ad_m(X))(u, v) + <[v, u]_m, X>."""
    L, h = FAMILIES[family]
    m, rng = L.dim - h, np.random.default_rng(seed)
    # g0 = I is ad(h)-invariant on every family, so ad_m(z) is skew for z in
    # h; a symmetric S commuting with each is invariant, as is S @ S + t I
    ad_h = L.c[:h, h:, h:]
    sym = [np.outer(a, b) + np.outer(b, a) for a, b in
           zip(*(np.eye(m)[i] for i in np.triu_indices(m)))]
    basis = _null_space(np.array([(ad_h @ E - E @ ad_h).ravel() for E in sym]).T)
    S = np.tensordot(rng.normal(size=len(basis)) @ basis, sym, 1) * (not round_phi)
    geom = make_geometry(L, h_dim=h, phi=S @ S + rng.uniform(0.2, 2.0) * np.eye(m))
    assert geom.ad_h_invariance.ok
    # X in the null space of drift_parallel's rows, in the parallel space, or anywhere
    rows = np.concatenate((geom.connection.gamma, ad_h)).transpose(1, 0, 2).reshape(m, -1)
    span = {"parallel": _null_space(rows.T), "random": np.eye(m),
            "parallel_space": parallel_obstruction_space(L, geom.inner)}[source]
    X = rng.normal(size=len(span)) @ span
    assume(geom.inner.norm(X) > 1e-6)
    X = 0.5 * X / geom.inner.norm(X)
    rep = obstruction_report(geom, X)
    hX = float(np.abs(np.einsum("zjk,j->zk", ad_h, X)).max(initial=0.0))
    resid = X - rep.parallel_space.T @ (rep.parallel_space @ geom.inner.g @ X)
    defects = (geom.inner.norm(resid), rep.ad_skew_defect, hX, rep.nabla_X_norm)
    assume(all(d <= 1e-12 or d >= 1e-6 for d in defects))
    diagnostics = rep.in_parallel_space and rep.ad_skew_ok and hX <= 1e-9
    assert diagnostics == geom.drift_parallel(X).ok == rep.berwald_admissible


@pytest.mark.parametrize("check", [obstruction_report, sectional_along_X_sign])
def test_wrong_length_drift_refused(su2, check):
    with pytest.raises(InputError, match="drift vector must have length 3"):
        check(make_geometry(su2), np.array([0.0, 0.5]))
