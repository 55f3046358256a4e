import numpy as np
import pytest

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
        with pytest.raises(InputError, match="n_samples must be positive"):
            sectional_along_X_sign(make_geometry(su2_plus_r), 0.5 * E4[3], n_samples=0)


@pytest.mark.parametrize("check", [obstruction_report, sectional_along_X_sign])
def test_homogeneous_space_refused_by_name(su2, check):
    # su(2)/u(1): the drift has the right length, m_dim = 2
    with pytest.raises(PreconditionError, match=r"need h_dim = 0, got h_dim = 1"):
        check(make_geometry(su2, h_dim=1), np.array([0.0, 0.5]))


@pytest.mark.parametrize("check", [obstruction_report, sectional_along_X_sign])
def test_wrong_length_drift_refused(su2, check):
    with pytest.raises(InputError, match="drift vector must have length 3"):
        check(make_geometry(su2), np.array([0.0, 0.5]))
