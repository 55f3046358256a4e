import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagcurv import (
    BiInvariantForm,
    FlagError,
    InnerProduct,
    InputError,
    LieAlgebraSpec,
    MetricEndomorphism,
    ReductivePair,
    ValidationError,
    check_ad_h_invariance,
    check_bi_invariance,
    check_naturally_reductive,
    inner_from_phi,
    make_geometry,
    orthonormalize_flag,
)
from flagcurv.metrics import _skew_check
from test_algebra import structure_tensors


def make_metric(g0, phi, h_dim=0):
    form = BiInvariantForm(np.asarray(g0, dtype=float))
    endo = MetricEndomorphism(phi=np.asarray(phi, dtype=float), g0=form, h_dim=h_dim)
    return inner_from_phi(form, endo)


class TestInnerFromPhi:
    def test_identity(self):
        g = make_metric(np.eye(3), np.eye(3))
        assert np.allclose(g.g, np.eye(3))

    def test_diagonal_phi(self):
        g = make_metric(np.eye(2), np.diag([1.0, 4.0]))
        assert np.allclose(g.g, np.diag([1.0, 4.0]))

    def test_scaled_g0(self):
        g = make_metric(2 * np.eye(3), np.eye(3))
        assert np.allclose(g.g, 2 * np.eye(3))

    def test_non_self_adjoint_phi_rejected(self):
        form = BiInvariantForm(np.eye(2))
        with pytest.raises(ValidationError):
            MetricEndomorphism(phi=np.array([[1.0, 1.0], [0.0, 1.0]]),
                               g0=form, h_dim=0)

    def test_non_positive_phi_rejected(self):
        form = BiInvariantForm(np.eye(2))
        with pytest.raises(ValidationError):
            MetricEndomorphism(phi=np.diag([1.0, -2.0]), g0=form, h_dim=0)

    @pytest.mark.parametrize("name", ["phi_inv", "phi_full", "phi_inv_full"])
    def test_derived_matrices_are_not_arguments(self, name):
        form = BiInvariantForm(np.eye(2))
        with pytest.raises(TypeError):
            MetricEndomorphism(phi=np.eye(2), g0=form, h_dim=0, **{name: np.eye(2)})

    def test_spd_output_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = rng.integers(2, 6)
            A = rng.normal(size=(n, n))
            g0 = A @ A.T + n * np.eye(n)
            g0 = 0.5 * (g0 + g0.T)
            B = rng.normal(size=(n, n))
            s = B @ B.T + n * np.eye(n)
            # phi self-adjoint w.r.t. g0: phi = g0^{-1} s with s symmetric SPD
            phi = np.linalg.solve(g0, 0.5 * (s + s.T))
            g = make_metric(g0, phi)
            assert np.allclose(g.g, g.g.T)
            assert np.linalg.eigvalsh(g.g)[0] > 0


class TestBiInvariance:
    def test_su2_identity(self, su2):
        assert check_bi_invariance(su2, np.eye(3)).ok

    def test_su2_stretched(self, su2):
        rep = check_bi_invariance(su2, np.diag([1.0, 1.0, 4.0]))
        assert not rep.ok
        assert rep.max_defect == pytest.approx(3.0)

    def test_abelian_any_form(self, abelian3):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(3, 3))
        assert check_bi_invariance(abelian3, A @ A.T + np.eye(3)).ok

    def test_identity_form_iff_totally_antisymmetric(self, heisenberg):
        # heisenberg's tensor with indices lowered by I is not totally
        # antisymmetric, so g0 = I cannot be bi-invariant
        assert not check_bi_invariance(heisenberg, np.eye(3)).ok

    def test_nonsymmetric_form_refused(self, su2):
        # the skew check reads <x,[z,y]>_0 off <[z,y],x>_0, so g0 = g0^T
        g0 = np.eye(3)
        g0[0, 1] = 0.5
        with pytest.raises(InputError, match="symmetric"):
            check_bi_invariance(su2, g0)


class TestAdHInvariance:
    def test_su2_u1_round(self, su2_u1):
        pair = ReductivePair(dim=3, h_dim=1)
        rep = check_ad_h_invariance(su2_u1, pair, InnerProduct(np.eye(2)))
        assert rep.ok

    def test_su2_u1_stretched(self, su2_u1):
        pair = ReductivePair(dim=3, h_dim=1)
        rep = check_ad_h_invariance(su2_u1, pair, InnerProduct(np.diag([1.0, 4.0])))
        assert not rep.ok
        assert rep.max_defect == pytest.approx(3.0)

    def test_trivial_h_vacuous(self, su2):
        pair = ReductivePair(dim=3, h_dim=0)
        rep = check_ad_h_invariance(su2, pair, InnerProduct(np.diag([1.0, 2.0, 3.0])))
        assert rep.ok
        assert rep.max_defect == 0.0


class TestNaturallyReductive:
    def test_su2_biinvariant(self, su2):
        pair = ReductivePair(dim=3, h_dim=0)
        assert check_naturally_reductive(su2, pair, InnerProduct(np.eye(3))).ok

    def test_su2_u1(self, su2_u1):
        pair = ReductivePair(dim=3, h_dim=1)
        assert check_naturally_reductive(su2_u1, pair, InnerProduct(np.eye(2))).ok

    def test_su2_stretched_fails(self, su2):
        pair = ReductivePair(dim=3, h_dim=0)
        rep = check_naturally_reductive(
            su2, pair, InnerProduct(np.diag([1.0, 1.0, 4.0]))
        )
        assert not rep.ok
        assert rep.max_defect == pytest.approx(3.0)


class TestOrthonormalizeFlag:
    def test_already_orthonormal(self):
        g = InnerProduct(np.eye(3))
        flag = orthonormalize_flag(g, np.eye(3)[0], np.eye(3)[1])
        assert np.allclose(flag.Y, np.eye(3)[0])
        assert np.allclose(flag.U, np.eye(3)[1])

    def test_gram_schmidt_by_hand(self):
        g = InnerProduct(np.eye(2))
        flag = orthonormalize_flag(g, np.array([2.0, 0.0]), np.array([1.0, 1.0]))
        assert np.allclose(flag.Y, [1.0, 0.0])
        assert np.allclose(flag.U, [0.0, 1.0])

    def test_non_euclidean_norm(self):
        g = InnerProduct(np.diag([1.0, 4.0]))
        flag = orthonormalize_flag(g, np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert np.allclose(flag.Y, [0.0, 0.5])

    def test_degenerate_flag_raises(self):
        g = InnerProduct(np.eye(3))
        with pytest.raises(FlagError):
            orthonormalize_flag(g, np.eye(3)[0], 2.0 * np.eye(3)[0])

    def test_projection_property_random(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = rng.integers(2, 6)
            A = rng.normal(size=(n, n))
            g = InnerProduct(A @ A.T + n * np.eye(n))
            flag = orthonormalize_flag(g, rng.normal(size=n), rng.normal(size=n))
            again = orthonormalize_flag(g, flag.Y, flag.U)
            assert np.allclose(again.Y, flag.Y, atol=1e-12)
            assert np.allclose(again.U, flag.U, atol=1e-12)
            assert g.dot(flag.Y, flag.Y) == pytest.approx(1.0, abs=1e-12)
            assert g.dot(flag.U, flag.U) == pytest.approx(1.0, abs=1e-12)
            assert g.dot(flag.Y, flag.U) == pytest.approx(0.0, abs=1e-12)


def test_g0_must_be_symmetric():
    with pytest.raises(ValidationError):
        BiInvariantForm(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_g0_must_be_positive_definite():
    with pytest.raises(ValidationError):
        BiInvariantForm(np.diag([1.0, -1.0]))


NON_FINITE = pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
ABELIAN3 = LieAlgebraSpec(3, np.zeros((3, 3, 3)))


@NON_FINITE
def test_g0_must_be_finite(bad):
    for build in (lambda: BiInvariantForm(np.diag([bad, 1.0, 1.0])),
                  lambda: make_geometry(ABELIAN3, g0=np.diag([bad, 1.0, 1.0]))):
        with pytest.raises(InputError, match="^g0 must be finite$"):
            build()


@NON_FINITE
def test_phi_must_be_finite(bad):
    form = BiInvariantForm(np.eye(3))
    for build in (lambda: MetricEndomorphism(phi=np.diag([bad, 1.0, 1.0]), g0=form, h_dim=0),
                  lambda: make_geometry(ABELIAN3, phi=np.diag([bad, 1.0, 1.0]))):
        with pytest.raises(InputError, match="^phi must be finite$"):
            build()


@NON_FINITE
def test_metric_must_be_finite(bad):
    with pytest.raises(InputError, match="^metric must be finite$"):
        InnerProduct(np.diag([bad, 1.0]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("y, u", [
    ([np.nan, 0.0], [0.0, 1.0]),
    ([1.0, 0.0], [0.0, -np.inf]),
    ([1e200, 0.0], [0.0, 1.0]),  # finite, but its g-length overflows
])
def test_flag_vectors_must_be_finite(y, u):
    with pytest.raises(InputError, match="^flag vectors must be finite"):
        orthonormalize_flag(InnerProduct(np.eye(2)), np.array(y), np.array(u))


def skew_check_reference(c, g):
    """max |<[z,x],y> + <x,[z,y]>| as two einsum contractions."""
    d = np.einsum("zxa,ay->zxy", c, g) + np.einsum("zya,xa->zxy", c, g)
    return float(np.max(np.abs(d))) if d.size else 0.0


@settings(max_examples=40, deadline=None)
@given(structure_tensors(), st.integers(0, 2**32 - 1))
def test_skew_check_matches_einsum_formula(case, seed):
    c, integral = case
    n = len(c)
    rng = np.random.default_rng(seed)
    if integral:
        A = rng.integers(-2, 3, size=(n, n)).astype(float)
        g = A @ A.T + np.eye(n)
    else:
        A = rng.normal(size=(n, n))
        g = A @ A.T / n + np.eye(n)
        g = 0.5 * (g + g.T)
    h = int(rng.integers(0, n))
    # the whole algebra (bi-invariance) and ad(h) on m, as the checks slice c
    for sub, gm in ((c, g), (c[:h, h:, h:], g[h:, h:])):
        got, want = _skew_check(sub, gm).max_defect, skew_check_reference(sub, gm)
        if integral:
            assert got == want
        else:
            scale = max(1.0, float(np.max(np.abs(c))) * float(np.max(np.abs(g))))
            assert abs(got - want) <= 1e-12 * scale
