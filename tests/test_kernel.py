"""The per-geometry curvature kernel against the einsum formulas it replaced.

The reference functions below are the earlier per-flag implementations,
kept verbatim in their arithmetic: Puttmann's closed forms, the naturally
reductive curvature and the Levi-Civita oracle (the Koszul formula on
[., .]_m, the Nomizu map), each bracket an einsum over the structure
constants.
"""

import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flagcurv
from flagcurv import (
    FinslerData,
    InputError,
    LieAlgebraSpec,
    PreconditionError,
    check_ad_h_invariance,
    check_bi_invariance,
    check_naturally_reductive,
    curvature_oracle,
    flag_curvature,
    flag_curvature_biinvariant,
    make_geometry,
    nat_reductive_R,
    orthonormalize_flag,
    puttmann_URYY,
    sample_flag,
    scan_flags,
)
from flagcurv.flagcurvature import _BLOCK, _Kernel, hypotheses
from flagcurv.metrics import Flag, require
from conftest import direct_sum, heisenberg_tensor, so_tensor, sphere_tensor, su2_tensor

CONVENTIONS = ("oracle-aligned", "paper-verbatim")
METHODS = ("general", "naturally-reductive", "bi-invariant")


# --- reference: the einsum formulas ---------------------------------------

def ref_bracket(c, x, y):
    return np.einsum("i,j,ijk->k", x, y, c)


def ref_project(h, x, part):
    out = np.zeros_like(x)
    if part == "h":
        out[:h] = x[:h]
    else:
        out[h:] = x[h:]
    return out


def ref_puttmann(geom, X, Y, U, convention):
    """(<X,R(U,Y)Y>, <R(U,Y)Y,U>) from the printed closed forms."""
    c, h = geom.algebra.c, geom.h_dim
    g0, G = geom.g0, geom.inner.g
    phi = geom.phi_full
    phi_inv = np.linalg.inv(phi)
    Xf, Yf, Uf = np.zeros((3, c.shape[0]))
    Xf[h:], Yf[h:], Uf[h:] = X, Y, U
    b = lambda a, d: ref_bracket(c, a, d)
    dot0 = lambda a, d: float(a @ g0 @ d)
    dot = lambda a, d: float(a[h:] @ G @ d[h:])

    t1 = 0.25 * (
        dot0(b(phi @ Uf, Yf) + b(Uf, phi @ Yf), b(Yf, Xf))
        + dot0(b(Uf, Yf), b(phi @ Yf, Xf) + b(Yf, phi @ Xf))
    )
    t2 = 0.75 * dot(ref_project(h, b(Yf, Uf), "m"), ref_project(h, b(Yf, Xf), "m"))
    t3 = 0.5 * dot0(b(Uf, phi @ Xf) + b(Xf, phi @ Uf), phi_inv @ b(Yf, phi @ Yf))
    t4 = -0.25 * dot0(
        b(Uf, phi @ Yf) + b(Yf, phi @ Uf),
        phi_inv @ (b(Yf, phi @ Xf) + b(Xf, phi @ Yf)),
    )
    xryy = t1 + t2 + t3 + t4

    t1 = 0.5 * dot0(b(phi @ Uf, Yf) + b(Uf, phi @ Yf), b(Yf, Uf))
    bm = ref_project(h, b(Yf, Uf), "m")
    t2 = 0.75 * dot(bm, bm)
    t3 = dot0(b(Uf, phi @ Uf), phi_inv @ b(Yf, phi @ Yf))
    t4 = -0.25 * dot0(
        b(Uf, phi @ Yf) + b(Yf, phi @ Uf),
        phi_inv @ (b(Yf, phi @ Uf) + b(Uf, phi @ Yf)),
    )
    uryy = t1 + t2 + t3 + t4
    sign = 1.0 if convention == "paper-verbatim" else -1.0
    return sign * xryy, sign * uryy


def ref_nat_reductive_R(c, h, u, y):
    """1/4 [y,[u,y]_m]_m + [y,[u,y]_h] in m-coordinates, or None on a stray
    h-component."""
    n = c.shape[0]
    uf, yf = np.zeros(n), np.zeros(n)
    uf[h:], yf[h:] = u, y
    b = ref_bracket(c, uf, yf)
    term_m = ref_project(h, ref_bracket(c, yf, ref_project(h, b, "m")), "m")
    term_h = ref_bracket(c, yf, ref_project(h, b, "h"))
    if h and np.max(np.abs(term_h[:h])) > 1e-10:
        return None
    return (0.25 * term_m + term_h)[h:]


def ref_nomizu_R(c, h, gm, u, y):
    """R(u,y)y from the Nomizu map: the Koszul table on [., .]_m, then
    -[[u,y]_h, y].  With h = 0 it is the Koszul connection of the group."""
    n = c.shape[0]
    cm = c[h:, h:, h:]
    bg = np.einsum("ija,ak->ijk", cm, gm)
    rhs = bg - np.einsum("jki->ijk", bg) + np.einsum("kij->ijk", bg)
    gamma = 0.5 * np.einsum("ijk,kl->ijl", rhs, np.linalg.inv(gm))
    nabla = lambda a, d: np.einsum("i,j,ijk->k", a, d, gamma)
    uf, yf = np.zeros(n), np.zeros(n)
    uf[h:], yf[h:] = u, y
    b = ref_bracket(c, uf, yf)
    bh_y = ref_bracket(c, ref_project(h, b, "h"), yf)
    return (nabla(u, nabla(y, y)) - nabla(y, nabla(u, y)) - nabla(b[h:], y)
            - bh_y[h:])


def ref_report(geom, d, flag, method, convention):
    """Everything flag_curvature reports, or PreconditionError."""
    c, h, g = geom.algebra.c, geom.h_dim, geom.inner
    X = d.X
    flag = orthonormalize_flag(g, flag.Y, flag.U)
    Y, U = flag.Y, flag.U
    nat_ok = check_naturally_reductive(geom.algebra, g).ok
    adh_ok = check_ad_h_invariance(geom.algebra, g).ok
    if method == "general":
        URYY = ref_puttmann(geom, X, Y, U, convention)[1]
    else:
        if method == "bi-invariant":
            if h or not check_bi_invariance(geom.algebra, g.g).ok:
                raise PreconditionError("not bi-invariant")
        elif not (adh_ok and nat_ok):
            raise PreconditionError("not ad(h)-invariant and naturally reductive")
        r_nat = ref_nat_reductive_R(c, h, U, Y)
        if r_nat is None:
            raise PreconditionError("stray h-component")
        URYY = g.dot(U, r_nat)
    # every method's oracle: the Levi-Civita R(U,Y)Y of an ad(h)-invariant metric
    r = ref_nomizu_R(c, h, g.g, U, Y) if adh_ok else None
    XY, XU = g.dot(X, Y), g.dot(X, U)
    numerator = URYY * (1.0 - XY**2)
    denominator = (1.0 + XY) ** 4 * (2.0 * XU**2 - XY**2 + 1.0)
    oracle = g.dot(r, U) if r is not None else None
    return {
        "K": numerator / denominator,
        "XRYY": g.dot(X, r) if r is not None else None,
        "URYY": URYY,
        "RYYY": g.dot(Y, r) if r is not None else 0.0,
        "numerator": numerator,
        "denominator": denominator,
        "oracle_URYY": oracle,
    }


def paper_numerator(geom, d, flag, method, convention):
    """The printed numerator 6 <X,R(U,Y)Y> <X,U> + <R(U,Y)Y,U> (1 - <X,Y>^2),
    with the method's own <X,R(U,Y)Y>: the closed form for general."""
    g, X = geom.inner, d.X
    flag = orthonormalize_flag(g, flag.Y, flag.U)
    if method == "general":
        XRYY, URYY = ref_puttmann(geom, X, flag.Y, flag.U, convention)
    else:
        r = ref_nat_reductive_R(geom.algebra.c, geom.h_dim, flag.U, flag.Y)
        XRYY, URYY = g.dot(X, r), g.dot(flag.U, r)
    XY, XU = g.dot(X, flag.Y), g.dot(X, flag.U)
    return 6.0 * XRYY * XU + URYY * (1.0 - XY**2)


def refused(method, convention):
    """Only the general method has a transcription for paper-verbatim to keep."""
    return convention == "paper-verbatim" and method != "general"


def close(value, ref):
    return abs(value - ref) <= 1e-12 * max(1.0, abs(ref))


# --- random problems --------------------------------------------------------

SUMMANDS = {
    "su2": su2_tensor(),
    "so3": so_tensor(3),
    "so4": so_tensor(4),
    "h3": heisenberg_tensor(1),
    "h5": heisenberg_tensor(2),
}


@st.composite
def problems(draw):
    """A geometry (optionally S^k x R first, so h = so(k)), drift and flag."""
    sphere = draw(st.sampled_from([None, 2, 3]))
    names = draw(st.lists(st.sampled_from(sorted(SUMMANDS)),
                          min_size=0 if sphere else 1, max_size=2))
    blocks = [sphere_tensor(sphere)] if sphere else []
    blocks += [SUMMANDS[name] for name in names]
    c = direct_sum(*blocks)
    h = sphere * (sphere - 1) // 2 if sphere else 0
    n = c.shape[0]
    m = n - h
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # one scale per irreducible block of m: normal homogeneous, and
        # bi-invariant on the compact summands
        sizes = ([sphere, 1] if sphere else []) + [SUMMANDS[x].shape[0] for x in names]
        phi = np.diag(np.repeat(rng.uniform(0.5, 2.0, len(sizes)), sizes))
    else:
        A = rng.normal(size=(m, m))
        S = A @ A.T / m
        phi = 0.5 * np.eye(m) + 0.5 * (S + S.T)
    geom = make_geometry(LieAlgebraSpec(n, c), h_dim=h, phi=phi)
    X = rng.normal(size=m)
    X *= draw(st.floats(0.0, 0.95)) / geom.inner.norm(X)
    flag = Flag(Y=rng.normal(size=m), U=rng.normal(size=m))
    return geom, FinslerData(g=geom.inner, X=X), flag


@settings(max_examples=80, deadline=None)
@given(problems())
def test_kernel_matches_einsum_reference(problem):
    geom, d, flag = problem
    for method in METHODS:
        for convention in CONVENTIONS:
            if refused(method, convention):
                with pytest.raises(InputError, match="general method only"):
                    flag_curvature(geom, d, flag, method=method, convention=convention)
                continue
            try:
                ref = ref_report(geom, d, flag, method, convention)
            except PreconditionError:
                with pytest.raises(PreconditionError):
                    flag_curvature(geom, d, flag, method=method, convention=convention)
                continue
            rep = flag_curvature(geom, d, flag, method=method, convention=convention)
            got = {
                "K": rep.K,
                "XRYY": rep.contractions.XRYY,
                "URYY": rep.contractions.URYY,
                "RYYY": rep.contractions.RYYY,
                "numerator": rep.numerator,
                "denominator": rep.denominator,
                "oracle_URYY": rep.oracle_URYY,
            }
            for key, value in ref.items():
                if value is None:
                    assert got[key] is None, (method, convention, key)
                else:
                    assert close(got[key], value), (method, convention, key, got[key], value)
            if geom.drift_parallel(d.X).ok:
                # the dropped term 6 <X,R(U,Y)Y> <X,U> is zero for a parallel X
                assert close(paper_numerator(geom, d, flag, method, convention),
                             rep.numerator), (method, convention)


@settings(max_examples=40, deadline=None)
@given(problems())
def test_wrappers_match_einsum_reference(problem):
    geom, d, flag = problem
    g, c, h = geom.inner, geom.algebra.c, geom.h_dim
    fl = orthonormalize_flag(g, flag.Y, flag.U)
    for convention in CONVENTIONS:
        uryy = ref_puttmann(geom, d.X, fl.Y, fl.U, convention)[1]
        assert close(puttmann_URYY(geom, fl.Y, fl.U, convention), uryy)
    r = ref_nat_reductive_R(c, h, fl.U, fl.Y)
    got = nat_reductive_R(geom.algebra, h, fl.U, fl.Y)
    assert all(close(a, b) for a, b in zip(got, r))
    if h == 0 and check_bi_invariance(geom.algebra, g.g).ok:
        rep = flag_curvature_biinvariant(geom.algebra, g, d.X, fl)
        ref = ref_report(geom, d, fl, "bi-invariant", "oracle-aligned")
        assert close(rep.K, ref["K"])
        assert close(rep.numerator, 4.0 * ref["numerator"])
        assert close(rep.denominator, 4.0 * ref["denominator"])


def test_stray_h_component_still_raises_on_general():
    # [e2,e3] = e1 and [e3,e1] = e1 with h = span(e1): [m, m] has no
    # m-component, so natural reductivity holds on m, but [h, m] is not in
    # m.  The general method's oracle must refuse, as the scalar path did.
    c = np.zeros((3, 3, 3))
    c[1, 2, 0], c[2, 1, 0] = 1.0, -1.0
    c[2, 0, 0], c[0, 2, 0] = 1.0, -1.0
    geom = make_geometry(LieAlgebraSpec(3, c), h_dim=1)
    assert geom.naturally_reductive.ok
    d = FinslerData(g=geom.inner, X=np.zeros(2))
    flag = Flag(Y=np.array([0.0, 1.0]), U=np.array([1.0, 0.0]))
    assert ref_nat_reductive_R(c, 1, flag.U, flag.Y) is None
    with pytest.raises(PreconditionError, match="h-component"):
        flag_curvature(geom, d, flag)
    with pytest.raises(PreconditionError, match="h-component"):
        scan_flags(geom, d, n_samples=5, seed=0)


def test_naturally_reductive_refuses_a_metric_that_is_not_ad_h_invariant():
    # S^2 x R with phi coupling the sphere and the line: [m, m]_m = 0, so
    # natural reductivity holds trivially, but ad(h) does not preserve g.
    phi = np.array([[1.0, 0.0, 0.3], [0.0, 1.0, 0.0], [0.3, 0.0, 1.0]])
    geom = make_geometry(LieAlgebraSpec(4, sphere_tensor(2)), h_dim=1, phi=phi)
    assert geom.naturally_reductive.ok
    assert geom.ad_h_invariance.max_defect == pytest.approx(0.3)
    d = FinslerData(g=geom.inner, X=np.zeros(3))
    flag = Flag(Y=np.eye(3)[0], U=np.eye(3)[1])
    for call in (
        lambda: flag_curvature(geom, d, flag, method="naturally-reductive"),
        lambda: scan_flags(geom, d, n_samples=5, seed=0, method="naturally-reductive"),
    ):
        with pytest.raises(PreconditionError, match=r"ad\(h\)-invariant"):
            call()
    rep = flag_curvature(geom, d, flag)
    assert rep.oracle_URYY is None and rep.sign_mismatch is None


def _not_naturally_reductive():
    # S^2 x R x SU(2) with a left-invariant, not bi-invariant, metric on SU(2)
    c = direct_sum(sphere_tensor(2), su2_tensor())
    return make_geometry(LieAlgebraSpec(7, c), h_dim=1,
                         phi=np.diag([1.5, 1.5, 0.7, 1.0, 2.0, 3.0]))


@pytest.mark.parametrize("run", ["flag_curvature", "scan_flags"])
@pytest.mark.parametrize("geom, method, text", [
    pytest.param(make_geometry(LieAlgebraSpec(3, su2_tensor()), h_dim=1), "bi-invariant",
                 "bi-invariant method needs trivial isotropy", id="isotropy"),
    pytest.param(make_geometry(LieAlgebraSpec(3, su2_tensor()), phi=np.diag([1.0, 1.0, 4.0])),
                 "bi-invariant", "metric is not bi-invariant (defect 3)", id="bi-invariant"),
    pytest.param(_not_naturally_reductive(), "naturally-reductive",
                 "metric is not naturally reductive (defect 2)", id="naturally-reductive"),
])
def test_method_refusal_texts(run, geom, method, text):
    d = FinslerData(g=geom.inner, X=np.zeros(geom.m_dim))
    flag = Flag(Y=np.eye(geom.m_dim)[0], U=np.eye(geom.m_dim)[1])
    with pytest.raises(PreconditionError, match=f"^{re.escape(text)}$"):
        if run == "flag_curvature":
            flag_curvature(geom, d, flag, method=method)
        else:
            scan_flags(geom, d, n_samples=5, seed=0, method=method)


def test_general_oracle_on_an_invariant_metric_that_is_not_naturally_reductive():
    # S^2 x R x SU(2) with a left-invariant, not bi-invariant, metric on
    # SU(2): ad(h)-invariant, not naturally reductive.  g0 = I is
    # bi-invariant, so the closed forms must agree with the oracle.
    geom = _not_naturally_reductive()
    assert geom.ad_h_invariance.ok and not geom.naturally_reductive.ok
    d = FinslerData(g=geom.inner, X=np.zeros(6))
    rng = np.random.default_rng(3)
    for _ in range(20):
        rep = flag_curvature(geom, d, sample_flag(geom.inner, rng))
        assert rep.oracle_URYY is not None
        assert abs(rep.contractions.RYYY) <= 1e-12
        assert rep.sign_mismatch is False


# --- scan_flags --------------------------------------------------------------

def _scan_cases():
    su2_r = make_geometry(LieAlgebraSpec(4, direct_sum(su2_tensor(), np.zeros((1, 1, 1)))))
    heis = make_geometry(LieAlgebraSpec(3, heisenberg_tensor()))
    sphere = make_geometry(LieAlgebraSpec(4, sphere_tensor(2)), h_dim=1,
                           phi=np.diag([1.0, 1.0, 2.0]))
    return [
        (su2_r, np.array([0.0, 0.0, 0.0, 0.5]), "general"),
        (su2_r, np.array([0.0, 0.0, 0.0, 0.5]), "bi-invariant"),
        (heis, np.array([0.3, -0.2, 0.1]), "general"),
        (sphere, np.array([0.0, 0.0, 0.4]), "naturally-reductive"),
        (sphere, np.array([0.0, 0.0, 0.4]), "general"),
    ]


@pytest.mark.parametrize("case", range(len(_scan_cases())))
def test_scan_equals_flag_loop(case):
    geom, X, method = _scan_cases()[case]
    d = FinslerData(g=geom.inner, X=X)
    s = scan_flags(geom, d, n_samples=200, seed=13, method=method)
    rng = np.random.default_rng(13)
    flags = [sample_flag(geom.inner, rng) for _ in range(200)]
    ks = np.array([flag_curvature(geom, d, f, method=method).K for f in flags])
    assert close(s.min_K, ks.min()) and close(s.max_K, ks.max())
    assert close(s.mean_K, ks.mean())
    for index, flag, k in ((s.argmin_index, s.argmin_flag, ks.min()),
                           (s.argmax_index, s.argmax_flag, ks.max())):
        assert index == int(np.flatnonzero(np.abs(ks - k) <= 1e-12 * max(1, abs(k)))[0])
        assert np.array_equal(flag.Y, flags[index].Y)
        assert np.array_equal(flag.U, flags[index].U)


def _count(monkeypatch, module, name):
    """Count calls of module.name wherever a flagcurv module binds it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("flagcurv") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("case", range(len(_scan_cases())))
def test_scan_builds_per_geometry_work_once(monkeypatch, case):
    koszul = _count(monkeypatch, flagcurv.riemann, "koszul_connection")
    natred = _count(monkeypatch, flagcurv.metrics, "check_naturally_reductive")
    finsler = _count(monkeypatch, flagcurv.finsler, "validate_finsler")
    geom, X, method = _scan_cases()[case]  # a fresh geometry: nothing cached
    scan_flags(geom, FinslerData(g=geom.inner, X=X), n_samples=200, seed=1,
               method=method)
    assert len(koszul) <= 1 and len(natred) <= 1 and len(finsler) == 1


def test_connection_is_cached_per_geometry(monkeypatch):
    koszul = _count(monkeypatch, flagcurv.riemann, "koszul_connection")
    geom, X, _ = _scan_cases()[2]
    d = FinslerData(g=geom.inner, X=X)
    rng = np.random.default_rng(5)
    for _ in range(5):
        rep = flag_curvature(geom, d, sample_flag(geom.inner, rng))
        assert rep.oracle_URYY is not None
    assert len(koszul) == 1


def test_reductive_split_is_checked_once_per_geometry(monkeypatch, su2_u1):
    reductive = _count(monkeypatch, flagcurv.algebra, "check_reductive")
    geom = make_geometry(su2_u1, h_dim=1)
    d = FinslerData(g=geom.inner, X=np.zeros(2))
    rng = np.random.default_rng(5)
    for _ in range(5):
        flag_curvature(geom, d, sample_flag(geom.inner, rng), method="naturally-reductive")
    # construction, and koszul_connection's own guard when the first report
    # builds the connection for its oracle
    assert len(reductive) == 2
    for _ in range(5):
        flag_curvature(geom, d, sample_flag(geom.inner, rng), method="naturally-reductive")
    assert len(reductive) == 2


# --- the stacked kernel and the blocked scan ---------------------------------

@settings(max_examples=15, deadline=None)
@given(problems(), st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 250]),
       st.sampled_from(CONVENTIONS))
def test_stacked_kernel_matches_einsum_reference_on_every_row(problem, n, convention):
    geom, d, _ = problem
    rng = np.random.default_rng(n)
    flags = [sample_flag(geom.inner, rng) for _ in range(n)]
    Y, U = np.array([f.Y for f in flags]), np.array([f.U for f in flags])
    for method in METHODS:
        if refused(method, convention):
            with pytest.raises(InputError, match="general method only"):
                _Kernel(geom, d, method, convention)
            continue
        try:
            refs = [ref_report(geom, d, f, method, convention) for f in flags]
        except PreconditionError:
            with pytest.raises(PreconditionError):
                _Kernel(geom, d, method, convention)
            continue
        kernel = _Kernel(geom, d, method, convention)
        URYY = kernel(Y, U)
        K = kernel.K(Y, U)
        reps = kernel.reports(Y, U)
        assert URYY.shape == K.shape == (n,)
        for i, (ref, rep) in enumerate(zip(refs, reps)):
            assert close(URYY[i], ref["URYY"]), (method, i)
            assert close(K[i], ref["K"]), (method, i)
            for key, value in (("XRYY", rep.contractions.XRYY),
                               ("RYYY", rep.contractions.RYYY),
                               ("oracle_URYY", rep.oracle_URYY)):
                if ref[key] is None:
                    assert value is None, (method, i, key)
                else:
                    assert close(value, ref[key]), (method, i, key)
        # the scan draws the same flags and evaluates them block by block
        s = scan_flags(geom, d, n_samples=n, seed=n, method=method,
                       convention=convention)
        ks = np.array([ref["K"] for ref in refs])
        assert close(s.min_K, ks.min()) and close(s.max_K, ks.max())
        assert close(s.mean_K, ks.mean())


def _memory_cases():
    rng = np.random.default_rng(8)
    so8 = make_geometry(LieAlgebraSpec(28, so_tensor(8)),
                        phi=np.diag(rng.uniform(0.5, 2.0, 28)))
    X_so8 = rng.normal(size=28)
    X_so8 *= 0.5 / so8.inner.norm(X_so8)
    s7 = make_geometry(LieAlgebraSpec(29, sphere_tensor(7)), h_dim=21,
                       phi=np.diag([1.7] * 7 + [0.6]))
    su2_r = make_geometry(LieAlgebraSpec(4, direct_sum(su2_tensor(), np.zeros((1, 1, 1)))))
    return {
        "so8-general-250": (so8, X_so8, "general", 250),
        "s7xr-naturally-reductive-250": (s7, 0.4 * np.eye(8)[7], "naturally-reductive", 250),
        "su2+r-general-5000": (su2_r, np.array([0.0, 0.0, 0.0, 0.5]), "general", 5000),
    }


@pytest.mark.parametrize("case", sorted(_memory_cases()))
def test_scan_memory_stays_below_one_megabyte(case):
    # an unblocked (N, ...) stack of the kernel's temporaries peaks at 8 MB
    # on so(8); one Flag object per sample at 2 MB for 5000 flags
    geom, X, method, n = _memory_cases()[case]
    d = FinslerData(g=geom.inner, X=X)
    scan_flags(geom, d, n_samples=4, seed=0, method=method)  # fill the caches
    tracemalloc.start()
    try:
        scan_flags(geom, d, n_samples=n, seed=1, method=method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000


@pytest.mark.parametrize("case", range(len(_scan_cases())))
def test_scan_makes_no_per_flag_bracket_call(monkeypatch, case):
    # the brackets of a scan are stacked, one pass per block of _BLOCK flags
    calls = []
    brackets = LieAlgebraSpec.brackets
    monkeypatch.setattr(LieAlgebraSpec, "brackets",
                        lambda self, a, b: calls.append(1) or brackets(self, a, b))
    counts = []
    for n in (1, 250):
        geom, X, method = _scan_cases()[case]  # a fresh geometry each time
        calls.clear()
        scan_flags(geom, FinslerData(g=geom.inner, X=X), n_samples=n, seed=1,
                   method=method)
        counts.append(len(calls))
    assert counts[0] >= 1
    assert counts[1] == math.ceil(250 / _BLOCK) * counts[0]


# --- inside the hypotheses: K = psi * kappa (ROADMAP item 1(a)) ---------------

def _block_diag(*blocks):
    out = np.zeros((sum(len(b) for b in blocks),) * 2)
    o = 0
    for b in blocks:
        out[o:o + len(b), o:o + len(b)] = b
        o += len(b)
    return out


@st.composite
def parallel_problems(draw):
    """A problem inside the paper's hypotheses with X on the line R, parallel:
    su(2)^k + R (h = 0) with a block-diagonal phi, some blocks bi-invariant,
    or S^n x R (h = so(n)) with phi = a I_n + b; |X|_g <= 0.9."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        k = draw(st.integers(1, 3))
        c, h = direct_sum(*[su2_tensor()] * k, np.zeros((1, 1, 1))), 0
        blocks = []
        for _ in range(k):
            A = rng.normal(size=(3, 3))
            blocks.append(rng.uniform(0.5, 2.0) * np.eye(3) if draw(st.booleans())
                          else 0.5 * np.eye(3) + A @ A.T / 6)
        phi = _block_diag(*blocks, rng.uniform(0.5, 2.0, (1, 1)))
    else:
        n = draw(st.integers(2, 5))
        c, h = sphere_tensor(n), n * (n - 1) // 2
        phi = np.diag([rng.uniform(0.5, 2.0)] * n + [rng.uniform(0.5, 2.0)])
    geom = make_geometry(LieAlgebraSpec(c.shape[0], c), h_dim=h, phi=phi)
    X = np.zeros(geom.m_dim)
    X[-1] = draw(st.floats(-0.9, 0.9)) / np.sqrt(geom.inner.g[-1, -1])
    return geom, FinslerData(g=geom.inner, X=X)


@settings(max_examples=40, deadline=None)
@given(parallel_problems(), st.integers(0, 2**16))
def test_parallel_drift_gives_K_as_psi_times_kappa(problem, seed):
    geom, d = problem
    g, X = geom.inner.g, d.X
    require(hypotheses(geom, X, "general"))
    rng = np.random.default_rng(seed)
    flags = [sample_flag(geom.inner, rng) for _ in range(8)]
    Y, U = np.array([f.Y for f in flags]), np.array([f.U for f in flags])
    r = curvature_oracle(geom.connection, geom.algebra, U, Y, Y)
    kappa = np.einsum("ij,ij->i", r @ g, U)
    tol = 1e-12 * np.maximum(1.0, np.abs(kappa))
    # (a) <X, R(U,Y)Y> = -<R(U,Y)X, Y> = 0, and J_Y X = R(X,Y)Y = 0
    assert np.all(np.abs(r @ g @ X) <= tol)
    assert np.all(np.abs(curvature_oracle(geom.connection, geom.algebra, X, Y, Y))
                  <= tol[:, None])
    s, t = Y @ g @ X, U @ g @ X
    psi_kappa = kappa * (1 - s**2) / ((1 + s) ** 4 * (1 - s**2 + 2 * t**2))
    for method in ("general", "naturally-reductive"):
        if method == "naturally-reductive" and not geom.naturally_reductive.ok:
            with pytest.raises(PreconditionError):
                _Kernel(geom, d, method, "oracle-aligned")
            continue
        kernel = _Kernel(geom, d, method, "oracle-aligned")
        K = kernel.K(Y, U)
        assert np.all(np.abs(K - psi_kappa) <= 1e-12 * np.maximum(1.0, np.abs(psi_kappa)))
        for flag, rep in zip(flags, kernel.reports(Y, U)):
            assert close(rep.numerator, paper_numerator(geom, d, flag, method, "oracle-aligned"))


# --- one report path: every method against the Levi-Civita oracle -----------

@st.composite
def naturally_reductive_problems(draw):
    """A naturally reductive problem: S^n x R (h = so(n)) with phi = a I_n + b,
    or su(2)^k + R (h = 0) with a bi-invariant phi, one scale per summand;
    X random with |X|_g <= 0.95."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(2, 5))
        c, h, sizes = sphere_tensor(n), n * (n - 1) // 2, [n, 1]
    else:
        k = draw(st.integers(1, 3))
        c, h, sizes = direct_sum(*[su2_tensor()] * k, np.zeros((1, 1, 1))), 0, [3] * k + [1]
    phi = np.diag(np.repeat(rng.uniform(0.5, 2.0, len(sizes)), sizes))
    geom = make_geometry(LieAlgebraSpec(c.shape[0], c), h_dim=h, phi=phi)
    X = rng.normal(size=geom.m_dim)
    X *= draw(st.floats(0.0, 0.95)) / geom.inner.norm(X)
    return geom, FinslerData(g=geom.inner, X=X)


@settings(max_examples=40, deadline=None)
@given(naturally_reductive_problems(), st.integers(1, 2 * _BLOCK), st.integers(0, 2**16))
def test_every_method_reports_kappa_on_the_levi_civita_oracle(problem, n, seed):
    geom, d = problem
    assert geom.naturally_reductive.ok and geom.ad_h_invariance.ok
    rng = np.random.default_rng(seed)
    flags = [sample_flag(geom.inner, rng) for _ in range(n)]
    Y, U = np.array([f.Y for f in flags]), np.array([f.U for f in flags])
    # bi-invariant needs trivial isotropy
    for method in METHODS if geom.h_dim == 0 else ("general", "naturally-reductive"):
        for rep in _Kernel(geom, d, method, "oracle-aligned").reports(Y, U):
            assert rep.sign_mismatch is False, method
            o = rep.oracle_URYY
            assert abs(o - rep.contractions.URYY) <= 1e-12 * max(1.0, abs(o)), method
