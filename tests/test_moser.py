import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holomoser import build_algebra, moser
from holomoser.forms import OrbitGeometry, difference_lanes
from holomoser.moser import (
    MoserStage,
    _dexp_matrix,
    _form_margin,
    _root_probe_fibers,
    check_hypotheses,
    flow_stages,
    hermitian_stage,
    homotopy_primitive,
    integrate_flow,
    moser_field,
    primitive_exactness_residual,
    properness_fit,
    properness_gamma,
    random_points,
    scaling_stage,
    segment_stage,
    segment_weight_coords,
    stokes_closedness_residual,
    verify_pullback,
)
from holomoser.algebra import MatrixLieAlgebra
from holomoser.operators import G, FiberSpectrum, f_plus
from holomoser.pipeline import _random_chamber_weights
from holomoser.roots import ChamberWeight, chamber_constants, compute_root_datum

from oracles import (
    analytic_properness_bound,
    check_hypotheses_loop,
    constant_stage,
    equal_area_radius,
    gauge_fix,
    integrate_flow_rkmk,
    primitive_exactness_loop,
    properness_fit_loop,
    quadrature_primitive,
    stokes_closedness_loop,
    weight_from_matrix,
)

ALGEBRAS = pytest.mark.parametrize(
    "family,params",
    [("su", {"p": 1, "q": 1}), ("su", {"p": 2, "q": 1}), ("sp", {"n": 2}),
     ("su", {"p": 2, "q": 2})],
    ids=["su11", "su21", "sp4", "su22"],
)


@pytest.fixture(scope="module")
def su21():
    alg = build_algebra("su", p=2, q=1)
    datum = compute_root_datum(alg)
    w = weight_from_matrix(alg, 1j * np.diag([0.6, 0.1, -0.7]))
    return alg, datum, OrbitGeometry(alg, datum, w)


@pytest.fixture(scope="module")
def su11():
    alg = build_algebra("su", p=1, q=1)
    datum = compute_root_datum(alg)
    return alg, datum, OrbitGeometry(alg, datum, datum.lambda0)


def delta_for(geo):
    _, b = chamber_constants(geo.weight, geo.datum)
    return 1.5 * b


def stage_families(geo):
    d = delta_for(geo)
    return [hermitian_stage(geo), scaling_stage(geo, d), segment_stage(geo, d)], d


def rand_batch(geo, rng, n, radius=1.0):
    ks = geo.alg.group_exp(rng.standard_normal((n, geo.alg.dim_k)))
    zs = radius * rng.standard_normal((n, geo.dim_p))
    return ks, zs


def test_constant_family_flow_is_identity(su11):
    _, _, geo = su11
    rng = np.random.default_rng(0)
    ks, zs = rand_batch(geo, rng, 4)
    res = integrate_flow(constant_stage(geo), ks, zs, steps=20)
    assert np.abs(res.k - ks).max() < 1e-12
    assert np.abs(res.z - zs).max() < 1e-12
    assert res.trace.reprojections == 0


@pytest.mark.parametrize("which", ["su11", "su21"])
def test_time_derivative_matches_finite_differences(which, su11, su21, request):
    _, _, geo = request.getfixturevalue(which)
    rng = np.random.default_rng(1)
    families, _ = stage_families(geo)
    ks, zs = rand_batch(geo, rng, 6)
    eig = geo.fiber_eig(zs)
    kap = geo.kappa(ks)
    eps = 1e-5
    for fam in families:
        for t in (0.15, 0.5, 0.85):
            fd = (
                fam.omega(eig, kap, t + eps) - fam.omega(eig, kap, t - eps)
            ) / (2 * eps)
            sigma = fam.domega_dt(eig, kap, t)
            assert np.abs(fd - sigma).max() < 1e-8, fam.name


@pytest.mark.parametrize("which", ["su11", "su21"])
def test_primitive_integrates_time_derivative(which, su11, su21, request):
    _, _, geo = request.getfixturevalue(which)
    rng = np.random.default_rng(2)
    families, _ = stage_families(geo)
    for fam in families:
        k0 = geo.alg.group_exp(rng.standard_normal((1, geo.alg.dim_k)))
        z0 = rng.standard_normal((1, geo.dim_p))
        frames = np.linalg.qr(rng.standard_normal((1, geo.dim_t, 2)))[0]
        res = primitive_exactness_residual(fam, k0, z0, 0.4, frames)[0]
        assert res < 1e-6, fam.name


def test_primitive_vanishes_on_zero_section(su21):
    _, _, geo = su21
    rng = np.random.default_rng(3)
    families, _ = stage_families(geo)
    ks, _ = rand_batch(geo, rng, 8)
    zs = np.zeros((8, geo.dim_p))
    eig = geo.fiber_eig(zs)
    kap = geo.kappa(ks)
    for fam in families:
        mu = homotopy_primitive(fam, eig, kap, zs, 0.7)
        assert np.abs(mu).max() == 0.0, fam.name


def generic_geometry(family, params):
    alg = build_algebra(family, **params)
    datum = compute_root_datum(alg)
    # a generic chamber weight has a torus stabilizer, so base slots exist
    # from rank two on; rank one has only multiples of lambda_0
    (row,) = _random_chamber_weights(datum, np.random.default_rng(0), count=1)
    return OrbitGeometry(alg, datum, ChamberWeight(row))


@ALGEBRAS
def test_primitive_matches_quadrature_oracle(family, params):
    geo = generic_geometry(family, params)
    alg = geo.alg
    assert (geo.dim_c > 0) == (alg.rank > 1)
    rng = np.random.default_rng(18)
    ks, zs = rand_batch(geo, rng, 8)
    zs *= (rng.uniform(0.05, 3.0, 8) / np.linalg.norm(zs, axis=1))[:, None]
    zs[-1] = 0.0
    eig = geo.fiber_eig(zs)
    kap = geo.kappa(ks)
    families, _ = stage_families(geo)
    for fam in families:
        for t in (0.0, 0.3, 1.0):
            got = homotopy_primitive(fam, eig, kap, zs, t)
            want = quadrature_primitive(fam, eig, kap, zs, t)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (fam.name, t)
            assert np.abs(got[-1]).max() == 0.0, (fam.name, t)


def test_dexp_matrix_batch_matches_central_difference(su21):
    # exp(u)^{-1} d/de exp(u + e y) by central differences of group_exp
    alg = su21[0]
    rng = np.random.default_rng(41)
    u = rng.standard_normal((6, alg.dim_k))
    u *= rng.uniform(0.01, 0.2, size=(6, 1)) / np.linalg.norm(u, axis=-1, keepdims=True)
    y = rng.standard_normal((6, alg.dim_k))
    h = 1e-5
    step = alg.group_exp(u + h * y) - alg.group_exp(u - h * y)
    fd = alg.coords(alg.group_inverse(alg.group_exp(u)) @ step / (2 * h))
    got = (_dexp_matrix(alg, u) @ y[..., None])[..., 0]
    assert got.shape == (6, alg.dim_k)
    assert np.abs(got - fd[:, : alg.dim_k]).max() <= 1e-8


def test_gauge_potential_vanishes_for_radial_primitives(su21):
    _, _, geo = su21
    rng = np.random.default_rng(4)
    fam = hermitian_stage(geo)

    def mu_eval(ks, zs, t):
        return homotopy_primitive(fam, geo.fiber_eig(zs), geo.kappa(ks), zs, t)

    potential, corrected = gauge_fix(geo, mu_eval)
    ks, zs = rand_batch(geo, rng, 5)
    assert np.abs(potential(ks, zs, 0.5)).max() < 1e-12
    assert np.abs(corrected(ks, zs, 0.5) - mu_eval(ks, zs, 0.5)).max() < 1e-8


def test_gauge_fix_matches_symbolic_quadratic(su21):
    # mu = d(||v||^2) has potential f = (4/3)||v||^2, so the corrected form
    # is (2 - 8/3) <v, dv>; it must annihilate fiber vectors on the zero section
    _, _, geo = su21
    rng = np.random.default_rng(5)

    def mu_quad(ks, zs, t):
        out = np.zeros((zs.shape[0], geo.dim_t))
        out[:, geo.dim_c :] = 2.0 * zs
        return out

    potential, corrected = gauge_fix(geo, mu_quad)
    ks, zs = rand_batch(geo, rng, 5)
    sq = np.einsum("bi,bi->b", zs, zs)
    assert np.abs(potential(ks, zs, 0.0) - (4.0 / 3.0) * sq).max() < 1e-12
    got = corrected(ks, zs, 0.0)
    assert np.abs(got[:, geo.dim_c :] + (2.0 / 3.0) * zs).max() < 1e-7
    assert np.abs(got[:, : geo.dim_c]).max() < 1e-12
    assert np.abs(corrected(ks, np.zeros_like(zs), 0.0)).max() < 1e-12

    def mu_zero(ks, zs, t):
        return np.zeros((zs.shape[0], geo.dim_t))

    potential0, corrected0 = gauge_fix(geo, mu_zero)
    assert np.abs(potential0(ks, zs, 0.0)).max() == 0.0
    assert np.abs(corrected0(ks, zs, 0.0)).max() == 0.0


def test_moser_field_solves_and_is_vertical(su21):
    _, _, geo = su21
    rng = np.random.default_rng(6)
    families, _ = stage_families(geo)
    ks, zs = rand_batch(geo, rng, 6)
    eig = geo.fiber_eig(zs)
    kap = geo.kappa(ks)
    for fam in families:
        xi, margin = moser_field(fam, kap, zs, 0.3)
        omega = fam.omega(eig, kap, 0.3)
        mu = homotopy_primitive(fam, eig, kap, zs, 0.3)
        solve_res = np.abs(np.einsum("bij,bj->bi", omega, xi) - mu).max()
        assert solve_res < 1e-12, fam.name
        assert margin > 1e-3
    # product-side stages move only the fiber
    for fam in families[:2]:
        xi, _ = moser_field(fam, kap, zs, 0.3)
        assert np.abs(xi[:, : geo.dim_c]).max() == 0.0, fam.name
    # the zero section is a fixed-point set of every stage field
    ks0, _ = rand_batch(geo, rng, 200)
    zs0 = np.zeros((200, geo.dim_p))
    for fam in families:
        xi, _ = moser_field(fam, geo.kappa(ks0), zs0, 0.6)
        assert np.abs(xi).max() == 0.0, fam.name


def test_stage_endpoints_are_compatible(su21):
    _, _, geo = su21
    rng = np.random.default_rng(7)
    families, _ = stage_families(geo)
    ks, zs = rand_batch(geo, rng, 6)
    eig = geo.fiber_eig(zs)
    kap = geo.kappa(ks)
    herm1 = families[0].omega(eig, kap, 1.0)
    scal0 = families[1].omega(eig, kap, 0.0)
    scal1 = families[1].omega(eig, kap, 1.0)
    segm0 = families[2].omega(eig, kap, 0.0)
    assert np.abs(herm1 - scal0).max() < 1e-12
    assert np.abs(scal1 - segm0).max() < 1e-12


def test_segment_weight_interpolates(su21):
    # the chamber segment runs from the orbit weight to delta * lambda_0;
    # delta > b_lambda is exactly what keeps every interior weight admissible
    _, _, geo = su21
    d = delta_for(geo)
    assert np.abs(segment_weight_coords(geo, d, 0.0) - geo.lam).max() < 1e-14
    end = segment_weight_coords(geo, d, 1.0)
    assert np.abs(end - d * geo.lam0).max() < 1e-14


def test_stokes_certifies_closed_and_detects_broken(su21):
    _, _, geo = su21
    rng = np.random.default_rng(8)
    fam = hermitian_stage(geo)
    # three base points with two tetrahedra each; only the middle one is broken
    k0 = geo.alg.group_exp(rng.standard_normal((3, geo.alg.dim_k)))
    z0 = rng.standard_normal((3, geo.dim_p))
    frames = np.linalg.qr(rng.standard_normal((3, 2, geo.dim_t, 3)))[0]
    a_broken = geo.fiber_block(z0[1])

    def broken(spec, kap, t):
        # scaling a closed form by a non-constant function of Z breaks dW = 0;
        # sum(nu^2) over the spectrum of ad(Z) is 2 sum(s).  Only the nodes
        # around the middle base point (A = ad(Z)[k, p] within 0.1) see it.
        near = np.abs(spec.a - a_broken).max(axis=(-2, -1)) < 0.1
        factor = np.where(near, 1.0 + 0.1 * 2.0 * spec.s.sum(axis=-1), 1.0)
        return fam.omega(spec, kap, t) * factor[:, None, None]

    good = stokes_closedness_residual(geo, fam.omega, k0, z0, 0.5, frames, 1e-2)
    bad = stokes_closedness_residual(geo, broken, k0, z0, 0.5, frames, 1e-2)
    assert good.max() < 1e-8
    assert bad[1] > 1e-4
    assert bad[[0, 2]].max() < 1e-8


def test_flow_ceiling_aborts_escaping_lanes(su11):
    _, _, geo = su11
    rng = np.random.default_rng(9)
    ks, zs = rand_batch(geo, rng, 2)
    zs /= np.linalg.norm(zs, axis=1)[:, None]
    with pytest.raises(RuntimeError, match="ceiling"):
        integrate_flow(hermitian_stage(geo), ks, zs, steps=10, z_ceiling=0.1)


def test_singular_family_raises_degenerate(su11):
    # a family whose omega is identically zero has margin 0 everywhere
    _, _, geo = su11
    rng = np.random.default_rng(10)
    ks, zs = rand_batch(geo, rng, 3)
    base = constant_stage(geo)
    singular = dataclasses.replace(
        base, name="singular", omega=lambda spec, kap, t: base.domega_dt(spec, kap, t)
    )
    msg = r"singular family degenerates along the flow \(margin 0\.000e\+00 at t = {}\)"
    with pytest.raises(RuntimeError, match=msg.format(r"0\.3000")):
        moser_field(singular, geo.kappa(ks), zs, 0.3)
    with pytest.raises(RuntimeError, match=msg.format(r"0\.0000")):
        integrate_flow(singular, ks, zs, steps=4)


def test_hermitian_stage_certifies_pullback(su11):
    _, _, geo = su11
    rng = np.random.default_rng(11)
    pts = []
    for _ in range(4):
        k = geo.alg.group_exp(rng.standard_normal(geo.alg.dim_k))
        z = rng.standard_normal(geo.dim_p)
        pts.append((k, z / np.linalg.norm(z) * rng.uniform(0.3, 1.0)))
    stages = [MoserStage(hermitian_stage(geo), 200)]
    out = verify_pullback(stages, pts, eps=1e-4, rng=np.random.default_rng(0))
    assert out["pullback_residual"] < 1e-6
    assert out["zero_section_displacement"] < 1e-10
    assert out["equivariance_residual"] < 1e-10
    # the hermitian deformation does not shift the moment map
    assert np.abs(out["moment_shift_mean"]).max() < 1e-9
    assert out["moment_shift_spread"] < 1e-9
    assert out["min_form_margin"] > 0.1
    assert out["min_image_separation"] > 1e-3


def test_flow_converges_at_order_four(su11):
    # the true error of integrate_flow against the hermitian stage's exact
    # time-one map, which the stage itself now applies
    _, _, geo = su11
    rng = np.random.default_rng(12)
    ks, zs = rand_batch(geo, rng, 3)
    zs /= np.linalg.norm(zs, axis=1)[:, None]
    fam = hermitian_stage(geo)
    exact = fam.time_one(zs)
    errors = {steps: np.abs(integrate_flow(fam, ks, zs, steps).z - exact).max()
              for steps in (10, 20)}
    assert errors[10] / errors[20] > 8.0


def segment_order_residuals(geo):
    """Pullback residual of the segment stage at 10 and 20 steps (eps = 1e-5)."""
    family = segment_stage(geo, delta_for(geo))
    assert family.moves_base
    rng = np.random.default_rng(12)
    pts = []
    for _ in range(3):
        k = geo.alg.group_exp(rng.standard_normal(geo.alg.dim_k))
        z = rng.standard_normal(geo.dim_p)
        pts.append((k, z / np.linalg.norm(z)))
    residuals = {}
    for steps in (10, 20):
        out = verify_pullback(
            [MoserStage(family, steps)], pts, eps=1e-5, n_equivariance=0, n_zero=0,
            rng=np.random.default_rng(0),
        )
        residuals[steps] = out["pullback_residual"]
    return residuals


def test_rkmk_flow_converges_at_order_four(su21):
    # the segment stage at a generic weight moves the base, so this measures
    # the reduced flow with its RKMK reconstruction of k; at eps = 1e-5 the
    # integrator error dominates the residual (1.34e-6 at 10 steps, 8.5e-8
    # at 20: 15.9x)
    _, _, geo = su21
    assert geo.dim_c > 0
    residuals = segment_order_residuals(geo)
    assert residuals[10] / residuals[20] > 8.0


@pytest.mark.parametrize(
    "family,params,lam",
    [("sp", {"n": 2}, (2.0, 1.0)), ("su", {"p": 2, "q": 2}, None)],
    ids=["sp4-generic", "su22"],
)
def test_rkmk_flow_converges_at_order_four_across_families(family, params, lam):
    # measured 4.46e-6 -> 2.88e-7 (15.5x) on sp(4,R) at lambda = (2, 1), where
    # dim_c = 2, and 1.43e-8 -> 9.00e-10 (15.9x) on su(2,2) at lambda_0
    alg = build_algebra(family, **params)
    datum = compute_root_datum(alg)
    weight = datum.lambda0 if lam is None else ChamberWeight(np.array(lam))
    residuals = segment_order_residuals(OrbitGeometry(alg, datum, weight))
    assert residuals[10] / residuals[20] > 8.0


@pytest.mark.parametrize(
    "family,params",
    [("su", {"p": 2, "q": 1}), ("sp", {"n": 2}), ("su", {"p": 2, "q": 2}),
     ("su", {"p": 3, "q": 1})],
    ids=["su21", "sp4", "su22", "su31"],
)
def test_stage_forms_and_primitives_are_k_invariant(family, params):
    # the premise of the reduced flow: at (k, Ad(k) W) every stage form is
    # R^T (form at (e, W)) R and every primitive R^T (primitive at (e, W)),
    # R = diag(I_c, Ad(k^{-1})|_p); measured at most 1.6e-14 relative
    geo = generic_geometry(family, params)
    alg, c, dk = geo.alg, geo.dim_c, geo.alg.dim_k
    ks, zs = rand_batch(geo, np.random.default_rng(40), 5)
    kap = geo.kappa(ks)
    ws = (kap[:, dk:, dk:] @ zs[..., None])[..., 0]
    r = np.zeros((len(zs), geo.dim_t, geo.dim_t))
    r[:, :c, :c] = np.eye(c)
    r[:, c:, c:] = kap[:, dk:, dk:]
    eye = np.eye(alg.dim)
    families, _ = stage_families(geo)
    for fam in families:
        for t in (0.0, 0.3, 1.0):
            got = fam.omega(geo.fiber_eig(zs), kap, t)
            want = np.swapaxes(r, -1, -2) @ fam.omega(geo.fiber_eig(ws), eye, t) @ r
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (fam.name, t)
            got = fam.primitive(geo.fiber_eig(zs), kap, zs, t)
            want = (fam.primitive(geo.fiber_eig(ws), eye, ws, t)[:, None] @ r)[:, 0]
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (fam.name, t)


@pytest.mark.parametrize(
    "family,params,lam",
    [("su", {"p": 2, "q": 1}, (0.6, 0.1, -0.7)), ("sp", {"n": 2}, (2.0, 1.0)),
     ("su", {"p": 2, "q": 2}, None)],
    ids=["su21", "sp4-generic", "su22-generic"],
)
def test_reduced_segment_flow_matches_rkmk_oracle_at_order_four(family, params, lam):
    # the true error of the segment flow (z and k) against its own 320-step
    # run at 10, 20 and 40 steps: measured 15.8/15.9x per doubling on
    # su(2,1), 15.6/15.9x on sp(4,R) and 13.5/15.2x on su(2,2), and within
    # 1.3 % of the RKMK oracle's error at every step count
    alg = build_algebra(family, **params)
    datum = compute_root_datum(alg)
    if lam is None:
        (row,) = _random_chamber_weights(datum, np.random.default_rng(0), count=1)
        weight = ChamberWeight(row)
    elif family == "su":
        weight = weight_from_matrix(alg, 1j * np.diag(lam))
    else:
        weight = ChamberWeight(np.array(lam))
    geo = OrbitGeometry(alg, datum, weight)
    assert geo.dim_c > 0
    fam = segment_stage(geo, delta_for(geo))
    ks, zs = rand_batch(geo, np.random.default_rng(12), 3)
    zs /= np.linalg.norm(zs, axis=1)[:, None]
    errors = {}
    for flow in (integrate_flow, integrate_flow_rkmk):
        ref = flow(fam, ks, zs, 320)
        errors[flow] = []
        for steps in (10, 20, 40):
            res = flow(fam, ks, zs, steps)
            errors[flow].append(max(np.abs(res.z - ref.z).max(), np.abs(res.k - ref.k).max()))
    got, want = errors[integrate_flow], errors[integrate_flow_rkmk]
    assert got[0] / got[1] > 8.0
    assert got[1] / got[2] > 8.0
    for g, w in zip(got, want):
        assert abs(g / w - 1.0) < 0.05


def test_segment_flow_evaluates_the_field_at_the_identity(su21, monkeypatch):
    # one kappa (W at entry), Ad(k) at exit and one group_exp per step: the
    # field evaluations form no group points and take no Ad(k^{-1})
    _, _, geo = su21
    assert geo.dim_c > 0
    ks, zs = rand_batch(geo, np.random.default_rng(41), 4)
    calls = []
    _count_calls(monkeypatch, MatrixLieAlgebra, "group_exp", calls)
    _count_calls(monkeypatch, MatrixLieAlgebra, "adjoint_group_matrix", calls)
    _count_calls(monkeypatch, OrbitGeometry, "kappa", calls)
    steps = 7
    res = integrate_flow(segment_stage(geo, delta_for(geo)), ks, zs, steps)
    assert res.trace.field_lanes == 4 * steps * len(zs)
    assert calls.count("kappa") == 1
    assert calls.count("adjoint_group_matrix") == 2
    assert calls.count("group_exp") == steps


def test_stage_moment_shifts_match_analytic_constants(su11):
    _, _, geo = su11
    rng = np.random.default_rng(13)
    d = delta_for(geo)
    pts = []
    for _ in range(3):
        k = geo.alg.group_exp(rng.standard_normal(geo.alg.dim_k))
        z = rng.standard_normal(geo.dim_p)
        pts.append((k, 0.8 * z / np.linalg.norm(z)))
    expected = {
        "hermitian": 0.0 * geo.lam0,
        "scaling": (d - 1.0) * geo.lam0,
        "segment": -d * geo.lam0,
    }
    for fam in (hermitian_stage(geo), scaling_stage(geo, d), segment_stage(geo, d)):
        assert np.array_equal(fam.moment_shift, expected[fam.name]), fam.name
        out = verify_pullback(
            [MoserStage(fam, 60)], pts, eps=1e-4,
            n_equivariance=0, n_zero=0, rng=np.random.default_rng(0),
        )
        gap = out["moment_shift_mean"] - expected[fam.name]
        assert np.abs(gap).max() < 1e-6, fam.name
        assert out["moment_shift_spread"] < 1e-6, fam.name


@pytest.mark.parametrize("which", ["su11", "su21"])
def test_properness_fit_matches_analytic_bound(which, su11, su21, request):
    _, _, geo = request.getfixturevalue(which)
    families, d = stage_families(geo)
    rng = np.random.default_rng(14)
    for fam in families:
        fit = properness_fit(fam, rng)
        bound = analytic_properness_bound(geo, fam.name, d)
        assert 0.99 < fit / bound < 1.05, fam.name
        gamma = properness_gamma(fam)
        assert abs(gamma - 2.0) < 0.05, fam.name


@ALGEBRAS
@pytest.mark.parametrize("weight", ["lambda0", "generic"])
def test_properness_bound_matches_oracle(family, params, weight):
    # each stage carries its analytic constant; the oracle derives it from the
    # stage name through chamber_constants
    if weight == "generic":
        geo = generic_geometry(family, params)
    else:
        alg = build_algebra(family, **params)
        datum = compute_root_datum(alg)
        geo = OrbitGeometry(alg, datum, datum.lambda0)
    families, d = stage_families(geo)
    for fam in families:
        want = analytic_properness_bound(geo, fam.name, d)
        assert fam.properness_bound == want, fam.name


def test_check_hypotheses_clean_report(su21):
    _, _, geo = su21
    families, _ = stage_families(geo)
    stages = [MoserStage(f, 10) for f in families]
    out = check_hypotheses(stages, np.random.default_rng(15))
    assert out["closedness_rel_residual"] < 1e-8
    assert out["primitive_exactness_residual"] < 1e-6
    assert out["zero_section_cross_block"] < 1e-14
    assert out["zero_section_dt_restriction"] < 1e-14
    assert out["zero_section_endpoint_restriction"] < 1e-14
    assert out["zero_section_primitive_sup"] < 1e-14
    assert np.isfinite(out["zero_section_moment_sup"])
    assert out["zero_section_moment_sup"] < 20.0
    assert out["orthogonality_nullspace_residual"] < 1e-10
    for row in out["properness"]:
        assert 0.99 < row["ratio"] < 1.05, row
        assert abs(row["gamma_fit"] - 2.0) < 0.05, row


def test_worst_case_values_keep_a_nan_from_any_lane(su21, monkeypatch):
    # running Python max() accumulators would drop a NaN met after the first
    # stage or equivariance lane
    _, _, geo = su21
    families, _ = stage_families(geo)
    stages = [MoserStage(f, 10) for f in families]
    real_exact, real_flow = moser.primitive_exactness_residual, moser.flow_stages
    calls = []

    def nan_on_second_call(*args):
        calls.append(None)
        out = real_exact(*args)
        return out * np.nan if len(calls) == 2 else out

    monkeypatch.setattr(moser, "primitive_exactness_residual", nan_on_second_call)
    out = check_hypotheses(stages, np.random.default_rng(15))
    assert len(calls) == 3
    assert np.isnan(out["primitive_exactness_residual"])
    assert out["closedness_rel_residual"] < 1e-8

    rng = np.random.default_rng(4)
    pts = [(geo.alg.group_exp(rng.standard_normal(geo.alg.dim_k)),
            0.5 * rng.standard_normal(geo.dim_p)) for _ in range(2)]
    second_partner = len(pts) * (1 + 2 * geo.dim_t) + 1

    def nan_second_partner(stages_arg, k0, z0, margin_ref):
        # the exact form margins are taken on the centres, the two partners
        # and the four zero-section lanes
        assert (margin_ref == np.arange(len(z0))).sum() == len(pts) + 2 + 4
        results = real_flow(stages_arg, k0, z0, margin_ref)
        results[-1].z[second_partner] = np.nan
        return results

    # two mapped stages, then the segment flow whose partner lane turns NaN
    monkeypatch.setattr(moser, "flow_stages", nan_second_partner)
    out = verify_pullback(stages, pts, rng=np.random.default_rng(0))
    assert np.isnan(out["equivariance_residual"])


ZERO_SECTION_KEYS = (
    "zero_section_cross_block",
    "zero_section_dt_restriction",
    "zero_section_endpoint_restriction",
    "zero_section_primitive_sup",
    "zero_section_moment_sup",
    "orthogonality_nullspace_residual",
)


@ALGEBRAS
def test_check_hypotheses_matches_loop_oracle(family, params):
    geo = generic_geometry(family, params)
    families, d = stage_families(geo)
    stages = [MoserStage(f, 10) for f in families]
    out = check_hypotheses(stages, np.random.default_rng(15))
    ref = check_hypotheses_loop(geo, stages, d, np.random.default_rng(15))
    # the draws keep their order, so everything evaluated once per point or
    # after the draws (properness) is bit-identical
    assert out["properness"] == ref["properness"]
    for key in ZERO_SECTION_KEYS:
        assert out[key] == ref[key], key
    for key in ("closedness_rel_residual", "primitive_exactness_residual"):
        assert abs(out[key] - ref[key]) <= 1e-12, key


class ReplayRng:
    """Hands out pre-drawn arrays in order in place of standard_normal."""

    def __init__(self, arrays):
        self._arrays = iter(arrays)

    def standard_normal(self, shape):
        out = next(self._arrays)
        assert out.shape == shape
        return out


def test_batched_chart_checks_match_point_loops(su21):
    # forms and primitives that fail the checks, so the compared values are
    # far above roundoff
    _, _, geo = su21
    fam = hermitian_stage(geo)
    rng = np.random.default_rng(21)
    k0 = geo.alg.group_exp(rng.standard_normal((3, geo.alg.dim_k)))
    z0 = rng.standard_normal((3, geo.dim_p))
    tet_draws = rng.standard_normal((3, 2, geo.dim_t, 3))
    tri_draws = rng.standard_normal((3, geo.dim_t, 2))

    def broken(spec, kap, t):
        factor = 1.0 + 0.1 * 2.0 * spec.s.sum(axis=-1)
        return fam.omega(spec, kap, t) * factor[:, None, None]

    off = dataclasses.replace(
        fam, primitive=lambda spec, kap, zp, t: 1.1 * fam.primitive(spec, kap, zp, t)
    )
    stokes = stokes_closedness_residual(
        geo, broken, k0, z0, 0.5, np.linalg.qr(tet_draws)[0], 1e-2
    )
    exact = primitive_exactness_residual(off, k0, z0, 0.5, np.linalg.qr(tri_draws)[0])
    for b in range(3):
        ref = stokes_closedness_loop(
            geo, lambda spec, kap: broken(spec, kap, 0.5), k0[b], z0[b], 1e-2,
            ReplayRng(tet_draws[b]),
        )
        assert ref > 1e-6
        assert abs(stokes[b] - ref) <= 1e-12
        ref = primitive_exactness_loop(
            off, geo, k0[b], z0[b], 0.5, ReplayRng([tri_draws[b]])
        )
        assert ref > 1e-4
        assert abs(exact[b] - ref) <= 1e-12


def test_segment_form_builds_psi_plus_once(su21, monkeypatch):
    _, _, geo = su21
    rng = np.random.default_rng(22)
    ks, zs = rand_batch(geo, rng, 5)
    kap = geo.kappa(ks)
    t, d = 0.3, delta_for(geo)
    # blocks on separate spectra: pullback_blocks and delta_blocks each
    # build even(f_plus) themselves
    ref = (1.0 - t) * geo.delta_blocks(geo.fiber_eig(zs), d) + t * geo.pullback_blocks(
        geo.fiber_eig(zs), kap
    )
    calls = []
    even = FiberSpectrum.even

    def counting_even(self, g):
        calls.append(g)
        return even(self, g)

    monkeypatch.setattr(FiberSpectrum, "even", counting_even)
    omega = segment_stage(geo, d).omega(geo.fiber_eig(zs), kap, t)
    assert sum(g is f_plus for g in calls) == 1
    assert np.array_equal(omega, ref)


def _count_calls(monkeypatch, owner, attr, calls, key=lambda *args: True):
    """Wrap owner.attr so each call whose arguments satisfy key is listed."""
    real = getattr(owner, attr)

    def counted(*args, **kwargs):
        if key(*args, **kwargs):
            calls.append(attr)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)


def test_vertical_chart_checks_skip_group_points_and_kappa(su21, monkeypatch):
    # per vertical stage: one group_exp for the chart draws and one for the
    # properness points; kappa for the zero-section blocks and the properness
    # fit (the growth exponent is read at k = e).  The Stokes, circulation
    # and flux nodes (three more of each) need neither.
    _, _, geo = su21
    assert geo.dim_t >= 3 and geo.dim_c > 0
    families, _ = stage_families(geo)
    stages = [MoserStage(fam, 5) for fam in families[:2]]
    calls = []
    _count_calls(monkeypatch, MatrixLieAlgebra, "group_exp", calls)
    _count_calls(monkeypatch, OrbitGeometry, "kappa", calls)
    check_hypotheses(stages, np.random.default_rng(0))
    assert calls.count("group_exp") == 2 * (1 + 1)
    assert calls.count("kappa") == 2 * (1 + 1)


def test_segment_field_forms_even_g_once(su21, monkeypatch):
    # the pullback block's Psi_Z^- and the radial primitive share even(G)
    _, _, geo = su21
    ks, zs = rand_batch(geo, np.random.default_rng(27), 4)
    calls = []
    _count_calls(monkeypatch, OrbitGeometry, "fiber_eig", calls)
    _count_calls(monkeypatch, FiberSpectrum, "even", calls, lambda self, g: g is G)
    moser_field(segment_stage(geo, delta_for(geo)), geo.kappa(ks), zs, 0.3)
    assert calls.count("fiber_eig") == 1
    assert calls.count("even") == 1


def test_three_stage_composite_certifies(su11):
    _, _, geo = su11
    rng = np.random.default_rng(16)
    families, _ = stage_families(geo)
    stages = [
        MoserStage(families[0], 30),
        MoserStage(families[1], 30),
        MoserStage(families[2], 60),
    ]
    pts = []
    for _ in range(6):
        k = geo.alg.group_exp(rng.standard_normal(geo.alg.dim_k))
        z = rng.standard_normal(geo.dim_p)
        pts.append((k, z / np.linalg.norm(z) * rng.uniform(0.2, 1.1)))
    out = verify_pullback(stages, pts, eps=1e-4, rng=np.random.default_rng(0))
    assert out["pullback_residual"] < 1e-5
    # hermitian, scaling and segment shifts cancel exactly in the composite
    assert np.abs(out["moment_shift_mean"]).max() < 1e-8
    assert out["moment_shift_spread"] < 1e-8
    assert out["zero_section_displacement"] < 1e-10
    assert out["equivariance_residual"] < 1e-8
    assert out["min_image_separation"] > 1e-4


def test_flow_stages_chains_traces(su11):
    # the vertical stages are mapped (no steps, k passed through), the
    # segment stage is flowed from where they leave the fibers
    _, _, geo = su11
    rng = np.random.default_rng(17)
    families, _ = stage_families(geo)
    stages = [MoserStage(f, 10) for f in families]
    ks, zs = rand_batch(geo, rng, 3, radius=0.5)
    results = flow_stages(stages, ks, zs)
    traces = [res.trace for res in results]
    assert [tr.steps for tr in traces] == [0, 0, 10]
    assert [tr.field_lanes for tr in traces] == [0, 0, 4 * 10 * 3]
    assert all(tr.reprojections == 0 for tr in traces)
    assert all(tr.max_group_residual < 1e-10 for tr in traces)
    assert results[0].k is ks and results[1].k is ks
    assert np.array_equal(results[1].z, families[1].time_one(families[0].time_one(zs)))
    alone = integrate_flow(families[2], ks, results[1].z, 10)
    assert np.array_equal(results[2].z, alone.z)
    assert np.array_equal(results[2].k, alone.k)


@ALGEBRAS
def test_properness_fit_matches_loop_oracle(family, params):
    # one moment call on the sampled and zero fibers together, split after
    geo = generic_geometry(family, params)
    families, _ = stage_families(geo)
    for fam in families:
        got = properness_fit(fam, np.random.default_rng(25))
        want = properness_fit_loop(geo, fam, np.random.default_rng(25))
        assert got == want, fam.name


# su(1,1) at lambda_0, su(2,1) generic, sp(4,R) at (2, 1), su(2,2) and su(3,1) generic
TIME_MODELS = [("su", {"p": 1, "q": 1}, None), ("su", {"p": 2, "q": 1}, "generic"),
               ("sp", {"n": 2}, (2.0, 1.0)), ("su", {"p": 2, "q": 2}, "generic"),
               ("su", {"p": 3, "q": 1}, "generic")]
TIME_IDS = ["su11", "su21", "sp4", "su22", "su31"]
EVALUATORS = ("omega", "domega_dt", "primitive", "moment")


def time_model(family, params, weight):
    if weight == "generic":
        return generic_geometry(family, params)
    alg = build_algebra(family, **params)
    datum = compute_root_datum(alg)
    w = datum.lambda0 if weight is None else ChamberWeight(np.array(weight))
    return OrbitGeometry(alg, datum, w)


@pytest.fixture(scope="module")
def time_lanes():
    """Per model: the stage families and six lanes (spec, kap, zs), one of
    them on the zero section."""
    out = []
    for family, params, weight in TIME_MODELS:
        geo = time_model(family, params, weight)
        ks, zs = rand_batch(geo, np.random.default_rng(31), 6)
        zs[-1] = 0.0
        out.append((*stage_families(geo), (geo.fiber_eig(zs), geo.kappa(ks), zs)))
    return out


def evaluate(fam, name, lanes, t):
    spec, kap, zs = lanes
    if name == "primitive":
        return fam.primitive(spec, kap, zs, t)
    return getattr(fam, name)(spec, kap, t)


def assert_times_batch(families, lanes, times):
    """Every evaluator at one time per lane, and on a (time, lane) grid,
    equals the stack of its scalar-t calls bit for bit."""
    grid = np.array([[0.0], [0.45], [1.0]])
    for fam in families:
        for name in EVALUATORS:
            want = np.stack([evaluate(fam, name, lanes, float(t))[b]
                             for b, t in enumerate(times)])
            assert np.array_equal(evaluate(fam, name, lanes, times), want), (fam.name, name)
            want = np.stack([evaluate(fam, name, lanes, float(t)) for t in grid[:, 0]])
            got = evaluate(fam, name, lanes, grid)
            assert np.array_equal(np.broadcast_to(got, want.shape), want), (fam.name, name)
        want = np.stack([fam.pairing_direction(float(t)) for t in times])
        assert np.array_equal(fam.pairing_direction(times), want), fam.name
        want = np.stack([fam.pairing_direction(float(t)) for t in grid[:, 0]])
        assert np.array_equal(fam.pairing_direction(grid), want[:, None]), fam.name


@pytest.mark.parametrize("model", range(len(TIME_MODELS)), ids=TIME_IDS)
def test_family_time_batches_match_scalar_calls(time_lanes, model):
    families, delta, lanes = time_lanes[model]
    assert_times_batch(families, lanes, np.array([0.0, 0.5, 1.0, 0.25, 0.7, 1.0]))
    # the segment direction keeps the BLAS-dot norm of a single weight
    for t in np.linspace(0.0, 1.0, 101):
        coords = segment_weight_coords(families[2].geometry, delta, 1.0 - t)
        assert np.array_equal(families[2].pairing_direction(t), coords / np.linalg.norm(coords))


@settings(derandomize=True, deadline=None, database=None, max_examples=10)
@given(
    model=st.integers(0, len(TIME_MODELS) - 1),
    times=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
)
def test_family_time_batches_match_scalar_calls_at_drawn_times(time_lanes, model, times):
    families, _, lanes = time_lanes[model]
    assert_times_batch(families, lanes, np.array(times))


def counted_family(fam, calls):
    """fam with every evaluator call listed as (name, shape of t)."""
    def wrap(name):
        real = getattr(fam, name)

        def counted(*args):
            calls.append((name, np.shape(args[-1])))
            return real(*args)
        return counted

    return dataclasses.replace(fam, **{name: wrap(name) for name in EVALUATORS})


def test_hypothesis_checks_make_one_pass_per_stage(su21, monkeypatch):
    # per stage: one Stokes evaluation over 6 points x 2 tetrahedra x 4 faces
    # x 7 nodes, one circulation over 6 x 3 edges x 8 nodes, one flux over
    # 6 x 7 nodes, one zero-section evaluation of each evaluator over the six
    # lanes, one endpoint pair, one properness fit over the 11-time grid and
    # the growth exponent at t = 1/2
    _, _, geo = su21
    assert geo.dim_t >= 3 and geo.dim_c > 0
    families, _ = stage_families(geo)
    calls = []
    stages = [MoserStage(counted_family(fam, calls), 5) for fam in families]
    _count_calls(monkeypatch, OrbitGeometry, "fiber_eig", calls)
    check_hypotheses(stages, np.random.default_rng(0))
    per_stage = [
        "fiber_eig", ("omega", (336,)), "fiber_eig", ("primitive", (144,)),
        "fiber_eig", ("domega_dt", (42,)),
        ("omega", (6,)), ("primitive", (6,)), ("moment", (6,)), ("domega_dt", (6,)),
        ("omega", (2, 1)), "fiber_eig", ("moment", (11, 1)), "fiber_eig", ("moment", ()),
    ]
    want = ["fiber_eig"] + per_stage * len(families)
    assert calls == want


def test_random_points_draw_k_then_z_then_radii(su21):
    # the layout properness_fit and the segment witness share
    _, _, geo = su21
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    ks, zs = random_points(geo, rng, 5, (0.2, 2.5))
    k = ref.standard_normal((5, geo.alg.dim_k))
    z = ref.standard_normal((5, geo.dim_p))
    r = ref.uniform(0.2, 2.5, 5)
    assert np.array_equal(ks, geo.alg.group_exp(k))
    assert np.array_equal(zs, z * (r / np.linalg.norm(z, axis=1))[:, None])
    assert rng.bit_generator.state == ref.bit_generator.state


def repeated_fiber_batch(geo, rng):
    """Nine lanes: three random fibers, one repeated under other k twice,
    one once, and three zero-section lanes."""
    ks, zs = rand_batch(geo, rng, 9, radius=0.4)
    zs[3:5] = zs[0]
    zs[5] = zs[1]
    zs[6:] = 0.0
    return ks, zs


@ALGEBRAS
def test_vertical_flows_keep_k_and_match_rkmk_oracle(family, params):
    # k and the group counters are bit-identical; z, fiber_sup and the margin
    # are read in the body frame Ad(k^{-1}) and conjugated back, so they agree
    # to roundoff (measured at most 2.4e-15)
    geo = generic_geometry(family, params)
    families, _ = stage_families(geo)
    assert families[2].moves_base
    ks, zs = repeated_fiber_batch(geo, np.random.default_rng(23))
    steps = 6
    for fam in families[:2]:
        assert not fam.moves_base
        got = integrate_flow(fam, ks, zs, steps)
        ref = integrate_flow_rkmk(fam, ks, zs, steps)
        assert np.array_equal(got.k, ks), fam.name
        assert np.abs(got.z - ref.z).max() <= 1e-14, fam.name
        assert np.abs(got.trace.fiber_sup - ref.trace.fiber_sup).max() <= 1e-14, fam.name
        assert abs(got.trace.min_form_margin - ref.trace.min_form_margin) <= 1e-14, fam.name
        for key in ("max_group_residual", "reprojections"):
            assert getattr(got.trace, key) == getattr(ref.trace, key), (fam.name, key)
        # integrate_flow flows every lane of a vertical family, like any other
        assert got.trace.field_lanes == 4 * steps * len(zs), fam.name


def test_vertical_flow_reprojects_drifted_k_once(su21):
    _, _, geo = su21
    rng = np.random.default_rng(24)
    ks, zs = rand_batch(geo, rng, 4, radius=0.5)
    # about 1e-9 off K, past the 1e-12 projection tolerance
    ks = ks + 1e-9 * rng.standard_normal(ks.shape)
    assert geo.alg.group_residual(ks).max() > 1e-10
    fam = hermitian_stage(geo)
    got = integrate_flow(fam, ks, zs, steps=5)
    ref = integrate_flow_rkmk(fam, ks, zs, steps=5)
    # integrate_flow projects at entry, the oracle after its first step
    assert got.trace.reprojections == ref.trace.reprojections == 1
    assert got.trace.max_group_residual == ref.trace.max_group_residual
    assert np.array_equal(got.k, ref.k)
    assert geo.alg.group_residual(got.k).max() < 1e-12
    assert np.abs(got.z - ref.z).max() <= 1e-14


def test_vertical_stages_are_mapped_without_field_evaluations(su21):
    # one sample: a centre lane, 2 dim_t perturbed lanes, one equivariance
    # partner and four zero-section lanes.  The vertical stages are mapped
    # exactly, so they report no steps, field evaluations or lanes; the
    # segment stage flows every lane.
    _, _, geo = su21
    assert geo.dim_c > 0
    families, _ = stage_families(geo)
    rng = np.random.default_rng(26)
    ks, zs = rand_batch(geo, rng, 1, radius=0.5)
    pts = [(ks[0], zs[0])]
    every = 1 + 2 * geo.dim_t + 1 + 4
    for fam, evals in zip(families, (0, 0, 20)):
        out = verify_pullback([MoserStage(fam, 5)], pts, rng=np.random.default_rng(0))
        assert out["field_evaluations"] == evals, fam.name
        assert out["field_lanes"] == evals * every, fam.name
        assert out["reprojections"] == 0, fam.name
        if not fam.moves_base:
            # k leaves as it came and the map fixes the zero section exactly
            assert out["zero_section_displacement"] == 0.0, fam.name
            assert out["pullback_residual"] < 1e-8, fam.name


def oracle_geometries():
    return pytest.mark.parametrize(
        "family,params",
        [("su", {"p": 1, "q": 1}), ("su", {"p": 2, "q": 1}), ("sp", {"n": 2}),
         ("su", {"p": 2, "q": 2}), ("su", {"p": 3, "q": 1})],
        ids=["su11", "su21", "sp4", "su22", "su31"],
    )


@oracle_geometries()
def test_time_one_maps_match_the_integrated_flows(family, params, monkeypatch):
    # six fibers with |Z| in [0.1, 2] at delta = 1.5; the flows' error falls
    # 15.9-16.2x per doubling on every algebra (20 steps: 3.3e-11 to 9.2e-10)
    geo = generic_geometry(family, params)
    herm, scal = hermitian_stage(geo), scaling_stage(geo, 1.5)
    rng = np.random.default_rng(31)
    ks, zs = rand_batch(geo, rng, 6)
    zs *= (rng.uniform(0.1, 2.0, 6) / np.linalg.norm(zs, axis=1))[:, None]
    mapped = {"hermitian": herm.time_one(zs), "scaling": scal.time_one(zs)}
    mapped["composed"] = scal.time_one(mapped["hermitian"])
    errors = {}
    for steps in (20, 40, 80):
        first = integrate_flow(herm, ks, zs, steps)
        # the scaling flow of zs and of the hermitian images, in one batch
        second = integrate_flow(scal, np.concatenate([ks, first.k]),
                                np.concatenate([zs, first.z]), steps).z
        flowed = {"hermitian": first.z, "scaling": second[:6], "composed": second[6:]}
        errors[steps] = {key: np.abs(flowed[key] - mapped[key]).max() for key in mapped}
    for key in mapped:
        assert errors[20][key] < 2e-9, key
        assert errors[20][key] / errors[40][key] > 12.0, key
        assert errors[40][key] / errors[80][key] > 12.0, key

    # the Hermitian matrix the map forms lies in p: its k coordinates vanish
    seen = []
    real_coords = type(geo.alg).coords

    def capture(self, mat):
        seen.append(real_coords(self, mat))
        return seen[-1]

    monkeypatch.setattr(type(geo.alg), "coords", capture)
    herm.time_one(zs)
    scal.time_one(zs)
    assert len(seen) == 2
    assert max(np.abs(x[:, : geo.alg.dim_k]).max() for x in seen) <= 1e-15


@oracle_geometries()
def test_time_one_maps_keep_equal_areas_on_root_rays(family, params):
    # measured within 3.2e-15 of the quadrature oracle, short roots of
    # sp(4,R) included
    geo = generic_geometry(family, params)
    herm, scal = hermitian_stage(geo), scaling_stage(geo, 1.5)
    for e in _root_probe_fibers(geo, radii=(1.0,))[::2]:
        for r in (0.3, 0.8, 1.5, 2.5):
            rho_h = equal_area_radius(herm, e, r)
            want = {"hermitian": rho_h, "scaling": equal_area_radius(scal, e, r),
                    "composed": equal_area_radius(scal, e, rho_h)}
            got = {"hermitian": herm.time_one(r * e[None])[0],
                   "scaling": scal.time_one(r * e[None])[0]}
            got["composed"] = scal.time_one(got["hermitian"][None])[0]
            for key, rho in want.items():
                assert np.abs(got[key] - rho * e).max() <= 1e-13, (key, r)


def test_scaling_map_is_finite_and_accurate_at_any_radius(su11):
    # sinh(x) overflows past x = 710 and arcsinh(sinh(x) / sqrt(delta))
    # cancels near 0; the map's written form does neither (measured within
    # 9.2e-16 relative of the direct form, or of its asymptote y = x -
    # log(sqrt(delta)) far out, from r = 1e-12 to 1e6)
    _, _, geo = su11
    e = _root_probe_fibers(geo, radii=(1.0,))[0]
    half_root_c = 0.5 * np.sqrt(geo.fiber_eig(e[None]).s.max())
    radii = np.array([1e-12, 1e-8, 1e-4, 1.0, 30.0, 1e3, 1e6])
    x = half_root_c * radii
    for delta in (0.3, 1.5, 40.0):
        fam = scaling_stage(geo, delta)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = fam.time_one(radii[:, None] * e)
            zero = fam.time_one(np.zeros((1, geo.dim_p)))
        direct = np.arcsinh(np.sinh(np.minimum(x, 700.0)) / np.sqrt(delta))
        want = np.where(x < 700.0, direct, x - np.log(np.sqrt(delta))) / half_root_c
        rho = np.linalg.norm(out, axis=1)
        assert np.abs(rho / want - 1.0).max() < 1e-14, delta
        assert np.abs(out - rho[:, None] * e).max() <= 1e-15 * rho.max(), delta
        assert np.array_equal(zero, np.zeros_like(zero))


def test_map_stage_residuals_are_second_order_in_eps(su21):
    # with no integrator error left, a map stage's pullback residual is the
    # central differences' O(eps^2): measured 3.95-3.98x per halving from
    # 2e-4 to 1e-4 and 3.37-3.54x from 1e-4 to 5e-5, where roundoff / eps
    # begins to show
    _, _, geo = su21
    families, _ = stage_families(geo)
    rng = np.random.default_rng(12)
    ks, zs = rand_batch(geo, rng, 3)
    pts = list(zip(ks, zs / np.linalg.norm(zs, axis=1)[:, None]))
    for fam in families[:2]:
        res = [verify_pullback([MoserStage(fam, 0)], pts, eps=eps, n_equivariance=0,
                               n_zero=0, rng=np.random.default_rng(0))["pullback_residual"]
               for eps in (2e-4, 1e-4, 5e-5)]
        assert res[0] / res[1] > 3.0, fam.name
        assert res[1] / res[2] > 3.0, fam.name


def test_degenerate_difference_lane_raises_through_the_weyl_guard(su21):
    # the difference lanes take no svd of their own; a lane whose form is
    # singular while its centre's is not still stops the flow, through
    # sigma_min(w) >= sigma_min(w_centre) - ||w - w_centre||_F
    _, _, geo = su21
    base = constant_stage(geo)
    rng = np.random.default_rng(28)
    ks, zs = rand_batch(geo, rng, 2, radius=0.5)
    eps = 1e-4
    # keyed on the spectrum of ad(Z)^2, which conjugation by K keeps, so the
    # family is K-invariant like every family integrate_flow accepts
    target = geo.fiber_eig(zs[1] + eps * np.eye(geo.dim_p)[0]).s

    def omega(spec, kap, t):
        out = base.omega(spec, kap, t)
        out[np.abs(spec.s - target).max(axis=-1) < 1e-9] = 0.0
        return out

    singular = dataclasses.replace(base, name="singular-lane", omega=omega)
    pts = list(zip(ks, zs))
    with pytest.raises(RuntimeError, match="singular-lane family degenerates along the flow"):
        verify_pullback([MoserStage(singular, 4)], pts, eps=eps, rng=np.random.default_rng(0))
    # the centres' forms pass the svd; the one singular lane is a difference lane
    _, diff_z = difference_lanes(geo, ks, zs, eps)
    forms = omega(geo.fiber_eig(np.concatenate([zs, diff_z])), None, 0.0)
    assert (np.abs(forms).max(axis=(-2, -1)) == 0.0).sum() == 1
    assert _form_margin(singular, forms[:2], 0.0) > 0.1
    ref = np.concatenate([np.arange(2), np.repeat(np.arange(2), 2 * geo.dim_t)])
    with pytest.raises(RuntimeError, match=r"margin -"):
        _form_margin(singular, forms, 0.0, ref)
