import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holomoser import build_algebra, moser
from holomoser.forms import OrbitGeometry, difference_lanes
from holomoser.moser import (
    MoserStage,
    _base_rows,
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
    random_points,
    scaling_stage,
    segment_stage,
    segment_weight_coords,
    stokes_closedness_residual,
    verify_pullback,
)
from holomoser.algebra import MatrixLieAlgebra
from holomoser.operators import FiberSpectrum
from holomoser.pipeline import _random_chamber_weights
from holomoser.roots import ChamberWeight, chamber_constants, compute_root_datum

from oracles import (
    analytic_properness_bound,
    check_hypotheses_loop,
    constant_stage,
    equal_area_radius,
    fiber_s,
    finite_difference_jacobians,
    gauge_fix,
    integrate_flow_per_step,
    integrate_flow_rkmk,
    primitive_exactness_loop,
    properness_fit_loop,
    properness_gamma,
    quadrature_primitive,
    ReplayRng,
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


def unzip_points(pts):
    """The (ks, zs) arrays verify_pullback takes, from a list of (k, z) points."""
    ks, zs = zip(*pts)
    return np.array(ks), np.array(zs)


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


def test_stokes_on_a_two_dimensional_space_keeps_the_stack_axes(su11):
    # su(1,1) at lambda_0 has dim_t = 2, where every 2-form is closed: no
    # tetrahedra are drawn, and a stacked omega still gives (families, B)
    _, _, geo = su11
    assert geo.dim_t == 2
    families, _ = stage_families(geo)
    ts = np.repeat([0.0, 0.5, 1.0], 2)
    k0, z0, tets, _ = moser._draw_chart_points(geo, np.random.default_rng(0), len(ts), 2)
    assert tets.shape == (len(ts), 0, geo.dim_t, 3)
    out = stokes_closedness_residual(
        geo, lambda spec, kap, t: np.stack([fam.omega(spec, kap, t) for fam in families]),
        k0, z0, ts, tets, 1e-2,
    )
    assert np.array_equal(out, np.zeros((3, len(ts))))


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
        factor = np.where(near, 1.0 + 0.1 * 2.0 * fiber_s(spec).sum(axis=-1), 1.0)
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
    out = verify_pullback(stages, *unzip_points(pts), eps=1e-4, rng=np.random.default_rng(0))
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
    assert family.time_one is None
    rng = np.random.default_rng(12)
    pts = []
    for _ in range(3):
        k = geo.alg.group_exp(rng.standard_normal(geo.alg.dim_k))
        z = rng.standard_normal(geo.dim_p)
        pts.append((k, z / np.linalg.norm(z)))
    residuals = {}
    for steps in (10, 20):
        out = verify_pullback(
            [MoserStage(family, steps)], *unzip_points(pts), eps=1e-5,
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
    # one kappa (W at entry), Ad(k) at exit and one group_exp for the factors
    # of every step: the field evaluations form no group points and take no
    # Ad(k^{-1}), and k is updated once after the loop
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
    assert calls.count("group_exp") == 1


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
            [MoserStage(fam, 60)], *unzip_points(pts), eps=1e-4,
            rng=np.random.default_rng(0),
        )
        gap = out["moment_shift_mean"] - expected[fam.name]
        assert np.abs(gap).max() < 1e-6, fam.name
        assert out["moment_shift_spread"] < 1e-6, fam.name


@pytest.mark.parametrize("which", ["su11", "su21"])
def test_properness_fit_matches_analytic_bound(which, su11, su21, request):
    _, _, geo = request.getfixturevalue(which)
    families, d = stage_families(geo)
    fits = properness_fit(families, np.random.default_rng(14))
    for fam, (fit, gamma) in zip(families, fits):
        bound = analytic_properness_bound(geo, fam.name, d)
        assert 0.99 < fit / bound < 1.05, fam.name
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
    real_stokes, real_flow = moser.stokes_closedness_residual, moser.flow_stages
    calls = []

    def nan_in_second_family(*args):
        # one Stokes call for all three families: (family, base point)
        calls.append(None)
        out = real_stokes(*args)
        assert out.shape == (3, 6)
        out[1, 4] = np.nan
        return out

    monkeypatch.setattr(moser, "stokes_closedness_residual", nan_in_second_family)
    out = check_hypotheses(stages, np.random.default_rng(15))
    assert len(calls) == 1
    assert np.isnan(out["closedness_rel_residual"])
    assert out["primitive_exactness_residual"] < 1e-6

    rng = np.random.default_rng(4)
    pts = [(geo.alg.group_exp(rng.standard_normal(geo.alg.dim_k)),
            0.5 * rng.standard_normal(geo.dim_p)) for _ in range(2)]
    second_partner = len(pts) * (1 + 2 * geo.dim_p) + 1

    def nan_second_partner(stages_arg, k0, z0):
        # centres, difference lanes, the two partners and four zero-section lanes
        assert len(z0) == len(pts) * (1 + 2 * geo.dim_p) + 2 + 4
        results = real_flow(stages_arg, k0, z0)
        results[-1].z[second_partner] = np.nan
        return results

    # two mapped stages, then the segment flow whose partner lane turns NaN
    monkeypatch.setattr(moser, "flow_stages", nan_second_partner)
    out = verify_pullback(stages, *unzip_points(pts), rng=np.random.default_rng(0))
    assert np.isnan(out["equivariance_residual"])


@pytest.mark.parametrize("samples", [1, 3, 6])
def test_verify_pullback_forms_its_partners_as_one_batch(su21, monkeypatch, samples):
    # before the flow: one group_exp and one adjoint_group_matrix for all
    # min(4, samples) partners, then one group_exp for the zero-section
    # lanes.  The partners' generators are the stream a draw per partner gives
    _, _, geo = su21
    ks, zs = rand_batch(geo, np.random.default_rng(29), samples, radius=0.5)
    calls, lanes = [], []
    real_flow = moser.flow_stages

    def flow(stages, k0, z0):
        calls.append("flow_stages")
        lanes.append(k0)
        return real_flow(stages, k0, z0)

    _count_calls(monkeypatch, MatrixLieAlgebra, "group_exp", calls)
    _count_calls(monkeypatch, MatrixLieAlgebra, "adjoint_group_matrix", calls)
    monkeypatch.setattr(moser, "flow_stages", flow)
    out = verify_pullback([MoserStage(hermitian_stage(geo), 0)], ks, zs,
                          rng=np.random.default_rng(0))
    assert calls[: calls.index("flow_stages")] == [
        "group_exp", "adjoint_group_matrix", "group_exp"]
    assert out["equivariance_residual"] < 1e-10
    monkeypatch.undo()
    n_eq, rng = min(4, samples), np.random.default_rng(0)
    partners = lanes[0][samples * (1 + 2 * geo.dim_p):][:n_eq]
    for j in range(n_eq):
        want = geo.alg.group_exp(rng.standard_normal(geo.alg.dim_k)) @ ks[j]
        assert np.abs(partners[j] - want).max() <= 1e-14, j


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
    # the stages share the draws, which keep their order, so everything
    # evaluated once per point or after the draws (properness) is bit-identical
    assert out["properness"] == ref["properness"]
    for key in ZERO_SECTION_KEYS:
        assert out[key] == ref[key], key
    for key in ("closedness_rel_residual", "primitive_exactness_residual"):
        assert abs(out[key] - ref[key]) <= 1e-12, key


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
        factor = 1.0 + 0.1 * 2.0 * fiber_s(spec).sum(axis=-1)
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
    # one sinhc kernel call per spectrum serves pullback_blocks and
    # delta_blocks, and no eigh is taken
    _, _, geo = su21
    rng = np.random.default_rng(22)
    ks, zs = rand_batch(geo, rng, 5)
    kap = geo.kappa(ks)
    t, d = 0.3, delta_for(geo)
    # blocks on separate spectra: pullback_blocks and delta_blocks each
    # build psi_plus themselves
    ref = (1.0 - t) * geo.delta_blocks(geo.fiber_eig(zs), d) + t * geo.pullback_blocks(
        geo.fiber_eig(zs), kap
    )
    calls = []
    _count_calls(monkeypatch, FiberSpectrum, "sinhc", calls)
    _count_calls(monkeypatch, np.linalg, "eigh", calls)
    omega = segment_stage(geo, d).omega(geo.fiber_eig(zs), kap, t)
    assert calls == ["sinhc"]
    assert np.array_equal(omega, ref)


def test_hermitian_family_takes_no_eigh(su21, monkeypatch):
    # every hermitian evaluator reads the sinhc kernel at c = t^2: omega, the
    # primitive and the moment once, domega_dt twice (the block and its
    # complex-step derivative).  The family is built first: its time-one
    # map, which no evaluator calls, takes eigh
    _, _, geo = su21
    fam = hermitian_stage(geo)
    ks, zs = rand_batch(geo, np.random.default_rng(34), 4)
    kap = geo.kappa(ks)
    calls = []
    _count_calls(monkeypatch, FiberSpectrum, "sinhc", calls)
    _count_calls(monkeypatch, np.linalg, "eigh", calls)
    for name, args, kernel_calls in (("omega", (kap, 0.3), 1), ("domega_dt", (kap, 0.3), 2),
                                     ("primitive", (kap, zs, 0.3), 1), ("moment", (kap, 0.3), 1)):
        calls.clear()
        getattr(fam, name)(geo.fiber_eig(zs), *args)
        assert calls == ["sinhc"] * kernel_calls, name


def _count_calls(monkeypatch, owner, attr, calls, key=lambda *args, **kwargs: True):
    """Wrap owner.attr so each call whose arguments satisfy key is listed."""
    real = getattr(owner, attr)

    def counted(*args, **kwargs):
        if key(*args, **kwargs):
            calls.append(attr)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)


def test_vertical_chart_checks_take_one_chart(su21, monkeypatch):
    # the two vertical stages share one group_exp for the chart draws and one
    # for the properness points, and one kappa each for the zero-section
    # blocks and the properness points (the growth exponent is read at
    # k = e).  Their Stokes nodes add one chart, with one group_exp for its
    # points and one kappa, and mapped stages have no circulation or flux
    # nodes.
    _, _, geo = su21
    assert geo.dim_t >= 3 and geo.dim_c > 0
    families, _ = stage_families(geo)
    stages = [MoserStage(fam, 5) for fam in families[:2]]
    calls = []
    _count_calls(monkeypatch, MatrixLieAlgebra, "group_exp", calls)
    _count_calls(monkeypatch, OrbitGeometry, "kappa", calls)
    _count_calls(monkeypatch, moser, "_chart_frames", calls)
    check_hypotheses(stages, np.random.default_rng(0))
    assert calls.count("group_exp") == 3
    assert calls.count("kappa") == 3
    assert calls.count("_chart_frames") == 1


def test_segment_field_forms_even_g_once(su21, monkeypatch):
    # the pullback block's Psi_Z^- and the radial primitive share even(G),
    # and the field evaluation takes no eigh
    _, _, geo = su21
    ks, zs = rand_batch(geo, np.random.default_rng(27), 4)
    kap = geo.kappa(ks)
    calls = []
    _count_calls(monkeypatch, OrbitGeometry, "fiber_eig", calls)
    _count_calls(monkeypatch, FiberSpectrum, "sinhc", calls)
    _count_calls(monkeypatch, np.linalg, "eigh", calls)
    moser_field(segment_stage(geo, delta_for(geo)), kap, zs, 0.3)
    assert calls == ["fiber_eig", "sinhc"]


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
    out = verify_pullback(stages, *unzip_points(pts), eps=1e-4, rng=np.random.default_rng(0))
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
    # one moment call on the sampled and zero fibers together, split after;
    # the families share one draw, which each loop call makes afresh
    geo = generic_geometry(family, params)
    families, _ = stage_families(geo)
    fits = properness_fit(families, np.random.default_rng(25))
    for fam, (got, _) in zip(families, fits):
        want = properness_fit_loop(geo, fam, np.random.default_rng(25))
        assert got == want, fam.name


@ALGEBRAS
@pytest.mark.parametrize("weight", ["lambda0", "generic"])
def test_properness_fit_exponents_match_the_ray_oracle(family, params, weight):
    # the ray lanes ride in properness_fit's own batch with the exact identity
    # as kappa; their t = 0.5 row must equal the ray's own call at k = e
    if weight == "generic":
        geo = generic_geometry(family, params)
    else:
        alg = build_algebra(family, **params)
        datum = compute_root_datum(alg)
        geo = OrbitGeometry(alg, datum, datum.lambda0)
    families, _ = stage_families(geo)
    fits = properness_fit(families, np.random.default_rng(25))
    for fam, (_, gamma) in zip(families, fits):
        assert gamma == properness_gamma(fam), fam.name


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


def test_hypothesis_checks_make_one_pass_for_all_stages(su21, monkeypatch):
    # one draw for all stages.  The properness points take one spectrum and
    # one kappa, on which every family's moment is read on the 11-time grid;
    # the Stokes nodes (6 points x 2 tetrahedra x 4 faces x 7 nodes) one
    # chart, spectrum and kappa for the three omegas; the zero-section blocks
    # of the six points one spectrum and one kappa.  Only the flowed segment
    # takes the circulation over 6 x 3 edges x 8 nodes, the flux over 6 x 7
    # nodes and the zero-section primitive and dt blocks.  Each family's
    # zero-section blocks and endpoint forms are one omega call on the time
    # axis (0, 1/2, 1); the growth exponent rides in the properness call.
    _, _, geo = su21
    assert geo.dim_t >= 3 and geo.dim_c > 0
    families, _ = stage_families(geo)
    calls = []
    stages = [MoserStage(counted_family(fam, calls), 5) for fam in families]
    for owner, attr in ((OrbitGeometry, "fiber_eig"), (OrbitGeometry, "kappa"),
                        (moser, "_chart_frames")):
        _count_calls(monkeypatch, owner, attr, calls)
    check_hypotheses(stages, np.random.default_rng(0))
    mapped_zero = [("moment", (6,)), ("omega", (3, 1))]
    want = (
        ["fiber_eig", "kappa"] + [("moment", (11, 1))] * 3
        + ["_chart_frames", "fiber_eig", "kappa"] + [("omega", (336,))] * 3
        + ["fiber_eig", "kappa"] + mapped_zero * 2
        + [("moment", (6,)),
           "_chart_frames", "kappa", "fiber_eig", ("primitive", (144,)),
           "_chart_frames", "fiber_eig", "kappa", ("domega_dt", (42,)),
           ("primitive", (6,)), ("omega", (3, 1)), ("domega_dt", (6,))]
    )
    assert calls == want


def test_hypothesis_pass_draws_once_and_builds_one_stokes_chart(su21, monkeypatch):
    # one _draw_chart_points call and one Stokes _chart_frames call for all
    # stages; the flowed segment adds its circulation and flux charts
    _, _, geo = su21
    families, _ = stage_families(geo)
    for fams, charts in ((families, 3), (families[:2], 1)):
        calls = []
        _count_calls(monkeypatch, moser, "_draw_chart_points", calls)
        _count_calls(monkeypatch, moser, "_chart_frames", calls)
        check_hypotheses([MoserStage(f, 5) for f in fams],
                         np.random.default_rng(0))
        assert calls.count("_draw_chart_points") == 1
        assert calls.count("_chart_frames") == charts
        monkeypatch.undo()


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
    assert families[2].time_one is None
    ks, zs = repeated_fiber_batch(geo, np.random.default_rng(23))
    steps = 6
    for fam in families[:2]:
        assert fam.time_one is not None
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


def assert_same_flow(got, ref):
    assert np.array_equal(got.k, ref.k)
    assert np.array_equal(got.z, ref.z)
    for key in ("steps", "min_form_margin", "max_group_residual", "reprojections",
                "field_lanes"):
        assert getattr(got.trace, key) == getattr(ref.trace, key), key
    assert np.array_equal(got.trace.fiber_sup, ref.trace.fiber_sup)


@ALGEBRAS
def test_deferred_k_update_matches_per_step_loop(family, params):
    # the stored stage velocities give the per-step loop's dexpinv, group_exp
    # factors and products; measured equal to the last bit
    geo = generic_geometry(family, params)
    fam = stage_families(geo)[0][2]
    ks, zs = rand_batch(geo, np.random.default_rng(5), 7)
    for steps in (3, 10):
        assert_same_flow(integrate_flow(fam, ks, zs, steps),
                         integrate_flow_per_step(fam, ks, zs, steps))


def test_drifted_group_step_is_reprojected_at_its_step(su21, monkeypatch):
    # group_exp returns factors about 1e-9 off K at steps 1 and 4: the
    # deferred update replays from each and counts both, as the per-step
    # loop does after each of those steps
    _, _, geo = su21
    fam = segment_stage(geo, delta_for(geo))
    ks, zs = rand_batch(geo, np.random.default_rng(33), 4, radius=0.5)
    real = MatrixLieAlgebra.group_exp
    drift_at, seen = (1, 4), []

    def drifting(self, u):
        out = real(self, u)
        if u.ndim == 3:  # integrate_flow: every step's factor in one call
            out[list(drift_at)] *= 1.0 + 1e-9
        else:  # the per-step loop: one call a step
            seen.append(None)
            if len(seen) - 1 in drift_at:
                out *= 1.0 + 1e-9
        return out

    monkeypatch.setattr(MatrixLieAlgebra, "group_exp", drifting)
    got = integrate_flow(fam, ks, zs, 6)
    ref = integrate_flow_per_step(fam, ks, zs, 6)
    assert len(seen) == 6
    assert got.trace.reprojections == 2
    assert got.trace.max_group_residual > 1e-9
    assert_same_flow(got, ref)


# the su(2,1) fixture weight, sp(4,R) at (2, 1), and su(2,2) and su(3,1) at
# their tier-1 generic weights
JACOBIAN_MODELS = [
    ("su", {"p": 2, "q": 1}, (0.8660254037844386, 2.0999999999999996)),
    ("sp", {"n": 2}, (2.0, 1.0)),
    ("su", {"p": 2, "q": 2}, (0.42654310306871945, 0.9179862439359936, 0.17449996586169148)),
    ("su", {"p": 3, "q": 1}, (1.0318040094257124, 0.05103489304831221, 1.7164168831880247)),
]


@pytest.mark.parametrize("family,params,lam", JACOBIAN_MODELS,
                         ids=["su21", "sp4", "su22", "su31"])
def test_base_rows_match_finite_difference_oracle(family, params, lam):
    # the equivariance rows against central differences along the base
    # directions, flowed through all three stages: measured at most 1.1e-10
    # relative.  verify_pullback's stage and composite defects differ from
    # the all-differences ones by at most 1.3e-11 of the forms' scale (1.1e-10
    # on entries of order 8)
    alg = build_algebra(family, **params)
    geo = OrbitGeometry(alg, compute_root_datum(alg), ChamberWeight(np.array(lam)))
    assert geo.dim_c > 0
    families, _ = stage_families(geo)
    stages = [MoserStage(fam, 10) for fam in families]
    ks, zs = rand_batch(geo, np.random.default_rng(5), 3, radius=0.4)
    eps, c = 1e-4, geo.dim_c
    points, jacs = finite_difference_jacobians(stages, ks, zs, eps)
    for s in range(1, len(jacs)):
        rows = _base_rows(geo, points[0], points[s], jacs[s][:, c:])
        assert np.abs(rows - jacs[s][:, :c]).max() <= 1e-8 * np.abs(jacs[s]).max(), s

    def pulled(s, fam, t):
        return jacs[s] @ fam.omega(*points[s], t) @ np.swapaxes(jacs[s], -1, -2)

    out = verify_pullback(stages, ks, zs, eps=eps, rng=np.random.default_rng(0))
    scale = max(np.abs(pulled(s, families[0], 0.0)).max() for s in range(len(jacs)))
    want = [pulled(s + 1, fam, 1.0) - pulled(s, fam, 0.0) for s, fam in enumerate(families)]
    for block, ref in zip(out["stage_blocks"], want):
        assert np.abs(block.defect - ref).max() <= 1e-10 * scale
    ref = pulled(len(stages), families[-1], 1.0) - pulled(0, families[0], 0.0)
    assert np.abs(out["block"].defect - ref).max() <= 1e-10 * scale


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
    # one sample: a centre lane, 2 dim_p fiber lanes, one equivariance
    # partner and four zero-section lanes.  The vertical stages are mapped
    # exactly, so they report no steps, field evaluations or lanes; the
    # segment stage flows every lane.
    _, _, geo = su21
    assert geo.dim_c > 0
    families, _ = stage_families(geo)
    rng = np.random.default_rng(26)
    ks, zs = rand_batch(geo, rng, 1, radius=0.5)
    every = 1 + 2 * geo.dim_p + 1 + 4
    for fam, evals in zip(families, (0, 0, 20)):
        out = verify_pullback([MoserStage(fam, 5)], ks, zs, rng=np.random.default_rng(0))
        assert out["field_evaluations"] == evals, fam.name
        assert out["field_lanes"] == evals * every, fam.name
        assert out["reprojections"] == 0, fam.name
        if fam.time_one is not None:
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
    half_root_c = 0.5 * np.sqrt(fiber_s(geo.fiber_eig(e[None])).max())
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
    zs /= np.linalg.norm(zs, axis=1)[:, None]
    for fam in families[:2]:
        res = [verify_pullback([MoserStage(fam, 0)], ks, zs, eps=eps,
                               rng=np.random.default_rng(0))["pullback_residual"]
               for eps in (2e-4, 1e-4, 5e-5)]
        assert res[0] / res[1] > 3.0, fam.name
        assert res[1] / res[2] > 3.0, fam.name


def test_degenerate_difference_lane_raises_through_the_solve_margin(su21):
    # every lane takes its margin bound from the one solve of the field, so a
    # difference lane whose form is singular while its centre's is not stops
    # the flow
    _, _, geo = su21
    base = constant_stage(geo)
    rng = np.random.default_rng(28)
    ks, zs = rand_batch(geo, rng, 2, radius=0.5)
    eps = 1e-4
    # keyed on the spectrum of ad(Z)^2, which conjugation by K keeps, so the
    # family is K-invariant like every family integrate_flow accepts
    target = fiber_s(geo.fiber_eig(zs[1] + eps * np.eye(geo.dim_p)[0]))

    def omega(spec, kap, t):
        out = base.omega(spec, kap, t)
        out[np.abs(fiber_s(spec) - target).max(axis=-1) < 1e-9] = 0.0
        return out

    singular = dataclasses.replace(base, name="singular-lane", omega=omega)
    with pytest.raises(RuntimeError, match="singular-lane family degenerates along the flow"):
        verify_pullback([MoserStage(singular, 4)], ks, zs, eps=eps, rng=np.random.default_rng(0))
    # the centres' forms are regular; the one singular lane is a difference lane
    _, diff_z = difference_lanes(geo, ks, zs, eps)
    forms = omega(geo.fiber_eig(np.concatenate([zs, diff_z])), None, 0.0)
    assert (np.abs(forms).max(axis=(-2, -1)) == 0.0).sum() == 1
    assert _form_margin(singular, forms[:2], 0.0)[1] > 0.1
    msg = r"margin 0\.000e\+00 at t = 0\.0000\): Singular matrix"
    with pytest.raises(RuntimeError, match=msg):
        _form_margin(singular, forms, 0.0)


@oracle_geometries()
def test_segment_evaluators_at_the_identity_match_identity_kappa(family, params):
    # kap = None is k = e: the blended fiber and c-p blocks, the hoisted row
    # matrix, and the derivative and moment through pullback_blocks and klam,
    # against the general path at Ad(e) = I (measured within 4.7e-16 of the
    # forms' scale)
    geo = generic_geometry(family, params)
    fam = segment_stage(geo, delta_for(geo))
    ks, zs = rand_batch(geo, np.random.default_rng(35), 7)
    zs[-1] = 0.0
    spec, eye = geo.fiber_eig(zs), np.eye(geo.alg.dim)
    for t in (0.3, np.linspace(0.0, 1.0, 7), np.array([[0.0], [0.45], [1.0]])):
        for name in EVALUATORS:
            got, want = (evaluate(fam, name, (spec, kap, zs), t) for kap in (None, eye))
            assert got.shape == want.shape, name
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (name, np.shape(t))


def test_margin_bound_brackets_the_least_singular_value(su11):
    # 1/||omega^{-1}||_F lies in [sigma_min / sqrt(T), sigma_min / sqrt(2)]
    # for a skew form, whose singular values come in pairs
    fam = dataclasses.replace(constant_stage(su11[2]), name="skew")
    rng = np.random.default_rng(36)
    for t_dim in (2, 4, 6, 8):
        a = rng.standard_normal((40, t_dim, t_dim))
        forms = a - np.swapaxes(a, -1, -2)
        sigma = np.linalg.svd(forms, compute_uv=False)[:, -1]
        for form, s_min in zip(forms, sigma):
            _, bound = _form_margin(fam, form[None], 0.3)
            assert s_min / np.sqrt(t_dim) * (1 - 1e-12) <= bound, t_dim
            assert bound <= s_min / np.sqrt(2.0) * (1 + 1e-12), t_dim
    # a form with one pair of singular values 1e-12 fails the 1e-10 guard
    q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    j = np.zeros((6, 6))
    for i, s in enumerate((1e-12, 1.0, 2.0)):
        j[2 * i, 2 * i + 1], j[2 * i + 1, 2 * i] = s, -s
    form = q @ j @ q.T
    assert abs(np.linalg.svd(form, compute_uv=False)[-1] - 1e-12) < 1e-14
    with pytest.raises(RuntimeError, match=r"skew family degenerates along the flow "
                                           r"\(margin [0-9.]+e-1[0-9] at t = 0\.3000\)"):
        _form_margin(fam, form[None], 0.3)


def test_moser_field_takes_one_solve_and_no_svd(su21, monkeypatch):
    _, _, geo = su21
    ks, zs = rand_batch(geo, np.random.default_rng(37), 5)
    for kap in (geo.kappa(ks), None):
        calls = []
        for attr in ("solve", "svd", "inv", "eigh"):
            _count_calls(monkeypatch, np.linalg, attr, calls)
        moser_field(segment_stage(geo, delta_for(geo)), kap, zs, 0.4)
        assert calls == ["solve"]
        monkeypatch.undo()


@pytest.mark.parametrize("family,params", [("su", {"p": 1, "q": 1}), ("su", {"p": 2, "q": 1}),
                                           ("sp", {"n": 2})], ids=["su11", "su21", "sp4"])
def test_properness_gamma_matches_polyfit(family, params):
    # the closed-form least-squares slope against np.polyfit of the same gaps,
    # formed here at kap = I
    geo = generic_geometry(family, params)
    t, radii = 0.5, np.geomspace(0.05, 0.4, 6)
    e = _root_probe_fibers(geo, radii=(1.0,))[0]
    zs = np.concatenate([np.outer(radii, e), np.zeros((6, len(e)))])
    for fam in stage_families(geo)[0]:
        phi = fam.moment(geo.fiber_eig(zs), np.eye(geo.alg.dim), t)
        vals = (phi[:6] - phi[6:]) @ fam.pairing_direction(t)
        want = np.polyfit(np.log(radii), np.log(vals), 1)[0]
        assert abs(properness_gamma(fam) - want) <= 1e-12, fam.name
