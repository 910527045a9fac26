from functools import partial

import numpy as np
import pytest

from holomoser import build_algebra
from holomoser.forms import (
    OrbitGeometry,
    _moment_identity_sides,
    bracket_positivity_slack,
    measure_convention_constants,
    moment_delta,
    moment_flat,
    moment_hermitian,
    moment_identity_residual,
    moment_product,
    moment_pullback,
    moment_segment,
)
from holomoser.pipeline import _radial_fibers, _random_chamber_weights
from holomoser.roots import ChamberWeight, compute_root_datum, pairing_matrix

import oracles
from oracles import (
    form_delta,
    form_hermitian,
    form_product,
    form_pullback,
    form_segment,
    product_matrix,
)


@pytest.fixture(scope="module")
def su21():
    alg = build_algebra("su", p=2, q=1)
    datum = compute_root_datum(alg)
    w = oracles.weight_from_matrix(alg, 1j * np.diag([0.6, 0.1, -0.7]))
    return alg, datum, OrbitGeometry(alg, datum, w)


@pytest.fixture(scope="module")
def su21_flat(su21):
    alg, datum, _ = su21
    return OrbitGeometry(alg, datum, datum.lambda0)


@pytest.fixture(scope="module")
def su11():
    alg = build_algebra("su", p=1, q=1)
    datum = compute_root_datum(alg)
    return alg, datum, OrbitGeometry(alg, datum, datum.lambda0)


def rand_point(geo, rng, radius=1.5):
    """One point as a batch of size one: (ks, zs) of shapes (1, a, a), (1, p)."""
    k = geo.alg.group_exp(rng.standard_normal(geo.alg.dim_k))
    return k[None], radius * rng.standard_normal(geo.dim_p)[None]


def identity_pairs(geo, delta):
    """The five (form_at, moment_at) pairs, each batched over points (ks, zs)."""
    return [
        (partial(form_pullback, geo), partial(moment_pullback, geo)),
        (partial(form_product, geo), partial(moment_product, geo)),
        (
            partial(form_delta, geo, delta=delta),
            partial(moment_delta, geo, delta=delta),
        ),
        (
            partial(form_segment, geo, t=0.4, delta=delta),
            partial(moment_segment, geo, t=0.4, delta=delta),
        ),
        (partial(form_hermitian, geo, t=0.7), partial(moment_hermitian, geo, t=0.7)),
    ]


def margin(form):
    return float(np.linalg.svd(form, compute_uv=False).min())


def test_geometry_rejects_weights_outside_chamber(su21):
    alg, datum, _ = su21
    bad = oracles.weight_from_matrix(alg, 1j * np.diag([-0.6, -0.1, 0.7]))
    with pytest.raises(ValueError, match="chamber"):
        OrbitGeometry(alg, datum, bad)


def test_tangent_basis_full_rank(su21):
    # concrete differentials of the K-action at kl plus the fiber identity
    alg, _, geo = su21
    rng = np.random.default_rng(0)
    k = alg.group_exp(rng.standard_normal(alg.dim_k))
    kl = geo.klam(geo.kappa(k[None]))[0]
    adk = alg.adjoint_group_matrix(k)
    rows = []
    for i in range(geo.dim_c):
        gen = adk @ geo.complement[:, i]
        rows.append(-alg.ad(gen).T @ kl)
    sv = np.linalg.svd(np.stack(rows), compute_uv=False)
    assert sv.min() > 1e-6


def test_split_and_unsplit_formulas_agree(su21):
    _, _, geo = su21
    rng = np.random.default_rng(1)
    for _ in range(100):
        ks, zs = rand_point(geo, rng, radius=rng.uniform(0.1, 2.5))
        a = form_pullback(geo, ks, zs)
        b = oracles.unsplit_pullback_blocks(geo, zs, geo.kappa(ks))
        assert np.abs(a - b).max() < 1e-10


def test_pullback_matches_orbit_chart(su21):
    # the KKS form <xi, [x_i, x_j]> at xi = Gamma(k lambda, Z), with x_i solving
    # dGamma(u_i) = <xi, [., x_i]> for the tangent basis u_i
    alg, _, geo = su21
    rng = np.random.default_rng(16)
    for _ in range(5):
        ks, zs = rand_point(geo, rng, radius=rng.uniform(0.1, 2.5))
        k, z = ks[0], zs[0]
        xi = oracles.gamma_map(alg, geo.weight, k, z)
        basis = [(geo.complement[: alg.dim_k, i], np.zeros(geo.dim_p))
                 for i in range(geo.dim_c)]
        basis += [(np.zeros(alg.dim_k), e) for e in np.eye(geo.dim_p)]
        vs = np.stack(
            [oracles.d_gamma(alg, geo.weight, k, z, x, a) for x, a in basis], axis=1
        )
        m_xi = pairing_matrix(alg, xi)
        xs = np.linalg.lstsq(m_xi, vs, rcond=None)[0]
        assert np.abs(m_xi @ xs - vs).max() < 1e-12
        assert np.abs(xs.T @ m_xi @ xs - form_pullback(geo, ks, zs)[0]).max() < 1e-12


def test_pullback_zero_fiber_reduction(su21):
    alg, _, geo = su21
    rng = np.random.default_rng(2)
    k = alg.group_exp(rng.standard_normal(alg.dim_k))
    kl = geo.klam(geo.kappa(k[None]))[0]
    fiber = np.einsum("nmk,k->nm", alg.structure, kl)[alg.dim_k :, alg.dim_k :]
    expect = np.zeros((geo.dim_t, geo.dim_t))
    expect[: geo.dim_c, : geo.dim_c] = geo.base_block
    expect[geo.dim_c :, geo.dim_c :] = fiber
    got = form_pullback(geo, k[None], np.zeros((1, geo.dim_p)))[0]
    assert np.abs(got - expect).max() < 1e-12


def test_pullback_nondegenerate_on_samples(su21):
    _, _, geo = su21
    rng = np.random.default_rng(3)
    margins = [
        margin(form_pullback(geo, *rand_point(geo, rng, rng.uniform(0.05, 2.0)))[0])
        for _ in range(500)
    ]
    assert min(margins) > 1e-6


def test_product_form_and_flat_margin(su11, su21):
    # su(1,1) at lambda_0: the fiber block of the product form is ad(z0)|_p,
    # an isometry, so the nondegeneracy margin is exactly 1
    _, _, geo11 = su11
    form = form_product(geo11, np.eye(2, dtype=complex)[None], np.array([[0.3, -0.8]]))
    assert abs(margin(form[0]) - 1.0) < 1e-12
    # form matrix squares to -id on the fiber block
    _, _, geo = su21
    blk = product_matrix(geo)[geo.dim_c :, geo.dim_c :]
    assert np.abs(blk @ blk + np.eye(geo.dim_p)).max() < 1e-12


def test_gauge_invariance_of_margin(su21):
    # replacing k by k h for h in K_lambda rotates the tangent basis
    # orthogonally: singular values of the form matrix are unchanged
    alg, _, geo = su21
    rng = np.random.default_rng(4)
    k = alg.group_exp(rng.standard_normal(alg.dim_k))
    zp = rng.standard_normal(geo.dim_p)
    h = alg.group_exp(geo.split.kernel @ rng.standard_normal(geo.split.kernel.shape[1]))
    m1 = margin(form_pullback(geo, k[None], zp[None])[0])
    m2 = margin(form_pullback(geo, (k @ h)[None], zp[None])[0])
    assert abs(m1 - m2) < 1e-10


def test_forms_are_K_invariant(su21):
    # transported tangents keep their coordinates in the moving frame
    alg, _, geo = su21
    rng = np.random.default_rng(5)
    ks, zs = rand_point(geo, rng)
    kp = alg.group_exp(rng.standard_normal(alg.dim_k))
    moved_z = (alg.adjoint_group_matrix(kp) @ alg.embed_p(zs[0]))[alg.dim_k :]
    adk = alg.adjoint_group_matrix(kp)[alg.dim_k :, alg.dim_k :]
    u_x, u_a = rng.standard_normal(geo.dim_c), rng.standard_normal(geo.dim_p)
    v_x, v_a = rng.standard_normal(geo.dim_c), rng.standard_normal(geo.dim_p)
    u, v = np.concatenate([u_x, u_a]), np.concatenate([v_x, v_a])
    u_m, v_m = np.concatenate([u_x, adk @ u_a]), np.concatenate([v_x, adk @ v_a])
    for fn in (form_pullback, form_product):
        here = u @ fn(geo, ks, zs)[0] @ v
        there = u_m @ fn(geo, kp @ ks, moved_z[None])[0] @ v_m
        assert abs(here - there) < 1e-10


def test_segment_family_is_affine_and_matches_endpoints(su21):
    _, _, geo = su21
    rng = np.random.default_rng(6)
    pt = rand_point(geo, rng)
    delta = 1.5
    pull = form_pullback(geo, *pt)
    dl = form_delta(geo, *pt, delta)
    for t in (0.0, 0.25, 1.0):
        seg = form_segment(geo, *pt, t, delta)
        assert np.abs(seg - (t * dl + (1 - t) * pull)).max() == 0.0


def test_hermitian_family_endpoints(su21):
    _, _, geo = su21
    rng = np.random.default_rng(7)
    pt = rand_point(geo, rng)
    assert np.abs(form_hermitian(geo, *pt, 0.0) - product_matrix(geo)).max() < 1e-12
    assert np.abs(form_hermitian(geo, *pt, 1.0) - form_delta(geo, *pt, 1.0)).max() < 1e-12


def test_moment_values_at_zero_fiber(su21):
    alg, datum, geo = su21
    delta = 1.5
    pt = (np.eye(3, dtype=complex)[None], np.zeros((1, geo.dim_p)))
    lam = geo.lam
    lam0 = geo.lam0
    assert np.abs(moment_pullback(geo, *pt) - lam).max() < 1e-12
    # segment endpoints: phi_0 = lambda, phi_1 = lambda + delta lambda_0
    assert np.abs(moment_segment(geo, *pt, 0.0, delta) - lam).max() < 1e-12
    assert np.abs(moment_segment(geo, *pt, 1.0, delta) - (lam + delta * lam0)).max() < 1e-12
    assert np.abs(moment_segment(geo, *pt, 0.3, delta) - (lam + 0.3 * delta * lam0)).max() < 1e-12
    assert np.abs(moment_product(geo, *pt) - lam).max() < 1e-12


def test_moment_identities_all_pairs(su21):
    _, _, geo = su21
    rng = np.random.default_rng(8)
    delta = 1.5
    draws = [
        (rng.standard_normal(geo.alg.dim_k), rng.standard_normal(geo.dim_p))
        for _ in range(5)
    ]
    ks = geo.alg.group_exp(np.array([x for x, _ in draws]))
    zs = np.array([z for _, z in draws])
    gens = rng.standard_normal((5, geo.alg.dim_k))

    for form_at, mom_at in identity_pairs(geo, delta):
        res = moment_identity_residual(geo, form_at, mom_at, ks, zs, gens, eps=1e-5)
        assert res < 1e-6


def test_flat_moment_identity_with_factor_two(su21_flat):
    geo = su21_flat
    rng = np.random.default_rng(9)
    zs = rng.standard_normal((5, geo.dim_p))
    ks = np.broadcast_to(np.eye(3, dtype=complex), (5, 3, 3))
    gens = rng.standard_normal((5, geo.alg.dim_k))
    # the flat display is twice the moment of the product form; 5e-7 on
    # half the display is 1e-6 on the display itself
    res = moment_identity_residual(
        geo,
        lambda k, z: form_product(geo, k, z),
        lambda k, z: 0.5 * moment_flat(geo, z),
        ks,
        zs,
        gens,
        eps=1e-5,
    )
    assert res < 5e-7


@pytest.mark.parametrize(
    "case", ["pullback", "product", "delta", "segment", "hermitian", "flat"]
)
def test_moment_identity_lanes_match_loop_oracle(case, su21, su21_flat):
    # every finite-difference lane of the batch against the one-lane-at-a-time
    # loop; the generic weight has dim_c = 2 base directions, lambda_0 none
    rng = np.random.default_rng(11)
    if case == "flat":
        geo = su21_flat
        form_at = partial(form_product, geo)
        mom_at = lambda k, z: moment_flat(geo, z)  # noqa: E731
    else:
        _, _, geo = su21
        names = ["pullback", "product", "delta", "segment", "hermitian"]
        form_at, mom_at = identity_pairs(geo, 1.5)[names.index(case)]
    ks = geo.alg.group_exp(rng.standard_normal((4, geo.alg.dim_k)))
    zs = rng.standard_normal((4, geo.dim_p))
    gens = rng.standard_normal((4, geo.alg.dim_k))
    lhs, rhs = _moment_identity_sides(geo, form_at, mom_at, ks, zs, gens, 1e-5)
    lhs_ref, rhs_ref = oracles.moment_identity_rows_loop(
        geo,
        lambda k, z: form_at(k[None], z[None])[0],
        lambda k, z: mom_at(k[None], z[None])[0],
        list(zip(ks, zs)),
        gens,
        eps=1e-5,
    )
    assert lhs.shape == lhs_ref.shape == (4, geo.dim_t)
    # the roundoff floor of a central difference at eps = 1e-5
    assert np.abs(lhs - lhs_ref).max() <= 1e-9
    assert np.abs(rhs - rhs_ref).max() <= 1e-12
    assert np.abs(lhs_ref).max() > 1e-2


def test_measured_convention_constants(su21):
    _, _, geo = su21
    consts = measure_convention_constants(geo, np.random.default_rng(10))
    assert abs(consts["flat_display_factor"] - 2.0) < 1e-6
    assert abs(consts["product_display_fiber_sign"] + 1.0) < 1e-6


@pytest.mark.parametrize("family,params", [
    ("su", {"p": 1, "q": 1}), ("su", {"p": 2, "q": 1}), ("sp", {"n": 2}),
    ("su", {"p": 2, "q": 2}), ("su", {"p": 3, "q": 1}), ("su", {"p": 3, "q": 2}),
], ids=["su11", "su21", "sp4", "su22", "su31", "su32"])
def test_convention_constants_match_the_point_loop(family, params):
    # same draws in the same order; the difference quotients over 2e-6 carry
    # the batch's other summation order, measured at most 7.8e-11
    alg = build_algebra(family, **params)
    datum = compute_root_datum(alg)
    geo = OrbitGeometry(alg, datum, datum.lambda0)
    for seed in range(5):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = measure_convention_constants(geo, rng)
        want = oracles.convention_constants_loop(geo, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        for key, value in want.items():
            assert abs(got[key] - value) <= 1e-9, (seed, key)


def test_pullback_growth_inequality(su21_flat):
    # <Phi_{Gamma_0 Omega}(Z) - lambda_0, z0> >= ||Z||^2/2 with slack >= -1e-10
    geo = su21_flat
    rng = np.random.default_rng(11)
    eye = np.eye(3, dtype=complex)[None]
    for _ in range(200):
        zp = rng.uniform(0.05, 3.0) * _unit_fiber(geo, rng)
        phi = moment_hermitian(geo, eye, zp[None], 1.0)[0]
        slack = (phi - geo.lam0) @ geo.z0 - 0.5 * zp @ zp
        assert slack >= -1e-10


def test_flat_moment_exact_quadratic_pairing(su21_flat):
    # <lambda_0 o ad(Z)^2, z0> = ||Z||^2 exactly
    geo = su21_flat
    rng = np.random.default_rng(12)
    for _ in range(200):
        zp = rng.uniform(0.05, 3.0) * _unit_fiber(geo, rng)
        val = moment_flat(geo, zp[None])[0] @ geo.z0
        assert abs(val - zp @ zp) < 1e-10 * max(1.0, zp @ zp)


def test_hermitian_moment_continuity_and_endpoints(su21):
    _, _, geo = su21
    rng = np.random.default_rng(13)
    pt = rand_point(geo, rng)
    small = moment_hermitian(geo, *pt, 1e-9)
    zero = moment_hermitian(geo, *pt, 0.0)
    assert np.abs(small - zero).max() < 1e-9
    assert np.abs(zero - moment_product(geo, *pt)).max() < 1e-12
    # same form as the delta family at t=1, moments differ by the constant
    # lambda_0 (integration constants anchor hermitian at the product moment)
    gap = moment_delta(geo, *pt, 1.0) - moment_hermitian(geo, *pt, 1.0)
    assert np.abs(gap - geo.lam0).max() < 1e-12


def test_moment_equivariance(su21):
    alg, _, geo = su21
    rng = np.random.default_rng(14)
    ks, zs = rand_point(geo, rng)
    kp = alg.group_exp(rng.standard_normal(alg.dim_k))
    moved_z = (alg.adjoint_group_matrix(kp) @ alg.embed_p(zs[0]))[alg.dim_k :]
    coad = oracles.coadjoint_group_matrix(alg, kp)
    moved = moment_pullback(geo, kp @ ks, moved_z[None])[0]
    assert np.abs(moved - coad @ moment_pullback(geo, ks, zs)[0]).max() < 1e-10


def test_bracket_positivity_inequality(su21):
    alg, datum, geo = su21
    rng = np.random.default_rng(15)
    w1 = geo.weight
    w2 = oracles.weight_from_matrix(alg, 1j * np.diag([0.9, 0.4, -1.3]))
    for _ in range(300):
        zp = rng.uniform(0.05, 2.5) * _unit_fiber(geo, rng)
        _, _, slack = bracket_positivity_slack(datum, w1, w2, zp)
        assert slack >= -1e-10
    # equality when both weights are lambda_0
    zp = _unit_fiber(geo, rng)
    lhs, rhs, _ = bracket_positivity_slack(datum, datum.lambda0, datum.lambda0, zp)
    assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize(
    "family, params",
    [("su", dict(p=2, q=1)), ("sp", dict(n=2)), ("su", dict(p=2, q=2)), ("su", dict(p=3, q=1))],
    ids=["su21", "sp4", "su22", "su31"],
)
def test_batched_bracket_slack_matches_full_size_point_form(family, params, monkeypatch):
    # lhs from two brackets against x_1^T ad(Z)^2 x_2 one point at a time, on
    # 256 chamber-weight pairs and fibers and at the equality case lambda_0;
    # the batched call builds no ad(Z)
    alg = build_algebra(family, **params)
    datum = compute_root_datum(alg)
    rng = np.random.default_rng(41)
    pairs = _random_chamber_weights(datum, rng, 512)
    zs = _radial_fibers(alg.dim_p, rng, 256, 2.5)
    unit = zs[0] / np.linalg.norm(zs[0])
    want = np.array([
        oracles.bracket_slack_point(
            datum, ChamberWeight(pairs[2 * i]), ChamberWeight(pairs[2 * i + 1]), z
        )
        for i, z in enumerate(zs)
    ]).T
    want_eq = oracles.bracket_slack_point(datum, datum.lambda0, datum.lambda0, unit)

    ad_calls = []
    real_ad = alg.ad
    monkeypatch.setattr(alg, "ad", lambda x: ad_calls.append(None) or real_ad(x))
    got = bracket_positivity_slack(
        datum, ChamberWeight(pairs[0::2]), ChamberWeight(pairs[1::2]), zs
    )
    got_eq = bracket_positivity_slack(datum, datum.lambda0, datum.lambda0, unit)
    assert ad_calls == []

    assert np.all(np.abs(got[0] - want[0]) <= 1e-13 * np.abs(want[0]))
    assert np.all(np.abs(got[1] - want[1]) <= 1e-14 * want[1])
    assert np.abs(got[2] - want[2]).max() <= 1e-13 * np.abs(want[0]).max()
    assert got[2].min() >= 0.0
    assert abs(got_eq[0] - want_eq[0]) <= 1e-13 * abs(want_eq[0])
    assert abs(got_eq[0] - got_eq[1]) <= 1e-13 * abs(want_eq[0])


def _unit_fiber(geo, rng):
    v = rng.standard_normal(geo.dim_p)
    return v / np.linalg.norm(v)
