"""The half-size spectral layer against the eigh of ad(Z) and of A^T A."""

import math

import numpy as np
import pytest

from holomoser import build_algebra
from holomoser.forms import OrbitGeometry
from holomoser.moser import (
    _root_probe_fibers,
    hermitian_stage,
    homotopy_primitive,
    integrate_flow,
    scaling_stage,
    segment_stage,
)
from holomoser.operators import _SINHC_CHUNK, FiberSpectrum
from holomoser.pipeline import _random_chamber_weights
from holomoser.roots import ChamberWeight, chamber_constants, compute_root_datum

from oracles import (
    FullSizeReference,
    G,
    even,
    f_plus,
    f_plus_prime,
    f_plus_prime_s,
    f_plus_s,
    fiber_s,
    hermitian_radial,
)

ALGEBRAS = [
    ("su", {"p": 1, "q": 1}),
    ("su", {"p": 2, "q": 1}),
    ("sp", {"n": 1}),
    ("sp", {"n": 2}),
    ("su", {"p": 2, "q": 2}),
    ("su", {"p": 3, "q": 1}),
]
IDS = ["su11", "su21", "sp2", "sp4", "su22", "su31"]


def test_f_plus_prime_matches_its_taylor_sum():
    # d/dnu sinh(nu)/nu = sum_n 2n nu^(2n-1) / (2n+1)!, summed exactly by
    # math.fsum over 20 terms, on 2,000 points just above the old series cut
    # |nu| = 1e-2 up to 0.5; the oracle is odd and vanishes at 0
    nus = np.linspace(1e-2, 0.5, 2000)
    want = np.array([
        math.fsum(2 * n * nu ** (2 * n - 1) / math.factorial(2 * n + 1) for n in range(1, 21))
        for nu in nus
    ])
    got = f_plus_prime(nus)
    assert np.abs(got / want - 1.0).max() <= 1e-14
    assert np.array_equal(f_plus_prime(-nus), -got)
    assert f_plus_prime(0.0) == 0.0


def _close(got, want, tol=1e-12):
    err = float(np.abs(got - want).max())
    return err <= tol * float(np.abs(want).max()), err


@pytest.mark.parametrize("family,params", ALGEBRAS, ids=IDS)
def test_half_size_layer_matches_full_size_reference(family, params):
    alg = build_algebra(family, **params)
    datum = compute_root_datum(alg)
    (row,) = _random_chamber_weights(datum, np.random.default_rng(0), count=1)
    weight = ChamberWeight(row)
    geo = OrbitGeometry(alg, datum, weight)
    _, b_lam = chamber_constants(weight, datum)
    delta = 1.5 * b_lam
    rng = np.random.default_rng(29)
    n = 6
    zs = rng.standard_normal((n, geo.dim_p))
    zs *= (rng.uniform(0.05, 3.0, n) / np.linalg.norm(zs, axis=1))[:, None]
    # a zero lane and a root-plane lane, whose A has repeated singular values
    root_plane = 1.3 * _root_probe_fibers(geo, (1.0,))[0]
    zs = np.concatenate([zs, np.zeros((1, geo.dim_p)), root_plane[None]])
    ks = alg.group_exp(rng.standard_normal((len(zs), alg.dim_k)))
    kap = geo.kappa(ks)
    kl = geo.klam(kap)
    spec = geo.fiber_eig(zs)
    ref = FullSizeReference(geo, zs)

    s = fiber_s(spec)
    nonzero = np.sort(s[-1][s[-1] > 1e-12])
    if geo.dim_p > 2:
        assert np.min(np.diff(nonzero)) < 1e-12
    assert np.abs(s[-2]).max() == 0.0

    checks = {
        "pullback_blocks": (geo.pullback_blocks(spec, kap), ref.pullback_blocks(kap)),
        "delta_blocks": (geo.delta_blocks(spec, delta), ref.delta_blocks(delta)),
        "moment_pullback": (geo.moment_pullback(spec, kl), ref.moment_pullback(kl)),
        "moment_delta": (geo.moment_delta(spec, kl, delta), ref.moment_delta(kl, delta)),
        "moment_flat": (geo.moment_flat(spec.a), ref.moment_flat()),
        "moment_product": (geo.moment_product(spec, kl), ref.moment_product(kl)),
    }
    stages = [hermitian_stage(geo), scaling_stage(geo, delta), segment_stage(geo, delta)]
    for t in (0.0, 0.3, 1.0):
        checks[f"hermitian_blocks t={t}"] = (
            geo.hermitian_blocks(spec, t), ref.hermitian_blocks(t))
        checks[f"hermitian_dt_blocks t={t}"] = (
            geo.hermitian_dt_blocks(spec, t), ref.hermitian_dt_blocks(t))
        checks[f"moment_segment t={t}"] = (
            geo.moment_segment(spec, kl, t, delta), ref.moment_segment(kl, t, delta))
        checks[f"moment_hermitian t={t}"] = (
            geo.moment_hermitian(spec, kl, t), ref.moment_hermitian(kl, t))
        for fam in stages:
            checks[f"{fam.name} primitive t={t}"] = (
                homotopy_primitive(fam, spec, kap, zs, t),
                ref.primitive(fam.name, kap, t, delta),
            )
    for name, (got, want) in checks.items():
        assert got.shape == want.shape, name
        ok, err = _close(got, want)
        assert ok, (name, err)


def _gauss(fn, nodes=40):
    """int_0^1 fn(r) dr by the Gauss-Legendre rule with the given nodes."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    r = 0.5 * (x + 1.0)
    return 0.5 * sum(wi * fn(ri) for ri, wi in zip(r, w))


@pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
def test_radial_closed_forms_match_quadrature(t):
    # x = t nu; at t = 0 every x is taken as nu, where the primitive is 0.
    # Both the oracle closed forms and the kernel's blocks at the 1 x 1
    # block A = [[nu]] (M = nu^2) must match the quadrature
    for x in (0.0, 3e-7, 3e-4, 1e-2, 0.5, 3.0):
        nu = x / t if t > 0 else x
        spec = FiberSpectrum(np.array([[[nu]]]))
        herm = _gauss(lambda r: r * (r * nu) * f_plus_prime(t * r * nu))
        kernel = 2.0 * t * spec.sinhc_dc(t * t)[1][0, 0, 0]
        for got in (hermitian_radial(np.array([nu * nu]), t)[0], kernel):
            assert abs(got - herm) <= 1e-12 * abs(herm), (x, t, got, herm)
            if t == 0.0:
                assert got == 0.0
        scale = _gauss(lambda r: r * f_plus(r * nu))
        for got in (G(np.array([nu * nu]))[0], spec.even_g[0, 0, 0]):
            assert abs(got - scale) <= 1e-12 * abs(scale), (x, got, scale)


KERNEL_ALGEBRAS = [
    ("su", {"p": 1, "q": 1}),
    ("su", {"p": 2, "q": 1}),
    ("sp", {"n": 2}),
    ("su", {"p": 2, "q": 2}),
    ("su", {"p": 3, "q": 1}),
    ("su", {"p": 3, "q": 2}),
]
KERNEL_IDS = ["su11", "su21", "sp4", "su22", "su31", "su32"]


@pytest.mark.parametrize("family,params", KERNEL_ALGEBRAS, ids=KERNEL_IDS)
def test_sinhc_kernel_matches_eigh_path(family, params):
    # |Z| from 1e-3 out to 15, past the fiber ceiling of the default radius
    # (10 x 1.2).  Measured at most 1.4e-14 relative for the blocks, and
    # 3.3e-14 for the hermitian form blocks, which multiply two of them
    alg = build_algebra(family, **params)
    datum = compute_root_datum(alg)
    geo = OrbitGeometry(alg, datum, datum.lambda0)
    rng = np.random.default_rng(30)
    zs = rng.standard_normal((60, geo.dim_p))
    zs *= (np.geomspace(1e-3, 15.0, 60) / np.linalg.norm(zs, axis=1))[:, None]
    zs = np.concatenate([zs, np.zeros((1, geo.dim_p))])
    kl = geo.klam(geo.kappa(alg.group_exp(rng.standard_normal((len(zs), alg.dim_k)))))
    spec = geo.fiber_eig(zs)
    m0 = geo.m_lam0_pp
    checks = {
        "psi_plus": (spec.psi_plus, even(spec, f_plus_s)),
        "even_g": (spec.even_g, even(spec, G)),
    }
    for t in (0.0, 0.37, 1.0):
        psip, g = spec.sinhc(t * t)
        want_psip = even(spec, lambda s: f_plus_s(t * t * s))
        want_g = even(spec, lambda s: G(t * t * s))
        checks[f"sinhc t={t}"] = (psip, want_psip)
        checks[f"sinhc G t={t}"] = (g, want_g)
        checks[f"hermitian_blocks t={t}"] = (
            geo.hermitian_blocks(spec, t)[:, geo.dim_c :, geo.dim_c :],
            np.swapaxes(want_psip, -1, -2) @ m0 @ want_psip,
        )
        checks[f"moment_hermitian t={t}"] = (
            geo.moment_hermitian(spec, kl, t)[:, : alg.dim_k],
            kl[:, : alg.dim_k] + spec.apply_k(0.0, want_g, geo.lam0_k),
        )
    for name, (got, want) in checks.items():
        lane = tuple(range(1, got.ndim))  # relative to each lane's largest entry
        err = np.abs(got - want).max(axis=lane) / np.abs(want).max(axis=lane)
        assert err.max() <= 1e-13, (name, float(err.max()))


# 2 t sinhc_dc(t^2) against the eigh path, relative to each block's largest
# entry: measured at most 4.0e-14 (su(1,1), the primitive on the grid)
DC_BOUND = 1e-13


@pytest.mark.parametrize("family,params", KERNEL_ALGEBRAS, ids=KERNEL_IDS)
def test_sinhc_dc_matches_eigh_derivatives(family, params):
    # the complex-step derivative gives d/dt f_plus(t^2 M) and the hermitian
    # primitive's block 2 t d/dc G(c M) at c = t^2, at scalar t, one t per
    # lane and a (time, lane) grid, |Z| from 1e-3 out to 15.  The grid spans
    # more than one kernel chunk, whose buffer must keep the imaginary part
    alg = build_algebra(family, **params)
    datum = compute_root_datum(alg)
    geo = OrbitGeometry(alg, datum, datum.lambda0)
    rng = np.random.default_rng(33)
    zs = rng.standard_normal((60, geo.dim_p))
    zs *= (np.geomspace(1e-3, 15.0, 60) / np.linalg.norm(zs, axis=1))[:, None]
    zs = np.concatenate([zs, np.zeros((1, geo.dim_p))])
    spec = geo.fiber_eig(zs)
    chunk = _SINHC_CHUNK // geo.dim_p**2
    grid = np.linspace(0.0, 1.0, chunk // len(zs) + 2)[:, None]
    assert grid.size * len(zs) > chunk
    times = [0.0, 1e-4, 0.37, 1.0, rng.uniform(0.0, 1.0, len(zs)), grid]
    for t in times:
        tm, ts = np.expand_dims(t, (-2, -1)), np.expand_dims(t, -1)
        d_f, d_g = spec.sinhc_dc(tm * tm)
        checks = {
            "d/dt f_plus": (2.0 * tm * d_f,
                            even(spec, lambda s: 2.0 * ts * s * f_plus_prime_s(ts * ts * s))),
            "hermitian primitive": (2.0 * tm * d_g,
                                    even(spec, lambda s: hermitian_radial(s, ts))),
        }
        for name, (got, want) in checks.items():
            assert got.shape == want.shape, name
            scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
            err = np.abs(got - want)
            ratio = (err / np.where(scale > 0.0, scale, 1.0)).max()
            assert (err <= DC_BOUND * scale).all(), (name, np.shape(t), float(ratio))


def test_sinhc_lanes_do_not_depend_on_their_batch():
    # su(2,2) takes 64 lanes per chunk, so 150 lanes with doubling counts
    # from 1 to 3 span three chunks; each lane equals its call alone on the
    # same block A
    alg = build_algebra("su", p=2, q=2)
    datum = compute_root_datum(alg)
    geo = OrbitGeometry(alg, datum, datum.lambda0)
    rng = np.random.default_rng(32)
    zs = rng.standard_normal((150, geo.dim_p))
    zs *= (np.geomspace(1e-3, 15.0, 150) / np.linalg.norm(zs, axis=1))[:, None]
    c = rng.uniform(0.0, 1.0, (150, 1, 1))
    spec = geo.fiber_eig(zs)
    assert np.unique(spec._gram_scaled[1]).tolist() == [1, 2, 3]
    got = spec.sinhc(c)
    for b in range(0, 150, 7):
        alone = FiberSpectrum(spec.a[b : b + 1]).sinhc(c[b : b + 1])
        for block, want in zip(got, alone):
            assert np.array_equal(block[b], want[0]), b


def test_sinhc_keeps_a_nan_lane_to_itself():
    # every lane takes its own doubling count, so a NaN fiber neither spreads
    # nor raises a RuntimeWarning (pytest turns those into errors)
    alg = build_algebra("su", p=2, q=1)
    datum = compute_root_datum(alg)
    (row,) = _random_chamber_weights(datum, np.random.default_rng(0), count=1)
    geo = OrbitGeometry(alg, datum, ChamberWeight(row))
    rng = np.random.default_rng(31)
    zs = 3.0 * rng.standard_normal((4, geo.dim_p))
    clean = geo.fiber_eig(zs)
    zs[2, 1] = np.nan
    spec = geo.fiber_eig(zs)
    fam = segment_stage(geo, 2.0)
    kap = geo.kappa(alg.group_exp(rng.standard_normal((4, alg.dim_k))))
    for block, want in ((spec.psi_plus, clean.psi_plus), (spec.even_g, clean.even_g),
                        (fam.omega(spec, kap, 0.4), fam.omega(clean, kap, 0.4))):
        finite = np.isfinite(block).all(axis=(-2, -1))
        assert finite.tolist() == [True, True, False, True]
        assert np.array_equal(block[finite], want[finite])
    with pytest.raises(RuntimeError, match=r"segment form at t = 0\.0000 has non-finite entries"):
        integrate_flow(fam, alg.group_exp(rng.standard_normal((4, alg.dim_k))), zs, 10)
