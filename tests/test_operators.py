import numpy as np
import pytest

from holomoser import build_algebra
from holomoser.operators import chi_spectrum_check
from holomoser.roots import compute_root_datum

from oracles import (
    chi_spectrum_full,
    coadjoint_group_matrix,
    d_gamma,
    gamma_map,
    psi_operators,
    weight_from_matrix,
)


@pytest.fixture(scope="module")
def models():
    out = {}
    for name, fam, kw in [
        ("su11", "su", dict(p=1, q=1)),
        ("su21", "su", dict(p=2, q=1)),
        ("sp4", "sp", dict(n=2)),
    ]:
        alg = build_algebra(fam, **kw)
        out[name] = (alg, compute_root_datum(alg))
    return out


def random_fiber(alg, rng, radius=1.0):
    z = np.zeros(alg.dim)
    v = rng.standard_normal(alg.dim_p)
    z[alg.dim_k :] = radius * v / np.linalg.norm(v)
    return z


def series_operator(alg, z, coeff):
    """Truncated power series sum_n coeff(n) ad(z)^n, the independent oracle."""
    s = alg.ad(z)
    term = np.eye(alg.dim)
    out = coeff(0) * term
    for n in range(1, 31):
        term = term @ s
        out = out + coeff(n) * term
    return out


def _fact(n):
    out = 1.0
    for i in range(2, n + 1):
        out *= i
    return out


@pytest.mark.parametrize("name", ["su11", "su21", "sp4"])
def test_spectral_matches_power_series(name, models):
    alg, _ = models[name]
    rng = np.random.default_rng(42)
    for _ in range(5):
        z = random_fiber(alg, rng, radius=rng.uniform(0.1, 1.0))
        op = psi_operators(alg, z)
        psi_series = series_operator(alg, z, lambda n: (-1) ** n / _fact(n + 1))
        plus_series = series_operator(
            alg, z, lambda n: 1.0 / _fact(n + 1) if n % 2 == 0 else 0.0
        )
        minus_series = series_operator(
            alg, z, lambda n: -1.0 / _fact(n + 1) if n % 2 == 1 else 0.0
        )
        cosh_series = series_operator(
            alg, z, lambda n: 1.0 / _fact(n) if n % 2 == 0 else 0.0
        )
        assert np.abs(op.psi - psi_series).max() < 1e-12
        assert np.abs(op.psi_plus - plus_series).max() < 1e-12
        assert np.abs(op.psi_minus - minus_series).max() < 1e-12
        assert np.abs(op.cosh_ad - cosh_series).max() < 1e-12


def test_psi_decomposition_and_fixed_vectors(models):
    alg, _ = models["su21"]
    rng = np.random.default_rng(1)
    z = random_fiber(alg, rng, radius=2.0)
    op = psi_operators(alg, z)
    # Psi = Psi^+ + Psi^-, and Z itself is fixed (killed) by them
    assert np.abs(op.psi - (op.psi_plus + op.psi_minus)).max() < 1e-12
    assert np.abs(op.psi @ z - z).max() < 1e-12
    assert np.abs(op.psi_plus @ z - z).max() < 1e-12
    assert np.abs(op.psi_minus @ z).max() < 1e-12


def test_psi_plus_spectrum_at_least_one(models):
    for alg, _ in models.values():
        rng = np.random.default_rng(2)
        for _ in range(10):
            op = psi_operators(alg, random_fiber(alg, rng, rng.uniform(0.01, 4.0)))
            assert np.linalg.eigvalsh(op.psi_plus).min() >= 1.0 - 1e-12


def test_chi_contraction_and_multiset(models):
    for alg, _ in models.values():
        rng = np.random.default_rng(3)
        for _ in range(25):
            z = random_fiber(alg, rng, rng.uniform(0.01, 3.0))
            dev, peak = chi_spectrum_check(alg, z[alg.dim_k :])
            assert dev < 1e-8
            assert peak < 1.0


@pytest.mark.parametrize("batch", [(), (5,), (2, 3)])
def test_batched_chi_check_matches_row_loop(models, batch):
    for alg, _ in models.values():
        rng = np.random.default_rng(5)
        zs = rng.standard_normal(batch + (alg.dim_p,))
        zs /= np.linalg.norm(zs, axis=-1, keepdims=True)
        zs *= rng.uniform(0.05, 3.0, batch + (1,))
        dev, peak = map(np.asarray, chi_spectrum_check(alg, zs))
        assert dev.shape == batch and peak.shape == batch
        for idx in np.ndindex(*batch):
            want_dev, want_peak = chi_spectrum_check(alg, zs[idx])
            assert abs(dev[idx] - want_dev) <= 1e-14
            assert abs(peak[idx] - want_peak) <= 1e-14
    one = chi_spectrum_check(alg, zs.reshape(-1, alg.dim_p)[0])
    assert all(type(v) is float for v in one)


CHI_MODELS = [
    ("su", dict(p=1, q=1)),
    ("sp", dict(n=1)),
    ("su", dict(p=2, q=1)),
    ("sp", dict(n=2)),
    ("su", dict(p=2, q=2)),
    ("su", dict(p=3, q=1)),
]


@pytest.mark.parametrize(
    "family, params", CHI_MODELS, ids=["su11", "sp2", "su21", "sp4", "su22", "su31"]
)
def test_chi_check_from_svd_matches_full_size_eigh(family, params):
    # dim_k < dim_p (su(1,1), sp(2,R), sp(4,R), su(2,2)), dim_k = dim_p
    # (su(2,1)) and dim_k > dim_p (su(3,1)); Z = 0, a root-plane Z, whose
    # singular values repeat from rank two on, and 256 random Z
    alg = build_algebra(family, **params)
    datum = compute_root_datum(alg)
    root_plane = datum.positive_noncompact()[0].vector.real[alg.dim_k :]
    rng = np.random.default_rng(31)
    zs = rng.standard_normal((256, alg.dim_p))
    zs *= rng.uniform(0.05, 3.0, (256, 1)) / np.linalg.norm(zs, axis=1, keepdims=True)
    zs = np.vstack([np.zeros(alg.dim_p), 1.3 * root_plane / np.linalg.norm(root_plane), zs])
    sigma = np.linalg.svd(alg.ad(alg.embed_p(zs[1]))[: alg.dim_k, alg.dim_k :],
                          compute_uv=False)
    assert alg.rank == 1 or np.isclose(sigma[1], sigma[2])
    dev, peak = chi_spectrum_check(alg, zs)
    want_dev, want_peak = chi_spectrum_full(alg, zs)
    assert dev[0] == peak[0] == 0.0
    assert dev.max() <= 1e-13 and want_dev.max() <= 1e-13
    assert np.abs(peak - want_peak).max() <= 1e-14


def test_chi_factorization(models):
    alg, _ = models["su21"]
    rng = np.random.default_rng(4)
    z = random_fiber(alg, rng, 1.5)
    op = psi_operators(alg, z)
    assert np.abs(op.chi @ op.psi_plus - op.psi_minus).max() < 1e-10


def test_operators_commute_with_ad_z(models):
    alg, _ = models["sp4"]
    rng = np.random.default_rng(5)
    z = random_fiber(alg, rng, 1.0)
    s = alg.ad(z)
    op = psi_operators(alg, z)
    for mat in (op.psi, op.psi_plus, op.psi_minus, op.chi):
        assert np.abs(mat @ s - s @ mat).max() < 1e-11


def test_equivariance_under_K(models):
    # Psi_{Ad(k)Z} = Ad(k) Psi_Z Ad(k)^{-1}
    alg, _ = models["su21"]
    rng = np.random.default_rng(6)
    z = random_fiber(alg, rng, 1.2)
    k = alg.group_exp(rng.standard_normal(alg.dim_k))
    m = alg.adjoint_group_matrix(k)
    op = psi_operators(alg, z)
    op_moved = psi_operators(alg, m @ z)
    assert np.abs(op_moved.psi - m @ op.psi @ m.T).max() < 1e-10


def test_derivative_of_exp_identity(models):
    # d/dt exp(Z + tX)|_0 = e^Z Psi_Z(X) as ambient matrices
    alg, _ = models["su21"]
    rng = np.random.default_rng(7)
    z = random_fiber(alg, rng, 0.8)
    x = rng.standard_normal(alg.dim)
    op = psi_operators(alg, z)
    import scipy.linalg as sla

    zm, xm = alg.matrix(z), alg.matrix(x)
    eps = 1e-6
    fd = (sla.expm(zm + eps * xm) - sla.expm(zm - eps * xm)) / (2 * eps)
    analytic = sla.expm(zm) @ alg.matrix(op.psi @ x)
    assert np.abs(fd - analytic).max() < 1e-8


def test_gamma_rejects_non_group_base(models):
    alg, datum = models["su21"]
    rng = np.random.default_rng(8)
    z = random_fiber(alg, rng, 0.5)
    with pytest.raises(ValueError):
        gamma_map(alg, datum.lambda0, np.eye(3) * 1.5, z)


def test_gamma_equivariance(models):
    alg, datum = models["su21"]
    rng = np.random.default_rng(9)
    w = weight_from_matrix(alg, 1j * np.diag([0.6, 0.1, -0.7]))
    z = random_fiber(alg, rng, 1.0)
    k = alg.group_exp(rng.standard_normal(alg.dim_k))
    kp = alg.group_exp(rng.standard_normal(alg.dim_k))
    lhs = gamma_map(alg, w, kp @ k, alg.adjoint_group_matrix(kp) @ z)
    rhs = coadjoint_group_matrix(alg, kp) @ gamma_map(alg, w, k, z)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_gamma_fixed_point_and_pullback_growth(models):
    # <Gamma(lambda0, Z) - lambda0, z0> >= ||Z||^2 / 2 (pullback properness)
    for alg, datum in models.values():
        rng = np.random.default_rng(10)
        eye = np.eye(alg.ambient, dtype=complex)
        assert (
            np.abs(gamma_map(alg, datum.lambda0, eye, np.zeros(alg.dim))
                   - datum.lambda0.full(alg)).max() < 1e-12
        )
        for _ in range(50):
            z = random_fiber(alg, rng, rng.uniform(0.01, 3.0))
            xi = gamma_map(alg, datum.lambda0, eye, z)
            slack = (xi - datum.lambda0.full(alg)) @ datum.z0 - 0.5 * z @ z
            assert slack >= -1e-10


def test_d_gamma_matches_finite_differences(models):
    alg, datum = models["su21"]
    w = weight_from_matrix(alg, 1j * np.diag([0.6, 0.1, -0.7]))
    rng = np.random.default_rng(11)
    eps = 1e-5
    for _ in range(5):
        z = random_fiber(alg, rng, 1.0)
        k = alg.group_exp(rng.standard_normal(alg.dim_k))
        x = rng.standard_normal(alg.dim_k)
        a = random_fiber(alg, rng, 1.0)
        tangent = d_gamma(alg, w, k, z, x, a)
        hi = gamma_map(alg, w, k @ alg.group_exp(eps * x), z + eps * a)
        lo = gamma_map(alg, w, k @ alg.group_exp(-eps * x), z - eps * a)
        fd = (hi - lo) / (2 * eps)
        assert np.abs(fd - tangent).max() < 1e-7
