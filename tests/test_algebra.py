import numpy as np
import pytest

from holomoser import build_algebra
from holomoser.moser import _group_log

from oracles import (
    ad_invariance_residual,
    adjoint_group_matrix_einsum,
    closure_residual,
    coadjoint_group_matrix,
    jacobi_residual,
    killing_form,
    membership_residual,
    theta,
)

ATOL = 1e-10

# the algebras the group-layer rewrites are checked on
GROUP_ALGEBRAS = {
    "su11": ("su", dict(p=1, q=1)),
    "su21": ("su", dict(p=2, q=1)),
    "sp2": ("sp", dict(n=1)),
    "sp4": ("sp", dict(n=2)),
    "su22": ("su", dict(p=2, q=2)),
    "su31": ("su", dict(p=3, q=1)),
}


@pytest.fixture(scope="module")
def su11():
    return build_algebra("su", p=1, q=1)


@pytest.fixture(scope="module")
def su21():
    return build_algebra("su", p=2, q=1)


@pytest.fixture(scope="module")
def sp2():
    return build_algebra("sp", n=1)


@pytest.fixture(scope="module")
def sp4():
    return build_algebra("sp", n=2)


def test_dimensions(su11, su21, sp2, sp4):
    # hand-enumerated: dim su(p,q) = (p+q)^2 - 1, dim k = p^2 + q^2 - 1
    # dim sp(2n,R) = n(2n+1), dim k = n^2
    assert (su11.dim, su11.dim_k, su11.dim_p) == (3, 1, 2)
    assert (su21.dim, su21.dim_k, su21.dim_p) == (8, 4, 4)
    assert (sp2.dim, sp2.dim_k, sp2.dim_p) == (3, 1, 2)
    assert (sp4.dim, sp4.dim_k, sp4.dim_p) == (10, 4, 6)
    assert su21.rank == 2 and sp4.rank == 2


def test_rejects_bad_parameters():
    with pytest.raises(ValueError, match=r"q >= 1 \(got p = 2, q = 0\)"):
        build_algebra("su", p=2, q=0)
    with pytest.raises(ValueError, match=r"p >= q \(got p = 1, q = 2\)"):
        build_algebra("su", p=1, q=2)
    # p < 1 fails p >= q, not the compactness requirement on q
    with pytest.raises(ValueError, match=r"p >= q \(got p = 0, q = 1\)"):
        build_algebra("su", p=0, q=1)
    with pytest.raises(ValueError, match=r"p >= q \(got p = -1, q = 2\)"):
        build_algebra("su", p=-1, q=2)
    with pytest.raises(ValueError, match=r"needs both p and q \(got p = 2, q = None\)"):
        build_algebra("su", p=2)
    with pytest.raises(ValueError, match=r"n >= 1 \(got n = 0\)"):
        build_algebra("sp", n=0)
    with pytest.raises(ValueError):
        build_algebra("so_star")


@pytest.mark.parametrize("name", ["su11", "su21", "sp2", "sp4"])
def test_structure_residuals(name, request):
    alg = request.getfixturevalue(name)
    assert closure_residual(alg) < ATOL
    assert jacobi_residual(alg) < ATOL


@pytest.mark.parametrize("name", ["su11", "su21", "sp2", "sp4"])
def test_cartan_split(name, request):
    alg = request.getfixturevalue(name)
    c = alg.structure
    k, p = np.arange(alg.dim_k), np.arange(alg.dim_k, alg.dim)
    # [k,k] subset k, [k,p] subset p, [p,p] subset k
    assert np.abs(c[np.ix_(k, k, p)]).max() < ATOL
    assert np.abs(c[np.ix_(k, p, k)]).max() < ATOL
    assert np.abs(c[np.ix_(p, p, p)]).max() < ATOL


@pytest.mark.parametrize("name", ["su11", "su21", "sp2", "sp4"])
def test_theta_is_involution_and_matches_matrix_form(name, request):
    alg = request.getfixturevalue(name)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(alg.dim)
    assert np.allclose(theta(alg, theta(alg, x)), x, atol=1e-14)
    lhs = alg.matrix(theta(alg, x))
    rhs = -np.conj(alg.matrix(x).T)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_killing_closed_forms(su11, su21, sp4):
    # B_g(X,Y) = 2(p+q) tr(XY) on su(p,q) and (2n+2) tr(XY) on sp(2n,R)
    rng = np.random.default_rng(7)
    for alg, mult in ((su11, 4.0), (su21, 6.0), (sp4, 6.0)):
        for _ in range(10):
            x, y = rng.standard_normal((2, alg.dim))
            lhs = killing_form(alg, x, y)
            rhs = mult * np.trace(alg.matrix(x) @ alg.matrix(y)).real
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


@pytest.mark.parametrize("name", ["su11", "su21", "sp2", "sp4"])
def test_b_theta_orthonormal_and_positive(name, request):
    alg = request.getfixturevalue(name)
    gram = -alg.killing * alg.theta_signs[None, :]
    assert np.abs(gram - np.eye(alg.dim)).max() < 1e-10
    assert np.linalg.eigvalsh(gram).min() > 0.5


@pytest.mark.parametrize("name", ["su21", "sp4"])
def test_killing_ad_invariance(name, request):
    alg = request.getfixturevalue(name)
    rng = np.random.default_rng(11)
    assert ad_invariance_residual(alg, rng) < 1e-9


@pytest.mark.parametrize("name", ["su21", "sp4"])
def test_ad_symmetry_split(name, request):
    # ad(X) skew for X in k, ad(Z) symmetric for Z in p, in orthonormal coords
    alg = request.getfixturevalue(name)
    rng = np.random.default_rng(5)
    x = np.zeros(alg.dim)
    x[: alg.dim_k] = rng.standard_normal(alg.dim_k)
    z = np.zeros(alg.dim)
    z[alg.dim_k :] = rng.standard_normal(alg.dim_p)
    assert np.abs(alg.ad(x) + alg.ad(x).T).max() < ATOL
    assert np.abs(alg.ad(z) - alg.ad(z).T).max() < ATOL


def test_coords_roundtrip_and_membership(su21):
    rng = np.random.default_rng(13)
    x = rng.standard_normal(su21.dim)
    assert np.allclose(su21.coords(su21.matrix(x)), x, atol=1e-12)
    assert membership_residual(su21, su21.matrix(x)) < 1e-12
    # the identity matrix is Hermitian, not anti-Hermitian: far from su(2,1)
    assert membership_residual(su21, np.eye(3)) > 0.5


def test_embeddings_pad_with_zeros_and_keep_batch_shape(su21):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 3, su21.dim_k))
    z = rng.standard_normal((2, 3, su21.dim_p))
    full = np.concatenate([x, z], axis=-1)
    assert su21.embed_k(x).shape == su21.embed_p(z).shape == full.shape
    assert np.array_equal(su21.embed_k(x) + su21.embed_p(z), full)
    assert not su21.embed_k(x)[..., su21.dim_k :].any()
    assert not su21.embed_p(z)[..., : su21.dim_k].any()
    assert su21.embed_p(z[0, 0]).shape == (su21.dim,)


def test_bracket_matches_matrix_commutator(su21, sp4):
    rng = np.random.default_rng(17)
    for alg in (su21, sp4):
        x, y = rng.standard_normal((2, alg.dim))
        lhs = alg.matrix(alg.bracket(x, y))
        a, b = alg.matrix(x), alg.matrix(y)
        assert np.abs(lhs - (a @ b - b @ a)).max() < 1e-10


@pytest.mark.parametrize("name", ["su11", "su21", "sp2", "sp4"])
def test_group_exp_lands_in_K(name, request):
    alg = request.getfixturevalue(name)
    rng = np.random.default_rng(19)
    u = rng.standard_normal((6, alg.dim_k))
    g = alg.group_exp(u)
    assert alg.group_residual(g).max() < 1e-12
    # Ad(k) is B_theta-orthogonal and preserves the k/p split
    m = alg.adjoint_group_matrix(g[0])
    assert np.abs(m @ m.T - np.eye(alg.dim)).max() < 1e-11
    assert np.abs(m[alg.dim_k :, : alg.dim_k]).max() < 1e-12


@pytest.mark.parametrize("name", ["su21", "sp4"])
def test_group_project_restores_membership(name, request):
    alg = request.getfixturevalue(name)
    rng = np.random.default_rng(23)
    g = alg.group_exp(rng.standard_normal(alg.dim_k))
    drifted = g + 1e-8 * rng.standard_normal(g.shape)
    fixed = alg.group_project(drifted)
    assert alg.group_residual(fixed) < 1e-13
    assert np.abs(fixed - g).max() < 1e-7


def test_coadjoint_action_is_isometric(su21):
    rng = np.random.default_rng(29)
    xi = rng.standard_normal(su21.dim)
    g = su21.group_exp(rng.standard_normal(su21.dim_k))
    moved = coadjoint_group_matrix(su21, g) @ xi
    assert abs(np.linalg.norm(moved) - np.linalg.norm(xi)) < 1e-11


@pytest.mark.parametrize("name", sorted(GROUP_ALGEBRAS))
def test_adjoint_group_matrix_matches_einsum_oracle(name):
    family, params = GROUP_ALGEBRAS[name]
    alg = build_algebra(family, **params)
    rng = np.random.default_rng(31)
    for shape in ((), (5,), (2, 3)):
        g = alg.group_exp(rng.standard_normal(shape + (alg.dim_k,)))
        got = alg.adjoint_group_matrix(g)
        assert got.shape == shape + (alg.dim, alg.dim)
        assert np.abs(got - adjoint_group_matrix_einsum(alg, g)).max() <= 1e-13


@pytest.mark.parametrize("name", sorted(GROUP_ALGEBRAS))
def test_group_log_matches_logm(name):
    import scipy.linalg

    family, params = GROUP_ALGEBRAS[name]
    alg = build_algebra(family, **params)
    rng = np.random.default_rng(37)
    for scale in (1e-4, 1e-2, 1.0, 2.5):
        # relative rotations k^{-1} (k exp(u)) with |u| = scale, as in the
        # central differences of verify_pullback
        u = rng.standard_normal((4, alg.dim_k))
        u *= scale / np.linalg.norm(u, axis=-1, keepdims=True)
        k = alg.group_exp(rng.standard_normal((4, alg.dim_k)))
        rel = alg.group_inverse(k) @ (k @ alg.group_exp(u))
        want = np.stack([alg.coords(scipy.linalg.logm(r)) for r in rel])
        assert np.abs(_group_log(alg, rel) - want).max() <= 1e-12
