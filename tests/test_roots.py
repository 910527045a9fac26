import numpy as np
import pytest

from holomoser import build_algebra
from holomoser.roots import (
    ChamberWeight,
    chamber_constants,
    chamber_hits,
    compute_root_datum,
    in_holomorphic_chamber,
    pairing_matrix,
    stabilizer_algebra,
)

from oracles import root_datum_validate_loop, weight_from_matrix


@pytest.fixture(scope="module")
def su11():
    alg = build_algebra("su", p=1, q=1)
    return alg, compute_root_datum(alg)


@pytest.fixture(scope="module")
def su21():
    alg = build_algebra("su", p=2, q=1)
    return alg, compute_root_datum(alg)


@pytest.fixture(scope="module")
def sp4():
    alg = build_algebra("sp", n=2)
    return alg, compute_root_datum(alg)


def test_root_counts(su11, su21, sp4):
    for (alg, datum), counts in ((su11, (2, 0, 1)), (su21, (6, 2, 2)), (sp4, (8, 2, 3))):
        total, compact, pos_nc = counts
        assert len(datum.roots) == total == alg.dim - alg.rank
        assert sum(r.compact for r in datum.roots) == compact
        assert len(datum.positive_noncompact()) == pos_nc


@pytest.mark.parametrize("fix", ["su11", "su21", "sp4"])
def test_datum_certificates(fix, request):
    _, datum = request.getfixturevalue(fix)
    res = datum.validate()
    assert res["root_eigen_residual"] < 1e-9
    assert res["z0_squares_to_minus_id_on_p"] < 1e-10
    assert res["noncompact_z0_eigenvalue"] < 1e-10
    assert res["compact_z0_eigenvalue"] < 1e-10
    assert res["noncompact_vector_normalization"] < 1e-9
    assert res["roots_in_opposite_pairs"] < 1e-9
    assert res["torus_centralizer_dim_matches_rank"] == 0.0


@pytest.mark.parametrize("family,params", [
    ("su", {"p": 1, "q": 1}), ("su", {"p": 2, "q": 1}), ("su", {"p": 2, "q": 2}),
    ("su", {"p": 3, "q": 1}), ("su", {"p": 3, "q": 2}), ("sp", {"n": 1}),
    ("sp", {"n": 2}), ("sp", {"n": 3}),
])
def test_validate_matches_the_root_loop(family, params):
    datum = compute_root_datum(build_algebra(family, **params))
    assert datum.validate() == root_datum_validate_loop(datum)


def test_su11_z0_closed_form(su11):
    alg, datum = su11
    expect = 0.5j * np.diag([1.0, -1.0])
    assert np.abs(alg.matrix(datum.z0) - expect).max() < 1e-12


def test_su21_z0_closed_form(su21):
    alg, datum = su21
    expect = (1j / 3.0) * np.diag([1.0, 1.0, -2.0])
    assert np.abs(alg.matrix(datum.z0) - expect).max() < 1e-12


def test_noncompact_vectors_give_orthogonal_p_basis(su21):
    # real/imaginary parts of the normalized root vectors span p orthogonally
    alg, datum = su21
    vecs = []
    for root in datum.positive_noncompact():
        vecs.append(np.sqrt(2.0) * root.vector.real)
        vecs.append(np.sqrt(2.0) * root.vector.imag)
    mat = np.stack(vecs)
    assert np.abs(mat[:, : alg.dim_k]).max() < 1e-10
    gram = mat @ mat.T
    assert np.abs(gram - np.eye(len(vecs))).max() < 1e-9


def test_chamber_membership_su21_example(su21):
    alg, datum = su21
    w = weight_from_matrix(alg, 1j * np.diag([0.6, 0.1, -0.7]))
    ok, margin = in_holomorphic_chamber(w, datum)
    assert ok
    assert abs(margin - 0.8) < 1e-12


def test_chamber_rejects_wrong_signs(su21):
    alg, datum = su21
    w = weight_from_matrix(alg, 1j * np.diag([-0.6, -0.1, 0.7]))
    ok, margin = in_holomorphic_chamber(w, datum)
    assert not ok and margin < 0


def test_lambda0_lies_on_compact_walls(su21):
    # alpha(z0) = 0 for compact roots: margin positive, compact values zero
    _, datum = su21
    ok, margin = in_holomorphic_chamber(datum.lambda0, datum)
    assert ok and abs(margin - 1.0) < 1e-12


def test_chamber_constants_lambda0(su11, su21, sp4):
    for _, datum in (su11, su21, sp4):
        m, b = chamber_constants(datum.lambda0, datum)
        assert abs(m - 1.0) < 1e-10
        assert abs(b - 1.0) < 1e-10


def test_chamber_constants_scale_linearly(su21):
    alg, datum = su21
    w = weight_from_matrix(alg, 1j * np.diag([0.6, 0.1, -0.7]))
    m1, b1 = chamber_constants(w, datum)
    m3, b3 = chamber_constants(ChamberWeight(3.0 * w.coords), datum)
    assert abs(m3 - 3.0 * m1) < 1e-10
    assert abs(b3 - 3.0 * b1) < 1e-10


def test_b_lambda_dominates_sampled_pairings(su21):
    alg, datum = su21
    w = weight_from_matrix(alg, 1j * np.diag([0.6, 0.1, -0.7]))
    _, b = chamber_constants(w, datum)
    mat = pairing_matrix(alg, w.full(alg))
    rng = np.random.default_rng(1)
    for _ in range(200):
        u, v = rng.standard_normal((2, alg.dim))
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        assert abs(u @ mat @ v) <= b + 1e-12


def test_stabilizer_dimensions(su21):
    alg, datum = su21
    w = weight_from_matrix(alg, 1j * np.diag([0.6, 0.1, -0.7]))
    split = stabilizer_algebra(w, datum)
    assert split.kernel.shape[1] == 2  # generic: k_lambda = t
    assert split.complement.shape[1] == 2
    split0 = stabilizer_algebra(datum.lambda0, datum)
    assert split0.kernel.shape[1] == alg.dim_k  # lambda0 is K-invariant


def test_stabilizer_kernel_annihilates_pairing(su21):
    alg, datum = su21
    w = weight_from_matrix(alg, 1j * np.diag([0.6, 0.1, -0.7]))
    split = stabilizer_algebra(w, datum)
    m_kk = pairing_matrix(alg, w.full(alg))[: alg.dim_k, : alg.dim_k]
    assert np.abs(m_kk @ split.kernel).max() < 1e-9
    # complement is B_theta-orthogonal to the kernel
    assert np.abs(split.kernel.T @ split.complement).max() < 1e-12


def test_lambda0_dual_pairing_is_norm_squared(su11, su21, sp4):
    for alg, datum in (su11, su21, sp4):
        lhs = datum.lambda0.pair(alg, datum.z0)
        assert abs(lhs - np.dot(datum.z0, datum.z0)) < 1e-12


def test_weight_from_matrix_rejects_non_torus(su21):
    alg, _ = su21
    x = np.zeros(alg.dim)
    x[alg.rank] = 1.0  # a k-basis element outside the torus
    with pytest.raises(ValueError):
        weight_from_matrix(alg, alg.matrix(x))


def test_root_major_chamber_hits_match_row_major_form():
    # 10^5 random rows, with rows on a wall spliced in: the su(2,2)
    # compact-wall weight (a compact root vanishes; accepted) and a weight on
    # which the last positive noncompact root vanishes (rejected)
    alg = build_algebra("su", p=2, q=2)
    datum = compute_root_datum(alg)
    compact_wall = np.array([0.0, 2.6, 1.4])
    root = datum.noncompact_coords[-1]
    noncompact_wall = np.array([1.0, 2.0, -(root[0] + 2.0 * root[1]) / root[2]])
    assert abs(root @ noncompact_wall) < 1e-15
    assert min(datum.noncompact_coords[:-1] @ noncompact_wall) > 0.1
    assert min(datum.compact_coords @ noncompact_wall) > 0.1
    assert abs(min(datum.compact_coords @ compact_wall)) < 1e-15

    rng = np.random.default_rng(43)
    h = rng.uniform(-2.0, 2.0, (100_000, alg.rank))
    h[[7, 70_000]] = compact_wall
    h[[8, 70_001]] = noncompact_wall
    got = chamber_hits(datum, h)
    want = (h @ datum.chamber_roots.T > datum.chamber_floor).all(axis=1).nonzero()[0]
    assert np.array_equal(got, want)
    assert 0 < len(got) < len(h)
    assert {7, 70_000} <= set(got) and not {8, 70_001} & set(got)
