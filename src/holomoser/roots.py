"""Root data of the compact torus, the holomorphic chamber, and stabilizers.

Roots are real linear functionals on the maximal torus t of k, recorded by
their values on the orthonormal torus basis (the leading `rank` basis slots of
the algebra).  A root vector v in the complexified algebra satisfies
[H, v] = i alpha(H) v for H in t.  The distinguished central element z0 of k
has ad(z0)^2 = -id on p; the weight dual to it under B_theta spans the ray of
lambda_0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import _PRIMES, MatrixLieAlgebra


@dataclass
class Root:
    coords: np.ndarray  # values on the orthonormal torus basis, shape (rank,)
    vector: np.ndarray  # complex root vector in algebra coordinates, shape (N,)
    compact: bool
    positive: bool

    def value(self, torus_coords):
        return float(np.dot(self.coords, torus_coords))


@dataclass
class ChamberWeight:
    """A weight in t*, stored by coefficients against the dual torus basis.

    B_theta identifies t with t*, so the same coefficients give H_lambda; the
    functional extends by zero on the root spaces and on p.  The batched
    evaluators (full, bracket_positivity_slack) accept coords with leading
    batch axes, (..., rank), for a batch of weights.
    """

    coords: np.ndarray

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=float)

    def full(self, alg):
        out = np.zeros(self.coords.shape[:-1] + (alg.dim,))
        out[..., : self.coords.shape[-1]] = self.coords
        return out

    def pair(self, alg, x):
        """Dual pairing <lambda, x> for x in coordinates."""
        return float(np.dot(self.full(alg), np.asarray(x, dtype=float)))


@dataclass
class RootDatum:
    algebra: MatrixLieAlgebra
    roots: list
    z0: np.ndarray  # (N,) coordinates
    lambda0: ChamberWeight
    # coordinates of the positive noncompact / compact roots, (P, rank)
    noncompact_coords: np.ndarray = field(init=False, repr=False)
    compact_coords: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rank = self.algebra.rank
        self.noncompact_coords = np.array(
            [r.coords for r in self.positive_noncompact()]
        ).reshape(-1, rank)
        self.compact_coords = np.array(
            [r.coords for r in self.positive_compact()]
        ).reshape(-1, rank)
        # both stacked root-major (P + C, rank) for chamber_hits, whose reduction
        # over the few roots then runs along the long candidate axis, with the
        # floor to exceed: in_holomorphic_chamber's 1e-12, and -1e-12's
        # predecessor for compact roots, so that > means >= -1e-12
        self.chamber_roots = np.vstack([self.noncompact_coords, self.compact_coords])
        self.chamber_floor = np.repeat([1e-12, np.nextafter(-1e-12, -np.inf)],
                                       [len(self.noncompact_coords), len(self.compact_coords)])

    @property
    def rank(self):
        return self.algebra.rank

    def positive_noncompact(self):
        return [r for r in self.roots if not r.compact and r.positive]

    def positive_compact(self):
        return [r for r in self.roots if r.compact and r.positive]

    def validate(self):
        """Residuals for every structural claim the datum makes."""
        alg = self.algebra
        r = alg.rank
        torus_ads = np.swapaxes(alg.structure[:r], 1, 2)  # ad(H_j)
        out = {}
        out["torus_abelian"] = float(np.abs(alg.structure[:r, :r]).max())
        stacked = torus_ads[:, :, : alg.dim_k].reshape(-1, alg.dim_k)
        sv = np.linalg.svd(stacked, compute_uv=False)
        centralizer_dim = int((sv < 1e-9 * max(1.0, sv.max())).sum())
        out["torus_centralizer_dim_matches_rank"] = float(centralizer_dim != r)

        # every root vector v against every ad(H_j): (roots, r, N)
        vecs = np.array([root.vector for root in self.roots])
        coords = np.array([root.coords for root in self.roots])
        lhs = (torus_ads[None] @ vecs[:, None, :, None])[..., 0]
        eig = np.abs(lhs - 1j * coords[..., None] * vecs[:, None]).max(initial=0.0)
        out["root_eigen_residual"] = float(eig)

        adz0 = alg.ad(self.z0)
        blk = (adz0 @ adz0)[alg.dim_k :, alg.dim_k :]
        out["z0_squares_to_minus_id_on_p"] = float(np.abs(blk + np.eye(alg.dim_p)).max())
        out["z0_in_torus"] = float(np.abs(np.delete(self.z0, range(r))).max())

        z0_t = self.z0[:r]
        nc = np.abs(self.noncompact_coords @ z0_t - 1.0)
        cc = np.abs(self.compact_coords @ z0_t)
        out["noncompact_z0_eigenvalue"] = float(nc.max(initial=0.0))
        out["compact_z0_eigenvalue"] = float(cc.max(initial=0.0))

        e = np.array([root.vector for root in self.positive_noncompact()])
        sq = 4.0 * (np.stack([e.real, e.imag]) ** 2).sum(axis=-1)
        out["noncompact_vector_normalization"] = float(np.abs(sq - 2.0).max(initial=0.0))

        # each root's distance to the nearest negative of a root
        dist = np.abs(coords[:, None] + coords[None]).max(axis=-1).min(axis=-1)
        out["roots_in_opposite_pairs"] = float(dist.max(initial=0.0))
        return out


def compute_root_datum(alg):
    """Extract the root datum by simultaneous diagonalization of ad(t).

    A deterministic generic combination of the torus generators is
    eigendecomposed (it is real skew, so i times it is Hermitian); each
    nonzero eigenvector is certified to be a simultaneous eigenvector of all
    ad(H_j) to 1e-9, retrying with a different combination on accidental
    degeneracy.
    """
    tol = 1e-9
    r = alg.rank
    torus_ads = np.swapaxes(alg.structure[:r], 1, 2)
    for attempt in range(len(_PRIMES) - r):
        weights = 1.0 / np.sqrt(np.array(_PRIMES[attempt : attempt + r], dtype=float))
        gen = np.tensordot(weights, torus_ads, axes=([0], [0]))
        w, vecs = np.linalg.eigh(1j * gen)
        nonzero = np.abs(w) > 1e-7 * max(1.0, np.abs(w).max())
        roots, ok = _certify_root_vectors(alg, torus_ads, vecs[:, nonzero], tol)
        if ok and len(roots) == alg.dim - r:
            break
    else:
        raise RuntimeError("failed to separate root spaces with generic torus element")

    z0 = _distinguished_central_element(alg, tol)

    # orient z0: the lexicographically greatest noncompact root gets value +1
    noncompact = [(c, v) for c, v, compact in roots if not compact]
    if not noncompact:
        raise ValueError("no noncompact roots; the fiber p carries no torus action")
    lead = max(noncompact, key=lambda cv: tuple(np.round(cv[0], 10)))
    val = float(np.dot(lead[0], z0[:r]))
    if abs(abs(val) - 1.0) > 1e-8:
        raise ValueError("center of k does not act with eigenvalues +-i on p")
    if val < 0:
        z0 = -z0

    out = []
    for coords, vec, compact in roots:
        if compact:
            lead_idx = np.flatnonzero(np.abs(coords) > tol)
            positive = bool(len(lead_idx)) and coords[lead_idx[0]] > 0
        else:
            positive = float(np.dot(coords, z0[:r])) > 0
        out.append(Root(coords=coords, vector=vec, compact=compact, positive=positive))
    out.sort(key=lambda root: tuple(np.round(root.coords, 10)), reverse=True)

    datum = RootDatum(
        algebra=alg, roots=out, z0=z0, lambda0=ChamberWeight(z0[:r].copy())
    )
    res = datum.validate()
    worst = max(res.values())
    if worst > 1e-8:
        raise RuntimeError(f"root datum failed self-certification: {res}")
    return datum


def _certify_root_vectors(alg, torus_ads, vecs, tol):
    """Check candidate eigenvectors against every torus generator at once."""
    r = len(torus_ads)
    roots = []
    for idx in range(vecs.shape[1]):
        v = vecs[:, idx]
        v = v / np.linalg.norm(v)
        coords = np.array([float((-1j * (np.conj(v) @ (torus_ads[j] @ v))).real)
                           for j in range(r)])
        for j in range(r):
            if np.abs(torus_ads[j] @ v - 1j * coords[j] * v).max() > tol:
                return [], False
        k_norm = np.linalg.norm(v[: alg.dim_k])
        p_norm = np.linalg.norm(v[alg.dim_k :])
        if min(k_norm, p_norm) > tol:
            return [], False
        compact = k_norm > p_norm
        # deterministic phase: largest-magnitude component made real positive
        lead = int(np.argmax(np.abs(v)))
        phase = v[lead] / abs(v[lead])
        roots.append((coords, v / phase, compact))
    return roots, True


def _distinguished_central_element(alg, tol):
    """Solve ad(z)^2 = -id on p over the center of k."""
    dim_k = alg.dim_k
    c = alg.structure
    # center of k: x in k with [x, e_j] = 0 for all e_j in k
    stacked = np.einsum("ijk->jki", c[:dim_k, :dim_k, :]).reshape(-1, dim_k)
    _, s, vt = np.linalg.svd(stacked, full_matrices=False)
    kernel = [vt[i] for i in range(len(s)) if s[i] < 1e-9 * max(1.0, s.max())]
    if len(kernel) != 1:
        raise ValueError(
            f"center of k has dimension {len(kernel)}; the model is not of "
            "Hermitian tube/non-tube type handled here"
        )
    zeta = alg.embed_k(kernel[0])
    adz = alg.ad(zeta)
    blk = (adz @ adz)[dim_k:, dim_k:]
    mu = float(np.trace(blk)) / alg.dim_p
    if mu >= 0 or np.abs(blk - mu * np.eye(alg.dim_p)).max() > tol:
        raise ValueError("ad(zeta)^2 is not a negative scalar on p")
    return zeta / np.sqrt(-mu)


# -- chamber ------------------------------------------------------------------


def chamber_hits(datum, h):
    """Indices of the rows of h (m, rank) in the chamber, tested root-major."""
    above = datum.chamber_roots @ h.T > datum.chamber_floor[:, None]
    return np.logical_and.reduce(above, axis=0).nonzero()[0]


def in_holomorphic_chamber(weight, datum):
    """Membership test; returns (bool, margin over noncompact positive roots).

    One product per root set against the datum's coordinate arrays.
    """
    margin = (weight.coords @ datum.noncompact_coords.T).min()
    ok = margin > 1e-12
    if len(datum.compact_coords):
        ok = ok and (weight.coords @ datum.compact_coords.T).min() >= -1e-12
    return bool(ok), float(margin)


def chamber_constants(weight, datum):
    """(m_lambda, b_lambda): chamber margin and bracket-pairing norm.

    b_lambda is the spectral norm of M_ij = <lambda, [e_i, e_j]> over all of
    g, an upper bound for the supremum in the nondegeneracy threshold.
    """
    alg = datum.algebra
    _, m = in_holomorphic_chamber(weight, datum)
    mat = pairing_matrix(alg, weight.full(alg))
    b = float(np.linalg.norm(mat, ord=2))
    return m, b


def pairing_matrix(alg, xi):
    """Matrix of the 2-form <xi, [., .]> on g, for xi in dual coordinates."""
    return np.einsum("ijk,...k->...ij", alg.structure, xi)


@dataclass
class StabilizerSplit:
    """B_theta-orthonormal bases of k_lambda and its complement inside k."""

    kernel: np.ndarray  # (dim_k, d)
    complement: np.ndarray  # (dim_k, c)


def stabilizer_algebra(weight, datum):
    """Split k into the stabilizer k_lambda and its B_theta-orthocomplement.

    k_lambda is the kernel of X |-> lambda o ad(X)|_k, found by SVD with the
    relative singular-value threshold 1e-9.
    """
    alg = datum.algebra
    dim_k = alg.dim_k
    m_kk = pairing_matrix(alg, weight.full(alg))[:dim_k, :dim_k]
    _, s, vt = np.linalg.svd(m_kk)
    # absolute floor keeps the K-invariant case (zero matrix) in the kernel
    thresh = max(1e-9 * float(s.max()), 1e-12 * max(1.0, float(np.linalg.norm(weight.coords))))
    small = s < thresh
    kernel = vt[small].T
    complement = vt[~small].T
    return StabilizerSplit(kernel=kernel, complement=complement)
