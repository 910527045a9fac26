"""Symplectic forms and moment maps on the trivialized orbit K.lambda x p.

Points are pairs (k lambda, Z) with k in K and Z in p.  Tangent vectors are
([k, X], A) with X in the B_theta-orthocomplement of k_lambda inside k and A
in p; all forms are returned as matrices against this basis, so the tangent
coordinate layout is always (complement slots, fiber slots).

The five forms, which the stage families of moser.py evaluate:
  * pullback       Gamma^* of the KKS form of G.lambda (split formula),
  * product        Omega_{K.lambda} (+) Omega_p,  Omega_p(A,B) = B_theta(A,[z0,B]),
  * delta          Omega_{K.lambda} (+) delta * (Gamma_0^* KKS of G.lambda_0),
  * segment        t * delta + (1-t) * pullback,
  * hermitian      Omega_{K.lambda} (+) (Gamma_0^* KKS)|_{tZ}  (scaled family).

Moment maps follow the convention d<Phi, X> = iota(X_M) Omega with
X_M(x) = d/dt|_0 exp(tX).x; the two textbook displays that disagree with this
convention (the flat display, off by a factor 2, and the product display's
fiber sign) are measured at run time by measure_convention_constants.

OrbitGeometry's evaluators take the spectrum of ad(Z) (fiber_eig) and the
Ad(k^{-1}) matrices of a batch of points (None for k = e) and accept any
leading batch shape; each block is a matmul chain W^T M W over that shape.
A t or delta argument is a scalar or an array that broadcasts against that
shape (one value per lane, or a time axis in front of the lanes); each
evaluator appends the trailing axes it scales.  The spectrum is the
half-size operators.FiberSpectrum: ad(Z) = [[0, A], [A^T, 0]], so every
block is a function of M = A^T A.  The fiber columns of the even Psi_Z^+
are the p-p block even(f_plus) (zero k rows), those of the odd Psi_Z^- =
-nu G the k-p block -A even(G) (zero p rows); both come from one
Taylor-and-doubling kernel call per spectrum (psi_plus, even_g), and the
hermitian blocks, their t-derivative and moments read the same kernel at
c = t^2; no block takes an eigh.  The moments apply k-k blocks to k*
vectors, and the flat display A A^T lambda_0 needs only A.  The moment_*
functions evaluate the moments at points (ks, zs).
"""

from __future__ import annotations

import numpy as np

from .operators import FiberSpectrum
from .roots import in_holomorphic_chamber, pairing_matrix, stabilizer_algebra


class OrbitGeometry:
    """Weight, stabilizer split and cached tensors for one orbit model."""

    def __init__(self, alg, datum, weight):
        ok, margin = in_holomorphic_chamber(weight, datum)
        if not ok:
            raise ValueError(
                f"weight is not in the holomorphic chamber (margin {margin:.3e})"
            )
        self.alg = alg
        self.datum = datum
        self.weight = weight
        self.lam = weight.full(alg)
        self.lam0 = datum.lambda0.full(alg)
        self.z0 = datum.z0
        split = stabilizer_algebra(weight, datum)
        self.split = split
        self.dim_c = split.complement.shape[1]
        self.dim_p = alg.dim_p
        self.dim_t = self.dim_c + self.dim_p
        comp = np.zeros((alg.dim, self.dim_c))
        comp[: alg.dim_k] = split.complement
        self.complement = comp  # (N, c) full coordinates
        self.m_lam = pairing_matrix(alg, self.lam)
        self.m_lam0 = pairing_matrix(alg, self.lam0)
        k, p = alg.dim_k, alg.dim_p
        self.m_lam0_pp = self.m_lam0[k:, k:]
        self.lam0_k = self.lam0[:k]
        self.ad_z0 = alg.ad(self.z0)
        # GEMM operands: zp -> A = ad(Z)[:k, k:] as (P, K*P), and k lambda ->
        # the p-p block of <k lambda, [., .]> as (N, P*P)
        c = alg.structure
        self._ad_kp = c[k:, k:, :k].transpose(0, 2, 1).reshape(p, k * p)
        self._structure_pp = c[k:, k:, :].transpose(2, 0, 1).reshape(alg.dim, p * p)
        self.base_block = comp.T @ self.m_lam @ comp  # (c, c), point-independent

    # -- batched building blocks (any leading batch shape) ----------------------

    def fiber_block(self, zp):
        """The k-p blocks A = ad(Z)[:dim_k, dim_k:] (..., K, P) of fiber vectors."""
        zp = np.atleast_2d(np.asarray(zp, dtype=float))
        return (zp @ self._ad_kp).reshape(zp.shape[:-1] + (self.alg.dim_k, self.dim_p))

    def fiber_eig(self, zp):
        """FiberSpectrum of ad(Z) for a batch of fiber vectors; it takes no eigh."""
        return FiberSpectrum(self.fiber_block(zp))

    def kappa(self, k):
        """Ad(k^{-1}) coordinate matrices for a batch of group elements."""
        k = np.asarray(k, dtype=complex)
        if k.ndim == 2:
            k = k[None]
        return self.alg.adjoint_group_matrix(self.alg.group_inverse(k))

    def klam(self, kap):
        """Coadjoint coordinates of k lambda from the kappa matrices (None: k = e)."""
        return self.lam if kap is None else np.einsum("...nm,n->...m", kap, self.lam)

    def pairing_klam(self, kap):
        """p-p blocks (..., P, P) of the pairings <k lambda, [., .]>."""
        out = self.klam(kap) @ self._structure_pp
        return out.reshape(out.shape[:-1] + (self.dim_p, self.dim_p))

    def pullback_blocks(self, spec, kap):
        """Form matrices (..., T, T) of Gamma^* Omega at (k, Z); kap None: k = e."""
        kap = np.eye(self.alg.dim) if kap is None else kap
        m_kl = self.pairing_klam(kap)
        psim = -(spec.a @ spec.even_g)  # the k rows of Psi_Z^-; its p rows vanish
        psip = spec.psi_plus  # the p rows of Psi_Z^+; its k rows vanish
        w_p = kap[..., : self.alg.dim_k] @ psim
        w_c = np.broadcast_to(self.complement, w_p.shape[:-1] + (self.dim_c,))
        w_full = np.concatenate([w_c, w_p], axis=-1)
        out = _mT(w_full) @ (self.m_lam @ w_full)
        out[..., self.dim_c :, self.dim_c :] += _mT(psip) @ (m_kl @ psip)
        return out

    def delta_blocks(self, spec, delta):
        """Omega^delta at (k, Z): base block plus delta-scaled flat pullback."""
        psip, delta = spec.psi_plus, np.expand_dims(delta, (-2, -1))
        return self._assemble(delta * (_mT(psip) @ (self.m_lam0_pp @ psip)))

    def hermitian_blocks(self, spec, t):
        """The scaled family Omega_t: fiber block (Gamma_0^* Omega)|_{tZ}."""
        t = np.expand_dims(t, (-2, -1))
        psip = spec.sinhc(t * t)[0]
        return self._assemble(_mT(psip) @ (self.m_lam0_pp @ psip))

    def hermitian_dt_blocks(self, spec, t):
        """d/dt of hermitian_blocks: commuting path, so a scalar derivative."""
        t = np.expand_dims(t, (-2, -1))
        psip = spec.sinhc(t * t)[0]
        dpsi = 2.0 * t * spec.sinhc_dc(t * t)[0]  # d/dt f_plus(t^2 M)
        cross = _mT(dpsi) @ (self.m_lam0_pp @ psip)
        out = self._assemble(cross - _mT(cross))
        out[..., : self.dim_c, : self.dim_c] = 0.0
        return out

    def _assemble(self, fiber_block):
        out = np.zeros(fiber_block.shape[:-2] + (self.dim_t, self.dim_t))
        out[..., : self.dim_c, : self.dim_c] = self.base_block
        out[..., self.dim_c :, self.dim_c :] = fiber_block
        return out

    # -- batched moment maps (B, N): k* coordinates, zero on p -------------------

    def moment_pullback(self, spec, kl):
        """Gamma^* of the orbit moment map: (e^Z.(k lambda)) restricted to k*.

        k lambda lies in k*, where the k-k block of e^{-ad Z} is cosh(A A^T).
        """
        kl_k = kl[..., : self.alg.dim_k]
        return self.alg.embed_k(spec.apply_k(1.0, spec.even_g, kl_k))

    def moment_delta(self, spec, kl, delta):
        delta = np.expand_dims(delta, -1)
        cosh = spec.apply_k(1.0, spec.even_g, self.lam0_k)
        return self.alg.embed_k(kl[..., : self.alg.dim_k] + delta * cosh)

    def moment_segment(self, spec, kl, t, delta):
        """t * Phi^delta + (1-t) * Phi_pullback, matching the segment form."""
        pull, t = self.moment_pullback(spec, kl), np.expand_dims(t, -1)
        return t * self.moment_delta(spec, kl, delta) + (1.0 - t) * pull

    def moment_flat(self, a):
        """The flat display lambda_0 o ad(Z)^2 = A A^T lambda_0 from the blocks A.

        Twice the true moment of Omega_p; it needs no eigendecomposition.
        """
        return self.alg.embed_k((a @ (_mT(a) @ self.lam0_k[:, None]))[..., 0])

    def moment_product(self, spec, kl):
        flat = self.moment_flat(spec.a)
        return self.alg.embed_k(kl[..., : self.alg.dim_k]) + 0.5 * flat

    def moment_hermitian(self, spec, kl, t):
        """Moment of the scaled family: kl + (cosh(t ad Z) - 1)/t^2 lambda_0.

        On k that is A G(t^2 A^T A) A^T lambda_0, continuous through t = 0.
        """
        t = np.expand_dims(t, (-2, -1))
        out = spec.apply_k(0.0, spec.sinhc(t * t)[1], self.lam0_k)
        return self.alg.embed_k(kl[..., : self.alg.dim_k] + out)

    # -- tangent utilities ------------------------------------------------------

    def generator_field(self, kap, zp, x_gen):
        """Tangent coordinates of the vector field of X = x_gen (in k) at (k, Z).

        x_gen is one generator (dim_k,) or one per point (B, dim_k).
        """
        alg = self.alg
        x_full = alg.embed_k(x_gen)
        moved = (kap @ x_full[..., None])[..., 0]
        base = moved @ self.complement  # (B, c) coordinates in the complement
        fiber = alg.bracket(
            np.broadcast_to(x_full, (kap.shape[0], alg.dim)), alg.embed_p(zp)
        )[..., alg.dim_k :]
        return np.concatenate([base, fiber], axis=-1)


def _mT(a):
    return np.swapaxes(a, -1, -2)


# -- moments at points (ks, zs): (B, N) arrays -------------------------------------


def _spectrum_klam(geometry, ks, zs):
    return geometry.fiber_eig(zs), geometry.klam(geometry.kappa(ks))


def moment_pullback(geometry, ks, zs):
    return geometry.moment_pullback(*_spectrum_klam(geometry, ks, zs))


def moment_delta(geometry, ks, zs, delta):
    return geometry.moment_delta(*_spectrum_klam(geometry, ks, zs), delta)


def moment_segment(geometry, ks, zs, t, delta):
    return geometry.moment_segment(*_spectrum_klam(geometry, ks, zs), t, delta)


def moment_flat(geometry, zs):
    return geometry.moment_flat(geometry.fiber_block(zs))


def moment_product(geometry, ks, zs):
    return geometry.moment_product(*_spectrum_klam(geometry, ks, zs))


def moment_hermitian(geometry, ks, zs, t):
    return geometry.moment_hermitian(*_spectrum_klam(geometry, ks, zs), t)


def bracket_positivity_slack(datum, w1, w2, zp):
    """B_theta(H_1, ad(Z)^2 H_2) >= min_beta beta(H_1) beta(H_2) ||Z||^2.

    The minimum runs over the positive noncompact roots.  The weights' coords
    and zp may carry a common leading batch shape, (..., rank) and (..., P).
    Returns (lhs, rhs, slack), arrays of that shape.  ad(Z) is symmetric for
    Z in p, so lhs = [H_1, Z] . [H_2, Z]: two brackets and one row dot.
    """
    alg = datum.algebra
    zp = np.asarray(zp, dtype=float)
    z = alg.embed_p(zp)
    x1, x2 = alg.bracket(w1.full(alg), z), alg.bracket(w2.full(alg), z)
    lhs = np.einsum("...i,...i->...", x1, x2)
    nonc = datum.noncompact_coords.T
    prods = (w1.coords @ nonc) * (w2.coords @ nonc)
    rhs = prods.min(axis=-1) * np.einsum("...i,...i->...", zp, zp)
    return lhs, rhs, lhs - rhs


# -- moment-map convention checks -------------------------------------------------


def difference_lanes(geometry, ks, zs, eps):
    """The B 2 T central-difference lanes around the points ks (B, a, a), zs (B, P).

    Ordered (point, tangent direction, sign + then -): base directions move k
    to k exp(+-eps C_i) along the complement, with the 2 dim_c group steps
    shared by every point; fiber directions shift Z by +-eps e_j.  Returns
    (lanes_k, lanes_z), (B 2 T, a, a) and (B 2 T, P).
    """
    alg = geometry.alg
    a, dim_p = alg.ambient, geometry.dim_p
    signs = np.array([1.0, -1.0])
    step_k = np.concatenate([
        alg.group_exp(
            eps * signs[None, :, None] * geometry.complement[: alg.dim_k].T[:, None]
        ),
        np.broadcast_to(np.eye(a), (dim_p, 2, a, a)),
    ])
    step_z = np.zeros((geometry.dim_t, 2, dim_p))
    step_z[geometry.dim_c :] = eps * signs[None, :, None] * np.eye(dim_p)[:, None, :]
    lanes_k = (ks[:, None, None] @ step_k).reshape(-1, a, a)
    return lanes_k, (zs[:, None, None] + step_z).reshape(-1, dim_p)


def _moment_identity_sides(geometry, form_at, moment_at, ks, zs, gens, eps):
    """Both sides of d<Phi, X>(u) = Omega(X_M, u) for every basis direction u.

    Returns (lhs, rhs), each (B, T): lhs the central differences of <Phi, X>,
    rhs the contraction of the form with the generator field.  All B 2 T
    difference_lanes take one moment_at call.
    """
    gens = np.asarray(gens, dtype=float)
    field = geometry.generator_field(geometry.kappa(ks), zs, gens)
    rhs = (field[:, None] @ form_at(ks, zs))[:, 0]
    lanes = difference_lanes(geometry, ks, zs, eps)
    mom = moment_at(*lanes).reshape(len(zs), geometry.dim_t, 2, geometry.alg.dim)
    vals = np.einsum("btsn,bn->bts", mom, geometry.alg.embed_k(gens))
    return (vals[..., 0] - vals[..., 1]) / (2 * eps), rhs


def moment_identity_residual(geometry, form_at, moment_at, ks, zs, gens, eps=1e-5):
    """max |FD d<Phi,X>(u) - Omega(X_M, u)| over points and basis u.

    form_at(ks, zs) -> (B, T, T) matrices; moment_at(ks, zs) -> (B, N)
    k*-coordinates, both batched over points.  ks (B, a, a), zs (B, P) and
    gens (B, dim_k) give one point and one generator per row; the finite
    differences are _moment_identity_sides.
    """
    lhs, rhs = _moment_identity_sides(geometry, form_at, moment_at, ks, zs, gens, eps)
    return float(np.abs(lhs - rhs).max())


def measure_convention_constants(geometry, rng):
    """Numerically fit the two display constants discussed in the module docs.

    Returns {"flat_display_factor": ~2.0, "product_display_fiber_sign": ~-1.0}:
    the flat display lambda_0 o ad(Z)^2 differentiates to twice iota(X_M)Omega_p,
    and the display fiber term (1/2) Omega_p(v, [X, v]) is minus the true one.
    Medians over 6 random (Z, X), drawn Z then X per sample, and every fiber
    direction whose contraction is not below 1e-3, central differences of
    step 1e-6; all 6 P 2 difference lanes are one batch.
    """
    alg, dim_p = geometry.alg, geometry.dim_p
    eps = 1e-6
    draws = rng.standard_normal((6, dim_p + alg.dim_k))  # row i: Z_i, then X_i
    zp, x_full = draws[:, :dim_p], alg.embed_k(draws[:, dim_p:])
    adz0_p = geometry.ad_z0[alg.dim_k :, alg.dim_k :]
    rhs = alg.bracket(x_full, alg.embed_p(zp))[:, alg.dim_k :] @ adz0_p  # (6, P)
    keep = np.abs(rhs) >= 1e-3
    # lanes (sample, fiber direction, sign + then -)
    v = zp[:, None, None] + eps * np.array([1.0, -1.0])[:, None] * np.eye(dim_p)[:, None]
    flat = geometry.moment_flat(geometry.fiber_block(v))
    flat_fd = np.einsum("sjn,sn->sj", flat[:, :, 0] - flat[:, :, 1], x_full) / (2 * eps)
    moved = alg.bracket(x_full[:, None, None], alg.embed_p(v))[..., alg.dim_k :]
    display = 0.5 * np.einsum("sjdi,sjdi->sjd", v @ adz0_p, moved)
    disp_fd = (display[..., 0] - display[..., 1]) / (2 * eps)
    return {
        "flat_display_factor": float(np.median(flat_fd[keep] / rhs[keep])),
        "product_display_fiber_sign": float(np.median(disp_fd[keep] / rhs[keep])),
    }
