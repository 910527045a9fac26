"""Independent reference implementations the tests compare holomoser against.

None of this runs in the certification pipeline:

- structure residuals of the algebra (closure, Jacobi, ad-invariance,
  membership), the Killing form and torus weights from matrices;
- Ad(g) by a three-operand einsum, and the coadjoint action of K;
- the operator bundle Psi_Z, Psi_Z^{+-}, chi_Z, cosh, e^{-ad Z} at one Z,
  and the chi spectrum check from one eigh of the full-size ad(Z);
- the half-size eigh path: one eigh of M = A^T A and the functions of its
  eigenvalues s = nu^2 (f_plus_s, f_plus_prime_s, G, hermitian_radial),
  which the sinhc kernel and its complex-step derivative must match;
- the full-size spectral path: one eigh of the N x N matrix ad(Z) and
  functions of its eigenvalues nu, for every form block, moment map and
  stage primitive;
- the orbit chart Gamma(k lambda, Z) = e^Z.(k lambda) and its tangent map

      dGamma(k lambda, Z)([k,X], A) = [e^Z k, X + Ad(k^{-1}) Psi_Z(A)];

- the five forms at points (ks, zs) from the OrbitGeometry blocks, and the
  product form matrix;
- the unsplit single-bracket formula for the pullback form;
- the radial homotopy primitive by Gauss-Legendre quadrature over the full
  time derivative of the forms at the scaled points (k, sZ);
- gauge fixing of a family of 1-forms by its radial potential;
- the constant family, whose Moser flow is the identity;
- the root datum's structural residuals one root and one torus generator
  at a time;
- chamber rejection sampling one candidate at a time, and the lemma suite's
  growth, flat and bracket loops, the scaling-linearity residual and the
  convention constants evaluated one point, one weight and one difference
  lane at a time;
- the hypothesis checks (Stokes closedness, primitive exactness, zero
  section) and both sides of the moment identities one base point and one
  finite-difference lane at a time, and the properness fit with its
  sampled and zero-fiber moments as separate calls, its growth exponent
  from a moment call of its own at k = e (properness_gamma), and the
  analytic properness constant of each stage by name
  (analytic_properness_bound);
- the Moser flow with the full RKMK group update for every family and
  every lane, the Moser field evaluating Ad(k^{-1}) at every stage point;
- the body-coordinate flow with its group update inside the step loop
  (one group_exp and one drift check per step);
- the flow's differential at the samples with every row, base directions
  included, from central differences of flowed lanes;
- the segment witness as a sweep of sampled times, one svd per time;
- the radius a vertical family's time-one map gives a point on a ray, by
  equal areas: quadrature of its forms and root-finding.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from math import factorial

import numpy as np

from holomoser.moser import (
    _PROPERNESS_GRID,
    _TRI_BARY,
    _TRI_W,
    FlowResult,
    FlowTrace,
    FormFamily,
    _dexp_matrix,
    _dexpinv,
    _group_log,
    _root_probe_fibers,
    _z0_direction,
    flow_stages,
    homotopy_primitive,
    moser_field,
    segment_weight_coords,
)
from holomoser.forms import OrbitGeometry, difference_lanes, moment_flat, moment_hermitian
from holomoser.roots import ChamberWeight, chamber_constants, in_holomorphic_chamber

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_GL_NODES = 0.5 * (_GL_X + 1.0)
_GL_WEIGHTS = 0.5 * _GL_W


# -- scalar functions of the eigenvalues nu of ad(Z) ------------------------------


def f_plus(nu):
    nu = np.asarray(nu, dtype=float)
    safe = np.where(nu == 0.0, 1.0, nu)
    return np.where(nu == 0.0, 1.0, np.sinh(safe) / safe)


def f_minus(nu):
    # -(cosh(nu)-1)/nu computed as -2 sinh(nu/2)^2 / nu to avoid cancellation
    nu = np.asarray(nu, dtype=float)
    safe = np.where(nu == 0.0, 1.0, nu)
    return np.where(nu == 0.0, 0.0, -2.0 * np.sinh(safe / 2.0) ** 2 / safe)


def f_cosh(nu):
    return np.cosh(np.asarray(nu, dtype=float))


def f_plus_prime(nu):
    """Derivative of sinh(nu)/nu, as 2 nu f_plus_prime_s(nu^2).

    The s-form takes its series below s = 0.1 (|nu| < 0.316), past the range
    where cosh(nu)/nu - sinh(nu)/nu^2 cancels.
    """
    nu = np.asarray(nu, dtype=float)
    return 2.0 * nu * f_plus_prime_s(nu * nu)


def f_chi(nu):
    return -np.tanh(np.asarray(nu, dtype=float) / 2.0)


def f_psi(nu):
    nu = np.asarray(nu, dtype=float)
    safe = np.where(nu == 0.0, 1.0, nu)
    return np.where(nu == 0.0, 1.0, -np.expm1(-safe) / safe)


# -- the half-size eigh path: functions of s = nu^2 and blocks of M = A^T A --------


def fiber_eigh(spec):
    """s (..., P) and V (..., P, P) from one eigh of M = A^T A, s clipped at 0."""
    s, v = np.linalg.eigh(np.swapaxes(spec.a, -1, -2) @ spec.a)
    return np.maximum(s, 0.0), v


def fiber_s(spec):
    """The eigenvalues s = sigma^2 of A^T A, ascending, (..., P)."""
    return fiber_eigh(spec)[0]


def even(spec, g):
    """The p-p block V g(s) V^T of g(ad(Z)^2); g(s) may add leading axes."""
    s, v = fiber_eigh(spec)
    return (v * g(s)[..., None, :]) @ np.swapaxes(v, -1, -2)


def _series_below(y, closed, coef, cut=0.1):
    """closed(y) for y >= cut, the Taylor polynomial coef below (cancellation)."""
    small = y < cut
    far = closed(np.where(small, 1.0, y))
    return np.where(small, np.polynomial.polynomial.polyval(y, coef), far)


def f_plus_s(s):
    """sinh(nu)/nu at s = nu^2."""
    return f_plus(np.sqrt(np.asarray(s, dtype=float)))


def G(s):
    """(cosh(nu) - 1)/nu^2 = (1/2) (sinh(nu/2)/(nu/2))^2 at s = nu^2."""
    return 0.5 * f_plus_s(0.25 * np.asarray(s, dtype=float)) ** 2


def f_plus_prime_s(s):
    """d f_plus_s / ds = (cosh(nu) - f_plus) / (2 s), by its series below 0.1.

    The series is sum_n n s^(n-1)/(2n+1)!; six terms are exact to roundoff.
    """
    return _series_below(
        np.asarray(s, dtype=float),
        lambda x: (np.cosh(np.sqrt(x)) - f_plus_s(x)) / (2.0 * x),
        [n / factorial(2 * n + 1) for n in range(1, 7)],
    )


def hermitian_radial(s, t):
    """int_0^1 r (r nu) f'(t r nu) dr = t s H(y), y = t^2 s, f(nu) = sinh(nu)/nu.

    H(y) = (f_plus(y) - 2 G(y)) / y cancels for small y, so it takes its
    series sum_n 2n y^(n-1)/(2n+2)! there (H(0) = 1/12), and the result is
    exactly 0 at t = 0.
    """
    y = t * t * np.asarray(s, dtype=float)
    h = _series_below(
        y, lambda x: (f_plus_s(x) - 2.0 * G(x)) / x,
        [2 * n / factorial(2 * n + 2) for n in range(1, 7)],
    )
    return t * s * h


def spectral_apply(eigvals, eigvecs, fn):
    """Reassemble fn(S) for symmetric S = eigvecs diag(eigvals) eigvecs^T."""
    vals = fn(eigvals)
    return np.einsum("...ij,...j,...kj->...ik", eigvecs, vals, eigvecs)


# -- structure residuals ---------------------------------------------------------


def membership_residual(alg, mat):
    """Frobenius distance from `mat` to the span of the basis."""
    x = alg.coords(mat)
    rec = alg.matrix(x)
    return float(np.linalg.norm(np.asarray(mat, dtype=complex) - rec))


def closure_residual(alg):
    """Max Frobenius error of reconstructing [e_i,e_j] from structure."""
    mats = alg.basis
    brk = np.einsum("iab,jbc->ijac", mats, mats) - np.einsum(
        "jab,ibc->ijac", mats, mats
    )
    rec = np.tensordot(alg.structure, mats, axes=([2], [0]))
    return float(np.abs(brk - rec).max())


def jacobi_residual(alg):
    """Max residual of the Jacobi identity over all basis triples."""
    c = alg.structure
    term = np.einsum("ijm,mkl->ijkl", c, c)
    total = term + np.einsum("jkm,mil->ijkl", c, c) + np.einsum(
        "kim,mjl->ijkl", c, c
    )
    return float(np.abs(total).max())


def _as_coords(alg, x):
    x = np.asarray(x)
    if x.ndim >= 2 and x.shape[-2:] == (alg.ambient, alg.ambient):
        return alg.coords(x)
    return x.astype(float)


def theta(alg, x):
    """Cartan involution, on coordinates or ambient matrices."""
    x = np.asarray(x)
    if x.ndim >= 2 and x.shape[-1] == alg.ambient and np.iscomplexobj(x):
        return -np.conj(np.swapaxes(x, -1, -2))
    return x * alg.theta_signs


def killing_form(alg, x, y):
    """B_g(x, y) from the Gram matrix, on coordinates or ambient matrices."""
    x, y = _as_coords(alg, x), _as_coords(alg, y)
    return np.einsum("...i,ij,...j->...", x, alg.killing, y)


def ad_invariance_residual(alg, rng, samples=20):
    """Max |B_g([x,y],z) + B_g(y,[x,z])| over random triples."""
    out = 0.0
    for _ in range(samples):
        x, y, z = rng.standard_normal((3, alg.dim))
        r = killing_form(alg, alg.bracket(x, y), z) + killing_form(
            alg, y, alg.bracket(x, z)
        )
        out = max(out, abs(float(r)))
    return out


def weight_from_matrix(alg, h_matrix):
    """ChamberWeight whose H_lambda equals the given torus matrix."""
    x = alg.coords(h_matrix)
    if membership_residual(alg, h_matrix) > 1e-10:
        raise ValueError("matrix does not lie in the algebra")
    if np.abs(x[alg.rank :]).max() > 1e-10:
        raise ValueError("matrix does not lie in the chosen maximal torus")
    return ChamberWeight(x[: alg.rank].copy())


# -- the group action ----------------------------------------------------------


def adjoint_group_matrix_einsum(alg, g):
    """Coordinate matrix of Ad(g) by one einsum over g e_j g^{-1}.

    The independent oracle for MatrixLieAlgebra.adjoint_group_matrix, which
    builds the conjugates by GEMM.
    """
    g = np.asarray(g, dtype=complex)
    ginv = alg.group_inverse(g)
    conj = np.einsum("...xy,jyz,...zw->...jxw", g, alg.basis, ginv)
    cols = alg.coords(conj)  # (..., N, N) rows indexed by j
    return np.swapaxes(cols, -1, -2)


def coadjoint_group_matrix(alg, g):
    """Matrix sending coords of xi to coords of the coadjoint action g.xi.

    Coadjoint action: (g.xi)(Y) = xi(Ad(g^{-1}) Y), so the matrix is the
    transpose of the Ad(g^{-1}) coordinate matrix.
    """
    ad_inv = alg.adjoint_group_matrix(alg.group_inverse(g))
    return np.swapaxes(ad_inv, -1, -2)


# -- the operator bundle at a fixed Z -------------------------------------------


@dataclass
class OperatorAtZ:
    """Spectral data of ad(Z) and the four derived operators at one Z."""

    z: np.ndarray  # full algebra coordinates, p-part only
    eigvals: np.ndarray
    eigvecs: np.ndarray

    def _mk(self, fn):
        return spectral_apply(self.eigvals, self.eigvecs, fn)

    @property
    def psi(self):
        return self._mk(f_psi)

    @property
    def psi_plus(self):
        return self._mk(f_plus)

    @property
    def psi_minus(self):
        return self._mk(f_minus)

    @property
    def chi(self):
        return self._mk(f_chi)

    @property
    def cosh_ad(self):
        return self._mk(f_cosh)

    @property
    def exp_minus_ad(self):
        return self._mk(lambda nu: np.exp(-nu))


def _fiber_coords(alg, z):
    """Accept (dim_p,) fiber coordinates or full (N,) coordinates."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1] == alg.dim_p:
        full = np.zeros(z.shape[:-1] + (alg.dim,))
        full[..., alg.dim_k :] = z
        return full
    if z.shape[-1] != alg.dim:
        raise ValueError("fiber vector has neither dim_p nor full dimension")
    if np.abs(z[..., : alg.dim_k]).max(initial=0.0) > 1e-12:
        raise ValueError("fiber vector has components along k")
    return z


def psi_operators(alg, z):
    """OperatorAtZ for a fiber vector z (p-coordinates or padded)."""
    full = _fiber_coords(alg, z)
    s = alg.ad(full)
    assert np.abs(s - s.T).max() < 1e-10, "ad(Z) not symmetric; Z not in p?"
    w, v = np.linalg.eigh(s)
    return OperatorAtZ(z=full, eigvals=w, eigvecs=v)


def chi_spectrum_full(alg, z):
    """chi_spectrum_check from one eigh of the N x N matrix ad(Z).

    chi_Z = V f_chi(nu) V^T over the eigenpairs (nu, V) of ad(Z); the
    multiset deviation of eigvalsh(chi_Z) from {(e^nu - 1)/(e^nu + 1)} and
    the largest |eigenvalue|, arrays of the batch shape of z (..., P).
    """
    w, v = np.linalg.eigh(alg.ad(alg.embed_p(np.asarray(z, dtype=float))))
    chi = (v * f_chi(w)[..., None, :]) @ np.swapaxes(v, -1, -2)
    chi_eigs = np.sort(np.linalg.eigvalsh(chi), axis=-1)
    predicted = np.sort(np.expm1(w) / (np.exp(w) + 1.0), axis=-1)
    return np.abs(chi_eigs - predicted).max(axis=-1), np.abs(chi_eigs).max(axis=-1)


# -- the chart Gamma ---------------------------------------------------------------


def _check_group(alg, k, tol=1e-10):
    res = float(alg.group_residual(k))
    if res > tol:
        raise ValueError(f"k is not in the compact group K (residual {res:.2e})")


def gamma_map(alg, weight, k, z):
    """Coadjoint coordinates of the orbit point Gamma(k lambda, Z) = e^Z.(k lambda)."""
    _check_group(alg, k)
    op = psi_operators(alg, z)
    xi = coadjoint_group_matrix(alg, k) @ weight.full(alg)
    return op.exp_minus_ad @ xi


def gamma_push_matrix(alg, k, op):
    """Coordinate matrix of the coadjoint action of e^Z k on g*."""
    return op.exp_minus_ad @ coadjoint_group_matrix(alg, k)


def d_gamma(alg, weight, k, z, x_dir, a_dir):
    """Tangent of Gamma at ([k,X], A), as a coadjoint coordinate vector.

    x_dir is a k-coordinate vector (the [k,X] leg), a_dir a fiber vector.
    """
    _check_group(alg, k)
    op = psi_operators(alg, z)
    a_full = _fiber_coords(alg, a_dir)
    x_full = np.zeros(alg.dim)
    x_full[: alg.dim_k] = np.asarray(x_dir, dtype=float)[: alg.dim_k]
    ad_kinv = alg.adjoint_group_matrix(alg.group_inverse(k))
    w = x_full + ad_kinv @ (op.psi @ a_full)
    v = -alg.ad(w).T @ weight.full(alg)
    return gamma_push_matrix(alg, k, op) @ v


# -- forms and flows ---------------------------------------------------------------


def full_eig(geometry, zs):
    """Eigenvalues nu and eigenvectors u of the N x N matrices ad(Z)."""
    return np.linalg.eigh(geometry.alg.ad(geometry.alg.embed_p(zs)))


class FullSizeReference:
    """The forms, moments and stage primitives from one eigh of ad(Z).

    The independent oracle for OrbitGeometry's half-size spectral layer
    (operators.FiberSpectrum, one eigh of A^T A): every spectral function is
    reassembled as u diag(fn(nu)) u^T over the full spectrum of ad(Z), with
    the functions of nu above, and the radial primitives integrate their
    functions of nu on the 16-node Gauss-Legendre grid.
    """

    def __init__(self, geometry, zs):
        self.geo = geometry
        self.zs = np.asarray(zs, dtype=float)
        self.w, self.u = full_eig(geometry, zs)

    def _columns(self, fn):
        """The fiber columns fn(ad Z)[:, p], (B, N, P)."""
        k = self.geo.alg.dim_k
        return (self.u * fn(self.w)[..., None, :]) @ np.swapaxes(self.u[:, k:], -1, -2)

    def _apply(self, fn, xi):
        full = (self.u * fn(self.w)[..., None, :]) @ np.swapaxes(self.u, -1, -2)
        out = (full @ xi[..., None])[..., 0]
        out[..., self.geo.alg.dim_k :] = 0.0
        return out

    def _fiber_pairing(self, psip, m):
        return np.swapaxes(psip, -1, -2) @ (m @ psip)

    def pullback_blocks(self, kap):
        geo = self.geo
        m_kl = np.tensordot(geo.klam(kap), geo.alg.structure, axes=([-1], [2]))
        psip = self._columns(f_plus)
        w_p = kap @ self._columns(f_minus)
        w_c = np.broadcast_to(geo.complement, w_p.shape[:-1] + (geo.dim_c,))
        w_full = np.concatenate([w_c, w_p], axis=-1)
        out = self._fiber_pairing(w_full, geo.m_lam)
        out[..., geo.dim_c :, geo.dim_c :] += self._fiber_pairing(psip, m_kl)
        return out

    def delta_blocks(self, delta):
        psip = self._columns(f_plus)
        return self.geo._assemble(delta * self._fiber_pairing(psip, self.geo.m_lam0))

    def hermitian_blocks(self, t):
        psip = self._columns(lambda nu: f_plus(t * nu))
        return self.geo._assemble(self._fiber_pairing(psip, self.geo.m_lam0))

    def hermitian_dt_blocks(self, t):
        psip = self._columns(lambda nu: f_plus(t * nu))
        dpsi = self._columns(lambda nu: nu * f_plus_prime(t * nu))
        cross = np.swapaxes(dpsi, -1, -2) @ (self.geo.m_lam0 @ psip)
        out = self.geo._assemble(cross - np.swapaxes(cross, -1, -2))
        out[..., : self.geo.dim_c, : self.geo.dim_c] = 0.0
        return out

    def moment_pullback(self, kl):
        return self._apply(lambda nu: np.exp(-nu), kl)

    def moment_delta(self, kl, delta):
        out = kl + delta * self._apply(f_cosh, self.geo.lam0)
        out[..., self.geo.alg.dim_k :] = 0.0
        return out

    def moment_segment(self, kl, t, delta):
        return t * self.moment_delta(kl, delta) + (1.0 - t) * self.moment_pullback(kl)

    def moment_flat(self):
        return self._apply(lambda nu: nu * nu, self.geo.lam0)

    def moment_product(self, kl):
        out = kl + 0.5 * self.moment_flat()
        out[..., self.geo.alg.dim_k :] = 0.0
        return out

    def moment_hermitian(self, kl, t):
        if t < 1e-12:
            vals = lambda nu: 0.5 * nu * nu  # noqa: E731
        else:
            vals = lambda nu: 2.0 * np.sinh(0.5 * t * nu) ** 2 / (t * t)  # noqa: E731
        out = kl + self._apply(vals, self.geo.lam0)
        out[..., self.geo.alg.dim_k :] = 0.0
        return out

    def _radial_row(self, row, fn):
        """row (B, N) . F(ad Z)[:, p] with F(nu) = int_0^1 s fn(s nu) ds."""
        nodes = self.w[:, None, :] * _GL_NODES[None, :, None]
        vals = (_GL_WEIGHTS * _GL_NODES) @ fn(nodes)
        coef = (row[:, None, :] @ self.u) * vals[:, None, :]
        out = np.zeros((row.shape[0], self.geo.dim_t))
        u_p = self.u[:, self.geo.alg.dim_k :, :]
        out[:, self.geo.dim_c :] = (coef @ np.swapaxes(u_p, -1, -2))[:, 0]
        return out

    def primitive(self, stage, kap, t, delta):
        """The radial primitive of the hermitian, scaling or segment stage."""
        geo = self.geo
        m0_p = geo.m_lam0[geo.alg.dim_k :]
        row0 = self.zs @ m0_p
        if stage == "hermitian":
            return self._radial_row(row0, lambda nu: nu * f_plus_prime(t * nu))
        if stage == "scaling":
            return self._radial_row((delta - 1.0) * row0, f_plus)
        m_kl = np.tensordot(geo.klam(kap), geo.alg.structure, axes=([-1], [2]))
        row = (self.zs[:, None, :] @ m_kl[:, geo.alg.dim_k :])[:, 0] - delta * row0
        return self._radial_row(row, f_plus)


def product_matrix(geometry):
    """The product form Omega_{K.lambda} (+) Omega_p, (T, T): base block and ad(z0)|_p."""
    k, c = geometry.alg.dim_k, geometry.dim_c
    prod = np.zeros((geometry.dim_t, geometry.dim_t))
    prod[:c, :c] = geometry.base_block
    prod[c:, c:] = geometry.ad_z0[k:, k:]
    return prod


# the five forms at points (ks, zs), (B, T, T), each written out from the
# OrbitGeometry blocks; the pipeline takes them from the stage families


def form_pullback(geometry, ks, zs):
    return geometry.pullback_blocks(geometry.fiber_eig(zs), geometry.kappa(ks))


def form_product(geometry, ks, zs):
    prod = product_matrix(geometry)
    return np.broadcast_to(prod, (len(zs),) + prod.shape).copy()


def form_delta(geometry, ks, zs, delta):
    return geometry.delta_blocks(geometry.fiber_eig(zs), delta)


def form_segment(geometry, ks, zs, t, delta):
    spec = geometry.fiber_eig(zs)
    pull = geometry.pullback_blocks(spec, geometry.kappa(ks))
    return t * geometry.delta_blocks(spec, delta) + (1.0 - t) * pull


def form_hermitian(geometry, ks, zs, t):
    return geometry.hermitian_blocks(geometry.fiber_eig(zs), t)


def unsplit_pullback_blocks(geometry, zs, kap):
    """Gamma^* Omega through the single-bracket expression with Psi_Z.

    The independent oracle for OrbitGeometry.pullback_blocks, which splits
    Psi_Z into its even and odd parts.
    """
    alg = geometry.alg
    psi = spectral_apply(*full_eig(geometry, zs), f_psi)[..., :, alg.dim_k :]
    w_p = np.einsum("...nm,...mj->...nj", kap, psi)
    w_c = np.broadcast_to(geometry.complement, w_p.shape[:-1] + (geometry.dim_c,))
    w_full = np.concatenate([w_c, w_p], axis=-1)
    return np.einsum("...ni,nm,...mj->...ij", w_full, geometry.m_lam, w_full)


def quadrature_primitive(family, spec, kap, zp, t):
    """The radial homotopy primitive by quadrature over the node batch.

    mu|_(k,Z)(u) = int_0^1 sigma|_(k,sZ)((0, Z), (u_base, s u_fiber)) ds
    with sigma = family.domega_dt evaluated at all 16 Gauss-Legendre scaled
    points (k, sZ) at once, each with its own spectrum fiber_eig(s Z); spec
    is not used.  The independent oracle for moser.homotopy_primitive, which
    contracts with (0, Z) in closed form.  Returns covector components (B, T).
    """
    geo = family.geometry
    nodes = geo.fiber_eig(_GL_NODES[None, :, None] * zp[:, None, :])
    sigma = family.domega_dt(nodes, kap[:, None], t)  # (B, S, T, T)
    w = np.zeros((zp.shape[0], geo.dim_t))
    w[:, geo.dim_c :] = zp
    contracted = np.einsum("bsij,bi->bsj", sigma, w)
    contracted[:, :, geo.dim_c :] *= _GL_NODES[None, :, None]
    return np.einsum("s,bsj->bj", _GL_WEIGHTS, contracted)


def gauge_fix(geometry, mu_eval, eps=1e-6):
    """Normalize a family of 1-forms by subtracting the radial potential.

    mu_eval(ks, zs, t) -> (B, T) frame components.  Returns (potential,
    corrected): potential evaluates f_t(k, Z) = 2 int_0^1 mu_t|(k,sZ)((0,sZ)) ds
    by quadrature and corrected returns mu_t - df_t with df_t from central
    differences.  The correction kills the fiber contraction of the family
    at the zero section; for the radial homotopy primitives the potential
    already vanishes identically and the correction is a no-op.
    """
    c = geometry.dim_c
    c_k = geometry.complement[: geometry.alg.dim_k]

    def potential(ks, zs, t):
        out = np.zeros(zs.shape[0])
        for s_o, w_o in zip(_GL_NODES, _GL_WEIGHTS):
            mu = mu_eval(ks, s_o * zs, t)
            out += w_o * 2.0 * s_o * np.einsum("bj,bj->b", mu[:, c:], zs)
        return out

    def corrected(ks, zs, t):
        mu = np.array(mu_eval(ks, zs, t))
        for i in range(geometry.dim_t):
            if i < c:
                hi = potential(ks @ geometry.alg.group_exp(eps * c_k[:, i]), zs, t)
                lo = potential(ks @ geometry.alg.group_exp(-eps * c_k[:, i]), zs, t)
            else:
                dz = np.zeros(zs.shape[1])
                dz[i - c] = eps
                hi = potential(ks, zs + dz, t)
                lo = potential(ks, zs - dz, t)
            mu[:, i] -= (hi - lo) / (2 * eps)
        return mu

    return potential, corrected


def constant_stage(geometry):
    """The product form at every t; its Moser flow is the identity."""
    prod = product_matrix(geometry)
    shape = prod.shape

    def product(spec, kap, t):
        return np.broadcast_to(prod, spec.a.shape[:-2] + shape).copy()

    def zero(spec, kap, t):
        return np.zeros(spec.a.shape[:-2] + shape)

    def zero_primitive(spec, kap, zp, t):
        return np.zeros((zp.shape[0], geometry.dim_t))

    return FormFamily(
        "constant",
        geometry,
        product,
        zero,
        zero_primitive,
        lambda spec, kap, t: geometry.moment_product(spec, geometry.klam(kap)),
        _z0_direction(geometry),
        0.0 * geometry.lam0,
        1.0 / (2.0 * float(np.linalg.norm(geometry.z0))),
    )


# -- the lemma suite one point at a time -----------------------------------------


def random_chamber_weight_loop(datum, rng, box=2.0, max_draws=10000):
    """Rejection sampling that tests one candidate weight per draw."""
    rank = datum.algebra.rank
    for _ in range(max_draws):
        w = ChamberWeight(rng.uniform(-box, box, rank))
        ok, _ = in_holomorphic_chamber(w, datum)
        if ok:
            return w
    raise RuntimeError("chamber rejection sampling failed")


def radial_fiber_rows(dim_p, rng, n, r_max):
    """n fibers by the lemma suite's layout: all n radii, then all n directions."""
    radii = rng.uniform(0.05, r_max, n)
    dirs = rng.standard_normal((n, dim_p))
    return np.array([r * (v / np.linalg.norm(v)) for r, v in zip(radii, dirs)])


def bracket_slack_point(datum, w1, w2, zp):
    """(lhs, rhs, lhs - rhs) of bracket positivity at one point, per root.

    lhs is the full-size x_1^T ad(Z)^2 x_2.
    """
    alg = datum.algebra
    z = np.zeros(alg.dim)
    z[alg.dim_k :] = zp
    adz = alg.ad(z)
    lhs = float(w1.full(alg) @ (adz @ adz) @ w2.full(alg))
    prods = [r.value(w1.coords) * r.value(w2.coords) for r in datum.positive_noncompact()]
    rhs = min(prods) * float(zp @ zp)
    return lhs, rhs, lhs - rhs


def lemma_point_loops(scenario, alg, datum):
    """Growth slack, flat residual and bracket slack of the lemma suite.

    Draws from the same streams, by the same layout, as the pipeline's
    _lemma_block, and evaluates every sample as its own one-point call.
    """
    n = scenario.lemma_samples
    seeds = np.random.SeedSequence(scenario.seed).spawn(5)
    _, rng_growth, rng_bracket, _, _ = map(np.random.default_rng, seeds)

    geo_flat = OrbitGeometry(alg, datum, datum.lambda0)
    eye = np.eye(alg.ambient, dtype=complex)[None]
    growth_slack = np.inf
    flat_res = 0.0
    for zp in radial_fiber_rows(alg.dim_p, rng_growth, n, 3.0):
        phi = moment_hermitian(geo_flat, eye, zp[None], 1.0)[0]
        growth_slack = min(
            growth_slack,
            float((phi - geo_flat.lam0) @ geo_flat.z0 - 0.5 * zp @ zp),
        )
        val = moment_flat(geo_flat, zp[None])[0] @ geo_flat.z0
        flat_res = max(flat_res, abs(val - zp @ zp) / max(1.0, zp @ zp))

    weights = [random_chamber_weight_loop(datum, rng_bracket) for _ in range(2 * n)]
    bracket_slack = np.inf
    for i, zp in enumerate(radial_fiber_rows(alg.dim_p, rng_bracket, n, 2.5)):
        w1, w2 = weights[2 * i], weights[2 * i + 1]
        bracket_slack = min(bracket_slack, bracket_slack_point(datum, w1, w2, zp)[2])
    return {
        "pullback_growth_min_slack": growth_slack,
        "flat_identity_residual": flat_res,
        "bracket_min_slack": bracket_slack,
    }


def scaling_linearity_loop(datum, weights):
    """The scaling-linearity residual one weight at a time: two
    chamber_constants calls (a pairing matrix and a spectral norm apiece) for
    each row h of weights and its double 2h."""
    res = []
    for h in weights:
        m1, b1 = chamber_constants(ChamberWeight(h), datum)
        m2, b2 = chamber_constants(ChamberWeight(2.0 * h), datum)
        res += [abs(m2 - 2.0 * m1), abs(b2 - 2.0 * b1)]
    return float(np.max(res))


def convention_constants_loop(geometry, rng):
    """measure_convention_constants one sample and one fiber direction at a time.

    Per sample Z then X are drawn; the directions whose contraction is below
    1e-3 are skipped, each other one takes its own pair of one-lane
    fiber_block and moment_flat calls and two display evaluations.
    """
    alg = geometry.alg
    eps = 1e-6
    ratios_flat, ratios_sign = [], []
    adz0_p = geometry.ad_z0[alg.dim_k :, alg.dim_k :]
    for _ in range(6):
        zp = rng.standard_normal(geometry.dim_p)
        x_full = alg.embed_k(rng.standard_normal(alg.dim_k))
        field = alg.bracket(x_full, alg.embed_p(zp))[alg.dim_k :]
        for j in range(geometry.dim_p):
            dz = np.zeros(geometry.dim_p)
            dz[j] = eps
            rhs = float(field @ adz0_p[:, j])
            if abs(rhs) < 1e-3:
                continue
            a_hi = geometry.fiber_block((zp + dz)[None])
            a_lo = geometry.fiber_block((zp - dz)[None])
            flat_fd = (
                geometry.moment_flat(a_hi)[0] - geometry.moment_flat(a_lo)[0]
            ) @ x_full / (2 * eps)
            ratios_flat.append(flat_fd / rhs)

            def display_fiber(v):
                moved = alg.bracket(x_full, alg.embed_p(v))[alg.dim_k :]
                return 0.5 * float(v @ adz0_p @ moved)

            disp_fd = (display_fiber(zp + dz) - display_fiber(zp - dz)) / (2 * eps)
            ratios_sign.append(disp_fd / rhs)
    return {
        "flat_display_factor": float(np.median(ratios_flat)),
        "product_display_fiber_sign": float(np.median(ratios_sign)),
    }


def root_datum_validate_loop(datum):
    """RootDatum.validate with one bracket per torus pair and one product per
    root and torus generator."""
    alg = datum.algebra
    r = alg.rank

    def unit(j):
        e = np.zeros(alg.dim)
        e[j] = 1.0
        return e

    torus_ads = np.swapaxes(alg.structure[:r], 1, 2)  # ad(H_j)
    out = {}
    out["torus_abelian"] = float(
        max(abs(alg.bracket(unit(i), unit(j))).max() for i in range(r) for j in range(r))
    )
    stacked = torus_ads[:, :, : alg.dim_k].reshape(-1, alg.dim_k)
    sv = np.linalg.svd(stacked, compute_uv=False)
    centralizer_dim = int((sv < 1e-9 * max(1.0, sv.max())).sum())
    out["torus_centralizer_dim_matches_rank"] = float(centralizer_dim != r)

    eig_res = 0.0
    for root in datum.roots:
        v = root.vector
        for j in range(r):
            lhs = torus_ads[j] @ v
            eig_res = max(eig_res, float(np.abs(lhs - 1j * root.coords[j] * v).max()))
    out["root_eigen_residual"] = eig_res

    adz0 = alg.ad(datum.z0)
    blk = (adz0 @ adz0)[alg.dim_k :, alg.dim_k :]
    out["z0_squares_to_minus_id_on_p"] = float(np.abs(blk + np.eye(alg.dim_p)).max())
    out["z0_in_torus"] = float(np.abs(np.delete(datum.z0, range(r))).max())

    z0_t = datum.z0[:r]
    nc = np.abs(datum.noncompact_coords @ z0_t - 1.0)
    cc = np.abs(datum.compact_coords @ z0_t)
    out["noncompact_z0_eigenvalue"] = float(nc.max(initial=0.0))
    out["compact_z0_eigenvalue"] = float(cc.max(initial=0.0))

    norm_res = 0.0
    for root in datum.positive_noncompact():
        e = root.vector
        re2 = 4.0 * float(np.dot(e.real, e.real))
        im2 = 4.0 * float(np.dot(e.imag, e.imag))
        norm_res = max(norm_res, abs(re2 - 2.0), abs(im2 - 2.0))
    out["noncompact_vector_normalization"] = norm_res

    pair_res = 0.0
    coords = np.array([root.coords for root in datum.roots])
    for c in coords:
        dist = np.abs(coords + c).max(axis=1).min()
        pair_res = max(pair_res, float(dist))
    out["roots_in_opposite_pairs"] = pair_res
    return out


# -- hypothesis checks and moment identities one point at a time ------------------


def chart_frames_point(geometry, k0, z0, pts):
    """Chart (x, w) -> (k0 exp(Cx), z0 + w) at one base point (k0, z0)."""
    alg = geometry.alg
    c = geometry.dim_c
    c_k = geometry.complement[: alg.dim_k]
    u_k = pts[:, :c] @ c_k.T
    ks = k0 @ alg.group_exp(u_k)
    zs = z0[None] + pts[:, c:]
    jacs = np.zeros((len(pts), geometry.dim_t, geometry.dim_t))
    jacs[:, :c, :c] = c_k.T @ _dexp_matrix(alg, u_k) @ c_k
    jacs[:, c:, c:] = np.eye(geometry.dim_p)
    return ks, zs, jacs


def chart_form_matrices_point(geometry, omega_at, k0, z0, pts):
    ks, zs, jacs = chart_frames_point(geometry, k0, z0, pts)
    spec = geometry.fiber_eig(zs)
    kap = geometry.kappa(ks)
    mats = omega_at(spec, kap)
    return np.swapaxes(jacs, -1, -2) @ mats @ jacs


def stokes_closedness_loop(geometry, omega_at, k0, z0, diameter, rng, n_tets=2):
    """Stokes defect at one base point, one chart call per tetrahedron face."""
    if geometry.dim_t < 3:
        return 0.0
    faces = [(1.0, (1, 2, 3)), (-1.0, (0, 2, 3)), (1.0, (0, 1, 3)), (-1.0, (0, 1, 2))]
    worst = 0.0
    for _ in range(n_tets):
        dirs, _ = np.linalg.qr(rng.standard_normal((geometry.dim_t, 3)))
        verts = np.zeros((4, geometry.dim_t))
        verts[1:] = diameter * dirs.T
        total, scale = 0.0, 0.0
        for sign, (ia, ib, ic) in faces:
            a, b, cc = verts[ia], verts[ib], verts[ic]
            pts = _TRI_BARY @ np.stack([a, b, cc])
            mats = chart_form_matrices_point(geometry, omega_at, k0, z0, pts)
            vals = np.einsum("i,qij,j->q", b - a, mats, cc - a)
            integral = 0.5 * float(_TRI_W @ vals)
            total += sign * integral
            scale += abs(integral)
        worst = max(worst, abs(total) / max(scale, 1e-300))
    return worst


def primitive_exactness_loop(family, geometry, k0, z0, t, rng, h=1e-2):
    """Circulation against flux at one base point, one call per edge."""
    dirs, _ = np.linalg.qr(rng.standard_normal((geometry.dim_t, 2)))
    u, v = h * dirs[:, 0], h * dirs[:, 1]
    corners = [np.zeros(geometry.dim_t), u, v]
    gl_x, gl_w = np.polynomial.legendre.leggauss(8)
    nodes, weights = 0.5 * (gl_x + 1.0), 0.5 * gl_w

    def mu_chart(pts):
        ks, zs, jacs = chart_frames_point(geometry, k0, z0, pts)
        spec = geometry.fiber_eig(zs)
        kap = geometry.kappa(ks)
        mu = homotopy_primitive(family, spec, kap, zs, t)
        return np.einsum("qji,qj->qi", jacs, mu)

    circulation = 0.0
    for a, b in zip(corners, corners[1:] + corners[:1]):
        pts = a[None] + nodes[:, None] * (b - a)[None]
        vals = mu_chart(pts) @ (b - a)
        circulation += float(weights @ vals)

    quad_pts = _TRI_BARY @ np.stack(corners)
    sigma = chart_form_matrices_point(
        geometry, lambda spec, kap: family.domega_dt(spec, kap, t), k0, z0, quad_pts
    )
    flux = 0.5 * float(_TRI_W @ np.einsum("i,qij,j->q", u, sigma, v))
    return abs(circulation - flux) / max(abs(flux), h * h)


def properness_fit_loop(geometry, family, rng, samples=60, t_grid=_PROPERNESS_GRID,
                        radii=(0.2, 2.5)):
    """properness_fit with the sampled and the zero-fiber moments as two calls."""
    alg = geometry.alg
    ks = alg.group_exp(rng.standard_normal((samples, alg.dim_k)))
    zs = rng.standard_normal((samples, geometry.dim_p))
    zs *= (
        rng.uniform(radii[0], radii[1], size=samples)
        / np.linalg.norm(zs, axis=1)
    )[:, None]
    probes = _root_probe_fibers(geometry)
    ks = np.concatenate([ks, np.broadcast_to(
        np.eye(alg.ambient, dtype=complex), (len(probes), alg.ambient, alg.ambient)
    )])
    zs = np.concatenate([zs, np.stack(probes)])
    kap = geometry.kappa(ks)
    spec = geometry.fiber_eig(zs)
    spec0 = geometry.fiber_eig(np.zeros_like(zs))
    sq = np.linalg.norm(zs, axis=1) ** 2
    best = np.inf
    for t in t_grid:
        gap = family.moment(spec, kap, t) - family.moment(spec0, kap, t)
        vals = gap @ family.pairing_direction(t) / sq
        best = min(best, float(vals.min()))
    return best


def properness_gamma(family):
    """The growth exponent properness_fit returns, from its own moment call.

    Log-log least-squares slope of <Phi_t(e, rV) - Phi_t(e, 0), n_t> against
    r at t = 0.5 and six radii r in [0.05, 0.4], in closed form on centred
    logs, with k = e as kap = None; the ray and its zero fibers take one
    moment call at the scalar t.
    """
    t, radii = 0.5, np.geomspace(0.05, 0.4, 6)
    geometry = family.geometry
    direction = _root_probe_fibers(geometry, radii=(1.0,))[0]
    zs = np.concatenate([np.outer(radii, direction), np.zeros((6, len(direction)))])
    phi = family.moment(geometry.fiber_eig(zs), None, t)
    vals = (phi[:6] - phi[6:]) @ family.pairing_direction(t)
    x, y = np.log(radii), np.log(vals)
    x, y = x - x.mean(), y - y.mean()
    return float(x @ y / (x @ x))


def analytic_properness_bound(geometry, stage_name, delta):
    """The quadratic growth constants the moment families are tested against.

    1/(2||z0||) for the hermitian family, min(1, delta)/(2||z0||) for the
    coefficient scaling, and min over the segment of the interpolated
    m_{lambda_t}^2 / (2 ||H_{lambda_t}||); the segment minimum runs over the
    same t-grid the fit uses.
    """
    z0_norm = float(np.linalg.norm(geometry.z0))
    if stage_name == "hermitian":
        return 1.0 / (2.0 * z0_norm)
    if stage_name == "scaling":
        return min(1.0, delta) / (2.0 * z0_norm)
    if stage_name == "segment":
        vals = []
        for t in _PROPERNESS_GRID:
            coords = segment_weight_coords(geometry, delta, 1.0 - t)
            rank = geometry.alg.rank
            m, _ = chamber_constants(ChamberWeight(coords[:rank]), geometry.datum)
            vals.append(m * m / (2.0 * np.linalg.norm(coords)))
        return float(min(vals))
    raise ValueError(f"unknown stage {stage_name!r}")


class ReplayRng:
    """Hands out pre-drawn arrays in order in place of standard_normal."""

    def __init__(self, arrays):
        self._arrays = iter(arrays)

    def standard_normal(self, shape):
        out = next(self._arrays)
        assert out.shape == shape
        return out


def check_hypotheses_loop(geometry, stages, delta, rng, closedness_points=2,
                          n_tets=2, diameter=1e-2, properness_samples=60):
    """check_hypotheses one base point and one stage at a time.

    The draws are check_hypotheses' shared ones: per base point k0, z0, the
    tetrahedron frames and the triangle frame, then the properness points;
    every stage replays them.  Primitive exactness, the zero-section
    primitive and the dt restriction are read on the stages without a
    time_one map only.
    """
    alg = geometry.alg
    worst_closed = 0.0
    worst_exact = 0.0
    cross = 0.0
    i_star_dt = 0.0
    i_star_endpoints = 0.0
    primitive_zero = 0.0
    moment_sup = 0.0
    nullspace_res = 0.0
    spec_zero = geometry.fiber_eig(np.zeros((1, geometry.dim_p)))
    c = geometry.dim_c
    points = []
    for t in (0.0, 0.5, 1.0):
        for _ in range(closedness_points):
            k0 = alg.group_exp(rng.standard_normal(alg.dim_k))
            z0 = rng.standard_normal(geometry.dim_p)
            tets = [rng.standard_normal((geometry.dim_t, 3))
                    for _ in range(n_tets if geometry.dim_t >= 3 else 0)]
            tri = rng.standard_normal((geometry.dim_t, 2))
            points.append((t, k0, z0, tets, tri))
    properness_rng = copy.deepcopy(rng)
    properness = []
    for stage in stages:
        fam = stage.family
        flowed = fam.time_one is None
        for t, k0, z0, tets, tri in points:
            def omega_at(spec, kap, _t=t, _f=fam):
                return _f.omega(spec, kap, _t)

            worst_closed = max(worst_closed, stokes_closedness_loop(
                geometry, omega_at, k0, z0, diameter, ReplayRng(tets), n_tets
            ))
            kap0 = geometry.kappa(k0)
            block = omega_at(spec_zero, kap0)[0]
            moment_sup = max(
                moment_sup,
                float(np.linalg.norm(fam.moment(spec_zero, kap0, t), axis=-1).max()),
            )
            if flowed:
                worst_exact = max(worst_exact, primitive_exactness_loop(
                    fam, geometry, k0, z0, t, ReplayRng([tri])
                ))
                mu0 = homotopy_primitive(
                    fam, spec_zero, kap0, np.zeros((1, geometry.dim_p)), t
                )
                primitive_zero = max(primitive_zero, float(np.abs(mu0).max()))
            if c == 0:
                continue
            cross = max(cross, float(np.abs(block[:c, c:]).max()))
            if flowed:
                sigma0 = fam.domega_dt(spec_zero, kap0, t)[0]
                i_star_dt = max(i_star_dt, float(np.abs(sigma0[:c, :c]).max()))
            gap01 = (
                fam.omega(spec_zero, kap0, 1.0) - fam.omega(spec_zero, kap0, 0.0)
            )[0]
            i_star_endpoints = max(
                i_star_endpoints, float(np.abs(gap01[:c, :c]).max())
            )
            _, svals, vt = np.linalg.svd(block[:c, :])
            kernel = vt[np.concatenate([svals, np.zeros(geometry.dim_t - c)])
                        < 1e-10 * max(svals.max(), 1.0)]
            if kernel.shape[0] != geometry.dim_p:
                nullspace_res = np.inf
            else:
                nullspace_res = max(
                    nullspace_res, float(np.abs(kernel[:, :c]).max())
                )
        d_fit = properness_fit_loop(geometry, fam, copy.deepcopy(properness_rng),
                                    samples=properness_samples)
        d_bound = analytic_properness_bound(geometry, fam.name, delta)
        properness.append(
            {
                "stage": fam.name,
                "d_fit": d_fit,
                "d_analytic": d_bound,
                "ratio": d_fit / d_bound,
                "gamma_fit": properness_gamma(fam),
            }
        )
    return {
        "closedness_rel_residual": worst_closed,
        "primitive_exactness_residual": worst_exact,
        "zero_section_cross_block": cross,
        "zero_section_dt_restriction": i_star_dt,
        "zero_section_endpoint_restriction": i_star_endpoints,
        "zero_section_primitive_sup": primitive_zero,
        "zero_section_moment_sup": moment_sup,
        "orthogonality_nullspace_residual": nullspace_res,
        "properness": properness,
    }


def moment_identity_rows_loop(geometry, form_at, moment_at, points, generators,
                              eps=1e-5):
    """Both sides (lhs, rhs) (B, T) of the moment identity, one lane at a time.

    form_at(k, z) -> (T, T) matrix; moment_at(k, z) -> (N,) k*-coordinates.
    Base directions perturb k by k exp(+-eps X_i); fiber directions shift Z.
    """
    alg = geometry.alg
    lhs_rows, rhs_rows = [], []
    for (k, zp), x_gen in zip(points, generators):
        kap = geometry.kappa(k[None])
        omega = form_at(k, zp)
        field = geometry.generator_field(kap, zp[None], x_gen)[0]
        x_full = np.zeros(alg.dim)
        x_full[: alg.dim_k] = x_gen
        rhs = field @ omega
        lhs = np.zeros(geometry.dim_t)
        for i in range(geometry.dim_c):
            step = alg.group_exp(eps * geometry.complement[: alg.dim_k, i])
            stepm = alg.group_exp(-eps * geometry.complement[: alg.dim_k, i])
            hi = moment_at(k @ step, zp) @ x_full
            lo = moment_at(k @ stepm, zp) @ x_full
            lhs[i] = (hi - lo) / (2 * eps)
        for j in range(geometry.dim_p):
            dz = np.zeros(geometry.dim_p)
            dz[j] = eps
            hi = moment_at(k, zp + dz) @ x_full
            lo = moment_at(k, zp - dz) @ x_full
            lhs[geometry.dim_c + j] = (hi - lo) / (2 * eps)
        lhs_rows.append(lhs)
        rhs_rows.append(rhs)
    return np.array(lhs_rows), np.array(rhs_rows)


# -- the Moser flow with the group update on every lane ---------------------------


def _moser_field_with_kappa(family, ks, zs, t):
    geo = family.geometry
    spec = geo.fiber_eig(zs)
    kap = geo.kappa(ks)
    omega = family.omega(spec, kap, t)
    # moser_field's bound 1/||omega^{-1}||_F, here from the singular values
    sv = np.linalg.svd(omega, compute_uv=False)
    margin = float((1.0 / np.sqrt((sv**-2.0).sum(axis=-1))).min())
    if margin < 1e-10:
        raise RuntimeError(f"{family.name} family degenerates along the flow")
    mu = homotopy_primitive(family, spec, kap, zs, t)
    return np.linalg.solve(omega, mu[..., None])[..., 0], margin


def integrate_flow_rkmk(family, k0, z0, steps, t0=0.0, t1=1.0, project_tol=1e-12):
    """RKMK order four on every lane, for every family: four group_exp, three
    dexpinv and a drift check per step, and Ad(k^{-1}) at every stage point."""
    geo = family.geometry
    alg = geo.alg
    ks = np.asarray(k0, dtype=complex).copy()
    zs = np.asarray(z0, dtype=float).copy()
    fiber_sup = np.linalg.norm(zs, axis=-1)
    h = (t1 - t0) / steps
    min_margin = np.inf
    max_res = 0.0
    reproj = 0

    def eval_field(k_arg, z_arg, t_arg):
        nonlocal min_margin
        xi, margin = _moser_field_with_kappa(family, k_arg, z_arg, t_arg)
        min_margin = min(min_margin, margin)
        x_full = xi[:, : geo.dim_c] @ geo.complement[: alg.dim_k].T
        return x_full, xi[:, geo.dim_c :]

    for n in range(steps):
        t = t0 + n * h
        x1, a1 = eval_field(ks, zs, t)
        k2 = ks @ alg.group_exp(0.5 * h * x1)
        x2r, a2 = eval_field(k2, zs + 0.5 * h * a1, t + 0.5 * h)
        x2 = _dexpinv(alg, 0.5 * h * x1, x2r)
        k3 = ks @ alg.group_exp(0.5 * h * x2)
        x3r, a3 = eval_field(k3, zs + 0.5 * h * a2, t + 0.5 * h)
        x3 = _dexpinv(alg, 0.5 * h * x2, x3r)
        k4 = ks @ alg.group_exp(h * x3)
        x4r, a4 = eval_field(k4, zs + h * a3, t + h)
        x4 = _dexpinv(alg, h * x3, x4r)
        ks = ks @ alg.group_exp((h / 6.0) * (x1 + 2 * x2 + 2 * x3 + x4))
        zs = zs + (h / 6.0) * (a1 + 2 * a2 + 2 * a3 + a4)
        fiber_sup = np.maximum(fiber_sup, np.linalg.norm(zs, axis=-1))
        res = float(alg.group_residual(ks).max())
        max_res = max(max_res, res)
        if res > project_tol:
            ks = alg.group_project(ks)
            reproj += 1
    trace = FlowTrace(
        steps, float(min_margin), max_res, reproj, fiber_sup, 4 * steps * len(zs)
    )
    return FlowResult(ks, zs, trace)


def integrate_flow_per_step(family, k0, z0, steps, z_ceiling=None):
    """integrate_flow with the RKMK group update inside the step loop: three
    dexpinv, one group_exp, one product and one drift check per step.  The W
    equation is integrate_flow's: the same moser_field call at k = e and the
    same k x p -> p bracket product, so the two agree bit for bit."""
    geo = family.geometry
    alg = geo.alg
    dk = alg.dim_k
    ks = np.asarray(k0, dtype=complex)
    max_res = float(alg.group_residual(ks).max())
    reproj = int(max_res > 1e-12)
    ks = alg.group_project(ks) if reproj else ks
    ws = (geo.kappa(ks)[:, dk:, dk:] @ z0[..., None])[..., 0]
    fiber_sup = np.linalg.norm(ws, axis=-1)
    if z_ceiling is None:
        z_ceiling = 10.0 * max(1.0, float(fiber_sup.max()))
    h = 1.0 / steps
    min_margin = np.inf
    bracket_kp = alg.structure[:dk, dk:, dk:].reshape(-1, geo.dim_p)

    def field(t_arg, w):
        nonlocal min_margin
        xi, margin = moser_field(family, None, w, t_arg)
        min_margin = min(min_margin, margin)
        x = xi[:, : geo.dim_c] @ geo.complement[:dk].T
        bracket = (x[:, :, None] * w[:, None]).reshape(len(w), -1) @ bracket_kp
        return x, xi[:, geo.dim_c :] - bracket

    for n in range(steps):
        t = n * h
        x1, a1 = field(t, ws)
        x2, a2 = field(t + 0.5 * h, ws + 0.5 * h * a1)
        x3, a3 = field(t + 0.5 * h, ws + 0.5 * h * a2)
        x4, a4 = field(t + h, ws + h * a3)
        x2 = _dexpinv(alg, 0.5 * h * x1, x2)
        x3 = _dexpinv(alg, 0.5 * h * x2, x3)
        x4 = _dexpinv(alg, h * x3, x4)
        ks = ks @ alg.group_exp((h / 6.0) * (x1 + 2 * x2 + 2 * x3 + x4))
        ws = ws + (h / 6.0) * (a1 + 2 * a2 + 2 * a3 + a4)
        norms = np.linalg.norm(ws, axis=-1)
        fiber_sup = np.maximum(fiber_sup, norms)
        if norms.max() > z_ceiling:
            raise RuntimeError(f"{family.name} flow escaped the fiber ceiling")
        res = float(alg.group_residual(ks).max())
        max_res = max(max_res, res)
        if res > 1e-12:
            ks = alg.group_project(ks)
            reproj += 1
    zs = (alg.adjoint_group_matrix(ks)[:, dk:, dk:] @ ws[..., None])[..., 0]
    trace = FlowTrace(steps, float(min_margin), max_res, reproj, fiber_sup, 4 * steps * len(ws))
    return FlowResult(ks, zs, trace)


# -- the flow's differential by central differences in every direction -----------


def finite_difference_jacobians(stages, ks, zs, eps):
    """The differentials of the stage flows at the samples, every row by
    central differences.

    The samples ks (B, a, a), zs (B, P) and their 2 dim_t
    forms.difference_lanes, base directions included, are flowed through the
    stages (flow_stages).  At each stage boundary the image of direction i is
    the difference of its two lanes, the K part read off group logarithms
    relative to the centre and projected on the complement.  Returns the
    samples' (FiberSpectrum, Ad(k^{-1})) at every boundary and the (B, T, T)
    Jacobians, J_0 = I first.
    """
    geo = stages[0].family.geometry
    alg = geo.alg
    b0, a, t_dim = len(zs), alg.ambient, geo.dim_t
    pert_k, pert_z = difference_lanes(geo, ks, zs, eps)
    states = [(np.concatenate([ks, pert_k]), np.concatenate([zs, pert_z]))]
    states += [(res.k, res.z) for res in flow_stages(stages, *states[0])]
    points, jacs = [], [np.eye(t_dim)]
    for s, (k_s, z_s) in enumerate(states):
        points.append((geo.fiber_eig(z_s[:b0]), geo.kappa(k_s[:b0])))
        if s == 0:
            continue
        k_pert = k_s[b0:].reshape(b0, t_dim, 2, a, a)
        z_pert = z_s[b0:].reshape(b0, t_dim, 2, geo.dim_p)
        rel = alg.group_inverse(k_s[:b0])[:, None, None] @ k_pert
        x_log = _group_log(alg, rel)[..., : alg.dim_k]
        jacs.append(np.concatenate(
            [(x_log[:, :, 0] - x_log[:, :, 1]) @ geo.complement[: alg.dim_k],
             z_pert[:, :, 0] - z_pert[:, :, 1]],
            axis=-1,
        ) / (2 * eps))
    return points, jacs


# -- the segment witness sampled at fixed times --------------------------------------


def segment_witness_sweep(family, rng, t_count=21, points=200):
    """Least singular value of the family's forms at t_count even times in [0, 1].

    The points are drawn as pipeline._segment_witness draws them, so the same
    generator state gives the same points.  Returns the per-time minima over
    the points (t_count,) and the worst affinity residual: the distance of
    each form from the chord of the endpoint evaluations.
    """
    geometry = family.geometry
    ks = geometry.alg.group_exp(rng.standard_normal((points, geometry.alg.dim_k)))
    zs = rng.standard_normal((points, geometry.dim_p))
    zs *= (rng.uniform(0.1, 1.5, points) / np.linalg.norm(zs, axis=1))[:, None]
    spec = geometry.fiber_eig(zs)
    kap = geometry.kappa(ks)
    end0 = family.omega(spec, kap, 0.0)
    end1 = family.omega(spec, kap, 1.0)
    margins, affinity = [], []
    for t in np.linspace(0.0, 1.0, t_count):
        omega = family.omega(spec, kap, t)
        margins.append(np.linalg.svd(omega, compute_uv=False)[..., -1].min())
        affinity.append(np.abs(omega - ((1 - t) * end0 + t * end1)).max())
    return np.array(margins), float(np.max(affinity))


# -- the vertical time-one maps by equal areas ------------------------------------


def equal_area_radius(family, direction, r, nodes=48):
    """rho(r) with F_1(rho) = F_0(r) on the ray r E, E the unit direction.

    F_t(s) = int_0^s omega_t(E, JE)|_{uE} u du, J = ad(z0) on p, by
    Gauss-Legendre quadrature of the family's forms at the points uE, and
    rho by brentq.  A vertical K-equivariant family keeps the complex line of
    E and moves it radially, so its time-one map pulls the area F_1 back to
    F_0 there.  The independent oracle for FormFamily.time_one: no closed form
    of the areas or of rho is used.
    """
    from scipy.optimize import brentq

    geo = family.geometry
    e = np.asarray(direction, dtype=float) / np.linalg.norm(direction)
    k, c = geo.alg.dim_k, geo.dim_c
    je = geo.ad_z0[k:, k:] @ e
    x, w = np.polynomial.legendre.leggauss(nodes)

    def area(t, s):
        u = 0.5 * s * (x + 1.0)
        forms = family.omega(geo.fiber_eig(u[:, None] * e), None, t)[:, c:, c:]
        return 0.5 * s * float(w @ (u * (forms @ je @ e)))

    target = area(0.0, r)
    hi = r
    while abs(area(1.0, hi)) < abs(target):
        hi *= 2.0
    return brentq(lambda s: area(1.0, s) - target, 0.0, hi, xtol=1e-15, rtol=1e-15)
