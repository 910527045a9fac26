"""Concrete matrix models of the Hermitian noncompact families su(p,q) and sp(2n,R).

Everything downstream works in coordinates against a B_theta-orthonormal basis
(compact part first, fiber part second), where

    B_theta(X, Y) = -B_g(X, theta(Y)),      theta(X) = -X^dagger,

and B_g is the Killing form computed from structure constants.  In these
coordinates theta is diag(+1,...,+1,-1,...,-1), B_theta is the identity, ad(X)
is skew for X in k and symmetric for Z in p.
"""

from __future__ import annotations

import numpy as np

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _vec(mats):
    """Flatten complex matrices to real vectors (real parts then imaginary)."""
    mats = np.asarray(mats)
    flat = mats.reshape(mats.shape[:-2] + (-1,))
    return np.concatenate([flat.real, flat.imag], axis=-1)


class MatrixLieAlgebra:
    """A real matrix Lie algebra with a fixed B_theta-orthonormal basis.

    Attributes:
        family: "su" or "sp".
        params: (p, q) for su(p,q), (n,) for sp(2n,R).
        ambient: ambient matrix size (p+q, resp. 2n).
        dim: real dimension N.
        dim_k, dim_p: dimensions of the theta-eigenspaces.
        rank: dimension of the maximal torus of k (first `rank` basis slots).
        basis: (N, ambient, ambient) complex array, k-part first, torus first
            within k.
        structure: (N, N, N) real array, [e_i, e_j] = sum_k structure[i,j,k] e_k.
        killing: (N, N) Gram matrix of B_g in the orthonormal basis.
        theta_signs: (N,) array of +-1, the basis eigenvalues of theta.
    """

    def __init__(self, family, params, ambient, rank, basis, dim_k, dim_p):
        self.family = family
        self.params = tuple(params)
        self.ambient = ambient
        self.rank = rank
        self.basis = basis
        self.dim = basis.shape[0]
        self.dim_k = dim_k
        self.dim_p = dim_p
        assert self.dim == dim_k + dim_p
        self.theta_signs = np.concatenate([np.ones(dim_k), -np.ones(dim_p)])
        # least-squares projector onto the basis, used by coords()
        flat = _vec(basis)  # (N, 2*ambient^2)
        self._proj = np.linalg.pinv(flat.T)  # (N, 2*ambient^2)
        # the same projector acting on the interleaved (re, im, re, ...) float
        # view of a contiguous complex matrix: (2*ambient^2, N)
        n, half = self.dim, ambient * ambient
        self._proj_view = np.stack(
            [self._proj[:, :half], self._proj[:, half:]], axis=-1
        ).reshape(n, -1).T.copy()
        self.structure = self._structure_constants()
        # structure as GEMM operands: (N^2, N) for bracket, (N, N^2) for ad
        self._structure_flat = self.structure.reshape(n * n, n)
        self._structure_ad = np.ascontiguousarray(
            self.structure.transpose(0, 2, 1).reshape(n, n * n)
        )
        # the basis as one (ambient, N * ambient) row block [e_0 | e_1 | ...]
        self._basis_row = np.swapaxes(basis, 0, 1).reshape(ambient, -1)
        # Killing form from structure constants: tr(ad e_i o ad e_j)
        c = self.structure
        self.killing = np.einsum("ilk,jkl->ij", c, c)
        # B_theta Gram must come out as the identity for the orthonormal basis
        b_theta = -self.killing * self.theta_signs[None, :]
        self._b_theta_residual = float(np.abs(b_theta - np.eye(self.dim)).max())
        assert self._b_theta_residual < 1e-10, self._b_theta_residual

    def _structure_constants(self):
        mats = self.basis
        brk = np.einsum("iab,jbc->ijac", mats, mats) - np.einsum(
            "jab,ibc->ijac", mats, mats
        )
        c = _vec(brk) @ self._proj.T
        return np.asarray(c, dtype=float)

    # -- coordinates ---------------------------------------------------------

    def coords(self, mat):
        """Coefficients of an ambient matrix (or stack) against the basis."""
        mat = np.ascontiguousarray(mat, dtype=complex)
        flat = mat.reshape(mat.shape[:-2] + (mat.shape[-2] * mat.shape[-1],))
        return flat.view(float) @ self._proj_view

    def matrix(self, x):
        """Ambient matrix (or stack) from coordinate vectors."""
        x = np.asarray(x, dtype=float)
        return np.tensordot(x, self.basis, axes=([-1], [0]))

    # -- algebra operations --------------------------------------------------

    def bracket(self, x, y):
        """[x, y] in coordinates (supports leading batch axes)."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        outer = x[..., :, None] * y[..., None, :]
        n = self.dim
        return outer.reshape(outer.shape[:-2] + (n * n,)) @ self._structure_flat

    def ad(self, x):
        """Matrix of ad(x) on coordinates: ad(x) y = [x, y]."""
        x = np.asarray(x, dtype=float)
        return (x @ self._structure_ad).reshape(x.shape[:-1] + (self.dim, self.dim))

    def embed_k(self, x):
        """Full coordinates (..., N) of k-coordinates x (..., dim_k); zero on p."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (self.dim,))
        out[..., : self.dim_k] = x
        return out

    def embed_p(self, z):
        """Full coordinates (..., N) of p-coordinates z (..., dim_p); zero on k."""
        z = np.asarray(z, dtype=float)
        out = np.zeros(z.shape[:-1] + (self.dim,))
        out[..., self.dim_k :] = z
        return out

    # -- group-level helpers -------------------------------------------------

    def group_exp(self, u):
        """exp of k-part coordinate vectors (batched) as ambient matrices.

        Elements of k are anti-Hermitian, so i*u_mat is Hermitian and the
        exponential comes from a batched eigh.
        """
        mats = self.matrix(self.embed_k(u))
        w, v = np.linalg.eigh(1j * mats)
        phase = np.exp(-1j * w)
        return (v * phase[..., None, :]) @ _dagger(v)

    def group_inverse(self, g):
        return _dagger(np.asarray(g, dtype=complex))

    def group_residual(self, g):
        """Distance of (stacked) g from the maximal compact group K."""
        g = np.asarray(g, dtype=complex)
        eye = np.eye(self.ambient)
        res = np.abs(_dagger(g) @ g - eye).max(axis=(-1, -2))
        if self.family == "su":
            p, q = self.params
            mask = np.zeros((self.ambient, self.ambient))
            mask[:p, p:] = 1.0
            mask[p:, :p] = 1.0
            res = np.maximum(res, np.abs(g * mask).max(axis=(-1, -2)))
        else:
            j = self._j_matrix()
            res = np.maximum(res, np.abs(g @ j - j @ g).max(axis=(-1, -2)))
            res = np.maximum(res, np.abs(g.imag).max(axis=(-1, -2)))
        return res

    def group_project(self, g):
        """Project (stacked) matrices back onto K after integration drift."""
        g = np.asarray(g, dtype=complex)
        if self.family == "su":
            p = self.params[0]
            out = np.zeros_like(g)
            for sl in (slice(0, p), slice(p, self.ambient)):
                blk = g[..., sl, sl]
                u, _, vh = np.linalg.svd(blk)
                out[..., sl, sl] = u @ vh
            return out
        j = self._j_matrix()
        a = 0.5 * (g.real - (j @ g.real @ j))
        u, _, vh = np.linalg.svd(a)
        return (u @ vh).astype(complex)

    def adjoint_group_matrix(self, g):
        """Coordinate matrix of Ad(g): columns are coords(g e_j g^{-1}).

        Three GEMM-shaped steps over the batch: g e_j for every j as one
        (B a, a) @ (a, N a) product, one batched product of those B (a N, a)
        row blocks with g^{-1} = g^H, and the coordinate projection of all
        B N conjugates as one GEMM.
        """
        g = np.asarray(g, dtype=complex)
        batch, a, n = g.shape[:-2], self.ambient, self.dim
        g = g.reshape(-1, a, a)
        # one name for both products, so g e_j is freed before the projection
        conj = (g.reshape(-1, a) @ self._basis_row).reshape(-1, a * n, a)
        conj = (conj @ _dagger(g)).reshape(-1, a, n, a)  # [b, x, j, w]
        cols = self.coords(np.swapaxes(conj, 1, 2))  # (B, N, N) rows indexed by j
        return np.swapaxes(cols, -1, -2).reshape(batch + (n, n))

    def _j_matrix(self):
        n = self.params[0]
        j = np.zeros((2 * n, 2 * n))
        j[:n, n:] = np.eye(n)
        j[n:, :n] = -np.eye(n)
        return j


def _dagger(m):
    return np.conj(np.swapaxes(m, -1, -2))


# -- construction -------------------------------------------------------------


def _su_raw_basis(p, q):
    m = p + q
    tor, kk, pp = [], [], []

    def unit(a, b):
        e = np.zeros((m, m), dtype=complex)
        e[a, b] = 1.0
        return e

    for j in range(1, m):
        tor.append(1j * (unit(0, 0) - unit(j, j)))
    for lo, hi in ((0, p), (p, m)):
        for a in range(lo, hi):
            for b in range(a + 1, hi):
                kk.append(unit(a, b) - unit(b, a))
                kk.append(1j * (unit(a, b) + unit(b, a)))
    for a in range(p):
        for b in range(q):
            col = p + b
            pp.append(unit(a, col) + unit(col, a))
            pp.append(1j * (unit(a, col) - unit(col, a)))
    return tor + kk, pp, m - 1


def _sp_raw_basis(n):
    m = 2 * n
    tor, kk, pp = [], [], []

    def emb(a_blk, b_blk, c_blk, d_blk):
        out = np.zeros((m, m), dtype=complex)
        out[:n, :n] = a_blk
        out[:n, n:] = b_blk
        out[n:, :n] = c_blk
        out[n:, n:] = d_blk
        return out

    def unit(a, b):
        e = np.zeros((n, n))
        e[a, b] = 1.0
        return e

    z = np.zeros((n, n))
    for j in range(n):
        d = unit(j, j)
        tor.append(emb(z, d, -d, z))
    for a in range(n):
        for b in range(a + 1, n):
            skew = unit(a, b) - unit(b, a)
            sym = unit(a, b) + unit(b, a)
            kk.append(emb(skew, z, z, skew))
            kk.append(emb(z, sym, -sym, z))
    for a in range(n):
        d = unit(a, a)
        pp.append(emb(d, z, z, -d))
        pp.append(emb(z, d, d, z))
    for a in range(n):
        for b in range(a + 1, n):
            sym = unit(a, b) + unit(b, a)
            pp.append(emb(sym, z, z, -sym))
            pp.append(emb(z, sym, sym, z))
    return tor + kk, pp, n


def _orthonormalize(raw, gram):
    """Gram-Schmidt in coefficient space for a positive-definite Gram matrix.

    Returns the change-of-basis P with new_i = sum_j P[j, i] raw_j, processed
    in the given deterministic order (no pivoting).
    """
    n = len(raw)
    cols = []
    for i in range(n):
        v = np.zeros(n)
        v[i] = 1.0
        for w in cols:
            v = v - (w @ gram @ v) * w
        nrm = float(v @ gram @ v)
        assert nrm > 1e-12, "degenerate Gram block during orthonormalization"
        cols.append(v / np.sqrt(nrm))
    return np.stack(cols, axis=1)


def build_algebra(family, p=None, q=None, n=None):
    """Construct su(p,q) (p >= q >= 1) or sp(2n,R) (n >= 1).

    The returned basis is B_theta-orthonormal with the compact part first and
    the maximal torus of k occupying the leading `rank` slots.
    """
    if family == "su":
        got = f"(got p = {p}, q = {q})"
        if p is None or q is None:
            raise ValueError(f"su(p,q) needs both p and q {got}")
        if q < 1:
            raise ValueError(f"su(p,q) requires q >= 1 {got}; q = 0 is compact")
        if p < q:
            raise ValueError(f"su(p,q) requires p >= q {got}")
        raw_k, raw_p, rank = _su_raw_basis(p, q)
        params, ambient = (p, q), p + q
    elif family == "sp":
        if n is None or n < 1:
            raise ValueError(f"sp(2n,R) requires n >= 1 (got n = {n})")
        raw_k, raw_p, rank = _sp_raw_basis(n)
        params, ambient = (n,), 2 * n
    else:
        raise ValueError(f"unknown family {family!r} (expected 'su' or 'sp')")

    raw = np.array(raw_k + raw_p)
    dim_k, dim_p = len(raw_k), len(raw_p)
    dim = dim_k + dim_p

    # theta eigensigns of the raw elements, checked matrix-wise
    signs = np.concatenate([np.ones(dim_k), -np.ones(dim_p)])
    theta_raw = -np.conj(np.swapaxes(raw, -1, -2))
    assert np.abs(theta_raw - signs[:, None, None] * raw).max() < 1e-14

    # structure constants of the raw basis via least squares on vectorizations
    flat = _vec(raw)
    proj = np.linalg.pinv(flat.T)
    brk = np.einsum("iab,jbc->ijac", raw, raw) - np.einsum("jab,ibc->ijac", raw, raw)
    c_raw = _vec(brk) @ proj.T
    rec = np.tensordot(c_raw, raw, axes=([2], [0]))
    assert np.abs(brk - rec).max() < 1e-10, "raw basis does not close under bracket"

    killing_raw = np.einsum("ilk,jkl->ij", c_raw, c_raw)
    b_theta_raw = -killing_raw * signs[None, :]

    # orthonormalize k and p separately; the split is B_theta-orthogonal
    pk = _orthonormalize(raw[:dim_k], b_theta_raw[:dim_k, :dim_k])
    pp = _orthonormalize(raw[dim_k:], b_theta_raw[dim_k:, dim_k:])
    basis_k = np.tensordot(pk.T, raw[:dim_k], axes=([1], [0]))
    basis_p = np.tensordot(pp.T, raw[dim_k:], axes=([1], [0]))
    basis = np.concatenate([basis_k, basis_p], axis=0)

    return MatrixLieAlgebra(family, params, ambient, rank, basis, dim_k, dim_p)
