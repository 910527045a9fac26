"""Spectral functions of ad(Z) for Z in p, evaluated at half size.

The basis is B_theta-orthonormal with k first, and [k, p] in p, [p, p] in k,
so for Z in p the symmetric ad(Z) has the Cartan block structure

    ad(Z) = [[0, A], [A^T, 0]],    A = ad(Z)[:dim_k, dim_k:]  (dim_k x dim_p).

An analytic function of ad(Z) splits into an even part g(ad(Z)^2) and an odd
part ad(Z) h(ad(Z)^2), and A f(A^T A) = f(A A^T) A writes every block through
M = A^T A, whose eigenvalues s = nu^2 are the squared eigenvalues of ad(Z):

    even(g)      p-p block of g:        g(M)
    A even(h)    k-p block of nu h:     A h(M)
    apply_k      k-k block of g on xi:  g(0) xi + A even(phi) A^T xi,
                                        phi(s) = (g(s) - g(0)) / s

Every block the package reads is built from two functions of s, taken at
c M for c in [0, 1]: f_plus = sinh(nu)/nu (Psi_Z^+) and G = (cosh(nu) - 1)/nu^2,
which gives Psi_Z^- = -nu G, the phi of cosh and int_0^1 r f_plus(r nu) dr.
Both are entire with non-negative Taylor coefficients, so FiberSpectrum.sinhc
sums them without eigh: Taylor polynomials at X = c M / 4^j, then j doublings
(Higham, Functions of Matrices, SIAM 2008, ch. 12).  Their c-derivatives,
which the hermitian family reads, come from the same kernel by the complex
step (sinhc_dc).  At c = 1 the two blocks are read several times per
spectrum, so both are formed once (psi_plus, even_g).
chi_spectrum_check certifies the spectrum lemma apart from FiberSpectrum: one
svd of A builds chi_Z's k-p block B, and one values-only svd of B is checked.
"""

from __future__ import annotations

from functools import cached_property
from math import factorial

import numpy as np

# degree-8 Taylor coefficients of S(x) = sinh(sqrt x)/sqrt x (row 0) and
# C(x) = cosh(sqrt x) (row 1), split as q0(x) + x^4 q1(x): q0 takes the powers
# 0..3, q1 the powers 0..4
_TAYLOR = np.array([[1.0 / factorial(2 * n + r) for n in range(9)] for r in (1, 0)])
_TAYLOR_LO, _TAYLOR_HI = _TAYLOR[:, :4], _TAYLOR[:, 4:]
# _sinhc_lanes holds about a dozen arrays of its input's size at once
_SINHC_CHUNK = 4096
# the complex step of sinhc_dc: its O(h^2) error is far below roundoff
_DC_STEP = 1e-30


def _mT(a):
    return np.swapaxes(a, -1, -2)


def _sinhc_lanes(x, j):
    """(G(4^j X), f_plus(4^j X)) as one (2, B, P, P) stack, for X (B, P, P).

    With S(x) = sinh(sqrt x)/sqrt x and C(x) = cosh(sqrt x), the degree-8
    Taylor sums of both at X are one GEMM of the coefficients against the
    powers of X (Paterson and Stockmeyer, SIAM J. Comput. 2 (1973)).
    S(4x) = S(x) C(x) and C(4x) = 2 C(x)^2 - 1 double back up, lane b j[b]
    times, and G(4^j X) = S(4^(j-1) X)^2 / 2 is read one doubling before the
    end.  j (B, 1, 1) >= 1.
    """
    eye = np.eye(x.shape[-1])
    powers = np.empty((5,) + x.shape, dtype=x.dtype)  # X^0 .. X^4
    powers[0] = eye
    powers[1] = x
    np.matmul(x, x, out=powers[2])
    np.matmul(powers[2], x, out=powers[3])
    np.matmul(powers[2], powers[2], out=powers[4])
    flat = powers.reshape(5, -1)
    sc = powers[4] @ (_TAYLOR_HI @ flat).reshape((2,) + x.shape)
    sc += (_TAYLOR_LO @ flat[:4]).reshape(sc.shape)  # (S(X), C(X))
    # lanes with fewer doublings start later, so all reach 4^(j-1) X together
    top = int(j.max(initial=1))
    for i in range(1, top):
        nxt = sc @ sc[1]  # (S C, C^2)
        nxt[1] *= 2.0
        nxt[1] -= eye
        on = j > top - i
        sc = nxt if on.all() else np.where(on, nxt, sc)
    out = sc[0] @ sc  # (S^2, S C)
    out[0] *= 0.5
    return out


class FiberSpectrum:
    """Spectral data of ad(Z) for a batch of Z in p; see the module doc.

    a: (..., dim_k, dim_p) k-p blocks of ad(Z).  Every block comes from the
    sinhc kernel; none takes an eigh.
    """

    def __init__(self, a):
        self.a = a

    @cached_property
    def _gram_scaled(self):
        """M / 4^j and the per-lane doubling count j >= 1 with ||M / 4^j||_F <= 1."""
        m = _mT(self.a) @ self.a
        _, e = np.frexp(np.einsum("...ij,...ij->...", m, m))
        j = np.maximum((e + 3) // 4, 1)  # 16^j >= 2^e > ||M||_F^2
        return m * np.ldexp(1.0, -2 * j)[..., None, None], j[..., None, None]

    def sinhc(self, c):
        """(f_plus(c A^T A), G(c A^T A)), each (..., P, P), without eigh.

        c in [0, 1] broadcasts against (..., P, P), e.g. t^2 with two trailing
        axes.  X = c M / 4^j is c M scaled by a power of two, with j >= 1 per
        lane from the unscaled M, and _sinhc_lanes treats every lane apart,
        so a lane's value is the same for a scalar c, one c per lane or a c
        grid, whatever the other lanes hold.  The lanes go through in chunks
        of about _SINHC_CHUNK entries, which bounds the kernel's temporaries.
        A complex c gives complex blocks (sinhc_dc).
        """
        m4, j = self._gram_scaled
        x = c * m4
        shape, p = x.shape, x.shape[-1]
        x = x.reshape(-1, p, p)
        j = np.broadcast_to(j, shape[:-2] + (1, 1)).reshape(-1, 1, 1)
        step = max(1, _SINHC_CHUNK // (p * p))
        if len(x) <= step:
            out = _sinhc_lanes(x, j)
        else:
            out = np.empty((2,) + x.shape, dtype=x.dtype)
            for lo in range(0, len(x), step):
                out[:, lo : lo + step] = _sinhc_lanes(x[lo : lo + step], j[lo : lo + step])
        out = out.reshape((2,) + shape)
        return out[1], out[0]

    def sinhc_dc(self, c):
        """d/dc of sinhc(c): (M f_plus'(c M), M G'(c M)), each (..., P, P).

        One sinhc call at c + i h: both functions are real on real arguments,
        so Im sinhc(c + i h) / h is their c-derivative up to O(h^2), with no
        subtraction to cancel (Squire and Trapp, SIAM Rev. 40 (1998); for
        matrix functions Al-Mohy and Higham, Numer. Algorithms 53 (2010)).
        The doubling counts j come from the real M, so no branch reads h.
        """
        return tuple(block.imag / _DC_STEP for block in self.sinhc(c + 1j * _DC_STEP))

    @cached_property
    def _sinhc_one(self):
        out = self.sinhc(1.0)
        for block in out:
            block.flags.writeable = False
        return out

    @property
    def psi_plus(self):
        """even(f_plus), the p rows of Psi_Z^+, computed once and read-only.

        pullback_blocks and delta_blocks both read it, so the segment
        family's two blocks at one spectrum share it.
        """
        return self._sinhc_one[0]

    @property
    def even_g(self):
        """even(G), computed once and read-only.

        It serves the k rows A even(G) of Psi_Z^- = -nu G in pullback_blocks,
        the radial primitives of the scaling and segment stages, and the
        cosh moments (apply_k with phi = G).
        """
        return self._sinhc_one[1]

    def apply_k(self, g0, phi_block, xi):
        """The k-k block of g(ad(Z)^2) on k-coordinates xi: g0 xi + A phi A^T xi.

        phi_block is the p-p block even(phi) of phi(s) = (g(s) - g0) / s.
        """
        y = phi_block @ (_mT(self.a) @ xi[..., None])
        return g0 * xi + (self.a @ y)[..., 0]


def chi_spectrum_check(alg, z):
    """Compare spec(chi_Z) with {(e^nu - 1)/(e^nu + 1)} as multisets.

    z holds the p-coordinates of Z, with any leading batch shape (..., P).
    Returns (multiset deviation, max |eigenvalue of chi|), arrays of the
    batch shape, or two floats for a single Z.  ad(Z) is the Jordan-Wielandt
    matrix of A = U diag(sigma) V^T, so its eigenvalues nu are +-sigma and
    |dim_k - dim_p| zeros (Golub and Van Loan, Matrix Computations, 4th ed.,
    8.6), and the odd chi_Z = -tanh(ad(Z)/2) is [[0, B], [B^T, 0]] with
    B = U diag(-tanh(sigma/2)) V^T.  Its diagonal blocks are exactly zero, so
    spec(chi_Z) is +-sv(B) and those zeros: one values-only svd of B, sorted
    descending like tau = (e^sigma - 1)/(e^sigma + 1), certifies it.
    """
    z = np.asarray(z, dtype=float)
    k = alg.dim_k
    u, sigma, vt = np.linalg.svd(alg.ad(alg.embed_p(z))[..., :k, k:], full_matrices=False)
    b = (u * -np.tanh(0.5 * sigma)[..., None, :]) @ vt
    chi_sv = np.linalg.svd(b, compute_uv=False)
    tau = np.expm1(sigma) / (np.exp(sigma) + 1.0)
    dev = np.abs(chi_sv - tau).max(axis=-1)
    peak = chi_sv.max(axis=-1)
    if z.ndim == 1:
        return float(dev), float(peak)
    return dev, peak
