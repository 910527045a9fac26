"""Scalar spectral functions of ad(Z) for Z in p.

For Z in p the operator ad(Z) is symmetric in the orthonormal coordinates, so
every analytic function of it is evaluated spectrally: eigendecompose once,
apply the scalar function to the eigenvalues, reconstruct.  The functions:

    Psi_Z^+    sinh(nu)/nu                 even part of int_0^1 e^{-s ad Z} ds
    Psi_Z^-    -(cosh(nu)-1)/nu            minus its odd part
    chi_Z      Psi_Z^- o (Psi_Z^+)^{-1}:   -tanh(nu/2)
    cosh       cosh(nu)
"""

from __future__ import annotations

import numpy as np


def f_plus(nu):
    nu = np.asarray(nu, dtype=float)
    safe = np.where(nu == 0.0, 1.0, nu)
    return np.where(nu == 0.0, 1.0, np.sinh(safe) / safe)


def f_minus(nu):
    # -(cosh(nu)-1)/nu computed as -2 sinh(nu/2)^2 / nu to avoid cancellation
    nu = np.asarray(nu, dtype=float)
    safe = np.where(nu == 0.0, 1.0, nu)
    return np.where(nu == 0.0, 0.0, -2.0 * np.sinh(safe / 2.0) ** 2 / safe)


def f_chi(nu):
    return -np.tanh(np.asarray(nu, dtype=float) / 2.0)


def f_cosh(nu):
    return np.cosh(np.asarray(nu, dtype=float))


def f_plus_prime(nu):
    """Derivative of sinh(nu)/nu; series branch tames the 1/nu cancellation."""
    nu = np.asarray(nu, dtype=float)
    small = np.abs(nu) < 1e-2
    safe = np.where(small, 1.0, nu)
    out = np.asarray(np.cosh(safe) / safe - np.sinh(safe) / safe**2)
    s = nu[small]
    out[small] = s / 3.0 + s**3 / 30.0 + s**5 / 840.0
    return out


def chi_spectrum_check(alg, z):
    """Compare spec(chi_Z) with {(e^nu - 1)/(e^nu + 1)} as multisets.

    z holds the p-coordinates of Z, with any leading batch shape (..., P).
    Returns (multiset deviation, max |eigenvalue of chi|), arrays of the
    batch shape, or two floats for a single Z.  The per-vector spectral rule
    gives -tanh(nu/2); written as the multiset {tanh(nu/2)} it is the same
    set because spec(ad Z) is symmetric about zero.
    """
    z = np.asarray(z, dtype=float)
    full = np.zeros(z.shape[:-1] + (alg.dim,))
    full[..., alg.dim_k :] = z
    w, v = np.linalg.eigh(alg.ad(full))
    chi = (v * f_chi(w)[..., None, :]) @ np.swapaxes(v, -1, -2)
    chi_eigs = np.sort(np.linalg.eigvalsh(chi), axis=-1)
    predicted = np.sort(np.expm1(w) / (np.exp(w) + 1.0), axis=-1)
    dev = np.abs(chi_eigs - predicted).max(axis=-1)
    peak = np.abs(chi_eigs).max(axis=-1)
    if z.ndim == 1:
        return float(dev), float(peak)
    return dev, peak
