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
    direct = np.cosh(safe) / safe - np.sinh(safe) / safe**2
    series = nu / 3.0 + nu**3 / 30.0 + nu**5 / 840.0
    return np.where(small, series, direct)


def chi_spectrum_check(alg, z):
    """Compare spec(chi_Z) with {(e^nu - 1)/(e^nu + 1)} as multisets.

    z holds the p-coordinates of Z.  Returns (multiset deviation, max
    |eigenvalue of chi|).  The per-vector spectral rule gives -tanh(nu/2);
    written as the multiset {tanh(nu/2)} it is the same set because
    spec(ad Z) is symmetric about zero.
    """
    full = np.zeros(alg.dim)
    full[alg.dim_k :] = z
    w, v = np.linalg.eigh(alg.ad(full))
    chi = (v * f_chi(w)) @ v.T
    chi_eigs = np.sort(np.linalg.eigvalsh(chi))
    predicted = np.sort(np.expm1(w) / (np.exp(w) + 1.0))
    dev = float(np.abs(chi_eigs - predicted).max())
    return dev, float(np.abs(chi_eigs).max())
