"""Spectrum and eigenbasis of L_q = -d_xx + q(x) on the torus.

The Galerkin matrix in the exponential basis is M[j,j'] = j^2 d_{jj'} +
q_hat(j-j').  Eigenvalues are paired into blocks [n] = {-n, n} by rank, the
eigenvalue decomposition mu_j^2 = j^2 + q_bar + d(j) is extracted, and the
square-root data lambda_j = sqrt(mu_j^2), c_j = <j>(lambda_j - |j|) feeding
the Melnikov analysis is tabulated.

Labels and phases inside a block are conventions: the eigenvector with
larger |<psi, e_n>| gets label +n, each eigenvector is rotated so its
largest-magnitude coefficient is real positive, and exactly degenerate
pairs are recombined so that psi_{-n} = conj(psi_n).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .harmonics import toeplitz

# two eigenvalues of one block closer than DEGENERACY_RTOL times their size
# are one double eigenvalue to eigh's accuracy, whose rounding is about
# D * eps = 6e-14 relative at D = 257; eigh then returns an arbitrary basis of
# the eigenspace, and the labelled pair is built from the conjugation symmetry
DEGENERACY_RTOL = 1e-12


class SpectrumError(RuntimeError):
    pass


@dataclass
class SpectralData:
    """Eigenpairs of the truncated L_q, labelled j in [-J, J]."""

    J: int
    q_bar: float
    mu_sq: np.ndarray        # mu_j^2, index j+J
    d: np.ndarray            # d(j) = mu_j^2 - j^2 - q_bar
    psi: np.ndarray          # column j+J = Fourier coefficients of psi_j
    lam: np.ndarray          # lambda_j = sqrt(mu_j^2)  (nan if not positive)
    c: np.ndarray            # c_j = <j>(lambda_j - |j|)
    m_sq: float              # max{c_0, |q_bar| + ||d||_l2}
    positive: bool

    def idx(self, j: int) -> int:
        return int(j) + self.J

    def value(self, j: int) -> float:
        return float(self.mu_sq[self.idx(j)])

    @property
    def js(self) -> np.ndarray:
        return np.arange(-self.J, self.J + 1)

    def conjugation_matrix(self) -> np.ndarray:
        """K with conj(psi_j) = sum_k K[j,k] psi_k (eigen coordinates)."""
        return self.psi.conj().T @ np.conj(self.psi[::-1, :])

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["j", "mu_sq", "d", "lambda", "c"])
        for j in self.js:
            k = self.idx(j)
            w.writerow([j, repr(self.mu_sq[k]), repr(self.d[k]),
                        repr(self.lam[k]), repr(self.c[k])])
        return buf.getvalue()


def assemble_lq(q: np.ndarray, J: int) -> np.ndarray:
    """Hermitian (2J+1)x(2J+1) matrix of -d_xx + q in the exponential basis.

    q holds the Fourier coefficients q_hat(k), |k| <= J, of a real q(x).
    """
    qc = np.asarray(q, dtype=complex)
    if qc.shape != (2 * J + 1,):
        raise ValueError(f"q needs 2J+1 = {2 * J + 1} x coefficients, got shape {qc.shape}")
    if np.max(np.abs(qc - np.conj(qc[::-1]))) > 1e-12 * max(1.0, np.max(np.abs(qc))):
        raise ValueError("q must be real-valued")
    M = toeplitz(qc)                          # M[j, j'] = q_hat(j - j')
    M[np.diag_indices(2 * J + 1)] += np.arange(-J, J + 1).astype(float) ** 2
    return 0.5 * (M + M.conj().T)


def eigensolve_blocks(matrix: np.ndarray, q: np.ndarray,
                      require_positive: bool = True) -> SpectralData:
    """Diagonalize, pair eigenvalues into blocks [n] = {-n, n}, fix phases.

    q is the x-coefficient array the matrix was assembled from; its mean
    q_hat(0) is q_bar.
    """
    matrix = np.asarray(matrix, dtype=complex)
    dim = matrix.shape[0]
    J = (dim - 1) // 2
    evals, evecs = scipy.linalg.eigh(matrix)
    if require_positive and evals[0] <= 0:
        raise SpectrumError(
            f"spectrum not positive (min eigenvalue {evals[0]:.6g}); "
            "the construction assumes inf spec(L_q) > 0")

    q_bar = float(np.real(q[J]))

    mu_sq = np.empty(dim)
    psi = np.empty((dim, dim), dtype=complex)

    # rank 0 -> label 0; ranks 2n-1, 2n -> labels -n, +n
    mu_sq[J] = evals[0]
    psi[:, J] = _fix_phase(evecs[:, 0])
    for n in range(1, J + 1):
        ra, rb = 2 * n - 1, 2 * n
        va, vb = evecs[:, ra], evecs[:, rb]
        scale = max(abs(evals[ra]), abs(evals[rb]), 1.0)
        if abs(evals[rb] - evals[ra]) <= DEGENERACY_RTOL * scale:
            plus, minus = _conjugate_pair(va, vb, J, n)
            mu_plus, mu_minus = evals[rb], evals[ra]
        else:
            # pick +n by overlap with e_n; phase-fix each vector
            if abs(va[J + n]) >= abs(vb[J + n]):
                plus, minus = va, vb
                mu_plus, mu_minus = evals[ra], evals[rb]
            else:
                plus, minus = vb, va
                mu_plus, mu_minus = evals[rb], evals[ra]
            plus, minus = _fix_phase(plus), _fix_phase(minus)
        mu_sq[J + n], mu_sq[J - n] = mu_plus, mu_minus
        psi[:, J + n], psi[:, J - n] = plus, minus

    d = mu_sq - np.arange(-J, J + 1) ** 2 - q_bar
    with np.errstate(invalid="ignore"):
        lam = np.sqrt(np.maximum(mu_sq, 0.0))
    lam[mu_sq <= 0] = np.nan
    js = np.arange(-J, J + 1)
    c = np.maximum(1, np.abs(js)) * (lam - np.abs(js))
    m_sq = max(abs(c[J]) if np.isfinite(c[J]) else 0.0,
               abs(q_bar) + float(np.linalg.norm(d)))
    return SpectralData(J=J, q_bar=q_bar, mu_sq=mu_sq, d=d, psi=psi, lam=lam,
                        c=c, m_sq=m_sq, positive=bool(evals[0] > 0))


def _fix_phase(v: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(v)))
    ph = v[k] / abs(v[k])
    return v / ph


def _conjugate_pair(va, vb, J, n):
    """Recombine a degenerate pair so that psi_{-n} = conj(psi_n).

    Complex conjugation of functions acts on coefficients as C v =
    conj(v[::-1]); it is antiunitary with C^2 = 1 and preserves the
    eigenspace.  Build C-fixed orthonormal r1, r2 and take
    psi_n = (r1 + i r2)/sqrt(2), psi_{-n} = C psi_n (exactly orthonormal).
    """
    def C(v):
        return np.conj(v[::-1])

    r1 = va + C(va)
    if np.linalg.norm(r1) < 1e-8:
        r1 = 1j * va + C(1j * va)
    r1 /= np.linalg.norm(r1)
    w = vb - r1 * (r1.conj() @ vb)
    r2 = w + C(w)
    if np.linalg.norm(r2) < 1e-8:
        r2 = 1j * w + C(1j * w)
    r2 -= r1 * (r1.conj() @ r2)
    r2 /= np.linalg.norm(r2)
    plus = (r1 + 1j * r2) / np.sqrt(2)
    if abs(plus[J + n]) < abs(plus[J - n]):
        plus = C(plus)
    plus = _fix_phase(plus)
    return plus, C(plus)


def decompose_eigenvalues(sd: SpectralData):
    """(q_bar, d array, l2-tail report with partial sums of d(j)^2)."""
    J = sd.J
    report = {}
    for k in sorted({max(1, J // 4), max(1, J // 2), J}):
        sel = np.abs(sd.js) <= k
        report[int(k)] = float(np.sum(sd.d[sel] ** 2))
    return sd.q_bar, sd.d.copy(), report


def spectral_power(sd: SpectralData, mu: float) -> np.ndarray:
    """(L_q)^mu in the exponential basis: psi diag((mu_j^2)^mu) psi^*."""
    if not sd.positive and mu != int(mu):
        raise SpectrumError("fractional powers need a positive spectrum")
    diag = sd.mu_sq.astype(complex) ** mu
    return (sd.psi * diag[None, :]) @ sd.psi.conj().T
