"""Lyapunov-Schmidt localization of Schroedinger eigenfunctions.

For (-d_xx + q) f = lambda f with lambda near n^2, the space splits into
span{e_{-n}, e_n} and its complement Q_n.  One stacked Neumann series of
T_n = A_lambda^{-1} Q_n V (divisors lambda - m^2, |m| != n) resolves e_{-n}
and e_n, leaving the 2x2 system S_n(lambda) with entries a_n and c_n.  As in
the Craig-Wayne reduction, the two block eigenvalues are the fixed points of
lambda -> n^2 + a_n(lambda) +- |c_n(lambda)| on D_n, iterated from n^2; each
eigenfunction, the last step's resolved pair combined with the 2x2
eigenvector, is localized near e_{+-n} with decay <|m|-n>^{-s}.
`change_basis` moves block operators from the exponential to the
eigenfunction basis.

The constant tilde_C(s) driving the admissibility threshold
||q||_s <= n / (2 tilde_C_s) is evaluated numerically from its defining sum
and inflated by a 1.2 safety factor; the Neumann solver raises on
non-contraction or a residual above 10 NEUMANN_TOL, and the D_n check of
the roots applies only where the admissibility inequality holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .harmonics import xconv
from .opmatrix import BlockOperator, _hs_block_tensor, _s_decay_sq
from .schrodinger import SpectralData


class AdmissibilityError(RuntimeError):
    pass


# the Neumann series ends once every increment's l2 norm is below NEUMANN_TOL
NEUMANN_TOL = 1e-13
# the fixed point is reached at a relative step below LS_RTOL, some 50 ulps of
# lambda ~ n^2; the map's slope is of order ||q||^2/n^2 on the admissible
# blocks, so LS_MAX_STEPS only stops a map that does not contract
LS_RTOL = 1e-14
LS_MAX_STEPS = 60


def shifted_norm(u, s: float, j: int) -> float:
    """( sum_n <n+j>^{2s} |u_hat(n)|^2 )^{1/2}."""
    c = np.asarray(u, dtype=complex)
    J = (len(c) - 1) // 2
    w = np.maximum(1.0, np.abs(np.arange(-J, J + 1) + j)).astype(float)
    return float(np.sqrt(np.sum(w ** (2.0 * s) * np.abs(c) ** 2)))


def x_sobolev_norm(u, s: float) -> float:
    return shifted_norm(u, s, 0)


@lru_cache(maxsize=None)
def tilde_C(s: float, a_max: int = 400, k_max: int = 1600) -> float:
    """tilde_C_s with tilde_C_s^2 = 4 sup_a g(a), g the weighted convolution sum,
    evaluated on a truncated index range and inflated by 1.2."""
    ks = np.arange(-k_max, k_max + 1)
    wk = np.maximum(1.0, np.abs(ks)) ** (2.0 * s)
    sup = 0.0
    for a in range(a_max + 1):
        wa = max(1.0, a) ** (2.0 * s)
        wak = np.maximum(1.0, np.abs(a - ks)) ** (2.0 * s)
        sup = max(sup, wa * float(np.sum(1.0 / (wk * wak))))
    return 1.2 * math.sqrt(4.0 * sup)


def apply_Tn(w, q, n: int, lam: float) -> np.ndarray:
    """(T_n w)(m) = (lam - m^2)^{-1} (q w)(m) for |m| != n, zero at +-n; w may
    have +-n modes and may stack vectors along leading axes."""
    qw = xconv(q, w)
    J = (len(q) - 1) // 2
    ms = np.arange(-J, J + 1)
    div = lam - ms.astype(float) ** 2
    out = np.zeros_like(qw)
    keep = np.abs(ms) != n
    out[..., keep] = qw[..., keep] / div[keep]
    return out


def solve_q_equation(u, q, n: int, lam: float) -> np.ndarray:
    """v = sum_{k>=1} T_n^k u, truncated once every increment is below NEUMANN_TOL
    (at most 200 terms).  u may stack vectors along leading axes; the series
    runs on all of them at once, and each is checked on its own.

    Raises AdmissibilityError when an increment does not shrink, or when the
    residual of (Id - T_n) v = T_n u exceeds 10 * NEUMANN_TOL for some vector.
    """
    u = np.asarray(u, dtype=complex)
    first = apply_Tn(u.reshape(-1, u.shape[-1]), q, n, lam)

    v = np.array(first)
    term = first
    prev = np.linalg.norm(term, axis=-1)
    for _ in range(199):
        term = apply_Tn(term, q, n, lam)
        inc = np.linalg.norm(term, axis=-1)
        grows = (prev > 0) & (inc >= prev)
        if np.any(grows):
            raise AdmissibilityError(f"Neumann series not contracting at n={n} "
                                     f"(ratio {np.max(inc[grows] / prev[grows]):.3f})")
        v += term
        if np.all(inc < NEUMANN_TOL):
            break
        prev = inc
    # residual check: (Id - T_n) v - T_n u = 0
    res = np.linalg.norm(v - apply_Tn(v, q, n, lam) - first, axis=-1)
    if np.any(res > 10 * NEUMANN_TOL * np.maximum(1.0, np.linalg.norm(v, axis=-1))):
        raise AdmissibilityError(
            f"Neumann residual {np.max(res):.2e} exceeds 10*NEUMANN_TOL")
    return v.reshape(u.shape)


def assemble_Sn(q, n: int, lam: float):
    """The entries a_n, c_n of the 2x2 system S_n(lambda), lambda in U_n.

    e_{-n} and e_n are resolved as one stack R = (Id-T_n)^{-1} (e_{-n}, e_n), and
    a_n = (V R[1], e_n),  c_n = (V R[0], e_n).
    Returns (a_n, c_n, R) and asserts the symmetries a_n = a_{-n},
    c_{-n} = conj(c_n).
    """
    if abs(lam - n ** 2) > n / 2 + 1e-12:
        raise AdmissibilityError(
            f"lambda is outside U_n = {{|lam - n^2| <= n/2}} (n = {n})")
    J = (len(q) - 1) // 2
    E = np.zeros((2, 2 * J + 1), dtype=complex)
    E[0, J - n] = E[1, J + n] = 1.0
    R = E + solve_q_equation(E, q, n, lam)
    qR = xconv(q, R)
    a_mn, c_n = qR[0, J - n], qR[0, J + n]
    c_mn, a_n = qR[1, J - n], qR[1, J + n]
    scale = max(1.0, abs(a_n))
    if abs(a_n - a_mn) > 1e-10 * scale or abs(c_mn - np.conj(c_n)) > 1e-10 * scale:
        raise AdmissibilityError("S_n symmetry identities violated")
    return complex(a_n), complex(c_n), R


def ls_block_eigenpairs(n: int, q, s: float):
    """Both roots of det S_n(lambda) in the disc D_n, with eigenfunctions.

    Each root is the fixed point of lambda -> n^2 + a_n(lambda) +- |c_n(lambda)|,
    iterated from lambda = n^2, whose evaluation both roots share, until the
    relative step is below LS_RTOL.  No fixed point after LS_MAX_STEPS steps,
    an iterate outside U_n, or, where ||q||_s <= n / (2 tilde_C_s), a root
    escaping D_n raises AdmissibilityError.
    Each eigenfunction is the last step's resolved pair R combined with the
    unit eigenvector (conj(c_n), +-|c_n|) / (sqrt(2) |c_n|) of the 2x2 system,
    so its projection onto span{e_{-n}, e_n} is a unit vector.  Returns
    [(lam, f)] sorted ascending.
    """
    if n < 1:
        raise ValueError("the Lyapunov-Schmidt path needs n >= 1")
    q = np.asarray(q, dtype=complex)
    q_norm, C = x_sobolev_norm(q, s), tilde_C(s)
    radius = (2.0 * C / 3.0) * q_norm
    admissible = q_norm <= n / (2.0 * C)
    first = assemble_Sn(q, n, float(n ** 2))
    out = []
    for sign in (+1.0, -1.0):
        lam, (a, c, R) = float(n ** 2), first
        for _ in range(LS_MAX_STEPS):
            image = n ** 2 + a.real + sign * abs(c)
            step, lam = image - lam, image
            if abs(step) < LS_RTOL * lam:
                break
            a, c, R = assemble_Sn(q, n, lam)
        else:
            raise AdmissibilityError(
                f"no fixed point for root {sign:+.0f} at n={n} in {LS_MAX_STEPS} steps")
        if abs(lam - n ** 2) > radius + 1e-9 and admissible:
            raise AdmissibilityError(
                f"root {lam:.6f} escaped D_n (radius {radius:.3f}); "
                "the computed tilde_C_s underestimates the constant")
        if abs(c) > 1e-14:
            u_pm = np.array([np.conj(c), sign * abs(c)]) / (np.sqrt(2.0) * abs(c))
        else:
            u_pm = np.array([0.0, 1.0]) if sign > 0 else np.array([1.0, 0.0])
        out.append((float(lam), u_pm @ R))
    out.sort(key=lambda t: t[0])
    return out


def eigen_residual(lam: float, f: np.ndarray, q) -> float:
    """||L_q f - lam f||_0 / ||f||_0 on the truncation."""
    from .schrodinger import assemble_lq
    qc = np.asarray(q, dtype=complex)
    J = (len(f) - 1) // 2
    M = assemble_lq(qc, J)
    r = M @ f - lam * f
    return float(np.linalg.norm(r) / np.linalg.norm(f))


def verify_localization(f, n: int, s: float):
    """Worst ratio max_m |(f, e_m)| <|m| - n>^s; PASS iff <= 2 + 1e-8.

    f is normalized to unit projection on span{e_{-n}, e_n} first.
    """
    c = np.array(f, dtype=complex)
    J = (len(c) - 1) // 2
    pn = math.hypot(abs(c[J - n]), abs(c[J + n]))
    if pn > 0:
        c = c / pn
    ms = np.arange(-J, J + 1)
    w = np.maximum(1.0, np.abs(np.abs(ms) - n)).astype(float) ** s
    ratio = float(np.max(np.abs(c) * w))
    return ratio, ratio <= 2.0 + 1e-8


def ls_certificates(blocks, q, s: float, sd: SpectralData) -> list:
    """The certificates of the Lyapunov-Schmidt eigenpairs of the blocks n.

    One (n, ratio, localized, gap, residual) per pair, in block order and
    ascending lambda: the `verify_localization` verdict, the distance
    |lambda_LS - lambda_dense| to the nearer of sd's two eigenvalues of block
    [n], and the `eigen_residual` of the pair.
    """
    out = []
    for n in blocks:
        dense = (sd.value(-n), sd.value(n))
        for lam, f in ls_block_eigenpairs(n, q, s):
            ratio, localized = verify_localization(f, n, s)
            out.append((n, ratio, localized, min(abs(lam - d) for d in dense),
                        eigen_residual(lam, f, q)))
    return out


# -- basis change ---------------------------------------------------------------


@dataclass
class BasisMatrix:
    """Change of basis psi_j <-> e_m: M[j, m] = (psi_j, e_m), unitary."""

    M: np.ndarray
    J: int
    K: np.ndarray          # conjugation matrix in eigen coordinates

    def unitarity_defect(self) -> float:
        G = self.M @ self.M.conj().T
        return float(np.max(np.abs(G - np.eye(2 * self.J + 1))))

    def s_norm(self, s: float) -> float:
        """|M|_{s;M}^2 = sum_h <h>^{2s} sup_{|n-m|=h} ||M_[n]^[m]||_HS^2."""
        return math.sqrt(_s_decay_sq(_hs_block_tensor(self.M, self.J), np.zeros(1), s))

    def norm_table(self, s_values) -> dict:
        return {f"s={s:g}": self.s_norm(s) for s in s_values}


def build_basis_matrix(sd: SpectralData) -> BasisMatrix:
    """Blocks (psi_{+-n}, e_{+-m}) from the spectral data."""
    return BasisMatrix(M=sd.psi.T.copy(), J=sd.J, K=sd.conjugation_matrix())


def change_basis(A: BlockOperator, basis: BasisMatrix) -> BlockOperator:
    """A BlockOperator (or a stack, slice by slice) of the exponential basis in
    the eigen basis.

    A_eig(l) = conj(M) A_exp(l) M^T, so that matrix action agrees with
    operator action in eigen coordinates.
    """
    if A.lattice.J != basis.J:
        raise ValueError("cutoff mismatch between operator and basis matrix")
    return BlockOperator(A.lattice, np.conj(basis.M) @ A.mats @ basis.M.T, K=basis.K)
