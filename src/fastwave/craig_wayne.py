"""Lyapunov-Schmidt localization of Schroedinger eigenfunctions.

For the eigenvalue problem (-d_xx + q) f = lambda f with lambda near n^2, the
space splits into span{e_{-n}, e_n} and its complement; the complement
equation is solved by the Neumann series of T_n = A_lambda^{-1} Q_n V
(divisors lambda - m^2, |m| != n), leaving an explicit 2x2 system S_n(lambda)
whose two roots are the block eigenvalues.  The resulting eigenfunctions are
localized near e_{+-n} with polynomial decay <|m|-n>^{-s}, which is what lets
pseudodifferential operators (built on exponentials) embed into the decaying
matrix classes built on the eigenfunction basis.

The constant tilde_C(s) driving the admissibility threshold
||q||_s <= n / (2 tilde_C_s) is evaluated numerically from its defining sum
and inflated by a 1.2 safety factor; the Neumann solver itself only requires
empirical contraction, and reports whether the certified threshold held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .harmonics import Lattice, TorusFunction, xconv
from .opmatrix import BlockOperator, _hs_block_tensor, block_slice
from .schrodinger import SpectralData


class AdmissibilityError(RuntimeError):
    pass


def _xcoeffs(u) -> np.ndarray:
    if isinstance(u, TorusFunction):
        return u.x_slice()
    return np.asarray(u, dtype=complex)


def shifted_norm(u, s: float, j: int) -> float:
    """( sum_n <n+j>^{2s} |u_hat(n)|^2 )^{1/2}."""
    c = _xcoeffs(u)
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


@dataclass
class LsContext:
    """State for one Lyapunov-Schmidt block: divisors, potential, thresholds."""

    n: int
    s: float
    q: np.ndarray                      # x coefficients, length 2J+1
    lam: float
    C_tilde: float = field(default=None)

    def __post_init__(self):
        self.q = _xcoeffs(self.q)
        if self.n < 1:
            raise ValueError("the Lyapunov-Schmidt path needs n >= 1")
        if abs(self.lam - self.n ** 2) > self.n / 2 + 1e-12:
            raise AdmissibilityError(
                f"lambda is outside U_n = {{|lam - n^2| <= n/2}} (n = {self.n})")
        if self.C_tilde is None:
            self.C_tilde = tilde_C(self.s)

    @property
    def J(self) -> int:
        return (len(self.q) - 1) // 2

    @property
    def q_norm(self) -> float:
        return x_sobolev_norm(self.q, self.s)

    @property
    def certified(self) -> bool:
        """The paper-style admissibility inequality ||q||_s <= n/(2 tilde_C_s)."""
        return self.q_norm <= self.n / (2.0 * self.C_tilde)

    def with_lam(self, lam: float) -> "LsContext":
        return LsContext(self.n, self.s, self.q, lam, self.C_tilde)


def apply_Tn(w, ctx: LsContext) -> np.ndarray:
    """(T_n w)(m) = (lam - m^2)^{-1} (q w)(m) for |m| != n, zero at +-n."""
    wc = _xcoeffs(w)
    J = ctx.J
    if abs(wc[J + ctx.n]) > 1e-13 or abs(wc[J - ctx.n]) > 1e-13:
        raise ValueError("input must lie in the complement Q_n (w_hat(+-n) = 0)")
    qw = xconv(ctx.q, wc)
    ms = np.arange(-J, J + 1)
    div = ctx.lam - ms.astype(float) ** 2
    out = np.zeros_like(qw)
    keep = np.abs(ms) != ctx.n
    out[keep] = qw[keep] / div[keep]
    return out


def solve_q_equation(u, ctx: LsContext, tol: float = 1e-13, n_max: int = 200):
    """v = sum_{k>=1} T_n^k u, truncated at increment < tol.

    Returns (v, info) with the residual of (Id - T_n) v = T_n u checked to
    10*tol and the shifted-norm bound of the certified regime recorded.
    """
    uc = _xcoeffs(u)
    J = ctx.J
    # first term: T_n applied to u, the +-n modes allowed in the input
    qw = xconv(ctx.q, uc)
    ms = np.arange(-J, J + 1)
    div = ctx.lam - ms.astype(float) ** 2
    term = np.zeros_like(qw)
    keep = np.abs(ms) != ctx.n
    term[keep] = qw[keep] / div[keep]

    v = np.array(term)
    prev = np.linalg.norm(term)
    for k in range(2, n_max + 1):
        term = apply_Tn(term, ctx)
        inc = np.linalg.norm(term)
        if prev > 0 and inc / prev >= 1.0:
            raise AdmissibilityError(
                f"Neumann series not contracting at n={ctx.n} (ratio {inc/prev:.3f})")
        v += term
        if inc < tol:
            break
        prev = inc
    # residual check: (Id - T_n) v - T_n u = 0
    first = np.zeros_like(qw)
    first[keep] = qw[keep] / div[keep]
    residual = v - apply_Tn(v, ctx) - first
    res = float(np.linalg.norm(residual))
    if res > 10 * tol * max(1.0, np.linalg.norm(v)):
        raise AdmissibilityError(f"Neumann residual {res:.2e} exceeds 10*tol")
    info = {"residual": res, "certified": ctx.certified}
    if ctx.certified:
        bound = 2 * ctx.C_tilde / ctx.n * ctx.q_norm
        for j in (0, ctx.n, -ctx.n):
            lhs = shifted_norm(v, ctx.s, j)
            rhs = bound * shifted_norm(uc, ctx.s, j)
            info.setdefault("bound_checks", []).append(lhs <= rhs + 1e-12)
    return v, info


def assemble_Sn(ctx: LsContext, tol: float = 1e-13):
    """The 2x2 system S_n(lambda) with entries from a_{+-n}, c_{+-n}.

    a_n = (V (Id-T_n)^{-1} e_n, e_n),  c_n = (V (Id-T_n)^{-1} e_{-n}, e_n).
    Returns (S, a_n, c_n) and asserts the symmetries a_n = a_{-n},
    c_{-n} = conj(c_n).
    """
    J, n = ctx.J, ctx.n
    lam = ctx.lam

    def resolve(sign):
        e = np.zeros(2 * J + 1, dtype=complex)
        e[J + sign * n] = 1.0
        v, _ = solve_q_equation(e, ctx, tol)
        return e + v

    rp, rm = resolve(+1), resolve(-1)
    qrp, qrm = xconv(ctx.q, rp), xconv(ctx.q, rm)
    a_n = qrp[J + n]
    a_mn = qrm[J - n]
    c_n = qrm[J + n]
    c_mn = qrp[J - n]
    scale = max(1.0, abs(a_n))
    if abs(a_n - a_mn) > 1e-10 * scale or abs(c_mn - np.conj(c_n)) > 1e-10 * scale:
        raise AdmissibilityError("S_n symmetry identities violated")
    S = np.array([[lam - n ** 2 - a_mn, -c_mn],
                  [-c_n, lam - n ** 2 - a_n]], dtype=complex)
    return S, complex(a_n), complex(c_n)


def ls_block_eigenpairs(n: int, q, s: float, tol: float = 1e-12,
                        newton_max: int = 60):
    """Both roots of det S_n(lambda) in the disc D_n, with eigenfunctions.

    Returns a list [(lam, f)] sorted ascending; each f has unit projection
    onto span{e_{-n}, e_n}.  Newton iteration from lam = n^2 + a_n(n^2) with
    bisection fallback; roots escaping D_n raise with diagnostics.
    """
    qc = _xcoeffs(q)
    ctx0 = LsContext(n, s, qc, float(n ** 2))
    radius = (2.0 * ctx0.C_tilde / 3.0) * ctx0.q_norm

    def entries(lam):
        _, a, c = assemble_Sn(ctx0.with_lam(lam), tol=1e-13)
        return float(np.real(a)), c

    out = []
    a0, c0 = entries(float(n ** 2))
    for sign in (+1.0, -1.0):
        def h(lam):
            a, c = entries(lam)
            return lam - n ** 2 - a - sign * abs(c)

        lam = n ** 2 + a0 + sign * abs(c0)
        converged = False
        for _ in range(newton_max):
            val = h(lam)
            if abs(val) < tol * max(1.0, abs(lam)):
                converged = True
                break
            dh = (h(lam + 1e-6) - h(lam - 1e-6)) / 2e-6
            if abs(dh) < 0.1:
                break
            lam = lam - val / dh
        if not converged:
            lo, hi = n ** 2 - n / 2 + 1e-9, n ** 2 + n / 2 - 1e-9
            if h(lo) * h(hi) > 0:
                raise AdmissibilityError(f"no sign change for root {sign} at n={n}")
            for _ in range(200):
                lam = 0.5 * (lo + hi)
                if h(lo) * h(lam) <= 0:
                    hi = lam
                else:
                    lo = lam
                if hi - lo < tol:
                    break
        if abs(lam - n ** 2) > radius + 1e-9 and ctx0.certified:
            raise AdmissibilityError(
                f"root {lam:.6f} escaped D_n (radius {radius:.3f}); "
                "the computed tilde_C_s underestimates the constant")
        a, c = entries(lam)
        if abs(c) > 1e-14:
            u_pm = np.array([np.conj(c), sign * abs(c)]) / (np.sqrt(2.0) * abs(c))
        else:
            u_pm = np.array([0.0, 1.0]) if sign > 0 else np.array([1.0, 0.0])
        J = ctx0.J
        u_vec = np.zeros(2 * J + 1, dtype=complex)
        u_vec[J - n], u_vec[J + n] = u_pm[0], u_pm[1]
        v, _ = solve_q_equation(u_vec, ctx0.with_lam(lam), tol=1e-14)
        out.append((float(lam), u_vec + v))
    out.sort(key=lambda t: t[0])
    return out


def eigen_residual(lam: float, f: np.ndarray, q) -> float:
    """||L_q f - lam f||_0 / ||f||_0 on the truncation."""
    from .schrodinger import assemble_lq
    qc = _xcoeffs(q)
    J = (len(f) - 1) // 2
    M = assemble_lq(qc, J)
    r = M @ f - lam * f
    return float(np.linalg.norm(r) / np.linalg.norm(f))


def verify_localization(f, n: int, s: float, slack: float = 1e-8):
    """Worst ratio max_m |(f, e_m)| <|m| - n>^s; PASS iff <= 2 + slack.

    f is normalized to unit projection on span{e_{-n}, e_n} first.
    """
    c = np.array(_xcoeffs(f))
    J = (len(c) - 1) // 2
    pn = math.hypot(abs(c[J - n]), abs(c[J + n]))
    if pn > 0:
        c = c / pn
    ms = np.arange(-J, J + 1)
    w = np.maximum(1.0, np.abs(np.abs(ms) - n)).astype(float) ** s
    ratio = float(np.max(np.abs(c) * w))
    return ratio, ratio <= 2.0 + slack


def fit_exponential_decay(f, n: int):
    """Fitted sigma of |(f, e_m)| ~ C exp(-sigma |m - n|) (analytic q cross-check)."""
    c = np.abs(_xcoeffs(f))
    J = (len(c) - 1) // 2
    ds, vals = [], []
    for m in range(n + 1, J + 1):
        v = max(c[J + m], c[J - m])
        if v > 1e-14:
            ds.append(m - n)
            vals.append(math.log(v))
    if len(ds) < 3:
        return float("nan")
    return -float(np.polyfit(ds, vals, 1)[0])


# -- basis change ---------------------------------------------------------------


@dataclass
class BasisMatrix:
    """Change of basis psi_j <-> e_m: M[j, m] = (psi_j, e_m), unitary."""

    M: np.ndarray
    J: int
    K: np.ndarray          # conjugation matrix in eigen coordinates

    def block(self, n: int, m: int) -> np.ndarray:
        rows = block_slice(self.J, n)
        cols = block_slice(self.J, m)
        return self.M[np.ix_(rows, cols)]

    def unitarity_defect(self) -> float:
        G = self.M @ self.M.conj().T
        return float(np.max(np.abs(G - np.eye(2 * self.J + 1))))

    def s_norm(self, s: float) -> float:
        """|M|_{s;M}^2 = sum_h <h>^{2s} sup_{|n-m|=h} ||M_[n]^[m]||_HS^2."""
        hs2 = _hs_block_tensor(self.M, self.J)
        total = 0.0
        for h in range(self.J + 1):
            d = np.diagonal(hs2, offset=h)
            if h:
                d = np.concatenate([d, np.diagonal(hs2, offset=-h)])
            total += max(1.0, h) ** (2.0 * s) * float(np.max(d))
        return math.sqrt(total)

    def transpose_s_norm(self, s: float) -> float:
        hs2 = _hs_block_tensor(self.M.T, self.J)
        total = 0.0
        for h in range(self.J + 1):
            d = np.diagonal(hs2, offset=h)
            if h:
                d = np.concatenate([d, np.diagonal(hs2, offset=-h)])
            total += max(1.0, h) ** (2.0 * s) * float(np.max(d))
        return math.sqrt(total)

    def norm_table(self, s_values) -> dict:
        return {f"s={s:g}": self.s_norm(s) for s in s_values}


def build_basis_matrix(sd: SpectralData) -> BasisMatrix:
    """Blocks (psi_{+-n}, e_{+-m}) from the spectral data."""
    return BasisMatrix(M=sd.psi.T.copy(), J=sd.J, K=sd.conjugation_matrix())


def change_basis(A: BlockOperator, basis: BasisMatrix,
                 direction: str = "to_eigen") -> BlockOperator:
    """Conjugate a BlockOperator between the exponential and eigen bases.

    to_eigen: A_eig(l) = conj(M) A_exp(l) M^T (so that matrix action agrees
    with operator action in eigen coordinates); to_exp is the inverse.
    """
    if A.lattice.J != basis.J:
        raise ValueError("cutoff mismatch between operator and basis matrix")
    Mc = np.conj(basis.M)
    if direction == "to_eigen":
        mats = {ell: Mc @ m @ basis.M.T for ell, m in A.mats.items()}
        return BlockOperator(A.lattice, mats, K=basis.K)
    mats = {ell: basis.M.T @ m @ Mc for ell, m in A.mats.items()}
    from .opmatrix import flip_conjugation
    return BlockOperator(A.lattice, mats, K=flip_conjugation(A.lattice.J))


def eigen_coords(basis: BasisMatrix, xcoeffs: np.ndarray) -> np.ndarray:
    return np.conj(basis.M) @ xcoeffs


def embed_psdo_pair(Ad_sym, Ao_sym, basis: BasisMatrix, s: float,
                    alpha: float, beta: float, structure_tol: float = 1e-6,
                    s0: float | None = None):
    """Quantize a symbol pair, move to the eigenbasis, certify M_s(alpha, beta).

    Returns (OperatorPair in the eigenbasis, norm bundle dict).  The inputs
    must satisfy [A^d]* = A^d and [A^o]* = conj(A^o) up to structure_tol
    (relative), which is checked on the quantized matrices.
    """
    from .opmatrix import OperatorPair, _pair_norm_terms, pair_norm, s_decay_norm
    from .psdo import quantize

    Ad = quantize(Ad_sym) if not isinstance(Ad_sym, BlockOperator) else Ad_sym
    Ao = quantize(Ao_sym) if not isinstance(Ao_sym, BlockOperator) else Ao_sym
    scale = max(Ad.norm_max(), Ao.norm_max(), 1e-300)
    dd = (Ad.adjoint() - Ad).norm_max()
    oo = (Ao.adjoint() - Ao.conj_op()).norm_max()
    if max(dd, oo) > structure_tol * scale:
        raise ValueError(f"structure check failed: defects {dd:.2e}, {oo:.2e} "
                         f"vs scale {scale:.2e}")
    Ad_e = change_basis(Ad, basis)
    Ao_e = change_basis(Ao, basis)
    pair = OperatorPair(Ad_e, Ao_e, alpha, beta)
    bundle = {"s": s, "alpha": alpha, "beta": beta,
              "pair_norm": pair_norm(pair, s, alpha, beta),
              "structure_defect": max(dd, oo)}
    for i, (left, right, comp) in enumerate(_pair_norm_terms(alpha, beta)):
        op = pair.Ad if comp == "d" else pair.Ao
        bundle[f"term{i}:{comp}:D^{left:g}.A.D^{right:g}"] = s_decay_norm(
            op.weight(left, right), s)
    if s0 is not None:
        bundle["pair_norm_s0"] = pair_norm(pair, s0, alpha, beta)
    return pair, bundle

