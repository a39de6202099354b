"""Magnus normal form for the fast-driven wave system.

The driven Hamiltonian H(t) = B sigma3 + W(omega t) sigma4, with
W = (1/2) B^{-1/2} V B^{-1/2}, is conjugated by e^{-i Y(omega t) sigma4} where
Y solves the homological equation Ydot = W.  Because sigma4^2 = 0 the Magnus
remainder vanishes identically and the transformed perturbation is exactly

    V^d = i[Y, B] + 2 Y B Y   (order -1),
    V^o = -i(YB + BY) + 2 Y B Y   (order 0),

both of size O(1/(gamma0 M)) thanks to the small divisors |omega . l| >=
gamma0 M <l>^{-tau0}.  The generator is defined for every omega in the
annulus via the smooth cutoff chi(omega . l / rho_l), which equals 1 on all
active modes whenever omega is Diophantine.

Two parallel routes are produced: symbols (compose at N = 3; feeds the
weighted-norm scaling laws) and exact matrices against the spectral B (feeds
the KAM iteration, where structure identities must hold to machine
precision).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .harmonics import Lattice, TorusFunction, toeplitz
from .opmatrix import BlockOperator, OperatorPair
from .psdo import (ContourSpec, Cutoff, DEFAULT_CUTOFF, EllipticSymbol, Symbol,
                   complex_power, compose, weighted_norm)
from .schrodinger import SpectralData, spectral_power


def sample_annulus(rng, M: float, nu: int, n: int) -> np.ndarray:
    """n uniform samples from the annulus; radial density r^{nu-1}."""
    u = rng.random(n)
    r = M * (1.0 + (2.0 ** nu - 1.0) * u) ** (1.0 / nu)
    if nu == 1:
        signs = rng.choice([-1.0, 1.0], size=n)
        return (r * signs)[:, None]
    dirs = rng.standard_normal((n, nu))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return r[:, None] * dirs


def nonzero_ell_box(nu: int, L: int):
    from .harmonics import _ell_range
    ells = _ell_range(nu, L)
    return ells[np.any(ells != 0, axis=1)]


def diophantine_test(omega, M: float, gamma0: float, tau0: float, L: int):
    """(passes, worst ratio): min over 0 < |l| <= L of |omega.l| <l>^{tau0}/(gamma0 M)."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    ells = nonzero_ell_box(len(omega), L)
    dots = np.abs(ells @ omega)
    brackets = np.maximum(1.0, np.linalg.norm(ells, axis=1))
    ratios = dots * brackets ** tau0 / (gamma0 * M)
    worst = float(np.min(ratios))
    return worst >= 1.0, worst


def divisor_factors(omega, M: float, gamma0: float, tau0: float, nu: int, L: int,
                    cutoff: Cutoff = DEFAULT_CUTOFF) -> np.ndarray:
    """chi(omega.l / rho_l) / (i omega.l) on the angle-mode box (0 at l = 0)."""
    from .harmonics import _ell_range
    ells = _ell_range(nu, L)
    out = np.zeros((2 * L + 1,) * nu, dtype=complex)
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    for row in ells:
        if not np.any(row):
            continue
        dot = float(row @ omega)
        rho = gamma0 * M * max(1.0, float(np.linalg.norm(row))) ** (-tau0)
        c = cutoff(dot / rho)
        idx = tuple(int(v) + L for v in row)
        out[idx] = c / (1j * dot) if c != 0.0 else 0.0
    return out


class NonZeroAverageError(ValueError):
    pass


def magnus_generator(w: Symbol, omega, M: float, gamma0: float, tau0: float,
                     cutoff: Cutoff = DEFAULT_CUTOFF) -> Symbol:
    """Y symbol: p_hat(l) = chi(omega.l/rho_l) w_hat(l) / (i omega.l).

    Requires zero angle average (w_hat(0, ., .) = 0).  When omega is
    Diophantine for (gamma0, tau0) the cutoff is identically 1 on all active
    modes and Y solves Ydot = W exactly on the truncation.
    """
    lat = w.lattice
    div = divisor_factors(omega, M, gamma0, tau0, lat.nu, lat.L, cutoff)

    def rule(xi, beta):
        v = w.raw(xi, beta)
        if v.shape[:-1] == (1,) * lat.nu:
            # phi-independent input: only legal if identically zero
            if np.max(np.abs(v)) > 1e-14:
                raise NonZeroAverageError("generator input must have zero angle average")
            return v * 0.0
        zero_slice = v[(lat.L,) * lat.nu]
        if np.max(np.abs(zero_slice)) > 1e-12 * max(1.0, np.max(np.abs(v))):
            raise NonZeroAverageError("generator input must have zero angle average")
        return v * div[..., None]
    return Symbol(lat, w.order, rule, w.deriv_depth, w.xi_max, "composed")


def apply_divisors(W: BlockOperator, omega, M: float, gamma0: float, tau0: float,
                   cutoff: Cutoff = DEFAULT_CUTOFF) -> BlockOperator:
    """Matrix-route generator: Y(l) = chi/(i omega.l) W(l), Y(0) = 0."""
    lat = W.lattice
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if np.max(np.abs(W.mat((0,) * lat.nu))) > 1e-12 * max(1.0, W.norm_max()):
        raise NonZeroAverageError("W must have zero angle average")
    dot = lat.ell_range() @ omega
    rho = gamma0 * M * np.maximum(1.0, lat.ell_norms()) ** (-tau0)
    c = cutoff(dot / rho)           # 0 wherever |omega.l| <= rho/3, l = 0 included
    on = c != 0.0
    factor = np.where(on, -1j * (c / np.where(on, dot, 1.0)), 0.0)
    return BlockOperator(lat, factor[:, None, None] * W.mats, W.K)


def multiplication_operator(v: TorusFunction) -> BlockOperator:
    """The operator u -> v u as matrix-valued angle coefficients (Toeplitz in x)."""
    lat = v.lattice
    return BlockOperator(lat, toeplitz(v.coeffs.reshape(-1, 2 * lat.J + 1)))


@dataclass
class MagnusOutput:
    """Generator and transformed perturbation, symbol and matrix routes."""

    Y: Symbol
    Vd: Symbol
    Vo: Symbol
    Y_mat: BlockOperator
    Vd_mat: BlockOperator
    Vo_mat: BlockOperator
    B_mat: np.ndarray
    W_mat: BlockOperator
    omega: np.ndarray
    M: float
    gamma0: float
    tau0: float
    norms: dict = field(default_factory=dict)

    def structure_defects(self) -> dict:
        Y, Vd, Vo = self.Y_mat, self.Vd_mat, self.Vo_mat
        return {
            "Y_selfadjoint": (Y.adjoint() - Y).norm_max(),
            "Y_real": (Y.conj_op() - Y).norm_max(),
            "Vd_selfadjoint": (Vd.adjoint() - Vd).norm_max(),
            "Vo_conj_selfadjoint": (Vo.adjoint() - Vo.conj_op()).norm_max(),
        }


def build_power_symbols(q_xcoeffs, lattice: Lattice, sd: SpectralData,
                        N: int = 4, n_quad: int = 280, deriv_depth: int = 3,
                        compose_N: int = 3):
    """(B, B^{-1/2}) as symbols for the elliptic xi^2 + q."""
    ell = EllipticSymbol.xi2_plus_q(lattice, q_xcoeffs)
    rho = 0.45 * float(np.min(sd.mu_sq))
    cont = ContourSpec(rho=rho, R=rho * math.exp(200.0), n_quad=n_quad)
    B = complex_power(ell, 0.5, N=N, contour=cont, deriv_depth=deriv_depth,
                      compose_N=compose_N)
    Bmh = complex_power(ell, -0.25, N=N, contour=cont, deriv_depth=deriv_depth + 6)
    return B, Bmh


def magnus_transform(q_xcoeffs, v: TorusFunction, omega, M: float,
                     gamma0: float, tau0: float, sd: SpectralData,
                     power_symbols=None, compose_N: int = 3,
                     with_symbols: bool = True,
                     norm_s: float | None = None, norm_delta: int = 0) -> MagnusOutput:
    """Full Magnus step for the driven system with potential v(phi, x).

    q enters through its spectral data sd (matrix route, exact) and its
    elliptic symbol (symbol route).  The returned V^d, V^o satisfy the
    structure identities exactly on the matrix route.
    """
    lat = v.lattice
    avg = v.x_slice()
    if np.max(np.abs(avg)) > 1e-12 * max(1.0, np.max(np.abs(v.coeffs))):
        raise NonZeroAverageError("v must have zero average in the angles")

    # matrix route, exact against the spectral functional calculus
    B = spectral_power(sd, 0.5)
    Bmh = spectral_power(sd, -0.25)
    Vmult = multiplication_operator(v)
    W = BlockOperator(lat, 0.5 * (Bmh @ Vmult.mats @ Bmh))
    Ym = apply_divisors(W, omega, M, gamma0, tau0)
    Bop = BlockOperator.time_independent(lat, B)
    YB = Ym @ Bop
    BY = Bop @ Ym
    YBY = YB @ Ym
    Vd_m = 1j * (YB - BY) + 2.0 * YBY
    Vo_m = -1j * (YB + BY) + 2.0 * YBY

    out = MagnusOutput(Y=None, Vd=None, Vo=None, Y_mat=Ym, Vd_mat=Vd_m,
                       Vo_mat=Vo_m, B_mat=B, W_mat=W,
                       omega=np.atleast_1d(np.asarray(omega, float)),
                       M=M, gamma0=gamma0, tau0=tau0)

    if with_symbols:
        if power_symbols is None:
            power_symbols = build_power_symbols(q_xcoeffs, lat, sd,
                                                compose_N=compose_N)
        B_sym, Bmh_sym = power_symbols
        v_sym = Symbol.torus_multiplication(lat, v)
        w_sym = 0.5 * compose(compose(Bmh_sym, v_sym, compose_N), Bmh_sym, compose_N)
        w_sym = Symbol(lat, -1.0, w_sym._rule, w_sym.deriv_depth, w_sym.xi_max)
        Y_sym = magnus_generator(w_sym, omega, M, gamma0, tau0)
        YB_s = compose(Y_sym, B_sym, compose_N)
        BY_s = compose(B_sym, Y_sym, compose_N)
        YBY_s = compose(YB_s, Y_sym, compose_N)
        Vd_s = 1j * (YB_s - BY_s) + 2.0 * YBY_s
        Vo_s = (-1j) * (YB_s + BY_s) + 2.0 * YBY_s
        out.Y = Y_sym
        out.Vd = Symbol(lat, -1.0, Vd_s._rule, Vd_s.deriv_depth, Vd_s.xi_max, "composed")
        out.Vo = Symbol(lat, 0.0, Vo_s._rule, Vo_s.deriv_depth, Vo_s.xi_max, "composed")
        if norm_s is not None:
            out.norms = {
                "Y(-1)": weighted_norm(out.Y, -1.0, norm_s, norm_delta),
                "Vd(-1)": weighted_norm(out.Vd, -1.0, norm_s, norm_delta),
                "Vo(0)": weighted_norm(out.Vo, 0.0, norm_s, norm_delta),
            }
    return out


def homological_residual(out: MagnusOutput) -> float:
    """max_l |i (omega.l) Y(l) - W(l)| over active modes (0 where cutoff acted)."""
    Y, W = out.Y_mat.mats, out.W_mat.mats
    dot = out.Y_mat.lattice.ell_range() @ out.omega
    # modes where the cutoff acted (Y = 0, also at l = 0) are not part of the
    # raw equation
    active = np.max(np.abs(Y), axis=(1, 2)) > 0.0
    if not active.any():
        return 0.0
    return float(np.max(np.abs((1j * dot[active])[:, None, None] * Y[active] - W[active])))


def adjoint_chain_check(out: MagnusOutput) -> dict:
    """sigma4-algebra consequences on the matrix route.

    ad^2_Y(H0) = 4 YBY sigma4 and ad^3_Y(H0) = 0, verified with the operator
    pair machinery (exact identities, machine precision).
    """
    from .opmatrix import ad
    lat = out.Y_mat.lattice
    Ypair = OperatorPair(out.Y_mat, out.Y_mat, 0.0, 0.0)
    H0pair = OperatorPair(BlockOperator.time_independent(lat, out.B_mat),
                          BlockOperator.zero(lat), 0.0, 0.0)
    ad1 = ad(Ypair, H0pair)
    ad2 = ad(Ypair, ad1)
    ad3 = ad(Ypair, ad2)
    YBY = (out.Y_mat @ BlockOperator.time_independent(lat, out.B_mat)) @ out.Y_mat
    defect2_d = (ad2.Ad - 4.0 * YBY).norm_max()
    defect2_o = (ad2.Ao - 4.0 * YBY).norm_max()
    return {"ad2_d": defect2_d, "ad2_o": defect2_o, "ad3": ad3.norm_max(),
            "scale": max(1e-300, YBY.norm_max())}
