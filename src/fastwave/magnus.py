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

Everything is computed as exact matrices against the spectral B, so that the
structure identities the KAM iteration relies on hold to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .harmonics import TorusFunction, toeplitz
from .opmatrix import BlockOperator, _from_phi_grid, _phi_grid
from .psdo import DEFAULT_CUTOFF
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


class NonZeroAverageError(ValueError):
    pass


def apply_divisors(W: BlockOperator, omega, M: float, gamma0: float,
                   tau0: float) -> BlockOperator:
    """The generator Y(l) = chi(omega.l / rho_l)/(i omega.l) W(l), Y(0) = 0."""
    lat = W.lattice
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if np.max(np.abs(W.mat((0,) * lat.nu))) > 1e-12 * max(1.0, W.norm_max()):
        raise NonZeroAverageError("W must have zero angle average")
    dot = lat.ell_range() @ omega
    rho = gamma0 * M * np.maximum(1.0, lat.ell_norms()) ** (-tau0)
    c = DEFAULT_CUTOFF(dot / rho)   # 0 wherever |omega.l| <= rho/3, l = 0 included
    on = c != 0.0
    factor = np.where(on, -1j * (c / np.where(on, dot, 1.0)), 0.0)
    return BlockOperator(lat, factor[:, None, None] * W.mats, W.K)


def multiplication_operator(v: TorusFunction) -> BlockOperator:
    """The operator u -> v u as matrix-valued angle coefficients (Toeplitz in x)."""
    lat = v.lattice
    return BlockOperator(lat, toeplitz(v.coeffs.reshape(-1, 2 * lat.J + 1)))


@dataclass
class MagnusOutput:
    """Generator and transformed perturbation."""

    Y_mat: BlockOperator
    V: BlockOperator                  # the pair stack (V^d, V^o)
    B_mat: np.ndarray
    W_mat: BlockOperator
    omega: np.ndarray
    M: float

    def structure_defects(self) -> dict:
        Y, (Vd, Vo) = self.Y_mat, self.V
        return {
            "Y_selfadjoint": (Y.adjoint() - Y).norm_max(),
            "Y_real": (Y.conj_op() - Y).norm_max(),
            "Vd_selfadjoint": (Vd.adjoint() - Vd).norm_max(),
            "Vo_conj_selfadjoint": (Vo.adjoint() - Vo.conj_op()).norm_max(),
        }


def magnus_transform(q_xcoeffs, v: TorusFunction, omega, M: float,
                     gamma0: float, tau0: float, sd: SpectralData, *,
                     with_symbols: bool = False) -> MagnusOutput:
    """Full Magnus step for the driven system with potential v(phi, x).

    q enters through its spectral data sd; the returned V^d, V^o satisfy the
    structure identities exactly.
    """
    # q_xcoeffs and with_symbols are unused; they stay only because the
    # benchmark scripts pass q positionally and turn with_symbols off
    if with_symbols:
        raise ValueError("the symbol route of the Magnus step has been removed")
    lat = v.lattice
    avg = v.x_slice()
    if np.max(np.abs(avg)) > 1e-12 * max(1.0, np.max(np.abs(v.coeffs))):
        raise NonZeroAverageError("v must have zero average in the angles")

    B = spectral_power(sd, 0.5)
    Bmh = spectral_power(sd, -0.25)
    Vmult = multiplication_operator(v)
    W = BlockOperator(lat, 0.5 * (Bmh @ Vmult.mats @ Bmh))
    Ym = apply_divisors(W, omega, M, gamma0, tau0)
    # the products on the phi-grid, each grid built once: Y's and B's give YB
    # and BY, YB's and Y's give YBY
    G = _phi_grid(lat, np.stack((Ym.mats, BlockOperator.time_independent(lat, B).mats)))
    YB, BY = _from_phi_grid(lat, np.matmul(G, G[::-1]), Ym.K).mats
    YBY = _from_phi_grid(lat, _phi_grid(lat, YB) @ G[0], Ym.K).mats
    V = np.stack([1j * (YB - BY), -1j * (YB + BY)]) + 2.0 * YBY
    return MagnusOutput(Y_mat=Ym, V=BlockOperator(lat, V, Ym.K), B_mat=B, W_mat=W,
                        omega=np.atleast_1d(np.asarray(omega, float)),
                        M=M)


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
    pair machinery (exact identities, machine precision): Y sigma4 is the
    pair (Y, Y), H0 = B sigma3 the pair (B, 0).
    """
    from .opmatrix import ad
    Y, B = out.Y_mat, out.B_mat
    lat = Y.lattice
    Ypair = BlockOperator(lat, np.stack([Y.mats, Y.mats]), Y.K)
    H0pair = BlockOperator.time_independent(lat, np.stack([B, np.zeros_like(B)]))
    ad2 = ad(Ypair, ad(Ypair, H0pair))
    ad3 = ad(Ypair, ad2)
    YBY = (Y @ BlockOperator.time_independent(lat, B)) @ Y
    defect2_d, defect2_o = ((A - 4.0 * YBY).norm_max() for A in ad2)
    return {"ad2_d": defect2_d, "ad2_o": defect2_o, "ad3": ad3.norm_max(),
            "scale": max(1e-300, YBY.norm_max())}
