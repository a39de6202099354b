"""Quadratic block-KAM iteration with balanced Melnikov conditions.

Starting from the Magnus output H = H0 + V^(0), each step solves the
blockwise homological equations

    i G^-_{l,n,n'} X^d(l) = V^d(l) - Z,    i G^+_{l,n,n'} X^o(l) = V^o(l),
    G^{+-} = omega.l Id + M_L(H0_[n]) +- M_R(H0_[n']),

on the angle modes |l| <= N_p (N_p = N0^{(3/2)^p}), conjugates by e^{iX},
absorbs the time-independent diagonal Z into the new normal form, and leaves
a quadratically smaller remainder.  Divisors are protected by the balanced
conditions |omega.l + mu_n +- mu_n'| >= (gamma/<l>^tau) <n +- n'>^alpha / M^alpha,
and the solution is extended to every omega by the smooth cutoff
chi(mingap/rho), which is identically 1 on the non-resonant set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .harmonics import Lattice
from .opmatrix import (BlockOperator, OperatorPair, ad, block_slice,
                       left_right_ops, pair_norm, project_modes, s_decay_norm)
from .psdo import Cutoff, DEFAULT_CUTOFF
from .calibration import CONSTANTS


class SmallnessError(RuntimeError):
    pass


@dataclass
class KamParameters:
    """Schedule and size constants of the iteration."""

    tau: float
    gamma: float
    alpha: float
    N0: int = 16
    tau0: float = 1.0
    gamma0: float = 0.1
    chi: float = 1.5
    p_max: int = 8
    cutoff: Cutoff = field(default_factory=lambda: DEFAULT_CUTOFF)

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")

    @property
    def rho(self) -> float:
        return 6.0 * self.tau + 4.0

    @property
    def beta(self) -> float:
        return self.rho + 1.0

    @property
    def Lambda(self) -> float:
        return 2.0 * self.tau + 2.0 + self.rho

    def N(self, p: int) -> float:
        if p < 0:
            return 1.0
        return float(self.N0) ** (self.chi ** p)

    def weight(self, M: float) -> float:
        """The Lipschitz weight gamma / M^alpha."""
        return self.gamma / M ** self.alpha

    def tau_constraint_ok(self, nu: int) -> bool:
        return self.tau > nu - 1 + self.alpha + self.tau0 / self.alpha


@dataclass
class KamState:
    """Iteration state: block normal form, remainder pair, history."""

    p: int
    H0: dict                      # n -> self-adjoint block (#[n] x #[n])
    V: OperatorPair               # remainder, class (alpha, 0)
    omega: np.ndarray
    M: float
    params: KamParameters
    lattice: Lattice
    s0: float
    history: list = field(default_factory=list)
    lam_ref: np.ndarray | None = None     # unperturbed lambda_j for drift reports

    def H0_block(self, n: int) -> np.ndarray:
        return self.H0[n]

    def H0_matrix(self) -> np.ndarray:
        D = 2 * self.lattice.J + 1
        out = np.zeros((D, D), dtype=complex)
        for n, blk in self.H0.items():
            rows = block_slice(self.lattice.J, n)
            out[np.ix_(rows, rows)] = blk
        return out

    def selfadjoint_defect(self) -> float:
        return max(float(np.max(np.abs(b - b.conj().T))) for b in self.H0.values())

    def block_eigs(self):
        """(mu[n] arrays, U[n] unitaries) per block."""
        mu, U = {}, {}
        for n, blk in self.H0.items():
            w, v = np.linalg.eigh(0.5 * (blk + blk.conj().T))
            mu[n], U[n] = w, v
        return mu, U

    def delta(self, s: float) -> float:
        return pair_norm(self.V, s, self.V.alpha, 0.0)


def init_state(magnus_out, sd, basis, params: KamParameters, lattice: Lattice,
               s0: float | None = None, track_norms: bool = True) -> KamState:
    """Initial normal form diag(lambda_[n]) plus the embedded remainder."""
    from .craig_wayne import change_basis
    if not sd.positive:
        raise SmallnessError("KAM initialization needs a positive spectrum")
    J = sd.J
    H0 = {0: np.array([[sd.lam[sd.idx(0)]]], dtype=complex)}
    for n in range(1, J + 1):
        H0[n] = np.diag([sd.lam[sd.idx(-n)], sd.lam[sd.idx(n)]]).astype(complex)
    Vd = change_basis(magnus_out.Vd_mat, basis)
    Vo = change_basis(magnus_out.Vo_mat, basis)
    scale = max(Vd.norm_max(), Vo.norm_max())
    # drop pure floating-point noise: it would otherwise dominate the
    # high-index norms under the <l,h>^{2(s0+beta)} weights
    V = OperatorPair(Vd.prune(1e-14 * scale), Vo.prune(1e-14 * scale),
                     params.alpha, 0.0)
    s0 = float(lattice.s0 if s0 is None else s0)
    state = KamState(p=0, H0=H0, V=V, omega=magnus_out.omega, M=magnus_out.M,
                     params=params, lattice=lattice, s0=s0,
                     lam_ref=sd.lam.copy())
    if track_norms:
        state.history.append(_history_row(state, X_norm=0.0))
    else:
        state.history.append({"p": 0, "N_p": params.N(0),
                              "delta_s0": state.V.norm_max(),
                              "delta_s0_beta": float("nan"), "X_norm": 0.0,
                              "H0_selfadjoint_defect": float("nan")})
    return state


def _history_row(state: KamState, X_norm: float) -> dict:
    pr = state.params
    return {
        "p": state.p,
        "N_p": pr.N(state.p),
        "delta_s0": state.delta(state.s0),
        "delta_s0_beta": state.delta(state.s0 + pr.beta),
        "X_norm": X_norm,
        "H0_selfadjoint_defect": state.selfadjoint_defect(),
    }


def smallness_check(state: KamState):
    """(ok, margin) of C_{s0} N0^Lambda (M^alpha/gamma) delta^(0)_{s0+beta} <= 1."""
    pr = state.params
    C = CONSTANTS["kam_smallness_C_s0"]
    delta0 = state.history[0]["delta_s0_beta"]
    lhs = C * pr.N0 ** pr.Lambda * (state.M ** pr.alpha / pr.gamma) * delta0
    if lhs == 0.0:
        return True, float("inf")
    return lhs <= 1.0, 1.0 / lhs


def build_G(state: KamState, ell, n: int, n_in: int, sign: int) -> np.ndarray:
    """omega.l Id + M_L(H0_[n]) +- M_R(H0_[n']) on the (n, n') block space."""
    ML, MR = left_right_ops(state.H0[n], state.H0[n_in])
    dot = float(np.dot(np.atleast_1d(ell), state.omega))
    return dot * np.eye(ML.shape[0]) + ML + float(sign) * MR


def melnikov_threshold(pr: KamParameters, M: float, Nval: float, n: int,
                       n_in: int, sign: int) -> float:
    """Required min gap (gamma/2N^tau) <n +- n'>^alpha / M^alpha."""
    combo = max(1, abs(n + n_in) if sign > 0 else abs(n - n_in))
    return (pr.gamma / (2.0 * Nval ** pr.tau)) * combo ** pr.alpha / M ** pr.alpha


def prune_C1(state: KamState) -> float:
    """C1 of the emptiness pruning: blocks with |n +- n'| > C1 M <l> auto-pass."""
    m_sq = CONSTANTS.get("m_sq_bound", 3.0)
    drift = CONSTANTS["kam_drift_C"] / (state.params.gamma0 * state.M)
    return 2.0 * math.sqrt(state.lattice.nu) + (2.0 * m_sq + 2.0 * drift + 1.0) / state.M


def melnikov_step_test(state: KamState, Nval: float | None = None):
    """Scan all (l, n, n') with |l| <= N_{p-1}: is every divisor large enough?

    Returns (ok, worst offender dict).  The Lemma-5.15 pruning |n +- n'| >
    C1 M <l> is applied first (auto-pass) and its savings counted.
    """
    pr = state.params
    Nval = pr.N(state.p - 1) if Nval is None else Nval
    mu, _ = state.block_eigs()
    J = state.lattice.J
    mus = [mu[n] for n in range(J + 1)]
    C1M = prune_C1(state) * state.M
    from .harmonics import _ell_range
    ells = _ell_range(state.lattice.nu, state.lattice.L)
    worst = {"margin": float("inf")}
    pruned = checked = 0
    for row in ells:
        ln = float(np.linalg.norm(row))
        if ln > Nval:
            continue
        dot = float(row @ state.omega)
        for sign in (+1, -1):
            for n in range(J + 1):
                for n_in in range(J + 1):
                    if sign < 0 and ln == 0.0 and n == n_in:
                        continue          # excluded from the minus index set
                    combo = abs(n + n_in) if sign > 0 else abs(n - n_in)
                    if combo > C1M * max(1.0, ln):
                        pruned += 1
                        continue
                    checked += 1
                    gaps = np.abs(dot + np.add.outer(mus[n], sign * mus[n_in]))
                    thr = melnikov_threshold(pr, state.M, Nval, n, n_in, sign)
                    margin = float(np.min(gaps)) / thr
                    if margin < worst["margin"]:
                        worst = {"margin": margin, "ell": tuple(int(c) for c in row),
                                 "n": n, "n_in": n_in, "sign": sign,
                                 "gap": float(np.min(gaps)), "threshold": thr}
    worst["pruned"] = pruned
    worst["checked"] = checked
    return worst["margin"] >= 1.0, worst


def solve_homological(state: KamState, Nval: float | None = None) -> OperatorPair:
    """The generator X^(p) from the blockwise homological equations.

    X^d on the minus index set (zero at the excluded (0, n, n) diagonal),
    X^o everywhere, both restricted to |l| <= N_p and multiplied by the
    cutoff chi(mingap/rho) that extends the solution to all omega.  All kept
    modes and blocks are solved in one pass: with U the block-diagonal
    eigenframe of H0 (eigenvalues mu), each mode's V(l) becomes U^H V U, whose
    (i, j) entry is divided by omega.l + mu_i +- mu_j; mingap is the smallest
    |divisor| of each (n, n') block, folded from the four sign quadrants as
    in the block HS tensor, and chi(mingap/rho) scales the whole block.
    """
    pr = state.params
    Nval = pr.N(state.p) if Nval is None else Nval
    modes = list(_v_components(state, Nval))
    lat = state.lattice
    K = state.V.Ad.K
    if not modes:
        return OperatorPair(BlockOperator.zero(lat, K), BlockOperator.zero(lat, K),
                            pr.alpha, pr.alpha)
    J = lat.J
    mu, U = state.block_eigs()
    Uf = np.zeros((2 * J + 1, 2 * J + 1), dtype=complex)
    muf = np.zeros(2 * J + 1)
    for n in range(J + 1):
        idx = block_slice(J, n)
        Uf[np.ix_(idx, idx)] = U[n]
        muf[idx] = mu[n]
    nb = np.abs(np.arange(-J, J + 1))          # block of each space index

    ells = np.array([ell for ell, _, _ in modes], dtype=float)
    comp_d = np.array([comp == "d" for _, comp, _ in modes])
    sign = np.where(comp_d, -1.0, 1.0)[:, None, None]
    dot = (ells @ state.omega)[:, None, None]
    ln = np.linalg.norm(ells, axis=1)
    div = dot + muf[None, :, None] + sign * muf[None, None, :]
    gap = np.abs(div)
    mingap = np.minimum(np.minimum(gap[:, J:, J:], gap[:, J:, J::-1]),
                        np.minimum(gap[:, J::-1, J:], gap[:, J::-1, J::-1]))
    ns = np.arange(J + 1)
    combo = np.maximum(1, np.where(sign > 0, np.add.outer(ns, ns),
                                   np.abs(np.subtract.outer(ns, ns))))
    rho = (0.5 * pr.gamma / state.M ** pr.alpha * combo ** pr.alpha
           / np.maximum(1.0, ln)[:, None, None] ** pr.tau)
    factor = pr.cutoff(np.minimum(mingap / rho, 1.0))
    # excluded (0, n, n) indices of X^d: absorbed into Z
    excluded = (comp_d & (ln == 0.0))[:, None]
    factor[:, ns, ns] = np.where(excluded, 0.0, factor[:, ns, ns])
    div[div == 0.0] = 1.0             # zeros only where factor = 0
    T = Uf.conj().T @ np.stack([m for _, _, m in modes]) @ Uf
    T /= div
    T *= -1j * factor[:, nb][:, :, nb]
    X = Uf @ T @ Uf.conj().T

    Xd_mats, Xo_mats = {}, {}
    for (ell, comp, _), x in zip(modes, X):
        if np.any(x):
            (Xd_mats if comp == "d" else Xo_mats)[ell] = x
    return OperatorPair(BlockOperator(lat, Xd_mats, K),
                        BlockOperator(lat, Xo_mats, K), pr.alpha, pr.alpha)


def _v_components(state: KamState, Nval: float):
    for ell, m in state.V.Ad.mats.items():
        if float(np.linalg.norm(ell)) <= Nval:
            yield ell, "d", m
    for ell, m in state.V.Ao.mats.items():
        if float(np.linalg.norm(ell)) <= Nval:
            yield ell, "o", m


def diagonal_correction(state: KamState) -> dict:
    """Z^(p): the l = 0 block-diagonal part of V^d."""
    J = state.lattice.J
    V0 = state.V.Ad.mat((0,) * state.lattice.nu)
    Z = {}
    for n in range(J + 1):
        rows = block_slice(J, n)
        Z[n] = np.array(V0[np.ix_(rows, rows)])
    return Z


def homological_residual(state: KamState, X: OperatorPair,
                         Nval: float | None = None) -> float:
    """max block residual of i[X, H0] - omega.dphi X + Pi_N V - Z (cutoff-free blocks)."""
    pr = state.params
    Nval = pr.N(state.p) if Nval is None else Nval
    lat = state.lattice
    H0pair = OperatorPair(BlockOperator.time_independent(lat, state.H0_matrix(),
                                                         K=state.V.Ad.K),
                          BlockOperator.zero(lat, K=state.V.Ad.K), pr.alpha, 0.0)
    lhs = ad(X, H0pair) - X.omega_dphi(state.omega)
    VN, _ = state.V.project(Nval)
    Z = diagonal_correction(state)
    Zmat = np.zeros_like(state.H0_matrix())
    for n, blk in Z.items():
        rows = block_slice(lat.J, n)
        Zmat[np.ix_(rows, rows)] = blk
    rhs_d = BlockOperator.time_independent(lat, Zmat, K=state.V.Ad.K) - VN.Ad
    rhs_o = BlockOperator.zero(lat, K=state.V.Ad.K) - VN.Ao
    res_d = (lhs.Ad - rhs_d).norm_max()
    res_o = (lhs.Ao - rhs_o).norm_max()
    return max(res_d, res_o)


def kam_step(state: KamState, lie_tol: float = 1e-15,
             track_norms: bool = True) -> tuple:
    """One reducibility step: returns (new state, X^(p))."""
    pr = state.params
    Np = pr.N(state.p)
    X = solve_homological(state, Np)
    lat = state.lattice
    K = state.V.Ad.K

    Z = diagonal_correction(state)
    H0_new = {n: state.H0[n] + 0.5 * (Z[n] + Z[n].conj().T) for n in state.H0}
    # Z is Hermitian when the structure constraints hold; the symmetrization
    # only removes floating-point noise
    H0pair = OperatorPair(BlockOperator.time_independent(lat, state.H0_matrix(), K=K),
                          BlockOperator.zero(lat, K=K), pr.alpha, 0.0)
    _, VN_perp = state.V.project(Np)

    # V_{p+1} = Pi_N^perp V + sum_{k>=2} ad^k(H0)/k! + sum_{k>=1} ad^k(V)/k!
    #           - sum_{k>=1} ad^k(Xdot)/(k+1)!
    V_new = VN_perp
    term = ad(X, H0pair)
    scale = max(term.norm_max(), state.V.norm_max(), 1e-300)
    for k in range(2, 40):
        term = ad(X, term) * (1.0 / k)
        V_new = V_new + term
        if term.norm_max() < lie_tol * scale:
            break
    term = state.V
    for k in range(1, 40):
        term = ad(X, term) * (1.0 / k)
        V_new = V_new + term
        if term.norm_max() < lie_tol * scale:
            break
    Xdot = X.omega_dphi(state.omega)
    term = Xdot
    for k in range(1, 40):
        term = ad(X, term) * (1.0 / (k + 1))
        V_new = V_new - term
        if term.norm_max() < lie_tol * scale:
            break

    noise = 1e-14 * max(V_new.norm_max(), 1e-300)
    V_new = OperatorPair(V_new.Ad.prune(noise), V_new.Ao.prune(noise),
                         pr.alpha, 0.0)
    new = KamState(p=state.p + 1, H0=H0_new, V=V_new, omega=state.omega,
                   M=state.M, params=pr, lattice=lat, s0=state.s0,
                   history=list(state.history), lam_ref=state.lam_ref)
    if track_norms:
        new.history.append(_history_row(new, X_norm=pair_norm(X, state.s0,
                                                              pr.alpha, pr.alpha)))
    else:
        new.history.append({"p": new.p, "N_p": pr.N(new.p),
                            "delta_s0": new.V.norm_max(),
                            "delta_s0_beta": float("nan"), "X_norm": float("nan"),
                            "H0_selfadjoint_defect": float("nan")})
    return new, X


def nash_moser_check(state_prev: KamState, state_next: KamState) -> dict:
    """The two iterative inequalities with the frozen calibrated constants."""
    pr = state_prev.params
    s0, beta = state_prev.s0, pr.beta
    Np = pr.N(state_prev.p)
    fac = Np ** (2 * pr.tau + 1) * state_prev.M ** pr.alpha / pr.gamma
    d_s = state_prev.delta(s0)
    d_sb = state_prev.delta(s0 + beta)
    lhs1 = state_next.delta(s0)
    rhs1 = CONSTANTS["nash_moser_C1"] * (Np ** (-beta) * d_sb + fac * d_s * d_s)
    lhs2 = state_next.delta(s0 + beta)
    rhs2 = CONSTANTS["nash_moser_C2"] * (d_sb + fac * (d_sb * d_s + d_s * d_s))
    return {"low_ok": lhs1 <= rhs1, "high_ok": lhs2 <= rhs2,
            "lhs_low": lhs1, "rhs_low": rhs1, "lhs_high": lhs2, "rhs_high": rhs2}


def kam_iterate(state: KamState, p_max: int | None = None,
                delta_floor: float = 1e-14, collect_generators: bool = False,
                track_norms: bool = True):
    """Iterate to the block-diagonal normal form.

    Returns (final state, [X^(p)] if collected else None).  Aborts with the
    recorded history when the smallness margin is violated mid-run (divergent
    Lie series or growing remainder).
    """
    pr = state.params
    p_max = pr.p_max if p_max is None else p_max
    gens = [] if collect_generators else None
    delta0 = state.delta(state.s0) if track_norms else state.V.norm_max()
    prev_delta = delta0
    while state.p < p_max:
        if prev_delta < delta_floor:
            break
        state_next, X = kam_step(state, track_norms=track_norms)
        d = state_next.delta(state.s0) if track_norms else state_next.V.norm_max()
        if d > max(1.5 * prev_delta, 1e3 * delta_floor) and d > 1e-13:
            raise SmallnessError(
                f"remainder grew at p={state.p}: {prev_delta:.3e} -> {d:.3e}; "
                "smallness condition violated")
        if state_next.p >= 3 and d > 0.5 * delta0 and d > delta_floor:
            raise SmallnessError(
                f"iteration stalled: delta {d:.3e} vs initial {delta0:.3e} "
                f"after {state_next.p} steps")
        if gens is not None:
            gens.append(X)
        state = state_next
        prev_delta = d
    return state, gens


def generator_exponential(X: OperatorPair) -> np.ndarray:
    """Dense e^{iX} on the doubled extended lattice (oracle / Floquet use)."""
    import scipy.linalg
    return scipy.linalg.expm(1j * X.to_dense())


def transformation_product(gens, lattice: Lattice) -> np.ndarray:
    """W_p = e^{iX^(0)} ... e^{iX^(p-1)} as a dense matrix."""
    out = None
    for X in gens:
        E = generator_exponential(X)
        out = E if out is None else out @ E
    if out is None:
        from .harmonics import _ell_range
        n = len(_ell_range(lattice.nu, lattice.L)) * (2 * lattice.J + 1) * 2
        out = np.eye(n, dtype=complex)
    return out


def final_spectrum(state: KamState):
    """Per-block eigenvalues of the final normal form and their drift.

    Returns dict n -> (lam_minus, lam_plus, eps_minus, eps_plus) with eps
    measured against the unperturbed lambda_n, plus the weighted sup table.
    """
    J = state.lattice.J
    out = {}
    weighted = []
    for n in range(J + 1):
        mu = np.linalg.eigvalsh(0.5 * (state.H0[n] + state.H0[n].conj().T))
        lam_n = state.lam_ref[state_idx(state, n)] if state.lam_ref is not None else float("nan")
        if n == 0:
            eps = (float(mu[0] - lam_n),)
            out[n] = (float(mu[0]), float(mu[0]), eps[0], eps[0])
        else:
            lam_m = state.lam_ref[state_idx(state, -n)]
            e_minus = float(mu[0] - min(lam_n, lam_m))
            e_plus = float(mu[1] - max(lam_n, lam_m))
            out[n] = (float(mu[0]), float(mu[1]), e_minus, e_plus)
            eps = (e_minus, e_plus)
        weighted.append(max(1, n) ** state.params.alpha * max(abs(e) for e in eps))
    return out, float(np.max(weighted))


def state_idx(state: KamState, j: int) -> int:
    return j + state.lattice.J


def measured_chi(history, p_lo: int = 1, p_hi: int | None = None) -> float:
    """Fitted super-exponential rate of the remainder decay.

    With delta_p ~ C N_{p-1}^{-r} and N_p = N0^{chi^p}, the log-decrements
    d_p = log delta_p - log delta_{p+1} satisfy d_p ~ const * chi^p, so the
    least-squares slope of ln d_p against p estimates ln chi free of the
    prefactor C (which biases the raw ratio log delta_{p+1}/log delta_p).
    """
    ds = [row["delta_s0"] for row in history]
    p_hi = len(ds) - 2 if p_hi is None else p_hi
    ps, ys = [], []
    for p in range(p_lo, p_hi + 1):
        dec = math.log(ds[p]) - math.log(ds[p + 1])
        if dec > 0:
            ps.append(p)
            ys.append(math.log(dec))
    if len(ps) < 2:
        return float("nan")
    return float(math.exp(np.polyfit(ps, ys, 1)[0]))
