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
chi(mingap/rho), which is identically 1 on the non-resonant set.  One
`balanced_threshold` serves the cutoff scale rho, the step scan
`melnikov_step_test` and melnikov's omega-infinity census, and the step scan
reads the homological solve's divisor table instead of forming its own.

The new remainder is written with two Lie series, summed by
`opmatrix.lie_series` under one stopping rule and divergence guard:

    V_{p+1} = Pi_N^perp V + sum_{k>=1} ad_X^k(V)/k!
              + sum_{k>=1} ad_X^k(ad_X H0 - Xdot)/(k+1)!,    Xdot = omega.d_phi X.

The last is the H0 series sum_{k>=2} ad_X^k(H0)/k!, re-indexed as
sum_{k>=1} ad_X^k(ad_X H0)/(k+1)!, plus the Xdot series
-sum_{k>=1} ad_X^k(Xdot)/(k+1)!: exact algebra, not the homological equation.

The normal form H0 is held as one (D, D) matrix, D = 2J+1, zero outside the
blocks [n] x [n]; each step adds the symmetrized Z.  `KamState.block_eigs`
diagonalizes it with one `eigh` on the stack of its 2x2 blocks, and the
homological solve, the Melnikov scan and the final spectrum all read that
one result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .harmonics import Lattice
from .opmatrix import BlockOperator, OperatorPair, _x_grids, ad, lie_series, pair_norm
from .psdo import DEFAULT_CUTOFF
from .calibration import CONSTANTS

# each Lie series of a step stops after its first term below LIE_TOL times
# max(|ad_X H0|, |V|) and holds at most the terms of index k <= LIE_N_MAX
LIE_TOL = 1e-15
LIE_N_MAX = 39
# kam_iterate stops once the remainder's delta_s0 is below DELTA_FLOOR
DELTA_FLOOR = 1e-14


class SmallnessError(RuntimeError):
    pass


@dataclass
class KamParameters:
    """Schedule and size constants of the iteration."""

    tau: float
    gamma: float
    alpha: float
    N0: int
    tau0: float
    gamma0: float
    p_max: int = 8

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
        """N_p = N0^(chi^p) with chi = 3/2."""
        if p < 0:
            return 1.0
        return float(self.N0) ** (1.5 ** p)

    def tau_constraint_ok(self, nu: int) -> bool:
        return self.tau > nu - 1 + self.alpha + self.tau0 / self.alpha


@dataclass
class KamState:
    """Iteration state: block normal form, remainder pair, history."""

    p: int
    H0: np.ndarray                # (D, D), zero outside the blocks [n] x [n]
    V: OperatorPair               # remainder, class (alpha, 0)
    omega: np.ndarray
    M: float
    params: KamParameters
    lattice: Lattice
    s0: float
    lam_ref: np.ndarray                   # unperturbed lambda_j for drift reports
    history: list = field(default_factory=list)

    def selfadjoint_defect(self) -> float:
        return float(np.max(np.abs(self.H0 - self.H0.conj().T)))

    def block_eigs(self):
        """(mu, U): the (D,) eigenvalues and the block-diagonal unitary eigenframe of H0.

        The blocks [1]..[J] are diagonalized by one `eigh` on their (J, 2, 2)
        stack; block [n]'s ascending eigenvalues go to the indices (-n, n).
        Block [0] is 1x1: its eigenvalue is read off the diagonal.
        """
        J = self.lattice.J
        H = 0.5 * (self.H0 + self.H0.conj().T)
        # row n-1: the indices (-n, n) of block [n], n = 1..J
        idx = np.stack([np.arange(J - 1, -1, -1), np.arange(J + 1, 2 * J + 1)], axis=1)
        blocks = (idx[:, :, None], idx[:, None, :])
        w, v = np.linalg.eigh(H[blocks])
        mu = np.empty(2 * J + 1)
        mu[J], mu[idx] = H[J, J].real, w
        U = np.zeros_like(H)
        U[J, J], U[blocks] = 1.0, v
        return mu, U

    def delta(self, s: float) -> float:
        return pair_norm(self.V, s, self.params.alpha, 0.0)


def init_state(magnus_out, sd, basis, params: KamParameters, lattice: Lattice,
               track_norms: bool = True) -> KamState:
    """Initial normal form diag(lambda_[n]) plus the embedded remainder."""
    from .craig_wayne import change_basis
    if not sd.positive:
        raise SmallnessError("KAM initialization needs a positive spectrum")
    H0 = np.diag(sd.lam).astype(complex)
    Vd = change_basis(magnus_out.Vd_mat, basis)
    Vo = change_basis(magnus_out.Vo_mat, basis)
    scale = max(Vd.norm_max(), Vo.norm_max())
    # drop pure floating-point noise: it would otherwise dominate the
    # high-index norms under the <l,h>^{2(s0+beta)} weights
    V = OperatorPair(Vd.prune(1e-14 * scale), Vo.prune(1e-14 * scale))
    state = KamState(p=0, H0=H0, V=V, omega=magnus_out.omega, M=magnus_out.M,
                     params=params, lattice=lattice, s0=float(lattice.s0),
                     lam_ref=sd.lam.copy())
    state.history.append(_history_row(state, None, track_norms))
    return state


def _history_row(state: KamState, X: OperatorPair | None, track_norms: bool) -> dict:
    """History entry of a state reached by generator X (None for the initial state).

    Without norm tracking delta_s0 is the max-entry norm of V and the other
    norms are NaN.
    """
    pr, nan = state.params, float("nan")
    row = {"p": state.p, "N_p": pr.N(state.p)}
    if not track_norms:
        return dict(row, delta_s0=state.V.norm_max(), delta_s0_beta=nan,
                    X_norm=0.0 if X is None else nan, H0_selfadjoint_defect=nan)
    return dict(row, delta_s0=state.delta(state.s0),
                delta_s0_beta=state.delta(state.s0 + pr.beta),
                X_norm=0.0 if X is None else pair_norm(X, state.s0, pr.alpha, pr.alpha),
                H0_selfadjoint_defect=state.selfadjoint_defect())


def smallness_check(state: KamState):
    """(ok, margin) of C_{s0} N0^Lambda (M^alpha/gamma) delta^(0)_{s0+beta} <= 1."""
    pr = state.params
    C = CONSTANTS["kam_smallness_C_s0"]
    delta0 = state.history[0]["delta_s0_beta"]
    lhs = C * pr.N0 ** pr.Lambda * (state.M ** pr.alpha / pr.gamma) * delta0
    if lhs == 0.0:
        return True, float("inf")
    return lhs <= 1.0, 1.0 / lhs


def prune_C1(state: KamState) -> float:
    """C1 of the emptiness pruning: blocks with |n +- n'| > C1 M <l> auto-pass."""
    m_sq = CONSTANTS["m_sq_bound"]
    drift = CONSTANTS["kam_drift_C"] / (state.params.gamma0 * state.M)
    return 2.0 * math.sqrt(state.lattice.nu) + (2.0 * m_sq + 2.0 * drift + 1.0) / state.M


def balanced_threshold(gamma, tau, alpha, M, ell_norm, combo):
    """The balanced Melnikov threshold gamma <n +- n'>^alpha / (<l>^tau M^alpha).

    combo = |n +- n'| and ell_norm = |l| (or a mode radius) are floored at 1;
    every argument broadcasts.
    """
    return (gamma / M ** alpha * np.maximum(1, combo) ** alpha
            / np.maximum(1.0, ell_norm) ** tau)


def _divisor_table(state: KamState, mu: np.ndarray, Nval: float):
    """The divisors omega.l + mu_i +- mu_j of the kept modes |l| <= Nval.

    Rows are V^d's kept modes (sign -1), then V^o's (sign +1), in
    `Lattice.ell_range()` order.  Returns (low: the kept rows of the mode
    axis, ells, ln = |l|, div (rows, D, D), and per (n, n') block (rows, J+1,
    J+1): mingap, the smallest |divisor| folded from the four sign quadrants
    as in the block HS tensor, combo = |n +- n'|, and the excluded (0, n, n)).
    """
    J = state.lattice.J
    low = state.lattice.ell_norms() <= Nval
    ells = np.tile(state.lattice.ell_range()[low].astype(float), (2, 1))
    comp_d = np.repeat([True, False], np.count_nonzero(low))
    sign = np.where(comp_d, -1.0, 1.0)[:, None, None]
    dot = (ells @ state.omega)[:, None, None]
    ln = np.linalg.norm(ells, axis=1)
    div = dot + mu[None, :, None] + sign * mu[None, None, :]
    gap = np.abs(div)
    mingap = np.minimum(np.minimum(gap[:, J:, J:], gap[:, J:, J::-1]),
                        np.minimum(gap[:, J::-1, J:], gap[:, J::-1, J::-1]))
    ns = np.arange(J + 1)
    combo = np.where(sign > 0, np.add.outer(ns, ns), np.abs(np.subtract.outer(ns, ns)))
    excluded = (comp_d & (ln == 0.0))[:, None, None] & np.eye(J + 1, dtype=bool)
    return low, ells, ln, div, mingap, combo, excluded


def melnikov_step_test(state: KamState, Nval: float | None = None):
    """Scan all (l, n, n') with |l| <= N_{p-1}: is every divisor large enough?

    Reads `_divisor_table` against `balanced_threshold(gamma/2, .., N_{p-1},
    |n +- n'|)`.  Returns (ok, worst offender dict): the smallest margin, the
    first in (l, sign +1 then -1, n, n') order.  The Lemma-5.15 pruning
    |n +- n'| > C1 M <l> is applied first (auto-pass) and its savings counted.
    """
    pr = state.params
    Nval = pr.N(state.p - 1) if Nval is None else Nval
    mu, _ = state.block_eigs()
    _, ells, ln, _, mingap, combo, excluded = _divisor_table(state, mu, Nval)
    pruned = ~excluded & (combo > prune_C1(state) * state.M
                          * np.maximum(1.0, ln)[:, None, None])
    thr = balanced_threshold(0.5 * pr.gamma, pr.tau, pr.alpha, state.M, Nval, combo)
    margin = np.where(excluded | pruned, np.inf, mingap / thr)
    # rows go (sign -1 modes, sign +1 modes): scan (l, sign +1 then -1, n, n')
    by_row = margin.reshape((2, -1) + margin.shape[1:])[::-1].swapaxes(0, 1)
    i_ell, i_sign, n, n_in = np.unravel_index(np.argmin(by_row), by_row.shape)
    row = (1 - i_sign) * len(by_row) + i_ell
    worst = {"margin": float(margin[row, n, n_in])}
    if worst["margin"] < np.inf:
        worst.update(ell=tuple(int(c) for c in ells[row]), n=int(n), n_in=int(n_in),
                     sign=1 - 2 * int(i_sign), gap=float(mingap[row, n, n_in]),
                     threshold=float(thr[row, n, n_in]))
    worst["pruned"] = int(np.count_nonzero(pruned))
    worst["checked"] = int(margin.size - np.count_nonzero(excluded | pruned))
    return worst["margin"] >= 1.0, worst


def solve_homological(state: KamState, Nval: float) -> OperatorPair:
    """The generator X^(p) from the blockwise homological equations.

    X^d on the minus index set (zero at the excluded (0, n, n) diagonal),
    X^o everywhere, both restricted to |l| <= N_p and multiplied by the
    cutoff chi(mingap/rho) that extends the solution to all omega.  All kept
    modes and blocks are solved in one pass: with U the block-diagonal
    eigenframe of H0 (eigenvalues mu), each mode's V(l) becomes U^H V U, whose
    (i, j) entry is divided by omega.l + mu_i +- mu_j (`_divisor_table`), and
    chi(mingap/rho), rho = `balanced_threshold(gamma/2, .., |l|, |n +- n'|)`,
    scales the whole (n, n') block.
    """
    pr = state.params
    lat = state.lattice
    mu, U = state.block_eigs()
    nb = np.abs(np.arange(-lat.J, lat.J + 1))          # block of each space index
    low, _, ln, div, mingap, combo, excluded = _divisor_table(state, mu, Nval)
    rho = balanced_threshold(0.5 * pr.gamma, pr.tau, pr.alpha, state.M,
                             ln[:, None, None], combo)
    factor = DEFAULT_CUTOFF(np.minimum(mingap / rho, 1.0))
    factor[excluded] = 0.0            # absorbed into Z
    div[div == 0.0] = 1.0             # zeros only where factor = 0
    T = U.conj().T @ np.concatenate([state.V.Ad.mats[low], state.V.Ao.mats[low]]) @ U
    T /= div
    T *= -1j * factor[:, nb][:, :, nb]
    X = np.zeros((2,) + state.V.Ad.mats.shape, dtype=complex)
    X[:, low] = (U @ T @ U.conj().T).reshape((2, -1) + T.shape[1:])
    K = state.V.Ad.K
    return OperatorPair(BlockOperator(lat, X[0], K), BlockOperator(lat, X[1], K))


def diagonal_correction(state: KamState) -> np.ndarray:
    """Z^(p): V^d(0) on the blocks [n] x [n], zero elsewhere."""
    nb = np.abs(np.arange(-state.lattice.J, state.lattice.J + 1))
    return np.where(nb[:, None] == nb, state.V.Ad.mat((0,) * state.lattice.nu), 0.0)


def kam_step(state: KamState, track_norms: bool = True) -> tuple:
    """One reducibility step: returns (new state, X^(p))."""
    pr = state.params
    Np = pr.N(state.p)
    X = solve_homological(state, Np)
    lat = state.lattice
    K = state.V.Ad.K

    Z = diagonal_correction(state)
    # Z is Hermitian when the structure constraints hold; the symmetrization
    # only removes floating-point noise
    H0_new = state.H0 + 0.5 * (Z + Z.conj().T)
    H0pair = OperatorPair(BlockOperator.time_independent(lat, state.H0, K=K),
                          BlockOperator.zero(lat, K=K))

    # Pi_N^perp V + the V series + the H0 and Xdot series merged as one of
    # ad_X H0 - Xdot (module docstring), one `ad` per power for both;
    # X's phi-grids are built once and shared by every `ad`
    x_grids = _x_grids(X)
    adH0 = ad(X, H0pair, x_grids)
    scale = max(adH0.norm_max(), state.V.norm_max(), 1e-300)
    V_new = lie_series(X, state.V.project(Np)[1], state.V, 1, 0, LIE_TOL, scale, LIE_N_MAX,
                       x_grids)
    V_new = lie_series(X, V_new, adH0 - X.omega_dphi(state.omega), 1, 1, LIE_TOL, scale,
                       LIE_N_MAX, x_grids)

    noise = 1e-14 * max(V_new.norm_max(), 1e-300)
    V_new = OperatorPair(V_new.Ad.prune(noise), V_new.Ao.prune(noise))
    new = KamState(p=state.p + 1, H0=H0_new, V=V_new, omega=state.omega,
                   M=state.M, params=pr, lattice=lat, s0=state.s0,
                   history=list(state.history), lam_ref=state.lam_ref)
    new.history.append(_history_row(new, X, track_norms))
    return new, X


def nash_moser_check(state_prev: KamState, state_next: KamState) -> dict:
    """The two iterative inequalities with the frozen calibrated constants.

    delta_s0 and delta_s0_beta of both states are read off their last history
    rows; an untracked row (NaN delta_s0_beta) raises ValueError.
    """
    pr = state_prev.params
    rows = state_prev.history[-1], state_next.history[-1]
    if any(math.isnan(row["delta_s0_beta"]) for row in rows):
        raise ValueError("nash_moser_check needs history rows recorded with track_norms")
    (d_s, d_sb), (lhs1, lhs2) = ((row["delta_s0"], row["delta_s0_beta"]) for row in rows)
    Np = pr.N(state_prev.p)
    fac = Np ** (2 * pr.tau + 1) * state_prev.M ** pr.alpha / pr.gamma
    rhs1 = CONSTANTS["nash_moser_C1"] * (Np ** (-pr.beta) * d_sb + fac * d_s * d_s)
    rhs2 = CONSTANTS["nash_moser_C2"] * (d_sb + fac * (d_sb * d_s + d_s * d_s))
    return {"low_ok": lhs1 <= rhs1, "high_ok": lhs2 <= rhs2,
            "lhs_low": lhs1, "rhs_low": rhs1, "lhs_high": lhs2, "rhs_high": rhs2}


def kam_iterate(state: KamState, p_max: int, collect_generators: bool = False,
                track_norms: bool = True):
    """Iterate to the block-diagonal normal form.

    Returns (final state, [X^(p)] if collected else None).  Aborts with the
    recorded history when the smallness margin is violated mid-run (divergent
    Lie series or growing remainder).  The remainder sizes compared are the
    history's delta_s0, and the stall test refers to the initial state's, so
    a run continued from an intermediate state repeats a single run exactly;
    a history recorded in the other track_norms mode (NaN delta_s0_beta
    marks an untracked row) raises ValueError.
    """
    if any(math.isnan(row["delta_s0_beta"]) == track_norms for row in state.history):
        raise ValueError(f"state history was not recorded with track_norms={track_norms}")
    gens = [] if collect_generators else None
    delta0 = state.history[0]["delta_s0"]
    prev_delta = state.history[-1]["delta_s0"]
    while state.p < p_max:
        if prev_delta < DELTA_FLOOR:
            break
        state_next, X = kam_step(state, track_norms=track_norms)
        d = state_next.history[-1]["delta_s0"]
        if d > max(1.5 * prev_delta, 1e3 * DELTA_FLOOR) and d > 1e-13:
            raise SmallnessError(
                f"remainder grew at p={state.p}: {prev_delta:.3e} -> {d:.3e}; "
                "smallness condition violated")
        if state_next.p >= 3 and d > 0.5 * delta0 and d > DELTA_FLOOR:
            raise SmallnessError(
                f"iteration stalled: delta {d:.3e} vs initial {delta0:.3e} "
                f"after {state_next.p} steps")
        if gens is not None:
            gens.append(X)
        state = state_next
        prev_delta = d
    return state, gens


def final_spectrum(state: KamState):
    """Per-block eigenvalues of the final normal form and their drift.

    Returns dict n -> (lam_minus, lam_plus, eps_minus, eps_plus) with eps
    measured against the unperturbed lambda_n, plus the weighted sup table.
    """
    J = state.lattice.J
    mu, _ = state.block_eigs()
    lam = state.lam_ref
    # column n: block [n]'s lower and upper eigenvalue, and their drifts
    lo, hi = mu[J::-1], mu[J:]
    eps_lo = lo - np.minimum(lam[J::-1], lam[J:])
    eps_hi = hi - np.maximum(lam[J::-1], lam[J:])
    # Python's pow: numpy's vectorized power may round differently
    weights = np.array([max(1, n) ** state.params.alpha for n in range(J + 1)])
    weighted = weights * np.maximum(np.abs(eps_lo), np.abs(eps_hi))
    rows = np.stack([lo, hi, eps_lo, eps_hi], axis=1).tolist()
    return dict(enumerate(map(tuple, rows))), float(np.max(weighted))


def measured_chi(history, p_lo: int = 1, p_hi: int | None = None) -> float:
    """Fitted super-exponential rate of the remainder decay.

    With delta_p ~ C N_{p-1}^{-r} and N_p = N0^{chi^p}, the log-decrements
    d_p = log delta_p - log delta_{p+1} satisfy d_p ~ const * chi^p, so the
    least-squares slope of ln d_p against p estimates ln chi free of the
    prefactor C (which biases the raw ratio log delta_{p+1}/log delta_p).
    """
    ps, ys = _log_decrements(history, p_lo, p_hi)
    if len(ps) < 2:
        return float("nan")
    return float(math.exp(np.polyfit(ps, ys, 1)[0]))


def _log_decrements(history, p_lo: int = 1, p_hi: int | None = None):
    """The steps p in [p_lo, p_hi] with a positive log-decrement d_p, and ln d_p."""
    ds = [row["delta_s0"] for row in history]
    p_hi = len(ds) - 2 if p_hi is None else p_hi
    ps, ys = [], []
    for p in range(p_lo, p_hi + 1):
        dec = math.log(ds[p]) - math.log(ds[p + 1])
        if dec > 0:
            ps.append(p)
            ys.append(math.log(dec))
    return ps, ys
