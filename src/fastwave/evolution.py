"""Time propagation of the driven system and Floquet verification.

The first-order form i phi_t = H(t) phi with H = B sigma3 + W(omega t) sigma4
is integrated in the eigenbasis of B by Strang splitting: the free rotation
e^{-i dt B sigma3} is exact (diagonal), and the kick e^{-i dt W sigma4} is
exact as well because W sigma4 is nilpotent (sigma4^2 = 0), so the only error
is the order-2 splitting error in dt.  The kick is complex-linear in the
state, so each step applies it as one matrix-vector product with the
(2D x D) matrix i dt [-W(phi); conj-family W(phi)]; these matrices are
built a chunk of steps at a time, by one product of the steps' phases with
W's live angle modes.  W is `magnus_transform`'s W_mat moved to the
eigenbasis by `change_basis`; the caller builds it once and passes it to
`integrate` and `floquet_residual`.

The Floquet factorization U(t, tau) = T(omega t)^{-1} e^{-i(t-tau)H_inf}
T(omega tau) is assembled from the Magnus generator (e^{iY sigma4} = 1 + iY
sigma4 exactly) and the dense exponentials of the KAM generators;
`floquet_residual` measures how far the Strang flow is from it.  The evolve
stage reports the budget 10 (delta^(p_final) + dt^2 min(0.2, T)) next to the
residual, but passes when the residual is at most max(budget, 1e-6), so the
1e-6 floor decides whenever the budget lies below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .opmatrix import BlockOperator, _conj_grid
from .schrodinger import SpectralData


@dataclass
class Trajectory:
    """Two-component states (phi, phibar-slot) in eigen coordinates."""

    times: np.ndarray
    states: np.ndarray              # (n_t, 2, D)
    sd: SpectralData
    dt: float

    def sobolev_norms(self, r: float) -> np.ndarray:
        """||phi(t)||_{H^r_x} of the two-component state at each time."""
        J = self.sd.J
        w = np.maximum(1.0, np.abs(np.arange(-J, J + 1))).astype(float) ** r
        # exponential-basis coefficients, one matrix-vector product per state:
        # the bits of psi @ state, which one (n_t*2, D) @ (D, D) product does not keep
        e = (self.sd.psi @ self.states[..., None])[..., 0]
        return np.sqrt(np.sum(w ** 2 * (np.abs(e[:, 0]) ** 2 + np.abs(e[:, 1]) ** 2),
                              axis=-1))


def pair_state(phi_exp: np.ndarray, sd: SpectralData) -> np.ndarray:
    """(phi, conj-partner) eigen-coordinate state from exp coefficients."""
    phibar = np.conj(phi_exp[::-1])
    coords = sd.psi.conj().T
    return np.stack([coords @ phi_exp, coords @ phibar])


# steps per kick table: the (64, 2D, D) complex table of a chunk is about
# 2.2 MB at D = 33, whatever the number of steps
_KICK_CHUNK = 64


def integrate(sd: SpectralData, W: BlockOperator, omega, state0: np.ndarray, T: float,
              dt: float, store_every: int, t0: float = 0.0) -> Trajectory:
    """Strang splitting: half rotation, exact kick at the midpoint, half rotation.

    The kick is W(phi) sigma4, with W = (1/2) B^{-1/2} V(phi) B^{-1/2} in
    eigen coordinates (`magnus_transform`'s W_mat moved by `change_basis`).
    It is complex-linear in the flat state (top, bot) = (phi, phibar-slot):
    with s = top + bot, top -= i dt W(phi) s and bot += i dt W~(phi) s, where
    W~ = K conj(W) conj(K) is the conjugate family (`W.conj_op()`).  So a step
    is a rotation, one (2D x D) matrix-vector product with the kick matrix
    i dt [-W(phi_k); W~(phi_k)] and a rotation.  The kick matrices of
    `_KICK_CHUNK` steps at a time are one product of the steps' phases with
    the live angle modes of W and W~ (those whose block is not identically
    zero); W = 0 has none, and its kick matrices are zero.  The step times are the running sums
    t0 + dt + ... + dt, the floats of `t += dt`.  state0: (2, D) eigen
    coordinates.  dt must resolve the driving and the spectral radius:
    dt <= 0.1 / max(|omega|, lambda_max).
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    lam = sd.lam
    D = len(lam)
    lam_max = float(np.nanmax(lam))
    if dt > 0.1 / max(float(np.linalg.norm(omega)), lam_max):
        raise ValueError("dt too coarse for the driving/spectral scales")
    n_steps = int(round(T / dt))
    # W~(l) is K conj(W(-l)) conj(K): the live modes are those of W and their
    # reversal
    live = np.any(W.mats != 0, axis=(1, 2))
    live |= live[::-1]
    ells = W.lattice.ell_range()[live]
    modes = (1j * dt) * np.concatenate([-W.mats[live], W.conj_op().mats[live]],
                                       axis=1).reshape(len(ells), 2 * D * D)
    times = np.add.accumulate(np.concatenate([[t0], np.full(n_steps, dt)]))
    half = np.exp(-0.5j * dt * lam)
    rot = np.concatenate([half, np.conj(half)])
    state = np.array(state0, dtype=complex).reshape(-1)
    stored = [0]
    states = [state.reshape(2, -1).copy()]
    for c0 in range(0, n_steps, _KICK_CHUNK):
        mid = times[c0:min(c0 + _KICK_CHUNK, n_steps)] + 0.5 * dt
        kicks = (np.exp(1j * (np.multiply.outer(mid, omega) @ ells.T)) @ modes
                 ).reshape(len(mid), 2 * D, D)
        for k in range(c0, c0 + len(mid)):
            state *= rot
            state += kicks[k - c0] @ (state[:D] + state[D:])
            state *= rot
            if (k + 1) % store_every == 0 or k == n_steps - 1:
                stored.append(k + 1)
                states.append(state.reshape(2, -1).copy())
    return Trajectory(times=times[stored], states=np.asarray(states), sd=sd, dt=dt)


def sobolev_trace(traj: Trajectory, r: float):
    """(sup_t ratio, full ratio series) of ||phi(t)||_{H^r} / ||phi(0)||_{H^r}."""
    norms = traj.sobolev_norms(r)
    base = norms[0]
    if base == 0:
        raise ValueError("zero initial state")
    ratios = norms / base
    return float(np.max(ratios)), ratios


def band_width(ratios: np.ndarray) -> float:
    """Measured half-width c with the `sobolev_trace` ratios within [1 - c, 1 + c]."""
    return float(np.max(np.abs(ratios - 1.0)))


# -- Floquet assembly ----------------------------------------------------------


def pair_at_angle(P: BlockOperator, phi_angle) -> np.ndarray:
    """The 2x2-of-operators matrix [[A^d, A^o], [-conj A^o, -conj A^d]] of the
    pair P at a fixed angle."""
    Ad, Ao = P.at_angle(phi_angle)
    return np.block([[Ad, Ao], [-_conj_grid(Ao, P.K), -_conj_grid(Ad, P.K)]])


class FloquetFrame:
    """T(phi) = e^{iX^(P-1)(phi)} ... e^{iX^(0)(phi)} e^{iY(phi) sigma4}.

    Conjugates the original (Magnus-frame input) flow to the final constant
    block-diagonal flow: psi_final(t) = T(omega t) psi(t).  Y sigma4 is the
    pair (Y, Y), and since sigma4 is nilpotent e^{iY sigma4} = 1 + iY sigma4
    exactly: the identity plus i times that pair's matrix.
    """

    def __init__(self, Y_eigen: BlockOperator, generators, H_inf: np.ndarray):
        self.Y = BlockOperator(Y_eigen.lattice, np.stack([Y_eigen.mats, Y_eigen.mats]),
                               Y_eigen.K)
        self.gens = generators
        self.H_inf = H_inf

    def frame(self, phi_angle) -> np.ndarray:
        out = np.eye(2 * len(self.H_inf)) + 1j * pair_at_angle(self.Y, phi_angle)
        for X in self.gens:
            out = scipy.linalg.expm(1j * pair_at_angle(X, phi_angle)) @ out
        return out

    def reduced_propagator(self, t: float, tau: float) -> np.ndarray:
        rot = scipy.linalg.expm(-1j * (t - tau) * np.kron(np.diag([1.0, -1.0]),
                                                          self.H_inf))
        return rot

    def propagator(self, t: float, tau: float, omega) -> np.ndarray:
        omega = np.atleast_1d(np.asarray(omega, dtype=float))
        Tt = self.frame(omega * t)
        Tt0 = self.frame(omega * tau)
        return np.linalg.solve(Tt, self.reduced_propagator(t, tau) @ Tt0)


def floquet_residual(frame: FloquetFrame, sd: SpectralData, W: BlockOperator, omega,
                     t_tau_pairs, dt: float, n_probes: int) -> float:
    """max over (t, tau) and probes of |U_num(t,tau) p - U_floquet(t,tau) p| / |p|.

    U_num is the Strang flow of `integrate` with the eigen-basis W; the probes
    p are drawn from a generator seeded with 0.
    """
    rng = np.random.default_rng(0)
    D = 2 * sd.J + 1
    worst = 0.0
    for (t, tau) in t_tau_pairs:
        U = frame.propagator(t, tau, omega)
        # snap the step so the horizon is hit exactly
        n_steps = max(1, int(math.ceil((t - tau) / dt)))
        dt_run = (t - tau) / n_steps
        for _ in range(n_probes):
            pe = rng.standard_normal(D) + 1j * rng.standard_normal(D)
            state = pair_state(pe, sd)
            traj = integrate(sd, W, omega, state, t - tau, dt_run,
                             t0=tau, store_every=n_steps)
            got = traj.states[-1].reshape(-1)
            want = U @ state.reshape(-1)
            worst = max(worst, float(np.linalg.norm(got - want)
                                     / np.linalg.norm(state)))
    return worst
