"""Reference implementations shared by several test modules.

Each is a direct, unoptimised form of something the pipeline computes
another way, kept here so that tests can compare against it.
"""

import numpy as np

from fastwave.harmonics import TorusFunction
from fastwave.opmatrix import OperatorPair, lie_series


def lie_conjugate(X: OperatorPair, V: OperatorPair, tol: float = 1e-14,
                  n_max: int = 30):
    """e^{iX} V e^{-iX} = sum_n ad_X^n(V)/n!, truncated at increment < tol (1 + |V|).

    Returns (conjugated pair, difference pair = result - V).
    """
    zero = OperatorPair.zero(V.Ad.lattice, V.alpha, V.beta, V.Ad.K)
    diff = lie_series(X, zero, V, 1, 0, tol, 1.0 + V.norm_max(), n_max)
    return V + diff, diff


def left_right_ops(A: np.ndarray, B: np.ndarray):
    """M_L(A): X -> AX and M_R(B): X -> XB on row-major vectorized blocks."""
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    ML = np.kron(A, np.eye(B.shape[0]))
    MR = np.kron(np.eye(A.shape[0]), B.T)
    return ML, MR


def resonant_drive(lattice, sd, n: int, m: int, amplitude: float = 0.5):
    """A single-harmonic driving resonant with the lam_n + lam_m gap.

    Returns (v, omega) with omega[0] = lam_n + lam_m: the plus-type divisor
    omega.l + mu_n + mu_m vanishes at l = -1, pumping that pair of modes.
    """
    lam = sd.lam
    om = float(lam[sd.idx(n)] + lam[sd.idx(m)])
    # drive the x-mode connecting e_n and e_{-m}: j-transfer n + m
    v = TorusFunction.from_modes(
        lattice, {(1, n + m): amplitude / 2, (-1, -(n + m)): amplitude / 2},
        reality=True)
    return v, np.array([om])
