"""Frozen calibration constants.

The tame/product/boundedness constants are implicit in the theory; here they
are measured once on a fixed seeded corpus (see `recalibrate`), stored, and
used as fixed thresholds by the tests and by the KAM smallness checks.
Regenerating with the same seeds reproduces the same values; the stored
numbers include the safety factors noted below.
"""

from __future__ import annotations

import numpy as np

# measured sup over the seeded corpus, inflated 1.2x; see recalibrate()
CONSTANTS = {
    # |uv|_s <= C (|u|_s |v|_{s0} + |u|_{s0} |v|_s) at s = 4, nu = 1
    "harmonics_algebra_C4": 1.10,
    # |AB|_s <= C(s0)|A|_{s0}|B|_s + C(s)|A|_s|B|_{s0} (s-decay, s = 4, nu = 1)
    "sdecay_tame_C_s0": 1.35,
    "sdecay_tame_C_s": 1.35,
    # ||A u||_{H^r} <= C |A|_s ||u||_{H^r}, r <= s (opnorm vs s-decay, s = 4)
    "opnorm_C_rs": 1.65,
    # ad tame bound |ad_X(V)|_{s,a,a} <= C(|X| |V| + |X| |V|) at s = 4
    "ad_tame_C": 6.0,
    # KAM smallness constant C_{s0} in  C_{s0} N0^Lambda (M^a/gamma) delta <= 1.
    # Anchored at the measured divergence boundary of the iteration on the
    # driven-cosine corpus (boundary raw factor ~ 2.4e23 across driving
    # amplitudes 100..1000 at J=12, tau=2.6, N0=2); the tiny value absorbs the
    # N0^Lambda ~ 1e8 and the <l,h>^{2(s0+beta)} norm-inflation pessimism of
    # the theoretical bookkeeping at desk scale.
    "kam_smallness_C_s0": 4.2e-24,
    # Nash-Moser constants of the two iterative inequalities
    "nash_moser_C1": 12.0,
    "nash_moser_C2": 12.0,
    # drift constant C_{s0,beta} of the block-drift bounds (feeds R0/R1 pruning)
    "kam_drift_C": 2.0,
    # bound m^2 on the eigenvalue corrections c_j (Melnikov reachable windows)
    "m_sq_bound": 3.0,
}


def recalibrate(seed: int = 1234, n_samples: int = 60) -> dict:
    """Re-measure the randomized constants on the calibration corpus.

    Returns the measured (pre-safety-factor) worst ratios keyed like
    CONSTANTS; used to regenerate the frozen table above, not at runtime.
    The KAM smallness constant is anchored separately at the measured
    divergence boundary (see its comment above).
    """
    from .harmonics import Lattice, TorusFunction, multiply, sobolev_norm
    from .opmatrix import BlockOperator, OperatorPair, ad, pair_norm, s_decay_norm

    rng = np.random.default_rng(seed)
    lat = Lattice(1, 4, 8)
    s0, s = float(lat.s0), 4.0
    out = {}

    worst = 0.0
    for _ in range(n_samples):
        u = TorusFunction.random(lat, rng)
        v = TorusFunction.random(lat, rng)
        lhs = sobolev_norm(multiply(u, v), s)
        rhs = (sobolev_norm(u, s) * sobolev_norm(v, s0)
               + sobolev_norm(u, s0) * sobolev_norm(v, s))
        worst = max(worst, lhs / rhs)
    out["harmonics_algebra_C4"] = worst

    D = 2 * lat.J + 1

    def rand_op(n_ell=4):
        A = BlockOperator.zero(lat)
        for i in rng.choice(len(A.mats), size=n_ell, replace=False):
            A.mats[i] = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        return A

    worst = 0.0
    for _ in range(n_samples):
        A, B = rand_op(), rand_op()
        lhs = s_decay_norm(A @ B, s)
        rhs = (s_decay_norm(A, s0) * s_decay_norm(B, s)
               + s_decay_norm(A, s) * s_decay_norm(B, s0))
        worst = max(worst, lhs / rhs)
    out["sdecay_tame_C_s0"] = out["sdecay_tame_C_s"] = worst

    worst = 0.0
    w_weights = None
    for _ in range(n_samples // 3):
        A = rand_op()
        u = TorusFunction.random(lat, rng)
        Au = A.apply(u.coeffs)
        if w_weights is None:
            w_weights = np.maximum(
                1.0, np.maximum.outer(np.abs(np.arange(-lat.L, lat.L + 1)),
                                      np.abs(np.arange(-lat.J, lat.J + 1))))
        for r in (0.0, 2.0, 4.0):
            nAu = float(np.sqrt(np.sum(w_weights ** (2 * r) * np.abs(Au) ** 2)))
            worst = max(worst, nAu / (s_decay_norm(A, s) * sobolev_norm(u, r)))
    out["opnorm_C_rs"] = worst

    worst = 0.0
    for _ in range(n_samples // 3):
        def sym_pair():
            Ad, Ao = rand_op(), rand_op()
            Ad = 0.5 * (Ad + Ad.adjoint())
            Ao = 0.5 * (Ao + Ao.conj_op().adjoint())
            return OperatorPair(Ad, Ao, 0.5, 0.5)
        X, V = sym_pair(), sym_pair()
        lhs = pair_norm(ad(X, V), s, 0.5, 0.5)
        rhs = (pair_norm(X, s0, 0.5, 0.5) * pair_norm(V, s, 0.5, 0.0)
               + pair_norm(X, s, 0.5, 0.5) * pair_norm(V, s0, 0.5, 0.0))
        worst = max(worst, lhs / rhs)
    out["ad_tame_C"] = worst
    return out
