"""Frozen calibration constants.

The tame/product/boundedness constants are implicit in the theory; here they
are fixed numbers, used as thresholds by the tests and by the KAM smallness
checks.  The stored numbers include the safety factors noted below.
"""

from __future__ import annotations

CONSTANTS = {
    # |uv|_s <= C (|u|_s |v|_{s0} + |u|_{s0} |v|_s) at s = 4, nu = 1
    "harmonics_algebra_C4": 1.10,
    # |AB|_s <= C(s0)|A|_{s0}|B|_s + C(s)|A|_s|B|_{s0} (s-decay, s = 4, nu = 1)
    "sdecay_tame_C_s0": 1.35,
    "sdecay_tame_C_s": 1.35,
    # ||A u||_{H^r} <= C |A|_s ||u||_{H^r}, r <= s (opnorm vs s-decay, s = 4)
    "opnorm_C_rs": 1.65,
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
