"""Construction and Monte-Carlo measure estimation of the non-resonant set.

The final frequency set keeps every omega whose divisors satisfy the balanced
conditions |omega.l + mu_n +- mu_n'| >= (gamma/<l>^tau) <n +- n'>^alpha / M^alpha
for the eigenvalues of the final KAM blocks.  The census runs over all block
pairs up to n_max(l) ~ C1 M <l> (beyond which the sets are empty), using the
spectral asymptotics lambda_n = sqrt(n^2 + q_bar + d(n)) outside the truncation
and the KAM-corrected blocks inside it.  Only the triples whose block
distance n +- n' is within reach of |omega.l| are scanned; the emptiness
lemmas dispose of the rest.

`estimate_measure` runs its samples in a pool of forked worker processes,
one per CPU of the affinity mask (`os.sched_getaffinity(0)`).  The fork start
method lets the per-omega pipeline be a closure and limits the pool to Linux.
Each worker classifies its samples' indeterminate errors itself; the parent
folds the outcomes in sample order, so the counts are identical to a serial
run.  Within a sample, `omega_infty_test` checks all k-lines of one (l, sign)
in one array pass.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .kam import SmallnessError, balanced_threshold
from .magnus import diophantine_test, sample_annulus
from .opmatrix import LieSeriesDiverged

# pipeline errors that make a sample indeterminate; any other error propagates
INDETERMINATE_ERRORS = (SmallnessError, LieSeriesDiverged, np.linalg.LinAlgError)


@dataclass
class MeasureReport:
    """Monte-Carlo estimate of the relative measure of the rejected set."""

    M: float
    gamma: float
    tau: float
    alpha: float
    n_samples: int
    # the counts start at zero and are accumulated sample by sample
    rejected_omega0: int = field(default=0, init=False)
    rejected_infty: int = field(default=0, init=False)
    indeterminate: int = field(default=0, init=False)
    indeterminate_by_type: dict = field(init=False, default_factory=lambda: dict.fromkeys(
        (e.__name__ for e in INDETERMINATE_ERRORS), 0))
    pruning: dict = field(default_factory=dict, init=False)

    @property
    def m_r(self) -> float:
        """Relative measure of Omega_0 \\ Omega_infty."""
        return self.rejected_infty / self.n_samples

    def confidence_interval(self):
        """Wilson 95% interval for m_r."""
        z = 1.96
        n, k = self.n_samples, self.rejected_infty
        if n == 0:
            return (0.0, 1.0)
        p = k / n
        denom = 1 + z ** 2 / n
        center = (p + z ** 2 / (2 * n)) / denom
        half = z * math.sqrt(p * (1 - p) / n + z ** 2 / (4 * n ** 2)) / denom
        return (max(0.0, center - half), min(1.0, center + half))

    def to_json_dict(self) -> dict:
        lo, hi = self.confidence_interval()
        return {"M": self.M, "gamma": self.gamma, "tau": self.tau,
                "alpha": self.alpha, "n_samples": self.n_samples,
                "rejected_omega0": self.rejected_omega0,
                "rejected_infty": self.rejected_infty,
                "indeterminate": self.indeterminate,
                "indeterminate_by_type": dict(self.indeterminate_by_type),
                "m_r": self.m_r, "ci95": [lo, hi], "pruning": dict(self.pruning)}


@dataclass
class EigenTable:
    """Final-block eigenvalues inside the truncation + asymptotics beyond it.

    mu holds the (2J+1,) eigenvalues of the final normal form by space index
    (`KamState.block_eigs`): block [n]'s pair sits at the indices (-n, n).
    For n > J both eigenvalues are taken as lambda_n = sqrt(n^2 + q_bar)
    (the l2 tail of d is below the Melnikov windows there, as is the
    <n>^{-alpha}-weighted KAM drift).
    """

    q_bar: float
    mu: np.ndarray

    def __post_init__(self):
        self.J = (len(self.mu) - 1) // 2
        # (J+1, 2) eigenvalue pairs of the explicit blocks, [0]'s value twice
        self._inner = np.stack([self.mu[self.J::-1], self.mu[self.J:]], axis=1)

    def pairs(self, ns) -> np.ndarray:
        """(len(ns), 2) eigenvalues of the blocks ns (nonnegative ints)."""
        ns = np.asarray(ns, dtype=int)
        out = np.empty((len(ns), 2))
        inner = ns <= self.J
        out[inner] = self._inner[ns[inner]]
        far = ns[~inner]
        out[~inner] = np.sqrt(far * far + self.q_bar)[:, None]
        return out

    def max_correction(self, n_max: int) -> float:
        """sup over n of |mu_n - n| (enters the reachable-window slack)."""
        m = min(self.J, n_max)
        worst = float(np.max(np.abs(self._inner[:m + 1] - np.arange(m + 1)[:, None])))
        if n_max > self.J:
            lam = math.sqrt((self.J + 1.0) ** 2 + abs(self.q_bar))
            worst = max(worst, abs(lam - (self.J + 1.0)))
        return worst


def eigen_table_from_state(state, q_bar: float) -> EigenTable:
    return EigenTable(q_bar=float(q_bar), mu=state.block_eigs()[0])


def omega_infty_test(omega, table: EigenTable, params, M: float, L_check: int,
                     n_max_cap: int | None = None, collect_census: bool = False):
    """(passes, offender census) of the balanced conditions at this omega.

    params needs fields gamma, tau, alpha, gamma0, tau0.  The scan covers
    (l, n, n') with |l| <= L_check and n, n' inside the reachable window
    |n +- n'| within slack of |omega.l| (everything else is empty by the
    pruning lemmas; the census records the classification counts).  The
    k-lines n -+ n' = k of one (l, sign) are checked in one array pass
    (`_scan_lines`); lines go in (l, sign, k) order, one offender is recorded
    per failing line, and without `collect_census` the scan stops at the
    first failing line.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    nu = len(omega)
    # pruned_unreachable stays 0: _measure_sample forwards it and perfbench's reference pins it
    census = {"explicit": 0, "pruned_unreachable": 0, "offenders": []}

    from .magnus import nonzero_ell_box
    ells = [np.zeros(nu, dtype=int)] + list(nonzero_ell_box(nu, L_check))
    ok = True
    slack = 2.0 * table.max_correction(10 * table.J) + 2.0
    for row in ells:
        ln = float(np.linalg.norm(row))
        dot = float(row @ omega)
        n_cap = n_max_cap if n_max_cap is not None else int(
            2.2 * M * max(1.0, ln) + 4 * table.J)
        for sign in (+1, -1):
            # reachable combos k = n (+-) n': |dot + k +- corrections| small
            t = -dot
            if sign > 0 and t < -slack:
                continue                      # mu_n + mu_n' >= 0: t must be ~ positive
            k_lo = max(0 if sign > 0 else -10 * table.J, int(math.floor(t - slack)))
            k_hi = int(math.ceil(t + slack))
            if k_hi < k_lo:
                continue
            ks = np.arange(k_lo, k_hi + 1)
            thr = balanced_threshold(params.gamma, params.tau, params.alpha, M, ln,
                                     np.abs(ks))
            checked, offenders = _scan_lines(table, dot, sign, ks, n_cap, thr,
                                             ln == 0.0 and sign < 0)
            ell = tuple(int(c) for c in row)
            if offenders and not collect_census:
                line, rec = offenders[0]
                census["explicit"] += int(checked[:line + 1].sum())
                census["offenders"].append({"ell": ell, "sign": sign, **rec})
                return False, census
            census["explicit"] += int(checked.sum())
            census["offenders"] += [{"ell": ell, "sign": sign, **rec}
                                    for _, rec in offenders]
            ok = ok and not offenders
    return ok, census


def _scan_lines(table, dot, sign, ks, n_cap, thr, no_diagonal):
    """Check the k-lines n - n' = k (sign -1) or n + n' = k (sign +1) of one l.

    Line k holds the (n, n') with n, n' in [0, n_cap], less the excluded
    diagonal n = n' when `no_diagonal`; thr[i] is the threshold of line ks[i].
    Its window triples (n or n' <= J: explicit 2x2 eigenvalues) count up to
    and including the first offender in ascending n; if none offends, its
    asymptotic triples (both > J: lambda = sqrt(n^2 + q_bar)) all count.
    Returns (triples counted per line, [(line, first offender)] of the failing
    lines in line order).
    """
    J = table.J
    n_lo = np.maximum(0, ks) if sign < 0 else np.zeros_like(ks)
    n_hi = np.minimum(n_cap, n_cap + ks) if sign < 0 else np.minimum(ks, n_cap)

    def partner(ns, k):
        return ns - k if sign < 0 else k - ns

    # window, ascending n along each line: n = 0..J, then the n > J whose
    # partner is n' = 0..J (n = k + n' on minus lines, k - n' on plus lines)
    low = np.arange(J + 1)
    ns = np.concatenate([np.broadcast_to(low, (len(ks), J + 1)),
                         ks[:, None] + (low if sign < 0 else -low[::-1])], axis=1)
    ms = partner(ns, ks[:, None])
    valid = ((ns >= n_lo[:, None]) & (ns <= n_hi[:, None]) & (ms >= 0) & (ms <= n_cap))
    valid[:, J + 1:] &= ns[:, J + 1:] > J
    if no_diagonal:
        valid &= ns != ms
    pn = table.pairs(np.maximum(ns, 0).ravel()).reshape(ns.shape + (2,))
    pm = table.pairs(np.maximum(ms, 0).ravel()).reshape(ms.shape + (2,))
    gaps = np.min(np.abs(dot + (pn[..., :, None] + sign * pm[..., None, :])), axis=(2, 3))
    bad = valid & (gaps < thr[:, None])
    window_bad = bad.any(axis=1)
    first = bad.argmax(axis=1)
    lines = np.arange(len(ks))
    checked = np.where(window_bad, np.cumsum(valid, axis=1)[lines, first],
                       valid.sum(axis=1))
    found = {int(i): {"n": int(ns[i, first[i]]), "n_in": int(ms[i, first[i]]),
                      "gap": float(gaps[i, first[i]]), "threshold": float(thr[i])}
             for i in np.flatnonzero(window_bad)}

    # asymptotic region: n, n' > J, on the lines whose window passed.  The
    # lines share one n axis n0..n1; lambda_n' along line k is a shifted
    # (sign -1) or reversed (sign +1) window of one row of lambda values.
    if sign < 0:
        a_lo, a_hi = np.maximum(n_lo, J + 1 + np.maximum(0, ks)), n_hi
    else:
        a_lo, a_hi = np.maximum(J + 1, ks - n_cap), np.minimum(n_hi, ks - (J + 1))
    a_hi = np.where(window_bad | (no_diagonal & (ks == 0)), -1, a_hi)
    counts = np.maximum(0, a_hi - a_lo + 1)
    if counts.any():
        live = counts > 0
        n0, n1 = int(a_lo[live].min()), int(a_hi[live].max())
        width = n1 - n0 + 1
        m0 = partner(n0, ks)                  # n' at n = n0 on each line
        # lam covers n0..n1 and every n' the lines reach
        lo = min(n0, int(m0.min()) - (width - 1 if sign > 0 else 0))
        hi = max(n1, int(m0.max()) + (width - 1 if sign < 0 else 0))
        lam = np.sqrt(np.arange(lo, hi + 1, dtype=float) ** 2 + table.q_bar)
        start = m0 - lo if sign < 0 else hi - m0      # falls by one per line
        lam_in = sliding_window_view(lam if sign < 0 else lam[::-1],
                                     width)[start[-1]:start[0] + 1][::-1]
        # |(dot + lambda_n) + sign * lambda_n'| in this order keeps gaps bit-exact
        row = dot + lam[n0 - lo:n1 - lo + 1]
        gaps = row - lam_in if sign < 0 else row + lam_in
        np.abs(gaps, out=gaps)
        bad = gaps < thr[:, None]
        for i in np.flatnonzero(bad.any(axis=1) & live):
            cols = np.flatnonzero(bad[i, a_lo[i] - n0:a_hi[i] - n0 + 1]) + (a_lo[i] - n0)
            if len(cols):
                n = n0 + int(cols[0])
                found[int(i)] = {"n": n, "n_in": int(partner(n, ks[i])),
                                 "gap": float(gaps[i, cols[0]]), "threshold": float(thr[i])}
    return checked + counts, sorted(found.items())


def estimate_measure(pipeline, params, M: float, n_samples: int,
                     rng_seed: int, nu: int = 1, L_check: int = 4) -> MeasureReport:
    """Monte-Carlo m_r(Omega_0 \\ Omega_infty) at one gamma.

    `pipeline(omega) -> EigenTable` produces the final blocks for a sample
    (a reduced-depth KAM run).  Each sample runs `_measure_sample` in a pool
    of forked workers, one per CPU of `os.sched_getaffinity(0)`, made and
    joined inside this call.  The pool needs the fork start method (Linux):
    `pipeline` may be a closure, which the workers inherit instead of
    unpickling; only the omegas and the per-sample outcomes cross the pipe.
    The outcomes are folded in sample order, so the counts are identical to
    a serial run.  A SmallnessError, LieSeriesDiverged or LinAlgError makes
    the sample indeterminate and is counted by type, in the worker; any
    other error propagates with its own type.  The tau constraint
    tau > nu - 1 + alpha + tau0/alpha is enforced.  The Diophantine test of
    Omega_0 scans 0 < |l| <= max(8, L_check).
    """
    if n_samples < 100:
        raise ValueError("need at least 100 samples for a meaningful estimate")
    if not params.tau_constraint_ok(nu):
        raise ValueError("tau violates tau > nu - 1 + alpha + tau0/alpha")
    rng = np.random.default_rng(rng_seed)
    samples = sample_annulus(rng, M, nu, n_samples)
    L_dioph = max(8, L_check)
    report = MeasureReport(M=M, gamma=params.gamma, tau=params.tau,
                           alpha=params.alpha, n_samples=n_samples)
    job = (pipeline, params, M, L_check, L_dioph)
    with mp.get_context("fork").Pool(len(os.sched_getaffinity(0)), _serve,
                                     job) as pool:
        outcomes = list(pool.imap(_run_sample, samples))
        pool.close()
        pool.join()
    for verdict, counts in outcomes:
        if verdict == "rejected_omega0":
            report.rejected_omega0 += 1
        elif verdict in report.indeterminate_by_type:
            report.indeterminate += 1
            report.indeterminate_by_type[verdict] += 1
        else:
            for key, count in counts.items():
                report.pruning[key] = report.pruning.get(key, 0) + count
            if verdict == "rejected_infty":
                report.rejected_infty += 1
    return report


def _measure_sample(omega, pipeline, params, M, L_check, L_dioph):
    """(verdict, census counts) of one Monte-Carlo sample.

    The verdict is "rejected_omega0", the class name of an indeterminate
    error, "rejected_infty" or "passed"; the counts (explicit and
    pruned_unreachable triples) are None unless omega_infty_test ran.
    """
    ok0, _ = diophantine_test(omega, M, params.gamma0, params.tau0, L_dioph)
    if not ok0:
        return "rejected_omega0", None
    try:
        table = pipeline(omega)
    except INDETERMINATE_ERRORS as exc:
        return next(e for e in INDETERMINATE_ERRORS if isinstance(exc, e)).__name__, None
    ok, census = omega_infty_test(omega, table, params, M, L_check)
    return ("passed" if ok else "rejected_infty"), {
        key: census[key] for key in ("explicit", "pruned_unreachable")}


_JOB = None       # a worker's (pipeline, params, M, L_check, L_dioph)


def _serve(*job):
    global _JOB
    _JOB = job


def _run_sample(omega):
    return _measure_sample(omega, *_JOB)


def fitted_gamma_exponent(gammas, m_rs) -> float:
    """Slope of log m_r against log gamma (only over nonzero estimates)."""
    xs, ys = [], []
    for g, m in zip(gammas, m_rs):
        if m > 0:
            xs.append(math.log(g))
            ys.append(math.log(m))
    if len(xs) < 2:
        return float("nan")
    return float(np.polyfit(xs, ys, 1)[0])
