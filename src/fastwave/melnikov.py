"""Construction and Monte-Carlo measure estimation of the non-resonant set.

The final frequency set keeps every omega whose divisors satisfy the balanced
conditions |omega.l + mu_n +- mu_n'| >= (gamma/<l>^tau) <n +- n'>^alpha / M^alpha
for the eigenvalues of the final KAM blocks.  The census runs over all block
pairs n, n' <= n_max(l) = 2.2 M <l> + 4J, using the spectral asymptotics
lambda_n = sqrt(n^2 + q_bar + d(n)) outside the truncation and the
KAM-corrected blocks inside it.  That cap is unsourced: it has no derivation,
and it sits above |omega.l| <= 2 M <l>, the block distance that a divisor on
the annulus can cancel, by 0.2 M <l> + 4J.  Only the triples whose block
distance n +- n' is within reach of |omega.l| are scanned; the emptiness
lemmas dispose of the rest.

`estimate_measure` runs its samples in a pool of forked worker processes,
one per CPU of the affinity mask (`os.sched_getaffinity(0)`).  The fork start
method lets the per-omega pipeline be a closure and limits the pool to Linux.
Each worker classifies its samples' indeterminate errors itself; the parent
folds the outcomes in sample order, so the counts are identical to a serial
run.

Within a sample, `omega_infty_test` lays out every k-line n -+ n' = k of
every (l, sign) and checks the triples near the truncation (n or n' <= J) of
all of them in one array pass.  Beyond the truncation the gaps of a line
|omega.l + lambda_n +- lambda_n'| need no scan: lambda_n = sqrt(n^2 + q_bar)
makes lambda_n - lambda_{n-k} monotone and lambda_n + lambda_{k-n} convex or
concave, so the line's gaps at its end points, and at n = k/2 on a plus line,
bound all of them.  Only a line whose bound comes within round-off of its
threshold is scanned triple by triple.  Counts and offenders are those of a
triple-by-triple scan.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
from dataclasses import dataclass, field

import numpy as np

from .craig_wayne import build_basis_matrix
from .kam import SmallnessError, balanced_threshold, init_state, kam_iterate
from .magnus import diophantine_test, magnus_transform, nonzero_ell_box, sample_annulus
from .opmatrix import LieSeriesDiverged
from .schrodinger import assemble_lq, eigensolve_blocks

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
        # (2, J+1) eigenvalues of the explicit blocks at the indices -n and n,
        # [0]'s value twice
        self._inner = np.stack([self.mu[self.J::-1], self.mu[self.J:]])

    def pairs(self, ns) -> np.ndarray:
        """(2, ...) eigenvalues of the blocks ns (an array of nonnegative ints):
        the values at the indices -n and n on the leading axis."""
        ns = np.asarray(ns, dtype=int)
        far = np.maximum(ns, self.J + 1)      # lambda_n only where n > J is read
        return np.where(ns <= self.J, np.take(self._inner, np.minimum(ns, self.J), axis=1),
                        np.sqrt(far * far + self.q_bar))

    def max_correction(self, n_max: int) -> float:
        """sup over n of |mu_n - n| (enters the reachable-window slack)."""
        m = min(self.J, n_max)
        worst = float(np.max(np.abs(self._inner[:, :m + 1] - np.arange(m + 1))))
        if n_max > self.J:
            lam = math.sqrt((self.J + 1.0) ** 2 + abs(self.q_bar))
            worst = max(worst, abs(lam - (self.J + 1.0)))
        return worst


def eigen_table_from_state(state, q_bar: float) -> EigenTable:
    return EigenTable(q_bar=float(q_bar), mu=state.block_eigs()[0])


def measure_pipeline(qc, v, params, M: float):
    """`pipeline(omega) -> EigenTable` of one measure sample on q (x coefficients
    qc) and v: a Magnus step and a KAM run on q's spectrum and basis, built here."""
    sd = eigensolve_blocks(assemble_lq(qc, len(qc) // 2), q=qc)
    basis = build_basis_matrix(sd)

    def pipeline(omega):
        out = magnus_transform(qc, v, omega, M, params.gamma0, params.tau0, sd)
        st = init_state(out, sd, basis, params, v.lattice, track_norms=False)
        # depth 2 takes the cosine driving's remainder to 7e-19; the census reads no norm
        fin, _ = kam_iterate(st, p_max=2, track_norms=False)
        return eigen_table_from_state(fin, sd.q_bar)
    return pipeline


def omega_infty_test(omega, table: EigenTable, params, M: float, L_check: int,
                     n_max_cap: int | None = None, collect_census: bool = False):
    """(passes, offender census) of the balanced conditions at this omega.

    params needs fields gamma, tau, alpha, gamma0, tau0.  The scan covers
    (l, n, n') with |l| <= L_check and n, n' inside the reachable window
    |n +- n'| within slack of |omega.l| (everything else is empty by the
    pruning lemmas; the census records the classification counts).  The
    k-lines n -+ n' = k of every (l, sign) are checked together by
    `_scan_lines`: the triples near the truncation in one array pass, the
    asymptotic ones through a bound at their end points, so that only a line
    whose bound comes within round-off of its threshold is scanned.  Lines
    go in (l, sign +1 then -1, k) order, one offender is recorded per
    failing line, and without `collect_census` the census stops at the
    first failing line.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    J = table.J
    ells = np.concatenate([np.zeros((1, len(omega)), dtype=int),
                           nonzero_ell_box(len(omega), L_check)])
    ln = np.linalg.norm(ells, axis=1)       # exact: square roots of integer sums
    dot = np.array([float(row @ omega) for row in ells])
    n_cap = (np.full(len(ells), n_max_cap) if n_max_cap is not None
             else (2.2 * M * np.maximum(1.0, ln) + 4 * J).astype(int))
    # the (l, sign) groups of lines, sign +1 then -1 on the last axis: the
    # reachable combos k = n (+-) n', those with |omega.l + k +- corrections|
    # small; mu_n + mu_n' >= 0, so a plus line needs -omega.l ~ positive
    slack = 2.0 * table.max_correction(10 * J) + 2.0
    t = -dot[:, None]
    k_lo = np.maximum([0, -10 * J], np.floor(t - slack)).astype(int)
    size = np.maximum(0, np.ceil(t + slack).astype(int) - k_lo + 1)
    size[:, 0] *= t[:, 0] >= -slack
    # one entry per line, in (l, sign, k) order; k counts up from k_lo in a group
    size, k_lo = size.ravel(), k_lo.ravel()
    group = np.repeat(np.arange(len(size)), size)
    row, sign = group // 2, 1 - 2 * (group % 2)
    ks = k_lo[group] + np.arange(len(group)) - (np.cumsum(size) - size)[group]
    thr = np.concatenate([balanced_threshold(params.gamma, params.tau, params.alpha, M,
                                             float(ln[i]), np.abs(ks[row == i]))
                          for i in np.unique(row)])
    checked, found = _scan_lines(table, dot[row], sign, ks, n_cap[row], thr,
                                 (ln[row] == 0.0) & (sign < 0), collect_census)
    if found and not collect_census:
        line = min(found)
        checked, found = checked[:line + 1], {line: found[line]}
    # pruned_unreachable stays 0: _measure_sample forwards it and perfbench's reference pins it
    return not found, {
        "explicit": int(checked.sum()), "pruned_unreachable": 0,
        "offenders": [{"ell": tuple(int(c) for c in ells[row[i]]), "sign": int(sign[i]),
                       **found[i]} for i in sorted(found)]}


# round-off margin of the far bound, in eps of S = |omega.l| + 2 lambda_{n_cap}:
# a far gap (omega.l + lambda_n) +- lambda_n' is computed to within 2 eps S (two
# sums, each rounded by eps/2 of S, and two square roots of rounded arguments,
# each off by 3/4 eps of its value); the bound's points and a scanned gap may
# err to opposite sides, 4 eps S, and 16 leaves a factor 4 to spare
FAR_BOUND_ULPS = 16


def _scan_lines(table, dot, sign, ks, n_cap, thr, no_diagonal, every_line):
    """Check the k-lines n - n' = k (sign -1) or n + n' = k (sign +1).

    Line i holds the (n, n') with n, n' in [0, n_cap[i]] and n -+ n' = ks[i],
    less the excluded diagonal n = n' when no_diagonal[i]; its gaps are
    |dot[i] + mu_n +- mu_n'| and thr[i] is its threshold.  Its window triples
    (n or n' <= J: explicit 2x2 eigenvalues) count up to and including the
    first offender in ascending n; if none offends, its asymptotic triples
    (both > J: lambda = sqrt(n^2 + q_bar)) all count.  Returns (triples
    counted per line, {line: first offender} of the failing lines); without
    `every_line` the search stops at the first failing line.

    The far bound (module docstring): n / lambda_n is monotone with the sign
    of q_bar, so lambda_n - lambda_{n-k} is monotone in n, and
    lambda_n + lambda_{k-n} is convex or concave and symmetric about n = k/2,
    as the range of n on a plus line is.  A line whose gaps at those points
    stay on one side of 0, beyond the threshold plus `FAR_BOUND_ULPS`, has no
    offender there.
    """
    J = table.J
    minus = sign < 0
    n_lo = np.where(minus, np.maximum(0, ks), 0)
    n_hi = np.where(minus, np.minimum(n_cap, n_cap + ks), np.minimum(ks, n_cap))

    # window, ascending n along each line: n = 0..J, then the n > J whose
    # partner is n' = 0..J (n = k + n' on minus lines, k - n' on plus lines)
    low = np.arange(J + 1)
    ns = np.concatenate([np.broadcast_to(low, (len(ks), J + 1)),
                         ks[:, None] + np.where(minus[:, None], low, -low[::-1])], axis=1)
    ms = np.where(minus[:, None], ns - ks[:, None], ks[:, None] - ns)
    valid = ((ns >= n_lo[:, None]) & (ns <= n_hi[:, None]) & (ms >= 0)
             & (ms <= n_cap[:, None]))
    valid[:, J + 1:] &= ns[:, J + 1:] > J
    valid &= ~(no_diagonal[:, None] & (ns == ms))
    mu = table.pairs(np.maximum(np.stack((ns, ms)), 0))
    # the smallest of the four |dot + mu_n +- mu_n'| of each pair of blocks
    gaps = np.full(ns.shape, np.inf)
    for a in mu[:, 0]:
        for b in mu[:, 1]:
            np.minimum(gaps, np.abs(dot[:, None] + (a + sign[:, None] * b)), out=gaps)
    bad = valid & (gaps < thr[:, None])
    window_bad = bad.any(axis=1)
    first = bad.argmax(axis=1)
    lines = np.arange(len(ks))
    checked = np.where(window_bad, np.cumsum(valid, axis=1)[lines, first],
                       valid.sum(axis=1))
    found = {int(i): {"n": int(ns[i, first[i]]), "n_in": int(ms[i, first[i]]),
                      "gap": float(gaps[i, first[i]]), "threshold": float(thr[i])}
             for i in np.flatnonzero(window_bad)}

    # asymptotic region: n, n' > J, on the lines whose window passed
    a_lo = np.where(minus, np.maximum(n_lo, J + 1 + np.maximum(0, ks)),
                    np.maximum(J + 1, ks - n_cap))
    a_hi = np.where(minus, n_hi, np.minimum(n_hi, ks - (J + 1)))
    a_hi = np.where(window_bad | (no_diagonal & (ks == 0)), -1, a_hi)
    counts = np.maximum(0, a_hi - a_lo + 1)

    live = counts > 0
    if found and not every_line:
        live &= lines < min(found)
    q_bar, d, s, k = table.q_bar, dot[live], sign[live], ks[live]
    first_end, last_end = (_far_gaps(q_bar, d, s, k, a[live]) for a in (a_lo, a_hi))
    # n = k/2 (> J) on a plus line; a minus line's first end point stands in for it
    half = _lam(q_bar, np.where(s < 0, J + 1, k / 2))
    mid = np.where(s < 0, first_end, (d + half) + half)
    ends = np.stack((first_end, last_end, mid))
    far = thr[live] + FAR_BOUND_ULPS * np.finfo(float).eps * (
        np.abs(d) + 2.0 * _lam(q_bar, n_cap[live]))
    # a NaN end point (q_bar < -(J+1)^2) clears nothing
    for i in np.flatnonzero(live)[~((ends.min(axis=0) > far) | (ends.max(axis=0) < -far))]:
        offender = _scan_far(q_bar, dot[i], sign[i], ks[i], a_lo[i], a_hi[i], thr[i])
        if offender is not None:
            found[int(i)] = offender
            if not every_line:
                break
    return checked + counts, found


def _lam(q_bar, n):
    """lambda_n = sqrt(n^2 + q_bar), the eigenvalues beyond the truncation."""
    return np.sqrt(np.asarray(n, dtype=float) ** 2 + q_bar)


def _far_gaps(q_bar, dot, sign, k, n):
    """dot + lambda_n +- lambda_n' of the asymptotic triple n of line k
    (n' = n - k on a minus line, k - n on a plus line), summed in this order
    as the window sums mu_n +- mu_n' onto dot."""
    return (dot + _lam(q_bar, n)) + sign * _lam(q_bar, np.where(sign < 0, n - k, k - n))


def _scan_far(q_bar, dot, sign, k, n_lo, n_hi, thr):
    """The first offender in ascending n among the asymptotic triples
    n = n_lo..n_hi of one line, or None."""
    n = np.arange(n_lo, n_hi + 1)
    gaps = np.abs(_far_gaps(q_bar, dot, sign, k, n))
    bad = np.flatnonzero(gaps < thr)
    if not len(bad):
        return None
    n, gap = int(n[bad[0]]), float(gaps[bad[0]])
    return {"n": n, "n_in": n - int(k) if sign < 0 else int(k) - n, "gap": gap,
            "threshold": float(thr)}


def estimate_measure(pipeline, params, M: float, n_samples: int,
                     rng_seed: int, nu: int = 1, L_check: int = 4) -> MeasureReport:
    """Monte-Carlo m_r(Omega_0 \\ Omega_infty) at one gamma.

    `pipeline(omega) -> EigenTable` produces the final blocks for a sample
    (the measure stage's is `measure_pipeline`).  Each sample runs
    `_measure_sample` in a pool of forked workers, one per CPU of
    `os.sched_getaffinity(0)`, made and joined inside this call.  The pool
    needs the fork start method (Linux): `pipeline` may be a closure, which
    the workers inherit instead of unpickling; only the omegas and the
    per-sample outcomes cross the pipe.  The outcomes are folded in sample
    order, so the counts are identical to a serial run.  A SmallnessError,
    LieSeriesDiverged or LinAlgError makes the sample indeterminate and is
    counted by type, in the worker; any other error propagates with its own
    type.  The tau constraint tau > nu - 1 + alpha + tau0/alpha is enforced.
    The Diophantine test of Omega_0 scans 0 < |l| <= max(8, L_check).
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
