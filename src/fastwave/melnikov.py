"""Construction and Monte-Carlo measure estimation of the non-resonant set.

The final frequency set keeps every omega whose divisors satisfy the balanced
conditions |omega.l + mu_n +- mu_n'| >= (gamma/<l>^tau) <n +- n'>^alpha / M^alpha
for the eigenvalues of the final KAM blocks.  The census runs over all block
pairs up to n_max(l) ~ C1 M <l> (beyond which the sets are empty), using the
spectral asymptotics lambda_n = sqrt(n^2 + q_bar + d(n)) outside the truncation
and the KAM-corrected blocks inside it.  Pruning follows the three emptiness
lemmas: unreachable block distances, Diophantine-protected diagonal triples,
and large-index triples reduced to the first-order linear conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibration import CONSTANTS
from .kam import SmallnessError
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
    rejected_omega0: int = 0
    rejected_infty: int = 0
    indeterminate: int = 0
    indeterminate_by_type: dict = field(default_factory=lambda: dict.fromkeys(
        (e.__name__ for e in INDETERMINATE_ERRORS), 0))
    pruning: dict = field(default_factory=dict)

    @property
    def m_r(self) -> float:
        """Relative measure of Omega_0 \\ Omega_infty."""
        return self.rejected_infty / self.n_samples

    def confidence_interval(self, z: float = 1.96):
        """Wilson 95% interval for m_r."""
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

    mu[n] is a 1- or 2-vector for n <= J; for n > J both eigenvalues are
    taken as lambda_n = sqrt(n^2 + q_bar) (the l2 tail of d is below the
    Melnikov windows there, as is the <n>^{-alpha}-weighted KAM drift).
    """

    J: int
    q_bar: float
    mu_blocks: dict

    def __post_init__(self):
        # (J+1, 2) eigenvalue pairs of the explicit blocks, [0]'s value twice
        self._inner = np.array([np.resize(np.asarray(self.mu_blocks[n], dtype=float), 2)
                                for n in range(self.J + 1)])

    def values(self, n: int) -> np.ndarray:
        if n <= self.J:
            return self.mu_blocks[n]
        lam = math.sqrt(n * n + self.q_bar)
        return np.array([lam, lam])

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
    mu, _ = state.block_eigs()
    return EigenTable(J=state.lattice.J, q_bar=float(q_bar), mu_blocks=mu)


def eigen_table_unperturbed(sd) -> EigenTable:
    mu = {0: np.array([sd.lam[sd.idx(0)]])}
    for n in range(1, sd.J + 1):
        mu[n] = np.array(sorted([sd.lam[sd.idx(-n)], sd.lam[sd.idx(n)]]))
    return EigenTable(J=sd.J, q_bar=sd.q_bar, mu_blocks=mu)


def balanced_threshold(gamma: float, tau: float, alpha: float, M: float,
                       ell_norm: float, combo: int) -> float:
    return (gamma / max(1.0, ell_norm) ** tau) * max(1, combo) ** alpha / M ** alpha


def omega_infty_test(omega, table: EigenTable, params, M: float, L_check: int,
                     n_max_cap: int | None = None, collect_census: bool = False):
    """(passes, offender census) of the balanced conditions at this omega.

    params needs fields gamma, tau, alpha, gamma0, tau0.  The scan covers
    (l, n, n') with |l| <= L_check and n, n' inside the reachable window
    |n +- n'| within slack of |omega.l| (everything else is empty by the
    pruning lemmas; the census records the classification counts).
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    nu = len(omega)
    gamma, tau, alpha = params.gamma, params.tau, params.alpha
    census = {"explicit": 0, "pruned_unreachable": 0, "pruned_diagonal": 0,
              "pruned_linear": 0, "offenders": []}

    from .magnus import nonzero_ell_box
    ells = [np.zeros(nu, dtype=int)] + list(nonzero_ell_box(nu, L_check))
    ok = True
    slack = 2.0 * table.max_correction(10 * table.J) + 2.0
    for row in ells:
        ln = float(np.linalg.norm(row))
        dot = float(row @ omega)
        for sign in (+1, -1):
            # reachable combos k = n (+-) n': |dot + k +- corrections| small
            t = -dot
            if sign > 0 and t < -slack:
                continue                      # mu_n + mu_n' >= 0: t must be ~ positive
            k_lo = max(0 if sign > 0 else -10 * table.J, int(math.floor(t - slack)))
            k_hi = int(math.ceil(t + slack))
            n_cap = n_max_cap if n_max_cap is not None else int(
                2.2 * M * max(1.0, ln) + 4 * table.J)
            for k in range(k_lo, k_hi + 1):
                passes, n_checked = _scan_k_line(table, dot, sign, k, n_cap,
                                                 gamma, tau, alpha, M, ln,
                                                 row, census)
                census["explicit"] += n_checked
                if not passes:
                    ok = False
                    if not collect_census:
                        return False, census
    return ok, census


def _scan_k_line(table, dot, sign, k, n_cap, gamma, tau, alpha, M, ln, ell,
                 census):
    """Check all (n, n') with n - n' = k (minus) or n + n' = k (plus).

    Returns (passes, checked).  In the truncation window `checked` counts
    the triples up to and including the first offender, in ascending n; the
    asymptotic region counts all of its triples.  The first offender goes to
    the census.
    """
    thr = balanced_threshold(gamma, tau, alpha, M, ln, abs(k))
    J = table.J
    if sign > 0 and k < 0:
        return True, 0
    # n range along the k-line
    if sign < 0:
        n_lo, n_hi = max(0, k), min(n_cap, n_cap + k)
    else:
        n_lo, n_hi = 0, min(k, n_cap)

    def first_offender(ns, ms, gaps):
        """Index of the first triple (ns, ms) with gap < thr, recorded; or None."""
        bad = gaps < thr
        if not np.any(bad):
            return None
        i = int(np.argmax(bad))
        census["offenders"].append(
            {"ell": tuple(int(c) for c in np.atleast_1d(ell)),
             "sign": sign, "n": int(ns[i]), "n_in": int(ms[i]),
             "gap": float(gaps[i]), "threshold": thr})
        return i

    # blocks touching the truncation: explicit 2x2 eigenvalues.  Two small
    # windows: n <= J, or n_in <= J.
    if sign < 0:
        other = np.arange(max(n_lo, k), min(n_hi, J + k) + 1)
    else:
        other = np.arange(max(n_lo, k - J), n_hi + 1)
    ns = np.union1d(np.arange(n_lo, min(n_hi, J) + 1), other)
    ms = ns - k if sign < 0 else k - ns
    keep = (ms >= 0) & (ms <= n_cap)
    if ln == 0.0 and sign < 0:
        keep &= ns != ms          # excluded diagonal triples
    ns, ms = ns[keep], ms[keep]
    vals = dot + (table.pairs(ns)[:, :, None] + sign * table.pairs(ms)[:, None, :])
    i = first_offender(ns, ms, np.min(np.abs(vals), axis=(1, 2)))
    if i is not None:
        return False, i + 1
    checked = len(ns)
    # asymptotic region: both indices beyond the truncation, vectorized
    if sign < 0 and k == 0 and ln == 0.0:
        return True, checked      # the whole (0, n, n) diagonal is excluded
    a_lo = max(n_lo, J + 1, (J + 1 + k) if sign < 0 else 0)
    if sign > 0:
        a_hi = min(n_hi, k - (J + 1))
    else:
        a_hi = n_hi
    if a_hi >= a_lo:
        ns = np.arange(a_lo, a_hi + 1, dtype=float)
        ms = ns - k if sign < 0 else k - ns
        keep = (ms >= 0) & (ms <= n_cap) & (ms > J)
        ns, ms = ns[keep], ms[keep]
        if len(ns):
            vals = dot + np.sqrt(ns ** 2 + table.q_bar) \
                + sign * np.sqrt(ms ** 2 + table.q_bar)
            checked += len(ns)
            if first_offender(ns, ms, np.abs(vals)) is not None:
                return False, checked
    return True, checked


def pruning_radii(params, M: float):
    """R0(l), R1(l) of the diagonal and large-index emptiness lemmas."""
    C = CONSTANTS["kam_drift_C"]
    m_sq = CONSTANTS.get("m_sq_bound", 3.0)
    gamma0 = params.gamma0
    gamma1 = gamma0 ** 2
    tau1 = params.tau0

    def R0(ell_norm):
        return 4.0 * C / (gamma0 * M) ** 2 * max(1.0, ell_norm) ** params.tau0

    def R1(ell_norm):
        return (8.0 * max(m_sq, C / (gamma0 * M)) * M ** params.alpha / gamma1
                * max(1.0, ell_norm) ** tau1)
    return R0, R1


def resonance_census(params, M: float, L_check: int, n_grid, table: EigenTable):
    """Classify grid triples by the pruning lemma that disposes of them.

    Returns counts {unreachable, diagonal, linear, explicit} plus the
    I- = I-1 + I-2 + I-3 budget mirror of the measure-estimate proof.
    """
    R0, R1 = pruning_radii(params, M)
    C1 = 2.0 + (2.0 * CONSTANTS.get("m_sq_bound", 3.0) + 1.0) / M
    counts = {"unreachable": 0, "diagonal": 0, "linear": 0, "explicit": 0}
    budget = {"I_minus_1": 0, "I_minus_2": 0, "I_minus_3": 0}
    from .magnus import nonzero_ell_box
    ells = list(nonzero_ell_box(1, L_check)) + [np.zeros(1, dtype=int)]
    for row in ells:
        ln = float(np.linalg.norm(row))
        for n in n_grid:
            for n_in in n_grid:
                if ln == 0.0 and n == n_in:
                    continue
                k = abs(n - n_in)
                if k > C1 * M * max(1.0, ln):
                    counts["unreachable"] += 1
                    continue
                if ln > 0 and n == n_in and max(1, n) ** params.alpha >= R0(ln):
                    counts["diagonal"] += 1
                    budget["I_minus_1"] += 1
                    continue
                if (max(1, min(n, n_in)) ** params.alpha
                        * max(1, k) ** params.alpha >= R1(ln)):
                    counts["linear"] += 1
                    budget["I_minus_2"] += 1
                    continue
                counts["explicit"] += 1
                budget["I_minus_3"] += 1
    return counts, budget


def audit_pruned_triples(params, M: float, omega, table: EigenTable,
                         triples, rng) -> bool:
    """1% audit: no pruned triple actually violates the explicit inequality."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    sel = [t for t in triples if rng.random() < 0.01] or triples[:1]
    for (ell, n, n_in, sign) in sel:
        dot = float(np.dot(ell, omega))
        vals = dot + np.add.outer(table.values(n), sign * table.values(n_in))
        thr = balanced_threshold(params.gamma, params.tau, params.alpha, M,
                                 float(np.linalg.norm(ell)), abs(n + sign * n_in))
        if np.min(np.abs(vals)) < thr:
            return False
    return True


def single_set_measure_exact(M: float, ell: int, c: float, delta: float):
    """Exact measure of {omega in R_M : |omega l + c| <= delta} for nu = 1,
    against the Lipschitz-window bound 2 delta (4M)^{nu-1} / (|l| - c0)."""
    lo, hi = (-c - delta) / ell, (-c + delta) / ell
    if lo > hi:
        lo, hi = hi, lo
    total = 0.0
    for a, b in ((-2 * M, -M), (M, 2 * M)):
        total += max(0.0, min(b, hi) - max(a, lo))
    bound = 2 * delta / abs(ell)
    return total, bound


def estimate_measure(pipeline, params, M: float, n_samples: int,
                     rng_seed: int, nu: int = 1, L_check: int = 4,
                     L_dioph: int | None = None) -> MeasureReport:
    """Monte-Carlo m_r(Omega_0 \\ Omega_infty) at one gamma.

    `pipeline(omega) -> EigenTable` produces the final blocks for a sample
    (a reduced-depth KAM run).  A SmallnessError, LieSeriesDiverged or
    LinAlgError makes the sample indeterminate and is counted by type; any
    other error propagates.  The tau constraint
    tau > nu - 1 + alpha + tau0/alpha is enforced.
    """
    if n_samples < 100:
        raise ValueError("need at least 100 samples for a meaningful estimate")
    if not params.tau_constraint_ok(nu):
        raise ValueError("tau violates tau > nu - 1 + alpha + tau0/alpha")
    rng = np.random.default_rng(rng_seed)
    samples = sample_annulus(rng, M, nu, n_samples)
    L_dioph = L_dioph if L_dioph is not None else max(8, L_check)
    report = MeasureReport(M=M, gamma=params.gamma, tau=params.tau,
                           alpha=params.alpha, n_samples=n_samples)
    pruning_totals = {}
    for omega in samples:
        ok0, _ = diophantine_test(omega, M, params.gamma0, params.tau0, L_dioph)
        if not ok0:
            report.rejected_omega0 += 1
            continue
        try:
            table = pipeline(omega)
        except INDETERMINATE_ERRORS as exc:
            report.indeterminate += 1
            kind = next(e for e in INDETERMINATE_ERRORS if isinstance(exc, e))
            report.indeterminate_by_type[kind.__name__] += 1
            continue
        ok, census = omega_infty_test(omega, table, params, M, L_check)
        for key in ("explicit", "pruned_unreachable"):
            pruning_totals[key] = pruning_totals.get(key, 0) + census.get(key, 0)
        if not ok:
            report.rejected_infty += 1
    report.pruning = pruning_totals
    return report


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


def gamma_star(gamma: float, alpha: float) -> float:
    """The combined smallness gamma* = min{gamma^(alpha/4), gamma^(1/2)}."""
    return min(gamma ** (alpha / 4.0), gamma ** 0.5)
