import math
import multiprocessing
import os

import numpy as np
import pytest

from fastwave.harmonics import Lattice, TorusFunction
from fastwave.craig_wayne import build_basis_matrix
from fastwave.kam import (KamParameters, SmallnessError, balanced_threshold, init_state,
                          kam_iterate, melnikov_step_test)
from fastwave.magnus import diophantine_test, magnus_transform, sample_annulus
from fastwave.melnikov import (
    EigenTable, MeasureReport, _measure_sample, eigen_table_from_state,
    estimate_measure, fitted_gamma_exponent, measure_pipeline, omega_infty_test,
)
from fastwave import melnikov, opmatrix
from fastwave.opmatrix import LieSeriesDiverged
from fastwave.schrodinger import assemble_lq, eigensolve_blocks
from oracles import single_set_measure_exact, time_limit


def xcoeffs(J, entries):
    c = np.zeros(2 * J + 1, dtype=complex)
    for j, v in entries.items():
        c[j + J] = v
    return c


def make_params(gamma=1e-2, tau=2.6, alpha=0.5, tau0=1.0, N0=2.1):
    return KamParameters(tau=tau, gamma=gamma, alpha=alpha, N0=N0, tau0=tau0,
                         gamma0=gamma ** (alpha / 4.0))


def constant_table(J, c):
    return EigenTable(q_bar=c, mu=np.sqrt(np.arange(-J, J + 1) ** 2 + c))


def block_values(table, n):
    """Eigenvalues of block [n], one n at a time (oracle of EigenTable.pairs)."""
    if n <= table.J:
        return table.mu[[table.J - n, table.J + n]]
    lam = math.sqrt(n * n + table.q_bar)
    return np.array([lam, lam])


def brute_force_oracle(table, params, M, L_check, n_max):
    """Every (l, n, n') of the full index box n, n' <= n_max, in array form (oracle).

    The thresholds do not depend on omega, so they are built once per
    (|l|, |n +- n'|) here; the returned check(omega) takes the min over the
    whole box of |omega.l + mu_n +- mu_n'| for each (l, sign) and compares.
    """
    from fastwave.magnus import nonzero_ell_box
    ells = [np.zeros(1, dtype=int)] + list(nonzero_ell_box(1, L_check))
    ns = np.arange(n_max + 1)
    mus = np.array([block_values(table, n) for n in ns])    # [0]'s value twice
    lines = []
    for row in ells:
        ln = float(np.linalg.norm(row))
        thr_of_combo = np.array([balanced_threshold(params.gamma, params.tau,
                                                    params.alpha, M, ln, k)
                                 for k in range(2 * n_max + 1)])
        for sign in (+1, -1):
            sums = mus[:, :, None, None] + sign * mus[None, None, :, :]
            thr = thr_of_combo[np.abs(ns[:, None] + sign * ns[None, :])]
            if sign < 0 and ln == 0.0:
                np.fill_diagonal(thr, 0.0)     # (0, n, n) is excluded: never below 0
            lines.append((row, sums, thr))

    def check(omega):
        for row, sums, thr in lines:
            dot = float(row @ np.atleast_1d(omega))
            if np.any(np.abs(dot + sums).min(axis=(1, 3)) < thr):
                return False
        return True
    return check


def test_omega_infty_matches_brute_force_unperturbed():
    # q = const: eigenvalues sqrt(n^2 + c) in closed form; compare the
    # windowed scan against the full index box.  gamma = 0.3
    # rejects all 40 samples; gamma = 1e-2 passes some of them
    J, c, M = 8, 2.0, 40.0
    table = constant_table(J, c)
    verdicts = []
    for gamma in (0.3, 1e-2):
        params = make_params(gamma=gamma, tau=2.6)
        brute_force_check = brute_force_oracle(table, params, M, 2, 220)
        rng = np.random.default_rng(0)
        for omega in sample_annulus(rng, M, 1, 40):
            got, _ = omega_infty_test(omega, table, params, M, L_check=2,
                                      n_max_cap=220)
            want = brute_force_check(omega)
            assert got == want
            verdicts.append(want)
    assert len(verdicts) == 80
    assert not any(verdicts[:40]) and any(verdicts[40:])


def omega_infty_oracle(omega, table, params, M, L_check, n_max_cap=None,
                       collect_census=False):
    """The per-k-line scan that `omega_infty_test` vectorises (oracle).

    The same (l, sign, k) loop, with `_scan_k_line` checking one line at a
    time; `omega_infty_test` must return the same (passes, census).
    """
    from fastwave.magnus import nonzero_ell_box
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    nu = len(omega)
    gamma, tau, alpha = params.gamma, params.tau, params.alpha
    census = {"explicit": 0, "pruned_unreachable": 0, "offenders": []}
    ells = [np.zeros(nu, dtype=int)] + list(nonzero_ell_box(nu, L_check))
    ok = True
    slack = 2.0 * table.max_correction(10 * table.J) + 2.0
    for row in ells:
        ln = float(np.linalg.norm(row))
        dot = float(row @ omega)
        for sign in (+1, -1):
            t = -dot
            if sign > 0 and t < -slack:
                continue
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
    vals = dot + (table.pairs(ns).T[:, :, None] + sign * table.pairs(ms).T[:, None, :])
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


def random_table(rng, J, q_bar_range=(0.5, 3.0)):
    """Split 2x2 blocks around sqrt(n^2 + q_bar), q_bar and splits random."""
    c = rng.uniform(*q_bar_range)
    mu = np.empty(2 * J + 1)
    mu[J] = math.sqrt(abs(c)) + rng.uniform(-0.2, 0.2)
    for n in range(1, J + 1):
        mu[[J - n, J + n]] = np.sort(math.sqrt(n * n + c) + rng.uniform(-0.3, 0.3, size=2))
    return EigenTable(q_bar=c, mu=mu)


def near_threshold_omegas(table, params, M, nu):
    """omegas whose minus line n - n' = k0 at l = (-1, 0, ..) ends, at n = n_cap,
    with a gap a hair (1e-12) above or below +-threshold.

    The gaps of the line's far triples are monotone in n, so its end-point
    bound comes within round-off of the threshold and the census has to
    scan the line: with an offender, or with none.
    """
    n_cap = int(2.2 * M + 4 * table.J)
    k0 = n_cap // 2
    thr = balanced_threshold(params.gamma, params.tau, params.alpha, M, 1.0, k0)
    lam = lambda n: math.sqrt(n * n + table.q_bar)
    omegas = []
    for gap in (thr + 1e-12, thr - 1e-12, -thr + 1e-12, -thr - 1e-12):
        omega = np.full(nu, 1.3 * M)
        omega[0] = lam(n_cap) - lam(n_cap - k0) - gap     # omega.l = gap - lam_n + lam_n'
        omegas.append(omega)
    return omegas


@pytest.mark.parametrize("nu, M, L_check", [(1, 150.0, 3), (2, 30.0, 2)])
def test_omega_infty_matches_k_line_oracle(nu, M, L_check, monkeypatch):
    # random split tables, with q_bar > 0 and with q_bar < 0, and gammas from
    # loose to strict: passing samples, single offenders and many-offender
    # censuses, at both census settings.  Each table also meets omegas whose
    # far line ends within round-off of its threshold, so the census scans
    # that line instead of clearing it by its end-point bound
    scans = []
    scan_far = melnikov._scan_far
    monkeypatch.setattr(melnikov, "_scan_far", lambda *a: scans.append(a) or scan_far(*a))
    rng = np.random.default_rng(10 + nu)
    failing = with_offenders = near_scans = 0
    for q_bar_range in ((0.5, 3.0), (-0.9, -0.2)):
        for trial in range(12):
            table = random_table(rng, int(rng.integers(3, 9)), q_bar_range)
            params = make_params(gamma=(1e-3, 3e-2, 0.5)[trial % 3])
            near = near_threshold_omegas(table, params, M, nu)
            for omega in list(sample_annulus(rng, M, nu, 4)) + near:
                for collect in (False, True):
                    scans.clear()
                    got = omega_infty_test(omega, table, params, M, L_check,
                                           collect_census=collect)
                    want = omega_infty_oracle(omega, table, params, M, L_check,
                                              collect_census=collect)
                    assert got == want
                    failing += not got[0]
                    with_offenders += len(got[1]["offenders"]) > 1
                    near_scans += any(omega is w for w in near) and len(scans) > 0
    assert failing > 0 and with_offenders > 0 and near_scans > 0


def test_omega_infty_oracle_excluded_diagonal_and_caps():
    # l = 0 only: unsplit blocks make every (0, n, n) gap exactly 0, so the
    # scan passes only if the diagonal is excluded on the window and beyond;
    # a small n cap cuts the lines short
    J, c, M = 6, 2.0, 100.0
    table = constant_table(J, c)
    params = make_params(gamma=1e-2)
    rng = np.random.default_rng(4)
    for omega in sample_annulus(rng, M, 1, 5):
        for cap in (None, 3, 40):
            for collect in (False, True):
                got = omega_infty_test(omega, table, params, M, L_check=0,
                                       n_max_cap=cap, collect_census=collect)
                assert got == omega_infty_oracle(omega, table, params, M, 0,
                                                 n_max_cap=cap,
                                                 collect_census=collect)
                assert got[0] and got[1]["explicit"] > 0


def census_reference(omega, table, params, M, L_check, collect_census):
    """Plain per-triple loop in the scan's order and with its counting rules.

    On each k-line the window triples (n or n' <= J) count up to and
    including the first offender; if none offends, the asymptotic triples
    (both > J) all count.  Returns (passes, explicit, offenders).
    """
    from fastwave.magnus import nonzero_ell_box
    J = table.J
    slack = 2.0 * table.max_correction(10 * J) + 2.0
    explicit, offenders, ok = 0, [], True
    for row in [np.zeros(1, dtype=int)] + list(nonzero_ell_box(1, L_check)):
        ln = float(np.linalg.norm(row))
        dot = float(row @ omega)
        n_cap = int(2.2 * M * max(1.0, ln) + 4 * J)
        for sign in (+1, -1):
            if sign > 0 and -dot < -slack:
                continue
            k_lo = max(0 if sign > 0 else -10 * J, math.floor(-dot - slack))
            for k in range(k_lo, math.ceil(-dot + slack) + 1):
                thr = balanced_threshold(params.gamma, params.tau, params.alpha,
                                         M, ln, abs(k))
                line = [(n, n - k if sign < 0 else k - n) for n in range(n_cap + 1)]
                line = [(n, m) for n, m in line if 0 <= m <= n_cap
                        and not (sign < 0 and ln == 0.0 and n == m)]
                window = [(n, m) for n, m in line if min(n, m) <= J]
                far = [(n, m) for n, m in line if min(n, m) > J]
                bad = None
                for n, m in window:
                    explicit += 1
                    gap = min(abs(dot + (a + sign * b)) for a in block_values(table, n)
                              for b in block_values(table, m))
                    if gap < thr:
                        bad = (n, m, gap)
                        break
                if bad is None:
                    explicit += len(far)
                    for n, m in far:
                        gap = abs(dot + block_values(table, n)[0]
                                  + sign * block_values(table, m)[0])
                        if gap < thr:
                            bad = (n, m, gap)
                            break
                if bad is not None:
                    ok = False
                    offenders.append({"ell": tuple(int(c) for c in row), "sign": sign,
                                      "n": bad[0], "n_in": bad[1], "gap": float(bad[2]),
                                      "threshold": thr})
                    if not collect_census:
                        return ok, explicit, offenders
    return ok, explicit, offenders


def test_omega_infty_census_matches_triple_loop():
    # split 2x2 blocks inside the truncation, so the window is not symmetric
    J, c, M = 4, 2.0, 50.0
    js = np.arange(-J, J + 1)
    # block [n] = (lambda_n - 0.1/n, lambda_n + 0.1/n) at the indices (-n, n)
    mu = np.sqrt(js ** 2 + c) + 0.1 * np.sign(js) / np.maximum(1, np.abs(js))
    table = EigenTable(q_bar=c, mu=mu)
    params = make_params(gamma=1e-2)
    lam = lambda n: math.sqrt(n * n + c)
    # exact resonances at l = -1: n = 77 against the block [2], and two
    # indices beyond the truncation (a neighbour on that line offends)
    in_window = np.array([lam(77) - mu[J - 2]])
    far_only = np.array([lam(90) - lam(15)])
    for omega, window_offender in ((in_window, True), (far_only, False)):
        for collect in (False, True):
            ok, census = omega_infty_test(omega, table, params, M, L_check=2,
                                          collect_census=collect)
            want_ok, want_explicit, want_offenders = census_reference(
                omega, table, params, M, 2, collect)
            assert (ok, census) == omega_infty_oracle(omega, table, params, M, 2,
                                                      collect_census=collect)
            assert not ok and not want_ok
            assert census["explicit"] == want_explicit
            assert census["offenders"] == want_offenders
            lows = [min(o["n"], o["n_in"]) <= J for o in census["offenders"]]
            assert lows[0] == window_offender
            if not window_offender:
                assert not any(lows)


def test_omega_infty_engineered_resonance():
    # gamma small enough that the engineered exact resonance is the only
    # offender in its window
    J, c, M = 8, 2.0, 1000.0
    table = constant_table(J, c)
    params = make_params(gamma=1e-4)
    # omega . l = -(lam_n - lam_m) at l = 1, n - m = 1500 - few
    lam = lambda n: math.sqrt(n * n + c)
    omega = np.array([lam(1700) - lam(200)])
    assert M <= omega[0] <= 2 * M
    ok, census = omega_infty_test(omega, table, params, M, L_check=2,
                                  collect_census=True)
    assert not ok
    # the offender sits on the engineered resonance line (same l, same
    # block-distance class; neighbouring n on the line can offend first)
    hits = [o for o in census["offenders"]
            if abs(o["n"] - o["n_in"]) == 1500 and abs(o["ell"][0]) == 1
            and o["sign"] == -1]
    assert hits


def test_omega_infty_nested_in_step_sets():
    # every omega passing the final conditions passes the per-step conditions
    J, L = 10, 4
    lat = Lattice(1, L, J)
    qc = xcoeffs(J, {0: 1.0, 1: 0.5, -1: 0.5})
    sd = eigensolve_blocks(assemble_lq(qc, J), q=qc)
    basis = build_basis_matrix(sd)
    v = TorusFunction.from_modes(lat, {(1, 1): 0.25, (1, -1): 0.25,
                                       (-1, 1): 0.25, (-1, -1): 0.25})
    M = 1000.0
    params = make_params(gamma=1e-2)
    rng = np.random.default_rng(1)
    tested = 0
    for omega in sample_annulus(rng, M, 1, 6):
        out = magnus_transform(qc, v, omega, M, params.gamma0, params.tau0, sd)
        state = init_state(out, sd, basis, params, lat)
        final, _ = kam_iterate(state, p_max=2)
        table = eigen_table_from_state(final, sd.q_bar)
        ok, _ = omega_infty_test(omega, table, params, M, L_check=L)
        if ok:
            for st in (state, final):
                ok_p, worst = melnikov_step_test(st)
                assert ok_p, worst
            tested += 1
    assert tested > 0


def test_monotone_in_gamma():
    # Omega_infty(gamma') contains Omega_infty(gamma) for gamma' <= gamma
    J, c, M = 8, 2.0, 1000.0
    table = constant_table(J, c)
    rng = np.random.default_rng(2)
    samples = sample_annulus(rng, M, 1, 150)
    passed = {}
    for gamma in (1e-2, 1e-3, 1e-4):
        params = make_params(gamma=gamma)
        passed[gamma] = {i for i, w in enumerate(samples)
                         if omega_infty_test(w, table, params, M, 3)[0]}
    assert passed[1e-2] <= passed[1e-3] <= passed[1e-4]


def test_single_set_measure_exact_bound():
    M = 1000.0
    for ell in (1, -2, 5):
        for c in (0.0, 1234.5, -800.0):
            for delta in (0.01, 1.0):
                measured, bound = single_set_measure_exact(M, ell, c, delta)
                assert measured <= bound + 1e-12


def test_estimate_measure_guards():
    params = make_params(gamma=1e-2)
    with pytest.raises(ValueError):
        estimate_measure(lambda w: None, params, 1000.0, 50, 0)
    bad = make_params(gamma=1e-2, tau=1.0)   # violates the tau constraint
    with pytest.raises(ValueError):
        estimate_measure(lambda w: None, bad, 1000.0, 200, 0)


def test_estimate_measure_runs_and_reports():
    J, c, M = 8, 2.0, 1000.0
    table = constant_table(J, c)
    params = make_params(gamma=1e-2)
    rep = estimate_measure(lambda w: table, params, M, 200, rng_seed=7,
                           L_check=3)
    assert rep.n_samples == 200
    assert 0.0 <= rep.m_r <= 1.0
    lo, hi = rep.confidence_interval()
    assert lo <= rep.m_r <= hi
    d = rep.to_json_dict()
    assert d["gamma"] == 1e-2 and "ci95" in d


def test_estimate_measure_classifies_errors():
    params = make_params(gamma=1e-2)

    def smallness(omega):
        raise SmallnessError("remainder grew")

    rep = estimate_measure(smallness, params, 1000.0, 100, rng_seed=7)
    assert rep.indeterminate == rep.n_samples - rep.rejected_omega0 > 0
    assert rep.indeterminate_by_type == {"SmallnessError": rep.indeterminate,
                                         "LieSeriesDiverged": 0, "LinAlgError": 0}
    assert rep.to_json_dict()["indeterminate_by_type"] == rep.indeterminate_by_type

    def broken(omega):
        raise KeyError("a programming error, not an indeterminate sample")

    with pytest.raises(KeyError):
        estimate_measure(broken, params, 1000.0, 100, rng_seed=7)


def toy_kam_pipeline(params, M):
    """The measure stage's per-omega pipeline at J=4, L=1 (perfbench's toy size)."""
    v = TorusFunction.from_modes(Lattice(1, 1, 4), {(1, 1): 0.25, (1, -1): 0.25,
                                                    (-1, 1): 0.25, (-1, -1): 0.25})
    return measure_pipeline(xcoeffs(4, {0: 1.0, 1: 0.5, -1: 0.5}), v, params, M)


def fold_in_process(pipeline, params, M, n, seed, L_check) -> MeasureReport:
    """estimate_measure's report with its samples run and folded in this process."""
    want = MeasureReport(M=M, gamma=params.gamma, tau=params.tau, alpha=params.alpha,
                         n_samples=n)
    for omega in sample_annulus(np.random.default_rng(seed), M, 1, n):
        verdict, counts = _measure_sample(omega, pipeline, params, M, L_check, 8)
        if verdict == "rejected_omega0":
            want.rejected_omega0 += 1
            continue
        assert verdict in ("passed", "rejected_infty")
        want.rejected_infty += verdict == "rejected_infty"
        for key, count in counts.items():
            want.pruning[key] = want.pruning.get(key, 0) + count
    return want


def test_estimate_measure_pool_matches_in_process_fold():
    M, n, seed, L_check = 1e2, 100, 7, 1
    mixed = []          # both verdicts of omega_infty_test occur at some gamma
    for gamma in (1e-2, 1e-4):
        params = make_params(gamma=gamma)
        pipeline = toy_kam_pipeline(params, M)
        rep = estimate_measure(pipeline, params, M, n, rng_seed=seed, L_check=L_check)
        assert multiprocessing.active_children() == []
        want = fold_in_process(pipeline, params, M, n, seed, L_check)
        assert rep.to_json_dict() == want.to_json_dict()
        mixed.append(0 < want.rejected_infty < n and want.pruning["explicit"] > 0)
    assert any(mixed)


def test_estimate_measure_forks_safely_after_ad_on_two_threads():
    # the in-process fold runs ad here, on two threads where there are two
    # CPUs, so the pool forks a process whose helper thread exists; a worker
    # that submitted to the helper it inherits would wait forever
    M, n, seed, L_check = 1e2, 100, 7, 1
    params = make_params(gamma=1e-2)
    pipeline = toy_kam_pipeline(params, M)
    want = fold_in_process(pipeline, params, M, n, seed, L_check)
    assert (opmatrix._helper() is None) == (len(os.sched_getaffinity(0)) == 1)
    with time_limit(60):
        rep = estimate_measure(pipeline, params, M, n, rng_seed=seed, L_check=L_check)
    assert multiprocessing.active_children() == []
    assert rep.to_json_dict() == want.to_json_dict()


def test_estimate_measure_pool_counts_errors_by_type():
    J, c, M = 8, 2.0, 1000.0
    table = constant_table(J, c)
    params = make_params(gamma=1e-2)

    def mixed(omega):
        if omega[0] > 1.5 * M:
            raise SmallnessError("remainder grew")
        if omega[0] < -1.5 * M:
            raise LieSeriesDiverged("terms grew")
        return table

    rep = estimate_measure(mixed, params, M, 300, rng_seed=3, L_check=3)
    assert multiprocessing.active_children() == []
    kept = [w[0] for w in sample_annulus(np.random.default_rng(3), M, 1, 300)
            if diophantine_test(w, M, params.gamma0, params.tau0, 8)[0]]
    small = sum(w > 1.5 * M for w in kept)
    diverged = sum(w < -1.5 * M for w in kept)
    assert small > 0 and diverged > 0
    assert rep.rejected_omega0 == 300 - len(kept)
    assert rep.indeterminate_by_type == {"SmallnessError": small,
                                         "LieSeriesDiverged": diverged,
                                         "LinAlgError": 0}
    assert rep.indeterminate == small + diverged

    def broken(omega):
        if omega[0] < 0:
            raise KeyError("a programming error, not an indeterminate sample")
        return table

    with pytest.raises(KeyError):
        estimate_measure(broken, params, M, 100, rng_seed=7, L_check=3)
    assert multiprocessing.active_children() == []


def test_gamma_sweep_monotone_and_exponent():
    # unperturbed table keeps this fast; rejection shrinks with gamma
    J, c, M = 8, 2.0, 1000.0
    table = constant_table(J, c)
    ms = []
    gammas = (1e-2, 1e-3, 1e-4)
    for gamma in gammas:
        params = make_params(gamma=gamma, tau=2.6)
        rep = estimate_measure(lambda w: table, params, M, 250, rng_seed=11,
                               L_check=4)
        ms.append(rep.m_r)
    assert ms[0] > ms[1] > ms[2] > 0
    expo = fitted_gamma_exponent(gammas, ms)
    assert expo >= 0.35


def test_extreme_gamma_near_total_rejection():
    # gamma -> 1: the conditions are so strong almost everything fails
    J, c, M = 6, 2.0, 50.0
    table = constant_table(J, c)
    params = KamParameters(tau=2.6, gamma=0.999, alpha=0.5, N0=2.1, tau0=1.0,
                           gamma0=0.05)   # permissive Omega_0 so Omega_infty decides
    rng = np.random.default_rng(5)
    rejected = 0
    n = 60
    for omega in sample_annulus(rng, M, 1, n):
        ok, _ = omega_infty_test(omega, table, params, M, L_check=3)
        if not ok:
            rejected += 1
    assert rejected >= 0.8 * n
