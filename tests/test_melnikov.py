import math

import numpy as np
import pytest

from fastwave.harmonics import Lattice, TorusFunction
from fastwave.craig_wayne import build_basis_matrix
from fastwave.kam import (KamParameters, SmallnessError, init_state, kam_iterate,
                          melnikov_step_test)
from fastwave.magnus import magnus_transform, sample_annulus
from fastwave.melnikov import (
    EigenTable, MeasureReport, audit_pruned_triples, balanced_threshold,
    eigen_table_from_state, eigen_table_unperturbed, estimate_measure,
    fitted_gamma_exponent, gamma_star, omega_infty_test, pruning_radii,
    resonance_census, single_set_measure_exact,
)
from fastwave.schrodinger import assemble_lq, eigensolve_blocks


def xcoeffs(J, entries):
    c = np.zeros(2 * J + 1, dtype=complex)
    for j, v in entries.items():
        c[j + J] = v
    return c


def make_params(gamma=1e-2, tau=2.6, alpha=0.5, tau0=1.0, N0=2.1):
    return KamParameters(tau=tau, gamma=gamma, alpha=alpha, N0=N0, tau0=tau0,
                         gamma0=gamma ** (alpha / 4.0))


def constant_table(J, c):
    mu = {0: np.array([math.sqrt(c)])}
    for n in range(1, J + 1):
        lam = math.sqrt(n * n + c)
        mu[n] = np.array([lam, lam])
    return EigenTable(J=J, q_bar=c, mu_blocks=mu)


def brute_force_check(omega, table, params, M, L_check, n_max):
    """Direct triple loop over the full index box (oracle)."""
    from fastwave.magnus import nonzero_ell_box
    ells = [np.zeros(1, dtype=int)] + list(nonzero_ell_box(1, L_check))
    for row in ells:
        ln = float(np.linalg.norm(row))
        dot = float(row @ np.atleast_1d(omega))
        for sign in (+1, -1):
            for n in range(n_max + 1):
                for m in range(n_max + 1):
                    if sign < 0 and ln == 0.0 and n == m:
                        continue
                    thr = balanced_threshold(params.gamma, params.tau,
                                             params.alpha, M, ln,
                                             abs(n + sign * m))
                    vals = dot + np.add.outer(table.values(n),
                                              sign * table.values(m))
                    if np.min(np.abs(vals)) < thr:
                        return False
    return True


def test_omega_infty_matches_brute_force_unperturbed():
    # q = const: eigenvalues sqrt(n^2 + c) in closed form; compare the
    # windowed scan against the full triple loop on a small box
    J, c, M = 8, 2.0, 40.0
    table = constant_table(J, c)
    params = make_params(gamma=0.3, tau=2.6)
    rng = np.random.default_rng(0)
    agree = 0
    for omega in sample_annulus(rng, M, 1, 40):
        got, _ = omega_infty_test(omega, table, params, M, L_check=2,
                                  n_max_cap=220)
        want = brute_force_check(omega, table, params, M, 2, 220)
        assert got == want
        agree += 1
    assert agree == 40


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
                    gap = min(abs(dot + (a + sign * b)) for a in table.values(n)
                              for b in table.values(m))
                    if gap < thr:
                        bad = (n, m, gap)
                        break
                if bad is None:
                    explicit += len(far)
                    for n, m in far:
                        gap = abs(dot + table.values(n)[0] + sign * table.values(m)[0])
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
    mu = {0: np.array([math.sqrt(c)])}
    for n in range(1, J + 1):
        lam = math.sqrt(n * n + c)
        mu[n] = np.array([lam - 0.1 / n, lam + 0.1 / n])
    table = EigenTable(J=J, q_bar=c, mu_blocks=mu)
    params = make_params(gamma=1e-2)
    lam = lambda n: math.sqrt(n * n + c)
    # exact resonances at l = -1: n = 77 against the block [2], and two
    # indices beyond the truncation (a neighbour on that line offends)
    in_window = np.array([lam(77) - mu[2][0]])
    far_only = np.array([lam(90) - lam(15)])
    for omega, window_offender in ((in_window, True), (far_only, False)):
        for collect in (False, True):
            ok, census = omega_infty_test(omega, table, params, M, L_check=2,
                                          collect_census=collect)
            want_ok, want_explicit, want_offenders = census_reference(
                omega, table, params, M, 2, collect)
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
                                       (-1, 1): 0.25, (-1, -1): 0.25},
                                 reality=True)
    M = 1000.0
    params = make_params(gamma=1e-2)
    rng = np.random.default_rng(1)
    tested = 0
    for omega in sample_annulus(rng, M, 1, 6):
        out = magnus_transform(qc, v, omega, M, params.gamma0, params.tau0,
                               sd, with_symbols=False)
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


def test_pruning_census_and_audit():
    J, c, M = 8, 2.0, 1000.0
    table = constant_table(J, c)
    params = make_params(gamma=1e-3)
    counts, budget = resonance_census(params, M, L_check=3,
                                      n_grid=range(0, 40000, 97), table=table)
    assert counts["unreachable"] > 0
    assert counts["diagonal"] > 0
    assert counts["linear"] > 0          # Lemma-5.14 pruning fires at large indices
    assert counts["explicit"] > 0
    assert budget["I_minus_1"] + budget["I_minus_2"] + budget["I_minus_3"] > 0
    # among reachable triples, the explicitly-checked fraction shrinks as M
    # grows (the grid must scale with the reachable range ~ C1 M <l>)
    counts_hi, _ = resonance_census(params, 10.0 * M, L_check=3,
                                    n_grid=range(0, 400000, 970), table=table)
    def frac(cn):
        reach = cn["diagonal"] + cn["linear"] + cn["explicit"]
        return cn["explicit"] / reach if reach else 0.0
    assert frac(counts_hi) <= frac(counts) + 1e-12
    # soundness: pruned triples never violate the explicit inequality
    rng = np.random.default_rng(3)
    omega = np.array([1.5 * M])
    triples = [((np.array([1]),), )]
    triples = [(np.array([1]), n, n, -1) for n in range(1, 50, 5)]
    assert audit_pruned_triples(params, M, omega, table, triples, rng)


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


def test_gamma_star():
    assert gamma_star(0.01, 0.5) == pytest.approx(min(0.01 ** 0.125, 0.1))
    for g in (1e-4, 1e-2, 0.5):
        for a in (0.3, 0.5, 0.9):
            assert gamma_star(g, a) == min(g ** (a / 4), g ** 0.5)


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
