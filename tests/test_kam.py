import dataclasses
import os

import numpy as np
import pytest
import scipy.linalg

from fastwave.harmonics import Lattice, TorusFunction
from fastwave.craig_wayne import build_basis_matrix
from fastwave.kam import (
    KamParameters, KamState, SmallnessError, diagonal_correction, final_spectrum,
    init_state, kam_iterate, kam_step, melnikov_step_test, smallness_check,
    solve_homological,
)
from fastwave import opmatrix
from fastwave.magnus import magnus_transform
from fastwave.melnikov import estimate_measure
from fastwave.opmatrix import BlockOperator, LieSeriesDiverged, ad
from fastwave.psdo import DEFAULT_CUTOFF
from fastwave.schrodinger import assemble_lq, eigensolve_blocks
from oracles import (block, block_eigs_oracle, block_slice, diagonal_correction_oracle,
                     final_spectrum_oracle, in_forked_child, left_right_ops, melnikov_step_oracle,
                     normal_form_blocks, pair_to_dense, stack_pair, structure_defect,
                     three_series_remainder, zero_op)


def xcoeffs(J, entries):
    c = np.zeros(2 * J + 1, dtype=complex)
    for j, v in entries.items():
        c[j + J] = v
    return c


def toy_setup(J=12, L=4, M=1000.0, gamma=0.5, tau=2.6, alpha=0.5, N0=2,
              v_modes=None, seed=0):
    lat = Lattice(1, L, J)
    qc = xcoeffs(J, {0: 1.0, 1: 0.5, -1: 0.5})
    sd = eigensolve_blocks(assemble_lq(qc, J), q=qc)
    basis = build_basis_matrix(sd)
    if v_modes is None:
        v_modes = {(1, 1): 0.25, (1, -1): 0.25, (-1, 1): 0.25, (-1, -1): 0.25}
    v = TorusFunction.from_modes(lat, v_modes)
    omega = np.array([1.5 * M])
    params = KamParameters(tau=tau, gamma=gamma, alpha=alpha, N0=N0,
                           tau0=1.0, gamma0=gamma ** (alpha / 4.0))
    out = magnus_transform(qc, v, omega, M, params.gamma0, params.tau0, sd)
    state = init_state(out, sd, basis, params, lat)
    return state, out, sd, basis, lat


def homological_residual(state: KamState, X: BlockOperator, Nval=None) -> float:
    """max block residual of i[X, H0] - omega.dphi X + Pi_N V - Z (cutoff-free blocks)."""
    pr = state.params
    Nval = pr.N(state.p) if Nval is None else Nval
    lat, K = state.lattice, state.V.K
    H0pair = stack_pair(BlockOperator.time_independent(lat, state.H0, K=K),
                        zero_op(lat, K=K))
    lhs = ad(X, H0pair) - X.omega_dphi(state.omega)
    VN, _ = state.V.project(Nval)
    rhs_d = BlockOperator.time_independent(lat, diagonal_correction(state), K=K) - VN[0]
    return max((lhs[0] - rhs_d).norm_max(), (lhs[1] + VN[1]).norm_max())


def test_params_schedule_and_guards():
    p = KamParameters(tau=2.6, gamma=0.1, alpha=0.5, N0=2, tau0=1.0, gamma0=0.1)
    assert p.N(-1) == 1.0 and p.N(0) == 2.0
    assert p.N(2) == pytest.approx(2.0 ** 2.25)
    assert p.rho == pytest.approx(6 * 2.6 + 4)
    assert p.beta == pytest.approx(p.rho + 1)
    assert p.Lambda == pytest.approx(2 * 2.6 + 2 + p.rho)
    assert p.tau_constraint_ok(nu=1)
    with pytest.raises(ValueError):
        KamParameters(tau=2.6, gamma=0.1, alpha=1.0, N0=2, tau0=1.0, gamma0=0.1)
    with pytest.raises(ValueError):
        KamParameters(tau=2.6, gamma=1.5, alpha=0.5, N0=2, tau0=1.0, gamma0=0.1)


def test_init_state_blocks_and_structure():
    state, out, sd, basis, lat = toy_setup()
    assert state.selfadjoint_defect() < 1e-12
    assert structure_defect(state.V) < 1e-11 * max(1.0, state.V.norm_max())
    # H0 is diag(lambda_j), j = -J..J: block [3] carries lambda_{-3}, lambda_3
    assert np.array_equal(state.H0, np.diag(sd.lam))
    assert normal_form_blocks(state)[3][0, 0] == sd.lam[sd.idx(-3)]
    assert normal_form_blocks(state)[3][1, 1] == sd.lam[sd.idx(3)]


def test_ad_sees_only_hamiltonian_pairs(monkeypatch):
    # ad's four-product form holds on Hamiltonian pairs only (opmatrix.ad's
    # precondition): every operand that the KAM iteration and the sigma4
    # chain check pass in has the structure, and each W^d is self-adjoint
    # bit for bit
    from fastwave import kam
    from fastwave.magnus import adjoint_chain_check
    calls = []

    def checked_ad(X, V, x_grid=None):
        for P in (X, V):
            assert structure_defect(P) <= 1e-12 * P.norm_max()
        W = ad(X, V, x_grid)
        assert np.array_equal(W[0].adjoint().mats, W[0].mats)
        calls.append(1)
        return W
    monkeypatch.setattr(opmatrix, "ad", checked_ad)
    monkeypatch.setattr(kam, "ad", checked_ad)
    state, out, *_ = toy_setup()
    final, _ = kam_iterate(state, p_max=3)
    n_kam = len(calls)
    assert final.p == 3 and n_kam > 3 * 3
    adjoint_chain_check(out)
    assert len(calls) == n_kam + 3


def test_init_state_v_zero_trivial():
    state, *_ = toy_setup(v_modes={})
    assert state.delta(state.s0) == 0.0
    final, gens = kam_iterate(state, state.params.p_max)
    assert final.p == 0
    ok, margin = smallness_check(state)
    assert ok and margin == float("inf")


def test_delta_scaling_with_M():
    deltas = []
    for M in (1e2, 1e3, 1e4):
        state, *_ = toy_setup(M=M)
        deltas.append(state.delta(state.s0))
    slope = np.polyfit(np.log([1e2, 1e3, 1e4]), np.log(deltas), 1)[0]
    assert abs(slope + 1.0) < 0.1


def test_smallness_check_balance():
    # strong driving: the alpha < 1 balance flips the verdict between
    # M = 1e2 (fails, and the iteration indeed diverges there) and M = 1e4
    A = 1000.0
    vm = {(1, 1): A / 4, (1, -1): A / 4, (-1, 1): A / 4, (-1, -1): A / 4}
    state_small, *_ = toy_setup(M=1e2, gamma=0.5, v_modes=vm)
    state_large, *_ = toy_setup(M=1e4, gamma=0.5, v_modes=vm)
    ok_s, margin_s = smallness_check(state_small)
    ok_l, margin_l = smallness_check(state_large)
    assert not ok_s
    assert ok_l
    assert margin_l > margin_s
    # gamma -> 0 limit fails (divergent factor)
    state_small.params.gamma = 1e-9
    ok_g, _ = smallness_check(state_large)
    state_large.params.gamma = 1e-12
    ok_g, _ = smallness_check(state_large)
    assert not ok_g


@pytest.mark.parametrize("A, error, match", [
    (1000.0, LieSeriesDiverged, "increments growing"),   # first step's series
    (700.0, SmallnessError, "remainder grew"),           # series settle, delta 321 -> 3204
])
def test_divergence_detected_at_small_M(A, error, match):
    # strong driving at M = 1e2 breaks the first step in one of two ways
    vm = {(1, 1): A / 4, (1, -1): A / 4, (-1, 1): A / 4, (-1, -1): A / 4}
    state, *_ = toy_setup(M=1e2, gamma=0.5, v_modes=vm)
    with pytest.raises(error, match=match):
        kam_iterate(state, p_max=4)


def test_stalled_iteration_reported():
    # with N0 = 1 every N_p is 1, so a remainder on |l| = 2 is never solved
    # for.  Alone it keeps delta at its initial size and the third step
    # reports a stall, in a single run and when continued from p = 2.
    far = {(2, 1): 0.25, (2, -1): 0.25, (-2, 1): 0.25, (-2, -1): 0.25}
    state, *_ = toy_setup(N0=1, v_modes=far)
    with pytest.raises(SmallnessError, match="stalled.*after 3 steps"):
        kam_iterate(state, p_max=4)
    leg, _ = kam_iterate(state, p_max=2)
    with pytest.raises(SmallnessError, match="stalled.*after 3 steps"):
        kam_iterate(leg, p_max=4)
    # beside a larger solvable |l| = 1 part it holds delta at 0.15 of the
    # initial size: no stall, since the reference stays the initial state's
    near = {(1, 1): 0.25, (1, -1): 0.25, (-1, 1): 0.25, (-1, -1): 0.25}
    state, *_ = toy_setup(N0=1, v_modes={**near, **{k: 0.02 for k in far}})
    one, _ = kam_iterate(state, p_max=4)
    two, _ = kam_iterate(kam_iterate(state, p_max=2)[0], p_max=4)
    assert two.p == 4 and repr(two.history) == repr(one.history)
    assert 0.1 < one.history[-1]["delta_s0"] / one.history[0]["delta_s0"] < 0.2


def test_kam_iterate_rejects_history_of_other_norm_mode():
    state, out, sd, basis, lat = toy_setup(J=6, L=2)
    with pytest.raises(ValueError, match="track_norms=False"):
        kam_iterate(state, p_max=1, track_norms=False)
    untracked = init_state(out, sd, basis, state.params, lat, track_norms=False)
    with pytest.raises(ValueError, match="track_norms=True"):
        kam_iterate(untracked, p_max=1)


def test_divergent_lie_series_reported():
    # an oversized remainder makes X^(0) of order 10: the Lie-series terms of
    # the step grow instead of settling, and the step says so
    state, *_ = toy_setup(J=6, L=2, M=1e3)
    big = dataclasses.replace(state, V=state.V * 1e8)
    with pytest.raises(LieSeriesDiverged):
        kam_step(big)
    kam_step(dataclasses.replace(state, V=state.V * 1e6))    # X of order 0.1 settles

    def pipeline(omega):
        kam_step(big)

    rep = estimate_measure(pipeline, state.params, state.M, 100, rng_seed=7)
    assert rep.indeterminate == rep.n_samples - rep.rejected_omega0 > 0
    assert rep.indeterminate_by_type == {"SmallnessError": 0, "LinAlgError": 0,
                                         "LieSeriesDiverged": rep.indeterminate}


def build_G(state: KamState, ell, n: int, n_in: int, sign: int) -> np.ndarray:
    """omega.l Id + M_L(H0_[n]) +- M_R(H0_[n']) on the (n, n') block space."""
    blocks = normal_form_blocks(state)
    ML, MR = left_right_ops(blocks[n], blocks[n_in])
    dot = float(np.dot(np.atleast_1d(ell), state.omega))
    return dot * np.eye(ML.shape[0]) + ML + float(sign) * MR


def test_build_G_spectrum():
    state, *_ = toy_setup()
    rng = np.random.default_rng(1)
    # random self-adjoint blocks: spectrum of G equals pairwise sums
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    A = 0.5 * (A + A.conj().T)
    B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    B = 0.5 * (B + B.conj().T)
    J = state.lattice.J
    for n, blk in ((1, A), (2, B)):
        state.H0[np.ix_(block_slice(J, n), block_slice(J, n))] = blk
    for sign in (+1, -1):
        G = build_G(state, np.array([2]), 1, 2, sign)
        got = np.sort(np.linalg.eigvalsh(G))
        dot = 2 * state.omega[0]
        want = np.sort([dot + a + sign * b for a in np.linalg.eigvalsh(A)
                        for b in np.linalg.eigvalsh(B)])
        assert np.max(np.abs(got - want)) < 1e-9


def test_build_G_zero_diagonal_excluded():
    state, *_ = toy_setup()
    G = build_G(state, np.array([0]), 4, 4, -1)
    ev = np.linalg.eigvalsh(G)
    assert np.min(np.abs(ev)) < 1e-12     # contains 0: excluded index set


def test_melnikov_step_passes_at_large_M():
    state, *_ = toy_setup(M=1e3)
    ok, worst = melnikov_step_test(state)
    assert ok, worst
    assert worst["checked"] > 0


def test_melnikov_engineered_resonance():
    state, *_ = toy_setup(M=1e3)
    # engineer omega with omega.l = -(mu_n - mu_n') for l=1, n=8, n'=4
    mu, _ = state.block_eigs()
    J = state.lattice.J
    state.omega = np.array([-(mu[J + 8] - mu[J + 4])])
    # that omega is far below the annulus; the scan still sees the resonance
    ok, worst = melnikov_step_test(state, Nval=2.0)
    assert not ok
    assert worst["margin"] < 1.0
    # the offending triple is the resonant one, in its canonical form l = 1
    # (its twin (-1, 4, 8) is not scanned)
    assert (worst["ell"], worst["n"], worst["n_in"], worst["sign"]) == ((1,), 8, 4, -1)
    assert_step_scan_matches_oracle(state, Nval=2.0)


def assert_step_scan_matches_oracle(state, Nval=None) -> dict:
    """melnikov_step_test equals the loop oracle: the offender and counts exactly."""
    ok, worst = melnikov_step_test(state, Nval)
    ok_want, want = melnikov_step_oracle(state, Nval)
    assert ok == ok_want
    exact = ("ell", "n", "n_in", "sign", "checked")
    assert {k: worst[k] for k in exact} == {k: want[k] for k in exact}
    for key in ("margin", "gap", "threshold"):
        assert worst[key] == pytest.approx(want[key], rel=1e-12, abs=0.0), key
    return worst


@pytest.mark.parametrize("M, Nval", [(1e3, None), (1e3, 2.0), (1e3, 3.0),
                                     (3.0, None), (3.0, 3.0)])
def test_melnikov_step_matches_loop_oracle(M, Nval):
    # every canonical triple of the truncation is checked, whatever M: at
    # M = 3 (M < J) as many as at M = 1e3
    state, *_ = toy_setup(M=1e3)
    _, at_large_M = melnikov_step_test(state, Nval)
    state.M = M
    worst = assert_step_scan_matches_oracle(state, Nval)
    assert worst["checked"] == at_large_M["checked"] > 0


def test_melnikov_step_matches_loop_oracle_nu2():
    # the scan reads only H0, omega and the lattice: put the toy normal form
    # on a nu = 2 lattice to check the (l1, l2) box order and the |l| cut
    state, *_ = toy_setup(M=1e3)
    state = dataclasses.replace(state, lattice=Lattice(2, 3, state.lattice.J),
                                omega=np.array([0.37, 1.21]))
    # each offender is the canonical twin: l after 0 in the box order on a
    # minus line, n <= n' on a plus line
    for Nval, triple in ((None, ((0, 1), 0, 2, -1)), (2.5, ((-1, -1), 0, 0, 1))):
        worst = assert_step_scan_matches_oracle(state, Nval)
        assert (worst["ell"], worst["n"], worst["n_in"], worst["sign"]) == triple


def test_solve_homological_single_block():
    state, *_ = toy_setup()
    pr = state.params
    # put a single off-diagonal block into V^d and solve
    lat = state.lattice
    J = lat.J
    D = 2 * J + 1
    rng = np.random.default_rng(2)
    blk = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m = np.zeros((D, D), dtype=complex)
    m[np.ix_(block_slice(J, 3), block_slice(J, 5))] = blk
    ell = (1,)
    # structure: V^d(l)^dagger = V^d(-l)
    m2 = np.zeros_like(m)
    m2[np.ix_(block_slice(J, 5), block_slice(J, 3))] = blk.conj().T
    Vd = zero_op(lat, state.V.K)
    Vd.mat(ell)[:], Vd.mat((-1,))[:] = m, m2
    state.V = stack_pair(Vd, zero_op(lat, state.V.K))
    X = solve_homological(state, Nval=2.0)
    Xblk = X[0].mat(ell)[np.ix_(block_slice(J, 3), block_slice(J, 5))]
    G = build_G(state, np.array([1]), 3, 5, -1)
    direct = (-1j * np.linalg.solve(G, Xblk_reshape(blk))).reshape(2, 2)
    assert np.max(np.abs(Xblk - direct)) < 1e-12
    assert homological_residual(state, X, Nval=2.0) < 1e-10


def Xblk_reshape(blk):
    return blk.reshape(-1)


def test_solve_homological_edge_blocks():
    # every block, [0] edges and the cutoff included, against a direct solve
    # of G x = -i chi(mingap/rho) vec(V) with build_G
    state, *_ = toy_setup()
    pr = state.params
    lat = state.lattice
    J = lat.J
    D = 2 * J + 1
    mu, _ = state.block_eigs()
    # omega.1 + mu_0 - mu_1[0] = rho/2 puts the (1, 0, 1) minus block of V^d
    # halfway into the cutoff's transition window (mu_1[0] sits at index -1)
    rho_01 = 0.5 * pr.gamma / state.M ** pr.alpha
    state.omega = np.array([mu[J - 1] - mu[J] + 0.5 * rho_01])
    rng = np.random.default_rng(4)

    def rand():
        return rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    K = state.V.K
    Vd, Vo = zero_op(lat, K), zero_op(lat, K)
    Vd.mat((0,))[:], Vd.mat((1,))[:] = rand(), rand()
    Vo.mat((0,))[:], Vo.mat((1,))[:] = rand(), rand()
    state.V = stack_pair(Vd, Vo)
    X = solve_homological(state, Nval=1.5)

    def direct(ell, comp, n, n_in):
        sign = -1 if comp == "d" else +1
        G = build_G(state, np.array([ell]), n, n_in, sign)
        combo = max(1, abs(n + n_in) if sign > 0 else abs(n - n_in))
        rho = 0.5 * pr.gamma / state.M ** pr.alpha * combo ** pr.alpha
        chi = DEFAULT_CUTOFF(min(np.min(np.abs(np.linalg.eigvalsh(G))) / rho, 1.0))
        V = block(Vd if comp == "d" else Vo, (ell,), n, n_in)
        x = -1j * chi * np.linalg.solve(G, V.reshape(-1))
        return x.reshape(V.shape), chi

    def got(ell, comp, n, n_in):
        return block(X[0] if comp == "d" else X[1], (ell,), n, n_in)

    for ell in (0, 1):
        for comp in ("d", "o"):
            for n, n_in in ((4, 0), (0, 7), (0, 1), (2, 9)) + (
                    ((0, 0),) if comp == "o" else ()):
                want, _ = direct(ell, comp, n, n_in)
                scale = max(1.0, np.max(np.abs(want)))
                assert np.max(np.abs(got(ell, comp, n, n_in) - want)) < 1e-12 * scale
    # the engineered block carries a cutoff factor strictly inside (0, 1)
    _, chi = direct(1, "d", 0, 1)
    assert 0.0 < chi < 1.0
    assert np.any(np.abs(got(1, "d", 0, 1)) > 0)
    # excluded (0, n, n) blocks of V^d are absorbed into Z: zero, n = 0 too
    for n in (0, 1, 6, J):
        assert not np.any(got(0, "d", n, n))
    # and on the other side of the l = 0 diagonal they are solved as usual
    assert np.any(got(0, "o", 3, 3))


def test_solve_homological_zero():
    state, *_ = toy_setup(v_modes={})
    X = solve_homological(state, state.params.N(state.p))
    assert X.norm_max() == 0.0


def test_homological_residual_random():
    state, *_ = toy_setup()
    X = solve_homological(state, state.params.N(state.p))
    res = homological_residual(state, X)
    assert res < 1e-10 * max(1.0, state.V.norm_max())


def test_kam_step_contracts_and_preserves_structure():
    state, *_ = toy_setup(M=1e3)
    d0 = state.delta(state.s0)
    new, X = kam_step(state)
    assert new.selfadjoint_defect() < 1e-12
    assert structure_defect(new.V) < 1e-10 * max(1.0, d0)
    d1 = new.delta(new.s0)
    assert d1 < 0.5 * d0


@pytest.mark.parametrize("M", [1e3, 1e2])
def test_kam_step_two_series_match_three(monkeypatch, M):
    # the merged series of ad_X H0 - Xdot gives the three-series remainder,
    # with fewer Lie-series `ad` calls
    state, *_ = toy_setup(M=M)
    calls = []
    real_ad = opmatrix.ad
    monkeypatch.setattr(opmatrix, "ad", lambda *a: calls.append(1) or real_ad(*a))
    want = three_series_remainder(state)
    n_oracle = len(calls)
    calls.clear()
    new, _ = kam_step(state)
    tol = 1e-13 * max(want.norm_max(), 1e-300)
    assert (new.V - want).norm_max() <= tol
    assert 0 < len(calls) < n_oracle


def test_kam_step_absorbs_diagonal():
    state, *_ = toy_setup(M=1e3)
    Z = diagonal_correction(state)
    new, _ = kam_step(state)
    assert np.max(np.abs(new.H0 - (state.H0 + 0.5 * (Z + Z.conj().T)))) < 1e-14


def test_normal_form_matches_per_block_oracle():
    # the stacked eigensolve, the masked Z and the array-read final spectrum
    # give the per-block results bytewise, on the initial state and after two
    # steps (2x2 blocks no longer diagonal); H0 stays zero outside its blocks
    state, *_ = toy_setup(M=1e3)
    J = state.lattice.J
    nb = np.abs(np.arange(-J, J + 1))
    off_blocks = nb[:, None] != nb
    for _ in range(3):
        assert not np.any(state.H0[off_blocks])
        for got, want in zip(state.block_eigs(), block_eigs_oracle(state)):
            assert got.tobytes() == want.tobytes()
        assert diagonal_correction(state).tobytes() == diagonal_correction_oracle(state).tobytes()
        assert final_spectrum(state) == final_spectrum_oracle(state)
        state, _ = kam_step(state)
    ns = np.arange(1, J + 1)
    assert np.any(state.H0[J - ns, J + ns])          # some 2x2 block is not diagonal


def test_kam_iterate_quadratic_decay_and_drift():
    state, *_ = toy_setup(M=1e3, J=12)
    final, gens = kam_iterate(state, p_max=4, collect_generators=True)
    ds = [row["delta_s0"] for row in final.history]
    assert all(b < a for a, b in zip(ds, ds[1:]) if a > 1e-15)
    # scheduled decay bound (S3): delta_p <= delta^(0)_{s0+beta} N_{p-1}^{-rho}
    pr = state.params
    d0b = final.history[0]["delta_s0_beta"]
    for p, row in enumerate(final.history[1:], start=1):
        assert row["delta_s0"] <= d0b * pr.N(p - 1) ** (-pr.rho)
    # strong contraction at every completed step
    assert ds[1] <= 1e-3 * ds[0] and ds[2] <= 1e-1 * ds[1]
    # final blocks self-adjoint at every step
    for row in final.history:
        assert row["H0_selfadjoint_defect"] < 1e-12
    spec, weighted_sup = final_spectrum(final)
    # eigenvalue drift bounded by C/(gamma0 M) with the <n>^alpha weight
    pr = state.params
    assert weighted_sup < 10.0 / (pr.gamma0 * state.M)


def test_kam_iterate_eps_scaling_in_M():
    sups = []
    Ms = (1e2, 1e3, 1e4)
    for M in Ms:
        state, *_ = toy_setup(M=M)
        final, _ = kam_iterate(state, p_max=3)
        _, weighted_sup = final_spectrum(final)
        sups.append(weighted_sup)
    slope = np.polyfit(np.log(Ms), np.log(sups), 1)[0]
    # the paper guarantees eps <= C/(gamma0 M); the actual model decays even
    # faster (the only diagonal source 2(YBY)(0) is quadratic in 1/M)
    assert slope <= -0.9
    assert abs(slope + 2.0) < 0.3
    for M, sup in zip(Ms, sups):
        g0 = 0.5 ** (0.5 / 4.0)
        assert sup <= 10.0 / (g0 * M)


@pytest.mark.parametrize("track_norms", [True, False])
def test_kam_iterate_two_legs_repeat_one_run(track_norms):
    # stopping at p = 3 and continuing gives the single run bitwise; N0 = 1.5
    # makes the run take a fourth step, so the second leg does work
    state, out, sd, basis, lat = toy_setup(J=8, L=3, N0=1.5)
    state = init_state(out, sd, basis, state.params, lat, track_norms=track_norms)
    one, gens_one = kam_iterate(state, p_max=6, collect_generators=True,
                                track_norms=track_norms)
    leg1, gens = kam_iterate(state, p_max=3, collect_generators=True,
                             track_norms=track_norms)
    two, _ = kam_iterate(leg1, p_max=6, track_norms=track_norms)
    assert one.p == two.p == 4 and leg1.p == 3
    # the run stopped at the delta floor, and a third leg takes no step
    assert kam_iterate(two, p_max=6, track_norms=track_norms)[0] is two
    assert repr(two.history) == repr(one.history)
    assert two.H0.tobytes() == one.H0.tobytes()
    assert len(gens) == 3
    for X, Y in zip(gens, gens_one):
        assert X.mats.shape == Y.mats.shape
        assert X.mats.tobytes() == Y.mats.tobytes()


def test_kam_iterate_same_bits_without_the_helper_thread():
    # a 3-step run here (ad on two threads where there are two CPUs) against
    # the same run in a forked child, which computes on one thread
    state = toy_setup()[0]

    def run():
        final, gens = kam_iterate(state, p_max=3, collect_generators=True)
        return (repr(final.history), final.H0.tobytes(), final.V.mats.tobytes(),
                [X.mats.tobytes() for X in gens])
    here = run()
    assert (opmatrix._helper() is None) == (len(os.sched_getaffinity(0)) == 1)
    there, alone = in_forked_child(run)
    assert alone
    assert len(here[3]) == 3
    assert there == here


def generator_exponential(X: BlockOperator) -> np.ndarray:
    """Dense e^{iX} on the doubled extended lattice."""
    return scipy.linalg.expm(1j * pair_to_dense(X))


def transformation_product(gens, lattice: Lattice) -> np.ndarray:
    """W_p = e^{iX^(0)} ... e^{iX^(p-1)} as a dense matrix."""
    out = None
    for X in gens:
        E = generator_exponential(X)
        out = E if out is None else out @ E
    if out is None:
        n = len(lattice.ell_range()) * (2 * lattice.J + 1) * 2
        out = np.eye(n, dtype=complex)
    return out


def test_transformation_cauchy_and_conjugation():
    state, out, sd, basis, lat = toy_setup(J=8, L=3, M=1e3)
    final, gens = kam_iterate(state, p_max=3, collect_generators=True)
    assert gens, "expected at least one generator"
    # Cauchy property: ||W_{p+1} - W_p|| decreasing
    Ws = [transformation_product(gens[:k], lat) for k in range(len(gens) + 1)]
    diffs = [np.linalg.norm(Ws[k + 1] - Ws[k], 2) for k in range(len(gens))]
    assert all(b < a for a, b in zip(diffs, diffs[1:]))
    # dense conjugation audit on the extended lattice, step 0:
    # e^{-iX} (H - omega.dphi) e^{iX} = H0^{(1)} + V^{(1)} as quadratic forms
    X = gens[0]
    E = generator_exponential(X)
    # assemble extended H^{(0)} and H^{(1)} including the rotation term
    def extended(state_k):
        lat_ = state_k.lattice
        H0x = stack_pair(BlockOperator.time_independent(lat_, state_k.H0, K=state_k.V.K),
                         zero_op(lat_, K=state_k.V.K))
        dense = pair_to_dense(H0x + state_k.V)
        # the angle derivative acts as a diagonal omega.l on both components
        from fastwave.harmonics import _ell_range
        ells = _ell_range(lat_.nu, lat_.L)
        D = 2 * lat_.J + 1
        diag = np.concatenate([np.repeat(ells @ state_k.omega, D)] * 2)
        return dense + np.diag(diag)

    # series convention: psi_new = e^{iX} psi, so H_new + omega.D =
    # e^{iX} (H + omega.D) e^{-iX} on the extended lattice
    lhs = E @ extended(state) @ np.linalg.inv(E)
    state1, _ = kam_step(state)
    rhs = extended(state1)
    # compare on the central angle column group (truncation-free block)
    D = 2 * lat.J + 1
    nl = 2 * lat.L + 1
    mid = slice(lat.L * D, (lat.L + 1) * D)
    err = np.max(np.abs((lhs - rhs)[:, mid][list(range(0, nl * D)), :]))
    scale = max(1.0, np.max(np.abs(rhs)))
    assert err < 1e-9 * scale


def test_final_spectrum_v_zero():
    state, *_ = toy_setup(v_modes={})
    spec, sup = final_spectrum(state)
    assert sup == 0.0


def test_lipschitz_drift_across_omega():
    # finite-difference <n>^alpha-weighted drift of the normal-form blocks,
    # with the gamma/M^alpha weight convention, stays bounded along the run
    M = 1e3
    state1, out1, sd, basis, lat = toy_setup(M=M)
    params = state1.params
    h = M / 100.0
    # second sample at omega + h
    import fastwave.magnus as mg
    qc = xcoeffs(12, {0: 1.0, 1: 0.5, -1: 0.5})
    v = __import__("fastwave.harmonics", fromlist=["TorusFunction"]).TorusFunction.from_modes(
        lat, {(1, 1): 0.25, (1, -1): 0.25, (-1, 1): 0.25, (-1, -1): 0.25})
    o2 = mg.magnus_transform(qc, v, state1.omega + h, M, params.gamma0,
                             params.tau0, sd)
    state2 = init_state(o2, sd, basis, params, lat)
    f1, _ = kam_iterate(state1, p_max=3)
    f2, _ = kam_iterate(state2, p_max=3)
    w = params.gamma / M ** params.alpha          # the Lipschitz weight
    drift = 0.0
    for n, (b1, b2) in enumerate(zip(normal_form_blocks(f1).values(),
                                     normal_form_blocks(f2).values())):
        drift = max(drift, max(1, n) ** params.alpha * np.max(np.abs(b1 - b2)))
    fd_lip = w * drift / h
    # both the drift and its weighted Lipschitz proxy sit at the 1/(gamma0 M)
    # scale with a comfortable constant
    assert drift <= 10.0 / (params.gamma0 * M)
    assert fd_lip <= 10.0 / (params.gamma0 * M)
