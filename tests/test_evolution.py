import numpy as np
import pytest

from fastwave.craig_wayne import build_basis_matrix, change_basis
from fastwave.evolution import (
    _KICK_CHUNK, FloquetFrame, band_width, floquet_residual, integrate,
    pair_at_angle, pair_state, sobolev_trace,
)
from fastwave.harmonics import Lattice, TorusFunction
from fastwave.kam import KamParameters, init_state, kam_iterate
from fastwave.magnus import magnus_transform
from fastwave.opmatrix import BlockOperator
from fastwave.schrodinger import assemble_lq, eigensolve_blocks, spectral_power
from oracles import dense_strang, eigen_W, resonant_drive


def xcoeffs(J, entries):
    c = np.zeros(2 * J + 1, dtype=complex)
    for j, v in entries.items():
        c[j + J] = v
    return c


J = 10
LAT = Lattice(1, 4, J)
QC = xcoeffs(J, {0: 1.0, 1: 0.5, -1: 0.5})
SD = eigensolve_blocks(assemble_lq(QC, J), q=QC)
VTOY = TorusFunction.from_modes(LAT, {(1, 1): 0.25, (1, -1): 0.25,
                                      (-1, 1): 0.25, (-1, -1): 0.25})
VZERO = TorusFunction.zero(LAT)
WTOY, WZERO = eigen_W(QC, VTOY, SD), eigen_W(QC, VZERO, SD)


def test_free_evolution_exact_rotation():
    rng = np.random.default_rng(1)
    pe = rng.standard_normal(2 * J + 1) + 1j * rng.standard_normal(2 * J + 1)
    state = pair_state(pe, SD)
    T, dt = 0.5, 0.0009
    traj = integrate(SD, WZERO, np.array([100.0]), state, T, dt, store_every=1)
    lam = SD.lam
    want0 = state[0] * np.exp(-1j * lam * traj.times[-1])
    assert np.max(np.abs(traj.states[-1][0] - want0)) < 1e-12
    # energy conserved exactly for the free flow
    n0 = np.linalg.norm(traj.states[0])
    assert abs(np.linalg.norm(traj.states[-1]) - n0) < 1e-12 * n0


# a v whose angle modes l = 1, 3 are live and l = 2 between them is a zero block
VGAP = TorusFunction.from_modes(LAT, {(1, 1): 0.2, (-1, -1): 0.2, (3, 2): 0.1j,
                                      (-3, -2): -0.1j})
# a v with the one angle mode l = 1: W is live at l = 1 only, its conjugate
# family at l = -1 only
VONE = TorusFunction.from_modes(LAT, {(1, 1): 0.25})
# a quasi-periodic drive, two frequencies
LAT2 = Lattice(2, 2, J)
VNU2 = TorusFunction.from_modes(LAT2, {(1, 0, 1): 0.2, (-1, 0, -1): 0.2,
                                       (1, -2, 2): 0.1, (-1, 2, -2): 0.1})


@pytest.mark.parametrize("v, omega", [(VTOY, [40.0]), (VGAP, [40.0]), (VONE, [40.0]),
                                      (VZERO, [40.0]), (VNU2, [40.0, 40.0 * 0.618034])],
                         ids=["toy", "gap", "one-sided", "zero", "nu2"])
def test_kick_matches_dense_oracle(v, omega):
    W = eigen_W(QC, v, SD)
    # the one-product kick on the flat state agrees with W(phi) built from every
    # angle mode and the matrix of the conjugate family, at every stored state.
    # The run is two kick tables and part of a third, stores fall inside them
    rng = np.random.default_rng(7)
    pe = rng.standard_normal(2 * J + 1) + 1j * rng.standard_normal(2 * J + 1)
    state = pair_state(pe, SD)
    dt = 2e-3
    n_steps = 2 * _KICK_CHUNK + 9
    T = n_steps * dt
    traj = integrate(SD, W, np.array(omega), state, T, dt, store_every=7)
    want = dense_strang(SD, W, np.array(omega), state, T, dt, store_every=7)
    assert traj.states.shape == want.shape == (1 + n_steps // 7 + 1, 2, 2 * J + 1)
    for got, ref in zip(traj.states, want):
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
    # the stored times are the floats of t += dt, bit for bit
    t, times = 0.0, [0.0]
    for k in range(n_steps):
        t += dt
        if (k + 1) % 7 == 0 or k == n_steps - 1:
            times.append(t)
    assert traj.times.tobytes() == np.array(times).tobytes()


def test_dt_guard():
    state = np.zeros((2, 2 * J + 1), dtype=complex)
    with pytest.raises(ValueError):
        integrate(SD, WTOY, np.array([1000.0]), state, 1.0, 0.01, store_every=1)


def test_richardson_order_two():
    # dt-halving on a driven run: global error ratio ~ 4
    rng = np.random.default_rng(2)
    pe = rng.standard_normal(2 * J + 1) + 1j * rng.standard_normal(2 * J + 1)
    state = pair_state(pe, SD)
    omega = np.array([40.0])
    T = 0.4
    sols = {}
    for dt in (2e-3, 1e-3, 5e-4):
        traj = integrate(SD, WTOY, omega, state, T, dt, store_every=10 ** 9)
        sols[dt] = traj.states[-1]
    e1 = np.linalg.norm(sols[2e-3] - sols[5e-4])
    e2 = np.linalg.norm(sols[1e-3] - sols[5e-4])
    # with the reference at dt/4: e1/e2 ~ (4 - 1)/(1 - 1/4) / ... ~ 5
    ratio = e1 / e2
    assert 3.0 < ratio < 7.0


def test_reality_preserved():
    rng = np.random.default_rng(3)
    u0 = np.conj((rng.standard_normal(2 * J + 1) + 1j * rng.standard_normal(2 * J + 1))[::-1])
    u0 = 0.5 * (u0 + np.conj(u0[::-1]))          # real-valued u0
    phi = spectral_power(SD, 0.25) @ u0      # B^{1/2} u0 + i B^{-1/2} u0_t, u0_t = 0
    state = pair_state(phi, SD)
    traj = integrate(SD, WTOY, np.array([50.0]), state, 0.5, 1e-3, store_every=100)
    # the pairing phi1 = K conj(phi0) is preserved exactly by the splitting
    K = SD.conjugation_matrix()
    for k in range(len(traj.times)):
        s = traj.states[k]
        assert np.max(np.abs(s[1] - K @ np.conj(s[0]))) < 1e-11


def test_propagator_cocycle():
    rng = np.random.default_rng(4)
    pe = rng.standard_normal(2 * J + 1) + 1j * rng.standard_normal(2 * J + 1)
    state = pair_state(pe, SD)
    omega = np.array([50.0])
    dt = 5e-4
    a = integrate(SD, WTOY, omega, state, 0.3, dt, store_every=10 ** 9)
    b = integrate(SD, WTOY, omega, a.states[-1], 0.2, dt, t0=0.3, store_every=10 ** 9)
    c = integrate(SD, WTOY, omega, state, 0.5, dt, store_every=10 ** 9)
    assert np.linalg.norm(b.states[-1] - c.states[-1]) < 1e-9 * np.linalg.norm(state)


def test_sobolev_trace_free():
    rng = np.random.default_rng(5)
    pe = rng.standard_normal(2 * J + 1) + 1j * rng.standard_normal(2 * J + 1)
    state = pair_state(pe, SD)
    traj = integrate(SD, WZERO, np.array([60.0]), state, 0.4, 1e-3, store_every=40)
    sup, ratios = sobolev_trace(traj, 1.0)
    # v = 0: the H^r norms oscillate only through the basis mixing of the
    # pair components; for the free flow each eigen coefficient has constant
    # modulus, so the exp-basis H^r norms stay within a tight band
    assert abs(sup - 1.0) < 0.05
    assert band_width(sobolev_trace(traj, 0.0)[1]) < 1e-10
    # the norms are those of a loop over the stored states, bit for bit
    w = np.maximum(1.0, np.abs(np.arange(-J, J + 1))) ** 1.0
    loop = [np.sqrt(np.sum(w ** 2 * (np.abs(SD.psi @ s[0]) ** 2 + np.abs(SD.psi @ s[1]) ** 2)))
            for s in traj.states]
    assert np.array_equal(traj.sobolev_norms(1.0), loop)


def magnus_kam_frame(M=800.0, gamma=0.5, p_max=3):
    params = KamParameters(tau=2.6, gamma=gamma, alpha=0.5, N0=2.1, tau0=1.0,
                           gamma0=gamma ** 0.125)
    omega = np.array([1.37 * M])
    out = magnus_transform(QC, VTOY, omega, M, params.gamma0, params.tau0, SD)
    basis = build_basis_matrix(SD)
    state = init_state(out, SD, basis, params, LAT)
    final, gens = kam_iterate(state, p_max=p_max, collect_generators=True)
    Y_eig = change_basis(out.Y_mat, basis)
    frame = FloquetFrame(Y_eig, gens, final.H0)
    return frame, out, final, omega


def test_floquet_residual_v_zero():
    params = KamParameters(tau=2.6, gamma=0.5, alpha=0.5, N0=2.1, tau0=1.0,
                           gamma0=0.9)
    vz = TorusFunction.zero(LAT)
    omega = np.array([800.0])
    out = magnus_transform(QC, vz, omega, 700.0, params.gamma0, params.tau0, SD)
    basis = build_basis_matrix(SD)
    state = init_state(out, SD, basis, params, LAT)
    final, gens = kam_iterate(state, p_max=2, collect_generators=True)
    Y_eig = change_basis(out.Y_mat, basis)
    frame = FloquetFrame(Y_eig, gens, final.H0)
    dt = 1e-4
    res = floquet_residual(frame, SD, change_basis(out.W_mat, basis), omega, [(0.3, 0.0)],
                           dt, n_probes=2)
    assert res < 10 * (dt ** 2 * 0.3) + 1e-10


def test_floquet_residual_within_budget():
    frame, out, final, omega = magnus_kam_frame()
    dt = 8e-5
    delta_final = final.history[-1]["delta_s0"]
    res = floquet_residual(frame, SD, WTOY, omega, [(0.25, 0.0), (0.4, 0.15)],
                           dt, n_probes=2)
    budget = 10.0 * (delta_final + dt ** 2 * 0.4)
    assert res < max(budget, 1e-6)


def test_floquet_residual_decreases_with_depth():
    results = []
    for p_max in (0, 1, 2):
        frame, out, final, omega = magnus_kam_frame(p_max=p_max)
        res = floquet_residual(frame, SD, WTOY, omega, [(0.3, 0.0)], 8e-5, n_probes=2)
        results.append(res)
    assert results[1] < results[0]
    assert results[2] <= results[1] * 1.5 + 1e-8


def test_sigma4_exponential_inverse():
    # e^{iY sigma4} = 1 + i (the pair (Y, Y) at the angle), and its inverse is
    # the same with -Y, since sigma4 is nilpotent
    rng = np.random.default_rng(6)
    Y = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    Y = 0.5 * (Y + Y.conj().T)
    K = np.eye(5)[::-1].astype(complex)
    Y = 0.5 * (Y + K @ np.conj(Y) @ np.conj(K))    # conj-real structure
    lat = Lattice(1, 2, 2)

    def sigma4_exponential(Y):
        YY = BlockOperator.time_independent(lat, np.stack([Y, Y]), K)
        return np.eye(10) + 1j * pair_at_angle(YY, np.array([0.3]))
    E, Em = sigma4_exponential(Y), sigma4_exponential(-Y)
    assert np.max(np.abs(E @ Em - np.eye(10))) < 1e-12
    assert np.array_equal(E[:5, 5:], 1j * Y)


def test_resonant_drive_grows():
    # engineered resonance: the Sobolev ratio exits the band, monotone trend
    v, omega = resonant_drive(LAT, SD, 2, 1, amplitude=0.8)
    phi = SD.psi[:, SD.idx(2)].copy()
    state = pair_state(phi, SD)
    dt = 5e-4
    traj = integrate(SD, eigen_W(QC, v, SD), omega, state, 12.0, dt, store_every=2000)
    sup, ratios = sobolev_trace(traj, 0.0)
    assert sup > 1.5
    # growth trend: the running maximum increases over the horizon
    running = np.maximum.accumulate(ratios)
    assert running[-1] > running[len(running) // 3] > running[2]
