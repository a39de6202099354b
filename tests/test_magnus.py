import math

import numpy as np
import pytest

from fastwave.harmonics import Lattice, TorusFunction
from fastwave.magnus import (
    NonZeroAverageError, adjoint_chain_check, apply_divisors, diophantine_test,
    homological_residual, magnus_transform, multiplication_operator, sample_annulus,
)
from fastwave.opmatrix import BlockOperator
from fastwave.psdo import (DEFAULT_CUTOFF, ContourSpec, EllipticSymbol, Symbol,
                           complex_power, compose, quantize)
from fastwave.schrodinger import assemble_lq, eigensolve_blocks
from oracles import apply, in_forked_child, random_function, torus_product, zero_op


def xcoeffs(J, entries):
    c = np.zeros(2 * J + 1, dtype=complex)
    for j, v in entries.items():
        c[j + J] = v
    return c


J = 16
LAT = Lattice(1, 4, J)
QC = xcoeffs(J, {0: 1.0, 1: 0.5, -1: 0.5})           # q = 1 + cos x
SD = eigensolve_blocks(assemble_lq(QC, J), q=QC)
# v = cos(phi) cos(x)
VTOY = TorusFunction.from_modes(LAT, {(1, 1): 0.25, (1, -1): 0.25,
                                      (-1, 1): 0.25, (-1, -1): 0.25})


def golden_omega(M, nu=1):
    if nu == 1:
        return np.array([1.5 * M])
    g = (1 + math.sqrt(5)) / 2
    v = np.array([1.0] + [g ** (k + 1) for k in range(nu - 1)])
    return 1.5 * M * v / np.linalg.norm(v)


def test_sample_annulus_in_range():
    rng = np.random.default_rng(0)
    for nu in (1, 2):
        w = sample_annulus(rng, 100.0, nu, 500)
        r = np.linalg.norm(w, axis=1)
        assert np.all(r >= 100.0 - 1e-9) and np.all(r <= 200.0 + 1e-9)


def test_diophantine_golden():
    M = 1000.0
    ok, worst = diophantine_test(golden_omega(M, 2), M, 0.05, 2.0, 8)
    assert ok and worst >= 1.0


def test_diophantine_exact_resonance():
    M = 100.0
    w = np.array([1.2 * M, 1.2 * M])     # omega1/omega2 = 1: l = (1,-1) kills it
    ok, worst = diophantine_test(w, M, 0.1, 2.0, 4)
    assert not ok and worst == 0.0


def test_diophantine_measure_slope():
    # rejected fraction <= c0 gamma0, roughly linear in gamma0
    rng = np.random.default_rng(1)
    M, nu, L, tau0 = 1000.0, 2, 6, 2.0
    samples = sample_annulus(rng, M, nu, 1500)
    fracs = []
    for g0 in (0.05, 0.1, 0.2):
        rej = sum(1 for w in samples if not diophantine_test(w, M, g0, tau0, L)[0])
        fracs.append(rej / len(samples))
    assert fracs[0] <= fracs[1] <= fracs[2]
    assert fracs[2] <= 3.0 * 0.2            # c0 moderate
    # slope ~ 1 in gamma0: ratios of fractions track ratios of gamma0 within 2x
    if fracs[0] > 0:
        assert 0.5 <= (fracs[2] / fracs[0]) / 4.0 <= 2.0


def test_generator_single_mode_division():
    # Y(l) = chi(omega.l / rho_l) W(l) / (i omega.l) mode by mode: plain division
    # where chi = 1, damped inside the cutoff window, and 0 on a resonance
    lat = Lattice(2, 2, 4)
    M, g0, t0 = 100.0, 0.1, 1.0
    rng = np.random.default_rng(3)
    shape = (len(lat.ell_range()), 9, 9)
    mats = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mats[len(mats) // 2] = 0.0                        # l = 0
    W = BlockOperator(lat, mats)
    rho = g0 * M / math.sqrt(2.0)                     # rho_l at l = (1, -1)
    for gap in (0.5 * rho, 0.0):
        om = np.array([150.0 + gap, 150.0])
        Y = apply_divisors(W, om, M, g0, t0)
        assert np.all(np.isfinite(Y.mats)) and not np.any(Y.mat((0, 0)))
        want = W.mat((1, 0)) / (1j * om[0])
        assert np.max(np.abs(Y.mat((1, 0)) - want)) < 1e-15
        dot = om @ np.array([1.0, -1.0])
        chi = DEFAULT_CUTOFF(dot / rho)
        if gap:
            assert 0.0 < chi < 1.0
            want = chi * W.mat((1, -1)) / (1j * dot)
            assert np.max(np.abs(Y.mat((1, -1)) - want)) < 1e-12 * np.max(np.abs(want))
        else:
            assert not np.any(Y.mat((1, -1)))


def test_generator_zero_and_average_guard():
    # apply_divisors checks its own input: W = 0 gives Y = 0, and W with an
    # l = 0 mode is rejected
    M, g0, t0 = 100.0, 0.1, 1.0
    Y = apply_divisors(zero_op(LAT), golden_omega(M), M, g0, t0)
    assert Y.norm_max() == 0.0
    bad = multiplication_operator(TorusFunction.from_modes(LAT, {(0, 1): 1.0}))
    with pytest.raises(NonZeroAverageError):
        apply_divisors(bad, golden_omega(M), M, g0, t0)
    with pytest.raises(NonZeroAverageError):
        apply_divisors(bad + multiplication_operator(VTOY), golden_omega(M), M, g0, t0)


def test_generator_norm_scaling_in_M():
    # ||Y||_s ~ C/(gamma0 M): log-log slope -1 across three decades
    from fastwave.opmatrix import s_decay_norm
    g0, t0, s = 0.1, 1.0, 3.0
    Ms = (1e2, 1e3, 1e4)
    norms = [s_decay_norm(magnus_transform(QC, VTOY, golden_omega(M), M, g0, t0,
                                           SD).Y_mat, s)
             for M in Ms]
    slope = np.polyfit(np.log(Ms), np.log(norms), 1)[0]
    assert abs(slope - (-1.0)) < 0.05


def test_multiplication_operator_action():
    rng = np.random.default_rng(2)
    V = multiplication_operator(VTOY)
    u = random_function(LAT, rng)
    mask = np.zeros(LAT.shape)
    mask[1:-1, :] = 1.0   # keep angle modes off the edge
    uc = u.coeffs * mask
    got = apply(V, uc)
    want = torus_product(TorusFunction(LAT, uc), VTOY).coeffs
    assert np.max(np.abs(got - want)) < 1e-12


def test_transform_zero_v():
    M = 1000.0
    vz = TorusFunction.zero(LAT)
    out = magnus_transform(QC, vz, golden_omega(M), M, 0.1, 1.0, SD)
    assert out.V.mats.shape[0] == 2
    assert out.V.norm_max() == 0.0


def test_transform_structure_identities():
    M = 1000.0
    out = magnus_transform(QC, VTOY, golden_omega(M), M, 0.1, 1.0, SD)
    defects = out.structure_defects()
    scale = max(out.Y_mat.norm_max(), 1e-300)
    for name, d in defects.items():
        assert d < 1e-12 * max(1.0, scale), (name, d)
    assert homological_residual(out) < 1e-10


@pytest.mark.parametrize("lat", [LAT, Lattice(2, 2, 6)], ids=["nu1", "nu2"])
def test_transform_products_match_operator_products(lat):
    # the grids of Y and B built once give V bit for bit as the three
    # products Y @ B, B @ Y and (Y @ B) @ Y do, on this thread and on one
    # (a forked child, as in a measure worker)
    M = 1000.0
    qc = xcoeffs(lat.J, {0: 1.0, 1: 0.5, -1: 0.5})
    sd = eigensolve_blocks(assemble_lq(qc, lat.J), q=qc)
    rng = np.random.default_rng(31)
    c = rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape)
    c[(lat.L,) * lat.nu] = 0.0                  # zero angle average
    v = TorusFunction(lat, c).symmetrized()

    def both():
        out = magnus_transform(qc, v, golden_omega(M, lat.nu), M, 0.1, 1.0, sd)
        Y, B = out.Y_mat, BlockOperator.time_independent(lat, out.B_mat)
        YB, BY = Y @ B, B @ Y
        want = np.stack([1j * (YB - BY).mats, -1j * (YB + BY).mats]) + 2.0 * (YB @ Y).mats
        return out.V.mats.tobytes(), want.tobytes()
    got, want = both()
    assert got == want
    assert in_forked_child(both)[0] == (got, want)


def test_transform_sigma4_consequences():
    M = 1000.0
    out = magnus_transform(QC, VTOY, golden_omega(M), M, 0.1, 1.0, SD)
    chk = adjoint_chain_check(out)
    assert chk["ad2_d"] < 1e-12 * chk["scale"] + 1e-15
    assert chk["ad2_o"] < 1e-12 * chk["scale"] + 1e-15
    assert chk["ad3"] < 1e-12 * chk["scale"] + 1e-15


def test_transform_norm_scaling_sweep():
    # matrix s-decay norms of (V^d, V^o) scale like 1/(gamma0 M)
    from fastwave.opmatrix import s_decay_norm
    norms_d, norms_o = [], []
    Ms = (1e2, 1e3, 1e4)
    for M in Ms:
        out = magnus_transform(QC, VTOY, golden_omega(M), M, 0.1, 1.0, SD)
        norms_d.append(s_decay_norm(out.V[0], 3.0))
        norms_o.append(s_decay_norm(out.V[1], 3.0))
    for norms in (norms_d, norms_o):
        slope = np.polyfit(np.log(Ms), np.log(norms), 1)[0]
        assert abs(slope - (-1.0)) < 0.1


def test_transform_nonzero_average_rejected():
    M = 1000.0
    bad = TorusFunction.from_modes(LAT, {(0, 1): 0.5, (0, -1): 0.5})
    with pytest.raises(NonZeroAverageError):
        magnus_transform(QC, bad, golden_omega(M), M, 0.1, 1.0, SD)


def test_cutoff_extension_consistency():
    # on Diophantine omega the extended divisors equal the raw division
    M, g0, t0 = 1000.0, 0.05, 1.0
    om = golden_omega(M)
    ok, worst = diophantine_test(om, M, g0, t0, LAT.L)
    assert ok
    V = multiplication_operator(VTOY)
    Y = apply_divisors(V, om, M, g0, t0)
    for ell, m in zip(LAT.ell_range(), V.mats):
        if not any(ell):
            continue
        dot = float(np.dot(ell, om))
        raw = m / (1j * dot)
        assert np.max(np.abs(Y.mat(ell) - raw)) < 1e-15


def test_symbol_route_and_matrix_route_agree_midband():
    # the Magnus step redone in the symbol calculus, one angle mode l at a time
    # (contour powers of xi^2 + q, compositions at N = 2), and quantized,
    # approximates the exact V^d away from the smallest and edge modes:
    # w_l = (1/2) B^{-1/4} # v_l # B^{-1/4}, Y_l = div_l w_l and
    # V^d_l = i (Y_l # B - B # Y_l).  VTOY lives at l = +-1 only, so the
    # 2 Y B Y term of V^d, whose modes are sums of two of those, adds nothing there
    M, g0, t0 = 1000.0, 0.1, 1.0
    om = golden_omega(M)
    out = magnus_transform(QC, VTOY, om, M, g0, t0, SD)
    a = EllipticSymbol.xi2_plus_q(J, QC)
    rho = 0.45 * float(np.min(SD.mu_sq))
    cont = ContourSpec(rho=rho, R=rho * math.exp(200.0), n_quad=240)
    B = complex_power(a, 0.5, cont, N=3, compose_N=2)
    Bmh = complex_power(a, -0.25, cont, N=3, compose_N=3)
    # chi(omega.l / rho_l)/(i omega.l) of each angle mode, read off apply_divisors
    probe = np.ones((len(LAT.ell_range()), 2 * J + 1, 2 * J + 1))
    probe[len(probe) // 2] = 0.0
    div = apply_divisors(BlockOperator(LAT, probe), om, M, g0, t0).mats[:, 0, 0]
    scale = out.V[0].norm_max()
    worst = 0.0
    for ell in ((1,), (-1,)):
        row = LAT.ell_to_index(ell)
        v = Symbol.x_multiplication(J, VTOY.coeffs[row])
        w = 0.5 * compose(compose(Bmh, v, 2), Bmh, 2)
        Y = w * div[row]
        # the generator symbol solves the homological equation i (omega.l) Y = w
        dot = float(np.dot(ell, om))
        for xi in (-J, 2, 7):
            wscale = np.max(np.abs(w.raw(xi, 0)))
            assert wscale > 0.0
            assert np.max(np.abs(1j * dot * Y.raw(xi, 0) - w.raw(xi, 0))) < 1e-12 * wscale
        Vd = 1j * (compose(Y, B, 2) + compose(B, Y, 2) * -1.0)
        E = np.abs(quantize(Vd) - out.V[0].mat(ell))
        # compare away from the smallest and edge modes
        sel = np.ix_(range(J - 10, J + 11), range(J - 10, J + 11))
        mid = E[sel]
        mid = mid[:, [k for k in range(21) if abs(k - 10) >= 4]]
        worst = max(worst, float(np.max(mid)))
    print(f"[info] symbol-route mid-band error {worst / scale:.4f} * scale")
    assert worst < 0.2 * scale


def test_pauli_algebra_check():
    # the 2x2 Pauli-block identities on random operator blocks: sigma4^2 = 0;
    # i[Y s4, B s3] = i[Y,B] 1 - i(YB+BY) s1; ad^2 = 4YBY s4; ad^3 = 0; and the
    # assembled driven Hamiltonian matches its 2x2 definition
    rng = np.random.default_rng(0)
    dim = 6
    Y = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    B = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    I = np.eye(dim)
    Z = np.zeros((dim, dim), dtype=complex)

    def blocks(a, b, c, d):
        return np.block([[a, b], [c, d]])

    s4 = blocks(I, I, -I, -I)
    assert np.max(np.abs(s4 @ s4)) == 0.0
    Ys4 = blocks(Y, Y, -Y, -Y)
    Bs3 = blocks(B, Z, Z, -B)
    comm = Y @ B - B @ Y
    anti = Y @ B + B @ Y
    ad1 = 1j * (Ys4 @ Bs3 - Bs3 @ Ys4)
    rhs = blocks(1j * comm, Z, Z, 1j * comm) - 1j * blocks(Z, anti, anti, Z)
    assert np.max(np.abs(ad1 - rhs)) < 1e-12
    ad2 = 1j * (Ys4 @ ad1 - ad1 @ Ys4)
    yby = Y @ B @ Y
    assert np.max(np.abs(ad2 - 4.0 * blocks(yby, yby, -yby, -yby))) < 1e-12
    ad3 = 1j * (Ys4 @ ad2 - ad2 @ Ys4)
    assert np.max(np.abs(ad3)) < 1e-12
    # assembled H(t) action against the defining 2x2 matrix form
    Bh = 0.5 * (B + B.conj().T)
    W = 0.5 * (Y + Y.conj().T)   # stand-in for B^{-1/2} V B^{-1/2}
    H = blocks(Bh, Z, Z, -Bh) + blocks(W, W, -W, -W)
    phi = rng.standard_normal(2 * dim) + 1j * rng.standard_normal(2 * dim)
    up, lo = phi[:dim], phi[dim:]
    direct = np.concatenate([Bh @ up + W @ (up + lo), -Bh @ lo - W @ (up + lo)])
    assert np.max(np.abs(H @ phi - direct)) < 1e-12
