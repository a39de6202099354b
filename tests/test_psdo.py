import math

import numpy as np
import pytest

from fastwave.harmonics import Lattice, TorusFunction, multiply, sobolev_norm
from fastwave.opmatrix import BlockOperator
from fastwave.psdo import (
    ContourSpec, Cutoff, EllipticityError, EllipticSymbol, Symbol,
    commutator_symbol, complex_power, compose, entry_decay_exponent,
    parametrix_layers_batch, quantize, resolvent_parametrix, weighted_norm,
)
from fastwave.schrodinger import assemble_lq, eigensolve_blocks, spectral_power

J = 16
LAT = Lattice(1, 2, J)


def cos_coeffs(J, mean=0.0, amp=1.0):
    c = np.zeros(2 * J + 1, dtype=complex)
    c[J] = mean
    c[J + 1] = c[J - 1] = amp / 2
    return c


QC = cos_coeffs(J, mean=1.0, amp=1.0)          # q = 1 + cos x (positive spectrum)
SD = eigensolve_blocks(assemble_lq(QC, J), q=QC)
CONT = ContourSpec(rho=0.45 * SD.mu_sq.min(),
                   R=0.45 * SD.mu_sq.min() * math.exp(170), n_quad=280)


# -- cutoff ---------------------------------------------------------------


@pytest.mark.parametrize("chi", [Cutoff(1.0), Cutoff(2.0)])
def test_cutoff_shape(chi):
    assert chi(0.0) == 0.0 and chi(1.0 / 3.0) == 0.0
    assert chi(2.0 / 3.0) == 1.0 and chi(5.0) == 1.0
    assert chi(-0.5) == chi(0.5)              # even
    ts = np.linspace(0.34, 0.66, 101)
    vals = chi(ts)
    core = (vals > 1e-9) & (vals < 1.0 - 1e-9)   # away from float saturation
    assert np.all(np.diff(vals)[core[:-1]] > 0)  # strictly increasing transition


@pytest.mark.parametrize("chi", [Cutoff(1.0), Cutoff(2.0)])
def test_cutoff_derivative_continuity(chi):
    # finite differences of chi^(k-1) match chi^(k); smooth across the edges
    h = 1e-6
    for k in (1, 2, 3):
        for t in (0.3401, 0.45, 0.55, 0.6599, 0.2, 0.8):
            fd = (chi(t + h, k - 1) - chi(t - h, k - 1)) / (2 * h)
            assert abs(fd - chi(t, k)) < 2e-4 * max(1.0, abs(chi(t, k)))


# -- quantization ----------------------------------------------------------


def test_quantize_identity():
    one = Symbol.constant(LAT, 1.0)
    Op = quantize(one)
    assert np.allclose(Op.mat((0,)), np.eye(2 * J + 1))


def test_quantize_xi_squared():
    a = Symbol.xi_poly(LAT, [0.0, 0.0, 1.0])
    Op = quantize(a)
    assert np.allclose(Op.mat((0,)), np.diag(np.arange(-J, J + 1) ** 2))


def test_quantize_multiplication_matches_assemble():
    a = Symbol.x_multiplication(LAT, QC)
    Op = quantize(a)
    expect = assemble_lq(QC, J) - np.diag(np.arange(-J, J + 1) ** 2)
    assert np.max(np.abs(Op.mat((0,)) - expect)) < 1e-14


def test_quantize_multiplication_action_matches_multiply():
    rng = np.random.default_rng(0)
    v = TorusFunction.random(LAT, rng, reality=True)
    a = Symbol.torus_multiplication(LAT, v)
    Op = quantize(a)
    u = TorusFunction.random(LAT, rng)
    # multiplication operators reproduce the coefficient convolution,
    # up to angle modes pushed outside the box: keep u's angle support small
    mask = np.zeros(LAT.shape)
    mask[LAT.L, :] = 1.0
    uc = u.coeffs * mask
    got = Op.apply(uc)
    want = multiply(TorusFunction(LAT, uc), v).coeffs
    assert np.max(np.abs(got - want)) < 1e-12


def test_quantize_requires_xi_range():
    a = Symbol.constant(LAT, 1.0)
    a.xi_max = J - 1
    with pytest.raises(ValueError):
        quantize(a)


# -- weighted norms -----------------------------------------------------------


def test_weighted_norm_bracket():
    a = Symbol.bracket_power(LAT, -1.5)
    assert weighted_norm(a, -1.5, 3.0, 0) == pytest.approx(1.0, rel=1e-12)


def test_weighted_norm_separable():
    a = Symbol.x_multiplication(LAT, QC).mul(Symbol.bracket_power(LAT, -1.0))
    got = weighted_norm(a, -1.0, 3.0, 0)
    qn = sobolev_norm(TorusFunction.x_only(LAT, QC), 3.0)
    assert got == pytest.approx(qn, rel=1e-12)


def test_weighted_norm_matches_loop():
    rng = np.random.default_rng(1)
    u = TorusFunction.random(LAT, rng, decay=2.0)
    a = Symbol.torus_multiplication(LAT, u).mul(Symbol.bracket_power(LAT, -2.0))
    got = weighted_norm(a, -2.0, 2.0, 1)
    worst = 0.0
    for beta in (0, 1):
        for xi in range(-J, J + 1):
            val = sobolev_norm(a.eval(xi, beta), 2.0) * max(1, abs(xi)) ** (2.0 + beta)
            worst = max(worst, val)
    assert got == pytest.approx(worst, rel=1e-12)


def test_weighted_norm_depth_guard():
    a = Symbol(LAT, 0.0, lambda xi, b: 1.0 + 0j, deriv_depth=1)
    with pytest.raises(ValueError):
        weighted_norm(a, 0.0, 2.0, 2)


# -- composition ---------------------------------------------------------------


def test_compose_with_one():
    a = Symbol.x_multiplication(LAT, QC).mul(Symbol.bracket_power(LAT, -1.0))
    one = Symbol.constant(LAT, 1.0)
    approx, report = compose(a, one, N=3, with_report=True)
    for xi in (-3, 0, 5):
        assert np.max(np.abs(approx.eval(xi).coeffs - a.eval(xi).coeffs)) < 1e-13
    assert report["residual"].norm_max() < 1e-12


def test_compose_polynomial_exact():
    # a = xi, b = f(x): a#b = xi f - i f' exactly (expansion terminates at N=2)
    a = Symbol.xi_poly(LAT, [0.0, 1.0])
    f = cos_coeffs(J, amp=2.0)
    b = Symbol.x_multiplication(LAT, f)
    approx = compose(a, b, N=2)
    for xi in (-2, 0, 1, 7):
        got = approx.eval(xi).coeffs[LAT.L]
        want = xi * f + (-1j) * (1j * np.arange(-J, J + 1)) * f
        assert np.max(np.abs(got - want)) < 1e-13
    # operator identity: Op(a)Op(b) = Op(a#b) exactly
    R = quantize(a) @ quantize(b) - quantize(approx)
    assert R.norm_max() < 1e-12


def test_compose_sqrt_square_defect():
    # Op(a#b) with a = b = sqrt(xi^2+q): order-0 residual vs L_q, and the
    # naive square Op(b)^2 differs from L_q by bounded entries
    naive = Symbol.xi_poly(LAT, [0.0, 0.0, 1.0]) + Symbol.x_multiplication(LAT, QC)
    b = Symbol(LAT, 2.0, naive._rule, 12, LAT.J).sqrt()
    approx = compose(b, b, N=2)
    Lq = BlockOperator(LAT, {(0,): assemble_lq(QC, J).astype(complex)})
    R2 = quantize(approx) - Lq
    colmax = np.max(np.abs(R2.mat((0,))), axis=0)
    # bounded, non-vanishing defect: the composition is not Op(b^2) = L_q
    assert 1e-4 < np.max(colmax) < 1.0
    sq = quantize(b) @ quantize(b) - Lq
    colmax2 = np.max(np.abs(sq.mat((0,))), axis=0)
    assert 1e-4 < np.max(colmax2) < 1.0
    # no growth across mid frequencies
    lo = max(colmax2[J + j] for j in range(6, 10))
    hi = max(colmax2[J + j] for j in range(12, 16))
    assert hi <= 2.0 * lo


def test_compose_requires_depth():
    a = Symbol(LAT, 0.0, lambda xi, b: 1.0 + 0j, deriv_depth=1)
    with pytest.raises(ValueError):
        compose(a, a, N=3)


def test_commutator_trivial_and_canonical():
    a = Symbol.xi_poly(LAT, [0.0, 1.0])
    lead_aa = commutator_symbol(a, a)
    for xi in (-4, 0, 3):
        assert np.max(np.abs(lead_aa.eval(xi).coeffs)) < 1e-14
    f = cos_coeffs(J, amp=2.0)
    b = Symbol.x_multiplication(LAT, f)
    lead = commutator_symbol(a, b)
    for xi in (-4, 0, 3):
        got = lead.eval(xi).coeffs[LAT.L]
        want = -1j * (1j * np.arange(-J, J + 1)) * f   # -i f'(x)
        assert np.max(np.abs(got - want)) < 1e-13
    # operator-level: [Op(a), Op(b)] = Op(lead) exactly for polynomial a
    R = (quantize(a) @ quantize(b) - quantize(b) @ quantize(a)) - quantize(lead)
    assert R.norm_max() < 1e-12


def test_commutator_residual_decay():
    rng = np.random.default_rng(2)
    u = TorusFunction.x_only(LAT, cos_coeffs(J, amp=1.0), reality=True)
    a = Symbol.torus_multiplication(LAT, u).mul(Symbol.bracket_power(LAT, -1.0))
    naive = Symbol.xi_poly(LAT, [0.0, 0.0, 1.0]) + Symbol.x_multiplication(LAT, QC)
    b = Symbol(LAT, 2.0, naive._rule, 12, LAT.J).sqrt()
    lead, report = commutator_symbol(a, b, with_report=True)
    # orders: -1 + 1 - 2 = -2; fitted exponent should be at or below ~-2 + slack
    assert report["fitted_exponent"] < report["expected_order"] + 0.6


# -- parametrix ------------------------------------------------------------------


def test_parametrix_constant_coefficient():
    ell = EllipticSymbol.single_layer(LAT, Symbol.xi_poly(LAT, [0.0, 0.0, 1.0]), 2.0)
    bN = resolvent_parametrix(ell, -1.0, N=3, deriv_depth=0)
    for xi in range(-J, J + 1):
        v = bN.raw(xi, 0)
        v0 = v[..., v.shape[-1] // 2].item()
        chi_factor = 1.0  # |xi|^2 + |lam| >= 1 >= 2/3 everywhere here
        assert abs(v0 - chi_factor / (xi ** 2 + 1.0)) < 1e-12


def test_parametrix_layers_closed_form():
    # a = xi^2 + q: with u = xi^2 - lambda the recursion has the closed form
    # b0 = 1/u, b1 = 0, b2 = -q/u^2, b3 = -2i xi q'/u^3,
    # b4 = q*q/u^3 + (-1/u^3 + 4 xi^2/u^4) q'', and d_xi b2 = 4 xi q/u^3
    ell = EllipticSymbol.xi2_plus_q(LAT, QC)
    lam = np.array([-1.0, -7.5, 2.0 + 3.0j])
    ks = 1j * np.arange(-J, J + 1)
    dq, ddq = ks * QC, ks ** 2 * QC
    qq = np.convolve(QC, QC)[J:3 * J + 1]
    delta = np.zeros(2 * J + 1)
    delta[J] = 1.0

    def xcoeffs(v):
        # (lambda, 2J+1) x coefficients of a batched phi-independent value
        v = v.reshape(len(lam), v.shape[-1])
        return np.pad(v, ((0, 0), ((2 * J + 1 - v.shape[1]) // 2,) * 2))

    for xi in (3, 7):
        u = (xi ** 2 - lam)[:, None]
        layers = parametrix_layers_batch(ell, lam, xi, N=5, n_beta=1, apply_cutoff=False)
        want = {(0, 0): delta / u, (1, 0): 0.0 * delta / u, (2, 0): -QC / u ** 2,
                (3, 0): -2j * xi * dq / u ** 3,
                (4, 0): qq / u ** 3 + (-1.0 / u ** 3 + 4.0 * xi ** 2 / u ** 4) * ddq,
                (2, 1): 4.0 * xi * QC / u ** 3}
        for key, w in want.items():
            scale = np.max(np.abs(w)) if key != (1, 0) else np.max(np.abs(want[(0, 0)]))
            assert np.max(np.abs(xcoeffs(layers[key]) - w)) <= 1e-13 * scale, key


def test_parametrix_residual_decay_and_refinement():
    ell = EllipticSymbol.xi2_plus_q(LAT, cos_coeffs(J, amp=1.0))
    shifted = ell.full_symbol() + Symbol.constant(LAT, 1.0)   # a - (-1)
    OpA = quantize(Symbol(LAT, 2.0, shifted._rule, 12, LAT.J))
    colmaxes = {}
    for N in (1, 3):
        bN = resolvent_parametrix(ell, -1.0, N=N, deriv_depth=0)
        R = quantize(bN) @ OpA - BlockOperator.identity(LAT)
        expo, colmax = entry_decay_exponent(R)
        colmaxes[N] = colmax
        if N == 3:
            assert abs(expo - (-3.0)) < 0.9   # exponent ~ -N (can be steeper)
    # N=3 residual smaller than N=1 at every |j| >= 8
    for j in range(8, J + 1):
        assert colmaxes[3][J + j] <= colmaxes[1][J + j]
        assert colmaxes[3][J - j] <= colmaxes[1][J - j]


def test_parametrix_ellipticity_guard():
    ell = EllipticSymbol.xi2_plus_q(LAT, cos_coeffs(J, amp=1.0))
    with pytest.raises(EllipticityError):
        resolvent_parametrix(ell, 4.0, N=2)   # lambda inside the symbol range


# -- complex powers -----------------------------------------------------------------


def test_power_constant_coefficient_exact():
    ell = EllipticSymbol.single_layer(LAT, Symbol.xi_poly(LAT, [1.0, 0.0, 1.0]), 2.0)
    B = complex_power(ell, 0.5, N=3, contour=ContourSpec(0.4, 0.4 * math.exp(170), 280))
    for xi in range(-J, J + 1):
        v = B.raw(xi, 0)
        v0 = v[..., v.shape[-1] // 2].item()
        want = math.sqrt(xi ** 2 + 1.0) if abs(xi) >= 1 else 0.0
        assert abs(v0 - want) < 1e-8


def test_power_inverse_check():
    # residual decays like |j|^{-N-ish}: at this desk scale check the decay
    # and a mid-frequency bound; the 1e-6 level is reached at larger |j|
    ell = EllipticSymbol.xi2_plus_q(LAT, QC)
    inv = complex_power(ell, -1.0, N=4, contour=CONT, deriv_depth=0)
    OpInv = quantize(inv)
    OpA = BlockOperator(LAT, {(0,): assemble_lq(QC, J).astype(complex)})
    R = OpInv @ OpA - BlockOperator.identity(LAT)
    colmax = np.max(np.abs(R.mat((0,))), axis=0)
    mid = [max(colmax[J + j], colmax[J - j]) for j in range(10, 17)]
    assert max(mid) < 2e-4
    expo, _ = entry_decay_exponent(R, j_lo=5, j_hi=16)
    # extrapolated mid-band residual at |j| ~ 40 reaches the 1e-6 scale
    assert colmax[J + 12] * (40.0 / 12.0) ** expo < 1e-6


def test_power_matches_spectral_sqrt_midrange():
    ell = EllipticSymbol.xi2_plus_q(LAT, QC)
    B = complex_power(ell, 0.5, N=4, contour=CONT, deriv_depth=0, compose_N=4)
    ref = spectral_power(SD, 0.5)
    E = np.abs(quantize(B).mat((0,)) - ref)
    worst = max(np.max(E[:, J + j]) for jj in range(8, J // 2 + 3) for j in (jj, -jj))
    assert worst < 3e-3   # tighter threshold exercised at J=64 in acceptance


def test_power_group_property_smoothing():
    ell = EllipticSymbol.xi2_plus_q(LAT, QC)
    Q = complex_power(ell, 0.25, N=3, contour=CONT, deriv_depth=0, compose_N=3)
    B = complex_power(ell, 0.5, N=3, contour=CONT, deriv_depth=0, compose_N=3)
    R = quantize(Q) @ quantize(Q) - quantize(B)
    expo, _ = entry_decay_exponent(R, j_lo=5, j_hi=14)
    assert expo <= -0.7    # smoothing: steeper than the factors' order sum - 1


def test_power_insensitive_to_admissible_cutoff():
    ell = EllipticSymbol.xi2_plus_q(LAT, QC)
    B1 = complex_power(ell, -0.5, N=3, contour=CONT, deriv_depth=0,
                       cutoff=Cutoff(1.0))
    B2 = complex_power(ell, -0.5, N=3, contour=CONT, deriv_depth=0,
                       cutoff=Cutoff(2.0))
    # at integer xi != 0 all admissible cutoffs act identically
    for xi in (-J, -5, -1, 1, 4, J):
        d = np.max(np.abs(B1.eval(xi).coeffs - B2.eval(xi).coeffs))
        assert d < 1e-10


def test_power_contour_guard():
    ell = EllipticSymbol.xi2_plus_q(LAT, QC)
    with pytest.raises(EllipticityError):
        # rho far above the bottom of the symbol range: circle crosses it
        complex_power(ell, -0.5, N=2, contour=ContourSpec(2.0, 2.0 * math.exp(80), 64))


def test_symbol_dump_and_decay_csv():
    from fastwave.psdo import decay_fit_csv, symbol_dump
    a = Symbol.x_multiplication(LAT, QC).mul(Symbol.bracket_power(LAT, -1.0))
    d = symbol_dump(a)
    assert d["order"] == -1.0 and "samples" in d and "0" in d["samples"]
    import json
    json.dumps(d)    # JSON-serializable
    R = quantize(a)
    text = decay_fit_csv(R)
    assert text.splitlines()[0] == "abs_j,max_entry,fitted_exponent"
    assert len(text.splitlines()) == J + 2


def test_weighted_norm_lipschitz_variant():
    from fastwave.psdo import weighted_norm_lip
    # omega-labelled family: scaling by 1/|omega| has the expected seminorms
    base = Symbol.x_multiplication(LAT, QC).mul(Symbol.bracket_power(LAT, -1.0))
    fam = {(100.0,): base * (1.0 / 100.0), (110.0,): base * (1.0 / 110.0)}
    w = 0.5
    val = weighted_norm_lip(fam, -1.0, 2.0, 0, w)
    sup = weighted_norm(base, -1.0, 2.0, 0)
    want = sup / 100.0 + w * sup * (1 / 100.0 - 1 / 110.0) / 10.0
    assert val == pytest.approx(want, rel=1e-10)
