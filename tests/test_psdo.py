import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import fastwave
from fastwave.psdo import (
    DEFAULT_CUTOFF, ContourSpec, Cutoff, EllipticityError, EllipticSymbol, Symbol, _add,
    _chain_quadratic_batch, _contour_integral, _mul, _widen, _zero,
    complex_power, compose, entry_decay_exponent, parametrix_layers_batch, quantize,
    resolvent_parametrix,
)
from fastwave.schrodinger import assemble_lq, eigensolve_blocks, spectral_power
from oracles import contour_sum_by_nodes, symbol_sqrt

J = 16
D = 2 * J + 1


def cos_coeffs(J, mean=0.0, amp=1.0):
    c = np.zeros(2 * J + 1, dtype=complex)
    c[J] = mean
    c[J + 1] = c[J - 1] = amp / 2
    return c


QC = cos_coeffs(J, mean=1.0, amp=1.0)          # q = 1 + cos x (positive spectrum)
SD = eigensolve_blocks(assemble_lq(QC, J), q=QC)
CONT = ContourSpec(rho=0.45 * SD.mu_sq.min(),
                   R=0.45 * SD.mu_sq.min() * math.exp(170), n_quad=280)


def bracket_power(J, m):
    """<xi>^m with <xi> = max(1, |xi|); derivatives use the |xi| > 1 branch."""
    def rule(xi, b):
        if abs(xi) <= 1.0:
            return 1.0 + 0.0j if b == 0 else 0.0 + 0.0j
        fall = 1.0
        for i in range(b):
            fall *= (m - i)
        return complex(fall * abs(xi) ** (m - b) * np.sign(xi) ** b)
    return Symbol(J, m, rule, deriv_depth=64)


def symbol_at(a, xi, beta=0):
    """The x coefficients |j| <= J of d_xi^beta a(., xi)."""
    return _widen(a.raw(xi, beta), 2 * a.J + 1)


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
    one = Symbol.constant(J, 1.0)
    assert np.allclose(quantize(one), np.eye(D))


def test_quantize_xi_squared():
    a = Symbol.xi_poly(J, [0.0, 0.0, 1.0])
    assert np.allclose(quantize(a), np.diag(np.arange(-J, J + 1) ** 2))


def test_quantize_multiplication_matches_assemble():
    a = Symbol.x_multiplication(J, QC)
    expect = assemble_lq(QC, J) - np.diag(np.arange(-J, J + 1) ** 2)
    assert np.max(np.abs(quantize(a) - expect)) < 1e-14


# -- composition ---------------------------------------------------------------


def test_compose_with_one():
    a = Symbol.x_multiplication(J, QC).mul(bracket_power(J, -1.0), order=-1.0)
    one = Symbol.constant(J, 1.0)
    approx = compose(a, one, N=3)
    for xi in (-3, 0, 5):
        assert np.max(np.abs(symbol_at(approx, xi) - symbol_at(a, xi))) < 1e-13
    residual = quantize(a) @ quantize(one) - quantize(approx)
    assert np.max(np.abs(residual)) < 1e-12


def test_compose_polynomial_exact():
    # a = xi, b = f(x): a#b = xi f - i f' exactly (expansion terminates at N=2)
    a = Symbol.xi_poly(J, [0.0, 1.0])
    f = cos_coeffs(J, amp=2.0)
    b = Symbol.x_multiplication(J, f)
    approx = compose(a, b, N=2)
    for xi in (-2, 0, 1, 7):
        got = symbol_at(approx, xi)
        want = xi * f + (-1j) * (1j * np.arange(-J, J + 1)) * f
        assert np.max(np.abs(got - want)) < 1e-13
    # operator identity: Op(a)Op(b) = Op(a#b) exactly
    R = quantize(a) @ quantize(b) - quantize(approx)
    assert np.max(np.abs(R)) < 1e-12


def test_compose_sqrt_square_defect():
    # Op(a#b) with a = b = sqrt(xi^2+q): order-0 residual vs L_q, and the
    # naive square Op(b)^2 differs from L_q by bounded entries
    naive = Symbol.xi_poly(J, [0.0, 0.0, 1.0]) + Symbol.x_multiplication(J, QC)
    b = symbol_sqrt(Symbol(J, 2.0, naive._rule, 12))
    approx = compose(b, b, N=2)
    Lq = assemble_lq(QC, J)
    R2 = quantize(approx) - Lq
    colmax = np.max(np.abs(R2), axis=0)
    # bounded, non-vanishing defect: the composition is not Op(b^2) = L_q
    assert 1e-4 < np.max(colmax) < 1.0
    sq = quantize(b) @ quantize(b) - Lq
    colmax2 = np.max(np.abs(sq), axis=0)
    assert 1e-4 < np.max(colmax2) < 1.0
    # no growth across mid frequencies
    lo = max(colmax2[J + j] for j in range(6, 10))
    hi = max(colmax2[J + j] for j in range(12, 16))
    assert hi <= 2.0 * lo


def test_compose_requires_depth():
    a = Symbol(J, 0.0, lambda xi, b: 1.0 + 0j, deriv_depth=1)
    with pytest.raises(ValueError):
        compose(a, a, N=3)


# -- parametrix ------------------------------------------------------------------


def test_parametrix_constant_coefficient():
    ell = EllipticSymbol(J, [(0, Symbol.xi_poly(J, [0.0, 0.0, 1.0]))])
    bN = resolvent_parametrix(ell, -1.0, N=3)
    for xi in range(-J, J + 1):
        v = bN.raw(xi, 0)
        v0 = v[..., v.shape[-1] // 2].item()
        chi_factor = 1.0  # |xi|^2 + |lam| >= 1 >= 2/3 everywhere here
        assert abs(v0 - chi_factor / (xi ** 2 + 1.0)) < 1e-12


def test_parametrix_layers_closed_form():
    # a = xi^2 + q: with u = xi^2 - lambda the recursion has the closed form
    # b0 = 1/u, b1 = 0, b2 = -q/u^2, b3 = -2i xi q'/u^3,
    # b4 = q*q/u^3 + (-1/u^3 + 4 xi^2/u^4) q'', and d_xi b2 = 4 xi q/u^3;
    # at xi = 3, 7 the cutoff chi(xi^2 + |lam|) is identically 1
    ell = EllipticSymbol.xi2_plus_q(J, QC)
    lam = np.array([-1.0, -7.5, 2.0 + 3.0j])
    ks = 1j * np.arange(-J, J + 1)
    dq, ddq = ks * QC, ks ** 2 * QC
    qq = np.convolve(QC, QC)[J:3 * J + 1]
    delta = np.zeros(2 * J + 1)
    delta[J] = 1.0

    def xcoeffs(v):
        # (lambda, 2J+1) x coefficients of a batched value
        return np.pad(v, ((0, 0), ((D - v.shape[1]) // 2,) * 2))

    for xi in (3, 7):
        u = (xi ** 2 - lam)[:, None]
        layers = parametrix_layers_batch(ell, lam, xi, N=5, n_beta=1, cutoff=DEFAULT_CUTOFF)
        want = {(0, 0): delta / u, (1, 0): 0.0 * delta / u, (2, 0): -QC / u ** 2,
                (3, 0): -2j * xi * dq / u ** 3,
                (4, 0): qq / u ** 3 + (-1.0 / u ** 3 + 4.0 * xi ** 2 / u ** 4) * ddq,
                (2, 1): 4.0 * xi * QC / u ** 3}
        for key, w in want.items():
            scale = np.max(np.abs(w)) if key != (1, 0) else np.max(np.abs(want[(0, 0)]))
            assert np.max(np.abs(xcoeffs(layers[key]) - w)) <= 1e-13 * scale, key


def test_parametrix_order_trim_and_lam_axis():
    # a layer does not depend on how many xi-derivatives are asked for, and
    # every value, the identically vanishing b_1 included, has the lam axis
    # first; at xi = 0 and lambda = 0.4i the cutoff's transition is hit
    ell = EllipticSymbol.xi2_plus_q(J, QC)
    lam = np.array([-1.0, 0.4j, 2.0 + 3.0j])
    for xi in (0, 3):
        for n_beta in (0, 2):
            lo = parametrix_layers_batch(ell, lam, xi, N=5, n_beta=n_beta,
                                         cutoff=DEFAULT_CUTOFF)
            hi = parametrix_layers_batch(ell, lam, xi, N=5, n_beta=n_beta + 1,
                                         cutoff=DEFAULT_CUTOFF)
            assert set(lo) < set(hi)
            for key, v in lo.items():
                assert v.shape == hi[key].shape and v.tobytes() == hi[key].tobytes(), key
            for key, v in hi.items():
                assert v.ndim == 2 and v.shape[0] == len(lam), key
            assert not np.any(hi[(1, 0)])


def test_zero_operand_matches_widened_path():
    # a one-entry zero short-circuits products and sums; the values equal
    # those of the general path with the zero widened to the other's shape
    # (a (3, .) value is an r-polynomial of three powers, so a product of two
    # of them has five)
    rng = np.random.default_rng(8)
    zero = np.zeros(1, dtype=complex)

    def full(v):
        v = _widen(np.atleast_2d(v), D)
        return np.pad(v, ((0, 5 - len(v)), (0, 0)))

    for shape in [(1,), (D,), (3, 1), (3, D)]:
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        wide = np.zeros(shape, dtype=complex)
        for op in (_mul, _add):
            want = full(op(wide, x))
            assert np.array_equal(full(op(zero, x)), want), (op, shape)
            assert np.array_equal(full(op(x, zero)), want), (op, shape)


def test_cutoff_derivatives_outside_window_are_structural_zeros():
    # no t in chi's transition window (1/3, 2/3): every derivative of
    # chi(t(xi)) of order >= 1 is the one-entry zero, which the general
    # path would give as zeros; one t inside takes the general path
    t = np.array([0.1, 1.0 / 3.0, 2.0 / 3.0, 5.0]).reshape(4, 1, 1)
    d = _chain_quadratic_batch(DEFAULT_CUTOFF, t, 6.0, 2.0, 4)
    assert np.array_equal(d[0], DEFAULT_CUTOFF(t, 0))
    assert all(_zero(v) for v in d[1:])
    assert not any(np.any(DEFAULT_CUTOFF(t, k)) for k in range(1, 5))
    t[0] = 0.5
    d = _chain_quadratic_batch(DEFAULT_CUTOFF, t, 6.0, 2.0, 4)
    assert all(v.shape == t.shape and np.any(v) for v in d[1:])


def test_resolvent_parametrix_sums_every_layer():
    # the parametrix symbol equals the sum over every layer with each zero
    # layer materialised (b_1 of xi^2 + q vanishes); at xi = 0 and
    # lambda = 0.4i the cutoff's transition is hit, at xi = 3 it is not
    ell = EllipticSymbol.xi2_plus_q(J, QC)
    for lam in (-1.0, 0.4j, 2.0 + 3.0j):
        bN = resolvent_parametrix(ell, lam, N=5)
        for xi in (0, 3):
            layers = parametrix_layers_batch(ell, [lam], xi, N=5, n_beta=0,
                                             cutoff=DEFAULT_CUTOFF)
            want = _widen(layers[(0, 0)][0], D)
            for n in range(1, 5):
                want = _add(want, _widen(layers[(n, 0)][0], D))
            got = bN.raw(xi, 0)
            assert got.shape == want.shape
            assert np.array_equal(got, want), (lam, xi)


def test_parametrix_residual_decay_and_refinement():
    ell = EllipticSymbol.xi2_plus_q(J, cos_coeffs(J, amp=1.0))
    shifted = ell.full_symbol() + Symbol.constant(J, 1.0)   # a - (-1)
    OpA = quantize(Symbol(J, 2.0, shifted._rule, 12))
    colmaxes = {}
    for N in (1, 3):
        bN = resolvent_parametrix(ell, -1.0, N=N)
        R = quantize(bN) @ OpA - np.eye(D)
        expo, colmax = entry_decay_exponent(R)
        colmaxes[N] = colmax
        if N == 3:
            assert abs(expo - (-3.0)) < 0.9   # exponent ~ -N (can be steeper)
    # N=3 residual smaller than N=1 at every |j| >= 8
    for j in range(8, J + 1):
        assert colmaxes[3][J + j] <= colmaxes[1][J + j]
        assert colmaxes[3][J - j] <= colmaxes[1][J - j]


def test_parametrix_ellipticity_guard():
    ell = EllipticSymbol.xi2_plus_q(J, cos_coeffs(J, amp=1.0))
    with pytest.raises(EllipticityError):
        resolvent_parametrix(ell, 4.0, N=2)   # lambda inside the symbol range


# -- complex powers -----------------------------------------------------------------


def test_power_constant_coefficient_exact():
    ell = EllipticSymbol(J, [(0, Symbol.xi_poly(J, [1.0, 0.0, 1.0]))])
    B = complex_power(ell, 0.5, N=3, contour=ContourSpec(0.4, 0.4 * math.exp(170), 280),
                      deriv_depth=3, compose_N=3)
    for xi in range(-J, J + 1):
        v = B.raw(xi, 0)
        v0 = v[..., v.shape[-1] // 2].item()
        want = math.sqrt(xi ** 2 + 1.0) if abs(xi) >= 1 else 0.0
        assert abs(v0 - want) < 1e-8


def test_power_inverse_check():
    # residual decays like |j|^{-N-ish}: at this desk scale check the decay
    # and a mid-frequency bound; the 1e-6 level is reached at larger |j|
    ell = EllipticSymbol.xi2_plus_q(J, QC)
    inv = complex_power(ell, -1.0, N=4, contour=CONT, deriv_depth=0, compose_N=3)
    R = quantize(inv) @ assemble_lq(QC, J) - np.eye(D)
    colmax = np.max(np.abs(R), axis=0)
    mid = [max(colmax[J + j], colmax[J - j]) for j in range(10, 17)]
    assert max(mid) < 2e-4
    expo, _ = entry_decay_exponent(R, j_lo=5, j_hi=16)
    # extrapolated mid-band residual at |j| ~ 40 reaches the 1e-6 scale
    assert colmax[J + 12] * (40.0 / 12.0) ** expo < 1e-6


def test_power_matches_spectral_sqrt_midrange():
    ell = EllipticSymbol.xi2_plus_q(J, QC)
    B = complex_power(ell, 0.5, N=4, contour=CONT, deriv_depth=0, compose_N=4)
    ref = spectral_power(SD, 0.5)
    E = np.abs(quantize(B) - ref)
    worst = max(np.max(E[:, J + j]) for jj in range(8, J // 2 + 3) for j in (jj, -jj))
    assert worst < 3e-3   # tighter threshold exercised at J=64 in acceptance


def test_power_group_property_smoothing():
    ell = EllipticSymbol.xi2_plus_q(J, QC)
    Q = complex_power(ell, 0.25, N=3, contour=CONT, deriv_depth=0, compose_N=3)
    B = complex_power(ell, 0.5, N=3, contour=CONT, deriv_depth=0, compose_N=3)
    R = quantize(Q) @ quantize(Q) - quantize(B)
    expo, _ = entry_decay_exponent(R, j_lo=5, j_hi=14)
    assert expo <= -0.7    # smoothing: steeper than the factors' order sum - 1


def test_power_insensitive_to_admissible_cutoff():
    ell = EllipticSymbol.xi2_plus_q(J, QC)
    B1 = complex_power(ell, -0.5, N=3, contour=CONT, deriv_depth=0, compose_N=3,
                       cutoff=Cutoff(1.0))
    B2 = complex_power(ell, -0.5, N=3, contour=CONT, deriv_depth=0, compose_N=3,
                       cutoff=Cutoff(2.0))
    # at integer xi != 0 all admissible cutoffs act identically
    for xi in (-J, -5, -1, 1, 4, J):
        d = np.max(np.abs(symbol_at(B1, xi) - symbol_at(B2, xi)))
        assert d < 1e-10


@pytest.mark.parametrize("z", [-0.5, -0.25])
def test_contour_moments_match_node_sum(z):
    # the contour values, contracted from scalar moments, equal the weighted
    # sum of the per-node layer values; at xi = 0 the circle |lambda| = 0.5 lies
    # in chi's transition window (1/3, 2/3), so the moments of chi's
    # derivatives take part (d_xi^2 chi = 2 chi'(t) there)
    ell = EllipticSymbol.xi2_plus_q(J, QC)
    window = ContourSpec(rho=0.5, R=0.5 * math.exp(170), n_quad=280)
    for xi, cont in ((0, window), (1, CONT), (7, CONT), (J, CONT)):
        got = _contour_integral(ell, z, cont, 4, 2, DEFAULT_CUTOFF)
        want = contour_sum_by_nodes(ell, z, cont, 4, xi, 2)
        power = complex_power(ell, z, cont, N=4, deriv_depth=2, compose_N=2)
        for beta in range(3):
            value = symbol_at(got, xi, beta)
            assert np.max(np.abs(value - want[beta])) <= 1e-13 * np.max(np.abs(want[beta]))
            if xi:      # chi(xi) = 1 with vanishing derivatives at integer xi != 0
                assert np.array_equal(symbol_at(power, xi, beta), value)


def test_parametrix_rejects_x_dependent_principal_layer():
    # the r-polynomials need a_m(xi) free of x; xi^2 + q(x) as one principal
    # layer is refused, not integrated as if q were constant
    ell = EllipticSymbol(J, [(0, Symbol.xi_poly(J, [0.0, 0.0, 1.0])
                              + Symbol.x_multiplication(J, QC))])
    with pytest.raises(ValueError, match="principal layer depends on x"):
        complex_power(ell, -0.5, CONT, N=3, deriv_depth=0, compose_N=2)
    with pytest.raises(ValueError, match="principal layer depends on x"):
        parametrix_layers_batch(ell, [-1.0], 3, N=3, n_beta=0, cutoff=DEFAULT_CUTOFF)


def test_power_contour_guard():
    ell = EllipticSymbol.xi2_plus_q(J, QC)
    with pytest.raises(EllipticityError):
        # rho far above the bottom of the symbol range: circle crosses it
        complex_power(ell, -0.5, N=2, contour=ContourSpec(2.0, 2.0 * math.exp(80), 64),
                      deriv_depth=3, compose_N=3)


# the psdo-audit's square root at J = 16, its matrix written raw to stdout
_SQRT_MATRIX = """
import math, sys
import numpy as np
from fastwave.psdo import ContourSpec, EllipticSymbol, complex_power, quantize
from fastwave.schrodinger import assemble_lq, eigensolve_blocks
J = 16
qc = np.zeros(2 * J + 1, dtype=complex)
qc[J], qc[J + 1], qc[J - 1] = 1.0, 0.5, 0.5
sd = eigensolve_blocks(assemble_lq(qc, J), q=qc)
rho = 0.45 * float(np.min(sd.mu_sq))
cont = ContourSpec(rho=rho, R=rho * math.exp(170.0), n_quad=280)
B = complex_power(EllipticSymbol.xi2_plus_q(J, qc), 0.5, N=4, contour=cont,
                  deriv_depth=0, compose_N=4)
sys.stdout.buffer.write(quantize(B).tobytes())
"""


def test_power_independent_of_blas_threads():
    # the contour sum over 560 nodes gives the same bits with 1 and 2 BLAS
    # threads, so a manifest does not depend on the host's thread count
    src = str(pathlib.Path(fastwave.__file__).parents[1])
    out = []
    for n in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n,
                   MKL_NUM_THREADS=n,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _SQRT_MATRIX], env=env,
                             capture_output=True, check=True, timeout=300)
        out.append(run.stdout)
    assert len(out[0]) == 16 * (2 * 16 + 1) ** 2
    assert out[0] == out[1]
