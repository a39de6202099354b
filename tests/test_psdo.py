import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import fastwave
from fastwave import psdo
from fastwave.psdo import (
    DEFAULT_CUTOFF, ContourSpec, Cutoff, EllipticityError, EllipticSymbol, Symbol, _add,
    _chain_quadratic_batch, _contour_integral, _cutoff_moments, _mul, _parametrix_coeffs,
    _widen, _with_cutoff, _zero, complex_power, compose, entry_decay_exponent, quantize,
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
    return Symbol(J, rule)


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
    a = Symbol.x_multiplication(J, QC).mul(bracket_power(J, -1.0))
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
    b = symbol_sqrt(naive)
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
    # each layer's r-polynomial is evaluated at r = 1/u
    ell = EllipticSymbol.xi2_plus_q(J, QC)
    lam = np.array([-1.0, -7.5, 2.0 + 3.0j])
    ks = 1j * np.arange(-J, J + 1)
    dq, ddq = ks * QC, ks ** 2 * QC
    qq = np.convolve(QC, QC)[J:3 * J + 1]
    delta = np.zeros(2 * J + 1)
    delta[J] = 1.0

    def at_r(c, r):
        # (lambda, 2J+1) x coefficients of the r-polynomial c[k, x] at each r
        c = _widen(np.atleast_2d(c), D)
        return (r[:, None] ** np.arange(len(c))) @ c

    for xi in (3, 7):
        u = (xi ** 2 - lam)[:, None]
        b = _parametrix_coeffs(ell, xi, N=5, max_beta=5)
        want = {(0, 0): delta / u, (1, 0): 0.0 * delta / u, (2, 0): -QC / u ** 2,
                (3, 0): -2j * xi * dq / u ** 3,
                (4, 0): qq / u ** 3 + (-1.0 / u ** 3 + 4.0 * xi ** 2 / u ** 4) * ddq,
                (2, 1): 4.0 * xi * QC / u ** 3}
        for key, w in want.items():
            scale = np.max(np.abs(w)) if key != (1, 0) else np.max(np.abs(want[(0, 0)]))
            got = at_r(b[key[0]][key[1]], 1.0 / u[:, 0])
            assert np.max(np.abs(got - w)) <= 1e-13 * scale, key


def test_parametrix_order_trim():
    # a layer's r-coefficients do not depend on how many xi-derivatives are
    # asked for, and b_1 of xi^2 + q vanishes identically
    ell = EllipticSymbol.xi2_plus_q(J, QC)
    for xi in (0, 3):
        for n_beta in (0, 2):
            lo = _parametrix_coeffs(ell, xi, N=5, max_beta=n_beta + 4)
            hi = _parametrix_coeffs(ell, xi, N=5, max_beta=n_beta + 5)
            assert set(lo) == set(hi)
            for n in lo:
                assert set(lo[n]) < set(hi[n])
                for bb, v in lo[n].items():
                    w = hi[n][bb]
                    assert v.shape == w.shape and v.tobytes() == w.tobytes(), (n, bb)
            assert not np.any(hi[1][0])


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
    # the parametrix symbol and its xi-derivatives equal the layers'
    # r-coefficients summed with each zero layer materialised (b_1 of xi^2 + q
    # vanishes), contracted with the one node's moments; at xi = 0 and
    # lambda = 0.4i the cutoff's transition is hit, at xi = 3 it is not.  Each
    # derivative is the central difference of the one below it.
    ell = EllipticSymbol.xi2_plus_q(J, QC)
    h = 1e-5
    for lam in (-1.0, 0.4j, 2.0 + 3.0j):
        bN = resolvent_parametrix(ell, lam, N=5)
        for xi in (0, 3):
            b = _parametrix_coeffs(ell, xi, N=5, max_beta=6)
            for beta in range(3):
                summed = [_widen(np.atleast_2d(b[0][bb]), D) for bb in range(beta + 1)]
                for n in range(1, 5):
                    summed = [_add(s, _widen(np.atleast_2d(b[n][bb]), D))
                              for bb, s in enumerate(summed)]
                K = max(len(c) for c in summed)
                moments = [m if _zero(m) else np.einsum("i,ik->k", [1.0], m) for m in
                           _cutoff_moments(ell, np.array([lam], dtype=complex), xi, K, beta)]
                want = _widen(_with_cutoff(moments, summed, beta), D)
                got = symbol_at(bN, xi, beta)
                assert np.array_equal(got, want), (lam, xi, beta)
                if beta:
                    fd = (symbol_at(bN, xi + h, beta - 1)
                          - symbol_at(bN, xi - h, beta - 1)) / (2 * h)
                    scale = max(np.max(np.abs(got)), np.max(np.abs(symbol_at(bN, xi))))
                    assert np.max(np.abs(fd - got)) <= 1e-6 * scale, (lam, xi, beta)


def test_compose_with_parametrix():
    # compose takes the parametrix's xi-derivatives on demand:
    # (a + 1) # b_(3)(-1) is the identity up to a residual of order -3
    ell = EllipticSymbol.xi2_plus_q(J, QC)
    shifted = ell.full_symbol() + Symbol.constant(J, 1.0)   # a - (-1)
    R = quantize(compose(shifted, resolvent_parametrix(ell, -1.0, N=3), 2)) - np.eye(D)
    expo, _ = entry_decay_exponent(R)
    assert abs(expo - (-3.0)) < 0.9


def test_parametrix_residual_decay_and_refinement():
    ell = EllipticSymbol.xi2_plus_q(J, cos_coeffs(J, amp=1.0))
    shifted = ell.full_symbol() + Symbol.constant(J, 1.0)   # a - (-1)
    OpA = quantize(shifted)
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
                      compose_N=3)
    for xi in range(-J, J + 1):
        v = B.raw(xi, 0)
        v0 = v[..., v.shape[-1] // 2].item()
        want = math.sqrt(xi ** 2 + 1.0) if abs(xi) >= 1 else 0.0
        assert abs(v0 - want) < 1e-8


def test_power_inverse_check():
    # residual decays like |j|^{-N-ish}: at this desk scale check the decay
    # and a mid-frequency bound; the 1e-6 level is reached at larger |j|
    ell = EllipticSymbol.xi2_plus_q(J, QC)
    inv = complex_power(ell, -1.0, N=4, contour=CONT, compose_N=3)
    R = quantize(inv) @ assemble_lq(QC, J) - np.eye(D)
    colmax = np.max(np.abs(R), axis=0)
    mid = [max(colmax[J + j], colmax[J - j]) for j in range(10, 17)]
    assert max(mid) < 2e-4
    expo, _ = entry_decay_exponent(R, j_lo=5, j_hi=16)
    # extrapolated mid-band residual at |j| ~ 40 reaches the 1e-6 scale
    assert colmax[J + 12] * (40.0 / 12.0) ** expo < 1e-6


def test_power_matches_spectral_sqrt_midrange():
    ell = EllipticSymbol.xi2_plus_q(J, QC)
    B = complex_power(ell, 0.5, N=4, contour=CONT, compose_N=4)
    ref = spectral_power(SD, 0.5)
    E = np.abs(quantize(B) - ref)
    worst = max(np.max(E[:, J + j]) for jj in range(8, J // 2 + 3) for j in (jj, -jj))
    assert worst < 3e-3   # tighter threshold exercised at J=64 in acceptance


def test_power_group_property_smoothing():
    ell = EllipticSymbol.xi2_plus_q(J, QC)
    Q = complex_power(ell, 0.25, N=3, contour=CONT, compose_N=3)
    B = complex_power(ell, 0.5, N=3, contour=CONT, compose_N=3)
    R = quantize(Q) @ quantize(Q) - quantize(B)
    expo, _ = entry_decay_exponent(R, j_lo=5, j_hi=14)
    assert expo <= -0.7    # smoothing: steeper than the factors' order sum - 1


def test_power_insensitive_to_admissible_cutoff(monkeypatch):
    # symbols are evaluated lazily, so each power is read while its cutoff is set
    ell = EllipticSymbol.xi2_plus_q(J, QC)
    xis = (-J, -5, -1, 1, 4, J)
    values = []
    for sharpness in (1.0, 2.0):
        monkeypatch.setattr(psdo, "DEFAULT_CUTOFF", Cutoff(sharpness))
        B = complex_power(ell, -0.5, N=3, contour=CONT, compose_N=3)
        values.append([symbol_at(B, xi) for xi in xis])
    # at integer xi != 0 all admissible cutoffs act identically
    for v1, v2 in zip(*values):
        assert np.max(np.abs(v1 - v2)) < 1e-10


@pytest.mark.parametrize("z", [-0.5, -0.25])
def test_contour_moments_match_node_sum(z):
    # the contour values, contracted from scalar moments, equal the weighted
    # sum of the per-node layer values; at xi = 0 the circle |lambda| = 0.5 lies
    # in chi's transition window (1/3, 2/3), so the moments of chi's
    # derivatives take part (d_xi^2 chi = 2 chi'(t) there)
    ell = EllipticSymbol.xi2_plus_q(J, QC)
    window = ContourSpec(rho=0.5, R=0.5 * math.exp(170), n_quad=280)
    for xi, cont in ((0, window), (1, CONT), (7, CONT), (J, CONT)):
        got = _contour_integral(ell, z, cont, 4)
        want = contour_sum_by_nodes(ell, z, cont, 4, xi, 2)
        power = complex_power(ell, z, cont, N=4, compose_N=2)
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
        complex_power(ell, -0.5, CONT, N=3, compose_N=2)
    with pytest.raises(ValueError, match="principal layer depends on x"):
        resolvent_parametrix(ell, -1.0, N=3).raw(3, 0)


def test_contour_ellipticity_check_covers_every_node():
    # odd n_quad puts phi = 0 on the circle, so lambda = rho is a node; at
    # rho = 1 it touches xi^2 at xi = +-1, and at rho = 1 + 2^-52 it lies within
    # round-off of it, while the spectrum of -d^2 + 2 stays above rho.  The
    # power is refused when it is built, before any value is asked for
    ell = EllipticSymbol(J, [(0, Symbol.xi_poly(J, [0.0, 0.0, 1.0])),
                             (2, Symbol.constant(J, 2.0))])
    for rho, R, n_quad in ((1.0, math.exp(80.0), 63), (1.0 + 2.0 ** -52, 1e3, 21)):
        cont = ContourSpec(rho=rho, R=R, n_quad=n_quad)
        assert rho in cont.nodes(-0.5)[0]
        with pytest.raises(EllipticityError):
            complex_power(ell, -0.5, cont, N=3, compose_N=2)


def test_power_contour_guard():
    ell = EllipticSymbol.xi2_plus_q(J, QC)
    with pytest.raises(EllipticityError):
        # rho far above the bottom of the symbol range: circle crosses it
        complex_power(ell, -0.5, N=2, contour=ContourSpec(2.0, 2.0 * math.exp(80), 64),
                      compose_N=3)


# the psdo-audit's square root at J = 16, its matrix written raw to stdout,
# on the BLAS thread count given on the command line: set after the import,
# which sets one thread, and read back to stderr
_SQRT_MATRIX = """
import json, math, sys
import numpy as np
from fastwave.opmatrix import blas_threads, set_blas_threads
from fastwave.psdo import ContourSpec, EllipticSymbol, complex_power, quantize
from fastwave.schrodinger import assemble_lq, eigensolve_blocks
set_blas_threads(int(sys.argv[1]))
J = 16
qc = np.zeros(2 * J + 1, dtype=complex)
qc[J], qc[J + 1], qc[J - 1] = 1.0, 0.5, 0.5
sd = eigensolve_blocks(assemble_lq(qc, J), q=qc)
rho = 0.45 * float(np.min(sd.mu_sq))
cont = ContourSpec(rho=rho, R=rho * math.exp(170.0), n_quad=280)
B = complex_power(EllipticSymbol.xi2_plus_q(J, qc), 0.5, N=4, contour=cont, compose_N=4)
sys.stdout.buffer.write(quantize(B).tobytes())
sys.stderr.write(json.dumps(blas_threads()))
"""


def test_power_independent_of_blas_threads():
    # the contour sum over 560 nodes gives the same bits with 1 and 2 BLAS
    # threads, so a manifest does not depend on the thread count.  The import
    # sets one thread whatever the environment says, so each child sets its
    # count through the same call after the import and reports it back
    src = str(pathlib.Path(fastwave.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = []
    for n in (1, 2):
        run = subprocess.run([sys.executable, "-c", _SQRT_MATRIX, str(n)], env=env,
                             capture_output=True, check=True, timeout=300)
        counts = json.loads(run.stderr.splitlines()[-1])
        if not counts:
            pytest.skip("no OpenBLAS library is loaded: the thread count is not set")
        assert set(counts.values()) == {n}
        out.append(run.stdout)
    assert len(out[0]) == 16 * (2 * 16 + 1) ** 2
    assert out[0] == out[1]
