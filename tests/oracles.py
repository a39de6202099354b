"""Reference implementations shared by several test modules.

Each is a direct, unoptimised form of something the pipeline computes
another way, or a plain accessor or constructor that only tests need, kept
here so that tests can compare against it.
"""

import contextlib
import math
import multiprocessing
import signal
from functools import lru_cache

import numpy as np
import scipy.signal
import scipy.special

from fastwave.craig_wayne import build_basis_matrix, change_basis
from fastwave.harmonics import TorusFunction
from fastwave.magnus import magnus_transform
from fastwave.kam import LIE_N_MAX, LIE_TOL, prune_C1, solve_homological
from fastwave import opmatrix
from fastwave.opmatrix import BlockOperator, _conj_grid, _phi_grid, ad, lie_series
from fastwave.psdo import DEFAULT_CUTOFF, Symbol, _add, _mul, _widen, parametrix_layers_batch


def lie_conjugate(X: BlockOperator, V: BlockOperator, tol: float = 1e-14,
                  n_max: int = 30):
    """e^{iX} V e^{-iX} = sum_n ad_X^n(V)/n!, truncated at increment < tol (1 + |V|).

    Returns (conjugated pair, difference pair = result - V).
    """
    zero = zero_pair(V.lattice, V.K)
    diff = lie_series(X, zero, V, 1, 0, tol, 1.0 + V.norm_max(), n_max,
                      _phi_grid(X.lattice, X.mats))
    return V + diff, diff


def three_series_remainder(state) -> BlockOperator:
    """kam_step's new remainder summed as three Lie series, of H0, V and Xdot:

        Pi_N^perp V + sum_{k>=2} ad_X^k(H0)/k! + sum_{k>=1} ad_X^k(V)/k!
          - sum_{k>=1} ad_X^k(Xdot)/(k+1)!,    Xdot = omega.d_phi X,

    with kam_step's generator, stopping rule, divergence guard and noise pruning.
    """
    pr = state.params
    Np = pr.N(state.p)
    X = solve_homological(state, Np)
    H0pair = stack_pair(BlockOperator.time_independent(state.lattice, state.H0, K=state.V.K),
                        zero_op(state.lattice, K=state.V.K))
    x_grid = _phi_grid(X.lattice, X.mats)
    adH0 = ad(X, H0pair, x_grid)
    scale = max(adH0.norm_max(), state.V.norm_max(), 1e-300)
    V_new = lie_series(X, state.V.project(Np)[1], adH0, 2, 0, LIE_TOL, scale, LIE_N_MAX,
                       x_grid)
    V_new = lie_series(X, V_new, state.V, 1, 0, LIE_TOL, scale, LIE_N_MAX, x_grid)
    V_new = lie_series(X, V_new, X.omega_dphi(state.omega) * -1.0, 1, 1,
                       LIE_TOL, scale, LIE_N_MAX, x_grid)
    noise = 1e-14 * max(V_new.norm_max(), 1e-300)
    return V_new.prune(noise)


# -- the KAM normal form, block by block ---------------------------------------


def block_slice(J: int, n: int):
    """Scalar indices of block [n] in (-J..J) offset coordinates."""
    if n == 0:
        return np.array([J])
    return np.array([J - n, J + n])


def normal_form_blocks(state) -> dict:
    """n -> the block [n] x [n] of the normal form H0 (1x1 for n = 0, else 2x2)."""
    J = state.lattice.J
    return {n: state.H0[np.ix_(block_slice(J, n), block_slice(J, n))] for n in range(J + 1)}


def block_eigs_oracle(state):
    """`KamState.block_eigs` with one `eigh` per block, laid out in the (D,) / (D, D) form."""
    J = state.lattice.J
    mu, U = np.empty(2 * J + 1), np.zeros((2 * J + 1,) * 2, dtype=complex)
    for n, blk in normal_form_blocks(state).items():
        w, v = np.linalg.eigh(0.5 * (blk + blk.conj().T))
        idx = block_slice(J, n)
        mu[idx], U[np.ix_(idx, idx)] = w, v
    return mu, U


def diagonal_correction_oracle(state) -> np.ndarray:
    """`kam.diagonal_correction` as a copy of each block of V^d(0)."""
    J = state.lattice.J
    V0 = state.V[0].mat((0,) * state.lattice.nu)
    Z = np.zeros_like(V0)
    for n in range(J + 1):
        rows = np.ix_(block_slice(J, n), block_slice(J, n))
        Z[rows] = V0[rows]
    return Z


def final_spectrum_oracle(state):
    """`kam.final_spectrum` block by block, with `eigvalsh` on each block."""
    J = state.lattice.J
    out, weighted = {}, []
    for n, blk in normal_form_blocks(state).items():
        mu = np.linalg.eigvalsh(0.5 * (blk + blk.conj().T))
        lam_n = state.lam_ref[J + n]
        if n == 0:
            eps = (float(mu[0] - lam_n),)
            out[n] = (float(mu[0]), float(mu[0]), eps[0], eps[0])
        else:
            lam_m = state.lam_ref[J - n]
            e_minus = float(mu[0] - min(lam_n, lam_m))
            e_plus = float(mu[1] - max(lam_n, lam_m))
            out[n] = (float(mu[0]), float(mu[1]), e_minus, e_plus)
            eps = (e_minus, e_plus)
        weighted.append(max(1, n) ** state.params.alpha * max(abs(e) for e in eps))
    return out, float(np.max(weighted))


def melnikov_step_oracle(state, Nval=None):
    """`kam.melnikov_step_test` as a Python loop over (l, sign, n, n').

    Each block's gaps |omega.l + mu_a +- mu_b| are formed on their own, in
    the homological solve's association (omega.l + mu_a) +- mu_b.  Of the
    twins (l, n, n', -1) and (-l, n', n, -1), and of (l, n, n', +1) and
    (l, n', n, +1), only the canonical one is visited: l > 0 in the box's
    lexicographic order (l = 0: n < n') on the minus lines, n <= n' on the
    plus lines.  The threshold is written out as
    (gamma/(2 N^tau)) <n +- n'>^alpha / M^alpha, and the worst offender is the
    first smallest margin in loop order.
    """
    pr = state.params
    Nval = pr.N(state.p - 1) if Nval is None else Nval
    mu, _ = state.block_eigs()
    J = state.lattice.J
    mus = [mu[block_slice(J, n)] for n in range(J + 1)]
    C1M = prune_C1(state) * state.M
    worst = {"margin": float("inf")}
    pruned = checked = 0
    for row in state.lattice.ell_range():
        ln = float(np.linalg.norm(row))
        if ln > Nval:
            continue
        dot = float(row @ state.omega)
        centre = tuple(row) == (0,) * len(row)
        for sign in (+1, -1):
            if sign < 0 and tuple(row) < (0,) * len(row):
                continue                  # the twin (-l, n', n) is visited
            for n in range(J + 1):
                for n_in in range(J + 1):
                    if n > n_in and (sign > 0 or centre):
                        continue          # the twin (l, n', n) is visited
                    if sign < 0 and centre and n == n_in:
                        continue          # excluded from the minus index set
                    combo = abs(n + n_in) if sign > 0 else abs(n - n_in)
                    if combo > C1M * max(1.0, ln):
                        pruned += 1
                        continue
                    checked += 1
                    gaps = np.abs(dot + mus[n][:, None] + sign * mus[n_in][None, :])
                    thr = ((pr.gamma / (2.0 * Nval ** pr.tau)) * max(1, combo) ** pr.alpha
                           / state.M ** pr.alpha)
                    margin = float(np.min(gaps)) / thr
                    if margin < worst["margin"]:
                        worst = {"margin": margin, "ell": tuple(int(c) for c in row),
                                 "n": n, "n_in": n_in, "sign": sign,
                                 "gap": float(np.min(gaps)), "threshold": thr}
    worst["pruned"] = pruned
    worst["checked"] = checked
    return worst["margin"] >= 1.0, worst


def left_right_ops(A: np.ndarray, B: np.ndarray):
    """M_L(A): X -> AX and M_R(B): X -> XB on row-major vectorized blocks."""
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    ML = np.kron(A, np.eye(B.shape[0]))
    MR = np.kron(np.eye(A.shape[0]), B.T)
    return ML, MR


def resonant_drive(lattice, sd, n: int, m: int, amplitude: float = 0.5):
    """A single-harmonic driving resonant with the lam_n + lam_m gap.

    Returns (v, omega) with omega[0] = lam_n + lam_m: the plus-type divisor
    omega.l + mu_n + mu_m vanishes at l = -1, pumping that pair of modes.
    """
    lam = sd.lam
    om = float(lam[sd.idx(n)] + lam[sd.idx(m)])
    # drive the x-mode connecting e_n and e_{-m}: j-transfer n + m
    v = TorusFunction.from_modes(
        lattice, {(1, n + m): amplitude / 2, (-1, -(n + m)): amplitude / 2})
    return v, np.array([om])


def eigen_W(q, v: TorusFunction, sd) -> BlockOperator:
    """The kick's W = (1/2) B^{-1/2} V B^{-1/2} in the eigen basis.

    It is `magnus_transform`'s W_mat moved by `change_basis`.  W does not
    depend on the driving frequency; the Magnus step here runs at M = 1e3.
    """
    out = magnus_transform(q, v, np.full(v.lattice.nu, 1.5e3), 1e3, 0.5, 1.0, sd)
    return change_basis(out.W_mat, build_basis_matrix(sd))


def dense_strang(sd, W: BlockOperator, omega, state0, T: float, dt: float,
                 store_every: int = 1) -> np.ndarray:
    """The Strang integrator with a dense kick: the stored (n_t, 2, D) states.

    Each kick builds W(phi) from every angle mode of the eigen-basis W
    (`at_angle`) and the matrix K conj(W(phi)) conj(K) of the conjugate
    family, then applies both.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    half = np.exp(-0.5j * dt * sd.lam)
    state = np.array(state0, dtype=complex)
    states, t = [np.array(state)], 0.0
    n_steps = int(round(T / dt))
    for k in range(n_steps):
        state[0] *= half
        state[1] *= np.conj(half)
        Wp = W.at_angle(omega * (t + 0.5 * dt))
        s = state[0] + state[1]
        state[0] -= 1j * dt * (Wp @ s)
        state[1] += 1j * dt * (_conj_grid(Wp, W.K) @ s)
        state[0] *= half
        state[1] *= np.conj(half)
        t += dt
        if (k + 1) % store_every == 0 or k == n_steps - 1:
            states.append(np.array(state))
    return np.asarray(states)


# -- processes and threads -------------------------------------------------------


@contextlib.contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in the body once it has run for `seconds` (SIGALRM:
    the main thread only), so that a hang fails a test instead of stalling it."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def in_forked_child(fn, seconds: float = 60.0):
    """(fn(), whether opmatrix had no helper thread) computed in a forked child.

    The child drops the helper thread it inherits, so opmatrix computes on one
    thread there.  An error in the child is raised here as a RuntimeError.
    """
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def child_main():
        try:
            send.send((True, (fn(), opmatrix._helper() is None)))
        except Exception as exc:
            send.send((False, repr(exc)))
    child = ctx.Process(target=child_main)
    child.start()
    try:
        if not recv.poll(seconds):
            raise TimeoutError(f"the forked child gave no result in {seconds} s")
        ok, value = recv.recv()
    finally:
        child.kill()
        child.join()
    if not ok:
        raise RuntimeError(f"the forked child failed: {value}")
    return value


# -- the measure -------------------------------------------------------------------


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


# -- functions on the torus ----------------------------------------------------


def random_function(lattice, rng) -> TorusFunction:
    """A seeded random real-valued function: Gaussian coefficients, symmetrized."""
    c = rng.standard_normal(lattice.shape) + 1j * rng.standard_normal(lattice.shape)
    return TorusFunction(lattice, c).symmetrized()


def x_only(lattice, xcoeffs) -> TorusFunction:
    """A function of x alone, embedded as the l = 0 slice."""
    c = np.zeros(lattice.shape, dtype=complex)
    c[(lattice.L,) * lattice.nu] = xcoeffs
    return TorusFunction(lattice, c)


def torus_product(u: TorusFunction, v: TorusFunction) -> TorusFunction:
    """The product uv: the full coefficient convolution, cut back to the lattice box."""
    assert u.lattice == v.lattice
    lat = u.lattice
    full = scipy.signal.convolve(u.coeffs, v.coeffs, method="direct")
    box = (slice(lat.L, 3 * lat.L + 1),) * lat.nu + (slice(lat.J, 3 * lat.J + 1),)
    return TorusFunction(lat, full[box])


def coeff(u: TorusFunction, ell, j) -> complex:
    """The coefficient u_hat(l, j)."""
    return u.coeffs[u.lattice.ell_to_index(np.atleast_1d(ell)) + (int(j) + u.lattice.J,)]


def check_reality(u: TorusFunction, tol: float = 1e-12) -> bool:
    """u_hat(-l, -j) = conj(u_hat(l, j)) to within tol."""
    return bool(np.max(np.abs(u.coeffs - np.conj(np.flip(u.coeffs)))) <= tol)


@lru_cache(maxsize=None)
def _bracket_weights(nu, L, J):
    """<l,j> = max(1, |l|_2, |j|) on the full index box."""
    axes = [np.arange(-L, L + 1)] * nu + [np.arange(-J, J + 1)]
    grids = np.meshgrid(*axes, indexing="ij")
    ell_sq = sum(g.astype(float) ** 2 for g in grids[:-1])
    w = np.maximum(np.sqrt(ell_sq), np.abs(grids[-1]).astype(float))
    return np.maximum(w, 1.0)


def sobolev_norm(u: TorusFunction, s: float) -> float:
    """H^s norm with weight <l,j> = max(1, |l|, |j|)."""
    if s < 0:
        raise ValueError("sobolev_norm requires s >= 0")
    lat = u.lattice
    w = _bracket_weights(lat.nu, lat.L, lat.J)
    return float(np.sqrt(np.sum(w ** (2.0 * s) * np.abs(u.coeffs) ** 2)))


# -- operators -------------------------------------------------------------------


def zero_op(lattice, K=None) -> BlockOperator:
    """The zero operator."""
    D = 2 * lattice.J + 1
    return BlockOperator(lattice, np.zeros(((2 * lattice.L + 1) ** lattice.nu, D, D)), K)


def stack_pair(Ad: BlockOperator, Ao: BlockOperator) -> BlockOperator:
    """The operator pair (A^d, A^o): the two-slice stack of their coefficients."""
    assert Ad.lattice == Ao.lattice
    return BlockOperator(Ad.lattice, np.stack([Ad.mats, Ao.mats]), Ad.K)


def zero_pair(lattice, K=None) -> BlockOperator:
    """The zero operator pair."""
    return stack_pair(zero_op(lattice, K), zero_op(lattice, K))


def block(A: BlockOperator, ell, n: int, n_in: int) -> np.ndarray:
    """The block [A(l)]_[n]^[n_in]."""
    rows = block_slice(A.lattice.J, n)
    cols = block_slice(A.lattice.J, n_in)
    return A.mat(ell)[np.ix_(rows, cols)]


def _shift_ell(coeffs, ell, lat):
    """coeffs(l - ell) with zero fill outside the box."""
    out = np.zeros_like(coeffs)
    src, dst = [], []
    n = 2 * lat.L + 1
    for c in ell:
        if c >= 0:
            dst.append(slice(c, n))
            src.append(slice(0, n - c))
        else:
            dst.append(slice(0, n + c))
            src.append(slice(-c, n))
    out[tuple(dst)] = coeffs[tuple(src)]
    return out


def apply(A: BlockOperator, coeffs: np.ndarray) -> np.ndarray:
    """Action of A on a function given by coefficients of shape lattice.shape."""
    lat = A.lattice
    out = np.zeros(lat.shape, dtype=complex)
    for ell, m in zip(lat.ell_range(), A.mats):
        out += np.tensordot(_shift_ell(coeffs, ell, lat), m, axes=([lat.nu], [1]))
    return out


def to_dense(A: BlockOperator) -> np.ndarray:
    """Full matrix of A over the extended (l, j) mode lattice."""
    lat = A.lattice
    ells = [tuple(e) for e in lat.ell_range()]
    pos = {e: i for i, e in enumerate(ells)}
    D = 2 * lat.J + 1
    n = len(ells) * D
    out = np.zeros((n, n), dtype=complex)
    for lin_in, ell_in in enumerate(ells):
        for ell, m in zip(ells, A.mats):
            i = pos.get(tuple(a + b for a, b in zip(ell, ell_in)))
            if i is not None:
                out[i * D:(i + 1) * D, lin_in * D:(lin_in + 1) * D] = m
    return out


def pair_to_dense(X: BlockOperator) -> np.ndarray:
    """The full 2x2 matrix-of-operators of a pair over the extended lattice."""
    Ad, Ao = to_dense(X[0]), to_dense(X[1])
    n_ell, D = X.mats.shape[1:3]
    K = np.zeros((n_ell * D, n_ell * D), dtype=complex)
    for i in range(n_ell):
        j = n_ell - 1 - i         # the row of -l
        K[j * D:(j + 1) * D, i * D:(i + 1) * D] = X.K

    def conj(M):
        return K @ np.conj(M) @ np.conj(K)
    top = np.concatenate([Ad, Ao], axis=1)
    bot = np.concatenate([-conj(Ao), -conj(Ad)], axis=1)
    return np.concatenate([top, bot], axis=0)


def structure_defect(X: BlockOperator) -> float:
    """max deviation from [A^d]* = A^d, [A^o]* = conj(A^o)."""
    dd = (X[0].adjoint() - X[0]).norm_max()
    oo = (X[1].adjoint() - X[1].conj_op()).norm_max()
    return max(dd, oo)


# -- tame product estimates at nu = 1, weight <l,j> = max(1, |l|, |j|) -----------


def bracket_sum(p: float) -> float:
    """sum over k = (l, j) in Z^2 of <k>^(-p), p > 2, in closed form.

    <k> = 1 at the 9 points max(|l|, |j|) <= 1, and <k> = m at the 8m points
    max(|l|, |j|) = m >= 2, so the sum is 9 + 8 (zeta(p - 1) - 1).
    """
    return 9.0 + 8.0 * (float(scipy.special.zeta(p - 1.0)) - 1.0)


def algebra_tame_constant(s: float, s0: float) -> float:
    """C = 2^(s-1) bracket_sum(2 s0)^(1/2) of |uv|_s <= C (|u|_s |v|_s0 + |u|_s0 |v|_s).

    The derivation is test_harmonics' test_algebra_tame_bound.
    """
    return 2.0 ** (s - 1.0) * math.sqrt(bracket_sum(2.0 * s0))


def sdecay_tame_constant(s: float, s0: float) -> float:
    """C = 2^s bracket_sum(2 s0)^(1/2) of |AB|_s <= C (|A|_s0 |B|_s + |A|_s |B|_s0).

    The derivation is test_opmatrix's test_tame_product_inequality.
    """
    return 2.0 ** s * math.sqrt(bracket_sum(2.0 * s0))


def algebra_ratio(u: TorusFunction, v: TorusFunction, s: float, s0: float) -> float:
    """|uv|_s / (|u|_s |v|_s0 + |u|_s0 |v|_s)."""
    return sobolev_norm(torus_product(u, v), s) / (
        sobolev_norm(u, s) * sobolev_norm(v, s0) + sobolev_norm(u, s0) * sobolev_norm(v, s))


def sdecay_ratio(A: BlockOperator, B: BlockOperator, s: float, s0: float) -> float:
    """|AB|_s / (|A|_s0 |B|_s + |A|_s |B|_s0)."""
    norm = opmatrix.s_decay_norm
    return norm(A @ B, s) / (norm(A, s0) * norm(B, s) + norm(A, s) * norm(B, s0))


def single_modes(lattice, radius: int) -> list:
    """The functions exp(i(l.phi + jx)) with every |l_i|, |j| <= radius."""
    out = []
    for ell in lattice.ell_range():
        if np.max(np.abs(ell)) <= radius:
            for j in range(-radius, radius + 1):
                c = np.zeros(lattice.shape, dtype=complex)
                c[lattice.ell_to_index(ell) + (j + lattice.J,)] = 1.0
                out.append(TorusFunction(lattice, c))
    return out


def single_entries(lattice, radius: int) -> list:
    """The operators with one unit entry (j, j') at one mode l, all of |l_i|, |j|,
    |j'| <= radius."""
    J, out = lattice.J, []
    for i, ell in enumerate(lattice.ell_range()):
        if np.max(np.abs(ell)) <= radius:
            for j in range(-radius, radius + 1):
                for j_in in range(-radius, radius + 1):
                    A = zero_op(lattice)
                    A.mats[i, J + j, J + j_in] = 1.0
                    out.append(A)
    return out


# -- symbols ---------------------------------------------------------------------


def x_to_grid(xcoeffs: np.ndarray, n_points: int) -> np.ndarray:
    """Values of sum_j c_j e^{ijx} on n_points uniform x samples.

    The x coefficients run along the last axis; leading axes are carried along.
    """
    c = np.asarray(xcoeffs, dtype=complex)
    J = (c.shape[-1] - 1) // 2
    buf = np.zeros(c.shape[:-1] + (n_points,), dtype=complex)
    buf[..., np.arange(-J, J + 1) % n_points] = c
    return np.fft.ifft(buf, axis=-1) * n_points


def x_from_grid(values: np.ndarray, J: int) -> np.ndarray:
    """Inverse of x_to_grid: the |j| <= J coefficients along the last axis."""
    values = np.asarray(values, dtype=complex)
    n = values.shape[-1]
    if n < 2 * J + 1:
        raise ValueError("grid too coarse for lattice cutoffs")
    return np.fft.fft(values, axis=-1)[..., np.arange(-J, J + 1) % n] / n


def pointwise(v: np.ndarray, f, oversample: int = 8) -> np.ndarray:
    """f applied pointwise in x to the x coefficients v, on oversample * (2J+1) points."""
    n = oversample * v.shape[-1]
    return x_from_grid(f(x_to_grid(v, n)), (v.shape[-1] - 1) // 2)


def contour_sum_by_nodes(a, z: float, contour, N: int, xi: float, deriv_depth: int,
                         cutoff=DEFAULT_CUTOFF) -> list:
    """[sum_i w_i sum_{n<N} d_xi^beta (chi b_n)(lam_i; ., xi) for beta <= deriv_depth]:
    the contour integral of `complex_power`, before its outer chi(xi), as the
    weighted sum, node by node, of `parametrix_layers_batch`'s values at each
    node, each a (2J+1,) array of x coefficients."""
    lam, w = contour.nodes(z)
    layers = parametrix_layers_batch(a, lam, xi, N, deriv_depth, cutoff)
    D = 2 * a.J + 1
    out = []
    for beta in range(deriv_depth + 1):
        per_node = sum(_widen(layers[(n, beta)], D) for n in range(N))
        out.append(sum(w_i * v_i for w_i, v_i in zip(w, per_node)))
    return out


def symbol_sqrt(a: Symbol, grid_oversample: int = 8) -> Symbol:
    """sqrt(a) pointwise, with derivatives from Leibniz on s*s = a."""
    cache = {}

    def rule(xi, b):
        if (xi, b) not in cache:
            if b == 0:
                out = pointwise(a.raw(xi, 0), np.sqrt, grid_oversample)
            else:
                rhs = a.raw(xi, b)
                for g in range(1, b):
                    term = math.comb(b, g) * _mul(rule(xi, g), rule(xi, b - g))
                    rhs = _add(rhs, -term)
                half_inv = pointwise(rule(xi, 0), lambda s: 1.0 / (2.0 * s),
                                     grid_oversample)
                out = _mul(half_inv, rhs)
            cache[(xi, b)] = out
        return cache[(xi, b)]
    return Symbol(a.J, a.order / 2.0, rule, a.deriv_depth)
