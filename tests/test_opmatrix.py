import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg

from fastwave.harmonics import Lattice
from fastwave.opmatrix import (
    BlockOperator, LieSeriesDiverged, _conj_grid, _from_phi_grid,
    _pair_norm_terms, _pair_term_norms, _phi_grid, ad,
    lie_series, pair_norm, s_decay_norm,
)
from oracles import (apply, block, block_slice, in_forked_child, left_right_ops,
                     lie_conjugate, pair_to_dense, random_function, sobolev_norm,
                     stack_pair, structure_defect, zero_op, zero_pair)

LAT = Lattice(1, 3, 6)
LAT2 = Lattice(2, 2, 4)


def modes_op(lat, modes, K=None):
    """The operator with the coefficients {l: A(l)}, zero at every other mode."""
    A = zero_op(lat, K)
    for ell, m in modes.items():
        A.mat(ell)[:] = m
    return A


def within(A, max_ell):
    """A (an operator or a stack) with the modes max_i |l_i| > max_ell set to zero."""
    keep = np.max(np.abs(A.lattice.ell_range()), axis=1) <= max_ell
    return BlockOperator(A.lattice, A.mats * keep[:, None, None])


def random_block_op(lat, rng, n_ell=4, scale=1.0, K=None, max_ell=None):
    mats = {}
    D = 2 * lat.J + 1
    ells = [tuple(e) for e in lat.ell_range()]
    if max_ell is not None:
        ells = [e for e in ells if max(abs(c) for c in e) <= max_ell]
    n_ell = min(n_ell, len(ells))
    for ell in [ells[i] for i in rng.choice(len(ells), size=n_ell, replace=False)]:
        mats[ell] = scale * (rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D)))
    return modes_op(lat, mats, K)


def hamiltonian_pair(Ad, Ao):
    """The pair (1/2 (A^d + A^d*), 1/2 (A^o + conj(A^o)*)): the structure constraints hold."""
    return stack_pair(0.5 * (Ad + Ad.adjoint()), 0.5 * (Ao + Ao.conj_op().adjoint()))


def random_pair(lat, rng, scale=1.0, K=None, n_ell=4):
    """Random pair satisfying the structure constraints exactly."""
    Ad = random_block_op(lat, rng, n_ell=n_ell, scale=scale, K=K)
    Ao = random_block_op(lat, rng, n_ell=n_ell, scale=scale, K=K)
    return hamiltonian_pair(Ad, Ao)


def s_decay_norm_loop(A, s, left=0.0, right=0.0):
    """Independent direct-loop oracle for the s-decay norm of <D>^left A <D>^right."""
    J = A.lattice.J
    total = 0.0
    for ell in A.lattice.ell_range():
        ln = np.linalg.norm(ell)
        for h in range(J + 1):
            sup = 0.0
            for n in range(J + 1):
                for n2 in (n - h, n + h):
                    if 0 <= n2 <= J:
                        blk = max(1, n) ** left * block(A, ell, n, n2) * max(1, n2) ** right
                        sup = max(sup, float(np.sum(np.abs(blk) ** 2)))
            total += max(1.0, ln, h) ** (2 * s) * sup
    return np.sqrt(total)


def pair_norm_loop_terms(P, s, alpha, beta):
    """Direct-loop oracle for every term of the M_s(alpha, beta) pair norm."""
    return [s_decay_norm_loop(P[0] if comp == "d" else P[1], s, left, right)
            for left, right, comp in _pair_norm_terms(alpha, beta)]


def test_identity_norm():
    # only h=0, l=0 contributes; sup over HS of 2-dim identity blocks = sqrt(2)
    I = BlockOperator.time_independent(LAT, np.eye(2 * LAT.J + 1))
    assert s_decay_norm(I, 3.0) == pytest.approx(np.sqrt(2.0), rel=1e-14)


def test_single_block_norm():
    rng = np.random.default_rng(0)
    blk = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    A = zero_op(LAT)
    A.mat((2,))[np.ix_(block_slice(LAT.J, 1), block_slice(LAT.J, 4))] = blk
    s = 2.0
    expect = max(1.0, 2.0, 3.0) ** s * np.linalg.norm(blk)
    assert s_decay_norm(A, s) == pytest.approx(expect, rel=1e-14)


def test_norm_matches_loop_oracle():
    rng = np.random.default_rng(1)
    for lat in (LAT, LAT2):
        A = random_block_op(lat, rng)
        for s in (0.0, 1.0, 2.5):
            assert s_decay_norm(A, s) == pytest.approx(s_decay_norm_loop(A, s), rel=1e-12)


@pytest.mark.parametrize("lat", [LAT, LAT2], ids=["nu1", "nu2"])
@pytest.mark.parametrize("alpha,beta,n_terms", [(0.7, 0.3, 14), (0.5, 0.5, 10)])
def test_pair_norm_matches_loop_oracle(lat, alpha, beta, n_terms):
    rng = np.random.default_rng(9)
    P = random_pair(lat, rng)
    for s in (0.0, 2.0, 3.5):
        want = pair_norm_loop_terms(P, s, alpha, beta)
        assert len(want) == n_terms
        assert pair_norm(P, s, alpha, beta) == pytest.approx(sum(want), rel=1e-12)
        got = list(_pair_term_norms(P, s, alpha, beta).values())
        assert got == pytest.approx(want, rel=1e-12)


def matmul_loop_oracle(A, B):
    """Independent direct convolution over coefficient pairs."""
    out = {}
    ells = [tuple(e) for e in A.lattice.ell_range()]
    for la, ma in zip(ells, A.mats):
        for lb, mb in zip(ells, B.mats):
            ll = tuple(a + b for a, b in zip(la, lb))
            if max(abs(c) for c in ll) > A.lattice.L:
                continue
            out[ll] = out.get(ll, 0) + ma @ mb
    return out


def test_matmul_matches_loop_oracle():
    rng = np.random.default_rng(2)
    A = random_block_op(LAT, rng)
    B = random_block_op(LAT, rng)
    C = A @ B
    ref = matmul_loop_oracle(A, B)
    for ell, m in ref.items():
        assert np.max(np.abs(C.mat(ell) - m)) < 1e-11
    # as an action: C u = A (B u) exactly when no intermediate mode leaves the
    # box (operator supports and input support both away from the edge)
    A2 = random_block_op(LAT, rng, max_ell=1)
    B2 = random_block_op(LAT, rng, max_ell=1)
    C2 = A2 @ B2
    u = random_function(LAT, rng)
    mask = np.zeros(LAT.shape)
    mask[LAT.L - 1:LAT.L + 2, :] = 1.0  # |l| <= 1 = L - 2
    uc = u.coeffs * mask
    lhs = apply(C2, uc)
    rhs = apply(A2, apply(B2, uc))
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_matmul_grid_path_matches_direct():
    # the one (phi-grid) product path against the direct sum over mode pairs,
    # at every mode of the box, the modes the direct sum leaves empty included
    rng = np.random.default_rng(3)
    A = random_block_op(LAT, rng, n_ell=7)
    B = random_block_op(LAT, rng, n_ell=7)
    C1 = modes_op(LAT, matmul_loop_oracle(A, B))
    C2 = A @ B
    for ell in LAT.ell_range():
        assert np.max(np.abs(C1.mat(ell) - C2.mat(ell))) < 1e-11


def test_associativity():
    rng = np.random.default_rng(4)
    lat = Lattice(1, 2, 4)
    A = random_block_op(lat, rng, n_ell=2)
    B = random_block_op(lat, rng, n_ell=2)
    C = random_block_op(lat, rng, n_ell=1)
    # operator-level associativity on the truncation requires keeping all
    # intermediate modes inside the box: use l = 0 operators
    A = BlockOperator.time_independent(lat, A.mat((0,)))
    B = BlockOperator.time_independent(lat, B.mat((0,)))
    C = BlockOperator.time_independent(lat, C.mat((0,)))
    lhs = (A @ B) @ C
    rhs = A @ (B @ C)
    assert np.max(np.abs(lhs.mat((0,)) - rhs.mat((0,)))) < 1e-12 * max(1.0, lhs.norm_max())


def test_pair_norm_zero_and_dedup():
    Z = zero_pair(LAT)
    assert pair_norm(Z, 2.0, 0.5, 0.0) == 0.0
    rng = np.random.default_rng(7)
    P = random_pair(LAT, rng)
    # alpha = beta = 0: 4 one-sided + 2 conjugated copies of plain norms
    plain_d = s_decay_norm(P[0], 2.0)
    plain_o = s_decay_norm(P[1], 2.0)
    assert pair_norm(P, 2.0, 0.0, 0.0) == pytest.approx(3 * plain_d + 3 * plain_o, rel=1e-12)


def test_pair_norm_diagonal_closed_form():
    # diagonal Ad with A_[n]^[n] = <n>^{-1} Id: all terms computable by hand
    J = LAT.J
    w = np.maximum(1, np.abs(np.arange(-J, J + 1)))
    Ad = BlockOperator.time_independent(LAT, np.diag(1.0 / w).astype(complex))
    P = stack_pair(Ad, zero_op(LAT))
    # each diagonal-weight term: sup_n ||<n>^{a} <n>^{-1} Id_[n]||_HS over h=0
    # <D>A<D^{-1}> leaves A unchanged; <D>^1-weighted: sup_n <n>^0 sqrt(2) = sqrt(2)
    # terms: <D>Ad (sqrt2), Ad<D> (sqrt2), two o-terms 0,
    # sigma in {-1,0,1} conjugation terms: d gives sup <n>^{-1}*sqrt(2)=sqrt2@n=... wait n=0 block 1-dim: <0>^{-1}=1, HS=1
    # compute directly instead:
    expect = 0.0
    for left, right in [(1.0, 0.0), (0.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (0.0, 0.0)]:
        sup = 0.0
        for n in range(J + 1):
            wn = max(1, n)
            val = wn ** left * (1.0 / wn) * wn ** right * np.sqrt(2 if n else 1)
            sup = max(sup, val)
        expect += sup
    assert pair_norm(P, 0.0, 1.0, 0.0) == pytest.approx(expect, rel=1e-12)


def test_ad_zero_and_commuting():
    rng = np.random.default_rng(8)
    X = random_pair(LAT, rng)
    Z = zero_pair(LAT)
    assert ad(X, Z).norm_max() == 0.0
    # diagonal multiples of the identity commute
    lam = np.diag(rng.standard_normal(13)).astype(complex)
    Dd = BlockOperator.time_independent(LAT, lam)
    X2 = stack_pair(Dd, zero_op(LAT))
    V2 = stack_pair(Dd * 2.0, zero_op(LAT))
    assert ad(X2, V2).norm_max() < 1e-14


def ad_product_oracle(X, V):
    """The eight-product formula of ad_X(V), through __matmul__ and conj_op."""
    Xd, Xo, Vd, Vo = X[0], X[1], V[0], V[1]
    Wd = Xd @ Vd - Vd @ Xd - (Xo @ Vo.conj_op() - Vo @ Xo.conj_op())
    Wo = Xd @ Vo + Vo @ Xd.conj_op() - (Xo @ Vd.conj_op() + Vd @ Xo)
    return 1j * Wd, 1j * Wo


def edge_op(lat, rng, K=None):
    """Operator with modes at l = 0 and at the box edges l = +-L (on axis 0)."""
    D = 2 * lat.J + 1
    ells = [(0,) * lat.nu, (lat.L,) + (0,) * (lat.nu - 1),
            (-lat.L,) + (1,) * (lat.nu - 1)]
    return modes_op(lat, {e: rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
                          for e in ells}, K)


def spectral_sd(J):
    from fastwave.schrodinger import assemble_lq, eigensolve_blocks
    # real, not even: the eigenbasis conjugation carries complex phases
    qc = np.zeros(2 * J + 1, dtype=complex)
    qc[J] = 1.0
    qc[J + 1], qc[J + 2] = 0.5 * np.exp(0.7j), 0.3 * np.exp(1.1j)
    qc[J - 1], qc[J - 2] = np.conj(qc[J + 1]), np.conj(qc[J + 2])
    return eigensolve_blocks(assemble_lq(qc, J), q=qc)


def spectral_K(J):
    K = spectral_sd(J).conjugation_matrix()
    # not a permutation matrix: entries other than 0 and 1
    assert np.max(np.abs(K - np.round(K.real))) > 1e-3
    return K


@pytest.mark.parametrize("lat", [LAT, LAT2], ids=["nu1", "nu2"])
@pytest.mark.parametrize("basis", ["flip", "spectral"])
@pytest.mark.parametrize("support", ["full", "edge"])
def test_ad_matches_product_oracle(lat, basis, support):
    # truncation-aware oracle: every product is cut back to |l| <= L on its
    # own, so modes at l = +-L exercise the truncation of the grid sum; the
    # edge pairs are symmetrized too, since ad takes Hamiltonian pairs only
    rng = np.random.default_rng(9)
    K = spectral_K(lat.J) if basis == "spectral" else None
    if support == "full":
        n_modes = len(lat.ell_range())
        X = random_pair(lat, rng, K=K, n_ell=n_modes)
        V = random_pair(lat, rng, K=K, n_ell=n_modes)
    else:
        X = hamiltonian_pair(edge_op(lat, rng, K), edge_op(lat, rng, K))
        V = hamiltonian_pair(edge_op(lat, rng, K), edge_op(lat, rng, K))
        assert X.mat((lat.L,) + (0,) * (lat.nu - 1))[1].any()
    W = ad(X, V)
    Wd, Wo = ad_product_oracle(X, V)
    scale = max(Wd.norm_max(), Wo.norm_max())
    for got, want in ((W[0], Wd), (W[1], Wo)):
        assert np.max(np.abs(got.mats - want.mats)) <= 1e-12 * scale
    # the shared grids of a Lie series give the same terms
    W2 = ad(X, V, _phi_grid(lat, X.mats))
    assert (W2 - W).norm_max() == 0.0


def test_ad_matches_dense_commutator():
    # l = 0 operators: the extended-lattice commutator is exact, no truncation
    rng = np.random.default_rng(9)
    lat = Lattice(1, 2, 3)
    X = random_pair(lat, rng)
    V = random_pair(lat, rng)
    X0 = BlockOperator.time_independent(lat, X.mat((0,)))
    V0 = BlockOperator.time_independent(lat, V.mat((0,)))
    assert X0.mats.shape == X.mats.shape
    W0 = ad(X0, V0)
    lhs0 = pair_to_dense(W0)
    X0d, V0d = pair_to_dense(X0), pair_to_dense(V0)
    rhs0 = 1j * (X0d @ V0d - V0d @ X0d)
    assert np.max(np.abs(lhs0 - rhs0)) < 1e-12 * max(1.0, np.max(np.abs(rhs0)))


@pytest.mark.parametrize("lat", [LAT, LAT2], ids=["nu1", "nu2"])
def test_conj_on_grid_matches_conj_op(lat):
    # conj(A)(phi) = K conj(G(phi)) conj(K) at the same phi, mode by mode
    rng = np.random.default_rng(21)
    for K in (None, spectral_K(lat.J)):
        A = random_block_op(lat, rng, n_ell=len(lat.ell_range()), K=K)
        got = _from_phi_grid(lat, _conj_grid(_phi_grid(lat, A.mats), A.K), A.K)
        want = A.conj_op()
        assert got.mats.shape == want.mats.shape
        assert np.max(np.abs(got.mats - want.mats)) <= 1e-12 * want.norm_max()


def test_dense_layout_matches_per_mode_formulas():
    # nu = 2 with modes at the four corners of the box, a non-permutation K
    # and a spread of sizes: each array operation against its per-mode formula
    lat = LAT2
    L, D = lat.L, 2 * lat.J + 1
    K, Kc = spectral_K(lat.J), np.conj(spectral_K(lat.J))
    rng = np.random.default_rng(31)
    sizes = {(L, L): 1.0, (L, -L): 1.0, (-L, L): 1.0, (-L, -L): 1.0, (0, 0): 1e-2,
             (1, -2): 1e-3}
    modes = {e: a * (rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D)))
             for e, a in sizes.items()}
    A = modes_op(lat, modes, K)
    zero = np.zeros((D, D), dtype=complex)
    omega, phi, N, tol = np.array([0.7, -1.3]), np.array([0.4, 2.2]), 2.0, 0.05
    adj, cnj, dphi, pruned = A.adjoint(), A.conj_op(), A.omega_dphi(omega), A.prune(tol)
    lo, hi = stack_pair(A, A.conj_op()).project(N)
    ells = [tuple(int(c) for c in e) for e in lat.ell_range()]
    assert A.mats.shape == ((2 * L + 1) ** 2, D, D)
    for i, ell in enumerate(ells):
        a = modes.get(ell, zero)
        a_neg = modes.get(tuple(-c for c in ell), zero)
        # row i is mode l of ell_range(), and the reversed row is -l
        assert ells[-1 - i] == tuple(-c for c in ell)
        assert np.array_equal(A.mats[i], a) and np.array_equal(A.mat(ell), a)
        assert np.array_equal(adj.mat(ell), a_neg.conj().T)
        assert np.max(np.abs(cnj.mat(ell) - K @ np.conj(a_neg) @ Kc)) <= 1e-14
        assert np.max(np.abs(dphi.mat(ell) - 1j * np.dot(omega, ell) * a)) <= 1e-14
        low = np.linalg.norm(ell) <= N
        assert np.array_equal(lo[0].mat(ell), a if low else zero)
        assert np.array_equal(hi[0].mat(ell), zero if low else a)
        assert np.array_equal(hi[1].mat(ell), zero if low else cnj.mat(ell))
        assert np.array_equal(pruned.mat(ell), a if np.max(np.abs(a)) > tol else zero)
    assert not pruned.mat((0, 0)).any() and pruned.mat((L, -L)).any()
    want = sum(m * np.exp(1j * np.dot(ell, phi)) for ell, m in modes.items())
    assert np.max(np.abs(A.at_angle(phi) - want)) <= 1e-13
    with pytest.raises(ValueError):
        BlockOperator(lat, A.mats[1:], K)


@pytest.mark.parametrize("lat", [LAT, LAT2], ids=["nu1", "nu2"])
def test_stack_methods_act_slice_by_slice(lat):
    # each method on a pair stack (2, n_l, D, D) equals, byte for byte, the
    # same method on each slice; the eigenbasis K is not the index flip
    from fastwave.craig_wayne import build_basis_matrix, change_basis
    rng = np.random.default_rng(41)
    basis = build_basis_matrix(spectral_sd(lat.J))
    n_modes = len(lat.ell_range())
    P = stack_pair(*(random_block_op(lat, rng, n_ell=n_modes, K=basis.K) for _ in "do"))
    # a different set of modes of each slice falls below the prune tolerance
    P.mats[0, ::3] *= 1e-3
    P.mats[1, 1::3] *= 1e-3
    omega, phi = np.array([0.7, -1.3])[:lat.nu], np.array([0.4, 2.2])[:lat.nu]
    methods = {
        "adjoint": lambda A: A.adjoint().mats,
        "conj_op": lambda A: A.conj_op().mats,
        "prune": lambda A: A.prune(0.05).mats,
        "project low": lambda A: A.project(1.5)[0].mats,
        "project high": lambda A: A.project(1.5)[1].mats,
        "omega_dphi": lambda A: A.omega_dphi(omega).mats,
        "at_angle": lambda A: A.at_angle(phi),
        "mat": lambda A: A.mat((1,) * lat.nu),
        "change_basis": lambda A: change_basis(A, basis).mats,
    }
    pruned = P.prune(0.05).mats
    assert not pruned[0, 0].any() and pruned[1, 0].any()
    for name, method in methods.items():
        got, want = method(P), np.stack([method(P[0]), method(P[1])])
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def test_ad_fft_count_and_grid_lifetime(monkeypatch):
    # each term of a series transforms 2 grids to phi and 2 back; X's grid
    # (2 inverse FFTs) is built once per series, by its caller, and not kept
    # on any operand.  A call counts the slices it transforms (the axes in
    # front of its FFT axes), so one call on a pair stack and one call per
    # slice of it, on two threads, count alike.
    from fastwave import opmatrix
    rng = np.random.default_rng(22)
    X = random_pair(LAT, rng) * 1e-2
    V = random_pair(LAT, rng)
    counts = {"ifftn": 0, "fftn": 0}
    lock = threading.Lock()

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            with lock:
                counts[name] += math.prod(a.shape[:min(kwargs["axes"])])
            return fn(a, *args, **kwargs)
        return wrapper
    monkeypatch.setattr(opmatrix.np.fft, "ifftn", counted("ifftn", np.fft.ifftn))
    monkeypatch.setattr(opmatrix.np.fft, "fftn", counted("fftn", np.fft.fftn))
    g = _phi_grid(LAT, X.mats)
    counts.update(ifftn=0, fftn=0)
    ad(X, V, g)
    assert (counts["ifftn"], counts["fftn"]) == (2, 2)
    counts.update(ifftn=0, fftn=0)
    n_terms = 0

    def counted_ad(X, V, x_grid=None):
        nonlocal n_terms
        n_terms += 1
        assert x_grid is not None
        return ad(X, V, x_grid)
    monkeypatch.setattr(opmatrix, "ad", counted_ad)
    out, _ = lie_conjugate(X, V)
    assert n_terms > 3
    assert counts["ifftn"] == 2 + 2 * n_terms and counts["fftn"] == 2 * n_terms
    assert not hasattr(out, "_grid") and not hasattr(out, "__dict__")


@pytest.mark.parametrize("lat", [LAT, LAT2], ids=["nu1", "nu2"])
def test_ad_and_grids_same_bits_without_the_helper_thread(lat):
    # pair grids, ad and products here (two threads where there are two CPUs)
    # against the same calls in a forked child, which computes on one thread
    from fastwave import opmatrix
    rng = np.random.default_rng(24)
    X = random_pair(lat, rng) * 0.1
    V = random_pair(lat, rng)

    def run():
        g = _phi_grid(lat, X.mats)
        return [g.tobytes(), ad(X, V, g).mats.tobytes(), ad(X, V).mats.tobytes(),
                (X[0] @ V[1]).mats.tobytes()]
    here = run()
    assert (opmatrix._helper() is None) == (len(os.sched_getaffinity(0)) == 1)
    there, alone = in_forked_child(run)
    assert alone
    assert there == here


def test_ad_from_several_threads_at_once():
    # four calling threads share the one helper thread, with a thread switch
    # every microsecond; a buffer shared between calls would change some bits
    rng = np.random.default_rng(25)
    pairs = [(random_pair(LAT2, rng) * 0.1, random_pair(LAT2, rng)) for _ in range(4)]
    want = [ad(X, V).mats.tobytes() for X, V in pairs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            runs = [pool.submit(lambda X, V: [ad(X, V).mats.tobytes() for _ in range(5)], X, V)
                    for X, V in pairs]
            got = [run.result(timeout=60) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    assert got == [[w] * 5 for w in want]


def test_ad_preserves_structure():
    rng = np.random.default_rng(10)
    X = random_pair(LAT, rng)
    V = random_pair(LAT, rng)
    assert structure_defect(X) < 1e-13
    W = ad(X, V)
    assert structure_defect(W) < 1e-12


def test_lie_conjugate_identity_and_zero():
    rng = np.random.default_rng(11)
    V = random_pair(LAT, rng)
    X = zero_pair(LAT)
    out, diff = lie_conjugate(X, V)
    assert diff.norm_max() == 0.0
    assert (out - V).norm_max() == 0.0


def pair_family_at_angle(P, phi):
    """The 2x2 matrix-of-operators of P evaluated at a fixed angle."""
    lat = P.lattice
    D = 2 * lat.J + 1
    Ad = np.zeros((D, D), dtype=complex)
    Ao = np.zeros((D, D), dtype=complex)
    for ell, md, mo in zip(lat.ell_range(), P.mats[0], P.mats[1]):
        Ad += md * np.exp(1j * np.dot(ell, phi))
        Ao += mo * np.exp(1j * np.dot(ell, phi))
    K = P.K
    top = np.concatenate([Ad, Ao], axis=1)
    bot = np.concatenate([-K @ np.conj(Ao) @ np.conj(K), -K @ np.conj(Ad) @ np.conj(K)], axis=1)
    return np.concatenate([top, bot], axis=0)


def test_lie_conjugate_matches_dense_expm():
    # oracle: exact expm conjugation of the operator family at sampled angles.
    # X is small and narrowly supported in l so that no series term is clipped
    # by the angle-mode box at the comparison accuracy.
    rng = np.random.default_rng(12)
    lat = Lattice(1, 4, 3)
    X = random_pair(lat, rng)
    X = within(X, 1)
    X = X * (2e-3 / max(X.norm_max(), 1e-30))
    V = within(random_pair(lat, rng), 1)
    out, _ = lie_conjugate(X, V, tol=1e-16)
    for phi in (np.array([0.0]), np.array([0.7]), np.array([2.1])):
        Xm = pair_family_at_angle(X, phi)
        Vm = pair_family_at_angle(V, phi)
        ref = scipy.linalg.expm(1j * Xm) @ Vm @ scipy.linalg.expm(-1j * Xm)
        got = pair_family_at_angle(out, phi)
        assert np.max(np.abs(got - ref)) < 1e-9


def test_lie_series_xdot_matches_dense_integral():
    # the KAM step's second series sum_{k>=0} ad_X^k(Y)/(k+1)!, at Y = Xdot, against
    # int_0^1 e^{isX} Xdot e^{-isX} ds by Gauss-Legendre at sampled angles;
    # X lives on |l| <= 1 and L = 10 leaves room for the terms' l spread
    rng = np.random.default_rng(12)
    lat = Lattice(1, 10, 3)
    X = random_pair(lat, rng)
    X = within(X, 1)
    X = X * (0.05 / max(X.norm_max(), 1e-30))
    Xdot = X.omega_dphi(np.array([1.3]))
    out = lie_series(X, Xdot, Xdot, 1, 1, 1e-16, 1.0 + Xdot.norm_max(), 30,
                     _phi_grid(lat, X.mats))
    nodes, weights = np.polynomial.legendre.leggauss(12)
    for phi in (np.array([0.0]), np.array([0.7]), np.array([2.1])):
        Xm = pair_family_at_angle(X, phi)
        Dm = pair_family_at_angle(Xdot, phi)
        ref = sum(0.5 * w * scipy.linalg.expm(0.5j * (t + 1) * Xm) @ Dm
                  @ scipy.linalg.expm(-0.5j * (t + 1) * Xm)
                  for t, w in zip(nodes, weights))
        got = pair_family_at_angle(out, phi)
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


def test_lie_conjugate_divergence_guard():
    rng = np.random.default_rng(13)
    X = random_pair(LAT, rng, scale=30.0)
    V = random_pair(LAT, rng)
    with pytest.raises(LieSeriesDiverged):
        lie_conjugate(X, V, tol=1e-14)


def test_project_modes():
    rng = np.random.default_rng(14)
    A = random_block_op(LAT, rng, n_ell=6)
    lo, hi = A.project(LAT.L)
    assert hi.norm_max() == 0.0
    lo0, hi0 = A.project(0)
    for ell, m in zip(LAT.ell_range(), lo0.mats):
        assert all(c == 0 for c in ell) or not m.any()
    # smoothing estimate |Pi_N^perp A|_s <= N^{-b} |A|_{s+b}
    for b in (1.0, 2.0):
        for N in (1, 2):
            _, tail = A.project(N)
            assert s_decay_norm(tail, 2.0) <= N ** (-b) * s_decay_norm(A, 2.0 + b) + 1e-12


def test_left_right_ops_scalar():
    ML, MR = left_right_ops(2.0 * np.eye(2), 3.0 * np.eye(2))
    assert np.allclose(ML + MR, 5.0 * np.eye(4))
    assert np.allclose(ML - MR, -1.0 * np.eye(4))


def test_left_right_spectrum_pairwise():
    rng = np.random.default_rng(15)
    for _ in range(10):
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        A = 0.5 * (A + A.conj().T)
        B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        B = 0.5 * (B + B.conj().T)
        ML, MR = left_right_ops(A, B)
        ea, eb = np.linalg.eigvalsh(A), np.linalg.eigvalsh(B)
        for sign in (+1, -1):
            got = np.sort(np.linalg.eigvalsh(ML + sign * MR))
            want = np.sort([x + sign * y for x in ea for y in eb])
            assert np.max(np.abs(got - want)) < 1e-12


def test_left_right_action_and_opnorm():
    rng = np.random.default_rng(16)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    ML, _ = left_right_ops(A, np.zeros((2, 2)))
    assert np.allclose((ML @ X.reshape(-1)).reshape(2, 2), A @ X)
    # ||M_L(A)||_Op <= ||A||_HS
    opn = np.linalg.norm(ML, 2)
    assert opn <= np.linalg.norm(A) + 1e-12


def test_tame_product_inequality():
    from fastwave.calibration import CONSTANTS
    rng = np.random.default_rng(18)
    s, s0 = 4.0, float(LAT.s0)
    C0, Cs = CONSTANTS["sdecay_tame_C_s0"], CONSTANTS["sdecay_tame_C_s"]
    for _ in range(25):
        A = random_block_op(LAT, rng)
        B = random_block_op(LAT, rng)
        lhs = s_decay_norm(A @ B, s)
        rhs = C0 * s_decay_norm(A, s0) * s_decay_norm(B, s) \
            + Cs * s_decay_norm(A, s) * s_decay_norm(B, s0)
        assert lhs <= rhs


def test_opnorm_bounded_by_sdecay():
    from fastwave.calibration import CONSTANTS
    rng = np.random.default_rng(19)
    C = CONSTANTS["opnorm_C_rs"]
    s = 4.0
    for _ in range(10):
        A = random_block_op(LAT, rng)
        u = random_function(LAT, rng)
        Au = apply(A, u.coeffs)
        for r in (0.0, 2.0, 4.0):
            nAu = np.sqrt(np.sum(np.maximum(
                1.0, np.maximum.outer(np.abs(np.arange(-LAT.L, LAT.L + 1)),
                                      np.abs(np.arange(-LAT.J, LAT.J + 1)))) ** (2 * r)
                * np.abs(Au) ** 2))
            assert nAu <= C * s_decay_norm(A, s) * sobolev_norm(u, r) + 1e-12


def test_monotonicity_in_s_alpha_beta():
    rng = np.random.default_rng(20)
    P = random_pair(LAT, rng)
    n_hi = pair_norm(P, 3.0, 1.0, 0.5)
    assert pair_norm(P, 2.0, 1.0, 0.5) <= n_hi + 1e-12
    assert pair_norm(P, 3.0, 0.5, 0.5) <= n_hi + 1e-12
    assert pair_norm(P, 3.0, 1.0, 0.0) <= n_hi + 1e-12
