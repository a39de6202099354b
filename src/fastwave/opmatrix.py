"""Block-matrix operator algebra with s-decay norms.

Linear operators A(phi) on functions of (phi, x) are stored by their
matrix-valued Fourier coefficients A(l), where A(l) is a dense (2J+1)^2
matrix over the space index (rows = output mode, columns = input mode) and l
is the angle-mode transfer: (A u)^(l_out) = sum_l A(l) u^(l_out - l).

Storage: one complex array `mats` of shape (n_l, D, D), D = 2J+1 (a stack
of operators puts leading axes in front, see below), over the full mode
box |l_i| <= L, n_l = (2L+1)^nu, with the rows in `Lattice.ell_range()`
order (the C-ordered box, l = 0 in the middle row).  A mode that is absent
or pruned is a zero row, so sums, scalings, masks and norms are each one
array expression.  The box is symmetric and C-ordered, so reversing the
mode axis maps every l to -l, for any nu: the adjoint A(l) -> A(-l)^*, and
the conjugate operator below, are each one reversal.

The space index is partitioned into blocks [n] = {-n, n} ([0] = {0}); the
2x2 (or rectangular, for n = 0) blocks A_[n]^[n'](l) are views into A(l).
The s-decay norm weighs the worst block at each distance |n - n'|:

    |A|_s^2 = sum_{l, h} <l,h>^(2s) sup_{|n-n'|=h} ||A_[n]^[n'](l)||_HS^2 .

The pair norm M_s(alpha, beta) of (A^d, A^o) is a sum of s-decay norms of
weighted components <D>^a A <D>^b, <D> = diag(<n>): the four one-sided terms
<D>^alpha A^d, A^d <D>^alpha, <D>^beta A^o, A^o <D>^beta, and for each distinct
sigma in {0, +-alpha, +-beta} the conjugated terms <D>^sigma A <D>^-sigma of
both components.  Both indices of a block [n] = {-n, n} have the same <n>
(<-n> = <n>), so every weight is a scalar on a block:

    ||<n>^a A_[n]^[n'] <n'>^b||_HS^2 = <n>^(2a) <n'>^(2b) ||A_[n]^[n']||_HS^2 ,

and all terms of one component share one block-HS^2 tensor.

Operator pairs (A^d, A^o) model the 2x2 matrices-of-operators
[[A^d, A^o], [-conj(A^o), -conj(A^d)]].  A pair is a stack: one
BlockOperator whose `mats` has shape (2, n_l, D, D), A^d = P[0] first and
A^o = P[1] second.  Every method indexes the mode and space axes from the
end, so sums, masks, projections, adjoints, conjugates, angle derivatives
and values at an angle act slice by slice, with each slice's arithmetic
exactly that of a single operator.  Products (`@`) and `s_decay_norm` take
single operators; `ad`, `lie_series` and `pair_norm` take pairs, and their
phi-grid buffers carry the same leading axis.
The conjugate operator conj(A) psi = conj(A conj(psi)) is basis aware: a
conjugation matrix K with conj(psi_j) = sum_k K[k, j] psi_k is attached to
each operator (K = the index flip in the exponential basis).

Products and commutators are evaluated on the phi-grid: a family is sampled
as G(phi) = sum_l A(l) e^{i l.phi} at P = 4L+2 points per angle axis (inverse
FFT), multiplied pointwise in phi, and cut back to the modes |l| <= L
(forward FFT).  The conjugate needs no FFT there, since at the same phi

    conj(A)(phi) = K conj(G(phi)) conj(K)

(`conj_op`, the Floquet assembly); `ad` takes no conjugate grid (see there).

Both transforms run in place on their buffer (`out=`): the grids are the
largest arrays of a KAM step, and a second copy per transform raises the
peak memory of an L=64 run by about a tenth.  Grids are transient and never
stored on an operator: a product builds and drops its operands' grids, `ad`
makes its four products into one (2, P.., D, D) grid stack, and
`lie_series` takes X's grid once per series (`kam_step` builds it once per
step).

The two slices of a pair are worked on two threads where the affinity mask
has two CPUs: `_phi_grid` transforms the slices of a pair stack, and `ad`
computes W^d and W^o (products, forward FFT, cut and fix-up), one on the
calling thread and one on a single helper thread.  numpy releases the GIL
in matmul and its FFTs, and each slice goes through the same numpy calls as
in the stack-wide form, so the results are the same bits.  The helper is
made on first use and runs numpy calls only, on buffers that the calling
thread allocates: its malloc arena stays small, and no public function
(which perfbench's tracer wraps) runs on it.  With one CPU, and in a forked
child (the measure stage's pool workers, which drop the inherited helper),
the arithmetic is stack-wide on one thread: at L=4 the extra per-slice
calls cost more than a second thread saves.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache, partial

import numpy as np

from .harmonics import Lattice, _ell_range


# -- helpers ---------------------------------------------------------------


def _ell_row(lattice: Lattice, ell) -> int:
    """Row of the angle mode ell on the mode axis."""
    return int(np.ravel_multi_index(lattice.ell_to_index(np.atleast_1d(ell)),
                                    (2 * lattice.L + 1,) * lattice.nu))


def _hs_block_tensor(mats, J: int) -> np.ndarray:
    """(modes, J+1, J+1) array of ||A_[n]^[n'](l)||_HS^2 for a stack of l-coefficients."""
    D = 2 * J + 1
    P = np.abs(np.reshape(mats, (-1, D, D))) ** 2
    pp = P[:, J:, J:]
    pm = P[:, J:, J::-1]
    mp = P[:, J::-1, J:]
    mm = P[:, J::-1, J::-1]
    out = pp + pm + mp + mm
    out[:, 0, :] *= 0.5
    out[:, :, 0] *= 0.5
    return out


@lru_cache(maxsize=None)
def _distance_order(J: int):
    """Flat (J+1)^2 block indices sorted by h = |n - n'|, and where each h starts."""
    n = np.arange(J + 1)
    h = np.abs(n[:, None] - n[None, :]).ravel()
    order = np.argsort(h, kind="stable")
    return order, np.searchsorted(h[order], n)


def _s_decay_sq(hs2: np.ndarray, ell_norms: np.ndarray, s: float) -> float:
    """sum_{l,h} <l,h>^(2s) sup_{|n-n'|=h} hs2[l, n, n'], |l| of each mode in ell_norms."""
    J = hs2.shape[-1] - 1
    order, starts = _distance_order(J)
    sup = np.maximum.reduceat(hs2.reshape(len(hs2), (J + 1) ** 2)[:, order], starts, axis=1)
    w = np.maximum(1.0, np.maximum(np.reshape(ell_norms, (-1, 1)), np.arange(J + 1.0)))
    return float(np.sum(w ** (2.0 * s) * sup))


class BlockOperator:
    """phi-quasi-periodic operator: the coefficients A(l) of every mode of the box.

    `mats` is one complex array of shape (..., n_l, D, D), the mode axis in
    `Lattice.ell_range()` order; `mat(l)` is its row l, and a missing mode is a
    zero row.  Reversing the mode axis maps l -> -l.  Leading axes make a stack
    of operators (a pair is the stack (A^d, A^o)), and `P[i]` is one of them.
    K is the conjugation matrix of the basis.
    """

    __slots__ = ("lattice", "mats", "K")

    def __init__(self, lattice: Lattice, mats: np.ndarray, K: np.ndarray | None = None):
        mats = np.asarray(mats, dtype=complex)
        D = 2 * lattice.J + 1
        if mats.shape[-3:] != ((2 * lattice.L + 1) ** lattice.nu, D, D):
            raise ValueError(f"coefficient array shape {mats.shape} does not match the "
                             f"lattice's (..., n_l, {D}, {D})")
        self.lattice = lattice
        self.mats = mats
        self.K = K if K is not None else flip_conjugation(lattice.J)

    # -- constructors ---------------------------------------------------

    @classmethod
    def time_independent(cls, lattice: Lattice, mat: np.ndarray, K=None) -> "BlockOperator":
        """The operator (a stack, for mat of shape (..., D, D)) with A(0) = mat only."""
        D = 2 * lattice.J + 1
        if np.shape(mat)[-2:] != (D, D):
            raise ValueError("matrix coefficient has wrong shape")
        n_l = (2 * lattice.L + 1) ** lattice.nu
        mats = np.zeros(np.shape(mat)[:-2] + (n_l, D, D), dtype=complex)
        mats[..., n_l // 2, :, :] = mat
        return cls(lattice, mats, K)

    # -- accessors --------------------------------------------------------

    def __getitem__(self, i) -> "BlockOperator":
        """Component i of a stack: P[0] = A^d and P[1] = A^o of a pair."""
        return BlockOperator(self.lattice, self.mats[i], self.K)

    def mat(self, ell) -> np.ndarray:
        """A(l): row l of the mode axis (a view)."""
        return self.mats[..., _ell_row(self.lattice, ell), :, :]

    def norm_max(self) -> float:
        return float(np.max(np.abs(self.mats)))

    def _mode_mask(self, keep) -> "BlockOperator":
        return BlockOperator(self.lattice, np.where(keep[..., None, None], self.mats, 0.0),
                             self.K)

    def prune(self, tol: float) -> "BlockOperator":
        """Zero every mode whose largest entry is at most tol."""
        return self._mode_mask(np.max(np.abs(self.mats), axis=(-2, -1)) > tol)

    def project(self, N: float) -> tuple:
        """(Pi_N A, Pi_N^perp A): split the angle modes at |l| <= N."""
        low = self.lattice.ell_norms() <= N
        return self._mode_mask(low), self._mode_mask(~low)

    # -- linear structure -------------------------------------------------

    def __add__(self, other):
        return BlockOperator(self.lattice, self.mats + other.mats, self.K)

    def __sub__(self, other):
        return BlockOperator(self.lattice, self.mats - other.mats, self.K)

    def __mul__(self, scalar):
        return BlockOperator(self.lattice, self.mats * scalar, self.K)

    __rmul__ = __mul__

    # -- products ----------------------------------------------------------

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        """The product of two single operators."""
        if self.lattice != other.lattice:
            raise ValueError("lattice mismatch")
        prod = np.matmul(*_phi_grid(self.lattice, np.stack((self.mats, other.mats))))
        return _from_phi_grid(self.lattice, prod, self.K)

    # -- adjoint, conjugate, fixed angle -------------------------------------

    def adjoint(self) -> "BlockOperator":
        """A^*: A(l) -> A(-l)^*, one reversal of the mode axis."""
        return BlockOperator(self.lattice, self.mats[..., ::-1, :, :].conj().swapaxes(-1, -2),
                             self.K)

    def conj_op(self) -> "BlockOperator":
        """conj(A): psi -> conj(A conj(psi)), i.e. A(l) -> K conj(A(-l)) conj(K)."""
        return BlockOperator(self.lattice, _conj_grid(self.mats[..., ::-1, :, :], self.K),
                             self.K)

    def at_angle(self, phi) -> np.ndarray:
        """The matrix sum_l A(l) e^{i l.phi} (one per component) at a fixed angle phi."""
        *lead, n, D, _ = self.mats.shape
        phase = np.exp(1j * (self.lattice.ell_range() @ np.atleast_1d(phi)))
        return (phase @ self.mats.reshape(*lead, n, D * D)).reshape(*lead, D, D)

    def omega_dphi(self, omega: np.ndarray) -> "BlockOperator":
        """omega . d_phi A: A(l) scaled by i (omega . l)."""
        dots = self.lattice.ell_range() @ np.atleast_1d(np.asarray(omega, dtype=float))
        return BlockOperator(self.lattice, (1j * dots)[:, None, None] * self.mats, self.K)


def flip_conjugation(J: int) -> np.ndarray:
    """K of the exponential basis: conj(e_j) = e_{-j}."""
    return np.eye(2 * J + 1)[::-1].astype(complex)


# -- two threads ---------------------------------------------------------------


_HELPER = []      # [the helper's executor] once asked for; [None] where there is none
_HELPER_MADE = threading.Lock()


def _helper() -> ThreadPoolExecutor | None:
    """The executor of the one helper thread, made on first use; None with one
    CPU in the affinity mask and in a forked child."""
    if not _HELPER:
        with _HELPER_MADE:
            if not _HELPER:
                _HELPER.append(ThreadPoolExecutor(1, "fastwave-helper")
                               if len(os.sched_getaffinity(0)) > 1 else None)
    return _HELPER[0]


def _drop_helper() -> None:
    # a forked child has no helper thread: a submit to the inherited executor
    # would wait forever, so the child computes on its one thread
    _HELPER[:] = [None]


os.register_at_fork(after_in_child=_drop_helper)


def _on_two_threads(first, second) -> None:
    """first() on the helper thread while second() runs on this one.

    Both have returned when this returns.  first may only call numpy (which
    releases the GIL in its loops) on arrays allocated by the caller, so that
    the helper's malloc arena stays small and no public function, which
    perfbench's tracer wraps, runs on it.
    """
    done = _helper().submit(first)
    try:
        second()
    finally:
        done.result()


def _pair_slices(a: np.ndarray, core: int) -> tuple:
    """The slices (..., 0, <core axes>) and (..., 1, <core axes>) of a pair stack:
    the pair axis is the one in front of the last `core` axes."""
    tail = (slice(None),) * core
    return a[(Ellipsis, 0) + tail], a[(Ellipsis, 1) + tail]


# -- the phi-grid --------------------------------------------------------------


@lru_cache(maxsize=None)
def _grid_index(nu: int, L: int) -> tuple:
    """The phi-grid length P = 4L+2, the grid axes (from the end) and each mode
    row's position l mod P on the flattened grid axes."""
    # alias-free truncation of a product back to |l| <= L needs only P >= 3L + 1
    P = 4 * L + 2
    flat = np.ravel_multi_index(tuple(_ell_range(nu, L).T % P), (P,) * nu)
    flat.flags.writeable = False      # shared by every caller of the cache
    return P, tuple(range(-nu - 2, -2)), flat


def _flat_grid(grids: np.ndarray, nu: int) -> np.ndarray:
    """The view of a stack of phi-grids with its nu angle axes as one."""
    return grids.reshape(grids.shape[:grids.ndim - nu - 2] + (-1,) + grids.shape[-2:])


def _phi_grid(lattice: Lattice, mats: np.ndarray) -> np.ndarray:
    """(..., P, .., P, D, D) samples G(phi) = sum_l A(l) e^{i l.phi} of a stack
    of coefficient arrays (..., n_l, D, D).

    phi runs over 2 pi k / P on each angle axis: one inverse FFT per operand,
    in place on the buffer.  The two slices of a pair are transformed on two
    threads where there are two (`_on_two_threads`).
    """
    nu = lattice.nu
    P, axes, flat = _grid_index(nu, lattice.L)
    buf = np.zeros(mats.shape[:-3] + (P,) * nu + mats.shape[-2:], dtype=complex)
    _flat_grid(buf, nu)[..., flat, :, :] = mats
    if mats.ndim > 3 and mats.shape[-4] == 2 and _helper() is not None:
        _on_two_threads(*(partial(_inverse_fft, g, axes, P ** nu)
                          for g in _pair_slices(buf, nu + 2)))
    else:
        _inverse_fft(buf, axes, P ** nu)
    return buf


def _inverse_fft(buf: np.ndarray, axes: tuple, scale: int) -> None:
    np.fft.ifftn(buf, axes=axes, out=buf)
    buf *= scale


def _to_modes(lattice: Lattice, grids: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The coefficients |l| <= L of a stack of phi-grids, written to out
    (..., n_l, D, D); grids is overwritten."""
    P, axes, flat = _grid_index(lattice.nu, lattice.L)
    np.fft.fftn(grids, axes=axes, out=grids)
    # the rows are in range; mode="raise" would copy through a buffer first
    np.take(_flat_grid(grids, lattice.nu), flat, axis=-3, out=out, mode="clip")
    out /= P ** lattice.nu
    return out


def _from_phi_grid(lattice: Lattice, grids: np.ndarray, K) -> BlockOperator:
    """The BlockOperator (modes |l| <= L, one per leading index) of a stack of
    phi-grids; grids is overwritten."""
    n_l = (2 * lattice.L + 1) ** lattice.nu
    out = np.empty(grids.shape[:grids.ndim - lattice.nu - 2] + (n_l,) + grids.shape[-2:],
                   dtype=complex)
    return BlockOperator(lattice, _to_modes(lattice, grids, out), K)


def _conj_grid(G: np.ndarray, K: np.ndarray) -> np.ndarray:
    """K conj(G) conj(K) on the last two axes: the phi-grid of conj(A) from the
    grid G of A (no FFT), and conj(A)(l) from A(-l)."""
    return K @ np.conj(G) @ np.conj(K)


# -- norms ------------------------------------------------------------------


def s_decay_norm(A: BlockOperator, s: float) -> float:
    hs2 = _hs_block_tensor(A.mats, A.lattice.J)
    return math.sqrt(_s_decay_sq(hs2, A.lattice.ell_norms(), s))


def _pair_norm_terms(alpha: float, beta: float):
    """Canonical list of (left, right, component) weight descriptors."""
    terms = [(alpha, 0.0, "d"), (0.0, alpha, "d"), (beta, 0.0, "o"), (0.0, beta, "o")]
    for sig in sorted({alpha, -alpha, beta, -beta, 0.0}):
        terms.append((sig, -sig, "d"))
        terms.append((sig, -sig, "o"))
    return terms


def _pair_term_norms(P: BlockOperator, s: float, alpha: float, beta: float) -> dict:
    """{label: |<D>^left A <D>^right|_s} over _pair_norm_terms, in term order."""
    lat = P.lattice
    J = lat.J
    ln = lat.ell_norms()
    hs2 = {"d": _hs_block_tensor(P.mats[0], J), "o": _hs_block_tensor(P.mats[1], J)}
    wn = np.maximum(1.0, np.arange(J + 1.0))
    out = {}
    for i, (left, right, comp) in enumerate(_pair_norm_terms(alpha, beta)):
        weighted = hs2[comp] * np.outer(wn ** (2.0 * left), wn ** (2.0 * right))
        out[f"term{i}:{comp}:D^{left:g}.A.D^{right:g}"] = math.sqrt(
            _s_decay_sq(weighted, ln, s))
    return out


def pair_norm(P: BlockOperator, s: float, alpha: float, beta: float) -> float:
    """The M_s(alpha, beta) norm of the pair P: 4 one-sided terms + one per distinct sigma."""
    return sum(_pair_term_norms(P, s, alpha, beta).values())


# -- operator pairs ----------------------------------------------------------


def ad(X: BlockOperator, V: BlockOperator, x_grid: np.ndarray | None = None) -> BlockOperator:
    """ad_X(V) = i[X, V] on Hamiltonian pairs (component formulas of the 2x2 algebra):

        W^d = X^d V^d - V^d X^d - X^o conj(V^o) + V^o conj(X^o),
        W^o = X^d V^o + V^o conj(X^d) - X^o conj(V^d) - V^d X^o,   ad_X(V) = i (W^d, W^o).

    Precondition: X and V are Hamiltonian (A^d self-adjoint, (A^o)^* =
    conj(A^o)), as is every generator, remainder and Lie-series term of the
    KAM iteration.  On the phi-grid X^d, V^d are then Hermitian and
    conj(V^o) = (V^o)^H, so with S = X^d V^d - X^o (V^o)^H and
    R = X^d V^o - V^d X^o,  W^d = S - S^* and W^o = R + (conj R)^*.  In modes
    S^*(l) = S(-l)^H and (conj R)^*(l) = K R(l)^T conj(K) (K is unitary with
    K conj(K) = I, so K = K^T).  That is four grid products, V's grids
    (2 inverse FFTs), S and R back to modes |l| <= L (2 forward FFTs), and an
    adjoint and a K-sandwich on the modes.  i is taken into S and R first, so
    i W^d = iS + (iS)^* is self-adjoint bit for bit.  x_grid is X's grid
    `_phi_grid(X.lattice, X.mats)`, built here when not given; a Lie series
    shares one build across its terms.  W^d and W^o are made on two threads
    where there are two (module docstring), into one preallocated output.
    """
    lat, K = X.lattice, X.K
    core = lat.nu + 2
    Xd, Xo = _pair_slices(_phi_grid(lat, X.mats) if x_grid is None else x_grid, core)
    G = _phi_grid(lat, V.mats)
    Vd, Vo = _pair_slices(G, core)
    SR = np.empty_like(G)
    W = np.empty(V.mats.shape, dtype=complex)
    (Sg, Rg), (S, R) = _pair_slices(SR, core), _pair_slices(W, 3)
    cK = np.conj(K)
    if _helper() is None:
        # one thread: transform and scale the stack at once, the fewest numpy calls
        _s_grid(Xd, Xo, Vd, Vo, Sg)
        _r_grid(Xd, Xo, Vd, Vo, Rg)
        _to_modes(lat, SR, W)
        W *= 1j
        _s_adjoin(S)
        _r_sandwich(R, K, cK)
        return BlockOperator(lat, W, K)

    # two threads: W^o on the helper, W^d here; the same calls slice by slice.
    # W^o's scratch is allocated here: V^d X^o on the grid, then in its place
    # the sandwich's two products in modes (P^nu >= 2 (2L+1)^nu rows)
    tmp = np.empty(Rg.size, dtype=complex)
    t1, t2 = tmp[:2 * R.size].reshape((2,) + R.shape)

    def w_o():
        _r_grid(Xd, Xo, Vd, Vo, Rg, tmp.reshape(Rg.shape))
        _to_modes(lat, Rg, R)
        np.multiply(R, 1j, out=R)
        _r_sandwich(R, K, cK, t1, t2)

    def w_d():
        _s_grid(Xd, Xo, Vd, Vo, Sg)
        _to_modes(lat, Sg, S)
        np.multiply(S, 1j, out=S)
        _s_adjoin(S)

    _on_two_threads(w_o, w_d)
    return BlockOperator(lat, W, K)


def _s_grid(Xd, Xo, Vd, Vo, out) -> None:
    """S = X^d V^d - X^o (V^o)^H on the phi-grid; conj(V^o) is dropped before
    X^d V^d is made, so at most one temporary grid is alive at a time."""
    np.matmul(Xo, np.conj(Vo).swapaxes(-1, -2), out=out)
    np.subtract(Xd @ Vd, out, out=out)


def _r_grid(Xd, Xo, Vd, Vo, out, tmp=None) -> None:
    """R = X^d V^o - V^d X^o on the phi-grid (tmp: a buffer for V^d X^o)."""
    np.matmul(Xd, Vo, out=out)
    out -= np.matmul(Vd, Xo, out=tmp)


def _s_adjoin(S) -> None:
    """S + S^* in modes: S(l) + S(-l)^H."""
    S += S[..., ::-1, :, :].conj().swapaxes(-1, -2)


def _r_sandwich(R, K, cK, t1=None, t2=None) -> None:
    """R + (conj R)^* in modes: R(l) + K R(l)^T conj(K) (t1, t2: buffers)."""
    R += np.matmul(np.matmul(K, R.swapaxes(-1, -2), out=t1), cK, out=t2)


class LieSeriesDiverged(RuntimeError):
    pass


def lie_series(X: BlockOperator, total: BlockOperator, term: BlockOperator,
               first: int, shift: int, tol: float, scale: float,
               n_max: int, x_grid: np.ndarray) -> BlockOperator:
    """total + sum_{k=first..n_max} t_k, t_k = ad_X(t_{k-1})/(k + shift), t_{first-1} = term.

    Each term is added to the running total as it is made.  X's phi-grid
    (x_grid, from `_phi_grid(X.lattice, X.mats)`) is shared by every term's
    `ad`.  The series stops after its first term whose max entry is below
    tol * scale.
    LieSeriesDiverged is raised when a term above scale is more than 4x the
    one before it, or when the term of index n_max is still above
    sqrt(tol) * scale.
    """
    prev_inc = None
    for k in range(first, n_max + 1):
        term = ad(X, term, x_grid) * (1.0 / (k + shift))
        inc = term.norm_max()
        total = total + term
        if inc < tol * scale:
            break
        if prev_inc is not None and inc > 4.0 * prev_inc and inc > scale:
            raise LieSeriesDiverged("Lie series increments growing: generator too large")
        prev_inc = inc
    else:
        if inc > math.sqrt(tol) * scale:
            raise LieSeriesDiverged("Lie series did not settle within n_max terms")
    return total
