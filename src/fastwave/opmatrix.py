"""Block-matrix operator algebra with s-decay norms.

Linear operators A(phi) on functions of (phi, x) are stored by their
matrix-valued Fourier coefficients A(l), where A(l) is a dense (2J+1)^2
matrix over the space index (rows = output mode, columns = input mode) and l
is the angle-mode transfer: (A u)^(l_out) = sum_l A(l) u^(l_out - l).

Storage: one complex array `mats` of shape (n_l, D, D), D = 2J+1, over the
full mode box |l_i| <= L, n_l = (2L+1)^nu, with the rows in
`Lattice.ell_range()` order (the C-ordered box, l = 0 in the middle row).  A
mode that is absent or pruned is a zero row, so sums, scalings, masks and
norms are each one array expression.  The box is symmetric and C-ordered,
so reversing the mode axis maps every l to -l, for any nu: the adjoint
A(l) -> A(-l)^*, and the conjugate operator below, are each one reversal.

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
[[A^d, A^o], [-conj(A^o), -conj(A^d)]]; the conjugate operator
conj(A) psi = conj(A conj(psi)) is basis aware: a conjugation matrix K with
conj(psi_j) = sum_k K[k, j] psi_k is attached to each operator (K = the
index flip in the exponential basis).

Products and commutators are evaluated on the phi-grid: a family is sampled
as G(phi) = sum_l A(l) e^{i l.phi} at P = 4L+2 points per angle axis (inverse
FFT), multiplied pointwise in phi, and cut back to the modes |l| <= L
(forward FFT).  The conjugate needs no FFT there, since at the same phi

    conj(A)(phi) = K conj(G(phi)) conj(K) .

Both transforms run in place on their buffer (`out=`): the grids are the
largest arrays of a KAM step, and a second copy per transform raises the
peak memory of an L=64 run by about a tenth.  Grids are transient and never
stored on an operator: a product builds and drops its operands' grids, `ad`
sums its eight products into one grid per component, and `lie_series` takes
X's grids once per series (`kam_step` builds them once per step).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .harmonics import Lattice, _ell_range


# -- helpers ---------------------------------------------------------------


def _ell_row(lattice: Lattice, ell) -> int:
    """Row of the angle mode ell on the mode axis."""
    return int(np.ravel_multi_index(lattice.ell_to_index(np.atleast_1d(ell)),
                                    (2 * lattice.L + 1,) * lattice.nu))


def _zero_modes(lattice: Lattice) -> np.ndarray:
    D = 2 * lattice.J + 1
    return np.zeros(((2 * lattice.L + 1) ** lattice.nu, D, D), dtype=complex)


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

    `mats` is one complex array of shape (n_l, D, D) in `Lattice.ell_range()`
    order; `mat(l)` is its row l, and a missing mode is a zero row.  Reversing
    the mode axis maps l -> -l.  K is the conjugation matrix of the basis.
    """

    __slots__ = ("lattice", "mats", "K")

    def __init__(self, lattice: Lattice, mats: np.ndarray, K: np.ndarray | None = None):
        mats = np.asarray(mats, dtype=complex)
        D = 2 * lattice.J + 1
        if mats.shape != ((2 * lattice.L + 1) ** lattice.nu, D, D):
            raise ValueError(f"coefficient array shape {mats.shape} does not match the "
                             f"lattice's (n_l, {D}, {D})")
        self.lattice = lattice
        self.mats = mats
        self.K = K if K is not None else flip_conjugation(lattice.J)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, lattice: Lattice, K=None) -> "BlockOperator":
        return cls(lattice, _zero_modes(lattice), K)

    @classmethod
    def identity(cls, lattice: Lattice) -> "BlockOperator":
        return cls.time_independent(lattice, np.eye(2 * lattice.J + 1))

    @classmethod
    def time_independent(cls, lattice: Lattice, mat: np.ndarray, K=None) -> "BlockOperator":
        mats = _zero_modes(lattice)
        if np.shape(mat) != mats.shape[1:]:
            raise ValueError("matrix coefficient has wrong shape")
        mats[len(mats) // 2] = mat
        return cls(lattice, mats, K)

    # -- accessors --------------------------------------------------------

    def mat(self, ell) -> np.ndarray:
        """A(l): row l of `mats` (a view)."""
        return self.mats[_ell_row(self.lattice, ell)]

    def norm_max(self) -> float:
        return float(np.max(np.abs(self.mats)))

    def _mode_mask(self, keep) -> "BlockOperator":
        return BlockOperator(self.lattice, np.where(keep[:, None, None], self.mats, 0.0),
                             self.K)

    def prune(self, tol: float) -> "BlockOperator":
        """Zero every mode whose largest entry is at most tol."""
        return self._mode_mask(np.max(np.abs(self.mats), axis=(1, 2)) > tol)

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
        if self.lattice != other.lattice:
            raise ValueError("lattice mismatch")
        prod = np.matmul(*_phi_grid(self.lattice, (self, other)))
        return _from_phi_grid(self.lattice, prod[None], self.K)[0]

    # -- adjoint, conjugate, fixed angle -------------------------------------

    def adjoint(self) -> "BlockOperator":
        """A^*: A(l) -> A(-l)^*, one reversal of the mode axis."""
        return BlockOperator(self.lattice, self.mats[::-1].conj().swapaxes(1, 2), self.K)

    def conj_op(self) -> "BlockOperator":
        """conj(A): psi -> conj(A conj(psi)), i.e. A(l) -> K conj(A(-l)) conj(K)."""
        return BlockOperator(self.lattice, self.K @ np.conj(self.mats[::-1]) @ np.conj(self.K),
                             self.K)

    def at_angle(self, phi) -> np.ndarray:
        """The matrix sum_l A(l) e^{i l.phi} of the family at a fixed angle phi."""
        n, D = self.mats.shape[:2]
        phase = np.exp(1j * (self.lattice.ell_range() @ np.atleast_1d(phi)))
        return (phase @ self.mats.reshape(n, D * D)).reshape(D, D)

    def omega_dphi(self, omega: np.ndarray) -> "BlockOperator":
        """omega . d_phi A: multiply A(l) by i (omega . l)."""
        dots = self.lattice.ell_range() @ np.atleast_1d(np.asarray(omega, dtype=float))
        return BlockOperator(self.lattice, (1j * dots)[:, None, None] * self.mats, self.K)


def flip_conjugation(J: int) -> np.ndarray:
    """K of the exponential basis: conj(e_j) = e_{-j}."""
    return np.eye(2 * J + 1)[::-1].astype(complex)


# -- the phi-grid --------------------------------------------------------------


@lru_cache(maxsize=None)
def _grid_index(nu: int, L: int) -> tuple:
    """The phi-grid length P = 4L+2 and the grid position l mod P of each mode row."""
    # alias-free truncation of a product back to |l| <= L needs only P >= 3L + 1
    P = 4 * L + 2
    pos = _ell_range(nu, L).T % P
    pos.flags.writeable = False       # shared by every caller of the cache
    return P, tuple(pos)


def _phi_grid(lattice: Lattice, ops) -> np.ndarray:
    """(len(ops), P, .., P, D, D) samples G(phi) = sum_l A(l) e^{i l.phi} of each operand.

    phi runs over 2 pi k / P on each angle axis: one inverse FFT per operand,
    in place on the buffer.
    """
    P, pos = _grid_index(lattice.nu, lattice.L)
    D = 2 * lattice.J + 1
    buf = np.zeros((len(ops),) + (P,) * lattice.nu + (D, D), dtype=complex)
    for i, op in enumerate(ops):
        buf[(i,) + pos] = op.mats
    np.fft.ifftn(buf, axes=tuple(range(1, lattice.nu + 1)), out=buf)
    buf *= P ** lattice.nu
    return buf


def _from_phi_grid(lattice: Lattice, grids: np.ndarray, K) -> list:
    """The BlockOperators (modes |l| <= L) of a stack of phi-grids; grids is overwritten."""
    P, pos = _grid_index(lattice.nu, lattice.L)
    np.fft.fftn(grids, axes=tuple(range(1, lattice.nu + 1)), out=grids)
    coeffs = grids[(slice(None),) + pos]
    coeffs /= P ** lattice.nu
    return [BlockOperator(lattice, c, K) for c in coeffs]


def _conj_grid(G: np.ndarray, K: np.ndarray) -> np.ndarray:
    """The phi-grid of conj(A) from the grid G of A: K conj(G(phi)) conj(K), no FFT."""
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


def _pair_term_norms(P: "OperatorPair", s: float, alpha: float, beta: float) -> dict:
    """{label: |<D>^left A <D>^right|_s} over _pair_norm_terms, in term order."""
    lat = P.Ad.lattice
    J = lat.J
    ln = lat.ell_norms()
    hs2 = {"d": _hs_block_tensor(P.Ad.mats, J), "o": _hs_block_tensor(P.Ao.mats, J)}
    wn = np.maximum(1.0, np.arange(J + 1.0))
    out = {}
    for i, (left, right, comp) in enumerate(_pair_norm_terms(alpha, beta)):
        weighted = hs2[comp] * np.outer(wn ** (2.0 * left), wn ** (2.0 * right))
        out[f"term{i}:{comp}:D^{left:g}.A.D^{right:g}"] = math.sqrt(
            _s_decay_sq(weighted, ln, s))
    return out


def pair_norm(P: "OperatorPair", s: float, alpha: float, beta: float) -> float:
    """The M_s(alpha, beta) norm: 4 one-sided terms + one per distinct sigma."""
    return sum(_pair_term_norms(P, s, alpha, beta).values())


def project_modes(A: BlockOperator, N: float):
    """(Pi_N A, Pi_N^perp A): split the angle modes at |l| <= N."""
    low = A.lattice.ell_norms() <= N
    return A._mode_mask(low), A._mode_mask(~low)


# -- operator pairs ----------------------------------------------------------


class OperatorPair:
    """(A^d, A^o); the off-diagonal entries are implied."""

    __slots__ = ("Ad", "Ao")

    def __init__(self, Ad: BlockOperator, Ao: BlockOperator):
        if Ad.lattice != Ao.lattice:
            raise ValueError("lattice mismatch")
        self.Ad = Ad
        self.Ao = Ao

    def __add__(self, other):
        return OperatorPair(self.Ad + other.Ad, self.Ao + other.Ao)

    def __sub__(self, other):
        return OperatorPair(self.Ad - other.Ad, self.Ao - other.Ao)

    def __mul__(self, scalar):
        return OperatorPair(self.Ad * scalar, self.Ao * scalar)

    def norm_max(self) -> float:
        return max(self.Ad.norm_max(), self.Ao.norm_max())

    def omega_dphi(self, omega):
        return OperatorPair(self.Ad.omega_dphi(omega), self.Ao.omega_dphi(omega))

    def project(self, N: float):
        lo_d, hi_d = project_modes(self.Ad, N)
        lo_o, hi_o = project_modes(self.Ao, N)
        return OperatorPair(lo_d, lo_o), OperatorPair(hi_d, hi_o)


def _x_grids(X: OperatorPair) -> tuple:
    """The phi-grids (Xd, Xo, conj Xd, conj Xo) of the left operand of ad_X."""
    Xd, Xo = _phi_grid(X.Ad.lattice, (X.Ad, X.Ao))
    return Xd, Xo, _conj_grid(Xd, X.Ad.K), _conj_grid(Xo, X.Ao.K)


def _sum_products(out: np.ndarray, terms):
    """out = sum of sign * (a @ b) over terms (sign, a, b), accumulated in place."""
    (_, a, b), *rest = terms
    np.matmul(a, b, out=out)
    tmp = np.empty_like(out)
    for sign, a, b in rest:
        np.matmul(a, b, out=tmp)
        if sign > 0:
            out += tmp
        else:
            out -= tmp


def ad(X: OperatorPair, V: OperatorPair, x_grids: tuple | None = None) -> OperatorPair:
    """ad_X(V) = i[X, V] on operator pairs (component formulas of the 2x2 algebra):

        W^d = X^d V^d - V^d X^d - X^o conj(V^o) + V^o conj(X^o),
        W^o = X^d V^o + V^o conj(X^d) - X^o conj(V^d) - V^d X^o,   ad_X(V) = i (W^d, W^o).

    The eight products are summed on the phi-grid in one pass: V's two grids
    (2 inverse FFTs), the conj grids K conj(G(phi)) conj(K) at the same phi,
    and W^d, W^o back to modes |l| <= L (2 forward FFTs).  x_grids are X's
    grids from `_x_grids(X)`, built here when not given; a Lie series shares
    one build across its terms.
    """
    lat = X.Ad.lattice
    Xd, Xo, cXd, cXo = _x_grids(X) if x_grids is None else x_grids
    Vd, Vo = _phi_grid(lat, (V.Ad, V.Ao))
    cVd, cVo = _conj_grid(Vd, V.Ad.K), _conj_grid(Vo, V.Ao.K)
    W = np.empty((2,) + Vd.shape, dtype=complex)
    _sum_products(W[0], ((1, Xd, Vd), (-1, Vd, Xd), (-1, Xo, cVo), (1, Vo, cXo)))
    _sum_products(W[1], ((1, Xd, Vo), (1, Vo, cXd), (-1, Xo, cVd), (-1, Vd, Xo)))
    W *= 1j
    return OperatorPair(*_from_phi_grid(lat, W, X.Ad.K))


class LieSeriesDiverged(RuntimeError):
    pass


def lie_series(X: OperatorPair, total: OperatorPair, term: OperatorPair,
               first: int, shift: int, tol: float, scale: float,
               n_max: int, x_grids: tuple) -> OperatorPair:
    """total + sum_{k=first..n_max} t_k, t_k = ad_X(t_{k-1})/(k + shift), t_{first-1} = term.

    Each term is added to the running total as it is made.  X's phi-grids
    (x_grids, from `_x_grids(X)`) are shared by every term's `ad`.  The
    series stops after its first term whose max entry is below tol * scale.
    LieSeriesDiverged is raised when a term above scale is more than 4x the
    one before it, or when the term of index n_max is still above
    sqrt(tol) * scale.
    """
    prev_inc = None
    for k in range(first, n_max + 1):
        term = ad(X, term, x_grids) * (1.0 / (k + shift))
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
