"""Block-matrix operator algebra with s-decay norms.

Linear operators A(phi) on functions of (phi, x) are stored as matrix-valued
Fourier coefficients {l -> A(l)}, where A(l) is a dense (2J+1)^2 matrix over
the space index (rows = output mode, columns = input mode) and l is the
angle-mode transfer: (A u)^(l_out) = sum_l A(l) u^(l_out - l).

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

Grids are transient and never stored on an operator: a product builds and
drops its operands' grids, `ad` sums its eight products into one grid per
component, and `lie_series` builds X's grids once and shares them across
the `ad` of every term.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .harmonics import Lattice


# -- helpers ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _ell_list(nu, L):
    from .harmonics import _ell_range
    return [tuple(int(x) for x in row) for row in _ell_range(nu, L)]


def _ell_norm(ell) -> float:
    return math.sqrt(sum(float(c) ** 2 for c in ell))


def block_slice(J: int, n: int):
    """Scalar indices of block [n] in (-J..J) offset coordinates."""
    if n == 0:
        return np.array([J])
    return np.array([J - n, J + n])


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


def _s_decay_sq(hs2: np.ndarray, ells, s: float) -> float:
    """sum_{l,h} <l,h>^(2s) sup_{|n-n'|=h} hs2[l, n, n'] over the modes ells of hs2."""
    J = hs2.shape[-1] - 1
    order, starts = _distance_order(J)
    sup = np.maximum.reduceat(hs2.reshape(len(hs2), (J + 1) ** 2)[:, order], starts, axis=1)
    ln = np.array([_ell_norm(ell) for ell in ells]).reshape(-1, 1)
    w = np.maximum(1.0, np.maximum(ln, np.arange(J + 1.0)))
    return float(np.sum(w ** (2.0 * s) * sup))


class BlockOperator:
    """phi-quasi-periodic operator as {angle transfer l -> (2J+1)^2 matrix}."""

    __slots__ = ("lattice", "mats", "K")

    def __init__(self, lattice: Lattice, mats: dict, K: np.ndarray | None = None):
        self.lattice = lattice
        D = 2 * lattice.J + 1
        self.mats = {}
        for ell, m in mats.items():
            m = np.asarray(m, dtype=complex)
            if m.shape != (D, D):
                raise ValueError("matrix coefficient has wrong shape")
            self.mats[tuple(int(c) for c in ell)] = m
        self.K = K if K is not None else flip_conjugation(lattice.J)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, lattice: Lattice, K=None) -> "BlockOperator":
        return cls(lattice, {}, K)

    @classmethod
    def identity(cls, lattice: Lattice, K=None) -> "BlockOperator":
        D = 2 * lattice.J + 1
        return cls(lattice, {(0,) * lattice.nu: np.eye(D, dtype=complex)}, K)

    @classmethod
    def from_blocks(cls, lattice: Lattice, blocks: dict, K=None) -> "BlockOperator":
        """Build from {(l, n, n') -> block array} entries."""
        D = 2 * lattice.J + 1
        mats = {}
        for (ell, n, n_in), blk in blocks.items():
            ell = tuple(int(c) for c in (ell if isinstance(ell, tuple) else (ell,)))
            m = mats.setdefault(ell, np.zeros((D, D), dtype=complex))
            rows = block_slice(lattice.J, n)
            cols = block_slice(lattice.J, n_in)
            m[np.ix_(rows, cols)] = np.asarray(blk, dtype=complex).reshape(len(rows), len(cols))
        return cls(lattice, mats, K)

    @classmethod
    def time_independent(cls, lattice: Lattice, mat: np.ndarray, K=None) -> "BlockOperator":
        return cls(lattice, {(0,) * lattice.nu: mat}, K)

    def with_K(self, K: np.ndarray) -> "BlockOperator":
        return BlockOperator(self.lattice, self.mats, K)

    # -- accessors --------------------------------------------------------

    def mat(self, ell) -> np.ndarray:
        if np.isscalar(ell):
            ell = (ell,)
        D = 2 * self.lattice.J + 1
        return self.mats.get(tuple(int(c) for c in ell), np.zeros((D, D), dtype=complex))

    def block(self, ell, n: int, n_in: int) -> np.ndarray:
        m = self.mat(ell)
        rows = block_slice(self.lattice.J, n)
        cols = block_slice(self.lattice.J, n_in)
        return m[np.ix_(rows, cols)]

    def norm_max(self) -> float:
        return max((np.max(np.abs(m)) for m in self.mats.values()), default=0.0)

    def prune(self, tol: float = 0.0) -> "BlockOperator":
        return BlockOperator(self.lattice,
                             {l: m for l, m in self.mats.items() if np.max(np.abs(m)) > tol},
                             self.K)

    # -- linear structure -------------------------------------------------

    def _binary(self, other, f):
        keys = set(self.mats) | set(other.mats)
        return BlockOperator(self.lattice,
                             {k: f(self.mat(k), other.mat(k)) for k in keys}, self.K)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __mul__(self, scalar):
        return BlockOperator(self.lattice,
                             {k: m * scalar for k, m in self.mats.items()}, self.K)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    # -- products ----------------------------------------------------------

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        if self.lattice != other.lattice:
            raise ValueError("lattice mismatch")
        n_pairs = len(self.mats) * len(other.mats)
        if n_pairs == 0:
            return BlockOperator.zero(self.lattice, self.K)
        if n_pairs <= 64:
            out = {}
            L = self.lattice.L
            for la, ma in self.mats.items():
                for lb, mb in other.mats.items():
                    ll = tuple(a + b for a, b in zip(la, lb))
                    if max(abs(c) for c in ll) > L:
                        continue
                    if ll in out:
                        out[ll] = out[ll] + ma @ mb
                    else:
                        out[ll] = ma @ mb
            return BlockOperator(self.lattice, out, self.K)
        prod = np.matmul(*_phi_grid(self.lattice, (self, other)))
        return _from_phi_grid(self.lattice, prod[None], self.K)[0]

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        """Action on a function given by coefficients of shape lattice.shape."""
        lat = self.lattice
        out = np.zeros(lat.shape, dtype=complex)
        for ell, m in self.mats.items():
            shifted = _shift_ell(coeffs, ell, lat)
            out += np.tensordot(shifted, m, axes=([lat.nu], [1]))
        return out

    # -- adjoint, conjugate, fixed angle -------------------------------------

    def adjoint(self) -> "BlockOperator":
        return BlockOperator(self.lattice,
                             {tuple(-c for c in k): m.conj().T for k, m in self.mats.items()},
                             self.K)

    def conj_op(self) -> "BlockOperator":
        """conj(A): psi -> conj(A conj(psi)), i.e. A(l) -> K conj(A(-l)) conj(K)."""
        Kc = np.conj(self.K)
        return BlockOperator(self.lattice,
                             {tuple(-c for c in k): self.K @ np.conj(m) @ Kc
                              for k, m in self.mats.items()},
                             self.K)

    def at_angle(self, phi) -> np.ndarray:
        """The matrix sum_l A(l) e^{i l.phi} of the family at a fixed angle phi."""
        D = 2 * self.lattice.J + 1
        out = np.zeros((D, D), dtype=complex)
        phi = np.atleast_1d(phi)
        for ell, m in self.mats.items():
            out += m * np.exp(1j * float(np.dot(ell, phi)))
        return out

    def omega_dphi(self, omega: np.ndarray) -> "BlockOperator":
        """omega . d_phi A: multiply A(l) by i (omega . l)."""
        return BlockOperator(self.lattice,
                             {k: (1j * float(np.dot(omega, k))) * m
                              for k, m in self.mats.items()}, self.K)

    def to_dense(self) -> np.ndarray:
        """Full matrix over the extended (l, j) mode lattice (oracle use)."""
        lat = self.lattice
        ells = _ell_list(lat.nu, lat.L)
        pos = {e: i for i, e in enumerate(ells)}
        D = 2 * lat.J + 1
        n = len(ells) * D
        out = np.zeros((n, n), dtype=complex)
        for lin_in, ell_in in enumerate(ells):
            for ell, m in self.mats.items():
                ell_out = tuple(a + b for a, b in zip(ell, ell_in))
                if ell_out in pos:
                    i = pos[ell_out]
                    out[i * D:(i + 1) * D, lin_in * D:(lin_in + 1) * D] = m
        return out


def _shift_ell(coeffs, ell, lat):
    """coeffs(l - ell) with zero fill outside the box."""
    out = np.zeros_like(coeffs)
    src = []
    dst = []
    n = 2 * lat.L + 1
    for c in ell:
        if c >= 0:
            dst.append(slice(c, n))
            src.append(slice(0, n - c))
        else:
            dst.append(slice(0, n + c))
            src.append(slice(-c, n))
    src.append(slice(None))
    dst.append(slice(None))
    out[tuple(dst)] = coeffs[tuple(src)]
    return out


def flip_conjugation(J: int) -> np.ndarray:
    """K of the exponential basis: conj(e_j) = e_{-j}."""
    return np.eye(2 * J + 1)[::-1].astype(complex)


# -- the phi-grid --------------------------------------------------------------


def _phi_grid(lattice: Lattice, ops) -> np.ndarray:
    """(len(ops), P, .., P, D, D) samples G(phi) = sum_l A(l) e^{i l.phi} of each operand.

    phi runs over 2 pi k / P on each angle axis: one inverse FFT per operand.
    """
    # alias-free truncation of a product back to |l| <= L needs only P >= 3L + 1
    P = 4 * lattice.L + 2
    D = 2 * lattice.J + 1
    buf = np.zeros((len(ops),) + (P,) * lattice.nu + (D, D), dtype=complex)
    for i, op in enumerate(ops):
        if op.mats:
            buf[(i,) + tuple(np.array(list(op.mats)).T % P)] = list(op.mats.values())
    grids = np.fft.ifftn(buf, axes=tuple(range(1, lattice.nu + 1)))
    grids *= P ** lattice.nu
    return grids


def _from_phi_grid(lattice: Lattice, grids: np.ndarray, K) -> list:
    """The BlockOperators (modes |l| <= L, exact zeros dropped) of a stack of phi-grids."""
    P = grids.shape[1]
    ells = _ell_list(lattice.nu, lattice.L)
    coeffs = np.fft.fftn(grids, axes=tuple(range(1, lattice.nu + 1)))[
        (slice(None),) + tuple(np.array(ells).T % P)]
    coeffs /= P ** lattice.nu
    keep = np.max(np.abs(coeffs), axis=(2, 3)) > 0.0
    return [BlockOperator(lattice, {ell: m for ell, m, k in zip(ells, c, kp) if k}, K)
            for c, kp in zip(coeffs, keep)]


def _conj_grid(G: np.ndarray, K: np.ndarray) -> np.ndarray:
    """The phi-grid of conj(A) from the grid G of A: K conj(G(phi)) conj(K), no FFT."""
    return K @ np.conj(G) @ np.conj(K)


# -- norms ------------------------------------------------------------------


def s_decay_norm(A: BlockOperator, s: float) -> float:
    hs2 = _hs_block_tensor(list(A.mats.values()), A.lattice.J)
    return math.sqrt(_s_decay_sq(hs2, list(A.mats), s))


def _pair_norm_terms(alpha: float, beta: float):
    """Canonical list of (left, right, component) weight descriptors."""
    terms = [(alpha, 0.0, "d"), (0.0, alpha, "d"), (beta, 0.0, "o"), (0.0, beta, "o")]
    for sig in sorted({alpha, -alpha, beta, -beta, 0.0}):
        terms.append((sig, -sig, "d"))
        terms.append((sig, -sig, "o"))
    return terms


def _pair_term_norms(P: "OperatorPair", s: float, alpha: float, beta: float) -> dict:
    """{label: |<D>^left A <D>^right|_s} over _pair_norm_terms, in term order."""
    J = P.Ad.lattice.J
    hs2 = {comp: (_hs_block_tensor(list(op.mats.values()), J), list(op.mats))
           for comp, op in (("d", P.Ad), ("o", P.Ao))}
    wn = np.maximum(1.0, np.arange(J + 1.0))
    out = {}
    for i, (left, right, comp) in enumerate(_pair_norm_terms(alpha, beta)):
        tensor, ells = hs2[comp]
        weighted = tensor * np.outer(wn ** (2.0 * left), wn ** (2.0 * right))
        out[f"term{i}:{comp}:D^{left:g}.A.D^{right:g}"] = math.sqrt(
            _s_decay_sq(weighted, ells, s))
    return out


def pair_norm(P: "OperatorPair", s: float, alpha=None, beta=None) -> float:
    """The M_s(alpha, beta) norm: 4 one-sided terms + one per distinct sigma."""
    alpha = P.alpha if alpha is None else alpha
    beta = P.beta if beta is None else beta
    return sum(_pair_term_norms(P, s, alpha, beta).values())


def norm_audit(P: "OperatorPair", s: float, alpha=None, beta=None) -> dict:
    """Class-membership certificate: every weighted norm of the pair, JSON-ready."""
    alpha = P.alpha if alpha is None else alpha
    beta = P.beta if beta is None else beta
    terms = _pair_term_norms(P, s, alpha, beta)
    return {"s": s, "alpha": alpha, "beta": beta,
            "structure_defect": P.structure_defect(), **terms,
            "total": sum(terms.values())}


def project_modes(A: BlockOperator, N: float):
    """(Pi_N A, Pi_N^perp A): split the angle modes at |l| <= N."""
    low, high = {}, {}
    for ell, m in A.mats.items():
        (low if _ell_norm(ell) <= N else high)[ell] = m
    return (BlockOperator(A.lattice, low, A.K), BlockOperator(A.lattice, high, A.K))


# -- operator pairs ----------------------------------------------------------


class OperatorPair:
    """(A^d, A^o) with decay weights; the off-diagonal entries are implied."""

    __slots__ = ("Ad", "Ao", "alpha", "beta")

    def __init__(self, Ad: BlockOperator, Ao: BlockOperator, alpha: float, beta: float):
        if Ad.lattice != Ao.lattice:
            raise ValueError("lattice mismatch")
        self.Ad = Ad
        self.Ao = Ao
        self.alpha = float(alpha)
        self.beta = float(beta)

    @classmethod
    def zero(cls, lattice: Lattice, alpha=0.0, beta=0.0, K=None) -> "OperatorPair":
        return cls(BlockOperator.zero(lattice, K), BlockOperator.zero(lattice, K), alpha, beta)

    def __add__(self, other):
        return OperatorPair(self.Ad + other.Ad, self.Ao + other.Ao, self.alpha, self.beta)

    def __sub__(self, other):
        return OperatorPair(self.Ad - other.Ad, self.Ao - other.Ao, self.alpha, self.beta)

    def __mul__(self, scalar):
        return OperatorPair(self.Ad * scalar, self.Ao * scalar, self.alpha, self.beta)

    __rmul__ = __mul__

    def norm_max(self) -> float:
        return max(self.Ad.norm_max(), self.Ao.norm_max())

    def structure_defect(self) -> float:
        """max deviation from [A^d]* = A^d, [A^o]* = conj(A^o)."""
        dd = (self.Ad.adjoint() - self.Ad).norm_max()
        oo = (self.Ao.adjoint() - self.Ao.conj_op()).norm_max()
        return max(dd, oo)

    def omega_dphi(self, omega):
        return OperatorPair(self.Ad.omega_dphi(omega), self.Ao.omega_dphi(omega),
                            self.alpha, self.beta)

    def project(self, N: float):
        lo_d, hi_d = project_modes(self.Ad, N)
        lo_o, hi_o = project_modes(self.Ao, N)
        return (OperatorPair(lo_d, lo_o, self.alpha, self.beta),
                OperatorPair(hi_d, hi_o, self.alpha, self.beta))

    def to_dense(self) -> np.ndarray:
        """The full 2x2 matrix-of-operators over the extended lattice."""
        Ad, Ao = self.Ad.to_dense(), self.Ao.to_dense()
        Kd = _dense_conj_mat(self.Ad)
        top = np.concatenate([Ad, Ao], axis=1)
        bot = np.concatenate([-_dense_conj(Ao, Kd), -_dense_conj(Ad, Kd)], axis=1)
        return np.concatenate([top, bot], axis=0)


def _dense_conj_mat(A: BlockOperator) -> np.ndarray:
    lat = A.lattice
    ells = _ell_list(lat.nu, lat.L)
    pos = {e: i for i, e in enumerate(ells)}
    D = 2 * lat.J + 1
    n = len(ells) * D
    K = np.zeros((n, n), dtype=complex)
    for i, ell in enumerate(ells):
        j = pos[tuple(-c for c in ell)]
        K[j * D:(j + 1) * D, i * D:(i + 1) * D] = A.K
    return K


def _dense_conj(M: np.ndarray, K: np.ndarray) -> np.ndarray:
    return K @ np.conj(M) @ np.conj(K)


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
    grids from `_x_grids(X)`, built here when not given; `lie_series` builds
    them once and shares them across its terms.
    """
    lat = X.Ad.lattice
    Xd, Xo, cXd, cXo = _x_grids(X) if x_grids is None else x_grids
    Vd, Vo = _phi_grid(lat, (V.Ad, V.Ao))
    cVd, cVo = _conj_grid(Vd, V.Ad.K), _conj_grid(Vo, V.Ao.K)
    W = np.empty((2,) + Vd.shape, dtype=complex)
    _sum_products(W[0], ((1, Xd, Vd), (-1, Vd, Xd), (-1, Xo, cVo), (1, Vo, cXo)))
    _sum_products(W[1], ((1, Xd, Vo), (1, Vo, cXd), (-1, Xo, cVd), (-1, Vd, Xo)))
    W *= 1j
    Wd, Wo = _from_phi_grid(lat, W, X.Ad.K)
    alpha = max(X.alpha, V.alpha)
    return OperatorPair(Wd, Wo, alpha, alpha)


class LieSeriesDiverged(RuntimeError):
    pass


def lie_series(X: OperatorPair, total: OperatorPair, term: OperatorPair,
               first: int, shift: int, tol: float, scale: float,
               n_max: int) -> OperatorPair:
    """total + sum_{k=first..n_max} t_k, t_k = ad_X(t_{k-1})/(k + shift), t_{first-1} = term.

    Each term is added to the running total as it is made.  X's phi-grids are
    built once per call and shared by every term's `ad`; they are dropped when
    the series returns.  The series stops after its first term whose max entry
    is below tol * scale.
    LieSeriesDiverged is raised when a term above scale is more than 4x the
    one before it, or when the term of index n_max is still above
    sqrt(tol) * scale.
    """
    prev_inc = None
    x_grids = _x_grids(X)
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


def lie_conjugate(X: OperatorPair, V: OperatorPair, tol: float = 1e-14,
                  n_max: int = 30):
    """e^{iX} V e^{-iX} = sum_n ad_X^n(V)/n!, truncated at increment < tol (1 + |V|).

    Returns (conjugated pair, difference pair = result - V).
    """
    zero = OperatorPair.zero(V.Ad.lattice, V.alpha, V.beta, V.Ad.K)
    diff = lie_series(X, zero, V, 1, 0, tol, 1.0 + V.norm_max(), n_max)
    return V + diff, diff


# -- finite block-space operators ---------------------------------------------


def left_right_ops(A: np.ndarray, B: np.ndarray):
    """M_L(A): X -> AX and M_R(B): X -> XB on row-major vectorized blocks."""
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    ML = np.kron(A, np.eye(B.shape[0]))
    MR = np.kron(np.eye(A.shape[0]), B.T)
    return ML, MR


def block_inverse_norm(G: np.ndarray, hermitian: bool | None = None) -> float:
    """||G^{-1}|| = 1/min|eig| (self-adjoint) with singular-value fallback."""
    G = np.asarray(G, dtype=complex)
    if hermitian is None:
        hermitian = np.max(np.abs(G - G.conj().T)) <= 1e-12 * max(1.0, np.max(np.abs(G)))
    if hermitian:
        ev = np.linalg.eigvalsh(G)
        m = np.min(np.abs(ev))
    else:
        m = np.min(np.linalg.svd(G, compute_uv=False))
    if m == 0.0:
        raise np.linalg.LinAlgError("singular block operator")
    return float(1.0 / m)
