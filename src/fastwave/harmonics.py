"""Truncated Fourier representation of functions on T^nu x T.

Functions u(phi, x) are stored by their Fourier coefficients u_hat(l, j)
with angle modes |l_i| <= L and space modes |j| <= J, under the convention

    u(phi, x) = sum_{l,j} u_hat(l, j) exp(i (l.phi + j x)),

with exponentials orthonormal, i.e. the L^2 pairing carries the
1/(2 pi)^(nu+1) volume normalisation so that Parseval reads
mean-square(u) = sum |u_hat|^2.

Products act on the x coefficients alone (`xconv`, `toeplitz`) and
re-truncate to |j| <= J: aliasing is discarded (consistent Galerkin
projection).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class Lattice:
    """Index box for the truncated torus: |l_i| <= L (nu angles), |j| <= J."""

    nu: int
    L: int
    J: int

    def __post_init__(self):
        if self.nu < 1 or self.L < 1 or self.J < 1:
            raise ValueError("lattice requires nu >= 1, L >= 1, J >= 1")

    @property
    def s0(self) -> int:
        """Minimal Sobolev index floor((nu+1)/2) + 2."""
        return (self.nu + 1) // 2 + 2

    @property
    def shape(self) -> tuple:
        return (2 * self.L + 1,) * self.nu + (2 * self.J + 1,)

    def ell_range(self):
        """All angle multi-indices as an integer array of shape (n_ell, nu)."""
        return _ell_range(self.nu, self.L)

    def ell_norms(self):
        """|l|_2 of each row of ell_range(), shape (n_ell,)."""
        return _ell_norms(self.nu, self.L)

    def ell_to_index(self, ell) -> tuple:
        return tuple(int(c) + self.L for c in ell)


@lru_cache(maxsize=None)
def _ell_range(nu, L):
    grids = np.meshgrid(*([np.arange(-L, L + 1)] * nu), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


@lru_cache(maxsize=None)
def _ell_norms(nu, L):
    norms = np.sqrt(np.sum(_ell_range(nu, L).astype(float) ** 2, axis=1))
    norms.flags.writeable = False     # shared by every caller of the cache
    return norms


class TorusFunction:
    """Truncated Fourier coefficients of a scalar function on T^nu x T."""

    __slots__ = ("lattice", "coeffs")

    def __init__(self, lattice: Lattice, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != lattice.shape:
            raise ValueError(f"coefficient shape {coeffs.shape} != lattice {lattice.shape}")
        self.lattice = lattice
        self.coeffs = coeffs
        self.coeffs.flags.writeable = False

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, lattice: Lattice) -> "TorusFunction":
        return cls(lattice, np.zeros(lattice.shape, dtype=complex))

    @classmethod
    def from_modes(cls, lattice: Lattice, modes: dict) -> "TorusFunction":
        """Build from {(l_1..l_nu, j): amplitude} entries."""
        c = np.zeros(lattice.shape, dtype=complex)
        for idx, amp in modes.items():
            *ell, j = idx
            c[lattice.ell_to_index(ell) + (int(j) + lattice.J,)] = amp
        return cls(lattice, c)

    # -- basic structure ----------------------------------------------

    def _flip(self) -> np.ndarray:
        return self.coeffs[(slice(None, None, -1),) * (self.lattice.nu + 1)]

    def symmetrized(self) -> "TorusFunction":
        """Project onto real-valued functions: u_hat(-l,-j) = conj(u_hat(l,j))."""
        c = 0.5 * (self.coeffs + np.conj(self._flip()))
        return TorusFunction(self.lattice, c)

    def x_slice(self) -> np.ndarray:
        """Coefficients of the l = 0 slice (length 2J+1)."""
        return np.array(self.coeffs[(self.lattice.L,) * self.lattice.nu])

    # -- algebra --------------------------------------------------------

    def __mul__(self, scalar) -> "TorusFunction":
        return TorusFunction(self.lattice, self.coeffs * scalar)

    __rmul__ = __mul__

    # -- serialization ---------------------------------------------------

    @classmethod
    def from_json_dict(cls, d: dict) -> "TorusFunction":
        """Read {"nu", "L", "J", "coeffs": [[l_1..l_nu, j, re, im], ...]}."""
        lat = Lattice(d["nu"], d["L"], d["J"])
        c = np.zeros(lat.shape, dtype=complex)
        for row in d["coeffs"]:
            *ell, j, re, im = row
            c[lat.ell_to_index(ell) + (int(j) + lat.J,)] = re + 1j * im
        return cls(lat, c)


# -- structural operations ----------------------------------------------


@lru_cache(maxsize=None)
def _toeplitz_index(J: int) -> np.ndarray:
    # T[k, j] = b_{k-j}: index k - j + J into b, out-of-range -> the zero slot 2J+1
    k = np.arange(2 * J + 1)
    idx = k[:, None] - k[None, :] + J
    return np.where((idx >= 0) & (idx <= 2 * J), idx, 2 * J + 1)


def toeplitz(b: np.ndarray) -> np.ndarray:
    """T[..., k, j] = b_{k-j} for |k|, |j| <= J, from x coefficients b along the last axis.

    T is the matrix of u -> b * u truncated to |k| <= J; entries with
    |k - j| > J are zero.  Leading axes of b are kept.
    """
    D = b.shape[-1]
    padded = np.concatenate([b, np.zeros_like(b[..., :1])], axis=-1)
    return padded[..., _toeplitz_index((D - 1) // 2)]


def xconv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Centred, truncated x-convolution (a * b)_k = sum_j a_j b_{k-j}, |k| <= J.

    The x coefficients (length 2J+1) run along the last axis; leading axes
    broadcast.  The sum is direct, not by FFT, so small coefficients keep
    their relative accuracy instead of sinking into an eps * |a| |b| noise
    floor.  The operand with fewer entries is expanded to its Toeplitz matrix,
    which a single x-array applies to all rows of the other in one product.
    """
    a, b = np.asarray(a), np.asarray(b)
    if b.size > a.size:
        a, b = b, a
    D = b.shape[-1]
    T = toeplitz(b)
    if b.size == D:
        shape = np.broadcast_shapes(a.shape, b.shape)
        return (a.reshape(-1, D) @ T.reshape(D, D).T).reshape(shape)
    return np.matmul(T, a[..., None])[..., 0]
