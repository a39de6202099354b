"""Truncated Fourier representation of functions on T^nu x T.

Functions u(phi, x) are stored by their Fourier coefficients u_hat(l, j)
with angle modes |l_i| <= L and space modes |j| <= J, under the convention

    u(phi, x) = sum_{l,j} u_hat(l, j) exp(i (l.phi + j x)),

with exponentials orthonormal, i.e. the L^2 pairing carries the
1/(2 pi)^(nu+1) volume normalisation so that Parseval reads
mean-square(u) = sum |u_hat|^2.

All operations re-truncate to the lattice: aliasing from products is
discarded (consistent Galerkin projection).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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

    def ell_to_index(self, ell) -> tuple:
        return tuple(int(c) + self.L for c in ell)


@lru_cache(maxsize=None)
def _ell_range(nu, L):
    grids = np.meshgrid(*([np.arange(-L, L + 1)] * nu), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


@lru_cache(maxsize=None)
def _bracket_weights(nu, L, J):
    """<l,j> = max(1, |l|_2, |j|) on the full index box."""
    axes = [np.arange(-L, L + 1)] * nu + [np.arange(-J, J + 1)]
    grids = np.meshgrid(*axes, indexing="ij")
    ell_sq = sum(g.astype(float) ** 2 for g in grids[:-1])
    w = np.maximum(np.sqrt(ell_sq), np.abs(grids[-1]).astype(float))
    return np.maximum(w, 1.0)


class TorusFunction:
    """Truncated Fourier coefficients of a scalar function on T^nu x T."""

    __slots__ = ("lattice", "coeffs", "reality")

    def __init__(self, lattice: Lattice, coeffs: np.ndarray, reality: bool = False):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != lattice.shape:
            raise ValueError(f"coefficient shape {coeffs.shape} != lattice {lattice.shape}")
        self.lattice = lattice
        self.coeffs = coeffs
        self.coeffs.flags.writeable = False
        self.reality = bool(reality)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, lattice: Lattice, reality: bool = True) -> "TorusFunction":
        return cls(lattice, np.zeros(lattice.shape, dtype=complex), reality)

    @classmethod
    def from_modes(cls, lattice: Lattice, modes: dict, reality: bool = False) -> "TorusFunction":
        """Build from {(l_1..l_nu, j): amplitude} entries."""
        c = np.zeros(lattice.shape, dtype=complex)
        for idx, amp in modes.items():
            *ell, j = idx
            c[lattice.ell_to_index(ell) + (int(j) + lattice.J,)] = amp
        return cls(lattice, c, reality)

    @classmethod
    def x_only(cls, lattice: Lattice, xcoeffs: np.ndarray, reality: bool = False) -> "TorusFunction":
        """Embed a function of x alone as the l = 0 slice."""
        xcoeffs = np.asarray(xcoeffs, dtype=complex)
        if xcoeffs.shape != (2 * lattice.J + 1,):
            raise ValueError("xcoeffs must have length 2J+1")
        c = np.zeros(lattice.shape, dtype=complex)
        c[(lattice.L,) * lattice.nu] = xcoeffs
        return cls(lattice, c, reality)

    @classmethod
    def random(cls, lattice: Lattice, rng, decay: float = 0.0, reality: bool = True) -> "TorusFunction":
        """Seeded random function with |u_hat(l,j)| ~ <l,j>^(-decay)."""
        c = rng.standard_normal(lattice.shape) + 1j * rng.standard_normal(lattice.shape)
        if decay:
            c = c * _bracket_weights(lattice.nu, lattice.L, lattice.J) ** (-decay)
        u = cls(lattice, c, reality=False)
        return u.symmetrized() if reality else u

    # -- basic structure ----------------------------------------------

    def _flip(self) -> np.ndarray:
        return self.coeffs[(slice(None, None, -1),) * (self.lattice.nu + 1)]

    def symmetrized(self) -> "TorusFunction":
        """Project onto real-valued functions: u_hat(-l,-j) = conj(u_hat(l,j))."""
        c = 0.5 * (self.coeffs + np.conj(self._flip()))
        return TorusFunction(self.lattice, c, reality=True)

    def check_reality(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.coeffs - np.conj(self._flip()))) <= tol)

    def coeff(self, ell, j) -> complex:
        if np.isscalar(ell):
            ell = (ell,)
        return self.coeffs[self.lattice.ell_to_index(ell) + (int(j) + self.lattice.J,)]

    def x_slice(self) -> np.ndarray:
        """Coefficients of the l = 0 slice (length 2J+1)."""
        return np.array(self.coeffs[(self.lattice.L,) * self.lattice.nu])

    def is_x_only(self, tol: float = 0.0) -> bool:
        mask = np.ones(self.lattice.shape, dtype=bool)
        mask[(self.lattice.L,) * self.lattice.nu] = False
        off = self.coeffs[mask]
        return bool(np.max(np.abs(off), initial=0.0) <= tol)

    # -- algebra --------------------------------------------------------

    def __add__(self, other: "TorusFunction") -> "TorusFunction":
        self._require_same_lattice(other)
        return TorusFunction(self.lattice, self.coeffs + other.coeffs,
                             self.reality and other.reality)

    def __sub__(self, other: "TorusFunction") -> "TorusFunction":
        self._require_same_lattice(other)
        return TorusFunction(self.lattice, self.coeffs - other.coeffs,
                             self.reality and other.reality)

    def __mul__(self, scalar) -> "TorusFunction":
        return TorusFunction(self.lattice, self.coeffs * scalar,
                             self.reality and np.isrealobj(np.asarray(scalar)))

    __rmul__ = __mul__

    def __neg__(self) -> "TorusFunction":
        return TorusFunction(self.lattice, -self.coeffs, self.reality)

    def conj_fn(self) -> "TorusFunction":
        """Coefficients of the complex conjugate function."""
        return TorusFunction(self.lattice, np.conj(self._flip()), self.reality)

    def dx(self, order: int = 1) -> "TorusFunction":
        """Spectral derivative in x: multiply by (i j)^order."""
        j = np.arange(-self.lattice.J, self.lattice.J + 1)
        return TorusFunction(self.lattice, self.coeffs * (1j * j) ** order, self.reality)

    def _require_same_lattice(self, other: "TorusFunction"):
        if self.lattice != other.lattice:
            raise ValueError("lattice mismatch")

    # -- serialization ---------------------------------------------------

    def to_json_dict(self, tol: float = 0.0) -> dict:
        lat = self.lattice
        entries = []
        for flat, val in np.ndenumerate(self.coeffs):
            if abs(val) > tol:
                ell = [int(flat[k]) - lat.L for k in range(lat.nu)]
                entries.append(ell + [int(flat[-1]) - lat.J, float(val.real), float(val.imag)])
        return {"nu": lat.nu, "L": lat.L, "J": lat.J, "reality": self.reality,
                "coeffs": entries}

    @classmethod
    def from_json_dict(cls, d: dict) -> "TorusFunction":
        lat = Lattice(d["nu"], d["L"], d["J"])
        c = np.zeros(lat.shape, dtype=complex)
        for row in d["coeffs"]:
            *ell, j, re, im = row
            c[lat.ell_to_index(ell) + (int(j) + lat.J,)] = re + 1j * im
        return cls(lat, c, d.get("reality", False))

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict())


# -- norms and structural operations ------------------------------------


def sobolev_norm(u: TorusFunction, s: float) -> float:
    """H^s norm with weight <l,j> = max(1, |l|, |j|)."""
    if s < 0:
        raise ValueError("sobolev_norm requires s >= 0")
    lat = u.lattice
    w = _bracket_weights(lat.nu, lat.L, lat.J)
    return float(np.sqrt(np.sum(w ** (2.0 * s) * np.abs(u.coeffs) ** 2)))


def multiply(u: TorusFunction, v: TorusFunction) -> TorusFunction:
    """Coefficient convolution of u and v, truncated back to the lattice."""
    u._require_same_lattice(v)
    from scipy.signal import fftconvolve

    full = fftconvolve(u.coeffs, v.coeffs, mode="full")
    lat = u.lattice
    sl = tuple(slice(lat.L, 3 * lat.L + 1) for _ in range(lat.nu))
    sl += (slice(lat.J, 3 * lat.J + 1),)
    out = np.ascontiguousarray(full[sl])
    w = TorusFunction(lat, out, reality=u.reality and v.reality)
    # fftconvolve leaves O(eps) asymmetry; re-symmetrize real products
    if w.reality:
        w = w.symmetrized()
    return w


def phi_average(v: TorusFunction, tol: float = 1e-14):
    """The l = 0 slice of v, plus a flag telling whether it vanishes.

    Returns (x-only TorusFunction, flag); flag is True iff the average is
    identically zero within `tol`.
    """
    xs = v.x_slice()
    flag = bool(np.max(np.abs(xs)) <= tol)
    return TorusFunction.x_only(v.lattice, xs, reality=v.reality), flag


# -- collocation grids ---------------------------------------------------


def to_grid(u: TorusFunction, oversample: int = 2) -> np.ndarray:
    """Sample u on a uniform (phi, x) grid (sizes oversample*(2L+1), oversample*(2J+1))."""
    lat = u.lattice
    sizes = [oversample * (2 * lat.L + 1)] * lat.nu + [oversample * (2 * lat.J + 1)]
    return _coeffs_to_grid(u.coeffs, [lat.L] * lat.nu + [lat.J], sizes)


def from_grid(values: np.ndarray, lattice: Lattice, reality: bool = False) -> TorusFunction:
    """Inverse of to_grid; grid must resolve the lattice (size >= 2*cutoff+1 per axis)."""
    c = _grid_to_coeffs(values, [lattice.L] * lattice.nu + [lattice.J])
    return TorusFunction(lattice, c, reality)


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


@lru_cache(maxsize=None)
def _xconv_index(J: int) -> np.ndarray:
    # T[k, j] = b_{k-j}: index k - j + J into b, out-of-range -> the zero slot 2J+1
    k = np.arange(2 * J + 1)
    idx = k[:, None] - k[None, :] + J
    return np.where((idx >= 0) & (idx <= 2 * J), idx, 2 * J + 1)


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
    padded = np.concatenate([b, np.zeros_like(b[..., :1])], axis=-1)
    T = padded[..., _xconv_index((D - 1) // 2)]
    if b.size == D:
        shape = np.broadcast_shapes(a.shape, b.shape)
        return (a.reshape(-1, D) @ T.reshape(D, D).T).reshape(shape)
    return np.matmul(T, a[..., None])[..., 0]


def _coeffs_to_grid(coeffs, cutoffs, sizes):
    nd = len(cutoffs)
    buf = np.zeros(sizes, dtype=complex)
    idx = tuple(np.ix_(*[np.arange(-c, c + 1) % n for c, n in zip(cutoffs, sizes)]))
    src = tuple(np.ix_(*[np.arange(0, 2 * c + 1) for c in cutoffs]))
    buf[idx] = coeffs[src]
    return np.fft.ifftn(buf) * np.prod(sizes)


def _grid_to_coeffs(values, cutoffs):
    sizes = values.shape
    for c, n in zip(cutoffs, sizes):
        if n < 2 * c + 1:
            raise ValueError("grid too coarse for lattice cutoffs")
    spec = np.fft.fftn(values) / np.prod(sizes)
    idx = tuple(np.ix_(*[np.arange(-c, c + 1) % n for c, n in zip(cutoffs, sizes)]))
    return np.ascontiguousarray(spec[idx])
