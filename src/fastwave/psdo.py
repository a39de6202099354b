r"""Pseudodifferential symbol calculus and contour-integral functional calculus.

A symbol a(x, xi) of order m is stored as a rule giving, for each xi and each
xi-derivative order beta up to `deriv_depth`, the Fourier coefficients of
a(., xi) as a function of x.  Quantization gives the (2J+1)^2 matrix

    [Op(a) u]^(j_out) = sum_{j_in} a_hat(j_out - j_in; xi = j_in) u^(j_in).

Every raw value has one form: a complex array whose last axis is x, of
length 1 (only the zero mode: the value is constant in x) or full length
2J+1.  Any leading axes are batch axes, the lambda nodes of the contour.
Products convolve in x when both sides are full and broadcast otherwise; sums
put a length-1 value at the zero mode of a full one.  A single zero entry is a
structural zero (a vanishing derivative of xi^2, of an x-only symbol or of the
cutoff): a product with it is that zero, a sum with it the other operand; it
has no batch axes, or is broadcast (stride 0) to them.

Composition uses the asymptotic expansion a#b = sum_{beta<N} (i^beta beta!)^-1
d_xi^beta a . d_x^beta b.  Real powers of an elliptic operator are built
from the resolvent parametrix layers b_n(lambda; x, xi) (recursively, with the
smooth cutoff removing the (xi, lambda) = 0 singularity) and the clockwise
contour integral -(2 pi i)^-1 \oint lambda^z b_n dlambda around the branch
cut; z >= 0 reduces to A^k A_{z-k}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .harmonics import x_from_grid, x_to_grid, xconv


class EllipticityError(RuntimeError):
    pass


# -- smooth cutoff -----------------------------------------------------------


class Cutoff:
    """Even C-infinity cutoff: 0 on [-1/3, 1/3], 1 outside (-2/3, 2/3).

    Built from the exp(-a/s) mollifier; `sharpness` a > 0 selects among
    admissible cutoffs (all satisfy the same defining bounds).
    Derivatives up to order 4 are analytic.
    """

    def __init__(self, sharpness: float = 1.0):
        self.a = float(sharpness)

    def _poly(self, k):
        # f^(k)(s) = exp(-a/s) P_k(1/s) with P_{k+1} = a w^2 P_k - w^2 P_k'
        if not hasattr(self, "_polys"):
            self._polys = [np.array([1.0])]
        while len(self._polys) <= k:
            P = self._polys[-1]
            dP = np.polynomial.polynomial.polyder(P) if len(P) > 1 else np.array([0.0])
            new = np.zeros(len(P) + 2)
            new[2:] += self.a * P
            if len(dP) and np.any(dP):
                new[2:2 + len(dP)] -= dP
            self._polys.append(new)
        return self._polys[k]

    def _f(self, s, k):
        # k-th derivative of exp(-a/s) for s > 0 (0 for s <= 0); the underflow
        # guard avoids 0 * inf from the polynomial factor near s = 0
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.zeros_like(s)
        pos = (s > 1e-12) & (self.a / np.maximum(s, 1e-12) < 500.0)
        sp = s[pos]
        w = 1.0 / sp
        out[pos] = np.exp(-self.a * w) * np.polynomial.polynomial.polyval(w, self._poly(k))
        return out

    def __call__(self, t, k: int = 0):
        """chi^(k)(t); chi is even, rises on (1/3, 2/3)."""
        scalar_in = getattr(t, "ndim", 0) == 0
        if scalar_in:
            # fast path: outside the transition window the value is 0/1 and
            # every derivative vanishes (the overwhelmingly common case)
            ta = abs(float(t))
            if ta >= 2.0 / 3.0:
                return 1.0 if k == 0 else 0.0
            if ta <= 1.0 / 3.0:
                return 0.0
        t = np.abs(np.atleast_1d(np.asarray(t, dtype=float)))
        s = 3.0 * (t - 1.0 / 3.0)          # rescaled transition variable in (0,1)
        f, g = self._f(s, 0), self._f(1.0 - s, 0)
        den = np.where(f + g == 0.0, 1.0, f + g)
        if k == 0:
            val = np.where(s <= 0.0, 0.0, np.where(s >= 1.0, 1.0, f / den))
            return float(val[0]) if scalar_in else val
        # sigma = f/(f+g) satisfies sigma (f+g) = f; differentiate k times:
        # sum_i binom(k,i) sigma^(i) (f+g)^(k-i) = f^(k)
        F = [self._f(s, i) for i in range(k + 1)]
        G = [(-1) ** i * self._f(1.0 - s, i) for i in range(k + 1)]
        sig = [np.where(s <= 0.0, 0.0, np.where(s >= 1.0, 1.0, F[0] / den))]
        for kk in range(1, k + 1):
            acc = F[kk].copy()
            for i in range(kk):
                acc -= math.comb(kk, i) * sig[i] * (F[kk - i] + G[kk - i])
            sig.append(np.where((s <= 0.0) | (s >= 1.0), 0.0, acc / den))
        val = sig[k] * 3.0 ** k
        return float(val[0]) if scalar_in else val


DEFAULT_CUTOFF = Cutoff()


# -- symbols -------------------------------------------------------------------


def _lift(v) -> np.ndarray:
    """A rule's scalar or x-array return value as a raw value."""
    return np.atleast_1d(np.asarray(v, dtype=complex))


def _widen(v: np.ndarray, D: int) -> np.ndarray:
    """v with its x axis zero-padded, centred on the zero mode, to length D."""
    n = v.shape[-1]
    if n == D:
        return v
    out = np.zeros(v.shape[:-1] + (D,), dtype=complex)
    out[..., (D - n) // 2:(D + n) // 2] = v
    return out


def _zero(v: np.ndarray) -> bool:
    return v.size == 1 and v.item() == 0


def _add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if _zero(a):
        return b
    if _zero(b):
        return a
    D = max(a.shape[-1], b.shape[-1])
    return _widen(a, D) + _widen(b, D)


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise product: an x-convolution when both sides are full."""
    if _zero(a):
        return a
    if _zero(b):
        return b
    if a.shape[-1] > 1 and b.shape[-1] > 1:
        return xconv(a, b)
    return a * b


def _leibniz(f, g, b: int, lo: int = 0) -> np.ndarray:
    """sum_{k=lo..b} binom(b, k) f(k) g(b-k): d_xi^b of a product, from k = lo."""
    acc = None
    for k in range(lo, b + 1):
        term = math.comb(b, k) * _mul(f(k), g(b - k))
        acc = term if acc is None else _add(acc, term)
    return acc


def _dx(v: np.ndarray, order: int = 1) -> np.ndarray:
    J = (v.shape[-1] - 1) // 2
    return v * (1j * np.arange(-J, J + 1)) ** order


def _x_samples(v: np.ndarray, oversample: int = 8) -> np.ndarray:
    """Values of a raw value on oversample * (2J+1) x points."""
    return x_to_grid(v, oversample * v.shape[-1])


def _pointwise(v: np.ndarray, f, oversample: int = 8) -> np.ndarray:
    """f applied pointwise in x, on the oversampled grid."""
    return x_from_grid(f(_x_samples(v, oversample)), (v.shape[-1] - 1) // 2)


class Symbol:
    """Pseudodifferential symbol with xi-derivative access.

    `rule(xi, beta)` gives d_xi^beta a(., xi) as a scalar (constant in x) or
    a (2J+1,) x-coefficient array.  `raw` returns it in the one value form of
    this module: an array whose last axis, x, has length 1 (the zero mode
    only) or 2J+1.  Values inside the parametrix carry leading batch axes
    (the lambda nodes) in front of it.  J is the truncation |j| <= J of the
    quantized matrix.
    """

    def __init__(self, J: int, order: float, rule, deriv_depth: int):
        self.J = int(J)
        self.order = float(order)
        self._rule = rule
        self.deriv_depth = int(deriv_depth)
        self._cache = {}

    # raw evaluation with caching
    def raw(self, xi: float, beta: int) -> np.ndarray:
        if beta > self.deriv_depth:
            raise ValueError(f"derivative depth {self.deriv_depth} exceeded (beta={beta})")
        key = (float(xi), int(beta))
        if key not in self._cache:
            self._cache[key] = _lift(self._rule(float(xi), int(beta)))
        return self._cache[key]

    # -- algebra (closures propagate derivative rules) ----------------------

    def dxi(self) -> "Symbol":
        return Symbol(self.J, self.order - 1,
                      lambda xi, b: self.raw(xi, b + 1), self.deriv_depth - 1)

    def dx(self, order: int) -> "Symbol":
        return Symbol(self.J, self.order,
                      lambda xi, b: _dx(self.raw(xi, b), order), self.deriv_depth)

    def __add__(self, other: "Symbol") -> "Symbol":
        return Symbol(self.J, max(self.order, other.order),
                      lambda xi, b: _add(self.raw(xi, b), other.raw(xi, b)),
                      min(self.deriv_depth, other.deriv_depth))

    def __sub__(self, other: "Symbol") -> "Symbol":
        return self + (other * (-1.0))

    def __mul__(self, scalar) -> "Symbol":
        return Symbol(self.J, self.order,
                      lambda xi, b: self.raw(xi, b) * scalar, self.deriv_depth)

    __rmul__ = __mul__

    def mul(self, other: "Symbol", order: float) -> "Symbol":
        """Pointwise product of the given order; Leibniz propagates xi-derivatives."""
        def rule(xi, b):
            return _leibniz(lambda g: self.raw(xi, g), lambda g: other.raw(xi, g), b)
        return Symbol(self.J, order, rule, min(self.deriv_depth, other.deriv_depth))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, J: int, value: complex) -> "Symbol":
        return cls(J, 0.0, lambda xi, b: complex(value) if b == 0 else 0.0,
                   deriv_depth=64)

    @classmethod
    def xi_poly(cls, J: int, coeffs) -> "Symbol":
        """sum_k coeffs[k] xi^k with exact derivative rules."""
        coeffs = [complex(c) for c in coeffs]

        def rule(xi, b):
            tot = 0.0 + 0.0j
            for k, c in enumerate(coeffs):
                if k >= b:
                    tot += c * math.perm(k, b) * xi ** (k - b)
            return tot
        return cls(J, len(coeffs) - 1, rule, deriv_depth=64)

    @classmethod
    def x_multiplication(cls, J: int, xcoeffs: np.ndarray) -> "Symbol":
        xc = np.asarray(xcoeffs, dtype=complex)
        return cls(J, 0.0, lambda xi, b: xc if b == 0 else 0.0, deriv_depth=64)

    def scaled_by_cutoff(self, cutoff: Cutoff) -> "Symbol":
        """chi(xi) a(x, xi): kills the xi = 0 mode, identity for |xi| >= 1."""
        def rule(xi, b):
            acc = 0.0 * self.raw(xi, b)
            for g in range(b + 1):
                c = math.comb(b, g) * cutoff(xi, g)
                if c != 0.0:
                    acc = _add(acc, c * self.raw(xi, b - g))
            return acc
        return Symbol(self.J, self.order, rule, self.deriv_depth)


# -- quantization -------------------------------------------------------------


def quantize(a: Symbol) -> np.ndarray:
    """The (2J+1)^2 matrix of Op(a) in the exponential basis, |j| <= J."""
    J = a.J
    D = 2 * J + 1
    mat = np.zeros((D, D), dtype=complex)
    for j_in in range(-J, J + 1):
        v = a.raw(j_in, 0)
        # entry (j_out, j_in) = a_hat(j_out - j_in; xi = j_in): rows j_out = -J..J
        # are one slice of the x coefficients zero-padded by 2J on both sides
        Jx = (v.shape[-1] - 1) // 2
        padded = np.pad(v, (2 * J, 2 * J))
        start = J - j_in + Jx
        mat[:, j_in + J] = padded[start:start + D]
    return mat


# -- composition ----------------------------------------------------------------


def compose(a: Symbol, b: Symbol, N: int) -> Symbol:
    """Asymptotic composition a#b truncated at N terms, of order a.order + b.order."""
    if a.deriv_depth < N or b.deriv_depth < N:
        raise ValueError("composition needs deriv_depth >= N on both factors")
    terms = []
    for beta in range(N):
        coeff = 1.0 / ((1j) ** beta * math.factorial(beta))
        da = a
        for _ in range(beta):
            da = da.dxi()
        db = b.dx(beta) if beta else b
        terms.append(coeff * da.mul(db, order=a.order + b.order))
    approx = terms[0]
    for t in terms[1:]:
        approx = approx + t
    return approx


def entry_decay_exponent(R: np.ndarray, j_lo: int | None = None,
                         j_hi: int | None = None):
    """Fit log(max-column-entry) vs log<j> on mid-range input modes of the matrix R."""
    J = (R.shape[-1] - 1) // 2
    col_max = np.max(np.abs(R), axis=0)
    j_lo = j_lo if j_lo is not None else max(2, J // 4)
    j_hi = j_hi if j_hi is not None else max(j_lo + 3, (3 * J) // 4)
    js, vals = [], []
    for j in range(j_lo, j_hi + 1):
        v = max(col_max[J + j], col_max[J - j])
        if v > 0.0:
            js.append(np.log(float(j)))
            vals.append(np.log(v))
    if len(js) < 3:
        return float("nan"), col_max
    slope = np.polyfit(js, vals, 1)[0]
    return float(slope), col_max


# -- resolvent parametrix and powers --------------------------------------------


class EllipticSymbol:
    """Declared layer decomposition a ~ sum_k a_{m-k} of an elliptic symbol."""

    def __init__(self, J: int, layers: list):
        """layers: list of (order_drop k, Symbol); k = 0 is the principal layer."""
        self.J = int(J)
        self.layers = dict()
        for k, sym in layers:
            self.layers[int(k)] = sym
        self.order = self.layers[0].order

    @classmethod
    def xi2_plus_q(cls, J: int, qcoeffs) -> "EllipticSymbol":
        """The Schroedinger symbol xi^2 + q(x) with layers (xi^2, q)."""
        return cls(J, [(0, Symbol.xi_poly(J, [0.0, 0.0, 1.0])),
                       (2, Symbol.x_multiplication(J, qcoeffs))])

    def full_symbol(self) -> Symbol:
        """The sum of the layers, of the principal layer's order."""
        syms = list(self.layers.values())
        out = syms[0]
        for s in syms[1:]:
            out = out + s
        return out

    def principal_min_abs(self, lam: complex, xi_vals) -> float:
        """min |a_m(x, xi) - lam| over the sampling grid (ellipticity check)."""
        a0 = self.layers[0]
        return float(min(np.min(np.abs(_x_samples(a0.raw(xi, 0)) - lam))
                         for xi in xi_vals))


def _layer_data(a: EllipticSymbol, xi: float, n_beta: int, dx_max: int):
    """d_xi^beta d_x^g of each declared layer at fixed xi."""
    out = {}
    for k, sym in a.layers.items():
        for beta in range(n_beta + 1):
            base = sym.raw(xi, beta)
            for g in range(dx_max + 1):
                out[(k, beta, g)] = _dx(base, g) if g else base
    return out


def parametrix_layers_batch(a: EllipticSymbol, lam: np.ndarray, xi: float, N: int,
                            n_beta: int, cutoff: Cutoff):
    """Parametrix layers b_n(lam; ., xi) for a whole batch of lambda values.

    Returns {(n, beta): d_xi^beta b_n} for 0 <= n < N, 0 <= beta <= n_beta,
    each a raw value whose leading axis runs over lam (a layer that vanishes
    identically, such as b_1 of xi^2 + q, is the structural zero broadcast to
    that shape), from the recursion

      b_0 (a_m - lam) = 1,
      b_n (a_m - lam) + sum_{p<n} b_p a_{m-n+p}
        + sum_{beta=1..n} (i^beta beta!)^-1 sum_{p<=n-beta}
            d_xi^beta b_p . d_x^beta a_{m-n+beta+p} = 0,

    each layer multiplied by chi(|xi|^2 + |lam|^{2/m}).  b_n enters the
    layers above it with up to N - 1 - n more xi-derivatives, so it is built
    up to order n_beta + N - 1 - n.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))[..., None]
    max_beta = n_beta + N - 1
    data = _layer_data(a, xi, max_beta, N - 1)

    def inverse(g):
        u = g - lam
        if np.min(np.abs(u)) < 1e-14:
            raise EllipticityError("principal symbol hits lambda on the grid")
        return 1.0 / u

    # r = 1/(a_m - lam) and its xi-derivatives by the u r = 1 recursion
    r = {0: _pointwise(data[(0, 0, 0)], inverse)}
    for beta in range(1, max_beta + 1):
        acc = _leibniz(lambda g: data[(0, g, 0)], lambda g: r[g], beta, lo=1)
        r[beta] = -_mul(r[0], acc)

    b = {0: r}
    zero = np.zeros(1, dtype=complex)
    for n in range(1, N):
        # (coefficient, p, k, beta) of each d_xi^beta b_p . d_x^beta a_{m-k} above
        terms = [(1.0, p, n - p, 0) for p in range(n)]
        terms += [(1.0 / ((1j) ** beta * math.factorial(beta)), p, n - beta - p, beta)
                  for beta in range(1, n + 1) for p in range(n - beta + 1)]
        rhs = {}
        for bb in range(max_beta - n + 1):
            rhs[bb] = zero
            for c, p, k, beta in terms:
                if k in a.layers:
                    term = _leibniz(lambda g: b[p][g + beta], lambda g: data[(k, g, beta)],
                                    bb)
                    rhs[bb] = _add(rhs[bb], c * term)
        b[n] = {bb: -_leibniz(lambda g: r[g], lambda g: rhs[g], bb) for bb in rhs}

    t = abs(xi) ** 2 + np.abs(lam) ** (2.0 / a.order)
    chi = _chain_quadratic_batch(cutoff, t, 2.0 * xi, 2.0, n_beta)
    layers = {(n, beta): _leibniz(lambda g: chi[g], lambda g: b[n][g], beta)
              for n in range(N) for beta in range(n_beta + 1)}
    # a structural zero has no batch axes: it gets lam's by broadcasting
    return {key: np.broadcast_to(v, lam.shape) if _zero(v) else v
            for key, v in layers.items()}


def _chain_quadratic_batch(cutoff: Cutoff, t: np.ndarray, t1: float, t2: float,
                           beta_max: int):
    """d^k/dxi^k chi(t(xi)) for quadratic t, batched over t: Faa di Bruno

    d_k = sum_{m1 + 2 m2 = k} k!/(m1! m2! 2^{m2}) chi^(m1+m2)(t) t'^{m1} t''^{m2}.
    With no t in chi's transition window (1/3, 2/3), each d_k, k >= 1, is the structural zero.
    """
    d = [cutoff(t, 0)]
    s = 3.0 * (np.abs(t) - 1.0 / 3.0)          # Cutoff's transition variable
    if not np.any((s > 0.0) & (s < 1.0)):
        return d + [np.zeros((1,) * (t.ndim - 1), dtype=complex)] * beta_max
    for k in range(1, beta_max + 1):
        acc = np.zeros_like(t)
        for m2 in range(k // 2 + 1):
            m1 = k - 2 * m2
            coeff = math.factorial(k) / (math.factorial(m1) * math.factorial(m2) * 2 ** m2)
            acc = acc + coeff * cutoff(t, m1 + m2) * t1 ** m1 * t2 ** m2
        d.append(acc)
    return d


def _summed_layers(a: EllipticSymbol, lam, xi: float, N: int, deriv_depth: int,
                   cutoff: Cutoff) -> list:
    """[sum_{n<N} d_xi^beta b_n(lam; ., xi) for beta <= deriv_depth], batched over lam;
    a vanishing layer above b_0 (one zero entry broadcast over lam) is left out."""
    layers = parametrix_layers_batch(a, lam, xi, N, n_beta=deriv_depth, cutoff=cutoff)
    return [reduce(_add,
                   [v for n in range(1, N) if any((v := layers[(n, beta)]).strides) or v.flat[0]],
                   layers[(0, beta)])
            for beta in range(deriv_depth + 1)]


def resolvent_parametrix(a: EllipticSymbol, lam: complex, N: int) -> Symbol:
    """The truncated parametrix symbol b_(N)(lam) = sum_{n<N} b_{-m-n}(lam).

    It carries no xi-derivatives (deriv_depth 0), so it can be quantized but
    not composed.
    """
    xi_vals = range(-a.J, a.J + 1)
    if a.principal_min_abs(lam, xi_vals) == 0.0:
        raise EllipticityError("lambda touches the principal symbol range")
    cache = {}

    def rule(xi, beta):
        if xi not in cache:
            cache[xi] = _summed_layers(a, [lam], xi, N, 0, DEFAULT_CUTOFF)
        return cache[xi][beta][0]
    return Symbol(a.J, -a.order, rule, 0)


@dataclass
class ContourSpec:
    """Seeley contour: circle of radius rho around 0 plus the two cut legs.

    rho must lie below the spectrum; R truncates the legs (log-substituted
    Gauss-Legendre handles the tail); n_quad = nodes per leg.
    """
    rho: float
    R: float
    n_quad: int

    def __post_init__(self):
        if not (0 < self.rho < self.R):
            raise ValueError("contour needs 0 < rho < R")

    def nodes(self, z: float):
        r"""(lambda_i, w_i) with sum_i w_i f(lambda_i) ~ -(2 pi i)^-1 \oint lambda^z f."""
        # legs: -(sin(pi z)/pi) int_rho^R r^z f(-r) dr, r = rho e^u
        U = math.log(self.R / self.rho)
        x, w = np.polynomial.legendre.leggauss(self.n_quad)
        u = 0.5 * U * (x + 1.0)
        wu = 0.5 * U * w
        r = self.rho * np.exp(u)
        lam_legs = -r
        w_legs = -(math.sin(math.pi * z) / math.pi) * (r ** (z + 1)) * wu
        # circle: +(2 pi)^-1 int_{-pi}^{pi} rho^{1+z} e^{i(1+z)phi} f(rho e^{i phi}) dphi
        xc, wc = np.polynomial.legendre.leggauss(self.n_quad)
        phi = math.pi * xc
        wphi = math.pi * wc
        lam_circ = self.rho * np.exp(1j * phi)
        w_circ = (1.0 / (2 * math.pi)) * self.rho ** (1 + z) * np.exp(1j * (1 + z) * phi) * wphi
        return np.concatenate([lam_legs, lam_circ]), np.concatenate([w_legs, w_circ])


def complex_power(a: EllipticSymbol, z: float, contour: ContourSpec, N: int,
                  deriv_depth: int, compose_N: int, cutoff: Cutoff = DEFAULT_CUTOFF) -> Symbol:
    """Symbol of A^z by contour integration of the parametrix layers.

    For z < 0 the layers are integrated directly; z >= 0 uses the reduction
    A^z = A^k A_{z-k} with k = floor(z) + 1, composing with the full symbol.
    """
    if z >= 0.0:
        k = int(math.floor(z)) + 1
        low = complex_power(a, z - k, contour, N, deriv_depth + compose_N, compose_N,
                            cutoff)
        out = low
        full = a.full_symbol()
        for _ in range(k):
            out = compose(full, out, compose_N)
        return Symbol(out.J, a.order * z, out._rule, out.deriv_depth)

    lam_nodes, w_nodes = contour.nodes(z)
    # the circle must stay below the operator spectrum
    m0 = quantize(a.full_symbol())
    smin = float(np.linalg.eigvalsh(0.5 * (m0 + m0.conj().T))[0])
    if smin <= contour.rho:
        raise EllipticityError(
            f"contour intersects the spectrum (min eig {smin:.4g} <= rho {contour.rho:.4g})")
    for lam in (lam_nodes[0], lam_nodes[len(lam_nodes) // 2], lam_nodes[-1]):
        if a.principal_min_abs(lam, range(-a.J, a.J + 1)) == 0.0:
            raise EllipticityError("contour intersects the symbol spectrum range")

    cache = {}

    # einsum's own loop sums the nodes in one fixed order; BLAS (tensordot)
    # splits the sum by its thread count, and the last bits follow it
    def rule(xi, beta):
        if xi not in cache:
            cache[xi] = [np.einsum("i,i...->...", w_nodes, v) for v in
                         _summed_layers(a, lam_nodes, xi, N, deriv_depth, cutoff)]
        return cache[xi][beta]

    sym = Symbol(a.J, a.order * z, rule, deriv_depth)
    return sym.scaled_by_cutoff(cutoff)
