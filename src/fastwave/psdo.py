r"""Pseudodifferential symbol calculus and contour-integral functional calculus.

A symbol a(x, xi) is its rule: for each xi and each xi-derivative order beta
it gives the Fourier coefficients of d_xi^beta a(., xi) as a function of x,
computed on demand, so a symbol declares neither its order nor how many
xi-derivatives it has.  Quantization gives the (2J+1)^2 matrix

    [Op(a) u]^(j_out) = sum_{j_in} a_hat(j_out - j_in; xi = j_in) u^(j_in).

Every raw value has one form: a complex array whose last axis is x, of
length 1 (only the zero mode: the value is constant in x) or full length
2J+1.  Inside the resolvent parametrix a value has one leading axis more, the
power k of r = 1/(a_m(xi) - lambda): the array c[k, x] stands for the
polynomial sum_k c_k(x) r^k, whose coefficients do not depend on lambda.
Products convolve in x when both sides are full and broadcast otherwise, and
convolve along the power axis when both sides have more than one power; sums
zero-pad both operands to a common shape.  A single zero entry is a structural
zero (a vanishing derivative of xi^2, of an x-only symbol or of the cutoff): a
product with it is that zero, a sum with it the other operand.

Composition uses the asymptotic expansion a#b = sum_{beta<N} (i^beta beta!)^-1
d_xi^beta a . d_x^beta b.  Real powers of a second-order elliptic operator
are built from the resolvent parametrix layers b_n(lambda; x, xi), each
multiplied by the module's smooth cutoff DEFAULT_CUTOFF, chi, which removes
the (xi, lambda) = 0 singularity.  The principal layer a_m(xi), m = 2, must
not depend on x; then every layer and each of its xi-derivatives is exactly
an r-polynomial with lambda-free coefficients, built at each xi by one
recursion, only to the xi-derivative order asked for.  One node sum
sum_i w_i sum_{n<N} chi b_n(lambda_i) serves both uses: the layers'
coefficients, summed over n, contracted with the scalar moments
M[g, k] = sum_i w_i d_xi^g chi(t_i) r_i^k of the nodes lambda_i.  The
resolvent parametrix is its one node lambda with weight 1; the clockwise
contour integral -(2 pi i)^-1 \oint lambda^z chi b_n dlambda around the branch
cut is its sum over the quadrature nodes.  The contractions run in einsum's
own loop, not in BLAS, so their bits do not depend on the BLAS thread count.
z >= 0 reduces to A^k A_{z-k}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .harmonics import xconv


class EllipticityError(RuntimeError):
    pass


# the least distance |a_m(xi) - lambda| at which the resolvent r = 1/(a_m(xi) -
# lambda) is formed; closer, within some 45 ulps of a_m(xi) = 1, r is round-off,
# so both the node sum and the moments refuse such a lambda
NODE_GAP_MIN = 1e-14


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


_ZERO = np.zeros(1, dtype=complex)     # the structural zero
_ZERO.flags.writeable = False


def _add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum, each side zero-padded: x centred on the zero mode, r-polynomials at their
    high powers."""
    if _zero(a):
        return b
    if _zero(b):
        return a
    D = max(a.shape[-1], b.shape[-1])
    a, b = _widen(a, D), _widen(b, D)
    if a.ndim > 1 and len(a) != len(b):
        if len(a) < len(b):
            a, b = b, a
        out = a.copy()
        out[:len(b)] += b
        return out
    return a + b


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product: an x-convolution when both sides are full, and a convolution of
    the powers of r when both sides have more than one."""
    if _zero(a):
        return a
    if _zero(b):
        return b
    if a.ndim > 1 and b.ndim > 1 and len(a) > 1 and len(b) > 1:
        # every pair of powers at once, then the sums along the anti-diagonals
        prod = _mul(a[:, None], b[None])
        out = np.zeros((len(a) + len(b) - 1, prod.shape[-1]), dtype=complex)
        for k, row in enumerate(prod):
            out[k:k + len(b)] += row
        return out
    if a.shape[-1] > 1 and b.shape[-1] > 1:
        return xconv(a, b)
    return a * b


def _leibniz(f, g, b: int, lo: int = 0) -> np.ndarray:
    """sum_{k=lo..b} binom(b, k) f(k) g(b-k): d_xi^b of a product, from k = lo."""
    acc = _ZERO
    for k in range(lo, b + 1):
        fk, gk = f(k), g(b - k)
        if not (_zero(fk) or _zero(gk)):
            acc = _add(acc, math.comb(b, k) * _mul(fk, gk))
    return acc


def _dx(v: np.ndarray, order: int = 1) -> np.ndarray:
    J = (v.shape[-1] - 1) // 2
    return v * (1j * np.arange(-J, J + 1)) ** order


class Symbol:
    """Pseudodifferential symbol: its rule, with any xi-derivative on demand.

    `rule(xi, beta)` gives d_xi^beta a(., xi) as a scalar (constant in x) or
    a (2J+1,) x-coefficient array, for every beta >= 0.  `raw` returns it in
    the one value form of this module: an array whose last axis, x, has
    length 1 (the zero mode only) or 2J+1.  Inside the parametrix a value
    carries the power axis of r in front of it.  J is the truncation |j| <= J
    of the quantized matrix.
    """

    def __init__(self, J: int, rule):
        self.J = int(J)
        self._rule = rule
        self._cache = {}

    # raw evaluation with caching
    def raw(self, xi: float, beta: int) -> np.ndarray:
        key = (float(xi), int(beta))
        if key not in self._cache:
            self._cache[key] = _lift(self._rule(float(xi), int(beta)))
        return self._cache[key]

    # -- algebra (closures propagate derivative rules) ----------------------

    def dxi(self) -> "Symbol":
        return Symbol(self.J, lambda xi, b: self.raw(xi, b + 1))

    def dx(self, order: int) -> "Symbol":
        return Symbol(self.J, lambda xi, b: _dx(self.raw(xi, b), order))

    def __add__(self, other: "Symbol") -> "Symbol":
        return Symbol(self.J, lambda xi, b: _add(self.raw(xi, b), other.raw(xi, b)))

    def __mul__(self, scalar) -> "Symbol":
        return Symbol(self.J, lambda xi, b: self.raw(xi, b) * scalar)

    __rmul__ = __mul__

    def mul(self, other: "Symbol") -> "Symbol":
        """Pointwise product; Leibniz propagates xi-derivatives."""
        def rule(xi, b):
            return _leibniz(lambda g: self.raw(xi, g), lambda g: other.raw(xi, g), b)
        return Symbol(self.J, rule)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, J: int, value: complex) -> "Symbol":
        return cls(J, lambda xi, b: complex(value) if b == 0 else 0.0)

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
        return cls(J, rule)

    @classmethod
    def x_multiplication(cls, J: int, xcoeffs: np.ndarray) -> "Symbol":
        xc = np.asarray(xcoeffs, dtype=complex)
        return cls(J, lambda xi, b: xc if b == 0 else 0.0)


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
    """Asymptotic composition a#b truncated at N terms."""
    terms = []
    for beta in range(N):
        coeff = 1.0 / ((1j) ** beta * math.factorial(beta))
        da = a
        for _ in range(beta):
            da = da.dxi()
        db = b.dx(beta) if beta else b
        terms.append(coeff * da.mul(db))
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
    """Declared layer decomposition a ~ sum_k a_{2-k} of a second-order elliptic symbol."""

    def __init__(self, J: int, layers: list):
        """layers: list of (order_drop k, Symbol); k = 0 is the principal layer."""
        self.J = int(J)
        self.layers = dict()
        for k, sym in layers:
            self.layers[int(k)] = sym

    @classmethod
    def xi2_plus_q(cls, J: int, qcoeffs) -> "EllipticSymbol":
        """The Schroedinger symbol xi^2 + q(x) with layers (xi^2, q)."""
        return cls(J, [(0, Symbol.xi_poly(J, [0.0, 0.0, 1.0])),
                       (2, Symbol.x_multiplication(J, qcoeffs))])

    def full_symbol(self) -> Symbol:
        """The sum of the layers."""
        syms = list(self.layers.values())
        out = syms[0]
        for s in syms[1:]:
            out = out + s
        return out


def _principal(a: EllipticSymbol, xi: float, beta: int) -> complex:
    """d_xi^beta a_m(xi): the parametrix's r-polynomials need a principal
    layer that does not depend on x."""
    v = a.layers[0].raw(xi, beta)
    c = v.shape[-1] // 2
    if np.any(v[:c]) or np.any(v[c + 1:]):
        raise ValueError(f"the principal layer depends on x (at xi = {xi}); the resolvent "
                         "parametrix needs an x-independent a_m(xi)")
    return complex(v[c])


def _layer_data(a: EllipticSymbol, xi: float, n_beta: int, dx_max: int):
    """d_xi^beta d_x^g of each declared layer at fixed xi, as r-polynomials of
    degree 0; those of the principal layer with g >= 1 are structural zeros."""
    out = {}
    for k, sym in a.layers.items():
        for beta in range(n_beta + 1):
            base = (np.array([[_principal(a, xi, beta)]]) if k == 0
                    else sym.raw(xi, beta)[None])
            for g in range(dx_max + 1):
                out[(k, beta, g)] = _dx(base, g) if g else base
    return out


def _parametrix_coeffs(a: EllipticSymbol, xi: float, N: int, max_beta: int) -> dict:
    """{n: {beta: d_xi^beta b_n(., xi)}} for n < N, beta <= max_beta - n, each an
    r-polynomial in r = 1/(a_m(xi) - lam) with lam-free coefficients, from

      b_0 (a_m - lam) = 1,
      b_n (a_m - lam) + sum_{p<n} b_p a_{m-n+p}
        + sum_{beta=1..n} (i^beta beta!)^-1 sum_{p<=n-beta}
            d_xi^beta b_p . d_x^beta a_{m-n+beta+p} = 0.

    b_n enters the layers above it with up to N - 1 - n more xi-derivatives, so
    it is built up to order max_beta - n.  An identically vanishing layer, such
    as b_1 of xi^2 + q, is the structural zero.
    """
    data = _layer_data(a, xi, max_beta, N - 1)
    # r's xi-derivatives by the u r = 1 recursion, u = a_m - lam: d_xi^g u = d_xi^g a_m
    r = {0: np.array([[0.0], [1.0]], dtype=complex)}
    for beta in range(1, max_beta + 1):
        acc = _leibniz(lambda g: data[(0, g, 0)], lambda g: r[g], beta, lo=1)
        r[beta] = -_mul(r[0], acc)

    b = {0: r}
    for n in range(1, N):
        # (coefficient, p, k, beta) of each d_xi^beta b_p . d_x^beta a_{m-k} above
        terms = [(1.0, p, n - p, 0) for p in range(n)]
        terms += [(1.0 / ((1j) ** beta * math.factorial(beta)), p, n - beta - p, beta)
                  for beta in range(1, n + 1) for p in range(n - beta + 1)]
        rhs = {}
        for bb in range(max_beta - n + 1):
            rhs[bb] = _ZERO
            for c, p, k, beta in terms:
                if k in a.layers:
                    term = _leibniz(lambda g: b[p][g + beta], lambda g: data[(k, g, beta)],
                                    bb)
                    rhs[bb] = _add(rhs[bb], c * term)
        b[n] = {bb: -_leibniz(lambda g: r[g], lambda g: rhs[g], bb) for bb in rhs}
    return b


def _cutoff_moments(a: EllipticSymbol, lam: np.ndarray, xi: float, K: int,
                    n_beta: int) -> list:
    """[d_xi^g chi(t) r^k for k < K at each lam, g <= n_beta], t = xi^2 + |lam|
    (|lam|^(2/m) with m = 2); a d_xi^g chi that vanishes at every lam is the
    structural zero."""
    u = _principal(a, xi, 0) - lam
    if np.min(np.abs(u)) < NODE_GAP_MIN:
        raise EllipticityError("principal symbol hits lambda on the grid")
    rk = np.ones(lam.shape + (K,), dtype=complex)
    for k in range(1, K):
        rk[..., k] = rk[..., k - 1] / u
    t = abs(xi) ** 2 + np.abs(lam)
    chi = _chain_quadratic_batch(DEFAULT_CUTOFF, t, 2.0 * xi, 2.0, n_beta)
    return [c if _zero(c) else c[..., None] * rk for c in chi]


def _with_cutoff(moments: list, coeffs, beta: int) -> np.ndarray:
    """d_xi^beta (chi b) = sum_g binom(beta, g) d_xi^g chi . d_xi^(beta-g) b, with the
    powers of r in each coeffs[beta - g] contracted against moments[g]."""
    acc = _ZERO
    for g in range(beta + 1):
        c = coeffs[beta - g]
        if not (_zero(moments[g]) or _zero(c)):
            term = np.einsum("...k,kx->...x", moments[g][..., :len(c)], c)
            acc = _add(acc, math.comb(beta, g) * term)
    return acc


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


def _node_sum(a: EllipticSymbol, lam_nodes, w_nodes, N: int) -> Symbol:
    """sum_i w_i sum_{n<N} chi b_n(lam_i): the layers summed over n on their
    r-coefficients, contracted with the node moments sum_i w_i d_xi^g chi(t_i) r_i^k.

    No node may lie within NODE_GAP_MIN of the principal symbol a_m(xi) at an
    integer |xi| <= J.
    """
    lam_nodes = np.asarray(lam_nodes, dtype=complex)
    a_m = np.array([_principal(a, xi, 0) for xi in range(-a.J, a.J + 1)])
    if np.min(np.abs(a_m[:, None] - lam_nodes)) < NODE_GAP_MIN:
        raise EllipticityError("a node touches the principal symbol range")

    # d_xi^beta needs the layers only to that order, so each (xi, beta) that is
    # asked for (Symbol.raw caches it) runs its own recursion; einsum's own
    # loop sums the nodes in one fixed order, where BLAS (tensordot) would split
    # the sum by its thread count and the last bits would follow it
    def rule(xi, beta):
        b = _parametrix_coeffs(a, xi, N, beta + N - 1)
        summed = [reduce(_add, [b[n][bb] for n in range(N)]) for bb in range(beta + 1)]
        K = max(len(c) for c in summed)
        moments = [m if _zero(m) else np.einsum("i,ik->k", w_nodes, m) for m in
                   _cutoff_moments(a, lam_nodes, xi, K, beta)]
        return _with_cutoff(moments, summed, beta)

    return Symbol(a.J, rule)


def resolvent_parametrix(a: EllipticSymbol, lam: complex, N: int) -> Symbol:
    """The truncated parametrix symbol b_(N)(lam) = sum_{n<N} chi b_{-2-n}(lam):
    the node sum of the one node lam with weight 1."""
    return _node_sum(a, [lam], [1.0], N)


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
        x, w = _gauss_legendre(self.n_quad)
        u = 0.5 * U * (x + 1.0)
        wu = 0.5 * U * w
        r = self.rho * np.exp(u)
        lam_legs = -r
        w_legs = -(math.sin(math.pi * z) / math.pi) * (r ** (z + 1)) * wu
        # circle: +(2 pi)^-1 int_{-pi}^{pi} rho^{1+z} e^{i(1+z)phi} f(rho e^{i phi}) dphi
        phi = math.pi * x
        wphi = math.pi * w
        lam_circ = self.rho * np.exp(1j * phi)
        w_circ = (1.0 / (2 * math.pi)) * self.rho ** (1 + z) * np.exp(1j * (1 + z) * phi) * wphi
        return np.concatenate([lam_legs, lam_circ]), np.concatenate([w_legs, w_circ])


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple:
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], computed once per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def complex_power(a: EllipticSymbol, z: float, contour: ContourSpec, N: int,
                  compose_N: int) -> Symbol:
    """Symbol of A^z by contour integration of the parametrix layers.

    For z < 0 the layers are integrated directly and the result is multiplied
    by chi(xi), which kills the xi = 0 mode and is 1 for |xi| >= 1; z >= 0 uses
    the reduction A^z = A^k A_{z-k} with k = floor(z) + 1, composing with the
    full symbol.
    """
    if z >= 0.0:
        k = int(math.floor(z)) + 1
        out = complex_power(a, z - k, contour, N, compose_N)
        full = a.full_symbol()
        for _ in range(k):
            out = compose(full, out, compose_N)
        return out
    chi = Symbol(a.J, lambda xi, b: DEFAULT_CUTOFF(xi, b))
    return _contour_integral(a, z, contour, N).mul(chi)


def _contour_integral(a: EllipticSymbol, z: float, contour: ContourSpec, N: int) -> Symbol:
    r"""-(2 pi i)^-1 \oint lambda^z sum_{n<N} chi b_n dlambda: the node sum over the
    quadrature nodes of `contour`."""
    # the circle must stay below the operator spectrum
    m0 = quantize(a.full_symbol())
    smin = float(np.linalg.eigvalsh(0.5 * (m0 + m0.conj().T))[0])
    if smin <= contour.rho:
        raise EllipticityError(
            f"contour intersects the spectrum (min eig {smin:.4g} <= rho {contour.rho:.4g})")
    return _node_sum(a, *contour.nodes(z), N)
