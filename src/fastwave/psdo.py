r"""Pseudodifferential symbol calculus and contour-integral functional calculus.

A symbol a(phi, x, xi) of order m is stored as a rule giving, for each xi and
each xi-derivative order beta up to `deriv_depth`, the Fourier coefficients of
a(., ., xi) as a function on the torus.  Quantization acts mode-wise:

    [Op(a) u]^(l_out, j_out) = sum a_hat(l, j_out - j_in; xi = j_in) u^(l_in, j_in).

Every raw value has one form: a complex array whose trailing nu+1 axes are
the lattice axes (phi_1..phi_nu, x).  Each of them has length 1 (only the
zero mode: the value is constant along that axis) or full length 2L+1 resp.
2J+1.  Any leading axes are batch axes, the lambda nodes of the contour.
Products convolve along the axes that are full on both sides and broadcast
along the rest; sums put a length-1 axis at the zero mode of a full one.

Composition uses the asymptotic expansion a#b = sum_{beta<N} (i^beta beta!)^-1
d_xi^beta a . d_x^beta b, with the operator-level residual measured and its
column decay exponent fitted.  Real powers of an elliptic operator are built
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

from .harmonics import (Lattice, TorusFunction, multiply, sobolev_norm, x_from_grid,
                        x_to_grid, xconv)
from .opmatrix import BlockOperator


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


DEFAULT_CUTOFF = Cutoff(1.0)


# -- symbols -------------------------------------------------------------------


def _lift(v, nd: int) -> np.ndarray:
    """A rule's scalar or x-array return value as a raw value with nd lattice axes."""
    v = np.asarray(v, dtype=complex)
    return v.reshape((1,) * (nd - v.ndim) + v.shape)


def _phi_dependent(v: np.ndarray, lattice: Lattice) -> bool:
    return v.shape[-lattice.nu - 1:-1] != (1,) * lattice.nu


def _widen(v: np.ndarray, dims: tuple) -> np.ndarray:
    """v with each length-1 lattice axis zero-padded, at the zero mode, to dims."""
    nd = len(dims)
    if v.shape[-nd:] == dims:
        return v
    out = np.zeros(v.shape[:-nd] + dims, dtype=complex)
    centre = tuple(slice((n - s) // 2, (n + s) // 2) for s, n in zip(v.shape[-nd:], dims))
    out[(...,) + centre] = v
    return out


def _add(a: np.ndarray, b: np.ndarray, lattice: Lattice) -> np.ndarray:
    nd = lattice.nu + 1
    dims = tuple(max(s, t) for s, t in zip(a.shape[-nd:], b.shape[-nd:]))
    return _widen(a, dims) + _widen(b, dims)


def _mul(a: np.ndarray, b: np.ndarray, lattice: Lattice) -> np.ndarray:
    """Pointwise product: a coefficient convolution along the axes full on both sides."""
    if _phi_dependent(a, lattice) and _phi_dependent(b, lattice):
        return multiply(TorusFunction(lattice, _widen(a, lattice.shape)),
                        TorusFunction(lattice, _widen(b, lattice.shape))).coeffs
    if a.shape[-1] > 1 and b.shape[-1] > 1:
        return xconv(a, b)
    return a * b


def _leibniz(f, g, b: int, lattice: Lattice, lo: int = 0) -> np.ndarray:
    """sum_{k=lo..b} binom(b, k) f(k) g(b-k): d_xi^b of a product, from k = lo."""
    acc = None
    for k in range(lo, b + 1):
        term = math.comb(b, k) * _mul(f(k), g(b - k), lattice)
        acc = term if acc is None else _add(acc, term, lattice)
    return acc


def _dx(v: np.ndarray, order: int = 1) -> np.ndarray:
    J = (v.shape[-1] - 1) // 2
    return v * (1j * np.arange(-J, J + 1)) ** order


def _x_samples(v: np.ndarray, lattice: Lattice, oversample: int = 8) -> np.ndarray:
    """Values of a phi-independent raw value on oversample * (2J+1) x points."""
    if _phi_dependent(v, lattice):
        raise NotImplementedError("grid functions of phi-dependent symbols are unused")
    return x_to_grid(v, oversample * v.shape[-1])


def _pointwise(v: np.ndarray, f, lattice: Lattice, oversample: int = 8) -> np.ndarray:
    """f applied pointwise in x, on the oversampled grid."""
    return x_from_grid(f(_x_samples(v, lattice, oversample)), (v.shape[-1] - 1) // 2)


class Symbol:
    """Pseudodifferential symbol with xi-derivative access.

    `rule(xi, beta)` gives d_xi^beta a(., ., xi) as a scalar (constant in
    (phi, x)), a (2J+1,) x-coefficient array, or a full lattice coefficient
    array.  `raw` returns it in the one value form of this module: an array
    whose nu+1 axes (phi_1..phi_nu, x) each have length 1 (the zero mode
    only) or full length.  Values inside the parametrix carry leading batch
    axes (the lambda nodes) in front of these.
    """

    def __init__(self, lattice: Lattice, order: float, rule, deriv_depth: int = 4,
                 xi_max: int | None = None, provenance: str = "primitive"):
        self.lattice = lattice
        self.order = float(order)
        self._rule = rule
        self.deriv_depth = int(deriv_depth)
        self.xi_max = int(xi_max if xi_max is not None else lattice.J)
        self.provenance = provenance
        self._cache = {}

    # raw evaluation with caching
    def raw(self, xi: float, beta: int = 0) -> np.ndarray:
        if beta > self.deriv_depth:
            raise ValueError(f"derivative depth {self.deriv_depth} exceeded (beta={beta})")
        key = (float(xi), int(beta))
        if key not in self._cache:
            self._cache[key] = _lift(self._rule(float(xi), int(beta)), self.lattice.nu + 1)
        return self._cache[key]

    def eval(self, xi: float, beta: int = 0) -> TorusFunction:
        return TorusFunction(self.lattice, _widen(self.raw(xi, beta), self.lattice.shape))

    @property
    def phi_independent(self) -> bool:
        return not _phi_dependent(self.raw(0, 0), self.lattice)

    # -- algebra (closures propagate derivative rules) ----------------------

    def dxi(self) -> "Symbol":
        return Symbol(self.lattice, self.order - 1,
                      lambda xi, b: self.raw(xi, b + 1),
                      self.deriv_depth - 1, self.xi_max, "composed")

    def dx(self, order: int = 1) -> "Symbol":
        return Symbol(self.lattice, self.order,
                      lambda xi, b: _dx(self.raw(xi, b), order),
                      self.deriv_depth, self.xi_max, "composed")

    def __add__(self, other: "Symbol") -> "Symbol":
        return Symbol(self.lattice, max(self.order, other.order),
                      lambda xi, b: _add(self.raw(xi, b), other.raw(xi, b), self.lattice),
                      min(self.deriv_depth, other.deriv_depth),
                      min(self.xi_max, other.xi_max), "composed")

    def __sub__(self, other: "Symbol") -> "Symbol":
        return self + (other * (-1.0))

    def __mul__(self, scalar) -> "Symbol":
        return Symbol(self.lattice, self.order,
                      lambda xi, b: self.raw(xi, b) * scalar,
                      self.deriv_depth, self.xi_max, self.provenance)

    __rmul__ = __mul__

    def mul(self, other: "Symbol", order: float | None = None) -> "Symbol":
        """Pointwise product with Leibniz propagation of xi-derivatives."""
        def rule(xi, b):
            return _leibniz(lambda g: self.raw(xi, g), lambda g: other.raw(xi, g), b,
                            self.lattice)
        return Symbol(self.lattice, self.order + other.order if order is None else order,
                      rule, min(self.deriv_depth, other.deriv_depth),
                      min(self.xi_max, other.xi_max), "composed")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, lattice: Lattice, value: complex) -> "Symbol":
        return cls(lattice, 0.0, lambda xi, b: complex(value) if b == 0 else 0.0,
                   deriv_depth=64)

    @classmethod
    def xi_poly(cls, lattice: Lattice, coeffs) -> "Symbol":
        """sum_k coeffs[k] xi^k with exact derivative rules."""
        coeffs = [complex(c) for c in coeffs]

        def rule(xi, b):
            tot = 0.0 + 0.0j
            for k, c in enumerate(coeffs):
                if k >= b:
                    tot += c * math.perm(k, b) * xi ** (k - b)
            return tot
        return cls(lattice, len(coeffs) - 1, rule, deriv_depth=64)

    @classmethod
    def bracket_power(cls, lattice: Lattice, m: float) -> "Symbol":
        """<xi>^m with <xi> = max(1, |xi|); derivatives use the |xi| > 1 branch."""
        def rule(xi, b):
            if abs(xi) <= 1.0:
                return 1.0 + 0.0j if b == 0 else 0.0 + 0.0j
            fall = 1.0
            for i in range(b):
                fall *= (m - i)
            return complex(fall * abs(xi) ** (m - b) * np.sign(xi) ** b)
        return cls(lattice, m, rule, deriv_depth=64)

    @classmethod
    def x_multiplication(cls, lattice: Lattice, xcoeffs: np.ndarray) -> "Symbol":
        xc = np.asarray(xcoeffs, dtype=complex)
        return cls(lattice, 0.0, lambda xi, b: xc if b == 0 else np.zeros_like(xc),
                   deriv_depth=64)

    @classmethod
    def torus_multiplication(cls, lattice: Lattice, u: TorusFunction) -> "Symbol":
        return cls(lattice, 0.0,
                   lambda xi, b: u.coeffs if b == 0 else np.zeros_like(u.coeffs),
                   deriv_depth=64)

    def sqrt(self, grid_oversample: int = 8) -> "Symbol":
        """sqrt(a) pointwise, with derivatives from Leibniz on s*s = a."""
        lat = self.lattice
        cache = {}

        def rule(xi, b):
            if (xi, b) not in cache:
                if b == 0:
                    out = _pointwise(self.raw(xi, 0), np.sqrt, lat, grid_oversample)
                else:
                    rhs = self.raw(xi, b)
                    for g in range(1, b):
                        term = math.comb(b, g) * _mul(rule(xi, g), rule(xi, b - g), lat)
                        rhs = _add(rhs, -term, lat)
                    half_inv = _pointwise(rule(xi, 0), lambda s: 1.0 / (2.0 * s), lat,
                                          grid_oversample)
                    out = _mul(half_inv, rhs, lat)
                cache[(xi, b)] = out
            return cache[(xi, b)]
        return Symbol(self.lattice, self.order / 2.0, rule, self.deriv_depth,
                      self.xi_max, "primitive")

    def scaled_by_cutoff(self, cutoff: Cutoff = DEFAULT_CUTOFF) -> "Symbol":
        """chi(xi) a(x, xi): kills the xi = 0 mode, identity for |xi| >= 1."""
        def rule(xi, b):
            acc = 0.0 * self.raw(xi, b)
            for g in range(b + 1):
                c = math.comb(b, g) * cutoff(xi, g)
                if c != 0.0:
                    acc = _add(acc, c * self.raw(xi, b - g), self.lattice)
            return acc
        return Symbol(self.lattice, self.order, rule, self.deriv_depth,
                      self.xi_max, self.provenance)


# -- quantization and weighted norms ------------------------------------------


def quantize(a: Symbol, lattice: Lattice | None = None, K=None) -> BlockOperator:
    """Matrix of Op(a) on the truncated lattice (exponential basis)."""
    lattice = lattice or a.lattice
    if a.xi_max < lattice.J:
        raise ValueError("symbol xi range smaller than the lattice cutoff J")
    D = 2 * lattice.J + 1
    mats = {}
    for j_in in range(-lattice.J, lattice.J + 1):
        v = a.raw(j_in, 0)
        # one column per angle transfer (only l = 0 for phi-independent values)
        for ell_idx in np.ndindex(*v.shape[:-1]):
            col = v[ell_idx]
            if np.max(np.abs(col)) == 0.0:
                continue
            ell = tuple(i - (n - 1) // 2 for i, n in zip(ell_idx, v.shape[:-1]))
            m = mats.setdefault(ell, np.zeros((D, D), dtype=complex))
            _add_column(m, col, j_in, lattice.J)
    return BlockOperator(lattice, {k: m for k, m in mats.items()
                                   if np.max(np.abs(m)) > 0.0}, K)


def _add_column(m, xcoeffs, j_in, J):
    # entry (j_out, j_in) = a_hat(j_out - j_in; xi = j_in)
    Jx = (len(xcoeffs) - 1) // 2
    for k in range(-Jx, Jx + 1):
        j_out = j_in + k
        if -J <= j_out <= J and xcoeffs[k + Jx] != 0.0:
            m[j_out + J, j_in + J] += xcoeffs[k + Jx]


def weighted_norm(a: Symbol, m: float, s: float, alpha: int = 0) -> float:
    """max_{beta<=alpha} sup_xi ||d_xi^beta a(.,.,xi)||_s <xi>^{-m+beta}."""
    if alpha > a.deriv_depth:
        raise ValueError("derivative depth exceeded")
    worst = 0.0
    for beta in range(alpha + 1):
        for xi in range(-a.xi_max, a.xi_max + 1):
            val = sobolev_norm(a.eval(xi, beta), s)
            worst = max(worst, val * max(1.0, abs(xi)) ** (-m + beta))
    return worst


def weighted_norm_lip(symbols: dict, m: float, s: float, alpha: int, w: float) -> float:
    """Finite-difference Lipschitz variant over sampled parameters omega -> Symbol."""
    keys = list(symbols)
    sup = max(weighted_norm(symbols[k], m, s, alpha) for k in keys)
    lip = 0.0
    for i in range(len(keys)):
        for k in range(i + 1, len(keys)):
            o1, o2 = np.asarray(keys[i]), np.asarray(keys[k])
            dist = float(np.linalg.norm(o1 - o2))
            if dist == 0.0:
                continue
            worst = 0.0
            for beta in range(alpha + 1):
                for xi in range(-symbols[keys[i]].xi_max, symbols[keys[i]].xi_max + 1):
                    dv = sobolev_norm(symbols[keys[i]].eval(xi, beta)
                                      - symbols[keys[k]].eval(xi, beta), max(s - 1, 0))
                    worst = max(worst, dv * max(1.0, abs(xi)) ** (-m + beta))
            lip = max(lip, worst / dist)
    return sup + w * lip


# -- composition ----------------------------------------------------------------


def compose(a: Symbol, b: Symbol, N: int, with_report: bool = False):
    """Asymptotic composition a#b truncated at N terms.

    Returns the approximate symbol of order a.order + b.order; with
    with_report=True also returns the operator-level residual diagnostics
    (residual BlockOperator and fitted column-decay exponent, to be compared
    with a.order + b.order - N).
    """
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
    approx = Symbol(approx.lattice, a.order + b.order, approx._rule,
                    approx.deriv_depth, approx.xi_max, "composed")
    if not with_report:
        return approx
    Opa, Opb, Opc = quantize(a), quantize(b), quantize(approx)
    residual = Opa @ Opb - Opc
    expo, diag = entry_decay_exponent(residual)
    report = {
        "expected_order": a.order + b.order - N,
        "fitted_exponent": expo,
        "residual": residual,
        "column_max": diag,
    }
    return approx, report


def commutator_symbol(a: Symbol, b: Symbol, with_report: bool = False):
    """Leading commutator symbol -i{a, b}; residual decays two orders lower."""
    if a.deriv_depth < 2 or b.deriv_depth < 2:
        raise ValueError("commutator needs deriv_depth >= 2")
    lead = (-1j) * (a.dxi().mul(b.dx()) - a.dx().mul(b.dxi()))
    lead = Symbol(lead.lattice, a.order + b.order - 1, lead._rule,
                  lead.deriv_depth, lead.xi_max, "composed")
    if not with_report:
        return lead
    Opa, Opb = quantize(a), quantize(b)
    residual = (Opa @ Opb - Opb @ Opa) - quantize(lead)
    expo, diag = entry_decay_exponent(residual)
    return lead, {"expected_order": a.order + b.order - 2,
                  "fitted_exponent": expo, "residual": residual,
                  "column_max": diag}


def symbol_dump(a: Symbol, xi_values=None, beta: int = 0) -> dict:
    """JSON-ready sample of a symbol: order, xi range, coefficient slices."""
    xi_values = list(xi_values) if xi_values is not None else \
        sorted({-a.xi_max, -a.xi_max // 2, -1, 0, 1, a.xi_max // 2, a.xi_max})
    samples = {}
    for xi in xi_values:
        tf = a.eval(xi, beta)
        samples[str(xi)] = tf.to_json_dict(tol=1e-14)["coeffs"]
    return {"order": a.order, "xi_max": a.xi_max, "deriv_depth": a.deriv_depth,
            "provenance": a.provenance, "beta": beta, "samples": samples}


def decay_fit_csv(R: BlockOperator, j_lo: int | None = None,
                  j_hi: int | None = None) -> str:
    """CSV (|j|, max entry, fitted exponent) of an operator's column decay."""
    import csv as _csv
    import io as _io
    expo, colmax = entry_decay_exponent(R, j_lo, j_hi)
    J = R.lattice.J
    buf = _io.StringIO()
    w = _csv.writer(buf)
    w.writerow(["abs_j", "max_entry", "fitted_exponent"])
    for j in range(J + 1):
        w.writerow([j, max(colmax[J + j], colmax[J - j]), expo])
    return buf.getvalue()


def entry_decay_exponent(R: BlockOperator, j_lo: int | None = None,
                         j_hi: int | None = None):
    """Fit log(max-column-entry) vs log<j> on mid-range input modes."""
    J = R.lattice.J
    col_max = np.zeros(2 * J + 1)
    for m in R.mats.values():
        col_max = np.maximum(col_max, np.max(np.abs(m), axis=0))
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

    def __init__(self, lattice: Lattice, layers: list, order: float | None = None):
        """layers: list of (order_drop k, Symbol); k = 0 is the principal layer."""
        self.lattice = lattice
        self.layers = dict()
        for k, sym in layers:
            self.layers[int(k)] = sym
        self.order = float(order if order is not None else self.layers[0].order)

    @classmethod
    def xi2_plus_q(cls, lattice: Lattice, qcoeffs=None) -> "EllipticSymbol":
        """The Schroedinger symbol xi^2 + q(x) with layers (xi^2, q)."""
        layers = [(0, Symbol.xi_poly(lattice, [0.0, 0.0, 1.0]))]
        if qcoeffs is not None:
            layers.append((2, Symbol.x_multiplication(lattice, qcoeffs)))
        return cls(lattice, layers, order=2.0)

    @classmethod
    def single_layer(cls, lattice: Lattice, sym: Symbol, order: float) -> "EllipticSymbol":
        return cls(lattice, [(0, sym)], order=order)

    def full_symbol(self) -> Symbol:
        syms = list(self.layers.values())
        out = syms[0]
        for s in syms[1:]:
            out = out + s
        return Symbol(out.lattice, self.order, out._rule, out.deriv_depth,
                      out.xi_max, "primitive")

    def principal_min_abs(self, lam: complex, xi_vals) -> float:
        """min |a_m(x, xi) - lam| over the sampling grid (ellipticity check)."""
        a0 = self.layers[0]
        return float(min(np.min(np.abs(_x_samples(a0.raw(xi, 0), self.lattice) - lam))
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
                            n_beta: int = 0, cutoff: Cutoff = DEFAULT_CUTOFF,
                            apply_cutoff: bool = True):
    """Parametrix layers b_n(lam; ., xi) for a whole batch of lambda values.

    Returns {(n, beta): d_xi^beta b_n} for 0 <= n < N, 0 <= beta <= n_beta,
    each a raw value whose leading axis runs over lam, from the recursion

      b_0 (a_m - lam) = 1,
      b_n (a_m - lam) + sum_{p<n} b_p a_{m-n+p}
        + sum_{beta=1..n} (i^beta beta!)^-1 sum_{p<=n-beta}
            d_xi^beta b_p . d_x^beta a_{m-n+beta+p} = 0,

    each layer multiplied by chi(|xi|^2 + |lam|^{2/m}).
    """
    lat = a.lattice
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    lam = lam.reshape(lam.shape + (1,) * (lat.nu + 1))
    max_beta = n_beta + N
    data = _layer_data(a, xi, max_beta, N)

    def inverse(g):
        u = g - lam
        if np.min(np.abs(u)) < 1e-14:
            raise EllipticityError("principal symbol hits lambda on the grid")
        return 1.0 / u

    # r = 1/(a_m - lam) and its xi-derivatives by the u r = 1 recursion
    r = {0: _pointwise(data[(0, 0, 0)], inverse, lat)}
    for beta in range(1, max_beta + 1):
        acc = _leibniz(lambda g: data[(0, g, 0)], lambda g: r[g], beta, lat, lo=1)
        r[beta] = -_mul(r[0], acc, lat)

    b = {0: r}
    zero = np.zeros((1,) * (lat.nu + 1), dtype=complex)
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
                                    bb, lat)
                    rhs[bb] = _add(rhs[bb], c * term, lat)
        b[n] = {bb: -_leibniz(lambda g: r[g], lambda g: rhs[g], bb, lat) for bb in rhs}

    if not apply_cutoff:
        return {(n, beta): b[n][beta] for n in range(N) for beta in range(n_beta + 1)}
    t = abs(xi) ** 2 + np.abs(lam) ** (2.0 / a.order)
    chi = _chain_quadratic_batch(cutoff, t, 2.0 * xi, 2.0, n_beta)
    return {(n, beta): _leibniz(lambda g: chi[g], lambda g: b[n][g], beta, lat)
            for n in range(N) for beta in range(n_beta + 1)}


def _chain_quadratic_batch(cutoff: Cutoff, t: np.ndarray, t1: float, t2: float,
                           beta_max: int):
    """d^k/dxi^k chi(t(xi)) for quadratic t, batched over t: Faa di Bruno

    d_k = sum_{m1 + 2 m2 = k} k!/(m1! m2! 2^{m2}) chi^(m1+m2)(t) t'^{m1} t''^{m2}.
    """
    d = [cutoff(t, 0)]
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
    """[sum_{n<N} d_xi^beta b_n(lam; ., xi) for beta <= deriv_depth], batched over lam."""
    layers = parametrix_layers_batch(a, lam, xi, N, n_beta=deriv_depth, cutoff=cutoff)
    return [reduce(lambda x, y: _add(x, y, a.lattice), [layers[(n, beta)] for n in range(N)])
            for beta in range(deriv_depth + 1)]


def resolvent_parametrix(a: EllipticSymbol, lam: complex, N: int,
                         cutoff: Cutoff = DEFAULT_CUTOFF,
                         deriv_depth: int = 2) -> Symbol:
    """The truncated parametrix symbol b_(N)(lam) = sum_{n<N} b_{-m-n}(lam)."""
    xi_vals = range(-a.lattice.J, a.lattice.J + 1)
    if a.principal_min_abs(lam, xi_vals) == 0.0:
        raise EllipticityError("lambda touches the principal symbol range")
    cache = {}

    def rule(xi, beta):
        if xi not in cache:
            cache[xi] = _summed_layers(a, [lam], xi, N, deriv_depth, cutoff)
        return cache[xi][beta][0]
    return Symbol(a.lattice, -a.order, rule, deriv_depth, a.lattice.J, "parametrix")


@dataclass
class ContourSpec:
    """Seeley contour: circle of radius rho around 0 plus the two cut legs.

    rho must lie below the spectrum; R truncates the legs (log-substituted
    Gauss-Legendre handles the tail); n_quad = nodes per leg.
    """
    rho: float = 0.5
    R: float = 1e30
    n_quad: int = 320

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


def default_contour(sd_min: float, z: float, n_quad: int = 320) -> ContourSpec:
    """Contour sized from the bottom of the spectrum and power tail tolerance."""
    rho = 0.5 * sd_min
    U = 40.0 / max(abs(z), 0.05)
    return ContourSpec(rho=rho, R=rho * math.exp(min(U, 600.0)), n_quad=n_quad)


def complex_power(a: EllipticSymbol, z: float, N: int = 4,
                  contour: ContourSpec | None = None, deriv_depth: int = 3,
                  cutoff: Cutoff = DEFAULT_CUTOFF, compose_N: int = 3,
                  apply_xi_cutoff: bool = True) -> Symbol:
    """Symbol of A^z by contour integration of the parametrix layers.

    For z < 0 the layers are integrated directly; z >= 0 uses the reduction
    A^z = A^k A_{z-k} with k = floor(z) + 1, composing with the full symbol.
    """
    if z >= 0.0:
        k = int(math.floor(z)) + 1
        low = complex_power(a, z - k, N, contour, deriv_depth + compose_N,
                            cutoff, compose_N, apply_xi_cutoff)
        out = low
        full = a.full_symbol()
        for _ in range(k):
            out = compose(full, out, compose_N)
        return Symbol(out.lattice, a.order * z, out._rule, out.deriv_depth,
                      out.xi_max, "power")

    if contour is None:
        contour = default_contour(1.0, z)
    lam_nodes, w_nodes = contour.nodes(z)
    # the circle must stay below the operator spectrum
    full = a.full_symbol()
    if full.phi_independent:
        m0 = quantize(full).mat((0,) * a.lattice.nu)
        smin = float(np.linalg.eigvalsh(0.5 * (m0 + m0.conj().T))[0])
        if smin <= contour.rho:
            raise EllipticityError(
                f"contour intersects the spectrum (min eig {smin:.4g} <= rho {contour.rho:.4g})")
    for lam in (lam_nodes[0], lam_nodes[len(lam_nodes) // 2], lam_nodes[-1]):
        if a.principal_min_abs(lam, range(-a.lattice.J, a.lattice.J + 1)) == 0.0:
            raise EllipticityError("contour intersects the symbol spectrum range")

    cache = {}

    def rule(xi, beta):
        if xi not in cache:
            cache[xi] = [np.tensordot(w_nodes, v, axes=(0, 0)) for v in
                         _summed_layers(a, lam_nodes, xi, N, deriv_depth, cutoff)]
        return cache[xi][beta]

    sym = Symbol(a.lattice, a.order * z, rule, deriv_depth, a.lattice.J, "power")
    return sym.scaled_by_cutoff(cutoff) if apply_xi_cutoff else sym
