import itertools

import numpy as np
import pytest

from fastwave.harmonics import Lattice, TorusFunction, xconv
from oracles import (algebra_ratio, algebra_tame_constant, bracket_sum, check_reality, coeff,
                     random_function, single_modes, sobolev_norm, torus_product, x_from_grid,
                     x_to_grid)


def bracket(ell, j):
    return max(1.0, float(np.linalg.norm(ell)), abs(float(j)))


def sobolev_norm_loop(u, s):
    """Independent oracle: direct double loop over all lattice indices."""
    lat = u.lattice
    total = 0.0
    for ell in lat.ell_range():
        for j in range(-lat.J, lat.J + 1):
            total += bracket(ell, j) ** (2 * s) * abs(coeff(u, ell, j)) ** 2
    return np.sqrt(total)


def test_lattice_s0():
    assert Lattice(1, 4, 4).s0 == 3
    assert Lattice(2, 4, 4).s0 == 3
    assert Lattice(3, 4, 4).s0 == 4
    with pytest.raises(ValueError):
        Lattice(0, 4, 4)


def test_single_mode_norm():
    lat = Lattice(1, 4, 6)
    u = TorusFunction.from_modes(lat, {(3, -5): 1.0})
    for s in [0.0, 1.0, 2.5]:
        assert sobolev_norm(u, s) == pytest.approx(5.0 ** s, rel=1e-14)


def test_constant_norm():
    lat = Lattice(2, 3, 3)
    u = TorusFunction.from_modes(lat, {(0, 0, 0): 1.0})
    for s in [0.0, 1.0, 7.0]:
        assert sobolev_norm(u, s) == pytest.approx(1.0, rel=1e-14)


def test_norm_matches_direct_loop():
    lat = Lattice(1, 4, 4)
    rng = np.random.default_rng(0)
    u = random_function(lat, rng)
    for s in [0.0, 1.5, 3.0]:
        assert sobolev_norm(u, s) == pytest.approx(sobolev_norm_loop(u, s), rel=1e-12)


def test_negative_s_rejected():
    lat = Lattice(1, 2, 2)
    u = TorusFunction.zero(lat)
    with pytest.raises(ValueError):
        sobolev_norm(u, -1.0)


def _grid_index(lat, sizes):
    cutoffs = [lat.L] * lat.nu + [lat.J]
    return np.ix_(*[np.arange(-c, c + 1) % n for c, n in zip(cutoffs, sizes)])


def to_grid(u, oversample=2):
    """Collocation oracle: u sampled on a uniform (phi, x) grid of
    oversample * (2L+1) points per angle and oversample * (2J+1) in x."""
    lat = u.lattice
    sizes = [oversample * (2 * lat.L + 1)] * lat.nu + [oversample * (2 * lat.J + 1)]
    buf = np.zeros(sizes, dtype=complex)
    buf[_grid_index(lat, sizes)] = u.coeffs
    return np.fft.ifftn(buf) * np.prod(sizes)


def from_grid(values, lat):
    """Inverse of to_grid: the lattice's coefficients of the sampled values."""
    spec = np.fft.fftn(values) / np.prod(values.shape)
    return TorusFunction(lat, np.ascontiguousarray(spec[_grid_index(lat, values.shape)]))


def test_xconv_matches_truncated_convolve():
    # the centred |k| <= J part of the full convolution, broadcast over leading axes
    rng = np.random.default_rng(10)
    J = 6
    D = 2 * J + 1

    def conv(x, y):
        return np.convolve(x, y)[J:3 * J + 1]
    a = rng.standard_normal((4, 1, D)) + 1j * rng.standard_normal((4, 1, D))
    b = rng.standard_normal((4, 3, D)) + 1j * rng.standard_normal((4, 3, D))
    c = rng.standard_normal(D) + 1j * rng.standard_normal(D)
    both = np.array([[conv(a[i, 0], b[i, k]) for k in range(3)] for i in range(4)])
    assert np.max(np.abs(xconv(a, b) - both)) < 1e-13        # batched on both sides
    one = np.array([conv(c, a[i, 0]) for i in range(4)])[:, None]
    assert np.max(np.abs(xconv(c, a) - one)) < 1e-13         # one x-array against a batch
    assert np.max(np.abs(xconv(c, c) - conv(c, c))) < 1e-13


def test_parseval():
    lat = Lattice(1, 4, 4)
    rng = np.random.default_rng(5)
    u = random_function(lat, rng)
    g = to_grid(u, oversample=2)
    mean_sq = np.mean(np.abs(g) ** 2)
    assert mean_sq == pytest.approx(sobolev_norm(u, 0.0) ** 2, rel=1e-10)


def test_norm_monotone_in_s():
    lat = Lattice(1, 3, 3)
    rng = np.random.default_rng(6)
    u = random_function(lat, rng)
    norms = [sobolev_norm(u, s) for s in [0.0, 0.5, 1.0, 2.0, 3.5]]
    assert all(a <= b + 1e-14 for a, b in zip(norms, norms[1:]))


def test_bracket_sum_closed_form():
    # 9 + 8 (zeta(p - 1) - 1) against the direct sum over the box |l|, |j| <= 600,
    # whose tail 8 sum_{m > 600} m^(1-p) is below 2e-11 at p = 6
    k = np.arange(-600, 601)
    w = np.maximum(1.0, np.maximum.outer(np.abs(k), np.abs(k)))
    for p in (6.0, 8.0):
        assert bracket_sum(p) == pytest.approx(np.sum(w ** -p), rel=1e-11)


def test_algebra_tame_bound():
    """|uv|_s <= C (|u|_s |v|_s0 + |u|_s0 |v|_s) with C = 2^(s-1) Z(2 s0)^(1/2).

    Z(p) = sum_{k in Z^2} <k>^(-p) = 9 + 8 (zeta(p - 1) - 1) (`bracket_sum`),
    so C = 8 (9 + 8 (zeta(5) - 1))^(1/2) = 24.39 at s = 4, s0 = 3, nu = 1.
    The weight is subadditive, <k + k'> <= <k> + <k'>, so by convexity
    <k + k'>^s <= 2^(s-1) (<k>^s + <k'>^s); the box cut only drops modes.
    Young's inequality |f * g|_2 <= |f|_2 |g|_1 bounds each of the two
    convolutions, and Cauchy-Schwarz gives |g|_1 <= Z(2 s0)^(1/2) |<.>^s0 g|_2.

    The single modes k = k' with <k> = 1 and <2k> = 2 reach 2^s / 2 = 8, the
    largest ratio of any two single modes; the corpus holds them.
    """
    lat = Lattice(1, 4, 8)
    s, s0 = 4.0, lat.s0
    C = algebra_tame_constant(s, s0)
    assert C == pytest.approx(24.3907, abs=1e-4)
    rng = np.random.default_rng(7)
    for _ in range(20):
        assert algebra_ratio(random_function(lat, rng), random_function(lat, rng), s, s0) <= C
    modes = single_modes(lat, 1)
    ratios = [algebra_ratio(u, v, s, s0) for u in modes for v in modes]
    assert max(ratios) == pytest.approx(2 ** s / 2, abs=1e-12)


def collocation_product(lat, uc, vc):
    """uv by collocation, an independent check of the coefficient convolution.

    The coefficient arrays uc, vc (leading axes: a batch) are summed on a
    (phi, x) grid of 3K+1 points per axis (K = L or J), multiplied pointwise
    and projected back on the box.  A mode of the product, |k| <= 2K, lands
    on the box |k| <= K only if it lies there, so nothing aliases.  The sums
    are explicit exponential matrices, not FFTs.
    """
    axes = [np.arange(-lat.L, lat.L + 1)] * lat.nu + [np.arange(-lat.J, lat.J + 1)]
    synth = [np.exp(2j * np.pi * np.outer(np.arange(3 * k[-1] + 1), k) / (3 * k[-1] + 1))
             for k in axes]

    def each_axis(mats, c):
        for i, m in enumerate(mats):
            ax = c.ndim - len(mats) + i
            c = np.moveaxis(np.tensordot(m, c, axes=(1, ax)), 0, ax)
        return c
    values = each_axis(synth, uc) * each_axis(synth, vc)
    return each_axis([m.conj().T / len(m) for m in synth], values)


@pytest.mark.parametrize("lat", [Lattice(1, 3, 4), Lattice(2, 2, 3)], ids=["nu1", "nu2"])
def test_torus_product_matches_collocation(lat):
    rng = np.random.default_rng(12)
    pairs = [(random_function(lat, rng), random_function(lat, rng)) for _ in range(3)]
    # single modes with each coordinate at -K, 0 or K: products that fall on
    # the box's edges and corners, inside it, or outside it (cut away)
    edge = [(*ell, j) for ell in itertools.product((-lat.L, 0, lat.L), repeat=lat.nu)
            for j in (-lat.J, 0, lat.J)]
    pairs += [(TorusFunction.from_modes(lat, {a: 1.0}), TorusFunction.from_modes(lat, {b: 1.0}))
              for a in edge for b in edge]
    want = collocation_product(lat, np.stack([u.coeffs for u, _ in pairs]),
                               np.stack([v.coeffs for _, v in pairs]))
    got = np.stack([torus_product(u, v).coeffs for u, v in pairs])
    scale = np.maximum(1.0, np.max(np.abs(want), axis=tuple(range(1, want.ndim))))
    err = np.max(np.abs(got - want), axis=tuple(range(1, want.ndim)))
    assert np.all(err <= 1e-12 * scale)
    cut = np.max(np.abs(want), axis=tuple(range(1, want.ndim))) < 1e-12
    assert 0 < np.sum(cut) < len(pairs)


def test_grid_round_trip():
    lat = Lattice(1, 3, 4)
    rng = np.random.default_rng(8)
    u = random_function(lat, rng)
    back = from_grid(to_grid(u, oversample=2), lat)
    assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-12
    xc = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    assert np.max(np.abs(x_from_grid(x_to_grid(xc, 32), 4) - xc)) < 1e-12


def test_json_round_trip():
    lat = Lattice(2, 2, 2)
    rng = np.random.default_rng(9)
    u = random_function(lat, rng)
    # the file format of a v given by path: one [l_1..l_nu, j, re, im] row per mode
    rows = [[*(np.array(idx[:-1]) - lat.L).tolist(), idx[-1] - lat.J, val.real, val.imag]
            for idx, val in np.ndenumerate(u.coeffs)]
    d = {"nu": lat.nu, "L": lat.L, "J": lat.J, "coeffs": rows}
    v = TorusFunction.from_json_dict(d)
    assert v.lattice == lat
    assert np.max(np.abs(v.coeffs - u.coeffs)) < 1e-15


def test_reality_scan():
    lat = Lattice(1, 2, 2)
    rng = np.random.default_rng(10)
    u = random_function(lat, rng)
    assert check_reality(u)
    v = TorusFunction.from_modes(lat, {(1, 1): 1.0})
    assert not check_reality(v)
