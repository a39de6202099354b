import numpy as np
import pytest

from fastwave.harmonics import (
    Lattice, TorusFunction, sobolev_norm, multiply, phi_average,
    to_grid, from_grid, x_to_grid, x_from_grid, xconv,
)


def bracket(ell, j):
    return max(1.0, float(np.linalg.norm(ell)), abs(float(j)))


def sobolev_norm_loop(u, s):
    """Independent oracle: direct double loop over all lattice indices."""
    lat = u.lattice
    total = 0.0
    for ell in lat.ell_range():
        for j in range(-lat.J, lat.J + 1):
            total += bracket(ell, j) ** (2 * s) * abs(u.coeff(ell, j)) ** 2
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
    u = TorusFunction.random(lat, rng)
    for s in [0.0, 1.5, 3.0]:
        assert sobolev_norm(u, s) == pytest.approx(sobolev_norm_loop(u, s), rel=1e-12)


def test_negative_s_rejected():
    lat = Lattice(1, 2, 2)
    u = TorusFunction.zero(lat)
    with pytest.raises(ValueError):
        sobolev_norm(u, -1.0)


def test_multiply_identity():
    lat = Lattice(1, 4, 4)
    rng = np.random.default_rng(1)
    u = TorusFunction.random(lat, rng)
    one = TorusFunction.from_modes(lat, {(0, 0): 1.0}, reality=True)
    w = multiply(u, one)
    assert np.max(np.abs(w.coeffs - u.coeffs)) < 1e-14


def test_multiply_deltas():
    lat = Lattice(1, 3, 8)
    ej = TorusFunction.from_modes(lat, {(0, 2): 1.0})
    ek = TorusFunction.from_modes(lat, {(1, 3): 1.0})
    w = multiply(ej, ek)
    assert w.coeff((1,), 5) == pytest.approx(1.0)
    assert np.sum(np.abs(w.coeffs)) == pytest.approx(1.0)


def test_multiply_matches_collocation():
    # oracle: sample both factors on an oversampled grid, multiply pointwise,
    # re-transform, truncate
    lat = Lattice(1, 3, 5)
    rng = np.random.default_rng(2)
    u = TorusFunction.random(lat, rng)
    v = TorusFunction.random(lat, rng)
    gu, gv = to_grid(u, oversample=3), to_grid(v, oversample=3)
    ref = from_grid(gu * gv, lat)
    w = multiply(u, v)
    assert np.max(np.abs(w.coeffs - ref.coeffs)) < 1e-10


def test_multiply_preserves_reality():
    lat = Lattice(1, 3, 3)
    rng = np.random.default_rng(3)
    u = TorusFunction.random(lat, rng, reality=True)
    v = TorusFunction.random(lat, rng, reality=True)
    w = multiply(u, v)
    assert w.reality and w.check_reality(1e-12)


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


def test_multiply_lattice_mismatch():
    u = TorusFunction.zero(Lattice(1, 2, 2))
    v = TorusFunction.zero(Lattice(1, 2, 3))
    with pytest.raises(ValueError):
        multiply(u, v)


def test_phi_average_zero_slice():
    lat = Lattice(1, 2, 2)
    v = TorusFunction.from_modes(lat, {(1, 1): 1.0, (-1, -1): 1.0})
    avg, flag = phi_average(v)
    assert flag
    assert np.max(np.abs(avg.coeffs)) == 0.0


def test_phi_average_reads_off_slice():
    # v = cos(phi) cos(x) + cos(x) -> average is cos(x)
    lat = Lattice(1, 2, 2)
    v = TorusFunction.from_modes(lat, {
        (1, 1): 0.25, (1, -1): 0.25, (-1, 1): 0.25, (-1, -1): 0.25,
        (0, 1): 0.5, (0, -1): 0.5,
    }, reality=True)
    avg, flag = phi_average(v)
    assert not flag
    assert avg.coeff((0,), 1) == pytest.approx(0.5)
    assert avg.coeff((0,), -1) == pytest.approx(0.5)
    assert avg.coeff((0,), 0) == pytest.approx(0.0)


def test_phi_average_self_consistency():
    lat = Lattice(2, 2, 3)
    rng = np.random.default_rng(4)
    v = TorusFunction.random(lat, rng, reality=True)
    avg, _ = phi_average(v)
    _, flag = phi_average(v - avg)
    assert flag


def test_parseval():
    lat = Lattice(1, 4, 4)
    rng = np.random.default_rng(5)
    u = TorusFunction.random(lat, rng)
    g = to_grid(u, oversample=2)
    mean_sq = np.mean(np.abs(g) ** 2)
    assert mean_sq == pytest.approx(sobolev_norm(u, 0.0) ** 2, rel=1e-10)


def test_norm_monotone_in_s():
    lat = Lattice(1, 3, 3)
    rng = np.random.default_rng(6)
    u = TorusFunction.random(lat, rng)
    norms = [sobolev_norm(u, s) for s in [0.0, 0.5, 1.0, 2.0, 3.5]]
    assert all(a <= b + 1e-14 for a, b in zip(norms, norms[1:]))


def test_algebra_tame_bound():
    # |uv|_s <= C(s) (|u|_s |v|_s0 + |u|_s0 |v|_s), C(s) frozen in calibration
    from fastwave.calibration import CONSTANTS
    lat = Lattice(1, 4, 8)
    s0 = lat.s0
    rng = np.random.default_rng(7)
    C = CONSTANTS["harmonics_algebra_C4"]
    for _ in range(20):
        u = TorusFunction.random(lat, rng)
        v = TorusFunction.random(lat, rng)
        s = 4.0
        lhs = sobolev_norm(multiply(u, v), s)
        rhs = C * (sobolev_norm(u, s) * sobolev_norm(v, s0)
                   + sobolev_norm(u, s0) * sobolev_norm(v, s))
        assert lhs <= rhs


def test_grid_round_trip():
    lat = Lattice(1, 3, 4)
    rng = np.random.default_rng(8)
    u = TorusFunction.random(lat, rng)
    back = from_grid(to_grid(u, oversample=2), lat)
    assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-12
    xc = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    assert np.max(np.abs(x_from_grid(x_to_grid(xc, 32), 4) - xc)) < 1e-12


def test_json_round_trip():
    lat = Lattice(2, 2, 2)
    rng = np.random.default_rng(9)
    u = TorusFunction.random(lat, rng, reality=True)
    d = u.to_json_dict()
    v = TorusFunction.from_json_dict(d)
    assert v.lattice == lat and v.reality
    assert np.max(np.abs(v.coeffs - u.coeffs)) < 1e-15


def test_reality_scan():
    lat = Lattice(1, 2, 2)
    rng = np.random.default_rng(10)
    u = TorusFunction.random(lat, rng, reality=True)
    assert u.check_reality()
    v = TorusFunction.from_modes(lat, {(1, 1): 1.0})
    assert not v.check_reality()
