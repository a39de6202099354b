import numpy as np
import pytest

from fastwave.schrodinger import (
    SpectrumError, assemble_lq, decompose_eigenvalues, eigensolve_blocks,
    spectral_power,
)


def xcoeffs(J, entries):
    c = np.zeros(2 * J + 1, dtype=complex)
    for j, v in entries.items():
        c[j + J] = v
    return c


def cos_potential(J, mean=0.0, amp=1.0, wavenumber=1):
    return xcoeffs(J, {0: mean, wavenumber: amp / 2, -wavenumber: amp / 2})


def test_assemble_free():
    M = assemble_lq(xcoeffs(4, {}), 4)
    assert np.allclose(M, np.diag(np.arange(-4, 5) ** 2))


def test_assemble_constant():
    M = assemble_lq(xcoeffs(4, {0: 2.5}), 4)
    assert np.allclose(M, np.diag(np.arange(-4, 5) ** 2 + 2.5))


def test_assemble_hill_tridiagonal():
    # q = 2cos(x): q_hat(+-1) = 1 -> unit off-diagonals (Mathieu/Hill matrix)
    J = 5
    M = assemble_lq(cos_potential(J, amp=2.0), J)
    expect = np.diag(np.arange(-J, J + 1) ** 2).astype(complex)
    expect += np.diag(np.ones(2 * J), 1) + np.diag(np.ones(2 * J), -1)
    assert np.allclose(M, expect)


def test_assemble_rejects_complex_q():
    with pytest.raises(ValueError):
        assemble_lq(xcoeffs(3, {1: 1.0}), 3)


def test_assemble_rejects_wrong_length():
    # q carries exactly the modes |k| <= J of the matrix's cutoff
    for J_q in (5, 7):
        with pytest.raises(ValueError):
            assemble_lq(cos_potential(J_q, amp=2.0), 6)
    with pytest.raises(ValueError):
        assemble_lq(cos_potential(6, amp=2.0)[None, :], 6)


def test_free_spectrum_exact():
    J = 6
    q = xcoeffs(J, {})
    sd = eigensolve_blocks(assemble_lq(q, J), q=q, require_positive=False)
    assert np.allclose(sd.mu_sq, np.arange(-J, J + 1) ** 2)
    # psi_j = e_j exactly (up to the phase convention, which fixes +1)
    assert np.allclose(sd.psi, np.eye(2 * J + 1))


def test_constant_potential_exact():
    J = 5
    sd = eigensolve_blocks(assemble_lq(xcoeffs(J, {0: 3.0}), J), q=xcoeffs(J, {0: 3.0}))
    assert np.allclose(sd.mu_sq, np.arange(-J, J + 1) ** 2 + 3.0)
    assert np.max(np.abs(sd.d)) < 1e-12
    assert sd.q_bar == pytest.approx(3.0)


def test_positivity_guard():
    J = 8
    with pytest.raises(SpectrumError):
        q = cos_potential(J, amp=2.0)
        eigensolve_blocks(assemble_lq(q, J), q=q)


def test_orthonormal_columns_and_conjugation():
    J = 16
    q = cos_potential(J, mean=2.0, amp=2.0)
    sd = eigensolve_blocks(assemble_lq(q, J), q=q)
    G = sd.psi.conj().T @ sd.psi
    assert np.max(np.abs(G - np.eye(2 * J + 1))) < 1e-10
    # K is unitary and block-structured (j couples only to +-j)
    K = sd.conjugation_matrix()
    assert np.max(np.abs(K @ K.conj().T - np.eye(2 * J + 1))) < 1e-10
    for a in range(2 * J + 1):
        for b in range(2 * J + 1):
            if abs(a - J) != abs(b - J) and abs(K[a, b]) > 1e-8:
                raise AssertionError("conjugation couples distinct blocks")


def test_refinement_oracle_hill():
    # d(j) from J=32 agrees with a higher resolution J=128 solve
    q32, q128 = cos_potential(32, amp=2.0), cos_potential(128, amp=2.0)
    sd32 = eigensolve_blocks(assemble_lq(q32, 32), q=q32, require_positive=False)
    sd128 = eigensolve_blocks(assemble_lq(q128, 128), q=q128, require_positive=False)
    for j in range(-16, 17):
        assert abs(sd32.d[sd32.idx(j)] - sd128.d[sd128.idx(j)]) < 1e-8


def test_decompose_partial_sums():
    J = 32
    q = cos_potential(J, amp=2.0)
    sd = eigensolve_blocks(assemble_lq(q, J), q=q, require_positive=False)
    q_bar, d, report = decompose_eigenvalues(sd)
    assert q_bar == pytest.approx(0.0)
    ks = sorted(report)
    sums = [report[k] for k in ks]
    assert sums[0] <= sums[1] <= sums[2]
    # stabilization: J/2 -> J changes the sum by < 0.1% (edge modes only)
    assert sums[2] - sums[1] <= 1e-3 * sums[2]
    # increments shrink monotonically away from the truncation edge
    def psum(k):
        sel = np.abs(sd.js) <= k
        return float(np.sum(d[sel] ** 2))
    incs = [psum(8) - psum(4), psum(16) - psum(8), psum(24) - psum(16)]
    assert incs[0] > incs[1] > incs[2]
    # |d(j)| decays for j beyond the ||q||-dependent threshold
    tail = np.abs(d[sd.idx(8):sd.idx(24) + 1])
    assert np.all(np.diff(tail) <= 1e-12)


def test_decompose_smooth_random_stabilizes():
    rng = np.random.default_rng(11)
    J = 64
    raw = (rng.standard_normal(9) + 1j * rng.standard_normal(9))
    raw = raw * np.maximum(1, np.abs(np.arange(-4, 5))) ** (-4.0)
    raw = 0.5 * (raw + np.conj(raw[::-1]))
    # normalize to ||q||_{H^4} = 1
    w = np.maximum(1, np.abs(np.arange(-4, 5))) ** 4.0
    raw /= np.sqrt(np.sum(w ** 2 * np.abs(raw) ** 2))
    q = xcoeffs(J, {j: raw[j + 4] for j in range(-4, 5)})
    sd = eigensolve_blocks(assemble_lq(q, J), q=q, require_positive=False)
    _, _, report = decompose_eigenvalues(sd)
    ks = sorted(report)
    a, b = report[ks[1]], report[ks[2]]
    assert abs(b - a) <= 1e-4 * max(b, 1e-30)


def test_constant_exact_machine():
    J = 10
    sd = eigensolve_blocks(assemble_lq(xcoeffs(J, {0: 1.0}), J), q=xcoeffs(J, {0: 1.0}))
    assert np.max(np.abs(sd.d)) < 1e-12


def test_gap_pairing_inside_disc():
    # the paired eigenvalues stay within O(||q||) of n^2 (Lemma 3.5(iii) scale)
    J = 32
    q = cos_potential(J, mean=2.0, amp=2.0)
    sd = eigensolve_blocks(assemble_lq(q, J), q=q)
    for n in range(4, 17):
        for j in (n, -n):
            assert abs(sd.mu_sq[sd.idx(j)] - n ** 2 - sd.q_bar) < 3.0


def test_c_bound():
    J = 32
    q = cos_potential(J, mean=2.0, amp=2.0)
    sd = eigensolve_blocks(assemble_lq(q, J), q=q)
    assert np.nanmax(np.abs(sd.c)) <= sd.m_sq + 1e-12


def test_spectral_power_reproduces_matrix():
    J = 8
    q = cos_potential(J, mean=2.0, amp=1.0)
    M = assemble_lq(q, J)
    sd = eigensolve_blocks(M, q=q)
    assert np.max(np.abs(spectral_power(sd, 1.0) - M)) < 1e-10


def test_spectral_power_group_property():
    J = 12
    q = cos_potential(J, mean=2.0, amp=1.0)
    sd = eigensolve_blocks(assemble_lq(q, J), q=q)
    half = spectral_power(sd, 0.5)
    assert np.max(np.abs(half @ half - spectral_power(sd, 1.0))) < 1e-10


def test_spectral_power_inverse_pair():
    J = 12
    q = cos_potential(J, mean=2.0, amp=1.0)
    sd = eigensolve_blocks(assemble_lq(q, J), q=q)
    prod = spectral_power(sd, -0.5) @ spectral_power(sd, 0.5)
    assert np.max(np.abs(prod - np.eye(2 * J + 1))) < 1e-10


def test_serialization():
    J = 6
    q = cos_potential(J, mean=2.0, amp=1.0)
    sd = eigensolve_blocks(assemble_lq(q, J), q=q)
    csv_text = sd.to_csv()
    assert csv_text.splitlines()[0] == "j,mu_sq,d,lambda,c"
    assert len(csv_text.splitlines()) == 2 * J + 2
