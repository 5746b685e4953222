"""Tests of the benchmark's reference computations, against properties.

Nothing here consults the entrate package.  Run with

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import reference as ref


def _random_pair(d_a: int, d_b: int, seed: int):
    rng = np.random.default_rng(seed)
    n = d_a * d_b
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return z / np.linalg.norm(z), (a + a.conj().T) / 2


def _entropy(psi: np.ndarray, d_a: int, d_b: int) -> float:
    s = np.linalg.svd(psi.reshape(d_a, d_b), compute_uv=False)
    p = s[s > 0] ** 2
    return float(-(p * np.log(p)).sum())


def _fd_rate(psi: np.ndarray, h: np.ndarray, d_a: int, d_b: int, step: float) -> float:
    """Richardson central difference of the entropy along exp(-iHt) psi."""
    evals, evecs = np.linalg.eigh(h)
    coeff = evecs.conj().T @ psi

    def s(t: float) -> float:
        return _entropy(evecs @ (np.exp(-1j * evals * t) * coeff), d_a, d_b)

    return (8 * (s(step) - s(-step)) - (s(2 * step) - s(-2 * step))) / (12 * step)


@pytest.mark.parametrize("d_a,d_b,seed", [(2, 2, 0), (2, 3, 1), (3, 4, 2), (4, 2, 3),
                                          (4, 4, 4), (2, 8, 5)])
def test_exact_rate_matches_a_difference_of_the_evolved_entropy(d_a, d_b, seed):
    psi, h = _random_pair(d_a, d_b, seed)
    want = _fd_rate(psi, h, d_a, d_b, 1e-3)
    assert ref.exact_rate(psi, h @ psi, d_a, d_b) == pytest.approx(want, rel=1e-7)


def test_exact_rate_vanishes_for_a_product_state_and_flips_with_h():
    psi, h = _random_pair(3, 3, 6)
    product = np.kron([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]).astype(complex)
    assert ref.exact_rate(product, h @ product, 3, 3) == 0.0
    rate = ref.exact_rate(psi, h @ psi, 3, 3)
    assert ref.exact_rate(psi, -(h @ psi), 3, 3) == pytest.approx(-rate, rel=1e-12)


def test_energy_moments_match_dense_expectations():
    psi, h = _random_pair(3, 3, 7)
    mean, variance = ref.energy_moments(psi, h @ psi)
    assert mean == pytest.approx(np.real(psi.conj() @ h @ psi), rel=1e-12)
    h2 = np.real(psi.conj() @ h @ h @ psi)
    assert variance == pytest.approx(h2 - mean**2, rel=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5, 32, 1000])
def test_gamma_star_is_the_stationary_maximum(d):
    g = ref.gamma_star(d)
    assert 0.5 < g < 1.0
    assert abs(ref.stationarity(g, d)) < 1e-12 * max(1.0, math.log(d))
    peak = ref.gamma_curve(g, d)
    assert ref.gamma_curve(g - 1e-4, d) < peak
    assert ref.gamma_curve(g + 1e-4, d) < peak


@pytest.mark.parametrize("d,gamma", [(2, 0.9), (4, 0.7), (6, 0.3)])
def test_exact_rate_of_the_one_parameter_design_is_the_curve(d, gamma):
    """State (sqrt(g), sqrt((1-g)/(d-1)), ...) under i(|phi><00| - |00><phi|)."""
    n = d * d
    psi = np.zeros(n, dtype=complex)
    phi = np.zeros(n, dtype=complex)
    psi[0] = math.sqrt(gamma)
    for i in range(1, d):
        psi[i * d + i] = math.sqrt((1 - gamma) / (d - 1))
        phi[i * d + i] = 1 / math.sqrt(d - 1)
    e00 = np.zeros(n, dtype=complex)
    e00[0] = 1.0
    h = 1j * (np.outer(phi, e00) - np.outer(e00, phi))
    h_psi = h @ psi
    assert ref.energy_moments(psi, h_psi) == pytest.approx((0.0, 1.0), abs=1e-14)
    rate = ref.exact_rate(psi, h_psi, d, d)
    assert rate == pytest.approx(ref.gamma_curve(gamma, d), rel=1e-12)


@pytest.mark.parametrize("k,d,seed", [(1, 3, 8), (2, 2, 9), (2, 3, 10), (3, 2, 11)])
def test_assembled_ancilla_rate_matches_the_dense_assembled_system(k, d, seed):
    rng = np.random.default_rng(seed)
    c = np.abs(rng.normal(size=(k, d))) + 0.05
    c /= np.linalg.norm(c)
    raw = rng.normal(size=(d, d))
    g = raw - raw.T
    psi = np.zeros(k * d * d * k, dtype=complex)
    for a in range(k):
        for b in range(d):
            psi[((a * d + b) * d + b) * k + a] = c[a, b]
    h_ab = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            h_ab[i * d + i, j * d + j] = 1j * g[i, j]
    h = np.kron(np.eye(k), np.kron(h_ab, np.eye(k)))
    want = _fd_rate(psi, h, k * d, d * k, 1e-3)
    assert ref.assembled_ancilla_rate(c, g) == pytest.approx(want, rel=1e-7)


def test_antisymmetric_from_upper_places_the_upper_triangle():
    g = ref.antisymmetric_from_upper([1.0, 2.0, 3.0], 3)
    assert np.array_equal(g, -g.T)
    assert (g[0, 1], g[0, 2], g[1, 2]) == (1.0, 2.0, 3.0)
