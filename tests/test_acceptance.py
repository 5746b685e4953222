"""Release gate: every guarantee the package makes, at its stated tolerance.

Each test is one independently checkable claim. Random instances are
seeded, so a failure here reproduces exactly. The whole file is meant to
stay under a couple of minutes; the finite-difference comparison carries
its own explicit runtime budget.
"""

import math
import time

import numpy as np
import pytest

from entrate.ancilla import (
    AncillaCoeffs,
    GBlock,
    ancilla_objective,
    assemble_and_arbitrate,
    lambda_sq,
    recover_g,
    sup_search,
    variance_constraint,
)
from entrate.optimum import (
    brute_force_max_k,
    build_optimal_state,
    max_rate,
    optimal_gamma,
)
from entrate.oracle import direct_stats, fd_rate
from entrate.qcore import PureState, random_hermitian, random_state, schmidt_decompose
from entrate.rate import energy_stats, gamma_rate, mean_energy, schmidt_block

from ancilla_reference import inner_opt_over_g
from hamiltonian_reference import achieving_hamiltonian, build_optimal_hamiltonian


def random_pairs(n, d_lo, d_hi, tag):
    """Seeded stream of (state vector, Hamiltonian) with dims in [d_lo, d_hi]."""
    rng = np.random.default_rng((tag, 0))
    for t in range(n):
        d_a = int(rng.integers(d_lo, d_hi + 1))
        d_b = int(rng.integers(d_lo, d_hi + 1))
        psi = random_state(d_a, d_b, (tag, t, 1))
        h = random_hermitian(d_a * d_b, (tag, t, 2))
        yield psi, h


def haar_unitary(d, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return np.linalg.qr(z)[0]


def test_closed_form_rate_matches_fd_oracle_on_random_pairs():
    started = time.monotonic()
    worst = 0.0
    for psi, h in random_pairs(100, 2, 6, tag=11):
        state = schmidt_decompose(psi)
        closed = gamma_rate(state, schmidt_block(h, state))
        worst = max(worst, abs(closed - fd_rate(psi, h)))
    assert worst < 2e-6
    assert time.monotonic() - started < 30.0


def test_variance_splits_into_nonnegative_parts():
    worst = 0.0
    for psi, h in random_pairs(100, 2, 6, tag=12):
        stats = energy_stats(psi, h, schmidt_decompose(psi))
        gap = stats.variance - stats.variance_real_part - stats.variance_imag_part
        worst = max(worst, abs(gap))
        assert stats.variance_real_part >= -1e-12
        assert stats.variance_imag_part >= -1e-12
    assert worst < 1e-9


def test_block_mean_energy_matches_direct_expectation():
    worst = 0.0
    for psi, h in random_pairs(100, 2, 6, tag=13):
        state = schmidt_decompose(psi)
        block = schmidt_block(h, state)
        direct, _ = direct_stats(psi, h)
        worst = max(worst, abs(mean_energy(state, block) - direct))
    assert worst < 1e-10


def test_unit_budget_maximum_is_attained_and_matches_brute_force():
    rng = np.random.default_rng((14, 0))
    for t in range(50):
        d = int(rng.integers(2, 7))
        psi = random_state(d, d, (14, t, 1))
        state = schmidt_decompose(psi)
        best = max_rate(state)
        assert brute_force_max_k(state) == pytest.approx(best, abs=1e-6)
        h = achieving_hamiltonian(state)
        assert fd_rate(psi, h) == pytest.approx(best, abs=2e-6)
        assert energy_stats(psi, h, state).variance_imag_part == pytest.approx(
            1.0, abs=1e-8
        )


def test_two_level_optimum_constants_against_inline_grid_oracle():
    # oracle recomputed from scratch: variance of the surprisal of
    # p = (gamma, 1 - gamma), raw moment form, dense grid plus golden
    # refinement; the dominant weight carries gamma, so search [1/2, 1)
    def plain_rate(g):
        p = np.array([g, 1.0 - g])
        logs = np.log(p)
        f = float(p @ logs**2) - float(p @ logs) ** 2
        return 2.0 * math.sqrt(max(f, 0.0))

    grid = np.linspace(0.5, 1.0 - 1e-9, 200_001)
    values = [plain_rate(g) for g in grid]
    lo, hi = grid[max(int(np.argmax(values)) - 1, 0)], grid[
        min(int(np.argmax(values)) + 1, grid.size - 1)
    ]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo + (1 - ratio) * (hi - lo), lo + ratio * (hi - lo)
    fa, fb = plain_rate(a), plain_rate(b)
    for _ in range(120):
        if fa < fb:
            lo, a, fa = a, b, fb
            b = lo + ratio * (hi - lo)
            fb = plain_rate(b)
        else:
            hi, b, fb = b, a, fa
            a = lo + (1 - ratio) * (hi - lo)
            fa = plain_rate(a)
    gamma_oracle = 0.5 * (lo + hi)
    rate_oracle = plain_rate(gamma_oracle)

    found = optimal_gamma(2)
    assert found.gamma == pytest.approx(gamma_oracle, abs=1e-6)
    assert found.rate == pytest.approx(rate_oracle, abs=1e-6)
    assert found.rate == pytest.approx(1.3255, abs=1e-3)
    assert found.rate / math.log(2) == pytest.approx(1.9123, abs=2e-3)
    assert found.gamma == pytest.approx(0.9168, abs=1e-3)


@pytest.mark.parametrize("d", [3, 32])
def test_optimal_gamma_maximizes_the_family_rate_by_direct_search(d):
    # oracle independent of the stationarity condition: the surprisal
    # variance of p = (gamma, (1 - gamma)/(d - 1) x (d - 1)), maximized by
    # a dense grid on [1/2, 1) plus golden refinement of the best cell
    def family_rate(g):
        g = np.asarray(g, dtype=float)
        l1, l2 = np.log(g), np.log((1.0 - g) / (d - 1))
        mean = g * l1 + (1.0 - g) * l2
        f = g * (l1 - mean) ** 2 + (1.0 - g) * (l2 - mean) ** 2
        return 2.0 * np.sqrt(f)

    grid = np.linspace(0.5, 1.0 - 1e-9, 200_001)
    best = int(np.argmax(family_rate(grid)))
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo + (1 - ratio) * (hi - lo), lo + ratio * (hi - lo)
    fa, fb = family_rate(a), family_rate(b)
    for _ in range(120):
        if fa < fb:
            lo, a, fa = a, b, fb
            b = lo + ratio * (hi - lo)
            fb = family_rate(b)
        else:
            hi, b, fb = b, a, fa
            a = lo + (1 - ratio) * (hi - lo)
            fa = family_rate(a)
    gamma_oracle = 0.5 * (lo + hi)

    found = optimal_gamma(d)
    assert found.gamma == pytest.approx(gamma_oracle, abs=1e-6)
    assert found.rate == pytest.approx(float(family_rate(gamma_oracle)), abs=1e-12)


def test_rate_scales_linearly_while_mean_energy_stays_put():
    # adding (s-1) times the paired antisymmetric piece multiplies the
    # imaginary block by s and leaves the diagonal real part untouched
    for t in range(5):
        psi = random_state(3, 3, (16, t, 1))
        h = random_hermitian(9, (16, t, 2))
        state = schmidt_decompose(psi)
        block = schmidt_block(h, state)
        d = state.coefficients.size
        paired = [
            np.kron(state.basis_a[:, i], state.basis_b[:, i]) for i in range(d)
        ]
        bump = np.zeros_like(h)
        for i in range(d):
            for j in range(i + 1, d):
                cross = np.outer(paired[i], paired[j].conj())
                bump = bump + 1j * block.imag[i, j] * (cross - cross.conj().T)
        base = gamma_rate(state, block)
        assert abs(base) > 1e-3
        mean0 = direct_stats(psi, h)[0]
        for s in (10.0, 100.0):
            h_s = h + (s - 1.0) * bump
            scaled = gamma_rate(state, schmidt_block(h_s, state))
            assert abs(scaled / (s * base) - 1.0) < 1e-9
            assert abs(direct_stats(psi, h_s)[0] - mean0) < 1e-10


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
def test_mean_energy_does_not_bound_the_rate_but_variance_does(eps):
    # psi = sqrt(1-eps)|00> + sqrt(eps)|11> and H = lam |v><v| with
    # v = sqrt(eps)|00> + i sqrt(1-eps)|11> and lam = 1/(2 eps (1-eps)):
    # H >= 0 and <H> = 1 all along the family, yet the rate
    # log((1-eps)/eps) grows without bound.  The variance lam - 1 grows
    # faster, so the rate per unit of Delta H stays below f(2).
    psi = PureState(2, 2, np.array([math.sqrt(1 - eps), 0, 0, math.sqrt(eps)], dtype=complex))
    v = np.array([math.sqrt(eps), 0, 0, 1j * math.sqrt(1 - eps)])
    lam = 1 / (2 * eps * (1 - eps))
    h = lam * np.outer(v, v.conj())
    state = schmidt_decompose(psi)
    rate = gamma_rate(state, schmidt_block(h, state))
    assert rate == pytest.approx(math.log((1 - eps) / eps), rel=2e-15, abs=0)
    assert fd_rate(psi, h) == pytest.approx(rate, rel=1e-9, abs=0)
    stats = energy_stats(psi, h, state)
    assert stats.mean == pytest.approx(1.0, rel=2e-15, abs=0)
    assert stats.variance == pytest.approx(lam - 1, rel=2e-15, abs=0)
    assert rate / math.sqrt(stats.variance) < optimal_gamma(2).rate


def test_rate_is_invariant_under_local_unitaries():
    rng = np.random.default_rng((17, 0))
    worst = 0.0
    for t in range(50):
        d_a = int(rng.integers(2, 5))
        d_b = int(rng.integers(2, 5))
        psi = random_state(d_a, d_b, (17, t, 1))
        h = random_hermitian(d_a * d_b, (17, t, 2))
        state = schmidt_decompose(psi)
        base = gamma_rate(state, schmidt_block(h, state))
        u = np.kron(haar_unitary(d_a, (17, t, 3)), haar_unitary(d_b, (17, t, 4)))
        psi2 = PureState(d_a=d_a, d_b=d_b, amplitudes=u @ psi.amplitudes)
        h2 = u @ h @ u.conj().T
        state2 = schmidt_decompose(psi2)
        worst = max(worst, abs(base - gamma_rate(state2, schmidt_block(h2, state2))))
    assert worst < 1e-9


def test_ancilla_index_sums_equal_trace_forms():
    shapes = [(1, 2), (2, 2), (2, 3), (3, 3)]
    worst_obj = 0.0
    worst_cons = 0.0
    for t in range(100):
        ka, d = shapes[t % len(shapes)]
        rng = np.random.default_rng((18, t))
        coeffs = AncillaCoeffs.normalized(np.abs(rng.normal(size=(ka, d))) + 0.05)
        raw = rng.normal(size=(d, d))
        g = GBlock.from_matrix(raw - raw.T)
        c, g_mat = coeffs.c, g.g
        obj = 0.0
        for a in range(ka):
            for b in range(d):
                for e in range(d):
                    if c[a, b] > 0 and c[a, e] > 0:
                        obj += (
                            2.0
                            * c[a, b]
                            * c[a, e]
                            * math.log(c[a, b] / c[a, e])
                            * g_mat[e, b]
                        )
        cons = sum(
            float(np.dot(c[a], g_mat[:, j])) ** 2
            for a in range(ka)
            for j in range(d)
        )
        worst_obj = max(worst_obj, abs(ancilla_objective(coeffs, g) - obj))
        worst_cons = max(worst_cons, abs(variance_constraint(coeffs, g) - cons))
    assert worst_obj < 1e-12
    assert worst_cons < 1e-12


def test_single_row_embedding_reproduces_no_ancilla_values():
    row = AncillaCoeffs(c=np.array([[math.sqrt(0.9), math.sqrt(0.1)]]))
    value, _ = inner_opt_over_g(row)
    assert value == pytest.approx(1.31834, abs=1e-5)
    assert sup_search(2, 1, starts=6, seed=0).value == pytest.approx(
        optimal_gamma(2).rate, abs=1e-4
    )


def test_fixed_coefficient_closed_form_matches_ascent_and_recovery():
    for t in range(20):
        d = 2 if t % 2 == 0 else 3
        rng = np.random.default_rng((20, t))
        coeffs = AncillaCoeffs.normalized(np.abs(rng.normal(size=(d, d))) + 0.2)
        lam1 = math.sqrt(lambda_sq(coeffs, 0.0))
        assert lam1 > 1e-3
        value, _ = inner_opt_over_g(coeffs)
        assert value == pytest.approx(2.0 * lam1, abs=1e-4)
        block = recover_g(coeffs, 0.0)
        assert variance_constraint(coeffs, block) == pytest.approx(1.0, abs=1e-6)
        assert ancilla_objective(coeffs, block) == pytest.approx(
            2.0 * lam1, abs=1e-6
        )


def test_assembled_dynamics_arbitrate_the_ancilla_objective():
    shapes = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (4, 4), (1, 4)]
    worst = 0.0
    for t in range(20):
        ka, d = shapes[t % len(shapes)]
        rng = np.random.default_rng((21, t))
        coeffs = AncillaCoeffs.normalized(np.abs(rng.normal(size=(ka, d))) + 0.05)
        raw = rng.normal(size=(d, d))
        g = GBlock.from_matrix(raw - raw.T)
        worst = max(
            worst, abs(assemble_and_arbitrate(coeffs, g) - ancilla_objective(coeffs, g))
        )
    assert worst < 2e-6


def test_enlarging_the_ancilla_never_lowers_the_supremum():
    for d in (2, 3):
        with_anc = sup_search(d, 2, starts=6, seed=0).value
        without = sup_search(d, 1, starts=6, seed=0).value
        assert with_anc >= without - 1e-6


@pytest.mark.parametrize("k, d", [(1, 3), (2, 2), (2, 5), (3, 2), (4, 4)])
def test_ancilla_family_never_beats_the_optimum_without_ancillas(k, d):
    # The proof in entrate.ancilla's docstring: rate <= f(d) Delta H for
    # every (C, G) of the family, with equality at rank-one C = u c*^T and
    # the generator of the no-ancilla optimum.  Checked at random G and at
    # each C's own maximizer, which comes closest.
    f = optimal_gamma(d).rate
    rng = np.random.default_rng((k, d, 70))
    coeffs = AncillaCoeffs.normalized(np.abs(rng.normal(size=(30, k, d))))
    raw = rng.normal(size=(30, d, d))
    best = np.stack([recover_g(AncillaCoeffs(c=c), 1e-12).upper for c in coeffs.c])
    for g in (GBlock.from_matrix(raw - raw.swapaxes(-1, -2)), GBlock(upper=best, d=d)):
        assert (ancilla_objective(coeffs, g) < f * np.sqrt(variance_constraint(coeffs, g))).all()
    optimum = build_optimal_state(optimal_gamma(d).gamma, d)
    generator = GBlock.from_matrix(schmidt_block(build_optimal_hamiltonian(d), optimum).imag)
    u = np.abs(rng.normal(size=k))
    rank_one = AncillaCoeffs(c=np.outer(u / np.linalg.norm(u), optimum.coefficients))
    value = ancilla_objective(rank_one, generator)
    assert value == pytest.approx(
        f * math.sqrt(variance_constraint(rank_one, generator)), rel=1e-12, abs=0)
