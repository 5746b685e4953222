"""No-ancilla optimizers: the optimal k, gamma family, oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from entrate.oracle import fd_rate
from entrate.qcore import (
    PureState,
    SchmidtState,
    ValidationError,
    assemble_state,
    random_state,
    schmidt_decompose,
)
from entrate.optimum import (
    _optimal_k,
    brute_force_max_k,
    build_optimal_state,
    gamma_curve,
    max_rate,
    optimal_gamma,
    optimal_hamiltonian_entries,
    surprisal_variance,
)
from entrate.rate import energy_stats, gamma_rate, gamma_rate_k, schmidt_block

from hamiltonian_reference import achieving_hamiltonian, build_optimal_hamiltonian

seeds = st.integers(min_value=0, max_value=2**32 - 1)
WORKED_RATE = 1.3183347464017314
GAMMA2 = (0.9167782798004823, 1.3254868386983631)


def haar_unitary(d, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]


def identity_schmidt(c) -> SchmidtState:
    c = np.asarray(c, dtype=float)
    eye = np.eye(c.size, dtype=complex)
    return SchmidtState(coefficients=c, d_a=c.size, d_b=c.size,
                        basis_a=eye, basis_b=eye)


class TestSurprisalVariance:
    def test_uniform(self):
        assert surprisal_variance(np.full(5, 0.2)) == pytest.approx(0.0, abs=1e-15)

    def test_degenerate(self):
        assert surprisal_variance(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_two_level_value(self):
        assert surprisal_variance(np.array([0.9, 0.1])) == pytest.approx(
            0.4345016258925294, abs=1e-14
        )

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            surprisal_variance(np.array([1.1, -0.1]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            surprisal_variance(np.array([0.5, 0.4]))

    @pytest.mark.parametrize("p", [[math.nan, 1.0], [math.nan], [0.5, math.nan, 0.5]])
    def test_rejects_nan(self, p):
        with pytest.raises(ValidationError):
            surprisal_variance(np.array(p))

    @given(seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_two_variance_expressions_agree(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(5))
        logs = np.log(np.clip(p, 1e-300, None))
        raw = float(p @ logs**2) - float(p @ logs) ** 2
        assert surprisal_variance(p) == pytest.approx(raw, abs=1e-12)


class TestLagrangeSolve:
    """The projection k solves the Lagrange system of the fixed-state problem."""

    def test_uniform_is_degenerate(self):
        state = identity_schmidt([0.5] * 4)
        assert np.array_equal(_optimal_k(state.coefficients), np.zeros(4))
        assert brute_force_max_k(state) == 0.0

    def test_worked_value(self):
        state = identity_schmidt([math.sqrt(0.9), math.sqrt(0.1)])
        k = _optimal_k(state.coefficients)
        assert gamma_rate_k(state, k) == pytest.approx(WORKED_RATE, abs=1e-12)

    @given(seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_constraints_and_stationarity(self, seed):
        state = schmidt_decompose(random_state(4, 4, seed))
        c = state.coefficients
        k = _optimal_k(c)
        assert float(k @ k) == pytest.approx(1.0, abs=1e-10)
        assert abs(float(c @ k)) < 1e-10
        # stationarity: C_i log C_i - 2 l1 k_i - l2 C_i = 0 on the support,
        # with l2 the C^2-weighted mean of log C and l1 the negative root
        # that normalizes k
        mask = c > 0
        logs = np.log(c[mask])
        lambda2 = float(c[mask] ** 2 @ logs)
        lambda1 = -0.5 * math.sqrt(float(c[mask] ** 2 @ (logs - lambda2) ** 2))
        resid = c[mask] * logs - 2.0 * lambda1 * k[mask] - lambda2 * c[mask]
        assert np.max(np.abs(resid)) < 1e-9

    def test_matches_surprisal_form(self):
        state = schmidt_decompose(random_state(5, 5, 12))
        k = _optimal_k(state.coefficients)
        assert gamma_rate_k(state, k) == pytest.approx(max_rate(state), abs=1e-10)


class TestMaxRate:
    def test_maximally_entangled(self):
        assert max_rate(identity_schmidt([1 / math.sqrt(2)] * 2)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_product_state(self):
        assert max_rate(identity_schmidt([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_worked_value(self):
        state = identity_schmidt([math.sqrt(0.9), math.sqrt(0.1)])
        assert max_rate(state) == pytest.approx(WORKED_RATE, abs=1e-13)


class TestOptimalFamily:
    def test_uniform_at_gamma_one_over_d(self):
        state = build_optimal_state(1 / 3, 3)
        assert state.coefficients == pytest.approx([1 / math.sqrt(3)] * 3, abs=1e-12)

    def test_direct_construction(self):
        state = build_optimal_state(0.9, 2)
        assert state.coefficients == pytest.approx(
            [math.sqrt(0.9), math.sqrt(0.1)], abs=1e-14
        )

    def test_normalization(self):
        c = build_optimal_state(0.37, 5).coefficients
        assert float(c @ c) == pytest.approx(1.0, abs=1e-12)

    def test_gamma_range_enforced(self):
        with pytest.raises(ValidationError):
            build_optimal_state(1.0, 2)
        with pytest.raises(ValidationError):
            build_optimal_state(0.0, 2)

    def test_hamiltonian_structure_d2(self):
        h = build_optimal_hamiltonian(2)
        expected = np.zeros((4, 4), dtype=complex)
        expected[3, 0] = 1j
        expected[0, 3] = -1j
        assert h == pytest.approx(expected, abs=1e-12)

    def test_hamiltonian_hermitian_traceless(self):
        for d in (2, 3, 4):
            h = build_optimal_hamiltonian(d)
            assert np.max(np.abs(h - h.conj().T)) < 1e-14
            assert abs(np.trace(h)) < 1e-14

    @pytest.mark.parametrize("d", [2, 3, 32])
    def test_hamiltonian_bits_equal_outer_product_formula(self, d):
        n = d * d
        phi = np.zeros(n, dtype=complex)
        for i in range(1, d):
            phi[i * d + i] = 1.0 / math.sqrt(d - 1)
        e00 = np.zeros(n, dtype=complex)
        e00[0] = 1.0
        reference = 1j * (np.outer(phi, e00.conj()) - np.outer(e00, phi.conj()))
        h = build_optimal_hamiltonian(d)
        assert h.dtype == complex and h.shape == (n, n)
        assert np.array_equal(h.view(np.uint64), reference.view(np.uint64))

    @pytest.mark.parametrize("d", [2, 3, 32])
    def test_entries_ascend_and_scatter_to_the_hamiltonian(self, d):
        index, values = optimal_hamiltonian_entries(d)
        assert index.size == values.size == 2 * (d - 1)
        assert np.all(np.diff(index) > 0)
        assert values.dtype == complex and np.all(values.view(np.uint64).reshape(-1, 2).any(1))
        h = np.zeros((d * d, d * d), dtype=complex)
        h.reshape(-1)[index] = values
        assert np.array_equal(h.view(np.uint64), build_optimal_hamiltonian(d).view(np.uint64))

    def test_unit_variance_at_paired_state(self):
        for d in (2, 3, 4):
            gamma = optimal_gamma(d).gamma
            psi = assemble_state(build_optimal_state(gamma, d))
            h = build_optimal_hamiltonian(d)
            stats = energy_stats(psi, h, schmidt_decompose(psi))
            assert stats.variance == pytest.approx(1.0, abs=1e-10)

    def test_block_sign_convention(self):
        # first column of M_I positive so the rate at the paired state is +
        h = build_optimal_hamiltonian(3)
        state = build_optimal_state(optimal_gamma(3).gamma, 3)
        m_i = schmidt_block(h, state).imag
        assert m_i[1, 0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert m_i[0, 1] == pytest.approx(-1 / math.sqrt(2), abs=1e-12)


class TestOptimalGamma:
    def test_d2_values(self):
        gamma, rate = optimal_gamma(2)
        assert gamma == pytest.approx(GAMMA2[0], abs=1e-9)
        assert rate == pytest.approx(GAMMA2[1], abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 32, 10_000])
    def test_root_of_stationarity_to_one_ulp(self, d):
        def residual(g):
            return (2.0 * g - 1.0) * math.log(g * (d - 1) / (1.0 - g)) - 2.0

        gamma = optimal_gamma(d).gamma
        below = residual(math.nextafter(gamma, 0.0))
        above = residual(math.nextafter(gamma, 1.0))
        assert (below <= 0.0 <= above) or abs(residual(gamma)) <= 1e-14

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 1.5, -0.5, math.nan])
    def test_curve_rejects_a_weight_outside_the_open_interval(self, gamma):
        # The message of build_optimal_state, for the same family.
        with pytest.raises(ValidationError, match=r"gamma must lie in \(0, 1\)"):
            gamma_curve(gamma, 3)
        with pytest.raises(ValidationError, match=r"gamma must lie in \(0, 1\)"):
            gamma_curve(np.array([0.5, gamma]), 3)

    def test_symmetric_point_is_zero(self):
        assert max_rate(build_optimal_state(0.5, 2)) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_dimension(self):
        rates = [optimal_gamma(d).rate for d in range(2, 9)]
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_consistent_with_state_family(self):
        for d in (2, 3, 5):
            gamma, rate = optimal_gamma(d)
            assert rate == pytest.approx(
                max_rate(build_optimal_state(gamma, d)), abs=1e-8
            )

    def test_global_over_simplex(self):
        # random-restart ascent over all rank-<=d spectra must not beat
        # the one-parameter family
        for d in (2, 3, 4):
            reference = optimal_gamma(d).rate
            best = -np.inf
            for trial in range(10):
                rng = np.random.default_rng((d, trial))

                def neg(x):
                    w = np.exp(x - x.max())
                    return -2.0 * math.sqrt(surprisal_variance(w / w.sum()))

                res = minimize(
                    neg,
                    rng.normal(size=d),
                    method="Nelder-Mead",
                    options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000,
                             "maxfev": 40000},
                )
                best = max(best, -res.fun)
            assert best == pytest.approx(reference, abs=1e-6)


class TestBruteForce:
    def test_uniform_stays_zero(self):
        state = identity_schmidt([0.5] * 4)
        assert brute_force_max_k(state) == pytest.approx(0.0, abs=1e-8)

    def test_worked_value(self):
        state = identity_schmidt([math.sqrt(0.9), math.sqrt(0.1)])
        assert brute_force_max_k(state) == pytest.approx(WORKED_RATE, abs=1e-6)

    def test_matches_closed_form_d5(self):
        state = schmidt_decompose(random_state(5, 5, 44))
        assert brute_force_max_k(state) == pytest.approx(
            max_rate(state), abs=1e-6
        )

    def test_deterministic(self):
        state = schmidt_decompose(random_state(4, 4, 9))
        assert brute_force_max_k(state) == brute_force_max_k(state)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_projection_is_exact(self, d):
        for seed in range(3):
            state = schmidt_decompose(random_state(d, d, (d, seed, 45)))
            assert brute_force_max_k(state) == pytest.approx(
                max_rate(state), abs=1e-12
            )

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_equal_weights_read_zero(self, d):
        # [0.5] * 4 sums to exactly 1; 1/sqrt(d) for these d does not, so
        # the projection is rounding noise lying along C itself
        state = identity_schmidt([1.0 / math.sqrt(d)] * d)
        assert brute_force_max_k(state) == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("d", [2, 3])
    def test_maximally_entangled_state_reads_zero(self, d):
        amps = np.zeros(d * d, dtype=complex)
        amps[:: d + 1] = 1.0 / math.sqrt(d)
        state = schmidt_decompose(PureState(d_a=d, d_b=d, amplitudes=amps))
        assert brute_force_max_k(state) == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("spread", [1e-4, 1e-8, 1e-12])
    def test_near_equal_weights_stay_exact(self, spread):
        rng = np.random.default_rng(46)
        for d in range(2, 9):
            c = 1.0 + spread * rng.normal(size=d)
            state = identity_schmidt(np.sort(c / np.linalg.norm(c))[::-1])
            assert brute_force_max_k(state) == pytest.approx(
                max_rate(state), abs=1e-12
            )


class TestAchievingHamiltonian:
    def test_antisymmetric_solve_properties(self):
        state = schmidt_decompose(random_state(4, 4, 21))
        m = schmidt_block(achieving_hamiltonian(state), state).imag
        k = _optimal_k(state.coefficients)
        assert np.max(np.abs(m + m.T)) < 1e-14
        assert m @ state.coefficients == pytest.approx(k, abs=1e-12)

    def test_antisymmetric_solve_is_minimal_norm(self):
        # compare the block of the achieving Hamiltonian against the
        # explicit least-squares solution of M C = k over the
        # strict-upper-triangle parameterization
        state = schmidt_decompose(random_state(4, 4, 22))
        c, k, d = state.coefficients, _optimal_k(state.coefficients), 4
        iu = np.triu_indices(d, 1)
        n_par = len(iu[0])
        a_lin = np.zeros((d, n_par))
        for col, (i, j) in enumerate(zip(*iu)):
            a_lin[i, col] = c[j]
            a_lin[j, col] = -c[i]
        x, *_ = np.linalg.lstsq(a_lin, k, rcond=None)
        m_ls = np.zeros((d, d))
        m_ls[iu] = x
        m_ls = m_ls - m_ls.T
        m = schmidt_block(achieving_hamiltonian(state), state).imag
        assert m == pytest.approx(m_ls, abs=1e-10)

    def test_attains_max_rate_with_unit_imag_variance(self):
        psi = random_state(3, 3, 23)
        state = schmidt_decompose(psi)
        h = achieving_hamiltonian(state)
        assert fd_rate(psi, h) == pytest.approx(max_rate(state), abs=1e-8)
        stats = energy_stats(psi, h, state)
        assert stats.variance_imag_part == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("d", [2, 3, 7, 32])
    def test_equals_the_design_at_the_optimal_state(self, d):
        # The package's one formula, optimal_hamiltonian_entries, against the
        # rank-2 Hamiltonian that attains max_rate at the same state.
        state = build_optimal_state(optimal_gamma(d).gamma, d)
        gap = achieving_hamiltonian(state) - build_optimal_hamiltonian(d)
        assert np.max(np.abs(gap)) <= 2.2e-16

    def test_degenerate_state_gets_zero_hamiltonian(self):
        state = identity_schmidt([0.5] * 4)
        h = achieving_hamiltonian(state)
        assert np.max(np.abs(h)) == 0.0

    @pytest.mark.parametrize(
        "d_a, d_b, c",
        [
            (2, 5, [0.8, 0.6]),  # d_a != d_b
            (4, 2, [0.8, 0.6]),
            (3, 4, [0.8, 0.6, 0.0]),  # rank-deficient
            (3, 3, [0.8, math.sqrt(0.36 - 1e-8), 1e-4]),  # C_min = 1e-4
            (2, 2, [math.sqrt(1 - 1e-12), 1e-6]),  # C = (1, 1e-6)
            (2, 2, [math.sqrt(1 - 1e-16), 1e-8]),  # C = (1, 1e-8)
        ],
    )
    def test_attains_max_rate_across_shapes(self, d_a, d_b, c):
        basis_a = haar_unitary(d_a, (d_a, d_b, 24))
        basis_b = haar_unitary(d_b, (d_a, d_b, 25))
        state = SchmidtState(coefficients=np.array(c), d_a=d_a, d_b=d_b,
                             basis_a=basis_a, basis_b=basis_b)
        psi = assemble_state(state)
        h = achieving_hamiltonian(state)
        best = max_rate(state)
        assert gamma_rate(state, schmidt_block(h, state)) == pytest.approx(
            best, rel=1e-12
        )
        stats = energy_stats(psi, h, schmidt_decompose(psi))
        assert stats.variance == pytest.approx(1.0, abs=1e-12)
        assert fd_rate(psi, h) == pytest.approx(best, rel=1e-7)


class TestOptimalDesign:
    def test_bundle_consistency(self):
        gamma, rate = optimal_gamma(3)
        state = build_optimal_state(gamma, 3)
        assert max_rate(state) == pytest.approx(rate, abs=1e-12)
        assert state.coefficients[0] == pytest.approx(math.sqrt(gamma), abs=1e-12)

    def test_design_rate_is_attained(self):
        gamma, rate = optimal_gamma(2)
        psi = assemble_state(build_optimal_state(gamma, 2))
        state = schmidt_decompose(psi)
        got = gamma_rate(state, schmidt_block(build_optimal_hamiltonian(2), state))
        assert got == pytest.approx(rate, abs=1e-10)
