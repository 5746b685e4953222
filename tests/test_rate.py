"""Closed-form rate, Schmidt blocks, and the energy-variance split."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrate.oracle import direct_stats, fd_rate
from entrate.qcore import (
    HERM_TOL,
    PureState,
    SchmidtState,
    ValidationError,
    hermiticity_defect,
    random_hermitian,
    random_state,
    schmidt_decompose,
)
from entrate.optimum import max_rate
from entrate.rate import (
    EnergyStats,
    energy_stats,
    gamma_rate,
    gamma_rate_k,
    mean_energy,
    schmidt_block,
    schmidt_columns,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def schmidt_rotation(state: SchmidtState) -> np.ndarray:
    """Reference: the n x n unitary basis_a (x) basis_b, columns the Schmidt products."""
    return np.kron(state.basis_a, state.basis_b)


def identity_schmidt(c) -> SchmidtState:
    c = np.asarray(c, dtype=float)
    d = c.size
    eye = np.eye(d, dtype=complex)
    return SchmidtState(coefficients=c, d_a=d, d_b=d, basis_a=eye, basis_b=eye)


def worked_example():
    """C = (sqrt .9, sqrt .1) with M_I = [[0, -1], [1, 0]]; rate 1.31833..."""
    state = identity_schmidt([math.sqrt(0.9), math.sqrt(0.1)])
    block = 1j * np.array([[0.0, -1.0], [1.0, 0.0]])
    return state, block


WORKED_RATE = 1.3183347464017314


def assert_plus_zero(x):
    assert x == 0.0 and math.copysign(1.0, x) == 1.0


class TestSchmidtBlock:
    def test_readout_matches_direct_elements(self):
        psi = random_state(3, 3, 17)
        state = schmidt_decompose(psi)
        h = random_hermitian(9, 18)
        block = schmidt_block(h, state)
        for i in range(3):
            vi = np.kron(state.basis_a[:, i], state.basis_b[:, i])
            for j in range(3):
                vj = np.kron(state.basis_a[:, j], state.basis_b[:, j])
                assert block[i, j] == pytest.approx(
                    complex(vi.conj() @ h @ vj), abs=1e-12
                )
        # schmidt_block does not check what V^H H V inherits from H: the
        # block is Hermitian by qcore's rule at any scale of H.
        for scale in (1e-4, 1.0, 1e10):
            m = schmidt_block(scale * h, state)
            assert hermiticity_defect(m) <= HERM_TOL * np.abs(m).max()

    def test_antisymmetric_generator_block(self):
        state = identity_schmidt([math.sqrt(0.9), math.sqrt(0.1)])
        h = np.zeros((4, 4), dtype=complex)
        h[0, 3] = 1j
        h[3, 0] = -1j
        block = schmidt_block(h, state)
        assert block.imag == pytest.approx(np.array([[0.0, 1.0], [-1.0, 0.0]]), abs=1e-14)

    def test_off_diagonal_support_reads_zero(self):
        state = identity_schmidt([math.sqrt(0.9), math.sqrt(0.1)])
        h = np.zeros((4, 4), dtype=complex)
        h[1, 2] = h[2, 1] = 1.0
        assert np.max(np.abs(schmidt_block(h, state))) == 0.0

    def test_real_hamiltonian_has_no_imag_block(self):
        state = identity_schmidt([math.sqrt(0.7), math.sqrt(0.3)])
        h = random_hermitian(4, 3).real.astype(complex)
        assert np.max(np.abs(schmidt_block(h, state).imag)) < 1e-14


class TestGammaRate:
    def test_uniform_coefficients_give_zero(self):
        state = identity_schmidt([1 / math.sqrt(2)] * 2)
        _, block = worked_example()
        assert_plus_zero(gamma_rate(state, block))

    def test_zero_imag_block_gives_zero(self):
        state, _ = worked_example()
        block = np.array([[1.0, 0.5], [0.5, -2.0]], dtype=complex)
        assert_plus_zero(gamma_rate(state, block))

    def test_worked_value(self):
        state, block = worked_example()
        assert gamma_rate(state, block) == pytest.approx(WORKED_RATE, abs=1e-14)

    def test_zero_coefficient_terms_dropped(self):
        state = identity_schmidt([1.0, 0.0])
        _, block = worked_example()
        assert_plus_zero(gamma_rate(state, block))

    def test_antisymmetry_under_negation(self):
        state, block = worked_example()
        assert gamma_rate(state, -block) == -gamma_rate(state, block)

    @given(
        a=st.floats(-3, 3, allow_nan=False),
        b=st.floats(-3, 3, allow_nan=False),
        seed=seeds,
    )
    @settings(max_examples=30, deadline=None)
    def test_linearity_in_the_block(self, a, b, seed):
        state = schmidt_decompose(random_state(3, 3, seed))
        m1 = random_hermitian(3, (seed, 1))
        m2 = random_hermitian(3, (seed, 2))
        expected = a * gamma_rate(state, m1) + b * gamma_rate(state, m2)
        assert gamma_rate(state, a * m1 + b * m2) == pytest.approx(expected, abs=1e-10)


class TestGammaRateK:
    def test_zero_k(self):
        state, _ = worked_example()
        assert_plus_zero(gamma_rate_k(state, np.zeros(2)))

    def test_matches_gamma_rate_through_k(self):
        state, block = worked_example()
        k = block.imag @ state.coefficients
        assert gamma_rate_k(state, k) == pytest.approx(
            gamma_rate(state, block), abs=1e-12
        )

    def test_uniform_state_zero_for_orthogonal_k(self):
        state = identity_schmidt([0.5] * 4)
        k = np.array([1.0, -1.0, 1.0, -1.0])  # sum C k = 0
        assert gamma_rate_k(state, k) == pytest.approx(0.0, abs=1e-15)

    def test_length_mismatch(self):
        state, _ = worked_example()
        with pytest.raises(ValidationError):
            gamma_rate_k(state, np.zeros(3))


class TestMeanEnergy:
    def test_zero_real_block(self):
        state, block = worked_example()
        assert mean_energy(state, block) == pytest.approx(0.0, abs=1e-15)

    def test_single_basis_state(self):
        state = identity_schmidt([1.0, 0.0])
        block = np.array([[3.0, 0.0], [0.0, -7.0]], dtype=complex)
        assert mean_energy(state, block) == pytest.approx(3.0, abs=1e-14)

    @given(seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_matches_direct_expectation(self, seed):
        psi = random_state(2, 3, seed)
        h = random_hermitian(6, (seed, 1))
        state = schmidt_decompose(psi)
        block = schmidt_block(h, state)
        direct = float(np.real(psi.amplitudes.conj() @ h @ psi.amplitudes))
        assert mean_energy(state, block) == pytest.approx(direct, abs=1e-10)


class TestBlockArrays:
    """gamma_rate and mean_energy take M as any array of shape (..., d, d)."""

    REAL = [[1.0, 0.5], [0.5, -2.0]]
    IMAG = [[0.0, -1.0], [1.0, 0.0]]

    def test_complex_real_and_nested_list_blocks(self):
        state, _ = worked_example()
        c = state.coefficients
        m = np.array(self.REAL) + 1j * np.array(self.IMAG)
        mean = float(c @ np.array(self.REAL) @ c)
        for block in (m, m.tolist()):
            assert gamma_rate(state, block) == pytest.approx(WORKED_RATE, abs=1e-14)
            assert mean_energy(state, block) == pytest.approx(mean, abs=1e-15)
        for block in (np.array(self.REAL), self.REAL):
            assert_plus_zero(gamma_rate(state, block))
            assert mean_energy(state, block) == pytest.approx(mean, abs=1e-15)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (3, 3), (1, 1), (2,), (2, 2, 2)])
    def test_rejects_a_block_of_another_shape(self, shape):
        state, _ = worked_example()
        block = np.zeros(shape, dtype=complex)
        for fn in (gamma_rate, mean_energy):
            with pytest.raises(ValidationError, match="block dimension"):
                fn(state, block)


class TestEnergyStats:
    def test_decomposition_and_nonnegativity(self):
        for seed in range(20):
            psi = random_state(2, 3, (seed, 0))
            h = random_hermitian(6, (seed, 1))
            stats = energy_stats(psi, h, schmidt_decompose(psi))
            assert stats.variance_real_part >= -1e-12
            assert stats.variance_imag_part >= -1e-12
            assert stats.variance == pytest.approx(
                stats.variance_real_part + stats.variance_imag_part, abs=1e-9
            )

    def test_matches_direct_stats(self):
        psi = random_state(3, 2, 4)
        h = random_hermitian(6, 5)
        stats = energy_stats(psi, h, schmidt_decompose(psi))
        mean, var = direct_stats(psi, h)
        assert stats.mean == pytest.approx(mean, abs=1e-10)
        assert stats.variance == pytest.approx(var, abs=1e-9)

    def test_real_hamiltonian_no_imag_variance(self):
        amp = np.zeros(4, dtype=complex)
        amp[0], amp[3] = math.sqrt(0.8), math.sqrt(0.2)
        psi = PureState(2, 2, amp)
        h = random_hermitian(4, 6).real.astype(complex)
        stats = energy_stats(psi, h, schmidt_decompose(psi))
        assert stats.variance_imag_part == pytest.approx(0.0, abs=1e-12)

    def test_constant_real_part_no_real_variance(self):
        amp = np.zeros(4, dtype=complex)
        amp[0], amp[3] = math.sqrt(0.8), math.sqrt(0.2)
        psi = PureState(2, 2, amp)
        h = 2.0 * np.eye(4, dtype=complex)
        h[0, 3] += 1j
        h[3, 0] -= 1j
        stats = energy_stats(psi, h, schmidt_decompose(psi))
        assert stats.variance_real_part == pytest.approx(0.0, abs=1e-12)
        assert stats.mean == pytest.approx(2.0, abs=1e-12)

    def test_rejects_a_decomposition_of_another_shape(self):
        psi = random_state(2, 3, 7)
        h = random_hermitian(6, 8)
        with pytest.raises(ValidationError, match="decomposition does not match"):
            energy_stats(psi, h, schmidt_decompose(random_state(3, 2, 7)))

    def test_serializes_flat(self):
        stats = EnergyStats(
            mean=0.5, variance=1.0, variance_real_part=0.25, variance_imag_part=0.75
        )
        assert dataclasses.asdict(stats) == {
            "mean": 0.5,
            "variance": 1.0,
            "variance_real_part": 0.25,
            "variance_imag_part": 0.75,
        }


class TestBlockSufficiency:
    """Only the Schmidt-diagonal imaginary part can move the entropy."""

    def test_off_diagonal_and_real_terms_are_inert(self):
        psi = random_state(2, 2, 31)
        state = schmidt_decompose(psi)
        h = random_hermitian(4, 32)
        base_rate = gamma_rate(state, schmidt_block(h, state))
        base_fd = fd_rate(psi, h)

        w = schmidt_rotation(state)
        extra = np.zeros((4, 4), dtype=complex)
        extra[1, 2] = 1.5 + 0.5j  # off the Schmidt-diagonal subspace
        extra[2, 1] = np.conj(extra[1, 2])
        rng = np.random.default_rng(33)
        sym = rng.normal(size=(4, 4))
        real_term = (sym + sym.T) / 2  # real in the Schmidt frame

        for tilde in (extra, real_term.astype(complex)):
            h2 = h + w @ tilde @ w.conj().T
            assert gamma_rate(state, schmidt_block(h2, state)) == pytest.approx(
                base_rate, abs=1e-10
            )
            assert fd_rate(psi, h2) == pytest.approx(base_fd, abs=2e-6)


class TestInvariances:
    def test_local_unitary_invariance(self):
        for seed in range(10):
            psi = random_state(2, 3, (seed, 10))
            h = random_hermitian(6, (seed, 11))
            state = schmidt_decompose(psi)
            base = gamma_rate(state, schmidt_block(h, state))

            rng = np.random.default_rng((seed, 12))
            ua, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            ub, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            u = np.kron(ua, ub)
            psi2 = PureState(2, 3, u @ psi.amplitudes)
            h2 = u @ h @ u.conj().T
            state2 = schmidt_decompose(psi2)
            moved = gamma_rate(state2, schmidt_block(h2, state2))
            assert moved == pytest.approx(base, abs=1e-9)

    @given(seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_auto_orthogonality(self, seed):
        state = schmidt_decompose(random_state(3, 4, seed))
        block = schmidt_block(random_hermitian(12, (seed, 1)), state)
        k = block.imag @ state.coefficients
        assert abs(float(state.coefficients @ k)) < 1e-12

    def test_rate_bounded_by_surprisal_budget(self):
        for seed in range(25):
            psi = random_state(3, 3, (seed, 20))
            h = random_hermitian(9, (seed, 21))
            state = schmidt_decompose(psi)
            rate = gamma_rate(state, schmidt_block(h, state))
            bound = max_rate(state) * math.sqrt(
                max(energy_stats(psi, h, state).variance, 0.0)
            )
            assert abs(rate) <= bound + 1e-9


# --- factored Schmidt-basis algebra against the kron-rotation path ---------


def kron_h_tilde(h, state):
    """H rotated into the full Schmidt product basis by the n x n kron unitary."""
    w = schmidt_rotation(state)
    return w.conj().T @ h @ w


def kron_diag_indices(state):
    return np.arange(state.rank_dim) * state.d_b + np.arange(state.rank_dim)


def kron_block(h, state):
    idx = kron_diag_indices(state)
    return kron_h_tilde(h, state)[np.ix_(idx, idx)]


def kron_stats(psi, h):
    """(mean, variance, real part, imaginary part) with every n x n product."""
    state = schmidt_decompose(psi)
    h_tilde = kron_h_tilde(h, state)
    vec = np.zeros(h.shape[0])
    vec[kron_diag_indices(state)] = state.coefficients
    mean = float(vec @ h_tilde.real @ vec)
    dev = h_tilde @ vec - mean * vec
    real_dev = h_tilde.real @ vec - mean * vec
    imag_vec = h_tilde.imag.T @ vec
    return (mean, float(np.real(dev.conj() @ dev)), float(real_dev @ real_dev),
            float(imag_vec @ imag_vec))


def rank_two_state(d_a, d_b, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d_a, 2)) + 1j * rng.normal(size=(d_a, 2))
    b = rng.normal(size=(2, d_b)) + 1j * rng.normal(size=(2, d_b))
    m = a @ b
    return PureState(d_a, d_b, (m / np.linalg.norm(m)).reshape(-1))


FACTORED_CASES = [
    ("3x5", lambda: random_state(3, 5, 40)),
    ("5x3", lambda: random_state(5, 3, 41)),
    ("rank-deficient 4x4", lambda: rank_two_state(4, 4, 42)),
    ("rank-deficient 3x5", lambda: rank_two_state(3, 5, 43)),
]


class TestFactoredAlgebra:
    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
    @pytest.mark.parametrize("name,make", FACTORED_CASES)
    def test_block_matches_kron_path(self, name, make, scale):
        psi = make()
        state = schmidt_decompose(psi)
        h = scale * random_hermitian(psi.d_a * psi.d_b, 44)
        ref = kron_block(h, state)
        got = schmidt_block(h, state)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
    @pytest.mark.parametrize("name,make", FACTORED_CASES)
    def test_stats_match_kron_path(self, name, make, scale):
        psi = make()
        h = scale * random_hermitian(psi.d_a * psi.d_b, 45)
        mean, variance, real_part, imag_part = kron_stats(psi, h)
        stats = energy_stats(psi, h, schmidt_decompose(psi))
        assert abs(stats.mean - mean) <= 1e-12 * abs(mean)
        for got, want in ((stats.variance, variance),
                          (stats.variance_real_part, real_part),
                          (stats.variance_imag_part, imag_part)):
            assert abs(got - want) <= 1e-12 * variance

    def test_schmidt_columns_are_kron_columns(self):
        state = schmidt_decompose(random_state(3, 5, 46))
        w = schmidt_rotation(state)
        ref = w[:, kron_diag_indices(state)]
        assert np.max(np.abs(schmidt_columns(state) - ref)) < 1e-15

    @pytest.mark.parametrize("fn", ["schmidt_block", "energy_stats"])
    def test_no_n_by_n_temporaries_at_n_1024(self, fn):
        psi = random_state(32, 32, 47)
        state = schmidt_decompose(psi)
        h = random_hermitian(1024, 48)
        call = {
            "schmidt_block": lambda: schmidt_block(h, state),
            "energy_stats": lambda: energy_stats(psi, h, state),
        }[fn]
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One complex n x n temporary is 16 MB.
        assert peak <= 8 * 2**20


def loop_gamma_rate(state, block):
    """The pair sum 4 sum_{i>j} C_i C_j log(C_i/C_j) M_I[j, i], term by term."""
    c = state.coefficients
    total = 0.0
    for i in range(c.size):
        for j in range(i):
            if c[i] == 0.0 or c[j] == 0.0 or c[i] == c[j]:
                continue
            total += 4.0 * c[i] * c[j] * np.log(c[i] / c[j]) * block.imag[j, i]
    return total


class TestOneRateFormula:
    @pytest.mark.parametrize("name,make", FACTORED_CASES)
    def test_matches_the_pair_loop(self, name, make):
        psi = make()
        state = schmidt_decompose(psi)
        block = schmidt_block(random_hermitian(psi.d_a * psi.d_b, 49), state)
        want = loop_gamma_rate(state, block)
        assert gamma_rate(state, block) == pytest.approx(want, rel=1e-12, abs=1e-15)
