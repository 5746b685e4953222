"""Finite-difference ground truth: the oracle the rest of the suite leans on."""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import entrate.oracle
from entrate.oracle import (
    MAX_PHASE,
    STENCIL,
    _norm_1,
    direct_stats,
    fd_rate,
)
from entrate.qcore import (
    PureState,
    ValidationError,
    random_hermitian,
    random_state,
    schmidt_decompose,
)
from entrate.rate import gamma_rate, schmidt_block

from test_qcore import von_neumann_entropy

WORKED_RATE = 1.3183347464017314


def worked_pair():
    amp = np.zeros(4, dtype=complex)
    amp[0], amp[3] = math.sqrt(0.9), math.sqrt(0.1)
    psi = PureState(2, 2, amp)
    h = np.zeros((4, 4), dtype=complex)
    # i(|11><00| - |00><11|): M_I = [[0, -1], [1, 0]] in the identity bases
    h[3, 0] = 1j
    h[0, 3] = -1j
    return psi, h


class TestFDRate:
    def test_worked_example_two_steps(self):
        # The step is MAX_PHASE / |H|_1: 2e-3 at |H|_1 = 1, 5e-6 at H x 400.
        psi, h = worked_pair()
        for scale in (1.0, 400.0):
            got = fd_rate(psi, scale * h) / scale
            assert got == pytest.approx(WORKED_RATE, abs=1e-6)

    def test_real_hamiltonian_in_schmidt_basis(self):
        psi, _ = worked_pair()
        h = random_hermitian(4, 2).real.astype(complex)
        assert fd_rate(psi, h) == pytest.approx(0.0, abs=1e-6)

    def test_maximally_entangled_is_stationary(self):
        amp = np.zeros(4, dtype=complex)
        amp[0] = amp[3] = 1 / math.sqrt(2)
        psi = PureState(2, 2, amp)
        h = random_hermitian(4, 7)
        assert fd_rate(psi, h) == pytest.approx(0.0, abs=1e-6)

    def test_sign_symmetry(self):
        psi = random_state(2, 3, 8)
        h = random_hermitian(6, 9)
        assert fd_rate(psi, h) == pytest.approx(-fd_rate(psi, -h), abs=2e-6)

    def test_near_degenerate_coefficients_relaxed_tolerance(self):
        # Squared Schmidt coefficients 1e-4 to 1e-10 apart: the weights stay
        # smooth in t however close they sit.
        h = random_hermitian(4, 77)
        for split in (1e-4, 1e-6, 1e-8, 1e-10):
            amp = np.zeros(4, dtype=complex)
            amp[0], amp[3] = math.sqrt(0.5 + split / 2), math.sqrt(0.5 - split / 2)
            psi = PureState(2, 2, amp)
            state = schmidt_decompose(psi)
            closed = gamma_rate(state, schmidt_block(h, state))
            assert fd_rate(psi, h) == pytest.approx(closed, abs=2e-12)

    def test_rejects_non_hermitian(self):
        psi, _ = worked_pair()
        with pytest.raises(ValidationError):
            fd_rate(psi, np.triu(np.ones((4, 4))).astype(complex))


class TestDirectStats:
    def test_identity_hamiltonian(self):
        psi = random_state(2, 2, 1)
        mean, var = direct_stats(psi, np.eye(4, dtype=complex))
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert var == pytest.approx(0.0, abs=1e-12)

    def test_eigenstate_has_zero_variance(self):
        h = random_hermitian(4, 3)
        _, evecs = np.linalg.eigh(h)
        psi = PureState(2, 2, evecs[:, 0])
        _, var = direct_stats(psi, h)
        assert var == pytest.approx(0.0, abs=1e-12)


def eigh_fd_rate(psi, h):
    """An independent oracle for H near unit scale: Richardson's stencil on
    the entropy S(t) itself, with the step 1e-5, on states evolved exactly
    through eigh(H)."""
    s = 1e-5
    evals, evecs = np.linalg.eigh(h)
    coeff = evecs.conj().T @ psi.amplitudes

    def entropy_at(t):
        m = (evecs @ (np.exp(-1j * evals * t) * coeff)).reshape(psi.d_a, psi.d_b)
        return von_neumann_entropy(m @ m.conj().T)

    return (8 * (entropy_at(s) - entropy_at(-s))
            - (entropy_at(2 * s) - entropy_at(-2 * s))) / (12 * s)


def taylor_terms(h, psi, step):
    """q_k = (step H)^k psi / k! for k = 0..5 of one instance."""
    terms = [psi]
    for k in range(1, 6):
        terms.append((step / k) * (h @ terms[-1]))
    return terms


def separate_weights_fd_rate(psi, h):
    """fd_rate's stencil with one Taylor sum and one weight product per
    stencil point, the Taylor terms formed for this instance alone."""
    norm = _norm_1(h)
    s = MAX_PHASE / (norm or 1.0)
    terms = taylor_terms(h, psi.amplitudes, s)
    u, sigma, _ = np.linalg.svd(psi.as_matrix(), full_matrices=False)
    log_sigma = np.log(sigma, out=np.zeros_like(sigma), where=sigma > 0)

    def weighted_at(m):
        phi = sum((-1j * m) ** k * q for k, q in enumerate(terms))
        w = u.conj().T @ phi.reshape(psi.d_a, psi.d_b)
        return float((np.square(w.view(float)).sum(axis=-1) * log_sigma).sum())

    return ((weighted_at(2) - weighted_at(-2))
            - 8 * (weighted_at(1) - weighted_at(-1))) / (6 * s)


def low_rank_state(d_a, d_b, rank, seed):
    """A random state of Schmidt rank ``rank``."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(d_a, rank)) + 1j * rng.normal(size=(d_a, rank))
    w = rng.normal(size=(rank, d_b)) + 1j * rng.normal(size=(rank, d_b))
    amp = (z @ w).reshape(-1)
    return PureState(d_a, d_b, amp / np.linalg.norm(amp))


class TestStackedStencil:
    """The stacked stencil gives the bits of four separate points."""

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 5), (1, 4), (4, 1)])
    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
    def test_random_pairs(self, dims, scale):
        for seed in range(5):
            psi = random_state(*dims, (seed, 60))
            h = scale * random_hermitian(dims[0] * dims[1], (seed, 61))
            assert fd_rate(psi, h) == separate_weights_fd_rate(psi, h)

    @pytest.mark.parametrize("dims", [(2, 3), (3, 3), (3, 4), (9, 10)])
    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
    def test_rank_deficient_states(self, dims, scale):
        for seed in range(5):
            psi = low_rank_state(*dims, 1, (seed, 62))
            h = scale * random_hermitian(dims[0] * dims[1], (seed, 63))
            assert fd_rate(psi, h) == separate_weights_fd_rate(psi, h)

    def test_long_spectra_with_dropped_eigenvalues(self):
        # A rank-10 state on 12 x 12 under a small H: 10 singular values of
        # psi(0) are above 1e-3 and 2 sit at rounding level.  Only exact
        # zeros leave the sum, so all 12 enter it.
        for seed in range(5):
            psi = low_rank_state(12, 12, 10, (seed, 64))
            h = 1e-4 * random_hermitian(144, (seed, 65))
            assert fd_rate(psi, h) == separate_weights_fd_rate(psi, h)


class TestTaylorAction:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (4, 4), (3, 5)])
    @pytest.mark.parametrize("scheme", ["richardson"])
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_matches_eigh_evolution(self, dims, scheme, scale):
        # The entropy stencil runs at unit scale, where its step suits H;
        # the rate is linear in H, so it referees H x 1e3 too.
        for seed in range(3):
            psi = random_state(*dims, (seed, 50))
            h = random_hermitian(dims[0] * dims[1], (seed, 51))
            assert fd_rate(psi, scale * h) == pytest.approx(
                scale * eigh_fd_rate(psi, h), rel=1e-9, abs=1e-9
            )

    def test_taylor_terms_meet_the_roundoff_bound(self):
        # The least K with theta^K / K! <= 2^-53 at the largest |t| |H|_1 the
        # stencil reaches: the first term left out is within float64 roundoff.
        theta = max(abs(m) for m in STENCIL) * MAX_PHASE
        k = 1
        while theta**k / math.factorial(k) > 2.0**-53:
            k += 1
        assert k == entrate.oracle._TAYLOR_TERMS

    def test_zero_hamiltonian_gives_zero(self):
        psi = random_state(2, 3, 52)
        assert fd_rate(psi, np.zeros((6, 6), dtype=complex)) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_subnormal_hamiltonian_keeps_a_finite_step(self, seed):
        # |H|_1 is floored at the smallest normal float: at H x 0 the rate is
        # +0.0, and at H x 1e-320, whose 1/|H|_1 overflows, it stays finite.
        # Below the floor the step no longer follows |H|_1, so the gap to the
        # closed form is absolute: the roundoff of the floor's step, a few
        # 1e-321.
        psi = random_state(2, 2, (seed, 80))
        h = random_hermitian(4, (seed, 81))
        zero = fd_rate(psi, h * 0.0)
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
        state = schmidt_decompose(psi)
        tiny = h * 1e-320
        got = fd_rate(psi, tiny)
        assert math.isfinite(got)
        assert abs(got - gamma_rate(state, schmidt_block(tiny, state))) <= 1e-320

    def test_no_n_by_n_temporaries_at_n_1024(self):
        psi = random_state(32, 32, 53)
        h = random_hermitian(1024, 54)
        tracemalloc.start()
        try:
            fd_rate(psi, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One complex n x n temporary is 16 MB.
        assert peak <= 8 * 2**20

    def test_imports_no_closed_form_module(self):
        tree = ast.parse(Path(entrate.oracle.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        names = {part for name in imported for part in name.split(".")}
        assert not names & {"rate", "optimum", "ancilla"}


class TestScaledHamiltonians:
    """The step follows |H|_1, so the relative gap does not grow with the scale."""

    @pytest.mark.parametrize("dims", [(4, 4), (3, 5)])
    @pytest.mark.parametrize("scale", [1e-4, 1e-2, 1e3, 1e4])
    def test_relative_gap(self, dims, scale):
        for seed in range(20):
            psi = random_state(*dims, (seed, 0))
            h = scale * random_hermitian(dims[0] * dims[1], (seed, 1))
            state = schmidt_decompose(psi)
            closed = gamma_rate(state, schmidt_block(h, state))
            assert abs(fd_rate(psi, h) - closed) <= 1e-8 * abs(closed)


class TestRankDeficientStates:
    """Schmidt rank below min(d_A, d_B), on square and oblong cuts, at every
    scale of H."""

    @pytest.mark.parametrize("dims, rank", [((3, 6), 2), ((5, 3), 3), ((4, 4), 2),
                                            ((8, 8), 3), ((6, 2), 2)])
    def test_relative_gap(self, dims, rank):
        for scale in (1e-4, 1e-2, 1.0, 1e2, 1e4):
            for seed in range(5):
                psi = low_rank_state(*dims, rank, (seed, 70))
                h = scale * random_hermitian(dims[0] * dims[1], (seed, 71))
                state = schmidt_decompose(psi)
                closed = gamma_rate(state, schmidt_block(h, state))
                assert abs(fd_rate(psi, h) - closed) <= 1e-8 * abs(closed)
