"""Stacks of instances: each stack-aware function gives, slice for slice,
the bits of the call on that slice alone, and rejects a stack when any of
its slices is invalid."""

import math

import numpy as np
import pytest

from entrate.ancilla import (
    AncillaCoeffs,
    GBlock,
    ancilla_objective,
    assemble_and_arbitrate,
    lambda_sq,
    recover_g,
    variance_constraint,
)
from entrate.optimum import _optimal_k, brute_force_max_k, max_rate, surprisal_variance
from entrate.oracle import STEP, _fd_rates, _norm_1, _step, direct_stats, fd_rate
from entrate.qcore import (
    PureState,
    SchmidtState,
    ValidationError,
    assemble_state,
    hermiticity_defect,
    random_state,
    schmidt_decompose,
    spectrum_entropy,
)
from entrate.rate import (
    SchmidtBlock,
    energy_stats,
    gamma_rate,
    gamma_rate_k,
    mean_energy,
    schmidt_block,
    schmidt_columns,
)

SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3), (1, 4)]
STACK = 8


def instances(d_a, d_b, seed):
    """Amplitudes (STACK, n) and Hamiltonians (STACK, n, n) of one shape.

    The states cycle through four kinds: random, rank one, a product of
    basis states (whose decomposition holds exact zeros), and one with a
    Schmidt coefficient near 1e-9.  The Hamiltonians' scales run from 1e-3
    to 1e4.
    """
    rng = np.random.default_rng(seed)
    n = d_a * d_b
    amps = []
    for i in range(STACK):
        z = rng.normal(size=(d_a, d_b)) + 1j * rng.normal(size=(d_a, d_b))
        if i % 4 == 1:
            z = np.outer(z[:, 0], z[0])
        elif i % 4 == 2:
            z = np.zeros((d_a, d_b), dtype=complex)
            z[-1, 0] = 1.0
        elif i % 4 == 3:
            u, s, vh = np.linalg.svd(z, full_matrices=False)
            s[-1] = 1e-9
            z = (u * s) @ vh
        amps.append((z / np.linalg.norm(z)).reshape(-1))
    a = rng.normal(size=(STACK, n, n)) + 1j * rng.normal(size=(STACK, n, n))
    scale = 10.0 ** np.arange(-3, STACK - 3)[:, None, None]
    return np.array(amps), scale * (a + a.conj().swapaxes(-1, -2)) / 2


def same(stacked, looped):
    """The stacked result holds the bits of the per-slice results."""
    stacked, looped = np.asarray(stacked), np.array(looped)
    assert stacked.shape == looped.shape
    assert stacked.dtype == looped.dtype
    assert stacked.tobytes() == looped.tobytes()


def build(d_a, d_b, seed):
    amps, h = instances(d_a, d_b, seed)
    psi = PureState(d_a, d_b, amps)
    slices = [PureState(d_a, d_b, a) for a in amps]
    return psi, slices, h


@pytest.mark.parametrize("dims", SHAPES)
class TestStackEqualsLoop:
    def test_decomposition(self, dims):
        psi, slices, _ = build(*dims, 1)
        state = schmidt_decompose(psi)
        states = [schmidt_decompose(p) for p in slices]
        for name in ("coefficients", "basis_a", "basis_b"):
            same(getattr(state, name), [getattr(s, name) for s in states])
        same(assemble_state(state).amplitudes, [assemble_state(s).amplitudes for s in states])
        same(psi.as_matrix(), [p.as_matrix() for p in slices])

    def test_rate_functions(self, dims):
        psi, slices, h = build(*dims, 2)
        state = schmidt_decompose(psi)
        states = [schmidt_decompose(p) for p in slices]
        block = schmidt_block(h, state)
        blocks = [schmidt_block(hi, s) for hi, s in zip(h, states)]
        same(schmidt_columns(state), [schmidt_columns(s) for s in states])
        same(block.m, [b.m for b in blocks])
        same(SchmidtBlock(m=block.m).m, [SchmidtBlock(m=b.m).m for b in blocks])
        same(gamma_rate(state, block), [gamma_rate(s, b) for s, b in zip(states, blocks)])
        same(mean_energy(state, block), [mean_energy(s, b) for s, b in zip(states, blocks)])
        k = np.random.default_rng(3).normal(size=state.coefficients.shape)
        same(gamma_rate_k(state, k), [gamma_rate_k(s, ki) for s, ki in zip(states, k)])
        stats = energy_stats(psi, h, state)
        looped = [energy_stats(p, hi, s) for p, hi, s in zip(slices, h, states)]
        for name in ("mean", "variance", "variance_real_part", "variance_imag_part"):
            same(getattr(stats, name), [getattr(x, name) for x in looped])
        mean, variance = direct_stats(psi, h)
        looped = [direct_stats(p, hi) for p, hi in zip(slices, h)]
        same(mean, [m for m, _ in looped])
        same(variance, [v for _, v in looped])

    def test_optimum_functions(self, dims):
        psi, slices, _ = build(*dims, 4)
        state = schmidt_decompose(psi)
        states = [schmidt_decompose(p) for p in slices]
        c = state.coefficients
        same(surprisal_variance(c**2), [surprisal_variance(s.coefficients**2) for s in states])
        same(max_rate(state), [max_rate(s) for s in states])
        same(_optimal_k(c), [_optimal_k(s.coefficients) for s in states])
        same(brute_force_max_k(state), [brute_force_max_k(s) for s in states])
        # Spectra in both orders, with entries at or below the entropy floor.
        for p in (c**2, c[:, ::-1] ** 2):
            same(spectrum_entropy(p), [spectrum_entropy(row) for row in p])

    def test_hermiticity_defect_is_the_worst_slice(self, dims):
        _, _, h = build(*dims, 5)
        h[3, 0, -1] += 1e-7
        assert hermiticity_defect(h) == max(hermiticity_defect(hi) for hi in h)
        assert hermiticity_defect(h) > 0.0

    def test_stack_of_one_is_the_unstacked_call(self, dims):
        amps, h = instances(*dims, 6)
        psi, h = PureState(*dims, amps[0]), h[0]
        one = PureState(*dims, amps[:1])
        state, state_one = schmidt_decompose(psi), schmidt_decompose(one)
        block, block_one = schmidt_block(h, state), schmidt_block(h[None], state_one)
        pairs = [
            (gamma_rate(state, block), gamma_rate(state_one, block_one)),
            (mean_energy(state, block), mean_energy(state_one, block_one)),
            (energy_stats(psi, h, state).variance,
             energy_stats(one, h[None], state_one).variance),
            (direct_stats(psi, h)[1], direct_stats(one, h[None])[1]),
            (max_rate(state), max_rate(state_one)),
            (brute_force_max_k(state), brute_force_max_k(state_one)),
            (surprisal_variance(state.coefficients**2),
             surprisal_variance(state_one.coefficients**2)),
            (spectrum_entropy(state.coefficients**2),
             spectrum_entropy(state_one.coefficients**2)),
        ]
        for unstacked, stacked in pairs:
            assert type(unstacked) is float
            assert stacked.shape == (1,)
            same(stacked, [unstacked])
        same(block_one.m, [block.m])
        same(state_one.coefficients, [state.coefficients])


ANCILLA_SHAPES = [(1, 2), (2, 2), (2, 3), (3, 2), (1, 4)]


def ancilla_instances(k, d, seed):
    """Raw coefficient matrices (STACK, k, d), every third with an exact zero
    entry, and antisymmetric matrices (STACK, d, d) at scales 1e-3 to 1e4."""
    rng = np.random.default_rng(seed)
    raw = np.abs(rng.normal(size=(STACK, k, d))) + 0.05
    raw[1::3, 0, -1] = 0.0
    m = rng.normal(size=(STACK, d, d)) * 10.0 ** np.arange(-3, STACK - 3)[:, None, None]
    return raw, m - m.swapaxes(-1, -2)


def ancilla_pairs(k, d, seed):
    """A stack of (C, G) pairs and the list of its slices' pairs."""
    raw, m = ancilla_instances(k, d, seed)
    stacked = AncillaCoeffs.normalized(raw), GBlock.from_matrix(m)
    return stacked, [(AncillaCoeffs.normalized(r), GBlock.from_matrix(mi))
                     for r, mi in zip(raw, m)]


@pytest.mark.parametrize("shape", ANCILLA_SHAPES)
class TestAncillaStackEqualsLoop:
    def test_coefficients_and_blocks(self, shape):
        (coeffs, g), looped = ancilla_pairs(*shape, 20)
        same(coeffs.c, [c.c for c, _ in looped])
        same(coeffs.k, [c.k for c, _ in looped])
        same(AncillaCoeffs(c=coeffs.c).k, [AncillaCoeffs(c=c.c).k for c, _ in looped])
        same(g.upper, [gi.upper for _, gi in looped])
        same(g.g, [gi.g for _, gi in looped])
        same(GBlock(upper=g.upper, d=shape[1]).g,
             [GBlock(upper=gi.upper, d=shape[1]).g for _, gi in looped])

    def test_objective_constraint_and_arbitration(self, shape):
        (coeffs, g), looped = ancilla_pairs(*shape, 21)
        for fn in (ancilla_objective, variance_constraint, assemble_and_arbitrate):
            same(fn(coeffs, g), [fn(c, gi) for c, gi in looped])

    def test_stack_of_one_is_the_unstacked_call(self, shape):
        (coeffs, g), looped = ancilla_pairs(*shape, 23)
        one = AncillaCoeffs(c=coeffs.c[:1]), GBlock(upper=g.upper[:1], d=shape[1])
        for fn in (ancilla_objective, variance_constraint, assemble_and_arbitrate):
            unstacked = fn(*looped[0])
            assert type(unstacked) is float
            same(fn(*one), [unstacked])


@pytest.mark.parametrize("dims", SHAPES)
def test_oracle_core_is_fd_rate_per_slice(dims):
    # |H| x 1e-4, x 1 and x 1e4 and H = 0 take different numbers of terms.
    amps, h = instances(*dims, 24)
    h = h / 10.0 ** np.arange(-3, STACK - 3)[:, None, None]
    h *= np.array([1e-4, 1.0, 1e4, 0.0] * (STACK // 4))[:, None, None]
    assert len({_step(norm)[1] for norm in _norm_1(h).tolist()}) == 4
    same(_fd_rates(amps[:, None, :, None], h, *dims),
         [fd_rate(PureState(*dims, a), hi) for a, hi in zip(amps, h)])


@pytest.mark.parametrize("dims", SHAPES)
def test_oracle_core_leaves_out_terms_past_each_slices_bound(dims):
    # At theta = 1.4e-8 two terms meet the bound, and the third, -4 q_2 at
    # the points +-2s, is large enough to move a last bit of the state; the
    # slices at |H|_1 = 1e4 run the stack on to six terms.
    amps, h = instances(*dims, 25)
    h[::2] *= (1.4e-8 / (2 * STEP * _norm_1(h[::2])))[:, None, None]
    h[1::2] *= (1e4 / _norm_1(h[1::2]))[:, None, None]
    assert {_step(norm)[1] for norm in _norm_1(h).tolist()} == {2, 6}
    same(_fd_rates(amps[:, None, :, None], h, *dims),
         [fd_rate(PureState(*dims, a), hi) for a, hi in zip(amps, h)])


@pytest.mark.parametrize("k_a, k_b", [(2, 3), (3, 1), (1, 2)])
def test_oracle_core_applies_h_between_the_ancillas(k_a, k_b):
    # A state of shape (S, K_A, n, K_B) under H is the state of a
    # (K_A d_a) x (d_b K_B) system under I (x) H (x) I.  The dense product
    # may group a row's terms in another order.  That moves last bits of the
    # evolved states, which the stencil's 1/s raises to about 1e-11 of the
    # rate at H x 1e-4.
    d_a, d_b = 2, 3
    rng = np.random.default_rng(26)
    z = rng.normal(size=(6, k_a * d_a * d_b * k_b, 2)) @ np.array([1.0, 1j])
    amps = (z / np.linalg.norm(z, axis=1)[:, None]).reshape(6, k_a, d_a * d_b, k_b)
    _, h = instances(d_a, d_b, 27)
    h = h[:6] / np.linalg.norm(h[:6], axis=(1, 2))[:, None, None]
    h *= np.repeat([1e-4, 1.0, 1e4], 2)[:, None, None]
    want = [fd_rate(PureState(k_a * d_a, d_b * k_b, a.reshape(-1)),
                    np.kron(np.eye(k_a), np.kron(hi, np.eye(k_b))))
            for a, hi in zip(amps, h)]
    assert _fd_rates(amps, h, d_a, d_b) == pytest.approx(want, rel=1e-9)


def spoil(array, index, value):
    out = np.array(array)
    out[index] = value
    return out


class TestStackRejection:
    """One invalid slice rejects the whole stack."""

    @pytest.mark.parametrize("value", [2.0, math.nan])
    def test_state(self, value):
        amps, _ = instances(2, 3, 7)
        with pytest.raises(ValidationError, match="state norm"):
            PureState(2, 3, spoil(amps, (5, 0), value))

    @pytest.mark.parametrize("value", [1.0, math.nan])
    def test_hamiltonian(self, value):
        psi, _, h = build(2, 3, 8)
        state = schmidt_decompose(psi)
        bad = spoil(h, (6, 0, 1), h[6, 0, 1] + value)
        with pytest.raises(ValidationError, match="Hermitian"):
            schmidt_block(bad, state)
        with pytest.raises(ValidationError, match="Hermitian"):
            energy_stats(psi, bad, state)
        with pytest.raises(ValidationError, match="Hermitian"):
            SchmidtBlock(m=bad)

    def test_hamiltonian_stack_of_another_shape(self):
        psi, _, h = build(2, 3, 9)
        state = schmidt_decompose(psi)
        with pytest.raises(ValidationError, match="stack of shape"):
            schmidt_block(h[:-1], state)
        with pytest.raises(ValidationError, match="stack of shape"):
            energy_stats(psi, h[0], state)
        with pytest.raises(ValidationError, match="expected a 6x6 Hamiltonian"):
            direct_stats(psi, h[:-1])

    def test_decomposition_of_another_stack(self):
        psi, slices, h = build(2, 3, 10)
        with pytest.raises(ValidationError, match="decomposition does not match"):
            energy_stats(psi, h, schmidt_decompose(slices[0]))
        state = schmidt_decompose(psi)
        block = schmidt_block(h, state)
        with pytest.raises(ValidationError, match="block dimension"):
            gamma_rate(schmidt_decompose(slices[0]), block)
        with pytest.raises(ValidationError, match="expected k of shape"):
            gamma_rate_k(state, np.zeros(2))

    @pytest.mark.parametrize("index, value, message", [
        ((4, 0), math.nan, "nonnegative"),
        ((4, 1), -0.1, "nonnegative"),
        ((4, 0), 0.2, "sum to 1"),
    ])
    def test_coefficients(self, index, value, message):
        state = schmidt_decompose(build(2, 3, 11)[0])
        with pytest.raises(ValidationError, match=message):
            SchmidtState(coefficients=spoil(state.coefficients, index, value), d_a=2, d_b=3,
                         basis_a=state.basis_a, basis_b=state.basis_b)

    def test_unsorted_coefficients(self):
        state = schmidt_decompose(build(2, 3, 12)[0])
        c = np.array(state.coefficients)
        c[2] = c[2, ::-1]
        with pytest.raises(ValidationError, match="sorted"):
            SchmidtState(coefficients=c, d_a=2, d_b=3,
                         basis_a=state.basis_a, basis_b=state.basis_b)

    @pytest.mark.parametrize("value", [2.0, math.nan])
    def test_basis(self, value):
        state = schmidt_decompose(build(2, 3, 13)[0])
        with pytest.raises(ValidationError, match="basis_b is not unitary"):
            SchmidtState(coefficients=state.coefficients, d_a=2, d_b=3, basis_a=state.basis_a,
                         basis_b=spoil(state.basis_b, (3, 1, 1), value))

    def test_probabilities(self):
        p = schmidt_decompose(build(3, 3, 14)[0]).coefficients ** 2
        with pytest.raises(ValidationError, match="sum to"):
            surprisal_variance(spoil(p, (2, 0), 0.5))
        with pytest.raises(ValidationError, match="nonnegative"):
            surprisal_variance(spoil(p, (2, 2), -0.5))


class TestAncillaStackRejection:
    """One invalid slice rejects the whole stack."""

    @pytest.mark.parametrize("index, value, message", [
        ((5, 0, 1), -0.1, "nonnegative"),
        ((5, 1, 0), math.nan, "unit Frobenius norm"),
        ((5, 1, 0), 2.0, "unit Frobenius norm"),
    ])
    def test_coefficients(self, index, value, message):
        c = ancilla_pairs(2, 2, 30)[0][0].c
        with pytest.raises(ValidationError, match=message):
            AncillaCoeffs(c=spoil(c, index, value))

    def test_zero_slice_does_not_normalize(self):
        raw, _ = ancilla_instances(2, 2, 31)
        with pytest.raises(ValidationError, match="nonzero"):
            AncillaCoeffs.normalized(spoil(raw, 3, 0.0))

    @pytest.mark.parametrize("value", [1.0, math.inf])
    def test_block_matrix(self, value):
        _, m = ancilla_instances(2, 3, 32)
        with pytest.raises(ValidationError, match="antisymmetric"):
            GBlock.from_matrix(spoil(m, (6, 0, 1), value))

    def test_block_entries(self):
        g = ancilla_pairs(2, 3, 33)[0][1]
        with pytest.raises(ValidationError, match="finite"):
            GBlock(upper=spoil(g.upper, (6, 2), math.inf), d=3)

    def test_fixed_c_maximum_takes_one_matrix(self):
        coeffs = ancilla_pairs(2, 2, 36)[0][0]
        for fn in (lambda_sq, recover_g):
            with pytest.raises(ValidationError, match="not a stack"):
                fn(coeffs, 1e-4)

    def test_pair_stacks_of_other_shapes(self):
        coeffs, g = ancilla_pairs(2, 2, 35)[0]
        for fn in (ancilla_objective, variance_constraint, assemble_and_arbitrate):
            with pytest.raises(ValidationError, match="block stack does not match"):
                fn(coeffs, GBlock(upper=g.upper[:-1], d=2))


def test_oracle_takes_one_instance():
    psi, _, h = build(2, 3, 15)
    with pytest.raises(ValidationError, match="one state"):
        fd_rate(psi, h)
    fd_rate(random_state(2, 3, 16), h[0])


def test_empty_stack_gives_empty_results():
    psi = PureState(2, 3, np.zeros((0, 6)))
    h = np.zeros((0, 6, 6), dtype=complex)
    state = schmidt_decompose(psi)
    block = schmidt_block(h, state)
    stats = energy_stats(psi, h, state)
    for result in (gamma_rate(state, block), mean_energy(state, block), stats.variance,
                   direct_stats(psi, h)[1], max_rate(state), brute_force_max_k(state)):
        assert result.shape == (0,)
    assert assemble_state(state).amplitudes.shape == (0, 6)
    assert hermiticity_defect(h) == 0.0
    assert _fd_rates(psi.amplitudes[:, None, :, None], h, 2, 3).shape == (0,)
    coeffs = AncillaCoeffs.normalized(np.zeros((0, 2, 3)))
    g = GBlock.from_matrix(np.zeros((0, 3, 3)))
    assert coeffs.c.shape == coeffs.k.shape == (0, 2, 3)
    assert g.upper.shape == (0, 3) and g.g.shape == (0, 3, 3)
    assert GBlock(upper=np.zeros((0, 3)), d=3).g.shape == (0, 3, 3)
    for result in (ancilla_objective(coeffs, g), variance_constraint(coeffs, g),
                   assemble_and_arbitrate(coeffs, g)):
        assert result.shape == (0,)


def test_empty_coefficient_matrix_is_a_validation_error():
    with pytest.raises(ValidationError, match="unit Frobenius norm"):
        AncillaCoeffs(c=np.zeros((0, 2)))
