"""Ancilla-assisted optimization: closed form, exact inner solve, arbitration."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrate import ancilla
from entrate.ancilla import (
    _START_BLOCK,
    _ascend,
    _inner_max,
    _pair_data,
    _value_and_grad,
    AncillaCoeffs,
    GBlock,
    SingularityError,
    ancilla_objective,
    assemble_and_arbitrate,
    lambda_sq,
    recover_g,
    sup_search,
    variance_constraint,
)
from entrate.optimum import optimal_gamma
from entrate.oracle import fd_rate
from entrate.qcore import PureState, ValidationError

from ancilla_reference import inner_opt_over_g, sup_search_one_by_one, zero_block

seeds = st.integers(min_value=0, max_value=2**32 - 1)

WORKED_RATE = 1.3183347464017314


def worked_coeffs() -> AncillaCoeffs:
    """The no-ancilla example embedded as a single-row coefficient matrix."""
    return AncillaCoeffs(c=np.array([[math.sqrt(0.9), math.sqrt(0.1)]]))


def dense_arbitration(k, d, seed):
    """Two (C, G) pairs at each of the scales 1e-4, 1 and 1e4 of G, with the
    assembled states and the dense Hamiltonians I (x) H_AB (x) I built
    entry by entry and by np.kron, on A' x A x B x B'."""
    rng = np.random.default_rng(seed)
    coeffs = AncillaCoeffs.normalized(np.abs(rng.normal(size=(6, k, d))) + 0.01)
    m = rng.normal(size=(6, d, d)) * np.repeat([1e-4, 1.0, 1e4], 2)[:, None, None]
    g = GBlock.from_matrix(m - m.swapaxes(-1, -2))
    psi, h = [], []
    for c, gi in zip(coeffs.c, g.g):
        t = np.zeros((k, d, d, k), dtype=complex)
        h_ab = np.zeros((d, d, d, d), dtype=complex)
        for a in range(d):
            t[:, a, a, :] = np.diag(c[:, a])
            for b in range(d):
                h_ab[a, a, b, b] = 1j * gi[a, b]
        psi.append(t.reshape(-1))
        h.append(np.kron(np.eye(k), np.kron(h_ab.reshape(d * d, d * d), np.eye(k))))
    return coeffs, g, psi, np.array(h)


def random_coeffs(shape, seed, floor=0.05) -> AncillaCoeffs:
    rng = np.random.default_rng(seed)
    return AncillaCoeffs.normalized(np.abs(rng.normal(size=shape)) + floor)


def random_gblock(d, seed) -> GBlock:
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(d, d))
    return GBlock.from_matrix(m - m.T)


def stack_of(shape, seed, size=3):
    """A stack of `size` random coefficient matrices of one shape."""
    return np.stack([random_coeffs(shape, (seed, i)).c for i in range(size)])


def loop_lambda_sq(c, eps):
    """Reference: sum_{i<j} 4 A'_ij^2 / (b_i + b_j + 2 eps) by an explicit loop."""
    _, evals, _, a_rot = (x[0] for x in _pair_data(c[None]))
    total = 0.0
    for i in range(evals.size):
        for j in range(i + 1, evals.size):
            den = evals[i] + evals[j] + 2.0 * eps
            if den > 1e-300:
                total += 4.0 * a_rot[i, j] ** 2 / den
    return total


def loop_recover_g(c, lambda1, eps):
    """Reference: G'_ij = 2 A'_ij / ((b_i + b_j + 2 eps) lambda1), rotated back."""
    evals, evecs, a_rot = (x[0] for x in _pair_data(c[None])[1:])
    d = evals.size
    g_rot = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            den = evals[i] + evals[j] + 2.0 * eps
            if i != j and den > 1e-300:
                g_rot[i, j] = 2.0 * a_rot[i, j] / (den * lambda1)
    raw = evecs @ g_rot @ evecs.T
    return (raw - raw.T) / 2.0


GRAD_SHAPES = [(2, 2), (3, 3), (4, 5), (6, 6), (2, 4)]
GRAD_EPS = [1e-4, 1e-7, 1e-10]


class TestAncillaCoeffs:
    def test_frobenius_norm_enforced(self):
        with pytest.raises(ValidationError):
            AncillaCoeffs(c=np.ones((2, 2)))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError):
            AncillaCoeffs(c=np.array([[1.0, 0.0], [0.0, -0.1]]) / math.sqrt(1.01))

    def test_derived_k_matches_recomputation(self):
        coeffs = random_coeffs((2, 3), 5)
        manual = np.where(coeffs.c > 0, coeffs.c * np.log(coeffs.c), 0.0)
        assert coeffs.k == pytest.approx(manual, abs=1e-12)

    def test_k_zero_where_c_zero(self):
        c = np.zeros((1, 3))
        c[0, 0] = 1.0
        coeffs = AncillaCoeffs(c=c)
        assert coeffs.k[0, 1] == 0.0 and coeffs.k[0, 2] == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("build", [AncillaCoeffs, AncillaCoeffs.normalized])
    def test_rejects_non_finite_entries(self, build, bad):
        with pytest.raises(ValidationError, match="unit Frobenius norm"):
            build(np.array([[bad, 1.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_normalized_rejects_non_finite_without_warning(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                AncillaCoeffs.normalized(np.array([[bad, 1.0]]))


class TestGBlock:
    def test_exact_antisymmetry(self):
        g = GBlock(upper=np.array([1.0, -2.0, 3.0]), d=3).g
        assert np.array_equal(g, -g.T)

    def test_from_matrix_rejects_symmetric_part(self):
        with pytest.raises(ValidationError):
            GBlock.from_matrix(np.eye(2))

    @pytest.mark.parametrize("m", [[[0.0, math.nan], [math.nan, 0.0]],
                                   [[0.0, math.inf], [-math.inf, 0.0]]])
    def test_from_matrix_rejects_non_finite_entries(self, m):
        with pytest.raises(ValidationError, match="antisymmetric"):
            GBlock.from_matrix(np.array(m))

    def test_round_trip(self):
        block = random_gblock(4, 7)
        assert GBlock.from_matrix(block.g).upper == pytest.approx(
            block.upper, abs=0
        )

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 6])
    def test_matrix_is_the_upper_triangle_antisymmetrized(self, d):
        upper = np.random.default_rng(d).normal(size=d * (d - 1) // 2)
        want = np.zeros((d, d))
        entry = 0
        for i in range(d):
            for j in range(i + 1, d):
                want[i, j], want[j, i] = upper[entry], -upper[entry]
                entry += 1
        assert np.array_equal(GBlock(upper=upper, d=d).g, want)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_upper(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            GBlock(upper=np.array([bad]), d=2)

    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e8])
    def test_from_matrix_rejects_an_asymmetry_relative_to_the_largest_entry(self, scale):
        m = scale * random_gblock(4, 8).g
        m[0, 1] += 1e-5 * np.abs(m).max()
        with pytest.raises(ValidationError, match="antisymmetric"):
            GBlock.from_matrix(m)

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e10])
    def test_from_matrix_accepts_a_rotated_block_at_every_scale(self, scale):
        # O G O^T is antisymmetric only to rounding, which grows with G.
        q, _ = np.linalg.qr(np.random.default_rng(9).normal(size=(5, 5)))
        m = q @ (scale * random_gblock(5, 10).g) @ q.T
        assert np.abs(m + m.T).max() > 0.0
        block = GBlock.from_matrix(m)
        assert np.array_equal(block.g, (m - m.T) / 2.0)

    def test_from_matrix_of_a_raw_maximizer_is_its_antisymmetric_part(self):
        # recover_g passes its maximizer straight in: the bits are those of
        # antisymmetrizing first, as (a - a^T) / 2 = a exactly when a = -a^T.
        for seed in range(10):
            raw = _inner_max(random_coeffs((3, 4), (seed, 11)).c[None], 1e-7)[1][0]
            sym = (raw - raw.T) / 2.0
            assert np.abs(raw + raw.T).max() > 0.0
            assert np.array_equal(GBlock.from_matrix(raw).upper, GBlock.from_matrix(sym).upper)

    @pytest.mark.parametrize("m", [[[0.0, math.nan], [math.nan, 0.0]],
                                   [[0.0, math.inf], [-math.inf, 0.0]],
                                   [[0.0, math.inf], [math.inf, 0.0]]])
    def test_from_matrix_rejects_non_finite_without_warning(self, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                GBlock.from_matrix(np.array(m))


class TestObjectiveAndConstraint:
    def test_zero_block(self):
        coeffs = random_coeffs((2, 2), 8)
        zero = zero_block(2)
        assert ancilla_objective(coeffs, zero) == 0.0
        assert variance_constraint(coeffs, zero) == 0.0

    def test_uniform_rows_inert(self):
        coeffs = AncillaCoeffs.normalized(np.array([[1.0, 1.0], [2.0, 2.0]]))
        for seed in range(4):
            assert ancilla_objective(coeffs, random_gblock(2, seed)) == pytest.approx(
                0.0, abs=1e-14
            )

    def test_worked_example_normalized_block(self):
        coeffs = worked_coeffs()
        g = GBlock(upper=np.array([1.0]), d=2)
        scale = math.sqrt(variance_constraint(coeffs, g))
        g_unit = GBlock(upper=g.upper / scale, d=2)
        assert variance_constraint(coeffs, g_unit) == pytest.approx(1.0, abs=1e-12)
        assert abs(ancilla_objective(coeffs, g_unit)) == pytest.approx(
            WORKED_RATE, abs=1e-12
        )

    @given(seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_index_sum_identities(self, seed):
        coeffs = random_coeffs((3, 3), seed)
        g = random_gblock(3, (seed, 1))
        c, g_mat = coeffs.c, g.g
        obj = 0.0
        for a in range(3):
            for b in range(3):
                for d in range(3):
                    if c[a, b] > 0 and c[a, d] > 0:
                        obj += (
                            2.0
                            * c[a, b]
                            * c[a, d]
                            * math.log(c[a, b] / c[a, d])
                            * g_mat[d, b]
                        )
        assert ancilla_objective(coeffs, g) == pytest.approx(obj, abs=1e-12)
        cons = sum(
            float(np.dot(c[a], g_mat[:, j])) ** 2
            for a in range(3)
            for j in range(3)
        )
        assert variance_constraint(coeffs, g) == pytest.approx(cons, abs=1e-12)


class TestLambdaSq:
    def test_single_column_support(self):
        c = np.zeros((2, 3))
        c[0, 0], c[1, 0] = 0.6, 0.8
        assert lambda_sq(AncillaCoeffs(c=c), 1e-6) == pytest.approx(0.0, abs=1e-14)

    def test_square_diagonal_is_zero(self):
        c = np.diag([math.sqrt(0.9), math.sqrt(0.1)])
        assert lambda_sq(AncillaCoeffs(c=c), 1e-9) == pytest.approx(0.0, abs=1e-14)

    def test_rejects_negative_regularization(self):
        with pytest.raises(ValidationError):
            lambda_sq(worked_coeffs(), -1e-9)
        with pytest.raises(ValidationError):
            lambda_sq(worked_coeffs(), math.nan)

    def test_singular_without_regularization(self):
        with pytest.raises(SingularityError):
            lambda_sq(worked_coeffs(), 0.0)  # rank-1 C^T C

    def test_monotone_nonincreasing_in_regularization(self):
        coeffs = random_coeffs((3, 3), 11)
        values = [lambda_sq(coeffs, eps) for eps in (0.0, 1e-8, 1e-4, 1e-2, 1.0)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_zero_regularization_when_well_conditioned(self):
        coeffs = random_coeffs((3, 3), 13, floor=0.3)
        exact = lambda_sq(coeffs, 0.0)
        assert lambda_sq(coeffs, 1e-12) == pytest.approx(exact, rel=1e-9)


class TestRecoverG:
    def test_no_objective_gives_zero_block(self):
        c = np.diag([math.sqrt(0.9), math.sqrt(0.1)])
        block = recover_g(AncillaCoeffs(c=c), 1e-9)
        assert np.max(np.abs(block.g)) == 0.0

    def test_plug_back_at_stationary_point(self):
        coeffs = random_coeffs((3, 3), 17, floor=0.2)
        eps = 1e-10
        lam1, raw, _ = (x[0] for x in _inner_max(coeffs.c[None], eps))
        block = recover_g(coeffs, eps)
        # The maximizer is antisymmetric before recover_g projects it.
        assert np.max(np.abs(raw + raw.T)) < 1e-10
        assert variance_constraint(coeffs, block) == pytest.approx(1.0, abs=1e-6)
        assert ancilla_objective(coeffs, block) == pytest.approx(
            2.0 * lam1, abs=1e-6
        )


class TestVectorizedPairs:
    @pytest.mark.parametrize("shape", GRAD_SHAPES + [(1, 3), (3, 1)])
    def test_pair_data_diagonalizes_c_transpose_c(self, shape):
        stack = stack_of(shape, (shape, 60))
        for c, k, evals, evecs, a_rot in zip(stack, *_pair_data(stack)):
            a = c.T @ k - k.T @ c
            d = shape[1]
            assert np.max(np.abs(evecs.T @ evecs - np.eye(d))) <= 1e-14
            assert np.max(np.abs(evecs.T @ c.T @ c @ evecs - np.diag(evals))) <= 1e-14
            assert np.max(np.abs(a_rot - evecs.T @ a @ evecs)) <= 1e-14 * np.max(np.abs(a))
            # A' vanishes identically on pairs of null directions of C.
            assert not a_rot[shape[0]:, shape[0]:].any()

    @pytest.mark.parametrize("shape", GRAD_SHAPES + [(1, 3), (3, 1)])
    def test_each_slice_as_if_alone(self, shape):
        # A slice's results do not depend on the rest of its stack.
        stack = stack_of(shape, (shape, 64))
        stacked = _inner_max(stack, 1e-7)
        for i in range(len(stack)):
            for got, alone in zip(stacked, _inner_max(stack[i : i + 1], 1e-7)):
                assert np.array_equal(got[i], alone[0])

    @pytest.mark.parametrize("shape", GRAD_SHAPES + [(1, 3), (3, 1)])
    @pytest.mark.parametrize("eps", GRAD_EPS + [1e-9])
    def test_lambda_sq_matches_pair_loop(self, shape, eps):
        coeffs = random_coeffs(shape, (shape, 61))
        expected = loop_lambda_sq(coeffs.c, eps)
        assert abs(lambda_sq(coeffs, eps) - expected) <= 1e-14 * max(expected, 1.0)

    def test_lambda_sq_matches_pair_loop_on_singular_support(self):
        coeffs = AncillaCoeffs.normalized(np.array([[0.8, 0.0, 0.3], [0.1, 0.0, 0.5]]))
        for eps in (1e-4, 1e-10):
            expected = loop_lambda_sq(coeffs.c, eps)
            assert abs(lambda_sq(coeffs, eps) - expected) <= 1e-14 * expected

    @pytest.mark.parametrize("shape", GRAD_SHAPES)
    @pytest.mark.parametrize("eps", GRAD_EPS)
    def test_recover_g_matches_pair_loop(self, shape, eps):
        coeffs = random_coeffs(shape, (shape, 62))
        lam1 = math.sqrt(lambda_sq(coeffs, eps))
        expected = loop_recover_g(coeffs.c, lam1, eps)
        got = recover_g(coeffs, eps).g
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


class TestValueAndGrad:
    @pytest.mark.parametrize("shape", GRAD_SHAPES)
    @pytest.mark.parametrize("eps", GRAD_EPS)
    def test_matches_central_differences(self, shape, eps):
        stack = stack_of(shape, (shape, 63), size=2)
        h = 1e-6

        def value(m):
            return 2.0 * math.sqrt(loop_lambda_sq(m, eps))

        for c, got_value, grad in zip(stack, *_value_and_grad(stack, eps)):
            fd = np.zeros(shape)
            for idx in np.ndindex(*shape):
                probe = np.zeros(shape)
                probe[idx] = h
                fd[idx] = (value(c + probe) - value(c - probe)) / (2.0 * h)
            assert got_value == pytest.approx(value(c), rel=1e-14)
            assert np.max(np.abs(grad - fd)) <= 1e-8 * np.max(np.abs(fd))

    def test_zero_objective_has_zero_gradient(self):
        c = np.diag([math.sqrt(0.9), math.sqrt(0.1)])
        other = random_coeffs((2, 2), 65).c
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, grad = _value_and_grad(np.stack([c, other]), 1e-7)
        assert value[0] == 0.0
        assert not grad[0].any()
        # The vanishing slice leaves its neighbour as it would be alone.
        alone_value, alone_grad = _value_and_grad(other[None], 1e-7)
        assert value[1] == alone_value[0]
        assert np.array_equal(grad[1], alone_grad[0])


class TestInnerOpt:
    def test_worked_row_matches_no_ancilla_closed_form(self):
        value, block = inner_opt_over_g(worked_coeffs())
        assert value == pytest.approx(WORKED_RATE, abs=1e-5)
        assert variance_constraint(worked_coeffs(), block) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_uniform_row_is_zero(self):
        coeffs = AncillaCoeffs(c=np.full((1, 2), 1 / math.sqrt(2)))
        value, _ = inner_opt_over_g(coeffs)
        assert value == pytest.approx(0.0, abs=1e-8)

    def test_matches_closed_form_on_full_rank(self):
        for seed in range(5):
            coeffs = random_coeffs((3, 3), (seed, 30), floor=0.25)
            value, _ = inner_opt_over_g(coeffs)
            closed = 2.0 * math.sqrt(lambda_sq(coeffs, 1e-10))
            assert value == pytest.approx(closed, abs=1e-4)

    def test_deterministic(self):
        coeffs = random_coeffs((2, 3), 41)
        v1, b1 = inner_opt_over_g(coeffs)
        v2, b2 = inner_opt_over_g(coeffs)
        assert v1 == v2
        assert np.array_equal(b1.upper, b2.upper)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 3), (4, 4), (6, 6), (8, 2)])
    def test_solve_is_exact_on_full_rank(self, shape):
        for seed in range(3):
            coeffs = random_coeffs(shape, (seed, 31))
            value, block = inner_opt_over_g(coeffs)
            closed = 2.0 * math.sqrt(lambda_sq(coeffs, 0.0))
            assert value == pytest.approx(closed, rel=1e-12)
            assert variance_constraint(coeffs, block) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("shape", [(2, 4), (3, 6)])
    def test_solve_is_exact_on_rank_deficient(self, shape):
        # C^T C is singular; the pseudo-inverse drops its null directions,
        # on which the objective vanishes.
        for seed in range(3):
            coeffs = random_coeffs(shape, (seed, 32))
            value, block = inner_opt_over_g(coeffs)
            closed = 2.0 * math.sqrt(lambda_sq(coeffs, 1e-14))
            assert value == pytest.approx(closed, rel=1e-12)
            assert variance_constraint(coeffs, block) == pytest.approx(1.0, rel=1e-12)


class TestSupSearch:
    def test_reduces_to_no_ancilla_case(self):
        result = sup_search(2, 1, starts=3, seed=0)
        assert result.value == pytest.approx(optimal_gamma(2).rate, abs=1e-4)

    def test_never_below_embedded_optimum(self):
        result = sup_search(2, 2, starts=3, seed=0)
        assert result.value >= optimal_gamma(2).rate - 1e-6

    def test_deterministic_report(self):
        a = sup_search(2, 2, starts=3, seed=9).as_dict()
        b = sup_search(2, 2, starts=3, seed=9).as_dict()
        assert a == b

    def test_report_fields(self):
        result = sup_search(2, 1, starts=2, seed=1)
        report = result.as_dict()
        assert report["value_bits"] == pytest.approx(
            report["value_nat"] / math.log(2), abs=1e-12
        )
        assert 0.0 <= report["converged_fraction"] <= 1.0
        assert report["diagnostics"]["iterations"] > 0

    @pytest.mark.parametrize(
        "d_a, d_ancilla, expected",
        [
            (4, 2, 2.0233541995229687),
            (4, 4, 2.0233541995142987),
            (5, 3, 2.232888007973513),
            (6, 6, 2.4017751028940046),
        ],
    )
    def test_benchmark_cases_keep_their_values(self, d_a, d_ancilla, expected):
        # Values of the finite-difference ascent this search replaced.
        result = sup_search(d_a, d_ancilla, starts=4)
        assert result.value == pytest.approx(expected, abs=1e-9)
        assert result.converged_fraction == 1.0
        diagnostics = result.diagnostics
        assert "fd_grad_step" not in diagnostics
        assert diagnostics["gap_vs_no_ancilla"] == (
            diagnostics["value_unregularized"] - optimal_gamma(d_a).rate
        )

    @pytest.mark.parametrize("d_a, d_ancilla", [(4, 2), (4, 4), (5, 3), (6, 6)])
    def test_unregularized_value_closes_the_gap(self, d_a, d_ancilla):
        # Start 0 embeds the no-ancilla optimum; at eps = 0 its value is exact.
        result = sup_search(d_a, d_ancilla, starts=4)
        diagnostics = result.diagnostics
        assert abs(diagnostics["gap_vs_no_ancilla"]) <= 1e-12
        assert diagnostics["value_unregularized"] >= result.value

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            sup_search(1, 1)
        with pytest.raises(ValidationError):
            sup_search(2, 0)
        with pytest.raises(ValidationError, match="starts must be >= 1"):
            sup_search(2, 2, starts=0)

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_rejects_max_iter_below_one(self, max_iter):
        # With no ascent step no start can converge: that is bad input.
        with pytest.raises(ValidationError, match="max_iter must be >= 1"):
            sup_search(2, 2, starts=2, max_iter=max_iter)


# (d_a, d_ancilla, starts, seed, max_iter): the four benchmark cases, one
# ancilla row, fewer rows than columns (C^T C has null directions), more
# rows than columns, one and eight starts, seeds 0, 3 and 7, a single step
# per round, and searches that span two and three blocks of starts.
SEARCH_GRID = [
    (4, 2, 4, 0, 300),
    (4, 4, 4, 0, 300),
    (5, 3, 4, 0, 300),
    (6, 6, 4, 0, 300),
    (2, 1, 3, 0, 300),
    (4, 1, 8, 3, 300),
    (5, 1, 1, 7, 300),
    (5, 2, 8, 7, 300),
    (4, 3, 1, 3, 300),
    (7, 2, 8, 3, 300),
    (3, 5, 8, 7, 300),
    (2, 4, 1, 0, 300),
    (2, 2, 8, 3, 300),
    (4, 2, 8, 3, 1),
    (3, 5, 8, 7, 1),
    (6, 1, 1, 0, 1),
    (2, 3, _START_BLOCK + 6, 0, 300),
    (3, 2, 2 * _START_BLOCK + 1, 7, 3),
]


class TestStackedSearch:
    @pytest.mark.parametrize("d_a, d_ancilla, starts, seed, max_iter", SEARCH_GRID)
    def test_equals_one_start_at_a_time(self, d_a, d_ancilla, starts, seed, max_iter):
        got = sup_search(d_a, d_ancilla, starts=starts, seed=seed, max_iter=max_iter)
        want = sup_search_one_by_one(
            d_a, d_ancilla, starts=starts, seed=seed, max_iter=max_iter
        )
        assert got.value == want.value
        assert np.array_equal(got.c_star.c, want.c_star.c)
        assert np.array_equal(got.g_star.upper, want.g_star.upper)
        assert got.diagnostics == want.diagnostics
        assert got.converged_fraction == want.converged_fraction
        assert got.as_dict() == want.as_dict()

    def test_each_start_ascends_as_if_alone(self, monkeypatch):
        # A uniform C is a saddle whose objective is zero up to rounding;
        # made exactly flat here, its gradient vanishes at once and it stops
        # before any trial step of each round, while its neighbours follow
        # their own paths all the same.
        exact = ancilla._value_and_grad

        def flat_when_uniform(c, eps):
            value, grad = exact(c, eps)
            uniform = np.ptp(c.reshape(len(c), -1), axis=1) == 0.0
            value[uniform], grad[uniform] = 0.0, 0.0
            return value, grad

        monkeypatch.setattr(ancilla, "_value_and_grad", flat_when_uniform)
        uniform = np.full((2, 3), 1 / math.sqrt(6))
        stack = np.stack([random_coeffs((2, 3), 70).c, uniform,
                          random_coeffs((2, 3), 71).c])
        c, value, ok, iterations = _ascend(stack.copy(), 300)
        alone = [_ascend(stack[i : i + 1].copy(), 300) for i in range(len(stack))]
        assert np.array_equal(c, np.concatenate([a[0] for a in alone]))
        assert np.array_equal(value, np.concatenate([a[1] for a in alone]))
        assert np.array_equal(ok, np.concatenate([a[2] for a in alone]))
        assert iterations == sum(a[3] for a in alone)
        assert value[1] == 0.0 and ok[1]
        assert alone[1][3] == len(ancilla.ANNEAL_SCHEDULE)
        assert value[0] > 0.0 and value[2] > 0.0

    def test_memory_stays_within_one_block(self):
        def peak(starts):
            tracemalloc.start()
            try:
                sup_search(2, 2, starts=starts, max_iter=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        sup_search(2, 2, starts=2, max_iter=1)  # first-call allocations
        one_block = peak(_START_BLOCK)
        # Stacking all 4096 starts at once would take about 50 times as much.
        assert peak(4096) <= 2 * one_block


class TestArbitration:
    def test_zero_block(self):
        coeffs = random_coeffs((2, 2), 50)
        assert assemble_and_arbitrate(coeffs, zero_block(2)) == pytest.approx(
            0.0, abs=1e-8
        )

    def test_worked_example(self):
        coeffs = worked_coeffs()
        g = GBlock(upper=np.array([1.0]), d=2)
        scale = math.sqrt(variance_constraint(coeffs, g))
        g_unit = GBlock(upper=g.upper / scale, d=2)
        got = assemble_and_arbitrate(coeffs, g_unit)
        assert abs(got) == pytest.approx(WORKED_RATE, abs=2e-6)
        assert got == pytest.approx(ancilla_objective(coeffs, g_unit), abs=2e-6)

    def test_random_two_by_two_instance(self):
        coeffs = random_coeffs((2, 2), 51)
        g = random_gblock(2, 52)
        assert assemble_and_arbitrate(coeffs, g) == pytest.approx(
            ancilla_objective(coeffs, g), abs=2e-6
        )

    @pytest.mark.parametrize("k, d", [(1, 3), (2, 2), (2, 3), (3, 2)])
    def test_equals_the_dense_oracle_per_slice(self, k, d):
        # For d <= 3 a row of H_AB holds at most two nonzero entries, so the
        # dense I (x) H_AB (x) I adds the same two terms per row as the
        # product on the A x B axis does, and each slice keeps its bits.
        coeffs, g, psi, h = dense_arbitration(k, d, 55)
        want = [fd_rate(PureState(k * d, d * k, p), hi) for p, hi in zip(psi, h)]
        assert assemble_and_arbitrate(coeffs, g).tolist() == want

    @pytest.mark.parametrize("k, d", [(4, 4), (6, 6), (3, 4), (2, 5)])
    def test_rounds_as_the_dense_oracle(self, k, d):
        # From d = 4 on, the dense product and its 1-norm may group a row's
        # d - 1 nonzero terms in another order, which moves last bits.
        coeffs, g, psi, h = dense_arbitration(k, d, 56)
        want = [fd_rate(PureState(k * d, d * k, p), hi) for p, hi in zip(psi, h)]
        assert assemble_and_arbitrate(coeffs, g) == pytest.approx(want, rel=1e-12)

    def test_largest_system_builds_no_dense_hamiltonian(self):
        # At (K, d) = (8, 8) the assembled dimension is the cap, 4096, and a
        # dense I (x) H_AB (x) I alone would take 268 MB.
        coeffs = random_coeffs((8, 8), 57)
        g = random_gblock(8, 58)
        tracemalloc.start()
        try:
            rate = assemble_and_arbitrate(coeffs, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert rate == pytest.approx(ancilla_objective(coeffs, g), abs=2e-6)

    def test_dimension_cap(self):
        # 9 * 8 * 8 * 9 = 5184 exceeds the cap of 4096.
        coeffs = random_coeffs((9, 8), 53)
        with pytest.raises(ValidationError, match="exceeds cap 4096"):
            assemble_and_arbitrate(coeffs, zero_block(8))

    def test_dimension_cap_ignores_the_environment(self, monkeypatch):
        # The cap is a constant: 1 * 3 * 3 * 1 = 9 is within it, whatever
        # the environment holds.
        monkeypatch.setenv("ENTRATE_DIM_CAP", "8")
        coeffs = random_coeffs((1, 3), 54)
        rate = assemble_and_arbitrate(coeffs, zero_block(3))
        assert rate == pytest.approx(ancilla_objective(coeffs, zero_block(3)), abs=2e-6)
