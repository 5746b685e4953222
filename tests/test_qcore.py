"""Foundation layer: states, Schmidt forms, entropy, JSON codec."""

import io
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entrate.qcore
from entrate.qcore import (
    DIM_CAP,
    HERM_TOL,
    PureState,
    ValidationError,
    DELETE_NUMBERS,
    DUMP_CHUNK,
    ENTRIES_KEY,
    ZERO_RUN_MAX,
    _check_cap,
    _check_hamiltonian,
    _compact_entries,
    _dump_report,
    _entries_from_json,
    _matrix_json_shape,
    _read_header,
    _state_json_dims,
    assemble_state,
    dump_json,
    hermiticity_defect,
    matrix_from_json,
    random_hermitian,
    random_state,
    schmidt_decompose,
    state_from_json,
)

from hamiltonian_reference import build_optimal_hamiltonian
from json_reference import matrix_json, state_json

seeds = st.integers(min_value=0, max_value=2**32 - 1)

EPS = np.finfo(float).eps

# Density-matrix references, also used by test_oracle's exact-evolution
# stencil; von_neumann_entropy rejects eigenvalues below this limit.
NEG_EIGENVALUE_LIMIT = -1e-8


def density(psi: PureState) -> np.ndarray:
    return np.outer(psi.amplitudes, psi.amplitudes.conj())


def _require_hermitian(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")
    defect = hermiticity_defect(m)
    if defect > HERM_TOL:
        raise ValidationError(f"{name} is not Hermitian (defect {defect:.3e})")
    return m


def partial_trace_b(rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Trace out subsystem B of a density matrix on A x B."""
    rho = np.asarray(rho, dtype=complex)
    n = d_a * d_b
    if rho.shape != (n, n):
        raise ValidationError(f"expected a {n}x{n} matrix, got shape {rho.shape}")
    _require_hermitian(rho, "density matrix")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValidationError("density matrix must have unit trace")
    return np.einsum("abcb->ac", rho.reshape(d_a, d_b, d_a, d_b))


def von_neumann_entropy(rho: np.ndarray, log_base: float | None = None) -> float:
    """Entropy -sum lambda log lambda of a density matrix.

    Eigenvalues at or below zero add nothing; anything below
    NEG_EIGENVALUE_LIMIT is rejected as non-positive-semidefinite.
    ``log_base`` of None means natural log.
    """
    rho = _require_hermitian(np.asarray(rho, dtype=complex), "density matrix")
    if abs(np.trace(rho).real - 1.0) > 1e-8:
        raise ValidationError("density matrix must have unit trace")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < NEG_EIGENVALUE_LIMIT:
        raise ValidationError(
            f"eigenvalue {evals.min():.3e} below {NEG_EIGENVALUE_LIMIT:.0e}"
        )
    kept = evals[evals > 0]
    s = float(-np.sum(kept * np.log(kept)))
    return s / math.log(log_base) if log_base is not None else s


def bell_state() -> PureState:
    amp = np.zeros(4, dtype=complex)
    amp[0] = amp[3] = 1 / math.sqrt(2)
    return PureState(d_a=2, d_b=2, amplitudes=amp)


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            PureState(d_a=2, d_b=2, amplitudes=np.array([1.0, 1.0, 0.0, 0.0]))

    def test_nan_amplitude_is_rejected(self):
        amp = np.array([math.nan, 0.0, 0.0, 1.0])
        with pytest.raises(ValidationError, match="state norm nan"):
            PureState(d_a=2, d_b=2, amplitudes=amp)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            PureState(d_a=2, d_b=3, amplitudes=np.zeros(4))

    def test_matrix_layout_is_row_major(self):
        # amplitude of |a>|b> sits at a*d_b + b
        amp = np.zeros(6, dtype=complex)
        amp[1 * 3 + 2] = 1.0
        psi = PureState(d_a=2, d_b=3, amplitudes=amp)
        assert psi.as_matrix()[1, 2] == 1.0


class TestSchmidtDecompose:
    def test_product_state_rank_one(self):
        amp = np.array([1.0, 0, 0, 0], dtype=complex)
        state = schmidt_decompose(PureState(d_a=2, d_b=2, amplitudes=amp))
        assert state.coefficients == pytest.approx([1.0, 0.0], abs=1e-14)

    def test_maximally_entangled(self):
        state = schmidt_decompose(bell_state())
        assert state.coefficients == pytest.approx(
            [1 / math.sqrt(2)] * 2, abs=1e-14
        )

    def test_reconstruction_3x4(self):
        psi = random_state(3, 4, seed=20240229)
        back = assemble_state(schmidt_decompose(psi))
        assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-10

    @given(seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_round_trip_and_canonical_order(self, seed):
        psi = random_state(3, 3, seed)
        state = schmidt_decompose(psi)
        assert np.all(np.diff(state.coefficients) <= 1e-14)
        assert float(state.coefficients @ state.coefficients) == pytest.approx(
            1.0, abs=1e-12
        )
        back = assemble_state(state)
        assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-10

    @pytest.mark.parametrize("dims", [(1, 1), (1, 3), (2, 2), (3, 4), (4, 3), (2, 5), (4, 4)])
    def test_accepts_every_decomposition(self, dims):
        # What SchmidtState documents but does not check holds for the SVD,
        # at every rank and stack shape: unitary bases, nonnegative sorted
        # coefficients, and squares that sum to the squared norm of the state.
        d_a, d_b = dims
        rng = np.random.default_rng(9)
        for stack, rank in itertools.product([(), (3,), (2, 2)], range(1, min(dims) + 1)):
            a, b = (rng.normal(size=(*stack, *shape)) + 1j * rng.normal(size=(*stack, *shape))
                    for shape in ((d_a, rank), (rank, d_b)))
            amp = (a @ b).reshape(*stack, d_a * d_b)
            psi = PureState(d_a, d_b, amp / np.linalg.norm(amp, axis=-1, keepdims=True))
            state = schmidt_decompose(psi)
            assert state.rank_dim == min(dims)
            c = state.coefficients
            assert c.shape == (*stack, min(dims))
            assert c.min() >= 0.0
            assert (np.diff(c, axis=-1) <= 0.0).all()
            assert np.sum(c**2, axis=-1) == pytest.approx(
                np.sum(np.abs(psi.amplitudes) ** 2, axis=-1), rel=0, abs=16 * EPS)
            for u in (state.basis_a, state.basis_b):
                gram = u.conj().swapaxes(-1, -2) @ u
                assert np.abs(gram - np.eye(u.shape[-1])).max() <= 1e-12

    @pytest.mark.parametrize("scale", [1 - 9e-13, 1 - 6e-13, 1 + 6e-13, 1 + 9e-13])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_decomposes_every_state_pure_state_accepts(self, scale, stacked):
        # PureState allows |norm - 1| <= 1e-12, so sum C_i^2 = norm^2 may
        # miss 1 by about twice that.
        amp = np.stack([random_state(3, 4, seed).amplitudes for seed in (7, 8, 9)])
        psi = PureState(3, 4, scale * (amp if stacked else amp[0]))
        squares = np.sum(schmidt_decompose(psi).coefficients ** 2, axis=-1)
        assert squares == pytest.approx(
            np.sum(np.abs(psi.amplitudes) ** 2, axis=-1), rel=0, abs=16 * EPS)
        assert (np.abs(squares - 1.0) > 1e-12).all()


class TestPartialTrace:
    def test_pure_product(self):
        amp = np.zeros(4, dtype=complex)
        amp[0] = 1.0
        rho_a = partial_trace_b(density(PureState(2, 2, amp)), 2, 2)
        assert rho_a == pytest.approx(np.diag([1.0, 0.0]), abs=1e-14)

    def test_maximally_entangled_gives_maximally_mixed(self):
        rho_a = partial_trace_b(density(bell_state()), 2, 2)
        assert rho_a == pytest.approx(np.eye(2) / 2, abs=1e-14)

    def test_schmidt_squares_on_diagonal(self):
        amp = np.zeros(4, dtype=complex)
        amp[0], amp[3] = math.sqrt(0.9), math.sqrt(0.1)
        rho_a = partial_trace_b(density(PureState(2, 2, amp)), 2, 2)
        assert rho_a == pytest.approx(np.diag([0.9, 0.1]), abs=1e-14)

    def test_trace_preserved(self):
        rho = density(random_state(3, 4, 5))
        rho_a = partial_trace_b(rho, 3, 4)
        assert np.trace(rho_a).real == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            partial_trace_b(np.eye(6) / 6, 2, 2)


class TestEntropy:
    def test_pure(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-14)

    def test_uniform_qubit(self):
        s = von_neumann_entropy(np.diag([0.5, 0.5]))
        assert s == pytest.approx(math.log(2), abs=1e-14)

    def test_two_level_value(self):
        s = von_neumann_entropy(np.diag([0.9, 0.1]))
        assert s == pytest.approx(0.3250829733914482, abs=1e-13)

    def test_log_base_two(self):
        s = von_neumann_entropy(np.diag([0.5, 0.5]), log_base=2)
        assert s == pytest.approx(1.0, abs=1e-14)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            von_neumann_entropy(np.diag([1.001, -1e-3]))

    def test_unitary_invariance(self):
        rng = np.random.default_rng(11)
        rho = density(random_state(2, 2, 3))
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        assert von_neumann_entropy(q @ rho @ q.conj().T) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-10
        )


class TestRandomGenerators:
    def test_state_determinism_and_norm(self):
        a = random_state(2, 3, (7, 1))
        b = random_state(2, 3, (7, 1))
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert np.linalg.norm(a.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_hermitian_determinism_and_defect(self):
        a = random_hermitian(4, 123)
        assert np.array_equal(a, random_hermitian(4, 123))
        assert hermiticity_defect(a) < 1e-14

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     complex(0.0, math.nan), complex(math.inf, 1.0)])
    @pytest.mark.parametrize("where", [(0, 0), (2, 1), (200, 200)])
    def test_non_finite_entry_reads_infinite_defect(self, bad, where):
        # (200, 200) lies only in the second row block, after a finite first.
        m = random_hermitian(300, 5)
        m[where] = bad
        m[where[::-1]] = np.conj(bad)
        assert hermiticity_defect(m) == math.inf

    @pytest.mark.parametrize("n", [1, 9, 127, 128, 129, 300])
    def test_blocked_defect_equals_dense(self, n):
        # Tile pairs read each pair of mirrored entries once; the defect
        # keeps the bits of the dense pass, on a matrix and on a stack.
        rng = np.random.default_rng(n)
        a = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
        for m in (a, (a + a.conj().swapaxes(-1, -2)) / 2, a[1], (a[1] + a[1].conj().T) / 2):
            dense = float(np.abs(m - m.conj().swapaxes(-1, -2)).max())
            assert same_bits(np.float64(hermiticity_defect(m)), np.float64(dense))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(-math.inf, 1.0)])
    @pytest.mark.parametrize("where", [(0, 299), (299, 0), (130, 5), (5, 130), (200, 200)])
    def test_non_finite_entry_in_one_triangle_reads_infinite_defect(self, bad, where):
        # Only one of the two mirrored entries is bad: the tile pair that
        # holds it sees it from either triangle.
        m = random_hermitian(300, 6)
        m[where] = bad
        assert hermiticity_defect(m) == math.inf
        assert hermiticity_defect(np.stack([random_hermitian(300, 7), m])) == math.inf


class TestSeededNormals:
    @pytest.mark.parametrize("seed", [3, (7, 1), 2**64 + 3])
    def test_public_draws_keep_their_bits(self, seed):
        # random_state and random_hermitian as they were first written: a
        # real draw, then an imaginary one, from one generator.
        rng = np.random.default_rng(seed)
        z = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert same_bits(random_state(2, 3, seed).amplitudes, z / np.linalg.norm(z))
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        assert same_bits(random_hermitian(5, seed), (a + a.conj().T) / 2)


def eigh_rebuilt(n, seed):
    """random_hermitian(n, seed) rebuilt from its eigenpairs: Hermitian to
    about 5e-16 of its largest entry, not exactly."""
    w, v = np.linalg.eigh(random_hermitian(n, seed))
    return (v * w) @ v.conj().T


class TestHermiticityRule:
    """qcore._check_hermitian, through the Hamiltonian check."""

    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4, 1e6, 1e8, 1e10])
    def test_accepts_a_rebuilt_hamiltonian_at_every_scale(self, scale):
        for seed in range(20):
            h = scale * eigh_rebuilt(16, (seed, 7))
            _check_hamiltonian(h, 16, ())

    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e8])
    def test_rejects_an_asymmetry_relative_to_the_largest_entry(self, scale):
        h = scale * random_hermitian(6, 3)
        h[0, 1] += 1e-5 * np.abs(h).max()
        with pytest.raises(ValidationError, match="Hamiltonian must be Hermitian"):
            _check_hamiltonian(h, 6, ())

    def test_each_slice_of_a_stack_has_its_own_scale(self):
        # A large slice does not widen the tolerance of a small one.
        h = np.stack([1e8 * eigh_rebuilt(4, 8), random_hermitian(4, 9)])
        _check_hamiltonian(h, 4, (2,))
        h[1, 0, 1] += 1e-8
        with pytest.raises(ValidationError, match="Hermitian"):
            _check_hamiltonian(h, 4, (2,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.inf)])
    def test_rejects_non_finite_entries_without_warning(self, bad):
        h = 1e8 * random_hermitian(3, 10)
        h[0, 1] = bad
        h[1, 0] = np.conj(bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="Hermitian"):
                _check_hamiltonian(h, 3, ())


class TestDimCap:
    def test_cap_itself_passes(self):
        _check_cap(DIM_CAP)

    @pytest.mark.parametrize("product, size", [
        pytest.param(DIM_CAP + 1, "4097", id="cap-plus-1"),
        pytest.param(2**64 - 1, str(2**64 - 1), id="64-bits"),
        pytest.param(2**64, "of 65 bits", id="65-bits"),
    ])
    def test_over_cap_names_the_product(self, product, size):
        # Up to 64 bits the product is printed; past that, its length.
        with pytest.raises(ValidationError) as exc:
            _check_cap(product)
        assert str(exc.value) == f"product dimension {size} exceeds cap 4096"


class TestJsonCodec:
    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_matrix_round_trip(self, seed):
        m = random_hermitian(3, seed)
        assert matrix_from_json(matrix_json(m)) == pytest.approx(m, abs=0)

    def test_state_round_trip(self):
        psi = random_state(2, 3, 8)
        back = state_from_json(state_json(psi))
        assert back.d_a == 2 and back.d_b == 3
        assert np.array_equal(back.amplitudes, psi.amplitudes)

    def test_entry_count_enforced(self):
        with pytest.raises(ValidationError):
            matrix_from_json({"rows": 2, "cols": 2, "re_im": [[1.0, 0.0]]})

    def test_malformed_pair(self):
        with pytest.raises(ValidationError):
            matrix_from_json({"rows": 1, "cols": 1, "re_im": [[1.0]]})

    def test_missing_dims(self):
        with pytest.raises(ValidationError):
            state_from_json({"re_im": [[1.0, 0.0]]})

    def test_non_numeric_entries(self):
        # float() reads "1" and True, but neither is a JSON number.
        for bad in (None, "abc", [1.0], {}, "1", True):
            pairs = [[1.0, 0.0], [0.0, 1.0], [bad, 0.0], [0.0, 0.0]]
            with pytest.raises(ValidationError,
                               match=r"^entry 2 of 're_im' is not an \[re, im\] pair$"):
                matrix_from_json({"rows": 2, "cols": 2, "re_im": pairs})


def loop_decode(pairs) -> np.ndarray:
    """Entry-by-entry reference for the bulk decoder."""
    return np.array([complex(float(re), float(im)) for re, im in pairs], dtype=complex)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality, so -0.0 and 0.0 differ."""
    a = np.ascontiguousarray(a, dtype=complex)
    b = np.ascontiguousarray(b, dtype=complex)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.1, -1 / 3]


def dumped(value) -> str:
    """The bytes dump_json writes to a binary handle, as ASCII text."""
    fh = io.BytesIO()
    dump_json(value, fh)
    return fh.getvalue().decode("ascii")


class Sink(io.RawIOBase):
    """A binary handle that keeps each write apart."""

    def __init__(self):
        super().__init__()
        self.written = []

    def writable(self):
        return True

    def write(self, data):
        self.written.append(bytes(data))
        return len(data)


def sparse(m: np.ndarray) -> tuple:
    """m as dump_json's (shape, index, values) of its entries with a nonzero
    bit, at ascending flat indices."""
    flat = m.reshape(-1)
    words = flat.view(np.uint64).reshape(-1, 2)
    index = np.flatnonzero(words.any(axis=1))
    return m.shape, index, flat[index]


def gap_matrix(case: str) -> np.ndarray:
    """A one-row matrix for the entry writer's edge cases."""
    rng = np.random.default_rng(len(case))
    size = {"gap_longer_than_the_zero_buffer": 3 * ZERO_RUN_MAX + 20,
            "dense_random": 3 * DUMP_CHUNK + 5}.get(case, 2 * DUMP_CHUNK + 9)
    m = np.zeros((1, size), dtype=complex)
    flat = m.reshape(-1)
    if case == "nonzero_first_and_last":
        flat[[0, -1]] = [complex(0.5, -2.0), 1j]
    elif case == "adjacent_nonzero":
        flat[[5, 6, 7, DUMP_CHUNK - 1, DUMP_CHUNK, DUMP_CHUNK + 1]] = [
            1.0, -1j, 0.25 + 0.5j, 3.0, -4.0, 1e30]
    elif case == "gap_longer_than_the_zero_buffer":
        flat[[3, 2 * ZERO_RUN_MAX + 10]] = [1.5, -0.5j]
    elif case == "signed_zero_and_subnormal_parts":
        flat[[0, 9, 10, DUMP_CHUNK + 3, -1]] = [
            complex(-0.0, 0.0), complex(0.0, -0.0), complex(5e-324, 0.0),
            complex(0.0, 5e-324), complex(-0.0, -0.0)]
    elif case == "dense_random":
        flat[:] = rng.normal(size=size) + 1j * rng.normal(size=size)
    elif case == "every_other_entry":
        flat[::2] = rng.normal(size=flat[::2].size) - 0.5j
    return m


def edge_matrix(rows, cols):
    rng = np.random.default_rng(rows * 100 + cols)
    m = np.empty((rows, cols), dtype=complex)
    m.real = rng.choice(EDGE_VALUES, size=(rows, cols))
    m.imag = rng.choice(EDGE_VALUES, size=(rows, cols))
    return m


def edge_state(d_a, d_b):
    """Unit norm from 0.6 and 0.8; every other entry is a signed zero with a
    subnormal or the smallest normal float."""
    amp = np.full(d_a * d_b, complex(-0.0, 5e-324))
    amp[1::2] = complex(2.2250738585072014e-308, -0.0)
    amp[0], amp[-1] = complex(0.6, -0.0), complex(-0.0, 0.8)
    return PureState(d_a=d_a, d_b=d_b, amplitudes=amp)


class TestJsonStreaming:
    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (2, DUMP_CHUNK + 3), (0, 4), (4, 0)])
    def test_matrix_bytes_equal_json_dumps(self, shape):
        m = edge_matrix(*shape)
        assert dumped(m) == json.dumps(matrix_json(m))

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (1, 7), (4, 4)])
    def test_state_bytes_equal_json_dumps(self, dims):
        psi = edge_state(*dims)
        assert dumped(psi) == json.dumps(state_json(psi))

    def test_matrix_round_trip_is_bit_exact(self):
        m = edge_matrix(7, 9)
        back = matrix_from_json(json.loads(dumped(m)))
        assert same_bits(back, m)
        assert same_bits(matrix_from_json(matrix_json(m)), m)

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (1, 5)])
    def test_state_round_trip_is_bit_exact(self, dims):
        psi = edge_state(*dims)
        back = state_from_json(json.loads(dumped(psi)))
        assert (back.d_a, back.d_b) == dims
        assert same_bits(back.amplitudes, psi.amplitudes)

    def test_bulk_decode_matches_loop_reference(self):
        rng = np.random.default_rng(4)
        pairs = rng.choice(EDGE_VALUES, size=(50, 2)).tolist()
        # JSON integers mix with floats; strings and booleans are rejected
        # (test_non_numeric_entries).
        pairs += [[1, -2], [0, -0.0], [float("inf"), -float("inf")]]
        rng_vals = rng.normal(size=(40, 2)) * 10.0 ** rng.integers(-300, 300, size=(40, 2))
        pairs += rng_vals.tolist()
        n = len(pairs)
        got = matrix_from_json({"rows": 1, "cols": n, "re_im": pairs})
        assert same_bits(got.reshape(-1), loop_decode(pairs))

    def test_nan_entries_decode_like_the_loop(self):
        pairs = [[float("nan"), 1.0], [2.0, -0.0]]
        got = matrix_from_json({"rows": 2, "cols": 1, "re_im": pairs}).reshape(-1)
        assert math.isnan(got[0].real) and got[0].imag == 1.0
        assert same_bits(got[1:], loop_decode(pairs[1:]))

    @pytest.mark.parametrize("case", [
        "zero_head_and_tail", "zeros_across_chunks", "all_zero", "one_nonzero",
        "signed_zero_and_subnormal_in_zero_runs", "random_sparse",
        "chunk_without_zero", "alternating", "nonzero_first_and_last_of_chunk",
        "zero_run_ends_on_chunk_boundary", "final_partial_chunk_of_zeros",
        "signed_zero_and_subnormal_inside_runs",
    ])
    def test_zero_runs_bytes_equal_json_dumps(self, case):
        rows, cols = {"random_sparse": (40, 100),
                      "final_partial_chunk_of_zeros": (1, 2 * DUMP_CHUNK + 100)
                      }.get(case, (3, DUMP_CHUNK))
        m = np.zeros((rows, cols), dtype=complex)
        flat = m.reshape(-1)
        if case == "zero_head_and_tail":
            flat[5:9] = [1.5, -2j, 0.25 + 0.5j, -1.0]
        elif case == "zeros_across_chunks":
            flat[[3, DUMP_CHUNK - 1, 2 * DUMP_CHUNK + 7]] = [1j, 2.0, -3.0 - 4j]
        elif case == "one_nonzero":
            flat[DUMP_CHUNK + 11] = complex(0.1, -1 / 3)
        elif case == "signed_zero_and_subnormal_in_zero_runs":
            flat[[1, DUMP_CHUNK + 2, 2 * DUMP_CHUNK + 3]] = [
                complex(-0.0, 0.0), complex(0.0, -0.0), complex(5e-324, 0.0)]
        elif case == "random_sparse":
            rng = np.random.default_rng(40)
            mask = rng.random(m.shape) < 0.1
            m[mask] = rng.choice(EDGE_VALUES, size=mask.sum()) + 1j * rng.choice(
                EDGE_VALUES, size=mask.sum())
        elif case == "chunk_without_zero":
            flat[DUMP_CHUNK:2 * DUMP_CHUNK] = np.arange(1, DUMP_CHUNK + 1) * (0.5 - 1j)
        elif case == "alternating":
            flat[::2] = np.arange(flat.size // 2) + 0.25j
        elif case == "nonzero_first_and_last_of_chunk":
            flat[[0, DUMP_CHUNK - 1, DUMP_CHUNK, 2 * DUMP_CHUNK - 1, 3 * DUMP_CHUNK - 1]] = [
                1.0, -2j, 3.5, 0.1 + 0.2j, -1.0]
        elif case == "zero_run_ends_on_chunk_boundary":
            flat[:10] = 1.0
            flat[DUMP_CHUNK:DUMP_CHUNK + 3] = -1j
            flat[2 * DUMP_CHUNK - 1] = 2.0
        elif case == "final_partial_chunk_of_zeros":
            flat[[7, DUMP_CHUNK + 5]] = [1j, -0.5]
        elif case == "signed_zero_and_subnormal_inside_runs":
            flat[3:9] = [1.0, complex(-0.0, 0.0), complex(0.0, 5e-324), -0.0j, 2.0, 1j]
            flat[DUMP_CHUNK - 2:DUMP_CHUNK + 2] = [
                complex(-0.0, -0.0), 5e-324, complex(0.0, -0.0), complex(-5e-324, 0.0)]
        assert dumped(m) == json.dumps(matrix_json(m))

    def test_random_runs_bytes_equal_json_dumps(self):
        rng = np.random.default_rng(20)
        values = np.array([0.0, -0.0, 5e-324, 1.5, -0.25, 1e300])
        for _ in range(2000):
            # Sizes from 1 to 3 * DUMP_CHUNK, log-uniform to keep the test short.
            n = int(np.exp(rng.uniform(0.0, math.log(3 * DUMP_CHUNK + 1))))
            density = rng.random()
            if rng.random() < 0.5:
                nonzero = rng.random(n) < density
            else:
                # Runs of a random length, each all nonzero or all zero.
                span = int(rng.integers(2, 200))
                nonzero = np.repeat(rng.random(n // span + 1) < density, span)[:n]
            m = np.zeros((1, n), dtype=complex)
            k = int(nonzero.sum())
            m[0, nonzero] = rng.choice(values, k) + 1j * rng.choice(values, k)
            assert dumped(m) == json.dumps(matrix_json(m)), n

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (2, DUMP_CHUNK + 3), (0, 4), (4, 0)])
    def test_report_bytes_equal_indented_json_dumps(self, shape):
        m = edge_matrix(*shape)
        m[:, 1::3] = 0
        psi = edge_state(2, 3)
        report = {"b": 1, "z": [0.5, {"y": None}]}
        fh = io.StringIO()
        _dump_report(report, {"m": m, "a": psi}, fh)
        whole = {**report, "m": matrix_json(m), "a": state_json(psi)}
        assert fh.getvalue() == json.dumps(whole, indent=2, sort_keys=True) + "\n"

    def test_report_without_designs_is_json_dumps(self):
        # An "re_im" key or string of the report itself is not a design's.
        report = {"re_im": [], "b": {"re_im": []}, "s": '"re_im": []'}
        fh = io.StringIO()
        _dump_report(report, {}, fh)
        assert fh.getvalue() == json.dumps(report, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("case", [
        "nonzero_first_and_last", "adjacent_nonzero", "gap_longer_than_the_zero_buffer",
        "signed_zero_and_subnormal_parts", "all_zero", "dense_random", "every_other_entry",
    ])
    def test_entry_writer_bytes_equal_json_dumps(self, case):
        m = gap_matrix(case)
        want = json.dumps(matrix_json(m))
        assert dumped(m) == want
        # The same matrix by its nonzero entries: -0.0 and 5e-324 parts are
        # nonzero by bits, and go through the encoder.
        assert dumped(sparse(m)) == want
        # A state with the same entries, to unit norm; where their norm
        # underflows to 0, entry 1 (zero in those cases) is set to 1.
        amp = m.reshape(-1).copy()
        norm = np.linalg.norm(amp)
        if norm > 0:
            amp /= norm
        else:
            amp[1] = 1.0
        psi = PureState(d_a=1, d_b=m.size, amplitudes=amp)
        assert dumped(psi) == json.dumps(state_json(psi))

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0), (1, 1), (3, 5)])
    def test_empty_and_all_zero_matrices_bytes_equal_json_dumps(self, shape):
        m = np.zeros(shape, dtype=complex)
        want = json.dumps(matrix_json(m))
        assert dumped(m) == want
        assert dumped(sparse(m)) == want

    def test_zero_gap_longer_than_the_buffer_spans_several_writes(self):
        m = gap_matrix("gap_longer_than_the_zero_buffer")
        for value in (m, sparse(m)):
            sink = Sink()
            dump_json(value, sink)
            assert b"".join(sink.written).decode("ascii") == json.dumps(matrix_json(m))
            # No write holds more than the buffer's zero entries.  The gap of
            # 2 ZERO_RUN_MAX + 6 zero entries takes three writes, and the
            # ZERO_RUN_MAX + 9 after the last entry two; the 3 before the
            # first go out without their leading separator.
            zero_writes = [w for w in sink.written if w.startswith(b", [0.0, 0.0]")]
            assert max(map(len, zero_writes)) == ZERO_RUN_MAX * len(b", [0.0, 0.0]")
            assert len(zero_writes) == 3 + 2

    @pytest.mark.parametrize("run_max", [1, 2, 3, 7])
    def test_small_zero_buffers_give_the_same_bytes(self, monkeypatch, run_max):
        monkeypatch.setattr(entrate.qcore, "ZERO_RUN_MAX", run_max)
        rng = np.random.default_rng(run_max)
        for _ in range(50):
            n = int(rng.integers(1, 200))
            m = np.zeros((1, n), dtype=complex)
            nonzero = rng.random(n) < rng.random()
            m[0, nonzero] = rng.choice(EDGE_VALUES, nonzero.sum()) + 0.5j
            assert dumped(m) == json.dumps(matrix_json(m))
            assert dumped(sparse(m)) == json.dumps(matrix_json(m))
            fh = io.StringIO()
            _dump_report({"k": 1}, {"m": sparse(m)}, fh)
            whole = {"k": 1, "m": matrix_json(m)}
            assert fh.getvalue() == json.dumps(whole, indent=2, sort_keys=True) + "\n"

    def test_a_stack_of_states_does_not_serialize(self):
        amp = np.full((3, 4), 0.5 + 0j)
        psi = PureState(d_a=2, d_b=2, amplitudes=amp)
        sink = Sink()
        written = sink.written
        with pytest.raises(ValidationError):
            dump_json(psi, sink)
        with pytest.raises(ValidationError):
            _dump_report({}, {"state": psi},
                         io.TextIOWrapper(sink, encoding="ascii", write_through=True))
        assert written == []
        # One slice of the stack serializes.
        one = PureState(d_a=2, d_b=2, amplitudes=amp[0])
        assert dumped(one) == json.dumps(state_json(one))

    def test_writer_never_builds_the_entry_list(self, tmp_path):
        h = build_optimal_hamiltonian(32)
        path = tmp_path / "h.json"
        tracemalloc.start()
        try:
            with open(path, "wb") as fh:
                dump_json(h, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The list of [re, im] pairs of this matrix takes about 128 MB.
        assert peak < 32 * 2**20
        assert json.loads(path.read_text())["rows"] == 1024


def file_text(data: bytes) -> str | None:
    """The text of a file's bytes as the CLI reads it (UTF-8, universal
    newlines), or None when they are not UTF-8."""
    try:
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError:
        return None


def header_dims(head) -> tuple[int, int]:
    """The dimensions of a state header, or else of a matrix header."""
    try:
        return _state_json_dims(head)
    except ValidationError:
        return _matrix_json_shape(head)


def read_compact_header(data: bytes):
    """(header, source) of _read_header for a file's bytes, or None where the
    header declines, and json.load reads the file or rejects it."""
    try:
        head, source = _read_header(io.BytesIO(data), header_dims)
    except ValidationError:
        return None
    return None if source is None else (head, source)


def bulk_read(data: bytes, expected: int | None = None):
    """(header, entries) of a file from the bulk reader, or None where it
    declines.  The reader is told to expect ``expected`` entries, by default
    as many as the file's entry text has pairs."""
    parts = read_compact_header(data)
    if parts is None:
        return None
    head, (_, blocks) = parts
    if expected is None:
        # k pairs have k - 1 boundaries "], [" between them.
        expected = data[data.find(ENTRIES_KEY):].count(b"], [") + 1
    entries = _compact_entries(blocks, expected)
    return None if entries is None else (head, entries)


def compact_pairs(data: bytes) -> bool:
    """Whether a file's bytes after ENTRIES_KEY are pairs of number bytes
    separated by ", ", and then "]}"."""
    body = data[data.find(ENTRIES_KEY) + len(ENTRIES_KEY):]
    skeleton = body[:-2].translate(None, DELETE_NUMBERS)
    return body.endswith(b"]}") and skeleton == b", ".join([b"[, ]"] * ((len(skeleton) + 2) // 6))


# Block sizes small enough for pair boundaries to fall at every offset
# within a block.
SMALL_BLOCKS = [48, 64, 257]


def json_read(data: bytes):
    """(header, entries) of a file from json.loads of its text and
    _entries_from_json; None where either fails."""
    try:
        obj = json.loads(file_text(data))
        pairs = obj["re_im"]
        return {**obj, "re_im": []}, _entries_from_json(obj, "re_im", len(pairs))
    except (ValueError, TypeError, KeyError):
        return None


def same_read(got, want) -> bool:
    """Equal headers (order, keys, values, NaN included) and entry bits."""
    return (want is not None and json.dumps(got[0]) == json.dumps(want[0])
            and same_bits(got[1], want[1]))


# Bytes a mutation writes: number characters, JSON structure, letters of
# NaN/Infinity/null, other whitespace, and a byte that is not UTF-8.
MUTATION_BYTES = b'0123456789.-+eE[], "{}:\n\r\tNaIfnuly\xff'


def mutants(data: bytes, count: int, seed: int):
    """count copies of data with 1-3 random byte replacements, insertions or
    deletions each."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        out = bytearray(data)
        for _ in range(rng.integers(1, 4)):
            pos = int(rng.integers(0, len(out) + 1))
            byte = MUTATION_BYTES[rng.integers(len(MUTATION_BYTES))]
            edit = rng.integers(3)
            if edit == 0 and pos < len(out):
                out[pos] = byte
            elif edit == 1:
                out.insert(pos, byte)
            elif pos < len(out):
                del out[pos]
        yield bytes(out)


class TestBulkReader:
    def test_splits_header_from_flat_entry_text(self):
        head, (_, blocks) = read_compact_header(
            b'{"rows": 1, "cols": 2, "re_im": [[1.5, -0.0], [2, 3e-05]]}')
        assert head == {"rows": 1, "cols": 2, "re_im": []}
        assert same_bits(_compact_entries(blocks, 2),
                         np.array([complex(1.5, -0.0), complex(2, 3e-05)]))

    @pytest.mark.parametrize("value", [
        "dump_matrix", "dump_state", "json_dumps_matrix", "json_dumps_state"])
    def test_reads_compact_files_bit_for_bit(self, value):
        obj = {"dump_matrix": edge_matrix(5, 7), "dump_state": edge_state(3, 4),
               "json_dumps_matrix": edge_matrix(4, 3),
               "json_dumps_state": edge_state(2, 5)}[value]
        if value.startswith("dump"):
            data = dumped(obj).encode()
        else:
            codec = state_json if isinstance(obj, PureState) else matrix_json
            data = json.dumps(codec(obj)).encode()
        got = bulk_read(data)
        assert got is not None
        assert same_read(got, json_read(data))

    @pytest.mark.parametrize("chunk", SMALL_BLOCKS)
    @pytest.mark.parametrize("value", [
        "dump_matrix", "dump_state", "json_dumps_matrix", "json_dumps_state"])
    def test_reads_compact_files_bit_for_bit_in_small_blocks(self, value, chunk, monkeypatch):
        monkeypatch.setattr(entrate.qcore, "READ_CHUNK", chunk)
        self.test_reads_compact_files_bit_for_bit(value)

    @pytest.mark.parametrize("token", [
        "1", "-0", "0", "1E5", "1e+5", "-1.5e-300", "5e-324", "1e400", "-1e400",
        "123456789012345678901234567890", "9007199254740993", "1" + "0" * 308,
        "-0.0", "1e308", "1E+05", "18014398509481985", "-36028797018963971"])
    def test_accepted_numbers_have_json_bits(self, token):
        data = f'{{"d_a": 1, "d_b": 2, "re_im": [[{token}, 0.5], [-0.0, {token}]]}}'.encode()
        got = bulk_read(data)
        assert got is not None
        assert same_read(got, json_read(data))

    @pytest.mark.parametrize("token", [
        "+1", "01", ".5", "5.", "1.e5", "1 2", "", "-", "1e", "1e+", "--1", "1-2",
        "1.5.5", "NaN", "Infinity", "-Infinity", "null", '"1"', "1" + "0" * 400,
        "1" + "0" * 5000])
    def test_declines_what_json_rejects_or_cannot_convert(self, token):
        data = f'{{"rows": 1, "cols": 2, "re_im": [[{token}, 0.5], [1.0, 2.0]]}}'.encode()
        assert bulk_read(data) is None

    @pytest.mark.parametrize("text", [
        pytest.param(json.dumps({"rows": 1, "cols": 2, "re_im": [[1.0, 2.0], [3.0, 4.0]]},
                                indent=2), id="indent-2"),
        pytest.param('{"rows":1,"cols":1,"re_im":[[1.0,2.0]]}', id="no-spaces"),
        pytest.param('{"rows": 1, "cols": 1, "re_im": [[1.0, 2.0]]}\n', id="trailing-newline"),
        pytest.param('{"re_im": [[1.0, 2.0]], "rows": 1, "cols": 1}', id="reordered-header"),
        pytest.param('{"rows": 1, "cols": 1, "re_im": [[9.0, 9.0]], "re_im": [[1.0, 2.0]]}',
                     id="duplicate-key"),
        pytest.param('{"rows": 1, "cols": 1, "re_im": [[1.0, 2.0]], "x": []}',
                     id="trailing-key"),
        pytest.param('{"rows": 1, "cols": 1, "re_im": [[1.0, 2.0], [3.0, 4.0',
                     id="truncated"),
        pytest.param('{"rows": 1, "cols": 1, "re_im": [[1.0, 2.0, 3.0]]}', id="triple"),
        pytest.param('{"rows": 1, "cols": 1, "re_im": [[1.0], [2.0]]}', id="singles"),
        pytest.param('{"rows": 1, "cols": 1, "re_im": [[[1.0, 2.0]]]}', id="nested"),
        pytest.param('{"rows": 1, "cols": 1, "re_im": []}', id="empty"),
        pytest.param('{"rows": 1 "cols": 1, "re_im": [[1.0, 2.0]]}', id="bad-header"),
        pytest.param('\ufeff{"rows": 1, "cols": 1, "re_im": [[1.0, 2.0]]}', id="bom"),
        pytest.param('[{"rows": 1, "cols": 1, "re_im": [[1.0, 2.0]]}]', id="in-a-list"),
        pytest.param('{"a": {"rows": 1, "cols": 1, "re_im": [[1.0, 2.0]]}}', id="nested-key"),
        pytest.param('{"x": ' + "[" * 100000 + "]" * 100000 + ', "re_im": [[1.0, 2.0]]}',
                     id="deep-header"),
    ])
    def test_declines_other_layouts(self, text):
        assert bulk_read(text.encode()) is None

    @pytest.mark.parametrize("chunk", range(37, 45))
    def test_boundary_across_two_blocks_is_found(self, chunk, monkeypatch):
        # Pairs 37 bytes apart, boundary included: at these block sizes some
        # blocks hold no whole boundary "], [", only the start of one that
        # ends in the next.  (At 36 a pair and its boundary outgrow a block.)
        monkeypatch.setattr(entrate.qcore, "READ_CHUNK", chunk)
        pairs = ", ".join(["[0.1234567890123, -0.9876543210987]"] * 16)
        data = ('{"d_a": 4, "d_b": 4, "re_im": [' + pairs + "]}").encode()
        got = bulk_read(data)
        assert got is not None
        assert same_read(got, json_read(data))

    def test_header_longer_than_a_block_declines(self, monkeypatch):
        text = '{"rows": 1, "cols": 1, "re_im": [[1.0, 2.0]]}'
        assert bulk_read(text.encode()) is not None
        monkeypatch.setattr(entrate.qcore, "READ_CHUNK", text.encode().index(ENTRIES_KEY) + 4)
        assert bulk_read(text.encode()) is None

    def test_entry_count_must_match(self):
        data = b'{"rows": 1, "cols": 1, "re_im": [[1.0, 2.0], [3.0, 4.0]]}'
        assert bulk_read(data, 1) is None
        assert bulk_read(data, 3) is None
        assert bulk_read(data, 2) is not None

    def test_number_longer_than_a_block_declines_at_once(self, monkeypatch):
        monkeypatch.setattr(entrate.qcore, "READ_CHUNK", 64)
        # Entry 10 of 400 has a float json reads as 0.5, 200 characters long.
        pairs = ["[0.25, -0.0]"] * 400
        pairs[10] = "[0.5" + "0" * 197 + ", -0.0]"
        head_text = '{"rows": 20, "cols": 20, "re_im": ['
        text = head_text + ", ".join(pairs) + "]}"
        long_at = len(head_text) + 10 * len("[0.25, -0.0], ")
        fh = io.BytesIO(text.encode())
        head, (_, blocks) = _read_header(fh, _matrix_json_shape)
        assert _compact_entries(blocks, 400) is None
        # It stopped within two blocks of the long pair, not at the end.
        assert fh.tell() <= long_at + 2 * 64
        # The file read whole gives the same header, and 0.5 for that number.
        want = json_read(text.encode())
        assert json.dumps(want[0]) == json.dumps(head)
        assert want[1][10] == complex(0.5, -0.0)

    @pytest.mark.parametrize("source", [
        "dump_matrix", "dump_state", "ints", "indent_matrix", "indent_state"])
    def test_mutants_are_declined_or_read_as_json_reads_them(self, source):
        """Differential check against json: 1-3 byte edits of a file either
        make the bulk reader decline or give json's header and entry bits."""
        data = {
            "dump_matrix": lambda: dumped(edge_matrix(3, 4)),
            "dump_state": lambda: dumped(edge_state(2, 3)),
            "ints": lambda: '{"rows": 2, "cols": 1, "re_im": [[1, 0], [-0, 25]]}',
            "indent_matrix": lambda: json.dumps(
                matrix_json(random_hermitian(2, 5)), indent=2),
            "indent_state": lambda: json.dumps(
                state_json(random_state(1, 2, 6)), indent=2),
        }[source]().encode()
        outcomes = {"read": 0, "json_rejected": 0, "pairs_declined": 0, "header_declined": 0}
        for mutant in mutants(data, 10000, seed=len(source)):
            got = bulk_read(mutant)
            if got is not None:
                assert same_read(got, json_read(mutant)), mutant
                outcomes["read"] += 1
            elif not read_compact_header(mutant):
                outcomes["header_declined"] += 1
            elif compact_pairs(mutant):
                outcomes["json_rejected"] += 1
            else:
                outcomes["pairs_declined"] += 1
        if source.startswith("indent"):
            assert outcomes["read"] == 0
        else:
            # The header check, the pair check and json's number grammar
            # were all exercised.
            assert min(outcomes.values()) > 100, outcomes

    @pytest.mark.parametrize("chunk", SMALL_BLOCKS)
    @pytest.mark.parametrize("source", ["dump_matrix", "dump_state", "ints"])
    def test_mutants_in_small_blocks(self, source, chunk, monkeypatch):
        monkeypatch.setattr(entrate.qcore, "READ_CHUNK", chunk)
        self.test_mutants_are_declined_or_read_as_json_reads_them(source)
