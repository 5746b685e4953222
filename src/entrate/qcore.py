"""Dense complex linear algebra for bipartite pure states.

Conventions used throughout the package:

* A pure state on A x B is a complex vector of length d_A * d_B in
  row-major (Kronecker) order, so the amplitude of |a>|b> sits at index
  a * d_B + b.
* Schmidt coefficients are kept nonnegative and sorted nonincreasing.
* All internal logarithms are natural; base conversion happens only at
  output boundaries.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Any, TextIO

import numpy as np

__all__ = [
    "ValidationError",
    "PureState",
    "SchmidtState",
    "schmidt_decompose",
    "assemble_state",
    "spectrum_entropy",
    "random_state",
    "random_hermitian",
    "matrix_to_json",
    "matrix_from_json",
    "matrix_json_shape",
    "state_to_json",
    "state_from_json",
    "state_json_dims",
    "dump_json",
    "split_compact",
    "compact_entries",
    "hermiticity_defect",
]

# Tolerances shared by the validators below.
NORM_TOL = 1e-12
HERM_TOL = 1e-10
UNITARY_TOL = 1e-10

# Largest product dimension accepted when ENTRATE_DIM_CAP is unset or empty.
DEFAULT_DIM_CAP = 4096

# Eigenvalues below this floor contribute nothing to entropies (the
# x log x -> 0 limit).
ENTROPY_EIGEN_FLOOR = 1e-12


class ValidationError(ValueError):
    """An input violated a documented precondition."""


def _check_cap(product: int) -> None:
    """Reject a product dimension above ENTRATE_DIM_CAP, or above
    DEFAULT_DIM_CAP when that variable is unset or empty."""
    raw = os.environ.get("ENTRATE_DIM_CAP", "")
    try:
        cap = int(raw) if raw else DEFAULT_DIM_CAP
    except ValueError:
        raise ValidationError(f"ENTRATE_DIM_CAP must be an integer, got {raw!r}")
    if product > cap:
        raise ValidationError(f"product dimension {product} exceeds cap {cap}")


# Rows per block in hermiticity_defect: temporaries stay HERM_BLOCK x n.
HERM_BLOCK = 128


# Stacks.  The functions of qcore, rate, optimum and oracle.direct_stats
# that take states, decompositions, blocks or Hamiltonians also take stacks
# of them, as do ancilla's coefficients, blocks, objective, constraint and
# arbitration: leading axes index instances, and every instance of a stack
# has the same dimensions.  An unstacked call runs the same code with no
# stack axis.  Each slice of a stacked result holds the bits of the call on
# that slice alone: products are stacked ``@`` with explicit row and column
# axes, sums reduce one flat row per slice.  A stack is rejected when any
# of its slices fails validation.


def _scalar(x: np.ndarray) -> float | np.ndarray:
    """A Python float for an unstacked result, the array of a stacked one."""
    return float(x) if np.ndim(x) == 0 else x


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the last axis, one row-times-column product per slice."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _log_positive(x: np.ndarray) -> np.ndarray:
    """Entrywise log x where x > 0, and 0 elsewhere."""
    return np.log(np.where(x > 0, x, 1.0))


def _vector_norm(v: np.ndarray) -> np.ndarray:
    """Norm of a complex vector, or of each vector of a stack along the last
    axis, as np.linalg.norm takes it: the real and imaginary parts' dot
    products with themselves, summed."""
    return np.sqrt(_dot(v.real, v.real) + _dot(v.imag, v.imag))


def hermiticity_defect(m: np.ndarray) -> float:
    """Max-norm distance of a square matrix, or of any slice of a stack of
    them, from its conjugate transpose.

    Row blocks are compared with the matching column blocks, so no n x n
    temporary is built; one ``np.errstate`` covers every block.  A matrix
    with a NaN or infinite entry reads inf: its difference holds NaN
    (inf - inf) or inf there, and max(0.0, nan) would silently drop the NaN.
    """
    defect = 0.0
    with np.errstate(invalid="ignore"):
        for start in range(0, m.shape[-1], HERM_BLOCK):
            rows = m[..., start:start + HERM_BLOCK, :]
            cols = m[..., :, start:start + HERM_BLOCK]
            block = float(np.abs(rows - cols.conj().swapaxes(-1, -2)).max(initial=0.0))
            if math.isnan(block):
                return math.inf
            defect = max(defect, block)
    return defect


def _check_hamiltonian(h: np.ndarray, n: int, stack: tuple) -> np.ndarray:
    """h as a complex array, checked to be a Hermitian n x n matrix, or a
    stack of them of shape ``stack``."""
    h = np.asarray(h, dtype=complex)
    if h.shape != (*stack, n, n):
        of = f" stack of shape {stack}" if stack else ""
        raise ValidationError(f"expected a {n}x{n} Hamiltonian{of}, got {h.shape}")
    if hermiticity_defect(h) > HERM_TOL:
        raise ValidationError("Hamiltonian must be Hermitian")
    return h


def _unitarity_defect(u: np.ndarray) -> float:
    """Max-norm distance of U^H U from the identity over a stack, subtracted
    on the diagonal only.  A matrix with a NaN or infinite entry reads inf,
    before any product is formed."""
    if not np.isfinite(u).all():
        return math.inf
    gram = u.conj().swapaxes(-1, -2) @ u
    diag = np.arange(u.shape[-1])
    gram[..., diag, diag] -= 1.0
    return float(np.abs(gram).max(initial=0.0))


@dataclass(frozen=True)
class PureState:
    """Normalized pure state of a d_a x d_b bipartite system, or a stack of
    them: ``amplitudes`` has shape (..., d_a * d_b)."""

    d_a: int
    d_b: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.d_a < 1 or self.d_b < 1:
            raise ValidationError("subsystem dimensions must be >= 1")
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim == 0 or amp.shape[-1] != self.d_a * self.d_b:
            raise ValidationError(
                f"expected {self.d_a * self.d_b} amplitudes, got shape {amp.shape}"
            )
        norm = _vector_norm(amp)
        # Written so that a NaN norm fails too.
        bad = ~(np.abs(norm - 1.0) <= NORM_TOL)
        if bad.any():
            worst = float(norm[bad].flat[0]) if norm.ndim else float(norm)
            raise ValidationError(f"state norm {worst!r} is not 1 within {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amp)

    def as_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to d_a x d_b (rows index subsystem A)."""
        return self.amplitudes.reshape(*self.amplitudes.shape[:-1], self.d_a, self.d_b)


@dataclass(frozen=True)
class SchmidtState:
    """Schmidt form of a pure state, or of a stack of them.

    ``coefficients`` holds the nonincreasing Schmidt coefficients C_i
    (their squares sum to one) and ``basis_a`` / ``basis_b`` are the
    unitaries whose columns are the Schmidt vectors, so the state is
    sum_i C_i basis_a[:, i] (x) basis_b[:, i].  A stack has coefficients of
    shape (..., d) and bases of shape (..., d_a, d_a) and (..., d_b, d_b).
    """

    coefficients: np.ndarray
    d_a: int
    d_b: int
    basis_a: np.ndarray
    basis_b: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coefficients, dtype=float)
        d = min(self.d_a, self.d_b)
        if c.ndim == 0 or c.shape[-1] != d:
            raise ValidationError(f"expected {d} coefficients, got shape {c.shape}")
        stack = c.shape[:-1]
        # Each test is written so that a NaN fails it.
        if c.size and not c.min() >= 0:
            raise ValidationError("Schmidt coefficients must be nonnegative")
        if not (np.abs(_dot(c, c) - 1.0) <= NORM_TOL).all():
            raise ValidationError("squared Schmidt coefficients must sum to 1")
        if d > 1 and c.size and not (c[..., 1:] - c[..., :-1]).max() <= 1e-14:
            raise ValidationError("Schmidt coefficients must be sorted nonincreasing")
        for name, u, dim in (("basis_a", self.basis_a, self.d_a),
                             ("basis_b", self.basis_b, self.d_b)):
            u = np.asarray(u, dtype=complex)
            if u.shape != (*stack, dim, dim):
                raise ValidationError(f"{name} must be {dim}x{dim}")
            if not _unitarity_defect(u) <= UNITARY_TOL:
                raise ValidationError(f"{name} is not unitary")
            object.__setattr__(self, name, u)
        object.__setattr__(self, "coefficients", c)

    @property
    def rank_dim(self) -> int:
        return int(self.coefficients.shape[-1])


def schmidt_decompose(psi: PureState) -> SchmidtState:
    """Schmidt decomposition via singular value decomposition, of a state
    or of each state of a stack (one stacked SVD).

    The amplitude matrix is factored as U diag(C) V^H; singular values
    (already sorted nonincreasing) become the coefficients, and the
    columns of U and conj-transpose rows of V^H become the local bases.
    """
    u, s, vh = np.linalg.svd(psi.as_matrix())
    # Columns of vh.T (not its conjugate) are the B-side Schmidt vectors:
    # with that choice sum_i C_i u[:, i] (x) vh.T[:, i] equals U diag(C) V^H.
    return SchmidtState(
        coefficients=s,
        d_a=psi.d_a,
        d_b=psi.d_b,
        basis_a=u,
        basis_b=vh.swapaxes(-1, -2),
    )


def assemble_state(state: SchmidtState) -> PureState:
    """Rebuild the pure state sum_i C_i |i>_A |i>_B in the stored bases, or
    the stack of states of a stacked decomposition."""
    d = state.rank_dim
    m = (state.basis_a[..., :d] * state.coefficients[..., None, :]) @ \
        state.basis_b[..., :d].swapaxes(-1, -2)
    return PureState(d_a=state.d_a, d_b=state.d_b,
                     amplitudes=m.reshape(*m.shape[:-2], state.d_a * state.d_b))


def spectrum_entropy(p: np.ndarray) -> float | np.ndarray:
    """Entropy -sum p log p of a probability spectrum, in nats, or of each
    spectrum of a stack along the last axis.

    Entries at or below ENTROPY_EIGEN_FLOOR contribute nothing: they are
    masked out of the sum, so a sorted spectrum, whose kept entries are
    contiguous, sums exactly as its kept entries would alone.
    """
    kept = p > ENTROPY_EIGEN_FLOOR
    terms = p * np.log(np.where(kept, p, 1.0))
    return _scalar(-np.add.reduce(terms, axis=-1, where=kept))


def _random_amplitudes(n: int, seeds: list) -> np.ndarray:
    """Normalized complex Gaussian vectors of length n, one per seed, as an
    array of shape (len(seeds), n).

    Each is divided by its norm as np.linalg.norm takes it, so a row holds
    the bits of the vector drawn and normalized alone.  Nothing is
    validated: wrap the rows in one PureState.
    """
    z = np.empty((len(seeds), n), dtype=complex)
    for row, seed in zip(z, seeds):
        rng = np.random.default_rng(seed)
        row[:] = rng.normal(size=n) + 1j * rng.normal(size=n)
    return z / _vector_norm(z)[:, None]


def random_state(d_a: int, d_b: int, seed: Any) -> PureState:
    """Haar-like random pure state from a normalized complex Gaussian."""
    if d_a < 1 or d_b < 1:
        raise ValidationError("subsystem dimensions must be >= 1")
    return PureState(d_a=d_a, d_b=d_b,
                     amplitudes=_random_amplitudes(d_a * d_b, [seed])[0])


def random_hermitian(n: int, seed: Any) -> np.ndarray:
    """Random n x n Hermitian matrix (A + A^H)/2 of a complex Gaussian A."""
    if n < 1:
        raise ValidationError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


# --- JSON codec -----------------------------------------------------------
#
# Matrices travel as {"rows": n, "cols": m, "re_im": [[re, im], ...]} with
# entries in row-major order; states use the same entry layout keyed by
# their subsystem dimensions.

# Entries per json.dumps call when dump_json streams a file.
DUMP_CHUNK = 4096

# An entry whose bits are all zero, as json.dumps writes it.
ZERO_PAIR = "[0.0, 0.0]"


# The layouts return the header fields and the entries as one contiguous
# complex vector in row-major order.
def _matrix_layout(m: np.ndarray) -> tuple[dict, np.ndarray]:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValidationError("only 2-D matrices serialize")
    head = {"rows": int(m.shape[0]), "cols": int(m.shape[1])}
    return head, np.ascontiguousarray(m).reshape(-1)


def _state_layout(psi: PureState) -> tuple[dict, np.ndarray]:
    return {"d_a": psi.d_a, "d_b": psi.d_b}, np.ascontiguousarray(psi.amplitudes)


def _pairs(flat: np.ndarray) -> list:
    """[[re, im], ...] of a contiguous complex vector, as Python floats."""
    return flat.view(float).reshape(-1, 2).tolist()


def matrix_to_json(m: np.ndarray) -> dict:
    head, flat = _matrix_layout(m)
    return {**head, "re_im": _pairs(flat)}


def state_to_json(psi: PureState) -> dict:
    head, flat = _state_layout(psi)
    return {**head, "re_im": _pairs(flat)}


def _chunk_text(flat: np.ndarray) -> str:
    """``json.dumps(_pairs(flat))`` without its outer brackets.

    Entries whose two words are both zero are written as the constant
    ZERO_PAIR and only the others go through the C encoder.  The test is on
    bits, not values: -0.0 is not zero here, since its text differs.
    """
    words = flat.view(np.uint64).reshape(-1, 2)
    nonzero = (words[:, 0] | words[:, 1]) != 0
    if not nonzero.any():
        return ZERO_PAIR + (", " + ZERO_PAIR) * (flat.size - 1)
    # Encode the nonzero entries in one call and splice them in between the
    # zeros; a pair's text holds no bracket, so the list splits at "], [".
    texts = np.empty(flat.size, dtype=object)
    texts.fill(ZERO_PAIR[1:-1])
    texts[nonzero] = json.dumps(_pairs(flat[nonzero]))[2:-2].split("], [")
    return "[" + "], [".join(texts.tolist()) + "]"


def dump_json(value: PureState | np.ndarray, fh: TextIO) -> None:
    """Write ``json.dumps`` of ``state_to_json(value)`` for a state, else of
    ``matrix_to_json(value)``, to a text file, byte for byte.

    The entries go out DUMP_CHUNK at a time through :func:`_chunk_text`,
    so the full list of [re, im] pairs is never built and zero entries are
    never formatted.
    """
    if isinstance(value, PureState):
        head, flat = _state_layout(value)
    else:
        head, flat = _matrix_layout(value)
    # json.dumps of the header with an empty entry list ends in '[]}'.
    fh.write(json.dumps({**head, "re_im": []})[:-2])
    for start in range(0, flat.size, DUMP_CHUNK):
        if start:
            fh.write(", ")
        fh.write(_chunk_text(flat[start:start + DUMP_CHUNK]))
    fh.write("]}")


def _entries_from_json(obj: dict, key: str, expected: int) -> np.ndarray:
    pairs = obj.get(key)
    if not isinstance(pairs, list) or len(pairs) != expected:
        raise ValidationError(f"'{key}' must be a list of {expected} [re, im] pairs")
    # Bulk path: when every entry is a two-element list, convert them all in
    # one numpy call.  numpy reads a JSON null as NaN, so entries holding a
    # NaN take the entry-by-entry path below, which tells the two apart.
    if set(map(type, pairs)) == {list} and set(map(len, pairs)) == {2}:
        try:
            flat = np.fromiter(itertools.chain.from_iterable(pairs), float, 2 * expected)
        except (TypeError, ValueError, OverflowError):
            flat = None
        if flat is not None and not np.isnan(flat).any():
            return flat.view(complex)
    out = np.empty(expected, dtype=complex)
    for i, pair in enumerate(pairs):
        try:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise TypeError
            out[i] = complex(float(pair[0]), float(pair[1]))
        # OverflowError: an integer too large for a float.
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"entry {i} of '{key}' is not an [re, im] pair") from None
    return out


# --- Bulk reader for the compact layout -------------------------------------
#
# json.load of a 1024 x 1024 matrix builds a million [re, im] lists, and that,
# not the number parsing, is most of its cost.  A file in the layout that
# json.dumps writes (and dump_json, byte for byte) is read instead as one flat
# list of numbers: its pair structure is checked on the text, and json's own
# scanner checks the number grammar and gives the floats.

# The entry key as json.dumps writes it; the entries must be the last key.
ENTRIES_KEY = '"re_im": ['
# Deletes the characters of a JSON number.  From the entry text of k pairs
# that must leave exactly "[, ], [, ], ..., [, ]".
DELETE_NUMBERS = str.maketrans("", "", "0123456789.-+eE")


def split_compact(text: str) -> tuple[dict, str] | None:
    """Header and entry text of a JSON text in json.dumps' compact layout.

    The header is the object parsed with an empty "re_im" list, so its
    dimensions can be checked before any number is read.  The entry text is
    "[re, im], [re, im], ..." turned into one flat JSON list "[re, im, re,
    im, ...]", for :func:`compact_entries`.  Returns None when the entries are
    not the last key, or not pairs separated by ", " and nothing else, or the
    header does not parse; the text is then for json.loads to read whole.
    """
    start = text.find(ENTRIES_KEY)
    if start < 0 or not text.endswith("]}"):
        return None
    try:
        head = json.loads(text[:start] + ENTRIES_KEY + "]}")
    except (ValueError, RecursionError):
        return None
    body = text[start + len(ENTRIES_KEY):-2]
    # The caller hands the text over: free it before the copies below.
    del text
    skeleton = body.translate(DELETE_NUMBERS)
    pairs = (len(skeleton) + 2) // 6
    if pairs < 1 or skeleton != "[, ]" + ", [, ]" * (pairs - 1):
        return None
    return head, body.replace("], [", ", ")


def compact_entries(text: str, expected: int) -> np.ndarray | None:
    """The complex entries in the flat list text of :func:`split_compact`.

    json.loads parses the numbers, so the same text is accepted and gives
    the same float bits as json.loads of the whole file.  Returns None when
    json rejects a number, an integer is too large for a float, or the list
    does not hold ``expected`` pairs; the file is then read whole, so that
    its failure reads as it would without this reader.
    """
    try:
        values = json.loads(text)
        if len(values) != 2 * expected:
            return None
        return np.array(values, dtype=float).view(complex)
    except (ValueError, OverflowError):
        return None


def _json_dims(obj: Any, kind: str, keys: tuple[str, str]) -> tuple[int, int]:
    if not isinstance(obj, dict):
        raise ValidationError(f"{kind} JSON must be an object")
    try:
        return int(obj[keys[0]]), int(obj[keys[1]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"{kind} JSON needs integer '{keys[0]}' and '{keys[1]}'"
        ) from exc


def matrix_json_shape(obj: Any) -> tuple[int, int]:
    """(rows, cols) of a matrix JSON object, read without decoding entries."""
    return _json_dims(obj, "matrix", ("rows", "cols"))


def state_json_dims(obj: Any) -> tuple[int, int]:
    """(d_a, d_b) of a state JSON object, read without decoding entries."""
    return _json_dims(obj, "state", ("d_a", "d_b"))


# ``entries``, when given, are the object's entries already decoded (by
# compact_entries) and its "re_im" list is not read.
def matrix_from_json(obj: dict, entries: np.ndarray | None = None) -> np.ndarray:
    rows, cols = matrix_json_shape(obj)
    if rows < 1 or cols < 1:
        raise ValidationError("matrix dimensions must be >= 1")
    if entries is None:
        entries = _entries_from_json(obj, "re_im", rows * cols)
    return entries.reshape(rows, cols)


def state_from_json(obj: dict, entries: np.ndarray | None = None) -> PureState:
    d_a, d_b = state_json_dims(obj)
    if entries is None:
        entries = _entries_from_json(obj, "re_im", d_a * d_b)
    return PureState(d_a=d_a, d_b=d_b, amplitudes=entries)
