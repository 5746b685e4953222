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

import contextlib
import io
import itertools
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, BinaryIO, Callable, Iterator, TextIO

import numpy as np

__all__ = [
    "ValidationError",
    "PureState",
    "SchmidtState",
    "schmidt_decompose",
    "assemble_state",
    "random_state",
    "random_hermitian",
    "matrix_to_json",
    "matrix_from_json",
    "state_to_json",
    "state_from_json",
    "dump_json",
    "load_pair",
    "hermiticity_defect",
]

# Tolerances shared by the validators below.
NORM_TOL = 1e-12
HERM_TOL = 1e-10

# Largest product dimension accepted when ENTRATE_DIM_CAP is unset or empty.
DEFAULT_DIM_CAP = 4096


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


# Tile side in hermiticity_defect, and rows per block in oracle._norm_1.
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

    Tiles of HERM_BLOCK x HERM_BLOCK are compared in pairs, (i, j) with the
    transpose of (j, i) for i <= j only: |H_ij - conj(H_ji)| has the bits of
    |H_ji - conj(H_ij)|, so the lower tiles would repeat the upper ones.  No
    n x n temporary is built, and one ``np.errstate`` covers every tile.  A
    matrix with a NaN or infinite entry reads inf: its difference holds NaN
    (inf - inf) or inf there, and max(0.0, nan) would silently drop the NaN.
    """
    n = m.shape[-1]
    defect = 0.0
    with np.errstate(invalid="ignore"):
        for i in range(0, n, HERM_BLOCK):
            for j in range(i, n, HERM_BLOCK):
                upper = m[..., i:i + HERM_BLOCK, j:j + HERM_BLOCK]
                lower = m[..., j:j + HERM_BLOCK, i:i + HERM_BLOCK]
                tile = float(np.abs(upper - lower.conj().swapaxes(-1, -2)).max(initial=0.0))
                if math.isnan(tile):
                    return math.inf
                defect = max(defect, tile)
    return defect


def _check_hermitian(m: np.ndarray, message: str) -> None:
    """Raise ValidationError(message) unless each slice of m has a
    hermiticity_defect within HERM_TOL of its largest entry, or of 1 if that
    is smaller: rounding grows with the entries.  The scale is at least 1,
    so one absolute pass settles the common case.  A NaN or infinite entry
    fails: its defect is inf, over a finite scale or (as NaN) over inf."""
    if hermiticity_defect(m) <= HERM_TOL:
        return
    for i in np.ndindex(m.shape[:-2]):
        scale = max(1.0, float(np.abs(m[i]).max(initial=0.0)))
        if not hermiticity_defect(m[i]) / scale <= HERM_TOL:
            raise ValidationError(message)


def _check_hamiltonian(h: np.ndarray, n: int, stack: tuple) -> np.ndarray:
    """h as a complex array, checked to be a Hermitian n x n matrix, or a
    stack of them of shape ``stack``."""
    h = np.asarray(h, dtype=complex)
    if h.shape != (*stack, n, n):
        of = f" stack of shape {stack}" if stack else ""
        raise ValidationError(f"expected a {n}x{n} Hamiltonian{of}, got {h.shape}")
    _check_hermitian(h, "Hamiltonian must be Hermitian")
    return h


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
    (their squares sum to the squared norm of the state, 1 within
    PureState's rule) and ``basis_a`` / ``basis_b`` are the unitaries whose
    columns are the Schmidt vectors, so the state is
    sum_i C_i basis_a[:, i] (x) basis_b[:, i].  A stack has coefficients of
    shape (..., d) and bases of shape (..., d_a, d_a) and (..., d_b, d_b).

    An output record of :func:`schmidt_decompose` and
    ``optimum.build_optimal_state``, which guarantee these properties; it
    is not validated on construction.
    """

    coefficients: np.ndarray
    d_a: int
    d_b: int
    basis_a: np.ndarray
    basis_b: np.ndarray

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


# --- Seeded draws -----------------------------------------------------------
#
# The helpers take rows of real normals, one instance per row, so that
# verify can draw a block of instances from one generator call.


def _unit_vectors(x: np.ndarray) -> np.ndarray:
    """Normalized complex Gaussian vectors x[:, :n] + i x[:, n:] from real
    normals x of shape (S, 2n), as an (S, n) array.

    Each is divided by its norm as np.linalg.norm takes it, so a row holds
    the bits of the vector drawn and normalized alone.  Nothing is
    validated: wrap the rows in one PureState.
    """
    n = x.shape[1] // 2
    z = x[:, :n] + 1j * x[:, n:]
    return z / _vector_norm(z)[:, None]


def _hermitians(x: np.ndarray, n: int) -> np.ndarray:
    """(A + A^H)/2 for A = x[:, :n^2] + i x[:, n^2:] read as n x n, from real
    normals x of shape (S, 2 n^2), as an (S, n, n) stack."""
    a = (x[:, :n * n] + 1j * x[:, n * n:]).reshape(-1, n, n)
    return (a + a.conj().swapaxes(-1, -2)) / 2


def random_state(d_a: int, d_b: int, seed: Any) -> PureState:
    """Haar-like random pure state from a normalized complex Gaussian."""
    if d_a < 1 or d_b < 1:
        raise ValidationError("subsystem dimensions must be >= 1")
    x = np.random.default_rng(seed).normal(size=(1, 2 * d_a * d_b))
    return PureState(d_a=d_a, d_b=d_b, amplitudes=_unit_vectors(x)[0])


def random_hermitian(n: int, seed: Any) -> np.ndarray:
    """Random n x n Hermitian matrix (A + A^H)/2 of a complex Gaussian A."""
    if n < 1:
        raise ValidationError("dimension must be >= 1")
    return _hermitians(np.random.default_rng(seed).normal(size=(1, 2 * n * n)), n)[0]


# --- JSON codec -----------------------------------------------------------
#
# Matrices travel as {"rows": n, "cols": m, "re_im": [[re, im], ...]} with
# entries in row-major order; states use the same entry layout keyed by
# their subsystem dimensions.

# Entries per json.dumps call when dump_json streams a file.
DUMP_CHUNK = 4096

# A zero entry as json.dumps writes it after a list's separator, and the
# most zero entries per write (786 KB): a longer run takes several writes.
ZERO_PAIR = b", [0.0, 0.0]"
ZERO_RUN_MAX = 1 << 16


# The layouts return the header fields and the entries as one contiguous
# complex vector in row-major order.
def _matrix_layout(m: np.ndarray) -> tuple[dict, np.ndarray]:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValidationError("only 2-D matrices serialize")
    head = {"rows": int(m.shape[0]), "cols": int(m.shape[1])}
    return head, np.ascontiguousarray(m).reshape(-1)


def _state_layout(psi: PureState) -> tuple[dict, np.ndarray]:
    if psi.amplitudes.ndim != 1:
        raise ValidationError("only a single state serializes, not a stack")
    return {"d_a": psi.d_a, "d_b": psi.d_b}, np.ascontiguousarray(psi.amplitudes)


def _nonzero_groups(flat: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(flat indices, values) of the entries of a contiguous complex vector
    with a nonzero bit, for each DUMP_CHUNK entries of it that hold one:
    -0.0 is not zero here, since its text differs."""
    for start in range(0, flat.size, DUMP_CHUNK):
        chunk = flat[start:start + DUMP_CHUNK]
        words = chunk.view(np.uint64)
        keep = np.flatnonzero(words[0::2] | words[1::2])
        if keep.size:
            yield keep + start, chunk[keep]


def _layout(value: PureState | np.ndarray | tuple) -> tuple[dict, int, Iterator]:
    """The header fields of a state or a matrix, its entry count, and its
    nonzero entries in groups of at most DUMP_CHUNK.  A matrix may also be a
    tuple (shape, index, values) of those entries at ascending flat indices."""
    if isinstance(value, tuple):
        (rows, cols), index, values = value
        groups = ((index[i:i + DUMP_CHUNK], values[i:i + DUMP_CHUNK])
                  for i in range(0, index.size, DUMP_CHUNK))
        return {"rows": rows, "cols": cols}, rows * cols, groups
    head, flat = _state_layout(value) if isinstance(value, PureState) else _matrix_layout(value)
    return head, flat.size, _nonzero_groups(flat)


def _pairs(flat: np.ndarray) -> list:
    """[[re, im], ...] of a contiguous complex vector, as Python floats."""
    return flat.view(float).reshape(-1, 2).tolist()


def matrix_to_json(m: np.ndarray) -> dict:
    head, flat = _matrix_layout(m)
    return {**head, "re_im": _pairs(flat)}


def state_to_json(psi: PureState) -> dict:
    head, flat = _state_layout(psi)
    return {**head, "re_im": _pairs(flat)}


def _entry_pieces(size: int, groups: Iterator) -> Iterator[bytes | memoryview]:
    """Nonempty pieces of bytes that join to ``", " + json.dumps(pairs)[1:-1]``
    for a list of size [re, im] pairs whose nonzero entries groups gives
    (see _layout); each piece starts at an entry's separator ", ".

    A group's entries go through one json.dumps call, cut where zero entries
    fall between them.  Zero runs are slices of one buffer of at most
    ZERO_RUN_MAX zero entries, made per call, not at import.
    """
    run = memoryview(ZERO_PAIR * min(size, ZERO_RUN_MAX))

    def zeros(count: int) -> Iterator[memoryview]:
        while count > 0:
            yield run[:min(count, ZERO_RUN_MAX) * len(ZERO_PAIR)]
            count -= ZERO_RUN_MAX

    at = 0
    for index, values in groups:
        text = (", " + json.dumps(_pairs(values))[1:-1]).encode()
        # The zero entries before each entry, and where its text starts: a
        # pair's text holds no bracket but its own.
        gaps = np.diff(index, prepend=at - 1) - 1
        cuts = np.flatnonzero(gaps)
        starts = np.flatnonzero(np.frombuffer(text, np.uint8) == ord("["))[cuts] - 2
        view, done = memoryview(text), 0
        for gap, start in zip(gaps[cuts].tolist(), starts.tolist()):
            if start > done:
                yield view[done:start]
            yield from zeros(gap)
            done = start
        yield view[done:]
        at = int(index[-1]) + 1
    yield from zeros(size - at)


def dump_json(value: PureState | np.ndarray | tuple, fh: BinaryIO) -> None:
    """Write ``json.dumps`` of ``state_to_json(value)`` for a state, else of
    ``matrix_to_json`` of the matrix (which may be given by its nonzero
    entries, see _layout), to a binary file, byte for byte.

    The entries go out through :func:`_entry_pieces`, so the full list of
    [re, im] pairs is never built and zero entries are never formatted.  A
    stack of states or anything but a 2-D matrix is rejected before
    anything is written.
    """
    head, size, groups = _layout(value)
    # json.dumps of the header with an empty entry list ends in '[]}'.
    fh.write(json.dumps({**head, "re_im": []})[:-2].encode())
    pieces = _entry_pieces(size, groups)
    # The list's first entry has no separator before it.
    fh.write(next(pieces, b"")[2:])
    fh.writelines(pieces)
    fh.write(b"]}")


def _indented(text: str, pad: str) -> str:
    """Entry text ", [re, im], ..." of :func:`_entry_pieces` in the layout of
    ``json.dumps(..., indent=2)``, for a list whose items start on a new line
    at pad, each after a ",".  A pair's text holds no bracket, and ", " only
    between its two numbers once the separators are laid out."""
    inner = pad + "  "
    return (text.replace(", [", "," + pad + "[").replace(", ", "," + inner)
            .replace("[", "[" + inner).replace("]", pad + "]"))


def _dump_report(report: dict, designs: dict, fh: TextIO) -> None:
    """Write ``json.dumps({**report, **designs}, indent=2, sort_keys=True)``
    and a newline, where each state or matrix (see _layout) in designs
    stands for its state_to_json or matrix_to_json form, byte for byte.

    Their entry lists are never built for the pure-Python indent encoder:
    the report is encoded with an empty entry list per design, and each
    design's entry pieces, laid out as that encoder lays them out, go in its
    place.
    """
    layouts = {key: _layout(designs[key]) for key in sorted(designs)}
    skeleton = {**report, **{key: {**head, "re_im": []}
                             for key, (head, _, _) in layouts.items()}}
    parts = json.dumps(skeleton, indent=2, sort_keys=True).split('"re_im": []')
    fh.write(parts[0])
    for (_, size, groups), before, part in zip(layouts.values(), parts, parts[1:]):
        # The key's line starts at the last newline of the text before it.
        indent = "\n" + " " * (len(before) - before.rfind("\n") - 1)
        pieces = (_indented(str(piece, "ascii"), indent + "  ")
                  for piece in _entry_pieces(size, groups))
        fh.write('"re_im": [' + next(pieces, ",")[1:])
        for piece in pieces:
            fh.write(piece)
        fh.write((indent if size else "") + "]")
        fh.write(part)
    fh.write("\n")


def _entries_from_json(obj: dict, key: str, expected: int) -> np.ndarray:
    pairs = obj.get(key)
    if not isinstance(pairs, list) or len(pairs) != expected:
        raise ValidationError(f"'{key}' must be a list of {expected} [re, im] pairs")
    # An entry is two JSON numbers: ints or floats, not strings or booleans,
    # which float() would read too.  Bulk path: when every entry is such a
    # pair, convert them all in one numpy call; the entry-by-entry path below
    # finds the entry at fault.
    if (set(map(type, pairs)) == {list} and set(map(len, pairs)) == {2}
            and set(map(type, itertools.chain.from_iterable(pairs))) <= {int, float}):
        try:
            flat = np.fromiter(itertools.chain.from_iterable(pairs), float, 2 * expected)
            return flat.view(complex)
        except OverflowError:
            pass
    out = np.empty(expected, dtype=complex)
    for i, pair in enumerate(pairs):
        try:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and set(map(type, pair)) <= {int, float}):
                raise TypeError
            out[i] = complex(float(pair[0]), float(pair[1]))
        # OverflowError: an integer too large for a float.
        except (TypeError, OverflowError):
            raise ValidationError(f"entry {i} of '{key}' is not an [re, im] pair") from None
    return out


# --- Bulk reader for the compact layout -------------------------------------
#
# json.load of a 1024 x 1024 matrix builds a million [re, im] lists, and that,
# not the number parsing, is most of its cost.  A file in the layout that
# json.dumps writes (and dump_json, byte for byte) is read instead as bytes, in
# blocks of READ_CHUNK bytes, into one array: each block's pairs are checked on
# its bytes, and json's own scanner checks the number grammar and gives the
# floats.
READ_CHUNK = 1 << 20
# The entry key as json.dumps writes it; the entries must be the last key.
ENTRIES_KEY = b'"re_im": ['
# The bytes of a JSON number, for bytes.translate to delete.  From the entry
# text of k pairs that must leave exactly "[, ], [, ], ..., [, ]".
DELETE_NUMBERS = b"0123456789.-+eE"
# Turns brackets into spaces, so that pairs read as one flat list.
_UNBRACKET = bytes.maketrans(b"[]", b"  ")
# json parses numbers in scalar SSE code, which runs about 1.5x slower after
# a complex matrix product in the same process (OpenBLAS's zgemm leaves the
# upper halves of the AVX registers dirty) until a vectorized numpy loop
# clears them; a float add over these 64 entries is one.
_VECTOR_RESET = np.zeros(64)


@contextlib.contextmanager
def _open_input(path: str) -> Iterator[BinaryIO]:
    """The file at path, open for reading bytes.  One that cannot seek, such
    as a pipe, is first copied READ_CHUNK bytes at a time to a temporary
    file, which is yielded in its place and deleted on exit: _read_header
    streams it as a regular file, and json.load can read it again."""
    with open(path, "rb") as fh:
        if fh.seekable():
            yield fh
            return
        with tempfile.TemporaryFile() as spool:
            shutil.copyfileobj(fh, spool, READ_CHUNK)
            spool.seek(0)
            yield spool


def _load_json(fh: BinaryIO) -> Any:
    """The whole file read by json.load from its start, as text: UTF-8 with
    universal newlines, as ``open(path, encoding="utf-8")`` reads it, so its
    objects and error messages are that text's.  fh stays open."""
    fh.seek(0)
    text = io.TextIOWrapper(fh, encoding="utf-8")
    try:
        return json.load(text)
    except (ValueError, RecursionError) as exc:
        # Not JSON, not UTF-8, an integer with more digits than int()
        # reads, or lists nested deeper than the recursion limit.
        raise ValidationError(str(exc)) from None
    finally:
        text.detach()


def _read_header(fh: BinaryIO, dims: Callable) -> tuple[Any, tuple | None]:
    """(header, source) of a file in json.dumps' compact layout: the header,
    decoded as UTF-8 from its first block, parsed with an empty "re_im"
    list, and the source that state_from_json or matrix_from_json streams
    its entries from.  Any other file gives (json.load of it, None): one
    whose first block holds no header that parses with dimensions that
    dims (_state_json_dims or _matrix_json_shape) accepts, so that
    json.load reports what is wrong, or reads a file whose entries are not
    its last key.  fh is a file of bytes that can seek (see _open_input)."""
    try:
        block = fh.read(READ_CHUNK)
        start = block.index(ENTRIES_KEY)
        head = json.loads((block[:start] + ENTRIES_KEY + b"]}").decode("utf-8"))
        dims(head)
        # A list iterator lets go of its list once it is used up.
        rest = iter([block[start + len(ENTRIES_KEY):]])
        return head, (fh, itertools.chain(rest, iter(lambda: fh.read(READ_CHUNK), b"")))
    # Not UTF-8, no entry key, too deep, or (ValidationError) bad dimensions.
    except (ValueError, RecursionError):
        return _load_json(fh), None


def _fill(out: np.ndarray, filled: int, text: bytes) -> int:
    """Parse entry text "[re, im], ..., [re, im]" into out from index filled
    on, and return the index after it.  Its brackets become spaces, so that
    json.loads reads one flat list and gives the bits json.load would."""
    skeleton = text.translate(None, DELETE_NUMBERS)
    if skeleton != b"[, ]" + b", [, ]" * ((len(skeleton) - 4) // 6):
        raise ValueError("not compact entry text")
    values = json.loads(b"[%b]" % text.translate(_UNBRACKET))
    # At least two values: a slice too short to hold them raises.
    out[filled:filled + len(values)] = values
    return filled + len(values)


def _compact_entries(blocks: Iterator[bytes], expected: int) -> np.ndarray | None:
    """The ``expected`` complex entries of the entry text of _read_header,
    each block parsed up to the last pair boundary "], [" of the text
    carried from the blocks before and the block, the end up to "]}".
    Returns None when a pair is longer than a block, the text is not pairs
    separated by ", ", json rejects a number, an integer is too large for a
    float, or the count is not exact: the file is for json.load."""
    carry, filled = b"", 0
    _VECTOR_RESET + 0.0
    try:
        out = np.empty(2 * expected)
        for block in blocks:
            # A boundary in the block is the last; only a block without one
            # is joined to the carry to look for one across the two.
            cut = block.rfind(b"], [") + 1
            if not cut:
                block, carry = carry + block, b""
                cut = block.rfind(b"], [") + 1
            if cut:
                filled = _fill(out, filled, carry + memoryview(block)[:cut])
                carry = block[cut + 2:]
            else:
                carry = block
            if len(carry) > READ_CHUNK:
                return None
        if not carry.endswith(b"]}") or _fill(out, filled, carry[:-2]) != out.size:
            return None
    except (ValueError, OverflowError):
        return None
    return out.view(complex)


def _json_dims(obj: Any, kind: str, keys: tuple[str, str], below_one: str) -> tuple[int, int]:
    """The two dimensions of a JSON object of the kind, read without
    decoding entries: JSON integers of at least 1, the one rule for the
    dimensions of both file kinds."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{kind} JSON must be an object")
    dims = obj.get(keys[0]), obj.get(keys[1])
    # A JSON integer only: int() would also read "1", 2.5 and true.
    if not (type(dims[0]) is int and type(dims[1]) is int):
        raise ValidationError(f"{kind} JSON needs integer '{keys[0]}' and '{keys[1]}'")
    if min(dims) < 1:
        raise ValidationError(below_one)
    return dims


def _matrix_json_shape(obj: Any) -> tuple[int, int]:
    return _json_dims(obj, "matrix", ("rows", "cols"), "matrix dimensions must be >= 1")


def _state_json_dims(obj: Any) -> tuple[int, int]:
    return _json_dims(obj, "state", ("d_a", "d_b"), "subsystem dimensions must be >= 1")


def _reread(source: tuple, size: Callable) -> Any:
    """The file of a source whose streamed entries declined, read whole by
    json.load, with size of it held to the dimension cap.  The other file
    of the pair passed the cap together with this file's header, so holding
    this file alone to it repeats the pair's check."""
    obj = _load_json(source[0])
    _check_cap(size(obj))
    return obj


# With ``source`` from _read_header (obj its header), the entries are streamed
# from the file; where they decline, the file is read whole by json.load.
def matrix_from_json(obj: dict, source: tuple | None = None) -> np.ndarray:
    rows, cols = _matrix_json_shape(obj)
    entries = (_entries_from_json(obj, "re_im", rows * cols) if source is None
               else _compact_entries(source[1], rows * cols))
    if entries is None:
        return matrix_from_json(_reread(source, lambda o: max(_matrix_json_shape(o))))
    return entries.reshape(rows, cols)


def state_from_json(obj: dict, source: tuple | None = None) -> PureState:
    d_a, d_b = _state_json_dims(obj)
    entries = (_entries_from_json(obj, "re_im", d_a * d_b) if source is None
               else _compact_entries(source[1], d_a * d_b))
    if entries is None:
        return state_from_json(_reread(source, lambda o: math.prod(_state_json_dims(o))))
    return PureState(d_a=d_a, d_b=d_b, amplitudes=entries)


def load_pair(state_path: str, ham_path: str) -> tuple[PureState, np.ndarray]:
    """The (state, Hamiltonian) pair of two files: both headers are read and
    held to the dimension cap together before any entry is parsed."""
    with _open_input(state_path) as state_fh, _open_input(ham_path) as ham_fh:
        state_obj, state_source = _read_header(state_fh, _state_json_dims)
        ham_obj, ham_source = _read_header(ham_fh, _matrix_json_shape)
        _check_cap(max(math.prod(_state_json_dims(state_obj)), *_matrix_json_shape(ham_obj)))
        # Through the module's names, so that a wrapper put in their place
        # (perfbench's tracer) sees the decodes.
        return state_from_json(state_obj, state_source), matrix_from_json(ham_obj, ham_source)
