"""The JSON objects of a matrix and a state, written from README's "File
formats" and sharing no helper with entrate.qcore: the tests referee its
writers against json.dumps of these."""

import numpy as np


def re_im(entries) -> list:
    """[[re, im], ...] of an array's entries in row-major order, as Python
    floats."""
    flat = np.asarray(entries, dtype=complex).reshape(-1)
    return [[re, im] for re, im in zip(flat.real.tolist(), flat.imag.tolist())]


def matrix_json(m) -> dict:
    """{"rows": m, "cols": n, "re_im": [[re, im], ...]} of a 2-D matrix."""
    rows, cols = np.shape(m)
    return {"rows": rows, "cols": cols, "re_im": re_im(m)}


def state_json(psi) -> dict:
    """{"d_a": ..., "d_b": ..., "re_im": [...]} of a single state."""
    return {"d_a": psi.d_a, "d_b": psi.d_b, "re_im": re_im(psi.amplitudes)}
