"""Write the rate-check inputs and their reference figures.

Every pair has n = d_a * d_b = 1024.  A group of pairs shares one
GUE-style Hamiltonian H = s (A + A^H) / 2 drawn from numpy's generator
seeded by (seed, 0); pair i of the group gets a Haar-random state from
(seed, i + 1).  Files are written in the program's ``re_im`` format by
this file's own serializer, floats by ``repr``, so the program reads back
exactly the values the references are computed from.

The ``square`` (32 x 32) and ``rect`` (8 x 128) pairs share a Hamiltonian
drawn from --seed; sharing halves the time spent writing inputs and
changes nothing the program does, as it parses its input file on every
operation.  The ``scaled-norm`` pair (32 x 32, s = 1e3) is drawn from a
fixed seed instead: entrate rate fails on it (the oracle's absolute step
meets s = 1e3), and a failure kept in the benchmark must not depend on
--seed.

    python3 perfbench/gen_inputs.py --seed 1 --out perfbench/inputs/seed-1
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

from reference import energy_moments, exact_rate

N = 1024
SEEDED = (("square", 32, 32), ("rect", 8, 128))
SCALED = (("scaled-norm", 32, 32),)
SCALE = 1e3
SCALED_SEED = 0


def _re_im(values: np.ndarray) -> list:
    flat = values.reshape(-1)
    return np.stack([flat.real, flat.imag], axis=1).tolist()


def _write(path: str, obj: dict) -> None:
    # json.dumps without indent runs the C encoder; json.dump would not.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj))


def _write_group(group: str, pairs, seed: int, scale: float, out_dir: str) -> list[dict]:
    """Write one Hamiltonian and its pairs' states; return their records."""
    rng = np.random.default_rng((seed, 0))
    a = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    h = (a + a.conj().T) / 2.0 * scale
    del a
    ham_path = os.path.join(out_dir, f"{group}_hamiltonian.json")
    _write(ham_path, {"rows": N, "cols": N, "re_im": _re_im(h)})
    records = []
    for index, (name, d_a, d_b) in enumerate(pairs):
        rng = np.random.default_rng((seed, index + 1))
        z = rng.normal(size=N) + 1j * rng.normal(size=N)
        psi = z / np.linalg.norm(z)
        state_path = os.path.join(out_dir, f"{name}_state.json")
        _write(state_path, {"d_a": d_a, "d_b": d_b, "re_im": _re_im(psi)})
        h_psi = h @ psi
        mean, variance = energy_moments(psi, h_psi)
        records.append({
            "name": name,
            "state": state_path,
            "hamiltonian": ham_path,
            "scaled_norm": scale != 1.0,
            "rate": exact_rate(psi, h_psi, d_a, d_b),
            "mean": mean,
            "variance": variance,
            "h_psi_norm": float(np.linalg.norm(h_psi)),
        })
    return records


def write_inputs(seed: int, out_dir: str) -> list[dict]:
    """Write every pair and list them, with their files, in out_dir/pairs.json."""
    os.makedirs(out_dir, exist_ok=True)
    records = _write_group("seeded", SEEDED, seed, 1.0, out_dir)
    records += _write_group("scaled", SCALED, SCALED_SEED, SCALE, out_dir)
    with open(os.path.join(out_dir, "pairs.json"), "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
    return records


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    write_inputs(args.seed, args.out)


if __name__ == "__main__":
    main()
