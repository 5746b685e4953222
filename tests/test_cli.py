"""Command-line behavior: exit codes, formats, determinism."""

import argparse
import contextlib
import dataclasses
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import entrate.cli
import entrate.qcore
from entrate.cli import main
from entrate.optimum import build_optimal_hamiltonian, build_optimal_state, optimal_gamma
from entrate.qcore import (
    PureState,
    ValidationError,
    assemble_state,
    dump_json,
    matrix_from_json,
    random_hermitian,
    random_state,
    state_from_json,
)

from ancilla_reference import sup_search_one_by_one
from json_reference import matrix_json, state_json
from test_oracle import low_rank_state
from test_qcore import mutants, same_bits

GAMMA2_RATE = 1.3254868386983631


def write_worked_pair(tmp_path):
    amp = np.zeros(4, dtype=complex)
    amp[0], amp[3] = math.sqrt(0.9), math.sqrt(0.1)
    h = np.zeros((4, 4), dtype=complex)
    h[3, 0] = 1j
    h[0, 3] = -1j
    state_file = tmp_path / "state.json"
    ham_file = tmp_path / "ham.json"
    state_file.write_text(json.dumps(state_json(PureState(2, 2, amp))))
    ham_file.write_text(json.dumps(matrix_json(h)))
    return str(state_file), str(ham_file)


def write_pair(tmp_path, psi, h):
    state_file = tmp_path / "s.json"
    ham_file = tmp_path / "h.json"
    state_file.write_text(json.dumps(state_json(psi)))
    ham_file.write_text(json.dumps(matrix_json(h)))
    return str(state_file), str(ham_file)


def write_scaled_pair(tmp_path, norm):
    state_file = tmp_path / "s.json"
    ham_file = tmp_path / "h.json"
    state_file.write_text(json.dumps(state_json(random_state(4, 4, (0, 0)))))
    h = norm * random_hermitian(16, (0, 1))
    ham_file.write_text(json.dumps(matrix_json(h)))
    return str(state_file), str(ham_file)


class TestRateCommand:
    def test_worked_pair_passes(self, tmp_path, capsys):
        state_file, ham_file = write_worked_pair(tmp_path)
        assert main(["rate", state_file, ham_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["gamma_rate"] == pytest.approx(1.3183347464017314, abs=1e-12)
        assert report["fd_rate"] == pytest.approx(1.31833, abs=1e-4)
        assert abs(report["difference"]) < 1e-5

    def test_report_is_sorted_indented_json(self, tmp_path, capsys):
        assert main(["rate", *write_worked_pair(tmp_path)]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert list(report) == ["difference", "energy_stats", "fd_rate", "gamma_rate",
                                "log_base", "tolerance"]
        assert list(report["energy_stats"]) == ["mean", "variance", "variance_imag_part",
                                                "variance_real_part"]

    def test_real_hamiltonian_gives_zero(self, tmp_path, capsys):
        amp = np.zeros(4, dtype=complex)
        amp[0], amp[3] = math.sqrt(0.9), math.sqrt(0.1)
        psi = PureState(2, 2, amp)
        for h in (np.diag([1.0, 2.0, 3.0, 4.0]), random_hermitian(4, 3).real, np.zeros((4, 4))):
            assert main(["rate", *write_pair(tmp_path, psi, h.astype(complex))]) == 0
            out = capsys.readouterr().out
            report = json.loads(out)
            # +0.0: a vanishing rate prints no minus sign.
            assert '"gamma_rate": 0.0,' in out
            assert re.search(r"-0\.0\b", out) is None
            assert report["fd_rate"] == pytest.approx(0.0, abs=1e-6)

    def test_corrupt_json_is_input_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        state_file, ham_file = write_worked_pair(tmp_path)
        assert main(["rate", str(bad), ham_file]) == 2
        capsys.readouterr()

    def test_missing_file_is_input_failure(self, tmp_path, capsys):
        state_file, ham_file = write_worked_pair(tmp_path)
        assert main(["rate", str(tmp_path / "absent.json"), ham_file]) == 2
        capsys.readouterr()

    def test_unreachable_tolerance_is_numeric_failure(self, tmp_path, capsys):
        state_file, ham_file = write_worked_pair(tmp_path)
        assert main(["rate", state_file, ham_file, "--tol", "1e-15"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_tolerance_out_of_range_is_input_failure(self, tmp_path, capsys, tol):
        # No difference can satisfy a negative or NaN bound; all would exit 1.
        state_file, ham_file = write_worked_pair(tmp_path)
        assert main(["rate", state_file, ham_file, "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tol must be finite and >= 0\n"

    def test_zero_tolerance_is_valid_input(self, tmp_path, capsys):
        state_file, ham_file = write_worked_pair(tmp_path)
        assert main(["rate", state_file, ham_file, "--tol", "0"]) == 1
        assert json.loads(capsys.readouterr().out)["tolerance"] == 0.0

    def test_large_norm_pair_passes(self, tmp_path, capsys):
        # An absolute oracle step left the difference above --tol here.
        state_file = tmp_path / "s.json"
        ham_file = tmp_path / "h.json"
        state_file.write_text(json.dumps(state_json(random_state(4, 4, (0, 0)))))
        h = 1e4 * random_hermitian(16, (0, 1))
        ham_file.write_text(json.dumps(matrix_json(h)))
        assert main(["rate", str(state_file), str(ham_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["difference"]) < 1e-5

    def test_state_within_the_norm_tolerance_passes(self, tmp_path, capsys):
        # PureState accepts |norm - 1| <= 1e-12, so sum C_i^2 = norm^2 may
        # miss 1 by about twice that; here by 1.6e-12.
        psi = random_state(3, 4, 7)
        state_file, ham_file = tmp_path / "s.json", tmp_path / "h.json"
        with state_file.open("wb") as fh:
            dump_json(PureState(3, 4, (1 + 8e-13) * psi.amplitudes), fh)
        with ham_file.open("wb") as fh:
            dump_json(random_hermitian(12, 8), fh)
        assert main(["rate", str(state_file), str(ham_file)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("norm", [1e6, 1e8, 1e10])
    def test_very_large_norm_pair_passes(self, tmp_path, capsys, norm):
        # H is exactly Hermitian; its rounded Schmidt block was rejected
        # against an absolute tolerance at x 1e6.
        files = write_pair(tmp_path, random_state(3, 4, 5), norm * random_hermitian(12, 6))
        assert main(["rate", *files]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["difference"]) <= 1e-11 * abs(report["gamma_rate"])

    @pytest.mark.parametrize("norm", [1e6, 1e8, 1e10])
    def test_eigh_rebuilt_large_norm_hamiltonian_passes(self, tmp_path, capsys, norm):
        # H rebuilt from its eigenpairs is Hermitian to about 5e-16 of its
        # largest entry, so an absolute tolerance rejected it at x 1e6.
        w, v = np.linalg.eigh(random_hermitian(16, 6))
        files = write_pair(tmp_path, random_state(4, 4, 5), norm * ((v * w) @ v.conj().T))
        assert main(["rate", *files]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["difference"]) <= 1e-9 * abs(report["gamma_rate"])

    @pytest.mark.parametrize("norm", [1e-4, 1e4])
    def test_tolerance_is_relative_to_the_rate_scale(self, tmp_path, capsys, norm):
        state_file, ham_file = write_scaled_pair(tmp_path, norm)
        assert main(["rate", state_file, ham_file]) == 0
        report = json.loads(capsys.readouterr().out)
        scale = max(abs(report["gamma_rate"]),
                    math.sqrt(report["energy_stats"]["variance"]))
        assert abs(report["difference"]) <= 1e-5 * scale

    def test_small_norm_wrong_closed_form_is_numeric_failure(
        self, tmp_path, capsys, monkeypatch
    ):
        # A 1e-3 relative error is about 1e-7 absolute here, below the
        # absolute --tol that was used before.
        state_file, ham_file = write_scaled_pair(tmp_path, 1e-4)
        exact = entrate.cli.gamma_rate
        monkeypatch.setattr(
            entrate.cli, "gamma_rate", lambda state, block: 1.001 * exact(state, block)
        )
        assert main(["rate", state_file, ham_file]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("norm", [1e-4, 1.0, 1e4])
    @pytest.mark.parametrize("zero_eigenvalue", [False, True])
    @pytest.mark.parametrize("column", [0, 7])
    def test_eigenstate_passes(self, tmp_path, capsys, norm, zero_eigenvalue, column):
        # Rounding leaves Delta H a few eps |H|_1 above zero here, so a
        # tolerance relative to it alone could not be met.
        h = norm * random_hermitian(16, (0, 2))
        eigenvalues, vectors = np.linalg.eigh(h)
        if zero_eigenvalue:
            h -= eigenvalues[column] * np.eye(16)
        files = write_pair(tmp_path, PureState(4, 4, vectors[:, column]), h)
        assert main(["rate", *files]) == 0
        assert abs(json.loads(capsys.readouterr().out)["difference"]) <= 1e-5

    @pytest.mark.parametrize("dims", [(2, 5), (6, 3), (4, 4)])
    def test_product_state_meets_the_relative_rule(self, tmp_path, capsys, dims):
        # A product state's rate is 0, so only Delta H gives the tolerance
        # its scale; the oracle meets it to about 1e-11 at every scale.
        psi = low_rank_state(*dims, 1, dims)
        for scale in (1e-4, 1e-2, 1.0, 1e2, 1e4):
            h = scale * random_hermitian(dims[0] * dims[1], (*dims, 1))
            assert main(["rate", *write_pair(tmp_path, psi, h), "--tol", "1e-9"]) == 0
            capsys.readouterr()

    def test_multiple_of_identity_passes(self, tmp_path, capsys):
        files = write_pair(tmp_path, random_state(3, 3, (0, 3)), 2.5 * np.eye(9))
        assert main(["rate", *files]) == 0
        capsys.readouterr()

    def test_eigenstate_keeps_an_absolute_tolerance(self, tmp_path, capsys, monkeypatch):
        h = random_hermitian(16, (0, 2))
        files = write_pair(tmp_path, PureState(4, 4, np.linalg.eigh(h)[1][:, 0]), h)
        monkeypatch.setattr(entrate.cli, "gamma_rate", lambda state, block: 2e-5)
        assert main(["rate", *files]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("bad", [None, "abc", "1", True])
    def test_non_numeric_entry_is_input_failure(self, tmp_path, capsys, bad):
        state_file, ham_file = write_worked_pair(tmp_path)
        ham = json.loads(Path(ham_file).read_text())
        ham["re_im"][5] = [bad, 0.0]
        (tmp_path / "bad.json").write_text(json.dumps(ham))
        assert main(["rate", state_file, str(tmp_path / "bad.json")]) == 2
        err = capsys.readouterr().err
        assert "entry 5 of 're_im' is not an [re, im] pair" in err

    @pytest.mark.parametrize("which, token", [
        ("hamiltonian", "NaN"), ("hamiltonian", "Infinity"), ("state", "NaN")])
    def test_non_finite_entry_is_input_failure(self, tmp_path, capsys, which, token):
        files = dict(zip(("state", "hamiltonian"), write_worked_pair(tmp_path)))
        obj = json.loads(Path(files[which]).read_text())
        obj["re_im"][0] = [float(token), 0.0]
        text = json.dumps(obj)
        assert token in text
        files[which] = str(tmp_path / "bad.json")
        (tmp_path / "bad.json").write_text(text)
        assert main(["rate", files["state"], files["hamiltonian"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_dim_cap_checked_before_entries(self, tmp_path, capsys):
        # Headers over the cap: the files hold a few entries, faulty ones
        # among them, and only the cap is reported.
        amp = [[0.125, 0.0]] * 4
        amp[3] = [None, 0.0]
        entries = [[0.0, 0.0]] * 8
        entries[7] = ["abc", 0.0]
        state_file = tmp_path / "s.json"
        ham_file = tmp_path / "h.json"
        state_file.write_text(json.dumps({"d_a": 65, "d_b": 64, "re_im": amp}))
        ham_file.write_text(json.dumps({"rows": 4160, "cols": 4160, "re_im": entries}))
        assert main(["rate", str(state_file), str(ham_file)]) == 2
        err = capsys.readouterr().err
        assert "product dimension 4160 exceeds cap 4096" in err
        assert "entry" not in err


def json_load_alone(fh, dims):
    """In place of qcore._read_header: json.load of the file on a text
    handle of its own, ``open(path, encoding="utf-8")``, its errors input
    failures."""
    with open(fh.name, encoding="utf-8") as text:
        try:
            return json.load(text), None
        except (ValueError, RecursionError) as exc:
            raise ValidationError(str(exc)) from None


def rate_both_ways(monkeypatch, capsys, state_file, ham_file):
    """(exit code, stdout, stderr) of entrate rate on a pair, with the bulk
    reader, which reads bytes, and with json.load alone on a text handle
    (the reader declining every file)."""
    results = []
    for bulk in (True, False):
        with monkeypatch.context() as m:
            if not bulk:
                m.setattr(entrate.qcore, "_read_header", json_load_alone)
            rc = main(["rate", str(state_file), str(ham_file)])
        captured = capsys.readouterr()
        results.append((rc, captured.out, captured.err))
    return results


def with_first_number(text: str, token: str) -> str:
    """text with the first number of its re_im list replaced by token."""
    first = text.index("[[") + 2
    return text[:first] + token + text[text.index(",", first):]


def json_error(text: str) -> str:
    """The error line of a text that json.load rejects."""
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads(text)
    return f"error: {exc.value}\n"


@contextlib.contextmanager
def piped(data: bytes):
    """A /dev/fd path that reads data through a pipe, written by a thread."""
    read_fd, write_fd = os.pipe()

    def write():
        with open(write_fd, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        yield f"/dev/fd/{read_fd}"
    finally:
        writer.join(timeout=10)
        os.close(read_fd)
    assert not writer.is_alive()


class TestBulkReaderCommand:
    """entrate rate reads a compact file as one flat list of numbers; every
    other file, and every file whose list does not parse, goes through
    json.load, with the same exit code, stdout and stderr."""

    def test_compact_pair_takes_the_bulk_reader(self, tmp_path, capsys, monkeypatch):
        read = []
        bulk = entrate.qcore._compact_entries

        def spy(blocks, expected):
            read.append(bulk(blocks, expected))
            return read[-1]

        monkeypatch.setattr(entrate.qcore, "_compact_entries", spy)
        monkeypatch.setattr(entrate.qcore, "_load_json", None)
        assert main(["rate", *write_worked_pair(tmp_path)]) == 0
        assert [entries.size for entries in read] == [4, 16]
        capsys.readouterr()

    @pytest.mark.parametrize("dim", [2, 8])
    def test_report_matches_json_load(self, tmp_path, capsys, monkeypatch, dim):
        if dim == 2:
            state_file, ham_file = write_worked_pair(tmp_path)
        else:
            assert main(["optimize", "--dim", str(dim), "--out", str(tmp_path / "d")]) == 0
            capsys.readouterr()
            state_file, ham_file = tmp_path / "d_state.json", tmp_path / "d_hamiltonian.json"
        fast, slow = rate_both_ways(monkeypatch, capsys, state_file, ham_file)
        assert fast == slow
        assert fast[0] == 0 and fast[2] == ""

    @pytest.mark.parametrize("which", ["state", "hamiltonian"])
    @pytest.mark.parametrize("case", ["indent-2", "reordered-header", "duplicate-key"])
    def test_other_layouts_give_the_same_report(self, tmp_path, capsys, monkeypatch,
                                                which, case):
        files = dict(zip(("state", "hamiltonian"), write_worked_pair(tmp_path)))
        assert main(["rate", files["state"], files["hamiltonian"]]) == 0
        want = capsys.readouterr().out
        text = Path(files[which]).read_text()
        obj = json.loads(text)
        if case == "indent-2":
            text = json.dumps(obj, indent=2)
        elif case == "reordered-header":
            text = json.dumps({"re_im": obj["re_im"], **obj})
        else:
            # json keeps the last of two equal keys.
            text = text.replace('"re_im": ', '"re_im": [[7.0, 7.0]], "re_im": ', 1)
        files[which] = str(tmp_path / "other.json")
        (tmp_path / "other.json").write_text(text)
        fast, slow = rate_both_ways(monkeypatch, capsys, files["state"], files["hamiltonian"])
        assert fast == slow == (0, want, "")

    @pytest.mark.parametrize("which", ["state", "hamiltonian"])
    @pytest.mark.parametrize("case", [
        "NaN", "Infinity", "-Infinity", "null", '"abc"', '"1"', "true", "truncated",
        "duplicate-key",
        "+1", "01", ".5", "5.", "1.e5", "1 2", "", "1e", "--1"])
    def test_malformed_file_fails_as_json_load_does(self, tmp_path, capsys, monkeypatch,
                                                    which, case):
        files = dict(zip(("state", "hamiltonian"), write_worked_pair(tmp_path)))
        text = Path(files[which]).read_text()
        if case == "truncated":
            text = text[:-7]
        elif case == "duplicate-key":
            text = text[:-1] + ', "re_im": [[0.5, 0.5]]}'
        else:
            text = with_first_number(text, case)
        files[which] = str(tmp_path / "bad.json")
        (tmp_path / "bad.json").write_text(text)
        fast, slow = rate_both_ways(monkeypatch, capsys, files["state"], files["hamiltonian"])
        assert fast == slow
        rc, out, err = fast
        assert (rc, out) == (2, "")
        if case in ("NaN", "Infinity", "-Infinity"):
            assert err.startswith("error: ") and "Traceback" not in err
        elif case in ("null", '"abc"', '"1"', "true"):
            assert err == "error: entry 0 of 're_im' is not an [re, im] pair\n"
        elif case == "duplicate-key":
            size = 4 if which == "state" else 16
            assert err == f"error: 're_im' must be a list of {size} [re, im] pairs\n"
        else:
            assert err == json_error(text)

    @pytest.mark.parametrize("which", ["state", "hamiltonian"])
    @pytest.mark.parametrize("value", ["1", 2.5, 2.0, True])
    def test_dimension_that_is_not_an_integer_is_input_failure(
            self, tmp_path, capsys, monkeypatch, which, value):
        # int() would read each of these; only a JSON integer is a dimension.
        key, message = {
            "state": ("d_a", "state JSON needs integer 'd_a' and 'd_b'"),
            "hamiltonian": ("rows", "matrix JSON needs integer 'rows' and 'cols'"),
        }[which]
        files = dict(zip(("state", "hamiltonian"), write_worked_pair(tmp_path)))
        obj = json.loads(Path(files[which]).read_text())
        obj[key] = value
        files[which] = str(tmp_path / "bad.json")
        (tmp_path / "bad.json").write_text(json.dumps(obj))
        fast, slow = rate_both_ways(monkeypatch, capsys, files["state"], files["hamiltonian"])
        assert fast == slow == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("which", ["state", "hamiltonian"])
    @pytest.mark.parametrize("where", ["header", "entries"])
    def test_text_that_is_not_utf8_is_input_failure(self, tmp_path, capsys, monkeypatch,
                                                    which, where):
        files = dict(zip(("state", "hamiltonian"), write_worked_pair(tmp_path)))
        data = Path(files[which]).read_bytes()
        at = data.index(b"re_im") if where == "header" else data.index(b"[[") + 2
        files[which] = str(tmp_path / "bad.json")
        (tmp_path / "bad.json").write_bytes(data[:at] + b"\xff" + data[at:])
        fast, slow = rate_both_ways(monkeypatch, capsys, files["state"], files["hamiltonian"])
        assert fast == slow == (
            2, "", f"error: 'utf-8' codec can't decode byte 0xff in position {at}: "
                   "invalid start byte\n")

    @pytest.mark.parametrize("which", ["state", "hamiltonian"])
    @pytest.mark.parametrize("case", [
        "bom", "crlf-indent-malformed", "utf-16", "non-ascii-in-entries",
        "invalid-utf8-in-entries"])
    def test_encodings_fail_as_json_load_on_text_does(self, tmp_path, capsys, monkeypatch,
                                                      which, case):
        # The entries are read as bytes, but a file they decline is read as
        # text: its errors, and their line, column and char, are the text's.
        files = dict(zip(("state", "hamiltonian"), write_worked_pair(tmp_path)))
        text = Path(files[which]).read_text()
        if case == "bom":
            data = b"\xef\xbb\xbf" + text.encode()
            want = "error: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)\n"
        elif case == "crlf-indent-malformed":
            text = json.dumps(json.loads(text), indent=2)[:-1] + ", +1}"
            data = text.replace("\n", "\r\n").encode()
            # Universal newlines: the char offset counts "\r\n" as one.
            want = json_error(text)
            assert want != json_error(data.decode())
        elif case == "utf-16":
            data = text.encode("utf-16")
            want = ("error: 'utf-8' codec can't decode byte 0xff in position 0: "
                    "invalid start byte\n")
        elif case == "non-ascii-in-entries":
            text = with_first_number(text, "1.0\u00e9")
            data = text.encode()
            # The offset counts characters: "\u00e9" is one, of two bytes.
            want = json_error(text)
        else:
            at = text.index("[[") + 2
            data = text[:at].encode() + b"\xc3(" + text[at:].encode()
            want = (f"error: 'utf-8' codec can't decode byte 0xc3 in position {at}: "
                    "invalid continuation byte\n")
        files[which] = str(tmp_path / "bad.json")
        Path(files[which]).write_bytes(data)
        fast, slow = rate_both_ways(monkeypatch, capsys, files["state"], files["hamiltonian"])
        assert fast == slow == (2, "", want)

    @pytest.mark.parametrize("which", ["state", "hamiltonian"])
    @pytest.mark.parametrize("digits, message", [
        # 10**400 does not fit a float.
        (400, "entry 0 of 're_im' is not an [re, im] pair\n"),
        # More digits than int() reads.
        (5000, "Exceeds the limit (4300 digits) for integer string conversion"),
    ])
    def test_integer_too_large_is_input_failure(self, tmp_path, capsys, monkeypatch,
                                                which, digits, message):
        files = dict(zip(("state", "hamiltonian"), write_worked_pair(tmp_path)))
        text = with_first_number(Path(files[which]).read_text(), "1" + "0" * digits)
        files[which] = str(tmp_path / "big.json")
        (tmp_path / "big.json").write_text(text)
        fast, slow = rate_both_ways(monkeypatch, capsys, files["state"], files["hamiltonian"])
        assert fast == slow
        rc, out, err = fast
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("which", ["state", "hamiltonian"])
    @pytest.mark.parametrize("where", ["header", "entries"])
    def test_deeply_nested_file_is_input_failure(self, tmp_path, capsys, monkeypatch,
                                                 which, where):
        files = dict(zip(("state", "hamiltonian"), write_worked_pair(tmp_path)))
        deep = "[" * 100000 + "]" * 100000
        entries = "[[1.0, 0.0]]" if where == "header" else deep
        header = deep if where == "header" else "1"
        files[which] = str(tmp_path / "deep.json")
        (tmp_path / "deep.json").write_text(
            f'{{"rows": 1, "cols": 1, "d_a": 1, "d_b": 1, "x": {header}, "re_im": {entries}}}')
        fast, slow = rate_both_ways(monkeypatch, capsys, files["state"], files["hamiltonian"])
        assert fast == slow == (
            2, "", "error: maximum recursion depth exceeded while decoding a JSON array "
                   "from a unicode string\n")

    @pytest.mark.parametrize("which", ["state", "hamiltonian"])
    def test_mutants_fail_as_json_load_does(self, tmp_path, capsys, monkeypatch, which):
        """Differential check of the command: 1-3 byte edits of one file of
        the worked pair give the report or error json.load alone gives,
        also where a mutant has two faults, one in its header."""
        files = dict(zip(("state", "hamiltonian"), write_worked_pair(tmp_path)))
        data = Path(files[which]).read_bytes()
        files[which] = str(tmp_path / "mutant.json")
        for mutant in mutants(data, 300, seed=len(which)):
            Path(files[which]).write_bytes(mutant)
            fast, slow = rate_both_ways(monkeypatch, capsys, files["state"],
                                        files["hamiltonian"])
            assert fast == slow, mutant

    @pytest.mark.parametrize("text", [
        '{"rows": 0, "cols": 4, "re_im": [[+1, 2.0]]}',
        '{"rows": -1, "cols": -1, "re_im": [[1.0, 2.0]]}',
    ], ids=["zero-and-bad-number", "negative"])
    def test_dimension_below_one_fails_as_json_load_does(self, tmp_path, capsys,
                                                           monkeypatch, text):
        state_file, _ = write_worked_pair(tmp_path)
        (tmp_path / "bad.json").write_text(text)
        fast, slow = rate_both_ways(monkeypatch, capsys, state_file, tmp_path / "bad.json")
        message = json_error(text) if "+1" in text else "error: matrix dimensions must be >= 1\n"
        assert fast == slow == (2, "", message)

    @pytest.mark.parametrize("layout", ["compact", "indent-2"])
    @pytest.mark.parametrize("d_a, d_b", [(0, 2), (-1, 5), (2, -2), (-100, -100)])
    def test_state_dimension_below_one_is_reported(self, tmp_path, capsys, monkeypatch,
                                                   d_a, d_b, layout):
        # PureState's message: not the entry count of a negative product,
        # nor the cap of a product of two negative dimensions.
        obj = {"d_a": d_a, "d_b": d_b, "re_im": [[1.0, 0.0]]}
        _, ham_file = write_worked_pair(tmp_path)
        state_file = tmp_path / "bad.json"
        state_file.write_text(json.dumps(obj, indent=2 if layout == "indent-2" else None))
        fast, slow = rate_both_ways(monkeypatch, capsys, state_file, ham_file)
        assert fast == slow == (2, "", "error: subsystem dimensions must be >= 1\n")
        with pytest.raises(ValidationError, match="^subsystem dimensions must be >= 1$"):
            state_from_json(obj)

    @pytest.mark.parametrize("which", ["state", "hamiltonian"])
    def test_dimensions_repeated_after_the_entries_meet_the_cap(self, tmp_path, capsys,
                                                                monkeypatch, which):
        # json keeps the last of two equal keys, so the file is 4097 x 1,
        # not the 1 x 1 of its header, and over the cap.  A Hamiltonian's
        # header reads 2 x 2 and its file 4097 x 2: the cap holds its larger
        # side, not the product.
        _, ham_file = write_worked_pair(tmp_path)
        state_file = tmp_path / "s.json"
        if which == "state":
            state_file.write_text('{"d_a": 1, "d_b": 1, "re_im": [[1.0, 0.0]], '
                                  '"d_a": 4097, "x": [[0.0, 0.0]]}')
        else:
            state_file.write_text('{"d_a": 1, "d_b": 2, "re_im": [[1.0, 0.0], [0.0, 0.0]]}')
            ham_file = tmp_path / "h.json"
            ham_file.write_text('{"rows": 2, "cols": 2, "re_im": '
                                + json.dumps([[0.0, 0.0]] * 4)
                                + ', "rows": 4097, "x": [[0.0, 0.0]]}')
        fast, slow = rate_both_ways(monkeypatch, capsys, state_file, ham_file)
        assert fast == slow == (2, "", "error: product dimension 4097 exceeds cap 4096\n")

    @pytest.mark.parametrize("token", ["0.0", "+1"])
    def test_dim_cap_checked_before_any_number_is_parsed(self, tmp_path, capsys,
                                                          monkeypatch, token):
        # Over the cap, neither file's entries are parsed: not even a number
        # json would reject is reached.
        state_file = tmp_path / "s.json"
        ham_file = tmp_path / "h.json"
        state_file.write_text(json.dumps({"d_a": 65, "d_b": 64, "re_im": [[0.125, 0.0]] * 64}))
        ham_file.write_text(with_first_number(
            json.dumps({"rows": 4160, "cols": 4160, "re_im": [[0.0, 0.0]] * 64}), token))

        def never(*args):
            raise AssertionError("an entry was parsed")

        monkeypatch.setattr(entrate.qcore, "_compact_entries", never)
        monkeypatch.setattr(entrate.qcore, "_load_json", never)
        parsed = []
        loads = entrate.qcore.json.loads
        monkeypatch.setattr(entrate.qcore.json, "loads",
                            lambda text, **kw: parsed.append(text) or loads(text, **kw))
        assert main(["rate", str(state_file), str(ham_file)]) == 2
        assert capsys.readouterr().err == "error: product dimension 4160 exceeds cap 4096\n"
        assert parsed == ['{"d_a": 65, "d_b": 64, "re_im": []}',
                          '{"rows": 4160, "cols": 4160, "re_im": []}']

    def test_sorted_key_design_reads_as_the_written_files(self, tmp_path, capsys):
        # Written with sorted keys, a Hamiltonian's "rows" follows its
        # entries: its header lacks a key, and json.load reads the file.
        assert main(["optimize", "--dim", "8"]) == 0
        inline = json.loads(capsys.readouterr().out)
        assert main(["optimize", "--dim", "8", "--out", str(tmp_path / "d8")]) == 0
        capsys.readouterr()
        keys = ("state", "hamiltonian")
        for key in keys:
            (tmp_path / f"sorted_{key}.json").write_text(json.dumps(inline[key], sort_keys=True))
        reports = []
        for prefix in ("d8", "sorted"):
            assert main(["rate", *(str(tmp_path / f"{prefix}_{key}.json") for key in keys)]) == 0
            reports.append(capsys.readouterr().out)
        text = (tmp_path / "sorted_hamiltonian.json").read_text()
        assert text.index('"rows"') > text.index('"re_im"')
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("which", ["state", "hamiltonian"])
    @pytest.mark.parametrize("case", ["compact", "indent-2", "trailing-key", "+1"])
    def test_piped_file_reads_as_the_file_does(self, tmp_path, capsys, which, case):
        # A pipe cannot seek: a file that json.load reads must still be read
        # whole after its header or its entries declined.
        files = dict(zip(("state", "hamiltonian"), write_worked_pair(tmp_path)))
        text = Path(files[which]).read_text()
        if case == "indent-2":
            text = json.dumps(json.loads(text), indent=2)
        elif case == "trailing-key":
            text = text[:-1] + ', "x": []}'
        elif case == "+1":
            text = with_first_number(text, case)
        Path(files[which]).write_text(text)
        want = (main(["rate", files["state"], files["hamiltonian"]]), *capsys.readouterr())
        with piped(text.encode()) as files[which]:
            got = (main(["rate", files["state"], files["hamiltonian"]]), *capsys.readouterr())
        assert got == want
        assert want[0] == (2 if case == "+1" else 0)


    def test_output_does_not_depend_on_read_chunk(self, tmp_path, capsys, monkeypatch):
        assert main(["optimize", "--dim", "8", "--out", str(tmp_path / "d")]) == 0
        capsys.readouterr()
        pairs = [write_worked_pair(tmp_path),
                 (tmp_path / "d_state.json", tmp_path / "d_hamiltonian.json")]
        read = []
        bulk = entrate.qcore._compact_entries

        def spy(blocks, expected):
            read.append(bulk(blocks, expected))
            return read[-1]

        monkeypatch.setattr(entrate.qcore, "_compact_entries", spy)
        runs = set()
        # 1 << 20 too: a block eight times the shipped one reads the same.
        for chunk in (48, 64, 257, entrate.qcore.READ_CHUNK, 1 << 20):
            monkeypatch.setattr(entrate.qcore, "READ_CHUNK", chunk)
            runs.add(tuple((main(["rate", str(s), str(h)]), *capsys.readouterr())
                           for s, h in pairs))
        assert len(runs) == 1
        assert [code for code, _, _ in runs.pop()] == [0, 0]
        # Every file was read in bulk, at every block size.
        assert len(read) == 5 * 4 and all(entries is not None for entries in read)

    def test_peak_memory_is_the_entries_and_a_few_blocks(self, tmp_path, monkeypatch):
        # n = 256: the Hamiltonian's 65536 entries take 1 MiB, its text about
        # 2.8 MB, about 43 blocks of 64 Ki characters.
        monkeypatch.setattr(entrate.qcore, "READ_CHUNK", 1 << 16)
        state_file, ham_file = tmp_path / "s.json", tmp_path / "h.json"
        for path, value in ((state_file, random_state(16, 16, 1)),
                            (ham_file, random_hermitian(256, 2))):
            with open(path, "wb") as fh:
                dump_json(value, fh)
        tracemalloc.start()
        try:
            psi, h = entrate.qcore.load_pair(str(state_file), str(ham_file))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.shape == (256, 256)
        # The reader holds the text of a block and its carry, the file's own
        # buffers, one block's translated copy and its list of floats: about
        # 6.5 blocks.  The whole text alone would take 2.8 MB.
        assert peak < h.nbytes + psi.amplitudes.nbytes + 8 * entrate.qcore.READ_CHUNK

    def test_shipped_block_size_keeps_the_decode_within_2_mib(self, tmp_path):
        # READ_CHUNK as shipped: n = 512, 4 MiB of entries and about 11 MB of
        # text.  The working set of about 4.5 blocks fits in 2 MiB at 128 Ki;
        # 1 Mi blocks would hold 4.6 MiB.
        state_file, ham_file = tmp_path / "s.json", tmp_path / "h.json"
        for path, value in ((state_file, random_state(16, 32, 1)),
                            (ham_file, random_hermitian(512, 2))):
            with open(path, "wb") as fh:
                dump_json(value, fh)
        tracemalloc.start()
        try:
            psi, h = entrate.qcore.load_pair(str(state_file), str(ham_file))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.shape == (512, 512)
        assert peak < h.nbytes + psi.amplitudes.nbytes + (2 << 20)

    def test_piped_peak_memory_is_the_entries_and_a_few_blocks(self, tmp_path, monkeypatch):
        # The same pair through pipes: each is copied block by block to a
        # temporary file and streamed from there, not held whole in memory.
        monkeypatch.setattr(entrate.qcore, "READ_CHUNK", 1 << 16)
        files = [tmp_path / "s.json", tmp_path / "h.json"]
        for path, value in zip(files, (random_state(16, 16, 1), random_hermitian(256, 2))):
            with open(path, "wb") as fh:
                dump_json(value, fh)
        with piped(files[0].read_bytes()) as state_file, \
                piped(files[1].read_bytes()) as ham_file:
            tracemalloc.start()
            try:
                psi, h = entrate.qcore.load_pair(state_file, ham_file)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        want_psi, want_h = entrate.qcore.load_pair(*map(str, files))
        assert same_bits(psi.amplitudes, want_psi.amplitudes) and same_bits(h, want_h)
        assert peak < h.nbytes + psi.amplitudes.nbytes + 8 * entrate.qcore.READ_CHUNK


class TestOptimizeCommand:
    def test_dim_two_report(self, capsys):
        assert main(["optimize", "--dim", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["gamma_star"] == pytest.approx(0.9168, abs=1e-3)
        assert report["rate_nat"] == pytest.approx(1.3255, abs=1e-3)
        assert report["rate_bits"] == pytest.approx(1.9123, abs=2e-3)

    def test_dim_two_stdout_is_pinned(self, capsys):
        # Closed form: bisection and scalar logs, no BLAS-dependent bits.
        assert main(["optimize", "--dim", "2"]) == 0
        zero, i = [0.0, 0.0], [0.0, 1.0]
        want = {
            "dim": 2,
            "gamma_star": 0.9167782798004824,
            "hamiltonian": {"cols": 4, "rows": 4, "re_im": [
                zero, zero, zero, [-0.0, -1.0], *[zero] * 8, i, zero, zero, zero]},
            "rate_bits": 1.912273288953718,
            "rate_nat": 1.3254868386983631,
            "state": {"d_a": 2, "d_b": 2, "re_im": [
                [0.9574853940402863, 0.0], zero, zero, [0.2884817502018413, 0.0]]},
        }
        assert capsys.readouterr().out == json.dumps(want, indent=2, sort_keys=True) + "\n"

    def test_inline_payloads_round_trip(self, capsys):
        assert main(["optimize", "--dim", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        psi = state_from_json(report["state"])
        h = matrix_from_json(report["hamiltonian"])
        assert psi.d_a == psi.d_b == 2
        assert h.shape == (4, 4)

    def test_output_files_round_trip(self, tmp_path, capsys):
        prefix = str(tmp_path / "opt")
        assert main(["optimize", "--dim", "3", "--out", prefix]) == 0
        report = json.loads(capsys.readouterr().out)
        psi = state_from_json(json.loads(Path(report["state"]).read_text()))
        h = matrix_from_json(json.loads(Path(report["hamiltonian"]).read_text()))
        assert psi.d_a == 3
        assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_output_files_are_json_dumps_of_the_codec(self, tmp_path, capsys):
        prefix = str(tmp_path / "opt")
        assert main(["optimize", "--dim", "3", "--out", prefix]) == 0
        capsys.readouterr()
        state = build_optimal_state(optimal_gamma(3).gamma, 3)
        assert Path(prefix + "_state.json").read_text() == json.dumps(
            state_json(assemble_state(state)))
        assert Path(prefix + "_hamiltonian.json").read_text() == json.dumps(
            matrix_json(build_optimal_hamiltonian(3)))

    def test_output_files_are_byte_identical_across_runs(self, tmp_path, capsys):
        files = []
        for run in ("a", "b"):
            prefix = str(tmp_path / run)
            assert main(["optimize", "--dim", "3", "--out", prefix]) == 0
            files.append([Path(prefix + suffix).read_bytes()
                          for suffix in ("_state.json", "_hamiltonian.json")])
        capsys.readouterr()
        assert files[0] == files[1]

    def test_out_prefix_survives_the_report_splice(self, tmp_path, capsys):
        # The report's text is split on '"re_im": []', where the designs go;
        # a quote in a string is escaped there, so a path cannot match.
        prefix = str(tmp_path / 'a"re_im": []')
        assert main(["optimize", "--dim", "2", "--out", prefix]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["state"] == prefix + "_state.json"
        assert report["hamiltonian"] == prefix + "_hamiltonian.json"
        assert Path(report["state"]).is_file() and Path(report["hamiltonian"]).is_file()

    def test_out_never_builds_the_dense_hamiltonian(self, tmp_path, capsys):
        prefix = str(tmp_path / "opt")
        tracemalloc.start()
        try:
            assert main(["optimize", "--dim", "32", "--out", prefix]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        # One dense Hamiltonian at d = 32 takes 16 MiB; the writer's buffer
        # of zero entries 786 KB.
        assert peak < 4 * 2**20
        # The bytes of the dense matrix written (their json.dumps identity
        # is pinned at smaller dimensions above).
        dense = io.BytesIO()
        dump_json(build_optimal_hamiltonian(32), dense)
        assert Path(prefix + "_hamiltonian.json").read_bytes() == dense.getvalue()

    @pytest.mark.parametrize("dim", [2, 3, 7, 16])
    def test_stdout_is_json_dumps_of_the_report(self, dim, capsys):
        assert main(["optimize", "--dim", str(dim)]) == 0
        gamma, rate = optimal_gamma(dim)
        report = {
            "gamma_star": gamma, "rate_nat": rate, "rate_bits": rate / math.log(2),
            "dim": dim,
            "state": state_json(assemble_state(build_optimal_state(gamma, dim))),
            "hamiltonian": matrix_json(build_optimal_hamiltonian(dim)),
        }
        assert capsys.readouterr().out == json.dumps(report, indent=2, sort_keys=True) + "\n"

    def test_stdout_never_builds_the_entry_list(self):
        class Sink:
            def write(self, text):
                pass

        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(Sink()):
                assert main(["optimize", "--dim", "16"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The Hamiltonian takes 1 MB; its list of [re, im] pairs about 8 MB.
        assert peak < 4 * 2**20

    def test_monotone_in_dimension(self, capsys):
        main(["optimize", "--dim", "2"])
        r2 = json.loads(capsys.readouterr().out)["rate_nat"]
        main(["optimize", "--dim", "3"])
        r3 = json.loads(capsys.readouterr().out)["rate_nat"]
        assert r3 >= r2

    def test_ancilla_one_matches_plain(self, capsys):
        assert main(["optimize", "--dim", "2", "--ancilla", "1", "--starts", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value_nat"] == pytest.approx(GAMMA2_RATE, abs=1e-4)

    def test_ancilla_determinism(self, capsys):
        main(["optimize", "--dim", "2", "--ancilla", "2", "--starts", "2"])
        first = capsys.readouterr().out
        main(["optimize", "--dim", "2", "--ancilla", "2", "--starts", "2"])
        assert capsys.readouterr().out == first

    def test_unset_search_flags_take_sup_search_defaults(self, capsys):
        assert main(["optimize", "--dim", "2", "--ancilla", "2"]) == 0
        first = capsys.readouterr().out
        assert main(["optimize", "--dim", "2", "--ancilla", "2", "--starts", "8"]) == 0
        assert capsys.readouterr().out == first
        want = sup_search_one_by_one(2, 2, starts=8, seed=0, max_iter=300).as_dict()
        assert first == json.dumps(want, indent=2, sort_keys=True) + "\n"

    def test_ancilla_without_converged_start_is_numeric_failure(self, capsys, monkeypatch):
        # One iteration per start: no start converges.
        monkeypatch.setattr(entrate.cli.anc, "sup_search",
                            functools.partial(entrate.cli.anc.sup_search, max_iter=1))
        assert main(["optimize", "--dim", "4", "--ancilla", "2", "--starts", "2"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["converged_fraction"] == 0.0
        assert "no start converged" in captured.err
        want = sup_search_one_by_one(4, 2, starts=2, max_iter=1).as_dict()
        assert captured.out == json.dumps(want, indent=2, sort_keys=True) + "\n"
        assert captured.err == "numeric failure: no start converged\n"

    @pytest.mark.parametrize("dim, ancilla", [(4, 2), (4, 4), (5, 3), (6, 6)])
    def test_ancilla_report_matches_one_start_at_a_time(self, capsys, dim, ancilla):
        # The benchmark cases: the stacked search prints what the search with
        # one start after another printed, byte for byte.
        argv = ["optimize", "--dim", str(dim), "--ancilla", str(ancilla), "--starts", "4"]
        assert main(argv) == 0
        want = sup_search_one_by_one(dim, ancilla, starts=4).as_dict()
        assert capsys.readouterr().out == json.dumps(want, indent=2, sort_keys=True) + "\n"

    def test_ancilla_report_is_byte_identical_with_diagnostics(self, capsys):
        argv = ["optimize", "--dim", "4", "--ancilla", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        report = json.loads(first)
        diagnostics = report["diagnostics"]
        assert "fd_grad_step" not in diagnostics
        assert diagnostics["gap_vs_no_ancilla"] == (
            diagnostics["value_unregularized"] - optimal_gamma(4).rate
        )

    def test_dim_cap_ignores_the_environment(self, capsys, monkeypatch):
        # The cap is the constant 4096, not a setting of the environment.
        monkeypatch.setenv("ENTRATE_DIM_CAP", "8")
        assert main(["optimize", "--dim", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["dim"] == 4

    def test_mismatched_dim_b_rejected(self, capsys):
        # The optimal construction has d_B = d_A, so there is no --dim-b.
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--dim", "2", "--dim-b", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dim-b 3" in capsys.readouterr().err


class TestSweepCommand:
    def test_dimension_range(self, capsys):
        assert main(["sweep", "--dim-range", "2..4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "param,rate_nat,rate_bits"
        assert len(lines) == 4
        params = [row.split(",")[0] for row in lines[1:]]
        assert params == ["2", "3", "4"]
        d2 = float(lines[1].split(",")[1])
        assert d2 == pytest.approx(GAMMA2_RATE, abs=1e-9)

    def test_gamma_grid_row_count_and_peak(self, capsys):
        assert main(["sweep", "--gamma-grid", "999", "--dim", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [row.split(",") for row in lines[1:]]
        assert len(rows) == 999
        rates = [float(r[1]) for r in rows]
        peak_gamma = float(rows[int(np.argmax(rates))][0])
        assert peak_gamma == pytest.approx(0.9168, abs=2e-3)
        assert max(rates) == pytest.approx(GAMMA2_RATE, abs=1e-4)
        # signed curve: negative below gamma = 1/2, collapsing at the edges
        assert rates[0] < 0.0
        assert abs(rates[0]) < 0.5 and abs(rates[-1]) < 0.5

    def test_bits_column_is_scaled(self, capsys):
        main(["sweep", "--dim-range", "2..2"])
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(float(row[1]) / math.log(2), abs=1e-9)

    def test_json_format(self, capsys):
        assert main(["sweep", "--dim-range", "2..3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["param"] for entry in payload] == [2, 3]

    @pytest.mark.parametrize("dim_range, product", [
        pytest.param("65..65", 65**2, id="65"),
        pytest.param("2..70", 70**2, id="2-70"),
        pytest.param(f"{10**400}..{10**400}", "of 2658 bits", id="10^400"),
    ])
    def test_range_end_over_the_cap_is_input_failure(self, capsys, dim_range, product):
        # The end of the range is held to the rule of --dim: an end too
        # large for a float is bad input, not a numeric failure.
        assert main(["sweep", "--dim-range", dim_range]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: product dimension {product} exceeds cap 4096\n"

    def test_invalid_range_is_input_failure(self, capsys):
        assert main(["sweep", "--dim-range", "5..2"]) == 2
        assert main(["sweep", "--dim-range", "x..y"]) == 2
        assert main(["sweep", "--gamma-grid", "0"]) == 2
        capsys.readouterr()

    def test_gamma_grid_needs_dimension_two(self, capsys):
        assert main(["sweep", "--gamma-grid", "3", "--dim", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "dimension must be >= 2" in captured.err

    def test_exactly_one_mode_required(self, capsys):
        assert main(["sweep"]) == 2
        assert main(["sweep", "--dim-range", "2..3", "--gamma-grid", "5"]) == 2
        capsys.readouterr()


def verify_seed_3_output(flip: bool) -> str:
    # Written by verify with one stream of normals per section of checks.
    first = ("FAIL  rate_vs_oracle             max_err= 3.168e+00" if flip else
             "PASS  rate_vs_oracle             max_err= 1.780e-12")
    return first + """  tol=2.0e-06
PASS  variance_decomposition     max_err= 1.066e-14  tol=1.0e-09
PASS  mean_energy_vs_direct      max_err= 1.332e-15  tol=1.0e-10
PASS  auto_orthogonality         max_err= 1.903e-16  tol=1.0e-12
PASS  rate_bound_excess          max_err= 0.000e+00  tol=1.0e-09
PASS  local_unitary_invariance   max_err= 1.776e-15  tol=1.0e-09
PASS  lagrange_vs_bruteforce     max_err= 2.220e-16  tol=1.0e-06
PASS  ancilla_identities         max_err= 4.441e-16  tol=1.0e-12
PASS  ancilla_arbitration        max_err= 2.064e-11  tol=2.0e-06
%d/9 checks passed (seed=3, trials=20)
""" % (9 - flip)


# Written by verify with one stream of normals per section of checks.  130
# trials cross a _VERIFY_BLOCK boundary.
VERIFY_SEED_8_OUTPUT = """\
PASS  rate_vs_oracle             max_err= 1.810e-12  tol=2.0e-06
PASS  variance_decomposition     max_err= 1.066e-14  tol=1.0e-09
PASS  mean_energy_vs_direct      max_err= 8.216e-15  tol=1.0e-10
PASS  auto_orthogonality         max_err= 3.949e-16  tol=1.0e-12
PASS  rate_bound_excess          max_err= 0.000e+00  tol=1.0e-09
PASS  local_unitary_invariance   max_err= 2.665e-15  tol=1.0e-09
PASS  lagrange_vs_bruteforce     max_err= 4.441e-16  tol=1.0e-06
PASS  ancilla_identities         max_err= 8.882e-16  tol=1.0e-12
PASS  ancilla_arbitration        max_err= 4.012e-11  tol=2.0e-06
9/9 checks passed (seed=8, trials=130)
"""


# Written by verify with one stream of normals per section of checks.  300
# trials cross a _VERIFY_BLOCK boundary.
VERIFY_SEED_8_TRIALS_300_OUTPUT = """\
PASS  rate_vs_oracle             max_err= 2.685e-12  tol=2.0e-06
PASS  variance_decomposition     max_err= 1.243e-14  tol=1.0e-09
PASS  mean_energy_vs_direct      max_err= 8.216e-15  tol=1.0e-10
PASS  auto_orthogonality         max_err= 6.634e-16  tol=1.0e-12
PASS  rate_bound_excess          max_err= 0.000e+00  tol=1.0e-09
PASS  local_unitary_invariance   max_err= 5.329e-15  tol=1.0e-09
PASS  lagrange_vs_bruteforce     max_err= 4.441e-16  tol=1.0e-06
PASS  ancilla_identities         max_err= 8.882e-16  tol=1.0e-12
PASS  ancilla_arbitration        max_err= 4.012e-11  tol=2.0e-06
9/9 checks passed (seed=8, trials=300)
"""


class TestVerifyCommand:
    def test_passes_and_is_byte_identical(self, capsys):
        assert main(["verify", "--seed", "3", "--trials", "4"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--seed", "3", "--trials", "4"]) == 0
        assert capsys.readouterr().out == first
        assert "PASS" in first and "FAIL" not in first

    def test_injected_sign_flip_fails(self, capsys):
        assert main(["verify", "--seed", "3", "--trials", "3",
                     "--inject-sign-flip"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_wrong_variance_split_fails(self, capsys, monkeypatch):
        exact = entrate.cli.energy_stats

        def wrong_imag_part(psi, h, state):
            stats = exact(psi, h, state)
            return dataclasses.replace(
                stats,
                variance=stats.variance + 1e-6,
                variance_imag_part=stats.variance_imag_part + 1e-6,
            )

        monkeypatch.setattr(entrate.cli, "energy_stats", wrong_imag_part)
        assert main(["verify", "--seed", "3", "--trials", "3"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("FAIL")] == [
            next(line for line in lines if "variance_decomposition" in line)
        ]

    def test_perturbed_max_rate_fails_lagrange_check(self, capsys, monkeypatch):
        # The projection in brute_force_max_k must referee max_rate at 1e-5.
        exact = entrate.optimum.max_rate
        monkeypatch.setattr(
            entrate.optimum, "max_rate", lambda state: exact(state) * (1 + 1e-5)
        )
        assert main(["verify", "--seed", "3", "--trials", "3"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("FAIL")] == [
            next(line for line in lines if "lagrange_vs_bruteforce" in line)
        ]

    def test_index_form_is_the_term_by_term_sum(self):
        # Zero and negative entries of C take no part in the sum.
        rng = np.random.default_rng(5)
        c = rng.normal(size=(40, 3, 4))
        c[rng.random(c.shape) < 0.2] = 0.0
        g = rng.normal(size=(40, 4, 4))
        want = []
        for c_s, g_s in zip(c.tolist(), g.tolist()):
            terms = [2.0 * c_b * c_d * math.log(c_b / c_d) * g_s[d][b]
                     for row in c_s for b, c_b in enumerate(row)
                     for d, c_d in enumerate(row) if c_b > 0 and c_d > 0]
            want.append((math.fsum(terms), math.fsum(map(abs, terms))))
        got = entrate.cli._index_form(c, g)
        for value, (total, scale) in zip(got, want):
            assert abs(value - total) <= 64 * np.finfo(float).eps * scale

    def test_seed_changes_but_still_passes(self, capsys):
        assert main(["verify", "--seed", "11", "--trials", "3"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("seed, trials, flip, expected", [
        pytest.param(3, 20, False, verify_seed_3_output(False), id="False"),
        pytest.param(3, 20, True, verify_seed_3_output(True), id="True"),
        pytest.param(8, 130, False, VERIFY_SEED_8_OUTPUT, id="seed8-trials130"),
        pytest.param(8, 300, False, VERIFY_SEED_8_TRIALS_300_OUTPUT, id="seed8-trials300"),
    ])
    def test_output_is_pinned(self, capsys, seed, trials, flip, expected):
        assert main(["verify", "--seed", str(seed), "--trials", str(trials)]
                    + ["--inject-sign-flip"] * flip) == flip
        assert capsys.readouterr().out == expected

    def test_nan_from_the_oracle_fails(self, capsys, monkeypatch):
        exact = entrate.cli._fd_rates

        def one_nan(amplitudes, h, d_a, d_b):
            rates = exact(amplitudes, h, d_a, d_b)
            rates[-1] = math.nan
            return rates

        monkeypatch.setattr(entrate.cli, "_fd_rates", one_nan)
        assert main(["verify", "--seed", "3", "--trials", "3"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("FAIL")] == [
            "FAIL  rate_vs_oracle             max_err= nan  tol=2.0e-06"
        ]

    def test_nan_variance_fails(self, capsys, monkeypatch):
        exact = entrate.cli.energy_stats

        def nan_variance(psi, h, state):
            stats = exact(psi, h, state)
            return dataclasses.replace(
                stats,
                variance=stats.variance * math.nan,
                variance_imag_part=stats.variance_imag_part * math.nan,
            )

        monkeypatch.setattr(entrate.cli, "energy_stats", nan_variance)
        assert main(["verify", "--seed", "3", "--trials", "3"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL  variance_decomposition     max_err= nan  tol=1.0e-09" in lines

    def test_public_oracle_takes_one_instance_per_call(self, capsys, monkeypatch,
                                                       tmp_path):
        # A traced benchmark run referees each public fd_rate call by reading
        # its state as one d_A x d_B matrix.  verify's rate_vs_oracle and the
        # ancilla arbitration run the oracle's stacked core instead, so
        # neither calls the public function; entrate rate calls it once.
        exact = entrate.oracle.fd_rate
        calls = []

        def one_instance(psi, h):
            assert psi.amplitudes.ndim == 1
            calls.append(psi)
            return exact(psi, h)

        for module in (entrate.oracle, entrate.cli, entrate.ancilla):
            monkeypatch.setattr(module, "fd_rate", one_instance, raising=False)
        # These trials cross the boundary of a block of _VERIFY_BLOCK.
        assert main(["verify", "--trials", str(entrate.cli._VERIFY_BLOCK + 44)]) == 0
        assert "9/9 checks passed" in capsys.readouterr().out
        assert len(calls) == 0
        assert main(["optimize", "--dim", "3", "--ancilla", "2", "--starts", "2"]) == 0
        capsys.readouterr()
        assert len(calls) == 0
        assert main(["rate", *write_worked_pair(tmp_path)]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_more_trials_only_add_instances(self, capsys, monkeypatch):
        # The shorter run ends inside the first block of _VERIFY_BLOCK, the
        # longer runs past it: the shorter run's instances must be the first
        # instances of the longer.
        block = entrate.cli._VERIFY_BLOCK
        short, long = block - 56, block + 44
        fd_rates, arbitrate = entrate.cli._fd_rates, entrate.ancilla.assemble_and_arbitrate

        def instances(trials):
            oracle, ancilla = {}, []

            def record_oracle(amplitudes, h, d_a, d_b):
                # Within one shape the rows run in trial order across calls.
                oracle.setdefault((d_a, d_b), []).extend(zip(amplitudes, h))
                return fd_rates(amplitudes, h, d_a, d_b)

            def record_ancilla(coeffs, g):
                ancilla.extend(zip(coeffs.c, g.upper))
                return arbitrate(coeffs, g)

            monkeypatch.setattr(entrate.cli, "_fd_rates", record_oracle)
            monkeypatch.setattr(entrate.ancilla, "assemble_and_arbitrate", record_ancilla)
            assert main(["verify", "--trials", str(trials)]) == 0
            capsys.readouterr()
            return oracle, ancilla

        (oracle_short, ancilla_short), (oracle_long, ancilla_long) = (
            instances(short), instances(long))
        assert sum(map(len, oracle_short.values())) == len(ancilla_short) == short
        assert sum(map(len, oracle_long.values())) == len(ancilla_long) == long
        for shape, pairs in oracle_short.items():
            for (amp, h), (amp_long, h_long) in zip(pairs, oracle_long[shape][:len(pairs)],
                                                    strict=True):
                assert amp.tobytes() == amp_long.tobytes() and h.tobytes() == h_long.tobytes()
        for (c, g), (c_long, g_long) in zip(ancilla_short, ancilla_long):
            assert c.tobytes() == c_long.tobytes() and g.tobytes() == g_long.tobytes()

    def test_memory_stays_within_one_block(self, capsys):
        # Trials run in blocks of _VERIFY_BLOCK, so four blocks peak as one.
        block = entrate.cli._VERIFY_BLOCK
        peaks = []
        for trials in (block, 4 * block):
            tracemalloc.start()
            try:
                assert main(["verify", "--trials", str(trials)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        assert peaks[1] <= 1.5 * peaks[0]
        # One block peaks at about 8 KiB per trial, about 2 MiB at 256.
        assert peaks[0] < 4 * 2**20

    @pytest.mark.parametrize("flip", [False, True])
    def test_block_size_never_changes_output(self, capsys, monkeypatch, flip):
        args = ["verify", "--seed", "3", "--trials", "40"] + ["--inject-sign-flip"] * flip
        runs = set()
        for block in (1, 7, 64, 256):
            monkeypatch.setattr(entrate.cli, "_VERIFY_BLOCK", block)
            code = main(args)
            runs.add((code, capsys.readouterr().out))
        assert len(runs) == 1
        assert runs.pop()[0] == flip


PAIR = object()          # stands for the two files of the worked pair
UNRECOGNIZED = object()  # argparse's rejection of an undeclared flag

# The flags each subcommand reads, and no others.
PARSER_SURFACE = {
    "rate": {"--tol"},
    "optimize": {"--dim", "--ancilla", "--out", "--starts"},
    "sweep": {"--dim", "--dim-range", "--gamma-grid", "--format"},
    "verify": {"--seed", "--trials", "--inject-sign-flip"},
}


def test_each_subcommand_declares_only_the_flags_it_reads():
    parser = entrate.cli._build_parser()
    (subparsers,) = [action for action in parser._actions
                     if isinstance(action, argparse._SubParsersAction)]
    surface = {
        name: {flag for action in sub._actions for flag in action.option_strings
               if flag not in ("-h", "--help")}
        for name, sub in subparsers.choices.items()
    }
    assert surface == PARSER_SURFACE
    assert sum(map(len, surface.values())) == 12


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    entrate.cli._build_parser.cache_clear()
    for _ in range(2):
        assert main(["sweep", "--dim-range", "2..3"]) == 0
    capsys.readouterr()
    # One tree: the top-level parser and one per subcommand.
    assert len(built) == 1 + len(PARSER_SURFACE)


@pytest.mark.parametrize("argv,code", [
    (["verify", "--trials", "3"], 0),
    (["optimize", "--dim", "0"], 2),
], ids=["verify", "input-failure"])
def test_python_m_entrate_is_main(capsys, argv, code):
    src = str(Path(entrate.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "entrate", *argv], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path}, check=False)
    assert (run.returncode, main(argv)) == (code, code)
    captured = capsys.readouterr()
    assert (run.stdout, run.stderr) == (captured.out, captured.err)


class ClosedPipe:
    """A stdout whose reader has gone: every write and flush raises
    BrokenPipeError.  Its file descriptor is fd."""

    def __init__(self, fd: int):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


class TestBrokenPipe:
    """A stdout whose reader has gone is not an input failure: the command
    keeps its exit code, prints no error, and stdout goes to os.devnull."""

    @pytest.mark.parametrize("argv, code", [
        (["rate"], 0),
        (["optimize", "--dim", "3"], 0),
        (["verify", "--trials", "3", "--inject-sign-flip"], 1),
    ], ids=["rate", "optimize", "verify-failing"])
    def test_command_keeps_its_exit_code(self, tmp_path, capsys, monkeypatch, argv, code):
        if argv == ["rate"]:
            argv = argv + list(write_worked_pair(tmp_path))
        with open(tmp_path / "stdout", "w") as fh:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(fh.fileno()))
            assert main(argv) == code
            assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_pipe_leaves_nothing_at_exit(self, tmp_path, unbuffered):
        # The pipe's reader is closed before the command writes anything.
        src = str(Path(entrate.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "PYTHONUNBUFFERED": unbuffered}
        read, write = os.pipe()
        os.close(read)
        try:
            run = subprocess.run([sys.executable, "-m", "entrate", "rate",
                                  *write_worked_pair(tmp_path)],
                                 stdout=write, stderr=subprocess.PIPE, text=True, env=env,
                                 check=False)
        finally:
            os.close(write)
        assert (run.returncode, run.stderr) == (0, "")


class TestInputFailures:
    @pytest.mark.parametrize("argv, message", [
        pytest.param(["optimize", "--dim", "0"], "all dimensions must be >= 1",
                     id="optimize-dim-0"),
        pytest.param(["sweep", "--gamma-grid", "3", "--dim", "0"],
                     "all dimensions must be >= 1", id="sweep-dim-0"),
        pytest.param(["optimize", "--dim", "2", "--ancilla", "0"],
                     "all dimensions must be >= 1", id="ancilla-0"),
        pytest.param(["optimize", "--dim", "1"], "dimension must be >= 2",
                     id="optimize-dim-1"),
        pytest.param(["optimize", "--dim", "2", "--ancilla", "-1"],
                     "all dimensions must be >= 1", id="ancilla-negative"),
        pytest.param(["verify", "--trials", "0"], "trials must be >= 1",
                     id="trials-0"),
        pytest.param(["verify", "--trials", "-3"], "trials must be >= 1",
                     id="trials-negative"),
        pytest.param(["optimize", "--dim", "7", "--ancilla", "10"],
                     "product dimension 4900 exceeds cap 4096", id="over-cap"),
        pytest.param(["optimize", "--dim", "2", "--starts", "0"],
                     "--starts needs --ancilla", id="optimize-starts-0"),
        pytest.param(["optimize", "--dim", "2", "--ancilla", "2", "--starts", "0"],
                     "--starts must be >= 1", id="ancilla-starts-0"),
        pytest.param(["verify", "--trials", "2", "--seed", "-1"],
                     "seed must be >= 0", id="verify-seed-negative"),
        # Checked in the command, so the message names the flag, not the
        # library parameter, and reads as without --ancilla.
        pytest.param(["optimize", "--dim", "1", "--ancilla", "2"],
                     "dimension must be >= 2", id="ancilla-dim-1"),
        pytest.param(["optimize", "--dim", "1", "--ancilla", "2", "--starts", "0"],
                     "dimension must be >= 2", id="ancilla-dim-1-starts-0"),
        pytest.param(["optimize", "--dim", "2", "--ancilla", "3", "--starts", "-1"],
                     "--starts must be >= 1", id="ancilla-starts-negative"),
        pytest.param(["optimize", "--dim", "3", "--ancilla", "1", "--starts", "0"],
                     "--starts must be >= 1", id="ancilla-one-starts-0"),
        # An empty --out is an input failure, not a missing --out.
        pytest.param(["optimize", "--dim", "2", "--out", ""], "--out must not be empty",
                     id="optimize-out-empty"),
        pytest.param(["optimize", "--dim", "2", "--ancilla", "2", "--out", ""],
                     "--out must not be empty", id="ancilla-out-empty"),
    ])
    def test_exit_2_with_an_error_line(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["optimize", "ancilla", "sweep", "rate"])
    def test_product_too_long_to_print_is_input_failure(self, tmp_path, capsys, command):
        # A product of over 4300 digits, which str() refuses, is named by
        # its length in bits: one error line, no traceback.
        huge = str(10**3999)
        state_file = tmp_path / "s.json"
        state_file.write_text('{"d_a": %d, "d_b": %d, "re_im": [[1.0, 0.0]]}'
                              % (10**3000, 10**3000))
        argv = {"optimize": ["optimize", "--dim", huge],
                "ancilla": ["optimize", "--dim", "2", "--ancilla", huge],
                "sweep": ["sweep", "--dim-range", f"{huge}..{huge}"],
                "rate": ["rate", str(state_file), write_worked_pair(tmp_path)[1]]}[command]
        bits = {"optimize": 26569, "ancilla": 26571, "sweep": 26569, "rate": 19932}[command]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: product dimension of {bits} bits exceeds cap 4096\n")

    @pytest.mark.parametrize("argv, rejection", [
        # Flags the subcommand does not declare: argparse exits 2.
        pytest.param(["rate", PAIR, "--out", "r.txt"], UNRECOGNIZED, id="rate-out"),
        pytest.param(["rate", PAIR, "--starts", "3"], UNRECOGNIZED, id="rate-starts"),
        pytest.param(["rate", PAIR, "--max-iter", "1"], UNRECOGNIZED,
                     id="rate-max-iter"),
        pytest.param(["rate", PAIR, "--seed", "9"], UNRECOGNIZED, id="rate-seed"),
        pytest.param(["rate", PAIR, "--format", "json"], UNRECOGNIZED, id="rate-format"),
        pytest.param(["rate", PAIR, "--log-base", "2"], UNRECOGNIZED, id="rate-log-base"),
        pytest.param(["optimize", "--dim", "3", "--dim-b", "3"], UNRECOGNIZED,
                     id="optimize-dim-b"),
        pytest.param(["optimize", "--dim", "2", "--tol", "1e-30"], UNRECOGNIZED,
                     id="optimize-tol"),
        pytest.param(["optimize", "--dim", "2", "--log-base", "2"], UNRECOGNIZED,
                     id="optimize-log-base"),
        pytest.param(["optimize", "--dim", "2", "--format", "csv"], UNRECOGNIZED,
                     id="optimize-format"),
        pytest.param(["optimize", "--dim", "2", "--max-iter", "5"], UNRECOGNIZED,
                     id="optimize-max-iter"),
        pytest.param(["optimize", "--dim", "2", "--seed", "4"], UNRECOGNIZED,
                     id="optimize-seed"),
        pytest.param(["sweep", "--dim-range", "2..3", "--log-base", "2"],
                     UNRECOGNIZED, id="sweep-log-base"),
        pytest.param(["sweep", "--dim-range", "2..3", "--out", "s.csv"], UNRECOGNIZED,
                     id="sweep-out"),
        pytest.param(["sweep", "--gamma-grid", "3", "--out", "s.csv"], UNRECOGNIZED,
                     id="sweep-grid-out"),
        pytest.param(["sweep", "--dim-range", "2..3", "--seed", "4"], UNRECOGNIZED,
                     id="sweep-seed"),
        pytest.param(["sweep", "--dim-range", "2..3", "--tol", "1e-30"], UNRECOGNIZED,
                     id="sweep-tol"),
        pytest.param(["sweep", "--dim-range", "2..3", "--starts", "3"], UNRECOGNIZED,
                     id="sweep-starts"),
        pytest.param(["sweep", "--dim-range", "2..3", "--max-iter", "1"],
                     UNRECOGNIZED, id="sweep-max-iter"),
        pytest.param(["verify", "--trials", "1", "--out", "v.txt"], UNRECOGNIZED,
                     id="verify-out"),
        pytest.param(["verify", "--trials", "1", "--tol", "1e-30"], UNRECOGNIZED,
                     id="verify-tol"),
        pytest.param(["verify", "--trials", "1", "--log-base", "2"], UNRECOGNIZED,
                     id="verify-log-base"),
        pytest.param(["verify", "--trials", "1", "--format", "csv"], UNRECOGNIZED,
                     id="verify-format"),
        pytest.param(["verify", "--starts", "0"], UNRECOGNIZED, id="verify-starts-0"),
        pytest.param(["verify", "--trials", "1", "--max-iter", "1"], UNRECOGNIZED,
                     id="verify-max-iter"),
        # Flags read in only one mode of the subcommand: exit 2 in the other.
        pytest.param(["optimize", "--dim", "2", "--ancilla", "2", "--out", "P"],
                     "--out cannot be used with --ancilla", id="ancilla-out"),
        pytest.param(["optimize", "--dim", "2", "--starts", "3"],
                     "--starts needs --ancilla", id="optimize-starts"),
        pytest.param(["sweep", "--dim-range", "2..3", "--dim", "3"],
                     "--dim cannot be used with --dim-range", id="sweep-range-dim"),
    ])
    def test_unread_flag_is_rejected(self, tmp_path, capsys, monkeypatch, argv,
                                     rejection):
        monkeypatch.chdir(tmp_path)
        pair = write_worked_pair(tmp_path)
        argv = [arg for item in argv for arg in (pair if item is PAIR else [item])]
        if rejection is UNRECOGNIZED:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments: " in capsys.readouterr().err
        else:
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {rejection}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ham.json", "state.json"]

    def test_fd_step_flag_is_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rate", *write_worked_pair(tmp_path), "--fd-step", "1e-4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --fd-step" in capsys.readouterr().err


class TestConsistency:
    def test_optimize_matches_library(self, capsys):
        main(["optimize", "--dim", "4"])
        report = json.loads(capsys.readouterr().out)
        gamma, rate = optimal_gamma(4)
        assert report["gamma_star"] == pytest.approx(gamma, abs=1e-12)
        assert report["rate_nat"] == pytest.approx(rate, abs=1e-12)
