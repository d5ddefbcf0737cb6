"""Command-line surface: dispatch, formats, determinism, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fptrace
from fptrace import cli, fixtures, rigor
from fptrace.fpcode import is_frameproof, min_distance, parse_code
from fptrace.rigor import BudgetExceededError
from fptrace.tascheme import (
    format_scheme,
    is_traceable_exact,
    make_disjoint_scheme,
    parse_scheme,
    sample_traceability,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["schema"] == 1
    return payload


# ---------------------------------------------------------------------------
# verify-fp
# ---------------------------------------------------------------------------


def test_verify_fp_gamma64(capsys):
    payload = run_json(capsys, "verify-fp", "gamma64", "--c", "2")
    assert payload["frameproof"] is True
    assert payload["n"] == 3 and payload["l"] == 64
    assert payload["weights"] == [32]
    assert payload["min_distance"] == 6
    assert payload["witness"] is None


def test_verify_fp_lemma3_witness(capsys):
    payload = run_json(capsys, "verify-fp", "lemma3_G", "--c", "2")
    assert payload["frameproof"] is False
    assert payload["witness"]["coalition"] == [0, 2]
    assert payload["witness"]["framed"] == 1


def test_verify_fp_file_and_definition(tmp_path, capsys):
    path = tmp_path / "code.txt"
    path.write_text("0011\n0110\n1100\n")
    payload = run_json(capsys, "verify-fp", str(path), "--c", "2", "--definition", "coordset")
    assert payload["frameproof"] is False
    assert payload["definition"] == "coordset"


def test_verify_fp_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0011\n01\n")
    code, out, err = run(capsys, "verify-fp", str(path), "--c", "2")
    assert code == 1
    assert "line 2" in err


def test_verify_fp_unknown_input(capsys):
    code, out, err = run(capsys, "verify-fp", "no_such_thing", "--c", "2")
    assert code == 1 and "neither" in err


@pytest.mark.parametrize("argv, text, steps", [
    # 400 words at c = 3: C(400, 2) * 398 + C(400, 3) * 397 pair tests
    (["verify-fp", "--c", "3"], "".join(f"{i:09b}\n" for i in range(400)), 4234720000),
    # 2000 one-key decoders at c = 2: C(2000, 2) * 1998 pair tests
    (["verify-ta", "--c", "2", "--method", "exact"],
     format_scheme(make_disjoint_scheme(2000, 2000, 1)), 3994002000),
    # at c = n = 15000 the count stops at the first size that passes the
    # budget: C(15000, 2) * 14998 pair tests, for codes and schemes alike
    (["verify-fp", "--c", "15000"], "".join(f"{i:014b}\n" for i in range(15000)),
     1687162515000),
    (["verify-ta", "--c", "15000", "--method", "exact"],
     format_scheme(make_disjoint_scheme(15000, 15000, 1)), 1687162515000),
], ids=["verify-fp", "verify-ta", "verify-fp-15000", "verify-ta-15000"])
def test_exact_verification_over_budget_is_an_error(tmp_path, capsys, argv, text, steps):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 1 and out == ""
    assert err == f"error: exact verification needs ~{steps} steps, budget is 1000000000\n"


def test_min_distance_over_budget_is_an_error(tmp_path, capsys, monkeypatch):
    """At c = 1 no coalition is walked, so the minimum distance's C(n, 2)
    pairs are the only work the budget sees: 40 words take 780 steps."""
    path = tmp_path / "code.txt"
    path.write_text("".join(f"{i:06b}\n" for i in range(40)))
    monkeypatch.setattr(rigor, "DEFAULT_STEP_BUDGET", 780)
    assert run_json(capsys, "verify-fp", str(path), "--c", "1")["min_distance"] == 1
    monkeypatch.setattr(rigor, "DEFAULT_STEP_BUDGET", 779)
    code, out, err = run(capsys, "verify-fp", str(path), "--c", "1")
    assert (code, out, err) == (1, "", "error: minimum distance needs ~780 steps, budget is 779\n")


def test_every_verifier_reads_the_one_step_budget_when_it_runs(tmp_path, capsys, monkeypatch):
    """Lowering ``rigor.DEFAULT_STEP_BUDGET`` after import reaches every
    verifier and both commands: 40 words or one-key decoders take C(40, 2)
    * 38 pair tests at c = 2, C(40, 2) codeword pairs, or min(100, C(40, 2))
    cuts of 40 decoders; the triangle passes 3 steps only mid-search."""
    words = "".join(f"{i:06b}\n" for i in range(40))
    code, scheme = parse_code(words), make_disjoint_scheme(40, 40, 1)
    monkeypatch.setattr(rigor, "DEFAULT_STEP_BUDGET", 10)
    for refuse, message in (
        (lambda: is_frameproof(code, 2), "exact verification needs ~29640 steps, budget is 10"),
        (lambda: min_distance(code), "minimum distance needs ~780 steps, budget is 10"),
        (lambda: is_traceable_exact(scheme, 2),
         "exact verification needs ~29640 steps, budget is 10"),
        (lambda: sample_traceability(scheme, 2, 100, 1),
         "sampling needs ~4000 steps, budget is 10"),
    ):
        with pytest.raises(BudgetExceededError) as refused:
            refuse()
        assert str(refused.value) == message
    code_path, scheme_path = tmp_path / "code.txt", tmp_path / "scheme.txt"
    code_path.write_text(words)
    scheme_path.write_text(format_scheme(scheme))
    for argv, message in (
        (["verify-fp", str(code_path), "--c", "2"],
         "exact verification needs ~29640 steps, budget is 10"),
        (["verify-ta", str(scheme_path), "--c", "2", "--method", "exact"],
         "exact verification needs ~29640 steps, budget is 10"),
    ):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")
    monkeypatch.setattr(rigor, "DEFAULT_STEP_BUDGET", 3)
    with pytest.raises(BudgetExceededError) as refused:
        is_traceable_exact(fixtures.triangle(), 2)
    assert str(refused.value) == "exact verification ran past its budget of 3 steps"
    assert run(capsys, "verify-ta", "triangle", "--c", "2", "--method", "exact") == (
        1, "", "error: exact verification ran past its budget of 3 steps\n"
    )


_THM6 = ["bounds", "thm6", "--q", "64", "--delta", "3", "--c", "2", "--sigma", "7/64",
         "--l", "64"]
_THM7 = ["bounds", "thm7", "--q", "256", "--delta", "3", "--c", "4", "--sigma", "9/256",
         "--l", "256"]


@pytest.mark.parametrize("argv", [
    ["verify-fp", "gamma64", "--c", "2", "--precision-bits", "64"],
    ["verify-ta", "triangle", "--c", "2", "--precision-bits", "64"],
    ["fixtures", "list", "--precision-bits", "64"],
    ["verify-ta", "triangle", "--c", "2", "--mode", "exact"],
    [*_THM6, "--k", "32"],
    [*_THM7, "--k", "32", "--s", "3"],
    ["fixtures", "list", "gamma64"],
], ids=["verify-fp-precision", "verify-ta-precision", "fixtures-precision", "verify-ta-mode",
        "thm6-k", "thm7-s", "fixtures-list-name"])
def test_flag_the_command_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exited.value.code == 2 and captured.out == ""
    assert "error: unrecognized arguments: " in captured.err


@pytest.mark.parametrize("argv, missing", [
    (["verify-fp"], "code, --c"),
    (_THM7, "--k"),
    (["fixtures", "emit"], "name"),
], ids=["verify-fp-without-code-and-c", "thm7-without-k", "emit-without-name"])
def test_missing_required_value_is_a_usage_error(capsys, argv, missing):
    with pytest.raises(SystemExit) as exited:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exited.value.code == 2 and captured.out == ""
    assert f"error: the following arguments are required: {missing}\n" in captured.err


@pytest.mark.parametrize("command", ["verify-fp", "verify-ta"])
def test_directory_input_is_an_error(tmp_path, capsys, command):
    code, out, err = run(capsys, command, str(tmp_path), "--c", "2")
    assert code == 1
    assert err.startswith(f"error: {tmp_path}: ") and "Traceback" not in err


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("command", ["verify-fp", "verify-ta"])
def test_fifo_input_is_an_error(tmp_path, command):
    """Reading a FIFO with no writer would block, so the CLI runs in a child
    with a timeout: a hang fails the test instead of the suite."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    src = str(Path(fptrace.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "fptrace.cli", command, str(fifo), "--c", "2"],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == f"error: {fifo}: not a regular file\n"


@pytest.mark.parametrize("command", ["verify-fp", "verify-ta"])
def test_non_utf8_input_is_an_error(tmp_path, capsys, command):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"0011\n0110\n\xe9\n")
    code, out, err = run(capsys, command, str(path), "--c", "2")
    assert code == 1
    assert err == f"error: {path}: not UTF-8 text (byte 10)\n"


# ---------------------------------------------------------------------------
# verify-ta
# ---------------------------------------------------------------------------


def test_verify_ta_structural(capsys):
    payload = run_json(
        capsys, "verify-ta", "disjoint_256_8_32", "--c", "4", "--method", "structural"
    )
    assert payload["verdict"] == "CertifiedTrue"
    assert payload["l"] == 256 and payload["n"] == 8 and payload["k"] == 32


def test_verify_ta_exact_triangle(capsys):
    payload = run_json(capsys, "verify-ta", "triangle", "--c", "2", "--method", "exact")
    assert payload["verdict"] == "CertifiedFalse"
    assert payload["witness"]["coalition"] == [0, 1]
    assert payload["witness"]["pirate"] == [0, 2]
    assert payload["witness"]["outsider"] == 2


def test_verify_ta_sample(capsys):
    payload = run_json(
        capsys,
        "verify-ta", "disjoint_256_8_32", "--c", "4",
        "--method", "sample", "--trials", "2000", "--seed", "42",
    )
    assert payload["verdict"].startswith("Unresolved")
    assert "0 violations in 2000 trials" in payload["detail"]


def test_verify_ta_structural_precondition(capsys):
    code, out, err = run(capsys, "verify-ta", "triangle", "--c", "2", "--method", "structural")
    assert code == 1 and "disjoint" in err


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_thm6(capsys):
    payload = run_json(
        capsys,
        "bounds", "thm6", "--q", "64", "--delta", "3", "--c", "2",
        "--sigma", "7/64", "--l", "64",
    )
    assert payload["sigma_ok"] is True
    assert payload["contradiction"] == "CertifiedTrue"
    assert payload["lower_log2"]["lo"] == "45" and payload["lower_log2"]["hi"] == "45"
    assert payload["upper_exact"] == "8589934590"


def test_bounds_thm7(capsys):
    payload = run_json(
        capsys,
        "bounds", "thm7", "--q", "256", "--delta", "3", "--c", "4",
        "--sigma", "9/256", "--l", "256", "--k", "32", "--precision-bits", "128",
    )
    assert payload["contradiction"] == "CertifiedTrue"
    assert payload["sw_detail"]["t"] == 8
    assert payload["sw_detail"]["denominator"] == 2629575


def test_bounds_rejects_non_prime_power(capsys):
    code, out, err = run(
        capsys,
        "bounds", "thm6", "--q", "6", "--delta", "3", "--c", "2",
        "--sigma", "7/64", "--l", "6",
    )
    assert code == 1 and "prime power" in err


def test_bounds_rejects_relation_violation(capsys):
    code, out, err = run(
        capsys,
        "bounds", "thm6", "--q", "64", "--delta", "3", "--c", "3",
        "--sigma", "7/64", "--l", "64",
    )
    assert code == 1 and "c | l" in err


@pytest.mark.parametrize("which, extra", [("thm6", ()), ("thm7", ("--k", "32"))])
@pytest.mark.parametrize("c", ["0", "-1"])
def test_bounds_rejects_c_below_two(capsys, which, extra, c):
    """c = 0 is refused like any c < 2, before thm6's c | l test divides by it."""
    code, out, err = run(
        capsys,
        "bounds", which, "--q", "64", "--delta", "3", "--c", c,
        "--sigma", "7/64", "--l", "64", *extra,
    )
    assert (code, out, err) == (1, "", "error: c must be >= 2\n")


def test_bounds_bad_sigma_string(capsys):
    code, out, err = run(
        capsys,
        "bounds", "thm6", "--q", "64", "--delta", "3", "--c", "2",
        "--sigma", "seven", "--l", "64",
    )
    assert code == 1 and "rational" in err


# ---------------------------------------------------------------------------
# scan / entropy / fixtures
# ---------------------------------------------------------------------------


def test_scan_thm10_json(capsys):
    payload = run_json(capsys, "scan", "--mode", "thm10", "--wmax", "8", "--cmax", "20")
    assert payload["certified_infeasible"] is True
    assert payload["verdict"] == "CertifiedTrue"
    assert payload["cases"] is not None


def test_scan_rejected_extents(capsys):
    code, out, err = run(capsys, "scan", "--wmax", "3", "--cmax", "2")
    assert code == 1 and "minimum probe extents" in err


def test_entropy_command(capsys):
    payload = run_json(capsys, "entropy", "1/2")
    assert payload["enclosure"]["lo"] == "1" and payload["enclosure"]["hi"] == "1"
    code, out, err = run(capsys, "entropy", "3/2")
    assert code == 1 and "entropy" in err


@pytest.mark.parametrize("bits", ["0", "4097", "100000"])
def test_precision_bits_out_of_range_is_an_error(capsys, bits):
    code, out, err = run(capsys, "entropy", "1/3", "--precision-bits", bits)
    assert code == 1 and out == ""
    assert err == f"error: --precision-bits must be in [1, 4096], got {bits}\n"


@pytest.mark.parametrize("argv", [
    ["bounds", "thm6", "--q", "64", "--delta", "3", "--c", "2", "--sigma", "7/64", "--l", "64"],
    ["scan"],
    ["entropy", "1/3"],
], ids=["bounds", "scan", "entropy"])
def test_precision_bits_is_bounded_where_it_is_read(capsys, argv):
    code, out, err = run(capsys, *argv, "--precision-bits", "4097")
    assert code == 1 and out == ""
    assert err == "error: --precision-bits must be in [1, 4096], got 4097\n"


def test_precision_bits_at_the_cap(capsys):
    payload = run_json(capsys, "entropy", "1/3", "--precision-bits", "4096")
    assert payload["precision_bits"] == 4096


@pytest.mark.parametrize("flag, value, low, high", [
    ("--wmax", "4", 5, 1024),
    ("--wmax", "1025", 5, 1024),
    ("--cmax", "18", 19, 1024),
    ("--cmax", "1000000", 19, 1024),
])
def test_scan_extent_out_of_range_is_an_error(capsys, flag, value, low, high):
    code, out, err = run(capsys, "scan", flag, value)
    assert code == 1 and out == ""
    assert err == (
        f"error: {flag} must be in [{low}, {high}], got {value}"
        " (5 and 19 are the minimum probe extents)\n"
    )


@pytest.mark.parametrize("trials", ["-1", "1000001", "1000000000"])
def test_trials_out_of_range_is_an_error(capsys, trials):
    code, out, err = run(capsys, "verify-ta", "triangle", "--c", "2",
                         "--method", "sample", "--trials", trials)
    assert code == 1 and out == ""
    assert err == f"error: --trials must be in [0, 1000000], got {trials}\n"


def test_trials_is_bounded_only_where_the_sampler_reads_it(capsys):
    code, out, err = run(capsys, "verify-ta", "triangle", "--c", "2",
                         "--method", "exact", "--trials", "2000000")
    assert code == 0 and err == ""
    assert ("witness: coalition [0, 1] builds pirate [0, 2], "
            "outsider decoder 2 ties the trace\n") in out


@pytest.mark.parametrize("flag, value, low, high", [
    ("--l", "0", 1, 262144),
    ("--l", "262145", 1, 262144),
    ("--l", "4194304", 1, 262144),
    ("--s", "1", 2, 16),
    ("--s", "17", 2, 16),
    ("--delta", "0", 1, 262144),
    ("--delta", "262145", 1, 262144),
])
def test_bounds_length_and_alphabet_out_of_range_is_an_error(capsys, flag, value, low, high):
    params = {"--q": "4194304", "--delta": "1", "--c": "2", "--sigma": "1/4", "--l": "64"}
    params[flag] = value
    argv = [item for pair in params.items() for item in pair]
    code, out, err = run(capsys, "bounds", "thm6", *argv)
    assert code == 1 and out == ""
    assert err == f"error: {flag} must be in [{low}, {high}], got {value}\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_bounds_prints_exact_upper_past_the_digit_limit(capsys, fmt):
    """The thm6 upper bound 2*(2^16384 - 1) has 4,933 decimal digits, more
    than Python's default int-to-str limit of 4,300, which is restored after
    printing.  So do the endpoints of H(1/10^4290), whose x still parses
    under the limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    code, out, err = run(
        capsys, "bounds", "thm6", "--q", "32768", "--delta", "1", "--c", "2",
        "--sigma", "1/4", "--l", "32768", "--format", fmt,
    )
    assert code == 0 and err == ""
    assert limit() == before
    if fmt == "json":
        digits = json.loads(out)["upper_exact"]
    else:
        (line,) = [x for x in out.splitlines() if x.startswith("upper bound, exact: ")]
        digits = line.removeprefix("upper bound, exact: ")
    assert len(digits) == 4933
    with cli._exact_integer_digits():
        assert digits == str(2 * (2**16384 - 1))
    x = "1/1" + "0" * 4290
    code, out, err = run(capsys, "entropy", x, "--format", fmt)
    assert code == 0 and err == ""
    assert limit() == before
    if fmt == "json":
        assert json.loads(out)["x"] == x
    else:
        assert out.startswith(f"command: entropy {x}\n")


def test_fixture_round_trips(capsys):
    for name in fixtures.CODES:
        code, out, err = run(capsys, "fixtures", "emit", name)
        assert code == 0
        assert parse_code(out) == fixtures.CODES[name]()
    for name in fixtures.SCHEMES:
        code, out, err = run(capsys, "fixtures", "emit", name)
        assert code == 0
        assert parse_scheme(out) == fixtures.SCHEMES[name]()


def test_fixture_list_and_unknown(capsys):
    code, out, err = run(capsys, "fixtures", "list")
    assert code == 0
    for name in ("gamma64", "lemma3_G", "disjoint_256_8_32", "triangle"):
        assert name in out
    code, out, err = run(capsys, "fixtures", "emit", "nope")
    assert code == 1 and "unknown fixture" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_fixture_summaries_are_the_emitted_headers(capsys, fmt):
    """Each row of ``fixtures list`` is the first line of the fixture's file
    without its ``# ``."""
    code, out, err = run(capsys, "fixtures", "list", "--format", fmt)
    assert code == 0 and err == ""
    if fmt == "json":
        rows = [(row["name"], row["summary"]) for row in json.loads(out)["fixtures"]]
    else:
        rows = [tuple(line.split(maxsplit=1)) for line in out.splitlines()]
    assert [name for name, _ in rows] == list(fixtures.fixture_names())
    for name, summary in rows:
        code, emitted, err = run(capsys, "fixtures", "emit", name)
        assert code == 0 and emitted.splitlines()[0] == f"# {summary}"


# ---------------------------------------------------------------------------
# argv fuzz
# ---------------------------------------------------------------------------


def _values(*values) -> st.SearchStrategy:
    return st.sampled_from([str(v) for v in values])


# Valid values per flag.  The bounds calls are whole, since their flags
# must satisfy q's and the theorems' relations together.
_VALID = {
    "verify-fp": {"--c": _values(1, 2, 3), "--definition": _values("unanimity", "coordset")},
    "verify-ta": {
        "--c": _values(1, 2, 3, 4),
        "--method": _values("exact", "structural", "sample"),
        "--trials": _values(0, 1, 200, 1000000),
        "--seed": _values(0, 1, 42),
    },
    "scan": {
        "--mode": _values("thm10", "thm11"),
        "--wmax": _values(5, 6, 64),
        "--cmax": _values(19, 20, 64),
        "--precision-bits": _values(1, 2, 64, 128),
    },
    "entropy": {"--precision-bits": _values(1, 64, 4096)},
    "fixtures": {},
}
_VALID_BOUNDS = (
    ("thm6", "--q", "64", "--delta", "3", "--c", "2", "--sigma", "7/64", "--l", "64"),
    ("thm6", "--q", "256", "--delta", "1", "--c", "4", "--sigma", "1/4", "--l", "256", "--s", "16"),
    ("thm6", "--q", "4", "--delta", "1", "--c", "4", "--sigma", "9/16", "--l", "4"),
    ("thm7", "--q", "256", "--delta", "3", "--c", "4", "--sigma", "9/256", "--l", "256",
     "--k", "32"),
    ("thm7", "--q", "64", "--delta", "2", "--c", "2", "--sigma", "1/2", "--l", "64", "--k", "32"),
)

# Boundary values per flag: 0, +-1, its bounds and their neighbours, a huge
# integer, Unicode digits (U+0661, U+0662 and U+0664 are ARABIC-INDIC DIGIT
# ONE, TWO and FOUR) and choices the flag does not offer.  Left out to keep
# the test to a few seconds, not because they fail: 4096-bit scans (about
# 4 s each), --cmax 1023 and 1024 (about 0.4 s per THM10 scan), --wmax 1023,
# and a valid thm6 call at l = 2^18 (up to 1 s with a large --s).
_RATIONALS = _values("0", "-1", "1", "1/0", "0/5", "2/4", "1/3", "0.25", "1e-3",
                     "\u0661/\u0664", "1/1" + "0" * 4290, "seven")
_PRECISION = _values(-1, 0, 1, 2, 64, 4096, 4097)
_BOUNDARY = {
    "verify-fp": {
        "--c": _values(-1, 0, 1, 2, 10**30, "\u0662"),
        "--definition": _values("unanimity", "coordset", "both"),
    },
    "verify-ta": {
        "--c": _values(-1, 0, 1, 2, 10**30, "\u0662"),
        "--method": _values("exact", "structural", "sample", "all"),
        "--trials": _values(-1, 0, 1, 999999, 1000000, 1000001, "\u0662"),
        "--seed": _values(-1, 0, 1, 2**64),
    },
    "bounds": {
        "--q": _values(-1, 0, 1, 2, 6, 2**32, 2**32 + 1, "\u0662"),
        "--delta": _values(-1, 0, 1, 2, 262143, 262144, 262145),
        "--c": _values(-1, 0, 1, 2, 3, 10**30),
        "--sigma": _RATIONALS,
        "--l": _values(-1, 0, 1, 2, 262143, 262144, 262145),
        "--precision-bits": _PRECISION,
    },
    "scan": {
        "--mode": _values("thm10", "thm11", "thm12"),
        "--wmax": _values(-1, 0, 4, 5, 6, 1024, 1025),
        "--cmax": _values(-1, 0, 18, 19, 20, 1025),
        "--precision-bits": _values(-1, 0, 1, 2, 64, 65, 4097),
    },
    "entropy": {"--precision-bits": _PRECISION},
    "fixtures": {},
}
# each theorem's own flag, drawn on top of the bounds flags
_THEOREM_BOUNDARY = {
    "thm6": {"--s": _values(1, 2, 3, 15, 16, 17)},
    "thm7": {"--k": _values(-1, 0, 1, 32)},
}


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Input specs per command: the valid ones (fixtures, a small code, a
    small scheme), and any of them or a missing path, or a file that is
    empty, not UTF-8, a directory, or a scheme header asking for more than
    2^28 key-mask bits."""
    root = tmp_path_factory.mktemp("fuzz")
    files = {
        "empty.txt": b"",
        "latin1.txt": b"0011\n\xe9\n",
        "code.txt": b"0011\n0110\n1100\n",
        "scheme.txt": b"4 3 2\n0 1\n1 2\n0 3\n",
        "header.txt": ("16777216 20 1\n" + "".join(f"{i}\n" for i in range(20))).encode(),
    }
    for name, data in files.items():
        (root / name).write_bytes(data)
    (root / "dir").mkdir()
    paths = [str(root / name) for name in (*files, "dir", "missing.txt")]
    return {
        "verify-fp": st.sampled_from([*fixtures.CODES, paths[2]]),
        "verify-ta": st.sampled_from([*fixtures.SCHEMES, paths[3]]),
        "any": st.sampled_from([*fixtures.fixture_names(), *paths]),
    }


@st.composite
def fuzz_argvs(draw, inputs):
    """A call over the whole grammar and its variants.  The call is a
    command with valid values (or an invalid positional); the variants set
    each flag in turn, then all of them at once, to a drawn boundary value,
    drop one flag, and add a flag the command does not take."""
    command = draw(st.sampled_from(sorted(_BOUNDARY)))
    own = {}
    if command == "bounds":
        which, *pairs = draw(st.sampled_from(_VALID_BOUNDS))
        positionals = [draw(st.sampled_from([which] * 9 + ["thm8"]))]
        flags = dict(zip(pairs[::2], pairs[1::2]))
        own = _THEOREM_BOUNDARY[which]
    else:
        if command in ("verify-fp", "verify-ta"):
            positionals = [draw(st.one_of(inputs[command], inputs["any"]))]
        elif command == "entropy":
            positionals = [draw(_RATIONALS)]
        elif command == "fixtures":
            positionals = draw(st.sampled_from(
                [["list"], ["list", "gamma64"], ["emit"], ["emit", "nope"], ["show"]]
                + [["emit", name] for name in fixtures.fixture_names()]
            ))
        else:
            positionals = []
        # --c is the one required flag outside bounds
        flags = {
            flag: draw(values) for flag, values in _VALID[command].items()
            if flag == "--c" or draw(st.booleans())
        }
    boundary = {flag: draw(values) for flag, values in {**_BOUNDARY[command], **own}.items()}
    variants = [flags, {**flags, **boundary}, *({**flags, flag: v} for flag, v in boundary.items())]
    if flags:
        dropped = draw(st.sampled_from(sorted(flags)))
        variants.append({flag: v for flag, v in flags.items() if flag != dropped})
    stray = draw(st.sampled_from(
        [["--precision-bits", "64"], ["--k", "1"], ["--s", "3"], ["--bogus"]]
    ))
    fmt = draw(st.sampled_from([[], ["--format", "json"], ["--format", "text"]]))
    argvs = [[command, *positionals, *(x for pair in v.items() for x in pair)] for v in variants]
    argvs.append(argvs[0] + stray)
    return [argv + fmt for i, argv in enumerate(argvs) if argv not in argvs[:i]]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_any_argv_exits_cleanly(fuzz_inputs, data):
    """``main`` returns 0 or 1, or argparse exits 2.  Exit 1 writes one
    stderr line, starting ``error: ``, and nothing to stdout.  Exit 0 writes
    nothing to stderr, and under ``--format json`` one JSON object with its
    schema, except ``fixtures emit``, which prints the fixture file whatever
    the format (ROADMAP item 4).  Nothing else may escape."""
    for argv in data.draw(fuzz_argvs(fuzz_inputs)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exited:
                assert exited.code == 2, argv
                continue
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1), argv
        if code == 1:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        else:
            assert err == "", argv
            if argv[-2:] == ["--format", "json"] and argv[:2] != ["fixtures", "emit"]:
                assert "schema" in json.loads(out), argv


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_json_byte_identical_across_runs(capsys):
    outputs = []
    for _ in range(2):
        code, out, err = run(
            capsys, "scan", "--mode", "thm10", "--wmax", "8", "--cmax", "20",
            "--format", "json",
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        code, out, err = run(
            capsys,
            "verify-ta", "disjoint_6_3_2", "--c", "3", "--method", "sample",
            "--trials", "500", "--seed", "9", "--format", "json",
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# package import
# ---------------------------------------------------------------------------


def test_import_fptrace_loads_every_library_module():
    """``import fptrace`` imports the five library modules, so a fresh
    interpreter's ``import fptrace`` pays for all of them."""
    src = str(Path(fptrace.__file__).resolve().parent.parent)
    probe = "import fptrace, sys; print(' '.join(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    loaded = set(done.stdout.split())
    for name in ("bounds", "fpcode", "paramscan", "rigor", "tascheme"):
        assert f"fptrace.{name}" in loaded
