"""Whole-command gates: each runs one command in a fresh interpreter under
a wall-clock timeout, so start-up, parsing and every refusal are timed as a
user meets them, and checks its exit status and what it prints: the one
stderr line of a refusal, the stdout lines a verdict must include, or the
SHA-256 of the whole stdout.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fptrace
from fptrace.fpcode import Code, construct_identity_concat, format_code

SRC = str(Path(fptrace.__file__).resolve().parent.parent)
CLI = (sys.executable, "-m", "fptrace.cli")

# Input files by name: each is written to the test's directory, and
# ``{input}`` in a gate's argv stands for its path.
INPUTS = {
    # 15,000 one-key decoders
    "disjoint_15000_1": lambda: "15000 15000 1\n" + "".join(f"{i}\n" for i in range(15000)),
    # 8,000 two-key decoders, pairwise disjoint but for the last, which
    # shares key 1 with decoder 0
    "shared_16000_8000_2": lambda: "16000 8000 2\n"
    + "".join(f"{2 * i} {2 * i + 1}\n" for i in range(7999)) + "1 15998\n",
    "words_50000_16": lambda: "".join(f"{i:016b}\n" for i in range(50000)),
    "identity_200_30_30": lambda: format_code(construct_identity_concat(200, 30, 30)),
    # 201 words of length 2,200, every outsider live: c = 2 walks all
    # C(201, 2) * 199 = 3,999,900 (coalition, outsider) pairs
    "identity_200_1000_1000_plus_one": lambda: format_code(Code(
        construct_identity_concat(200, 1000, 1000).codewords
        + ((1,) * 1200 + (0,) * 999 + (1,),)
    )),
}

MID_SEARCH = (
    "import sys; from fptrace import cli, rigor; rigor.DEFAULT_STEP_BUDGET = 3; "
    'sys.exit(cli.main(["verify-ta", "triangle", "--c", "2", "--method", "exact"]))'
)

# (input, argv, timeout in seconds, exit status, expected): with exit status
# 1 the expected value is the whole stderr line and stdout is empty; with 0
# it is the stdout lines that must appear, or ("sha256", digest of stdout).
GATES = {
    "exact-over-budget": (
        "disjoint_15000_1",
        (*CLI, "verify-ta", "{input}", "--c", "15000", "--method", "exact"), 20, 1,
        "error: exact verification needs ~1687162515000 steps, budget is 1000000000",
    ),
    "structural-15000": (
        "disjoint_15000_1",
        (*CLI, "verify-ta", "{input}", "--c", "2", "--method", "structural"), 5, 0,
        ["verdict: CertifiedTrue"],
    ),
    "structural-refuses-shared-key": (
        "shared_16000_8000_2",
        (*CLI, "verify-ta", "{input}", "--c", "2", "--method", "structural"), 5, 1,
        "error: decoders 0 and 7999 share key 1; "
        "the structural argument needs pairwise-disjoint decoders",
    ),
    "sampling-over-budget": (
        "disjoint_15000_1",
        (*CLI, "verify-ta", "{input}", "--c", "2", "--method", "sample"), 20, 1,
        "error: sampling needs ~1500000000 steps, budget is 1000000000",
    ),
    "sampling-no-live-decoder": (
        "disjoint_15000_1",
        (*CLI, "verify-ta", "{input}", "--c", "2", "--method", "sample", "--trials", "60000"),
        5, 0, ["detail: 0 violations in 60000 trials (seed 1)"],
    ),
    "min-distance-over-budget": (
        "words_50000_16", (*CLI, "verify-fp", "{input}", "--c", "1"), 10, 1,
        "error: minimum distance needs ~1249975000 steps, budget is 1000000000",
    ),
    "identity-without-walk": (
        "identity_200_30_30", (*CLI, "verify-fp", "{input}", "--c", "3"), 5, 0,
        ["frame-proof: true"],
    ),
    "live-walk-4.0M-pairs": (
        "identity_200_1000_1000_plus_one", (*CLI, "verify-fp", "{input}", "--c", "2"), 10, 0,
        ["frame-proof: true"],
    ),
    "mid-search-refusal": (
        None, (sys.executable, "-c", MID_SEARCH), 5, 1,
        "error: exact verification ran past its budget of 3 steps",
    ),
    "device-refused": (
        None, (*CLI, "verify-fp", "/dev/zero", "--c", "2"), 5, 1,
        "error: /dev/zero: not a regular file",
    ),
    "thm11-1024": (
        None, (*CLI, "scan", "--mode", "thm11", "--wmax", "1024", "--cmax", "1024"), 5, 0,
        ["windows checked: 63488  analytically excluded pairs: 0",
         "global verdict: CertifiedInfeasible"],
    ),
    "thm10-4096b-scan": (
        None, (*CLI, "scan", "--precision-bits", "4096", "--format", "json"), 20, 0,
        ("sha256", "4d19dafbeb5621eb333a268429c5f6001519e197f1dadee9606de71884826565"),
    ),
    "largest-near-tie": (
        None,
        (*CLI, "bounds", "thm6", "--q", "262144", "--delta", "1", "--c", "2",
         "--sigma", "131071/262144", "--l", "262144"), 5, 0,
        ["contradiction (upper < lower): CertifiedTrue"],
    ),
}


@pytest.mark.parametrize("name", GATES)
def test_gate(tmp_path, name):
    source, argv, timeout, status, expected = GATES[name]
    if source is not None:
        path = tmp_path / f"{source}.txt"
        path.write_text(INPUTS[source]())
        argv = [str(path) if arg == "{input}" else arg for arg in argv]
    done = subprocess.run(
        argv, capture_output=True, timeout=timeout, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    out, err = done.stdout.decode(), done.stderr.decode()
    assert done.returncode == status, err
    if status == 1:
        assert (out, err) == ("", expected + "\n")
        return
    assert err == ""
    if isinstance(expected, tuple):
        assert hashlib.sha256(done.stdout).hexdigest() == expected[1]
    else:
        assert all(line in out.splitlines() for line in expected), out
