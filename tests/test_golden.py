"""Golden CLI outputs: every README command, plus a certified-false bound
report, a near tie that enclosures leave unresolved at 4096 bits and the
exact power comparison certifies, one whose sigma constraint is an exact
tie, an entropy and scans at 4096, 1024 and 2 bits, in text and JSON,
reproduced byte for byte.

The files under ``tests/golden/`` are ``<name>.txt`` and ``<name>.json``.
They were written once, before the certification core was refactored (the
exact disjoint verdict after the signature-class search replaced pirate
enumeration), by

    PYTHONPATH=src python -m tests.test_golden

which overwrites them with the current output; rerun it only for an
intended change of output.
"""

import contextlib
import io
from pathlib import Path

import pytest

from fptrace import cli

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN = {
    "verify_fp_gamma64": ["verify-fp", "gamma64", "--c", "2"],
    "bounds_thm6": ["bounds", "thm6", "--q", "64", "--delta", "3", "--c", "2",
                    "--sigma", "7/64", "--l", "64"],
    "bounds_thm7": ["bounds", "thm7", "--q", "256", "--delta", "3", "--c", "4",
                    "--sigma", "9/256", "--l", "256", "--k", "32"],
    "verify_ta_structural": ["verify-ta", "disjoint_256_8_32", "--c", "4",
                             "--method", "structural"],
    "verify_ta_sample": ["verify-ta", "disjoint_256_8_32", "--c", "4",
                         "--method", "sample", "--seed", "42", "--trials", "200"],
    "verify_fp_lemma3_G": ["verify-fp", "lemma3_G", "--c", "2"],
    "verify_ta_triangle": ["verify-ta", "triangle", "--c", "2", "--method", "exact"],
    # CertifiedTrue by the per-pair search; pirate enumeration refused it
    "verify_ta_exact_disjoint": ["verify-ta", "disjoint_256_8_32", "--c", "4",
                                 "--method", "exact"],
    "scan_thm10": ["scan", "--mode", "thm10", "--wmax", "64", "--cmax", "64"],
    "scan_thm11": ["scan", "--mode", "thm11", "--wmax", "64", "--cmax", "64"],
    "entropy_1_16": ["entropy", "1/16", "--precision-bits", "40"],
    # 4096-bit endpoints pin every digit of the series kernel's output
    "entropy_4096b": ["entropy", "1/3", "--precision-bits", "4096"],
    "fixtures_list": ["fixtures", "list"],
    "fixtures_emit_gamma64": ["fixtures", "emit", "gamma64"],
    # upper > lower: the contradiction is CertifiedFalse
    "bounds_thm6_false": ["bounds", "thm6", "--q", "64", "--delta", "1", "--c", "2",
                          "--sigma", "1/2", "--l", "64"],
    # log2 of the upper bound is within 2^-4096 of the lower, so enclosures
    # never separate; the exact power comparison U < 2^8193 certifies it
    "bounds_thm6_near_tie": ["bounds", "thm6", "--q", "16384", "--delta", "1", "--c", "2",
                             "--sigma", "8191/16384", "--l", "16384"],
    # l = (13 + sqrt(169 + 48 sigma))/(12 sigma) exactly: the sigma constraint
    # is CertifiedFalse, decided in exact rationals
    "bounds_thm6_sigma_tie": ["bounds", "thm6", "--q", "4", "--delta", "1", "--c", "2",
                              "--sigma", "9/16", "--l", "4"],
    "scan_thm10_1024b": ["scan", "--precision-bits", "1024"],
    "scan_thm10_2b": ["scan", "--wmax", "5", "--cmax", "19", "--precision-bits", "2"],
    # non-square c_max, a 2-bit start, and half-length windows whose upper is
    # a direct window's upper (even w: (w/2)*a = w*a/2)
    "scan_thm11_small": ["scan", "--mode", "thm11", "--wmax", "5", "--cmax", "19",
                         "--precision-bits", "2"],
    "scan_thm11_small_4096b": ["scan", "--mode", "thm11", "--wmax", "5", "--cmax", "19",
                               "--precision-bits", "4096"],
}

FORMATS = ("text", "json")


def render(argv, fmt):
    """Exit status and stdout of ``fptrace <argv> --format <fmt>``, in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--format", fmt])
    return code, out.getvalue().encode("utf-8")


def golden_path(name, fmt):
    return GOLDEN_DIR / f"{name}.{'txt' if fmt == 'text' else 'json'}"


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden(name, fmt):
    code, out = render(GOLDEN[name], fmt)
    assert code == 0
    assert out == golden_path(name, fmt).read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in GOLDEN.items():
        for fmt in FORMATS:
            code, out = render(argv, fmt)
            if code != 0:
                raise SystemExit(f"{name} ({fmt}) exited with {code}")
            golden_path(name, fmt).write_bytes(out)
