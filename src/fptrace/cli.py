"""Command-line front end.

Commands: verify-fp, verify-ta, bounds, scan, entropy, fixtures.  Every
command emits either a human-readable text report or a versioned,
byte-deterministic JSON document (``--format json``).  Only bounds, scan
and entropy compute enclosures, so only they take ``--precision-bits``.
Exit status is 0 when the analysis completed (whatever the verdict), 1 on
parse/domain/budget errors, 2 on usage errors (argparse's, such as a flag
the command does not take).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import stat
import sys
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import bounds as bounds_mod
from . import fixtures
from . import fpcode
from . import paramscan
from . import tascheme
from .rigor import (
    DEFAULT_PRECISION_BITS,
    MAX_PRECISION_BITS,
    BudgetExceededError,
    Certainty,
    DomainError,
    Enclosure,
    FormatError,
    entropy_enclosure,
)

SCHEMA_VERSION = 1

DEFAULT_TRIALS = 10**5
DEFAULT_SEED = 1
MAX_TRIALS = 10**6
MAX_SCAN_EXTENT = 1024
MAX_BOUND_LENGTH = 1 << 18
MAX_INPUT_BYTES = 1 << 22

_PROBE_NOTE = (
    f" ({paramscan.MIN_SCAN_W} and {paramscan.MIN_SCAN_C} are the minimum probe extents)"
)

# Integer flags bounded before any work starts: (attribute, flag, low, high,
# note appended to the error).
BOUNDED_FLAGS = (
    ("precision_bits", "--precision-bits", 1, MAX_PRECISION_BITS, ""),
    ("wmax", "--wmax", paramscan.MIN_SCAN_W, MAX_SCAN_EXTENT, _PROBE_NOTE),
    ("cmax", "--cmax", paramscan.MIN_SCAN_C, MAX_SCAN_EXTENT, _PROBE_NOTE),
    ("l", "--l", 1, MAX_BOUND_LENGTH, ""),
    ("delta", "--delta", 1, MAX_BOUND_LENGTH, ""),
    ("s", "--s", 2, fpcode.MAX_ALPHABET, ""),
)


class CliError(Exception):
    """User-facing failure: bad input file or bad parameters."""


def _check_range(flag: str, value: int, low: int, high: int, note: str = "") -> None:
    if not low <= value <= high:
        raise CliError(f"{flag} must be in [{low}, {high}], got {value}{note}")


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Enclosure):
        return {"lo": str(obj.lo), "hi": str(obj.hi), "decimal": obj.decimal_str()}
    if isinstance(obj, Certainty):
        return str(obj)
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj):
        return {
            f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def _emit(report: dict, lines, fmt: str) -> None:
    """Print ``report`` as JSON, or the text lines that ``lines()`` builds.
    Both render under :func:`_exact_integer_digits`, so that exact values
    print in full; inputs were parsed before, under Python's digit limit."""
    with _exact_integer_digits():
        if fmt == "json":
            payload = {"schema": SCHEMA_VERSION, **report}
            print(json.dumps(_jsonable(payload), sort_keys=True, indent=2))
        else:
            for line in lines():
                print(line)


def _enc_line(label: str, enc: Enclosure) -> str:
    if enc.is_point:
        return f"{label}: {enc.decimal_str()}  (exact {enc.lo})"
    return f"{label}: {enc.decimal_str()}  [{enc.lo}, {enc.hi}]"


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------


def _load(spec: str, table: dict, parse, kind: str):
    """A built-in fixture from ``table`` by name, else the file at ``spec``
    read by ``parse``.  One ``stat`` vets the file before it is read; a
    failure to stat, read or parse it becomes an ``error:`` line."""
    if spec in table:
        return table[spec]()
    try:
        info = os.stat(spec)
        if not stat.S_ISREG(info.st_mode):  # a FIFO or device could block or never end
            raise CliError(f"{spec}: not a regular file")
        if info.st_size > MAX_INPUT_BYTES:
            raise CliError(
                f"{spec}: {info.st_size} bytes, more than 2^{MAX_INPUT_BYTES.bit_length() - 1}"
            )
        text = Path(spec).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CliError(f"{spec}: not UTF-8 text (byte {exc.start})") from exc
    except (FileNotFoundError, ValueError):  # ValueError: a NUL byte in the path
        raise CliError(f"{spec!r} is neither a built-in {kind} fixture nor a file") from None
    except OSError as exc:
        raise CliError(f"{spec}: {exc.strerror or exc}") from exc
    try:
        return parse(text)
    except FormatError as exc:
        raise CliError(f"{spec}: {exc}") from exc


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"{text!r} is not a rational (use p/q or an integer)") from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_verify_fp(args) -> int:
    name = args.code
    code = _load(name, fixtures.CODES, fpcode.parse_code, "code")
    definition = fpcode.FeasibleDefinition(args.definition)
    verdict = fpcode.is_frameproof(code, args.c, definition)
    weights = sorted(fpcode.weight_set(code))
    dist = fpcode.min_distance(code) if code.n >= 2 else None
    report = {
        "command": "verify-fp",
        "code": name,
        "n": code.n,
        "l": code.length,
        "s": code.s,
        "c": args.c,
        "definition": definition.value,
        "weights": weights,
        "min_distance": dist,
        "frameproof": verdict.is_frameproof,
        "witness": verdict.witness,
    }
    wit = verdict.witness
    _emit(report, lambda: [
        f"command: verify-fp {name}",
        f"code: n={code.n} l={code.length} s={code.s}",
        f"weights: {{{', '.join(str(w) for w in weights)}}}",
        f"min distance: {dist if dist is not None else 'n/a (single codeword)'}",
        f"c: {args.c}  definition: {definition.value}",
        f"frame-proof: {str(verdict.is_frameproof).lower()}",
        *([f"witness: coalition {list(wit.coalition)} frames codeword {wit.framed}"]
          if wit else []),
    ], args.format)
    return 0


def cmd_verify_ta(args) -> int:
    name = args.scheme
    scheme = _load(name, fixtures.SCHEMES, tascheme.parse_scheme, "scheme")
    method = args.method
    if method == "exact":
        verdict = tascheme.is_traceable_exact(scheme, args.c)
    elif method == "structural":
        verdict = tascheme.is_traceable_structural_disjoint(scheme, args.c)
    else:
        _check_range("--trials", args.trials, 0, MAX_TRIALS)
        verdict = tascheme.sample_traceability(scheme, args.c, args.trials, args.seed)
    report = {
        "command": "verify-ta",
        "scheme": name,
        "l": scheme.l,
        "n": scheme.n,
        "k": scheme.k,
        "c": args.c,
        "method": method,
        **vars(verdict),
    }
    wit = verdict.witness
    _emit(report, lambda: [
        f"command: verify-ta {name}",
        f"scheme: l={scheme.l} n={scheme.n} k={scheme.k}",
        f"c: {args.c}  method: {method}",
        f"verdict: {verdict.verdict}",
        f"detail: {verdict.detail}",
        *([f"witness: coalition {list(wit.coalition)} builds pirate {list(wit.pirate)}, "
           f"outsider decoder {wit.outsider} ties the trace"] if wit else []),
    ], args.format)
    return 0


def _bound_report_lines(rep) -> list:
    lines = [
        f"command: bounds {rep.which}",
        f"params: {_params_echo(rep.params)}",
        f"sigma constraint: {rep.sigma_certainty}  (sigma_ok: {str(rep.sigma_ok).lower()})",
        _enc_line("claimed lower bound, log2", rep.lower_log2),
        f"upper bound, exact: {rep.upper_exact}",
        _enc_line("upper bound, log2", rep.upper_log2),
        f"contradiction (upper < lower): {rep.contradiction}",
    ]
    if rep.sw_detail is not None:
        d = rep.sw_detail
        lines.insert(
            5, f"upper bound detail: t={d.t}, C(l,t)={d.numerator}, C(k-1,t-1)={d.denominator}"
        )
    return lines


def _params_echo(params) -> str:
    pairs = [
        f"{f.name}={getattr(params, f.name)}" for f in dataclasses.fields(params)
    ]
    return " ".join(pairs)


def cmd_bounds(args) -> int:
    sigma = _parse_rational(args.sigma)
    if args.which == "thm6":
        # Thm6Params refuses c < 2, and c not dividing l, before it reads w
        params = bounds_mod.Thm6Params(
            q=args.q, delta=args.delta, c=args.c, sigma=sigma,
            l=args.l, w=args.l // args.c if args.c >= 1 else 0,
        )
        rep = bounds_mod.contradiction_report_thm6(params, args.s, args.precision_bits)
    else:
        params = bounds_mod.Thm7Params(
            q=args.q, delta=args.delta, c=args.c, sigma=sigma,
            l=args.l, k=args.k,
        )
        rep = bounds_mod.contradiction_report_thm7(params, args.precision_bits)
    report = {
        "command": "bounds",
        "precision_bits": args.precision_bits,
        "sigma_ok": rep.sigma_ok,
        **vars(rep),
    }
    _emit(report, lambda: _bound_report_lines(rep), args.format)
    return 0


@contextlib.contextmanager
def _exact_integer_digits():
    """Lift Python's int-to-str digit limit (4300 by default, a guard for
    parsing) while printing exact values, which can be longer: with c = 2
    the thm6 upper bound has about 0.15*l decimal digits, and an entropy
    enclosure's endpoints carry the digits of x's denominator."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python without the limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _scan_lines(rep) -> list:
    lines = [
        f"command: scan --mode {rep.mode.value}",
        f"grid: w <= {rep.w_max}, c <= {rep.c_max}, precision {rep.precision_bits} bits",
        f"windows checked: {rep.windows_checked}  analytically excluded pairs: {rep.excluded_count}",
        f"entropy cap on grid: {rep.entropy_bound_on_grid}   log2(e) < 2: {rep.log2e_below_2}",
        "",
        "candidate windows (w, a, tag, lower, upper, integer exists):",
    ]
    shown = rep.candidates[:80]
    for rec in shown:
        win = rec.window
        lines.append(
            f"  w={rec.w:<3d} a={rec.a:<4d} {rec.tag.value:<13s} {rec.reading:<11s} "
            f"lower={win.lower!s:<8s} upper={win.upper.decimal_str(6)} -> {win.integer_exists}"
        )
    if len(rep.candidates) > len(shown):
        lines.append(f"  ... {len(rep.candidates) - len(shown)} more")
    if rep.cases is not None:
        ca, cb = rep.cases.unit_weight, rep.cases.weight_two
        cc, cd = rep.cases.coalition_two, rep.cases.finite_pairs
        lines += [
            "",
            "case checks:",
            f"  (a) w=1: window upper < 1 on grid: {ca.windows_upper_lt_1}; "
            f"analytic cap < 1: {ca.analytic_bound_lt_1}, decreasing: {ca.analytic_bound_decreasing}",
            f"  (b) w=2: margin positive exactly for a in [2, 18]: "
            f"{'yes' if cb.positive_exactly_through_18 else 'NO'}; "
            f"sign change at 19: {cb.sign_change_at_19}; windows empty: {cb.windows_empty}",
            f"  (c) a=2: f positive exactly for w in {list(cc.positive_ws)}; "
            f"uppers < 1 there: {cc.uppers_lt_1_on_positive}; f decreasing: {cc.f_decreasing}",
            f"  (d) finite pairs {list(cd.pairs)}: f negative: {cd.f_negative}",
        ]
    lines += ["", "either-or exhibits (w, a, delta -> classification):"]
    for ex in rep.either_or_exhibits:
        lines.append(f"  w={ex.w} a={ex.a} delta={ex.delta} -> {ex.classification.value}")
    lines += [
        "",
        f"positive f with empty window: {list(rep.positive_f_empty_windows)}",
    ]
    for note in rep.tail_notes:
        lines.append(f"note: {note}")
    verdict = "CertifiedInfeasible" if rep.verdict.is_true else str(rep.verdict)
    lines.append(f"global verdict: {verdict}")
    return lines


def cmd_scan(args) -> int:
    rep = paramscan.scan_infeasibility(
        args.wmax, args.cmax, paramscan.ScanMode(args.mode), args.precision_bits
    )
    report = {
        "command": "scan",
        **vars(rep),
        "certified_infeasible": rep.certified_infeasible,
    }
    _emit(report, lambda: _scan_lines(rep), args.format)
    return 0


def cmd_entropy(args) -> int:
    x = _parse_rational(args.x)
    enc = entropy_enclosure(x, args.precision_bits)
    report = {
        "command": "entropy",
        "x": x,
        "precision_bits": args.precision_bits,
        "enclosure": enc,
    }
    width_ok = enc.width <= Fraction(1, 2**args.precision_bits)
    _emit(report, lambda: [
        f"command: entropy {x}",
        _enc_line(f"H({x})", enc),
        f"width <= 2^-{args.precision_bits}: {str(width_ok).lower()}",
    ], args.format)
    return 0


def cmd_fixtures(args) -> int:
    if args.action == "list":
        rows = [(name, fixtures.emit(name).split("\n", 1)[0].removeprefix("# "))
                for name in fixtures.fixture_names()]
        report = {
            "command": "fixtures",
            "action": "list",
            "fixtures": [{"name": n, "summary": s} for n, s in rows],
        }
        _emit(report, lambda: [f"{n:<20s} {s}" for n, s in rows], args.format)
        return 0
    try:
        text = fixtures.emit(args.name)
    except KeyError:
        raise CliError(
            f"unknown fixture {args.name!r}; try: {', '.join(fixtures.fixture_names())}"
        ) from None
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Flags in full only, in every sub-parser too: no ``--s`` read as ``--seed``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fptrace",
        description="Certified verification of frame-proof codes, traceability "
        "schemes, and the parameter bounds claimed for them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, precision=False):
        p.add_argument("--format", choices=("text", "json"), default="text")
        if precision:
            p.add_argument("--precision-bits", type=int, default=DEFAULT_PRECISION_BITS)

    p = sub.add_parser("verify-fp", help="frame-proof verification of a code")
    p.add_argument("code", help="built-in fixture name or code file path")
    p.add_argument("--c", type=int, required=True, help="coalition size bound")
    p.add_argument(
        "--definition", choices=("unanimity", "coordset"), default="unanimity"
    )
    add_common(p)
    p.set_defaults(func=cmd_verify_fp)

    p = sub.add_parser("verify-ta", help="traceability verification of a scheme")
    p.add_argument("scheme", help="built-in fixture name or scheme file path")
    p.add_argument("--c", type=int, required=True, help="coalition size bound")
    p.add_argument("--method", choices=("exact", "structural", "sample"), default="exact")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_common(p)
    p.set_defaults(func=cmd_verify_ta)

    p = sub.add_parser("bounds", help="certified bound contradiction reports")
    p.set_defaults(func=cmd_bounds)
    theorems = p.add_subparsers(dest="which", required=True)
    shared = _Parser(add_help=False)
    for flag in ("--q", "--delta", "--c", "--l"):
        shared.add_argument(flag, type=int, required=True)
    shared.add_argument("--sigma", required=True, help="exact rational, e.g. 7/64")
    add_common(shared, precision=True)
    p = theorems.add_parser("thm6", parents=[shared], help="codeword-count bound")
    p.add_argument("--s", type=int, default=2, help="alphabet size")
    p = theorems.add_parser("thm7", parents=[shared], help="decoder-count bound")
    p.add_argument("--k", type=int, required=True, help="keys per decoder")

    p = sub.add_parser("scan", help="grid infeasibility scan")
    p.add_argument("--mode", choices=("thm10", "thm11"), default="thm10")
    p.add_argument("--wmax", type=int, default=64)
    p.add_argument("--cmax", type=int, default=64)
    add_common(p, precision=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("entropy", help="binary entropy enclosure")
    p.add_argument("x", help="rational in [0, 1], e.g. 1/16")
    add_common(p, precision=True)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("fixtures", help="list or emit built-in fixtures")
    p.set_defaults(func=cmd_fixtures)
    actions = p.add_subparsers(dest="action", required=True)
    add_common(actions.add_parser("list", help="each fixture's file header"))
    p = actions.add_parser("emit", help="a fixture in its file format")
    p.add_argument("name")
    add_common(p)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for attr, flag, low, high, note in BOUNDED_FLAGS:
            _check_range(flag, getattr(args, attr, low), low, high, note)
        return args.func(args)
    except (CliError, DomainError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
