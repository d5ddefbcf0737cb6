"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; the exact criteria carry
zero tolerance (point enclosures and exact integers), the enclosure criteria
are certified strict inequalities, and each criterion asserts its stated
wall-clock budget.
"""

import json
import math
import random
import time
from fractions import Fraction as F

from fptrace import cli
from fptrace.bounds import (
    Thm6Params,
    Thm7Params,
    contradiction_report_thm6,
    contradiction_report_thm7,
    thm7_lower,
)
from fptrace.fpcode import FeasibleDefinition, is_frameproof, parse_code
from fptrace.paramscan import (
    CaseTag,
    EitherOr,
    ScanMode,
    either_or_classify,
    scan_infeasibility,
    theorem10_statement_collapse,
    window_lower,
)
from fptrace.rigor import (
    Enclosure,
    binom,
    certify_less,
    entropy_enclosure,
    log2_enclosure,
)
from fptrace.tascheme import (
    is_traceable_exact,
    is_traceable_structural_disjoint,
    make_disjoint_scheme,
    sample_traceability,
)

from tests.helpers import (
    frameproof_by_enumeration,
    log2_bit_expansion,
    pascal_table,
    random_code,
)


class _Criterion:
    """Context manager that times a criterion and prints its verdict line."""

    def __init__(self, number: int, description: str, budget_s: float):
        self.number = number
        self.description = description
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"[{status}] criterion {self.number:2d} ({elapsed:6.2f}s / "
            f"budget {self.budget_s:g}s): {self.description}"
        )
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def _cli_json(capsys, *argv):
    code = cli.main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_criterion_01_gamma_reproduction(capsys):
    with _Criterion(1, "gamma64 is 2-frame-proof with n=3 l=64 w=32 d=6", 1.0):
        payload = _cli_json(capsys, "verify-fp", "gamma64", "--c", "2")
        assert payload["frameproof"] is True
        assert payload["n"] == 3
        assert payload["l"] == 64
        assert payload["weights"] == [32]
        assert payload["min_distance"] == 6  # delta = 3
        assert payload["witness"] is None


def test_criterion_02_thm6_contradiction(capsys):
    with _Criterion(2, "thm6: lower exactly 2^45, upper 8589934590, certified", 1.0):
        p = Thm6Params(q=64, delta=3, c=2, sigma=F(7, 64), l=64, w=32)
        rep = contradiction_report_thm6(p, s=2)
        assert rep.lower_log2 == Enclosure.point(45)  # zero tolerance
        assert rep.upper_exact == 8589934590
        assert rep.sigma_ok is True
        assert rep.contradiction.is_true
        payload = _cli_json(
            capsys, "bounds", "thm6", "--q", "64", "--delta", "3", "--c", "2",
            "--sigma", "7/64", "--l", "64",
        )
        assert payload["lower_log2"] == {"lo": "45", "hi": "45", "decimal": "45.000000000000 ± 0"}
        assert payload["upper_exact"] == "8589934590"
        assert payload["contradiction"] == "CertifiedTrue"


def test_criterion_03_thm7_contradiction(capsys):
    with _Criterion(3, "thm7: 2^61 < lower < 2^62, upper < 2^28, certified", 1.0):
        p = Thm7Params(q=256, delta=3, c=4, sigma=F(9, 256), l=256, k=32)
        rep = contradiction_report_thm7(p, precision_bits=128)

        def make_lower(bits):
            return thm7_lower(p, bits)

        def point_61(bits):
            return Enclosure.point(61)

        def point_62(bits):
            return Enclosure.point(62)

        assert certify_less(point_61, make_lower, 128).is_true
        assert certify_less(make_lower, point_62, 128).is_true
        assert rep.upper_exact == F(binom(256, 8), binom(31, 7))
        assert rep.upper_exact < 2**28  # exact rational comparison
        assert rep.upper_log2.hi < 28
        assert rep.sigma_ok is True
        assert rep.contradiction.is_true


def test_criterion_04_disjoint_scheme():
    with _Criterion(4, "disjoint (256,8,32): structural c=4, MC clean, exact agrees", 10.0):
        big = make_disjoint_scheme(256, 8, 32)
        assert is_traceable_structural_disjoint(big, 4).verdict.is_true
        mc = sample_traceability(big, 4, 10**5, seed=42)
        assert mc.verdict.is_unresolved
        assert "0 violations in 100000 trials" in mc.detail
        small = make_disjoint_scheme(6, 3, 2)
        for c in (1, 2, 3):
            assert is_traceable_exact(small, c).verdict.is_true
            assert is_traceable_structural_disjoint(small, c).verdict.is_true


def test_criterion_05_triangle_negative():
    with _Criterion(5, "triangle scheme CertifiedFalse at c=2, both verifiers", 1.0):
        from fptrace.fixtures import triangle

        scheme = triangle()
        exact = is_traceable_exact(scheme, 2)
        assert exact.verdict.is_false
        assert exact.witness.coalition == (0, 1)
        assert tuple(exact.witness.pirate) == (0, 2)
        assert exact.witness.outsider == 2
        sampled = sample_traceability(scheme, 2, 1000, seed=1)
        assert sampled.verdict.is_false
        assert sampled.witness is not None
        assert sampled.witness.outsider not in sampled.witness.coalition


def test_criterion_06_lemma3_example():
    with _Criterion(6, "G = {0011, 0110, 1100} is not 2-frame-proof", 1.0):
        code = parse_code("0011\n0110\n1100")
        verdict = is_frameproof(code, 2)
        assert not verdict.is_frameproof
        assert verdict.witness.coalition == (0, 2)  # {0011, 1100}
        assert verdict.witness.framed == 1
        assert code.codewords[verdict.witness.framed] == (0, 1, 1, 0)


def test_criterion_07_statement_collapse():
    with _Criterion(7, "weight cap negative for every a >= 2", 10.0):
        rep = theorem10_statement_collapse()
        assert rep.collapse_certified
        assert rep.rhs_negative.is_true
        assert rep.entropy_bound.is_true
        assert rep.rhs_at_2.hi < 0


def test_criterion_08_thm10_scan():
    with _Criterion(8, "thm10 scan (64, 64): CertifiedInfeasible with exact candidate set", 30.0):
        rep = scan_infeasibility(64, 64, ScanMode.THM10, precision_bits=64)
        assert rep.certified_infeasible
        got = {(r.w, r.a) for r in rep.candidates}
        expected = (
            {(1, a) for a in range(2, 65)}
            | {(2, a) for a in range(2, 65)}
            | {(w, 2) for w in range(1, 65)}
            | {(3, 3), (3, 4), (3, 5), (4, 3), (5, 3)}
        )
        assert got == expected
        finite = sorted((r.w, r.a) for r in rep.candidates if r.tag is CaseTag.D_FINITE_PAIR)
        assert finite == [(3, 3), (3, 4), (3, 5), (4, 3), (5, 3)]
        cases = rep.cases
        # (a) window upper < 1 for w = 1 across the grid
        assert cases.unit_weight.windows_upper_lt_1.is_true
        # (b) margin sign change between 18 and 19
        assert cases.weight_two.positive_as == tuple(range(2, 19))
        assert cases.weight_two.sign_change_at_19.is_true
        # (c) f(w, 2) > 0 exactly for w in {2, 3}
        assert cases.coalition_two.positive_ws == (2, 3)
        # (d) f negative on all five pairs
        assert cases.finite_pairs.f_negative.is_true


def test_criterion_09_either_or():
    with _Criterion(9, "either-or: (32,2) d=16 LeftOnly, d=2 RightOnly, no Both on grid", 5.0):
        assert either_or_classify(32, 2, 16) is EitherOr.LEFT_ONLY
        assert either_or_classify(32, 2, 2) is EitherOr.RIGHT_ONLY
        for w in range(1, 65):
            for a in range(2, 65):
                top = max(math.ceil(window_lower(w, a)), 0) + 2
                for delta in range(1, top + 1):
                    assert either_or_classify(w, a, delta) is not EitherOr.BOTH, (w, a, delta)


def test_criterion_10_thm11_scan():
    with _Criterion(10, "thm11 scan: CertifiedInfeasible under both readings, c <= 8", 30.0):
        rep = scan_infeasibility(64, 64, ScanMode.THM11, precision_bits=64)
        assert rep.certified_infeasible
        cs = {r.c for r in rep.candidates}
        assert cs <= set(range(2, 9))
        for reading in ("direct", "half_length"):
            recs = [r for r in rep.candidates if r.reading == reading]
            assert recs and all(r.window.integer_exists.is_false for r in recs)
        assert rep.windows_checked == 2 * 7 * 64


def test_criterion_11_oracle_equivalence():
    with _Criterion(11, "1000 random codes: membership = enumeration, unanimity = coordset", 60.0):
        rng = random.Random(1)
        checked = 0
        for _ in range(1000):
            code = random_code(rng, n_max=4, l_max=8, s=2)
            for c in range(1, code.n + 1):
                una = is_frameproof(code, c, FeasibleDefinition.UNANIMITY).is_frameproof
                crd = is_frameproof(code, c, FeasibleDefinition.COORDINATE_SET).is_frameproof
                enum_u = frameproof_by_enumeration(code, c, FeasibleDefinition.UNANIMITY)
                enum_c = frameproof_by_enumeration(code, c, FeasibleDefinition.COORDINATE_SET)
                assert una == enum_u
                assert crd == enum_c
                assert una == crd
                checked += 1
        assert checked >= 1000


def test_criterion_12_rigor_suite():
    with _Criterion(12, "rigor: soundness, monotone refinement, Pascal, symmetry, antisymmetry", 30.0):
        # enclosure soundness + monotone refinement over seeded rationals
        rng = random.Random(20080815)
        for _ in range(10_000):
            x = F(rng.randint(1, 1000), rng.randint(1, 1000))
            o_lo, o_hi = log2_bit_expansion(x, 12)
            prev = None
            for p in (8, 16, 32, 64):
                enc = log2_enclosure(x, p)
                assert enc.width <= F(1, 2**p)
                assert enc.lo <= o_hi and enc.hi >= o_lo
                if prev is not None:
                    assert enc.width <= prev.width
                    enc.intersect(prev)  # raises on disjoint enclosures
                prev = enc
        # binom Pascal identity, exhaustive to n = 64
        table = pascal_table(64)
        for n in range(1, 65):
            for k in range(1, n + 1):
                assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k) == table[n][k]
        # entropy symmetry
        for num in range(1, 32):
            x = F(num, 33)
            entropy_enclosure(x, 48).intersect(entropy_enclosure(1 - x, 48))  # raises if disjoint
        # certify_less antisymmetry on a seeded interval sample
        for _ in range(500):
            lo1 = F(rng.randint(-50, 50), rng.randint(1, 9))
            lo2 = F(rng.randint(-50, 50), rng.randint(1, 9))
            a = Enclosure(lo1, lo1 + F(rng.randint(0, 8), 7))
            b = Enclosure(lo2, lo2 + F(rng.randint(0, 8), 7))
            ab = certify_less(lambda bits: a, lambda bits: b)
            ba = certify_less(lambda bits: b, lambda bits: a)
            assert not (ab.is_true and ba.is_true)
        # H(1/16) at 40 bits: width and the frozen decimal band
        enc = entropy_enclosure(F(1, 16), 40)
        assert enc.width <= F(1, 2**40)
        assert enc.lo >= F(3372899, 10**7) and enc.hi <= F(3372901, 10**7)
