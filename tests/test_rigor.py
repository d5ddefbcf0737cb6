"""Exactness and soundness of the arithmetic core."""

import decimal
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fptrace import rigor
from fptrace.fpcode import parse_code
from fptrace.rigor import (
    Certainty,
    DomainError,
    Enclosure,
    FormatError,
    certainty_all,
    certify_less,
    entropy_enclosure,
    floor_log2,
    log2_e_enclosure,
    log2_enclosure,
    _atanh_dyadic,
)
from fptrace.tascheme import parse_scheme

from tests.helpers import (
    atanh_two_track_reference,
    log2_bit_expansion,
)


# ---------------------------------------------------------------------------
# log2 enclosures
# ---------------------------------------------------------------------------


def test_log2_exact_powers_of_two():
    assert log2_enclosure(64) == Enclosure.point(6)
    assert log2_enclosure(1) == Enclosure.point(0)
    assert log2_enclosure(F(1, 8)) == Enclosure.point(-3)
    assert log2_enclosure(F(32, 4)) == Enclosure.point(3)


def test_log2_of_three_against_expansion_oracle():
    # 20 exact bits from the digit-extraction oracle, plus the huge-power
    # check floor(2^20 * log2 3) = bitlength(3^(2^20)) - 1
    lo20, hi20 = log2_bit_expansion(F(3), 20)
    power = pow(3, 2**20)
    assert (power.bit_length() - 1) == int(lo20 * 2**20)
    enc = log2_enclosure(3, 40)
    assert enc.width <= F(1, 2**40)
    assert enc.lo < hi20 and enc.hi > lo20
    # decimal reference 1.5849625007...
    assert enc.lo > F("1.5849625007") and enc.hi < F("1.5849625008")


def test_log2_domain_errors():
    with pytest.raises(DomainError):
        log2_enclosure(0)
    with pytest.raises(DomainError):
        log2_enclosure(F(-3, 7))
    with pytest.raises(DomainError):
        log2_enclosure(1.5)  # floats are refused as inexact


def test_log2_soundness_mass_sample():
    """Spec-scale soundness sweep: the exact binary expansion window of
    log2(x) intersects the enclosure at every tested precision."""
    rng = random.Random(20080815)
    oracle_bits = 12
    for _ in range(10_000):
        x = F(rng.randint(1, 1000), rng.randint(1, 1000))
        o_lo, o_hi = log2_bit_expansion(x, oracle_bits)
        prev = None
        for p in (8, 16, 32, 64):
            enc = log2_enclosure(x, p)
            assert enc.width <= F(1, 2**p)
            assert enc.lo <= o_hi and enc.hi >= o_lo, (x, p)
            if prev is not None:
                # monotone refinement: narrower, and still overlapping the
                # previous round (so no certified side can flip)
                assert enc.width <= prev.width
                enc.intersect(prev)  # raises on disjoint enclosures
            prev = enc


def test_floor_log2():
    assert floor_log2(F(1)) == 0
    assert floor_log2(F(3)) == 1
    assert floor_log2(F(1, 3)) == -2
    assert floor_log2(F(1023, 1)) == 9
    assert floor_log2(F(1024)) == 10


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def test_entropy_exact_cases():
    assert entropy_enclosure(F(1, 2)) == Enclosure.point(1)
    assert entropy_enclosure(0) == Enclosure.point(0)
    assert entropy_enclosure(1) == Enclosure.point(0)


def test_entropy_sixteenth_against_log_oracle():
    # H(1/16) = 1/4 + (15/16) * log2(16/15), assembled from the log
    # enclosure as an independent route
    enc = entropy_enclosure(F(1, 16), 40)
    assert enc.width <= F(1, 2**40)
    via_log = log2_enclosure(F(16, 15), 44) * F(15, 16) + F(1, 4)
    enc.intersect(via_log)  # raises on disjoint enclosures
    assert enc.lo >= F(3372899, 10**7) and enc.hi <= F(3372901, 10**7)


def test_entropy_domain():
    with pytest.raises(DomainError):
        entropy_enclosure(F(3, 2))
    with pytest.raises(DomainError):
        entropy_enclosure(F(-1, 2))


def test_entropy_symmetry_intersection():
    for num in range(1, 40):
        x = F(num, 41)
        a = entropy_enclosure(x, 48)
        b = entropy_enclosure(1 - x, 48)
        a.intersect(b)  # raises on disjoint enclosures


# ---------------------------------------------------------------------------
# log2(e)
# ---------------------------------------------------------------------------


def test_log2_e():
    enc = log2_e_enclosure(64)
    assert enc.width <= F(1, 2**64)
    assert enc.lo > F("1.4426950408889634") and enc.hi < F("1.4426950408889635")


@pytest.mark.parametrize("bits", [2, 64, 1024, 4096])
def test_enclosures_contain_mpmath_values(bits):
    """Every enclosure holds mpmath's value computed 200 bits finer, and is
    no wider than 2^-bits.  mpmath is an optional, test-only cross-check."""
    mpmath = pytest.importorskip("mpmath")
    ctx = mpmath.mp.clone()
    ctx.prec = bits + 200

    def exact(value):
        return F(*mpmath.libmp.to_rational(value._mpf_))

    def rational(x):
        return ctx.mpf(x.numerator) / x.denominator

    def entropy(p):
        return -(p * ctx.log(p, 2) + (1 - p) * ctx.log(1 - p, 2))

    xs = [F(1, 3), F(3), F(10), F(7, 5), F(1000), F(1, 1000), F(2**100 + 1), F(99, 100)]
    ps = [F(1, 3), F(1, 16), F(7, 10), F(1, 1000), F(999, 1000), F(1, 19)]
    cases = (
        [(log2_enclosure(x, bits), ctx.log(rational(x), 2)) for x in xs]
        + [(entropy_enclosure(p, bits), entropy(rational(p))) for p in ps]
        + [(log2_e_enclosure(bits), 1 / ctx.ln(2))]
    )
    for enc, value in cases:
        assert enc.lo < exact(value) < enc.hi
        assert enc.width <= F(1, 2**bits)


@pytest.mark.parametrize("bits", [2, 64, 1024, 4096])
def test_enclosures_contain_decimal_values(bits):
    """The mpmath test's cases against the standard library: ``decimal``'s
    ``ln`` is correctly rounded, so at D = ceil(bits * log10 2) + 40 digits
    each value below is off by a few units in its last place.  Every
    enclosure must hold it with the margin m = 10^-(D - 10) on both sides,
    and be no wider than 2^-bits."""
    digits = math.ceil(bits * math.log10(2)) + 40
    margin = F(1, 10 ** (digits - 10))
    ctx = decimal.Context(prec=digits)
    ln2 = ctx.ln(2)

    def rational(x):
        return ctx.divide(x.numerator, x.denominator)

    def log2(x):
        return ctx.divide(ctx.ln(x), ln2)

    def entropy(p):
        q = ctx.subtract(1, p)
        return ctx.minus(ctx.add(ctx.multiply(p, log2(p)), ctx.multiply(q, log2(q))))

    xs = [F(1, 3), F(3), F(10), F(7, 5), F(1000), F(1, 1000), F(2**100 + 1), F(99, 100)]
    ps = [F(1, 3), F(1, 16), F(7, 10), F(1, 1000), F(999, 1000), F(1, 19)]
    cases = (
        [(log2_enclosure(x, bits), log2(rational(x))) for x in xs]
        + [(entropy_enclosure(p, bits), entropy(rational(p))) for p in ps]
        + [(log2_e_enclosure(bits), ctx.divide(1, ln2))]
    )
    for enc, value in cases:
        value = F(value)
        assert enc.lo < value - margin and value + margin < enc.hi
        assert enc.width <= F(1, 2**bits)


def test_enclosure_endpoints_pinned():
    """Exact endpoints at 64 bits: the working precision each producer
    starts from (p + 16 for log2 and log2 e) is part of the output, so
    refactoring the refinement loop must not move it."""

    def dyadic(lo, lo_exp, hi, hi_exp):
        return Enclosure(F(lo, 2**lo_exp), F(hi, 2**hi_exp))

    assert log2_enclosure(3, 64) == dyadic(
        1916102090242776021049307, 80, 1916102090242776021049399, 80
    )
    assert log2_e_enclosure(64) == dyadic(
        1744111284760651037637849, 80, 872055642380325518818977, 79
    )


# ---------------------------------------------------------------------------
# atanh series kernel
# ---------------------------------------------------------------------------


# denominators spread evenly over 1 to 80 bits; drawn whole, most are tiny
_denominators = st.integers(0, 79).flatmap(lambda b: st.integers(1 << b, (1 << (b + 1)) - 1))
_series_arguments = _denominators.flatmap(
    lambda den: st.integers(0, den // 2).map(lambda n: F(n, den))
)


@given(_series_arguments, st.integers(1, 600))
@example(F(0), 1)
@example(F(1, 2), 1)
@example(F(1, 2), 600)
@example(F(5, 14), 4)  # the excess times dz moves an upper rounding here
@settings(max_examples=300, deadline=None)
def test_atanh_kernel_matches_two_track_reference(z, w):
    assert _atanh_dyadic(z, w) == atanh_two_track_reference(z, w)


def _mantissa_argument(seed):
    """z = (m - 1)/(m + 1) for a random 64-bit mantissa m in [1, 2), the
    argument that a log2 enclosure hands the series."""
    m = 1 + F(random.Random(seed).getrandbits(64), 2**64)
    return (m - 1) / (m + 1)


@pytest.mark.parametrize("w", [1040, 2064, 4112])
@pytest.mark.parametrize("z", [F(1, 3), _mantissa_argument(1), _mantissa_argument(2)])
def test_atanh_kernel_matches_two_track_reference_wide(z, w):
    """The working precisions of 1024-, 2048- and 4096-bit log2 enclosures;
    z = 1/3 is the argument of ln 2."""
    assert _atanh_dyadic(z, w) == atanh_two_track_reference(z, w)


@pytest.mark.parametrize("bits", [1, 64, 1024, 4096, 4160])
def test_one_series_evaluation_per_enclosure(bits, monkeypatch):
    """Each log2, entropy and log2 e enclosure evaluates its dyadic bounds
    once: the start precision already meets the width, so the doubling loop
    in ``_dyadic_enclosure`` never runs a second, 8x dearer pass.  4160 is
    the precision cap plus 64 guard bits, more than any caller adds."""
    enclosures = evaluations = 0
    dyadic_enclosure = rigor._dyadic_enclosure

    def counting(bounds, w, precision_bits):
        nonlocal enclosures
        enclosures += 1

        def counted(w):
            nonlocal evaluations
            evaluations += 1
            return bounds(w)

        return dyadic_enclosure(counted, w, precision_bits)

    monkeypatch.setattr(rigor, "_dyadic_enclosure", counting)
    for cached in (
        rigor._log2_enclosure_cached,
        rigor._entropy_enclosure_cached,
        rigor._log2_e_cached,
    ):
        cached.cache_clear()
    for x in (F(3), F(10), F(7, 5), F(1000), F(1, 1000), F(2**100 + 1), F(99, 100)):
        log2_enclosure(x, bits)
    for p in (F(1, 3), F(7, 10), F(1, 1000), F(1, 19)):
        entropy_enclosure(p, bits)
    log2_e_enclosure(bits)
    assert enclosures == 16
    assert evaluations == enclosures


# ---------------------------------------------------------------------------
# certified comparison
# ---------------------------------------------------------------------------


def const(enc):
    """A refiner that returns the same enclosure at every precision."""
    return lambda bits: enc


def test_certify_compare_trivial():
    assert certify_less(const(Enclosure.point(2)), const(Enclosure.point(3))).is_true
    assert certify_less(const(Enclosure.point(3)), const(Enclosure.point(2))).is_false
    assert certify_less(const(Enclosure.point(5)), const(Enclosure.point(5))).is_unresolved


def test_certify_compare_huge_exponents():
    # 2^45 vs 2^33 carried as log enclosures: [45,45] vs [33,33]
    a = Enclosure.point(45)
    b = log2_enclosure(8589934590, 64)
    assert certify_less(const(a), const(b)).is_false
    assert certify_less(const(b), const(a)).is_true


def test_certify_refinement_escalates():
    # log2(3) = 1.5849625... vs 317/200 = 1.585: the 3.7e-5 gap needs ~15
    # bits, forcing escalation from the 1-bit start precision
    target = F(317, 200)
    cert = certify_less(lambda bits: log2_enclosure(3, bits), target, precision_bits=1)
    assert cert.is_true
    assert certify_less(target, lambda bits: log2_enclosure(3, bits), precision_bits=1).is_false


def test_certify_equal_values_unresolved_with_cap():
    cert = certify_less(7, 7, precision_bits=64)
    assert cert.is_unresolved and cert.precision_bits == 4096


@given(
    st.fractions(min_value=-100, max_value=100),
    st.fractions(min_value=0, max_value=2),
    st.fractions(min_value=-100, max_value=100),
    st.fractions(min_value=0, max_value=2),
)
@settings(max_examples=300, deadline=None)
def test_certify_compare_antisymmetric(alo, awidth, blo, bwidth):
    a = Enclosure(alo, alo + awidth)
    b = Enclosure(blo, blo + bwidth)
    ab = certify_less(const(a), const(b))
    ba = certify_less(const(b), const(a))
    assert not (ab.is_true and ba.is_true)


def test_certify_int_le_boundaries():
    def int_le(n, make):
        return certify_less(const(Enclosure.point(n)), make, or_equal=True)

    assert int_le(1, 1).is_true
    assert int_le(1, F(1, 2)).is_false
    assert int_le(2, lambda b: log2_enclosure(5, b)).is_true
    assert int_le(3, lambda b: log2_enclosure(5, b)).is_false


def test_certify_exact_side_first():
    assert certify_less(1, log2_e_enclosure).is_true
    assert certify_less(F(3, 2), log2_e_enclosure).is_false
    assert certify_less(2, lambda bits: log2_enclosure(5, bits), precision_bits=1).is_true


def test_certify_exact_side_second():
    assert certify_less(log2_e_enclosure, 2).is_true
    assert certify_less(log2_e_enclosure, F(7, 5)).is_false
    assert certify_less(lambda bits: log2_enclosure(3, bits), F(8, 5), precision_bits=1).is_true


def test_certify_or_equal_touches_at_an_exact_integer():
    assert certify_less(3, lambda bits: log2_enclosure(8, bits), or_equal=True).is_true
    assert certify_less(lambda bits: log2_enclosure(8, bits), 3, or_equal=True).is_true
    assert certify_less(3, 3, or_equal=True).is_true
    assert certify_less(3, lambda bits: log2_enclosure(8, bits)).is_unresolved


@pytest.mark.parametrize("a, b", [
    (0.5, log2_e_enclosure),
    (log2_e_enclosure, 2.0),
    (1, 1.5),
], ids=["float-first", "float-second", "both-exact"])
def test_certify_refuses_a_float_side(a, b):
    with pytest.raises(DomainError):
        certify_less(a, b)


def test_certainty_all():
    t, f, u = Certainty.true(), Certainty.false(), Certainty.unresolved(64)
    assert certainty_all(t, t).is_true
    assert certainty_all(t, f, u).is_false
    assert certainty_all(t, u).is_unresolved
    assert certainty_all().is_true


# ---------------------------------------------------------------------------
# Enclosure algebra
# ---------------------------------------------------------------------------


def test_enclosure_validation_and_ops():
    with pytest.raises(ValueError):
        Enclosure(F(2), F(1))
    e = Enclosure(F(1, 2), F(3, 4))
    assert (e + 1).lo == F(3, 2)
    assert (e * 2).hi == F(3, 2)
    assert (e * -2).lo == F(-3, 2)
    with pytest.raises(DomainError):
        e * Enclosure(F(-1), F(2))
    quot = Enclosure(F(1), F(2)) / Enclosure(F(2), F(4))
    assert quot.lo == F(1, 4) and quot.hi == F(1)
    with pytest.raises(DomainError):
        e / Enclosure(F(-1), F(1))
    with pytest.raises(DomainError):
        e / 0


def test_enclosure_intersection():
    a = Enclosure(F(0), F(2))
    b = Enclosure(F(1), F(3))
    assert a.intersect(b) == Enclosure(F(1), F(2))
    with pytest.raises(ValueError):
        a.intersect(Enclosure(F(5), F(6)))


def test_decimal_rendering():
    assert Enclosure.point(45).decimal_str() == "45.000000000000 ± 0"
    e = Enclosure(F(1, 3), F(1, 3) + F(1, 10**20))
    s = e.decimal_str()
    assert s.startswith("0.333333333333") and "e-21" in s


# ---------------------------------------------------------------------------
# Input lines
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("parse, lines, bad, reason", [
    (parse_code, ["0011", "0110  # trailing comment", "1100"], "01",
     "length 2 differs from previous 4"),
    (parse_scheme, ["4 3 2", "0 1", "1 2  # trailing comment", "0 3"], "1 2 3",
     "expected 2 keys, found 3"),
], ids=["code", "scheme"])
def test_both_parsers_skip_comment_and_blank_lines(parse, lines, bad, reason):
    """Each parser reads ``rigor.content_lines``: comment-only, blank and
    whitespace-only lines are skipped, and a refusal of the last content
    line, ``bad``, names its number in the file as written."""
    noise = ["# comment only", "", "   ", "\t# indented comment"]
    padded = [line for pair in zip(noise, lines) for line in pair]
    text = "\n".join(padded)
    assert [n for n, _ in rigor.content_lines(text)] == list(range(2, len(padded) + 1, 2))
    assert parse(text) == parse("\n".join(lines))
    with pytest.raises(FormatError) as refused:
        parse("\n".join(padded[:-1] + [bad, "# one more comment", ""]))
    assert str(refused.value) == f"line {len(padded)}: {reason}"
