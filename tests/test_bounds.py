"""Certified bound evaluation and the two contradiction reproductions."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fptrace import bounds
from fptrace.bounds import (
    Thm6Params,
    Thm7Params,
    contradiction_report_thm6,
    contradiction_report_thm7,
    is_prime_power,
    sigma_constraint,
    ssw_upper,
    sw_upper_bound,
    thm6_lower,
    thm7_lower,
    _contradiction_exact,
)
from fptrace.fpcode import Code, FeasibleDefinition, is_frameproof
from fptrace.rigor import DomainError, certify_less, log2_enclosure
from fptrace.tascheme import KeyScheme, is_traceable_exact

from tests.helpers import rejected_upper_bound_variant, sigma_constraint_reference


# ---------------------------------------------------------------------------
# prime powers
# ---------------------------------------------------------------------------


def _prime_power_oracle(q: int) -> bool:
    """Brute force: q equals p^j for some prime p <= q and j >= 1."""
    if q < 2:
        return False
    primes = [p for p in range(2, q + 1) if all(p % d for d in range(2, p))]
    for p in primes:
        v = p
        while v < q:
            v *= p
        if v == q:
            return True
    return False


def test_prime_power_exhaustive_small_range():
    for q in range(0, 101):
        assert is_prime_power(q) == _prime_power_oracle(q), q
    assert is_prime_power(2**20)
    assert not is_prime_power(2**20 + 2)


def test_prime_power_limit():
    with pytest.raises(DomainError):
        is_prime_power(2**33)


# ---------------------------------------------------------------------------
# sigma constraint
# ---------------------------------------------------------------------------


def test_sigma_constraint_reproductions():
    # log2(64)/64 = 6/64 < 7/64 exactly; the radical side is about 19.96
    assert sigma_constraint(64, F(7, 64)).is_true
    # log2(256)/256 = 8/256 < 9/256
    assert sigma_constraint(256, F(9, 256)).is_true


def test_sigma_constraint_first_inequality_fails():
    # log2(8)/8 = 3/8 > 1/100
    assert sigma_constraint(8, F(1, 100)).is_false


def test_sigma_constraint_second_inequality_fails():
    # tiny sigma blows up the radical side: (13 + sqrt(...))/(12 sigma) >> l
    assert sigma_constraint(4096, F(1, 10**6)).is_false


def _radical_tie(l: int) -> F:
    """The sigma at which l = (13 + sqrt(169 + 48 sigma))/(12 sigma) holds
    exactly: (12 sigma l - 13)^2 = 169 + 48 sigma, with root 13 + 4/l."""
    return F(13 * l + 2, 6 * l * l)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_sigma_constraint_radical_tie_is_false(l):
    """At the tie the strict inequality fails, which enclosures alone could
    never certify, while log2(l)/l < sigma holds (for l <= 4).  The ties
    (4, 9/16), (2, 7/6) and (1, 5/2) have integer roots 14, 15 and 17."""
    sigma = _radical_tie(l)
    assert sigma_constraint(l, sigma).is_false
    assert sigma_constraint_reference(l, sigma).is_unresolved


def _sigma_pairs(rng, count):
    """(l, sigma): arbitrary rationals with l <= 2^18, the benchmark's
    sigma draws, l next to the float threshold of the radical side, and
    sigma next to the tie for l <= 4.  From l = 5 on, log2(l)/l < sigma
    implies the radical side, so only the last kind decides by that side
    alone."""
    for _ in range(count):
        yield rng.randint(1, 1 << 18), F(rng.randint(1, 10**6), rng.randint(1, 10**6))
        yield rng.randint(16, 4096), F(rng.randint(1, 300), 1000)
        sigma = F(rng.randint(1, 10**4), rng.randint(1, 10**4))
        s = float(sigma)
        edge = math.floor((13 + math.sqrt(169 + 48 * s)) / (12 * s))
        for l in range(max(1, edge - 1), edge + 3):
            yield l, sigma
        l = rng.randint(1, 4)
        yield l, _radical_tie(l) + F(rng.choice((-1, 1)), rng.randint(20, 10**12))


def test_sigma_constraint_matches_enclosure_reference():
    """The exact radical side gives the reference's label wherever the
    reference, which encloses the square root, decides."""
    decided = 0
    for l, sigma in _sigma_pairs(random.Random(16), 400):
        want = sigma_constraint_reference(l, sigma)
        if not want.is_unresolved:
            decided += 1
            assert sigma_constraint(l, sigma) == want, (l, sigma)
    assert decided > 2000


@pytest.mark.parametrize("k", [3, 4, 10, 18])
def test_sigma_constraint_log_tie_is_false(k):
    """log2(l)/l = sigma exactly at l = 2^k, sigma = k/2^k: l^b = 2^(a*l),
    so the strict inequality fails, which enclosures never certify.  The
    radical side holds from k = 3 on."""
    l = 2**k
    assert sigma_constraint(l, F(k, l)).is_false
    assert sigma_constraint_reference(l, F(k, l)).is_unresolved


def _log_band_pairs(rng, count):
    """(l, sigma) with f/l < sigma < (f+1)/l, f = floor(log2 l), l not a
    power of two: the bit-length bracket decides none of them, so each goes
    to the exact comparison of l^b with 2^(a*l).  Besides uniform draws,
    sigma*l*b is the integer just below or above b*log2(l)."""
    for _ in range(count):
        l = rng.randint(5, 1 << 12)
        if l & (l - 1) == 0:
            continue
        f = l.bit_length() - 1
        b = rng.randint(2, 2000)
        yield l, F(rng.randint(b * f + 1, b * (f + 1) - 1), b * l)
        nearest = math.floor(b * math.log2(l))
        for num in (nearest, nearest + 1):
            if b * f < num < b * (f + 1):
                yield l, F(num, b * l)


@pytest.mark.parametrize("cap", [None, 0])
def test_sigma_constraint_log_band_matches_enclosure_reference(monkeypatch, cap):
    """Inside the band, the exact comparison gives the reference's label
    wherever the reference decides; with the size cap at 0 every pair goes
    to the enclosures, and the verdict is the reference's own."""
    if cap is not None:
        monkeypatch.setattr(bounds, "EXACT_POWER_BITS", cap)
    decided = 0
    for l, sigma in _log_band_pairs(random.Random(24), 300):
        want = sigma_constraint_reference(l, sigma)
        got = sigma_constraint(l, sigma)
        if cap is not None:
            assert got == want, (l, sigma)
        elif not want.is_unresolved:
            decided += 1
            assert got == want, (l, sigma)
    assert cap is not None or decided > 750


def test_sigma_constraint_rejects_nonpositive():
    with pytest.raises(DomainError):
        sigma_constraint(64, F(0))


@pytest.mark.parametrize("sigma", [0.1, "7/64"], ids=["float", "str"])
def test_inexact_sigma_is_refused(sigma):
    """A float or string sigma is refused, as by every rigor entry; 0.1
    would otherwise stand for 3602879701896397/2^55."""
    with pytest.raises(DomainError):
        sigma_constraint(64, sigma)
    with pytest.raises(DomainError):
        Thm6Params(q=64, delta=3, c=2, sigma=sigma, l=64, w=32)
    with pytest.raises(DomainError):
        Thm7Params(q=256, delta=3, c=4, sigma=sigma, l=256, k=32)


# ---------------------------------------------------------------------------
# claimed lower bounds
# ---------------------------------------------------------------------------


def test_thm6_lower_exact_main_parameters():
    p = Thm6Params(q=64, delta=3, c=2, sigma=F(7, 64), l=64, w=32)
    enc = thm6_lower(p)
    assert enc.is_point and enc.lo == 45


def test_thm6_lower_trivial_cancellations():
    # H(1/2) = 1 exactly: (1 - 1/2)*2 - 0 = 1
    p = Thm6Params(q=2, delta=1, c=2, sigma=F(1, 2), l=2, w=1)
    enc = thm6_lower(p)
    assert enc.is_point and enc.lo == 1
    # sigma = H(1/2) makes the exponent collapse to zero exactly
    p0 = Thm6Params(q=2, delta=1, c=2, sigma=F(1), l=2, w=1)
    enc0 = thm6_lower(p0)
    assert enc0.is_point and enc0.lo == 0


def test_thm6_lower_c4_variant():
    # 64*(H(1/4) - 7/64) - 12 = 64*H(1/4) - 19 = 32.92180...
    p = Thm6Params(q=64, delta=3, c=4, sigma=F(7, 64), l=64, w=16)
    enc = thm6_lower(p)
    assert enc.lo > F("32.9218") - F(1, 10**4)
    assert enc.hi < F("32.9218") + F(1, 10**4)


def test_thm7_lower_between_61_and_62():
    p = Thm7Params(q=256, delta=3, c=4, sigma=F(9, 256), l=256, k=32)
    enc = thm7_lower(p, 128)
    assert enc.lo > 61 and enc.hi < 62
    assert enc.lo > F("61.34625") and enc.hi < F("61.34626")


def test_lower_monotone_in_sigma():
    base = dict(q=64, delta=3, c=2, l=64, w=32)
    small = thm6_lower(Thm6Params(sigma=F(7, 64), **base))
    large = thm6_lower(Thm6Params(sigma=F(9, 64), **base))
    # increasing sigma shifts the exponent down by exactly (d_sigma * l)
    assert large.lo == small.lo - 2 and large.hi == small.hi - 2


def test_lower_monotone_in_delta():
    base = dict(q=64, c=2, sigma=F(7, 64), l=64, w=32)
    d3 = thm6_lower(Thm6Params(delta=3, **base))
    d4 = thm6_lower(Thm6Params(delta=4, **base))
    # q a power of two: the step is exactly log2(q) = 6
    assert d3.lo - d4.lo == 6 and d3.hi - d4.hi == 6
    # general q: the interval of possible steps encloses log2(q)
    base5 = dict(q=5, c=2, sigma=F(1, 4), l=4, w=2)
    e2 = thm6_lower(Thm6Params(delta=2, **base5))
    e3 = thm6_lower(Thm6Params(delta=3, **base5))
    step = log2_enclosure(5, 100)
    assert e2.hi - e3.hi <= step.hi and e2.lo - e3.lo >= step.lo
    assert e2.lo > e3.lo and e2.hi > e3.hi


# ---------------------------------------------------------------------------
# established upper bounds
# ---------------------------------------------------------------------------


def test_ssw_upper_values():
    assert ssw_upper(64, 2, 2) == 2 * (2**32 - 1) == 8589934590
    assert ssw_upper(4, 1, 2) == 15
    assert ssw_upper(5, 2, 3) == 52
    with pytest.raises(DomainError):
        ssw_upper(4, 2, 1)


def test_sw_upper_bound_values():
    rep = sw_upper_bound(256, 32, 4)
    assert rep.t == 8
    assert rep.numerator == 409663695276000
    assert rep.denominator == 2629575
    assert rep.value == F(409663695276000, 2629575)
    assert rep.value < 2**28
    assert sw_upper_bound(6, 2, 2).value == 6
    assert sw_upper_bound(10, 4, 4).value == 10  # c = k gives t = 1, value l
    with pytest.raises(DomainError):
        sw_upper_bound(6, 0, 2)


def test_rejected_variant_is_reference_only():
    assert rejected_upper_bound_variant(64, 2, 2) == 2**32 + 2


# ---------------------------------------------------------------------------
# contradiction reports
# ---------------------------------------------------------------------------


def test_thm6_contradiction_certified():
    p = Thm6Params(q=64, delta=3, c=2, sigma=F(7, 64), l=64, w=32)
    rep = contradiction_report_thm6(p, s=2)
    assert rep.sigma_ok
    assert rep.lower_log2.is_point and rep.lower_log2.lo == 45
    assert rep.upper_exact == 8589934590
    assert rep.upper_log2.hi < 33
    assert rep.contradiction.is_true


def test_thm6_no_contradiction_at_large_sigma():
    # sigma = 1/2 shrinks the claimed bound to exactly 2^20 < 2^33, so the
    # contradiction is certified in the opposite direction; the constraint
    # itself still holds at these values
    p = Thm6Params(q=64, delta=3, c=2, sigma=F(1, 2), l=64, w=32)
    rep = contradiction_report_thm6(p, s=2)
    assert rep.lower_log2.is_point and rep.lower_log2.lo == 20
    assert rep.contradiction.is_false
    assert rep.sigma_ok


def test_thm6_degenerate_unit_weight():
    # c = l (w = 1) with sigma above H(1/c): the claimed bound drops below 1
    p = Thm6Params(q=8, delta=1, c=8, sigma=F(1), l=8, w=1)
    rep = contradiction_report_thm6(p, s=2)
    assert rep.lower_log2.hi < 0
    assert rep.contradiction.is_false


def test_thm7_contradiction_certified():
    p = Thm7Params(q=256, delta=3, c=4, sigma=F(9, 256), l=256, k=32)
    rep = contradiction_report_thm7(p, 128)
    assert rep.sigma_ok
    assert rep.contradiction.is_true
    assert rep.sw_detail.t == 8
    assert rep.upper_exact == F(409663695276000, 2629575)
    assert rep.upper_exact < 2**28


def test_thm7_small_instance_no_contradiction():
    # l=6, k=3, c=2 (the smallest grid obeying c^2 = 2l/k): the upper bound
    # is C(6,2)/C(2,1) = 15/2, and sigma = 1/2 pulls the claimed bound down
    # to 2^(6*(H(1/4) - 1/2)) < 4 < 15/2, so no contradiction is certified
    p = Thm7Params(q=8, delta=1, c=2, sigma=F(1, 2), l=6, k=3)
    rep = contradiction_report_thm7(p)
    assert rep.upper_exact == F(15, 2)
    assert rep.contradiction.is_false
    # while a small sigma does produce a certified contradiction here
    p_small = Thm7Params(q=8, delta=1, c=2, sigma=F(1, 100), l=6, k=3)
    assert contradiction_report_thm7(p_small).contradiction.is_true


def test_report_never_certifies_both_directions():
    for sigma in (F(7, 64), F(1, 2), F(1, 8)):
        p = Thm6Params(q=64, delta=3, c=2, sigma=sigma, l=64, w=32)
        rep = contradiction_report_thm6(p)
        reverse = certify_less(lambda b: rep.lower_log2, lambda b: rep.upper_log2)
        assert not (rep.contradiction.is_true and reverse.is_true)


# ---------------------------------------------------------------------------
# the exact power comparison behind overlapping enclosures
# ---------------------------------------------------------------------------

PRIME_POWERS_TO_256 = tuple(q for q in range(2, 257) if is_prime_power(q))


@st.composite
def bound_params(draw):
    """(params, s, m): a valid THM6 (m = c, alphabet s) or THM7 (m = c^2)
    instance with l <= 128.  Many sit next to a tie, so that enclosures
    overlap at low precision: sigma rounded from the value at which the two
    bounds meet, or the THM6 family c = s = 2, q = 2^j, sigma = 1/2 -
    (1 + (delta-1)j)/l, whose lower bound is exactly 2^(l/2 + 1), 2 above
    its upper bound."""
    kind = draw(st.sampled_from(("thm6", "thm7", "near_tie")))
    delta = draw(st.integers(1, 3))
    if kind == "near_tie":
        l = 2 * draw(st.integers(2, 64))
        j = draw(st.integers((l - 1).bit_length(), 8))
        sigma = F(1, 2) - F(1 + (delta - 1) * j, l)
        assume(sigma > 0)
        return Thm6Params(q=1 << j, delta=delta, c=2, sigma=sigma, l=l, w=l // 2), 2, 2
    if kind == "thm6":
        c = draw(st.integers(2, 5))
        l = c * draw(st.integers(1, 128 // c))
        s, m = draw(st.integers(2, 3)), c
        upper = ssw_upper(l, c, s)
    else:
        c = draw(st.integers(2, 4))
        k = draw(st.integers(1, 256 // (c * c)).filter(lambda k: c * c * k % 2 == 0))
        l, s, m = c * c * k // 2, 2, c * c
        upper = sw_upper_bound(l, k, c).value
    q = draw(st.sampled_from([q for q in PRIME_POWERS_TO_256 if q >= l]))
    h = math.log2(m) - (m - 1) / m * math.log2(m - 1)
    tie = h - (math.log2(upper) + (delta - 1) * math.log2(q)) / l
    if tie > 0 and draw(st.booleans()):
        sigma = max(F(tie).limit_denominator(draw(st.sampled_from((64, 4096)))), F(1, 512))
    else:
        sigma = draw(st.fractions(F(1, 64), F(3, 2), max_denominator=512))
    if kind == "thm6":
        return Thm6Params(q=q, delta=delta, c=c, sigma=sigma, l=l, w=l // c), s, m
    return Thm7Params(q=q, delta=delta, c=c, sigma=sigma, l=l, k=k), s, m


@given(bound_params(), st.sampled_from((1, 4, 16, 64)))
@settings(max_examples=300, deadline=None)
def test_contradiction_matches_escalating_enclosures(case, bits):
    """Wherever ``certify_less`` decides upper < lower by escalating the
    enclosures, the report's verdict and the exact power comparison agree
    with it.  Low starting precisions send many reports to the exact test."""
    p, s, m = case
    if isinstance(p, Thm6Params):
        rep, lower = contradiction_report_thm6(p, s, bits), thm6_lower
    else:
        rep, lower = contradiction_report_thm7(p, bits), thm7_lower
    want = certify_less(
        lambda b: log2_enclosure(rep.upper_exact, b), lambda b: lower(p, b), bits
    )
    if not want.is_unresolved:
        assert rep.contradiction == want
        assert _contradiction_exact(p, m, rep.upper_exact) in (want, None)


def _near_tie(l: int) -> Thm6Params:
    """c = 2, delta = 1, q = 2^ceil(log2 l), sigma = 1/2 - 1/l: the claimed
    lower bound is exactly 2^(l/2 + 1), the upper bound 2^(l/2 + 1) - 2."""
    return Thm6Params(q=1 << (l - 1).bit_length(), delta=1, c=2,
                      sigma=F(1, 2) - F(1, l), l=l, w=l // 2)


NEAR_TIE_LENGTHS = [4, 6, 130, 4094, 8192, 16384, 16386, 2**17 - 2, 2**18] + sorted(
    2 * h for h in random.Random(18).sample(range(2, 2**17 + 1), 12)
)


@pytest.mark.parametrize("l", NEAR_TIE_LENGTHS)
def test_near_tie_family_is_certified(l):
    """Every near tie up to l = 2^18 is certified, although from l of about
    2^13 on (l = 10,000 already) enclosures up to 4096 bits no longer
    separate the bounds.  At l = 16384 the reduced exact test reads
    U < 2^8193 with U = 2^8193 - 2."""
    assert contradiction_report_thm6(_near_tie(l)).contradiction.is_true


def test_exact_equality_is_certified_false():
    """Equal sides make the strict upper < lower false.  THM6 at c = 2 and
    THM7 at c = 2 (m = 4) have rational lower bounds when sigma*l is an
    integer: 2^(l/2 + 1) for the near tie, and 4^l/(3^(3l/4) 2^(sigma l)
    q^(delta-1)) for the THM7 instance below."""
    p = _near_tie(16384)
    lower = F(1 << 8193)
    assert _contradiction_exact(p, 2, lower).is_false
    assert _contradiction_exact(p, 2, lower - 1).is_true
    p7 = Thm7Params(q=8, delta=2, c=2, sigma=F(1, 2), l=8, k=4)
    lower7 = F(4**8, 3**6 * 2**4 * 8)
    assert _contradiction_exact(p7, 4, lower7).is_false
    assert _contradiction_exact(p7, 4, lower7 - F(1, 10**30)).is_true
    assert _contradiction_exact(p7, 4, lower7 + F(1, 10**30)).is_false


def test_escalation_runs_past_the_exact_cap(monkeypatch):
    """With the size cap at 0 the exact test gives way to the enclosures,
    which leave the l = 16384 near tie unresolved at 4096 bits."""
    monkeypatch.setattr(bounds, "EXACT_POWER_BITS", 0)
    rep = contradiction_report_thm6(_near_tie(16384))
    assert str(rep.contradiction) == "Unresolved(precision_bits=4096)"


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(DomainError, match="prime power"):
        Thm6Params(q=6, delta=3, c=2, sigma=F(7, 64), l=6, w=3)
    with pytest.raises(DomainError, match="c = l/w"):
        Thm6Params(q=64, delta=3, c=2, sigma=F(7, 64), l=64, w=30)
    with pytest.raises(DomainError, match="l <= q"):
        Thm6Params(q=16, delta=3, c=2, sigma=F(7, 64), l=64, w=32)
    with pytest.raises(DomainError, match="c\\^2 = 2l/k"):
        Thm7Params(q=256, delta=3, c=4, sigma=F(9, 256), l=256, k=30)
    with pytest.raises(DomainError):
        Thm6Params(q=64, delta=0, c=2, sigma=F(7, 64), l=64, w=32)
    with pytest.raises(DomainError):
        Thm6Params(q=64, delta=3, c=2, sigma=F(0), l=64, w=32)


# ---------------------------------------------------------------------------
# the proven upper bounds as oracles for the verifiers
# ---------------------------------------------------------------------------
#
# Each verifier has a differential test against its own slow reference, so a
# misreading that both share would pass there.  The published bounds do not
# share it.  Both tests take c >= 2: at c = 1 frame-proofness is vacuous, so
# all s^l words would pass, one more than the bound s^l - 1.


@st.composite
def dense_schemes(draw):
    """(scheme, c): up to 10 distinct k-subsets of l <= 8 keys at c = 2 or 3,
    dense enough that many lie above the decoder-count bound."""
    l = draw(st.integers(2, 8))
    k = draw(st.integers(1, l))
    combos = list(itertools.combinations(range(l), k))
    picks = draw(st.lists(
        st.integers(0, len(combos) - 1), min_size=1, max_size=min(10, len(combos)), unique=True,
    ))
    return KeyScheme(l, tuple(frozenset(combos[i]) for i in picks)), draw(st.integers(2, 3))


@given(dense_schemes())
@settings(max_examples=300, deadline=None)
def test_certified_traceable_schemes_obey_the_decoder_count_bound(case):
    """Stinson-Wei: a c-traceable scheme has n <= C(l, t)/C(k-1, t-1), t = ceil(k/c)."""
    scheme, c = case
    if is_traceable_exact(scheme, c).verdict.is_true:
        assert scheme.n <= sw_upper_bound(scheme.l, scheme.k, c).value


@st.composite
def dense_codes(draw):
    """(code, c): up to 12 distinct words of length <= 6 over 2 or 3
    symbols at c = 2 or 3, dense enough that many lie above the
    codeword-count bound."""
    s = draw(st.integers(2, 3))
    word = st.tuples(*[st.integers(0, s - 1)] * draw(st.integers(1, 6)))
    words = draw(st.lists(word, min_size=1, max_size=12, unique=True))
    return Code(tuple(words), s), draw(st.integers(2, 3))


@given(dense_codes())
@settings(max_examples=300, deadline=None)
def test_certified_frameproof_codes_obey_the_codeword_count_bound(case):
    """A c-frame-proof code, under either definition, has n <= c*(s^ceil(l/c) - 1)."""
    code, c = case
    for definition in FeasibleDefinition:
        if is_frameproof(code, c, definition).is_frameproof:
            assert code.n <= ssw_upper(code.length, c, code.s)


def code_as_scheme(code: Code) -> KeyScheme:
    """Word x as the keys {p*s + x_p}: one key per position, so k = l."""
    return KeyScheme(code.length * code.s, tuple(
        frozenset(p * code.s + x for p, x in enumerate(word)) for word in code.codewords
    ))


@given(dense_codes())
@settings(max_examples=300, deadline=None)
def test_traceable_code_schemes_come_from_frameproof_codes(case):
    """Staddon-Stinson-Wei: if a code's scheme is c-traceable, the code is
    c-frame-proof under coordinate sets.  A coalition that frames u can
    build the pirate keys(u), which u ties at overlap k."""
    code, c = case
    if is_traceable_exact(code_as_scheme(code), c).verdict.is_true:
        assert is_frameproof(code, c, FeasibleDefinition.COORDINATE_SET).is_frameproof
