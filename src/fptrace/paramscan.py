"""Infeasibility analysis of a constant-weight code construction recipe.

The recipe fixes sigma = (H(1/a) - 1/a)/2 and l = w*a, where a is the
effective coalition parameter (a = c for the code setting, a = c*c for the
traceability setting), and then needs an integer distance parameter
delta > 0 inside the half-open window

    (1 - 1/a)*w - 1  <  delta  <=  (H(1/a) - 1/a)/2 * (w*a) / log2(w*a).

The left inequality is what guarantees frame-proofness of the constructed
code; the right inequality is what guarantees the codeword count exceeds
2^(l/a).  This module certifies, by enclosure arithmetic and exact integer
tests, that the window never contains a positive integer:

* the candidates are computed from a formula rather than by testing every
  grid point: the families w = 1, w = 2, a = 2 plus the five
  ``FINITE_PAIRS``, because for w >= 3 and a >= 3 the window width f(w, a)
  is bounded by w*(1/w + 1/a - 1/2), which is nonpositive unless
  1/w + 1/a > 1/2;
* four case checks dispose of the families (unit weight, weight two,
  coalition two, finite pairs) for every a and w: each certifies a few base
  points and the numeric premise of one analytic lemma covering the rest, so
  the case analysis costs the same few dozen comparisons for any grid;
* an either-or classifier shows that individual integers can satisfy one
  side of the window or the other, never both.

A separate statement-level collapse check certifies that substituting the
recipe's sigma and length into its own log-length cap forces
log2(w) < (log2(e) - 1 - log2(a))/2 < 0, i.e. a weight below one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Tuple

from .rigor import (
    Certainty,
    DomainError,
    Enclosure,
    DEFAULT_PRECISION_BITS,
    Rational,
    certainty_all,
    certify_less,
    entropy_enclosure,
    floor_log2,
    log2_e_enclosure,
    log2_enclosure,
)

MIN_SCAN_W = 5
MIN_SCAN_C = 19

# The (w, a) pairs with w >= 3, a >= 3 and 1/w + 1/a > 1/2; every scan grid
# contains them, since MIN_SCAN_W and MIN_SCAN_C exceed their coordinates.
FINITE_PAIRS = ((3, 3), (3, 4), (3, 5), (4, 3), (5, 3))


class UnresolvedComparisonError(RuntimeError):
    """Enclosures could not separate at the maximum precision."""


class ScanMode(Enum):
    THM10 = "thm10"
    THM11 = "thm11"


class CaseTag(Enum):
    A_W1 = "A_w1"
    B_W2 = "B_w2"
    C_C2 = "C_c2"
    D_FINITE_PAIR = "D_finite_pair"
    EXCLUDED = "Excluded"


class EitherOr(Enum):
    LEFT_ONLY = "LeftOnly"
    RIGHT_ONLY = "RightOnly"
    BOTH = "Both"
    NEITHER = "Neither"


# ---------------------------------------------------------------------------
# Window pieces
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1 << 12)
def sigma_construction(a: int, precision_bits: int = DEFAULT_PRECISION_BITS) -> Enclosure:
    """Enclosure of the recipe's sigma, (H(1/a) - 1/a)/2; exact 1/4 at a = 2."""
    if a < 2:
        raise DomainError("a must be >= 2")
    return (entropy_enclosure(Fraction(1, a), precision_bits + 2) - Fraction(1, a)) * Fraction(1, 2)


def window_lower(w: int, a: int) -> Fraction:
    """Exact left end of the window: (1 - 1/a)*w - 1."""
    return Fraction(a - 1, a) * w - 1


def _d_min(w: int, a: int) -> int:
    """Smallest integer above the window's lower end, and at least 1."""
    return max((a - 1) * w // a, 1)


@lru_cache(maxsize=1 << 14)
def _window_upper(a: int, length: Fraction, precision_bits: int) -> Enclosure:
    """Enclosure of the right end: (H(1/a) - 1/a)/2 * length / log2(length);
    it does not depend on w, so windows with equal a and length share it."""
    if length < 2:
        raise DomainError("window needs length >= 2 so log2(length) >= 1")
    guard = (length.numerator // length.denominator + 1).bit_length() + 6
    inner = precision_bits + guard
    return sigma_construction(a, inner) * length / log2_enclosure(length, inner)


def window_upper(w: int, a: int, precision_bits: int = DEFAULT_PRECISION_BITS) -> Enclosure:
    return _window_upper(a, Fraction(w * a), precision_bits)


@dataclass(frozen=True)
class DeltaWindow:
    """The half-open window (lower, upper] plus a certified verdict on
    whether it contains a positive integer."""

    w: int
    a: int
    length: Fraction
    lower: Fraction
    upper: Enclosure
    integer_exists: Certainty
    smallest_integer: Optional[int] = None


def delta_window_for_length(
    w: int, a: int, length: Rational, precision_bits: int = DEFAULT_PRECISION_BITS
) -> DeltaWindow:
    """Window with an explicit length argument (the default is w*a; the
    alternative traceability reading uses w*a/2)."""
    if w < 1:
        raise DomainError("w must be >= 1")
    if a < 2:
        raise DomainError("a must be >= 2")
    length = Fraction(length)
    lower = window_lower(w, a)
    d_min = _d_min(w, a)

    def make_upper(bits: int) -> Enclosure:
        return _window_upper(a, length, bits)

    exists = certify_less(d_min, make_upper, precision_bits, or_equal=True)
    return DeltaWindow(
        w=w,
        a=a,
        length=length,
        lower=lower,
        upper=make_upper(precision_bits),
        integer_exists=exists,
        smallest_integer=d_min if exists.is_true else None,
    )


def delta_window(w: int, a: int, precision_bits: int = DEFAULT_PRECISION_BITS) -> DeltaWindow:
    """Window for the code setting, where length = w*a."""
    return delta_window_for_length(w, a, Fraction(w) * a, precision_bits)


def f_value(w: int, a: int, precision_bits: int = DEFAULT_PRECISION_BITS) -> Enclosure:
    """Enclosure of the window width f(w, a) = upper - lower.

    A positive integer can only exist in the window when f is positive;
    positivity alone is not sufficient (see (2, 2): f = 1/2 exactly, yet the
    window (0, 1/2] holds no integer).
    """
    return window_upper(w, a, precision_bits) - window_lower(w, a)


# ---------------------------------------------------------------------------
# Candidate filter
# ---------------------------------------------------------------------------


def classify_pair(w: int, a: int) -> CaseTag:
    """Case tag for a grid pair; EXCLUDED pairs have certified f <= 0.

    Overlaps resolve in the order w = 1, w = 2, a = 2, so (2, 2) lands in
    the weight-two family.
    """
    if w < 1:
        raise DomainError("w must be >= 1")
    if a < 2:
        raise DomainError("a must be >= 2")
    if w == 1:
        return CaseTag.A_W1
    if w == 2:
        return CaseTag.B_W2
    if a == 2:
        return CaseTag.C_C2
    if 2 * (w + a) > w * a:  # 1/w + 1/a > 1/2
        return CaseTag.D_FINITE_PAIR
    return CaseTag.EXCLUDED


def candidate_filter(w_max: int, c_max: int) -> dict:
    """All non-excluded grid pairs, mapped to their case tags, in (w, a) order.

    The set is written down, not searched for: the rows w = 1 and w = 2, the
    column a = 2, and :data:`FINITE_PAIRS`, since for w >= 3 and a >= 3
    membership reduces to 1/w + 1/a > 1/2.
    """
    if w_max < MIN_SCAN_W or c_max < MIN_SCAN_C:
        raise DomainError(
            f"candidate filter needs w_max >= {MIN_SCAN_W} and c_max >= {MIN_SCAN_C}"
        )
    pairs = (
        [(w, a) for w in (1, 2) for a in range(2, c_max + 1)]
        + [(w, 2) for w in range(3, w_max + 1)]
        + list(FINITE_PAIRS)
    )
    return {(w, a): classify_pair(w, a) for w, a in sorted(pairs)}


# ---------------------------------------------------------------------------
# Either-or classification
# ---------------------------------------------------------------------------


def either_or_classify(
    w: int, a: int, delta: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> EitherOr:
    """Which side(s) of the window an integer delta satisfies.

    Left (lower < delta) is the frame-proof guarantee and is decided exactly;
    right (delta <= upper) is the codeword-count guarantee and is decided by
    certified enclosure comparison.
    """
    if delta < 1:
        raise DomainError("delta must be a positive integer")
    lower = window_lower(w, a)
    left = lower < delta

    right_cert = certify_less(
        delta, lambda bits: window_upper(w, a, bits), precision_bits, or_equal=True
    )
    if right_cert.is_unresolved:
        raise UnresolvedComparisonError(
            f"delta = {delta} vs window upper for (w={w}, a={a}) unresolved "
            f"at {right_cert.precision_bits} bits"
        )
    right = right_cert.is_true
    if left and right:
        return EitherOr.BOTH
    if left:
        return EitherOr.LEFT_ONLY
    if right:
        return EitherOr.RIGHT_ONLY
    return EitherOr.NEITHER


# ---------------------------------------------------------------------------
# Case analysis
# ---------------------------------------------------------------------------


def _cap_logs(a: int, precision_bits: int) -> Tuple[Enclosure, Enclosure]:
    """log2 e and log2 a at ``precision_bits + 4``, the inputs of every
    analytic cap below, for a >= 2."""
    if a < 2:
        raise DomainError("a must be >= 2")
    return log2_e_enclosure(precision_bits + 4), log2_enclosure(a, precision_bits + 4)


def unit_weight_bound(a: int, precision_bits: int = DEFAULT_PRECISION_BITS) -> Enclosure:
    """Analytic cap on the w = 1 window upper: (1 + (log2 e - 1)/log2 a)/2.

    Follows from H(1/a) <= (log2 a + log2 e)/a; decreasing in a, and already
    below 1 at a = 2, where it is log2(e)/2.
    """
    le, la = _cap_logs(a, precision_bits)
    return ((le - 1) / la + 1) * Fraction(1, 2)


def weight_two_margin(a: int, precision_bits: int = DEFAULT_PRECISION_BITS) -> Enclosure:
    """Analytic cap on f(2, a): (log2 e - 2)/(log2 a + 1) + 2/a.

    Positive only for a < 19; its sign change between 18 and 19 is the
    boundary of the weight-two family's survivable range.
    """
    le, la = _cap_logs(a, precision_bits)
    return (le - 2) / (la + 1) + Fraction(2, a)


def entropy_log_bound_check(a: int, precision_bits: int = DEFAULT_PRECISION_BITS) -> Certainty:
    """Certify H(1/a) < (log2 a + log2 e)/a at one a.

    The cap holds for every a >= 2: H(1/a) = log2(a)/a + (1 - 1/a)*log2(1 + x)
    with x = 1/(a - 1), and ln(1 + x) < x gives (1 - 1/a)*log2(1 + x) <
    (1 - 1/a)*x*log2(e) = log2(e)/a.  So callers certify it at a = 2 only.
    """

    def make_cap(bits: int) -> Enclosure:
        le, la = _cap_logs(a, bits)
        return (la + le) / a

    make_cap(precision_bits)  # refuses a < 2 before H(1/a) is formed
    return certify_less(
        lambda bits: entropy_enclosure(Fraction(1, a), bits), make_cap, precision_bits
    )


@dataclass(frozen=True)
class CaseUnitWeight:
    """w = 1: the window upper stays below 1, so no positive integer fits.

    The upper is capped by :func:`unit_weight_bound`, which decreases in a
    (certified as log2 e > 1) and is below 1 at a = 2.
    """

    probe_max: int
    windows_upper_lt_1: Certainty
    analytic_bound_lt_1: Certainty
    analytic_bound_decreasing: Certainty


@dataclass(frozen=True)
class CaseWeightTwo:
    """w = 2: the margin expression is positive only up to a = 18, and the
    window never reaches 1, so no positive integer fits.

    Emptiness comes from the window upper, certified below 1 for a <= 18,
    and from f(2, a) < margin < 0 for a >= 19, which the certified sign at
    19 and log2 e < 3/2 give for every such a.  The window's exact lower
    end 1 - 2/a is below 1 as well.
    """

    probe_max: int
    positive_as: Tuple[int, ...]
    signs_resolved: Certainty
    sign_change_at_19: Certainty
    margin_at_18: Enclosure
    margin_at_19: Enclosure
    windows_empty: Certainty
    uppers_lt_1_through_18: Certainty
    lowers_lt_1: bool

    @property
    def positive_exactly_through_18(self) -> bool:
        """The margin is positive exactly for a in [2, 18]."""
        return self.positive_as == tuple(range(2, 19))


@dataclass(frozen=True)
class CaseCoalitionTwo:
    """a = 2: f(w, 2) = w/(2 log2(2w)) - w/2 + 1 falls by more than 1/4 per
    unit step (``f_decreasing`` carries the premise log2 e > 1) and is
    positive only at w = 2 and w = 3, where the window upper is below 1."""

    probe_max: int
    positive_ws: Tuple[int, ...]
    f_at_positive: Tuple[Tuple[int, Enclosure], ...]
    uppers_lt_1_on_positive: Certainty
    f_decreasing: Certainty


@dataclass(frozen=True)
class CaseFinitePairs:
    """The five surviving (w, a) pairs all have certified negative f."""

    pairs: Tuple[Tuple[int, int], ...]
    f_negative: Certainty


@dataclass(frozen=True)
class CasesReport:
    unit_weight: CaseUnitWeight
    weight_two: CaseWeightTwo
    coalition_two: CaseCoalitionTwo
    finite_pairs: CaseFinitePairs

    @property
    def all_certified(self) -> bool:
        """Every Certainty field of the four cases is a premise."""
        premises = (
            value
            for case in vars(self).values()
            for value in vars(case).values()
            if isinstance(value, Certainty)
        )
        return (
            certainty_all(*premises).is_true
            and self.weight_two.lowers_lt_1
            and self.weight_two.positive_exactly_through_18
            and self.coalition_two.positive_ws == (2, 3)
        )


def verify_cases(
    c_probe_max: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> CasesReport:
    """Certify the four family cases for every a >= 2 (every w >= 2 in the
    coalition-two family).

    Each family costs a fixed number of certified comparisons: a few base
    points plus the numeric premise of one lemma that covers the rest of the
    family, so the cost does not grow with ``c_probe_max``, which is kept as
    the reported probe extent.  The lemmas' algebra is spelled out next to
    their premises; every one rests on the entropy cap
    H(1/a) < (log2 a + log2 e)/a (see :func:`entropy_log_bound_check`).
    """
    if c_probe_max < MIN_SCAN_C:
        raise DomainError(f"case analysis needs c_probe_max >= {MIN_SCAN_C}")

    def less(a, b) -> Certainty:
        return certify_less(a, b, precision_bits)

    entropy_cap = entropy_log_bound_check(2, precision_bits)

    # (a) unit weight.  By the entropy cap, window_upper(1, a) =
    # (H(1/a) - 1/a) * a / (2 log2 a) < (log2 a + log2 e - 1)/(2 log2 a),
    # which is unit_weight_bound(a) = (1 + (log2 e - 1)/log2 a)/2.  That bound
    # decreases in a exactly when log2 e > 1, so its value at a = 2 caps it
    # for every a.
    log2e_gt_1 = less(1, log2_e_enclosure)
    bound_lt_1 = certainty_all(less(lambda bits: unit_weight_bound(2, bits), 1), log2e_gt_1)
    case_a = CaseUnitWeight(
        probe_max=c_probe_max,
        windows_upper_lt_1=certainty_all(entropy_cap, bound_lt_1),
        analytic_bound_lt_1=bound_lt_1,
        analytic_bound_decreasing=log2e_gt_1,
    )

    # (b) weight two.  By the entropy cap, f(2, a) < weight_two_margin(a),
    # and margin(a) < 0 iff g(a) = (2 - log2 e)*a - 2*(log2 a + 1) > 0
    # (multiply through by a*(log2 a + 1) > 0).  For a >= 6,
    # g'(a) = 2 - log2 e - 2*log2(e)/a >= 2 - (4/3)*log2 e, which is positive
    # exactly when log2 e < 3/2; so the certified negative margin at a = 19
    # covers every a >= 19, where f < 0 empties the window.  Below 19 the
    # margin is positive, and the window upper is certified below 1 instead.
    signs = {
        a: less(0, lambda bits, a=a: weight_two_margin(a, bits)) for a in range(2, 19)
    }
    sign_19 = less(lambda bits: weight_two_margin(19, bits), 0)
    margins_negative_from_19 = certainty_all(sign_19, less(log2_e_enclosure, Fraction(3, 2)))
    uppers_b = certainty_all(
        *(less(lambda bits, a=a: window_upper(2, a, bits), 1) for a in range(2, 19))
    )
    case_b = CaseWeightTwo(
        probe_max=c_probe_max,
        positive_as=tuple(a for a, sign in signs.items() if sign.is_true),
        signs_resolved=certainty_all(
            *(sign for sign in signs.values() if sign.is_unresolved),
            margins_negative_from_19,
        ),
        sign_change_at_19=certainty_all(signs[18], sign_19),
        margin_at_18=weight_two_margin(18, precision_bits),
        margin_at_19=weight_two_margin(19, precision_bits),
        windows_empty=certainty_all(uppers_b, entropy_cap, margins_negative_from_19),
        uppers_lt_1_through_18=uppers_b,
        lowers_lt_1=all(window_lower(2, a) < 1 for a in range(2, 20)),  # 1 - 2/a
    )

    # (c) coalition parameter two: f(w, 2) = u(w) - w/2 + 1 with
    # u(w) = w/(2L), L = log2(2w).  u'(w) = 1/(2L) - log2(e)/(2L^2) < 1/(2L),
    # since log2 e > 0 (certified above as log2 e > 1), and 1/(2L) <= 1/4 for
    # w >= 2; so f falls by more than 1/4 per unit step.  The signs at
    # w = 2, 3, 4 (f(4, 2) = -1/3) then decide every w >= 2: a w whose sign
    # is not certified negative counts as positive.
    signs_c = {w: less(0, lambda bits, w=w: f_value(w, 2, bits)) for w in (2, 3, 4)}
    positive_ws = tuple(w for w, sign in signs_c.items() if not sign.is_false)
    case_c = CaseCoalitionTwo(
        probe_max=c_probe_max,
        positive_ws=positive_ws,
        f_at_positive=tuple((w, f_value(w, 2, precision_bits)) for w in positive_ws),
        uppers_lt_1_on_positive=certainty_all(
            *(less(lambda bits, w=w: window_upper(w, 2, bits), 1) for w in positive_ws)
        ),
        f_decreasing=log2e_gt_1,
    )

    # (d) finite pairs
    neg_certs = [less(lambda bits, w=w, a=a: f_value(w, a, bits), 0) for w, a in FINITE_PAIRS]
    case_d = CaseFinitePairs(pairs=FINITE_PAIRS, f_negative=certainty_all(*neg_certs))

    return CasesReport(case_a, case_b, case_c, case_d)


# ---------------------------------------------------------------------------
# Full scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CandidateWindow:
    w: int
    a: int
    c: int
    reading: str  # "direct" (length = w*a) or "half_length" (length = w*a/2)
    tag: CaseTag
    window: DeltaWindow


@dataclass(frozen=True)
class EitherOrExhibit:
    w: int
    a: int
    delta: int
    classification: EitherOr


@dataclass(frozen=True)
class ScanReport:
    """Grid scan outcome.

    ``verdict`` is CertifiedTrue when every scanned candidate window is
    certified to contain no positive integer and the analytic exclusion
    covers the rest of the grid; the report separates grid-certified facts
    from tail-argued ones in ``tail_notes``.
    """

    mode: ScanMode
    w_max: int
    c_max: int
    precision_bits: int
    candidates: Tuple[CandidateWindow, ...]
    windows_checked: int
    excluded_count: int
    entropy_bound_on_grid: Certainty
    log2e_below_2: Certainty
    cases: Optional[CasesReport]
    either_or_exhibits: Tuple[EitherOrExhibit, ...]
    positive_f_empty_windows: Tuple[Tuple[int, int], ...]
    unresolved: Tuple[Tuple[int, int], ...]
    tail_notes: Tuple[str, ...]
    verdict: Certainty

    @property
    def certified_infeasible(self) -> bool:
        return self.verdict.is_true


def _either_or_exhibits(w_max: int, c_max: int, precision_bits: int):
    probes = [
        (32, 2, 2),
        (32, 2, 16),
        (32, 2, 20),
        (2, 2, 1),
        (1, 2, 1),
        (4, 3, 1),
    ]
    out = []
    for w, a, delta in probes:
        if w <= w_max and a <= c_max:
            out.append(
                EitherOrExhibit(w, a, delta, either_or_classify(w, a, delta, precision_bits))
            )
    return tuple(out)


def _positive_f_exhibits(precision_bits):
    out = []
    for w, a in ((2, 2), (3, 2)):
        sign = certify_less(0, lambda bits, w=w, a=a: f_value(w, a, bits), precision_bits)
        win = delta_window(w, a, precision_bits)
        if sign.is_true and win.integer_exists.is_false:
            out.append((w, a))
    return tuple(out)


def _bracket_empty(w: int, a: int, length: Rational) -> bool:
    """Whether one integer comparison proves the window holds no integer.

    k = floor(log2(length**16)) > 0 gives log2(length) >= k/16 > 0, and s, the
    hi end of sigma's 64-bit enclosure, is >= sigma.  So the upper end
    sigma*length/log2(length) is <= 16*s*length/k if s > 0, and <= 0 if
    s <= 0; either way 16*s*length < d_min*k (d_min >= 1) proves it < d_min.
    """
    k, s = floor_log2(length**16), sigma_construction(a, DEFAULT_PRECISION_BITS).hi
    bound = _d_min(w, a) * k * s.denominator * length.denominator
    return k > 0 and 16 * s.numerator * length.numerator < bound


def scan_infeasibility(
    w_max: int,
    c_max: int,
    mode: ScanMode = ScanMode.THM10,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> ScanReport:
    """Certify that no scanned parameter combination admits the integer.

    Both modes feed one window loop: rows (w, a, c, tag), length readings
    (name, scale of w*a), an excluded count, a case report and tail notes;
    an excluded row's window is first tried by :func:`_bracket_empty`.
    THM10's rows are the closed-form candidates with a = c, under l = w*a;
    THM11's are every pair with a = c*c, c in [2, floor(sqrt(c_max))],
    under l = w*a and l = w*a/2 (from the key-count relation c^2 = 2l/k).
    """
    if not isinstance(mode, ScanMode):
        raise TypeError(f"mode must be a ScanMode, got {mode!r}")
    if w_max < MIN_SCAN_W or c_max < MIN_SCAN_C:
        raise DomainError(
            f"scan requires w_max >= {MIN_SCAN_W} and c_max >= {MIN_SCAN_C} "
            "(below the minimum probe extents of the case analysis)"
        )

    # the entropy cap holds for every a >= 2 (see entropy_log_bound_check),
    # so one certified instance stands for the whole grid
    entropy_grid = entropy_log_bound_check(2, precision_bits)
    log2e_lt_2 = certify_less(log2_e_enclosure, 2, precision_bits)

    if mode is ScanMode.THM10:
        tags = candidate_filter(w_max, c_max)
        rows = [(w, a, a, tags[w, a]) for w, a in sorted(tags, key=lambda p: (p[1], p[0]))]
        readings = (("direct", 1),)
        excluded_count = w_max * (c_max - 1) - len(tags)
        cases = verify_cases(c_max, precision_bits)
        tail_notes = (
            "excluded pairs (w >= 3, a >= 3, 1/w + 1/a <= 1/2) are covered "
            "analytically: f(w,a) <= w*(1/w + 1/a - 1/2) <= 0, using the "
            "grid-certified entropy cap and log2(e) < 2 (so log2(w) > "
            "log2(e) - 1 for w >= 2)",
            "family tails beyond the grid rely on the certified monotone "
            "analytic bounds recorded in the case reports",
        )
    else:
        rows = [
            (w, c * c, c, classify_pair(w, c * c))
            for c in range(2, math.isqrt(c_max) + 1)
            for w in range(1, w_max + 1)
        ]
        readings = (("direct", 1), ("half_length", Fraction(1, 2)))
        excluded_count = 0  # every grid pair is window-checked directly
        cases = None
        tail_notes = (
            "every grid pair is window-checked directly under both length "
            "readings; no analytic exclusion is needed on this grid",
            "coverage is the scanned grid c in [2, floor(sqrt(c_max))]",
        )

    candidates, unresolved, feasible_found = [], [], []
    for w, a, c, tag in rows:
        for reading, scale in readings:
            length = scale * w * a
            if tag is CaseTag.EXCLUDED and _bracket_empty(w, a, length):
                continue  # proven empty; no enclosure needed
            win = delta_window_for_length(w, a, length, precision_bits)
            if tag is not CaseTag.EXCLUDED:
                candidates.append(CandidateWindow(w, a, c, reading, tag, win))
            if win.integer_exists.is_true:
                feasible_found.append((w, a))
            elif win.integer_exists.is_unresolved:
                unresolved.append((w, a))
    cases_ok = cases is None or cases.all_certified

    if feasible_found:
        verdict = Certainty.false()
    elif unresolved or not cases_ok or not entropy_grid.is_true or not log2e_lt_2.is_true:
        verdict = Certainty.unresolved(precision_bits)
    else:
        verdict = Certainty.true()

    return ScanReport(
        mode=mode,
        w_max=w_max,
        c_max=c_max,
        precision_bits=precision_bits,
        candidates=tuple(candidates),
        windows_checked=len(rows) * len(readings),
        excluded_count=excluded_count,
        entropy_bound_on_grid=entropy_grid,
        log2e_below_2=log2e_lt_2,
        cases=cases,
        either_or_exhibits=_either_or_exhibits(w_max, c_max, precision_bits),
        positive_f_empty_windows=_positive_f_exhibits(precision_bits),
        unresolved=tuple(unresolved),
        tail_notes=tail_notes,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Statement-level collapse
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CollapseReport:
    """Certified chain showing the recipe's constraints force weight < 1.

    Substituting sigma = (H(1/a) - 1/a)/2 and l = w*a into the log-length
    cap, then applying the entropy cap H(1/a) <= (log2 a + log2 e)/a and
    a/(a-1) <= 2, leaves log2(w) < (log2 e - 1 - log2 a)/2.  The right side
    is certified negative at a = 2, and monotonicity of log2 makes it
    strictly decreasing in a, which covers every a >= 2.
    """

    precision_bits: int
    rhs_negative: Certainty
    rhs_at_2: Enclosure
    rhs_at_3: Enclosure
    entropy_bound: Certainty
    monotone_note: str

    @property
    def collapse_certified(self) -> bool:
        return self.rhs_negative.is_true and self.entropy_bound.is_true


def weight_log_cap(a: int, precision_bits: int = DEFAULT_PRECISION_BITS) -> Enclosure:
    """Enclosure of (log2 e - 1 - log2 a)/2, the certified cap on log2(w)."""
    le, la = _cap_logs(a, precision_bits)
    return (le - 1 - la) * Fraction(1, 2)


def theorem10_statement_collapse(
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> CollapseReport:
    """Certify the statement-level contradiction for every a >= 2.

    Two certified comparisons: the cap at a = 2 (the cap decreases in a) and
    the entropy cap at a = 2 (it holds for every a >= 2).
    """
    return CollapseReport(
        precision_bits=precision_bits,
        rhs_negative=certify_less(lambda bits: weight_log_cap(2, bits), 0, precision_bits),
        rhs_at_2=weight_log_cap(2, precision_bits),
        rhs_at_3=weight_log_cap(3, precision_bits),
        entropy_bound=entropy_log_bound_check(2, precision_bits),
        monotone_note=(
            "the cap (log2 e - 1 - log2 a)/2 is strictly decreasing in a "
            "because log2 is strictly increasing, so its certified "
            "negativity at a = 2 extends to every a >= 2"
        ),
    )
