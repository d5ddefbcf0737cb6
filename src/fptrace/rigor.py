"""Exact and rigorously enclosed arithmetic.

Integers and rationals are exact (``int`` and ``fractions.Fraction``).
Irrational quantities (base-2 logarithms, binary entropy, log2 e) are carried
as *enclosures*: rational intervals guaranteed to contain the true value.
Soundness comes from directed rounding at every internal step, never from
post-hoc error estimates, so a strict comparison of enclosure endpoints is a
machine-checked proof of the corresponding strict inequality.

The transcendental routines work in dyadic fixed point: an integer ``n`` at
working precision ``W`` stands for ``n / 2**W``.  Lower endpoints round down,
upper endpoints round up.  The working precision is raised until the returned
interval width is at most ``2**-precision_bits``, so callers get a hard width
guarantee rather than a heuristic one.

Quantities of the form ``r * 2**e`` that appear in bound comparisons are kept
as base-2 logarithms, so an exactly-representable exponent like 45 is the
point interval [45, 45] instead of a 46-bit integer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Optional, Tuple, Union

Rational = Union[int, Fraction]

DEFAULT_PRECISION_BITS = 64
MAX_PRECISION_BITS = 4096
# Steps a verifier may take: pair tests, count vectors, sampled decoders or
# codeword pairs.  Every verifier reads this one value when it runs.
DEFAULT_STEP_BUDGET = 10**9


class DomainError(ValueError):
    """Input outside an operation's mathematical domain."""


class BudgetExceededError(RuntimeError):
    """A verifier's requested work exceeds the step budget."""


class FormatError(ValueError):
    """Malformed input file; the message names the offending line."""


def content_lines(text: str) -> Iterator[Tuple[int, str]]:
    """(line number, content) for each line of ``text`` that holds more
    than a '#' comment and whitespace, with both stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def refuse_over_budget(what: str, steps: int) -> None:
    """Refuse ``steps`` past ``DEFAULT_STEP_BUDGET``, read at the call."""
    if steps > DEFAULT_STEP_BUDGET:
        raise BudgetExceededError(
            f"{what} needs ~{steps} steps, budget is {DEFAULT_STEP_BUDGET}"
        )


def coalitions(n: int, c: int) -> Tuple[int, Iterator[Tuple[int, ...]]]:
    """The pair tests an exact verifier makes over n users at coalition
    bound c, and its walk: every coalition of 2 to min(c, n) users, ascending
    in size and lexicographic within a size.

    Coalitions of one are left out.  A lone member's feasible set is its own
    codeword, and its only pirate is its own key set; codewords and decoders
    are distinct, so no outsider is framed or ties the trace.  A step is one
    (coalition, outsider) pair test, C(n, j) * (n - j) for size j; before any
    test, :func:`refuse_over_budget` refuses a walk whose steps pass the
    step budget, naming the sum through the first size that passes it.
    """
    if c < 1:
        raise DomainError("coalition bound c must be >= 1")
    sizes = range(2, min(c, n) + 1)
    steps = 0
    for j in sizes:
        steps += math.comb(n, j) * (n - j)
        refuse_over_budget("exact verification", steps)
    walk = itertools.chain.from_iterable(itertools.combinations(range(n), j) for j in sizes)
    return steps, walk


def _as_fraction(x) -> Fraction:
    """Coerce to an exact rational.  Floats are refused: they are inexact."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        raise DomainError("floats are not exact; pass an int or Fraction")
    raise DomainError(f"expected an exact rational, got {type(x).__name__}")


def _check_precision(precision_bits: int) -> None:
    if not isinstance(precision_bits, int) or precision_bits < 1:
        raise DomainError("precision_bits must be a positive integer")


# ---------------------------------------------------------------------------
# Certainty: three-valued outcome of a certified comparison
# ---------------------------------------------------------------------------

_LABELS = ("CertifiedTrue", "CertifiedFalse", "Unresolved")


@dataclass(frozen=True)
class Certainty:
    """Verdict of a certified comparison.

    ``CertifiedTrue`` / ``CertifiedFalse`` come with a proof: strictly
    separated interval endpoints, an exhaustive search, or an exact rational
    test.  Equal values compared through enclosures never separate, so they
    stay ``Unresolved`` forever, by design.
    ``precision_bits`` records the precision at which resolution was
    abandoned (``None`` when the notion does not apply, e.g. sampling).
    """

    label: str
    precision_bits: Optional[int] = None

    def __post_init__(self):
        if self.label not in _LABELS:
            raise ValueError(f"bad certainty label {self.label!r}")

    @staticmethod
    def true() -> "Certainty":
        return _CERTIFIED_TRUE

    @staticmethod
    def false() -> "Certainty":
        return _CERTIFIED_FALSE

    @staticmethod
    def unresolved(precision_bits: Optional[int] = None) -> "Certainty":
        return Certainty("Unresolved", precision_bits)

    @property
    def is_true(self) -> bool:
        return self.label == "CertifiedTrue"

    @property
    def is_false(self) -> bool:
        return self.label == "CertifiedFalse"

    @property
    def is_unresolved(self) -> bool:
        return self.label == "Unresolved"

    def __str__(self) -> str:
        if self.is_unresolved and self.precision_bits is not None:
            return f"Unresolved(precision_bits={self.precision_bits})"
        return self.label


_CERTIFIED_TRUE = Certainty("CertifiedTrue")
_CERTIFIED_FALSE = Certainty("CertifiedFalse")


def certainty_all(*items: Certainty) -> Certainty:
    """Conjunction: any CertifiedFalse wins, else any Unresolved, else true."""
    for c in items:
        if c.is_false:
            return c
    for c in items:
        if c.is_unresolved:
            return c
    return Certainty.true()


# ---------------------------------------------------------------------------
# Enclosure: a rational interval certified to contain a real value
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Enclosure:
    """Closed rational interval [lo, hi] containing a real value.

    Arithmetic is exact interval arithmetic on rational endpoints (no
    rounding is ever needed), so combining sound enclosures yields sound
    enclosures.  An enclosure adds, subtracts and divides an enclosure or a
    rational, and multiplies a rational.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", _as_fraction(self.lo))
        object.__setattr__(self, "hi", _as_fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"inverted enclosure [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, value: Rational) -> "Enclosure":
        v = _as_fraction(value)
        return cls(v, v)

    # -- inspection ---------------------------------------------------------

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def intersect(self, other: "Enclosure") -> "Enclosure":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            raise ValueError("disjoint enclosures cannot both be sound")
        return Enclosure(lo, hi)

    # -- exact interval arithmetic -------------------------------------------

    def __add__(self, other) -> "Enclosure":
        if isinstance(other, Enclosure):
            return Enclosure(self.lo + other.lo, self.hi + other.hi)
        r = _as_fraction(other)
        return Enclosure(self.lo + r, self.hi + r)

    def __sub__(self, other) -> "Enclosure":
        if isinstance(other, Enclosure):
            return Enclosure(self.lo - other.hi, self.hi - other.lo)
        return self + (-_as_fraction(other))

    def __mul__(self, other) -> "Enclosure":
        r = _as_fraction(other)
        if r >= 0:
            return Enclosure(self.lo * r, self.hi * r)
        return Enclosure(self.hi * r, self.lo * r)

    def __truediv__(self, other) -> "Enclosure":
        if isinstance(other, Enclosure):
            if other.lo <= 0 <= other.hi:
                raise DomainError("division by an enclosure containing zero")
            quotients = (
                self.lo / other.lo,
                self.lo / other.hi,
                self.hi / other.lo,
                self.hi / other.hi,
            )
            return Enclosure(min(quotients), max(quotients))
        r = _as_fraction(other)
        if r == 0:
            raise DomainError("division by zero")
        return self * (Fraction(1) / r)

    # -- rendering ------------------------------------------------------------

    def decimal_str(self, digits: int = 12) -> str:
        """Midpoint to ``digits`` decimals, with an explicit half-width."""
        half = self.width / 2
        return f"{decimal_fixed(self.midpoint, digits)} ± {decimal_sci(half)}"


def decimal_fixed(x: Fraction, digits: int) -> str:
    """Deterministic fixed-point decimal string (round half away from zero)."""
    sign = "-" if x < 0 else ""
    x = abs(x)
    scaled = x * 10**digits
    q, r = divmod(scaled.numerator, scaled.denominator)
    if 2 * r >= scaled.denominator:
        q += 1
    s = str(q).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}" if digits else f"{sign}{s}"


def decimal_sci(x: Fraction) -> str:
    """Two-significant-digit scientific string for a nonnegative rational."""
    if x < 0:
        raise ValueError("expected a nonnegative value")
    if x == 0:
        return "0"
    # with e = digits(num) - digits(den), 10**(e-1) < x < 10**(e+1)
    e = len(str(x.numerator)) - len(str(x.denominator))
    if x < Fraction(10) ** e:
        e -= 1
    mantissa = decimal_fixed(x / Fraction(10) ** e, 1)  # in [1.0, 10.0]
    if mantissa == "10.0":
        mantissa, e = "1.0", e + 1
    return f"{mantissa}e{e:+d}"


# ---------------------------------------------------------------------------
# Dyadic fixed-point internals (directed rounding)
# ---------------------------------------------------------------------------


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _scale_floor(x: Fraction, w: int) -> int:
    return (x.numerator << w) // x.denominator


def _scale_ceil(x: Fraction, w: int) -> int:
    return _ceil_div(x.numerator << w, x.denominator)


def floor_log2(x: Fraction) -> int:
    """Exact floor of log2 for a positive rational.  With
    e = bitlen(num) - bitlen(den), 2**(e-1) < x < 2**(e+1), so the floor is
    e when x >= 2**e, by one exact shifted comparison, and e - 1 otherwise."""
    if x <= 0:
        raise DomainError("floor_log2 requires a positive argument")
    num, den = x.numerator, x.denominator
    e = num.bit_length() - den.bit_length()
    return e if num << max(-e, 0) >= den << max(e, 0) else e - 1


def _atanh_dyadic(z: Fraction, w: int) -> Tuple[int, int]:
    """Dyadic interval for atanh(z) = sum z^(2k+1)/(2k+1), needs 0 <= z <= 1/2.

    Every multiplication and division rounds down on the lower track and up
    on the upper track; the dropped series tail is covered by one final ulp
    (the geometric tail is below half an ulp at the break point).

    The upper track is carried as its excess e over the lower term p, a few
    units, and z^2 as zz and zz + dz with dz in 0..2, so each term makes one
    wide product: (p + e)(zz + dz) = p*zz + p*dz + e*(zz + dz).
    """
    if z < 0 or 2 * z > 1:
        raise DomainError("series argument out of range")
    z_lo, z_hi = _scale_floor(z, w), _scale_ceil(z, w)
    zz = (z_lo * z_lo) >> w
    zz_hi = -(-z_hi * z_hi >> w)
    dz = zz_hi - zz
    low = (1 << w) - 1
    p, e = z_lo, z_hi - z_lo
    s_lo = s_hi = 0
    k = 0
    while True:
        d = 2 * k + 1
        q, r = divmod(p, d)
        s_lo += q
        s_hi += q + _ceil_div(r + e, d)
        prod = p * zz
        # ceil((prod + p*dz + e*zz_hi) / 2^w) - floor(prod / 2^w)
        e = -(-((prod & low) + p * dz + e * zz_hi) >> w)
        p = prod >> w
        k += 1
        # tail <= z^(2k+1)/((2k+1)(1-z^2)) <= 2*(p + e)/(2k+1), one scaled ulp
        if 2 * (p + e) < 2 * k + 1:
            s_hi += 1
            break
    return s_lo, s_hi


def _ln_dyadic(m: Fraction, w: int) -> Tuple[int, int]:
    """Dyadic interval for ln(m), m in [1, 2]:  ln(m) = 2*atanh((m-1)/(m+1))."""
    z = (m - 1) / (m + 1)
    lo, hi = _atanh_dyadic(z, w)
    return 2 * lo, 2 * hi


@lru_cache(maxsize=64)
def _ln2_dyadic(w: int) -> Tuple[int, int]:
    return _ln_dyadic(Fraction(2), w)


def _log2_dyadic(e: int, m: Fraction, w: int) -> Tuple[int, int]:
    """Dyadic interval for e + log2(m), m in [1, 2):  e + ln(m) / ln(2)."""
    ln_lo, ln_hi = _ln_dyadic(m, w)
    l2_lo, l2_hi = _ln2_dyadic(w)
    return (e << w) + (ln_lo << w) // l2_hi, (e << w) + _ceil_div(ln_hi << w, l2_lo)


def _dyadic_enclosure(
    bounds: Callable[[int], Tuple[int, int]], w: int, precision_bits: int
) -> Enclosure:
    """[lo, hi] / 2**w for ``(lo, hi) = bounds(w)``, doubling the working
    precision ``w`` until the width is at most 2**-precision_bits."""
    while True:
        lo, hi = bounds(w)
        if hi - lo <= 1 << (w - precision_bits):
            scale = Fraction(1, 1 << w)
            return Enclosure(lo * scale, hi * scale)
        w *= 2


# ---------------------------------------------------------------------------
# Enclosure producers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1 << 16)
def _log2_enclosure_cached(x: Fraction, precision_bits: int) -> Enclosure:
    num, den = x.numerator, x.denominator
    if num & (num - 1) == 0 and den & (den - 1) == 0:
        # exact power of two
        return Enclosure.point(num.bit_length() - den.bit_length())
    e = floor_log2(x)
    m = x / Fraction(2) ** e
    return _dyadic_enclosure(
        lambda w: _log2_dyadic(e, m, w), precision_bits + 16, precision_bits
    )


def log2_enclosure(x: Rational, precision_bits: int = DEFAULT_PRECISION_BITS) -> Enclosure:
    """Enclosure of log2(x) for rational x > 0, width <= 2**-precision_bits.

    Exact point interval whenever x is a power of two (of either sign of
    exponent), e.g. log2(1/64) = [-6, -6].
    """
    x = _as_fraction(x)
    if x <= 0:
        raise DomainError(f"log2 requires a positive argument, got {x}")
    _check_precision(precision_bits)
    return _log2_enclosure_cached(x, precision_bits)


@lru_cache(maxsize=1 << 14)
def _entropy_enclosure_cached(x: Fraction, precision_bits: int) -> Enclosure:
    inner = precision_bits + 2
    lx = log2_enclosure(x, inner)
    ly = log2_enclosure(1 - x, inner)
    return lx * (-x) + ly * (x - 1)


def entropy_enclosure(x: Rational, precision_bits: int = DEFAULT_PRECISION_BITS) -> Enclosure:
    """Enclosure of the binary entropy H(x) = -x log2 x - (1-x) log2(1-x).

    H(0) = H(1) = 0 by the limit convention; the result is the exact point
    [1, 1] at x = 1/2 because log2(1/2) is exact.
    """
    x = _as_fraction(x)
    if not 0 <= x <= 1:
        raise DomainError(f"entropy requires 0 <= x <= 1, got {x}")
    _check_precision(precision_bits)
    if x == 0 or x == 1:
        return Enclosure.point(0)
    return _entropy_enclosure_cached(x, precision_bits)


def log2_e_enclosure(precision_bits: int = DEFAULT_PRECISION_BITS) -> Enclosure:
    """Enclosure of log2(e) = 1/ln(2), width <= 2**-precision_bits."""
    _check_precision(precision_bits)
    return _log2_e_cached(precision_bits)


@lru_cache(maxsize=64)
def _log2_e_cached(precision_bits: int) -> Enclosure:
    def bounds(w: int) -> Tuple[int, int]:
        l2_lo, l2_hi = _ln2_dyadic(w)
        return (1 << (2 * w)) // l2_hi, _ceil_div(1 << (2 * w), l2_lo)

    return _dyadic_enclosure(bounds, precision_bits + 16, precision_bits)


# ---------------------------------------------------------------------------
# Certified comparison with precision escalation
# ---------------------------------------------------------------------------


def certify_less(
    a: Union[Callable[[int], Enclosure], Rational],
    b: Union[Callable[[int], Enclosure], Rational],
    precision_bits: int = DEFAULT_PRECISION_BITS,
    or_equal: bool = False,
) -> Certainty:
    """Certainty of a < b (a <= b with ``or_equal``).  Each side is a
    producer, whose ``side(bits)`` encloses its value, or an exact int or
    Fraction, which is its own point enclosure at every precision.

    Doubles the precision from ``precision_bits`` and re-derives both
    enclosures (intersecting with the previous round, so refinement can only
    shrink) until the endpoints separate or ``MAX_PRECISION_BITS`` is
    exceeded; the unresolved verdict records the last precision tried.
    CertifiedFalse needs b's enclosure strictly below a's, so equal values
    are never certified false; they are certified true only under
    ``or_equal``, when the enclosures touch at that value (an exact point
    equal to an integer).
    """
    make_a, make_b = (
        side if callable(side) else (lambda bits, p=Enclosure.point(side): p) for side in (a, b)
    )
    bits = precision_bits
    a, b = make_a(bits), make_b(bits)
    while True:
        if a.hi < b.lo or (or_equal and a.hi <= b.lo):
            return Certainty.true()
        if b.hi < a.lo:
            return Certainty.false()
        if bits * 2 > MAX_PRECISION_BITS:
            return Certainty.unresolved(bits)
        bits *= 2
        a = a.intersect(make_a(bits))
        b = b.intersect(make_b(bits))
