"""Certified evaluation of contested codeword/decoder-count bounds.

Two claimed lower bounds of the form n > q^(1-delta) * 2^((H(1/c)-sigma)*l)
(with c squared inside the entropy for the traceability variant) are
evaluated as base-2 logarithm enclosures and compared against established
upper bounds: n <= c*(s^ceil(l/c) - 1) for c-frame-proof codes and
n <= C(l,t)/C(k-1,t-1), t = ceil(k/c), for c-traceability schemes.

A contradiction is certified when the upper bound's log2 enclosure lies
strictly below the lower bound's, which is exactly the shape of the
"upper < lower" refutation: parameters satisfying all stated hypotheses
whose claimed lower bound exceeds a proven upper bound.

Where the enclosures overlap, one exact comparison of integer powers (a
power of each bound) decides instead, so a tie is CertifiedFalse.
Only past ``EXACT_POWER_BITS`` does ``certify_less`` refine the enclosures.
Both halves of the sigma constraint are decided exactly as well.
Reports evaluate the bounds even when the constraint fails and flag
``sigma_ok`` accordingly so the parameter space can be explored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

from .rigor import (
    Certainty,
    DomainError,
    Enclosure,
    DEFAULT_PRECISION_BITS,
    Rational,
    _as_fraction,
    binom,
    certainty_all,
    certify_less,
    entropy_enclosure,
    log2_enclosure,
)

PRIME_POWER_LIMIT = 1 << 32
# Bits per side of an exact power comparison; at the cap it costs about a
# climb of the enclosures to 4096 bits, which decide past it.
EXACT_POWER_BITS = 1 << 20


def is_prime_power(q: int) -> bool:
    """Trial-factorization prime-power test for 1 < q <= 2**32."""
    if not isinstance(q, int):
        raise DomainError("q must be an integer")
    if q > PRIME_POWER_LIMIT:
        raise DomainError(f"prime-power check supports q <= {PRIME_POWER_LIMIT}")
    if q < 2:
        return False
    p = None
    d = 2
    while d * d <= q:
        if q % d == 0:
            p = d
            break
        d += 1 if d == 2 else 2
    if p is None:
        return True
    while q % p == 0:
        q //= p
    return q == 1


def _validate_common(q: int, delta: int, c: int, sigma: Fraction, l: int) -> None:
    if not is_prime_power(q):
        raise DomainError(f"q = {q} is not a prime power")
    if delta < 1:
        raise DomainError("delta must be >= 1")
    if c < 2:
        raise DomainError("c must be >= 2")
    if sigma <= 0:
        raise DomainError("sigma must be positive")
    if l < 1:
        raise DomainError("l must be >= 1")
    if l > q:
        raise DomainError(f"the hypotheses require l <= q, got l={l} > q={q}")


@dataclass(frozen=True)
class Thm6Params:
    """Frame-proof setting: constant weight w with c = l/w and l <= q."""

    q: int
    delta: int
    c: int
    sigma: Fraction
    l: int
    w: int

    def __post_init__(self):
        object.__setattr__(self, "sigma", _as_fraction(self.sigma))
        _validate_common(self.q, self.delta, self.c, self.sigma, self.l)
        if self.l % self.c:
            raise DomainError(f"the relation c = l/w needs c | l, got l={self.l}, c={self.c}")
        if self.c * self.w != self.l:  # also refuses w < 1, since l >= 1
            raise DomainError(
                f"the relation c = l/w fails: {self.c} * {self.w} != {self.l}"
            )


@dataclass(frozen=True)
class Thm7Params:
    """Traceability setting: k keys per decoder with c^2 = 2l/k and l <= q."""

    q: int
    delta: int
    c: int
    sigma: Fraction
    l: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "sigma", _as_fraction(self.sigma))
        _validate_common(self.q, self.delta, self.c, self.sigma, self.l)
        if self.k < 1:
            raise DomainError("k must be >= 1")
        if self.c * self.c * self.k != 2 * self.l:
            raise DomainError(
                f"the relation c^2 = 2l/k fails: {self.c}^2 * {self.k} != 2 * {self.l}"
            )


def sigma_constraint(
    l: int, sigma: Rational, precision_bits: int = DEFAULT_PRECISION_BITS
) -> Certainty:
    """Certify log2(l)/l < sigma and l > (13 + sqrt(169 + 48*sigma))/(12*sigma).

    The first is l^b < 2^(a*l) with sigma = a/b, proved by b*(f+1) <= a*l
    and refuted by b*f >= a*l, f = floor(log2 l), else compared exactly.  The
    second is t > 0 and t^2 > 169 + 48*sigma with t = 12*sigma*l - 13."""
    sigma = _as_fraction(sigma)
    if sigma <= 0:
        raise DomainError("sigma must be positive")
    if l < 1:
        raise DomainError("l must be >= 1")
    a, b = sigma.numerator, sigma.denominator
    f = l.bit_length() - 1
    if a * l <= b * f or b * (f + 1) <= a * l:  # 2^f <= l < 2^(f+1)
        first = _certainty(b * f < a * l)
    else:
        less = _powers_less([(l, b)], [(2, a * l)])
        first = _certainty(less) if less is not None else certify_less(
            lambda bits: log2_enclosure(l, bits), sigma * l, precision_bits)
    t = 12 * sigma * l - 13
    second = t > 0 and t * t > 169 + 48 * sigma
    return certainty_all(first, _certainty(second))


def thm6_lower(p: Thm6Params, precision_bits: int = DEFAULT_PRECISION_BITS) -> Enclosure:
    """log2 of the claimed frame-proof lower bound:
    (H(1/c) - sigma)*l - (delta-1)*log2(q).

    Exact point enclosure when c = 2 and q is a power of two, since
    H(1/2) = 1 is exact.
    """
    return _lower_log2(p, p.c, precision_bits)


def thm7_lower(p: Thm7Params, precision_bits: int = DEFAULT_PRECISION_BITS) -> Enclosure:
    """log2 of the claimed traceability lower bound; entropy argument 1/c^2."""
    return _lower_log2(p, p.c * p.c, precision_bits)


def _lower_log2(p: Union[Thm6Params, Thm7Params], m: int, precision_bits: int) -> Enclosure:
    inner = precision_bits + p.l.bit_length() + p.delta.bit_length() + 4
    h = entropy_enclosure(Fraction(1, m), inner)
    lq = log2_enclosure(p.q, inner)
    return (h - p.sigma) * p.l - lq * (p.delta - 1)


def ssw_upper(l: int, c: int, s: int = 2) -> int:
    """Exact codeword-count upper bound c * (s^ceil(l/c) - 1)."""
    if s < 2:
        raise DomainError("alphabet size s must be >= 2")
    if c < 1:
        raise DomainError("c must be >= 1")
    if l < 1:
        raise DomainError("l must be >= 1")
    return c * (s ** (-(-l // c)) - 1)


@dataclass(frozen=True)
class SWBoundReport:
    """n <= C(l, t) / C(k-1, t-1) with t = ceil(k/c), evaluated exactly."""

    t: int
    numerator: int
    denominator: int
    value: Fraction


def sw_upper_bound(l: int, k: int, c: int) -> SWBoundReport:
    """Exact decoder-count upper bound for c-traceability schemes."""
    if c < 1:
        raise DomainError("c must be >= 1")
    if k < 1 or k > l:
        raise DomainError("need 1 <= k <= l")
    t = -(-k // c)
    numerator = binom(l, t)
    denominator = binom(k - 1, t - 1)
    return SWBoundReport(t, numerator, denominator, Fraction(numerator, denominator))


@dataclass(frozen=True)
class BoundReport:
    """Side-by-side certified comparison of a claimed lower bound and a
    proven upper bound, in log2 space."""

    which: str
    params: Union[Thm6Params, Thm7Params]
    lower_log2: Enclosure
    upper_log2: Enclosure
    upper_exact: Fraction
    sigma_certainty: Certainty
    contradiction: Certainty
    sw_detail: Optional[SWBoundReport] = None

    @property
    def sigma_ok(self) -> bool:
        return self.sigma_certainty.is_true


def contradiction_report_thm6(
    p: Thm6Params, s: int = 2, precision_bits: int = DEFAULT_PRECISION_BITS
) -> BoundReport:
    """Certify (or refute) upper < lower for the frame-proof setting."""
    upper = Fraction(ssw_upper(p.l, p.c, s))
    return _contradiction_report("thm6", p, p.c, upper, precision_bits)


def contradiction_report_thm7(
    p: Thm7Params, precision_bits: int = DEFAULT_PRECISION_BITS
) -> BoundReport:
    """Certify (or refute) upper < lower for the traceability setting."""
    sw = sw_upper_bound(p.l, p.k, p.c)
    return _contradiction_report(
        "thm7", p, p.c * p.c, sw.value, precision_bits, sw_detail=sw
    )


def _contradiction_report(
    which: str,
    p: Union[Thm6Params, Thm7Params],
    m: int,
    upper_exact: Fraction,
    precision_bits: int,
    sw_detail: Optional[SWBoundReport] = None,
) -> BoundReport:
    """The report body both theorems share: the claimed lower bound, with
    entropy argument 1/m, against the log2 of the exact upper bound."""

    def make_lower(bits: int) -> Enclosure:
        return _lower_log2(p, m, bits)

    def make_upper(bits: int) -> Enclosure:
        return log2_enclosure(upper_exact, bits)

    lower_log2, upper_log2 = make_lower(precision_bits), make_upper(precision_bits)
    overlap = upper_log2.lo <= lower_log2.hi and lower_log2.lo <= upper_log2.hi
    contradiction = _contradiction_exact(p, m, upper_exact) if overlap else None
    if contradiction is None:
        contradiction = certify_less(make_upper, make_lower, precision_bits)
    return BoundReport(
        which=which,
        params=p,
        lower_log2=lower_log2,
        upper_log2=upper_log2,
        upper_exact=upper_exact,
        sigma_certainty=sigma_constraint(p.l, p.sigma, precision_bits),
        contradiction=contradiction,
        sw_detail=sw_detail,
    )


def _contradiction_exact(
    p: Union[Thm6Params, Thm7Params], m: int, upper: Fraction
) -> Optional[Certainty]:
    """upper < q^(1-delta) * 2^((H(1/m) - sigma)*l) exactly, or None past
    the cap.  With sigma = a/b, N = m*b, upper = u_n/u_d and 2^H(1/m) =
    m/(m-1)^((m-1)/m), its N-th power is u_n^N (m-1)^(l(m-1)b) 2^(alm)
    q^((delta-1)mb) < m^(lmb) u_d^N."""
    a, b = p.sigma.numerator, p.sigma.denominator
    n = m * b
    less = _powers_less(
        [(upper.numerator, n), (m - 1, p.l * (m - 1) * b), (2, a * p.l * m),
         (p.q, (p.delta - 1) * n)],
        [(m, p.l * n), (upper.denominator, n)],
    )
    return None if less is None else _certainty(less)


def _powers_less(
    left: Sequence[Tuple[int, int]], right: Sequence[Tuple[int, int]]
) -> Optional[bool]:
    """Whether prod base^e over ``left`` < over ``right`` (bases >= 1,
    e >= 0), after dividing every exponent by their gcd; None when a side's
    sum of e * bit length passes ``EXACT_POWER_BITS``, checked before any
    power is built."""
    left, right = ([(base, e) for base, e in side if base > 1 and e] for side in (left, right))
    g = math.gcd(*(e for _, e in left + right))
    left, right = ([(base, e // g) for base, e in side] for side in (left, right))
    sizes = (sum(e * base.bit_length() for base, e in side) for side in (left, right))
    if max(sizes) > EXACT_POWER_BITS:
        return None

    def product(factors: Sequence[Tuple[int, int]]) -> int:
        value, shift = 1, 0
        for base, e in factors:
            if base & (base - 1):
                value *= base**e
            else:
                shift += (base.bit_length() - 1) * e
        return value << shift

    return product(left) < product(right)


def _certainty(holds: bool) -> Certainty:
    return Certainty.true() if holds else Certainty.false()
