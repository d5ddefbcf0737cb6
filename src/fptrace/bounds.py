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

The sigma constraint has two halves.  log2(l)/l < sigma is a certified
enclosure comparison.  l > (13 + sqrt(169 + 48*sigma))/(12*sigma) is decided
in exact rationals: with t = 12*sigma*l - 13 it holds exactly when t > 0 and
t^2 > 169 + 48*sigma, so a tie is CertifiedFalse rather than Unresolved.
Reports evaluate the bounds even when the constraint fails and flag
``sigma_ok`` accordingly so the parameter space can be explored.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

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
    """Certify log2(l)/l < sigma and l > (13 + sqrt(169 + 48*sigma))/(12*sigma);
    the second as t > 0 and t^2 > 169 + 48*sigma with t = 12*sigma*l - 13."""
    sigma = _as_fraction(sigma)
    if sigma <= 0:
        raise DomainError("sigma must be positive")
    if l < 1:
        raise DomainError("l must be >= 1")
    first = certify_less(lambda bits: log2_enclosure(l, bits), sigma * l, precision_bits)
    t = 12 * sigma * l - 13
    second = t > 0 and t * t > 169 + 48 * sigma
    return certainty_all(first, Certainty.true() if second else Certainty.false())


def thm6_lower(p: Thm6Params, precision_bits: int = DEFAULT_PRECISION_BITS) -> Enclosure:
    """log2 of the claimed frame-proof lower bound:
    (H(1/c) - sigma)*l - (delta-1)*log2(q).

    Exact point enclosure when c = 2 and q is a power of two, since
    H(1/2) = 1 is exact.
    """
    return _lower_log2(p.q, p.delta, Fraction(1, p.c), p.sigma, p.l, precision_bits)


def thm7_lower(p: Thm7Params, precision_bits: int = DEFAULT_PRECISION_BITS) -> Enclosure:
    """log2 of the claimed traceability lower bound; entropy argument 1/c^2."""
    return _lower_log2(
        p.q, p.delta, Fraction(1, p.c * p.c), p.sigma, p.l, precision_bits
    )


def _lower_log2(
    q: int, delta: int, x: Fraction, sigma: Fraction, l: int, precision_bits: int
) -> Enclosure:
    inner = precision_bits + l.bit_length() + delta.bit_length() + 4
    h = entropy_enclosure(x, inner)
    lq = log2_enclosure(q, inner)
    return (h - sigma) * l - lq * (delta - 1)


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
    return _contradiction_report("thm6", p, thm6_lower, upper, precision_bits)


def contradiction_report_thm7(
    p: Thm7Params, precision_bits: int = DEFAULT_PRECISION_BITS
) -> BoundReport:
    """Certify (or refute) upper < lower for the traceability setting."""
    sw = sw_upper_bound(p.l, p.k, p.c)
    return _contradiction_report(
        "thm7", p, thm7_lower, sw.value, precision_bits, sw_detail=sw
    )


def _contradiction_report(
    which: str,
    p: Union[Thm6Params, Thm7Params],
    lower: Callable[..., Enclosure],
    upper_exact: Fraction,
    precision_bits: int,
    sw_detail: Optional[SWBoundReport] = None,
) -> BoundReport:
    """The report body both theorems share: ``lower(p, bits)`` against the
    log2 of the exact upper bound."""

    def make_lower(bits: int) -> Enclosure:
        return lower(p, bits)

    def make_upper(bits: int) -> Enclosure:
        return log2_enclosure(upper_exact, bits)

    return BoundReport(
        which=which,
        params=p,
        lower_log2=make_lower(precision_bits),
        upper_log2=make_upper(precision_bits),
        upper_exact=upper_exact,
        sigma_certainty=sigma_constraint(p.l, p.sigma, precision_bits),
        contradiction=certify_less(make_upper, make_lower, precision_bits),
        sw_detail=sw_detail,
    )
