"""Reference answers that do not come from the code under test.

Everything here uses only the standard library: its own membership test for
frame-proof witnesses, its own overlap counting for traceability witnesses,
float estimates (``math.log2``, ``math.lgamma``) for bound comparisons, and
closed-form work counts derived from the inputs and a witness's position in
the documented enumeration order.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from math import comb

# A float estimate decides a certified comparison only when its gap is wider
# than this; closer calls are near-ties the float cannot judge.
GAP_TOLERANCE = 1e-6


# ---------------------------------------------------------------------------
# Frame-proof codes
# ---------------------------------------------------------------------------


def can_frame(words, coalition, framed, definition) -> bool:
    """Whether the coalition's feasible set holds ``words[framed]``.

    Unanimity: positions where every member shows the same symbol are pinned
    to it.  Coordinate-set: each position takes only symbols some member
    shows there.
    """
    for position, symbol in enumerate(words[framed]):
        seen = {words[i][position] for i in coalition}
        if definition == "coordset" or len(seen) == 1:
            if symbol not in seen:
                return False
    return True


def frame_witness_ok(words, c, definition, coalition, framed) -> bool:
    coalition = tuple(coalition)
    return (
        1 <= len(coalition) <= c
        and len(set(coalition)) == len(coalition)
        and all(0 <= i < len(words) for i in coalition)
        and 0 <= framed < len(words)
        and framed not in coalition
        and can_frame(words, coalition, framed, definition)
    )


def combination_rank(combo, n: int) -> int:
    """Lexicographic rank of a sorted k-subset of range(n)."""
    k = len(combo)
    rank = 0
    prev = -1
    for i, v in enumerate(combo):
        for u in range(prev + 1, v):
            rank += comb(n - 1 - u, k - 1 - i)
        prev = v
    return rank


def pair_checks(n: int, c: int, coalition=None, framed=None) -> int:
    """(coalition, outsider) checks an exact walk makes: every pair when no
    witness exists, else every pair up to and including the witness, with
    coalitions ascending in size and lexicographic within a size."""
    top = min(c, n)
    if coalition is None:
        return sum(comb(n, j) * (n - j) for j in range(1, top + 1))
    coalition = tuple(sorted(coalition))
    size = len(coalition)
    before = sum(comb(n, j) * (n - j) for j in range(1, size))
    before += combination_rank(coalition, n) * (n - size)
    return before + sum(1 for y in range(framed) if y not in coalition) + 1


# ---------------------------------------------------------------------------
# Traceability schemes
# ---------------------------------------------------------------------------


def overlaps(decoders, pirate):
    keys = set(pirate)
    return [len(keys & set(d)) for d in decoders]


def ta_witness_ok(decoders, c, coalition, pirate, outsider) -> bool:
    """The pirate is k keys from the coalition's union, and the outsider
    ties the maximum overlap."""
    k = len(decoders[0])
    coalition = tuple(coalition)
    pirate = tuple(pirate)
    if not 1 <= len(coalition) <= c or len(set(coalition)) != len(coalition):
        return False
    if not all(0 <= i < len(decoders) for i in coalition):
        return False
    if not 0 <= outsider < len(decoders) or outsider in coalition:
        return False
    union = set().union(*(decoders[i] for i in coalition))
    if len(pirate) != k or len(set(pirate)) != k or not set(pirate) <= union:
        return False
    ov = overlaps(decoders, pirate)
    return ov[outsider] == max(ov)


def pirates_examined(decoders, c: int, witness=None) -> int:
    """Pirates an exhaustive search builds: all of them when no witness
    exists, else those up to and including the witness's pirate."""
    n, k = len(decoders), len(decoders[0])
    total = 0
    for size in range(1, min(c, n) + 1):
        for coalition in combinations(range(n), size):
            union = sorted(set().union(*(decoders[i] for i in coalition)))
            if witness is not None and coalition == tuple(witness[0]):
                index = {key: i for i, key in enumerate(union)}
                ranks = sorted(index[key] for key in witness[1])
                return total + combination_rank(ranks, len(union)) + 1
            total += comb(len(union), k)
    return total


def first_sampled_violation(decoders, c: int, trials: int, seed: int):
    """Replay the sampler's documented draw order and return the index of
    the first trial that finds a violation, or None."""
    n, k = len(decoders), len(decoders[0])
    top = min(c, n)
    if trials == 0 or top < 2:
        return None
    rng = random.Random(seed)
    for t in range(trials):
        size = rng.randint(2, top)
        coalition = tuple(sorted(rng.sample(range(n), size)))
        union = sorted(set().union(*(decoders[i] for i in coalition)))
        pirate = tuple(sorted(rng.sample(union, k)))
        ov = overlaps(decoders, pirate)
        best = max(ov)
        if any(o == best and i not in coalition for i, o in enumerate(ov)):
            return t
    return None


# ---------------------------------------------------------------------------
# Float estimates of certified quantities
# ---------------------------------------------------------------------------


def log2_rational(x: Fraction) -> float:
    return math.log2(x.numerator) - math.log2(x.denominator)


def entropy(x: Fraction) -> float:
    if x == 0 or x == 1:
        return 0.0
    return -float(x) * log2_rational(x) - float(1 - x) * log2_rational(1 - x)


def log2_binom(n: int, k: int) -> float:
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / math.log(2)


def claimed_lower_log2(q, delta, a, sigma, l) -> float:
    """(H(1/a) - sigma)*l - (delta - 1)*log2(q)."""
    return (entropy(Fraction(1, a)) - float(sigma)) * l - (delta - 1) * math.log2(q)


def thm6_gap(q, delta, c, sigma, l, s=2) -> float:
    """Claimed lower minus the upper bound c*(s^ceil(l/c) - 1), in log2."""
    upper = math.log2(c * (s ** (-(-l // c)) - 1))
    return claimed_lower_log2(q, delta, c, sigma, l) - upper


def thm7_gap(q, delta, c, sigma, l, k) -> float:
    """Claimed lower minus the upper bound C(l,t)/C(k-1,t-1), in log2."""
    t = -(-k // c)
    upper = log2_binom(l, t) - log2_binom(k - 1, t - 1)
    return claimed_lower_log2(q, delta, c * c, sigma, l) - upper


def sigma_margins(l: int, sigma: Fraction):
    """Float margins of the two sigma conditions (positive means holds)."""
    s = float(sigma)
    first = s - math.log2(l) / l
    second = l - (13 + math.sqrt(169 + 48 * s)) / (12 * s)
    return first, second


def window_upper(w: int, a: int) -> float:
    """(H(1/a) - 1/a)/2 * L / log2(L) with L = w*a."""
    length = w * a
    return (entropy(Fraction(1, a)) - 1 / a) / 2 * length / math.log2(length)


def window_lower(w: int, a: int) -> Fraction:
    return Fraction(a - 1, a) * w - 1


def thm10_windows(w_max: int, c_max: int) -> int:
    """Candidate windows of a thm10 scan: the w = 1, w = 2 and a = 2
    families plus the five finite pairs."""
    return 2 * (c_max - 1) + (w_max - 2) + 5


def thm11_windows(w_max: int, c_max: int) -> int:
    """Every (w, c*c) pair under both length readings."""
    return 2 * w_max * (math.isqrt(c_max) - 1)


def encloses(lo: Fraction, hi: Fraction, value: float) -> bool:
    """The float value lies in [lo, hi], allowing for its own rounding."""
    tol = 1e-12 * max(1.0, abs(value))
    return float(lo) - tol <= value <= float(hi) + tol
