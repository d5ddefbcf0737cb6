"""Shared test utilities: independent oracles and seeded generators.

The oracles here deliberately avoid the library's own algorithms: the log2
oracle extracts binary digits by exact rational squaring (long division of
the exponent), the binomial oracles use the product formula and the Pascal
recurrence, and the frame-proof oracles decide position by position on
feasible patterns or by full feasible-set enumeration instead of the
library's integer mask tests.  The minimum-distance and candidate-filter
references are the symbol-by-symbol loop and the full grid enumeration that
the library's packed-word and closed-form versions replaced, and the exact
traceability reference enumerates every pirate instead of searching count
vectors per (coalition, outsider) pair.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb
from typing import Tuple

from fptrace.fpcode import (
    Code,
    FeasibleDefinition,
    FrameproofVerdict,
    FrameWitness,
    enumerate_feasible,
    feasible_contains,
    feasible_pattern,
)
from fptrace.paramscan import CaseTag, classify_pair
from fptrace.rigor import DEFAULT_STEP_BUDGET, BudgetExceededError, Certainty, DomainError
from fptrace.tascheme import (
    KeyScheme,
    TAVerdict,
    TAWitness,
    _trace_violation,
)


def log2_bit_expansion(x: Fraction, bits: int) -> Tuple[Fraction, Fraction]:
    """Exact dyadic window [K/2^bits, (K+1)/2^bits] containing log2(x).

    Classic digit extraction: normalize x into [1, 2) tracking the integer
    exponent, then square; each squaring yields one fractional bit.  All
    arithmetic is exact rational arithmetic, so the window is exact; the
    cost doubles per bit, which keeps ``bits`` small.
    """
    if x <= 0:
        raise ValueError("positive rationals only")
    # raw numerator/denominator arithmetic: squaring and halving need no
    # normalization, and skipping Fraction's gcd keeps the doubling-size
    # integers cheap
    num, den = x.numerator, x.denominator
    e = 0
    while num < den:
        num <<= 1
        e -= 1
    while num >= 2 * den:
        den <<= 1
        e += 1
    frac = 0
    for _ in range(bits):
        num *= num
        den *= den
        frac <<= 1
        if num >= 2 * den:
            frac |= 1
            den <<= 1
    scale = Fraction(1, 2**bits)
    return e + frac * scale, e + (frac + 1) * scale


def binom_product(n: int, k: int) -> int:
    """Product-formula binomial: prod(n-i, i<k) / k!."""
    if k < 0 or n < 0:
        raise ValueError
    if k > n:
        return 0
    num = 1
    for i in range(k):
        num *= n - i
    den = 1
    for i in range(1, k + 1):
        den *= i
    assert num % den == 0
    return num // den


def pascal_table(n_max: int):
    """Full Pascal triangle up to row n_max, by the additive recurrence."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = [1]
        for k in range(1, n):
            row.append(prev[k - 1] + prev[k])
        row.append(1)
        rows.append(row)
    return rows


def random_code(rng: random.Random, n_max: int = 4, l_max: int = 8, s: int = 2) -> Code:
    """Uniform-ish random code with 2..n_max distinct words of length 1..l_max."""
    length = rng.randint(1, l_max)
    n_target = rng.randint(2, n_max)
    words = set()
    attempts = 0
    while len(words) < n_target and attempts < 200:
        words.add(tuple(rng.randrange(s) for _ in range(length)))
        attempts += 1
    return Code(tuple(sorted(words)), s)


def frameproof_by_enumeration(code: Code, c: int, definition: FeasibleDefinition) -> bool:
    """Frame-proof oracle: materialize every coalition's feasible set."""
    n = code.n
    for size in range(1, min(c, n) + 1):
        for coalition in itertools.combinations(range(n), size):
            feasible = enumerate_feasible(code, coalition, definition)
            for x in range(n):
                if x not in coalition and code.codewords[x] in feasible:
                    return False
    return True


def frameproof_reference(
    code: Code,
    c: int,
    definition: FeasibleDefinition = FeasibleDefinition.UNANIMITY,
    budget: int = DEFAULT_STEP_BUDGET,
) -> FrameproofVerdict:
    """Slow reference for ``is_frameproof``: the same checks, budget and
    enumeration order, but every (coalition, outsider) check is a
    symbol-by-symbol membership test on the coalition's feasible pattern.
    The budget counts the pair tests of coalitions of two or more."""
    if c < 1:
        raise DomainError("coalition bound c must be >= 1")
    n = code.n
    top = min(c, n)
    cost = sum(comb(n, j) * (n - j) for j in range(2, top + 1))
    if cost > budget:
        raise BudgetExceededError(
            f"exact verification needs ~{cost} steps, budget is {budget}"
        )
    for size in range(1, top + 1):
        for coalition in itertools.combinations(range(n), size):
            pattern = feasible_pattern(code, coalition, definition)
            members = set(coalition)
            for x in range(n):
                if x in members:
                    continue
                if feasible_contains(pattern, code.codewords[x]):
                    return FrameproofVerdict(False, FrameWitness(coalition, x))
    return FrameproofVerdict(True)


def min_distance_reference(code: Code) -> int:
    """Slow reference for ``min_distance``: count differing symbols of every
    pair of codewords."""
    best = code.length
    for u, v in itertools.combinations(code.codewords, 2):
        d = sum(a != b for a, b in zip(u, v))
        if d < best:
            best = d
    return best


def candidate_filter_reference(w_max: int, c_max: int) -> dict:
    """Slow reference for ``candidate_filter``: classify every grid pair, in
    (w, a) order, and keep the ones not excluded."""
    out = {}
    for w in range(1, w_max + 1):
        for a in range(2, c_max + 1):
            tag = classify_pair(w, a)
            if tag is not CaseTag.EXCLUDED:
                out[(w, a)] = tag
    return out


def traceable_exact_reference(
    scheme: KeyScheme, c: int, budget: int = DEFAULT_STEP_BUDGET
) -> TAVerdict:
    """Slow reference for ``is_traceable_exact``: trace every k-subset
    pirate of every coalition's key union, coalitions ascending in size and
    lexicographic within, pirates in lexicographic order, under a budget on
    the number of traced (pirate, decoder) overlaps."""
    if c < 1:
        raise DomainError("coalition bound c must be >= 1")
    n, k, l = scheme.n, scheme.k, scheme.l
    top = min(c, n)
    estimate = sum(
        comb(n, j) * comb(min(j * k, l), k) * n for j in range(1, top + 1)
    )
    if estimate > budget:
        raise BudgetExceededError(
            f"exact verification needs ~{estimate} steps, budget is {budget}"
        )
    for size in range(1, top + 1):
        for coalition in itertools.combinations(range(n), size):
            union = sorted(frozenset().union(*(scheme.decoders[i] for i in coalition)))
            for pirate in itertools.combinations(union, k):
                outsider = _trace_violation(scheme, coalition, pirate)
                if outsider is not None:
                    return TAVerdict(
                        Certainty.false(),
                        TAWitness(coalition, pirate, outsider),
                        detail="exhaustive search found a tracing violation",
                    )
    return TAVerdict(Certainty.true(), detail="exhaustive search found no violation")


def planted_overlap_scheme(rng: random.Random, l: int, n: int, k: int) -> KeyScheme:
    """Random k-subsets plus one decoder assembled from two others' keys, so
    that pair of decoders can build a pirate that frames it."""
    while True:
        decoders = set()
        while len(decoders) < n - 1:
            decoders.add(tuple(sorted(rng.sample(range(l), k))))
        decoders = sorted(decoders)
        a, b = rng.sample(decoders, 2)
        planted = tuple(sorted(rng.sample(sorted(set(a) | set(b)), k)))
        if planted not in decoders:
            decoders.insert(rng.randrange(n), planted)
            return KeyScheme(l, tuple(frozenset(d) for d in decoders))
