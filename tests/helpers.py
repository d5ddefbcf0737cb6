"""Shared test utilities: independent oracles and seeded generators.

The oracles here deliberately avoid the library's own algorithms: the log2
oracle extracts binary digits by exact rational squaring (long division of
the exponent), the atanh reference carries both of the series kernel's
tracks at full width where the library carries the upper one as a small
excess, the binomial oracle uses the Pascal recurrence, and the
frame-proof oracles decide position by position on feasible patterns or
by full feasible-set enumeration instead of the library's integer mask
tests.  The minimum-distance and candidate-filter
references are the symbol-by-symbol loop and the full grid enumeration that
the library's packed-word and closed-form versions replaced, and the exact
traceability reference enumerates every pirate instead of searching count
vectors per (coalition, outsider) pair.  The pack reference tries every
count vector that the pair search's pruned fill would cut.  The structural
reference intersects every pair of decoders instead of folding the key
masks once.  The sampling reference traces every drawn pirate instead of only
those a rival can tie, and both find the violating outsider by scanning
:func:`trace`'s argmax themselves.  The sigma reference encloses the square
root of the radical side by an integer-root bracket and compares it by
certified enclosures, where the library decides that side in exact
rationals.  The case-analysis and collapse references
certify every grid point that the library's base points and monotonicity
lemmas stand for.  The scan reference sends every window, excluded ones
included, through the enclosure path that the library's integer bracket
skips.  The rejected bound variant lives here because only its
test uses it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb, isqrt, prod
from typing import Iterable, Optional, Sequence, Tuple

from fptrace.fpcode import (
    Code,
    FeasibleDefinition,
    FrameproofVerdict,
    FrameWitness,
)
from fptrace.paramscan import (
    FINITE_PAIRS,
    MIN_SCAN_C,
    CaseCoalitionTwo,
    CaseFinitePairs,
    CasesReport,
    CaseTag,
    CaseUnitWeight,
    CaseWeightTwo,
    CandidateWindow,
    CollapseReport,
    ScanMode,
    ScanReport,
    classify_pair,
    delta_window,
    delta_window_for_length,
    entropy_log_bound_check,
    f_value,
    scan_infeasibility,
    unit_weight_bound,
    weight_log_cap,
    weight_two_margin,
    window_lower,
    window_upper,
)
from fptrace.rigor import (
    DEFAULT_PRECISION_BITS,
    DEFAULT_STEP_BUDGET,
    BudgetExceededError,
    Certainty,
    DomainError,
    Enclosure,
    certainty_all,
    certify_less,
    log2_enclosure,
)
from fptrace.tascheme import (
    KeyScheme,
    TAVerdict,
    TAWitness,
    trace,
)

ENUMERATION_LIMIT = 1 << 20


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


def atanh_two_track_reference(z: Fraction, w: int) -> Tuple[int, int]:
    """The directed-rounding atanh series with both tracks at full width:
    each term makes two wide products, and rounds the upper one up by a wide
    division.  Same contract, roundings and stop rule as
    :func:`fptrace.rigor._atanh_dyadic`, whose results must equal these.
    """
    z_lo = (z.numerator << w) // z.denominator
    z_hi = -(-(z.numerator << w) // z.denominator)
    zz_lo = (z_lo * z_lo) >> w
    zz_hi = -(-(z_hi * z_hi) // (1 << w))
    p_lo, p_hi = z_lo, z_hi
    s_lo = s_hi = 0
    k = 0
    while True:
        d = 2 * k + 1
        s_lo += p_lo // d
        s_hi += -(-p_hi // d)
        p_lo = (p_lo * zz_lo) >> w
        p_hi = -(-(p_hi * zz_hi) // (1 << w))
        k += 1
        if 2 * p_hi < 2 * k + 1:
            s_hi += 1
            break
    return s_lo, s_hi


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


@dataclass(frozen=True)
class FeasiblePattern:
    """Per-position symbol constraints describing a coalition's feasible set."""

    allowed: Tuple[frozenset, ...]
    s: int
    definition: FeasibleDefinition

    @property
    def length(self) -> int:
        return len(self.allowed)

    def is_fixed(self, position: int) -> bool:
        return len(self.allowed[position]) == 1

    def size(self) -> int:
        """Number of words in the feasible set."""
        return prod(len(a) for a in self.allowed)

    def constraint_str(self) -> str:
        """Fixed symbol per position, '*' where more than one symbol fits."""
        return "".join(
            "0123456789abcdef"[next(iter(a))] if len(a) == 1 else "*" for a in self.allowed
        )


def _coalition_indices(code: Code, coalition: Iterable[int]) -> Tuple[int, ...]:
    idxs = tuple(sorted(set(coalition)))
    if not idxs:
        raise DomainError("coalition must be nonempty")
    if idxs[0] < 0 or idxs[-1] >= code.n:
        raise DomainError(f"coalition indices must lie in [0, {code.n - 1}]")
    return idxs


def feasible_pattern(
    code: Code,
    coalition: Iterable[int],
    definition: FeasibleDefinition = FeasibleDefinition.UNANIMITY,
) -> FeasiblePattern:
    """Constraint record for the words a coalition can assemble: the
    symbols each position may take under ``definition``."""
    idxs = _coalition_indices(code, coalition)
    rows = [code.codewords[i] for i in idxs]
    full = frozenset(range(code.s))
    allowed = []
    for position in range(code.length):
        seen = frozenset(row[position] for row in rows)
        if definition is FeasibleDefinition.UNANIMITY and len(seen) > 1:
            allowed.append(full)
        else:
            allowed.append(seen)
    return FeasiblePattern(tuple(allowed), code.s, definition)


def feasible_contains(pattern: FeasiblePattern, word: Sequence[int]) -> bool:
    """Whether a word satisfies every per-position constraint."""
    if len(word) != pattern.length:
        raise DomainError(
            f"word length {len(word)} does not match pattern length {pattern.length}"
        )
    return all(sym in allowed for sym, allowed in zip(word, pattern.allowed))


def enumerate_feasible(
    code: Code,
    coalition: Iterable[int],
    definition: FeasibleDefinition = FeasibleDefinition.UNANIMITY,
    limit: int = ENUMERATION_LIMIT,
) -> set:
    """The full feasible set, as a set of words.  Brute-force oracle for
    :func:`feasible_contains`; guarded by ``limit`` on the set size."""
    pattern = feasible_pattern(code, coalition, definition)
    total = pattern.size()
    if total > limit:
        raise BudgetExceededError(f"feasible set has {total} words, limit is {limit}")
    choices = [sorted(a) for a in pattern.allowed]
    return set(itertools.product(*choices))


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
    The budget counts the pair tests of coalitions of two or more, size by
    size, up to the first size that passes it."""
    if c < 1:
        raise DomainError("coalition bound c must be >= 1")
    n = code.n
    top = min(c, n)
    cost = 0
    for j in range(2, top + 1):
        cost += comb(n, j) * (n - j)
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


def outside_argmax(scheme: KeyScheme, coalition: Tuple[int, ...], pirate) -> Optional[int]:
    """Smallest decoder outside the coalition that attains the pirate's
    maximum overlap, if any."""
    for i in trace(scheme, pirate).argmax_decoders:
        if i not in coalition:
            return i
    return None


def pack_reference(classes, caps: Tuple[int, ...], want: int) -> bool:
    """Slow reference for ``_PairSearch._pack``: whether some count vector,
    at most ``size`` keys from each (member positions, size) class, sums to
    ``want`` with member position p in at most ``caps[p]`` chosen keys."""
    for counts in itertools.product(*(range(size + 1) for _, size in classes)):
        if sum(counts) == want and all(
            sum(x for (sig, _), x in zip(classes, counts) if p in sig) <= cap
            for p, cap in enumerate(caps)
        ):
            return True
    return False


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
                outsider = outside_argmax(scheme, coalition, pirate)
                if outsider is not None:
                    return TAVerdict(
                        Certainty.false(),
                        TAWitness(coalition, pirate, outsider),
                        detail="exhaustive search found a tracing violation",
                    )
    return TAVerdict(Certainty.true(), detail="exhaustive search found no violation")


def structural_disjoint_reference(scheme: KeyScheme, c: int) -> TAVerdict:
    """Slow reference for ``is_traceable_structural_disjoint``: intersect
    every pair of decoders, in lexicographic order, and refuse at the first
    pair that shares a key."""
    if c < 1:
        raise DomainError("coalition bound c must be >= 1")
    for i, j in itertools.combinations(range(scheme.n), 2):
        shared = scheme.decoders[i] & scheme.decoders[j]
        if shared:
            raise DomainError(
                f"decoders {i} and {j} share key {min(shared)}; "
                "the structural argument needs pairwise-disjoint decoders"
            )
    return TAVerdict(
        Certainty.true(),
        detail="pairwise-disjoint decoders: outsiders overlap 0, "
        "some member overlaps >= ceil(k/c) >= 1",
    )


def sample_traceability_reference(
    scheme: KeyScheme, c: int, trials: int, seed: int
) -> TAVerdict:
    """Slow reference for ``sample_traceability``: the same draws in the same
    order, but every trial traces its pirate against every decoder, and
    every trial is drawn."""
    if c < 1:
        raise DomainError("coalition bound c must be >= 1")
    if trials < 0:
        raise DomainError("trials must be nonnegative")
    n, k = scheme.n, scheme.k
    top = min(c, n)
    if trials == 0 or top < 2:
        return TAVerdict(
            Certainty.unresolved(), detail="0 violations in 0 effective trials"
        )
    rng = random.Random(seed)
    union_cache: dict = {}
    for t in range(trials):
        size = rng.randint(2, top)
        coalition = tuple(sorted(rng.sample(range(n), size)))
        union = union_cache.get(coalition)
        if union is None:
            union = sorted(frozenset().union(*(scheme.decoders[i] for i in coalition)))
            union_cache[coalition] = union
        pirate = tuple(sorted(rng.sample(union, k)))
        outsider = outside_argmax(scheme, coalition, pirate)
        if outsider is not None:
            return TAVerdict(
                Certainty.false(),
                TAWitness(coalition, pirate, outsider),
                detail=f"violation at trial {t} of {trials} (seed {seed})",
            )
    return TAVerdict(
        Certainty.unresolved(),
        detail=f"0 violations in {trials} trials (seed {seed})",
    )


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


def rejected_upper_bound_variant(l: int, c: int, s: int = 2) -> int:
    """Reference only: the variant bound s^ceil(l/c) + 2c - 2.

    Recorded because it circulates alongside the bound used here, but it is
    not sound for c-frame-proof codes, so no contradiction logic consumes it.
    """
    return s ** (-(-l // c)) + 2 * c - 2


def verify_cases_grid_reference(
    c_probe_max: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> CasesReport:
    """Slow reference for ``verify_cases``: certify each family at every
    grid point a (or w) in [2, c_probe_max], with pairwise decreasing checks
    in place of the monotonicity lemmas."""
    if c_probe_max < MIN_SCAN_C:
        raise DomainError(f"case analysis needs c_probe_max >= {MIN_SCAN_C}")
    grid = range(2, c_probe_max + 1)

    # (a) unit weight
    upper_certs = [
        certify_less(
            lambda bits, a=a: window_upper(1, a, bits),
            1,
            precision_bits,
        )
        for a in grid
    ]
    bound_certs = [
        certify_less(
            lambda bits, a=a: unit_weight_bound(a, bits),
            1,
            precision_bits,
        )
        for a in grid
    ]
    decreasing_certs = [
        certify_less(
            lambda bits, a=a: unit_weight_bound(a + 1, bits),
            lambda bits, a=a: unit_weight_bound(a, bits),
            precision_bits,
        )
        for a in range(2, c_probe_max)
    ]
    case_a = CaseUnitWeight(
        probe_max=c_probe_max,
        windows_upper_lt_1=certainty_all(*upper_certs),
        analytic_bound_lt_1=certainty_all(*bound_certs),
        analytic_bound_decreasing=certainty_all(*decreasing_certs),
    )

    # (b) weight two
    signs = {
        a: certify_less(
            0,
            lambda bits, a=a: weight_two_margin(a, bits),
            precision_bits,
        )
        for a in grid
    }
    positive_as = [a for a, sign in signs.items() if sign.is_true]
    sign_coverage = [
        Certainty.true() if not sign.is_unresolved else sign for sign in signs.values()
    ]
    sign_19 = certify_less(
        lambda bits: weight_two_margin(19, bits),
        0,
        precision_bits,
    )
    windows_b = [
        delta_window(2, a, precision_bits).integer_exists for a in grid
    ]
    empties = [
        Certainty.true() if c.is_false else Certainty.false() if c.is_true else c
        for c in windows_b
    ]
    uppers_b = [
        certify_less(
            lambda bits, a=a: window_upper(2, a, bits),
            1,
            precision_bits,
        )
        for a in range(2, min(18, c_probe_max) + 1)
    ]
    case_b = CaseWeightTwo(
        probe_max=c_probe_max,
        positive_as=tuple(positive_as),
        signs_resolved=certainty_all(*sign_coverage),
        sign_change_at_19=certainty_all(signs[18], sign_19),
        margin_at_18=weight_two_margin(18, precision_bits),
        margin_at_19=weight_two_margin(19, precision_bits),
        windows_empty=certainty_all(*empties),
        uppers_lt_1_through_18=certainty_all(*uppers_b),
        lowers_lt_1=all(window_lower(2, a) < 1 for a in grid),
    )

    # (c) coalition parameter two
    positive_ws = []
    for w in range(2, c_probe_max + 1):
        sign = certify_less(
            0,
            lambda bits, w=w: f_value(w, 2, bits),
            precision_bits,
        )
        if sign.is_true:
            positive_ws.append(w)
    uppers_c = [
        certify_less(
            lambda bits, w=w: window_upper(w, 2, bits),
            1,
            precision_bits,
        )
        for w in positive_ws
    ]
    f_decr = [
        certify_less(
            lambda bits, w=w: f_value(w + 1, 2, bits),
            lambda bits, w=w: f_value(w, 2, bits),
            precision_bits,
        )
        for w in range(2, c_probe_max)
    ]
    case_c = CaseCoalitionTwo(
        probe_max=c_probe_max,
        positive_ws=tuple(positive_ws),
        f_at_positive=tuple((w, f_value(w, 2, precision_bits)) for w in positive_ws),
        uppers_lt_1_on_positive=certainty_all(*uppers_c),
        f_decreasing=certainty_all(*f_decr),
    )

    # (d) finite pairs
    neg_certs = [
        certify_less(
            lambda bits, w=w, a=a: f_value(w, a, bits),
            0,
            precision_bits,
        )
        for w, a in FINITE_PAIRS
    ]
    case_d = CaseFinitePairs(pairs=FINITE_PAIRS, f_negative=certainty_all(*neg_certs))

    return CasesReport(case_a, case_b, case_c, case_d)


def sqrt_bracket(x: Fraction, bits: int) -> Enclosure:
    """[r, r + 1] / 2^bits with r = floor(sqrt(x * 4^bits)), which is
    isqrt(floor(x * 4^bits))."""
    r = isqrt((x.numerator << (2 * bits)) // x.denominator)
    return Enclosure(Fraction(r, 1 << bits), Fraction(r + 1, 1 << bits))


def sigma_constraint_reference(
    l: int, sigma: Fraction, precision_bits: int = DEFAULT_PRECISION_BITS
) -> Certainty:
    """Slow reference for ``sigma_constraint``: both halves by certified
    enclosure comparisons, the radical side through :func:`sqrt_bracket`,
    so a tie on that side stays Unresolved."""
    first = certify_less(
        lambda bits: log2_enclosure(l, bits),
        sigma * l,
        precision_bits,
    )
    second = certify_less(
        lambda bits: (sqrt_bracket(169 + 48 * sigma, bits) + 13) / (12 * sigma),
        l,
        precision_bits,
    )
    return certainty_all(first, second)


def collapse_probe_grid() -> Tuple[int, ...]:
    """Every a in [2, 256], then steps of 9/8 up to 2^16: 303 points."""
    grid = list(range(2, 257))
    v = 256
    while v < 1 << 16:
        v = min(v * 9 // 8, 1 << 16)
        grid.append(v)
    return tuple(grid)


def collapse_grid_reference(
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> CollapseReport:
    """Slow reference for ``theorem10_statement_collapse``: certify the cap
    and the entropy cap at every one of the 303 probe points."""
    probe = collapse_probe_grid()
    rhs_certs = [
        certify_less(
            lambda bits, a=a: weight_log_cap(a, bits),
            0,
            precision_bits,
        )
        for a in probe
    ]
    entropy_certs = [entropy_log_bound_check(a, precision_bits) for a in probe]
    return CollapseReport(
        precision_bits=precision_bits,
        rhs_negative=certainty_all(*rhs_certs),
        rhs_at_2=weight_log_cap(2, precision_bits),
        rhs_at_3=weight_log_cap(3, precision_bits),
        entropy_bound=certainty_all(*entropy_certs),
        monotone_note=(
            "the cap (log2 e - 1 - log2 a)/2 is strictly decreasing in a "
            "because log2 is strictly increasing, so its certified "
            "negativity at a = 2 extends to every a >= 2"
        ),
    )


def scan_reference(
    w_max: int, c_max: int, mode: ScanMode, precision_bits: int = DEFAULT_PRECISION_BITS
) -> ScanReport:
    """Slow reference for ``scan_infeasibility``'s window loop: every window
    goes through ``delta_window_for_length``, with no integer bracket.  The
    fields outside the loop (cases, exhibits, premises, notes) are the
    library report's."""
    report = scan_infeasibility(w_max, c_max, mode, precision_bits)
    if mode is ScanMode.THM10:
        tags = candidate_filter_reference(w_max, c_max)
        rows = [(w, a, a, tags[w, a]) for w, a in sorted(tags, key=lambda p: (p[1], p[0]))]
        readings = (("direct", 1),)
    else:
        rows = [
            (w, c * c, c, classify_pair(w, c * c))
            for c in range(2, isqrt(c_max) + 1)
            for w in range(1, w_max + 1)
        ]
        readings = (("direct", 1), ("half_length", Fraction(1, 2)))
    candidates, unresolved, feasible = [], [], False
    for w, a, c, tag in rows:
        for reading, scale in readings:
            win = delta_window_for_length(w, a, scale * w * a, precision_bits)
            if tag is not CaseTag.EXCLUDED:
                candidates.append(CandidateWindow(w, a, c, reading, tag, win))
            feasible |= win.integer_exists.is_true
            if win.integer_exists.is_unresolved:
                unresolved.append((w, a))
    premises = (
        (report.cases is None or report.cases.all_certified)
        and report.entropy_bound_on_grid.is_true
        and report.log2e_below_2.is_true
    )
    if feasible:
        verdict = Certainty.false()
    elif unresolved or not premises:
        verdict = Certainty.unresolved(precision_bits)
    else:
        verdict = Certainty.true()
    return replace(
        report,
        candidates=tuple(candidates),
        windows_checked=len(rows) * len(readings),
        unresolved=tuple(unresolved),
        verdict=verdict,
    )
