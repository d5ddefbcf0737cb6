"""Feasible sets, frame-proof verification, and the text format."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fptrace import fpcode, rigor
from fptrace.fpcode import (
    MAX_ALPHABET,
    BudgetExceededError,
    Code,
    CodeFormatError,
    FeasibleDefinition,
    FrameproofVerdict,
    FrameWitness,
    construct_identity_concat,
    format_code,
    is_frameproof,
    min_distance,
    parse_code,
    weight_set,
)
from fptrace.rigor import DomainError

from tests.helpers import (
    enumerate_feasible,
    feasible_contains,
    feasible_pattern,
    frameproof_by_enumeration,
    frameproof_reference,
    min_distance_reference,
    random_code,
)

UNA = FeasibleDefinition.UNANIMITY
CRD = FeasibleDefinition.COORDINATE_SET


# ---------------------------------------------------------------------------
# patterns and membership
# ---------------------------------------------------------------------------


def test_pattern_unanimity_example():
    code = parse_code("0011\n0110")
    pat = feasible_pattern(code, [0, 1], UNA)
    assert pat.allowed == (
        frozenset({0}),
        frozenset({0, 1}),
        frozenset({1}),
        frozenset({0, 1}),
    )
    assert pat.constraint_str() == "0*1*"
    assert [pat.is_fixed(i) for i in range(4)] == [True, False, True, False]


def test_pattern_singleton_admits_exactly_parent():
    code = parse_code("0011\n0110")
    for definition in (UNA, CRD):
        assert enumerate_feasible(code, [0], definition) == {(0, 0, 1, 1)}


def test_pattern_complementary_words_free_everything():
    code = parse_code("0011\n1100")
    pat = feasible_pattern(code, [0, 1], CRD)
    assert all(a == frozenset({0, 1}) for a in pat.allowed)
    assert len(enumerate_feasible(code, [0, 1], CRD)) == 16


def test_feasible_contains_examples():
    code = parse_code("0011\n0110")
    pat = feasible_pattern(code, [0, 1], UNA)
    assert not feasible_contains(pat, (1, 1, 0, 0))  # position 0 pinned to 0
    both = parse_code("0011\n1100")
    assert feasible_contains(feasible_pattern(both, [0, 1], UNA), (0, 1, 1, 0))
    # parents are always feasible
    for definition in (UNA, CRD):
        for idx, word in enumerate(code.codewords):
            assert feasible_contains(feasible_pattern(code, [0, 1], definition), word) or idx not in (0, 1)


def test_feasible_contains_length_mismatch():
    code = parse_code("0011\n0110")
    pat = feasible_pattern(code, [0, 1], UNA)
    with pytest.raises(DomainError):
        feasible_contains(pat, (0, 1))


def test_enumerate_matches_membership_exactly():
    code = parse_code("0011\n0110")
    feas = enumerate_feasible(code, [0, 1], UNA)
    assert feas == {(0, 0, 1, 1), (0, 0, 1, 0), (0, 1, 1, 1), (0, 1, 1, 0)}
    pat = feasible_pattern(code, [0, 1], UNA)
    for word in itertools.product((0, 1), repeat=4):
        assert (word in feas) == feasible_contains(pat, word)


def test_empty_coalition_rejected():
    code = parse_code("01\n10")
    with pytest.raises(DomainError):
        feasible_pattern(code, [], UNA)
    with pytest.raises(DomainError):
        feasible_pattern(code, [5], UNA)


def test_enumeration_size_guard():
    rows = ["0" * 30, "1" * 30]
    code = parse_code("\n".join(rows))
    with pytest.raises(BudgetExceededError):
        enumerate_feasible(code, [0, 1], UNA)


# ---------------------------------------------------------------------------
# frame-proof verdicts
# ---------------------------------------------------------------------------


def framed_by_all_others(code, definition):
    """The outsiders that the coalition of all other users frames, by the
    symbol-by-symbol reference."""
    return [
        x
        for x, word in enumerate(code.codewords)
        if feasible_contains(
            feasible_pattern(code, [i for i in range(code.n) if i != x], definition), word
        )
    ]


def live_outsiders(code, definition):
    """The outsiders that ``is_frameproof``'s pre-pass leaves to the walk."""
    keys, mask_of_folds = fpcode._mask_test(code, definition)
    return [x for x, _ in fpcode._live_outsiders(keys, mask_of_folds)]


def test_gamma64_is_2_frameproof():
    code = construct_identity_concat(3, ones=29, zeros=26, copies=3)
    assert code.n == 3 and code.length == 64
    assert weight_set(code) == {32}
    assert min_distance(code) == 6
    for definition in (UNA, CRD):
        assert is_frameproof(code, 2, definition).is_frameproof


def test_lemma3_code_not_frameproof_with_witness():
    code = parse_code("0011\n0110\n1100")
    verdict = is_frameproof(code, 2)
    assert not verdict.is_frameproof
    assert verdict.witness.coalition == (0, 2)
    assert verdict.witness.framed == 1


def test_c_equals_1_always_frameproof():
    rng = random.Random(11)
    for _ in range(50):
        code = random_code(rng)
        for definition in (UNA, CRD):
            assert is_frameproof(code, 1, definition).is_frameproof


def test_is_frameproof_budget_guard(monkeypatch):
    """An identity code has no live outsider, so the pre-pass alone would
    decide it, but the walk's pair tests, C(20, 2) * 18 = 3,420 at c = 2,
    are still counted and refused up front first."""
    code = construct_identity_concat(20, ones=0, zeros=0, copies=1)
    assert live_outsiders(code, UNA) == []
    monkeypatch.setattr(rigor, "DEFAULT_STEP_BUDGET", 100)
    with pytest.raises(BudgetExceededError):
        is_frameproof(code, 10, UNA)
    monkeypatch.setattr(rigor, "DEFAULT_STEP_BUDGET", 3419)
    with pytest.raises(
        BudgetExceededError, match=r"^exact verification needs ~3420 steps, budget is 3419$"
    ):
        is_frameproof(code, 2, UNA)
    monkeypatch.setattr(rigor, "DEFAULT_STEP_BUDGET", 3420)
    assert is_frameproof(code, 2, UNA) == FrameproofVerdict(True)


def test_budget_refusal_matches_reference(monkeypatch):
    """One step per (coalition, outsider) pair test: three pairs of three
    words, one outsider each."""
    code = parse_code("0011\n0110\n1100")
    message = "exact verification needs ~3 steps, budget is 2"
    monkeypatch.setattr(rigor, "DEFAULT_STEP_BUDGET", 2)
    for verify in (
        lambda: is_frameproof(code, 2, UNA),
        lambda: frameproof_reference(code, 2, UNA, budget=2),
    ):
        with pytest.raises(BudgetExceededError) as refused:
            verify()
        assert str(refused.value) == message
    monkeypatch.setattr(rigor, "DEFAULT_STEP_BUDGET", 3)
    assert is_frameproof(code, 2, UNA) == frameproof_reference(
        code, 2, UNA, budget=3
    )


def test_budget_refusal_stops_at_the_first_size_over_budget():
    """At c = n = 15000 the pairs alone, C(15000, 2) * 14998 pair tests,
    pass the budget, so the refusal names them and sums no larger size."""
    code = parse_code("\n".join(f"{i:014b}" for i in range(15000)))
    message = "exact verification needs ~1687162515000 steps, budget is 1000000000"
    for verify in (is_frameproof, frameproof_reference):
        with pytest.raises(BudgetExceededError) as refused:
            verify(code, 15000)
        assert str(refused.value) == message


def test_long_identity_code_fits_the_default_budget():
    """C(100, 2) * 98 = 485,100 pair tests, however long the words are."""
    code = construct_identity_concat(100, ones=1450, zeros=1450)
    assert code.length == 3000
    assert is_frameproof(code, 2).is_frameproof


@st.composite
def small_codes(draw):
    """Up to 9 distinct words of 1 to 6 positions over any alphabet the
    kernel takes, so that every packing width and n > l both occur."""
    s = draw(st.integers(2, MAX_ALPHABET))
    length = draw(st.integers(1, 6))
    word = st.tuples(*[st.integers(0, s - 1)] * length)
    words = draw(st.lists(word, min_size=1, max_size=9, unique=True))
    return Code(tuple(words), s)


@st.composite
def covered_codes(draw):
    """A word x, three words that each show x's symbol on one of three
    blocks of positions and another symbol everywhere else, and up to three
    random words, in a random order.  Under coordinate sets no two of the
    three frame x and all three do, so first witnesses of size 3 occur."""
    s = draw(st.integers(3, MAX_ALPHABET))
    length = draw(st.integers(3, 6))
    x = draw(st.tuples(*[st.integers(0, s - 1)] * length))
    cuts = draw(st.lists(st.integers(1, length - 1), min_size=2, max_size=2, unique=True))
    block = [sum(p >= cut for cut in cuts) for p in range(length)]
    shift = st.integers(1, s - 1)
    members = [
        tuple(x[p] if block[p] == m else (x[p] + draw(shift)) % s for p in range(length))
        for m in range(3)
    ]
    others = draw(st.lists(st.tuples(*[st.integers(0, s - 1)] * length), max_size=3))
    words = list(dict.fromkeys([x, *members, *others]))
    return Code(tuple(draw(st.permutations(words))), s)


def test_mask_kernel_matches_reference():
    """The mask tests give the reference's whole verdict, witness included,
    for every c and both definitions over alphabets of 2 to 16, and the
    codes drawn include alphabets of 11 or more (hex digits in the packing)
    and first witnesses of size 3 or more."""
    seen = set()

    @given(st.one_of(small_codes(), covered_codes()))
    @settings(max_examples=400, deadline=None)
    def check(code):
        seen.add(("s >= 11", code.s >= 11))
        for definition in (UNA, CRD):
            for c in range(1, code.n + 1):
                assert is_frameproof(code, c, definition) == frameproof_reference(
                    code, c, definition
                )
            witness = is_frameproof(code, code.n, definition).witness
            seen.add(("witness >= 3", witness is not None and len(witness.coalition) >= 3))

    check()
    assert {("s >= 11", True), ("witness >= 3", True)} <= seen


def test_pre_pass_and_walk_match_reference_with_private_positions():
    """Random words, then one private position for each word of a random
    subset (a nonzero symbol that every other word leaves 0), so that codes
    range from no safe outsider to all safe.  The pre-pass keeps exactly the
    outsiders that all others frame, and the verdict and witness are the
    reference's at every c, under both definitions, for s = 2, 3 and 4."""
    rng = random.Random(26)
    seen = set()
    for _ in range(240):
        s = rng.choice((2, 3, 4))
        code = random_code(rng, n_max=6, l_max=4, s=s)
        private = sorted(rng.sample(range(code.n), rng.randint(0, code.n)))
        rows = tuple(
            word + tuple(rng.randrange(1, s) if x == p else 0 for p in private)
            for x, word in enumerate(code.codewords)
        )
        code = Code(rows, s)
        for definition in (UNA, CRD):
            live = live_outsiders(code, definition)
            assert live == framed_by_all_others(code, definition)
            seen.add((definition, min(len(live), 1) + (len(live) == code.n)))
            for c in range(1, code.n + 1):
                assert is_frameproof(code, c, definition) == frameproof_reference(
                    code, c, definition
                )
    assert len(seen) == 6  # all safe, some safe and none safe, per definition


def test_outsider_framed_only_by_all_others_goes_to_the_walk():
    """Under either definition, the other three words disagree on every
    position, so each weight-one word is framed by them, but each pair of
    them pins a position where it differs; 1111 has a private last position.
    At c = 2 the walk tests the three live outsiders and finds none framed;
    at c = 3 the first witness has size 3."""
    code = parse_code("1000\n0100\n0010\n1111")
    for definition in (UNA, CRD):
        assert live_outsiders(code, definition) == [0, 1, 2]
        assert is_frameproof(code, 2, definition) == FrameproofVerdict(True)
        assert is_frameproof(code, 3, definition) == FrameproofVerdict(
            False, FrameWitness((0, 1, 3), 2)
        )
        assert is_frameproof(code, 3, definition) == frameproof_reference(code, 3, definition)


def test_pre_pass_keeps_unanimity_and_coordinate_sets_apart():
    """In 00/11/22 every word is framed by the other two under unanimity,
    so the walk runs and finds a witness; under coordinate sets no word's
    symbols appear in the others, so the pre-pass alone decides."""
    code = parse_code("00\n11\n22")
    assert live_outsiders(code, UNA) == [0, 1, 2]
    assert is_frameproof(code, 2, UNA) == FrameproofVerdict(False, FrameWitness((0, 1), 2))
    assert live_outsiders(code, CRD) == []
    assert is_frameproof(code, 2, CRD) == FrameproofVerdict(True)


def frameproof_by_cover(code, c):
    """Unanimity verdict, in the reference's order, as a cover question on
    complemented one-hot sets: a word's set holds the (position, symbol)
    pairs it does not show, and a coalition frames x exactly when x's set
    lies inside the union of the members' sets.  At a position where the
    members agree on a, their union misses only (position, a), so x's set
    fits there iff x shows a; elsewhere the union is the whole alphabet."""
    sets = [
        {(p, a) for p, sym in enumerate(word) for a in range(code.s) if a != sym}
        for word in code.codewords
    ]
    for size in range(1, min(c, code.n) + 1):
        for coalition in itertools.combinations(range(code.n), size):
            union = set().union(*(sets[i] for i in coalition))
            for x in range(code.n):
                if x not in coalition and sets[x] <= union:
                    return FrameproofVerdict(False, FrameWitness(coalition, x))
    return FrameproofVerdict(True)


@given(st.one_of(small_codes(), covered_codes()))
@settings(max_examples=200, deadline=None)
def test_unanimity_is_a_cover_of_complemented_one_hot_sets(code):
    for c in range(1, code.n + 1):
        assert frameproof_by_cover(code, c) == frameproof_reference(code, c, UNA)


@st.composite
def relabelled_codes(draw):
    """A small code, and the same code with its positions permuted and its
    symbols relabelled position by position."""
    code = draw(small_codes())
    order = draw(st.permutations(range(code.length)))
    relabel = [draw(st.permutations(range(code.s))) for _ in range(code.length)]
    rows = tuple(tuple(relabel[p][word[p]] for p in order) for word in code.codewords)
    return code, Code(rows, code.s)


@given(relabelled_codes())
@settings(max_examples=200, deadline=None)
def test_relabelling_positions_and_symbols_keeps_verdict_and_witness(pair):
    code, relabelled = pair
    for c in range(1, code.n + 1):
        for definition in (UNA, CRD):
            assert is_frameproof(relabelled, c, definition) == is_frameproof(code, c, definition)


@given(small_codes())
@settings(max_examples=200, deadline=None)
def test_first_witness_size_fixes_the_verdict_in_c(code):
    """A first witness of size j is the verdict and witness at every
    c' >= j, and the code is frame-proof at c' = j - 1."""
    for definition in (UNA, CRD):
        verdict = is_frameproof(code, code.n, definition)
        if verdict.is_frameproof:
            assert all(is_frameproof(code, c, definition) == verdict for c in range(1, code.n))
            continue
        j = len(verdict.witness.coalition)
        for c in range(j, code.n + 2):
            assert is_frameproof(code, c, definition) == verdict
        assert is_frameproof(code, j - 1, definition) == FrameproofVerdict(True)


@given(small_codes())
@settings(max_examples=200, deadline=None)
def test_unanimity_frameproof_implies_coordinate_set_frameproof(code):
    for c in range(1, code.n + 1):
        if is_frameproof(code, c, UNA).is_frameproof:
            assert is_frameproof(code, c, CRD).is_frameproof


@given(small_codes(), st.data())
@settings(max_examples=200, deadline=None)
def test_sub_codes_of_a_frameproof_code_are_frameproof(code, data):
    """A sub-code's coalitions and outsiders are the code's, so it stays
    frame-proof at every c, under both definitions."""
    kept = sorted(data.draw(st.sets(st.sampled_from(range(code.n)), min_size=1)))
    sub = Code(tuple(code.codewords[i] for i in kept), code.s)
    for c in range(1, code.n + 1):
        for definition in (UNA, CRD):
            if is_frameproof(code, c, definition).is_frameproof:
                assert is_frameproof(sub, c, definition).is_frameproof


@given(small_codes().filter(lambda code: code.n >= 2))
@settings(max_examples=400, deadline=None)
def test_min_distance_matches_reference(code):
    """The popcount of packed-word XORs, halved on one-hot words, is the
    symbol-by-symbol minimum distance over alphabets of 2 to 16."""
    assert min_distance(code) == min_distance_reference(code)


def test_is_frameproof_rejects_bad_c():
    code = parse_code("01\n10")
    with pytest.raises(DomainError):
        is_frameproof(code, 0)


# ---------------------------------------------------------------------------
# construction, distance, weights
# ---------------------------------------------------------------------------


def test_identity_concat_examples():
    assert construct_identity_concat(2, 0, 0, 1).codewords == ((1, 0), (0, 1))
    code = construct_identity_concat(3, 0, 1, 1)
    assert code.codewords == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    with pytest.raises(DomainError):
        construct_identity_concat(1, 0, 0, 1)


def test_min_distance_and_weights():
    assert min_distance(parse_code("00\n11")) == 2
    g = parse_code("0011\n0110\n1100")
    assert min_distance(g) == 2
    assert weight_set(g) == {2}
    with pytest.raises(DomainError):
        min_distance(parse_code("01"))


def test_min_distance_over_budget_is_refused_up_front(monkeypatch):
    """One step per pair of codewords: 40 words take C(40, 2) = 780 steps."""
    code = parse_code("".join(f"{i:06b}\n" for i in range(40)))
    monkeypatch.setattr(rigor, "DEFAULT_STEP_BUDGET", 780)
    assert min_distance(code) == 1
    monkeypatch.setattr(rigor, "DEFAULT_STEP_BUDGET", 779)
    with pytest.raises(
        BudgetExceededError, match=r"^minimum distance needs ~780 steps, budget is 779$"
    ):
        min_distance(code)


# ---------------------------------------------------------------------------
# invariants over a seeded random sample
# ---------------------------------------------------------------------------


def test_oracle_and_definition_equivalence_sample():
    """Membership-based verdicts match full enumeration, and the two
    feasibility definitions agree on binary codes, over 1000 seeded codes."""
    rng = random.Random(1)
    for _ in range(1000):
        code = random_code(rng, n_max=4, l_max=8, s=2)
        for c in range(1, code.n + 1):
            via_membership_u = is_frameproof(code, c, UNA).is_frameproof
            via_membership_c = is_frameproof(code, c, CRD).is_frameproof
            via_enum_u = frameproof_by_enumeration(code, c, UNA)
            assert via_membership_u == via_enum_u
            assert via_membership_u == via_membership_c
            if c == 2:
                assert via_membership_c == frameproof_by_enumeration(code, c, CRD)


def test_monotonicity_in_c():
    rng = random.Random(2)
    for _ in range(200):
        code = random_code(rng)
        broken_at = None
        for c in range(1, code.n + 1):
            ok = is_frameproof(code, c).is_frameproof
            if broken_at is not None:
                assert not ok
            elif not ok:
                broken_at = c


def test_subcode_closure():
    rng = random.Random(3)
    kept = 0
    while kept < 60:
        code = random_code(rng)
        if code.n < 3 or not is_frameproof(code, 2).is_frameproof:
            continue
        kept += 1
        for size in range(2, code.n):
            for subset in itertools.combinations(range(code.n), size):
                sub = Code(tuple(code.codewords[i] for i in subset), code.s)
                assert is_frameproof(sub, 2).is_frameproof


def test_unanimity_contains_coordinate_set():
    rng = random.Random(4)
    for _ in range(100):
        code = random_code(rng, n_max=3, l_max=5, s=3)
        for size in range(1, code.n + 1):
            for coalition in itertools.combinations(range(code.n), size):
                una = enumerate_feasible(code, coalition, UNA)
                crd = enumerate_feasible(code, coalition, CRD)
                assert crd <= una
    # at s = 2 the two sets coincide entirely
    for _ in range(100):
        code = random_code(rng, n_max=3, l_max=5, s=2)
        for coalition in itertools.combinations(range(code.n), 2):
            assert enumerate_feasible(code, coalition, UNA) == enumerate_feasible(
                code, coalition, CRD
            )


def test_definitions_diverge_beyond_binary():
    """Over a ternary alphabet the verdicts can differ: {00, 11, 22} frames
    under unanimity (disagreeing positions free every symbol) but not under
    coordinate sets (the third symbol never appears in the coalition)."""
    code = parse_code("00\n11\n22")
    assert not is_frameproof(code, 2, UNA).is_frameproof
    assert is_frameproof(code, 2, CRD).is_frameproof


@given(st.integers(2, 4), st.integers(0, 6), st.integers(0, 6), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_identity_concat_shape_properties(m, ones, zeros, copies):
    code = construct_identity_concat(m, ones, zeros, copies)
    assert code.n == m
    assert code.length == copies * m + ones + zeros
    assert weight_set(code) == {copies + ones}
    if m >= 2:
        assert min_distance(code) == 2 * copies


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def test_parse_format_roundtrip():
    code = parse_code("0011\n0110\n1100")
    assert parse_code(format_code(code)) == code
    gamma = construct_identity_concat(3, 29, 26, 3)
    assert parse_code(format_code(gamma)) == gamma
    hexa = Code(((10, 11, 12, 13, 14, 15), (15, 14, 13, 12, 11, 10), (0, 1, 2, 9, 10, 15)), 16)
    assert format_code(hexa).splitlines()[1:] == ["abcdef", "fedcba", "0129af"]
    assert parse_code(format_code(hexa)) == hexa


def test_digit_table_packs_each_symbol_at_its_place_value():
    """For every alphabet, a word that shows each symbol in both orders
    packs to sum(sym * 2**(b*i)) with b = (s-1).bit_length(), computed
    without the table; binary words do so under either definition."""
    for s in range(2, MAX_ALPHABET + 1):
        b = (s - 1).bit_length()
        word = tuple(range(s)) + tuple(reversed(range(s)))
        for definition in (UNA, CRD) if s == 2 else (UNA,):
            keys, _ = fpcode._mask_test(Code((word,), s), definition)
            assert keys == [sum(sym * 2 ** (b * i) for i, sym in enumerate(word))]


def test_parse_comments_and_blanks():
    text = "# header\n\n0011  # trailing comment\n0110\n"
    code = parse_code(text)
    assert code.n == 2 and code.length == 4


def test_parse_errors_carry_line_numbers():
    with pytest.raises(CodeFormatError, match="line 3"):
        parse_code("0011\n0110\n01\n")
    with pytest.raises(CodeFormatError, match="line 2"):
        parse_code("01\n0x\n")
    with pytest.raises(CodeFormatError):
        parse_code("# nothing\n")
    with pytest.raises(CodeFormatError):
        parse_code("01\n01\n")  # duplicate codewords


def test_parse_reads_hex_digits_in_either_case_and_nothing_else():
    assert parse_code("A0\n0a\nfF") == Code(((10, 0), (0, 10), (15, 15)), 16)
    for text, message in (
        ("01\n1٣\n", "line 2: invalid symbol '٣'"),  # ARABIC-INDIC DIGIT THREE
        ("0 1\n", "line 1: invalid symbol ' '"),
        ("0g1\n", "line 1: invalid symbol 'g'"),
        ("01\n1x0y\n", "line 2: invalid symbol 'x'"),
    ):
        with pytest.raises(CodeFormatError) as refused:
            parse_code(text)
        assert str(refused.value) == message


@given(
    st.one_of(
        st.text(),
        st.text(alphabet="0123456789abcdefABCDEFgx٣ #\t\r\n", max_size=120),
    ),
)
@settings(max_examples=600, deadline=None)
def test_parse_code_raises_only_format_errors(text):
    """Arbitrary text either parses or is refused with CodeFormatError.  A
    parsed word is its line read one hex digit at a time, and a refused
    symbol is the first character of its line that is not a hex digit."""
    lines = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
    try:
        code = parse_code(text)
    except CodeFormatError as exc:
        lineno, _, reason = str(exc).partition(": ")
        if reason.startswith("invalid symbol"):
            line = lines[int(lineno.removeprefix("line ")) - 1]
            first = next(ch for ch in line if ch.lower() not in "0123456789abcdef")
            assert reason == f"invalid symbol {first!r}"
        return
    assert code.codewords == tuple(tuple(int(ch, 16) for ch in line) for line in lines if line)


def test_code_validation():
    with pytest.raises(DomainError):
        Code(((0, 1), (0, 1)))
    with pytest.raises(DomainError):
        Code(((0, 1), (1,)))
    with pytest.raises(DomainError):
        Code(((0, 3),), s=2)
    with pytest.raises(DomainError):
        Code((), 2)
