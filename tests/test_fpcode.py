"""Feasible sets, frame-proof verification, and the text format."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fptrace import rigor
from fptrace.fpcode import (
    BudgetExceededError,
    Code,
    CodeFormatError,
    FeasibleDefinition,
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
    import itertools

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
    code = construct_identity_concat(20, ones=0, zeros=0, copies=1)
    monkeypatch.setattr(rigor, "DEFAULT_STEP_BUDGET", 100)
    with pytest.raises(BudgetExceededError):
        is_frameproof(code, 10, UNA)


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
    s = draw(st.integers(2, 4))
    length = draw(st.integers(1, 8))
    word = st.tuples(*[st.integers(0, s - 1)] * length)
    words = draw(st.lists(word, min_size=1, max_size=7, unique=True))
    return Code(tuple(words), s)


@given(small_codes())
@settings(max_examples=400, deadline=None)
def test_mask_kernel_matches_reference(code):
    """The mask tests give the reference's whole verdict, witness included,
    for every c and both definitions over alphabets of 2, 3 and 4."""
    for c in range(1, code.n + 1):
        for definition in (UNA, CRD):
            assert is_frameproof(code, c, definition) == frameproof_reference(
                code, c, definition
            )


@given(small_codes().filter(lambda code: code.n >= 2))
@settings(max_examples=400, deadline=None)
def test_min_distance_matches_reference(code):
    """Half the popcount of packed-word XORs is the symbol-by-symbol
    minimum distance over alphabets of 2, 3 and 4."""
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
    import itertools

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
    import itertools

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


@given(
    st.one_of(
        st.text(),
        st.text(alphabet="0123456789abcdefABCDEFgx #\t\r\n", max_size=120),
    ),
)
@settings(max_examples=600, deadline=None)
def test_parse_code_raises_only_format_errors(text):
    """Arbitrary text either parses or is refused with CodeFormatError."""
    try:
        parse_code(text)
    except CodeFormatError:
        pass


def test_code_validation():
    with pytest.raises(DomainError):
        Code(((0, 1), (0, 1)))
    with pytest.raises(DomainError):
        Code(((0, 1), (1,)))
    with pytest.raises(DomainError):
        Code(((0, 3),), s=2)
    with pytest.raises(DomainError):
        Code((), 2)
