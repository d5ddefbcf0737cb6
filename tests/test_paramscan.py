"""Window emptiness, the candidate filter, the case analysis, and the scans."""

import math
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fptrace import cli, paramscan
from fptrace.paramscan import (
    CaseTag,
    EitherOr,
    ScanMode,
    candidate_filter,
    classify_pair,
    delta_window,
    delta_window_for_length,
    either_or_classify,
    entropy_log_bound_check,
    f_value,
    scan_infeasibility,
    sigma_construction,
    theorem10_statement_collapse,
    unit_weight_bound,
    verify_cases,
    weight_log_cap,
    weight_two_margin,
    window_lower,
    window_upper,
)
from fptrace.rigor import Certainty, DomainError, Enclosure, certify_less

from tests.helpers import (
    candidate_filter_reference,
    collapse_grid_reference,
    scan_reference,
    verify_cases_grid_reference,
)

FINITE_PAIRS = ((3, 3), (3, 4), (3, 5), (4, 3), (5, 3))


# ---------------------------------------------------------------------------
# sigma and window pieces
# ---------------------------------------------------------------------------


def test_sigma_construction_values():
    assert sigma_construction(2) == Enclosure.point(F(1, 4))
    s3 = sigma_construction(3)
    assert s3.lo > F("0.29248") and s3.hi < F("0.29249")
    s16 = sigma_construction(16)
    assert s16.lo > F("0.137395") and s16.hi < F("0.137396")
    with pytest.raises(DomainError):
        sigma_construction(1)


def test_window_32_2():
    win = delta_window(32, 2)
    assert win.lower == 15
    assert win.upper == Enclosure.point(F(8, 3))
    assert win.integer_exists.is_false
    assert win.smallest_integer is None


def test_window_2_2_positive_f_yet_empty():
    win = delta_window(2, 2)
    assert win.lower == 0
    assert win.upper == Enclosure.point(F(1, 2))
    assert win.integer_exists.is_false
    f = f_value(2, 2)
    assert f == Enclosure.point(F(1, 2))  # positive width, still no integer


def test_window_1_2():
    win = delta_window(1, 2)
    assert win.lower == F(-1, 2)
    assert win.upper.hi < 1
    assert win.integer_exists.is_false


def test_window_that_does_contain_an_integer():
    # sanity for the detection logic itself: enlarge the window artificially
    # through the explicit-length entry point (length 2^20 boosts the right
    # side while the left side stays (1 - 1/2)*2 - 1 = 0)
    win = delta_window_for_length(2, 2, F(2**20), 64)
    assert win.integer_exists.is_true
    assert win.smallest_integer == 1


def test_f_examples():
    assert f_value(3, 3).hi < 0
    assert f_value(3, 3).lo > F("-0.16960")
    f32 = f_value(3, 2)
    assert f32.lo > F("0.0802") and f32.hi < F("0.0804")
    f42 = f_value(4, 2)
    assert f42 == Enclosure.point(F(-1, 3))


def test_window_consistency_f_equals_upper_minus_lower():
    for w, a in ((1, 2), (2, 2), (3, 2), (2, 5), (3, 3), (5, 3), (7, 11)):
        f = f_value(w, a)
        diff = window_upper(w, a) - window_lower(w, a)
        f.intersect(diff)  # raises on disjoint enclosures


# ---------------------------------------------------------------------------
# candidate filter
# ---------------------------------------------------------------------------


def test_classify_priorities():
    assert classify_pair(1, 1000) is CaseTag.A_W1
    assert classify_pair(2, 2) is CaseTag.B_W2
    assert classify_pair(9, 2) is CaseTag.C_C2
    assert classify_pair(4, 4) is CaseTag.EXCLUDED
    assert classify_pair(3, 4) is CaseTag.D_FINITE_PAIR


@pytest.mark.parametrize("w, a, message", [
    (0, 3, "w must be >= 1"),
    (3, 1, "a must be >= 2"),
])
def test_grid_point_out_of_domain(w, a, message):
    with pytest.raises(DomainError) as bad_window:
        delta_window_for_length(w, a, 6)
    with pytest.raises(DomainError) as bad_pair:
        classify_pair(w, a)
    assert str(bad_window.value) == str(bad_pair.value) == message


def test_candidate_filter_full_grid():
    tags = candidate_filter(64, 64)
    finite = tuple(sorted(p for p, t in tags.items() if t is CaseTag.D_FINITE_PAIR))
    assert finite == FINITE_PAIRS
    expected = (
        {(1, a) for a in range(2, 65)}
        | {(2, a) for a in range(2, 65)}
        | {(w, 2) for w in range(1, 65)}
        | set(FINITE_PAIRS)
    )
    assert set(tags) == expected


def test_finite_pairs_rederivable_from_inequality():
    derived = tuple(
        sorted(
            (w, a)
            for w in range(3, 65)
            for a in range(3, 65)
            if F(1, w) + F(1, a) > F(1, 2)
        )
    )
    assert derived == FINITE_PAIRS == paramscan.FINITE_PAIRS


@given(st.integers(5, 80), st.integers(19, 80))
@settings(max_examples=60, deadline=None)
def test_candidate_filter_matches_grid_enumeration(w_max, c_max):
    """The closed-form candidate set is the grid enumeration's, tags and
    order included; a small w_max checks that the a = 2 column stops there."""
    assert list(candidate_filter(w_max, c_max).items()) == list(
        candidate_filter_reference(w_max, c_max).items()
    )


def test_classify_pair_integer_test_is_the_fraction_inequality():
    for w in range(3, 200):
        for a in range(3, 200):
            finite = F(1, w) + F(1, a) > F(1, 2)
            assert (classify_pair(w, a) is CaseTag.D_FINITE_PAIR) == finite, (w, a)


def test_d_min_is_the_smallest_integer_above_the_lower_end():
    for w in range(1, 200):
        for a in range(2, 200):
            assert paramscan._d_min(w, a) == max(math.floor(window_lower(w, a)) + 1, 1), (w, a)


def test_filter_soundness_excluded_pairs_have_nonpositive_f():
    for w in range(1, 17):
        for a in range(2, 17):
            if classify_pair(w, a) is CaseTag.EXCLUDED:
                f = f_value(w, a)
                cert = certify_less(lambda b: f, 0)
                assert cert.is_true, (w, a)  # f < 0 certified


# ---------------------------------------------------------------------------
# either-or
# ---------------------------------------------------------------------------


def test_either_or_headline_examples():
    assert either_or_classify(32, 2, 16) is EitherOr.LEFT_ONLY
    assert either_or_classify(32, 2, 2) is EitherOr.RIGHT_ONLY
    assert either_or_classify(32, 2, 20) is EitherOr.LEFT_ONLY
    assert either_or_classify(2, 2, 1) is EitherOr.LEFT_ONLY
    assert either_or_classify(1, 2, 1) is EitherOr.LEFT_ONLY
    # a pair with negative f puts small integers outside both sides
    assert either_or_classify(4, 3, 1) is EitherOr.NEITHER
    with pytest.raises(DomainError):
        either_or_classify(2, 2, 0)


def test_either_or_never_both_on_small_grid():
    for w in range(1, 13):
        for a in range(2, 13):
            top = max(math.ceil(window_lower(w, a)), 0) + 2
            for delta in range(1, top + 1):
                assert either_or_classify(w, a, delta) is not EitherOr.BOTH


# ---------------------------------------------------------------------------
# case analysis
# ---------------------------------------------------------------------------


def test_case_reports_certify():
    rep = verify_cases(19)
    assert rep.all_certified
    assert rep.weight_two.positive_as == tuple(range(2, 19))
    assert rep.coalition_two.positive_ws == (2, 3)
    assert rep.finite_pairs.pairs == FINITE_PAIRS
    assert rep.weight_two.margin_at_18.lo > 0
    assert rep.weight_two.margin_at_19.hi < 0


def test_weight_two_premise_at_19_is_a_negative_margin(monkeypatch):
    """The a = 19 premise compares the margin with 0: a margin lifted into
    (0, 1) there must break the sign change and the whole case report."""
    margin = paramscan.weight_two_margin
    monkeypatch.setattr(
        paramscan, "weight_two_margin",
        lambda a, bits=64: margin(a, bits) + (F(1, 2) if a == 19 else 0),
    )
    rep = verify_cases(19)
    assert rep.weight_two.sign_change_at_19.is_false
    assert not rep.all_certified


def test_case_boundary_values():
    m18 = weight_two_margin(18)
    m19 = weight_two_margin(19)
    assert m18.lo > 0 and m19.hi < 0
    # unit-weight analytic cap at a = 2 equals log2(e)/2
    b2 = unit_weight_bound(2)
    assert b2.lo > F("0.7213") and b2.hi < F("0.7214")


def test_entropy_log_bound_on_probe_range():
    for a in range(2, 1025):
        assert entropy_log_bound_check(a).is_true, a


def test_necessity_contrapositive_on_grid():
    """Nonpositive window width forces an empty window; an integer can only
    ever exist where f is positive."""
    for w in range(1, 17):
        for a in range(2, 17):
            f = f_value(w, a)
            win = delta_window(w, a)
            if f.hi <= 0:
                assert win.integer_exists.is_false, (w, a)
            if win.integer_exists.is_true:
                assert f.lo > 0, (w, a)


def test_verify_cases_probe_floor():
    with pytest.raises(DomainError):
        verify_cases(18)


@pytest.mark.parametrize("c_probe_max, bits", [(19, 64), (64, 64), (256, 64), (19, 2), (64, 1024)])
def test_verify_cases_matches_grid_reference(c_probe_max, bits):
    """The base points and family lemmas reach the report that certifying
    every grid point does, field for field."""
    assert verify_cases(c_probe_max, bits) == verify_cases_grid_reference(c_probe_max, bits)


def test_verify_cases_cost_does_not_grow_with_probe_extent(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return certify_less(*args, **kwargs)

    monkeypatch.setattr(paramscan, "certify_less", counted)
    verify_cases(19)
    at_19 = len(calls)
    calls.clear()
    verify_cases(1024)
    assert len(calls) == at_19


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def test_scan_thm10_full():
    rep = scan_infeasibility(64, 64, ScanMode.THM10)
    assert rep.certified_infeasible
    assert rep.unresolved == ()
    assert rep.windows_checked == len(rep.candidates)
    assert rep.excluded_count == 64 * 63 - rep.windows_checked
    finite = tuple(
        sorted((r.w, r.a) for r in rep.candidates if r.tag is CaseTag.D_FINITE_PAIR)
    )
    assert finite == FINITE_PAIRS
    assert (2, 2) in rep.positive_f_empty_windows
    assert all(r.window.integer_exists.is_false for r in rep.candidates)
    assert rep.cases is not None and rep.cases.all_certified
    # exhibits include the headline classifications
    ex = {(e.w, e.a, e.delta): e.classification for e in rep.either_or_exhibits}
    assert ex[(32, 2, 16)] is EitherOr.LEFT_ONLY
    assert ex[(32, 2, 2)] is EitherOr.RIGHT_ONLY
    assert EitherOr.BOTH not in ex.values()


def test_scan_thm11_both_readings():
    rep = scan_infeasibility(64, 64, ScanMode.THM11)
    assert rep.certified_infeasible
    assert rep.windows_checked == 2 * 64 * 7  # c in [2, 8], both readings
    readings = {r.reading for r in rep.candidates}
    assert readings == {"direct", "half_length"}
    assert {r.a for r in rep.candidates} <= {c * c for c in range(2, 9)}
    assert all(r.window.integer_exists.is_false for r in rep.candidates)


@pytest.mark.parametrize("mode", list(ScanMode))
@pytest.mark.parametrize("w_max, c_max", [(5, 19), (64, 64), (40, 144)])
@pytest.mark.parametrize("bits", [2, 64, 256])
def test_scan_matches_enclosure_reference(mode, w_max, c_max, bits):
    """Deciding excluded windows by the integer bracket gives the report
    of enclosing every window, field for field."""
    assert scan_infeasibility(w_max, c_max, mode, bits) == scan_reference(w_max, c_max, mode, bits)


def test_bracket_decides_every_excluded_thm11_window_in_cli_range():
    """c <= 32 and w <= 1024, both length readings: the CLI's extents."""
    undecided = [
        (w, c, scale)
        for c in range(2, 33)
        for w in range(1, 1025)
        if classify_pair(w, c * c) is CaseTag.EXCLUDED
        for scale in (1, F(1, 2))
        if not paramscan._bracket_empty(w, c * c, scale * w * c * c)
    ]
    assert undecided == []


@given(
    st.integers(1, 1024),
    st.integers(2, 1024),
    st.one_of(st.integers(1, 64), st.integers(1, 2**20)),
)
@settings(max_examples=300, deadline=None)
def test_bracket_never_empties_a_window_that_holds_an_integer(w, a, m):
    """Lengths m*w*a reach windows that hold integers, and m <= 64 keeps
    many near the edge where the upper end passes d_min; wherever the
    bracket says empty, the enclosure path must not find an integer."""
    length = m * w * a
    if paramscan._bracket_empty(w, a, length):
        assert not delta_window_for_length(w, a, length).integer_exists.is_true


@given(st.integers(1, 1024), st.integers(2, 1024))
@settings(max_examples=100, deadline=None)
def test_bracket_keeps_the_first_length_whose_window_holds_an_integer(w, a):
    """The integer length L at which the window first holds an integer, found
    by bisection on the enclosure path, is where a bracket that claims too
    much would first be wrong.  The upper end sigma*L/log2(L) grows from
    L = 4, where it is at most 1/2, below every d_min."""
    lo, hi = 4, 1 << 40  # empty at lo, holds an integer at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if delta_window_for_length(w, a, mid).integer_exists.is_true:
            hi = mid
        else:
            lo = mid
    assert not paramscan._bracket_empty(w, a, hi)


def test_scan_reduced_grid_same_verdict():
    rep = scan_infeasibility(5, 19, ScanMode.THM10)
    assert rep.certified_infeasible


@pytest.mark.parametrize("forged, verdict", [
    (Certainty.true(), "CertifiedFalse"),
    (Certainty.unresolved(64), "Unresolved(precision_bits=64)"),
])
def test_one_listed_window_that_is_not_empty_decides_the_scan(
    monkeypatch, capsys, forged, verdict
):
    """A listed THM10 window that reports an integer makes the scan
    CertifiedFalse, and one left unresolved makes it Unresolved, in the
    report and in the CLI's last line."""
    real = paramscan.delta_window_for_length

    def faulty(w, a, length, precision_bits=64):
        win = real(w, a, length, precision_bits)
        return replace(win, integer_exists=forged) if (w, a) == (3, 3) else win

    monkeypatch.setattr(paramscan, "delta_window_for_length", faulty)
    rep = scan_infeasibility(5, 19, ScanMode.THM10)
    assert str(rep.verdict) == verdict and not rep.certified_infeasible
    assert rep.unresolved == (() if forged.is_true else ((3, 3),))
    assert cli.main(["scan", "--mode", "thm10", "--wmax", "5", "--cmax", "19"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"global verdict: {verdict}"


def test_scan_rejects_small_extents():
    with pytest.raises(DomainError):
        scan_infeasibility(3, 2, ScanMode.THM10)
    with pytest.raises(DomainError):
        scan_infeasibility(64, 18, ScanMode.THM11)


def test_scan_mode_must_be_a_scan_mode():
    rep = scan_infeasibility(5, 19, ScanMode.THM10)
    assert rep.mode is ScanMode.THM10
    # a string would otherwise fall through to the THM11 rows
    with pytest.raises(TypeError):
        scan_infeasibility(5, 19, "thm10")


# ---------------------------------------------------------------------------
# statement collapse
# ---------------------------------------------------------------------------


def test_collapse_report():
    rep = theorem10_statement_collapse()
    assert rep.collapse_certified
    assert rep.rhs_at_2.hi < 0
    assert rep.rhs_at_2.lo > F("-0.27866") and rep.rhs_at_2.hi < F("-0.27865")
    assert rep.rhs_at_3.lo > F("-0.57114") and rep.rhs_at_3.hi < F("-0.57113")


def test_collapse_matches_grid_reference():
    """Certifying a = 2 alone gives the report of certifying all 303 probes,
    ``rhs_negative`` and ``entropy_bound`` included."""
    assert theorem10_statement_collapse() == collapse_grid_reference()


def test_weight_log_cap_monotone_on_sample():
    prev = None
    for a in (2, 3, 5, 9, 17, 100, 4096):
        cap = weight_log_cap(a)
        if prev is not None:
            assert certify_less(lambda b: cap, lambda b: prev).is_true  # strictly decreasing
        prev = cap
