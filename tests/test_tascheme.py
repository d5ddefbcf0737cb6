"""Tracing, traceability verdicts, and the scheme text format."""

import itertools
import random
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fptrace import rigor, tascheme
from fptrace.rigor import (
    DEFAULT_STEP_BUDGET, BudgetExceededError, Certainty, DomainError, FormatError
)
from fptrace.tascheme import (
    KeyScheme,
    TAVerdict,
    TAWitness,
    format_scheme,
    is_traceable_exact,
    is_traceable_structural_disjoint,
    make_disjoint_scheme,
    parse_scheme,
    sample_traceability,
    trace,
)
from tests import helpers
from tests.helpers import (
    pack_reference,
    planted_overlap_scheme,
    sample_traceability_reference,
    structural_disjoint_reference,
    traceable_exact_reference,
)


def triangle() -> KeyScheme:
    return KeyScheme(3, (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})))


def keyed(l: int, *decoders) -> KeyScheme:
    return KeyScheme(l, tuple(frozenset(d) for d in decoders))


def gf_lines(p: int, n: int, seed: int) -> KeyScheme:
    """n random lines y = b + m*x over GF(p), key (x, y) numbered p*x + y.
    Two lines share at most one key."""
    lines = [(b, m) for b in range(p) for m in range(p)]
    chosen = random.Random(seed).sample(lines, n)
    return KeyScheme(
        p * p,
        tuple(frozenset(x * p + (b + m * x) % p for x in range(p)) for b, m in chosen),
    )


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def test_trace_owner_uniquely_maximal():
    scheme = make_disjoint_scheme(6, 3, 2)
    result = trace(scheme, {0, 1})
    assert result.max_overlap == 2 and result.argmax_decoders == (0,)


def test_trace_hand_example():
    scheme = KeyScheme(4, (frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})))
    result = trace(scheme, {1, 3})
    assert result.max_overlap == 2 and result.argmax_decoders == (2,)


def test_trace_disjoint_pirate_ties_everyone():
    scheme = make_disjoint_scheme(8, 3, 2)
    result = trace(scheme, {6, 7})
    assert result.max_overlap == 0 and result.argmax_decoders == (0, 1, 2)


def test_trace_argmax_never_empty():
    rng = random.Random(5)
    for _ in range(200):
        l = rng.randint(2, 10)
        k = rng.randint(1, l)
        n = rng.randint(1, 6)
        decoders = set()
        for _attempt in range(100):
            decoders.add(frozenset(rng.sample(range(l), k)))
            if len(decoders) == n:
                break
        scheme = KeyScheme(l, tuple(sorted(decoders, key=sorted)))
        pirate = frozenset(rng.sample(range(l), k))
        assert trace(scheme, pirate).argmax_decoders


def test_trace_range_check():
    with pytest.raises(DomainError):
        trace(triangle(), {7})


# ---------------------------------------------------------------------------
# exact verification
# ---------------------------------------------------------------------------


def test_exact_disjoint_true():
    assert is_traceable_exact(make_disjoint_scheme(6, 3, 2), 2).verdict.is_true


def test_exact_triangle_false_with_witness():
    verdict = is_traceable_exact(triangle(), 2)
    assert verdict.verdict.is_false
    w = verdict.witness
    assert w.coalition == (0, 1)
    assert tuple(w.pirate) == (0, 2)
    assert w.outsider == 2


def test_exact_witness_from_keys_past_the_first_mask_word():
    """The pirate walk reads the union's bits above bit 63: the triangle
    moved to keys 100..102 gives the same witness, shifted."""
    scheme = keyed(103, (100, 101), (101, 102), (100, 102))
    verdict = is_traceable_exact(scheme, 2)
    assert verdict.witness == TAWitness((0, 1), (100, 102), 2)
    assert verdict == traceable_exact_reference(scheme, 2)


def test_exact_c1_true_for_distinct_decoders():
    rng = random.Random(6)
    for _ in range(100):
        l = rng.randint(2, 8)
        k = rng.randint(1, l - 1)
        n = rng.randint(2, 5)
        decoders = set()
        attempts = 0
        while len(decoders) < n and attempts < 100:
            decoders.add(frozenset(rng.sample(range(l), k)))
            attempts += 1
        scheme = KeyScheme(l, tuple(sorted(decoders, key=sorted)))
        assert is_traceable_exact(scheme, 1).verdict.is_true


def test_exact_over_budget_raises_budget_exceeded(monkeypatch):
    """Refused up front when the pair tests alone pass the budget, and
    stopped mid-search when the count vectors do.  The up-front count stops
    at the first coalition size that passes the budget: at c = 15000 it is
    C(15000, 2) * 14998, not a sum over 15000 sizes."""
    triangle_pairs = 3 * 1
    for scheme, c, budget, message in (
        (make_disjoint_scheme(2000, 2000, 1), 2, DEFAULT_STEP_BUDGET,
         "exact verification needs ~3994002000 steps, budget is 1000000000"),
        (make_disjoint_scheme(15000, 15000, 1), 15000, DEFAULT_STEP_BUDGET,
         "exact verification needs ~1687162515000 steps, budget is 1000000000"),
        (triangle(), 2, triangle_pairs - 1,
         "exact verification needs ~3 steps, budget is 2"),
        (triangle(), 2, triangle_pairs,
         "exact verification ran past its budget of 3 steps"),
    ):
        monkeypatch.setattr(rigor, "DEFAULT_STEP_BUDGET", budget)
        with pytest.raises(BudgetExceededError) as refused:
            is_traceable_exact(scheme, c)
        assert str(refused.value) == message


@pytest.mark.parametrize("scheme, verdict", [
    (triangle(), "CertifiedFalse"),
    (keyed(4, {0, 3}, {1, 3}, {2, 3}), "CertifiedTrue"),
])
def test_exact_budget_equal_to_the_steps_taken_suffices(monkeypatch, scheme, verdict):
    """At c = 2 each scheme takes exactly 6 steps, 3 pair tests and 3 count
    vectors: a budget of 6 decides it, and 5 stops the search mid-way."""
    monkeypatch.setattr(rigor, "DEFAULT_STEP_BUDGET", 6)
    assert str(is_traceable_exact(scheme, 2).verdict) == verdict
    monkeypatch.setattr(rigor, "DEFAULT_STEP_BUDGET", 5)
    with pytest.raises(BudgetExceededError) as refused:
        is_traceable_exact(scheme, 2)
    assert str(refused.value) == "exact verification ran past its budget of 5 steps"


def test_lone_members_take_no_steps(monkeypatch):
    """A lone member's only pirate is its own key set, which no other
    decoder holds, so c = 1 walks no coalition and needs no budget."""
    monkeypatch.setattr(rigor, "DEFAULT_STEP_BUDGET", 0)
    assert is_traceable_exact(triangle(), 1).verdict.is_true


def test_exact_disjoint_256_8_32_c4_certified_true():
    verdict = is_traceable_exact(make_disjoint_scheme(256, 8, 32), 4)
    assert verdict.verdict.is_true and verdict.witness is None
    assert verdict.detail == "exhaustive search found no violation"


def test_exact_gf13_lines_c3_certified_true():
    """Two lines over GF(13) share at most one key, so with 3*3 < 13 the
    scheme is 3-traceable."""
    assert is_traceable_exact(gf_lines(13, 10, 13), 3).verdict.is_true


@st.composite
def small_schemes(draw):
    """(scheme, c): n <= 7 distinct k-subsets of l <= 10 keys, k <= 4, or a
    scheme with one decoder planted inside two others' key union."""
    if draw(st.booleans()):
        l = draw(st.integers(6, 10))
        k = draw(st.integers(2, 4))
        n = draw(st.integers(3, 7))
        scheme = planted_overlap_scheme(random.Random(draw(st.integers(0, 2**32))), l, n, k)
    else:
        l = draw(st.integers(1, 10))
        k = draw(st.integers(1, min(4, l)))
        n = draw(st.integers(1, min(7, comb(l, k))))
        combos = list(itertools.combinations(range(l), k))
        picks = draw(st.lists(st.integers(0, len(combos) - 1), min_size=n, max_size=n, unique=True))
        scheme = KeyScheme(l, tuple(frozenset(combos[i]) for i in picks))
    return scheme, draw(st.integers(1, scheme.n))


@given(small_schemes())
@settings(max_examples=400, deadline=None)
def test_exact_matches_reference(case):
    """The per-pair search gives the pirate enumeration's whole verdict:
    label, witness (coalition, pirate, outsider) and detail."""
    scheme, c = case
    assert is_traceable_exact(scheme, c) == traceable_exact_reference(scheme, c)


def pack(classes, caps, want) -> bool:
    return tascheme._PairSearch((), 0, 0)._pack(classes, caps, want)


@pytest.mark.parametrize("classes, caps, want, feasible", [
    # the one packing, (1, 0, 3, 1, 0), takes no key of the second class,
    # whose room is 1: a fill that steps its count down by two skips 0
    ([((2,), 1), ((1, 2), 3), ((0, 1), 4), ((0, 2), 2), ((0, 1, 2), 3)], (4, 3, 2), 5, True),
    # no packing exists; a fill that let a count run down to -1 would give
    # keys back to a class's members and report one
    ([((1, 3), 1), ((1, 2), 2), ((0, 3), 4), ((0, 1), 1)], (4, 2, 3, 2), 5, False),
])
def test_pack_search_pinned_instances(classes, caps, want, feasible):
    assert pack_reference(classes, caps, want) is feasible
    assert pack(classes, caps, want) is feasible


def test_pack_skips_a_failed_state_reached_again():
    """No packing exists, and two count vectors lead to the same
    (class, want, caps) state: the memo answers the second visit, so the
    search takes 36 steps where it would take 38 without it."""
    classes = [((0,), 2), ((2,), 1), ((1, 2), 1), ((0, 1), 2), ((0, 1, 2), 4)]
    caps, want = (5, 3, 5), 7
    assert pack_reference(classes, caps, want) is False
    search = tascheme._PairSearch((), 0, 0)
    assert search._pack(classes, caps, want) is False
    assert search.steps == 36


@st.composite
def pack_instances(draw):
    """(classes, caps, want): up to 5 classes, each a distinct nonempty set
    of at most 4 member positions with 1 to 4 keys, in any order."""
    members = draw(st.integers(1, 4))
    sigs = draw(st.lists(
        st.sets(st.integers(0, members - 1), min_size=1).map(lambda sig: tuple(sorted(sig))),
        min_size=1, max_size=5, unique=True,
    ))
    classes = [(sig, draw(st.integers(1, 4))) for sig in sigs]
    caps = tuple(draw(st.lists(st.integers(0, 5), min_size=members, max_size=members)))
    return classes, caps, draw(st.integers(1, sum(size for _, size in classes)))


@given(pack_instances())
@settings(max_examples=400, deadline=None)
def test_pack_matches_reference(case):
    """The pruned fill decides what trying every count vector decides."""
    assert pack(*case) is pack_reference(*case)


# ---------------------------------------------------------------------------
# structural verification
# ---------------------------------------------------------------------------


def test_structural_main_scheme():
    scheme = make_disjoint_scheme(256, 8, 32)
    assert is_traceable_structural_disjoint(scheme, 4).verdict.is_true
    assert is_traceable_structural_disjoint(scheme, 8).verdict.is_true


def test_structural_rejects_shared_key():
    shared = KeyScheme(4, (frozenset({0, 1}), frozenset({1, 2})))
    with pytest.raises(DomainError, match="share"):
        is_traceable_structural_disjoint(shared, 2)


def test_structural_refuses_the_first_sharing_pair_not_the_smallest_key():
    """Decoders 0 and 2 share key 5; the smallest shared key, 0, belongs
    to the later pair (1, 2)."""
    scheme = keyed(8, (5, 6), (0, 7), (0, 5))
    message = (
        "decoders 0 and 2 share key 5; "
        "the structural argument needs pairwise-disjoint decoders"
    )
    for verify in (is_traceable_structural_disjoint, structural_disjoint_reference):
        with pytest.raises(DomainError) as refusal:
            verify(scheme, 2)
        assert str(refusal.value) == message


@st.composite
def disjoint_schemes(draw):
    """(scheme, c): n pairwise-disjoint k-subsets of n*k <= 12 keys, in
    shuffled order."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12 // k))
    keys = draw(st.permutations(range(n * k)))
    scheme = KeyScheme(n * k, tuple(frozenset(keys[i * k:(i + 1) * k]) for i in range(n)))
    return scheme, draw(st.integers(1, n))


@given(st.one_of(small_schemes(), disjoint_schemes()))
@settings(max_examples=400, deadline=None)
def test_structural_matches_reference(case):
    """One pass over the keys certifies what the pairwise loop certifies,
    and refuses with its first shared pair and key."""
    scheme, c = case
    outcomes = []
    for verify in (is_traceable_structural_disjoint, structural_disjoint_reference):
        try:
            outcomes.append(verify(scheme, c))
        except DomainError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_structural_agrees_with_exact_on_small_disjoint_grid():
    for n in range(1, 5):
        for k in range(1, 4):
            for l in range(n * k, 13):
                scheme = make_disjoint_scheme(l, n, k)
                for c in range(1, n + 1):
                    structural = is_traceable_structural_disjoint(scheme, c)
                    exact = is_traceable_exact(scheme, c)
                    assert structural.verdict.is_true
                    assert exact.verdict.is_true


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sampling_disjoint_no_violations():
    scheme = make_disjoint_scheme(256, 8, 32)
    verdict = sample_traceability(scheme, 4, 10_000, 42)
    assert verdict.verdict.is_unresolved
    assert "0 violations" in verdict.detail


def test_sampling_triangle_finds_witness():
    verdict = sample_traceability(triangle(), 2, 1000, 1)
    assert verdict.verdict.is_false
    w = verdict.witness
    # re-check the emitted witness by direct evaluation
    result = trace(triangle(), w.pirate)
    assert w.outsider in result.argmax_decoders
    assert w.outsider not in w.coalition


def test_sampling_recheck_rejects_wrong_outsider(monkeypatch):
    """The recheck is a real check, so it also holds under ``python -O``.
    A cut that reports the members as rivals passes every trial's pirate
    on, and no outsider of the sunflower ever ties a pair's pirate, so the
    first recheck must fail.  Every sunflower decoder holds the shared key
    0, so the fold leaves all of them live and the cut is reached."""
    monkeypatch.setattr(
        tascheme, "_coalition_cut", lambda masks, coalition, k, live: (0, list(coalition))
    )
    with pytest.raises(RuntimeError, match="failed its recheck"):
        sample_traceability(keyed(4, (0, 1), (0, 2), (0, 3)), 2, 10, 1)


def test_exact_recheck_rejects_untied_pirate(monkeypatch):
    """The exact verifier traces the pirate its search hands over: (0, 1)
    is decoder 0's own key set, which only that member of (0, 1) tops."""
    monkeypatch.setattr(
        tascheme._PairSearch, "first_pirate", lambda self, *args: (0, 1)
    )
    with pytest.raises(RuntimeError, match="failed its recheck"):
        is_traceable_exact(triangle(), 2)


# Captured from the sampler that draws and traces every trial.  Both schemes
# hold the decoders {3,4,6}, {4,5,7} and {3,5,8}, any two of which can frame
# the third, among decoders on disjoint keys.  The first has 21 coalitions of
# size 2, fewer than its trials; the second has 286 of sizes 2 and 3, more
# than its trials.
SPREAD_TRIANGLE_7 = keyed(
    18, (0, 1, 2), (3, 4, 6), (9, 10, 11), (4, 5, 7), (12, 13, 14), (3, 5, 8), (15, 16, 17)
)
SPREAD_TRIANGLE_12 = keyed(
    36, (15, 16, 17), (3, 4, 6), (21, 22, 23), (4, 5, 7), (27, 28, 29), (3, 5, 8),
    (33, 34, 35), (9, 10, 11), (12, 13, 14), (18, 19, 20), (24, 25, 26), (30, 31, 32),
)
PINNED_SAMPLES = (
    (SPREAD_TRIANGLE_7, 2, 100, 0,
     TAWitness((1, 3), (3, 5, 7), 5), "violation at trial 53 of 100 (seed 0)"),
    (SPREAD_TRIANGLE_7, 2, 100, 4,
     TAWitness((1, 5), (4, 5, 6), 3), "violation at trial 65 of 100 (seed 4)"),
    (SPREAD_TRIANGLE_12, 3, 200, 2,
     TAWitness((0, 1, 10), (4, 17, 24), 3), "violation at trial 74 of 200 (seed 2)"),
)


@pytest.mark.parametrize("scheme, c, trials, seed, witness, detail", PINNED_SAMPLES)
def test_sampling_draw_stream_pinned(scheme, c, trials, seed, witness, detail):
    """Whole verdicts of seeded runs whose violation comes after earlier,
    violation-free trials: the draw order is part of the output."""
    assert sample_traceability(scheme, c, trials, seed) == TAVerdict(
        Certainty.false(), witness, detail
    )


@st.composite
def sampled_schemes(draw):
    """(scheme, c, trials, seed): a random, planted-overlap, disjoint or
    GF(p)-line scheme, c in [1, n + 1], and fewer trials than coalitions of
    sizes 2..c (no cut is kept) or at least as many (the coverage stop may
    fire)."""
    kind = draw(st.sampled_from(("random", "planted", "disjoint", "lines")))
    seed = draw(st.integers(0, 2**32))
    if kind == "random":
        scheme, _ = draw(small_schemes())
    elif kind == "planted":
        l, k = draw(st.integers(6, 12)), draw(st.integers(2, 4))
        scheme = planted_overlap_scheme(random.Random(seed), l, draw(st.integers(3, 7)), k)
    elif kind == "disjoint":
        n, k = draw(st.integers(1, 7)), draw(st.integers(1, 4))
        scheme = make_disjoint_scheme(n * k + draw(st.integers(0, 4)), n, k)
    else:
        p = draw(st.sampled_from((3, 5, 7)))
        scheme = gf_lines(p, draw(st.integers(2, 8)), seed)
    c = draw(st.integers(1, scheme.n + 1))
    coalitions = sum(comb(scheme.n, j) for j in range(2, min(c, scheme.n) + 1))
    if coalitions and draw(st.booleans()):
        trials = draw(st.integers(0, coalitions - 1))
    else:
        trials = draw(st.integers(coalitions, 20 * coalitions + 20))
    return scheme, c, trials, seed


@given(sampled_schemes())
@settings(max_examples=300, deadline=None)
def test_sampling_matches_reference(case):
    """The cut, the kept cuts and the coverage stop give the whole verdict
    of tracing every drawn pirate: label, witness and detail."""
    scheme, c, trials, seed = case
    assert sample_traceability(scheme, c, trials, seed) == sample_traceability_reference(
        scheme, c, trials, seed
    )


@given(sampled_schemes())
@settings(max_examples=300, deadline=None)
def test_sampled_refutations_are_exact_refutations(case):
    """A sampler CertifiedFalse implies an exact CertifiedFalse, and its
    witness replays through trace: a pirate of k keys from the coalition's
    union that an outsider ties."""
    scheme, c, trials, seed = case
    sampled = sample_traceability(scheme, c, trials, seed)
    if sampled.verdict.is_false:
        assert is_traceable_exact(scheme, c).verdict.is_false
        w = sampled.witness
        coalition, pirate, outsider = w.coalition, w.pirate, w.outsider
        assert 2 <= len(coalition) <= c and outsider not in coalition
        assert len(set(pirate)) == scheme.k
        assert set(pirate) <= set().union(*(scheme.decoders[i] for i in coalition))
        assert outsider in trace(scheme, pirate).argmax_decoders


# Decoder 0 shares one key with each of the other three, which share no key
# among themselves: at k = 6 and c = 2 the fold leaves decoder 0 live (three
# of its keys are held twice, ceil(6/2) = 3), but a pair of the others covers
# only two of them, so no coalition has a rival.
THREE_PETALS = keyed(
    21, range(6), (0, 6, 7, 8, 9, 10), (1, 11, 12, 13, 14, 15), (2, 16, 17, 18, 19, 20)
)


@given(st.one_of(small_schemes(), sampled_schemes().map(lambda case: case[:2])))
@settings(max_examples=300, deadline=None)
def test_dropped_decoders_are_rivals_of_no_coalition(case):
    """Every decoder that the fold drops shares fewer than ceil(k/|C|) keys
    with the key union of each coalition of 2 to min(c, n) other decoders,
    counted from the key sets."""
    scheme, c = case
    top = min(c, scheme.n)
    live = tascheme._live_outsiders(scheme._masks, scheme.k, top)
    for u in set(range(scheme.n)) - set(live):
        others = [i for i in range(scheme.n) if i != u]
        for size in range(2, top + 1):
            for coalition in itertools.combinations(others, size):
                union = set().union(*(scheme.decoders[i] for i in coalition))
                assert len(scheme.decoders[u] & union) < -(-scheme.k // size)


def test_exact_without_live_decoders_walks_no_coalition(monkeypatch):
    """400 one-key decoders share no key, so none is live: at c = 2 the
    verdict needs none of the 31,760,400 pair tests."""
    def walked(*args):
        raise AssertionError("a coalition was cut")

    monkeypatch.setattr(tascheme, "_coalition_cut", walked)
    verdict = is_traceable_exact(make_disjoint_scheme(400, 400, 1), 2)
    assert verdict == TAVerdict(Certainty.true(), detail="exhaustive search found no violation")


# Decoders 1 and 2 each hold two keys that another decoder holds, fewer than
# ceil(6/2) = 3, so only decoder 0 is live; together they hold four of its
# keys, and the pirate {0, 1, 2, 3, 6, 7} ties it with decoder 1.
LONE_LIVE = keyed(14, range(6), (0, 1, 6, 7, 8, 9), (2, 3, 10, 11, 12, 13))


@pytest.mark.parametrize("scheme, exact, sampled", [
    (THREE_PETALS, "exhaustive search found no violation", "0 violations in 100 trials (seed 0)"),
    (LONE_LIVE, "exhaustive search found a tracing violation",
     "violation at trial 14 of 100 (seed 0)"),
])
def test_a_lone_live_decoder_is_still_walked(scheme, exact, sampled):
    """One live decoder is enough for a walk: it may or may not be a
    coalition's rival, and both verifiers agree with their references."""
    assert tascheme._live_outsiders(scheme._masks, scheme.k, 2) == [0]
    verdict = is_traceable_exact(scheme, 2)
    assert verdict == traceable_exact_reference(scheme, 2) and verdict.detail == exact
    drawn = sample_traceability(scheme, 2, 100, 0)
    assert drawn == sample_traceability_reference(scheme, 2, 100, 0) and drawn.detail == sampled


def counted_draws(monkeypatch, module, run):
    """The verdict of ``run()`` and the number of ``randint`` and ``sample``
    calls it made, with ``module.random.Random`` replaced by a counting
    subclass that makes the same draws."""
    made = []

    class CountingRandom(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            self.draws = 0
            made.append(self)

        def randint(self, a, b):
            self.draws += 1
            return super().randint(a, b)

        def sample(self, population, k):
            self.draws += 1
            return super().sample(population, k)

    with monkeypatch.context() as patch:
        patch.setattr(module, "random", SimpleNamespace(Random=CountingRandom))
        verdict = run()
    return verdict, sum(rng.draws for rng in made)


def test_sampling_draw_counts(monkeypatch):
    """A scheme with no live decoder makes no draw; the coverage stop ends
    the draws of a scheme whose live decoder is no coalition's rival once
    every coalition has been drawn; a scheme with a rival makes every draw
    that tracing each trial makes."""
    disjoint = make_disjoint_scheme(256, 8, 32)
    verdict, draws = counted_draws(
        monkeypatch, tascheme, lambda: sample_traceability(disjoint, 4, 10**6, 42)
    )
    assert verdict.detail == "0 violations in 1000000 trials (seed 42)"
    assert draws == 0
    assert tascheme._live_outsiders(THREE_PETALS._masks, THREE_PETALS.k, 2) == [0]
    verdict, draws = counted_draws(
        monkeypatch, tascheme, lambda: sample_traceability(THREE_PETALS, 2, 1000, 7)
    )
    assert verdict == sample_traceability_reference(THREE_PETALS, 2, 1000, 7)
    assert verdict.detail == "0 violations in 1000 trials (seed 7)"
    assert 0 < draws < 3 * 1000
    # the sunflower's coalition (0, 1) has the rival 2, which never ties
    sunflower = keyed(4, (0, 1), (0, 2), (0, 3))
    verdict, draws = counted_draws(
        monkeypatch, tascheme, lambda: sample_traceability(sunflower, 2, 100, 5)
    )
    assert verdict.verdict.is_unresolved and draws == 3 * 100
    for scheme, c, trials, seed in (
        (triangle(), 2, 50, 3),
        (SPREAD_TRIANGLE_7, 2, 100, 0),
        (SPREAD_TRIANGLE_12, 3, 200, 2),
    ):
        assert counted_draws(
            monkeypatch, tascheme, lambda: sample_traceability(scheme, c, trials, seed)
        ) == counted_draws(
            monkeypatch, helpers,
            lambda: sample_traceability_reference(scheme, c, trials, seed),
        )


def test_sampling_over_budget_is_refused_up_front(monkeypatch):
    """Each cut tests all n decoders: 200 trials at c = 4 on 8 decoders build
    at most min(200, 154 coalitions) cuts, 1,232 steps."""
    monkeypatch.setattr(rigor, "DEFAULT_STEP_BUDGET", 1000)
    with pytest.raises(BudgetExceededError, match=r"^sampling needs ~1232 steps, budget is 1000$"):
        sample_traceability(make_disjoint_scheme(256, 8, 32), 4, 200, 42)
    monkeypatch.setattr(rigor, "DEFAULT_STEP_BUDGET", 1232)
    assert sample_traceability(make_disjoint_scheme(256, 8, 32), 4, 200, 42).verdict.is_unresolved


def test_sampling_zero_trials_unresolved():
    assert sample_traceability(triangle(), 2, 0, 9).verdict.is_unresolved


def test_sampling_deterministic_per_seed():
    a = sample_traceability(triangle(), 2, 50, 123)
    b = sample_traceability(triangle(), 2, 50, 123)
    assert a == b
    c = sample_traceability(triangle(), 2, 2000, 124)
    assert c.verdict.is_false  # different seed still finds the dense violation


def test_monotonicity_false_propagates_upward():
    base = is_traceable_exact(triangle(), 2)
    assert base.verdict.is_false
    higher = is_traceable_exact(triangle(), 3)
    assert higher.verdict.is_false
    # the same witness is still a coalition of size <= 3
    assert len(base.witness.coalition) <= 3


def relabel_keys(scheme: KeyScheme, perm) -> KeyScheme:
    return KeyScheme(scheme.l, tuple(frozenset(perm[key] for key in d) for d in scheme.decoders))


def test_permutation_invariance():
    rng = random.Random(8)
    scheme = triangle()
    for _ in range(20):
        perm = list(range(scheme.l))
        rng.shuffle(perm)
        assert (
            is_traceable_exact(relabel_keys(scheme, perm), 2).verdict.label
            == is_traceable_exact(scheme, 2).verdict.label
        )
    disjoint = make_disjoint_scheme(6, 3, 2)
    for _ in range(20):
        perm = list(range(disjoint.l))
        rng.shuffle(perm)
        assert is_traceable_exact(relabel_keys(disjoint, perm), 3).verdict.is_true


@given(small_schemes(), st.data())
@settings(max_examples=200, deadline=None)
def test_relabelling_keys_keeps_verdict_and_witness_pirate(case, data):
    """Decoder i keeps its overlap with every pirate when the key labels are
    permuted, so the verdict is kept and the relabelled witness pirate still
    makes the trace accuse the witness outsider."""
    scheme, c = case
    perm = data.draw(st.permutations(range(scheme.l)))
    verdict = is_traceable_exact(scheme, c)
    relabelled = relabel_keys(scheme, perm)
    assert is_traceable_exact(relabelled, c).verdict.label == verdict.verdict.label
    if verdict.witness is not None:
        pirate = [perm[key] for key in verdict.witness.pirate]
        assert verdict.witness.outsider in trace(relabelled, pirate).argmax_decoders


@given(small_schemes())
@settings(max_examples=200, deadline=None)
def test_first_witness_size_fixes_the_verdict_in_c(case):
    """A refutation by j decoders is the verdict at every c' in [j, n], and
    the scheme is traceable at c' = j - 1."""
    scheme, c = case
    verdict = is_traceable_exact(scheme, c)
    if verdict.verdict.is_false:
        j = len(verdict.witness.coalition)
        for wider in range(j, scheme.n + 1):
            assert is_traceable_exact(scheme, wider) == verdict
        assert is_traceable_exact(scheme, j - 1).verdict.is_true


@given(small_schemes())
@settings(max_examples=400, deadline=None)
def test_sub_schemes_of_a_traceable_scheme_are_traceable(case):
    """Dropping decoders drops only outsiders, and no coalition's trace
    maximum, so every sub-scheme of a traceable scheme is traceable.  Each
    scheme is tried at the largest c it is traceable at, since most drawn
    schemes are traceable only at c = 1, where every scheme is."""
    scheme, _ = case
    verdict = is_traceable_exact(scheme, scheme.n)
    c = scheme.n if verdict.verdict.is_true else len(verdict.witness.coalition) - 1
    assert is_traceable_exact(scheme, c).verdict.is_true
    for size in range(1, scheme.n):
        for kept in itertools.combinations(scheme.decoders, size):
            assert is_traceable_exact(KeyScheme(scheme.l, kept), c).verdict.is_true


# ---------------------------------------------------------------------------
# disjoint construction and the upper bound
# ---------------------------------------------------------------------------


def test_make_disjoint_scheme():
    scheme = make_disjoint_scheme(256, 8, 32)
    assert scheme.l == 256 and scheme.n == 8 and scheme.k == 32
    assert make_disjoint_scheme(6, 3, 2).decoders == ({0, 1}, {2, 3}, {4, 5})
    with pytest.raises(DomainError):
        make_disjoint_scheme(5, 3, 2)


# ---------------------------------------------------------------------------
# scheme validation and text format
# ---------------------------------------------------------------------------


def test_scheme_validation():
    with pytest.raises(DomainError):
        KeyScheme(3, (frozenset({0, 1}), frozenset({0, 1})))
    with pytest.raises(DomainError):
        KeyScheme(3, (frozenset({0, 1}), frozenset({2,})))
    with pytest.raises(DomainError):
        KeyScheme(2, (frozenset({0, 5}),))


def test_parse_format_roundtrip():
    for scheme in (triangle(), make_disjoint_scheme(6, 3, 2), make_disjoint_scheme(256, 8, 32)):
        assert parse_scheme(format_scheme(scheme)) == scheme


def test_parse_errors():
    with pytest.raises(FormatError, match="header"):
        parse_scheme("# empty\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_scheme("3 1 2\n0 0\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_scheme("3 1 2\n0 1 2\n")
    with pytest.raises(FormatError, match="decoder lines"):
        parse_scheme("3 2 2\n0 1\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_scheme("3 1 2\nx y\n")
    # a few bytes asking for 20 key masks of 2^24 bits, more than 2^28 in all
    with pytest.raises(FormatError, match="line 1: n\\*l = 335544320 key-mask bits"):
        parse_scheme("16777216 20 1\n" + "".join(f"{i}\n" for i in range(20)))


@given(
    st.one_of(
        st.text(),
        st.text(alphabet="0123456789 -+x#\t\r\n", max_size=120),
        st.tuples(
            st.integers(-1, 8),
            st.integers(0, 3),
            st.integers(0, 4),
            st.lists(st.sets(st.integers(-2, 8), max_size=4).map(sorted), max_size=3),
        ).map(
            lambda t: f"{t[0]} {t[1]} {t[2]}\n"
            + "\n".join(" ".join(map(str, row)) for row in t[3])
        ),
    )
)
@settings(max_examples=600, deadline=None)
def test_parse_scheme_raises_only_format_errors(text):
    """Arbitrary text either parses or is refused with FormatError."""
    try:
        parse_scheme(text)
    except FormatError:
        pass
