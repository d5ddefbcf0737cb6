"""Key-based traceability schemes and their verification.

A scheme assigns each of n decoders a distinct k-subset of a base key set of
size l.  A coalition of decoder holders can assemble a pirate decoder from
any k keys drawn from the union of their key sets.  Tracing accuses the
decoder(s) sharing the most keys with the pirate; the scheme is c-traceable
when, for every coalition of size at most c and every pirate it can build,
every maximum-overlap decoder belongs to the coalition.  A tie with an
outsider already defeats tracing under this (conservative) rule.

Three verifiers are provided: an exact search, a structural proof for
pairwise-disjoint decoders (a pirate's k keys force some member overlap of
at least ceil(k/c) >= 1 while every outsider overlaps 0), and seeded
Monte-Carlo falsification.  The exact search decides each (coalition,
outsider) pair on its own.  The pigeonhole bound above skips every outsider
sharing fewer than ceil(k/|C|) keys with the coalition's union; for the rest,
each overlap depends only on how many keys the pirate takes from each
signature class (the members holding a key, and whether the outsider does),
so count vectors over at most 2(2^|C| - 1) classes replace the C(|union|, k)
pirates.  Before any coalition is formed, one fold over the key masks finds
the keys that two or more decoders hold; a decoder holding fewer than
ceil(k/min(c, n)) of them is a rival of no coalition, so the cut tests only
the other, live decoders, and a scheme with none is traceable without a
walk.  The exact search shares the frame-proof verifier's step budget,
read from ``rigor.DEFAULT_STEP_BUDGET`` when it runs: one step per pair
test, plus one per count vector, and ``BudgetExceededError`` past it.

The sampler makes the same fold and draws nothing when no decoder is live;
otherwise it applies the same cut to each drawn coalition, and stops once
every coalition has been drawn without a rival.  Its draws, and so its
seeded verdicts, are those of tracing every trial.  It shares the step
budget too: each cut it may build counts n steps, one per decoder, whether
or not the fold leaves it live.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Iterable, Optional, Tuple

from . import rigor
from .rigor import BudgetExceededError, Certainty, DomainError, coalitions, refuse_over_budget


# Each decoder is held as an l-bit key mask, so a file may ask for at most
# this many mask bits in all.
MAX_KEY_BITS = 1 << 28


class SchemeFormatError(ValueError):
    """Malformed scheme file; the message names the offending line."""


@dataclass(frozen=True)
class KeyScheme:
    """n distinct decoders, each a k-subset of the keys 0..l-1."""

    l: int
    decoders: Tuple[frozenset, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "decoders", tuple(frozenset(d) for d in self.decoders)
        )
        if self.l < 1:
            raise DomainError("key count l must be >= 1")
        if not self.decoders:
            raise DomainError("a scheme needs at least one decoder")
        k = len(self.decoders[0])
        if k < 1:
            raise DomainError("decoders must be nonempty")
        for d in self.decoders:
            if len(d) != k:
                raise DomainError("decoders must all contain the same number of keys")
            for key in d:
                if not 0 <= key < self.l:
                    raise DomainError(f"key {key} outside [0, {self.l - 1}]")
        if len(set(self.decoders)) != len(self.decoders):
            raise DomainError("decoders must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.decoders)

    @property
    def k(self) -> int:
        return len(self.decoders[0])

    @cached_property
    def _masks(self) -> Tuple[int, ...]:
        return tuple(_key_mask(d) for d in self.decoders)

    def __repr__(self) -> str:
        return f"KeyScheme(l={self.l}, n={self.n}, k={self.k})"


@dataclass(frozen=True)
class TraceResult:
    max_overlap: int
    argmax_decoders: Tuple[int, ...]


@dataclass(frozen=True)
class TAWitness:
    coalition: Tuple[int, ...]
    pirate: Tuple[int, ...]
    outsider: int


@dataclass(frozen=True)
class TAVerdict:
    verdict: Certainty
    witness: Optional[TAWitness] = None
    detail: str = ""


def _key_mask(keys: Iterable[int]) -> int:
    """The int whose bit ``key`` is set for each key."""
    mask = 0
    for key in keys:
        mask |= 1 << key
    return mask


def _pirate_mask(scheme: KeyScheme, pirate: Iterable[int]) -> int:
    pirate = tuple(pirate)
    for key in pirate:
        if not 0 <= key < scheme.l:
            raise DomainError(f"pirate key {key} outside [0, {scheme.l - 1}]")
    if not pirate:
        raise DomainError("pirate key set must be nonempty")
    return _key_mask(pirate)


def trace(scheme: KeyScheme, pirate: Iterable[int]) -> TraceResult:
    """Maximum-overlap accusation: all decoders sharing the most keys."""
    pmask = _pirate_mask(scheme, pirate)
    overlaps = [(pmask & dm).bit_count() for dm in scheme._masks]
    best = max(overlaps)
    argmax = tuple(i for i, o in enumerate(overlaps) if o == best)
    return TraceResult(best, argmax)


def _tie_witness(scheme: KeyScheme, coalition: Tuple[int, ...], pirate) -> TAWitness:
    """The pirate's violation, traced once: its smallest outside
    maximum-overlap decoder.  A fast path hands over only pirates it found
    tied, so an untied one is a fault, not a verdict."""
    members = set(coalition)
    for i in trace(scheme, pirate).argmax_decoders:
        if i not in members:
            return TAWitness(coalition, pirate, i)
    raise RuntimeError(
        f"pirate {list(pirate)} of coalition {list(coalition)} "
        "failed its recheck: no outsider ties the trace"
    )


def _live_outsiders(masks: Tuple[int, ...], k: int, top: int) -> list:
    """The decoders that may be a rival of some coalition of at most ``top``
    members: those holding at least ceil(k/top) keys that another decoder
    also holds.  A coalition that leaves u out shares with u only such keys,
    and its floor ceil(k/|C|) is at least ceil(k/top), so any other decoder
    is a rival of no coalition.  One fold finds the keys held more than
    once."""
    once = shared = 0
    for mask in masks:
        shared |= once & mask
        once |= mask
    floor = -(-k // top)
    return [u for u, mask in enumerate(masks) if (mask & shared).bit_count() >= floor]


def _coalition_cut(masks: Tuple[int, ...], coalition: Tuple[int, ...], k: int, live: list):
    """The coalition's key-union mask and its rivals: the outsiders sharing
    at least ceil(k/|C|) keys with the union.  A pirate's k keys come from
    the |C| members, so some member overlaps it in at least that many keys,
    and no other outsider can tie it.  Only the ``live`` decoders of
    :func:`_live_outsiders` are tested; no other can be a rival."""
    union = 0
    for i in coalition:
        union |= masks[i]
    floor = -(-k // len(coalition))
    members = set(coalition)
    rivals = [
        u for u in live
        if u not in members and (masks[u] & union).bit_count() >= floor
    ]
    return union, rivals


def is_traceable_exact(scheme: KeyScheme, c: int) -> TAVerdict:
    """Exact verdict over every coalition of size <= c and every k-subset
    pirate from the coalition's key union, decided per (coalition C,
    outsider u) pair without building pirates.

    A pair is skipped when u shares fewer than ceil(k/|C|) keys with the
    union, because some member overlaps every pirate at least that much;
    otherwise a search over count vectors of the pair's signature classes
    decides it.  Only the decoders that :func:`_live_outsiders` leaves are
    tested, and with none left the verdict is CertifiedTrue without a walk.
    Coalitions are walked by :func:`rigor.coalitions`.  The witness is the
    first violating coalition, its lexicographically first violating pirate
    (built key by key) and that pirate's smallest outside maximum-overlap
    decoder: what enumerating the pirates in order would report first.  A
    step is one pair test or one count vector; the walk refuses up front,
    before the fold, when the full walk's pair tests alone exceed
    ``rigor.DEFAULT_STEP_BUDGET``, and ``BudgetExceededError`` is raised
    mid-search when the count vectors take the total past it.
    """
    pair_tests, walk = coalitions(scheme.n, c)
    masks, k = scheme._masks, scheme.k
    live = _live_outsiders(masks, k, min(c, scheme.n))
    search = _PairSearch(masks, k, pair_tests)
    for coalition in walk if live else ():
        union, rivals = _coalition_cut(masks, coalition, k, live)
        if any(search.can_tie(coalition, masks[u], 0, union, k) for u in rivals):
            pirate = search.first_pirate(coalition, rivals, union)
            return TAVerdict(
                Certainty.false(),
                _tie_witness(scheme, coalition, pirate),
                detail="exhaustive search found a tracing violation",
            )
    return TAVerdict(Certainty.true(), detail="exhaustive search found no violation")


class _PairSearch:
    """Decides whether an outsider can tie a coalition's trace, by count
    vectors over signature classes: the keys a set of members holds and the
    rest of the coalition lacks.  Each count vector visited adds one to
    ``steps``, which may not pass ``rigor.DEFAULT_STEP_BUDGET``."""

    def __init__(self, masks: Tuple[int, ...], k: int, steps: int):
        self.masks, self.k, self.steps = masks, k, steps

    def can_tie(self, coalition, rival: int, fixed: int, avail: int, need: int) -> bool:
        """Whether ``need`` keys of ``avail`` added to the keys ``fixed``
        give the decoder with key mask ``rival`` an overlap at least every
        member's.  Every key of ``fixed | avail`` must be a member's.

        Swapping a chosen key the rival lacks for an unchosen one it holds
        never lowers its margin over any member, so some best pirate takes
        min(need, |avail & rival|) of the rival's keys: either all of them
        plus keys it lacks, or ``need`` of them.  That leaves one choice,
        ``want`` keys from ``pool``, under a cap on each member's overlap.
        """
        held = avail & rival
        take = min(need, held.bit_count())
        if take < need:
            forced, pool, want = held, avail & ~rival, need - take
        else:
            forced, pool, want = 0, held, need
        chosen = fixed | forced
        level = (fixed & rival).bit_count() + take
        caps = []
        for i in coalition:
            cap = level - (chosen & self.masks[i]).bit_count()
            if cap < 0:
                return False
            caps.append(cap)
        return self._pack(self._classes(coalition, pool), tuple(caps), want)

    def _classes(self, coalition, pool: int) -> list:
        """(member positions, key count) of each nonempty signature class of
        ``pool``, fewest members first, found by AND/AND-NOT splits."""
        parts = [(pool, ())]
        for pos, i in enumerate(coalition):
            mask = self.masks[i]
            parts = [
                (keys, sig)
                for whole, sig0 in parts
                for keys, sig in ((whole & mask, sig0 + (pos,)), (whole & ~mask, sig0))
                if keys
            ]
        return sorted(((sig, keys.bit_count()) for keys, sig in parts), key=lambda sc: len(sc[0]))

    def _pack(self, classes: list, caps: tuple, want: int) -> bool:
        """Whether ``want`` keys can be taken from ``classes`` with member
        position p in at most ``caps[p]`` of them.  Each class first takes
        as many keys as it can, so the greedy choice is tried first; a
        vector is cut when the classes left, each limited by its size and
        its members' caps, cannot supply what is still wanted."""
        failed = set()

        def fill(at: int, want: int, caps: tuple) -> bool:
            if want == 0:
                return True
            state = (at, want, caps)
            if state in failed:
                return False
            self.steps += 1
            if self.steps > rigor.DEFAULT_STEP_BUDGET:
                raise BudgetExceededError(
                    f"exact verification ran past its budget of {rigor.DEFAULT_STEP_BUDGET} steps"
                )
            room = [min(size, *(caps[p] for p in sig)) for sig, size in classes[at:]]
            if sum(room) >= want:
                sig = classes[at][0]
                for x in range(min(room[0], want), -1, -1):
                    left = list(caps)
                    for p in sig:
                        left[p] -= x
                    if fill(at + 1, want - x, tuple(left)):
                        return True
            failed.add(state)
            return False

        return fill(0, want, caps)

    def first_pirate(self, coalition, rivals, union: int) -> Tuple[int, ...]:
        """The lexicographically first k keys of the key mask ``union`` that
        some rival ties: k times, the smallest next key after which a tying
        completion still exists.  The candidates are the union's bits from
        the lowest up; ``above`` holds those past the current one."""
        pirate, fixed, above = [], 0, union
        for need in range(self.k - 1, -1, -1):
            while above:
                key = above & -above
                above ^= key
                if any(self.can_tie(coalition, self.masks[u], fixed | key, above, need) for u in rivals):
                    break
            else:
                raise RuntimeError(f"no tying completion of pirate prefix {pirate}")
            pirate.append(key.bit_length() - 1)
            fixed |= key
        return tuple(pirate)


def is_traceable_structural_disjoint(scheme: KeyScheme, c: int) -> TAVerdict:
    """Structural verdict for pairwise-disjoint decoders.

    Any pirate's k keys come from at most c member decoders, so some member
    overlaps at least ceil(k/c) >= 1, while disjointness gives every outsider
    overlap 0.  The argument does not depend on c, so any c >= 1 certifies.

    One fold, :func:`_live_outsiders` at threshold 1, finds the decoders
    holding a key that another decoder holds.  The first of them opens the
    lexicographically first sharing pair (an earlier holder of its key
    would be found too), which the refusal names with its smallest key.
    """
    if c < 1:
        raise DomainError("coalition bound c must be >= 1")
    masks = scheme._masks
    sharing = _live_outsiders(masks, 1, 1)
    if sharing:
        i = sharing[0]
        j = next(j for j in sharing[1:] if masks[i] & masks[j])
        both = masks[i] & masks[j]
        raise DomainError(
            f"decoders {i} and {j} share key {(both & -both).bit_length() - 1}; "
            "the structural argument needs pairwise-disjoint decoders"
        )
    return TAVerdict(
        Certainty.true(),
        detail="pairwise-disjoint decoders: outsiders overlap 0, "
        "some member overlaps >= ceil(k/c) >= 1",
    )


def sample_traceability(
    scheme: KeyScheme, c: int, trials: int, seed: int
) -> TAVerdict:
    """Seeded Monte-Carlo falsifier.

    Per trial, drawing from one ``random.Random(seed)`` stream in a fixed
    order: coalition size uniform in [2, min(c, n)], then a uniform coalition
    of that size, then a uniform k-subset of the coalition's sorted key
    union.  Only a rival, an outsider sharing at least ceil(k/|C|) keys with
    the union, can tie a pirate, so a pirate is traced only when a rival
    reaches the best member overlap.  Only the decoders that
    :func:`_live_outsiders` leaves can be rivals; with none, no trial could
    violate and none is drawn.  With no more coalitions than trials, each
    coalition's cut is kept, and drawing stops once every coalition has been
    drawn and none has a rival: no later trial could violate.  None of this
    changes the draws before a violation or their order, so the verdict is
    that of tracing every trial.  A rival at or above the best member
    overlap is always a maximum-overlap decoder, so the witness comes from
    one direct :func:`trace` call, which raises if no outsider ties.
    Sampling can only certify falsehood; with no violation found the
    verdict stays Unresolved.  It builds at most min(trials, coalitions)
    cuts of n steps each, refused up front by
    :func:`rigor.refuse_over_budget` before the fold.
    """
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
    masks = scheme._masks
    total = 0
    for j in range(2, top + 1):
        total += comb(n, j)
        if total > trials:  # at large n and c the full sum takes seconds
            break
    keep = total <= trials
    refuse_over_budget("sampling", min(trials, total) * n)
    live = _live_outsiders(masks, k, top)
    cuts: dict = {}
    for t in range(trials if live else 0):
        size = rng.randint(2, top)
        coalition = tuple(sorted(rng.sample(range(n), size)))
        cut = cuts.get(coalition)
        if cut is None:
            keys = sorted(frozenset().union(*(scheme.decoders[i] for i in coalition)))
            cut = keys, _coalition_cut(masks, coalition, k, live)[1]
            if keep:
                cuts[coalition] = cut
                if len(cuts) == total and not any(rivals for _, rivals in cuts.values()):
                    break
        keys, rivals = cut
        drawn = rng.sample(keys, k)
        if not rivals:
            continue
        pmask = _key_mask(drawn)
        best = max((pmask & masks[i]).bit_count() for i in coalition)
        if all((pmask & masks[u]).bit_count() < best for u in rivals):
            continue
        return TAVerdict(
            Certainty.false(),
            _tie_witness(scheme, coalition, tuple(sorted(drawn))),
            detail=f"violation at trial {t} of {trials} (seed {seed})",
        )
    return TAVerdict(
        Certainty.unresolved(),
        detail=f"0 violations in {trials} trials (seed {seed})",
    )


def make_disjoint_scheme(l: int, n: int, k: int) -> KeyScheme:
    """Scheme whose decoder i holds keys i*k .. i*k + k - 1; needs n*k <= l."""
    if n < 1 or k < 1:
        raise DomainError("need n >= 1 and k >= 1")
    if n * k > l:
        raise DomainError(f"disjoint scheme needs n*k <= l, got {n * k} > {l}")
    decoders = tuple(frozenset(range(i * k, (i + 1) * k)) for i in range(n))
    return KeyScheme(l, decoders)


# ---------------------------------------------------------------------------
# Text format: header "l n k", then one sorted decoder per line
# ---------------------------------------------------------------------------


def parse_scheme(text: str) -> KeyScheme:
    """Parse the scheme file format.

    First non-comment line is "l n k"; then n lines each listing k strictly
    increasing 0-based key indices.  '#' starts a comment.
    """
    header = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values = [int(tok) for tok in line.split()]
        except ValueError:
            raise SchemeFormatError(f"line {lineno}: expected integers") from None
        if header is None:
            if len(values) != 3:
                raise SchemeFormatError(f"line {lineno}: header must be 'l n k'")
            header = (lineno, values)
            continue
        rows.append((lineno, values))
    if header is None:
        raise SchemeFormatError("missing 'l n k' header line")
    l, n, k = header[1]
    if n * l > MAX_KEY_BITS:
        raise SchemeFormatError(
            f"line {header[0]}: n*l = {n * l} key-mask bits, more than 2^28"
        )
    if len(rows) != n:
        raise SchemeFormatError(f"expected {n} decoder lines, found {len(rows)}")
    decoders = []
    for lineno, values in rows:
        if len(values) != k:
            raise SchemeFormatError(f"line {lineno}: expected {k} keys, found {len(values)}")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise SchemeFormatError(f"line {lineno}: keys must be strictly increasing")
        decoders.append(frozenset(values))
    try:
        return KeyScheme(l, tuple(decoders))
    except DomainError as exc:
        raise SchemeFormatError(str(exc)) from exc


def format_scheme(scheme: KeyScheme) -> str:
    """Inverse of :func:`parse_scheme`."""
    lines = [f"# scheme: l={scheme.l} n={scheme.n} k={scheme.k}"]
    lines.append(f"{scheme.l} {scheme.n} {scheme.k}")
    lines.extend(" ".join(str(key) for key in sorted(d)) for d in scheme.decoders)
    return "\n".join(lines) + "\n"
