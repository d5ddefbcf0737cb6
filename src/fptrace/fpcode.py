"""Fixed-length codes, coalition feasible sets, and frame-proof verification.

Two definitions of a coalition's feasible (descendant) set circulate:

* unanimity: positions where all coalition codewords agree are pinned to the
  shared symbol; every other position may take any alphabet symbol.
* coordinate-set: each position may take exactly the symbols that some
  coalition codeword shows there.

The coordinate-set feasible set is always contained in the unanimity one and
the two coincide over a binary alphabet, where a disagreeing position already
realizes both symbols.  A code is c-frame-proof when no coalition of at most
c codeword holders has another user's codeword inside its feasible set.

Verification is exact: coalitions are enumerated in ascending size and
lexicographic order within a size, outsiders in index order, so a reported
witness is deterministic.  A set of words is folded into the AND and OR of
their packed keys, and one rule per packing turns those into the (mask,
target) of a single integer test per (coalition, outsider): under unanimity
(and over a binary alphabet, under either definition) outsider x is framed
iff it matches the members wherever the AND and OR agree; under coordinate
sets with s > 2 iff none of x's (position, symbol) bits lies outside the
OR.  That test is the step of the shared step budget, read from
``rigor.DEFAULT_STEP_BUDGET`` when a check runs: one whose pair tests
exceed it is refused up front.  Framing only grows with the coalition (a
new member unpins positions or adds symbols), so an outsider that all the
other users together cannot frame is framed by none.  The same rule on
prefix and suffix folds finds those outsiders in O(n) integer operations;
the walk tests only the rest, and a code with none left is frame-proof
without a walk.
Verdicts, witnesses and budget refusals are those of a symbol-by-symbol
membership test on the coalition's per-position feasible symbols, which the
test suite keeps as the reference.
Words are tuples of symbols with position 0 leftmost in the textual format.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

# BudgetExceededError is imported for callers that catch it from this module.
from .rigor import (
    BudgetExceededError, DomainError, FormatError, coalitions, content_lines, refuse_over_budget
)

Word = Tuple[int, ...]

MAX_ALPHABET = 16

_SYMBOLS = "0123456789abcdef"
# symbol -> digit character: the one table for packing and for writing words
_DIGITS = bytes.maketrans(bytes(range(MAX_ALPHABET)), _SYMBOLS.encode())
# and back, reading a digit in either case; any other character is refused
_HEX = _SYMBOLS + _SYMBOLS[10:].upper()
_VALUES = bytes.maketrans(
    _HEX.encode(), bytes(range(MAX_ALPHABET)) + bytes(range(10, MAX_ALPHABET))
)
_NOT_A_SYMBOL = re.compile(f"[^{_HEX}]")


class FeasibleDefinition(Enum):
    UNANIMITY = "unanimity"
    COORDINATE_SET = "coordset"


@dataclass(frozen=True)
class Code:
    """A code: n distinct words of equal length over the alphabet 0..s-1."""

    codewords: Tuple[Word, ...]
    s: int = 2

    def __post_init__(self):
        object.__setattr__(self, "codewords", tuple(tuple(w) for w in self.codewords))
        if not self.codewords:
            raise DomainError("a code needs at least one codeword")
        if not 2 <= self.s <= MAX_ALPHABET:
            raise DomainError(f"alphabet size must be in [2, {MAX_ALPHABET}]")
        length = len(self.codewords[0])
        if length < 1:
            raise DomainError("codewords must be nonempty")
        for w in self.codewords:
            if len(w) != length:
                raise DomainError("codewords must all have the same length")
            for sym in w:
                if not 0 <= sym < self.s:
                    raise DomainError(f"symbol {sym} outside alphabet of size {self.s}")
        if len(set(self.codewords)) != len(self.codewords):
            raise DomainError("codewords must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.codewords)

    @property
    def length(self) -> int:
        return len(self.codewords[0])

    def __repr__(self) -> str:
        return f"Code(n={self.n}, l={self.length}, s={self.s})"


@dataclass(frozen=True)
class FrameWitness:
    coalition: Tuple[int, ...]
    framed: int


@dataclass(frozen=True)
class FrameproofVerdict:
    is_frameproof: bool
    witness: Optional[FrameWitness] = None


def _mask_test(code: Code, definition: FeasibleDefinition):
    """Codewords as ints, and a map from the AND and OR of a word set's keys
    to (mask, target) such that outsider x is in the set's feasible set iff
    ``keys[x] & mask == target``.

    Unanimity packs b = (s-1).bit_length() bits per position, symbol sym at
    bits b*i and up, and ``mask`` pins the positions where the AND and OR
    agree.  Coordinate sets with s > 2 set bit s*i + sym iff position i
    holds sym, and ``mask`` is the complement of the OR.
    """
    s, length = code.s, code.length
    if definition is FeasibleDefinition.COORDINATE_SET and s > 2:
        digits = [format(1 << sym, f"0{s}b") for sym in range(s)]
        keys = [int("".join(digits[sym] for sym in reversed(w)), 2) for w in code.codewords]
        full = (1 << (s * length)) - 1
        return keys, lambda conj, disj: (full ^ disj, 0)

    b = (s - 1).bit_length()
    keys = [int(bytes(reversed(w)).translate(_DIGITS), 1 << b) for w in code.codewords]
    group = (1 << b) - 1
    full = (1 << (b * length)) - 1
    low = full // group  # the lowest bit of every position's group

    def mask_of_folds(conj, disj):
        diff = conj ^ disj
        nonzero = diff
        for shift in range(1, b):
            nonzero |= diff >> shift
        pin = full ^ (nonzero & low) * group
        return pin, disj & pin

    return keys, mask_of_folds


def _live_outsiders(keys: list, mask_of_folds) -> list:
    """(x, keys[x]) for every x that the coalition of all other users
    frames, in index order, from prefix and suffix (AND, OR) folds."""
    after = [(-1, 0)]  # after[x] folds keys[x + 1:]
    for key in reversed(keys[1:]):
        conj, disj = after[-1]
        after.append((conj & key, disj | key))
    after.reverse()
    live = []
    conj, disj = -1, 0
    for x, (key, (after_and, after_or)) in enumerate(zip(keys, after)):
        mask, target = mask_of_folds(conj & after_and, disj | after_or)
        if key & mask == target:
            live.append((x, key))
        conj, disj = conj & key, disj | key
    return live


def is_frameproof(
    code: Code,
    c: int,
    definition: FeasibleDefinition = FeasibleDefinition.UNANIMITY,
) -> FrameproofVerdict:
    """Exact verdict: can any coalition of size <= c frame an outside user?

    Coalitions are walked, and walks over ``rigor.DEFAULT_STEP_BUDGET``
    refused up front, by :func:`rigor.coalitions`; the first violation found
    is returned as the witness, with the smallest framed outsider.  The walk
    skips, in the same order, the outsiders that all the other users
    together cannot frame, and is not needed when that leaves none.
    """
    _, walk = coalitions(code.n, c)
    keys, mask_of_folds = _mask_test(code, definition)
    live = _live_outsiders(keys, mask_of_folds)
    if not live:
        return FrameproofVerdict(True)
    for coalition in walk:
        conj = disj = keys[coalition[0]]
        for i in coalition[1:]:
            conj, disj = conj & keys[i], disj | keys[i]
        mask, target = mask_of_folds(conj, disj)
        for x, key in live:
            if key & mask == target and x not in coalition:
                return FrameproofVerdict(False, FrameWitness(coalition, x))
    return FrameproofVerdict(True)


def construct_identity_concat(
    m: int, ones: int, zeros: int, copies: int = 1
) -> Code:
    """Binary code of m words: ``copies`` identity blocks, then ``ones``
    all-one columns, then ``zeros`` all-zero columns.

    Every codeword has weight copies + ones; any two codewords differ in two
    positions per identity block, so the minimum distance is 2 * copies.
    """
    if m < 2:
        raise DomainError("identity construction needs m >= 2")
    if copies < 1:
        raise DomainError("copies must be >= 1")
    if ones < 0 or zeros < 0:
        raise DomainError("column counts must be nonnegative")
    rows = []
    for i in range(m):
        block = tuple(1 if j == i else 0 for j in range(m))
        rows.append(block * copies + (1,) * ones + (0,) * zeros)
    return Code(tuple(rows), 2)


def min_distance(code: Code) -> int:
    """Exact minimum pairwise Hamming distance; needs n >= 2.

    Words are packed as the coordinate-set test packs them: one bit per
    position when s = 2, so a differing position sets one bit of the XOR,
    and one-hot when s > 2, so it sets two.  Each of the C(n, 2) pairs is
    one step of the shared budget, refused up front by
    :func:`rigor.refuse_over_budget`.
    """
    if code.n < 2:
        raise DomainError("minimum distance needs at least two codewords")
    refuse_over_budget("minimum distance", math.comb(code.n, 2))
    keys, _ = _mask_test(code, FeasibleDefinition.COORDINATE_SET)
    bits = min((u ^ v).bit_count() for u, v in itertools.combinations(keys, 2))
    return bits // 2 if code.s > 2 else bits


def weight_set(code: Code) -> set:
    """Set of Hamming weights; a singleton means the code is constant-weight."""
    return {len(w) - w.count(0) for w in code.codewords}


# ---------------------------------------------------------------------------
# Text format: one word per line, '#' comments, position 0 leftmost
# ---------------------------------------------------------------------------


def parse_code(text: str) -> Code:
    """Parse the code file format.

    Lines hold equal-length words of symbols 0..s-1 (hex digits, in either
    case, for s > 10);
    '#' starts a comment and blank lines are ignored.  The alphabet size s
    is one more than the largest symbol present (minimum 2).
    """
    rows = []
    length = None
    for lineno, line in content_lines(text):
        bad = _NOT_A_SYMBOL.search(line)
        if bad:
            raise FormatError(f"line {lineno}: invalid symbol {bad.group()!r}")
        symbols = tuple(line.encode().translate(_VALUES))
        if length is None:
            length = len(symbols)
        elif len(symbols) != length:
            raise FormatError(f"line {lineno}: length {len(symbols)} differs from previous {length}")
        rows.append(symbols)
    if not rows:
        raise FormatError("no codewords found")
    s = max(2, max(max(w) for w in rows) + 1)
    try:
        return Code(tuple(rows), s)
    except DomainError as exc:
        raise FormatError(str(exc)) from exc


def format_code(code: Code) -> str:
    """Inverse of :func:`parse_code` (for codes that use their top symbol)."""
    lines = [f"# code: n={code.n} l={code.length} s={code.s}"]
    lines.extend(bytes(w).translate(_DIGITS).decode() for w in code.codewords)
    return "\n".join(lines) + "\n"
