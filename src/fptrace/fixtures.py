"""Built-in codes and schemes used by the reproduction commands.

Shipping these inside the package makes every headline verification a
single command with no input files.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .fpcode import Code, construct_identity_concat, format_code, parse_code
from .tascheme import KeyScheme, format_scheme, make_disjoint_scheme


def gamma64() -> Code:
    """Three codewords of length 64: three identity blocks, then 29 one
    columns and 26 zero columns.  Constant weight 32, minimum distance 6,
    and 2-frame-proof."""
    return construct_identity_concat(3, ones=29, zeros=26, copies=3)


def lemma3_g() -> Code:
    """The code {0011, 0110, 1100}: not 2-frame-proof (the outer pair's
    feasible set is the whole space, framing the middle word)."""
    return parse_code("0011\n0110\n1100")


def disjoint_256_8_32() -> KeyScheme:
    """Eight pairwise-disjoint decoders of 32 keys from a base set of 256."""
    return make_disjoint_scheme(256, 8, 32)


def disjoint_6_3_2() -> KeyScheme:
    """Tiny disjoint scheme {0,1}, {2,3}, {4,5}; exhaustively verifiable."""
    return make_disjoint_scheme(6, 3, 2)


def triangle() -> KeyScheme:
    """The scheme {0,1}, {1,2}, {0,2} on three keys: not 2-traceable (any
    pair of decoders can assemble the third)."""
    return KeyScheme(3, (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})))


CODES: Dict[str, callable] = {
    "gamma64": gamma64,
    "lemma3_G": lemma3_g,
}

SCHEMES: Dict[str, callable] = {
    "disjoint_256_8_32": disjoint_256_8_32,
    "disjoint_6_3_2": disjoint_6_3_2,
    "triangle": triangle,
}


def fixture_names() -> Tuple[str, ...]:
    return tuple(sorted(CODES)) + tuple(sorted(SCHEMES))


def emit(name: str) -> str:
    """The fixture's file, headed by its summary (round-trips through the parsers)."""
    if name in CODES:
        return format_code(CODES[name]())
    if name in SCHEMES:
        return format_scheme(SCHEMES[name]())
    raise KeyError(name)
