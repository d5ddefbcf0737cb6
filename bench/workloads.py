"""Seeded inputs, the library call and the verdict check for every task.

A workload is a sequence of rounds.  Every round has the same fixed mix of
task templates; the seed draws the concrete instances (permutations, random
columns, parameters, rationals) and the order of the light tasks, so runs
with different seeds do the same kind and amount of work.  Specs are plain
data, so their digest pins the generated inputs; ``build`` turns a spec into
fptrace objects, ``call`` makes exactly one library call, and ``check``
judges the verdict against ``oracle``.

Why each workload exists, the layers it loads and the layers it bypasses:

* verify: fpcode and tascheme do nearly all the work; rigor, bounds and
  paramscan are bypassed.  Full coalition walks (constructed positives) and
  early exits (planted negatives) use the same enumeration in two ways.
* certify: bounds, paramscan and rigor at 64 bits, where Fraction arithmetic
  dominates; fpcode is bypassed.  Round r runs at 64 + r bits so every round
  starts from cold enclosure caches instead of replaying the previous one.
* precision: rigor at 256-4096 bits, the high-precision series kernel, kept
  apart from certify so a gain at 4096 bits cannot net out a loss at 64.
* cli: the README commands as fresh interpreters; start-up, import and
  rendering dominate, so it is the control on which kernel changes must not
  show.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

import oracle

from fptrace import bounds, fpcode, paramscan, rigor, tascheme

# Seconds one round takes with the seed code on the baseline machine, with
# round 0's extra tasks spread over the rounds (see README.md).  A run
# replays its rounds REPLAYS times, so each replay gets
# round(seconds / replays / ROUND_SECONDS) rounds, and at least enough for
# MIN_VERDICTS verdicts, so that ten samples lie beyond the 90th percentile.
# More replays bring each verdict's fastest time nearer the host's floor.
# verify's replays are the longest in-process ones, so it gets four; cli
# gets two, as one replay is already 100+ subprocess launches (15-20 s),
# but a single launch's time swings too much to take as it comes.
ROUND_SECONDS = {"verify": 1.85, "certify": 0.75, "precision": 1.0, "cli": 3.3}
REPLAYS = {"verify": 4, "certify": 8, "precision": 5, "cli": 2}
# Light replays run every task but the HEAVY_KINDS ones, on a fresh import
# of fptrace in one interpreter, LIGHT_REPLAYS of them after each full
# replay.  certify's median falls on tasks of well under a millisecond,
# whose fastest of five replays still swings with the host; the fastest of
# many is what holds still.
HEAVY_KINDS = frozenset({"scan", "collapse"})
LIGHT_REPLAYS = {"verify": 0, "certify": 10, "precision": 0, "cli": 0}
MIN_VERDICTS = 100


@dataclass
class Outcome:
    ok: bool
    decided: bool
    note: str = ""
    counters: dict = field(default_factory=dict)


def rounds_for(workload: str, seconds: float) -> int:
    per_round = len(make_round(workload, 0, 1))
    return max(round(seconds / REPLAYS[workload] / ROUND_SECONDS[workload]),
               -(-MIN_VERDICTS // per_round))


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def digest(specs) -> str:
    blob = json.dumps(specs, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def make_round(workload: str, seed: int, index: int, traced_run: bool = False) -> list:
    rng = round_rng(workload, seed, index)
    specs = _GENERATORS[workload](rng, seed, index)
    if traced_run and index == 0:
        specs += [dict(spec) for spec in TRACED_ROUND0.get(workload, ())]
    return specs


def _interleave(rng, light, heavy):
    """Shuffle the light tasks and spread the heavy ones, in their fixed
    order, evenly among them (so their cache state does not depend on the
    seed)."""
    rng.shuffle(light)
    out = list(light)
    step = max(1, len(out) // (len(heavy) + 1))
    for i, task in enumerate(heavy):
        out.insert((i + 1) * step + i, task)
    return out


# ---------------------------------------------------------------------------
# verify: fpcode and tascheme
# ---------------------------------------------------------------------------

# The verify mix is tiered by cost so that the median and the 90th
# percentile each fall inside a group of similar tasks rather than on the
# edge between two groups: 13 tasks under ~3 ms, 11 around 12 ms, 5 around
# 40-90 ms and 7 around 150-250 ms per round.

# (n, l, c, s, definition): identity-block positives force the full walk.
FP_POSITIVE = (
    (20, 32, 2, 2, "coordset"), (20, 32, 2, 4, "unanimity"),
    (20, 40, 2, 3, "coordset"), (12, 24, 3, 3, "coordset"),
    (22, 32, 2, 2, "unanimity"), (12, 16, 3, 2, "unanimity"),
    (24, 32, 2, 3, "unanimity"), (14, 20, 3, 4, "unanimity"),
    (18, 24, 2, 2, "unanimity"),
    (28, 56, 2, 3, "coordset"), (16, 32, 3, 3, "coordset"),
    (32, 96, 2, 2, "unanimity"),
    (20, 64, 3, 2, "unanimity"), (40, 128, 2, 2, "coordset"),
    (24, 48, 3, 4, "unanimity"), (40, 80, 2, 4, "unanimity"),
)
# (n, l, c, s, definition): random codes with a framed word planted for a
# pair whose first member is word 0 or 1, so the walk exits early.
FP_NEGATIVE = (
    (12, 16, 2, 2, "unanimity"), (20, 40, 3, 3, "coordset"),
    (32, 96, 2, 4, "unanimity"), (40, 128, 3, 2, "coordset"),
)


def _fp_positive(rng, n, l, c, s, definition):
    spare = l - n
    ones = rng.randint(0, spare // 2)
    zeros = rng.randint(0, spare - ones)
    extra = spare - ones - zeros
    perm = list(range(l))
    rng.shuffle(perm)
    return {"kind": "fp", "expect": True, "n": n, "c": c, "s": s,
            "definition": definition, "ones": ones, "zeros": zeros,
            "extra": [[rng.randrange(s) for _ in range(extra)] for _ in range(n)],
            "perm": perm}


def _fp_negative(rng, n, l, c, s, definition):
    while True:
        words = [[rng.randrange(s) for _ in range(l)] for _ in range(n)]
        first = rng.randrange(2)
        members = [first, rng.randrange(first + 1, n)]
        framed = rng.choice([i for i in range(n) if i not in members])
        planted = []
        for position in range(l):
            seen = sorted({words[i][position] for i in members})
            if len(seen) == 1:
                planted.append(seen[0])
            elif definition == "coordset":
                planted.append(rng.choice(seen))
            else:
                planted.append(rng.randrange(s))
        words[framed] = planted
        if len({tuple(w) for w in words}) == n:
            return {"kind": "fp", "expect": False, "c": c, "s": s,
                    "definition": definition, "words": words}


def _disjoint(rng, l, n, k):
    keys = rng.sample(range(l), n * k)
    return [sorted(keys[i * k:(i + 1) * k]) for i in range(n)]


def _polynomial(rng, p, n):
    """Decoders {(x, f(x))} of n distinct degree-1 polynomials over GF(p),
    key (x, y) numbered x*p + y.  Two decoders share at most one key, so
    with c*c < p the scheme is c-traceable."""
    polys = set()
    while len(polys) < n:
        polys.add((rng.randrange(p), rng.randrange(p)))
    order = sorted(polys)
    rng.shuffle(order)
    return [sorted(x * p + (b + m * x) % p for x in range(p)) for b, m in order]


def _planted_overlap(rng, l, n, k):
    """Random k-subsets plus one decoder assembled from two others' keys,
    so that pair of decoders can build a pirate that frames it."""
    while True:
        decoders = set()
        while len(decoders) < n - 1:
            decoders.add(tuple(sorted(rng.sample(range(l), k))))
        decoders = sorted(decoders)
        a, b = rng.sample(decoders, 2)
        planted = tuple(sorted(rng.sample(sorted(set(a) | set(b)), k)))
        if planted not in decoders:
            decoders.insert(rng.randrange(n), planted)
            return [list(d) for d in decoders]


def _verify_round(rng, seed, index):
    tasks = [_fp_positive(rng, *t) for t in FP_POSITIVE]
    tasks += [_fp_negative(rng, *t) for t in FP_NEGATIVE]
    for l, n, k, c in ((16, 5, 3, 2), (20, 4, 4, 3)):
        tasks.append({"kind": "ta_exact", "expect": True, "c": c, "l": l,
                      "decoders": _disjoint(rng, l, n, k)})
    for p, n, c in ((5, 10, 2), (5, 10, 2), (7, 6, 2)):
        tasks.append({"kind": "ta_exact", "expect": True, "c": c, "l": p * p,
                      "decoders": _polynomial(rng, p, n)})
    for l, n, k, c in ((12, 8, 4, 2), (16, 10, 5, 2), (10, 6, 3, 3)):
        tasks.append({"kind": "ta_exact", "expect": False, "c": c, "l": l,
                      "decoders": _planted_overlap(rng, l, n, k)})
    # Over the step budget today (Unresolved); traceable, so never False.
    tasks.append({"kind": "ta_exact", "expect": True, "c": 3, "l": 13 * 13,
                  "decoders": _polynomial(rng, 13, 10)})
    for l, n, k, c in ((256, 8, 32, 4), (96, 6, 12, 3)):
        tasks.append({"kind": "ta_structural", "c": c, "l": l,
                      "decoders": _disjoint(rng, l, n, k)})
    for l, n, k, c in ((64, 8, 8, 3), (48, 6, 8, 2)):
        tasks.append({"kind": "ta_sample", "expect": True, "c": c, "l": l,
                      "trials": 10000, "seed": rng.randrange(1 << 30),
                      "decoders": _disjoint(rng, l, n, k)})
    for l, n, k, c in ((12, 6, 4, 2), (16, 8, 4, 3)):
        tasks.append({"kind": "ta_sample", "expect": False, "c": c, "l": l,
                      "trials": 10000, "seed": rng.randrange(1 << 30),
                      "decoders": _planted_overlap(rng, l, n, k)})
    rng.shuffle(tasks)
    return tasks


def _build_code(spec):
    if "words" in spec:
        return fpcode.Code(tuple(tuple(w) for w in spec["words"]), spec["s"])
    base = fpcode.construct_identity_concat(spec["n"], spec["ones"], spec["zeros"])
    rows = [row + tuple(extra) for row, extra in zip(base.codewords, spec["extra"])]
    return fpcode.Code(tuple(tuple(row[p] for p in spec["perm"]) for row in rows), spec["s"])


def _call_fp(spec, code):
    definition = fpcode.FeasibleDefinition(spec["definition"])
    try:
        return fpcode.is_frameproof(code, spec["c"], definition)
    except fpcode.BudgetExceededError as exc:
        return exc


def _check_fp(spec, code, verdict):
    n, c = code.n, spec["c"]
    counters = {"qary": code.s > 2}
    if isinstance(verdict, fpcode.BudgetExceededError):
        return Outcome(True, False, "budget refused", {**counters, "refused": 1})
    if verdict.is_frameproof:
        counters["pair_checks"] = oracle.pair_checks(n, c)
        ok = spec["expect"]
        return Outcome(ok, True, "" if ok else "planted framing missed", counters)
    w = verdict.witness
    counters["pair_checks"] = oracle.pair_checks(n, c, w.coalition, w.framed)
    if spec["expect"]:
        return Outcome(False, True, "constructed frame-proof code came back False", counters)
    ok = oracle.frame_witness_ok(code.codewords, c, spec["definition"], w.coalition, w.framed)
    return Outcome(ok, True, "" if ok else f"witness {w} does not frame", counters)


def _build_scheme(spec):
    return tascheme.KeyScheme(spec["l"], tuple(frozenset(d) for d in spec["decoders"]))


def _call_ta_exact(spec, scheme):
    return tascheme.is_traceable_exact(scheme, spec["c"])


def _call_ta_structural(spec, scheme):
    return tascheme.is_traceable_structural_disjoint(scheme, spec["c"])


def _call_ta_sample(spec, scheme):
    return tascheme.sample_traceability(scheme, spec["c"], spec["trials"], spec["seed"])


def _ta_outcome(spec, scheme, verdict, counters):
    label = verdict.verdict.label
    if label == "Unresolved":
        return Outcome(True, False, "unresolved", counters)
    if label == "CertifiedTrue":
        ok = spec.get("expect", True)
        return Outcome(ok, True, "" if ok else "planted violation missed", counters)
    w = verdict.witness
    if spec.get("expect", True) or w is None:
        return Outcome(False, True, "traceable scheme came back CertifiedFalse", counters)
    ok = oracle.ta_witness_ok(scheme.decoders, spec["c"], w.coalition, w.pirate, w.outsider)
    return Outcome(ok, True, "" if ok else f"witness {w} does not defeat tracing", counters)


def _check_ta_exact(spec, scheme, verdict):
    counters = {"method": "exact"}
    if verdict.verdict.is_unresolved:
        counters["refused"] = 1
    else:
        w = verdict.witness
        counters["pirates"] = oracle.pirates_examined(
            scheme.decoders, spec["c"], None if w is None else (w.coalition, w.pirate))
    return _ta_outcome(spec, scheme, verdict, counters)


def _check_ta_structural(spec, scheme, verdict):
    return _ta_outcome(spec, scheme, verdict, {"method": "structural"})


def _check_ta_sample(spec, scheme, verdict):
    counters = {"method": "sample", "trials": spec["trials"]}
    if verdict.witness is not None:
        first = oracle.first_sampled_violation(
            scheme.decoders, spec["c"], spec["trials"], spec["seed"])
        if first is not None:
            counters["trials"] = first + 1
    return _ta_outcome(spec, scheme, verdict, counters)


# ---------------------------------------------------------------------------
# certify: bounds, paramscan and rigor at 64 bits
# ---------------------------------------------------------------------------

PRIME_POWERS = (16, 25, 27, 32, 49, 64, 81, 121, 125, 128, 169, 243, 256,
                289, 343, 512, 625, 729, 1024, 2048, 4096)
SCAN_GRIDS = ((64, "thm10"), (64, "thm11"), (128, "thm10"), (128, "thm11"))
# The 256-grid scans give the scaling point paramscan.scan_s.grid256, but
# they take half a full replay's time.  Timing them in every replay would
# halve the replays that the 90th percentile and the throughput rest on,
# and two such calls would make up half the throughput's time, so only a
# --trace 1 run (both its replays) runs them, at the end of round 0.
TRACED_ROUND0 = {"certify": tuple({"kind": "scan", "grid": 256, "mode": mode, "bits": 64}
                                  for mode in ("thm10", "thm11"))}
README_THM6 = {"q": 64, "delta": 3, "c": 2, "sigma": "7/64", "l": 64, "s": 2}
README_THM7 = {"q": 256, "delta": 3, "c": 4, "sigma": "9/256", "l": 256, "k": 32}


def _sigma(rng):
    return str(Fraction(rng.randint(1, 96), 64 * rng.randint(1, 4)))


def _thm6_draw(rng):
    while True:
        q = rng.choice(PRIME_POWERS)
        c = rng.randint(2, 5)
        w = rng.randint(1, max(1, min(q // c, 64)))
        p = {"q": q, "delta": rng.randint(1, 4), "c": c, "sigma": _sigma(rng),
             "l": c * w, "s": rng.choice((2, 2, 3))}
        gap = oracle.thm6_gap(p["q"], p["delta"], c, Fraction(p["sigma"]), p["l"], p["s"])
        if abs(gap) > 1e-3:
            return p


def _thm7_draw(rng):
    while True:
        q = rng.choice(PRIME_POWERS)
        c = rng.randint(2, 4)
        k = rng.randint(1, 32) * (1 if c % 2 == 0 else 2)
        l = c * c * k // 2
        if l > q or k > l:
            continue
        p = {"q": q, "delta": rng.randint(1, 4), "c": c, "sigma": _sigma(rng),
             "l": l, "k": k}
        gap = oracle.thm7_gap(q, p["delta"], c, Fraction(p["sigma"]), l, k)
        if abs(gap) > 1e-3:
            return p


def _sigma_draw(rng):
    while True:
        l = rng.randint(2, 4096)
        sigma = Fraction(rng.randint(1, 300), 1000)
        if min(abs(m) for m in oracle.sigma_margins(l, sigma)) > 1e-6:
            return {"kind": "sigma", "l": l, "sigma": str(sigma)}


def _either_or_draw(rng):
    while True:
        w, a, delta = rng.randint(1, 64), rng.randint(2, 64), rng.randint(1, 48)
        if abs(delta - oracle.window_upper(w, a)) > 1e-6:
            return {"kind": "either_or", "w": w, "a": a, "delta": delta}


def _certify_round(rng, seed, index):
    bits = 64 + index
    light = []
    for i in range(12):
        p = README_THM6 if index == 0 and i == 0 else _thm6_draw(rng)
        light.append({"kind": "thm6", "bits": bits, **p})
    for i in range(12):
        p = README_THM7 if index == 0 and i == 0 else _thm7_draw(rng)
        light.append({"kind": "thm7", "bits": bits, **p})
    light += [{**_sigma_draw(rng), "bits": bits} for _ in range(6)]
    light += [{**_either_or_draw(rng), "bits": bits} for _ in range(8)]
    heavy = [{"kind": "collapse", "bits": bits}]
    heavy += [{"kind": "scan", "grid": g, "mode": m, "bits": bits} for g, m in SCAN_GRIDS]
    return _interleave(rng, light, heavy)


def _build_thm6(spec):
    return bounds.Thm6Params(q=spec["q"], delta=spec["delta"], c=spec["c"],
                             sigma=Fraction(spec["sigma"]), l=spec["l"],
                             w=spec["l"] // spec["c"])


def _build_thm7(spec):
    return bounds.Thm7Params(q=spec["q"], delta=spec["delta"], c=spec["c"],
                             sigma=Fraction(spec["sigma"]), l=spec["l"], k=spec["k"])


def _call_thm6(spec, params):
    return bounds.contradiction_report_thm6(params, spec.get("s", 2), spec["bits"])


def _call_thm7(spec, params):
    return bounds.contradiction_report_thm7(params, spec["bits"])


def _report_sides_ok(spec, report, a):
    """The lower enclosure holds the float claimed lower bound, and the
    sigma verdict agrees with float margins."""
    lower = oracle.claimed_lower_log2(spec["q"], spec["delta"], a,
                                      Fraction(spec["sigma"]), spec["l"])
    if not oracle.encloses(report.lower_log2.lo, report.lower_log2.hi, lower):
        return f"lower enclosure misses {lower}"
    margins = oracle.sigma_margins(spec["l"], Fraction(spec["sigma"]))
    if min(abs(m) for m in margins) > oracle.GAP_TOLERANCE:
        want = "CertifiedTrue" if min(margins) > 0 else "CertifiedFalse"
        if report.sigma_certainty.label != want:
            return f"sigma constraint {report.sigma_certainty} but floats say {want}"
    return ""


def _check_gap(spec, report, gap, a):
    label = report.contradiction.label
    decided = label != "Unresolved"
    if abs(gap) > oracle.GAP_TOLERANCE:
        want = "CertifiedTrue" if gap > 0 else "CertifiedFalse"
        if label != want:
            return Outcome(False, decided, f"contradiction {label}, float gap {gap}")
    elif label == "CertifiedFalse":
        return Outcome(False, decided, f"near-tie came back CertifiedFalse (gap {gap})")
    problem = _report_sides_ok(spec, report, a)
    return Outcome(not problem, decided, problem)


def _check_thm6(spec, params, report):
    gap = oracle.thm6_gap(spec["q"], spec["delta"], spec["c"], Fraction(spec["sigma"]),
                          spec["l"], spec.get("s", 2))
    return _check_gap(spec, report, gap, spec["c"])


def _check_thm7(spec, params, report):
    gap = oracle.thm7_gap(spec["q"], spec["delta"], spec["c"], Fraction(spec["sigma"]),
                          spec["l"], spec["k"])
    return _check_gap(spec, report, gap, spec["c"] * spec["c"])


def _call_sigma(spec, _):
    return bounds.sigma_constraint(spec["l"], Fraction(spec["sigma"]), spec["bits"])


def _check_sigma(spec, _, certainty):
    margins = oracle.sigma_margins(spec["l"], Fraction(spec["sigma"]))
    want = "CertifiedTrue" if min(margins) > 0 else "CertifiedFalse"
    ok = certainty.label == want
    return Outcome(ok, not certainty.is_unresolved, "" if ok else f"{certainty} != {want}")


def _call_either_or(spec, _):
    return paramscan.either_or_classify(spec["w"], spec["a"], spec["delta"], spec["bits"])


def _check_either_or(spec, _, result):
    w, a, delta = spec["w"], spec["a"], spec["delta"]
    left = oracle.window_lower(w, a) < delta
    right = delta <= oracle.window_upper(w, a)
    want = {(True, True): "Both", (True, False): "LeftOnly",
            (False, True): "RightOnly", (False, False): "Neither"}[(left, right)]
    ok = result.value == want
    return Outcome(ok, True, "" if ok else f"{result.value} != {want}")


def _call_collapse(spec, _):
    return paramscan.theorem10_statement_collapse(spec["bits"])


def _check_collapse(spec, _, report):
    ok = report.collapse_certified
    return Outcome(ok, ok, "" if ok else "statement collapse not certified")


def _call_scan(spec, _):
    return paramscan.scan_infeasibility(
        spec["grid"], spec["grid"], paramscan.ScanMode(spec["mode"]), spec["bits"])


def _check_scan(spec, _, report):
    grid = spec["grid"]
    count = oracle.thm10_windows if spec["mode"] == "thm10" else oracle.thm11_windows
    counters = {"windows": report.windows_checked,
                "grid_points": grid * (grid - 1) if spec["mode"] == "thm10"
                else grid * (math.isqrt(grid) - 1)}
    if not report.certified_infeasible:
        return Outcome(False, not report.verdict.is_unresolved,
                       f"scan verdict {report.verdict}", counters)
    if report.windows_checked != count(grid, grid):
        return Outcome(False, True, f"{report.windows_checked} windows checked, "
                       f"expected {count(grid, grid)}", counters)
    return Outcome(True, True, "", counters)


# ---------------------------------------------------------------------------
# precision: rigor at 256-4096 bits
# ---------------------------------------------------------------------------

# Counts per round are chosen so the median falls inside the group of
# 1024-bit log2 calls (ranks 9-18 of 29) and the 90th percentile inside the
# group of 4096-bit calls and the longest near-ties (ranks 23-29).
LOG2_BITS = (64, 64, 256, 256) + (1024,) * 9 + (4096, 4096)
ENTROPY_BITS = (256, 256, 2048, 2048, 4096, 4096)
NEAR_TIE_EXPONENTS = tuple(range(7, 15))


def _rational(rng, low=False):
    """A 40-bit rational whose binary mantissa lies in [1.40, 1.45): the
    series cost of log2 depends on the mantissa, so a narrow band keeps the
    work per call alike across seeds.  With ``low`` it lies in [0.35, 0.36),
    where 1 - x has a narrow mantissa band too (entropy takes both logs)."""
    den = rng.randint(1 << 39, 1 << 40)
    if low:
        return str(Fraction(rng.randint(35 * den // 100, 36 * den // 100 - 1), den))
    mantissa = Fraction(rng.randint(140 * den // 100, 145 * den // 100 - 1), den)
    return str(mantissa * Fraction(2) ** rng.randint(-20, 20))


def _near_tie(rng, m, index):
    """c = 2, delta = 1, sigma = 1/2 - 1/l: the claimed lower bound is
    exactly l/2 + 1 and the upper bound falls short of it by about
    1.44 * 2^(-l/2).  Below 2^14 the lengths step down from 2^m so the gap
    only widens; at 2^14 they step up so it stays below the 4096-bit cap.
    The step grows with the round index, so no length repeats in a run."""
    j = 2 * index + rng.randint(0, 1)
    l = (1 << m) + 2 * j if m >= 14 else (1 << m) - 2 * j
    q = 1 << ((l - 1).bit_length() + rng.randint(0, 2))
    return {"kind": "near_tie", "q": q, "delta": 1, "c": 2,
            "sigma": str(Fraction(1, 2) - Fraction(1, l)), "l": l, "s": 2,
            "bits": 64}


def _precision_round(rng, seed, index):
    light = [{"kind": "log2", "x": _rational(rng), "bits": b} for b in LOG2_BITS]
    light += [{"kind": "entropy", "x": _rational(rng, low=True), "bits": b}
              for b in ENTROPY_BITS]
    light += [_near_tie(rng, m, index) for m in NEAR_TIE_EXPONENTS]
    heavy = []
    if index == 0:
        heavy = [{"kind": "scan", "grid": 64, "mode": m, "bits": 1024}
                 for m in ("thm10", "thm11")]
    return _interleave(rng, light, heavy)


def _call_log2(spec, x):
    return rigor.log2_enclosure(x, spec["bits"])


def _call_entropy(spec, x):
    return rigor.entropy_enclosure(x, spec["bits"])


def _check_enclosure(spec, x, enc):
    value = oracle.log2_rational(x) if spec["kind"] == "log2" else oracle.entropy(x)
    if enc.hi - enc.lo > Fraction(1, 1 << spec["bits"]):
        return Outcome(False, True, f"width above 2^-{spec['bits']}")
    ok = oracle.encloses(enc.lo, enc.hi, value)
    return Outcome(ok, True, "" if ok else f"enclosure misses {value}")


def _check_near_tie(spec, params, report):
    label = report.contradiction.label
    if label == "CertifiedFalse":
        return Outcome(False, True, "near-tie came back CertifiedFalse")
    exact_lower = Fraction(spec["l"], 2) + 1
    if not report.lower_log2.lo <= exact_lower <= report.lower_log2.hi:
        return Outcome(False, label != "Unresolved", f"lower bound misses {exact_lower}")
    return Outcome(True, label != "Unresolved")


# ---------------------------------------------------------------------------
# cli: the README commands as fresh interpreters
# ---------------------------------------------------------------------------

LEMMA3_G = ("0011", "0110", "1100")
TRIANGLE = ({0, 1}, {1, 2}, {0, 2})
FIXTURE_NAMES = ("disjoint_256_8_32", "gamma64", "lemma3_G", "triangle")
SAMPLE_TRIALS = 200


def cli_commands(seed: int) -> list:
    rng = round_rng("cli", seed, -1)
    x = _rational(rng, low=True)
    sample_seed = str(rng.randrange(1 << 30))
    base = [
        ["verify-fp", "gamma64", "--c", "2"],
        ["verify-fp", "lemma3_G", "--c", "2"],
        ["bounds", "thm6", "--q", "64", "--delta", "3", "--c", "2", "--sigma", "7/64",
         "--l", "64"],
        ["bounds", "thm7", "--q", "256", "--delta", "3", "--c", "4", "--sigma", "9/256",
         "--l", "256", "--k", "32"],
        ["verify-ta", "disjoint_256_8_32", "--c", "4", "--method", "structural"],
        ["verify-ta", "disjoint_256_8_32", "--c", "4", "--method", "sample",
         "--seed", sample_seed, "--trials", str(SAMPLE_TRIALS)],
        ["verify-ta", "triangle", "--c", "2", "--method", "exact"],
        ["scan", "--mode", "thm10", "--wmax", "64", "--cmax", "64"],
        ["scan", "--mode", "thm11", "--wmax", "64", "--cmax", "64"],
        ["entropy", x, "--precision-bits", "40"],
        ["fixtures", "list"],
        ["fixtures", "emit", "gamma64"],
        ["fixtures", "emit", "triangle"],
    ]
    return [argv + ["--format", fmt] for argv in base for fmt in ("text", "json")]


def _cli_round(rng, seed, index):
    commands = cli_commands(seed)
    rng.shuffle(commands)
    return [{"kind": "cli", "argv": argv} for argv in commands]


def _text_field(text, label):
    m = re.search(rf"^{re.escape(label)}:\s*(.*)$", text, re.M)
    return m.group(1).strip() if m else None


def _check_cli_output(argv, out):
    """Verdict fields of one CLI report against independent answers;
    returns (problem, decided)."""
    fmt = argv[-1]
    js = json.loads(out) if fmt == "json" and argv[:2] != ["fixtures", "emit"] else None
    cmd = argv[0]
    if cmd == "verify-fp":
        want = argv[1] == "gamma64"
        got = js["frameproof"] if js else _text_field(out, "frame-proof") == "true"
        if got != want:
            return f"frame-proof {got}, expected {want}", True
        if not want:
            if js:
                coalition, framed = js["witness"]["coalition"], js["witness"]["framed"]
            else:
                m = re.search(r"coalition \[([\d, ]+)\] frames codeword (\d+)", out)
                if not m:
                    return "no witness line", True
                coalition = [int(v) for v in m.group(1).split(",")]
                framed = int(m.group(2))
            words = [tuple(int(ch) for ch in w) for w in LEMMA3_G]
            if not oracle.frame_witness_ok(words, 2, "unanimity", coalition, framed):
                return f"witness {coalition} -> {framed} does not frame", True
        return "", True
    if cmd == "bounds":
        got = js["contradiction"] if js else _text_field(out, "contradiction (upper < lower)")
        q, delta, c = int(argv[3]), int(argv[5]), int(argv[7])
        sigma, l = Fraction(argv[9]), int(argv[11])
        gap = (oracle.thm6_gap(q, delta, c, sigma, l) if argv[1] == "thm6"
               else oracle.thm7_gap(q, delta, c, sigma, l, int(argv[13])))
        want = "CertifiedTrue" if gap > 0 else "CertifiedFalse"
        return ("" if got == want else f"contradiction {got}, expected {want}"), True
    if cmd == "verify-ta":
        method = argv[argv.index("--method") + 1]
        got = js["verdict"] if js else _text_field(out, "verdict")
        if method == "sample":
            ok = got is not None and got.startswith("Unresolved")
            return ("" if ok else f"sampler verdict {got} on a traceable scheme"), False
        if method == "structural":
            return ("" if got == "CertifiedTrue" else f"structural verdict {got}"), True
        if got != "CertifiedFalse":
            return f"triangle verdict {got}", True
        if js:
            w = js["witness"]
            coalition, pirate, outsider = w["coalition"], w["pirate"], w["outsider"]
        else:
            m = re.search(r"coalition \[([\d, ]+)\] builds pirate \[([\d, ]+)\], "
                          r"outsider decoder (\d+)", out)
            if not m:
                return "no witness line", True
            coalition = [int(v) for v in m.group(1).split(",")]
            pirate = [int(v) for v in m.group(2).split(",")]
            outsider = int(m.group(3))
        if not oracle.ta_witness_ok(TRIANGLE, 2, coalition, pirate, outsider):
            return "triangle witness does not defeat tracing", True
        return "", True
    if cmd == "scan":
        if js:
            ok = js["certified_infeasible"] is True and js["verdict"] == "CertifiedTrue"
        else:
            ok = _text_field(out, "global verdict") == "CertifiedInfeasible"
        return ("" if ok else "scan not certified infeasible"), True
    if cmd == "entropy":
        x = Fraction(argv[1])
        if js:
            lo, hi = Fraction(js["enclosure"]["lo"]), Fraction(js["enclosure"]["hi"])
        else:
            m = re.search(r"\[(-?[\d/]+), (-?[\d/]+)\]", out)
            if not m:
                return "no enclosure line", True
            lo, hi = Fraction(m.group(1)), Fraction(m.group(2))
        if hi - lo > Fraction(1, 1 << 40) or not oracle.encloses(lo, hi, oracle.entropy(x)):
            return "entropy enclosure too wide or misses the float value", True
        return "", True
    if argv[1] == "list":
        names = [f["name"] for f in js["fixtures"]] if js else [
            line.split()[0] for line in out.splitlines() if line.strip()]
        missing = [n for n in FIXTURE_NAMES if n not in names]
        return ("" if not missing else f"fixtures missing: {missing}"), True
    rows = [line.split() for line in out.splitlines()
            if line.strip() and not line.startswith("#")]
    if argv[2] == "triangle":
        ok = (rows[0] == ["3", "3", "2"]
              and sorted(sorted(int(k) for k in r) for r in rows[1:])
              == sorted(sorted(d) for d in TRIANGLE))
        return ("" if ok else "triangle emitted wrongly"), True
    words = [r[0] for r in rows]
    ok = (len(words) == 3 and all(len(w) == 64 and w.count("1") == 32 for w in words)
          and min(sum(a != b for a, b in zip(u, v))
                  for i, u in enumerate(words) for v in words[i + 1:]) == 6)
    return ("" if ok else "gamma64 emitted wrongly"), True


def check_cli(spec, result, seen_outputs):
    """Exit status, parse, verdict fields, and identical bytes across
    launches of the same command."""
    argv = spec["argv"]
    if result.returncode != 0:
        return Outcome(False, False, f"exit {result.returncode}: {result.stderr[-300:]!r}")
    key = tuple(argv)
    first = seen_outputs.setdefault(key, result.stdout)
    if first != result.stdout:
        return Outcome(False, False, "output bytes differ between launches")
    try:
        problem, decided = _check_cli_output(argv, result.stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problem, decided = f"unreadable report: {exc!r}", False
    counters = {"output_bytes": len(result.stdout.encode())}
    return Outcome(not problem, decided, problem, counters)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_GENERATORS = {"verify": _verify_round, "certify": _certify_round,
               "precision": _precision_round, "cli": _cli_round}


def _none(spec):
    return None


def _fraction(spec):
    return Fraction(spec["x"])


# kind -> (build, call, check)
HANDLERS = {
    "fp": (_build_code, _call_fp, _check_fp),
    "ta_exact": (_build_scheme, _call_ta_exact, _check_ta_exact),
    "ta_structural": (_build_scheme, _call_ta_structural, _check_ta_structural),
    "ta_sample": (_build_scheme, _call_ta_sample, _check_ta_sample),
    "thm6": (_build_thm6, _call_thm6, _check_thm6),
    "thm7": (_build_thm7, _call_thm7, _check_thm7),
    "near_tie": (_build_thm6, _call_thm6, _check_near_tie),
    "sigma": (_none, _call_sigma, _check_sigma),
    "either_or": (_none, _call_either_or, _check_either_or),
    "collapse": (_none, _call_collapse, _check_collapse),
    "scan": (_none, _call_scan, _check_scan),
    "log2": (_fraction, _call_log2, _check_enclosure),
    "entropy": (_fraction, _call_entropy, _check_enclosure),
}
