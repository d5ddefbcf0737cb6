"""Time-to-verdict benchmark for fptrace.

    python3 bench/run.py --workload {verify,certify,precision,cli} \
        --seed N --seconds S --trace {0,1}

One caller in a closed loop: the next task starts only when the previous
verdict has returned, and the cli workload runs one subprocess at a time.
The seed fixes a sequence of rounds of a fixed task mix (workloads.py);
every verdict is checked against oracle.py.

--trace 0 replays that sequence in fresh interpreters (REPLAYS in
workloads.py), one after the other, so each replay starts with the
library's caches cold.  certify also makes light replays (LIGHT_REPLAYS)
after each full one, which leave out its scans and the collapse and
import fptrace afresh for each, so that its sub-millisecond verdicts get
many more samples.  A verdict's latency is its fastest replay: on a
shared host the minimum of repeats is what stays put while other tenants
come and go.  --trace 1 runs the sequence once with every public fptrace
function wrapped (spans.py), once untraced, and reports the per-layer
metrics and the difference in wall time (the tracing overhead).  The last
stdout line is the result JSON.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
import types
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 5
# setup_s is the median of at least this many probes, a few before each
# full replay, so that they span the run rather than one moment of it: the
# host's slow phases moved a median of five probes taken at the start of a
# run by 44% between two ten-seed sets.
SETUP_RUN_PROBES = 16
MODULES = ("rigor", "fpcode", "tascheme", "bounds", "paramscan", "cli")
CLI_MAIN = "import sys; from fptrace.cli import main; sys.exit(main(sys.argv[1:]))"
# A replay stops early past this many timed seconds, and --trace 0 starts
# no replay past RUN_CAP_S and shrinks the last ones' caps to fit, so a run
# still ends within three minutes if a change makes the program far slower.
REPLAY_CAP_S = 40.0
RUN_CAP_S = 150.0
SUBPROCESS_TIMEOUT_S = 120


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def launch(argv):
    return subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT_S)


def last_json(done, what):
    if done.returncode != 0:
        fail(f"{what} failed: {done.stderr.strip()[-800:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def probe_once(argv, key=None) -> float:
    t0 = perf_counter()
    done = launch(argv)
    wall = perf_counter() - t0
    return key(last_json(done, f"probe {argv[1:]}")) if key else wall


def median_probe(argv, key=None) -> float:
    return statistics.median([probe_once(argv, key) for _ in range(SETUP_PROBES)])


# ---------------------------------------------------------------------------
# worker: one replay of the task sequence in this interpreter
# ---------------------------------------------------------------------------


def replay(workload, seed, rounds, tracer=None, light=False, cap=REPLAY_CAP_S,
           traced_run=False) -> dict:
    """Run ROUNDS rounds; a light replay leaves out the HEAVY_KINDS tasks.
    Each task is keyed by its round and its place in the full round."""
    import workloads

    tasks, problems = [], []
    wall = 0.0
    seen_outputs = {}
    traced_layers = ("fpcode", "tascheme")
    for index in range(rounds):
        specs = workloads.make_round(workload, seed, index, traced_run)
        prepared = []
        for place, spec in enumerate(specs):
            if light and spec["kind"] in workloads.HEAVY_KINDS:
                continue
            key = f"{index}/{place}"
            if workload == "cli":
                prepared.append((key, spec, None, None))
                continue
            try:
                prepared.append((key, spec, workloads.HANDLERS[spec["kind"]][0](spec), None))
            except Exception:
                prepared.append((key, spec, None, traceback.format_exc()))
        results = []
        start = perf_counter()
        for key, spec, inputs, error in prepared:
            if wall + perf_counter() - start > cap:
                break
            before = [tracer.layer_self(x) for x in traced_layers] if tracer else None
            t0 = perf_counter()
            result = None
            if error is None:
                try:
                    if workload == "cli":
                        script = ([str(BENCH / "cli_launch.py")] if tracer
                                  else ["-c", CLI_MAIN])
                        result = launch([sys.executable, *script, *spec["argv"]])
                    else:
                        result = workloads.HANDLERS[spec["kind"]][1](spec, inputs)
                except Exception:
                    error = traceback.format_exc()
            seconds = perf_counter() - t0
            deltas = ([tracer.layer_self(x) - b for x, b in zip(traced_layers, before)]
                      if tracer else None)
            results.append((key, spec, inputs, result, error, seconds, deltas))
        wall += perf_counter() - start
        for key, spec, inputs, result, error, seconds, deltas in results:
            if error is not None:
                outcome = workloads.Outcome(False, False, error.strip().splitlines()[-1])
                print(error, file=sys.stderr)
            elif workload == "cli":
                if tracer is not None:
                    result = absorb_spans(tracer, result)
                outcome = workloads.check_cli(spec, result, seen_outputs)
            else:
                try:
                    outcome = workloads.HANDLERS[spec["kind"]][2](spec, inputs, result)
                except Exception:
                    outcome = workloads.Outcome(False, False, "check raised: "
                                                + traceback.format_exc().strip())
            if not outcome.ok:
                problems.append(f"{spec['kind']}: {outcome.note}")
            tasks.append({"key": key, "spec": spec, "s": seconds, "ok": outcome.ok,
                          "decided": outcome.decided, "counters": outcome.counters,
                          "deltas": deltas})
        if len(results) < len(prepared):
            break
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {"tasks": tasks, "wall": wall, "problems": problems,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}


def absorb_spans(tracer, done):
    """Merge the launcher's span totals and strip them from its stderr."""
    head, sep, tail = done.stderr.rpartition("SPANS ")
    if sep:
        tracer.merge(json.loads(tail))
        done.stderr = head
    return done


def fresh_library() -> None:
    """Import fptrace anew, so that every module-level cache starts empty,
    and point workloads.py at the new modules."""
    import workloads

    for name in [m for m in sys.modules if m == "fptrace" or m.startswith("fptrace.")]:
        del sys.modules[name]
    for name, value in list(vars(workloads).items()):
        if isinstance(value, types.ModuleType) and value.__name__.startswith("fptrace."):
            setattr(workloads, name, importlib.import_module(value.__name__))
    gc.collect()


def light_replay(workload, seed, rounds, repeats, cap) -> dict:
    """REPEATS light replays in this interpreter, each but the first on a
    fresh import of fptrace.  A task keeps its fastest time, and fails if
    any repeat failed it."""
    best, problems, wall = {}, [], 0.0
    for done in range(1, repeats + 1):
        if done > 1:
            fresh_library()
        out = replay(workload, seed, rounds, light=True, cap=cap - wall)
        for task in out["tasks"]:
            kept = best.setdefault(task["key"], task)
            kept["s"] = min(kept["s"], task["s"])
            kept["ok"] = kept["ok"] and task["ok"]
        problems += out["problems"]
        wall += out["wall"]
        if wall > cap:
            break
    return {"tasks": list(best.values()), "wall": wall, "repeats": done,
            "problems": list(dict.fromkeys(problems)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def worker(args) -> int:
    if args.light:
        print(json.dumps(light_replay(args.workload, args.seed, args.worker, args.light,
                                      args.cap)))
        return 0
    tracer = None
    if args.tracer:
        import spans

        tracer = spans.Tracer()
        if args.workload != "cli":
            spans.install(tracer)
    out = replay(args.workload, args.seed, args.worker, tracer, cap=args.cap,
                 traced_run=args.trace == 1)
    if tracer is not None:
        out["spans"] = tracer.state()
    print(json.dumps(out))
    return 0


def run_replay(args, rounds, tracer, light=0, cap=REPLAY_CAP_S):
    return last_json(launch([sys.executable, str(BENCH / "run.py"), "--workload",
                             args.workload, "--seed", str(args.seed), "--seconds",
                             str(args.seconds), "--trace", str(args.trace),
                             "--tracer", str(tracer),
                             "--worker", str(rounds), "--light", str(light),
                             "--cap", repr(cap)]), "replay")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(replays, light_replays, setup_s) -> tuple:
    """Per-verdict fastest replay, over the verdicts every full replay
    reached; a light task also counts its time in the light replays."""
    n = min(len(r["tasks"]) for r in replays)
    runs = [[r["tasks"][i] for r in replays] for i in range(n)]
    by_key = {t["key"]: runs[i] for i, t in enumerate(replays[0]["tasks"][:n])}
    for r in light_replays:
        for t in r["tasks"]:
            if t["key"] in by_key:
                by_key[t["key"]].append(t)
    best = [min(t["s"] for t in run) for run in runs]
    failed = sum(1 for run in runs if not all(t["ok"] for t in run))
    decided = sum(1 for i in range(n) if replays[0]["tasks"][i]["decided"])
    ms = [s * 1000.0 for s in best]
    metrics = {
        "verdict_ms_p50": (statistics.median(ms), "ms"),
        "verdict_ms_p90": (statistics.quantiles(ms, n=10)[8] if n > 1 else ms[0], "ms"),
        "verdicts_per_s": (n / sum(best), "1/s"),
        "decided_ratio": (decided / n, "ratio"),
        "correct_ratio": ((n - failed) / n, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in replays + light_replays), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, n, failed


def per_layer(workload, run, overhead_s, cli_probe) -> tuple:
    import spans

    tracer = spans.Tracer()
    tracer.merge(run["spans"])
    funcs = tracer.funcs
    tasks = run["tasks"]
    notes = []

    def matching(prefix, starts):
        return [v for k, v in funcs.items()
                if k.startswith(prefix) and k[len(prefix):].startswith(starts)]

    def calls(prefix, starts=("",)):
        return sum(v[0] for v in matching(prefix, starts))

    def inclusive(prefix, starts=("",)):
        return sum(v[1] for v in matching(prefix, starts))

    def ratio(name, num, den, scale, why):
        if den:
            return num / den * scale
        notes.append(f"{name}: 0, {why}")
        return 0.0

    def total(key, pred=lambda c: True):
        return sum(t["counters"].get(key, 0) for t in tasks if pred(t["counters"]))

    def task_self(index, pred):
        return sum(t["deltas"][index] for t in tasks if pred(t["counters"]))

    def is_fp(qary):
        return lambda c: "pair_checks" in c and c["qary"] == qary

    checks_bin, checks_q = total("pair_checks", is_fp(False)), total("pair_checks", is_fp(True))
    pirates, trials = total("pirates"), total("trials")
    reports = calls("bounds.", ("contradiction_report",))
    grid_points = total("grid_points")
    enclosures = [k for k in funcs if k.startswith("rigor.") and k.endswith("_enclosure")]
    launches = sum(1 for t in tasks if t["spec"]["kind"] == "cli")
    no_fp = "no {} frame-proof task runs in-process on this workload"

    m = {}
    m["fpcode.verdicts"] = (calls("fpcode.", ("is_frameproof",)), "count")
    m["fpcode.self_s"] = (tracer.layer_self("fpcode"), "s")
    m["fpcode.pair_checks"] = (checks_bin + checks_q, "count")
    m["fpcode.ns_per_pair_check.binary"] = (ratio(
        "fpcode.ns_per_pair_check.binary", task_self(0, is_fp(False)), checks_bin, 1e9,
        no_fp.format("binary")), "ns")
    m["fpcode.ns_per_pair_check.qary"] = (ratio(
        "fpcode.ns_per_pair_check.qary", task_self(0, is_fp(True)), checks_q, 1e9,
        no_fp.format("q-ary")), "ns")
    m["tascheme.verdicts"] = (calls("tascheme.", ("is_traceable", "sample_")), "count")
    m["tascheme.self_s"] = (tracer.layer_self("tascheme"), "s")
    m["tascheme.pirates"] = (pirates, "count")
    m["tascheme.us_per_pirate"] = (ratio(
        "tascheme.us_per_pirate", task_self(1, lambda c: "pirates" in c), pirates, 1e6,
        "no exact traceability search runs in-process on this workload"), "us")
    m["tascheme.trials"] = (trials, "count")
    m["tascheme.us_per_trial"] = (ratio(
        "tascheme.us_per_trial", task_self(1, lambda c: c.get("method") == "sample"),
        trials, 1e6, "no sampler task runs in-process on this workload"), "us")
    m["tascheme.budget_refusals"] = (total("refused", lambda c: "method" in c), "count")
    m["bounds.reports"] = (reports, "count")
    m["bounds.self_s"] = (tracer.layer_self("bounds"), "s")
    m["bounds.ms_per_report"] = (ratio(
        "bounds.ms_per_report", inclusive("bounds.", ("contradiction_report",)), reports,
        1e3, "this workload makes no bound report"), "ms")
    m["paramscan.scans"] = (calls("paramscan.", ("scan_",)), "count")
    m["paramscan.self_s"] = (tracer.layer_self("paramscan"), "s")
    m["paramscan.grid_points"] = (grid_points, "count")
    m["paramscan.windows"] = (total("windows"), "count")
    m["paramscan.us_per_grid_point"] = (ratio(
        "paramscan.us_per_grid_point", inclusive("paramscan.", ("scan_",)), grid_points, 1e6,
        "no scan runs in-process on this workload"), "us")
    m["paramscan.candidate_filter_s"] = (inclusive("paramscan.", ("candidate_filter",)), "s")
    m["paramscan.verify_cases_s"] = (inclusive("paramscan.", ("verify_cases",)), "s")
    for grid in (64, 128, 256):
        times = [t["s"] for t in tasks
                 if t["spec"]["kind"] == "scan" and t["spec"]["grid"] == grid]
        name = f"paramscan.scan_s.grid{grid}"
        m[name] = (ratio(name, sum(times), len(times), 1.0,
                         f"no {grid}-grid scan runs in-process on this workload"), "s")
    m["rigor.enclosure_calls"] = (sum(funcs[k][0] for k in enclosures), "count")
    m["rigor.enclosure_self_s"] = (sum(funcs[k][2] for k in enclosures), "s")
    compares = tracer.compares
    m["rigor.compare_calls"] = (compares["calls"], "count")
    m["rigor.refine_rounds"] = (compares["refine_rounds"], "count")
    m["rigor.max_bits"] = (compares["max_bits"], "bits")
    m["rigor.calls_ge_1024b"] = (compares["ge_1024b"], "count")
    m["rigor.unresolved_compares"] = (compares["unresolved"], "count")
    for bits in (64, 1024, 4096):
        name = f"rigor.log2_ms.b{bits}"
        n, seconds = tracer.bits.get(f"rigor.log2_enclosure@{bits}", (0, 0.0))
        m[name] = (ratio(name, seconds, n, 1e3,
                         f"no log2_enclosure call at {bits} bits on this workload"), "ms")
    if workload == "cli":
        m["cli.interpreter_s"] = (cli_probe[0], "s")
        m["cli.import_s"] = (cli_probe[1], "s")
    else:
        for name in ("cli.interpreter_s", "cli.import_s"):
            m[name] = (0.0, "s")
            notes.append(f"{name}: 0, measured on the cli workload only")
    m["cli.self_s"] = (ratio("cli.self_s", tracer.layer_self("cli"), launches, 1.0,
                             "this workload launches no CLI process"), "s")
    m["cli.output_bytes"] = (ratio("cli.output_bytes", total("output_bytes"), launches, 1.0,
                                   "this workload launches no CLI process"), "bytes")
    for module in MODULES:
        with open(SRC / "fptrace" / f"{module}.py", encoding="utf-8") as fh:
            m[f"{module}.src_lines"] = (sum(1 for _ in fh), "lines")
    m["trace.spans"] = (sum(v[0] for v in funcs.values()), "count")
    m["trace.overhead_s"] = (overhead_s, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, notes, funcs


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "certify", "precision", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run ROUNDS rounds in this interpreter and print them as JSON.
    parser.add_argument("--worker", type=int, metavar="ROUNDS", help=argparse.SUPPRESS)
    # Internal, with --worker: make that many light replays (no HEAVY_KINDS
    # tasks) in this interpreter instead, and print each task's fastest.
    parser.add_argument("--light", type=int, default=0, help=argparse.SUPPRESS)
    # Internal, with --worker: wrap the library's functions in spans.
    parser.add_argument("--tracer", type=int, choices=(0, 1), default=0,
                        help=argparse.SUPPRESS)
    # Internal, with --worker: stop past this many timed seconds.
    parser.add_argument("--cap", type=float, default=REPLAY_CAP_S, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "fptrace" / "__init__.py").is_file():
        fail(f"fptrace sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import fptrace

    if Path(fptrace.__file__).resolve().parent != SRC / "fptrace":
        fail(f"imported fptrace from {fptrace.__file__}, not from {SRC}")
    if args.worker:
        return worker(args)
    import workloads

    first = workloads.digest(workloads.make_round(args.workload, args.seed, 0))
    if first != workloads.digest(workloads.make_round(args.workload, args.seed, 0)):
        fail(f"seed {args.seed} does not reproduce its inputs")
    if first == workloads.digest(workloads.make_round(args.workload, args.seed + 1, 0)):
        fail(f"seeds {args.seed} and {args.seed + 1} generate the same inputs")
    rounds = workloads.rounds_for(args.workload, args.seconds)
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds per replay, "
          f"inputs sha256 {first}")

    if args.trace == 0:
        probe = [sys.executable, str(BENCH / "probe.py"), args.workload, str(args.seed)]
        setup = []
        per_replay = -(-SETUP_RUN_PROBES // workloads.REPLAYS[args.workload])
        # Set-up probes go before each full replay and light replays after
        # it, so that both span the run.  A replay's wall time is at most
        # about three times its timed seconds.
        started = perf_counter()

        def cap():
            return min(REPLAY_CAP_S, (RUN_CAP_S - (perf_counter() - started)) / 3)

        replays, light_replays = [], []
        repeats = workloads.LIGHT_REPLAYS[args.workload]
        for _ in range(workloads.REPLAYS[args.workload]):
            if replays and cap() < 1:
                break
            setup += [probe_once(probe, key=lambda r: r["import_s"] + r["build_s"])
                      for _ in range(per_replay)]
            replays.append(run_replay(args, rounds, 0, cap=max(cap(), 1)))
            if repeats and cap() >= 1:
                light_replays.append(run_replay(args, rounds, 0, light=repeats, cap=cap()))
        metrics, attempted, failed = end_to_end(replays, light_replays,
                                                statistics.median(setup))
        problems = list(dict.fromkeys(p for r in replays + light_replays
                                      for p in r["problems"]))
        light = sum(r["repeats"] for r in light_replays)
        print(f"verdict_ms_p50 over {attempted} verdicts, each the fastest of "
              f"{len(replays)} replays"
              + (f" (light tasks also of {light} light replays)" if light else "")
              + "; replay walls " + ", ".join(f"{r['wall']:.3f}" for r in replays) + " s")
    else:
        cli_probe = None
        if args.workload == "cli":
            cli_probe = (median_probe([sys.executable, "-c", "pass"]),
                         median_probe([sys.executable, str(BENCH / "probe.py"), "cli",
                                       str(args.seed)], key=lambda r: r["import_s"]))
        traced = run_replay(args, rounds, 1)
        untraced = run_replay(args, rounds, 0)
        overhead_s = traced["wall"] - untraced["wall"]
        metrics, notes, funcs = per_layer(args.workload, traced, overhead_s, cli_probe)
        attempted = len(traced["tasks"])
        failed = sum(1 for t in traced["tasks"] if not t["ok"])
        problems = traced["problems"]
        print(f"tracing overhead: traced {traced['wall']:.3f} s - untraced "
              f"{untraced['wall']:.3f} s = {overhead_s:.3f} s over {attempted} tasks")
        for note in notes:
            print(f"absent {note}")
        for name, (n, incl, self_s) in sorted(funcs.items()):
            if n:
                print(f"span {name}: calls {n} inclusive {incl:.4f} s self {self_s:.4f} s")

    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
