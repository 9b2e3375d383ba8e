"""coalstab benchmark: one closed-loop client, one op in flight.

    python3 perfbench/run.py --workload ascent|stability|core_cli|all \
        --seed N --seconds S --trace 0|1

Run from the repository root (or from a checkout of it): the program is
imported from ``src/`` next to this directory and nowhere else. Inputs are
made from ``--seed``. Whole rounds of ops run until their measured time
reaches ``--seconds``; every op's output is checked outside its timed region,
and at the default seed it must also match the answers recorded in
``expected/``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same op
stream untraced for half of ``--seconds``, then the same rounds again with
spans around every call into the layers listed in ``spans.TARGETS``, and
prints per-layer metrics plus the tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import time

# Set-up is timed from here, before any other import, to the first timed op.
# Only the interpreter's own start-up comes before this line.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import array  # noqa: E402
import collections  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

sys.dont_write_bytecode = True  # leave the checkout as it was found

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected")

DEFAULT_SEED = 1
# Far above the slowest op seen at the parent commit (about 4 s), so no op
# that completes there can flip to a failure between runs.
DEADLINE_S = 30.0
# Rounds are whole unless the process has run this long, which keeps a run
# under three minutes even if every op hits the deadline.
WALL_CAP_S = 120.0
TAIL_BEYOND = 10

END_TO_END_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}
BENCH_UNITS = {"bench.ops": "count", "bench.ops_per_s_untraced": "1/s",
               "bench.ops_per_s_traced": "1/s", "bench.trace_overhead": "ratio",
               "bench.sanity_table_calls": "count"}


class Deadline(BaseException):
    """Raised from SIGALRM inside an op. A BaseException, so that no
    ``except Exception`` in the program can absorb it."""


def _on_alarm(signum, frame):
    raise Deadline


def import_program():
    """coalstab imported from ``src/`` and nowhere else."""
    sys.path.insert(0, SRC)
    cs = importlib.import_module("coalstab")
    importlib.import_module("coalstab.cli")
    if not os.path.abspath(cs.__file__).startswith(SRC + os.sep):
        raise ImportError(f"coalstab was imported from {cs.__file__}, not from {SRC}")
    return cs


def set_up(wl, seed: int, workdir: str):
    cs = import_program()
    specs = wl.specs(cs, random.Random(seed), wl.rounds, workdir)
    return cs, specs, [wl.ops(cs, spec) for spec in specs]


def time_op(op):
    """(seconds, result, error); an op is abandoned at the deadline."""
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        result, error = op.call(), None
    except Deadline:
        result, error = None, "deadline"
    except (Exception, SystemExit) as err:
        result, error = None, f"raised {type(err).__name__}: {err}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - start, result, error


class Records:
    """Per-op seconds and round in flat arrays, errors by op index. A tuple
    per op would be a long-lived object allocated among the ops' temporaries,
    pinning allocator arenas, so peak memory would creep with run length."""

    def __init__(self):
        self.seconds = array.array("d")
        self.rounds = array.array("l")
        self.errors = {}

    def add(self, seconds: float, error: str | None, rnd: int) -> None:
        if error is not None:
            self.errors[len(self.seconds)] = error
        self.seconds.append(seconds)
        self.rounds.append(rnd)

    def __len__(self):
        return len(self.seconds)


def run_rounds(wl, cs, specs, seconds, expected, prebuilt=None, rounds=None, tracer=None):
    """Run whole rounds, cycling through the pool, until ``seconds`` of op
    time are measured, or exactly ``rounds`` rounds. Returns (records, busy
    seconds, rounds run)."""
    records = Records()
    busy = 0.0
    done = 0
    while (busy < seconds) if rounds is None else (done < rounds):
        k = done % len(specs)
        if prebuilt and done < len(specs):
            # drop the pool's reference, so a round's memos go when it ends
            ops, prebuilt[k] = prebuilt[k], None
        else:
            ops = wl.ops(cs, specs[k])
        for j, op in enumerate(ops):
            if tracer is not None:
                tracer.op = len(records)
                tracer.open("bench.op")
            elapsed, result, error = time_op(op)
            if tracer is not None:
                tracer.end_op()
            busy += elapsed
            if error is None:
                error = check_op(op, result, expected.get(f"{k}.{j}"))
            if error is not None:
                print(f"FAILED {op.label} (round {k}, op {j}): {error}", file=sys.stderr)
            records.add(elapsed, error, done)
            if time.perf_counter() - STARTED > WALL_CAP_S:
                return records, busy, done + 1
        done += 1
    return records, busy, done


def check_op(op, result, want):
    try:
        answer = json.loads(json.dumps(op.check(result)))
    except checks.CheckFailed as err:
        return f"check failed: {err}"
    except Exception as err:  # a malformed result must fail the op, not the run
        return f"check raised {type(err).__name__}: {err}"
    if want is not None and answer != want:
        return f"answer {answer} differs from the recorded {want}"
    return None


def load_expected(workload: str, seed: int) -> dict:
    path = os.path.join(EXPECTED, f"{workload}.json")
    if seed != DEFAULT_SEED or not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["answers"]


def ops_per_s(records) -> float:
    """Median over rounds of completed ops per measured second; every round
    holds the same mix, and the median keeps one slow stretch of the host or
    one costly game from deciding the run. Failed ops stay in the time."""
    ops, busy = collections.Counter(), collections.Counter()
    for k, (sec, rnd) in enumerate(zip(records.seconds, records.rounds)):
        ops[rnd] += k not in records.errors
        busy[rnd] += sec
    return statistics.median(ops[rnd] / busy[rnd] for rnd in busy)


def end_to_end(records) -> tuple[dict, str]:
    """Metrics plus a note naming the tail percentile. A failed op is charged
    the deadline, which is slower than every op that completes."""
    latencies = sorted(DEADLINE_S * 1000 if k in records.errors else sec * 1000
                       for k, sec in enumerate(records.seconds))
    count = len(latencies)
    beyond = min(TAIL_BEYOND, count - 1)
    tail = latencies[count - 1 - beyond]
    note = (f"p{100 * (count - beyond) / count:.1f}: {beyond} of {count} samples beyond it")
    return {"ops_per_s": ops_per_s(records), "latency_p50_ms": statistics.median(latencies),
            "latency_tail_ms": tail}, note


def tracer_sanity(cs, tracer, seed: int) -> tuple[bool, str]:
    """One 12-player linear ascent from singletons: the spans around
    ``subset_structure_table`` must match a count taken independently with
    ``sys.setprofile`` (67 at the parent commit: one 12-player table and 66
    11-player quotient tables), and the ascent must make no LP solve."""
    game = cs.Game(12, workloads.linear_values(random.Random(seed), 12))
    code = cs.cores.subset_structure_table.__wrapped__.__code__
    profiled = collections.Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is code:
            profiled[frame.f_locals["nplayers"]] += 1

    first = len(tracer.spans)
    sys.setprofile(hook)
    try:
        cs.sam_run(game)
    finally:
        sys.setprofile(None)
    recorded = tracer.spans[first:]
    traced = collections.Counter(round(math.log(s[5]["cells"], 3)) for s in recorded
                                 if s[1] == "cores.subset_structure_table")
    lp_calls = sum(1 for s in recorded if s[1] == "ratlp.lp_solve")
    shape = ", ".join(f"{traced[k]}x{k}" for k in sorted(traced, reverse=True))
    ok = traced == profiled and lp_calls == 0
    return ok, (f"{sum(traced.values())} subset_structure_table calls ({shape}); "
                f"profiler saw {sum(profiled.values())}; {lp_calls} lp_solve calls")


def run_workload(args) -> int:
    wl = workloads.WORKLOADS[args.workload]
    if not os.path.isfile(os.path.join(SRC, "coalstab", "__init__.py")):
        print(f"error: no coalstab sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    try:
        cs, specs, prebuilt = set_up(wl, args.seed, workdir)
        expected = load_expected(args.workload, args.seed)
        if args.trace:
            return traced_run(args, wl, cs, specs, prebuilt, expected)
        setup_s = time.perf_counter() - STARTED
        records, busy, done = run_rounds(wl, cs, specs, args.seconds, expected, prebuilt)
        metrics, note = end_to_end(records)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed = len(records.errors)
        print(f"workload {args.workload}, seed {args.seed}: {len(records)} ops in {done} "
              f"rounds, {busy:.2f} s measured, python {sys.version.split()[0]}, "
              f"cpu_count {os.cpu_count()}")
        for name, value in metrics.items():
            extra = f"  ({note})" if name == "latency_tail_ms" else ""
            print(f"  {name:16s} {value:12.4f} {END_TO_END_UNITS[name]}{extra}")
        print(f"  failed_ratio     {failed / len(records):12.4f}  ({failed} of {len(records)})")
        return emit([records], {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_run(args, wl, cs, specs, prebuilt, expected) -> int:
    """Untraced rounds for half the time, then the same rounds traced."""
    plain, _, done = run_rounds(wl, cs, specs, args.seconds / 2, expected, prebuilt)
    tracer = spans.Tracer()
    patched = spans.install(cs, tracer)
    try:
        sane, sanity = tracer_sanity(cs, tracer, args.seed)
        sanity_calls = sum(1 for s in tracer.spans if s[1] == "cores.subset_structure_table")
        tracer.clear()
        records, _, _ = run_rounds(wl, cs, specs, 0, expected, rounds=done, tracer=tracer)
    finally:
        spans.uninstall(patched)
    path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(path)
    untraced = ops_per_s(plain)
    traced = ops_per_s(records)
    layer = tracer.metrics()
    layer.update({"bench.ops": len(records), "bench.ops_per_s_untraced": untraced,
                  "bench.ops_per_s_traced": traced, "bench.trace_overhead": untraced / traced - 1,
                  "bench.sanity_table_calls": sanity_calls})
    units = dict(spans.LAYER_METRICS, **BENCH_UNITS)
    print(f"workload {args.workload}, seed {args.seed}, traced: {len(records)} ops in {done} "
          f"rounds; spans in {os.path.relpath(path)}")
    print(f"  tracer sanity: {'ok' if sane else 'FAILED'}: {sanity}")
    for name, value in layer.items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    return emit([plain, records], {k: (v, units[k]) for k, v in layer.items()}, sane)


def emit(runs: list, metrics: dict, sane: bool = True) -> int:
    """Print the result line; a deadline miss is a failure, any other error
    also makes the run incorrect."""
    errors = [err for records in runs for err in records.errors.values()]
    correct = sane and all(err == "deadline" for err in errors)
    print(json.dumps({"correct": correct, "attempted": sum(len(r) for r in runs),
                      "failed": len(errors),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {child.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
