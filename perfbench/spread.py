"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--seeds 1-10 | --seeds 1,1,1] [--trace 0|1]
        [--record FILE]

Runs every workload of ``BENCHMARK.json`` once per seed; each run measures ``run_seconds`` from ``BENCHMARK.json``. For every
end-to-end metric the spread is the distance between the first and third
quartile of its values (``statistics.quantiles(values, n=4)``) as a share of
their median, and the drift is how far the median of the second half of the
runs lies from that of the first half, as a share of the first. Both must
stay within the metric's bound in ``BENCHMARK.json``; the exit code is 1 if
one does not. ``--record`` writes every run's result with the Python
version, CPU count and git revision.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def git_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"python": platform.python_version(), "cpu_count": os.cpu_count(),
              "git_rev": git_revision(), "seconds": bench["run_seconds"], "trace": args.trace,
              "runs": [], "spreads": {}}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        values = {}
        for seed in seed_list(args.seeds):
            argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                    "--trace", str(args.trace)]
            start = time.perf_counter()
            child = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                   check=False)
            wall = time.perf_counter() - start
            lines = child.stdout.splitlines()
            if child.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {child.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            record["runs"].append({"workload": workload, "seed": seed, "wall_s": wall,
                                   "result": result})
            print(f"{workload} seed {seed}: wall {wall:.1f} s, correct {result['correct']}, "
                  f"{result['attempted']} ops, {result['failed']} failed", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            if len(vals) < 2 or name not in bounds:
                continue
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            half = len(vals) // 2
            first = statistics.median(vals[:half])
            drift = abs(statistics.median(vals[half:]) - first) / first
            ok = max(spread, drift) <= bounds[name]
            steady = steady and ok
            record["spreads"][f"{workload}.{name}"] = {"median": median, "spread": spread,
                                                       "drift": drift}
            print(f"  {workload:10s} {name:16s} median {median:12.4f}  spread {spread:7.4f}"
                  f"  drift {drift:7.4f}  (bound {bounds[name]}){'' if ok else '  OVER BOUND'}")
    if args.record:
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
