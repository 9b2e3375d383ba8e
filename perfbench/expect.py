"""Record the answers every op must give at the default seed.

    python3 perfbench/expect.py

Runs every workload's whole pool once at ``run.DEFAULT_SEED`` and writes
``expected/<workload>.json``: verdicts, worths and SAM walks keyed by
"<round>.<op>". Certificates and witnesses are left out, because a later
change may return another valid one; ``checks`` validates those on every run.
Run it only on a program whose answers are trusted.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import sys

import run
import workloads


def record(name: str) -> dict:
    wl = workloads.WORKLOADS[name]
    workdir = os.path.join(run.OUT, f"work-{name}-{os.getpid()}")
    try:
        cs, specs, prebuilt = run.set_up(wl, run.DEFAULT_SEED, workdir)
        answers = {}
        for k, ops in enumerate(prebuilt):
            for j, op in enumerate(ops):
                _, result, error = run.time_op(op)
                if error is not None:
                    raise RuntimeError(f"{op.label} (round {k}, op {j}): {error}")
                answers[f"{k}.{j}"] = op.check(result)
        return {"seed": run.DEFAULT_SEED, "answers": answers}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    signal.signal(signal.SIGALRM, run._on_alarm)
    os.makedirs(run.EXPECTED, exist_ok=True)
    for name in workloads.WORKLOADS:
        data = record(name)
        with open(os.path.join(run.EXPECTED, f"{name}.json"), "w", encoding="utf-8") as handle:
            json.dump(data, handle, separators=(",", ":"), sort_keys=True)
            handle.write("\n")
        print(f"{name}: {len(data['answers'])} answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
