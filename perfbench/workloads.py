"""The three workloads: seeded game generators, the op stream, and checks.

A workload is a pool of rounds made in set-up from ``--seed``. A round is a
fixed list of ops in which sizes and modes are interleaved, so every round
has the same mix. ``ops(cs, spec)`` builds a round's ops with fresh ``Game``
objects (cold memo); the loop rebuilds a round that way, outside the timed
region, when it runs through the pool more than once.

The program only sees the generated inputs: value tables, partitions,
allocations, and game files.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import checks

# Weak-mode stability ops and the weak core search only ever see blocks of at
# most this many players: on a larger block whose medium core is empty the
# weak-core search has no bound (a 6-player search can take minutes), so an
# op there could not be relied on to finish.
WEAK_MAX_BLOCK = 5


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Any]  # raises CheckFailed; returns the answer matched at the default seed


def popcounts(n: int) -> list:
    out = [0] * (1 << n)
    for m in range(1, 1 << n):
        out[m] = out[m >> 1] + (m & 1)
    return out


# ---- value families -------------------------------------------------------

def linear_values(rng: random.Random, n: int) -> list:
    """v(S) = randint(0,20)*|S| and v(N) = 40n: the grand coalition wins."""
    pc = popcounts(n)
    values = [0] + [rng.randint(0, 20) * pc[m] for m in range(1, 1 << n)]
    values[-1] = 40 * n
    return values


def signed_values(rng: random.Random, n: int) -> list:
    """v(S) = randint(-10,10): optimal structures of 5 to 9 blocks."""
    return [0] + [rng.randint(-10, 10) for _ in range(1, 1 << n)]


def superadditive_values(rng: random.Random, n: int) -> list:
    """Stand-alone values plus randint(0,6)*|S|(|S|-1): every block can be paid."""
    alone = [rng.randint(0, 10) for _ in range(n)]
    pc = popcounts(n)
    base = [0] * (1 << n)
    values = [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        base[m] = base[m ^ low] + alone[low.bit_length() - 1]
        values[m] = base[m] + rng.randint(0, 6) * pc[m] * (pc[m] - 1)
    return values


def adversarial_values(rng: random.Random, n: int) -> list:
    """randint(0,10)*|S|^2 with v(N) = max//2 + randint(0,20): the family of
    the slow weak-core searches."""
    pc = popcounts(n)
    values = [0] + [rng.randint(0, 10) * pc[m] ** 2 for m in range(1, 1 << n)]
    values[-1] = max(values) // 2 + rng.randint(0, 20)
    return values


def jittered_values(rng: random.Random, n: int) -> list:
    """v(S) = randint(0,20)*|S| with v(N) near 20n, so every core is
    sometimes empty and sometimes not."""
    pc = popcounts(n)
    values = [0] + [rng.randint(0, 20) * pc[m] for m in range(1, 1 << n)]
    alone = sum(values[1 << i] for i in range(n))
    values[-1] = max(alone, 20 * n + rng.randint(-n, n))
    return values


# ---- partitions and allocations -------------------------------------------

def random_partition(rng: random.Random, n: int, max_block: int | None = None) -> tuple:
    """Players shuffled, then cut into blocks of random size."""
    players = list(range(n))
    rng.shuffle(players)
    blocks = []
    while players:
        size = rng.randint(1, min(len(players), max_block or n - 1))
        blocks.append(sum(1 << i for i in players[:size]))
        players = players[size:]
    return tuple(sorted(blocks))


def sampled_allocation(rng: random.Random, values: list, n: int, blocks) -> tuple:
    """Stand-alone values plus a random weighted share of each block's surplus."""
    x = [Fraction(0)] * n
    for b in blocks:
        idx = [i for i in range(n) if b >> i & 1]
        surplus = values[b] - sum(values[1 << i] for i in idx)
        weights = [rng.randint(0, 4) for _ in idx]
        if not any(weights):
            weights = [1] * len(idx)
        for i, w in zip(idx, weights):
            x[i] = values[1 << i] + Fraction(surplus * w, sum(weights))
    return tuple(x)


# ---- ascent ---------------------------------------------------------------

# (n, family, warm starts): every game is run cold from singletons; warm
# starts sit on the larger games only, so the median op is a 10-player cold
# ascent rather than the edge between warm and cold ops.
ASCENT_GAMES = ((10, "linear", 0), (11, "signed", 1), (12, "linear", 1),
                (10, "signed", 0), (11, "linear", 1), (12, "signed", 1))


def ascent_specs(rng: random.Random, rounds: int) -> list:
    specs = []
    for _ in range(rounds):
        games = []
        for n, family, warm in ASCENT_GAMES:
            values = (linear_values if family == "linear" else signed_values)(rng, n)
            starts = [random_partition(rng, n) for _ in range(warm)]
            games.append((n, family, values, starts))
        specs.append(games)
    return specs


def ascent_ops(cs, spec) -> list:
    """Per game: SAM from singletons (cold table), then from seeded random
    partitions on the same game (warm table)."""
    ops = []
    for n, family, values, starts in spec:
        game = cs.Game(n, values)
        singletons = tuple(1 << i for i in range(n))
        for start in [None] + starts:
            p = None if start is None else cs.Partition(n, start)
            label = f"sam n={n} {family} {'cold' if start is None else 'warm'}"
            ops.append(Op(label,
                          lambda g=game, p=p: cs.sam_run(g, p),
                          lambda tr, v=values, n=n, s=start or singletons:
                              checks.check_sam(v, n, s, tr)))
    return ops


# ---- stability ------------------------------------------------------------

STABILITY_RANDOM_PAIRS = 4
# A round, in order: pair queries on a game of n players ("game", n, modes of
# the SAM and grand pairs) and enumerate_stable_partitions ops ("enumerate",
# n, mode). The 9-player SAM and grand pairs skip strong mode: their covering
# LP has 511 variables and alone takes 1.2-2.7 s (CV 27%), so a few of them
# would decide a whole run; the 8-player ones (255 variables) keep wide LPs in.
STABILITY_ROUND = (("game", 8, ("strong", "medium")), ("enumerate", 6, "strong"),
                   ("game", 9, ("medium",)), ("enumerate", 6, "medium"),
                   ("enumerate", 5, "weak"))


def equal_surplus(values: list, n: int, blocks) -> tuple:
    x = [Fraction(0)] * n
    for b in blocks:
        idx = [i for i in range(n) if b >> i & 1]
        share = Fraction(values[b] - sum(values[1 << i] for i in idx), len(idx))
        for i in idx:
            x[i] = values[1 << i] + share
    return tuple(x)


def stability_specs(cs, rng: random.Random, rounds: int) -> list:
    """Each game is queried with its SAM terminal pair and the grand pair
    with an equal-surplus split, and with random pairs whose blocks have at
    most WEAK_MAX_BLOCK players, in all three modes."""
    specs = []
    for _ in range(rounds):
        segments = []
        for kind, n, modes in STABILITY_ROUND:
            values = superadditive_values(rng, n)
            if kind == "enumerate":
                segments.append((kind, n, values, modes))
                continue
            # the SAM terminal pair is an input: it is found on a throwaway
            # Game, so the op's own Game starts with a cold memo
            trace = cs.sam_run(cs.Game(n, values))
            grand = ((1 << n) - 1,)
            pairs = [(checks.masks_of(trace.terminal), trace.terminal_pair.allocation, modes),
                     (grand, equal_surplus(values, n, grand), modes)]
            for _ in range(STABILITY_RANDOM_PAIRS):
                blocks = random_partition(rng, n, WEAK_MAX_BLOCK)
                pairs.append((blocks, sampled_allocation(rng, values, n, blocks),
                              ("strong", "medium", "weak")))
            segments.append((kind, n, values, pairs))
        specs.append(segments)
    return specs


def stability_ops(cs, spec) -> list:
    ops = []
    for kind, n, values, detail in spec:
        game = cs.Game(n, values)
        if kind == "enumerate":
            ops.append(Op(f"enumerate n={n} {detail}",
                          lambda g=game, m=detail: list(cs.enumerate_stable_partitions(g, m)),
                          lambda found, v=values, n=n: checks.check_enumerate(v, n, found)))
            continue
        for blocks, x, modes in detail:
            pair = cs.PAPair(cs.Partition(n, blocks), x)
            for mode in modes:
                ops.append(Op(f"stable n={n} {len(blocks)} blocks {mode}",
                              lambda g=game, pr=pair, m=mode: cs.stable_contains(g, pr, m),
                              lambda r, v=values, n=n, b=blocks, x=x, m=mode:
                                  checks.check_stability(v, n, b, x, m, r)))
    return ops


# ---- core_cli -------------------------------------------------------------

# (action, mode, n, family); a check op carries a sampled efficient allocation.
# Thirteen ops with six cheaper than "check strong 12" put the median op in the
# middle of that load_game-bound cluster, away from its neighbours (weak finds
# at n=5 below, "check weak 10" above), instead of on the edge between two.
# Strong finds are at n=6 only: a 7-player one (127-row LP) took about 1 s with
# a CV of 38 %, so its 17 or so samples decided a 30 s run, and runs on
# different seeds spread by 0.24 in their tail for that reason alone.
CORE_CLI_ROUND = (
    ("find", "strong", 6, "jittered"),
    ("check", "strong", 10, "jittered"),
    ("find", "weak", 5, "adversarial"),
    ("check", "medium", 12, "jittered"),
    ("find", "medium", 10, "jittered"),
    ("check", "weak", 10, "jittered"),
    ("find", "weak", 5, "adversarial"),
    ("find", "strong", 6, "jittered"),
    ("check", "strong", 12, "jittered"),
    ("find", "weak", 5, "adversarial"),
    ("check", "medium", 10, "jittered"),
    ("find", "medium", 12, "jittered"),
    ("check", "weak", 12, "jittered"),
)


def write_game_file(path: str, values: list, n: int) -> None:
    players = [f"P{i}" for i in range(n)]
    table = {",".join(players[i] for i in range(n) if m >> i & 1): values[m]
             for m in range(1, 1 << n)}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"players": players, "values": table}, handle)


def core_cli_specs(cs, rng: random.Random, rounds: int, workdir: str) -> list:
    """Game files are written here; the three check modes at one size share
    a game file and an allocation."""
    os.makedirs(workdir, exist_ok=True)
    specs = []
    for r in range(rounds):
        shared = {}
        round_ops = []
        for k, (action, mode, n, family) in enumerate(CORE_CLI_ROUND):
            key = (action, n) if action == "check" else (action, mode, n, k)
            if key not in shared:
                make = adversarial_values if family == "adversarial" else jittered_values
                values = make(rng, n)
                path = os.path.join(workdir, f"r{r}-{k}-n{n}.json")
                write_game_file(path, values, n)
                x = sampled_allocation(rng, values, n, ((1 << n) - 1,)) if action == "check" else None
                shared[key] = (path, values, x)
            path, values, x = shared[key]
            round_ops.append((action, mode, n, path, values, x))
        specs.append(round_ops)
    return specs


def run_cli(cs, argv: list) -> tuple:
    """In-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cs.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def core_cli_ops(cs, spec) -> list:
    ops = []
    for action, mode, n, path, values, x in spec:
        argv = ["core", action, path, "--mode", mode, "--format", "json"]
        if action == "check":
            argv += ["--alloc", ",".join(str(v) for v in x)]
        ops.append(Op(f"core {action} n={n} {mode}",
                      lambda a=argv: run_cli(cs, a),
                      lambda res, a=action, m=mode, n=n, v=values, x=x:
                          _check_cli(a, m, n, v, x, res)))
    return ops


def _check_cli(action, mode, n, values, x, result) -> dict:
    code, out, err = result
    checks.require(code in (0, 1), f"exit code {code}: {err.strip()}")
    checks.require(not err, f"unexpected stderr: {err.strip()}")
    payload = json.loads(out)
    if action == "find":
        return checks.check_core_find(values, n, mode, code, payload)
    return checks.check_core_check(values, n, mode, x, code, payload)


# ---- registry ---------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    rounds: int  # rounds in the pool; a run that needs more goes through it again
    specs: Callable
    ops: Callable


WORKLOADS = {
    "ascent": Workload("ascent", 16,
                       lambda cs, rng, rounds, workdir: ascent_specs(rng, rounds),
                       ascent_ops),
    "stability": Workload("stability", 30,
                          lambda cs, rng, rounds, workdir: stability_specs(cs, rng, rounds),
                          stability_ops),
    "core_cli": Workload("core_cli", 30, core_cli_specs, core_cli_ops),
}
