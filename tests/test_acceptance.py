"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
summary lines as they happen). Everything is exact arithmetic; "zero
failures" means the asserts themselves.
"""

import random
import time

from coalstab import (Game, LinearProgram, PAPair, Partition, all_partitions,
                      best_coarsening, best_refinement,
                      dominates_coarsenings, enumerate_partitions,
                      enumerate_stable_partitions, fission_neighborhood,
                      fission_resistant_decomposed,
                      fusion_neighborhood, is_partition_allocation, lp_solve,
                      max_nongrand_worth, medium_core_contains, medium_core_nonempty,
                      one_step_fission, one_step_fusion, optimal_structure_value,
                      path, sam_run, strong_core_contains,
                      strong_core_nonempty, weak_core_contains, weak_core_nonempty,
                      worth)
from coalstab.lattice import FISSION
from helpers import (bell_numbers, checked_stable_contains, covering_value,
                     medium_member_partition_scan,
                     random_game,
                     random_partition, sample_efficient_allocations,
                     sample_feasible_allocations, strong_member_partition_scan,
                     weak_member_partition_scan, weak_nonempty_oracle_n3)

ENSEMBLE_SEED = 20230401
MODES = ("strong", "medium", "weak")


def _universality_ensemble(n, count=1000):
    """The shared random-integer ensemble for criteria 4 and 5."""
    rng = random.Random(f"{ENSEMBLE_SEED}:ensemble:{n}")
    return [random_game(rng, n) for _ in range(count)]


def _report(name, detail, started):
    print(f"criterion {name}: PASS ({detail}, {time.time() - started:.1f}s)")


def test_criterion_01_three_player_dominant_grand(game_a):
    started = time.time()
    assert strong_core_nonempty(game_a) == (False, None)
    assert medium_core_nonempty(game_a) is True
    assert max_nongrand_worth(game_a) == 5
    assert optimal_structure_value(game_a)[0] == 6
    _report("01 dominant-grand reproduction", "4 exact equalities", started)


def test_criterion_02_three_player_household(game_b):
    started = time.time()
    assert weak_core_contains(game_b, (0, 6, 2)).member is True
    assert medium_core_nonempty(game_b) is False
    assert optimal_structure_value(game_b) == (10, Partition(3, [0b101, 0b010]))
    _report("02 household reproduction", "3 exact checks", started)


def test_criterion_03_two_player_split(game_2):
    started = time.time()
    pair = PAPair(Partition.singletons(2), (1, 1))
    assert checked_stable_contains(game_2, pair, "strong").stable is True
    assert strong_core_nonempty(game_2) == (False, None)
    _report("03 two-player split", "strong stability + empty core", started)


def test_criterion_04_universality():
    started = time.time()
    runs = 0
    for n in (3, 4, 5, 6):
        rng = random.Random(f"{ENSEMBLE_SEED}:starts:{n}")
        for game in _universality_ensemble(n):
            stable = {p.blocks for p in enumerate_stable_partitions(game, "medium")}
            assert stable, "medium-stable set must never be empty"
            if n <= 4:
                starts = all_partitions(n)
            else:
                starts = [random_partition(rng, n) for _ in range(20)]
            for start in starts:
                trace = sam_run(game, start)
                runs += 1
                assert trace.terminal.blocks in stable
                assert is_partition_allocation(game, trace.terminal,
                                               trace.terminal_pair.allocation)
                assert checked_stable_contains(game, trace.terminal_pair, "medium").stable
    _report("04 universality", f"4000 games, {runs} ascent runs, zero failures", started)


def test_criterion_05_inclusion_chains():
    started = time.time()
    allocations = pairs = 0
    for n in (3, 4, 5, 6):
        rng = random.Random(f"{ENSEMBLE_SEED}:chain:{n}")
        for game in _universality_ensemble(n):
            for x in sample_efficient_allocations(game, rng, count=2):
                allocations += 1
                strong = strong_core_contains(game, x).member
                medium = medium_core_contains(game, x).member
                weak = weak_core_contains(game, x).member
                assert (not strong or medium) and (not medium or weak)
            for _ in range(2):
                p = random_partition(rng, n)
                xs = sample_feasible_allocations(game, p, rng, count=1)
                if not xs:
                    continue
                pairs += 1
                pair = PAPair(p, xs[0])
                verdict = {m: checked_stable_contains(game, pair, m).stable for m in MODES}
                assert (not verdict["strong"] or verdict["medium"])
                assert (not verdict["medium"] or verdict["weak"])
    _report("05 inclusion chains",
            f"{allocations} allocations and {pairs} pairs, zero violations", started)


def test_criterion_06_equivalence_oracles():
    started = time.time()
    checked = 0

    def check_pair(game, p, x):
        nonlocal checked
        checked += 1
        pair = PAPair(p, x)
        for mode in MODES:
            # checked_stable_contains compares against fission_resistant_direct
            assert (checked_stable_contains(game, pair, mode).fission_resistant
                    == fission_resistant_decomposed(game, pair, mode))

    def check_alloc(game, x):
        assert (strong_core_contains(game, x).member
                == strong_member_partition_scan(game, x))
        assert (medium_core_contains(game, x).member
                == medium_member_partition_scan(game, x))
        assert (weak_core_contains(game, x).member
                == weak_member_partition_scan(game, x))

    def check_fusion(game, p):
        expected = all(worth(game, p) >= worth(game, q)
                       for q in fusion_neighborhood(p))
        assert dominates_coarsenings(game, p) == expected

    for n in (2, 3, 4):  # exhaustive partition coverage
        rng = random.Random(f"{ENSEMBLE_SEED}:equiv:{n}")
        for _ in range(200):
            game = random_game(rng, n)
            for p in all_partitions(n):
                check_fusion(game, p)
                for x in sample_feasible_allocations(game, p, rng, count=1)[:2]:
                    check_pair(game, p, x)
            for x in sample_efficient_allocations(game, rng, count=2):
                check_alloc(game, x)
            check_alloc(game, tuple(rng.randint(-10, 10) for _ in range(n)))
            lp = LinearProgram(1, sense="min", objective=[1],
                               constraints=[([1], ">=", worth(game, q))
                                            for q in all_partitions(n)])
            assert lp_solve(lp).value == optimal_structure_value(game)[0]
    for n in (5, 6):  # fuzzed
        rng = random.Random(f"{ENSEMBLE_SEED}:equivbig:{n}")
        for _ in range(200):
            game = random_game(rng, n)
            for round_ in range(20):
                p = random_partition(rng, n)
                check_fusion(game, p)
                xs = sample_feasible_allocations(game, p, rng, count=1)
                if xs:
                    check_pair(game, p, xs[0])
                # raw allocations exercise the non-member side of every scan
                check_alloc(game, tuple(rng.randint(-10, 10) for _ in range(n)))
                for x in sample_efficient_allocations(game, rng, count=1)[:1]:
                    check_alloc(game, x)
    _report("06 equivalence oracles", f"{checked} pairs, zero discrepancies", started)


def test_criterion_07_balancedness_consistency():
    started = time.time()
    games = 0
    for n, count in ((2, 150), (3, 150), (4, 125), (5, 100)):
        rng = random.Random(f"{ENSEMBLE_SEED}:balance:{n}")
        for _ in range(count):
            game = random_game(rng, n)
            games += 1
            cover_value = covering_value(game)
            structure_value = optimal_structure_value(game)[0]
            assert structure_value <= cover_value
            nonempty, witness = strong_core_nonempty(game)
            assert nonempty == (game.value(game.full) >= cover_value)
            if nonempty:
                assert strong_core_contains(game, witness).member
    _report("07 balancedness consistency", f"{games} games, zero discrepancies", started)


def test_criterion_08_graph_properties():
    started = time.time()
    bell = bell_numbers(8)
    for n in range(1, 9):
        assert sum(1 for _ in enumerate_partitions(n)) == bell[n]
    walks = 0
    for n in (2, 3, 4, 5):
        parts = all_partitions(n)
        fission_sets = {p.blocks: {q.blocks for q in one_step_fission(p)} for p in parts}
        fusion_sets = {p.blocks: {q.blocks for q in one_step_fusion(p)} for p in parts}
        for p in parts:
            for q in parts:
                moves = path(p, q)
                walks += 1
                if p == q:
                    assert moves == []
                    continue
                assert moves[0].source == p and moves[-1].target == q
                for a, b in zip(moves, moves[1:]):
                    assert a.target == b.source
                for mv in moves:
                    step_set = (fission_sets if mv.kind == FISSION else fusion_sets)
                    assert mv.target.blocks in step_set[mv.source.blocks]
    _report("08 graph properties",
            f"Bell counts to n=8, {walks} ordered-pair walks valid "
            "(all 2704 pairs at n=5)", started)


def test_criterion_09_ascent_argmax():
    started = time.time()
    checked = 0
    for n in (2, 3, 4, 5):
        rng = random.Random(f"{ENSEMBLE_SEED}:argmax:{n}")
        for _ in range(50):
            game = random_game(rng, n)
            for p in all_partitions(n):
                checked += 1
                value, argmax = best_refinement(game, p)
                down = [worth(game, q) for q in fission_neighborhood(p)]
                assert value == max([worth(game, p)] + down)
                assert worth(game, argmax) == value
                if len(p.blocks) >= 2:
                    value, argmax = best_coarsening(game, p)
                    ups = [worth(game, q) for q in fusion_neighborhood(p)]
                    assert value == max(ups)
                    assert worth(game, argmax) == value

    # pinned regression: a run that splits first and then merges elsewhere
    game = Game(3, {0b001: 2, 0b010: 2, 0b100: 2, 0b011: 1, 0b101: 1, 0b110: 5,
                    0b111: 3})
    trace = sam_run(game, Partition(3, [0b011, 0b100]))
    assert len(trace.steps) >= 2
    assert [s.direction for s in trace.steps] == ["fission", "fusion"]
    _report("09 ascent argmax",
            f"{checked} partitions across 200 games, plus pinned two-step run", started)


def test_criterion_10_weak_core_soundness():
    started = time.time()
    rng = random.Random(f"{ENSEMBLE_SEED}:weak:3")
    for _ in range(500):
        game = random_game(rng, 3)
        nonempty, witness = weak_core_nonempty(game)
        assert nonempty == weak_nonempty_oracle_n3(game)
        if nonempty:
            assert weak_core_contains(game, witness).member
    witnesses = 0
    for n, count in ((4, 150), (5, 100), (6, 40)):
        rng = random.Random(f"{ENSEMBLE_SEED}:weakwit:{n}")
        for _ in range(count):
            game = random_game(rng, n)
            nonempty, witness = weak_core_nonempty(game)
            if nonempty:
                witnesses += 1
                assert weak_core_contains(game, witness).member
    _report("10 weak-core soundness",
            f"500 oracle matches at n=3, {witnesses} verified witnesses to n=6", started)
