import random

import pytest

from coalstab import (Game, NoCoarsening, Partition, all_partitions, best_coarsening,
                      best_refinement, enumerate_stable_partitions, fission_neighborhood,
                      fusion_neighborhood, is_partition_allocation, sam_run, sam_step,
                      stable_contains, subgame, worth)
from helpers import (best_coarsening_pairwise, checked_stable_contains, random_game,
                     random_partition)


def test_best_refinement_examples(game_b):
    assert best_refinement(game_b, Partition.grand(3)) == (10, Partition(3, [0b101, 0b010]))
    stay = best_refinement(game_b, Partition(3, [0b101, 0b010]))
    assert stay == (10, Partition(3, [0b101, 0b010]))  # nothing improves
    rng = random.Random(0)
    for n in (1, 2, 3, 4):
        g = random_game(rng, n)
        splintered = Partition.singletons(n)
        assert best_refinement(g, splintered) == (worth(g, splintered), splintered)


def test_best_coarsening_examples(game_a, game_b):
    assert best_coarsening(game_b, Partition.singletons(3)) == (10, Partition(3, [0b101, 0b010]))
    assert best_coarsening(game_b, Partition(3, [0b101, 0b010])) == (8, Partition.grand(3))
    assert best_coarsening(game_a, Partition.singletons(3)) == (6, Partition.grand(3))
    with pytest.raises(NoCoarsening):
        best_coarsening(game_a, Partition.grand(3))


def test_best_refinement_matches_brute_force():
    rng = random.Random(1)
    for n in (2, 3, 4, 5):
        for _ in range(8):
            g = random_game(rng, n)
            for p in all_partitions(n):
                value, argmax = best_refinement(g, p)
                candidates = [worth(g, p)] + [worth(g, q) for q in fission_neighborhood(p)]
                assert value == max(candidates)
                assert worth(g, argmax) == value
                assert argmax == p or argmax in set(fission_neighborhood(p))
                if value == worth(g, p):
                    assert argmax == p


def test_best_coarsening_matches_brute_force():
    rng = random.Random(2)
    for n in (2, 3, 4, 5):
        for _ in range(8):
            g = random_game(rng, n)
            for p in all_partitions(n):
                if len(p.blocks) < 2:
                    continue
                value, argmax = best_coarsening(g, p)
                ups = tuple(fusion_neighborhood(p))
                assert value == max(worth(g, q) for q in ups)
                assert worth(g, argmax) == value and argmax in set(ups)


def test_best_coarsening_equals_pairwise_reference():
    # tie-heavy 0/1 and 0..3 games exercise the argmax tie-break
    for lo, hi in ((-10, 10), (0, 3), (0, 1)):
        for n in (2, 3, 4, 5, 6):
            rng = random.Random(f"pairwise:{lo}:{hi}:{n}")
            for _ in range(12 if n < 6 else 4):
                g = random_game(rng, n, lo, hi)
                for p in all_partitions(n):
                    if len(p.blocks) >= 2:
                        assert best_coarsening(g, p) == best_coarsening_pairwise(g, p)


def test_blockwise_dominance_at_refinement_argmax():
    # no refinement improves the whole exactly when no block can improve alone
    from coalstab.cores import subset_structure_table

    rng = random.Random(3)
    for _ in range(10):
        g = random_game(rng, 5)
        val, _, _ = subset_structure_table(g._values, g.n)
        for p in all_partitions(5):
            value, argmax = best_refinement(g, p)
            blockwise = all(val[b] == g.value(b) for b in p.blocks)
            assert (argmax == p) == blockwise
            assert (value == worth(g, p)) == blockwise


def test_sam_step_examples(game_a, game_b):
    move = sam_step(game_b, Partition.singletons(3))
    assert move is not None and move.direction == "fusion"
    assert move.target == Partition(3, [0b101, 0b010]) and move.target_worth == 10

    assert sam_step(game_b, Partition(3, [0b101, 0b010])) is None

    move = sam_step(game_a, Partition.singletons(3))
    assert move is not None and move.target == Partition.grand(3)
    assert move.target_worth == 6


def test_sam_step_tie_prefers_fusion():
    # splitting {0,1} and merging to the grand coalition both reach worth 5
    g = Game(3, {0b001: 2, 0b010: 3, 0b100: 0, 0b011: 0, 0b101: 2, 0b110: 3,
                 0b111: 5})
    p = Partition(3, [0b011, 0b100])  # worth 0
    refine_worth, _ = best_refinement(g, p)
    coarse_worth, coarse_to = best_coarsening(g, p)
    assert refine_worth == coarse_worth == 5
    move = sam_step(g, p)
    assert move.direction == "fusion" and move.target == coarse_to


def test_sam_run_examples(game_a, game_b):
    trace = sam_run(game_b)
    assert trace.terminal == Partition(3, [0b101, 0b010])
    assert trace.terminal_pair.allocation == (3, 4, 3)
    assert len(trace.steps) == 1

    trace = sam_run(game_a)
    assert trace.terminal == Partition.grand(3)
    assert trace.terminal_pair.allocation == (2, 2, 2)
    assert len(trace.steps) == 1

    trace = sam_run(game_b, Partition(3, [0b101, 0b010]))
    assert trace.steps == () and trace.terminal == trace.start


def test_sam_trace_invariants():
    rng = random.Random(4)
    for n in (1, 2, 3, 4, 5):
        for _ in range(12):
            g = random_game(rng, n)
            start = random_partition(rng, n)
            trace = sam_run(g, start)
            assert trace.start == start
            worths = [worth(g, start)] + [s.target_worth for s in trace.steps]
            assert all(a < b for a, b in zip(worths, worths[1:]))
            for step in trace.steps:
                assert step.target_worth == worth(g, step.target)
                assert step.source_worth == worth(g, step.source)
            assert is_partition_allocation(g, trace.terminal,
                                           trace.terminal_pair.allocation)
            assert checked_stable_contains(g, trace.terminal_pair, "medium").stable
            stable = {p.blocks for p in enumerate_stable_partitions(g, "medium")}
            assert trace.terminal.blocks in stable


def test_sam_is_deterministic():
    rng = random.Random(5)
    for _ in range(10):
        g = random_game(rng, 5)
        start = random_partition(rng, 5)
        assert sam_run(g, start) == sam_run(g, start)


def test_pinned_multistep_direction_change():
    # splitting {0,1} first pays (stand-alone 2+2 beats the pair's 1), and
    # only then does merging {1,2} at 5 become the best move
    from fractions import Fraction

    g = Game(3, {0b001: 2, 0b010: 2, 0b100: 2, 0b011: 1, 0b101: 1, 0b110: 5,
                 0b111: 3})
    trace = sam_run(g, Partition(3, [0b011, 0b100]))
    assert len(trace.steps) >= 2
    directions = [s.direction for s in trace.steps]
    assert len(set(directions)) == 2  # both fission and fusion occur
    assert directions == ["fission", "fusion"]
    assert [str(s.target) for s in trace.steps] == ["0|1|2", "0|1,2"]
    assert trace.terminal_pair.allocation == (2, Fraction(5, 2), Fraction(5, 2))


def test_one_player_run():
    g = Game(1, {0b1: 3})
    trace = sam_run(g)
    assert trace.steps == () and trace.terminal == Partition.grand(1)
    assert trace.terminal_pair.allocation == (3,)


def _count_tables(monkeypatch) -> list[int]:
    """Record the player count of every structure table built, through
    either module that calls the kernel."""
    from coalstab import cores, sam

    built = []
    real = cores.subset_structure_table

    def counted(values, nplayers):
        built.append(nplayers)
        return real(values, nplayers)

    for module in (cores, sam):
        monkeypatch.setattr(module, "subset_structure_table", counted)
    return built


def test_cold_ascent_builds_one_full_table(monkeypatch):
    # from all singletons the quotient game is the game itself, so the
    # coarsening side reads the table the refinement side cached
    built = _count_tables(monkeypatch)
    singletons = Partition.singletons(8)
    trace = sam_run(random_game(random.Random(3), 8))
    assert trace.start == singletons and trace.steps
    assert built.count(8) == 1
    g = random_game(random.Random(4), 8)
    best_refinement(g, singletons)
    built.clear()
    best_coarsening(g, singletons)
    assert built == []


def test_grand_terminal_check_builds_no_table(monkeypatch):
    # the README flow: a grand pair's one block is the game itself, so its
    # medium core reads the table the ascent cached, not a copy's
    built = _count_tables(monkeypatch)
    rng = random.Random(1)
    weights = [rng.randint(1, 5) for _ in range(8)]
    g = Game(8, [sum(w for i, w in enumerate(weights) if m >> i & 1) ** 2
                 for m in range(1 << 8)])  # supermodular, so the ascent ends grand
    trace = sam_run(g)
    assert trace.terminal == Partition.grand(8)
    built.clear()
    assert stable_contains(g, trace.terminal_pair, "medium").stable
    assert built == []
    assert subgame(g, g.full) == (g, tuple(range(8)))
    assert ("sub", g.full) not in g._memo
