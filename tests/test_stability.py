import random

import pytest

from coalstab import (Game, InfeasiblePair, PAPair, Partition, all_partitions,
                      blockwise_core_contains, blockwise_core_nonempty,
                      CapExceeded, core_contains, dominates_coarsenings,
                      enumerate_stable_partitions, equal_surplus_allocation,
                      fission_resistant_decomposed, fusion_resistant, fusion_neighborhood,
                      medium_core_nonempty, strong_core_contains, strong_core_nonempty,
                      subgame, worth)
from coalstab import cores, lattice, ratlp, stability
from helpers import (ADVERSARIAL_6, checked_stable_contains, covering_value,
                     fission_resistant_direct, random_game, random_partition,
                     sample_feasible_allocations)

MODES = ("strong", "medium", "weak")


def pair(n, groups, alloc):
    return PAPair(Partition.from_sets(n, groups), alloc)


def test_fission_resistance_examples(game_a):
    grand = pair(3, [[0, 1, 2]], (2, 2, 2))
    assert fission_resistant_direct(game_a, grand, "weak")
    assert not fission_resistant_direct(game_a, grand, "strong")
    assert fission_resistant_direct(game_a, grand, "medium")

    rng = random.Random(0)
    for n in (1, 2, 3, 4):
        g = random_game(rng, n)
        splintered = PAPair(Partition.singletons(n),
                            tuple(g.value(1 << i) for i in range(n)))
        for mode in MODES:
            assert fission_resistant_direct(g, splintered, mode)  # nothing to split


def test_fission_decomposed_examples(game_a, game_b):
    p = pair(3, [[0, 2], [1]], (3, 4, 3))
    assert fission_resistant_decomposed(game_b, p, "medium")
    assert fission_resistant_decomposed(game_a, pair(3, [[0, 1, 2]], (2, 2, 2)), "medium")


def test_infeasible_pairs_error(game_b):
    bad = pair(3, [[0, 1], [2]], (0, 0, 0))  # B's stand-alone value is 4
    for fn in (fission_resistant_direct, fission_resistant_decomposed):
        with pytest.raises(InfeasiblePair):
            fn(game_b, bad, "medium")
    with pytest.raises(InfeasiblePair):
        fusion_resistant(game_b, bad)


def test_direct_scan_refuses_past_the_enumerate_budget():
    g = Game(9)
    zeros = (0,) * 9
    # Bell(5) * Bell(4) = 780 refinements is within Bell(8) = 4140
    assert fission_resistant_direct(g, pair(9, [[0, 1, 2, 3, 4], [5, 6, 7, 8]], zeros),
                                    "strong")
    for n in (9, 14):  # Bell(9) = 21147; Bell(14) would never finish
        with pytest.raises(CapExceeded):
            fission_resistant_direct(Game(n), PAPair(Partition.grand(n), (0,) * n), "weak")


def test_fusion_resistance_examples(game_b):
    assert fusion_resistant(game_b, pair(3, [[0, 2], [1]], (3, 4, 3)))
    assert not fusion_resistant(game_b, pair(3, [[0], [1], [2]], (0, 4, 0)))
    rng = random.Random(1)
    for n in (1, 2, 3):
        g = random_game(rng, n)
        try:
            x = equal_surplus_allocation(g, Partition.grand(n))
        except Exception:
            continue
        assert fusion_resistant(g, PAPair(Partition.grand(n), x))  # nothing to merge


def test_fusion_scan_equals_materialized_coarsening_dominance():
    rng = random.Random(2)
    for n in (2, 3, 4, 5):
        for _ in range(8):
            g = random_game(rng, n)
            for p in all_partitions(n):
                expected = all(worth(g, p) >= worth(g, q)
                               for q in fusion_neighborhood(p))
                assert dominates_coarsenings(g, p) == expected


def test_fusion_resistance_is_partition_only():
    rng = random.Random(3)
    for _ in range(15):
        g = random_game(rng, 4)
        for p in all_partitions(4):
            allocations = sample_feasible_allocations(g, p, rng, count=3)
            answers = {fusion_resistant(g, PAPair(p, x)) for x in allocations}
            assert len(answers) <= 1


def test_medium_fission_resistance_is_partition_only():
    rng = random.Random(4)
    for _ in range(15):
        g = random_game(rng, 4)
        for p in all_partitions(4):
            answers = {fission_resistant_direct(g, PAPair(p, x), "medium")
                       for x in sample_feasible_allocations(g, p, rng, count=3)}
            assert len(answers) <= 1


def test_direct_equals_decomposed_exhaustive_small():
    rng = random.Random(5)
    for n in (2, 3, 4):
        for _ in range(6):
            g = random_game(rng, n)
            for p in all_partitions(n):
                for x in sample_feasible_allocations(g, p, rng, count=2):
                    pr = PAPair(p, x)
                    for mode in MODES:
                        assert (fission_resistant_direct(g, pr, mode)
                                == fission_resistant_decomposed(g, pr, mode))


def test_blockwise_core_examples(game_a, game_b):
    acb = Partition(3, [0b101, 0b010])
    assert blockwise_core_contains(game_b, acb, (3, 4, 3), "medium")
    assert blockwise_core_contains(game_b, Partition.grand(3), (0, 6, 2), "weak")
    assert not blockwise_core_contains(game_a, Partition.grand(3), (2, 2, 2), "strong")


def test_blockwise_core_matches_plain_core_at_grand():
    rng = random.Random(6)
    for n in (2, 3, 4):
        for _ in range(10):
            g = random_game(rng, n)
            grand = Partition.grand(n)
            for x in sample_feasible_allocations(g, grand, rng, count=3):
                for mode in MODES:
                    assert (blockwise_core_contains(g, grand, x, mode)
                            == core_contains(g, x, mode).member)


def test_blockwise_nonempty_examples(game_a, game_b):
    assert blockwise_core_nonempty(game_b, Partition(3, [0b101, 0b010]), "medium")
    assert not blockwise_core_nonempty(game_a, Partition.grand(3), "strong")
    assert blockwise_core_nonempty(game_a, Partition.grand(3), "medium")


def raised_grand_game(rng, n):
    """A signed random game whose grand value is raised by 4n, which leaves
    about half of the strong cores nonempty at n = 3..6."""
    table = list(random_game(rng, n)._values)
    table[-1] += 4 * n
    return Game(n, table)


def test_strong_blockwise_nonempty_matches_covering_oracle():
    rng = random.Random(41)
    verdicts = {True: 0, False: 0}
    for family in (random_game, raised_grand_game):
        for n in (3, 4, 5, 6):
            for _ in range(12):
                g = family(rng, n)
                nonempty, witness = strong_core_nonempty(g)
                if nonempty:
                    assert strong_core_contains(g, witness).member
                for p in [Partition.grand(n)] + [random_partition(rng, n) for _ in range(2)]:
                    for b in p.blocks:
                        rest = [1 << i for i in range(n) if not b >> i & 1]
                        alone = Partition(n, [b] + rest)  # singletons always pass
                        oracle = g.value(b) >= covering_value(subgame(g, b)[0])
                        assert blockwise_core_nonempty(g, alone, "strong") == oracle
                        verdicts[oracle] += 1
    assert min(verdicts.values()) >= 50


def test_dominates_coarsenings_examples(game_b, game_2):
    assert dominates_coarsenings(game_b, Partition(3, [0b101, 0b010]))
    assert dominates_coarsenings(game_2, Partition.singletons(2))
    assert not dominates_coarsenings(game_b, Partition.singletons(3))


def test_stable_contains_examples(game_b, game_2):
    report = checked_stable_contains(game_2, pair(2, [[0], [1]], (1, 1)), "strong")
    assert report.stable and report.feasible

    report = checked_stable_contains(game_b, pair(3, [[0, 2], [1]], (3, 4, 3)), "medium")
    assert report.stable

    report = checked_stable_contains(game_b, pair(3, [[0, 1, 2]], (0, 6, 2)), "medium")
    assert not report.stable and report.fission_certificate is not None

    report = checked_stable_contains(game_b, pair(3, [[0, 1], [2]], (0, 0, 0)), "medium")
    assert not report.stable and not report.feasible and report.reason


def test_stable_certificates_check_out(game_b):
    report = checked_stable_contains(game_b, pair(3, [[0, 1, 2]], (0, 6, 2)), "medium")
    cert = report.fission_certificate
    assert cert is not None
    assert worth(game_b, cert) > worth(game_b, Partition.grand(3))

    report = checked_stable_contains(game_b, pair(3, [[0], [1], [2]], (0, 4, 0)), "weak")
    assert not report.fusion_resistant
    cert = report.fusion_certificate
    assert cert is not None
    assert worth(game_b, cert) > worth(game_b, Partition.singletons(3))


def test_stability_core_compatibility_at_grand():
    rng = random.Random(7)
    for n in (2, 3, 4):
        for _ in range(8):
            g = random_game(rng, n)
            grand = Partition.grand(n)
            for x in sample_feasible_allocations(g, grand, rng, count=3):
                for mode in MODES:
                    assert (checked_stable_contains(g, PAPair(grand, x), mode).stable
                            == core_contains(g, x, mode).member)


def test_stability_inclusion_chain():
    rng = random.Random(8)
    for n in (2, 3, 4, 5):
        for _ in range(8):
            g = random_game(rng, n)
            for p in all_partitions(n):
                for x in sample_feasible_allocations(g, p, rng, count=2):
                    verdict = {mode: checked_stable_contains(g, PAPair(p, x), mode).stable
                               for mode in MODES}
                    assert (not verdict["strong"] or verdict["medium"])
                    assert (not verdict["medium"] or verdict["weak"])


def test_medium_blockwise_core_is_all_or_nothing():
    rng = random.Random(9)
    for _ in range(20):
        g = random_game(rng, 4)
        for p in all_partitions(4):
            xs = sample_feasible_allocations(g, p, rng, count=3)
            if not xs:
                continue
            nonempty = blockwise_core_nonempty(g, p, "medium")
            for x in xs:
                assert blockwise_core_contains(g, p, x, "medium") == nonempty


def test_medium_block_nonempty_reads_the_game_table():
    """Per-block medium nonemptiness reads the game's structure table at the
    block's mask; the subgame builds its own table, an independent route."""
    rng = random.Random(12)
    for n in range(1, 7):
        for _ in range(6):
            g = random_game(rng, n)
            for b in range(1, 1 << n):
                assert (cores._blockwise_core_nonempty_cached(g, b, "medium")
                        == medium_core_nonempty(subgame(g, b)[0]))


def test_enumerate_stable_partitions(game_a, game_b):
    found_b = list(enumerate_stable_partitions(game_b, "medium"))
    assert Partition(3, [0b101, 0b010]) in found_b
    found_a = list(enumerate_stable_partitions(game_a, "medium"))
    assert Partition.grand(3) in found_a

    rng = random.Random(10)
    for n in (2, 3, 4):
        for _ in range(10):
            g = random_game(rng, n)
            found = list(enumerate_stable_partitions(g, "medium"))
            assert found  # universality
            keys = [p.sort_key() for p in found]
            assert keys == sorted(keys)
            best = max(worth(g, p) for p in all_partitions(n))
            argmaxes = {p.blocks for p in all_partitions(n) if worth(g, p) == best}
            assert argmaxes <= {p.blocks for p in found}

    with pytest.raises(CapExceeded):
        list(enumerate_stable_partitions(Game(9), "medium"))


def test_enumerate_stable_partitions_definition():
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(8):
            g = random_game(rng, n)
            for mode in MODES:
                got = {p.blocks for p in enumerate_stable_partitions(g, mode)}
                expected = {p.blocks for p in all_partitions(n)
                            if blockwise_core_nonempty(g, p, mode)
                            and dominates_coarsenings(g, p)}
                assert got == expected


def test_enumerate_checks_cores_only_past_fusion(monkeypatch):
    checked = []
    core_check = stability.blockwise_core_nonempty

    def recorded(game, p, mode):
        checked.append(p)
        return core_check(game, p, mode)

    monkeypatch.setattr(stability, "blockwise_core_nonempty", recorded)
    g = raised_grand_game(random.Random(15), 5)
    for mode in MODES:
        list(enumerate_stable_partitions(g, mode))
    assert checked and all(dominates_coarsenings(g, p) for p in checked)


def test_stable_set_matches_brute_force_over_pairs():
    rng = random.Random(12)
    for n in (2, 3):
        for _ in range(10):
            g = random_game(rng, n)
            for mode in MODES:
                stable_partitions = set()
                for p in all_partitions(n):
                    for x in sample_feasible_allocations(g, p, rng, count=3):
                        if checked_stable_contains(g, PAPair(p, x), mode).stable:
                            stable_partitions.add(p.blocks)
                enumerated = {p.blocks for p in enumerate_stable_partitions(g, mode)}
                # sampling can miss a strong/weak core member, never invent one
                assert stable_partitions <= enumerated
                if mode == "medium":
                    # the medium blockwise core, when nonempty, is the whole
                    # feasible set, so any sampled allocation certifies
                    assert stable_partitions == enumerated


@pytest.fixture
def no_search(monkeypatch):
    """Make every LP solve, weak-core search and refinement scan raise."""
    def boom(*args, **kwargs):
        raise AssertionError("stable_contains must not reach this")

    monkeypatch.setattr(ratlp, "lp_solve", boom)
    monkeypatch.setattr(cores, "weak_core_nonempty", boom)
    monkeypatch.setattr(lattice, "_iter_refinements_raw", boom)
    return monkeypatch


def test_stable_contains_runs_only_the_per_block_route(no_search):
    rng = random.Random(13)
    seen = []
    for n in (2, 3, 4, 5, 6):
        for _ in range(10):
            g = random_game(rng, n)
            for _ in range(3):
                p = random_partition(rng, n)
                for x in sample_feasible_allocations(g, p, rng, count=2)[:3]:
                    for mode in MODES:
                        pr = PAPair(p, x)
                        seen.append((g, pr, mode, stability.stable_contains(g, pr, mode)))
    assert len(seen) > 300
    no_search.undo()
    for g, pr, mode, report in seen:
        assert checked_stable_contains(g, pr, mode) == report


def test_strong_enumerate_never_solves_the_covering_program(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("the covering program is a test oracle only")

    g = raised_grand_game(random.Random(8), 6)
    monkeypatch.setattr(ratlp, "balancedness_value", boom)
    found = [p.blocks for p in enumerate_stable_partitions(g, "strong")]
    monkeypatch.undo()
    ok = {b: g.value(b) >= covering_value(subgame(g, b)[0]) for b in range(1, 1 << 6)}
    expected = [p.blocks for p in all_partitions(6)
                if all(ok[b] for b in p.blocks) and dominates_coarsenings(g, p)]
    assert found == expected and found


def test_adversarial_weak_grand_pair(no_search):
    # the per-block fission route decides the pair without a weak-core search
    g = Game(6, ADVERSARIAL_6)
    grand = Partition.grand(6)
    pr = PAPair(grand, equal_surplus_allocation(g, grand))
    report = stability.stable_contains(g, pr, "weak")
    assert report.feasible and report.fission_resistant is False
    no_search.undo()
    assert checked_stable_contains(g, pr, "weak") == report
