import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalstab import (Game, InputError, LinearProgram, NoNonGrandPartition, Partition,
                      all_partitions, lp_solve,
                      max_nongrand_worth, medium_core_contains, medium_core_nonempty,
                      optimal_structure_value, strong_core_contains,
                      strong_core_nonempty, weak_core_contains, weak_core_nonempty,
                      worth)
from coalstab import cores, ratlp
from coalstab.cores import subset_structure_table
from coalstab.game import _most_short, prefix_sums
from helpers import (ADVERSARIAL_6, _unhit_partition, adversarial_game, allocation_sums,
                     dense_structure_table,
                     medium_member_partition_scan, partitions_by_insertion, random_game,
                     random_partition, sample_efficient_allocations,
                     strong_member_partition_scan,
                     weak_certificate_table, weak_core_nonempty_unhit,
                     weak_member_partition_scan, weak_nonempty_oracle_n3)


def test_strong_membership_examples(game_a, game_b):
    report = strong_core_contains(game_a, (2, 2, 2))
    assert not report.member and report.coalition == 0b011  # minimal violator {1,2}

    report = strong_core_contains(game_b, (0, 6, 2))
    assert not report.member and report.coalition == 0b101

    assert strong_core_contains(Game(1, {0b1: 4}), (4,)).member
    with pytest.raises(InputError):
        strong_core_contains(game_a, (1, 2))


def test_strong_membership_certificate_is_minimal():
    rng = random.Random(1)
    for _ in range(40):
        g = random_game(rng, 4)
        for x in sample_efficient_allocations(g, rng, count=2):
            report = strong_core_contains(g, x)
            if report.coalition is None:
                continue
            sums = [sum(x[i] for i in range(4) if c >> i & 1)
                    for c in range(1 << 4)]
            violators = [c for c in range(1, 1 << 4) if sums[c] < g.value(c)]
            assert report.coalition == violators[0]


def test_strong_nonempty_examples(game_a, game_2):
    assert strong_core_nonempty(game_a) == (False, None)
    assert strong_core_nonempty(game_2) == (False, None)
    slack = Game(3, {0b111: 100})
    ok, witness = strong_core_nonempty(slack)
    assert ok and strong_core_contains(slack, witness).member


def test_strong_nonempty_row_generation_counts(monkeypatch):
    """Round k solves the efficiency row plus the k-1 coalitions generated so
    far. Arithmetic is exact and rows are solved in canonical order, so the
    counts repeat exactly; adding the first violated coalition instead of the
    most violated one takes 24 rounds on this game."""
    rng = random.Random(0)
    n = 10
    table = [0] + [rng.randint(0, 20) * bin(m).count("1") for m in range(1, 1 << n)]
    table[-1] = 40 * n
    g = Game(n, table)
    rows = []
    solve = ratlp.lp_solve

    def counted(lp):
        rows.append(len(lp.constraints))
        return solve(lp)

    monkeypatch.setattr(ratlp, "lp_solve", counted)
    ok, witness = strong_core_nonempty(g)
    assert ok and strong_core_contains(g, witness).member
    assert rows == list(range(1, len(rows) + 1))
    assert 2 <= len(rows) <= 18


def test_coalition_scans_on_fraction_values_match_fraction_sums():
    # the scans compare totals scaled to the allocation's common denominator;
    # on Fraction values they must decide as plain Fraction sums do
    rng = random.Random(35)
    for n in range(1, 6):
        for _ in range(12):
            values = [0] + [Fraction(rng.randint(-12, 12), rng.randint(1, 3))
                            for _ in range(1, 1 << n)]
            g = Game(n, values)
            x = tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(n))
            sums = allocation_sums(x, n)
            gaps = [v - s for v, s in zip(values, sums)]
            worst = max(gaps)
            assert _most_short(values, x, n) == ((gaps.index(worst),) if worst > 0 else ())
            short = [c for c in range(1, 1 << n) if sums[c] < values[c]]
            report = strong_core_contains(g, x)
            assert report.coalition == (short[0] if short else None)
            for x in sample_efficient_allocations(g, rng, count=2):
                assert strong_core_contains(g, x).member == strong_member_partition_scan(g, x)
                assert weak_core_contains(g, x).member == weak_member_partition_scan(g, x)


def test_strong_membership_equals_partition_scan():
    rng = random.Random(2)
    for n in (2, 3, 4, 5):
        for _ in range(12):
            g = random_game(rng, n)
            for x in sample_efficient_allocations(g, rng, count=3):
                assert (strong_core_contains(g, x).member
                        == strong_member_partition_scan(g, x))


def test_optimal_structure_examples(game_a, game_b):
    assert optimal_structure_value(game_b) == (10, Partition(3, [0b101, 0b010]))
    assert optimal_structure_value(game_a) == (6, Partition.grand(3))
    additive = Game(3, {0b001: 1, 0b010: 2, 0b100: 3, 0b011: 3, 0b101: 4,
                        0b110: 5, 0b111: 6})
    assert optimal_structure_value(additive) == (6, Partition.grand(3))


def test_optimal_structure_is_max_over_partitions():
    rng = random.Random(3)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            g = random_game(rng, n)
            value, argmax = optimal_structure_value(g)
            worths = [worth(g, p) for p in all_partitions(n)]
            assert value == max(worths)
            assert worth(g, argmax) == value


def test_optimal_structure_equals_its_lp_form():
    # one variable bounded below by every partition's worth, minimized
    rng = random.Random(4)
    for n in (2, 3, 4):
        for _ in range(10):
            g = random_game(rng, n)
            lp = LinearProgram(
                1, sense="min", objective=[1],
                constraints=[([1], ">=", worth(g, p)) for p in all_partitions(n)])
            assert lp_solve(lp).value == optimal_structure_value(g)[0]


def _assert_table_is_dense(values, n):
    """The pruned table equals the dense one on worth, block count and first
    block of every mask, with the worths' types too."""
    got, want = subset_structure_table(values, n), dense_structure_table(values, n)
    assert got == want
    assert list(map(type, got[0])) == list(map(type, want[0]))


def _family_values(rng, family, n):
    size = 1 << n
    sizes = [m.bit_count() for m in range(size)]
    if family == "signed":
        return random_game(rng, n)._values
    if family == "linear":
        return [0] + [rng.randint(0, 20) * sizes[m] for m in range(1, size - 1)] + [40 * n]
    if family == "superadditive":
        alone = [rng.randint(0, 10) for _ in range(n)]
        return [sum(alone[i] for i in range(n) if m >> i & 1)
                + rng.randint(0, 6) * sizes[m] * (sizes[m] - 1) for m in range(size)]
    return adversarial_game(rng, n)._values


def test_structure_table_equals_dense_on_random_games():
    rng = random.Random(31)
    for n in range(1, 9):
        for _ in range(6):
            _assert_table_is_dense(random_game(rng, n)._values, n)
            values = [0] + [Fraction(rng.randint(-20, 20), rng.randint(1, 4))
                            for _ in range(1, 1 << n)]
            _assert_table_is_dense(values, n)


def test_structure_table_equals_dense_on_game_families():
    for family in ("signed", "linear", "superadditive", "adversarial"):
        rng = random.Random(f"table:{family}")
        for n in range(1, 11):
            for _ in range(2):
                _assert_table_is_dense(_family_values(rng, family, n), n)


def test_structure_table_equals_dense_on_tie_heavy_tables():
    rng = random.Random(32)
    for n in range(1, 10):
        size = 1 << n
        sizes = [m.bit_count() for m in range(size)]
        _assert_table_is_dense([0] * size, n)
        _assert_table_is_dense(sizes, n)
        _assert_table_is_dense([k * k for k in sizes], n)
        _assert_table_is_dense([0] + [rng.randint(-1, 1) for _ in range(1, size)], n)
        _assert_table_is_dense([0] + [rng.choice((0, -1)) for _ in range(1, size)], n)


def test_structure_table_equals_dense_on_quotient_tables():
    rng = random.Random(33)
    for n in range(2, 10):
        g = random_game(rng, n, lo=-3, hi=6)
        for _ in range(4):
            blocks = random_partition(rng, n).blocks
            q = len(blocks)
            _assert_table_is_dense([g._values[u] for u in prefix_sums(blocks, q)], q)


@settings(max_examples=150)
@given(st.data())
def test_structure_table_equals_dense_on_small_ranges(data):
    # values from a range of two or three integers: ties nearly everywhere
    n = data.draw(st.integers(1, 6))
    lo = data.draw(st.integers(-2, 1))
    rest = data.draw(st.lists(st.integers(lo, lo + data.draw(st.integers(1, 2))),
                              min_size=(1 << n) - 1, max_size=(1 << n) - 1))
    _assert_table_is_dense([0] + rest, n)


class _CountedValues(list):
    """A value table that counts the entries read from it."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def _table_reads(table, values, n):
    counted = _CountedValues(values)
    table(counted, n)
    return counted.reads


def test_structure_table_reads_at_most_half_the_values_of_the_dense_loop():
    # every coalition worth less than its own best split is never tried as
    # a block; the dense loop reads (3^8 - 1) / 2 = 3,280 values
    rng = random.Random(34)
    for _ in range(5):
        values = random_game(rng, 8)._values
        dense = _table_reads(dense_structure_table, values, 8)
        assert dense == (3 ** 8 - 1) // 2
        assert 2 * _table_reads(subset_structure_table, values, 8) <= dense


def test_structure_table_reads_no_more_than_the_dense_loop_when_all_are_self_optimal():
    for n in range(1, 9):
        for values in ([0] * (1 << n), [m.bit_count() ** 2 for m in range(1 << n)]):
            assert (_table_reads(subset_structure_table, values, n)
                    <= _table_reads(dense_structure_table, values, n))


def test_max_nongrand_examples(game_a, game_b, game_2):
    assert max_nongrand_worth(game_a) == 5
    assert max_nongrand_worth(game_b) == 10
    assert max_nongrand_worth(game_2) == 2
    with pytest.raises(NoNonGrandPartition):
        max_nongrand_worth(Game(1, {0b1: 3}))


def test_max_nongrand_is_max_over_nongrand_partitions():
    rng = random.Random(5)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            g = random_game(rng, n)
            expected = max(worth(g, p) for p in all_partitions(n) if len(p.blocks) > 1)
            assert max_nongrand_worth(g) == expected


def test_medium_membership_examples(game_a, game_b):
    assert medium_core_contains(game_a, (2, 2, 2)).member
    report = medium_core_contains(game_b, (0, 6, 2))
    assert not report.member
    assert report.partition == Partition(3, [0b101, 0b010])
    report = medium_core_contains(game_b, (1, 1, 6))
    assert not report.member and report.reason is not None


def test_medium_certificate_follows_the_structure_table_tie_rule():
    # worth 5 is reached by 0,3|1|2,4 and by 0|1,2|3,4, both with three
    # blocks; the table takes the first block holding player 3, the lowest
    # player on which the two first blocks differ
    values = [0, 0, 0, 0, 0, 2, 0, 0, 2, 1, 0, 1, 0, 1, 3, 0,
              2, 0, 2, 3, 3, 0, 0, 3, 0, 1, 1, 3, 3, 2, 3]
    g = Game(5, [0] + values)
    best = Partition.from_sets(5, [[0, 3], [1], [2, 4]])
    assert optimal_structure_value(g) == (5, best)
    report = medium_core_contains(g, (Fraction(3, 5),) * 5)
    assert not report.member and report.partition == best


def test_medium_membership_equals_partition_sum_scan():
    rng = random.Random(6)
    for n in (2, 3, 4, 5):
        for _ in range(12):
            g = random_game(rng, n)
            for x in sample_efficient_allocations(g, rng, count=3):
                assert (medium_core_contains(g, x).member
                        == medium_member_partition_scan(g, x))


def test_medium_nonempty_examples(game_a, game_b):
    assert medium_core_nonempty(game_a)
    assert not medium_core_nonempty(game_b)
    assert medium_core_nonempty(Game(1, {0b1: -5}))


def test_medium_nonempty_matches_thresholds():
    rng = random.Random(7)
    for n in (2, 3, 4):
        for _ in range(20):
            g = random_game(rng, n)
            grand = g.value(g.full)
            assert medium_core_nonempty(g) == (grand >= max_nongrand_worth(g))
            # dominance over every split implies dominance over the splinter
            if medium_core_nonempty(g):
                assert grand >= sum(g.value(1 << i) for i in range(n))


def test_weak_membership_examples(game_a, game_b):
    assert weak_core_contains(game_b, (0, 6, 2)).member
    # every non-grand 3-player partition holds a satisfied singleton
    assert weak_core_contains(game_a, (2, 2, 2)).member
    report = weak_core_contains(game_b, (2, 1, 5))
    assert not report.member and report.reason is not None


def test_weak_membership_equals_partition_scan():
    rng = random.Random(8)
    for n in (2, 3, 4, 5):
        for _ in range(12):
            g = random_game(rng, n)
            for x in sample_efficient_allocations(g, rng, count=3):
                assert (weak_core_contains(g, x).member
                        == weak_member_partition_scan(g, x))


def test_weak_certificates_check_out():
    rng = random.Random(9)
    for n in (3, 4, 5):
        for _ in range(15):
            g = random_game(rng, n)
            for x in sample_efficient_allocations(g, rng, count=2):
                report = weak_core_contains(g, x)
                sums = [sum(x[i] for i in range(n) if c >> i & 1)
                        for c in range(1 << n)]
                if report.member:
                    nongrand = (p for p in all_partitions(n) if len(p.blocks) > 1)
                    sat = set(report.satisfied)
                    assert all(any(b in sat for b in p.blocks) for p in nongrand)
                    assert all(sums[c] >= g.value(c) for c in sat)
                elif report.partition is not None:
                    assert len(report.partition.blocks) > 1
                    assert all(sums[b] < g.value(b) for b in report.partition.blocks)
                    # the certificate is a fewest-block deficient partition
                    deficient = [len(bl) for bl in partitions_by_insertion(n)
                                 if all(sums[b] < g.value(b) for b in bl)]
                    assert len(report.partition.blocks) == min(deficient)


def _assert_cover_equals_table(g, x):
    report = weak_core_contains(g, x)
    assert report.reason is None
    assert (None if report.member else report.partition.blocks) == weak_certificate_table(g, x)
    return report


def test_weak_cover_equals_the_deficiency_table():
    """The sparse cover's certificate is the dense 0/-1 table's, bit for bit."""
    rng = random.Random(19)
    failed = 0
    for n in range(2, 9):
        for _ in range(20 if n < 8 else 4):
            g = random_game(rng, n, lo=-4, hi=10)
            for x in sample_efficient_allocations(g, rng, count=3):
                failed += not _assert_cover_equals_table(g, x).member
    assert failed > 60


def test_weak_cover_all_and_none_deficient():
    for n in range(2, 9):
        # x = v({i}) = 0 and v(S) = |S| otherwise: every coalition of 2 to n-1
        # players is deficient, so from n = 4 the certificate has two blocks
        full = (1 << n) - 1
        g = Game(n, {m: 0 if m.bit_count() == 1 or m == full else m.bit_count()
                     for m in range(1, full + 1)})
        report = _assert_cover_equals_table(g, (0,) * n)
        assert report.member == (n < 4)
        # an additive game leaves no coalition deficient
        w = list(range(1, n + 1))
        g = Game(n, [sum(w[i] for i in range(n) if m >> i & 1) for m in range(full + 1)])
        report = _assert_cover_equals_table(g, w)
        assert report.member and len(report.satisfied) == full - 1


def test_weak_cover_on_adversarial_search_witnesses(monkeypatch):
    """Every witness the weak-core search certifies against, on adversarial
    6-player games."""
    seen = []
    contains = cores.weak_core_contains

    def recorded(game, x):
        seen.append((game, x))
        return contains(game, x)

    monkeypatch.setattr(cores, "weak_core_contains", recorded)
    rng = random.Random(7)
    for g in [Game(6, ADVERSARIAL_6)] + [adversarial_game(rng, 6) for _ in range(10)]:
        weak_core_nonempty(g)
    assert len(seen) > 20
    for g, x in seen:
        _assert_cover_equals_table(g, x)


def test_core_inclusion_chain():
    rng = random.Random(10)
    for n in (2, 3, 4, 5, 6):
        for _ in range(10):
            g = random_game(rng, n)
            for x in sample_efficient_allocations(g, rng, count=3):
                strong = strong_core_contains(g, x).member
                medium = medium_core_contains(g, x).member
                weak = weak_core_contains(g, x).member
                assert (not strong or medium) and (not medium or weak)


def test_grand_dominance_collapses_weak_to_efficient():
    rng = random.Random(11)
    checked = 0
    for _ in range(120):
        g = random_game(rng, 4)
        if g.value(g.full) < max_nongrand_worth(g):
            continue
        checked += 1
        for x in sample_efficient_allocations(g, rng, count=4):
            assert weak_core_contains(g, x).member
    assert checked > 3


def test_unhit_partition_matches_brute_force():
    rng = random.Random(12)
    for n in (1, 2, 3, 4, 5):
        g = Game(n, {})
        nongrand = [bl for bl in partitions_by_insertion(n) if len(bl) > 1]
        for _ in range(60):
            density = rng.choice((0.1, 0.4, 0.7, 0.95))
            required = frozenset(m for m in range(1, g.full + 1) if rng.random() < density)
            unhit = [bl for bl in nongrand if not any(b in required for b in bl)]
            got = _unhit_partition(g, required)
            if not unhit:
                assert got is None
                continue
            assert got is not None and got == Partition(n, got).blocks
            assert len(got) > 1 and not any(b in required for b in got)
            assert len(got) == min(len(bl) for bl in unhit)


def test_weak_nonempty_examples(game_a, game_b):
    ok, witness = weak_core_nonempty(game_b)
    assert ok and weak_core_contains(game_b, witness).member
    ok, witness = weak_core_nonempty(game_a)
    assert ok and weak_core_contains(game_a, witness).member


def test_weak_nonempty_spec_defect_case():
    # all pairs worth 10 but a tiny grand value: the efficient set is
    # nonempty, and every non-grand 3-player partition has a satisfied
    # singleton, so the weak core is nonempty
    g = Game(3, {0b011: 10, 0b101: 10, 0b110: 10, 0b111: 1})
    assert weak_nonempty_oracle_n3(g)
    ok, witness = weak_core_nonempty(g)
    assert ok and weak_core_contains(g, witness).member


def test_weak_nonempty_matches_exhaustive_oracle_n3():
    rng = random.Random(12)
    for _ in range(120):
        g = random_game(rng, 3)
        ok, witness = weak_core_nonempty(g)
        assert ok == weak_nonempty_oracle_n3(g)
        if ok:
            assert weak_core_contains(g, witness).member


def test_weak_nonempty_witnesses_small_n():
    rng = random.Random(13)
    for n in (4, 5):
        for _ in range(25):
            g = random_game(rng, n)
            ok, witness = weak_core_nonempty(g)
            if ok:
                assert weak_core_contains(g, witness).member
            else:
                assert witness is None
                for x in sample_efficient_allocations(g, rng, count=6):
                    assert not weak_core_contains(g, x).member


def test_weak_nonempty_can_be_false():
    # every pair is worth more than the whole pot, so any two-pair partition
    # finds both of its blocks deficient under any efficient allocation
    pairs = {c: 9 for c in range(1, 1 << 4) if bin(c).count("1") == 2}
    g = Game(4, {**pairs, 0b1111: 8})
    ok, witness = weak_core_nonempty(g)
    assert not ok and witness is None
    for x in sample_efficient_allocations(g, random.Random(0), count=6):
        assert not weak_core_contains(g, x).member


def test_weak_nonempty_matches_unhit_reference():
    rng = random.Random(14)
    games = [random_game(rng, n) for n in (3, 4, 5) for _ in range(15)]
    games += [adversarial_game(rng, 5) for _ in range(15)]
    for g in games:
        ok, witness = weak_core_nonempty(g)
        assert ok == weak_core_nonempty_unhit(g)[0]
        assert (witness is not None) == ok
        if ok:
            assert weak_core_contains(g, witness).member


def test_weak_nonempty_adversarial_lp_budget(monkeypatch):
    """The unhit-partition search took 18,876 LP solves on this game; the
    witness-driven search takes a dozen."""
    calls = []
    solve = ratlp.lp_solve

    def counted(lp):
        calls.append(1)
        assert len(calls) <= 20, "weak-core search exceeded 20 LP solves"
        return solve(lp)

    monkeypatch.setattr(ratlp, "lp_solve", counted)
    g = Game(6, ADVERSARIAL_6)
    ok, witness = weak_core_nonempty(g)
    assert ok and weak_core_contains(g, witness).member


def test_one_player_cores():
    g = Game(1, {0b1: 2})
    assert strong_core_contains(g, (2,)).member
    assert medium_core_contains(g, (2,)).member
    assert weak_core_contains(g, (2,)).member
    assert strong_core_nonempty(g)[0]
    assert medium_core_nonempty(g)
    assert weak_core_nonempty(g)[0]
