import random
from fractions import Fraction

import pytest

from coalstab import (DEFAULT_PLAYER_CAP, CapExceeded, EmptyBlockAllocation, Game,
                      InputError, Partition, coalition, coalition_value,
                      equal_surplus_allocation, is_efficient_allocation,
                      is_partition_allocation, members, subgame, worth)
from helpers import random_game


def test_coalition_helpers():
    assert coalition([0, 2]) == 0b101
    assert members(0b101) == (0, 2)
    assert members(0) == ()
    with pytest.raises(InputError):
        coalition([-1])


def test_coalition_value_examples(game_a, game_b):
    assert coalition_value(game_a, coalition([1, 2])) == 5
    assert coalition_value(game_a, 0) == 0
    assert coalition_value(game_b, coalition([0, 2])) == 6


def test_coalition_value_range_errors(game_a):
    with pytest.raises(InputError):
        coalition_value(game_a, 1 << 3)
    with pytest.raises(InputError):
        coalition_value(game_a, -1)
    with pytest.raises(InputError):
        coalition_value(game_a, "12")


def test_game_construction_validation():
    with pytest.raises(InputError):
        Game(0)
    with pytest.raises(CapExceeded):
        Game(15)
    Game(DEFAULT_PLAYER_CAP)  # the cap itself is allowed
    with pytest.raises(InputError):
        Game(2, {0b100: 1})
    with pytest.raises(InputError):
        Game(2, {0: 5})
    with pytest.raises(InputError):
        Game(2, [0, 1, 2])  # wrong table length
    with pytest.raises(InputError):
        Game(2, {0b01: 0.5})  # floats rejected
    g = Game(2, {0b01: "3/2", 0b11: Fraction(4, 2)})
    assert g.value(0b01) == Fraction(3, 2)
    assert g.value(0b11) == 2 and isinstance(g.value(0b11), int)


def test_subgame_examples(game_a, game_b):
    sub, players = subgame(game_b, 0b101)
    assert players == (0, 2)
    assert sub.n == 2
    assert [sub.value(m) for m in range(4)] == [0, 0, 0, 6]

    same, players = subgame(game_a, game_a.full)
    assert players == (0, 1, 2)
    assert [same.value(m) for m in range(8)] == [game_a.value(m) for m in range(8)]

    sub_a, _ = subgame(game_a, 0b011)
    assert [sub_a.value(m) for m in range(4)] == [0, 0, 0, 5]

    with pytest.raises(InputError):
        subgame(game_a, 0)


def test_subgame_composes():
    rng = random.Random(7)
    for _ in range(20):
        g = random_game(rng, 5)
        outer = 0b11011
        inner_reduced = 0b1011  # within the subgame's index space
        sub1, players1 = subgame(g, outer)
        sub2, players2 = subgame(sub1, inner_reduced)
        original = coalition(players1[i] for i in members(inner_reduced))
        direct, players3 = subgame(g, original)
        assert players3 == tuple(players1[i] for i in players2)
        assert direct._values == sub2._values


def test_worth_examples(game_a, game_b):
    assert worth(game_b, Partition(3, [0b101, 0b010])) == 10
    assert worth(game_b, Partition.grand(3)) == game_b.value(0b111)
    assert worth(game_a, Partition.singletons(3)) == 0


def test_worth_block_order_independent(game_b):
    rng = random.Random(3)
    for _ in range(10):
        g = random_game(rng, 4)
        blocks = [0b0011, 0b0100, 0b1000]
        total = None
        for _ in range(5):
            rng.shuffle(blocks)
            w = worth(g, Partition(4, blocks))
            assert total is None or w == total
            total = w


def test_partition_canonical_form():
    p = Partition(3, [0b110, 0b001])
    assert p.blocks == (0b001, 0b110)
    assert str(p) == "0|1,2"
    q = Partition.from_sets(3, [[2, 1], [0]])
    assert p == q and hash(p) == hash(q)
    # blocks sorted by smallest member, not by mask value
    r = Partition(4, [0b1001, 0b0110])
    assert r.blocks == (0b1001, 0b0110)


def test_partition_validation():
    with pytest.raises(InputError):
        Partition(3, [0b011])  # not covering
    with pytest.raises(InputError):
        Partition(3, [0b011, 0b110])  # overlap
    with pytest.raises(InputError):
        Partition(3, [0b011, 0b100, 0])  # empty block
    with pytest.raises(InputError):
        Partition(2, [0b101])  # out of range


def test_partition_rejects_non_int_blocks():
    for blocks in ([1.5, 2], ["2", 1], [Fraction(1), 2], [None, 3]):
        with pytest.raises(InputError):
            Partition(2, blocks)


def test_is_efficient_allocation(game_a, game_b):
    assert is_efficient_allocation(game_a, (2, 2, 2))
    assert not is_efficient_allocation(game_b, (2, 1, 5))  # player B below stand-alone
    assert is_efficient_allocation(game_b, (0, 6, 2))
    assert not is_efficient_allocation(game_a, (3, 3, 3))  # sum too big
    with pytest.raises(InputError):
        is_efficient_allocation(game_a, (1, 2))


def test_is_partition_allocation(game_b):
    rng = random.Random(11)
    for _ in range(10):
        g = random_game(rng, 4)
        splintered = Partition.singletons(4)
        stand_alone = tuple(g.value(1 << i) for i in range(4))
        assert is_partition_allocation(g, splintered, stand_alone)
        bumped = (stand_alone[0] + 1,) + stand_alone[1:]
        assert not is_partition_allocation(g, splintered, bumped)
    p = Partition(3, [0b101, 0b010])
    assert is_partition_allocation(game_b, p, (3, 4, 3))
    assert not is_partition_allocation(game_b, p, (0, 6, 2))


def test_grand_partition_allocation_is_efficiency(game_a):
    rng = random.Random(5)
    grand = Partition.grand(3)
    for _ in range(50):
        x = tuple(rng.randint(-2, 4) for _ in range(3))
        assert (is_partition_allocation(game_a, grand, x)
                == is_efficient_allocation(game_a, x))


def test_equal_surplus_examples(game_a, game_b):
    assert equal_surplus_allocation(game_b, Partition(3, [0b101, 0b010])) == (3, 4, 3)
    assert equal_surplus_allocation(game_a, Partition.grand(3)) == (2, 2, 2)
    rng = random.Random(2)
    for _ in range(10):
        g = random_game(rng, 4)
        assert (equal_surplus_allocation(g, Partition.singletons(4))
                == tuple(g.value(1 << i) for i in range(4)))


def test_equal_surplus_rejects_negative_surplus():
    g = Game(2, {0b01: 3, 0b10: 3, 0b11: 1})
    with pytest.raises(EmptyBlockAllocation) as err:
        equal_surplus_allocation(g, Partition.grand(2))
    assert err.value.block == 0b11


def test_equal_surplus_result_is_feasible():
    rng = random.Random(13)
    for _ in range(30):
        g = random_game(rng, 4)
        grand = Partition.grand(4)
        try:
            x = equal_surplus_allocation(g, grand)
        except EmptyBlockAllocation:
            # exactly when the efficient set is empty
            assert g.value(g.full) < sum(g.value(1 << i) for i in range(4))
            continue
        assert g.value(g.full) >= sum(g.value(1 << i) for i in range(4))
        assert is_partition_allocation(g, grand, x)


def test_one_player_game():
    g = Game(1, {0b1: 7})
    assert is_efficient_allocation(g, (7,))
    assert not is_efficient_allocation(g, (6,))
    assert equal_surplus_allocation(g, Partition.grand(1)) == (7,)
    assert worth(g, Partition.grand(1)) == 7
