import pytest

from coalstab import (CapExceeded, Game, InputError, Partition, all_partitions,
                      enumerate_partitions, export_graph, fission_neighborhood,
                      fusion_neighborhood, is_refinement, meet, members, one_step_fission,
                      one_step_fusion, path)
from coalstab.lattice import FISSION, FUSION, _partitions_of_mask
from helpers import bell_numbers, partitions_by_insertion, refines_oracle

BELL = bell_numbers(10)


def P(n, *groups):
    return Partition.from_sets(n, groups)


def test_enumeration_counts_match_bell_recurrence():
    for n in range(1, 9):
        assert sum(1 for _ in enumerate_partitions(n)) == BELL[n]


def test_enumeration_matches_insertion_oracle():
    for n in range(1, 7):
        ours = [p.blocks for p in enumerate_partitions(n)]
        assert len(set(ours)) == len(ours)
        assert set(ours) == set(partitions_by_insertion(n))


def test_enumeration_grouped_and_canonically_ordered():
    for n in range(1, 7):
        keys = [p.sort_key() for p in enumerate_partitions(n)]
        assert keys == sorted(keys)


def test_enumeration_examples():
    assert [str(p) for p in enumerate_partitions(1)] == ["0"]
    assert sum(1 for _ in enumerate_partitions(3)) == 5
    assert sum(1 for _ in enumerate_partitions(7)) == 877


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        next(enumerate_partitions(15))


def test_player_count_check_is_shared():
    """Every entry point that takes a player count refuses the same inputs
    with the same error, all_partitions included; its Bell(n) guard is the
    one enumerate_stable_partitions relies on."""
    takers = (Game, lambda n: Partition(n, ()), lambda n: next(enumerate_partitions(n)),
              all_partitions, export_graph)
    for n in (0, -1, "3", 2.0, None):
        for take in takers:
            with pytest.raises(InputError, match="player count must be a positive int"):
                take(n)
    with pytest.raises(CapExceeded, match=r"^refusing to scan Bell\(9\) partitions "
                                          r"\(guard is n <= 8\)$"):
        all_partitions(9)


def test_partitions_of_sparse_masks():
    for mask in (0b101101, 0b1110010, 0b1000, 0b11000000101):
        players = members(mask)
        got = list(_partitions_of_mask(mask))
        assert got[0] == (mask,)
        assert len(got) == BELL[len(players)] and len(set(got)) == len(got)
        for blocks in got:
            assert sum(blocks) == mask and all(b & mask == b for b in blocks)
            assert list(blocks) == sorted(blocks, key=lambda b: b & -b)
        # block count, then growth string over the mask's members
        keys = [(len(bl), tuple(next(k for k, b in enumerate(bl) if b >> i & 1)
                                for i in players)) for bl in got]
        assert keys == sorted(keys)


def test_is_refinement_examples():
    assert is_refinement(P(3, [0], [1], [2]), P(3, [0, 1], [2]))
    p = P(3, [0, 1], [2])
    assert not is_refinement(p, p)
    assert not is_refinement(P(3, [0, 1], [2]), P(3, [0, 2], [1]))


def test_is_refinement_against_oracle():
    for n in range(1, 5):
        parts = all_partitions(n)
        for p in parts:
            for q in parts:
                assert is_refinement(p, q) == refines_oracle(p.blocks, q.blocks)


def test_neighborhoods_against_filter_of_all_partitions():
    for n in range(1, 6):
        parts = all_partitions(n)
        for p in parts:
            fission_list = [q.blocks for q in fission_neighborhood(p)]
            fusion_list = [q.blocks for q in fusion_neighborhood(p)]
            fission, fusion = set(fission_list), set(fusion_list)
            assert len(fission) == len(fission_list) and len(fusion) == len(fusion_list)
            assert fission == {q.blocks for q in parts if refines_oracle(q.blocks, p.blocks)}
            assert fusion == {q.blocks for q in parts if refines_oracle(p.blocks, q.blocks)}


def test_neighborhood_examples():
    grand = Partition.grand(3)
    assert {q.blocks for q in fission_neighborhood(grand)} == \
        {p.blocks for p in all_partitions(3) if p != grand}
    assert tuple(fission_neighborhood(Partition.singletons(4))) == ()
    assert [str(q) for q in fission_neighborhood(P(3, [0, 1], [2]))] == ["0|1|2"]

    assert tuple(fusion_neighborhood(Partition.grand(4))) == ()
    assert len(tuple(fusion_neighborhood(Partition.singletons(3)))) == 4
    assert [str(q) for q in fusion_neighborhood(P(3, [0, 1], [2]))] == ["0,1,2"]


def test_neighborhood_duality():
    for n in range(1, 5):
        parts = all_partitions(n)
        for p in parts:
            down = {q.blocks for q in fission_neighborhood(p)}
            for q in parts:
                assert (q.blocks in down) == (p.blocks in {r.blocks for r in fusion_neighborhood(q)})


def test_neighborhood_monotone_in_refinement():
    for n in range(1, 5):
        parts = all_partitions(n)
        for p in parts:
            for q in parts:
                if not is_refinement(p, q):
                    continue
                fis_p = {r.blocks for r in fission_neighborhood(p)}
                fis_q = {r.blocks for r in fission_neighborhood(q)}
                fus_p = {r.blocks for r in fusion_neighborhood(p)}
                fus_q = {r.blocks for r in fusion_neighborhood(q)}
                assert fis_p < fis_q
                assert fus_p > fus_q


def test_one_step_fission():
    assert [str(q) for q in one_step_fission(P(3, [0, 1], [2]))] == ["0|1|2"]
    assert one_step_fission(Partition.singletons(5)) == ()
    splits = one_step_fission(Partition.grand(3))
    assert {str(q) for q in splits} == {"0,1|2", "0,2|1", "0|1,2"}
    # one-step fissions are exactly the refinements with one more block
    for n in range(2, 6):
        for p in all_partitions(n):
            expected = {q.blocks for q in fission_neighborhood(p)
                        if len(q.blocks) == len(p.blocks) + 1}
            assert {q.blocks for q in one_step_fission(p)} == expected


def test_one_step_fusion():
    assert one_step_fusion(Partition.grand(4)) == ()
    assert len(one_step_fusion(Partition.singletons(3))) == 3
    assert [str(q) for q in one_step_fusion(P(3, [0, 1], [2]))] == ["0,1,2"]
    for n in range(2, 6):
        for p in all_partitions(n):
            got = one_step_fusion(p)
            assert len(got) == len(p.blocks) * (len(p.blocks) - 1) // 2
            expected = {q.blocks for q in fusion_neighborhood(p)
                        if len(q.blocks) == len(p.blocks) - 1}
            assert {q.blocks for q in got} == expected


def test_meet_examples():
    assert meet(P(3, [0, 1], [2]), P(3, [0, 2], [1])) == Partition.singletons(3)
    p = P(4, [0, 3], [1, 2])
    assert meet(p, p) == p
    assert meet(p, Partition.grand(4)) == p


def test_meet_is_greatest_common_refinement():
    def refines_or_equal(a, b):
        return a == b or refines_oracle(a.blocks, b.blocks)

    for n in range(1, 5):
        parts = all_partitions(n)
        for p in parts:
            for q in parts:
                m = meet(p, q)
                assert refines_or_equal(m, p) and refines_or_equal(m, q)
                for r in parts:
                    if refines_or_equal(r, p) and refines_or_equal(r, q):
                        assert refines_or_equal(r, m)


def _assert_valid_walk(moves, p, q):
    if p == q:
        assert moves == []
        return
    assert moves[0].source == p and moves[-1].target == q
    for a, b in zip(moves, moves[1:]):
        assert a.target == b.source
    for mv in moves:
        if mv.kind == FISSION:
            assert mv.target in set(one_step_fission(mv.source))
            assert len(mv.touched) == 1 and mv.touched[0] in mv.source.blocks
        else:
            assert mv.kind == FUSION
            assert mv.target in set(one_step_fusion(mv.source))
            b1, b2 = mv.touched
            assert b1 in mv.source.blocks and b2 in mv.source.blocks
            assert (b1 | b2) in mv.target.blocks


def test_path_examples():
    p, q = P(3, [0, 1], [2]), P(3, [0, 2], [1])
    moves = path(p, q)
    assert len(moves) == 2  # via the all-singleton meet
    assert moves[0].kind == FISSION and moves[1].kind == FUSION
    assert moves[0].target == Partition.singletons(3)
    _assert_valid_walk(moves, p, q)

    assert path(p, p) == []

    up = path(Partition.singletons(3), Partition.grand(3))
    assert len(up) == 2 and all(mv.kind == FUSION for mv in up)


def test_path_all_pairs_small():
    for n in range(1, 5):
        parts = all_partitions(n)
        for p in parts:
            for q in parts:
                _assert_valid_walk(path(p, q), p, q)


def test_export_graph_small():
    dot = export_graph(2)
    assert dot.count("->") == 2  # one fission arc, one fusion arc
    assert "P1_01" in dot and "P2_0_1" in dot

    dot3 = export_graph(3)
    assert sum(1 for line in dot3.splitlines() if "[label=" in line) == 5
    solid = sum(1 for line in dot3.splitlines() if "style=solid" in line)
    dashed = sum(1 for line in dot3.splitlines() if "style=dashed" in line)
    assert solid == 6 and dashed == 6

    dot4 = export_graph(4)
    assert sum(1 for line in dot4.splitlines() if "[label=" in line) == 15

    assert export_graph(3) == dot3  # deterministic


def test_export_graph_arc_counts_match_one_step_scan():
    for n in (2, 3, 4):
        dot = export_graph(n)
        arcs = sum(1 for line in dot.splitlines() if "->" in line)
        expected = sum(len(one_step_fission(p)) + len(one_step_fusion(p))
                       for p in all_partitions(n))
        assert arcs == expected


def test_export_graph_guard():
    with pytest.raises(CapExceeded):
        export_graph(7)
