"""The partition lattice: enumeration, refinement order, fission/fusion
neighborhoods, one-step moves, and the layered coalition-structure graph.

Counts to keep in mind: there are Bell(n) partitions overall, so anything
that enumerates them is exponential-plus. Neighborhood functions therefore
yield lazily, and :func:`all_partitions`, which materializes all Bell(n),
stops at ``ENUMERATE_MAX_N`` players.

Every set-partition walk here is :func:`_partitions_of_mask`, one
growth-string generator: over the players for the canonical enumeration,
over a block's members for refinements, and over block indices for
coarsenings, whose block unions come from one subset-sum table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, product
from typing import Iterable, Iterator

from .errors import CapExceeded, InputError
from .game import DEFAULT_PLAYER_CAP, Partition, members, prefix_sums

GRAPH_EXPORT_MAX_N = 6
ENUMERATE_MAX_N = 8

FISSION = "one-step-fission"
FUSION = "one-step-fusion"


@dataclass(frozen=True)
class PartitionMove:
    """One arc of the coalition-structure graph.

    ``touched`` holds the block that was split (fission) or the two blocks
    that were merged (fusion).
    """

    kind: str
    source: Partition
    target: Partition
    touched: tuple[int, ...]


def _sorted_blocks(blocks: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(blocks, key=lambda b: b & -b))


def _grow(bits: list[int], blocks: list[int], i: int, p: int) -> Iterator[tuple[int, ...]]:
    """Place ``bits[i:]`` into exactly ``p`` blocks, extending ``blocks`` in
    lexicographic growth-string order."""
    opened = len(blocks)
    if len(bits) - i == p - opened:  # each player left opens a block
        yield tuple(blocks) + tuple(bits[i:])
        return
    bit = bits[i]
    for k in range(opened):
        blocks[k] |= bit
        yield from _grow(bits, blocks, i + 1, p)
        blocks[k] ^= bit
    if opened < p:
        blocks.append(bit)
        yield from _grow(bits, blocks, i + 1, p)
        blocks.pop()


def _partitions_of_mask(mask: int) -> Iterator[tuple[int, ...]]:
    """All partitions of the set bits of ``mask`` as tuples of block masks,
    blocks sorted by lowest bit.

    This is the one set-partition generator: restricted growth strings over
    the mask's members (Knuth, TAOCP 4A, 7.2.1.5), grouped by block count
    ascending and in lexicographic growth-string order within each group, so
    ``(mask,)`` comes first and the all-singleton partition last.
    """
    bits = [1 << i for i in members(mask)]
    for p in range(1, len(bits) + 1):
        yield from _grow(bits, [], 0, p)


_partition_cache: dict[int, tuple[Partition, ...]] = {}


def all_partitions(n: int) -> tuple[Partition, ...]:
    """Materialized canonical enumeration, cached for small n."""
    if n > ENUMERATE_MAX_N:
        raise CapExceeded(
            f"refusing to materialize all partitions for n={n} "
            f"(supported up to n={ENUMERATE_MAX_N}); use enumerate_partitions")
    got = _partition_cache.get(n)
    if got is None:
        got = tuple(Partition._unchecked(n, bl) for bl in _partitions_of_mask((1 << n) - 1))
        _partition_cache[n] = got
    return got


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of ``n`` players exactly once, lazily.

    Grouped by block count ascending, canonical order within each group;
    Bell(n) partitions in total, refused above ``DEFAULT_PLAYER_CAP``.
    """
    if not isinstance(n, int) or n < 1:
        raise InputError(f"player count must be a positive int, got {n!r}")
    if n > DEFAULT_PLAYER_CAP:
        raise CapExceeded(
            f"refusing to enumerate Bell({n}) partitions (cap {DEFAULT_PLAYER_CAP})")
    for bl in _partitions_of_mask((1 << n) - 1):
        yield Partition._unchecked(n, bl)


def _check_same_n(p: Partition, q: Partition):
    if p.n != q.n:
        raise InputError(f"partitions over different player sets: {p.n} vs {q.n}")


def is_refinement(p: Partition, q: Partition) -> bool:
    """True iff ``p`` is strictly finer than ``q``: more blocks, and every
    block of ``q`` is a union of blocks of ``p``."""
    _check_same_n(p, q)
    if len(p.blocks) < len(q.blocks) + 1:
        return False
    owner = [0] * p.n
    for b in q.blocks:
        for i in members(b):
            owner[i] = b
    for b in p.blocks:
        host = owner[(b & -b).bit_length() - 1]
        if b | host != host:
            return False
    return True


def _iter_refinements_raw(blocks: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Strict refinements of a block tuple, as unsorted block tuples: one
    partition per block, every combination but the first, which alone keeps
    each block whole."""
    per_block = [tuple(_partitions_of_mask(b)) for b in blocks]
    return (tuple(chain.from_iterable(parts))
            for parts in islice(product(*per_block), 1, None))


def fission_neighborhood(p: Partition) -> Iterator[Partition]:
    """All strict refinements of ``p``; empty for the all-singleton partition."""
    return (Partition._unchecked(p.n, _sorted_blocks(bl))
            for bl in _iter_refinements_raw(p.blocks))


def _iter_coarsenings_raw(blocks: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Strict coarsenings of a block tuple: group the blocks, union each group."""
    q = len(blocks)
    unions = prefix_sums(blocks, q)
    return (tuple(unions[g] for g in grouping)
            for grouping in _partitions_of_mask((1 << q) - 1) if len(grouping) < q)


def fusion_neighborhood(p: Partition) -> Iterator[Partition]:
    """All strict coarsenings of ``p``; empty for the grand-coalition partition."""
    return (Partition._unchecked(p.n, tuple(bl))
            for bl in _iter_coarsenings_raw(p.blocks))


def one_step_fission(p: Partition) -> tuple[Partition, ...]:
    """Partitions reached by splitting exactly one block two ways."""
    out = []
    for k, b in enumerate(p.blocks):
        if b & (b - 1) == 0:
            continue
        low = b & -b
        rest = b ^ low
        # halves that keep the block's lowest bit, so each split appears once
        sub = (rest - 1) & rest
        while True:
            half = low | sub
            other = b ^ half
            out.append(Partition._unchecked(
                p.n, _sorted_blocks(p.blocks[:k] + (half, other) + p.blocks[k + 1:])))
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return tuple(out)


def one_step_fusion(p: Partition) -> tuple[Partition, ...]:
    """Partitions reached by merging exactly two blocks."""
    out = []
    q = len(p.blocks)
    for i in range(q):
        for j in range(i + 1, q):
            merged = p.blocks[i] | p.blocks[j]
            rest = p.blocks[:i] + p.blocks[i + 1:j] + p.blocks[j + 1:]
            out.append(Partition._unchecked(p.n, _sorted_blocks(rest + (merged,))))
    return tuple(out)


def meet(p: Partition, q: Partition) -> Partition:
    """Coarsest common refinement: all nonempty pairwise block intersections."""
    _check_same_n(p, q)
    out = []
    for a in p.blocks:
        for b in q.blocks:
            c = a & b
            if c:
                out.append(c)
    return Partition._unchecked(p.n, _sorted_blocks(out))


def path(p: Partition, q: Partition) -> list[PartitionMove]:
    """A walk from ``p`` to ``q`` in the coalition-structure graph: one-step
    fissions down to meet(p, q), then one-step fusions up to ``q``."""
    _check_same_n(p, q)
    moves: list[PartitionMove] = []
    bottom = meet(p, q)
    bottom_set = set(bottom.blocks)
    cur = p
    while cur != bottom:
        owner = {}
        for b in bottom.blocks:
            owner[(b & -b).bit_length() - 1] = b
        for k, b in enumerate(cur.blocks):
            if b in bottom_set:
                continue
            half = owner[(b & -b).bit_length() - 1]
            nxt = Partition._unchecked(
                cur.n, _sorted_blocks(cur.blocks[:k] + (half, b ^ half) + cur.blocks[k + 1:]))
            moves.append(PartitionMove(FISSION, cur, nxt, (b,)))
            cur = nxt
            break
    while cur != q:
        cur_set = set(cur.blocks)
        for b in q.blocks:
            if b in cur_set:
                continue
            inside = [c for c in cur.blocks if c & b]
            b1, b2 = inside[0], inside[1]
            rest = tuple(c for c in cur.blocks if c != b1 and c != b2)
            nxt = Partition._unchecked(cur.n, _sorted_blocks(rest + (b1 | b2,)))
            moves.append(PartitionMove(FUSION, cur, nxt, (b1, b2)))
            cur = nxt
            break
        else:  # pragma: no cover - cur != q always leaves a mergeable target block
            raise AssertionError("no mergeable pair found")
    return moves


def _node_name(p: Partition) -> str:
    body = "_".join("".join(str(i) for i in members(b)) for b in p.blocks)
    return f"P{len(p.blocks)}_{body}"


def export_graph(n: int) -> str:
    """DOT digraph of the coalition-structure graph: one node per partition,
    one arc per one-step fission and per one-step fusion."""
    if not isinstance(n, int) or n < 1:
        raise InputError(f"player count must be a positive int, got {n!r}")
    if n > GRAPH_EXPORT_MAX_N:
        raise CapExceeded(f"refusing to export a graph with Bell({n}) nodes "
                          f"(guard is n <= {GRAPH_EXPORT_MAX_N})")
    parts = all_partitions(n)
    by_count: dict[int, list[Partition]] = {}
    for p in parts:
        by_count.setdefault(len(p.blocks), []).append(p)
    lines = ["digraph coalition_structures {", "  rankdir=LR;"]
    for count in sorted(by_count):
        lines.append("  { rank=same;")
        for p in by_count[count]:
            lines.append(f'    {_node_name(p)} [label="{p}"];')
        lines.append("  }")
    for p in parts:
        name = _node_name(p)
        for t in one_step_fission(p):
            lines.append(f"  {name} -> {_node_name(t)} [style=solid];")
        for t in one_step_fusion(p):
            lines.append(f"  {name} -> {_node_name(t)} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
