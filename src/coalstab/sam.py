"""Steepest ascent to a mediumly stable partition-allocation pair.

From any starting partition, repeatedly jump to the worth-maximizing strict
refinement or coarsening while that strictly improves total worth. The walk
must stop (worths strictly increase over finitely many partitions), and the
terminal partition dominates both neighborhoods, so equal-surplus splitting
its blocks yields a mediumly stable pair.

Neither neighborhood is materialized: the refinement side decomposes block
by block through the optimal-structure table, and the coarsening side runs
the same table on quotient games rooted at each forced pair-merge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cores import _structure_blocks, _structure_table, subset_structure_table
from .errors import NoCoarsening
from .game import Game, PAPair, Partition, _check_partition, equal_surplus_allocation
from .io import _partition_from, partition_names
from .lattice import _sorted_blocks
from .rational import Rational, format_rational, parse_rational

FISSION = "fission"
FUSION = "fusion"


@dataclass(frozen=True)
class SamStep:
    source: Partition
    target: Partition
    source_worth: Rational
    target_worth: Rational
    direction: str


@dataclass(frozen=True)
class SamTrace:
    """A full run: strictly increasing worths along ``steps``, ending at a
    partition that supports a mediumly stable pair, plus that pair."""

    start: Partition
    steps: tuple[SamStep, ...]
    terminal: Partition
    terminal_pair: PAPair

    def to_json(self, players: Sequence[str] | None = None) -> dict:
        return {
            "start": partition_names(self.start, players),
            "steps": [{
                "from": partition_names(s.source, players),
                "to": partition_names(s.target, players),
                "from_worth": format_rational(s.source_worth),
                "to_worth": format_rational(s.target_worth),
                "direction": s.direction,
            } for s in self.steps],
            "terminal": partition_names(self.terminal, players),
            "allocation": [format_rational(v) for v in self.terminal_pair.allocation],
        }

    @classmethod
    def from_json(cls, data: dict, players: Sequence[str] | None = None) -> "SamTrace":
        n = len(players) if players else None
        part = lambda groups: _partition_from(groups, players, n)
        steps = tuple(SamStep(source=part(s["from"]), target=part(s["to"]),
                              source_worth=parse_rational(s["from_worth"]),
                              target_worth=parse_rational(s["to_worth"]),
                              direction=s["direction"])
                      for s in data["steps"])
        terminal = part(data["terminal"])
        allocation = tuple(parse_rational(v) for v in data["allocation"])
        return cls(start=part(data["start"]), steps=steps, terminal=terminal,
                   terminal_pair=PAPair(terminal, allocation))


def best_refinement(game: Game, p: Partition) -> tuple[Rational, Partition]:
    """Maximum worth over ``p`` and all its strict refinements, with the
    canonical argmax. Splitting never crosses block boundaries, so the best
    refinement optimizes each block independently; when nothing improves, the
    returned partition is ``p`` itself."""
    _check_partition(game, p)
    val, _, _ = _structure_table(game)
    total = sum(val[b] for b in p.blocks)
    blocks: list[int] = []
    for b in p.blocks:
        blocks.extend(_structure_blocks(game, b))
    return total, Partition._unchecked(game.n, _sorted_blocks(blocks))


def best_coarsening(game: Game, p: Partition) -> tuple[Rational, Partition]:
    """Maximum worth over all strict coarsenings of ``p``, with a
    deterministic argmax (the canonically smallest of the per-merge optima).

    Coarsenings are partitions of the quotient game whose players are the
    blocks of ``p`` and whose values come from unions of blocks. Every
    non-trivial quotient partition keeps some pair of blocks together, so
    force-merging each pair in turn and optimizing the reduced quotient
    covers the whole neighborhood.
    """
    _check_partition(game, p)
    blocks = p.blocks
    q = len(blocks)
    if q < 2:
        raise NoCoarsening("the grand-coalition partition has no coarsening")
    vals = game._values
    best = None
    winners = []  # (union table, first-block table, reduced size)
    for i in range(q):
        for j in range(i + 1, q):
            reduced = [blocks[i] | blocks[j]]
            reduced.extend(blocks[k] for k in range(q) if k != i and k != j)
            k = q - 1
            size = 1 << k
            union = [0] * size
            qvals = [0] * size
            for m in range(1, size):
                low = m & -m
                union[m] = union[m ^ low] | reduced[low.bit_length() - 1]
                qvals[m] = vals[union[m]]
            val, _, first = subset_structure_table(qvals, k)
            cand = val[size - 1]
            if best is None or cand > best:
                best = cand
                winners = [(union, first, size - 1)]
            elif cand == best:
                winners.append((union, first, size - 1))
    pick = None
    pick_key = None
    for union, first, full in winners:
        out = []
        s = full
        while s:
            out.append(union[first[s]])
            s ^= first[s]
        part = Partition._unchecked(game.n, _sorted_blocks(out))
        key = part.sort_key()
        if pick_key is None or key < pick_key:
            pick, pick_key = part, key
    return best, pick


def sam_step(game: Game, p: Partition) -> SamStep | None:
    """One steepest-ascent move, or None when ``p`` already dominates both
    neighborhoods (ties between directions go to fusion)."""
    _check_partition(game, p)
    vals = game._values
    current = sum(vals[b] for b in p.blocks)
    refine_worth, refine_to = best_refinement(game, p)
    if len(p.blocks) >= 2:
        coarse_worth, coarse_to = best_coarsening(game, p)
        if coarse_worth > current and coarse_worth >= refine_worth:
            return SamStep(p, coarse_to, current, coarse_worth, FUSION)
    if refine_worth > current:
        return SamStep(p, refine_to, current, refine_worth, FISSION)
    return None


def sam_run(game: Game, start: Partition | None = None) -> SamTrace:
    """Iterate :func:`sam_step` from ``start`` (default: all singletons) until
    no move improves, then equal-surplus split the terminal blocks."""
    p = Partition.singletons(game.n) if start is None else start
    _check_partition(game, p)
    steps = []
    while True:
        step = sam_step(game, p)
        if step is None:
            break
        steps.append(step)
        p = step.target
    allocation = equal_surplus_allocation(game, p)
    return SamTrace(start=steps[0].source if steps else p, steps=tuple(steps),
                    terminal=p, terminal_pair=PAPair(p, allocation))
