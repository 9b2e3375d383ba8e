"""Steepest ascent to a mediumly stable partition-allocation pair.

From any starting partition, repeatedly jump to the worth-maximizing strict
refinement or coarsening while that strictly improves total worth. The walk
must stop (worths strictly increase over finitely many partitions), and the
terminal partition dominates both neighborhoods, so equal-surplus splitting
its blocks yields a mediumly stable pair.

Neither neighborhood is materialized: the refinement side decomposes block
by block through the optimal-structure table, and the coarsening side runs
the same table once on the quotient game whose players are the current
blocks, then picks the best block of two or more quotient players to merge
next to the optimal structure of the rest. From all singletons the quotient
game is the game itself, so its cached table is reused and a cold ascent
builds one structure table of at most 3^n steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cores import (_structure_blocks, _structure_table, _table_blocks,
                    subset_structure_table)
from .errors import NoCoarsening
from .game import (Game, PAPair, Partition, _check_partition, equal_surplus_allocation,
                   prefix_sums)
from .io import _json_fields, _partition_from, partition_names
from .lattice import _sorted_blocks
from .rational import Rational, exact, format_rational

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
        _json_fields(data, {"start": list, "steps": list, "terminal": list, "allocation": list})
        part = lambda groups: _partition_from(groups, players)
        kinds = {"from": list, "to": list, "from_worth": object, "to_worth": object,
                 "direction": (FISSION, FUSION)}
        steps = tuple(SamStep(source=part(s["from"]), target=part(s["to"]),
                              source_worth=exact(s["from_worth"]),
                              target_worth=exact(s["to_worth"]),
                              direction=s["direction"])
                      for s in (_json_fields(step, kinds) for step in data["steps"]))
        terminal = part(data["terminal"])
        allocation = tuple(map(exact, data["allocation"]))
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
    """Maximum worth over all strict coarsenings of ``p``, with the canonical
    argmax: the optimal coarsening with the smallest :meth:`Partition.sort_key`.

    Coarsenings are partitions of the quotient game whose players are the
    blocks of ``p`` and whose values come from unions of blocks. Every strict
    coarsening has a block B of at least two quotient players, and the best
    one containing B is B plus the optimal structure of the other quotient
    players. So one structure table on the quotient game (at most 3^q
    steps) and a scan over every such B (2^q masks) cover the whole
    neighborhood. From all singletons the quotient game is the game itself,
    so the game's cached table is read.
    """
    _check_partition(game, p)
    blocks = p.blocks
    q = len(blocks)
    if q < 2:
        raise NoCoarsening("the grand-coalition partition has no coarsening")
    vals = game._values
    full = (1 << q) - 1
    union = prefix_sums(blocks, q)
    qvals = [vals[u] for u in union]
    # All singletons (the only q == n partition): the quotient is the game.
    val, nblocks, first = (_structure_table(game) if q == game.n
                           else subset_structure_table(qvals, q))
    keys = {b: (qvals[b] + val[full ^ b], -nblocks[full ^ b])
            for b in range(3, full + 1) if b & (b - 1)}
    top = max(keys.values())

    def coarsening(b: int) -> Partition:
        out = [union[b]] + [union[t] for t in _table_blocks(first, full ^ b)]
        return Partition._unchecked(game.n, _sorted_blocks(out))

    pick = min((coarsening(b) for b, key in keys.items() if key == top),
               key=Partition.sort_key)
    return top[0], pick


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
