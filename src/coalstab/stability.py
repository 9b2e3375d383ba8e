"""Stability of partition-allocation pairs.

A pair is stable when it resists both fission (splitting some blocks) and
fusion (merging some blocks). Fission resistance comes in three strengths
mirroring the three cores: strong blocks any dissatisfied new sub-coalition,
medium compares total worths, weak needs just one satisfied new
sub-coalition per attempt. Fusion resistance is single-flavored: no group of
existing blocks is worth more merged than separate.

Fission is decided block by block: a pair resists fission in a mode exactly
when each block's restricted allocation lies in that mode's core of the
block's subgame, and the first block that does not yields a defeating
refinement lifted from its subgame's core certificate. The tests keep a
direct scan of every strict refinement as the reference for this route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .cores import (MODES, CoreReport, _blockwise_core_nonempty_cached, _check_mode,
                    core_contains)
from .errors import InfeasiblePair
from .game import (Game, PAPair, Partition, _check_allocation, _check_partition,
                   is_partition_allocation, members, subgame)
from .io import _json_fields, _partition_from, partition_names
from .lattice import _sorted_blocks, all_partitions
from .rational import Rational


@dataclass(frozen=True)
class StabilityReport:
    """Verdict with certificates.

    ``fission_certificate`` is a refinement that defeats the pair,
    ``fusion_certificate`` a coarsening that does; both are None when the
    corresponding resistance holds. Infeasible pairs are reported unstable
    with ``feasible=False`` and no resistance verdicts.
    """

    mode: str
    feasible: bool
    stable: bool
    fission_resistant: bool | None = None
    fusion_resistant: bool | None = None
    fission_certificate: Partition | None = None
    fusion_certificate: Partition | None = None
    reason: str | None = None

    def to_json(self, players: Sequence[str] | None = None) -> dict:
        out = {"mode": self.mode, "feasible": self.feasible, "stable": self.stable,
               "fission_resistant": self.fission_resistant,
               "fusion_resistant": self.fusion_resistant}
        if self.fission_certificate is not None:
            out["fission_certificate"] = partition_names(self.fission_certificate, players)
        if self.fusion_certificate is not None:
            out["fusion_certificate"] = partition_names(self.fusion_certificate, players)
        if self.reason is not None:
            out["reason"] = self.reason
        return out

    @classmethod
    def from_json(cls, data: dict, players: Sequence[str] | None = None) -> "StabilityReport":
        _json_fields(data, {"mode": MODES, "feasible": bool, "stable": bool},
                     {"fission_resistant": bool, "fusion_resistant": bool,
                      "fission_certificate": list, "fusion_certificate": list, "reason": str})
        return cls(
            mode=data["mode"], feasible=data["feasible"], stable=data["stable"],
            fission_resistant=data.get("fission_resistant"),
            fusion_resistant=data.get("fusion_resistant"),
            fission_certificate=_partition_from(data.get("fission_certificate"), players),
            fusion_certificate=_partition_from(data.get("fusion_certificate"), players),
            reason=data.get("reason"))


def _require_feasible(game: Game, pair: PAPair) -> tuple:
    xs = _check_allocation(game, pair.allocation)
    if not is_partition_allocation(game, pair.partition, xs):
        raise InfeasiblePair(
            f"allocation {pair.allocation} is not feasible for partition {pair.partition}")
    return xs


def _first_outside(game: Game, blocks: tuple[int, ...], xs: tuple,
                   mode: str) -> tuple[int, tuple[int, ...], CoreReport] | None:
    """The first block whose restricted allocation lies outside the mode's
    core of its subgame, with the subgame's player map and core report; None
    when every block's lies inside."""
    for b in blocks:
        sub, players = subgame(game, b)
        report = core_contains(sub, tuple(xs[i] for i in players), mode)
        if not report.member:
            return b, players, report
    return None


def _lift(mask: int, players: tuple[int, ...]) -> int:
    """Map a subgame coalition back to the game's player mask."""
    return sum(1 << players[i] for i in members(mask))


def _defeating_refinement(game: Game, blocks: tuple[int, ...], b: int,
                          players: tuple[int, ...], report: CoreReport) -> Partition:
    """Replace block ``b`` of a feasible pair by the parts its subgame's core
    certificate names: strong splits it at the blocking coalition, medium and
    weak use the violating partition. Either way the new parts defeat the
    pair under the direct rule."""
    if report.coalition is not None:
        c = _lift(report.coalition, players)
        parts = [c, b ^ c]
    else:
        parts = [_lift(s, players) for s in report.partition.blocks]
    return Partition._unchecked(game.n, _sorted_blocks(
        [a for a in blocks if a != b] + parts))


def fission_resistant_decomposed(game: Game, pair: PAPair, mode: str) -> bool:
    """Per-block route: a feasible pair whose blocks pass
    :func:`blockwise_core_contains`. This is the route
    :func:`stable_contains` answers through."""
    _require_feasible(game, pair)
    return blockwise_core_contains(game, pair.partition, pair.allocation, mode)


def _fusion_scan(game: Game, blocks: tuple[int, ...]) -> tuple[bool, int]:
    """Check every union of two or more blocks against the sum of its parts.

    Returns (ok, the first union worth more than its parts, else 0); a
    property of the partition only.
    """
    q = len(blocks)
    if q < 2:
        return True, 0
    vals = game._values
    size = 1 << q
    union = [0] * size
    total = [0] * size
    for m in range(1, size):
        low = m & -m
        rest = m ^ low
        b = blocks[low.bit_length() - 1]
        union[m] = union[rest] | b
        total[m] = total[rest] + vals[b]
        if rest and total[m] < vals[union[m]]:
            return False, union[m]
    return True, 0


def fusion_resistant(game: Game, pair: PAPair) -> bool:
    """No set of the pair's blocks gains by merging. Depends on the partition
    alone once feasibility holds: :func:`dominates_coarsenings`."""
    _require_feasible(game, pair)
    return dominates_coarsenings(game, pair.partition)


def blockwise_core_contains(game: Game, p: Partition, x: Sequence[Rational],
                            mode: str) -> bool:
    """True iff each block's restricted allocation lies in the mode's core of
    that block's subgame. For the grand partition this is plain core
    membership."""
    _check_mode(mode)
    _check_partition(game, p)
    xs = _check_allocation(game, x)
    return _first_outside(game, p.blocks, xs, mode) is None


def blockwise_core_nonempty(game: Game, p: Partition, mode: str) -> bool:
    """True iff every block's subgame has a nonempty core of the given mode,
    i.e. the partition supports at least one fission-resistant allocation."""
    _check_mode(mode)
    _check_partition(game, p)
    return all(_blockwise_core_nonempty_cached(game, b, mode) for b in p.blocks)


def dominates_coarsenings(game: Game, p: Partition) -> bool:
    """True iff the partition's worth weakly beats every strict coarsening."""
    _check_partition(game, p)
    return _fusion_scan(game, p.blocks)[0]


def stable_contains(game: Game, pair: PAPair, mode: str) -> StabilityReport:
    """Full stability verdict: fission resistance in the given mode, decided
    block by block through subgame cores, plus fusion resistance. A defeated
    pair comes with a defeating refinement and/or coarsening."""
    _check_mode(mode)
    xs = _check_allocation(game, pair.allocation)
    p = pair.partition
    _check_partition(game, p)
    if not is_partition_allocation(game, p, xs):
        return StabilityReport(mode, feasible=False, stable=False,
                               reason="allocation is not feasible for the partition")
    outside = _first_outside(game, p.blocks, xs, mode)
    fusion, merged = _fusion_scan(game, p.blocks)
    return StabilityReport(
        mode, feasible=True, stable=outside is None and fusion,
        fission_resistant=outside is None, fusion_resistant=fusion,
        fission_certificate=None if outside is None else _defeating_refinement(
            game, p.blocks, *outside),
        fusion_certificate=None if not merged else Partition._unchecked(
            game.n, _sorted_blocks([b for b in p.blocks if not b & merged] + [merged])))


def enumerate_stable_partitions(game: Game, mode: str) -> Iterator[Partition]:
    """Every partition that supports a stable pair in the given mode, in
    canonical order: worth dominating all coarsenings (the cheap 2^q scan,
    checked first) and blockwise core nonempty. The scan is
    :func:`lattice.all_partitions`, refused by its Bell(n) guard."""
    _check_mode(mode)
    for p in all_partitions(game.n):
        if dominates_coarsenings(game, p) and blockwise_core_nonempty(game, p, mode):
            yield p
