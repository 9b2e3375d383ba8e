"""Strong, medium, and weak core membership and nonemptiness.

The strong core blocks any single dissatisfied coalition; the medium core is
the efficient set exactly when the grand value weakly dominates every other
partition's total worth; the weak core survives as long as every non-grand
partition contains at least one satisfied block.

Exponential costs, by operation: membership scans cost 2^n (strong) or 2^n
plus a deficiency cover of at most 3^n steps (weak); the optimal-structure
table costs at most 3^n steps once per game (it tries only self-optimal
coalitions as blocks) and is cached, and the whole medium core reads it:
nonemptiness compares its grand entry with v(N), a failed membership takes
its argmax as the certificate, and the best non-grand worth is one 2^(n-1)
scan of it.
Strong and weak nonemptiness are :func:`ratlp._witness_search` over exact
n-variable covering LPs, and :func:`_core_find` picks by mode: a witness
outside the core branches on coalitions it leaves short, the most short one
(strong; without the efficiency row it is :func:`ratlp.balancedness_value`)
or each block of its deficient partition (weak, one deficiency cover per
node). The one structure table is :func:`subset_structure_table` over the
game's values. Weak membership instead covers the grand mask with the
coalitions an allocation leaves deficient (:func:`_deficiency_cover`): one
2^n scan collects them, and the cover's work is bounded by the same 3^n but
follows only the masks those coalitions reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import lt
from typing import Sequence

from .errors import InputError, NoNonGrandPartition
from .game import (Game, Partition, _check_allocation, _infeasibility, _most_short,
                   _scaled_totals, equal_surplus_allocation, subgame)
from .io import _json_fields, _mask_from, _partition_from, mask_names, partition_names
from .rational import Rational
from .ratlp import _witness_search

STRONG = "strong"
MEDIUM = "medium"
WEAK = "weak"
MODES = (STRONG, MEDIUM, WEAK)


@dataclass(frozen=True)
class CoreReport:
    """Membership verdict plus a checkable certificate.

    On failure, ``coalition`` names a blocking coalition (strong mode) and
    ``partition`` a violating partition (medium: the worth argmax; weak: a
    partition whose blocks are all strictly deficient). On weak-mode success,
    ``satisfied`` lists every satisfied proper coalition; it hits every
    non-grand partition. ``reason`` explains failures that have no such
    certificate (the allocation was not even efficient).
    """

    mode: str
    member: bool
    coalition: int | None = None
    partition: Partition | None = None
    satisfied: tuple[int, ...] | None = None
    reason: str | None = None

    def to_json(self, players: Sequence[str] | None = None) -> dict:
        out = {"mode": self.mode, "member": self.member}
        if self.coalition is not None:
            out["coalition"] = mask_names(self.coalition, players)
        if self.partition is not None:
            out["partition"] = partition_names(self.partition, players)
        if self.satisfied is not None:
            out["satisfied"] = [mask_names(m, players) for m in self.satisfied]
        if self.reason is not None:
            out["reason"] = self.reason
        return out

    @classmethod
    def from_json(cls, data: dict, players: Sequence[str] | None = None) -> "CoreReport":
        _json_fields(data, {"mode": MODES, "member": bool},
                     {"coalition": list, "partition": list, "satisfied": list, "reason": str})
        return cls(
            mode=data["mode"], member=data["member"],
            coalition=_mask_from(data.get("coalition"), players),
            partition=_partition_from(data.get("partition"), players),
            satisfied=None if data.get("satisfied") is None else tuple(
                _mask_from(group, players) for group in data["satisfied"]),
            reason=data.get("reason"))


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise InputError(f"unknown core mode {mode!r}; expected one of {MODES}")
    return mode


def _canonical_prefer(a: int, b: int) -> bool:
    """True when mask ``a`` precedes ``b``: the lowest differing player sits in ``a``."""
    d = a ^ b
    return bool(a & (d & -d))


def subset_structure_table(values: Sequence, nplayers: int):
    """Best partition worth per coalition mask for a dense value table.

    Returns (worth, block count, first block) per mask; the first-block
    choices reconstruct the argmax: maximal worth, then fewest blocks, then
    the first block (the one holding the mask's lowest player) that holds
    the lowest player on which two candidate first blocks differ, the same
    rule settling the rest of the mask. That is not
    :meth:`Partition.sort_key` order.

    Only self-optimal coalitions t (first[t] == t: no split of t is worth
    more than t itself, and on a tie the single block wins) are tried as
    first blocks. Any other t is strictly beaten by its own best split,
    values[t] + val[s ^ t] < val[t] + val[s ^ t] <= val[s], so it is never
    in an argmax and the table is the one trying every t would give, ties
    included. At mask s the candidates come from the self-optimal list of
    s's lowest player or from s's submasks, whichever is shorter, so the
    cost is at most 3^n steps. Both branches are written out: building a
    candidate list first cost 1.3-1.6x the dense loop when every coalition
    is self-optimal.
    """
    full = (1 << nplayers) - 1
    val = [0] * (full + 1)
    nblocks = [0] * (full + 1)
    first = [0] * (full + 1)
    alone = [False] * (full + 1)  # first[t] == t in one read, for the per-pair test
    by_low = [[] for _ in range(nplayers)]
    for s in range(1, full + 1):
        low = s & -s
        rest = s ^ low
        listed = by_low[low.bit_length() - 1]
        best_v = values[s]
        best_nb = 1
        best_t = s
        if len(listed) <= 1 << rest.bit_count():
            for t in listed:
                if t & s == t:
                    cand = values[t] + val[s ^ t]
                    if cand > best_v:
                        best_v, best_nb, best_t = cand, 1 + nblocks[s ^ t], t
                    elif cand == best_v:
                        nb = 1 + nblocks[s ^ t]
                        if nb < best_nb or (nb == best_nb and _canonical_prefer(t, best_t)):
                            best_nb, best_t = nb, t
        else:
            sub = rest
            while sub:
                sub = (sub - 1) & rest
                t = low | sub
                if alone[t]:
                    cand = values[t] + val[s ^ t]
                    if cand > best_v:
                        best_v, best_nb, best_t = cand, 1 + nblocks[s ^ t], t
                    elif cand == best_v:
                        nb = 1 + nblocks[s ^ t]
                        if nb < best_nb or (nb == best_nb and _canonical_prefer(t, best_t)):
                            best_nb, best_t = nb, t
        val[s] = best_v
        nblocks[s] = best_nb
        first[s] = best_t
        if best_t == s:
            listed.append(s)
            alone[s] = True
    return val, nblocks, first


def _structure_table(game: Game):
    """Per-game cached :func:`subset_structure_table`."""
    tab = game._memo.get("opt")
    if tab is None:
        tab = subset_structure_table(game._values, game.n)
        game._memo["opt"] = tab
    return tab


def _table_blocks(first: Sequence[int], s: int) -> tuple[int, ...]:
    """The argmax partition of mask ``s`` read from a first-block table, its
    blocks sorted by smallest member (each first block holds the lowest
    remaining player)."""
    blocks = []
    while s:
        b = first[s]
        blocks.append(b)
        s ^= b
    return tuple(blocks)


def _structure_blocks(game: Game, s: int) -> tuple[int, ...]:
    """Blocks of the canonical worth-maximizing partition of mask ``s``."""
    return _table_blocks(_structure_table(game)[2], s)


def optimal_structure_value(game: Game) -> tuple[Rational, Partition]:
    """Maximum total worth over all partitions, with the table's argmax.

    Ties go to fewer blocks, then to the first block that holds the lowest
    player on which two candidates' first blocks differ, recursively on the
    players left (see :func:`subset_structure_table`).
    """
    val, _, _ = _structure_table(game)
    return val[game.full], Partition._unchecked(game.n, _structure_blocks(game, game.full))


def max_nongrand_worth(game: Game) -> Rational:
    """Best total worth over every partition other than the grand one: some
    block holds player 0 without being everything, and the rest of each side
    is best split as the table says."""
    if game.n < 2:
        raise NoNonGrandPartition("a one-player game has no non-grand partition")
    val, _, _ = _structure_table(game)
    full = game.full
    return max(val[t] + val[full ^ t] for t in range(1, full, 2))


def strong_core_contains(game: Game, x: Sequence[Rational]) -> CoreReport:
    """Strong-core membership: efficient, and no coalition falls short."""
    sums, vals = _scaled_totals(game._values, _check_allocation(game, x), game.n)
    full = game.full
    for c in range(1, full):
        if sums[c] < vals[c]:
            return CoreReport(STRONG, False, coalition=c)
    if sums[full] < vals[full]:
        return CoreReport(STRONG, False, coalition=full)
    if sums[full] > vals[full]:
        return CoreReport(STRONG, False, reason="allocation exceeds the grand value")
    return CoreReport(STRONG, True)


def strong_core_nonempty(game: Game) -> tuple[bool, tuple | None]:
    """Exact feasibility of the strong-core system, with a witness, by row
    generation: :func:`ratlp._witness_search` whose cut is the one coalition
    the witness leaves most short (largest v(S) - x(S), lowest mask on ties).
    Each node has one child, so the search is a loop that adds that row and
    solves again, until no coalition falls short (the witness is a member)
    or the rows so far are infeasible (so is the whole system)."""
    w = _witness_search(game, lambda w: _most_short(game._values, w, game.n))
    return w is not None, w


def medium_core_contains(game: Game, x: Sequence[Rational]) -> CoreReport:
    """Medium-core membership: efficient, and the grand value weakly dominates
    every other partition's worth. When it does not, the structure table's
    argmax is a non-grand partition of maximal worth, the certificate."""
    reason = _infeasibility(game, _check_allocation(game, x), (game.full,))
    if reason:
        return CoreReport(MEDIUM, False, reason=reason)
    if medium_core_nonempty(game):
        return CoreReport(MEDIUM, True)
    return CoreReport(MEDIUM, False, partition=optimal_structure_value(game)[1])


def medium_core_nonempty(game: Game) -> bool:
    """True iff the grand value matches the optimal structure value, which
    also guarantees the efficient set is nonempty."""
    val, _, _ = _structure_table(game)
    return val[game.full] == game._values[game.full]


def _deficiency_cover(deficient: Sequence[bool], n: int) -> tuple[int, ...] | None:
    """Blocks of the fewest-block partition of the grand mask into coalitions
    marked ``deficient``, sorted by smallest member; None when there is none.

    Ties go as in :func:`subset_structure_table` over weights 0 (deficient)
    and -1 (the rest), so the partition is that table's argmax whenever the
    argmax is worth 0. The recursion runs top down from the grand mask and
    memoizes only the masks it reaches. At mask s the candidate first blocks
    are the deficient coalitions inside s holding its lowest player, taken
    from that player's list or from s's submasks, whichever is shorter, so
    it never examines more (mask, block) pairs than the table has cells.
    """
    full = (1 << n) - 1
    by_low = [[] for _ in range(n)]
    for t in range(1, full):
        if deficient[t]:
            by_low[(t & -t).bit_length() - 1].append(t)
    uncovered = n + 1  # more blocks than any cover has
    nblocks = [-1] * (full + 1)
    nblocks[0] = 0
    first = [0] * (full + 1)

    def cover(s: int) -> int:
        low = s & -s
        rest = s ^ low
        listed = by_low[low.bit_length() - 1]
        if len(listed) <= 1 << rest.bit_count():
            candidates = [t for t in listed if t & s == t]
        else:
            candidates = []
            sub = rest
            while True:
                if deficient[low | sub]:
                    candidates.append(low | sub)
                if sub == 0:
                    break
                sub = (sub - 1) & rest
        best_nb, best_t = uncovered, 0
        for t in candidates:
            nb = nblocks[s ^ t]
            if nb < 0:
                nb = cover(s ^ t)
            nb += 1
            if nb < best_nb or (nb == best_nb and _canonical_prefer(t, best_t)):
                best_nb, best_t = nb, t
        nblocks[s] = best_nb
        first[s] = best_t
        return best_nb

    return None if cover(full) == uncovered else _table_blocks(first, full)


def weak_core_contains(game: Game, x: Sequence[Rational]) -> CoreReport:
    """Weak-core membership: efficient, and every non-grand partition keeps at
    least one satisfied block.

    The allocation fails exactly when some partition has only strictly
    deficient blocks; :func:`_deficiency_cover` finds a fewest-block one,
    the certificate. Efficiency keeps the grand coalition out of it.
    """
    xs = _check_allocation(game, x)
    reason = _infeasibility(game, xs, (game.full,))
    if reason:
        return CoreReport(WEAK, False, reason=reason)
    n, full = game.n, game.full
    deficient = list(map(lt, *_scaled_totals(game._values, xs, n)))
    blocks = _deficiency_cover(deficient, n)
    if blocks is not None:
        return CoreReport(WEAK, False, partition=Partition._unchecked(n, blocks))
    satisfied = tuple(c for c in range(1, full) if not deficient[c])
    return CoreReport(WEAK, True, satisfied=satisfied)


def weak_core_nonempty(game: Game) -> tuple[bool, tuple | None]:
    """Weak-core nonemptiness with a witness: :func:`ratlp._witness_search`
    whose cut is the deficient partition :func:`weak_core_contains`
    certifies against the witness. Every weak-core member satisfies some
    block of any non-grand partition, and none of those blocks is already
    required, since the witness satisfies every required coalition. When
    the medium core is nonempty its member, the efficient equal-surplus
    split, is a weak-core member too and the search is skipped.
    """
    found = _core_find(game, MEDIUM)
    if found[0]:
        return found

    def deficient(w: tuple) -> tuple[int, ...]:
        report = weak_core_contains(game, w)
        return () if report.member else report.partition.blocks

    w = _witness_search(game, deficient)
    return w is not None, w


def core_contains(game: Game, x: Sequence[Rational], mode: str) -> CoreReport:
    """Dispatch membership by mode."""
    _check_mode(mode)
    if mode == STRONG:
        return strong_core_contains(game, x)
    if mode == MEDIUM:
        return medium_core_contains(game, x)
    return weak_core_contains(game, x)


def _core_find(game: Game, mode: str) -> tuple[bool, tuple | None]:
    """Nonemptiness of the mode's core, with a member when nonempty. The
    medium core's member is the efficient equal-surplus split."""
    if mode == STRONG:
        return strong_core_nonempty(game)
    if mode == WEAK:
        return weak_core_nonempty(game)
    if medium_core_nonempty(game):
        return True, equal_surplus_allocation(game, Partition.grand(game.n))
    return False, None


def _blockwise_core_nonempty_cached(game: Game, mask: int, mode: str) -> bool:
    """Core nonemptiness on the subgame of ``mask``: medium reads the game's
    structure table at ``mask``, the subgame's grand entry. Small blocks
    collapse: with two players the strong and weak cores equal the efficient
    set, and with three players the weak core does too, because every
    non-grand partition of a 3-set contains an always-satisfied singleton.
    Larger blocks ask :func:`_core_find` on the subgame, memoized.
    """
    if mode == MEDIUM:
        return _structure_table(game)[0][mask] == game._values[mask]
    size = mask.bit_count()
    if size == 1:
        return True
    vals = game._values
    low = mask & -mask
    if size == 2:
        return vals[mask] >= vals[low] + vals[mask ^ low]
    if mode == WEAK and size == 3:
        mid = (mask ^ low) & -(mask ^ low)
        return vals[mask] >= vals[low] + vals[mid] + vals[mask ^ low ^ mid]
    memo = game._memo
    key = ("ne", mode, mask)
    got = memo.get(key)
    if got is None:
        sub, _ = subgame(game, mask)
        got = _core_find(sub, mode)[0]
        memo[key] = got
    return got
