"""Games, coalitions, partitions, allocations, and their basic operations.

A coalition is a plain int bitmask over player indices ``0..n-1``: bit ``i``
set means player ``i`` belongs. Mask 0 is the empty set, worth 0 by
convention, and is never a valid block or argument where a coalition proper
is required.

All types are immutable after construction (internal memo tables aside) and
every operation here is a pure function of its inputs, so concurrent use on
shared instances is safe.

:func:`prefix_sums` is the one subset-sum table: coalition totals of an
allocation, and unions of disjoint masks (a subgame's players, a group of
blocks). :func:`_scaled_totals` takes an allocation's totals over ints, by
scaling it and the values to its common denominator, so a coalition scan
does no ``Fraction`` arithmetic per mask. :func:`_most_short` scans those
totals for the coalition an allocation leaves most short, the row both
strong-core row generation and the balancedness program add next.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import mul, sub
from typing import Iterable, Mapping, Sequence

from .errors import CapExceeded, EmptyBlockAllocation, InputError
from .rational import Rational, exact

DEFAULT_PLAYER_CAP = 14


def _check_player_count(n) -> int:
    """``n`` itself when it is a positive int: the one player-count check."""
    if not isinstance(n, int) or n < 1:
        raise InputError(f"player count must be a positive int, got {n!r}")
    return n


def coalition(players: Iterable[int]) -> int:
    """Bitmask of a collection of player indices."""
    mask = 0
    for i in players:
        if not isinstance(i, int) or i < 0:
            raise InputError(f"player index must be a nonnegative int, got {i!r}")
        mask |= 1 << i
    return mask


def members(mask: int) -> tuple[int, ...]:
    """Player indices of a coalition mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def prefix_sums(x: Sequence, n: int) -> list:
    """Subset-sum table: ``x[i]`` summed over the bits of every mask below
    ``2^n``. Over an allocation it gives coalition totals; over disjoint
    masks the sum is their union."""
    size = 1 << n
    out = [0] * size
    for s in range(1, size):
        low = s & -s
        out[s] = out[s ^ low] + x[low.bit_length() - 1]
    return out


def _scaled_totals(values: Sequence, x: Sequence, n: int) -> tuple[list, Sequence]:
    """(D * x(S), D * v(S)) tables over every mask, D the least common
    denominator of the allocation ``x``: the totals are int sums, and
    scaling both sides by D > 0 keeps every comparison and every argmax of
    their differences."""
    d = lcm(*(v.denominator for v in x))
    sums = prefix_sums([v.numerator * (d // v.denominator) for v in x], n)
    return sums, values if d == 1 else list(map(mul, values, repeat(d)))


def _most_short(values: Sequence, x: Sequence, n: int) -> tuple[int, ...]:
    """The coalition the allocation ``x`` leaves most short, as a one-tuple:
    largest v(S) - x(S) over every nonempty mask, the lowest mask on ties;
    empty when none falls short."""
    sums, vals = _scaled_totals(values, x, n)
    gaps = list(map(sub, vals, sums))
    worst = max(gaps)
    return (gaps.index(worst),) if worst > 0 else ()


class Game:
    """An n-player game: one exact rational value per nonempty coalition.

    Values live in a dense table indexed by coalition bitmask; coalitions
    missing from the input default to 0, matching the empty-set convention.
    Up to ``DEFAULT_PLAYER_CAP`` players, a fixed cap: value tables cost 2^n
    and structure tables 3^n, so each player past it about triples the
    unguarded scans, and anything larger needs a different tool.
    """

    __slots__ = ("n", "_values", "_memo")

    def __init__(self, n: int, values: Mapping[int, Rational] | Sequence[Rational] = ()):
        if _check_player_count(n) > DEFAULT_PLAYER_CAP:
            raise CapExceeded(f"player count {n} exceeds the cap of {DEFAULT_PLAYER_CAP}")
        size = 1 << n
        table = [0] * size
        if isinstance(values, Mapping):
            for mask, v in values.items():
                if not isinstance(mask, int) or not 0 <= mask < size:
                    raise InputError(f"coalition mask {mask!r} out of range for n={n}")
                val = exact(v)
                if mask == 0:
                    if val != 0:
                        raise InputError("the empty coalition must have value 0")
                    continue
                table[mask] = val
        else:
            seq = list(values)
            if seq:
                if len(seq) != size:
                    raise InputError(f"value table must have 2^{n}={size} entries, got {len(seq)}")
                table = [exact(v) for v in seq]
                if table[0] != 0:
                    raise InputError("the empty coalition must have value 0")
        self.n = n
        self._values = table
        self._memo = {}

    @classmethod
    def _from_table(cls, n: int, table: list) -> "Game":
        # trusted path: table entries are already exact and table[0] == 0
        g = object.__new__(cls)
        g.n = n
        g._values = table
        g._memo = {}
        return g

    @property
    def full(self) -> int:
        """Mask of the grand coalition."""
        return (1 << self.n) - 1

    def value(self, mask: int) -> Rational:
        """Unchecked table lookup; use :func:`coalition_value` for validated access."""
        return self._values[mask]

    def __repr__(self):
        return f"Game(n={self.n})"


class Partition:
    """Disjoint nonempty coalitions covering all n players exactly once.

    Blocks are stored sorted by their smallest member, which fixes one
    canonical form per partition and makes output deterministic.
    """

    __slots__ = ("n", "blocks")

    def __init__(self, n: int, blocks: Iterable[int]):
        _check_player_count(n)
        bl = tuple(blocks)
        full = (1 << n) - 1
        seen = 0
        for b in bl:
            if not isinstance(b, int) or b <= 0 or b > full:
                raise InputError(f"block {b!r} is not a nonempty coalition over {n} players")
            if seen & b:
                raise InputError("blocks overlap")
            seen |= b
        if seen != full:
            raise InputError("blocks do not cover every player")
        self.n = n
        self.blocks = tuple(sorted(bl, key=lambda b: b & -b))

    @classmethod
    def from_sets(cls, n: int, groups: Iterable[Iterable[int]]) -> "Partition":
        return cls(n, (coalition(g) for g in groups))

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls._unchecked(n, tuple(1 << i for i in range(n)))

    @classmethod
    def grand(cls, n: int) -> "Partition":
        return cls._unchecked(n, ((1 << n) - 1,))

    @classmethod
    def _unchecked(cls, n: int, blocks_sorted: tuple[int, ...]) -> "Partition":
        # trusted path: blocks already disjoint, covering, and sorted by low bit
        p = object.__new__(cls)
        p.n = n
        p.blocks = blocks_sorted
        return p

    def rgs(self) -> tuple[int, ...]:
        """Block index per player (restricted growth string)."""
        out = [0] * self.n
        for k, b in enumerate(self.blocks):
            for i in members(b):
                out[i] = k
        return tuple(out)

    def sort_key(self) -> tuple:
        """Canonical order: fewer blocks first, then lexicographic growth string."""
        return (len(self.blocks), self.rgs())

    def __len__(self):
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __eq__(self, other):
        return (isinstance(other, Partition)
                and self.n == other.n and self.blocks == other.blocks)

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __str__(self):
        return "|".join(",".join(str(i) for i in members(b)) for b in self.blocks)

    def __repr__(self):
        return f"Partition({self.n}, {self!s})"


@dataclass(frozen=True)
class PAPair:
    """A partition together with an allocation intended to be feasible for it.

    Feasibility is not enforced at construction; check with
    :func:`is_partition_allocation`.
    """

    partition: Partition
    allocation: tuple

    def __post_init__(self):
        object.__setattr__(self, "allocation", tuple(exact(v) for v in self.allocation))


def _check_coalition(game: Game, c) -> int:
    if not isinstance(c, int) or not 0 <= c <= game.full:
        raise InputError(f"coalition mask {c!r} out of range for n={game.n}")
    return c


def _check_partition(game: Game, p: Partition) -> Partition:
    if not isinstance(p, Partition) or p.n != game.n:
        raise InputError(f"partition {p!r} does not match a game on {game.n} players")
    return p


def _check_allocation(game: Game, x) -> tuple:
    xs = tuple(exact(v) for v in x)
    if len(xs) != game.n:
        raise InputError(f"allocation has {len(xs)} entries, game has {game.n} players")
    return xs


def coalition_value(game: Game, c: int) -> Rational:
    """Value of coalition ``c``; the empty set is worth 0."""
    return game._values[_check_coalition(game, c)]


def subgame(game: Game, c: int) -> tuple[Game, tuple[int, ...]]:
    """Restriction of the game to coalition ``c``.

    Players are reindexed by ascending original index; returns the
    restricted game together with the tuple mapping new index -> original
    player. The grand coalition gives back the game itself, caches and all.
    """
    _check_coalition(game, c)
    if c == 0:
        raise InputError("cannot restrict a game to the empty coalition")
    if c == game.full:
        return game, tuple(range(game.n))
    cached = game._memo.get(("sub", c))
    if cached is not None:
        return cached
    players = members(c)
    vals = game._values
    table = [vals[m] for m in prefix_sums([1 << p for p in players], len(players))]
    out = (Game._from_table(len(players), table), players)
    game._memo[("sub", c)] = out
    return out


def worth(game: Game, p: Partition) -> Rational:
    """Total value of a partition's blocks."""
    _check_partition(game, p)
    vals = game._values
    return sum(vals[b] for b in p.blocks)


def _infeasibility(game: Game, xs: tuple, blocks: Iterable[int]) -> str | None:
    """Why ``xs`` is not feasible for the partition with ``blocks``: the
    feasibility rule is individual rationality, then a total of exactly
    v(b) on every block b. None when it is feasible."""
    vals = game._values
    if any(xs[i] < vals[1 << i] for i in range(game.n)):
        return "allocation is not individually rational"
    if any(sum(xs[i] for i in members(b)) != vals[b] for b in blocks):
        return "allocation is not efficient"
    return None


def is_efficient_allocation(game: Game, x: Sequence[Rational]) -> bool:
    """True iff ``x`` is individually rational and sums to the grand value."""
    return _infeasibility(game, _check_allocation(game, x), (game.full,)) is None


def is_partition_allocation(game: Game, p: Partition, x: Sequence[Rational]) -> bool:
    """True iff ``x`` is individually rational and exactly efficient per block of ``p``."""
    _check_partition(game, p)
    return _infeasibility(game, _check_allocation(game, x), p.blocks) is None


def equal_surplus_allocation(game: Game, p: Partition) -> tuple:
    """Within each block, give everyone their stand-alone value plus an equal
    share of the block's surplus.

    Raises :class:`EmptyBlockAllocation` when a block's value falls short of
    its members' stand-alone values, in which case that block admits no
    feasible allocation at all.
    """
    _check_partition(game, p)
    vals = game._values
    out = [0] * game.n
    for b in p.blocks:
        idx = members(b)
        base = sum(vals[1 << i] for i in idx)
        surplus = vals[b] - base
        if surplus < 0:
            names = ",".join(str(i) for i in idx)
            raise EmptyBlockAllocation(
                b, f"block {{{names}}} has value {vals[b]} below its members' "
                   f"stand-alone total {base}")
        share = exact(Fraction(surplus, len(idx)))
        for i in idx:
            out[i] = exact(vals[1 << i] + share)
    return tuple(out)
