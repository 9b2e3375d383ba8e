"""Game files and named rendering.

A game file is JSON like::

    {"players": ["A", "B", "C"],
     "values": {"A": 0, "B": 4, "A,C": 6, "A,B,C": "17/2"}}

Coalition keys are comma-joined player names; values are integers or "p/q"
strings. Coalitions not listed default to 0; the loader reports which ones
it filled so the CLI can warn. Duplicate keys (including the same coalition
spelled in two orders) and unknown names are rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InputError
from .game import Game, Partition, members
from .rational import Rational, exact, format_rational, parse_rational


@dataclass(frozen=True)
class GameFile:
    """A loaded game plus its player names and the coalition masks whose
    values were filled with the default 0."""

    game: Game
    players: tuple[str, ...]
    filled: tuple[int, ...]


def _reject_duplicate_keys(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise InputError(f"duplicate key {key!r} in game file")
        seen.add(key)
    return dict(pairs)


def parse_game_json(text: str) -> GameFile:
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as err:
        raise InputError(f"invalid JSON at line {err.lineno}, column {err.colno}: "
                         f"{err.msg}") from err
    except ValueError as err:  # a number beyond the interpreter's limit on integer digits
        raise InputError(f"invalid number in game file: {err}") from err
    return parse_game_dict(doc)


def parse_game_dict(doc) -> GameFile:
    if not isinstance(doc, dict):
        raise InputError("game file must be a JSON object")
    players = doc.get("players")
    if (not isinstance(players, list) or not players
            or not all(isinstance(p, str) for p in players)):
        raise InputError('game file needs a non-empty "players" list of names')
    names = tuple(p.strip() for p in players)
    if any(not p or "," in p or "|" in p for p in names):
        raise InputError('player names must be non-empty and free of "," and "|"')
    try:
        "".join(names).encode("utf-8")  # a lone surrogate cannot be printed
    except UnicodeEncodeError as err:
        raise InputError(f"player names must be valid Unicode text: {err}") from err
    if len(set(names)) != len(names):
        raise InputError("duplicate player names")
    index = {p: i for i, p in enumerate(names)}
    raw_values = doc.get("values", {})
    if not isinstance(raw_values, dict):
        raise InputError('"values" must map coalition keys to rationals')
    unknown = set(doc) - {"players", "values"}
    if unknown:
        raise InputError(f"unknown keys in game file: {sorted(unknown)}")

    table: dict[int, Rational] = {}
    for key, value in raw_values.items():
        mask = names_to_mask(key, index)
        if mask in table:
            raise InputError(f"coalition key {key!r} repeats an earlier coalition")
        if not isinstance(value, (int, str)):
            raise InputError(f"value for {key!r} must be an integer or a p/q string")
        table[mask] = exact(value)
    game = Game(len(names), table)
    filled = tuple(m for m in range(1, game.full + 1) if m not in table)
    return GameFile(game=game, players=names, filled=filled)


def load_game(path) -> GameFile:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise InputError(f"cannot read game file {path}: {err}") from err
    return parse_game_json(text)


def names_to_mask(key, index: dict) -> int:
    """Mask of a coalition named once per member, each a key of ``index``:
    comma-joined (game files, CLI text) or as a list (report JSON). One pass
    over the names; the first faulty name is reported."""
    text = isinstance(key, str)
    mask = 0
    for p in key.split(",") if text else key:
        if text:
            p = p.strip()
        i = index.get(p)
        if i is None:
            what = "empty player name" if p == "" else f"unknown player {p!r}"
            raise InputError(f"{what} in coalition key {key!r}")
        bit = 1 << i
        if mask & bit:
            raise InputError(f"player {p!r} repeated in coalition key {key!r}")
        mask |= bit
    return mask


def mask_to_names(mask: int, players) -> str:
    return ",".join(players[i] for i in members(mask))


def partition_to_text(p: Partition, players) -> str:
    return "|".join(mask_to_names(b, players) for b in p.blocks)


def mask_names(mask: int, players) -> list:
    """JSON rendering of a coalition: its player names, or its player indices
    when ``players`` is None."""
    return [players[i] if players else i for i in members(mask)]


def partition_names(p: Partition, players) -> list:
    """JSON rendering of a partition: one :func:`mask_names` list per block."""
    return [mask_names(b, players) for b in p.blocks]


def _mask_from(group, players) -> int | None:
    """Invert :func:`mask_names` through :func:`names_to_mask`: names of
    ``players``, or player indices when ``players`` is None."""
    if group is None:
        return None
    if not isinstance(group, list) or not all(isinstance(p, (str, int)) for p in group):
        raise InputError(f"coalition {group!r} must be a list of player names or indices")
    if players is None:
        index = {i: i for i in group if type(i) is int and i >= 0}
    else:
        index = {name: i for i, name in enumerate(players)}
    return names_to_mask(group, index)


def _json_fields(data, required: dict, optional: dict | None = None) -> dict:
    """Report JSON ``data``, checked: an object whose ``required`` keys hold
    non-null values, and whose non-null values there and at ``optional`` keys
    are of their kind: a type, or a tuple of the values allowed."""
    if not isinstance(data, dict):
        raise InputError(f"report JSON must be an object, got {type(data).__name__}")
    for key, kind in (required | (optional or {})).items():
        value = data.get(key)
        if (key in required if value is None else not (
                value in kind if isinstance(kind, tuple) else isinstance(value, kind))):
            raise InputError(f"report JSON has a missing or bad {key!r}: {value!r}")
    return data


def _partition_from(groups, players) -> Partition | None:
    """Invert :func:`partition_names`; over indices, n is the highest plus one."""
    if groups is None:
        return None
    blocks = [_mask_from(g, players) for g in groups]
    size = len(players) if players else max((b.bit_length() for b in blocks), default=0)
    return Partition(size, blocks)


def parse_partition(text: str, players) -> Partition:
    """Parse block syntax like ``"A,C|B"`` against the game's player names."""
    index = {p: i for i, p in enumerate(players)}
    blocks = []
    for part in text.split("|"):
        if not part.strip():
            raise InputError(f"empty block in partition {text!r}")
        blocks.append(names_to_mask(part, index))
    try:
        return Partition(len(players), blocks)
    except InputError as err:
        raise InputError(f"bad partition {text!r}: {err}") from err


def parse_allocation(text: str, n: int) -> tuple:
    parts = text.split(",")
    if len(parts) != n:
        raise InputError(f"allocation {text!r} has {len(parts)} entries, expected {n}")
    return tuple(parse_rational(p) for p in parts)


def rational_json(value: Rational):
    """Ints stay JSON numbers; proper fractions become "p/q" strings."""
    out = exact(value)
    return out if isinstance(out, int) else format_rational(out)
