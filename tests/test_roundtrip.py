"""Round-trip properties of the text and JSON renderings.

Every rendering the CLI prints in JSON mode must read back to the object it
came from: rationals, game files, partitions, and the SAM, core and stability
reports. Games stay at n <= 5 and every property is bounded by
``max_examples``, so the whole module runs in a couple of seconds.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalstab import (MODES, CoreReport, EmptyBlockAllocation, Game, InputError, PAPair,
                      Partition, SamTrace, StabilityReport, core_contains,
                      equal_surplus_allocation, format_rational, parse_game_json,
                      parse_rational, sam_run, stable_contains)
from coalstab.io import _partition_from, partition_names, rational_json

rationals = st.one_of(st.integers(-10**30, 10**30),
                      st.fractions(max_denominator=10**12))
small_rationals = st.one_of(st.integers(-10, 10),
                            st.fractions(-10, 10, max_denominator=6))
# Names may hold anything but the separators "," and "|" and outer spaces.
names = st.text("Ab9_-.é名 ", min_size=1, max_size=3).filter(lambda s: s == s.strip())


@st.composite
def games(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    values = draw(st.lists(small_rationals, min_size=(1 << n) - 1, max_size=(1 << n) - 1))
    return Game(n, [0] + values)


@st.composite
def partitions(draw, n):
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks: dict[int, int] = {}
    for i, label in enumerate(labels):
        blocks[label] = blocks.get(label, 0) | 1 << i
    return Partition(n, list(blocks.values()))


@st.composite
def players_for(draw, n):
    """Either index rendering (None) or n distinct player names."""
    return draw(st.none() | st.lists(names, min_size=n, max_size=n, unique=True))


@st.composite
def pairs(draw, game):
    """A partition with its equal-surplus allocation when that exists,
    otherwise (or at random) an arbitrary allocation, feasible or not."""
    p = draw(partitions(game.n))
    if draw(st.booleans()):
        try:
            return PAPair(p, equal_surplus_allocation(game, p))
        except EmptyBlockAllocation:
            pass
    x = draw(st.lists(small_rationals, min_size=game.n, max_size=game.n))
    return PAPair(p, tuple(x))


def through_json(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


@settings(max_examples=100)
@given(rationals)
def test_rational_text_round_trip(q):
    text = format_rational(q)
    assert parse_rational(text) == q
    assert format_rational(parse_rational(text)) == text


@settings(max_examples=30)
@given(st.data())
def test_game_file_round_trip(data):
    game = data.draw(games())
    players = data.draw(st.lists(names, min_size=game.n, max_size=game.n, unique=True))
    listed = data.draw(st.sets(st.integers(1, game.full)))
    values = {}
    for mask in sorted(listed):
        order = data.draw(st.permutations([players[i] for i in range(game.n) if mask >> i & 1]))
        values[",".join(order)] = rational_json(game.value(mask))
    loaded = parse_game_json(json.dumps({"players": players, "values": values}))
    assert loaded.players == tuple(players)
    assert loaded.filled == tuple(m for m in range(1, game.full + 1) if m not in listed)
    for mask in range(1, game.full + 1):
        expected = game.value(mask) if mask in listed else 0
        assert loaded.game.value(mask) == expected


@settings(max_examples=50)
@given(st.data())
def test_partition_names_round_trip(data):
    n = data.draw(st.integers(1, 8))
    p = data.draw(partitions(n))
    players = data.draw(players_for(n))
    rendered = through_json({"p": partition_names(p, players)})["p"]
    assert _partition_from(rendered, players) == p  # indices: n from the highest player


@settings(max_examples=25)
@given(st.data())
def test_sam_trace_json_round_trip(data):
    game = data.draw(games())
    start = data.draw(partitions(game.n))
    players = data.draw(players_for(game.n))
    trace = sam_run(game, start)
    assert SamTrace.from_json(through_json(trace.to_json(players)), players) == trace


@settings(max_examples=25)
@given(st.data())
def test_core_report_json_round_trip(data):
    game = data.draw(games())
    x = data.draw(st.lists(small_rationals, min_size=game.n, max_size=game.n))
    if data.draw(st.booleans()):  # an efficient allocation reaches the certificates
        x[-1] = game.value(game.full) - sum(x[:-1])
    mode = data.draw(st.sampled_from(MODES))
    players = data.draw(players_for(game.n))
    report = core_contains(game, tuple(x), mode)
    assert CoreReport.from_json(through_json(report.to_json(players)), players) == report


@settings(max_examples=25)
@given(st.data())
def test_stability_report_json_round_trip(data):
    game = data.draw(games())
    pair = data.draw(pairs(game))
    mode = data.draw(st.sampled_from(MODES))
    players = data.draw(players_for(game.n))
    report = stable_contains(game, pair, mode)
    rebuilt = StabilityReport.from_json(through_json(report.to_json(players)), players)
    assert rebuilt == report


def test_report_json_decodes_names_strictly():
    """Report JSON goes through the game files' named-mask parser: a repeated
    name is not a different player, and an unknown name or an empty
    partition is an input error, not a KeyError or ValueError."""
    players = ("A", "B", "C")
    with pytest.raises(InputError, match="repeated"):
        CoreReport.from_json({"mode": "strong", "member": False, "coalition": ["A", "A"]},
                             players)
    with pytest.raises(InputError, match="unknown player"):
        CoreReport.from_json({"mode": "strong", "member": False, "coalition": ["D"]}, players)
    with pytest.raises(InputError):
        CoreReport.from_json({"mode": "medium", "member": False, "partition": []})


HOUSEHOLD_TRACE = sam_run(Game(3, {0b010: 4, 0b101: 6, 0b111: 8}))
SAM_DOC = HOUSEHOLD_TRACE.to_json()  # one fusion step; worths and allocation as strings


def _without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


STRICT_CASES = {
    "core-unknown-mode": (CoreReport, {"mode": "bogus", "member": True}),
    "core-non-bool-member": (CoreReport, {"mode": "strong", "member": "yes"}),
    "core-missing-member": (CoreReport, {"mode": "strong"}),
    "core-non-str-reason": (CoreReport, {"mode": "strong", "member": False, "reason": 5}),
    "core-non-dict": (CoreReport, ["strong", True]),
    "core-non-list-partition": (CoreReport, {"mode": "medium", "member": False,
                                             "partition": 5}),
    "stability-unknown-mode": (StabilityReport, {"mode": "x", "feasible": True,
                                                 "stable": False}),
    "stability-non-bool-feasible": (StabilityReport, {"mode": "medium", "feasible": 1,
                                                      "stable": False}),
    "stability-non-bool-stable": (StabilityReport, {"mode": "medium", "feasible": True,
                                                    "stable": "no"}),
    "stability-non-bool-resistance": (StabilityReport, {
        "mode": "weak", "feasible": True, "stable": True, "fusion_resistant": "yes"}),
    "stability-missing-stable": (StabilityReport, {"mode": "weak", "feasible": False}),
    "stability-non-dict": (StabilityReport, None),
    "sam-unknown-direction": (SamTrace, {**SAM_DOC, "steps": [
        {**SAM_DOC["steps"][0], "direction": "sideways"}]}),
    "sam-missing-terminal": (SamTrace, _without(SAM_DOC, "terminal")),
    "sam-missing-step-key": (SamTrace, {**SAM_DOC, "steps": [
        _without(SAM_DOC["steps"][0], "to_worth")]}),
    "sam-non-dict-step": (SamTrace, {**SAM_DOC, "steps": [["0"]]}),
    "sam-non-dict": (SamTrace, "trace"),
    "sam-float-allocation": (SamTrace, {**SAM_DOC, "allocation": [3.0, 4, 3]}),
    "sam-bool-allocation": (SamTrace, {**SAM_DOC, "allocation": [True, 4, 3]}),
}


@pytest.mark.parametrize("case", sorted(STRICT_CASES))
def test_report_json_decoding_refuses_malformed_fields(case):
    """A report field of the wrong kind, a missing required key or a
    non-object document is an input error, never a report or a KeyError."""
    report_type, data = STRICT_CASES[case]
    with pytest.raises(InputError):
        report_type.from_json(data)


def test_sam_trace_decodes_numeric_rationals():
    """Worths and allocation entries decode as JSON numbers too, the form
    rational_json writes for ints."""
    trace = HOUSEHOLD_TRACE
    doc = {**SAM_DOC,
           "allocation": [rational_json(v) for v in trace.terminal_pair.allocation],
           "steps": [{**s, "from_worth": rational_json(t.source_worth),
                      "to_worth": rational_json(t.target_worth)}
                     for s, t in zip(SAM_DOC["steps"], trace.steps)]}
    assert SamTrace.from_json(doc) == trace
