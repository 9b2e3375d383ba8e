from fractions import Fraction

import pytest

from coalstab import (InputError, Partition, load_game, parse_allocation, parse_game_json,
                      parse_rational)
from coalstab.io import mask_to_names, parse_partition, partition_to_text, rational_json


def test_load_fixture_games(game_a_path, game_b_path, game_2_path):
    a = load_game(game_a_path)
    assert a.players == ("1", "2", "3")
    assert a.game.value(0b011) == 5 and a.game.value(0b111) == 6
    assert a.filled == ()

    b = load_game(game_b_path)
    assert b.players == ("A", "B", "C")
    assert b.game.value(0b010) == 4
    assert b.game.value(0b101) == 6
    assert b.game.value(0b100) == 0  # defaulted
    assert set(b.filled) == {0b100, 0b011, 0b110}

    two = load_game(game_2_path)
    assert two.game.n == 2 and two.game.value(0b11) == 1


def test_parse_values_and_key_order():
    doc = '{"players": ["A", "B"], "values": {"B,A": "7/2", "B": -1}}'
    loaded = parse_game_json(doc)
    assert loaded.game.value(0b11) == Fraction(7, 2)
    assert loaded.game.value(0b10) == -1


def test_loader_rejects_bad_input():
    with pytest.raises(InputError):
        parse_game_json("not json")
    with pytest.raises(InputError):
        parse_game_json('{"values": {}}')  # players missing
    with pytest.raises(InputError):
        parse_game_json('{"players": []}')
    with pytest.raises(InputError):
        parse_game_json('{"players": ["A", "A"]}')
    with pytest.raises(InputError):
        parse_game_json('{"players": ["A,B"]}')  # comma clashes with key syntax
    with pytest.raises(InputError):
        parse_game_json('{"players": ["A"], "values": {"B": 1}}')  # unknown name
    with pytest.raises(InputError):
        parse_game_json('{"players": ["A"], "values": {"A": 1, "A": 2}}')  # raw dup
    with pytest.raises(InputError):
        parse_game_json('{"players": ["A", "B"], "values": {"A,B": 1, "B,A": 2}}')
    with pytest.raises(InputError):
        parse_game_json('{"players": ["A", "B"], "values": {"A,A": 1}}')
    with pytest.raises(InputError):
        parse_game_json('{"players": ["A"], "values": {"A": 0.5}}')  # float
    with pytest.raises(InputError):
        parse_game_json('{"players": ["A"], "values": {"A": true}}')
    with pytest.raises(InputError):
        parse_game_json('{"players": ["A"], "values": {"A": "1/0"}}')
    with pytest.raises(InputError):
        parse_game_json('{"players": ["A"], "extra": 1}')


def test_loader_refuses_values_that_are_not_numbers():
    # refused as game values, not as unparsable rationals
    for value in ("null", "[1]"):
        with pytest.raises(InputError, match="must be an integer or a p/q string"):
            parse_game_json(f'{{"players": ["A"], "values": {{"A": {value}}}}}')


def test_loader_missing_file():
    with pytest.raises(InputError):
        load_game("/no/such/file.json")


def test_partition_text_round_trip():
    players = ("A", "B", "C")
    p = parse_partition("A,C|B", players)
    assert p == Partition(3, [0b101, 0b010])
    assert partition_to_text(p, players) == "A,C|B"
    with pytest.raises(InputError):
        parse_partition("A|B", players)  # C missing
    with pytest.raises(InputError):
        parse_partition("A,C||B", players)
    with pytest.raises(InputError):
        parse_partition("A,C|B,X", players)


def test_allocation_parsing():
    assert parse_allocation("0,6,2", 3) == (0, 6, 2)
    assert parse_allocation("1/2,-3,7/3", 3) == (Fraction(1, 2), -3, Fraction(7, 3))
    with pytest.raises(InputError):
        parse_allocation("1,2", 3)
    with pytest.raises(InputError):
        parse_allocation("1,x,3", 3)


def test_render_helpers():
    assert mask_to_names(0b101, ("A", "B", "C")) == "A,C"
    assert rational_json(4) == 4
    assert rational_json(Fraction(6, 3)) == 2
    assert rational_json(Fraction(1, 3)) == "1/3"


def test_rationals_take_ascii_digits_only():
    # Arabic-Indic three, and fullwidth three
    for text in ("\u0663", "1/\u0663", "\uff13"):
        with pytest.raises(InputError):
            parse_rational(text)
        with pytest.raises(InputError):
            parse_game_json('{"players": ["A"], "values": {"A": "%s"}}' % text)


def test_oversized_numbers_are_input_errors():
    digits = "7" * 5000
    for raw in (digits, '"%s/3"' % digits, '"-%s"' % digits):
        with pytest.raises(InputError):
            parse_game_json('{"players": ["A"], "values": {"A": %s}}' % raw)


def test_parse_rational_refuses_non_strings():
    for value in (3, None, b"3", 1.5, ["3"]):
        with pytest.raises(InputError, match="expected a string"):
            parse_rational(value)
