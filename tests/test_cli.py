import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalstab import CoreReport, PAPair, Partition, SamTrace, StabilityReport
from coalstab import (load_game, sam_run, stable_contains, weak_core_contains)
from coalstab.cli import _HANDLERS, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_core_check_weak_member(capsys, game_b_path):
    code, out, err = run(capsys, "core", "check", "--mode", "weak",
                         str(game_b_path), "--alloc", "0,6,2")
    assert code == 0
    assert "member: yes" in out
    assert "defaulted to 0" in err  # gameB.json omits three coalitions


def test_core_check_strong_nonmember(capsys, game_a_path):
    code, out, _ = run(capsys, "core", "check", "--mode", "strong",
                       str(game_a_path), "--alloc", "2,2,2")
    assert code == 1
    assert "blocking coalition: 1,2" in out


def test_core_check_length_mismatch_is_input_error(capsys, game_a_path):
    code, _, err = run(capsys, "core", "check", "--mode", "strong",
                       str(game_a_path), "--alloc", "1,2")
    assert code == 2 and "error" in err


def test_core_find_strong_empty(capsys, game_a_path):
    code, out, _ = run(capsys, "core", "find", "--mode", "strong", str(game_a_path))
    assert code == 1
    assert "nonempty: no" in out


def test_core_find_weak_witness_passes_membership(capsys, game_b_path):
    code, out, _ = run(capsys, "core", "find", "--mode", "weak",
                       str(game_b_path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["nonempty"] is True
    loaded = load_game(game_b_path)
    witness = payload["witness"]
    assert weak_core_contains(loaded.game, tuple(witness)).member


def test_core_find_medium(capsys, game_a_path, game_b_path):
    code, out, _ = run(capsys, "core", "find", "--mode", "medium", str(game_a_path))
    assert code == 0 and "witness: 2,2,2" in out
    code, _, _ = run(capsys, "core", "find", "--mode", "medium", str(game_b_path))
    assert code == 1


def test_stability_stable_pair(capsys, game_b_path):
    code, out, _ = run(capsys, "stability", "--mode", "medium", str(game_b_path),
                       "--partition", "A,C|B", "--alloc", "3,4,3")
    assert code == 0 and "stable: yes" in out


def test_stability_grand_unstable_with_certificate(capsys, game_b_path):
    code, out, _ = run(capsys, "stability", "--mode", "medium", str(game_b_path),
                       "--partition", "A,B,C")
    assert code == 1
    assert "stable: no" in out
    assert "defeating refinement: A,C|B" in out


def test_stability_two_player_strong(capsys, game_2_path):
    code, out, _ = run(capsys, "stability", "--mode", "strong", str(game_2_path),
                       "--partition", "1|2", "--alloc", "1,1")
    assert code == 0 and "stable: yes" in out


def test_stability_infeasible_pair(capsys, game_b_path):
    code, out, _ = run(capsys, "stability", "--mode", "medium", str(game_b_path),
                       "--partition", "A,B|C", "--alloc", "0,0,0")
    assert code == 1
    assert "feasible: no" in out


def test_stability_default_allocation_infeasible_block(capsys, game_b_path):
    # {A,B} is worth 0 but B alone gets 4: no feasible allocation exists
    code, out, _ = run(capsys, "stability", "--mode", "medium", str(game_b_path),
                       "--partition", "A,B|C")
    assert code == 1 and "feasible: no" in out


def test_stability_malformed_partition(capsys, game_b_path):
    code, _, err = run(capsys, "stability", "--mode", "medium", str(game_b_path),
                       "--partition", "A|B")
    assert code == 2 and "error" in err


def test_sam_default_and_custom_start(capsys, game_b_path):
    code, out, _ = run(capsys, "sam", str(game_b_path))
    assert code == 0
    assert "terminal: A,C|B" in out
    assert "allocation: 3,4,3" in out

    code, out, _ = run(capsys, "sam", str(game_b_path), "--start", "A,C|B")
    assert code == 0 and "step 1" not in out


def test_sam_json_round_trip(capsys, game_b_path):
    code, out, _ = run(capsys, "sam", str(game_b_path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    loaded = load_game(game_b_path)
    rebuilt = SamTrace.from_json(payload, payload["players"])
    assert rebuilt == sam_run(loaded.game)


def test_core_report_json_round_trip(capsys, game_b_path):
    code, out, _ = run(capsys, "core", "check", "--mode", "weak", str(game_b_path),
                       "--alloc", "0,6,2", "--format", "json")
    payload = json.loads(out)
    loaded = load_game(game_b_path)
    rebuilt = CoreReport.from_json(payload, payload["players"])
    assert rebuilt == weak_core_contains(loaded.game, (0, 6, 2))


def test_stability_report_json_round_trip(capsys, game_b_path):
    code, out, _ = run(capsys, "stability", "--mode", "medium", str(game_b_path),
                       "--partition", "A,B,C", "--alloc", "0,6,2", "--format", "json")
    payload = json.loads(out)
    loaded = load_game(game_b_path)
    rebuilt = StabilityReport.from_json(payload, payload["players"])
    direct = stable_contains(loaded.game,
                             PAPair(Partition(3, [0b111]), (0, 6, 2)), "medium")
    assert rebuilt == direct


def test_graph_by_n_and_by_game(capsys, game_2_path, tmp_path):
    code, out, _ = run(capsys, "graph", "-n", "3")
    assert code == 0
    assert sum(1 for line in out.splitlines() if "[label=" in line) == 5

    target = tmp_path / "g.gv"
    code, out, _ = run(capsys, "graph", str(game_2_path), "-o", str(target))
    assert code == 0 and out == ""
    assert "P2_0_1" in target.read_text()


def test_graph_guard_and_arg_validation(capsys, game_2_path):
    code, _, err = run(capsys, "graph", "-n", "7")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "graph")
    assert code == 2
    code, _, err = run(capsys, "graph", str(game_2_path), "-n", "2")
    assert code == 2


def test_enumerate(capsys, game_a_path, game_b_path):
    code, out, _ = run(capsys, "enumerate", "--mode", "medium", str(game_b_path))
    assert code == 0
    assert "A,C|B  worth 10" in out

    code, out, _ = run(capsys, "enumerate", "--mode", "medium", str(game_a_path))
    assert code == 0
    assert "1,2,3  worth 6" in out


def test_enumerate_can_be_empty(capsys, tmp_path):
    # strong mode: three-player game with an empty strong core everywhere useful
    doc = {"players": ["x", "y", "z"],
           "values": {"x,y": 5, "x,z": 5, "y,z": 5, "x,y,z": 6}}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "enumerate", "--mode", "strong", str(path))
    assert code == 1
    assert "0 stable partition(s)" in out


def test_missing_file_and_bad_json(capsys, tmp_path):
    code, _, err = run(capsys, "core", "find", "--mode", "weak", "/no/file.json")
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run(capsys, "sam", str(bad))
    assert code == 2 and "line" in err


def test_byte_identical_reruns(capsys, game_b_path):
    first = run(capsys, "sam", str(game_b_path), "--format", "json")
    second = run(capsys, "sam", str(game_b_path), "--format", "json")
    assert first == second
    third = run(capsys, "enumerate", "--mode", "medium", str(game_b_path),
                "--format", "json")
    fourth = run(capsys, "enumerate", "--mode", "medium", str(game_b_path),
                 "--format", "json")
    assert third == fourth


def test_cap_override(capsys, tmp_path):
    players = [f"p{i}" for i in range(15)]
    doc = {"players": players, "values": {}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "core", "find", "--mode", "medium", str(path))
    assert code == 2 and "cap" in err
    with pytest.raises(SystemExit) as exited:  # the cap is a constant, not an option
        main(["core", "find", "--mode", "medium", str(path), "--cap", "15"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --cap 15" in capsys.readouterr().err


def test_non_ascii_digits_exit_2(capsys, tmp_path):
    path = tmp_path / "game.json"
    for text in ("\u0663", "1/\u0663", "\uff13"):
        path.write_text(json.dumps({"players": ["A", "B"], "values": {"A,B": text}}))
        code, out, err = run(capsys, "core", "find", "--mode", "medium", str(path))
        assert code == 2 and out == "" and err.startswith("error:")


def test_oversized_numbers_exit_2_without_traceback(tmp_path):
    src = pathlib.Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    digits = "7" * 5000
    path = tmp_path / "big.json"
    for raw in (digits, '"%s/3"' % digits):
        path.write_text('{"players": ["A", "B"], "values": {"A,B": %s}}' % raw)
        proc = subprocess.run(
            [sys.executable, "-m", "coalstab.cli", "core", "find", "--mode", "medium",
             str(path)], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_internal_error_exits_3(capsys, monkeypatch, game_b_path):
    def broken(args):
        raise RuntimeError("injected fault")

    monkeypatch.setitem(_HANDLERS, "core", broken)
    code, out, err = run(capsys, "core", "find", "--mode", "strong", str(game_b_path))
    assert code == 3 and out == ""
    assert err.startswith("error: internal error:") and "injected fault" in err


# Fuzzed game documents: valid games, names and values of every JSON type,
# unknown and empty names, over-cap player lists, non-object documents and raw
# bytes. Valid player lists stay at n <= 4, so every command answers in
# milliseconds.
_names = st.sampled_from(["A", "B", "C", "D"])
_bad_names = st.sampled_from(["", " ", "A,B", "A|B", "\ud800", None, 3, 1.5, ["A"]])
_good_values = st.integers(-5, 5) | st.sampled_from(["1/2", "-7/3", "4"])
_values = _good_values | st.sampled_from([None, 1.5, True, [1], {}, "1/0", "x", "", "1e3"])
_keys = st.lists(st.sampled_from(["A", "B", "C", "D", "Z", "", " "]), max_size=3).map(",".join)
_players = st.one_of(
    st.lists(_names, max_size=4),
    st.lists(_names | _bad_names, max_size=4),
    st.integers(15, 16).map(lambda n: [f"p{i}" for i in range(n)]),
    st.sampled_from([None, "A", 3, {"A": 1}]))
_valid = st.lists(_names, min_size=1, max_size=4, unique=True).flatmap(
    lambda players: st.fixed_dictionaries({"players": st.just(players), "values": st.dictionaries(
        st.lists(st.sampled_from(players), min_size=1, unique=True).map(",".join),
        _good_values, max_size=6)}))
_documents = st.one_of(
    _valid.map(lambda doc: json.dumps(doc).encode()),
    st.fixed_dictionaries({"players": _players}, optional={
        "values": st.dictionaries(_keys, _values, max_size=6) | st.sampled_from([None, [], 3]),
        "extra": st.just(1)}).map(lambda doc: json.dumps(doc).encode()),
    st.sampled_from([[], 3, "game", None]).map(lambda doc: json.dumps(doc).encode()),
    st.binary(max_size=24))
_commands = st.sampled_from([
    ["core", "find"], ["core", "check", "--alloc", "1,0"], ["enumerate"],
    ["stability", "--partition", "A|B"], ["sam"], ["graph"]])


@settings(max_examples=200)
@given(document=_documents, command=_commands, mode=st.sampled_from(["strong", "medium", "weak"]))
def test_cli_exits_with_a_verdict_or_input_error_on_any_document(document, command, mode):
    """Any game file gives exit 0, 1 or 2, never 3 and never a traceback.
    Stdout encodes strictly as UTF-8, like a terminal's, so a name that cannot
    be printed is found here too."""
    argv = command + (["--mode", mode] if command[0] not in ("sam", "graph") else [])
    out, err = io.TextIOWrapper(io.BytesIO(), "utf-8"), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "game.json"
        path.write_bytes(document)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + [str(path)])
            out.flush()
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
