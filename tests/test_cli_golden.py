"""Recorded CLI runs on the shipped games, replayed through ``cli.main``.

``cli_golden.json`` holds the exact stdout and exit code of every command in
:func:`commands`. A change that alters any of them on purpose re-records the
file with ``PYTHONPATH=src python tests/test_cli_golden.py`` and says why in
CHANGES.md.
"""

import contextlib
import io
import json
import pathlib

from coalstab.cli import main

ROOT = pathlib.Path(__file__).parent.parent
GOLDEN = pathlib.Path(__file__).parent / "cli_golden.json"
GAMES = ("games/gameA.json", "games/gameB.json", "games/game2.json")
MODES = ("strong", "medium", "weak")


def commands() -> list[list[str]]:
    """Every recorded argv, game paths relative to the repository root: each
    command in table mode, then the same commands in JSON mode."""
    base = []
    for game in GAMES:
        for mode in MODES:
            base.append(["core", "find", "--mode", mode, game])
            base.append(["enumerate", "--mode", mode, game])
        base.append(["sam", game])
        base.append(["graph", game])
    for mode in MODES:
        base.append(["core", "check", "--mode", mode, "games/gameA.json", "--alloc", "2,2,2"])
        base.append(["core", "check", "--mode", mode, "games/gameB.json", "--alloc", "0,6,2"])
    base += [
        ["core", "check", "--mode", "medium", "games/gameB.json", "--alloc", "2,4,2"],
        ["stability", "--mode", "medium", "games/gameB.json",
         "--partition", "A,C|B", "--alloc", "3,4,3"],
        ["sam", "games/gameB.json", "--start", "A,B,C"],
        ["graph", "-n", "3"],
    ]
    return base + [argv + ["--format", "json"] for argv in base]


def replay(argv: list[str]) -> dict:
    """Exit code and stdout of one CLI run; game paths resolve against the root."""
    resolved = [str(ROOT / a) if a.startswith("games/") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(resolved)
    return {"argv": argv, "code": code, "stdout": out.getvalue()}


def test_cli_output_matches_recording():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [r["argv"] for r in recorded] == commands()
    changed = [r["argv"] for r in recorded if replay(r["argv"]) != r]
    assert not changed, f"{len(changed)} CLI run(s) differ from the recording: {changed}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([replay(a) for a in commands()], indent=1) + "\n",
                      encoding="utf-8")
