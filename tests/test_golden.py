"""Replay the golden CLI fixture: every command must print the recorded
stdout byte for byte and exit with the recorded code.

The fixture and the way to regenerate it are described in
``tests/make_golden.py``.  Commands run in fixture order because some read
files that earlier ``gen --out`` commands wrote.  ``tests/golden_diff.py``,
which reviews a regeneration, is checked here on small synthetic fixtures.
"""

import json
from pathlib import Path

import pytest

import golden_diff
from make_golden import run_command, write_inputs

GOLDEN = Path(__file__).parent / "golden_cli.json"


def test_golden_stdout_and_exit_codes(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    write_inputs(golden["files"], tmp_path)
    mismatches = [
        " ".join(entry["argv"])
        for entry in golden["commands"]
        if run_command(entry["argv"], tmp_path) != (entry["exit"], entry["stdout"])
    ]
    assert len(golden["commands"]) == 78
    assert mismatches == []


def _fixture(*commands, files=None):
    return {
        "files": files or {},
        "commands": [{"argv": argv, "exit": code, "stdout": out} for argv, code, out in commands],
    }


_MOVED = (["a", "--x"], 3, '{"examined":3,"kind":"B"}')
_KEPT = (["b"], 0, '{"examined":1}')
_OLD = _fixture(_MOVED, _KEPT)
_NEW = _fixture((["a"], 0, '{"examined":1,"kind":"A"}'), _KEPT)
_ONLY = ["--only", "examined", "--only", "kind"]


@pytest.mark.parametrize(
    "new, args, code",
    [
        # argv, exit code and two fields move in the one named command
        (_NEW, [*_ONLY, "a --x"], 0),
        (_NEW, [*_ONLY, "a"], 0),  # named by its new argv
        (_NEW, ["a --x"], 0),  # without --only any field may move
        (_OLD, [], 0),
        (_NEW, [], 1),  # not named
        (_NEW, ["--only", "examined", "a --x"], 1),  # kind moved too
        (_NEW, [*_ONLY, "a --x", "b"], 1),  # b was named but did not change
        (_fixture((["a"], 3, _MOVED[2]), _KEPT), ["b"], 1),  # argv moved unnamed
        (_fixture((["a", "--x"], 0, _MOVED[2]), _KEPT), ["b"], 1),  # exit moved unnamed
        (_fixture(_MOVED), ["a --x", "b"], 1),  # a command was dropped
        (_fixture(_MOVED, _KEPT, files={"f": ""}), [], 1),  # input files moved
    ],
)
def test_golden_diff_accepts_only_named_moves(tmp_path, capsys, new, args, code):
    old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
    old_path.write_text(json.dumps(_OLD), encoding="utf-8")
    new_path.write_text(json.dumps(new), encoding="utf-8")
    assert golden_diff.main(str(old_path), str(new_path), *args) == code, capsys.readouterr().out
