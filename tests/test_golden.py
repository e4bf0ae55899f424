"""Replay the golden CLI fixture: every command must print the recorded
stdout byte for byte and exit with the recorded code.

The fixture and the way to regenerate it are described in
``tests/make_golden.py``.  Commands run in fixture order because some read
files that earlier ``gen --out`` commands wrote.
"""

import json
from pathlib import Path

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
