"""Write the golden CLI fixture replayed by ``tests/test_golden.py``.

The fixture records, for a fixed list of commands, the exact stdout and the
exit code of ``monocomp``.  Commands run in order in one scratch directory:
``{d}`` in an argument stands for that directory, the input files listed in
``files`` are written there first, and ``gen --out`` commands leave files
that later commands read.

Regenerate only when a change is meant to alter output, with the library to
record on the path:

    PYTHONPATH=src python tests/make_golden.py tests/golden_cli.json
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from monocomp import (
    coloring_from_triples,
    complete_minus_circulant,
    dumps_canonical,
    graph_json,
)
from monocomp.cli import main


def _files() -> dict:
    k44mm = complete_minus_circulant(4, 4, 1)
    block = coloring_from_triples(
        4, 4, 2, [(x, y, ((x // 2) + (y // 2)) % 2) for x, y in k44mm.edges()]
    )
    circ = complete_minus_circulant(8, 8, 2)
    parity = coloring_from_triples(
        8, 8, 2, [(x, y, (x + y) % 2) for x, y in circ.edges()]
    )
    k6 = sorted([u, v, 0] for u in range(6) for v in range(u + 1, 6))
    # K8: color 0 inside the halves {0..3} and {4..7}, colors 1 and 2 across
    # them by parity, so color 0 is avoidable and the reduction runs
    k8 = sorted(
        [u, v, 0 if (u < 4) == (v < 4) else 1 + (u + v) % 2]
        for u in range(8)
        for v in range(u + 1, 8)
    )
    return {
        "k44mm.json": dumps_canonical(graph_json(k44mm)),
        "k44mm_block.json": dumps_canonical(graph_json(k44mm, block)),
        "circ882_parity.json": dumps_canonical(graph_json(circ, parity)),
        "gg_k6.json": json.dumps({"n": 6, "r": 3, "edges": k6}),
        "gg_k8.json": json.dumps({"n": 8, "r": 3, "edges": k8}),
    }


_K44 = "gen:complete:m=4,n=4"
_K33 = "gen:complete:m=3,n=3"
_K22 = "gen:complete:m=2,n=2"
_K44MM = "gen:circulant:m=4,n=4,d=1"
_LB = "gen:lower-bound:r=2,t1=1,t2=1"

COMMANDS = [
    # every gen variant; the --out files feed the analyze commands
    ["gen", "cyclic", "--k", "4", "--out", "{d}/cyc4.json"],
    ["gen", "lower-bound", "--r", "2", "--t1", "1", "--t2", "1", "--out", "{d}/lb.json"],
    ["gen", "lower-bound", "--r", "3", "--t1", "2", "--t2", "1"],
    ["gen", "double-star-gap", "--r", "2", "--t1", "2", "--t2", "3", "--out", "{d}/dsg.json"],
    ["gen", "double-star-gap", "--r", "2", "--t1", "1", "--t2", "3"],
    ["gen", "circulant", "--m", "8", "--n", "8", "--d", "2", "--out", "{d}/circ882.json"],
    ["gen", "complete", "--m", "4", "--n", "4", "--out", "{d}/k44.json"],
    # every analyze --check
    ["analyze", "{d}/lb.json", "--check", "r2"],
    ["analyze", "{d}/k44mm_block.json", "--check", "r2"],
    ["analyze", "{d}/circ882_parity.json", "--check", "r2"],
    ["analyze", "{d}/circ882.json", "--check", "r2"],
    ["analyze", "{d}/lb.json", "--check", "conjecture"],
    ["analyze", "{d}/lb.json", "--check", "conjecture", "--r", "2"],
    ["analyze", "{d}/k44mm_block.json", "--check", "conjecture"],
    ["analyze", "{d}/cyc4.json", "--check", "conjecture"],
    ["analyze", "{d}/lb.json", "--check", "conjecture", "--r", "3"],
    ["analyze", "{d}/lb.json", "--check", "conjecture", "--refined"],
    ["analyze", "{d}/k44mm_block.json", "--check", "conjecture", "--refined"],
    ["analyze", "{d}/lb.json", "--check", "tetel"],
    ["analyze", "{d}/cyc4.json", "--check", "tetel"],
    ["analyze", "{d}/dsg.json", "--check", "tetel"],
    ["analyze", "{d}/circ882_parity.json", "--check", "additive"],
    ["analyze", "{d}/lb.json", "--check", "additive"],
    ["analyze", "{d}/k44mm_block.json", "--check", "additive"],
    ["analyze", "{d}/cyc4.json", "--check", "additive"],
    ["analyze", "{d}/lb.json", "--check", "stability", "--color", "0"],
    ["analyze", "{d}/dsg.json", "--check", "stability", "--color", "1"],
    ["analyze", "{d}/k44.json", "--check", "stability"],
    ["analyze", "{d}/lb.json", "--check", "mainlemma", "--color", "1"],
    ["analyze", "{d}/dsg.json", "--check", "mainlemma"],
    ["analyze", "{d}/k44.json", "--check", "mainlemma"],
    ["analyze", "{d}/gg_k6.json", "--check", "corollary", "--variant", "seven-eighths"],
    ["analyze", "{d}/gg_k8.json", "--check", "corollary", "--variant", "seven-eighths"],
    ["analyze", "{d}/gg_k8.json", "--check", "corollary", "--variant", "general"],
    ["analyze", "{d}/gg_k6.json", "--check", "corollary", "--variant", "general", "--r", "3"],
    # search: minmax and below
    ["search", "--mode", "minmax", "--host", _K44, "--r", "2"],
    ["search", "--mode", "minmax", "--host", _K33, "--r", "3"],
    ["search", "--mode", "minmax", "--host", "gen:circulant:m=5,n=5,d=1"],
    ["search", "--mode", "minmax", "--r", "2"],
    ["search", "--mode", "below", "--host", _K44, "--target", "5"],
    ["search", "--mode", "below", "--host", _K44, "--target", "4"],
    ["search", "--mode", "below", "--host", _K44, "--target", "4", "--budget", "5"],
    ["search", "--mode", "below", "--host", _K33, "--target", "7/2"],
    ["search", "--mode", "below", "--host", _K44],
    # search: verify and random for each theorem
    ["search", "--mode", "verify", "--host", _K33],
    ["search", "--mode", "verify", "--host", _K33, "--target", "5"],
    ["search", "--mode", "verify", "--host", _K33, "--r", "3", "--target", "2"],
    ["search", "--mode", "verify", "--host", _K44MM],
    ["search", "--mode", "verify", "--check", "r2", "--host", _K44MM],
    ["search", "--mode", "verify", "--check", "r2", "--host", _K33, "--target", "99"],
    ["search", "--mode", "verify", "--check", "r2", "--host", _LB],
    ["search", "--mode", "verify", "--check", "r2", "--host", _K33, "--r", "3"],
    ["search", "--mode", "verify", "--check", "conjecture", "--host", _K33],
    ["search", "--mode", "verify", "--check", "conjecture", "--host", _K22, "--r", "3"],
    ["search", "--mode", "verify", "--check", "conjecture", "--host", _K33, "--r", "1"],
    ["search", "--mode", "verify", "--check", "conjecture", "--host", _LB],
    ["search", "--mode", "verify", "--check", "additive", "--host", _K22],
    ["search", "--mode", "verify", "--check", "additive", "--host", _K22, "--budget", "3"],
    ["search", "--mode", "verify", "--check", "additive", "--host", _K22, "--r", "3"],
    ["search", "--mode", "verify", "--check", "additive", "--host", _LB],
    ["search", "--mode", "random", "--host", _K44, "--budget", "2000", "--seed", "1"],
    ["search", "--mode", "random", "--host", _K44, "--target", "100", "--budget", "50"],
    ["search", "--mode", "random", "--host", _K44, "--target", "5", "--budget", "2000",
     "--seed", "5"],
    ["search", "--mode", "random", "--host", _K44, "--r", "3", "--budget", "1000"],
    ["search", "--mode", "random", "--host", _K44MM, "--budget", "100"],
    ["search", "--mode", "random", "--check", "r2", "--host", _K44MM, "--budget", "2000",
     "--seed", "2"],
    ["search", "--mode", "random", "--check", "r2", "--host", _LB, "--budget", "10"],
    ["search", "--mode", "random", "--check", "conjecture", "--host", _K33, "--budget", "2000",
     "--seed", "3"],
    ["search", "--mode", "random", "--check", "conjecture", "--host", _K33, "--r", "1"],
    ["search", "--mode", "random", "--check", "additive", "--host", "gen:circulant:m=8,n=8,d=2",
     "--budget", "2000", "--seed", "4"],
    ["search", "--mode", "random", "--check", "additive", "--host", _LB, "--budget", "10"],
    # scan
    ["scan", "--total-n", "16", "--alphas", "1/8", "--budget", "1000", "--seed", "3"],
    ["scan", "--total-n", "12", "--alphas", "1/8,1/4,3/8", "--budget", "500", "--seed", "2"],
    ["scan", "--total-n", "16", "--alphas", "1/8,1/0"],
    # the four commands of acceptance criterion 11
    ["search", "--mode", "minmax", "--host", _K44, "--r", "2", "--seed", "7"],
    ["search", "--mode", "below", "--host", _K44, "--r", "2", "--target", "5", "--seed", "7"],
    ["search", "--mode", "verify", "--check", "r2", "--host", "{d}/k44mm.json", "--r", "2",
     "--seed", "7"],
    ["search", "--mode", "random", "--check", "additive", "--host",
     "gen:circulant:m=8,n=8,d=2", "--r", "2", "--budget", "10000", "--seed", "7"],
]


def run_command(argv, directory) -> tuple[int, str]:
    """(exit code, stdout) of one in-process ``monocomp`` call."""
    args = [a.replace("{d}", str(directory)) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["--manifest", str(Path(directory) / "manifest.json"), *args])
    return code, out.getvalue()


def write_inputs(files: dict, directory) -> None:
    for name, text in files.items():
        (Path(directory) / name).write_text(text, encoding="utf-8")


def record() -> dict:
    files = _files()
    commands = []
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(files, directory)
        for argv in COMMANDS:
            code, stdout = run_command(argv, directory)
            commands.append({"argv": argv, "exit": code, "stdout": stdout})
    return {"files": files, "commands": commands}


if __name__ == "__main__":
    Path(sys.argv[1]).write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
