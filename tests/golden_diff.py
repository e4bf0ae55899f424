"""Compare two golden CLI fixtures after a deliberate regeneration.

    git show HEAD:tests/golden_cli.json > old.json
    PYTHONPATH=src python tests/make_golden.py tests/golden_cli.json
    python tests/golden_diff.py old.json tests/golden_cli.json [--only FIELD] "<argv>" ...

Each ``<argv>`` is a command whose stdout is meant to change, its arguments
joined by single spaces.  Exits 1 unless the input files, the command list
and every exit code are unchanged and the stdout of exactly the named
commands differs; every other command must be byte-identical.  Each changed
stdout is compared as JSON, and the paths of the fields that moved are
printed with their old and new values; with ``--only FIELD`` any moved
field of another name is an error too.
"""

import json
import sys


def moved_fields(old, new, path=""):
    """(path, old value, new value) for each leaf where two JSON documents
    differ; a changed type or list length counts as one moved field."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        return [d for k in old for d in moved_fields(old[k], new[k], f"{path}.{k}")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [d for i, pair in enumerate(zip(old, new)) for d in moved_fields(*pair, f"{path}[{i}]")]
    return [] if old == new else [(path, old, new)]


def _parsed(stdout):
    try:
        return json.loads(stdout)
    except ValueError:  # not JSON: the whole text is one field
        return stdout


def main(old_path, new_path, *expected) -> int:
    only = None
    if expected[:1] == ("--only",):
        only, expected = expected[1], expected[2:]
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    problems = []
    if old["files"] != new["files"]:
        problems.append("input files differ")
    if [c["argv"] for c in old["commands"]] != [c["argv"] for c in new["commands"]]:
        problems.append("command lists differ")
    differ = set()
    for a, b in zip(old["commands"], new["commands"]):
        name = " ".join(a["argv"])
        if a["exit"] != b["exit"]:
            problems.append(f"exit code {a['exit']} -> {b['exit']}: {name}")
        if a["stdout"] != b["stdout"]:
            differ.add(name)
            for path, was, now in moved_fields(_parsed(a["stdout"]), _parsed(b["stdout"])):
                print(f"{name}: {path} {was} -> {now}")
                if only is not None and path.rsplit(".", 1)[-1] != only:
                    problems.append(f"field other than {only} moved: {name}: {path}")
    for name in sorted(differ - set(expected)):
        problems.append(f"unexpected stdout change: {name}")
    for name in sorted(set(expected) - differ):
        problems.append(f"expected a stdout change: {name}")
    for line in problems:
        print(line)
    if problems:
        return 1
    same = len(new["commands"]) - len(differ)
    print(f"ok: {len(differ)} of {len(new['commands'])} commands changed stdout as named, "
          f"{same} byte-identical, every exit code kept")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
