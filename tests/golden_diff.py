"""Compare two golden CLI fixtures after a deliberate regeneration.

    git show HEAD:tests/golden_cli.json > old.json
    PYTHONPATH=src python tests/make_golden.py tests/golden_cli.json
    python tests/golden_diff.py old.json tests/golden_cli.json [--only FIELD]... "<argv>" ...

Each ``<argv>`` names a command that is meant to change, its old or its new
arguments joined by single spaces.  Commands are paired by position.  A
named command may change its arguments, its exit code and its stdout, and
must change at least one of them; every other command must be
byte-identical, and the input files and the number of commands must stay
the same.  Each changed stdout is compared as JSON, and the paths of the
fields that moved are printed with their old and new values; with
``--only FIELD`` (repeatable) a moved field of any other name is an error.
Exits 1 on any error, else 0.
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


def main(old_path, new_path, *args) -> int:
    only, expected, args = set(), set(), list(args)
    while args:
        arg = args.pop(0)
        if arg == "--only":
            only.add(args.pop(0))
        else:
            expected.add(arg)
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    problems = []
    if old["files"] != new["files"]:
        problems.append("input files differ")
    if len(old["commands"]) != len(new["commands"]):
        problems.append(f"command count {len(old['commands'])} -> {len(new['commands'])}")
    changed, differ = set(), 0
    for a, b in zip(old["commands"], new["commands"]):
        if a == b:
            continue
        differ += 1
        name, new_name = " ".join(a["argv"]), " ".join(b["argv"])
        named = {name, new_name} & expected
        changed |= named
        if not named:
            problems.append(f"unexpected change: {name}")
        if name != new_name:
            print(f"{name}: argv -> {new_name}")
        if a["exit"] != b["exit"]:
            print(f"{name}: exit code {a['exit']} -> {b['exit']}")
        for path, was, now in moved_fields(_parsed(a["stdout"]), _parsed(b["stdout"])):
            print(f"{name}: {path} {was} -> {now}")
            if named and only and path.rsplit(".", 1)[-1] not in only:
                problems.append(f"field other than {', '.join(sorted(only))} moved: {name}: {path}")
    for name in sorted(expected - changed):
        problems.append(f"expected a change: {name}")
    for line in problems:
        print(line)
    if problems:
        return 1
    same = len(new["commands"]) - differ
    print(f"ok: {differ} of {len(new['commands'])} commands changed as named, "
          f"{same} byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
