"""Command-line front end tying generators, checkers and searches together.

All machine output is canonical JSON on stdout (sorted keys, no whitespace,
numbers are ints or exact "p/q" strings), so identical invocations produce
identical bytes.  Wall-clock timings and provenance go to the run manifest
file instead.

Exit codes: 0 done / holds / not applicable, 1 counterexample or violated
conclusion, 2 bad input, unmet precondition, out of memory or a stdout
closed before the output was written, 3 search budget exhausted, 4 internal
error (an unexpected exception, never a verdict).

Each command loads only what it runs.  The parser and ``gen`` need
``bigraph``, ``constructions`` and ``theorems``; ``analyze`` loads
``analysis`` and ``search``/``scan`` load ``search``, inside the command.
``main`` builds the subparser of the one subcommand argv runs, or all four
for help and the errors that name no subcommand, so every text is the
same.  ``--workers`` above 1 imports ``concurrent.futures`` and starts a
pool only for a walk that goes past ``search._TRIAL_NODES`` nodes or a
sample run of more than one block.  The manifest's input digest takes
CPython's built-in sha256, so no command loads OpenSSL through
``hashlib``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .bigraph import (
    GraphError,
    dumps_canonical,
    graph_json,
    parse_graph_json,
)
from .constructions import GEN_VARIANTS, InvalidSpec, construction_certificate, gen_build
from .theorems import _UNBOUNDED, THEOREMS, PreconditionViolated

_EXIT_OK = 0
_EXIT_COUNTEREXAMPLE = 1
_EXIT_INPUT = 2
_EXIT_BUDGET = 3
_EXIT_INTERNAL = 4
_KIND_EXIT = {"Counterexample": _EXIT_COUNTEREXAMPLE, "BudgetExhausted": _EXIT_BUDGET}
_GEN_DEFAULTS = {"k": 3, "r": 2, "t1": 1, "t2": 1, "m": 4, "n": 4, "d": 1}  # for options not given
# the options that only some values of --mode or --check (search, analyze) read
_SEARCH_READERS = {"target": ("below", "verify", "random"), "check": ("verify", "random")}
_CHECK_READERS = {"target": ("gy1",)}  # of search: only gy1's target is settable
_ANALYZE_READERS = {"color": ("stability", "mainlemma"), "variant": ("corollary",)}
_ABSENT = argparse.SUPPRESS  # the default of an option that is in args only when given


def _digest(text: str) -> str:
    # CPython's own sha256, as random.py takes its sha512: hashlib loads
    # OpenSSL, several ms per command
    try:
        sha256 = __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
    except ImportError:  # a Python built without it
        from hashlib import sha256
    return "sha256:" + sha256(text.encode()).hexdigest()


def _write_manifest(path: str, argv, source: str, seed, summary: dict, elapsed: float):
    """Write the run manifest; ``source`` is the canonical input text it digests."""
    manifest = {
        "argv": list(argv),
        "input_digest": _digest(source),
        "seed": seed,
        "version": __version__,
        "timings": {"elapsed_us": int(elapsed * 1_000_000)},
        "outcome": summary,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2))
        fh.write("\n")


def _load_host(source: str):
    """Load a (host, coloring-or-None) pair from a file or a gen: spec.

    Spec strings look like "gen:circulant:m=8,n=8,d=2" or
    "gen:lower-bound:r=2,t1=1,t2=1", with the variants and parameters of
    ``GEN_VARIANTS``.
    """
    if source.startswith("gen:"):
        parts = source.split(":")
        if len(parts) != 3:
            raise InvalidSpec(f"bad generator spec {source!r}")
        params = {}
        if parts[2]:
            for item in parts[2].split(","):
                key, _, value = item.partition("=")
                params[key.strip()] = int(value)
        host, col = gen_build(parts[1], params)
        return host, col, dumps_canonical(graph_json(host, col))
    with open(source, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "graph" in data:
        data = data["graph"]
    host, col = parse_graph_json(data)
    return host, col, dumps_canonical(data)


def cmd_gen(args) -> tuple[dict, int, str, dict]:
    params = {key: _GEN_DEFAULTS[key] for key in GEN_VARIANTS[args.variant][1]}
    # every option given: gen_build rejects one the variant does not read, as in a gen: spec
    params.update((key, value) for key, value in vars(args).items() if key in _GEN_DEFAULTS)
    host, col = gen_build(args.variant, params)
    cert = construction_certificate(host, col)
    graph_doc = graph_json(host, col)
    doc = {"graph": graph_doc, "certificate": cert.to_json_dict()}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical(graph_doc))
            fh.write("\n")
    return doc, _EXIT_OK, dumps_canonical(graph_doc), {"variant": args.variant, **params}


def _reject_unread(args, selector: str, readers: dict) -> None:
    """Reject an option of ``readers`` given under a ``selector`` value that
    does not read it; such options default to SUPPRESS, so they are in
    ``args`` only when given."""
    value = getattr(args, selector)
    for key, values in readers.items():
        if key in vars(args) and value not in values:
            raise GraphError(f"--{selector} {value} does not read --{key}")


def _single_class(args):
    """A (class graph, r) pair for the per-class lemma reports."""
    host, col, text = _load_host(args.file)
    classes = (host,) if col is None else col.classes  # an uncolored graph is one class
    color = getattr(args, "color", 0)
    if not (0 <= color < len(classes)):
        raise GraphError(f"--color must be in [0, {len(classes)})")
    r = args.r
    if r is None:
        r = 2 if col is None else col.r
    return classes[color], r, text


def cmd_analyze(args) -> tuple[dict, int, str, dict]:
    from .analysis import (
        check_corollary,
        check_instance,
        main_lemma_report,
        parse_general_json,
        stability_report,
    )

    _reject_unread(args, "check", _ANALYZE_READERS)
    if args.check in ("stability", "mainlemma"):
        g, r, text = _single_class(args)
        if args.check == "stability":
            report = stability_report(g, r)
            violated = not report.dichotomy
        else:
            report = main_lemma_report(g, r)
            violated = (
                report.precondition_ok
                and report.hypothesis_ok
                and not report.all_properties
            )
        doc = report.to_json_dict()
        code = _EXIT_COUNTEREXAMPLE if violated else _EXIT_OK
        return doc, code, text, {"check": args.check, "violated": violated}

    if args.check == "corollary":
        with open(args.file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if isinstance(data, dict) and "m" in data:
            raise GraphError(
                "corollary expects a general graph file {n, r, edges}, "
                "not a bipartite one"
            )
        gg = parse_general_json(data)
        text = dumps_canonical(data)
        variant = getattr(args, "variant", "seven-eighths")
        verdict = check_corollary(gg, gg.r if args.r is None else args.r, variant=variant)
    else:
        host, col, text = _load_host(args.file)
        if col is None:
            raise GraphError(f"--check {args.check} needs a colored graph")
        verdict = check_instance(
            THEOREMS[args.check], host, col, col.r if args.r is None else args.r
        )
    doc = verdict.to_json_dict()
    code = _EXIT_OK if (not verdict.applicable or verdict.holds) else _EXIT_COUNTEREXAMPLE
    return doc, code, text, {"check": args.check, "holds": verdict.holds}


def cmd_search(args) -> tuple[dict, int, str, dict]:
    from .search import (
        SearchConfig,
        exhaustive_verify,
        exists_coloring_below,
        min_max_mono_component,
        random_search,
    )

    _reject_unread(args, "mode", _SEARCH_READERS)
    if "check" in vars(args):
        _reject_unread(args, "check", _CHECK_READERS)
    if not args.host:
        raise GraphError(f"--mode {args.mode} needs --host")
    host, _col, text = _load_host(args.host)
    cfg = SearchConfig(seed=args.seed, budget=args.budget)
    target = _parse_rational(args.target, "--target") if "target" in vars(args) else None
    thm = THEOREMS[getattr(args, "check", "gy1")]
    if args.mode == "minmax":
        out = min_max_mono_component(host, args.r, cfg, workers=args.workers)
    elif args.mode == "below":
        if target is None:
            raise GraphError("--mode below needs --target")
        out = exists_coloring_below(host, args.r, target, cfg, workers=args.workers)
    elif args.mode == "verify":
        out = exhaustive_verify(host, args.r, target, thm, cfg, workers=args.workers)
    else:
        thm.require(host, args.r)
        out = random_search(host, args.r, target, thm, cfg, workers=args.workers)
    doc = out.to_json_dict()
    summary = {"mode": args.mode, "kind": out.kind, "examined": out.examined}
    return doc, _KIND_EXIT.get(out.kind, _EXIT_OK), text, summary


def _parse_rational(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{flag} {text!r} is not a rational number") from exc


def cmd_scan(args) -> tuple[dict, int, str, dict]:
    from .search import SearchConfig, alpha_frontier

    if args.total_n is None:
        raise GraphError("frontier scan needs --total-n")
    alphas = [_parse_rational(a, "--alphas") for a in args.alphas.split(",") if a.strip()]
    cfg = SearchConfig(seed=args.seed, budget=args.budget)
    table = alpha_frontier(args.total_n, alphas, cfg=cfg, workers=args.workers)
    params = {"total_n": args.total_n, "alphas": [str(a) for a in alphas]}
    return table, _EXIT_OK, dumps_canonical(params), {"rows": len(table["rows"])}


def _add_run_options(sub):
    """Options read by both search and scan."""
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--budget", type=int, default=_UNBOUNDED)
    sub.add_argument("--workers", type=int, default=1, help="parallel workers")


def _gen_options(gen):
    gen.set_defaults(run=cmd_gen)
    gen.add_argument("variant", choices=list(GEN_VARIANTS))
    for key in _GEN_DEFAULTS:  # absent unless given, so cmd_gen can tell
        gen.add_argument(f"--{key}", type=int, default=_ABSENT)
    gen.add_argument("--out", help="also write the bare graph JSON here")


def _analyze_options(ana):
    ana.set_defaults(run=cmd_analyze)
    ana.add_argument("file")
    ana.add_argument(
        "--check",
        required=True,
        choices=[*sorted(THEOREMS), "stability", "mainlemma", "corollary"],
    )
    ana.add_argument("--r", type=int, default=None, help="colors (default: from file)")
    ana.add_argument("--color", type=int, default=_ABSENT, help="class for per-class reports")
    ana.add_argument("--variant", default=_ABSENT, choices=["general", "seven-eighths"])


def _search_options(sea):
    sea.set_defaults(run=cmd_search)
    sea.add_argument(
        "--mode", required=True, choices=["minmax", "below", "verify", "random"]
    )
    sea.add_argument("--host", help="graph file or gen:<spec>")
    sea.add_argument("--target", default=_ABSENT, help="rational target like 4 or 7/2")
    sea.add_argument("--check", default=_ABSENT, choices=sorted(THEOREMS))
    sea.add_argument("--r", type=int, default=2, help="number of colors")
    _add_run_options(sea)


def _scan_options(scan):
    scan.set_defaults(run=cmd_scan)
    scan.add_argument("--total-n", type=int, default=None, dest="total_n")
    scan.add_argument("--alphas", default="", help="comma-separated rationals")
    _add_run_options(scan)


# each subcommand's (help, options), in the order --help lists them; the
# options function also sets the command's run, looked up at each build
_SUBCOMMANDS = {
    "gen": ("emit a construction with its certificate", _gen_options),
    "analyze": ("run one theorem check on a graph file", _analyze_options),
    "search": ("adversarial search over colorings", _search_options),
    "scan": ("degree-slack frontier scan", _scan_options),
}


def _subcommands(argv) -> tuple[str, ...]:
    """The subparsers to build for ``argv``: only the subcommand it runs when
    one follows at most the ``--manifest`` option and no ``-h``/``--help``
    is given, since then the parse, its usage and its errors read no other;
    else all, for the top-level help and errors."""
    rest = argv
    if rest[:1] == ["--manifest"]:
        rest = rest[2:]
    elif rest[:1] and rest[0].startswith("--manifest="):
        rest = rest[1:]
    if rest[:1] and rest[0] in _SUBCOMMANDS and "-h" not in argv and "--help" not in argv:
        return (rest[0],)
    return tuple(_SUBCOMMANDS)


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of the one ``argv`` runs
    (``_subcommands``), with the same usage and messages."""
    parser = argparse.ArgumentParser(
        prog="monocomp",
        description="Monochromatic components of r-edge-colored bipartite graphs:"
        " generators, theorem checkers, adversarial search.",
    )
    parser.add_argument(
        "--manifest",
        default="mono-manifest.json",
        help="run manifest path (use /dev/null to discard)",
    )
    names = _subcommands(list(argv))
    # one subparser still puts every name in the usage; the errors that
    # name the argument "command" come only from a full build
    metavar = "{" + ",".join(_SUBCOMMANDS) + "}" if len(names) == 1 else None
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        text, add_options = _SUBCOMMANDS[name]
        sub = subs.add_parser(name, help=text)
        # accepted after the subcommand too; only overrides when given
        sub.add_argument("--manifest", default=_ABSENT, help=argparse.SUPPRESS)
        add_options(sub)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser(argv).parse_args(argv)
    started = time.perf_counter()
    try:
        if getattr(args, "workers", 1) < 1:
            raise ValueError(f"--workers must be >= 1, not {args.workers}")
        doc, code, source, summary = args.run(args)
        text = dumps_canonical(doc)
    except (GraphError, InvalidSpec, PreconditionViolated, ValueError, OSError) as exc:
        # ValueError covers json.JSONDecodeError
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return _EXIT_INPUT
    except Exception as exc:  # a defect: exit 1 would read as a counterexample
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _EXIT_INTERNAL
    try:
        sys.stdout.write(text)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left before the verdict reached it, which exit 1 would
        # report as a counterexample; devnull takes the flush at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return _EXIT_INPUT
    elapsed = time.perf_counter() - started
    summary = {**summary, "exit_code": code}
    seed = getattr(args, "seed", None)  # gen and analyze take no seed
    try:
        _write_manifest(args.manifest, argv, source, seed, summary, elapsed)
    except OSError as exc:
        print(f"warning: could not write manifest: {exc}", file=sys.stderr)
    return code
