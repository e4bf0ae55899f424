import ast
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monocomp import (
    check_instance,
    coloring_from_triples,
    complete_minus_circulant,
    dumps_canonical,
    graph_json,
    lower_bound_construction,
    parse_graph_json,
)
from monocomp import THEOREMS, cli, search
from monocomp.cli import main

import oracles


def run_cli(args, tmp_path, check=False):
    cmd = [sys.executable, "-m", "monocomp", "--manifest", str(tmp_path / "manifest.json")]
    cmd += [str(a) for a in args]
    return subprocess.run(cmd, capture_output=True, text=True, check=check)


def run_search_in_256_mib(tmp_path, args):
    """``monocomp search`` in a child process whose address space is capped
    at 256 MiB."""
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))\n"
        "from monocomp.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    argv = ["--manifest", tmp_path / "manifest.json", "search", *args]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        capture_output=True, text=True, timeout=60, env=env,
    )


def write_block_colored_k44mm(path):
    host = complete_minus_circulant(4, 4, 1)
    col = coloring_from_triples(
        4, 4, 2, [(x, y, ((x // 2) + (y // 2)) % 2) for x, y in host.edges()]
    )
    path.write_text(dumps_canonical(graph_json(host, col)))


class TestGen:
    def test_lower_bound(self, tmp_path):
        res = run_cli(["gen", "lower-bound", "--r", 2, "--t1", 1, "--t2", 1], tmp_path)
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["certificate"]["largest_component"] == 2
        assert doc["graph"]["m"] == 3 and doc["graph"]["r"] == 2

    def test_cyclic_k4(self, tmp_path):
        res = run_cli(["gen", "cyclic", "--k", 4], tmp_path)
        doc = json.loads(res.stdout)
        assert doc["graph"]["r"] == 4 and len(doc["graph"]["edges"]) == 16

    def test_circulant_uncolored(self, tmp_path):
        res = run_cli(["gen", "circulant", "--m", 8, "--n", 8, "--d", 2], tmp_path)
        doc = json.loads(res.stdout)
        assert "r" not in doc["graph"]
        assert doc["certificate"]["delta_xy"] == 6

    def test_out_file_usable(self, tmp_path):
        out = tmp_path / "graph.json"
        res = run_cli(
            ["gen", "double-star-gap", "--r", 2, "--t1", 2, "--t2", 3, "--out", out],
            tmp_path,
        )
        assert res.returncode == 0
        data = json.loads(out.read_text())
        assert data["m"] == 4 and data["n"] == 6

    def test_invalid_spec_exit_2(self, tmp_path):
        res = run_cli(["gen", "double-star-gap", "--r", 2, "--t1", 1, "--t2", 3], tmp_path)
        assert res.returncode == 2


class TestAnalyze:
    def test_r2_block_coloring(self, tmp_path):
        f = tmp_path / "g.json"
        write_block_colored_k44mm(f)
        res = run_cli(["analyze", f, "--check", "r2"], tmp_path)
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["applicable"] and doc["holds"]
        assert doc["witness"]["order"] == 4

    def test_stability_on_class(self, tmp_path):
        f = tmp_path / "g.json"
        write_block_colored_k44mm(f)
        res = run_cli(["analyze", f, "--check", "stability", "--color", 0], tmp_path)
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["case_i"] or doc["case_ii"]

    def test_mainlemma_report(self, tmp_path):
        f = tmp_path / "g.json"
        write_block_colored_k44mm(f)
        res = run_cli(["analyze", f, "--check", "mainlemma", "--color", 1], tmp_path)
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert "flags" in doc and "components" in doc

    def test_invalid_file_exit_2(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        res = run_cli(["analyze", f, "--check", "additive"], tmp_path)
        assert res.returncode == 2

    def test_missing_file_exit_2(self, tmp_path):
        res = run_cli(["analyze", tmp_path / "nope.json", "--check", "r2"], tmp_path)
        assert res.returncode == 2

    @pytest.mark.parametrize("check", ["r2", "additive"])
    def test_two_color_check_refuses_other_r(self, tmp_path, check):
        # --r is read by every registry check, not only by the general-r ones
        f = tmp_path / "g.json"
        write_block_colored_k44mm(f)
        res = run_cli(["analyze", f, "--check", check, "--r", 3], tmp_path)
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == "error: this check is for exactly 2 colors\n"

    @pytest.mark.parametrize(
        "check,message",
        [
            ("mainlemma", "need r >= 1"),
            ("stability", "need r >= 1"),
            ("r2", "this check is for exactly 2 colors"),
            ("conjecture", "need r >= 2"),
            ("corollary", "corollaries need r >= 3"),
        ],
    )
    def test_r_zero_is_refused(self, tmp_path, check, message):
        # --r 0 is a value like --r -1, not "the file's r"
        f = tmp_path / "g.json"
        if check == "corollary":
            f.write_text(json.dumps({"n": 4, "r": 3, "edges": [[0, 1, 0], [1, 2, 1], [2, 3, 2]]}))
        else:
            f.write_text(dumps_canonical(graph_json(*lower_bound_construction(2, 2, 2))))
        res = run_cli(["analyze", f, "--check", check, "--r", 0], tmp_path)
        assert (res.returncode, res.stdout, res.stderr) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("name", sorted(THEOREMS))
    def test_every_registry_theorem_is_one_check(self, tmp_path, name, capsys):
        # both subcommands accept each registry name, and analyze prints
        # exactly the verdict of check_instance
        f = tmp_path / "g.json"
        write_block_colored_k44mm(f)
        parser = cli.build_parser()
        assert parser.parse_args(["search", "--mode", "verify", "--check", name]).check == name
        host, col = parse_graph_json(json.loads(f.read_text()))
        want = check_instance(THEOREMS[name], host, col, 2)
        code = main(["--manifest", os.devnull, "analyze", str(f), "--check", name])
        assert code == (0 if not want.applicable or want.holds else 1)
        assert capsys.readouterr().out == dumps_canonical(want.to_json_dict()) + "\n"

    def test_corollary_general_input(self, tmp_path):
        f = tmp_path / "gg.json"
        edges = sorted(
            [u, v, 0] for u in range(6) for v in range(u + 1, 6)
        )
        f.write_text(json.dumps({"n": 6, "r": 3, "edges": edges}))
        res = run_cli(["analyze", f, "--check", "corollary", "--variant", "seven-eighths"], tmp_path)
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["holds"]


class TestSearch:
    def test_minmax_k44(self, tmp_path):
        res = run_cli(
            ["search", "--mode", "minmax", "--host", "gen:complete:m=4,n=4", "--r", 2],
            tmp_path,
        )
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["kind"] == "MinMaxValue" and doc["value"] == 4

    def test_verify_r2(self, tmp_path):
        f = tmp_path / "host.json"
        host = complete_minus_circulant(4, 4, 1)
        f.write_text(dumps_canonical(graph_json(host)))
        res = run_cli(
            ["search", "--mode", "verify", "--check", "r2", "--host", f, "--r", 2],
            tmp_path,
        )
        assert res.returncode == 0
        assert json.loads(res.stdout)["kind"] == "AllSatisfy"

    def test_below_counterexample_exit_1(self, tmp_path):
        res = run_cli(
            [
                "search", "--mode", "below", "--host", "gen:complete:m=4,n=4",
                "--r", 2, "--target", 5,
            ],
            tmp_path,
        )
        assert res.returncode == 1
        assert json.loads(res.stdout)["kind"] == "Counterexample"

    def test_budget_exhausted_exit_3(self, tmp_path):
        res = run_cli(
            [
                "search", "--mode", "below", "--host", "gen:complete:m=4,n=4",
                "--r", 2, "--target", 4, "--budget", 5,
            ],
            tmp_path,
        )
        assert res.returncode == 3

    def test_prefix_phase_stops_at_budget(self, tmp_path, monkeypatch, capsys):
        # 2^29 prefixes at a forced depth of 30: the prefix walk itself
        # stops at node 11 (no trial walk, which would decide it first)
        monkeypatch.setattr(search, "_TRIAL_NODES", 0)
        monkeypatch.setattr(search, "_prefix_depth", lambda *_: 30)
        code = main([
            "--manifest", str(tmp_path / "manifest.json"), "search", "--mode", "below",
            "--host", "gen:complete:m=6,n=6", "--target", "13", "--budget", "10",
            "--workers", "2",
        ])
        out, err = capsys.readouterr()
        assert (code, err) == (3, "")
        out = json.loads(out)
        assert (out["kind"], out["examined"]) == ("BudgetExhausted", 11)

    @pytest.mark.parametrize(
        "args",
        [
            ["--mode", "minmax", "--host", "gen:complete:m=2,n=2", "--r", 100_000_000],
            [
                "--mode", "random", "--host", "gen:complete:m=4,n=4", "--r", 100_000_000,
                "--target", 5, "--budget", 10,
            ],
        ],
    )
    def test_out_of_memory_exit_2(self, tmp_path, args):
        # per-color lists for 10^8 colors do not fit in 256 MiB of address
        # space: one error line and exit 2, not a traceback and the
        # counterexample code.  Min-max fills union-find lists per color;
        # the sampler's check holds no per-color list, but its first
        # sample is a counterexample, and the witness coloring keeps one
        # class slot per color (the sampler gets a target, since gy1's own,
        # 8/10^8, is below 2 and rejected before any sample is drawn)
        res = run_search_in_256_mib(tmp_path, args)
        assert (res.returncode, res.stdout, res.stderr) == (2, "", "error: out of memory\n")

    def test_sampler_memory_does_not_grow_with_r(self, tmp_path):
        # 3,000 samples (two blocks) of K_{4,4} at r = 10^8 in 256 MiB: the
        # check holds no per-color list.  Target 2 holds on a sample iff
        # some color has an edge, so every sample of the oracle stream
        # holds and no witness is built
        args = ["--mode", "random", "--host", "gen:complete:m=4,n=4", "--r", 100_000_000,
                "--target", 2, "--budget", 3000]
        res = run_search_in_256_mib(tmp_path, args)
        assert (res.returncode, res.stderr) == (0, "")
        stream = oracles.sample_colors(0, 0, 16, 100_000_000, 2048)
        stream += oracles.sample_colors(0, 1, 16, 100_000_000, 952)
        assert len(stream) == 3000 and all(stream)
        out = json.loads(res.stdout)
        assert (out["kind"], out["examined"], out["witness"]) == ("AllSatisfy", 3000, None)

    def test_split_prefixes_are_streamed(self, tmp_path, monkeypatch, capsys):
        # 2^20 split prefixes at a forced depth of 20: streamed, the prefix
        # walk stops with the first hit after a few prefixes, and examined
        # is the single walk's 36
        walk, prefixes = search._walk_below, []

        def recording(ends, weights, r, rule, prefix, stop, *rest):
            for item in walk(ends, weights, r, rule, prefix, stop, *rest):
                if stop < len(ends):  # the prefix walk, not a task
                    prefixes.append(item)
                yield item

        monkeypatch.setattr(search, "_walk_below", recording)
        monkeypatch.setattr(search, "_TRIAL_NODES", 0)  # the split walk, not the trial
        monkeypatch.setattr(search, "_prefix_depth", lambda *_: 20)
        for workers in ("1", "2"):
            code = main([
                "--manifest", str(tmp_path / "manifest.json"), "search", "--mode", "below",
                "--host", "gen:complete:m=6,n=6", "--target", "13", "--workers", workers,
            ])
            out, err = capsys.readouterr()
            assert (code, err) == (1, ""), workers
            out = json.loads(out)
            assert (out["kind"], out["examined"]) == ("Counterexample", 36)
            assert {c for _, _, c in out["witness"]["edges"]} == {0}
        assert len(prefixes) < 20

    def test_precondition_exit_2(self, tmp_path):
        res = run_cli(
            [
                "search", "--mode", "verify", "--check", "r2",
                "--host", "gen:lower-bound:r=2,t1=1,t2=1", "--r", 2,
            ],
            tmp_path,
        )
        assert res.returncode == 2

    def test_random_deterministic(self, tmp_path):
        args = [
            "search", "--mode", "random", "--check", "additive",
            "--host", "gen:circulant:m=8,n=8,d=2", "--r", 2,
            "--budget", 3000, "--seed", 42,
        ]
        a = run_cli(args, tmp_path)
        b = run_cli(args, tmp_path)
        assert a.returncode == 0 and a.stdout == b.stdout


class TestBadInput:
    """Each bad input exits 2 with one 'error:' line and no traceback."""

    @pytest.mark.parametrize(
        "args",
        [
            ["search", "--mode", "below", "--host", "gen:complete:m=3,n=3", "--target", "1/0"],
            ["search", "--mode", "verify", "--host", "gen:complete:m=3,n=3", "--target", "1/0"],
            ["scan", "--total-n", 16, "--alphas", "1/8,1/0"],
            ["search", "--mode", "verify", "--host", "gen:complete:m=2,n=2", "--r", 0],
            ["search", "--mode", "random", "--host", "gen:complete:m=2,n=2", "--r", 0],
            ["scan", "--total-n", 0, "--alphas", "1/8"],
            ["search", "--mode", "minmax", "--host", "gen:complete:m=2,n=2", "--workers", -3],
            ["search", "--mode", "minmax", "--host", "gen:complete:m=2,n=2", "--r", 0],
            ["search", "--mode", "minmax", "--host", "gen:complete:m=2,n=2", "--r", -1],
            ["search", "--mode", "random", "--host", "gen:complete:m=2,n=2", "--target", -1,
             "--budget", 10],
            ["analyze", "gen:complete:m=3,n=3", "--check", "stability", "--r", -1],
            ["analyze", "gen:complete:m=3,n=3", "--check", "mainlemma", "--r", -3],
            # a parameter the variant does not read
            ["search", "--mode", "minmax", "--host", "gen:complete:m=2,n=2,d=1"],
            ["search", "--mode", "minmax", "--host", "gen:circulant:m=2,n=2,r=5"],
            # an uncolored graph is one class, color 0
            ["analyze", "gen:complete:m=3,n=3", "--check", "stability", "--color", 5],
            ["analyze", "gen:complete:m=3,n=3", "--check", "mainlemma", "--color", 5],
            # a parameter the variant reads but the spec omits
            ["search", "--mode", "minmax", "--host", "gen:circulant:m=3,n=3"],
            ["search", "--mode", "minmax", "--host", "gen:lower-bound:r=2"],
            # no --target: the conjecture's own target (m + n)/r = 1/50 is below 2
            ["search", "--mode", "verify", "--check", "conjecture",
             "--host", "gen:complete:m=3,n=3", "--r", 300],
            ["search", "--mode", "random", "--check", "conjecture",
             "--host", "gen:complete:m=3,n=3", "--r", 300, "--budget", 10],
        ],
    )
    def test_exit_2_one_line(self, tmp_path, args):
        res = run_cli(args, tmp_path)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "doc",
        [
            {"m": 2, "n": 2, "edges": [[0, True], [0.9, 1]]},
            {"m": 2.0, "n": 2, "edges": [[0, 1]]},
            {"m": 2, "n": 2, "r": True, "edges": [[0, 1, 0]]},
            {"m": 2, "n": 2, "r": 2, "edges": [[0, 1, "1"]]},
        ],
    )
    def test_non_integer_graph_json(self, tmp_path, doc):
        f = tmp_path / "g.json"
        f.write_text(json.dumps(doc))
        res = run_cli(["analyze", f, "--check", "stability"], tmp_path)
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert "given twice" not in res.stderr

    def test_non_integer_general_json(self, tmp_path):
        f = tmp_path / "gg.json"
        f.write_text(json.dumps({"n": 6, "r": 3, "edges": [[0, 1, False]]}))
        res = run_cli(["analyze", f, "--check", "corollary"], tmp_path)
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1


class TestInternalError:
    def test_unexpected_exception_exit_4(self, tmp_path, monkeypatch, capsys):
        # a defect inside a subcommand is not a verdict: exit 4 with one
        # error line and no traceback, never 1, the counterexample code
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_search", boom)
        code = main(["--manifest", str(tmp_path / "manifest.json"), "search", "--mode", "random"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (4, "", "error: internal error: RuntimeError: boom\n")


class TestDeepHosts:
    """Hosts with more edges than Python's recursion limit."""

    def test_verify_additive_runs_to_budget(self, tmp_path):
        res = run_cli(
            ["search", "--mode", "verify", "--check", "additive",
             "--host", "gen:complete:m=40,n=40", "--budget", 1000],
            tmp_path,
        )
        assert "Traceback" not in res.stderr
        assert res.returncode == 3
        assert json.loads(res.stdout)["examined"] == 1001

    def test_below_finds_witness(self, tmp_path):
        res = run_cli(
            ["search", "--mode", "below", "--host", "gen:complete:m=30,n=40",
             "--target", 60, "--budget", 100000],
            tmp_path,
        )
        assert "Traceback" not in res.stderr
        assert res.returncode == 1
        witness = json.loads(res.stdout)["witness"]
        edges = [(x, y) for x, y, _ in witness["edges"]]
        colors = [c for _, _, c in witness["edges"]]
        assert oracles.max_mono_order(30, 40, edges, colors, 2) < 60


# gen hosts with at most 9 edges, two of them colored
FUZZ_HOSTS = [
    "gen:complete:m=1,n=1",
    "gen:complete:m=2,n=3",
    "gen:complete:m=3,n=3",
    "gen:circulant:m=3,n=4,d=2",
    "gen:circulant:m=4,n=4,d=2",
    "gen:lower-bound:r=2,t1=1,t2=1",
    "gen:cyclic:k=3",
]


class TestArgvFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        mode=st.sampled_from(["minmax", "below", "verify", "random"]),
        check=st.sampled_from(sorted(THEOREMS)),
        host=st.sampled_from(FUZZ_HOSTS),
        r=st.integers(-1, 4),
        target=st.one_of(st.none(), st.sampled_from(["1/0", "x", "-1", "0", "2", "7/2", "5"])),
        budget=st.integers(-1, 20_000),
        workers=st.sampled_from(["1", "2"]),
    )
    def test_search_exits_with_a_verdict_or_one_error(
        self, mode, check, host, r, target, budget, workers
    ):
        # every search argv ends in a documented exit code, never in a
        # traceback or the internal-error code 4
        argv = [
            "--manifest", os.devnull, "search", "--mode", mode, "--check", check,
            "--host", host, "--r", str(r), "--budget", str(budget), "--workers", workers,
        ]
        argv += ["--target", target] if target is not None else []
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in {0, 1, 2, 3}, (argv, err.getvalue())
        assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue()


class TestSubcommandFlags:
    """Each subcommand accepts only the flags it reads."""

    @pytest.mark.parametrize(
        "args",
        [
            ["scan", "--total-n", "16", "--alphas", "1/8", "--check", "additive"],
            ["scan", "--total-n", "16", "--alphas", "1/8", "--target", "99"],
            ["scan", "--total-n", "16", "--alphas", "1/8", "--no-canonicalize"],
            ["search", "--mode", "minmax", "--host", "gen:complete:m=2,n=2", "--total-n", "16"],
            ["search", "--mode", "minmax", "--host", "gen:complete:m=2,n=2", "--alphas", "1/8"],
            ["search", "--mode", "frontier", "--total-n", "16", "--alphas", "1/8"],
            # the split depth is no option
            ["search", "--mode", "minmax", "--host", "gen:complete:m=2,n=2", "--split-depth", "2"],
            ["scan", "--total-n", "16", "--alphas", "1/8", "--budget", "10", "--split-depth", "2"],
            # the scan searches 2-colorings only, and the walk always breaks symmetry
            ["scan", "--total-n", "16", "--alphas", "1/8", "--r", "3", "--budget", "100"],
            ["scan", "--total-n", "16", "--alphas", "1/8", "--r", "2"],
            ["search", "--mode", "minmax", "--host", "gen:complete:m=2,n=2", "--no-canonicalize"],
        ],
    )
    def test_unread_flag_rejected(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--manifest", os.devnull, *args])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["gen", "complete", "--m", "2", "--n", "2", "--d", "1"], "complete takes m, n, not d"),
            (["gen", "cyclic", "--k", "2", "--r", "5"], "cyclic takes k, not r"),
            (
                ["gen", "circulant", "--m", "4", "--n", "4", "--d", "1", "--t1", "4"],
                "circulant takes m, n, d, not t1",
            ),
        ],
    )
    def test_unread_gen_option_rejected(self, args, message, capsys):
        # a gen option its variant does not read exits 2 with the message
        # of the same key in a gen: spec
        assert main(["--manifest", os.devnull, *args]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "args, message",
        [
            (
                ["search", "--mode", "below", "--check", "additive", "--target", "5",
                 "--host", "gen:complete:m=3,n=3"],
                "--mode below does not read --check",
            ),
            (
                ["search", "--mode", "minmax", "--check", "r2", "--host", "gen:complete:m=3,n=3"],
                "--mode minmax does not read --check",
            ),
            (
                ["search", "--mode", "minmax", "--target", "1", "--host", "gen:complete:m=3,n=3"],
                "--mode minmax does not read --target",
            ),
            (
                ["analyze", "gen:lower-bound:r=2,t1=1,t2=1", "--check", "r2", "--color", "1"],
                "--check r2 does not read --color",
            ),
            (
                ["analyze", "gen:lower-bound:r=2,t1=1,t2=1", "--check", "r2",
                 "--variant", "general"],
                "--check r2 does not read --variant",
            ),
            (
                ["analyze", "gen:lower-bound:r=2,t1=1,t2=1", "--check", "stability",
                 "--variant", "general"],
                "--check stability does not read --variant",
            ),
            (
                ["search", "--mode", "verify", "--check", "r2", "--host", "gen:complete:m=3,n=3",
                 "--target", "99"],
                "--check r2 does not read --target",
            ),
            (
                ["search", "--mode", "random", "--check", "additive", "--target", "5",
                 "--host", "gen:complete:m=3,n=3", "--budget", "10"],
                "--check additive does not read --target",
            ),
        ],
    )
    def test_option_unread_under_mode_or_check_rejected(self, args, message, capsys):
        # --target is read by below, and by verify and random under gy1,
        # --check by verify and random, --color by stability and mainlemma,
        # --variant by corollary; anywhere else the option exits 2 instead
        # of being dropped
        assert main(["--manifest", os.devnull, *args]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestParserTexts:
    """``main`` builds one subparser when argv runs one subcommand and asks
    for no help, else all four; either way it prints what the parser of
    all four printed (``tests/parser_texts.json``: stdout, stderr and exit
    code at 80 columns, as recorded with the argparse of Python 3.11)."""

    TEXTS = json.loads((Path(__file__).parent / "parser_texts.json").read_text())

    @staticmethod
    def _run(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, *capsys.readouterr()

    @pytest.mark.parametrize("entry", TEXTS, ids=lambda e: " ".join(e["argv"]) or "none")
    def test_texts_are_those_of_the_full_parser(self, monkeypatch, capsys, entry):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [os.devnull if a == "{devnull}" else a for a in entry["argv"]]
        got = self._run(argv, capsys)
        monkeypatch.setattr(cli, "_subcommands", lambda argv: tuple(cli._SUBCOMMANDS))
        assert got == self._run(argv, capsys)
        if sys.version_info[:2] in ((3, 10), (3, 11)):  # later argparse words some texts anew
            assert got == (entry["exit"], entry["stdout"], entry["stderr"])

    @pytest.mark.parametrize(
        "argv, built",
        [
            (["search", "--mode", "minmax"], ["search"]),
            (["--manifest", "m.json", "gen", "cyclic"], ["gen"]),
            (["--manifest=m.json", "scan"], ["scan"]),
            (["analyze", "--help"], ["gen", "analyze", "search", "scan"]),
            (["--manifest", "m.json", "-h", "gen"], ["gen", "analyze", "search", "scan"]),
            (["--man", "m.json", "gen"], ["gen", "analyze", "search", "scan"]),
            ([], ["gen", "analyze", "search", "scan"]),
        ],
    )
    def test_one_subparser_when_one_runs(self, argv, built):
        assert list(cli._subcommands(argv)) == built


class TestColdStart:
    @staticmethod
    def _loaded(*packages, module="monocomp.cli"):
        """The modules of ``packages`` that ``import <module>`` loads in a
        fresh interpreter, as printed there."""
        code = (
            f"import sys, {module}\n"
            f"print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        res = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        return res.stdout

    def test_cli_import_leaves_the_pool_out(self):
        # the process pool is imported only by a search with more than one
        # worker; every other command would pay for it at start-up
        assert self._loaded("concurrent", "multiprocessing") == "[]\n"

    def test_cli_import_leaves_hashlib_out(self):
        # only the manifest's input digest needs it, once the command has run
        assert self._loaded("hashlib", "_hashlib") == "[]\n"

    def test_tiny_split_walk_loads_no_pool_and_no_openssl(self, tmp_path):
        # K_{4,4} at target 5 is decided within the trial walk's cap, and
        # the manifest's digest takes CPython's own sha256
        code = (
            "import sys\n"
            "from monocomp.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, sorted(m for m in ('_hashlib', 'concurrent.futures.process')"
            " if m in sys.modules), file=sys.stderr)\n"
        )
        argv = ["--manifest", str(tmp_path / "manifest.json"), "search", "--mode", "below",
                "--host", "gen:complete:m=4,n=4", "--target", "5", "--workers", "2"]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        res = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env
        )
        assert res.stderr == "1 []\n"
        assert json.loads((tmp_path / "manifest.json").read_text())["input_digest"]

    def test_cli_import_leaves_dataclasses_out(self):
        # the result classes are plain: ``dataclasses`` would load ``inspect``
        # and ``ast``, and ``Record`` writes each constructor without either
        assert self._loaded("dataclasses", "inspect", "ast") == "[]\n"

    def test_package_import_loads_no_submodule(self):
        # every public name is lazy: a script pays only for what it uses
        assert self._loaded("monocomp", module="monocomp") == "['monocomp']\n"

    @pytest.mark.parametrize(
        "args, needs, skips",
        [
            (["gen", "lower-bound"], "constructions", ("search", "analysis")),
            (["analyze", "{file}", "--check", "r2"], "analysis", ("search",)),
            (["analyze", "{file}", "--check", "stability"], "analysis", ("search",)),
            (
                ["analyze", "gen:lower-bound:r=2,t1=2,t2=2", "--check", "conjecture"],
                "analysis",
                ("search",),
            ),
            (
                ["search", "--mode", "minmax", "--host", "gen:complete:m=3,n=3"],
                "search",
                ("analysis",),
            ),
            (
                ["search", "--mode", "verify", "--check", "r2", "--host", "{file}"],
                "search",
                ("analysis",),
            ),
            (
                ["scan", "--total-n", "16", "--alphas", "1/8", "--budget", "100"],
                "search",
                ("analysis",),
            ),
        ],
        ids=[
            "gen", "analyze-file-r2", "analyze-file-stability", "analyze-gen-conjecture",
            "search-minmax", "search-verify", "scan",
        ],
    )
    def test_command_loads_only_what_it_runs(self, tmp_path, args, needs, skips):
        # ``python -m monocomp`` in a fresh interpreter, which prints the
        # monocomp modules in sys.modules, and dataclasses, inspect and ast
        # if loaded, to stderr at exit
        f = tmp_path / "g.json"
        write_block_colored_k44mm(f)
        code = (
            "import atexit, runpy, sys\n"
            "atexit.register(lambda: print(sorted(m for m in sys.modules"
            " if m.startswith('monocomp.') or m in ('dataclasses', 'inspect', 'ast')),"
            " file=sys.stderr))\n"
            "runpy.run_module('monocomp', run_name='__main__', alter_sys=True)\n"
        )
        argv = ["--manifest", str(tmp_path / "manifest.json")]
        argv += [str(f) if a == "{file}" else a for a in args]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        res = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env
        )
        assert res.returncode == 0, res.stderr
        loaded = ast.literal_eval(res.stderr.splitlines()[-1])
        assert f"monocomp.{needs}" in loaded
        assert not {f"monocomp.{m}" for m in skips} & set(loaded)
        assert not {"dataclasses", "inspect", "ast"} & set(loaded)


class TestClosedStdout:
    def test_closed_stdout_exit_2(self, tmp_path):
        # a reader that leaves early (``| head``) sees no verdict, so this
        # is not exit 1, the counterexample code; 97,736 bytes of output
        # overrun the 64 KiB pipe buffer
        cmd = [
            sys.executable, "-m", "monocomp", "--manifest", str(tmp_path / "manifest.json"),
            "gen", "lower-bound", "--r", "2", "--t1", "40", "--t2", "40",
        ]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        with subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env
        ) as proc:
            assert proc.stdout.read(1) == b"{"
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        assert "Traceback" not in err
        assert (code, err) == (2, "error: stdout was closed before the output was written\n")
        assert not (tmp_path / "manifest.json").exists()  # no outcome was delivered


class TestScan:
    def test_missing_host_exit_2(self, tmp_path):
        res = run_cli(["search", "--mode", "minmax", "--r", 2], tmp_path)
        assert res.returncode == 2

    def test_scan_row(self, tmp_path):
        res = run_cli(
            ["scan", "--total-n", 16, "--alphas", "1/8", "--budget", 1000, "--seed", 3],
            tmp_path,
        )
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["exploratory"] is True
        assert doc["rows"][0]["alpha"] == "1/8"


class TestManifest:
    def test_manifest_written_and_output_reproducible(self, tmp_path):
        args = [
            "search", "--mode", "minmax", "--host", "gen:complete:m=3,n=3", "--r", 2,
        ]
        a = run_cli(args, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for key in ("argv", "input_digest", "seed", "version", "timings", "outcome"):
            assert key in manifest
        assert manifest["input_digest"].startswith("sha256:")
        b = run_cli(args, tmp_path)
        assert a.stdout == b.stdout

    @pytest.mark.parametrize("source", ["gen", "file", "gen-without-builtin-sha"])
    def test_input_digest_is_sha256_of_the_canonical_input(self, tmp_path, monkeypatch, source):
        # the digest takes CPython's own sha256, or hashlib's on a Python without it
        if source.endswith("without-builtin-sha"):
            for name in ("_sha2", "_sha256"):
                monkeypatch.setitem(sys.modules, name, None)  # import raises ImportError
        host, col = lower_bound_construction(2, 1, 1)
        canonical = dumps_canonical(graph_json(host, col))
        spec = "gen:lower-bound:r=2,t1=1,t2=1"
        if source == "file":
            spec = tmp_path / "lb.json"
            spec.write_text(json.dumps(graph_json(host, col), indent=2))  # not canonical bytes
        manifest = tmp_path / "manifest.json"
        assert main(["--manifest", str(manifest), "analyze", str(spec), "--check", "r2"]) == 0
        want = "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()
        assert json.loads(manifest.read_text())["input_digest"] == want
