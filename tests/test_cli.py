import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monocomp import complete_minus_circulant, coloring_from_triples, dumps_canonical, graph_json
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
        # stops at node 11
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
        # per-color union-find lists for 10^8 colors do not fit in 256 MiB
        # of address space: one error line and exit 2, not a traceback and
        # the counterexample code (the sampler gets a target, since gy1's
        # own, 8/10^8, is below 2 and rejected before any list is built)
        res = run_search_in_256_mib(tmp_path, args)
        assert (res.returncode, res.stdout, res.stderr) == (2, "", "error: out of memory\n")

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


class TestColdStart:
    @staticmethod
    def _loaded(*packages):
        """The modules of ``packages`` that ``import monocomp.cli`` loads in
        a fresh interpreter, as printed there."""
        code = (
            "import sys, monocomp.cli\n"
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
