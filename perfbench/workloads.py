"""The five benchmark workloads: inputs, the calls of one pass, and checks.

Each workload builds its inputs from the benchmark seed in ``setup`` (which
may run several times), makes its public calls through a Recorder in
``run_pass``, and checks the results.  Results of deterministic calls are
compared with fingerprints pinned from the seed commit in reference.json;
results that depend on the seeded inputs are checked against independent
recomputations (``tests/oracles.py`` and the plain loops below) on the first
pass and must repeat exactly on later passes.  ``examined`` counts and seeded
sample streams are never pinned.

``smoke`` selects small instances for the benchmark's own smoke test; its
numbers are not reported anywhere.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import monocomp as mc


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def strip_examined(obj):
    if isinstance(obj, dict):
        return {k: strip_examined(v) for k, v in obj.items() if k != "examined"}
    if isinstance(obj, list):
        return [strip_examined(v) for v in obj]
    return obj


def fingerprint(obj):
    """A small JSON value that changes whenever the result does (but never
    with ``examined``)."""
    if isinstance(obj, mc.SearchOutcome):
        witness = digest(obj.witness.to_json_dict()) if obj.witness else None
        return {"kind": obj.kind, "value": obj.value, "witness": witness}
    if isinstance(obj, mc.BipartiteGraph):
        h = hashlib.sha256(f"{obj.m},{obj.n},{obj.edge_count}".encode())
        width = (obj.n + 7) // 8
        for row in obj.rows:
            h.update(row.to_bytes(width, "little"))
        return h.hexdigest()[:20]
    if isinstance(obj, mc.EdgeColoring):
        return digest([obj.r] + [fingerprint(c) for c in obj.classes])
    if isinstance(obj, tuple):
        return [fingerprint(o) for o in obj]
    if isinstance(obj, list):
        return digest([o.to_json_dict() if hasattr(o, "to_json_dict") else o for o in obj])
    if isinstance(obj, subprocess.CompletedProcess):
        try:
            out = strip_examined(json.loads(obj.stdout))
        except json.JSONDecodeError:
            out = obj.stdout
        return {"exit": obj.returncode, "stdout": digest(out)}
    if isinstance(obj, dict):
        return digest(strip_examined(obj))
    if hasattr(obj, "to_json_dict"):
        return digest(obj.to_json_dict())
    if dataclasses.is_dataclass(obj):
        return digest(dataclasses.asdict(obj))
    raise TypeError(f"no fingerprint for {type(obj).__name__}")


def median_of(values):
    return statistics.median(values) if values else 0.0


def ratio(a, b):
    return a / b if b else 0.0


class Workload:
    """Shared plumbing; subclasses define setup, run_pass and the checks."""

    name = ""
    dynamic: tuple[str, ...] = ()  # result names checked by code, not pins

    def __init__(self, seed: int, smoke: bool, ctx):
        self.seed = seed
        self.smoke = smoke
        self.ctx = ctx
        self.first: dict[str, object] = {}

    def pinned(self, results) -> dict:
        return {
            name: fingerprint(out)
            for name, out in results.items()
            if not name.startswith(self.dynamic)
        }

    def check_pass(self, results, reference) -> dict[str, bool]:
        """name -> ok for the cheap checks of one pass: pinned results match
        and the other results repeat the first pass's exactly."""
        got = self.pinned(results)
        verdicts = {name: got.get(name) == want for name, want in reference.items()}
        dyn = {n: fingerprint(o) for n, o in results.items() if n.startswith(self.dynamic)}
        if not self.first:
            self.first = dyn
        for name, want in self.first.items():
            verdicts["repeat:" + name] = dyn.get(name) == want
        return verdicts

    def crosscheck(self, results) -> dict[str, bool]:
        """Checks against independent recomputation, made once per
        invocation on the last pass's results, after the timed phase."""
        return {}

    def summary(self, rec) -> dict:
        return {}

    def layer_metrics(self, by_name: dict[str, list[float]], rec) -> dict:
        """Per-layer metrics from the traced call durations (name -> one
        duration per traced pass)."""
        out = {}
        for name, durs in by_name.items():
            out[name + ".s"] = median_of(durs)
            if name.startswith("bigraph.y_degrees."):
                out[name + ".edges_per_s"] = ratio(sum(rec.results[name]), out[name + ".s"])
        return out


# --- exact ---------------------------------------------------------------------

CIRC = "circ10_10_3r2"
EXACT_INSTANCES = [
    ("k44r2", lambda: mc.complete(4, 4), 2),
    ("k33r3", lambda: mc.complete(3, 3), 3),
    ("k88r2", lambda: mc.complete(8, 8), 2),
    ("k89r2", lambda: mc.complete(8, 9), 2),
    ("k57r3", lambda: mc.complete(5, 7), 3),
    ("k67r3", lambda: mc.complete(6, 7), 3),
    ("lb322r3", lambda: mc.lower_bound_construction(3, 2, 2)[0], 3),
    ("dsg223r2", lambda: mc.double_star_gap_construction(2, 2, 3)[0], 2),
    (CIRC, lambda: mc.complete_minus_circulant(10, 10, 3), 2),
]
EXACT_SMOKE_SKIP = {"k57r3", "k67r3", CIRC}
ORACLE_LABELS = ("k33r3", "k44r2", "dsg223r2")


class Exact(Workload):
    """Serial min-max on a ladder of hosts plus the w2 probes t10 and t11."""

    name = "exact"

    def setup(self):
        skip = EXACT_SMOKE_SKIP if self.smoke else set()
        self.instances = [(lb, build(), r) for lb, build, r in EXACT_INSTANCES if lb not in skip]
        self.circ = mc.complete_minus_circulant(10, 10, 3)
        self.probes = (11,) if self.smoke else (10, 11)

    def run_pass(self, rec):
        for label, host, r in self.instances:
            with rec.operation(label):
                rec.call(f"search.minmax.{label}", mc.min_max_mono_component, host, r)
        for t in self.probes:
            for w in (1, 2):
                with rec.operation(f"below.t{t}.w{w}"):
                    rec.call(
                        f"search.below.{CIRC}.t{t}.w{w}",
                        mc.exists_coloring_below, self.circ, 2, t, workers=w,
                    )

    def crosscheck(self, results):
        sys.path.insert(0, str(self.ctx.root / "tests"))
        import oracles

        verdicts = {}
        for label, host, r in self.instances:
            if label not in ORACLE_LABELS:
                continue
            out = results.get(f"search.minmax.{label}")
            ok = out is not None and out.value == oracles.brute_minmax(host, r)
            if ok:
                edges = host.edges()
                colors = [out.witness.color_of(x, y) for x, y in edges]
                ok = oracles.max_mono_order(host.m, host.n, edges, colors, r) == out.value
            verdicts["oracle:" + label] = ok
        return verdicts

    def summary(self, rec):
        return {"nodes_examined": sum(o.examined for o in rec.results.values())}

    def layer_metrics(self, by_name, rec):
        out = {}
        nodes = seconds = 0
        for label, _host, _r in self.instances:
            name = f"search.minmax.{label}"
            out[name + ".nodes"] = rec.results[name].examined
            out[name + ".s"] = median_of(by_name.get(name, []))
            nodes += out[name + ".nodes"]
            seconds += out[name + ".s"]
        out["search.nodes_per_s"] = ratio(nodes, seconds)
        for t in self.probes:
            probe = f"search.below.{CIRC}.t{t}"
            w1 = median_of(by_name.get(probe + ".w1", []))
            w2 = median_of(by_name.get(probe + ".w2", []))
            out.update({probe + ".w1_s": w1, probe + ".w2_s": w2,
                        probe + ".w2_speedup": ratio(w1, w2)})
        return out


# --- sampling ------------------------------------------------------------------

FRONTIER = "search.frontier.n16"


class Sampling(Workload):
    """Seeded random_search on three theorem-backed cases, one exhaustive
    verify by enumeration, and the alpha frontier scan."""

    name = "sampling"
    dynamic = (FRONTIER,)

    def setup(self):
        rng = random.Random(self.seed)
        self.samples = 500 if self.smoke else 10_000
        self.frontier_budget = 512 if self.smoke else 4096
        circ882 = mc.complete_minus_circulant(8, 8, 2)
        self.cases = [
            ("additive-circ8_8_2r2", circ882, 2, mc.AdditiveChecker()),
            ("gy1t8-circ8_8_2r2", circ882, 2,
             mc.ComponentTargetChecker(Fraction(8), require_complete=False)),
            ("gy1-k66r3", mc.complete(6, 6), 3, mc.ComponentTargetChecker()),
        ]
        self.seeds = [rng.randrange(1 << 32) for _ in range(len(self.cases) + 1)]
        self.verify_host = None if self.smoke else mc.complete_minus_circulant(5, 5, 1)

    def run_pass(self, rec):
        for (label, host, r, checker), seed in zip(self.cases, self.seeds):
            cfg = mc.SearchConfig(seed=seed, budget=self.samples)
            with rec.operation(label):
                rec.call(f"search.random.{label}", mc.random_search,
                         host, r, checker=checker, cfg=cfg)
        if self.verify_host is not None:
            with rec.operation("verify"):
                rec.call("search.verify.additive-circ5_5_1r2", mc.exhaustive_verify,
                         self.verify_host, 2, checker=mc.AdditiveChecker())
        cfg = mc.SearchConfig(seed=self.seeds[-1], budget=self.frontier_budget)
        with rec.operation("frontier"):
            rec.call(FRONTIER, mc.alpha_frontier,
                     16, [Fraction(1, 8), Fraction(1, 4)], cfg=cfg)

    def crosscheck(self, results):
        """Hosts meeting the hypothesis must hold; a counterexample reported
        elsewhere must really keep every component below n/2."""
        sys.path.insert(0, str(self.ctx.root / "tests"))
        import oracles

        table = results.get(FRONTIER)
        if table is None:
            return {FRONTIER: False}
        ok = [row["alpha"] for row in table["rows"]] == ["1/8", "1/4"]
        for row in table["rows"]:
            kinds = set()
            for h in row["hosts"]:
                kinds.add(h["kind"])
                if h["kind"] == "Counterexample" and not h["meets_hypothesis"]:
                    host = mc.complete_minus_circulant(h["m"], h["n"], h["d"])
                    w = h["witness"]
                    colors = {(x, y): c for x, y, c in w["edges"]}
                    edges = host.edges()
                    order = oracles.max_mono_order(
                        host.m, host.n, edges, [colors[e] for e in edges], 2)
                    ok = ok and order < 8
                else:
                    ok = ok and h["kind"] == "AllSatisfy"
            verdict = "counterexample" if "Counterexample" in kinds else "no-counterexample-found"
            ok = ok and row["verdict"] == verdict
        shape = [[tuple(h[k] for k in ("m", "n", "d", "edges", "meets_hypothesis", "mode"))
                  for h in row["hosts"]] for row in table["rows"]]
        want = [[(5, 11, 2, 45, True, "random"), (8, 8, 2, 48, True, "random")],
                [(8, 8, 4, 32, False, "random")]]
        return {FRONTIER: ok and shape == want}

    def summary(self, rec):
        """Random samples plus enumerated colorings per second, median over
        passes."""
        names = [n for n in rec.results if n.startswith(("search.random.", "search.verify."))]
        count = sum(rec.results[n].examined for n in names)
        per_pass = zip(*(rec.durations[n] for n in names))
        return {"samples_per_s": statistics.median(ratio(count, sum(d)) for d in per_pass)}

    def layer_metrics(self, by_name, rec):
        out = {FRONTIER + ".s": median_of(by_name.get(FRONTIER, []))}
        for label, *_ in self.cases:
            name = f"search.random.{label}"
            out[name + ".us_per_sample"] = median_of(by_name.get(name, [])) / self.samples * 1e6
        if self.verify_host is not None:
            name = "search.verify.additive-circ5_5_1r2"
            out[name + ".us_per_coloring"] = ratio(
                median_of(by_name.get(name, [])) * 1e6, rec.results[name].examined)
        return out


# --- dense-host ----------------------------------------------------------------

class DenseHost(Workload):
    """The acceptance criterion-9 two-block instance, the lower-bound
    construction lb2_400_200 (m > n) and the double-star-gap construction."""

    name = "dense-host"

    def setup(self):
        k = 256 if self.smoke else 2048
        self.tb = (2 * k + 1, 2 * k + 1,
                   [(1 << k) - 1] * k + [((1 << k) - 1) << k] * k + [0])
        self.lb = (2, 40, 20) if self.smoke else (2, 400, 200)
        self.dsg = (3, 20, 30) if self.smoke else (3, 200, 300)

    def run_pass(self, rec):
        with rec.operation("tb2048"):
            g = rec.call("bigraph.from_rows.tb2048", mc.from_rows, *self.tb)
            rec.call("bigraph.graph_components.tb2048", mc.graph_components, g)
            rec.call("analysis.main_lemma_report.tb2048", mc.main_lemma_report, g, 2)
            rec.call("analysis.stability_report.tb2048", mc.stability_report, g, 2)
        lb = "lb2_400_200"
        with rec.operation(lb):
            host, col = rec.call(f"constructions.lower_bound.{lb}",
                                 mc.lower_bound_construction, *self.lb)
            rec.call(f"bigraph.y_degrees.{lb}", host.y_degrees)
            rec.call(f"bigraph.degree_profile.{lb}", mc.degree_profile, host)
            rec.call(f"bigraph.transpose.{lb}", host.transpose)
            rec.call(f"constructions.certificate.{lb}", mc.construction_certificate, host, col)
            rec.call(f"bigraph.largest_double_star.{lb}", mc.largest_double_star, host, col)
            rec.call(f"analysis.check_r2.{lb}", mc.check_theorem_two_colors, host, col)
            rec.call(f"analysis.check_conjecture.{lb}", mc.check_conjecture_instance, host, col, 2)
            rec.call(f"analysis.check_tetel.{lb}", mc.check_tetel_instance, host, col, 2)
        dsg = "dsg3_200_300"
        with rec.operation(dsg):
            host, col = rec.call(f"constructions.double_star_gap.{dsg}",
                                 mc.double_star_gap_construction, *self.dsg)
            rec.call(f"constructions.certificate.{dsg}", mc.construction_certificate, host, col)


# --- sparse-host ---------------------------------------------------------------

SPARSE = "rand20k"


def _bfs_general(n, triples, r):
    """Largest monochromatic component order of a general graph, plain BFS."""
    best = 0
    for c in range(r):
        adj = {}
        for u, v, col in triples:
            if col == c:
                adj.setdefault(u, []).append(v)
                adj.setdefault(v, []).append(u)
        seen = set()
        for start in adj:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            best = max(best, len(comp))
    return best


class SparseHost(Workload):
    """A seeded random 20000 x 20000 graph with 80k edges through the same
    kernels as dense-host, and a seeded sparse 3-colored general graph
    through both corollary variants."""

    name = "sparse-host"
    dynamic = ("bigraph.", "analysis.")

    def setup(self):
        rng = random.Random(self.seed)
        side, count = (2000, 8000) if self.smoke else (20_000, 80_000)
        edges = set()
        while len(edges) < count:
            edges.add((rng.randrange(side), rng.randrange(side)))
        self.side = side
        self.edges = list(edges)
        n, e = (300, 1200) if self.smoke else (2000, 8000)
        pairs = set()
        while len(pairs) < e:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                pairs.add((min(u, v), max(u, v)))
        # color 2 is rare, so it has no large component and the corollary
        # check goes on to the bipartition reduction
        self.triples = [(u, v, rng.choices((0, 1, 2), (9, 9, 2))[0]) for u, v in sorted(pairs)]
        self.general = mc.general_from_edge_list(n, 3, self.triples)

    def run_pass(self, rec):
        p = "bigraph."
        with rec.operation(SPARSE):
            g = rec.call(f"{p}from_edge_list.{SPARSE}", mc.from_edge_list,
                         self.side, self.side, self.edges)
            rec.call(f"{p}y_degrees.{SPARSE}", g.y_degrees)
            rec.call(f"{p}degree_profile.{SPARSE}", mc.degree_profile, g)
            rec.call(f"{p}transpose.{SPARSE}", g.transpose)
            rec.call(f"{p}edges.{SPARSE}", g.edges)
            rec.call(f"{p}graph_components.{SPARSE}", mc.graph_components, g)
            rec.call(f"analysis.stability_report.{SPARSE}", mc.stability_report, g, 2)
            rec.call(f"analysis.main_lemma_report.{SPARSE}", mc.main_lemma_report, g, 2)
        with rec.operation("corollary"):
            for variant in ("general", "seven-eighths"):
                rec.call(f"analysis.check_corollary.{variant}", mc.check_corollary,
                         self.general, 3, variant)

    def crosscheck(self, results):
        sys.path.insert(0, str(self.ctx.root / "tests"))
        import oracles

        side = self.side
        want_edges = sorted(self.edges)
        xdeg = Counter(x for x, _ in want_edges)
        ydeg = Counter(y for _, y in want_edges)
        rows = [0] * side
        cols = [0] * side
        for x, y in want_edges:
            rows[x] += 1 << y
            cols[y] += 1 << x
        comps = oracles.bfs_components(side, side, want_edges)
        orders = sorted((len(xs) + len(ys) for xs, ys in comps), reverse=True)
        star = max(xdeg[x] + ydeg[y] for x, y in want_edges)
        deficiency = max(Fraction(0), 1 - Fraction(2 * len(want_edges), side * side))

        def get(name):
            return results.get(f"{name}.{SPARSE}")

        g = get("bigraph.from_edge_list")
        prof = get("bigraph.degree_profile")
        tr = get("bigraph.transpose")
        found = get("bigraph.graph_components")
        stab = get("analysis.stability_report")
        lemma = get("analysis.main_lemma_report")
        out = {
            "from_edge_list": g is not None and list(g.rows) == rows,
            "y_degrees": get("bigraph.y_degrees") == [ydeg[y] for y in range(side)],
            "degree_profile": prof is not None and (
                prof.delta_xy, prof.delta_yx, prof.avg_xy, prof.avg_yx) == (
                min(xdeg[x] for x in range(side)), min(ydeg[y] for y in range(side)),
                Fraction(len(want_edges), side), Fraction(len(want_edges), side)),
            "transpose": tr is not None and list(tr.rows) == cols,
            "edges": get("bigraph.edges") == want_edges,
            "graph_components": found is not None and
                {(frozenset(c.xs), frozenset(c.ys)) for c in found} == set(comps),
            "stability_report": stab is not None
                and (stab.double_star_order, stab.delta) == (star, deficiency),
            "main_lemma_report": lemma is not None
                and [c.order for c in lemma.components] == orders[:2],
        }
        best = _bfs_general(self.general.n, self.triples, 3)
        n = self.general.n
        for variant, target in (("general", Fraction(n, 2)), ("seven-eighths", Fraction(n, 2))):
            v = results.get(f"analysis.check_corollary.{variant}")
            out["corollary." + variant] = v is not None and (
                v.witness.order, v.holds, v.target) == (best, best >= target, target)
        return out


# --- cli -----------------------------------------------------------------------

def _cli_commands(seed: int, files: dict) -> list[tuple[str, list[str]]]:
    s = str(seed)
    return [
        ("gen", ["gen", "lower-bound", "--r", "2", "--t1", "3", "--t2", "2"]),
        ("gen", ["gen", "cyclic", "--k", "7"]),
        ("analyze", ["analyze", files["lb"], "--check", "r2"]),
        ("analyze", ["analyze", files["lb"], "--check", "conjecture"]),
        ("analyze", ["analyze", files["cls"], "--check", "stability"]),
        ("analyze", ["analyze", files["cls"], "--check", "mainlemma"]),
        ("analyze", ["analyze", files["general"], "--check", "corollary", "--r", "3"]),
        ("search", ["search", "--mode", "minmax", "--host", "gen:complete:m=4,n=4"]),
        ("search", ["search", "--mode", "below", "--host", "gen:complete:m=4,n=4",
                    "--target", "5"]),
        ("search", ["search", "--mode", "verify", "--check", "r2", "--host", files["k44mm"]]),
        ("search", ["search", "--mode", "random", "--check", "additive",
                    "--host", "gen:circulant:m=8,n=8,d=2", "--budget", "2000", "--seed", s]),
        ("search", ["search", "--mode", "below", "--host", "gen:complete:m=4,n=4",
                    "--target", "5", "--workers", "2"]),
        ("scan", ["scan", "--total-n", "16", "--alphas", "1/8", "--budget", "2000",
                  "--seed", s]),
    ]


IMPORT_PROBE = "import monocomp.cli"
PROBE_REPEATS = 2


class Cli(Workload):
    """One `python -m monocomp` subprocess at a time over a fixed command
    list, plus interpreter and import probes."""

    name = "cli"
    dynamic = ("cli.probe.",)

    def setup(self):
        tmp = self.ctx.tmpdir
        files = {k: str(tmp / f"{k}.json") for k in ("lb", "cls", "general", "k44mm")}
        host, col = mc.lower_bound_construction(2, 3, 2)
        docs = {
            "lb": mc.graph_json(host, col),
            "cls": mc.graph_json(mc.complete_minus_circulant(12, 12, 2)),
            "general": {"n": 24, "r": 3, "edges": [
                [u, v, (7 * u + 3 * v) % 3] for u in range(24) for v in range(u + 1, 24)]},
            "k44mm": mc.graph_json(mc.complete_minus_circulant(4, 4, 1)),
        }
        for key, doc in docs.items():
            with open(files[key], "w", encoding="utf-8") as fh:
                fh.write(mc.dumps_canonical(doc) + "\n")
        self.commands = _cli_commands(self.seed, files)
        self.manifest = str(tmp / "manifest.json")

    def _run(self, argv):
        return subprocess.run(argv, env=self.ctx.env, cwd=self.ctx.root,
                              capture_output=True, text=True, timeout=120, check=False)

    def warm_up(self):
        self._run(self._monocomp(self.commands[0][1]))

    def _monocomp(self, args):
        return [sys.executable, "-m", "monocomp", "--manifest", self.manifest, *args]

    def run_pass(self, rec):
        for i, (group, args) in enumerate(self.commands):
            with rec.operation(f"cmd{i}"):
                rec.call(f"cli.{group}.{i}", self._run, self._monocomp(args))
        for i in range(PROBE_REPEATS):
            with rec.operation(f"probe{i}"):
                rec.call(f"cli.probe.interpreter.{i}", self._run, [sys.executable, "-c", "pass"])
                rec.call(f"cli.probe.import.{i}", self._run, [sys.executable, "-c", IMPORT_PROBE])

    def crosscheck(self, results):
        return {n: o is not None and o.returncode == 0
                for n, o in results.items() if n.startswith(self.dynamic)}

    def _latencies(self, durations, group=""):
        return [d * 1000 for name, ds in durations.items()
                if name.startswith("cli." + group) and not name.startswith("cli.probe.")
                for d in ds]

    def summary(self, rec):
        lat = sorted(self._latencies(rec.durations))
        n = len(lat)
        # the highest percentile with at least ten samples beyond it; with
        # fewer than eleven samples there is none, and the maximum stands in
        rank = n - 11 if n > 10 else n - 1
        return {
            "cmd_p50_ms": statistics.median(lat),
            "cmd_tail_ms": lat[rank],
            "cmd_tail_percentile": round(100 * (rank + 1) / n, 1),
            "cmd_samples": n,
        }

    def layer_metrics(self, by_name, rec):
        p50 = median_of([d * 1000 for n, ds in by_name.items()
                         if not n.startswith("cli.probe.") for d in ds])
        interp = median_of([d * 1000 for n, ds in by_name.items()
                            if n.startswith("cli.probe.interpreter.") for d in ds])
        imp = median_of([d * 1000 for n, ds in by_name.items()
                         if n.startswith("cli.probe.import.") for d in ds])
        out = {"cli.interpreter_ms": interp, "cli.import_ms": imp,
               "cli.import_share": ratio(imp - interp, p50)}
        for group in ("gen", "analyze", "search", "scan"):
            out[f"cli.{group}.p50_ms"] = median_of(self._latencies(by_name, group + "."))
        return out


WORKLOADS = {w.name: w for w in (Exact, Sampling, DenseHost, SparseHost, Cli)}
