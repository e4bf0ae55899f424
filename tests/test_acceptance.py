"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is exact
(integer or Fraction); the stated runtime ceilings are asserted too.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from monocomp import (
    THEOREMS,
    SearchConfig,
    bipartition_avoiding_color,
    complete,
    complete_minus_circulant,
    coloring_from_triples,
    cyclic_one_factorization,
    degree_profile,
    double_star_gap_construction,
    dumps_canonical,
    exhaustive_verify,
    exists_coloring_below,
    from_edge_list,
    from_rows,
    general_from_edge_list,
    graph_json,
    largest_double_star,
    largest_mono_component,
    lower_bound_construction,
    main_lemma_report,
    meets_conjecture_degrees,
    min_max_mono_component,
    random_search,
    stability_report,
    uncolored_largest_double_star,
)

BLOCK_K44 = [((x // 2) + (y // 2)) % 2 for x in range(4) for y in range(4)]


def report(number, text):
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def test_criterion_01_exhaustive_gy1_k44():
    started = time.perf_counter()
    host = complete(4, 4)
    verify = exhaustive_verify(host, 2, target=Fraction(4))
    assert verify.kind == "AllSatisfy"
    out = min_max_mono_component(host, 2)
    assert out.value == 4
    assert [c for _, _, c in out.witness.edges()] == BLOCK_K44
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(1, f"K44 2-colorings all reach 4; min-max 4 with block witness ({elapsed:.2f}s)")


def test_criterion_02_exhaustive_r2_k44_minus_matching():
    started = time.perf_counter()
    host = complete_minus_circulant(4, 4, 1)
    prof = degree_profile(host)
    assert prof.delta_xy * 3 > 2 * host.n and prof.delta_yx * 3 > 2 * host.m
    out = exhaustive_verify(host, 2, checker=THEOREMS["r2"])
    assert out.kind == "AllSatisfy"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(2, f"K44-PM 2-colorings all reach 4 ({elapsed:.3f}s)")


def test_criterion_03_lower_bound_sharpness():
    host, col = lower_bound_construction(2, 1, 1)
    prof = degree_profile(host)
    assert Fraction(prof.delta_xy) == Fraction(2, 3) * 3
    assert Fraction(prof.delta_yx) == Fraction(2, 3) * 3
    assert not meets_conjecture_degrees(host, 2)
    order = largest_mono_component(host, col).order
    assert order == 2
    assert Fraction(order) == Fraction(host.m + host.n, 3)
    report(3, "lower bound (2,1,1): degrees exactly at 2/3, component exactly (m+n)/3")


def test_criterion_04_double_star_gap():
    host, col = double_star_gap_construction(2, 2, 3)
    prof = degree_profile(host)
    assert prof.delta_xy == host.n - 2 == 4
    comp = largest_mono_component(host, col).order
    assert comp == 5 and Fraction(comp) == Fraction(host.m + host.n, 2)
    star = largest_double_star(host, col).order
    assert star == 4 == 2 - 1 + 3
    report(4, "double-star gap (2,2,3): delta 4, component 5, double star 4")


def test_criterion_05_density_double_star_property():
    pairs = [(x, y) for x in range(3) for y in range(3)]
    for mask in range(1, 1 << 9):
        edges = [pairs[i] for i in range(9) if (mask >> i) & 1]
        g = from_edge_list(3, 3, edges)
        assert uncolored_largest_double_star(g).order * 9 >= g.edge_count * 6
    rng = random.Random(20260810)
    checked = 0
    while checked < 10_000:
        mask = rng.getrandbits(64)
        if mask == 0:
            continue
        g = from_rows(8, 8, [(mask >> (8 * x)) & 0xFF for x in range(8)])
        if g.edge_count == 0:
            continue
        assert uncolored_largest_double_star(g).order * 64 >= g.edge_count * 16
        checked += 1
    report(5, "double-star density bound: 512 K33 subgraphs + 10^4 random 8x8 graphs")


def test_criterion_06_exhaustive_r3_k33():
    started = time.perf_counter()
    host = complete(3, 3)
    verify = exhaustive_verify(host, 3, target=Fraction(2))
    assert verify.kind == "AllSatisfy"
    out = min_max_mono_component(host, 3)
    assert out.value == 2
    _, cyclic = cyclic_one_factorization(3)
    assert out.witness == cyclic
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(6, f"K33 3-colorings all reach 2; min-max 2 with cyclic witness ({elapsed:.3f}s)")


def test_criterion_07_additive_sampling():
    started = time.perf_counter()
    host = complete_minus_circulant(8, 8, 2)
    prof = degree_profile(host)
    total = host.m + host.n
    assert Fraction(prof.delta_xy) == host.n - Fraction(total, 8) == 6
    assert host.m == 8 > total // 4
    out = random_search(
        host, 2, checker=THEOREMS["additive"], cfg=SearchConfig(seed=42, budget=100_000)
    )
    assert out.kind == "AllSatisfy" and out.examined == 100_000
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(7, f"10^5 random 2-colorings of circulant(8,8,2) all hold ({elapsed:.1f}s)")


def test_criterion_08_stability_dichotomy_grid():
    pairs = [(x, y) for x in range(3) for y in range(3)]
    grid = [Fraction(i, 18) for i in range(10)]
    checked = 0
    for mask in range(1, 1 << 9):
        edges = [pairs[i] for i in range(9) if (mask >> i) & 1]
        g = from_edge_list(3, 3, edges)
        for delta in grid:
            if Fraction(g.edge_count) < (1 - delta) * Fraction(9, 2):
                continue
            rep = stability_report(g, 2, delta=delta)
            assert rep.case_i or rep.case_ii
            checked += 1
    assert checked > 0
    report(8, f"stability dichotomy held on {checked} (subgraph, delta) pairs")


def test_criterion_09_main_lemma_two_block_instance():
    started = time.perf_counter()
    bound = Fraction(1, 2048)  # min(n/(64 r^4 (m+n)), m/(64 r (m+n))) at m=n, r=2
    k = 1
    while Fraction(4 * k + 1, (2 * k + 1) ** 2) > bound:
        k += 1
    assert k == 2048
    assert Fraction(4 * (k - 1) + 1, (2 * (k - 1) + 1) ** 2) > bound
    m = n = 2 * k + 1
    assert bound == min(
        Fraction(n, 64 * 2**4 * (m + n)), Fraction(m, 64 * 2 * (m + n))
    )
    rows = [(1 << k) - 1] * k + [((1 << k) - 1) << k] * k + [0]
    g = from_rows(m, n, rows)
    assert g.edge_count == 2 * k * k
    rep = main_lemma_report(g, 2)
    assert rep.precondition_ok and rep.hypothesis_ok
    assert rep.a and rep.b and rep.c and rep.d and rep.e
    assert [c.order for c in rep.components] == [2 * k, 2 * k]
    assert rep.z_x == (m - 1,) and rep.z_y == (n - 1,)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(9, f"main lemma two-block instance at minimal k={k} ({elapsed:.2f}s)")


def test_criterion_10_reduction_soundness():
    rng = random.Random(777)
    for trial in range(10_000):
        n = rng.randint(8, 64)
        cap = max(1, n // 4)  # component orders stay <= n/4
        sizes = []
        left = n
        while left:
            s = rng.randint(1, min(cap, left))
            sizes.append(s)
            left -= s
        edges = []
        v = 0
        for s in sizes:
            for i in range(v, v + s - 1):
                edges.append((i, i + 1, 0))
            v += s
        present = {(u, w) for u, w, _ in edges}
        for _ in range(n // 2):
            a, b = rng.randrange(n), rng.randrange(n)
            a, b = min(a, b), max(a, b)
            if a != b and (a, b) not in present:
                edges.append((a, b, 1))
                present.add((a, b))
        gg = general_from_edge_list(n, 2, edges)
        min_side = -(-n // 4) + 1
        red = bipartition_avoiding_color(gg, 0, min_side)
        assert red is not None, (n, sizes)
        assert len(red.side_a) >= min_side and len(red.side_b) >= min_side
        assert sorted(red.side_a + red.side_b) == list(range(n))
        in_a = set(red.side_a)
        for (u, w), c in zip(gg.edges, gg.colors):
            if c == 0:
                assert (u in in_a) == (w in in_a)
    report(10, "bipartition reduction: 10^4 random multisets, zero failures")


def _cli(args, manifest):
    cmd = [sys.executable, "-m", "monocomp", "--manifest", str(manifest)] + [
        str(a) for a in args
    ]
    res = subprocess.run(cmd, capture_output=True, text=True)
    assert res.returncode in (0, 1, 3), res.stderr
    return res.stdout


def test_criterion_11_cli_determinism(tmp_path):
    host_file = tmp_path / "k44mm.json"
    host_file.write_text(dumps_canonical(graph_json(complete_minus_circulant(4, 4, 1))))
    commands = [
        ["search", "--mode", "minmax", "--host", "gen:complete:m=4,n=4", "--r", 2,
         "--seed", 7],
        ["search", "--mode", "below", "--host", "gen:complete:m=4,n=4", "--r", 2,
         "--target", 5, "--seed", 7],
        ["search", "--mode", "verify", "--check", "r2", "--host", host_file,
         "--r", 2, "--seed", 7],
        ["search", "--mode", "random", "--check", "additive",
         "--host", "gen:circulant:m=8,n=8,d=2", "--r", 2, "--budget", 10000,
         "--seed", 7],
    ]
    for args in commands:
        outputs = set()
        for workers in (1, 4):
            for run in (1, 2):
                manifest = tmp_path / f"manifest-{workers}-{run}.json"
                outputs.add(_cli(args + ["--workers", workers], manifest))
        assert len(outputs) == 1, f"outputs diverged for {args}"
    report(11, "search CLI byte-identical across reruns and worker counts 1/4")
