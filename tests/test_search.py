import concurrent.futures
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monocomp import search
from monocomp import (
    THEOREMS,
    AdditiveChecker,
    ComponentTargetChecker,
    EmptyGraph,
    PreconditionViolated,
    SearchConfig,
    Theorem,
    alpha_frontier,
    check_additive_theorem,
    check_conjecture_instance,
    check_theorem_two_colors,
    coloring_from_triples,
    complete,
    complete_minus_circulant,
    cyclic_one_factorization,
    dumps_canonical,
    exhaustive_verify,
    exists_coloring_below,
    from_edge_list,
    from_rows,
    largest_mono_component,
    lower_bound_construction,
    min_max_mono_component,
    mono_components,
    random_search,
)

import oracles


BLOCK_K44 = [((x // 2) + (y // 2)) % 2 for x in range(4) for y in range(4)]


def random_host(rng, max_side=4):
    m = rng.randint(1, max_side)
    n = rng.randint(1, max_side)
    edges = [(x, y) for x in range(m) for y in range(n) if rng.random() < 0.6]
    return from_edge_list(m, n, edges) if edges else None


def finder_args(host):
    """The (m, n, ends) that the automorphism finder reads, packed by
    ``search._packed`` as every search packs its host."""
    return host.m, host.n, search._packed(host, (0, 0, 2))[0]


def twin_rich_host(rng):
    """A blow-up of a random 2x2 or 3x3 base, or a random host with some
    rows and columns repeated in shuffled order: hosts with twins."""
    if rng.random() < 0.5:
        m = n = rng.randint(2, 3)
        base = [[rng.random() < 0.7 for _ in range(n)] for _ in range(m)]
        rows = [i for i in range(m) for _ in range(rng.randint(1, 2))]
        cols = [j for j in range(n) for _ in range(rng.randint(1, 2))]
    else:
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        base = [[rng.random() < 0.6 for _ in range(n)] for _ in range(m)]
        rows = list(range(m)) + rng.choices(range(m), k=rng.randint(0, 2))
        cols = list(range(n)) + rng.choices(range(n), k=rng.randint(0, 2))
        rng.shuffle(rows)
        rng.shuffle(cols)
    edges = [(x, y) for x, i in enumerate(rows) for y, j in enumerate(cols) if base[i][j]]
    return from_edge_list(len(rows), len(cols), edges) if edges else None


def no_trial(monkeypatch):
    """Skip the in-process trial walk, so every split probe runs its split
    walk (and starts its pool) however few nodes it takes."""
    monkeypatch.setattr(search, "_TRIAL_NODES", 0)


def force_depth(monkeypatch, depth):
    """Split every below walk at ``depth``, or at the last edge when the
    host has fewer, whatever the worker count, with no trial walk first;
    with one worker the tasks run in order in this process."""
    no_trial(monkeypatch)
    monkeypatch.setattr(search, "_prefix_depth", lambda num_edges, *_: min(depth, num_edges))


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the process pool by one that runs each task at submit, and
    return the list of the sizes of the pools constructed."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def submit(self, fn, arg):
            future = concurrent.futures.Future()
            future.set_result(fn(arg))
            return future

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes


class TestExistsBelow:
    def test_k22_below_2_impossible(self):
        out = exists_coloring_below(complete(2, 2), 2, 2)
        assert out.kind == "AllSatisfy"

    def test_k44_below_4_impossible(self):
        out = exists_coloring_below(complete(4, 4), 2, 4)
        assert out.kind == "AllSatisfy"

    def test_k44_below_5_block_witness(self):
        out = exists_coloring_below(complete(4, 4), 2, 5)
        assert out.kind == "Counterexample"
        assert [c for _, _, c in out.witness.edges()] == BLOCK_K44

    def test_rational_target(self):
        # all components < 7/2 means all orders <= 3
        host = complete(3, 3)
        out = exists_coloring_below(host, 2, Fraction(7, 2))
        assert out.kind == "AllSatisfy"
        out2 = exists_coloring_below(host, 2, Fraction(9, 2))
        assert out2.kind == "Counterexample"
        assert (
            largest_mono_component(host, out2.witness).order
            < Fraction(9, 2)
        )

    def test_empty_host(self):
        with pytest.raises(EmptyGraph):
            exists_coloring_below(from_edge_list(2, 2, []), 2, 2)

    def test_colors_beyond_the_edges_cost_nothing(self):
        # a canonical walk opens at most one color per edge, so its tables
        # are sized by min(r, edges), however large r is
        host = complete(2, 2)
        outcomes = []
        for r in (4, 5, 3000):
            tracemalloc.start()
            try:
                below = exists_coloring_below(host, r, 2).to_json_dict()
                minmax = min_max_mono_component(host, r)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 << 20, (r, peak)
            outcomes.append((below, minmax.value, minmax.examined, minmax.witness.edges()))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_agrees_with_naive_enumeration(self):
        rng = random.Random(23)
        checked = 0
        while checked < 40:
            host = random_host(rng)
            if host is None or host.edge_count == 0 or host.edge_count > 9:
                continue
            r = rng.randint(1, 3)
            t = rng.randint(2, host.m + host.n + 1)
            fast = exists_coloring_below(host, r, t)
            slow = oracles.brute_exists_below(host, r, t)
            assert (fast.kind == "Counterexample") == slow
            if fast.witness is not None:
                edges = host.edges()
                colors = [c for _, _, c in fast.witness.edges()]
                assert oracles.max_mono_order(host.m, host.n, edges, colors, r) < t
            checked += 1


def symmetric_host(rng):
    """A twin-rich host, or one whose automorphisms move no twins: a
    circulant K_{n,n} minus a perfect matching, or a small circulant."""
    kind = rng.random()
    if kind < 0.6:
        return twin_rich_host(rng)
    if kind < 0.8:
        return complete_minus_circulant(*[rng.randint(3, 4)] * 2, 1)
    m = rng.randint(2, 4)
    return complete_minus_circulant(m, rng.randint(m, 4), rng.randint(1, 2))


class TestBelowSearch:
    def test_matches_split_oracle(self, monkeypatch):
        # one worker at a forced depth: the split path, its tasks run in order
        rng = random.Random(41)
        kinds = set()
        checked = 0
        while checked < 60:
            host = random_host(rng) if checked % 3 else symmetric_host(rng)
            r = rng.randint(1, 3)
            if host is None or host.edge_count > 12 or r**host.edge_count > 4096:
                continue
            perms = search._lex_elements(*finder_args(host))
            for t in range(2, host.m + host.n + 2):
                want = oracles.brute_below_search(host, r, t, perms=perms, dead_states=True)
                for budget in {b for b in (1, want[1] - 1, want[1], 1 << 62) if b >= 1}:
                    bounded = oracles.brute_below_search(host, r, t, True, budget, perms, True)
                    for depth in (0, 2, host.edge_count):
                        force_depth(monkeypatch, depth)
                        fast = exists_coloring_below(host, r, t, SearchConfig(budget=budget))
                        colors = fast.witness and tuple(c for _, _, c in fast.witness.edges())
                        assert (fast.kind, fast.examined, colors) == bounded, (
                            host.edges(), r, t, depth, budget
                        )
                    kinds.add(fast.kind)
                # the symmetry breaking changes no decision or witness: those
                # of the walk over every coloring
                plain_kind, _, plain_colors = oracles.brute_below_search(host, r, t, False)
                assert (want[0], want[2]) == (plain_kind, plain_colors), (host.edges(), r, t)
            checked += 1
        assert kinds == {"Counterexample", "AllSatisfy", "BudgetExhausted"}
        # and once through a real pool of two processes
        host, t = complete_minus_circulant(4, 4, 1), 4
        want = oracles.brute_below_search(
            host, 2, t, perms=search._lex_elements(*finder_args(host)), dead_states=True
        )
        force_depth(monkeypatch, 2)
        fast = exists_coloring_below(host, 2, t, workers=2)
        colors = fast.witness and tuple(c for _, _, c in fast.witness.edges())
        assert (fast.kind, fast.examined, colors) == want

    def test_double_lex_on_twin_rich_hosts(self, monkeypatch):
        # the lex-leader cut of the host's automorphisms (twin transpositions
        # among them) changes only the count: decision and witness are those
        # of the symmetry-free oracle and examined is the oracle's with the
        # library's generators, for every split depth and worker count
        # (one CPU: the tasks of two workers run in order in this process)
        monkeypatch.setattr(search.os, "cpu_count", lambda: 1)
        rng = random.Random(61)
        checked = moved = 0
        while checked < 40:
            host = symmetric_host(rng)
            r = rng.choice((1, 2, 2, 3, 3))
            if host is None or r**host.edge_count > 1 << 13:
                continue
            perms = search._lex_elements(*finder_args(host))
            moved += bool(perms)
            for t in range(2, host.m + host.n + 2):
                kind, _, want = oracles.brute_below_search(host, r, t)
                examined = oracles.brute_below_search(host, r, t, perms=perms, dead_states=True)[1]
                for depth, workers in ((0, 1), (2, 2), (host.edge_count, 2)):
                    force_depth(monkeypatch, depth)
                    fast = exists_coloring_below(host, r, t, workers=workers)
                    colors = fast.witness and tuple(c for _, _, c in fast.witness.edges())
                    assert (fast.kind, fast.examined, colors) == (kind, examined, want), (
                        host.edges(), r, t, depth, workers
                    )
            out = min_max_mono_component(host, r)
            assert out.value == oracles.brute_minmax(host, r)
            checked += 1
        assert moved >= 35
        monkeypatch.undo()
        host = twin_rich_host(random.Random(3))
        serial = [exists_coloring_below(host, 2, t) for t in range(2, host.m + host.n + 2)]
        force_depth(monkeypatch, 2)
        for t, want in enumerate(serial, start=2):
            parallel = exists_coloring_below(host, 2, t, workers=2)
            assert parallel.to_json_dict() == want.to_json_dict()

    def test_deep_host_is_not_recursive(self):
        # 1,200 edges: one stack frame per edge would overflow the stack
        host = complete(30, 40)
        out = exists_coloring_below(host, 2, 60, SearchConfig(budget=100000))
        assert (out.kind, out.examined) == ("Counterexample", 1215)
        assert largest_mono_component(host, out.witness).order < 60
        out = min_max_mono_component(host, 2, SearchConfig(budget=100000))
        assert out.kind == "BudgetExhausted"

    @pytest.mark.parametrize("cpus, pools", [(3, [3]), (None, [])])
    def test_pool_capped_at_cpu_count(self, monkeypatch, pool_sizes, cpus, pools):
        host = complete_minus_circulant(4, 4, 1)
        serial = exists_coloring_below(host, 2, 4)
        no_trial(monkeypatch)
        monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
        out = exists_coloring_below(host, 2, 4, workers=100000)
        assert pool_sizes == pools
        assert out.to_json_dict() == serial.to_json_dict()

    def test_prefix_depth(self):
        # four edges in with more than one worker and color, else serial
        assert [search._prefix_depth(36, r, 2) for r in (2, 3, 4)] == [4, 4, 4]
        assert search._prefix_depth(36, 1, 2) == 0
        assert search._prefix_depth(36, 2, 1) == 0
        assert search._prefix_depth(3, 2, 2) == 3


class TestTrialWalk:
    """A split probe first walks serially in this process, capped at
    ``_TRIAL_NODES``: a walk decided there starts no pool, and one that
    goes past it starts one pool per search and walks again from scratch,
    so every outcome is the serial walk's."""

    # circ(7,7,2) at 2 colors: t8 AllSatisfy in 6,592 nodes, t9 a
    # Counterexample in 1,343, min-max 8,456; all pass the cap of 1,024
    WIDE = complete_minus_circulant(7, 7, 2)

    @pytest.mark.parametrize(
        "run",
        [
            lambda w: exists_coloring_below(complete(4, 4), 2, 5, workers=w),
            lambda w: exists_coloring_below(complete(4, 4), 2, 4, workers=w),
            lambda w: exhaustive_verify(complete(4, 4), 2, workers=w),
            lambda w: exhaustive_verify(complete(3, 3), 2, checker=THEOREMS["additive"], workers=w),
            lambda w: min_max_mono_component(complete(4, 4), 2, workers=w),
            lambda w: min_max_mono_component(complete(3, 3), 3, workers=w),
        ],
        ids=["below-k44-t5", "below-k44-t4", "verify-k44", "verify-additive-k33",
             "minmax-k44", "minmax-k33r3"],
    )
    def test_decided_within_the_cap_starts_no_pool(self, monkeypatch, pool_sizes, run):
        serial = run(1)
        assert serial.examined <= search._TRIAL_NODES
        monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
        assert run(2) == serial
        assert pool_sizes == []

    @pytest.mark.parametrize(
        "run",
        [
            lambda w: exists_coloring_below(TestTrialWalk.WIDE, 2, 8, workers=w),
            lambda w: exists_coloring_below(TestTrialWalk.WIDE, 2, 9, workers=w),
            lambda w: min_max_mono_component(TestTrialWalk.WIDE, 2, workers=w),
        ],
        ids=["below-t8", "below-t9", "minmax"],
    )
    def test_past_the_cap_one_pool_per_search(self, monkeypatch, pool_sizes, run):
        serial = run(1)
        assert serial.examined > search._TRIAL_NODES
        monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
        assert run(2) == serial  # kind, value, witness and examined
        assert pool_sizes == [2]

    def test_budgets_around_the_cap(self, monkeypatch, pool_sizes):
        # t8 takes 6,592 nodes: every budget here stops the walk, at
        # budget + 1, and only a budget past the cap starts the pool
        cap = search._TRIAL_NODES
        monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
        for budget in (cap - 1, cap, cap + 1, 2 * cap):
            cfg = SearchConfig(budget=budget)
            serial = exists_coloring_below(self.WIDE, 2, 8, cfg)
            assert (serial.kind, serial.examined) == ("BudgetExhausted", budget + 1)
            del pool_sizes[:]
            assert exists_coloring_below(self.WIDE, 2, 8, cfg, workers=2) == serial, budget
            assert pool_sizes == ([2] if budget > cap else []), budget


def _padded(host, m, n):
    """``host`` with isolated vertices added up to m x n."""
    return from_edge_list(m, n, host.edges())


class TestDeadStates:
    """The below walk skips a state at an X-row start past the split depth
    whose key an earlier, leafless subtree had, or whose vertex partition
    a recent such key refines: ``examined`` is the oracle mirror's for
    every split depth and worker count, and the kind and the lex-least
    witness are those of the walk without the cache."""

    @staticmethod
    def _check(monkeypatch, host, r, targets, runs):
        """Compare each target with the oracles for each (depth, workers)
        of ``runs``; return how many targets the cache moved."""
        assert oracles.SPLIT_DEPTH == search._PREFIX_DEPTH  # both forget dead states there
        assert oracles.DEAD_STATES == search._DEAD_STATES
        assert oracles.DEAD_BITS == search._DEAD_BITS
        assert oracles.RECENT == search._RECENT
        assert oracles.KEY_BITS == search._KEY_BITS
        perms = search._lex_elements(*finder_args(host))
        moved = 0
        for t in targets:
            kind, plain, want = oracles.brute_below_search(host, r, t, perms=perms)
            examined = oracles.brute_below_search(host, r, t, perms=perms, dead_states=True)[1]
            moved += examined != plain
            for depth, workers in runs:
                force_depth(monkeypatch, depth)
                if t is None:
                    fast = exhaustive_verify(host, r, checker=ANY_HALF_HALF, workers=workers)
                else:
                    fast = exists_coloring_below(host, r, t, workers=workers)
                colors = fast.witness and tuple(c for _, _, c in fast.witness.edges())
                assert (fast.kind, fast.examined, colors) == (kind, examined, want), (
                    host.edges(), r, t, depth, workers
                )
        return moved

    @pytest.mark.parametrize("host", [complete(4, 2), complete(5, 3)], ids=["k42", "k53"])
    def test_short_rows_at_split(self, monkeypatch, host):
        # rows of two or three edges end at and before the split depth
        depths = (0, 2, host.edge_count)
        runs = list(itertools.product(depths, (1, 2)))
        self._check(monkeypatch, host, 3, range(2, host.m + host.n + 2), runs)

    @pytest.mark.parametrize(
        "host, r",
        [
            (complete(5, 3), 2),
            (complete(7, 3), 2),
            (complete_minus_circulant(5, 5, 1), 2),
            (complete_minus_circulant(6, 6, 2), 2),
            # keyed without its row, a state at one X-row start equals one at
            # another here, and the skip loses the lex-least witness of t = 8
            (from_edge_list(9, 3, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 2),
                                   (3, 1), (4, 1), (4, 2), (5, 0), (6, 1), (6, 2), (7, 0),
                                   (7, 2), (8, 0), (8, 1)]), 2),
            # isolated vertices lift the packed weights to 256 and more, and
            # stay out of the block matrix
            (_padded(complete(7, 3), 7, 250), 2),
            (_padded(complete(4, 2), 4, 260), 3),
            # Y-vertex 0 is isolated, so the Y-vertices with edges start at slot m + 1
            (from_edge_list(5, 4, [(x, y + 1) for x, y in complete(5, 3).edges()]), 2),
            # at the last row start one component can hold every vertex but
            # the last row's: one field holds every bit but the last row's
            (complete(6, 3), 2),
        ],
        ids=["k53r2", "k73r2", "c551r2", "c662r2", "rows9r2", "k73padded-r2", "k42padded-r3",
             "k53-y0-isolated-r2", "k63r2"],
    )
    def test_matches_mirror(self, monkeypatch, host, r):
        # one CPU: the tasks of two workers run in order in this process
        monkeypatch.setattr(search.os, "cpu_count", lambda: 1)
        runs = list(itertools.product((0, 2, host.edge_count), (1, 2)))
        edges = host.edges()
        order = len({x for x, _ in edges}) + len({y for _, y in edges})  # isolated vertices aside
        # None: half-half (K = m + 1) through exhaustive_verify
        moved = self._check(monkeypatch, host, r, [*range(2, order + 2), None], runs)
        assert moved or r == 3

    def test_full_record_takes_no_more_keys(self, monkeypatch):
        # with room for three keys per split prefix the walk skips less,
        # and its count is still the mirror's; both runs keep one key per
        # window, since a window of 32 catches every state the three-key
        # set forgets here
        host = complete_minus_circulant(6, 6, 2)
        runs = [(0, 1), (2, 1), (host.edge_count, 1)]
        monkeypatch.setattr(search, "_RECENT", 1)
        monkeypatch.setattr(oracles, "RECENT", 1)
        full = [exists_coloring_below(host, 2, t).examined for t in range(2, 14)]
        monkeypatch.setattr(search, "_DEAD_STATES", 3)
        monkeypatch.setattr(oracles, "DEAD_STATES", 3)
        assert self._check(monkeypatch, host, 2, range(2, 14), runs)
        capped = [exists_coloring_below(host, 2, t).examined for t in range(2, 14)]
        assert capped != full and all(c >= f for c, f in zip(capped, full))
        # room for the bits of three keys (2 colors times 12 vertices
        # squared each) is room for three keys
        bits = 3 * 2 * 12 * 12 + 287
        for module, states, bit_cap in ((search, "_DEAD_STATES", "_DEAD_BITS"),
                                        (oracles, "DEAD_STATES", "DEAD_BITS")):
            monkeypatch.setattr(module, states, 1 << 18)
            monkeypatch.setattr(module, bit_cap, bits)
        assert self._check(monkeypatch, host, 2, range(2, 14), runs)
        assert [exists_coloring_below(host, 2, t).examined for t in range(2, 14)] == capped

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize(
        "block",
        [complete(8, 8), complete_minus_circulant(8, 9, 1), complete(10, 8)],
        ids=["k88", "c891", "k108"],
    )
    def test_half_half_with_heavy_weights(self, monkeypatch, block, r):
        # K = m + 1 = 17: the packed weights sum to 16 + 17 * 16 >= 256
        host = _padded(block, 16, 16)
        need = THEOREMS["additive"].needs(host.m, host.n, r)
        assert sum(search._packed(host, need)[1]) >= 256
        self._check(monkeypatch, host, r, [None], [(0, 1), (2, 1), (host.edge_count, 1)])

    @pytest.mark.parametrize("recent", [1, 2, 3])
    def test_window_eviction_matches_mirror(self, monkeypatch, recent):
        # a window of one to three keys skips fewer states here than one of
        # 32 (765, 743 and 743 nodes at t = 6, against 739), and the walk
        # drops the oldest key of a full window as the mirror does
        monkeypatch.setattr(search.os, "cpu_count", lambda: 1)
        host = complete_minus_circulant(6, 6, 2)
        full = exists_coloring_below(host, 2, 6).examined
        monkeypatch.setattr(search, "_RECENT", recent)
        monkeypatch.setattr(oracles, "RECENT", recent)
        runs = list(itertools.product((0, 2, host.edge_count), (1, 2)))
        self._check(monkeypatch, host, 2, range(2, 14), runs)
        assert exists_coloring_below(host, 2, 6).examined > full

    def test_refinement_skips_a_subtree(self, monkeypatch):
        # circ(5,5,1) r2 at t = 6: the mirror skips states whose key no dead
        # key equals but a recent one refines, and the walk's count drops
        # by the same nodes
        hits = []

        class Recording(oracles.DeadStates):
            def skips(self, key):
                hit = super().skips(key)
                if hit and key not in self.keys:
                    hits.append(key)
                return hit

        monkeypatch.setattr(oracles, "DeadStates", Recording)
        host = complete_minus_circulant(5, 5, 1)
        perms = search._lex_elements(*finder_args(host))
        assert oracles.brute_below_search(host, 2, 6, perms=perms, dead_states=True)[1] == 224
        assert hits
        assert exists_coloring_below(host, 2, 6).examined == 224
        monkeypatch.setattr(search, "_RECENT", 0)
        monkeypatch.setattr(oracles, "RECENT", 0)
        del hits[:]
        assert oracles.brute_below_search(host, 2, 6, perms=perms, dead_states=True)[1] == 259
        assert not hits
        assert exists_coloring_below(host, 2, 6).examined == 259

    def test_wide_states_keep_no_record(self, monkeypatch):
        # past _KEY_BITS the walk keeps no dead state: its count is the
        # walk's without the cache
        monkeypatch.setattr(search, "_KEY_BITS", 99)
        monkeypatch.setattr(oracles, "KEY_BITS", 99)
        host = complete_minus_circulant(5, 5, 1)  # 2 colors x 10^2 bits
        perms = search._lex_elements(*finder_args(host))
        for t in range(2, 12):
            plain = oracles.brute_below_search(host, 2, t, perms=perms)
            assert oracles.brute_below_search(host, 2, t, perms=perms, dead_states=True) == plain
            fast = exists_coloring_below(host, 2, t)
            colors = fast.witness and tuple(c for _, _, c in fast.witness.edges())
            assert (fast.kind, fast.examined, colors) == plain

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_block_matrix_is_the_bfs_partition(self, data):
        # replaying a prefix, the walk keys each X-row start d past the
        # split as the header d r + top, then per color c, nv fields of nv
        # bits, field i holding the mask of the component of the i-th
        # vertex with edges (by BFS)
        m, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        pairs = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
        host = from_edge_list(m, n, sorted(data.draw(st.sets(pairs, min_size=1))))
        edges = host.edges()
        r = min(data.draw(st.integers(1, 3)), len(edges))
        raw = data.draw(st.lists(st.integers(0, r - 1), max_size=len(edges) - 1))
        names = {}
        prefix = [names.setdefault(c, len(names)) for c in raw]  # colors by first appearance
        ends, weights, rule = search._packed(host, (0, 0, m + n + 1))  # no cut
        probed = []

        class Probe(set):
            def __contains__(self, key):
                probed.append(key)
                return False

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search, "set", Probe, raising=False)
            walk = search._walk_below(
                ends, weights, r, rule, prefix, len(prefix) + 1, 1 << 62,
                search._lex_schedule([], len(ends)),
            )
            for _ in walk:
                pass
        verts = sorted({v for end in ends for v in end})
        nv = len(verts)
        assert r * nv * nv <= search._KEY_BITS
        head_bits = ((len(prefix) + 2) * r).bit_length()
        want = []
        for d in range(search._PREFIX_DEPTH + 1, len(prefix) + 1):
            if edges[d][0] == edges[d - 1][0]:
                continue
            key = d * r + min(r - 1, max(prefix[:d]) + 1)
            for c in range(r):
                comps = oracles.bfs_components(
                    m, n, [e for e, col in zip(edges, prefix[:d]) if col == c]
                )
                block = {v: {v} for v in verts}
                for xs, ys in comps:
                    members = set(xs) | {m + y for y in ys}
                    for v in members:
                        block[v] = members
                for i, v in enumerate(verts):
                    mask = sum(1 << verts.index(w) for w in block[v])
                    key |= mask << head_bits + c * nv * nv + i * nv
            want.append(key)
        assert probed == want

    def test_circulant_probes(self):
        host = complete_minus_circulant(10, 10, 3)
        # the whole group of order 40 and refinement over the newest 32
        # dead keys (193,104 and 94,452 nodes with the equality key alone)
        out = exists_coloring_below(host, 2, 10)
        assert (out.kind, out.examined) == ("AllSatisfy", 100055)
        out = exists_coloring_below(host, 2, 11)
        colors = "".join(str(c) for _, _, c in out.witness.edges())
        assert (out.kind, out.examined) == ("Counterexample", 23648)
        # the lex-least witness, as without the cache (661,510 nodes)
        assert colors == (
            "0000011011110000111000001100000110000011001110001111000011000001000001"
        )


def _closure(perms, num_edges):
    """The group the edge permutations generate, breadth first from the
    identity: each level's products g * perm in the order found."""
    group = [tuple(range(num_edges))]
    seen, frontier = set(group), group[:]
    while frontier:
        grown = []
        for g in frontier:
            for perm in perms:
                gh = tuple(g[i] for i in perm)
                if gh not in seen:
                    seen.add(gh)
                    grown.append(gh)
        group += grown
        frontier = grown
    return group


LEX_HOSTS = [
    complete_minus_circulant(10, 10, 3), complete_minus_circulant(4, 4, 1), complete(2, 3),
    complete_minus_circulant(3, 5, 1), complete(4, 4), complete_minus_circulant(5, 5, 1),
    complete_minus_circulant(6, 6, 2),
]
LEX_IDS = ["circ10_10_3", "circ441", "k23", "circ351", "k44", "circ551", "circ662"]


class TestAutomorphisms:
    @staticmethod
    def _check_generators(host, perms=None):
        """Each generator (or each of ``perms``) maps the edges onto the
        edges by a vertex map that keeps the sides or swaps them whole."""
        m, n, ends = finder_args(host)
        perms = search._automorphisms(m, n, ends)[0] if perms is None else perms

        def vertex_map(perm, swap):
            sigma = {}
            for (a, b), i in zip(ends, perm):
                c, d = ends[i][::-1] if swap else ends[i]
                if sigma.setdefault(a, c) != c or sigma.setdefault(b, d) != d:
                    return None
            return sigma if len(set(sigma.values())) == len(sigma) else None

        for perm in perms:
            assert sorted(perm) == list(range(len(ends)))
            assert vertex_map(perm, False) or (host.m == host.n and vertex_map(perm, True))
        return perms

    def test_group_orders(self):
        circ = complete_minus_circulant(10, 10, 3)
        assert len(_closure(self._check_generators(circ), circ.edge_count)) == 40
        for n in (3, 4, 5):
            host = complete_minus_circulant(n, n, 1)
            perms = self._check_generators(host)
            assert len(_closure(perms, host.edge_count)) == 2 * math.factorial(n)
        for m, n in itertools.combinations_with_replacement(range(1, 5), 2):
            if m * n < 2:  # one edge: no permutation to tell
                continue
            host = complete(m, n)
            want = math.factorial(m) * math.factorial(n) * (2 if m == n else 1)
            assert len(_closure(self._check_generators(host), host.edge_count)) == want

    def test_random_hosts_match_brute_count(self):
        rng = random.Random(19)
        for _ in range(150):
            host = random_host(rng)
            if host is None:
                continue
            perms = self._check_generators(host)
            want = len(oracles.brute_automorphisms(host))
            assert len(_closure(perms, host.edge_count)) == want, host.edges()
            assert search._automorphisms(*finder_args(host))[1] in (want, None), host.edges()

    def test_big_hosts_stay_cheap(self):
        # the search and the permutations are capped, so a big host costs
        # little and gets the generators found first
        perms, order = search._automorphisms(*finder_args(complete(40, 40)))
        assert 0 < len(perms) * 1600 <= search._SYMMETRY_WORK
        assert order is None  # the generators kept may not generate the group
        assert search._automorphisms(*finder_args(complete(300, 300))) == ([], None)

    def test_each_generator_once(self):
        # with isolated vertices on both sides and m = n, two vertex maps
        # found may move the edges alike: the finder returns the edge
        # permutation once
        for rows in ((0, 2, 1), (0, 0, 0, 0, 32, 8)):  # two edges: a side swap swaps them
            host = from_rows(len(rows), len(rows), rows)
            assert search._automorphisms(*finder_args(host)) == ([(1, 0)], 2)
        rng = random.Random(5)
        for _ in range(600):
            m = rng.randint(1, 6)
            rows = [rng.getrandbits(m) if rng.random() < 0.5 else 0 for _ in range(m)]
            if any(rows):
                host = from_rows(m, m, rows)
                perms = self._check_generators(host)
                assert len(set(perms)) == len(perms), host.edges()

    def test_ladder_orders(self):
        # the orders proven on the ladder hosts of the r >= 3 tables, each
        # from its closed form, all beyond the brute-force oracle's reach
        def minus(m, n, missed):
            """K_{m,n} without the edges (x, y) for y in ``missed[x]``."""
            full = (1 << n) - 1
            rows = [full ^ sum(1 << y for y in ys) for ys in missed]
            return from_rows(m, n, rows + [full] * (m - len(rows)))

        def stars(*sizes):
            """(8,8) minus stars of ``sizes`` edges centered in X, on disjoint Y-ends."""
            cuts = list(itertools.accumulate(sizes, initial=0))
            return minus(8, 8, [range(a, b) for a, b in zip(cuts, cuts[1:])])

        cycles = minus(9, 9, [(3 * b + i, 3 * b + (i + 1) % 3) for b in range(3) for i in range(3)])
        for host, order in (
            (complete_minus_circulant(8, 8, 1), 2 * math.factorial(8)),  # S_8 and the swap
            (complete_minus_circulant(9, 9, 2), 2 * 18),  # the 18-cycle's dihedral group
            (stars(2, 1, 1, 1, 1, 1, 1), 2 * math.factorial(6)),  # the leaves, the 1-stars
            # the leaves, the two 2-stars, the 1-stars, the two full X-rows
            (stars(2, 2, 1, 1, 1, 1), 2 ** 2 * 2 * math.factorial(4) * 2),
            (complete_minus_circulant(6, 7, 1), math.factorial(6)),
            (cycles, 6 ** 3 * math.factorial(3) * 2),  # each 6-cycle's sides kept, the swap
        ):
            assert search._automorphisms(*finder_args(host))[1] == order, host.edges()
            self._check_generators(host)

    def test_worker_invariance(self, monkeypatch):
        # the prefix replay rebuilds each task's lex-leader state, so two
        # workers examine exactly the serial count
        no_trial(monkeypatch)
        monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
        for d, r in ((2, 2), (1, 3)):
            host = complete_minus_circulant(6, 6, d)
            serial = min_max_mono_component(host, r)
            parallel = min_max_mono_component(host, r, workers=2)
            assert parallel.to_json_dict() == serial.to_json_dict()
            for t in (serial.value, serial.value + 1):  # AllSatisfy, Counterexample
                one = exists_coloring_below(host, r, t)
                two = exists_coloring_below(host, r, t, workers=2)
                assert two.to_json_dict() == one.to_json_dict()

    def test_perfect_matching_complement_r3(self):
        # K_{8,8} minus a perfect matching, r = 3, target 6: 487,454,652
        # nodes under twin breaking alone, which finds no twins here,
        # 1,412,394 without the dead-state cache, 1,160,790 with every color
        # below a generator's least allowed one tried, and 1,095,213 with
        # the equality key alone
        out = exists_coloring_below(complete_minus_circulant(8, 8, 1), 3, 6)
        assert (out.kind, out.examined) == ("AllSatisfy", 799580)

    @pytest.mark.parametrize("host", LEX_HOSTS, ids=LEX_IDS)
    def test_lex_elements(self, host):
        # every element maps edges onto edges; under the cap the set is the
        # whole group but the identity, the generators first and compared
        # on every edge, the rest on the first 3E/7; over it, the generators
        elements = search._lex_elements(*finder_args(host))
        perms = [perm for perm, _ in elements]
        self._check_generators(host, perms)
        gens = self._check_generators(host)
        num = host.edge_count
        assert len(set(perms)) == len(perms) and tuple(range(num)) not in perms
        assert elements[:len(gens)] == [(perm, num) for perm in gens]
        order = len(_closure(gens, num))
        if order <= search._GROUP_CAP:
            assert len(elements) == order - 1
            assert {limit for _, limit in elements[len(gens):]} <= {num * 3 // 7}
        else:
            assert len(elements) == len(gens)

    def test_complete_hosts_keep_their_generators(self):
        # the proven orders are larger than the cap, so no closure runs and
        # the walk breaks the generators alone
        for m, n in itertools.combinations_with_replacement(range(1, 10), 2):
            host = complete(m, n)
            if math.factorial(m) * math.factorial(n) * (2 if m == n else 1) <= search._GROUP_CAP:
                continue
            gens, order = search._automorphisms(*finder_args(host))
            assert order > search._GROUP_CAP
            assert search._lex_elements(*finder_args(host)) == [(g, host.edge_count) for g in gens]

    @pytest.mark.parametrize("host", LEX_HOSTS, ids=LEX_IDS)
    def test_group_order_changes_no_element(self, host):
        # deciding by the proven order gives the elements of a closure of
        # the generators, breadth first, kept when it has at most the cap's
        # elements and costs at most the work cap
        num = host.edge_count
        gens = search._automorphisms(*finder_args(host))[0]
        group = _closure(gens, num)
        full = [(perm, num) for perm in gens]
        cost = (len(group) - 1) * len(gens) * num
        if len(group) <= search._GROUP_CAP and cost <= search._SYMMETRY_WORK:
            full += [(perm, num * 3 // 7) for perm in group[1 + len(gens):]]
        assert search._lex_elements(*finder_args(host)) == full

    @pytest.mark.parametrize("host", LEX_HOSTS, ids=LEX_IDS)
    def test_unknown_order_keeps_the_generators(self, monkeypatch, host):
        # a search that stopped early proves no order: no closure runs
        gens = search._automorphisms(*finder_args(host))[0]
        monkeypatch.setattr(search, "_automorphisms", lambda m, n, ends: (gens, None))
        want = [(perm, host.edge_count) for perm in gens]
        assert search._lex_elements(*finder_args(host)) == want

    def test_large_twin_free_group_takes_no_closure(self):
        # circ(5,5,1) has no twins and a group of order 240: its order, not
        # a closure of 65 elements, leaves the generators alone
        host = complete_minus_circulant(5, 5, 1)
        perms, order = search._automorphisms(*finder_args(host))
        assert order == 240
        assert search._lex_elements(*finder_args(host)) == [(p, host.edge_count) for p in perms]

    def test_random_hosts_match_brute_group(self):
        # under both caps the elements and the identity are the whole
        # group the brute-force oracle finds; over either, the generators
        rng = random.Random(37)
        closed = kept = 0
        for i in range(300):
            host = twin_rich_host(rng) if i % 2 else random_host(rng)
            if host is None or math.factorial(host.m) * math.factorial(host.n) > 3000:
                continue
            num = host.edge_count
            elements = search._lex_elements(*finder_args(host))
            gens = [perm for perm, limit in elements if limit == num]
            brute = oracles.brute_automorphisms(host)
            cost = (len(brute) - 1) * len(gens) * num
            if len(brute) <= search._GROUP_CAP and cost <= search._SYMMETRY_WORK:
                rest = [limit for _, limit in elements[len(gens):]]
                assert {tuple(range(num)), *(perm for perm, _ in elements)} == brute
                assert rest == [num * 3 // 7] * (len(brute) - 1 - len(gens))
                closed += 1
            else:
                assert elements == [(perm, num) for perm in gens]
                kept += 1
        assert closed > 50 and kept > 10

    def test_cost_rule_boundary(self):
        # two 20 x 20 hosts with p pairs of twin rows: p = 5 (203 edges,
        # order 32, 5 generators) costs 31 * 5 * 203 = 31,465 entries and
        # closes; p = 6 (199 edges, order 64, 6 generators) would cost
        # 63 * 6 * 199 = 75,222 > 65,536 and keeps its generators
        for p, edges, order, closed in ((5, 203, 32, 31), (6, 199, 64, 6)):
            rng = random.Random(1)
            base = [rng.getrandbits(20) for _ in range(20 - p)]
            host = from_rows(20, 20, [base[i // 2] for i in range(2 * p)] + base[p:])
            gens, found = search._automorphisms(*finder_args(host))
            assert (host.edge_count, found, len(gens)) == (edges, order, p)
            assert len(search._lex_elements(*finder_args(host))) == closed


class TestMinMax:
    def test_one_pool_for_all_probes(self, monkeypatch, pool_sizes):
        # the binary search's probes share the pool its search opened
        host = complete(4, 4)
        serial = min_max_mono_component(host, 2)
        no_trial(monkeypatch)
        monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
        out = min_max_mono_component(host, 2, workers=2)
        assert pool_sizes == [2]
        assert out.to_json_dict() == serial.to_json_dict()

    def test_k22(self):
        out = min_max_mono_component(complete(2, 2), 2)
        assert out.kind == "MinMaxValue" and out.value == 2

    def test_k33_three_colors_cyclic_witness(self):
        out = min_max_mono_component(complete(3, 3), 3)
        assert out.value == 2
        _, cyclic = cyclic_one_factorization(3)
        assert out.witness == cyclic

    def test_k44_two_colors_block_witness(self):
        out = min_max_mono_component(complete(4, 4), 2)
        assert out.value == 4
        assert [c for _, _, c in out.witness.edges()] == BLOCK_K44

    def test_k33_two_colors_regression_fixture(self):
        # not stated anywhere: determined exhaustively once and frozen
        out = min_max_mono_component(complete(3, 3), 2)
        assert out.value == 4
        assert [c for _, _, c in out.witness.edges()] == [0, 0, 1, 0, 0, 1, 1, 1, 0]
        assert largest_mono_component(complete(3, 3), out.witness).order == 4

    def test_agrees_with_naive(self):
        rng = random.Random(41)
        checked = 0
        while checked < 15:
            host = random_host(rng, max_side=3)
            if host is None or host.edge_count == 0 or host.edge_count > 8:
                continue
            r = rng.randint(1, 3)
            out = min_max_mono_component(host, r)
            assert out.value == oracles.brute_minmax(host, r)
            achieved = largest_mono_component(host, out.witness).order
            assert achieved == out.value
            checked += 1

    def test_monotone_in_r(self):
        for host in (complete(3, 3), complete(4, 4), complete_minus_circulant(4, 4, 1)):
            values = [min_max_mono_component(host, r).value for r in (1, 2, 3, 4)]
            assert values == sorted(values, reverse=True)

    def test_budget_exhausted(self):
        out = min_max_mono_component(complete(4, 4), 2, SearchConfig(budget=5))
        assert out.kind == "BudgetExhausted"


class TestParallelDeterminism:
    def test_split_depth_invariance(self, monkeypatch):
        host = complete(4, 4)
        base = exists_coloring_below(host, 2, 5)
        for depth in (0, 1, 2, 3, 6, host.edge_count):
            force_depth(monkeypatch, depth)
            out = exists_coloring_below(host, 2, 5, workers=2)
            assert out.to_json_dict() == base.to_json_dict()

    def test_worker_invariance(self, monkeypatch):
        host = complete(4, 4)
        serial = min_max_mono_component(host, 2, workers=1)
        for depth in (0, 2, host.edge_count):
            force_depth(monkeypatch, depth)
            parallel = min_max_mono_component(host, 2, workers=4)
            assert dumps_canonical(serial.to_json_dict()) == dumps_canonical(
                parallel.to_json_dict()
            )

    def test_random_worker_invariance(self):
        host = complete_minus_circulant(6, 6, 2)
        cfg = SearchConfig(seed=9, budget=6000)
        a = random_search(host, 2, checker=THEOREMS["additive"], cfg=cfg, workers=1)
        b = random_search(host, 2, checker=THEOREMS["additive"], cfg=cfg, workers=4)
        assert dumps_canonical(a.to_json_dict()) == dumps_canonical(b.to_json_dict())


# the additive conclusion for any r and host: without the hypothesis
# counterexamples are reachable
ANY_HALF_HALF = Theorem(
    "additive", 1, None, lambda host, r: None, THEOREMS["additive"].target, half_half=True
)


def _budget_run(mode, host, r, t, checker, cfg, workers):
    if mode == "below":
        return exists_coloring_below(host, r, t, cfg, workers)
    if mode == "minmax":
        return min_max_mono_component(host, r, cfg, workers)
    return exhaustive_verify(host, r, t, checker, cfg, workers)


class TestGlobalBudget:
    """``budget`` caps the nodes of one walk over all edges: from the
    unbounded count E on, the output is the unbounded one, and below it
    (BudgetExhausted, budget + 1), for every forced split depth and worker
    count."""

    @pytest.mark.parametrize(
        "mode, host, r, t, checker",
        [
            ("below", complete(4, 4), 2, 5, None),
            ("below", complete_minus_circulant(5, 5, 1), 2, 6, None),
            ("below", complete_minus_circulant(5, 5, 1), 2, 7, None),
            ("minmax", complete(4, 4), 2, None, None),
            ("minmax", complete_minus_circulant(5, 5, 1), 2, None, None),
            ("minmax", complete(3, 4), 3, None, None),
            ("verify", complete(3, 3), 2, 5, None),
            ("verify", complete(4, 4), 2, None, None),
            ("verify", complete(3, 3), 2, None, THEOREMS["additive"]),
            ("verify", complete_minus_circulant(5, 5, 2), 2, None, ANY_HALF_HALF),
        ],
        ids=["below-k44-t5", "below-c551-t6", "below-c551-t7", "minmax-k44",
             "minmax-c551", "minmax-k34r3", "verify-k33-t5", "verify-k44",
             "verify-additive-k33", "verify-half-half-c552"],
    )
    def test_budget_is_one_global_cap(self, monkeypatch, mode, host, r, t, checker):
        unbounded = _budget_run(mode, host, r, t, checker, SearchConfig(), 1).to_json_dict()
        total = unbounded["examined"]
        for budget in (1, total // 2, total - 1, total, total + 1):
            outs = []
            for d, w in itertools.product((0, 2, host.edge_count), (1, 2)):
                force_depth(monkeypatch, d)
                cfg = SearchConfig(budget=budget)
                outs.append(_budget_run(mode, host, r, t, checker, cfg, w).to_json_dict())
            if budget < total:
                assert (outs[0]["kind"], outs[0]["examined"]) == ("BudgetExhausted", budget + 1)
            else:
                assert outs[0] == unbounded, budget
            assert all(out == outs[0] for out in outs), budget

    def test_min_max_probes_share_the_budget(self):
        # with the whole budget per probe this took 4,530,048 nodes
        host = complete_minus_circulant(8, 8, 1)
        out = min_max_mono_component(host, 3, SearchConfig(budget=1_000_000))
        assert (out.kind, out.examined) == ("BudgetExhausted", 1_000_001)


class TestExhaustiveVerify:
    def test_r2_on_k44_minus_matching(self):
        host = complete_minus_circulant(4, 4, 1)
        out = exhaustive_verify(host, 2, checker=THEOREMS["r2"])
        assert out.kind == "AllSatisfy"

    def test_gy1_on_k33(self):
        out = exhaustive_verify(complete(3, 3), 2, target=3)
        assert out.kind == "AllSatisfy"

    def test_precondition_violated(self):
        host, _ = lower_bound_construction(2, 1, 1)
        with pytest.raises(PreconditionViolated):
            exhaustive_verify(host, 2, checker=THEOREMS["r2"])

    def test_conjecture_checker_precondition(self):
        host, _ = lower_bound_construction(2, 1, 1)
        with pytest.raises(PreconditionViolated):
            exhaustive_verify(host, 2, checker=THEOREMS["conjecture"])

    def test_gy1_needs_complete_host(self):
        host = complete_minus_circulant(4, 4, 1)
        with pytest.raises(PreconditionViolated):
            exhaustive_verify(host, 2, checker=ComponentTargetChecker(Fraction(4)))

    def test_generic_path_additive_k22(self):
        # the half-half conclusion has no order threshold: the first edge
        # closes a star holding half of each side of K_{2,2}, so the walk
        # cuts its one canonical color at the root
        host = complete(2, 2)
        out = exhaustive_verify(host, 2, checker=THEOREMS["additive"])
        assert out.kind == "AllSatisfy"
        assert out.examined == 1

    def test_generic_and_pruned_find_same_witness(self):
        host = complete(3, 3)
        target = Fraction(5)
        pruned = exhaustive_verify(host, 2, target=target)
        # plain canonical enumeration, one coloring at a time
        edges = host.edges()
        generic_witness = None
        for colors in oracles.enum_assignments(edges, 2, True):
            col = coloring_from_triples(
                3, 3, 2, [(x, y, c) for (x, y), c in zip(edges, colors)]
            )
            if largest_mono_component(host, col).order < target:
                generic_witness = col
                break
        assert pruned.kind == "Counterexample"
        assert pruned.witness == generic_witness


def _check_half_half(host, r, canonicalize, thm):
    """``exhaustive_verify`` against one-by-one enumeration of every
    coloring, or with ``canonicalize`` of those whose colors first appear in
    increasing order: unbounded, the same kind and lex-least witness; at
    budgets 1, stop - 1, stop (stop: the colorings enumeration reads) and
    one below the unbounded node count, at most budget + 1 nodes, and the
    unbounded outcome unless the budget ran out.  Returns the kinds seen."""
    kind, total, want = oracles.brute_half_half_verify(host, r, canonicalize)
    unbounded = exhaustive_verify(host, r, checker=thm)
    colors = unbounded.witness and tuple(c for _, _, c in unbounded.witness.edges())
    assert (unbounded.kind, colors) == (kind, want), (host.edges(), r, canonicalize)
    stop = total - 1 if kind == "Counterexample" else total
    kinds = {unbounded.kind}
    for budget in {b for b in (1, stop - 1, stop, unbounded.examined - 1) if b >= 1}:
        fast = exhaustive_verify(host, r, checker=thm, cfg=SearchConfig(budget=budget))
        assert fast.examined <= budget + 1, (host.edges(), r, canonicalize, budget)
        if fast.kind != "BudgetExhausted":
            assert fast.to_json_dict() == unbounded.to_json_dict(), budget
        kinds.add(fast.kind)
    return kinds


class TestHalfHalfSearch:
    def test_matches_plain_enumeration(self):
        rng = random.Random(97)
        kinds = set()
        checked = 0
        while checked < 60:
            host = random_host(rng)
            r = rng.randint(1, 3)
            if host is None or host.edge_count > 12 or r**host.edge_count > 4096:
                continue
            canonicalize = rng.random() < 0.5
            kinds |= _check_half_half(host, r, canonicalize, ANY_HALF_HALF)
            checked += 1
        assert kinds == {"Counterexample", "AllSatisfy", "BudgetExhausted"}

    @pytest.mark.parametrize(
        "host, r",
        [
            (complete(3, 3), 2),
            (complete(3, 3), 3),
            (complete(2, 4), 2),
            (lower_bound_construction(2, 1, 1)[0], 2),
            (lower_bound_construction(2, 2, 1)[0], 2),
            (complete_minus_circulant(4, 4, 1), 2),
            (complete_minus_circulant(4, 4, 2), 3),
            (complete_minus_circulant(3, 4, 1), 2),
        ],
    )
    def test_twin_hosts_match_plain_enumeration(self, host, r):
        # the lex-leader cut of the host's automorphisms, side swaps among
        # them when m = n, prunes the walk, yet the kind and the lex-least
        # witness are those of enumerating every coloring
        kinds = _check_half_half(host, r, True, ANY_HALF_HALF)
        assert "BudgetExhausted" in kinds and len(kinds) == 2

    def test_deep_host_is_not_recursive(self):
        # 1,600 edges: one stack frame per edge would overflow the stack
        host = complete(40, 40)
        out = exhaustive_verify(
            host, 2, checker=THEOREMS["additive"], cfg=SearchConfig(budget=1000)
        )
        assert (out.kind, out.examined) == ("BudgetExhausted", 1001)


class TestRandomSearch:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_hit_after_first_block_worker_invariant(self, seed):
        # the first violation lies past block 0 (2048 samples), so the
        # lazy block stream and the rank-order merge both come into play:
        # by the oracle stream, seed 1 first hits at sample 8,865 (block 4)
        # and seed 2 at 6,119 (block 2)
        host = complete_minus_circulant(7, 7, 4)
        cfg = SearchConfig(seed=seed, budget=20_000)
        a = random_search(host, 2, target=5, cfg=cfg, workers=1)
        b = random_search(host, 2, target=5, cfg=cfg, workers=2)
        assert a.kind == "Counterexample" and 2048 < a.examined < 20_000
        assert largest_mono_component(host, a.witness).order < 5
        assert dumps_canonical(a.to_json_dict()) == dumps_canonical(b.to_json_dict())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_default_budget_stops_at_first_hit(self, workers):
        # the default budget is 1 << 62 samples; the blocks must be drawn
        # lazily for this to return at the oracle's first violating sample
        # (a coloring of K_{2,2} with no monochromatic spanning tree) in
        # bounded memory
        host = complete(2, 2)
        first = next(
            i + 1
            for i, colors in enumerate(oracles.sample_colors(0, 0, 4, 2, 2048))
            if oracles.max_mono_order(2, 2, host.edges(), colors, 2) < 4
        )
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from fractions import Fraction\n"
            "from monocomp import SearchConfig, complete, random_search\n"
            "out = random_search(complete(2, 2), 2, target=Fraction(4),\n"
            f"                    cfg=SearchConfig(seed=0), workers={workers})\n"
            "print(out.kind, out.examined)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        res = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["Counterexample", str(first)]

    @pytest.mark.parametrize("search", [exhaustive_verify, random_search])
    def test_zero_colors_rejected(self, search):
        with pytest.raises(PreconditionViolated, match="r >= 1"):
            search(complete(2, 2), 0)

    def test_exact_search_input_errors(self):
        # an edgeless host first, then r, then the target, as ValueError
        edgeless = from_edge_list(2, 2, [])
        for args in ((edgeless, 0, 1), (edgeless, 2, 1)):
            with pytest.raises(EmptyGraph):
                exists_coloring_below(*args)
        with pytest.raises(EmptyGraph):
            min_max_mono_component(edgeless, 0)
        with pytest.raises(ValueError, match="r >= 1"):
            exists_coloring_below(complete(2, 2), 0, 1)
        with pytest.raises(ValueError, match="r >= 1"):
            min_max_mono_component(complete(2, 2), 0)
        with pytest.raises(ValueError, match="target must be at least 2"):
            exists_coloring_below(complete(2, 2), 2, 1)
        for target in (1, -1):  # the sampler takes an order target by the same rule
            with pytest.raises(ValueError, match="target must be at least 2"):
                random_search(complete(2, 2), 2, target, cfg=SearchConfig(budget=10))
        # a theorem's own target, (m + n)/r, is named with the theorem
        for run in (exhaustive_verify, random_search):
            with pytest.raises(ValueError, match="^the conjecture target 1/50 must be at least 2$"):
                run(complete(3, 3), 300, checker=THEOREMS["conjecture"], cfg=SearchConfig(budget=10))

    def test_budget_one(self):
        host = complete(3, 3)
        out = random_search(host, 2, target=Fraction(2), cfg=SearchConfig(budget=1))
        assert out.examined == 1

    def test_budget_is_fixed_after_its_check(self):
        # a budget lowered to 0 or below after the check once made the
        # sampler report AllSatisfy having examined 0 or fewer samples
        cfg = SearchConfig(seed=1, budget=10)
        for budget in (0, -5):
            with pytest.raises(AttributeError):
                cfg.budget = budget
        out = random_search(complete(3, 3), 2, cfg=cfg)
        assert (out.kind, out.examined) == ("AllSatisfy", 10)

    def test_same_seed_identical(self):
        host = complete_minus_circulant(6, 6, 2)
        cfg = SearchConfig(seed=5, budget=500)
        a = random_search(host, 2, checker=THEOREMS["additive"], cfg=cfg)
        b = random_search(host, 2, checker=THEOREMS["additive"], cfg=cfg)
        assert dumps_canonical(a.to_json_dict()) == dumps_canonical(b.to_json_dict())

    def test_counterexample_is_sound_and_indexed(self):
        # target so high that the very first sample violates it
        host = complete(3, 3)
        out = random_search(host, 2, target=Fraction(100), cfg=SearchConfig(seed=1, budget=10))
        assert out.kind == "Counterexample"
        assert out.examined == 1
        assert largest_mono_component(host, out.witness).order < 100

    def test_checker_violation_reproducible(self):
        # sparse host: some sampled 2-colorings keep all components small
        host = complete_minus_circulant(4, 4, 3)
        cfg = SearchConfig(seed=3, budget=2000)
        out = random_search(host, 2, target=Fraction(4), cfg=cfg)
        if out.kind == "Counterexample":
            assert largest_mono_component(host, out.witness).order < 4
            again = random_search(host, 2, target=Fraction(4), cfg=cfg)
            assert again.examined == out.examined
            assert again.witness == out.witness


class TestSampleDraw:
    """The byte-table draw of ``_random_task`` against the byte-by-byte
    oracle stream.  r = 256 rejects no byte and has 255 as a color, r = 129
    rejects about half of them, r = 300 draws with ``randrange``."""

    @pytest.mark.parametrize("block", [0, 1])
    @pytest.mark.parametrize("r", [1, 2, 3, 5, 129, 255, 256, 300])
    def test_stream_matches_oracle_and_is_uniform(self, monkeypatch, r, block):
        host = complete(5, 10)
        drawn = []

        def record(colors, *tables):
            drawn.append(tuple(colors))
            return True

        monkeypatch.setattr(search, "_sample_meets", record)
        ends, _, rule = search._packed(host, (0, 0, 2))
        args = (search._row_chunks(ends), rule, len(ends), r, 11, block, 2048)
        assert search._random_task(args) == (None, None)
        assert drawn == oracles.sample_colors(11, block, 50, r, 2048)
        counts = Counter(itertools.chain.from_iterable(drawn))
        assert all(0 <= c < r for c in counts)
        # each color's count is within 5 sigma of draws / r over 102,400
        # draws: (r count - draws)^2 <= 25 draws (r - 1)
        draws = 2048 * 50
        assert all((r * counts[c] - draws) ** 2 <= 25 * draws * (r - 1) for c in range(r))


def onehot(r):
    """The sampler's per-color byte tables: byte c reads b"1", others b"0"."""
    return [bytes(49 if b == c else 48 for b in range(256)) for c in range(min(r, 256))]


@st.composite
def sampled_instances(draw):
    """A host with m <= 7 (some rows left empty) and n <= 7, up to 20
    (rows of two or three 8-edge chunks) or above 30, a colored sample over
    a few of r colors, and a rule: an order target or half-half."""
    m = draw(st.integers(1, 7))
    n = draw(st.one_of(st.integers(1, 7), st.integers(9, 20), st.integers(31, 40)))
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    empty = set(rng.sample(range(m), rng.randint(0, m - 1)))
    density = rng.choice([0.2, 0.6, 1.0])
    edges = [(x, y) for x in range(m) if x not in empty for y in range(n) if rng.random() < density]
    assume(edges)
    host = from_edge_list(m, n, edges)
    r = draw(st.sampled_from([1, 2, 3, 5, 9, 17, 300]))
    palette = rng.sample(range(r), rng.randint(1, min(r, 6)))
    colors = rng.choices(palette, [rng.random() for _ in palette], k=len(edges))
    half_half = draw(st.booleans())
    need = ((m + 1) // 2, (n + 1) // 2, 0) if half_half else (0, 0, draw(st.integers(2, m + n + 1)))
    return host, r, colors, need


class TestSampleKernel:
    @given(sampled_instances())
    @settings(max_examples=300, deadline=None)
    def test_matches_oracles(self, instance):
        # the bit-parallel check against plain BFS, on list colorings and,
        # for r <= 256, on the byte strings the sampler draws
        host, r, colors, (need_x, need_y, order) = instance
        m, n, edges = host.m, host.n, host.edges()
        if order:
            want = oracles.max_mono_order(m, n, edges, colors, r) >= order
        else:
            want = oracles.has_half_half(m, n, edges, colors, r)
        ends, _, rule = search._packed(host, (need_x, need_y, order))
        chunks = search._row_chunks(ends)
        assert search._sample_meets(colors, None, chunks, rule) == want
        if r <= 256:
            assert search._sample_meets(bytes(colors), onehot(r), chunks, rule) == want


    def test_absent_colors_are_not_parsed(self):
        # K_{5,10} has 50 edges: at r = 256 a sample looks up the table of
        # each color it holds, and of no other
        looked = []

        class Tables(list):
            def __getitem__(self, c):
                looked.append(c)
                return super().__getitem__(c)

        ends, _, rule = search._packed(complete(5, 10), (0, 0, 16))  # never met: every color read
        colors = bytes(oracles.sample_colors(3, 0, 50, 256, 1)[0])
        assert not search._sample_meets(colors, Tables(onehot(256)), search._row_chunks(ends), rule)
        assert sorted(looked) == sorted(set(colors))

    @pytest.mark.parametrize("r", [2, 3, 16, 256, 300])
    def test_more_colors_than_edges(self, r):
        # K_{3,4} has 12 edges: from r = 16 on a sample reads only its own
        # colors; the first sample whose components stay below t is the
        # witness, after as many samples, as in the drawn stream
        host = complete(3, 4)
        edges = host.edges()
        samples = oracles.sample_colors(5, 0, len(edges), r, 200)
        orders = [oracles.max_mono_order(3, 4, edges, colors, r) for colors in samples]
        for t in (3, 4, 5):
            first = next((i for i, order in enumerate(orders) if order < t), None)
            out = random_search(host, r, target=t, cfg=SearchConfig(seed=5, budget=200))
            if first is None:
                assert (out.kind, out.examined) == ("AllSatisfy", 200)
            else:
                colors = tuple(c for _, _, c in out.witness.edges())
                assert (out.kind, out.examined, colors) == ("Counterexample", first + 1, samples[first])


class TestCheckersAgree:
    def test_fast_paths_match_reference(self):
        # the sampler's kernel, called through each theorem's rule on byte
        # and list colorings, against the BFS oracles and the analysis
        # verdicts (bitmask component sweep).  Odd sides tell ceil(m/2)
        # from floor(m/2), 7/2 is a fractional target, and one set of chunk
        # tables serves every sample of a host, as in a block.  The star at
        # x = 0 forms components with many Y- and too few X-vertices, whose
        # packed weight clears the half-half threshold
        rng = random.Random(61)
        hosts = [
            complete_minus_circulant(4, 4, 1),
            complete_minus_circulant(5, 7, 4),
            complete(3, 4),
            from_edge_list(4, 4, [(0, y) for y in range(4)] + [(1, 0), (2, 1), (3, 2)]),
        ]
        for host, r in itertools.product(hosts, (1, 2, 3)):
            m, n, edges = host.m, host.n, host.edges()
            verdicts = {
                "r2": lambda col: check_theorem_two_colors(host, col).holds,
                "conjecture": lambda col: check_conjecture_instance(host, col, r).holds,
                "additive": lambda col: check_additive_theorem(host, col).holds,
            }
            cases = [
                (
                    ComponentTargetChecker(t, require_complete=False),
                    lambda col, t=t: largest_mono_component(host, col).order >= t,
                )
                for t in (Fraction(4), Fraction(7, 2))
            ] + [
                (THEOREMS[name], None if THEOREMS[name].r_error(r) else verdict)
                for name, verdict in verdicts.items()
            ]
            for thm, verdict in cases:
                t = thm.target(m, n, r)
                ends, _, rule = search._packed(host, thm.needs(m, n, r))
                chunks = search._row_chunks(ends)

                def oracle(colors):
                    if thm.half_half:
                        return oracles.has_half_half(m, n, edges, colors, r)
                    return oracles.max_mono_order(m, n, edges, colors, r) >= t

                for _ in range(60):
                    weights = [rng.random() for _ in range(r)]
                    colors = rng.choices(range(r), weights, k=len(edges))
                    got = search._sample_meets(bytes(colors), onehot(r), chunks, rule)
                    assert got == oracle(colors)
                    assert search._sample_meets(colors, None, chunks, rule) == got
                    if verdict is not None:
                        col = coloring_from_triples(
                            m, n, r, [(x, y, c) for (x, y), c in zip(edges, colors)]
                        )
                        assert got == verdict(col)
                if thm.r_error(r) is None:
                    # random_search stops at the first sample the oracle
                    # rejects, drawn as block 0 draws it
                    samples = oracles.sample_colors(7, 0, len(edges), r, 300)
                    first = next(
                        (i + 1 for i, colors in enumerate(samples) if not oracle(colors)), 300
                    )
                    out = random_search(host, r, checker=thm, cfg=SearchConfig(seed=7, budget=300))
                    assert out.examined == first


class TestTheoremRegistry:
    def test_rules_on_r(self):
        assert [THEOREMS[name].r_error(2) for name in THEOREMS] == [None] * 6
        assert THEOREMS["gy1"].r_error(0) == "need r >= 1"
        assert THEOREMS["conjecture"].r_error(1) == "need r >= 2"
        assert THEOREMS["r2"].r_error(3) == THEOREMS["additive"].r_error(3)
        assert THEOREMS["gy1"].r_error(5) is None and THEOREMS["r2"].r_error(5)

    def test_checker_constructors(self):
        # the constructors by checker name build registry entries
        assert AdditiveChecker() == THEOREMS["additive"]
        assert ComponentTargetChecker() == THEOREMS["gy1"]
        relaxed = ComponentTargetChecker(Fraction(8), require_complete=False)
        host = complete_minus_circulant(8, 8, 2)
        assert relaxed.target(8, 8, 2) == 8 and relaxed.hypothesis(host, 2) is None
        assert THEOREMS["gy1"].hypothesis(host, 2) is not None
        cfg = SearchConfig(seed=4, budget=300)
        assert random_search(host, 2, checker=relaxed, cfg=cfg).to_json_dict() == (
            random_search(host, 2, target=8, cfg=cfg).to_json_dict()
        )


class TestPackedRule:
    def test_packed_test_matches_direct_test(self):
        # w = x + weight * y meets the rule iff x >= need_x, y >= need_y
        # and x + y >= order, for every theorem and component shape
        theorems = [*THEOREMS.values(), ComponentTargetChecker(Fraction(7, 2))]
        for thm, r, m, n in itertools.product(theorems, (1, 2, 3), range(7), range(7)):
            need_x, need_y, order = need = thm.needs(m, n, r)
            if not (m and n):  # a host with an empty side has no edge to search
                with pytest.raises(EmptyGraph):
                    search._packed(from_edge_list(m, n, []), need)
                continue
            _, _, (weight, threshold, min_x) = search._packed(complete(m, n), need)
            for x, y in itertools.product(range(m + 1), range(n + 1)):
                w = x + weight * y
                direct = x >= need_x and y >= need_y and x + y >= order
                assert (w >= threshold and w % weight >= min_x) == direct, (thm.name, r, m, n, x, y)


class TestTheoremSweeps:
    def test_two_color_theorem_on_conforming_hosts(self):
        # hosts meeting the strict 2/3 degree bounds on both sides; the
        # exhaustive sweep must come back clean on every one of them
        hosts = [
            complete(3, 3),
            complete(3, 4),
            complete(4, 4),
            complete_minus_circulant(4, 4, 1),
        ]
        k44_minus_edge = from_edge_list(
            4, 4, [(x, y) for x in range(4) for y in range(4) if (x, y) != (0, 0)]
        )
        k44_minus_two = from_edge_list(
            4,
            4,
            [(x, y) for x in range(4) for y in range(4) if (x, y) not in ((0, 0), (1, 1))],
        )
        hosts += [k44_minus_edge, k44_minus_two]
        for host in hosts:
            out = exhaustive_verify(host, 2, checker=THEOREMS["r2"])
            assert out.kind == "AllSatisfy", (host.m, host.n, host.edge_count)

    def test_classical_bound_on_complete_hosts(self):
        # every r-coloring of K_{m,n} owns a component of order (m+n)/r,
        # so the min-max can never dip below it
        for m in range(2, 5):
            for n in range(m, 5):
                for r in (2, 3):
                    out = min_max_mono_component(complete(m, n), r)
                    assert out.value * r >= m + n

    def test_k34_minmax_matches_naive(self):
        host = complete(3, 4)
        out = min_max_mono_component(host, 2)
        assert out.value == oracles.brute_minmax(host, 2)


class TestAlphaFrontier:
    def test_empty_grid(self):
        table = alpha_frontier(16, [])
        assert table["rows"] == [] and table["exploratory"] is True

    def test_one_eighth_row_clean(self):
        table = alpha_frontier(
            16, [Fraction(1, 8)], cfg=SearchConfig(seed=2, budget=1500)
        )
        (row,) = table["rows"]
        assert row["verdict"] == "no-counterexample-found"
        assert row["hypothesis_satisfiable"]
        assert any(h["m"] == 8 and h["n"] == 8 and h["d"] == 2 for h in row["hosts"])

    def test_large_alpha_finds_counterexample(self):
        # with this much slack the host is sparse and splits easily
        table = alpha_frontier(
            16, [Fraction(3, 8)], cfg=SearchConfig(seed=2, budget=4000)
        )
        (row,) = table["rows"]
        assert row["verdict"] == "counterexample"

    @pytest.mark.parametrize("total_n", [0, 1, 2, -4])
    def test_infeasible_total_rejected(self, total_n):
        with pytest.raises(ValueError, match="total_n >= 3"):
            alpha_frontier(total_n, [Fraction(1, 8)])

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            alpha_frontier(16, [Fraction(3, 2)])
