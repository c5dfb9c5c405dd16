"""The frontier engine against the oracles, and its pinned tree shape.

The frontier engine is the only walk of the EPivoter enumeration
tree, for both pivot rules and for both leaf outputs (set sizes for
global counts, vertex lists for local counts).  These tests check it
three ways:

* counts against the brute-force oracle (seeded ER + Chung–Lu sweeps,
  serial and parallel, global and per-vertex) and against the golden
  tables;
* the tree itself, through literal traversal counters (nodes, leaves,
  branch and prune tallies) recorded from the node-at-a-time walk this
  engine replaced, so any change to the tree shows up as a diff;
* budgets, which trip exactly when the tree outgrows ``node_budget``.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.brute import count_all_bicliques_brute, local_counts_brute
from repro.core.epivoter import (
    CountBudgetExceeded,
    EPivoter,
    _local_leaf_visitor,
    count_local,
)
from repro.core.frontier import DEFAULT_BATCH_CAP, FrontierGraph, LeafSink, run_frontier
from repro.graph.datasets import load_dataset
from repro.graph.generators import chung_lu_bipartite, erdos_renyi_bipartite
from repro.obs.registry import MetricsRegistry

from .conftest import complete_bigraph, random_bigraph
from .test_golden_counts import GOLDEN

# Fast-to-count golden datasets used for the parallel sweep; the full
# serial sweep below covers all eight.
PARALLEL_DATASETS = ["DBLP", "rating-movielens", "Github"]

#: Traversal counters pinned below, in this order.
COUNTERS = (
    "nodes_expanded",
    "leaves",
    "pivot_branches",
    "edge_branches",
    "prune.size_bound",
    "prune.reach_left",
    "prune.reach_right",
)

#: ``PINNED[seed][pivot]`` — one entry per graph of ``_random_models(seed)``,
#: each ``(count_all(4, 4) counters, count_single(3, 3) counters)`` in
#: ``COUNTERS`` order (``count_single`` without the core reduction).
#: ``count_local_many(LOCAL_PAIRS)`` prunes with the same bounds as
#: ``count_all(4, 4)``, so it must hit the first tuple too.
PINNED = {
    0: {
        "product": [
            ((0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0)),
            ((100, 73, 27, 3, 0, 0, 0), (81, 3, 8, 3, 0, 39, 31)),
            ((281, 189, 92, 29, 0, 0, 0), (235, 32, 46, 29, 0, 82, 75)),
        ],
        "exact": [
            ((0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0)),
            ((101, 74, 27, 4, 0, 0, 0), (82, 2, 8, 4, 0, 40, 32)),
            ((302, 211, 91, 51, 0, 0, 0), (256, 20, 45, 51, 0, 96, 95)),
        ],
    },
    1: {
        "product": [
            ((47, 27, 20, 0, 0, 0, 0), (37, 5, 10, 0, 0, 20, 2)),
            ((125, 88, 37, 9, 0, 0, 0), (106, 1, 18, 9, 0, 55, 32)),
            ((279, 187, 92, 27, 0, 0, 0), (230, 28, 43, 27, 0, 85, 74)),
        ],
        "exact": [
            ((47, 27, 20, 0, 0, 0, 0), (37, 5, 10, 0, 0, 20, 2)),
            ((125, 88, 37, 9, 0, 0, 0), (106, 1, 18, 9, 0, 55, 32)),
            ((302, 210, 92, 50, 0, 0, 0), (253, 14, 43, 50, 0, 103, 93)),
        ],
    },
    2: {
        "product": [
            ((0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0)),
            ((140, 94, 46, 10, 0, 0, 0), (118, 6, 24, 10, 0, 55, 33)),
            ((267, 173, 94, 13, 0, 0, 0), (214, 25, 41, 13, 0, 83, 65)),
        ],
        "exact": [
            ((0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0)),
            ((145, 99, 46, 15, 0, 0, 0), (123, 2, 24, 15, 0, 60, 37)),
            ((290, 196, 94, 36, 0, 0, 0), (237, 14, 41, 36, 0, 98, 84)),
        ],
    },
}


#: Local-count pairs whose size bounds are ``count_all(4, 4)``'s
#: ``(4, 4, 1, 1)``.
LOCAL_PAIRS = [(1, 1), (4, 4)]


def _random_models(seed: int):
    """One small random, one ER and one Chung–Lu instance per seed."""
    rng = random.Random(seed)
    yield random_bigraph(rng, max_left=10, max_right=10)
    yield erdos_renyi_bipartite(20, 16, 0.25, seed=seed)
    yield chung_lu_bipartite(40, 40, 160, seed=seed)


def _counters(obs: MetricsRegistry) -> tuple:
    return tuple(obs.counters.get(f"epivoter.{name}", 0) for name in COUNTERS)


class TestRandomSweep:
    """Seeded ER + Chung–Lu sweep, p,q <= 4, serial and parallel."""

    @pytest.mark.parametrize("seed", range(5))
    def test_counts_bit_identical(self, seed):
        for g in _random_models(seed):
            brute = count_all_bicliques_brute(g, 4, 4)
            for pivot in ("product", "exact"):
                assert EPivoter(g, pivot=pivot).count_all(4, 4) == brute, pivot

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_frontier_matches_serial_scalar(self, workers):
        # The reference is the brute-force oracle, for the global
        # matrix and for serial and parallel per-vertex counts; each
        # biclique has p left vertices, so the left per-vertex counts
        # sum to p times the (p, q) cell.
        g = erdos_renyi_bipartite(30, 24, 0.2, seed=workers)
        frontier = EPivoter(g).count_all(4, 4, workers=workers)
        assert frontier == count_all_bicliques_brute(g, 4, 4)
        for p, q in ((2, 2), (3, 2), (4, 4)):
            brute = local_counts_brute(g, p, q)
            assert count_local(g, p, q) == brute, (p, q)
            assert count_local(g, p, q, workers=workers) == brute, (p, q)
            assert frontier[p, q] * p == sum(brute[0]), (p, q)

    @pytest.mark.parametrize("seed", range(3))
    def test_traversal_counters_bit_identical(self, seed):
        # Same tree => same nodes/leaves/branch/prune tallies, for both
        # pivot rules, an unpruned and a pruned traversal, and for the
        # local walk, which carries vertex ids through the same tree.
        for pivot, expected in PINNED[seed].items():
            for g, (want_all, want_single) in zip(_random_models(seed), expected):
                engine = EPivoter(g, pivot=pivot)
                obs = MetricsRegistry()
                engine.count_all(4, 4, obs=obs)
                assert _counters(obs) == want_all, pivot
                obs = MetricsRegistry()
                engine.count_local_many(LOCAL_PAIRS, obs=obs)
                assert _counters(obs) == want_all, pivot
                obs = MetricsRegistry()
                engine.count_single(3, 3, use_core=False, obs=obs)
                assert _counters(obs) == want_single, pivot


class TestGoldenDatasets:
    """All eight golden datasets, frontier serial and parallel."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_frontier_matches_golden_table(self, name):
        graph = load_dataset(name)
        counts = EPivoter(graph).count_all(4, 4)
        for (p, q), expected in GOLDEN[name].items():
            assert counts[p, q] == expected, (name, p, q)

    @pytest.mark.parametrize("name", PARALLEL_DATASETS)
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_frontier_matches_golden_table(self, name, workers):
        graph = load_dataset(name)
        counts = EPivoter(graph).count_all(4, 4, workers=workers)
        for (p, q), expected in GOLDEN[name].items():
            assert counts[p, q] == expected, (name, p, q)


class TestBudgetEquivalence:
    """Budgets trip exactly at the tree size, for both leaf outputs:
    size-level counts and local (vertex-identity) counts."""

    def test_raise_boundary_is_identical(self):
        # The (3, 3) tree of this graph has 87 nodes (product pivot),
        # pinned from the node-at-a-time walk.
        g = erdos_renyi_bipartite(16, 14, 0.3, seed=17)
        obs = MetricsRegistry()
        EPivoter(g).count_single(3, 3, use_core=False, obs=obs)
        nodes = obs.counters["epivoter.nodes_expanded"]
        assert nodes == 87
        for budget in (nodes, nodes + 1):
            EPivoter(g).count_single(3, 3, use_core=False, node_budget=budget)
        for budget in (1, nodes - 1):
            with pytest.raises(CountBudgetExceeded):
                EPivoter(g).count_single(
                    3, 3, use_core=False, node_budget=budget
                )

    def test_local_raise_boundary_is_identical(self):
        g = erdos_renyi_bipartite(16, 14, 0.3, seed=17)
        obs = MetricsRegistry()
        expected = EPivoter(g).count_local_many(LOCAL_PAIRS, obs=obs)
        nodes = obs.counters["epivoter.nodes_expanded"]
        assert nodes > 1
        bounded = EPivoter(g).count_local_many(LOCAL_PAIRS, node_budget=nodes)
        assert bounded == expected
        with pytest.raises(CountBudgetExceeded):
            EPivoter(g).count_local_many(LOCAL_PAIRS, node_budget=nodes - 1)

    @staticmethod
    def _walk(walk: str, g, **budgets):
        engine = EPivoter(g)
        if walk == "frontier":
            return engine.count_single(2, 2, use_core=False, **budgets)
        return engine.count_local_many([(2, 2)], **budgets)

    @pytest.mark.parametrize("walk", ["local", "frontier"])
    def test_tiny_node_budget_trips(self, walk):
        with pytest.raises(CountBudgetExceeded):
            self._walk(walk, complete_bigraph(8, 8), node_budget=3)

    @pytest.mark.parametrize("walk", ["local", "frontier"])
    def test_zero_time_budget_trips_before_traversal(self, walk):
        with pytest.raises(CountBudgetExceeded):
            self._walk(walk, complete_bigraph(8, 8), time_budget=0.0)

    def test_count_local_many_accepts_budgets(self):
        g = complete_bigraph(8, 8)
        engine = EPivoter(g)
        with pytest.raises(CountBudgetExceeded):
            engine.count_local_many([(2, 2)], node_budget=3)
        with pytest.raises(CountBudgetExceeded):
            engine.count_local_many([(2, 2)], time_budget=0.0)
        # Generous budgets leave the result untouched.
        bounded = engine.count_local_many(
            [(2, 2)], node_budget=10**9, time_budget=3600.0
        )
        assert bounded == engine.count_local_many([(2, 2)])

    def test_count_local_many_budget_trips_in_parallel(self):
        g = complete_bigraph(8, 8)
        with pytest.raises(CountBudgetExceeded):
            EPivoter(g).count_local_many(
                [(2, 2)], workers=2, node_budget=3
            )


class TestModeSelection:
    """There is no engine switch: size-level counts run the frontier
    for both pivot rules (small graphs: see ``test_properties``)."""

    def test_frontier_emits_batch_counters(self):
        g = complete_bigraph(8, 8)
        for pivot in ("product", "exact"):
            obs = MetricsRegistry()
            EPivoter(g, pivot=pivot).count_all(3, 3, obs=obs)
            assert obs.counters["epivoter.frontier_batches"] >= 1, pivot
            assert obs.gauges["epivoter.frontier_max_width"] >= 1, pivot
            assert obs.gauges["epivoter.arena_bytes"] >= 1, pivot

    def test_arena_gauge_counts_id_arenas(self):
        # Local counts walk the same tree but carry the pivot and held
        # vertex ids, which the arena gauge must include.
        g = chung_lu_bipartite(40, 40, 160, seed=1)
        engine = EPivoter(g)
        sizes = MetricsRegistry()
        engine.count_all(4, 4, obs=sizes)
        local = MetricsRegistry()
        engine.count_local_many(LOCAL_PAIRS, obs=local)
        assert (
            local.counters["epivoter.nodes_expanded"]
            == sizes.counters["epivoter.nodes_expanded"]
        )
        assert (
            local.gauges["epivoter.arena_bytes"]
            > sizes.gauges["epivoter.arena_bytes"]
        )


class TestBatchGeometry:
    """Splits and merges move the vertex-id arenas with their nodes."""

    @pytest.mark.parametrize("batch_cap", [1, 7, DEFAULT_BATCH_CAP])
    def test_local_counts_independent_of_batch_cap(self, batch_cap):
        g, _, _ = chung_lu_bipartite(40, 40, 160, seed=2).degree_ordered()
        result = {(2, 2): ([0] * g.n_left, [0] * g.n_right)}
        run_frontier(
            FrontierGraph(g),
            list(g.edges()),
            LeafSink(_local_leaf_visitor(result)),
            bounds=(2, 2, 2, 2),
            batch_cap=batch_cap,
        )
        assert result[(2, 2)] == local_counts_brute(g, 2, 2)
