"""Acceptance gate: ten end-to-end criteria, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines inline.
"""
import math
import random
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np

from multicrossing import (
    Election,
    candidate_deletion,
    candidate_partition,
    emit_election,
    exact_coloring,
    fully_single_crossing,
    implement_clique,
    implement_even_cycle,
    implement_general,
    implement_path,
    implement_permutation_graph,
    implement_tree,
    max_antichain,
    minimum_chain_cover,
    multicrossing_graph,
    ramsey_extract,
    recognize_permutation,
    reduce_coloring,
    reduce_independent_set,
    transitive_orientation,
)
from multicrossing import bruteforce as bf
from multicrossing.constructions import cycle_graph, path_graph
from multicrossing.generate import (
    random_comparability_graph,
    random_election,
    random_graph,
    random_permutation_diagram,
    random_tree,
)
from multicrossing.graphs import UndirectedGraph


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL - {desc}")
        raise
    print(f"criterion {num:2d}: PASS - {desc}")


def test_criterion_1_table_fixtures(fixture_text):
    with criterion(1, "published table fixtures reproduced byte-exactly"):
        start = time.monotonic()

        def body(name):
            # drop the fixture's leading comment line
            return "\n".join(fixture_text(name).splitlines()[1:]) + "\n"

        assert emit_election(implement_path(6).election) == body("table1_left.elec")
        assert emit_election(implement_even_cycle(6).election) == body(
            "table1_right.elec")
        assert emit_election(fully_single_crossing(7)) == fixture_text("table2.elec")
        assert time.monotonic() - start < 1.0


def test_criterion_2_constructive_round_trip():
    with criterion(2, "general construction round-trips 200 random graphs"):
        start = time.monotonic()
        rng = random.Random(20240)
        for _ in range(200):
            v = rng.randint(1, 60)
            g = random_graph(v, rng.choice([0.1, 0.5, 0.9]), rng=rng)
            result = implement_general(g)
            assert multicrossing_graph(result.election) == g
            assert result.voters_used <= 2 * v + 1
        assert time.monotonic() - start < 30.0


def test_criterion_3_family_round_trips():
    with criterion(3, "path/cycle/tree/clique constructions all round-trip"):
        for s in range(2, 101):
            assert multicrossing_graph(implement_path(s).election) == path_graph(s)
        for s in range(4, 101, 2):
            assert multicrossing_graph(
                implement_even_cycle(s).election) == cycle_graph(s)
        rng = random.Random(3)
        for _ in range(20):
            t = random_tree(rng.randint(2, 60), rng=rng)
            assert multicrossing_graph(implement_tree(t).election) == t
        for s in (2, 9, 17, 30):
            names = [str(i) for i in range(1, s + 1)]
            got = multicrossing_graph(implement_clique(names).election)
            assert got.edges == frozenset(combinations(sorted(names), 2))


def test_criterion_4_fully_single_crossing_properties():
    with criterion(4, "fully single-crossing profiles for m in 2..100"):
        for m in range(2, 101):
            e = fully_single_crossing(m)
            assert e.n == m + 1
            assert e.votes[-1] == tuple(reversed(e.votes[0]))
            idx = {c: i for i, c in enumerate(e.candidates)}
            pos = np.array([[0] * m for _ in range(e.n)])
            for r, vote in enumerate(e.votes):
                for p, c in enumerate(vote):
                    pos[r][idx[c]] = p
            ai, bi = np.triu_indices(m, k=1)
            before = pos[:, ai] < pos[:, bi]
            flips = (before[:-1] != before[1:]).sum(axis=0)
            assert (flips == 1).all()
            swaps = sum(
                sum(1 for i in range(m) if v1[i] != v2[i]) // 2
                for v1, v2 in zip(e.votes, e.votes[1:])
            )
            assert swaps == m * (m - 1) // 2


def test_criterion_5_three_implementability_sweep():
    with criterion(5, "3-implementable => comparability over all 5-vertex graphs"):
        names = [str(i) for i in range(1, 6)]
        pairs = list(combinations(names, 2))
        for mask in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
            g = UndirectedGraph(names, edges)
            if bf.bf_is_3_implementable(g):
                assert bf.bf_transitive_orientation(g)
        assert bf.bf_is_3_implementable(cycle_graph(5)) is False
        assert bf.bf_is_3_implementable(cycle_graph(4)) is True
        k5 = UndirectedGraph(names, pairs)
        assert bf.bf_is_3_implementable(k5) is True


def test_criterion_6_permutation_pipeline():
    with criterion(6, "permutation recognition + implementation pipeline"):
        rng = random.Random(6)
        for _ in range(100):
            d = random_permutation_diagram(rng.randint(1, 20), rng=rng)
            g = d.graph()
            found = recognize_permutation(g)
            assert found is not None
            assert multicrossing_graph(
                implement_permutation_graph(found).election) == g
        c6 = cycle_graph(6)
        assert recognize_permutation(c6) is None
        assert multicrossing_graph(implement_even_cycle(6).election) == c6


def test_criterion_7_poset_path_equivalence():
    with criterion(7, "3-voter poly analyses match exact solvers and oracles"):
        rng = random.Random(7)
        for _ in range(200):
            e = random_election(rng.randint(1, 14), 3, rng=rng)
            gamma = multicrossing_graph(e)
            mis = bf.bf_independent_set(gamma)[0]
            chi = bf.bf_chromatic(gamma)[0]

            k = rng.randint(0, e.m)
            # a repeated last vote adds no crossing: same gamma, 4 voters
            twin = Election(e.candidates, e.votes + e.votes[-1:])
            poly = candidate_deletion(e, k)
            general = candidate_deletion(twin, k)
            assert poly.method == "three-voter-poly"
            assert general.method == "general-exact"
            assert len(poly.kept) == len(general.kept) == mis
            assert poly.feasible == general.feasible == (mis >= e.m - k)

            poly = candidate_partition(e, e.m)
            assert poly.feasible and len(poly.classes) == chi
            assert exact_coloring(gamma, chi).status == "found"
            if chi > 1:
                assert exact_coloring(gamma, chi - 1).status == "infeasible"


def test_criterion_8_reduction_soundness():
    with criterion(8, "independent-set and coloring reductions are sound"):
        rng = random.Random(8)
        for _ in range(100):
            v = rng.randint(1, 12)
            g = random_graph(v, rng.choice([0.2, 0.5, 0.8]), rng=rng)
            t = rng.randint(1, v)
            e, k = reduce_independent_set(g, t)
            assert candidate_deletion(e, k).feasible == (
                bf.bf_independent_set(g)[0] >= t)
            chi = bf.bf_chromatic(g)[0]
            for parts in (2, 3, 4):
                e = reduce_coloring(g, parts)
                got = candidate_partition(e, parts)
                exact = exact_coloring(multicrossing_graph(e), parts)
                assert got.feasible == (exact.status == "found") == (chi <= parts)


def test_criterion_9_ramsey_extraction():
    with criterion(9, "Ramsey extraction meets the 16^(1/2^(n-1)) bound"):
        rng = random.Random(9)
        for _ in range(200):
            n = rng.choice([2, 3, 4])
            e = random_election(16, n, rng=rng)
            extracted = ramsey_extract(e)
            members = extracted.members
            assert len(members) >= math.ceil(16 ** (1 / 2 ** (n - 1)))
            gamma = multicrossing_graph(e)
            pairs = combinations(sorted(members), 2)
            if extracted.kind == "clique":
                assert all(gamma.has_edge(a, b) for a, b in pairs)
            else:
                assert not any(gamma.has_edge(a, b) for a, b in pairs)


def test_criterion_10_dilworth_self_check():
    with criterion(10, "max antichain equals minimum chain cover size"):
        rng = random.Random(10)
        for _ in range(100):
            g = random_comparability_graph(
                rng.randint(1, 40), rng.choice([0.1, 0.3, 0.6]), rng=rng)
            o = transitive_orientation(g)
            assert o is not None
            assert len(max_antichain(o)) == len(minimum_chain_cover(o))
