"""Candidate Deletion and k-Candidate Partition solvers."""
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicrossing import (
    AnalysisInputError,
    ConstructionInputError,
    Election,
    ElectionError,
    GraphError,
    UndirectedGraph,
    candidate_deletion,
    candidate_partition,
    exact_coloring,
    fully_single_crossing,
    implement_path,
    multicrossing_graph,
    parse_election,
    reduce_coloring,
    reduce_independent_set,
    restrict,
    is_single_crossing,
    maximum_independent_set,
)
from multicrossing import analysis, graphs
from multicrossing import bruteforce as bf
from multicrossing.analysis import _lexmin_max_independent_set, _vote1_orientation
from multicrossing.constructions import (
    cycle_graph,
    implement_clique,
    implement_even_cycle,
    implement_tree,
    path_graph,
)
from multicrossing.graphs import DEFAULT_BUDGET, _antichain, _kuhn_matching, _mis_search
from multicrossing.generate import (
    random_comparability_graph,
    random_election,
    random_graph,
    random_permutation_diagram,
    random_tree,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def three_voter_elections(max_m=10):
    return st.builds(
        random_election,
        st.integers(min_value=1, max_value=max_m),
        st.sampled_from([2, 3]),
        seeds,
    )


def four_voter_twin(e):
    """`e` with its last vote repeated up to 4 voters: the same multi-crossing
    graph (identical neighbouring votes add no crossing), analysed by the
    general exact solvers instead of the <=3-voter poset path."""
    return Election(e.candidates, e.votes + e.votes[-1:] * (4 - e.n))


def lexmin_oracle(gamma):
    """The first independent tuple of the maximum size among the name-sorted
    combinations, that is the lexicographically smallest maximum set."""
    size, _ = bf.bf_independent_set(gamma)
    for kept in combinations(sorted(gamma.vertices), size):
        if not any(gamma.has_edge(a, b) for a, b in combinations(kept, 2)):
            return kept


# -------------------------------------------------------------- deletion


def test_deletion_on_single_crossing_election(fixture_text):
    e = parse_election(fixture_text("brexit.elec"))
    result = candidate_deletion(e, 0)
    assert result.feasible and result.optimal
    assert result.kept == ("D", "N", "R")


def test_deletion_path_fixture(fixture_text):
    e = parse_election(fixture_text("table1_left.elec"))
    # gamma is the 6-path: a maximum independent set has 3 vertices
    for k, feasible in [(2, False), (3, True)]:
        result = candidate_deletion(e, k)
        assert result.feasible == feasible
        assert result.method == "three-voter-poly"
        assert len(result.kept) == 3
    assert candidate_deletion(e, 3).kept == ("1", "3", "5")


@given(three_voter_elections(), st.integers(min_value=0, max_value=10))
@settings(max_examples=60, deadline=None)
def test_deletion_poly_vs_general_vs_oracle(e, k):
    twin = four_voter_twin(e)
    gamma = multicrossing_graph(e)
    assert multicrossing_graph(twin) == gamma
    poly = candidate_deletion(e, k)
    general = candidate_deletion(twin, k)
    assert poly.method == "three-voter-poly"
    assert general.method == "general-exact"
    oracle = lexmin_oracle(gamma)  # m <= 10
    assert poly.kept == general.kept == oracle  # both lexicographically smallest
    assert poly.feasible == general.feasible == (len(oracle) >= e.m - k)


# Lexmin kept sets at sizes where the <=3-voter probes search pools of up to
# 200 candidates. They follow from the probes' yes/no answers alone, so no
# change to where a probe's matching search starts may move them.
DELETION_PINS = {
    "random60": (lambda: random_election(60, 3, seed=1),
        "1 15 18 2 21 22 23 28 29 31 32 34 36 39 4 41 42 43 47 48 49 50 53 55 7"),
    "random120": (lambda: random_election(120, 3, seed=1),
        "100 101 104 107 110 113 116 118 120 17 19 20 21 24 25 26 29 30 31 32 37 4 41 44 5 "
        "50 51 52 6 63 65 68 70 72 74 77 80 83 86 89 90 91 97"),
    "random200": (lambda: random_election(200, 3, seed=1),
        "101 103 104 105 106 107 108 109 11 111 112 113 115 116 118 119 12 128 131 137 138 "
        "14 140 141 160 161 164 166 168 172 173 178 180 182 184 190 191 192 22 24 30 35 36 "
        "37 49 57 61 68 71 74 76 8 84 87 88 94"),
    "cycle200": (lambda: implement_even_cycle(200).election,
        "1 101 103 105 107 109 11 111 113 115 117 119 121 123 125 127 129 13 131 133 135 "
        "137 139 141 143 145 147 149 15 151 153 155 157 159 161 163 165 167 169 17 171 173 "
        "175 177 179 181 183 185 187 189 19 191 193 195 197 199 21 23 25 27 29 3 31 33 35 "
        "37 39 41 43 45 47 49 5 51 53 55 57 59 61 63 65 67 69 7 71 73 75 77 79 81 83 85 87 "
        "89 9 91 93 95 97 99"),
    "tree200": (lambda: implement_tree(random_tree(200, seed=1)).election,
        "10 100 101 102 103 104 105 106 108 109 11 110 111 112 113 115 116 117 119 12 120 "
        "121 123 124 125 129 13 130 132 134 135 139 14 140 141 142 143 145 146 147 148 149 "
        "151 152 153 155 157 158 159 161 162 163 164 165 166 167 168 169 17 170 171 172 173 "
        "174 175 177 179 181 182 183 184 185 186 188 189 191 192 193 194 195 196 197 198 20 "
        "200 25 26 27 3 32 36 37 38 42 51 55 56 57 58 60 61 62 68 73 77 78 79 80 81 84 86 "
        "87 9 90 91 93 97 98"),
    "clique150": (lambda: implement_clique([str(i) for i in range(1, 151)]).election,
        "1"),
}


@pytest.mark.parametrize("name", DELETION_PINS)
def test_three_voter_deletion_pinned(name):
    build, kept = DELETION_PINS[name]
    result = candidate_deletion(build(), 0)
    assert result.method == "three-voter-poly"
    assert result.kept == tuple(kept.split())


@given(three_voter_elections())
@settings(max_examples=40, deadline=None)
def test_deletion_kept_set_restricts_single_crossing(e):
    result = candidate_deletion(e, e.m)
    assert is_single_crossing(restrict(e, result.kept))[0]


def test_deletion_rejects_negative_k(fixture_text):
    e = parse_election(fixture_text("brexit.elec"))
    with pytest.raises(ValueError):
        candidate_deletion(e, -1)


def test_deletion_budget_exceeded():
    e = random_election(40, 6, seed=11)
    result = candidate_deletion(e, 0, budget=10)
    assert result.budget_exceeded
    assert not result.optimal
    # whatever was found still restricts to a single-crossing election
    assert is_single_crossing(restrict(e, result.kept))[0]


def test_deletion_budget_covers_the_refinement():
    e, k = reduce_independent_set(random_graph(30, 0.3, seed=1), 10)
    best, complete, mis_nodes = maximum_independent_set(multicrossing_graph(e))
    assert complete
    full = candidate_deletion(e, k)
    assert full.optimal and full.nodes_explored > mis_nodes  # the probes are counted
    assert candidate_deletion(e, k, budget=full.nodes_explored) == full
    # enough for the maximum set, not for the lexmin probes
    short = candidate_deletion(e, k, budget=mis_nodes)
    assert short.budget_exceeded and not short.optimal
    assert short.kept == tuple(sorted(best))
    assert short.nodes_explored == mis_nodes + 1
    assert candidate_deletion(e, k, budget=full.nodes_explored - 1).budget_exceeded


def counting_search(gamma, witness=None):
    """A `search` for the refinement that answers by exact search and logs
    each probe's (pool, need); the full-pool call returns `witness`, if given."""
    calls = []

    def search(pool, need, budget):
        if need is None and witness is not None:
            return witness, True, 0
        if need is not None:
            calls.append((pool, need))
        return _mis_search(gamma.adj, budget, stop_at=need, within=pool)

    return search, calls


def test_refinement_skips_the_witness_members():
    gamma = path_graph(6)  # maximum sets: {1,3,5} {1,3,6} {1,4,6} {2,4,6}

    def mask(names):
        return sum(1 << gamma.index[v] for v in names)

    def kept_from(witness):
        search, calls = counting_search(gamma, mask(witness))
        kept, complete, _ = _lexmin_max_independent_set(gamma, search, DEFAULT_BUDGET)
        assert complete
        return kept, calls

    assert kept_from("135") == (("1", "3", "5"), [])  # the witness already is the lexmin set
    # 1 is in the witness and joins unsearched; 3 is not, but of the witness
    # only 4 is its neighbour, so 3 takes 4's place, and 5 then takes 6's
    assert kept_from("146") == (("1", "3", "5"), [])
    # 1 swaps with 2, and the chain of swaps goes on
    assert kept_from("246") == (("1", "3", "5"), [])
    # on the cycle 1-2-3-4, 1 has two witness neighbours, so a probe looks for one of {3}
    gamma = cycle_graph(4)  # maximum sets: {1,3} {2,4}
    assert kept_from("24") == (("1", "3"), [(mask("3"), 1)])


def test_refinement_out_of_budget_keeps_the_first_set():
    # the cycles 1-2-3-4 and 5-6-7-8, where 1 and 5 have two witness neighbours
    names = [str(i) for i in range(1, 9)]
    gamma = UndirectedGraph(names, [(a, b) for a, b in zip(names, "23416785")])

    def mask(names):
        return sum(1 << gamma.index[v] for v in names)

    # the solve, a probe for 1 that finds {3,6,8}, and a probe for 5 that runs out
    answers = [(mask("8642"), True, 5), (mask("368"), True, 1), (0, False, 5)]
    budgets = []

    def search(pool, need, budget):
        budgets.append(budget)
        return answers[len(budgets) - 1]

    # the solve's set, name-sorted, and not the witness the probes left
    assert _lexmin_max_independent_set(gamma, search, 10) == (("2", "4", "6", "8"), False, 11)
    assert budgets == [10, 5, 4]  # each search gets what the earlier ones left


@given(st.builds(random_graph, st.integers(min_value=1, max_value=9),
                 st.sampled_from([0.2, 0.5, 0.8]), seeds))
@settings(max_examples=80, deadline=None)
def test_refinement_from_the_solver_witness_is_lexmin(g):
    best, complete, _ = _mis_search(g.adj, DEFAULT_BUDGET)
    assert complete
    search, calls = counting_search(g, best)
    assert _lexmin_max_independent_set(g, search, DEFAULT_BUDGET)[:2] == (lexmin_oracle(g), True)
    assert all(pool.bit_count() >= need >= 1 for pool, need in calls)


@given(three_voter_elections(max_m=40))
@settings(max_examples=60, deadline=None)
def test_refinement_same_for_poset_and_exact_search(e):
    # one driver, two searches: the vote-1 antichains and branch and bound
    gamma = multicrossing_graph(e)
    o = _vote1_orientation(e, gamma)
    start, _ = _kuhn_matching(o.succ, (1 << e.m) - 1)

    def poset(pool, need, budget):
        return _antichain(o, pool, start), True, 0

    exact, _ = counting_search(gamma)
    kept, complete, nodes = _lexmin_max_independent_set(gamma, poset, 0)
    assert complete and nodes == 0
    assert _lexmin_max_independent_set(gamma, exact, DEFAULT_BUDGET)[:2] == (kept, True)
    assert candidate_deletion(e, 0).kept == kept


def test_chain_cover_refutes_a_probe_without_a_matching(monkeypatch):
    # γ: 1-3 1-4 1-6 2-3 2-4 2-5 2-6 5-6, first witness {3,4,5}. 1 has two
    # witness neighbours, so it needs two of {2, 5}; both lie on the chain
    # 6 > 5 > 2 of the vote-1 cover, so that probe fails at once
    e = Election(list("123456"), [list("346152"), list("123564"), list("365412")])
    matchings, probes = [], []
    kuhn = graphs._kuhn_matching

    def counting_kuhn(*args):
        matchings.append(args)
        return kuhn(*args)

    for module in (graphs, analysis):
        monkeypatch.setattr(module, "_kuhn_matching", counting_kuhn)
    driver = analysis._lexmin_max_independent_set

    def logging_driver(gamma, search, budget):
        def logged(pool, need, budget):
            before = len(matchings)
            found, complete, nodes = search(pool, need, budget)
            probes.append((need, found.bit_count(), len(matchings) - before))
            return found, complete, nodes
        return driver(gamma, logged, budget)

    monkeypatch.setattr(analysis, "_lexmin_max_independent_set", logging_driver)
    assert candidate_deletion(e, 0).kept == lexmin_oracle(multicrossing_graph(e)) == ("3", "4", "5")
    # the full matching and the first antichain; the probe is short and ran no matching
    assert len(matchings) == 2
    assert probes[1:] == [(2, 0, 0)]


def test_deletion_decided_on_g80():
    # Independent Set on G(80, 0.1, seed 7): 29 kept at the default budget
    # with the trivial bound, within 50 000 nodes with the clique-cover bound
    e, k = reduce_independent_set(random_graph(80, 0.1, seed=7), 29)
    result = candidate_deletion(e, k, budget=50_000)
    assert result.optimal and not result.budget_exceeded
    assert len(result.kept) == 29 and result.feasible


def test_deletion_decided_on_g110():
    # Independent Set on G(110, 0.1, seed 1): 55 101 nodes in index order with
    # degree-0/1 folds only, within 50 000 with the ascending-degree order, the
    # triangle fold and probes that prune from the root
    e, k = reduce_independent_set(random_graph(110, 0.1, seed=1), 33)
    result = candidate_deletion(e, k, budget=50_000)
    assert result.optimal and not result.budget_exceeded
    assert len(result.kept) == 33 and result.feasible


# -------------------------------------------------------------- partition


def test_partition_path_fixture(fixture_text):
    e = parse_election(fixture_text("table1_left.elec"))
    result = candidate_partition(e, 2)
    assert result.feasible
    assert result.method == "bipartite-poly"
    assert len(result.classes) == 2
    got = candidate_partition(e, 1)
    assert not got.feasible


@given(three_voter_elections(), st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_partition_poly_vs_general_vs_oracle(e, k):
    poly = candidate_partition(e, k)
    general = candidate_partition(four_voter_twin(e), k)
    assert general.method == ("bipartite-poly" if k == 2 else "general-exact")
    gamma = multicrossing_graph(e)
    chi, _ = bf.bf_chromatic(gamma)
    exact = exact_coloring(gamma, k).status == "found"  # the exact solver at every k
    assert poly.feasible == general.feasible == exact == (chi <= k)
    if poly.feasible:
        for result in (poly, general):
            assert len(result.classes) <= k
            for cls in result.classes:
                assert is_single_crossing(restrict(e, cls))[0]


@given(three_voter_elections(max_m=8), seeds)
@settings(max_examples=30, deadline=None)
def test_partition_classes_cover_all_candidates(e, _seed):
    chi, _ = bf.bf_chromatic(multicrossing_graph(e))
    result = candidate_partition(e, chi)
    assert sorted(c for cls in result.classes for c in cls) == sorted(e.candidates)


def test_partition_rejects_k_zero(fixture_text):
    e = parse_election(fixture_text("brexit.elec"))
    with pytest.raises(ValueError):
        candidate_partition(e, 0)


def test_negative_budget_rejected(fixture_text):
    e = parse_election(fixture_text("brexit.elec"))
    for analyze, k in ((candidate_deletion, 0), (candidate_partition, 1)):
        with pytest.raises(AnalysisInputError):
            analyze(e, k, budget=-5)
        # a budget of 0 is allowed, and the general search exceeds it at once
        result = analyze(e, k, budget=0)  # 4 voters: the general path
        assert result.method == "general-exact" and result.budget_exceeded


def test_every_count_is_an_integer_at_least_its_minimum(fixture_text):
    # each public count, budget and size, with the error it raises and its minimum
    e = parse_election(fixture_text("brexit.elec"))  # 4 voters
    g = path_graph(3)
    table = [
        (lambda x: candidate_deletion(e, x), AnalysisInputError, 0),
        (lambda x: candidate_deletion(e, 0, budget=x), AnalysisInputError, 0),
        (lambda x: candidate_partition(e, x), AnalysisInputError, 1),
        (lambda x: candidate_partition(e, 2, budget=x), AnalysisInputError, 0),
        (lambda x: exact_coloring(g, x), GraphError, 1),
        (lambda x: exact_coloring(g, 2, budget=x), GraphError, 0),
        (lambda x: maximum_independent_set(g, x), GraphError, 0),
        (lambda x: reduce_independent_set(g, x), AnalysisInputError, 0),
        (lambda x: reduce_coloring(g, x), AnalysisInputError, 1),
        (implement_path, ConstructionInputError, 2),
        (implement_even_cycle, ConstructionInputError, 4),
        (fully_single_crossing, ConstructionInputError, 2),
        (e.positions, ElectionError, 1),
        (lambda x: random_election(x, 2, seed=1), ElectionError, 1),
        (lambda x: random_election(2, x, seed=1), ElectionError, 1),
        (lambda x: random_graph(x, 0.5, seed=1), GraphError, 1),
        (lambda x: random_tree(x, seed=1), GraphError, 1),
        (lambda x: random_permutation_diagram(x, seed=1), GraphError, 1),
        (lambda x: random_comparability_graph(x, 0.5, seed=1), GraphError, 1),
    ]
    for call, error, minimum in table:
        for bad in (None, float("nan"), float("inf"), -1, minimum - 1, 1.5, True, "3"):
            with pytest.raises(error) as info:
                call(bad)
            assert str(info.value).endswith(f"must be an integer >= {minimum}, got {bad!r}")
        call(minimum)


def test_reduce_independent_set_refuses_more_than_every_vertex():
    g = path_graph(3)
    assert reduce_independent_set(g, 3)[1] == 0
    for t in (4, 5):
        with pytest.raises(AnalysisInputError) as info:
            reduce_independent_set(g, t)
        assert str(info.value) == f"independent set size must be at most the vertex count 3, got {t}"


def test_partition_budget_exceeded():
    # sparse target so the clique lower bound cannot refuse instantly
    e = reduce_coloring(random_graph(40, 0.1, seed=7), 3)
    result = candidate_partition(e, 3, budget=5)
    assert result.method == "general-exact" and result.budget_exceeded
    assert not result.optimal


def test_partition_decided_on_g80():
    g = random_graph(80, 0.1, seed=7)
    result = candidate_partition(reduce_coloring(g, 4), 4, budget=50_000)
    assert result.optimal and not result.budget_exceeded
    if result.feasible:
        color = {c: i for i, cls in enumerate(result.classes) for c in cls}
        assert len(result.classes) <= 4 and color.keys() == set(g.vertices)
        assert all(color[a] != color[b] for a, b in g.edges)


def test_json_shape(fixture_text):
    e = parse_election(fixture_text("table1_left.elec"))
    d = candidate_deletion(e, 1).to_json_dict()
    assert d["schema"] == "1"
    assert set(d) == {"schema", "kind", "feasible", "optimal",
                      "budget_exceeded", "method", "nodes_explored", "kept"}
    p = candidate_partition(e, 2).to_json_dict()
    assert p["kind"] == "partition"
    assert "classes" in p


# ------------------------------------------------------------- reductions


@given(st.builds(random_graph,
                 st.integers(min_value=1, max_value=12),
                 st.sampled_from([0.2, 0.5, 0.8]),
                 seeds),
       st.integers(min_value=1, max_value=12))
@settings(max_examples=40, deadline=None)
def test_independent_set_reduction_sound(g, t):
    if t > len(g.vertices):  # asked for more vertices than the graph has
        with pytest.raises(AnalysisInputError):
            reduce_independent_set(g, t)
        return
    e, k = reduce_independent_set(g, t)
    assert candidate_deletion(e, k).feasible == (bf.bf_independent_set(g)[0] >= t)


@given(st.builds(random_graph,
                 st.integers(min_value=1, max_value=10),
                 st.sampled_from([0.2, 0.5, 0.8]),
                 seeds),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_coloring_reduction_sound(g, k):
    e = reduce_coloring(g, k)
    colorable = bf.bf_chromatic(g)[0] <= k
    result = candidate_partition(e, k)
    exact = exact_coloring(multicrossing_graph(e), k)
    assert result.feasible == (exact.status == "found") == colorable
