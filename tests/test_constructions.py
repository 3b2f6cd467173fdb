"""Elections built to realise a target multi-crossing graph."""
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicrossing import (
    ConstructionError,
    ConstructionInputError,
    GraphError,
    UndirectedGraph,
    emit_election,
    fully_single_crossing,
    implement_clique,
    implement_empty,
    implement_even_cycle,
    implement_general,
    implement_path,
    implement_permutation_graph,
    implement_tree,
    intersect_implementations,
    is_single_crossing,
    multicrossing_graph,
    ramsey_extract,
)
from multicrossing import constructions
from multicrossing.graphs import PermutationDiagram
from multicrossing.constructions import cycle_graph, path_graph
from multicrossing.generate import (
    random_election,
    random_graph,
    random_permutation_diagram,
    random_tree,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_path_fixture_exact(fixture_text):
    result = implement_path(6)
    assert emit_election(result.election) == "\n".join(
        fixture_text("table1_left.elec").splitlines()[1:]
    ) + "\n"
    assert result.voters_used == 3


def test_cycle_fixture_exact(fixture_text):
    result = implement_even_cycle(6)
    assert emit_election(result.election) == "\n".join(
        fixture_text("table1_right.elec").splitlines()[1:]
    ) + "\n"


@pytest.mark.parametrize("s", [2, 3, 4, 5, 10, 37, 100])
def test_path_round_trip(s):
    result = implement_path(s)
    assert result.verified
    assert multicrossing_graph(result.election) == path_graph(s)
    assert result.voters_used == 3


@pytest.mark.parametrize("s", [4, 6, 8, 10, 38, 100])
def test_even_cycle_round_trip(s):
    result = implement_even_cycle(s)
    assert result.verified
    assert multicrossing_graph(result.election) == cycle_graph(s)
    assert result.voters_used == 3


def test_odd_cycle_refused():
    with pytest.raises(ConstructionError):
        implement_even_cycle(5)
    with pytest.raises(ConstructionError):
        implement_even_cycle(2)


@pytest.mark.parametrize("s", [1, 2, 3, 12, 30])
def test_clique_and_empty_round_trip(s):
    names = [str(i) for i in range(1, s + 1)]
    clique = implement_clique(names)
    assert multicrossing_graph(clique.election).edges == frozenset(
        (a, b) for a in names for b in names if a < b
    )
    empty = implement_empty(names)
    assert is_single_crossing(empty.election)[0]


@given(st.integers(min_value=2, max_value=60), seeds)
@settings(max_examples=40, deadline=None)
def test_tree_round_trip(v, seed):
    t = random_tree(v, seed=seed)
    result = implement_tree(t)
    assert result.verified
    assert multicrossing_graph(result.election) == t
    assert result.voters_used == 3


def test_tree_deeper_than_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        result = implement_tree(path_graph(1200))
    finally:
        sys.setrecursionlimit(limit)
    assert result.verified
    assert result.voters_used == 3


def test_tree_rejects_non_trees():
    with pytest.raises(ConstructionError):
        implement_tree(cycle_graph(4))
    disconnected = random_graph(4, 0.0, seed=0)
    with pytest.raises(ConstructionError):
        implement_tree(disconnected)
    # |V| - 1 edges, but a triangle and an isolated vertex
    triangle = UndirectedGraph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "c")])
    with pytest.raises(ConstructionInputError, match="not connected"):
        implement_tree(triangle)


def test_argument_errors_are_input_errors():
    # the CLI maps these to its input-error exit code
    for build in (lambda: implement_path(1), lambda: implement_even_cycle(5),
                  lambda: implement_tree(cycle_graph(4)),
                  lambda: fully_single_crossing(1)):
        with pytest.raises(ConstructionInputError):
            build()


def test_vertex_sequence_must_not_be_a_string_or_a_scalar():
    # a string would be split into one-character names
    for implement in (implement_empty, implement_clique):
        for bad in ("abc", 5, None):
            with pytest.raises(ConstructionInputError,
                               match=f"vertices: expected a sequence of names, got {bad!r}"):
                implement(bad)
        assert implement(iter(["a", "b", "c"])).election.candidates == ("a", "b", "c")


@given(st.builds(random_permutation_diagram,
                 st.integers(min_value=1, max_value=20), seeds))
@settings(max_examples=60, deadline=None)
def test_permutation_diagram_round_trip(d):
    result = implement_permutation_graph(d)
    assert result.verified
    assert multicrossing_graph(result.election) == d.graph()
    assert result.voters_used == 3


@given(st.builds(random_graph,
                 st.integers(min_value=1, max_value=40),
                 st.sampled_from([0.1, 0.5, 0.9]),
                 seeds))
@settings(max_examples=40, deadline=None)
def test_general_round_trip(g):
    result = implement_general(g)
    assert result.verified
    assert multicrossing_graph(result.election) == g
    assert result.voters_used <= 2 * len(g.vertices) + 1


def test_general_election_pinned():
    g = random_graph(6, 0.4, seed=11)
    result = implement_general(g)
    assert emit_election(result.election) == (
        "6 13\n1 2 3 4 5 6\n1>2>3>4>5>6\n2>1>4>3>6>5\n2>1>4>3>6>5\n"
        "2>4>1>6>3>5\n2>4>1>3>6>5\n4>2>6>1>5>3\n2>4>6>1>3>5\n"
        "4>6>2>5>1>3\n4>6>2>5>1>3\n6>4>5>2>3>1\n6>4>5>2>3>1\n"
        "6>5>4>3>2>1\n6>4>5>3>2>1\n"
    )


def test_general_handles_single_vertex():
    g = random_graph(1, 0.5, seed=0)
    result = implement_general(g)
    assert multicrossing_graph(result.election) == g
    assert emit_election(result.election) == "1 1\n1\n1\n"  # one voter


# ----------------------------------------------------- fully single-crossing


def test_fullsc_fixture_exact(fixture_text):
    assert emit_election(fully_single_crossing(7)) == fixture_text("table2.elec")


@pytest.mark.parametrize("m", [2, 3, 8, 25])
def test_fullsc_structure(m):
    e = fully_single_crossing(m)
    assert e.n == m + 1
    assert e.votes[-1] == tuple(reversed(e.votes[0]))
    ok, _ = is_single_crossing(e)
    assert ok
    # consecutive votes differ only by disjoint adjacent swaps, and the
    # swaps over the whole sequence sort the first vote into its reverse
    total = 0
    for v1, v2 in zip(e.votes, e.votes[1:]):
        diff = [i for i in range(m) if v1[i] != v2[i]]
        assert all(b - a == 1 for a, b in zip(diff[::2], diff[1::2]))
        for a, b in zip(diff[::2], diff[1::2]):
            assert (v1[a], v1[b]) == (v2[b], v2[a])
        total += len(diff) // 2
    assert total == m * (m - 1) // 2


def test_fullsc_every_pair_crosses_once():
    from multicrossing import crossing_sequence

    e = fully_single_crossing(9)
    cands = e.candidates
    for i, a in enumerate(cands):
        for b in cands[i + 1:]:
            assert crossing_sequence(e, a, b).crossings == 1


# ------------------------------------------------------------- intersection


def test_intersection_of_identical_diagrams():
    d = random_permutation_diagram(8, seed=3)
    result = intersect_implementations(d, d)
    assert multicrossing_graph(result.election) == d.graph()


def test_intersection_needs_one_vertex_set():
    with pytest.raises(GraphError, match="share the vertex set"):
        intersect_implementations(PermutationDiagram(("a", "b"), ("b", "a")),
                                  PermutationDiagram(("a", "c"), ("c", "a")))


def test_intersection_with_clique():
    names = tuple(str(i) for i in range(1, 7))
    clique = PermutationDiagram(names, tuple(reversed(names)))
    other = random_permutation_diagram(6, seed=5)
    result = intersect_implementations(clique, other)
    assert multicrossing_graph(result.election) == other.graph()


@pytest.mark.parametrize("seed, text", [
    (2, "5 3\n3 2 4 5 1\n3>2>4>5>1\n4>1>5>3>2\n2>3>1>4>5\n"),
    (12, "5 3\n1 2 5 3 4\n3>5>1>4>2\n1>2>5>3>4\n3>1>2>4>5\n"),
    (4, "5 3\n4 5 1 3 2\n4>2>5>1>3\n2>5>3>1>4\n5>1>4>3>2\n"),
    (5, "5 3\n1 2 4 3 5\n3>2>1>4>5\n4>1>2>3>5\n1>2>3>5>4\n"),
])
def test_intersection_election_pinned(seed, text):
    # the witness pairs are tried in a fixed order: (pi1, pi2) and (pi2, pi1)
    # of the first diagram win for seeds 2 and 12, those of the second for 4 and 5
    d1 = random_permutation_diagram(5, seed=seed)
    d2 = random_permutation_diagram(5, seed=seed + 1000)
    assert emit_election(intersect_implementations(d1, d2).election) == text


@given(st.integers(min_value=2, max_value=10), seeds, seeds)
@settings(max_examples=60, deadline=None)
def test_intersection_when_it_succeeds_is_correct(v, s1, s2):
    d1 = random_permutation_diagram(v, seed=s1)
    d2 = random_permutation_diagram(v, seed=s2)
    expected_edges = d1.graph().edges & d2.graph().edges
    try:
        result = intersect_implementations(d1, d2)
    except ConstructionError:
        return  # the combination step is not always applicable
    assert multicrossing_graph(result.election).edges == expected_edges


@given(st.integers(min_value=2, max_value=10), seeds, seeds)
@settings(max_examples=60, deadline=None)
def test_intersection_of_reversed_diagrams_is_reversed(v, s1, s2):
    # why (pi1, pi2) and (pi2, pi1) are the only witness pairs worth trying:
    # reversing every permutation reverses every vote of the result
    d1 = random_permutation_diagram(v, seed=s1)
    d2 = random_permutation_diagram(v, seed=s2)
    r1, r2 = (PermutationDiagram(d.pi1[::-1], d.pi2[::-1]) for d in (d1, d2))
    try:
        votes = intersect_implementations(d1, d2).election.votes
    except ConstructionError:
        with pytest.raises(ConstructionError):
            intersect_implementations(r1, r2)
        return
    reversed_votes = intersect_implementations(r1, r2).election.votes
    assert reversed_votes == tuple(vote[::-1] for vote in votes)


def test_intersection_self_verification_is_not_swallowed(monkeypatch):
    d1 = random_permutation_diagram(6, seed=1)
    d2 = random_permutation_diagram(6, seed=1001)
    assert multicrossing_graph(intersect_implementations(d1, d2).election).edges
    # a third vote equal to the middle one: nothing multi-crosses
    monkeypatch.setattr(constructions, "_rebase_witness", lambda g, first: first)
    with pytest.raises(ConstructionError, match="self-verification"):
        intersect_implementations(d1, d2)


# ------------------------------------------------------------------ ramsey


@given(st.integers(min_value=2, max_value=4), seeds)
@settings(max_examples=60, deadline=None)
def test_ramsey_extract_verified(n, seed):
    e = random_election(16, n, seed=seed)
    extracted = ramsey_extract(e)
    g = multicrossing_graph(e)
    members = extracted.members
    bound = math.ceil(16 ** (1 / 2 ** (n - 1)))
    assert len(members) >= bound
    pairs = [(a, b) for a in members for b in members if a < b]
    if extracted.kind == "clique":
        assert all(g.has_edge(a, b) for a, b in pairs)
    else:
        assert extracted.kind == "independent"
        assert not any(g.has_edge(a, b) for a, b in pairs)


def longest_monotone(values, decreasing):
    """The quadratic DP that `_longest_increasing` replaced: the reference for
    which longest run it returns, not just its length."""
    n = len(values)
    best_len = [1] * n
    back = [-1] * n
    for i in range(n):
        for j in range(i):
            ok = values[j] > values[i] if decreasing else values[j] < values[i]
            if ok and best_len[j] + 1 > best_len[i]:
                best_len[i] = best_len[j] + 1
                back[i] = j
    end = max(range(n), key=lambda i: best_len[i])
    out = []
    while end != -1:
        out.append(end)
        end = back[end]
    return out[::-1]


@given(st.lists(st.integers(), min_size=1, max_size=60, unique=True))
@settings(max_examples=300, deadline=None)
def test_longest_increasing_picks_the_dp_run(values):
    longest_increasing = constructions._longest_increasing
    assert longest_increasing(values) == longest_monotone(values, decreasing=False)
    negated = [-x for x in values]
    assert longest_increasing(negated) == longest_monotone(values, decreasing=True)


# ramsey_extract(random_election(2000, n, seed=1)) as the quadratic DP returned it
RAMSEY_PINS = {
    2: ("independent", """
        23 29 57 76 107 108 125 141 198 202 265 290 343 363 372 386 399 420 431 465 504
        532 538 579 587 657 688 697 705 715 748 853 876 899 903 915 934 948 962 983 999
        1023 1059 1060 1075 1077 1080 1083 1131 1148 1174 1195 1216 1281 1380 1381 1402
        1437 1499 1519 1530 1531 1639 1660 1684 1708 1710 1721 1788 1789 1801 1804 1818
        1830 1843 1845 1849 1850 1893 1909 1930 1958 1991"""),
    3: ("independent", "108 125 587 657 748 903 948 1059 1402 1437 1639 1845 1850 1909 1991"),
    5: ("clique", "587 657 1402 1845 1991"),
}


@pytest.mark.parametrize("n", sorted(RAMSEY_PINS))
def test_ramsey_extract_members_pinned(n):
    extracted = ramsey_extract(random_election(2000, n, seed=1))
    kind, members = RAMSEY_PINS[n]
    assert (extracted.kind, extracted.members) == (kind, tuple(members.split()))
