"""Graph data type, recognition algorithms and the exact solvers."""
import sys
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicrossing import (
    GraphError,
    GraphParseError,
    Orientation,
    PermutationDiagram,
    UndirectedGraph,
    emit_dot,
    emit_graph,
    exact_coloring,
    is_bipartite,
    max_antichain,
    maximum_independent_set,
    minimum_chain_cover,
    mirsky_coloring,
    multicrossing_graph,
    parse_election,
    parse_graph,
    recognize_permutation,
    transitive_orientation,
)
from multicrossing import bruteforce as bf
from multicrossing.analysis import _vote1_orientation
from multicrossing.constructions import cycle_graph, implement_clique, path_graph
from multicrossing.generate import (
    random_comparability_graph,
    random_election,
    random_graph,
    random_permutation_diagram,
    random_tree,
)
from multicrossing.graphs import (
    DEFAULT_BUDGET,
    _antichain,
    _bits,
    _by_degree,
    _chains,
    _greedy_matching,
    _kuhn_matching,
    _mis_search,
)


def graphs(max_v=8):
    return st.builds(
        random_graph,
        st.integers(min_value=1, max_value=max_v),
        st.sampled_from([0.2, 0.5, 0.8]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )


def comparability_graphs(max_v=9):
    return st.builds(
        random_comparability_graph,
        st.integers(min_value=1, max_value=max_v),
        st.sampled_from([0.2, 0.4, 0.6]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )


# Names the text formats can carry: anything but whitespace and a leading "#".
names = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4).filter(
    lambda x: x.split() == [x] and not x.startswith("#"))


@st.composite
def named_graphs(draw, max_v=7):
    """Vertex names and an edge list in arbitrary order and orientation."""
    vs = draw(st.lists(names, min_size=1, max_size=max_v, unique=True))
    pairs = draw(st.lists(st.sampled_from(list(combinations(vs, 2))), unique=True)
                 if len(vs) > 1 else st.just([]))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return vs, [(b, a) if f else (a, b) for (a, b), f in zip(pairs, flips)]


# ------------------------------------------------------------ graph model


@given(named_graphs(), st.data())
def test_graph_agrees_with_pair_set_model(spec, data):
    vs, edge_list = spec
    g = UndirectedGraph(vs, edge_list)
    model = {frozenset(e) for e in edge_list}
    for i, a in enumerate(vs):
        for j, b in enumerate(vs):
            assert (g.adj[i] >> j & 1) == (frozenset((a, b)) in model)
            assert g.has_edge(a, b) == (frozenset((a, b)) in model)
        assert g.index[a] == i
        assert g.neighbors(a) == {b for b in vs if frozenset((a, b)) in model}
    assert g.edges == {tuple(sorted(e)) for e in model}
    comp = g.complement()
    assert comp.vertices == g.vertices
    assert comp.edges == {tuple(sorted(p)) for p in combinations(vs, 2)} - g.edges
    assert comp.complement().edges == g.edges
    order = data.draw(st.permutations(vs))
    same = UndirectedGraph(order, list(reversed(edge_list)))
    assert same == g and hash(same) == hash(g)
    if len(vs) > 1:
        toggled = model ^ {frozenset(vs[:2])}
        assert UndirectedGraph(vs, [tuple(e) for e in toggled]) != g


@given(named_graphs())
def test_emit_parse_round_trip_any_names(spec):
    g = UndirectedGraph(*spec)
    assert parse_graph(emit_graph(g)) == g


def test_unreadable_vertex_names_rejected():
    for bad in (["#a", "b"], ["a b", "c"], ["", "c"], [1, 2]):
        with pytest.raises(GraphError):
            UndirectedGraph(bad)


def test_generators_reject_probabilities_outside_unit_interval():
    for p in (1.5, -1, float("nan")):
        for generate in (random_graph, random_comparability_graph):
            with pytest.raises(GraphError, match="probability"):
                generate(5, p, seed=1)
    assert len(random_graph(5, 1, seed=1).edges) == 10
    assert not random_comparability_graph(5, 0, seed=1).edges


def pair_built(kind, v, p, seed):
    """The generators as name-pair builds through UndirectedGraph(names, edges):
    the reference the mask builds must match draw for draw."""
    r, names = Random(seed), [str(i) for i in range(1, v + 1)]
    if kind == "graph":
        edges = [(a, b) for a, b in combinations(names, 2) if r.random() < p]
    elif kind == "tree":
        edges = [(names[r.randrange(i)], names[i]) for i in range(1, v)]
    else:
        order = list(names)
        r.shuffle(order)
        below = {x: set() for x in names}
        for i in range(v - 1, -1, -1):
            for j in range(i + 1, v):
                if r.random() < p:
                    below[order[i]] |= {order[j]} | below[order[j]]
        edges = [(x, y) for x, succ in below.items() for y in succ]
    return UndirectedGraph(names, edges)


def test_generators_match_pair_built_graphs():
    for seed in range(120):
        v, p = 1 + seed % 23, (0.1, 0.3, 0.6, 1.0)[seed % 4]
        for kind, got in (("graph", random_graph(v, p, seed=seed)),
                          ("tree", random_tree(v, seed=seed)),
                          ("poset", random_comparability_graph(v, p, seed=seed))):
            want = pair_built(kind, v, p, seed)
            assert (got.vertices, got.adj) == (want.vertices, want.adj), (kind, seed)


def test_non_sequences_rejected():
    # a string would be split into one-character names, a scalar is no sequence
    for build, message in (
            (lambda: UndirectedGraph(5), "vertices: expected a sequence of names, got 5"),
            (lambda: UndirectedGraph("abc"), "vertices: expected a sequence of names, got 'abc'"),
            (lambda: UndirectedGraph(["a", "b"], 5), "edges: expected a sequence of pairs, got 5"),
            (lambda: PermutationDiagram(5, 5), "pi1: expected a sequence of names, got 5"),
            (lambda: PermutationDiagram("abc", "cba"),
             "pi1: expected a sequence of names, got 'abc'"),
            (lambda: PermutationDiagram(["a"], "a"), "pi2: expected a sequence of names, got 'a'"),
            (lambda: Orientation(path_graph(2), 5), "arcs: expected a sequence of pairs, got 5"),
            # a str would be unpacked as a pair of one-character names
            (lambda: UndirectedGraph(["a", "b"], ["ab"]),
             "edge 1: expected a pair of names, got 'ab'"),
            (lambda: UndirectedGraph(["a", "b", "c"], [("a", "b"), ("c",)]),
             "edge 2: expected a pair of names, got ('c',)"),
            (lambda: UndirectedGraph(["a", "b", "c"], [("a", "b", "c")]),
             "edge 1: expected a pair of names, got ('a', 'b', 'c')"),
            (lambda: UndirectedGraph(["a", "b"], [5]), "edge 1: expected a pair of names, got 5"),
            (lambda: Orientation(path_graph(2), ["12"]),
             "arc 1: expected a pair of names, got '12'"),
            (lambda: Orientation(path_graph(3), [("1", "2"), ("2", "3", "1")]),
             "arc 2: expected a pair of names, got ('2', '3', '1')"),
            # an unhashable name cannot be looked up
            (lambda: UndirectedGraph(["a", "b"], [(["a"], "b")]),
             "edge 1: expected a pair of names, got (['a'], 'b')"),
            (lambda: Orientation(path_graph(2), [("1", ["2"])]),
             "arc 1: expected a pair of names, got ('1', ['2'])"),
            (lambda: PermutationDiagram([["a"]], [["a"]]),
             "invalid name ['a']: a name is a non-empty string without whitespace,"
             " not starting with '#'")):
        with pytest.raises(GraphError) as info:
            build()
        assert str(info.value) == message
    assert UndirectedGraph(iter("ab"), iter([("a", "b")])).edges == {("a", "b")}


def test_queries_refuse_names_that_are_no_vertex():
    g = path_graph(3)
    assert not g.has_edge("zz", "1") and not g.has_edge("1", "3") and g.has_edge("2", "1")
    for query, message in (
            (lambda: g.neighbors("zz"), "unknown vertex 'zz'"),
            (lambda: g.neighbors(["1"]), "unknown vertex ['1']"),
            (lambda: g.neighbors(1), "unknown vertex 1"),
            (lambda: g.has_edge(["1"], "2"), "vertex name must be a str, got ['1']"),
            (lambda: g.has_edge("1", 2), "vertex name must be a str, got 2")):
        with pytest.raises(GraphError) as info:
            query()
        assert str(info.value) == message


def test_edge_given_in_both_directions_rejected():
    for edges in ([("a", "b"), ("b", "a")], [("a", "b"), ("a", "b")]):
        with pytest.raises(GraphError, match="duplicate edge"):
            UndirectedGraph(["a", "b"], edges)


# ---------------------------------------------------------------- parsing


def test_parse_fixture(fixture_text):
    g = parse_graph(fixture_text("figure1.graph"))
    assert len(g.vertices) == 8
    assert len(g.edges) == 12
    assert all(len(g.neighbors(v)) == 3 for v in g.vertices)


def test_parse_rejects_bad_inputs():
    for text in ["", "1\na\na a", "2\na b\na c", "2\na a", "x\na"]:
        with pytest.raises(GraphParseError):
            parse_graph(text)


@given(graphs())
def test_emit_parse_round_trip(g):
    assert parse_graph(emit_graph(g)) == g


@given(st.one_of(st.text(), graphs().map(emit_graph)), st.data())
@settings(max_examples=300)
def test_parse_any_text(text, data):
    # splice up to 3 arbitrary characters over up to 3 at one place
    i = data.draw(st.integers(0, len(text)))
    text = text[:i] + data.draw(st.text(max_size=3)) + text[i + data.draw(st.integers(0, 3)):]
    try:
        g = parse_graph(text)
    except GraphParseError:
        return
    assert parse_graph(emit_graph(g)) == g


@given(named_graphs(max_v=9), st.randoms(use_true_random=False))
def test_emitted_edges_are_the_sorted_pairs(spec, rng):
    vs, edge_list = spec
    rng.shuffle(vs)  # name order and vertex order differ
    g = UndirectedGraph(vs, edge_list)
    lines = emit_graph(g).splitlines()
    # `edges` and the writer share one walk of the masks: check against the input
    assert lines[2:] == [f"{u} {v}" for u, v in sorted(tuple(sorted(e)) for e in edge_list)]


def dot_pairs(out):
    """The (u, v) of each "u" -- "v" line of DOT output with plain names."""
    return [tuple(x.strip(' ";') for x in line.split("--")) for line in out.splitlines()
            if "--" in line]


@pytest.mark.parametrize("v", [1, 7, 8, 9, 63, 64, 65])
def test_emitted_edges_around_byte_boundaries(v):
    # the masks are unpacked a byte at a time; names "0".."64" in shuffled
    # vertex order keep name order apart from both vertex and numeric order
    rng = Random(v)
    vs = [str(k) for k in range(v)]
    rng.shuffle(vs)
    pairs = list(combinations(vs, 2))
    for edges in ([], pairs, [p for p in pairs if rng.random() < 0.3]):
        g = UndirectedGraph(vs, edges)
        expected = sorted(tuple(sorted(e)) for e in edges)
        assert g.edges == set(expected)
        assert emit_graph(g).splitlines() == [str(v), " ".join(vs)] + [
            f"{a} {b}" for a, b in expected]
        # DOT: each edge as its name-sorted pair, in vertex-index order (i < j)
        assert dot_pairs(emit_dot(g)) == [
            tuple(sorted((vs[i], vs[j]))) for i in range(v) for j in range(i + 1, v)
            if g.has_edge(vs[i], vs[j])]
        o = Orientation(g, [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges])
        assert o.arcs == {(vs[i], vs[j]) for i in range(v) for j in range(v)
                          if o.succ[i] >> j & 1}


@given(graphs(max_v=5))
def test_dot_output_is_deterministic(g):
    out = emit_dot(g)
    assert out == emit_dot(g)
    assert out.startswith("graph ")
    for u, v in g.edges:
        assert f'"{u}" -- "{v}"' in out or f'"{v}" -- "{u}"' in out


def test_gamma_dot_output_pinned(fixture_text):
    # names 1..12: the edges come in vertex-index order, not name order
    e = parse_election(fixture_text("random12.elec"))
    assert emit_dot(multicrossing_graph(e)) == fixture_text("random12.dot")


@given(graphs())
def test_complement_involution(g):
    assert g.complement().complement() == g


# ------------------------------------------------------------ recognition


def test_known_comparability_verdicts():
    assert transitive_orientation(cycle_graph(5)) is None
    assert transitive_orientation(cycle_graph(6)) is not None
    assert transitive_orientation(path_graph(7)) is not None


def test_orientation_is_verified_transitive():
    o = transitive_orientation(cycle_graph(6))
    assert o.verified and transitive_by_arcs(o)


def transitive_by_arcs(o):
    """The definition, one test per arc: succ(v) ⊆ succ(u) for each arc (u, v)."""
    succ = {v: set() for v in o.base.vertices}
    for u, v in o.arcs:
        succ[u].add(v)
    return all(succ[v] <= succ[u] for u, v in o.arcs)


@st.composite
def orientations(draw, max_v=9):
    """An orientation of a graph on at most `max_v` vertices: the one
    `transitive_orientation` finds, that one with one arc reversed, or
    arbitrary directions (cycles included)."""
    kind = draw(st.sampled_from(["transitive", "one-reversed", "arbitrary"]))
    if kind == "arbitrary":
        g = draw(graphs(max_v))
        flips = draw(st.lists(st.booleans(), min_size=len(g.edges), max_size=len(g.edges)))
        return Orientation(g, [(b, a) if f else (a, b)
                               for (a, b), f in zip(sorted(g.edges), flips)])
    g = draw(comparability_graphs(max_v))
    arcs = sorted(transitive_orientation(g).arcs)
    if kind == "one-reversed" and arcs:
        a, b = arcs.pop(draw(st.integers(min_value=0, max_value=len(arcs) - 1)))
        arcs.append((b, a))
    return Orientation(g, arcs)


@given(orientations())
@settings(max_examples=300, deadline=None)
def test_verify_transitive_matches_the_per_arc_check(o):
    assert o.verify_transitive() == o.verified == transitive_by_arcs(o)


@given(graphs(max_v=8))
@settings(max_examples=80, deadline=None)
def test_comparability_matches_oracle(g):
    assert (transitive_orientation(g) is not None) == bf.bf_transitive_orientation(g)


def test_known_permutation_verdicts():
    assert recognize_permutation(cycle_graph(5)) is None
    assert recognize_permutation(cycle_graph(6)) is None
    assert recognize_permutation(cycle_graph(4)) is not None
    assert recognize_permutation(path_graph(8)) is not None


@given(graphs(max_v=7))
@settings(max_examples=60, deadline=None)
def test_permutation_matches_oracle(g):
    mine = recognize_permutation(g)
    assert (mine is not None) == bf.bf_permutation_diagram(g)
    if mine is not None:
        assert mine.graph() == g  # the diagram really induces g


@given(st.builds(random_permutation_diagram,
                 st.integers(min_value=1, max_value=20),
                 st.integers(min_value=0, max_value=2**32 - 1)))
def test_diagram_graph_is_recognized(d):
    g = d.graph()
    found = recognize_permutation(g)
    assert found is not None
    assert found.graph() == g


def test_diagram_requires_matching_permutations():
    with pytest.raises(Exception):
        PermutationDiagram(("a", "b"), ("a", "c"))
    with pytest.raises(GraphError):
        PermutationDiagram(("a", "b"), ("a", "b", "a"))


@given(st.builds(random_permutation_diagram,
                 st.integers(min_value=1, max_value=20),
                 st.integers(min_value=0, max_value=2**32 - 1)))
def test_diagram_edges_are_the_inverted_pairs(d):
    p1 = {v: i for i, v in enumerate(d.pi1)}
    p2 = {v: i for i, v in enumerate(d.pi2)}
    inverted = {tuple(sorted((u, v))) for u, v in combinations(d.pi1, 2)
                if (p1[u] < p1[v]) != (p2[u] < p2[v])}
    assert d.graph().edges == inverted


def test_diagram_from_lists_equals_diagram_from_tuples():
    d = PermutationDiagram(["a", "b"], ["b", "a"])
    assert d == PermutationDiagram(("a", "b"), ("b", "a"))
    assert hash(d) == hash(PermutationDiagram(("a", "b"), ("b", "a")))


def test_diagram_rejects_bad_vertex_sets():
    for bad in (("a b", "c"), ("#x", "y")):
        with pytest.raises(GraphError, match="invalid name"):
            PermutationDiagram(bad, bad[::-1])
    with pytest.raises(GraphError, match="graph needs at least one vertex"):
        PermutationDiagram((), ())


# ---------------------------------------------------------------- posets


@given(comparability_graphs())
@settings(max_examples=80, deadline=None)
def test_antichain_equals_oracle_mis(g):
    o = transitive_orientation(g)
    assert o is not None
    anti = max_antichain(o)
    size, _ = bf.bf_independent_set(g)
    assert len(anti) == size
    assert not any(g.has_edge(a, b) for a in anti for b in anti if a < b)


@given(comparability_graphs())
@settings(max_examples=60, deadline=None)
def test_chain_cover_matches_antichain(g):
    o = transitive_orientation(g)
    chains = minimum_chain_cover(o)
    assert sorted(v for c in chains for v in c) == sorted(g.vertices)
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            assert (a, b) in o.arcs
    assert len(chains) == len(max_antichain(o))


@pytest.mark.parametrize("v, p, seed, antichain, chains", [
    (9, 0.3, 1, ("5", "7", "8"), [["1", "4", "6", "7"], ["2", "8"], ["3", "9", "5"]]),
    (10, 0.4, 2, ("3", "6", "8"), [["1", "9", "10", "6"], ["2", "3", "4", "5", "7"], ["8"]]),
    (12, 0.5, 3, ("3", "5", "7"),
     [["2", "1", "12", "3", "10"], ["8", "5", "6", "9"], ["11", "7", "4"]]),
    (14, 0.6, 4, ("1", "9", "14"),
     [["1", "6", "10", "12", "3", "7", "8"], ["11", "9", "13", "2", "4", "5"], ["14"]]),
])
def test_poset_outputs_pinned(v, p, seed, antichain, chains):
    # the order in which the matching visits vertices picks which maximum
    # antichain and which minimum chain cover come back
    o = transitive_orientation(random_comparability_graph(v, p, seed=seed))
    assert max_antichain(o) == antichain
    assert minimum_chain_cover(o) == chains


def koenig_reach_reference(succ, within, match_r):
    """Right vertices that alternating paths from the unmatched left vertices
    reach, by a breadth-first search of its own over the matching."""
    match_l = {u: v for v, u in match_r.items()}
    z_left = within & ~sum(1 << u for u in match_l)
    z_right = 0
    frontier = z_left
    while frontier:
        nxt = 0
        for u in _bits(frontier):
            reach = succ[u] & within & ~z_right
            if u in match_l:
                reach &= ~(1 << match_l[u])
            z_right |= reach
            for v in _bits(reach):
                w = match_r.get(v)
                if w is not None and not z_left >> w & 1:
                    z_left |= 1 << w
                    nxt |= 1 << w
        frontier = nxt
    return z_right


@st.composite
def transitive_orientations(draw, max_v=30):
    """Verified orientations of comparability graphs, or the vote-1
    orientations of 3-voter elections."""
    if draw(st.booleans()):
        return transitive_orientation(draw(comparability_graphs(max_v)))
    e = random_election(draw(st.integers(min_value=1, max_value=max_v)), 3,
                        draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return _vote1_orientation(e, multicrossing_graph(e))


@given(transitive_orientations(), st.data())
@settings(max_examples=100, deadline=None)
def test_matching_search_gives_koenig_reach(o, data):
    full = (1 << len(o.succ)) - 1
    within = data.draw(st.sampled_from([0, full]) | st.integers(min_value=0, max_value=full))
    start, _ = _kuhn_matching(o.succ, full)
    cold = _kuhn_matching(o.succ, within)
    # a cold search, and one resumed from the full matching's pairs inside `within`
    for match_r, reach in (cold, _kuhn_matching(o.succ, within, start)):
        assert len(match_r) == len(cold[0])
        assert reach == koenig_reach_reference(o.succ, within, match_r)
        assert len(set(match_r.values())) == len(match_r)  # each left vertex matched once
        for v, u in match_r.items():
            assert within >> u & 1 and within >> v & 1 and o.succ[u] >> v & 1
    size = _antichain(o, within).bit_count()
    assert len(cold[0]) + size == within.bit_count()
    assert _antichain(o, within, start).bit_count() == size


@given(comparability_graphs())
@settings(max_examples=60, deadline=None)
def test_mirsky_coloring_is_optimal(g):
    o = transitive_orientation(g)
    heights, chi = mirsky_coloring(o)
    for u, v in g.edges:
        assert heights[u] != heights[v]
    assert chi == bf.bf_chromatic(g)[0]


def mirsky_reference(o):
    """Chain heights by relaxing each arc once, in decreasing successor count."""
    succ = o.succ
    height = [1] * len(succ)
    for u in sorted(range(len(succ)), key=lambda i: succ[i].bit_count(), reverse=True):
        for v in _bits(succ[u]):
            height[v] = max(height[v], height[u] + 1)
    return dict(zip(o.base.vertices, height)), max(height)


@given(transitive_orientations(max_v=40))
@settings(max_examples=150, deadline=None)
def test_mirsky_heights_from_level_masks_match_the_arc_relaxation(o):
    assert mirsky_coloring(o) == mirsky_reference(o)


@given(transitive_orientations())
@settings(max_examples=100, deadline=None)
def test_greedy_matching_is_a_matching_that_kuhn_completes(o):
    n = len(o.succ)
    # decreasing successor count is a topological order of a transitive orientation
    order = sorted(range(n), key=lambda i: o.succ[i].bit_count(), reverse=True)
    greedy = _greedy_matching(o.succ, order)
    assert len(set(greedy.values())) == len(greedy)
    assert all(o.succ[u] >> v & 1 for v, u in greedy.items())
    match_r, _ = _kuhn_matching(o.succ, (1 << n) - 1, greedy)
    assert len(match_r) == len(_kuhn_matching(o.succ, (1 << n) - 1)[0])
    chains = _chains(match_r, n)
    assert len(chains) == len(max_antichain(o))
    assert sorted(v for chain in chains for v in chain) == list(range(n))


def test_matching_paths_longer_than_recursion_limit():
    # the vote-1 orientation of a clique is one long chain: augmenting
    # paths in the matching grow far beyond the lowered recursion limit
    e = implement_clique([str(i) for i in range(1, 301)]).election
    gamma = multicrossing_graph(e)
    pos = e.positions(1)
    o = Orientation(gamma, [(a, b) if pos[a] < pos[b] else (b, a) for a, b in gamma.edges])
    assert o.verify_transitive() and transitive_by_arcs(o)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        antichain = max_antichain(o)
        chains = minimum_chain_cover(o)
    finally:
        sys.setrecursionlimit(limit)
    assert len(antichain) == 1
    assert chains == [list(e.votes[0])]


def test_solvers_deeper_than_recursion_limit():
    # every vertex of an edgeless graph adds one level to both searches
    g = UndirectedGraph([str(i) for i in range(1, 1201)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        best, complete, _ = maximum_independent_set(g)
        found, found_complete, _ = _mis_search(g.adj, DEFAULT_BUDGET, stop_at=1200)
        colored = exact_coloring(g, 1)
    finally:
        sys.setrecursionlimit(limit)
    assert len(best) == 1200 and complete
    assert found.bit_count() == 1200 and found_complete
    assert colored.status == "found"
    assert set(colored.witness.values()) == {1}


def test_orientation_rejects_unknown_arcs():
    g = path_graph(3)
    with pytest.raises(Exception):
        Orientation(g, [("1", "3")])


def test_orientation_directs_each_edge_once():
    g = path_graph(3)
    for arcs in ([("1", "2"), ("2", "1"), ("2", "3")],  # an edge in both directions
                 [("1", "2")],  # an edge left out
                 [("1", "2"), ("2", "3"), ("x", "1")],  # an unknown vertex
                 [("1", "2"), ("2", "3"), ("1", "3")]):  # a non-edge
        with pytest.raises(GraphError):
            Orientation(g, arcs)
    o = Orientation(g, [("1", "2"), ("1", "2"), ("2", "3")])  # the arcs form a set
    assert o.succ == (0b010, 0b100, 0)
    assert o.arcs == {("1", "2"), ("2", "3")}


@given(comparability_graphs())
@settings(max_examples=60, deadline=None)
def test_orientation_rebuilt_from_its_arcs(g):
    o = transitive_orientation(g)
    rebuilt = Orientation(g, o.arcs)
    assert rebuilt.succ == o.succ
    assert rebuilt.arcs == o.arcs
    assert not rebuilt.verified and rebuilt.verify_transitive()


# -------------------------------------------------------------- bipartite


@given(graphs(max_v=9))
def test_bipartite_certificates(g):
    ok, cert = is_bipartite(g)
    if ok:
        for u, v in g.edges:
            assert cert[u] != cert[v]
    else:
        # certificate is an odd closed walk through edges of g
        assert len(cert) % 2 == 1
        cycle = list(cert) + [cert[0]]
        for u, v in zip(cycle, cycle[1:]):
            assert g.has_edge(u, v)


def test_even_cycle_bipartite_odd_not():
    assert is_bipartite(cycle_graph(8))[0]
    ok, cycle = is_bipartite(cycle_graph(9))
    assert not ok and len(cycle) == 9


# ----------------------------------------------------------- exact solvers


@given(graphs(max_v=10))
@settings(max_examples=80, deadline=None)
def test_mis_solver_matches_oracle(g):
    best, complete, _ = maximum_independent_set(g)
    assert complete
    size, _ = bf.bf_independent_set(g)
    assert len(best) == size
    assert not any(g.has_edge(a, b) for a in best for b in best if a < b)


@given(graphs(max_v=10), st.integers(min_value=1, max_value=10))
@settings(max_examples=80, deadline=None)
def test_exact_independent_set_decision(g, t):
    found, complete, _ = _mis_search(g.adj, DEFAULT_BUDGET, stop_at=t)
    assert complete
    assert (found.bit_count() >= t) == (bf.bf_independent_set(g)[0] >= t)
    assert not any(g.adj[v] & found for v in _bits(found))


@given(graphs(max_v=9), st.integers(min_value=1, max_value=5))
@settings(max_examples=80, deadline=None)
def test_exact_coloring_matches_oracle(g, k):
    report = exact_coloring(g, k)
    chi, _ = bf.bf_chromatic(g)
    assert (report.status == "found") == (chi <= k)
    if report.status == "found":
        for u, v in g.edges:
            assert report.witness[u] != report.witness[v]
        assert len(set(report.witness.values())) <= k


@given(graphs(max_v=10), st.integers(min_value=0, max_value=2**10 - 1),
       st.one_of(st.none(), st.integers(min_value=1, max_value=10)))
@settings(max_examples=80, deadline=None)
def test_mis_search_within_pool(g, pool, stop_at):
    pool &= (1 << len(g.vertices)) - 1
    found, complete, _ = _mis_search(g.adj, 10_000_000, stop_at=stop_at, within=pool)
    assert complete
    assert found & ~pool == 0
    assert not any(g.adj[v] & found for v in range(len(g.vertices)) if found >> v & 1)
    size = found.bit_count()
    if stop_at is not None and size >= stop_at:
        return
    members = [v for i, v in enumerate(g.vertices) if pool >> i & 1]
    alpha = 0
    if members:
        sub = UndirectedGraph(members, [e for e in g.edges if set(e) <= set(members)])
        alpha = bf.bf_independent_set(sub)[0]
    if stop_at is None:
        assert size == alpha
    else:  # a probe that falls short need not be maximum, but no set reaches stop_at
        assert alpha < stop_at


def test_budget_exhaustion_reported():
    g = random_graph(30, 0.5, seed=7)
    best, complete, nodes = maximum_independent_set(g, budget=5)
    assert not complete
    assert nodes >= 5
    sparse = random_graph(40, 0.1, seed=7)  # clique number < 4, so no shortcut
    report = exact_coloring(sparse, 3, budget=5)
    assert report.status == "budget-exceeded"


def test_mis_fold_cascade_runs_against_index_order():
    # a 2 000-vertex path whose leaf has the highest index, hung on a triangle,
    # searched in this index order: the root folds the path from its leaf down
    # and then the triangle; a fold that lost track of a vertex would branch
    n = 2000
    g = UndirectedGraph([str(i) for i in range(n + 3)],
                        [(str(i), str(i + 1)) for i in range(n - 1)]
                        + [("0", str(n)), (str(n), str(n + 1)), (str(n + 1), str(n + 2)),
                           (str(n), str(n + 2))])
    best, complete, nodes = _mis_search(g.adj, DEFAULT_BUDGET)
    assert (best.bit_count(), complete, nodes) == (n // 2 + 1, True, 1)
    assert not any(g.adj[v] & best for v in _bits(best))


def test_mis_triangle_fold_settles_at_the_root():
    # disjoint triangles, each with a pendant path on one corner: the paths
    # fold from their leaves, and then each triangle folds, with no branch
    edges, names = [], []
    for t in range(12):
        a, b, c = (f"t{t}{x}" for x in "abc")
        path = [f"p{t}_{i}" for i in range(t % 4)]
        names += [a, b, c, *path]
        edges += [(a, b), (b, c), (a, c)]
        edges += list(zip([a, *path], path))
    g = UndirectedGraph(names, edges)
    best, complete, nodes = maximum_independent_set(g)
    assert (complete, nodes) == (True, 1)
    assert len(best) == sum(1 + (t % 4 + 1) // 2 for t in range(12))  # 1 + ceil(path / 2) each
    assert not any(g.has_edge(a, b) for a, b in combinations(best, 2))


@given(graphs(max_v=12))
@settings(max_examples=80, deadline=None)
def test_degree_order_is_the_same_graph(g):
    h = _by_degree(g)
    assert h == g
    degrees = [mask.bit_count() for mask in h.adj]
    assert degrees == sorted(degrees)
    # ties keep g's order
    assert all(g.index[a] < g.index[b] for a, b, da, db in
               zip(h.vertices, h.vertices[1:], degrees, degrees[1:]) if da == db)


# Search order: kept vertices, completeness and node counts of seeded
# searches, written with the clique-cover bound, the triangle fold, the
# ascending-degree order and DSATUR branching.
MIS_PINS = [
    ((30, 0.3, 1), 10_000_000, ([4, 8, 10, 13, 16, 17, 18, 26, 27, 28], True, 33)),
    ((40, 0.2, 2), 10_000_000,
     ([2, 4, 7, 10, 14, 20, 22, 23, 25, 26, 28, 31, 38], True, 55)),
    ((25, 0.5, 3), 10_000_000, ([3, 4, 5, 9, 16, 17], True, 21)),
    ((90, 0.1, 4), 2000,
     ([4, 7, 10, 11, 14, 16, 17, 19, 24, 27, 34, 37, 38, 42, 48, 49, 52, 55, 59, 60, 68,
       69, 75, 76, 78, 80, 82, 83, 85, 87], False, 2001)),
]


@pytest.mark.parametrize("spec, budget, expected", MIS_PINS)
def test_mis_search_order_pinned(spec, budget, expected):
    v, p, seed = spec
    best, complete, nodes = maximum_independent_set(random_graph(v, p, seed=seed), budget)
    assert (sorted(map(int, best)), complete, nodes) == expected


# witness: the color of each vertex, in vertex order
COLORING_PINS = [
    ((25, 0.3, 5), 4, 10_000_000, ("found", 30, "4122332214213424111314343")),
    ((30, 0.2, 4), 4, 10_000_000, ("found", 30, "324112144212121344331322132212")),
    ((30, 0.3, 9), 5, 10_000_000, ("found", 76, "314455151334123251511434124223")),
    ((40, 0.15, 7), 3, 10_000_000, ("infeasible", 7, None)),
    ((35, 0.25, 8), 4, 10_000_000, ("infeasible", 17, None)),
    ((100, 0.05, 4), 3, 300, ("budget-exceeded", 301, None)),
]


@pytest.mark.parametrize("spec, k, budget, expected", COLORING_PINS)
def test_coloring_search_order_pinned(spec, k, budget, expected):
    v, p, seed = spec
    g = random_graph(v, p, seed=seed)
    report = exact_coloring(g, k, budget)
    witness = report.witness and "".join(str(report.witness[x]) for x in g.vertices)
    assert (report.status, report.nodes, witness) == expected


def test_coloring_with_more_colors_than_vertices():
    g = random_graph(12, 0.3, seed=3)
    assert exact_coloring(g, 10**9) == exact_coloring(g, len(g.vertices))
