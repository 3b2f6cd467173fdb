"""Builders that produce elections implementing a target graph.

Every builder recomputes the multi-crossing graph of its output and
refuses to release a result that does not match the target exactly.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .elections import Election, multicrossing_graph, restrict
from .graphs import (
    GraphError,
    PermutationDiagram,
    UndirectedGraph,
    _count,
    _int_names,
    _later,
    _linear_order,
    _sequence,
)


class ConstructionError(RuntimeError):
    pass


class ConstructionInputError(ConstructionError):
    """The arguments describe no instance the construction accepts."""


@dataclass(frozen=True)
class ImplementationResult:
    election: Election
    target: UndirectedGraph

    @property
    def verified(self) -> bool:
        return True  # `_finish` releases no result that fails self-verification

    @property
    def voters_used(self) -> int:
        return self.election.n


def _finish(candidates, votes, target: UndirectedGraph) -> ImplementationResult:
    election = Election(candidates, votes)
    got = multicrossing_graph(election)
    if got != target:
        raise ConstructionError(
            "construction failed self-verification: "
            f"missing={sorted(target.edges - got.edges)} "
            f"extra={sorted(got.edges - target.edges)}"
        )
    return ImplementationResult(election, target)


def path_graph(s: int) -> UndirectedGraph:
    names = _int_names(s)
    return UndirectedGraph(names, [(names[i], names[i + 1]) for i in range(s - 1)])


def cycle_graph(s: int) -> UndirectedGraph:
    names = _int_names(s)
    edges = [(names[i], names[i + 1]) for i in range(s - 1)] + [(names[-1], names[0])]
    return UndirectedGraph(names, edges)


def implement_empty(vertices) -> ImplementationResult:
    """Three identical voters: nothing ever crosses."""
    vs = _sequence(vertices, ConstructionInputError, "vertices")
    return implement_permutation_graph(PermutationDiagram(vs, vs))


def implement_clique(vertices) -> ImplementationResult:
    """First and third voters agree, the second ranks in reverse."""
    vs = _sequence(vertices, ConstructionInputError, "vertices")
    return implement_permutation_graph(PermutationDiagram(vs, vs[::-1]))


def _path_votes(s: int) -> tuple[list[int], list[int]]:
    """Votes 1(=3) and 2 of the 3-voter path profile on candidates 1..s.

    Starting from the sorted order, voters 1 and 3 swap candidates 2i and
    2i+1, voter 2 swaps candidates 2i and 2i-1.
    """
    v1 = list(range(1, s + 1))
    for i in range(1, (s - 1) // 2 + 1):
        v1[2 * i - 1], v1[2 * i] = v1[2 * i], v1[2 * i - 1]
    v2 = list(range(1, s + 1))
    for i in range(1, s // 2 + 1):
        v2[2 * i - 2], v2[2 * i - 1] = v2[2 * i - 1], v2[2 * i - 2]
    return v1, v2


def implement_path(s: int) -> ImplementationResult:
    v1, v2 = _path_votes(_count(s, ConstructionInputError, "path length", 2))
    votes = [[str(c) for c in v] for v in (v1, v2, v1)]
    return _finish(_int_names(s), votes, path_graph(s))


def implement_even_cycle(s: int) -> ImplementationResult:
    """3-voter profile for the cycle 1-2-...-s-1 (s even).

    Derived from the path profile: vote 2 moves candidate 1 to the
    bottom, vote 3 re-inserts candidates 1 and 2 just above the bottom.
    Self-verification is mandatory; the generalisation beyond s=6 is
    validated by recomputing the multi-crossing graph.
    """
    if _count(s, ConstructionInputError, "cycle length", 4) % 2:
        raise ConstructionInputError(f"cycle length must be even, got {s!r}")
    p1, p2 = _path_votes(s)
    v1 = p1
    v2 = [c for c in p2 if c != 1] + [1]
    core = [c for c in p1 if c not in (1, 2)]
    v3 = core[:-1] + [1, 2] + core[-1:]
    votes = [[str(c) for c in v] for v in (v1, v2, v3)]
    return _finish(_int_names(s), votes, cycle_graph(s))


def implement_tree(t: UndirectedGraph) -> ImplementationResult:
    """Bottom-up 3-voter implementation of a tree.

    Invariant maintained bottom-up: the first voter ranks the subtree
    root first. The root is the lexicographically smallest vertex, and
    children are processed in lexicographic order.
    """
    if sum(mask.bit_count() for mask in t.adj) != 2 * (len(t.vertices) - 1):
        raise ConstructionInputError("input is not a tree (wrong edge count)")
    root = min(t.vertices)
    children: dict[str, list[str]] = {v: [] for v in t.vertices}
    order = [root]  # breadth-first; the list doubles as the queue
    seen = {root}
    for u in order:
        for v in sorted(t.neighbors(u)):
            if v not in seen:
                seen.add(v)
                children[u].append(v)
                order.append(v)
    if len(order) != len(t.vertices):
        raise ConstructionInputError("input is not a tree (not connected)")

    # votes of each subtree, built after its children's in reverse BFS order
    built: dict[str, tuple[list[str], list[str], list[str]]] = {}
    for r in reversed(order):
        kids = children[r]
        subs = [built.pop(c) for c in kids]
        kidset = set(kids)
        v1 = kids + [r] + [x for s in subs for x in s[0] if x not in kidset]
        v2 = [r] + [x for s in subs for x in s[1]]
        v3 = [x for s in subs for x in s[2]] + [r]
        # reverse every vote, then reverse the voter order: r ends up first
        built[r] = v3[::-1], v2[::-1], v1[::-1]
    return _finish(t.vertices, built[root], t)


def implement_permutation_graph(d: PermutationDiagram) -> ImplementationResult:
    """The profile (pi1, pi2, pi1) implements the diagram's graph."""
    return _finish(d.pi1, [d.pi1, d.pi2, d.pi1], d.graph())


def _rebase_witness(g: UndirectedGraph, first) -> tuple[str, ...] | None:
    """Second permutation pairing with `first` to witness exactly the edges of g.

    The required order (invert a pair iff it is an edge) must be a total
    order; None when the induced tournament is cyclic, i.e. no witness
    with this first permutation exists.
    """
    # later non-neighbours and earlier neighbours
    succ = [after ^ a for after, a in zip(_later(first, g.index), g.adj)]
    return _linear_order(succ, g.vertices)


def intersect_implementations(d1: PermutationDiagram,
                              d2: PermutationDiagram) -> ImplementationResult:
    """3-voter election implementing the intersection of two diagrams' edges.

    Rewitnesses one diagram so the two share a middle permutation: in the
    profile (w1, w2, w3), pairs multi-cross exactly when both w1 and w3
    disagree with w2, i.e. on the edge intersection. Not every witness
    pair admits a shared middle; when no rebasing works the construction
    fails rather than implement the wrong graph.

    Each diagram offers two witness pairs, (pi1, pi2) and (pi2, pi1). The
    reversed pairs need not be tried: reversing the middle vote reverses
    the rebased third vote (or leaves it impossible), and reversing all
    three votes keeps the multi-crossing graph.
    """
    if set(d1.pi1) != set(d2.pi1):
        raise GraphError("diagrams must share the vertex set")
    vertices = d1.pi1
    index = {v: i for i, v in enumerate(vertices)}
    g1, g2 = (UndirectedGraph._from_masks(vertices, d._adj(index)) for d in (d1, d2))
    target = UndirectedGraph._from_masks(vertices, [a & b for a, b in zip(g1.adj, g2.adj)])
    # profile (x, mid, y): (x, mid) is a witness pair of d1 and g2 is rebased
    # onto mid, or (mid, y) is one of d2 and g1 is rebased onto mid
    for d, other, opens in ((d1, g2, True), (d2, g1, False)):
        for pair in ((d.pi1, d.pi2), (d.pi2, d.pi1)):
            third = _rebase_witness(other, pair[1] if opens else pair[0])
            if third is None:
                continue
            votes = [*pair, third] if opens else [third, *pair]
            return _finish(vertices, votes, target)
    raise ConstructionError(
        "no shared-middle witness found; the edge intersection may not be "
        "3-implementable from these diagrams"
    )


def _swapped(vote: list[int], positions) -> list[int]:
    """Copy of `vote` with the pair at (p, p+1) swapped for each p in `positions`."""
    out = vote.copy()
    for p in positions:
        out[p], out[p + 1] = out[p + 1], out[p]
    return out


def _odd_even_schedule(m: int):
    """Odd-even transposition sort of 0..m-1 into its reverse, step by step.

    Step t swaps the positions (p, p+1) for p = t % 2, t % 2 + 2, ...;
    yields the vote after each of the m steps with the positions it
    swapped. Every pair is swapped exactly once, always adjacently.
    """
    vote = list(range(m))
    for t in range(m):
        swaps = range(t % 2, m - 1, 2)
        vote = _swapped(vote, swaps)
        yield vote, swaps


def fully_single_crossing(m: int) -> Election:
    """m-candidate, (m+1)-voter election where every pair crosses exactly
    once, always as an adjacent swap."""
    _count(m, ConstructionInputError, "candidate count", 2)
    votes = [range(m)] + [vote for vote, _ in _odd_even_schedule(m)]
    return Election(_int_names(m), ((str(c + 1) for c in vote) for vote in votes))


def implement_general(g: UndirectedGraph) -> ImplementationResult:
    """Implement an arbitrary graph with at most 2|V|+1 voters.

    Walks the fully single-crossing schedule on vertex indices and emits
    each vote twice: as scheduled, then with the pairs that are edges
    swapped back. An edge pair thus crosses three times and multi-crosses,
    any other pair crosses once; one voter suffices for a single vertex.
    """
    m = len(g.vertices)
    if m == 1:
        return _finish(g.vertices, [g.vertices], g)
    votes = [range(m)]
    for vote, swaps in _odd_even_schedule(m):
        edges = [p for p in swaps if g.adj[vote[p]] >> vote[p + 1] & 1]
        votes += [vote, _swapped(vote, edges)]
    names = [[g.vertices[c] for c in vote] for vote in votes]
    return _finish(g.vertices, names, g)


@dataclass(frozen=True)
class RamseyExtract:
    kind: str  # "clique" | "independent"
    members: tuple[str, ...]


def _longest_increasing(values: list[int]) -> list[int]:
    """Indices of a longest increasing subsequence of distinct values, by patience
    sorting in O(s log s): piles[k] lists the indices that end a longest run of
    length k + 1, and each links to the first smaller index on the pile before."""
    piles: list[list[int]] = []
    back = [-1] * len(values)
    for i, x in enumerate(values):
        p = bisect_left(piles, x, key=lambda pile: values[pile[-1]])
        if p:
            back[i] = piles[p - 1][bisect_right(piles[p - 1], -x, key=lambda j: -values[j])]
        if p == len(piles):
            piles.append([])
        piles[p].append(i)
    out = [piles[-1][0]]
    while back[out[-1]] != -1:
        out.append(back[out[-1]])
    return out[::-1]


def ramsey_extract(e: Election) -> RamseyExtract:
    """Candidates ranked identically or oppositely by every voter.

    Repeated longest increasing/decreasing subsequence extraction
    relative to the first vote (ties favour increasing); the survivors
    form a clique or an independent set of the multi-crossing graph of
    size at least s^(1/2^(n-1)).
    """
    rank1 = {c: i for i, c in enumerate(e.votes[0])}
    keep = set(e.candidates)
    for vote in e.votes[1:]:
        seq = [c for c in vote if c in keep]
        values = [rank1[c] for c in seq]
        runs = [_longest_increasing(values), _longest_increasing([-x for x in values])]
        keep = {seq[i] for i in max(runs, key=len)}  # the first longest: ties go to increasing
    members = tuple(c for c in e.candidates if c in keep)
    gamma = multicrossing_graph(restrict(e, members))
    n_edges = sum(mask.bit_count() for mask in gamma.adj) // 2
    n_pairs = len(members) * (len(members) - 1) // 2
    if n_edges == 0:  # also a single member
        return RamseyExtract("independent", members)
    if n_edges == n_pairs:
        return RamseyExtract("clique", members)
    raise ConstructionError("extracted set is neither a clique nor independent")
