"""Candidate Deletion and k-Candidate Partition solvers.

Method selection is automatic: elections with at most 3 voters go
through the comparability-graph poset algorithms, 2-part partitions
through bipartiteness, everything else through the exact NP-hard
solvers with a node budget.
"""
from __future__ import annotations

from dataclasses import dataclass

from .constructions import implement_general
from .elections import Election, multicrossing_graph
from .graphs import (
    DEFAULT_BUDGET,
    Orientation,
    UndirectedGraph,
    _antichain,
    _bits,
    _chains,
    _count,
    _degree_ordered_search,
    _greedy_matching,
    _kuhn_matching,
    _later,
    exact_coloring,
    is_bipartite,
    mirsky_coloring,
)


class AnalysisInputError(ValueError):
    """The arguments describe no instance the analysis accepts."""


@dataclass
class AnalysisResult:
    kind: str  # "deletion" | "partition"
    feasible: bool
    budget_exceeded: bool
    method: str  # "general-exact" | "three-voter-poly" | "bipartite-poly"
    nodes_explored: int
    kept: tuple[str, ...] | None = None
    classes: tuple[tuple[str, ...], ...] | None = None

    @property
    def optimal(self) -> bool:
        return not self.budget_exceeded

    def to_json_dict(self) -> dict:
        out = {
            "schema": "1",
            "kind": self.kind,
            "feasible": self.feasible,
            "optimal": self.optimal,
            "budget_exceeded": self.budget_exceeded,
            "method": self.method,
            "nodes_explored": self.nodes_explored,
        }
        if self.kind == "deletion":
            out["kept"] = list(self.kept) if self.kept is not None else None
        else:
            out["classes"] = (
                [list(c) for c in self.classes] if self.classes is not None else None
            )
        return out


def _vote1_orientation(e: Election, gamma: UndirectedGraph) -> Orientation:
    """Orient each multi-crossing edge by the first voter's preference.

    For elections with at most 3 voters this is always transitive. It is
    checked once here: its restriction to any candidate pool is then
    transitive too, so the lexmin probes need no check of their own.
    """
    below = _later(e.votes[0], gamma.index)  # the candidates the first voter ranks below
    o = Orientation._from_masks(gamma, [a & b for a, b in zip(gamma.adj, below)])
    if not o.verify_transitive():
        raise RuntimeError("vote-1 orientation of a <=3-voter election not transitive")
    return o


def _lexmin_max_independent_set(gamma: UndirectedGraph, search,
                                budget: int) -> tuple[tuple[str, ...], bool, int]:
    """Lexicographically smallest (by candidate name) maximum independent set.

    `search(pool, need, budget)` looks in the vertex mask `pool` for
    `need` independent vertices (None: as many as there can be) in at most
    `budget` nodes. It returns (mask, complete, nodes), and complete is
    False when the budget ran out. The search of all the vertices gives
    the size and the first witness: the mask of a maximum set whose members
    not yet visited extend the current choice. Greedy over sorted names, a
    candidate in the witness joins with no search, and so does one with
    exactly one neighbour among the witness members not yet visited: trading
    that neighbour for it keeps a maximum set. Any other one joins when a
    search of the later, compatible candidates finds `need` (>= 1) of them,
    and that find becomes the witness. Each search draws on what the
    earlier ones left of `budget`. Returns (kept, complete, nodes); after
    an incomplete search, kept is the first search's set in name order.
    """
    vs, adj = gamma.vertices, gamma.adj
    later = (1 << len(vs)) - 1  # candidates not yet considered
    first, complete, nodes = search(later, None, budget)
    size, witness = first.bit_count(), first
    blocked = 0  # neighbours of the chosen candidates
    chosen: list[str] = []
    for c in sorted(range(len(vs)), key=vs.__getitem__):
        if not complete or len(chosen) == size:
            break
        bit = 1 << c
        later ^= bit
        if blocked & bit:
            continue
        near = adj[c] & witness & later
        if near & (near - 1):  # two or more witness neighbours: search
            need = size - len(chosen) - 1
            pool = later & ~(blocked | adj[c])
            if pool.bit_count() < need:
                continue
            found, complete, used = search(pool, need, budget - nodes)
            nodes += used
            if found.bit_count() < need:
                continue
            witness = found
        else:
            witness &= ~near
        chosen.append(vs[c])
        blocked |= adj[c]
    if not complete:
        return tuple(sorted(vs[i] for i in _bits(first))), False, nodes
    if len(chosen) != size:
        raise RuntimeError("lexmin refinement failed to reach the maximum size")
    return tuple(chosen), True, nodes


def candidate_deletion(e: Election, k: int, budget: int = DEFAULT_BUDGET) -> AnalysisResult:
    """Keep at least |C|-k candidates whose restriction is single-crossing.

    Feasible iff the multi-crossing graph has an independent set of size
    |C|-k; the returned kept set is a maximum independent set, smallest
    in candidate-name lexicographic order among the maximum ones. On the
    general path `budget` bounds the nodes of the whole analysis, that
    refinement included, and `nodes_explored` counts them all.
    """
    _count(k, AnalysisInputError, "deletion budget")
    _count(budget, AnalysisInputError, "node budget")
    gamma = multicrossing_graph(e)
    if e.n <= 3:
        method = "three-voter-poly"
        o = _vote1_orientation(e, gamma)
        # a maximum matching of the whole poset, from a greedy one down vote 1: each
        # search resumes from its pairs in the pool
        order = [gamma.index[c] for c in e.votes[0]]
        start, _ = _kuhn_matching(o.succ, (1 << e.m) - 1, _greedy_matching(o.succ, order))
        # its chains cover the poset, and an antichain meets each chain at most once
        chains = [sum(1 << v for v in chain) for chain in _chains(start, e.m)]

        def search(pool: int, need: int | None, budget: int) -> tuple[int, bool, int]:
            if need is not None and sum(1 for chain in chains if chain & pool) < need:
                return 0, True, 0  # refuted by the chain cover, with no matching
            return _antichain(o, pool, start), True, 0  # a maximum antichain, at no node
    else:
        method = "general-exact"
        # the search runs in degree order; the driver walks names, so the kept set is the same
        gamma, search = _degree_ordered_search(gamma)
    kept, complete, nodes = _lexmin_max_independent_set(gamma, search, budget)
    return AnalysisResult(
        kind="deletion", feasible=len(kept) >= e.m - k, budget_exceeded=not complete,
        method=method, nodes_explored=nodes, kept=kept,
    )


def _classes_from_coloring(coloring: dict[str, int], order) -> tuple[tuple[str, ...], ...]:
    by_color: dict[int, list[str]] = {}
    for v in order:
        by_color.setdefault(coloring[v], []).append(v)
    return tuple(tuple(sorted(vs)) for _, vs in sorted(by_color.items()))


def candidate_partition(e: Election, k: int, budget: int = DEFAULT_BUDGET) -> AnalysisResult:
    """Split the candidates into at most k single-crossing classes.

    Feasible iff the multi-crossing graph is k-colorable: k=2 via
    bipartiteness, at most 3 voters via the Mirsky chain-height
    coloring, otherwise exact backtracking.
    """
    _count(k, AnalysisInputError, "number of parts", 1)
    _count(budget, AnalysisInputError, "node budget")
    gamma = multicrossing_graph(e)
    nodes, exceeded = 0, False
    if k == 2:
        method = "bipartite-poly"
        feasible, coloring = is_bipartite(gamma)
    elif e.n <= 3:
        method = "three-voter-poly"
        coloring, chi = mirsky_coloring(_vote1_orientation(e, gamma))
        feasible = chi <= k
    else:
        method = "general-exact"
        report = exact_coloring(gamma, k, budget)
        feasible, coloring, nodes = report.status == "found", report.witness, report.nodes
        exceeded = report.status == "budget-exceeded"
    classes = _classes_from_coloring(coloring, gamma.vertices) if feasible else None
    return AnalysisResult(
        kind="partition", feasible=feasible, budget_exceeded=exceeded,
        method=method, nodes_explored=nodes, classes=classes,
    )


def reduce_independent_set(g: UndirectedGraph, t: int) -> tuple[Election, int]:
    """Independent Set instance -> Candidate Deletion instance: an
    independent set of t vertices is a deletion of |V| - t candidates."""
    if _count(t, AnalysisInputError, "independent set size") > len(g.vertices):
        raise AnalysisInputError(
            f"independent set size must be at most the vertex count {len(g.vertices)}, got {t!r}")
    return implement_general(g).election, len(g.vertices) - t


def reduce_coloring(g: UndirectedGraph, k: int) -> Election:
    """k-Coloring instance -> k-Candidate Partition instance; the part
    count carries over unchanged."""
    _count(k, AnalysisInputError, "number of colors", 1)
    return implement_general(g).election
