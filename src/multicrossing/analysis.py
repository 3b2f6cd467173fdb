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
    GraphError,
    Orientation,
    UndirectedGraph,
    _bits,
    exact_coloring,
    is_bipartite,
    max_antichain,
    maximum_independent_set,
    mirsky_coloring,
)

DEFAULT_BUDGET = 10_000_000


@dataclass
class AnalysisResult:
    kind: str  # "deletion" | "partition"
    feasible: bool
    optimal: bool
    budget_exceeded: bool
    method: str  # "general-exact" | "three-voter-poly" | "bipartite-poly"
    nodes_explored: int
    kept: tuple[str, ...] | None = None
    classes: tuple[tuple[str, ...], ...] | None = None

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

    For elections with at most 3 voters this is always transitive.
    """
    pos = e.positions(1)
    arcs = [(a, b) if pos[a] < pos[b] else (b, a) for a, b in gamma.edges]
    o = Orientation(gamma, arcs)
    if not o.verify_transitive():
        raise GraphError("vote-1 orientation of a <=3-voter election not transitive")
    return o


def _lexmin_max_independent_set(gamma: UndirectedGraph, size: int, mis_size) -> tuple[str, ...]:
    """Lexicographically smallest (by candidate name) maximum independent set.

    Greedy over sorted names; a candidate joins when some maximum set
    extends the current choice using only later, compatible candidates.
    """
    vs, adj = gamma.vertices, gamma.adj
    later = (1 << len(vs)) - 1  # candidates not yet considered
    blocked = 0  # neighbours of the chosen candidates
    chosen: list[str] = []
    for c in sorted(range(len(vs)), key=vs.__getitem__):
        later ^= 1 << c
        if blocked >> c & 1:
            continue
        pool = later & ~(blocked | adj[c])
        extra = mis_size(gamma.induced([vs[v] for v in _bits(pool)])) if pool else 0
        if len(chosen) + 1 + extra >= size:
            chosen.append(vs[c])
            blocked |= adj[c]
        if len(chosen) == size:
            break
    if len(chosen) != size:
        raise GraphError("lexmin refinement failed to reach the maximum size")
    return tuple(chosen)


def _poly_mis_size(e: Election):
    def mis_size(sub: UndirectedGraph) -> int:
        o = _vote1_orientation(e, sub)
        return len(max_antichain(o))

    return mis_size


def candidate_deletion(e: Election, k: int, budget: int = DEFAULT_BUDGET,
                       force_general: bool = False,
                       should_stop=None) -> AnalysisResult:
    """Keep at least |C|-k candidates whose restriction is single-crossing.

    Feasible iff the multi-crossing graph has an independent set of size
    |C|-k; the returned kept set is a maximum independent set, smallest
    in candidate-name lexicographic order among the maximum ones.
    """
    if k < 0:
        raise ValueError("deletion budget must be >= 0")
    gamma = multicrossing_graph(e)
    target = e.m - k
    if e.n <= 3 and not force_general:
        o = _vote1_orientation(e, gamma)
        size = len(max_antichain(o))
        kept = _lexmin_max_independent_set(gamma, size, _poly_mis_size(e))
        return AnalysisResult(
            kind="deletion", feasible=size >= target, optimal=True,
            budget_exceeded=False, method="three-voter-poly",
            nodes_explored=0, kept=kept,
        )

    best, complete, nodes = maximum_independent_set(gamma, budget, should_stop)
    if complete:
        def mis_size(sub: UndirectedGraph) -> int:
            found, done, _ = maximum_independent_set(sub, budget)
            if not done:
                raise _RefineBudget
            return len(found)

        try:
            kept = _lexmin_max_independent_set(gamma, len(best), mis_size)
        except _RefineBudget:
            kept = tuple(sorted(best))
        return AnalysisResult(
            kind="deletion", feasible=len(kept) >= target, optimal=True,
            budget_exceeded=False, method="general-exact",
            nodes_explored=nodes, kept=kept,
        )
    kept = tuple(sorted(best))
    return AnalysisResult(
        kind="deletion", feasible=len(kept) >= target, optimal=False,
        budget_exceeded=True, method="general-exact",
        nodes_explored=nodes, kept=kept,
    )


class _RefineBudget(Exception):
    pass


def _classes_from_coloring(coloring: dict[str, int], order) -> tuple[tuple[str, ...], ...]:
    by_color: dict[int, list[str]] = {}
    for v in order:
        by_color.setdefault(coloring[v], []).append(v)
    return tuple(tuple(sorted(vs)) for _, vs in sorted(by_color.items()))


def candidate_partition(e: Election, k: int, budget: int = DEFAULT_BUDGET,
                        force_general: bool = False,
                        should_stop=None) -> AnalysisResult:
    """Split the candidates into at most k single-crossing classes.

    Feasible iff the multi-crossing graph is k-colorable: k=2 via
    bipartiteness, at most 3 voters via the Mirsky chain-height
    coloring, otherwise exact backtracking.
    """
    if k < 1:
        raise ValueError("number of parts must be >= 1")
    gamma = multicrossing_graph(e)
    if k == 2 and not force_general:
        ok, cert = is_bipartite(gamma)
        classes = _classes_from_coloring(cert, gamma.vertices) if ok else None
        return AnalysisResult(
            kind="partition", feasible=ok, optimal=True, budget_exceeded=False,
            method="bipartite-poly", nodes_explored=0, classes=classes,
        )
    if e.n <= 3 and not force_general:
        o = _vote1_orientation(e, gamma)
        heights, chi = mirsky_coloring(o)
        feasible = chi <= k
        classes = _classes_from_coloring(heights, gamma.vertices) if feasible else None
        return AnalysisResult(
            kind="partition", feasible=feasible, optimal=True,
            budget_exceeded=False, method="three-voter-poly",
            nodes_explored=0, classes=classes,
        )
    report = exact_coloring(gamma, k, budget, should_stop)
    if report.status == "found":
        classes = _classes_from_coloring(report.witness, gamma.vertices)
        return AnalysisResult(
            kind="partition", feasible=True, optimal=True, budget_exceeded=False,
            method="general-exact", nodes_explored=report.nodes, classes=classes,
        )
    if report.status == "infeasible":
        return AnalysisResult(
            kind="partition", feasible=False, optimal=True, budget_exceeded=False,
            method="general-exact", nodes_explored=report.nodes,
        )
    return AnalysisResult(
        kind="partition", feasible=False, optimal=False, budget_exceeded=True,
        method="general-exact", nodes_explored=report.nodes,
    )


def reduce_independent_set(g: UndirectedGraph, t: int) -> tuple[Election, int]:
    """Independent Set instance -> Candidate Deletion instance."""
    result = implement_general(g)
    return result.election, len(g.vertices) - t


def reduce_coloring(g: UndirectedGraph, k: int) -> Election:
    """k-Coloring instance -> k-Candidate Partition instance."""
    del k  # the part count carries over unchanged
    return implement_general(g).election
