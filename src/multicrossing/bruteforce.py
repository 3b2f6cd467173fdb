"""Independent brute-force references for the test suite.

Everything here answers by exhaustive enumeration, with explicit size
limits; these oracles are the backbone the polynomial and
branch-and-bound algorithms are checked against.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

from .graphs import UndirectedGraph, vertex_pair

MAX_SUBSET_VERTICES = 20
MAX_COLORING_VERTICES = 14
MAX_ORIENTATION_VERTICES = 10
MAX_DIAGRAM_VERTICES = 7
MAX_PROFILE_VERTICES = 5


class OracleLimitError(ValueError):
    pass


def _require(g: UndirectedGraph, limit: int, what: str):
    if len(g.vertices) > limit:
        raise OracleLimitError(
            f"{what} oracle refuses {len(g.vertices)} vertices (limit {limit})"
        )


def bf_independent_set(g: UndirectedGraph) -> tuple[int, tuple[str, ...]]:
    """Maximum independent set size and a witness, by plain recursion."""
    _require(g, MAX_SUBSET_VERTICES, "independent set")
    nbr = g.adj

    def rec(avail):
        if avail == 0:
            return 0, 0
        v = (avail & -avail).bit_length() - 1
        bit = 1 << v
        s_in, m_in = rec(avail & ~nbr[v] & ~bit)
        s_out, m_out = rec(avail & ~bit)
        if s_in + 1 >= s_out:
            return s_in + 1, m_in | bit
        return s_out, m_out

    size, mask = rec((1 << len(nbr)) - 1)
    witness = tuple(v for v, i in g.index.items() if mask >> i & 1)
    return size, witness


def bf_chromatic(g: UndirectedGraph) -> tuple[int, dict[str, int]]:
    """Chromatic number and a witness coloring, by exhaustive assignment."""
    _require(g, MAX_COLORING_VERTICES, "coloring")
    vs = list(g.vertices)
    adj = {v: g.neighbors(v) for v in vs}

    def try_k(k):
        colors: dict[str, int] = {}

        def rec(i, used):
            if i == len(vs):
                return True
            v = vs[i]
            for c in range(1, min(k, used + 1) + 1):
                if all(colors.get(u) != c for u in adj[v]):
                    colors[v] = c
                    if rec(i + 1, max(used, c)):
                        return True
                    del colors[v]
            return False

        return dict(colors) if rec(0, 0) else None

    for k in range(1, len(vs) + 1):
        witness = try_k(k)
        if witness is not None:
            return k, witness
    raise AssertionError("unreachable: n colors always suffice")


def bf_transitive_orientation(g: UndirectedGraph) -> bool:
    """Exhaustive orientation search with per-edge backtracking."""
    _require(g, MAX_ORIENTATION_VERTICES, "orientation")
    edges = sorted(g.edges)
    arcs: set[tuple[str, str]] = set()

    def consistent(a, b):
        # every violated triple involves the newest arc (a, b); a chain
        # u -> a -> b needs the arc (u, b), so {u, b} must be an edge
        # oriented that way (and symmetrically for b -> v chains)
        for u, v in arcs:
            if v == a and (vertex_pair(u, b) not in g.edges or (b, u) in arcs):
                return False
            if u == b and (vertex_pair(a, v) not in g.edges or (v, a) in arcs):
                return False
        return True

    def rec(i):
        if i == len(edges):
            return True
        u, v = edges[i]
        for arc in ((u, v), (v, u)):
            arcs.add(arc)
            if consistent(*arc) and rec(i + 1):
                return True
            arcs.discard(arc)
        return False

    return rec(0)


@lru_cache(maxsize=None)
def _pair_index(m: int) -> dict[tuple[int, int], int]:
    return {p: i for i, p in enumerate(combinations(range(m), 2))}


@lru_cache(maxsize=None)
def _order_masks(m: int) -> dict[tuple[int, ...], int]:
    """For each permutation, bit k set iff pair k appears in sorted order."""
    pidx = _pair_index(m)
    out = {}
    for perm in permutations(range(m)):
        pos = [0] * m
        for i, v in enumerate(perm):
            pos[v] = i
        mask = 0
        for (a, b), k in pidx.items():
            if pos[a] < pos[b]:
                mask |= 1 << k
        out[perm] = mask
    return out


@lru_cache(maxsize=None)
def _inversion_mask_set(m: int) -> frozenset[int]:
    """Edge masks of graphs witnessed by (identity, p) for every p."""
    full = (1 << len(_pair_index(m))) - 1
    return frozenset(full ^ mask for mask in _order_masks(m).values())


@lru_cache(maxsize=None)
def _profile_mask_set(m: int) -> frozenset[int]:
    """Edge masks of all 3-voter multi-crossing graphs with vote 1 = identity.

    A pair multi-crosses in (id, p2, p3) iff votes 1 and 3 agree on it
    and vote 2 disagrees.
    """
    masks = list(_order_masks(m).values())
    full = (1 << len(_pair_index(m))) - 1
    out = set()
    for m2 in masks:
        disagree2 = full ^ m2
        for m3 in masks:
            out.add(m3 & disagree2)
    return frozenset(out)


def _graph_mask(g: UndirectedGraph, relabel: tuple[int, ...]) -> int:
    """Edge mask of g after sending vertex i to relabel[i]."""
    pidx, idx = _pair_index(len(g.vertices)), g.index
    mask = 0
    for u, v in g.edges:
        a, b = relabel[idx[u]], relabel[idx[v]]
        if a > b:
            a, b = b, a
        mask |= 1 << pidx[(a, b)]
    return mask


def bf_permutation_diagram(g: UndirectedGraph) -> bool:
    """Exhaustive search for a witnessing pair, first permutation fixed
    to the identity by relabeling (valid: the class is label-invariant)."""
    _require(g, MAX_DIAGRAM_VERTICES, "permutation diagram")
    m = len(g.vertices)
    masks = _inversion_mask_set(m)
    return any(
        _graph_mask(g, sigma) in masks for sigma in permutations(range(m))
    )


def bf_is_3_implementable(g: UndirectedGraph) -> bool:
    """Exhaustive 3-voter profile search, first vote fixed to the identity
    by relabeling (valid: multi-crossing graphs are relabeling-equivariant)."""
    _require(g, MAX_PROFILE_VERTICES, "3-implementability")
    m = len(g.vertices)
    masks = _profile_mask_set(m)
    return any(
        _graph_mask(g, sigma) in masks for sigma in permutations(range(m))
    )
