"""Reproducible random generators for elections, graphs and diagrams."""
from __future__ import annotations

import random
from itertools import combinations

from .elections import Election, ElectionError
from .graphs import GraphError, PermutationDiagram, UndirectedGraph, _count, _int_names, vertex_pair


def _rng(seed, rng):
    if rng is not None:
        return rng
    return random.Random(seed)


def _check_probability(p):
    if not 0 <= p <= 1:  # NaN fails both comparisons too
        raise GraphError(f"probability p must lie in [0, 1], got {p!r}")


def random_election(m: int, n: int, seed=None, rng=None) -> Election:
    """Each vote drawn uniformly at random, candidates named 1..m."""
    r = _rng(seed, rng)
    candidates = _int_names(_count(m, ElectionError, "candidate count", 1))
    votes = []
    for _ in range(_count(n, ElectionError, "vote count", 1)):
        vote = list(candidates)
        r.shuffle(vote)
        votes.append(vote)
    return Election(candidates, votes)


def random_graph(v: int, p: float, seed=None, rng=None) -> UndirectedGraph:
    """Edge-probability random graph, vertices named 1..v."""
    _check_probability(p)
    r = _rng(seed, rng)
    names = _int_names(_count(v, GraphError, "vertex count", 1))
    edges = [(a, b) for a, b in combinations(names, 2) if r.random() < p]
    return UndirectedGraph(names, edges)


def random_tree(v: int, seed=None, rng=None) -> UndirectedGraph:
    """Uniform attachment tree on vertices 1..v."""
    r = _rng(seed, rng)
    names = _int_names(_count(v, GraphError, "vertex count", 1))
    edges = [(names[r.randrange(i)], names[i]) for i in range(1, v)]
    return UndirectedGraph(names, edges)


def random_permutation_diagram(v: int, seed=None, rng=None) -> PermutationDiagram:
    r = _rng(seed, rng)
    names = _int_names(_count(v, GraphError, "vertex count", 1))
    pi1, pi2 = list(names), list(names)
    r.shuffle(pi1)
    r.shuffle(pi2)
    return PermutationDiagram(tuple(pi1), tuple(pi2))


def random_comparability_graph(v: int, p: float, seed=None, rng=None) -> UndirectedGraph:
    """Comparability graph of a random poset (transitive closure of a
    random DAG over a random linear order)."""
    _check_probability(p)
    r = _rng(seed, rng)
    names = _int_names(_count(v, GraphError, "vertex count", 1))
    order = list(names)
    r.shuffle(order)
    below: dict[str, set[str]] = {x: set() for x in names}  # strict successors
    for i in range(v - 1, -1, -1):
        for j in range(i + 1, v):
            if r.random() < p:
                below[order[i]].add(order[j])
                below[order[i]] |= below[order[j]]
    edges = sorted(
        vertex_pair(x, y) for x, succ in below.items() for y in succ
    )
    return UndirectedGraph(names, edges)
