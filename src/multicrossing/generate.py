"""Reproducible random generators for elections, graphs and diagrams."""
from __future__ import annotations

import random
from itertools import combinations

from .elections import Election, ElectionError
from .graphs import GraphError, PermutationDiagram, UndirectedGraph, _bits, _count, _int_names


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
    adj = [0] * _count(v, GraphError, "vertex count", 1)
    for i, j in combinations(range(v), 2):
        if r.random() < p:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return UndirectedGraph._from_masks(_int_names(v), adj)


def random_tree(v: int, seed=None, rng=None) -> UndirectedGraph:
    """Uniform attachment tree on vertices 1..v."""
    r = _rng(seed, rng)
    adj = [0] * _count(v, GraphError, "vertex count", 1)
    for i in range(1, v):
        parent = r.randrange(i)
        adj[parent] |= 1 << i
        adj[i] |= 1 << parent
    return UndirectedGraph._from_masks(_int_names(v), adj)


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
    order = list(range(_count(v, GraphError, "vertex count", 1)))
    r.shuffle(order)
    below = [0] * v  # strict successors
    for i in range(v - 1, -1, -1):
        for j in range(i + 1, v):
            if r.random() < p:
                below[order[i]] |= 1 << order[j] | below[order[j]]
    adj = list(below)
    for x, succ in enumerate(below):
        for y in _bits(succ):
            adj[y] |= 1 << x
    return UndirectedGraph._from_masks(_int_names(v), adj)
