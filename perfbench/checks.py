"""Independent references the benchmark checks the program's answers against.

Nothing here is timed. Each reference recomputes an answer by a route that
shares no code with `multicrossing` (apart from the `bruteforce` oracles,
which exist to be references): sign changes counted per pair, patience
sorting for permutation graphs, a tree DP, a longest-chain DP for 3-voter
profiles, and plain certificate checks. A checker returns a list of
problems; an empty list means the answer is correct.
"""
from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from itertools import combinations

import numpy as np


def pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


def fingerprint(*parts) -> str:
    """Stable key of an instance for the recorded-answer table."""
    return hashlib.sha1(json.dumps(parts, sort_keys=True).encode()).hexdigest()[:16]


def graph_key(vertices, edges, *extra) -> str:
    return fingerprint("graph", list(vertices), sorted(pair(*e) for e in edges), *extra)


def election_key(candidates, votes, *extra) -> str:
    return fingerprint("election", list(candidates), [list(v) for v in votes], *extra)


def positions(candidates, votes) -> np.ndarray:
    """pos[voter, candidate index] = rank of the candidate in that vote."""
    idx = {c: i for i, c in enumerate(candidates)}
    pos = np.empty((len(votes), len(candidates)), dtype=np.int64)
    for r, vote in enumerate(votes):
        pos[r, [idx[c] for c in vote]] = np.arange(len(vote))
    return pos


def gamma_edges(candidates, votes) -> set[tuple[str, str]]:
    """Multi-crossing pairs: sign changes counted voter by voter on an m x m grid."""
    pos = positions(candidates, votes)
    flips = np.zeros((len(candidates),) * 2, dtype=np.int32)
    prev = pos[0][:, None] < pos[0][None, :]
    for row in pos[1:]:
        cur = row[:, None] < row[None, :]
        flips += prev != cur
        prev = cur
    a, b = np.nonzero(np.triu(flips >= 2, 1))
    return {pair(candidates[i], candidates[j]) for i, j in zip(a.tolist(), b.tolist())}


def alternates(votes, a: str, b: str, voters) -> bool:
    """Voters i < j < k (1-based) rank the pair a, b as x, not-x, x."""
    i, j, k = voters
    if not 1 <= i < j < k <= len(votes):
        return False
    prefs = [votes[v - 1].index(a) < votes[v - 1].index(b) for v in (i, j, k)]
    return prefs[0] != prefs[1] != prefs[2]


def lis_length(seq) -> int:
    """Longest strictly increasing subsequence, by patience sorting."""
    tails: list = []
    for x in seq:
        i = bisect_left(tails, x)
        tails[i:i + 1] = [x]
    return len(tails)


def diagram_edges(pi1, pi2) -> set[tuple[str, str]]:
    p2 = {v: i for i, v in enumerate(pi2)}
    return {pair(u, v) for u, v in combinations(pi1, 2) if p2[u] > p2[v]}


def permutation_mis_chi(pi1, pi2) -> tuple[int, int]:
    """Permutation graph: MIS is the LIS of pi2-ranks along pi1, chi the LDS."""
    p2 = {v: i for i, v in enumerate(pi2)}
    seq = [p2[v] for v in pi1]
    return lis_length(seq), lis_length([-x for x in seq])


def tree_mis(vertices, edges) -> int:
    """Maximum independent set of a tree (or forest) by the include/exclude DP."""
    adj: dict[str, list[str]] = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen: set[str] = set()
    total = 0
    for root in vertices:
        if root in seen:
            continue
        order, parent = [root], {root: None}
        seen.add(root)
        for u in order:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    parent[w] = u
                    order.append(w)
        take = {u: 1 for u in order}
        skip = {u: 0 for u in order}
        for u in reversed(order):
            p = parent[u]
            if p is not None:
                take[p] += skip[u]
                skip[p] += max(take[u], skip[u])
        total += max(take[root], skip[root])
    return total


def three_voter_chi(candidates, votes) -> int:
    """Chromatic number of gamma for 3 voters: the height of the poset
    a < b iff votes 1 and 3 put a first and vote 2 puts b first (gamma is
    its comparability graph, hence perfect)."""
    pos = positions(candidates, votes).tolist()
    order = sorted(range(len(candidates)), key=lambda c: pos[0][c])
    height: list[int] = []
    for bi, b in enumerate(order):
        h = 1
        for ai in range(bi):
            a = order[ai]
            if pos[2][a] < pos[2][b] and pos[1][a] > pos[1][b] and height[ai] + 1 > h:
                h = height[ai] + 1
        height.append(h)
    return max(height)


def independence_problems(kept, edges, what="kept set") -> list[str]:
    bad = [p for p in combinations(kept, 2) if pair(*p) in edges]
    return [f"{what} is not independent: {bad[0]}"] if bad else []


def coloring_problems(classes, vertices, edges, k) -> list[str]:
    problems = []
    colour = {v: i for i, cls in enumerate(classes) for v in cls}
    if sorted(colour) != sorted(vertices) or sum(map(len, classes)) != len(vertices):
        problems.append("classes do not partition the candidates")
    if len(classes) > k:
        problems.append(f"{len(classes)} classes for k={k}")
    clash = next((e for e in edges if colour.get(e[0]) == colour.get(e[1])), None)
    if clash is not None:
        problems.append(f"edge {clash} inside one class")
    return problems


def orientation_problems(arcs, edges) -> list[str]:
    """An orientation must direct every edge once and be transitive."""
    arcs = set(arcs)
    if len(arcs) != len(edges) or {pair(a, b) for a, b in arcs} != edges:
        return ["orientation does not direct each edge exactly once"]
    succ: dict[str, set[str]] = {}
    for a, b in arcs:
        succ.setdefault(a, set()).add(b)
    for a, b in arcs:
        if not succ.get(b, set()) <= succ[a]:
            return [f"orientation not transitive at {a}->{b}"]
    return []


def expect(what, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, expected {want!r}"]


def parse_election_text(text: str):
    """Minimal reader of the election format, for checking CLI output."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    m, n = map(int, lines[0].split())
    candidates = tuple(lines[1].split())
    votes = tuple(tuple(tok.strip() for tok in ln.split(">")) for ln in lines[2:])
    if len(candidates) != m or len(votes) != n:
        raise ValueError("header does not match the body")
    return candidates, votes
