"""Undirected graph machinery: transitive orientation, permutation-graph
recognition, poset algorithms (antichains, Mirsky colorings) and the exact
NP-hard solvers used by the analyzers."""
from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class GraphError(ValueError):
    pass


class GraphParseError(GraphError):
    pass


def vertex_pair(a: str, b: str) -> tuple[str, str]:
    """Canonical unordered pair (sorted by name)."""
    return (a, b) if a < b else (b, a)


def _sequence(x, error, what, row=None, items="names") -> tuple:
    """`x` as a tuple, or `error` naming `what` (and `row`): a str is
    refused rather than split into one-character names, and so is anything
    that is not iterable. The message is built only on failure."""
    if not isinstance(x, str):
        try:
            return tuple(x)
        except TypeError:
            pass
    where = what if row is None else f"{what} {row}"
    raise error(f"{where}: expected a sequence of {items}, got {x!r}")


def _count(x, error, what, minimum=0) -> int:
    """`x` (a count, budget or size) if `operator.index` takes it, it is no bool and
    it is >= `minimum`; else `error` naming `what`. A bare `x < 0` lets NaN and 1.5 by."""
    try:
        if not isinstance(x, bool) and operator.index(x) >= minimum:
            return x
    except TypeError:
        pass
    raise error(f"{what} must be an integer >= {minimum}, got {x!r}")


def _instance(x, cls, error, what):
    """Raise `error` naming `what` unless `x` is a `cls`, rather than the
    AttributeError its first use would raise."""
    if not isinstance(x, cls):
        raise error(f"{what} must be of type {cls.__name__}, got {x!r}")


def _int_names(count: int) -> list[str]:
    return [str(i) for i in range(1, count + 1)]


def _index_pairs(pairs, index, what) -> list[tuple[int, int]]:
    """(index[u], index[v]) for each pair (u, v) of `pairs` (edges or arcs),
    or GraphError for the first item that is not a pair of hashable names
    (a str is none) or that names no vertex; its row is found only then."""
    pairs = _sequence(pairs, GraphError, what + "s", items="pairs")
    out = []
    for pair in pairs:
        try:
            u, v = () if isinstance(pair, str) else pair
            out.append((index[u], index[v]))
        except KeyError:
            raise GraphError(f"{what} {u!r}-{v!r} uses unknown vertex") from None
        except (TypeError, ValueError):
            row = next(n for n, item in enumerate(pairs, 1) if item is pair)
            raise GraphError(f"{what} {row}: expected a pair of names, got {pair!r}") from None
    return out


def _check_names(names, error, forbidden=""):
    """Raise `error` for a name the text formats cannot read back: not a
    non-empty string without whitespace, starting with "#" (the comment
    marker) or containing the character `forbidden`."""
    for name in names:
        if (not isinstance(name, str) or name.split() != [name] or name.startswith("#")
                or forbidden and forbidden in name):
            rule = "a name is a non-empty string without whitespace, not starting with '#'"
            if forbidden:
                rule += f" and without {forbidden!r}"
            raise error(f"invalid name {name!r}: {rule}")


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(line number, stripped line) of each line that is not blank or a "#" comment."""
    return [(no, s) for no, line in enumerate(text.splitlines(), 1)
            if (s := line.strip()) and s[0] != "#"]


_ONE = re.compile("1")


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of `mask`, ascending."""
    return [m.start() for m in _ONE.finditer(bin(mask)[:1:-1])]


def _later(order, index) -> list[int]:
    """Per vertex index, the bitmask of the vertices `order` places after it.

    Two orders rank the pair {i, j} differently exactly when bit j of
    vertex i's mask differs between them.
    """
    later, after = [0] * len(index), 0
    for v in reversed(order):
        i = index[v]
        later[i] = after
        after |= 1 << i
    return later


def _pack_rows(bits) -> list[int]:
    """Row masks of a square 0/1 matrix, bit j of mask i being bits[i, j]. It
    and its inverse `_unpack_rows` alone know how masks are laid out in bytes."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _unpack_rows(masks) -> np.ndarray:
    """The square 0/1 matrix whose row i holds the bits of masks[i]."""
    size = len(masks)
    width = (size + 7) // 8
    packed = np.frombuffer(b"".join(mask.to_bytes(width, "little") for mask in masks), np.uint8)
    return np.unpackbits(packed.reshape(size, width), axis=1, count=size, bitorder="little")


def _relabel(masks, order) -> list[int]:
    """`masks` with the vertices renumbered by position in `order`: row p
    and its bit q are row order[p] and its bit order[q] of `masks`."""
    return _pack_rows(_unpack_rows(masks)[np.ix_(order, order)])


def _bit_pairs(masks, names=None, upper=False):
    """Index arrays (i, j) of the set bits j of each masks[i], the one walk
    that reads pairs out of masks. Rows, and the bits of a row, come in
    index order, or in the order of their `names`; with `upper` only the
    bits j after i are read (each edge of symmetric masks once)."""
    order = np.array(sorted(range(len(masks)), key=None if names is None else names.__getitem__))
    bits = _unpack_rows(masks)[np.ix_(order, order)]
    rows, cols = np.nonzero(np.triu(bits, 1) if upper else bits)
    return order[rows], order[cols]


class UndirectedGraph:
    """Simple undirected graph with named vertices.

    Immutable after construction. Vertex i of `vertices` has the integer
    bitmask `adj[i]` of its neighbours' indices, and `index` maps names
    to indices. Vertex order is preserved for deterministic output. The
    masks are the only stored form: the name-sorted pair set `edges` is
    derived from `adj` on first use.
    """

    def __init__(self, vertices, edges=()):
        self.vertices: tuple[str, ...] = _sequence(vertices, GraphError, "vertices")
        if not self.vertices:
            raise GraphError("graph needs at least one vertex")
        _check_names(self.vertices, GraphError)
        self.index: dict[str, int] = {v: i for i, v in enumerate(self.vertices)}
        if len(self.index) != len(self.vertices):
            raise GraphError("duplicate vertex name")
        adj = [0] * len(self.vertices)
        for i, j in _index_pairs(edges, self.index, "edge"):
            if i == j:
                raise GraphError(f"self-loop at {self.vertices[i]!r}")
            if adj[i] >> j & 1:
                raise GraphError(f"duplicate edge {self.vertices[i]!r}-{self.vertices[j]!r}")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        self.adj: tuple[int, ...] = tuple(adj)

    @classmethod
    def _from_masks(cls, vertices, adj) -> "UndirectedGraph":
        """Graph over distinct, already validated names, given its bitmasks."""
        g = cls.__new__(cls)
        g.vertices = tuple(vertices)
        g.index = {v: i for i, v in enumerate(g.vertices)}
        g.adj = tuple(adj)
        return g

    @cached_property
    def edges(self) -> frozenset[tuple[str, str]]:
        vs = self.vertices
        left, right = (side.tolist() for side in _bit_pairs(self.adj, vs, upper=True))
        return frozenset(zip(map(vs.__getitem__, left), map(vs.__getitem__, right)))

    def __eq__(self, other):
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        if self.vertices == other.vertices:
            return self.adj == other.adj
        return set(self.vertices) == set(other.vertices) and self.edges == other.edges

    def __hash__(self):
        return hash((frozenset(self.vertices), self.edges))

    def __repr__(self):
        size = sum(mask.bit_count() for mask in self.adj) // 2
        return f"UndirectedGraph({len(self.vertices)} vertices, {size} edges)"

    def has_edge(self, a: str, b: str) -> bool:
        """Whether a and b are adjacent; False when either names no vertex."""
        for name in (a, b):
            if not isinstance(name, str):
                raise GraphError(f"vertex name must be a str, got {name!r}")
        i, j = self.index.get(a), self.index.get(b)
        return i is not None and j is not None and bool(self.adj[i] >> j & 1)

    def neighbors(self, v: str) -> set[str]:
        i = self.index.get(v) if isinstance(v, str) else None
        if i is None:
            raise GraphError(f"unknown vertex {v!r}")
        return {self.vertices[j] for j in _bits(self.adj[i])}

    def complement(self) -> "UndirectedGraph":
        full = (1 << len(self.vertices)) - 1
        return UndirectedGraph._from_masks(
            self.vertices, [full ^ mask ^ (1 << i) for i, mask in enumerate(self.adj)]
        )


def parse_graph(text: str) -> UndirectedGraph:
    """Parse the edge-list graph format.

    Line 1: vertex count, line 2: vertex names, then one edge per line
    "u v". Blank lines and lines starting with "#" are ignored.
    """
    lines = _content_lines(text)
    if len(lines) < 2:
        raise GraphParseError("graph file needs a vertex count and a name line")
    no, head = lines[0]
    try:
        count = int(head)
    except ValueError:
        raise GraphParseError(f"line {no}: expected vertex count, got {head!r}") from None
    no, namerow = lines[1]
    names = namerow.split()
    if len(names) != count:
        raise GraphParseError(f"line {no}: expected {count} vertex names, got {len(names)}")
    edges = []
    for no, line in lines[2:]:
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"line {no}: expected edge 'u v', got {line!r}")
        edges.append((parts[0], parts[1]))
    try:
        return UndirectedGraph(names, edges)
    except GraphError as exc:
        raise GraphParseError(str(exc)) from None


def _edge_lines(g: UndirectedGraph) -> str:
    """The lines "u v" of the edges in name order, each ending in a newline:
    one join per vertex over its higher-named neighbours."""
    vs = g.vertices
    left, right = _bit_pairs(g.adj, vs, upper=True)
    if not left.size:
        return ""
    names = np.array(vs, dtype=object)[right].tolist()
    cuts = [0, *(np.flatnonzero(left[1:] != left[:-1]) + 1).tolist(), len(names)]
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        head = vs[left[lo]] + " "
        out.append(head + ("\n" + head).join(names[lo:hi]) + "\n")
    return "".join(out)


def emit_graph(g: UndirectedGraph) -> str:
    """Serialise in the edge-list format with edges in sorted order."""
    return f"{len(g.vertices)}\n{' '.join(g.vertices)}\n{_edge_lines(g)}"


def emit_dot(g: UndirectedGraph) -> str:
    """Deterministic DOT output: vertices in order, then each edge as its
    name-sorted pair, in vertex-index order (i < j). Each name is a quoted
    ID with its '"' written as '\\"', the one escape DOT defines."""
    vs = g.vertices
    quoted = ['"' + v.replace('"', '\\"') + '"' for v in vs]
    out = ["graph G {"]
    out.extend(f"  {q};" for q in quoted)
    for i, j in zip(*(side.tolist() for side in _bit_pairs(g.adj, upper=True))):
        if vs[j] < vs[i]:
            i, j = j, i
        out.append(f"  {quoted[i]} -- {quoted[j]};")
    out.append("}")
    return "\n".join(out) + "\n"


class Orientation:
    """An orientation of every edge of a base graph.

    Vertex i of the base graph has the integer bitmask `succ[i]` of its
    successors' indices, the counterpart of `UndirectedGraph.adj`, and
    the name arc set `arcs` is derived from `succ` on first use. The
    ``verified`` flag is set only after an explicit transitivity check;
    poset algorithms refuse unverified orientations.
    """

    def __init__(self, base: UndirectedGraph, arcs):
        adj = base.adj
        succ = [0] * len(adj)
        error = GraphError("orientation must direct each base edge exactly once")
        # an arc given twice is one arc
        for i, j in _index_pairs(arcs, base.index, "arc"):
            if not adj[i] >> j & 1 or succ[j] >> i & 1:
                raise error
            succ[i] |= 1 << j
        if 2 * sum(mask.bit_count() for mask in succ) != sum(mask.bit_count() for mask in adj):
            raise error
        self.base, self.succ, self._verified = base, tuple(succ), False

    @classmethod
    def _from_masks(cls, base: UndirectedGraph, succ) -> "Orientation":
        """Orientation given successor masks that direct each base edge once."""
        o = cls.__new__(cls)
        o.base, o.succ, o._verified = base, tuple(succ), False
        return o

    @cached_property
    def arcs(self) -> frozenset[tuple[str, str]]:
        vs = self.base.vertices
        tails, heads = (side.tolist() for side in _bit_pairs(self.succ))
        return frozenset(zip(map(vs.__getitem__, tails), map(vs.__getitem__, heads)))

    @property
    def verified(self) -> bool:
        return self._verified

    def verify_transitive(self) -> bool:
        """Explicit check: every arc (u,v) has succ(v) ⊆ succ(u).

        A vertex u tests one successor v not yet covered and then counts
        succ(v) as covered, until all of succ(u) is. The verdict is the
        per-arc one at one test per uncovered successor (Golumbic,
        Algorithmic Graph Theory and Perfect Graphs, 1980, ch. 5): once
        every vertex has passed, induction on the successor count gives
        succ(w) ⊆ succ(v) ⊆ succ(u) for each w in succ(v), since v has
        fewer successors than u. Of the lowest and the highest successor
        not yet covered, v is the one with more successors, as it tends
        to cover more whichever way the orientation runs in index order.
        """
        succ = self.succ
        self._verified = False
        for out in succ:
            rest = out
            while rest:
                lo, hi = (rest & -rest).bit_length() - 1, rest.bit_length() - 1
                v = lo if succ[lo].bit_count() >= succ[hi].bit_count() else hi
                below = succ[v]
                if below & ~out:
                    return False
                rest &= ~(1 << v | below)
        self._verified = True
        return True


@dataclass(frozen=True)
class PermutationDiagram:
    """Two permutations of a vertex set; edges are the inverted pairs."""

    pi1: tuple[str, ...]
    pi2: tuple[str, ...]

    def __post_init__(self):
        # tuples, since lists would break == and hash
        object.__setattr__(self, "pi1", _sequence(self.pi1, GraphError, "pi1"))
        object.__setattr__(self, "pi2", _sequence(self.pi2, GraphError, "pi2"))
        _check_names(self.pi1, GraphError)  # before hashing; pi2 is hashed once all are str
        n = len(self.pi1)
        if (not all(isinstance(v, str) for v in self.pi2)
                or set(self.pi1) != set(self.pi2) or len(set(self.pi1)) != n or len(self.pi2) != n):
            raise GraphError("pi1 and pi2 must be permutations of the same vertex set")
        if not self.pi1:
            raise GraphError("graph needs at least one vertex")

    def _adj(self, index) -> list[int]:
        """Edge bitmasks over the vertex indices `index`."""
        return [a ^ b for a, b in zip(_later(self.pi1, index), _later(self.pi2, index))]

    def graph(self) -> UndirectedGraph:
        index = {v: i for i, v in enumerate(self.pi1)}
        return UndirectedGraph._from_masks(self.pi1, self._adj(index))


def _force_class(u: int, v: int, rem) -> dict[int, int] | None:
    """Implication class of the arc (u,v) in the graph with adjacency masks
    `rem`, as successor masks of the vertices its arcs leave.

    An arc (a,b) forces (a,c) for each neighbour c of a that is neither b
    nor a neighbour of b; by symmetry it forces (c,b) for each such
    neighbour c of b. Returns None on a conflict (some edge forced in
    both directions). An arc that forces nothing new costs one mask test.
    """
    fwd, bwd = {u: 1 << v}, {v: 1 << u}  # the class's arcs out of and into each vertex
    stack = [(u, v)]
    while stack:
        a, b = stack.pop()
        for x, y, out, into in ((a, b, fwd, bwd), (b, a, bwd, fwd)):
            new = rem[x] & ~rem[y] & ~(1 << y)
            if new & into.get(x, 0):
                return None
            new &= ~out.get(x, 0)
            if not new:
                continue
            out[x] = out.get(x, 0) | new
            for c in _bits(new):
                into[c] = into.get(c, 0) | 1 << x
                stack.append((x, c) if out is fwd else (c, x))
    return fwd


def transitive_orientation(g: UndirectedGraph) -> Orientation | None:
    """Orient the edges transitively, or return None if impossible.

    Implication-class forcing: take the name-smallest unoriented edge,
    orient it, close under forcing within the remaining graph, remove the
    class, repeat. The final orientation is re-verified explicitly, so the
    verdict never rests on recognition subtleties alone.
    """
    rem = list(g.adj)  # adjacency of the edges not yet oriented
    succ = [0] * len(rem)
    for i, j in zip(*(side.tolist() for side in _bit_pairs(g.adj, g.vertices, upper=True))):
        if not rem[i] >> j & 1:
            continue  # oriented with an earlier class
        forced = _force_class(i, j, rem)
        if forced is None:
            return None
        for x, out in forced.items():
            succ[x] |= out
            rem[x] &= ~out
            for y in _bits(out):
                rem[y] &= ~(1 << x)
    o = Orientation._from_masks(g, succ)
    if not o.verify_transitive():
        return None
    return o


def _linear_order(succ, vertices) -> tuple[str, ...] | None:
    """Topological order of a tournament on `vertices`, given by successor
    masks; None if it has a cycle."""
    order = sorted(range(len(succ)), key=lambda i: succ[i].bit_count(), reverse=True)
    later = (1 << len(succ)) - 1
    for i in order:
        later ^= 1 << i
        if succ[i] != later:
            return None
    return tuple(vertices[i] for i in order)


def recognize_permutation(g: UndirectedGraph) -> PermutationDiagram | None:
    """Permutation-graph recognition via double transitive orientation.

    G is a permutation graph iff both G and its complement admit
    transitive orientations F1 and F2; then pi1 is the topological order
    of F1 ∪ F2 and pi2 of F1-reversed ∪ F2. The returned diagram is
    re-verified to regenerate exactly the input edge set.
    """
    f1 = transitive_orientation(g)
    if f1 is None:
        return None
    f2 = transitive_orientation(g.complement())
    if f2 is None:
        return None
    # the predecessors of a vertex in F1 are its neighbours that are not successors
    pi1 = _linear_order([s1 | s2 for s1, s2 in zip(f1.succ, f2.succ)], g.vertices)
    pi2 = _linear_order([(a ^ s1) | s2 for a, s1, s2 in zip(g.adj, f1.succ, f2.succ)],
                        g.vertices)
    if pi1 is None or pi2 is None:
        return None
    diagram = PermutationDiagram(pi1, pi2)
    if diagram._adj(g.index) != list(g.adj):
        return None
    return diagram


def _kuhn_matching(succ, within: int,
                   start: dict[int, int] | None = None) -> tuple[dict[int, int], int]:
    """Maximum bipartite matching by augmenting paths on the vertices of
    the mask `within`, with the right side of Koenig's vertex cover.

    Left and right copies share the vertex indices; returns match_r
    (right vertex -> matched left vertex) and the mask of the right
    vertices that alternating paths from unmatched left vertices reach.
    The search starts from the pairs of `start` (a match_r over the same
    `succ`) whose two ends lie in `within`, or from an empty matching.
    Each search is a depth-first search on an explicit stack that tries
    successors in index order, so path length is not bounded by the
    recursion limit. `visited` is cleared only when an augmentation
    changes the matching: until then no augmenting path passes a right
    vertex that a failed search reached. Rounds over the unmatched left
    vertices repeat until one augments nothing (at most two), and then
    `visited` is exactly that alternating reach, whatever the start.
    """
    match_r = {v: u for v, u in (start or {}).items() if within >> v & within >> u & 1}
    unmatched = within & ~sum(1 << u for u in match_r.values())  # left vertices not yet matched
    visited = ~within  # vertices outside `within` are never tried
    grew = True
    while grew:
        grew = False
        for root in _bits(unmatched):
            stack = [root]
            path: list[int] = []  # path[d]: the right vertex tried from stack[d]
            while stack:
                free = succ[stack[-1]] & ~visited
                if not free:
                    stack.pop()
                    if path:
                        path.pop()
                    continue
                v = (free & -free).bit_length() - 1
                visited |= 1 << v
                path.append(v)
                if v in match_r:
                    stack.append(match_r[v])
                    continue
                for u, w in zip(stack, path):
                    match_r[w] = u
                unmatched ^= 1 << root
                visited = ~within
                grew = True
                break
    return match_r, visited & within


def _require_verified(o: Orientation):
    if not o.verified:
        raise GraphError("orientation has not been verified transitive")


def _antichain(o: Orientation, within: int, start: dict[int, int] | None = None) -> int:
    """Mask of a maximum antichain of the poset restricted to the mask
    `within`, which is a maximum independent set of the base graph there;
    the matching search starts from `start` restricted to `within`.

    Dilworth route: maximum matching in the chain-cover bipartite graph,
    minimum vertex cover via Koenig, antichain as the uncovered vertices.
    The size is checked against the chain-cover bound and independence
    against the base graph before returning.
    """
    match_r, z_right = _kuhn_matching(o.succ, within, start)
    z_left = within & ~sum(1 << u for u in match_r.values())  # unmatched left vertices
    z_left |= sum(1 << match_r[v] for v in _bits(z_right))  # and those reached
    antichain = z_left & ~z_right
    if antichain.bit_count() != within.bit_count() - len(match_r):
        raise RuntimeError("Koenig construction produced an inconsistent antichain")
    adj = o.base.adj
    if any(adj[v] & antichain for v in _bits(antichain)):
        raise RuntimeError("antichain is not independent in the base graph")
    return antichain


def max_antichain(o: Orientation) -> tuple[str, ...]:
    """A maximum antichain of the poset = a maximum independent set of the
    base graph, in vertex order."""
    _require_verified(o)
    vs = o.base.vertices
    return tuple(vs[i] for i in _bits(_antichain(o, (1 << len(vs)) - 1)))


def _chains(match_r: dict[int, int], n: int) -> list[list[int]]:
    """The chains that the pairs of a maximum matching `match_r` over the
    vertices 0..n-1 link, each from its vertex with no matched predecessor,
    in index order of those vertices: a minimum chain cover (Dilworth)."""
    nxt = {u: v for v, u in match_r.items()}
    chains = []
    for v in range(n):
        if v not in match_r:  # no predecessor in the cover
            chain = [v]
            while chain[-1] in nxt:
                chain.append(nxt[chain[-1]])
            chains.append(chain)
    return chains


def _greedy_matching(succ, order) -> dict[int, int]:
    """A matching (right vertex -> left vertex, as `_kuhn_matching` takes
    it) of the orientation `succ` to start a search from. `order` is a
    topological order; walking it from the bottom, each vertex is matched
    to its free successor that comes first in `order`."""
    match_r, free = {}, 0  # free: the positions in `order` not yet matched as right vertices
    rows = _relabel(succ, order)  # succ by position
    for p in range(len(order) - 1, -1, -1):
        near = rows[p] & free
        if near:
            low = near & -near
            match_r[order[low.bit_length() - 1]] = order[p]
            free ^= low
        free |= 1 << p
    return match_r


def minimum_chain_cover(o: Orientation) -> list[list[str]]:
    """A partition of the poset into the minimum number of chains."""
    _require_verified(o)
    succ, n = o.succ, len(o.succ)
    match_r, _ = _kuhn_matching(succ, (1 << n) - 1)
    chains = _chains(match_r, n)
    if sorted(v for chain in chains for v in chain) != list(range(n)):
        raise RuntimeError("chain cover does not partition the vertex set")
    if any(not succ[a] >> b & 1 for chain in chains for a, b in zip(chain, chain[1:])):
        raise RuntimeError("chain cover contains a non-chain")
    vs = o.base.vertices
    return [[vs[v] for v in chain] for chain in chains]


def mirsky_coloring(o: Orientation) -> tuple[dict[str, int], int]:
    """Color each vertex by the length of the longest chain ending at it.

    The color count equals the longest chain length, which for a
    comparability graph is the chromatic number. In a topological order,
    a vertex's height is one more than the highest level (the mask of the
    vertices of one height so far) that its predecessors meet, found by
    scanning the levels down from the top; with no predecessor it is 1.
    """
    _require_verified(o)
    adj, succ = o.base.adj, o.succ
    height = [0] * len(succ)
    levels: list[int] = []  # levels[h]: the vertices of height h + 1 placed so far
    # an arc (u,v) of a transitive orientation has succ(v) ⊊ succ(u), so
    # decreasing successor count is a topological order
    for v in sorted(range(len(succ)), key=lambda i: succ[i].bit_count(), reverse=True):
        pred = adj[v] & ~succ[v]
        h = len(levels) if pred else 0
        while h and not levels[h - 1] & pred:
            h -= 1
        if h == len(levels):
            levels.append(0)
        levels[h] |= 1 << v
        height[v] = h + 1
    return dict(zip(o.base.vertices, height)), len(levels)


def is_bipartite(g: UndirectedGraph):
    """BFS 2-coloring. Returns (True, coloring) or (False, odd_cycle)."""
    adj = g.adj
    color = [-1] * len(adj)
    parent = [-1] * len(adj)
    for root in range(len(adj)):
        if color[root] >= 0:
            continue
        color[root] = 0
        queue = [root]  # breadth-first; the list doubles as the queue
        for u in queue:
            for v in _bits(adj[u]):
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    parent[v] = u
                    queue.append(v)
                elif color[v] == color[u]:
                    return False, [g.vertices[x] for x in _odd_cycle(u, v, parent)]
    return True, dict(zip(g.vertices, color))


def _odd_cycle(u, v, parent):
    anc_u = [u]
    while parent[anc_u[-1]] >= 0:
        anc_u.append(parent[anc_u[-1]])
    on_u = {x: i for i, x in enumerate(anc_u)}
    path_v = [v]
    while path_v[-1] not in on_u:
        path_v.append(parent[path_v[-1]])
    lca = path_v[-1]
    cycle = anc_u[: on_u[lca] + 1] + list(reversed(path_v[:-1]))
    if len(cycle) % 2 == 0:
        raise RuntimeError("even witness cycle")
    return cycle


DEFAULT_BUDGET = 10_000_000  # search nodes allowed to an exact solve or analysis


@dataclass
class SolveReport:
    """Outcome of an exact NP-hard solve.

    status: "found", "infeasible" or "budget-exceeded". A budget overrun
    is a distinct outcome, never a wrong answer.
    """

    status: str
    witness: object
    nodes: int


def _mis_search(nbr, budget, stop_at=None, within=None):
    """Branch-and-bound maximum independent set over bitmasks, among the
    vertices of the mask `within` (default: all).

    Depth-first on an explicit stack of (available, chosen, size, touched)
    nodes, each counting one node of `budget`. `touched` holds the
    available vertices that may have lost a neighbour since the parent
    node was folded: all of `within` at the root, N(v) when v is left
    out, and the neighbours of v's neighbours when v is taken. At a node:

    1. A worklist pass over `touched` takes every vertex with at most one
       available neighbour, and every vertex whose two available
       neighbours are adjacent (a triangle; Chen, Kanj & Jia, J.
       Algorithms 41, 2001). Its closed neighbourhood is a clique, so some
       maximum set among the available vertices contains it; its
       neighbours are dropped and their neighbours join the worklist. A
       fold chain so costs one step per vertex whatever its index order.
    2. With room = |best| - |chosen|, the node is pruned when the
       available vertices number at most `room`, or when `room` greedy
       cliques cover them (an independent set has at most one vertex per
       clique; Tomita & Seki, DMTCS 2003).
    3. Otherwise a set that beats the best holds an available vertex
       outside those `room` cliques, so the branch vertex is picked among
       these (Tomita & Seki; San Segundo et al., Computers & OR 38(2),
       2011): the one of highest available degree, lowest index on ties.
       The search takes it before it leaves it out.

    With `stop_at` the search is a decision probe: it starts as if a set
    of `stop_at` - 1 vertices were known, so the bounds prune from the
    root every subtree that cannot reach `stop_at`, and a set that
    reaches it ends the search. A probe that does not reach `stop_at`
    returns an independent mask within `within` that need not be maximum
    there. The clique cover is built in index order (see `_by_degree`).

    Returns (best_mask, complete, nodes); complete is False when the
    node budget ran out.
    """
    best_size, best_mask, nodes = -1 if stop_at is None else stop_at - 1, 0, 0
    pool = (1 << len(nbr)) - 1 if within is None else within
    stack = [(pool, 0, 0, pool)]
    while stack:
        avail, cur_mask, cur_size, touched = stack.pop()
        nodes += 1
        if nodes > budget:
            return best_mask, False, nodes
        while touched:  # degree-0/1 and triangle folding; touched stays within avail
            low = touched & -touched
            touched ^= low
            near = nbr[low.bit_length() - 1] & avail
            far = near & (near - 1)  # near but its lowest vertex
            if far & (far - 1) == 0 and (not far or nbr[far.bit_length() - 1] & near):
                cur_mask |= low
                cur_size += 1
                avail ^= low | near
                if near:
                    touched = (touched | nbr[near.bit_length() - 1]
                               | nbr[(near & -near).bit_length() - 1]) & avail
        if cur_size > best_size:
            best_size, best_mask = cur_size, cur_mask
            if stop_at is not None:  # a decision probe starts at best_size = stop_at - 1
                return best_mask, True, nodes
        room = best_size - cur_size  # the most cliques a cover may have and still prune
        if avail == 0 or avail.bit_count() <= room:
            continue
        cliques, rest = 0, avail  # rest: the available vertices outside the cliques
        while rest and cliques < room:
            cliques += 1
            grow = rest
            while grow:
                low = grow & -grow
                rest ^= low
                grow &= nbr[low.bit_length() - 1]
        if not rest:
            continue
        pick_deg = -1
        while rest:
            low = rest & -rest
            rest ^= low
            d = (nbr[low.bit_length() - 1] & avail).bit_count()
            if d > pick_deg:
                bit, pick_deg = low, d
        near = nbr[bit.bit_length() - 1] & avail
        take, lost, rest = avail & ~(bit | near), 0, near
        while rest:
            low = rest & -rest
            rest ^= low
            lost |= nbr[low.bit_length() - 1]
        stack.append((avail ^ bit, cur_mask, cur_size, near))
        stack.append((take, cur_mask | bit, cur_size + 1, lost & take))
    return best_mask, True, nodes


def _by_degree(g: UndirectedGraph) -> UndirectedGraph:
    """The same graph with its vertices in ascending degree order, ties by
    index. `_mis_search` builds its greedy clique cover in index order, and
    in this order it tends to need fewer cliques."""
    adj = g.adj
    order = sorted(range(len(adj)), key=lambda i: adj[i].bit_count())
    return UndirectedGraph._from_masks([g.vertices[i] for i in order], _relabel(adj, order))


def _degree_ordered_search(g: UndirectedGraph):
    """(h, search): `h` is `_by_degree(g)`, and search(pool, need, budget)
    runs `_mis_search` over h's masks, looking in the vertex mask `pool`
    for `need` independent vertices (None: as many as there can be)."""
    h = _by_degree(g)

    def search(pool: int, need: int | None, budget: int) -> tuple[int, bool, int]:
        return _mis_search(h.adj, budget, stop_at=need, within=pool)
    return h, search


def maximum_independent_set(g: UndirectedGraph, budget=DEFAULT_BUDGET):
    """Exact maximum independent set, searched in ascending degree order.
    Returns (vertices in g's order, complete, nodes)."""
    _instance(g, UndirectedGraph, GraphError, "graph")
    budget = _count(budget, GraphError, "node budget")
    h, search = _degree_ordered_search(g)
    mask, complete, nodes = search((1 << len(h.vertices)) - 1, None, budget)
    best = sorted(g.index[h.vertices[i]] for i in _bits(mask))
    return tuple(g.vertices[i] for i in best), complete, nodes


def exact_coloring(g: UndirectedGraph, k: int, budget=DEFAULT_BUDGET) -> SolveReport:
    """Proper k-coloring by backtracking, or proof that none exists.

    DSATUR branching (Brélaz, CACM 22(4), 1979): the next vertex is the
    uncolored one adjacent to the most distinct colors, ties going to the
    most uncolored neighbours and then the lowest index. Each color keeps
    the mask of the vertices adjacent to it, restored on backtracking, so
    the saturation levels take O(k²) mask operations per step. Symmetry
    is broken by allowing each vertex at most one fresh color; a greedy
    clique gives a quick lower-bound refusal. Each step to a new vertex
    counts one node.
    """
    _instance(g, UndirectedGraph, GraphError, "graph")
    _count(k, GraphError, "number of colors", 1)
    _count(budget, GraphError, "node budget")
    adj = g.adj
    clique = 0
    for v in sorted(range(len(adj)), key=lambda v: adj[v].bit_count(), reverse=True):
        if adj[v] & clique == clique:
            clique |= 1 << v
    if clique.bit_count() > k:
        return SolveReport("infeasible", None, 0)
    k = min(k, len(adj))  # no vertex ever opens a color beyond the vertex count
    seen = [0] * (k + 1)  # seen[c]: bitmask of the vertices adjacent to color c
    # per colored vertex: (vertex, color, colors used before, seen[color] before)
    stack: list[tuple[int, int, int, int]] = []
    uncolored = (1 << len(adj)) - 1
    nodes = used = c = 0  # c: last color tried at v, 0 if none
    v = -1  # the vertex being colored, -1 to pick the next one
    while True:
        if v < 0:
            if not uncolored:
                break
            nodes += 1
            if nodes > budget:
                return SolveReport("budget-exceeded", None, nodes)
            levels = [uncolored]  # levels[s]: uncolored vertices adjacent to >= s colors
            for near in seen[1:used + 1]:
                near &= uncolored
                if near:
                    levels.append(levels[-1] & near)
                    for s in range(len(levels) - 2, 0, -1):
                        levels[s] |= levels[s - 1] & near
            while not levels[-1]:
                levels.pop()
            pick_deg, rest = -1, levels[-1]
            while rest:
                low = rest & -rest
                rest ^= low
                u = low.bit_length() - 1
                d = (adj[u] & uncolored).bit_count()
                if d > pick_deg:
                    v, pick_deg = u, d
        top = used + 1 if used < k else k
        c += 1
        while c <= top and seen[c] >> v & 1:
            c += 1
        if c <= top:
            stack.append((v, c, used, seen[c]))
            seen[c] |= adj[v]
            uncolored ^= 1 << v
            if c > used:
                used = c
            v, c = -1, 0
        elif stack:
            v, c, used, before = stack.pop()
            seen[c] = before
            uncolored |= 1 << v
        else:
            return SolveReport("infeasible", None, nodes)
    # every vertex is colored, so the stack holds one entry per vertex
    witness = {g.vertices[v]: c for v, c, _, _ in stack}
    return SolveReport("found", witness, nodes)
