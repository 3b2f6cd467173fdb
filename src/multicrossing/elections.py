"""Elections with a fixed voter order and their crossing structure."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .graphs import (
    UndirectedGraph,
    _check_names,
    _content_lines,
    _count,
    _pack_rows,
    _sequence,
    vertex_pair,
)


class ElectionError(ValueError):
    pass


class ElectionParseError(ElectionError):
    pass


class _RowError(ElectionError):
    """Raised as _RowError(row, fault) for a fault in one row of an
    election's text form: row 0 is the candidate list, row i is vote i."""

    def __str__(self):
        row, fault = self.args
        return f"vote {row}: {fault}" if row else fault


def _vote_fault(vote, cset) -> str | None:
    """The first fault of a vote, or None when it is a permutation of `cset`."""
    seen = set()
    for c in vote:
        if not isinstance(c, str) or c not in cset:  # a non-str may be unhashable
            return f"unknown candidate {c!r}"
        if c in seen:
            return f"candidate {c!r} listed twice"
        seen.add(c)
    return None if len(vote) == len(cset) else f"vote ranks {len(vote)} of {len(cset)} candidates"


def _rank_matrix(votes, index):
    """The read-only n x m matrix of each candidate's position in each vote,
    in the narrowest unsigned dtype, or None when some vote is not a permutation
    of the candidates in `index` (a name -> candidate index dict)."""
    m, n = len(index), len(votes)
    if any(len(vote) != m for vote in votes):
        return None
    try:
        order = np.fromiter(map(index.__getitem__, chain.from_iterable(votes)), np.intp, m * n)
    except (KeyError, TypeError):  # an unknown or unhashable name
        return None
    # scatter each vote's positions to its candidates; a candidate a vote
    # misses (it repeats another) keeps the fill value m
    ranks = np.full((n, m), m, np.min_scalar_type(m))
    ranks[np.arange(n)[:, None], order.reshape(n, m)] = np.arange(m)
    if ranks.max() == m:
        return None
    ranks = ranks.astype(np.min_scalar_type(m - 1), copy=False)
    ranks.flags.writeable = False
    return ranks


@dataclass(frozen=True)
class Election:
    """An ordered list of strict rankings over a fixed candidate set.

    Voter i is position i (1-based). The voter order is significant and
    immutable; all operations on elections are pure functions.
    """

    candidates: tuple[str, ...]
    votes: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        # tuples, so an election built from lists hashes and equals its parsed copy
        candidates = _sequence(self.candidates, ElectionError, "candidates")
        votes = _sequence(self.votes, ElectionError, "votes", items="votes")
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "votes", tuple(
            _sequence(vote, ElectionError, "vote", i) for i, vote in enumerate(votes, 1)))
        if not self.candidates:
            raise ElectionError("election needs at least one candidate")
        if not self.votes:
            raise ElectionError("election needs at least one vote")
        _check_names(self.candidates, ElectionError, ">")
        index = {c: i for i, c in enumerate(self.candidates)}
        if len(index) != len(self.candidates):
            raise _RowError(0, "duplicate candidate name")
        ranks = _rank_matrix(self.votes, index)
        if ranks is None:  # name the first faulty vote
            for i, vote in enumerate(self.votes, 1):
                fault = _vote_fault(vote, index)
                if fault:
                    raise _RowError(i, fault)
        # ranks[v, c] is candidate c's position in vote v + 1; not a field, so
        # ==, hash and repr see only the candidates and votes
        object.__setattr__(self, "_ranks", ranks)

    @property
    def m(self) -> int:
        return len(self.candidates)

    @property
    def n(self) -> int:
        return len(self.votes)

    def positions(self, voter: int) -> dict[str, int]:
        """Rank of each candidate in the given voter's ballot (1-based voter)."""
        if _count(voter, ElectionError, "voter", 1) > self.n:
            raise ElectionError(f"voter {voter!r} is not in 1..{self.n}")
        return {c: i for i, c in enumerate(self.votes[voter - 1])}

    def prefers(self, voter: int, a: str, b: str) -> bool:
        pos = self.positions(voter)
        for c in (a, b):
            if not isinstance(c, str) or c not in pos:
                raise ElectionError(f"unknown candidate {c!r}")
        return pos[a] < pos[b]


@dataclass(frozen=True)
class CrossingSequence:
    """Per-voter preference signs for one candidate pair.

    signs[i] is True when the first element of `pair` is preferred by
    voter i+1; crossings counts adjacent sign changes.
    """

    pair: tuple[str, str]
    signs: tuple[bool, ...]

    @property
    def crossings(self) -> int:
        return sum(a != b for a, b in zip(self.signs, self.signs[1:]))

    @property
    def multicrossing(self) -> bool:
        return self.crossings >= 2


def parse_election(text: str) -> Election:
    """Parse the election file format.

    Line 1: "m n", line 2: m candidate names, then n ranking lines with
    names separated by ">". Lines starting with "#" are comments. `Election`
    checks the names and votes; a fault in them is reported by its line.
    """
    lines = _content_lines(text)
    if not lines:
        raise ElectionParseError("empty election file")
    no, head = lines[0]
    parts = head.split()
    if len(parts) != 2:
        raise ElectionParseError(f"line {no}: expected header 'm n', got {head!r}")
    try:
        m, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise ElectionParseError(f"line {no}: malformed header {head!r}") from None
    if len(lines) < 2:
        raise ElectionParseError("missing candidate name line")
    no, namerow = lines[1]
    candidates = namerow.split()
    if len(candidates) != m:
        raise ElectionParseError(
            f"line {no}: expected {m} candidate names, got {len(candidates)}"
        )
    body = lines[2:]
    if len(body) != n:
        raise ElectionParseError(f"expected {n} vote lines, found {len(body)}")
    try:
        return Election(candidates, [tuple(map(str.strip, line.split(">"))) for _, line in body])
    except _RowError as exc:
        row, fault = exc.args
        raise ElectionParseError(f"line {lines[row + 1][0]}: {fault}") from None
    except ElectionError as exc:
        raise ElectionParseError(str(exc)) from None


def emit_election(e: Election) -> str:
    out = [f"{e.m} {e.n}", " ".join(e.candidates)]
    out.extend(">".join(vote) for vote in e.votes)
    return "\n".join(out) + "\n"


def restrict(e: Election, keep) -> Election:
    """Restriction to a candidate subset, preserving each vote's order."""
    keep = _sequence(keep, ElectionError, "restriction")
    _check_names(keep, ElectionError)  # before they are hashed
    kset = set(keep)
    if not kset:
        raise ElectionError("restriction to an empty candidate set")
    unknown = kset - set(e.candidates)
    if unknown:
        raise ElectionError(f"unknown candidates in restriction: {sorted(unknown)}")
    return Election((c for c in e.candidates if c in kset),
                    ((c for c in vote if c in kset) for vote in e.votes))


def crossing_sequence(e: Election, a: str, b: str) -> CrossingSequence:
    if a == b:
        raise ElectionError("crossing sequence needs two distinct candidates")
    for c in (a, b):
        if c not in e.candidates:
            raise ElectionError(f"unknown candidate {c!r}")
    signs = tuple(vote.index(a) < vote.index(b) for vote in e.votes)
    return CrossingSequence((a, b), signs)


# Cap on the pair-vote comparisons of one block of `_crossing_blocks`.
_BLOCK_COMPARISONS = 1 << 18


def _crossing_blocks(e: Election):
    """Yield (a, flips) for blocks of candidate rows a, ..., a+B-1.

    flips[k, r, j] is True when voters k+1 and k+2 (1-based) disagree on
    candidate a+r against candidate a+1+j, so a sum over axis 0 counts
    that pair's crossings. Entries with a+1+j < a+r repeat pairs of the
    block's own rows in mirror image; a+1+j == a+r pairs a candidate
    with itself and is never True. B doubles from 1 while a block stays
    within _BLOCK_COMPARISONS, so a scan that stops early has done
    little work, and working memory is O(n * m) plus one block.
    """
    m, n, pos = e.m, e.n, e._ranks
    a, rows = 0, 1
    while a < m - 1:
        rows = max(1, min(rows, _BLOCK_COMPARISONS // (n * (m - 1 - a))))
        b = min(a + rows, m - 1)
        before = pos[:, a:b, None] < pos[:, None, a + 1:]
        yield a, before[:-1] != before[1:]
        a, rows = b, 2 * rows


def is_single_crossing(e: Election):
    """Check that every pair crosses at most once.

    Returns (True, None) or (False, (pair, (i, j, k))) where the 1-based
    voters i < j < k witness the double crossing of the pair: the first
    multi-crossing pair in candidate order, at its first two crossings.
    """
    for a, flips in _crossing_blocks(e):
        multi = np.flatnonzero(flips.sum(axis=0, dtype=np.int32) >= 2)
        if multi.size:
            # row-major first: a pair below the block's diagonal has its mirror earlier
            r, j = divmod(int(multi[0]), flips.shape[2])
            f, g = (int(x) for x in np.flatnonzero(flips[:, r, j])[:2])
            pair = vertex_pair(e.candidates[a + r], e.candidates[a + 1 + j])
            return False, (pair, (f + 1, f + 2, g + 2))
    return True, None


def multicrossing_graph(e: Election) -> UndirectedGraph:
    """Graph on the candidates with an edge for every multi-crossing pair.

    O(n * m^2) pairwise scan, vectorised one block of candidate rows at a
    time; the multi-crossing bits are packed into adjacency bitmasks.
    """
    m = e.m
    multi = np.zeros((m, m), dtype=bool)
    for a, flips in _crossing_blocks(e):
        multi[a:a + flips.shape[1], a + 1:] = flips.sum(axis=0, dtype=np.int32) >= 2
    multi |= multi.T  # the blocks' lower-triangle entries are true values too
    return UndirectedGraph._from_masks(e.candidates, _pack_rows(multi))
