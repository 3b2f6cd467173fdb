"""Election parsing, crossing sequences and the multi-crossing graph."""
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicrossing import (
    Election,
    ElectionError,
    ElectionParseError,
    crossing_sequence,
    emit_election,
    is_single_crossing,
    multicrossing_graph,
    parse_election,
    restrict,
)
from multicrossing.constructions import implement_general
from multicrossing.elections import _BLOCK_COMPARISONS, _crossing_blocks
from multicrossing.generate import random_election, random_graph
from multicrossing.graphs import UndirectedGraph


def elections(max_m=6, max_n=5):
    """Random elections as a hypothesis strategy (seed-driven)."""
    return st.builds(
        random_election,
        st.integers(min_value=1, max_value=max_m),
        st.integers(min_value=1, max_value=max_n),
        st.integers(min_value=0, max_value=2**32 - 1),
    )


def test_parse_fixture(fixture_text):
    e = parse_election(fixture_text("brexit.elec"))
    assert e.candidates == ("R", "D", "N")
    assert e.n == 4
    assert e.votes[0] == ("R", "D", "N")
    assert e.prefers(3, "D", "N")
    assert not e.prefers(4, "D", "N")


# One fault per text, with the exact message parse_election gives for it.
SINGLE_FAULTS = [
    ("", "empty election file"),
    ("2\na b\na>b", "line 1: expected header 'm n', got '2'"),
    ("x 1\na b\na>b", "line 1: malformed header 'x 1'"),
    ("2 1\n", "missing candidate name line"),
    ("2 1\na b c\na>b", "line 2: expected 2 candidate names, got 3"),
    ("2 1\na a\na>a", "line 2: duplicate candidate name"),
    ("3 1\na b b\na>b>b", "line 2: duplicate candidate name"),
    ("2 2\na b\na>b", "expected 2 vote lines, found 1"),
    ("2 1\na b\na>c", "line 3: unknown candidate 'c'"),
    ("2 1\na b\na>a", "line 3: candidate 'a' listed twice"),
    ("3 1\na b c\na>b", "line 3: vote ranks 2 of 3 candidates"),
    ("2 1\na b\na>>b", "line 3: unknown candidate ''"),
    ("2 1\ny #x\ny>#x", "invalid name '#x': a name is a non-empty string without "
                        "whitespace, not starting with '#' and without '>'"),
    ("# c\n\n2 2\na b\n# votes\na>b\n\nb>c\n", "line 8: unknown candidate 'c'"),
]


def test_parse_rejects_bad_inputs():
    for text, message in SINGLE_FAULTS:
        with pytest.raises(ElectionParseError) as info:
            parse_election(text)
        assert str(info.value) == message, text


def test_parse_error_reports_line_number():
    with pytest.raises(ElectionParseError, match="line 4"):
        parse_election("2 2\na b\na>b\nb>b")


def _corrupt(e, v, data):
    """Vote v of e with one drawn fault, and the message that names it."""
    vote = list(e.votes[v - 1])
    j = data.draw(st.integers(1, e.m - 1))
    kind = data.draw(st.sampled_from(["unknown", "repeated", "dropped"]))
    if kind == "unknown":
        vote[j], fault = "x", "unknown candidate 'x'"
    elif kind == "repeated":
        vote[j] = vote[data.draw(st.integers(0, j - 1))]
        fault = f"candidate {vote[j]!r} listed twice"
    else:
        del vote[j]
        fault = f"vote ranks {e.m - 1} of {e.m} candidates"
    return vote, fault


@given(st.builds(random_election, st.integers(2, 6), st.integers(1, 5),
                 st.integers(min_value=0, max_value=2**32 - 1)), st.data())
def test_vote_fault_names_its_file_line(e, data):
    # corrupt vote v, and maybe a second vote w; the earlier one is named
    v, w = data.draw(st.integers(1, e.n)), data.draw(st.integers(1, e.n))
    faulty = {u: _corrupt(e, u, data) for u in {v, w}}
    first = min(faulty)
    fault = faulty[first][1]
    votes = tuple(tuple(faulty[u][0]) if u in faulty else vote
                  for u, vote in enumerate(e.votes, 1))
    lines = emit_election(e).splitlines()
    for u, (vote, _) in faulty.items():
        lines[u + 1] = ">".join(vote)
    # then put comment and blank lines somewhere before the first faulty vote
    fillers = data.draw(st.lists(st.sampled_from(["", "  ", "# note", "  # a>b"]), max_size=4))
    at = data.draw(st.integers(0, first + 1))
    lines[at:at] = fillers
    with pytest.raises(ElectionParseError) as info:
        parse_election("\n".join(lines))
    assert str(info.value) == f"line {first + 2 + len(fillers)}: {fault}"
    with pytest.raises(ElectionError) as info:
        Election(e.candidates, votes)
    assert str(info.value) == f"vote {first}: {fault}"


def test_comments_and_blank_lines_ignored():
    text = "# header\n\n2 2\na b\n# votes\na>b\n\nb>a\n"
    e = parse_election(text)
    assert e.votes == (("a", "b"), ("b", "a"))


@given(elections())
def test_emit_parse_round_trip(e):
    assert parse_election(emit_election(e)) == e


@given(st.one_of(st.text(), elections().map(emit_election)), st.data())
@settings(max_examples=300)
def test_parse_any_text(text, data):
    # splice up to 3 arbitrary characters over up to 3 at one place
    i = data.draw(st.integers(0, len(text)))
    text = text[:i] + data.draw(st.text(max_size=3)) + text[i + data.draw(st.integers(0, 3)):]
    try:
        e = parse_election(text)
    except ElectionParseError:
        return
    assert parse_election(emit_election(e)) == e


# Candidate names the election format can carry: no whitespace, no ">",
# no leading "#".
candidate_names = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1,
                          max_size=4).filter(
    lambda x: x.split() == [x] and not x.startswith("#") and ">" not in x)


@given(st.lists(candidate_names, min_size=1, max_size=6, unique=True), st.data())
def test_emit_parse_round_trip_any_names(candidates, data):
    votes = data.draw(st.lists(st.permutations(candidates), min_size=1, max_size=4))
    e = Election(tuple(candidates), tuple(tuple(v) for v in votes))
    assert parse_election(emit_election(e)) == e


def test_unreadable_candidate_names_rejected():
    for bad in (("a>b", "c"), ("#x", "y"), ("a b", "c"), ("", "c")):
        with pytest.raises(ElectionError):
            Election(bad, (bad,))
    with pytest.raises(ElectionParseError):
        parse_election("2 1\ny #x\ny>#x")


def test_voter_outside_range_rejected(fixture_text):
    e = parse_election(fixture_text("brexit.elec"))  # 4 voters
    assert e.positions(4) == {"N": 0, "D": 1, "R": 2}
    for voter in (0, -1, 5):
        with pytest.raises(ElectionError):
            e.positions(voter)
        with pytest.raises(ElectionError):
            e.prefers(voter, "D", "N")


def test_prefers_unknown_candidate_rejected(fixture_text):
    e = parse_election(fixture_text("brexit.elec"))
    for a, b, bad in (("X", "N", "'X'"), ("D", "X", "'X'"), (["D"], "N", "['D']"),
                      ("D", ["N"], "['N']"), (5, "N", "5"), ("D", None, "None")):
        with pytest.raises(ElectionError) as info:
            e.prefers(1, a, b)
        assert str(info.value) == f"unknown candidate {bad}"


def test_election_from_lists_is_a_value():
    e = Election(["a", "b"], [("a", "b"), ["b", "a"]])
    assert e == Election(("a", "b"), (("a", "b"), ("b", "a")))
    assert parse_election(emit_election(e)) == e
    assert hash(e) == hash(parse_election(emit_election(e)))


def test_election_validation():
    abc = ("a", "b", "c")
    for candidates, votes, message in (
            (("a", "b"), (("a",),), "vote 1: vote ranks 1 of 2 candidates"),
            (("a", "b"), ((["a"],),), "vote 1: unknown candidate ['a']"),
            (("a", "b"), ((["x"], "a"),), "vote 1: unknown candidate ['x']"),
            # a string is a sequence of one-character names: refused, not split
            ("ab", ("ab",), "candidates: expected a sequence of names, got 'ab'"),
            (("a", "b"), ("ab", "ba"), "vote 1: expected a sequence of names, got 'ab'"),
            (("a", "b"), (("a", "b"), "ba"), "vote 2: expected a sequence of names, got 'ba'"),
            # nor is anything that is not iterable
            (("a",), (5,), "vote 1: expected a sequence of names, got 5"),
            (("a",), (("a",), None), "vote 2: expected a sequence of names, got None"),
            # the first faulty vote is named, whichever of these faults it has
            (("a",), (5, "ab"), "vote 1: expected a sequence of names, got 5"),
            (("a",), ("ab", 5), "vote 1: expected a sequence of names, got 'ab'"),
            (5, (("a",),), "candidates: expected a sequence of names, got 5"),
            (("a",), 5, "votes: expected a sequence of votes, got 5"),
            (("a", "a"), (("a", "a"),), "duplicate candidate name"),
            (abc, (abc, ("a", "x", "c")), "vote 2: unknown candidate 'x'"),
            (abc, (abc, ("a", "b", "a")), "vote 2: candidate 'a' listed twice"),
            # votes of the wrong lengths whose names number m * n all the same
            (("a", "b"), (("a",), ("b", "a", "b")), "vote 1: vote ranks 1 of 2 candidates"),
            # an unhashable or a repeated name in a vote of the right length
            (("a", "b"), (("b", "a"), ("a", {"b"})), "vote 2: unknown candidate {'b'}"),
            (abc, (("c", "c", "a"), abc), "vote 1: candidate 'c' listed twice")):
        with pytest.raises(ElectionError) as info:
            Election(candidates, votes)
        assert str(info.value) == message


@given(elections())
def test_rank_matrix(e):
    ranks = e._ranks
    assert ranks.dtype == np.min_scalar_type(e.m - 1)
    assert ranks.tolist() == [[vote.index(c) for c in e.candidates] for vote in e.votes]
    for a, b in combinations(range(e.m), 2):
        signs = crossing_sequence(e, e.candidates[a], e.candidates[b]).signs
        assert (ranks[:, a] < ranks[:, b]).tolist() == list(signs)
    with pytest.raises(ValueError):
        ranks[0, 0] = 0
    # the matrix is no field: a copy built from lists equals and hashes like the parsed one
    listed = Election(list(e.candidates), [list(vote) for vote in e.votes])
    parsed = parse_election(emit_election(e))
    assert listed == parsed and hash(listed) == hash(parsed) and repr(listed) == repr(parsed)
    assert np.array_equal(listed._ranks, parsed._ranks)


def test_crossing_sequence_table_fixture(fixture_text):
    e = parse_election(fixture_text("table1_left.elec"))
    cs = crossing_sequence(e, "1", "2")
    assert cs.crossings == 2
    assert cs.multicrossing
    assert crossing_sequence(e, "1", "6").crossings == 0


@given(elections(max_m=5, max_n=4), st.data())
def test_crossing_sequence_symmetric(e, data):
    a = data.draw(st.sampled_from(e.candidates))
    b = data.draw(st.sampled_from([c for c in e.candidates if c != a] or [a]))
    if a == b:
        return
    assert crossing_sequence(e, a, b).crossings == crossing_sequence(e, b, a).crossings


def test_single_crossing_fixtures(fixture_text):
    assert is_single_crossing(parse_election(fixture_text("brexit.elec")))[0]
    ok, witness = is_single_crossing(parse_election(fixture_text("table1_left.elec")))
    assert not ok
    (a, b), (i, j, k) = witness
    assert 1 <= i < j < k


@given(elections())
def test_witness_is_a_real_double_crossing(e):
    ok, witness = is_single_crossing(e)
    if ok:
        assert witness is None
        return
    (a, b), (i, j, k) = witness
    # voters i and k agree on {a, b}; voter j disagrees: two crossings
    assert e.prefers(i, a, b) == e.prefers(k, a, b) != e.prefers(j, a, b)


def crossing_reference(e):
    """γ's edges and the single-crossing witness, pair by pair from
    `crossing_sequence`: the first multi-crossing pair in candidate-index
    order, at the voters around its first two sign flips."""
    edges, witness = set(), None
    for a, b in combinations(e.candidates, 2):
        signs = crossing_sequence(e, a, b).signs
        flips = [k for k in range(len(signs) - 1) if signs[k] != signs[k + 1]]
        if len(flips) >= 2:
            edges.add((min(a, b), max(a, b)))
            if witness is None:
                f, g = flips[:2]
                witness = (min(a, b), max(a, b)), (f + 1, f + 2, g + 2)
    return edges, witness


def assert_kernel_matches_reference(e):
    edges, witness = crossing_reference(e)
    assert multicrossing_graph(e).edges == edges
    assert is_single_crossing(e) == (witness is None, witness)


def block_rows(e):
    return [flips.shape[1] for _, flips in _crossing_blocks(e)]


def cap_binds(rows):
    """Some block short of the last has fewer than twice the rows of the one before."""
    return any(r < 2 * p for p, r in zip(rows, rows[1:-1]))


@given(elections(max_m=14, max_n=8), st.sampled_from([1, 16, 100, _BLOCK_COMPARISONS]))
def test_witness_is_first_multicrossing_pair(e, cap):
    # γ and the witness against the reference; blocks double 1, 2, 4, 8 on
    # 14 candidates, and the small caps cut them short
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("multicrossing.elections._BLOCK_COMPARISONS", cap)
        assert sum(block_rows(e)) == e.m - 1
        assert_kernel_matches_reference(e)


def test_kernel_where_the_block_cap_binds():
    e = random_election(50, 500, seed=3)
    assert cap_binds(block_rows(e))
    assert_kernel_matches_reference(e)
    # the only multi-crossing pair lies in the last block
    names = [str(v) for v in range(1, 41)]
    late = implement_general(UndirectedGraph(names, [("39", "40")])).election
    assert block_rows(late)[-1] > 1
    assert_kernel_matches_reference(late)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("multicrossing.elections._BLOCK_COMPARISONS", 1 << 12)
        for e in (implement_general(random_graph(40, 0.2, seed=1)).election, late):
            assert cap_binds(block_rows(e))
            assert_kernel_matches_reference(e)


@given(elections())
def test_gamma_edgeless_iff_single_crossing(e):
    g = multicrossing_graph(e)
    assert (len(g.edges) == 0) == is_single_crossing(e)[0]


@given(elections())
def test_gamma_edges_are_multicrossing_pairs(e):
    g = multicrossing_graph(e)
    for a in e.candidates:
        for b in e.candidates:
            if a < b:
                assert g.has_edge(a, b) == crossing_sequence(e, a, b).multicrossing


@given(elections())
def test_gamma_invariant_under_voter_reversal(e):
    rev = Election(e.candidates, tuple(reversed(e.votes)))
    assert multicrossing_graph(rev) == multicrossing_graph(e)


@given(elections())
def test_gamma_invariant_under_ranking_reversal(e):
    flipped = Election(e.candidates, tuple(tuple(reversed(v)) for v in e.votes))
    assert multicrossing_graph(flipped) == multicrossing_graph(e)


@given(elections(max_m=6, max_n=4), st.data())
@settings(max_examples=60)
def test_restriction_single_crossing_iff_independent(e, data):
    if e.m < 2:
        return
    keep = data.draw(
        st.lists(st.sampled_from(e.candidates), min_size=2,
                 max_size=min(4, e.m), unique=True)
    )
    sub = restrict(e, keep)
    g = multicrossing_graph(e)
    independent = not any(
        g.has_edge(a, b) for a in keep for b in keep if a < b
    )
    assert is_single_crossing(sub)[0] == independent


def test_restrict_refuses_a_string():
    e = parse_election("3 1\na b c\nc>b>a")
    for bad in ("ab", 5):
        with pytest.raises(ElectionError) as info:
            restrict(e, bad)
        assert str(info.value) == f"restriction: expected a sequence of names, got {bad!r}"
    # names are checked before they are hashed or sorted
    for bad in ([5, "x"], [["a"]]):
        with pytest.raises(ElectionError) as info:
            restrict(e, bad)
        assert str(info.value).startswith(f"invalid name {bad[0]!r}: ")


def test_restrict_preserves_order():
    e = parse_election("3 2\na b c\nc>b>a\na>b>c")
    sub = restrict(e, ["c", "a"])
    assert sub.candidates == ("a", "c")
    assert sub.votes == (("c", "a"), ("a", "c"))
