"""End-to-end runs of the command-line interface."""
import json
from itertools import combinations
from random import Random
from types import ModuleType

import pytest

import multicrossing
from multicrossing import (
    Election,
    UndirectedGraph,
    analysis,
    cli,
    constructions,
    crossing_sequence,
    emit_election,
    graphs,
    multicrossing_graph,
)
from multicrossing.constructions import implement_clique, implement_empty
from multicrossing.generate import random_election

pytestmark = pytest.mark.usefixtures("capsys")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_single_crossing(capsys, fixture_path):
    code, out, _ = run(capsys, "check", str(fixture_path("brexit.elec")))
    assert code == 0
    assert out.strip() == "single-crossing"


def test_check_reports_witness(capsys, fixture_path):
    code, out, _ = run(capsys, "check", str(fixture_path("table1_left.elec")))
    assert code == 1
    assert "not single-crossing" in out
    assert "crosses twice" in out


def test_gamma_edges(capsys, fixture_path):
    code, out, _ = run(capsys, "gamma", "--edges",
                       str(fixture_path("table1_left.elec")))
    assert code == 0
    assert out.splitlines() == ["1 2", "2 3", "3 4", "4 5", "5 6"]


def test_gamma_dot(capsys, fixture_path):
    code, out, _ = run(capsys, "gamma", "--dot",
                       str(fixture_path("table1_right.elec")))
    assert code == 0
    assert out.startswith("graph G {")
    assert out.count("--") == 6


def test_gamma_matches_fixture(capsys, fixture_path, fixture_text):
    # names 1..12 put name order apart from vertex order: "1 11" precedes "1 2"
    election = str(fixture_path("random12.elec"))
    expected = fixture_text("random12.graph")
    code, out, _ = run(capsys, "gamma", election)
    assert code == 0
    assert out == expected
    code, out, _ = run(capsys, "gamma", "--edges", election)
    assert code == 0
    assert out.splitlines() == expected.splitlines()[2:]


def test_gamma_dense_matches_fixture(capsys, tmp_path, fixture_text):
    # 60 candidates, 1770 edges, in the name order "1", "10", "11", ..., and
    # a γ that spans every block of the crossing kernel
    code, out, _ = run(capsys, "gen", "random-election", "--m", "60", "--n", "25", "--seed", "7")
    assert code == 0
    election = tmp_path / "random60x25.elec"
    election.write_text(out, encoding="utf-8")
    expected = fixture_text("random60x25.graph")
    code, out, _ = run(capsys, "gamma", str(election))
    assert code == 0
    assert out == expected
    code, out, _ = run(capsys, "gamma", "--edges", str(election))
    assert code == 0
    assert out.splitlines() == expected.splitlines()[2:]
    code, out, _ = run(capsys, "check", str(election))
    assert code == 1
    assert out == "not single-crossing: pair {1,2} crosses twice (witness voters 2 < 3 < 5)\n"


@pytest.mark.parametrize("v", [1, 7, 8, 9, 63, 64, 65])
def test_gamma_edges_in_name_order_around_byte_boundaries(capsys, tmp_path, v):
    rng = Random(v)
    names = [str(k) for k in range(v)]
    rng.shuffle(names)
    dense = random_election(v, 6, seed=v)
    rename = dict(zip(dense.candidates, names))
    dense = Election(names, [[rename[c] for c in vote] for vote in dense.votes])
    for e in (dense, implement_empty(names).election, implement_clique(names).election):
        election = tmp_path / "e.elec"
        election.write_text(emit_election(e), encoding="utf-8")
        # the writer and `edges` share one walk of the masks: count crossings instead
        lines = [f"{a} {b}" for a, b in combinations(sorted(names), 2)
                 if crossing_sequence(e, a, b).multicrossing]
        code, out, _ = run(capsys, "gamma", "--edges", str(election))
        assert code == 0
        assert out.splitlines() == lines
        code, out, _ = run(capsys, "gamma", str(election))
        assert code == 0
        assert out.splitlines() == [str(v), " ".join(names)] + lines
    assert len(lines) == v * (v - 1) // 2  # the clique


def test_gamma_dot_escapes_quotes(capsys, tmp_path):
    election = tmp_path / "quote.elec"
    election.write_text('3 3\na"b c d\na"b>c>d\nc>a"b>d\na"b>c>d\n', encoding="utf-8")
    code, out, _ = run(capsys, "gamma", "--dot", str(election))
    assert code == 0
    assert out == 'graph G {\n  "a\\"b";\n  "c";\n  "d";\n  "a\\"b" -- "c";\n}\n'


def test_fullsc_matches_fixture(capsys, fixture_path):
    code, out, _ = run(capsys, "fullsc", "--m", "7")
    assert code == 0
    assert out == fixture_path("table2.elec").read_text(encoding="utf-8")


def test_implement_general_matches_fixture(capsys, fixture_path, fixture_text):
    code, out, _ = run(capsys, "implement", str(fixture_path("figure1.graph")))
    assert code == 0
    assert out == fixture_text("figure1.implement")


def test_implement_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "random-graph",
                       "--v", "12", "--p", "0.4", "--seed", "9")
    assert code == 0
    graph_file = tmp_path / "g.graph"
    graph_file.write_text(out, encoding="utf-8")

    code, out, _ = run(capsys, "implement", str(graph_file))
    assert code == 0
    assert out.startswith("# voters_used: ")
    election_file = tmp_path / "e.elec"
    election_file.write_text(out, encoding="utf-8")

    code, regen, _ = run(capsys, "gamma", str(election_file))
    assert code == 0
    assert regen == graph_file.read_text(encoding="utf-8")


def test_implement_families(capsys, tmp_path):
    for family, size in [("path", 9), ("cycle", 8), ("clique", 5), ("empty", 4)]:
        code, out, _ = run(capsys, "implement", "--family", family,
                           "--size", str(size))
        assert code == 0, family
        assert out.startswith("# voters_used: ")


def test_implement_permutation_rejects_c5(capsys, tmp_path):
    graph_file = tmp_path / "c5.graph"
    graph_file.write_text("5\n1 2 3 4 5\n1 2\n1 5\n2 3\n3 4\n4 5\n",
                          encoding="utf-8")
    code, _, err = run(capsys, "implement", "--family", "permutation",
                       str(graph_file))
    assert code == 1
    assert "not a permutation graph" in err


def test_analyze_deletion_json(capsys, fixture_path):
    code, out, _ = run(capsys, "analyze", "deletion",
                       str(fixture_path("table1_left.elec")), "--k", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "1"
    assert payload["feasible"] is True
    assert payload["kept"] == ["1", "3", "5"]


def test_analyze_three_voter_json_pinned(capsys, fixture_path):
    # the <=3-voter poset path end to end: lexmin kept set and Mirsky classes
    election = str(fixture_path("perm12.elec"))
    code, out, _ = run(capsys, "analyze", "deletion", election, "--k", "8")
    assert code == 0
    assert json.loads(out) == {
        "schema": "1", "kind": "deletion", "feasible": True, "optimal": True,
        "budget_exceeded": False, "method": "three-voter-poly", "nodes_explored": 0,
        "kept": ["10", "11", "12", "4"],
    }
    code, out, _ = run(capsys, "analyze", "partition", election, "--k", "5")
    assert code == 0
    assert json.loads(out) == {
        "schema": "1", "kind": "partition", "feasible": True, "optimal": True,
        "budget_exceeded": False, "method": "three-voter-poly", "nodes_explored": 0,
        "classes": [["1", "12"], ["6", "7", "9"], ["10", "11", "4"], ["2", "3", "5"], ["8"]],
    }


def test_analyze_three_voter_deletion_at_size(capsys, tmp_path, fixture_text):
    # 200 candidates: the lexmin probes resume their matchings on large pools
    code, out, _ = run(capsys, "gen", "random-election",
                       "--m", "200", "--n", "3", "--seed", "1")
    assert code == 0
    election = tmp_path / "random200x3.elec"
    election.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "deletion", str(election), "--k", "150")
    assert code == 0
    assert out == fixture_text("random200x3.deletion")


def test_analyze_general_deletion_kept_matches_fixture(capsys, tmp_path, fixture_text):
    # 4 voters: the exact solve and its lexmin probes pick 17 of 80 candidates; the
    # whole output is pinned, so a change in the search's node count shows here too
    code, out, _ = run(capsys, "gen", "random-election",
                       "--m", "80", "--n", "4", "--seed", "7")
    assert code == 0
    election = tmp_path / "random80x4.elec"
    election.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "deletion", str(election), "--k", "63")
    assert code == 0
    assert out == fixture_text("random80x4.deletion")  # general-exact, optimal, 104 nodes


def test_analyze_budget_exceeded_exit_3(capsys, fixture_path):
    election = str(fixture_path("random12.elec"))
    for problem, k in (("deletion", "7"), ("partition", "4")):
        code, out, _ = run(capsys, "analyze", problem, election, "--k", k, "--budget", "1")
        assert code == 3, problem
        payload = json.loads(out)
        assert payload["budget_exceeded"] is True and payload["optimal"] is False


def test_analyze_infeasible_exit_code(capsys, fixture_path):
    code, out, _ = run(capsys, "analyze", "partition",
                       str(fixture_path("table1_right.elec")), "--k", "1")
    assert code == 1
    assert json.loads(out)["feasible"] is False


def test_recognize(capsys, fixture_path, tmp_path):
    graph_file = tmp_path / "p4.graph"
    graph_file.write_text("4\na b c d\na b\nb c\nc d\n", encoding="utf-8")
    code, out, _ = run(capsys, "recognize", str(graph_file))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "comparability: yes"
    assert lines[1] == "permutation: yes"
    assert lines[2].startswith("pi1: ")
    assert lines[3].startswith("pi2: ")


def test_permutation_outputs_pinned(capsys, fixture_path, fixture_text):
    # vertices in the order 8 12 1 9 ..., so name order and index order differ:
    # both outputs depend on which edge seeds each implication class
    graph = str(fixture_path("perm12.graph"))
    code, out, _ = run(capsys, "recognize", graph)
    assert code == 0
    assert out == fixture_text("perm12.recognize")
    code, out, _ = run(capsys, "implement", "--family", "permutation", graph)
    assert code == 0
    assert out == fixture_text("perm12.elec")


def test_recognize_negative(capsys, monkeypatch, fixture_path, tmp_path):
    code, out, _ = run(capsys, "recognize", str(fixture_path("figure1.graph")))
    assert code == 1
    assert out == "comparability: yes\npermutation: no\n"
    # not a comparability graph, so not a permutation graph: no second orientation
    c5 = tmp_path / "c5.graph"
    c5.write_text("5\n1 2 3 4 5\n1 2\n2 3\n3 4\n4 5\n5 1\n", encoding="utf-8")
    monkeypatch.setattr(cli, "recognize_permutation", None)  # calling it fails
    code, out, _ = run(capsys, "recognize", str(c5))
    assert code == 1
    assert out == "comparability: no\npermutation: no\n"


def test_ramsey(capsys, fixture_path):
    code, out, _ = run(capsys, "ramsey", str(fixture_path("table1_left.elec")))
    assert code == 0
    kind, _, members = out.partition(": ")
    assert kind in ("clique", "independent")
    assert members.split()


def test_star_import_binds_no_submodule():
    modules = [name for name in multicrossing.__all__
               if isinstance(getattr(multicrossing, name), ModuleType)]
    assert modules == []


def test_generators_deterministic(capsys):
    _, first, _ = run(capsys, "gen", "random-election",
                      "--m", "6", "--n", "4", "--seed", "42")
    _, second, _ = run(capsys, "gen", "random-election",
                       "--m", "6", "--n", "4", "--seed", "42")
    assert first == second
    _, third, _ = run(capsys, "gen", "random-election",
                      "--m", "6", "--n", "4", "--seed", "43")
    assert first != third


def test_generator_probability_outside_unit_interval_exits_2(capsys):
    for p in ("1.5", "-1", "nan"):
        code, out, err = run(capsys, "gen", "random-graph", "--v", "5", "--p", p, "--seed", "1")
        assert code == 2, p
        assert out == "" and "probability" in err


def test_input_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "missing.elec"))
    assert code == 2
    assert "error:" in err
    bad = tmp_path / "bad.elec"
    bad.write_text("2 1\na b\na>a\n", encoding="utf-8")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    loop = tmp_path / "loop.graph"
    loop.write_text("2\na b\na a\n", encoding="utf-8")
    code, out, err = run(capsys, "recognize", str(loop))
    assert code == 2
    assert out == "" and "self-loop" in err


def test_construction_argument_errors_exit_2(capsys, tmp_path):
    for family, size in [("cycle", 5), ("cycle", 2), ("path", 1), ("clique", 0), ("empty", 0)]:
        code, _, err = run(capsys, "implement", "--family", family, "--size", str(size))
        assert code == 2, (family, size)
        assert err.startswith("error:")
    square = tmp_path / "c4.graph"
    square.write_text("4\n1 2 3 4\n1 2\n2 3\n3 4\n4 1\n", encoding="utf-8")
    code, _, err = run(capsys, "implement", "--family", "tree", str(square))
    assert code == 2
    assert "not a tree" in err
    for argv, missing in ((["--family", "path"], "--size"), (["--family", "tree"], "graph file")):
        code, _, err = run(capsys, "implement", *argv)
        assert code == 2, argv
        assert err.startswith("error:") and missing in err


def test_analysis_range_errors_exit_2(capsys, fixture_path):
    election = str(fixture_path("brexit.elec"))
    for problem, args in [("deletion", ["--k", "-1"]), ("partition", ["--k", "0"]),
                          ("deletion", ["--k", "2", "--budget", "-5"]),
                          ("partition", ["--k", "2", "--budget", "-5"])]:
        code, out, err = run(capsys, "analyze", problem, election, *args)
        assert code == 2, (problem, args)
        assert out == ""
        assert err.startswith("error: ") and "internal" not in err
        assert err.count("\n") == 1


def test_internal_errors_exit_4(capsys, monkeypatch, fixture_path):
    # a construction whose self-verification fails is a fault, not an answer
    monkeypatch.setattr(constructions, "multicrossing_graph",
                        lambda e: UndirectedGraph(e.candidates))
    code, out, err = run(capsys, "implement", "--family", "path", "--size", "4")
    assert code == 4
    assert out == ""
    assert err.startswith("error: internal error: ConstructionError: ")
    assert err.count("\n") == 1

    def overflow(e):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "is_single_crossing", overflow)
    code, _, err = run(capsys, "check", str(fixture_path("brexit.elec")))
    assert code == 4
    assert err == "error: internal error: RecursionError: maximum recursion depth exceeded\n"

    # an analysis whose self-check fails is a fault too, not an input error
    perm12 = str(fixture_path("perm12.elec"))
    with monkeypatch.context() as patch:  # no matching: every vertex looks uncovered
        patch.setattr(graphs, "_kuhn_matching", lambda succ, within, start=None: ({}, 0))
        code, out, err = run(capsys, "analyze", "deletion", perm12, "--k", "8")
    assert (code, out) == (4, "")
    assert err == ("error: internal error: RuntimeError: "
                   "antichain is not independent in the base graph\n")
    # every vote-1 mask full: each edge directed both ways, never transitive
    monkeypatch.setattr(analysis, "_later",
                        lambda order, index: [(1 << len(index)) - 1] * len(index))
    code, out, err = run(capsys, "analyze", "partition", perm12, "--k", "5")
    assert (code, out) == (4, "")
    assert err == ("error: internal error: RuntimeError: "
                   "vote-1 orientation of a <=3-voter election not transitive\n")
