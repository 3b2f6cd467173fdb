"""The four benchmark workloads: corpus set-up, timed pipeline and checks.

Every input comes from a fixed pool per instance kind. The pool is split
into `count` equal blocks; the entries of one block share a size (block
sizes spread evenly over the kind's range) and differ in generator seed.
The benchmark seed picks one entry from each block and shuffles the
order, so every seed runs every size, the seed changes the content, and
every pooled instance that needs one has an answer in recorded.json.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field
from math import isqrt
from pathlib import Path
from random import Random

from multicrossing import (
    Orientation,
    UndirectedGraph,
    candidate_deletion,
    candidate_partition,
    emit_election,
    emit_graph,
    exact_coloring,
    fully_single_crossing,
    implement_clique,
    implement_even_cycle,
    implement_general,
    implement_permutation_graph,
    implement_tree,
    is_bipartite,
    is_single_crossing,
    max_antichain,
    maximum_independent_set,
    mirsky_coloring,
    multicrossing_graph,
    parse_election,
    recognize_permutation,
    reduce_coloring,
    reduce_independent_set,
    transitive_orientation,
)
from multicrossing import bruteforce
from multicrossing.generate import (
    random_comparability_graph,
    random_election,
    random_graph,
    random_permutation_diagram,
    random_tree,
)

import checks
from checks import expect, pair
from harness import Op

RECORDED_PATH = Path(__file__).with_name("recorded.json")

# Node budget of every exact-workload operation. Chosen so that some
# strata (G(80, 0.1) with k=4, G(70, 0.1) deletion) exceed it at the
# commit that defined the benchmark: decided_ratio < 1 measures that path.
EXACT_BUDGET = 50_000


def entry_seed(kind: str, j: int) -> int:
    return zlib.crc32(f"{kind}/{j}".encode())


def block(spec, j: int) -> int:
    return j * spec["count"] // spec["pool"]


def size(spec, key: str, j: int, shuffled=False) -> int:
    """Size of pool entry j. `shuffled` walks the blocks in another order,
    for a second size dimension that should not grow with the first."""
    count = spec["count"]
    b = block(spec, j)
    if shuffled:
        b = (5 * b + 3) % count
    lo, hi = spec[key]
    return lo + (hi - lo) * b // max(1, count - 1)


def pick(rng: Random, pool: int, count: int) -> list[int]:
    """One entry from each of `count` equal blocks of the pool."""
    bounds = [pool * i // count for i in range(count + 1)]
    return [rng.randrange(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def interleave(groups, rng: Random) -> list:
    """Round-robin over kinds, so any prefix of a pass keeps the mix."""
    for g in groups:
        rng.shuffle(g)
    out = []
    for i in range(max(len(g) for g in groups)):
        out.extend(g[i] for g in groups if i < len(g))
    return out


def edge_set(g) -> set[tuple[str, str]]:
    return {pair(*e) for e in g.edges}


def gamma_attrs(e):
    return lambda g: {"pair_votes": e.n * e.m * (e.m - 1) // 2, "edges": len(g.edges)}


def analysis_attrs(r):
    return {"nodes": r.nodes_explored, "budget_exceeded": int(r.budget_exceeded)}


def vote1_orientation(e, gamma) -> Orientation:
    """The orientation the <=3-voter analyses build: each edge by vote 1."""
    pos = e.positions(1)
    o = Orientation(gamma, [(a, b) if pos[a] < pos[b] else (b, a) for a, b in gamma.edges])
    o.verify_transitive()
    return o


def oracle(fn, vertices, edges, limit):
    """A bruteforce oracle's answer on a graph small enough for it, else None."""
    if len(vertices) > limit:
        return None
    return fn(UndirectedGraph(vertices, sorted(edges)))


# recorded.get(key, MISSING): no entry at all, as opposed to an entry of
# null for an instance that was undecided when the answers were recorded.
MISSING = object()


def load_recorded() -> dict:
    return json.loads(RECORDED_PATH.read_text())


# ---------------------------------------------------------------- gamma-scan

class GammaScanOp(Op):
    """parse -> is_single_crossing -> multicrossing_graph -> emit_graph."""

    def __init__(self, kind, election, text, expected=None):
        self.kind, self.source, self.text = kind, election, text
        self.expected = expected  # known by construction, else computed on first check
        self._lines = None

    def run(self, tr):
        text = self.text
        e = tr.call("elections.parse_election", parse_election, text,
                    attrs=lambda _: {"bytes": len(text)})
        verdict = tr.call("elections.is_single_crossing", is_single_crossing, e,
                          attrs=lambda r: {"positive": int(r[0])})
        g = tr.call("elections.multicrossing_graph", multicrossing_graph, e, attrs=gamma_attrs(e))
        out = tr.call("elections.emit", emit_graph, g)
        return e, verdict, g, out

    def check(self, result):
        e, (ok, witness), g, out = result
        src = self.source
        if self.expected is None:
            self.expected = checks.gamma_edges(src.candidates, src.votes)
        if self._lines is None:
            self._lines = {f"{u} {v}" for u, v in self.expected}
        problems = expect("parsed election", (e.candidates, e.votes), (src.candidates, src.votes))
        problems += expect("gamma vertices", g.vertices, src.candidates)
        if g.edges != self.expected:
            problems.append(f"gamma has {len(g.edges)} edges, reference {len(self.expected)}")
        problems += expect("single-crossing verdict", ok, not self.expected)
        if not ok:
            (a, b), voters = witness
            if pair(a, b) not in self.expected or not checks.alternates(src.votes, a, b, voters):
                problems.append(f"witness {a},{b} at voters {voters} does not alternate")
        lines = out.splitlines()
        if (lines[:2] != [str(len(src.candidates)), " ".join(src.candidates)]
                or len(lines) - 2 != len(self._lines) or set(lines[2:]) != self._lines):
            problems.append("emitted graph differs from the reference")
        return problems


def gamma_entry(kind, spec, j, tr) -> GammaScanOp:
    seed = entry_seed(kind, j)
    if kind == "random":
        e = tr.call("generate.random_election", random_election, size(spec, "m", j),
                    size(spec, "n", j, shuffled=True), seed=seed)
        expected = None
    elif kind == "fullsc":
        e = tr.call("constructions.fully_single_crossing", fully_single_crossing,
                    size(spec, "m", j))
        expected = set()
    else:
        p = spec["p"][block(spec, j) % len(spec["p"])]
        g = tr.call("generate.random_graph", random_graph, size(spec, "v", j), p, seed=seed)
        e = tr.call("constructions.implement", implement_general, g).election
        expected = edge_set(g)
    return GammaScanOp(kind, e, tr.call("elections.emit", emit_election, e), expected)


def setup_gamma_scan(seed, params, tr, ctx):
    rng = Random(seed)
    return interleave([[gamma_entry(kind, spec, j, tr) for j in pick(rng, spec["pool"], spec["count"])]
                       for kind, spec in params.items()], rng)


# ---------------------------------------------------------------- three-voter

class ThreeVoterOp(Op):
    """Build one 3-voter instance, then candidate_deletion and candidate_partition."""

    def __init__(self, kind, build, arg, k_del, k_part, reference, recorded_mis=MISSING):
        self.kind, self.build, self.arg = kind, build, arg
        self.k_del, self.k_part = k_del, k_part
        self._reference, self.recorded_mis = reference, recorded_mis
        self.edges = None

    def run(self, tr):
        res = None
        e = self.arg
        if self.build is not None:
            res = tr.call("constructions.implement", self.build, self.arg,
                          attrs=lambda r: {"voters": r.voters_used})
            e = res.election
        d = tr.call("analysis.candidate_deletion", candidate_deletion, e, self.k_del,
                    attrs=analysis_attrs)
        p = tr.call("analysis.candidate_partition", candidate_partition, e, self.k_part,
                    attrs=analysis_attrs)
        return res, e, d, p

    def reference(self, e):
        if self.edges is not None:
            return
        self.edges, self.mis, self.chi = self._reference()
        if self.mis is None and self.recorded_mis is not MISSING:
            self.mis = self.recorded_mis
        elif self.mis is None:  # not recorded: small instances go to the oracle
            found = oracle(bruteforce.bf_independent_set, e.candidates, self.edges,
                           bruteforce.MAX_SUBSET_VERTICES)
            self.mis = found and found[0]
            self.unverified = self.mis is None

    def check(self, result):
        res, e, d, p = result
        self.reference(e)
        problems = []
        if res is not None:
            problems += expect("voters used", (res.verified, res.voters_used), (True, 3))
            if checks.gamma_edges(e.candidates, e.votes) != self.edges:
                problems.append("gamma of the construction differs from its target")
        problems += expect("deletion method", d.method, "three-voter-poly")
        problems += checks.independence_problems(d.kept, self.edges)
        if self.mis is not None:
            problems += expect("kept size", len(d.kept), self.mis)
        problems += expect("deletion verdict", d.feasible, len(d.kept) >= e.m - self.k_del)
        want = "bipartite-poly" if self.k_part == 2 else "three-voter-poly"
        problems += expect("partition method", p.method, want)
        problems += expect("partition verdict", p.feasible, self.chi <= self.k_part)
        if p.feasible:
            problems += checks.coloring_problems(p.classes, e.candidates, self.edges, self.k_part)
        return problems

    def replay(self, tr, result):
        res, e, _, _ = result
        if res is not None:
            tr.call("constructions.verify_estimate", multicrossing_graph, e,
                    parent=tr.find("constructions.implement"))
        for name, k in (("analysis.candidate_deletion", self.k_del),
                        ("analysis.candidate_partition", self.k_part)):
            parent = tr.find(name)
            g = tr.call("elections.multicrossing_graph", multicrossing_graph, e,
                        parent=parent, attrs=gamma_attrs(e))
            if name.endswith("partition") and k == 2:
                tr.call("graphs.is_bipartite", is_bipartite, g, parent=parent)
                continue
            o = tr.call("graphs.verify_transitive", vote1_orientation, e, g, parent=parent)
            if name.endswith("deletion"):
                tr.call("graphs.max_antichain", max_antichain, o, parent=parent)
            else:
                tr.call("graphs.mirsky_coloring", mirsky_coloring, o, parent=parent)


class RecognizeOp(Op):
    """transitive_orientation and recognize_permutation on one graph."""

    def __init__(self, kind, g, recorded):
        self.kind, self.g, self.recorded = kind, g, recorded
        self.edges = edge_set(g)
        if recorded is MISSING:  # not recorded: small instances go to the oracle
            self.recorded = None
            if len(g.vertices) <= bruteforce.MAX_DIAGRAM_VERTICES:
                self.recorded = {
                    "comparability": bruteforce.bf_transitive_orientation(g),
                    "permutation": bruteforce.bf_permutation_diagram(g),
                }
            self.unverified = self.recorded is None

    def run(self, tr):
        o = tr.call("graphs.transitive_orientation", transitive_orientation, self.g)
        d = tr.call("graphs.recognize_permutation", recognize_permutation, self.g)
        return o, d

    def check(self, result):
        o, d = result
        problems = []
        if o is not None:
            problems += checks.orientation_problems(o.arcs, self.edges)
        elif self.kind == "comparability":
            problems.append("comparability graph by construction, but no orientation")
        if d is not None:
            if sorted(d.pi1) != sorted(self.g.vertices):
                problems.append("diagram is not over the vertex set")
            elif checks.diagram_edges(d.pi1, d.pi2) != self.edges:
                problems.append("diagram does not regenerate the graph")
        if self.recorded is not None:
            problems += expect("comparability", o is not None, self.recorded["comparability"])
            problems += expect("permutation", d is not None, self.recorded["permutation"])
        return problems


def three_voter_entry(kind, spec, j, tr):
    """Input of pool entry j: (build, arg, k_del, k_part, reference) or a graph.

    reference() gives the generating graph's edges, MIS and chi known by
    construction (None where unknown); the checks call it on first use.
    k_del alternates between variants (deletion does the same work for any
    k); k_part, which picks the bipartite or the poset path, is per block.
    """
    seed = entry_seed(kind, j)
    b = block(spec, j)
    if kind == "perm":
        v = size(spec, "v", j)
        dg = tr.call("generate.random_permutation_diagram", random_permutation_diagram, v, seed=seed)
        r = isqrt(4 * v)
        return (implement_permutation_graph, dg, v - r + 3 * (j % 2),
                2 if b % 3 == 0 else r - 2 + 3 * (b % 2),
                lambda: (checks.diagram_edges(dg.pi1, dg.pi2), *checks.permutation_mis_chi(dg.pi1, dg.pi2)))
    if kind == "tree":
        s = size(spec, "s", j)
        t = tr.call("generate.random_tree", random_tree, s, seed=seed)
        return (implement_tree, t, s // 2 if j % 2 else s // 3, 2,
                lambda: (edge_set(t), checks.tree_mis(t.vertices, t.edges), 2))
    if kind == "cycle":
        s = size(spec, "s", j) // 2 * 2
        names = [str(i) for i in range(1, s + 1)]
        return (implement_even_cycle, s, s // 2 - j % 2, 3,
                lambda: ({pair(names[i], names[(i + 1) % s]) for i in range(s)}, s // 2, 2))
    if kind == "clique":
        s = size(spec, "s", j)
        names = [str(i) for i in range(1, s + 1)]
        return (implement_clique, names, s - 1 - j % 2, (s, s - 1, 2)[b % 3],
                lambda: ({pair(x, y) for i, x in enumerate(names) for y in names[i + 1:]}, 1, s))
    if kind == "rand3":
        m = size(spec, "m", j)
        e = tr.call("generate.random_election", random_election, m, 3, seed=seed)
        return (None, e, m - (m // 4 if j % 2 else m // 2), (2, 6, 10, 14)[b % 4],
                lambda: (checks.gamma_edges(e.candidates, e.votes), None,
                         checks.three_voter_chi(e.candidates, e.votes)))
    v = size(spec, "v", j)
    p = spec["p"][b % len(spec["p"])]
    if kind == "comparability":
        return tr.call("generate.random_comparability_graph", random_comparability_graph, v, p,
                       seed=seed)
    return tr.call("generate.random_graph", random_graph, v, p, seed=seed)


def setup_three_voter(seed, params, tr, ctx):
    rng = Random(seed)
    recorded = ctx.recorded
    groups = []
    for kind, spec in params.items():
        ops = []
        for j in pick(rng, spec["pool"], spec["count"]):
            inst = three_voter_entry(kind, spec, j, tr)
            if kind in ("comparability", "random"):
                ops.append(RecognizeOp(kind, inst, recorded.get(checks.graph_key(
                    inst.vertices, inst.edges, "recognize"), MISSING)))
                continue
            build, arg, k_del, k_part, reference = inst
            mis = MISSING
            if kind == "rand3":
                mis = recorded.get(checks.election_key(arg.candidates, arg.votes, "mis"), MISSING)
            ops.append(ThreeVoterOp(kind, build, arg, k_del, k_part, reference, mis))
        groups.append(ops)
    return interleave(groups, rng)


# ---------------------------------------------------------------- exact

class ExactOp(Op):
    """candidate_deletion or candidate_partition on a reduct, under EXACT_BUDGET."""

    def __init__(self, kind, g, e, k, recorded):
        self.kind, self.g, self.e, self.k, self.recorded = kind, g, e, k, recorded
        self.edges = edge_set(g)
        if recorded is MISSING:  # not recorded: small instances go to the oracle
            if kind == "deletion":
                found = oracle(bruteforce.bf_independent_set, g.vertices, self.edges,
                               bruteforce.MAX_SUBSET_VERTICES)
                self.recorded = found and found[0]
            else:
                found = oracle(bruteforce.bf_chromatic, g.vertices, self.edges,
                               bruteforce.MAX_COLORING_VERTICES)
                self.recorded = found and found[0] <= k
            self.unverified = self.recorded is None

    def run(self, tr):
        fn = candidate_deletion if self.kind == "deletion" else candidate_partition
        return tr.call("analysis.candidate_" + self.kind, fn, self.e, self.k,
                       budget=EXACT_BUDGET, attrs=analysis_attrs)

    def decided(self, r):
        return not r.budget_exceeded

    def check(self, r):
        problems = expect("method", r.method, "general-exact")
        problems += expect("optimal", r.optimal, not r.budget_exceeded)
        rec = self.recorded
        if self.kind == "deletion":
            problems += checks.independence_problems(r.kept, self.edges)
            problems += expect("deletion verdict", r.feasible, len(r.kept) >= self.e.m - self.k)
            if rec is not None and not r.budget_exceeded:
                problems += expect("kept size", len(r.kept), rec)
            elif rec is not None and len(r.kept) > rec:
                problems.append(f"kept {len(r.kept)} exceeds the maximum {rec}")
            return problems
        if r.feasible:
            problems += checks.coloring_problems(r.classes, self.g.vertices, self.edges, self.k)
        if r.budget_exceeded:
            problems += expect("verdict when budget exceeded", r.feasible, False)
        elif rec is not None:
            problems += expect("colourable", r.feasible, rec)
        return problems

    def replay(self, tr, r):
        parent = tr.find("analysis.candidate_" + self.kind)
        g = tr.call("elections.multicrossing_graph", multicrossing_graph, self.e,
                    parent=parent, attrs=gamma_attrs(self.e))
        if self.kind == "deletion":
            tr.call("graphs.maximum_independent_set", maximum_independent_set, g, EXACT_BUDGET,
                    parent=parent, attrs=lambda res: {"nodes": res[2]})
        else:
            tr.call("graphs.exact_coloring", exact_coloring, g, self.k, EXACT_BUDGET,
                    parent=parent, attrs=lambda res: {"nodes": res.nodes})


def exact_entry(kind, stratum, j, tr):
    """Generating graph, election and k of pool entry j of a stratum."""
    v, p = stratum[0], stratum[1]
    g = tr.call("generate.random_graph", random_graph, v, p,
                seed=entry_seed(f"{kind}/{v}/{p}", j))
    if kind == "deletion":
        e, k = tr.call("constructions.implement", reduce_independent_set, g,
                       v // 2 if j % 2 else v // 3)
        return g, e, k
    k = stratum[2]
    return g, tr.call("constructions.implement", reduce_coloring, g, k), k


def exact_key(kind, g, k):
    return checks.graph_key(g.vertices, g.edges, kind, None if kind == "deletion" else k)


def setup_exact(seed, params, tr, ctx):
    rng = Random(seed)
    groups = []
    for kind in ("deletion", "partition"):
        for stratum in params[kind]:
            ops = []
            for j in pick(rng, params["pool"], params["count"]):
                g, e, k = exact_entry(kind, stratum, j, tr)
                ops.append(ExactOp(kind, g, e, k, ctx.recorded.get(exact_key(kind, g, k), MISSING)))
            groups.append(ops)
    return interleave(groups, rng)


# ---------------------------------------------------------------- cli

class CliOp(Op):
    """One `python -m multicrossing.cli` run; expected exit codes 0, 1 or 3."""

    def __init__(self, kind, sub, argv, ctx, check, **inputs):
        self.kind, self.sub, self.argv, self.ctx, self._check = kind, sub, argv, ctx, check
        self.ref = None
        self.__dict__.update(inputs)  # what the checker needs: source election, graph, k

    def run(self, tr):
        return tr.call("cli." + self.sub, subprocess.run,
                       [sys.executable, "-m", "multicrossing.cli", self.sub, *self.argv],
                       cwd=self.ctx.workdir, env=self.ctx.env, capture_output=True,
                       text=True, timeout=120)

    def decided(self, proc):
        return proc.returncode != 3

    def check(self, proc):
        if proc.returncode not in (0, 1, 3):
            return [f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"]
        return self._check(self, proc)


def _check_check(op, proc):
    cands, votes = op.ref_election
    if op.ref is None:
        op.ref = checks.gamma_edges(cands, votes)
    if not op.ref:
        return expect("check", (proc.returncode, proc.stdout), (0, "single-crossing\n"))
    problems = expect("exit", proc.returncode, 1)
    try:
        head, tail = proc.stdout.split("{", 1)[1].split("}", 1)
        a, b = head.split(",")
        voters = tuple(int(x) for x in tail.split("voters", 1)[1].strip(" )\n").split(" < "))
    except (IndexError, ValueError):
        return problems + [f"unreadable witness {proc.stdout!r}"]
    if pair(a, b) not in op.ref or not checks.alternates(votes, a, b, voters):
        problems.append("witness does not alternate")
    return problems


def _check_gamma(op, proc):
    cands, votes = op.ref_election
    if op.ref is None:
        op.ref = checks.gamma_edges(cands, votes)
    got = {pair(*ln.split()) for ln in proc.stdout.splitlines()}
    return expect("exit", proc.returncode, 0) + expect("gamma edges", got, op.ref)


def _check_analyze(op, proc):
    g, k, kind = op.graph, op.k, op.argv[0]
    if op.ref is None:  # bruteforce oracles on the generating graph
        op.ref = (bruteforce.bf_independent_set(g)[0] if kind == "deletion"
                  else bruteforce.bf_chromatic(g)[0])
    try:
        res = json.loads(proc.stdout)
    except ValueError:
        return [f"unreadable result {proc.stdout[:200]!r}"]
    edges = edge_set(g)
    if proc.returncode == 3:
        return expect("budget_exceeded", res["budget_exceeded"], True)
    if kind == "deletion":
        feasible = op.ref >= len(g.vertices) - k
        problems = checks.independence_problems(res["kept"], edges)
        problems += expect("kept size", len(res["kept"]), op.ref)
    else:
        feasible = op.ref <= k
        problems = checks.coloring_problems(res["classes"], g.vertices, edges, k) if feasible else []
    return problems + expect("exit", proc.returncode, 0 if feasible else 1) + expect(
        "feasible", res["feasible"], feasible)


def _check_implement(op, proc):
    problems = expect("exit", proc.returncode, 0)
    try:
        used = int(proc.stdout.split("voters_used:", 1)[1].split()[0])
        cands, votes = checks.parse_election_text(proc.stdout)
    except (IndexError, ValueError) as exc:
        return problems + [f"unreadable election: {exc}"]
    problems += expect("voters", used, len(votes))
    if len(votes) > 2 * len(cands) + 1:
        problems.append(f"{len(votes)} voters for {len(cands)} candidates")
    return problems + expect("gamma of output", checks.gamma_edges(cands, votes), edge_set(op.graph))


def _check_recognize(op, proc):
    g = op.graph
    if op.ref is None:
        op.ref = (bruteforce.bf_transitive_orientation(g), bruteforce.bf_permutation_diagram(g))
    comparability, permutation = op.ref
    lines = proc.stdout.splitlines()
    problems = expect("exit", proc.returncode, 0 if permutation else 1)
    problems += expect("comparability line", lines[0], f"comparability: {'yes' if comparability else 'no'}")
    if permutation:
        pi1, pi2 = (ln.split(": ", 1)[1].split() for ln in lines[2:4])
        if sorted(pi1) != sorted(g.vertices) or checks.diagram_edges(pi1, pi2) != edge_set(g):
            problems.append("diagram does not regenerate the graph")
    return problems


def _check_gen(op, proc):
    m, n, seed = op.gen_args
    if op.ref is None:  # the same generator through the library API
        op.ref = emit_election(random_election(m, n, seed=seed))
    problems = expect("exit", proc.returncode, 0) + expect("output", proc.stdout, op.ref)
    cands, votes = checks.parse_election_text(proc.stdout)
    if any(sorted(v) != sorted(cands) for v in votes) or len(cands) != m:
        problems.append("generated votes are not rankings of the candidates")
    return problems


def cli_entry(kind, spec, j, tr, ctx):
    """Write the input file of pool entry j and return its CliOp."""
    seed = entry_seed("cli/" + kind, j)
    path = ctx.workdir / f"{kind}-{j}"
    if kind in ("check-random", "check-fullsc", "gamma"):
        m = size(spec, "m", j)
        if kind == "check-fullsc":
            e = tr.call("constructions.fully_single_crossing", fully_single_crossing, m)
        else:
            e = tr.call("generate.random_election", random_election, m, 5 + j % 8, seed=seed)
        path.write_text(tr.call("elections.emit", emit_election, e))
        sub, argv, check = ("gamma", [path.name, "--edges"], _check_gamma) if kind == "gamma" \
            else ("check", [path.name], _check_check)
        return CliOp(kind, sub, argv, ctx, check, ref_election=(e.candidates, e.votes))
    if kind in ("implement", "recognize"):
        v = size(spec, "v", j)
        if kind == "recognize" and j % 2 == 0:
            g = tr.call("generate.random_permutation_diagram", random_permutation_diagram,
                        v, seed=seed).graph()
        else:
            g = tr.call("generate.random_graph", random_graph, v, spec["p"], seed=seed)
        path.write_text(tr.call("elections.emit", emit_graph, g))
        argv = [path.name, "--family", "general"] if kind == "implement" else [path.name]
        return CliOp(kind, kind, argv, ctx,
                     _check_implement if kind == "implement" else _check_recognize, graph=g)
    if kind == "gen":
        args = (size(spec, "m", j), 5 + j % 8, seed)
        argv = ["random-election"] + [f"--{k}={a}" for k, a in zip("mn", args)] + [f"--seed={seed}"]
        return CliOp(kind, "gen", argv, ctx, _check_gen, gen_args=args)
    # analyze-deletion, analyze-partition, analyze-budget
    v = size(spec, "v", j)
    g = tr.call("generate.random_graph", random_graph, v, spec["p"], seed=seed)
    problem = "deletion" if kind == "analyze-deletion" else "partition"
    if problem == "deletion":
        e, k = tr.call("constructions.implement", reduce_independent_set, g, v // 2 - j % 2)
    else:
        k = spec["k"]
        e = tr.call("constructions.implement", reduce_coloring, g, k)
    path.write_text(tr.call("elections.emit", emit_election, e))
    argv = [problem, path.name, "--k", str(k)] + (["--budget", str(spec["budget"])]
                                                  if "budget" in spec else [])
    return CliOp(kind, "analyze", argv, ctx, _check_analyze, graph=g, k=k)


def setup_cli(seed, params, tr, ctx):
    rng = Random(seed)
    groups = [[cli_entry(kind, spec, j, tr, ctx) for j in pick(rng, spec["pool"], spec["count"])]
              for kind, spec in params.items()]
    return interleave(groups, rng)


# ---------------------------------------------------------------- registry

@dataclass
class Context:
    """Per-run resources: recorded answers, and for `cli` a work directory."""

    root: Path
    workdir: Path | None = None
    recorded: dict = field(default_factory=load_recorded)

    @property
    def env(self):
        return dict(os.environ, PYTHONPATH=str(self.root / "src"))

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


@dataclass
class Workload:
    setup: Callable
    params: dict
    tiny: dict
    uses_subprocesses: bool = False
    traced_cli_pass: bool = False  # the traced run also times one pass of `cli`


CLI_PARAMS = {
    "check-random": dict(pool=4, count=2, m=(10, 30)),
    "check-fullsc": dict(pool=4, count=2, m=(10, 29)),
    "gamma": dict(pool=4, count=2, m=(10, 30)),
    "analyze-deletion": dict(pool=4, count=2, v=(10, 14), p=0.3),
    "analyze-partition": dict(pool=4, count=2, v=(8, 12), p=0.35, k=3),
    "analyze-budget": dict(pool=4, count=2, v=(10, 12), p=0.3, k=4, budget=5),
    "implement": dict(pool=4, count=2, v=(10, 30), p=0.3),
    "recognize": dict(pool=4, count=2, v=(7, 7), p=0.4),
    "gen": dict(pool=4, count=2, m=(10, 30)),
}

WORKLOADS = {
    "gamma-scan": Workload(
        setup_gamma_scan,
        params=dict(
            random=dict(pool=16, count=8, m=(100, 300), n=(10, 60)),
            fullsc=dict(pool=16, count=8, m=(40, 100)),
            general=dict(pool=16, count=8, v=(40, 120), p=(0.05, 0.1, 0.2, 0.3, 0.4, 0.5)),
        ),
        tiny=dict(
            random=dict(pool=2, count=1, m=(8, 12), n=(3, 5)),
            fullsc=dict(pool=2, count=1, m=(5, 8)),
            general=dict(pool=2, count=1, v=(5, 8), p=(0.0, 0.4)),
        ),
        traced_cli_pass=True,
    ),
    "three-voter": Workload(
        setup_three_voter,
        params=dict(
            perm=dict(pool=8, count=4, v=(60, 150)),
            tree=dict(pool=8, count=4, s=(60, 200)),
            cycle=dict(pool=8, count=4, s=(60, 200)),
            clique=dict(pool=8, count=4, s=(60, 200)),
            rand3=dict(pool=16, count=4, m=(60, 200)),
            comparability=dict(pool=8, count=2, v=(60, 120), p=(0.02, 0.05)),
            random=dict(pool=8, count=2, v=(60, 120), p=(0.1, 0.3)),
        ),
        tiny=dict(
            perm=dict(pool=2, count=1, v=(6, 9)),
            tree=dict(pool=2, count=1, s=(6, 9)),
            cycle=dict(pool=2, count=1, s=(6, 8)),
            clique=dict(pool=2, count=1, s=(4, 6)),
            rand3=dict(pool=2, count=1, m=(6, 9)),
            comparability=dict(pool=2, count=1, v=(6, 8), p=(0.3,)),
            random=dict(pool=2, count=1, v=(6, 8), p=(0.5,)),
        ),
    ),
    "exact": Workload(
        setup_exact,
        params=dict(
            pool=6, count=6,
            deletion=[(40, 0.1), (50, 0.2), (55, 0.25), (60, 0.15), (70, 0.1)],
            partition=[(40, 0.1, 3), (50, 0.1, 3), (60, 0.1, 4), (80, 0.1, 4),
                       (50, 0.2, 5), (70, 0.15, 4), (70, 0.15, 5), (60, 0.3, 5)],
        ),
        tiny=dict(pool=2, count=1, deletion=[(8, 0.3)], partition=[(8, 0.4, 3)]),
    ),
    "cli": Workload(
        setup_cli,
        params=CLI_PARAMS,
        tiny={kind: dict(spec, pool=1, count=1) for kind, spec in CLI_PARAMS.items()},
        uses_subprocesses=True,
    ),
}


def open_context(name: str, root: Path, out_dir: Path, tag: str) -> Context:
    ctx = Context(root)
    if WORKLOADS[name].uses_subprocesses:
        ctx.workdir = out_dir / f"work-{tag}"
        ctx.workdir.mkdir(parents=True, exist_ok=True)
    return ctx

