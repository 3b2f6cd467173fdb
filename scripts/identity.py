#!/usr/bin/env python3
"""Compare the analysis and Ramsey results of this checkout with those of a git revision.

Usage: python3 scripts/identity.py --base REV

REV's src/ is extracted with `git archive` into a temporary directory, and
it and this checkout's src/ are imported side by side under different
package names. Each copy builds the same instances, for seeds 1 to 10,
with its own generators: Independent Set and Coloring reduction outputs
of random graphs, trees and comparability graphs, and random elections
of 2 to 8 voters. Both run candidate_deletion and candidate_partition on each at
node budgets 0, 1, 10 and 10**7, ramsey_extract on each random election, and
transitive_orientation and recognize_permutation on each graph and its complement.

Every difference in to_json_dict() other than nodes_explored is printed,
then the node totals of each copy. A difference between two complete
results (neither search ran out of budget) exits 1. A difference where a
search ran out is listed only: the kept set of an incomplete deletion is
whatever the first search found, and a faster search may find another.
Ramsey extraction and recognition have no budget, so any difference in the
extracted kind or members, the orientation's arcs or the diagram is printed
and exits 1.
"""
import argparse
import importlib
import importlib.util
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SEEDS = 10  # the corpus is built for seeds 1..SEEDS
BUDGETS = (0, 1, 10, 10**7)
# (generator, vertex count, edge probability) of the reduction outputs
GRAPHS = [("graph", 12, 0.3), ("graph", 20, 0.2), ("graph", 30, 0.3), ("graph", 45, 0.15),
          ("graph", 60, 0.1), ("graph", 80, 0.1), ("tree", 40, None), ("poset", 25, 0.2)]
ELECTIONS = [(10, 2), (25, 3), (40, 3), (150, 3), (12, 5), (20, 8), (30, 6)]  # (candidates, voters)


def load(src: Path, name: str):
    """The package in `src`/multicrossing, imported as `name`."""
    root = src / "multicrossing"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def graphs(mc, seed: int):
    """(label, graph) of the graphs of the corpus for `seed`, built by package `mc`."""
    gen = importlib.import_module(mc.__name__ + ".generate")
    for kind, v, p in GRAPHS:
        g = (gen.random_tree(v, seed=seed) if kind == "tree" else
             gen.random_comparability_graph(v, p, seed=seed) if kind == "poset" else
             gen.random_graph(v, p, seed=seed))
        yield f"{kind}({v}, {p}, seed {seed})", g


def instances(mc, seed: int):
    """(label, problem, election, k) of the corpus for `seed`, built by package `mc`."""
    for label, g in graphs(mc, seed):
        v = len(g.vertices)
        e, k = mc.reduce_independent_set(g, v // 3)
        yield label, "deletion", e, k
        for colors in (3, 4):
            yield label, "partition", mc.reduce_coloring(g, colors), colors
    for label, e in elections(mc, seed):
        yield label, "deletion", e, len(e.candidates) // 2
        for parts in (2, 3, 4):
            yield label, "partition", e, parts


def elections(mc, seed: int):
    """(label, election) of the random elections of the corpus for `seed`."""
    gen = importlib.import_module(mc.__name__ + ".generate")
    for m, n in ELECTIONS:
        yield f"election({m}, {n}, seed {seed})", gen.random_election(m, n, seed=seed)


def results(mc) -> list:
    """(label, problem, k, budget, to_json_dict()) of every run, in corpus order."""
    solve = {"deletion": mc.candidate_deletion, "partition": mc.candidate_partition}
    return [(label, problem, k, budget, solve[problem](e, k, budget).to_json_dict())
            for seed in range(1, SEEDS + 1)
            for label, problem, e, k in instances(mc, seed)
            for budget in BUDGETS]


def ramsey(mc) -> list:
    """(label, {kind, members}) of ramsey_extract on every random election of the corpus."""
    return [(label, vars(mc.ramsey_extract(e)))
            for seed in range(1, SEEDS + 1)
            for label, e in elections(mc, seed)]


def recognition(mc) -> list:
    """(label, {arcs, diagram}) of transitive_orientation and recognize_permutation
    on every graph of the corpus and its complement."""
    out = []
    for seed in range(1, SEEDS + 1):
        for label, g in graphs(mc, seed):
            for name, h in ((label, g), (f"complement of {label}", g.complement())):
                o, d = mc.transitive_orientation(h), mc.recognize_permutation(h)
                out.append((name, {"arcs": o and sorted(o.arcs), "diagram": d and (d.pi1, d.pi2)}))
    return out


def unbudgeted(mc) -> dict:
    """The runs that take no node budget, by kind: any difference in them is a failure."""
    return {"ramsey": ramsey(mc), "recognition": recognition(mc)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(REPO), "archive", args.base, "src"],
                                 capture_output=True)
        if archive.returncode:
            print(archive.stderr.decode().strip(), file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        base_mc = load(Path(tmp) / "src", "multicrossing_base")
        base, base_unbudgeted = results(base_mc), unbudgeted(base_mc)
    head_mc = load(REPO / "src", "multicrossing_head")
    head, head_unbudgeted = results(head_mc), unbudgeted(head_mc)

    nodes = {"base": {}, "head": {}}
    differences = complete_differences = 0
    for (label, problem, k, budget, old), (*_, new) in zip(base, head):
        for side, out in (("base", old), ("head", new)):
            nodes[side][problem] = nodes[side].get(problem, 0) + out["nodes_explored"]
        fields = [key for key in old.keys() | new.keys()
                  if key != "nodes_explored" and old.get(key) != new.get(key)]
        if not fields:
            continue
        differences += 1
        complete = not (old["budget_exceeded"] or new["budget_exceeded"])
        complete_differences += complete
        note = "" if complete else " (a search ran out of budget)"
        print(f"{problem} k={k} budget={budget} on {label}{note}:")
        for key in sorted(fields):
            print(f"  {key}: base {old.get(key)!r}, head {new.get(key)!r}")

    print(f"{len(head)} results, {differences} differences, "
          f"{complete_differences} between complete results")
    for problem in ("deletion", "partition"):
        print(f"{problem} nodes: base {nodes['base'][problem]}, head {nodes['head'][problem]}")

    unbudgeted_differences = 0
    for kind, runs in head_unbudgeted.items():
        kind_differences = 0
        for (label, old), (_, new) in zip(base_unbudgeted[kind], runs):
            if old != new:
                kind_differences += 1
                print(f"{kind} on {label}: base {old!r}, head {new!r}")
        print(f"{len(runs)} {kind} runs, {kind_differences} differences")
        unbudgeted_differences += kind_differences
    return 1 if complete_differences or unbudgeted_differences else 0


if __name__ == "__main__":
    sys.exit(main())
