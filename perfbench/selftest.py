"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks, for every workload: every metric BENCHMARK.json names appears
with its unit (end-to-end untraced, per-layer traced); no operation fails;
a deliberately corrupted answer of every operation kind is rejected by
the checker; and a second seed also completes. Exits 1 on any problem.
"""
from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from multicrossing import PermutationDiagram, UndirectedGraph  # noqa: E402

import run  # noqa: E402
from harness import NoTrace, check_op  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    CliOp,
    ExactOp,
    GammaScanOp,
    RecognizeOp,
    ThreeVoterOp,
    open_context,
)


def corrupt(op, result):
    """The same answer with one deliberate error in it."""
    if isinstance(op, GammaScanOp):
        e, verdict, g, out = result
        edges = sorted(g.edges)
        edges = edges[1:] if edges else [tuple(g.vertices[:2])]
        return e, verdict, UndirectedGraph(g.vertices, edges), out
    if isinstance(op, ThreeVoterOp):
        res, e, d, p = result
        return res, e, replace(d, kept=d.kept[1:]), p
    if isinstance(op, RecognizeOp):
        o, d = result
        if d is not None:
            return o, None
        vs = tuple(sorted(op.g.vertices))
        return o, PermutationDiagram(vs, vs)
    if isinstance(op, ExactOp):
        return replace(result, feasible=not result.feasible)
    assert isinstance(op, CliOp)
    code = {0: 1, 1: 0, 3: 0}[result.returncode]
    return subprocess.CompletedProcess(result.args, code, result.stdout, result.stderr)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]} | {"failed_ratio": "ratio"}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for name in WORKLOADS:
        for seed, traced, want in ((1, False, want_e2e), (1, True, want_layer), (2, False, want_e2e)):
            res = run.run_workload(name, seed, 0.5, traced, tiny=True)
            got = {m: unit for m, (_, unit) in res["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={int(traced)}: metrics {sorted(set(got) ^ set(want))} "
                                f"missing or extra, or units differ")
            if res["unverified_instances"]:
                problems.append(f"{name} seed {seed}: instances without a reference answer")
            if res["failed"] or not res["attempted"]:
                problems.append(f"{name} seed {seed}: {res['failed']} of {res['attempted']} failed: "
                                f"{res['failures'][:2]}")
        ctx = open_context(name, ROOT, run.OUT, f"selftest-{name}")
        try:
            ops = WORKLOADS[name].setup(3, WORKLOADS[name].tiny, NoTrace(), ctx)
            for op in ops:
                result = op.run(NoTrace())
                if check_op(op, result):
                    problems.append(f"{name}/{op.kind}: correct answer rejected")
                if not check_op(op, corrupt(op, result)):
                    problems.append(f"{name}/{op.kind}: corrupted answer accepted")
        finally:
            ctx.close()
        print(f"{name}: checked", file=sys.stderr)
    for p in problems:
        print("PROBLEM", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
