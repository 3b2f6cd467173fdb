"""Benchmark of the multicrossing package: one workload, one seed, one run.

    python3 perfbench/run.py --workload gamma-scan --seed 1 --seconds 25 --trace 0

Run from the repository root. Sets up the workload's corpus a few times
(set-up time is the median), then runs a closed loop with one client for
--seconds of timed work, checking every answer outside the timed region.
--trace 0 reports the end-to-end metrics; --trace 1 runs half the time
untraced and half traced, and reports the per-layer metrics. The last
line of standard output is one JSON object; a fuller record with the
environment goes to perfbench/out/. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from harness import (
    NoTrace,
    Tracer,
    by_kind,
    end_to_end,
    environment,
    layer_sums,
    measure,
    throughput,
    write_spans,
)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
MIN_OPS = 100  # so that 10 samples lie beyond the 90th percentile
E2E = ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "decided_ratio", "peak_rss_mb", "setup_s")
CLI_SUBCOMMANDS = ("check", "gamma", "analyze", "implement", "recognize", "gen")

# Per-operation layer metrics: (metric, unit, span name, field). `time` is
# the span's duration, `self` its duration minus its (replayed) children.
PER_OP = [
    ("elections.parse_election.time_s", "s/op", "elections.parse_election", "time"),
    ("elections.parse_election.bytes", "B/op", "elections.parse_election", "bytes"),
    ("elections.emit.time_s", "s/op", "elections.emit", "time"),
    ("elections.is_single_crossing.time_s", "s/op", "elections.is_single_crossing", "time"),
    ("elections.is_single_crossing.positive", "count/op", "elections.is_single_crossing", "positive"),
    ("elections.multicrossing_graph.time_s", "s/op", "elections.multicrossing_graph", "time"),
    ("elections.multicrossing_graph.pair_votes", "count/op", "elections.multicrossing_graph", "pair_votes"),
    ("elections.multicrossing_graph.edges", "count/op", "elections.multicrossing_graph", "edges"),
    ("constructions.implement.time_s", "s/op", "constructions.implement", "time"),
    ("constructions.implement.voters", "count/op", "constructions.implement", "voters"),
    ("constructions.verify_estimate.time_s", "s/op", "constructions.verify_estimate", "time"),
    ("graphs.transitive_orientation.time_s", "s/op", "graphs.transitive_orientation", "time"),
    ("graphs.recognize_permutation.time_s", "s/op", "graphs.recognize_permutation", "time"),
    ("graphs.verify_transitive.time_s", "s/op", "graphs.verify_transitive", "time"),
    ("graphs.is_bipartite.time_s", "s/op", "graphs.is_bipartite", "time"),
    ("graphs.max_antichain.time_s", "s/op", "graphs.max_antichain", "time"),
    ("graphs.mirsky_coloring.time_s", "s/op", "graphs.mirsky_coloring", "time"),
    ("graphs.maximum_independent_set.time_s", "s/op", "graphs.maximum_independent_set", "time"),
    ("graphs.maximum_independent_set.nodes", "count/op", "graphs.maximum_independent_set", "nodes"),
    ("graphs.exact_coloring.time_s", "s/op", "graphs.exact_coloring", "time"),
    ("graphs.exact_coloring.nodes", "count/op", "graphs.exact_coloring", "nodes"),
    ("analysis.candidate_deletion.time_s", "s/op", "analysis.candidate_deletion", "time"),
    ("analysis.candidate_deletion.self_s", "s/op", "analysis.candidate_deletion", "self"),
    ("analysis.candidate_deletion.nodes", "count/op", "analysis.candidate_deletion", "nodes"),
    ("analysis.candidate_partition.time_s", "s/op", "analysis.candidate_partition", "time"),
    ("analysis.candidate_partition.self_s", "s/op", "analysis.candidate_partition", "self"),
    ("analysis.candidate_partition.nodes", "count/op", "analysis.candidate_partition", "nodes"),
]


def per_layer(spans, traced_run, plain_run):
    """Per-layer metrics of a traced run: {name: (value, unit)}."""
    ops = len(traced_run["latencies"])
    sums = layer_sums(spans, lambda op: op not in ("setup", "import"))
    out = {m: (sums.get(s, {}).get(f, 0) / ops, unit) for m, unit, s, f in PER_OP}
    out["analysis.budget_exceeded"] = (sum(
        sums.get(s, {}).get("budget_exceeded", 0)
        for s in ("analysis.candidate_deletion", "analysis.candidate_partition")) / ops, "count/op")
    setup = layer_sums(spans, lambda op: op == "setup")
    out["generate.time_s"] = (sum(
        (v["time"] for k, v in setup.items() if k.startswith("generate.")), 0.0), "s")
    out["constructions.setup_s"] = (sum(
        (v["time"] for k, v in setup.items() if k.startswith("constructions.")), 0.0), "s")
    for metric, name in [("cli.import.time_ms", "cli.import")] + [
            (f"cli.{sub}.p50_ms", "cli." + sub) for sub in CLI_SUBCOMMANDS]:
        d = [s["end"] - s["start"] for s in spans if s["name"] == name]
        out[metric] = (statistics.median(d) * 1e3 if d else 0.0, "ms")
    out["trace.overhead_ratio"] = (throughput(traced_run) / throughput(plain_run), "ratio")
    return out


def import_probe(tr, ctx, times=5):
    """Start-up cost alone: subprocesses that only import multicrossing.cli."""
    import subprocess

    tr.op = "import"
    for _ in range(times):
        tr.call("cli.import", subprocess.run, [sys.executable, "-c", "import multicrossing.cli"],
                cwd=ctx.workdir, env=ctx.env, check=True, timeout=120)


def cli_pass(seed, tiny, tracer):
    """One traced pass of the `cli` mix plus the import probe: the cli
    layer's metrics, taken along in the traced run of another workload."""
    from workloads import WORKLOADS, open_context

    wl = WORKLOADS["cli"]
    ctx = open_context("cli", ROOT, OUT, f"cli-pass-{seed}")
    try:
        ops = wl.setup(seed, wl.tiny if tiny else wl.params, NoTrace(), ctx)
        run = measure(ops, 1.0, tracer)  # timed work of 1 s rounds to a single pass
        import_probe(tracer, ctx)
    finally:
        ctx.close()
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["gamma-scan", "three-voter", "exact", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "multicrossing" / "__init__.py").is_file():
        print(f"error: no multicrossing sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    from workloads import WORKLOADS

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    spans = result.pop("spans", None)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(ROOT, numpy.__version__),
        "params": WORKLOADS[args.workload].params, **result,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if args.trace:
        write_spans(OUT / f"{stem}-spans.jsonl", spans)

    for name, (value, unit) in result["metrics"].items():
        print(f"{args.workload:12s} {name:44s} {value:14.6g} {unit}")
    print(f"{args.workload:12s} {'operations':44s} {result['attempted']:14d} "
          f"(failed {result['failed']}; {result['instances']} instances, "
          f"{result['unverified_instances']} without a reference answer)")
    for failure in result["failures"][:5]:
        print("FAILED", failure[:500], file=sys.stderr)
    if result["unverified_instances"]:
        print(f"INCORRECT: {result['unverified_instances']} instances have no reference answer; "
              "perfbench/recorded.json does not match the pools or generators (see perfbench/record.py)",
              file=sys.stderr)
    names = E2E if not args.trace else list(result["metrics"])
    print(json.dumps({
        "correct": result["failed"] == 0 and result["unverified_instances"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": result["metrics"][m][0], "unit": result["metrics"][m][1]}
                    for m in names},
    }))
    return 0


def run_workload(name, seed, seconds, traced, tiny=False):
    """Set up, measure and (when traced) trace one workload in this process.

    The caller puts the package's sources on sys.path first.
    """
    from workloads import WORKLOADS, open_context

    wl = WORKLOADS[name]
    params = wl.tiny if tiny else wl.params
    tracer = Tracer()
    ctx = open_context(name, ROOT, OUT, f"{name}-{seed}-{int(traced)}")
    try:
        setup_times = []
        for rep in range(SETUP_REPEATS):
            tr = tracer if traced and rep == SETUP_REPEATS - 1 else NoTrace()
            tr.op = "setup"
            t0 = perf_counter()
            ops = wl.setup(seed, params, tr, ctx)
            setup_times.append(perf_counter() - t0)
        if not traced:
            runs = [measure(ops, seconds, NoTrace(), min_ops=0 if tiny else MIN_OPS)]
            who = resource.RUSAGE_CHILDREN if wl.uses_subprocesses else resource.RUSAGE_SELF
            metrics = end_to_end(runs[0], setup_times, resource.getrusage(who).ru_maxrss / 1024)
        else:
            runs = [measure(ops, seconds / 2, NoTrace()), measure(ops, seconds / 2, tracer, True)]
            if wl.traced_cli_pass:
                runs.append(cli_pass(seed, tiny, tracer))
            elif wl.uses_subprocesses:
                import_probe(tracer, ctx)
            metrics = per_layer(tracer.spans, runs[1], runs[0])
    finally:
        ctx.close()
    failures = [f for r in runs for f in r["failures"]]
    out = {
        "instances": len(ops),
        "unverified_instances": sum(op.unverified for op in ops),
        "attempted": sum(len(r["latencies"]) for r in runs),
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "setup_times_s": setup_times,
        "by_kind": [by_kind(r) for r in runs],
        "latencies_ms": [[round(t * 1e3, 3) for t in r["latencies"]] for r in runs],
        "pass_rates": [r["pass_rates"] for r in runs],
    }
    if traced:
        out["spans"] = tracer.spans
    return out


if __name__ == "__main__":
    sys.exit(main())
