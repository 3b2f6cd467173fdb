"""Closed-loop measurement, spans and metric aggregation for the benchmark."""
from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import traceback
from math import ceil
from pathlib import Path
from time import perf_counter


class NoTrace:
    """Tracing off: calls go straight through."""

    op = None

    def call(self, name, fn, *args, attrs=None, parent=None, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """One span per call the benchmark makes into the program.

    A span holds name, start, end, parent span and operation id, plus
    counts taken from the call's arguments and result. `parent` may name a
    span explicitly: components replayed after an analysis call (to split
    its time) are children of that call although they run after it.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._open: list[int] = []

    def find(self, name):
        """Index of the latest span of that name in the current operation."""
        for i in range(len(self.spans) - 1, -1, -1):
            if self.spans[i]["op"] != self.op:
                break
            if self.spans[i]["name"] == name:
                return i
        return None

    def call(self, name, fn, *args, attrs=None, parent=None, **kwargs):
        if parent is None and self._open:
            parent = self._open[-1]
        span = {"name": name, "parent": parent, "op": self.op}
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span["start"] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = perf_counter()
            self._open.pop()
        if attrs is not None:
            span.update(attrs(result))
        return result


class Op:
    """One instance taken through a workload's pipeline.

    run(tr) is the timed call sequence; check(result) returns a list of
    problems (empty when correct); decided(result) is False for a
    budget-exceeded answer; replay(tr, result) re-runs, in traced runs
    only, the public functions a top-level call is built from.
    """

    kind = "op"
    # Set when the instance has no entry in recorded.json and is too large
    # for a bruteforce oracle; any such instance makes the run incorrect.
    unverified = False

    def run(self, tr):
        raise NotImplementedError

    def check(self, result) -> list[str]:
        raise NotImplementedError

    def decided(self, result) -> bool:
        return True

    def replay(self, tr, result):
        pass


def check_op(op, result) -> list[str]:
    """The correctness gate: the op's checks, with a checker that cannot
    read the answer counting as a rejection."""
    try:
        return op.check(result)
    except Exception:
        return [f"check raised {traceback.format_exc(limit=2)}"]


def measure(ops, seconds, tr, traced=False, min_ops=0):
    """Run whole passes over ops, about `seconds` of timed work in all.

    The number of passes is the one whose timed work comes closest to
    `seconds`, judged from the first pass, but at least enough for
    `min_ops` operations; so every run weighs the corpus evenly. Checks
    (and, when traced, replays) sit outside the timed region. A wall-clock
    guard of three times max(seconds, 10) bounds slow checks.
    """
    latencies, kinds, failures, pass_busy = [], [], [], []
    decided = 0
    busy = 0.0
    deadline = perf_counter() + 3 * max(seconds, 10.0)
    passes = None
    i = 0
    while perf_counter() < deadline:
        op = ops[i % len(ops)]
        i += 1
        tr.op = i
        t0 = perf_counter()
        raised = None
        try:
            result = tr.call("op." + op.kind, op.run, tr)
        except Exception:  # a raising operation is a failed one; keep measuring
            raised = traceback.format_exc(limit=2)
        latencies.append(perf_counter() - t0)
        kinds.append(op.kind)
        busy += latencies[-1]
        if raised:
            failures.append(f"{op.kind}#{i}: raised {raised}")
        else:
            problems = check_op(op, result)
            if problems:
                failures.append(f"{op.kind}#{i}: " + "; ".join(problems))
            elif op.decided(result):
                decided += 1
            if traced:
                op.replay(tr, result)
        if i % len(ops) == 0:
            pass_busy.append(busy - sum(pass_busy))
            if passes is None:
                passes = max(1, round(seconds / busy), -(-min_ops // len(ops)))
            if len(pass_busy) >= passes:
                break
    return {"latencies": latencies, "kinds": kinds, "busy": busy, "decided": decided,
            "failures": failures, "pass_rates": [len(ops) / b for b in pass_busy]}


def by_kind(run) -> dict:
    """Operations and median latency (ms) per operation kind, for the record."""
    groups: dict[str, list[float]] = {}
    for kind, t in zip(run["kinds"], run["latencies"]):
        groups.setdefault(kind, []).append(t)
    return {k: {"ops": len(v), "p50_ms": statistics.median(v) * 1e3} for k, v in groups.items()}


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, ceil(q * len(s)) - 1)]


def throughput(run) -> float:
    """Operations per second of timed work: the median over whole passes."""
    if not run["pass_rates"]:  # cut by the wall-clock guard within the first pass
        return len(run["latencies"]) / run["busy"]
    return statistics.median(run["pass_rates"])


def end_to_end(run, setup_times, peak_rss_mb):
    lat = run["latencies"]
    n = len(lat)
    return {
        "ops_per_s": (throughput(run), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (percentile(lat, 0.9) * 1e3, "ms"),
        "decided_ratio": (run["decided"] / n, "ratio"),
        "failed_ratio": (len(run["failures"]) / n, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def self_times(spans):
    """Span duration minus the durations of its children (replayed
    children run after their parent, so the result is an estimate)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def layer_sums(spans, op_filter):
    """Per span name: total time, total self time, call count and summed attrs."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s, self_s in zip(spans, selfs):
        if not op_filter(s["op"]):
            continue
        agg = out.setdefault(s["name"], {"time": 0.0, "self": 0.0, "calls": 0})
        agg["time"] += s["end"] - s["start"]
        agg["self"] += self_s
        agg["calls"] += 1
        for key, val in s.items():
            if key not in ("name", "parent", "op", "start", "end"):
                agg[key] = agg.get(key, 0) + val
    return out


def write_spans(path: Path, spans):
    with path.open("w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path):
    """Commit of the checkout; None outside a git repository or without git."""
    try:
        # The ceiling stops git from finding a repository above the checkout.
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)))
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment(root: Path, numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": _git_commit(root),
    }
