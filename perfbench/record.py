"""Record the answers the checks compare against, for every pooled instance.

    python3 perfbench/record.py

Writes perfbench/recorded.json. Answers come from the package itself at
the commit that recorded them, with a node budget far above the
benchmark's, so a later change that alters an answer fails the check.
Instances still undecided at RECORD_BUDGET are recorded as null; their
answers are then checked by certificate only. A run counts as incorrect
if an instance has no entry at all and is too large for a bruteforce
oracle. Run it again only when the pools in workloads.py change, and
say so in the change.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from multicrossing import (  # noqa: E402
    candidate_deletion,
    exact_coloring,
    maximum_independent_set,
    recognize_permutation,
    transitive_orientation,
)

import checks  # noqa: E402
from harness import NoTrace  # noqa: E402
from workloads import (  # noqa: E402
    RECORDED_PATH,
    WORKLOADS,
    exact_entry,
    exact_key,
    three_voter_entry,
)

RECORD_BUDGET = 2_000_000
NOTRACE = NoTrace()


def main() -> int:
    out: dict = {}
    skipped = 0
    for kind, spec in WORKLOADS["three-voter"].params.items():
        for j in range(spec["pool"]):
            if kind == "rand3":
                e = three_voter_entry(kind, spec, j, NOTRACE)[1]
                out[checks.election_key(e.candidates, e.votes, "mis")] = len(
                    candidate_deletion(e, 0).kept)
            elif kind in ("comparability", "random"):
                g = three_voter_entry(kind, spec, j, NOTRACE)
                out[checks.graph_key(g.vertices, g.edges, "recognize")] = {
                    "comparability": transitive_orientation(g) is not None,
                    "permutation": recognize_permutation(g) is not None,
                }
    params = WORKLOADS["exact"].params
    for kind in ("deletion", "partition"):
        for stratum in params[kind]:
            for j in range(params["pool"]):
                g, _, k = exact_entry(kind, stratum, j, NOTRACE)
                if kind == "deletion":
                    found, complete, _ = maximum_independent_set(g, RECORD_BUDGET)
                    answer = len(found) if complete else None
                else:
                    status = exact_coloring(g, k, RECORD_BUDGET).status
                    answer = None if status == "budget-exceeded" else status == "found"
                if answer is None:
                    skipped += 1
                    print(f"undecided at {RECORD_BUDGET} nodes: {kind} {stratum} #{j}")
                out[exact_key(kind, g, k)] = answer
    RECORDED_PATH.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(out) - skipped} answers, {skipped} undecided")
    return 0


if __name__ == "__main__":
    sys.exit(main())
