#!/usr/bin/env python3
"""Census of small graphs: how many are comparability / permutation /
3-implementable, by exhaustive enumeration.

Usage: python3 scripts/implementability_census.py [--vertices N]

N defaults to 4; 5 is the largest the profile oracle accepts, and its
1024 labelled graphs take about half a second.
"""
import argparse
from itertools import combinations

from multicrossing import bruteforce as bf
from multicrossing.graphs import UndirectedGraph


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=4,
                        choices=range(1, bf.MAX_PROFILE_VERTICES + 1))
    args = parser.parse_args()

    names = [str(i) for i in range(1, args.vertices + 1)]
    pairs = list(combinations(names, 2))
    counts = {"total": 0, "comparability": 0, "permutation": 0,
              "3-implementable": 0}
    odd_ones = []
    for mask in range(1 << len(pairs)):
        g = UndirectedGraph(names, [p for i, p in enumerate(pairs)
                                    if mask >> i & 1])
        counts["total"] += 1
        comp = bf.bf_transitive_orientation(g)
        perm = bf.bf_permutation_diagram(g)
        impl = bf.bf_is_3_implementable(g)
        counts["comparability"] += comp
        counts["permutation"] += perm
        counts["3-implementable"] += impl
        if impl and not perm:
            odd_ones.append(sorted(g.edges))

    for key, value in counts.items():
        print(f"{key:>16}: {value}")
    print(f"{'3-impl, not perm':>16}: {len(odd_ones)} "
          "(labelled graphs, so isomorphic duplicates are counted)")


if __name__ == "__main__":
    main()
